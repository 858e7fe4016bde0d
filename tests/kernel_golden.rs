//! Golden pins for the kernels no other golden covers: the elementwise
//! family, the int8 wire encoder and the planned serving forward.
//!
//! Each family below runs a sweep through the public tensor and layer
//! entry points and folds every output bit into one FNV-1a digest per
//! case. Every family is computed four times — `MEDSPLIT_THREADS` 1 and
//! 2, `MEDSPLIT_ISA` scalar and auto — and the four runs must agree case
//! by case before their digest is compared with a literal, so a moved
//! digest means a changed per-element expression, a changed chunking,
//! or a result that depends on the pool size or the instruction set.
//!
//! - The elementwise family (`relu`, `relu_backward`, `leaky_relu`,
//!   `axpy`, `add_assign`, `scale_inplace` and the same-shape `*`) runs
//!   at every length 0–17, 31–33, 63–65 and 999, which covers each
//!   vector body's tails, at one length past the 32 Ki-element parallel
//!   chunk and at one above the pool's work gate, where two threads
//!   really split the chunks. Its inputs are full-mantissa values with
//!   `±0`, `±inf`, NaN and subnormals mixed in.
//! - The int8 encoder is pinned by the bytes of `Tensor::encode` with
//!   `Encoding::Int8` on tensors of any bit pattern, the domain
//!   `crates/tensor/tests/wire_oracle.rs` holds to the reference codec.
//! - The planned serving forward is `Dense` and `Conv2d` in `Mode::Eval`
//!   at batches 1, 2, 4 and 8 on the serving shapes of
//!   `exp kernel_bench`, each evaluated twice: the cold call builds the
//!   layer's plan, the warm one reads it.
//!
//! Two bridge cases replay, byte for byte, the fixed workloads whose
//! digests `kernel_bench --smoke` used to write out for a cross-ISA
//! comparison (`42fd2b1c1a367052` for the kernel mix, `69cb1700998a1dcc`
//! for the planned serving logits), so this file pins everything those
//! two digests did.

use std::sync::Mutex;

use medsplit::nn::{Conv2d, Dense, Layer, Mode};
use medsplit::tensor::init::rng_from_seed;
use medsplit::tensor::ops::conv::{conv2d_forward, Conv2dSpec};
use medsplit::tensor::{pool, simd, Encoding, Tensor};

/// `pool::set_num_threads` and `simd::set_isa` are process-global.
static POOL_LOCK: Mutex<()> = Mutex::new(());

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The value bits alone, as the retired digests folded them.
    fn values(&mut self, t: &Tensor) {
        for v in t.as_slice() {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    fn tensor(&mut self, t: &Tensor) {
        self.u64(t.rank() as u64);
        for &d in t.dims() {
            self.u64(d as u64);
        }
        self.values(t);
    }
}

/// A small LCG, so the inputs do not depend on the vendored `rand`.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as u32
    }

    /// A full-mantissa value in `[-2, 2)`.
    fn real(&mut self) -> f32 {
        let hi = self.next();
        let lo = self.next();
        let unit = (f64::from(hi) * 2f64.powi(31) + f64::from(lo)) / 2f64.powi(62);
        (unit * 4.0 - 2.0) as f32
    }

    fn reals(&mut self, dims: &[usize], scale: f32) -> Tensor {
        let n: usize = dims.iter().product();
        let data = (0..n).map(|_| self.real() * scale).collect();
        Tensor::from_vec(data, dims.to_vec()).unwrap()
    }

    /// `reals` of length `n` with `±0`, `±inf`, NaN, subnormals and
    /// extreme magnitudes sprinkled in.
    fn hostile(&mut self, n: usize) -> Tensor {
        let mut t = self.reals(&[n], 1.0);
        for v in t.as_mut_slice() {
            match self.next() % 20 {
                0 => *v = 0.0,
                1 => *v = -0.0,
                2 => *v = f32::INFINITY,
                3 => *v = f32::NEG_INFINITY,
                4 => *v = f32::NAN,
                5 => *v = f32::from_bits(1 + self.next() % 0x007F_FFFF),
                6 => *v = -f32::from_bits(1 + self.next() % 0x007F_FFFF),
                7 => *v *= 1e38,
                _ => {}
            }
        }
        t
    }

    /// `n` values of any bit pattern.
    fn any_bits(&mut self, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| f32::from_bits(self.next() ^ (self.next() << 16)))
            .collect()
    }
}

/// Runs `family` under threads 1/2 × ISA scalar/auto and checks the four
/// runs agree case by case; returns the scalar, one-thread run.
fn agreed(name: &str, family: impl Fn() -> Vec<(String, u64)>) -> Vec<(String, u64)> {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut runs = Vec::new();
    for isa in [simd::Isa::Scalar, simd::detect()] {
        assert!(simd::set_isa(isa));
        for threads in [1, 2] {
            pool::set_num_threads(threads);
            runs.push((isa.name(), threads, family()));
        }
    }
    pool::set_num_threads(1);
    let (_, _, first) = runs.remove(0);
    for (isa, threads, cases) in &runs {
        assert_eq!(cases.len(), first.len(), "{name}: case count");
        for ((label, got), (_, want)) in cases.iter().zip(&first) {
            assert_eq!(
                got, want,
                "{name}: `{label}` differs at isa {isa} / {threads} threads from scalar / 1 thread"
            );
        }
    }
    first
}

/// [`agreed`], then the digest of every case compared with `want`.
fn pin(name: &str, want: u64, family: impl Fn() -> Vec<(String, u64)>) {
    let cases = agreed(name, family);
    let mut d = Fnv::new();
    for (label, digest) in &cases {
        d.bytes(label.as_bytes());
        d.u64(*digest);
    }
    if d.0 != want {
        for (label, digest) in &cases {
            eprintln!("    {label}: {digest:#018x}");
        }
        panic!("{name}: digest {:#018x}, pinned {want:#018x}", d.0);
    }
}

/// Lengths that cover every vector body's tails, one past the 32 Ki
/// parallel chunk, and one above the pool's 2^19 work gate.
fn elementwise_lengths() -> Vec<usize> {
    let mut lengths: Vec<usize> = (0..=17).chain(31..=33).chain(63..=65).collect();
    lengths.extend([999, 32 * 1024 + 1, (1 << 19) + 4099]);
    lengths
}

#[test]
fn elementwise_family() {
    let family = || {
        let mut rng = Lcg(0x5eed_0201);
        let mut out = Vec::new();
        for n in elementwise_lengths() {
            let x = rng.hostile(n);
            let g = rng.hostile(n);
            let alpha = rng.real();
            let mut d = Fnv::new();
            d.tensor(&x.relu());
            d.tensor(&x.relu_backward(&g).unwrap());
            d.tensor(&x.relu().relu_backward(&g).unwrap());
            d.tensor(&x.leaky_relu(0.01));
            d.tensor(&x.leaky_relu(alpha));
            let mut acc = x.clone();
            acc.axpy(alpha, &g).unwrap();
            d.tensor(&acc);
            acc.add_assign(&g).unwrap();
            d.tensor(&acc);
            acc.scale_inplace(-1.25);
            d.tensor(&acc);
            acc.scale_inplace(alpha);
            d.tensor(&acc);
            d.tensor(&(&x * &g));
            out.push((format!("elementwise len {n}"), d.0));
        }
        out
    };
    pin("elementwise_family", 0x883a_f31a_4f49_b050, family);
}

#[test]
fn int8_encoder() {
    let family = || {
        let mut rng = Lcg(0x5eed_0202);
        let mut cases: Vec<(String, Tensor)> = Vec::new();
        let tiny = f32::from_bits(1);
        let specials = vec![
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            tiny,
            -tiny,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            65504.0,
            2.0f32.powi(-24),
        ];
        let finite: Vec<f32> = specials.iter().copied().filter(|v| !v.is_infinite()).collect();
        for (label, data) in [("specials", specials), ("finite specials", finite)] {
            let n = data.len();
            cases.push((label.into(), Tensor::from_vec(data, [n]).unwrap()));
        }
        cases.push((
            "all NaN".into(),
            Tensor::from_vec(vec![f32::NAN; 5], [5]).unwrap(),
        ));
        cases.push(("zeros".into(), Tensor::zeros([3, 4])));
        cases.push(("empty".into(), Tensor::zeros([0, 5])));
        cases.push(("rank 0".into(), Tensor::scalar(-3.5)));
        let subnormals: Vec<f32> = (0..=255u32).step_by(7).map(f32::from_bits).collect();
        let n = subnormals.len();
        cases.push(("subnormals".into(), Tensor::from_vec(subnormals, [n]).unwrap()));
        // Values on and one ulp either side of the rounding boundaries,
        // at scales that are and are not powers of two.
        for scale in [
            1.0f32,
            2.0f32.powi(-10),
            2.0f32.powi(20),
            2.0f32.powi(-140),
            0.1,
            3.0,
        ] {
            let mut data = vec![127.0 * scale];
            for k in -253..=253 {
                let v = k as f32 * 0.5 * scale;
                data.extend([
                    v,
                    f32::from_bits(v.to_bits() + 1),
                    f32::from_bits(v.to_bits().max(1) - 1),
                ]);
            }
            let n = data.len();
            cases.push((
                format!("half grid scale {scale:e}"),
                Tensor::from_vec(data, [n]).unwrap(),
            ));
        }
        for n in [1, 7, 8, 9, 31, 32, 33, 64, 65, 200, 999] {
            cases.push((format!("activations len {n}"), rng.reals(&[n], 20.0)));
            cases.push((format!("hostile len {n}"), rng.hostile(n)));
            let bits = rng.any_bits(n);
            cases.push((format!("any bits len {n}"), Tensor::from_vec(bits, [n]).unwrap()));
        }
        cases.push(("activations 64x128".into(), rng.reals(&[64, 128], 4.0)));
        cases
            .into_iter()
            .map(|(label, t)| {
                let mut d = Fnv::new();
                d.bytes(&t.encode(Encoding::Int8));
                (format!("int8 {label}"), d.0)
            })
            .collect()
    };
    pin("int8_encoder", 0x6731_737f_a729_0fb2, family);
}

/// Serving batches of the planned forward.
const BATCHES: [usize; 4] = [1, 2, 4, 8];

/// A layer's eval forward, cold (building its plan) and then warm.
fn planned_twice(layer: &mut dyn Layer, x: &Tensor) -> u64 {
    let mut d = Fnv::new();
    let cold = layer.forward(x, Mode::Eval).unwrap();
    let warm = layer.forward(x, Mode::Eval).unwrap();
    d.tensor(&cold);
    d.tensor(&warm);
    d.0
}

#[test]
fn planned_serving_forward() {
    let family = || {
        let mut rng = Lcg(0x5eed_0203);
        let mut out = Vec::new();
        for (input, output) in [(256, 256), (784, 128), (128, 3), (32, 128)] {
            let weight = rng.reals(&[output, input], 0.25);
            let bias = rng.reals(&[output], 1.0);
            let mut layer = Dense::from_parts(weight, bias).unwrap();
            for batch in BATCHES {
                let x = rng.reals(&[batch, input], 1.0);
                out.push((
                    format!("dense b{batch}x{input}->{output}"),
                    planned_twice(&mut layer, &x),
                ));
            }
        }
        let spec = Conv2dSpec::square(3, 1, 1);
        for (c, hw, o) in [(8, 16, 16), (8, 8, 16), (16, 4, 32), (3, 16, 8)] {
            let weight = rng.reals(&[o, c, 3, 3], 0.25);
            let bias = rng.reals(&[o], 1.0);
            let mut layer = Conv2d::from_parts(weight, bias, spec).unwrap();
            for batch in BATCHES {
                let x = rng.reals(&[batch, c, hw, hw], 1.0);
                out.push((
                    format!("conv b{batch}x{c}x{hw}x{hw}->k3s1p1o{o}"),
                    planned_twice(&mut layer, &x),
                ));
            }
        }
        out
    };
    pin("planned_serving_forward", 0x6fb7_b365_29e6_5aee, family);
}

/// The fixed kernel mix `kernel_bench --smoke` digested: the three GEMM
/// entry points with edge tiles, a padded conv, the ReLU family, the
/// accumulators, the same-shape product and three int8 frames.
fn kernel_mix_digest() -> u64 {
    let mut rng = rng_from_seed(99);
    let a = Tensor::rand_uniform([70, 93], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform([93, 37], -1.0, 1.0, &mut rng);
    let mut d = Fnv::new();
    d.values(&a.matmul(&b).unwrap());
    d.values(&a.transpose().unwrap().matmul_tn(&b).unwrap());
    d.values(&a.matmul_nt(&b.transpose().unwrap()).unwrap());

    let input = Tensor::rand_uniform([2, 3, 11, 11], -1.0, 1.0, &mut rng);
    let weight = Tensor::rand_uniform([4, 3, 3, 3], -0.5, 0.5, &mut rng);
    let conv = conv2d_forward(&input, &weight, None, Conv2dSpec::square(3, 1, 1)).unwrap();
    d.values(&conv);

    let x = Tensor::rand_uniform([999], -2.0, 2.0, &mut rng);
    let g = Tensor::rand_uniform([999], -1.0, 1.0, &mut rng);
    d.values(&x.relu());
    d.values(&x.relu().relu_backward(&g).unwrap());
    d.values(&x.leaky_relu(0.01));
    let mut acc = x.clone();
    acc.axpy(0.37, &g).unwrap();
    acc.add_assign(&g).unwrap();
    acc.scale_inplace(-1.25);
    d.values(&acc);
    d.values(&(&x * &g));
    for t in [&conv, &x, &acc] {
        d.bytes(&t.encode(Encoding::Int8));
    }
    d.0
}

/// The planned serving logits `kernel_bench` digested: two dense heads
/// and one conv block, each at batches 1, 2, 4 and 8, in that order.
fn serving_logits_digest() -> u64 {
    let mut d = Fnv::new();
    for (input, output) in [(256, 256), (784, 128)] {
        let mut rng = rng_from_seed(23);
        let w = Tensor::rand_uniform([output, input], -0.5, 0.5, &mut rng);
        let b = Tensor::rand_uniform([output], -0.1, 0.1, &mut rng);
        let mut layer = Dense::from_parts(w, b).unwrap();
        for batch in BATCHES {
            let x = Tensor::rand_uniform([batch, input], -1.0, 1.0, &mut rng);
            d.values(&layer.forward(&x, Mode::Eval).unwrap());
        }
    }
    let (c, hw, o) = (8, 16, 16);
    let mut rng = rng_from_seed(29);
    let w = Tensor::rand_uniform([o, c, 3, 3], -0.5, 0.5, &mut rng);
    let b = Tensor::rand_uniform([o], -0.1, 0.1, &mut rng);
    let mut layer = Conv2d::from_parts(w, b, Conv2dSpec::square(3, 1, 1)).unwrap();
    for batch in BATCHES {
        let x = Tensor::rand_uniform([batch, c, hw, hw], -1.0, 1.0, &mut rng);
        d.values(&layer.forward(&x, Mode::Eval).unwrap());
    }
    d.0
}

#[test]
fn bridge_to_the_retired_digests() {
    let cases = agreed("bridge", || {
        vec![
            ("kernel mix".to_string(), kernel_mix_digest()),
            ("serving logits".to_string(), serving_logits_digest()),
        ]
    });
    let got: Vec<String> = cases.iter().map(|(_, d)| format!("{d:016x}")).collect();
    assert_eq!(got, ["42fd2b1c1a367052", "69cb1700998a1dcc"]);
}
