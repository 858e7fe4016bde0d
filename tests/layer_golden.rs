//! Golden pins for the per-element layer passes: batch normalisation,
//! the dense layer's bias, and the broadcasting binary ops under it.
//!
//! Each family below runs a sweep through the public layer and tensor
//! entry points and folds every output bit into one FNV-1a digest,
//! compared against a literal recorded from the per-feature serial loops
//! and the per-element broadcast odometer as they stood before the
//! feature-interleaved reductions and the row-broadcast add replaced
//! them. Every family is computed four times — `MEDSPLIT_THREADS` 1 and
//! 2, `MEDSPLIT_ISA` scalar and auto — and the four digests must agree
//! case by case before they are compared with the literal, so a moved
//! digest means a changed summation order, a changed per-element
//! expression, or a result that depends on the pool size or the
//! instruction set.
//!
//! Batch normalisation sweeps feature counts around the eight-feature
//! block (1, 3, 7, 8, 9, 16, 17, 32, 33), rank-2 inputs and planes of
//! 1×1 up to 16×16, and batches of 1 to 64. Its inputs are full-mantissa
//! values, so every rounding of every sum shows in the digest, with
//! features that are whole planes of `-0.0`, constant (variance 0), carry
//! `±inf` or NaN, or mix magnitudes up to 1e30 where the order of the
//! adds decides the result.

use std::sync::Mutex;

use medsplit::core::{SplitConfig, SplitTrainer};
use medsplit::data::{partition, MinibatchPolicy, Partition, SyntheticImages};
use medsplit::nn::{Architecture, BatchNorm, Dense, Layer, LrSchedule, Mode, ResNetConfig, VggConfig};
use medsplit::simnet::{MemoryTransport, StarTopology};
use medsplit::tensor::{pool, simd, Tensor};

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

    fn tensor(&mut self, t: &Tensor) {
        self.u64(t.rank() as u64);
        for &d in t.dims() {
            self.u64(d as u64);
        }
        for v in t.as_slice() {
            self.bytes(&v.to_bits().to_le_bytes());
        }
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

    /// A full-mantissa value in `[-2, 2)`: no sum of these is exact, so
    /// the digest sees the rounding of every add.
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

    /// `reals` with exact zeros, `-0.0`, `±inf`, NaN and 1e30-scale
    /// values sprinkled in.
    fn hostile(&mut self, dims: &[usize]) -> Tensor {
        let mut t = self.reals(dims, 1.0);
        for v in t.as_mut_slice() {
            match self.next() % 24 {
                0 => *v = 0.0,
                1 => *v = -0.0,
                2 => *v = f32::INFINITY,
                3 => *v = f32::NEG_INFINITY,
                4 => *v = f32::NAN,
                5 => *v *= 1e30,
                6 => *v *= 1e-30,
                _ => {}
            }
        }
        t
    }

    /// A batch-norm input of `dims` (`[n, c]` or `[n, c, h, w]`) whose
    /// feature `f` follows pattern `(f + salt) % 8`.
    fn features(&mut self, dims: &[usize], salt: usize) -> Tensor {
        let (n, c) = (dims[0], dims[1]);
        let inner: usize = dims[2..].iter().product();
        let mut t = self.reals(dims, 1.0);
        let x = t.as_mut_slice();
        for f in 0..c {
            let kind = (f + salt) % 8;
            // One element of the feature, drawn up front.
            let spot = self.next() as usize % (n * inner);
            for g in 0..n {
                let plane = &mut x[(g * c + f) * inner..(g * c + f + 1) * inner];
                // Whole planes of `-0.0` inside an ordinary feature.
                let negative_zero_plane = self.next().is_multiple_of(8);
                for (i, v) in plane.iter_mut().enumerate() {
                    let at_spot = g * inner + i == spot;
                    *v = match kind {
                        0 if negative_zero_plane => -0.0,
                        1 => -0.0,
                        2 => 1.3125,
                        3 if at_spot => f32::INFINITY,
                        4 if at_spot => f32::NAN,
                        4 if g * inner + i == (spot + 1) % (n * inner) => f32::NEG_INFINITY,
                        5 => *v * 1e30,
                        6 if self.next().is_multiple_of(4) => *v * 1e15,
                        7 => match self.next() % 4 {
                            0 => 0.0,
                            1 => -0.0,
                            _ => v.abs(),
                        },
                        _ => *v,
                    };
                }
            }
        }
        t
    }
}

/// Runs `family` under threads 1/2 × ISA scalar/auto, checks the four
/// runs agree case by case, and compares their digest with `want`.
fn pin(name: &str, want: u64, family: impl Fn() -> Vec<(String, u64)>) {
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
    let (_, _, first) = &runs[0];
    for (isa, threads, cases) in &runs[1..] {
        assert_eq!(cases.len(), first.len(), "{name}: case count");
        for ((label, got), (_, want)) in cases.iter().zip(first) {
            assert_eq!(
                got, want,
                "{name}: `{label}` differs at isa {isa} / {threads} threads from scalar / 1 thread"
            );
        }
    }
    let mut d = Fnv::new();
    for (label, digest) in first {
        d.bytes(label.as_bytes());
        d.u64(*digest);
    }
    if d.0 != want {
        for (label, digest) in first {
            eprintln!("    {label}: {digest:#018x}");
        }
        panic!("{name}: digest {:#018x}, pinned {want:#018x}", d.0);
    }
}

/// Sets every parameter of `layer` to `reals` drawn from `rng`.
fn randomise_params(layer: &mut dyn Layer, rng: &mut Lcg) {
    layer.visit_params(&mut |p| {
        p.value = rng.reals(p.value.dims(), 1.0);
        p.bump_version();
    });
}

/// Everything one train step and one evaluation of a batch norm leave.
fn batchnorm_case(rng: &mut Lcg, dims: &[usize], salt: usize) -> u64 {
    let c = dims[1];
    let mut bn = BatchNorm::new(c);
    randomise_params(&mut bn, rng);
    let x = rng.features(dims, salt);
    let mut d = Fnv::new();

    let y = bn.forward(&x, Mode::Train).unwrap();
    d.tensor(&y);
    d.tensor(bn.running_mean());
    d.tensor(bn.running_var());

    // Upstream gradients with a few 1e18-scale features, so the order of
    // the `Σg·x̂` adds shows too.
    let mut g = rng.reals(dims, 1.0);
    let inner: usize = dims[2..].iter().product();
    for (i, v) in g.as_mut_slice().iter_mut().enumerate() {
        if (i / inner % c + salt) % 5 == 3 {
            *v *= 1e18;
        }
    }
    d.tensor(&bn.backward(&g).unwrap());
    bn.visit_params(&mut |p| d.tensor(&p.grad));

    d.tensor(&bn.forward(&x, Mode::Eval).unwrap());
    // A second training step moves the running statistics from where the
    // first left them.
    let x2 = rng.features(dims, salt + 3);
    d.tensor(&bn.forward(&x2, Mode::Train).unwrap());
    d.tensor(bn.running_mean());
    d.tensor(bn.running_var());
    d.0
}

#[test]
fn batchnorm_geometry_sweep() {
    let family = || {
        let mut rng = Lcg(0x5eed_0101);
        let mut out = Vec::new();
        let mut salt = 0;
        for c in [1, 3, 7, 8, 9, 16, 17, 32, 33] {
            for plane in [
                None,
                Some((1, 1)),
                Some((3, 5)),
                Some((4, 4)),
                Some((8, 8)),
                Some((16, 16)),
            ] {
                for n in [1, 2, 5, 16, 64] {
                    let dims = match plane {
                        None => vec![n, c],
                        Some((h, w)) => vec![n, c, h, w],
                    };
                    out.push((
                        format!("bn {dims:?} salt {salt}"),
                        batchnorm_case(&mut rng, &dims, salt),
                    ));
                    salt += 1;
                }
            }
        }
        out
    };
    pin("batchnorm_geometry_sweep", 0xe82e_65f7_c66a_5ef8, family);
}

#[test]
fn dense_with_bias() {
    let family = || {
        let mut rng = Lcg(0x5eed_0102);
        let mut out = Vec::new();
        for (n, input, output) in [
            (64, 32, 128),
            (256, 128, 3),
            (64, 128, 256),
            (1, 32, 128),
            (1, 128, 3),
        ] {
            let weight = rng.reals(&[output, input], 0.25);
            let bias = rng.reals(&[output], 1.0);
            let mut layer = Dense::from_parts(weight, bias).unwrap();
            let x = rng.reals(&[n, input], 1.0);
            let mut d = Fnv::new();
            let y = layer.forward(&x, Mode::Train).unwrap();
            d.tensor(&y);
            let g = rng.reals(&[n, output], 1.0);
            d.tensor(&layer.backward(&g).unwrap());
            layer.visit_params(&mut |p| d.tensor(&p.grad));
            d.tensor(&layer.forward(&x, Mode::Eval).unwrap());
            out.push((format!("dense {n}x{input}->{output}"), d.0));
        }
        out
    };
    pin("dense_with_bias", 0x17d4_61eb_644b_4a5d, family);
}

#[test]
fn broadcast_binary_ops() {
    let family = || {
        let mut rng = Lcg(0x5eed_0103);
        let mut out = Vec::new();
        let pairs: [(&[usize], &[usize]); 6] = [
            (&[64, 128], &[128]),
            (&[2, 3, 4], &[3, 4]),
            (&[64, 128], &[1, 128]),
            (&[5, 1, 7], &[7]),
            (&[64, 1], &[1, 128]),
            (&[3, 1, 4], &[2, 1]),
        ];
        for (big, small) in pairs {
            let a = rng.hostile(big);
            let b = rng.hostile(small);
            let mut d = Fnv::new();
            for (x, y) in [(&a, &b), (&b, &a)] {
                d.tensor(&x.try_add(y).unwrap());
                d.tensor(&x.try_sub(y).unwrap());
                d.tensor(&x.try_mul(y).unwrap());
                d.tensor(&x.try_div(y).unwrap());
            }
            out.push((format!("{big:?} op {small:?}"), d.0));
        }
        out
    };
    pin("broadcast_binary_ops", 0x06d5_ccc8_4c16_4bd0, family);
}

/// Three rounds of split training over a star of four on `arch`: the
/// per-round loss bits, the final accuracy, the server's weight digest
/// and every platform's `L1` parameter bits.
fn train(arch: &Architecture, seed: u64) -> Vec<(String, u64)> {
    let gen = SyntheticImages::lite(arch.num_classes(), seed);
    let (train, test) = gen.generate_split(96, 32).unwrap();
    let shards = partition(&train, 4, &Partition::Iid, seed).unwrap();
    let config = SplitConfig {
        rounds: 3,
        eval_every: 0,
        lr: LrSchedule::Constant(0.05),
        minibatch: MinibatchPolicy::Fixed(8),
        seed,
        ..SplitConfig::default()
    };
    let transport = MemoryTransport::new(StarTopology::new(4));
    let mut trainer = SplitTrainer::new(arch, config, shards, test, &transport).unwrap();
    let history = trainer.run().unwrap();
    let mut losses = Fnv::new();
    for r in &history.records {
        losses.u64(u64::from(r.mean_loss.to_bits()));
    }
    losses.u64(u64::from(history.final_accuracy.to_bits()));
    let mut l1 = Fnv::new();
    for p in trainer.platforms_mut() {
        l1.tensor(&p.l1_parameters());
    }
    vec![
        ("loss".to_string(), losses.0),
        (
            "weights_digest".to_string(),
            trainer.server_mut().weights_digest(),
        ),
        ("l1".to_string(), l1.0),
    ]
}

#[test]
fn vgg_lite_split_training() {
    pin("vgg_lite_split_training", 0x485b_846b_90e5_7da3, || {
        train(&Architecture::Vgg(VggConfig::lite(10)), 31)
    });
}

#[test]
fn resnet_lite_split_training() {
    pin("resnet_lite_split_training", 0xa8b5_d9ac_b9dd_f625, || {
        train(&Architecture::ResNet(ResNetConfig::lite(10)), 32)
    });
}
