//! Golden pins for the spatial kernels: convolution, im2col and pooling.
//!
//! Each family below runs a geometry sweep through the public entry
//! points of `ops::conv` and `ops::pool` and folds every output bit
//! (and, for max-pooling, every argmax index) into one FNV-1a digest,
//! compared against a literal recorded from the kernels as they stood
//! before the padded-row lowering replaced their per-element bounds
//! tests. Every family is computed four times — `MEDSPLIT_THREADS` 1 and
//! 2, `MEDSPLIT_ISA` scalar and auto — and the four digests must agree
//! before they are compared with the literal, so a moved digest means a
//! changed gather, a changed accumulation order, a changed tie-break, or
//! a result that depends on the pool size or the instruction set.
//!
//! The sweep is chosen for the places an index into a zero-bordered
//! copy can go wrong: kernels 1/2/3/5 (and non-square ones), strides
//! 1/2/3, paddings 0/1/2 including padding wider than the kernel's
//! reach, non-square inputs, output rows of 1/3/4/8/16/17/33 pixels so
//! that 16-wide tiles start mid-row and span several rows, strides that
//! leave the last input rows uncovered, and batch sizes that leave a
//! partial four-image backward chunk. Convolution inputs carry exact
//! zeros and `-0.0` (post-ReLU activations); pooling inputs add exact
//! ties, `-inf`, NaN, and whole planes of `-inf` / NaN, whose argmax is
//! the plane's first element by the first-strictly-greater-wins rule.
//! Pooling geometries keep `padding < kernel`: beyond that a window lies
//! wholly in padding, which is an error, not a result to pin.
//!
//! `conv_full_mantissa` was added later, recorded against the packed
//! lowering (patch and row tiles gathered into GEMM order) before the
//! in-place kernels replaced it: its operands carry full mantissas, so a
//! reordered or unfused accumulation moves its digest.

use std::sync::Mutex;

use medsplit_tensor::ops::conv::{
    conv2d_backward, conv2d_backward_params, conv2d_backward_planned, conv2d_forward, conv2d_forward_planned,
    im2col, Conv2dSpec,
};
use medsplit_tensor::ops::pool::{
    avgpool2d_backward, avgpool2d_forward, maxpool2d_backward, maxpool2d_forward,
};
use medsplit_tensor::{pool, simd, ConvPlan, Tensor};

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

    /// Multiples of 1/64 in `[-2, 2)`.
    fn fine(&mut self) -> f32 {
        (self.next() % 256) as f32 / 64.0 - 2.0
    }

    /// Post-ReLU-like activations: about half exact zeros, a few `-0.0`.
    fn activations(&mut self, dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        let data = (0..n)
            .map(|_| match self.next() % 16 {
                0..=6 => 0.0,
                7 => -0.0,
                _ => self.fine().abs(),
            })
            .collect();
        Tensor::from_vec(data, dims.to_vec()).unwrap()
    }

    fn signed(&mut self, dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        let data = (0..n).map(|_| self.fine()).collect();
        Tensor::from_vec(data, dims.to_vec()).unwrap()
    }

    /// Multiples of 1/4 in `[-1, 1]` with exact zeros and `-0.0`: many
    /// exact ties inside any pooling window.
    fn coarse(&mut self, dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        let data = (0..n)
            .map(|_| match self.next() % 12 {
                0 | 1 => 0.0,
                2 => -0.0,
                v => (v as f32 - 7.0) / 4.0,
            })
            .collect();
        Tensor::from_vec(data, dims.to_vec()).unwrap()
    }

    /// A full-mantissa value in `[-2, 2)`: almost no sum of these is
    /// exact, so the digest sees the rounding of every multiply-add and
    /// therefore its order and its fusion.
    fn real(&mut self) -> f32 {
        let hi = self.next();
        let lo = self.next();
        let unit = (f64::from(hi) * 2f64.powi(31) + f64::from(lo)) / 2f64.powi(62);
        (unit * 4.0 - 2.0) as f32
    }

    fn reals(&mut self, dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        let data = (0..n).map(|_| self.real()).collect();
        Tensor::from_vec(data, dims.to_vec()).unwrap()
    }

    /// `reals` with NaN, `±inf`, `-0.0` and subnormals sprinkled in.
    fn specials(&mut self, dims: &[usize]) -> Tensor {
        let mut t = self.reals(dims);
        for v in t.as_mut_slice() {
            match self.next() % 32 {
                0 => *v = f32::NAN,
                1 => *v = f32::INFINITY,
                2 => *v = f32::NEG_INFINITY,
                3 | 4 => *v = -0.0,
                5..=7 => *v *= 1e-39,
                _ => {}
            }
        }
        t
    }

    /// `coarse` with `-inf` and NaN sprinkled in, the first plane all
    /// `-inf` and the second all NaN.
    fn hostile(&mut self, dims: &[usize]) -> Tensor {
        let mut t = self.coarse(dims);
        let plane = dims[2] * dims[3];
        for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
            match (i / plane, self.next() % 8) {
                (0, _) | (_, 0) => *v = f32::NEG_INFINITY,
                (1, _) | (_, 1) => *v = f32::NAN,
                _ => {}
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

/// Everything the conv entry points return for one geometry.
fn conv_case(rng: &mut Lcg, n: usize, c: usize, h: usize, w: usize, o: usize, spec: Conv2dSpec) -> u64 {
    let input = rng.activations(&[n, c, h, w]);
    let weight = rng.signed(&[o, c, spec.kernel_h, spec.kernel_w]);
    let bias = rng.signed(&[o]);
    let mut d = Fnv::new();

    let out = conv2d_forward(&input, &weight, Some(&bias), spec).unwrap();
    d.tensor(&out);
    d.tensor(&conv2d_forward(&input, &weight, None, spec).unwrap());
    let mut plan = ConvPlan::pack(&weight, spec, 0).unwrap();
    let planned = conv2d_forward_planned(&input, &mut plan, Some(&bias)).unwrap();
    assert_eq!(
        planned.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        out.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "planned forward diverged from the unplanned one"
    );
    d.tensor(&planned);
    d.tensor(&im2col(&input, spec).unwrap());

    // An upstream gradient that has itself been through a ReLU mask.
    let mut grad_out = rng.signed(out.dims());
    for (g, &y) in grad_out.as_mut_slice().iter_mut().zip(out.as_slice()) {
        if y <= 0.0 {
            *g = 0.0;
        }
    }
    let (gi, gw, gb) = conv2d_backward(&input, &weight, &grad_out, spec).unwrap();
    let (pi, pw, pb) = conv2d_backward_planned(&input, &weight, &grad_out, &mut plan).unwrap();
    for t in [&gi, &gw, &gb, &pi, &pw, &pb] {
        d.tensor(t);
    }
    d.0
}

/// Every conv entry point — planned and unplanned forward, planned and
/// unplanned backward, and the parameters-only backward — over
/// full-mantissa operands. With `specials`, the input alone carries NaN,
/// `±inf`, `-0.0` and subnormals; the weight and the upstream gradient
/// stay finite.
#[allow(clippy::too_many_arguments)]
fn conv_full_case(
    rng: &mut Lcg,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    o: usize,
    spec: Conv2dSpec,
    specials: bool,
) -> u64 {
    let input = if specials {
        rng.specials(&[n, c, h, w])
    } else {
        rng.reals(&[n, c, h, w])
    };
    let weight = rng.reals(&[o, c, spec.kernel_h, spec.kernel_w]);
    let bias = rng.reals(&[o]);
    let mut d = Fnv::new();
    let out = conv2d_forward(&input, &weight, Some(&bias), spec).unwrap();
    d.tensor(&out);
    d.tensor(&conv2d_forward(&input, &weight, None, spec).unwrap());
    let mut plan = ConvPlan::pack(&weight, spec, 0).unwrap();
    d.tensor(&conv2d_forward_planned(&input, &mut plan, Some(&bias)).unwrap());
    d.tensor(&conv2d_forward_planned(&input, &mut plan, None).unwrap());
    let grad_out = rng.reals(out.dims());
    let (gi, gw, gb) = conv2d_backward(&input, &weight, &grad_out, spec).unwrap();
    let (pi, pw, pb) = conv2d_backward_planned(&input, &weight, &grad_out, &mut plan).unwrap();
    let (qw, qb) = conv2d_backward_params(&input, &weight, &grad_out, spec).unwrap();
    for t in [&gi, &gw, &gb, &pi, &pw, &pb, &qw, &qb] {
        d.tensor(t);
    }
    d.0
}

fn label(n: usize, c: usize, h: usize, w: usize, o: usize, s: Conv2dSpec) -> String {
    format!(
        "{n}x{c}x{h}x{w}->o{o} k{}x{} s{} p{}",
        s.kernel_h, s.kernel_w, s.stride, s.padding
    )
}

fn conv_family(seed: u64, cases: &[(usize, usize, usize, usize, usize, Conv2dSpec)]) -> Vec<(String, u64)> {
    let mut rng = Lcg(seed);
    cases
        .iter()
        .filter(|(_, _, h, w, _, spec)| spec.output_hw(*h, *w).is_ok())
        .map(|&(n, c, h, w, o, spec)| {
            (
                label(n, c, h, w, o, spec),
                conv_case(&mut rng, n, c, h, w, o, spec),
            )
        })
        .collect()
}

#[test]
fn conv_geometry_sweep() {
    let mut cases = Vec::new();
    for k in [1, 2, 3, 5] {
        for s in [1, 2, 3] {
            for p in [0, 1, 2] {
                for (h, w) in [(5, 7), (8, 5), (6, 6)] {
                    cases.push((3, 2, h, w, 3, Conv2dSpec::square(k, s, p)));
                }
            }
        }
    }
    for (kh, kw, s, p) in [(2, 3, 1, 1), (3, 1, 2, 0), (1, 5, 1, 2), (3, 2, 3, 2)] {
        let spec = Conv2dSpec {
            kernel_h: kh,
            kernel_w: kw,
            stride: s,
            padding: p,
        };
        cases.push((2, 3, 7, 9, 4, spec));
    }
    pin("conv_geometry_sweep", 0xca16_95ff_2fc7_c6fb, || {
        conv_family(0x5eed_0001, &cases)
    });
}

#[test]
fn conv_output_row_widths() {
    // `ow` of 1, 3, 4, 8, 16, 17 and 33 at stride 1 (w = ow) and at
    // stride 2 (w = 2·ow − 1): 16-pixel tiles start mid-row and span
    // several rows; five images are one full backward chunk plus one.
    let mut cases = Vec::new();
    for ow in [1, 3, 4, 8, 16, 17, 33] {
        for h in [3, 5] {
            cases.push((5, 3, h, ow, 5, Conv2dSpec::square(3, 1, 1)));
            cases.push((5, 3, h, 2 * ow - 1, 8, Conv2dSpec::square(3, 2, 1)));
        }
        cases.push((2, 2, 6, ow + 4, 7, Conv2dSpec::square(5, 1, 0)));
        cases.push((2, 2, 4, ow, 7, Conv2dSpec::square(1, 1, 0)));
    }
    pin("conv_output_row_widths", 0xb8d7_66a7_5dff_70ef, || {
        conv_family(0x5eed_0002, &cases)
    });
}

#[test]
fn conv_batches_and_model_shapes() {
    let vgg = Conv2dSpec::square(3, 1, 1);
    let mut cases = Vec::new();
    for n in [1, 4, 5, 8, 9] {
        cases.push((n, 3, 8, 8, 4, vgg));
    }
    // The three VGG-lite layers, a depth past one `kc` block
    // (40·9 = 360 > 320), and a strided 7×7 stem.
    cases.push((2, 3, 16, 16, 8, vgg));
    cases.push((2, 8, 8, 8, 16, vgg));
    cases.push((2, 16, 4, 4, 32, vgg));
    cases.push((1, 40, 4, 4, 7, vgg));
    cases.push((1, 3, 20, 20, 6, Conv2dSpec::square(7, 2, 3)));
    pin("conv_batches_and_model_shapes", 0xc1c4_c2a3_88e9_d3a7, || {
        conv_family(0x5eed_0003, &cases)
    });
}

#[test]
fn conv_full_mantissa() {
    // The families above draw multiples of 1/64, so nearly every conv sum
    // is exact and a reordered or unfused accumulation would not show.
    // Here every operand has a full mantissa: the three VGG-lite layers
    // over batches of 1 to 64 (single images, a partial four-image
    // backward chunk, and the pool's two-thread split), a stride-2 and a
    // 5×7 geometry, and the 8×8 layer with specials in its input.
    let vgg = Conv2dSpec::square(3, 1, 1);
    let mut cases = Vec::new();
    for n in [1, 2, 5, 16, 64] {
        cases.push((n, 3, 16, 16, 8, vgg, false));
        cases.push((n, 8, 8, 8, 16, vgg, false));
        cases.push((n, 16, 4, 4, 32, vgg, false));
    }
    cases.push((5, 3, 9, 9, 8, Conv2dSpec::square(3, 2, 1), false));
    cases.push((5, 3, 5, 7, 5, vgg, false));
    cases.push((5, 8, 8, 8, 16, vgg, true));
    pin("conv_full_mantissa", 0x464a_5cdb_8834_66b7, || {
        let mut rng = Lcg(0x5eed_0008);
        cases
            .iter()
            .map(|&(n, c, h, w, o, spec, specials)| {
                let tag = if specials { " specials" } else { "" };
                (
                    format!("{}{tag}", label(n, c, h, w, o, spec)),
                    conv_full_case(&mut rng, n, c, h, w, o, spec, specials),
                )
            })
            .collect()
    });
}

#[test]
fn shapes_above_the_pool_work_gate() {
    // Everything above is small enough that the worker pool runs it
    // inline at any `MEDSPLIT_THREADS`; these are not (the gate is 2^19
    // multiply-accumulates, or input elements for pooling), so the
    // two-thread runs really split images, chunks and planes.
    let family = || {
        let mut out = conv_family(
            0x5eed_0006,
            &[
                (9, 8, 16, 16, 16, Conv2dSpec::square(3, 1, 1)),
                (8, 3, 33, 17, 8, Conv2dSpec::square(3, 1, 1)),
                (6, 4, 24, 24, 12, Conv2dSpec::square(5, 2, 2)),
            ],
        );
        let mut rng = Lcg(0x5eed_0007);
        let (n, c, h, w) = (4, 32, 64, 64);
        let input = rng.coarse(&[n, c, h, w]);
        for spec in [Conv2dSpec::square(2, 2, 0), Conv2dSpec::square(3, 2, 1)] {
            let mut d = Fnv::new();
            let fw = maxpool2d_forward(&input, spec).unwrap();
            d.tensor(&fw.output);
            for &i in &fw.argmax {
                d.u64(i as u64);
            }
            let avg = avgpool2d_forward(&input, spec).unwrap();
            d.tensor(&avg);
            d.tensor(&avgpool2d_backward(&avg, input.shape(), spec).unwrap());
            out.push((format!("pool {}", label(n, c, h, w, c, spec)), d.0));
        }
        out
    };
    pin("shapes_above_the_pool_work_gate", 0x6841_db5f_e235_10a3, family);
}

fn pool_specs() -> Vec<Conv2dSpec> {
    let mut specs = Vec::new();
    for k in [1, 2, 3, 5] {
        for s in [1, 2, 3] {
            for p in (0..=2).filter(|&p| p < k) {
                specs.push(Conv2dSpec::square(k, s, p));
            }
        }
    }
    for (kh, kw, s, p) in [(2, 3, 2, 1), (3, 1, 1, 0), (5, 2, 2, 1)] {
        specs.push(Conv2dSpec {
            kernel_h: kh,
            kernel_w: kw,
            stride: s,
            padding: p,
        });
    }
    specs
}

const POOL_INPUTS: [(usize, usize, usize, usize); 5] = [
    (2, 3, 5, 7),
    (2, 3, 8, 5),
    (2, 3, 9, 4),
    (3, 2, 16, 16),
    (2, 3, 1, 33),
];

#[test]
fn maxpool_geometry_sweep() {
    let family = || {
        let mut rng = Lcg(0x5eed_0004);
        let mut out = Vec::new();
        for spec in pool_specs() {
            for (n, c, h, w) in POOL_INPUTS {
                if spec.output_hw(h, w).is_err() {
                    continue;
                }
                let mut d = Fnv::new();
                for input in [
                    rng.coarse(&[n, c, h, w]),
                    rng.activations(&[n, c, h, w]),
                    rng.hostile(&[n, c, h, w]),
                ] {
                    let fw = maxpool2d_forward(&input, spec).unwrap();
                    d.tensor(&fw.output);
                    for &i in &fw.argmax {
                        d.u64(i as u64);
                    }
                    let grad_out = rng.signed(fw.output.dims());
                    d.tensor(&maxpool2d_backward(&grad_out, &fw.argmax, input.shape()).unwrap());
                }
                out.push((label(n, c, h, w, c, spec), d.0));
            }
        }
        out
    };
    pin("maxpool_geometry_sweep", 0x3539_a0f9_35fd_d518, family);
}

#[test]
fn avgpool_geometry_sweep() {
    let family = || {
        let mut rng = Lcg(0x5eed_0005);
        let mut out = Vec::new();
        for spec in pool_specs() {
            for (n, c, h, w) in POOL_INPUTS {
                if spec.output_hw(h, w).is_err() {
                    continue;
                }
                let mut d = Fnv::new();
                for input in [rng.signed(&[n, c, h, w]), rng.activations(&[n, c, h, w])] {
                    let fw = avgpool2d_forward(&input, spec).unwrap();
                    d.tensor(&fw);
                    let grad_out = rng.signed(fw.dims());
                    d.tensor(&avgpool2d_backward(&grad_out, input.shape(), spec).unwrap());
                }
                out.push((label(n, c, h, w, c, spec), d.0));
            }
        }
        out
    };
    pin("avgpool_geometry_sweep", 0xc762_3e69_f486_d076, family);
}
