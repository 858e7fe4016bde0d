//! Differential oracle for batch normalisation and the row-broadcast
//! binary ops.
//!
//! `BatchNorm` walks its per-feature reductions eight features side by
//! side and claims that changes no bit: every feature's sums still add
//! the same operands in the same order. This file holds it to the
//! one-feature-at-a-time loops it replaced, kept below verbatim as
//! [`Reference`], **bit for bit** — forward in both modes with the
//! running statistics, backward with the input gradient and both
//! parameter gradients — under proptest-drawn feature counts (1..=40,
//! so whole blocks, remainders and both together), plane sizes (1..=70)
//! and batches (1..=9). Inputs are full-mantissa values, so any change of
//! summation order shows, with features that are planes of `-0.0`,
//! constant, `±inf`, NaN or 1e30-scale.
//!
//! The broadcasting `try_add` / `try_sub` / `try_mul` / `try_div` are
//! held to a naive per-element loop wherever one operand is a block
//! repeated along the other's leading axes, in both operand orders.
//!
//! `ci.sh` runs this file in debug and in `--release`: a lane index one
//! off is a slice panic in one build and a wrong value in the other.

use medsplit_nn::{BatchNorm, Layer, Mode};
use medsplit_tensor::Tensor;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Batch normalisation as the one-feature-at-a-time loops computed it.
struct Reference {
    gamma: Vec<f32>,
    beta: Vec<f32>,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    xhat: Vec<f32>,
    inv_std: Vec<f32>,
    dims: (usize, usize),
}

impl Reference {
    fn new(gamma: Vec<f32>, beta: Vec<f32>) -> Self {
        let c = gamma.len();
        Reference {
            gamma,
            beta,
            running_mean: vec![0.0; c],
            running_var: vec![1.0; c],
            momentum: 0.1,
            eps: 1e-5,
            xhat: Vec::new(),
            inv_std: Vec::new(),
            dims: (0, 0),
        }
    }

    fn forward(&mut self, src: &[f32], n: usize, inner: usize, train: bool) -> Vec<f32> {
        let c = self.gamma.len();
        let count = (n * inner) as f32;
        let (mean, var): (Vec<f32>, Vec<f32>) = if train {
            let mut mean = vec![0.0f32; c];
            for g in 0..n {
                for (f, m) in mean.iter_mut().enumerate() {
                    let base = (g * c + f) * inner;
                    *m += src[base..base + inner].iter().sum::<f32>();
                }
            }
            for m in &mut mean {
                *m /= count;
            }
            let mut var = vec![0.0f32; c];
            for g in 0..n {
                for f in 0..c {
                    let base = (g * c + f) * inner;
                    for &v in &src[base..base + inner] {
                        let d = v - mean[f];
                        var[f] += d * d;
                    }
                }
            }
            for v in &mut var {
                *v /= count;
            }
            for f in 0..c {
                let rm = &mut self.running_mean[f];
                *rm = (1.0 - self.momentum) * *rm + self.momentum * mean[f];
                let rv = &mut self.running_var[f];
                *rv = (1.0 - self.momentum) * *rv + self.momentum * var[f];
            }
            (mean, var)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let (gamma, beta) = (&self.gamma, &self.beta);
        let mut o = vec![0.0f32; src.len()];
        let mut xh = vec![0.0f32; src.len()];
        for g in 0..n {
            for f in 0..c {
                let base = (g * c + f) * inner;
                let (m, is, ga, be) = (mean[f], inv_std[f], gamma[f], beta[f]);
                for i in base..base + inner {
                    let h = (src[i] - m) * is;
                    xh[i] = h;
                    o[i] = ga * h + be;
                }
            }
        }
        if train {
            self.xhat = xh;
            self.inv_std = inv_std;
            self.dims = (n, inner);
        }
        o
    }

    /// `(grad_in, dgamma, dbeta)`.
    fn backward(&self, g: &[f32]) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let c = self.gamma.len();
        let (n, inner) = self.dims;
        let count = (n * inner) as f32;
        let (xh, inv_std, gamma) = (&self.xhat, &self.inv_std, &self.gamma);
        let mut sum_g = vec![0.0f32; c];
        let mut sum_gx = vec![0.0f32; c];
        for grp in 0..n {
            for f in 0..c {
                let base = (grp * c + f) * inner;
                for i in base..base + inner {
                    sum_g[f] += g[i];
                    sum_gx[f] += g[i] * xh[i];
                }
            }
        }
        let mut gi = vec![0.0f32; g.len()];
        for grp in 0..n {
            for f in 0..c {
                let base = (grp * c + f) * inner;
                let k = gamma[f] * inv_std[f];
                let mg = sum_g[f] / count;
                let mgx = sum_gx[f] / count;
                for i in base..base + inner {
                    gi[i] = k * (g[i] - mg - xh[i] * mgx);
                }
            }
        }
        (gi, sum_gx, sum_g)
    }
}

/// A seeded LCG.
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
        let unit = (f64::from(self.next()) * 2f64.powi(31) + f64::from(self.next())) / 2f64.powi(62);
        (unit * 4.0 - 2.0) as f32
    }

    fn reals(&mut self, len: usize) -> Vec<f32> {
        (0..len).map(|_| self.real()).collect()
    }

    /// `n` groups of `c` planes of `inner` values; feature `f` is one of
    /// eight kinds picked by `(f + salt) % 8`.
    fn features(&mut self, n: usize, c: usize, inner: usize, salt: usize) -> Vec<f32> {
        let mut x = self.reals(n * c * inner);
        for f in 0..c {
            let spot = self.next() as usize % (n * inner);
            for g in 0..n {
                let negative_zero_plane = self.next().is_multiple_of(6);
                for i in 0..inner {
                    let v = &mut x[(g * c + f) * inner + i];
                    let at = g * inner + i;
                    *v = match (f + salt) % 8 {
                        0 if negative_zero_plane => -0.0,
                        1 => -0.0,
                        2 => 0.625,
                        3 if at == spot => f32::INFINITY,
                        4 if at == spot => f32::NAN,
                        4 if at == (spot + 1) % (n * inner) => f32::NEG_INFINITY,
                        5 => *v * 1e30,
                        6 if self.next().is_multiple_of(3) => *v * 1e12,
                        _ => *v,
                    };
                }
            }
        }
        x
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `[n, c]` for a rank-2 input (`inner` must be 1), else `[n, c, h, w]`
/// with `h·w = inner`.
fn dims_of(n: usize, c: usize, inner: usize, rank2: bool) -> Vec<usize> {
    match (rank2, inner % 2) {
        (true, _) => vec![n, c],
        (false, 0) => vec![n, c, 2, inner / 2],
        (false, _) => vec![n, c, inner, 1],
    }
}

/// One train step, an evaluation and a second train step, layer against
/// reference, every output bit compared.
fn check_batchnorm(n: usize, c: usize, inner: usize, rank2: bool, seed: u64) -> Result<(), TestCaseError> {
    let what = format!("n {n} c {c} inner {inner} rank2 {rank2} seed {seed}");
    let dims = dims_of(n, c, inner, rank2);
    let mut rng = Lcg(seed);
    let (gamma, beta) = (rng.reals(c), rng.reals(c));
    let mut reference = Reference::new(gamma.clone(), beta.clone());
    let mut layer = BatchNorm::new(c);
    let mut params = [gamma, beta].into_iter();
    layer.visit_params(&mut |p| {
        p.value = Tensor::from_vec(params.next().expect("two params"), [c]).expect("param");
        p.bump_version();
    });

    let x = rng.features(n, c, inner, seed as usize);
    let input = Tensor::from_vec(x.clone(), dims.clone()).expect("input");
    let y = layer.forward(&input, Mode::Train).expect("train forward");
    let want = reference.forward(&x, n, inner, true);
    prop_assert_eq!(bits(y.as_slice()), bits(&want), "train output, {}", what);
    prop_assert_eq!(
        bits(layer.running_mean().as_slice()),
        bits(&reference.running_mean),
        "running mean, {}",
        what
    );
    prop_assert_eq!(
        bits(layer.running_var().as_slice()),
        bits(&reference.running_var),
        "running var, {}",
        what
    );

    let mut g = rng.reals(x.len());
    for (i, v) in g.iter_mut().enumerate() {
        if (i / inner % c) % 5 == 2 {
            *v *= 1e18;
        }
    }
    let grad = Tensor::from_vec(g.clone(), dims.clone()).expect("grad");
    let gi = layer.backward(&grad).expect("backward");
    let (want_gi, want_dgamma, want_dbeta) = reference.backward(&g);
    prop_assert_eq!(bits(gi.as_slice()), bits(&want_gi), "grad_in, {}", what);
    let mut grads = Vec::new();
    layer.visit_params(&mut |p| grads.push(bits(p.grad.as_slice())));
    prop_assert_eq!(&grads[0], &bits(&want_dgamma), "dgamma, {}", what);
    prop_assert_eq!(&grads[1], &bits(&want_dbeta), "dbeta, {}", what);

    let y = layer.forward(&input, Mode::Eval).expect("eval forward");
    let want = reference.forward(&x, n, inner, false);
    prop_assert_eq!(bits(y.as_slice()), bits(&want), "eval output, {}", what);

    let x2 = rng.features(n, c, inner, seed as usize + 5);
    let input2 = Tensor::from_vec(x2.clone(), dims).expect("input");
    let y = layer.forward(&input2, Mode::Train).expect("second train forward");
    let want = reference.forward(&x2, n, inner, true);
    prop_assert_eq!(bits(y.as_slice()), bits(&want), "second train output, {}", what);
    prop_assert_eq!(
        bits(layer.running_var().as_slice()),
        bits(&reference.running_var),
        "second running var, {}",
        what
    );
    Ok(())
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Add,
    Sub,
    Mul,
    Div,
}

impl Op {
    fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            Op::Add => a + b,
            Op::Sub => a - b,
            Op::Mul => a * b,
            Op::Div => a / b,
        }
    }

    fn tensor(self, a: &Tensor, b: &Tensor) -> Tensor {
        match self {
            Op::Add => a.try_add(b),
            Op::Sub => a.try_sub(b),
            Op::Mul => a.try_mul(b),
            Op::Div => a.try_div(b),
        }
        .expect("broadcast-compatible")
    }
}

/// Values with zeros, `-0.0`, `±inf`, NaN and extreme magnitudes.
fn hostile(rng: &mut Lcg, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| match rng.next() % 16 {
            0 => 0.0,
            1 => -0.0,
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            4 => f32::NAN,
            5 => rng.real() * 1e30,
            6 => rng.real() * 1e-30,
            _ => rng.real(),
        })
        .collect()
}

/// `full op block` and `block op full` for a block made of `full`'s last
/// `keep` dims behind `ones` leading 1s, against the per-element loop
/// `out[i] = full[i] op block[i % block.len()]`.
fn check_suffix_broadcast(
    full_dims: &[usize],
    keep: usize,
    ones: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut block_dims = vec![1; ones];
    block_dims.extend_from_slice(&full_dims[full_dims.len() - keep..]);
    let mut rng = Lcg(seed);
    let full =
        Tensor::from_vec(hostile(&mut rng, full_dims.iter().product()), full_dims.to_vec()).expect("full");
    let block =
        Tensor::from_vec(hostile(&mut rng, block_dims.iter().product()), block_dims.clone()).expect("block");
    let want_dims = full.shape().broadcast(block.shape()).expect("compatible");
    let (f, b) = (full.as_slice(), block.as_slice());
    for op in [Op::Add, Op::Sub, Op::Mul, Op::Div] {
        let what = format!("{op:?} {full_dims:?} / {block_dims:?}");
        let ab = op.tensor(&full, &block);
        let ba = op.tensor(&block, &full);
        prop_assert_eq!(ab.shape(), &want_dims, "{}", what);
        prop_assert_eq!(ba.shape(), &want_dims, "{}", what);
        let (want_ab, want_ba): (Vec<f32>, Vec<f32>) = (0..f.len())
            .map(|i| (op.apply(f[i], b[i % b.len()]), op.apply(b[i % b.len()], f[i])))
            .unzip();
        prop_assert_eq!(bits(ab.as_slice()), bits(&want_ab), "full op block, {}", what);
        prop_assert_eq!(bits(ba.as_slice()), bits(&want_ba), "block op full, {}", what);
    }
    Ok(())
}

proptest! {
    #[test]
    fn batchnorm_matches_the_per_feature_loops(
        c in 1usize..=40, inner in 1usize..=70, n in 1usize..=9,
        rank2 in 0u8..3, seed in 0u64..1_000_000,
    ) {
        // A third of the cases are rank-2 inputs: one element per plane.
        let rank2 = rank2 == 0;
        check_batchnorm(n, c, if rank2 { 1 } else { inner }, rank2, seed)?;
    }

    #[test]
    fn suffix_broadcasts_match_the_per_element_loop(
        full_dims in proptest::collection::vec(1usize..=9, 1..=4),
        keep in 0usize..=4, ones in 0usize..=2, seed in 0u64..1_000_000,
    ) {
        let keep = keep.min(full_dims.len());
        check_suffix_broadcast(&full_dims, keep, ones, seed)?;
    }
}

/// The shapes the training benchmark runs, the block edges, and the
/// bias shapes of the dense layers, stated rather than drawn.
#[test]
fn named_cases() {
    let batchnorm = [
        (16, 8, 256, false),
        (64, 16, 64, false),
        (64, 32, 16, false),
        (64, 128, 1, true),
        (3, 7, 5, false),
        (2, 9, 3, false),
        (5, 17, 8, false),
        (1, 33, 1, true),
        (9, 40, 70, false),
    ];
    for (i, (n, c, inner, rank2)) in batchnorm.into_iter().enumerate() {
        check_batchnorm(n, c, inner, rank2, 700 + i as u64).unwrap_or_else(|e| panic!("{e:?}"));
    }
    let broadcasts: [(&[usize], usize, usize); 7] = [
        (&[64, 128], 1, 0),
        // Past one 32 Ki-element parallel chunk, with rows that straddle
        // the chunk boundary.
        (&[300, 130], 1, 0),
        (&[64, 128], 1, 1),
        (&[256, 3], 1, 0),
        (&[2, 3, 4], 2, 0),
        (&[5, 7], 0, 0),
        (&[70, 130], 2, 1),
    ];
    for (i, (dims, keep, ones)) in broadcasts.into_iter().enumerate() {
        check_suffix_broadcast(dims, keep, ones, 800 + i as u64).unwrap_or_else(|e| panic!("{e:?}"));
    }
}

/// A broadcast where both operands repeat still computes `a op b` per
/// element of the broadcast shape.
#[test]
fn non_suffix_broadcast_is_per_element() {
    let mut rng = Lcg(900);
    let a = Tensor::from_vec(hostile(&mut rng, 64), [64, 1]).expect("a");
    let b = Tensor::from_vec(hostile(&mut rng, 128), [1, 128]).expect("b");
    for op in [Op::Add, Op::Sub, Op::Mul, Op::Div] {
        let got = op.tensor(&a, &b);
        assert_eq!(got.dims(), &[64, 128]);
        let want: Vec<f32> = (0..64 * 128)
            .map(|i| op.apply(a.as_slice()[i / 128], b.as_slice()[i % 128]))
            .collect();
        assert_eq!(bits(got.as_slice()), bits(&want), "{op:?}");
    }
}
