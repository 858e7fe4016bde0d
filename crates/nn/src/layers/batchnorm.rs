//! Batch normalisation over features (`[N, C]`) or channels
//! (`[N, C, H, W]`).
//!
//! # Summation order
//!
//! A tensor is read as `(groups, features, inner)`: feature `f` of group
//! `g` is the contiguous plane of `inner` elements at `(g·C + f)·inner`.
//! Every per-feature statistic is a serial `f32` chain over that
//! feature's planes, groups ascending and elements ascending within a
//! plane, and the chains of different features never meet. The
//! reductions therefore walk a block of `L` features side by side, one
//! accumulator per feature, so the adds of eight independent chains
//! overlap instead of each waiting on its predecessor; every chain still
//! sees exactly its own operands in exactly the order of the one-feature
//! loop. What is kept, add for add:
//!
//! - the mean: each `(group, feature)` plane is summed on its own,
//!   starting from `-0.0` (the neutral element of `Sum for f32`), and the
//!   plane sums are added into the feature's total, which starts at `0.0`;
//! - the variance, `Σg` and `Σg·x̂`: one chain per feature across all
//!   groups, starting at `0.0`;
//! - no fused multiply-add anywhere (`d * d` and `g * x̂` round before
//!   they are added).
//!
//! The remaining `C mod L` features run the same body one at a time. The
//! per-element passes (normalise, scale-and-shift, input gradient) are
//! slice zips over a plane with that feature's constants hoisted, and
//! they append to their output buffers rather than overwriting a zeroed
//! one.

use medsplit_tensor::{Result, Tensor, TensorError};

use crate::layer::{missing_cache, Layer, Mode};
use crate::param::Param;

/// Features whose reductions are walked side by side. A constant, not a
/// knob: results do not depend on it, only how many chains overlap.
const L: usize = 8;

/// Batch normalisation with learnable scale (`gamma`) and shift (`beta`)
/// and running statistics for evaluation mode.
///
/// For rank-2 inputs statistics are taken per feature over the batch; for
/// rank-4 (`NCHW`) inputs they are taken per channel over batch and space.
#[derive(Debug)]
pub struct BatchNorm {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    num_features: usize,
    /// Cached normalised activations from the training forward pass.
    cached_xhat: Option<Tensor>,
    /// Cached `1 / sqrt(var + eps)` per feature.
    cached_inv_std: Option<Vec<f32>>,
}

/// Layout helper: interprets a rank-2 or rank-4 tensor as
/// `(groups, features, inner)` where statistics are per-feature over
/// `groups × inner` elements.
fn layout(dims: &[usize], num_features: usize, op: &'static str) -> Result<(usize, usize)> {
    match dims.len() {
        2 if dims[1] == num_features => Ok((dims[0], 1)),
        4 if dims[1] == num_features => Ok((dims[0], dims[2] * dims[3])),
        _ => Err(TensorError::ShapeMismatch {
            lhs: medsplit_tensor::Shape::from(dims),
            rhs: medsplit_tensor::Shape::from([num_features]),
            op,
        }),
    }
}

/// The groups of `x`, each `c` planes of `inner` elements. An empty
/// tensor has no groups.
fn groups(x: &[f32], c: usize, inner: usize) -> std::slice::ChunksExact<'_, f32> {
    x.chunks_exact((c * inner).max(1))
}

/// The planes of features `f0..f0 + W` in one group.
fn planes<const W: usize>(group: &[f32], f0: usize, inner: usize) -> [&[f32]; W] {
    std::array::from_fn(|l| &group[(f0 + l) * inner..][..inner])
}

/// Calls `f` with element `i` of every plane in `rows` (`R` sets of `W`
/// planes, `inner` elements each), for `i` ascending: `f(col)` sees
/// `col[r][l] = rows[r][l][i]`.
///
/// Planes are read eight elements at a time, so the transpose into
/// columns happens in registers and one bounds check covers a tile.
#[inline(always)]
fn for_each_column<const W: usize, const R: usize>(
    rows: [[&[f32]; W]; R],
    inner: usize,
    mut f: impl FnMut([[f32; W]; R]),
) {
    const T: usize = 8;
    let mut i = 0;
    while i + T <= inner {
        let tile: [[[f32; T]; W]; R] = std::array::from_fn(|r| {
            std::array::from_fn(|l| rows[r][l][i..i + T].try_into().expect("a tile of T"))
        });
        (0..T).for_each(|t| f(std::array::from_fn(|r| std::array::from_fn(|l| tile[r][l][t]))));
        i += T;
    }
    (i..inner).for_each(|i| f(std::array::from_fn(|r| std::array::from_fn(|l| rows[r][l][i]))));
}

/// Mean and biased variance of features `f0..f0 + W` of `x`, written to
/// `mean[f0..]` and `var[f0..]`.
fn block_stats<const W: usize>(
    x: &[f32],
    (c, inner): (usize, usize),
    f0: usize,
    count: f32,
    mean: &mut [f32],
    var: &mut [f32],
) {
    let mut m = [0.0f32; W];
    for group in groups(x, c, inner) {
        let mut plane_sum = [-0.0f32; W];
        for_each_column([planes::<W>(group, f0, inner)], inner, |[col]| {
            for (s, v) in plane_sum.iter_mut().zip(col) {
                *s += v;
            }
        });
        for (m, s) in m.iter_mut().zip(plane_sum) {
            *m += s;
        }
    }
    for m in &mut m {
        *m /= count;
    }
    let mut v = [0.0f32; W];
    for group in groups(x, c, inner) {
        for_each_column([planes::<W>(group, f0, inner)], inner, |[col]| {
            for ((v, x), m) in v.iter_mut().zip(col).zip(m) {
                let d = x - m;
                *v += d * d;
            }
        });
    }
    for v in &mut v {
        *v /= count;
    }
    mean[f0..f0 + W].copy_from_slice(&m);
    var[f0..f0 + W].copy_from_slice(&v);
}

/// `Σg` and `Σg·x̂` of features `f0..f0 + W`, written to `sum_g[f0..]`
/// and `sum_gx[f0..]`.
fn block_grad_sums<const W: usize>(
    (g, xhat): (&[f32], &[f32]),
    (c, inner): (usize, usize),
    f0: usize,
    sum_g: &mut [f32],
    sum_gx: &mut [f32],
) {
    let (mut sg, mut sgx) = ([0.0f32; W], [0.0f32; W]);
    for (gg, xg) in groups(g, c, inner).zip(groups(xhat, c, inner)) {
        let rows = [planes::<W>(gg, f0, inner), planes::<W>(xg, f0, inner)];
        for_each_column(rows, inner, |[gc, xc]| {
            for l in 0..W {
                sg[l] += gc[l];
                sgx[l] += gc[l] * xc[l];
            }
        });
    }
    sum_g[f0..f0 + W].copy_from_slice(&sg);
    sum_gx[f0..f0 + W].copy_from_slice(&sgx);
}

/// Per-feature constants of the forward's per-element pass.
struct Affine<'a> {
    mean: &'a [f32],
    inv_std: &'a [f32],
    gamma: &'a [f32],
    beta: &'a [f32],
}

/// `γ·x̂ + β` with `x̂ = (x − mean)·inv_std`, appending `x̂` to `xhat`
/// too when one is given.
fn normalise(
    x: &[f32],
    (c, inner): (usize, usize),
    a: &Affine<'_>,
    mut xhat: Option<&mut Vec<f32>>,
) -> Vec<f32> {
    let mut out = Vec::with_capacity(x.len());
    for group in groups(x, c, inner) {
        for (f, plane) in group.chunks_exact(inner).enumerate() {
            let (m, s, ga, be) = (a.mean[f], a.inv_std[f], a.gamma[f], a.beta[f]);
            match xhat.as_deref_mut() {
                Some(xh) => {
                    let start = xh.len();
                    xh.extend(plane.iter().map(|&v| (v - m) * s));
                    out.extend(xh[start..].iter().map(|&h| ga * h + be));
                }
                None => out.extend(plane.iter().map(|&v| ga * ((v - m) * s) + be)),
            }
        }
    }
    out
}

impl BatchNorm {
    /// Creates a batch-norm layer for `num_features` features/channels.
    pub fn new(num_features: usize) -> Self {
        BatchNorm {
            gamma: Param::new(Tensor::ones([num_features]), format!("bn{num_features}.gamma")),
            beta: Param::new(Tensor::zeros([num_features]), format!("bn{num_features}.beta")),
            running_mean: Tensor::zeros([num_features]),
            running_var: Tensor::ones([num_features]),
            momentum: 0.1,
            eps: 1e-5,
            num_features,
            cached_xhat: None,
            cached_inv_std: None,
        }
    }

    /// Current running mean (used in eval mode).
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// Current running variance (used in eval mode).
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }

    /// The per-feature constants of `γ·(x − mean)·inv_std + β`, with
    /// `inv_std = 1 / sqrt(var + eps)`.
    fn affine<'a>(&'a self, mean: &'a [f32], inv_std: &'a [f32]) -> Affine<'a> {
        Affine {
            mean,
            inv_std,
            gamma: self.gamma.value.as_slice(),
            beta: self.beta.value.as_slice(),
        }
    }

    /// `1 / sqrt(var + eps)` per feature.
    fn inv_std(&self, var: &[f32]) -> Vec<f32> {
        var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect()
    }
}

impl Layer for BatchNorm {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if mode == Mode::Eval {
            return self.infer(input);
        }
        let (n, inner) = layout(input.dims(), self.num_features, "BatchNorm::forward")?;
        let c = self.num_features;
        let src = input.as_slice();
        if n * inner == 0 {
            // A mean over nothing is NaN, and the running statistics
            // would carry it into every later evaluation.
            return Err(TensorError::Numerical(format!(
                "BatchNorm::forward: batch statistics over zero elements (input {:?})",
                input.dims()
            )));
        }

        // Per-feature batch mean and variance to normalise with.
        let count = (n * inner) as f32;
        let (mut mean, mut var) = (vec![0.0f32; c], vec![0.0f32; c]);
        let whole = c - c % L;
        for f0 in (0..whole).step_by(L) {
            block_stats::<L>(src, (c, inner), f0, count, &mut mean, &mut var);
        }
        for f in whole..c {
            block_stats::<1>(src, (c, inner), f, count, &mut mean, &mut var);
        }
        // Update running stats with exponential moving average.
        let rm = self.running_mean.as_mut_slice();
        for (r, &m) in rm.iter_mut().zip(&mean) {
            *r = (1.0 - self.momentum) * *r + self.momentum * m;
        }
        let rv = self.running_var.as_mut_slice();
        for (r, &v) in rv.iter_mut().zip(&var) {
            *r = (1.0 - self.momentum) * *r + self.momentum * v;
        }

        let inv_std = self.inv_std(&var);
        // The last step's x̂ is dead once this one starts: reuse its
        // buffer, already paged in, instead of a fresh allocation.
        let mut xhat = self.cached_xhat.take().map(Tensor::into_vec).unwrap_or_default();
        xhat.clear();
        let out = normalise(src, (c, inner), &self.affine(&mean, &inv_std), Some(&mut xhat));
        let shape = input.shape().clone();
        self.cached_xhat = Some(Tensor::from_vec(xhat, shape.clone())?);
        self.cached_inv_std = Some(inv_std);
        Tensor::from_vec(out, shape)
    }

    /// Normalises with the running statistics.
    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        let (_, inner) = layout(input.dims(), self.num_features, "BatchNorm::forward")?;
        let inv_std = self.inv_std(self.running_var.as_slice());
        let affine = self.affine(self.running_mean.as_slice(), &inv_std);
        let out = normalise(input.as_slice(), (self.num_features, inner), &affine, None);
        Tensor::from_vec(out, input.shape().clone())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let xhat = self
            .cached_xhat
            .as_ref()
            .ok_or_else(|| missing_cache("BatchNorm"))?;
        let inv_std = self
            .cached_inv_std
            .as_ref()
            .ok_or_else(|| missing_cache("BatchNorm"))?;
        if grad_out.dims() != xhat.dims() {
            return Err(TensorError::ShapeMismatch {
                lhs: grad_out.shape().clone(),
                rhs: xhat.shape().clone(),
                op: "BatchNorm::backward",
            });
        }
        let (n, inner) = layout(xhat.dims(), self.num_features, "BatchNorm::backward")?;
        let c = self.num_features;
        let count = (n * inner) as f32;
        let (g, xh) = (grad_out.as_slice(), xhat.as_slice());

        // dgamma[f] = Σ g·xhat, dbeta[f] = Σ g, plus the per-feature sums the
        // input gradient needs.
        let (mut sum_g, mut sum_gx) = (vec![0.0f32; c], vec![0.0f32; c]);
        let whole = c - c % L;
        for f0 in (0..whole).step_by(L) {
            block_grad_sums::<L>((g, xh), (c, inner), f0, &mut sum_g, &mut sum_gx);
        }
        for f in whole..c {
            block_grad_sums::<1>((g, xh), (c, inner), f, &mut sum_g, &mut sum_gx);
        }
        let (sum_g, sum_gx) = (Tensor::from_vec(sum_g, [c])?, Tensor::from_vec(sum_gx, [c])?);
        self.gamma.accumulate_grad(&sum_gx);
        self.beta.accumulate_grad(&sum_g);

        let gamma = self.gamma.value.as_slice();
        let mut grad_in = Vec::with_capacity(g.len());
        for (gg, xg) in groups(g, c, inner).zip(groups(xh, c, inner)) {
            let planes = gg.chunks_exact(inner).zip(xg.chunks_exact(inner));
            for (f, (gp, xp)) in planes.enumerate() {
                let k = gamma[f] * inv_std[f];
                let mg = sum_g.as_slice()[f] / count;
                let mgx = sum_gx.as_slice()[f] / count;
                grad_in.extend(gp.iter().zip(xp).map(|(&g, &h)| k * (g - mg - h * mgx)));
            }
        }
        Tensor::from_vec(grad_in, grad_out.shape().clone())
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }

    fn describe(&self) -> String {
        format!("batchnorm({})", self.num_features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsplit_tensor::init::rng_from_seed;

    #[test]
    fn normalises_batch_in_train_mode() {
        let mut bn = BatchNorm::new(2);
        let mut rng = rng_from_seed(0);
        let x = Tensor::rand_normal([64, 2], 5.0, 3.0, &mut rng);
        let y = bn.forward(&x, Mode::Train).unwrap();
        let (mean, var) = y.column_stats().unwrap();
        for f in 0..2 {
            assert!(mean.as_slice()[f].abs() < 1e-3, "mean {:?}", mean);
            assert!((var.as_slice()[f] - 1.0).abs() < 1e-2, "var {:?}", var);
        }
    }

    #[test]
    fn running_stats_converge_to_data_stats() {
        let mut bn = BatchNorm::new(1);
        let mut rng = rng_from_seed(1);
        for _ in 0..200 {
            let x = Tensor::rand_normal([32, 1], 2.0, 1.5, &mut rng);
            bn.forward(&x, Mode::Train).unwrap();
        }
        assert!((bn.running_mean().as_slice()[0] - 2.0).abs() < 0.3);
        assert!((bn.running_var().as_slice()[0] - 2.25).abs() < 0.6);
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut bn = BatchNorm::new(1);
        // Without any training, running stats are mean 0 / var 1, so eval is
        // identity up to eps.
        let x = Tensor::from_vec(vec![1.0, -1.0], [2, 1]).unwrap();
        let y = bn.forward(&x, Mode::Eval).unwrap();
        assert!(y.allclose(&x, 1e-3));
    }

    #[test]
    fn gradcheck_2d() {
        crate::gradcheck::check_layer(|| BatchNorm::new(3), &[4, 3], 1e-2, 3e-2).unwrap();
    }

    #[test]
    fn gradcheck_4d() {
        crate::gradcheck::check_layer(|| BatchNorm::new(2), &[2, 2, 3, 3], 1e-2, 3e-2).unwrap();
    }

    #[test]
    fn rejects_wrong_feature_count() {
        let mut bn = BatchNorm::new(3);
        assert!(bn.forward(&Tensor::ones([2, 4]), Mode::Train).is_err());
        assert!(bn.forward(&Tensor::ones([2, 4, 2, 2]), Mode::Train).is_err());
        assert!(bn.forward(&Tensor::ones([6]), Mode::Train).is_err());
    }

    #[test]
    fn train_forward_over_zero_elements_is_an_error() {
        let mut bn = BatchNorm::new(3);
        for dims in [vec![0, 3], vec![0, 3, 2, 2], vec![4, 3, 0, 5]] {
            let err = bn.forward(&Tensor::zeros(dims.clone()), Mode::Train).unwrap_err();
            assert!(matches!(err, TensorError::Numerical(_)), "{dims:?}: {err}");
        }
        // The running statistics are untouched, so evaluation still
        // normalises with them...
        assert_eq!(bn.running_mean().as_slice(), &[0.0; 3]);
        assert_eq!(bn.running_var().as_slice(), &[1.0; 3]);
        let x = Tensor::from_vec(vec![1.0, -1.0, 2.0], [1, 3]).unwrap();
        let y = bn.forward(&x, Mode::Eval).unwrap();
        assert!(y.allclose(&x, 1e-3), "{:?}", y.as_slice());
        // ...and nothing was cached to backpropagate through.
        assert!(bn.backward(&Tensor::zeros([0, 3])).is_err());
    }

    #[test]
    fn eval_forward_of_an_empty_batch_is_empty() {
        let mut bn = BatchNorm::new(2);
        for dims in [vec![0, 2], vec![0, 2, 3, 3], vec![2, 2, 0, 3]] {
            let y = bn.forward(&Tensor::zeros(dims.clone()), Mode::Eval).unwrap();
            assert_eq!(y.dims(), &dims[..]);
        }
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut bn = BatchNorm::new(2);
        assert!(bn.backward(&Tensor::ones([2, 2])).is_err());
    }

    #[test]
    fn param_count() {
        let mut bn = BatchNorm::new(8);
        assert_eq!(bn.param_count(), 16);
    }
}
