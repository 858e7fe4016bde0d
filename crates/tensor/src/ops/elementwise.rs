//! Elementwise arithmetic with NumPy-style broadcasting.
//!
//! Same-shape binary ops, the in-place accumulators (`add_assign`,
//! `axpy`, `scale_inplace`), the ReLU-family activations, and the
//! `par_map`/`par_zip_map` combinators run across the worker pool for
//! large tensors, in fixed-size chunks so results do not depend on the
//! thread count. Small tensors stay on the calling thread: the element
//! count is the work estimate the pool gates on ([`crate::pool`]).
//!
//! The same-shape binary ops, accumulators, and activations bottom out
//! in the ISA-dispatched kernels of [`crate::simd`]: vectorised on
//! AVX2/NEON hosts, with a portable path that is bit-identical by
//! construction (see that module's docs).

use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::error::{Result, TensorError};
use crate::pool;
use crate::shape::Shape;
use crate::simd;
use crate::tensor::Tensor;

/// Elements per parallel chunk; fixed (never thread-derived) so chunk
/// boundaries — and therefore results — are deterministic.
const PAR_CHUNK: usize = 32 * 1024;

/// Runs `body(offset, chunk)` over `dst` in [`PAR_CHUNK`]-element pieces:
/// across the pool when the element count clears the pool's work gate,
/// in order on the caller otherwise (a tensor of at most one chunk is a
/// single call on the whole slice).
fn par_chunks(dst: &mut [f32], body: impl Fn(usize, &mut [f32]) + Sync) {
    let len = dst.len();
    pool::parallel_chunks_mut_sized(dst, PAR_CHUNK, len, |ci, chunk| body(ci * PAR_CHUNK, chunk));
}

/// Same-shape binary op through the ISA-dispatched kernel, chunked over
/// the pool for large tensors.
fn simd_binary(a: &Tensor, b: &Tensor, op: simd::BinOp) -> Result<Tensor> {
    debug_assert_eq!(a.shape(), b.shape());
    let (da, db) = (a.as_slice(), b.as_slice());
    let mut data = vec![0.0f32; da.len()];
    par_chunks(&mut data, |off, chunk| {
        simd::binary(
            op,
            &da[off..off + chunk.len()],
            &db[off..off + chunk.len()],
            chunk,
        );
    });
    Tensor::from_vec(data, a.shape().clone())
}

/// Shortest run a broadcast row hands to the dispatched kernel: a
/// repeated block shorter than this (a scalar; the bias row of a 3- or
/// 10-class head) is first tiled to at least this length, so no kernel
/// call covers a handful of elements.
const MIN_RUN: usize = 64;

/// `a op b` with NumPy-style broadcasting. Every output element is the
/// one `f32` operation of `op` on the same two operands whichever way it
/// is reached:
///
/// - same shape: [`simd_binary`];
/// - one operand is the whole output and the other a block repeated along
///   leading axes (its dims, past leading 1s, are a suffix of the
///   output's — a bias row onto a batch, `[3, 4]` onto `[2, 3, 4]`, a
///   scalar): the output is walked in runs that line up with the block,
///   each through the dispatched [`simd::binary`], in either operand
///   order;
/// - anything else (both operands broadcast, or the repeated axes are not
///   the leading ones): a per-element odometer over the output index.
fn binary(a: &Tensor, b: &Tensor, op: simd::BinOp) -> Result<Tensor> {
    if a.shape() == b.shape() {
        return simd_binary(a, b, op);
    }
    let out_shape = a
        .shape()
        .broadcast(b.shape())
        .map_err(|_| TensorError::ShapeMismatch {
            lhs: a.shape().clone(),
            rhs: b.shape().clone(),
            op: op.name(),
        })?;
    let repeats = |full: &Tensor, block: &Tensor| {
        let dims = block.dims();
        let dims = &dims[dims.iter().take_while(|&&d| d == 1).count()..];
        full.numel() == out_shape.numel() && out_shape.dims().ends_with(dims)
    };
    if repeats(a, b) {
        return Ok(block_binary(a, b.as_slice(), op, false, out_shape));
    }
    if repeats(b, a) {
        return Ok(block_binary(b, a.as_slice(), op, true, out_shape));
    }
    odometer_binary(a, b, op, out_shape)
}

/// `full op block` (`block op full` when `block_is_lhs`) where `full` is
/// laid out as `out_shape` and `block` repeats along its leading axes.
fn block_binary(
    full: &Tensor,
    block: &[f32],
    op: simd::BinOp,
    block_is_lhs: bool,
    out_shape: Shape,
) -> Tensor {
    let full = full.as_slice();
    let mut data = vec![0.0f32; full.len()];
    if !block.is_empty() {
        // The block repeated to at least `MIN_RUN` elements: still
        // periodic in `block.len()`, so a run may start at any phase.
        let tiled;
        let run = if block.len() < MIN_RUN {
            tiled = block.repeat(MIN_RUN.div_ceil(block.len()));
            &tiled[..]
        } else {
            block
        };
        par_chunks(&mut data, |off, chunk| {
            let mut at = 0;
            while at < chunk.len() {
                let phase = (off + at) % block.len();
                let len = (run.len() - phase).min(chunk.len() - at);
                let (f, r) = (&full[off + at..off + at + len], &run[phase..phase + len]);
                let out = &mut chunk[at..at + len];
                if block_is_lhs {
                    simd::binary(op, r, f, out);
                } else {
                    simd::binary(op, f, r, out);
                }
                at += len;
            }
        });
    }
    Tensor::from_vec(data, out_shape).expect("the full operand has the output's element count")
}

/// Computes `out[i] = a[bcast(i)] op b[bcast(i)]` one element at a time
/// over the broadcast shape.
fn odometer_binary(a: &Tensor, b: &Tensor, op: simd::BinOp, out_shape: Shape) -> Result<Tensor> {
    let rank = out_shape.rank();
    let out_dims = out_shape.dims().to_vec();
    let numel = out_shape.numel();
    let mut data = Vec::with_capacity(numel);

    // Precompute per-axis effective strides (0 where the input broadcasts).
    let eff_strides = |t: &Tensor| -> Vec<usize> {
        let mut s = vec![0usize; rank];
        let t_strides = t.shape().strides();
        let t_dims = t.dims();
        let off = rank - t.rank();
        for i in 0..t.rank() {
            s[off + i] = if t_dims[i] == 1 { 0 } else { t_strides[i] };
        }
        s
    };
    let sa = eff_strides(a);
    let sb = eff_strides(b);

    let mut index = vec![0usize; rank];
    let (da, db) = (a.as_slice(), b.as_slice());
    for _ in 0..numel {
        let mut oa = 0;
        let mut ob = 0;
        for k in 0..rank {
            oa += index[k] * sa[k];
            ob += index[k] * sb[k];
        }
        data.push(op.apply(da[oa], db[ob]));
        // Increment the multi-index (row-major odometer).
        for k in (0..rank).rev() {
            index[k] += 1;
            if index[k] < out_dims[k] {
                break;
            }
            index[k] = 0;
        }
    }
    Tensor::from_vec(data, out_shape)
}

impl Tensor {
    /// Broadcasting addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes are not
    /// broadcast-compatible.
    pub fn try_add(&self, other: &Tensor) -> Result<Tensor> {
        binary(self, other, simd::BinOp::Add)
    }

    /// Broadcasting subtraction.
    ///
    /// # Errors
    ///
    /// See [`try_add`](Self::try_add).
    pub fn try_sub(&self, other: &Tensor) -> Result<Tensor> {
        binary(self, other, simd::BinOp::Sub)
    }

    /// Broadcasting elementwise multiplication.
    ///
    /// # Errors
    ///
    /// See [`try_add`](Self::try_add).
    pub fn try_mul(&self, other: &Tensor) -> Result<Tensor> {
        binary(self, other, simd::BinOp::Mul)
    }

    /// Broadcasting elementwise division.
    ///
    /// # Errors
    ///
    /// See [`try_add`](Self::try_add).
    pub fn try_div(&self, other: &Tensor) -> Result<Tensor> {
        binary(self, other, simd::BinOp::Div)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x + s)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// In-place `self += other` for identically-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().clone(),
                rhs: other.shape().clone(),
                op: "add_assign",
            });
        }
        let src = other.as_slice();
        let dst = self.as_mut_slice();
        par_chunks(dst, |off, chunk| {
            simd::add_assign(chunk, &src[off..off + chunk.len()]);
        });
        Ok(())
    }

    /// In-place `self += alpha * other` (axpy) for identically-shaped
    /// tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().clone(),
                rhs: other.shape().clone(),
                op: "axpy",
            });
        }
        let src = other.as_slice();
        let dst = self.as_mut_slice();
        par_chunks(dst, |off, chunk| {
            simd::axpy(alpha, chunk, &src[off..off + chunk.len()]);
        });
        Ok(())
    }

    /// In-place scaling.
    pub fn scale_inplace(&mut self, s: f32) {
        let dst = self.as_mut_slice();
        par_chunks(dst, |_, chunk| {
            simd::scale(chunk, s);
        });
    }

    /// Elementwise ReLU: `max(x, 0)` computed as a compare-and-select so
    /// NaN and `-0.0` inputs map to `+0.0` on every ISA. SIMD-dispatched
    /// and chunk-parallel for large tensors.
    pub fn relu(&self) -> Tensor {
        let src = self.as_slice();
        let mut data = vec![0.0f32; src.len()];
        par_chunks(&mut data, |off, chunk| {
            simd::relu(&src[off..off + chunk.len()], chunk);
        });
        Tensor::from_vec(data, self.shape().clone()).expect("relu preserves length")
    }

    /// ReLU backward: `self` is the cached forward *output* `y`; returns
    /// `grad` where `y > 0`, zero elsewhere.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn relu_backward(&self, grad: &Tensor) -> Result<Tensor> {
        if self.shape() != grad.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().clone(),
                rhs: grad.shape().clone(),
                op: "relu_backward",
            });
        }
        let (y, g) = (self.as_slice(), grad.as_slice());
        let mut data = vec![0.0f32; y.len()];
        par_chunks(&mut data, |off, chunk| {
            simd::relu_grad(&y[off..off + chunk.len()], &g[off..off + chunk.len()], chunk);
        });
        Tensor::from_vec(data, self.shape().clone())
    }

    /// Elementwise leaky ReLU: `x` where `x > 0`, `alpha * x` elsewhere.
    /// SIMD-dispatched and chunk-parallel for large tensors.
    pub fn leaky_relu(&self, alpha: f32) -> Tensor {
        let src = self.as_slice();
        let mut data = vec![0.0f32; src.len()];
        par_chunks(&mut data, |off, chunk| {
            simd::leaky_relu(alpha, &src[off..off + chunk.len()], chunk);
        });
        Tensor::from_vec(data, self.shape().clone()).expect("leaky_relu preserves length")
    }

    /// Leaky ReLU backward: `self` is the cached forward *input* `x`;
    /// returns `grad` where `x > 0`, `alpha * grad` elsewhere.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn leaky_relu_backward(&self, alpha: f32, grad: &Tensor) -> Result<Tensor> {
        if self.shape() != grad.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().clone(),
                rhs: grad.shape().clone(),
                op: "leaky_relu_backward",
            });
        }
        let (x, g) = (self.as_slice(), grad.as_slice());
        let mut data = vec![0.0f32; x.len()];
        par_chunks(&mut data, |off, chunk| {
            simd::leaky_relu_grad(
                alpha,
                &x[off..off + chunk.len()],
                &g[off..off + chunk.len()],
                chunk,
            );
        });
        Tensor::from_vec(data, self.shape().clone())
    }

    /// Like [`map`](Self::map), but fans large tensors out across the
    /// worker pool. Requires a `Sync` closure; results are identical to
    /// the sequential `map` for any thread count.
    pub fn par_map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let src = self.as_slice();
        let mut data = vec![0.0f32; src.len()];
        par_chunks(&mut data, |off, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = f(src[off + i]);
            }
        });
        Tensor::from_vec(data, self.shape().clone()).expect("par_map preserves length")
    }

    /// Like [`zip_map`](Self::zip_map), but fans large tensors out across
    /// the worker pool. Requires a `Sync` closure.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn par_zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Result<Tensor> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().clone(),
                rhs: other.shape().clone(),
                op: "par_zip_map",
            });
        }
        let (da, db) = (self.as_slice(), other.as_slice());
        let mut data = vec![0.0f32; da.len()];
        par_chunks(&mut data, |off, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = f(da[off + i], db[off + i]);
            }
        });
        Tensor::from_vec(data, self.shape().clone())
    }

    /// Fills the tensor with a constant.
    pub fn fill(&mut self, value: f32) {
        self.map_inplace(|_| value);
    }

    /// Elementwise natural exponent.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Elementwise power.
    pub fn powf(&self, p: f32) -> Tensor {
        self.map(|x| x.powf(p))
    }

    /// Elementwise clamp into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }

    /// Squared Frobenius norm (sum of squares).
    pub fn norm_sq(&self) -> f32 {
        self.as_slice().iter().map(|&x| x * x).sum()
    }

    /// Frobenius / L2 norm.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Dot product of two tensors viewed as flat vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if element counts differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        if self.numel() != other.numel() {
            return Err(TensorError::LengthMismatch {
                expected: self.numel(),
                actual: other.numel(),
            });
        }
        Ok(self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| a * b)
            .sum())
    }

    /// `true` if every pairwise difference is at most `tol` in absolute
    /// value and the shapes match.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .as_slice()
                .iter()
                .zip(other.as_slice())
                .all(|(&a, &b)| (a - b).abs() <= tol || (a.is_nan() && b.is_nan()))
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $try:ident) => {
        impl $trait for &Tensor {
            type Output = Tensor;
            /// # Panics
            ///
            /// Panics if the shapes are not broadcast-compatible; use the
            /// `try_*` method for a fallible version.
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.$try(rhs)
                    .expect(concat!("shape mismatch in `", stringify!($method), "`"))
            }
        }
        impl $trait for Tensor {
            type Output = Tensor;
            fn $method(self, rhs: Tensor) -> Tensor {
                (&self).$method(&rhs)
            }
        }
    };
}

impl_binop!(Add, add, try_add);
impl_binop!(Sub, sub, try_sub);
impl_binop!(Mul, mul, try_mul);
impl_binop!(Div, div, try_div);

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|x| -x)
    }
}

impl Neg for Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        -&self
    }
}

/// Helper used by reductions & broadcasting tests: sums a broadcast gradient
/// back down to the original (smaller) shape. Given `grad` with shape
/// `big` and a target shape `small` that broadcasts to `big`, returns the
/// gradient summed over the broadcast axes so it has shape `small`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `small` does not broadcast to
/// `grad`'s shape.
pub fn reduce_broadcast(grad: &Tensor, small: &Shape) -> Result<Tensor> {
    if !small.broadcasts_to(grad.shape()) {
        return Err(TensorError::ShapeMismatch {
            lhs: small.clone(),
            rhs: grad.shape().clone(),
            op: "reduce_broadcast",
        });
    }
    let big = grad.shape();
    let rank = big.rank();
    let off = rank - small.rank();
    let mut out = Tensor::zeros(small.clone());
    let small_strides = small.strides();
    let big_dims = big.dims().to_vec();
    let mut index = vec![0usize; rank];
    let gdata = grad.as_slice();
    let odata = out.as_mut_slice();
    for &g in gdata {
        let mut so = 0;
        for k in off..rank {
            let sd = small.dims()[k - off];
            if sd != 1 {
                so += index[k] * small_strides[k - off];
            }
        }
        odata[so] += g;
        for k in (0..rank).rev() {
            index[k] += 1;
            if index[k] < big_dims[k] {
                break;
            }
            index[k] = 0;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_same_shape() {
        let a = Tensor::arange(4);
        let b = Tensor::ones([4]);
        assert_eq!((&a + &b).as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn broadcast_row_vector() {
        let a = Tensor::arange(6).reshape([2, 3]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], [3]).unwrap();
        let c = &a + &b;
        assert_eq!(c.as_slice(), &[10.0, 21.0, 32.0, 13.0, 24.0, 35.0]);
    }

    #[test]
    fn broadcast_column_vector() {
        let a = Tensor::arange(6).reshape([2, 3]).unwrap();
        let b = Tensor::from_vec(vec![100.0, 200.0], [2, 1]).unwrap();
        let c = &a + &b;
        assert_eq!(c.as_slice(), &[100.0, 101.0, 102.0, 203.0, 204.0, 205.0]);
    }

    #[test]
    fn broadcast_scalar_tensor() {
        let a = Tensor::arange(3);
        let s = Tensor::scalar(5.0);
        assert_eq!((&a * &s).as_slice(), &[0.0, 5.0, 10.0]);
    }

    #[test]
    fn sub_mul_div() {
        let a = Tensor::from_vec(vec![4.0, 9.0], [2]).unwrap();
        let b = Tensor::from_vec(vec![2.0, 3.0], [2]).unwrap();
        assert_eq!((&a - &b).as_slice(), &[2.0, 6.0]);
        assert_eq!((&a * &b).as_slice(), &[8.0, 27.0]);
        assert_eq!((&a / &b).as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn broadcast_empty_and_short_blocks() {
        // A zero-length axis: nothing to compute, the shape still broadcasts.
        let empty = Tensor::zeros([0, 3]);
        let row = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]).unwrap();
        assert_eq!((&empty + &row).dims(), &[0, 3]);
        assert_eq!((&row - &empty).dims(), &[0, 3]);
        assert_eq!((&Tensor::zeros([2, 0]) * &Tensor::zeros([0])).dims(), &[2, 0]);
        // A 3-wide block is tiled before the kernel runs: every phase of
        // every row still pairs with its own column.
        let big = Tensor::arange(300).reshape([100, 3]).unwrap();
        let got = (&row / &big).as_slice().to_vec();
        let want: Vec<f32> = (0..300).map(|i| [1.0, 2.0, 3.0][i % 3] / i as f32).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn incompatible_shapes_error() {
        let a = Tensor::ones([2, 3]);
        let b = Tensor::ones([4]);
        assert!(a.try_add(&b).is_err());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn operator_panics_on_mismatch() {
        let _ = &Tensor::ones([2]) + &Tensor::ones([3]);
    }

    #[test]
    fn neg_and_scalar_helpers() {
        let a = Tensor::arange(3);
        assert_eq!((-&a).as_slice(), &[0.0, -1.0, -2.0]);
        assert_eq!(a.add_scalar(1.0).as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[0.0, 2.0, 4.0]);
    }

    #[test]
    fn axpy_and_add_assign() {
        let mut a = Tensor::ones([3]);
        let b = Tensor::arange(3);
        a.add_assign(&b).unwrap();
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[1.0, 2.5, 4.0]);
        assert!(a.add_assign(&Tensor::ones([4])).is_err());
        assert!(a.axpy(1.0, &Tensor::ones([4])).is_err());
    }

    #[test]
    fn unary_math() {
        let a = Tensor::from_vec(vec![1.0, 4.0], [2]).unwrap();
        assert_eq!(a.sqrt().as_slice(), &[1.0, 2.0]);
        assert_eq!(a.powf(2.0).as_slice(), &[1.0, 16.0]);
        assert!((a.exp().as_slice()[0] - std::f32::consts::E).abs() < 1e-6);
        assert_eq!(
            Tensor::from_vec(vec![-2.0, 2.0], [2]).unwrap().abs().as_slice(),
            &[2.0, 2.0]
        );
        assert_eq!(
            Tensor::from_vec(vec![-2.0, 5.0], [2])
                .unwrap()
                .clamp(0.0, 3.0)
                .as_slice(),
            &[0.0, 3.0]
        );
    }

    #[test]
    fn norms_and_dot() {
        let a = Tensor::from_vec(vec![3.0, 4.0], [2]).unwrap();
        assert_eq!(a.norm_sq(), 25.0);
        assert_eq!(a.norm(), 5.0);
        let b = Tensor::from_vec(vec![1.0, 2.0], [2]).unwrap();
        assert_eq!(a.dot(&b).unwrap(), 11.0);
        assert!(a.dot(&Tensor::ones([3])).is_err());
    }

    #[test]
    fn allclose_tolerance() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]).unwrap();
        let b = Tensor::from_vec(vec![1.0 + 1e-7, 2.0], [2]).unwrap();
        assert!(a.allclose(&b, 1e-6));
        assert!(!a.allclose(&b, 1e-9));
        assert!(!a.allclose(&Tensor::ones([3]), 1.0));
    }

    #[test]
    fn reduce_broadcast_sums_over_expanded_axes() {
        // grad of shape [2,3]; original shape [3] -> sum over rows.
        let g = Tensor::arange(6).reshape([2, 3]).unwrap();
        let r = reduce_broadcast(&g, &Shape::from([3])).unwrap();
        assert_eq!(r.as_slice(), &[3.0, 5.0, 7.0]);
        // original shape [2,1] -> sum over columns.
        let r2 = reduce_broadcast(&g, &Shape::from([2, 1])).unwrap();
        assert_eq!(r2.as_slice(), &[3.0, 12.0]);
        // scalar: sum everything.
        let r3 = reduce_broadcast(&g, &Shape::scalar()).unwrap();
        assert_eq!(r3.item(), 15.0);
        assert!(reduce_broadcast(&g, &Shape::from([4])).is_err());
    }

    #[test]
    fn relu_family() {
        let x = Tensor::from_vec(vec![-2.0, -0.0, 0.0, 3.0, f32::NAN], [5]).unwrap();
        let y = x.relu();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.0, 3.0, 0.0]);
        assert_eq!(y.as_slice()[1].to_bits(), 0.0f32.to_bits(), "-0.0 -> +0.0");

        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0], [5]).unwrap();
        let dy = y.relu_backward(&g).unwrap();
        assert_eq!(dy.as_slice(), &[0.0, 0.0, 0.0, 4.0, 0.0]);
        assert!(y.relu_backward(&Tensor::ones([4])).is_err());

        let ly = x.leaky_relu(0.1);
        assert_eq!(&ly.as_slice()[..4], &[-0.2, 0.0, 0.0, 3.0]);
        assert!(ly.as_slice()[4].is_nan(), "leaky relu propagates NaN");
        let ldx = x.leaky_relu_backward(0.1, &g).unwrap();
        assert_eq!(&ldx.as_slice()[..4], &[0.1, 0.2, 0.3, 4.0]);
        assert!(x.leaky_relu_backward(0.1, &Tensor::ones([4])).is_err());
    }

    #[test]
    fn fill_inplace() {
        let mut t = Tensor::zeros([2]);
        t.fill(3.0);
        assert_eq!(t.as_slice(), &[3.0, 3.0]);
        let mut u = Tensor::ones([2]);
        u.scale_inplace(4.0);
        assert_eq!(u.as_slice(), &[4.0, 4.0]);
    }
}
