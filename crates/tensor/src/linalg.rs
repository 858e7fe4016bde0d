//! Small dense linear-algebra routines.
//!
//! These support the privacy evaluation (ridge-regression reconstruction
//! attacks solve a symmetric positive-definite system via Cholesky) and are
//! not intended as a general-purpose LAPACK replacement.

use crate::error::{Result, TensorError};
use crate::tensor::Tensor;

/// Cholesky factorisation of a symmetric positive-definite matrix:
/// returns lower-triangular `L` with `A = L·Lᵀ`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-square inputs and
/// [`TensorError::Numerical`] if the matrix is not positive definite.
fn cholesky(a: &Tensor) -> Result<Tensor> {
    if a.rank() != 2 || a.dims()[0] != a.dims()[1] {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: a.rank(),
            op: "cholesky",
        });
    }
    let n = a.dims()[0];
    let src = a.as_slice();
    let mut l = vec![0.0f32; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = src[i * n + j];
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(TensorError::Numerical(format!(
                        "matrix not positive definite at pivot {i} (value {sum})"
                    )));
                }
                l[i * n + j] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    Tensor::from_vec(l, [n, n])
}

/// Solves `A · X = B` for symmetric positive-definite `A` via Cholesky.
/// `B` may have multiple right-hand-side columns.
///
/// # Errors
///
/// Propagates factorisation errors and shape mismatches.
pub fn solve_spd(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let l = cholesky(a)?;
    let n = l.dims()[0];
    if b.rank() != 2 || b.dims()[0] != n {
        return Err(TensorError::ShapeMismatch {
            lhs: a.shape().clone(),
            rhs: b.shape().clone(),
            op: "solve_spd",
        });
    }
    let m = b.dims()[1];
    let lm = l.as_slice();
    // Forward substitution: L · Y = B
    let mut y = b.as_slice().to_vec();
    for i in 0..n {
        for j in 0..i {
            let lij = lm[i * n + j];
            for c in 0..m {
                y[i * m + c] -= lij * y[j * m + c];
            }
        }
        let d = lm[i * n + i];
        for c in 0..m {
            y[i * m + c] /= d;
        }
    }
    // Back substitution: Lᵀ · X = Y
    let mut x = y;
    for i in (0..n).rev() {
        for j in (i + 1)..n {
            let lji = lm[j * n + i];
            for c in 0..m {
                x[i * m + c] -= lji * x[j * m + c];
            }
        }
        let d = lm[i * n + i];
        for c in 0..m {
            x[i * m + c] /= d;
        }
    }
    Tensor::from_vec(x, [n, m])
}

/// Ridge regression: returns `W = (XᵀX + λI)⁻¹ Xᵀ Y` for design matrix
/// `X: [n, d]` and targets `Y: [n, t]`; `W` has shape `[d, t]`.
///
/// # Errors
///
/// Propagates shape and numerical errors from the underlying solve.
pub fn ridge_regression(x: &Tensor, y: &Tensor, lambda: f32) -> Result<Tensor> {
    if x.rank() != 2 || y.rank() != 2 || x.dims()[0] != y.dims()[0] {
        return Err(TensorError::ShapeMismatch {
            lhs: x.shape().clone(),
            rhs: y.shape().clone(),
            op: "ridge_regression",
        });
    }
    let d = x.dims()[1];
    let mut gram = x.matmul_tn(x)?; // XᵀX: [d, d]
    for i in 0..d {
        gram.as_mut_slice()[i * d + i] += lambda;
    }
    let xty = x.matmul_tn(y)?; // XᵀY: [d, t]
    solve_spd(&gram, &xty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cholesky_known() {
        // A = [[4, 2], [2, 3]] -> L = [[2, 0], [1, sqrt(2)]]
        let a = Tensor::from_vec(vec![4.0, 2.0, 2.0, 3.0], [2, 2]).unwrap();
        let l = cholesky(&a).unwrap();
        assert!((l.get(&[0, 0]).unwrap() - 2.0).abs() < 1e-6);
        assert!((l.get(&[1, 0]).unwrap() - 1.0).abs() < 1e-6);
        assert!((l.get(&[1, 1]).unwrap() - 2.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(l.get(&[0, 1]).unwrap(), 0.0);
        // Reconstruct A = L·Lᵀ
        let back = l.matmul_nt(&l).unwrap();
        assert!(back.allclose(&a, 1e-5));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 2.0, 1.0], [2, 2]).unwrap();
        assert!(matches!(cholesky(&a), Err(TensorError::Numerical(_))));
        assert!(cholesky(&Tensor::ones([2, 3])).is_err());
    }

    #[test]
    fn solve_spd_identity() {
        let a = Tensor::eye(3);
        let b = Tensor::arange(6).reshape([3, 2]).unwrap();
        let x = solve_spd(&a, &b).unwrap();
        assert!(x.allclose(&b, 1e-6));
    }

    #[test]
    fn solve_spd_recovers_solution() {
        let a = Tensor::from_vec(vec![4.0, 1.0, 0.5, 1.0, 3.0, 0.2, 0.5, 0.2, 2.0], [3, 3]).unwrap();
        let x_true = Tensor::from_vec(vec![1.0, -2.0, 0.5], [3, 1]).unwrap();
        let b = a.matmul(&x_true).unwrap();
        let x = solve_spd(&a, &b).unwrap();
        assert!(x.allclose(&x_true, 1e-4), "{x:?}");
        assert!(solve_spd(&a, &Tensor::ones([2, 1])).is_err());
    }

    #[test]
    fn ridge_recovers_linear_map() {
        // Y = X · W_true with more rows than columns; tiny lambda.
        let mut rng = crate::init::rng_from_seed(11);
        let x = Tensor::rand_uniform([50, 4], -1.0, 1.0, &mut rng);
        let w_true = Tensor::rand_uniform([4, 2], -1.0, 1.0, &mut rng);
        let y = x.matmul(&w_true).unwrap();
        let w = ridge_regression(&x, &y, 1e-6).unwrap();
        assert!(w.allclose(&w_true, 1e-2), "{w:?} vs {w_true:?}");
    }

    #[test]
    fn ridge_shape_check() {
        assert!(ridge_regression(&Tensor::ones([5, 2]), &Tensor::ones([4, 1]), 0.1).is_err());
    }
}
