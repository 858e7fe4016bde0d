//! Tensor operations, grouped by kind.

pub mod conv;
pub mod elementwise;
pub mod matmul;
pub(crate) mod microkernel;
pub mod plan;
pub mod pool;
pub mod reduce;

pub use elementwise::reduce_broadcast;

use crate::error::{Result, TensorError};
use crate::tensor::Tensor;

/// The `(N, C, H, W)` extents of a rank-4 tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] naming `op` for any other rank.
pub fn check_nchw(t: &Tensor, op: &'static str) -> Result<(usize, usize, usize, usize)> {
    if t.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: t.rank(),
            op,
        });
    }
    let d = t.dims();
    Ok((d[0], d[1], d[2], d[3]))
}
