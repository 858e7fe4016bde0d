//! # medsplit-tensor
//!
//! Dense, row-major `f32` tensors with exactly the operations the medsplit
//! workspace needs to reproduce *Privacy-Preserving Deep Learning
//! Computation for Geo-Distributed Medical Big-Data Platforms* (DSN 2019):
//!
//! - [`Tensor`] — the single numeric container (parameters, activations,
//!   gradients, wire payloads),
//! - NumPy-style broadcasting arithmetic ([`Tensor::try_add`] & friends),
//! - matrix kernels ([`Tensor::matmul`], fused-transpose variants),
//! - convolution & pooling ([`ops::conv`], [`ops::pool`]) with exact
//!   backward passes,
//! - a persistent worker pool ([`pool`], sized by `MEDSPLIT_THREADS`)
//!   and a zero-steady-state-allocation scratch arena ([`scratch`])
//!   backing every hot kernel,
//! - seeded initialisers ([`init`]),
//! - a byte-exact wire format ([`Tensor::to_bytes`]) that the evaluation's
//!   communication accounting is built on,
//! - a small SPD solver ([`linalg`]) for the privacy reconstruction attack.
//!
//! ```
//! use medsplit_tensor::{init, Tensor};
//!
//! let mut rng = init::rng_from_seed(42);
//! let w = init::kaiming_normal([8, 4], &mut rng);
//! let x = Tensor::rand_normal([2, 4], 0.0, 1.0, &mut rng);
//! let y = x.matmul_nt(&w)?;
//! assert_eq!(y.dims(), &[2, 8]);
//! # Ok::<(), medsplit_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]

mod error;
pub mod half;
pub mod init;
pub mod linalg;
pub mod ops;
pub mod pool;
pub mod scratch;
mod serialize;
mod shape;
pub mod simd;
mod tensor;

pub use error::{Result, TensorError};
pub use ops::conv::Conv2dSpec;
pub use ops::plan::{ConvGeometry, ConvPlan, GemmPlan, PlanStats};
pub use serialize::{encoded_len, f32_equivalent_len, serialized_len, serialized_len_i8, Encoding};
pub use shape::Shape;
pub use tensor::Tensor;

/// FNV-1a offset basis: the starting state of [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the FNV-1a state `hash` — the workspace's one
/// digest (run ids, baselines, parameter and logits digests, the fleet
/// ring). Start from [`FNV_OFFSET`]; folding two slices in turn equals
/// folding their concatenation.
#[inline]
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}
