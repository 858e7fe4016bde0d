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
//! let w = init::xavier_uniform([8, 4], &mut rng);
//! let x = Tensor::rand_normal([4], 0.0, 1.0, &mut rng);
//! let y = w.matvec(&x)?;
//! assert_eq!(y.dims(), &[8]);
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
pub use serialize::{encoded_len, serialized_len, serialized_len_f16, serialized_len_i8, Encoding};
pub use shape::Shape;
pub use tensor::Tensor;
