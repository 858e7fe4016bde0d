//! Individual layer implementations.

pub mod activation;
pub mod batchnorm;
pub mod conv2d;
pub mod dense;
pub mod pool;
pub mod residual;
