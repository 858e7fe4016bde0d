//! # medsplit-nn
//!
//! A small neural-network library with *explicit* forward and backward
//! passes, built on [`medsplit_tensor`]. No autograd tape: each
//! [`Layer`] caches what its own backward pass needs, which makes the
//! split-learning cut trivial — the platform calls `backward` on its
//! layers with the gradient tensor it received over the network, exactly
//! as the paper's flowchart describes.
//!
//! Provided here:
//! - layers: [`Dense`], [`Conv2d`], [`BatchNorm`], [`Activation`] (ReLU),
//!   [`MaxPool2d`], [`GlobalAvgPool`], [`Flatten`], [`Residual`],
//! - the [`Sequential`] container with [`Sequential::split_off`] — the
//!   protocol's cut point,
//! - losses returning `(loss, grad)` pairs ([`loss`]),
//! - the optimiser ([`Sgd`], with optional momentum) and LR schedules
//!   ([`LrSchedule`]),
//! - parameter-vector utilities ([`vectorize`]) used by the federated
//!   baselines,
//! - the model zoo ([`models`]): VGG-16 + ResNet-18 at paper scale and
//!   `lite` variants for CPU training,
//! - numerical gradient checking ([`gradcheck`]) used throughout the
//!   tests.
//!
//! ```
//! use medsplit_nn::{Dense, Layer, Mode, Sequential, Activation};
//! use medsplit_tensor::{init, Tensor};
//!
//! let mut rng = init::rng_from_seed(0);
//! let mut net = Sequential::new("demo");
//! net.push(Dense::new(4, 16, &mut rng));
//! net.push(Activation::relu());
//! net.push(Dense::new(16, 2, &mut rng));
//! let y = net.forward(&Tensor::zeros([1, 4]), Mode::Eval)?;
//! assert_eq!(y.dims(), &[1, 2]);
//! # Ok::<(), medsplit_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]

pub mod gradcheck;
mod layer;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod models;
mod optim;
mod param;
mod schedule;
mod sequential;
pub mod vectorize;

pub use layer::{Layer, Mode};
pub use layers::activation::Activation;
pub use layers::batchnorm::BatchNorm;
pub use layers::conv2d::Conv2d;
pub use layers::dense::Dense;
pub use layers::pool::{Flatten, GlobalAvgPool, MaxPool2d};
pub use layers::residual::Residual;
pub use loss::{mse, softmax_cross_entropy, LossOutput};
pub use metrics::accuracy;
pub use models::{Architecture, MlpConfig, ResNetConfig, VggConfig};
pub use optim::{Optimizer, Sgd};
pub use param::Param;
pub use schedule::LrSchedule;
pub use sequential::Sequential;
