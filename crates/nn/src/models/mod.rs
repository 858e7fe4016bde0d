//! Model zoo: the architectures the paper evaluates (VGG, ResNet) plus
//! MLPs for tabular ablations, in both *paper-size* and *lite* (CPU-
//! trainable) configurations.

pub mod mlp;
pub mod resnet;
pub mod vgg;

pub use mlp::MlpConfig;
pub use resnet::ResNetConfig;
pub use vgg::VggConfig;

use crate::sequential::Sequential;

/// Input channels of the image models (RGB, as CIFAR).
const IMAGE_CHANNELS: usize = 3;

/// A uniform handle over every architecture family, used by trainers and
/// the benchmark harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Architecture {
    /// Multi-layer perceptron.
    Mlp(MlpConfig),
    /// VGG-style convolutional network.
    Vgg(VggConfig),
    /// ResNet with basic blocks.
    ResNet(ResNetConfig),
}

impl Architecture {
    /// Builds the network deterministically from a seed.
    pub fn build(&self, seed: u64) -> Sequential {
        match self {
            Architecture::Mlp(c) => c.build(seed),
            Architecture::Vgg(c) => c.build(seed),
            Architecture::ResNet(c) => c.build(seed),
        }
    }

    /// The paper's default split index for this architecture.
    pub fn default_split(&self) -> usize {
        match self {
            Architecture::Mlp(c) => c.default_split(),
            Architecture::Vgg(c) => c.default_split(),
            Architecture::ResNet(c) => c.default_split(),
        }
    }

    /// Per-sample input dimensions (excluding the batch axis).
    pub fn input_dims(&self) -> Vec<usize> {
        match self {
            Architecture::Mlp(c) => vec![c.input_dim],
            Architecture::Vgg(c) => vec![IMAGE_CHANNELS, c.input_hw, c.input_hw],
            Architecture::ResNet(c) => vec![IMAGE_CHANNELS, c.input_hw, c.input_hw],
        }
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        match self {
            Architecture::Mlp(c) => c.num_classes,
            Architecture::Vgg(c) => c.num_classes,
            Architecture::ResNet(c) => c.num_classes,
        }
    }

    /// Analytic parameter count.
    pub fn param_count(&self) -> usize {
        match self {
            Architecture::Mlp(c) => c.param_count(),
            Architecture::Vgg(c) => c.param_count(),
            Architecture::ResNet(c) => c.param_count(),
        }
    }

    /// Short name for reports ("vgg", "resnet", "mlp").
    pub fn family(&self) -> &'static str {
        match self {
            Architecture::Mlp(_) => "mlp",
            Architecture::Vgg(_) => "vgg",
            Architecture::ResNet(_) => "resnet",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Layer, Mode};
    use medsplit_tensor::Tensor;

    #[test]
    fn architecture_dispatch_consistency() {
        let archs = [
            Architecture::Mlp(MlpConfig::small(8, 3)),
            Architecture::Vgg(VggConfig::lite(3)),
            Architecture::ResNet(ResNetConfig::lite(3)),
        ];
        for arch in archs {
            let mut model = arch.build(0);
            assert_eq!(model.param_count(), arch.param_count(), "{}", arch.family());
            let mut dims = vec![2];
            dims.extend(arch.input_dims());
            let y = model.forward(&Tensor::zeros(dims), Mode::Eval).unwrap();
            assert_eq!(y.dims(), &[2, arch.num_classes()]);
            assert!(arch.default_split() > 0 && arch.default_split() < model.len() + 1);
        }
    }

    #[test]
    fn family_names() {
        assert_eq!(Architecture::Mlp(MlpConfig::small(2, 2)).family(), "mlp");
        assert_eq!(Architecture::Vgg(VggConfig::lite(2)).family(), "vgg");
        assert_eq!(Architecture::ResNet(ResNetConfig::lite(2)).family(), "resnet");
    }
}
