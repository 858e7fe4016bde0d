//! VGG-family convolutional networks (Simonyan & Zisserman) for
//! CIFAR-shaped inputs.

use medsplit_tensor::init::rng_from_seed;
use medsplit_tensor::Conv2dSpec;

use crate::layers::activation::Activation;
use crate::layers::batchnorm::BatchNorm;
use crate::layers::conv2d::Conv2d;
use crate::layers::dense::Dense;
use crate::layers::pool::{Flatten, MaxPool2d};
use crate::models::IMAGE_CHANNELS;
use crate::sequential::Sequential;

/// Configuration of a VGG-style network: stages of same-resolution 3×3
/// convolutions, each followed by batch normalisation and a ReLU,
/// separated by 2×2 max-pooling, then dense classifier layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VggConfig {
    /// Convolution widths per stage; a 2×2 max-pool follows each stage.
    pub stages: Vec<Vec<usize>>,
    /// Hidden widths of the classifier head.
    pub classifier: Vec<usize>,
    /// Number of output classes.
    pub num_classes: usize,
    /// Input spatial size (32 for CIFAR-like inputs; the input is RGB).
    pub input_hw: usize,
}

impl VggConfig {
    /// Full VGG-16 (configuration "D") adapted to 32×32 inputs, as the
    /// paper trains on CIFAR. Used for analytic communication accounting.
    pub fn vgg16(num_classes: usize) -> Self {
        VggConfig {
            stages: vec![
                vec![64, 64],
                vec![128, 128],
                vec![256, 256, 256],
                vec![512, 512, 512],
                vec![512, 512, 512],
            ],
            classifier: vec![512, 512],
            num_classes,
            input_hw: 32,
        }
    }

    /// A width-scaled VGG trainable on CPU in seconds, keeping the family
    /// shape (three stages of 3×3 convolutions + pooling, dense head).
    ///
    /// The head is kept deliberately wide relative to the first
    /// convolution so the full model is an order of magnitude larger than
    /// the cut activation — the same parameter/activation relationship the
    /// full-size VGG-16 has, which Fig. 4's bandwidth comparison depends
    /// on.
    pub fn lite(num_classes: usize) -> Self {
        VggConfig {
            stages: vec![vec![8], vec![16], vec![32]],
            classifier: vec![256, 128],
            num_classes,
            input_hw: 16,
        }
    }

    /// Builds the network deterministically from a seed.
    pub fn build(&self, seed: u64) -> Sequential {
        let mut rng = rng_from_seed(seed);
        let mut model = Sequential::new("vgg");
        let mut channels = IMAGE_CHANNELS;
        for stage in &self.stages {
            for &width in stage {
                model.push(Conv2d::new(
                    channels,
                    width,
                    Conv2dSpec::square(3, 1, 1),
                    &mut rng,
                ));
                model.push(BatchNorm::new(width));
                model.push(Activation::relu());
                channels = width;
            }
            model.push(MaxPool2d::new(2));
        }
        model.push(Flatten::new());
        let spatial = self.input_hw >> self.stages.len();
        let mut features = channels * spatial * spatial;
        for &width in &self.classifier {
            model.push(Dense::new(features, width, &mut rng));
            model.push(Activation::relu());
            features = width;
        }
        model.push(Dense::new(features, self.num_classes, &mut rng));
        model
    }

    /// Layer index of the paper's cut: after the first conv+bn+relu
    /// group, so the platform holds exactly the first hidden layer.
    pub fn default_split(&self) -> usize {
        3
    }

    /// Total number of trainable parameters (convolutions + batchnorm +
    /// classifier), computed analytically.
    pub fn param_count(&self) -> usize {
        let mut total = 0usize;
        let mut channels = IMAGE_CHANNELS;
        for stage in &self.stages {
            for &width in stage {
                total += width * channels * 9 + width; // conv weight + bias
                total += 2 * width; // gamma + beta
                channels = width;
            }
        }
        let spatial = self.input_hw >> self.stages.len();
        let mut features = channels * spatial * spatial;
        for &width in &self.classifier {
            total += features * width + width;
            features = width;
        }
        total + features * self.num_classes + self.num_classes
    }

    /// Per-sample element count of the activation at the default split
    /// (the "smashed data" the platform transmits): the first convolution
    /// preserves spatial size, so it is `stages[0][0] × H × W`.
    pub fn cut_activation_numel(&self) -> usize {
        self.stages[0][0] * self.input_hw * self.input_hw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Layer, Mode};
    use medsplit_tensor::Tensor;

    #[test]
    fn vgg16_param_count_is_full_scale() {
        let cfg = VggConfig::vgg16(10);
        let n = cfg.param_count();
        // VGG-16 on 32x32 with 512-wide head: ~15M parameters.
        assert!(n > 14_000_000 && n < 16_500_000, "param count {n}");
    }

    #[test]
    fn analytic_param_count_matches_built_model() {
        for cfg in [VggConfig::lite(10), VggConfig::lite(100)] {
            let mut model = cfg.build(0);
            assert_eq!(model.param_count(), cfg.param_count());
        }
    }

    #[test]
    fn lite_forward_shapes() {
        let cfg = VggConfig::lite(10);
        let mut model = cfg.build(1);
        let x = Tensor::zeros([2, 3, 16, 16]);
        let y = model.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn split_holds_first_conv_block() {
        let cfg = VggConfig::lite(10);
        let mut model = cfg.build(2);
        let server = model.split_off(cfg.default_split());
        let client_layers = model.layer_summaries();
        assert_eq!(client_layers.len(), 3);
        assert!(client_layers[0].starts_with("conv2d(3->8"));
        assert!(client_layers[1].starts_with("batchnorm"));
        assert_eq!(client_layers[2], "relu");
        assert!(!server.is_empty());
    }

    #[test]
    fn cut_activation_matches_forward() {
        let cfg = VggConfig::lite(10);
        let mut model = cfg.build(3);
        let _server = model.split_off(cfg.default_split());
        let x = Tensor::zeros([1, 3, 16, 16]);
        let acts = model.forward(&x, Mode::Eval).unwrap();
        assert_eq!(acts.numel(), cfg.cut_activation_numel());
    }

    #[test]
    fn trainable_end_to_end_one_step() {
        use crate::loss::softmax_cross_entropy;
        use crate::optim::{Optimizer, Sgd};
        let cfg = VggConfig::lite(4);
        let mut model = cfg.build(5);
        let mut rng = medsplit_tensor::init::rng_from_seed(0);
        let x = Tensor::rand_normal([4, 3, 16, 16], 0.0, 1.0, &mut rng);
        let logits = model.forward(&x, Mode::Train).unwrap();
        let out = softmax_cross_entropy(&logits, &[0, 1, 2, 3]).unwrap();
        assert!(out.loss.is_finite());
        model.backward(&out.grad).unwrap();
        let mut opt = Sgd::new(0.01);
        opt.step_and_zero(&mut model);
        let logits2 = model.forward(&x, Mode::Train).unwrap();
        let out2 = softmax_cross_entropy(&logits2, &[0, 1, 2, 3]).unwrap();
        assert!(out2.loss < out.loss, "loss {} -> {}", out.loss, out2.loss);
    }
}
