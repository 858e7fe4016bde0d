//! ResNet-family networks (He et al.) with basic residual blocks for
//! CIFAR-shaped inputs.

use medsplit_tensor::init::rng_from_seed;
use medsplit_tensor::Conv2dSpec;
use rand::Rng;

use crate::layers::activation::Activation;
use crate::layers::batchnorm::BatchNorm;
use crate::layers::conv2d::Conv2d;
use crate::layers::dense::Dense;
use crate::layers::pool::GlobalAvgPool;
use crate::layers::residual::Residual;
use crate::models::IMAGE_CHANNELS;
use crate::sequential::Sequential;

/// Configuration of a ResNet: a stem convolution, stages of basic residual
/// blocks (3×3 + 3×3), global average pooling and a linear classifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResNetConfig {
    /// Stem / first-stage width.
    pub base_width: usize,
    /// Residual blocks per stage; stage `i` has width `base_width << i`
    /// and downsamples by 2 at its first block (except stage 0).
    pub blocks: Vec<usize>,
    /// Number of output classes.
    pub num_classes: usize,
    /// Input spatial size (the input is RGB).
    pub input_hw: usize,
}

impl ResNetConfig {
    /// Full ResNet-18 adapted to 32×32 inputs (3×3 stem, no initial
    /// max-pool, widths 64/128/256/512 with two blocks each).
    pub fn resnet18(num_classes: usize) -> Self {
        ResNetConfig {
            base_width: 64,
            blocks: vec![2, 2, 2, 2],
            num_classes,
            input_hw: 32,
        }
    }

    /// A width-scaled ResNet trainable on CPU in seconds.
    ///
    /// The deepest stage gets two blocks so the parameter count dominates
    /// the cut activation size, preserving the full-size ResNet-18
    /// relationship that Fig. 4's bandwidth comparison depends on.
    pub fn lite(num_classes: usize) -> Self {
        ResNetConfig {
            base_width: 8,
            blocks: vec![1, 1, 2],
            num_classes,
            input_hw: 16,
        }
    }

    fn basic_block(in_ch: usize, out_ch: usize, stride: usize, rng: &mut impl Rng) -> Residual {
        let mut main = Sequential::new("block");
        main.push(Conv2d::new(in_ch, out_ch, Conv2dSpec::square(3, stride, 1), rng));
        main.push(BatchNorm::new(out_ch));
        main.push(Activation::relu());
        main.push(Conv2d::new(out_ch, out_ch, Conv2dSpec::square(3, 1, 1), rng));
        main.push(BatchNorm::new(out_ch));
        if stride != 1 || in_ch != out_ch {
            let mut proj = Sequential::new("proj");
            proj.push(Conv2d::new(in_ch, out_ch, Conv2dSpec::square(1, stride, 0), rng));
            proj.push(BatchNorm::new(out_ch));
            Residual::with_projection(main, proj)
        } else {
            Residual::new(main)
        }
    }

    /// Builds the network deterministically from a seed.
    ///
    /// Layer layout: `[stem conv, bn, relu, block*, global_avgpool,
    /// dense]`; the paper's split keeps the stem (layers `0..3`) on the
    /// platform.
    pub fn build(&self, seed: u64) -> Sequential {
        let mut rng = rng_from_seed(seed);
        let mut model = Sequential::new("resnet");
        model.push(Conv2d::new(
            IMAGE_CHANNELS,
            self.base_width,
            Conv2dSpec::square(3, 1, 1),
            &mut rng,
        ));
        model.push(BatchNorm::new(self.base_width));
        model.push(Activation::relu());
        let mut channels = self.base_width;
        for (stage, &count) in self.blocks.iter().enumerate() {
            let width = self.base_width << stage;
            for b in 0..count {
                let stride = if stage > 0 && b == 0 { 2 } else { 1 };
                model.push(Self::basic_block(channels, width, stride, &mut rng));
                channels = width;
            }
        }
        model.push(GlobalAvgPool::new());
        model.push(Dense::new(channels, self.num_classes, &mut rng));
        model
    }

    /// Layer index of the paper's cut: after the stem conv+bn+relu.
    pub fn default_split(&self) -> usize {
        3
    }

    /// Per-sample element count of the activation at the default split.
    pub fn cut_activation_numel(&self) -> usize {
        self.base_width * self.input_hw * self.input_hw
    }

    /// Total number of trainable parameters, computed analytically.
    pub fn param_count(&self) -> usize {
        let mut total = self.base_width * IMAGE_CHANNELS * 9 + self.base_width + 2 * self.base_width;
        let mut channels = self.base_width;
        for (stage, &count) in self.blocks.iter().enumerate() {
            let width = self.base_width << stage;
            for b in 0..count {
                let stride = if stage > 0 && b == 0 { 2 } else { 1 };
                // conv1 + bn1 + conv2 + bn2
                total += width * channels * 9 + width + 2 * width;
                total += width * width * 9 + width + 2 * width;
                if stride != 1 || channels != width {
                    total += width * channels + width + 2 * width; // 1x1 proj + bn
                }
                channels = width;
            }
        }
        total + channels * self.num_classes + self.num_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Layer, Mode};
    use medsplit_tensor::Tensor;

    #[test]
    fn resnet18_param_count_is_full_scale() {
        let n = ResNetConfig::resnet18(10).param_count();
        // ResNet-18 (CIFAR variant): ~11M parameters.
        assert!(n > 10_500_000 && n < 12_000_000, "param count {n}");
    }

    #[test]
    fn analytic_param_count_matches_built_model() {
        let cfg = ResNetConfig::lite(10);
        let mut model = cfg.build(0);
        assert_eq!(model.param_count(), cfg.param_count());
    }

    #[test]
    fn lite_forward_shapes() {
        let cfg = ResNetConfig::lite(7);
        let mut model = cfg.build(1);
        let y = model.forward(&Tensor::zeros([2, 3, 16, 16]), Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 7]);
    }

    #[test]
    fn split_keeps_stem_on_platform() {
        let cfg = ResNetConfig::lite(10);
        let mut model = cfg.build(2);
        let server = model.split_off(cfg.default_split());
        assert_eq!(model.layer_summaries().len(), 3);
        assert!(model.layer_summaries()[0].starts_with("conv2d(3->8"));
        assert!(server.layer_summaries()[0].starts_with("residual"));
        // Cut activation matches the analytic count.
        let acts = model.forward(&Tensor::zeros([1, 3, 16, 16]), Mode::Eval).unwrap();
        assert_eq!(acts.numel(), cfg.cut_activation_numel());
    }

    #[test]
    fn downsampling_between_stages() {
        let cfg = ResNetConfig {
            base_width: 4,
            blocks: vec![1, 1],
            num_classes: 3,
            input_hw: 8,
        };
        let mut model = cfg.build(3);
        let y = model.forward(&Tensor::zeros([1, 3, 8, 8]), Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[1, 3]);
        assert_eq!(model.param_count(), cfg.param_count());
    }

    #[test]
    fn backward_through_whole_network() {
        let cfg = ResNetConfig::lite(4);
        let mut model = cfg.build(4);
        let mut rng = medsplit_tensor::init::rng_from_seed(0);
        let x = Tensor::rand_normal([2, 3, 16, 16], 0.0, 1.0, &mut rng);
        let y = model.forward(&x, Mode::Train).unwrap();
        let g = model.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert_eq!(g.shape(), x.shape());
        let mut nonzero = false;
        model.visit_params(&mut |p| nonzero |= p.grad.norm_sq() > 0.0);
        assert!(nonzero);
    }

    #[test]
    fn one_sgd_step_reduces_loss() {
        use crate::loss::softmax_cross_entropy;
        use crate::optim::{Optimizer, Sgd};
        let cfg = ResNetConfig::lite(3);
        let mut model = cfg.build(5);
        let mut rng = medsplit_tensor::init::rng_from_seed(1);
        let x = Tensor::rand_normal([3, 3, 16, 16], 0.0, 1.0, &mut rng);
        let labels = [0usize, 1, 2];
        let out1 = softmax_cross_entropy(&model.forward(&x, Mode::Train).unwrap(), &labels).unwrap();
        model.backward(&out1.grad).unwrap();
        Sgd::new(0.05).step_and_zero(&mut model);
        let out2 = softmax_cross_entropy(&model.forward(&x, Mode::Train).unwrap(), &labels).unwrap();
        assert!(out2.loss < out1.loss, "{} -> {}", out1.loss, out2.loss);
    }
}
