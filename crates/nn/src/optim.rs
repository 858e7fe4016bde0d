//! The optimiser: SGD with optional momentum.

use medsplit_tensor::Tensor;

use crate::layer::Layer;

/// An optimiser updates a model's parameters from their accumulated
/// gradients.
///
/// Per-parameter state (momentum buffers) is keyed by the
/// parameter's position in the model's stable visitation order, allocated
/// lazily on the first step, and only when the rule reads it.
pub trait Optimizer: Send + Sync {
    /// Applies one update and leaves the gradients untouched (call
    /// [`Layer::zero_grads`] afterwards, or use [`step_and_zero`](Optimizer::step_and_zero)).
    fn step(&mut self, model: &mut dyn Layer);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used by schedules).
    fn set_learning_rate(&mut self, lr: f32);

    /// Convenience: step, then zero the gradients.
    fn step_and_zero(&mut self, model: &mut dyn Layer) {
        self.step(model);
        model.zero_grads();
    }
}

/// Stochastic gradient descent with optional momentum.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocities: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            velocities: Vec::new(),
        }
    }

    /// Adds classical momentum.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut dyn Layer) {
        let mut idx = 0;
        let lr = self.lr;
        let momentum = self.momentum;
        let velocities = &mut self.velocities;
        model.visit_params(&mut |p| {
            // One loop per update rule, each over zipped slices, so the
            // compiler vectorises it; every element sees the same
            // operations in the same order, with no fused multiply-add.
            if momentum > 0.0 {
                if velocities.len() <= idx {
                    velocities.push(Tensor::zeros(p.value.shape().clone()));
                }
                let v = &mut velocities[idx];
                debug_assert_eq!(v.shape(), p.value.shape(), "optimizer state shape drift");
                let grad = p.grad.as_slice();
                for ((x, &g), v) in p.value.as_mut_slice().iter_mut().zip(grad).zip(v.as_mut_slice()) {
                    *v = momentum * *v + g;
                    *x -= lr * *v;
                }
            } else {
                for (x, &g) in p.value.as_mut_slice().iter_mut().zip(p.grad.as_slice()) {
                    *x -= lr * g;
                }
            }
            p.bump_version();
            idx += 1;
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Mode;
    use crate::layers::dense::Dense;
    use crate::loss::softmax_cross_entropy;
    use crate::sequential::Sequential;
    use medsplit_tensor::init::rng_from_seed;

    fn quadratic_layer(start: f32) -> Dense {
        // Single scalar weight, no bias contribution: y = w x.
        Dense::from_parts(Tensor::from_vec(vec![start], [1, 1]).unwrap(), Tensor::zeros([1])).unwrap()
    }

    /// Minimise (w - 3)² by feeding the gradient manually.
    fn converges<O: Optimizer>(mut opt: O, steps: usize) -> f32 {
        use crate::layer::Layer;
        let mut layer = quadratic_layer(0.0);
        for _ in 0..steps {
            let mut w = 0.0;
            layer.visit_params(&mut |p| {
                if p.name.ends_with("weight") {
                    w = p.value.as_slice()[0];
                }
            });
            layer.visit_params(&mut |p| {
                if p.name.ends_with("weight") {
                    p.grad.as_mut_slice()[0] = 2.0 * (w - 3.0);
                }
            });
            opt.step_and_zero(&mut layer);
        }
        let mut w = 0.0;
        layer.visit_params(&mut |p| {
            if p.name.ends_with("weight") {
                w = p.value.as_slice()[0];
            }
        });
        w
    }

    #[test]
    fn sgd_minimises_quadratic() {
        let w = converges(Sgd::new(0.1), 100);
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn sgd_momentum_minimises_quadratic() {
        let w = converges(Sgd::new(0.05).with_momentum(0.9), 200);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn momentum_free_sgd_holds_no_state() {
        use crate::layer::Layer;
        let mut layer = quadratic_layer(1.0);
        layer.visit_params(&mut |p| p.grad.as_mut_slice().fill(0.5));
        let mut plain = Sgd::new(0.1);
        plain.step(&mut layer);
        assert!(plain.velocities.is_empty(), "momentum 0 allocated velocities");
        layer.visit_params(&mut |p| {
            if p.name.ends_with("weight") {
                assert_eq!(p.value.as_slice(), [1.0 - 0.1 * 0.5]);
            }
        });
        let mut heavy = Sgd::new(0.1).with_momentum(0.5);
        heavy.step(&mut layer);
        assert_eq!(heavy.velocities.len(), 2, "one velocity per parameter");
    }

    #[test]
    fn lr_getter_setter() {
        let mut s = Sgd::new(0.1);
        assert_eq!(s.learning_rate(), 0.1);
        s.set_learning_rate(0.01);
        assert_eq!(s.learning_rate(), 0.01);
    }

    /// End-to-end sanity: a small MLP fits a toy classification task.
    #[test]
    fn sgd_trains_mlp_on_separable_data() {
        use crate::layer::Layer;
        let mut rng = rng_from_seed(0);
        let mut model = Sequential::new("mlp");
        model.push(Dense::new(2, 16, &mut rng));
        model.push(crate::layers::activation::Activation::relu());
        model.push(Dense::new(16, 2, &mut rng));
        let mut opt = Sgd::new(0.5).with_momentum(0.9);

        // Two Gaussian blobs.
        let n = 64;
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let cx = if class == 0 { -1.0 } else { 1.0 };
            xs.push(cx + 0.3 * ((i * 7 % 13) as f32 / 13.0 - 0.5));
            xs.push(cx + 0.3 * ((i * 11 % 17) as f32 / 17.0 - 0.5));
            labels.push(class);
        }
        let x = Tensor::from_vec(xs, [n, 2]).unwrap();

        let mut last_loss = f32::INFINITY;
        for epoch in 0..60 {
            let logits = model.forward(&x, Mode::Train).unwrap();
            let out = softmax_cross_entropy(&logits, &labels).unwrap();
            model.backward(&out.grad).unwrap();
            opt.step_and_zero(&mut model);
            if epoch == 0 {
                last_loss = out.loss;
            }
        }
        let logits = model.forward(&x, Mode::Eval).unwrap();
        let final_loss = softmax_cross_entropy(&logits, &labels).unwrap().loss;
        assert!(final_loss < last_loss * 0.5, "loss {last_loss} -> {final_loss}");
        let preds = logits.argmax_rows().unwrap();
        let correct = preds.iter().zip(&labels).filter(|(a, b)| a == b).count();
        assert!(correct as f32 / n as f32 > 0.95, "accuracy {}/{n}", correct);
    }
}
