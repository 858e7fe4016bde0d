//! Pointwise activation layers.

use medsplit_tensor::{Result, Tensor};

use crate::layer::{missing_cache, Layer, Mode};
use crate::param::Param;

/// The supported pointwise nonlinearities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActivationKind {
    /// `max(0, x)`.
    Relu,
    /// `max(alpha * x, x)`.
    LeakyRelu(f32),
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

/// A stateless-parameter, pointwise activation layer.
#[derive(Debug)]
pub struct Activation {
    kind: ActivationKind,
    /// Cached forward *output* (sufficient to compute every supported
    /// derivative, and cheaper than caching both input and output).
    cached_output: Option<Tensor>,
    /// Cached input, needed only for Leaky ReLU's derivative at the kink.
    cached_input: Option<Tensor>,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Activation {
            kind,
            cached_output: None,
            cached_input: None,
        }
    }

    /// Convenience constructor for ReLU.
    pub fn relu() -> Self {
        Self::new(ActivationKind::Relu)
    }

    fn apply(&self, x: f32) -> f32 {
        match self.kind {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::LeakyRelu(a) => {
                if x > 0.0 {
                    x
                } else {
                    a * x
                }
            }
            ActivationKind::Tanh => x.tanh(),
            ActivationKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }
}

impl Layer for Activation {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let out = self.infer(input)?;
        if mode == Mode::Train {
            self.cached_output = Some(out.clone());
            if matches!(self.kind, ActivationKind::LeakyRelu(_)) {
                self.cached_input = Some(input.clone());
            }
        }
        Ok(out)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        // The ReLU family goes through the SIMD-dispatched tensor kernels;
        // the transcendental activations stay on the pool-parallel map.
        Ok(match self.kind {
            ActivationKind::Relu => input.relu(),
            ActivationKind::LeakyRelu(a) => input.leaky_relu(a),
            _ => input.par_map(|x| self.apply(x)),
        })
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let out = self
            .cached_output
            .as_ref()
            .ok_or_else(|| missing_cache("Activation"))?;
        match self.kind {
            ActivationKind::Relu => out.relu_backward(grad_out),
            ActivationKind::LeakyRelu(a) => {
                let input = self
                    .cached_input
                    .as_ref()
                    .ok_or_else(|| missing_cache("LeakyRelu"))?;
                input.leaky_relu_backward(a, grad_out)
            }
            ActivationKind::Tanh => out.par_zip_map(grad_out, |y, g| g * (1.0 - y * y)),
            ActivationKind::Sigmoid => out.par_zip_map(grad_out, |y, g| g * y * (1.0 - y)),
        }
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn describe(&self) -> String {
        match self.kind {
            ActivationKind::Relu => "relu".into(),
            ActivationKind::LeakyRelu(a) => format!("leaky_relu({a})"),
            ActivationKind::Tanh => "tanh".into(),
            ActivationKind::Sigmoid => "sigmoid".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut relu = Activation::relu();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], [3]).unwrap();
        let y = relu.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
        let g = relu.backward(&Tensor::ones([3])).unwrap();
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn sigmoid_range_and_grad() {
        let mut s = Activation::new(ActivationKind::Sigmoid);
        let x = Tensor::from_vec(vec![0.0], [1]).unwrap();
        let y = s.forward(&x, Mode::Train).unwrap();
        assert!((y.item() - 0.5).abs() < 1e-6);
        let g = s.backward(&Tensor::ones([1])).unwrap();
        assert!((g.item() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn tanh_gradcheck() {
        crate::gradcheck::check_layer(|| Activation::new(ActivationKind::Tanh), &[2, 3], 1e-3, 1e-2).unwrap();
    }

    #[test]
    fn sigmoid_gradcheck() {
        crate::gradcheck::check_layer(|| Activation::new(ActivationKind::Sigmoid), &[2, 3], 1e-3, 1e-2)
            .unwrap();
    }

    #[test]
    fn leaky_relu_negative_slope() {
        let mut l = Activation::new(ActivationKind::LeakyRelu(0.1));
        let x = Tensor::from_vec(vec![-10.0, 10.0], [2]).unwrap();
        let y = l.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.as_slice(), &[-1.0, 10.0]);
        let g = l.backward(&Tensor::ones([2])).unwrap();
        assert_eq!(g.as_slice(), &[0.1, 1.0]);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut relu = Activation::relu();
        assert!(relu.backward(&Tensor::ones([1])).is_err());
    }

    #[test]
    fn eval_mode_does_not_cache() {
        let mut relu = Activation::relu();
        let _ = relu.forward(&Tensor::ones([1]), Mode::Eval).unwrap();
        assert!(relu.backward(&Tensor::ones([1])).is_err());
    }
}
