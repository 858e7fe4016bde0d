//! The rectified linear activation layer.

use medsplit_tensor::{Result, Tensor};

use crate::layer::{missing_cache, Layer, Mode};
use crate::param::Param;

/// A parameter-free ReLU layer, `max(0, x)`.
#[derive(Debug)]
pub struct Activation {
    /// Cached forward *output*, which is all the derivative needs.
    cached_output: Option<Tensor>,
}

impl Activation {
    /// A ReLU layer.
    pub fn relu() -> Self {
        Activation { cached_output: None }
    }
}

impl Layer for Activation {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let out = self.infer(input)?;
        if mode == Mode::Train {
            self.cached_output = Some(out.clone());
        }
        Ok(out)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        Ok(input.relu())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let out = self
            .cached_output
            .as_ref()
            .ok_or_else(|| missing_cache("Activation"))?;
        out.relu_backward(grad_out)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn describe(&self) -> String {
        "relu".into()
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
