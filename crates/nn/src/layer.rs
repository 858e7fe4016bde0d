//! The [`Layer`] trait: stateful forward/backward building blocks.

use medsplit_tensor::{Result, Tensor};

use crate::param::Param;

/// Whether a forward pass is part of training or evaluation.
///
/// Training mode enables dropout masks, uses batch statistics in batch
/// normalisation (and updates the running statistics), and caches the
/// intermediate values the backward pass needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: stochastic regularisers active, activations cached.
    Train,
    /// Inference: deterministic, running statistics used.
    Eval,
}

/// A differentiable network module with explicit forward and backward
/// passes.
///
/// Layers are *stateful*: `forward` caches whatever the subsequent
/// `backward` call needs (inputs, masks, pooling indices), and `backward`
/// both accumulates parameter gradients and returns the gradient with
/// respect to the layer's input. This mirrors how the split-learning
/// protocol operates — the platform calls `backward` on `L1` with the cut
/// gradient it received from the server.
///
/// The trait is object-safe; models are built as `Vec<Box<dyn Layer>>`.
pub trait Layer: Send {
    /// Computes the layer output.
    ///
    /// # Errors
    ///
    /// Returns a tensor error if the input shape is incompatible.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor>;

    /// Backpropagates `grad_out` (gradient w.r.t. this layer's output),
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the input of the most recent `forward` call.
    ///
    /// # Errors
    ///
    /// Returns a tensor error if `grad_out` does not match the cached
    /// forward shapes, or if `forward` was never called.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor>;

    /// [`backward`](Self::backward) for a caller that has no use for the
    /// input gradient: accumulates exactly the same parameter gradients
    /// and returns nothing. The platform's `L1` sits on raw patient data,
    /// which never leaves the hospital, so nobody can ask for
    /// `dL/d(input)` there; layers whose input gradient is separable work
    /// (`Dense`, `Conv2d`, and `Sequential` for its first layer) skip it.
    ///
    /// # Errors
    ///
    /// Exactly those of [`backward`](Self::backward).
    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        self.backward(grad_out).map(drop)
    }

    /// Visits every trainable parameter in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Visits every *non-trainable* state tensor (e.g. batch-norm running
    /// statistics) in a stable order. Layers without such state need not
    /// override this.
    ///
    /// Model-exchange protocols (FedAvg, synchronous SGD) must transfer
    /// this state along with the parameters, or an averaged/global model
    /// would normalise with stale statistics at inference time.
    fn visit_state(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}

    /// A short human-readable description, e.g. `"dense(128->10)"`.
    fn describe(&self) -> String;

    /// Total number of trainable scalars.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.numel());
        n
    }

    /// Zeroes every parameter gradient.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }
}

/// Error helper: the uniform "backward before forward" failure.
pub(crate) fn missing_cache(op: &'static str) -> medsplit_tensor::TensorError {
    medsplit_tensor::TensorError::Numerical(format!("`{op}`: backward called before forward"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal scaling layer used to exercise the default methods.
    struct Doubler;

    impl Layer for Doubler {
        fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
            Ok(input.scale(2.0))
        }
        fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
            Ok(grad_out.scale(2.0))
        }
        fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
        fn describe(&self) -> String {
            "doubler".into()
        }
    }

    #[test]
    fn default_methods() {
        let mut d = Doubler;
        assert_eq!(d.param_count(), 0);
        d.zero_grads(); // no-op, must not panic
        let out = d.forward(&Tensor::ones([2]), Mode::Eval).unwrap();
        assert_eq!(out.as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn layer_is_object_safe() {
        let mut boxed: Box<dyn Layer> = Box::new(Doubler);
        assert_eq!(boxed.describe(), "doubler");
        let g = boxed.backward(&Tensor::ones([1])).unwrap();
        assert_eq!(g.as_slice(), &[2.0]);
    }
}
