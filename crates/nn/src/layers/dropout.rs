//! Inverted dropout.

use medsplit_tensor::{init::StdRng, Result, Tensor, TensorError};
use rand::Rng;
use rand::SeedableRng;

use crate::layer::{missing_cache, Layer, Mode};
use crate::param::Param;

/// Inverted dropout: in training mode each activation is zeroed with
/// probability `p` and survivors are scaled by `1/(1-p)`, so evaluation
/// mode is the identity.
///
/// The layer owns a seeded RNG so whole-model training runs are
/// reproducible.
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    rng: StdRng,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` and an RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0,1), got {p}"
        );
        Dropout {
            p,
            rng: StdRng::seed_from_u64(seed),
            mask: None,
        }
    }

    /// The drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if mode == Mode::Eval || self.p == 0.0 {
            return self.infer(input);
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mask_data: Vec<f32> = (0..input.numel())
            .map(|_| if self.rng.gen::<f32>() < keep { scale } else { 0.0 })
            .collect();
        let mask = Tensor::from_vec(mask_data, input.shape().clone())?;
        let out = input.try_mul(&mask)?;
        self.mask = Some(mask);
        Ok(out)
    }

    /// The identity: inverted dropout scales at training time.
    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        Ok(input.clone())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mask = self.mask.as_ref().ok_or_else(|| missing_cache("Dropout"))?;
        if grad_out.shape() != mask.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: grad_out.shape().clone(),
                rhs: mask.shape().clone(),
                op: "Dropout::backward",
            });
        }
        grad_out.try_mul(mask)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn describe(&self) -> String {
        format!("dropout({})", self.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 0);
        let x = Tensor::arange(10);
        let y = d.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn zero_probability_is_identity_even_in_train() {
        let mut d = Dropout::new(0.0, 0);
        let x = Tensor::arange(10);
        assert_eq!(d.forward(&x, Mode::Train).unwrap(), x);
    }

    #[test]
    fn train_mode_preserves_expectation() {
        let mut d = Dropout::new(0.5, 42);
        let x = Tensor::ones([10000]);
        let y = d.forward(&x, Mode::Train).unwrap();
        // E[y] == 1 with inverted dropout.
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
        // Survivors are exactly scaled.
        assert!(y.as_slice().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn backward_applies_same_mask() {
        let mut d = Dropout::new(0.5, 7);
        let x = Tensor::ones([1000]);
        let y = d.forward(&x, Mode::Train).unwrap();
        let g = d.backward(&Tensor::ones([1000])).unwrap();
        // Gradient zero exactly where output was zero.
        for (a, b) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(*a == 0.0, *b == 0.0);
        }
        assert!(d.backward(&Tensor::ones([5])).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut d1 = Dropout::new(0.3, 9);
        let mut d2 = Dropout::new(0.3, 9);
        let x = Tensor::ones([100]);
        assert_eq!(
            d1.forward(&x, Mode::Train).unwrap(),
            d2.forward(&x, Mode::Train).unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn rejects_invalid_probability() {
        let _ = Dropout::new(1.0, 0);
    }
}
