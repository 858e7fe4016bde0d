//! Fully-connected layer.

use medsplit_tensor::{init, GemmPlan, Result, Tensor, TensorError};
use rand::Rng;

use crate::layer::{missing_cache, Layer, Mode};
use crate::param::Param;

/// A fully-connected (affine) layer: `y = x · Wᵀ + b`.
///
/// Input `[N, in]`, output `[N, out]`, weight `[out, in]`, bias `[out]`.
///
/// The weight's microkernel panels are prepacked into a cached
/// [`GemmPlan`] keyed on the parameter's version counter: eval/serve
/// never repacks after the first forward, training repacks once per
/// optimizer step, and results are bit-identical to the unplanned path.
#[derive(Debug)]
pub struct Dense {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
    plan: Option<GemmPlan>,
}

impl Dense {
    /// Creates a dense layer with Kaiming-normal weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        let weight = init::kaiming_normal([out_features, in_features], rng);
        Dense {
            weight: Param::new(weight, format!("dense{out_features}.weight")),
            bias: Param::new(Tensor::zeros([out_features]), format!("dense{out_features}.bias")),
            in_features,
            out_features,
            cached_input: None,
            plan: None,
        }
    }

    /// Creates a dense layer from explicit weight and bias values.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `weight` is not `[out, in]` with `bias`
    /// `[out]`.
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Result<Self> {
        if weight.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: weight.rank(),
                op: "Dense::from_parts",
            });
        }
        let (out_features, in_features) = (weight.dims()[0], weight.dims()[1]);
        if bias.dims() != [out_features] {
            return Err(TensorError::LengthMismatch {
                expected: out_features,
                actual: bias.numel(),
            });
        }
        Ok(Dense {
            weight: Param::new(weight, format!("dense{out_features}.weight")),
            bias: Param::new(bias, format!("dense{out_features}.bias")),
            in_features,
            out_features,
            cached_input: None,
            plan: None,
        })
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The cached plan, if it packed the current weight.
    fn current_plan(&self) -> Option<&GemmPlan> {
        self.plan
            .as_ref()
            .filter(|p| p.generation() == self.weight.version())
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        self.update_plans()?;
        let out = self.infer(input)?;
        if mode == Mode::Train {
            self.cached_input = Some(input.clone());
        }
        Ok(out)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        if input.rank() != 2 || input.dims()[1] != self.in_features {
            return Err(TensorError::ShapeMismatch {
                lhs: input.shape().clone(),
                rhs: self.weight.value.shape().clone(),
                op: "Dense::forward",
            });
        }
        // [N, out], from the cached panels when they are current.
        let out = match self.current_plan() {
            Some(plan) => plan.matmul_nt(input)?,
            None => input.matmul_nt(&self.weight.value)?,
        };
        out.try_add(&self.bias.value) // broadcast bias over rows
    }

    fn update_plans(&mut self) -> Result<()> {
        GemmPlan::ensure(&mut self.plan, &self.weight.value, self.weight.version()).map(drop)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        self.backward_params(grad_out)?;
        // dx = g · W -> [N, in], through the plan's cached backward
        // panels when current (always, in a forward→backward step);
        // fall back to the direct path if the weight moved since.
        match self
            .plan
            .as_mut()
            .filter(|p| p.generation() == self.weight.version())
        {
            Some(plan) => plan.matmul_nn(grad_out, &self.weight.value),
            None => grad_out.matmul(&self.weight.value),
        }
    }

    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        let input = self.cached_input.as_ref().ok_or_else(|| missing_cache("Dense"))?;
        // dW = gᵀ · x  -> [out, in]
        let gw = grad_out.matmul_tn(input)?;
        self.weight.accumulate_grad(&gw);
        // db = column sums of g
        let gb = grad_out.sum_axis(0)?;
        self.bias.accumulate_grad(&gb);
        Ok(())
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn describe(&self) -> String {
        format!("dense({}->{})", self.in_features, self.out_features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsplit_tensor::init::rng_from_seed;

    #[test]
    fn forward_known_values() {
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]).unwrap();
        let b = Tensor::from_vec(vec![0.5, -0.5], [2]).unwrap();
        let mut layer = Dense::from_parts(w, b).unwrap();
        let x = Tensor::from_vec(vec![1.0, 1.0, 1.0], [1, 3]).unwrap();
        let y = layer.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[6.5, 14.5]);
    }

    #[test]
    fn forward_rejects_bad_input() {
        let mut rng = rng_from_seed(0);
        let mut layer = Dense::new(3, 2, &mut rng);
        assert!(layer.forward(&Tensor::ones([1, 4]), Mode::Train).is_err());
        assert!(layer.forward(&Tensor::ones([3]), Mode::Train).is_err());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut rng = rng_from_seed(0);
        let mut layer = Dense::new(3, 2, &mut rng);
        assert!(layer.backward(&Tensor::ones([1, 2])).is_err());
    }

    #[test]
    fn backward_gradients_match_numerical() {
        let mut rng = rng_from_seed(1);
        let layer = Dense::new(4, 3, &mut rng);
        crate::gradcheck::check_layer(|| clone_dense(&layer), &[2, 4], 1e-2, 2e-2).unwrap();
    }

    fn clone_dense(l: &Dense) -> Dense {
        Dense::from_parts(l.weight.value.clone(), l.bias.value.clone()).unwrap()
    }

    #[test]
    fn param_visitation_order_stable() {
        let mut rng = rng_from_seed(2);
        let mut layer = Dense::new(2, 2, &mut rng);
        let mut names = Vec::new();
        layer.visit_params(&mut |p| names.push(p.name.clone()));
        assert_eq!(names.len(), 2);
        assert!(names[0].ends_with("weight"));
        assert!(names[1].ends_with("bias"));
        assert_eq!(layer.param_count(), 2 * 2 + 2);
    }

    #[test]
    fn from_parts_validation() {
        assert!(Dense::from_parts(Tensor::ones([4]), Tensor::ones([2])).is_err());
        assert!(Dense::from_parts(Tensor::ones([2, 3]), Tensor::ones([3])).is_err());
    }
}
