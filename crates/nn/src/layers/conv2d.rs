//! 2-D convolution layer.

use medsplit_tensor::ops::conv::{
    conv2d_backward, conv2d_backward_params, conv2d_backward_planned, conv2d_forward,
    conv2d_forward_prepacked,
};
use medsplit_tensor::{init, Conv2dSpec, ConvPlan, Result, Tensor, TensorError};
use rand::Rng;

use crate::layer::{missing_cache, Layer, Mode};
use crate::param::Param;

/// A 2-D convolution layer over `NCHW` tensors with `OIHW` filters.
///
/// The filter matrix is prepacked into a cached [`ConvPlan`] keyed on
/// the parameter's version counter; the forward pass runs the fused
/// im2col-into-packed-tiles lowering against those panels, and the
/// backward pass shares the plan's im2col geometry. Results are
/// bit-identical to the unplanned `conv2d_forward`/`conv2d_backward`
/// path, and [`Layer::backward_params`] leaves the same weight and bias
/// gradients as [`Layer::backward`] without computing the input's.
#[derive(Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    spec: Conv2dSpec,
    in_channels: usize,
    out_channels: usize,
    cached_input: Option<Tensor>,
    plan: Option<ConvPlan>,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-normal filters and zero bias.
    pub fn new(in_channels: usize, out_channels: usize, spec: Conv2dSpec, rng: &mut impl Rng) -> Self {
        let weight = init::kaiming_normal([out_channels, in_channels, spec.kernel_h, spec.kernel_w], rng);
        Conv2d {
            weight: Param::new(weight, format!("conv{out_channels}.weight")),
            bias: Param::new(Tensor::zeros([out_channels]), format!("conv{out_channels}.bias")),
            spec,
            in_channels,
            out_channels,
            cached_input: None,
            plan: None,
        }
    }

    /// Creates a convolution from explicit filter and bias values.
    ///
    /// # Errors
    ///
    /// Returns a shape error for non-`OIHW` weights or a bias length that
    /// does not match the output channel count.
    pub fn from_parts(weight: Tensor, bias: Tensor, spec: Conv2dSpec) -> Result<Self> {
        if weight.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: weight.rank(),
                op: "Conv2d::from_parts",
            });
        }
        let d = weight.dims();
        if d[2] != spec.kernel_h || d[3] != spec.kernel_w {
            return Err(TensorError::ShapeMismatch {
                lhs: weight.shape().clone(),
                rhs: medsplit_tensor::Shape::from([d[0], d[1], spec.kernel_h, spec.kernel_w]),
                op: "Conv2d::from_parts",
            });
        }
        if bias.numel() != d[0] {
            return Err(TensorError::LengthMismatch {
                expected: d[0],
                actual: bias.numel(),
            });
        }
        let (out_channels, in_channels) = (d[0], d[1]);
        Ok(Conv2d {
            weight: Param::new(weight, format!("conv{out_channels}.weight")),
            bias: Param::new(bias, format!("conv{out_channels}.bias")),
            spec,
            in_channels,
            out_channels,
            cached_input: None,
            plan: None,
        })
    }

    /// The convolution hyper-parameters.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// The cached plan, if it packed the current weight.
    fn current_plan(&self) -> Option<&ConvPlan> {
        self.plan
            .as_ref()
            .filter(|p| p.generation() == self.weight.version())
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        self.update_plans()?;
        let out = self.infer(input)?;
        if mode == Mode::Train {
            self.cached_input = Some(input.clone());
        }
        Ok(out)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        let bias = Some(&self.bias.value);
        match self.current_plan() {
            Some(plan) => conv2d_forward_prepacked(input, plan, bias),
            None => conv2d_forward(input, &self.weight.value, bias, self.spec),
        }
    }

    fn update_plans(&mut self) -> Result<()> {
        ConvPlan::ensure(
            &mut self.plan,
            &self.weight.value,
            self.spec,
            self.weight.version(),
        )
        .map(drop)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| missing_cache("Conv2d"))?;
        // The plan is current in any forward→backward step; fall back to
        // the unplanned path if the weight moved since the forward.
        let (gi, gw, gb) = match self
            .plan
            .as_mut()
            .filter(|p| p.generation() == self.weight.version())
        {
            Some(plan) => conv2d_backward_planned(input, &self.weight.value, grad_out, plan)?,
            None => conv2d_backward(input, &self.weight.value, grad_out, self.spec)?,
        };
        self.weight.accumulate_grad(&gw);
        self.bias.accumulate_grad(&gb);
        Ok(gi)
    }

    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| missing_cache("Conv2d"))?;
        let (gw, gb) = conv2d_backward_params(input, &self.weight.value, grad_out, self.spec)?;
        self.weight.accumulate_grad(&gw);
        self.bias.accumulate_grad(&gb);
        Ok(())
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn describe(&self) -> String {
        format!(
            "conv2d({}->{}, {}x{}/s{}p{})",
            self.in_channels,
            self.out_channels,
            self.spec.kernel_h,
            self.spec.kernel_w,
            self.spec.stride,
            self.spec.padding
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsplit_tensor::init::rng_from_seed;

    #[test]
    fn forward_shape() {
        let mut rng = rng_from_seed(0);
        let mut conv = Conv2d::new(3, 8, Conv2dSpec::square(3, 1, 1), &mut rng);
        let x = Tensor::zeros([2, 3, 8, 8]);
        let y = conv.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 8, 8, 8]);
        assert_eq!(conv.param_count(), 8 * 3 * 9 + 8);
    }

    #[test]
    fn gradients_match_numerical() {
        let mut rng = rng_from_seed(3);
        let conv = Conv2d::new(2, 3, Conv2dSpec::square(3, 1, 1), &mut rng);
        let w = conv.weight.value.clone();
        let b = conv.bias.value.clone();
        let spec = conv.spec;
        crate::gradcheck::check_layer(
            move || Conv2d::from_parts(w.clone(), b.clone(), spec).unwrap(),
            &[2, 2, 5, 5],
            1e-2,
            3e-2,
        )
        .unwrap();
    }

    #[test]
    fn strided_conv_gradients_match_numerical() {
        let mut rng = rng_from_seed(7);
        let conv = Conv2d::new(2, 2, Conv2dSpec::square(3, 2, 1), &mut rng);
        let w = conv.weight.value.clone();
        let b = conv.bias.value.clone();
        let spec = conv.spec;
        crate::gradcheck::check_layer(
            move || Conv2d::from_parts(w.clone(), b.clone(), spec).unwrap(),
            &[1, 2, 6, 6],
            1e-2,
            3e-2,
        )
        .unwrap();
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut rng = rng_from_seed(0);
        let mut conv = Conv2d::new(1, 1, Conv2dSpec::square(1, 1, 0), &mut rng);
        assert!(conv.backward(&Tensor::ones([1, 1, 1, 1])).is_err());
    }

    #[test]
    fn from_parts_validation() {
        let spec = Conv2dSpec::square(3, 1, 1);
        assert!(Conv2d::from_parts(Tensor::ones([2, 2]), Tensor::ones([2]), spec).is_err());
        assert!(Conv2d::from_parts(Tensor::ones([2, 1, 5, 5]), Tensor::ones([2]), spec).is_err());
        assert!(Conv2d::from_parts(Tensor::ones([2, 1, 3, 3]), Tensor::ones([3]), spec).is_err());
        assert!(Conv2d::from_parts(Tensor::ones([2, 1, 3, 3]), Tensor::ones([2]), spec).is_ok());
    }

    #[test]
    fn describe_mentions_geometry() {
        let mut rng = rng_from_seed(0);
        let conv = Conv2d::new(3, 16, Conv2dSpec::square(3, 2, 1), &mut rng);
        let d = conv.describe();
        assert!(d.contains("3->16"));
        assert!(d.contains("3x3"));
    }
}
