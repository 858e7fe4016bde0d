//! Pooling layers.

use medsplit_tensor::ops::pool::{
    global_avgpool, global_avgpool_backward, maxpool2d_backward, maxpool2d_forward,
};
use medsplit_tensor::{Conv2dSpec, Result, Shape, Tensor};

use crate::layer::{missing_cache, Layer, Mode};
use crate::param::Param;

/// 2-D max pooling.
#[derive(Debug)]
pub struct MaxPool2d {
    spec: Conv2dSpec,
    argmax: Option<Vec<usize>>,
    input_shape: Option<Shape>,
}

impl MaxPool2d {
    /// Creates a max-pool layer; `MaxPool2d::new(2)` is the common 2×2/2.
    pub fn new(kernel: usize) -> Self {
        MaxPool2d {
            spec: Conv2dSpec::square(kernel, kernel, 0),
            argmax: None,
            input_shape: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if mode == Mode::Eval {
            return self.infer(input);
        }
        let fw = maxpool2d_forward(input, self.spec)?;
        self.argmax = Some(fw.argmax);
        self.input_shape = Some(input.shape().clone());
        Ok(fw.output)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        Ok(maxpool2d_forward(input, self.spec)?.output)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let argmax = self.argmax.as_ref().ok_or_else(|| missing_cache("MaxPool2d"))?;
        let shape = self
            .input_shape
            .as_ref()
            .ok_or_else(|| missing_cache("MaxPool2d"))?;
        maxpool2d_backward(grad_out, argmax, shape)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn describe(&self) -> String {
        format!(
            "maxpool({}x{}/s{})",
            self.spec.kernel_h, self.spec.kernel_w, self.spec.stride
        )
    }
}

/// Global average pooling: `[N, C, H, W] -> [N, C]`.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    input_shape: Option<Shape>,
}

impl GlobalAvgPool {
    /// Creates a global average-pool layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let out = self.infer(input)?;
        if mode == Mode::Train {
            self.input_shape = Some(input.shape().clone());
        }
        Ok(out)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        global_avgpool(input)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let shape = self
            .input_shape
            .as_ref()
            .ok_or_else(|| missing_cache("GlobalAvgPool"))?;
        global_avgpool_backward(grad_out, shape)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn describe(&self) -> String {
        "global_avgpool".into()
    }
}

/// Reshapes `[N, ...] -> [N, prod(...)]`.
#[derive(Debug, Default)]
pub struct Flatten {
    input_shape: Option<Shape>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if mode == Mode::Train {
            self.input_shape = Some(input.shape().clone());
        }
        self.infer(input)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        let n = input.dims().first().copied().unwrap_or(1);
        let inner: usize = input.dims().iter().skip(1).product();
        input.reshape([n, inner])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let shape = self
            .input_shape
            .as_ref()
            .ok_or_else(|| missing_cache("Flatten"))?;
        grad_out.reshape(shape.clone())
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn describe(&self) -> String {
        "flatten".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_layer_roundtrip() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::arange(16).reshape([1, 1, 4, 4]).unwrap();
        let y = pool.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        let g = pool.backward(&Tensor::ones([1, 1, 2, 2])).unwrap();
        assert_eq!(g.shape(), x.shape());
        assert_eq!(g.sum(), 4.0);
    }

    #[test]
    fn global_avgpool_gradcheck() {
        crate::gradcheck::check_layer(GlobalAvgPool::new, &[2, 3, 3, 3], 1e-2, 1e-2).unwrap();
    }

    #[test]
    fn flatten_roundtrip() {
        let mut fl = Flatten::new();
        let x = Tensor::arange(24).reshape([2, 3, 2, 2]).unwrap();
        let y = fl.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 12]);
        let g = fl.backward(&y).unwrap();
        assert_eq!(g.shape(), x.shape());
        assert_eq!(g.as_slice(), x.as_slice());
    }

    #[test]
    fn backward_before_forward_errors() {
        assert!(MaxPool2d::new(2).backward(&Tensor::ones([1])).is_err());
        assert!(GlobalAvgPool::new().backward(&Tensor::ones([1])).is_err());
        assert!(Flatten::new().backward(&Tensor::ones([1])).is_err());
    }

    #[test]
    fn describe_all() {
        assert!(MaxPool2d::new(2).describe().contains("maxpool"));
        assert_eq!(GlobalAvgPool::new().describe(), "global_avgpool");
        assert_eq!(Flatten::new().describe(), "flatten");
    }
}
