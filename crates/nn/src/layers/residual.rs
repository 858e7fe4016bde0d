//! Residual blocks (He et al. style) for the ResNet family.

use medsplit_tensor::{Result, Tensor};

use crate::layer::{missing_cache, Layer, Mode};
use crate::param::Param;
use crate::sequential::Sequential;

/// A residual block: `y = relu(main(x) + shortcut(x))`.
///
/// When `shortcut` is `None` the skip connection is the identity; a
/// projection `Sequential` (typically a strided 1×1 convolution plus batch
/// norm) handles shape changes between stages.
pub struct Residual {
    main: Sequential,
    shortcut: Option<Sequential>,
    /// Pre-activation sum cached for the ReLU derivative.
    cached_sum: Option<Tensor>,
}

impl Residual {
    /// Creates a residual block with an identity skip connection.
    pub fn new(main: Sequential) -> Self {
        Residual {
            main,
            shortcut: None,
            cached_sum: None,
        }
    }

    /// Creates a residual block with a projection skip connection.
    pub fn with_projection(main: Sequential, shortcut: Sequential) -> Self {
        Residual {
            main,
            shortcut: Some(shortcut),
            cached_sum: None,
        }
    }
}

impl Layer for Residual {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if mode == Mode::Eval {
            self.update_plans()?;
            return self.infer(input);
        }
        let m = self.main.forward(input, mode)?;
        let s = match &mut self.shortcut {
            Some(proj) => proj.forward(input, mode)?,
            None => input.clone(),
        };
        let sum = m.try_add(&s)?;
        let out = sum.map(|x| x.max(0.0));
        self.cached_sum = Some(sum);
        Ok(out)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        let m = self.main.infer(input)?;
        let s = match &self.shortcut {
            Some(proj) => proj.infer(input)?,
            None => input.clone(),
        };
        Ok(m.try_add(&s)?.map(|x| x.max(0.0)))
    }

    fn update_plans(&mut self) -> Result<()> {
        self.main.update_plans()?;
        match &mut self.shortcut {
            Some(proj) => proj.update_plans(),
            None => Ok(()),
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let sum = self
            .cached_sum
            .as_ref()
            .ok_or_else(|| missing_cache("Residual"))?;
        // ReLU derivative at the block output.
        let g_sum = sum.zip_map(grad_out, |s, g| if s > 0.0 { g } else { 0.0 })?;
        let g_main = self.main.backward(&g_sum)?;
        let g_short = match &mut self.shortcut {
            Some(proj) => proj.backward(&g_sum)?,
            None => g_sum,
        };
        g_main.try_add(&g_short)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.main.visit_params(f);
        if let Some(proj) = &mut self.shortcut {
            proj.visit_params(f);
        }
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.main.visit_state(f);
        if let Some(proj) = &mut self.shortcut {
            proj.visit_state(f);
        }
    }

    fn describe(&self) -> String {
        match &self.shortcut {
            Some(p) => format!("residual[{} | proj {}]", self.main.describe(), p.describe()),
            None => format!("residual[{}]", self.main.describe()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::conv2d::Conv2d;
    use crate::layers::dense::Dense;
    use medsplit_tensor::init::rng_from_seed;
    use medsplit_tensor::Conv2dSpec;

    fn dense_block(seed: u64) -> Residual {
        let mut rng = rng_from_seed(seed);
        let mut main = Sequential::new("main");
        main.push(Dense::new(4, 4, &mut rng));
        Residual::new(main)
    }

    #[test]
    fn identity_skip_passes_signal() {
        // Zero main path -> y = relu(x).
        let zero_w = Tensor::zeros([4, 4]);
        let zero_b = Tensor::zeros([4]);
        let mut main = Sequential::new("main");
        main.push(Dense::from_parts(zero_w, zero_b).unwrap());
        let mut block = Residual::new(main);
        let x = Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], [1, 4]).unwrap();
        let y = block.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn gradcheck_identity_skip() {
        crate::gradcheck::check_layer(|| dense_block(10), &[2, 4], 1e-2, 3e-2).unwrap();
    }

    #[test]
    fn gradcheck_projection_skip() {
        let make = || {
            let mut rng = rng_from_seed(11);
            let mut main = Sequential::new("main");
            main.push(Conv2d::new(2, 3, Conv2dSpec::square(3, 1, 1), &mut rng));
            let mut proj = Sequential::new("proj");
            proj.push(Conv2d::new(2, 3, Conv2dSpec::square(1, 1, 0), &mut rng));
            Residual::with_projection(main, proj)
        };
        crate::gradcheck::check_layer(make, &[1, 2, 4, 4], 1e-2, 3e-2).unwrap();
    }

    #[test]
    fn projection_handles_shape_change() {
        let mut rng = rng_from_seed(12);
        let mut main = Sequential::new("main");
        main.push(Conv2d::new(2, 4, Conv2dSpec::square(3, 2, 1), &mut rng));
        let mut proj = Sequential::new("proj");
        proj.push(Conv2d::new(2, 4, Conv2dSpec::square(1, 2, 0), &mut rng));
        let mut block = Residual::with_projection(main, proj);
        let x = Tensor::zeros([1, 2, 8, 8]);
        let y = block.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[1, 4, 4, 4]);
        let g = block.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert_eq!(g.dims(), &[1, 2, 8, 8]);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut block = dense_block(13);
        assert!(block.backward(&Tensor::ones([1, 4])).is_err());
    }

    #[test]
    fn param_visiting_covers_both_paths() {
        let mut rng = rng_from_seed(14);
        let mut main = Sequential::new("main");
        main.push(Dense::new(2, 2, &mut rng));
        let mut proj = Sequential::new("proj");
        proj.push(Dense::new(2, 2, &mut rng));
        let mut block = Residual::with_projection(main, proj);
        assert_eq!(block.param_count(), 2 * (2 * 2 + 2));
        assert!(block.describe().contains("proj"));
    }
}
