//! Numerical gradient checking for layers.
//!
//! Used pervasively by the test suite: every layer's analytic backward pass
//! is validated against central finite differences of its forward pass.

use medsplit_tensor::{Shape, Tensor};

use crate::layer::{Layer, Mode};

/// Deterministic pseudo-random values (no RNG state needed) used for the
/// probe input and the loss mask.
fn probe_values(len: usize, salt: u32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u32)
                .wrapping_mul(2654435761)
                .wrapping_add(salt.wrapping_mul(97003));
            ((h % 2000) as f32) / 1000.0 - 1.0
        })
        .collect()
}

/// Checks a layer's analytic gradients against central finite differences.
///
/// `make` must build a *fresh but identical* layer each call (same
/// parameter values); gradient checking evaluates the forward pass many
/// times and layers cache state.
///
/// The scalar loss is `dot(forward(x), mask)` for a fixed pseudo-random
/// `mask`, so the upstream gradient fed to `backward` is exactly `mask`.
/// Both the input gradient and every parameter gradient are compared at up
/// to `MAX_COORDS` coordinates each.
///
/// # Errors
///
/// Returns a human-readable description of the first mismatch, or of any
/// forward/backward failure.
pub fn check_layer<L: Layer>(
    make: impl Fn() -> L,
    input_dims: &[usize],
    eps: f32,
    tol: f32,
) -> Result<(), String> {
    const MAX_COORDS: usize = 24;

    let shape = Shape::from(input_dims);
    let x = Tensor::from_vec(probe_values(shape.numel(), 1), shape.clone()).map_err(|e| e.to_string())?;

    // Analytic pass.
    let mut layer = make();
    let y = layer
        .forward(&x, Mode::Train)
        .map_err(|e| format!("forward failed: {e}"))?;
    let mask = Tensor::from_vec(probe_values(y.numel(), 2), y.shape().clone()).map_err(|e| e.to_string())?;
    let gx = layer
        .backward(&mask)
        .map_err(|e| format!("backward failed: {e}"))?;
    let mut param_grads: Vec<(String, Vec<f32>)> = Vec::new();
    layer.visit_params(&mut |p| param_grads.push((p.name.clone(), p.grad.as_slice().to_vec())));

    // Loss evaluated with a fresh layer (so caches/running stats can't leak
    // between evaluations). `perturb` optionally shifts one parameter
    // coordinate: (param_index, coord, delta).
    let loss = |input: &Tensor, perturb: Option<(usize, usize, f32)>| -> Result<f32, String> {
        let mut l = make();
        if let Some((pi, ci, delta)) = perturb {
            let mut idx = 0;
            l.visit_params(&mut |p| {
                if idx == pi {
                    p.value.as_mut_slice()[ci] += delta;
                    p.bump_version();
                }
                idx += 1;
            });
        }
        let out = l.forward(input, Mode::Train).map_err(|e| e.to_string())?;
        out.dot(&mask).map_err(|e| e.to_string())
    };

    let coords = |n: usize| -> Vec<usize> {
        if n <= MAX_COORDS {
            (0..n).collect()
        } else {
            let stride = n / MAX_COORDS;
            (0..MAX_COORDS).map(|i| i * stride).collect()
        }
    };

    // Input gradient check.
    for ci in coords(x.numel()) {
        let mut xp = x.clone();
        xp.as_mut_slice()[ci] += eps;
        let mut xm = x.clone();
        xm.as_mut_slice()[ci] -= eps;
        let num = (loss(&xp, None)? - loss(&xm, None)?) / (2.0 * eps);
        let ana = gx.as_slice()[ci];
        if (num - ana).abs() > tol * (1.0 + num.abs().max(ana.abs())) {
            return Err(format!(
                "input grad mismatch at {ci}: numerical {num} vs analytic {ana}"
            ));
        }
    }

    // Parameter gradient checks.
    for (pi, (name, grads)) in param_grads.iter().enumerate() {
        for ci in coords(grads.len()) {
            let num = (loss(&x, Some((pi, ci, eps)))? - loss(&x, Some((pi, ci, -eps)))?) / (2.0 * eps);
            let ana = grads[ci];
            if (num - ana).abs() > tol * (1.0 + num.abs().max(ana.abs())) {
                return Err(format!(
                    "param `{name}` grad mismatch at {ci}: numerical {num} vs analytic {ana}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;
    use medsplit_tensor::Result as TResult;

    /// Correct layer: y = 3x.
    struct Triple;
    impl Layer for Triple {
        fn forward(&mut self, input: &Tensor, _m: Mode) -> TResult<Tensor> {
            self.infer(input)
        }
        fn infer(&self, input: &Tensor) -> TResult<Tensor> {
            Ok(input.scale(3.0))
        }
        fn backward(&mut self, g: &Tensor) -> TResult<Tensor> {
            Ok(g.scale(3.0))
        }
        fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
        fn describe(&self) -> String {
            "triple".into()
        }
    }

    /// Buggy layer: forward is 3x but backward claims 2x.
    struct WrongGrad;
    impl Layer for WrongGrad {
        fn forward(&mut self, input: &Tensor, _m: Mode) -> TResult<Tensor> {
            self.infer(input)
        }
        fn infer(&self, input: &Tensor) -> TResult<Tensor> {
            Ok(input.scale(3.0))
        }
        fn backward(&mut self, g: &Tensor) -> TResult<Tensor> {
            Ok(g.scale(2.0))
        }
        fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
        fn describe(&self) -> String {
            "wrong".into()
        }
    }

    #[test]
    fn accepts_correct_layer() {
        check_layer(|| Triple, &[3, 4], 1e-3, 1e-3).unwrap();
    }

    #[test]
    fn rejects_wrong_gradient() {
        let err = check_layer(|| WrongGrad, &[2, 2], 1e-3, 1e-3).unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
    }

    #[test]
    fn probe_values_deterministic_and_varied() {
        let a = probe_values(100, 1);
        let b = probe_values(100, 1);
        assert_eq!(a, b);
        let c = probe_values(100, 2);
        assert_ne!(a, c);
        assert!(a.iter().all(|v| (-1.0..=1.0).contains(v)));
    }
}
