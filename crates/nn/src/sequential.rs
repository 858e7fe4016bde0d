//! Sequential container and the split point used by the protocol.

use medsplit_tensor::{Result, Tensor};

use crate::layer::{Layer, Mode};
use crate::param::Param;

/// An ordered chain of layers, itself a [`Layer`].
///
/// `Sequential` is the unit of *splitting* in the medsplit protocol: a full
/// network is built once, then [`split_off`](Sequential::split_off)
/// separates the platform-side prefix (the paper's `L1`) from the
/// server-side suffix (`L2..Lk`).
///
/// ```
/// use medsplit_nn::{Activation, Dense, Layer, Mode, Sequential};
/// use medsplit_tensor::{init, Tensor};
///
/// let mut rng = init::rng_from_seed(0);
/// let mut model = Sequential::new("mlp");
/// model.push(Dense::new(4, 8, &mut rng));
/// model.push(Activation::relu());
/// model.push(Dense::new(8, 2, &mut rng));
///
/// let server_part = model.split_off(2); // model keeps dense+relu
/// assert_eq!(model.len(), 2);
/// assert_eq!(server_part.len(), 1);
/// ```
pub struct Sequential {
    name: String,
    layers: Vec<Box<dyn Layer>>,
    /// Mode of the most recent forward pass (defaults to [`Mode::Train`]).
    mode: Mode,
}

impl Sequential {
    /// Creates an empty container.
    pub fn new(name: impl Into<String>) -> Self {
        Sequential {
            name: name.into(),
            layers: Vec::new(),
            mode: Mode::Train,
        }
    }

    /// The mode of the most recent [`forward`](Layer::forward) call
    /// ([`Mode::Train`] before any forward has run). The shared
    /// inference entry, [`infer`](Layer::infer), records none.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Appends a layer. Returns `&mut self` for chaining.
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The container's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Splits the network at layer index `at`: `self` keeps layers
    /// `[0, at)` and the returned network owns `[at, len)`.
    ///
    /// This is the cut of the split-learning protocol — `at == 1` (after
    /// the first hidden layer block) reproduces the paper's placement.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_off(&mut self, at: usize) -> Sequential {
        assert!(
            at <= self.layers.len(),
            "split index {at} exceeds {} layers",
            self.layers.len()
        );
        let tail = self.layers.split_off(at);
        Sequential {
            name: format!("{}[{}..]", self.name, at),
            layers: tail,
            mode: self.mode,
        }
    }

    /// Per-layer descriptions, in order.
    pub fn layer_summaries(&self) -> Vec<String> {
        self.layers.iter().map(|l| l.describe()).collect()
    }
}

impl Layer for Sequential {
    // The first layer reads the caller's tensor directly; only an empty
    // container hands back a copy of its input.

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        self.mode = mode;
        if mode == Mode::Eval {
            self.update_plans()?;
            return self.infer(input);
        }
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(input.clone());
        };
        let mut x = first.forward(input, mode)?;
        for layer in rest {
            x = layer.forward(&x, mode)?;
        }
        Ok(x)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        let Some((first, rest)) = self.layers.split_first() else {
            return Ok(input.clone());
        };
        let mut x = first.infer(input)?;
        for layer in rest {
            x = layer.infer(&x)?;
        }
        Ok(x)
    }

    fn update_plans(&mut self) -> Result<()> {
        self.layers.iter_mut().try_for_each(|layer| layer.update_plans())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let Some((last, rest)) = self.layers.split_last_mut() else {
            return Ok(grad_out.clone());
        };
        let mut g = last.backward(grad_out)?;
        for layer in rest.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(());
        };
        let Some((last, middle)) = rest.split_last_mut() else {
            return first.backward_params(grad_out);
        };
        let mut g = last.backward(grad_out)?;
        for layer in middle.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        first.backward_params(&g)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_state(f);
        }
    }

    fn describe(&self) -> String {
        format!("{}[{}]", self.name, self.layer_summaries().join(" -> "))
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("name", &self.name)
            .field("layers", &self.layer_summaries())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::activation::Activation;
    use crate::layers::dense::Dense;
    use medsplit_tensor::init::rng_from_seed;

    fn mlp(seed: u64) -> Sequential {
        let mut rng = rng_from_seed(seed);
        let mut s = Sequential::new("mlp");
        s.push(Dense::new(4, 8, &mut rng));
        s.push(Activation::relu());
        s.push(Dense::new(8, 3, &mut rng));
        s
    }

    #[test]
    fn forward_chains_layers() {
        let mut m = mlp(0);
        let x = Tensor::ones([2, 4]);
        let y = m.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
    }

    #[test]
    fn backward_returns_input_gradient() {
        let mut m = mlp(1);
        let x = Tensor::ones([2, 4]);
        let y = m.forward(&x, Mode::Train).unwrap();
        let g = m.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert_eq!(g.dims(), &[2, 4]);
    }

    #[test]
    fn split_preserves_function() {
        // full(x) == server(client(x)) when split anywhere.
        for at in 0..=3 {
            let mut full = mlp(2);
            let mut client = mlp(2);
            let mut server = client.split_off(at);
            let x = Tensor::from_vec((0..8).map(|i| i as f32 * 0.1).collect(), [2, 4]).unwrap();
            let direct = full.forward(&x, Mode::Eval).unwrap();
            let mid = client.forward(&x, Mode::Eval).unwrap();
            let composed = server.forward(&mid, Mode::Eval).unwrap();
            assert!(direct.allclose(&composed, 1e-6), "split at {at} changed function");
        }
    }

    #[test]
    fn split_backward_composes() {
        let mut full = mlp(3);
        let mut client = mlp(3);
        let mut server = client.split_off(1);
        let x = Tensor::from_vec((0..8).map(|i| (i as f32 - 4.0) * 0.3).collect(), [2, 4]).unwrap();

        let y_full = full.forward(&x, Mode::Train).unwrap();
        let g_out = Tensor::ones(y_full.shape().clone());
        let g_full = full.backward(&g_out).unwrap();

        let acts = client.forward(&x, Mode::Train).unwrap();
        let _ = server.forward(&acts, Mode::Train).unwrap();
        let g_cut = server.backward(&g_out).unwrap();
        let g_split = client.backward(&g_cut).unwrap();

        assert!(g_full.allclose(&g_split, 1e-5));
    }

    #[test]
    fn param_count_sums_layers() {
        let mut m = mlp(4);
        assert_eq!(m.param_count(), (4 * 8 + 8) + (8 * 3 + 3));
        let server = m.split_off(2);
        let mut server = server;
        assert_eq!(m.param_count(), 4 * 8 + 8);
        assert_eq!(server.param_count(), 8 * 3 + 3);
    }

    #[test]
    #[should_panic(expected = "split index")]
    fn split_out_of_range_panics() {
        let mut m = mlp(5);
        let _ = m.split_off(9);
    }

    #[test]
    fn describe_and_debug() {
        let m = mlp(6);
        assert!(m.describe().contains("dense(4->8)"));
        assert!(format!("{m:?}").contains("mlp"));
        assert_eq!(m.layer_summaries().len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn mode_tracks_last_forward() {
        let mut m = mlp(8);
        assert_eq!(m.mode(), Mode::Train);
        m.forward(&Tensor::ones([1, 4]), Mode::Eval).unwrap();
        assert_eq!(m.mode(), Mode::Eval);
        m.forward(&Tensor::ones([1, 4]), Mode::Train).unwrap();
        assert_eq!(m.mode(), Mode::Train);
        m.forward(&Tensor::ones([1, 4]), Mode::Eval).unwrap();
        assert_eq!(m.mode(), Mode::Eval);
        // split_off inherits the recorded mode.
        let tail = m.split_off(1);
        assert_eq!(tail.mode(), Mode::Eval);
    }

    #[test]
    fn zero_grads_resets_all() {
        let mut m = mlp(7);
        let x = Tensor::ones([1, 4]);
        let y = m.forward(&x, Mode::Train).unwrap();
        m.backward(&Tensor::ones(y.shape().clone())).unwrap();
        let mut nonzero = 0;
        m.visit_params(&mut |p| {
            if p.grad.norm_sq() > 0.0 {
                nonzero += 1;
            }
        });
        assert!(nonzero > 0);
        m.zero_grads();
        m.visit_params(&mut |p| assert_eq!(p.grad.norm_sq(), 0.0));
    }
}
