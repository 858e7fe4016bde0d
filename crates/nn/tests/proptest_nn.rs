//! Property-based tests for the neural-network layer library.

use medsplit_nn::vectorize::{parameter_vector, set_parameter_vector};
use medsplit_nn::{softmax_cross_entropy, Activation, Dense, Layer, LrSchedule, MlpConfig, Mode};
use medsplit_tensor::{init::rng_from_seed, Tensor};
use proptest::prelude::*;

proptest! {
    /// Random dense layers pass the numerical gradient check.
    #[test]
    fn dense_gradcheck_random_sizes(inputs in 1usize..6, outputs in 1usize..6, batch in 1usize..4, seed in 0u64..500) {
        let make = move || {
            let mut rng = rng_from_seed(seed);
            Dense::new(inputs, outputs, &mut rng)
        };
        medsplit_nn::gradcheck::check_layer(make, &[batch, inputs], 1e-2, 3e-2).unwrap();
    }

    /// The activation (ReLU) passes the gradient check (away from its
    /// kink).
    #[test]
    fn activation_gradcheck(batch in 1usize..4, width in 1usize..6) {
        medsplit_nn::gradcheck::check_layer(Activation::relu, &[batch, width], 1e-3, 2e-2).unwrap();
    }

    /// Cross-entropy loss is non-negative, and its gradient rows sum to ~0.
    #[test]
    fn cross_entropy_invariants(batch in 1usize..6, classes in 2usize..8, seed in 0u64..500) {
        let mut rng = rng_from_seed(seed);
        let logits = Tensor::rand_uniform([batch, classes], -5.0, 5.0, &mut rng);
        let labels: Vec<usize> = (0..batch).map(|i| (i * 7 + seed as usize) % classes).collect();
        let out = softmax_cross_entropy(&logits, &labels).unwrap();
        prop_assert!(out.loss >= 0.0);
        for i in 0..batch {
            let s: f32 = out.grad.row(i).unwrap().sum();
            prop_assert!(s.abs() < 1e-5, "row {} sums to {}", i, s);
        }
        // Loss ≤ worst case: -(min logit - max logit) + ln K.
        let bound = (logits.max() - logits.min()) + (classes as f32).ln();
        prop_assert!(out.loss <= bound + 1e-4);
    }

    /// Splitting an MLP at any interior index preserves the function.
    #[test]
    fn split_anywhere_preserves_function(h1 in 1usize..8, h2 in 1usize..8, at_sel in 0usize..5, seed in 0u64..500) {
        let cfg = MlpConfig { input_dim: 3, hidden: vec![h1, h2], num_classes: 2 };
        let mut full = cfg.build(seed);
        let n_layers = full.len();
        let at = 1 + at_sel % (n_layers - 1);
        let mut client = cfg.build(seed);
        let mut server = client.split_off(at);
        let mut rng = rng_from_seed(seed);
        let x = Tensor::rand_uniform([2, 3], -1.0, 1.0, &mut rng);
        let direct = full.forward(&x, Mode::Eval).unwrap();
        let composed = server.forward(&client.forward(&x, Mode::Eval).unwrap(), Mode::Eval).unwrap();
        prop_assert!(direct.allclose(&composed, 1e-5));
    }

    /// Parameter-vector transfer moves the exact function between replicas.
    #[test]
    fn parameter_transfer_is_exact(h in 1usize..10, seed_a in 0u64..200, seed_b in 200u64..400) {
        let cfg = MlpConfig { input_dim: 4, hidden: vec![h], num_classes: 3 };
        let mut a = cfg.build(seed_a);
        let mut b = cfg.build(seed_b);
        let v = parameter_vector(&mut a);
        set_parameter_vector(&mut b, &v).unwrap();
        let mut rng = rng_from_seed(seed_a ^ seed_b);
        let x = Tensor::rand_uniform([3, 4], -2.0, 2.0, &mut rng);
        let ya = a.forward(&x, Mode::Eval).unwrap();
        let yb = b.forward(&x, Mode::Eval).unwrap();
        prop_assert_eq!(ya, yb);
    }

    /// LR schedules never produce negative rates and respect their base.
    #[test]
    fn schedules_are_sane(base in 0.001f32..1.0, step in 0usize..10_000) {
        for schedule in [
            LrSchedule::Constant(base),
            LrSchedule::StepDecay { base, step_size: 100, gamma: 0.5 },
        ] {
            let lr = schedule.lr_at(step);
            prop_assert!(lr >= 0.0, "{schedule:?} gave {lr}");
            prop_assert!(lr <= base * 1.0001, "{schedule:?} exceeded base: {lr}");
        }
    }

    /// One SGD step on a random model strictly decreases a local
    /// quadratic-ish objective for a small enough learning rate.
    #[test]
    fn sgd_step_decreases_loss(seed in 0u64..300) {
        use medsplit_nn::{Optimizer, Sgd};
        let cfg = MlpConfig { input_dim: 5, hidden: vec![8], num_classes: 3 };
        let mut model = cfg.build(seed);
        let mut rng = rng_from_seed(seed);
        let x = Tensor::rand_uniform([6, 5], -1.0, 1.0, &mut rng);
        let labels = [0usize, 1, 2, 0, 1, 2];
        let out1 = softmax_cross_entropy(&model.forward(&x, Mode::Train).unwrap(), &labels).unwrap();
        model.backward(&out1.grad).unwrap();
        Sgd::new(0.01).step_and_zero(&mut model);
        let out2 = softmax_cross_entropy(&model.forward(&x, Mode::Train).unwrap(), &labels).unwrap();
        prop_assert!(out2.loss <= out1.loss + 1e-5, "{} -> {}", out1.loss, out2.loss);
    }
}

/// Sequential backward after a fresh forward always matches shapes.
#[test]
fn backward_shape_contract() {
    let cfg = MlpConfig {
        input_dim: 7,
        hidden: vec![5, 3],
        num_classes: 2,
    };
    let mut model = cfg.build(0);
    let x = Tensor::zeros([4, 7]);
    let y = model.forward(&x, Mode::Train).unwrap();
    let g = model.backward(&Tensor::ones(y.shape().clone())).unwrap();
    assert_eq!(g.shape(), x.shape());
}
