//! `Layer::backward_params` leaves exactly what `Layer::backward` leaves.
//!
//! The platform and the baseline trainers discard the input gradient of
//! the layer that sits on raw data, so they call the params-only
//! backward, which skips computing it. Skipping must be invisible to
//! everything that is kept: for `Conv2d`, `Dense`, a `Sequential` of
//! both and the `L1` halves of the VGG-lite and MLP models, two twins
//! driven through the same optimiser steps — one by `backward`, one by
//! `backward_params` — must hold bit-equal gradients before every step
//! and an equal `parameter_digest` after it. The call must fail before
//! a `forward` like `backward` does, keep the `conv_fwd` / `conv_bwd`
//! span names the benchmark counts convolutions by, and keep the scratch
//! arena silent after warm-up.
//!
//! The span collector, the enable flag and the scratch counters are
//! process-global, so every test here holds [`GLOBAL`].

use std::sync::Mutex;

use medsplit::nn::vectorize::{gradient_vector, parameter_digest};
use medsplit::nn::{
    Activation, Architecture, Conv2d, Dense, Flatten, Layer, MlpConfig, Mode, Optimizer, Sequential, Sgd,
    VggConfig,
};
use medsplit::telemetry;
use medsplit::tensor::init::rng_from_seed;
use medsplit::tensor::{pool, scratch, Conv2dSpec, Tensor};

static GLOBAL: Mutex<()> = Mutex::new(());

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Drives twins built by `make` through three momentum-SGD steps on
/// inputs of `dims`, one by `backward` and one by `backward_params`.
fn assert_twins_agree<L: Layer>(what: &str, make: impl Fn() -> L, dims: &[usize]) {
    let (mut full, mut params) = (make(), make());
    let mut opt_full = Sgd::new(0.05).with_momentum(0.9);
    let mut opt_params = Sgd::new(0.05).with_momentum(0.9);
    let mut rng = rng_from_seed(11);
    for step in 0..3 {
        let x = Tensor::rand_uniform(dims.to_vec(), -1.0, 1.0, &mut rng);
        let y = full.forward(&x, Mode::Train).unwrap();
        let y_params = params.forward(&x, Mode::Train).unwrap();
        assert_eq!(bits(&y), bits(&y_params), "{what}: forward, step {step}");
        let g = Tensor::rand_uniform(y.shape().clone(), -1.0, 1.0, &mut rng);
        let gx = full.backward(&g).unwrap();
        assert_eq!(gx.dims(), x.dims(), "{what}: input gradient shape");
        params.backward_params(&g).unwrap();
        assert_eq!(
            bits(&gradient_vector(&mut full)),
            bits(&gradient_vector(&mut params)),
            "{what}: accumulated gradients, step {step}"
        );
        opt_full.step_and_zero(&mut full);
        opt_params.step_and_zero(&mut params);
        assert_eq!(
            parameter_digest(&mut full),
            parameter_digest(&mut params),
            "{what}: parameter digest after step {step}"
        );
    }
}

fn conv_dense(seed: u64) -> Sequential {
    let mut rng = rng_from_seed(seed);
    let mut model = Sequential::new("conv-dense");
    model.push(Conv2d::new(2, 4, Conv2dSpec::square(3, 1, 1), &mut rng));
    model.push(Activation::relu());
    model.push(Flatten::new());
    model.push(Dense::new(4 * 6 * 6, 5, &mut rng));
    model
}

/// The platform half of `arch` at the paper's cut.
fn l1(arch: &Architecture) -> Sequential {
    let mut model = arch.build(5);
    let _server = model.split_off(arch.default_split());
    model
}

#[test]
fn same_gradients_and_same_parameters_after_the_step() {
    let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    for (spec, dims) in [
        (Conv2dSpec::square(3, 1, 1), [5, 2, 6, 6]),
        (Conv2dSpec::square(3, 2, 1), [3, 2, 7, 5]),
        (Conv2dSpec::square(1, 1, 0), [4, 2, 4, 4]),
        (Conv2dSpec::square(5, 1, 2), [9, 2, 8, 8]),
    ] {
        let make = || Conv2d::new(2, 3, spec, &mut rng_from_seed(3));
        assert_twins_agree(&format!("conv {spec:?}"), make, &dims);
    }
    assert_twins_agree("dense", || Dense::new(7, 4, &mut rng_from_seed(4)), &[6, 7]);
    assert_twins_agree("conv + dense", || conv_dense(6), &[5, 2, 6, 6]);
    let vgg = Architecture::Vgg(VggConfig::lite(10));
    assert_twins_agree("VGG-lite L1", || l1(&vgg), &[16, 3, 16, 16]);
    let mlp = Architecture::Mlp(MlpConfig {
        input_dim: 32,
        hidden: vec![128],
        num_classes: 3,
    });
    assert_twins_agree("MLP L1", || l1(&mlp), &[64, 32]);
}

#[test]
fn fails_before_forward_like_backward() {
    let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = rng_from_seed(0);
    let mut conv = Conv2d::new(1, 2, Conv2dSpec::square(3, 1, 1), &mut rng);
    assert!(conv.backward_params(&Tensor::ones([1, 2, 4, 4])).is_err());
    let mut dense = Dense::new(3, 2, &mut rng);
    assert!(dense.backward_params(&Tensor::ones([1, 2])).is_err());
    let mut model = conv_dense(1);
    assert!(model.backward_params(&Tensor::ones([1, 5])).is_err());
    // An evaluation forward caches nothing to backpropagate through.
    model.forward(&Tensor::ones([1, 2, 6, 6]), Mode::Eval).unwrap();
    assert!(model.backward_params(&Tensor::ones([1, 5])).is_err());
    // A gradient of the wrong shape is refused, not truncated.
    conv.forward(&Tensor::ones([1, 1, 4, 4]), Mode::Train).unwrap();
    assert!(conv.backward_params(&Tensor::ones([1, 2, 3, 3])).is_err());
    assert!(conv.backward_params(&Tensor::ones([1, 2, 4, 4])).is_ok());
    assert!(Sequential::new("empty")
        .backward_params(&Tensor::ones([1]))
        .is_ok());
}

#[test]
fn span_names_and_scratch_silence_are_kept() {
    let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    pool::set_num_threads(1);
    let vgg = Architecture::Vgg(VggConfig::lite(10));
    let mut model = l1(&vgg);
    let mut rng = rng_from_seed(9);
    let x = Tensor::rand_uniform([16, 3, 16, 16], -1.0, 1.0, &mut rng);
    let g = Tensor::rand_uniform([16, 8, 16, 16], -1.0, 1.0, &mut rng);
    let step = |model: &mut Sequential| {
        model.forward(&x, Mode::Train).unwrap();
        model.backward_params(&g).unwrap();
    };
    step(&mut model); // warm-up: the arena settles here

    let was_enabled = telemetry::enabled();
    telemetry::set_enabled(true);
    let _ = telemetry::drain_spans();
    let before = scratch::stats();
    for _ in 0..4 {
        step(&mut model);
    }
    let after = scratch::stats();
    let spans = telemetry::drain_spans();
    telemetry::set_enabled(was_enabled);

    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("conv_fwd"), 4, "one conv_fwd span per forward");
    assert_eq!(count("conv_bwd"), 4, "one conv_bwd span per params-only backward");
    assert_eq!(
        after.allocations, before.allocations,
        "the params-only step grew the scratch arena after warm-up"
    );
    assert!(after.acquisitions > before.acquisitions);
}
