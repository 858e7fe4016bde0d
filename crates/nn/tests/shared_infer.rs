//! The shared inference entry, [`Layer::infer`], against the eval forward
//! it stands for.
//!
//! For every layer kind, and a `Sequential` of them, `infer(x)` must equal
//! `forward(x, Mode::Eval)` bit for bit with the execution plan never
//! built, current, and stale (the weight moved after the plan was packed,
//! so the entry runs the unplanned kernel). Inputs are full-mantissa
//! values, so a reordered sum shows.
//!
//! The entry must also leave training state alone. Two twins take the
//! same training forward; one of them then runs `infer` on other data.
//! Both must give the same backward (input and parameter gradients), the
//! same running statistics, the same next training forward and, for
//! `Sequential`, the same recorded mode.

use medsplit_nn::{
    Activation, BatchNorm, Conv2d, Dense, Flatten, GlobalAvgPool, Layer, MaxPool2d, Mode, Residual,
    Sequential,
};
use medsplit_tensor::init::rng_from_seed;
use medsplit_tensor::{Conv2dSpec, Result, Tensor};

/// A tensor's dims and element bits.
fn bits(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
    (
        t.dims().to_vec(),
        t.as_slice().iter().map(|v| v.to_bits()).collect(),
    )
}

fn same(case: &str, what: &str, got: Result<Tensor>, want: Result<Tensor>) {
    let (got, want) = (got.expect("infer"), want.expect("forward"));
    assert_eq!(bits(&got), bits(&want), "{case}: {what}");
}

/// Full-mantissa values in [-2, 2).
fn data(dims: &[usize], seed: u64) -> Tensor {
    Tensor::rand_uniform(dims.to_vec(), -2.0, 2.0, &mut rng_from_seed(seed))
}

/// Moves every parameter, bumping its version, so a cached plan goes
/// stale.
fn nudge(layer: &mut dyn Layer) {
    layer.visit_params(&mut |p| {
        p.value = p.value.map(|v| v * 0.75 + 0.125);
        p.bump_version();
    });
}

/// Every parameter gradient and state tensor, in visiting order.
fn state(layer: &mut dyn Layer) -> Vec<(Vec<usize>, Vec<u32>)> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push(bits(&p.grad)));
    layer.visit_state(&mut |t| out.push(bits(t)));
    out
}

/// Runs every check on the layer `build` makes, over inputs of `dims`.
fn check(case: &str, build: fn() -> Box<dyn Layer>, dims: &[usize]) {
    let x = data(dims, 1);

    // Never planned: a fresh layer's entry against a fresh twin's forward.
    let fresh = build();
    same(
        case,
        "never planned",
        fresh.infer(&x),
        build().forward(&x, Mode::Eval),
    );

    // After a training step the plan is current; nudging the weights
    // makes it stale, and the entry must not care.
    let mut layer = build();
    let y = layer.forward(&data(dims, 2), Mode::Train).expect("train forward");
    layer.backward(&data(y.dims(), 3)).expect("backward");
    let want = layer.forward(&x, Mode::Eval);
    same(case, "plan current", layer.infer(&x), want);
    nudge(layer.as_mut());
    let got = layer.infer(&x);
    same(case, "plan stale", got, layer.forward(&x, Mode::Eval));

    // Training state: twin `b` runs the entry between its training
    // forward and its backward, twin `a` does not.
    let (mut a, mut b) = (build(), build());
    let train = data(dims, 4);
    let ya = a.forward(&train, Mode::Train).expect("train forward");
    let yb = b.forward(&train, Mode::Train).expect("train forward");
    b.infer(&data(dims, 5)).expect("infer");
    let g = data(ya.dims(), 6);
    same(case, "backward", b.backward(&g), a.backward(&g));
    assert_eq!(state(b.as_mut()), state(a.as_mut()), "{case}: gradients or state");
    assert_eq!(bits(&yb), bits(&ya), "{case}: twin forwards");
    let next = data(dims, 7);
    same(
        case,
        "next training forward",
        b.forward(&next, Mode::Train),
        a.forward(&next, Mode::Train),
    );
}

fn conv(i: usize, o: usize, seed: u64) -> Conv2d {
    Conv2d::new(i, o, Conv2dSpec::square(3, 1, 1), &mut rng_from_seed(seed))
}

fn net() -> Sequential {
    let mut s = Sequential::new("all");
    s.push(conv(3, 4, 10))
        .push(BatchNorm::new(4))
        .push(Activation::relu())
        .push(MaxPool2d::new(2))
        .push(conv(4, 4, 11))
        .push(BatchNorm::new(4))
        .push(Activation::relu())
        .push(MaxPool2d::new(2))
        .push(Flatten::new())
        .push(Dense::new(16, 8, &mut rng_from_seed(13)))
        .push(Activation::relu())
        .push(Dense::new(8, 3, &mut rng_from_seed(14)));
    s
}

#[test]
fn dense() {
    check(
        "dense",
        || Box::new(Dense::new(7, 5, &mut rng_from_seed(1))),
        &[6, 7],
    );
}

#[test]
fn conv2d() {
    check("conv2d", || Box::new(conv(3, 5, 2)), &[2, 3, 7, 7]);
}

#[test]
fn batchnorm_2d_and_4d() {
    check("batchnorm 2-D", || Box::new(BatchNorm::new(5)), &[6, 5]);
    check("batchnorm 4-D", || Box::new(BatchNorm::new(3)), &[2, 3, 5, 5]);
}

#[test]
fn every_activation_kind() {
    check("relu", || Box::new(Activation::relu()), &[4, 9]);
}

#[test]
fn pools_and_flatten() {
    check("maxpool", || Box::new(MaxPool2d::new(2)), &[2, 3, 6, 6]);
    check("global avgpool", || Box::new(GlobalAvgPool::new()), &[2, 3, 5, 5]);
    check("flatten", || Box::new(Flatten::new()), &[2, 3, 4, 4]);
}

#[test]
fn residual_blocks() {
    check(
        "residual, identity skip",
        || {
            let mut main = Sequential::new("main");
            main.push(Dense::new(6, 6, &mut rng_from_seed(3)));
            Box::new(Residual::new(main))
        },
        &[3, 6],
    );
    check(
        "residual, projection",
        || {
            let mut main = Sequential::new("main");
            main.push(conv(3, 4, 4))
                .push(BatchNorm::new(4))
                .push(Activation::relu());
            let mut proj = Sequential::new("proj");
            proj.push(Conv2d::new(
                3,
                4,
                Conv2dSpec::square(1, 1, 0),
                &mut rng_from_seed(5),
            ))
            .push(BatchNorm::new(4));
            Box::new(Residual::with_projection(main, proj))
        },
        &[2, 3, 6, 6],
    );
}

#[test]
fn sequential_of_every_kind() {
    check("sequential", || Box::new(net()), &[2, 3, 8, 8]);
    // The entry records no mode: a model whose last forward trained
    // still reads as training afterwards.
    let mut s = net();
    s.forward(&data(&[2, 3, 8, 8], 8), Mode::Train).unwrap();
    s.infer(&data(&[2, 3, 8, 8], 9)).unwrap();
    assert_eq!(s.mode(), Mode::Train);
}
