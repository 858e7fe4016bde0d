//! Planned (cached-panel) execution is bit-identical to the direct path.
//!
//! The plan cache prepacks weight panels once and reuses them across
//! calls, and planned GEMMs split rows into shape-derived panels where
//! the per-call driver uses a fixed one. None of that may change result
//! bits: every
//! output element still streams the full depth range in ascending order
//! through the same fused microkernels. These tests pin the guarantee
//! for dense and conv, forward and backward, across `MEDSPLIT_ISA`
//! settings and pool sizes, and across optimizer-update invalidations
//! (a repacked plan must match the direct path on the *updated*
//! weights).
//!
//! `pool::set_num_threads` and `simd::set_isa` are process-global and
//! the test harness runs tests concurrently, so every test here
//! serialises on [`POOL_LOCK`] and restores one thread / the detected
//! ISA before releasing it.

use std::sync::Mutex;

use medsplit::nn::{Dense, Layer, Mode, Optimizer, Sgd};
use medsplit_tensor::ops::conv::{
    conv2d_backward, conv2d_backward_planned, conv2d_forward, conv2d_forward_planned, Conv2dSpec,
};
use medsplit_tensor::{init::rng_from_seed, pool, simd, ConvPlan, GemmPlan, Tensor};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Serialises every test that changes the global pool size or ISA.
static POOL_LOCK: Mutex<()> = Mutex::new(());

/// Runs `body` once under the portable scalar ISA and once under the
/// auto-detected one, restoring detection afterwards; returns both
/// results for exact comparison.
fn with_isas<R>(mut body: impl FnMut() -> R) -> (R, R) {
    let _guard = POOL_LOCK.lock().unwrap();
    assert!(simd::set_isa(simd::Isa::Scalar));
    let scalar = body();
    assert!(simd::set_isa(simd::detect()));
    let native = body();
    (scalar, native)
}

/// Runs `body` once per pool size, restoring a single thread afterwards.
fn with_thread_counts<R>(counts: &[usize], mut body: impl FnMut(usize) -> R) -> Vec<R> {
    let _guard = POOL_LOCK.lock().unwrap();
    let out = counts
        .iter()
        .map(|&t| {
            pool::set_num_threads(t);
            body(t)
        })
        .collect();
    pool::set_num_threads(1);
    out
}

/// Dense shape sweep crossing the MR=6 / NR=16 tile boundaries.
fn dense_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    const INTERESTING: [usize; 10] = [1, 2, 5, 6, 7, 15, 16, 17, 33, 64];
    fn dim() -> impl Strategy<Value = usize> {
        (0usize..INTERESTING.len()).prop_map(|i| INTERESTING[i])
    }
    (dim(), dim(), dim())
}

/// Planned dense forward (`x·Wᵀ`) and backward (`g·W`) against the
/// direct tensor ops, for one shape, at the current pool/ISA setting.
fn planned_vs_direct_dense(m: usize, k: usize, n: usize) -> [(Tensor, Tensor); 2] {
    let mut rng = rng_from_seed((m * 1_000_003 + k * 1009 + n) as u64);
    let w = Tensor::rand_uniform([n, k], -2.0, 2.0, &mut rng);
    let x = Tensor::rand_uniform([m, k], -2.0, 2.0, &mut rng);
    let g = Tensor::rand_uniform([m, n], -2.0, 2.0, &mut rng);
    let mut slot = None;
    let plan = GemmPlan::ensure(&mut slot, &w, 0).unwrap();
    let fwd = (plan.matmul_nt(&x).unwrap(), x.matmul_nt(&w).unwrap());
    let bwd = (plan.matmul_nn(&g, &w).unwrap(), g.matmul(&w).unwrap());
    [fwd, bwd]
}

/// Planned dense forward/backward is bit-identical to the direct path
/// across pool sizes (1, 2, and a deliberately odd 7).
fn check_dense_across_thread_counts(m: usize, k: usize, n: usize) -> Result<(), TestCaseError> {
    let runs = with_thread_counts(&[1, 2, 7], |_| planned_vs_direct_dense(m, k, n));
    for run in &runs {
        for (planned, direct) in run {
            prop_assert_eq!(planned.as_slice(), direct.as_slice());
        }
    }
    // And across thread counts: run 0 is the reference.
    for run in &runs[1..] {
        for (pair, reference) in run.iter().zip(&runs[0]) {
            prop_assert_eq!(pair.0.as_slice(), reference.0.as_slice());
        }
    }
    Ok(())
}

/// Planned dense forward/backward is bit-identical to the direct path
/// under both the scalar and the auto-detected ISA, and the two ISAs
/// agree with each other.
fn check_dense_across_isas(m: usize, k: usize, n: usize) -> Result<(), TestCaseError> {
    let (scalar, native) = with_isas(|| planned_vs_direct_dense(m, k, n));
    for run in [&scalar, &native] {
        for (planned, direct) in run {
            prop_assert_eq!(planned.as_slice(), direct.as_slice());
        }
    }
    for (s, n) in scalar.iter().zip(&native) {
        prop_assert_eq!(s.0.as_slice(), n.0.as_slice());
    }
    Ok(())
}

proptest! {
    #[test]
    fn planned_dense_bit_identical_across_thread_counts((m, k, n) in dense_dims()) {
        check_dense_across_thread_counts(m, k, n)?;
    }

    #[test]
    fn planned_dense_bit_identical_across_isas((m, k, n) in dense_dims()) {
        check_dense_across_isas(m, k, n)?;
    }
}

/// `dense_dims` tops out at 64, inside one depth block (320) and the
/// direct path's one 66-row panel. These shapes cross both: two depth
/// blocks with a second row panel, and three depth blocks under a single
/// short panel.
#[test]
fn planned_dense_bit_identical_across_block_boundaries() {
    for (m, k, n) in [(67, 321, 33), (7, 641, 17)] {
        for check in [check_dense_across_thread_counts, check_dense_across_isas] {
            if let Err(e) = check(m, k, n) {
                panic!("{m}x{k}x{n}: {e}");
            }
        }
    }
}

/// Conv shape sweep: channel/spatial sizes crossing the NR tile
/// boundary of the patch dimension, stride 1 and 2, with padding.
fn conv_cases() -> impl Strategy<Value = (usize, usize, usize, usize, usize, usize)> {
    // (batch, in_ch, hw, out_ch, stride, kernel)
    (1usize..3, 1usize..4, 4usize..9, 1usize..5, 1usize..3, 2usize..4)
}

/// Planned conv forward + backward against the direct path for one
/// case; returns (forward, dx, dw, db) pairs of (planned, direct).
#[allow(clippy::type_complexity)]
fn planned_vs_direct_conv(
    n: usize,
    c: usize,
    hw: usize,
    o: usize,
    stride: usize,
    kernel: usize,
) -> Vec<(Tensor, Tensor)> {
    let spec = Conv2dSpec::square(kernel, stride, 1);
    let mut rng = rng_from_seed((n * 31 + c * 311 + hw * 3001 + o * 13 + stride) as u64);
    let x = Tensor::rand_uniform([n, c, hw, hw], -1.0, 1.0, &mut rng);
    let w = Tensor::rand_uniform([o, c, kernel, kernel], -1.0, 1.0, &mut rng);
    let bias = Tensor::rand_uniform([o], -0.5, 0.5, &mut rng);
    let mut slot = None;
    let plan = ConvPlan::ensure(&mut slot, &w, spec, 0).unwrap();
    let fwd_p = conv2d_forward_planned(&x, plan, Some(&bias)).unwrap();
    let fwd_d = conv2d_forward(&x, &w, Some(&bias), spec).unwrap();
    let g = Tensor::rand_uniform(fwd_d.shape().clone(), -1.0, 1.0, &mut rng);
    let (dx_p, dw_p, db_p) = conv2d_backward_planned(&x, &w, &g, plan).unwrap();
    let (dx_d, dw_d, db_d) = conv2d_backward(&x, &w, &g, spec).unwrap();
    vec![(fwd_p, fwd_d), (dx_p, dx_d), (dw_p, dw_d), (db_p, db_d)]
}

proptest! {
    /// Planned conv forward and all three backward gradients are
    /// bit-identical to the direct path across pool sizes.
    #[test]
    fn planned_conv_bit_identical_across_thread_counts(
        (n, c, hw, o, stride, kernel) in conv_cases()
    ) {
        let runs = with_thread_counts(&[1, 2, 7], |_| {
            planned_vs_direct_conv(n, c, hw, o, stride, kernel)
        });
        for run in &runs {
            for (planned, direct) in run {
                prop_assert_eq!(planned.as_slice(), direct.as_slice());
            }
        }
        for run in &runs[1..] {
            for (pair, reference) in run.iter().zip(&runs[0]) {
                prop_assert_eq!(pair.0.as_slice(), reference.0.as_slice());
            }
        }
    }

    /// Planned conv is bit-identical to the direct path under both ISAs.
    #[test]
    fn planned_conv_bit_identical_across_isas(
        (n, c, hw, o, stride, kernel) in conv_cases()
    ) {
        let (scalar, native) = with_isas(|| {
            planned_vs_direct_conv(n, c, hw, o, stride, kernel)
        });
        for run in [&scalar, &native] {
            for (planned, direct) in run {
                prop_assert_eq!(planned.as_slice(), direct.as_slice());
            }
        }
        for (s, n) in scalar.iter().zip(&native) {
            prop_assert_eq!(s.0.as_slice(), n.0.as_slice());
        }
    }
}

/// After an optimizer step invalidates the plan, the repacked plan must
/// reproduce the direct path on the *updated* weights — at any thread
/// count and under both ISAs.
#[test]
fn invalidated_plan_matches_direct_after_update() {
    let _guard = POOL_LOCK.lock().unwrap();
    for threads in [1usize, 2, 7] {
        pool::set_num_threads(threads);
        for isa in [simd::Isa::Scalar, simd::detect()] {
            assert!(simd::set_isa(isa));
            let mut rng = rng_from_seed(42);
            let mut layer = Dense::new(19, 13, &mut rng);
            let mut opt = Sgd::new(0.05).with_momentum(0.9);
            let x = Tensor::rand_uniform([5, 19], -1.0, 1.0, &mut rng);
            for step in 0..4 {
                let y = layer.forward(&x, Mode::Train).unwrap();
                // The layer's plan was (re)built for the current weights:
                // its output must equal the direct tensor math on them.
                let mut params = Vec::new();
                layer.visit_params(&mut |p| params.push(p.value.clone()));
                let direct = x.matmul_nt(&params[0]).unwrap().try_add(&params[1]).unwrap();
                assert_eq!(
                    y.as_slice(),
                    direct.as_slice(),
                    "planned forward diverged at step {step} ({threads} threads, {} isa)",
                    isa.name()
                );
                let dx = layer.backward(&Tensor::ones(y.shape().clone())).unwrap();
                let dx_direct = Tensor::ones(y.shape().clone()).matmul(&params[0]).unwrap();
                assert_eq!(dx.as_slice(), dx_direct.as_slice());
                opt.step_and_zero(&mut layer);
            }
        }
        assert!(simd::set_isa(simd::detect()));
    }
    pool::set_num_threads(1);
}

/// A snapshot restore bumps parameter versions, so a stale plan is
/// rebuilt rather than served: the forward after a restore must match
/// the direct math on the restored weights.
#[test]
fn restore_invalidates_plan() {
    use medsplit::nn::vectorize::{load_snapshot_vector, snapshot_vector};
    let _guard = POOL_LOCK.lock().unwrap();
    pool::set_num_threads(1);
    let mut rng = rng_from_seed(7);
    let mut a = Dense::new(11, 9, &mut rng);
    let mut b = Dense::new(11, 9, &mut rng);
    let x = Tensor::rand_uniform([3, 11], -1.0, 1.0, &mut rng);
    // Warm b's plan on its own weights, then restore a's snapshot into it.
    let _ = b.forward(&x, Mode::Eval).unwrap();
    let snap = snapshot_vector(&mut a);
    load_snapshot_vector(&mut b, &snap).unwrap();
    let ya = a.forward(&x, Mode::Eval).unwrap();
    let yb = b.forward(&x, Mode::Eval).unwrap();
    assert_eq!(ya.as_slice(), yb.as_slice(), "restored layer served a stale plan");
}
