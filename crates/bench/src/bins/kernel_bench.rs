//! Kernel benchmark harness for the parallel packed compute backend.
//!
//! Sweeps GEMM and convolution shapes across worker-pool sizes and
//! reports throughput (GFLOP/s), speedup versus one thread, speedup
//! versus the seed (naive, branchy) kernel, scratch-arena heap
//! allocations per step, and — the headline for the SIMD microkernels —
//! GFLOPS versus the portable scalar reference path
//! (`gflops_vs_scalar`): every shape is measured once more under
//! `MEDSPLIT_ISA=scalar` semantics at one thread, and each row reports
//! its throughput relative to that baseline. `speedup_t2_vs_t1` puts the
//! two-thread pool against one thread on every GEMM, conv and serving
//! row: below 1.0 the pool costs more than it gives on that shape.
//!
//! The `dispatch` rows time the pool hand-off alone — an empty-body
//! two-task `parallel_for` — back to back (`hot`: the worker is still
//! spinning) and after a 5 ms sleep (`after_5ms_sleep`: the worker has
//! parked), at one and two threads, in `dispatch_us`.
//!
//! The `conv_train` rows time one planned forward plus one planned
//! backward (all three gradients) of a `Conv2d`-shaped step at the three
//! VGG-lite layer shapes — the work `train_vgg` repeats every round — in
//! GFLOP/s over the three GEMMs' `6·n·o·c·k²·oh·ow` flops, so the patch
//! gather and scatter around them count against the figure. The `maxpool`
//! rows time `maxpool2d_forward` (2×2, stride 2) at the three VGG-lite
//! pooling shapes in `ns_per_elem`: nanoseconds per *input* element.
//! The `batchnorm` rows time a training-mode `BatchNorm` forward
//! (`…/fwd`) and backward (`…/bwd`) at VGG-lite's three normalised
//! shapes, also in `ns_per_elem`; the `dense_train` rows time one
//! `Dense` forward (with its bias add) plus backward at the MLP
//! platform's and the VGG-lite head's shapes, in GFLOP/s over the three
//! GEMMs. None of these rows is folded into a digest.
//!
//! A small-batch *serving sweep* (`dense_serve` / `conv_serve` rows at
//! batch 1/2/4/8) drives the plan-cache path — layers in `Mode::Eval`
//! with prepacked weight panels — against the unplanned per-call packing
//! path. Its `repacks_per_step` column counts plan panel packs inside
//! the timed region; the harness asserts it is exactly 0.0 after warmup
//! (eval/serve never repacks), that planned logits are bit-identical to
//! the unplanned baseline, and that the training path repacks at most
//! once per orientation per optimizer step.
//!
//! The thread sweep defaults to `1..=available_parallelism`. A
//! `--threads` value above the host's cores is still run, but its
//! `speedup_vs_1t` reads `oversubscribed` instead of a number: more
//! workers than cores measures time-slicing, not scaling.
//!
//! Outputs:
//!   - `bench_results/kernel_bench.csv` (or `$MEDSPLIT_RESULTS_DIR`),
//!   - `BENCH_kernels.json` in the current directory (repo root in CI),
//!     wrapped in the shared schema-v2 envelope (host fingerprint, lab
//!     run id), with the dispatched ISA,
//!   - `bench_results/kernel_digest.txt`: an FNV-1a digest of a fixed
//!     deterministic kernel workload. The lab's `kernels-ab` manifest
//!     runs the smoke bench under `isa = ["scalar", "auto"]` and gates
//!     on the digests matching, pinning the cross-ISA bit-identity
//!     guarantee end to end,
//!   - `bench_results/plan_digest.txt`: the same guarantee for the
//!     planned (cached-panel) path — an FNV-1a digest of every serving
//!     sweep logit, also compared across ISAs.
//!
//! Usage:
//!   exp kernel_bench [--smoke] [--threads 1,2,4] [--reps N]
//!
//! `--smoke` runs tiny shapes with one repetition and asserts the CSV
//! schema, so CI can gate on the harness itself staying healthy.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use crate::report::{
    arg_present, arg_value, bench_json, bench_json_path, write_result, ReportWriter, TextTable,
};
use medsplit_nn::{BatchNorm, Conv2d, Dense, Layer, Mode, Optimizer, Sgd};
use medsplit_tensor::ops::conv::{
    conv2d_backward_planned, conv2d_forward, conv2d_forward_planned, Conv2dSpec,
};
use medsplit_tensor::ops::plan;
use medsplit_tensor::ops::pool::maxpool2d_forward;
use medsplit_tensor::{init::rng_from_seed, pool, scratch, simd, ConvPlan, Tensor};

const CSV_HEADER: &str = "kernel,shape,threads,reps,best_ms,gflops,speedup_vs_1t,\
                          speedup_t2_vs_t1,speedup_vs_seed,gflops_vs_scalar,\
                          scratch_allocs_per_step,repacks_per_step,dispatch_us,ns_per_elem";

/// What a `kernel_bench` invocation measured, for the lab runner.
#[derive(Debug, Clone, Copy)]
pub struct KernelBenchOutcome {
    /// CSV rows produced.
    pub rows: usize,
    /// FNV-1a digest of the fixed deterministic kernel workload —
    /// identical across `MEDSPLIT_ISA` settings by construction.
    pub kernel_digest: u64,
    /// FNV-1a digest of every planned serving-sweep logit — the same
    /// cross-ISA guarantee for the plan-cache path.
    pub plan_digest: u64,
}

/// The seed repository's GEMM kernel, kept verbatim as the baseline: a
/// cache-blocked triple loop with the `aval == 0.0` skip branch the
/// packed backend removed. Single-threaded by construction.
fn seed_gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    const BLOCK: usize = 64;
    let mut c = vec![0.0f32; m * n];
    for ib in (0..m).step_by(BLOCK) {
        let imax = (ib + BLOCK).min(m);
        for kb in (0..k).step_by(BLOCK) {
            let kmax = (kb + BLOCK).min(k);
            for i in ib..imax {
                let crow = &mut c[i * n..(i + 1) * n];
                for p in kb..kmax {
                    let aval = a[i * k + p];
                    if aval == 0.0 {
                        continue;
                    }
                    let brow = &b[p * n..p * n + n];
                    for (cv, &bv) in crow.iter_mut().zip(brow) {
                        *cv += aval * bv;
                    }
                }
            }
        }
    }
    c
}

/// One result row; a metric that does not apply to the row's kernel is
/// `NaN` (an empty CSV field, JSON `null`).
struct Row {
    kernel: &'static str,
    shape: String,
    threads: usize,
    reps: usize,
    best_ms: f64,
    gflops: f64,
    /// One-thread time over this row's time; rendered as the label
    /// `oversubscribed` when `threads` exceeds the host's cores.
    speedup_vs_1t: f64,
    /// One-thread time over two-thread time for the row's shape.
    speedup_t2_vs_t1: f64,
    speedup_vs_seed: f64,
    gflops_vs_scalar: f64,
    scratch_allocs_per_step: f64,
    repacks_per_step: f64,
    dispatch_us: f64,
    ns_per_elem: f64,
}

impl Row {
    /// A row with every metric unset.
    fn blank(kernel: &'static str, shape: String, threads: usize, reps: usize) -> Self {
        Row {
            kernel,
            shape,
            threads,
            reps,
            best_ms: f64::NAN,
            gflops: f64::NAN,
            speedup_vs_1t: f64::NAN,
            speedup_t2_vs_t1: f64::NAN,
            speedup_vs_seed: f64::NAN,
            gflops_vs_scalar: f64::NAN,
            scratch_allocs_per_step: f64::NAN,
            repacks_per_step: f64::NAN,
            dispatch_us: f64::NAN,
            ns_per_elem: f64::NAN,
        }
    }
}

/// Sets `speedup_t2_vs_t1` on the rows of one shape's thread sweep, when
/// the sweep covered both one and two threads.
fn fill_t2_vs_t1(sweep: &mut [Row]) {
    let ms = |t: usize| sweep.iter().find(|r| r.threads == t).map(|r| r.best_ms);
    if let (Some(t1), Some(t2)) = (ms(1), ms(2)) {
        for r in sweep {
            r.speedup_t2_vs_t1 = t1 / t2;
        }
    }
}

/// Pool hand-off latency: an empty-body two-task `parallel_for` is all
/// dispatch and no work. `hot` is the mean over back-to-back calls (the
/// worker is still inside its spin budget); `after_5ms_sleep` is the
/// median of single calls each made after a 5 ms sleep (the worker has
/// parked and the dispatcher must wake it). At one thread both are the
/// inline path, the floor to compare against.
fn bench_dispatch(cold_samples: usize, rows: &mut Vec<Row>) {
    const HOT_CALLS: usize = 20_000;
    let dispatch = || {
        pool::parallel_for(2, |t| {
            std::hint::black_box(t);
        });
    };
    for threads in [1, 2] {
        pool::set_num_threads(threads);
        pool::warmup(|| {});
        let t = Instant::now();
        (0..HOT_CALLS).for_each(|_| dispatch());
        let hot_us = t.elapsed().as_secs_f64() * 1e6 / HOT_CALLS as f64;
        let mut cold: Vec<f64> = (0..cold_samples)
            .map(|_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                let t = Instant::now();
                dispatch();
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        cold.sort_by(f64::total_cmp);
        for (shape, reps, us) in [
            ("hot", HOT_CALLS, hot_us),
            ("after_5ms_sleep", cold_samples, cold[cold.len() / 2]),
        ] {
            rows.push(Row {
                dispatch_us: us,
                ..Row::blank("dispatch", shape.into(), threads, reps)
            });
        }
    }
    pool::set_num_threads(1);
}

/// Times `body` for `reps` repetitions and returns the best wall time in
/// seconds, the scratch-arena allocation growth per repetition, and the
/// plan panel packs per repetition (warm-path repacks).
fn time_best(reps: usize, body: impl Fn() + Sync) -> (f64, f64, f64) {
    // Warm up on the caller AND every pool worker so no worker's
    // thread-local scratch arena grows inside the timed region — jobs go
    // to whichever workers win the queue race, so a single plain call
    // cannot cover them all. The warmup also builds any plan-cache
    // panels, so the timed region observes steady-state packing.
    pool::warmup(&body);
    let allocs_before = scratch::stats().allocations;
    let packs_before = plan::stats().packs;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        body();
        best = best.min(t.elapsed().as_secs_f64());
    }
    let allocs = scratch::stats().allocations - allocs_before;
    let packs = plan::stats().packs - packs_before;
    (best, allocs as f64 / reps as f64, packs as f64 / reps as f64)
}

/// Best wall time of `body` with the pool at two threads, for the
/// `speedup_t2_vs_t1` column of rows measured at one thread.
fn at_two_threads(reps: usize, body: impl Fn() + Sync) -> f64 {
    pool::set_num_threads(2);
    let (best_s, _, _) = time_best(reps, body);
    pool::set_num_threads(1);
    best_s
}

/// Measures `body` once under the portable scalar ISA at one thread and
/// returns the best wall time; restores the previously active ISA.
fn scalar_baseline(reps: usize, body: impl Fn() + Sync) -> f64 {
    let active = simd::active_isa();
    assert!(simd::set_isa(simd::Isa::Scalar));
    pool::set_num_threads(1);
    let (best_s, _, _) = time_best(reps, body);
    assert!(simd::set_isa(active));
    best_s
}

fn bench_gemm(m: usize, k: usize, n: usize, threads: &[usize], reps: usize, rows: &mut Vec<Row>) {
    let mut rng = rng_from_seed(7);
    let a = Tensor::rand_uniform([m, k], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform([k, n], -1.0, 1.0, &mut rng);
    let flops = 2.0 * m as f64 * k as f64 * n as f64;

    let (seed_s, _, _) = time_best(reps, || {
        std::hint::black_box(seed_gemm(a.as_slice(), b.as_slice(), m, k, n));
    });
    // The scalar reference path is deliberately slow (libm-fused); a
    // couple of repetitions suffice for a stable best-of.
    let scalar_s = scalar_baseline(reps.min(2), || {
        std::hint::black_box(a.matmul(&b).expect("gemm"));
    });
    let scalar_gflops = flops / scalar_s / 1e9;

    let mut one_thread_s = f64::NAN;
    let sweep_start = rows.len();
    for &t in threads {
        pool::set_num_threads(t);
        let (best_s, allocs, repacks) = time_best(reps, || {
            std::hint::black_box(a.matmul(&b).expect("gemm"));
        });
        if t == 1 {
            one_thread_s = best_s;
        }
        rows.push(Row {
            best_ms: best_s * 1e3,
            gflops: flops / best_s / 1e9,
            speedup_vs_1t: one_thread_s / best_s,
            speedup_vs_seed: seed_s / best_s,
            gflops_vs_scalar: (flops / best_s / 1e9) / scalar_gflops,
            scratch_allocs_per_step: allocs,
            repacks_per_step: repacks,
            ..Row::blank("gemm", format!("{m}x{k}x{n}"), t, reps)
        });
    }
    fill_t2_vs_t1(&mut rows[sweep_start..]);
    pool::set_num_threads(1);
}

#[allow(clippy::too_many_arguments)]
fn bench_conv(
    label: &'static str,
    n: usize,
    c: usize,
    hw: usize,
    o: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    threads: &[usize],
    reps: usize,
    rows: &mut Vec<Row>,
) {
    let mut rng = rng_from_seed(11);
    let input = Tensor::rand_uniform([n, c, hw, hw], -1.0, 1.0, &mut rng);
    let weight = Tensor::rand_uniform([o, c, kernel, kernel], -0.5, 0.5, &mut rng);
    let bias = Tensor::rand_uniform([o], -0.1, 0.1, &mut rng);
    let spec = Conv2dSpec::square(kernel, stride, padding);
    let (oh, ow) = spec.output_hw(hw, hw).expect("conv shape");
    let flops = 2.0 * (n * o * oh * ow * c * kernel * kernel) as f64;

    let scalar_s = scalar_baseline(reps.min(2), || {
        std::hint::black_box(conv2d_forward(&input, &weight, Some(&bias), spec).expect("conv"));
    });
    let scalar_gflops = flops / scalar_s / 1e9;

    let mut one_thread_s = f64::NAN;
    let sweep_start = rows.len();
    for &t in threads {
        pool::set_num_threads(t);
        let (best_s, allocs, repacks) = time_best(reps, || {
            std::hint::black_box(conv2d_forward(&input, &weight, Some(&bias), spec).expect("conv"));
        });
        if t == 1 {
            one_thread_s = best_s;
        }
        // No `speedup_vs_seed`: conv was always im2col+GEMM; the seed
        // comparison is carried by the gemm rows.
        rows.push(Row {
            best_ms: best_s * 1e3,
            gflops: flops / best_s / 1e9,
            speedup_vs_1t: one_thread_s / best_s,
            gflops_vs_scalar: (flops / best_s / 1e9) / scalar_gflops,
            scratch_allocs_per_step: allocs,
            repacks_per_step: repacks,
            ..Row::blank(
                label,
                format!("{n}x{c}x{hw}x{hw}->k{kernel}s{stride}p{padding}o{o}"),
                t,
                reps,
            )
        });
    }
    fill_t2_vs_t1(&mut rows[sweep_start..]);
    pool::set_num_threads(1);
}

/// One training step's conv work at a `Conv2d(c -> o, 3×3/s1/p1)` layer
/// on `n×c×hw×hw`: the planned forward, then the planned backward with
/// all three gradients, at one thread (and two, for `speedup_t2_vs_t1`).
fn bench_conv_train(n: usize, c: usize, hw: usize, o: usize, reps: usize, rows: &mut Vec<Row>) {
    let mut rng = rng_from_seed(37);
    let spec = Conv2dSpec::square(3, 1, 1);
    let input = Tensor::rand_uniform([n, c, hw, hw], -1.0, 1.0, &mut rng);
    let weight = Tensor::rand_uniform([o, c, 3, 3], -0.5, 0.5, &mut rng);
    let bias = Tensor::rand_uniform([o], -0.1, 0.1, &mut rng);
    let grad_out = Tensor::rand_uniform([n, o, hw, hw], -1.0, 1.0, &mut rng);
    // Forward, dW and dX are one `o × c·9 × hw²` GEMM per image each.
    let flops = 6.0 * (n * o * c * 9 * hw * hw) as f64;
    let plan = Mutex::new(ConvPlan::pack(&weight, spec, 0).expect("conv plan"));
    let step = || {
        let mut plan = plan.lock().expect("plan lock");
        std::hint::black_box(conv2d_forward_planned(&input, &mut plan, Some(&bias)).expect("conv fwd"));
        std::hint::black_box(
            conv2d_backward_planned(&input, &weight, &grad_out, &mut plan).expect("conv bwd"),
        );
    };
    pool::set_num_threads(1);
    let (best_s, allocs, repacks) = time_best(reps, step);
    let two_thread_s = at_two_threads(reps, step);
    rows.push(Row {
        best_ms: best_s * 1e3,
        gflops: flops / best_s / 1e9,
        speedup_vs_1t: 1.0,
        speedup_t2_vs_t1: best_s / two_thread_s,
        scratch_allocs_per_step: allocs,
        repacks_per_step: repacks,
        ..Row::blank("conv_train", format!("{n}x{c}x{hw}x{hw}->k3s1p1o{o}"), 1, reps)
    });
}

/// `maxpool2d_forward` with the 2×2/stride-2 window on `n×c×hw×hw`.
fn bench_maxpool(n: usize, c: usize, hw: usize, reps: usize, rows: &mut Vec<Row>) {
    let mut rng = rng_from_seed(41);
    let input = Tensor::rand_uniform([n, c, hw, hw], -1.0, 1.0, &mut rng).relu();
    let spec = Conv2dSpec::square(2, 2, 0);
    let step = || {
        std::hint::black_box(maxpool2d_forward(&input, spec).expect("maxpool"));
    };
    pool::set_num_threads(1);
    let (best_s, allocs, _) = time_best(reps, step);
    let two_thread_s = at_two_threads(reps, step);
    rows.push(Row {
        best_ms: best_s * 1e3,
        speedup_vs_1t: 1.0,
        speedup_t2_vs_t1: best_s / two_thread_s,
        scratch_allocs_per_step: allocs,
        ns_per_elem: best_s * 1e9 / input.numel() as f64,
        ..Row::blank("maxpool", format!("{n}x{c}x{hw}x{hw}->k2s2p0"), 1, reps)
    });
}

/// A training-mode `BatchNorm` on `n×c×hw×hw`: one row for the forward
/// (statistics, running-stat update, normalise) and one for the backward
/// (parameter gradients and the input gradient), in `ns_per_elem`.
fn bench_batchnorm(n: usize, c: usize, hw: usize, reps: usize, rows: &mut Vec<Row>) {
    let mut rng = rng_from_seed(43);
    let input = Tensor::rand_uniform([n, c, hw, hw], -1.0, 1.0, &mut rng);
    let grad_out = Tensor::rand_uniform([n, c, hw, hw], -1.0, 1.0, &mut rng);
    let layer = Mutex::new(BatchNorm::new(c));
    let forward = || {
        let mut l = layer.lock().expect("batchnorm lock");
        std::hint::black_box(l.forward(&input, Mode::Train).expect("batchnorm fwd"));
    };
    // The backward reads the cache the forward left; repeating it only
    // accumulates into the parameter gradients.
    let backward = || {
        let mut l = layer.lock().expect("batchnorm lock");
        std::hint::black_box(l.backward(&grad_out).expect("batchnorm bwd"));
    };
    pool::set_num_threads(1);
    forward();
    for (pass, best_s) in [
        ("fwd", time_best(reps, forward).0),
        ("bwd", time_best(reps, backward).0),
    ] {
        rows.push(Row {
            best_ms: best_s * 1e3,
            speedup_vs_1t: 1.0,
            ns_per_elem: best_s * 1e9 / input.numel() as f64,
            ..Row::blank("batchnorm", format!("{n}x{c}x{hw}x{hw}/{pass}"), 1, reps)
        });
    }
}

/// One training step of `Dense(input -> output)` on a batch of `n`: the
/// planned forward with its bias add, then the backward with all three
/// gradients, in GFLOP/s over the three GEMMs' `6·n·input·output` flops.
fn bench_dense_train(n: usize, input: usize, output: usize, reps: usize, rows: &mut Vec<Row>) {
    let mut rng = rng_from_seed(47);
    let x = Tensor::rand_uniform([n, input], -1.0, 1.0, &mut rng);
    let grad_out = Tensor::rand_uniform([n, output], -1.0, 1.0, &mut rng);
    let layer = Mutex::new(Dense::new(input, output, &mut rng));
    let flops = 6.0 * (n * input * output) as f64;
    let step = || {
        let mut l = layer.lock().expect("dense lock");
        std::hint::black_box(l.forward(&x, Mode::Train).expect("dense fwd"));
        std::hint::black_box(l.backward(&grad_out).expect("dense bwd"));
    };
    pool::set_num_threads(1);
    let (best_s, allocs, repacks) = time_best(reps, step);
    let two_thread_s = at_two_threads(reps, step);
    rows.push(Row {
        best_ms: best_s * 1e3,
        gflops: flops / best_s / 1e9,
        speedup_vs_1t: 1.0,
        speedup_t2_vs_t1: best_s / two_thread_s,
        scratch_allocs_per_step: allocs,
        repacks_per_step: repacks,
        ..Row::blank("dense_train", format!("b{n}x{input}->{output}"), 1, reps)
    });
}

/// Small-batch serving sweep: `Dense` and `Conv2d` layers in `Mode::Eval`
/// at batch 1/2/4/8, driven through their cached plans, against the
/// unplanned per-call packing path.
///
/// For serving rows the `speedup_vs_seed` column reports planned vs
/// *unplanned* (the per-call path is the "seed" the plan cache
/// replaces). Asserts, per shape: planned logits are bit-identical to
/// the unplanned baseline, and the warm path packs zero panels
/// (`repacks_per_step == 0.0` — eval never repacks after warmup).
///
/// Returns an FNV-1a digest over every planned logit, written to
/// `plan_digest.txt` for the cross-ISA comparison.
fn bench_serving(reps: usize, rows: &mut Vec<Row>) -> u64 {
    const BATCHES: [usize; 4] = [1, 2, 4, 8];
    pool::set_num_threads(1);
    let mut digest = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis

    // Dense serving shapes: split-model classifier heads (in -> out).
    for &(inf, outf) in &[(256usize, 256usize), (784usize, 128usize)] {
        let mut rng = rng_from_seed(23);
        let w = Tensor::rand_uniform([outf, inf], -0.5, 0.5, &mut rng);
        let b = Tensor::rand_uniform([outf], -0.1, 0.1, &mut rng);
        // `Layer::forward` needs `&mut self` (it may build the plan);
        // `time_best` bodies are `Fn + Sync`, so serialize via a mutex.
        let layer = Mutex::new(Dense::from_parts(w.clone(), b.clone()).expect("dense layer"));
        for &batch in &BATCHES {
            let x = Tensor::rand_uniform([batch, inf], -1.0, 1.0, &mut rng);
            let flops = 2.0 * (batch * inf * outf) as f64;
            let direct = x.matmul_nt(&w).expect("direct gemm").try_add(&b).expect("bias");
            let (direct_s, _, _) = time_best(reps, || {
                std::hint::black_box(x.matmul_nt(&w).expect("direct gemm").try_add(&b).expect("bias"));
            });
            let planned = layer
                .lock()
                .expect("dense lock")
                .forward(&x, Mode::Eval)
                .expect("planned dense");
            assert_eq!(
                planned.as_slice(),
                direct.as_slice(),
                "planned dense logits diverged from the unplanned path at b{batch}x{inf}->{outf}"
            );
            digest = fnv1a_fold(digest, planned.as_slice());
            let (best_s, allocs, repacks) = time_best(reps, || {
                let mut l = layer.lock().expect("dense lock");
                std::hint::black_box(l.forward(&x, Mode::Eval).expect("planned dense"));
            });
            assert_eq!(
                repacks, 0.0,
                "dense serve repacked panels after warmup at b{batch}x{inf}->{outf}"
            );
            let two_thread_s = at_two_threads(reps, || {
                let mut l = layer.lock().expect("dense lock");
                std::hint::black_box(l.forward(&x, Mode::Eval).expect("planned dense"));
            });
            rows.push(Row {
                best_ms: best_s * 1e3,
                gflops: flops / best_s / 1e9,
                speedup_vs_1t: 1.0,
                speedup_t2_vs_t1: best_s / two_thread_s,
                speedup_vs_seed: direct_s / best_s,
                scratch_allocs_per_step: allocs,
                repacks_per_step: repacks,
                ..Row::blank("dense_serve", format!("b{batch}x{inf}->{outf}"), 1, reps)
            });
        }
    }

    // Conv serving shape: an early-stage feature extractor block.
    let spec = Conv2dSpec::square(3, 1, 1);
    let (c, hw, o) = (8usize, 16usize, 16usize);
    let mut rng = rng_from_seed(29);
    let w = Tensor::rand_uniform([o, c, 3, 3], -0.5, 0.5, &mut rng);
    let b = Tensor::rand_uniform([o], -0.1, 0.1, &mut rng);
    let layer = Mutex::new(Conv2d::from_parts(w.clone(), b.clone(), spec).expect("conv layer"));
    for &batch in &BATCHES {
        let x = Tensor::rand_uniform([batch, c, hw, hw], -1.0, 1.0, &mut rng);
        let (oh, ow) = spec.output_hw(hw, hw).expect("conv shape");
        let flops = 2.0 * (batch * o * oh * ow * c * 9) as f64;
        let direct = conv2d_forward(&x, &w, Some(&b), spec).expect("direct conv");
        let (direct_s, _, _) = time_best(reps, || {
            std::hint::black_box(conv2d_forward(&x, &w, Some(&b), spec).expect("direct conv"));
        });
        let planned = layer
            .lock()
            .expect("conv lock")
            .forward(&x, Mode::Eval)
            .expect("planned conv");
        assert_eq!(
            planned.as_slice(),
            direct.as_slice(),
            "planned conv logits diverged from the unplanned path at b{batch}x{c}x{hw}x{hw}"
        );
        digest = fnv1a_fold(digest, planned.as_slice());
        let (best_s, allocs, repacks) = time_best(reps, || {
            let mut l = layer.lock().expect("conv lock");
            std::hint::black_box(l.forward(&x, Mode::Eval).expect("planned conv"));
        });
        assert_eq!(
            repacks, 0.0,
            "conv serve repacked panels after warmup at b{batch}x{c}x{hw}x{hw}"
        );
        let two_thread_s = at_two_threads(reps, || {
            let mut l = layer.lock().expect("conv lock");
            std::hint::black_box(l.forward(&x, Mode::Eval).expect("planned conv"));
        });
        rows.push(Row {
            best_ms: best_s * 1e3,
            gflops: flops / best_s / 1e9,
            speedup_vs_1t: 1.0,
            speedup_t2_vs_t1: best_s / two_thread_s,
            speedup_vs_seed: direct_s / best_s,
            scratch_allocs_per_step: allocs,
            repacks_per_step: repacks,
            ..Row::blank(
                "conv_serve",
                format!("b{batch}x{c}x{hw}x{hw}->k3s1p1o{o}"),
                1,
                reps,
            )
        });
    }
    digest
}

/// Asserts the training-path packing bound: each optimizer step
/// invalidates a layer's plan exactly once, and the following
/// forward+backward rebuilds at most the two panel orientations —
/// never one pack per call.
fn assert_training_repack_bound() {
    pool::set_num_threads(1);
    let mut rng = rng_from_seed(31);
    let mut layer = Dense::new(24, 12, &mut rng);
    let mut opt = Sgd::new(0.01);
    let x = Tensor::rand_uniform([4, 24], -1.0, 1.0, &mut rng);
    // Warmup: the first forward misses and packs, the first backward
    // lazily packs the backward orientation.
    let y = layer.forward(&x, Mode::Train).expect("train fwd");
    layer
        .backward(&Tensor::ones(y.shape().clone()))
        .expect("train bwd");

    let steps = 5u64;
    let before = plan::stats();
    for _ in 0..steps {
        opt.step_and_zero(&mut layer);
        let y = layer.forward(&x, Mode::Train).expect("train fwd");
        layer
            .backward(&Tensor::ones(y.shape().clone()))
            .expect("train bwd");
    }
    let after = plan::stats();
    assert_eq!(
        after.invalidations - before.invalidations,
        steps,
        "expected exactly one plan invalidation per optimizer step"
    );
    assert!(
        after.packs - before.packs <= 2 * steps,
        "training repacked more than both orientations per step: {} packs over {steps} steps",
        after.packs - before.packs
    );
}

/// `NaN` metrics (not applicable to this row kind) render as an empty
/// CSV field / JSON `null`; others with `csv_digits` decimals in the CSV
/// and one more in the JSON.
/// The host's core count, the upper end of the default thread sweep.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Whether `r` ran more threads than the host has cores.
fn oversubscribed(r: &Row) -> bool {
    r.threads > host_cores()
}

/// The `speedup_vs_1t` field of `r`: the ratio, or the label
/// `oversubscribed` (quoted in JSON).
fn scaling_field(r: &Row, csv: bool) -> String {
    match (oversubscribed(r), csv) {
        (true, true) => "oversubscribed".into(),
        (true, false) => "\"oversubscribed\"".into(),
        (false, _) => opt_metric(r.speedup_vs_1t, csv, 2),
    }
}

fn opt_metric(v: f64, csv: bool, csv_digits: usize) -> String {
    match (v.is_nan(), csv) {
        (true, true) => String::new(),
        (true, false) => "null".into(),
        (false, true) => format!("{v:.csv_digits$}"),
        (false, false) => format!("{v:.0$}", csv_digits + 1),
    }
}

fn to_report(rows: &[Row]) -> ReportWriter {
    let mut report = ReportWriter::csv(CSV_HEADER);
    for r in rows {
        let m = |v, digits| opt_metric(v, true, digits);
        report.line(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            r.kernel,
            r.shape,
            r.threads,
            r.reps,
            m(r.best_ms, 3),
            m(r.gflops, 2),
            scaling_field(r, true),
            m(r.speedup_t2_vs_t1, 2),
            m(r.speedup_vs_seed, 2),
            m(r.gflops_vs_scalar, 2),
            m(r.scratch_allocs_per_step, 2),
            m(r.repacks_per_step, 2),
            m(r.dispatch_us, 2),
            m(r.ns_per_elem, 3)
        ));
    }
    report
}

fn to_json(rows: &[Row], isa: &str) -> String {
    let mut results = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let m = |v, digits| opt_metric(v, false, digits);
        let _ = writeln!(
            results,
            "    {{\"kernel\": \"{}\", \"shape\": \"{}\", \"threads\": {}, \"best_ms\": {}, \
             \"gflops\": {}, \"speedup_vs_1t\": {}, \"speedup_t2_vs_t1\": {}, \
             \"speedup_vs_seed\": {}, \"gflops_vs_scalar\": {}, \
             \"scratch_allocs_per_step\": {}, \"repacks_per_step\": {}, \"dispatch_us\": {}, \
             \"ns_per_elem\": {}}}{}",
            r.kernel,
            r.shape,
            r.threads,
            m(r.best_ms, 3),
            m(r.gflops, 2),
            scaling_field(r, false),
            m(r.speedup_t2_vs_t1, 2),
            m(r.speedup_vs_seed, 2),
            m(r.gflops_vs_scalar, 2),
            m(r.scratch_allocs_per_step, 1),
            m(r.repacks_per_step, 1),
            m(r.dispatch_us, 2),
            m(r.ns_per_elem, 3),
            comma
        );
    }
    results.push_str("  ]");

    bench_json(
        "kernel_bench",
        &[("isa", format!("\"{isa}\"")), ("results", results)],
    )
}

/// FNV-1a over a stream of `f32` bit patterns (little-endian).
fn fnv1a_fold(hash: u64, vals: &[f32]) -> u64 {
    let mut h = hash;
    for v in vals {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Runs a fixed deterministic workload through every dispatched kernel
/// family (all three GEMM variants with edge tiles, conv forward, the
/// ReLU family, the accumulators) at one thread and digests the result
/// bits. Identical across `MEDSPLIT_ISA` settings by construction; the
/// lab's invariant gate asserts it.
fn kernel_digest() -> u64 {
    pool::set_num_threads(1);
    let mut rng = rng_from_seed(99);
    let a = Tensor::rand_uniform([70, 93], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform([93, 37], -1.0, 1.0, &mut rng);
    let mut h = 0xcbf2_9ce4_8422_2325; // FNV offset basis
    h = fnv1a_fold(h, a.matmul(&b).expect("digest gemm").as_slice());
    let at = a.transpose().expect("digest transpose");
    h = fnv1a_fold(h, at.matmul_tn(&b).expect("digest gemm_tn").as_slice());
    let bt = b.transpose().expect("digest transpose");
    h = fnv1a_fold(h, a.matmul_nt(&bt).expect("digest gemm_nt").as_slice());

    let input = Tensor::rand_uniform([2, 3, 11, 11], -1.0, 1.0, &mut rng);
    let weight = Tensor::rand_uniform([4, 3, 3, 3], -0.5, 0.5, &mut rng);
    let conv = conv2d_forward(&input, &weight, None, Conv2dSpec::square(3, 1, 1)).expect("digest conv");
    h = fnv1a_fold(h, conv.as_slice());

    let x = Tensor::rand_uniform([999], -2.0, 2.0, &mut rng);
    let g = Tensor::rand_uniform([999], -1.0, 1.0, &mut rng);
    h = fnv1a_fold(h, x.relu().as_slice());
    h = fnv1a_fold(h, x.relu().relu_backward(&g).expect("digest relu_bwd").as_slice());
    h = fnv1a_fold(h, x.leaky_relu(0.01).as_slice());
    let mut acc = x.clone();
    acc.axpy(0.37, &g).expect("digest axpy");
    acc.add_assign(&g).expect("digest add_assign");
    acc.scale_inplace(-1.25);
    h = fnv1a_fold(h, acc.as_slice());
    h = fnv1a_fold(h, (&x * &g).as_slice());
    h
}

fn parse_threads(spec: &str) -> Vec<usize> {
    spec.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim().parse().expect("--threads takes e.g. 1,2,4"))
        .collect()
}

/// Runs the kernel benchmark and returns its deterministic digests.
pub fn run(args: &[String]) -> KernelBenchOutcome {
    let smoke = arg_present(args, "--smoke");
    let host_threads = host_cores();
    let isa = simd::active_isa();
    let threads = match arg_value(args, "--threads") {
        Some(spec) => parse_threads(&spec),
        None if smoke => (1..=host_threads.min(2)).collect(),
        None => (1..=host_threads).collect(),
    };
    let reps: usize = arg_value(args, "--reps")
        .map(|v| v.parse().expect("--reps takes an integer"))
        .unwrap_or(if smoke { 1 } else { 5 });

    let mut rows = Vec::new();
    bench_dispatch(if smoke { 3 } else { 51 }, &mut rows);
    if smoke {
        bench_gemm(48, 33, 17, &threads, reps, &mut rows);
        bench_conv("conv2d", 2, 3, 8, 4, 3, 1, 1, &threads, reps, &mut rows);
        bench_conv_train(5, 3, 8, 4, reps, &mut rows);
        bench_maxpool(2, 3, 8, reps, &mut rows);
        bench_batchnorm(2, 3, 8, reps, &mut rows);
        bench_dense_train(4, 8, 16, reps, &mut rows);
    } else {
        // GEMM shapes: the acceptance shape plus split-model layer shapes
        // (tall-skinny activations x weights) and a wide-N case that
        // exercises the shared whole-B pack.
        bench_gemm(512, 512, 512, &threads, reps, &mut rows);
        bench_gemm(256, 256, 256, &threads, reps, &mut rows);
        bench_gemm(128, 784, 256, &threads, reps, &mut rows);
        bench_gemm(64, 256, 1024, &threads, reps, &mut rows);
        // Conv shapes drawn from VGG16 / ResNet18 early stages, scaled to
        // medical-imaging-sized inputs the paper's CNNs use.
        bench_conv("conv2d", 4, 3, 64, 64, 3, 1, 1, &threads, reps, &mut rows);
        bench_conv("conv2d", 4, 64, 32, 64, 3, 1, 1, &threads, reps, &mut rows);
        bench_conv("conv2d", 8, 3, 56, 64, 7, 2, 3, &threads, reps, &mut rows);
        // The three conv layers and three pools of VGG-lite at the
        // `train_vgg` batch sizes: 16 per platform on `L1`, 64 behind it.
        bench_conv_train(16, 3, 16, 8, reps, &mut rows);
        bench_conv_train(64, 8, 8, 16, reps, &mut rows);
        bench_conv_train(64, 16, 4, 32, reps, &mut rows);
        bench_maxpool(64, 8, 16, reps, &mut rows);
        bench_maxpool(64, 16, 8, reps, &mut rows);
        bench_maxpool(64, 32, 4, reps, &mut rows);
        // VGG-lite's three batch norms (one per platform, two on the
        // server) and the dense layers of the MLP platform and of the
        // VGG-lite head.
        bench_batchnorm(16, 8, 16, reps, &mut rows);
        bench_batchnorm(64, 16, 8, reps, &mut rows);
        bench_batchnorm(64, 32, 4, reps, &mut rows);
        bench_dense_train(64, 32, 128, reps, &mut rows);
        bench_dense_train(64, 128, 256, reps, &mut rows);
    }
    // Small-batch serving sweep through the plan cache (asserts zero
    // warm-path repacks and bit-identical logits), plus the training
    // repack bound.
    let plan_digest = bench_serving(reps, &mut rows);
    assert_training_repack_bound();

    let report = to_report(&rows);
    assert!(report.rows() >= threads.len(), "kernel_bench produced no rows");
    let csv_path = report.write("kernel_bench.csv").expect("write kernel_bench.csv");

    let json = to_json(&rows, isa.name());
    // Smoke runs keep the JSON next to the CSV so they never clobber the
    // committed full-sweep numbers at the repo root.
    let json_path = bench_json_path("BENCH_kernels.json", smoke);
    std::fs::write(&json_path, &json).expect("write BENCH_kernels.json");

    let digest = kernel_digest();
    let digest_path =
        write_result("kernel_digest.txt", &format!("{digest:016x}\n")).expect("write kernel_digest.txt");
    let plan_digest_path =
        write_result("plan_digest.txt", &format!("{plan_digest:016x}\n")).expect("write plan_digest.txt");

    let mut table = TextTable::new(
        "kernel_bench (best-of-reps wall time)",
        &[
            "kernel",
            "shape",
            "threads",
            "best ms",
            "GFLOP/s",
            "vs 1t",
            "2t/1t",
            "vs seed",
            "vs scalar",
            "allocs/step",
            "repacks/step",
            "dispatch us",
            "ns/elem",
        ],
    );
    for r in &rows {
        let cell = |v: f64, digits: usize, unit: &str| {
            if v.is_nan() {
                "-".into()
            } else {
                format!("{v:.digits$}{unit}")
            }
        };
        table.row(vec![
            r.kernel.to_string(),
            r.shape.clone(),
            r.threads.to_string(),
            cell(r.best_ms, 3, ""),
            cell(r.gflops, 2, ""),
            if oversubscribed(r) {
                "oversubscribed".into()
            } else {
                cell(r.speedup_vs_1t, 2, "x")
            },
            cell(r.speedup_t2_vs_t1, 2, "x"),
            cell(r.speedup_vs_seed, 2, "x"),
            cell(r.gflops_vs_scalar, 2, "x"),
            cell(r.scratch_allocs_per_step, 2, ""),
            cell(r.repacks_per_step, 2, ""),
            cell(r.dispatch_us, 2, ""),
            cell(r.ns_per_elem, 3, ""),
        ]);
    }
    println!("{table}");
    println!(
        "isa: {} (set MEDSPLIT_ISA=scalar|avx2|neon to override)",
        isa.name()
    );
    println!("host available_parallelism: {host_threads}");
    println!(
        "wrote {}, {}, {} and {}",
        csv_path.display(),
        json_path.display(),
        digest_path.display(),
        plan_digest_path.display()
    );
    if smoke {
        println!(
            "smoke OK: {} rows, schema verified, serve repacks 0.0, planned logits match unplanned",
            rows.len()
        );
    }
    KernelBenchOutcome {
        rows: rows.len(),
        kernel_digest: digest,
        plan_digest,
    }
}
