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
//! gather and scatter around them count against the figure; the
//! `conv_params` row times the parameters-only backward of the
//! platform's `L1` (`16x3x16x16->o8`), in GFLOP/s over its one GEMM. The `maxpool`
//! rows time `maxpool2d_forward` (2×2, stride 2) at the three VGG-lite
//! pooling shapes in `ns_per_elem`: nanoseconds per *input* element.
//! The `batchnorm` rows time a training-mode `BatchNorm` forward
//! (`…/fwd`) and backward (`…/bwd`) at VGG-lite's three normalised
//! shapes, also in `ns_per_elem`; the `dense_train` rows time one
//! `Dense` forward (with its bias add) plus backward at the MLP
//! platform's and server's shapes and at the VGG-lite head's, in
//! GFLOP/s over the three GEMMs. The `gemm_tn` / `gemm_nt` rows time the
//! transposed-operand entry points on the MLP server's skinny forward
//! shape, next to its `gemm` row.
//!
//! The `encode_i8` rows time the int8 wire encoder (`Tensor::encode`
//! with `Encoding::Int8`: absmax, quantiser, frame) on a 64×128
//! activation tensor — the shape `train_hier_int8` quantises eight times
//! a round — under the portable scalar kernels (`…/scalar`) and the
//! active ones (`…/avx2` on an AVX2 host), in `ns_per_byte` of f32
//! input, the unit of the end-to-end benchmark's
//! `tensor.serialize.encode_ns_per_byte`; their `gflops_vs_scalar` is
//! the throughput ratio to the scalar row.
//!
//! A small-batch *serving sweep* (`dense_serve` / `conv_serve` rows at
//! batch 1/2/4/8, plus `conv_serve` rows at VGG-lite's own serving
//! convs) drives the plan-cache path — layers in `Mode::Eval`
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
//! The values these kernels compute are pinned elsewhere:
//! `tests/kernel_golden.rs` holds the elementwise family, the int8
//! encoder and the planned serving forward to literal digests at 1 and
//! 2 threads under the scalar and the detected ISA, as the GEMM, spatial
//! and layer goldens do for the rest. This harness only times them.
//!
//! Outputs:
//!   - `bench_results/kernel_bench.csv` (or `$MEDSPLIT_RESULTS_DIR`),
//!   - `BENCH_kernels.json` in the current directory (repo root in CI),
//!     wrapped in the shared schema-v2 envelope (host fingerprint, lab
//!     run id), with the dispatched ISA.
//!
//! Usage:
//!   exp kernel_bench [--smoke] [--threads 1,2,4] [--reps N]
//!
//! `--smoke` runs tiny shapes with one repetition and asserts the CSV
//! schema, so CI can gate on the harness itself staying healthy.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use crate::report::{arg_present, arg_value, bench_json, bench_json_path, ReportWriter, TextTable};
use medsplit_nn::{BatchNorm, Conv2d, Dense, Layer, Mode, Optimizer, Sgd};
use medsplit_tensor::ops::conv::{
    conv2d_backward_params, conv2d_backward_planned, conv2d_forward, conv2d_forward_planned, Conv2dSpec,
};
use medsplit_tensor::ops::plan;
use medsplit_tensor::ops::pool::maxpool2d_forward;
use medsplit_tensor::{init::rng_from_seed, pool, scratch, simd, ConvPlan, Encoding, Tensor};

const CSV_HEADER: &str = "kernel,shape,threads,reps,best_ms,gflops,speedup_vs_1t,\
                          speedup_t2_vs_t1,speedup_vs_seed,gflops_vs_scalar,\
                          scratch_allocs_per_step,repacks_per_step,dispatch_us,ns_per_elem,ns_per_byte";

/// What a `kernel_bench` invocation measured, for the lab runner.
#[derive(Debug, Clone, Copy)]
pub struct KernelBenchOutcome {
    /// CSV rows produced.
    pub rows: usize,
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
    ns_per_byte: f64,
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
            ns_per_byte: f64::NAN,
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

/// A GEMM entry point `kernel_bench` times: `gemm` is `A·B`, `gemm_tn`
/// is `Aᵀ·B` with A stored `[k, m]`, `gemm_nt` is `A·Bᵀ` with B stored
/// `[n, k]`. Every variant computes the same logical `m×k×n` product.
#[derive(Clone, Copy)]
enum GemmVariant {
    Nn,
    Tn,
    Nt,
}

impl GemmVariant {
    fn kernel(self) -> &'static str {
        match self {
            GemmVariant::Nn => "gemm",
            GemmVariant::Tn => "gemm_tn",
            GemmVariant::Nt => "gemm_nt",
        }
    }
}

fn bench_gemm(
    variant: GemmVariant,
    m: usize,
    k: usize,
    n: usize,
    threads: &[usize],
    reps: usize,
    rows: &mut Vec<Row>,
) {
    let mut rng = rng_from_seed(7);
    let a = Tensor::rand_uniform([m, k], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform([k, n], -1.0, 1.0, &mut rng);
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    let (at, bt) = (a.transpose().expect("gemm Aᵀ"), b.transpose().expect("gemm Bᵀ"));
    let product = || match variant {
        GemmVariant::Nn => a.matmul(&b).expect("gemm"),
        GemmVariant::Tn => at.matmul_tn(&b).expect("gemm_tn"),
        GemmVariant::Nt => a.matmul_nt(&bt).expect("gemm_nt"),
    };

    let (seed_s, _, _) = time_best(reps, || {
        std::hint::black_box(seed_gemm(a.as_slice(), b.as_slice(), m, k, n));
    });
    // The scalar reference path is deliberately slow (libm-fused); a
    // couple of repetitions suffice for a stable best-of.
    let scalar_s = scalar_baseline(reps.min(2), || {
        std::hint::black_box(product());
    });
    let scalar_gflops = flops / scalar_s / 1e9;

    let mut one_thread_s = f64::NAN;
    let sweep_start = rows.len();
    for &t in threads {
        pool::set_num_threads(t);
        let (best_s, allocs, repacks) = time_best(reps, || {
            std::hint::black_box(product());
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
            ..Row::blank(variant.kernel(), format!("{m}x{k}x{n}"), t, reps)
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

/// The parameters-only backward (`conv2d_backward_params`: weight and
/// bias gradients, no input gradient) of a `Conv2d(c -> o, 3×3/s1/p1)`
/// on `n×c×hw×hw` — what the platform's `L1` runs each round — at one
/// thread, in GFLOP/s over the weight-gradient GEMM's `2·n·o·c·9·hw²`.
fn bench_conv_params(n: usize, c: usize, hw: usize, o: usize, reps: usize, rows: &mut Vec<Row>) {
    let mut rng = rng_from_seed(37);
    let spec = Conv2dSpec::square(3, 1, 1);
    let input = Tensor::rand_uniform([n, c, hw, hw], -1.0, 1.0, &mut rng);
    let weight = Tensor::rand_uniform([o, c, 3, 3], -0.5, 0.5, &mut rng);
    let grad_out = Tensor::rand_uniform([n, o, hw, hw], -1.0, 1.0, &mut rng);
    let flops = 2.0 * (n * o * c * 9 * hw * hw) as f64;
    let step = || {
        std::hint::black_box(conv2d_backward_params(&input, &weight, &grad_out, spec).expect("conv params"));
    };
    pool::set_num_threads(1);
    let (best_s, allocs, _) = time_best(reps, step);
    let two_thread_s = at_two_threads(reps, step);
    rows.push(Row {
        best_ms: best_s * 1e3,
        gflops: flops / best_s / 1e9,
        speedup_vs_1t: 1.0,
        speedup_t2_vs_t1: best_s / two_thread_s,
        scratch_allocs_per_step: allocs,
        ..Row::blank("conv_params", format!("{n}x{c}x{hw}x{hw}->k3s1p1o{o}"), 1, reps)
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

/// The int8 wire encoder on an `r×c` tensor of activation-like values,
/// at the portable scalar reference and at the active ISA, one row each
/// in `ns_per_byte` of f32 input. A repetition is 64 encodes: one is a
/// few microseconds, below what a best-of-reps timer resolves.
fn bench_encode_i8(r: usize, c: usize, reps: usize, rows: &mut Vec<Row>) {
    const CALLS: usize = 64;
    let mut rng = rng_from_seed(53);
    let t = Tensor::rand_uniform([r, c], -2.0, 2.0, &mut rng);
    let step = || {
        for _ in 0..CALLS {
            std::hint::black_box(t.encode(Encoding::Int8));
        }
    };
    pool::set_num_threads(1);
    let (active_s, _, _) = time_best(reps, step);
    let scalar_s = scalar_baseline(reps, step);
    for (isa, best_s) in [("scalar", scalar_s), (simd::active_isa().name(), active_s)] {
        rows.push(Row {
            best_ms: best_s * 1e3 / CALLS as f64,
            gflops_vs_scalar: scalar_s / best_s,
            ns_per_byte: best_s * 1e9 / (CALLS * 4 * t.numel()) as f64,
            ..Row::blank("encode_i8", format!("{r}x{c}/{isa}"), 1, reps)
        });
    }
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
fn bench_serving(reps: usize, rows: &mut Vec<Row>) {
    const BATCHES: [usize; 4] = [1, 2, 4, 8];
    pool::set_num_threads(1);

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
        conv_serve_row(&layer, &w, &b, &x, reps, rows);
    }
    // VGG-lite's own serving convs: the server's two layers at batches 1
    // and 2, and the platform's `L1` at batch 1.
    for &(batch, c, hw, o) in &[
        (1usize, 8usize, 8usize, 16usize),
        (2, 8, 8, 16),
        (1, 16, 4, 32),
        (2, 16, 4, 32),
        (1, 3, 16, 8),
    ] {
        let mut rng = rng_from_seed(47);
        let w = Tensor::rand_uniform([o, c, 3, 3], -0.5, 0.5, &mut rng);
        let b = Tensor::rand_uniform([o], -0.1, 0.1, &mut rng);
        let layer = Mutex::new(Conv2d::from_parts(w.clone(), b.clone(), spec).expect("conv layer"));
        let x = Tensor::rand_uniform([batch, c, hw, hw], -1.0, 1.0, &mut rng);
        conv_serve_row(&layer, &w, &b, &x, reps, rows);
    }
}

/// One `conv_serve` row: the planned forward of `layer` (3×3/s1/p1,
/// weight `w`, bias `b`) in `Mode::Eval` on `x`, against the unplanned
/// `conv2d_forward`. Asserts bit-identical logits and zero warm-path
/// repacks.
fn conv_serve_row(
    layer: &Mutex<Conv2d>,
    w: &Tensor,
    b: &Tensor,
    x: &Tensor,
    reps: usize,
    rows: &mut Vec<Row>,
) {
    let spec = Conv2dSpec::square(3, 1, 1);
    let (batch, c, hw) = (x.dims()[0], x.dims()[1], x.dims()[2]);
    let o = w.dims()[0];
    let (oh, ow) = spec.output_hw(hw, hw).expect("conv shape");
    let flops = 2.0 * (batch * o * oh * ow * c * 9) as f64;
    let direct = conv2d_forward(x, w, Some(b), spec).expect("direct conv");
    let (direct_s, _, _) = time_best(reps, || {
        std::hint::black_box(conv2d_forward(x, w, Some(b), spec).expect("direct conv"));
    });
    let planned = layer
        .lock()
        .expect("conv lock")
        .forward(x, Mode::Eval)
        .expect("planned conv");
    assert_eq!(
        planned.as_slice(),
        direct.as_slice(),
        "planned conv logits diverged from the unplanned path at b{batch}x{c}x{hw}x{hw}"
    );
    let (best_s, allocs, repacks) = time_best(reps, || {
        let mut l = layer.lock().expect("conv lock");
        std::hint::black_box(l.forward(x, Mode::Eval).expect("planned conv"));
    });
    assert_eq!(
        repacks, 0.0,
        "conv serve repacked panels after warmup at b{batch}x{c}x{hw}x{hw}"
    );
    let two_thread_s = at_two_threads(reps, || {
        let mut l = layer.lock().expect("conv lock");
        std::hint::black_box(l.forward(x, Mode::Eval).expect("planned conv"));
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
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
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
            m(r.ns_per_elem, 3),
            m(r.ns_per_byte, 3)
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
             \"ns_per_elem\": {}, \"ns_per_byte\": {}}}{}",
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
            m(r.ns_per_byte, 3),
            comma
        );
    }
    results.push_str("  ]");

    bench_json(
        "kernel_bench",
        &[("isa", format!("\"{isa}\"")), ("results", results)],
    )
}

fn parse_threads(spec: &str) -> Vec<usize> {
    spec.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim().parse().expect("--threads takes e.g. 1,2,4"))
        .collect()
}

/// Runs the kernel benchmark and returns its row count.
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
        bench_gemm(GemmVariant::Nn, 48, 33, 17, &threads, reps, &mut rows);
        bench_conv("conv2d", 2, 3, 8, 4, 3, 1, 1, &threads, reps, &mut rows);
        bench_conv_train(5, 3, 8, 4, reps, &mut rows);
        bench_conv_params(5, 3, 8, 4, reps, &mut rows);
        bench_maxpool(2, 3, 8, reps, &mut rows);
        bench_batchnorm(2, 3, 8, reps, &mut rows);
        bench_dense_train(4, 8, 16, reps, &mut rows);
        bench_encode_i8(4, 40, reps, &mut rows);
    } else {
        // GEMM shapes: the acceptance shape plus split-model layer shapes
        // (tall-skinny activations x weights) and a wide-N case that
        // exercises the shared whole-B pack.
        bench_gemm(GemmVariant::Nn, 512, 512, 512, &threads, reps, &mut rows);
        bench_gemm(GemmVariant::Nn, 256, 256, 256, &threads, reps, &mut rows);
        bench_gemm(GemmVariant::Nn, 128, 784, 256, &threads, reps, &mut rows);
        bench_gemm(GemmVariant::Nn, 64, 256, 1024, &threads, reps, &mut rows);
        // The MLP server's forward product (a 256-row batch through
        // Dense(128→3)) in each operand layout: three live columns of a
        // sixteen-wide tile unless the orientation swaps.
        for variant in [GemmVariant::Nn, GemmVariant::Tn, GemmVariant::Nt] {
            bench_gemm(variant, 256, 128, 3, &threads, reps, &mut rows);
        }
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
        bench_conv_params(16, 3, 16, 8, reps, &mut rows);
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
        // The MLP workloads' whole server model and VGG-lite's last layer.
        bench_dense_train(256, 128, 3, reps, &mut rows);
        bench_dense_train(64, 128, 10, reps, &mut rows);
        bench_encode_i8(64, 128, reps, &mut rows);
    }
    // Small-batch serving sweep through the plan cache (asserts zero
    // warm-path repacks and bit-identical logits), plus the training
    // repack bound.
    bench_serving(reps, &mut rows);
    assert_training_repack_bound();

    let report = to_report(&rows);
    assert!(report.rows() >= threads.len(), "kernel_bench produced no rows");
    let csv_path = report.write("kernel_bench.csv").expect("write kernel_bench.csv");

    let json = to_json(&rows, isa.name());
    // Smoke runs keep the JSON next to the CSV so they never clobber the
    // committed full-sweep numbers at the repo root.
    let json_path = bench_json_path("BENCH_kernels.json", smoke);
    std::fs::write(&json_path, &json).expect("write BENCH_kernels.json");

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
            "ns/B",
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
            cell(r.ns_per_byte, 3, ""),
        ]);
    }
    println!("{table}");
    println!(
        "isa: {} (set MEDSPLIT_ISA=scalar|avx2|neon to override)",
        isa.name()
    );
    println!("host available_parallelism: {host_threads}");
    println!("wrote {} and {}", csv_path.display(), json_path.display());
    if smoke {
        println!(
            "smoke OK: {} rows, schema verified, serve repacks 0.0, planned logits match unplanned",
            rows.len()
        );
    }
    KernelBenchOutcome { rows: rows.len() }
}
