//! Correctness of the parallel packed compute backend.
//!
//! The worker pool's decomposition is derived from the problem shape, not
//! the thread count, so every kernel is *bit-identical* across pool
//! sizes; the register-blocked microkernels perform the same per-element
//! fused operations in the same order on every instruction set, so
//! kernels are also bit-identical across `MEDSPLIT_ISA` settings. These
//! tests pin both guarantees, compare the packed GEMM against an
//! embedded copy of the seed repository's kernel (to the documented
//! tolerance — the fused microkernels round once per step where the seed
//! kernel rounds twice, so bit-equality with the seed is no longer the
//! contract), and assert the zero-steady-state-allocation property of
//! the conv forward pass, including when the warmup must reach every
//! pool worker.
//!
//! `pool::set_num_threads` and `simd::set_isa` are process-global and
//! the test harness runs tests concurrently, so every test here
//! serialises on [`POOL_LOCK`] and restores one thread / the detected
//! ISA before releasing it.

use std::sync::Mutex;

use medsplit::core::{
    ComputeModel, HierPolicy, HierReport, HierResilientTrainer, Platform, SplitConfig, SplitPoint,
    SplitTrainer, TrainingHistory, WireCodec,
};
use medsplit::data::{partition, InMemoryDataset, MinibatchPolicy, Partition, SyntheticTabular};
use medsplit::nn::{Architecture, LrSchedule, MlpConfig};
use medsplit::simnet::{ChaosTransport, FaultPlan, HierTopology, MemoryTransport, NodeId, StarTopology};
use medsplit_tensor::ops::conv::{conv2d_backward, conv2d_forward, Conv2dSpec};
use medsplit_tensor::{init::rng_from_seed, pool, scratch, simd, Encoding, Tensor};
use proptest::prelude::*;

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

/// The seed repository's GEMM: cache-blocked triple loop, including its
/// `aval == 0.0` skip branch. The packed backend must reproduce it
/// bit-for-bit at any thread count (the skip only elides exact zeros,
/// whose contribution `0.0 * b` is `+0.0`, absorbed by `+=`).
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

/// GEMM dimension sweep: degenerate (1xN / Nx1), below, at, and past the
/// 64-row panel and 128-deep K-block boundaries. The row count also
/// takes the MLP server's 256-row batch, so skinny outputs (`n` of 1, 2,
/// 3, 5 or 9) meet it in the swapped orientation. (A depth of 256 would
/// put the unfused seed kernel more than the tolerance below away from
/// the fused one, with or without the swap.)
fn gemm_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    const INTERESTING: [usize; 14] = [1, 2, 3, 5, 9, 17, 63, 64, 65, 66, 127, 128, 130, 256];
    fn dim(choices: usize) -> impl Strategy<Value = usize> {
        (0..choices).prop_map(|i| INTERESTING[i])
    }
    let all = INTERESTING.len();
    (dim(all), dim(all - 1), dim(all - 1))
}

fn rand_mat(rng: &mut impl rand::Rng, r: usize, c: usize) -> Tensor {
    Tensor::rand_uniform([r, c], -2.0, 2.0, rng)
}

proptest! {
    /// matmul / matmul_tn / matmul_nt are bit-identical across pool
    /// sizes (1, 2, and a deliberately odd 7) for arbitrary shapes.
    #[test]
    fn matmul_family_bit_identical_across_thread_counts((m, k, n) in gemm_dims()) {
        let mut rng = rng_from_seed((m * 1_000_003 + k * 1009 + n) as u64);
        let a = rand_mat(&mut rng, m, k);
        let b = rand_mat(&mut rng, k, n);
        let at = rand_mat(&mut rng, k, m);
        let bt = rand_mat(&mut rng, n, k);

        let runs = with_thread_counts(&[1, 2, 7], |_| {
            (
                a.matmul(&b).unwrap(),
                at.matmul_tn(&b).unwrap(),
                a.matmul_nt(&bt).unwrap(),
            )
        });
        let (r1, r2, r7) = (&runs[0], &runs[1], &runs[2]);
        prop_assert_eq!(r1.0.as_slice(), r2.0.as_slice());
        prop_assert_eq!(r1.0.as_slice(), r7.0.as_slice());
        prop_assert_eq!(r1.1.as_slice(), r2.1.as_slice());
        prop_assert_eq!(r1.1.as_slice(), r7.1.as_slice());
        prop_assert_eq!(r1.2.as_slice(), r2.2.as_slice());
        prop_assert_eq!(r1.2.as_slice(), r7.2.as_slice());
    }

    /// The packed GEMM agrees with the seed kernel within the documented
    /// 1e-5 relative tolerance at any pool size. (It is no longer
    /// bit-identical to the seed: the microkernels fuse each
    /// multiply-add into one rounding where the seed kernel rounds
    /// twice. Bit-equality guarantees now run across thread counts and
    /// ISAs, pinned by the other tests in this file.)
    #[test]
    fn packed_gemm_matches_seed_kernel((m, k, n) in gemm_dims()) {
        let mut rng = rng_from_seed((m * 31 + k * 7 + n) as u64 ^ 0xA5A5);
        let a = rand_mat(&mut rng, m, k);
        let b = rand_mat(&mut rng, k, n);
        let reference = seed_gemm(a.as_slice(), b.as_slice(), m, k, n);

        let runs = with_thread_counts(&[1, 2, 7], |_| a.matmul(&b).unwrap());
        for out in &runs {
            for (got, want) in out.as_slice().iter().zip(&reference) {
                prop_assert!(
                    (got - want).abs() <= 1e-5 * want.abs().max(1.0),
                    "got {got}, want {want}"
                );
            }
        }
    }

    /// Convolution forward and backward are bit-identical across pool
    /// sizes, including shapes that don't tile the batch chunking evenly.
    #[test]
    fn conv2d_bit_identical_across_thread_counts(
        n in 1usize..=5,
        c in 1usize..=3,
        o in 1usize..=4,
        hw in 3usize..=7,
    ) {
        let mut rng = rng_from_seed((n * 71 + c * 13 + o * 5 + hw) as u64);
        let input = Tensor::rand_uniform([n, c, hw, hw], -1.0, 1.0, &mut rng);
        let weight = Tensor::rand_uniform([o, c, 3, 3], -0.5, 0.5, &mut rng);
        let bias = Tensor::rand_uniform([o], -0.1, 0.1, &mut rng);
        let spec = Conv2dSpec::square(3, 1, 1);

        let runs = with_thread_counts(&[1, 2, 7], |_| {
            let out = conv2d_forward(&input, &weight, Some(&bias), spec).unwrap();
            let grad_out = out.scale(0.5);
            let (gi, gw, gb) =
                conv2d_backward(&input, &weight, &grad_out, spec).unwrap();
            (out, gi, gw, gb)
        });
        for other in &runs[1..] {
            prop_assert_eq!(runs[0].0.as_slice(), other.0.as_slice());
            prop_assert_eq!(runs[0].1.as_slice(), other.1.as_slice());
            prop_assert_eq!(runs[0].2.as_slice(), other.2.as_slice());
            prop_assert_eq!(runs[0].3.as_slice(), other.3.as_slice());
        }
    }
}

/// Conv forward allocates nothing per step once the thread-local scratch
/// arena is warm (single-thread pool so the warmup lands on one arena).
#[test]
fn conv_forward_zero_allocations_after_warmup() {
    let _guard = POOL_LOCK.lock().unwrap();
    pool::set_num_threads(1);

    let mut rng = rng_from_seed(99);
    let input = Tensor::rand_uniform([2, 3, 12, 12], -1.0, 1.0, &mut rng);
    let weight = Tensor::rand_uniform([8, 3, 3, 3], -0.5, 0.5, &mut rng);
    let bias = Tensor::rand_uniform([8], -0.1, 0.1, &mut rng);
    let spec = Conv2dSpec::square(3, 1, 1);

    // Warm the arena.
    for _ in 0..2 {
        conv2d_forward(&input, &weight, Some(&bias), spec).unwrap();
    }
    let before = scratch::stats();
    for _ in 0..10 {
        conv2d_forward(&input, &weight, Some(&bias), spec).unwrap();
    }
    let after = scratch::stats();
    assert_eq!(
        after.allocations, before.allocations,
        "conv forward grew the scratch arena after warmup"
    );
    assert_eq!(after.allocated_bytes, before.allocated_bytes);
    assert!(
        after.acquisitions > before.acquisitions,
        "conv forward stopped using the scratch arena"
    );
}

/// A small end-to-end split-training run over a star of four platforms;
/// returns the history as bits and every platform's `L1` weights, a
/// bit-level fingerprint of every kernel in the forward/backward/update
/// path and of the platforms' steps running side by side.
fn run_split() -> (Vec<u64>, Vec<Vec<u32>>) {
    let all = SyntheticTabular::new(3, 6, 5).generate(60).unwrap();
    let train: InMemoryDataset = all.subset(&(0..48).collect::<Vec<_>>()).unwrap();
    let test = all.subset(&(48..60).collect::<Vec<_>>()).unwrap();
    let arch = Architecture::Mlp(MlpConfig {
        input_dim: 6,
        hidden: vec![16, 8],
        num_classes: 3,
    });
    let shards = partition(&train, 4, &Partition::Iid, 1).unwrap();
    let transport = MemoryTransport::new(StarTopology::new(4));
    let config = SplitConfig {
        split: SplitPoint::Default,
        minibatch: MinibatchPolicy::Fixed(8),
        lr: LrSchedule::Constant(0.1),
        momentum: 0.9,
        rounds: 3,
        eval_every: 0,
        seed: 21,
        compute: ComputeModel::off(),
        ..SplitConfig::default()
    };
    let mut trainer = SplitTrainer::new(&arch, config, shards, test, &transport).unwrap();
    let history = trainer.run().unwrap();
    (history_bits(&history), l1_bits(trainer.platforms_mut()))
}

/// One full split-training run over four platforms is bit-identical at
/// 1, 2 and 4 threads, history and every `L1`. The backend's
/// decomposition is shape-derived and each platform step touches only
/// its own platform, so this holds exactly, not just within tolerance.
#[test]
fn split_training_round_deterministic_across_thread_counts() {
    let runs = with_thread_counts(&[1, 2, 4], |_| run_split());
    for (threads, run) in [2, 4].into_iter().zip(&runs[1..]) {
        assert_eq!(
            runs[0].0, run.0,
            "split training history diverged between 1 and {threads} threads"
        );
        assert_eq!(
            runs[0].1, run.1,
            "split training L1 weights diverged between 1 and {threads} threads"
        );
    }
}

/// `MEDSPLIT_ISA=scalar` and auto-dispatch produce bit-identical outputs
/// for the whole kernel family: all three GEMM variants (with edge
/// tiles), conv forward/backward, the dispatched elementwise ops, and the
/// int8 wire codec's absmax and quantiser (frames below, at and past the
/// vector width).
#[test]
fn kernels_bit_identical_across_isas() {
    let mut rng = rng_from_seed(1234);
    // Shapes straddle the MR=6 / NR=16 tile edges and a KC split.
    let a = rand_mat(&mut rng, 67, 130);
    let b = rand_mat(&mut rng, 130, 49);
    let at = rand_mat(&mut rng, 130, 67);
    let bt = rand_mat(&mut rng, 49, 130);
    let input = Tensor::rand_uniform([2, 3, 9, 9], -1.0, 1.0, &mut rng);
    let weight = Tensor::rand_uniform([5, 3, 3, 3], -0.5, 0.5, &mut rng);
    let spec = Conv2dSpec::square(3, 1, 1);
    let x = Tensor::rand_uniform([777], -2.0, 2.0, &mut rng);
    let g = Tensor::rand_uniform([777], -1.0, 1.0, &mut rng);
    let mut wire = Tensor::rand_uniform([777], -3.0, 3.0, &mut rng);
    for (i, v) in [f32::NAN, -0.0, 0.0, -f32::NAN, 1e-42].into_iter().enumerate() {
        wire.as_mut_slice()[i * 97 + 3] = v;
    }

    let (scalar_frames, native_frames) = with_isas(|| {
        let mut frames = Vec::new();
        for len in [0, 1, 15, 16, 17, 31, 32, 33, 777] {
            let head = Tensor::from_vec(wire.as_slice()[..len].to_vec(), [len]).unwrap();
            frames.push(head.encode(Encoding::Int8));
            frames.push(wire.encode_rows(777 - len..777, Encoding::Int8).unwrap());
        }
        frames
    });
    for (i, (s, v)) in scalar_frames.iter().zip(&native_frames).enumerate() {
        assert_eq!(s, v, "int8 frame #{i} diverged between scalar and native ISA");
    }

    let (scalar, native) = with_isas(|| {
        let conv = conv2d_forward(&input, &weight, None, spec).unwrap();
        let (gi, gw, gb) = conv2d_backward(&input, &weight, &conv.scale(0.5), spec).unwrap();
        let mut acc = x.clone();
        acc.axpy(0.37, &g).unwrap();
        acc.add_assign(&g).unwrap();
        acc.scale_inplace(-1.25);
        vec![
            a.matmul(&b).unwrap(),
            at.matmul_tn(&b).unwrap(),
            a.matmul_nt(&bt).unwrap(),
            conv,
            gi,
            gw,
            gb,
            x.relu(),
            x.relu().relu_backward(&g).unwrap(),
            x.leaky_relu(0.01),
            x.leaky_relu_backward(0.01, &g).unwrap(),
            acc,
            (&x * &g),
            (&x + &g),
        ]
    });
    for (i, (s, v)) in scalar.iter().zip(&native).enumerate() {
        let sb: Vec<u32> = s.as_slice().iter().map(|f| f.to_bits()).collect();
        let vb: Vec<u32> = v.as_slice().iter().map(|f| f.to_bits()).collect();
        assert_eq!(sb, vb, "kernel #{i} diverged between scalar and native ISA");
    }
}

/// A full training run is bit-identical between `MEDSPLIT_ISA=scalar`
/// and auto-dispatch — the acceptance guarantee for the SIMD backend.
#[test]
fn split_training_bit_identical_across_isas() {
    let (scalar, native) = with_isas(run_split);
    assert_eq!(
        scalar, native,
        "split training diverged between scalar and native ISA"
    );
}

/// Every simulated quantity of a history, as bits (wall time excluded).
fn history_bits(h: &TrainingHistory) -> Vec<u64> {
    let mut bits = vec![
        u64::from(h.final_accuracy.to_bits()),
        h.stats.total_bytes,
        h.stats.logical_bytes,
        h.stats.messages,
        h.stats.makespan_s.to_bits(),
    ];
    for r in &h.records {
        bits.extend([
            r.round as u64,
            u64::from(r.lr.to_bits()),
            u64::from(r.mean_loss.to_bits()),
            r.cumulative_bytes,
            r.simulated_time_s.to_bits(),
            r.participants as u64,
            u64::from(r.degraded),
            r.accuracy.map_or(u64::MAX, |a| u64::from(a.to_bits())),
        ]);
    }
    bits
}

/// Every platform's `L1` weights as bits.
fn l1_bits(platforms: &mut [Platform]) -> Vec<Vec<u32>> {
    platforms
        .iter_mut()
        .map(|p| p.l1_parameters().as_slice().iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// A 2×2 relay hierarchy under the int8 codec: every activation and
/// cut-gradient frame goes through the dispatched absmax and quantiser,
/// so the history and each platform's `L1` weights are a bit-level
/// fingerprint of both. Returns the fault report too.
fn run_hier_int8(
    plan: FaultPlan,
    rounds: usize,
    shards: Partition,
    minibatch: MinibatchPolicy,
) -> (Vec<u64>, HierReport, Vec<Vec<u32>>) {
    let topo = HierTopology::new(2, 2);
    let train = SyntheticTabular::new(3, 8, 0).generate(160).unwrap();
    let test = SyntheticTabular::new(3, 8, 1).generate(40).unwrap();
    let shards = partition(&train, topo.platforms(), &shards, 1).unwrap();
    let arch = Architecture::Mlp(MlpConfig {
        input_dim: 8,
        hidden: vec![16],
        num_classes: 3,
    });
    let config = SplitConfig {
        rounds,
        eval_every: 2,
        lr: LrSchedule::Constant(0.1),
        minibatch,
        codec: WireCodec::Int8,
        ..SplitConfig::default()
    };
    let chaos = ChaosTransport::new(MemoryTransport::new(topo.clone()), plan);
    let mut trainer =
        HierResilientTrainer::new(&arch, config, HierPolicy::default(), topo, shards, test, &chaos).unwrap();
    let history = trainer.run().unwrap();
    let report = trainer.report().clone();
    (history_bits(&history), report, l1_bits(trainer.platforms_mut()))
}

/// The int8-codec hierarchy is bit-identical between `MEDSPLIT_ISA=scalar`
/// and auto-dispatch.
#[test]
fn hier_int8_training_bit_identical_across_isas() {
    let (scalar, native) =
        with_isas(|| run_hier_int8(FaultPlan::new(5), 4, Partition::Iid, MinibatchPolicy::Fixed(10)));
    assert_eq!(scalar.0, native.0, "int8 hierarchy history diverged between ISAs");
    assert_eq!(
        scalar.2, native.2,
        "int8 hierarchy L1 weights diverged between ISAs"
    );
}

/// The fault-tolerant engine runs its platforms' steps side by side
/// between its receives and its sends; under every fault the chaos
/// transport injects (loss, corruption, duplicates, reordering, a
/// platform crash and rejoin, a relay crash), its sends, retries and
/// chaos RNG draws must not depend on the pool size. Shards and
/// minibatches are skewed so the platforms' steps take unequal time and
/// finish out of pid order on two or more threads.
#[test]
fn hier_engine_bit_identical_across_thread_counts() {
    let plan = FaultPlan::new(17)
        .with_drop(0.08)
        .with_corrupt(0.05)
        .with_dup(0.05)
        .with_reorder(0.1)
        .crash(NodeId::Platform(3), 2)
        .recover(NodeId::Platform(3), 5)
        .crash_relay(0, 4)
        .recover_relay(0, 6);
    let skewed = Partition::PowerLaw { alpha: 1.5 };
    let batches = MinibatchPolicy::Proportional { global: 120 };
    let runs = with_thread_counts(&[1, 2, 4], |_| {
        run_hier_int8(plan.clone(), 8, skewed.clone(), batches)
    });
    let (bits, report, l1) = &runs[0];
    assert!(
        report.base.retries > 0 && report.base.checksum_rejections > 0,
        "the plan must exercise retries and corruption: {report:?}"
    );
    assert_eq!((report.base.crashes, report.base.rejoins), (1, 1));
    assert_eq!(report.relay_crashes, 1);
    assert!(report.rehomes > 0, "the relay crash must re-home platforms");
    for (threads, run) in [2, 4].into_iter().zip(&runs[1..]) {
        assert_eq!(bits, &run.0, "hierarchy history diverged at {threads} threads");
        assert_eq!(report, &run.1, "HierReport diverged at {threads} threads");
        assert_eq!(l1, &run.2, "hierarchy L1 weights diverged at {threads} threads");
    }
}

/// The bench-harness failure mode behind the nonzero
/// `scratch_allocs_per_step` rows: workers spawned by an earlier,
/// larger pool persist, and jobs go to whichever workers win the queue
/// race — so a plain warmup call misses some arenas. `pool::warmup`
/// broadcasts to every spawned worker; after it, conv forward allocates
/// nothing at *any* smaller thread count.
#[test]
fn conv_warmup_covers_every_pool_worker() {
    let _guard = POOL_LOCK.lock().unwrap();

    let mut rng = rng_from_seed(4242);
    let input = Tensor::rand_uniform([4, 3, 12, 12], -1.0, 1.0, &mut rng);
    let weight = Tensor::rand_uniform([8, 3, 3, 3], -0.5, 0.5, &mut rng);
    let bias = Tensor::rand_uniform([8], -0.1, 0.1, &mut rng);
    let spec = Conv2dSpec::square(3, 1, 1);
    let body = || {
        conv2d_forward(&input, &weight, Some(&bias), spec).unwrap();
    };

    // Leave four workers alive, then shrink the pool: the 2-thread rounds
    // below can land on any of them.
    pool::set_num_threads(4);
    pool::warmup(body);
    pool::set_num_threads(2);
    pool::warmup(body);

    let before = scratch::stats();
    for _ in 0..20 {
        body();
    }
    let after = scratch::stats();
    pool::set_num_threads(1);
    assert_eq!(
        after.allocations, before.allocations,
        "a cold pool worker grew its scratch arena after a broadcast warmup"
    );
    assert!(after.acquisitions > before.acquisitions);
}
