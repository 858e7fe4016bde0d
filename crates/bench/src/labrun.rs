//! The bridge between `medsplit-lab` manifests and this crate's
//! workloads: a [`medsplit_lab::BenchRunner`] that executes each matrix
//! point in-process.
//!
//! ## Bench axis values
//!
//! | `bench` | workload |
//! |---------|----------|
//! | `split_train` | a [`ResilientTrainer`] run shaped by the point's model / topology / fault / codec / threads / seed axes |
//! | `split`, `split_l1avg`, `split_ushape`, `split_equal`, `sync_sgd`, `fedavg`, `local_only`, `centralized` | one training method on a [`Workload`] under the paper-figure recipe (see [`METHODS`]) |
//! | `table1`, `fig5`, `fig7`, `fig8` | the paper's other figures on a vision [`Workload`] (see [`FIGURES`]) |
//! | `serve`, `fleet` | the serving sweeps: split inference under offered load, on one server or a fleet of replicas (see [`SERVING`]) |
//! | `kernel_smoke` | [`crate::bins::kernel_bench`] `--smoke` (its own asserts; the row count is a timing) |
//! | `trace_smoke` | [`crate::bins::trace_report`] `--smoke` |
//!
//! ## Determinism partitioning
//!
//! Everything this runner reports as a *metric* is bit-reproducible:
//! workload scalars (accuracies, wire bytes, simulated makespan,
//! digests) and the `net.*` telemetry counters, whose values are fixed
//! by the protocol regardless of thread interleaving. Everything racy —
//! wall-clock seconds, pool/serve counters subject to work-stealing,
//! gauges, histogram sums — goes into *timings*, which `lab` records in
//! the digest-excluded `timings.json`. This split is what lets CI assert
//! that two `lab run`s of the same manifest produce byte-identical
//! `metrics.json` files.

use std::path::Path;
use std::time::Instant;

use medsplit_baselines::{
    train_centralized, train_fedavg, train_local_only, train_sync_sgd, FedAvgOptions, SyncSgdOptions,
};
use medsplit_core::{
    build_split, comm, ComputeModel, HierPolicy, HierResilientTrainer, L1Sync, Platform, ResilientTrainer,
    SplitConfig, SplitPoint, SplitServer, SplitTrainer, TrainingHistory, UShapeTrainer, WireCodec,
};
use medsplit_data::{partition, InMemoryDataset, MinibatchPolicy, Partition, SyntheticTabular};
use medsplit_fleet::{run_fleet, FleetConfig, CLASSES, FEATURES};
use medsplit_lab::{BenchRunner, Manifest, MetricValue, PointOutcome, RunPoint};
use medsplit_nn::{Architecture, LrSchedule, MlpConfig};
use medsplit_privacy::{distance_correlation, flatten_samples, reconstruction_attack};
use medsplit_serve::{serve_threaded, ServeConfig, ServeOutcome};
use medsplit_simnet::{
    ChaosTransport, FaultPlan, HierTopology, LinkSpec, MemoryTransport, MessageKind, NodeId, StarTopology,
};
use medsplit_telemetry::{MetricSnapshot, Trace};
use medsplit_tensor::{fnv1a, init::rng_from_seed, pool, simd, Tensor, FNV_OFFSET};

use crate::workload::{DatasetKind, ModelKind, Workload};

/// Executes lab matrix points against the medsplit workloads.
#[derive(Debug, Default)]
pub struct MedsplitRunner;

/// Telemetry counters that are deterministic by protocol construction
/// (wire accounting) and therefore belong in the digested metrics.
fn counter_is_deterministic(name: &str) -> bool {
    name.starts_with("net.")
}

/// Splits a telemetry snapshot into deterministic metrics and racy
/// timings per the partitioning contract above.
fn partition_snapshot(
    snapshot: &[MetricSnapshot],
    metrics: &mut Vec<(String, MetricValue)>,
    timings: &mut Vec<(String, f64)>,
) {
    for m in snapshot {
        match m {
            MetricSnapshot::Counter { name, value } => {
                if counter_is_deterministic(name) {
                    metrics.push((name.clone(), MetricValue::Num(*value as f64)));
                } else {
                    timings.push((name.clone(), *value as f64));
                }
            }
            MetricSnapshot::Gauge { name, value } => timings.push((name.clone(), *value)),
            MetricSnapshot::Histogram { name, count, sum, .. } => {
                timings.push((format!("{name}.count"), *count as f64));
                timings.push((format!("{name}.sum"), *sum));
            }
        }
    }
}

fn parse_isa(name: &str) -> Result<simd::Isa, String> {
    match name {
        "auto" => Ok(simd::detect()),
        "scalar" => Ok(simd::Isa::Scalar),
        "avx2" => Ok(simd::Isa::Avx2),
        other => Err(format!("unknown isa axis value {other:?}")),
    }
}

/// The architecture a `model` axis value names, and its per-platform
/// minibatch. `mlp_cut128` is the wide cut (128 activations per sample,
/// batch 64) where tensor payloads, not frame headers, dominate the
/// wire, as they do for the paper's CNNs.
fn parse_model(name: &str) -> Result<(Architecture, usize), String> {
    let (input_dim, hidden, batch) = match name {
        "mlp" => (8, vec![16], 10),
        "mlp_wide" => (8, vec![32, 16], 10),
        "mlp_cut128" => (32, vec![128], 64),
        other => return Err(format!("unknown model axis value {other:?}")),
    };
    let arch = Architecture::Mlp(MlpConfig {
        input_dim,
        hidden,
        num_classes: 3,
    });
    Ok((arch, batch))
}

/// The shape named by a `topology` axis value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TopologyAxis {
    /// `starN`: N platforms directly on the server.
    Star(usize),
    /// `hierR_P`: R regions of P platforms each, one relay per region.
    Hier { regions: usize, per_region: usize },
}

impl TopologyAxis {
    fn platforms(self) -> usize {
        match self {
            TopologyAxis::Star(n) => n,
            TopologyAxis::Hier { regions, per_region } => regions * per_region,
        }
    }
}

/// `starN` → N platforms on a star; `hierR_P` → R regions × P platforms
/// behind regional relays.
fn parse_topology(topology: &str) -> Result<TopologyAxis, String> {
    if let Some(n) = topology.strip_prefix("star") {
        let n: usize = n
            .parse()
            .map_err(|_| format!("unknown topology axis value {topology:?} (expected starN or hierR_P)"))?;
        if n < 2 {
            return Err(format!("topology {topology:?} needs at least 2 platforms"));
        }
        return Ok(TopologyAxis::Star(n));
    }
    if let Some(shape) = topology.strip_prefix("hier") {
        let (regions, per_region) = shape
            .split_once('_')
            .ok_or_else(|| format!("topology {topology:?}: expected hierR_P (regions_platforms)"))?;
        let regions: usize = regions
            .parse()
            .map_err(|_| format!("topology {topology:?}: bad region count"))?;
        let per_region: usize = per_region
            .parse()
            .map_err(|_| format!("topology {topology:?}: bad per-region platform count"))?;
        if regions == 0 || per_region == 0 {
            return Err(format!(
                "topology {topology:?} needs at least one region and platform"
            ));
        }
        if regions * per_region < 2 {
            return Err(format!("topology {topology:?} needs at least 2 platforms"));
        }
        return Ok(TopologyAxis::Hier { regions, per_region });
    }
    Err(format!(
        "unknown topology axis value {topology:?} (expected starN or hierR_P)"
    ))
}

/// Fault-plan grammar for the `fault` axis: `clean`, or one or more of
/// these tokens joined by `+` (e.g. `drop10+crash_10_20`), applied in
/// order to one plan: `dropNN` (NN percent per-message loss),
/// `crash_C_R` (platform 1 down for rounds `[C, R)`), `straggler`
/// (platform 1 pays 0.5 s on each send to the server),
/// `relaycrash_C_R` (relay 1 down for rounds `[C, R)`, hierarchical
/// topologies with ≥ 2 regions only) and `partition_G_C_R` (region G cut
/// off from everything outside it for rounds `[C, R)`, hierarchical
/// topologies only). Malformed, empty or topology-incompatible tokens,
/// and `clean` in a composition, are hard errors. The plan is seeded
/// from the point's seed so fault schedules replay with the run.
fn parse_fault(fault: &str, seed: u64, topo: TopologyAxis) -> Result<FaultPlan, String> {
    let plan = FaultPlan::new(seed);
    if fault == "clean" {
        return Ok(plan);
    }
    fault
        .split('+')
        .try_fold(plan, |plan, token| add_fault(plan, token, topo))
}

/// Adds one `+`-separated token of the `fault` grammar to `plan`.
fn add_fault(plan: FaultPlan, fault: &str, topo: TopologyAxis) -> Result<FaultPlan, String> {
    if fault == "clean" {
        return Err("fault \"clean\" cannot be combined with other faults".into());
    }
    if let Some(pct) = fault.strip_prefix("drop") {
        let pct: f64 = pct
            .parse()
            .map_err(|_| format!("fault {fault:?}: dropNN takes an integer percent"))?;
        if !(0.0..=90.0).contains(&pct) {
            return Err(format!("fault {fault:?}: drop percent out of range"));
        }
        return Ok(plan.with_drop(pct / 100.0));
    }
    if let Some(window) = fault.strip_prefix("relaycrash_") {
        let TopologyAxis::Hier { regions, .. } = topo else {
            return Err(format!(
                "fault {fault:?} requires a hierarchical (hierR_P) topology"
            ));
        };
        if regions < 2 {
            return Err(format!(
                "fault {fault:?} crashes relay 1 and needs at least 2 regions"
            ));
        }
        let (crash, recover) = parse_round_window(fault, window, "relaycrash_C_R")?;
        return Ok(plan.crash_relay(1, crash).recover_relay(1, recover));
    }
    if let Some(spec) = fault.strip_prefix("partition_") {
        let TopologyAxis::Hier { regions, per_region } = topo else {
            return Err(format!(
                "fault {fault:?} requires a hierarchical (hierR_P) topology"
            ));
        };
        let (region, window) = spec
            .split_once('_')
            .ok_or_else(|| format!("fault {fault:?}: expected partition_G_C_R"))?;
        let region: usize = region
            .parse()
            .map_err(|_| format!("fault {fault:?}: bad region index"))?;
        if region >= regions {
            return Err(format!(
                "fault {fault:?}: region {region} out of range for {regions} regions"
            ));
        }
        let (down, up) = parse_round_window(fault, window, "partition_G_C_R")?;
        let hier = HierTopology::new(regions, per_region);
        return Ok(plan.partition_region(&hier, region, down, up));
    }
    if let Some(window) = fault.strip_prefix("crash_") {
        let (crash, recover) = parse_round_window(fault, window, "crash_C_R")?;
        return Ok(plan
            .crash(NodeId::Platform(1), crash)
            .recover(NodeId::Platform(1), recover));
    }
    if fault == "straggler" {
        return Ok(plan.straggler(NodeId::Platform(1), 0.5));
    }
    Err(format!("unknown fault axis value {fault:?}"))
}

/// Parses the `C_R` tail shared by the windowed fault tokens.
fn parse_round_window(fault: &str, window: &str, shape: &str) -> Result<(u64, u64), String> {
    let (start, end) = window
        .split_once('_')
        .ok_or_else(|| format!("fault {fault:?}: expected {shape}"))?;
    let start: u64 = start
        .parse()
        .map_err(|_| format!("fault {fault:?}: bad start round"))?;
    let end: u64 = end
        .parse()
        .map_err(|_| format!("fault {fault:?}: bad end round"))?;
    if end <= start {
        return Err(format!("fault {fault:?}: the window must end after it starts"));
    }
    Ok((start, end))
}

fn parse_codec(codec: &str) -> Result<WireCodec, String> {
    match codec {
        "f32" => Ok(WireCodec::F32),
        "f16" => Ok(WireCodec::F16),
        "int8" => Ok(WireCodec::Int8),
        other => Err(format!(
            "unknown codec axis value {other:?} (expected \"f32\", \"f16\", or \"int8\")"
        )),
    }
}

/// The `split_train` workload: a resilient split-training run over the
/// chaos transport, shaped entirely by the point's axes and the
/// manifest's `[run]` options.
fn run_split_train(point: &RunPoint, manifest: &Manifest) -> Result<PointOutcome, String> {
    let topo = parse_topology(&point.topology)?;
    let platforms = topo.platforms();
    let (arch, batch) = parse_model(&point.model)?;
    let plan = parse_fault(&point.fault, point.seed, topo)?;
    let samples = manifest.run.samples;
    let rounds = manifest.run.rounds;

    // Train and test rows come from one generator: its class centres are
    // drawn from the seed, so another seed's rows carry unrelated labels.
    let n_test = (samples / 4).max(8);
    let input_dim = arch.input_dims().iter().product();
    let all = SyntheticTabular::new(3, input_dim, point.seed)
        .generate(samples + n_test)
        .map_err(|e| format!("data: {e}"))?;
    let rows = |range: std::ops::Range<usize>| {
        all.subset(&range.collect::<Vec<_>>())
            .map_err(|e| format!("data split: {e}"))
    };
    let (train, test) = (rows(0..samples)?, rows(samples..samples + n_test)?);
    let shards =
        partition(&train, platforms, &Partition::Iid, point.seed).map_err(|e| format!("shards: {e}"))?;

    // The default quorum of one tolerates the injected faults.
    let config = SplitConfig {
        rounds,
        eval_every: rounds,
        lr: LrSchedule::Constant(0.1),
        minibatch: MinibatchPolicy::Fixed(batch),
        seed: point.seed,
        codec: parse_codec(&point.codec)?,
        ..SplitConfig::default()
    };

    // (retries, checksum_rejections, quorum_failures) plus the
    // hierarchy-only counters, zero on the star path.
    let (history, resilience, hier_extra) = match topo {
        TopologyAxis::Star(n) => {
            let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(n)), plan);
            let mut trainer = ResilientTrainer::new(&arch, config, shards, test, &chaos)
                .map_err(|e| format!("trainer: {e}"))?;
            let history = trainer.run().map_err(|e| format!("training: {e}"))?;
            (history, trainer.report(), None)
        }
        TopologyAxis::Hier { regions, per_region } => {
            let hier_topo = HierTopology::new(regions, per_region);
            let chaos = ChaosTransport::new(MemoryTransport::new(hier_topo.clone()), plan);
            let mut trainer = HierResilientTrainer::new(
                &arch,
                config,
                HierPolicy::default(),
                hier_topo,
                shards,
                test,
                &chaos,
            )
            .map_err(|e| format!("trainer: {e}"))?;
            let history = trainer.run().map_err(|e| format!("training: {e}"))?;
            let report = trainer.report().clone();
            (history, report.base, Some(report))
        }
    };

    let mut metrics: Vec<(String, MetricValue)> = vec![
        // f32 → f64 is exact, so accuracy still compares bit-for-bit.
        (
            "final_accuracy".into(),
            MetricValue::Num(f64::from(history.final_accuracy)),
        ),
        (
            "rounds_completed".into(),
            MetricValue::Num(history.records.len() as f64),
        ),
        (
            "degraded_rounds".into(),
            MetricValue::Num(history.degraded_rounds() as f64),
        ),
        (
            "total_bytes".into(),
            MetricValue::Num(history.stats.total_bytes as f64),
        ),
        // What the same messages cost as f32 payloads: the same on every
        // codec.
        (
            "logical_bytes".into(),
            MetricValue::Num(history.stats.logical_bytes as f64),
        ),
        ("messages".into(), MetricValue::Num(history.stats.messages as f64)),
        (
            "uplink_bytes".into(),
            MetricValue::Num(history.stats.uplink_bytes as f64),
        ),
        (
            "downlink_bytes".into(),
            MetricValue::Num(history.stats.downlink_bytes as f64),
        ),
        // The simulated clock, not wall time — deterministic.
        ("makespan_s".into(), MetricValue::Num(history.stats.makespan_s)),
        ("retries".into(), MetricValue::Num(resilience.retries as f64)),
        (
            "checksum_rejections".into(),
            MetricValue::Num(resilience.checksum_rejections as f64),
        ),
        (
            "quorum_failures".into(),
            MetricValue::Num(resilience.quorum_failures as f64),
        ),
    ];
    if let Some(hier) = hier_extra {
        // Routing and batching are protocol-determined, so these digest
        // alongside the wire-byte metrics.
        metrics.push(("rehomes".into(), MetricValue::Num(hier.rehomes as f64)));
        metrics.push((
            "direct_fallbacks".into(),
            MetricValue::Num(hier.direct_fallbacks as f64),
        ));
        metrics.push((
            "orphaned_platform_rounds".into(),
            MetricValue::Num(hier.orphaned_platform_rounds as f64),
        ));
        metrics.push((
            "relay_batches".into(),
            MetricValue::Num(hier.relay_batches as f64),
        ));
        metrics.push((
            "region_quorum_drops".into(),
            MetricValue::Num(hier.region_quorum_drops as f64),
        ));
        for (g, &bytes) in hier.region_bytes.iter().enumerate() {
            metrics.push((format!("region{g}_bytes"), MetricValue::Num(bytes as f64)));
        }
    }
    let mut timings = Vec::new();
    partition_snapshot(
        &medsplit_telemetry::snapshot_metrics(),
        &mut metrics,
        &mut timings,
    );
    Ok(PointOutcome {
        metrics,
        timings,
        trace_jsonl: None,
    })
}

/// The `bench` values that each run one training method on a
/// [`Workload`]: the paper's Fig. 4, Fig. 6 and Tables 2–3. Every method
/// shares one recipe: a WAN star, `Proportional { global: 32 }`
/// minibatches (`split_equal`: an equal share of 32 per platform), lr
/// 0.05, momentum 0.9, [`ComputeModel::hospital_default`], and an
/// evaluation every `rounds / 20` rounds (below 20 rounds, only after the
/// last). FedAvg runs five local steps a round, so a fifth of the rounds,
/// evaluated at the same step counts.
/// `split_l1avg` averages the platforms' `L1` every 10 rounds and
/// `split_ushape` keeps the classifier head on the platforms.
pub const METHODS: &[&str] = &[
    "split",
    "split_l1avg",
    "split_ushape",
    "split_equal",
    "sync_sgd",
    "fedavg",
    "local_only",
    "centralized",
];

/// The global minibatch of a method point.
const GLOBAL_BATCH: usize = 32;

/// Evaluations per method run.
const EVALUATIONS: usize = 20;

/// FedAvg on `config`: five local steps a round, so a fifth of the
/// rounds, evaluated at the same step counts as the other methods (an
/// `eval_every` of 0 still means only at the end).
fn fedavg_config(config: &SplitConfig) -> (SplitConfig, FedAvgOptions) {
    let options = FedAvgOptions { local_steps: 5 };
    let in_rounds = |steps: usize| (steps / options.local_steps).max(1);
    let mut fedavg = SplitConfig {
        rounds: in_rounds(config.rounds),
        ..config.clone()
    };
    if config.eval_every > 0 {
        fedavg.eval_every = in_rounds(config.eval_every);
    }
    (fedavg, options)
}

/// Checks a method point's axes: a [`Workload`] model value, a star
/// topology, no fault and a known codec. Returns the workload, the
/// platform count and the codec.
fn parse_method_point(point: &RunPoint) -> Result<(Workload, usize, WireCodec), String> {
    let workload = Workload::parse(&point.model).ok_or_else(|| {
        format!(
            "unknown model {:?} for bench {:?} (expected vgg_c10, vgg_c100, resnet_c10, resnet_c100, \
             tab_iid, tab_dir03 or tab_dir05)",
            point.model, point.bench
        )
    })?;
    let TopologyAxis::Star(platforms) = parse_topology(&point.topology)? else {
        return Err(format!(
            "bench {:?} runs on a starN topology, not {:?}",
            point.bench, point.topology
        ));
    };
    if point.fault != "clean" {
        return Err(format!(
            "bench {:?} runs fault-free, not {:?}",
            point.bench, point.fault
        ));
    }
    Ok((workload, platforms, parse_codec(&point.codec)?))
}

/// A fresh star of `platforms` over WAN links.
fn wan_star(platforms: usize) -> MemoryTransport {
    MemoryTransport::new(StarTopology::new(platforms))
}

/// Trains `method` (one of [`METHODS`]) over a fresh WAN star.
fn train_method(
    method: &str,
    arch: &Architecture,
    config: SplitConfig,
    shards: Vec<InMemoryDataset>,
    test: InMemoryDataset,
) -> medsplit_core::Result<TrainingHistory> {
    let platforms = shards.len();
    let star = wan_star(platforms);
    let split = |config| SplitTrainer::new(arch, config, shards.clone(), test.clone(), &star)?.run();
    match method {
        "split" => split(config),
        "split_l1avg" => split(SplitConfig {
            l1_sync: L1Sync::PeriodicAverage { every: 10 },
            ..config
        }),
        "split_equal" => split(SplitConfig {
            minibatch: MinibatchPolicy::Fixed((GLOBAL_BATCH / platforms).max(1)),
            ..config
        }),
        "split_ushape" => UShapeTrainer::new(arch, config, 1, shards, test, &star)?.run(),
        "sync_sgd" => train_sync_sgd(arch, &config, SyncSgdOptions::default(), shards, &test, &star),
        "fedavg" => {
            let (config, options) = fedavg_config(&config);
            train_fedavg(arch, &config, options, shards, &test, &star)
        }
        "local_only" => Ok(train_local_only(arch, &config, &shards, &test)?.0),
        "centralized" => train_centralized(arch, &config, &shards, &test, &star),
        other => unreachable!("{other:?} is not in METHODS"),
    }
}

/// What a method or figure point trains: a workload's architecture,
/// `[run] samples` training rows over the platforms' shards, a quarter as
/// many test rows, and the shared config.
struct Recipe {
    arch: Architecture,
    shards: Vec<InMemoryDataset>,
    test: InMemoryDataset,
    config: SplitConfig,
}

/// The [`Recipe`] of `workload` on `platforms`.
fn recipe(
    workload: &Workload,
    platforms: usize,
    codec: WireCodec,
    point: &RunPoint,
    manifest: &Manifest,
) -> Result<Recipe, String> {
    let (rounds, samples) = (manifest.run.rounds, manifest.run.samples);
    let (arch, shards, test) = workload
        .build(platforms, samples, samples / 4, point.seed)
        .map_err(|e| format!("data: {e}"))?;
    let config = SplitConfig {
        minibatch: MinibatchPolicy::Proportional { global: GLOBAL_BATCH },
        rounds,
        eval_every: rounds / EVALUATIONS,
        seed: point.seed,
        compute: ComputeModel::hospital_default(),
        codec,
        ..SplitConfig::default()
    };
    Ok(Recipe {
        arch,
        shards,
        test,
        config,
    })
}

/// A method point: [`train_method`] on the point's [`Recipe`]. Reports
/// the totals and every recorded evaluation as `curve.NN.bytes` /
/// `curve.NN.accuracy`, so a figure's curves are the baseline itself.
fn run_method(point: &RunPoint, manifest: &Manifest) -> Result<Vec<(String, f64)>, String> {
    let (workload, platforms, codec) = parse_method_point(point)?;
    let Recipe {
        arch,
        shards,
        test,
        config,
    } = recipe(&workload, platforms, codec, point, manifest)?;
    let history =
        train_method(&point.bench, &arch, config, shards, test).map_err(|e| format!("training: {e}"))?;
    let stats = &history.stats;
    let mut metrics: Vec<(String, f64)> = vec![
        ("final_accuracy".into(), f64::from(history.final_accuracy)),
        ("total_bytes".into(), stats.total_bytes as f64),
        ("logical_bytes".into(), stats.logical_bytes as f64),
        ("messages".into(), stats.messages as f64),
        (
            "raw_data_bytes".into(),
            stats.bytes_of(MessageKind::RawData) as f64,
        ),
        ("makespan_s".into(), stats.makespan_s),
    ];
    for (i, (bytes, accuracy)) in history.curve().into_iter().enumerate() {
        metrics.push((format!("curve.{i:02}.bytes"), bytes as f64));
        metrics.push((format!("curve.{i:02}.accuracy"), f64::from(accuracy)));
    }
    Ok(metrics)
}

/// The `bench` values of the paper's other figures. Each runs on a
/// vision `model` value over the method points' star, and reports row
/// `NN` of a sweep as `<row>.NN.<column>`:
///
/// - `table1`: the paper-size model's parameters, activation floats per
///   sample at the cut, per-round bytes of split, FedAvg and sync SGD at
///   `FULL_SIZE_BATCH` per platform, and the crossover minibatch.
/// - `fig8`: the paper-size model's round time over links of each
///   bandwidth in `FIG8_MBPS` (`bandwidth.NN.*`).
/// - `fig5`: `split` trained on the method recipe once per cut in
///   `FIG5_CUTS`, each probed by `probe_leakage` (`cut.NN.*`).
/// - `fig7`: the same once per activation-noise σ in `FIG7_SIGMAS`
///   (`noise.NN.*`).
pub const FIGURES: &[&str] = &["table1", "fig5", "fig7", "fig8"];

/// Per-platform minibatch of the analytic figures.
const FULL_SIZE_BATCH: usize = 32;

/// Fig. 8's link bandwidths, Mbit/s, up and down alike.
const FIG8_MBPS: [f64; 6] = [10.0, 50.0, 100.0, 500.0, 1000.0, 10_000.0];

/// Fig. 5's cuts, as layer indices of the lite VGG: after the ReLU and
/// after the pool of its first and second stages, and after its third
/// stage's ReLU.
const FIG5_CUTS: [usize; 5] = [3, 4, 7, 8, 11];

/// Fig. 7's activation-noise standard deviations.
const FIG7_SIGMAS: [f32; 5] = [0.0, 0.5, 1.0, 2.0, 4.0];

/// Test rows the leakage probe feeds through `L1`.
const PROBE_ROWS: usize = 96;

/// Checks a figure point: a method point on a vision workload. Returns
/// the model, the dataset, the platform count and the codec.
fn parse_figure_point(point: &RunPoint) -> Result<(ModelKind, DatasetKind, usize, WireCodec), String> {
    let (workload, platforms, codec) = parse_method_point(point)?;
    let Workload::Vision(model, dataset) = workload else {
        return Err(format!(
            "bench {:?} runs on vgg_c10, vgg_c100, resnet_c10 or resnet_c100, not {:?}",
            point.bench, point.model
        ));
    };
    Ok((model, dataset, platforms, codec))
}

/// The paper-size architecture of a vision workload and its activation
/// dims per sample at the default cut.
fn full_size(model: ModelKind, dataset: DatasetKind) -> (Architecture, Vec<usize>) {
    let arch = model.full_arch(dataset.classes());
    let act_dims = match &arch {
        Architecture::Vgg(c) => vec![c.stages[0][0], c.input_hw, c.input_hw],
        Architecture::ResNet(c) => vec![c.base_width, c.input_hw, c.input_hw],
        Architecture::Mlp(_) => unreachable!("paper-size models are CNNs"),
    };
    (arch, act_dims)
}

/// Table 1 on a star of `platforms`.
fn table1(model: ModelKind, dataset: DatasetKind, platforms: usize) -> Vec<(String, f64)> {
    let (arch, act_dims) = full_size(model, dataset);
    let classes = dataset.classes();
    let params = arch.param_count();
    let act_floats: usize = act_dims.iter().product();
    let split = comm::split_round_bytes(&vec![FULL_SIZE_BATCH; platforms], &act_dims, classes);
    vec![
        ("params".into(), params as f64),
        ("cut_floats".into(), act_floats as f64),
        ("split_round_bytes".into(), split as f64),
        (
            "fedavg_round_bytes".into(),
            comm::fedavg_round_bytes(platforms, params) as f64,
        ),
        (
            "sync_sgd_round_bytes".into(),
            comm::sync_sgd_round_bytes(platforms, params) as f64,
        ),
        // The per-platform minibatch at which the split protocol's
        // per-round bytes (≈ 2 × s × (act + classes) floats) equal the
        // model-exchange protocols' (2 × params floats): beyond it, model
        // exchange is cheaper per round.
        ("crossover_batch".into(), (params / (act_floats + classes)) as f64),
    ]
}

/// Fig. 8: one platform's communication time per round. Platforms
/// transfer in parallel on equal batches, so one platform's time is the
/// round's; every message pays the link latency.
fn fig8(model: ModelKind, dataset: DatasetKind) -> Vec<(String, f64)> {
    let (arch, act_dims) = full_size(model, dataset);
    let split_bytes = comm::split_round_bytes(&[FULL_SIZE_BATCH], &act_dims, dataset.classes()) as usize;
    let model_bytes = comm::flat_message_bytes(arch.param_count()) as usize;
    let mut metrics = Vec::new();
    for (i, &mbps) in FIG8_MBPS.iter().enumerate() {
        let link = LinkSpec {
            bandwidth_bps: mbps * 1e6,
            ..LinkSpec::wan()
        };
        // Split: four messages, the bytes counted once.
        let split = 4.0 * link.latency_s + link.transfer_time(split_bytes) - link.latency_s;
        // Sync SGD and FedAvg: the model down, a model or gradient up.
        let exchange = 2.0 * link.transfer_time(model_bytes);
        let row = |column: &str| format!("bandwidth.{i:02}.{column}");
        metrics.push((row("mbps"), mbps));
        metrics.push((row("split_round_s"), split));
        metrics.push((row("sync_sgd_round_s"), exchange));
        metrics.push((row("fedavg_round_s"), exchange));
    }
    metrics
}

/// What the leakage probe sees of one platform's `L1`.
struct Leakage {
    /// Activation dims per sample.
    act_dims: Vec<usize>,
    /// Distance correlation of inputs and activations.
    dcor: f64,
    /// R² of the ridge attacker's reconstruction.
    attacker_r2: f32,
}

/// The leakage probe of Figs. 5 and 7: `platform`'s `L1` in inference,
/// noised as it would transmit, on the first [`PROBE_ROWS`] test rows;
/// then the distance correlation of inputs and activations and a ridge
/// attack (λ = 1e-2) fit on the first half and scored on the second.
fn probe_leakage(platform: &mut Platform, test: &InMemoryDataset) -> medsplit_core::Result<Leakage> {
    let n = test.len().min(PROBE_ROWS);
    let (inputs, _) = test.batch(&(0..n).collect::<Vec<_>>())?;
    let acts = platform.infer_l1(&inputs)?;
    let xs = flatten_samples(&inputs)?;
    let zs = flatten_samples(&acts)?;
    let half = n / 2;
    let attack = reconstruction_attack(
        &zs.slice0(0, half)?,
        &xs.slice0(0, half)?,
        &zs.slice0(half, n - half)?,
        &xs.slice0(half, n - half)?,
        1e-2,
    )?;
    Ok(Leakage {
        act_dims: acts.dims()[1..].to_vec(),
        dcor: distance_correlation(&xs, &zs)?,
        attacker_r2: attack.r_squared,
    })
}

/// Trains `split` on `recipe`'s data under `config` over a fresh WAN
/// star and probes platform 0. Returns the final accuracy and the probe.
fn train_and_probe(recipe: &Recipe, config: SplitConfig) -> Result<(f32, Leakage), String> {
    let star = wan_star(recipe.shards.len());
    let run = || -> medsplit_core::Result<_> {
        let mut trainer = SplitTrainer::new(
            &recipe.arch,
            config,
            recipe.shards.clone(),
            recipe.test.clone(),
            &star,
        )?;
        let accuracy = trainer.run()?.final_accuracy;
        Ok((
            accuracy,
            probe_leakage(&mut trainer.platforms_mut()[0], &recipe.test)?,
        ))
    };
    run().map_err(|e| format!("training: {e}"))
}

/// Fig. 5: the cut against its bytes per round and its leakage.
fn fig5(recipe: &Recipe) -> Result<Vec<(String, f64)>, String> {
    let classes = recipe.arch.num_classes();
    let shard_sizes: Vec<usize> = recipe.shards.iter().map(InMemoryDataset::len).collect();
    let batches = recipe.config.minibatch.sizes(&shard_sizes);
    let mut metrics = Vec::new();
    for (i, &cut) in FIG5_CUTS.iter().enumerate() {
        let config = SplitConfig {
            split: SplitPoint::At(cut),
            ..recipe.config.clone()
        };
        let (accuracy, leak) = train_and_probe(recipe, config)?;
        let round_bytes = comm::split_round_bytes(&batches, &leak.act_dims, classes);
        let row = |column: &str| format!("cut.{i:02}.{column}");
        metrics.push((row("layer"), cut as f64));
        metrics.push((row("act_floats"), leak.act_dims.iter().product::<usize>() as f64));
        metrics.push((row("round_bytes"), round_bytes as f64));
        metrics.push((row("dcor"), leak.dcor));
        metrics.push((row("attacker_r2"), f64::from(leak.attacker_r2)));
        metrics.push((row("accuracy"), f64::from(accuracy)));
    }
    Ok(metrics)
}

/// Fig. 7: the activation noise against accuracy and leakage.
fn fig7(recipe: &Recipe) -> Result<Vec<(String, f64)>, String> {
    let mut metrics = Vec::new();
    for (i, &sigma) in FIG7_SIGMAS.iter().enumerate() {
        let config = SplitConfig {
            activation_noise: sigma,
            ..recipe.config.clone()
        };
        let (accuracy, leak) = train_and_probe(recipe, config)?;
        let row = |column: &str| format!("noise.{i:02}.{column}");
        metrics.push((row("sigma"), f64::from(sigma)));
        metrics.push((row("accuracy"), f64::from(accuracy)));
        metrics.push((row("dcor"), leak.dcor));
        metrics.push((row("attacker_r2"), f64::from(leak.attacker_r2)));
    }
    Ok(metrics)
}

/// A figure point: one of [`FIGURES`] on the point's workload.
fn run_figure(point: &RunPoint, manifest: &Manifest) -> Result<Vec<(String, f64)>, String> {
    let (model, dataset, platforms, codec) = parse_figure_point(point)?;
    let recipe = || {
        recipe(
            &Workload::Vision(model, dataset),
            platforms,
            codec,
            point,
            manifest,
        )
    };
    match point.bench.as_str() {
        "table1" => Ok(table1(model, dataset, platforms)),
        "fig8" => Ok(fig8(model, dataset)),
        "fig5" => fig5(&recipe()?),
        "fig7" => fig7(&recipe()?),
        other => unreachable!("{other:?} is not in FIGURES"),
    }
}

/// The `bench` values of the serving sweeps. Both serve the split
/// 16-feature, 4-class MLP of [`medsplit_fleet`] to the platforms of a
/// `starN` topology over WAN links, open-loop at each offered load, with
/// the point's codec and [`ServeConfig`]'s defaults otherwise, and
/// report row `NN` of the sweep as `<row>.NN.<column>`:
///
/// - `serve`: one server, `SERVE_REQUESTS` requests per platform at
///   each load in `SERVE_LOADS` (`load.NN.*`).
/// - `fleet`: a replica fleet ([`FleetConfig`]'s defaults otherwise:
///   four sessions and a quota of 64 in flight per tenant, two weight
///   versions), `FLEET_REQUESTS` requests per tenant at each load in
///   `FLEET_LOADS` and each replica count in `FLEET_REPLICAS`
///   (`row.NN.*`, load-major). At one load, every replica count that
///   completes its whole stream must serve the same logits, or the point
///   fails.
///
/// A latency is reported only when a request completed. Each point also
/// reports a `logits_digest`: FNV-1a over the served logits in record
/// order (`serve`) or over every row's logits digest (`fleet`).
pub const SERVING: &[&str] = &["serve", "fleet"];

/// Offered loads of `serve`, requests per second per platform.
const SERVE_LOADS: [f64; 6] = [25.0, 50.0, 100.0, 200.0, 400.0, 800.0];

/// Requests each platform submits at one load of `serve`.
const SERVE_REQUESTS: usize = 300;

/// Offered loads of `fleet`, requests per second per tenant.
const FLEET_LOADS: [f64; 5] = [50.0, 100.0, 200.0, 400.0, 800.0];

/// Replica counts of `fleet`.
const FLEET_REPLICAS: [usize; 4] = [1, 2, 4, 8];

/// Requests each tenant submits at one row of `fleet`.
const FLEET_REQUESTS: usize = 240;

/// Checks a serving point: a `starN` topology and no fault. Returns the
/// platform (tenant) count and the codec.
fn parse_serving_point(point: &RunPoint) -> Result<(usize, WireCodec), String> {
    let TopologyAxis::Star(platforms) = parse_topology(&point.topology)? else {
        return Err(format!(
            "bench {:?} runs on a starN topology, not {:?}",
            point.bench, point.topology
        ));
    };
    if point.fault != "clean" {
        return Err(format!(
            "bench {:?} runs fault-free, not {:?}",
            point.bench, point.fault
        ));
    }
    Ok((platforms, parse_codec(&point.codec)?))
}

/// One `serve` run at `offered_rps`: the split MLP built from `seed`,
/// each platform holding 16 rows of its own data, and queries drawn from
/// `seed + offered_rps`.
fn serve_once(
    platforms: usize,
    offered_rps: f64,
    codec: WireCodec,
    seed: u64,
) -> Result<ServeOutcome, String> {
    let arch = Architecture::Mlp(MlpConfig::small(FEATURES, CLASSES));
    let model =
        build_split(&arch, SplitPoint::Default, seed, platforms).map_err(|e| format!("model: {e}"))?;
    let mut nodes = Vec::with_capacity(platforms);
    for (id, client) in model.clients.into_iter().enumerate() {
        let data = SyntheticTabular::new(CLASSES, FEATURES, seed ^ id as u64)
            .generate(16)
            .map_err(|e| format!("data: {e}"))?;
        nodes.push(Platform::new(id, client, data, 4, 0.0, seed));
    }
    let server = SplitServer::new(model.server, 0.0);
    let mut rng = rng_from_seed(seed.wrapping_add(offered_rps as u64));
    let queries: Vec<Vec<Tensor>> = (0..platforms)
        .map(|_| {
            (0..SERVE_REQUESTS)
                .map(|_| Tensor::rand_uniform([1, FEATURES], -1.0, 1.0, &mut rng))
                .collect()
        })
        .collect();
    let topology = StarTopology::new(platforms);
    let transport = MemoryTransport::new(topology.clone());
    let cfg = ServeConfig {
        offered_rps,
        codec,
        ..ServeConfig::default()
    };
    serve_threaded(nodes, server, queries, &topology, &cfg, &transport).map_err(|e| format!("serving: {e}"))
}

/// The `serve` sweep.
fn run_serve(point: &RunPoint) -> Result<Vec<(String, MetricValue)>, String> {
    let (platforms, codec) = parse_serving_point(point)?;
    let mut metrics = Vec::new();
    let mut logits = FNV_OFFSET;
    for (i, &load) in SERVE_LOADS.iter().enumerate() {
        let outcome = serve_once(platforms, load, codec, point.seed)?;
        let r = &outcome.report;
        let num = |column: &str, v: f64| (format!("load.{i:02}.{column}"), MetricValue::Num(v));
        metrics.extend([
            num("offered_rps", load),
            num("completed", r.completed as f64),
            num("rejected", r.rejected as f64),
            num("timed_out", r.timed_out as f64),
            num("req_bytes", r.request_bytes_per_offered()),
            num("resp_bytes", r.response_bytes_per_offered()),
            num("goodput_rps", r.goodput_rps()),
        ]);
        if let Some(lat) = &r.latency {
            metrics.extend([
                num("p50_ms", lat.p50_s * 1e3),
                num("p95_ms", lat.p95_s * 1e3),
                num("p99_ms", lat.p99_s * 1e3),
            ]);
        }
        for v in outcome
            .records
            .iter()
            .flat_map(|r| r.logits.iter())
            .flat_map(Tensor::as_slice)
        {
            logits = fnv1a(logits, &v.to_bits().to_le_bytes());
        }
    }
    metrics.push(("logits_digest".into(), MetricValue::Str(format!("{logits:016x}"))));
    Ok(metrics)
}

/// The `fleet` sweep.
fn run_fleet_sweep(point: &RunPoint) -> Result<Vec<(String, MetricValue)>, String> {
    let (tenants, codec) = parse_serving_point(point)?;
    let mut metrics = Vec::new();
    let mut logits = FNV_OFFSET;
    let mut i = 0;
    for &load in &FLEET_LOADS {
        // The first replica count that served the whole stream at this
        // load, and its logits digest.
        let mut full: Option<(usize, u64)> = None;
        for &replicas in &FLEET_REPLICAS {
            let cfg = FleetConfig {
                replicas,
                tenants,
                serve: ServeConfig {
                    offered_rps: load,
                    codec,
                    ..ServeConfig::default()
                },
                ..FleetConfig::default()
            };
            let out = run_fleet(&cfg, FLEET_REQUESTS, point.seed, FaultPlan::new(point.seed), &[])
                .map_err(|e| format!("fleet: {e}"))?;
            let r = &out.report;
            if r.completed == r.offered {
                match full {
                    None => full = Some((replicas, out.logits_digest)),
                    Some((first, digest)) if digest != out.logits_digest => {
                        return Err(format!(
                            "logits diverged between {first} and {replicas} replicas at {load} req/s"
                        ))
                    }
                    Some(_) => {}
                }
            }
            let row = |column: &str| format!("row.{i:02}.{column}");
            let num = |column: &str, v: f64| (row(column), MetricValue::Num(v));
            metrics.extend([
                num("replicas", replicas as f64),
                num("offered_rps", load),
                num("completed", r.completed as f64),
                num("throttled", r.throttled as f64),
                num("rejected", r.rejected as f64),
                num("timed_out", r.timed_out as f64),
                num("goodput_rps", r.goodput_rps()),
                (
                    row("digest"),
                    MetricValue::Str(format!("{:016x}", out.logits_digest)),
                ),
            ]);
            if let Some(lat) = &r.latency {
                metrics.extend([num("p50_ms", lat.p50_s * 1e3), num("p99_ms", lat.p99_s * 1e3)]);
            }
            logits = fnv1a(logits, &out.logits_digest.to_le_bytes());
            i += 1;
        }
    }
    metrics.push(("logits_digest".into(), MetricValue::Str(format!("{logits:016x}"))));
    Ok(metrics)
}

/// An outcome of numeric metrics and no timings.
fn numeric_outcome(metrics: Vec<(String, f64)>) -> PointOutcome {
    metrics_outcome(
        metrics
            .into_iter()
            .map(|(k, v)| (k, MetricValue::Num(v)))
            .collect(),
    )
}

/// An outcome of `metrics` and no timings.
fn metrics_outcome(metrics: Vec<(String, MetricValue)>) -> PointOutcome {
    PointOutcome {
        metrics,
        ..PointOutcome::default()
    }
}

impl BenchRunner for MedsplitRunner {
    fn run_point(
        &mut self,
        point: &RunPoint,
        manifest: &Manifest,
        artifacts_dir: &Path,
    ) -> Result<PointOutcome, String> {
        // Route every bench-native artifact (CSVs, digests, JSON) into
        // the point's artifact directory instead of bench_results/.
        std::env::set_var("MEDSPLIT_RESULTS_DIR", artifacts_dir);

        let isa = parse_isa(&point.isa)?;
        if !simd::set_isa(isa) {
            return Err(format!("isa {:?} is not supported on this host", point.isa));
        }
        pool::set_num_threads(point.threads);

        medsplit_telemetry::reset_metrics();
        let _ = medsplit_telemetry::drain_spans();
        if manifest.run.capture_trace {
            medsplit_telemetry::set_enabled(true);
        }

        let wall = Instant::now();
        let mut outcome = match point.bench.as_str() {
            "split_train" => run_split_train(point, manifest),
            bench if METHODS.contains(&bench) => run_method(point, manifest).map(numeric_outcome),
            bench if FIGURES.contains(&bench) => run_figure(point, manifest).map(numeric_outcome),
            "serve" => run_serve(point).map(metrics_outcome),
            "fleet" => run_fleet_sweep(point).map(metrics_outcome),
            "kernel_smoke" => {
                let out = crate::bins::kernel_bench::run(&["--smoke".into()]);
                Ok(PointOutcome {
                    // The sweep runs at 1..=min(2, cores) threads, so the
                    // row count depends on the host: not digested.
                    timings: vec![("rows".into(), out.rows as f64)],
                    ..PointOutcome::default()
                })
            }
            "trace_smoke" => {
                let out = crate::bins::trace_report::run(&["--smoke".into()]);
                Ok(PointOutcome {
                    metrics: vec![("spans".into(), MetricValue::Num(out.spans as f64))],
                    // The snapshot count depends on which metrics a
                    // process has lazily registered so far — racy across
                    // in-process repetitions, so it is not digested.
                    timings: vec![("metric_snapshots".into(), out.metrics as f64)],
                    ..PointOutcome::default()
                })
            }
            other => Err(format!("unknown bench axis value {other:?}")),
        }?;
        outcome
            .timings
            .push(("wall_s".into(), wall.elapsed().as_secs_f64()));

        if manifest.run.capture_trace {
            medsplit_telemetry::set_enabled(false);
            let trace = Trace::capture();
            if !trace.spans.is_empty() || !trace.metrics.is_empty() {
                outcome.trace_jsonl = Some(medsplit_telemetry::to_jsonl(&trace));
            }
        }

        // Leave the process in its default state for the next point.
        pool::set_num_threads(1);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    const STAR4: TopologyAxis = TopologyAxis::Star(4);
    const HIER2_2: TopologyAxis = TopologyAxis::Hier {
        regions: 2,
        per_region: 2,
    };

    #[test]
    fn fault_grammar_parses_and_rejects() {
        assert!(parse_fault("clean", 1, STAR4).is_ok());
        assert!(parse_fault("drop10", 1, STAR4).is_ok());
        assert!(parse_fault("crash_3_6", 1, STAR4).is_ok());
        assert!(parse_fault("straggler", 1, STAR4).is_ok());
        assert!(parse_fault("drop200", 1, STAR4).is_err());
        assert!(parse_fault("crash_6_3", 1, STAR4).is_err());
        assert!(parse_fault("gremlins", 1, STAR4).is_err());
    }

    #[test]
    fn plus_composes_fault_tokens_into_one_plan() {
        assert_eq!(
            parse_fault("drop10+crash_10_20", 1, STAR4).unwrap(),
            FaultPlan::new(1)
                .with_drop(0.1)
                .crash(NodeId::Platform(1), 10)
                .recover(NodeId::Platform(1), 20)
        );
        let hier = HierTopology::new(2, 2);
        assert_eq!(
            parse_fault("relaycrash_10_20+partition_1_11_21", 1, HIER2_2).unwrap(),
            FaultPlan::new(1)
                .crash_relay(1, 10)
                .recover_relay(1, 20)
                .partition_region(&hier, 1, 11, 21)
        );
        // `clean` stands alone, every token must parse on the topology,
        // and an empty token is not a fault.
        assert!(parse_fault("clean+drop10", 1, STAR4).is_err());
        assert!(parse_fault("drop10+clean", 1, STAR4).is_err());
        assert!(parse_fault("drop10+relaycrash_2_5", 1, STAR4).is_err());
        assert!(parse_fault("drop10+", 1, STAR4).is_err());
        assert!(parse_fault("drop10++crash_1_2", 1, STAR4).is_err());
    }

    /// Every point of every committed manifest that trains, measures a
    /// figure or serves parses under its own kind: `split_train`, one of
    /// [`METHODS`], one of [`FIGURES`] or one of [`SERVING`].
    #[test]
    fn every_committed_split_train_point_parses() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../experiments");
        let (mut split_train, mut methods, mut figures, mut serving) = (0, 0, 0, 0);
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if !path.to_string_lossy().ends_with(".lab.toml") {
                continue;
            }
            let manifest = Manifest::load(&path).unwrap();
            for point in medsplit_lab::expand(&manifest.axes) {
                let at = format!("{}: {}", path.display(), point.key());
                if METHODS.contains(&point.bench.as_str()) {
                    parse_method_point(&point).unwrap_or_else(|e| panic!("{at}: {e}"));
                    methods += 1;
                    continue;
                }
                if FIGURES.contains(&point.bench.as_str()) {
                    parse_figure_point(&point).unwrap_or_else(|e| panic!("{at}: {e}"));
                    figures += 1;
                    continue;
                }
                if SERVING.contains(&point.bench.as_str()) {
                    parse_serving_point(&point).unwrap_or_else(|e| panic!("{at}: {e}"));
                    serving += 1;
                    continue;
                }
                if point.bench != "split_train" {
                    continue;
                }
                let topo = parse_topology(&point.topology).unwrap_or_else(|e| panic!("{at}: {e}"));
                parse_model(&point.model).unwrap_or_else(|e| panic!("{at}: {e}"));
                parse_fault(&point.fault, point.seed, topo).unwrap_or_else(|e| panic!("{at}: {e}"));
                parse_codec(&point.codec).unwrap_or_else(|e| panic!("{at}: {e}"));
                split_train += 1;
            }
        }
        assert!(split_train > 0, "no split_train points under {}", dir.display());
        assert!(methods > 0, "no method points under {}", dir.display());
        assert!(figures > 0, "no figure points under {}", dir.display());
        assert!(serving > 0, "no serving points under {}", dir.display());
    }

    #[test]
    fn relay_fault_tokens_parse_on_hierarchies() {
        assert!(parse_fault("relaycrash_2_5", 1, HIER2_2).is_ok());
        assert!(parse_fault("partition_1_2_5", 1, HIER2_2).is_ok());
        assert!(parse_fault("partition_0_0_1", 1, HIER2_2).is_ok());
        // Star topologies have no relays or regions: hard errors, not
        // silently ignored tokens.
        assert!(parse_fault("relaycrash_2_5", 1, STAR4).is_err());
        assert!(parse_fault("partition_0_2_5", 1, STAR4).is_err());
        // A single-region hierarchy has no backup relay to crash into.
        let hier1_4 = TopologyAxis::Hier {
            regions: 1,
            per_region: 4,
        };
        assert!(parse_fault("relaycrash_2_5", 1, hier1_4).is_err());
    }

    #[test]
    fn malformed_relay_fault_tokens_stay_hard_errors() {
        assert!(parse_fault("relaycrash_3", 1, HIER2_2).is_err());
        assert!(parse_fault("relaycrash_a_b", 1, HIER2_2).is_err());
        assert!(parse_fault("relaycrash_6_3", 1, HIER2_2).is_err());
        assert!(parse_fault("partition_1_2", 1, HIER2_2).is_err());
        assert!(parse_fault("partition_x_2_5", 1, HIER2_2).is_err());
        assert!(parse_fault("partition_1_5_2", 1, HIER2_2).is_err());
        // Region index beyond the topology's regions.
        assert!(parse_fault("partition_2_2_5", 1, HIER2_2).is_err());
    }

    #[test]
    fn topology_and_codec_axes_parse() {
        for (model, batch) in [("mlp", 10), ("mlp_wide", 10), ("mlp_cut128", 64)] {
            assert_eq!(parse_model(model).unwrap().1, batch, "{model}");
        }
        assert_eq!(parse_model("mlp_cut128").unwrap().0.input_dims(), [32]);
        assert!(parse_model("cnn").is_err());
        assert_eq!(parse_topology("star4").unwrap(), STAR4);
        assert!(parse_topology("star1").is_err());
        assert!(parse_topology("ring4").is_err());
        assert_eq!(parse_topology("hier2_2").unwrap(), HIER2_2);
        assert_eq!(HIER2_2.platforms(), 4);
        assert!(parse_topology("hier4_2").is_ok());
        assert!(parse_topology("hier2").is_err());
        assert!(parse_topology("hier0_4").is_err());
        assert!(parse_topology("hier2_0").is_err());
        assert!(parse_topology("hier1_1").is_err());
        assert!(parse_topology("hier2_x").is_err());
        assert_eq!(parse_codec("f16").unwrap(), WireCodec::F16);
        assert_eq!(parse_codec("int8").unwrap(), WireCodec::Int8);
        // The rejection names every valid axis value, so a manifest typo
        // is self-explanatory.
        let err = parse_codec("f64").unwrap_err();
        for valid in ["\"f32\"", "\"f16\"", "\"int8\""] {
            assert!(err.contains(valid), "codec error {err:?} missing {valid}");
        }
        assert!(parse_isa("auto").is_ok());
        assert!(parse_isa("riscv").is_err());
    }

    #[test]
    fn snapshot_partitioning_keeps_only_net_counters() {
        let snapshot = vec![
            MetricSnapshot::Counter {
                name: "net.bytes.logits".into(),
                value: 10,
            },
            MetricSnapshot::Counter {
                name: "pool.jobs".into(),
                value: 3,
            },
            MetricSnapshot::Gauge {
                name: "kernel.isa_level".into(),
                value: 2.0,
            },
            MetricSnapshot::Histogram {
                name: "serve.latency".into(),
                bounds: vec![0.1],
                buckets: vec![1, 0],
                count: 1,
                sum: 0.05,
            },
        ];
        let (mut metrics, mut timings) = (Vec::new(), Vec::new());
        partition_snapshot(&snapshot, &mut metrics, &mut timings);
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics[0].0, "net.bytes.logits");
        let names: Vec<&str> = timings.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "pool.jobs",
                "kernel.isa_level",
                "serve.latency.count",
                "serve.latency.sum"
            ]
        );
    }

    /// Runs every point of a method or figure matrix at `rounds` ×
    /// `samples` through [`MedsplitRunner::run_point`] and returns each
    /// point's metrics, in expansion order.
    fn run_methods(matrix: &str, rounds: usize, samples: usize) -> Vec<(RunPoint, BTreeMap<String, f64>)> {
        let text = format!(
            "schema_version = 1\n[lab]\nname = \"methods\"\n[matrix]\n{matrix}\n[run]\nrounds = {rounds}\nsamples = {samples}\n"
        );
        let manifest = Manifest::parse(&text).unwrap();
        let _env = crate::testsync::ENV.lock().unwrap_or_else(|e| e.into_inner());
        let tmp = std::env::temp_dir().join(format!("medsplit-methods-{}", std::process::id()));
        let runs = medsplit_lab::expand(&manifest.axes)
            .into_iter()
            .map(|point| {
                let outcome = MedsplitRunner
                    .run_point(&point, &manifest, &tmp)
                    .unwrap_or_else(|e| panic!("{}: {e}", point.key()));
                let metrics = outcome
                    .metrics
                    .into_iter()
                    .map(|(name, value)| match value {
                        MetricValue::Num(v) => (name, v),
                        MetricValue::Str(s) => panic!("{name} = {s:?} is not a number"),
                    })
                    .collect();
                (point, metrics)
            })
            .collect();
        let _ = std::fs::remove_dir_all(tmp);
        runs
    }

    #[test]
    fn method_points_refuse_what_they_cannot_run() {
        let point = |bench: &str, model: &str, topology: &str, fault: &str| RunPoint {
            bench: bench.into(),
            model: model.into(),
            topology: topology.into(),
            fault: fault.into(),
            codec: "f32".into(),
            isa: "auto".into(),
            threads: 1,
            seed: 42,
        };
        assert!(parse_method_point(&point("split", "vgg_c10", "star4", "clean")).is_ok());
        assert!(parse_method_point(&point("fedavg", "tab_dir05", "star16", "clean")).is_ok());
        // split_train's model values, faults and relay hierarchies are
        // not method points.
        for (model, topology, fault) in [
            ("mlp", "star4", "clean"),
            ("mlp_cut128", "star4", "clean"),
            ("vgg_c10", "star4", "drop10"),
            ("tab_iid", "star4", "crash_3_6"),
            ("tab_iid", "hier2_2", "clean"),
        ] {
            let p = point("split", model, topology, fault);
            assert!(parse_method_point(&p).is_err(), "{}", p.key());
        }
        let err = parse_method_point(&point("split", "mlp", "star4", "clean")).unwrap_err();
        assert!(err.contains("tab_dir05"), "{err}");
        // The figures run on vision workloads only.
        assert!(parse_figure_point(&point("fig5", "resnet_c100", "star4", "clean")).is_ok());
        assert!(parse_figure_point(&point("table1", "tab_iid", "star4", "clean")).is_err());
        // The serving sweeps take their platforms from a star and run
        // fault-free.
        assert_eq!(
            parse_serving_point(&point("serve", "mlp", "star3", "clean")).unwrap(),
            (3, WireCodec::F32)
        );
        assert!(parse_serving_point(&point("fleet", "mlp", "hier2_2", "clean")).is_err());
        assert!(parse_serving_point(&point("serve", "mlp", "star3", "drop10")).is_err());
    }

    #[test]
    fn fig4_quick_runs_and_split_wins_on_bytes() {
        let runs = run_methods(
            "bench = [\"split\", \"sync_sgd\", \"fedavg\"]\nmodel = [\"vgg_c10\"]\ntopology = [\"star2\"]",
            6,
            80,
        );
        let benches: Vec<&str> = runs.iter().map(|(p, _)| p.bench.as_str()).collect();
        assert_eq!(benches, ["split", "sync_sgd", "fedavg"]);
        // Same number of update steps, far fewer bytes for split.
        let (split, sgd) = (runs[0].1["total_bytes"], runs[1].1["total_bytes"]);
        assert!(sgd > 2.0 * split, "sync-SGD {sgd} vs split {split}");
    }

    #[test]
    fn table2_quick_runs() {
        let runs = run_methods(
            "bench = [\"split\", \"split_equal\"]\nmodel = [\"tab_dir03\"]\ntopology = [\"star3\"]",
            10,
            120,
        );
        assert_eq!(runs.len(), 2);
        for (point, metrics) in &runs {
            assert!(
                (0.0..=1.0).contains(&metrics["final_accuracy"]),
                "{}",
                point.key()
            );
        }
    }

    #[test]
    fn fig6_quick_runs() {
        let runs = run_methods(
            "bench = [\"split\"]\nmodel = [\"tab_iid\"]\ntopology = [\"star2\", \"star4\", \"star8\"]",
            8,
            120,
        );
        assert_eq!(runs.len(), 3);
        // More platforms → more per-round messages → more bytes.
        assert!(runs[2].1["total_bytes"] > runs[0].1["total_bytes"]);
    }

    #[test]
    fn table3_quick_runs_all_methods() {
        let table3 = [
            "split",
            "split_l1avg",
            "split_ushape",
            "sync_sgd",
            "fedavg",
            "local_only",
            "centralized",
        ];
        let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../experiments/table3.lab.toml");
        assert_eq!(Manifest::load(&committed).unwrap().axes.bench, table3);
        let runs = run_methods(
            &format!("bench = {table3:?}\nmodel = [\"tab_dir05\"]\ntopology = [\"star3\"]"),
            10,
            120,
        );
        let benches: Vec<&str> = runs.iter().map(|(p, _)| p.bench.as_str()).collect();
        assert_eq!(benches, table3);
        // With 10 rounds eval_every is 0, and FedAvg evaluates once,
        // after its last round.
        let fedavg = &runs[4].1;
        assert!(fedavg.contains_key("curve.00.accuracy") && !fedavg.contains_key("curve.01.accuracy"));
        assert_eq!(fedavg["curve.00.bytes"], fedavg["total_bytes"]);
        // Only centralized ships raw data.
        for (point, metrics) in &runs {
            let raw = metrics["raw_data_bytes"];
            if point.bench == "centralized" {
                assert!(raw > 0.0);
            } else {
                assert_eq!(raw, 0.0, "{} leaked raw data", point.bench);
            }
        }
    }

    #[test]
    fn table4_quick_shows_byte_halving() {
        let runs = run_methods(
            "bench = [\"split\"]\nmodel = [\"vgg_c10\"]\ntopology = [\"star2\"]\ncodec = [\"f32\", \"f16\"]",
            6,
            80,
        );
        let (f32b, f16b) = (runs[0].1["total_bytes"], runs[1].1["total_bytes"]);
        assert!(f16b < f32b * 0.6, "f16 {f16b} vs f32 {f32b}");
    }

    #[test]
    fn method_points_report_one_curve_point_per_evaluation() {
        // 100 rounds: an evaluation every 5 (FedAvg: each of its 20
        // five-step rounds), the last after the last round.
        let runs = run_methods("bench = [\"split\", \"fedavg\"]\nmodel = [\"tab_iid\"]", 100, 160);
        for (point, metrics) in &runs {
            let curve = metrics.keys().filter(|k| k.ends_with(".accuracy")).count();
            assert_eq!(curve, EVALUATIONS, "{}", point.key());
            assert_eq!(
                metrics["curve.19.bytes"],
                metrics["total_bytes"],
                "{}",
                point.key()
            );
        }
    }

    #[test]
    fn table1_has_four_rows_and_paper_shape() {
        let runs = run_methods(
            "bench = [\"table1\"]\nmodel = [\"vgg_c10\", \"vgg_c100\", \"resnet_c10\", \"resnet_c100\"]",
            1,
            8,
        );
        assert_eq!(runs.len(), 4);
        for (point, m) in &runs {
            // Per round, full-size sync SGD costs more than split, and
            // the crossover minibatch lies beyond the table's 32.
            assert!(
                m["sync_sgd_round_bytes"] > m["split_round_bytes"],
                "{}",
                point.key()
            );
            assert!(m["crossover_batch"] > FULL_SIZE_BATCH as f64, "{}", point.key());
        }
        // Four platforms: FedAvg and sync SGD each move the model twice
        // per platform.
        let m = &runs[0].1;
        assert_eq!(m["fedavg_round_bytes"], m["sync_sgd_round_bytes"]);
        assert!(m["fedavg_round_bytes"] > 8.0 * 4.0 * m["params"]);
    }

    #[test]
    fn fig5_quick_monotone_activation_sizes() {
        let runs = run_methods(
            "bench = [\"fig5\"]\nmodel = [\"vgg_c10\"]\ntopology = [\"star2\"]",
            4,
            80,
        );
        let m = &runs[0].1;
        let cut = |i: usize, column: &str| m[&format!("cut.{i:02}.{column}")];
        assert_eq!(
            (0..FIG5_CUTS.len()).map(|i| cut(i, "layer")).collect::<Vec<_>>(),
            [3.0, 4.0, 7.0, 8.0, 11.0]
        );
        // Pooling shrinks activations: cut 4 (after the pool) < cut 3,
        // and cut 8 < cut 4; the bytes follow.
        assert!(cut(1, "act_floats") < cut(0, "act_floats"));
        assert!(cut(3, "act_floats") < cut(1, "act_floats"));
        assert!(cut(1, "round_bytes") < cut(0, "round_bytes"));
        assert!(cut(3, "round_bytes") < cut(1, "round_bytes"));
    }

    #[test]
    fn fig7_quick_noise_reduces_leakage() {
        let runs = run_methods(
            "bench = [\"fig7\"]\nmodel = [\"vgg_c10\"]\ntopology = [\"star2\"]",
            4,
            160,
        );
        let m = &runs[0].1;
        let noise = |i: usize, column: &str| m[&format!("noise.{i:02}.{column}")];
        assert_eq!(noise(4, "sigma"), 4.0);
        assert!(
            noise(4, "dcor") < noise(0, "dcor"),
            "noise must reduce dcor: {m:?}"
        );
        assert!(noise(4, "attacker_r2") <= noise(0, "attacker_r2") + 0.02);
    }

    #[test]
    fn fig8_analytic_shapes() {
        let runs = run_methods("bench = [\"fig8\"]\nmodel = [\"vgg_c10\"]", 1, 8);
        let m = &runs[0].1;
        let bw = |i: usize, column: &str| m[&format!("bandwidth.{i:02}.{column}")];
        for i in 0..FIG8_MBPS.len() {
            // Full-size VGG: split is faster per round at every bandwidth.
            assert!(bw(i, "split_round_s") < bw(i, "sync_sgd_round_s"), "{i}");
        }
        // More bandwidth → faster rounds.
        assert!(bw(5, "split_round_s") < bw(0, "split_round_s"));
        assert!(bw(5, "sync_sgd_round_s") < bw(0, "sync_sgd_round_s"));
    }

    #[test]
    fn split_train_point_is_bit_reproducible() {
        let manifest = Manifest::parse(
            r#"
schema_version = 1
[lab]
name = "labrun-test"
[matrix]
bench = ["split_train"]
fault = ["drop10"]
[run]
rounds = 2
samples = 48
"#,
        )
        .unwrap();
        let _env = crate::testsync::ENV.lock().unwrap_or_else(|e| e.into_inner());
        let point = medsplit_lab::expand(&manifest.axes).remove(0);
        let tmp = std::env::temp_dir().join(format!("medsplit-labrun-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        let mut runner = MedsplitRunner;
        let a = runner.run_point(&point, &manifest, &tmp).unwrap();
        let b = runner.run_point(&point, &manifest, &tmp).unwrap();
        assert_eq!(
            a.metrics, b.metrics,
            "split_train metrics must replay bit-identically"
        );
        assert!(a.metrics.iter().any(|(n, _)| n == "final_accuracy"));
        assert!(
            a.timings.iter().any(|(n, _)| n == "wall_s"),
            "wall clock must land in timings, not metrics"
        );
        let _ = std::fs::remove_dir_all(tmp);
    }
}
