//! The bridge between `medsplit-lab` manifests and this crate's
//! workloads: a [`medsplit_lab::BenchRunner`] that executes each matrix
//! point in-process.
//!
//! ## Bench axis values
//!
//! | `bench` | workload |
//! |---------|----------|
//! | `split_train` | a [`ResilientTrainer`] run shaped by the point's model / topology / fault / codec / threads / seed axes |
//! | `kernel_smoke` | [`crate::bins::kernel_bench`] `--smoke` (reports the cross-ISA kernel and plan digests) |
//! | `trace_smoke` | [`crate::bins::trace_report`] `--smoke` |
//! | `fleet_smoke` | [`crate::bins::fleet_bench`] `--smoke` |
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

use medsplit_core::{HierPolicy, HierResilientTrainer, ResilientTrainer, SplitConfig, WireCodec};
use medsplit_data::{partition, MinibatchPolicy, Partition, SyntheticTabular};
use medsplit_lab::{BenchRunner, Manifest, MetricValue, PointOutcome, RunPoint};
use medsplit_nn::{Architecture, LrSchedule, MlpConfig};
use medsplit_simnet::{ChaosTransport, FaultPlan, HierTopology, MemoryTransport, NodeId, StarTopology};
use medsplit_telemetry::{MetricSnapshot, Trace};
use medsplit_tensor::{pool, simd};

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
        "neon" => Ok(simd::Isa::Neon),
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

    let mut config = SplitConfig {
        rounds,
        eval_every: rounds,
        lr: LrSchedule::Constant(0.1),
        minibatch: MinibatchPolicy::Fixed(batch),
        seed: point.seed,
        codec: parse_codec(&point.codec)?,
        ..SplitConfig::default()
    };
    // Tolerate the injected faults: any quorum completes the round.
    config.round_policy.min_platforms = 1;

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
            "kernel_smoke" => {
                let out = crate::bins::kernel_bench::run(&["--smoke".into()]);
                Ok(PointOutcome {
                    metrics: vec![
                        (
                            "kernel_digest".into(),
                            MetricValue::Str(format!("{:016x}", out.kernel_digest)),
                        ),
                        (
                            "plan_digest".into(),
                            MetricValue::Str(format!("{:016x}", out.plan_digest)),
                        ),
                        ("rows".into(), MetricValue::Num(out.rows as f64)),
                    ],
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
            "fleet_smoke" => {
                let out = crate::bins::fleet_bench::run(&["--smoke".into()]);
                let digest = out
                    .low_load_digest
                    .map(|d| format!("{d:016x}"))
                    .ok_or("fleet smoke completed no full-load point")?;
                Ok(PointOutcome {
                    metrics: vec![
                        ("rows".into(), MetricValue::Num(out.rows as f64)),
                        ("low_load_digest".into(), MetricValue::Str(digest)),
                    ],
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

    #[test]
    fn every_committed_split_train_point_parses() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../experiments");
        let mut points = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if !path.to_string_lossy().ends_with(".lab.toml") {
                continue;
            }
            let manifest = Manifest::load(&path).unwrap();
            for point in medsplit_lab::expand(&manifest.axes) {
                if point.bench != "split_train" {
                    continue;
                }
                let at = format!("{}: {}", path.display(), point.key());
                let topo = parse_topology(&point.topology).unwrap_or_else(|e| panic!("{at}: {e}"));
                parse_model(&point.model).unwrap_or_else(|e| panic!("{at}: {e}"));
                parse_fault(&point.fault, point.seed, topo).unwrap_or_else(|e| panic!("{at}: {e}"));
                parse_codec(&point.codec).unwrap_or_else(|e| panic!("{at}: {e}"));
                points += 1;
            }
        }
        assert!(points > 0, "no split_train points under {}", dir.display());
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
