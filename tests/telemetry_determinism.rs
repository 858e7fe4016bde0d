//! The telemetry determinism guard: training results must be
//! bit-identical with tracing on and off.
//!
//! Telemetry only reads clocks and pushes records — it must never touch
//! RNG state, model parameters, or the simulated network. This test runs
//! the same 4-platform split-training configuration twice in one process
//! (tracing force-enabled, then force-disabled) and asserts every
//! deterministic output matches to the bit: per-round losses, accuracy,
//! byte/message accounting, and the learned `L1` parameters.
//!
//! `wall_time_s` is excluded (host timing is never deterministic); the
//! enable flag is process-global, which is why this guard lives in its
//! own integration-test binary — and why the three other checks that read
//! the process-wide flag, spans or counter registry (fault counter names
//! against the drivers' reports, codec-invariant logical bytes under
//! relays, the same guard and one `round` span per round for FedAvg and
//! sync SGD) are called from the same single test.

use medsplit::baselines::{train_fedavg, train_sync_sgd};
use medsplit::core::{
    HierPolicy, HierResilientTrainer, ResilienceReport, ResilientTrainer, SplitConfig, SplitTrainer,
    TrainingHistory, WireCodec,
};
use medsplit::data::{partition, InMemoryDataset, MinibatchPolicy, Partition, SyntheticTabular};
use medsplit::nn::{Architecture, LrSchedule, MlpConfig};
use medsplit::simnet::{ChaosTransport, FaultPlan, HierTopology, MemoryTransport, NodeId, StarTopology};
use medsplit::telemetry::Trace;
use medsplit::tensor::Tensor;

const PLATFORMS: usize = 4;
const ROUNDS: usize = 6;

fn arch() -> Architecture {
    Architecture::Mlp(MlpConfig {
        input_dim: 8,
        hidden: vec![16],
        num_classes: 3,
    })
}

fn data() -> (Vec<InMemoryDataset>, InMemoryDataset) {
    let all = SyntheticTabular::new(3, 8, 0).generate(160).unwrap();
    let train = all.subset(&(0..128).collect::<Vec<_>>()).unwrap();
    let test = all.subset(&(128..160).collect::<Vec<_>>()).unwrap();
    (partition(&train, PLATFORMS, &Partition::Iid, 1).unwrap(), test)
}

fn config() -> SplitConfig {
    SplitConfig {
        rounds: ROUNDS,
        eval_every: 3,
        lr: LrSchedule::Constant(0.1),
        minibatch: MinibatchPolicy::Fixed(8),
        ..SplitConfig::default()
    }
}

fn run_once() -> (TrainingHistory, Vec<Tensor>) {
    let (shards, test) = data();
    let transport = MemoryTransport::new(StarTopology::new(PLATFORMS));
    let mut trainer = SplitTrainer::new(&arch(), config(), shards, test, &transport).unwrap();
    let history = trainer.run().unwrap();
    let params: Vec<Tensor> = trainer
        .platforms_mut()
        .iter_mut()
        .map(|p| p.l1_parameters())
        .collect();
    (history, params)
}

#[test]
fn training_is_bit_identical_with_tracing_on_and_off() {
    medsplit::telemetry::set_enabled(true);
    let (traced, traced_params) = run_once();
    // The traced run actually recorded something — otherwise this guard
    // compares an instrumented run against itself.
    let spans = medsplit::telemetry::drain_spans();
    assert!(
        spans.iter().any(|s| s.name == "round"),
        "tracing was enabled but recorded no round spans"
    );

    medsplit::telemetry::set_enabled(false);
    let (plain, plain_params) = run_once();
    assert!(
        medsplit::telemetry::drain_spans().is_empty(),
        "tracing was disabled but still recorded spans"
    );

    // Bit-exact equality of everything deterministic. f32 comparisons are
    // exact on purpose: telemetry must not perturb a single operation.
    assert_eq!(traced.final_accuracy.to_bits(), plain.final_accuracy.to_bits());
    assert_eq!(traced.stats.total_bytes, plain.stats.total_bytes);
    assert_eq!(traced.stats.messages, plain.stats.messages);
    assert_eq!(traced.stats.by_kind, plain.stats.by_kind);
    assert_eq!(traced.stats.msgs_by_kind, plain.stats.msgs_by_kind);
    assert_eq!(traced.stats.uplink_bytes, plain.stats.uplink_bytes);
    assert_eq!(traced.stats.downlink_bytes, plain.stats.downlink_bytes);
    assert_eq!(
        traced.stats.makespan_s.to_bits(),
        plain.stats.makespan_s.to_bits()
    );

    assert_eq!(traced.records.len(), plain.records.len());
    for (a, b) in traced.records.iter().zip(&plain.records) {
        assert_eq!(a.round, b.round);
        assert_eq!(a.lr.to_bits(), b.lr.to_bits(), "round {}", a.round);
        assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits(), "round {}", a.round);
        assert_eq!(a.cumulative_bytes, b.cumulative_bytes, "round {}", a.round);
        assert_eq!(
            a.simulated_time_s.to_bits(),
            b.simulated_time_s.to_bits(),
            "round {}",
            a.round
        );
        assert_eq!(
            a.accuracy.map(f32::to_bits),
            b.accuracy.map(f32::to_bits),
            "round {}",
            a.round
        );
        // wall_time_s intentionally not compared: host timing.
    }

    assert_eq!(traced_params.len(), plain_params.len());
    for (i, (a, b)) in traced_params.iter().zip(&plain_params).enumerate() {
        assert_eq!(a, b, "platform {i} L1 parameters differ");
    }

    fault_counters_mirror_the_reports();
    logical_bytes_are_codec_invariant_under_relays();
    baselines_are_bit_identical_and_traced_per_round();
}

/// The comparator methods run the shared round loop: a traced run equals
/// an untraced one bit for bit and records one `round` span per round.
fn baselines_are_bit_identical_and_traced_per_round() {
    let run = |method: &str| {
        let (shards, test) = data();
        let star = MemoryTransport::new(StarTopology::new(PLATFORMS));
        let history = match method {
            "fedavg" => train_fedavg(&arch(), &config(), Default::default(), shards, &test, &star),
            _ => train_sync_sgd(&arch(), &config(), Default::default(), shards, &test, &star),
        };
        history.unwrap()
    };
    // Everything but host wall time, to the bit.
    let bits = |h: &TrainingHistory| -> Vec<u64> {
        let mut v = vec![u64::from(h.final_accuracy.to_bits())];
        for r in &h.records {
            let acc = r.accuracy.map_or(0, |a| 1 << 32 | u64::from(a.to_bits()));
            v.extend([
                u64::from(r.mean_loss.to_bits()),
                r.cumulative_bytes,
                r.simulated_time_s.to_bits(),
            ]);
            v.extend([r.participants as u64, u64::from(r.degraded), acc]);
        }
        v
    };
    for method in ["fedavg", "sync_sgd"] {
        medsplit::telemetry::set_enabled(true);
        medsplit::telemetry::drain_spans();
        let traced = run(method);
        let spans = medsplit::telemetry::drain_spans();
        assert_eq!(
            spans.iter().filter(|s| s.name == "round").count(),
            ROUNDS,
            "{method}"
        );
        medsplit::telemetry::set_enabled(false);
        let plain = run(method);
        assert_eq!(traced.method, method);
        assert_eq!(bits(&traced), bits(&plain), "{method}");
        assert_eq!(traced.stats, plain.stats, "{method}");
    }
}

/// Logical bytes are what the run would have cost in f32 frames, so over
/// a 2×2 relay hierarchy they must not depend on the wire codec — in the
/// run's stats and in the per-kind counter of the relay batches, whose
/// payloads are tensors wrapped in inner frames.
fn logical_bytes_are_codec_invariant_under_relays() {
    let run = |codec: WireCodec| {
        medsplit::telemetry::reset_metrics();
        let topo = HierTopology::new(2, 2);
        let chaos = ChaosTransport::new(MemoryTransport::new(topo.clone()), FaultPlan::new(1));
        let (shards, test) = data();
        let cfg = SplitConfig { codec, ..config() };
        let mut trainer =
            HierResilientTrainer::new(&arch(), cfg, HierPolicy::default(), topo, shards, test, &chaos)
                .unwrap();
        let stats = trainer.run().unwrap().stats;
        let batches = Trace::capture().counter_total("net.bytes.relay_batch");
        (stats.logical_bytes, batches, stats.total_bytes)
    };
    medsplit::telemetry::set_enabled(true);
    let (f32_logical, f32_batches, f32_wire) = run(WireCodec::F32);
    assert_eq!(f32_logical, f32_wire, "f32 frames are their own logical size");
    assert!(f32_batches > 0);
    for codec in [WireCodec::F16, WireCodec::Int8] {
        let (logical, batches, wire) = run(codec);
        assert_eq!(logical, f32_logical, "{codec:?} logical bytes");
        assert_eq!(batches, f32_batches, "{codec:?} net.bytes.relay_batch");
        assert!(wire < f32_wire, "{codec:?} must still compress the wire");
    }
    medsplit::telemetry::set_enabled(false);
}

/// Asserts every counter the fault-tolerant drivers emit, by name, against
/// the matching report field. Called from the one test of this binary
/// because the metric registry is process-global.
fn fault_counters_mirror_the_reports() {
    let base = |prefix: &str, r: &ResilienceReport| -> Vec<(String, u64)> {
        [
            ("retries", r.retries),
            ("checksum_rejections", r.checksum_rejections),
            ("skipped_platforms", r.skipped_platform_rounds),
            ("degraded_rounds", r.degraded_rounds),
            ("quorum_failures", r.quorum_failures),
            ("crashes", r.crashes),
            ("rejoins", r.rejoins),
        ]
        .into_iter()
        .map(|(name, v)| (format!("{prefix}.{name}"), v))
        .collect()
    };
    let check = |expected: Vec<(String, u64)>| {
        let trace = Trace::capture();
        for (name, value) in expected {
            assert!(value > 0, "{name} is not exercised by this plan");
            assert_eq!(trace.counter_total(&name), value, "{name}");
        }
    };

    medsplit::telemetry::set_enabled(true);
    medsplit::telemetry::reset_metrics();
    let plan = FaultPlan::new(42)
        .with_drop(0.1)
        .with_corrupt(0.05)
        .crash(NodeId::Platform(2), 2)
        .recover(NodeId::Platform(2), 4)
        .straggler(NodeId::Platform(1), 5.0);
    let mut cfg = config();
    cfg.round_policy.deadline_s = 1.0;
    cfg.round_policy.min_platforms = 3;
    let (shards, test) = data();
    let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(PLATFORMS)), plan);
    let mut star = ResilientTrainer::new(&arch(), cfg, shards, test, &chaos).unwrap();
    star.run().unwrap();
    check(base("resilient", &star.report()));

    medsplit::telemetry::reset_metrics();
    let topo = HierTopology::new(2, 2);
    let plan = FaultPlan::new(42)
        .with_drop(0.1)
        .with_corrupt(0.15)
        .crash(NodeId::Platform(3), 0)
        .recover(NodeId::Platform(3), 1)
        .crash_relay(1, 1)
        .recover_relay(1, 3)
        .link(
            NodeId::Platform(0),
            NodeId::Relay(0),
            medsplit::simnet::LinkFaults {
                extra_delay_s: 5.0,
                ..Default::default()
            },
        )
        .partition_region(&topo, 0, 4, 5)
        .crash_relay(0, 5)
        .crash_relay(1, 5);
    let mut cfg = config();
    cfg.round_policy.deadline_s = 1.0;
    cfg.round_policy.min_platforms = 2;
    let hier = HierPolicy {
        region_quorum: 2,
        ..HierPolicy::default()
    };
    let (shards, test) = data();
    let chaos = ChaosTransport::new(MemoryTransport::new(topo.clone()), plan);
    let mut trainer = HierResilientTrainer::new(&arch(), cfg, hier, topo, shards, test, &chaos).unwrap();
    trainer.run().unwrap();
    let r = trainer.report().clone();
    let mut expected = base("hier", &r.base);
    for (name, v) in [
        ("rehomes", r.rehomes),
        ("direct_fallbacks", r.direct_fallbacks),
        ("orphaned_platform_rounds", r.orphaned_platform_rounds),
        ("relay_batches", r.relay_batches),
        ("region_quorum_drops", r.region_quorum_drops),
        ("relay_crashes", r.relay_crashes),
        ("relay_rejoins", r.relay_rejoins),
    ] {
        expected.push((format!("hier.{name}"), v));
    }
    for (g, &bytes) in r.region_bytes.iter().enumerate() {
        expected.push((format!("net.bytes.region{g}"), bytes));
    }
    check(expected);
    medsplit::telemetry::set_enabled(false);
}
