//! Hierarchy benchmark: star vs relay-hierarchy split training under
//! relay crashes and region partitions.
//!
//! Sweeps a fixed 8-platform workload over a flat star and 2-region /
//! 4-region relay hierarchies, each under a fault plan (fault-free,
//! relay crash mid-run, region partition, and both at once), and
//! reports wire bytes, simulated makespan, final accuracy, degraded
//! rounds and the hierarchy's failover counters.
//!
//! Outputs:
//!   - `bench_results/hier.csv` (or `$MEDSPLIT_RESULTS_DIR`).
//!
//! Usage:
//!   exp hier_bench [--smoke] [--rounds N]
//!
//! `--smoke` runs a reduced sweep and asserts the invariants CI gates
//! on: a relay crash re-homes its platforms without degrading a single
//! round, a region partition degrades exactly its window, faulty
//! hierarchical accuracy stays within tolerance of the fault-free
//! hierarchical run, and a replay from the same seed is bit-identical.

use crate::report::{arg_present, arg_value, ReportWriter, TextTable};
use medsplit_core::{
    HierPolicy, HierReport, HierResilientTrainer, ResilientTrainer, SplitConfig, TrainingHistory,
};
use medsplit_data::{partition, InMemoryDataset, MinibatchPolicy, Partition, SyntheticTabular};
use medsplit_nn::{Architecture, LrSchedule, MlpConfig};
use medsplit_simnet::{ChaosTransport, FaultPlan, HierTopology, MemoryTransport, StarTopology};

const CSV_HEADER: &str = "topology,scenario,rounds,final_accuracy,acc_vs_clean,total_bytes,\
                          bytes_vs_star,makespan_s,degraded_rounds,rehomes,direct_fallbacks,\
                          orphaned_platform_rounds,relay_batches,retries";

const PLATFORMS: usize = 8;
const SEED: u64 = 23;

/// What a `hier_bench` invocation measured, for the lab runner.
#[derive(Debug, Clone, Copy)]
pub struct HierBenchOutcome {
    /// CSV rows produced (topology × scenario points swept).
    pub rows: usize,
    /// Final accuracy of the fault-free 4-region hierarchical run.
    pub hier_clean_accuracy: f32,
    /// Total wire bytes of the fault-free flat-star baseline.
    pub star_clean_bytes: u64,
}

struct Row {
    topology: String,
    scenario: String,
    rounds: usize,
    history: TrainingHistory,
    hier: Option<HierReport>,
}

fn data(platforms: usize) -> (Vec<InMemoryDataset>, InMemoryDataset) {
    let gen = SyntheticTabular::new(3, 8, SEED);
    let train = gen.generate(240).expect("train data");
    let test = SyntheticTabular::new(3, 8, SEED + 1)
        .generate(60)
        .expect("test data");
    let shards = partition(&train, platforms, &Partition::Iid, SEED).expect("shards");
    (shards, test)
}

fn arch() -> Architecture {
    Architecture::Mlp(MlpConfig {
        input_dim: 8,
        hidden: vec![16],
        num_classes: 3,
    })
}

fn config(rounds: usize) -> SplitConfig {
    let mut cfg = SplitConfig {
        rounds,
        eval_every: rounds,
        lr: LrSchedule::Constant(0.1),
        minibatch: MinibatchPolicy::Fixed(10),
        ..SplitConfig::default()
    };
    // Tolerate the injected faults: any quorum completes the round.
    cfg.round_policy.min_platforms = 1;
    cfg
}

fn run_star(plan: FaultPlan, rounds: usize) -> TrainingHistory {
    let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(PLATFORMS)), plan);
    let (shards, test) = data(PLATFORMS);
    let mut trainer =
        ResilientTrainer::new(&arch(), config(rounds), shards, test, &chaos).expect("star trainer");
    trainer.run().expect("star training run")
}

fn run_hier(topo: &HierTopology, plan: FaultPlan, rounds: usize) -> (TrainingHistory, HierReport) {
    let chaos = ChaosTransport::new(MemoryTransport::new(topo.clone()), plan);
    let (shards, test) = data(topo.platforms());
    let mut trainer = HierResilientTrainer::new(
        &arch(),
        config(rounds),
        HierPolicy::default(),
        topo.clone(),
        shards,
        test,
        &chaos,
    )
    .expect("hier trainer");
    let history = trainer.run().expect("hier training run");
    let report = trainer.report().clone();
    (history, report)
}

/// Relay 1 down for `[crash, recover)` — its region re-homes to relay 2.
fn relay_crash_plan(crash: u64, recover: u64) -> FaultPlan {
    FaultPlan::new(SEED)
        .crash_relay(1, crash)
        .recover_relay(1, recover)
}

/// Region 1 cut off from everything outside it for `[down, up)`.
fn partition_plan(topo: &HierTopology, down: u64, up: u64) -> FaultPlan {
    FaultPlan::new(SEED).partition_region(topo, 1, down, up)
}

fn to_report(rows: &[Row], clean_acc: f32, star_bytes: u64) -> ReportWriter {
    let mut report = ReportWriter::csv(CSV_HEADER);
    for r in rows {
        let hier = r.hier.clone().unwrap_or_default();
        report.line(&format!(
            "{},{},{},{:.4},{:+.4},{},{:.3},{:.3},{},{},{},{},{},{}",
            r.topology,
            r.scenario,
            r.rounds,
            r.history.final_accuracy,
            r.history.final_accuracy - clean_acc,
            r.history.stats.total_bytes,
            r.history.stats.total_bytes as f64 / star_bytes.max(1) as f64,
            r.history.stats.makespan_s,
            r.history.degraded_rounds(),
            hier.rehomes,
            hier.direct_fallbacks,
            hier.orphaned_platform_rounds,
            hier.relay_batches,
            hier.base.retries,
        ));
    }
    report
}

fn smoke_asserts(rounds: usize) {
    let (crash, recover) = (rounds as u64 / 4, rounds as u64 / 2);
    let topo = HierTopology::new(4, 2);

    // Gate 1: a relay crash re-homes its region to a backup relay —
    // zero degraded rounds, zero orphans, and exactly the crash
    // window's worth of re-homed platform-rounds.
    let (crashed, report) = run_hier(&topo, relay_crash_plan(crash, recover), rounds);
    assert_eq!(crashed.records.len(), rounds, "relay-crash run must complete");
    assert_eq!(
        crashed.degraded_rounds(),
        0,
        "failover must keep every round whole"
    );
    assert_eq!(report.orphaned_platform_rounds, 0);
    assert_eq!(
        report.rehomes,
        (recover - crash) * topo.per_region() as u64,
        "each platform of the crashed relay re-homes every window round"
    );

    // Gate 2: a partitioned region degrades exactly its window and the
    // rest of the fleet keeps training.
    let (parted, parted_report) = run_hier(&topo, partition_plan(&topo, crash, recover), rounds);
    assert_eq!(
        parted.degraded_rounds(),
        (recover - crash) as usize,
        "partition must degrade exactly its window"
    );
    assert_eq!(
        parted_report.orphaned_platform_rounds,
        (recover - crash) * topo.per_region() as u64
    );
    for r in &parted.records {
        let expected = if (crash..recover).contains(&(r.round as u64)) {
            topo.platforms() - topo.per_region()
        } else {
            topo.platforms()
        };
        assert_eq!(r.participants, expected, "round {} participants", r.round);
    }

    // Gate 3: faulty hierarchical accuracy stays within tolerance of
    // the fault-free hierarchical run.
    let (clean, _) = run_hier(&topo, FaultPlan::new(SEED), rounds);
    for (name, hist) in [("relay crash", &crashed), ("partition", &parted)] {
        assert!(
            hist.final_accuracy >= clean.final_accuracy - 0.10,
            "{name} accuracy {} must stay within 10 points of clean {}",
            hist.final_accuracy,
            clean.final_accuracy
        );
    }

    // Gate 4: the combined fault replays bit-identically from its seed.
    let plan = relay_crash_plan(crash, recover).partition_region(&topo, 1, crash + 1, recover + 1);
    let (h1, r1) = run_hier(&topo, plan.clone(), rounds);
    let (h2, r2) = run_hier(&topo, plan, rounds);
    assert_eq!(r1, r2, "failover counters must replay identically");
    assert_eq!(h1.stats, h2.stats, "wire accounting must replay identically");
    assert_eq!(
        h1.final_accuracy.to_bits(),
        h2.final_accuracy.to_bits(),
        "weights must replay bit-identically"
    );
    println!("smoke asserts passed");
}

/// Runs the star-vs-hierarchy sweep and returns the headline figures.
pub fn run(args: &[String]) -> HierBenchOutcome {
    let smoke = arg_present(args, "--smoke");
    let rounds: usize = arg_value(args, "--rounds")
        .map(|v| v.parse().expect("--rounds takes an integer"))
        .unwrap_or(if smoke { 12 } else { 40 });
    let (crash, recover) = (rounds as u64 / 4, rounds as u64 / 2);

    let mut rows = Vec::new();

    // Flat-star baseline: the byte and accuracy yardstick.
    let star_clean = run_star(FaultPlan::new(SEED), rounds);
    let star_bytes = star_clean.stats.total_bytes;
    let clean_acc = star_clean.final_accuracy;
    rows.push(Row {
        topology: "star8".into(),
        scenario: "clean".into(),
        rounds,
        history: star_clean,
        hier: None,
    });
    let star_crash = run_star(
        FaultPlan::new(SEED)
            .crash(medsplit_simnet::NodeId::Platform(1), crash)
            .recover(medsplit_simnet::NodeId::Platform(1), recover),
        rounds,
    );
    rows.push(Row {
        topology: "star8".into(),
        scenario: format!("crash_{crash}_{recover}"),
        rounds,
        history: star_crash,
        hier: None,
    });

    // Hierarchies over the same 8 platforms.
    let shapes: &[(usize, usize)] = if smoke { &[(4, 2)] } else { &[(2, 4), (4, 2)] };
    let mut hier_clean_accuracy = 0.0f32;
    for &(regions, per_region) in shapes {
        let topo = HierTopology::new(regions, per_region);
        let name = format!("hier{regions}_{per_region}");

        let (history, report) = run_hier(&topo, FaultPlan::new(SEED), rounds);
        hier_clean_accuracy = history.final_accuracy;
        rows.push(Row {
            topology: name.clone(),
            scenario: "clean".into(),
            rounds,
            history,
            hier: Some(report),
        });

        let (history, report) = run_hier(&topo, relay_crash_plan(crash, recover), rounds);
        rows.push(Row {
            topology: name.clone(),
            scenario: format!("relaycrash_{crash}_{recover}"),
            rounds,
            history,
            hier: Some(report),
        });

        let (history, report) = run_hier(&topo, partition_plan(&topo, crash, recover), rounds);
        rows.push(Row {
            topology: name.clone(),
            scenario: format!("partition_1_{crash}_{recover}"),
            rounds,
            history,
            hier: Some(report),
        });

        let plan = relay_crash_plan(crash, recover).partition_region(&topo, 1, crash + 1, recover + 1);
        let (history, report) = run_hier(&topo, plan, rounds);
        rows.push(Row {
            topology: name,
            scenario: "relaycrash+partition".into(),
            rounds,
            history,
            hier: Some(report),
        });
    }

    let report = to_report(&rows, clean_acc, star_bytes);
    let path = report.write("hier.csv").expect("write hier.csv");
    println!("wrote {}", path.display());

    let mut table = TextTable::new(
        "hier",
        &[
            "topology", "scenario", "acc", "d_acc", "MB", "makespan", "degraded", "rehomes", "orphaned",
        ],
    );
    for r in &rows {
        let hier = r.hier.clone().unwrap_or_default();
        table.row(vec![
            r.topology.clone(),
            r.scenario.clone(),
            format!("{:.3}", r.history.final_accuracy),
            format!("{:+.3}", r.history.final_accuracy - clean_acc),
            format!("{:.2}", r.history.stats.total_bytes as f64 / 1e6),
            format!("{:.1}", r.history.stats.makespan_s),
            r.history.degraded_rounds().to_string(),
            hier.rehomes.to_string(),
            hier.orphaned_platform_rounds.to_string(),
        ]);
    }
    println!("{table}");

    if smoke {
        smoke_asserts(rounds);
    }
    HierBenchOutcome {
        rows: rows.len(),
        hier_clean_accuracy,
        star_clean_bytes: star_bytes,
    }
}
