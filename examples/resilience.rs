//! Operational resilience: what happens when hospitals crash or lag, and
//! how the server recovers from its own failures.
//!
//! Part 1 — a hospital dies mid-study and another straggles: large-scale
//! synchronous SGD stalls without backup workers, survives with them.
//! Part 2 — the central server crashes: training resumes from a
//! checkpoint blob without retraining.
//! Part 3 — the fault-tolerant split trainer: one hospital crashes and
//! rejoins from its checkpoint, another straggles past the round
//! deadline, 10 % of messages are dropped — and the study still
//! completes under a quorum policy, deterministically from one seed.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example resilience --release
//! ```

use medsplit::baselines::{train_sync_sgd, SyncSgdOptions};
use medsplit::core::{ResilientTrainer, SplitConfig, SplitTrainer};
use medsplit::data::{partition, MinibatchPolicy, Partition, SyntheticTabular};
use medsplit::nn::{Architecture, LrSchedule, MlpConfig};
use medsplit::simnet::{ChaosTransport, FaultPlan, MemoryTransport, NodeId, StarTopology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arch = Architecture::Mlp(MlpConfig {
        input_dim: 12,
        hidden: vec![32, 16],
        num_classes: 4,
    });
    let mut gen = SyntheticTabular::new(4, 12, 3);
    gen.separation = 0.8;
    let all = gen.generate(500)?;
    let train = all.subset(&(0..400).collect::<Vec<_>>())?;
    let test = all.subset(&(400..500).collect::<Vec<_>>())?;
    let shards = partition(&train, 4, &Partition::Iid, 1)?;

    // ---- Part 1: dead + straggling hospitals under sync-SGD -------------
    println!("== Part 1: hospital failures under large-scale synchronous SGD ==");
    let config = SplitConfig {
        rounds: 60,
        eval_every: 0,
        lr: LrSchedule::Constant(0.1),
        minibatch: MinibatchPolicy::Fixed(8),
        ..Default::default()
    };

    // Hospital 1 is down from the first round on. Sync-SGD never starts a
    // chaos round itself, so only the crash applied here by
    // `begin_round(0)` takes effect: it lasts the whole run, and a later
    // crash or recovery in the plan would never fire.
    let dead_hospital = FaultPlan::new(0).crash(NodeId::Platform(1), 0);
    let star = |plan: FaultPlan| {
        let transport = ChaosTransport::new(MemoryTransport::new(StarTopology::new(4)), plan);
        transport.begin_round(0);
        transport
    };

    // Without backup workers, one dead hospital stalls the whole study.
    {
        let transport = star(dead_hospital.clone());
        match train_sync_sgd(
            &arch,
            &config,
            SyncSgdOptions::default(),
            shards.clone(),
            &test,
            &transport,
        ) {
            Err(e) => println!("no backups, hospital 1 dead  -> training stalls: {e}"),
            Ok(_) => println!("unexpected success"),
        }
    }
    // With one backup worker the study completes despite a death AND a
    // straggler.
    {
        let transport = star(dead_hospital.straggler(NodeId::Platform(3), 3.0));
        let history = train_sync_sgd(
            &arch,
            &config,
            SyncSgdOptions { backup_workers: 1 },
            shards.clone(),
            &test,
            &transport,
        )?;
        println!(
            "1 backup, hospital 1 dead + hospital 3 slow -> {:.1}% accuracy, {:.1} s simulated",
            history.final_accuracy * 100.0,
            history.stats.makespan_s
        );
    }

    // ---- Part 2: server crash + checkpoint recovery under split ---------
    println!("\n== Part 2: server crash recovery under split learning ==");
    let split_config = SplitConfig {
        rounds: 40,
        eval_every: 0,
        lr: LrSchedule::Constant(0.1),
        minibatch: MinibatchPolicy::Fixed(8),
        momentum: 0.0,
        ..SplitConfig::default()
    };
    let t1 = MemoryTransport::new(StarTopology::new(4));
    let mut phase1 = SplitTrainer::new(&arch, split_config.clone(), shards.clone(), test.clone(), &t1)?;
    let h1 = phase1.run()?;
    let server_blob = phase1.server_mut().checkpoint();
    let platform_blobs: Vec<_> = phase1
        .platforms_mut()
        .iter_mut()
        .map(|p| p.checkpoint())
        .collect();
    println!(
        "phase 1: {:.1}% accuracy after {} rounds; checkpointed {} server bytes",
        h1.final_accuracy * 100.0,
        split_config.rounds,
        server_blob.len()
    );

    // The server "crashes": a brand-new deployment restores the blobs.
    let t2 = MemoryTransport::new(StarTopology::new(4));
    let mut cfg2 = split_config;
    cfg2.seed = 12345; // fresh random init — only the checkpoint carries state
    let mut phase2 = SplitTrainer::new(&arch, cfg2, shards.clone(), test.clone(), &t2)?;
    phase2.server_mut().restore(&server_blob)?;
    for (p, blob) in phase2.platforms_mut().iter_mut().zip(&platform_blobs) {
        p.restore(blob)?;
    }
    let resumed = phase2.evaluate()?;
    println!(
        "phase 2: restored accuracy {:.1}% (bit-exact match: {})",
        resumed * 100.0,
        resumed == h1.final_accuracy
    );
    let h2 = phase2.run()?;
    println!(
        "phase 2: {:.1}% accuracy after {} more rounds — study completed despite the crash",
        h2.final_accuracy * 100.0,
        40
    );

    // ---- Part 3: fault-tolerant split training under chaos --------------
    println!("\n== Part 3: quorum rounds under loss, a crash and a straggler ==");
    let mut chaos_config = SplitConfig {
        rounds: 40,
        eval_every: 0,
        lr: LrSchedule::Constant(0.1),
        minibatch: MinibatchPolicy::Fixed(8),
        momentum: 0.0,
        ..SplitConfig::default()
    };
    // Proceed while at least 2 of 4 hospitals answer; skip anyone slower
    // than 2 simulated seconds per round.
    chaos_config.round_policy.min_platforms = 2;
    chaos_config.round_policy.deadline_s = 2.0;

    // Everything below — which messages drop, when hospital 1 dies and
    // rejoins, how badly hospital 3 lags — replays from this one seed.
    let plan = FaultPlan::new(42)
        .with_drop(0.10)
        .crash(NodeId::Platform(1), 10)
        .recover(NodeId::Platform(1), 25)
        .straggler(NodeId::Platform(3), 5.0);
    let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(4)), plan);
    let mut trainer =
        ResilientTrainer::new(&arch, chaos_config.clone(), shards.clone(), test.clone(), &chaos)?;
    let faulty = trainer.run()?;
    let report = trainer.report();
    println!(
        "chaos run: {:.1}% accuracy, {} / {} rounds degraded, {} retries, \
         {} crash / {} rejoin, {} straggler round-skips",
        faulty.final_accuracy * 100.0,
        faulty.degraded_rounds(),
        chaos_config.rounds,
        report.retries,
        report.crashes,
        report.rejoins,
        report.skipped_platform_rounds,
    );

    // The same study with a healthy network, for comparison.
    let calm = ChaosTransport::new(MemoryTransport::new(StarTopology::new(4)), FaultPlan::new(42));
    let mut baseline = ResilientTrainer::new(&arch, chaos_config, shards, test, &calm)?;
    let clean = baseline.run()?;
    println!(
        "fault-free:  {:.1}% accuracy — chaos cost {:.1} accuracy points",
        clean.final_accuracy * 100.0,
        (clean.final_accuracy - faulty.final_accuracy) * 100.0
    );
    Ok(())
}
