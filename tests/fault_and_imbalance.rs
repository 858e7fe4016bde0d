//! Failure injection and the data-imbalance story, end to end.

use medsplit::baselines::{train_local_only, train_sync_sgd, SyncSgdOptions};
use medsplit::core::{SplitConfig, SplitTrainer};
use medsplit::data::{partition, InMemoryDataset, MinibatchPolicy, Partition, SyntheticTabular};
use medsplit::nn::{Architecture, LrSchedule, MlpConfig};
use medsplit::simnet::{ChaosTransport, FaultPlan, MemoryTransport, NodeId, StarTopology};

fn arch() -> Architecture {
    Architecture::Mlp(MlpConfig {
        input_dim: 8,
        hidden: vec![16],
        num_classes: 3,
    })
}

fn data(seed: u64) -> (InMemoryDataset, InMemoryDataset) {
    let all = SyntheticTabular::new(3, 8, seed).generate(250).unwrap();
    let train = all.subset(&(0..200).collect::<Vec<_>>()).unwrap();
    let test = all.subset(&(200..250).collect::<Vec<_>>()).unwrap();
    (train, test)
}

#[test]
fn sync_sgd_with_backups_survives_dead_and_slow_platforms() {
    let (train, test) = data(0);
    let shards = partition(&train, 4, &Partition::Iid, 1).unwrap();
    let plan = FaultPlan::new(0)
        .crash(NodeId::Platform(1), 0)
        .straggler(NodeId::Platform(3), 5.0);
    let transport = ChaosTransport::new(MemoryTransport::new(StarTopology::new(4)), plan);
    transport.begin_round(0);
    let config = SplitConfig {
        rounds: 30,
        eval_every: 0,
        lr: LrSchedule::Constant(0.1),
        minibatch: MinibatchPolicy::Fixed(8),
        ..Default::default()
    };
    let history = train_sync_sgd(
        &arch(),
        &config,
        SyncSgdOptions { backup_workers: 1 },
        shards,
        &test,
        &transport,
    )
    .unwrap();
    assert!(
        history.final_accuracy > 0.6,
        "accuracy {}",
        history.final_accuracy
    );
    // The straggler's per-message penalty shows up in the simulated clock.
    assert!(
        history.stats.makespan_s >= 5.0,
        "makespan {}",
        history.stats.makespan_s
    );
    // The crashed platform sits out every step: three participants, a
    // degraded record each time.
    assert!(history.records.iter().all(|r| r.participants == 3 && r.degraded));
}

#[test]
fn split_training_tolerates_a_straggler_in_time_but_not_in_bytes() {
    let (train, test) = data(1);
    let shards = partition(&train, 3, &Partition::Iid, 2).unwrap();

    let run = |delay_s: f64| {
        let plan = FaultPlan::new(0).straggler(NodeId::Platform(2), delay_s);
        let transport = ChaosTransport::new(MemoryTransport::new(StarTopology::new(3)), plan);
        let config = SplitConfig {
            rounds: 10,
            eval_every: 0,
            minibatch: MinibatchPolicy::Fixed(8),
            ..SplitConfig::default()
        };
        let mut trainer =
            SplitTrainer::new(&arch(), config, shards.clone(), test.clone(), &transport).unwrap();
        trainer.run().unwrap()
    };
    let normal = run(0.0);
    let straggled = run(2.0);
    // Same bytes (the protocol is synchronous and loses nothing)...
    assert_eq!(normal.stats.total_bytes, straggled.stats.total_bytes);
    // ...but the straggler inflates simulated time.
    assert!(straggled.stats.makespan_s > normal.stats.makespan_s + 1.0);
    // And the learned model quality is unaffected.
    assert!((normal.final_accuracy - straggled.final_accuracy).abs() < 1e-6);
}

#[test]
fn proportional_minibatch_mitigates_power_law_imbalance() {
    let (train, test) = data(2);
    let shards = partition(&train, 4, &Partition::PowerLaw { alpha: 2.0 }, 3).unwrap();
    let sizes: Vec<usize> = shards.iter().map(InMemoryDataset::len).collect();
    assert!(sizes[0] > 4 * sizes[3], "expected heavy skew: {sizes:?}");

    let run = |policy: MinibatchPolicy| {
        let transport = MemoryTransport::new(StarTopology::new(4));
        let config = SplitConfig {
            rounds: 60,
            eval_every: 0,
            lr: LrSchedule::Constant(0.1),
            minibatch: policy,
            ..SplitConfig::default()
        };
        let mut trainer =
            SplitTrainer::new(&arch(), config, shards.clone(), test.clone(), &transport).unwrap();
        trainer.run().unwrap().final_accuracy
    };
    let proportional = run(MinibatchPolicy::Proportional { global: 32 });
    let fixed = run(MinibatchPolicy::Fixed(8));
    // Proportional sampling must not be worse; under skew it corrects the
    // oversampling of tiny shards. (Both learn; the gap can be small on an
    // easy task, so assert non-inferiority plus learning.)
    assert!(proportional > 0.7, "proportional accuracy {proportional}");
    assert!(
        proportional + 0.05 >= fixed,
        "proportional {proportional} vs fixed {fixed}"
    );
}

#[test]
fn split_beats_local_only_under_label_skew() {
    let (train, test) = data(3);
    let shards = partition(&train, 4, &Partition::Dirichlet { alpha: 0.1 }, 4).unwrap();

    let transport = MemoryTransport::new(StarTopology::new(4));
    let config = SplitConfig {
        rounds: 60,
        eval_every: 0,
        lr: LrSchedule::Constant(0.1),
        minibatch: MinibatchPolicy::Proportional { global: 32 },
        ..SplitConfig::default()
    };
    let mut trainer =
        SplitTrainer::new(&arch(), config.clone(), shards.clone(), test.clone(), &transport).unwrap();
    let split_acc = trainer.run().unwrap().final_accuracy;

    let (local_history, per_platform) = train_local_only(&arch(), &config, &shards, &test).unwrap();

    // The paper's motivation: local-only models overfit their skewed
    // shards; the split model sees the union through the server.
    assert!(
        split_acc > local_history.final_accuracy + 0.1,
        "split {split_acc} vs local mean {}",
        local_history.final_accuracy
    );
    // Every single local model is worse than the split model.
    for (i, acc) in per_platform.iter().enumerate() {
        assert!(
            split_acc > *acc,
            "platform {i} local model ({acc}) beat split ({split_acc})"
        );
    }
}
