//! Cross-crate accounting invariants: what each protocol puts on the wire
//! matches the analytic formulas byte-for-byte, and the privacy
//! invariants hold.

use medsplit::baselines::{train_fedavg, train_sync_sgd, FedAvgOptions, SyncSgdOptions};
use medsplit::core::{comm, SplitConfig, SplitTrainer};
use medsplit::data::{partition, InMemoryDataset, MinibatchPolicy, Partition, SyntheticTabular};
use medsplit::nn::{Architecture, LrSchedule, MlpConfig};
use medsplit::simnet::{MemoryTransport, MessageKind, StarTopology};

const PLATFORMS: usize = 3;
const ROUNDS: usize = 7;
const BATCH: usize = 5;

fn setup() -> (Architecture, Vec<InMemoryDataset>, InMemoryDataset) {
    let arch = Architecture::Mlp(MlpConfig {
        input_dim: 6,
        hidden: vec![12],
        num_classes: 3,
    });
    let all = SyntheticTabular::new(3, 6, 0).generate(120).unwrap();
    let train = all.subset(&(0..90).collect::<Vec<_>>()).unwrap();
    let test = all.subset(&(90..120).collect::<Vec<_>>()).unwrap();
    let shards = partition(&train, PLATFORMS, &Partition::Iid, 1).unwrap();
    (arch, shards, test)
}

fn base_config() -> SplitConfig {
    SplitConfig {
        rounds: ROUNDS,
        eval_every: 0,
        lr: LrSchedule::Constant(0.05),
        minibatch: MinibatchPolicy::Fixed(BATCH),
        ..Default::default()
    }
}

#[test]
fn split_bytes_match_analytic_formula_exactly() {
    let (arch, shards, test) = setup();
    let transport = MemoryTransport::new(StarTopology::new(PLATFORMS));
    let mut trainer = SplitTrainer::new(&arch, base_config(), shards, test, &transport).unwrap();
    let history = trainer.run().unwrap();
    // L1 output width is 12 (first hidden layer), 3 classes.
    let expected = ROUNDS as u64 * comm::split_round_bytes(&[BATCH; PLATFORMS], &[12], 3);
    assert_eq!(history.stats.total_bytes, expected);
}

#[test]
fn fedavg_bytes_match_analytic_formula_exactly() {
    let (arch, shards, test) = setup();
    let transport = MemoryTransport::new(StarTopology::new(PLATFORMS));
    let history = train_fedavg(
        &arch,
        &base_config(),
        FedAvgOptions { local_steps: 3 },
        shards,
        &test,
        &transport,
    )
    .unwrap();
    // MLPs carry no batch-norm state, so the snapshot is the parameters.
    let expected = ROUNDS as u64 * comm::fedavg_round_bytes(PLATFORMS, arch.param_count());
    assert_eq!(history.stats.total_bytes, expected);
}

#[test]
fn sync_sgd_bytes_match_analytic_formula_exactly() {
    let (arch, shards, test) = setup();
    let transport = MemoryTransport::new(StarTopology::new(PLATFORMS));
    let history = train_sync_sgd(
        &arch,
        &base_config(),
        SyncSgdOptions::default(),
        shards,
        &test,
        &transport,
    )
    .unwrap();
    let expected = ROUNDS as u64 * comm::sync_sgd_round_bytes(PLATFORMS, arch.param_count());
    assert_eq!(history.stats.total_bytes, expected);
}

#[test]
fn split_uplink_downlink_partition_the_total() {
    let (arch, shards, test) = setup();
    let transport = MemoryTransport::new(StarTopology::new(PLATFORMS));
    let mut trainer = SplitTrainer::new(&arch, base_config(), shards, test, &transport).unwrap();
    let history = trainer.run().unwrap();
    let s = &history.stats;
    assert_eq!(s.uplink_bytes + s.downlink_bytes, s.total_bytes);
    // The four message kinds partition the traffic too.
    let by_kind: u64 = [
        MessageKind::Activations,
        MessageKind::Logits,
        MessageKind::LogitGrads,
        MessageKind::CutGrads,
    ]
    .iter()
    .map(|k| s.bytes_of(*k))
    .sum();
    assert_eq!(by_kind, s.total_bytes);
    // Activations and cut gradients are the same tensor shape.
    assert_eq!(
        s.bytes_of(MessageKind::Activations),
        s.bytes_of(MessageKind::CutGrads)
    );
    assert_eq!(
        s.bytes_of(MessageKind::Logits),
        s.bytes_of(MessageKind::LogitGrads)
    );
}

#[test]
fn no_protocol_ever_ships_raw_data_except_centralized() {
    let (arch, shards, test) = setup();
    // Split.
    {
        let transport = MemoryTransport::new(StarTopology::new(PLATFORMS));
        let config = SplitConfig {
            rounds: 2,
            eval_every: 0,
            ..SplitConfig::default()
        };
        let mut trainer = SplitTrainer::new(&arch, config, shards.clone(), test.clone(), &transport).unwrap();
        let h = trainer.run().unwrap();
        assert_eq!(h.stats.bytes_of(MessageKind::RawData), 0);
    }
    // FedAvg and sync-SGD.
    {
        let transport = MemoryTransport::new(StarTopology::new(PLATFORMS));
        let mut cfg = base_config();
        cfg.rounds = 2;
        let h = train_fedavg(
            &arch,
            &cfg,
            FedAvgOptions::default(),
            shards.clone(),
            &test,
            &transport,
        )
        .unwrap();
        assert_eq!(h.stats.bytes_of(MessageKind::RawData), 0);
        let transport2 = MemoryTransport::new(StarTopology::new(PLATFORMS));
        let h2 = train_sync_sgd(
            &arch,
            &cfg,
            SyncSgdOptions::default(),
            shards.clone(),
            &test,
            &transport2,
        )
        .unwrap();
        assert_eq!(h2.stats.bytes_of(MessageKind::RawData), 0);
    }
    // Centralized is the one method that does.
    {
        let transport = MemoryTransport::new(StarTopology::new(PLATFORMS));
        let mut cfg = base_config();
        cfg.rounds = 2;
        let h = medsplit::baselines::train_centralized(&arch, &cfg, &shards, &test, &transport).unwrap();
        assert!(h.stats.bytes_of(MessageKind::RawData) > 0);
    }
}

#[test]
fn split_traffic_is_independent_of_model_depth() {
    // Adding hidden layers on the server side must not change split
    // traffic at all — the defining property of the protocol.
    let (_, shards, test) = setup();
    let shallow = Architecture::Mlp(MlpConfig {
        input_dim: 6,
        hidden: vec![12],
        num_classes: 3,
    });
    let deep = Architecture::Mlp(MlpConfig {
        input_dim: 6,
        hidden: vec![12, 64, 64, 64],
        num_classes: 3,
    });
    let mut totals = Vec::new();
    for arch in [&shallow, &deep] {
        let transport = MemoryTransport::new(StarTopology::new(PLATFORMS));
        let config = SplitConfig {
            rounds: 3,
            eval_every: 0,
            minibatch: MinibatchPolicy::Fixed(BATCH),
            ..SplitConfig::default()
        };
        let mut trainer = SplitTrainer::new(arch, config, shards.clone(), test.clone(), &transport).unwrap();
        totals.push(trainer.run().unwrap().stats.total_bytes);
    }
    assert_eq!(totals[0], totals[1], "depth changed split traffic");
    // While model-exchange traffic grows with depth:
    assert!(
        comm::fedavg_round_bytes(PLATFORMS, deep.param_count())
            > comm::fedavg_round_bytes(PLATFORMS, shallow.param_count())
    );
}
