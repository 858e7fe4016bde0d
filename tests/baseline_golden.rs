//! Golden pins for the four baseline trainers.
//!
//! Each case runs one baseline on a small fixed problem twice, checks the
//! two runs agree, and compares FNV-1a digests against literals recorded
//! from the code as it stood before the baselines were moved onto the
//! shared round loop: the per-round history (loss bits, cumulative bytes,
//! simulated clock bits, participants, degraded flag, accuracy bits, but
//! not host wall time), the final
//! [`StatsSnapshot`](medsplit::simnet::StatsSnapshot), the final accuracy
//! and, for local-only training, every platform's own accuracy. Any change
//! to sampling order, optimiser arithmetic, send order, simulated clocks,
//! wire bytes or evaluation order moves at least one of them.

use medsplit::baselines::{
    train_centralized, train_fedavg, train_local_only, train_sync_sgd, FedAvgOptions, SyncSgdOptions,
};
use medsplit::core::{ComputeModel, SplitConfig, TrainingHistory};
use medsplit::data::{partition, InMemoryDataset, MinibatchPolicy, Partition, SyntheticTabular};
use medsplit::nn::{Architecture, LrSchedule, MlpConfig};
use medsplit::simnet::{ChaosTransport, FaultPlan, MemoryTransport, NodeId, StarTopology, StatsSnapshot};

const PLATFORMS: usize = 4;
const ROUNDS: usize = 7;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The digests of one run.
#[derive(PartialEq, Eq)]
struct Golden {
    history: u64,
    stats: u64,
    final_accuracy: u32,
    per_platform: u64,
}

impl std::fmt::Debug for Golden {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Golden {{ history: {:#018x}, stats: {:#018x}, final_accuracy: {:#010x}, per_platform: {:#018x} }}",
            self.history, self.stats, self.final_accuracy, self.per_platform
        )
    }
}

fn history_digest(h: &TrainingHistory) -> u64 {
    let mut d = Fnv::new();
    d.bytes(h.method.as_bytes());
    for r in &h.records {
        d.u64(r.round as u64);
        d.u64(u64::from(r.lr.to_bits()));
        d.u64(u64::from(r.mean_loss.to_bits()));
        d.u64(r.cumulative_bytes);
        d.u64(r.simulated_time_s.to_bits());
        d.u64(r.participants as u64);
        d.u64(u64::from(r.degraded));
        match r.accuracy {
            Some(a) => d.u64(1 << 32 | u64::from(a.to_bits())),
            None => d.u64(0),
        }
    }
    d.0
}

fn stats_digest(s: &StatsSnapshot) -> u64 {
    let mut d = Fnv::new();
    d.u64(s.total_bytes);
    d.u64(s.logical_bytes);
    d.u64(s.messages);
    for (kind, bytes) in &s.by_kind {
        d.u64(u64::from(kind.wire_code()));
        d.u64(*bytes);
    }
    for (kind, n) in &s.msgs_by_kind {
        d.u64(u64::from(kind.wire_code()));
        d.u64(*n);
    }
    d.u64(s.uplink_bytes);
    d.u64(s.downlink_bytes);
    d.u64(s.makespan_s.to_bits());
    d.0
}

fn golden(h: &TrainingHistory, per_platform: &[f32]) -> Golden {
    let mut d = Fnv::new();
    d.u64(per_platform.len() as u64);
    for a in per_platform {
        d.u64(u64::from(a.to_bits()));
    }
    Golden {
        history: history_digest(h),
        stats: stats_digest(&h.stats),
        final_accuracy: h.final_accuracy.to_bits(),
        per_platform: d.0,
    }
}

/// Runs `scenario` twice, checks the two runs agree, and returns the
/// digests.
fn replayed(scenario: impl Fn() -> (TrainingHistory, Vec<f32>)) -> Golden {
    let (h1, p1) = scenario();
    let (h2, p2) = scenario();
    let first = golden(&h1, &p1);
    assert_eq!(first, golden(&h2, &p2), "the scenario does not replay");
    first
}

fn arch() -> Architecture {
    Architecture::Mlp(MlpConfig {
        input_dim: 8,
        hidden: vec![16],
        num_classes: 3,
    })
}

/// 240 training samples over four shards and 100 test samples, so
/// evaluation runs one full batch of 64 and one ragged batch of 36.
fn data(split: &Partition) -> (Vec<InMemoryDataset>, InMemoryDataset) {
    let train = SyntheticTabular::new(3, 8, 0).generate(240).unwrap();
    let test = SyntheticTabular::new(3, 8, 1).generate(100).unwrap();
    (partition(&train, PLATFORMS, split, 1).unwrap(), test)
}

/// Seven rounds under a decaying learning rate, momentum and unequal
/// minibatches.
fn config(eval_every: usize, compute: ComputeModel) -> SplitConfig {
    SplitConfig {
        rounds: ROUNDS,
        eval_every,
        lr: LrSchedule::StepDecay {
            base: 0.1,
            step_size: 3,
            gamma: 0.5,
        },
        minibatch: MinibatchPolicy::Proportional { global: 40 },
        compute,
        ..Default::default()
    }
}

fn star() -> MemoryTransport {
    MemoryTransport::new(StarTopology::new(PLATFORMS))
}

#[test]
fn sync_sgd_clean() {
    let got = replayed(|| {
        let (shards, test) = data(&Partition::Iid);
        let cfg = config(3, ComputeModel::hospital_default());
        let h = train_sync_sgd(&arch(), &cfg, SyncSgdOptions::default(), shards, &test, &star()).unwrap();
        (h, vec![])
    });
    let want = Golden {
        history: 0x3469_2227_9ee6_1ada,
        stats: 0x65ea_bb46_c45a_40c7,
        final_accuracy: 0x3ec2_8f5c,
        per_platform: 0xa8c7_f832_281a_39c5,
    };
    assert_eq!(got, want);
}

#[test]
fn sync_sgd_backup_worker_under_chaos() {
    // Platform 1 is down from the first round, platform 3 pays 5 simulated
    // seconds per send, and one backup worker lets the step proceed on
    // the three gradients that arrive.
    let got = replayed(|| {
        let (shards, test) = data(&Partition::Iid);
        let plan = FaultPlan::new(0)
            .crash(NodeId::Platform(1), 0)
            .straggler(NodeId::Platform(3), 5.0);
        let chaos = ChaosTransport::new(star(), plan);
        chaos.begin_round(0);
        let cfg = config(0, ComputeModel::hospital_default());
        let options = SyncSgdOptions { backup_workers: 1 };
        let h = train_sync_sgd(&arch(), &cfg, options, shards, &test, &chaos).unwrap();
        assert!(h.records.iter().all(|r| r.participants == 3 && r.degraded));
        (h, vec![])
    });
    let want = Golden {
        history: 0x0d4b_ca0d_3416_447f,
        stats: 0xdb74_140f_8b24_f54d,
        final_accuracy: 0x3edc_28f6,
        per_platform: 0xa8c7_f832_281a_39c5,
    };
    assert_eq!(got, want);
}

fn fedavg(split: Partition) -> Golden {
    replayed(|| {
        let (shards, test) = data(&split);
        let cfg = config(3, ComputeModel::hospital_default());
        let options = FedAvgOptions { local_steps: 3 };
        let h = train_fedavg(&arch(), &cfg, options, shards, &test, &star()).unwrap();
        (h, vec![])
    })
}

#[test]
fn fedavg_iid() {
    let want = Golden {
        history: 0x5d22_3119_249f_8a76,
        stats: 0xa32d_ef7f_493c_3471,
        final_accuracy: 0x3f3d_70a4,
        per_platform: 0xa8c7_f832_281a_39c5,
    };
    assert_eq!(fedavg(Partition::Iid), want);
}

#[test]
fn fedavg_power_law() {
    let want = Golden {
        history: 0xf644_9f8e_94d0_da9c,
        stats: 0x96b8_1dbb_6881_6d91,
        final_accuracy: 0x3f28_f5c3,
        per_platform: 0xa8c7_f832_281a_39c5,
    };
    assert_eq!(fedavg(Partition::PowerLaw { alpha: 2.0 }), want);
}

#[test]
fn local_only_dirichlet() {
    let got = replayed(|| {
        let (shards, test) = data(&Partition::Dirichlet { alpha: 0.5 });
        train_local_only(&arch(), &config(3, ComputeModel::off()), &shards, &test).unwrap()
    });
    let want = Golden {
        history: 0x311e_b2a4_82f8_c3de,
        stats: 0xa09d_945a_1cd8_d6e5,
        final_accuracy: 0x3ef0_a3d8,
        per_platform: 0x7690_5d51_9a77_0734,
    };
    assert_eq!(got, want);
}

#[test]
fn centralized_with_compute() {
    let got = replayed(|| {
        let (shards, test) = data(&Partition::Iid);
        let cfg = config(3, ComputeModel::hospital_default());
        let h = train_centralized(&arch(), &cfg, &shards, &test, &star()).unwrap();
        (h, vec![])
    });
    let want = Golden {
        history: 0xde89_d206_773c_5f66,
        stats: 0x6457_6723_b7e2_0407,
        final_accuracy: 0x3f1e_b852,
        per_platform: 0xa8c7_f832_281a_39c5,
    };
    assert_eq!(got, want);
}
