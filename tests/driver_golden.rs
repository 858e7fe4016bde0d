//! Golden pins for every training driver.
//!
//! Each case runs one driver on a small fixed problem and compares four
//! FNV-1a digests against literals recorded from the code as it stood
//! before the drivers were moved onto one round engine: the per-round
//! history (loss bits, cumulative bytes, simulated clock bits,
//! participants, degraded flag, accuracy bits), the final
//! [`StatsSnapshot`](medsplit::simnet::StatsSnapshot), the learned
//! weights (every platform's `L1` parameter bits, plus the server digest
//! where the driver exposes its server) and the driver's fault report.
//! Any change to send order, chaos RNG draw order, simulated clocks, wire
//! bytes, evaluation batch order or float accumulation order moves at
//! least one of them.
//!
//! One deliberate move since: when the star fault-tolerant round went
//! onto the phase-by-phase exchange schedule, the history and stats
//! digests of `resilient_star_under_chaos` were re-recorded (simulated
//! clocks only); its weights and report digests did not move.
//!
//! The committed `baselines/*.json` carry no random loss on any
//! hierarchy, so the hierarchical cases here are the only pin on that
//! driver's RNG draw order.
//!
//! All hierarchical cases use the f32 codec, where logical bytes equal
//! wire bytes whether or not relay batches are walked.

use medsplit::core::threaded::train_threaded;
use medsplit::core::{
    ComputeModel, HierPolicy, HierReport, HierResilientTrainer, L1Sync, Platform, ResilienceReport,
    ResilientTrainer, Scheduling, SplitConfig, SplitTrainer, TrainingHistory, UShapeTrainer, WireCodec,
};
use medsplit::data::{partition, InMemoryDataset, MinibatchPolicy, Partition, SyntheticTabular};
use medsplit::nn::{Architecture, LrSchedule, MlpConfig};
use medsplit::simnet::{
    ChaosTransport, FaultPlan, HierTopology, MemoryTransport, NodeId, StarTopology, StatsSnapshot,
};

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

/// The four digests of one run.
#[derive(PartialEq, Eq)]
struct Golden {
    history: u64,
    stats: u64,
    weights: u64,
    report: u64,
}

impl std::fmt::Debug for Golden {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Golden {{ history: {:#018x}, stats: {:#018x}, weights: {:#018x}, report: {:#018x} }}",
            self.history, self.stats, self.weights, self.report
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
    d.u64(u64::from(h.final_accuracy.to_bits()));
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

fn l1_bits(platforms: &mut [Platform]) -> Vec<Vec<u32>> {
    platforms
        .iter_mut()
        .map(|p| p.l1_parameters().as_slice().iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn weights_digest(l1: &[Vec<u32>], server: Option<u64>) -> u64 {
    let mut d = Fnv::new();
    for platform in l1 {
        d.u64(platform.len() as u64);
        for &bits in platform {
            d.u64(u64::from(bits));
        }
    }
    if let Some(s) = server {
        d.u64(s);
    }
    d.0
}

fn base_report_words(d: &mut Fnv, r: &ResilienceReport) {
    for v in [
        r.retries,
        r.checksum_rejections,
        r.stray_messages,
        r.skipped_platform_rounds,
        r.degraded_rounds,
        r.quorum_failures,
        r.crashes,
        r.rejoins,
    ] {
        d.u64(v);
    }
}

fn resilience_digest(r: &ResilienceReport) -> u64 {
    let mut d = Fnv::new();
    base_report_words(&mut d, r);
    d.0
}

fn hier_digest(r: &HierReport) -> u64 {
    let mut d = Fnv::new();
    base_report_words(&mut d, &r.base);
    for v in [
        r.rehomes,
        r.direct_fallbacks,
        r.orphaned_platform_rounds,
        r.relay_batches,
        r.region_quorum_drops,
        r.relay_crashes,
        r.relay_rejoins,
    ] {
        d.u64(v);
    }
    for &b in &r.region_bytes {
        d.u64(b);
    }
    d.0
}

fn arch(hidden: &[usize]) -> Architecture {
    Architecture::Mlp(MlpConfig {
        input_dim: 8,
        hidden: hidden.to_vec(),
        num_classes: 3,
    })
}

/// 240 training samples over `platforms` IID shards and 100 test samples,
/// so evaluation runs one full batch of 64 and one ragged batch of 36.
fn data(platforms: usize) -> (Vec<InMemoryDataset>, InMemoryDataset) {
    let train = SyntheticTabular::new(3, 8, 0).generate(240).unwrap();
    let test = SyntheticTabular::new(3, 8, 1).generate(100).unwrap();
    let shards = partition(&train, platforms, &Partition::Iid, 1).unwrap();
    (shards, test)
}

/// Seven rounds, evaluation after rounds 2 and 5 and a backfilled one
/// after round 6, a decaying learning rate, momentum, unequal minibatches
/// and the compute model on, so every term of the run loop is exercised.
fn config() -> SplitConfig {
    SplitConfig {
        rounds: ROUNDS,
        eval_every: 3,
        lr: LrSchedule::StepDecay {
            base: 0.1,
            step_size: 3,
            gamma: 0.5,
        },
        minibatch: MinibatchPolicy::Proportional { global: 40 },
        compute: ComputeModel::hospital_default(),
        ..SplitConfig::default()
    }
}

fn run_split(cfg: SplitConfig, platforms: usize) -> (Golden, TrainingHistory, Vec<Vec<u32>>) {
    let (shards, test) = data(platforms);
    let transport = MemoryTransport::new(StarTopology::new(platforms));
    let mut trainer = SplitTrainer::new(&arch(&[16]), cfg, shards, test, &transport).unwrap();
    let history = trainer.run().unwrap();
    let l1 = l1_bits(trainer.platforms_mut());
    let server = trainer.server_mut().weights_digest();
    let golden = Golden {
        history: history_digest(&history),
        stats: stats_digest(&history.stats),
        weights: weights_digest(&l1, Some(server)),
        report: 0,
    };
    (golden, history, l1)
}

fn run_resilient(
    cfg: SplitConfig,
    plan: FaultPlan,
    platforms: usize,
) -> (Golden, TrainingHistory, Vec<Vec<u32>>) {
    let (shards, test) = data(platforms);
    let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(platforms)), plan);
    let mut trainer = ResilientTrainer::new(&arch(&[16]), cfg, shards, test, &chaos).unwrap();
    let history = trainer.run().unwrap();
    let l1 = l1_bits(trainer.platforms_mut());
    let golden = Golden {
        history: history_digest(&history),
        stats: stats_digest(&history.stats),
        weights: weights_digest(&l1, None),
        report: resilience_digest(&trainer.report()),
    };
    (golden, history, l1)
}

fn run_hier(
    cfg: SplitConfig,
    hier: HierPolicy,
    topo: HierTopology,
    plan: FaultPlan,
) -> (Golden, TrainingHistory, Vec<Vec<u32>>) {
    let (shards, test) = data(topo.platforms());
    let chaos = ChaosTransport::new(MemoryTransport::new(topo.clone()), plan);
    let mut trainer = HierResilientTrainer::new(&arch(&[16]), cfg, hier, topo, shards, test, &chaos).unwrap();
    let history = trainer.run().unwrap();
    let l1 = l1_bits(trainer.platforms_mut());
    let golden = Golden {
        history: history_digest(&history),
        stats: stats_digest(&history.stats),
        weights: weights_digest(&l1, None),
        report: hier_digest(trainer.report()),
    };
    (golden, history, l1)
}

#[test]
fn split_aggregate() {
    let (got, _, _) = run_split(config(), 4);
    let want = Golden {
        history: 0x2a38_5fe4_a728_bc0a,
        stats: 0x8022_c3a4_f7db_c42c,
        weights: 0x73d5_b968_6743_e710,
        report: 0,
    };
    assert_eq!(got, want);
}

#[test]
fn split_round_robin() {
    let mut cfg = config();
    cfg.scheduling = Scheduling::RoundRobin;
    let (got, _, _) = run_split(cfg, 4);
    let want = Golden {
        history: 0x39ed_6a37_9fd9_55f0,
        stats: 0x515f_d6c4_2d53_b024,
        weights: 0x405b_6dd3_6302_fe42,
        report: 0,
    };
    assert_eq!(got, want);
}

#[test]
fn split_periodic_average() {
    let mut cfg = config();
    cfg.l1_sync = L1Sync::PeriodicAverage { every: 2 };
    let (got, _, _) = run_split(cfg, 4);
    let want = Golden {
        history: 0x8966_64a1_57b8_824d,
        stats: 0x4a30_8018_e996_3a6d,
        weights: 0xe225_5987_bae1_2159,
        report: 0,
    };
    assert_eq!(got, want);
}

#[test]
fn split_cyclic_share() {
    let mut cfg = config();
    cfg.l1_sync = L1Sync::CyclicShare { every: 1 };
    let (got, _, _) = run_split(cfg, 4);
    let want = Golden {
        history: 0x9839_8b7c_265a_1e19,
        stats: 0x6693_ada8_53de_345c,
        weights: 0x585a_d0d1_f581_37d1,
        report: 0,
    };
    assert_eq!(got, want);
}

#[test]
fn split_int8_codec() {
    let mut cfg = config();
    cfg.codec = WireCodec::Int8;
    let (got, _, _) = run_split(cfg, 4);
    let want = Golden {
        history: 0x6650_7f27_bd56_d1a9,
        stats: 0xe0ed_1147_93ae_0a5e,
        weights: 0x2a38_4185_4b9b_a243,
        report: 0,
    };
    assert_eq!(got, want);
}

#[test]
fn ushape_tail_one() {
    // The U-shaped trainer exposes neither platforms nor server, so its
    // weights are pinned through the accuracies in the history and one
    // more out-of-band evaluation.
    let (shards, test) = data(3);
    let transport = MemoryTransport::new(StarTopology::new(3));
    let mut trainer = UShapeTrainer::new(&arch(&[16, 12]), config(), 1, shards, test, &transport).unwrap();
    let history = trainer.run().unwrap();
    let again = trainer.evaluate().unwrap();
    assert_eq!(again.to_bits(), history.final_accuracy.to_bits());
    let got = Golden {
        history: history_digest(&history),
        stats: stats_digest(&history.stats),
        weights: 0,
        report: 0,
    };
    let want = Golden {
        history: 0x561e_eaeb_26c9_256d,
        stats: 0xa811_87f5_a8e2_9d62,
        weights: 0,
        report: 0,
    };
    assert_eq!(got, want);
}

#[test]
fn resilient_star_under_chaos() {
    // Random loss, corruption, duplication and reordering on every link,
    // platform 2 down for rounds [2, 5), platform 1 paying 5 simulated
    // seconds per send against a 1 s deadline, and a quorum of 3 that
    // rounds [2, 5) therefore miss.
    let plan = FaultPlan::new(42)
        .with_drop(0.1)
        .with_corrupt(0.05)
        .with_dup(0.05)
        .with_reorder(0.05)
        .crash(NodeId::Platform(2), 2)
        .recover(NodeId::Platform(2), 5)
        .straggler(NodeId::Platform(1), 5.0);
    let mut cfg = config();
    cfg.round_policy.deadline_s = 1.0;
    cfg.round_policy.min_platforms = 3;
    let (got, history, _) = run_resilient(cfg, plan, 4);
    assert!(history.records[2..5]
        .iter()
        .all(|r| r.participants < 3 && r.mean_loss == 0.0));
    let want = Golden {
        history: 0xb5f4_7c46_6d50_c133,
        stats: 0xafec_d2f9_209c_c9ad,
        weights: 0x7744_7ff4_6ce7_bf5a,
        report: 0x5fe0_6bcc_a470_56c1,
    };
    assert_eq!(got, want);
}

#[test]
fn hier_2x2_under_chaos() {
    let topo = HierTopology::new(2, 2);
    let plan = FaultPlan::new(42)
        .with_drop(0.08)
        .with_dup(0.05)
        .crash_relay(1, 1)
        .recover_relay(1, 3)
        .partition_region(&topo, 0, 4, 6);
    let (got, history, _) = run_hier(config(), HierPolicy::default(), topo, plan);
    assert!(history.degraded_rounds() > 0);
    let want = Golden {
        history: 0x3848_47d3_64b1_7247,
        stats: 0x8129_5a1a_0ded_5f63,
        weights: 0xb6f7_961a_d32d_8258,
        report: 0x6cc3_f5a1_2ee6_c4ea,
    };
    assert_eq!(got, want);
}

#[test]
fn hier_1x3_direct_fallback() {
    // One region whose only relay is down for rounds [2, 5): every
    // platform falls back to the direct server link, the schedule that
    // mixes relay batches with direct deliveries.
    let topo = HierTopology::new(1, 3);
    let plan = FaultPlan::new(6)
        .with_drop(0.05)
        .crash_relay(0, 2)
        .recover_relay(0, 5);
    let (got, _, _) = run_hier(config(), HierPolicy::default(), topo, plan);
    let want = Golden {
        history: 0xd743_64f2_1453_8d74,
        stats: 0xea02_c92b_128b_544d,
        weights: 0xf8ee_857f_88c0_b915,
        report: 0x0f37_b2df_c618_065b,
    };
    assert_eq!(got, want);
}

#[test]
fn hier_2x2_region_quorum() {
    let topo = HierTopology::new(2, 2);
    let plan = FaultPlan::new(8)
        .crash(NodeId::Platform(3), 2)
        .recover(NodeId::Platform(3), 4);
    let hier = HierPolicy {
        region_quorum: 2,
        ..HierPolicy::default()
    };
    let (got, history, _) = run_hier(config(), hier, topo, plan);
    assert_eq!(history.degraded_rounds(), 2);
    let want = Golden {
        history: 0x5adf_53ab_13e2_62b4,
        stats: 0x41cd_4e5a_342a_90dd,
        weights: 0x9d96_9d38_23b9_5502,
        report: 0x3817_b7bc_915a_6d73,
    };
    assert_eq!(got, want);
}

#[test]
fn threaded_losses_accuracy_and_bytes() {
    // The thread-per-node driver returns only a history; its learned
    // weights are pinned through the loss and accuracy bits. Per-round
    // bytes and clocks are interpolated there, so only the totals count.
    let (shards, test) = data(4);
    let transport = MemoryTransport::new(StarTopology::new(4));
    let history = train_threaded(&arch(&[16]), config(), shards, test, &transport).unwrap();
    assert_eq!(history.method, "split_threaded");
    let mut d = Fnv::new();
    for r in &history.records {
        d.u64(u64::from(r.mean_loss.to_bits()));
    }
    d.u64(u64::from(history.final_accuracy.to_bits()));
    d.u64(history.stats.total_bytes);
    d.u64(history.stats.messages);
    assert_eq!(d.0, 0x4bd4_1c09_a757_3f97, "{:#018x}", d.0);
}

#[test]
fn fault_free_drivers_agree() {
    // The identity that holds between the drivers on a fault-free run:
    // same losses, same accuracy, same learned weights; the two star
    // drivers also move the same bytes in the same number of messages
    // and read the same simulated clock after every round.
    let (_, split, split_l1) = run_split(config(), 4);
    let (_, star, star_l1) = run_resilient(config(), FaultPlan::new(42), 4);
    let (_, hier, hier_l1) = run_hier(
        config(),
        HierPolicy::default(),
        HierTopology::new(2, 2),
        FaultPlan::new(42),
    );
    let losses =
        |h: &TrainingHistory| -> Vec<u32> { h.records.iter().map(|r| r.mean_loss.to_bits()).collect() };
    let accuracies = |h: &TrainingHistory| -> Vec<Option<u32>> {
        h.records.iter().map(|r| r.accuracy.map(f32::to_bits)).collect()
    };
    assert_eq!(losses(&split), losses(&star));
    assert_eq!(losses(&split), losses(&hier));
    assert_eq!(accuracies(&split), accuracies(&star));
    assert_eq!(accuracies(&split), accuracies(&hier));
    assert_eq!(split.final_accuracy.to_bits(), star.final_accuracy.to_bits());
    assert_eq!(split.final_accuracy.to_bits(), hier.final_accuracy.to_bits());
    assert_eq!(split_l1, star_l1);
    assert_eq!(split_l1, hier_l1);
    assert_eq!(split.stats.total_bytes, star.stats.total_bytes);
    assert_eq!(split.stats.messages, star.stats.messages);
    let clocks = |h: &TrainingHistory| -> Vec<u64> {
        h.records.iter().map(|r| r.simulated_time_s.to_bits()).collect()
    };
    assert_eq!(clocks(&split), clocks(&star));
    assert_eq!(split.stats.makespan_s.to_bits(), star.stats.makespan_s.to_bits());
    for h in [&star, &hier] {
        assert!(h.records.iter().all(|r| r.participants == 4 && !r.degraded));
    }
}
