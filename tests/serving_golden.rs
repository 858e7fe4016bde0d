//! Golden pins for both serving drivers.
//!
//! Each case runs `serve_threaded` or `run_fleet` on a small fixed
//! workload and compares FNV-1a digests against literals recorded from
//! the code as it stood before the two drivers were moved onto one
//! serving executor: every client record (platform, id, status, submit
//! and latency bits, logits bits), every [`ServeReport`] field including
//! the latency summary's bits, the full [`StatsSnapshot`] and, for the
//! fleet, the chaos counters, the per-replica and per-tenant tables, the
//! handoff and re-dispatch counts and the run's logits digest. Any change
//! to batch composition, flush times, the busy clock, admission, response
//! order, wire bytes or a node clock moves at least one of them.
//!
//! Every scenario runs twice and must agree with itself before it is
//! compared with the literal, so a thread-order leak shows up as that and
//! not as a stale pin. Each scenario also asserts that the branch it is
//! named after was taken.

use medsplit::core::{build_split, Platform, SplitPoint, SplitServer, WireCodec};
use medsplit::data::SyntheticTabular;
use medsplit::fleet::{run_fleet, FleetAction, FleetConfig, FleetEvent, FleetOutcome, ReplicaPhase};
use medsplit::nn::{Architecture, MlpConfig};
use medsplit::serve::{serve_threaded, ClientRecord, InferStatus, ServeConfig, ServeOutcome, ServeReport};
use medsplit::simnet::{
    FaultPlan, LinkFaults, LinkSpec, MemoryTransport, NodeId, StarTopology, StatsSnapshot,
};
use medsplit::tensor::Tensor;

const FEATURES: usize = 8;
const CLASSES: usize = 3;
const PLATFORMS: usize = 3;

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

/// The digests of one run; `fleet` is zero for `serve_threaded`.
#[derive(PartialEq, Eq)]
struct Golden {
    records: u64,
    report: u64,
    stats: u64,
    fleet: u64,
}

impl std::fmt::Debug for Golden {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Golden {{ records: {:#018x}, report: {:#018x}, stats: {:#018x}, fleet: {:#018x} }}",
            self.records, self.report, self.stats, self.fleet
        )
    }
}

fn status_code(status: InferStatus) -> u64 {
    match status {
        InferStatus::Ok => 0,
        InferStatus::Rejected => 1,
        InferStatus::TimedOut => 2,
        InferStatus::Throttled => 3,
    }
}

fn records_digest(records: &[ClientRecord]) -> u64 {
    let mut d = Fnv::new();
    d.u64(records.len() as u64);
    for r in records {
        d.u64(r.platform as u64);
        d.u64(r.id);
        d.u64(status_code(r.status));
        d.u64(r.submit_s.to_bits());
        d.u64(r.latency_s.to_bits());
        match &r.logits {
            Some(t) => {
                d.u64(1 + t.dims().len() as u64);
                for &dim in t.dims() {
                    d.u64(dim as u64);
                }
                for v in t.as_slice() {
                    d.u64(u64::from(v.to_bits()));
                }
            }
            None => d.u64(0),
        }
    }
    d.0
}

fn report_digest(r: &ServeReport) -> u64 {
    let mut d = Fnv::new();
    for v in [r.offered, r.completed, r.rejected, r.timed_out, r.throttled] {
        d.u64(v as u64);
    }
    match &r.latency {
        Some(l) => {
            d.u64(1);
            d.u64(l.count as u64);
            for v in [l.mean_s, l.p50_s, l.p95_s, l.p99_s, l.max_s] {
                d.u64(v.to_bits());
            }
        }
        None => d.u64(0),
    }
    d.u64(r.request_bytes);
    d.u64(r.response_bytes);
    d.u64(r.makespan_s.to_bits());
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

fn fleet_digest(o: &FleetOutcome) -> u64 {
    let mut d = Fnv::new();
    let c = &o.chaos;
    for v in [
        c.dropped,
        c.duplicated,
        c.reordered,
        c.corrupted,
        c.link_dropped,
        c.peer_down_sends,
        c.to_down_dropped,
    ] {
        d.u64(v);
    }
    d.u64(o.per_replica.len() as u64);
    for r in &o.per_replica {
        d.u64(r.replica as u64);
        d.u64(r.served);
        d.u64(match r.final_phase {
            ReplicaPhase::Active => 0,
            ReplicaPhase::Draining => 1,
            ReplicaPhase::Down => 2,
        });
        d.u64(r.sessions as u64);
    }
    d.u64(o.per_tenant.len() as u64);
    for t in &o.per_tenant {
        d.u64(t.offered as u64);
        d.u64(t.completed as u64);
        d.u64(t.throttled as u64);
    }
    d.u64(o.handoffs as u64);
    d.u64(o.redispatched as u64);
    d.u64(o.logits_digest);
    d.0
}

fn serve_golden(o: &ServeOutcome) -> Golden {
    Golden {
        records: records_digest(&o.records),
        report: report_digest(&o.report),
        stats: stats_digest(&o.stats),
        fleet: 0,
    }
}

fn fleet_golden(o: &FleetOutcome) -> Golden {
    Golden {
        records: records_digest(&o.records),
        report: report_digest(&o.report),
        stats: stats_digest(&o.stats),
        fleet: fleet_digest(o),
    }
}

/// `PLATFORMS` platforms (identical `L1`, private shards) and the server.
fn actors(seed: u64) -> (Vec<Platform>, SplitServer) {
    let arch = Architecture::Mlp(MlpConfig::small(FEATURES, CLASSES));
    let model = build_split(&arch, SplitPoint::Default, seed, PLATFORMS).unwrap();
    let mut platforms = Vec::with_capacity(PLATFORMS);
    for (id, client) in model.clients.into_iter().enumerate() {
        let data = SyntheticTabular::new(CLASSES, FEATURES, seed ^ id as u64)
            .generate(16)
            .unwrap();
        platforms.push(Platform::new(id, client, data, 4, 0.0, seed));
    }
    (platforms, SplitServer::new(model.server, 0.0))
}

/// One `serve_threaded` run: `per_platform` single-row queries from each
/// of the three platforms.
fn serve_once(cfg: &ServeConfig, topology: &StarTopology, per_platform: usize) -> ServeOutcome {
    let (platforms, server) = actors(11);
    let queries: Vec<Vec<Tensor>> = (0..PLATFORMS)
        .map(|p| {
            let mut rng = medsplit::tensor::init::rng_from_seed(100 + p as u64);
            (0..per_platform)
                .map(|_| Tensor::rand_uniform([1, FEATURES], -1.0, 1.0, &mut rng))
                .collect()
        })
        .collect();
    let transport = MemoryTransport::new(topology.clone());
    serve_threaded(platforms, server, queries, topology, cfg, &transport).unwrap()
}

/// Runs the scenario twice, requires the two runs to agree, and returns
/// the digests with the second outcome.
fn serve_case(cfg: &ServeConfig, topology: &StarTopology, per_platform: usize) -> (Golden, ServeOutcome) {
    let first = serve_golden(&serve_once(cfg, topology, per_platform));
    let out = serve_once(cfg, topology, per_platform);
    let second = serve_golden(&out);
    assert_eq!(first, second, "two runs of one scenario disagree");
    (second, out)
}

fn star() -> StarTopology {
    StarTopology::new(PLATFORMS)
}

#[test]
fn serve_default_age_flushes() {
    let (got, out) = serve_case(&ServeConfig::default(), &star(), 10);
    assert_eq!(out.report.completed, 30);
    let want = Golden {
        records: 0x6ab4_4bf9_403a_1f15,
        report: 0x0f1b_8dac_990c_f2ca,
        stats: 0xb212_a32a_1326_57cd,
        fleet: 0,
    };
    assert_eq!(got, want);
}

/// A queue smaller than the flush size under 6,000 requests per second:
/// only the age rule empties it, so most arrivals are refused.
#[test]
fn serve_overload_rejects() {
    let cfg = ServeConfig {
        offered_rps: 2_000.0,
        queue_capacity: 3,
        max_batch: 4,
        ..ServeConfig::default()
    };
    let (got, out) = serve_case(&cfg, &star(), 20);
    assert!(
        out.report.rejected > 0 && out.report.completed > 0,
        "{:?}",
        out.report
    );
    let want = Golden {
        records: 0xe165_cdce_b16e_2a09,
        report: 0x3294_6a5c_a8fa_a8fc,
        stats: 0x9f79_3c4f_c5d7_f96d,
        fleet: 0,
    };
    assert_eq!(got, want);
}

/// The size rule under the same load: `queue_capacity == max_batch`
/// flushes every fourth arrival and the busy clock runs ahead of the
/// arrivals.
#[test]
fn serve_overload_size_flushes() {
    let cfg = ServeConfig {
        offered_rps: 2_000.0,
        queue_capacity: 4,
        max_batch: 4,
        ..ServeConfig::default()
    };
    let (got, out) = serve_case(&cfg, &star(), 20);
    assert_eq!(out.report.completed, 60);
    let want = Golden {
        records: 0xdb2f_9cec_e65d_d051,
        report: 0x2587_5c9a_3818_e681,
        stats: 0xb536_b6a2_9fb3_ab77,
        fleet: 0,
    };
    assert_eq!(got, want);
}

/// 20 ms cannot survive the 30 ms uplink: every request times out.
#[test]
fn serve_deadline_all_time_out() {
    let cfg = ServeConfig {
        deadline_s: 0.020,
        ..ServeConfig::default()
    };
    let (got, out) = serve_case(&cfg, &star(), 9);
    assert_eq!(out.report.timed_out, 27);
    let want = Golden {
        records: 0x76c5_ab93_57e4_e559,
        report: 0x9fe5_8165_7a93_7aa9,
        stats: 0xdef1_814e_831c_500a,
        fleet: 0,
    };
    assert_eq!(got, want);
}

/// A deadline inside the spread of serve times: one batch holds both
/// live and expired entries.
#[test]
fn serve_deadline_splits_batches() {
    let cfg = ServeConfig {
        deadline_s: 0.0405,
        offered_rps: 400.0,
        ..ServeConfig::default()
    };
    let (got, out) = serve_case(&cfg, &star(), 12);
    assert!(
        out.report.timed_out > 0 && out.report.completed > 0,
        "{:?}",
        out.report
    );
    let want = Golden {
        records: 0x2e4b_2f00_2251_651a,
        report: 0x61bf_c185_ec09_c828,
        stats: 0x85cf_e917_82e4_ecdb,
        fleet: 0,
    };
    assert_eq!(got, want);
}

/// No age timer and 21 requests against a flush size of 8: the last five
/// leave in the final drain, at the busy clock.
#[test]
fn serve_infinite_wait_final_drain() {
    let cfg = ServeConfig {
        max_wait_s: f64::INFINITY,
        ..ServeConfig::default()
    };
    let (got, out) = serve_case(&cfg, &star(), 7);
    assert_eq!(out.report.completed, 21);
    let want = Golden {
        records: 0x8886_f0dd_700d_c823,
        report: 0xf0b9_e115_e2f4_1742,
        stats: 0xec4d_4bab_98b8_2d41,
        fleet: 0,
    };
    assert_eq!(got, want);
}

#[test]
fn serve_int8_codec() {
    let cfg = ServeConfig {
        codec: WireCodec::Int8,
        ..ServeConfig::default()
    };
    let (got, out) = serve_case(&cfg, &star(), 10);
    assert_eq!(out.report.completed, 30);
    let want = Golden {
        records: 0xaa03_0b67_9aeb_257a,
        report: 0x20b6_fd6f_2144_83c7,
        stats: 0x3577_6797_a50e_e78c,
        fleet: 0,
    };
    assert_eq!(got, want);
}

/// Platform 1 sits behind a slow uplink, so its requests reach the server
/// between later submissions of the other two.
#[test]
fn serve_slow_uplink_interleaves_arrivals() {
    let topology = star().with_override(
        NodeId::Platform(1),
        NodeId::Server,
        LinkSpec {
            bandwidth_bps: 2e6,
            latency_s: 0.047,
        },
    );
    let cfg = ServeConfig {
        offered_rps: 250.0,
        max_batch: 4,
        ..ServeConfig::default()
    };
    let (got, out) = serve_case(&cfg, &topology, 10);
    assert_eq!(out.report.completed, 30);
    let want = Golden {
        records: 0x6a3c_a2d8_f6cb_9af5,
        report: 0x1a13_7541_fa42_5d15,
        stats: 0x1d48_e3ad_e252_c8af,
        fleet: 0,
    };
    assert_eq!(got, want);
}

const FLEET_SEED: u64 = 42;
const PER_TENANT: usize = 40;

fn fleet_cfg(replicas: usize) -> FleetConfig {
    FleetConfig {
        replicas,
        tenants: 3,
        sessions_per_tenant: 4,
        tenant_quota: 64,
        weight_versions: 2,
        ..FleetConfig::default()
    }
}

/// Runs the fleet scenario twice, requires the two runs to agree, and
/// returns the digests with the second outcome.
fn fleet_case(cfg: &FleetConfig, plan: &FaultPlan, events: &[FleetEvent]) -> (Golden, FleetOutcome) {
    let first = fleet_golden(&run_fleet(cfg, PER_TENANT, FLEET_SEED, plan.clone(), events).unwrap());
    let out = run_fleet(cfg, PER_TENANT, FLEET_SEED, plan.clone(), events).unwrap();
    let second = fleet_golden(&out);
    assert_eq!(first, second, "two runs of one scenario disagree");
    (second, out)
}

#[test]
fn fleet_quiet_one_replica() {
    let (got, out) = fleet_case(&fleet_cfg(1), &FaultPlan::new(1), &[]);
    assert_eq!(out.report.completed, 3 * PER_TENANT);
    let want = Golden {
        records: 0x7d44_3ecc_6d2f_c07c,
        report: 0xa946_9ab0_f156_283c,
        stats: 0xc719_a550_cbb9_2b73,
        fleet: 0xdce5_093b_f5e9_ff26,
    };
    assert_eq!(got, want);
}

#[test]
fn fleet_quiet_two_replicas() {
    let (got, out) = fleet_case(&fleet_cfg(2), &FaultPlan::new(1), &[]);
    assert_eq!(out.report.completed, 3 * PER_TENANT);
    let want = Golden {
        records: 0x7d44_3ecc_6d2f_c07c,
        report: 0xa946_9ab0_f156_283c,
        stats: 0xc719_a550_cbb9_2b73,
        fleet: 0x8757_36da_708c_8b68,
    };
    assert_eq!(got, want);
}

#[test]
fn fleet_quiet_three_replicas() {
    let (got, out) = fleet_case(&fleet_cfg(3), &FaultPlan::new(1), &[]);
    assert_eq!(out.report.completed, 3 * PER_TENANT);
    let want = Golden {
        records: 0x0542_a901_cd1c_e2e5,
        report: 0xf910_1667_ece0_905a,
        stats: 0x7908_0548_1dea_31f1,
        fleet: 0x6251_9383_932c_209f,
    };
    assert_eq!(got, want);
}

#[test]
fn fleet_crash_and_recover() {
    let cfg = fleet_cfg(4);
    let plan = FaultPlan::new(FLEET_SEED)
        .crash_replica(1, (0.1 / cfg.chaos_tick_s) as u64)
        .recover_replica(1, (0.25 / cfg.chaos_tick_s) as u64);
    let (got, out) = fleet_case(&cfg, &plan, &[]);
    assert!(out.redispatched > 0, "the crash must orphan in-flight work");
    assert_eq!(out.per_replica[1].final_phase, ReplicaPhase::Active);
    let want = Golden {
        records: 0x78a3_af94_afe7_ba85,
        report: 0xa085_ec03_3077_924a,
        stats: 0x5962_9ce8_7481_83f5,
        fleet: 0x3103_0625_b827_0555,
    };
    assert_eq!(got, want);
}

#[test]
fn fleet_drain_and_rejoin() {
    let events = [
        FleetEvent {
            at_s: 0.12,
            replica: 1,
            action: FleetAction::Drain,
        },
        FleetEvent {
            at_s: 0.27,
            replica: 1,
            action: FleetAction::Rejoin,
        },
    ];
    let (got, out) = fleet_case(&fleet_cfg(3), &FaultPlan::new(3), &events);
    assert!(out.handoffs > 0, "the drain must hand sessions off");
    assert_eq!(out.per_replica[1].final_phase, ReplicaPhase::Active);
    let want = Golden {
        records: 0x4158_b82d_13a9_b221,
        report: 0x3af3_d842_437e_c8ac,
        stats: 0xc0ef_1e1c_15e5_4c23,
        fleet: 0xc9df_10c6_e54a_6a15,
    };
    assert_eq!(got, want);
}

/// One admitted request per tenant and no age timer: the queue only
/// builds, so the router throttles nearly everything and the final drain
/// serves what was admitted.
#[test]
fn fleet_quota_throttles() {
    let mut cfg = fleet_cfg(2);
    cfg.tenant_quota = 1;
    cfg.serve.max_wait_s = f64::INFINITY;
    let (got, out) = fleet_case(&cfg, &FaultPlan::new(1), &[]);
    assert!(
        out.report.throttled > 0 && out.report.completed > 0,
        "{:?}",
        out.report
    );
    let want = Golden {
        records: 0x75a8_9ab4_eabf_3bac,
        report: 0x40ea_901e_5112_d191,
        stats: 0xf8c5_1550_0a02_425e,
        fleet: 0xa81b_29b3_6fa9_c4a7,
    };
    assert_eq!(got, want);
}

/// Ten percent loss on every uplink and every router-to-replica link:
/// a request lost on the uplink becomes a client-side record, one lost on
/// dispatch goes to the ring successor.
#[test]
fn fleet_request_path_drop() {
    let lossy = LinkFaults {
        drop_p: 0.1,
        ..LinkFaults::default()
    };
    let mut plan = FaultPlan::new(FLEET_SEED);
    for i in 0..3 {
        plan = plan.link(NodeId::Platform(i), NodeId::Server, lossy).link(
            NodeId::Server,
            NodeId::Replica(i),
            lossy,
        );
    }
    let (got, out) = fleet_case(&fleet_cfg(3), &plan, &[]);
    assert!(out.chaos.dropped > 0);
    assert!(
        out.records
            .iter()
            .any(|r| r.status == InferStatus::Throttled && r.latency_s == 0.0),
        "an uplink loss must leave a client-side record"
    );
    let want = Golden {
        records: 0xd58b_88b2_de8f_e0c8,
        report: 0x60cc_b5a2_803e_1d02,
        stats: 0x54f1_0798_3168_abc8,
        fleet: 0x8f92_efa6_326c_6f40,
    };
    assert_eq!(got, want);
}

/// Five percent loss on every link reaches the responses too, and a lost
/// response is a lost request: the run refuses to report. The counts in
/// the message pin the chaos draw order.
#[test]
fn fleet_random_drop_everywhere_is_refused() {
    let plan = FaultPlan::new(FLEET_SEED).with_drop(0.05);
    let run = || {
        run_fleet(&fleet_cfg(3), PER_TENANT, FLEET_SEED, plan.clone(), &[])
            .unwrap_err()
            .to_string()
    };
    let first = run();
    assert_eq!(first, run(), "two runs of one scenario disagree");
    assert_eq!(
        first,
        "protocol violation: no-drop invariant violated: 120 requests offered, 111 terminal records"
    );
}

#[test]
fn fleet_deadline_expires() {
    let mut cfg = fleet_cfg(2);
    cfg.serve.deadline_s = 0.0405;
    cfg.serve.offered_rps = 400.0;
    let (got, out) = fleet_case(&cfg, &FaultPlan::new(1), &[]);
    assert!(
        out.report.timed_out > 0 && out.report.completed > 0,
        "{:?}",
        out.report
    );
    let want = Golden {
        records: 0x75a0_96cb_bb60_7947,
        report: 0x9e72_4f91_1af6_b7ea,
        stats: 0xf62d_273f_f4f8_a177,
        fleet: 0xbb30_808a_99aa_9111,
    };
    assert_eq!(got, want);
}

/// A replica queue smaller than the flush size under load: only the age
/// rule empties it, so replicas refuse what the router admitted.
#[test]
fn fleet_replica_queue_rejects() {
    let mut cfg = fleet_cfg(2);
    cfg.serve.queue_capacity = 2;
    cfg.serve.max_batch = 4;
    cfg.serve.offered_rps = 1_000.0;
    let (got, out) = fleet_case(&cfg, &FaultPlan::new(1), &[]);
    assert!(
        out.report.rejected > 0 && out.report.completed > 0,
        "{:?}",
        out.report
    );
    let want = Golden {
        records: 0xcea4_72d4_dbd4_0c93,
        report: 0xa45b_499d_4942_d77b,
        stats: 0xaffd_9b7e_f144_b7b4,
        fleet: 0xf838_869a_0e2e_0446,
    };
    assert_eq!(got, want);
}
