//! The fleet's discrete-event serving simulation.
//!
//! One process plays every role — platforms, router, replicas — over a
//! [`ChaosTransport`]-wrapped [`MemoryTransport`] on a [`FleetTopology`],
//! replaying all traffic in simulated-time order. What a server does with
//! an arrival is not written here: each replica holds the same
//! [`Executor`](medsplit_serve::Executor) the single-server runtime
//! drives, this loop asks it the same three questions (what is due by
//! `t`, what becomes of this arrival, what is left at the end), and the
//! batch forward, the client-record latency rule, the report fold and the
//! clock helper are `medsplit_serve`'s. What is written here is what only
//! a fleet has: the router and ring in front of the executors, chaos
//! ticks, crash re-dispatch, drain/rejoin and session handoff. Each
//! replica's executor keeps its own busy clock, so capacity genuinely
//! scales with fleet size; every frame (routed requests, responses,
//! session handoffs) travels through the transport, so wire bytes and
//! chaos faults are accounted for real.
//!
//! Determinism: the event loop is single-threaded with a total order on
//! events `(time, insertion seq)`, request activations and version pins
//! depend only on the seed and tenant layout — never on replica count —
//! and per-row GEMM results are batch-composition-independent, so the
//! logits digest of a run is bit-identical across fleet sizes.
//!
//! The simulated clock maps onto chaos ticks via
//! `tick = floor(time / chaos_tick_s)`; the driver applies
//! [`FaultPlan`](medsplit_simnet::FaultPlan) events at tick boundaries
//! and reacts: a crashed replica loses its queue and session state, its
//! in-flight requests are re-dispatched to ring successors, and no
//! admitted request is ever silently dropped (deadline timeouts are
//! answered and counted).

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

use bytes::Bytes;
use medsplit_core::{build_split, Platform, Result, SplitError, SplitPoint, WireCodec};
use medsplit_data::SyntheticTabular;
use medsplit_nn::{Architecture, MlpConfig};
use medsplit_serve::{
    decode_routed_request, encode_response_from, encode_routed_request, request_id, sync_clock, Arrived,
    ClientRecord, Due, InferStatus, RoutedRequest, ServeReport,
};
use medsplit_simnet::{
    ChaosEvent, ChaosSnapshot, ChaosTransport, Envelope, FaultPlan, FleetTopology, MemoryTransport,
    MessageKind, NodeId, StatsSnapshot, Topology, Transport,
};
use medsplit_tensor::{fnv1a, init::rng_from_seed, Tensor, FNV_OFFSET, FNV_PRIME};

use crate::bank::ModelBank;
use crate::config::FleetConfig;
use crate::replica::{FleetPending, Replica, ReplicaPhase};
use crate::router::{InFlight, Router};
use crate::session::{decode_sessions, encode_sessions, SessionKey, SessionState};

/// Feature width of the simulated workload's inputs.
pub const FEATURES: usize = 16;
/// Class count of the simulated workload's outputs.
pub const CLASSES: usize = 4;

/// An operator action on one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetAction {
    /// Graceful drain: stop accepting, flush in-flight work, hand the
    /// session shard to ring successors.
    Drain,
    /// Return a drained (or crash-recovered) replica to service and pull
    /// back the sessions homed to it.
    Rejoin,
}

/// A scheduled operator event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetEvent {
    /// Simulated time the action takes effect.
    pub at_s: f64,
    /// Target replica.
    pub replica: usize,
    /// What happens.
    pub action: FleetAction,
}

/// Per-replica accounting.
#[derive(Debug, Clone)]
pub struct ReplicaReport {
    /// Replica index.
    pub replica: usize,
    /// Requests served with logits.
    pub served: u64,
    /// Lifecycle phase at the end of the run.
    pub final_phase: ReplicaPhase,
    /// Sessions resident at the end of the run.
    pub sessions: usize,
}

/// Per-tenant accounting.
#[derive(Debug, Clone, Default)]
pub struct TenantReport {
    /// Requests the tenant submitted.
    pub offered: usize,
    /// Requests served with logits.
    pub completed: usize,
    /// Requests refused by the router (quota / no active replica).
    pub throttled: usize,
}

/// Everything a fleet run produces.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Aggregate latency/throughput/byte accounting.
    pub report: ServeReport,
    /// Per-request terminal records, sorted by id. Always exactly one
    /// record per offered request — the no-drop invariant.
    pub records: Vec<ClientRecord>,
    /// Raw simulated-network statistics.
    pub stats: StatsSnapshot,
    /// Chaos-injection counters.
    pub chaos: ChaosSnapshot,
    /// Per-replica accounting, indexed by replica.
    pub per_replica: Vec<ReplicaReport>,
    /// Per-tenant accounting, indexed by tenant.
    pub per_tenant: Vec<TenantReport>,
    /// Sessions moved by drain/rejoin handoffs.
    pub handoffs: usize,
    /// Requests re-dispatched after a replica failure.
    pub redispatched: usize,
    /// FNV digest over `(id, logits)` of every completed request, in id
    /// order — bit-identical across replica counts for the same seed.
    pub logits_digest: u64,
}

enum EvKind {
    /// A routed request reaching the router.
    RouterArrival(FleetPending),
    /// A dispatched request reaching its replica.
    ReplicaArrival {
        replica: usize,
        attempt: usize,
        pending: FleetPending,
    },
    /// A scheduled operator action.
    Operator(FleetEvent),
}

struct Ev {
    t: f64,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other.t.total_cmp(&self.t).then(other.seq.cmp(&self.seq))
    }
}

type FleetNet = ChaosTransport<MemoryTransport<FleetTopology>>;

struct Driver<'a> {
    cfg: &'a FleetConfig,
    topology: FleetTopology,
    net: FleetNet,
    bank: ModelBank,
    router: Router,
    replicas: Vec<Replica>,
    heap: BinaryHeap<Ev>,
    seq: u64,
    tick: Option<u64>,
    handoffs: usize,
    redispatched: usize,
    lost: Vec<ClientRecord>,
}

/// Runs a sharded serving session: `cfg.tenants` platforms each submit
/// `requests_per_tenant` queries open-loop at `cfg.serve.offered_rps`,
/// the router shards them over `cfg.replicas` replicas by consistent
/// hash, and `plan`/`events` inject failures and drains along the way.
///
/// # Errors
///
/// Returns config errors for an invalid `cfg`, and model/protocol errors
/// from the serving path. A run that loses an admitted request returns a
/// protocol error — the no-drop invariant is checked, not assumed.
pub fn run_fleet(
    cfg: &FleetConfig,
    requests_per_tenant: usize,
    seed: u64,
    plan: FaultPlan,
    events: &[FleetEvent],
) -> Result<FleetOutcome> {
    cfg.validate().map_err(SplitError::Config)?;
    let tenants = cfg.tenants;

    // Workload: the same split model the single-server path serves. The
    // bank rebuilds the server suffix from (arch, seed) on demand;
    // nothing here depends on the replica count.
    let arch = Architecture::Mlp(MlpConfig::small(FEATURES, CLASSES));
    let model = build_split(&arch, SplitPoint::Default, seed, tenants)?;
    let mut platforms = Vec::with_capacity(tenants);
    for (id, client) in model.clients.into_iter().enumerate() {
        let data = SyntheticTabular::new(CLASSES, FEATURES, seed ^ id as u64).generate(16)?;
        platforms.push(Platform::new(id, client, data, 4, 0.0, seed));
    }
    let bank_arch = arch.clone();
    let bank = ModelBank::new(
        Box::new(move || {
            build_split(&bank_arch, SplitPoint::Default, seed, 1)
                .expect("bank rebuild of a previously valid architecture")
                .server
        }),
        cfg.weight_versions,
    )?;

    let topology = FleetTopology::new(tenants, cfg.replicas);
    let net = ChaosTransport::new(MemoryTransport::new(topology.clone()), plan);
    let mut driver = Driver {
        cfg,
        topology,
        net,
        bank,
        router: Router::new(
            cfg.replicas,
            cfg.vnodes,
            cfg.tenant_quota,
            cfg.weight_versions as u32,
        ),
        replicas: (0..cfg.replicas).map(|r| Replica::new(r, &cfg.serve)).collect(),
        heap: BinaryHeap::new(),
        seq: 0,
        tick: None,
        handoffs: 0,
        redispatched: 0,
        lost: Vec::new(),
    };

    for event in events {
        driver.push(event.at_s, EvKind::Operator(*event));
    }
    driver.submit_all(&mut platforms, requests_per_tenant)?;
    driver.run_events()?;
    driver.final_drain()?;
    driver.collect(requests_per_tenant)
}

impl Driver<'_> {
    fn push(&mut self, t: f64, kind: EvKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Ev { t, seq, kind });
    }

    fn codec(&self) -> WireCodec {
        self.cfg.serve.codec
    }

    /// Submits every tenant's stream through the transport in global
    /// submission order and schedules the router arrivals.
    fn submit_all(&mut self, platforms: &mut [Platform], per_tenant: usize) -> Result<()> {
        // Precompute activations per tenant (depends on seed only).
        let mut requests: Vec<(f64, FleetPending)> = Vec::with_capacity(platforms.len() * per_tenant);
        for (tenant, platform) in platforms.iter_mut().enumerate() {
            let mut rng = rng_from_seed(0x5eed ^ (tenant as u64).wrapping_mul(0x9e37_79b9));
            for seq in 0..per_tenant {
                let submit_s = seq as f64 / self.cfg.serve.offered_rps;
                let query = Tensor::rand_uniform([1, FEATURES], -1.0, 1.0, &mut rng);
                let acts = platform.infer_l1(&query)?;
                let req = RoutedRequest {
                    id: request_id(tenant, seq),
                    submit_s,
                    deadline_s: submit_s + self.cfg.serve.deadline_s,
                    tenant: tenant as u64,
                    session: (seq % self.cfg.sessions_per_tenant) as u64,
                    // Stamped by the router at admission.
                    version: u32::MAX,
                    activations: acts,
                };
                requests.push((
                    submit_s,
                    FleetPending {
                        platform: tenant,
                        req,
                    },
                ));
            }
        }
        requests.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.req.id.cmp(&b.1.req.id)));
        for (submit_s, pending) in requests {
            let node = NodeId::Platform(pending.platform);
            sync_clock(self.net.stats(), node, submit_s);
            let env = encode_routed_request(node, NodeId::Server, &pending.req, self.codec());
            self.net.send(env).map_err(SplitError::from)?;
            match self.net.try_recv(NodeId::Server) {
                Some(env) => {
                    let uplink = self.topology.link(node, NodeId::Server);
                    let arrival = submit_s + uplink.map_or(0.0, |l| l.transfer_time(env.wire_size()));
                    let req = decode_routed_request(&env)?;
                    let platform = pending.platform;
                    self.push(arrival, EvKind::RouterArrival(FleetPending { platform, req }));
                }
                None => {
                    // The uplink ate the frame (probabilistic chaos).
                    // The router never saw it, so the only honest record
                    // is a client-side loss marked as throttled-at-zero.
                    self.lost.push(ClientRecord {
                        platform: pending.platform,
                        id: pending.req.id,
                        submit_s,
                        status: InferStatus::Throttled,
                        latency_s: 0.0,
                        logits: None,
                    });
                }
            }
        }
        Ok(())
    }

    /// Applies chaos ticks and age-rule batch flushes up to time `t`.
    fn advance(&mut self, t: f64) -> Result<()> {
        let target = (t / self.cfg.chaos_tick_s).floor() as u64;
        let mut next = self.tick.map_or(0, |c| c + 1);
        while next <= target {
            let tick_time = next as f64 * self.cfg.chaos_tick_s;
            self.flush_due(tick_time)?;
            let applied = self.net.begin_round(next);
            self.tick = Some(next);
            for event in applied {
                match event {
                    ChaosEvent::Crash {
                        node: NodeId::Replica(r),
                        ..
                    } => {
                        self.handle_crash(r, tick_time)?;
                    }
                    ChaosEvent::Recover {
                        node: NodeId::Replica(r),
                        ..
                    } => {
                        self.handle_rejoin(r, tick_time)?;
                    }
                    // Link flaps need no state change here: dispatch
                    // consults the transport's health oracle directly.
                    _ => {}
                }
            }
            next += 1;
        }
        self.flush_due(t)
    }

    /// Serves every batch whose age rule expired at or before `t`,
    /// earliest-ready first across replicas (ties by replica id).
    fn flush_due(&mut self, t: f64) -> Result<()> {
        loop {
            let next = self
                .replicas
                .iter()
                .filter(|r| r.phase() == ReplicaPhase::Active)
                .filter_map(|r| r.ready_at().map(|ready| (ready, r.id())))
                .filter(|&(ready, _)| ready <= t)
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let Some((_, idx)) = next else { return Ok(()) };
            let Some(due) = self.replicas[idx].executor.due_by(t) else {
                return Ok(());
            };
            self.serve_and_respond(idx, due)?;
        }
    }

    /// Runs a batch the replica's executor handed out and answers every
    /// entry at the batch's completion time.
    fn serve_and_respond(&mut self, idx: usize, due: Due<FleetPending>) -> Result<()> {
        let (done, outcomes) =
            self.replicas[idx].serve(&self.bank, due.entries, due.flush_t, &self.cfg.serve)?;
        let src = NodeId::Replica(idx);
        sync_clock(self.net.stats(), src, done);
        for s in outcomes {
            let status = if s.ok {
                InferStatus::Ok
            } else {
                InferStatus::TimedOut
            };
            self.answer(src, s.platform, s.id, s.submit_s, done, status, s.logits.as_ref())?;
            self.router.complete(s.id);
        }
        Ok(())
    }

    /// Sends one terminal response from `src`, stamped `at`, and lets the
    /// transport account it.
    #[allow(clippy::too_many_arguments)]
    fn answer(
        &mut self,
        src: NodeId,
        platform: usize,
        id: u64,
        submit_s: f64,
        at: f64,
        status: InferStatus,
        logits: Option<&Tensor>,
    ) -> Result<()> {
        let dst = NodeId::Platform(platform);
        let env = encode_response_from(src, dst, id, submit_s, at, status, logits, self.codec());
        self.net.send(env).map_err(SplitError::from)
    }

    /// Answers `pending` from `src` at `at` without logits: a refusal.
    fn refuse(&mut self, src: NodeId, pending: &FleetPending, at: f64, status: InferStatus) -> Result<()> {
        sync_clock(self.net.stats(), src, at);
        let req = &pending.req;
        self.answer(src, pending.platform, req.id, req.submit_s, at, status, None)
    }

    /// Answers a request at the router itself (quota or routing failure).
    fn throttle(&mut self, pending: &FleetPending, t: f64) -> Result<()> {
        medsplit_telemetry::counter_add_labeled(
            "fleet.throttled",
            &format!("tenant-{}", pending.req.tenant),
            1,
        );
        self.refuse(NodeId::Server, pending, t, InferStatus::Throttled)
    }

    /// Dispatches a routed request to the ring: primary owner first, then
    /// successors, consulting the transport's health oracle and bounded
    /// by `dispatch_retries`; a request no replica can take is throttled.
    fn dispatch(
        &mut self,
        pending: FleetPending,
        t: f64,
        attempt: usize,
        mut skip: Option<usize>,
    ) -> Result<()> {
        let tenant = pending.req.tenant;
        let session = pending.req.session;
        let mut tried = 0usize;
        loop {
            let candidate = match skip {
                None => self.router.ring().route(tenant, session),
                Some(s) => self.router.ring().successor(tenant, session, s),
            };
            let Some(r) = candidate else {
                self.router.release(tenant);
                return self.throttle(&pending, t);
            };
            let replica_node = NodeId::Replica(r);
            let usable = !self.net.is_down(replica_node)
                && !self.net.link_down(NodeId::Server, replica_node)
                && self.replicas[r].phase() == ReplicaPhase::Active;
            if usable {
                sync_clock(self.net.stats(), NodeId::Server, t);
                let env = encode_routed_request(NodeId::Server, replica_node, &pending.req, self.codec());
                let wire = env.wire_size();
                self.net.send(env).map_err(SplitError::from)?;
                if self.net.try_recv(replica_node).is_some() {
                    let lan = self.topology.link(NodeId::Server, replica_node);
                    let arrival = t + lan.map_or(0.0, |l| l.transfer_time(wire));
                    self.router.record_dispatch(InFlight {
                        platform: pending.platform,
                        replica: r,
                        attempt,
                        req: pending.req.clone(),
                    });
                    self.push(
                        arrival,
                        EvKind::ReplicaArrival {
                            replica: r,
                            attempt,
                            pending,
                        },
                    );
                    return Ok(());
                }
                // The oracle said up but the frame was still eaten
                // (probabilistic drop): treat like an unusable candidate.
            }
            tried += 1;
            skip = Some(r);
            if tried > self.cfg.dispatch_retries {
                self.router.release(tenant);
                return self.throttle(&pending, t);
            }
        }
    }

    /// Re-dispatches a request whose replica failed, bumping the attempt.
    fn redispatch(&mut self, entry: InFlight, t: f64) -> Result<()> {
        self.redispatched += 1;
        medsplit_telemetry::counter_add("fleet.redispatched", 1);
        let attempt = entry.attempt + 1;
        let pending = FleetPending {
            platform: entry.platform,
            req: entry.req,
        };
        if attempt > self.cfg.dispatch_retries {
            self.router.release(pending.req.tenant);
            return self.throttle(&pending, t);
        }
        self.dispatch(pending, t, attempt, Some(entry.replica))
    }

    fn handle_crash(&mut self, r: usize, t: f64) -> Result<()> {
        if self.replicas[r].phase() == ReplicaPhase::Down {
            return Ok(());
        }
        let _span = medsplit_telemetry::span("fleet.rebalance");
        medsplit_telemetry::counter_add_labeled("fleet.crashes", &format!("replica-{r}"), 1);
        // Queued work and local session state die with the process.
        self.replicas[r].crash();
        self.router.ring_mut().set_active(r, false);
        // Every in-flight request assigned to the victim re-routes to a
        // ring successor. Deadlines still apply downstream.
        for entry in self.router.take_inflight_for(r) {
            self.redispatch(entry, t)?;
        }
        Ok(())
    }

    /// Returns a replica to service, after an operator drain (its sessions
    /// were handed off and come back) or a chaos recovery (successors may
    /// have rebuilt fresh state to give back): either way every other
    /// replica hands back the sessions homed to `r`.
    fn handle_rejoin(&mut self, r: usize, t: f64) -> Result<()> {
        if self.replicas[r].phase() == ReplicaPhase::Active {
            return Ok(());
        }
        let _span = medsplit_telemetry::span("fleet.rebalance");
        self.replicas[r].set_phase(ReplicaPhase::Active);
        self.router.ring_mut().set_active(r, true);
        for other in 0..self.replicas.len() {
            if other == r || self.replicas[other].phase() == ReplicaPhase::Down {
                continue;
            }
            let ring = self.router.ring().clone();
            let moved = self.replicas[other].export_sessions_homed_to(&ring, r);
            if moved.is_empty() {
                continue;
            }
            self.transfer_sessions(other, r, moved, t)?;
        }
        Ok(())
    }

    fn handle_drain(&mut self, r: usize, t: f64) -> Result<()> {
        if self.replicas[r].phase() != ReplicaPhase::Active {
            return Ok(());
        }
        let _span = medsplit_telemetry::span("fleet.drain");
        medsplit_telemetry::counter_add_labeled("fleet.drains", &format!("replica-{r}"), 1);
        self.replicas[r].set_phase(ReplicaPhase::Draining);
        self.router.ring_mut().set_active(r, false);
        // Flush everything still queued in one sweep — the drain batch
        // may exceed max_batch, and pays compute for every entry.
        if let Some(due) = self.replicas[r].executor.drain_all(t) {
            self.serve_and_respond(r, due)?;
        }
        // Hand the session shard to each session's ring successor.
        let sessions = self.replicas[r].export_all_sessions();
        let mut by_successor: BTreeMap<usize, Vec<SessionState>> = BTreeMap::new();
        let mut orphaned: Vec<SessionState> = Vec::new();
        for s in sessions {
            match self.router.ring().successor(s.key.tenant, s.key.session, r) {
                Some(succ) => by_successor.entry(succ).or_default().push(s),
                // No active successor (single-replica fleet): the state
                // stays put rather than being dropped.
                None => orphaned.push(s),
            }
        }
        self.replicas[r].import_sessions(orphaned);
        for (succ, group) in by_successor {
            self.transfer_sessions(r, succ, group, t)?;
        }
        Ok(())
    }

    /// Ships session state `from → to` in a byte-accounted
    /// [`MessageKind::SessionHandoff`] envelope and imports it.
    fn transfer_sessions(
        &mut self,
        from: usize,
        to: usize,
        sessions: Vec<SessionState>,
        t: f64,
    ) -> Result<()> {
        let count = sessions.len();
        let blob: Bytes = encode_sessions(&sessions);
        sync_clock(self.net.stats(), NodeId::Replica(from), t);
        let env = Envelope::new(
            NodeId::Replica(from),
            NodeId::Replica(to),
            self.tick.unwrap_or(0),
            MessageKind::SessionHandoff,
            blob,
        );
        self.net.send(env).map_err(SplitError::from)?;
        let Some(delivered) = self.net.try_recv(NodeId::Replica(to)) else {
            // Receiver died mid-handoff; the state is lost like a crash.
            return Ok(());
        };
        let imported = decode_sessions(&delivered.payload)?;
        self.replicas[to].import_sessions(imported);
        self.handoffs += count;
        medsplit_telemetry::counter_add("fleet.handoffs", count as u64);
        Ok(())
    }

    fn run_events(&mut self) -> Result<()> {
        while let Some(ev) = self.heap.pop() {
            self.advance(ev.t)?;
            match ev.kind {
                EvKind::RouterArrival(mut pending) => {
                    if !self.router.try_admit(pending.req.tenant) {
                        self.throttle(&pending, ev.t)?;
                        continue;
                    }
                    let key = SessionKey {
                        tenant: pending.req.tenant,
                        session: pending.req.session,
                    };
                    pending.req.version = self.router.pin_version(key);
                    self.dispatch(pending, ev.t, 0, None)?;
                }
                EvKind::ReplicaArrival {
                    replica,
                    attempt,
                    pending,
                } => {
                    // A crash since dispatch re-routed this request under
                    // a higher attempt; this copy is stale.
                    let current = matches!(
                        self.router.in_flight(pending.req.id),
                        Some(e) if e.replica == replica && e.attempt == attempt
                    );
                    if !current {
                        continue;
                    }
                    if self.replicas[replica].phase() != ReplicaPhase::Active {
                        // Arrived during a drain: hand straight back.
                        if let Some(entry) = self.router.take_inflight(pending.req.id) {
                            self.redispatch(entry, ev.t)?;
                        }
                        continue;
                    }
                    let deadline = pending.req.deadline_s;
                    match self.replicas[replica].executor.arrive(pending, ev.t, deadline) {
                        Arrived::Queued => {}
                        Arrived::Full(due) => self.serve_and_respond(replica, due)?,
                        Arrived::Rejected(refused) => {
                            medsplit_telemetry::counter_add("fleet.rejections", 1);
                            self.refuse(NodeId::Replica(replica), &refused, ev.t, InferStatus::Rejected)?;
                            self.router.complete(refused.req.id);
                        }
                    }
                }
                EvKind::Operator(op) => match op.action {
                    FleetAction::Drain => self.handle_drain(op.replica, ev.t)?,
                    FleetAction::Rejoin => self.handle_rejoin(op.replica, ev.t)?,
                },
            }
        }
        Ok(())
    }

    /// Serves whatever is still queued after the last event.
    fn final_drain(&mut self) -> Result<()> {
        for idx in 0..self.replicas.len() {
            while let Some(due) = self.replicas[idx].executor.drain_next() {
                self.serve_and_respond(idx, due)?;
            }
        }
        Ok(())
    }

    /// Drains the platform inboxes into client records and folds the
    /// outcome.
    fn collect(mut self, per_tenant: usize) -> Result<FleetOutcome> {
        let tenants = self.cfg.tenants;
        let offered = tenants * per_tenant;
        let mut records: Vec<ClientRecord> = std::mem::take(&mut self.lost);
        for p in 0..tenants {
            let node = NodeId::Platform(p);
            while let Some(env) = self.net.try_recv(node) {
                let downlink = self.topology.link(env.src, node);
                records.push(ClientRecord::from_response(p, &env, downlink)?);
            }
        }
        records.sort_by_key(|r| r.id);
        if records.len() != offered {
            return Err(SplitError::Protocol(format!(
                "no-drop invariant violated: {offered} requests offered, {} terminal records",
                records.len()
            )));
        }

        let stats = self.net.stats().snapshot();
        let report = ServeReport::fold(offered, &records, &stats);
        let mut per_tenant_reports = vec![TenantReport::default(); tenants];
        let mut digest = FNV_OFFSET;
        for rec in &records {
            let tr = &mut per_tenant_reports[rec.platform];
            tr.offered += 1;
            match rec.status {
                InferStatus::Ok => tr.completed += 1,
                InferStatus::Throttled => tr.throttled += 1,
                _ => {}
            }
            if rec.status == InferStatus::Ok {
                let logits = rec.logits.as_ref().expect("ok records carry logits");
                let record = logits
                    .as_slice()
                    .iter()
                    .fold(fnv1a(FNV_OFFSET, &rec.id.to_le_bytes()), |h, v| {
                        fnv1a(h, &v.to_bits().to_le_bytes())
                    });
                digest ^= record;
                digest = digest.wrapping_mul(FNV_PRIME);
            }
        }

        let per_replica = self
            .replicas
            .iter()
            .map(|r| ReplicaReport {
                replica: r.id(),
                served: r.served,
                final_phase: r.phase(),
                sessions: r.sessions().len(),
            })
            .collect();

        Ok(FleetOutcome {
            report,
            records,
            stats,
            chaos: self.net.chaos_stats(),
            per_replica,
            per_tenant: per_tenant_reports,
            handoffs: self.handoffs,
            redispatched: self.redispatched,
            logits_digest: digest,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_cfg(replicas: usize) -> FleetConfig {
        FleetConfig {
            replicas,
            tenants: 2,
            sessions_per_tenant: 3,
            tenant_quota: 256,
            weight_versions: 2,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn fleet_serves_every_request() {
        let cfg = quiet_cfg(2);
        let out = run_fleet(&cfg, 20, 7, FaultPlan::new(1), &[]).unwrap();
        assert_eq!(out.report.offered, 40);
        assert_eq!(out.report.completed, 40);
        assert_eq!(out.report.throttled, 0);
        assert_eq!(out.records.len(), 40);
        let served: u64 = out.per_replica.iter().map(|r| r.served).sum();
        assert_eq!(served, 40);
        assert!(out.report.request_bytes > 0);
        assert!(out.report.response_bytes > 0);
        assert!(out.report.latency.is_some());
    }

    #[test]
    fn logits_digest_is_replica_count_invariant() {
        let d1 = run_fleet(&quiet_cfg(1), 15, 11, FaultPlan::new(1), &[])
            .unwrap()
            .logits_digest;
        let d3 = run_fleet(&quiet_cfg(3), 15, 11, FaultPlan::new(1), &[])
            .unwrap()
            .logits_digest;
        let d4 = run_fleet(&quiet_cfg(4), 15, 11, FaultPlan::new(1), &[])
            .unwrap()
            .logits_digest;
        assert_eq!(d1, d3);
        assert_eq!(d3, d4);
    }

    #[test]
    fn quota_throttles_excess_inflight() {
        let mut cfg = quiet_cfg(1);
        cfg.tenant_quota = 1;
        cfg.serve.offered_rps = 10_000.0; // everything in flight at once
        cfg.serve.max_wait_s = f64::INFINITY; // no age flush: queue builds
        let out = run_fleet(&cfg, 10, 3, FaultPlan::new(1), &[]).unwrap();
        assert!(out.report.throttled > 0, "quota must bite: {:?}", out.report);
        assert_eq!(
            out.report.completed + out.report.throttled + out.report.rejected + out.report.timed_out,
            out.report.offered
        );
        let throttled: usize = out.per_tenant.iter().map(|t| t.throttled).sum();
        assert_eq!(throttled, out.report.throttled);
    }

    #[test]
    fn drain_hands_sessions_to_successors() {
        let cfg = quiet_cfg(3);
        let events = [
            FleetEvent {
                at_s: 0.05,
                replica: 1,
                action: FleetAction::Drain,
            },
            FleetEvent {
                at_s: 0.30,
                replica: 1,
                action: FleetAction::Rejoin,
            },
        ];
        let out = run_fleet(&cfg, 40, 5, FaultPlan::new(1), &events).unwrap();
        assert_eq!(out.report.offered, 80);
        assert_eq!(out.records.len(), 80);
        // Nothing may be dropped by an operator drain.
        assert_eq!(out.report.completed + out.report.timed_out, 80);
        assert!(out.handoffs > 0, "drain must hand off sessions");
        assert_eq!(out.per_replica[1].final_phase, ReplicaPhase::Active);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = FleetConfig {
            replicas: 0,
            ..FleetConfig::default()
        };
        let err = run_fleet(&cfg, 1, 0, FaultPlan::new(0), &[]).unwrap_err();
        assert!(matches!(err, SplitError::Config(_)));
    }
}
