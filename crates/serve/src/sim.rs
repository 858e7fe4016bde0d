//! The one serving loop, for one server and for a fleet of them.
//!
//! One process plays every role — platforms, router, replicas — over the
//! caller's [`Transport`], replaying all traffic in simulated-time order.
//! [`serve_threaded`](crate::serve_threaded) runs it with one replica on
//! the router's own node, [`run_fleet`] with `N` replicas behind the
//! router on a [`FleetTopology`]. Each replica holds an
//! [`Executor`](crate::executor::Executor), and this module is the one
//! place that asks one its three questions (what is due by `t`, what
//! becomes of this arrival, what is left at the end).
//!
//! A run submits every request first: each platform runs `L1` over one
//! window of queries at a time side by side on the kernel pool and draws
//! its noise in sequence order, and the window's requests go out in
//! submission order. Router arrivals, replica arrivals and operator
//! events are then handled in `(time, insertion seq)` order, and last
//! every platform collects one answer per query.
//!
//! **Co-located router.** A topology without [`NodeId::Replica`] nodes
//! has its one replica on the router's node: requests stay plain
//! `InferRequest` frames, an admitted request goes straight to the
//! executor (no hop frame, no clock sync, no chaos ticks), and the router
//! keeps no in-flight copy of it. A fleet sends a `RoutedRequest` frame
//! over each hop and keeps the copy, so a crash can re-dispatch it.
//!
//! **Lazy answers.** A batch the executor hands out is booked at once —
//! router completion, session counts, served totals, model instances —
//! and its answers are queued. The queue is emptied just before the loop
//! next sends (a refusal included), receives or begins a chaos tick, and
//! at the end: the queued batches are computed side by side on the
//! kernel pool, each task taking a run of `BATCHES_PER_TASK`
//! consecutive batches as one forward pass per (replica, version) over
//! their live rows, then their answers go out in queue order. The
//! transport thus sees a one-batch-at-a-time run's calls in its order: a
//! single server computes all its batches at the end, in passes of up to
//! `BATCHES_PER_TASK × max_batch` rows, a fleet one batch per dispatch,
//! and no crash tick overtakes an answer due before it.
//!
//! The fleet maps the simulated clock onto chaos ticks,
//! `tick = floor(time / chaos_tick_s)`, and applies [`FaultPlan`] events
//! at tick boundaries: a crashed replica loses its queue and sessions,
//! its in-flight requests go to ring successors, and no admitted request
//! is ever silently dropped. Activations and version pins depend only on
//! the seed and tenant layout, and a server layer's output row does not
//! depend on the rows that share its pass (`tests/batch_invariance.rs`),
//! so a run's logits are bit-identical across fleet and pool sizes and
//! however the queue is cut into passes.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

use bytes::Bytes;
use medsplit_core::{build_split, Platform, Result, SplitError, SplitPoint, SplitServer, WireCodec};
use medsplit_data::SyntheticTabular;
use medsplit_nn::{Architecture, MlpConfig};
use medsplit_simnet::{
    ChaosEvent, ChaosSnapshot, ChaosTransport, Envelope, FaultPlan, FleetTopology, MemoryTransport,
    MessageKind, NodeId, StatsSnapshot, Topology, Transport,
};
use medsplit_tensor::{fnv1a, init::rng_from_seed, Tensor, FNV_OFFSET, FNV_PRIME};

use crate::bank::ModelBank;
use crate::config::FleetConfig;
use crate::executor::{request_id, side_by_side, sync_clock, Arrived, Due};
use crate::metrics::ServeReport;
use crate::replica::{infer_run, FleetPending, Replica, ReplicaPhase};
use crate::router::{InFlight, Router};
use crate::runtime::ClientRecord;
use crate::session::{decode_sessions, encode_sessions, SessionKey, SessionState};
use crate::wire::{
    decode_request, decode_routed_request, encode_request, encode_response_from, encode_routed_request,
    InferStatus, RoutedRequest,
};

/// How many times the router re-dispatches a request whose replica
/// fails mid-flight before giving up with a throttle response.
const DISPATCH_RETRIES: usize = 2;

/// Feature width of the simulated workload's inputs.
pub const FEATURES: usize = 16;
/// Class count of the simulated workload's outputs.
pub const CLASSES: usize = 4;

/// Queries whose `L1` runs in one kernel-pool job, in tasks of
/// [`L1_QUERIES_PER_TASK`]. A window's requests go out before the next
/// window starts, so a platform holds one window of activations at a
/// time. Both are constants of the code, never derived from the thread
/// count, like [`BATCHES_PER_TASK`].
const L1_WINDOW: usize = 256;
const L1_QUERIES_PER_TASK: usize = 16;
/// Queued batches computed in one kernel-pool task, as one forward pass
/// per (replica, version) over their live rows.
const BATCHES_PER_TASK: usize = 8;

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
    /// Requests refused by the router (quota / no active replica), or
    /// lost on their uplink.
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

/// Where a run's server models come from.
pub(crate) enum Models<'a> {
    /// One server, serving weight version 0.
    One(SplitServer),
    /// Every version of a bank, instantiated by each replica on first use.
    Bank(&'a ModelBank),
}

enum EvKind {
    /// A request reaching the router.
    RouterArrival(FleetPending),
    /// A dispatched request reaching its replica node.
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

struct Driver<'a, T, Topo> {
    cfg: &'a FleetConfig,
    topology: &'a Topo,
    net: &'a T,
    bank: Option<&'a ModelBank>,
    /// Whether the router fronts replica nodes; without them the one
    /// replica is the router's node.
    hops: bool,
    /// `serve.batch_size` for a single server, `fleet.batch_size` for a
    /// fleet.
    histogram: &'static str,
    router: Router,
    replicas: Vec<Replica>,
    heap: BinaryHeap<Ev>,
    seq: u64,
    tick: Option<u64>,
    /// Booked batches whose answers are not sent yet, by replica.
    answers: Vec<(usize, Due<FleetPending>)>,
    handoffs: usize,
    redispatched: usize,
    /// Client-side records of requests their uplink lost, per platform.
    lost: Vec<Vec<ClientRecord>>,
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
    // Each tenant's own query stream, drawn as the loop asks for it.
    let queries = (0..tenants)
        .map(|tenant| {
            let mut rng = rng_from_seed(0x5eed ^ (tenant as u64).wrapping_mul(0x9e37_79b9));
            (0..requests_per_tenant).map(move |_| Tensor::rand_uniform([1, FEATURES], -1.0, 1.0, &mut rng))
        })
        .collect();

    let topology = FleetTopology::new(tenants, cfg.replicas);
    let net = ChaosTransport::new(MemoryTransport::new(topology.clone()), plan);
    let mut outcome = serve(
        cfg,
        platforms,
        queries,
        Models::Bank(&bank),
        events,
        &topology,
        &net,
    )?;
    outcome.chaos = net.chaos_stats();
    Ok(outcome)
}

/// The one serving loop: platform `p` submits `queries[p]` from node
/// `Platform(p)` open-loop at `cfg.serve.offered_rps`, `cfg.replicas`
/// replicas serve them with `models`, `events` drain and rejoin replicas,
/// and every platform collects one answer per query. `cfg` must be valid
/// and `platforms.len() == queries.len()`.
pub(crate) fn serve<T, Topo, Q>(
    cfg: &FleetConfig,
    platforms: Vec<Platform>,
    queries: Vec<Q>,
    models: Models<'_>,
    events: &[FleetEvent],
    topology: &Topo,
    net: &T,
) -> Result<FleetOutcome>
where
    T: Transport,
    Topo: Topology,
    Q: ExactSizeIterator<Item = Tensor>,
{
    let hops = topology.nodes().iter().any(|n| matches!(n, NodeId::Replica(_)));
    let mut replicas: Vec<Replica> = (0..cfg.replicas).map(|r| Replica::new(r, &cfg.serve)).collect();
    let bank = match models {
        Models::One(mut server) => {
            server.update_plans()?;
            replicas[0].servers.insert(0, server);
            None
        }
        Models::Bank(bank) => Some(bank),
    };
    let sent: Vec<usize> = queries.iter().map(ExactSizeIterator::len).collect();
    let mut driver = Driver {
        cfg,
        topology,
        net,
        bank,
        hops,
        histogram: if hops {
            "fleet.batch_size"
        } else {
            "serve.batch_size"
        },
        router: Router::new(
            cfg.replicas,
            cfg.vnodes,
            cfg.tenant_quota,
            cfg.weight_versions as u32,
        ),
        replicas,
        heap: BinaryHeap::new(),
        seq: 0,
        tick: None,
        answers: Vec::new(),
        handoffs: 0,
        redispatched: 0,
        lost: sent.iter().map(|_| Vec::new()).collect(),
    };
    for event in events {
        driver.push(event.at_s, EvKind::Operator(*event));
    }
    driver.submit_all(platforms, queries)?;
    driver.run_events()?;
    driver.final_drain()?;
    driver.collect(&sent)
}

impl<T: Transport, Topo: Topology> Driver<'_, T, Topo> {
    fn push(&mut self, t: f64, kind: EvKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Ev { t, seq, kind });
    }

    fn codec(&self) -> WireCodec {
        self.cfg.serve.codec
    }

    /// The node replica `r` answers from.
    fn node(&self, r: usize) -> NodeId {
        if self.hops {
            NodeId::Replica(r)
        } else {
            NodeId::Server
        }
    }

    /// Turns every query into a request and submits it, before any event
    /// is handled: one window of [`L1_WINDOW`] sequence numbers at a
    /// time, each platform's `L1` over its part side by side on the
    /// kernel pool and its noise drawn in sequence order, then the
    /// window's requests in submission order `(submit_s, id)`.
    fn submit_all<Q: ExactSizeIterator<Item = Tensor>>(
        &mut self,
        mut platforms: Vec<Platform>,
        mut queries: Vec<Q>,
    ) -> Result<()> {
        let (rps, deadline_s) = (self.cfg.serve.offered_rps, self.cfg.serve.deadline_s);
        let sessions = self.cfg.sessions_per_tenant;
        let longest = queries.iter().map(ExactSizeIterator::len).max().unwrap_or(0);
        for platform in &mut platforms {
            platform.update_plans()?;
        }
        let mut window: Vec<(f64, FleetPending)> = Vec::new();
        for first in (0..longest).step_by(L1_WINDOW) {
            for (tenant, (platform, qs)) in platforms.iter_mut().zip(&mut queries).enumerate() {
                let inputs: Vec<Tensor> = qs.by_ref().take(L1_WINDOW).collect();
                let shared = &*platform;
                let activations = side_by_side(&inputs, L1_QUERIES_PER_TASK, |queries, out| {
                    for q in queries {
                        out.push(shared.infer_l1_shared(q)?);
                    }
                    Ok(())
                })?;
                drop(inputs);
                for (seq, acts) in (first..).zip(activations) {
                    // Open-loop arrivals: request `seq` is submitted at a
                    // fixed rate regardless of how earlier requests fared.
                    let submit_s = seq as f64 / rps;
                    let req = RoutedRequest {
                        id: request_id(tenant, seq),
                        submit_s,
                        deadline_s: submit_s + deadline_s,
                        tenant: tenant as u64,
                        session: (seq % sessions) as u64,
                        // Stamped by the router at admission.
                        version: u32::MAX,
                        activations: platform.noise_inference(acts),
                    };
                    window.push((
                        submit_s,
                        FleetPending {
                            platform: tenant,
                            req,
                        },
                    ));
                }
            }
            window.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.req.id.cmp(&b.1.req.id)));
            for (submit_s, pending) in window.drain(..) {
                self.submit(submit_s, pending)?;
            }
        }
        Ok(())
    }

    /// Sends one request over its uplink and schedules its arrival at the
    /// router, or records it lost.
    fn submit(&mut self, submit_s: f64, pending: FleetPending) -> Result<()> {
        let node = NodeId::Platform(pending.platform);
        let req = &pending.req;
        sync_clock(self.net.stats(), node, submit_s);
        let env = if self.hops {
            encode_routed_request(node, NodeId::Server, req, self.codec())
        } else {
            encode_request(
                node,
                req.id,
                req.submit_s,
                req.deadline_s,
                &req.activations,
                self.codec(),
            )
        };
        self.net.send(env).map_err(SplitError::from)?;
        let Some(env) = self.net.try_recv(NodeId::Server) else {
            // The uplink ate the frame. The router never saw it, so the
            // only honest record is a client-side loss, throttled at zero.
            self.lost[pending.platform].push(ClientRecord {
                platform: pending.platform,
                id: req.id,
                submit_s,
                status: InferStatus::Throttled,
                latency_s: 0.0,
                logits: None,
            });
            return Ok(());
        };
        let uplink = self.topology.link(node, NodeId::Server);
        let arrival = submit_s + uplink.map_or(0.0, |l| l.transfer_time(env.wire_size()));
        let req = if self.hops {
            decode_routed_request(&env)?
        } else {
            let plain = decode_request(&env)?;
            RoutedRequest {
                id: plain.id,
                submit_s: plain.submit_s,
                deadline_s: plain.deadline_s,
                activations: plain.activations,
                ..pending.req
            }
        };
        let platform = pending.platform;
        self.push(arrival, EvKind::RouterArrival(FleetPending { platform, req }));
        Ok(())
    }

    /// Applies a fleet's chaos ticks and age-rule batch flushes up to
    /// time `t`.
    fn advance(&mut self, t: f64) -> Result<()> {
        if self.hops {
            let target = (t / self.cfg.chaos_tick_s).floor() as u64;
            let mut next = self.tick.map_or(0, |c| c + 1);
            while next <= target {
                let tick_time = next as f64 * self.cfg.chaos_tick_s;
                self.flush_due(tick_time)?;
                self.send_answers()?;
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
        }
        self.flush_due(t)
    }

    /// Books every batch whose age rule expired at or before `t`,
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
            self.schedule(idx, due)?;
        }
    }

    /// Books a batch replica `r`'s executor handed out and queues its
    /// answers.
    fn schedule(&mut self, r: usize, due: Due<FleetPending>) -> Result<()> {
        medsplit_telemetry::histogram_observe(
            self.histogram,
            &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
            due.entries.len() as f64,
        );
        self.replicas[r].book(&due.entries, due.done_s, self.bank)?;
        for entry in &due.entries {
            self.settle(&entry.item);
        }
        self.answers.push((r, due));
        Ok(())
    }

    /// Marks an admitted request answered: out of the in-flight table,
    /// and its tenant's quota slot free again.
    fn settle(&mut self, pending: &FleetPending) {
        if self.hops {
            self.router.complete(pending.req.id);
        } else {
            self.router.release(pending.req.tenant);
        }
    }

    /// Answers `pending` from `src` at `at` without logits, after every
    /// queued answer.
    fn refuse(&mut self, src: NodeId, pending: &FleetPending, at: f64, status: InferStatus) -> Result<()> {
        self.send_answers()?;
        sync_clock(self.net.stats(), src, at);
        self.send_answer(src, pending, at, status, None)
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

    /// Empties the answer queue: computes the queued batches side by side
    /// on the kernel pool, [`BATCHES_PER_TASK`] consecutive batches a task
    /// and one forward pass per (replica, version) over each task's live
    /// rows ([`infer_run`]), then sends the answers batch by batch in queue
    /// order, each batch's stamped with its `done_s` after syncing its
    /// replica's clock to it.
    fn send_answers(&mut self) -> Result<()> {
        if self.answers.is_empty() {
            return Ok(());
        }
        let answers = std::mem::take(&mut self.answers);
        let replicas = &self.replicas;
        let computed = side_by_side(&answers, BATCHES_PER_TASK, |run, out| {
            infer_run(replicas, run, out)
        })?;
        for ((r, due), logits) in answers.into_iter().zip(computed) {
            let src = self.node(r);
            sync_clock(self.net.stats(), src, due.done_s);
            for (i, logits) in logits {
                let status = if logits.is_some() {
                    InferStatus::Ok
                } else {
                    InferStatus::TimedOut
                };
                self.send_answer(src, &due.entries[i].item, due.done_s, status, logits.as_ref())?;
            }
        }
        Ok(())
    }

    /// Sends one terminal response from `src`, stamped `at`.
    fn send_answer(
        &self,
        src: NodeId,
        to: &FleetPending,
        at: f64,
        status: InferStatus,
        logits: Option<&Tensor>,
    ) -> Result<()> {
        let req = &to.req;
        let dst = NodeId::Platform(to.platform);
        let env = encode_response_from(src, dst, req.id, req.submit_s, at, status, logits, self.codec());
        self.net.send(env).map_err(SplitError::from)
    }

    /// Dispatches an admitted request. A co-located replica takes it at
    /// once. A fleet walks the ring — primary owner first, then
    /// successors — consulting the transport's health oracle, bounded by
    /// [`DISPATCH_RETRIES`]; a request no replica can take is throttled.
    fn dispatch(
        &mut self,
        pending: FleetPending,
        t: f64,
        attempt: usize,
        mut skip: Option<usize>,
    ) -> Result<()> {
        if !self.hops {
            return self.arrive(0, pending, t);
        }
        self.send_answers()?;
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
            if tried > DISPATCH_RETRIES {
                self.router.release(tenant);
                return self.throttle(&pending, t);
            }
        }
    }

    /// A request reaches replica `r`'s executor at `t`: it is queued,
    /// completes a batch, or is refused at the executor's busy clock.
    fn arrive(&mut self, r: usize, pending: FleetPending, t: f64) -> Result<()> {
        let deadline = pending.req.deadline_s;
        match self.replicas[r].executor.arrive(pending, t, deadline) {
            Arrived::Queued => Ok(()),
            Arrived::Full(due) => self.schedule(r, due),
            Arrived::Rejected(refused) => {
                medsplit_telemetry::counter_add("serve.rejections", 1);
                self.settle(&refused);
                let at = self.replicas[r].executor.clock();
                self.refuse(self.node(r), &refused, at, InferStatus::Rejected)
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
        if attempt > DISPATCH_RETRIES {
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
            self.schedule(r, due)?;
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
        self.send_answers()?;
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
                    self.arrive(replica, pending, ev.t)?;
                }
                EvKind::Operator(op) => match op.action {
                    FleetAction::Drain => self.handle_drain(op.replica, ev.t)?,
                    FleetAction::Rejoin => self.handle_rejoin(op.replica, ev.t)?,
                },
            }
        }
        Ok(())
    }

    /// Books whatever is still queued after the last event.
    fn final_drain(&mut self) -> Result<()> {
        for idx in 0..self.replicas.len() {
            while let Some(due) = self.replicas[idx].executor.drain_next() {
                self.schedule(idx, due)?;
            }
        }
        Ok(())
    }

    /// Sends what is still queued, drains every platform inbox into
    /// client records — `sent[p]` of them per platform, or the run
    /// refuses to report — and folds the outcome.
    fn collect(mut self, sent: &[usize]) -> Result<FleetOutcome> {
        self.send_answers()?;
        let offered = sent.iter().sum();
        let mut records: Vec<ClientRecord> = Vec::with_capacity(offered);
        for (p, &sent) in sent.iter().enumerate() {
            let node = NodeId::Platform(p);
            let mut of_node = std::mem::take(&mut self.lost[p]);
            while let Some(env) = self.net.try_recv(node) {
                let downlink = self.topology.link(env.src, node);
                of_node.push(ClientRecord::from_response(p, &env, downlink)?);
            }
            if of_node.len() != sent {
                return Err(SplitError::Protocol(format!(
                    "platform {p} received {} of {sent} responses",
                    of_node.len()
                )));
            }
            of_node.sort_by_key(|rec| rec.id);
            records.extend(of_node);
        }

        let stats = self.net.stats().snapshot();
        let report = ServeReport::fold(offered, &records, &stats);
        let mut per_tenant = vec![TenantReport::default(); sent.len()];
        let mut digest = FNV_OFFSET;
        for rec in &records {
            let tr = &mut per_tenant[rec.platform];
            tr.offered += 1;
            match rec.status {
                InferStatus::Ok => tr.completed += 1,
                InferStatus::Throttled => tr.throttled += 1,
                _ => {}
            }
            if let Some(logits) = &rec.logits {
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
            chaos: ChaosSnapshot::default(),
            per_replica,
            per_tenant,
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
