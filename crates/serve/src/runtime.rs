//! The serving runtime over the simulated network.
//!
//! Platforms and the server communicate exclusively through a shared
//! [`Transport`]. Clients submit requests open-loop at a configured
//! rate; the server decodes activation envelopes, batches them with
//! [`DynamicBatcher`](crate::batcher::DynamicBatcher), runs `L2..Lk`
//! forward-only, and answers every request explicitly — logits, a
//! rejection, or a timeout.
//!
//! Timing is simulated: requests carry their submission time, the server
//! reconstructs arrival times from the topology's link model, serving
//! advances the busy clock of one [`Executor`], and clients compute
//! end-to-end latency from the served timestamp plus the downlink
//! transfer time. A session runs in three phases: every platform
//! submits its whole stream, the server collects all requests and
//! replays them against the executor in simulated-arrival order (a
//! discrete-event simulation), every platform receives its responses.
//! The session is driven from the caller's thread; the inferences, which
//! are independent of one another, run side by side on the kernel pool:
//! each platform's `L1` over its queries, and the server's `L2..Lk` over
//! the batches the replay scheduled. Everything that orders or accounts
//! (noise draws, sends, the busy clock, node clocks) stays on the
//! caller's thread, in the order a one-at-a-time run would take. Batch
//! composition, admission decisions, every reported latency and every
//! logit bit are deterministic and independent of the pool size, and a
//! response that never arrives is an immediate protocol error, not a
//! wait.

use medsplit_core::{Platform, Result, SplitError, SplitServer, WireCodec};
use medsplit_simnet::{Envelope, LinkSpec, MessageKind, NodeId, StarTopology, StatsSnapshot, Transport};
use medsplit_tensor::Tensor;

use crate::executor::{infer_batches, request_id, side_by_side, sync_clock, Answers, Arrived, Due, Executor};
use crate::metrics::ServeReport;
use crate::wire::{
    decode_request, decode_response, encode_request, encode_response, InferRequest, InferStatus,
};

/// Serving-runtime parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Flush a batch when this many requests are pending.
    pub max_batch: usize,
    /// Flush a batch when the oldest pending request has waited this long
    /// (simulated seconds; `INFINITY` = flush on size only).
    pub max_wait_s: f64,
    /// Admission-control bound on the pending queue; requests beyond it
    /// are rejected.
    pub queue_capacity: usize,
    /// Per-request deadline relative to submission (simulated seconds;
    /// `INFINITY` = none). Requests served after their deadline get a
    /// timeout response instead of logits.
    pub deadline_s: f64,
    /// Open-loop request rate *per platform* (requests per simulated
    /// second).
    pub offered_rps: f64,
    /// Fixed server cost per batch (kernel launch / scheduling overhead).
    pub batch_setup_s: f64,
    /// Server cost per queued request in a batch.
    pub per_item_s: f64,
    /// Wire codec for activations and logits.
    pub codec: WireCodec,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            max_wait_s: 0.010,
            queue_capacity: 64,
            deadline_s: f64::INFINITY,
            offered_rps: 100.0,
            batch_setup_s: 0.002,
            per_item_s: 0.001,
            codec: WireCodec::F32,
        }
    }
}

impl ServeConfig {
    /// Checks the knobs a driver cannot run with: a zero batch or queue,
    /// a rate, cost or timer that is negative or NaN, an infinite rate or
    /// cost.
    ///
    /// # Errors
    ///
    /// Returns [`SplitError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        let cost = |c: f64| c.is_finite() && c >= 0.0;
        // A NaN fails every comparison; `INFINITY` stays legal for the age
        // timer (flush on size only) and the deadline (none).
        let checks = [
            (
                self.max_batch >= 1 && self.queue_capacity >= 1,
                "max_batch and queue_capacity must be at least 1",
            ),
            (
                self.offered_rps.is_finite() && self.offered_rps > 0.0,
                "offered_rps must be positive and finite",
            ),
            (self.max_wait_s >= 0.0, "max_wait_s must be non-negative"),
            (self.deadline_s >= 0.0, "deadline_s must be non-negative"),
            (
                cost(self.batch_setup_s) && cost(self.per_item_s),
                "compute costs must be non-negative and finite",
            ),
        ];
        match checks.iter().find(|(ok, _)| !ok) {
            Some((_, why)) => Err(SplitError::Config((*why).into())),
            None => Ok(()),
        }
    }
}

/// The client-side view of one finished request.
#[derive(Debug, Clone)]
pub struct ClientRecord {
    /// Platform that submitted the request.
    pub platform: usize,
    /// Request id (unique across the run).
    pub id: u64,
    /// Simulated submission time.
    pub submit_s: f64,
    /// Terminal status.
    pub status: InferStatus,
    /// End-to-end simulated latency (submit → response received),
    /// regardless of status: rejections and timeouts also take wire time.
    pub latency_s: f64,
    /// Logits, present iff the request completed.
    pub logits: Option<Tensor>,
}

impl ClientRecord {
    /// The client's view of the response in `env`, which left its server
    /// at `served_s` and crossed `downlink`: end-to-end latency under the
    /// simulated clock is served time plus downlink transfer time minus
    /// submission time.
    ///
    /// # Errors
    ///
    /// Returns the decoder's error for a malformed response.
    pub fn from_response(platform: usize, env: &Envelope, downlink: Option<LinkSpec>) -> Result<Self> {
        let resp = decode_response(env)?;
        let received_s = resp.served_s + downlink.map_or(0.0, |l| l.transfer_time(env.wire_size()));
        Ok(ClientRecord {
            platform,
            id: resp.id,
            submit_s: resp.submit_s,
            status: resp.status,
            latency_s: received_s - resp.submit_s,
            logits: resp.logits,
        })
    }
}

/// Everything a serving run produces.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Aggregate latency/throughput/byte accounting.
    pub report: ServeReport,
    /// Per-request records, ordered by platform then submission.
    pub records: Vec<ClientRecord>,
    /// Raw simulated-network statistics.
    pub stats: StatsSnapshot,
}

/// A decoded request at the server: the platform it answers to and its
/// simulated arrival time, the key of the discrete-event replay.
struct Pending {
    platform: usize,
    arrival_s: f64,
    req: InferRequest,
}

/// What the replay decided, in the order its answers leave the server.
enum Scheduled {
    /// A batch; its answers leave at `done_s`.
    Batch(Due<Pending>),
    /// A refused arrival, answered at the busy clock of its arrival.
    Refused(Pending, f64),
}

/// Queries whose `L1` runs in one kernel-pool job, in tasks of
/// [`L1_QUERIES_PER_TASK`]. Their requests go out before the next window
/// starts, so a platform holds one window of activations at a time, as
/// its queries turn into requests. Both are constants of the code, never
/// derived from the thread count.
const L1_WINDOW: usize = 256;
const L1_QUERIES_PER_TASK: usize = 16;

/// Runs a full serving session: every platform submits its queries
/// open-loop at `cfg.offered_rps`, the server batches and answers, and
/// the outcome aggregates every request's fate.
///
/// `queries[p]` are platform `p`'s inputs in submission order (each a
/// feature batch for [`Platform::infer_l1`]); `platforms.len()` must
/// equal `queries.len()` and match the transport's topology.
///
/// The session is driven from the caller's thread in three phases:
/// every platform submits, the server collects, replays and answers,
/// every platform receives. The `L1` and `L2..Lk` inferences run side by
/// side on the kernel pool; sends, noise draws and clocks keep the order
/// of a one-at-a-time run. The name is kept because the benchmark
/// imports it.
///
/// # Errors
///
/// Returns config errors for invalid parameters and protocol errors for
/// malformed traffic, a missing or repeated done marker, or a platform
/// whose response count differs from its request count.
pub fn serve_threaded<T: Transport>(
    platforms: Vec<Platform>,
    mut server: SplitServer,
    queries: Vec<Vec<Tensor>>,
    topology: &StarTopology,
    cfg: &ServeConfig,
    transport: &T,
) -> Result<ServeOutcome> {
    cfg.validate()?;
    if platforms.len() != queries.len() {
        return Err(SplitError::Config(format!(
            "{} platforms but {} query streams",
            platforms.len(),
            queries.len()
        )));
    }
    let offered: usize = queries.iter().map(Vec::len).sum();

    // Phase 1 — submit, one platform after another, one window of
    // queries at a time: `L1` over the window side by side on the kernel
    // pool, then the noise draws and the window's requests in submission
    // order; the done marker last.
    let mut clients = Vec::with_capacity(platforms.len());
    for (mut platform, qs) in platforms.into_iter().zip(queries) {
        let (pid, node, sent) = (platform.id(), platform.node(), qs.len());
        platform.update_plans()?;
        let mut qs = qs.into_iter();
        for first in (0..sent).step_by(L1_WINDOW) {
            let window: Vec<Tensor> = qs.by_ref().take(L1_WINDOW).collect();
            let activations = side_by_side(&window, L1_QUERIES_PER_TASK, |q| platform.infer_l1_shared(q));
            drop(window);
            for (seq, acts) in (first..).zip(activations) {
                // Open-loop arrivals: request `seq` is submitted at a
                // fixed rate regardless of how earlier requests fared.
                let submit_s = seq as f64 / cfg.offered_rps;
                sync_clock(transport.stats(), node, submit_s);
                let acts = platform.noise_inference(acts?);
                let env = encode_request(
                    node,
                    request_id(pid, seq),
                    submit_s,
                    submit_s + cfg.deadline_s,
                    &acts,
                    cfg.codec,
                );
                transport.send(env).map_err(SplitError::from)?;
            }
        }
        transport
            .send(Envelope::control(node, NodeId::Server, sent as u64))
            .map_err(SplitError::from)?;
        clients.push((pid, node, sent));
    }

    // Phase 2 — the server collects every request and replays them to a
    // schedule, runs every scheduled batch side by side on the kernel
    // pool, and sends the answers in schedule order.
    let arrivals = collect(topology, clients.len(), transport)?;
    let schedule = replay(arrivals, cfg);
    server.update_plans()?;
    let batches = schedule.iter().filter_map(|event| match event {
        Scheduled::Batch(due) => Some(due),
        Scheduled::Refused(..) => None,
    });
    let answers = infer_batches(
        batches,
        "serve.batch_size",
        |_| (),
        |p| &p.req.activations,
        |(), batch| server.infer_shared(batch),
    )?;
    answer(schedule, answers, cfg, transport)?;

    // Phase 3 — every platform receives its responses.
    let mut records = Vec::with_capacity(offered);
    for (pid, node, sent) in clients {
        let downlink = topology.link(NodeId::Server, node);
        let mut of_node = Vec::with_capacity(sent);
        while let Some(env) = transport.try_recv(node) {
            of_node.push(ClientRecord::from_response(pid, &env, downlink)?);
        }
        if of_node.len() != sent {
            return Err(SplitError::Protocol(format!(
                "platform {pid} received {} of {sent} responses",
                of_node.len()
            )));
        }
        of_node.sort_by_key(|rec| rec.id);
        records.extend(of_node);
    }

    let stats = transport.stats().snapshot();
    Ok(ServeOutcome {
        report: ServeReport::fold(offered, &records, &stats),
        records,
        stats,
    })
}

/// Every request in the server's inbox, decoded, in simulated-arrival
/// order (ties broken by request id).
fn collect<T: Transport>(
    topology: &StarTopology,
    client_count: usize,
    transport: &T,
) -> Result<Vec<Pending>> {
    // Platforms submit one after another, so the inbox holds their
    // streams back to back, not in simulated-arrival order. The busy
    // clock must only ever move forward, which makes processing order
    // part of the result — so we gather everything first and replay it
    // as a discrete-event simulation.
    let mut arrivals: Vec<Pending> = Vec::new();
    let mut done = vec![0usize; client_count];
    while let Some(env) = transport.try_recv(NodeId::Server) {
        let platform = env
            .src
            .platform_index()
            .filter(|&p| p < client_count)
            .ok_or_else(|| SplitError::Protocol(format!("{} message from {}", env.kind, env.src)))?;
        match env.kind {
            MessageKind::Control => done[platform] += 1,
            MessageKind::InferRequest => {
                let req = decode_request(&env)?;
                let uplink = topology.link(env.src, NodeId::Server);
                let arrival_s = req.submit_s + uplink.map_or(0.0, |l| l.transfer_time(env.wire_size()));
                arrivals.push(Pending {
                    platform,
                    arrival_s,
                    req,
                });
            }
            other => {
                return Err(SplitError::Protocol(format!(
                    "unexpected {other} message on the serving path"
                )));
            }
        }
    }
    if let Some((p, &n)) = done.iter().enumerate().find(|(_, &n)| n != 1) {
        return Err(SplitError::Protocol(format!(
            "server holds {n} done markers from platform {p}, want 1"
        )));
    }
    arrivals.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.req.id.cmp(&b.req.id)));
    Ok(arrivals)
}

/// Replays `arrivals` against the single executor and returns its
/// batches and refusals in the order they happen. Nothing is computed.
fn replay(arrivals: Vec<Pending>, cfg: &ServeConfig) -> Vec<Scheduled> {
    let mut executor: Executor<Pending> = Executor::new(cfg);
    let mut schedule = Vec::new();
    for arrival in arrivals {
        let (t, deadline_s) = (arrival.arrival_s, arrival.req.deadline_s);
        while let Some(due) = executor.due_by(t) {
            schedule.push(Scheduled::Batch(due));
        }
        match executor.arrive(arrival, t, deadline_s) {
            Arrived::Queued => {}
            Arrived::Full(due) => schedule.push(Scheduled::Batch(due)),
            Arrived::Rejected(pending) => {
                medsplit_telemetry::counter_add("serve.rejections", 1);
                schedule.push(Scheduled::Refused(pending, executor.clock()));
            }
        }
    }
    // Drain what is still queued.
    while let Some(due) = executor.drain_next() {
        schedule.push(Scheduled::Batch(due));
    }
    schedule
}

/// Sends every answer of `schedule`, with `answers` holding one entry
/// per batch in order. Every batch entry gets exactly one response
/// stamped with the batch's completion time: logits, or a timeout if its
/// deadline expired before the batch finished. Backpressure is explicit:
/// a refused client gets an answer rather than a silent drop.
fn answer<T: Transport>(
    schedule: Vec<Scheduled>,
    answers: Vec<Answers>,
    cfg: &ServeConfig,
    transport: &T,
) -> Result<()> {
    let mut answers = answers.into_iter();
    for event in schedule {
        match event {
            Scheduled::Batch(due) => {
                sync_clock(transport.stats(), NodeId::Server, due.done_s);
                let batch = answers.next().expect("one set of answers per batch");
                for (i, logits) in batch {
                    let status = if logits.is_some() {
                        InferStatus::Ok
                    } else {
                        InferStatus::TimedOut
                    };
                    respond(
                        transport,
                        &due.entries[i].item,
                        due.done_s,
                        status,
                        logits.as_ref(),
                        cfg,
                    )?;
                }
            }
            Scheduled::Refused(pending, at_s) => {
                sync_clock(transport.stats(), NodeId::Server, at_s);
                respond(transport, &pending, at_s, InferStatus::Rejected, None, cfg)?;
            }
        }
    }
    Ok(())
}

fn respond<T: Transport>(
    transport: &T,
    to: &Pending,
    served_s: f64,
    status: InferStatus,
    logits: Option<&Tensor>,
    cfg: &ServeConfig,
) -> Result<()> {
    let resp = encode_response(
        NodeId::Platform(to.platform),
        to.req.id,
        to.req.submit_s,
        served_s,
        status,
        logits,
        cfg.codec,
    );
    transport.send(resp).map_err(SplitError::from)
}
