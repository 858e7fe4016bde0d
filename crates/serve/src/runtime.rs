//! Thread-per-node serving runtime over the simulated network.
//!
//! Every platform and the server run on their own OS thread
//! ([`medsplit_simnet::threaded::run_per_node`]) and communicate
//! exclusively through a shared [`Transport`]. Clients submit requests
//! open-loop at a configured rate; the server decodes activation
//! envelopes, batches them with [`DynamicBatcher`], runs `L2..Lk`
//! forward-only, and answers every request explicitly — logits, a
//! rejection, or a timeout.
//!
//! Timing is simulated: requests carry their submission time, the server
//! reconstructs arrival times from the topology's link model, serving
//! advances the busy clock of one [`Executor`], and clients compute
//! end-to-end latency from the served timestamp plus the downlink
//! transfer time. Because the clients' streams interleave arbitrarily in
//! wall-clock time, the server first collects all requests and then
//! replays them against the executor in simulated-arrival order (a
//! discrete-event simulation), so batch composition, admission decisions,
//! and every reported latency are deterministic — wall-clock thread
//! scheduling never affects the results.

use medsplit_core::{Platform, Result, SplitError, SplitServer, WireCodec};
use medsplit_simnet::threaded::run_per_node;
use medsplit_simnet::{
    recv_timeout_default, Envelope, LinkSpec, MessageKind, NodeId, StarTopology, StatsSnapshot, Transport,
};
use medsplit_tensor::Tensor;

use crate::executor::{forward_batch, request_id, sync_clock, Arrived, Due, Executor};
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

/// Runs a full serving session: every platform submits its queries
/// open-loop at `cfg.offered_rps`, the server batches and answers, and
/// the outcome aggregates every request's fate.
///
/// `queries[p]` are platform `p`'s inputs in submission order (each a
/// feature batch for [`Platform::infer_l1`]); `platforms.len()` must
/// equal `queries.len()` and match the transport's topology.
///
/// # Errors
///
/// Returns config errors for invalid parameters, protocol errors for
/// malformed traffic, and net errors if a node times out.
pub fn serve_threaded<T: Transport>(
    mut platforms: Vec<Platform>,
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
    let client_count = platforms.len();

    // Every node returns its client records; the server has none.
    type NodeFn<'a, T> = Box<dyn FnOnce(NodeId, &T) -> Result<Vec<ClientRecord>> + Send + 'a>;
    let mut nodes: Vec<(NodeId, NodeFn<'_, T>)> = Vec::with_capacity(client_count + 1);
    for (platform, qs) in platforms.drain(..).zip(queries) {
        let node = platform.node();
        let client: NodeFn<'_, T> =
            Box::new(move |node, t: &T| client_loop(platform, qs, topology, cfg, node, t));
        nodes.push((node, client));
    }
    nodes.push((
        NodeId::Server,
        Box::new(move |_, t: &T| {
            server_loop(&mut server, topology, cfg, client_count, t).map(|()| Vec::new())
        }),
    ));

    let mut records = Vec::with_capacity(offered);
    for (_, result) in run_per_node(transport, nodes) {
        let mut of_node = result?;
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

fn client_loop<T: Transport>(
    mut platform: Platform,
    queries: Vec<Tensor>,
    topology: &StarTopology,
    cfg: &ServeConfig,
    node: NodeId,
    transport: &T,
) -> Result<Vec<ClientRecord>> {
    let pid = platform.id();
    let downlink = topology.link(NodeId::Server, node);
    let stats = transport.stats();
    let expected = queries.len();

    for (seq, query) in queries.into_iter().enumerate() {
        // Open-loop arrivals: request `seq` is submitted at a fixed rate
        // regardless of how earlier requests fared.
        let submit_s = seq as f64 / cfg.offered_rps;
        sync_clock(stats, node, submit_s);
        let acts = platform.infer_l1(&query)?;
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
    // Tell the server this client is done submitting.
    transport
        .send(Envelope::control(node, NodeId::Server, expected as u64))
        .map_err(SplitError::from)?;

    let mut records = Vec::with_capacity(expected);
    for _ in 0..expected {
        let env = transport
            .recv_timeout(node, recv_timeout_default())
            .map_err(SplitError::from)?;
        records.push(ClientRecord::from_response(pid, &env, downlink)?);
    }
    Ok(records)
}

fn server_loop<T: Transport>(
    server: &mut SplitServer,
    topology: &StarTopology,
    cfg: &ServeConfig,
    client_count: usize,
    transport: &T,
) -> Result<()> {
    // Phase 1 — collect. Wall-clock receive order mixes the clients'
    // streams arbitrarily (each client thread enqueues its whole stream
    // as fast as it can), so simulated arrival times arrive out of order
    // across clients. The busy clock below must only ever move forward,
    // which makes processing order part of the result — so we gather
    // everything first and replay it as a discrete-event simulation.
    let mut arrivals: Vec<Pending> = Vec::new();
    let mut done = 0usize;
    while done < client_count {
        let env = transport
            .recv_timeout(NodeId::Server, recv_timeout_default())
            .map_err(SplitError::from)?;
        match env.kind {
            MessageKind::Control => done += 1,
            MessageKind::InferRequest => {
                let req = decode_request(&env)?;
                let platform = env
                    .src
                    .platform_index()
                    .ok_or_else(|| SplitError::Protocol("infer_request from server".into()))?;
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
    // Deterministic event order: by arrival, ties broken by request id.
    arrivals.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.req.id.cmp(&b.req.id)));

    // Phase 2 — replay against the single executor.
    let mut executor: Executor<Pending> = Executor::new(cfg);
    for arrival in arrivals {
        let (t, deadline_s) = (arrival.arrival_s, arrival.req.deadline_s);
        while let Some(due) = executor.due_by(t) {
            serve_due(server, due, cfg, transport)?;
        }
        match executor.arrive(arrival, t, deadline_s) {
            Arrived::Queued => {}
            Arrived::Full(due) => serve_due(server, due, cfg, transport)?,
            Arrived::Rejected(pending) => {
                medsplit_telemetry::counter_add("serve.rejections", 1);
                // Backpressure is explicit: the client gets an answer
                // rather than a silent drop.
                let now = executor.clock();
                sync_clock(transport.stats(), NodeId::Server, now);
                respond(transport, &pending, now, InferStatus::Rejected, None, cfg)?;
            }
        }
    }
    // Phase 3 — drain what is still queued.
    while let Some(due) = executor.drain_next() {
        serve_due(server, due, cfg, transport)?;
    }
    Ok(())
}

/// Serves one batch. Every entry gets exactly one response stamped with
/// the batch's completion time: logits, or a timeout if its deadline
/// expired before the batch finished.
fn serve_due<T: Transport>(
    server: &mut SplitServer,
    due: Due<Pending>,
    cfg: &ServeConfig,
    transport: &T,
) -> Result<()> {
    sync_clock(transport.stats(), NodeId::Server, due.done_s);
    forward_batch(
        due.entries,
        due.done_s,
        "serve.batch_size",
        |_| (),
        |p| &p.req.activations,
        |(), batch| server.infer(batch),
        |p, logits| {
            let status = if logits.is_some() {
                InferStatus::Ok
            } else {
                InferStatus::TimedOut
            };
            respond(transport, p, due.done_s, status, logits.as_ref(), cfg)
        },
    )
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
