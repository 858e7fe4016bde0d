//! The single-server serving session over the simulated network.
//!
//! Platforms and the server communicate exclusively through a shared
//! [`Transport`]. Clients submit requests open-loop at a configured
//! rate; the server batches them, runs `L2..Lk` forward-only, and answers
//! every request explicitly — logits, a rejection, or a timeout. A
//! request its uplink loses is a client-side `Throttled` record, and a
//! response that never arrives is an immediate protocol error, not a
//! wait.
//!
//! The server is a fleet of one: [`serve_threaded`] runs the one serving
//! loop ([`crate::sim`]) with one replica on the server's own node,
//! behind a router that costs nothing, so this module holds only what
//! the single server's callers see — its configuration, the client-side
//! record and latency rule, and the outcome.

use medsplit_core::{Platform, Result, SplitError, SplitServer, WireCodec};
use medsplit_simnet::{Envelope, LinkSpec, StarTopology, StatsSnapshot, Transport};
use medsplit_tensor::Tensor;

use crate::config::FleetConfig;
use crate::metrics::ServeReport;
use crate::sim::{self, Models};
use crate::wire::{decode_response, InferStatus};

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
            codec: WireCodec::F32,
        }
    }
}

impl ServeConfig {
    /// Checks the knobs a driver cannot run with: a zero batch or queue,
    /// a rate or timer that is negative or NaN, an infinite rate.
    ///
    /// # Errors
    ///
    /// Returns [`SplitError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
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

/// Runs a full serving session: every platform submits its queries
/// open-loop at `cfg.offered_rps`, the server batches and answers, and
/// the outcome aggregates every request's fate.
///
/// `queries[p]` are platform `p`'s inputs in submission order (each a
/// feature batch for [`Platform::infer_l1`]); platform `p` sends from
/// `NodeId::Platform(p)`, so `platforms.len()` must equal
/// `queries.len()` and match the transport's topology.
///
/// The session is driven from the caller's thread; the `L1` and `L2..Lk`
/// inferences run side by side on the kernel pool, while sends, noise
/// draws and clocks keep the order of a one-at-a-time run. The name is
/// kept because the benchmark imports it.
///
/// # Errors
///
/// Returns config errors for invalid parameters and protocol errors for
/// malformed traffic or a platform whose answer count differs from its
/// request count.
pub fn serve_threaded<T: Transport>(
    platforms: Vec<Platform>,
    server: SplitServer,
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
    // One replica, one session per platform, one weight version, and no
    // quota to run into.
    let fleet = FleetConfig {
        replicas: 1,
        vnodes: 1,
        tenants: platforms.len(),
        sessions_per_tenant: 1,
        tenant_quota: usize::MAX,
        weight_versions: 1,
        serve: cfg.clone(),
        ..FleetConfig::default()
    };
    let queries = queries.into_iter().map(Vec::into_iter).collect();
    let out = sim::serve(
        &fleet,
        platforms,
        queries,
        Models::One(server),
        &[],
        topology,
        transport,
    )?;
    Ok(ServeOutcome {
        report: out.report,
        records: out.records,
        stats: out.stats,
    })
}
