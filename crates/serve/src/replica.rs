//! One server replica — a single server is one too: the serving
//! [`Executor`] (batcher and busy clock) plus a lifecycle phase, a shard
//! of sessions, and per-version models, instantiated from the bank on
//! first use or handed over by a single server's caller.

use std::collections::hash_map::{Entry, HashMap};

use medsplit_core::{Result, SplitError, SplitServer};
use medsplit_tensor::Tensor;

use crate::bank::ModelBank;
use crate::batcher::{Admission, BatchEntry};
use crate::executor::{busy_until, infer_batch, Answers, Executor};
use crate::ring::HashRing;
use crate::runtime::ServeConfig;
use crate::session::{SessionKey, SessionState};
use crate::wire::RoutedRequest;

/// Replica lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaPhase {
    /// Accepting and serving traffic.
    Active,
    /// Graceful drain: no new admissions; in-flight work flushed and
    /// sessions handed to ring successors.
    Draining,
    /// Crashed: queued work and local session state are lost.
    Down,
}

/// A request queued at a replica: the routed frame plus the platform it
/// answers to.
#[derive(Debug, Clone)]
pub struct FleetPending {
    /// Platform (tenant) that submitted the request.
    pub platform: usize,
    /// The routed request (id, timing, routing key, activations).
    pub req: RoutedRequest,
}

/// The outcome of one served entry, with everything the driver needs to
/// answer the client and settle the router's books.
#[derive(Debug, Clone)]
pub struct Served {
    /// Request id.
    pub id: u64,
    /// Platform to answer.
    pub platform: usize,
    /// Echoed submission time.
    pub submit_s: f64,
    /// Whether the entry produced logits (false = deadline timeout).
    pub ok: bool,
    /// Logits, present iff `ok`.
    pub logits: Option<Tensor>,
}

/// One server replica of the fleet.
pub struct Replica {
    id: usize,
    /// `replica-{id}`, the label of this replica's counters.
    label: String,
    phase: ReplicaPhase,
    /// Batcher and busy clock; the serving loop asks it the three replay
    /// questions directly.
    pub(crate) executor: Executor<FleetPending>,
    /// Per-version model instances, pulled from the bank on first use
    /// (or, for a single server, handed over by the loop's caller).
    pub(crate) servers: HashMap<u32, SplitServer>,
    /// Session state for the shard this replica currently owns.
    sessions: HashMap<SessionKey, SessionState>,
    /// Total requests served with logits.
    pub served: u64,
}

impl Replica {
    /// A fresh, active replica with the given batching parameters.
    pub fn new(id: usize, serve: &ServeConfig) -> Self {
        Replica {
            id,
            label: format!("replica-{id}"),
            phase: ReplicaPhase::Active,
            executor: Executor::new(serve),
            servers: HashMap::new(),
            sessions: HashMap::new(),
            served: 0,
        }
    }

    /// Replica index (its [`NodeId::Replica`](medsplit_simnet::NodeId)
    /// slot).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> ReplicaPhase {
        self.phase
    }

    /// Sets the lifecycle phase.
    pub fn set_phase(&mut self, phase: ReplicaPhase) {
        self.phase = phase;
    }

    /// Number of requests pending in the batcher.
    pub fn queued(&self) -> usize {
        self.executor.batcher().len()
    }

    /// Offers a request to the batcher alone (no clock; the caller has
    /// already checked the phase).
    pub fn offer(&mut self, pending: FleetPending, now_s: f64, deadline_s: f64) -> Admission {
        self.executor.batcher_mut().offer(pending, now_s, deadline_s)
    }

    /// Earliest age-rule flush time, `None` when the queue is empty.
    pub fn ready_at(&self) -> Option<f64> {
        self.executor.batcher().ready_at()
    }

    /// Whether the size rule would flush right now.
    pub fn size_due(&self) -> bool {
        self.executor.batcher().len() >= self.executor.batcher().max_batch()
    }

    /// Takes up to `max_batch` oldest entries from the batcher alone.
    pub fn take_batch(&mut self) -> Vec<BatchEntry<FleetPending>> {
        self.executor.batcher_mut().take_batch()
    }

    /// Crash semantics: queued work and local session state die with the
    /// process.
    pub fn crash(&mut self) {
        self.phase = ReplicaPhase::Down;
        self.executor.batcher_mut().drain_all();
        self.sessions.clear();
    }

    /// Books a batch that is done at `done_s` before any logit exists:
    /// each live entry's pinned version gets a model instance (from
    /// `bank`, on first use) and its session one more served request.
    /// Entries whose deadline precedes `done_s` are never inferred.
    ///
    /// # Errors
    ///
    /// Propagates model and bank errors; a version the replica holds no
    /// model for and no bank can supply is a config error.
    pub(crate) fn book(
        &mut self,
        entries: &[BatchEntry<FleetPending>],
        done_s: f64,
        bank: Option<&ModelBank>,
    ) -> Result<()> {
        let mut ok = 0;
        for p in entries.iter().filter(|e| e.live_at(done_s)).map(|e| &e.item) {
            let version = p.req.version;
            if let Entry::Vacant(slot) = self.servers.entry(version) {
                let bank =
                    bank.ok_or_else(|| SplitError::Config(format!("no model for weight version {version}")))?;
                // The cached instance (rather than one rebuilt per
                // request) keeps its layers' prepacked plan panels warm:
                // after the first request against a version, serving
                // never repacks.
                let mut server = bank.instantiate(version)?;
                server.update_plans()?;
                slot.insert(server);
            }
            let key = SessionKey {
                tenant: p.req.tenant,
                session: p.req.session,
            };
            let state = self
                .sessions
                .entry(key)
                .or_insert_with(|| SessionState::new(key, version));
            state.served += 1;
            state.last_served_s = done_s;
            ok += 1;
        }
        self.served += ok;
        medsplit_telemetry::counter_add_labeled("fleet.served", &self.label, ok);
        Ok(())
    }

    /// Computes a booked batch through the entries' pinned weight
    /// versions ([`infer_batch`]): continuous batching across tenants
    /// within a version, one forward pass per version. Reads the models
    /// through `&self`, so several batches may run at once.
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub(crate) fn infer(&self, entries: &[BatchEntry<FleetPending>], done_s: f64) -> Result<Answers> {
        infer_batch(
            entries,
            done_s,
            |p| p.req.version,
            |p| &p.req.activations,
            |version, rows| {
                self.servers
                    .get(&version)
                    .ok_or_else(|| SplitError::Config(format!("unbooked weight version {version}")))?
                    .infer_shared(rows)
            },
        )
    }

    /// Runs a batch that starts at `flush_t` — booked, then inferred, as
    /// the serving loop does — and returns `(serve_done, outcomes)` in
    /// response order: expired entries first, with `ok = false`, then the
    /// live ones grouped by version. The batch costs the executor's
    /// constant busy time, so `_serve` is not read; the parameter stays
    /// because `benchmark/src/traced.rs` calls this signature.
    ///
    /// # Errors
    ///
    /// Propagates model/bank errors.
    pub fn serve(
        &mut self,
        bank: &ModelBank,
        entries: Vec<BatchEntry<FleetPending>>,
        flush_t: f64,
        _serve: &ServeConfig,
    ) -> Result<(f64, Vec<Served>)> {
        if entries.is_empty() {
            return Ok((flush_t, Vec::new()));
        }
        let serve_done = busy_until(flush_t, entries.len());
        self.book(&entries, serve_done, Some(bank))?;
        let outcomes = self
            .infer(&entries, serve_done)?
            .into_iter()
            .map(|(i, logits)| {
                let p = &entries[i].item;
                Served {
                    id: p.req.id,
                    platform: p.platform,
                    submit_s: p.req.submit_s,
                    ok: logits.is_some(),
                    logits,
                }
            })
            .collect();
        Ok((serve_done, outcomes))
    }

    /// Exports and removes every session, for a full drain handoff.
    pub fn export_all_sessions(&mut self) -> Vec<SessionState> {
        let mut out: Vec<SessionState> = self.sessions.drain().map(|(_, s)| s).collect();
        out.sort_by_key(|s| s.key);
        out
    }

    /// Exports and removes the sessions whose ring *home* is `home` — the
    /// set a successor hands back when that replica rejoins.
    pub fn export_sessions_homed_to(&mut self, ring: &HashRing, home: usize) -> Vec<SessionState> {
        let keys: Vec<SessionKey> = self
            .sessions
            .keys()
            .filter(|k| ring.home(k.tenant, k.session) == Some(home))
            .copied()
            .collect();
        let mut out: Vec<SessionState> = keys
            .into_iter()
            .filter_map(|k| self.sessions.remove(&k))
            .collect();
        out.sort_by_key(|s| s.key);
        out
    }

    /// Imports handed-off sessions. An existing entry for the same key is
    /// merged by summing served counts (the successor may have served the
    /// session while its home was away).
    pub fn import_sessions(&mut self, incoming: Vec<SessionState>) {
        for s in incoming {
            self.sessions
                .entry(s.key)
                .and_modify(|cur| {
                    cur.served += s.served;
                    cur.last_served_s = cur.last_served_s.max(s.last_served_s);
                })
                .or_insert(s);
        }
    }

    /// Read access to the session table (tests, invariant checks).
    pub fn sessions(&self) -> &HashMap<SessionKey, SessionState> {
        &self.sessions
    }
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.id)
            .field("phase", &self.phase)
            .field("queued", &self.queued())
            .field("sessions", &self.sessions.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::{ModelBank, ModelFactory};
    use medsplit_nn::{Dense, Sequential};
    use medsplit_tensor::init::rng_from_seed;

    fn factory() -> ModelFactory {
        Box::new(|| {
            let mut rng = rng_from_seed(3);
            let mut s = Sequential::new("server");
            s.push(Dense::new(4, 2, &mut rng));
            s
        })
    }

    fn pending(id: u64, tenant: u64, session: u64, version: u32) -> FleetPending {
        FleetPending {
            platform: tenant as usize,
            req: RoutedRequest {
                id,
                submit_s: 0.0,
                deadline_s: f64::INFINITY,
                tenant,
                session,
                version,
                activations: Tensor::full([1, 4], 0.25),
            },
        }
    }

    #[test]
    fn serves_mixed_versions_in_one_batch() {
        let bank = ModelBank::new(factory(), 2).unwrap();
        let cfg = ServeConfig::default();
        let mut r = Replica::new(0, &cfg);
        r.offer(pending(0, 0, 0, 0), 0.0, f64::INFINITY);
        r.offer(pending(1, 1, 0, 1), 0.0, f64::INFINITY);
        r.offer(pending(2, 0, 1, 0), 0.0, f64::INFINITY);
        let entries = r.take_batch();
        let (done, outcomes) = r.serve(&bank, entries, 1.0, &cfg).unwrap();
        assert!(done > 1.0);
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes.iter().all(|o| o.ok));
        // Same activations, different versions ⇒ different logits.
        let by_id = |id: u64| {
            outcomes
                .iter()
                .find(|o| o.id == id)
                .unwrap()
                .logits
                .clone()
                .unwrap()
        };
        assert_eq!(by_id(0).as_slice(), by_id(2).as_slice());
        assert_ne!(by_id(0).as_slice(), by_id(1).as_slice());
        assert_eq!(r.served, 3);
        assert_eq!(r.sessions().len(), 3);
    }

    #[test]
    fn expired_entries_are_not_inferred() {
        let bank = ModelBank::new(factory(), 1).unwrap();
        let cfg = ServeConfig::default();
        let mut r = Replica::new(1, &cfg);
        r.offer(pending(5, 0, 0, 0), 0.0, 0.5); // deadline before serve_done
        let entries = r.take_batch();
        let (_, outcomes) = r.serve(&bank, entries, 1.0, &cfg).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert!(!outcomes[0].ok);
        assert_eq!(r.served, 0);
        assert!(r.sessions().is_empty());
    }

    #[test]
    fn handoff_merges_served_counts() {
        let ring = HashRing::new(2, 8);
        let cfg = ServeConfig::default();
        let mut a = Replica::new(0, &cfg);
        let key = SessionKey {
            tenant: 1,
            session: 1,
        };
        let mut s = SessionState::new(key, 0);
        s.served = 4;
        a.import_sessions(vec![s]);
        let mut again = SessionState::new(key, 0);
        again.served = 2;
        again.last_served_s = 9.0;
        a.import_sessions(vec![again]);
        assert_eq!(a.sessions()[&key].served, 6);
        assert_eq!(a.sessions()[&key].last_served_s, 9.0);
        // Export-by-home moves only the keys homed to the target.
        let home = ring.home(key.tenant, key.session).unwrap();
        let other = 1 - home;
        assert!(a.export_sessions_homed_to(&ring, other).is_empty());
        let moved = a.export_sessions_homed_to(&ring, home);
        assert_eq!(moved.len(), 1);
        assert!(a.sessions().is_empty());
    }
}
