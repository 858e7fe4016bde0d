//! One server replica — a single server is one too: the serving
//! [`Executor`] (batcher and busy clock) plus a lifecycle phase, a shard
//! of sessions, and per-version models, instantiated from the bank on
//! first use or handed over by a single server's caller.
//!
//! A batch is booked (`Replica::book`) before any logit exists, and
//! computed later with others as a run (`infer_run`): one forward pass
//! per (replica, version) over the live rows of every batch in the run.
//! [`Replica::serve`] books and computes one batch, as a run of one.

use std::collections::hash_map::{Entry, HashMap};

use medsplit_core::{Result, SplitError, SplitServer};
use medsplit_tensor::Tensor;

use crate::bank::ModelBank;
use crate::batcher::{Admission, BatchEntry};
use crate::executor::{busy_until, infer_batches, Answers, Due, Executor};
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

    /// Runs a batch that starts at `flush_t` — booked, then inferred as a
    /// run of one (`infer_run`), as the serving loop does — and returns
    /// `(serve_done, outcomes)` in response order: expired entries first,
    /// with `ok = false`, then the live ones grouped by version. The batch
    /// costs the executor's constant busy time, so `_serve` is not read;
    /// the parameter stays because `benchmark/src/traced.rs` calls this
    /// signature.
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
        let done_s = busy_until(flush_t, entries.len());
        self.book(&entries, done_s, Some(bank))?;
        let run = [(
            0,
            Due {
                entries,
                flush_t,
                done_s,
            },
        )];
        let mut answers = Vec::with_capacity(1);
        infer_run(std::slice::from_ref(self), &run, &mut answers)?;
        let entries = &run[0].1.entries;
        let outcomes = answers
            .into_iter()
            .flatten()
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
        Ok((done_s, outcomes))
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

/// Computes a run of booked batches, each `(index into replicas, due)`,
/// through the entries' pinned weight versions ([`infer_batches`]),
/// pushing one [`Answers`] per batch onto `out`: continuous batching
/// across tenants and across the run's batches, one forward pass per
/// (replica, version). Reads the models through `&Replica`, so several
/// runs may go at once.
///
/// # Errors
///
/// Propagates model errors; a version a batch's replica did not book is
/// a config error.
pub(crate) fn infer_run(
    replicas: &[Replica],
    run: &[(usize, Due<FleetPending>)],
    out: &mut Vec<Answers>,
) -> Result<()> {
    infer_batches(
        run,
        out,
        |p| p.req.version,
        |p| &p.req.activations,
        |r, version, rows| {
            replicas[r]
                .servers
                .get(&version)
                .ok_or_else(|| SplitError::Config(format!("unbooked weight version {version}")))?
                .infer_shared(rows)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::{ModelBank, ModelFactory};
    use medsplit_nn::{Activation, Dense, Sequential};
    use medsplit_tensor::init::rng_from_seed;
    use medsplit_tensor::pool;
    use std::sync::Mutex;

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

    /// Serialises the tests that change the process-global pool size.
    static POOL_LOCK: Mutex<()> = Mutex::new(());

    /// A run of booked batches on two replicas of a 12→24→3 model at two
    /// weight versions: batches that mix versions, one with an expired
    /// entry, one that is all expired, one of a single row, and enough
    /// rows of one version on replica 0 (9 batches, 40 rows) for a pass
    /// far past any batch of the serving configuration.
    fn booked_run(bank: &ModelBank) -> (Vec<Replica>, Vec<(usize, Due<FleetPending>)>) {
        let cfg = ServeConfig::default();
        let mut replicas = vec![Replica::new(0, &cfg), Replica::new(1, &cfg)];
        let mut rng = rng_from_seed(17);
        // (replica, [(version, deadline)]) per batch; every batch is done
        // at 1.0, so a deadline of 0.5 expires its entry.
        let shapes: [(usize, &[(u32, f64)]); 9] = [
            (0, &[(0, 9.0), (1, 9.0), (0, 0.5), (0, 9.0), (1, 9.0)]),
            (1, &[(1, 9.0), (0, 9.0), (1, 9.0)]),
            (0, &[(0, 0.5), (1, 0.5)]),
            (0, &[(0, 9.0)]),
            (1, &[(0, 9.0), (0, 0.5), (1, 9.0), (0, 9.0)]),
            (0, &[(0, 9.0); 8]),
            (0, &[(0, 9.0); 8]),
            (
                0,
                &[
                    (1, 9.0),
                    (0, 9.0),
                    (0, 9.0),
                    (1, 9.0),
                    (0, 9.0),
                    (0, 9.0),
                    (0, 9.0),
                    (0, 9.0),
                ],
            ),
            (0, &[(0, 9.0); 8]),
        ];
        let mut id = 0;
        let run = shapes
            .iter()
            .map(|&(r, entries)| {
                let entries: Vec<BatchEntry<FleetPending>> = entries
                    .iter()
                    .map(|&(version, deadline_s)| {
                        id += 1;
                        let mut p = pending(id, id % 3, id % 2, version);
                        p.req.activations = Tensor::rand_uniform([1, 12], -1.0, 1.0, &mut rng);
                        BatchEntry {
                            item: p,
                            enqueued_s: 0.0,
                            deadline_s,
                        }
                    })
                    .collect();
                replicas[r].book(&entries, 1.0, Some(bank)).unwrap();
                (
                    r,
                    Due {
                        entries,
                        flush_t: 0.9,
                        done_s: 1.0,
                    },
                )
            })
            .collect();
        (replicas, run)
    }

    /// Every batch of a run answers exactly as the same batch computed as
    /// a run of its own: same order, same expiries, same logits bits.
    #[test]
    fn a_run_answers_each_batch_as_a_run_of_one() {
        let _guard = POOL_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let bank = ModelBank::new(
            Box::new(|| {
                let mut rng = rng_from_seed(5);
                let mut s = Sequential::new("server");
                s.push(Dense::new(12, 24, &mut rng));
                s.push(Activation::relu());
                s.push(Dense::new(24, 3, &mut rng));
                s
            }),
            2,
        )
        .unwrap();
        let bits = |answers: &Answers| -> Vec<(usize, Option<Vec<u32>>)> {
            answers
                .iter()
                .map(|(i, l)| {
                    (
                        *i,
                        l.as_ref()
                            .map(|t| t.as_slice().iter().map(|v| v.to_bits()).collect()),
                    )
                })
                .collect()
        };
        let prior = pool::num_threads();
        for threads in [1, 2] {
            pool::set_num_threads(threads);
            let (replicas, run) = booked_run(&bank);
            let mut together = Vec::new();
            infer_run(&replicas, &run, &mut together).unwrap();
            assert_eq!(together.len(), run.len());
            for (b, (answers, batch)) in together.iter().zip(&run).enumerate() {
                let (_, alone) = booked_run(&bank);
                let mut one = Vec::new();
                infer_run(&replicas, &alone[b..=b], &mut one).unwrap();
                assert_eq!(bits(answers), bits(&one[0]), "batch {b} at {threads} threads");
                assert_eq!(answers.len(), batch.1.entries.len());
            }
            let expired = together.iter().flatten().filter(|(_, l)| l.is_none()).count();
            assert_eq!(expired, 4, "the run holds four expired entries");
        }
        pool::set_num_threads(prior);
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
