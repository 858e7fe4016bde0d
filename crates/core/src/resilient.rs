//! The round engine: the paper's four-message exchange with quorum
//! rounds, retry with exponential backoff, checksum-verified delivery,
//! crash–rejoin recovery from checkpoints and the `L1` sync.
//!
//! Every trainer constructs this one engine. [`crate::SplitTrainer`] and
//! [`crate::UShapeTrainer`] run it over any [`Transport`],
//! [`ResilientTrainer`] over a [`ChaosTransport`], and
//! [`crate::HierResilientTrainer`] with a relay tier between platforms
//! and server (routing, failover and batching live in [`crate::hier`]).
//! The engine reads faults through the transport's fault view
//! ([`Transport::begin_round`], [`Transport::is_down`],
//! [`Transport::link_down`], [`Transport::flush`],
//! [`Transport::backoff_jitter`]), whose defaults describe an empty
//! plan: over a plain transport nothing is down, every collection
//! completes on its first attempt, and neither pristine snapshots nor
//! checkpoints are taken, because nothing could restore them. A
//! fault-free run is an empty fault plan, not another code path.
//!
//! The recovery invariant is round-granular: **a platform participates
//! in a whole round or in none of it.** Activations are collected with
//! bounded retries and a per-platform deadline; whoever makes it into
//! the aggregate is then carried through the remaining three protocol
//! messages, and the `L1` sync when it is due, with reliable (retried)
//! delivery, so the server's batch layout can never be torn mid-round.
//! Platforms that miss the cut — or are crashed by a scheduled
//! [`ChaosEvent`] — simply sit the round out and rejoin at the next
//! boundary from their last checkpoint.
//!
//! Everything is deterministic: the driver does all sends, receives,
//! retries, checksum checks, checkpoints and counting on its own thread,
//! iterating platforms and relays in id order, and all fault randomness
//! comes from the chaos transport's seeded RNG — two runs with equal
//! configs and equal fault plans produce bit-identical weights and
//! histories. Only the platforms' own steps (`start_round`,
//! `handle_logits`, `handle_cut_grads`) run side by side on the kernel
//! pool ([`crate::round::platform_phase`]), between a phase's receives
//! and its sends; each touches nothing but its platform, so the pool
//! size changes no result.

use std::collections::BTreeMap;

use bytes::Bytes;
use medsplit_data::InMemoryDataset;
use medsplit_nn::Architecture;
use medsplit_simnet::{ChaosEvent, ChaosTransport, Envelope, MessageKind, NetStats, NodeId, Transport};
use medsplit_tensor::Tensor;

use crate::config::{L1Sync, SplitConfig};
use crate::error::{Result, SplitError};
use crate::hier::{HierReport, RelayTier, Route};
use crate::history::TrainingHistory;
use crate::messages::{decode_tensor, tensor_envelope};
use crate::platform::Platform;
use crate::round::{platform_phase, Actors, RoundDriver};
use crate::trainer::fresh_actors;

/// Hard cap on delivery attempts for the within-round reliable path
/// (committed survivor ↔ relay ↔ server). Link state is round-granular,
/// so a committed survivor's leg can only fail to random loss; at 10 %
/// loss the odds of exhausting this are ~1e-64, and hitting the cap is
/// reported as a protocol error rather than a torn round.
const MAX_DELIVERY_ATTEMPTS: u32 = 64;

/// Counters describing how much fault handling a run actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Activation re-sends triggered by loss or corruption.
    pub retries: u64,
    /// Envelopes discarded because their payload checksum failed.
    pub checksum_rejections: u64,
    /// Valid-checksum envelopes discarded as duplicates, stale rounds,
    /// or unexpected kinds.
    pub stray_messages: u64,
    /// Platform-rounds skipped (live platform missed the deadline or
    /// ran out of retries). Crashed platforms are not counted here.
    pub skipped_platform_rounds: u64,
    /// Rounds that ran with fewer than the full platform count.
    pub degraded_rounds: u64,
    /// Rounds where the surviving set fell below quorum and the update
    /// was dropped entirely.
    pub quorum_failures: u64,
    /// Scheduled crash events applied.
    pub crashes: u64,
    /// Scheduled recover events applied (checkpoint restores).
    pub rejoins: u64,
}

/// The one round engine, over a star (`tier` = `None`) or a relay
/// hierarchy, under the configured [`RoundPolicy`](crate::RoundPolicy).
pub(crate) struct Engine<'t, T: Transport> {
    pub(crate) actors: Actors,
    pub(crate) transport: &'t T,
    /// The relay tier between platforms and server; `None` over a star.
    pub(crate) tier: Option<RelayTier>,
    /// Prefix of every telemetry counter this engine emits.
    prefix: &'static str,
    /// Whether the plan can crash a platform, so that snapshots and
    /// checkpoints are worth taking.
    restorable: bool,
    /// Pristine per-platform snapshots: what a crashed node is reset to
    /// before its checkpoint is restored (RAM is gone, disk survives).
    initial_snapshots: Vec<Bytes>,
    /// Last committed checkpoint per platform id.
    checkpoints: BTreeMap<usize, Bytes>,
    /// The star counters are `report.base`; the rest stays zero without
    /// a relay tier.
    pub(crate) report: HierReport,
}

impl<'t, T: Transport> Engine<'t, T> {
    /// The engine over `actors`, built by a trainer's constructor.
    ///
    /// # Errors
    ///
    /// Returns [`SplitError::Config`] if the quorum exceeds the platform
    /// count.
    pub(crate) fn new(mut actors: Actors, transport: &'t T, tier: Option<RelayTier>) -> Result<Self> {
        if actors.config.round_policy.min_platforms > actors.platforms.len() {
            return Err(SplitError::Config(format!(
                "quorum of {} exceeds the {} configured platforms",
                actors.config.round_policy.min_platforms,
                actors.platforms.len()
            )));
        }
        let restorable = transport.schedules_platform_crashes();
        let initial_snapshots = if restorable {
            actors.platforms.iter_mut().map(Platform::checkpoint).collect()
        } else {
            Vec::new()
        };
        let report = HierReport {
            region_bytes: vec![0; tier.as_ref().map_or(0, |t| t.topo.regions())],
            ..HierReport::default()
        };
        Ok(Engine {
            actors,
            transport,
            prefix: if tier.is_some() { "hier" } else { "resilient" },
            tier,
            restorable,
            initial_snapshots,
            checkpoints: BTreeMap::new(),
            report,
        })
    }

    /// Mean test accuracy over the currently *live* platforms' deployed
    /// models (crashed hospitals cannot serve).
    pub(crate) fn evaluate(&mut self) -> Result<f32> {
        let transport = self.transport;
        self.actors.evaluate(|node| !transport.is_down(node))
    }

    /// Runs the configured number of rounds and returns the history.
    pub(crate) fn run(&mut self) -> Result<TrainingHistory> {
        let config = self.actors.config.clone();
        RoundDriver::run(self, &config)
    }

    /// Adds `n` to the telemetry counter `<prefix>.<name>`.
    pub(crate) fn count(&self, name: &str, n: u64) {
        if n > 0 && medsplit_telemetry::enabled() {
            medsplit_telemetry::counter_add(&format!("{}.{name}", self.prefix), n);
        }
    }

    /// Sends one envelope, attributing its wire bytes to `region` where
    /// there are regions.
    fn send_counted(&mut self, env: Envelope, region: usize) -> Result<()> {
        if let Some(bytes) = self.report.region_bytes.get_mut(region) {
            *bytes += env.wire_size() as u64;
        }
        self.transport.send(env)?;
        Ok(())
    }

    /// Applies this round's scheduled chaos events: a platform crash
    /// wipes the actor back to its pristine state (RAM is lost), a
    /// recovery restores its last committed checkpoint (disk survives).
    /// Relays are stateless, so their events only flip routing viability
    /// and are counted.
    fn apply_events(&mut self, events: &[ChaosEvent]) -> Result<()> {
        for event in events {
            match *event {
                ChaosEvent::Crash {
                    node: NodeId::Platform(pid),
                    ..
                } => {
                    self.report.base.crashes += 1;
                    self.count("crashes", 1);
                    if let (Some(p), Some(blob)) = (
                        self.actors.platforms.get_mut(pid),
                        self.initial_snapshots.get(pid),
                    ) {
                        p.restore(blob)?;
                    }
                }
                ChaosEvent::Recover {
                    node: NodeId::Platform(pid),
                    ..
                } => {
                    self.report.base.rejoins += 1;
                    self.count("rejoins", 1);
                    if let (Some(p), Some(blob)) =
                        (self.actors.platforms.get_mut(pid), self.checkpoints.get(&pid))
                    {
                        p.restore(blob)?;
                    }
                }
                ChaosEvent::Crash {
                    node: NodeId::Relay(_),
                    ..
                } => {
                    self.report.relay_crashes += 1;
                    self.count("relay_crashes", 1);
                }
                ChaosEvent::Recover {
                    node: NodeId::Relay(_),
                    ..
                } => {
                    self.report.relay_rejoins += 1;
                    self.count("relay_rejoins", 1);
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Whether `env` arrived intact; a corrupted one is counted.
    fn checksum_ok(&mut self, env: &Envelope) -> bool {
        let ok = env.verify_checksum();
        if !ok {
            self.report.base.checksum_rejections += 1;
            self.count("checksum_rejections", 1);
        }
        ok
    }

    /// Drains every collection sink (each relay, then the server),
    /// keeping the first checksum-valid envelope of `kind` per platform
    /// that arrived where its route says it should.
    fn drain(
        &mut self,
        round: u64,
        kind: MessageKind,
        routes: &BTreeMap<usize, Route>,
        received: &mut BTreeMap<usize, Envelope>,
    ) {
        let relays = self.tier.as_ref().map_or(0, |t| t.topo.regions());
        for sink in (0..relays).map(NodeId::Relay).chain([NodeId::Server]) {
            while let Some(env) = self.transport.try_recv(sink) {
                if !self.checksum_ok(&env) {
                    continue;
                }
                let expected = env
                    .src
                    .platform_index()
                    .filter(|pid| routes.get(pid).map(|r| r.sink()) == Some(sink));
                match expected {
                    Some(pid) if env.kind == kind && env.round == round && !received.contains_key(&pid) => {
                        received.insert(pid, env);
                    }
                    _ => self.report.base.stray_messages += 1,
                }
            }
        }
    }

    /// Collects activations from the routed platforms: send, retry with
    /// backoff + jitter, and give up on stragglers past the deadline or
    /// out of retries. Returns the surviving `(pid → envelope)` map.
    fn collect_activations(
        &mut self,
        round: u64,
        routes: &BTreeMap<usize, Route>,
    ) -> Result<BTreeMap<usize, Envelope>> {
        let policy = self.actors.config.round_policy;
        let stats = self.transport.stats();
        let start_clocks: BTreeMap<usize, f64> = routes
            .keys()
            .map(|&pid| (pid, stats.clock(NodeId::Platform(pid))))
            .collect();
        // Cache every outbound envelope so a loss can be retried without
        // resampling the minibatch (the platform's round state must not
        // advance twice).
        let mut pending: BTreeMap<usize, Envelope> = BTreeMap::new();
        let work = routes.keys().map(|&pid| (pid, ())).collect();
        let outbound = platform_phase(&mut self.actors.platforms, work, |p, ()| p.start_round(round))?;
        for ((&pid, &route), mut env) in routes.iter().zip(outbound) {
            env.dst = route.sink();
            pending.insert(pid, env.clone());
            self.send_counted(env, self.home_region(pid))?;
        }
        self.transport.flush();

        let mut received: BTreeMap<usize, Envelope> = BTreeMap::new();
        let mut expired: Vec<usize> = Vec::new();
        for attempt in 0..=policy.max_retries {
            self.drain(round, MessageKind::Activations, routes, &mut received);
            pending.retain(|pid, _| !received.contains_key(pid));
            // Deadline check on the simulated clock: a platform that has
            // fallen too far behind its own round start is skipped —
            // even if its late message eventually arrived, the round
            // cannot have waited for it.
            for &pid in routes.keys() {
                if !expired.contains(&pid)
                    && stats.clock(NodeId::Platform(pid)) > start_clocks[&pid] + policy.deadline_s
                {
                    expired.push(pid);
                }
            }
            for pid in &expired {
                pending.remove(pid);
                received.remove(pid);
            }
            if pending.is_empty() || attempt == policy.max_retries {
                break;
            }
            // Retry the missing platforms after backing off: the wait and
            // the re-send both advance the sender's simulated clock.
            for (&pid, env) in &pending {
                let delay = policy.backoff.delay_s(attempt) * self.transport.backoff_jitter();
                stats.advance_clock(NodeId::Platform(pid), delay);
                self.report.base.retries += 1;
                self.count("retries", 1);
                self.send_counted(env.clone(), self.home_region(pid))?;
            }
            self.transport.flush();
        }
        self.drain(round, MessageKind::Activations, routes, &mut received);
        for pid in &expired {
            received.remove(pid);
        }
        Ok(received)
    }

    /// Reliable delivery of one envelope for a committed survivor, whose
    /// links are known-up for the rest of the round: resend until the
    /// first checksum-valid envelope satisfying `accept` is received at
    /// `env.dst`; anything queued behind it stays queued.
    pub(crate) fn deliver(
        &mut self,
        env: Envelope,
        region: usize,
        accept: impl Fn(&Envelope) -> bool,
    ) -> Result<Envelope> {
        let sink = env.dst;
        for _ in 0..MAX_DELIVERY_ATTEMPTS {
            self.send_counted(env.clone(), region)?;
            self.transport.flush();
            while let Some(got) = self.transport.try_recv(sink) {
                if !self.checksum_ok(&got) {
                    continue;
                }
                if accept(&got) {
                    return Ok(got);
                }
                self.report.base.stray_messages += 1;
            }
            self.report.base.retries += 1;
            self.count("retries", 1);
        }
        Err(SplitError::Protocol(format!(
            "reliable delivery of {} to {} exhausted {MAX_DELIVERY_ATTEMPTS} attempts",
            env.kind, env.dst
        )))
    }

    /// One quorum round. Returns `(mean_loss, participants)`; a quorum
    /// failure yields `(0.0, survivors)` with no update applied.
    fn quorum_round(&mut self, round: u64) -> Result<(f32, usize)> {
        let routes = self.assign_routes();
        let mut acts = self.collect_activations(round, &routes)?;
        let skipped = (routes.len() - acts.len()) as u64;
        self.report.base.skipped_platform_rounds += skipped;
        self.count("skipped_platforms", skipped);

        self.apply_region_quorum(&mut acts);

        if acts.len() < self.actors.config.round_policy.min_platforms {
            self.report.base.quorum_failures += 1;
            self.count("quorum_failures", 1);
            return Ok((0.0, acts.len()));
        }

        // Freeze the survivor set and renormalise the imbalance-weighted
        // minibatch contribution over it: the aggregate update must be
        // the gradient of the mean loss over the union batch that
        // actually arrived.
        let survivors: Vec<usize> = acts.keys().copied().collect();
        let platforms = &mut self.actors.platforms;
        let survivor_batch: usize = survivors.iter().map(|&pid| platforms[pid].batch_size()).sum();
        for &pid in &survivors {
            let share = platforms[pid].batch_size() as f32 / survivor_batch.max(1) as f32;
            platforms[pid].set_grad_scale(share);
        }

        // Steps 2–5 run over the reliable path: the survivors are now
        // committed to the round, so the aggregate layout must complete.
        let losses = self.exchange_by_phase(round, &routes, acts)?;
        self.actors
            .charge_compute(self.transport.stats(), survivors.iter().copied());
        if self.actors.config.sync_due(round as usize) {
            self.sync_l1(round, &routes, &survivors)?;
        }

        // Commit: the survivors' post-update state becomes their rejoin
        // point.
        if self.restorable {
            for &pid in &survivors {
                let blob = self.actors.platforms[pid].checkpoint();
                self.checkpoints.insert(pid, blob);
            }
        }

        let mean_loss = losses.iter().sum::<f32>() / losses.len().max(1) as f32;
        Ok((mean_loss, survivors.len()))
    }

    /// Runs the configured `L1` synchronisation among the round's
    /// committed survivors, by reliable delivery along their routes:
    /// each uploads its `L1` parameters, and the server sends back the
    /// shard-weighted average (`PeriodicAverage`, FedAvg applied to `L1`)
    /// or the parameters of the platform's predecessor on the survivors'
    /// ring (`CyclicShare`).
    fn sync_l1(&mut self, round: u64, routes: &BTreeMap<usize, Route>, survivors: &[usize]) -> Result<()> {
        let platforms = &mut self.actors.platforms;
        let ups = survivors
            .iter()
            .map(|&pid| {
                let p = &mut platforms[pid];
                let params = p.l1_parameters();
                let env = tensor_envelope(p.node(), NodeId::Server, round, MessageKind::L1Sync, &params);
                (pid, env)
            })
            .collect();
        let uploads = self
            .upstream(round, routes, ups)?
            .iter()
            .map(|env| decode_tensor(env, MessageKind::L1Sync))
            .collect::<Result<Vec<Tensor>>>()?;
        let n = survivors.len();
        let outgoing: Vec<Tensor> = match self.actors.config.l1_sync {
            L1Sync::CommonInit => return Ok(()),
            L1Sync::PeriodicAverage { .. } => {
                let platforms = &self.actors.platforms;
                let weights: Vec<f32> = survivors
                    .iter()
                    .map(|&pid| platforms[pid].shard_size() as f32)
                    .collect();
                let total: f32 = weights.iter().sum();
                let mut avg = Tensor::zeros(uploads[0].shape().clone());
                for (t, w) in uploads.iter().zip(&weights) {
                    avg.axpy(w / total, t)?;
                }
                vec![avg; n]
            }
            L1Sync::CyclicShare { .. } => (0..n).map(|i| uploads[(i + n - 1) % n].clone()).collect(),
        };
        let downs = survivors
            .iter()
            .zip(&outgoing)
            .map(|(&pid, params)| {
                tensor_envelope(
                    NodeId::Server,
                    NodeId::Platform(pid),
                    round,
                    MessageKind::L1Sync,
                    params,
                )
            })
            .collect();
        for (pid, env) in self.downstream_to_platforms(round, routes, downs)? {
            let params = decode_tensor(&env, MessageKind::L1Sync)?;
            self.actors.platforms[pid].set_l1_parameters(&params)?;
        }
        Ok(())
    }
}

/// The platform a server-side envelope is addressed to.
pub(crate) fn receiving_platform(env: &Envelope) -> Result<usize> {
    env.dst
        .platform_index()
        .ok_or_else(|| SplitError::Protocol(format!("{} addressed to {}", env.kind, env.dst)))
}

impl<T: Transport> RoundDriver for Engine<'_, T> {
    fn method(&self) -> &'static str {
        self.actors.method
    }

    fn full_round(&self) -> usize {
        self.actors.platforms.len()
    }

    fn set_lr(&mut self, lr: f32) {
        self.actors.set_lr(lr);
    }

    fn stats(&self) -> &NetStats {
        self.transport.stats()
    }

    fn round(&mut self, round: u64) -> Result<(f32, usize)> {
        let events = self.transport.begin_round(round);
        self.apply_events(&events)?;
        let (mean_loss, participants) = self.quorum_round(round)?;
        if participants < self.actors.platforms.len() {
            self.report.base.degraded_rounds += 1;
            self.count("degraded_rounds", 1);
        }
        Ok((mean_loss, participants))
    }

    fn evaluate(&mut self) -> Result<f32> {
        Engine::evaluate(self)
    }
}

/// The engine over a star [`ChaosTransport`]: the fault-tolerant
/// counterpart of [`crate::SplitTrainer`], reporting what its fault
/// handling did.
pub struct ResilientTrainer<'t, T: Transport>(Engine<'t, ChaosTransport<T>>);

impl<'t, T: Transport> ResilientTrainer<'t, T> {
    /// Builds the trainer over a chaos transport.
    ///
    /// # Errors
    ///
    /// Returns configuration errors for invalid configs, a quorum larger
    /// than the platform count, or a dirty transport.
    pub fn new(
        arch: &Architecture,
        config: SplitConfig,
        shards: Vec<InMemoryDataset>,
        test: InMemoryDataset,
        chaos: &'t ChaosTransport<T>,
    ) -> Result<Self> {
        let actors = fresh_actors("split_resilient", arch, config, shards, test, chaos.stats())?;
        Engine::new(actors, chaos, None).map(Self)
    }

    /// The fault-handling counters accumulated so far.
    pub fn report(&self) -> ResilienceReport {
        self.0.report.base
    }

    /// The platform actors (for inspection).
    pub fn platforms_mut(&mut self) -> &mut [Platform] {
        &mut self.0.actors.platforms
    }

    /// Mean test accuracy over the currently *live* platforms' deployed
    /// models (crashed hospitals cannot serve).
    ///
    /// # Errors
    ///
    /// Propagates tensor errors.
    pub fn evaluate(&mut self) -> Result<f32> {
        self.0.evaluate()
    }

    /// Runs the configured number of rounds under the fault plan and
    /// returns the history (method `"split_resilient"`).
    ///
    /// # Errors
    ///
    /// Propagates tensor and protocol errors; tolerated faults (loss,
    /// corruption, crashes within quorum) do not error.
    pub fn run(&mut self) -> Result<TrainingHistory> {
        self.0.run()
    }
}

impl<T: Transport> RoundDriver for ResilientTrainer<'_, T> {
    fn method(&self) -> &'static str {
        self.0.method()
    }

    fn full_round(&self) -> usize {
        self.0.full_round()
    }

    fn set_lr(&mut self, lr: f32) {
        self.0.set_lr(lr);
    }

    fn stats(&self) -> &NetStats {
        self.0.stats()
    }

    fn round(&mut self, round: u64) -> Result<(f32, usize)> {
        self.0.round(round)
    }

    fn evaluate(&mut self) -> Result<f32> {
        self.0.evaluate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::fixtures::{arch, config, replay_key, setup};
    use medsplit_simnet::{FaultPlan, MemoryTransport, StarTopology};

    fn run_with(plan: FaultPlan, rounds: usize, platforms: usize) -> (TrainingHistory, ResilienceReport) {
        let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(platforms)), plan);
        let (shards, test) = setup(platforms);
        let mut trainer = ResilientTrainer::new(&arch(), config(rounds), shards, test, &chaos).unwrap();
        let history = trainer.run().unwrap();
        (history, trainer.report())
    }

    #[test]
    fn healthy_run_matches_failure_free_semantics() {
        let (history, report) = run_with(FaultPlan::new(1), 30, 3);
        assert_eq!(history.method, "split_resilient");
        assert_eq!(history.records.len(), 30);
        assert_eq!(history.degraded_rounds(), 0);
        assert_eq!(report, ResilienceReport::default());
        assert!(
            history.final_accuracy > 0.6,
            "accuracy {}",
            history.final_accuracy
        );
        assert!(history.records.iter().all(|r| r.participants == 3));
    }

    #[test]
    fn ten_percent_loss_retries_and_still_learns() {
        let (history, report) = run_with(FaultPlan::new(7).with_drop(0.1), 30, 3);
        assert!(report.retries > 0, "10% loss must trigger retries");
        assert!(
            history.final_accuracy > 0.6,
            "accuracy {}",
            history.final_accuracy
        );
    }

    #[test]
    fn corruption_is_rejected_and_survived() {
        let (history, report) = run_with(FaultPlan::new(9).with_corrupt(0.1), 20, 3);
        assert!(report.checksum_rejections > 0);
        assert!(
            history.final_accuracy > 0.5,
            "accuracy {}",
            history.final_accuracy
        );
    }

    #[test]
    fn crash_rejoin_counts_degraded_rounds_exactly() {
        let plan = FaultPlan::new(3)
            .crash(NodeId::Platform(1), 5)
            .recover(NodeId::Platform(1), 9);
        let (history, report) = run_with(plan, 20, 3);
        assert_eq!(report.crashes, 1);
        assert_eq!(report.rejoins, 1);
        // Rounds 5..9 ran with 2 of 3 platforms — exactly 4 degraded.
        assert_eq!(history.degraded_rounds(), 4);
        for r in &history.records {
            let expected = if (5..9).contains(&r.round) { 2 } else { 3 };
            assert_eq!(r.participants, expected, "round {}", r.round);
        }
        assert!(
            history.final_accuracy > 0.5,
            "accuracy {}",
            history.final_accuracy
        );
    }

    #[test]
    fn straggler_past_deadline_is_skipped_every_round() {
        let plan = FaultPlan::new(5).straggler(NodeId::Platform(1), 5.0);
        let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(3)), plan);
        let (shards, test) = setup(3);
        let mut cfg = config(8);
        cfg.round_policy.deadline_s = 1.0;
        let mut trainer = ResilientTrainer::new(&arch(), cfg, shards, test, &chaos).unwrap();
        let history = trainer.run().unwrap();
        // The straggler pays 5 simulated seconds per send against a 1 s
        // deadline: it is skipped in every round, but training proceeds.
        assert_eq!(trainer.report().skipped_platform_rounds, 8);
        assert_eq!(history.degraded_rounds(), 8);
        assert!(history.records.iter().all(|r| r.participants == 2));
    }

    #[test]
    fn duplicates_and_reordering_do_not_change_converged_weights() {
        let run_weights = |plan: FaultPlan| {
            let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(3)), plan);
            let (shards, test) = setup(3);
            let mut trainer = ResilientTrainer::new(&arch(), config(12), shards, test, &chaos).unwrap();
            let history = trainer.run().unwrap();
            let weights: Vec<_> = trainer
                .platforms_mut()
                .iter_mut()
                .map(Platform::l1_parameters)
                .collect();
            (weights, history.final_accuracy.to_bits())
        };
        let (clean_w, clean_acc) = run_weights(FaultPlan::new(6));
        let (noisy_w, noisy_acc) = run_weights(FaultPlan::new(6).with_dup(0.3).with_reorder(0.3));
        // Duplicate and reordered delivery is absorbed by dedup and
        // pid-keyed collection: the learned weights are exactly equal.
        assert_eq!(clean_w, noisy_w);
        assert_eq!(clean_acc, noisy_acc);
    }

    #[test]
    fn quorum_failure_drops_the_update() {
        // Both platforms crash: every affected round is a quorum failure.
        let plan = FaultPlan::new(4)
            .crash(NodeId::Platform(0), 2)
            .crash(NodeId::Platform(1), 2)
            .recover(NodeId::Platform(0), 4)
            .recover(NodeId::Platform(1), 4);
        let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(2)), plan);
        let (shards, test) = setup(2);
        let mut cfg = config(6);
        cfg.round_policy.min_platforms = 2;
        let mut trainer = ResilientTrainer::new(&arch(), cfg, shards, test, &chaos).unwrap();
        let history = trainer.run().unwrap();
        assert_eq!(trainer.report().quorum_failures, 2);
        assert_eq!(history.degraded_rounds(), 2);
        assert!(history.records[2].participants == 0 && history.records[3].participants == 0);
    }

    #[test]
    fn replays_bit_identically() {
        let plan = FaultPlan::new(42)
            .with_drop(0.1)
            .with_corrupt(0.05)
            .with_dup(0.05)
            .crash(NodeId::Platform(2), 4)
            .recover(NodeId::Platform(2), 8);
        let (h1, r1) = run_with(plan.clone(), 15, 3);
        let (h2, r2) = run_with(plan, 15, 3);
        assert_eq!(r1, r2);
        // Everything except host wall time must replay bit-identically.
        assert_eq!(
            replay_key(&h1),
            replay_key(&h2),
            "same seed ⇒ bit-identical history"
        );
        assert_eq!(h1.stats, h2.stats);
        assert_eq!(h1.final_accuracy.to_bits(), h2.final_accuracy.to_bits());
    }

    #[test]
    fn quorum_larger_than_fleet_rejected() {
        let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(2)), FaultPlan::new(0));
        let (shards, test) = setup(2);
        let mut cfg = config(2);
        cfg.round_policy.min_platforms = 3;
        assert!(matches!(
            ResilientTrainer::new(&arch(), cfg, shards, test, &chaos),
            Err(SplitError::Config(_))
        ));
    }

    #[test]
    fn l1_sync_under_crash_rejoin_replays_and_restores_the_checkpoint() {
        // Platform 1 is down for rounds [2, 5); the sync fires after
        // rounds 1, 3, 5 and 7.
        let plan = FaultPlan::new(11)
            .crash(NodeId::Platform(1), 2)
            .recover(NodeId::Platform(1), 5);
        fn trainer(chaos: &ChaosTransport<MemoryTransport>) -> ResilientTrainer<'_, MemoryTransport> {
            let (shards, test) = setup(3);
            let mut cfg = config(8);
            cfg.l1_sync = L1Sync::PeriodicAverage { every: 2 };
            ResilientTrainer::new(&arch(), cfg, shards, test, chaos).unwrap()
        }
        let run = || {
            let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(3)), plan.clone());
            let mut t = trainer(&chaos);
            let history = t.run().unwrap();
            let l1: Vec<Tensor> = t
                .platforms_mut()
                .iter_mut()
                .map(Platform::l1_parameters)
                .collect();
            (history, t.report(), l1)
        };
        let (h1, r1, l1) = run();
        let (h2, r2, l2) = run();
        assert_eq!((replay_key(&h1), r1), (replay_key(&h2), r2));
        assert_eq!(h1.stats, h2.stats);
        assert_eq!(l1, l2);
        // Two `L1Sync` messages per survivor per sync: round 3 ran
        // without platform 1.
        assert_eq!(h1.stats.messages_of(MessageKind::L1Sync), 2 * (3 + 2 + 3 + 3));

        // Step by hand: the crash wipes platform 1 to its pristine state,
        // the recovery restores the state the round-1 sync committed.
        let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(3)), plan);
        let mut t = trainer(&chaos);
        let pristine = t.platforms_mut()[1].l1_parameters();
        t.set_lr(0.1);
        for round in 0..2 {
            t.round(round).unwrap();
        }
        let synced = t.platforms_mut()[1].l1_parameters();
        assert_eq!(synced, t.platforms_mut()[0].l1_parameters());
        assert_ne!(synced, pristine);
        for round in 2..5 {
            t.round(round).unwrap();
        }
        assert_eq!(t.platforms_mut()[1].l1_parameters(), pristine);
        let events = chaos.begin_round(5);
        t.0.apply_events(&events).unwrap();
        assert_eq!(t.platforms_mut()[1].l1_parameters(), synced);
    }

    #[test]
    fn a_plain_transport_takes_no_snapshot_and_no_checkpoint() {
        let (shards, test) = setup(3);
        let transport = MemoryTransport::new(StarTopology::new(3));
        let actors = fresh_actors("split", &arch(), config(4), shards, test, transport.stats()).unwrap();
        let mut engine = Engine::new(actors, &transport, None).unwrap();
        engine.run().unwrap();
        assert!(!engine.restorable);
        assert!(engine.initial_snapshots.is_empty());
        assert!(engine.checkpoints.is_empty());

        // A plan that schedules a platform crash keeps both.
        let plan = FaultPlan::new(1).crash(NodeId::Platform(2), 9);
        let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(3)), plan);
        let (shards, test) = setup(3);
        let actors = fresh_actors("split", &arch(), config(4), shards, test, chaos.stats()).unwrap();
        let mut engine = Engine::new(actors, &chaos, None).unwrap();
        engine.run().unwrap();
        assert_eq!(engine.initial_snapshots.len(), 3);
        assert_eq!(engine.checkpoints.len(), 3);
    }
}
