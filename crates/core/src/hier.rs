//! Hierarchical fault-tolerant split training: platforms → regional
//! relays → central server, with relay failover and partition-tolerant
//! degraded rounds.
//!
//! [`HierResilientTrainer`] is the round engine of [`crate::resilient`]
//! constructed with a relay tier — whole-round participation, retries
//! with backoff and simulated-clock deadlines under the configured
//! [`RoundPolicy`](crate::RoundPolicy), frozen survivor sets with
//! renormalised minibatch weights, and checkpoint-boundary crash/rejoin
//! are all that engine's. This module adds what a relay tier means:
//!
//! - **Routing.** Each round every live platform is routed over its
//!   home relay; if the relay is crashed or unreachable (either hop of
//!   either leg down), the platform *re-homes* to the first viable
//!   backup relay in cyclic order, else falls back to a direct server
//!   link — paying [`HierPolicy::failover_penalty_s`] on its simulated
//!   clock. A platform with no viable path at all is orphaned for the
//!   round and rejoins at the next boundary.
//! - **Region quorum.** A region delivering fewer than
//!   [`HierPolicy::region_quorum`] surviving platforms is dropped whole
//!   — a partitioned region degrades the round instead of stalling it
//!   or biasing the aggregate with a sliver of its data.
//! - **Relay batching.** Surviving smashed data crosses the backbone as
//!   one [`MessageKind::RelayBatch`] per relay per direction per
//!   protocol step (see [`crate::relay`]).
//!
//! Everything stays deterministic: one seeded chaos RNG, platforms and
//! relays iterated in id order, bit-identical replay from equal plans.

use std::collections::BTreeMap;

use medsplit_data::InMemoryDataset;
use medsplit_nn::Architecture;
use medsplit_simnet::{ChaosTransport, Envelope, HierTopology, MessageKind, NodeId, Transport};

use crate::config::{HierPolicy, SplitConfig};
use crate::error::{Result, SplitError};
use crate::history::TrainingHistory;
use crate::platform::Platform;
use crate::relay;
use crate::resilient::{receiving_platform, ResilienceReport, ResilientTrainer};

/// Counters specific to the hierarchical failure machinery, alongside
/// the embedded star-level [`ResilienceReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierReport {
    /// The round-machinery counters shared with the star driver.
    pub base: ResilienceReport,
    /// Platform-rounds routed over a backup relay because the home
    /// relay was crashed or unreachable.
    pub rehomes: u64,
    /// Platform-rounds that fell back to the direct server link because
    /// no relay was viable.
    pub direct_fallbacks: u64,
    /// Platform-rounds orphaned entirely (no relay, no direct path).
    pub orphaned_platform_rounds: u64,
    /// Relay batches successfully delivered across the backbone.
    pub relay_batches: u64,
    /// Regions whose surviving platforms were dropped for missing the
    /// per-region quorum.
    pub region_quorum_drops: u64,
    /// Scheduled relay crash events applied.
    pub relay_crashes: u64,
    /// Scheduled relay recover events applied.
    pub relay_rejoins: u64,
    /// Driver-sent wire bytes attributed to each region (activations,
    /// batches, retries and downstream traffic of its platforms).
    pub region_bytes: Vec<u64>,
}

/// The relay tier of a hierarchy: its shape and its failover policy.
pub(crate) struct RelayTier {
    pub(crate) policy: HierPolicy,
    pub(crate) topo: HierTopology,
}

/// Which path a platform uses this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// Via relay `r` (home or backup).
    Relay(usize),
    /// Straight to the server: every platform of a star, and the
    /// fallback of a hierarchy.
    Direct,
}

impl Route {
    /// The inbox a platform's upstream traffic lands in under this route.
    pub(crate) fn sink(self) -> NodeId {
        match self {
            Route::Relay(r) => NodeId::Relay(r),
            Route::Direct => NodeId::Server,
        }
    }
}

impl<T: Transport> ResilientTrainer<'_, T> {
    /// The region whose byte counter a platform's traffic is charged to.
    pub(crate) fn home_region(&self, pid: usize) -> usize {
        self.tier.as_ref().map_or(0, |t| t.topo.home_relay(pid))
    }

    /// Whether routing platform `pid` through relay `r` is viable this
    /// round: the relay is up and both hops of both legs have live
    /// links. Chaos events are round-granular, so checking at the round
    /// boundary is exactly the failure detector a real heartbeat would
    /// implement.
    fn relay_viable(&self, pid: usize, r: usize) -> bool {
        let (p, relay) = (NodeId::Platform(pid), NodeId::Relay(r));
        !self.chaos.is_down(relay)
            && !self.chaos.link_down(p, relay)
            && !self.chaos.link_down(relay, p)
            && !self.chaos.link_down(relay, NodeId::Server)
            && !self.chaos.link_down(NodeId::Server, relay)
    }

    /// Picks this round's route for a live platform of a hierarchy: home
    /// relay, then backup relays in cyclic order, then the direct server
    /// link.
    fn route_for(&self, topo: &HierTopology, pid: usize) -> Option<Route> {
        let home = topo.home_relay(pid);
        let regions = topo.regions();
        for k in 0..regions {
            let r = (home + k) % regions;
            if self.relay_viable(pid, r) {
                return Some(Route::Relay(r));
            }
        }
        let p = NodeId::Platform(pid);
        if !self.chaos.link_down(p, NodeId::Server) && !self.chaos.link_down(NodeId::Server, p) {
            return Some(Route::Direct);
        }
        None
    }

    /// Assigns routes to every live platform. Over a star that is the
    /// direct link; over a hierarchy, failover penalties are charged and
    /// rehomes, fallbacks and orphans counted.
    pub(crate) fn assign_routes(&mut self) -> BTreeMap<usize, Route> {
        let mut routes = BTreeMap::new();
        for pid in 0..self.actors.platforms.len() {
            if self.chaos.is_down(NodeId::Platform(pid)) {
                continue;
            }
            let Some(tier) = &self.tier else {
                routes.insert(pid, Route::Direct);
                continue;
            };
            match self.route_for(&tier.topo, pid) {
                Some(route) => {
                    if route != Route::Relay(tier.topo.home_relay(pid)) {
                        // Failure detection + reconnection cost.
                        self.chaos
                            .stats()
                            .advance_clock(NodeId::Platform(pid), tier.policy.failover_penalty_s);
                        match route {
                            Route::Relay(_) => {
                                self.report.rehomes += 1;
                                self.count("rehomes", 1);
                            }
                            Route::Direct => {
                                self.report.direct_fallbacks += 1;
                                self.count("direct_fallbacks", 1);
                            }
                        }
                    }
                    routes.insert(pid, route);
                }
                None => {
                    self.report.orphaned_platform_rounds += 1;
                    self.count("orphaned_platform_rounds", 1);
                }
            }
        }
        routes
    }

    /// Enforces the per-region quorum on the collected survivors: a
    /// region contributing fewer than `region_quorum` platforms is
    /// dropped whole (its stragglers rejoin next round).
    pub(crate) fn apply_region_quorum(&mut self, acts: &mut BTreeMap<usize, Envelope>) {
        let Some(tier) = &self.tier else { return };
        for g in 0..tier.topo.regions() {
            let members: Vec<usize> = acts
                .keys()
                .copied()
                .filter(|&pid| tier.topo.home_relay(pid) == g)
                .collect();
            if !members.is_empty() && members.len() < tier.policy.region_quorum {
                self.report.region_quorum_drops += 1;
                self.count("region_quorum_drops", 1);
                for pid in members {
                    acts.remove(&pid);
                }
            }
        }
    }

    /// Reliable backbone delivery of one relay batch, in either
    /// direction. Returns the inner envelopes unbatched at the far end.
    fn deliver_batch(&mut self, batch: Envelope, relay: usize) -> Result<Vec<Envelope>> {
        let (round, src) = (batch.round, batch.src);
        let got = self.deliver(batch, relay, |e| {
            e.kind == MessageKind::RelayBatch && e.round == round && e.src == src
        })?;
        self.report.relay_batches += 1;
        self.count("relay_batches", 1);
        relay::unbatch(&got)
    }

    /// Moves the surviving upstream envelopes to the server: relay
    /// routes are batched region-wise across the backbone, direct
    /// routes are already in hand. Returns the server-side envelopes in
    /// ascending platform order.
    fn upstream_to_server(
        &mut self,
        round: u64,
        routes: &BTreeMap<usize, Route>,
        held: BTreeMap<usize, Envelope>,
    ) -> Result<Vec<Envelope>> {
        let mut by_relay: BTreeMap<usize, Vec<Envelope>> = BTreeMap::new();
        let mut out: Vec<Envelope> = Vec::with_capacity(held.len());
        for (pid, env) in held {
            match routes[&pid] {
                Route::Relay(r) => by_relay.entry(r).or_default().push(env),
                Route::Direct => out.push(env),
            }
        }
        for (r, inner) in by_relay {
            let batch = relay::batch_upstream(r, round, &inner);
            out.extend(self.deliver_batch(batch, r)?);
        }
        out.sort_by_key(|e| e.src.platform_index());
        Ok(out)
    }

    /// Distributes server → platform envelopes along each platform's
    /// route: relay routes cross the backbone as one batch per relay,
    /// then fan out over the regional links with the relay as source;
    /// direct routes go straight down. Returns `(pid, envelope)` as
    /// received by each platform, in ascending platform order.
    fn downstream_to_platforms(
        &mut self,
        round: u64,
        routes: &BTreeMap<usize, Route>,
        envs: Vec<Envelope>,
    ) -> Result<Vec<(usize, Envelope)>> {
        let mut by_relay: BTreeMap<usize, Vec<Envelope>> = BTreeMap::new();
        let mut last_hop: Vec<Envelope> = Vec::new();
        for env in envs {
            match routes[&receiving_platform(&env)?] {
                Route::Relay(r) => by_relay.entry(r).or_default().push(env),
                Route::Direct => last_hop.push(env),
            }
        }
        let mut out: Vec<(usize, Envelope)> = Vec::new();
        let mut hop_down = |engine: &mut Self, env: Envelope| -> Result<()> {
            let (pid, kind) = (receiving_platform(&env)?, env.kind);
            let region = engine.home_region(pid);
            let got = engine.deliver(env, region, |e| e.kind == kind && e.round == round)?;
            out.push((pid, got));
            Ok(())
        };
        for (r, inner) in by_relay {
            let batch = relay::batch_downstream(r, round, &inner);
            for unbatched in self.deliver_batch(batch, r)? {
                hop_down(self, relay::forward_from_relay(r, &unbatched))?;
            }
        }
        for env in last_hop {
            hop_down(self, env)?;
        }
        out.sort_by_key(|(pid, _)| *pid);
        Ok(out)
    }

    /// Moves committed survivors' upstream gradients to the server over
    /// their routes (reliable on every hop), returning the server-side
    /// envelopes.
    fn upstream_grads(
        &mut self,
        round: u64,
        routes: &BTreeMap<usize, Route>,
        grads: Vec<(usize, Envelope)>,
    ) -> Result<Vec<Envelope>> {
        let mut held: BTreeMap<usize, Envelope> = BTreeMap::new();
        for (pid, mut env) in grads {
            env.dst = routes[&pid].sink();
            let region = self.home_region(pid);
            let got = self.deliver(env, region, |e| {
                e.kind == MessageKind::LogitGrads && e.round == round && e.src.platform_index() == Some(pid)
            })?;
            held.insert(pid, got);
        }
        self.upstream_to_server(round, routes, held)
    }

    /// Steps 2–5 for the committed survivors, one phase at a time: all
    /// activations reach the server (one batch per relay, direct routes
    /// as they are), all logits go down, all gradients come up, all cut
    /// gradients go down. A star is the case where every route is
    /// [`Route::Direct`]. Returns the losses in ascending platform id.
    pub(crate) fn exchange_by_phase(
        &mut self,
        round: u64,
        routes: &BTreeMap<usize, Route>,
        acts: BTreeMap<usize, Envelope>,
    ) -> Result<Vec<f32>> {
        let act_envs = self.upstream_to_server(round, routes, acts)?;
        let logits_out = self.actors.server.aggregate_forward(&act_envs)?;
        let delivered = self.downstream_to_platforms(round, routes, logits_out)?;

        let mut losses = Vec::with_capacity(delivered.len());
        let mut grads: Vec<(usize, Envelope)> = Vec::with_capacity(delivered.len());
        for (pid, env) in delivered {
            let (grad_env, loss) = self.actors.platforms[pid].handle_logits(&env)?;
            losses.push(loss);
            grads.push((pid, grad_env));
        }

        let grad_envs = self.upstream_grads(round, routes, grads)?;
        let cuts_out = self.actors.server.aggregate_backward(&grad_envs)?;
        for (pid, env) in self.downstream_to_platforms(round, routes, cuts_out)? {
            self.actors.platforms[pid].handle_cut_grads(&env)?;
        }
        Ok(losses)
    }
}

/// Hierarchical counterpart of [`crate::ResilientTrainer`]: the same
/// engine and actors over a [`HierTopology`] chaos transport.
pub struct HierResilientTrainer<'t, T: Transport>(ResilientTrainer<'t, T>);

impl<'t, T: Transport> HierResilientTrainer<'t, T> {
    /// Builds the trainer over a chaos transport routing a
    /// [`HierTopology`]. `shards` must hold exactly one dataset per
    /// platform of the topology, in platform-id order.
    ///
    /// # Errors
    ///
    /// Returns configuration errors for invalid configs or policies,
    /// shard/topology shape mismatches, unsupported scheduling, or a
    /// dirty transport.
    pub fn new(
        arch: &Architecture,
        config: SplitConfig,
        hier: HierPolicy,
        topo: HierTopology,
        shards: Vec<InMemoryDataset>,
        test: InMemoryDataset,
        chaos: &'t ChaosTransport<T>,
    ) -> Result<Self> {
        hier.validate(topo.per_region()).map_err(SplitError::Config)?;
        if topo.regions() == 0 || topo.per_region() == 0 {
            return Err(SplitError::Config(
                "hierarchy needs at least one region with at least one platform".into(),
            ));
        }
        if shards.len() != topo.platforms() {
            return Err(SplitError::Config(format!(
                "{} shards for a hierarchy of {} platforms",
                shards.len(),
                topo.platforms()
            )));
        }
        let tier = RelayTier { policy: hier, topo };
        ResilientTrainer::with_tier(arch, config, shards, test, chaos, Some(tier)).map(Self)
    }

    /// The hierarchical fault-handling counters accumulated so far.
    pub fn report(&self) -> &HierReport {
        &self.0.report
    }

    /// The platform actors (for inspection).
    pub fn platforms_mut(&mut self) -> &mut [Platform] {
        self.0.platforms_mut()
    }

    /// Mean test accuracy over the currently live platforms' deployed
    /// models, exactly as the star driver computes it.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors.
    pub fn evaluate(&mut self) -> Result<f32> {
        self.0.evaluate()
    }

    /// Runs the configured number of rounds under the fault plan and
    /// returns the history (method `"split_hier_resilient"`).
    ///
    /// # Errors
    ///
    /// Propagates tensor and protocol errors; tolerated faults (loss,
    /// corruption, crashes, partitions within quorum) do not error.
    pub fn run(&mut self) -> Result<TrainingHistory> {
        let history = self.0.run()?;
        // Per-region byte attribution as deterministic counters.
        if medsplit_telemetry::enabled() {
            for (g, &bytes) in self.0.report.region_bytes.iter().enumerate() {
                if bytes > 0 {
                    medsplit_telemetry::counter_add(&format!("net.bytes.region{g}"), bytes);
                }
            }
        }
        Ok(history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::fixtures::{arch, config, replay_key, setup};
    use medsplit_simnet::{FaultPlan, MemoryTransport};

    fn run_hier(
        plan: FaultPlan,
        rounds: usize,
        regions: usize,
        per_region: usize,
    ) -> (TrainingHistory, HierReport) {
        let topo = HierTopology::new(regions, per_region);
        let chaos = ChaosTransport::new(MemoryTransport::new(topo.clone()), plan);
        let (shards, test) = setup(regions * per_region);
        let mut trainer = HierResilientTrainer::new(
            &arch(),
            config(rounds),
            HierPolicy::default(),
            topo,
            shards,
            test,
            &chaos,
        )
        .unwrap();
        let history = trainer.run().unwrap();
        let report = trainer.report().clone();
        (history, report)
    }

    #[test]
    fn healthy_hier_run_learns_and_batches() {
        let (history, report) = run_hier(FaultPlan::new(1), 30, 2, 2);
        assert_eq!(history.method, "split_hier_resilient");
        assert_eq!(history.records.len(), 30);
        assert_eq!(history.degraded_rounds(), 0);
        assert!(history.records.iter().all(|r| r.participants == 4));
        // 2 relays × 4 protocol legs × 30 rounds, all batched.
        assert_eq!(report.relay_batches, 2 * 4 * 30);
        assert_eq!(report.rehomes, 0);
        assert_eq!(report.direct_fallbacks, 0);
        assert_eq!(report.base.retries, 0);
        assert!(report.region_bytes.iter().all(|&b| b > 0));
        assert!(
            history.final_accuracy > 0.6,
            "accuracy {}",
            history.final_accuracy
        );
    }

    #[test]
    fn relay_crash_rehomes_platforms_without_degrading() {
        // Relay 0 is down rounds [3, 6): its platforms re-home to relay
        // 1 and keep participating — no degraded rounds at all.
        let plan = FaultPlan::new(5).crash_relay(0, 3).recover_relay(0, 6);
        let (history, report) = run_hier(plan, 10, 2, 2);
        assert_eq!(report.relay_crashes, 1);
        assert_eq!(report.relay_rejoins, 1);
        // 2 platforms × 3 rounds re-homed.
        assert_eq!(report.rehomes, 6);
        assert_eq!(report.orphaned_platform_rounds, 0);
        assert_eq!(history.degraded_rounds(), 0);
        assert!(history.records.iter().all(|r| r.participants == 4));
    }

    #[test]
    fn single_region_relay_crash_falls_back_direct() {
        // One region, its only relay down: platforms use the direct
        // server link, never orphaned.
        let plan = FaultPlan::new(6).crash_relay(0, 2).recover_relay(0, 4);
        let (history, report) = run_hier(plan, 6, 1, 3);
        assert_eq!(report.direct_fallbacks, 6, "3 platforms × 2 rounds");
        assert_eq!(report.rehomes, 0);
        assert_eq!(history.degraded_rounds(), 0);
    }

    #[test]
    fn partitioned_region_degrades_the_round_only() {
        let topo = HierTopology::new(2, 2);
        let plan = FaultPlan::new(7).partition_region(&topo, 1, 2, 5);
        let chaos = ChaosTransport::new(MemoryTransport::new(topo.clone()), plan);
        let (shards, test) = setup(4);
        let mut trainer = HierResilientTrainer::new(
            &arch(),
            config(8),
            HierPolicy::default(),
            topo,
            shards,
            test,
            &chaos,
        )
        .unwrap();
        let history = trainer.run().unwrap();
        // Region 1 (platforms 2, 3) is unreachable rounds 2..5: no
        // viable relay, no direct path — orphaned, round degrades.
        assert_eq!(trainer.report().orphaned_platform_rounds, 6);
        assert_eq!(history.degraded_rounds(), 3);
        for r in &history.records {
            let expected = if (2..5).contains(&r.round) { 2 } else { 4 };
            assert_eq!(r.participants, expected, "round {}", r.round);
        }
    }

    #[test]
    fn region_quorum_drops_partial_regions_whole() {
        // Platform 3 crashes; with region_quorum = 2 its region-mate
        // platform 2 is dropped too, so the whole region sits out.
        let plan = FaultPlan::new(8)
            .crash(NodeId::Platform(3), 2)
            .recover(NodeId::Platform(3), 4);
        let topo = HierTopology::new(2, 2);
        let chaos = ChaosTransport::new(MemoryTransport::new(topo.clone()), plan);
        let (shards, test) = setup(4);
        let hier = HierPolicy {
            region_quorum: 2,
            ..HierPolicy::default()
        };
        let mut trainer =
            HierResilientTrainer::new(&arch(), config(6), hier, topo, shards, test, &chaos).unwrap();
        let history = trainer.run().unwrap();
        assert_eq!(trainer.report().region_quorum_drops, 2, "rounds 2 and 3");
        for r in &history.records {
            let expected = if (2..4).contains(&r.round) { 2 } else { 4 };
            assert_eq!(r.participants, expected, "round {}", r.round);
        }
        assert!(
            history.final_accuracy > 0.5,
            "accuracy {}",
            history.final_accuracy
        );
    }

    #[test]
    fn loss_and_corruption_are_absorbed() {
        let (history, report) = run_hier(FaultPlan::new(9).with_drop(0.08).with_corrupt(0.04), 20, 2, 2);
        assert!(report.base.retries > 0);
        assert!(report.base.checksum_rejections > 0);
        assert!(
            history.final_accuracy > 0.5,
            "accuracy {}",
            history.final_accuracy
        );
    }

    #[test]
    fn hier_replays_bit_identically() {
        let topo = HierTopology::new(2, 2);
        let plan = FaultPlan::new(42)
            .with_drop(0.08)
            .with_dup(0.05)
            .crash_relay(1, 3)
            .recover_relay(1, 6)
            .partition_region(&topo, 0, 8, 10);
        let (h1, r1) = run_hier(plan.clone(), 12, 2, 2);
        let (h2, r2) = run_hier(plan, 12, 2, 2);
        assert_eq!(r1, r2);
        assert_eq!(
            replay_key(&h1),
            replay_key(&h2),
            "same seed ⇒ bit-identical history"
        );
        assert_eq!(h1.stats, h2.stats);
        assert_eq!(h1.final_accuracy.to_bits(), h2.final_accuracy.to_bits());
    }

    #[test]
    fn shape_mismatches_rejected() {
        let topo = HierTopology::new(2, 2);
        let chaos = ChaosTransport::new(MemoryTransport::new(topo.clone()), FaultPlan::new(0));
        let (shards, test) = setup(3); // wrong: topology has 4 platforms
        assert!(matches!(
            HierResilientTrainer::new(
                &arch(),
                config(2),
                HierPolicy::default(),
                topo.clone(),
                shards,
                test.clone(),
                &chaos
            ),
            Err(SplitError::Config(_))
        ));
        let (shards, test) = setup(4);
        let bad = HierPolicy {
            region_quorum: 3,
            ..HierPolicy::default()
        };
        assert!(matches!(
            HierResilientTrainer::new(&arch(), config(2), bad, topo, shards, test, &chaos),
            Err(SplitError::Config(_))
        ));
    }
}
