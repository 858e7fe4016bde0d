//! Deterministic chaos injection: a seeded [`FaultPlan`] of per-link
//! message faults (drop / duplicate / reorder / corruption / extra
//! delay), link flaps, and scheduled node crash/recover events, applied
//! by [`ChaosTransport`] on top of any inner transport.
//!
//! Every probabilistic decision is drawn from a [`ChaosRng`] seeded by
//! the plan's single `u64` seed, in send order — so a single-threaded
//! driver replays a faulty run bit-identically from the seed alone.
//! Corruption is *detectable*: the transport flips payload bytes but
//! leaves the envelope's stamped checksum alone, so
//! [`Envelope::verify_checksum`] fails at the receiver and the message
//! can be discarded and retried instead of silently trained on.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::message::Envelope;
use crate::node::NodeId;
use crate::stats::NetStats;
use crate::transport::{NetError, Transport};

/// A tiny deterministic RNG (SplitMix64). All chaos decisions flow
/// through one instance per transport, so a run is replayable from the
/// seed as long as sends happen in a deterministic order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosRng(u64);

impl ChaosRng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        ChaosRng(seed)
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw: `true` with probability `p`. Always consumes one
    /// draw (even for `p = 0`) so enabling a fault never shifts the
    /// stream consumed by the other fault kinds.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// Per-link fault probabilities and penalties applied to each message
/// sent over the link. All probabilities are in `[0, 1]`; the default is
/// a perfectly healthy link.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFaults {
    /// Probability a message is lost in flight (bytes are still charged:
    /// the sender transmitted them).
    pub drop_p: f64,
    /// Probability a message is delivered twice.
    pub dup_p: f64,
    /// Probability a message is held back and delivered after the next
    /// send (adjacent-pair reordering).
    pub reorder_p: f64,
    /// Probability one payload byte is flipped in flight. The stamped
    /// checksum is left alone, so the receiver detects the corruption.
    pub corrupt_p: f64,
    /// Extra sender-side delay per message in simulated seconds
    /// (a straggling uplink).
    pub extra_delay_s: f64,
}

/// A scheduled state change, applied when the driver calls
/// [`ChaosTransport::begin_round`] for the event's round. Events are
/// round-granular on purpose: a node either participates in a whole
/// round or in none of it, which keeps recovery semantics simple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosEvent {
    /// The node crashes at the start of this round: its sends fail fast
    /// with [`NetError::PeerDown`], and messages addressed to it vanish.
    Crash {
        /// Round the crash takes effect.
        round: u64,
        /// The crashing node.
        node: NodeId,
    },
    /// The node comes back at the start of this round.
    Recover {
        /// Round the recovery takes effect.
        round: u64,
        /// The recovering node.
        node: NodeId,
    },
    /// The directed link `src → dst` goes down at the start of this
    /// round: messages on it are dropped (and counted).
    LinkDown {
        /// Round the flap starts.
        round: u64,
        /// Sending side of the link.
        src: NodeId,
        /// Receiving side of the link.
        dst: NodeId,
    },
    /// The directed link comes back at the start of this round.
    LinkUp {
        /// Round the flap ends.
        round: u64,
        /// Sending side of the link.
        src: NodeId,
        /// Receiving side of the link.
        dst: NodeId,
    },
}

/// A complete, seeded description of the faults a run will experience.
/// Two transports built from equal plans inject bit-identical faults
/// when driven by the same deterministic message sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the [`ChaosRng`] that drives every probabilistic fault.
    pub seed: u64,
    /// Faults applied to every link without an explicit override.
    pub default_link: LinkFaults,
    /// Per-link overrides, keyed by `(src, dst)`.
    pub links: Vec<((NodeId, NodeId), LinkFaults)>,
    /// Scheduled crash/recover and link-flap events.
    pub events: Vec<ChaosEvent>,
}

impl FaultPlan {
    /// A healthy plan with the given seed: no faults, no events.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            default_link: LinkFaults::default(),
            links: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Sets the default per-message drop probability on every link.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.default_link.drop_p = p;
        self
    }

    /// Sets the default per-message duplication probability.
    pub fn with_dup(mut self, p: f64) -> Self {
        self.default_link.dup_p = p;
        self
    }

    /// Sets the default per-message reordering probability.
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.default_link.reorder_p = p;
        self
    }

    /// Sets the default per-message corruption probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.default_link.corrupt_p = p;
        self
    }

    /// Overrides the faults of one directed link.
    pub fn link(mut self, src: NodeId, dst: NodeId, faults: LinkFaults) -> Self {
        self.links.retain(|((s, d), _)| !(*s == src && *d == dst));
        self.links.push(((src, dst), faults));
        self
    }

    /// Makes `node` a straggler: every message it sends pays an extra
    /// `delay_s` simulated seconds before leaving.
    pub fn straggler(self, node: NodeId, delay_s: f64) -> Self {
        let faults = LinkFaults {
            extra_delay_s: delay_s,
            ..self.link_faults(node, NodeId::Server)
        };
        self.link(node, NodeId::Server, faults)
    }

    /// Schedules a crash of `node` at the start of `round`.
    pub fn crash(mut self, node: NodeId, round: u64) -> Self {
        self.events.push(ChaosEvent::Crash { round, node });
        self
    }

    /// Schedules a recovery of `node` at the start of `round`.
    pub fn recover(mut self, node: NodeId, round: u64) -> Self {
        self.events.push(ChaosEvent::Recover { round, node });
        self
    }

    // ----- replica-level fault plans (serving fleets) -----------------------
    //
    // Fleet drivers are time-based rather than round-based: they map the
    // simulated clock onto fixed-width chaos ticks and call
    // [`ChaosTransport::begin_round`] once per tick, so the same
    // round-granular event machinery doubles as a replica-crash schedule.

    /// Schedules a crash of server replica `replica` at the start of
    /// fleet chaos tick `tick`.
    pub fn crash_replica(self, replica: usize, tick: u64) -> Self {
        self.crash(NodeId::Replica(replica), tick)
    }

    /// Schedules a recovery of server replica `replica` at the start of
    /// fleet chaos tick `tick`.
    pub fn recover_replica(self, replica: usize, tick: u64) -> Self {
        self.recover(NodeId::Replica(replica), tick)
    }

    // ----- relay-level fault plans (hierarchical topologies) -----------------

    /// Schedules a crash of regional relay `relay` at the start of
    /// `round`. A crashed relay forwards nothing; its platforms must
    /// re-home to a backup relay or fall back to the server directly.
    pub fn crash_relay(self, relay: usize, round: u64) -> Self {
        self.crash(NodeId::Relay(relay), round)
    }

    /// Schedules a recovery of regional relay `relay` at the start of
    /// `round`. Re-homed platforms return at the next round boundary.
    pub fn recover_relay(self, relay: usize, round: u64) -> Self {
        self.recover(NodeId::Relay(relay), round)
    }

    /// Partitions region `region` of `topo` from the rest of the world
    /// from the start of `down_round` until the start of `up_round`:
    /// every directed edge crossing the region boundary — its relay ↔
    /// server backbone, its platforms' direct server links, and its
    /// platforms' cross-region relay links — goes down. Intra-region
    /// edges (platform ↔ home relay) stay up, so the region keeps
    /// talking to itself but nobody can reach it.
    pub fn partition_region(
        mut self,
        topo: &crate::topology::HierTopology,
        region: usize,
        down_round: u64,
        up_round: u64,
    ) -> Self {
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        let relay = NodeId::Relay(region);
        edges.push((relay, NodeId::Server));
        edges.push((NodeId::Server, relay));
        for pid in topo.region_platforms(region) {
            let p = NodeId::Platform(pid);
            edges.push((p, NodeId::Server));
            edges.push((NodeId::Server, p));
            for r in 0..topo.regions() {
                if r != region {
                    edges.push((p, NodeId::Relay(r)));
                    edges.push((NodeId::Relay(r), p));
                }
            }
        }
        for (src, dst) in edges {
            self = self.flap(src, dst, down_round, up_round);
        }
        self
    }

    /// Schedules a dispatch-link flap for one replica: the router →
    /// replica link is down from the start of `down_tick` until the start
    /// of `up_tick` (the replica itself stays up and can still answer
    /// in-flight work).
    pub fn flap_replica_link(self, replica: usize, down_tick: u64, up_tick: u64) -> Self {
        self.flap(NodeId::Server, NodeId::Replica(replica), down_tick, up_tick)
    }

    /// Schedules a link flap: `src → dst` down from the start of
    /// `down_round` until the start of `up_round`.
    pub fn flap(mut self, src: NodeId, dst: NodeId, down_round: u64, up_round: u64) -> Self {
        self.events.push(ChaosEvent::LinkDown {
            round: down_round,
            src,
            dst,
        });
        self.events.push(ChaosEvent::LinkUp {
            round: up_round,
            src,
            dst,
        });
        self
    }

    /// The faults configured for the directed link `src → dst`.
    pub fn link_faults(&self, src: NodeId, dst: NodeId) -> LinkFaults {
        self.links
            .iter()
            .find(|((s, d), _)| *s == src && *d == dst)
            .map(|(_, f)| *f)
            .unwrap_or(self.default_link)
    }
}

/// Injection counters, one per fault mechanism. All counts are of
/// *injections performed*, observable regardless of what the receiver
/// later does with the message.
#[derive(Debug, Default)]
pub struct ChaosStats {
    dropped: AtomicU64,
    duplicated: AtomicU64,
    reordered: AtomicU64,
    corrupted: AtomicU64,
    link_dropped: AtomicU64,
    peer_down_sends: AtomicU64,
    to_down_dropped: AtomicU64,
}

/// A point-in-time copy of [`ChaosStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosSnapshot {
    /// Messages lost to random drop.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages held back for adjacent-pair reordering.
    pub reordered: u64,
    /// Messages with a flipped payload byte.
    pub corrupted: u64,
    /// Messages lost to a flapped (down) link.
    pub link_dropped: u64,
    /// Sends rejected with [`NetError::PeerDown`] because the sender is
    /// crashed.
    pub peer_down_sends: u64,
    /// Messages silently dropped because the *destination* is crashed.
    pub to_down_dropped: u64,
}

impl ChaosSnapshot {
    /// Total injections of any kind.
    pub fn total(&self) -> u64 {
        self.dropped
            + self.duplicated
            + self.reordered
            + self.corrupted
            + self.link_dropped
            + self.peer_down_sends
            + self.to_down_dropped
    }
}

struct ChaosState {
    rng: ChaosRng,
    down_nodes: HashSet<NodeId>,
    down_links: HashSet<(NodeId, NodeId)>,
    /// A message held back by a reorder fault, delivered after the next
    /// send (or by [`ChaosTransport::flush`]).
    stash: Option<Envelope>,
    next_seq: u64,
    applied_events: usize,
}

/// A transport decorator that injects the faults of a [`FaultPlan`].
///
/// Sequence numbers are stamped on every message at send time (a single
/// monotonic counter), duplicated deliveries share the original's
/// sequence number — which is how a receiver tells an injected
/// duplicate (same `seq`) from a sender retry (fresh `seq`).
pub struct ChaosTransport<T> {
    inner: T,
    plan: FaultPlan,
    state: Mutex<ChaosState>,
    stats: ChaosStats,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps `inner` with the given plan. No events are applied until
    /// [`begin_round`](Self::begin_round) is called.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        let rng = ChaosRng::new(plan.seed);
        ChaosTransport {
            inner,
            plan,
            state: Mutex::new(ChaosState {
                rng,
                down_nodes: HashSet::new(),
                down_links: HashSet::new(),
                stash: None,
                next_seq: 1,
                applied_events: 0,
            }),
            stats: ChaosStats::default(),
        }
    }

    /// Access to the wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Applies every scheduled event with `event.round == round` (in
    /// plan order) and returns them, so the driver can react — e.g.
    /// restore a recovering platform from its last checkpoint. Also
    /// flushes any message still held by a reorder fault, so nothing
    /// leaks across round boundaries.
    pub fn begin_round(&self, round: u64) -> Vec<ChaosEvent> {
        self.flush();
        let mut state = self.state.lock();
        let mut applied = Vec::new();
        for event in &self.plan.events {
            match *event {
                ChaosEvent::Crash { round: r, node } if r == round => {
                    state.down_nodes.insert(node);
                    applied.push(*event);
                }
                ChaosEvent::Recover { round: r, node } if r == round => {
                    state.down_nodes.remove(&node);
                    applied.push(*event);
                }
                ChaosEvent::LinkDown { round: r, src, dst } if r == round => {
                    state.down_links.insert((src, dst));
                    applied.push(*event);
                }
                ChaosEvent::LinkUp { round: r, src, dst } if r == round => {
                    state.down_links.remove(&(src, dst));
                    applied.push(*event);
                }
                _ => {}
            }
        }
        state.applied_events += applied.len();
        applied
    }

    /// Whether `node` is currently crashed.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.state.lock().down_nodes.contains(&node)
    }

    /// Whether the directed link `src → dst` is currently flapped down.
    pub fn link_down(&self, src: NodeId, dst: NodeId) -> bool {
        self.state.lock().down_links.contains(&(src, dst))
    }

    /// Delivers any message still held back by a reorder fault. Drivers
    /// call this at phase boundaries so a held message can never be
    /// reordered past the point where anyone still waits for it.
    pub fn flush(&self) {
        let held = self.state.lock().stash.take();
        if let Some(env) = held {
            let _ = self.inner.send(env);
        }
    }

    /// Injection counters.
    pub fn chaos_stats(&self) -> ChaosSnapshot {
        ChaosSnapshot {
            dropped: self.stats.dropped.load(Ordering::Relaxed),
            duplicated: self.stats.duplicated.load(Ordering::Relaxed),
            reordered: self.stats.reordered.load(Ordering::Relaxed),
            corrupted: self.stats.corrupted.load(Ordering::Relaxed),
            link_dropped: self.stats.link_dropped.load(Ordering::Relaxed),
            peer_down_sends: self.stats.peer_down_sends.load(Ordering::Relaxed),
            to_down_dropped: self.stats.to_down_dropped.load(Ordering::Relaxed),
        }
    }

    /// A deterministic backoff jitter factor in `[0.5, 1.0)`, drawn from
    /// the plan's RNG so retrying senders desynchronise without
    /// sacrificing replayability.
    pub fn backoff_jitter(&self) -> f64 {
        0.5 + self.state.lock().rng.next_f64() / 2.0
    }

    fn bump(counter: &AtomicU64, name: &str) {
        counter.fetch_add(1, Ordering::Relaxed);
        if medsplit_telemetry::enabled() {
            medsplit_telemetry::counter_add(name, 1);
        }
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn send(&self, mut env: Envelope) -> Result<(), NetError> {
        let mut state = self.state.lock();
        if state.down_nodes.contains(&env.src) {
            Self::bump(&self.stats.peer_down_sends, "chaos.peer_down_sends");
            return Err(NetError::PeerDown(env.src.to_string()));
        }
        env.seq = state.next_seq;
        state.next_seq += 1;

        let faults = self.plan.link_faults(env.src, env.dst);
        if faults.extra_delay_s > 0.0 {
            self.inner.stats().advance_clock(env.src, faults.extra_delay_s);
        }

        // Messages to a crashed destination or over a flapped link are
        // transmitted (the sender pays the bytes via the accounting in
        // the drop path below would be wrong — a down *link* transmits
        // nothing) — semantics per case:
        if state.down_nodes.contains(&env.dst) {
            // The sender cannot know the peer is gone: bytes are spent.
            Self::bump(&self.stats.to_down_dropped, "chaos.to_down_dropped");
            self.inner.stats().on_send(&env, None);
            return Ok(());
        }
        if state.down_links.contains(&(env.src, env.dst)) {
            Self::bump(&self.stats.link_dropped, "chaos.link_dropped");
            self.inner.stats().on_send(&env, None);
            return Ok(());
        }

        // Draw all four fault decisions up front, in a fixed order, so
        // the consumed RNG stream is independent of which faults fire.
        let dropped = state.rng.chance(faults.drop_p);
        let corrupted = state.rng.chance(faults.corrupt_p);
        let duplicated = state.rng.chance(faults.dup_p);
        let reordered = state.rng.chance(faults.reorder_p);
        let corrupt_at = state.rng.next_u64();

        if dropped {
            Self::bump(&self.stats.dropped, "chaos.dropped");
            // Lost in flight, but the sender still transmitted it: charge
            // the bytes so retry overhead shows up in the wire accounting.
            self.inner.stats().on_send(&env, None);
            let held = state.stash.take();
            drop(state);
            if let Some(prev) = held {
                self.inner.send(prev)?;
            }
            return Ok(());
        }

        if corrupted && !env.payload.is_empty() {
            Self::bump(&self.stats.corrupted, "chaos.corrupted");
            let mut bytes = env.payload.to_vec();
            let at = (corrupt_at as usize) % bytes.len();
            bytes[at] ^= 0x01 << (corrupt_at % 8);
            env.payload = Bytes::from(bytes);
            // env.checksum is deliberately left stale: the receiver's
            // verify_checksum() is how corruption is *detected*.
        }

        let held = state.stash.take();
        if reordered {
            Self::bump(&self.stats.reordered, "chaos.reordered");
            state.stash = Some(env.clone());
            drop(state);
            if duplicated {
                Self::bump(&self.stats.duplicated, "chaos.duplicated");
                self.inner.send(env)?;
            }
        } else {
            drop(state);
            self.inner.send(env.clone())?;
            if duplicated {
                Self::bump(&self.stats.duplicated, "chaos.duplicated");
                self.inner.send(env)?;
            }
        }
        if let Some(prev) = held {
            self.inner.send(prev)?;
        }
        Ok(())
    }

    fn try_recv(&self, node: NodeId) -> Option<Envelope> {
        self.inner.try_recv(node)
    }

    fn recv_timeout(&self, node: NodeId, timeout: Duration) -> Result<Envelope, NetError> {
        self.inner.recv_timeout(node, timeout)
    }

    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }

    fn shutdown(&self) {
        self.inner.shutdown()
    }
}

impl<T> std::fmt::Debug for ChaosTransport<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosTransport")
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageKind;
    use crate::topology::StarTopology;
    use crate::transport::MemoryTransport;

    fn env(src: NodeId, round: u64) -> Envelope {
        Envelope::new(
            src,
            NodeId::Server,
            round,
            MessageKind::Control,
            Bytes::from(vec![0xAB; 16]),
        )
    }

    fn chaos(plan: FaultPlan) -> ChaosTransport<MemoryTransport> {
        ChaosTransport::new(MemoryTransport::new(StarTopology::new(3)), plan)
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = ChaosRng::new(7);
        let mut b = ChaosRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = ChaosRng::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
        let f = ChaosRng::new(3).next_f64();
        assert!((0.0..1.0).contains(&f));
    }

    #[test]
    fn healthy_plan_delivers_everything_with_sequence_numbers() {
        let t = chaos(FaultPlan::new(1));
        for i in 0..5 {
            t.send(env(NodeId::Platform(0), i)).unwrap();
        }
        for i in 0..5 {
            let got = t.try_recv(NodeId::Server).unwrap();
            assert_eq!(got.round, i);
            assert_eq!(got.seq, i + 1, "monotonic stamped seq");
            assert!(got.verify_checksum());
        }
        assert_eq!(t.chaos_stats().total(), 0);
    }

    #[test]
    fn drop_all_loses_messages_but_charges_bytes() {
        let t = chaos(FaultPlan::new(2).with_drop(1.0));
        t.send(env(NodeId::Platform(0), 0)).unwrap();
        assert!(t.try_recv(NodeId::Server).is_none());
        assert_eq!(t.chaos_stats().dropped, 1);
        // The sender transmitted the bytes even though they were lost.
        assert_eq!(t.stats().snapshot().messages, 1);
    }

    #[test]
    fn corruption_is_detectable_not_silent() {
        let t = chaos(FaultPlan::new(3).with_corrupt(1.0));
        t.send(env(NodeId::Platform(0), 0)).unwrap();
        let got = t.try_recv(NodeId::Server).unwrap();
        assert!(!got.verify_checksum(), "stale checksum must expose the flip");
        assert_eq!(t.chaos_stats().corrupted, 1);
    }

    #[test]
    fn duplicates_share_the_original_sequence_number() {
        let t = chaos(FaultPlan::new(4).with_dup(1.0));
        t.send(env(NodeId::Platform(0), 0)).unwrap();
        let a = t.try_recv(NodeId::Server).unwrap();
        let b = t.try_recv(NodeId::Server).unwrap();
        assert_eq!(a.seq, b.seq);
        assert_eq!(t.chaos_stats().duplicated, 1);
    }

    #[test]
    fn reorder_swaps_adjacent_messages_and_flush_drains() {
        let t = chaos(FaultPlan::new(5).with_reorder(1.0));
        t.send(env(NodeId::Platform(0), 0)).unwrap();
        t.send(env(NodeId::Platform(1), 1)).unwrap();
        t.flush();
        // Every message is eventually delivered exactly once.
        let mut rounds: Vec<u64> = (0..2)
            .map(|_| t.try_recv(NodeId::Server).unwrap().round)
            .collect();
        assert!(t.try_recv(NodeId::Server).is_none());
        rounds.sort_unstable();
        assert_eq!(rounds, vec![0, 1]);
        assert!(t.chaos_stats().reordered >= 1);
    }

    #[test]
    fn crash_and_recover_events_apply_at_round_boundaries() {
        let plan = FaultPlan::new(6)
            .crash(NodeId::Platform(1), 2)
            .recover(NodeId::Platform(1), 4);
        let t = chaos(plan);
        assert!(t.begin_round(0).is_empty());
        assert!(!t.is_down(NodeId::Platform(1)));
        t.send(env(NodeId::Platform(1), 0)).unwrap();

        let applied = t.begin_round(2);
        assert_eq!(applied.len(), 1);
        assert!(t.is_down(NodeId::Platform(1)));
        // Sends from the crashed node fail fast instead of blocking the
        // peer for a full receive timeout, and transmit nothing: no
        // bytes, no message, no clock.
        let before = t.stats().snapshot();
        assert!(matches!(
            t.send(env(NodeId::Platform(1), 2)),
            Err(NetError::PeerDown(_))
        ));
        assert_eq!(t.stats().snapshot(), before);
        // Sends *to* the crashed node vanish (but are charged).
        let to_dead = Envelope::control(NodeId::Server, NodeId::Platform(1), 2);
        t.send(to_dead).unwrap();
        assert_eq!(t.chaos_stats().to_down_dropped, 1);

        t.begin_round(4);
        assert!(!t.is_down(NodeId::Platform(1)));
        t.send(env(NodeId::Platform(1), 4)).unwrap();
    }

    #[test]
    fn replica_fault_plan_crashes_and_recovers_replicas() {
        let plan = FaultPlan::new(11)
            .crash_replica(1, 3)
            .recover_replica(1, 5)
            .flap_replica_link(0, 2, 4);
        let t = ChaosTransport::new(
            MemoryTransport::new(crate::topology::FleetTopology::new(1, 2)),
            plan,
        );
        t.begin_round(2);
        assert!(t.link_down(NodeId::Server, NodeId::Replica(0)));
        assert!(!t.is_down(NodeId::Replica(1)));
        t.begin_round(3);
        assert!(t.is_down(NodeId::Replica(1)));
        // Sends from a crashed replica fail fast.
        assert!(matches!(
            t.send(Envelope::control(NodeId::Replica(1), NodeId::Platform(0), 3)),
            Err(NetError::PeerDown(_))
        ));
        t.begin_round(4);
        assert!(!t.link_down(NodeId::Server, NodeId::Replica(0)));
        t.begin_round(5);
        assert!(!t.is_down(NodeId::Replica(1)));
        // A recovered replica's handoff traffic flows over the LAN edge.
        t.send(Envelope::new(
            NodeId::Replica(0),
            NodeId::Replica(1),
            5,
            MessageKind::SessionHandoff,
            Bytes::from(vec![1u8; 8]),
        ))
        .unwrap();
        let got = t.try_recv(NodeId::Replica(1)).unwrap();
        assert_eq!(got.kind, MessageKind::SessionHandoff);
    }

    #[test]
    fn relay_fault_plan_crashes_and_recovers_relays() {
        let plan = FaultPlan::new(12).crash_relay(1, 2).recover_relay(1, 4);
        let t = ChaosTransport::new(
            MemoryTransport::new(crate::topology::HierTopology::new(2, 2)),
            plan,
        );
        t.begin_round(1);
        assert!(!t.is_down(NodeId::Relay(1)));
        t.begin_round(2);
        assert!(t.is_down(NodeId::Relay(1)));
        assert!(matches!(
            t.send(Envelope::control(NodeId::Relay(1), NodeId::Server, 2)),
            Err(NetError::PeerDown(_))
        ));
        t.begin_round(4);
        assert!(!t.is_down(NodeId::Relay(1)));
        t.send(Envelope::control(NodeId::Relay(1), NodeId::Server, 4))
            .unwrap();
    }

    #[test]
    fn region_partition_downs_exactly_the_boundary_edges() {
        let topo = crate::topology::HierTopology::new(2, 2);
        let plan = FaultPlan::new(13).partition_region(&topo, 1, 2, 3);
        let t = ChaosTransport::new(MemoryTransport::new(topo), plan);
        t.begin_round(2);
        // Region 1 = platforms 2,3 behind relay 1. Boundary edges down:
        assert!(t.link_down(NodeId::Relay(1), NodeId::Server));
        assert!(t.link_down(NodeId::Server, NodeId::Relay(1)));
        assert!(t.link_down(NodeId::Platform(2), NodeId::Server));
        assert!(t.link_down(NodeId::Server, NodeId::Platform(3)));
        assert!(t.link_down(NodeId::Platform(2), NodeId::Relay(0)));
        assert!(t.link_down(NodeId::Relay(0), NodeId::Platform(3)));
        // Intra-region and foreign edges stay up.
        assert!(!t.link_down(NodeId::Platform(2), NodeId::Relay(1)));
        assert!(!t.link_down(NodeId::Relay(1), NodeId::Platform(3)));
        assert!(!t.link_down(NodeId::Platform(0), NodeId::Server));
        assert!(!t.link_down(NodeId::Relay(0), NodeId::Server));
        // Heals at up_round.
        t.begin_round(3);
        assert!(!t.link_down(NodeId::Relay(1), NodeId::Server));
        assert!(!t.link_down(NodeId::Platform(2), NodeId::Server));
    }

    #[test]
    fn link_flap_drops_only_the_flapped_direction() {
        let plan = FaultPlan::new(7).flap(NodeId::Platform(0), NodeId::Server, 1, 2);
        let t = chaos(plan);
        t.begin_round(1);
        assert!(t.link_down(NodeId::Platform(0), NodeId::Server));
        t.send(env(NodeId::Platform(0), 1)).unwrap();
        t.send(env(NodeId::Platform(1), 1)).unwrap();
        let got = t.try_recv(NodeId::Server).unwrap();
        assert_eq!(got.src, NodeId::Platform(1));
        assert!(t.try_recv(NodeId::Server).is_none());
        assert_eq!(t.chaos_stats().link_dropped, 1);
        t.begin_round(2);
        assert!(!t.link_down(NodeId::Platform(0), NodeId::Server));
    }

    #[test]
    fn straggler_pays_extra_clock_delay() {
        let t = chaos(FaultPlan::new(8).straggler(NodeId::Platform(2), 2.5));
        t.send(env(NodeId::Platform(2), 0)).unwrap();
        assert!(t.stats().clock(NodeId::Platform(2)) >= 2.5);
        t.send(env(NodeId::Platform(0), 0)).unwrap();
        assert_eq!(t.stats().clock(NodeId::Platform(0)), 0.0);
        // The delay reaches the receiver: the server cannot read the
        // straggler's message before it left.
        assert_eq!(t.try_recv(NodeId::Server).unwrap().src, NodeId::Platform(2));
        assert!(t.stats().clock(NodeId::Server) >= 2.5);
    }

    #[test]
    fn equal_plans_replay_bit_identically() {
        let plan = FaultPlan::new(42)
            .with_drop(0.3)
            .with_dup(0.2)
            .with_reorder(0.2)
            .with_corrupt(0.2);
        type Run = (Vec<(u64, u64, bool)>, ChaosSnapshot);
        let runs: Vec<Run> = (0..2)
            .map(|_| {
                let t = chaos(plan.clone());
                for i in 0u64..50 {
                    let _ = t.send(env(NodeId::Platform(i as usize % 3), i));
                }
                t.flush();
                let mut delivered = Vec::new();
                while let Some(e) = t.try_recv(NodeId::Server) {
                    delivered.push((e.round, e.seq, e.verify_checksum()));
                }
                (delivered, t.chaos_stats())
            })
            .collect();
        assert_eq!(runs[0], runs[1], "same seed ⇒ same faults, same deliveries");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let a = chaos(FaultPlan::new(9));
        let b = chaos(FaultPlan::new(9));
        for _ in 0..20 {
            let x = a.backoff_jitter();
            assert_eq!(x, b.backoff_jitter());
            assert!((0.5..1.0).contains(&x));
        }
    }
}
