//! Message transports.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use parking_lot::Mutex;

use crate::chaos::ChaosEvent;
use crate::message::Envelope;
use crate::node::NodeId;
use crate::stats::NetStats;
use crate::topology::{StarTopology, Topology};

/// Errors from transport operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The destination node is not part of the topology.
    UnknownNode(String),
    /// The sending node is known to be crashed, so the send fails fast
    /// instead of vanishing.
    PeerDown(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownNode(n) => write!(f, "unknown node: {n}"),
            NetError::PeerDown(n) => write!(f, "peer down: {n}"),
        }
    }
}

impl std::error::Error for NetError {}

/// A message transport between the nodes of a topology.
///
/// All sends are accounted in the shared [`NetStats`]; payload bytes are
/// counted exactly as serialised.
pub trait Transport: Send + Sync {
    /// Sends a message. Never blocks.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownNode`] if the destination is not in the
    /// topology.
    fn send(&self, env: Envelope) -> Result<(), NetError>;

    /// Non-blocking receive of the next message queued for `node`.
    fn try_recv(&self, node: NodeId) -> Option<Envelope>;

    /// The shared statistics.
    fn stats(&self) -> &NetStats;

    // The fault view a round engine reads. The defaults describe an
    // empty fault plan: no events, nothing down, nothing held back, so a
    // plain transport is a fault-free run. `ChaosTransport` overrides
    // them with its plan.

    /// Applies the faults scheduled for the start of `round` and returns
    /// them.
    fn begin_round(&self, _round: u64) -> Vec<ChaosEvent> {
        Vec::new()
    }

    /// Whether `node` is crashed.
    fn is_down(&self, _node: NodeId) -> bool {
        false
    }

    /// Whether the directed link `src → dst` is down.
    fn link_down(&self, _src: NodeId, _dst: NodeId) -> bool {
        false
    }

    /// Delivers any message a fault is holding back.
    fn flush(&self) {}

    /// The factor a retry's backoff delay is scaled by.
    fn backoff_jitter(&self) -> f64 {
        1.0
    }

    /// Whether the fault plan schedules any platform crash or recovery,
    /// i.e. whether a platform may ever need restoring.
    fn schedules_platform_crashes(&self) -> bool {
        false
    }
}

/// The in-memory transport: per-node FIFO inboxes guarded by a single
/// lock, so a shared reference can send and receive.
///
/// Generic over the [`Topology`] it routes over; the default keeps the
/// paper's star so existing call sites read unchanged.
pub struct MemoryTransport<Topo: Topology = StarTopology> {
    topology: Topo,
    inboxes: Mutex<HashMap<NodeId, VecDeque<(Envelope, f64)>>>,
    stats: NetStats,
}

impl<Topo: Topology> MemoryTransport<Topo> {
    /// Creates a transport for the given topology.
    pub fn new(topology: Topo) -> Self {
        let mut queues = HashMap::new();
        for node in topology.nodes() {
            queues.insert(node, VecDeque::new());
        }
        MemoryTransport {
            topology,
            inboxes: Mutex::new(queues),
            stats: NetStats::new(),
        }
    }

    /// The topology this transport routes over.
    pub fn topology(&self) -> &Topo {
        &self.topology
    }

    /// Number of messages currently queued for `node`.
    pub fn queued(&self, node: NodeId) -> usize {
        self.inboxes.lock().get(&node).map_or(0, VecDeque::len)
    }
}

impl<Topo: Topology> Transport for MemoryTransport<Topo> {
    fn send(&self, env: Envelope) -> Result<(), NetError> {
        let link = self.topology.link(env.src, env.dst);
        // Messages between non-adjacent nodes are a protocol bug; messages
        // to unknown nodes are an error either way.
        let mut inboxes = self.inboxes.lock();
        let arrival = self.stats.on_send(&env, link);
        let dst = env.dst;
        match inboxes.get_mut(&dst) {
            Some(q) => {
                q.push_back((env, arrival));
                Ok(())
            }
            None => Err(NetError::UnknownNode(dst.to_string())),
        }
    }

    fn try_recv(&self, node: NodeId) -> Option<Envelope> {
        let mut inboxes = self.inboxes.lock();
        let (env, arrival) = inboxes.get_mut(&node)?.pop_front()?;
        drop(inboxes);
        self.stats.on_receive(node, arrival);
        Some(env)
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }
}

impl<Topo: Topology + fmt::Debug> fmt::Debug for MemoryTransport<Topo> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryTransport")
            .field("topology", &self.topology)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageKind;
    use bytes::Bytes;

    fn env(src: NodeId, dst: NodeId) -> Envelope {
        Envelope::new(src, dst, 0, MessageKind::Control, Bytes::from_static(b"x"))
    }

    #[test]
    fn send_recv_fifo() {
        let t = MemoryTransport::new(StarTopology::new(2));
        t.send(env(NodeId::Platform(0), NodeId::Server)).unwrap();
        let mut e2 = env(NodeId::Platform(1), NodeId::Server);
        e2.round = 7;
        t.send(e2).unwrap();
        assert_eq!(t.queued(NodeId::Server), 2);
        let first = t.try_recv(NodeId::Server).unwrap();
        assert_eq!(first.src, NodeId::Platform(0));
        let second = t.try_recv(NodeId::Server).unwrap();
        assert_eq!(second.round, 7);
        assert!(t.try_recv(NodeId::Server).is_none());
    }

    #[test]
    fn unknown_destination_rejected() {
        let t = MemoryTransport::new(StarTopology::new(1));
        let err = t.send(env(NodeId::Server, NodeId::Platform(5))).unwrap_err();
        assert!(matches!(err, NetError::UnknownNode(_)));
    }

    #[test]
    fn stats_account_sends() {
        let t = MemoryTransport::new(StarTopology::new(1));
        t.send(env(NodeId::Platform(0), NodeId::Server)).unwrap();
        let snap = t.stats().snapshot();
        assert_eq!(snap.messages, 1);
        assert_eq!(snap.total_bytes, 65);
    }

    #[test]
    fn receive_advances_clock() {
        let t = MemoryTransport::new(StarTopology::new(1));
        let mut e = env(NodeId::Platform(0), NodeId::Server);
        e.payload = Bytes::from(vec![0u8; 1_000_000]);
        t.send(e).unwrap();
        let _ = t.try_recv(NodeId::Server).unwrap();
        // WAN: 30 ms + 1 MB over 100 Mbit/s ≈ 0.08 s ⇒ ~0.11 s total.
        let clock = t.stats().clock(NodeId::Server);
        assert!(clock > 0.1 && clock < 0.12, "clock {clock}");
    }
}
