//! Message transports.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

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
    /// A blocking receive gave up (peer shut down or timed out).
    Disconnected(String),
    /// The sending node is known to be crashed, so the send can fail
    /// fast instead of letting the peer block a full receive timeout on
    /// a message that will never arrive.
    PeerDown(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownNode(n) => write!(f, "unknown node: {n}"),
            NetError::Disconnected(msg) => write!(f, "disconnected: {msg}"),
            NetError::PeerDown(n) => write!(f, "peer down: {n}"),
        }
    }
}

impl std::error::Error for NetError {}

/// The blocking-receive timeout shared by every threaded runtime
/// (split training and serving), read once from the
/// `MEDSPLIT_RECV_TIMEOUT_S` environment variable (seconds, integer or
/// fractional) with a 60 s default. One shared, overridable constant
/// replaces the hard-codes that used to be duplicated per runtime.
///
/// # Panics
///
/// A set-but-unparsable value is a configuration error, not a request
/// for the default: this panics naming the bad value rather than
/// silently training with a timeout the operator did not ask for.
pub fn recv_timeout_default() -> Duration {
    use std::sync::OnceLock;
    static TIMEOUT: OnceLock<Duration> = OnceLock::new();
    *TIMEOUT.get_or_init(|| match std::env::var("MEDSPLIT_RECV_TIMEOUT_S") {
        Err(std::env::VarError::NotPresent) => Duration::from_secs(60),
        Err(std::env::VarError::NotUnicode(raw)) => {
            panic!("MEDSPLIT_RECV_TIMEOUT_S={raw:?} is not valid unicode")
        }
        Ok(raw) => match parse_recv_timeout(&raw) {
            Ok(d) => d,
            Err(e) => panic!("{e}"),
        },
    })
}

/// Parses a `MEDSPLIT_RECV_TIMEOUT_S` value. Split out of
/// [`recv_timeout_default`] so the rejection paths are testable without
/// tripping the process-wide `OnceLock`.
fn parse_recv_timeout(raw: &str) -> Result<Duration, String> {
    let secs: f64 = raw
        .trim()
        .parse()
        .map_err(|_| format!("MEDSPLIT_RECV_TIMEOUT_S={raw:?} is not a number of seconds"))?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err(format!(
            "MEDSPLIT_RECV_TIMEOUT_S={raw:?} must be a positive finite number of seconds"
        ));
    }
    Ok(Duration::from_secs_f64(secs))
}

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
    /// topology, or [`NetError::Disconnected`] after
    /// [`shutdown`](Transport::shutdown).
    fn send(&self, env: Envelope) -> Result<(), NetError>;

    /// Non-blocking receive of the next message queued for `node`.
    fn try_recv(&self, node: NodeId) -> Option<Envelope>;

    /// Blocking receive with a timeout.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] on timeout or shutdown with an
    /// empty queue.
    fn recv_timeout(&self, node: NodeId, timeout: Duration) -> Result<Envelope, NetError>;

    /// The shared statistics.
    fn stats(&self) -> &NetStats;

    /// Wakes all blocked receivers and makes further blocking receives on
    /// empty queues fail fast.
    fn shutdown(&self);

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

struct Inboxes {
    queues: HashMap<NodeId, VecDeque<(Envelope, f64)>>,
    shut_down: bool,
}

/// The in-memory transport: per-node FIFO inboxes guarded by a single
/// lock, with a condition variable for the threaded runtime. Used both by
/// the deterministic single-threaded trainers and (via `Arc`) by the
/// thread-per-node serving runtime.
///
/// Generic over the [`Topology`] it routes over; the default keeps the
/// paper's star so existing call sites read unchanged.
pub struct MemoryTransport<Topo: Topology = StarTopology> {
    topology: Topo,
    inboxes: Mutex<Inboxes>,
    available: Condvar,
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
            inboxes: Mutex::new(Inboxes {
                queues,
                shut_down: false,
            }),
            available: Condvar::new(),
            stats: NetStats::new(),
        }
    }

    /// Convenience: a shareable transport.
    pub fn shared(topology: Topo) -> Arc<Self> {
        Arc::new(Self::new(topology))
    }

    /// The topology this transport routes over.
    pub fn topology(&self) -> &Topo {
        &self.topology
    }

    /// Number of messages currently queued for `node`.
    pub fn queued(&self, node: NodeId) -> usize {
        self.inboxes.lock().queues.get(&node).map_or(0, VecDeque::len)
    }
}

impl<Topo: Topology> Transport for MemoryTransport<Topo> {
    fn send(&self, env: Envelope) -> Result<(), NetError> {
        let link = self.topology.link(env.src, env.dst);
        // Messages between non-adjacent nodes are a protocol bug; messages
        // to unknown nodes are an error either way.
        let mut inboxes = self.inboxes.lock();
        if inboxes.shut_down {
            return Err(NetError::Disconnected("transport shut down".into()));
        }
        let arrival = self.stats.on_send(&env, link);
        let dst = env.dst;
        match inboxes.queues.get_mut(&dst) {
            Some(q) => {
                q.push_back((env, arrival));
                drop(inboxes);
                self.available.notify_all();
                Ok(())
            }
            None => Err(NetError::UnknownNode(dst.to_string())),
        }
    }

    fn try_recv(&self, node: NodeId) -> Option<Envelope> {
        let mut inboxes = self.inboxes.lock();
        let (env, arrival) = inboxes.queues.get_mut(&node)?.pop_front()?;
        drop(inboxes);
        self.stats.on_receive(node, arrival);
        Some(env)
    }

    fn recv_timeout(&self, node: NodeId, timeout: Duration) -> Result<Envelope, NetError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut inboxes = self.inboxes.lock();
        loop {
            if let Some(q) = inboxes.queues.get_mut(&node) {
                if let Some((env, arrival)) = q.pop_front() {
                    drop(inboxes);
                    self.stats.on_receive(node, arrival);
                    return Ok(env);
                }
            } else {
                return Err(NetError::UnknownNode(node.to_string()));
            }
            if inboxes.shut_down {
                return Err(NetError::Disconnected("transport shut down".into()));
            }
            if self.available.wait_until(&mut inboxes, deadline).timed_out() {
                return Err(NetError::Disconnected(format!("recv timeout on {node}")));
            }
        }
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn shutdown(&self) {
        self.inboxes.lock().shut_down = true;
        self.available.notify_all();
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
    fn recv_timeout_times_out() {
        let t = MemoryTransport::new(StarTopology::new(1));
        let err = t
            .recv_timeout(NodeId::Server, Duration::from_millis(10))
            .unwrap_err();
        assert!(matches!(err, NetError::Disconnected(_)));
    }

    #[test]
    fn blocking_recv_across_threads() {
        let t = MemoryTransport::shared(StarTopology::new(1));
        let t2 = Arc::clone(&t);
        let handle =
            std::thread::spawn(move || t2.recv_timeout(NodeId::Server, Duration::from_secs(5)).unwrap());
        std::thread::sleep(Duration::from_millis(20));
        t.send(env(NodeId::Platform(0), NodeId::Server)).unwrap();
        let got = handle.join().unwrap();
        assert_eq!(got.src, NodeId::Platform(0));
    }

    #[test]
    fn shutdown_wakes_receivers_and_blocks_sends() {
        let t = MemoryTransport::shared(StarTopology::new(1));
        let t2 = Arc::clone(&t);
        let handle = std::thread::spawn(move || t2.recv_timeout(NodeId::Server, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        t.shutdown();
        assert!(handle.join().unwrap().is_err());
        assert!(t.send(env(NodeId::Platform(0), NodeId::Server)).is_err());
    }

    #[test]
    fn recv_timeout_default_is_positive_and_cached() {
        let a = recv_timeout_default();
        assert!(a > Duration::ZERO);
        // OnceLock: the value is stable for the life of the process.
        assert_eq!(a, recv_timeout_default());
    }

    #[test]
    fn recv_timeout_parse_accepts_numbers_and_names_bad_values() {
        assert_eq!(parse_recv_timeout("30"), Ok(Duration::from_secs(30)));
        assert_eq!(parse_recv_timeout(" 0.5 "), Ok(Duration::from_secs_f64(0.5)));
        for bad in ["", "abc", "10s", "1e999", "nan", "-1", "0", "inf"] {
            let err = parse_recv_timeout(bad).unwrap_err();
            assert!(
                err.contains(&format!("{bad:?}")),
                "error must name the bad value: {err}"
            );
        }
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
