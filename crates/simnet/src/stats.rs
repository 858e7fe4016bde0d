//! Exact communication accounting and the simulated clock.
//!
//! Every byte the evaluation reports flows through [`NetStats::on_send`].
//! Simulated time uses a simple causal model: when `src` (whose local
//! clock reads `t_src`) sends `b` bytes over a link with latency `l` and
//! bandwidth `B`, the message *arrives* at `t_src + l + 8b/B`; the
//! receiver's clock advances to at least the arrival time when it consumes
//! the message. Local computation advances a node's clock via
//! [`NetStats::advance_clock`].

use std::collections::HashMap;

use parking_lot::Mutex;

use crate::link::LinkSpec;
use crate::message::{Envelope, MessageKind};
use crate::node::NodeId;

#[derive(Debug, Default)]
struct StatsInner {
    total_bytes: u64,
    logical_bytes: u64,
    messages: u64,
    by_kind: HashMap<MessageKind, u64>,
    msgs_by_kind: HashMap<MessageKind, u64>,
    uplink_bytes: u64,
    downlink_bytes: u64,
    clocks: HashMap<NodeId, f64>,
}

/// Thread-safe communication statistics shared by all nodes of a run.
#[derive(Debug, Default)]
pub struct NetStats {
    inner: Mutex<StatsInner>,
}

/// A point-in-time copy of the accumulated statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Total wire bytes sent (payload + framing).
    pub total_bytes: u64,
    /// Total *logical* bytes sent: what the same messages would have
    /// occupied with uncompressed f32 tensor payloads. Equal to
    /// `total_bytes` under the f32 codec; `total_bytes / logical_bytes`
    /// is the run's overall wire compression ratio.
    pub logical_bytes: u64,
    /// Total messages sent.
    pub messages: u64,
    /// Wire bytes per message kind.
    pub by_kind: Vec<(MessageKind, u64)>,
    /// Message counts per message kind.
    pub msgs_by_kind: Vec<(MessageKind, u64)>,
    /// Bytes sent platform → server.
    pub uplink_bytes: u64,
    /// Bytes sent server → platform.
    pub downlink_bytes: u64,
    /// The largest node clock: the simulated makespan in seconds.
    pub makespan_s: f64,
}

impl StatsSnapshot {
    /// Bytes for one kind (0 if absent).
    pub fn bytes_of(&self, kind: MessageKind) -> u64 {
        self.by_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, b)| *b)
            .unwrap_or(0)
    }

    /// Message count for one kind (0 if absent).
    pub fn messages_of(&self, kind: MessageKind) -> u64 {
        self.msgs_by_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }
}

impl NetStats {
    /// Fresh, zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a send and returns the message's arrival time at the
    /// destination under `link` (the sender's clock is *not* advanced:
    /// sends are modelled as asynchronous writes).
    pub fn on_send(&self, env: &Envelope, link: Option<LinkSpec>) -> f64 {
        let mut inner = self.inner.lock();
        let bytes = env.wire_size() as u64;
        let logical = env.logical_size() as u64;
        inner.total_bytes += bytes;
        inner.logical_bytes += logical;
        inner.messages += 1;
        *inner.by_kind.entry(env.kind).or_insert(0) += bytes;
        *inner.msgs_by_kind.entry(env.kind).or_insert(0) += 1;
        if medsplit_telemetry::enabled() {
            // Feed protocol-phase byte attribution into the telemetry
            // registry (names match the paper's four-message model plus
            // the auxiliary kinds). `net.bytes` counts logical
            // (f32-equivalent) bytes and `net.wire_bytes` what actually
            // crossed the wire, so a codec's compression ratio is read
            // directly off the pair instead of inferred across runs.
            medsplit_telemetry::counter_add(&format!("net.bytes.{}", env.kind.as_str()), logical);
            medsplit_telemetry::counter_add(&format!("net.wire_bytes.{}", env.kind.as_str()), bytes);
            medsplit_telemetry::counter_add(&format!("net.msgs.{}", env.kind.as_str()), 1);
        }
        match (env.src, env.dst) {
            (NodeId::Platform(_), NodeId::Server) => inner.uplink_bytes += bytes,
            (NodeId::Server, NodeId::Platform(_)) => inner.downlink_bytes += bytes,
            _ => {}
        }
        let t_src = inner.clocks.get(&env.src).copied().unwrap_or(0.0);
        match link {
            Some(l) => t_src + l.transfer_time(env.wire_size()),
            None => t_src,
        }
    }

    /// Advances the receiver's clock to at least `arrival` when a message
    /// is consumed.
    pub fn on_receive(&self, node: NodeId, arrival: f64) {
        let mut inner = self.inner.lock();
        let clock = inner.clocks.entry(node).or_insert(0.0);
        if arrival > *clock {
            *clock = arrival;
        }
    }

    /// Advances a node's clock by `seconds` of local computation.
    pub fn advance_clock(&self, node: NodeId, seconds: f64) {
        let mut inner = self.inner.lock();
        *inner.clocks.entry(node).or_insert(0.0) += seconds;
    }

    /// The node's current simulated clock.
    pub fn clock(&self, node: NodeId) -> f64 {
        self.inner.lock().clocks.get(&node).copied().unwrap_or(0.0)
    }

    /// Takes a consistent snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        let inner = self.inner.lock();
        let mut by_kind: Vec<(MessageKind, u64)> = inner.by_kind.iter().map(|(k, v)| (*k, *v)).collect();
        by_kind.sort_by_key(|(k, _)| *k);
        let mut msgs_by_kind: Vec<(MessageKind, u64)> =
            inner.msgs_by_kind.iter().map(|(k, v)| (*k, *v)).collect();
        msgs_by_kind.sort_by_key(|(k, _)| *k);
        StatsSnapshot {
            total_bytes: inner.total_bytes,
            logical_bytes: inner.logical_bytes,
            messages: inner.messages,
            by_kind,
            msgs_by_kind,
            uplink_bytes: inner.uplink_bytes,
            downlink_bytes: inner.downlink_bytes,
            makespan_s: inner.clocks.values().copied().fold(0.0, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn env(src: NodeId, dst: NodeId, kind: MessageKind, payload_len: usize) -> Envelope {
        Envelope::new(src, dst, 0, kind, Bytes::from(vec![0u8; payload_len]))
    }

    #[test]
    fn accounting_is_exact() {
        let stats = NetStats::new();
        let e1 = env(NodeId::Platform(0), NodeId::Server, MessageKind::Activations, 100);
        let e2 = env(NodeId::Server, NodeId::Platform(0), MessageKind::Logits, 36);
        stats.on_send(&e1, None);
        stats.on_send(&e2, None);
        let snap = stats.snapshot();
        assert_eq!(snap.total_bytes, (100 + 64 + 36 + 64) as u64);
        assert_eq!(snap.messages, 2);
        assert_eq!(snap.uplink_bytes, 164);
        assert_eq!(snap.downlink_bytes, 100);
        assert_eq!(snap.bytes_of(MessageKind::Activations), 164);
        assert_eq!(snap.bytes_of(MessageKind::Logits), 100);
        assert_eq!(snap.bytes_of(MessageKind::CutGrads), 0);
        assert_eq!(snap.messages_of(MessageKind::Activations), 1);
        assert_eq!(snap.messages_of(MessageKind::Logits), 1);
        assert_eq!(snap.messages_of(MessageKind::CutGrads), 0);
    }

    #[test]
    fn inference_kinds_accounted_exactly() {
        // Serving traffic must be charged HEADER_BYTES + payload, exactly,
        // and kept separate from training Activations/Logits.
        use crate::message::HEADER_BYTES;
        let stats = NetStats::new();
        let req = env(
            NodeId::Platform(2),
            NodeId::Server,
            MessageKind::InferRequest,
            777,
        );
        let resp = env(
            NodeId::Server,
            NodeId::Platform(2),
            MessageKind::InferResponse,
            40,
        );
        stats.on_send(&req, None);
        stats.on_send(&resp, None);
        let snap = stats.snapshot();
        assert_eq!(
            snap.bytes_of(MessageKind::InferRequest),
            (777 + HEADER_BYTES) as u64
        );
        assert_eq!(
            snap.bytes_of(MessageKind::InferResponse),
            (40 + HEADER_BYTES) as u64
        );
        assert_eq!(snap.bytes_of(MessageKind::Activations), 0);
        assert_eq!(snap.bytes_of(MessageKind::Logits), 0);
        assert_eq!(snap.uplink_bytes, (777 + HEADER_BYTES) as u64);
        assert_eq!(snap.downlink_bytes, (40 + HEADER_BYTES) as u64);
        assert_eq!(snap.total_bytes, (777 + 40 + 2 * HEADER_BYTES) as u64);
        assert_eq!(snap.messages, 2);
    }

    #[test]
    fn logical_bytes_track_f32_equivalent() {
        // Build a compressed f16 tensor payload by hand: [10] tensor,
        // 8-byte magic/rank + 8-byte dim + 10 × u16 data.
        let mut payload = Vec::new();
        payload.extend_from_slice(&0x4D54_5348u32.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&10u64.to_le_bytes());
        payload.extend_from_slice(&[0u8; 20]);
        let stats = NetStats::new();
        let e = Envelope::new(
            NodeId::Platform(0),
            NodeId::Server,
            0,
            MessageKind::Activations,
            Bytes::from(payload),
        );
        stats.on_send(&e, None);
        // An opaque control payload counts 1:1.
        let c = env(NodeId::Server, NodeId::Platform(0), MessageKind::Control, 5);
        stats.on_send(&c, None);
        let snap = stats.snapshot();
        assert_eq!(snap.total_bytes, (16 + 20 + 64 + 5 + 64) as u64);
        assert_eq!(snap.logical_bytes, (16 + 40 + 64 + 5 + 64) as u64);
    }

    #[test]
    fn logical_equals_wire_for_uncompressed_runs() {
        let stats = NetStats::new();
        stats.on_send(
            &env(NodeId::Platform(0), NodeId::Server, MessageKind::Activations, 128),
            None,
        );
        let snap = stats.snapshot();
        assert_eq!(snap.logical_bytes, snap.total_bytes);
    }

    #[test]
    fn clock_model_is_causal() {
        let stats = NetStats::new();
        let link = LinkSpec {
            bandwidth_bps: 8e6,
            latency_s: 0.01,
        };
        // Platform computes for 0.5 s, then sends 1 MB.
        stats.advance_clock(NodeId::Platform(0), 0.5);
        let e = env(
            NodeId::Platform(0),
            NodeId::Server,
            MessageKind::Activations,
            1_000_000 - 64,
        );
        let arrival = stats.on_send(&e, Some(link));
        assert!((arrival - (0.5 + 0.01 + 1.0)).abs() < 1e-9, "arrival {arrival}");
        stats.on_receive(NodeId::Server, arrival);
        assert!((stats.clock(NodeId::Server) - arrival).abs() < 1e-12);
        // A later, earlier-arriving message must not move the clock back.
        stats.on_receive(NodeId::Server, 0.1);
        assert!((stats.clock(NodeId::Server) - arrival).abs() < 1e-12);
    }

    #[test]
    fn makespan_is_max_clock() {
        let stats = NetStats::new();
        stats.advance_clock(NodeId::Platform(0), 1.0);
        stats.advance_clock(NodeId::Platform(1), 3.0);
        stats.advance_clock(NodeId::Server, 2.0);
        assert_eq!(stats.snapshot().makespan_s, 3.0);
    }

    #[test]
    fn stats_are_send_sync() {
        fn assert_ss<T: Send + Sync>() {}
        assert_ss::<NetStats>();
    }
}
