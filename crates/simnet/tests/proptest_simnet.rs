//! Property-based tests for the network simulator's accounting.

use bytes::Bytes;
use medsplit_simnet::{
    Envelope, LinkSpec, MemoryTransport, MessageKind, NodeId, StarTopology, Transport, FRAME_HEADER_LEN,
    HEADER_BYTES,
};
use proptest::prelude::*;

fn kind_of(sel: usize) -> MessageKind {
    let all = MessageKind::all();
    all[sel % all.len()]
}

proptest! {
    /// Total accounted bytes equal the sum of wire sizes of everything
    /// sent, regardless of interleaving.
    #[test]
    fn accounting_is_linear(payload_lens in prop::collection::vec(0usize..2000, 1..20), kind_sels in prop::collection::vec(0usize..9, 1..20)) {
        let t = MemoryTransport::new(StarTopology::new(4));
        let mut expected = 0u64;
        for (i, (&len, &k)) in payload_lens.iter().zip(kind_sels.iter().cycle()).enumerate() {
            let src = NodeId::Platform(i % 4);
            let env = Envelope::new(src, NodeId::Server, i as u64, kind_of(k), Bytes::from(vec![0u8; len]));
            expected += env.wire_size() as u64;
            t.send(env).unwrap();
        }
        let snap = t.stats().snapshot();
        prop_assert_eq!(snap.total_bytes, expected);
        prop_assert_eq!(snap.messages, payload_lens.len() as u64);
        // Per-kind accounting partitions the total.
        let by_kind: u64 = MessageKind::all().iter().map(|k| snap.bytes_of(*k)).sum();
        prop_assert_eq!(by_kind, snap.total_bytes);
        // Everything here was uplink.
        prop_assert_eq!(snap.uplink_bytes, snap.total_bytes);
    }

    /// FIFO delivery per destination, regardless of sources.
    #[test]
    fn fifo_per_destination(order in prop::collection::vec(0usize..3, 1..30)) {
        let t = MemoryTransport::new(StarTopology::new(3));
        for (i, &src) in order.iter().enumerate() {
            t.send(Envelope::new(NodeId::Platform(src), NodeId::Server, i as u64, MessageKind::Control, Bytes::new())).unwrap();
        }
        for (i, &src) in order.iter().enumerate() {
            let env = t.try_recv(NodeId::Server).unwrap();
            prop_assert_eq!(env.round, i as u64);
            prop_assert_eq!(env.src, NodeId::Platform(src));
        }
        prop_assert!(t.try_recv(NodeId::Server).is_none());
    }

    /// Transfer time is monotone in payload size and latency, and
    /// anti-monotone in bandwidth.
    #[test]
    fn transfer_time_monotone(bytes_a in 0usize..1_000_000, extra in 1usize..1_000_000, bw in 1.0e6f64..1.0e10, lat in 0.0f64..0.5) {
        let link = LinkSpec { bandwidth_bps: bw, latency_s: lat };
        prop_assert!(link.transfer_time(bytes_a + extra) > link.transfer_time(bytes_a));
        let faster = LinkSpec { bandwidth_bps: bw * 2.0, latency_s: lat };
        prop_assert!(faster.transfer_time(bytes_a + extra) < link.transfer_time(bytes_a + extra));
        let lagier = LinkSpec { bandwidth_bps: bw, latency_s: lat + 0.1 };
        prop_assert!(lagier.transfer_time(bytes_a) > link.transfer_time(bytes_a));
    }

    /// The simulated clock never goes backwards.
    #[test]
    fn clocks_are_monotone(events in prop::collection::vec((0usize..3, 0usize..5000), 1..40)) {
        let t = MemoryTransport::new(StarTopology::new(3));
        let mut last_server_clock = 0.0f64;
        for (i, &(src, len)) in events.iter().enumerate() {
            t.send(Envelope::new(NodeId::Platform(src), NodeId::Server, i as u64, MessageKind::Control, Bytes::from(vec![0u8; len]))).unwrap();
            let _ = t.try_recv(NodeId::Server).unwrap();
            let clock = t.stats().clock(NodeId::Server);
            prop_assert!(clock >= last_server_clock, "clock went backwards: {clock} < {last_server_clock}");
            last_server_clock = clock;
        }
    }

    /// Envelope wire size is exactly payload + fixed header.
    #[test]
    fn wire_size_formula(len in 0usize..100_000) {
        let env = Envelope::new(NodeId::Server, NodeId::Platform(0), 0, MessageKind::Logits, Bytes::from(vec![0u8; len]));
        prop_assert_eq!(env.wire_size(), len + HEADER_BYTES);
    }

    /// `Envelope::decode`, `decode_from` and `logical_size` on arbitrary
    /// bytes: an envelope no larger than the input or a typed error,
    /// never a panic.
    #[test]
    fn decoders_survive_arbitrary_bytes(raw in prop::collection::vec(0u8..=255, 0..160), kind in 0u8..16) {
        let mut raw = raw;
        if let Some(first) = raw.first_mut() {
            *first = kind; // half the point is getting past the kind byte
        }
        let mut shared = Bytes::from(raw.clone());
        match Envelope::decode(&raw) {
            Ok(env) => {
                prop_assert!(env.payload.len() + FRAME_HEADER_LEN <= raw.len());
                prop_assert!(env.logical_size() >= HEADER_BYTES);
                let same = Envelope::decode_from(&mut shared).unwrap();
                prop_assert_eq!(same.payload, env.payload);
                prop_assert_eq!(shared.len(), raw.len() - FRAME_HEADER_LEN - same.payload.len());
            }
            Err(_) => {
                prop_assert!(Envelope::decode_from(&mut shared).is_err());
                prop_assert_eq!(shared.len(), raw.len());
            }
        }
        // The same bytes as a relay-batch or tensor payload.
        for k in [MessageKind::RelayBatch, MessageKind::Activations] {
            let env = Envelope::new(NodeId::Relay(0), NodeId::Server, 0, k, Bytes::from(raw.clone()));
            prop_assert!(env.logical_size() >= HEADER_BYTES);
            prop_assert!(env.logical_size() <= HEADER_BYTES + 4 * raw.len());
        }
    }

    /// A valid frame with one byte overwritten and its end cut: decode
    /// errs or returns what the mutated header describes; the length
    /// field never indexes past the input.
    #[test]
    fn mutated_frames_survive_decode(len in 0usize..200, at in 0usize..300, with in 0u8..=255, cut in 0usize..50) {
        let env = Envelope::new(NodeId::Platform(1), NodeId::Relay(2), 9, MessageKind::LogitGrads, Bytes::from(vec![7u8; len]));
        let mut raw = env.encode().to_vec();
        let at = at % raw.len();
        raw[at] = with;
        raw.truncate(raw.len() - cut.min(raw.len()));
        if let Ok(got) = Envelope::decode(&raw) {
            prop_assert!(got.payload.len() + FRAME_HEADER_LEN <= raw.len());
            if at >= FRAME_HEADER_LEN {
                prop_assert_eq!(got.verify_checksum(), got.payload == env.payload);
            }
        }
    }
}
