//! Region-wise relay forwarding for hierarchical split training.
//!
//! A relay is a dumb, stateless forwarder: it holds no model, no data
//! and no labels — it concatenates the smashed-data envelopes of its
//! region into one [`MessageKind::RelayBatch`] frame per direction per
//! round and moves it across the WAN backbone. Batching amortises the
//! backbone's per-message framing ([`medsplit_simnet::HEADER_BYTES`])
//! and latency over the whole region: `P` platforms pay one backbone
//! round trip instead of `P`.
//!
//! The inner envelopes travel verbatim inside the batch payload using
//! [`Envelope::encode`]'s canonical framing, so the server can verify
//! each inner payload checksum after unbatching and the platform-side
//! protocol handlers ([`crate::Platform`]) never learn whether their
//! messages were relayed or direct.

use bytes::Bytes;
use medsplit_simnet::{Envelope, MessageKind, NodeId, FRAME_HEADER_LEN};

use crate::error::{Result, SplitError};

/// Serialises `inner` envelopes into one opaque batch payload by
/// concatenating their canonical wire frames, each written once into a
/// buffer sized for all of them.
fn encode_batch(inner: &[Envelope]) -> Bytes {
    let mut out = Vec::with_capacity(inner.iter().map(|e| FRAME_HEADER_LEN + e.payload.len()).sum());
    for env in inner {
        env.encode_into(&mut out);
    }
    Bytes::from(out)
}

/// Splits a [`MessageKind::RelayBatch`] envelope back into its inner
/// envelopes; their payloads are views into the batch payload.
///
/// # Errors
///
/// Returns a protocol error if `env` is not a relay batch or its
/// payload is not a clean concatenation of envelope frames.
pub fn unbatch(env: &Envelope) -> Result<Vec<Envelope>> {
    if env.kind != MessageKind::RelayBatch {
        return Err(SplitError::Protocol(format!(
            "expected a relay batch, got {}",
            env.kind
        )));
    }
    let mut rest = env.payload.clone();
    let mut out = Vec::new();
    while !rest.is_empty() {
        out.push(
            Envelope::decode_from(&mut rest)
                .map_err(|e| SplitError::Protocol(format!("relay batch: inner frame {}: {e}", out.len())))?,
        );
    }
    Ok(out)
}

/// Builds the upstream batch a relay sends to the server: the region's
/// platform → server traffic of one round in one frame.
pub fn batch_upstream(relay: usize, round: u64, inner: &[Envelope]) -> Envelope {
    Envelope::new(
        NodeId::Relay(relay),
        NodeId::Server,
        round,
        MessageKind::RelayBatch,
        encode_batch(inner),
    )
}

/// Builds the downstream batch the server sends a relay: the region's
/// server → platform traffic of one round in one frame.
pub fn batch_downstream(relay: usize, round: u64, inner: &[Envelope]) -> Envelope {
    Envelope::new(
        NodeId::Server,
        NodeId::Relay(relay),
        round,
        MessageKind::RelayBatch,
        encode_batch(inner),
    )
}

/// Re-frames an unbatched downstream envelope for the relay → platform
/// hop: the payload, its checksum, kind and round travel unchanged, but
/// the source becomes the relay so link selection and byte accounting
/// charge the regional edge actually used.
pub fn forward_from_relay(relay: usize, inner: &Envelope) -> Envelope {
    Envelope {
        src: NodeId::Relay(relay),
        seq: 0,
        ..inner.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inner(pid: usize, round: u64, fill: u8, len: usize) -> Envelope {
        Envelope::new(
            NodeId::Platform(pid),
            NodeId::Server,
            round,
            MessageKind::Activations,
            Bytes::from(vec![fill; len]),
        )
    }

    #[test]
    fn batch_round_trips_inner_envelopes() {
        let envs = vec![inner(0, 3, 0xAA, 17), inner(1, 3, 0xBB, 0), inner(2, 3, 0xCC, 64)];
        let batch = batch_upstream(1, 3, &envs);
        assert_eq!(batch.src, NodeId::Relay(1));
        assert_eq!(batch.dst, NodeId::Server);
        assert_eq!(batch.kind, MessageKind::RelayBatch);
        assert!(batch.verify_checksum());
        let back = unbatch(&batch).unwrap();
        assert_eq!(back.len(), 3);
        for (a, b) in envs.iter().zip(&back) {
            assert_eq!(a.src, b.src);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.round, b.round);
            assert_eq!(a.payload, b.payload);
            assert!(b.verify_checksum());
        }
    }

    #[test]
    fn empty_batch_is_valid_and_empty() {
        let batch = batch_downstream(0, 1, &[]);
        assert!(batch.payload.is_empty());
        assert_eq!(unbatch(&batch).unwrap().len(), 0);
    }

    #[test]
    fn batching_amortises_backbone_headers() {
        let envs: Vec<Envelope> = (0..4).map(|p| inner(p, 0, 1, 100)).collect();
        let individually: usize = envs.iter().map(Envelope::wire_size).sum();
        let batched = batch_upstream(0, 0, &envs).wire_size();
        // One 64-byte accounted header instead of four; inner frames add
        // 45 bytes each, still a net win per message.
        assert!(batched < individually, "{batched} vs {individually}");
    }

    #[test]
    fn unbatch_rejects_wrong_kind_and_torn_frames() {
        let not_batch = inner(0, 0, 1, 4);
        assert!(unbatch(&not_batch).is_err());
        let batch = batch_upstream(0, 0, &[inner(0, 0, 1, 32)]);
        // Truncate mid-inner-frame: decode must fail loudly.
        let torn = Envelope::new(
            batch.src,
            batch.dst,
            batch.round,
            MessageKind::RelayBatch,
            batch.payload.slice(..batch.payload.len() - 3),
        );
        assert!(unbatch(&torn).is_err());
    }

    /// Regression: the parent computed `45 + payload_len` unchecked from
    /// the untrusted length field — a debug panic, a release wrap.
    #[test]
    fn unbatch_rejects_an_overflowing_inner_length() {
        let batch = batch_upstream(0, 0, &[inner(0, 0, 1, 32), inner(1, 0, 2, 8)]);
        for lying in [u64::MAX, u64::MAX - 44, u64::MAX - 45, 1 << 63, 33] {
            let mut raw = batch.payload.to_vec();
            raw[FRAME_HEADER_LEN - 8..FRAME_HEADER_LEN].copy_from_slice(&lying.to_le_bytes());
            let bad = Envelope::new(batch.src, batch.dst, 0, MessageKind::RelayBatch, Bytes::from(raw));
            assert!(
                matches!(unbatch(&bad), Err(SplitError::Protocol(_))),
                "length field {lying}"
            );
        }
    }

    #[test]
    fn unbatched_payloads_are_views_of_the_batch() {
        let envs = vec![inner(0, 3, 0xAA, 17), inner(1, 3, 0xBB, 0), inner(2, 3, 0xCC, 64)];
        let batch = batch_upstream(1, 3, &envs);
        let base = batch.payload.as_ptr();
        let mut at = 0;
        for (sent, got) in envs.iter().zip(unbatch(&batch).unwrap()) {
            assert_eq!(got.payload.as_ptr(), base.wrapping_add(at + FRAME_HEADER_LEN));
            assert_eq!(got.checksum, sent.checksum);
            at += FRAME_HEADER_LEN + sent.payload.len();
        }
        assert_eq!(at, batch.payload.len());
    }

    #[test]
    fn forward_rewrites_source_only() {
        let logits = Envelope::new(
            NodeId::Server,
            NodeId::Platform(5),
            7,
            MessageKind::Logits,
            Bytes::from(vec![3u8; 24]),
        );
        let fwd = forward_from_relay(2, &logits);
        assert_eq!(fwd.src, NodeId::Relay(2));
        assert_eq!(fwd.dst, NodeId::Platform(5));
        assert_eq!(fwd.round, 7);
        assert_eq!(fwd.kind, MessageKind::Logits);
        assert_eq!(fwd.payload, logits.payload);
        assert_eq!(fwd.payload.as_ptr(), logits.payload.as_ptr());
        assert_eq!(fwd.seq, 0);
        assert!(fwd.verify_checksum());
    }
}
