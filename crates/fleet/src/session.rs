//! Session identity and the portable state blob a drain hands off.
//!
//! A *session* is one tenant's long-lived inference stream: it pins a
//! weight version at admission and accumulates a served count. When a
//! replica drains, each of its sessions is serialised with
//! [`encode_sessions`], shipped to its ring successor inside a
//! [`SessionHandoff`](medsplit_simnet::MessageKind::SessionHandoff)
//! envelope (so the rebalance traffic is byte-accounted like everything
//! else), and re-imported there — the handoff invariant is that served
//! counts and version pins survive the move bit-for-bit.

use bytes::{BufMut, Bytes};
use medsplit_core::{Result, SplitError};

/// Identity of one session: the routing key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionKey {
    /// Owning tenant.
    pub tenant: u64,
    /// Session id, unique within the tenant.
    pub session: u64,
}

/// Portable per-session state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionState {
    /// The session's identity.
    pub key: SessionKey,
    /// Weight version the session is pinned to.
    pub pinned_version: u32,
    /// Requests served for this session so far.
    pub served: u64,
    /// Simulated time of the last served request (0 when never served).
    pub last_served_s: f64,
}

impl SessionState {
    /// A fresh session pinned to `version`.
    pub fn new(key: SessionKey, version: u32) -> Self {
        SessionState {
            key,
            pinned_version: version,
            served: 0,
            last_served_s: 0.0,
        }
    }
}

/// Bytes per serialised session record.
const RECORD_BYTES: usize = 8 + 8 + 4 + 8 + 8;

/// Serialises session records into a handoff payload. Records are sorted
/// by key first so the blob — and therefore the handoff wire bytes — are
/// independent of hash-map iteration order.
pub fn encode_sessions(sessions: &[SessionState]) -> Bytes {
    let mut sorted: Vec<&SessionState> = sessions.iter().collect();
    sorted.sort_by_key(|s| s.key);
    let mut buf = Vec::with_capacity(8 + sorted.len() * RECORD_BYTES);
    buf.put_u64_le(sorted.len() as u64);
    for s in sorted {
        buf.put_u64_le(s.key.tenant);
        buf.put_u64_le(s.key.session);
        buf.put_u32_le(s.pinned_version);
        buf.put_u64_le(s.served);
        buf.put_u64_le(s.last_served_s.to_bits());
    }
    Bytes::from(buf)
}

/// Parses a payload produced by [`encode_sessions`].
///
/// # Errors
///
/// Returns [`SplitError::Protocol`] for truncated or inconsistent blobs.
pub fn decode_sessions(payload: &Bytes) -> Result<Vec<SessionState>> {
    // The count is an outside number: bound it by the bytes present before
    // multiplying or allocating by it.
    let count = u64::from_le_bytes(word(payload, 0)?);
    let records = (payload.len() - 8) / RECORD_BYTES;
    if count != records as u64 || payload.len() != 8 + records * RECORD_BYTES {
        return Err(SplitError::Protocol(format!(
            "session handoff length {} does not match {count} records",
            payload.len()
        )));
    }
    let mut out = Vec::with_capacity(records);
    for at in (8..payload.len()).step_by(RECORD_BYTES) {
        out.push(SessionState {
            key: SessionKey {
                tenant: u64::from_le_bytes(word(payload, at)?),
                session: u64::from_le_bytes(word(payload, at + 8)?),
            },
            pinned_version: u32::from_le_bytes(word(payload, at + 16)?),
            served: u64::from_le_bytes(word(payload, at + 20)?),
            last_served_s: f64::from_bits(u64::from_le_bytes(word(payload, at + 28)?)),
        });
    }
    Ok(out)
}

/// The `N` bytes at `at`, by checked read.
fn word<const N: usize>(payload: &[u8], at: usize) -> Result<[u8; N]> {
    payload
        .get(at..at + N)
        .and_then(|b| b.try_into().ok())
        .ok_or_else(|| SplitError::Protocol(format!("truncated session handoff ({} bytes)", payload.len())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_round_trip_sorted() {
        let b = SessionState {
            key: SessionKey {
                tenant: 2,
                session: 0,
            },
            pinned_version: 1,
            served: 9,
            last_served_s: 1.5,
        };
        let a = SessionState::new(
            SessionKey {
                tenant: 1,
                session: 3,
            },
            0,
        );
        let blob = encode_sessions(&[b, a]);
        let back = decode_sessions(&blob).unwrap();
        // Sorted by key regardless of input order.
        assert_eq!(back, vec![a, b]);
        // Sorted input produces the identical blob.
        assert_eq!(encode_sessions(&[a, b]), blob);
    }

    #[test]
    fn empty_handoff_round_trips() {
        let blob = encode_sessions(&[]);
        assert_eq!(blob.len(), 8);
        assert!(decode_sessions(&blob).unwrap().is_empty());
    }

    #[test]
    fn corrupt_handoffs_rejected() {
        assert!(decode_sessions(&Bytes::from_static(b"abc")).is_err());
        let blob = encode_sessions(&[SessionState::new(
            SessionKey {
                tenant: 0,
                session: 0,
            },
            0,
        )]);
        assert!(decode_sessions(&blob.slice(..blob.len() - 1)).is_err());
        // Count larger than the body claims.
        let mut raw = blob.to_vec();
        raw[0] = 9;
        assert!(decode_sessions(&Bytes::from(raw)).is_err());
        // A count whose byte length wraps `usize` back onto the payload's:
        // 8 + 2^62 * 36 = 8 (mod 2^64), and 8 + 2^61 * 36 likewise.
        for count in [1u64 << 62, 1 << 61, u64::MAX] {
            assert!(decode_sessions(&Bytes::from(count.to_le_bytes().to_vec())).is_err());
        }
    }
}
