//! Payload formats for the serving path.
//!
//! A request carries the client's `L1` activations plus the metadata the
//! server needs for batching and deadline handling; a response carries the
//! logits (or an empty body for rejections/timeouts) plus the timestamps
//! the client needs to compute end-to-end latency under the simulated
//! clock. All timestamps are absolute simulated seconds, serialised as
//! `f64` bit patterns so `INFINITY` ("no deadline") survives the trip.
//!
//! The decoders take bytes from outside: the fixed prefix is read with
//! checked reads, and a timestamp the replay would sort or add — a
//! non-finite `submit_s` / `served_s`, a NaN `deadline_s` — is a protocol
//! error here rather than a panic or a poisoned clock downstream.

use bytes::{BufMut, Bytes};
use medsplit_core::{Result, SplitError, WireCodec};
use medsplit_simnet::{Envelope, MessageKind, NodeId};
use medsplit_tensor::{encoded_len, Tensor};

/// Fixed request prefix: id, submit time, deadline.
const REQUEST_PREFIX: usize = 8 + 8 + 8;
/// Fixed response prefix: id, submit time, served time, status byte.
const RESPONSE_PREFIX: usize = 8 + 8 + 8 + 1;
/// Fixed routed-request prefix: the plain request prefix plus tenant,
/// session, and pinned weight version.
const ROUTED_PREFIX: usize = REQUEST_PREFIX + 8 + 8 + 4;

/// Checks the envelope's kind and returns the `len`-byte fixed prefix of
/// its payload.
fn prefix(env: &Envelope, kind: MessageKind, len: usize) -> Result<&[u8]> {
    if env.kind != kind {
        return Err(SplitError::Protocol(format!(
            "expected {kind} from {}, got {}",
            env.src, env.kind
        )));
    }
    env.payload.get(..len).ok_or_else(|| {
        SplitError::Protocol(format!("truncated {kind} payload ({} bytes)", env.payload.len()))
    })
}

/// The little-endian word at `at`, by checked read.
fn word<const N: usize>(p: &[u8], at: usize) -> Result<[u8; N]> {
    p.get(at..at + N)
        .and_then(|b| b.try_into().ok())
        .ok_or_else(|| SplitError::Protocol(format!("serving prefix has no {N}-byte word at {at}")))
}

fn u64_at(p: &[u8], at: usize) -> Result<u64> {
    word(p, at).map(u64::from_le_bytes)
}

/// The `f64` at `at`, which must satisfy `is_time`: [`f64::is_finite`]
/// for a timestamp, [`not_nan`] for a deadline (`+INFINITY` = none).
fn time_at(p: &[u8], at: usize, field: &str, is_time: fn(f64) -> bool) -> Result<f64> {
    let t = f64::from_bits(u64_at(p, at)?);
    if is_time(t) {
        Ok(t)
    } else {
        Err(SplitError::Protocol(format!("{field} {t} is not a time")))
    }
}

fn not_nan(t: f64) -> bool {
    !t.is_nan()
}

/// Terminal status of one inference request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InferStatus {
    /// Served: the response carries logits.
    Ok,
    /// Refused admission (queue full); the request was never batched.
    Rejected,
    /// Admitted but its deadline expired before the batch was served.
    TimedOut,
    /// Refused by the fleet router before dispatch: the tenant's
    /// admission quota was exhausted, or no active replica could take the
    /// session. Distinct from [`InferStatus::Rejected`] so router-level
    /// backpressure and replica-level queue overflow stay separable in
    /// reports.
    Throttled,
}

impl InferStatus {
    fn code(self) -> u8 {
        match self {
            InferStatus::Ok => 0,
            InferStatus::Rejected => 1,
            InferStatus::TimedOut => 2,
            InferStatus::Throttled => 3,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(InferStatus::Ok),
            1 => Some(InferStatus::Rejected),
            2 => Some(InferStatus::TimedOut),
            3 => Some(InferStatus::Throttled),
            _ => None,
        }
    }
}

impl std::fmt::Display for InferStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            InferStatus::Ok => "ok",
            InferStatus::Rejected => "rejected",
            InferStatus::TimedOut => "timed_out",
            InferStatus::Throttled => "throttled",
        })
    }
}

/// A decoded inference request.
#[derive(Debug, Clone)]
pub struct InferRequest {
    /// Client-assigned request id (unique per platform).
    pub id: u64,
    /// Simulated time the client submitted the request.
    pub submit_s: f64,
    /// Absolute deadline in simulated seconds (`INFINITY` = none).
    pub deadline_s: f64,
    /// The client's `L1` activations (possibly noised).
    pub activations: Tensor,
}

/// A decoded inference response.
#[derive(Debug, Clone)]
pub struct InferResponse {
    /// Echoed request id.
    pub id: u64,
    /// Echoed submission time.
    pub submit_s: f64,
    /// Simulated time the server finished handling the request.
    pub served_s: f64,
    /// Terminal status.
    pub status: InferStatus,
    /// Logits, present iff `status == Ok`.
    pub logits: Option<Tensor>,
}

/// Encodes an inference request envelope (platform → server).
pub fn encode_request(
    platform: NodeId,
    id: u64,
    submit_s: f64,
    deadline_s: f64,
    activations: &Tensor,
    codec: WireCodec,
) -> Envelope {
    let mut payload = Vec::with_capacity(REQUEST_PREFIX + encoded_len(activations.shape(), codec));
    payload.put_u64_le(id);
    payload.put_u64_le(submit_s.to_bits());
    payload.put_u64_le(deadline_s.to_bits());
    activations.encode_into(&mut payload, codec);
    Envelope::new(
        platform,
        NodeId::Server,
        id,
        MessageKind::InferRequest,
        Bytes::from(payload),
    )
}

/// Decodes an inference request payload.
///
/// # Errors
///
/// Returns [`SplitError::Protocol`] for a wrong message kind, a truncated
/// prefix or a timestamp that is not a time, and [`SplitError::Tensor`]
/// for a corrupt tensor body.
pub fn decode_request(env: &Envelope) -> Result<InferRequest> {
    let p = prefix(env, MessageKind::InferRequest, REQUEST_PREFIX)?;
    Ok(InferRequest {
        id: u64_at(p, 0)?,
        submit_s: time_at(p, 8, "submit_s", f64::is_finite)?,
        deadline_s: time_at(p, 16, "deadline_s", not_nan)?,
        activations: Tensor::from_bytes(env.payload.slice(REQUEST_PREFIX..))?,
    })
}

/// A decoded fleet-routed inference request: the plain request plus the
/// routing coordinates the fleet router stamps on admission — owning
/// tenant, session within the tenant, and the weight version the session
/// is pinned to.
#[derive(Debug, Clone)]
pub struct RoutedRequest {
    /// Client-assigned request id (unique per platform).
    pub id: u64,
    /// Simulated time the client submitted the request.
    pub submit_s: f64,
    /// Absolute deadline in simulated seconds (`INFINITY` = none).
    pub deadline_s: f64,
    /// Owning tenant id.
    pub tenant: u64,
    /// Session id, unique within the tenant.
    pub session: u64,
    /// Weight version the session is pinned to.
    pub version: u32,
    /// The client's `L1` activations (possibly noised).
    pub activations: Tensor,
}

/// Encodes a fleet-routed inference request envelope. `src`/`dst` are
/// explicit because the same frame travels two hops: platform → router,
/// then router → replica after admission.
#[allow(clippy::too_many_arguments)]
pub fn encode_routed_request(src: NodeId, dst: NodeId, req: &RoutedRequest, codec: WireCodec) -> Envelope {
    let mut payload = Vec::with_capacity(ROUTED_PREFIX + encoded_len(req.activations.shape(), codec));
    payload.put_u64_le(req.id);
    payload.put_u64_le(req.submit_s.to_bits());
    payload.put_u64_le(req.deadline_s.to_bits());
    payload.put_u64_le(req.tenant);
    payload.put_u64_le(req.session);
    payload.put_u32_le(req.version);
    req.activations.encode_into(&mut payload, codec);
    Envelope::new(src, dst, req.id, MessageKind::InferRequest, Bytes::from(payload))
}

/// Decodes a fleet-routed inference request payload.
///
/// # Errors
///
/// Returns [`SplitError::Protocol`] for a wrong message kind, a truncated
/// prefix or a timestamp that is not a time, and [`SplitError::Tensor`]
/// for a corrupt tensor body.
pub fn decode_routed_request(env: &Envelope) -> Result<RoutedRequest> {
    let p = prefix(env, MessageKind::InferRequest, ROUTED_PREFIX)?;
    Ok(RoutedRequest {
        id: u64_at(p, 0)?,
        submit_s: time_at(p, 8, "submit_s", f64::is_finite)?,
        deadline_s: time_at(p, 16, "deadline_s", not_nan)?,
        tenant: u64_at(p, 24)?,
        session: u64_at(p, 32)?,
        version: word(p, 40).map(u32::from_le_bytes)?,
        activations: Tensor::from_bytes(env.payload.slice(ROUTED_PREFIX..))?,
    })
}

/// Encodes an inference response envelope (server → platform). `logits`
/// must be `Some` iff `status` is [`InferStatus::Ok`].
pub fn encode_response(
    platform: NodeId,
    id: u64,
    submit_s: f64,
    served_s: f64,
    status: InferStatus,
    logits: Option<&Tensor>,
    codec: WireCodec,
) -> Envelope {
    encode_response_from(
        NodeId::Server,
        platform,
        id,
        submit_s,
        served_s,
        status,
        logits,
        codec,
    )
}

/// Encodes an inference response envelope with an explicit source node.
/// Fleet replicas answer platforms directly, so the response's `src` is a
/// [`NodeId::Replica`] rather than the central server.
#[allow(clippy::too_many_arguments)]
pub fn encode_response_from(
    src: NodeId,
    platform: NodeId,
    id: u64,
    submit_s: f64,
    served_s: f64,
    status: InferStatus,
    logits: Option<&Tensor>,
    codec: WireCodec,
) -> Envelope {
    debug_assert_eq!(logits.is_some(), status == InferStatus::Ok);
    let body_len = logits.map_or(0, |t| encoded_len(t.shape(), codec));
    let mut payload = Vec::with_capacity(RESPONSE_PREFIX + body_len);
    payload.put_u64_le(id);
    payload.put_u64_le(submit_s.to_bits());
    payload.put_u64_le(served_s.to_bits());
    payload.put_u8(status.code());
    if let Some(t) = logits {
        t.encode_into(&mut payload, codec);
    }
    Envelope::new(
        src,
        platform,
        id,
        MessageKind::InferResponse,
        Bytes::from(payload),
    )
}

/// Decodes an inference response payload.
///
/// # Errors
///
/// Returns [`SplitError::Protocol`] for a wrong kind, truncated prefix,
/// unknown status code or non-finite timestamp, and
/// [`SplitError::Tensor`] for a corrupt body.
pub fn decode_response(env: &Envelope) -> Result<InferResponse> {
    let p = prefix(env, MessageKind::InferResponse, RESPONSE_PREFIX)?;
    let [code] = word(p, 24)?;
    let status = InferStatus::from_code(code)
        .ok_or_else(|| SplitError::Protocol(format!("unknown infer status code {code}")))?;
    let logits = if status == InferStatus::Ok {
        Some(Tensor::from_bytes(env.payload.slice(RESPONSE_PREFIX..))?)
    } else {
        None
    };
    Ok(InferResponse {
        id: u64_at(p, 0)?,
        submit_s: time_at(p, 8, "submit_s", f64::is_finite)?,
        served_s: time_at(p, 16, "served_s", f64::is_finite)?,
        status,
        logits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let acts = Tensor::from_vec(vec![1.0, -2.5, 0.25, 8.0], [1, 4]).unwrap();
        let env = encode_request(NodeId::Platform(2), 7, 1.25, 3.5, &acts, WireCodec::F32);
        assert_eq!(env.kind, MessageKind::InferRequest);
        assert_eq!(env.src, NodeId::Platform(2));
        let req = decode_request(&env).unwrap();
        assert_eq!(req.id, 7);
        assert_eq!(req.submit_s, 1.25);
        assert_eq!(req.deadline_s, 3.5);
        assert_eq!(req.activations, acts);
    }

    #[test]
    fn infinite_deadline_survives() {
        let acts = Tensor::ones([1, 2]);
        let env = encode_request(NodeId::Platform(0), 0, 0.0, f64::INFINITY, &acts, WireCodec::F32);
        assert_eq!(decode_request(&env).unwrap().deadline_s, f64::INFINITY);
    }

    #[test]
    fn f16_request_halves_tensor_bytes() {
        let acts = Tensor::ones([4, 8]);
        let full = encode_request(NodeId::Platform(0), 0, 0.0, 1.0, &acts, WireCodec::F32);
        let half = encode_request(NodeId::Platform(0), 0, 0.0, 1.0, &acts, WireCodec::F16);
        assert!(half.payload.len() < full.payload.len());
        // Values of 1.0 are exactly representable in f16.
        assert_eq!(decode_request(&half).unwrap().activations, acts);
    }

    #[test]
    fn ok_response_round_trips() {
        let logits = Tensor::from_vec(vec![0.5, -1.5, 2.0], [1, 3]).unwrap();
        let env = encode_response(
            NodeId::Platform(1),
            9,
            0.5,
            0.75,
            InferStatus::Ok,
            Some(&logits),
            WireCodec::F32,
        );
        assert_eq!(env.dst, NodeId::Platform(1));
        let resp = decode_response(&env).unwrap();
        assert_eq!(resp.id, 9);
        assert_eq!(resp.submit_s, 0.5);
        assert_eq!(resp.served_s, 0.75);
        assert_eq!(resp.status, InferStatus::Ok);
        assert_eq!(resp.logits.unwrap(), logits);
    }

    #[test]
    fn rejection_response_has_no_body() {
        let env = encode_response(
            NodeId::Platform(0),
            3,
            1.0,
            1.0,
            InferStatus::Rejected,
            None,
            WireCodec::F32,
        );
        assert_eq!(env.payload.len(), RESPONSE_PREFIX);
        let resp = decode_response(&env).unwrap();
        assert_eq!(resp.status, InferStatus::Rejected);
        assert!(resp.logits.is_none());
        let timed = encode_response(
            NodeId::Platform(0),
            4,
            1.0,
            2.0,
            InferStatus::TimedOut,
            None,
            WireCodec::F16,
        );
        assert_eq!(decode_response(&timed).unwrap().status, InferStatus::TimedOut);
    }

    #[test]
    fn routed_request_round_trips() {
        let acts = Tensor::from_vec(vec![0.5, 1.5, -3.0], [1, 3]).unwrap();
        let req = RoutedRequest {
            id: 42,
            submit_s: 2.0,
            deadline_s: 5.0,
            tenant: 9,
            session: 0xdead_beef,
            version: 3,
            activations: acts.clone(),
        };
        // First hop: platform → router.
        let env = encode_routed_request(NodeId::Platform(1), NodeId::Server, &req, WireCodec::F32);
        assert_eq!(env.kind, MessageKind::InferRequest);
        let back = decode_routed_request(&env).unwrap();
        assert_eq!(back.id, 42);
        assert_eq!(back.tenant, 9);
        assert_eq!(back.session, 0xdead_beef);
        assert_eq!(back.version, 3);
        assert_eq!(back.activations, acts);
        // Second hop reuses the same frame with new endpoints.
        let fwd = encode_routed_request(NodeId::Server, NodeId::Replica(2), &back, WireCodec::F32);
        assert_eq!(fwd.payload, env.payload);
        assert_eq!(fwd.dst, NodeId::Replica(2));
    }

    #[test]
    fn routed_request_truncation_rejected() {
        let acts = Tensor::ones([1, 2]);
        let req = RoutedRequest {
            id: 1,
            submit_s: 0.0,
            deadline_s: f64::INFINITY,
            tenant: 0,
            session: 0,
            version: 0,
            activations: acts,
        };
        let env = encode_routed_request(NodeId::Platform(0), NodeId::Server, &req, WireCodec::F32);
        let short = Envelope::new(
            NodeId::Platform(0),
            NodeId::Server,
            1,
            MessageKind::InferRequest,
            env.payload.slice(..40),
        );
        assert!(decode_routed_request(&short).is_err());
    }

    #[test]
    fn throttled_status_round_trips_from_replica() {
        let env = encode_response_from(
            NodeId::Replica(1),
            NodeId::Platform(0),
            5,
            1.0,
            1.0,
            InferStatus::Throttled,
            None,
            WireCodec::F32,
        );
        assert_eq!(env.src, NodeId::Replica(1));
        let resp = decode_response(&env).unwrap();
        assert_eq!(resp.status, InferStatus::Throttled);
        assert!(resp.logits.is_none());
        assert_eq!(InferStatus::Throttled.to_string(), "throttled");
    }

    /// Overwrites the `f64` at `at` in a valid frame.
    fn with_time(mut env: Envelope, at: usize, t: f64) -> Envelope {
        let mut raw = env.payload.to_vec();
        raw[at..at + 8].copy_from_slice(&t.to_bits().to_le_bytes());
        env.payload = Bytes::from(raw);
        env
    }

    #[test]
    fn timestamps_that_are_not_times_are_refused() {
        let acts = Tensor::ones([1, 2]);
        let request = || encode_request(NodeId::Platform(0), 0, 0.0, 1.0, &acts, WireCodec::F32);
        let routed = || {
            let req = RoutedRequest {
                id: 1,
                submit_s: 0.0,
                deadline_s: 1.0,
                tenant: 0,
                session: 0,
                version: 0,
                activations: acts.clone(),
            };
            encode_routed_request(NodeId::Platform(0), NodeId::Server, &req, WireCodec::F32)
        };
        let response = || {
            encode_response(
                NodeId::Platform(0),
                1,
                0.0,
                0.5,
                InferStatus::Rejected,
                None,
                WireCodec::F32,
            )
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(decode_request(&with_time(request(), 8, bad)).is_err());
            assert!(decode_routed_request(&with_time(routed(), 8, bad)).is_err());
            assert!(decode_response(&with_time(response(), 8, bad)).is_err());
            assert!(decode_response(&with_time(response(), 16, bad)).is_err());
        }
        // A deadline may be infinite either way, but not NaN.
        assert!(decode_request(&with_time(request(), 16, f64::NAN)).is_err());
        assert!(decode_routed_request(&with_time(routed(), 16, f64::NAN)).is_err());
        assert!(decode_request(&with_time(request(), 16, f64::NEG_INFINITY)).is_ok());
        assert!(decode_routed_request(&with_time(routed(), 16, f64::INFINITY)).is_ok());
    }

    #[test]
    fn malformed_payloads_rejected() {
        let acts = Tensor::ones([1, 2]);
        let env = encode_request(NodeId::Platform(0), 0, 0.0, 1.0, &acts, WireCodec::F32);
        // Wrong kind for the decoder.
        assert!(decode_response(&env).is_err());
        // Truncated prefix.
        let short = Envelope::new(
            NodeId::Platform(0),
            NodeId::Server,
            0,
            MessageKind::InferRequest,
            env.payload.slice(..10),
        );
        assert!(decode_request(&short).is_err());
        // Unknown status code.
        let mut bad = encode_response(
            NodeId::Platform(0),
            1,
            0.0,
            0.0,
            InferStatus::Rejected,
            None,
            WireCodec::F32,
        );
        let mut raw = bad.payload.to_vec();
        raw[24] = 99;
        bad.payload = Bytes::from(raw);
        assert!(decode_response(&bad).is_err());
    }
}
