//! Typed payload helpers: tensors in, envelopes out.

use medsplit_simnet::{Envelope, MessageKind, NodeId};
use medsplit_tensor::Tensor;

use crate::config::WireCodec;
use crate::error::{Result, SplitError};

/// Wraps a tensor as an envelope payload. The payload bytes are exactly
/// [`Tensor::to_bytes`], which is what the communication accounting
/// measures.
pub fn tensor_envelope(src: NodeId, dst: NodeId, round: u64, kind: MessageKind, tensor: &Tensor) -> Envelope {
    Envelope::new(src, dst, round, kind, tensor.to_bytes())
}

/// Like [`tensor_envelope`] but encoding the payload with the given wire
/// codec (`F16` halves the data bytes, `Int8` quarters them, both
/// lossily).
pub fn tensor_envelope_codec(
    src: NodeId,
    dst: NodeId,
    round: u64,
    kind: MessageKind,
    tensor: &Tensor,
    codec: WireCodec,
) -> Envelope {
    Envelope::new(src, dst, round, kind, tensor.encode(codec))
}

/// Decodes a tensor payload, checking the message kind first.
///
/// # Errors
///
/// Returns [`SplitError::Protocol`] on a kind mismatch and
/// [`SplitError::Tensor`] on a corrupt payload.
pub fn decode_tensor(env: &Envelope, expected: MessageKind) -> Result<Tensor> {
    expect_kind(env, expected)?;
    Ok(Tensor::from_bytes(&env.payload[..])?)
}

fn expect_kind(env: &Envelope, expected: MessageKind) -> Result<()> {
    if env.kind != expected {
        return Err(SplitError::Protocol(format!(
            "expected {expected} from {}, got {} (round {})",
            env.src, env.kind, env.round
        )));
    }
    Ok(())
}

/// Decodes the tensor payloads of `envs` straight into one batch tensor,
/// concatenated along axis 0 in the order given, checking each message
/// kind first. Also returns each message's row count.
///
/// # Errors
///
/// As [`decode_tensor`], plus [`SplitError::Tensor`] if the payloads
/// disagree on their trailing dimensions.
pub(crate) fn decode_batch<'a>(
    envs: impl Iterator<Item = &'a Envelope> + Clone,
    expected: MessageKind,
) -> Result<(Tensor, Vec<usize>)> {
    for env in envs.clone() {
        expect_kind(env, expected)?;
    }
    Ok(Tensor::concat0_from_bytes(envs.map(|env| &env.payload[..]))?)
}

/// The platform index a message came from.
///
/// # Errors
///
/// Returns [`SplitError::Protocol`] if the sender is the server.
pub fn sender_platform(env: &Envelope) -> Result<usize> {
    env.src
        .platform_index()
        .ok_or_else(|| SplitError::Protocol(format!("expected a platform sender, got {}", env.src)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let t = Tensor::arange(6).reshape([2, 3]).unwrap();
        let env = tensor_envelope(
            NodeId::Platform(1),
            NodeId::Server,
            3,
            MessageKind::Activations,
            &t,
        );
        assert_eq!(env.round, 3);
        assert_eq!(env.payload.len(), medsplit_tensor::serialized_len(t.shape()));
        let back = decode_tensor(&env, MessageKind::Activations).unwrap();
        assert_eq!(back, t);
        assert_eq!(sender_platform(&env).unwrap(), 1);
    }

    #[test]
    fn kind_mismatch_is_protocol_error() {
        let t = Tensor::zeros([1]);
        let env = tensor_envelope(NodeId::Server, NodeId::Platform(0), 0, MessageKind::Logits, &t);
        let err = decode_tensor(&env, MessageKind::CutGrads).unwrap_err();
        assert!(matches!(err, SplitError::Protocol(_)));
        assert!(sender_platform(&env).is_err());
    }

    #[test]
    fn corrupt_payload_is_tensor_error() {
        let mut env = tensor_envelope(
            NodeId::Platform(0),
            NodeId::Server,
            0,
            MessageKind::Activations,
            &Tensor::zeros([4]),
        );
        env.payload = env.payload.slice(0..6);
        assert!(matches!(
            decode_tensor(&env, MessageKind::Activations),
            Err(SplitError::Tensor(_))
        ));
    }
}
