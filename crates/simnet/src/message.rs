//! Wire messages.

use bytes::Bytes;
use medsplit_tensor::f32_equivalent_len;

use crate::node::NodeId;

/// Fixed per-message framing overhead charged by the accounting, in bytes
/// (an approximation of transport headers: src/dst/round/kind plus
/// TCP/IP framing).
pub const HEADER_BYTES: usize = 64;

/// Frame code base for [`NodeId::Replica`] in [`Envelope::encode`]:
/// replica `i` is encoded as `REPLICA_CODE_BASE + i`, keeping the whole
/// lower half of the code space for platforms and `u64::MAX` for the
/// server.
const REPLICA_CODE_BASE: u64 = 1 << 62;

/// Frame code base for [`NodeId::Relay`]: relay `i` is encoded as
/// `RELAY_CODE_BASE + i`, below the replica band so decode can
/// discriminate by range.
const RELAY_CODE_BASE: u64 = 1 << 61;

/// The semantic type of a message, used for per-kind byte accounting so
/// the evaluation can report *where* each protocol's bandwidth goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MessageKind {
    /// Split learning message 1: `L1` activations, platform → server.
    Activations,
    /// Split learning message 2: output-layer logits, server → platform.
    Logits,
    /// Split learning message 3: loss gradients w.r.t. logits,
    /// platform → server.
    LogitGrads,
    /// Split learning message 4: gradients at the cut, server → platform.
    CutGrads,
    /// U-shaped split: middle-section output features, server → platform
    /// (takes the place of logits when the classifier head also stays on
    /// the platform).
    Features,
    /// U-shaped split: gradients w.r.t. the middle-section output,
    /// platform → server.
    FeatureGrads,
    /// Full model parameters, server → platform (FedAvg / sync-SGD
    /// download).
    ModelDown,
    /// Full model parameters, platform → server (FedAvg upload).
    ModelUp,
    /// Full gradient vector, platform → server (sync-SGD push).
    GradPush,
    /// `L1` parameters exchanged between platforms via the server
    /// (periodic-averaging / cyclic-sharing extensions).
    L1Sync,
    /// Raw patient data, platform → server — only the privacy-violating
    /// centralised baseline ever sends this.
    RawData,
    /// Serving-path request: `L1` activations for a single inference
    /// request (possibly noised), platform → server. Distinct from
    /// [`MessageKind::Activations`] so training and serving traffic are
    /// accounted separately.
    InferRequest,
    /// Serving-path response: logits for one inference request (or an
    /// empty payload for a rejection/timeout), server → platform.
    InferResponse,
    /// Control traffic (round begin/end, shutdown).
    Control,
    /// Fleet rebalancing: exported per-session serving state handed from
    /// a draining (or rejoined-towards) replica to its ring successor,
    /// replica → replica.
    SessionHandoff,
    /// Hierarchical split: a region's smashed-data envelopes concatenated
    /// into one frame by a relay (platform→server direction) or by the
    /// server (server→platform direction), relay ↔ server.
    RelayBatch,
}

impl MessageKind {
    /// Stable short name for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            MessageKind::Activations => "activations",
            MessageKind::Logits => "logits",
            MessageKind::LogitGrads => "logit_grads",
            MessageKind::CutGrads => "cut_grads",
            MessageKind::Features => "features",
            MessageKind::FeatureGrads => "feature_grads",
            MessageKind::ModelDown => "model_down",
            MessageKind::ModelUp => "model_up",
            MessageKind::GradPush => "grad_push",
            MessageKind::L1Sync => "l1_sync",
            MessageKind::RawData => "raw_data",
            MessageKind::InferRequest => "infer_request",
            MessageKind::InferResponse => "infer_response",
            MessageKind::Control => "control",
            MessageKind::SessionHandoff => "session_handoff",
            MessageKind::RelayBatch => "relay_batch",
        }
    }

    /// Stable single-byte code used by [`Envelope::encode`]. Codes are
    /// append-only: new kinds take the next free value so old captures
    /// stay decodable.
    pub fn wire_code(&self) -> u8 {
        match self {
            MessageKind::Activations => 0,
            MessageKind::Logits => 1,
            MessageKind::LogitGrads => 2,
            MessageKind::CutGrads => 3,
            MessageKind::Features => 4,
            MessageKind::FeatureGrads => 5,
            MessageKind::ModelDown => 6,
            MessageKind::ModelUp => 7,
            MessageKind::GradPush => 8,
            MessageKind::L1Sync => 9,
            MessageKind::RawData => 10,
            MessageKind::Control => 11,
            MessageKind::InferRequest => 12,
            MessageKind::InferResponse => 13,
            MessageKind::SessionHandoff => 14,
            MessageKind::RelayBatch => 15,
        }
    }

    /// Inverse of [`MessageKind::wire_code`].
    fn from_wire_code(code: u8) -> Option<MessageKind> {
        MessageKind::all().iter().copied().find(|k| k.wire_code() == code)
    }

    /// All kinds, for report iteration.
    pub fn all() -> &'static [MessageKind] {
        &[
            MessageKind::Activations,
            MessageKind::Logits,
            MessageKind::LogitGrads,
            MessageKind::CutGrads,
            MessageKind::Features,
            MessageKind::FeatureGrads,
            MessageKind::ModelDown,
            MessageKind::ModelUp,
            MessageKind::GradPush,
            MessageKind::L1Sync,
            MessageKind::RawData,
            MessageKind::InferRequest,
            MessageKind::InferResponse,
            MessageKind::Control,
            MessageKind::SessionHandoff,
            MessageKind::RelayBatch,
        ]
    }
}

impl std::fmt::Display for MessageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// FNV prime: odd, so `h → (h ^ w) * P` permutes the 32-bit states for
/// every word `w`, and is injective in `w` for every state `h`.
const CHECKSUM_PRIME: u32 = 0x0100_0193;
const CHECKSUM_BASIS: u32 = 0x811C_9DC5;
/// States of [`payload_checksum`] outside its 256-byte blocks: one
/// 32-byte block is one step of all eight, and a single vector step only
/// where the code is generated for AVX2.
const CHECKSUM_LANES: usize = 8;
/// States of [`payload_checksum`] over its 256-byte blocks: eight
/// independent eight-lane multiply chains, enough to cover the multiply's
/// latency. Under AVX2 code generation each chain is one vector register.
const CHECKSUM_WIDE_LANES: usize = 64;

medsplit_tensor::kernel! {
    #[target_feature("avx2")]
    /// The payload checksum carried by every [`Envelope`]: a word-wise
    /// multiplicative hash. The payload is read as little-endian `u32` words,
    /// and every word goes through one step `h = (h ^ w) * P`:
    /// 1. If the payload holds at least one whole 256-byte block, 64 lanes
    ///    start at the basis, word `i` of each whole 256-byte block goes
    ///    through lane `i`, and the lanes then fold into eight: lane `j`
    ///    absorbs lane `j + 32` as its word, then lane `j + 16`, then lane
    ///    `j + 8`. Otherwise eight lanes start at the basis.
    /// 2. Word `i` of each whole 32-byte block of what remains goes through
    ///    lane `i` of the eight.
    /// 3. The eight lanes, the up to seven words after the last whole block,
    ///    the zero-padded byte tail and the length are folded through the
    ///    same step.
    ///
    /// Below 256 bytes step 1 does nothing, so short payloads keep the value
    /// of the eight-lane definition. The body is one safe portable function
    /// behind the tensor kernels' dispatch (`medsplit_tensor::kernel!`): on
    /// x86-64 with AVX2 active it runs compiled for AVX2, under
    /// `MEDSPLIT_ISA=scalar` as written; integer steps only, so the value is
    /// the same on every CPU and ISA.
    ///
    /// Not cryptographic: it exists so that *injected* bit corruption (see
    /// `ChaosTransport`) is detected at the receiver instead of being
    /// silently trained on. Every change confined to one aligned word — so
    /// every single-bit and single-byte flip — is detected with certainty:
    /// the step is injective in `w`, so the state right after the changed
    /// word differs, and every later step is a bijection of the state it
    /// updates; in the fold a changed lane enters one step, as the state or
    /// as the word, so the difference survives to the end.
    pub fn payload_checksum(bytes: &[u8]) -> u32 {
        let mix = |h: u32, w: u32| (h ^ w).wrapping_mul(CHECKSUM_PRIME);
        let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let mut lanes = [CHECKSUM_BASIS; CHECKSUM_LANES];
        let mut wide_blocks = bytes.chunks_exact(4 * CHECKSUM_WIDE_LANES);
        if wide_blocks.len() > 0 {
            // Lane `i` of the 64 is lane `i % 8` of vector `i / 8`.
            let mut wide = [[CHECKSUM_BASIS; CHECKSUM_LANES]; CHECKSUM_WIDE_LANES / CHECKSUM_LANES];
            for block in &mut wide_blocks {
                for (vector, words) in wide.iter_mut().zip(block.chunks_exact(4 * CHECKSUM_LANES)) {
                    for (lane, w) in vector.iter_mut().zip(words.chunks_exact(4)) {
                        *lane = mix(*lane, word(w));
                    }
                }
            }
            // Vector `v` absorbs vector `v + half`: lane `j` absorbs lane
            // `j + 32`, then `j + 16`, then `j + 8`.
            for half in [4, 2, 1] {
                let (low, high) = wide.split_at_mut(half);
                for (vector, absorbed) in low.iter_mut().zip(&*high) {
                    for (lane, &w) in vector.iter_mut().zip(absorbed) {
                        *lane = mix(*lane, w);
                    }
                }
            }
            lanes = wide[0];
        }
        let mut blocks = wide_blocks.remainder().chunks_exact(4 * CHECKSUM_LANES);
        for block in &mut blocks {
            for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(4)) {
                *lane = mix(*lane, word(w));
            }
        }
        let mut hash = lanes.into_iter().fold(CHECKSUM_BASIS, mix);
        let mut words = blocks.remainder().chunks_exact(4);
        for w in &mut words {
            hash = mix(hash, word(w));
        }
        let mut tail = [0u8; 4];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        mix(mix(hash, u32::from_le_bytes(tail)), bytes.len() as u32)
    }
}

/// Bytes [`Envelope::encode`] writes before the payload; the last eight
/// are the payload length.
pub const FRAME_HEADER_LEN: usize = 45;

/// The payload range of the frame at the start of `buf`, from its length
/// field; `None` if the header or the declared payload is not all there.
fn frame_payload(buf: &[u8]) -> Option<std::ops::Range<usize>> {
    let len = buf.get(FRAME_HEADER_LEN - 8..FRAME_HEADER_LEN)?;
    let len = usize::try_from(u64::from_le_bytes(len.try_into().ok()?)).ok()?;
    let end = FRAME_HEADER_LEN.checked_add(len)?;
    (end <= buf.len()).then_some(FRAME_HEADER_LEN..end)
}

/// Logical size of a [`MessageKind::RelayBatch`] payload: each inner
/// frame's [`FRAME_HEADER_LEN`] plus the logical length of its payload,
/// so a batch of compressed tensors counts what the same batch of f32
/// tensors would. A frame that does not parse counts the bytes from
/// there on as they are.
fn logical_batch_len(payload: &[u8]) -> usize {
    let mut logical = 0;
    let mut rest = payload;
    while !rest.is_empty() {
        let Some(inner) = frame_payload(rest) else {
            return logical + rest.len();
        };
        logical += FRAME_HEADER_LEN + f32_equivalent_len(&rest[inner.clone()]);
        rest = &rest[inner.end..];
    }
    logical
}

/// One message on the wire: routing metadata plus an opaque serialised
/// payload. Payloads are produced by `Tensor::to_bytes` (or are empty for
/// control messages), so the byte accounting below is exact.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Training round this message belongs to.
    pub round: u64,
    /// Per-sender sequence number, stamped by the transport at send time
    /// (0 until sent through a sequencing transport). Lets receivers
    /// distinguish a retransmission from a duplicated delivery.
    pub seq: u64,
    /// Message kind for accounting and dispatch.
    pub kind: MessageKind,
    /// [`payload_checksum`] of the payload, computed at construction. A
    /// mismatch against [`payload_checksum`] of the received payload
    /// means the bytes were corrupted in flight.
    pub checksum: u32,
    /// Serialised payload.
    pub payload: Bytes,
}

impl Envelope {
    /// Creates an envelope. The payload checksum is computed here; the
    /// sequence number starts at 0 and is stamped by the transport.
    pub fn new(src: NodeId, dst: NodeId, round: u64, kind: MessageKind, payload: Bytes) -> Self {
        let checksum = payload_checksum(&payload);
        Envelope {
            src,
            dst,
            round,
            seq: 0,
            kind,
            checksum,
            payload,
        }
    }

    /// A payload-less control message.
    pub fn control(src: NodeId, dst: NodeId, round: u64) -> Self {
        Envelope::new(src, dst, round, MessageKind::Control, Bytes::new())
    }

    /// Whether the payload still matches the checksum stamped at
    /// construction. `false` means the message was corrupted in flight
    /// and must be discarded (and, under a retry policy, NACKed).
    pub fn verify_checksum(&self) -> bool {
        payload_checksum(&self.payload) == self.checksum
    }

    /// Bytes this message occupies on the wire (payload + framing).
    pub fn wire_size(&self) -> usize {
        self.payload.len() + HEADER_BYTES
    }

    /// Bytes this message *would* occupy with uncompressed f32 tensor
    /// payloads (payload + framing) — see
    /// [`f32_equivalent_len`]; a relay batch counts its inner frames the
    /// same way. Equal to
    /// [`wire_size`](Self::wire_size) for everything except compressed
    /// tensor payloads; the gap between the two is exactly what a wire
    /// codec saved.
    pub fn logical_size(&self) -> usize {
        let payload = match self.kind {
            MessageKind::RelayBatch => logical_batch_len(&self.payload),
            _ => f32_equivalent_len(&self.payload),
        };
        payload + HEADER_BYTES
    }

    /// Serialises the envelope to a canonical byte frame:
    /// `kind u8 · src u64 · dst u64 · round u64 · seq u64 · checksum u32
    /// · len u64 · payload`, all little-endian. The server is encoded as
    /// `u64::MAX`, platform `i` as `i`.
    ///
    /// The frame is what a real socket transport would write; the
    /// *accounted* framing overhead stays the flat [`HEADER_BYTES`]
    /// approximation regardless of the actual frame length.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(FRAME_HEADER_LEN + self.payload.len());
        self.encode_into(&mut out);
        Bytes::from(out)
    }

    /// Appends the [`encode`](Self::encode) frame to `out`, so several
    /// frames can be written once each into one buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        fn node_code(n: NodeId) -> u64 {
            match n {
                NodeId::Server => u64::MAX,
                NodeId::Platform(i) => i as u64,
                NodeId::Replica(i) => REPLICA_CODE_BASE + i as u64,
                NodeId::Relay(i) => RELAY_CODE_BASE + i as u64,
            }
        }
        out.reserve(FRAME_HEADER_LEN + self.payload.len());
        out.push(self.kind.wire_code());
        out.extend_from_slice(&node_code(self.src).to_le_bytes());
        out.extend_from_slice(&node_code(self.dst).to_le_bytes());
        out.extend_from_slice(&self.round.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.checksum.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
    }

    /// Decodes a frame produced by [`Envelope::encode`], copying its
    /// payload out of `frame`.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] for truncated frames or unknown kind codes.
    pub fn decode(frame: &[u8]) -> Result<Envelope, FrameError> {
        Self::decode_with(frame, |payload| Bytes::copy_from_slice(&frame[payload]))
    }

    /// Takes one frame off the front of `buf`; the envelope's payload is
    /// a view into `buf`'s allocation, not a copy. `buf` is left as it
    /// was on error.
    ///
    /// # Errors
    ///
    /// As [`Envelope::decode`].
    pub fn decode_from(buf: &mut Bytes) -> Result<Envelope, FrameError> {
        let env = Self::decode_with(buf, |payload| buf.slice(payload))?;
        bytes::Buf::advance(buf, FRAME_HEADER_LEN + env.payload.len());
        Ok(env)
    }

    fn decode_with(
        frame: &[u8],
        payload: impl FnOnce(std::ops::Range<usize>) -> Bytes,
    ) -> Result<Envelope, FrameError> {
        fn node_from(code: u64) -> NodeId {
            if code == u64::MAX {
                NodeId::Server
            } else if code >= REPLICA_CODE_BASE {
                NodeId::Replica((code - REPLICA_CODE_BASE) as usize)
            } else if code >= RELAY_CODE_BASE {
                NodeId::Relay((code - RELAY_CODE_BASE) as usize)
            } else {
                NodeId::Platform(code as usize)
            }
        }
        let kind_code = *frame.first().ok_or(FrameError::Truncated { len: 0 })?;
        let kind = MessageKind::from_wire_code(kind_code).ok_or(FrameError::UnknownKind(kind_code))?;
        let range = frame_payload(frame).ok_or(FrameError::Truncated { len: frame.len() })?;
        // `frame_payload` vouches for the whole header, so these reads
        // are in bounds.
        fn field<const N: usize>(frame: &[u8], at: usize) -> [u8; N] {
            let mut b = [0u8; N];
            b.copy_from_slice(&frame[at..at + N]);
            b
        }
        let u64_at = |at: usize| u64::from_le_bytes(field(frame, at));
        Ok(Envelope {
            src: node_from(u64_at(1)),
            dst: node_from(u64_at(9)),
            round: u64_at(17),
            seq: u64_at(25),
            kind,
            checksum: u32::from_le_bytes(field(frame, 33)),
            payload: payload(range),
        })
    }
}

/// Errors from [`Envelope::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The frame ended before the declared payload length.
    Truncated {
        /// Actual frame length in bytes.
        len: usize,
    },
    /// The kind byte does not name a [`MessageKind`].
    UnknownKind(u8),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { len } => write!(f, "truncated envelope frame ({len} bytes)"),
            FrameError::UnknownKind(code) => write!(f, "unknown message kind code {code}"),
        }
    }
}

impl std::error::Error for FrameError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_includes_header() {
        let env = Envelope::new(
            NodeId::Platform(0),
            NodeId::Server,
            1,
            MessageKind::Activations,
            Bytes::from(vec![0u8; 100]),
        );
        assert_eq!(env.wire_size(), 164);
        assert_eq!(
            Envelope::control(NodeId::Server, NodeId::Platform(0), 0).wire_size(),
            HEADER_BYTES
        );
    }

    /// The tensor crate's frame magics, as test data.
    const TENSOR_MAGIC_F32: u32 = 0x4D54_534E;
    const TENSOR_MAGIC_F16: u32 = 0x4D54_5348;
    const TENSOR_MAGIC_I8: u32 = 0x4D54_5351;

    /// Hand-builds a tensor payload header (`magic · rank · dims`) plus
    /// `data_len` payload bytes, in the tensor crate's format.
    fn tensor_payload(magic: u32, dims: &[u64], scale: bool, data_len: usize) -> Vec<u8> {
        let mut p = Vec::new();
        p.extend_from_slice(&magic.to_le_bytes());
        p.extend_from_slice(&(dims.len() as u32).to_le_bytes());
        for &d in dims {
            p.extend_from_slice(&d.to_le_bytes());
        }
        if scale {
            p.extend_from_slice(&1.0f32.to_le_bytes());
        }
        p.extend_from_slice(&vec![0u8; data_len]);
        p
    }

    #[test]
    fn logical_len_inverts_compressed_encodings() {
        // A [3, 4] tensor: f32 frame = 8 + 16 + 48 bytes.
        let f32_len = 8 + 16 + 48;
        let f32_payload = tensor_payload(TENSOR_MAGIC_F32, &[3, 4], false, 48);
        assert_eq!(f32_equivalent_len(&f32_payload), f32_len);
        // f16 stores 2 bytes per element, logical is the f32 frame.
        let f16_payload = tensor_payload(TENSOR_MAGIC_F16, &[3, 4], false, 24);
        assert_eq!(f16_payload.len(), 8 + 16 + 24);
        assert_eq!(f32_equivalent_len(&f16_payload), f32_len);
        // int8 stores 1 byte per element plus a 4-byte scale.
        let i8_payload = tensor_payload(TENSOR_MAGIC_I8, &[3, 4], true, 12);
        assert_eq!(i8_payload.len(), 8 + 16 + 4 + 12);
        assert_eq!(f32_equivalent_len(&i8_payload), f32_len);
    }

    #[test]
    fn logical_len_passes_through_non_tensor_payloads() {
        assert_eq!(f32_equivalent_len(&[]), 0);
        assert_eq!(f32_equivalent_len(&[1, 2, 3]), 3);
        let opaque = vec![0xABu8; 100];
        assert_eq!(f32_equivalent_len(&opaque), 100);
        // A truncated f16 header (rank says 16 dims, none present) must
        // not underflow — it falls back to the actual length.
        let mut short = Vec::new();
        short.extend_from_slice(&TENSOR_MAGIC_F16.to_le_bytes());
        short.extend_from_slice(&16u32.to_le_bytes());
        assert_eq!(f32_equivalent_len(&short), 8);
        // Implausible rank: treated as opaque.
        let mut weird = Vec::new();
        weird.extend_from_slice(&TENSOR_MAGIC_I8.to_le_bytes());
        weird.extend_from_slice(&99u32.to_le_bytes());
        weird.extend_from_slice(&[0u8; 64]);
        assert_eq!(f32_equivalent_len(&weird), 72);
    }

    #[test]
    fn relay_batch_logical_size_sees_through_the_codec() {
        let batch_of = |payloads: &[Vec<u8>]| {
            let mut frames = Vec::new();
            for (i, p) in payloads.iter().enumerate() {
                let inner = Envelope::new(
                    NodeId::Platform(i),
                    NodeId::Server,
                    3,
                    MessageKind::Activations,
                    Bytes::from(p.clone()),
                );
                frames.extend_from_slice(&inner.encode());
            }
            Envelope::new(
                NodeId::Relay(0),
                NodeId::Server,
                3,
                MessageKind::RelayBatch,
                Bytes::from(frames),
            )
        };
        let f32_batch = batch_of(&[
            tensor_payload(TENSOR_MAGIC_F32, &[3, 4], false, 48),
            tensor_payload(TENSOR_MAGIC_F32, &[5], false, 20),
        ]);
        let packed = batch_of(&[
            tensor_payload(TENSOR_MAGIC_F16, &[3, 4], false, 24),
            tensor_payload(TENSOR_MAGIC_I8, &[5], true, 5),
        ]);
        assert_eq!(f32_batch.logical_size(), f32_batch.wire_size());
        assert_eq!(packed.logical_size(), f32_batch.logical_size());
        assert!(packed.wire_size() < packed.logical_size());
        // An empty batch is just its framing.
        assert_eq!(batch_of(&[]).logical_size(), HEADER_BYTES);

        // A torn batch counts whole frames logically and the torn rest as
        // it is; a length field pointing past the end never panics.
        let whole = packed.payload.len();
        for cut in [1, FRAME_HEADER_LEN - 1, FRAME_HEADER_LEN + 10, whole - 3] {
            let mut torn = packed.clone();
            torn.payload = packed.payload.slice(..cut);
            assert!(torn.logical_size() >= torn.wire_size(), "cut at {cut}");
        }
        let mut lying = packed.payload.to_vec();
        lying[FRAME_HEADER_LEN - 8..FRAME_HEADER_LEN].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut bad = packed.clone();
        bad.payload = Bytes::from(lying);
        assert_eq!(bad.logical_size(), bad.wire_size());
        // The same bytes under any other kind are opaque.
        let mut relabelled = packed.clone();
        relabelled.kind = MessageKind::Control;
        assert_eq!(relabelled.logical_size(), relabelled.wire_size());
    }

    #[test]
    fn logical_size_adds_framing() {
        let payload = tensor_payload(TENSOR_MAGIC_F16, &[8], false, 16);
        let env = Envelope::new(
            NodeId::Platform(0),
            NodeId::Server,
            0,
            MessageKind::Activations,
            Bytes::from(payload),
        );
        assert_eq!(env.wire_size(), 8 + 8 + 16 + HEADER_BYTES);
        assert_eq!(env.logical_size(), 8 + 8 + 32 + HEADER_BYTES);
    }

    #[test]
    fn kind_names_unique() {
        let mut names: Vec<&str> = MessageKind::all().iter().map(|k| k.as_str()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn display_matches_as_str() {
        assert_eq!(MessageKind::Activations.to_string(), "activations");
        assert_eq!(MessageKind::CutGrads.to_string(), "cut_grads");
    }

    #[test]
    fn wire_codes_unique_and_invertible() {
        let mut codes: Vec<u8> = MessageKind::all().iter().map(|k| k.wire_code()).collect();
        let before = codes.len();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), before);
        for kind in MessageKind::all() {
            assert_eq!(MessageKind::from_wire_code(kind.wire_code()), Some(*kind));
        }
        assert_eq!(MessageKind::from_wire_code(200), None);
    }

    #[test]
    fn every_kind_round_trips_through_encode() {
        for (i, kind) in MessageKind::all().iter().enumerate() {
            let mut env = Envelope::new(
                NodeId::Platform(i),
                NodeId::Server,
                i as u64 * 7,
                *kind,
                Bytes::from(vec![i as u8; i * 13]),
            );
            env.seq = i as u64 * 31 + 1;
            let decoded = Envelope::decode(&env.encode()).unwrap();
            assert_eq!(decoded.src, env.src);
            assert_eq!(decoded.dst, env.dst);
            assert_eq!(decoded.round, env.round);
            assert_eq!(decoded.seq, env.seq);
            assert_eq!(decoded.kind, env.kind);
            assert_eq!(decoded.checksum, env.checksum);
            assert_eq!(decoded.payload, env.payload);
            assert_eq!(decoded.wire_size(), env.wire_size());
            assert!(decoded.verify_checksum());
        }
        // Server as source survives the u64::MAX encoding.
        let env = Envelope::control(NodeId::Server, NodeId::Platform(3), 9);
        let decoded = Envelope::decode(&env.encode()).unwrap();
        assert_eq!(decoded.src, NodeId::Server);
        assert_eq!(decoded.dst, NodeId::Platform(3));
        // Replicas survive the offset encoding in either role.
        let env = Envelope::control(NodeId::Replica(5), NodeId::Replica(0), 1);
        let decoded = Envelope::decode(&env.encode()).unwrap();
        assert_eq!(decoded.src, NodeId::Replica(5));
        assert_eq!(decoded.dst, NodeId::Replica(0));
        // Relays survive too, and decode below the replica band.
        let env = Envelope::control(NodeId::Relay(3), NodeId::Server, 2);
        let decoded = Envelope::decode(&env.encode()).unwrap();
        assert_eq!(decoded.src, NodeId::Relay(3));
        assert_eq!(decoded.dst, NodeId::Server);
    }

    #[test]
    fn decode_rejects_malformed_frames() {
        let env = Envelope::new(
            NodeId::Platform(0),
            NodeId::Server,
            1,
            MessageKind::InferRequest,
            Bytes::from(vec![1, 2, 3]),
        );
        let frame = env.encode();
        assert!(matches!(
            Envelope::decode(&[]),
            Err(FrameError::Truncated { len: 0 })
        ));
        assert!(matches!(
            Envelope::decode(&frame[..frame.len() - 1]),
            Err(FrameError::Truncated { .. })
        ));
        // A length field pointing past the end of memory is truncation,
        // not an overflowing index.
        let mut huge_len = frame.to_vec();
        huge_len[FRAME_HEADER_LEN - 8..FRAME_HEADER_LEN].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Envelope::decode(&huge_len),
            Err(FrameError::Truncated { .. })
        ));
        let mut bad_kind = frame.to_vec();
        bad_kind[0] = 250;
        assert!(matches!(
            Envelope::decode(&bad_kind),
            Err(FrameError::UnknownKind(250))
        ));
    }

    /// The checksum as its doc comment defines it, written word by word
    /// with explicit lane indices instead of block iterators.
    fn checksum_by_definition(bytes: &[u8]) -> u32 {
        checksum_folding_all_but(bytes, 0..0)
    }

    /// [`checksum_by_definition`], except that the wide lanes in
    /// `unfolded` never enter the fold: with a non-empty range, a broken
    /// checksum that the flip loop must catch.
    fn checksum_folding_all_but(bytes: &[u8], unfolded: std::ops::Range<usize>) -> u32 {
        let mix = |h: u32, w: u32| (h ^ w).wrapping_mul(CHECKSUM_PRIME);
        let words: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
            .collect();
        // 1. Whole 256-byte blocks through 64 lanes, folded into 8.
        let in_wide = words.len() / CHECKSUM_WIDE_LANES * CHECKSUM_WIDE_LANES;
        let mut lanes = vec![CHECKSUM_BASIS; CHECKSUM_LANES];
        if in_wide > 0 {
            lanes = vec![CHECKSUM_BASIS; CHECKSUM_WIDE_LANES];
            for (i, &w) in words[..in_wide].iter().enumerate() {
                lanes[i % CHECKSUM_WIDE_LANES] = mix(lanes[i % CHECKSUM_WIDE_LANES], w);
            }
            for half in [32, 16, 8] {
                for j in 0..half {
                    if !unfolded.contains(&(j + half)) {
                        lanes[j] = mix(lanes[j], lanes[j + half]);
                    }
                }
            }
            lanes.truncate(CHECKSUM_LANES);
        }
        // 2. Whole 32-byte blocks of the rest through the 8 lanes.
        let rest = &words[in_wide..];
        let in_blocks = rest.len() / CHECKSUM_LANES * CHECKSUM_LANES;
        for (i, &w) in rest[..in_blocks].iter().enumerate() {
            lanes[i % CHECKSUM_LANES] = mix(lanes[i % CHECKSUM_LANES], w);
        }
        // 3. The lanes, the leftover words, the tail and the length.
        let mut hash = CHECKSUM_BASIS;
        for &x in lanes.iter().chain(&rest[in_blocks..]) {
            hash = mix(hash, x);
        }
        let mut tail = 0u32;
        for (i, &b) in bytes[words.len() * 4..].iter().enumerate() {
            tail |= u32::from(b) << (8 * i);
        }
        mix(mix(hash, tail), bytes.len() as u32)
    }

    /// Lengths that cross every lane, leftover-word and tail boundary
    /// below one wide block, and around one and two wide blocks.
    fn flip_lengths() -> impl Iterator<Item = usize> {
        (0..=130).chain(250..=262).chain(506..=518)
    }

    fn flip_payload() -> Vec<u8> {
        (0..518u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    /// The first change to `clean` that `checksum` does not detect: a
    /// single-bit flip at any position, a whole-byte replacement at
    /// every position by a sample of values, truncation by one byte, or
    /// extension by a zero byte.
    fn first_undetected_change(checksum: impl Fn(&[u8]) -> u32, clean: &[u8]) -> Option<String> {
        let len = clean.len();
        let sum = checksum(clean);
        let mut bent = clean.to_vec();
        for at in 0..len {
            for bit in 0..8 {
                bent[at] ^= 1 << bit;
                if checksum(&bent) == sum {
                    return Some(format!("len {len}: bit {bit} of byte {at}"));
                }
                bent[at] ^= 1 << bit;
            }
            for with in [0x00, 0xFF, clean[at].wrapping_add(1)] {
                bent[at] = with;
                if with != clean[at] && checksum(&bent) == sum {
                    return Some(format!("len {len}: byte {at} := {with}"));
                }
            }
            bent[at] = clean[at];
        }
        if len > 0 && checksum(&clean[..len - 1]) == sum {
            return Some(format!("truncation at {len}"));
        }
        bent.push(0);
        (checksum(&bent) == sum).then(|| format!("zero-extension at {len}"))
    }

    /// Every single-bit flip of every position is detected, for lengths
    /// that cross every lane, leftover-word and tail boundary; so is
    /// every whole-byte replacement at a sample of positions, and
    /// truncation or zero-extension.
    #[test]
    fn checksum_detects_every_single_flip() {
        let payload = flip_payload();
        for len in flip_lengths() {
            let clean = &payload[..len];
            assert_eq!(
                payload_checksum(clean),
                checksum_by_definition(clean),
                "definition at length {len}"
            );
            assert_eq!(first_undetected_change(payload_checksum, clean), None);
        }
    }

    /// The flip loop has the power to fail: a checksum that leaves wide
    /// lanes 56..=63 out of the fold misses a change at a length of at
    /// least one wide block, and none below it.
    #[test]
    fn flip_loop_catches_a_checksum_that_skips_part_of_the_fold() {
        let payload = flip_payload();
        let broken = |b: &[u8]| checksum_folding_all_but(b, 56..64);
        let miss = flip_lengths().find(|&len| first_undetected_change(broken, &payload[..len]).is_some());
        assert_eq!(miss, Some(4 * CHECKSUM_WIDE_LANES));
    }

    /// The dispatched checksum equals its definition at every length
    /// across four wide blocks, on varied, all-zero and all-ones bytes,
    /// under the scalar ISA and the detected one (AVX2 where the CPU has
    /// it). The ISA is process-global; every test here computes the same
    /// value under either, so the switch cannot disturb them.
    #[test]
    fn dispatched_checksum_equals_portable_body() {
        use medsplit_tensor::simd;
        let varied: Vec<u8> = (0..1100u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8)
            .collect();
        for isa in [simd::Isa::Scalar, simd::detect()] {
            assert!(simd::set_isa(isa));
            for bytes in [&varied, &vec![0; 1100], &vec![0xFF; 1100]] {
                for len in 0..=bytes.len() {
                    let b = &bytes[..len];
                    assert_eq!(
                        payload_checksum(b),
                        checksum_by_definition(b),
                        "{} length {len}",
                        isa.name()
                    );
                }
            }
        }
    }

    /// Literal checksums of payloads shorter than one 256-byte block, and
    /// the whole frame of one 100-byte payload: pinned so that a change to
    /// how long payloads are hashed shows whether short payloads and their
    /// frames moved.
    #[test]
    fn checksum_values_below_256_bytes() {
        let payload: Vec<u8> = (0..255u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let pinned = [
            (0, 0x9f53_4135),
            (1, 0x9e53_3fa2),
            (3, 0xdfe0_5b7c),
            (4, 0x4937_6d23),
            (5, 0xba65_1197),
            (31, 0xb40a_bfe5),
            (32, 0x7321_1556),
            (33, 0x680f_bae4),
            (63, 0x5497_6920),
            (64, 0x225d_bb0b),
            (100, 0xb129_c0ad),
            (224, 0x3d65_2dc3),
            (255, 0xa6bf_401d),
        ];
        for (len, sum) in pinned {
            assert_eq!(payload_checksum(&payload[..len]), sum, "length {len}");
        }
        let mut env = Envelope::new(
            NodeId::Platform(2),
            NodeId::Server,
            7,
            MessageKind::Activations,
            Bytes::copy_from_slice(&payload[..100]),
        );
        env.seq = 11;
        // kind · src · dst · round · seq · checksum · len, then the payload.
        let frame: String = [
            "00 0200000000000000 ffffffffffffffff 0700000000000000 0b00000000000000 adc029b1 6400000000000000",
            "00bb7733efab6622de9a5611cd894501bc7834f0ac6723df9b5712ce8a4602bd",
            "7935f1ad6824e09c5813cf8b4703be7a36f2ae6925e19d5914d08c4804bf7b37",
            "f3af6a26e29e5a16d18d4905c17c38f4b06c27e39f5b17d28e4a06c27d39f5b1",
            "6d28e4a0",
        ]
        .concat()
        .replace(' ', "");
        let hex: String = env.encode().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, frame);
    }

    /// `Bytes` keeps the `Vec` it is built from, and a frame taken off a
    /// buffer with `decode_from` views that same allocation. (Pinned
    /// here because `vendor/bytes`' own tests are outside the default
    /// workspace members.)
    #[test]
    fn frames_share_the_buffer_they_arrive_in() {
        let v = vec![3u8; 256];
        let ptr = v.as_ptr();
        let bytes = Bytes::from(v);
        assert_eq!(bytes.as_ptr(), ptr);
        assert_eq!(bytes.slice(16..32).as_ptr(), ptr.wrapping_add(16));
        assert_eq!(bytes.clone().as_ptr(), ptr);

        let envs: Vec<Envelope> = (0..3)
            .map(|i| {
                Envelope::new(
                    NodeId::Platform(i),
                    NodeId::Server,
                    4,
                    MessageKind::Activations,
                    Bytes::from(vec![i as u8; 10 * i]),
                )
            })
            .collect();
        let mut batch = Vec::new();
        for env in &envs {
            env.encode_into(&mut batch);
        }
        let base = batch.as_ptr();
        let mut rest = Bytes::from(batch);
        let mut at = 0;
        for env in &envs {
            assert_eq!(&rest[..FRAME_HEADER_LEN + env.payload.len()], &env.encode()[..]);
            let got = Envelope::decode_from(&mut rest).unwrap();
            assert_eq!(got.payload, env.payload);
            assert_eq!(got.checksum, env.checksum);
            assert_eq!(got.payload.as_ptr(), base.wrapping_add(at + FRAME_HEADER_LEN));
            at += FRAME_HEADER_LEN + env.payload.len();
        }
        assert!(rest.is_empty());
        // A torn frame is an error and leaves the buffer where it was.
        let mut torn = envs[2].encode().slice(..FRAME_HEADER_LEN + 5);
        assert!(matches!(
            Envelope::decode_from(&mut torn),
            Err(FrameError::Truncated { .. })
        ));
        assert_eq!(torn.len(), FRAME_HEADER_LEN + 5);
    }

    #[test]
    fn checksum_detects_payload_corruption() {
        let mut env = Envelope::new(
            NodeId::Platform(0),
            NodeId::Server,
            2,
            MessageKind::Activations,
            Bytes::from(vec![9u8; 32]),
        );
        assert!(env.verify_checksum());
        // Flip one payload bit: the stamped checksum no longer matches.
        let mut bytes = env.payload.to_vec();
        bytes[7] ^= 0x10;
        env.payload = Bytes::from(bytes);
        assert!(!env.verify_checksum());
        // The corruption also survives an encode/decode round trip.
        let decoded = Envelope::decode(&env.encode()).unwrap();
        assert!(!decoded.verify_checksum());
        // Empty payloads are valid too.
        assert!(Envelope::control(NodeId::Server, NodeId::Platform(0), 0).verify_checksum());
    }
}
