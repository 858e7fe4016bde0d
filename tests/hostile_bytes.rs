//! No decoder of the wire path sizes an allocation by a length field it
//! has not checked against the bytes actually present.
//!
//! The per-crate property tests show that arbitrary bytes give a typed
//! error or a valid value and never a panic; this file adds the memory
//! half with an allocator that records the largest single request a
//! decoder makes. The bound is linear in the input: four bytes of `f32`
//! per payload byte is the most a legitimate int8 tensor frame needs, and
//! `SLACK` covers error strings, the dims vector and the first growth of
//! an envelope vector. The two text readers — the JSON reader behind
//! traces, run directories and baselines, and the lab's manifest reader —
//! get the same bound on arbitrary text, and neither lets nesting depth
//! reach the stack.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use medsplit::core::{relay, WireCodec};
use medsplit::fleet::{decode_sessions, encode_sessions, SessionKey, SessionState};
use medsplit::serve::{
    decode_request, decode_response, decode_routed_request, encode_request, encode_response,
    encode_routed_request, InferStatus, RoutedRequest,
};
use medsplit::simnet::{Envelope, MessageKind, NodeId, FRAME_HEADER_LEN};
use medsplit::telemetry::json;
use medsplit::tensor::Tensor;
use medsplit_lab::Manifest;
use proptest::prelude::*;

const SLACK: usize = 4096;

thread_local! {
    /// Largest allocation requested on this thread while watching.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

struct Watching;

// SAFETY: every request is passed unchanged to `System`; the only
// addition is a read-modify-write of a `Cell` in a const-initialised
// thread-local with no destructor, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc`, forwarded as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's contract for `realloc`, forwarded as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

fn note(size: usize) {
    LARGEST.with(|l| {
        if let Some(seen) = l.get() {
            l.set(Some(seen.max(size)));
        }
    });
}

/// Runs `f` and returns the largest single allocation it requested.
fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|l| l.set(Some(0)));
    let out = f();
    let largest = LARGEST.with(|l| l.take()).unwrap_or(0);
    (out, largest)
}

/// Every wire-path decoder on `raw`, each under the allocation bound.
fn decode_everything(raw: &[u8]) -> Result<(), String> {
    let bound = 4 * raw.len() + SLACK;
    let check = |what: &str, largest: usize| {
        if largest > bound {
            return Err(format!(
                "{what} asked for {largest} bytes on a {}-byte input",
                raw.len()
            ));
        }
        Ok(())
    };
    let (tensor, largest) = largest_allocation(|| Tensor::from_bytes(raw));
    check("Tensor::from_bytes", largest)?;
    if let Ok(t) = tensor {
        if t.numel() > raw.len() {
            return Err(format!("{} elements out of {} bytes", t.numel(), raw.len()));
        }
    }
    let (_, largest) = largest_allocation(|| Envelope::decode(raw));
    check("Envelope::decode", largest)?;

    let as_batch = Envelope::new(
        NodeId::Relay(0),
        NodeId::Server,
        0,
        MessageKind::RelayBatch,
        Bytes::copy_from_slice(raw),
    );
    let (inner, largest) = largest_allocation(|| relay::unbatch(&as_batch));
    check("relay::unbatch", largest)?;
    if let Ok(inner) = inner {
        let framed: usize = inner.iter().map(|e| FRAME_HEADER_LEN + e.payload.len()).sum();
        if framed != raw.len() {
            return Err(format!("unbatched {framed} of {} bytes", raw.len()));
        }
    }
    let (logical, largest) = largest_allocation(|| as_batch.logical_size());
    check("Envelope::logical_size", largest)?;
    if logical > 64 + 4 * raw.len() {
        return Err(format!("logical size {logical} of {} bytes", raw.len()));
    }

    // The serving path: `raw` as the payload of a request and of a
    // response, and as a session-handoff blob.
    let payload = Bytes::copy_from_slice(raw);
    let serving = |kind| Envelope::new(NodeId::Platform(0), NodeId::Server, 0, kind, payload.clone());
    let request = serving(MessageKind::InferRequest);
    let (got, largest) = largest_allocation(|| decode_request(&request));
    check("decode_request", largest)?;
    let (routed, largest) = largest_allocation(|| decode_routed_request(&request));
    check("decode_routed_request", largest)?;
    let response = serving(MessageKind::InferResponse);
    let (answered, largest) = largest_allocation(|| decode_response(&response));
    check("decode_response", largest)?;
    // What a decoder lets through, the replay may sort and add.
    let times = [
        got.ok().map(|r| (r.submit_s, r.deadline_s)),
        routed.ok().map(|r| (r.submit_s, r.deadline_s)),
        answered.ok().map(|r| (r.submit_s, r.served_s)),
    ];
    for (at, second) in times.into_iter().flatten() {
        if !at.is_finite() || second.is_nan() {
            return Err(format!("a serving decoder passed the times ({at}, {second})"));
        }
    }
    let (sessions, largest) = largest_allocation(|| decode_sessions(&payload));
    check("decode_sessions", largest)?;
    if let Ok(sessions) = sessions {
        if 8 + 36 * sessions.len() != raw.len() {
            return Err(format!("{} sessions out of {} bytes", sessions.len(), raw.len()));
        }
    }
    Ok(())
}

/// A frame of each kind the decoders meet, to mutate: the three tensor
/// encodings, an envelope around one, a relay batch of two, the three
/// serving payloads and a session-handoff blob.
fn valid_frames() -> Vec<Vec<u8>> {
    let t = Tensor::from_vec((0..24).map(|i| i as f32 * 0.37 - 4.0).collect(), [4, 6]).unwrap();
    let env = |pid, payload| {
        Envelope::new(
            NodeId::Platform(pid),
            NodeId::Server,
            5,
            MessageKind::Activations,
            payload,
        )
    };
    let inner = [env(0, t.to_bytes_i8()), env(1, t.to_bytes_f16())];
    let routed = RoutedRequest {
        id: 7,
        submit_s: 0.25,
        deadline_s: f64::INFINITY,
        tenant: 1,
        session: 2,
        version: 0,
        activations: t.clone(),
    };
    let session = SessionState::new(
        SessionKey {
            tenant: 1,
            session: 2,
        },
        0,
    );
    let p0 = NodeId::Platform(0);
    vec![
        t.to_bytes().to_vec(),
        t.to_bytes_f16().to_vec(),
        t.to_bytes_i8().to_vec(),
        inner[0].encode().to_vec(),
        relay::batch_upstream(0, 5, &inner).payload.to_vec(),
        encode_request(p0, 7, 0.25, 1.5, &t, WireCodec::F16)
            .payload
            .to_vec(),
        encode_routed_request(p0, NodeId::Server, &routed, WireCodec::Int8)
            .payload
            .to_vec(),
        encode_response(p0, 7, 0.25, 0.5, InferStatus::Ok, Some(&t), WireCodec::F32)
            .payload
            .to_vec(),
        encode_sessions(&[session, session]).to_vec(),
    ]
}

/// Both text readers on `raw` read as lossy UTF-8, each under the bound.
/// The bound is for arbitrary text: a long crafted list (`[0,0,…]`)
/// costs either tree reader 8–26 bytes per input byte, one list slot per
/// element.
fn read_text(raw: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(raw);
    let bound = 4 * text.len() + SLACK;
    let (_, largest) = largest_allocation(|| json::parse(&text));
    if largest > bound {
        return Err(format!(
            "json::parse asked for {largest} bytes on {} bytes",
            text.len()
        ));
    }
    let (_, largest) = largest_allocation(|| Manifest::parse(&text));
    if largest > bound {
        return Err(format!(
            "Manifest::parse asked for {largest} bytes on {} bytes",
            text.len()
        ));
    }
    Ok(())
}

proptest! {
    #[test]
    fn random_text_is_read_within_the_bound(raw in prop::collection::vec(0u8..=255, 0..400)) {
        if let Err(why) = read_text(&raw) {
            prop_assert!(false, "{why}");
        }
    }

    #[test]
    fn random_buffers_are_decoded_within_the_bound(raw in prop::collection::vec(0u8..=255, 0..200)) {
        if let Err(why) = decode_everything(&raw) {
            prop_assert!(false, "{why}");
        }
    }

    /// Valid frames with a run of bytes overwritten — length fields, dims
    /// and ranks among them — then cut short or padded.
    #[test]
    fn mutated_frames_are_decoded_within_the_bound(
        which in 0usize..9,
        at in 0usize..400,
        patch in prop::collection::vec(0u8..=255, 1..9),
        resize in 0usize..80,
    ) {
        let mut raw = valid_frames().swap_remove(which);
        let at = at % raw.len();
        for (dst, src) in raw[at..].iter_mut().zip(&patch) {
            *dst = *src;
        }
        raw.resize(raw.len().saturating_sub(40) + resize, 0xEE);
        if let Err(why) = decode_everything(&raw) {
            prop_assert!(false, "{why}");
        }
    }
}

/// The headers a wrapping multiply or an unchecked add used to accept.
#[test]
fn known_hostile_headers_are_refused_cheaply() {
    let mut overflowing_dims = Vec::new();
    overflowing_dims.extend_from_slice(&0x4D54_534Eu32.to_le_bytes());
    overflowing_dims.extend_from_slice(&2u32.to_le_bytes());
    overflowing_dims.extend_from_slice(&(1u64 << 63).to_le_bytes());
    overflowing_dims.extend_from_slice(&2u64.to_le_bytes());
    let (got, largest) = largest_allocation(|| Tensor::from_bytes(&overflowing_dims[..]));
    assert!(got.is_err());
    assert!(largest <= SLACK, "{largest}");

    let mut big_dim = overflowing_dims.clone();
    big_dim[8..16].copy_from_slice(&(1u64 << 36).to_le_bytes());
    big_dim[16..24].copy_from_slice(&1u64.to_le_bytes());
    let (got, largest) = largest_allocation(|| Tensor::from_bytes(&big_dim[..]));
    assert!(got.is_err());
    assert!(largest <= SLACK, "{largest}");

    // The watch is live: a valid int8 frame of 24 elements allocates them.
    let (got, largest) = largest_allocation(|| Tensor::from_bytes(&valid_frames()[2][..]));
    assert_eq!(got.unwrap().numel(), 24);
    assert!((96..=SLACK).contains(&largest), "{largest}");

    // A session count whose byte length wraps `usize` back onto the eight
    // bytes present: 8 + 2^62 * 36 = 8 (mod 2^64).
    let wrapping_count = Bytes::from((1u64 << 62).to_le_bytes().to_vec());
    let (got, largest) = largest_allocation(|| decode_sessions(&wrapping_count));
    assert!(got.is_err());
    assert!(largest <= SLACK, "{largest}");

    // A NaN submission time would reach the server's arrival sort.
    let frames = valid_frames();
    let mut nan_submit = frames[5].clone();
    nan_submit[8..16].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
    let env = |raw: &[u8]| {
        Envelope::new(
            NodeId::Platform(0),
            NodeId::Server,
            7,
            MessageKind::InferRequest,
            Bytes::copy_from_slice(raw),
        )
    };
    assert!(decode_request(&env(&frames[5])).is_ok());
    assert!(decode_request(&env(&nan_submit)).is_err());

    for frame in frames {
        decode_everything(&frame).unwrap();
        for lying in [u64::MAX, u64::MAX - 44, 1 << 40] {
            let mut raw = frame.clone();
            if raw.len() >= FRAME_HEADER_LEN {
                raw[FRAME_HEADER_LEN - 8..FRAME_HEADER_LEN].copy_from_slice(&lying.to_le_bytes());
                decode_everything(&raw).unwrap();
            }
        }
    }
}

/// Long crafted lists: a 10,000-value `seed` axis stays inside the bound
/// (the manifest reader keeps a list as text until it is read as
/// integers, eight bytes per value of at least two bytes of text), and a
/// 20 KB `[0,0,…]` asks the JSON reader for its 10,000 nodes once, at
/// their count. A node is larger than eight times its two bytes of text,
/// so that one is held to its exact size rather than to the bound.
#[test]
fn crafted_long_lists_are_allocated_at_their_count() {
    let seeds: Vec<String> = (0..10_000).map(|s| s.to_string()).collect();
    let manifest = format!(
        "[lab]\nname = \"x\"\n[matrix]\nbench = [\"a\"]\nseed = [{}]\n",
        seeds.join(", ")
    );
    let (got, _) = largest_allocation(|| Manifest::parse(&manifest));
    assert_eq!(got.map(|m| m.axes.seed.len()), Ok(10_000));
    read_text(manifest.as_bytes()).unwrap();

    let zeros = format!("[{}0]", "0,".repeat(9_999));
    assert_eq!(zeros.len(), 20_001);
    let (got, largest) = largest_allocation(|| json::parse(&zeros));
    assert!(matches!(got, Ok(json::Json::Arr(items)) if items.len() == 10_000));
    let nodes = 10_000 * std::mem::size_of::<json::Json>();
    assert!(largest <= nodes, "{largest} bytes for {nodes} of nodes");
}

/// A megabyte of open brackets is a typed error from both text readers,
/// read on a thread whose stack a recursion per level would overflow.
#[test]
fn nesting_depth_cannot_reach_the_stack() {
    let deep = "[".repeat(1 << 20);
    let manifest = format!("[lab]\nname = \"x\"\n[matrix]\nbench = {deep}\n");
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            assert!(json::parse(&deep).is_err());
            assert!(Manifest::parse(&manifest).is_err());
        })
        .expect("spawn a small-stack reader")
        .join()
        .expect("both readers return on deep nesting");
}
