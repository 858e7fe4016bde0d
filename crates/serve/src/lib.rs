//! `medsplit-serve`: split-inference serving for the geo-distributed
//! medical platform simulation.
//!
//! Training (the other crates) answers *how the model is learned without
//! moving patient data*; this crate answers *how the learned model is
//! used* under the same constraint. A deployed platform keeps `L1` local,
//! runs it over an incoming query, and ships the (possibly noised)
//! activations to the central server, which batches requests from all
//! platforms, runs `L2..Lk` forward-only, and returns logits — raw
//! features still never leave the hospital.
//!
//! The pieces:
//!
//! - [`wire`]: request/response payload formats over the simnet
//!   [`Envelope`](medsplit_simnet::Envelope), with their own
//!   [`MessageKind`](medsplit_simnet::MessageKind)s so serving traffic is
//!   accounted separately from training. The decoders take outside
//!   bytes: checked reads, and no timestamp that is not a time.
//! - [`batcher`]: a pure dynamic-batching state machine (flush on size or
//!   age) with bounded-queue admission control.
//! - [`executor`]: what one server *is* under the simulated clock — the
//!   batcher plus a busy clock, asked three questions by a replay loop
//!   (what is due by `t`, what becomes of this arrival, what is left at
//!   the end), and the one batch compute (expired split, one
//!   `concat0`/`infer`/`slice0` per group), for one batch or for many
//!   side by side on the kernel pool. This crate's server and every
//!   `medsplit-fleet` replica are this type; `request_id` and the
//!   clock-to-`t` helper live next to it.
//! - [`runtime`]: the serving session, driven from the caller's thread —
//!   clients submit open-loop, the server collects, sorts by simulated
//!   arrival, replays the executor to a schedule and answers in its
//!   order, clients receive — with the `L1` and `L2..Lk` inferences on
//!   the kernel pool, explicit rejection/timeout responses, and the
//!   [`ClientRecord`] latency rule both drivers use.
//! - [`metrics`]: p50/p95/p99 latency summaries, per-request byte
//!   accounting, and the one [`ServeReport`] fold from client records.

#![warn(missing_docs)]

pub mod batcher;
pub mod executor;
pub mod metrics;
pub mod runtime;
pub mod wire;

pub use batcher::{Admission, BatchEntry, DynamicBatcher};
pub use executor::{
    busy_until, forward_batch, infer_batches, request_id, sync_clock, Answers, Arrived, Due, Executor,
};
pub use metrics::{LatencySummary, ServeReport};
pub use runtime::{serve_threaded, ClientRecord, ServeConfig, ServeOutcome};
pub use wire::{
    decode_request, decode_response, decode_routed_request, encode_request, encode_response,
    encode_response_from, encode_routed_request, InferRequest, InferResponse, InferStatus, RoutedRequest,
};
