//! `medsplit-serve`: split-inference serving for the geo-distributed
//! medical platform simulation, on one server or on a fleet of them.
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
//!   batcher plus a busy clock, asked three questions by the serving
//!   loop (what is due by `t`, what becomes of this arrival, what is left
//!   at the end), and the one batch compute (expired split, one
//!   `concat0`/`infer`/`slice0` per group); `request_id` and the
//!   clock-to-`t` helper live next to it.
//! - [`sim`]: the one serving loop. Platforms submit open-loop with
//!   their `L1` side by side on the kernel pool; a router admits, pins a
//!   weight version and dispatches; replicas batch, and their batches
//!   run side by side on the kernel pool; every platform collects one
//!   answer per query. [`sim::run_fleet`] runs it over `N` replicas with
//!   chaos, drain and rejoin.
//! - [`runtime`]: the single server, [`serve_threaded`] — the loop with
//!   one replica on the server's own node — and the [`ClientRecord`]
//!   latency rule.
//! - [`replica`], [`router`], [`ring`], [`bank`], [`session`],
//!   [`config`]: a fleet's members — a replica is an executor plus a
//!   lifecycle phase, a session shard and per-version models; the router
//!   holds quotas, version pins and the in-flight table over a
//!   consistent-hash ring with virtual nodes; the bank holds every weight
//!   version; sessions move between replicas in handoff frames.
//! - [`metrics`]: p50/p95/p99 latency summaries, per-request byte
//!   accounting, and the one [`ServeReport`] fold from client records.

#![warn(missing_docs)]

pub mod bank;
pub mod batcher;
pub mod config;
pub mod executor;
pub mod metrics;
pub mod replica;
pub mod ring;
pub mod router;
pub mod runtime;
pub mod session;
pub mod sim;
pub mod wire;

pub use batcher::{Admission, BatchEntry, DynamicBatcher};
pub use metrics::{LatencySummary, ServeReport};
pub use runtime::{serve_threaded, ClientRecord, ServeConfig, ServeOutcome};
pub use wire::{
    decode_request, decode_response, decode_routed_request, encode_request, encode_response,
    encode_response_from, encode_routed_request, InferRequest, InferResponse, InferStatus, RoutedRequest,
};
