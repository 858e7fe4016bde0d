//! Workspace-wide telemetry: tracing spans, a metrics registry, and
//! trace exporters — the observability substrate for the split-learning
//! stack.
//!
//! The paper's evaluation is an observability claim (accuracy per
//! transmitted byte); this crate generalises the repo's fragmented
//! accounting into one substrate that attributes wall time and bytes to
//! protocol phases and kernels:
//!
//! - [`span`] / [`span_round`] — RAII scoped spans with thread-local
//!   nesting, buffered per thread and drained via [`drain_spans`];
//!   [`SpanParent`] carries the nesting to work run on another thread.
//! - [`counter_add`] / [`gauge_set`] / [`histogram_observe`] — named
//!   atomic metrics in a global registry, snapshotted via
//!   [`snapshot_metrics`].
//! - [`Trace`] with [`to_jsonl`] / [`from_jsonl`] /
//!   [`aggregate_table`] — exporters for offline analysis
//!   (`trace_report` in `medsplit-bench`).
//! - [`json`] — the workspace's one JSON reader and writer, shared by the
//!   JSONL trace codec and the lab's run directories and baselines.
//! - [`percentile`] — the workspace's single nearest-rank percentile
//!   implementation (also used by `serve::metrics`).
//!
//! Everything is **off by default**: until `MEDSPLIT_TRACE=1` is set (or
//! [`set_enabled`]`(true)` is called) every instrumentation point is one
//! relaxed atomic load, and results are bit-identical to an
//! uninstrumented build. `MEDSPLIT_TRACE_FILE` names the JSONL output
//! for [`write_configured`].
//!
//! ```
//! medsplit_telemetry::set_enabled(true);
//! {
//!     let mut round = medsplit_telemetry::span_round("round", 0);
//!     round.set_sim_s(1.25);
//!     let _fwd = medsplit_telemetry::span("l1_forward");
//!     medsplit_telemetry::counter_add("net.bytes.activations", 4096);
//! }
//! medsplit_telemetry::set_enabled(false);
//! let trace = medsplit_telemetry::Trace::capture();
//! assert!(trace.spans.iter().any(|s| s.name == "round"));
//! ```

#![warn(missing_docs)]

mod export;
pub mod json;
mod metrics;
mod span;

pub use export::{
    aggregate_spans, aggregate_table, from_jsonl, to_jsonl, write_configured, write_jsonl, SpanAggregate,
    Trace,
};
pub use metrics::{
    counter_add, counter_add_labeled, gauge_set, gauge_set_max, histogram_observe, percentile, reset_metrics,
    snapshot_metrics, Counter, Gauge, Histogram, Metric, MetricSnapshot,
};
pub use span::{
    drain_spans, enabled, set_enabled, span, span_round, AdoptGuard, SpanGuard, SpanParent, SpanRecord,
};
