//! medsplit-lab: manifest-driven experiment orchestration.
//!
//! The lab turns the workspace's ad-hoc bench invocations into declared,
//! reproducible experiments:
//!
//! - [`manifest`] parses `experiments/*.lab.toml` — a strict, zero-dep
//!   TOML subset declaring a run matrix (bench × model × topology ×
//!   fault × codec × ISA × threads × seed), shared run options, and a
//!   regression gate.
//! - [`matrix`] expands the axes into [`matrix::RunPoint`]s in canonical
//!   order, deterministically.
//! - [`runner`] executes every point through a [`runner::BenchRunner`]
//!   (implemented by `medsplit-bench`, which owns the workloads) and
//!   materializes a self-describing, content-addressed run directory:
//!   `manifest.json` (resolved config + host fingerprint), `metrics.json`
//!   (deterministic metrics only, digested), `timings.json` (wall clocks
//!   and racy gauges, excluded from the digest), plus per-point traces
//!   and artifacts. Identical manifests produce identical run ids and
//!   identical `metrics.json` bytes.
//! - [`diff`] compares runs against committed `baselines/*.json` with
//!   per-metric tolerances (exact for digests/bytes/accuracy, percentage
//!   bands where declared) and checks invariant gates (metrics pinned
//!   identical across masked axes — the declarative form of the
//!   scalar-vs-auto ISA A/B).
//!
//! The split keeps this crate workload-agnostic: it depends only on
//! `medsplit-tensor` (for the ISA fingerprint and `fnv1a`) and
//! `medsplit-telemetry` (whose `json` module writes and reads every
//! artifact), so its tests can drive the whole pipeline with stub runners.

#![warn(missing_docs)]

pub mod diff;
pub mod host;
pub mod manifest;
pub mod matrix;
pub mod runner;

pub use diff::{check_invariants, compare, load_baseline, save_baseline, DiffReport, DiffStatus, Tolerance};
pub use host::{fingerprint, utc_now, HostFingerprint};
pub use manifest::{Axes, GateSpec, Manifest, ManifestError, RunOpts};
pub use matrix::{expand, RunPoint};
pub use runner::{
    execute, load_run_metrics, run_dir, run_id, BenchRunner, MetricValue, PointOutcome, RunOutcome,
};
