//! # medsplit-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! evaluation (see DESIGN.md §3 for the experiment index):
//!
//! | target | regenerates |
//! |--------|-------------|
//! | `cargo run -p medsplit-bench --release --bin lab -- run experiments/fig4.lab.toml` | Fig. 4 panels (accuracy vs transmitted bytes) |
//! | `cargo run -p medsplit-bench --release --bin lab -- run experiments/table1.lab.toml` | analytic full-size per-round costs |
//! | `cargo run -p medsplit-bench --release --bin lab -- run experiments/table2.lab.toml` | imbalance-mitigation ablation |
//! | `cargo run -p medsplit-bench --release --bin lab -- run experiments/fig5.lab.toml` | split-point sweep (bytes vs leakage) |
//! | `cargo run -p medsplit-bench --release --bin lab -- run experiments/fig6.lab.toml` | scalability with platform count |
//! | `cargo run -p medsplit-bench --release --bin lab -- run experiments/table3.lab.toml` | baseline landscape under non-IID |
//! | `cargo run -p medsplit-bench --release --bin lab -- run experiments/fig7.lab.toml` | activation-noise defence (accuracy vs leakage) |
//! | `cargo run -p medsplit-bench --release --bin lab -- run experiments/fig8.lab.toml` | analytic round time vs WAN bandwidth |
//! | `cargo run -p medsplit-bench --release --bin lab -- run experiments/serve.lab.toml` | serving latency, bytes per request and goodput vs offered load, per codec |
//! | `cargo run -p medsplit-bench --release --bin lab -- run experiments/fleet.lab.toml` | fleet goodput and latency vs offered load and replica count |
//!
//! The lab points are [`labrun::METHODS`], [`labrun::FIGURES`] and
//! [`labrun::SERVING`]; their committed baselines hold every number of
//! every figure and sweep, and `tests/paper_claim.rs` gates the paper's
//! claim on `baselines/fig4.json`.
//!
//! The `exp` binary keeps the measurement tools: `kernel_bench` (the
//! per-kernel timing table) and `trace_report` (a traced run's phase
//! breakdown). They write CSVs under `bench_results/` (override with
//! `MEDSPLIT_RESULTS_DIR`); `exp --help` lists them. End-to-end timing
//! is the separate `benchmark/` package. `exp` dispatches on
//! [`bins::EXPERIMENTS`], and every tool body is a `run(args)` in
//! [`bins`], so the `lab` orchestrator (see `crates/lab` and the `lab`
//! binary here) can run the smoke points in-process and capture
//! structured outcomes; [`labrun`] is the bridge that maps lab manifest
//! points onto the workloads and these entry points.

#![warn(missing_docs)]

pub mod bins;
pub mod labrun;
pub mod report;
pub mod workload;

#[cfg(test)]
pub(crate) mod testsync {
    use std::sync::Mutex;

    /// Serializes tests that mutate process environment variables
    /// (`MEDSPLIT_RESULTS_DIR`) so they cannot race each other.
    pub static ENV: Mutex<()> = Mutex::new(());
}
