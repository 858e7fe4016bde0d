//! # medsplit-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! evaluation (see DESIGN.md §3 for the experiment index):
//!
//! | target | regenerates |
//! |--------|-------------|
//! | `cargo run -p medsplit-bench --release --bin exp -- fig4` | Fig. 4 panels (accuracy vs transmitted bytes) |
//! | `cargo run -p medsplit-bench --bin exp -- table1` | analytic full-size per-round costs |
//! | `cargo run -p medsplit-bench --release --bin exp -- table2` | imbalance-mitigation ablation |
//! | `cargo run -p medsplit-bench --release --bin exp -- fig5` | split-point sweep (bytes vs leakage) |
//! | `cargo run -p medsplit-bench --release --bin exp -- fig6` | scalability with platform count |
//! | `cargo run -p medsplit-bench --release --bin exp -- table3` | baseline landscape under non-IID |
//!
//! Every experiment accepts `--quick` for a smoke-test scale and writes
//! CSVs under `bench_results/` (override with `MEDSPLIT_RESULTS_DIR`);
//! `exp --help` lists them all. `exp kernel_bench` is the per-kernel
//! timing table; end-to-end timing is the separate `benchmark/` package.
//!
//! The one `exp` binary dispatches on [`bins::EXPERIMENTS`], and every
//! experiment body is a `run(args)` in [`bins`], so the `lab`
//! orchestrator (see `crates/lab` and the `lab` binary here) can run any
//! experiment in-process and capture structured outcomes; [`labrun`] is
//! the bridge that maps lab manifest points onto these entry points.

#![warn(missing_docs)]

pub mod bins;
pub mod experiments;
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
