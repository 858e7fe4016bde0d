//! Library bodies of the `exp` measurement tools (the tables and figures
//! are lab points, see [`crate::labrun`]).
//!
//! Each experiment is a `run(args)` in its module here, so the `lab`
//! orchestrator can execute any bench in-process — same telemetry
//! registry, same thread pool, same ISA dispatch — and capture its
//! outcome struct instead of scraping stdout. `args` is the raw argument
//! list *without* the program or experiment name. From the command line
//! they are all reached through the one multiplexed binary,
//! `cargo run -p medsplit-bench --bin exp -- <name> [args]`, which
//! dispatches on [`EXPERIMENTS`].

pub mod fleet_bench;
pub mod kernel_bench;
pub mod serve_bench;
pub mod trace_report;

/// An experiment's entry point: its arguments without the program or
/// experiment name.
pub type Run = fn(&[String]);

/// Every experiment by name — the dispatch table of the `exp` binary and
/// the list its `--help` prints.
pub const EXPERIMENTS: &[(&str, Run)] = &[
    ("fleet_bench", |args| {
        let _ = fleet_bench::run(args);
    }),
    ("kernel_bench", |args| {
        let _ = kernel_bench::run(args);
    }),
    ("serve_bench", serve_bench::run),
    ("trace_report", |args| {
        let _ = trace_report::run(args);
    }),
];
