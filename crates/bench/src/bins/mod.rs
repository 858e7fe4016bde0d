//! Library bodies of every experiment.
//!
//! Each experiment is a `run(args)` in its module here, so the `lab`
//! orchestrator can execute any bench in-process — same telemetry
//! registry, same thread pool, same ISA dispatch — and capture its
//! outcome struct instead of scraping stdout. `args` is the raw argument
//! list *without* the program or experiment name. From the command line
//! they are all reached through the one multiplexed binary,
//! `cargo run -p medsplit-bench --bin exp -- <name> [args]`, which
//! dispatches on [`EXPERIMENTS`].

pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fleet_bench;
pub mod kernel_bench;
pub mod serve_bench;
pub mod table1;
pub mod trace_report;

/// An experiment's entry point: its arguments without the program or
/// experiment name.
pub type Run = fn(&[String]);

/// Every experiment by name — the dispatch table of the `exp` binary and
/// the list its `--help` prints.
pub const EXPERIMENTS: &[(&str, Run)] = &[
    ("fig5", fig5::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fleet_bench", |args| {
        let _ = fleet_bench::run(args);
    }),
    ("kernel_bench", |args| {
        let _ = kernel_bench::run(args);
    }),
    ("serve_bench", serve_bench::run),
    ("table1", table1::run),
    ("trace_report", |args| {
        let _ = trace_report::run(args);
    }),
];
