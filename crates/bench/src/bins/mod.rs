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

pub mod all;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fleet_bench;
pub mod kernel_bench;
pub mod serve_bench;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod trace_report;

/// An experiment's entry point: its arguments without the program or
/// experiment name.
pub type Run = fn(&[String]);

/// Every experiment by name — the dispatch table of the `exp` binary and
/// the list its `--help` prints.
pub const EXPERIMENTS: &[(&str, Run)] = &[
    ("all", all::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
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
    ("table2", table2::run),
    ("table3", table3::run),
    ("table4", table4::run),
    ("trace_report", |args| {
        let _ = trace_report::run(args);
    }),
];

/// The experiment names, space-separated: what `exp --help` and the
/// closing line of `exp all` print.
pub fn names() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    names.join(" ")
}
