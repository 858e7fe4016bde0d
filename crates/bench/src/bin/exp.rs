//! `exp` — every experiment of the harness behind one binary.
//!
//! ```text
//! exp <name> [args]     run one experiment (see `bins::<name>` for its flags)
//! exp --help            list the experiments
//! ```
//!
//! Exit code 2 for an unknown experiment.

use std::process::ExitCode;

use medsplit_bench::bins::EXPERIMENTS;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str);
    if let Some((_, run)) = EXPERIMENTS.iter().find(|(n, _)| Some(*n) == name) {
        run(&args[1..]);
        return ExitCode::SUCCESS;
    }
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!("usage: exp <experiment> [args]\nexperiments: {}", names.join(" "));
    if matches!(name, Some("--help" | "-h")) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
