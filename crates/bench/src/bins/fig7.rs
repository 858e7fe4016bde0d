//! Fig. 7: the activation-noise privacy defence — accuracy vs leakage as
//! Gaussian noise is added to every transmitted activation.
//!
//! Usage:
//!   exp fig7 [--quick]

use crate::experiments::{fig7_run, fig7_table, Scale};
use crate::report::{arg_present, write_result};

/// Runs the fig7 activation-noise sweep.
pub fn run(args: &[String]) {
    let mut scale = if arg_present(args, "--quick") {
        Scale::quick()
    } else {
        Scale::full()
    };
    scale.rounds = scale.rounds.min(150);
    let sigmas = [0.0f32, 0.5, 1.0, 2.0, 4.0];
    eprintln!("[fig7] sweeping activation noise {sigmas:?} ({scale:?})...");
    let points = fig7_run(scale, &sigmas, 42).expect("fig7 failed");
    let table = fig7_table(&points);
    println!("{table}");
    let path = write_result("fig7.csv", &table.to_csv()).expect("write results");
    eprintln!("[fig7] wrote {}", path.display());
}
