//! Fig. 5: the split-point sweep — per-round communication and privacy
//! leakage (distance correlation, linear-attacker R²) as the cut moves
//! deeper into the network.
//!
//! Usage:
//!   exp fig5 [--quick]

use crate::experiments::{fig5_run, fig5_table, vgg_lite_cuts, Scale};
use crate::report::{arg_present, write_result};

/// Runs the fig5 split-point sweep.
pub fn run(args: &[String]) {
    let mut scale = if arg_present(args, "--quick") {
        Scale::quick()
    } else {
        Scale::full()
    };
    // Leakage probing does not need long training; cap the rounds.
    scale.rounds = scale.rounds.min(100);
    let cuts = vgg_lite_cuts();
    eprintln!("[fig5] sweeping cuts {cuts:?} ({scale:?})...");
    let points = fig5_run(scale, &cuts, 42).expect("fig5 failed");
    let table = fig5_table(&points);
    println!("{table}");
    let path = write_result("fig5.csv", &table.to_csv()).expect("write results");
    eprintln!("[fig5] wrote {}", path.display());
}
