//! Fig. 6: scalability of the split protocol with the number of
//! geo-distributed platforms (fixed global batch and dataset).
//!
//! Usage:
//!   exp fig6 [--quick]

use crate::experiments::{fig6_run, fig6_table, Scale};
use crate::report::{arg_present, write_result};

/// Runs the fig6 platform-count sweep.
pub fn run(args: &[String]) {
    let scale = if arg_present(args, "--quick") {
        Scale::quick()
    } else {
        Scale::full()
    };
    let counts: Vec<usize> = if arg_present(args, "--quick") {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8, 16]
    };
    eprintln!("[fig6] sweeping platform counts {counts:?} ({scale:?})...");
    let points = fig6_run(scale, &counts, 42).expect("fig6 failed");
    let table = fig6_table(&points);
    println!("{table}");
    let path = write_result("fig6.csv", &table.to_csv()).expect("write results");
    eprintln!("[fig6] wrote {}", path.display());
}
