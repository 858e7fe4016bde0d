//! Table 1: analytic per-round communication costs of the full-size
//! (paper-scale) VGG-16 and ResNet-18 under split learning, FedAvg and
//! large-scale synchronous SGD.
//!
//! Usage:
//!   exp table1 [--platforms N] [--batch S]

use crate::experiments::table1;
use crate::report::{arg_value, write_result};

/// Runs the table1 analytic cost model.
pub fn run(args: &[String]) {
    let platforms: usize = arg_value(args, "--platforms").map_or(4, |v| v.parse().expect("--platforms"));
    let batch: usize = arg_value(args, "--batch").map_or(32, |v| v.parse().expect("--batch"));
    let table = table1(platforms, batch);
    println!("{table}");
    let path = write_result("table1.csv", &table.to_csv()).expect("write results");
    eprintln!("[table1] wrote {}", path.display());
}
