//! Table 4: the wire-codec ablation — how much bandwidth (and simulated
//! time) half-precision payloads save, and what they cost in accuracy.
//!
//! Usage:
//!   exp table4 [--quick]

use crate::experiments::{table4_run, table4_table, Scale};
use crate::report::{arg_present, write_result};

/// Runs the table4 codec ablation.
pub fn run(args: &[String]) {
    let scale = if arg_present(args, "--quick") {
        Scale::quick()
    } else {
        Scale::full()
    };
    eprintln!("[table4] running codec ablation ({scale:?})...");
    let histories = table4_run(scale, 42).expect("table4 failed");
    let table = table4_table(&histories);
    println!("{table}");
    let path = write_result("table4.csv", &table.to_csv()).expect("write results");
    eprintln!("[table4] wrote {}", path.display());
}
