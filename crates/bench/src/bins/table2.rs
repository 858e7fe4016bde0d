//! Table 2: the data-imbalance ablation — equal vs proportional
//! per-platform minibatches under power-law shard sizes.
//!
//! Usage:
//!   exp table2 [--alpha A] [--quick]

use crate::experiments::{table2_run, table2_table, Scale};
use crate::report::{arg_present, arg_value, write_result};

/// Runs the table2 imbalance ablation.
pub fn run(args: &[String]) {
    let scale = if arg_present(args, "--quick") {
        Scale::quick()
    } else {
        Scale::full()
    };
    let alpha: f32 = arg_value(args, "--alpha").map_or(0.3, |v| v.parse().expect("--alpha"));
    eprintln!("[table2] running imbalance ablation (alpha = {alpha}, {scale:?})...");
    let results = table2_run(scale, alpha, 42).expect("table2 failed");
    let table = table2_table(alpha, &results);
    println!("{table}");
    for (name, h) in &results {
        let path = write_result(&format!("table2_{name}.csv"), &h.to_csv()).expect("write results");
        eprintln!("[table2] wrote {}", path.display());
    }
    let path = write_result("table2.csv", &table.to_csv()).expect("write results");
    eprintln!("[table2] wrote {}", path.display());
}
