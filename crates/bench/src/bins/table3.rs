//! Table 3: the full baseline landscape — split learning vs sync-SGD vs
//! FedAvg vs local-only vs centralised — on the same non-IID shards,
//! reporting accuracy, bytes and raw-data exposure.
//!
//! Usage:
//!   exp table3 [--alpha A] [--quick]

use crate::experiments::{table3_run, table3_table, Scale};
use crate::report::{arg_present, arg_value, write_result};

/// Runs the table3 baseline landscape.
pub fn run(args: &[String]) {
    let scale = if arg_present(args, "--quick") {
        Scale::quick()
    } else {
        Scale::full()
    };
    let alpha: f32 = arg_value(args, "--alpha").map_or(0.5, |v| v.parse().expect("--alpha"));
    eprintln!("[table3] running baseline landscape (alpha = {alpha}, {scale:?})...");
    let histories = table3_run(scale, alpha, 42).expect("table3 failed");
    let table = table3_table(alpha, &histories);
    println!("{table}");
    for h in &histories {
        let path = write_result(&format!("table3_{}.csv", h.method), &h.to_csv()).expect("write results");
        eprintln!("[table3] wrote {}", path.display());
    }
    let path = write_result("table3.csv", &table.to_csv()).expect("write results");
    eprintln!("[table3] wrote {}", path.display());
}
