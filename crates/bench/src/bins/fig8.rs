//! Fig. 8: analytic per-round wall-clock vs WAN bandwidth for the
//! full-size models — the geo-distribution story in time units.
//!
//! Usage:
//!   exp fig8 [--model vgg|resnet] [--batch S]

use crate::experiments::{fig8_sweep, fig8_table};
use crate::report::{arg_value, write_result};
use crate::workload::ModelKind;

/// Runs the fig8 WAN-bandwidth sweep.
pub fn run(args: &[String]) {
    let model = match arg_value(args, "--model").as_deref() {
        None | Some("vgg") => ModelKind::Vgg,
        Some("resnet") => ModelKind::ResNet,
        Some(s) => panic!("unknown model `{s}`"),
    };
    let batch: usize = arg_value(args, "--batch").map_or(32, |v| v.parse().expect("--batch"));
    let mbps = [10.0, 50.0, 100.0, 500.0, 1000.0, 10_000.0];
    let points = fig8_sweep(model, 10, batch, &mbps);
    let table = fig8_table(model, &points);
    println!("{table}");
    let path = write_result("fig8.csv", &table.to_csv()).expect("write results");
    eprintln!("[fig8] wrote {}", path.display());
}
