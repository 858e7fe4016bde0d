//! Fig. 4: communication bandwidth vs accuracy for the proposed split
//! protocol against Large-Scale Synchronous SGD (and a FedAvg
//! reference), for VGG/ResNet × CIFAR-10/100-like data.
//!
//! Usage:
//!   exp fig4 [--model vgg|resnet] [--dataset c10|c100] [--quick]
//!
//! Without `--model`/`--dataset`, all four panels run. CSV curves land in
//! `bench_results/fig4_<model>_<dataset>_<method>.csv`.

use crate::experiments::{fig4_run, fig4_table, Scale};
use crate::report::{arg_present, arg_value, write_result};
use crate::workload::{DatasetKind, ModelKind};

/// Runs the fig4 panels selected by `args` (the CLI arguments without
/// the program name).
pub fn run(args: &[String]) {
    let scale = if arg_present(args, "--quick") {
        Scale::quick()
    } else {
        Scale::full()
    };
    let models: Vec<ModelKind> = match arg_value(args, "--model").as_deref() {
        Some(s) => vec![ModelKind::parse(s).unwrap_or_else(|| panic!("unknown model `{s}`"))],
        None => vec![ModelKind::Vgg, ModelKind::ResNet],
    };
    let datasets: Vec<DatasetKind> = match arg_value(args, "--dataset").as_deref() {
        Some(s) => vec![DatasetKind::parse(s).unwrap_or_else(|| panic!("unknown dataset `{s}`"))],
        None => vec![DatasetKind::C10, DatasetKind::C100],
    };

    for model in &models {
        for dataset in &datasets {
            eprintln!(
                "[fig4] running {} on {} ({:?})...",
                model.name(),
                dataset.name(),
                scale
            );
            let histories = fig4_run(*model, *dataset, scale, 42).expect("fig4 panel failed");
            let table = fig4_table(*model, *dataset, &histories);
            println!("{table}");
            for h in &histories {
                let file = format!("fig4_{}_{}_{}.csv", model.name(), dataset.name(), h.method);
                let path = write_result(&file, &h.to_csv()).expect("write results");
                eprintln!("[fig4] wrote {}", path.display());
            }
            let path = write_result(
                &format!("fig4_{}_{}_summary.csv", model.name(), dataset.name()),
                &table.to_csv(),
            )
            .expect("write results");
            eprintln!("[fig4] wrote {}", path.display());
        }
    }
}
