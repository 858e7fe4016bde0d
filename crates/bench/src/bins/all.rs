//! Every experiment in sequence — the one-command reproduction.
//!
//! Usage:
//!   exp all [--quick] [--full]
//!
//! Defaults to `--quick` (a few minutes); `--full` reproduces the numbers
//! in EXPERIMENTS.md (tens of minutes on one core).

use crate::experiments::{
    fig4_run, fig4_table, fig5_run, fig5_table, fig6_run, fig6_table, fig7_run, fig7_table, fig8_sweep,
    fig8_table, table1, table2_run, table2_table, table3_run, table3_table, table4_run, table4_table,
    vgg_lite_cuts, Scale,
};
use crate::report::{arg_present, write_result};
use crate::workload::{DatasetKind, ModelKind};

/// Runs every experiment at quick or full scale.
pub fn run(args: &[String]) {
    let full = arg_present(args, "--full");
    let scale = if full { Scale::full() } else { Scale::quick() };
    // Quick runs must not clobber the published full-scale CSVs.
    if !full && std::env::var_os("MEDSPLIT_RESULTS_DIR").is_none() {
        std::env::set_var("MEDSPLIT_RESULTS_DIR", "bench_results/quick");
    }
    eprintln!("[all] running every experiment at {scale:?}\n");

    let t1 = table1(scale.platforms.max(2), 32);
    println!("{t1}");
    write_result("table1.csv", &t1.to_csv()).expect("write");

    for model in [ModelKind::Vgg, ModelKind::ResNet] {
        for dataset in [DatasetKind::C10, DatasetKind::C100] {
            let histories = fig4_run(model, dataset, scale, 42).expect("fig4");
            let table = fig4_table(model, dataset, &histories);
            println!("{table}");
            write_result(
                &format!("fig4_{}_{}_summary.csv", model.name(), dataset.name()),
                &table.to_csv(),
            )
            .expect("write");
        }
    }

    let t2 = table2_run(scale, 0.3, 42).expect("table2");
    let t2t = table2_table(0.3, &t2);
    println!("{t2t}");
    write_result("table2.csv", &t2t.to_csv()).expect("write");

    let f5 = fig5_run(scale, &vgg_lite_cuts(), 42).expect("fig5");
    let f5t = fig5_table(&f5);
    println!("{f5t}");
    write_result("fig5.csv", &f5t.to_csv()).expect("write");

    let counts: Vec<usize> = if full { vec![1, 2, 4, 8, 16] } else { vec![1, 2, 4] };
    let f6 = fig6_run(scale, &counts, 42).expect("fig6");
    let f6t = fig6_table(&f6);
    println!("{f6t}");
    write_result("fig6.csv", &f6t.to_csv()).expect("write");

    let t3 = table3_run(scale, 0.5, 42).expect("table3");
    let t3t = table3_table(0.5, &t3);
    println!("{t3t}");
    write_result("table3.csv", &t3t.to_csv()).expect("write");

    let t4 = table4_run(scale, 42).expect("table4");
    let t4t = table4_table(&t4);
    println!("{t4t}");
    write_result("table4.csv", &t4t.to_csv()).expect("write");

    let f7 = fig7_run(scale, &[0.0, 1.0, 2.0, 4.0], 42).expect("fig7");
    let f7t = fig7_table(&f7);
    println!("{f7t}");
    write_result("fig7.csv", &f7t.to_csv()).expect("write");

    let f8 = fig8_sweep(ModelKind::Vgg, 10, 32, &[10.0, 100.0, 1000.0, 10_000.0]);
    let f8t = fig8_table(ModelKind::Vgg, &f8);
    println!("{f8t}");
    write_result("fig8.csv", &f8t.to_csv()).expect("write");

    eprintln!("[all] done — CSVs in bench_results/");
    eprintln!(
        "[all] each experiment on its own: exp <name>, one of {}",
        super::names()
    );
}
