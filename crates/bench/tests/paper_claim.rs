//! The paper's claim (its Fig. 4) as a gate over the committed lab
//! baselines: at equal transmitted bytes, split learning is more
//! accurate than large-scale synchronous SGD.
//!
//! `baselines/fig4.json` holds every point of `experiments/fig4.lab.toml`
//! (4 panels × {split, sync_sgd, fedavg} × 3 seeds), each evaluation as
//! `curve.NN.bytes` / `curve.NN.accuracy`. On every panel, split's median
//! final accuracy over the seeds must be strictly above the median of sync
//! SGD's best recorded accuracy at cumulative bytes ≤ split's total bytes
//! (per seed). That sync SGD value must be a recorded evaluation, never an
//! empty budget; with the roles swapped the same check must fail; and
//! `baselines/fig4_ci.json`, which `lab ci` re-runs, must equal its slice
//! of the grid. Table 2's claim, that proportional minibatches beat equal
//! ones under imbalance, is gated on the medians of `baselines/table2.json`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use medsplit_lab::{load_baseline, MetricValue};

type Metrics = BTreeMap<String, MetricValue>;

fn baseline(name: &str) -> Metrics {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../baselines")
        .join(format!("{name}.json"));
    load_baseline(&path).unwrap_or_else(|e| panic!("{e}"))
}

/// One method's run on one panel at one seed.
#[derive(Debug, Default)]
struct Run {
    final_accuracy: f64,
    total_bytes: f64,
    /// `(cumulative bytes, accuracy)` per evaluation, in order.
    curve: BTreeMap<String, (f64, f64)>,
}

/// `(bench, panel)` → seed → run, where the panel is the point key
/// without its bench and seed (`vgg_c10/star4/clean/f32/auto/t1`).
type Runs = BTreeMap<(String, String), BTreeMap<String, Run>>;

fn runs(metrics: &Metrics) -> Runs {
    let mut runs = Runs::new();
    for (key, value) in metrics {
        let MetricValue::Num(v) = *value else {
            panic!("{key} is not a number");
        };
        let (point, metric) = key.rsplit_once('/').unwrap();
        let segs: Vec<&str> = point.split('/').collect();
        let (bench, seed) = (segs[0], segs[segs.len() - 1]);
        let panel = segs[1..segs.len() - 1].join("/");
        let run = runs
            .entry((bench.into(), panel))
            .or_default()
            .entry(seed.into())
            .or_default();
        match metric.split('.').collect::<Vec<_>>()[..] {
            ["final_accuracy"] => run.final_accuracy = v,
            ["total_bytes"] => run.total_bytes = v,
            ["curve", n, "bytes"] => run.curve.entry(n.into()).or_default().0 = v,
            ["curve", n, "accuracy"] => run.curve.entry(n.into()).or_default().1 = v,
            _ => {}
        }
    }
    runs
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    assert!(n > 0, "median of nothing");
    (values[(n - 1) / 2] + values[n / 2]) / 2.0
}

/// The best recorded accuracy of `run` at cumulative bytes ≤ `budget`.
fn best_within(run: &Run, budget: f64) -> Option<f64> {
    run.curve
        .values()
        .filter(|(bytes, _)| *bytes <= budget)
        .map(|(_, accuracy)| *accuracy)
        .max_by(f64::total_cmp)
}

/// The claim on one panel: `winner`'s median final accuracy is strictly
/// above the median of `loser`'s best accuracy within `winner`'s bytes.
/// Returns the two medians, or why the claim does not hold.
fn claim(runs: &Runs, panel: &str, winner: &str, loser: &str) -> Result<(f64, f64), String> {
    let side = |bench: &str| {
        runs.get(&(bench.to_string(), panel.to_string()))
            .unwrap_or_else(|| panic!("no {bench} runs on {panel}"))
    };
    let (wins, loses) = (side(winner), side(loser));
    assert_eq!(
        wins.keys().collect::<Vec<_>>(),
        loses.keys().collect::<Vec<_>>(),
        "{panel}: seeds differ"
    );
    let mut at_budget = Vec::new();
    for (seed, run) in wins {
        let best = best_within(&loses[seed], run.total_bytes).ok_or_else(|| {
            format!(
                "{panel} {seed}: {loser} records no evaluation within {winner}'s {} bytes",
                run.total_bytes
            )
        })?;
        at_budget.push(best);
    }
    let ours = median(wins.values().map(|r| r.final_accuracy).collect());
    let theirs = median(at_budget);
    if ours > theirs {
        Ok((ours, theirs))
    } else {
        Err(format!(
            "{panel}: {winner} {ours} is not above {loser} {theirs} at {winner}'s bytes"
        ))
    }
}

/// The panels of the Fig. 4 grid.
fn panels(runs: &Runs) -> Vec<String> {
    let panels: BTreeSet<&String> = runs.keys().map(|(_, panel)| panel).collect();
    panels.into_iter().cloned().collect()
}

#[test]
fn split_beats_sync_sgd_at_equal_bytes_on_every_panel() {
    let runs = runs(&baseline("fig4"));
    let panels = panels(&runs);
    assert_eq!(panels.len(), 4, "{panels:?}");
    for panel in &panels {
        assert_eq!(runs[&("split".into(), panel.clone())].len(), 3, "{panel}: seeds");
        let (split, sync) = claim(&runs, panel, "split", "sync_sgd").unwrap_or_else(|e| panic!("{e}"));
        eprintln!("{panel}: split {split:.4} vs sync_sgd {sync:.4} at split's bytes");
    }
}

#[test]
fn the_sync_sgd_side_is_a_recorded_evaluation() {
    let runs = runs(&baseline("fig4"));
    for panel in panels(&runs) {
        let split = &runs[&("split".into(), panel.clone())];
        let sync = &runs[&("sync_sgd".into(), panel.clone())];
        for (seed, run) in split {
            let curve = &sync[seed].curve;
            assert!(curve.len() >= 2, "{panel} {seed}: sync_sgd curve {curve:?}");
            let best = best_within(&sync[seed], run.total_bytes)
                .unwrap_or_else(|| panic!("{panel} {seed}: no sync_sgd evaluation within split's bytes"));
            assert!(
                curve
                    .values()
                    .any(|&(bytes, acc)| acc == best && bytes <= run.total_bytes),
                "{panel} {seed}: {best} is not a recorded evaluation"
            );
            // The budget cuts the curve: sync SGD spends more than split.
            assert!(sync[seed].total_bytes > run.total_bytes, "{panel} {seed}");
        }
    }
}

#[test]
fn the_claim_fails_with_the_roles_swapped() {
    let runs = runs(&baseline("fig4"));
    for panel in panels(&runs) {
        let swapped = claim(&runs, &panel, "sync_sgd", "split");
        assert!(
            swapped.is_err(),
            "{panel}: sync_sgd beats split at its own bytes: {swapped:?}"
        );
    }
}

#[test]
fn fig4_ci_is_a_slice_of_fig4() {
    let (grid, slice) = (baseline("fig4"), baseline("fig4_ci"));
    assert!(!slice.is_empty());
    for (key, value) in &slice {
        assert_eq!(grid.get(key), Some(value), "{key}");
    }
}

#[test]
fn proportional_minibatch_beats_equal_under_imbalance() {
    let runs = runs(&baseline("table2"));
    let [panel] = &panels(&runs)[..] else {
        panic!("table2 has one panel");
    };
    let median_of = |bench: &str| {
        median(
            runs[&(bench.to_string(), panel.clone())]
                .values()
                .map(|r| r.final_accuracy)
                .collect(),
        )
    };
    let (proportional, equal) = (median_of("split"), median_of("split_equal"));
    eprintln!("{panel}: proportional {proportional:.4} vs equal {equal:.4}");
    assert!(
        proportional > equal,
        "proportional {proportional} vs equal {equal}"
    );
}
