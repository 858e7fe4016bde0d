//! `--check-against`: two result files, metric by metric, under the
//! bounds in `BENCHMARK.json`.
//!
//! A metric's *allowance* is its bound times the old median — for
//! `setup_s` 50 ms where that is more, because a quarter of a
//! two-millisecond set-up is nothing a user sees. A pair is *worse* when
//! the new median is worse than the old by more than the allowance,
//! *better* when it is better by more than the old side's own quartile
//! spread (by more than the allowance where the old side has fewer than
//! three samples), *within bound* otherwise — and *unresolved* when either side's
//! quartiles lie further apart than the allowance, because then the runs
//! cannot tell a regression of that size from noise and must not be read
//! as "unchanged".

use std::collections::BTreeMap;

use crate::json::Value;
use crate::metrics::Better;
use crate::stats::{summarize, Summary};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// What `setup_s` may worsen by whatever its bound says, in seconds.
const SETUP_FLOOR_S: f64 = 0.050;

/// Judges one metric's new samples against its old ones; `allowance` is
/// what the median may worsen by, in the metric's unit.
pub fn judge(old: &Summary, new: &Summary, better: Better, allowance: f64) -> Verdict {
    if (old.q3 - old.q1).max(new.q3 - new.q1) > allowance {
        return Verdict::Unresolved;
    }
    // Positive when the new median is worse.
    let worse_by = match better {
        Better::Lower => new.median - old.median,
        Better::Higher => old.median - new.median,
    };
    // One or two readings (`peak_rss_mb` is one) have no spread of their
    // own to be better by; they have to clear the allowance.
    let noise = if old.n < 3 { allowance } else { old.q3 - old.q1 };
    if worse_by > allowance {
        Verdict::Worse
    } else if -worse_by > noise {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// One metric's samples in a result file.
struct Series {
    better: Better,
    samples: Vec<f64>,
}

/// `(workload, metric) → series` for the end-to-end metrics of every run
/// in a result file (one run's object, or `{"runs": [...]}`).
fn series_of(file: &Value) -> Result<BTreeMap<(String, String), Series>, String> {
    let runs: Vec<&Value> = match file.get("runs").and_then(Value::as_arr) {
        Some(runs) => runs.iter().collect(),
        None => vec![file],
    };
    let mut out = BTreeMap::new();
    for run in runs {
        if run.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("result file: run without a workload")?;
        let metrics = run
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or("result file: run without metrics")?;
        for (name, m) in metrics {
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .and_then(Better::parse)
                .ok_or_else(|| format!("result file: {name} has no direction"))?;
            let samples: Vec<f64> = m
                .get("samples")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("result file: {name} has no samples"))?
                .iter()
                .filter_map(Value::as_f64)
                .collect();
            out.insert((workload.to_owned(), name.clone()), Series { better, samples });
        }
    }
    Ok(out)
}

/// `metric → bound` from `BENCHMARK.json`.
fn bounds_of(spec: &Value) -> Result<BTreeMap<String, f64>, String> {
    spec.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without a bound")?;
            Ok((name.to_owned(), bound))
        })
        .collect()
}

/// One line of the comparison.
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub old: Summary,
    pub new: Summary,
    /// What the median may worsen by, in the metric's unit.
    pub allowance: f64,
    pub verdict: Verdict,
}

/// Compares every end-to-end metric the two files share.
///
/// # Errors
///
/// Returns what is missing from a file that does not have the shape the
/// benchmark writes.
pub fn compare(old: &Value, new: &Value, spec: &Value) -> Result<Vec<Row>, String> {
    let bounds = bounds_of(spec)?;
    let old = series_of(old)?;
    let new = series_of(new)?;
    let mut rows = Vec::new();
    for ((workload, metric), was) in &old {
        let (Some(now), Some(&bound)) = (new.get(&(workload.clone(), metric.clone())), bounds.get(metric))
        else {
            continue;
        };
        let (Some(a), Some(b)) = (summarize(&was.samples), summarize(&now.samples)) else {
            continue;
        };
        let floor = if metric == "setup_s" { SETUP_FLOOR_S } else { 0.0 };
        let allowance = (bound * a.median.abs()).max(floor);
        rows.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            old: a,
            new: b,
            allowance,
            verdict: judge(&a, &b, was.better, allowance),
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn run(rounds_per_s: &[f64], wire_bytes: f64, setup_s: f64) -> Value {
        let metric = |unit: &str, better: &str, samples: &[f64]| {
            Value::obj([
                ("unit", Value::str(unit)),
                ("better", Value::str(better)),
                ("samples", Value::nums(samples)),
            ])
        };
        Value::obj([
            ("workload", Value::str("train_mlp")),
            ("trace", Value::Num(0.0)),
            (
                "metrics",
                Value::obj([
                    ("rounds_per_s", metric("1/s", "higher", rounds_per_s)),
                    ("wire_bytes_per_op", metric("B", "lower", &[wire_bytes; 5])),
                    ("setup_s", metric("s", "lower", &[setup_s; 5])),
                ]),
            ),
        ])
    }

    const STEADY: [f64; 5] = [400.0, 404.0, 398.0, 401.0, 402.0];

    fn scaled(by: f64) -> Vec<f64> {
        STEADY.iter().map(|v| v * by).collect()
    }

    /// The bounds the benchmark ships with.
    fn spec() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn verdicts(old: &Value, new: &Value) -> BTreeMap<String, Verdict> {
        compare(old, new, &spec())
            .unwrap()
            .into_iter()
            .map(|r| (r.metric, r.verdict))
            .collect()
    }

    #[test]
    fn flags_a_slowdown_past_the_bound_and_a_one_byte_change() {
        let bound = bounds_of(&spec()).unwrap()["rounds_per_s"];
        let old = run(&STEADY, 269_696.0, 0.002);
        // Seven points past the bound, as 15 % is past a bound of 8 %.
        let v = verdicts(&old, &run(&scaled(1.0 - bound - 0.07), 269_697.0, 0.002));
        assert_eq!(v["rounds_per_s"], Verdict::Worse);
        assert_eq!(v["wire_bytes_per_op"], Verdict::Worse);
        // Inside the bound is not a regression.
        let v = verdicts(&old, &run(&scaled(1.0 - bound / 2.0), 269_696.0, 0.002));
        assert_eq!(v["rounds_per_s"], Verdict::WithinBound);
    }

    #[test]
    fn tells_better_within_bound_and_unresolved_apart() {
        let old = run(&STEADY, 269_696.0, 0.002);
        let same = verdicts(&old, &old);
        assert_eq!(same["rounds_per_s"], Verdict::WithinBound);
        assert_eq!(same["wire_bytes_per_op"], Verdict::WithinBound);

        let v = verdicts(&old, &run(&scaled(1.1), 269_000.0, 0.002));
        assert_eq!(v["rounds_per_s"], Verdict::Better);
        assert_eq!(v["wire_bytes_per_op"], Verdict::Better);

        // Quartiles further apart than the bound hide a regression of
        // that size.
        let noisy = run(&[200.0, 420.0, 380.0, 600.0, 340.0], 269_696.0, 0.002);
        assert_eq!(verdicts(&old, &noisy)["rounds_per_s"], Verdict::Unresolved);
    }

    #[test]
    fn setup_may_worsen_by_fifty_milliseconds_whatever_the_bound() {
        let old = run(&STEADY, 269_696.0, 0.002);
        // Twenty times slower, and 38 ms: nothing a user sees.
        assert_eq!(
            verdicts(&old, &run(&STEADY, 269_696.0, 0.040))["setup_s"],
            Verdict::WithinBound
        );
        assert_eq!(
            verdicts(&old, &run(&STEADY, 269_696.0, 0.060))["setup_s"],
            Verdict::Worse
        );
        // Past 200 ms the bound is the larger allowance.
        let slow = run(&STEADY, 269_696.0, 1.0);
        assert_eq!(
            verdicts(&slow, &run(&STEADY, 269_696.0, 1.2))["setup_s"],
            Verdict::WithinBound
        );
        assert_eq!(
            verdicts(&slow, &run(&STEADY, 269_696.0, 1.3))["setup_s"],
            Verdict::Worse
        );
    }
}
