//! Baseline comparison and regression gating.
//!
//! A baseline is a committed JSON snapshot of a run's flattened metric
//! map. `lab diff` renders the per-metric comparison; `lab gate` turns
//! it into an exit code. Tolerances come from the manifest's `[gate]`
//! section: metrics matched by a `[gate.pct]` entry get a percentage
//! band, everything else is compared exactly (the metrics map only holds
//! deterministic values, so exact is the safe default).

use std::collections::BTreeMap;
use std::path::Path;

use medsplit_telemetry::json::Json;

use crate::manifest::GateSpec;
use crate::matrix::RunPoint;
use crate::runner::{metrics_json, read_json, v1_document, MetricValue};

/// How a metric is compared against its baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Bit-exact (digests, byte counts, accuracies — anything
    /// deterministic).
    Exact,
    /// Within the given percentage of the baseline (wall-clock style
    /// observations).
    Pct(f64),
}

impl Tolerance {
    fn render(&self) -> String {
        match self {
            Tolerance::Exact => "exact".to_string(),
            Tolerance::Pct(band) => format!("±{band}%"),
        }
    }
}

/// The leaf metric name — the part after the point key.
fn leaf(key: &str) -> &str {
    key.rsplit('/').next().unwrap_or(key)
}

/// Resolves the tolerance for a metric key from the gate declaration.
/// `[gate.pct]` entries match the leaf name by prefix and win over the
/// exact default.
pub fn tolerance_for(gate: &GateSpec, key: &str) -> Tolerance {
    let name = leaf(key);
    for (prefix, band) in &gate.pct {
        if name.starts_with(prefix.as_str()) {
            return Tolerance::Pct(*band);
        }
    }
    Tolerance::Exact
}

/// Outcome of one metric comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffStatus {
    /// Within tolerance.
    Ok,
    /// Outside tolerance — gates fail.
    Regressed,
    /// Present in the baseline, absent from the run — gates fail (a
    /// silently vanished metric is a regression, not progress).
    Missing,
    /// Present in the run, absent from the baseline — informational;
    /// bless the baseline to adopt it.
    New,
}

/// One row of a diff.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Full metric key (`point_key/leaf`).
    pub key: String,
    /// Baseline value, if any.
    pub baseline: Option<MetricValue>,
    /// Current value, if any.
    pub current: Option<MetricValue>,
    /// Tolerance applied.
    pub tolerance: Tolerance,
    /// Comparison outcome.
    pub status: DiffStatus,
}

/// A full baseline-vs-run comparison.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// All rows, sorted by metric key.
    pub rows: Vec<DiffRow>,
    /// Invariant-gate violations (empty when none).
    pub invariant_violations: Vec<String>,
}

impl DiffReport {
    /// True when any metric regressed or vanished, or an invariant broke.
    pub fn regressed(&self) -> bool {
        !self.invariant_violations.is_empty()
            || self
                .rows
                .iter()
                .any(|r| matches!(r.status, DiffStatus::Regressed | DiffStatus::Missing))
    }

    /// Counts by status: (ok, regressed, missing, new).
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for r in &self.rows {
            match r.status {
                DiffStatus::Ok => c.0 += 1,
                DiffStatus::Regressed => c.1 += 1,
                DiffStatus::Missing => c.2 += 1,
                DiffStatus::New => c.3 += 1,
            }
        }
        c
    }

    /// Renders the human-readable table. With `verbose` every row is
    /// shown; otherwise only notable rows plus a summary line.
    pub fn render(&self, verbose: bool) -> String {
        let mut rows: Vec<[String; 5]> = Vec::new();
        rows.push([
            "metric".into(),
            "baseline".into(),
            "current".into(),
            "tol".into(),
            "status".into(),
        ]);
        let fmt_val = |v: &Option<MetricValue>| match v {
            Some(v) => v.render(),
            None => "-".to_string(),
        };
        for r in &self.rows {
            if !verbose && r.status == DiffStatus::Ok {
                continue;
            }
            rows.push([
                r.key.clone(),
                fmt_val(&r.baseline),
                fmt_val(&r.current),
                r.tolerance.render(),
                match r.status {
                    DiffStatus::Ok => "ok".into(),
                    DiffStatus::Regressed => "REGRESSED".into(),
                    DiffStatus::Missing => "MISSING".into(),
                    DiffStatus::New => "new".into(),
                },
            ]);
        }
        let mut widths = [0usize; 5];
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, row) in rows.iter().enumerate() {
            if i == 1 {
                for (j, w) in widths.iter().enumerate() {
                    if j > 0 {
                        out.push_str("  ");
                    }
                    out.push_str(&"-".repeat(*w));
                }
                out.push('\n');
            }
            for (j, (cell, w)) in row.iter().zip(widths.iter()).enumerate() {
                if j > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                if j + 1 < row.len() {
                    out.push_str(&" ".repeat(w - cell.len()));
                }
            }
            out.push('\n');
        }
        for v in &self.invariant_violations {
            out.push_str("INVARIANT BROKEN: ");
            out.push_str(v);
            out.push('\n');
        }
        let (ok, regressed, missing, new) = self.counts();
        out.push_str(&format!(
            "{ok} ok, {regressed} regressed, {missing} missing, {new} new, {} invariant violation(s)\n",
            self.invariant_violations.len()
        ));
        out
    }
}

fn within(tolerance: Tolerance, base: &MetricValue, cur: &MetricValue) -> bool {
    match (tolerance, base, cur) {
        (Tolerance::Pct(band), MetricValue::Num(b), MetricValue::Num(c)) => {
            let scale = b.abs().max(1e-12);
            ((c - b).abs() / scale) * 100.0 <= band
        }
        // Strings (digests) are always exact, whatever the band says.
        _ => base == cur,
    }
}

/// Compares a run's metric map against a baseline under the gate's
/// tolerances.
pub fn compare(
    baseline: &BTreeMap<String, MetricValue>,
    current: &BTreeMap<String, MetricValue>,
    gate: &GateSpec,
) -> DiffReport {
    let mut rows = Vec::new();
    for (key, base) in baseline {
        let tolerance = tolerance_for(gate, key);
        let (current_value, status) = match current.get(key) {
            None => (None, DiffStatus::Missing),
            Some(cur) => (
                Some(cur.clone()),
                if within(tolerance, base, cur) {
                    DiffStatus::Ok
                } else {
                    DiffStatus::Regressed
                },
            ),
        };
        rows.push(DiffRow {
            key: key.clone(),
            baseline: Some(base.clone()),
            current: current_value,
            tolerance,
            status,
        });
    }
    for (key, cur) in current {
        if !baseline.contains_key(key) {
            rows.push(DiffRow {
                key: key.clone(),
                baseline: None,
                current: Some(cur.clone()),
                tolerance: tolerance_for(gate, key),
                status: DiffStatus::New,
            });
        }
    }
    rows.sort_by(|a, b| a.key.cmp(&b.key));
    DiffReport {
        rows,
        invariant_violations: Vec::new(),
    }
}

/// Checks the manifest's invariant gate: for every group of points that
/// differ only in the `invariant_across` axes, each `invariant` metric
/// must be present and identical across the whole group. This is how the
/// scalar-vs-auto ISA A/B is declared.
pub fn check_invariants(
    points: &[RunPoint],
    metrics: &BTreeMap<String, MetricValue>,
    gate: &GateSpec,
) -> Vec<String> {
    if gate.invariant_across.is_empty() || gate.invariant.is_empty() {
        return Vec::new();
    }
    let mut groups: BTreeMap<String, Vec<&RunPoint>> = BTreeMap::new();
    for p in points {
        groups
            .entry(p.masked_key(&gate.invariant_across))
            .or_default()
            .push(p);
    }
    let mut violations = Vec::new();
    for (group_key, members) in &groups {
        if members.len() < 2 {
            continue;
        }
        for name in &gate.invariant {
            let mut witness: Option<(&RunPoint, &MetricValue)> = None;
            for p in members {
                let key = format!("{}/{name}", p.key());
                let Some(value) = metrics.get(&key) else {
                    violations.push(format!(
                        "group {group_key}: metric `{name}` missing for point {}",
                        p.key()
                    ));
                    continue;
                };
                match witness {
                    None => witness = Some((p, value)),
                    Some((wp, wv)) if wv != value => violations.push(format!(
                        "group {group_key}: `{name}` differs — {} = {} vs {} = {}",
                        wp.key(),
                        wv.render(),
                        p.key(),
                        value.render()
                    )),
                    Some(_) => {}
                }
            }
        }
    }
    violations
}

/// Serialises a metric map as a baseline document.
fn baseline_to_string(name: &str, metrics: &BTreeMap<String, MetricValue>) -> String {
    v1_document([
        ("name", Json::Str(name.to_string())),
        ("metrics", metrics_json(metrics)),
    ])
}

/// Writes a baseline file (`lab bless`).
pub fn save_baseline(path: &Path, name: &str, metrics: &BTreeMap<String, MetricValue>) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, baseline_to_string(name, metrics))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// Loads a baseline file back into a metric map.
pub fn load_baseline(path: &Path) -> Result<BTreeMap<String, MetricValue>, String> {
    let doc = read_json(path)?;
    let version = doc.get("schema_version").and_then(Json::as_f64).unwrap_or(0.0);
    if version != 1.0 {
        return Err(format!(
            "{}: unsupported baseline schema_version {version}",
            path.display()
        ));
    }
    let Some(map) = doc.get("metrics").and_then(Json::as_obj) else {
        return Err(format!("{}: missing `metrics` object", path.display()));
    };
    let mut out = BTreeMap::new();
    for (k, v) in map {
        let Some(mv) = MetricValue::from_json(v) else {
            return Err(format!("{}: metric {k} has a non-scalar value", path.display()));
        };
        out.insert(k.clone(), mv);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate_with_pct(name: &str, band: f64) -> GateSpec {
        GateSpec {
            pct: vec![(name.to_string(), band)],
            ..GateSpec::default()
        }
    }

    fn num(v: f64) -> MetricValue {
        MetricValue::Num(v)
    }

    #[test]
    fn exact_default_and_pct_band() {
        let gate = gate_with_pct("wall", 10.0);
        assert_eq!(tolerance_for(&gate, "a/b/wall_s"), Tolerance::Pct(10.0));
        assert_eq!(tolerance_for(&gate, "a/b/bytes"), Tolerance::Exact);

        let base = BTreeMap::from([
            ("p/bytes".to_string(), num(1000.0)),
            ("p/wall_s".to_string(), num(2.0)),
        ]);
        let ok = BTreeMap::from([
            ("p/bytes".to_string(), num(1000.0)),
            ("p/wall_s".to_string(), num(2.19)),
        ]);
        assert!(!compare(&base, &ok, &gate).regressed());

        let slow = BTreeMap::from([
            ("p/bytes".to_string(), num(1000.0)),
            ("p/wall_s".to_string(), num(2.3)),
        ]);
        assert!(compare(&base, &slow, &gate).regressed());

        let drifted = BTreeMap::from([
            ("p/bytes".to_string(), num(1001.0)),
            ("p/wall_s".to_string(), num(2.0)),
        ]);
        assert!(compare(&base, &drifted, &gate).regressed());
    }

    #[test]
    fn missing_fails_new_informs() {
        let gate = GateSpec::default();
        let base = BTreeMap::from([("p/bytes".to_string(), num(1.0))]);
        let cur = BTreeMap::from([("p/other".to_string(), num(2.0))]);
        let report = compare(&base, &cur, &gate);
        assert!(report.regressed());
        let statuses: Vec<_> = report.rows.iter().map(|r| (r.key.as_str(), r.status)).collect();
        assert!(statuses.contains(&("p/bytes", DiffStatus::Missing)));
        assert!(statuses.contains(&("p/other", DiffStatus::New)));

        // New alone does not fail the gate.
        let cur2 = BTreeMap::from([
            ("p/bytes".to_string(), num(1.0)),
            ("p/other".to_string(), num(2.0)),
        ]);
        assert!(!compare(&base, &cur2, &gate).regressed());
    }

    #[test]
    fn digest_strings_stay_exact_under_pct() {
        let gate = gate_with_pct("digest", 50.0);
        let base = BTreeMap::from([("p/digest".to_string(), MetricValue::Str("abc".into()))]);
        let cur = BTreeMap::from([("p/digest".to_string(), MetricValue::Str("abd".into()))]);
        assert!(compare(&base, &cur, &gate).regressed());
    }

    #[test]
    fn invariants_catch_isa_divergence() {
        use crate::manifest::Axes;
        use crate::matrix::expand;
        let axes = Axes {
            bench: vec!["serve".into()],
            isa: vec!["scalar".into(), "auto".into()],
            ..Axes::default()
        };
        let points = expand(&axes);
        let gate = GateSpec {
            invariant_across: vec!["isa".into()],
            invariant: vec!["logits_digest".into()],
            ..GateSpec::default()
        };
        let same = BTreeMap::from([
            (
                format!("{}/logits_digest", points[0].key()),
                MetricValue::Str("aaaa".into()),
            ),
            (
                format!("{}/logits_digest", points[1].key()),
                MetricValue::Str("aaaa".into()),
            ),
        ]);
        assert!(check_invariants(&points, &same, &gate).is_empty());

        let diverged = BTreeMap::from([
            (
                format!("{}/logits_digest", points[0].key()),
                MetricValue::Str("aaaa".into()),
            ),
            (
                format!("{}/logits_digest", points[1].key()),
                MetricValue::Str("bbbb".into()),
            ),
        ]);
        let violations = check_invariants(&points, &diverged, &gate);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("logits_digest"));

        let missing = BTreeMap::from([(
            format!("{}/logits_digest", points[0].key()),
            MetricValue::Str("aaaa".into()),
        )]);
        assert!(!check_invariants(&points, &missing, &gate).is_empty());
    }

    #[test]
    fn baselines_round_trip() {
        let metrics = BTreeMap::from([
            ("p/bytes".to_string(), num(123.0)),
            ("p/digest".to_string(), MetricValue::Str("ff00".into())),
        ]);
        let tmp = std::env::temp_dir().join(format!("medsplit-lab-baseline-{}.json", std::process::id()));
        save_baseline(&tmp, "t", &metrics).unwrap();
        assert_eq!(load_baseline(&tmp).unwrap(), metrics);
        let _ = std::fs::remove_file(tmp);
    }

    #[test]
    fn render_lists_notable_rows() {
        let gate = GateSpec::default();
        let base = BTreeMap::from([("p/a".to_string(), num(1.0)), ("p/b".to_string(), num(2.0))]);
        let cur = BTreeMap::from([("p/a".to_string(), num(1.0)), ("p/b".to_string(), num(3.0))]);
        let report = compare(&base, &cur, &gate);
        let table = report.render(false);
        assert!(table.contains("REGRESSED"));
        assert!(table.contains("p/b"));
        assert!(!table.contains("p/a "));
        assert!(table.contains("1 ok, 1 regressed"));
    }
}
