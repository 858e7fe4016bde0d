//! Matrix execution and run-directory materialization.
//!
//! A run directory is self-describing and content-addressed:
//!
//! ```text
//! <lab_dir>/<name>-<run_id>/
//!   manifest.json   resolved manifest + host fingerprint + point list
//!   metrics.json    every deterministic metric, sorted (digested)
//!   digest.txt      FNV-1a of metrics.json — the bit-identity witness
//!   timings.json    wall-clock seconds + racy gauges + UTC timestamp
//!                   (everything nondeterministic, excluded from digest)
//!   traces/<point>.jsonl    span captures when `capture_trace = true`
//!   artifacts/<point>/      the workload's own CSVs / reports
//! ```
//!
//! The run id is an FNV-1a digest of the *resolved manifest content*
//! (axes, run options, gate, schema version) — not of the host or the
//! time — so identical manifests land in identical directories, and two
//! invocations of `lab run` on the same manifest must reproduce the same
//! `metrics.json` byte-for-byte (CI asserts exactly this).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use medsplit_telemetry::json::{self, Json};
use medsplit_tensor::{fnv1a, FNV_OFFSET};

use crate::host::{fingerprint, utc_now};
use crate::manifest::Manifest;
use crate::matrix::{expand, RunPoint};

/// Flattened `point_key/metric` → deterministic value map.
pub type MetricMap = BTreeMap<String, MetricValue>;
/// Flattened `point_key/observation` → seconds (or other racy scalar).
pub type TimingMap = BTreeMap<String, f64>;

/// One deterministic metric value: a number or an opaque string (digests
/// are reported as hex strings so they are compared bit-exactly, never
/// through float formatting).
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Numeric metric.
    Num(f64),
    /// Opaque exact-match metric (digests, versions).
    Str(String),
}

impl MetricValue {
    /// Renders the value for tables and JSON.
    pub fn render(&self) -> String {
        match self {
            MetricValue::Num(v) => json::fmt_num(*v),
            MetricValue::Str(s) => s.clone(),
        }
    }

    fn to_json(&self) -> Json {
        match self {
            MetricValue::Num(v) => Json::Num(*v),
            MetricValue::Str(s) => Json::Str(s.clone()),
        }
    }

    /// Parses back from a JSON value (numbers and strings only).
    pub fn from_json(v: &Json) -> Option<MetricValue> {
        match v {
            Json::Num(n) => Some(MetricValue::Num(*n)),
            Json::Str(s) => Some(MetricValue::Str(s.clone())),
            _ => None,
        }
    }
}

/// What one executed point reports back to the lab.
#[derive(Debug, Clone, Default)]
pub struct PointOutcome {
    /// Deterministic metrics (digested; gate-able exactly).
    pub metrics: Vec<(String, MetricValue)>,
    /// Nondeterministic observations (wall times, racy gauges) — recorded
    /// in `timings.json`, excluded from the determinism digest, gate-able
    /// only with percentage bands.
    pub timings: Vec<(String, f64)>,
    /// A JSONL span trace to materialize under `traces/`, if captured.
    pub trace_jsonl: Option<String>,
}

/// Executes matrix points. Implemented by `medsplit-bench` (which knows
/// the workloads); the lab crate itself stays workload-agnostic so its
/// tests can drive the materialization pipeline with stubs.
pub trait BenchRunner {
    /// Runs one point, writing any bench-native artifacts under
    /// `artifacts_dir`, and returns its metrics.
    fn run_point(
        &mut self,
        point: &RunPoint,
        manifest: &Manifest,
        artifacts_dir: &Path,
    ) -> Result<PointOutcome, String>;
}

/// A completed manifest run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Content-addressed run id (16 hex chars).
    pub run_id: String,
    /// The materialized run directory.
    pub dir: PathBuf,
    /// Flattened `point_key/metric` → value map (the digested metrics).
    pub metrics: BTreeMap<String, MetricValue>,
    /// Flattened nondeterministic observations.
    pub timings: BTreeMap<String, f64>,
    /// FNV-1a digest of `metrics.json` (hex).
    pub metrics_digest: String,
    /// The expanded points, in execution order.
    pub points: Vec<RunPoint>,
}

fn axes_json(m: &Manifest) -> Json {
    let strs = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
    let mut axes = BTreeMap::new();
    axes.insert("bench".into(), strs(&m.axes.bench));
    axes.insert("model".into(), strs(&m.axes.model));
    axes.insert("topology".into(), strs(&m.axes.topology));
    axes.insert("fault".into(), strs(&m.axes.fault));
    axes.insert("codec".into(), strs(&m.axes.codec));
    axes.insert("isa".into(), strs(&m.axes.isa));
    axes.insert(
        "threads".into(),
        Json::Arr(m.axes.threads.iter().map(|&t| Json::Num(t as f64)).collect()),
    );
    axes.insert(
        "seed".into(),
        Json::Arr(m.axes.seed.iter().map(|&s| Json::Num(s as f64)).collect()),
    );
    Json::Obj(axes)
}

fn gate_json(m: &Manifest) -> Json {
    let strs = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
    let mut gate = BTreeMap::new();
    if let Some(b) = &m.gate.baseline {
        gate.insert("baseline".into(), Json::Str(b.clone()));
    }
    gate.insert("exact".into(), strs(&m.gate.exact));
    gate.insert("invariant".into(), strs(&m.gate.invariant));
    gate.insert("invariant_across".into(), strs(&m.gate.invariant_across));
    let mut pct = BTreeMap::new();
    for (k, v) in &m.gate.pct {
        pct.insert(k.clone(), Json::Num(*v));
    }
    gate.insert("pct".into(), Json::Obj(pct));
    Json::Obj(gate)
}

/// The resolved-manifest document, *without* host or time — the content
/// the run id addresses.
fn resolved_manifest_json(m: &Manifest, points: &[RunPoint]) -> Json {
    let mut run = BTreeMap::new();
    run.insert("rounds".into(), Json::Num(m.run.rounds as f64));
    run.insert("samples".into(), Json::Num(m.run.samples as f64));
    run.insert("capture_trace".into(), Json::Bool(m.run.capture_trace));
    let mut doc = BTreeMap::new();
    doc.insert("schema_version".into(), Json::Num(m.schema_version as f64));
    doc.insert("name".into(), Json::Str(m.name.clone()));
    doc.insert("description".into(), Json::Str(m.description.clone()));
    doc.insert("axes".into(), axes_json(m));
    doc.insert("run".into(), Json::Obj(run));
    doc.insert("gate".into(), gate_json(m));
    doc.insert(
        "points".into(),
        Json::Arr(points.iter().map(|p| Json::Str(p.key())).collect()),
    );
    Json::Obj(doc)
}

/// Computes the content-addressed run id for a manifest.
pub fn run_id(m: &Manifest) -> String {
    let points = expand(&m.axes);
    let canonical = json::to_string(&resolved_manifest_json(m, &points));
    format!("{:016x}", fnv1a(FNV_OFFSET, canonical.as_bytes()))
}

/// The run directory a manifest materializes into, under `lab_dir`.
pub fn run_dir(lab_dir: &Path, m: &Manifest) -> PathBuf {
    lab_dir.join(format!("{}-{}", m.name, run_id(m)))
}

/// A canonical `schema_version = 1` document holding `fields` — the shape
/// of `metrics.json`, `timings.json` and a baseline.
pub(crate) fn v1_document<const N: usize>(fields: [(&str, Json); N]) -> String {
    let mut doc: BTreeMap<String, Json> = fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    doc.insert("schema_version".into(), Json::Num(1.0));
    json::to_string(&Json::Obj(doc))
}

/// A flattened metric map as a JSON object.
pub(crate) fn metrics_json(metrics: &MetricMap) -> Json {
    Json::Obj(metrics.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
}

/// Expands, executes, and materializes a manifest run. Point failures
/// abort the run (a gate must never pass on partial results).
pub fn execute(
    manifest: &Manifest,
    runner: &mut dyn BenchRunner,
    lab_dir: &Path,
) -> Result<RunOutcome, String> {
    let points = expand(&manifest.axes);
    if points.is_empty() {
        return Err("manifest expands to an empty matrix".into());
    }
    let id = run_id(manifest);
    let dir = run_dir(lab_dir, manifest);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    let mut metrics: BTreeMap<String, MetricValue> = BTreeMap::new();
    let mut timings: BTreeMap<String, f64> = BTreeMap::new();
    for point in &points {
        let key = point.key();
        let artifacts = dir.join("artifacts").join(point.dir_name());
        std::fs::create_dir_all(&artifacts).map_err(|e| format!("create {}: {e}", artifacts.display()))?;
        let outcome = runner
            .run_point(point, manifest, &artifacts)
            .map_err(|e| format!("point {key} failed: {e}"))?;
        for (name, value) in outcome.metrics {
            let full = format!("{key}/{name}");
            if metrics.insert(full.clone(), value).is_some() {
                return Err(format!("point {key} reported metric {full} twice"));
            }
        }
        for (name, value) in outcome.timings {
            timings.insert(format!("{key}/{name}"), value);
        }
        if let Some(jsonl) = outcome.trace_jsonl {
            let traces = dir.join("traces");
            std::fs::create_dir_all(&traces).map_err(|e| format!("create {}: {e}", traces.display()))?;
            let path = traces.join(format!("{}.jsonl", point.dir_name()));
            std::fs::write(&path, jsonl).map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }

    // manifest.json: the resolved content plus the host fingerprint.
    let mut doc = match resolved_manifest_json(manifest, &points) {
        Json::Obj(m) => m,
        _ => unreachable!(),
    };
    doc.insert("run_id".into(), Json::Str(id.clone()));
    doc.insert("host".into(), fingerprint().to_json());
    let manifest_path = dir.join("manifest.json");
    std::fs::write(&manifest_path, json::to_string(&Json::Obj(doc)))
        .map_err(|e| format!("write {}: {e}", manifest_path.display()))?;

    // metrics.json + its digest: the determinism witness.
    let metrics_text = v1_document([
        ("run_id", Json::Str(id.clone())),
        ("metrics", metrics_json(&metrics)),
    ]);
    let digest = format!("{:016x}", fnv1a(FNV_OFFSET, metrics_text.as_bytes()));
    std::fs::write(dir.join("metrics.json"), &metrics_text)
        .map_err(|e| format!("write metrics.json: {e}"))?;
    std::fs::write(dir.join("digest.txt"), format!("{digest}\n"))
        .map_err(|e| format!("write digest.txt: {e}"))?;

    // timings.json: everything nondeterministic, plus the only timestamp
    // in the run directory.
    let timings_text = v1_document([
        ("run_id", Json::Str(id.clone())),
        ("generated_utc", Json::Str(utc_now())),
        (
            "timings",
            Json::Obj(timings.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect()),
        ),
    ]);
    std::fs::write(dir.join("timings.json"), timings_text).map_err(|e| format!("write timings.json: {e}"))?;

    Ok(RunOutcome {
        run_id: id,
        dir,
        metrics,
        timings,
        metrics_digest: digest,
        points,
    })
}

/// Loads the flattened metric map (and timings) back from a materialized
/// run directory.
pub fn load_run_metrics(dir: &Path) -> Result<(MetricMap, TimingMap), String> {
    let doc = read_json(&dir.join("metrics.json"))?;
    let metrics = entries(&doc, "metrics").filter_map(|(k, v)| Some((k.clone(), MetricValue::from_json(v)?)));
    // timings.json is optional; a readable one must parse.
    let timings_path = dir.join("timings.json");
    let timings = match std::fs::read_to_string(&timings_path) {
        Ok(text) => json::parse(&text).map_err(|e| format!("{}: {e}", timings_path.display()))?,
        Err(_) => Json::Null,
    };
    let timings_entries = entries(&timings, "timings").filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)));
    Ok((metrics.collect(), timings_entries.collect()))
}

/// The entries of the object under `key`, or none.
fn entries<'a>(doc: &'a Json, key: &str) -> impl Iterator<Item = (&'a String, &'a Json)> {
    doc.get(key).and_then(Json::as_obj).into_iter().flatten()
}

/// Reads and parses a JSON file, naming it in any error.
pub(crate) fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;

    const MANIFEST: &str = r#"
schema_version = 1
[lab]
name = "stub"
[matrix]
bench = ["stub"]
codec = ["f32", "f16"]
"#;

    struct StubRunner;
    impl BenchRunner for StubRunner {
        fn run_point(
            &mut self,
            point: &RunPoint,
            _manifest: &Manifest,
            artifacts_dir: &Path,
        ) -> Result<PointOutcome, String> {
            std::fs::write(artifacts_dir.join("out.csv"), "a,b\n1,2\n").unwrap();
            Ok(PointOutcome {
                metrics: vec![
                    ("bytes".into(), MetricValue::Num(1000.0)),
                    ("digest".into(), MetricValue::Str(format!("h-{}", point.codec))),
                ],
                timings: vec![("wall_s".into(), 0.25)],
                trace_jsonl: None,
            })
        }
    }

    #[test]
    fn execute_materializes_and_reloads() {
        let m = Manifest::parse(MANIFEST).unwrap();
        let tmp = std::env::temp_dir().join(format!("medsplit-lab-test-{}", std::process::id()));
        let out = execute(&m, &mut StubRunner, &tmp).unwrap();
        assert_eq!(out.points.len(), 2);
        assert_eq!(out.run_id.len(), 16);
        assert!(out.dir.join("manifest.json").exists());
        assert!(out.dir.join("digest.txt").exists());
        assert!(out
            .dir
            .join("artifacts/stub_mlp_star4_clean_f32_auto_t1_s42/out.csv")
            .exists());

        let (metrics, timings) = load_run_metrics(&out.dir).unwrap();
        assert_eq!(metrics, out.metrics);
        assert_eq!(
            metrics.get("stub/mlp/star4/clean/f16/auto/t1/s42/digest"),
            Some(&MetricValue::Str("h-f16".into()))
        );
        assert_eq!(timings.len(), 2);

        // A second execution is bit-identical: same id, same digest.
        let again = execute(&m, &mut StubRunner, &tmp).unwrap();
        assert_eq!(again.run_id, out.run_id);
        assert_eq!(again.metrics_digest, out.metrics_digest);
        let _ = std::fs::remove_dir_all(tmp);
    }

    #[test]
    fn run_id_tracks_content_not_formatting() {
        let a = Manifest::parse(MANIFEST).unwrap();
        // Same content, different whitespace/comment layout → same id.
        let b = Manifest::parse(
            "schema_version = 1\n[lab]\nname = \"stub\"   # comment\n\n[matrix]\nbench = [\"stub\"]\ncodec = [\"f32\", \"f16\"]\n",
        )
        .unwrap();
        assert_eq!(run_id(&a), run_id(&b));
        // Different content → different id.
        let c = Manifest::parse(&MANIFEST.replace("\"f16\"", "\"f16x\"")).unwrap();
        assert_ne!(run_id(&a), run_id(&c));
    }
}
