//! End-to-end tests of the lab public API: manifest validation, sweep
//! expansion determinism, diff/gate tolerance semantics, and the
//! materialize → bless → gate round trip with a stub runner.

use std::collections::BTreeMap;
use std::path::Path;

use medsplit_lab::{
    check_invariants, compare, execute, expand, load_baseline, load_run_metrics, run_id, save_baseline,
    BenchRunner, DiffStatus, Manifest, MetricValue, PointOutcome, RunPoint, Tolerance,
};

const GOOD: &str = r#"
schema_version = 1

[lab]
name = "integration"
description = "integration-test manifest"
ci = true

[matrix]
bench = ["split_train"]
fault = ["clean", "drop10"]
codec = ["f32", "f16"]
threads = [1, 2]

[run]
rounds = 4
samples = 64

[gate]
baseline = "baselines/integration.json"
invariant_across = ["threads"]
invariant = ["bytes"]

[gate.pct]
wall_s = 25.0
"#;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("medsplit-lab-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// --- manifest validation -------------------------------------------------

#[test]
fn manifest_rejects_malformed_inputs() {
    let cases: &[(&str, &str)] = &[
        // (mutation of GOOD or standalone text, expected error fragment)
        (
            "schema_version = 2\n[lab]\nname = \"x\"\n[matrix]\nbench = [\"b\"]\n",
            "schema_version",
        ),
        ("[matrix]\nbench = [\"b\"]\n", "missing required section [lab]"),
        ("[lab]\nname = \"x\"\n", "missing required section [matrix]"),
        (
            "[lab]\nname = \"x\"\n[matrix]\nmodel = [\"mlp\"]\n",
            "requires a `bench` axis",
        ),
        ("[lab]\nname = \"x\"\n[matrix]\nbench = []\n", "empty list"),
        (
            "[lab]\nname = \"x\"\n[matrix]\nbench = [\"b\", \"b\"]\n",
            "duplicate value",
        ),
        // Two points with one key would overwrite each other's metrics.
        (
            "[lab]\nname = \"x\"\n[matrix]\nbench = [\"b\"]\nthreads = [1, 1]\n",
            "duplicate value",
        ),
        (
            "[lab]\nname = \"x\"\n[matrix]\nbench = [\"b\"]\nseed = [42, 42]\n",
            "duplicate value",
        ),
        (
            "[lab]\nname = \"x\"\n[matrix]\nbench = [\"b\"]\nthreads = [0, 1]\n",
            "at least 1",
        ),
        (
            "[lab]\nname = \"x\"\n[matrix]\nbench = [\"b\"]\nbench = [\"c\"]\n",
            "duplicate key",
        ),
        (
            "[lab]\nname = \"x\"\n[matrix]\nbench = [\"b\"]\ngremlin = [\"g\"]\n",
            "unknown key",
        ),
        (
            "[lab]\nname = \"x\"\n[matrix]\nbench = [\"b\"]\n[gremlins]\nx = 1\n",
            "unknown section",
        ),
        (
            "[lab]\nname = \"has spaces\"\n[matrix]\nbench = [\"b\"]\n",
            "must be non-empty",
        ),
        (
            "[lab]\nname = \"x\"\n[matrix]\nbench = [\"b\"]\n[run]\nrounds = 0\n",
            "at least 1",
        ),
        (
            "[lab]\nname = \"x\"\n[matrix]\nbench = [\"b\"]\n[gate]\ninvariant_across = [\"vibe\"]\n",
            "unknown axis",
        ),
        (
            "[lab]\nname = \"x\"\n[matrix]\nbench = [\"b\"]\n[gate.pct]\nwall_s = -5.0\n",
            "must be positive",
        ),
    ];
    for (text, fragment) in cases {
        let err = Manifest::parse(text).expect_err(text);
        assert!(
            err.to_string().contains(fragment),
            "error {err:?} for manifest {text:?} should mention {fragment:?}"
        );
    }
}

#[test]
fn manifest_accepts_the_reference_form() {
    let m = Manifest::parse(GOOD).unwrap();
    assert_eq!(m.name, "integration");
    assert!(m.ci);
    assert_eq!(m.axes.fault, vec!["clean", "drop10"]);
    assert_eq!(m.run.rounds, 4);
    assert_eq!(m.gate.baseline.as_deref(), Some("baselines/integration.json"));
    assert_eq!(m.gate.pct, vec![("wall_s".to_string(), 25.0)]);
}

// --- expansion determinism ----------------------------------------------

#[test]
fn expansion_is_deterministic_and_complete() {
    let m = Manifest::parse(GOOD).unwrap();
    let a = expand(&m.axes);
    let b = expand(&Manifest::parse(GOOD).unwrap().axes);
    assert_eq!(a, b, "two parses of one manifest must expand identically");
    assert_eq!(a.len(), 2 * 2 * 2, "fault x codec x threads");
    // Every point is unique and the key embeds every axis.
    let keys: std::collections::BTreeSet<String> = a.iter().map(RunPoint::key).collect();
    assert_eq!(keys.len(), a.len());
    // Axis declaration order in the manifest must not matter: the same
    // values listed in reverse produce the same expansion order.
    let reversed = GOOD
        .replace("fault = [\"clean\", \"drop10\"]", "FAULT_TMP")
        .replace("codec = [\"f32\", \"f16\"]", "fault = [\"clean\", \"drop10\"]")
        .replace("FAULT_TMP", "codec = [\"f32\", \"f16\"]");
    let c = expand(&Manifest::parse(&reversed).unwrap().axes);
    assert_eq!(a, c);
}

#[test]
fn run_id_is_stable_against_formatting_but_not_content() {
    let m = Manifest::parse(GOOD).unwrap();
    let commented = format!("# a leading comment\n{GOOD}\n");
    assert_eq!(run_id(&m), run_id(&Manifest::parse(&commented).unwrap()));
    let altered = GOOD.replace("rounds = 4", "rounds = 5");
    assert_ne!(run_id(&m), run_id(&Manifest::parse(&altered).unwrap()));
}

// --- diff tolerance semantics -------------------------------------------

fn num(v: f64) -> MetricValue {
    MetricValue::Num(v)
}

#[test]
fn diff_applies_exact_and_pct_tolerances() {
    let m = Manifest::parse(GOOD).unwrap();
    let mut base = BTreeMap::new();
    base.insert("p/bytes".to_string(), num(1000.0));
    base.insert("p/wall_s".to_string(), num(2.0));
    base.insert("p/digest".to_string(), MetricValue::Str("abcd".into()));
    base.insert("p/gone".to_string(), num(1.0));

    let mut cur = BTreeMap::new();
    cur.insert("p/bytes".to_string(), num(1000.0)); // exact match → ok
    cur.insert("p/wall_s".to_string(), num(2.4)); // +20% inside ±25% band → ok
    cur.insert("p/digest".to_string(), MetricValue::Str("abce".into())); // string drift → regressed
    cur.insert("p/brand_new".to_string(), num(7.0)); // new → informational

    let report = compare(&base, &cur, &m.gate);
    let status_of = |key: &str| {
        report
            .rows
            .iter()
            .find(|r| r.key == key)
            .unwrap_or_else(|| panic!("row {key}"))
            .status
    };
    assert_eq!(status_of("p/bytes"), DiffStatus::Ok);
    assert_eq!(status_of("p/wall_s"), DiffStatus::Ok);
    assert_eq!(status_of("p/digest"), DiffStatus::Regressed);
    assert_eq!(status_of("p/gone"), DiffStatus::Missing);
    assert_eq!(status_of("p/brand_new"), DiffStatus::New);
    assert!(report.regressed(), "regressed + missing rows must fail the gate");

    // A pct-banded metric outside its band regresses.
    cur.insert("p/wall_s".to_string(), num(2.6)); // +30% outside ±25%
    cur.insert("p/digest".to_string(), MetricValue::Str("abcd".into()));
    cur.insert("p/gone".to_string(), num(1.0));
    let report = compare(&base, &cur, &m.gate);
    assert_eq!(
        report.rows.iter().find(|r| r.key == "p/wall_s").unwrap().status,
        DiffStatus::Regressed
    );

    // New-only drift does not regress.
    let report = compare(
        &base,
        &{
            let mut c = base.clone();
            c.insert("p/extra".to_string(), num(1.0));
            c
        },
        &m.gate,
    );
    assert!(!report.regressed());
    assert_eq!(report.counts(), (4, 0, 0, 1));
}

#[test]
fn pct_band_never_loosens_string_metrics() {
    let mut gate = Manifest::parse(GOOD).unwrap().gate;
    gate.pct.push(("digest".to_string(), 50.0));
    assert!(matches!(
        medsplit_lab::diff::tolerance_for(&gate, "p/digest"),
        Tolerance::Pct(_)
    ));
    let mut base = BTreeMap::new();
    base.insert("p/digest".to_string(), MetricValue::Str("aaaa".into()));
    let mut cur = BTreeMap::new();
    cur.insert("p/digest".to_string(), MetricValue::Str("aaab".into()));
    let report = compare(&base, &cur, &gate);
    assert!(
        report.regressed(),
        "strings compare exactly even under a pct band"
    );
}

// --- execute → bless → gate round trip ----------------------------------

/// Stub runner: deterministic metrics derived from the point's axes,
/// except `bytes` deliberately ignores the thread count (the invariant
/// the manifest declares). `flaky` mode breaks that invariant.
struct Stub {
    flaky: bool,
}

impl BenchRunner for Stub {
    fn run_point(
        &mut self,
        point: &RunPoint,
        _manifest: &Manifest,
        artifacts_dir: &Path,
    ) -> Result<PointOutcome, String> {
        std::fs::write(artifacts_dir.join("report.csv"), "k,v\n").map_err(|e| e.to_string())?;
        let fault_tax = if point.fault == "clean" { 0.0 } else { 100.0 };
        let codec_scale = if point.codec == "f16" { 0.5 } else { 1.0 };
        let thread_leak = if self.flaky { point.threads as f64 } else { 0.0 };
        Ok(PointOutcome {
            metrics: vec![
                (
                    "bytes".into(),
                    MetricValue::Num(1000.0 * codec_scale + fault_tax + thread_leak),
                ),
                (
                    "digest".into(),
                    MetricValue::Str(format!("d-{}-{}", point.fault, point.codec)),
                ),
            ],
            timings: vec![("wall_s".into(), 0.01)],
            trace_jsonl: None,
        })
    }
}

#[test]
fn materialize_bless_gate_round_trip() {
    let m = Manifest::parse(GOOD).unwrap();
    let lab_dir = tmpdir("roundtrip");

    let out = execute(&m, &mut Stub { flaky: false }, &lab_dir).unwrap();
    assert_eq!(out.points.len(), 8);
    assert_eq!(out.metrics.len(), 16);

    // The materialized directory reloads to the same metric map.
    let (reloaded, timings) = load_run_metrics(&out.dir).unwrap();
    assert_eq!(reloaded, out.metrics);
    assert_eq!(timings.len(), 8);

    // Invariants hold: bytes does not depend on the thread count.
    assert!(check_invariants(&out.points, &out.metrics, &m.gate).is_empty());

    // Bless, re-run, gate: clean.
    let baseline = lab_dir.join("baseline.json");
    save_baseline(&baseline, &m.name, &out.metrics).unwrap();
    let again = execute(&m, &mut Stub { flaky: false }, &lab_dir).unwrap();
    assert_eq!(again.run_id, out.run_id, "same manifest, same run id");
    assert_eq!(again.metrics_digest, out.metrics_digest, "bit-identical rerun");
    let report = compare(&load_baseline(&baseline).unwrap(), &again.metrics, &m.gate);
    assert!(!report.regressed());

    // A runner that leaks thread count into results trips BOTH gates:
    // the baseline diff and the declared thread-invariance.
    let bad = execute(&m, &mut Stub { flaky: true }, &lab_dir).unwrap();
    let report = compare(&load_baseline(&baseline).unwrap(), &bad.metrics, &m.gate);
    assert!(
        report.regressed(),
        "perturbed metrics must fail the baseline gate"
    );
    let violations = check_invariants(&bad.points, &bad.metrics, &m.gate);
    assert!(
        violations.iter().any(|v| v.contains("bytes")),
        "thread-dependent bytes must violate the invariant gate: {violations:?}"
    );

    let _ = std::fs::remove_dir_all(lab_dir);
}
