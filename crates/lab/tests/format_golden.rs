//! Golden pins for the two text formats every reported number passes
//! through: the lab's canonical JSON (run ids, `metrics.json`, baselines)
//! and the telemetry JSONL trace.
//!
//! Run ids and baseline digests are FNV-1a over the lab writer's bytes,
//! so one moved byte in that writer moves every committed id and digest.
//! The values below were recorded before the two JSON readers and writers
//! were merged into one, and must not move:
//!
//! - the run id of every committed `experiments/*.lab.toml`;
//! - the bytes `save_baseline` writes for a metric map whose keys and
//!   strings carry quotes, backslashes, control characters and non-ASCII
//!   text and whose numbers cover the integral, exponent-sized and
//!   shortest-round-trip forms, and what `load_baseline` reads back;
//! - what `from_jsonl` reads back from `to_jsonl` for a trace with the
//!   same names and gauge, histogram-sum and `sim_s` values of NaN, ±inf,
//!   `-0.0`, the smallest subnormal and `1e300` — bit for bit. The JSONL
//!   bytes themselves are not pinned: only the round trip is.
//!
//! A run id moves when its manifest's content does, and only then:
//! `bins_smoke`'s moved when it dropped a bench point and again when
//! its kernel smoke replaced the fleet smoke, and
//! `fault_sweep` / `relay_fault_sweep` entered with the ids they were
//! committed with, `codec_frontier` / `codec_ablation` moved when
//! they became `split_train` points, and the five paper-figure manifests
//! (`fig4`, `fig4_ci`, `table2`, `table3`, `fig6`) entered with theirs,
//! as did `table1`, `fig5`, `fig7`, `fig8`, `serve` and `fleet`, recorded
//! later from the unchanged manifests;
//! `smoke` / `hierarchy_chaos` moved when their thread-invariance gates
//! gained the retry, checksum, degraded-round and link-byte counters.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use medsplit_lab::{load_baseline, run_id, save_baseline, Manifest, MetricValue};
use medsplit_telemetry::{from_jsonl, to_jsonl, MetricSnapshot, SpanRecord, Trace};

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.u64(1);
                self.u64(v);
            }
            None => self.u64(0),
        }
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Names that exercise every escaping rule of both writers.
const NAMES: [&str; 7] = [
    "plain.name",
    "quote\"d",
    "back\\slash",
    "new\nline",
    "tab\there",
    "ctl\u{1}byte",
    "caf\u{e9}",
];

#[test]
fn run_ids_of_committed_manifests() {
    let expected = [
        ("bins_smoke", "9c84a7b2eabf41d5"),
        ("codec_ablation", "146c0fc643f65e07"),
        ("codec_frontier", "3ef65e05c1a1eedc"),
        ("fault_sweep", "e8ce9409df175b4c"),
        ("hierarchy_chaos", "18591cb1ab705879"),
        ("relay_fault_sweep", "f58a23ff1b80ccc8"),
        ("smoke", "babeeeb670cb59b8"),
        ("fig4", "0e2417cf00264b5d"),
        ("fig4_ci", "79f64025c362a8f8"),
        ("table2", "676ba2f783ac2e78"),
        ("table3", "daf373bdf9c3a224"),
        ("fig6", "a010893f6f239739"),
        ("table1", "6075cb29bf2e83d7"),
        ("fig5", "441053c2092f0f13"),
        ("fig7", "db226c1e661b909b"),
        ("fig8", "e4c0b557f6d1bc61"),
        ("serve", "2b196769a8211ded"),
        ("fleet", "1db35a55d67b0009"),
    ];
    for (file, id) in expected {
        let path = repo_root().join("experiments").join(format!("{file}.lab.toml"));
        let manifest = Manifest::load(&path).unwrap_or_else(|e| panic!("{file}: {e:?}"));
        assert_eq!(run_id(&manifest), id, "run id of {file}.lab.toml");
    }
}

fn baseline_metrics() -> BTreeMap<String, MetricValue> {
    let numbers = [
        0.0,
        -0.0,
        3.0,
        -7.0,
        123_456_789.0,
        1e15,
        -1e15,
        999_999_999_999_999.0,
        1e-7,
        0.1 + 0.2,
        -0.125,
        2.5e-300,
        1.7976931348623157e308,
    ];
    let mut metrics = BTreeMap::new();
    for (i, name) in NAMES.iter().enumerate() {
        metrics.insert(format!("p/{name}/str"), MetricValue::Str(format!("v{name}")));
        metrics.insert(
            format!("p/{name}/num"),
            MetricValue::Num(numbers[i % numbers.len()]),
        );
    }
    for (i, v) in numbers.iter().enumerate() {
        metrics.insert(format!("p/n{i:02}"), MetricValue::Num(*v));
    }
    metrics.insert("p/digest".into(), MetricValue::Str("5f02ae563ecea9d8".into()));
    metrics.insert("p/digest2".into(), MetricValue::Str("3ffc6711ddddddde".into()));
    metrics
}

fn metric_map_digest(map: &BTreeMap<String, MetricValue>) -> u64 {
    let mut h = Fnv::new();
    for (k, v) in map {
        h.str(k);
        match v {
            MetricValue::Num(n) => {
                h.u64(0);
                h.f64(*n);
            }
            MetricValue::Str(s) => {
                h.u64(1);
                h.str(s);
            }
        }
    }
    h.0
}

#[test]
fn baseline_bytes_and_round_trip() {
    let metrics = baseline_metrics();
    let path = std::env::temp_dir().join(format!("medsplit-format-golden-{}.json", std::process::id()));
    save_baseline(&path, "format \"golden\"\t\u{e9}", &metrics).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let loaded = load_baseline(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    let mut h = Fnv::new();
    h.bytes(&bytes);
    assert_eq!(
        (bytes.len(), format!("{:016x}", h.0)),
        (1543, "ba762cfa03c89501".to_string()),
        "bytes written by save_baseline"
    );

    // `-0.0` is written as `0`, so it reads back as `+0.0`: equal, but
    // not bit-identical. The digest pins exactly that.
    assert_eq!(loaded, metrics);
    assert_eq!(
        format!("{:016x}", metric_map_digest(&loaded)),
        "9fdc4abf9eacd922",
        "metric map read back by load_baseline"
    );
}

fn golden_trace() -> Trace {
    let reals = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        5e-324,
        1e300,
        0.0,
        1.25,
        -3.5e-9,
        0.1 + 0.2,
    ];
    let mut spans = Vec::new();
    let mut metrics = Vec::new();
    for (i, name) in NAMES.iter().enumerate() {
        for (j, &v) in reals.iter().enumerate() {
            let k = (i * reals.len() + j) as u64;
            spans.push(SpanRecord {
                name: (*name).to_string(),
                tid: k % 3,
                id: 1000 + k,
                parent: (k % 2 == 1).then(|| 999 + k),
                start_ns: 17 * k,
                dur_ns: (1 << 40) + k,
                round: (!k.is_multiple_of(3)).then_some(k / 3),
                sim_s: (j != reals.len() - 1).then_some(v),
            });
            metrics.push(MetricSnapshot::Gauge {
                name: (*name).to_string(),
                value: v,
            });
            metrics.push(MetricSnapshot::Histogram {
                name: (*name).to_string(),
                bounds: vec![-0.0, 1.5, v],
                buckets: vec![k, 0, 1 << 53, 2],
                count: k + 3,
                sum: v,
            });
        }
        metrics.push(MetricSnapshot::Counter {
            name: (*name).to_string(),
            value: [0, 7, 1 << 53, u64::MAX][i % 4],
        });
    }
    Trace { spans, metrics }
}

fn trace_digest(trace: &Trace) -> u64 {
    let mut h = Fnv::new();
    h.u64(trace.spans.len() as u64);
    for s in &trace.spans {
        h.str(&s.name);
        h.u64(s.tid);
        h.u64(s.id);
        h.opt_u64(s.parent);
        h.u64(s.start_ns);
        h.u64(s.dur_ns);
        h.opt_u64(s.round);
        h.opt_u64(s.sim_s.map(f64::to_bits));
    }
    h.u64(trace.metrics.len() as u64);
    for m in &trace.metrics {
        match m {
            MetricSnapshot::Counter { name, value } => {
                h.u64(0);
                h.str(name);
                h.u64(*value);
            }
            MetricSnapshot::Gauge { name, value } => {
                h.u64(1);
                h.str(name);
                h.f64(*value);
            }
            MetricSnapshot::Histogram {
                name,
                bounds,
                buckets,
                count,
                sum,
            } => {
                h.u64(2);
                h.str(name);
                h.u64(bounds.len() as u64);
                bounds.iter().for_each(|b| h.f64(*b));
                h.u64(buckets.len() as u64);
                buckets.iter().for_each(|b| h.u64(*b));
                h.u64(*count);
                h.f64(*sum);
            }
        }
    }
    h.0
}

#[test]
fn jsonl_round_trip_is_bit_exact() {
    let trace = golden_trace();
    let parsed = from_jsonl(&to_jsonl(&trace));
    assert_eq!(parsed.spans.len(), trace.spans.len());
    assert_eq!(parsed.metrics.len(), trace.metrics.len());
    assert_eq!(
        trace_digest(&parsed),
        trace_digest(&trace),
        "round trip moved a bit"
    );
    assert_eq!(format!("{:016x}", trace_digest(&parsed)), "f95c286c8e9dde2a");
}
