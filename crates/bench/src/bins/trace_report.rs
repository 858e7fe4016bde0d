//! Trace-driven round/kernel profiling: loads a `medsplit-telemetry`
//! JSONL trace and prints where each round's wall time went.
//!
//! Outputs:
//!   - an aggregate span table (calls, total, self time per span name),
//!   - a per-round protocol-phase breakdown whose shares sum to ~100% of
//!     each round's wall time (the unattributed remainder is `other`;
//!     a phase's platform steps that overlapped count once),
//!   - a per-kernel attribution (gemm/conv time, resolved to rounds via
//!     span parent links), and next to it how the worker pool treated
//!     those kernels: fanned out, run inline because small or because the
//!     pool was busy, and how many dispatches paid a worker wake-up,
//!   - the metric counters (per-`MessageKind` logical `net.bytes.*` and
//!     on-wire `net.wire_bytes.*` traffic — the pair shows each codec's
//!     compression directly — plus pool, serve, and the `plan.*`
//!     plan-cache hit/miss/invalidation traffic),
//!   - `trace_phases.csv` in `bench_results/` (or `$MEDSPLIT_RESULTS_DIR`).
//!
//! Usage:
//!   exp trace_report <trace.jsonl>     report an existing trace
//!   exp trace_report --smoke           run a tiny traced 4-platform split
//!                                  training in-process, dump its trace,
//!                                  re-load it, and assert the expected
//!                                  span names and non-zero counters
//!
//! A trace is produced by any run with `MEDSPLIT_TRACE=1`; see the README
//! Observability section.

use std::collections::{BTreeMap, HashMap};

use crate::report::{arg_present, write_result, ReportWriter, TextTable};
use medsplit_telemetry::{aggregate_spans, aggregate_table, MetricSnapshot, SpanRecord, Trace};

/// Protocol phases of the paper's four-message round, in wire order.
const PHASES: &[&str] = &[
    "l1_forward",
    "server_fwd_bwd",
    "loss_grad",
    "l1_backward",
    "evaluate",
];

/// Kernel span names attributed in the per-kernel table.
const KERNELS: &[&str] = &["gemm", "conv_fwd", "conv_bwd"];

/// What a `trace_report` invocation observed, for the lab runner.
#[derive(Debug, Clone, Copy)]
pub struct TraceReportOutcome {
    /// Span records in the loaded trace.
    pub spans: usize,
    /// Metric snapshots in the loaded trace.
    pub metrics: usize,
}

/// Resolves each span to the protocol round it ran under: its own
/// `round` annotation, or the nearest annotated ancestor's.
fn resolve_rounds(spans: &[SpanRecord]) -> HashMap<u64, u64> {
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut out = HashMap::new();
    for s in spans {
        let mut cur = Some(s);
        while let Some(c) = cur {
            if let Some(r) = c.round {
                out.insert(s.id, r);
                break;
            }
            cur = c.parent.and_then(|p| by_id.get(&p).copied());
        }
    }
    out
}

/// One round's phase timings in seconds.
#[derive(Debug, Default, Clone)]
struct RoundBreakdown {
    wall_s: f64,
    phase_s: BTreeMap<String, f64>,
}

/// Per-round wall time split by protocol phase. Only spans named `round`
/// define a round's wall time; a phase's time in a round is the union
/// of its spans' intervals there, so platform steps that ran side by
/// side on the worker pool count once and shares still sum to ~100%.
fn round_breakdowns(spans: &[SpanRecord]) -> BTreeMap<u64, RoundBreakdown> {
    let rounds_of = resolve_rounds(spans);
    let mut out: BTreeMap<u64, RoundBreakdown> = BTreeMap::new();
    let mut intervals: BTreeMap<(u64, &str), Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        let Some(&round) = rounds_of.get(&s.id) else {
            continue;
        };
        let entry = out.entry(round).or_default();
        if s.name == "round" {
            entry.wall_s += s.dur_ns as f64 / 1e9;
        } else if PHASES.contains(&s.name.as_str()) {
            let end = s.start_ns.saturating_add(s.dur_ns);
            intervals
                .entry((round, &s.name))
                .or_default()
                .push((s.start_ns, end));
        }
    }
    for ((round, phase), iv) in intervals {
        let b = out.entry(round).or_default();
        b.phase_s.insert(phase.to_string(), union_ns(iv) as f64 / 1e9);
    }
    out
}

/// Nanoseconds covered by at least one of the `[start, end)` intervals.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut covered_to) = (0, 0);
    for (start, end) in intervals {
        let start = start.max(covered_to);
        if end > start {
            total += end - start;
            covered_to = end;
        }
    }
    total
}

/// Renders the per-round phase CSV (`round,phase,seconds,share_pct`);
/// shares of one round sum to ~100 via the `other` residual.
fn phases_csv(rounds: &BTreeMap<u64, RoundBreakdown>) -> String {
    let mut report = ReportWriter::csv("round,phase,seconds,share_pct");
    for (round, b) in rounds {
        if b.wall_s <= 0.0 {
            continue;
        }
        let mut attributed = 0.0;
        for phase in PHASES {
            let s = b.phase_s.get(*phase).copied().unwrap_or(0.0);
            attributed += s;
            report.line(&format!("{round},{phase},{:.9},{:.3}", s, 100.0 * s / b.wall_s));
        }
        let other = (b.wall_s - attributed).max(0.0);
        report.line(&format!(
            "{round},other,{:.9},{:.3}",
            other,
            100.0 * other / b.wall_s
        ));
    }
    report.to_csv()
}

fn kernel_table(spans: &[SpanRecord], total_round_s: f64) -> TextTable {
    let mut table = TextTable::new(
        "kernel attribution",
        &["kernel", "calls", "total ms", "share of round time"],
    );
    let aggs = aggregate_spans(spans);
    for kernel in KERNELS {
        let Some(a) = aggs.iter().find(|a| a.name == *kernel) else {
            continue;
        };
        let total_s = a.total_ns as f64 / 1e9;
        let share = if total_round_s > 0.0 {
            format!("{:.1}%", 100.0 * total_s / total_round_s)
        } else {
            "-".into()
        };
        table.row(vec![
            kernel.to_string(),
            a.count.to_string(),
            format!("{:.3}", total_s * 1e3),
            share,
        ]);
    }
    table
}

/// How the worker pool treated the parallel ranges of the run: did it
/// help (`pool.jobs`), why not when it did not (`pool.inline_*`), and
/// how often a dispatch paid for waking a parked worker. Counters the
/// run never touched print as 0.
fn pool_table(trace: &Trace) -> TextTable {
    let mut table = TextTable::new("worker pool dispatch", &["counter", "value", "meaning"]);
    for (name, meaning) in [
        ("pool.jobs", "ranges fanned out over the pool"),
        ("pool.tasks", "tasks in those ranges"),
        (
            "pool.inline_small",
            "ranges run inline: work below the shape gate",
        ),
        (
            "pool.inline_busy",
            "ranges run inline: another thread's job held the pool",
        ),
        ("pool.wakeups", "dispatches that had to wake a parked worker"),
    ] {
        table.row(vec![
            name.into(),
            trace.counter_total(name).to_string(),
            meaning.into(),
        ]);
    }
    table
}

fn print_report(trace: &Trace) -> String {
    println!("{}", aggregate_table(&trace.spans));

    let rounds = round_breakdowns(&trace.spans);
    let total_round_s: f64 = rounds.values().map(|b| b.wall_s).sum();
    let mut phase_table = TextTable::new(
        "per-round protocol phases (seconds)",
        &[
            "round",
            "wall_s",
            "l1_fwd",
            "server",
            "loss_grad",
            "l1_bwd",
            "eval",
            "other%",
        ],
    );
    for (round, b) in &rounds {
        let get = |p: &str| b.phase_s.get(p).copied().unwrap_or(0.0);
        let attributed: f64 = PHASES.iter().map(|p| get(p)).sum();
        let other_pct = if b.wall_s > 0.0 {
            100.0 * (b.wall_s - attributed).max(0.0) / b.wall_s
        } else {
            0.0
        };
        phase_table.row(vec![
            round.to_string(),
            format!("{:.6}", b.wall_s),
            format!("{:.6}", get("l1_forward")),
            format!("{:.6}", get("server_fwd_bwd")),
            format!("{:.6}", get("loss_grad")),
            format!("{:.6}", get("l1_backward")),
            format!("{:.6}", get("evaluate")),
            format!("{:.1}", other_pct),
        ]);
    }
    println!("{phase_table}");
    println!("{}", kernel_table(&trace.spans, total_round_s));
    println!("{}", pool_table(trace));

    let mut counters = TextTable::new("counters", &["name", "value"]);
    for m in &trace.metrics {
        if let MetricSnapshot::Counter { name, value } = m {
            counters.row(vec![name.clone(), value.to_string()]);
        }
    }
    if !counters.is_empty() {
        println!("{counters}");
    }

    phases_csv(&rounds)
}

/// Runs a tiny traced 4-platform split training in-process and returns
/// the JSONL text of its trace.
fn smoke_run() -> String {
    use medsplit_core::{SplitConfig, SplitTrainer};
    use medsplit_data::{partition, Partition, SyntheticTabular};
    use medsplit_nn::{Architecture, LrSchedule, MlpConfig};
    use medsplit_simnet::{MemoryTransport, StarTopology};

    medsplit_telemetry::set_enabled(true);
    let arch = Architecture::Mlp(MlpConfig {
        input_dim: 8,
        hidden: vec![16],
        num_classes: 3,
    });
    let all = SyntheticTabular::new(3, 8, 0).generate(160).expect("data");
    let train = all.subset(&(0..128).collect::<Vec<_>>()).expect("train");
    let test = all.subset(&(128..160).collect::<Vec<_>>()).expect("test");
    let shards = partition(&train, 4, &Partition::Iid, 1).expect("shards");
    let transport = MemoryTransport::new(StarTopology::new(4));
    let config = SplitConfig {
        rounds: 3,
        eval_every: 3,
        lr: LrSchedule::Constant(0.1),
        ..SplitConfig::default()
    };
    let mut trainer = SplitTrainer::new(&arch, config, shards, test, &transport).expect("trainer");
    let history = trainer.run().expect("training");
    assert!(history.stats.total_bytes > 0, "smoke run sent no bytes");
    medsplit_telemetry::set_enabled(false);
    medsplit_telemetry::to_jsonl(&Trace::capture())
}

fn assert_smoke(trace: &Trace, csv: &str) {
    for name in [
        "round",
        "l1_forward",
        "server_fwd_bwd",
        "loss_grad",
        "l1_backward",
        "evaluate",
        "gemm",
    ] {
        assert!(
            trace.spans.iter().any(|s| s.name == name),
            "expected span {name:?} missing from trace"
        );
    }
    for prefix in [
        "net.bytes.activations",
        "net.bytes.logits",
        "net.bytes.logit_grads",
        "net.bytes.cut_grads",
        // On-wire bytes are tracked per kind next to the logical
        // (f32-equivalent) bytes; under the default f32 codec the two
        // families agree, but both must always be present.
        "net.wire_bytes.activations",
        "net.wire_bytes.cut_grads",
        "net.msgs.activations",
        // Plan-cache traffic: round 1 builds every layer's plan (misses),
        // each optimizer step afterwards invalidates exactly the touched
        // parameters' plans.
        "plan.cache_misses",
        "plan.invalidations",
    ] {
        assert!(
            trace.counter_total(prefix) > 0,
            "expected non-zero counter {prefix:?}"
        );
    }
    // Each round's phase shares (including the residual) sum to ~100%.
    let mut by_round: BTreeMap<&str, f64> = BTreeMap::new();
    for line in csv.lines().skip(1) {
        let mut cols = line.split(',');
        let round = cols.next().expect("round col");
        let _phase = cols.next();
        let _secs = cols.next();
        let share: f64 = cols.next().expect("share col").parse().expect("share parses");
        *by_round.entry(round).or_default() += share;
    }
    assert!(!by_round.is_empty(), "phase CSV has no rounds");
    for (round, sum) in by_round {
        assert!(
            (sum - 100.0).abs() < 1.0,
            "round {round} phase shares sum to {sum:.2}%, expected ~100%"
        );
    }
}

/// Runs the trace report (or the traced smoke run) and returns what it
/// loaded.
pub fn run(args: &[String]) -> TraceReportOutcome {
    let smoke = arg_present(args, "--smoke");

    let (trace, jsonl_name) = if smoke {
        let jsonl = smoke_run();
        let path = write_result("trace_smoke.jsonl", &jsonl).expect("write trace_smoke.jsonl");
        // Re-read from disk so the smoke run exercises the full JSONL
        // round trip, not just the in-process structures.
        let text = std::fs::read_to_string(&path).expect("read trace back");
        (medsplit_telemetry::from_jsonl(&text), path.display().to_string())
    } else {
        let path = args
            .iter()
            .find(|a| !a.starts_with("--"))
            .expect("usage: trace_report <trace.jsonl> | trace_report --smoke");
        let text = std::fs::read_to_string(path).expect("read trace file");
        (medsplit_telemetry::from_jsonl(&text), path.clone())
    };

    assert!(!trace.spans.is_empty(), "trace {jsonl_name} contains no spans");
    let csv = print_report(&trace);
    let csv_path = write_result("trace_phases.csv", &csv).expect("write trace_phases.csv");
    println!("trace: {jsonl_name}");
    println!("wrote {}", csv_path.display());

    if smoke {
        assert_smoke(&trace, &csv);
        println!(
            "smoke OK: {} spans, {} metrics, phase shares verified",
            trace.spans.len(),
            trace.metrics.len()
        );
    }
    TraceReportOutcome {
        spans: trace.spans.len(),
        metrics: trace.metrics.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: u64, id: u64, start_ns: u64, dur_ns: u64, parent: Option<u64>) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            tid,
            id,
            parent,
            start_ns,
            dur_ns,
            round: Some(0),
            sim_s: None,
        }
    }

    /// Two platforms' `l1_forward` steps on two threads, 300 ns of the
    /// 600 ns they cover overlapping: the phase takes its union, and the
    /// round's shares still sum to 100%.
    #[test]
    fn overlapping_phase_spans_count_once() {
        let spans = vec![
            span("round", 0, 1, 0, 1_000, None),
            span("l1_forward", 0, 2, 100, 400, Some(1)),
            span("l1_forward", 1, 3, 200, 500, Some(1)),
            span("server_fwd_bwd", 0, 4, 700, 200, Some(1)),
        ];
        let rounds = round_breakdowns(&spans);
        let b = &rounds[&0];
        assert_eq!(b.phase_s["l1_forward"], 600e-9);
        assert_eq!(b.phase_s["server_fwd_bwd"], 200e-9);
        let total: f64 = phases_csv(&rounds)
            .lines()
            .skip(1)
            .map(|l| l.rsplit(',').next().unwrap().parse::<f64>().unwrap())
            .sum();
        assert!((total - 100.0).abs() < 1e-6, "shares sum to {total}");
    }

    #[test]
    fn union_of_nested_disjoint_and_touching_intervals() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(10, 20), (0, 5), (12, 15), (20, 30)]), 25);
    }
}
