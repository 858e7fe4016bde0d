//! Trace and metric exporters: JSONL dump/parse (through [`crate::json`])
//! and a human-readable aggregate table.
//!
//! ## JSONL schema
//!
//! One flat JSON object per line, discriminated by a `"t"` field:
//!
//! ```text
//! {"t":"span","name":"gemm","tid":2,"id":17,"parent":16,"start_ns":1200,"dur_ns":540,"round":3,"sim_s":1.25}
//! {"t":"counter","name":"net.bytes.activations","value":1048576}
//! {"t":"gauge","name":"scratch.allocated_bytes","value":262144.0}
//! {"t":"hist","name":"serve.batch_size","bounds":[1,2,4],"buckets":[0,3,1,0],"count":4,"sum":11}
//! ```
//!
//! `parent`, `round`, and `sim_s` are omitted when absent. The parser
//! accepts the same schema back (unknown fields are ignored), so a trace
//! written by one process can be aggregated by `trace_report` in another.
//! Each line is read with [`crate::json::parse`]; a line that is not a
//! JSON object, lacks a string `t` and `name`, or has an unknown `t` is
//! skipped.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;

use crate::json::{self, Json};
use crate::metrics::{snapshot_metrics, MetricSnapshot};
use crate::span::{drain_spans, SpanRecord};

/// Everything a trace file holds: spans plus metric snapshots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Finished spans, in file order.
    pub spans: Vec<SpanRecord>,
    /// Metric snapshots, in file order.
    pub metrics: Vec<MetricSnapshot>,
}

impl Trace {
    /// Captures the current process state: drains all buffered spans and
    /// snapshots all registered metrics.
    pub fn capture() -> Trace {
        Trace {
            spans: drain_spans(),
            metrics: snapshot_metrics(),
        }
    }

    /// Sum of all values of counters whose name starts with `prefix`.
    pub fn counter_total(&self, prefix: &str) -> u64 {
        self.metrics
            .iter()
            .filter_map(|m| match m {
                MetricSnapshot::Counter { name, value } if name.starts_with(prefix) => Some(*value),
                _ => None,
            })
            .sum()
    }
}

/// The trace's float format, kept apart from [`json::fmt_num`] on
/// purpose: integral values keep a `.0` and `-0.0` stays `-0.0`, where
/// `fmt_num` writes `0` — and `fmt_num` cannot change without moving every
/// run id and baseline digest. Both spell the non-finite values `NaN`,
/// `inf` and `-inf`, which [`json::parse`] reads back.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Serialises a trace to JSONL (one object per line, spans first).
pub fn to_jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    for s in &trace.spans {
        let _ = write!(
            out,
            "{{\"t\":\"span\",\"name\":\"{}\",\"tid\":{},\"id\":{},",
            json::escape(&s.name),
            s.tid,
            s.id
        );
        if let Some(p) = s.parent {
            let _ = write!(out, "\"parent\":{p},");
        }
        let _ = write!(out, "\"start_ns\":{},\"dur_ns\":{}", s.start_ns, s.dur_ns);
        if let Some(r) = s.round {
            let _ = write!(out, ",\"round\":{r}");
        }
        if let Some(sim) = s.sim_s {
            let _ = write!(out, ",\"sim_s\":{}", fmt_f64(sim));
        }
        out.push_str("}\n");
    }
    for m in &trace.metrics {
        match m {
            MetricSnapshot::Counter { name, value } => {
                let _ = writeln!(
                    out,
                    "{{\"t\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
                    json::escape(name)
                );
            }
            MetricSnapshot::Gauge { name, value } => {
                let _ = writeln!(
                    out,
                    "{{\"t\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
                    json::escape(name),
                    fmt_f64(*value)
                );
            }
            MetricSnapshot::Histogram {
                name,
                bounds,
                buckets,
                count,
                sum,
            } => {
                let bounds_s: Vec<String> = bounds.iter().map(|b| fmt_f64(*b)).collect();
                let buckets_s: Vec<String> = buckets.iter().map(|b| b.to_string()).collect();
                let _ = writeln!(
                    out,
                    "{{\"t\":\"hist\",\"name\":\"{}\",\"bounds\":[{}],\"buckets\":[{}],\"count\":{count},\"sum\":{}}}",
                    json::escape(name),
                    bounds_s.join(","),
                    buckets_s.join(","),
                    fmt_f64(*sum)
                );
            }
        }
    }
    out
}

/// Parses a JSONL trace produced by [`to_jsonl`]. Malformed or unknown
/// lines are skipped rather than failing the whole file.
pub fn from_jsonl(text: &str) -> Trace {
    let mut trace = Trace::default();
    for line in text.lines() {
        let Ok(Json::Obj(obj)) = json::parse(line) else {
            continue;
        };
        let str_field = |key: &str| obj.get(key).and_then(Json::as_str);
        let (Some(t), Some(name)) = (str_field("t"), str_field("name")) else {
            continue;
        };
        let name = name.to_owned();
        let f64_field = |key: &str| obj.get(key).and_then(Json::as_f64);
        let u64_field = |key: &str| f64_field(key).map(|n| n as u64);
        match t {
            "span" => {
                trace.spans.push(SpanRecord {
                    name,
                    tid: u64_field("tid").unwrap_or(0),
                    id: u64_field("id").unwrap_or(0),
                    parent: u64_field("parent"),
                    start_ns: u64_field("start_ns").unwrap_or(0),
                    dur_ns: u64_field("dur_ns").unwrap_or(0),
                    round: u64_field("round"),
                    sim_s: f64_field("sim_s"),
                });
            }
            "counter" => {
                trace.metrics.push(MetricSnapshot::Counter {
                    name,
                    value: u64_field("value").unwrap_or(0),
                });
            }
            "gauge" => {
                trace.metrics.push(MetricSnapshot::Gauge {
                    name,
                    value: f64_field("value").unwrap_or(0.0),
                });
            }
            "hist" => {
                // A numeric array, or empty when absent; any other element
                // makes the line malformed.
                let numbers = |key: &str| match obj.get(key) {
                    Some(Json::Arr(items)) => items.iter().map(Json::as_f64).collect::<Option<Vec<f64>>>(),
                    _ => Some(Vec::new()),
                };
                let (Some(bounds), Some(buckets)) = (numbers("bounds"), numbers("buckets")) else {
                    continue;
                };
                trace.metrics.push(MetricSnapshot::Histogram {
                    name,
                    bounds,
                    buckets: buckets.iter().map(|&v| v as u64).collect(),
                    count: u64_field("count").unwrap_or(0),
                    sum: f64_field("sum").unwrap_or(0.0),
                });
            }
            _ => {}
        }
    }
    trace
}

/// Aggregate statistics for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanAggregate {
    /// Span name.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of span durations (includes time spent in child spans).
    pub total_ns: u64,
    /// Sum of durations minus time covered by direct child spans.
    pub self_ns: u64,
}

/// Aggregates spans by name: call count, total time, and self time
/// (total minus the duration of direct children), sorted by descending
/// self time.
pub fn aggregate_spans(spans: &[SpanRecord]) -> Vec<SpanAggregate> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns;
        }
    }
    let mut agg: HashMap<&str, SpanAggregate> = HashMap::new();
    for s in spans {
        let e = agg.entry(&s.name).or_insert_with(|| SpanAggregate {
            name: s.name.clone(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        e.count += 1;
        e.total_ns += s.dur_ns;
        e.self_ns += s.dur_ns.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    let mut out: Vec<SpanAggregate> = agg.into_values().collect();
    out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.name.cmp(&b.name)));
    out
}

/// Renders the aggregate table as aligned human-readable text.
pub fn aggregate_table(spans: &[SpanRecord]) -> String {
    let aggs = aggregate_spans(spans);
    let total_self: u64 = aggs.iter().map(|a| a.self_ns).sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:>8} {:>12} {:>12} {:>7}",
        "span", "calls", "total_ms", "self_ms", "self%"
    );
    for a in &aggs {
        let share = if total_self > 0 {
            100.0 * a.self_ns as f64 / total_self as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<20} {:>8} {:>12.3} {:>12.3} {:>6.1}%",
            a.name,
            a.count,
            a.total_ns as f64 / 1e6,
            a.self_ns as f64 / 1e6,
            share
        );
    }
    out
}

/// Writes a trace as JSONL to `path`.
pub fn write_jsonl(trace: &Trace, path: &Path) -> std::io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(to_jsonl(trace).as_bytes())?;
    w.flush()
}

/// Captures the process trace and writes it to the file named by
/// `MEDSPLIT_TRACE_FILE` (default `trace.jsonl` in the working
/// directory). Does nothing and returns `Ok(None)` when telemetry is
/// disabled; otherwise returns the path written.
pub fn write_configured() -> std::io::Result<Option<std::path::PathBuf>> {
    if !crate::enabled() {
        return Ok(None);
    }
    let path = std::env::var("MEDSPLIT_TRACE_FILE").unwrap_or_else(|_| "trace.jsonl".to_owned());
    let path = std::path::PathBuf::from(path);
    write_jsonl(&Trace::capture(), &path)?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            spans: vec![
                SpanRecord {
                    name: "round".into(),
                    tid: 0,
                    id: 1,
                    parent: None,
                    start_ns: 100,
                    dur_ns: 1000,
                    round: Some(0),
                    sim_s: Some(2.5),
                },
                SpanRecord {
                    name: "gemm".into(),
                    tid: 0,
                    id: 2,
                    parent: Some(1),
                    start_ns: 200,
                    dur_ns: 400,
                    round: None,
                    sim_s: None,
                },
            ],
            metrics: vec![
                MetricSnapshot::Counter {
                    name: "net.bytes.activations".into(),
                    value: 4096,
                },
                MetricSnapshot::Gauge {
                    name: "scratch.allocated_bytes".into(),
                    value: 1024.0,
                },
                MetricSnapshot::Histogram {
                    name: "serve.batch_size".into(),
                    bounds: vec![1.0, 4.0],
                    buckets: vec![1, 2, 0],
                    count: 3,
                    sum: 7.0,
                },
            ],
        }
    }

    #[test]
    fn jsonl_round_trip_preserves_everything() {
        let trace = sample_trace();
        let text = to_jsonl(&trace);
        let parsed = from_jsonl(&text);
        assert_eq!(parsed, trace);
    }

    #[test]
    fn parser_skips_malformed_and_unknown_lines() {
        let text = "not json\n{\"t\":\"mystery\",\"name\":\"x\"}\n\n{\"t\":\"counter\",\"name\":\"ok\",\"value\":7}\n";
        let parsed = from_jsonl(text);
        assert_eq!(parsed.spans.len(), 0);
        assert_eq!(
            parsed.metrics,
            vec![MetricSnapshot::Counter {
                name: "ok".into(),
                value: 7
            }]
        );
    }

    #[test]
    fn aggregate_computes_self_time() {
        let trace = sample_trace();
        let aggs = aggregate_spans(&trace.spans);
        let round = aggs.iter().find(|a| a.name == "round").unwrap();
        let gemm = aggs.iter().find(|a| a.name == "gemm").unwrap();
        assert_eq!(round.total_ns, 1000);
        assert_eq!(round.self_ns, 600, "child gemm time subtracted");
        assert_eq!(gemm.self_ns, 400);
        let table = aggregate_table(&trace.spans);
        assert!(table.contains("round"));
        assert!(table.contains("gemm"));
    }

    #[test]
    fn counter_total_sums_by_prefix() {
        let mut trace = sample_trace();
        trace.metrics.push(MetricSnapshot::Counter {
            name: "net.bytes.logits".into(),
            value: 1000,
        });
        assert_eq!(trace.counter_total("net.bytes."), 5096);
        assert_eq!(trace.counter_total("net.msgs."), 0);
    }
}
