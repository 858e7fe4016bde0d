//! medsplit's end-to-end benchmark.
//!
//! ```text
//! medsplit-benchmark [--workload NAME] [--seed S] [--seconds T | --repeats N]
//!                    [--trace [0|1]] [--check-against FILE [--with FILE]]
//! ```
//!
//! With `--workload` it runs that workload in this process — tracing off
//! (`--trace 0`, the default: the end-to-end metrics) or the traced run
//! (`--trace 1`: the per-layer metrics) — and ends its standard output
//! with one JSON line: `correct`, `attempted`, `failed`, `metrics`.
//! Without `--workload` it runs all five, each in a process of its own so
//! that `peak_rss_mb` belongs to one workload, first untraced and then
//! traced, and gathers their result files into `out/results.json`.
//! `--check-against` compares the results with an earlier result file
//! under the bounds in `BENCHMARK.json`. See the README beside this
//! package for every workload and metric.

mod compare;
mod host;
mod json;
mod metrics;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use json::Value;
use metrics::{END_TO_END, PER_LAYER};
use workloads::{Repeat, TrainSpec, WORKLOADS};

/// Fewest repeats a run reports a median of.
const MIN_REPEATS: usize = 3;
/// Most repeats a run makes when `--seconds` decides: a repeat is sized
/// to take seconds, and a fast host is not made to fill the time with
/// more of them.
const MAX_REPEATS: usize = 5;
/// Fewest set-ups a run reports the median of; those the repeats did not
/// make are made after them, without running anything.
const SETUP_SAMPLES: usize = 9;
/// What the result line carries as `final_loss` on a serving workload,
/// which has no loss: the driver reads one list of metrics for all
/// workloads and none may be 0.
const NO_LOSS: f64 = 1.0;
/// `run_seconds` of `BENCHMARK.json`, for runs started by hand.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: medsplit-benchmark [--workload NAME] [--seed S] [--seconds T | --repeats N] \
                     [--trace [0|1]] [--check-against FILE [--with FILE]]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    repeats: Option<usize>,
    trace: bool,
    check_against: Option<PathBuf>,
    with: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        repeats: None,
        trace: false,
        check_against: None,
        with: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if name != "all" {
                    if !WORKLOADS.contains(&name.as_str()) {
                        return Err(format!("unknown workload {name:?}; one of {WORKLOADS:?}"));
                    }
                    args.workload = Some(name);
                }
            }
            "--seed" => args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--repeats" => {
                let n: usize = value("a number")?
                    .parse()
                    .map_err(|e| format!("--repeats: {e}"))?;
                if n < MIN_REPEATS {
                    return Err(format!("--repeats must be at least {MIN_REPEATS}"));
                }
                args.repeats = Some(n);
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--check-against" => args.check_against = Some(value("a result file")?.into()),
            "--with" => args.with = Some(value("a result file")?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Where result files and traces go: `out/` beside this package's
/// manifest, wherever the command was started from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(fail)?;
    }
    std::fs::write(path, value.encode() + "\n").map_err(fail)
}

/// One metric's samples and what is reported for it.
struct Measured {
    name: &'static str,
    unit: &'static str,
    better: metrics::Better,
    /// Whether the metric applies to the workload. One that does not is a
    /// stand-in that only the result line carries.
    applies: bool,
    samples: Vec<f64>,
}

impl Measured {
    /// The reported value: the median of the samples.
    fn value(&self) -> f64 {
        stats::median(&self.samples)
    }

    fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("unit", Value::str(self.unit)),
            ("better", Value::str(self.better.as_str())),
            ("value", Value::Num(self.value())),
        ];
        if let Some(s) = stats::summarize(&self.samples) {
            pairs.extend([
                ("q1", Value::Num(s.q1)),
                ("q3", Value::Num(s.q3)),
                ("min", Value::Num(s.min)),
                ("max", Value::Num(s.max)),
                ("n", Value::Num(s.n as f64)),
            ]);
        }
        pairs.push(("samples", Value::nums(&self.samples)));
        Value::obj(pairs)
    }

    fn print(&self) {
        if !self.applies {
            return;
        }
        match stats::summarize(&self.samples) {
            Some(s) if s.n > 1 => println!(
                "  {:<38} {:>16.6} {:<5} n={} q1 {:.6} q3 {:.6} min {:.6} max {:.6}",
                self.name,
                self.value(),
                self.unit,
                s.n,
                s.q1,
                s.q3,
                s.min,
                s.max
            ),
            _ => println!("  {:<38} {:>16.6} {}", self.name, self.value(), self.unit),
        }
    }
}

/// A finished run of one workload: what is printed, written and returned.
struct RunResult {
    workload: String,
    trace: bool,
    seed: u64,
    repeats: usize,
    attempted: u64,
    failed: u64,
    complaints: Vec<String>,
    measured: Vec<Measured>,
    /// Exact outputs every repeat agreed on.
    exact: Vec<(&'static str, Value)>,
}

impl RunResult {
    /// The result file's object: fingerprint, checks, and every sample.
    fn to_json(&self) -> Value {
        Value::obj([
            ("workload", Value::str(&self.workload)),
            ("trace", Value::Num(f64::from(u8::from(self.trace)))),
            ("seed", Value::Num(self.seed as f64)),
            ("repeats", Value::Num(self.repeats as f64)),
            ("host", host::fingerprint()),
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "complaints",
                Value::Arr(self.complaints.iter().map(Value::str).collect()),
            ),
            ("exact", Value::obj(self.exact.iter().cloned())),
            (
                "metrics",
                Value::obj(
                    self.measured
                        .iter()
                        .filter(|m| m.applies)
                        .map(|m| (m.name, m.to_json())),
                ),
            ),
        ])
    }

    /// The line the driver reads: every metric of the list, the ones that
    /// do not apply to the workload as stand-ins.
    fn result_line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::obj(self.measured.iter().map(|m| {
                    (
                        m.name,
                        Value::obj([("value", Value::Num(m.value())), ("unit", Value::str(m.unit))]),
                    )
                })),
            ),
        ])
        .encode()
    }

    fn file_name(&self) -> String {
        format!("{}{}.json", self.workload, if self.trace { ".trace" } else { "" })
    }
}

/// The untraced run: three to five repeats through the public entry
/// points, as many as end within `--seconds` (or `--repeats` of them),
/// medians of the repeats.
fn run_untraced(workload: &str, args: &Args) -> Result<RunResult, String> {
    let start = Instant::now();
    let mut reps: Vec<Repeat> = Vec::new();
    loop {
        reps.push(workloads::repeat(workload, args.seed)?);
        let n = reps.len();
        let elapsed = start.elapsed().as_secs_f64();
        let done = match args.repeats {
            Some(wanted) => n >= wanted,
            None => n >= MAX_REPEATS || (n >= MIN_REPEATS && elapsed + elapsed / n as f64 > args.seconds),
        };
        if done {
            break;
        }
    }

    let mut failed: u64 = reps.iter().map(|r| r.failed).sum();
    let mut complaints: Vec<String> = reps.iter().flat_map(|r| r.complaints.clone()).collect();
    // A seed's repeats must agree bit for bit on everything exact.
    let first = &reps[0];
    let disagree = reps.iter().skip(1).any(|r| {
        r.final_loss.map(f64::to_bits) != first.final_loss.map(f64::to_bits)
            || r.wire_bytes != first.wire_bytes
            || r.messages != first.messages
            || r.digest != first.digest
    });
    if disagree {
        failed += 1;
        complaints.push("repeats disagree on final_loss, wire bytes, message count or digest".into());
    }

    let mut setup_s: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    while setup_s.len() < SETUP_SAMPLES {
        setup_s.push(workloads::setup_only(workload, args.seed)?);
    }

    let training = metrics::On::Train.covers(workload);
    let column = |f: &dyn Fn(&Repeat) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let own_rate = column(&|r| r.ops as f64 / r.timed_s);
    let other_rate = column(&|r| r.other_ops as f64 / r.timed_s);
    let (rounds_per_s, requests_per_s) = if training {
        (own_rate, other_rate)
    } else {
        (other_rate, own_rate)
    };
    let samples = [
        setup_s,
        rounds_per_s,
        requests_per_s,
        column(&|r| r.wire_bytes as f64 / r.ops as f64),
        column(&|r| r.final_loss.unwrap_or(NO_LOSS)),
        // A high-water mark, not a distribution: one reading at the end.
        vec![host::peak_rss_mib()],
    ];
    let measured = END_TO_END
        .iter()
        .zip(samples)
        .map(|(&(name, unit, better, on), samples)| Measured {
            name,
            unit,
            better,
            applies: on.covers(workload),
            samples,
        })
        .collect();
    let mut exact = vec![
        ("messages", Value::Num(first.messages as f64)),
        ("wire_bytes", Value::Num(first.wire_bytes as f64)),
        ("digest", Value::Str(format!("{:016x}", first.digest))),
    ];
    if let Some(loss) = first.final_loss {
        exact.push(("final_loss_bits", Value::Str(format!("{:016x}", loss.to_bits()))));
    }
    Ok(RunResult {
        workload: workload.to_owned(),
        trace: false,
        seed: args.seed,
        repeats: reps.len(),
        attempted: reps.iter().map(|r| r.ops).sum(),
        failed,
        complaints,
        measured,
        exact,
    })
}

/// The traced run: one pass with the benchmark driving the actors call by
/// call, per-layer metrics out. A metric that applies to the workload and
/// was not measured, or one that was measured where it does not apply, is
/// a failed check; one that does not apply reads 0.
fn run_traced(workload: &str, args: &Args) -> Result<RunResult, String> {
    let dir = out_dir();
    let mut outcome = match workload {
        "serve_vgg" => traced::traced_serve(args.seed, &dir)?,
        "fleet_mlp" => traced::traced_fleet(args.seed, &dir)?,
        name => {
            let spec = TrainSpec::of(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
            traced::traced_train(name, &spec, args.seed, &dir)?
        }
    };
    for note in &outcome.notes {
        println!("  {note}");
    }
    let mut measured = Vec::with_capacity(PER_LAYER.len());
    for &(name, unit, better, on) in &PER_LAYER {
        let applies = on.covers(workload);
        let value = match (outcome.metrics.get(name), applies) {
            (Some(&v), true) => v,
            (None, false) => 0.0,
            (None, true) => {
                outcome.failed += 1;
                outcome
                    .complaints
                    .push(format!("{name} applies to {workload} and was not measured"));
                0.0
            }
            (Some(&v), false) => {
                outcome.failed += 1;
                outcome
                    .complaints
                    .push(format!("{name} does not apply to {workload} and was measured"));
                v
            }
        };
        measured.push(Measured {
            name,
            unit,
            better,
            applies,
            samples: vec![value],
        });
    }
    Ok(RunResult {
        workload: workload.to_owned(),
        trace: true,
        seed: args.seed,
        repeats: 1,
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        complaints: outcome.complaints,
        measured,
        exact: Vec::new(),
    })
}

/// Runs one workload in this process; prints the metrics, writes the
/// result file, and ends standard output with the result line.
fn run_one(workload: &str, args: &Args) -> Result<RunResult, String> {
    println!(
        "workload {workload}  seed {}  {}",
        args.seed,
        if args.trace { "traced run" } else { "tracing off" }
    );
    let result = if args.trace {
        run_traced(workload, args)?
    } else {
        run_untraced(workload, args)?
    };
    for m in &result.measured {
        m.print();
    }
    println!(
        "  ops_attempted {}  ops_failed {}  repeats {}",
        result.attempted, result.failed, result.repeats
    );
    for c in &result.complaints {
        println!("  FAILED CHECK: {c}");
    }
    write_json(&out_dir().join(result.file_name()), &result.to_json())?;
    println!("{}", result.result_line());
    Ok(result)
}

/// Runs every workload in a process of its own, untraced and then traced,
/// and gathers the result files. Returns the gathered file and whether
/// every run was correct.
fn run_all(args: &Args) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for trace in [false, true] {
        for workload in WORKLOADS {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if let Some(n) = args.repeats {
                cmd.args(["--repeats", &n.to_string()]);
            }
            // `status` waits for the child to end.
            let status = cmd.status().map_err(|e| format!("start {workload}: {e}"))?;
            all_correct &= status.success();
            let file = out_dir().join(format!("{workload}{}.json", if trace { ".trace" } else { "" }));
            if status.success() || file.exists() {
                runs.push(read_json(&file)?);
            }
        }
    }
    let gathered = Value::obj([("runs", Value::Arr(runs))]);
    let path = out_dir().join("results.json");
    write_json(&path, &gathered)?;
    println!("results gathered in {}", path.display());
    Ok((gathered, all_correct))
}

/// Prints the comparison of `new` against the file at `old_path`; `false`
/// when a metric got worse.
fn check_against(old_path: &Path, new: &Value) -> Result<bool, String> {
    let old = read_json(old_path)?;
    let spec = read_json(Path::new("BENCHMARK.json"))
        .or_else(|_| read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")))?;
    let rows = compare::compare(&old, new, &spec)?;
    println!("against {}:", old_path.display());
    for r in &rows {
        println!(
            "  {:<16} {:<18} {:>16.6} -> {:>16.6}  q3-q1 {:.6} / {:.6}  may worsen by {:.6}: {}",
            r.workload,
            r.metric,
            r.old.median,
            r.new.median,
            r.old.q3 - r.old.q1,
            r.new.q3 - r.new.q1,
            r.allowance,
            r.verdict.as_str()
        );
    }
    if rows.is_empty() {
        return Err("the two result files share no end-to-end metric".into());
    }
    Ok(rows.iter().all(|r| r.verdict != compare::Verdict::Worse))
}

fn run(args: &Args) -> Result<bool, String> {
    if let (Some(old), Some(new)) = (&args.check_against, &args.with) {
        return check_against(old, &read_json(new)?);
    }
    let (results, mut ok) = match &args.workload {
        Some(workload) => {
            let result = run_one(workload, args)?;
            (result.to_json(), result.failed == 0)
        }
        None => run_all(args)?,
    };
    if let Some(old) = &args.check_against {
        ok &= check_against(old, &results)?;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    // The product reads its settings from MEDSPLIT_* variables; the
    // benchmark measures its defaults. Nothing else runs yet, so the
    // environment can be edited.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MEDSPLIT_") {
            std::env::remove_var(key);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("medsplit-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
