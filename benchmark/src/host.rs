//! Where a result came from: the host fingerprint every result file
//! carries, and the process's peak resident set.

use std::time::Instant;

use crate::json::Value;

/// Runs `f` and returns what it returned with the wall-clock seconds it
/// took: the one clock every timing of this benchmark reads.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_owned())
}

/// `VmHWM` of this process in MiB (0 where `/proc` is missing).
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// in the working directory without starting a process. A checkout that
/// is not a repository reports "unknown".
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| format!("unborn or packed {r}")),
    }
}

/// CPU model, core count, kernel ISA, pool size, compiler and commit.
pub fn fingerprint() -> Value {
    Value::obj([
        (
            "cpu_model",
            Value::Str(proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into())),
        ),
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("isa", Value::str(medsplit_tensor::simd::active_isa().name())),
        (
            "pool_threads",
            Value::Num(medsplit_tensor::pool::num_threads() as f64),
        ),
        ("rustc", Value::str(env!("BENCH_RUSTC_VERSION"))),
        ("git_commit", Value::Str(git_commit())),
    ])
}
