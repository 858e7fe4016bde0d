//! Host fingerprinting: every run directory and committed bench report
//! records what machine produced it, so trajectories across PRs are
//! attributable.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use medsplit_telemetry::json::{self, Json};

/// The host facts a run manifest records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostFingerprint {
    /// Dispatched kernel ISA (`scalar` / `avx2`).
    pub isa: String,
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// `rustc --version` output, or `"unknown"` offline.
    pub rustc: String,
    /// Compile-time OS (`linux`, `macos`, ...).
    pub os: String,
    /// Compile-time architecture (`x86_64`, `aarch64`, ...).
    pub arch: String,
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Fingerprints the current host. The rustc probe is cached; the ISA is
/// re-read every call because benchmarks override it at runtime.
pub fn fingerprint() -> HostFingerprint {
    static RUSTC: OnceLock<String> = OnceLock::new();
    HostFingerprint {
        isa: medsplit_tensor::simd::active_isa().name().to_string(),
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rustc: RUSTC.get_or_init(rustc_version).clone(),
        os: std::env::consts::OS.to_string(),
        arch: std::env::consts::ARCH.to_string(),
    }
}

impl HostFingerprint {
    /// The fingerprint as a JSON object value.
    pub fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("isa".to_string(), Json::Str(self.isa.clone()));
        m.insert("cores".to_string(), Json::Num(self.cores as f64));
        m.insert("rustc".to_string(), Json::Str(self.rustc.clone()));
        m.insert("os".to_string(), Json::Str(self.os.clone()));
        m.insert("arch".to_string(), Json::Str(self.arch.clone()));
        Json::Obj(m)
    }

    /// The fingerprint as a compact inline JSON string (for the
    /// single-line `host` field of `BENCH_*.json`).
    pub fn to_inline_json(&self) -> String {
        format!(
            "{{\"arch\": \"{}\", \"cores\": {}, \"isa\": \"{}\", \"os\": \"{}\", \"rustc\": \"{}\"}}",
            json::escape(&self.arch),
            self.cores,
            json::escape(&self.isa),
            json::escape(&self.os),
            json::escape(&self.rustc),
        )
    }
}

/// Current time as an ISO-8601 UTC timestamp (`2026-08-08T12:34:56Z`),
/// derived from the Unix epoch with a hand-rolled civil-date conversion
/// (no external time crate). Timestamps only ever land in artifacts that
/// are excluded from determinism digests.
pub fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    utc_from_unix(secs)
}

/// Converts Unix seconds to an ISO-8601 UTC timestamp. Uses the classic
/// days-from-civil inverse (Howard Hinnant's algorithm).
fn utc_from_unix(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (hh, mm, ss) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    // civil_from_days
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}T{hh:02}:{mm:02}:{ss:02}Z")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_conversion_known_dates() {
        assert_eq!(utc_from_unix(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_from_unix(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc_from_unix(1_754_611_200), "2025-08-08T00:00:00Z");
        assert_eq!(utc_from_unix(1_704_067_199), "2023-12-31T23:59:59Z");
    }

    #[test]
    fn fingerprint_is_populated() {
        let h = fingerprint();
        assert!(!h.isa.is_empty());
        assert!(h.cores >= 1);
        assert!(!h.os.is_empty());
        let inline = h.to_inline_json();
        assert!(inline.starts_with('{') && inline.ends_with('}'));
        assert!(json::parse(&inline).is_ok());
    }
}
