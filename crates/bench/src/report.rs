//! Plain-text tables, schema-asserted CSV, and the shared `BENCH_*.json`
//! envelope for the measurement tools.

use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::PathBuf;

/// A simple aligned text table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        TextTable {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        writeln!(
            f,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1))
        )?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

/// A CSV emitter with a declared schema: the header is fixed at
/// construction and every line is asserted to match its arity, so schema
/// drift dies in the tool that caused it rather than in a downstream
/// parser. Every tool's CSV output goes through this.
#[derive(Debug, Clone)]
pub struct ReportWriter {
    header: String,
    columns: usize,
    lines: Vec<String>,
}

impl ReportWriter {
    /// Starts a CSV report with the given comma-separated header.
    pub fn csv(header: &str) -> Self {
        let columns = header.split(',').count();
        ReportWriter {
            header: header.to_string(),
            columns,
            lines: Vec::new(),
        }
    }

    /// Appends one pre-joined CSV line.
    ///
    /// # Panics
    ///
    /// Panics if the line's field count does not match the header arity.
    pub fn line(&mut self, line: &str) -> &mut Self {
        assert_eq!(
            line.split(',').count(),
            self.columns,
            "CSV line arity mismatch: {line}"
        );
        self.lines.push(line.to_string());
        self
    }

    /// Number of data rows.
    pub fn rows(&self) -> usize {
        self.lines.len()
    }

    /// Renders the report as CSV text.
    pub fn to_csv(&self) -> String {
        let mut out = self.header.clone();
        out.push('\n');
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// Writes the report under the results directory.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&self, filename: &str) -> io::Result<PathBuf> {
        write_result(filename, &self.to_csv())
    }
}

/// Version of the committed `BENCH_*.json` schema (v2 added the
/// `schema_version` / `host` / `generated_by` / `generated_utc`
/// envelope).
pub const BENCH_JSON_SCHEMA_VERSION: u32 = 2;

/// The lab run id this process is executing under, or `"standalone"`
/// when invoked directly rather than through `lab run`.
fn lab_run_id() -> String {
    std::env::var("MEDSPLIT_LAB_RUN_ID").unwrap_or_else(|_| "standalone".to_string())
}

/// Renders the shared `BENCH_*.json` envelope: schema version, bench
/// name, provenance (lab run id + UTC timestamp), and the host
/// fingerprint, followed by the bench-specific body fields. Body values
/// must be pre-rendered JSON (strings quoted, arrays bracketed).
pub fn bench_json(bench: &str, body: &[(&str, String)]) -> String {
    let host = medsplit_lab::fingerprint();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema_version\": {BENCH_JSON_SCHEMA_VERSION},");
    let _ = writeln!(json, "  \"bench\": \"{bench}\",");
    let _ = writeln!(json, "  \"generated_by\": \"{}\",", lab_run_id());
    let _ = writeln!(json, "  \"generated_utc\": \"{}\",", medsplit_lab::utc_now());
    let _ = writeln!(json, "  \"host\": {},", host.to_inline_json());
    for (i, (key, value)) in body.iter().enumerate() {
        let comma = if i + 1 == body.len() { "" } else { "," };
        let _ = writeln!(json, "  \"{key}\": {value}{comma}");
    }
    json.push_str("}\n");
    json
}

/// Where a `BENCH_*.json` lands: smoke runs keep it next to the CSVs in
/// the results dir so they never clobber the committed full-sweep file
/// at the repo root.
pub fn bench_json_path(filename: &str, smoke: bool) -> PathBuf {
    if smoke {
        results_dir().join(filename)
    } else {
        PathBuf::from(filename)
    }
}

/// The directory experiment outputs are written to.
fn results_dir() -> PathBuf {
    std::env::var_os("MEDSPLIT_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("bench_results"))
}

/// Writes `content` under the results directory, creating it if needed.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_result(filename: &str, content: &str) -> io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(filename);
    fs::write(&path, content)?;
    Ok(path)
}

/// Reads a `--flag value` style argument from a raw arg list.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Whether a bare `--flag` is present.
pub fn arg_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = TextTable::new("demo", &["name", "value"]);
        assert!(t.is_empty());
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "22222".into()]);
        assert_eq!(
            t.to_string(),
            "== demo ==\nname   value\n------------\nalpha  1    \nb      22222\n"
        );
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        TextTable::new("x", &["a", "b"]).row(vec!["only-one".into()]);
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--model", "resnet", "--quick"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--model").as_deref(), Some("resnet"));
        assert_eq!(arg_value(&args, "--dataset"), None);
        assert!(arg_present(&args, "--quick"));
        assert!(!arg_present(&args, "--full"));
    }

    #[test]
    fn report_writer_schema_assertion() {
        let mut w = ReportWriter::csv("a,b,c");
        w.line("1,2,3").line("4,5,6");
        assert_eq!(w.rows(), 2);
        assert_eq!(w.to_csv(), "a,b,c\n1,2,3\n4,5,6\n");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn report_writer_rejects_short_row() {
        ReportWriter::csv("a,b,c").line("1,2");
    }

    #[test]
    fn bench_json_envelope_fields() {
        let json = bench_json(
            "demo",
            &[("isa", "\"scalar\"".to_string()), ("results", "[]".to_string())],
        );
        assert!(json.contains("\"schema_version\": 2"));
        assert!(json.contains("\"bench\": \"demo\""));
        assert!(json.contains("\"generated_by\": "));
        assert!(json.contains("\"generated_utc\": "));
        assert!(json.contains("\"host\": {"));
        assert!(json.contains("\"isa\": \"scalar\""));
        // The envelope must be valid JSON end to end.
        assert!(medsplit_telemetry::json::parse(&json).is_ok());
    }

    #[test]
    fn write_result_creates_dir() {
        let _env = crate::testsync::ENV.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("medsplit-test-{}", std::process::id()));
        std::env::set_var("MEDSPLIT_RESULTS_DIR", &dir);
        let path = write_result("probe.csv", "a,b\n").unwrap();
        assert!(path.exists());
        std::env::remove_var("MEDSPLIT_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(dir);
    }
}
