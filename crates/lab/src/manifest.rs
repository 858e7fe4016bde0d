//! The `*.lab.toml` manifest format: a hand-rolled TOML-subset parser
//! (like every codec in this workspace — no external deps) plus the
//! validated [`Manifest`] model.
//!
//! ## Format
//!
//! ```toml
//! schema_version = 1
//!
//! [lab]
//! name = "smoke"
//! description = "CI smoke matrix"
//! ci = true                      # picked up by `lab ci`
//!
//! [matrix]                       # every axis is a list; the cartesian
//! bench = ["split_train"]        # product is the run matrix
//! model = ["mlp"]
//! topology = ["star4"]
//! fault = ["clean", "drop10"]
//! codec = ["f32", "f16"]
//! isa = ["auto"]
//! threads = [1, 2]
//! seed = [42]
//!
//! [run]
//! rounds = 3
//! samples = 160
//! capture_trace = true
//!
//! [gate]
//! baseline = "baselines/smoke.json"
//! exact = ["accuracy", "bytes"]  # leaf-name prefixes compared exactly
//! invariant_across = ["isa"]     # axes results must not depend on
//! invariant = ["logits_digest"]  # metrics pinned across those axes
//!
//! [gate.pct]
//! wall_s = 50.0                  # percentage tolerance bands
//! ```
//!
//! The parser is strict: unknown sections or keys, duplicate keys
//! (duplicate axes), empty axis lists, a value listed twice on one axis
//! and a `threads` value below 1 are all hard errors — a manifest that
//! parses is a manifest the runner fully understands, and no two of its
//! points share a key.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// A scalar or list value in a manifest.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlVal {
    /// A quoted string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A list of scalars, kept as the text between its brackets until the
    /// validation reads it as strings or integers, which parses the items
    /// and stores them once, at their count.
    List(String),
}

impl TomlVal {
    fn type_name(&self) -> &'static str {
        match self {
            TomlVal::Str(_) => "string",
            TomlVal::Int(_) => "integer",
            TomlVal::Float(_) => "float",
            TomlVal::Bool(_) => "bool",
            TomlVal::List(_) => "list",
        }
    }
}

/// A manifest parse/validation error, with the offending line when known.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestError {
    /// 1-based line number, 0 when the error is structural.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for ManifestError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ManifestError> {
    Err(ManifestError {
        line,
        message: message.into(),
    })
}

/// Raw parse result: section name → (key → value), with duplicate keys
/// and sections rejected.
type RawDoc = BTreeMap<String, BTreeMap<String, (usize, TomlVal)>>;

fn parse_scalar(line_no: usize, s: &str) -> Result<TomlVal, ManifestError> {
    let s = s.trim();
    if let Some(body) = s.strip_prefix('"') {
        let Some(body) = body.strip_suffix('"') else {
            return err(line_no, format!("unterminated string {s:?}"));
        };
        if body.contains('"') {
            return err(line_no, format!("embedded quote in string {s:?}"));
        }
        return Ok(TomlVal::Str(body.to_string()));
    }
    match s {
        "true" => return Ok(TomlVal::Bool(true)),
        "false" => return Ok(TomlVal::Bool(false)),
        _ => {}
    }
    if let Ok(i) = s.parse::<i64>() {
        return Ok(TomlVal::Int(i));
    }
    if let Ok(f) = s.parse::<f64>() {
        return Ok(TomlVal::Float(f));
    }
    err(line_no, format!("cannot parse value {s:?}"))
}

fn parse_value(line_no: usize, s: &str) -> Result<TomlVal, ManifestError> {
    let s = s.trim();
    if let Some(body) = s.strip_prefix('[') {
        let Some(body) = body.strip_suffix(']') else {
            return err(line_no, format!("unterminated list {s:?}"));
        };
        return Ok(TomlVal::List(body.trim().to_string()));
    }
    parse_scalar(line_no, s)
}

/// The items of a list's body: split on commas outside quotes (strings
/// in manifests never contain commas-in-quotes per the axis-value
/// grammar, but be correct anyway); none for an empty body.
fn list_items(body: &str) -> impl Iterator<Item = &str> {
    let mut quoted = false;
    let items = body.split(move |c| {
        quoted ^= c == '"';
        c == ',' && !quoted
    });
    (!body.is_empty()).then_some(items).into_iter().flatten()
}

/// Parses the TOML subset into sections. The implicit top-level section
/// is named `""`.
fn parse_raw(text: &str) -> Result<RawDoc, ManifestError> {
    let mut doc: RawDoc = BTreeMap::new();
    let mut section = String::new();
    doc.entry(section.clone()).or_default();
    for (i, raw_line) in text.lines().enumerate() {
        let line_no = i + 1;
        // Strip comments (quotes in this grammar never contain '#').
        let line = match raw_line.find('#') {
            Some(pos) if !raw_line[..pos].contains('"') || raw_line[..pos].matches('"').count() % 2 == 0 => {
                &raw_line[..pos]
            }
            _ => raw_line,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[') {
            let Some(name) = name.strip_suffix(']') else {
                return err(line_no, format!("malformed section header {line:?}"));
            };
            let name = name.trim();
            if name.is_empty() {
                return err(line_no, "empty section name");
            }
            if doc.contains_key(name) {
                return err(line_no, format!("duplicate section [{name}]"));
            }
            section = name.to_string();
            doc.insert(section.clone(), BTreeMap::new());
            continue;
        }
        let Some(eq) = line.find('=') else {
            return err(line_no, format!("expected `key = value`, got {line:?}"));
        };
        let key = line[..eq].trim().to_string();
        if key.is_empty() {
            return err(line_no, "empty key");
        }
        let value = parse_value(line_no, &line[eq + 1..])?;
        let table = doc.get_mut(&section).expect("section exists");
        if let Some((first_line, _)) = table.get(&key) {
            return err(
                line_no,
                format!("duplicate key `{key}` in section [{section}] (first declared on line {first_line})"),
            );
        }
        table.insert(key, (line_no, value));
    }
    Ok(doc)
}

/// The run-matrix axes, each a non-empty list of values. The expansion
/// order is canonical (the field order here), independent of declaration
/// order in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Axes {
    /// Which workload each point runs (`split_train`, `kernel_smoke`, ...).
    pub bench: Vec<String>,
    /// Model identifier (workload-specific, e.g. `mlp`, `mlp_wide`).
    pub model: Vec<String>,
    /// Topology identifier (e.g. `star4`).
    pub topology: Vec<String>,
    /// Fault-plan identifier (`clean`, `drop10`, `crash_3_6`, ...).
    pub fault: Vec<String>,
    /// Wire codec (`f32` / `f16`).
    pub codec: Vec<String>,
    /// Kernel ISA (`auto`, `scalar`, `avx2`).
    pub isa: Vec<String>,
    /// Worker-pool sizes.
    pub threads: Vec<usize>,
    /// RNG seeds.
    pub seed: Vec<u64>,
}

impl Default for Axes {
    fn default() -> Self {
        Axes {
            bench: Vec::new(), // required — no default
            model: vec!["mlp".into()],
            topology: vec!["star4".into()],
            fault: vec!["clean".into()],
            codec: vec!["f32".into()],
            isa: vec!["auto".into()],
            threads: vec![1],
            seed: vec![42],
        }
    }
}

/// The canonical axis names, in expansion order.
pub const AXIS_NAMES: &[&str] = &[
    "bench", "model", "topology", "fault", "codec", "isa", "threads", "seed",
];

/// Scalar options shared by every point of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOpts {
    /// Training rounds (split-training workloads).
    pub rounds: usize,
    /// Dataset size (split-training workloads).
    pub samples: usize,
    /// Whether each point dumps a span trace into the run directory.
    pub capture_trace: bool,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            rounds: 3,
            samples: 160,
            capture_trace: false,
        }
    }
}

/// The regression-gate declaration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateSpec {
    /// Path to the committed baseline JSON, relative to the CWD.
    pub baseline: Option<String>,
    /// Leaf-name prefixes whose metrics are compared exactly.
    pub exact: Vec<String>,
    /// Leaf-name → percentage tolerance band.
    pub pct: Vec<(String, f64)>,
    /// Axes the `invariant` metrics must not depend on (e.g. `["isa"]`
    /// declares a scalar-vs-auto A/B).
    pub invariant_across: Vec<String>,
    /// Metric leaf names pinned identical across `invariant_across`.
    pub invariant: Vec<String>,
}

/// A parsed, validated experiment manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Manifest format version (this parser understands version 1).
    pub schema_version: u32,
    /// Short name; also the run-directory prefix.
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Whether `lab ci` includes this manifest in the gated suite.
    pub ci: bool,
    /// The run matrix.
    pub axes: Axes,
    /// Shared run options.
    pub run: RunOpts,
    /// The regression gate.
    pub gate: GateSpec,
}

fn take_str(
    table: &mut BTreeMap<String, (usize, TomlVal)>,
    key: &str,
) -> Result<Option<String>, ManifestError> {
    match table.remove(key) {
        None => Ok(None),
        Some((_, TomlVal::Str(s))) => Ok(Some(s)),
        Some((line, v)) => err(line, format!("`{key}` must be a string, got {}", v.type_name())),
    }
}

fn take_bool(
    table: &mut BTreeMap<String, (usize, TomlVal)>,
    key: &str,
) -> Result<Option<bool>, ManifestError> {
    match table.remove(key) {
        None => Ok(None),
        Some((_, TomlVal::Bool(b))) => Ok(Some(b)),
        Some((line, v)) => err(line, format!("`{key}` must be a bool, got {}", v.type_name())),
    }
}

fn take_usize(
    table: &mut BTreeMap<String, (usize, TomlVal)>,
    key: &str,
) -> Result<Option<usize>, ManifestError> {
    match table.remove(key) {
        None => Ok(None),
        Some((_line, TomlVal::Int(i))) if i >= 0 => Ok(Some(i as usize)),
        Some((line, v)) => err(line, format!("`{key}` must be a non-negative integer, got {v:?}")),
    }
}

/// The axis `key` as a non-empty list of `what`: each item parsed as a
/// scalar and kept if `pick` accepts it. The items are counted before the
/// output is allocated, so a long list costs its elements' size once.
fn take_list<T>(
    table: &mut BTreeMap<String, (usize, TomlVal)>,
    key: &str,
    what: &str,
    pick: fn(TomlVal) -> Result<T, TomlVal>,
) -> Result<Option<Vec<T>>, ManifestError> {
    match table.remove(key) {
        None => Ok(None),
        Some((line, TomlVal::List(body))) => {
            let mut out = Vec::with_capacity(list_items(&body).count());
            for item in list_items(&body) {
                match pick(parse_scalar(line, item)?) {
                    Ok(v) => out.push(v),
                    Err(other) => {
                        return err(
                            line,
                            format!("axis `{key}` must list {what}, got {}", other.type_name()),
                        )
                    }
                }
            }
            if out.is_empty() {
                return err(
                    line,
                    format!("axis `{key}` is an empty list — the matrix would be empty"),
                );
            }
            Ok(Some(out))
        }
        Some((line, v)) => err(
            line,
            format!("axis `{key}` must be a list, got {}", v.type_name()),
        ),
    }
}

fn take_str_list(
    table: &mut BTreeMap<String, (usize, TomlVal)>,
    key: &str,
) -> Result<Option<Vec<String>>, ManifestError> {
    take_list(table, key, "strings", |v| match v {
        TomlVal::Str(s) => Ok(s),
        other => Err(other),
    })
}

fn take_int_list(
    table: &mut BTreeMap<String, (usize, TomlVal)>,
    key: &str,
) -> Result<Option<Vec<i64>>, ManifestError> {
    take_list(table, key, "integers", |v| match v {
        TomlVal::Int(i) => Ok(i),
        other => Err(other),
    })
}

fn reject_unknown(section: &str, table: &BTreeMap<String, (usize, TomlVal)>) -> Result<(), ManifestError> {
    if let Some((key, (line, _))) = table.iter().next() {
        let place = if section.is_empty() {
            "the top level".to_string()
        } else {
            format!("section [{section}]")
        };
        return err(*line, format!("unknown key `{key}` in {place}"));
    }
    Ok(())
}

impl Manifest {
    /// Parses and validates manifest text.
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        let mut doc = parse_raw(text)?;

        let mut top = doc.remove("").unwrap_or_default();
        let schema_version = take_usize(&mut top, "schema_version")?.unwrap_or(1) as u32;
        if schema_version != 1 {
            return err(
                0,
                format!("unsupported schema_version {schema_version} (this lab understands 1)"),
            );
        }
        reject_unknown("", &top)?;

        let mut lab = doc.remove("lab").ok_or(ManifestError {
            line: 0,
            message: "missing required section [lab]".into(),
        })?;
        let name = take_str(&mut lab, "name")?.ok_or(ManifestError {
            line: 0,
            message: "[lab] requires `name`".into(),
        })?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return err(0, format!("[lab] name {name:?} must be non-empty [A-Za-z0-9_-]"));
        }
        let description = take_str(&mut lab, "description")?.unwrap_or_default();
        let ci = take_bool(&mut lab, "ci")?.unwrap_or(false);
        reject_unknown("lab", &lab)?;

        let mut matrix = doc.remove("matrix").ok_or(ManifestError {
            line: 0,
            message: "missing required section [matrix]".into(),
        })?;
        let bench = take_str_list(&mut matrix, "bench")?.ok_or(ManifestError {
            line: 0,
            message: "[matrix] requires a `bench` axis".into(),
        })?;
        let mut axes = Axes {
            bench,
            ..Axes::default()
        };
        if let Some(v) = take_str_list(&mut matrix, "model")? {
            axes.model = v;
        }
        if let Some(v) = take_str_list(&mut matrix, "topology")? {
            axes.topology = v;
        }
        if let Some(v) = take_str_list(&mut matrix, "fault")? {
            axes.fault = v;
        }
        if let Some(v) = take_str_list(&mut matrix, "codec")? {
            axes.codec = v;
        }
        if let Some(v) = take_str_list(&mut matrix, "isa")? {
            axes.isa = v;
        }
        if let Some(v) = take_int_list(&mut matrix, "threads")? {
            if v.iter().any(|&i| i < 1) {
                return err(0, "axis `threads` must list values of at least 1");
            }
            axes.threads = v.into_iter().map(|i| i as usize).collect();
        }
        if let Some(v) = take_int_list(&mut matrix, "seed")? {
            axes.seed = v.into_iter().map(|i| i as u64).collect();
        }
        reject_unknown("matrix", &matrix)?;
        fn repeats<T: Ord>(values: &[T]) -> bool {
            let mut seen: Vec<&T> = values.iter().collect();
            seen.sort();
            seen.dedup();
            seen.len() != values.len()
        }
        for (axis, repeated) in [
            ("bench", repeats(&axes.bench)),
            ("model", repeats(&axes.model)),
            ("topology", repeats(&axes.topology)),
            ("fault", repeats(&axes.fault)),
            ("codec", repeats(&axes.codec)),
            ("isa", repeats(&axes.isa)),
            ("threads", repeats(&axes.threads)),
            ("seed", repeats(&axes.seed)),
        ] {
            if repeated {
                return err(0, format!("axis `{axis}` lists a duplicate value"));
            }
        }

        let mut run = RunOpts::default();
        if let Some(mut table) = doc.remove("run") {
            if let Some(v) = take_usize(&mut table, "rounds")? {
                if v == 0 {
                    return err(0, "`rounds` must be at least 1");
                }
                run.rounds = v;
            }
            if let Some(v) = take_usize(&mut table, "samples")? {
                if v < 8 {
                    return err(0, "`samples` must be at least 8");
                }
                run.samples = v;
            }
            if let Some(v) = take_bool(&mut table, "capture_trace")? {
                run.capture_trace = v;
            }
            reject_unknown("run", &table)?;
        }

        let mut gate = GateSpec::default();
        if let Some(mut table) = doc.remove("gate") {
            gate.baseline = take_str(&mut table, "baseline")?;
            gate.exact = take_str_list(&mut table, "exact")?.unwrap_or_default();
            gate.invariant_across = take_str_list(&mut table, "invariant_across")?.unwrap_or_default();
            gate.invariant = take_str_list(&mut table, "invariant")?.unwrap_or_default();
            reject_unknown("gate", &table)?;
            for axis in &gate.invariant_across {
                if !AXIS_NAMES.contains(&axis.as_str()) {
                    return err(0, format!("`invariant_across` names unknown axis `{axis}`"));
                }
            }
        }
        if let Some(table) = doc.remove("gate.pct") {
            for (key, (line, val)) in table {
                let band = match val {
                    TomlVal::Float(f) => f,
                    TomlVal::Int(i) => i as f64,
                    other => {
                        return err(
                            line,
                            format!("[gate.pct] `{key}` must be numeric, got {}", other.type_name()),
                        )
                    }
                };
                if !band.is_finite() || band <= 0.0 {
                    return err(line, format!("[gate.pct] `{key}` band must be positive"));
                }
                gate.pct.push((key, band));
            }
        }

        if let Some((section, table)) = doc.into_iter().next() {
            let line = table.values().map(|(l, _)| *l).min().unwrap_or(0);
            return err(line, format!("unknown section [{section}]"));
        }

        Ok(Manifest {
            schema_version,
            name,
            description,
            ci,
            axes,
            run,
            gate,
        })
    }

    /// Loads and parses a manifest file.
    pub fn load(path: &Path) -> Result<Manifest, ManifestError> {
        let text = std::fs::read_to_string(path).map_err(|e| ManifestError {
            line: 0,
            message: format!("cannot read {}: {e}", path.display()),
        })?;
        Manifest::parse(&text).map_err(|mut e| {
            e.message = format!("{}: {}", path.display(), e.message);
            e
        })
    }
}
