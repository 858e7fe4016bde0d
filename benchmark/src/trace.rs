//! The traced run's span recorder: the benchmark wraps every call it
//! makes into a layer's public functions in a span, keeps the spans in
//! memory, and writes them out when the run ends.

use std::io::Write as _;
use std::time::Instant;

/// One timed call: name, start, end, the span that enclosed it, and the
/// operation (round or request) it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Times one call as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, op);
        let r = f();
        self.exit(id);
        r
    }

    /// Total nanoseconds and number of the spans called `name` whose
    /// operation is at least `from_op`.
    pub fn total(&self, name: &str, from_op: u64) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.op >= from_op)
            .fold((0, 0), |(ns, n), s| (ns + s.dur_ns(), n + 1))
    }

    /// Mean duration of the spans called `name`, in nanoseconds.
    pub fn mean_ns(&self, name: &str, from_op: u64) -> f64 {
        let (ns, n) = self.total(name, from_op);
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64
        }
    }

    /// Time inside the direct children of the spans called `root` as a
    /// share of those spans' own time.
    pub fn coverage(&self, root: &str) -> f64 {
        let mut covered = 0u64;
        let mut whole = 0u64;
        for s in &self.spans {
            if s.name == root {
                whole += s.dur_ns();
            } else if s.parent.is_some_and(|p| self.spans[p as usize].name == root) {
                covered += s.dur_ns();
            }
        }
        if whole == 0 {
            0.0
        } else {
            covered as f64 / whole as f64
        }
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Returns the I/O error, with the path.
    pub fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        let fail = |e: std::io::Error| format!("{}: {e}", path.display());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(fail)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(fail)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )
            .map_err(fail)?;
        }
        out.flush().map_err(fail)
    }
}
