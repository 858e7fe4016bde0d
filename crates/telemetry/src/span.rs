//! The span tracer: scoped enter/exit guards recording monotonic host
//! time, buffered per thread and drained into a global collector.
//!
//! Design points:
//!
//! - **Off by default, near-zero cost when off.** [`span`] checks one
//!   relaxed atomic and returns an inert guard without reading the clock
//!   when tracing is disabled, so instrumented builds stay bit-identical
//!   and effectively free. Tracing is enabled by `MEDSPLIT_TRACE=1` in
//!   the environment (resolved lazily, once) or programmatically with
//!   [`set_enabled`] (tests, the smoke harness).
//! - **Thread-local buffering.** Each thread pushes finished spans into
//!   its own buffer, registered with a global collector on first use.
//!   The hot path never touches a shared lock (the per-thread mutex is
//!   only ever contended by [`drain_spans`]), so worker-pool kernels can
//!   emit spans without serialising on each other.
//! - **Nesting by guard scope.** The thread-local current-span cell makes
//!   every span a child of the span whose guard encloses it on the same
//!   thread; guards restore the parent on drop, including during
//!   unwinding. Work handed to another thread carries its parent along
//!   explicitly: [`SpanParent::capture`] on the handing thread,
//!   [`SpanParent::adopt`] on the running one.
//! - **Passive observation only.** Spans read clocks and write buffers;
//!   they never touch RNGs, model state, or the simulated network, which
//!   is what makes the on/off determinism guarantee trivial to uphold.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

const UNRESOLVED: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

/// Tri-state enable flag: unresolved until the first check reads the
/// `MEDSPLIT_TRACE` environment variable.
static ENABLED: AtomicU8 = AtomicU8::new(UNRESOLVED);

/// Monotone span-id source (0 is never handed out, so parent ids can use
/// 0 as "none" on the wire).
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Monotone thread-id source for trace output (dense small integers, not
/// OS thread ids).
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

/// The instant all span timestamps are relative to (first enabled use).
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Whether tracing is currently enabled.
///
/// Resolved from `MEDSPLIT_TRACE` (truthy values: `1`, `true`, `on`) on
/// first call; [`set_enabled`] overrides it at any time.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => resolve_from_env(),
    }
}

#[cold]
fn resolve_from_env() -> bool {
    let on = std::env::var("MEDSPLIT_TRACE")
        .map(|v| {
            let v = v.trim();
            v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on")
        })
        .unwrap_or(false);
    ENABLED.store(if on { ON } else { OFF }, Ordering::Relaxed);
    on
}

/// Turns tracing on or off for the whole process (overrides the
/// environment). Spans already buffered are kept.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// One finished span, as recorded (and as parsed back from JSONL).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (a small fixed taxonomy: `round`, `l1_forward`, ...).
    pub name: String,
    /// Dense trace-local thread id.
    pub tid: u64,
    /// Unique span id (process-wide).
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Start time in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (monotonic host time).
    pub dur_ns: u64,
    /// Optional protocol-round annotation.
    pub round: Option<u64>,
    /// Optional simulated-clock annotation in seconds.
    pub sim_s: Option<f64>,
}

/// A per-thread span buffer registered with the global collector.
struct ThreadBuf {
    tid: u64,
    records: Mutex<Vec<SpanRecord>>,
}

fn collector() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static COLLECTOR: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    /// This thread's buffer; registered with the collector on first span.
    static LOCAL: Arc<ThreadBuf> = {
        let buf = Arc::new(ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            records: Mutex::new(Vec::new()),
        });
        collector().lock().expect("collector poisoned").push(Arc::clone(&buf));
        buf
    };

    /// Innermost live span on this thread (the parent of new spans).
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Live data of an active span guard.
struct ActiveSpan {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    start: Instant,
    round: Option<u64>,
    sim_s: Option<f64>,
}

/// RAII guard: the span runs from construction to drop. Inert (`None`)
/// when tracing is disabled at construction time.
pub struct SpanGuard {
    inner: Option<ActiveSpan>,
}

/// Enters a span. The returned guard records the span when dropped;
/// bind it (`let _span = ...`) so it lives to the end of the scope.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { inner: None };
    }
    enter(name, None)
}

/// Enters a span annotated with a protocol round index.
#[inline]
pub fn span_round(name: &'static str, round: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard { inner: None };
    }
    enter(name, Some(round))
}

fn enter(name: &'static str, round: Option<u64>) -> SpanGuard {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(Some(id)));
    // Touch the epoch before reading `start` so `start >= epoch` holds.
    let _ = epoch();
    SpanGuard {
        inner: Some(ActiveSpan {
            name,
            id,
            parent,
            start: Instant::now(),
            round,
            sim_s: None,
        }),
    }
}

impl SpanGuard {
    /// Annotates the span with a simulated-clock reading (seconds).
    pub fn set_sim_s(&mut self, sim_s: f64) {
        if let Some(a) = &mut self.inner {
            a.sim_s = Some(sim_s);
        }
    }

    /// Whether this guard is actually recording.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.inner.take() else { return };
        let dur_ns = a.start.elapsed().as_nanos() as u64;
        let start_ns = a.start.saturating_duration_since(epoch()).as_nanos() as u64;
        CURRENT.with(|c| c.set(a.parent));
        LOCAL.with(|buf| {
            buf.records
                .lock()
                .expect("span buffer poisoned")
                .push(SpanRecord {
                    name: a.name.to_owned(),
                    tid: buf.tid,
                    id: a.id,
                    parent: a.parent,
                    start_ns,
                    dur_ns,
                    round: a.round,
                    sim_s: a.sim_s,
                });
        });
    }
}

/// The calling thread's innermost live span, captured so that work it
/// hands to another thread can nest under it: [`capture`](Self::capture)
/// on the thread that owns the span, [`adopt`](Self::adopt) on the
/// thread that runs the work. Without it a span entered on a pool
/// worker has no parent, and whatever resolves spans through their
/// parents (self time, per-round attribution) loses it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanParent(Option<u64>);

impl SpanParent {
    /// The calling thread's current span; no parent when tracing is off.
    #[inline]
    pub fn capture() -> Self {
        if !enabled() {
            return SpanParent(None);
        }
        SpanParent(CURRENT.with(Cell::get))
    }

    /// Makes the captured span this thread's current one until the
    /// returned guard drops, which restores what was current before.
    #[inline]
    pub fn adopt(self) -> AdoptGuard {
        AdoptGuard {
            prior: CURRENT.with(|c| c.replace(self.0)),
        }
    }
}

/// Restores the thread's previous current span on drop; see
/// [`SpanParent::adopt`].
#[must_use = "the adopted parent is current only while the guard lives"]
pub struct AdoptGuard {
    prior: Option<u64>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prior));
    }
}

/// Takes every buffered span from every thread, sorted by start time.
/// Buffers are left empty; spans still live (guards not yet dropped) are
/// not included.
pub fn drain_spans() -> Vec<SpanRecord> {
    let mut out = Vec::new();
    for buf in collector().lock().expect("collector poisoned").iter() {
        out.append(&mut buf.records.lock().expect("span buffer poisoned"));
    }
    out.sort_by_key(|r| (r.start_ns, r.id));
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Serialises tests that toggle the global enable flag.
    pub(crate) static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = LOCK.lock().unwrap();
        set_enabled(false);
        let _ = drain_spans();
        {
            let _s = span("never");
        }
        assert!(drain_spans().iter().all(|r| r.name != "never"));
    }

    #[test]
    fn nesting_links_parents_on_one_thread() {
        let _g = LOCK.lock().unwrap();
        set_enabled(true);
        let _ = drain_spans();
        {
            let _outer = span_round("t_outer", 3);
            {
                let _inner = span("t_inner");
            }
            {
                let mut second = span("t_inner2");
                second.set_sim_s(1.5);
            }
        }
        set_enabled(false);
        let spans = drain_spans();
        let outer = spans.iter().find(|r| r.name == "t_outer").unwrap();
        let inner = spans.iter().find(|r| r.name == "t_inner").unwrap();
        let inner2 = spans.iter().find(|r| r.name == "t_inner2").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner2.parent, Some(outer.id));
        assert_eq!(outer.round, Some(3));
        assert_eq!(inner2.sim_s, Some(1.5));
        assert!(outer.dur_ns >= inner.dur_ns);
        // Parent restored: a sibling after the nest has the same parent.
        assert_ne!(inner.id, inner2.id);
    }

    #[test]
    fn spans_from_other_threads_have_own_tid_and_no_cross_parent() {
        let _g = LOCK.lock().unwrap();
        set_enabled(true);
        let _ = drain_spans();
        let main_tid = {
            let _s = span("t_main");
            drop(_s);
            drain_spans().pop().unwrap().tid
        };
        let handle = std::thread::spawn(|| {
            let _outer = span("t_worker_outer");
            let _inner = span("t_worker_inner");
        });
        handle.join().unwrap();
        set_enabled(false);
        let spans = drain_spans();
        let outer = spans.iter().find(|r| r.name == "t_worker_outer").unwrap();
        let inner = spans.iter().find(|r| r.name == "t_worker_inner").unwrap();
        assert_ne!(outer.tid, main_tid, "worker thread gets its own tid");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None, "no cross-thread parenting");
    }

    #[test]
    fn adopted_parent_links_spans_across_threads() {
        let _g = LOCK.lock().unwrap();
        set_enabled(true);
        let _ = drain_spans();
        {
            let _round = span_round("t_xround", 5);
            let parent = SpanParent::capture();
            std::thread::scope(|s| {
                s.spawn(|| {
                    {
                        let _adopted = parent.adopt();
                        let _step = span("t_xstep");
                    }
                    // The guard restored the worker's own (empty) nesting.
                    let _after = span("t_xafter");
                });
            });
        }
        set_enabled(false);
        let spans = drain_spans();
        let round = spans.iter().find(|r| r.name == "t_xround").unwrap();
        let step = spans.iter().find(|r| r.name == "t_xstep").unwrap();
        let after = spans.iter().find(|r| r.name == "t_xafter").unwrap();
        assert_ne!(step.tid, round.tid, "the step ran on another thread");
        assert_eq!(step.parent, Some(round.id));
        assert_eq!(after.parent, None);
        // Tracing off: nothing is captured.
        assert_eq!(SpanParent::capture(), SpanParent::default());
    }
}
