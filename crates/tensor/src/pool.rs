//! Persistent worker pool for data-parallel kernels.
//!
//! All parallel tensor kernels (GEMM row-panels, conv/pool batch axes,
//! large elementwise ops) funnel through [`parallel_for`], which fans a
//! task range out over a process-wide pool of persistent worker threads.
//! The rule the dispatch is built around: turning the pool on must never
//! be slower than leaving it off, so the caller never waits for a thread
//! that is not holding one of its tasks.
//!
//! - **Sizing.** The pool size is `MEDSPLIT_THREADS` if set (clamped to
//!   `1..=64`), otherwise [`std::thread::available_parallelism`]. It can
//!   be changed at runtime with [`set_num_threads`] (the benchmark
//!   harness sweeps it); workers are spawned lazily, so a process that
//!   never runs with more than one thread never spawns any.
//! - **Deterministic decomposition.** Task *decomposition* is chosen by
//!   the kernels from shapes alone (fixed panel/chunk sizes), never from
//!   the thread count, and tasks write disjoint output regions — so
//!   results are bit-identical across any `MEDSPLIT_THREADS` value.
//!   Everything below decides only *who executes* a task.
//! - **Job slot and epoch.** The pool holds one job at a time in a
//!   static slot: the task closure plus one atomic *claim word* packing
//!   `next` (first unclaimed task), `total`, and the number of helper
//!   slots left. The dispatcher fills the slot, bumps an epoch counter
//!   and claims tasks itself. Idle workers poll the epoch for a bounded
//!   spin ([`SPIN_ROUNDS`], yielding every [`YIELD_EVERY`] rounds) and
//!   then park on a condvar, so back-to-back kernels inside one
//!   forward/backward pass find a hot worker while an idle process stops
//!   using CPU. The dispatcher pays a condvar wake only when fewer
//!   workers are awake than the job admits; `parked` and `epoch` are
//!   `SeqCst`, so either the dispatcher sees the parked worker or the
//!   worker sees the new epoch before it sleeps.
//! - **Completion by task count.** Every participant adds the number of
//!   tasks it ran to `completed`; the dispatcher returns when that
//!   reaches `total`. It never waits for a worker that claimed nothing,
//!   so a helper still asleep costs the caller nothing.
//! - **Helper slots.** A worker joins a job by one compare-and-swap on
//!   the claim word that takes a helper slot *and* its first task
//!   together. A job starts with `num_threads() - 1` slots, so the
//!   logical size is honoured even when more workers were spawned
//!   earlier; a worker that gets no slot keeps its idle count and parks.
//! - **Busy pool ⇒ inline.** The slot is owned through `try_lock`: a
//!   second thread dispatching at the same time (the serving runtime's
//!   node threads, parallel tests) runs its range inline rather than
//!   queueing behind another thread's kernel. A task that itself calls
//!   [`parallel_for`] runs the inner range inline too, which avoids
//!   deadlock and oversubscription while still parallelising whichever
//!   level is outermost.
//! - **Shape gating.** Kernels pass a work estimate computed from shapes
//!   alone (multiply-accumulates for GEMM/conv, elements for packing,
//!   pooling and elementwise ops). Below [`MIN_PAR_WORK`] the range runs
//!   inline: a hot hand-off costs a few cache-line transfers (about 1 µs
//!   on the 2-vCPU reference host, 11–14 µs when a parked worker must be
//!   woken — `kernel_bench`'s `dispatch` rows). With the gate off, two
//!   threads only break even with one on a GEMM of 2¹⁸ MACs (≈ 14 µs of
//!   single-thread work, and slower whenever the worker had parked); at
//!   2¹⁹ every kernel family is at least 1.2× faster, so that is the gate.
//!
//! Safety: the task closure reference is lifetime-erased to sit in the
//! static slot. A thread dereferences it only while it holds a claimed
//! task index `< total` that it has not yet added to `completed`, and
//! the dispatcher neither returns nor unwinds (drop guard) before
//! `completed == total` — so every dereference happens while the
//! dispatcher's frame, and the closure in it, is alive. A worker that
//! wakes late finds `next >= total` (or the next job, whose dispatcher is
//! equally pinned) and never touches the stale reference. `next`, `total`
//! and the slots share one atomic word precisely so that no claim can mix
//! fields of two jobs.

use std::cell::{Cell, UnsafeCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Condvar, Mutex, MutexGuard, TryLockError};

/// Hard cap on the pool size; far above any host this targets.
const MAX_THREADS: usize = 64;

/// Work estimate (multiply-accumulates, or elements touched) below which
/// a kernel's range runs inline on the caller. One constant for every
/// kernel; see the module docs for how it was chosen.
const MIN_PAR_WORK: usize = 1 << 19;

/// Epoch polls an idle worker makes before it parks.
const SPIN_ROUNDS: u32 = 1 << 12;

/// Every this many polls a waiting thread yields its time slice instead
/// of pausing, so a spinner never starves a runnable thread.
const YIELD_EVERY: u32 = 64;

/// Claim word layout: `[helper slots : 8 | total : 28 | next : 28]`.
const IDX_BITS: u32 = 28;
const IDX_MASK: u64 = (1 << IDX_BITS) - 1;
const SLOT_ONE: u64 = 1 << (2 * IDX_BITS);
/// Largest dispatchable range: each participant overshoots `next` by one
/// when it finds the range exhausted, and `next` must not carry into
/// `total`.
const MAX_TASKS: usize = IDX_MASK as usize - MAX_THREADS;

fn next_of(claim: u64) -> usize {
    (claim & IDX_MASK) as usize
}

fn total_of(claim: u64) -> usize {
    ((claim >> IDX_BITS) & IDX_MASK) as usize
}

/// Configured thread count; 0 means "not yet resolved".
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on pool workers, and on a dispatcher while its job is in the
    /// slot, so nested `parallel_for` calls run inline.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

fn default_threads() -> usize {
    match std::env::var("MEDSPLIT_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n.min(MAX_THREADS),
        _ => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(MAX_THREADS),
    }
}

/// The number of threads parallel kernels currently target.
///
/// Resolved on first use from `MEDSPLIT_THREADS` (or the host's available
/// parallelism) and changeable afterwards with [`set_num_threads`].
pub fn num_threads() -> usize {
    let n = CONFIGURED.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    let d = default_threads();
    // Racing initialisers all compute the same value, so a plain CAS is
    // enough; whoever loses just rereads.
    let _ = CONFIGURED.compare_exchange(0, d, Ordering::Relaxed, Ordering::Relaxed);
    CONFIGURED.load(Ordering::Relaxed)
}

/// Overrides the target thread count (clamped to `1..=64`).
///
/// Takes effect on the next [`parallel_for`] call; existing workers are
/// kept (they park within the spin budget), new ones are spawned on
/// demand.
pub fn set_num_threads(n: usize) {
    CONFIGURED.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

type Task<'a> = dyn Fn(usize) + Sync + 'a;

struct Pool {
    /// Owned by the one dispatcher whose job is in the slot; also
    /// serialises worker spawning.
    slot: Mutex<()>,
    /// The current job's closure. Written by the slot owner before it
    /// publishes `claim`; read only by a thread holding a claimed task.
    task: UnsafeCell<Option<&'static Task<'static>>>,
    /// `next`/`total`/helper slots of the current job. The owner's
    /// `Release` store publishes `task`; claims are `AcqRel`.
    claim: AtomicU64,
    /// Tasks finished in the current job: `Release` adds by participants,
    /// `Acquire` loads by the owner (which makes task writes visible).
    completed: AtomicUsize,
    panicked: AtomicBool,
    /// Bumped once per published job; what idle workers watch.
    epoch: AtomicUsize,
    /// Workers currently blocked (or about to block) on `wake`.
    parked: AtomicUsize,
    park: Mutex<()>,
    wake: Condvar,
    /// Workers spawned so far; written only under `slot`.
    spawned: AtomicUsize,
}

// SAFETY: `task` is the only non-`Sync` field. It is written only by the
// thread holding `slot`, while no thread holds an unfinished claim, and
// read only by threads holding one; the `claim`/`completed` orderings
// above order those accesses. The stored reference is `Sync` itself.
unsafe impl Sync for Pool {}

static POOL: Pool = Pool {
    slot: Mutex::new(()),
    task: UnsafeCell::new(None),
    claim: AtomicU64::new(0),
    completed: AtomicUsize::new(0),
    panicked: AtomicBool::new(false),
    epoch: AtomicUsize::new(0),
    parked: AtomicUsize::new(0),
    park: Mutex::new(()),
    wake: Condvar::new(),
    spawned: AtomicUsize::new(0),
};

/// Spawns workers up to `want`. Caller holds `POOL.slot`.
fn ensure_workers(want: usize) {
    let mut spawned = POOL.spawned.load(Ordering::Relaxed);
    while spawned < want {
        std::thread::Builder::new()
            .name(format!("medsplit-worker-{spawned}"))
            .spawn(worker_main)
            .expect("failed to spawn pool worker");
        spawned += 1;
        POOL.spawned.store(spawned, Ordering::Relaxed);
    }
}

fn worker_main() {
    IN_JOB.with(|f| f.set(true));
    let p = &POOL;
    let mut seen = 0;
    let mut idle = 0u32;
    loop {
        let epoch = p.epoch.load(Ordering::SeqCst);
        if epoch != seen {
            seen = epoch;
            // Only a worker that got a helper slot earns a fresh spin
            // budget; surplus workers run theirs down and park.
            if run_tasks(true) {
                idle = 0;
            }
            continue;
        }
        idle += 1;
        if idle < SPIN_ROUNDS {
            pause(idle);
            continue;
        }
        let mut guard = p.park.lock().expect("pool park lock poisoned");
        p.parked.fetch_add(1, Ordering::SeqCst);
        while p.epoch.load(Ordering::SeqCst) == seen {
            guard = p.wake.wait(guard).expect("pool park lock poisoned");
        }
        p.parked.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
        idle = 0;
    }
}

/// One round of a bounded wait: a CPU pause, or every [`YIELD_EVERY`]th
/// round a yield to the scheduler.
fn pause(round: u32) {
    if round.is_multiple_of(YIELD_EVERY) {
        std::thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

/// Claims and runs tasks of the current job until the range is
/// exhausted. A helper's first claim also takes one of the job's helper
/// slots; returns whether the thread was admitted.
fn run_tasks(helper: bool) -> bool {
    let p = &POOL;
    let first = if helper {
        p.claim.fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| {
            (c >= SLOT_ONE && next_of(c) < total_of(c)).then(|| c + 1 - SLOT_ONE)
        })
    } else {
        Ok(p.claim.fetch_add(1, Ordering::AcqRel))
    };
    let Ok(mut claim) = first else {
        return false;
    };
    let mut done = 0;
    while next_of(claim) < total_of(claim) {
        // SAFETY: this thread holds task `next_of(claim)` of the job in
        // the slot and has not reported it, so the job cannot complete
        // and its dispatcher cannot have returned: the reference is live
        // (module docs). The `Acquire` claim synchronises with the
        // dispatcher's `Release` store, which follows the write of `task`.
        let task = unsafe { (*p.task.get()).expect("claimed a task of an empty slot") };
        if catch_unwind(AssertUnwindSafe(|| task(next_of(claim)))).is_err() {
            p.panicked.store(true, Ordering::Relaxed);
        }
        done += 1;
        claim = p.claim.fetch_add(1, Ordering::AcqRel);
    }
    if done > 0 {
        p.completed.fetch_add(done, Ordering::Release);
    }
    true
}

/// Publishes `task` as a job of `total` tasks admitting `helpers`
/// workers (which must exist), runs `caller_part` on this thread, and
/// returns once every task has completed — also when `caller_part`
/// unwinds. Returns whether any task panicked. `_slot` proves the caller
/// owns the job slot.
fn run_job(
    _slot: &MutexGuard<'_, ()>,
    task: &Task<'_>,
    total: usize,
    helpers: usize,
    caller_part: impl FnOnce(),
) -> bool {
    let p = &POOL;
    // The claim word's fields must not overflow into each other.
    assert!(total <= MAX_TASKS && helpers < MAX_THREADS);
    // SAFETY: erases the borrow's lifetime; `Pinned` below keeps this
    // frame alive until every claimed task has completed, and no thread
    // dereferences the slot without a claimed task (module docs). No
    // other thread accesses `task` now: the previous job completed and
    // this thread owns the slot.
    unsafe { *p.task.get() = Some(std::mem::transmute::<&Task<'_>, &'static Task<'static>>(task)) };
    p.completed.store(0, Ordering::Relaxed);
    p.panicked.store(false, Ordering::Relaxed);
    p.claim.store(
        (helpers as u64 * SLOT_ONE) | ((total as u64) << IDX_BITS),
        Ordering::Release,
    );

    /// Holds the dispatcher until the job completed — including during
    /// unwinding, which is what makes the lifetime erasure above sound.
    /// In place before anything after publication can panic.
    struct Pinned {
        total: usize,
        was_in_job: bool,
    }
    impl Drop for Pinned {
        fn drop(&mut self) {
            let mut round = 0u32;
            while POOL.completed.load(Ordering::Acquire) != self.total {
                round = round.wrapping_add(1);
                pause(round);
            }
            IN_JOB.with(|f| f.set(self.was_in_job));
        }
    }
    let pinned = Pinned {
        total,
        was_in_job: IN_JOB.with(|f| f.replace(true)),
    };

    p.epoch.fetch_add(1, Ordering::SeqCst);
    let parked = p.parked.load(Ordering::SeqCst);
    // Workers not parked will see the new epoch on their own; wake only
    // as many parked ones as the job still has slots for.
    let asleep_needed = helpers.saturating_sub(p.spawned.load(Ordering::Relaxed) - parked);
    if asleep_needed > 0 {
        medsplit_telemetry::counter_add("pool.wakeups", 1);
        let _guard = p.park.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if asleep_needed >= parked {
            p.wake.notify_all();
        } else {
            (0..asleep_needed).for_each(|_| p.wake.notify_one());
        }
    }
    caller_part();
    drop(pinned);
    p.panicked.load(Ordering::Relaxed)
}

/// Runs `body(0), body(1), …, body(tasks - 1)` across the pool.
///
/// Tasks may run in any order and on any thread, so the body must only
/// write state it owns (disjoint output regions); the call returns after
/// every task has finished, with all task writes visible to the caller.
/// With a target of one thread, when another thread's job occupies the
/// pool, or when called from inside another `parallel_for` task, the
/// range runs inline on the current thread in ascending order.
///
/// # Panics
///
/// Propagates a panic if any task panicked (the original payload is
/// replaced by a generic message on the multi-threaded path).
pub fn parallel_for<F: Fn(usize) + Sync>(tasks: usize, body: F) {
    parallel_for_sized(tasks, usize::MAX, body);
}

/// [`parallel_for`] with a shape-derived work estimate: below
/// [`MIN_PAR_WORK`] the range runs inline.
pub(crate) fn parallel_for_sized<F: Fn(usize) + Sync>(tasks: usize, work: usize, body: F) {
    let inline = || (0..tasks).for_each(&body);
    let threads = num_threads().min(tasks);
    if threads <= 1 || tasks > MAX_TASKS || IN_JOB.with(Cell::get) {
        return inline();
    }
    if work < MIN_PAR_WORK {
        medsplit_telemetry::counter_add("pool.inline_small", 1);
        return inline();
    }
    let slot = match POOL.slot.try_lock() {
        Ok(slot) => slot,
        Err(TryLockError::Poisoned(e)) => e.into_inner(),
        Err(TryLockError::WouldBlock) => {
            medsplit_telemetry::counter_add("pool.inline_busy", 1);
            return inline();
        }
    };
    medsplit_telemetry::counter_add("pool.jobs", 1);
    medsplit_telemetry::counter_add("pool.tasks", tasks as u64);
    medsplit_telemetry::gauge_set_max("pool.queue_depth", tasks as f64);
    ensure_workers(threads - 1);
    let panicked = run_job(&slot, &body, tasks, threads - 1, || {
        run_tasks(false);
    });
    drop(slot);
    if panicked {
        panic!("parallel_for: a task panicked");
    }
}

/// Runs `body` once on the calling thread and once on **every** spawned
/// pool worker — not just the workers the current thread target would
/// use. A barrier inside the broadcast keeps each worker pinned until
/// all of them have run the closure, which is what guarantees full
/// coverage: no worker can grab two copies while another sits idle.
///
/// This exists to warm per-thread state, above all the thread-local
/// scratch arena ([`crate::scratch`]): a job's tasks are claimed by
/// whichever workers reach it first, so a warm-up that merely runs a
/// kernel once only warms the workers that happened to win that race.
/// Benchmarks and steady-state-allocation tests call this with the
/// kernel under measurement before the timed region. Nested
/// [`parallel_for`] calls inside `body` run inline on every thread
/// (including the caller), so one broadcast of e.g. a conv forward warms
/// the full nested acquisition pattern on every arena.
pub fn warmup(f: impl Fn() + Sync) {
    let p = &POOL;
    // Unlike `parallel_for` this must reach the workers, so it waits for
    // the slot. The slot guards no data, and a job always completes
    // before its owner unwinds, so a poisoned slot is still a free slot.
    let slot = p.slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // Make sure the workers the current target implies exist, then
    // broadcast to every worker ever spawned (there may be more).
    ensure_workers(num_threads() - 1);
    let spawned = p.spawned.load(Ordering::Relaxed);
    if spawned == 0 {
        drop(slot);
        f();
        return;
    }
    let barrier = Barrier::new(spawned + 1);
    /// Reaches the barrier even if `f` panics on a worker (the panic is
    /// caught by `run_tasks`; without the guard the caller would block
    /// forever waiting for the missing arrival).
    struct ArriveGuard<'a>(&'a Barrier);
    impl Drop for ArriveGuard<'_> {
        fn drop(&mut self) {
            self.0.wait();
        }
    }
    let body = |_t: usize| {
        let _arrive = ArriveGuard(&barrier);
        f();
    };
    // One task and one helper slot per worker; the caller claims none and
    // runs `f` itself, then joins the barrier that releases the workers.
    let mut local = Ok(());
    let panicked = run_job(&slot, &body, spawned, spawned, || {
        local = catch_unwind(AssertUnwindSafe(&f));
        barrier.wait();
    });
    drop(slot);
    if let Err(payload) = local {
        std::panic::resume_unwind(payload);
    }
    if panicked {
        panic!("pool::warmup: the warm-up closure panicked on a worker");
    }
}

/// Splits `data` into fixed-size chunks and runs `body(chunk_idx, chunk)`
/// for each across the pool. The chunk size must not depend on the thread
/// count if deterministic results are wanted (every kernel here passes a
/// shape-derived constant).
///
/// # Panics
///
/// Panics if `chunk` is zero, or propagates task panics as
/// [`parallel_for`] does.
pub fn parallel_chunks_mut<T: Send, F: Fn(usize, &mut [T]) + Sync>(data: &mut [T], chunk: usize, body: F) {
    parallel_chunks_mut_sized(data, chunk, usize::MAX, body);
}

/// [`parallel_chunks_mut`] with a shape-derived work estimate, gated as
/// in [`parallel_for_sized`].
pub(crate) fn parallel_chunks_mut_sized<T: Send, F: Fn(usize, &mut [T]) + Sync>(
    data: &mut [T],
    chunk: usize,
    work: usize,
    body: F,
) {
    assert!(chunk > 0, "parallel_chunks_mut: zero chunk size");
    let len = data.len();
    let tasks = len.div_ceil(chunk);
    let raw = RawSliceMut::new(data);
    parallel_for_sized(tasks, work, |t| {
        let start = t * chunk;
        let end = (start + chunk).min(len);
        // SAFETY: tasks index disjoint `[start, end)` ranges.
        body(t, unsafe { raw.slice(start, end) });
    });
}

/// A `Send + Sync` wrapper around a mutable slice for kernels whose tasks
/// write provably disjoint index ranges (e.g. one output plane per task).
///
/// Obtaining overlapping sub-slices from concurrent tasks is undefined
/// behaviour; every use in this crate derives the ranges from the task
/// index alone.
pub(crate) struct RawSliceMut<T> {
    ptr: *mut T,
    len: usize,
}

unsafe impl<T: Send> Send for RawSliceMut<T> {}
unsafe impl<T: Send> Sync for RawSliceMut<T> {}

impl<T> RawSliceMut<T> {
    pub(crate) fn new(slice: &mut [T]) -> Self {
        RawSliceMut {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// Reborrows `[start, end)` mutably.
    ///
    /// # Safety
    ///
    /// No two live reborrows may overlap, and `start <= end <= len`.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn slice(&self, start: usize, end: usize) -> &mut [T] {
        debug_assert!(start <= end && end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), end - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that mutate the global thread count.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn inline_path_is_sequential_and_ordered() {
        let _g = LOCK.lock().unwrap();
        set_num_threads(1);
        let order = Mutex::new(Vec::new());
        parallel_for(5, |t| order.lock().unwrap().push(t));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn all_tasks_run_exactly_once_multithreaded() {
        let _g = LOCK.lock().unwrap();
        set_num_threads(4);
        let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(97, |t| {
            hits[t].fetch_add(1, Ordering::Relaxed);
        });
        set_num_threads(1);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunks_cover_slice_disjointly() {
        let _g = LOCK.lock().unwrap();
        set_num_threads(3);
        let mut data = vec![0u32; 1000];
        parallel_chunks_mut(&mut data, 64, |idx, chunk| {
            for v in chunk.iter_mut() {
                *v += 1 + idx as u32;
            }
        });
        set_num_threads(1);
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, 1 + (i / 64) as u32, "at {i}");
        }
    }

    #[test]
    fn nested_parallel_for_runs_inline() {
        let _g = LOCK.lock().unwrap();
        set_num_threads(4);
        let total = AtomicUsize::new(0);
        parallel_for(8, |_| {
            // Inner call must not deadlock and must still run all tasks.
            parallel_for(16, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        set_num_threads(1);
        assert_eq!(total.load(Ordering::Relaxed), 8 * 16);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let _g = LOCK.lock().unwrap();
        set_num_threads(2);
        let boom = catch_unwind(AssertUnwindSafe(|| {
            parallel_for(8, |t| {
                if t == 3 {
                    panic!("task boom");
                }
            });
        }));
        assert!(boom.is_err());
        // The pool still works afterwards.
        let n = AtomicUsize::new(0);
        parallel_for(8, |_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        set_num_threads(1);
        assert_eq!(n.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn warmup_covers_every_spawned_worker_and_the_caller() {
        let _g = LOCK.lock().unwrap();
        // Spawn three helpers, then shrink the logical target: warmup
        // must still reach all spawned workers, not just the target's.
        // The first warmup spawns them whatever other tests do: it waits
        // for the job slot, where a `parallel_for` that finds the slot
        // held by another test's kernel runs inline and spawns none.
        set_num_threads(4);
        warmup(|| {});
        set_num_threads(2);
        let ids = Mutex::new(std::collections::HashSet::new());
        warmup(|| {
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        set_num_threads(1);
        assert!(
            ids.lock().unwrap().len() >= 4,
            "warmup reached only {} threads",
            ids.lock().unwrap().len()
        );
    }

    #[test]
    fn warmup_runs_nested_parallel_for_inline() {
        let _g = LOCK.lock().unwrap();
        set_num_threads(2);
        parallel_for(4, |_| {});
        let total = AtomicUsize::new(0);
        // Workers are parked at the warmup barrier; a nested parallel_for
        // must run inline everywhere or this deadlocks.
        warmup(|| {
            parallel_for(4, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        set_num_threads(1);
        // Caller + at least one worker each ran all four nested tasks.
        assert!(total.load(Ordering::Relaxed) >= 8);
    }

    #[test]
    fn env_override_respects_bounds() {
        // Not touching the env here (process-global); just the clamp.
        let _g = LOCK.lock().unwrap();
        set_num_threads(0);
        assert_eq!(num_threads(), 1);
        set_num_threads(10_000);
        assert_eq!(num_threads(), MAX_THREADS);
        set_num_threads(1);
    }
}
