//! The worker pool's dispatch protocol, driven from outside the crate.
//!
//! `tensor::pool` publishes one job at a time in a static slot, counts
//! completion by tasks rather than by helpers, admits at most
//! `num_threads() - 1` helpers per job, runs a range inline when the slot
//! is taken or the kernel is small, and parks idle workers. Each of those
//! is a way to deadlock, to run a dead closure, or to burn a CPU if done
//! wrong; these tests pin them.
//!
//! `pool::set_num_threads` is process-global and the harness runs tests
//! concurrently, so every test serialises on [`POOL_LOCK`] and restores
//! one thread before releasing it. The idle-CPU test reads process-wide
//! CPU time, which is another reason nothing here may overlap.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier, Mutex, MutexGuard};
use std::time::Duration;

use medsplit::telemetry::{self, MetricSnapshot};
use medsplit_tensor::ops::conv::{conv2d_backward, conv2d_forward, Conv2dSpec};
use medsplit_tensor::{init::rng_from_seed, pool, Tensor};

static POOL_LOCK: Mutex<()> = Mutex::new(());

/// Takes the file-wide lock (a failed test must not fail the others) and
/// restores one thread when dropped.
struct Serial(#[allow(dead_code)] MutexGuard<'static, ()>);

fn serial() -> Serial {
    Serial(
        POOL_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    )
}

impl Drop for Serial {
    fn drop(&mut self) {
        pool::set_num_threads(1);
    }
}

/// Runs `body` on its own thread and fails instead of hanging if it does
/// not finish in `limit` — a dispatch deadlock must be a red test.
fn within(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(limit) {
        Ok(()) => runner.join().expect("test body panicked"),
        // The sender is dropped without a send only if `body` panicked.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("body dropped the channel"))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("pool dispatch did not finish within {limit:?}"),
    }
}

/// (a) Four threads dispatching at once: one owns the slot, the others
/// run inline; every call still fills its own stack buffer exactly.
#[test]
fn concurrent_dispatchers_get_exact_results_without_deadlock() {
    let _serial = serial();
    pool::set_num_threads(2);
    within(Duration::from_secs(120), || {
        let start = Barrier::new(4);
        std::thread::scope(|s| {
            for caller in 0..4u64 {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for call in 0..2_000u64 {
                        let mut buf = [0u64; 24];
                        pool::parallel_chunks_mut(&mut buf, 3, |chunk_idx, chunk| {
                            for (i, v) in chunk.iter_mut().enumerate() {
                                *v = caller << 32 | call << 8 | (chunk_idx * 3 + i) as u64;
                            }
                        });
                        for (i, v) in buf.iter().enumerate() {
                            assert_eq!(*v, caller << 32 | call << 8 | i as u64);
                        }
                    }
                });
            }
        });
    });
}

/// One two-task job over a buffer in a frame of its own, so consecutive
/// jobs borrow different (and, between jobs, dead) stack memory.
#[inline(never)]
fn fresh_frame_job(i: u32) -> [u32; 2] {
    let mut buf = [0u32; 2];
    pool::parallel_chunks_mut(&mut buf, 1, |t, chunk| chunk[0] = i.wrapping_add(t as u32));
    buf
}

/// (b) The late-helper case: a worker that wakes after the dispatcher
/// took both tasks and returned must not touch that job's closure. Run
/// under debug assertions (the default test profile) a stale call would
/// index a dead frame.
#[test]
fn back_to_back_jobs_over_fresh_stack_buffers_stay_sound() {
    let _serial = serial();
    pool::set_num_threads(2);
    within(Duration::from_secs(120), || {
        for i in 0..100_000u32 {
            assert_eq!(fresh_frame_job(i), [i, i.wrapping_add(1)]);
        }
    });
}

/// (c) A panicking task propagates to the dispatcher, and the slot is
/// free for the next job.
#[test]
fn panicking_task_propagates_and_the_pool_serves_the_next_job() {
    let _serial = serial();
    pool::set_num_threads(2);
    within(Duration::from_secs(60), || {
        for _ in 0..50 {
            let boom = catch_unwind(AssertUnwindSafe(|| {
                pool::parallel_for(8, |t| {
                    if t == 5 {
                        panic!("task boom");
                    }
                });
            }));
            assert!(boom.is_err(), "a task panic was swallowed");
            let ran = AtomicUsize::new(0);
            pool::parallel_for(8, |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(ran.load(Ordering::Relaxed), 8);
        }
    });
}

/// Spins for about `us` microseconds: long enough for a helper to join.
fn busy(us: u64) {
    let t = std::time::Instant::now();
    while t.elapsed() < Duration::from_micros(us) {
        std::hint::spin_loop();
    }
}

/// (d) The logical size outranks the number of workers that exist: with
/// three spawned and a target of two, one job never runs on more than
/// two threads — and the one admitted helper does take part.
#[test]
fn a_job_admits_at_most_num_threads_minus_one_helpers() {
    let _serial = serial();
    within(Duration::from_secs(120), || {
        pool::set_num_threads(4);
        let ids = Mutex::new(HashSet::new());
        pool::warmup(|| {
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        assert_eq!(ids.lock().unwrap().len(), 4, "three helpers should exist");

        pool::set_num_threads(2);
        let mut widest = 0;
        for _ in 0..400 {
            let ids = Mutex::new(HashSet::new());
            pool::parallel_for(32, |_| {
                ids.lock().unwrap().insert(std::thread::current().id());
                busy(10);
            });
            let width = ids.lock().unwrap().len();
            assert!(width <= 2, "{width} threads ran a job of a 2-thread pool");
            widest = widest.max(width);
        }
        assert_eq!(widest, 2, "no helper ever joined: the test observed nothing");
    });
}

/// CPU time (user + system) of this process so far, in clock ticks.
#[cfg(target_os = "linux")]
fn process_cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |field: usize| fields[field - 3].parse::<u64>().expect("cpu ticks");
    tick(14) + tick(15)
}

/// (e) Workers park: once the process has been idle for longer than the
/// spin budget it stops using CPU. A worker that never parked would burn
/// the whole 200 ms window (20 ticks at the 100 Hz every Linux reports
/// `/proc/self/stat` in); under 10 ms is at most one tick boundary.
#[cfg(target_os = "linux")]
#[test]
fn idle_workers_park_and_stop_using_cpu() {
    let _serial = serial();
    pool::set_num_threads(4);
    pool::warmup(|| {});
    for _ in 0..100 {
        pool::parallel_for(16, |_| busy(5));
    }
    std::thread::sleep(Duration::from_millis(50));
    let before = process_cpu_ticks();
    std::thread::sleep(Duration::from_millis(200));
    let used = process_cpu_ticks() - before;
    assert!(
        used <= 1,
        "an idle process used {used} CPU ticks in 200 ms: workers are spinning"
    );
}

fn counter(name: &str) -> u64 {
    telemetry::snapshot_metrics()
        .iter()
        .find_map(|m| match m {
            MetricSnapshot::Counter { name: n, value } if n == name => Some(*value),
            _ => None,
        })
        .unwrap_or(0)
}

/// Runs `kernel` at 1, 2 and 4 threads, asserts all results are equal to
/// the bit, and returns how many pool jobs the 2-thread run dispatched.
fn bit_equal_across_threads<R: PartialEq + std::fmt::Debug>(kernel: impl Fn() -> R) -> u64 {
    pool::set_num_threads(1);
    let reference = kernel();
    let mut jobs_at_two = 0;
    for threads in [2, 4] {
        pool::set_num_threads(threads);
        let before = counter("pool.jobs");
        assert_eq!(kernel(), reference, "result changed at {threads} threads");
        if threads == 2 {
            jobs_at_two = counter("pool.jobs") - before;
        }
    }
    jobs_at_two
}

/// (f) The shape gate decides who executes, never what is computed: a
/// GEMM and a conv on either side of the gating constant (2^19
/// multiply-accumulates) are bit-equal at every thread count, and the
/// pool counters show the small one ran inline and the large one did not.
#[test]
fn kernels_either_side_of_the_work_gate_are_bit_equal_across_threads() {
    let _serial = serial();
    telemetry::set_enabled(true);
    let mut rng = rng_from_seed(12);

    // 128 rows are two 66-row panels; 128·128·n MACs is 507 904 at n = 31
    // and 524 288 = 2^19 at n = 32.
    let a = Tensor::rand_uniform([128, 128], -1.0, 1.0, &mut rng);
    for (n, dispatched) in [(31, false), (32, true)] {
        let b = Tensor::rand_uniform([128, n], -1.0, 1.0, &mut rng);
        let small_before = counter("pool.inline_small");
        let jobs = bit_equal_across_threads(|| a.matmul(&b).unwrap().as_slice().to_vec());
        assert_eq!(jobs > 0, dispatched, "gemm 128x128x{n} dispatched {jobs} jobs");
        assert!(dispatched || counter("pool.inline_small") > small_before);
    }

    // 8 images (two backward chunks of 4), 4->o channels, 3x3 over 16x16:
    // forward is 8·o·36·256 = 73 728·o MACs, so gated up to o = 7 and
    // dispatched at o = 8; backward is twice that, gated up to o = 3.
    let spec = Conv2dSpec::square(3, 1, 1);
    let x = Tensor::rand_uniform([8, 4, 16, 16], -1.0, 1.0, &mut rng);
    for o in [3, 4, 7, 8] {
        let w = Tensor::rand_uniform([o, 4, 3, 3], -0.5, 0.5, &mut rng);
        let g = Tensor::rand_uniform([8, o, 16, 16], -1.0, 1.0, &mut rng);
        let jobs =
            bit_equal_across_threads(|| conv2d_forward(&x, &w, None, spec).unwrap().as_slice().to_vec());
        assert_eq!(jobs > 0, o >= 8, "conv forward o={o} dispatched {jobs} jobs");
        let jobs = bit_equal_across_threads(|| {
            let (gx, gw, gb) = conv2d_backward(&x, &w, &g, spec).unwrap();
            [gx.as_slice(), gw.as_slice(), gb.as_slice()].concat()
        });
        assert_eq!(jobs > 0, o >= 4, "conv backward o={o} dispatched {jobs} jobs");
    }
    telemetry::set_enabled(false);
}
