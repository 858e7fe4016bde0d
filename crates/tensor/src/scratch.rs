//! Reusable, thread-local scratch buffers for the hot kernels.
//!
//! The im2col/col2im convolution path and the packed GEMM kernels need
//! large temporary `f32` buffers (`[C*KH*KW, OH*OW]` column matrices,
//! microkernel-order packing panels). Allocating them fresh every call
//! dominated the allocator profile of a training round, so they are drawn
//! from a grow-only, thread-local arena instead: after one warm-up step
//! over a given model, steady-state training and inference perform
//! **zero** scratch heap allocations — a property the test suite asserts
//! via [`stats`]. A warm-up must touch *every* pool worker's arena to
//! count; [`crate::pool::warmup`] broadcasts a closure across the whole
//! pool for exactly that purpose. Without one, a worker's arena settles
//! at its first task: a buffer that has to grow grows to the largest
//! size any thread has asked for so far, not just to the size at hand.
//!
//! Buffers are **64-byte aligned** (cache line, and comfortably above the
//! 32-byte AVX2 requirement) so the SIMD microkernels can use aligned
//! vector loads on packed panels. The arena is a LIFO stack of buffers
//! per thread. Nested acquisitions (a conv task holding its column buffer
//! while the inner GEMM grabs a pack buffer) release in reverse order, so
//! each nesting level keeps hitting the same cached buffer and sizes
//! stabilise after warm-up. Buffers hand out **uninitialised-looking**
//! contents (stale data from prior uses, zero on first allocation); every
//! kernel here fully overwrites or explicitly zeroes what it reads.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::cell::RefCell;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Alignment of every arena buffer, in bytes.
pub const ALIGN: usize = 64;

/// Number of buffer-growth events (heap allocations) since process start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Total bytes ever requested from the allocator by the arena.
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
/// Number of `with_f32` acquisitions since process start.
static ACQUISITIONS: AtomicU64 = AtomicU64::new(0);
/// Largest length any thread has requested. A buffer that must grow
/// grows straight to it: a pool worker joins whichever jobs it reaches in
/// time, so without this its arena would grow once per kernel shape it
/// happens to meet, long after the dispatching thread's has settled.
static HIGH_WATER: AtomicUsize = AtomicUsize::new(0);

/// A 64-byte-aligned, grow-only `f32` allocation. Contents beyond what a
/// caller last wrote are arbitrary (zero on first allocation).
struct AlignedBuf {
    ptr: NonNull<f32>,
    /// Capacity in `f32` elements (0 for the empty sentinel).
    cap: usize,
}

impl AlignedBuf {
    const fn empty() -> Self {
        AlignedBuf {
            ptr: NonNull::dangling(),
            cap: 0,
        }
    }

    fn layout(cap: usize) -> Layout {
        Layout::from_size_align(cap * std::mem::size_of::<f32>(), ALIGN).expect("scratch buffer layout")
    }

    /// Grows the buffer to at least `len` elements. Contents are not
    /// preserved (the arena contract hands out arbitrary contents), so
    /// growth is a fresh zeroed allocation plus a free — zeroing keeps
    /// the handed-out memory initialised without a per-acquisition cost.
    fn ensure(&mut self, len: usize) {
        if self.cap >= len {
            return;
        }
        let len = HIGH_WATER.fetch_max(len, Ordering::Relaxed).max(len);
        let layout = Self::layout(len);
        // SAFETY: `len > 0` here (cap >= 0 and cap < len), so the layout
        // has non-zero size as `alloc_zeroed` requires.
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<f32>()) else {
            handle_alloc_error(layout)
        };
        if self.cap > 0 {
            // SAFETY: `self.ptr` came from `alloc_zeroed` with the layout
            // of the old capacity and has not been freed.
            unsafe { dealloc(self.ptr.as_ptr().cast(), Self::layout(self.cap)) };
        }
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(
            ((len - self.cap) * std::mem::size_of::<f32>()) as u64,
            Ordering::Relaxed,
        );
        self.ptr = ptr;
        self.cap = len;
        medsplit_telemetry::gauge_set(
            "scratch.allocated_bytes",
            ALLOCATED_BYTES.load(Ordering::Relaxed) as f64,
        );
    }

    /// Views the first `len` elements mutably.
    ///
    /// # Safety
    ///
    /// `len <= self.cap`, and the caller must be the unique owner of the
    /// buffer for the borrow's duration (guaranteed by popping it off the
    /// thread-local free list).
    unsafe fn slice_mut(&mut self, len: usize) -> &mut [f32] {
        debug_assert!(len <= self.cap);
        std::slice::from_raw_parts_mut(self.ptr.as_ptr(), len)
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        if self.cap > 0 {
            // SAFETY: allocated by `ensure` with this exact layout.
            unsafe { dealloc(self.ptr.as_ptr().cast(), Self::layout(self.cap)) };
        }
    }
}

thread_local! {
    /// LIFO stack of free buffers for this thread.
    static FREE: RefCell<Vec<AlignedBuf>> = const { RefCell::new(Vec::new()) };
}

/// A point-in-time snapshot of the arena's global counters (summed over
/// all threads, monotonically non-decreasing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScratchStats {
    /// Buffer-growth events: how often an acquisition had to touch the
    /// heap because no cached buffer was large enough.
    pub allocations: u64,
    /// Total bytes those growth events requested.
    pub allocated_bytes: u64,
    /// Total number of buffer acquisitions.
    pub acquisitions: u64,
}

/// Reads the arena counters. Subtract two snapshots to measure the
/// allocation behaviour of a region of code (e.g. "zero allocations per
/// training step after warm-up").
pub fn stats() -> ScratchStats {
    ScratchStats {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        allocated_bytes: ALLOCATED_BYTES.load(Ordering::Relaxed),
        acquisitions: ACQUISITIONS.load(Ordering::Relaxed),
    }
}

/// Runs `body` with a 64-byte-aligned scratch `&mut [f32]` of exactly
/// `len` elements.
///
/// Contents are arbitrary (zero on first allocation, stale afterwards);
/// the caller must fully initialise whatever it reads. Buffers are
/// recycled LIFO per thread and only ever grow, so steady-state call
/// patterns allocate nothing.
pub fn with_f32<R>(len: usize, body: impl FnOnce(&mut [f32]) -> R) -> R {
    ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
    let mut buf = FREE
        .with(|free| free.borrow_mut().pop())
        .unwrap_or_else(AlignedBuf::empty);
    buf.ensure(len);
    // SAFETY: `ensure` made `cap >= len`, and the buffer is off the free
    // list so this borrow is unique.
    let result = body(unsafe { buf.slice_mut(len) });
    FREE.with(|free| free.borrow_mut().push(buf));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// This thread's free list: where each buffer lives and how big it is.
    fn arena() -> Vec<(NonNull<f32>, usize)> {
        FREE.with(|free| free.borrow().iter().map(|buf| (buf.ptr, buf.cap)).collect())
    }

    #[test]
    fn buffers_are_reused_after_warmup() {
        // Warm up with the largest size used below.
        with_f32(4096, |b| b.fill(1.0));
        let (before, warm) = (stats(), arena());
        for _ in 0..10 {
            with_f32(4096, |b| {
                b[0] = 2.0;
            });
            with_f32(100, |b| {
                b[99] = 3.0;
            });
        }
        // Each acquisition pops the one cached buffer and pushes it back,
        // so this thread's arena holds the same buffer at the same size.
        // Other tests use the arena on parallel threads, so the
        // process-wide counters can only be bounded from below here.
        assert_eq!(arena(), warm, "unexpected scratch growth");
        assert!(stats().acquisitions - before.acquisitions >= 20);
    }

    #[test]
    fn a_late_thread_sizes_its_arena_once() {
        with_f32(50_000, |b| b[0] = 1.0);
        std::thread::spawn(|| {
            // The new thread's first, small request grows to the largest
            // size the process has seen, so the large one that follows
            // finds the buffer already big enough.
            with_f32(10, |b| b[0] = 1.0);
            let grown = FREE.with(|free| free.borrow().last().map_or(0, |buf| buf.cap));
            assert!(grown >= 50_000, "first growth stopped at {grown}");
            with_f32(50_000, |b| b[0] = 1.0);
            let after = FREE.with(|free| free.borrow().last().map_or(0, |buf| buf.cap));
            assert_eq!(after, grown, "the arena grew a second time");
        })
        .join()
        .expect("late thread");
    }

    #[test]
    fn nested_acquisitions_get_distinct_buffers() {
        with_f32(64, |outer| {
            outer.fill(7.0);
            with_f32(64, |inner| {
                inner.fill(9.0);
            });
            // The inner buffer must not have aliased the outer one.
            assert!(outer.iter().all(|&v| v == 7.0));
        });
    }

    #[test]
    fn requested_length_is_exact() {
        with_f32(3, |b| assert_eq!(b.len(), 3));
        with_f32(1000, |b| assert_eq!(b.len(), 1000));
        with_f32(0, |b| assert!(b.is_empty()));
    }

    #[test]
    fn buffers_are_simd_aligned() {
        for len in [1usize, 7, 64, 1000, 4096] {
            with_f32(len, |b| {
                assert_eq!(
                    b.as_ptr() as usize % ALIGN,
                    0,
                    "scratch buffer of {len} not {ALIGN}-byte aligned"
                );
            });
        }
    }

    #[test]
    fn fresh_allocations_are_zeroed() {
        // A size larger than anything else on this thread forces a growth
        // event, which reallocates the whole buffer; the contract promises
        // the fresh allocation is zeroed, not garbage.
        with_f32(1 << 20, |b| {
            assert!(b.iter().all(|&v| v == 0.0));
        });
    }
}
