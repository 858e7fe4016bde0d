//! Cached execution plans: prepacked weight panels + blocking choices.
//!
//! Every GEMM call packs its operands into microkernel order before
//! computing. For activations that is unavoidable — they change every
//! call — but weights are identical across calls until an optimizer
//! update touches them, and both the split trainer and the serve/fleet
//! paths were re-packing the same weight matrices on every forward.
//! A *plan* hoists that work out of the hot path:
//!
//! - [`GemmPlan`] owns the dense layer's weight packed in the forward
//!   (`y = x·Wᵀ`) orientation, plus — built lazily on first backward, so
//!   eval/serve never pays for it — the backward (`dx = g·W`)
//!   orientation.
//! - [`ConvPlan`] owns the filter matrix packed as microkernel A-panels
//!   for the forward conv GEMM, the lazily-built transposed panels for
//!   the input-gradient GEMM, and the cached im2col geometry shared by
//!   forward and backward (shapes are computed once, not re-derived).
//!
//! All panel stores are 64-byte aligned and immutable after packing, so
//! they are shared read-only across row panels and pool threads. A plan
//! carries the *generation* of the weight it packed; layers compare it
//! against the parameter's version counter and repack only when an
//! optimizer update (or a snapshot restore) actually touched the weight
//! — training repacks at most once per step, eval never repacks after
//! warmup. Cache traffic is observable through [`stats`] and the
//! `plan.cache_hits` / `plan.cache_misses` / `plan.invalidations`
//! counters plus the `plan.pack_bytes` gauge.
//!
//! Blocking parameters (`kc`, parallel `row_block`) are chosen per call
//! shape by [`choose_blocking`] — a tiny deterministic autotuner (a pure
//! cost model over the shape, no timing, so picks are reproducible);
//! every pick is recorded and exported by `kernel_bench` into
//! `BENCH_kernels.json`. None of these choices affect results: each
//! output element always streams the full depth range in ascending order
//! through the same fused kernel (see [`crate::ops::matmul`]), so
//! planned and unplanned execution are **bit-identical** across ISAs,
//! thread counts, and blocking picks.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::collections::BTreeMap;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::error::{Result, TensorError};
use crate::ops::conv::Conv2dSpec;
use crate::ops::matmul::{self, PanelsA};
use crate::ops::microkernel::{self, MR, NR};
use crate::pool;
use crate::tensor::Tensor;

// Panel stores pack at a process-global [`WeightPrecision`]: `f32`
// (default) or binary16 (`MEDSPLIT_WEIGHT_PREC=f16`), which halves
// resident panel bytes and B-panel bandwidth while accumulating in f32
// through the f16-storage microkernel family. Plans record the precision
// they packed at; `ensure` treats a precision switch like a weight
// update (invalidate + repack), so a steady-state process still never
// repacks after warmup.

/// Alignment of plan panel stores, matching the scratch arena.
const ALIGN: usize = 64;

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static INVALIDATIONS: AtomicU64 = AtomicU64::new(0);
static PACKS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently resident in plan panel stores (gauge, not a counter).
static PACK_BYTES: AtomicU64 = AtomicU64::new(0);

fn note_hit() {
    HITS.fetch_add(1, Ordering::Relaxed);
    medsplit_telemetry::counter_add("plan.cache_hits", 1);
}

fn note_miss() {
    MISSES.fetch_add(1, Ordering::Relaxed);
    medsplit_telemetry::counter_add("plan.cache_misses", 1);
}

fn note_invalidation() {
    INVALIDATIONS.fetch_add(1, Ordering::Relaxed);
    medsplit_telemetry::counter_add("plan.invalidations", 1);
}

fn note_pack(bytes: u64) {
    PACKS.fetch_add(1, Ordering::Relaxed);
    let live = PACK_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    medsplit_telemetry::gauge_set("plan.pack_bytes", live as f64);
}

fn note_release(bytes: u64) {
    let live = PACK_BYTES.fetch_sub(bytes, Ordering::Relaxed) - bytes;
    medsplit_telemetry::gauge_set("plan.pack_bytes", live as f64);
}

/// A point-in-time snapshot of the global plan-cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStats {
    /// Forward/backward calls that reused a current plan.
    pub hits: u64,
    /// Plan builds for a parameter that had no plan yet (warmup).
    pub misses: u64,
    /// Plan rebuilds because the weight's version moved past the plan's
    /// generation (one per touched parameter per optimizer step).
    pub invalidations: u64,
    /// Panel-pack events (every miss/invalidation packs at least once;
    /// lazy backward orientations pack on first use). Subtract two
    /// snapshots to measure repacks over a region of code.
    pub packs: u64,
    /// Bytes currently held by live plan panel stores.
    pub pack_bytes: u64,
}

/// Reads the plan-cache counters; subtract two snapshots to measure the
/// packing behaviour of a region (e.g. "zero repacks per eval step").
pub fn stats() -> PlanStats {
    PlanStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        invalidations: INVALIDATIONS.load(Ordering::Relaxed),
        packs: PACKS.load(Ordering::Relaxed),
        pack_bytes: PACK_BYTES.load(Ordering::Relaxed),
    }
}

/// A 64-byte-aligned, fixed-size store for packed panels — `f32` for
/// full-precision panels, `u16` for binary16 bit patterns.
///
/// Written once during packing, then shared read-only across pool
/// threads (the microkernels require the aligned B loads this alignment
/// guarantees: 32-byte `vmovaps` for f32 panels, 16-byte `vcvtph2ps`
/// source loads for f16 panels).
struct AlignedVec<T> {
    ptr: NonNull<T>,
    len: usize,
}

// SAFETY: the buffer is uniquely owned during the pack (`as_mut_slice`
// requires `&mut self`) and only shared immutably afterwards; the plain
// number types stored here have no thread affinity.
unsafe impl<T: Send> Send for AlignedVec<T> {}
// SAFETY: `&AlignedVec<T>` only exposes `&[T]`.
unsafe impl<T: Sync> Sync for AlignedVec<T> {}

impl<T: Copy> AlignedVec<T> {
    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len * std::mem::size_of::<T>(), ALIGN).expect("plan panel layout")
    }

    /// Allocates a zeroed, aligned buffer and accounts it as a pack.
    /// (All-zero bytes are `+0.0` in both storage formats.)
    fn new(len: usize) -> Self {
        if len == 0 {
            note_pack(0);
            return AlignedVec {
                ptr: NonNull::dangling(),
                len: 0,
            };
        }
        let layout = Self::layout(len);
        // SAFETY: `len > 0` so the layout has non-zero size.
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<T>()) else {
            handle_alloc_error(layout)
        };
        note_pack((len * std::mem::size_of::<T>()) as u64);
        AlignedVec { ptr, len }
    }

    fn as_slice(&self) -> &[T] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: allocated with exactly `len` elements, alive until drop.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        if self.len == 0 {
            return &mut [];
        }
        // SAFETY: as above; `&mut self` guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> Drop for AlignedVec<T> {
    fn drop(&mut self) {
        note_release((self.len * std::mem::size_of::<T>()) as u64);
        if self.len > 0 {
            // SAFETY: allocated by `new` with this exact layout.
            unsafe {
                dealloc(
                    self.ptr.as_ptr().cast(),
                    Layout::from_size_align(self.len * std::mem::size_of::<T>(), ALIGN)
                        .expect("plan panel layout"),
                )
            };
        }
    }
}

impl<T> std::fmt::Debug for AlignedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedVec({} x {}B)", self.len, std::mem::size_of::<T>())
    }
}

/// Storage precision for plan-cached weight panels.
///
/// `F32` (the default) stores packed panels as the weights' native
/// `f32`; `F16` narrows each element to IEEE 754 binary16 **once at pack
/// time** (round-to-nearest-even) and widens it exactly inside the
/// microkernel, halving panel bytes and B-panel memory traffic. The
/// accumulate precision is always `f32` — only storage changes. Because
/// widening is exact, f16-storage GEMM results are bit-identical across
/// ISAs, thread counts, and blocking picks, exactly like the f32 path
/// (they differ *from* the f32 path by the one rounding at pack time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightPrecision {
    /// Native `f32` panel storage.
    F32,
    /// Binary16 panel storage, `f32` accumulate.
    F16,
}

impl WeightPrecision {
    /// Stable lowercase name (`f32` / `f16`) — the values
    /// `MEDSPLIT_WEIGHT_PREC` accepts.
    pub fn name(self) -> &'static str {
        match self {
            WeightPrecision::F32 => "f32",
            WeightPrecision::F16 => "f16",
        }
    }

    /// Bits per stored panel element (32 / 16), reported to telemetry.
    pub fn bits(self) -> u8 {
        match self {
            WeightPrecision::F32 => 32,
            WeightPrecision::F16 => 16,
        }
    }

    fn from_code(code: u8) -> WeightPrecision {
        match code {
            2 => WeightPrecision::F16,
            _ => WeightPrecision::F32,
        }
    }

    fn code(self) -> u8 {
        match self {
            WeightPrecision::F32 => 1,
            WeightPrecision::F16 => 2,
        }
    }
}

/// Active weight-panel precision: 0 = unresolved, else
/// `WeightPrecision::code()`.
static WEIGHT_PREC: AtomicU8 = AtomicU8::new(0);

/// The precision new plans pack at. Resolved once from
/// `MEDSPLIT_WEIGHT_PREC` (`f32` | `f16`, default `f32`), then cached;
/// [`set_weight_precision`] overrides it at runtime.
pub fn weight_precision() -> WeightPrecision {
    let code = WEIGHT_PREC.load(Ordering::Relaxed);
    if code != 0 {
        return WeightPrecision::from_code(code);
    }
    let prec = match std::env::var("MEDSPLIT_WEIGHT_PREC") {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "f16" => WeightPrecision::F16,
            "" | "f32" => WeightPrecision::F32,
            other => {
                eprintln!("MEDSPLIT_WEIGHT_PREC={other:?} not recognised (f32|f16); using f32");
                WeightPrecision::F32
            }
        },
        Err(_) => WeightPrecision::F32,
    };
    // Racing initialisers compute the same value; last write wins.
    WEIGHT_PREC.store(prec.code(), Ordering::Relaxed);
    medsplit_telemetry::gauge_set("plan.weight_bits", f64::from(prec.bits()));
    prec
}

/// Overrides the pack precision at runtime (process-global, like
/// [`crate::simd::set_isa`]). Live plans are not touched: each layer's
/// next [`GemmPlan::ensure`]/[`ConvPlan::ensure`] sees the mismatch and
/// repacks, counted as an invalidation.
pub fn set_weight_precision(prec: WeightPrecision) {
    WEIGHT_PREC.store(prec.code(), Ordering::Relaxed);
    medsplit_telemetry::gauge_set("plan.weight_bits", f64::from(prec.bits()));
}

/// A packed panel store in either storage precision, with the packing
/// orientation erased (the constructor chose B-tile or A-panel layout).
#[derive(Debug)]
enum Panels {
    F32(AlignedVec<f32>),
    F16(AlignedVec<u16>),
}

impl Panels {
    /// Views an A-panel store as the compute driver's operand.
    fn as_panels_a(&self) -> PanelsA<'_> {
        match self {
            Panels::F32(v) => PanelsA::Packed(v.as_slice()),
            Panels::F16(v) => PanelsA::PackedF16(v.as_slice()),
        }
    }
}

/// Which planned operation a blocking pick belongs to (the tag under
/// which the autotuner records it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PlanKind {
    /// Dense forward `y = x·Wᵀ`.
    DenseFwd,
    /// Dense backward `dx = g·W`.
    DenseBwd,
    /// Conv forward filter × patch-tile GEMM.
    ConvFwd,
    /// Conv backward `dcols = Wᵀ·G` GEMM.
    ConvBwd,
}

impl PlanKind {
    /// Stable lowercase label used in recorded picks and bench output.
    pub fn label(self) -> &'static str {
        match self {
            PlanKind::DenseFwd => "dense_fwd",
            PlanKind::DenseBwd => "dense_bwd",
            PlanKind::ConvFwd => "conv_fwd",
            PlanKind::ConvBwd => "conv_bwd",
        }
    }
}

/// A per-shape blocking choice made by the deterministic autotuner.
///
/// `mr`/`nr` are the microkernel tile (fixed by the ISA family today,
/// recorded so the bench output is self-describing); `kc` blocks the
/// inner dimension; `nc` is the packed B width (whole-`n`, rounded up to
/// `nr` tiles — the pack is shared across all row panels); `row_block`
/// is the parallel work unit over output rows. None of these affect
/// output bits — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blocking {
    /// Microkernel tile height.
    pub mr: usize,
    /// Microkernel tile width.
    pub nr: usize,
    /// Inner-dimension block size.
    pub kc: usize,
    /// Packed B panel width (`n` rounded up to whole `nr` tiles).
    pub nc: usize,
    /// Output row-panel height distributed over the pool (multiple of
    /// `mr`, derived from the shape — never from the thread count).
    pub row_block: usize,
}

/// L1 budget for one `kc` step of packed A + packed B: a 32 KiB L1 minus
/// headroom for the C tile and stack.
const L1_BUDGET_BYTES: usize = 28 * 1024;

/// Chooses blocking for an `m×k×n` GEMM — a pure function of the shape
/// (deterministic; no timing feedback), so picks are reproducible across
/// runs and hosts. `kc` candidates are balanced splits of `k` at several
/// caps; the cost model charges C-spill traffic for every extra `kc`
/// block and rejects splits whose A+B footprint overflows the L1 budget,
/// tie-breaking toward the largest block. `row_block` targets ~8 panels
/// across `m` for load balance, clamped to `[MR, BLOCK]`.
///
/// The pick is recorded under `kind` for export into BENCH_kernels.json
/// (see [`recorded_picks`]).
pub fn choose_blocking(kind: PlanKind, m: usize, k: usize, n: usize) -> Blocking {
    let kc = if k == 0 {
        1
    } else {
        let mut best = (u64::MAX, 0usize);
        for cap in [KC_CAP / 4, KC_CAP / 2, KC_CAP] {
            let kc = k.div_ceil(k.div_ceil(cap));
            let spill = (k.div_ceil(kc) as u64 - 1) * (m.max(1) * n.max(1)) as u64;
            let over = if kc * (MR + NR) * std::mem::size_of::<f32>() > L1_BUDGET_BYTES {
                u64::MAX / 2
            } else {
                0
            };
            let cost = spill.saturating_add(over);
            // `<=`: later (larger) caps win ties.
            if cost <= best.0 {
                best = (cost, kc);
            }
        }
        best.1
    };
    let row_block = m
        .div_ceil(8)
        .div_ceil(MR)
        .max(1)
        .saturating_mul(MR)
        .clamp(MR, matmul::BLOCK);
    let b = Blocking {
        mr: MR,
        nr: NR,
        kc,
        nc: n.div_ceil(NR) * NR,
        row_block,
    };
    record_pick(kind, m, k, n, b);
    b
}

/// Upper cap on `kc`, matching the per-call driver's `KC_MAX` so planned
/// and unplanned paths make the same choice on today's cost model.
const KC_CAP: usize = 320;

type PickKey = (PlanKind, usize, usize, usize);

static PICKS: OnceLock<Mutex<BTreeMap<PickKey, Blocking>>> = OnceLock::new();

fn record_pick(kind: PlanKind, m: usize, k: usize, n: usize, b: Blocking) {
    let picks = PICKS.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut map = picks.lock().expect("plan pick registry poisoned");
    map.entry((kind, m, k, n)).or_insert(b);
}

/// Every distinct `(op, m, k, n) → blocking` pick the autotuner has made
/// this process, in deterministic order. `kernel_bench` exports these
/// into `BENCH_kernels.json`.
pub fn recorded_picks() -> Vec<(String, Blocking)> {
    let picks = PICKS.get_or_init(|| Mutex::new(BTreeMap::new()));
    let map = picks.lock().expect("plan pick registry poisoned");
    map.iter()
        .map(|(&(kind, m, k, n), &b)| (format!("{} m{m} k{k} n{n}", kind.label()), b))
        .collect()
}

/// Packs the NR-wide column tiles of a strided logical B into a fresh
/// aligned store at `prec`: `n.div_ceil(NR)` tiles of `k*NR`. The f32
/// layout is byte-identical to the per-call scratch pack in [`matmul`];
/// the f16 layout is the same tiles with each element narrowed once.
fn pack_b_panels(src: &[f32], rs: usize, cs: usize, k: usize, n: usize, prec: WeightPrecision) -> Panels {
    let nt = n.div_ceil(NR);
    let len = if k == 0 { 0 } else { nt * k * NR };
    match prec {
        WeightPrecision::F32 => {
            let mut buf = AlignedVec::new(len);
            if k > 0 {
                pool::parallel_chunks_mut_sized(buf.as_mut_slice(), k * NR, len, |jt, tile| {
                    let j0 = jt * NR;
                    microkernel::pack_b_tile(src, rs, cs, j0, NR.min(n - j0), k, tile);
                });
            }
            Panels::F32(buf)
        }
        WeightPrecision::F16 => {
            let mut buf = AlignedVec::new(len);
            if k > 0 {
                pool::parallel_chunks_mut_sized(buf.as_mut_slice(), k * NR, len, |jt, tile| {
                    let j0 = jt * NR;
                    microkernel::pack_b_tile_f16(src, rs, cs, j0, NR.min(n - j0), k, tile);
                });
            }
            Panels::F16(buf)
        }
    }
}

/// Packs the MR-row panels of a strided logical A into a fresh aligned
/// store at `prec`: `m.div_ceil(MR)` panels of `k*MR`, byte-identical
/// (at f32) to the per-block scratch pack in [`matmul`].
fn pack_a_panels(src: &[f32], rs: usize, cs: usize, m: usize, k: usize, prec: WeightPrecision) -> Panels {
    let nb = m.div_ceil(MR);
    let len = if k == 0 { 0 } else { nb * k * MR };
    match prec {
        WeightPrecision::F32 => {
            let mut buf = AlignedVec::new(len);
            if k > 0 {
                pool::parallel_chunks_mut_sized(buf.as_mut_slice(), k * MR, len, |ib, panel| {
                    let i0 = ib * MR;
                    microkernel::pack_a_panel(src, rs, cs, i0, MR.min(m - i0), k, panel);
                });
            }
            Panels::F32(buf)
        }
        WeightPrecision::F16 => {
            let mut buf = AlignedVec::new(len);
            if k > 0 {
                pool::parallel_chunks_mut_sized(buf.as_mut_slice(), k * MR, len, |ib, panel| {
                    let i0 = ib * MR;
                    microkernel::pack_a_panel_f16(src, rs, cs, i0, MR.min(m - i0), k, panel);
                });
            }
            Panels::F16(buf)
        }
    }
}

/// A cached execution plan for a dense layer's weight `W` (`[out, in]`,
/// row-major).
///
/// Owns the weight prepacked for the forward GEMM `y = x·Wᵀ` and,
/// lazily, for the backward GEMM `dx = g·W`. Immutable after packing
/// (modulo the lazy backward build), shared read-only across threads.
#[derive(Debug)]
pub struct GemmPlan {
    out_features: usize,
    in_features: usize,
    /// Packed B tiles for `x·Wᵀ` (logical B strides `(1, in)`).
    fwd: Panels,
    /// Packed B tiles for `g·W` (logical B strides `(in, 1)`); built on
    /// first backward so eval-only plans never pay for it.
    bwd: Option<Panels>,
    /// Storage precision both orientations were packed at (the global
    /// [`weight_precision`] at pack time).
    precision: WeightPrecision,
    generation: u64,
}

impl GemmPlan {
    /// Packs `weight` (`[out, in]`) for the forward orientation at the
    /// current [`weight_precision`], tagging the plan with `generation`
    /// (the weight's version counter).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix weights.
    pub fn pack_nt(weight: &Tensor, generation: u64) -> Result<GemmPlan> {
        Self::pack_nt_at(weight, generation, weight_precision())
    }

    /// [`pack_nt`](Self::pack_nt) at an explicit storage precision,
    /// ignoring the process-global setting (benchmarks and tests A/B the
    /// two storage formats with this).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix weights.
    pub fn pack_nt_at(weight: &Tensor, generation: u64, precision: WeightPrecision) -> Result<GemmPlan> {
        if weight.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: weight.rank(),
                op: "GemmPlan::pack_nt",
            });
        }
        let (out_features, in_features) = (weight.dims()[0], weight.dims()[1]);
        // Logical B of x·Wᵀ is Wᵀ: element (p, j) = W[j, p] → strides (1, in).
        let fwd = pack_b_panels(
            weight.as_slice(),
            1,
            in_features,
            in_features,
            out_features,
            precision,
        );
        Ok(GemmPlan {
            out_features,
            in_features,
            fwd,
            bwd: None,
            precision,
            generation,
        })
    }

    /// Returns the plan in `slot` if its generation and storage
    /// precision both match, otherwise (re)packs `weight` into the slot.
    /// Counts a cache hit, miss (empty slot), or invalidation (stale
    /// generation or precision switch) accordingly.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::pack_nt`] shape errors.
    pub fn ensure<'a>(
        slot: &'a mut Option<GemmPlan>,
        weight: &Tensor,
        generation: u64,
    ) -> Result<&'a mut GemmPlan> {
        match slot.as_ref() {
            Some(p) if p.generation == generation && p.precision == weight_precision() => note_hit(),
            stale => {
                if stale.is_some() {
                    note_invalidation();
                } else {
                    note_miss();
                }
                *slot = Some(GemmPlan::pack_nt(weight, generation)?);
            }
        }
        Ok(slot.as_mut().expect("slot was just ensured"))
    }

    /// The weight version this plan packed.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The storage precision this plan's panels were packed at.
    pub fn precision(&self) -> WeightPrecision {
        self.precision
    }

    /// Planned forward: `x · Wᵀ` using the cached panels — bit-identical
    /// to [`Tensor::matmul_nt`] against the original weight.
    ///
    /// # Errors
    ///
    /// Returns rank/shape errors if `x` is not `[N, in]`.
    pub fn matmul_nt(&self, x: &Tensor) -> Result<Tensor> {
        if x.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: x.rank(),
                op: "GemmPlan::matmul_nt",
            });
        }
        let (m, k) = (x.dims()[0], x.dims()[1]);
        if k != self.in_features {
            return Err(TensorError::ShapeMismatch {
                lhs: x.shape().clone(),
                rhs: crate::shape::Shape::from([self.out_features, self.in_features]),
                op: "GemmPlan::matmul_nt",
            });
        }
        let n = self.out_features;
        let _span = medsplit_telemetry::span("gemm");
        let b = choose_blocking(PlanKind::DenseFwd, m, k, n);
        let mut out = Tensor::zeros([m, n]);
        let a = PanelsA::Strided {
            src: x.as_slice(),
            rs: k,
            cs: 1,
        };
        match &self.fwd {
            Panels::F32(p) => matmul::gemm_compute_packed_b(
                a,
                p.as_slice(),
                out.as_mut_slice(),
                m,
                k,
                n,
                false,
                b.kc,
                b.row_block,
            ),
            Panels::F16(p) => matmul::gemm_compute_packed_b_f16(
                a,
                p.as_slice(),
                out.as_mut_slice(),
                m,
                k,
                n,
                false,
                b.kc,
                b.row_block,
            ),
        }
        Ok(out)
    }

    /// Planned backward: `g · W` using cached panels — bit-identical to
    /// [`Tensor::matmul`] against the original weight. Packs the
    /// backward orientation of `weight` on first use (`weight` must be
    /// the same tensor/generation this plan was built from; the caller
    /// checks the version before dispatching here).
    ///
    /// # Errors
    ///
    /// Returns rank/shape errors if `g` is not `[N, out]` or `weight`
    /// does not match the planned shape.
    pub fn matmul_nn(&mut self, g: &Tensor, weight: &Tensor) -> Result<Tensor> {
        if g.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: g.rank(),
                op: "GemmPlan::matmul_nn",
            });
        }
        if g.dims()[1] != self.out_features || weight.dims() != [self.out_features, self.in_features] {
            return Err(TensorError::ShapeMismatch {
                lhs: g.shape().clone(),
                rhs: weight.shape().clone(),
                op: "GemmPlan::matmul_nn",
            });
        }
        let (m, k, n) = (g.dims()[0], self.out_features, self.in_features);
        if self.bwd.is_none() {
            // Logical B of g·W is W itself: strides (in, 1). Packed at
            // the *plan's* precision, not the current global, so both
            // orientations of one plan always agree.
            self.bwd = Some(pack_b_panels(weight.as_slice(), n, 1, k, n, self.precision));
        }
        let _span = medsplit_telemetry::span("gemm");
        let b = choose_blocking(PlanKind::DenseBwd, m, k, n);
        let mut out = Tensor::zeros([m, n]);
        let a = PanelsA::Strided {
            src: g.as_slice(),
            rs: k,
            cs: 1,
        };
        match self.bwd.as_ref().expect("bwd panels just built") {
            Panels::F32(p) => matmul::gemm_compute_packed_b(
                a,
                p.as_slice(),
                out.as_mut_slice(),
                m,
                k,
                n,
                false,
                b.kc,
                b.row_block,
            ),
            Panels::F16(p) => matmul::gemm_compute_packed_b_f16(
                a,
                p.as_slice(),
                out.as_mut_slice(),
                m,
                k,
                n,
                false,
                b.kc,
                b.row_block,
            ),
        }
        Ok(out)
    }
}

/// The im2col geometry shared by a conv plan's forward and backward
/// passes — computed once per input size, never re-derived independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input height this geometry was derived for.
    pub h: usize,
    /// Input width this geometry was derived for.
    pub w: usize,
    /// Output height.
    pub oh: usize,
    /// Output width.
    pub ow: usize,
    /// Filter-matrix depth: `in_channels * kernel_h * kernel_w`.
    pub rows: usize,
    /// Output pixels per image: `oh * ow`.
    pub ncols: usize,
}

/// A cached execution plan for a conv layer's `OIHW` filter.
///
/// Owns the `[O, C*KH*KW]` filter matrix prepacked as microkernel
/// A-panels for the forward GEMM, the lazily-built transposed panels for
/// the backward `dcols = Wᵀ·G` GEMM, and the cached [`ConvGeometry`].
#[derive(Debug)]
pub struct ConvPlan {
    spec: Conv2dSpec,
    out_channels: usize,
    in_channels: usize,
    /// Filter-matrix depth `in_channels * kernel_h * kernel_w`.
    rows: usize,
    /// Forward A-panels of `wmat` (`[o, rows]`, strides `(rows, 1)`).
    fwd: Panels,
    /// Backward A-panels of `wmatᵀ` (strides `(1, rows)`); built on
    /// first backward.
    bwd: Option<Panels>,
    /// Storage precision both panel sets were packed at.
    precision: WeightPrecision,
    /// Geometry for the most recent input size (conv inputs are
    /// uniformly sized in practice; a size change just recomputes).
    geo: Option<ConvGeometry>,
    generation: u64,
}

impl ConvPlan {
    /// Packs `weight` (`OIHW`, kernel dims matching `spec`) for the
    /// forward conv GEMM, tagging the plan with `generation`.
    ///
    /// # Errors
    ///
    /// Returns rank/shape errors if `weight` is not `OIHW` with `spec`'s
    /// kernel size.
    pub fn pack(weight: &Tensor, spec: Conv2dSpec, generation: u64) -> Result<ConvPlan> {
        Self::pack_at(weight, spec, generation, weight_precision())
    }

    /// [`pack`](Self::pack) at an explicit storage precision, ignoring
    /// the process-global setting.
    ///
    /// # Errors
    ///
    /// Same conditions as [`pack`](Self::pack).
    pub fn pack_at(
        weight: &Tensor,
        spec: Conv2dSpec,
        generation: u64,
        precision: WeightPrecision,
    ) -> Result<ConvPlan> {
        if weight.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: weight.rank(),
                op: "ConvPlan::pack",
            });
        }
        let d = weight.dims();
        if d[2] != spec.kernel_h || d[3] != spec.kernel_w {
            return Err(TensorError::ShapeMismatch {
                lhs: weight.shape().clone(),
                rhs: crate::shape::Shape::from([d[0], d[1], spec.kernel_h, spec.kernel_w]),
                op: "ConvPlan::pack",
            });
        }
        let (out_channels, in_channels) = (d[0], d[1]);
        let rows = in_channels * spec.kernel_h * spec.kernel_w;
        // OIHW weights viewed in place as the [o, rows] filter matrix.
        let fwd = pack_a_panels(weight.as_slice(), rows, 1, out_channels, rows, precision);
        Ok(ConvPlan {
            spec,
            out_channels,
            in_channels,
            rows,
            fwd,
            bwd: None,
            precision,
            geo: None,
            generation,
        })
    }

    /// Returns the plan in `slot` if its generation matches, otherwise
    /// (re)packs `weight`. Counts hits/misses/invalidations like
    /// [`GemmPlan::ensure`].
    ///
    /// # Errors
    ///
    /// Propagates [`Self::pack`] shape errors.
    pub fn ensure<'a>(
        slot: &'a mut Option<ConvPlan>,
        weight: &Tensor,
        spec: Conv2dSpec,
        generation: u64,
    ) -> Result<&'a mut ConvPlan> {
        match slot.as_ref() {
            Some(p) if p.generation == generation && p.spec == spec && p.precision == weight_precision() => {
                note_hit()
            }
            stale => {
                if stale.is_some() {
                    note_invalidation();
                } else {
                    note_miss();
                }
                *slot = Some(ConvPlan::pack(weight, spec, generation)?);
            }
        }
        Ok(slot.as_mut().expect("slot was just ensured"))
    }

    /// The weight version this plan packed.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The storage precision this plan's panels were packed at.
    pub fn precision(&self) -> WeightPrecision {
        self.precision
    }

    /// The convolution hyper-parameters this plan was built for.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// The im2col geometry for an `h×w` input, cached so forward and
    /// backward share one derivation.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Numerical`] if the window does not fit.
    pub fn geometry(&mut self, h: usize, w: usize) -> Result<ConvGeometry> {
        if let Some(g) = self.geo {
            if g.h == h && g.w == w {
                return Ok(g);
            }
        }
        let (oh, ow) = self.spec.output_hw(h, w)?;
        let g = ConvGeometry {
            h,
            w,
            oh,
            ow,
            rows: self.rows,
            ncols: oh * ow,
        };
        self.geo = Some(g);
        Ok(g)
    }

    /// The prepacked forward A-panels (filter matrix), in whichever
    /// storage precision the plan packed.
    pub(crate) fn fwd_panels(&self) -> PanelsA<'_> {
        self.fwd.as_panels_a()
    }

    /// The prepacked backward A-panels (transposed filter matrix),
    /// building them from `wmat` (the `[o, rows]` filter matrix slice)
    /// on first use — at the plan's own precision, so forward and
    /// backward always agree.
    pub(crate) fn bwd_panels(&mut self, wmat: &[f32]) -> PanelsA<'_> {
        if self.bwd.is_none() {
            // Logical A of Wᵀ·G is wmatᵀ [rows, o]: strides (1, rows).
            self.bwd = Some(pack_a_panels(
                wmat,
                1,
                self.rows,
                self.rows,
                self.out_channels,
                self.precision,
            ));
        }
        self.bwd.as_ref().expect("bwd panels just built").as_panels_a()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(seed: u32, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                ((h % 1999) as f32) / 250.0 - 4.0
            })
            .collect()
    }

    #[test]
    fn blocking_is_deterministic_and_shaped() {
        let a = choose_blocking(PlanKind::DenseFwd, 64, 256, 1024);
        let b = choose_blocking(PlanKind::DenseFwd, 64, 256, 1024);
        assert_eq!(a, b);
        assert_eq!(a.mr, MR);
        assert_eq!(a.nr, NR);
        assert_eq!(a.kc, 256); // k <= cap: single balanced block
        assert_eq!(a.nc, 1024);
        assert_eq!(a.row_block % MR, 0);
        // Large k splits into balanced blocks under the cap.
        let c = choose_blocking(PlanKind::DenseFwd, 8, 1000, 64);
        assert!(c.kc <= KC_CAP);
        assert_eq!(1000_usize.div_ceil(c.kc), 1000_usize.div_ceil(KC_CAP));
        // Tiny m still gets a legal row block.
        let d = choose_blocking(PlanKind::DenseFwd, 1, 8, 8);
        assert_eq!(d.row_block, MR);
    }

    #[test]
    fn picks_are_recorded_once_per_shape() {
        let _ = choose_blocking(PlanKind::ConvFwd, 13, 77, 131);
        let _ = choose_blocking(PlanKind::ConvFwd, 13, 77, 131);
        let picks = recorded_picks();
        let hits: Vec<_> = picks
            .iter()
            .filter(|(k, _)| k == "conv_fwd m13 k77 n131")
            .collect();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn gemm_plan_matches_direct_paths() {
        let _g = PREC_LOCK.lock().unwrap();
        let (m, k, n) = (7, 33, 19);
        let w = Tensor::from_vec(mk(1, n * k), [n, k]).unwrap();
        let x = Tensor::from_vec(mk(2, m * k), [m, k]).unwrap();
        let g = Tensor::from_vec(mk(3, m * n), [m, n]).unwrap();
        let mut slot = None;
        let plan = GemmPlan::ensure(&mut slot, &w, 1).unwrap();
        assert_eq!(plan.generation(), 1);
        let y = plan.matmul_nt(&x).unwrap();
        assert_eq!(y, x.matmul_nt(&w).unwrap());
        let dx = plan.matmul_nn(&g, &w).unwrap();
        assert_eq!(dx, g.matmul(&w).unwrap());
    }

    #[test]
    fn ensure_counts_hits_misses_invalidations() {
        let _g = PREC_LOCK.lock().unwrap();
        let w = Tensor::from_vec(mk(4, 12), [3, 4]).unwrap();
        let mut slot = None;
        let before = stats();
        GemmPlan::ensure(&mut slot, &w, 1).unwrap();
        GemmPlan::ensure(&mut slot, &w, 1).unwrap();
        GemmPlan::ensure(&mut slot, &w, 2).unwrap();
        let after = stats();
        assert_eq!(after.misses - before.misses, 1);
        assert_eq!(after.hits - before.hits, 1);
        assert_eq!(after.invalidations - before.invalidations, 1);
        assert!(after.packs - before.packs >= 2);
        assert!(after.pack_bytes > 0);
    }

    #[test]
    fn plan_shape_validation() {
        let w = Tensor::ones([4, 3]);
        let plan = GemmPlan::pack_nt(&w, 0).unwrap();
        assert!(plan.matmul_nt(&Tensor::ones([2, 5])).is_err());
        assert!(plan.matmul_nt(&Tensor::ones([6])).is_err());
        assert!(GemmPlan::pack_nt(&Tensor::ones([3]), 0).is_err());
        let spec = Conv2dSpec::square(3, 1, 1);
        assert!(ConvPlan::pack(&Tensor::ones([2, 2]), spec, 0).is_err());
        assert!(ConvPlan::pack(&Tensor::ones([2, 1, 5, 5]), spec, 0).is_err());
    }

    /// Serialises tests that flip the process-global weight precision.
    static PREC_LOCK: Mutex<()> = Mutex::new(());

    /// `t` with every element round-tripped through binary16 — the f32
    /// tensor an f16-storage plan is numerically equivalent to.
    fn narrowed(t: &Tensor) -> Tensor {
        let v: Vec<f32> = t
            .as_slice()
            .iter()
            .map(|&x| crate::half::f16_bits_to_f32(crate::half::f32_to_f16_bits(x)))
            .collect();
        Tensor::from_vec(v, [t.dims()[0], t.dims()[1]]).unwrap()
    }

    #[test]
    fn f16_gemm_plan_matches_f32_gemm_on_narrowed_weights() {
        // Widening f16 panel bits is exact, so the f16-storage plan must
        // equal the plain f32 GEMM against the f16-rounded weights — to
        // the bit, in both orientations.
        let (m, k, n) = (7, 33, 19);
        let w = Tensor::from_vec(mk(11, n * k), [n, k]).unwrap();
        let x = Tensor::from_vec(mk(12, m * k), [m, k]).unwrap();
        let g = Tensor::from_vec(mk(13, m * n), [m, n]).unwrap();
        let w16 = narrowed(&w);
        let mut plan = GemmPlan::pack_nt_at(&w, 1, WeightPrecision::F16).unwrap();
        assert_eq!(plan.precision(), WeightPrecision::F16);
        assert_eq!(plan.matmul_nt(&x).unwrap(), x.matmul_nt(&w16).unwrap());
        assert_eq!(plan.matmul_nn(&g, &w).unwrap(), g.matmul(&w16).unwrap());
    }

    #[test]
    fn f16_conv_plan_matches_narrowed_weight_conv() {
        use crate::ops::conv::{
            conv2d_backward, conv2d_backward_planned, conv2d_forward, conv2d_forward_planned,
        };
        let spec = Conv2dSpec::square(3, 1, 1);
        let (n, c, h, w, o) = (2usize, 3usize, 6usize, 5usize, 4usize);
        let input = Tensor::from_vec(mk(21, n * c * h * w), [n, c, h, w]).unwrap();
        let weight = Tensor::from_vec(mk(22, o * c * 9), [o, c, 3, 3]).unwrap();
        let bias = Tensor::from_vec(mk(23, o), [o]).unwrap();
        let w16 = Tensor::from_vec(
            weight
                .as_slice()
                .iter()
                .map(|&x| crate::half::f16_bits_to_f32(crate::half::f32_to_f16_bits(x)))
                .collect(),
            [o, c, 3, 3],
        )
        .unwrap();

        let mut plan = ConvPlan::pack_at(&weight, spec, 1, WeightPrecision::F16).unwrap();
        assert_eq!(plan.precision(), WeightPrecision::F16);
        let y = conv2d_forward_planned(&input, &mut plan, Some(&bias)).unwrap();
        assert_eq!(y, conv2d_forward(&input, &w16, Some(&bias), spec).unwrap());

        let gout = Tensor::from_vec(mk(24, y.numel()), [n, o, h, w]).unwrap();
        let (dx, dw, db) = conv2d_backward_planned(&input, &weight, &gout, &mut plan).unwrap();
        // dcols = Wᵀ·G streams the f16 panels → matches the narrowed
        // weight; dW = G·colsᵀ and db never touch W → match either.
        let (dx_ref, dw_ref, db_ref) = conv2d_backward(&input, &w16, &gout, spec).unwrap();
        assert_eq!(dx, dx_ref);
        assert_eq!(dw, dw_ref);
        assert_eq!(db, db_ref);
    }

    #[test]
    fn f16_plans_bit_identical_across_isas() {
        // The acceptance bar for the f16 kernel family: scalar reference
        // and the host's native ISA produce identical bits for both
        // orientations of an f16-storage plan (safe to interleave with
        // other tests — every ISA is bit-identical by contract, so a
        // concurrent dispatch flip cannot change any test's results).
        let (m, k, n) = (13, 40, 35);
        let w = Tensor::from_vec(mk(41, n * k), [n, k]).unwrap();
        let x = Tensor::from_vec(mk(42, m * k), [m, k]).unwrap();
        let g = Tensor::from_vec(mk(43, m * n), [m, n]).unwrap();
        let mut plan = GemmPlan::pack_nt_at(&w, 1, WeightPrecision::F16).unwrap();
        let host = crate::simd::detect();
        assert!(crate::simd::set_isa(crate::simd::Isa::Scalar));
        let y_s = plan.matmul_nt(&x).unwrap();
        let dx_s = plan.matmul_nn(&g, &w).unwrap();
        assert!(crate::simd::set_isa(host));
        let y_n = plan.matmul_nt(&x).unwrap();
        let dx_n = plan.matmul_nn(&g, &w).unwrap();
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y_s), bits(&y_n), "forward f16 GEMM diverged across ISAs");
        assert_eq!(bits(&dx_s), bits(&dx_n), "backward f16 GEMM diverged across ISAs");
    }

    #[test]
    fn precision_switch_invalidates_plans() {
        let _g = PREC_LOCK.lock().unwrap();
        set_weight_precision(WeightPrecision::F32);
        let w = Tensor::from_vec(mk(31, 12), [3, 4]).unwrap();
        let mut slot = None;
        GemmPlan::ensure(&mut slot, &w, 7).unwrap();
        assert_eq!(slot.as_ref().unwrap().precision(), WeightPrecision::F32);
        set_weight_precision(WeightPrecision::F16);
        // Same generation, new precision: ensure must repack.
        let plan = GemmPlan::ensure(&mut slot, &w, 7).unwrap();
        assert_eq!(plan.precision(), WeightPrecision::F16);
        assert_eq!(plan.generation(), 7);
        set_weight_precision(WeightPrecision::F32);
        let plan = GemmPlan::ensure(&mut slot, &w, 7).unwrap();
        assert_eq!(plan.precision(), WeightPrecision::F32);
    }

    #[test]
    fn f16_panels_halve_pack_bytes() {
        let _g = PREC_LOCK.lock().unwrap();
        let w = Tensor::ones([64, 64]);
        let before = stats().pack_bytes;
        let p32 = GemmPlan::pack_nt_at(&w, 0, WeightPrecision::F32).unwrap();
        let f32_bytes = stats().pack_bytes - before;
        let mid = stats().pack_bytes;
        let p16 = GemmPlan::pack_nt_at(&w, 0, WeightPrecision::F16).unwrap();
        let f16_bytes = stats().pack_bytes - mid;
        assert_eq!(f16_bytes * 2, f32_bytes);
        drop(p16);
        drop(p32);
        assert_eq!(stats().pack_bytes, before);
    }

    #[test]
    fn pack_bytes_released_on_drop() {
        let _g = PREC_LOCK.lock().unwrap();
        let before = stats().pack_bytes;
        let w = Tensor::ones([64, 64]);
        let plan = GemmPlan::pack_nt(&w, 0).unwrap();
        assert!(stats().pack_bytes >= before + 64 * 64 * 4);
        drop(plan);
        assert_eq!(stats().pack_bytes, before);
    }

    #[test]
    fn conv_geometry_is_cached() {
        let spec = Conv2dSpec::square(3, 1, 1);
        let w = Tensor::ones([2, 3, 3, 3]);
        let mut plan = ConvPlan::pack(&w, spec, 0).unwrap();
        let g1 = plan.geometry(8, 8).unwrap();
        assert_eq!((g1.oh, g1.ow), (8, 8));
        assert_eq!(g1.rows, 3 * 9);
        assert_eq!(plan.geometry(8, 8).unwrap(), g1);
        let g2 = plan.geometry(5, 5).unwrap();
        assert_eq!((g2.oh, g2.ow), (5, 5));
        assert!(plan.geometry(0, 0).is_err());
    }
}
