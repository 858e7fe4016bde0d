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
//! Blocking is a function of the shape alone (`kc_block` / `row_block` in
//! [`crate::ops::matmul`]) and never affects results: each output element
//! always streams the full depth range in ascending order through the
//! same fused kernel, so planned and unplanned execution are
//! **bit-identical** across ISAs and thread counts.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{Result, TensorError};
use crate::ops::conv::Conv2dSpec;
use crate::ops::matmul::{self, PanelsA};
use crate::ops::microkernel::{self, MR, NR};
use crate::pool;
use crate::scratch::AlignedBuf;
use crate::tensor::Tensor;

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

/// A plan's packed panels: one [`AlignedBuf`], written once during
/// packing and then shared read-only across pool threads (the alignment
/// puts each 16-float B-panel row the GEMM tile loads on one cache line).
/// Its bytes count in the `plan.pack_bytes` gauge while it lives.
#[derive(Debug)]
struct Panels(AlignedBuf);

impl Panels {
    /// A zeroed store of `len` floats, accounted as a pack.
    fn zeroed(len: usize) -> Self {
        let buf = AlignedBuf::zeroed(len);
        note_pack(std::mem::size_of_val(&buf[..]) as u64);
        Panels(buf)
    }
}

impl Drop for Panels {
    fn drop(&mut self) {
        note_release(std::mem::size_of_val(&self.0[..]) as u64);
    }
}

/// Packs the NR-wide column tiles of a strided logical B into a fresh
/// aligned store: `n.div_ceil(NR)` tiles of `k*NR`, byte-identical to the
/// per-call scratch pack in [`matmul`].
fn pack_b_panels(src: &[f32], rs: usize, cs: usize, k: usize, n: usize) -> Panels {
    let nt = n.div_ceil(NR);
    let len = if k == 0 { 0 } else { nt * k * NR };
    let mut buf = Panels::zeroed(len);
    if k > 0 {
        pool::parallel_chunks_mut_sized(&mut buf.0, k * NR, len, |jt, tile| {
            let j0 = jt * NR;
            microkernel::pack_b_tile(src, rs, cs, j0, NR.min(n - j0), k, tile);
        });
    }
    buf
}

/// Packs the MR-row panels of a strided logical A into a fresh aligned
/// store: `m.div_ceil(MR)` panels of `k*MR`, byte-identical to the
/// per-block scratch pack in [`matmul`].
fn pack_a_panels(src: &[f32], rs: usize, cs: usize, m: usize, k: usize) -> Panels {
    let nb = m.div_ceil(MR);
    let len = if k == 0 { 0 } else { nb * k * MR };
    let mut buf = Panels::zeroed(len);
    if k > 0 {
        pool::parallel_chunks_mut_sized(&mut buf.0, k * MR, len, |ib, panel| {
            let i0 = ib * MR;
            microkernel::pack_a_panel(src, rs, cs, i0, MR.min(m - i0), k, panel);
        });
    }
    buf
}

/// `x · B` (`[m, k]` × prepacked `k×n` B tiles) into a fresh tensor — the
/// compute half both products of a [`GemmPlan`] share. The tensor starts
/// zeroed, so the driver accumulates onto it rather than zeroing again.
fn gemm_planned(x: &Tensor, bpack: &Panels, m: usize, k: usize, n: usize) -> Tensor {
    let _span = medsplit_telemetry::span("gemm");
    let mut out = Tensor::zeros([m, n]);
    let a = PanelsA::Strided {
        src: x.as_slice(),
        rs: k,
        cs: 1,
    };
    matmul::gemm_compute_packed_b(
        a,
        &bpack.0,
        out.as_mut_slice(),
        m,
        k,
        n,
        true,
        matmul::row_block(m),
    );
    out
}

/// A cached execution plan for a dense layer's weight `W` (`[out, in]`,
/// row-major).
///
/// Owns the weight prepacked for the forward GEMM `y = x·Wᵀ` and,
/// lazily, for the backward GEMM `dx = g·W`. Immutable after packing
/// (modulo the lazy backward build), shared read-only across threads.
///
/// Each product is packed once, as B tiles. When a call's batch makes
/// the output skinny enough for the swapped GEMM orientation
/// (`ops::matmul::swapped`: `Dense(128→3)` over a training batch), the same
/// tile is read as the A operand, so no batch size packs a second copy
/// and the choice never touches the plan's generation or pack counters.
#[derive(Debug)]
pub struct GemmPlan {
    out_features: usize,
    in_features: usize,
    /// Packed B tiles for `x·Wᵀ` (logical B strides `(1, in)`).
    fwd: Panels,
    /// Packed B tiles for `g·W` (logical B strides `(in, 1)`); built on
    /// first backward so eval-only plans never pay for it.
    bwd: Option<Panels>,
    generation: u64,
}

impl GemmPlan {
    /// Packs `weight` (`[out, in]`) for the forward orientation, tagging
    /// the plan with `generation` (the weight's version counter).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix weights.
    pub fn pack_nt(weight: &Tensor, generation: u64) -> Result<GemmPlan> {
        if weight.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: weight.rank(),
                op: "GemmPlan::pack_nt",
            });
        }
        let (out_features, in_features) = (weight.dims()[0], weight.dims()[1]);
        // Logical B of x·Wᵀ is Wᵀ: element (p, j) = W[j, p] → strides (1, in).
        let fwd = pack_b_panels(weight.as_slice(), 1, in_features, in_features, out_features);
        Ok(GemmPlan {
            out_features,
            in_features,
            fwd,
            bwd: None,
            generation,
        })
    }

    /// Returns the plan in `slot` if its generation matches, otherwise
    /// (re)packs `weight` into the slot. Counts a cache hit, miss (empty
    /// slot), or invalidation (stale generation) accordingly.
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
            Some(p) if p.generation == generation => note_hit(),
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
        Ok(gemm_planned(x, &self.fwd, m, k, self.out_features))
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
        // Logical B of g·W is W itself: strides (in, 1).
        let bwd = self
            .bwd
            .get_or_insert_with(|| pack_b_panels(weight.as_slice(), n, 1, k, n));
        Ok(gemm_planned(g, bwd, m, k, n))
    }
}

/// The im2col geometry of a conv plan's forward pass for one input size.
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
/// A-panels for the forward GEMM and the lazily-built transposed panels
/// for the backward `dcols = Wᵀ·G` GEMM. The forward reads the plan
/// through a shared reference, so several threads may run one plan at
/// once.
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
        let fwd = pack_a_panels(weight.as_slice(), rows, 1, out_channels, rows);
        Ok(ConvPlan {
            spec,
            out_channels,
            in_channels,
            rows,
            fwd,
            bwd: None,
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
            Some(p) if p.generation == generation && p.spec == spec => note_hit(),
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

    /// The im2col geometry for an `h×w` input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Numerical`] if the window does not fit.
    pub fn geometry(&self, h: usize, w: usize) -> Result<ConvGeometry> {
        let (oh, ow) = self.spec.output_hw(h, w)?;
        Ok(ConvGeometry {
            h,
            w,
            oh,
            ow,
            rows: self.rows,
            ncols: oh * ow,
        })
    }

    /// The prepacked forward A-panels (filter matrix).
    pub(crate) fn fwd_panels(&self) -> PanelsA<'_> {
        PanelsA::Packed(&self.fwd.0)
    }

    /// The prepacked backward A-panels (transposed filter matrix),
    /// building them from `wmat` (the `[o, rows]` filter matrix slice)
    /// on first use.
    pub(crate) fn bwd_panels(&mut self, wmat: &[f32]) -> PanelsA<'_> {
        let (rows, o) = (self.rows, self.out_channels);
        // Logical A of Wᵀ·G is wmatᵀ [rows, o]: strides (1, rows).
        let bwd = self
            .bwd
            .get_or_insert_with(|| pack_a_panels(wmat, 1, rows, rows, o));
        PanelsA::Packed(&bwd.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serialises the tests that read the process-global `pack_bytes`
    /// gauge against the other tests here that hold plans.
    static PACK_LOCK: Mutex<()> = Mutex::new(());

    fn mk(seed: u32, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                ((h % 1999) as f32) / 250.0 - 4.0
            })
            .collect()
    }

    #[test]
    fn gemm_plan_matches_direct_paths() {
        let _g = PACK_LOCK.lock().unwrap();
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
        let _g = PACK_LOCK.lock().unwrap();
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
        let _g = PACK_LOCK.lock().unwrap();
        let w = Tensor::ones([4, 3]);
        let plan = GemmPlan::pack_nt(&w, 0).unwrap();
        assert!(plan.matmul_nt(&Tensor::ones([2, 5])).is_err());
        assert!(plan.matmul_nt(&Tensor::ones([6])).is_err());
        assert!(GemmPlan::pack_nt(&Tensor::ones([3]), 0).is_err());
        let spec = Conv2dSpec::square(3, 1, 1);
        assert!(ConvPlan::pack(&Tensor::ones([2, 2]), spec, 0).is_err());
        assert!(ConvPlan::pack(&Tensor::ones([2, 1, 5, 5]), spec, 0).is_err());
    }

    #[test]
    fn pack_bytes_released_on_drop() {
        let _g = PACK_LOCK.lock().unwrap();
        let before = stats().pack_bytes;
        let w = Tensor::ones([64, 64]);
        let plan = GemmPlan::pack_nt(&w, 0).unwrap();
        assert!(stats().pack_bytes >= before + 64 * 64 * 4);
        drop(plan);
        assert_eq!(stats().pack_bytes, before);
    }

    #[test]
    fn conv_geometry_follows_the_input_size() {
        let _g = PACK_LOCK.lock().unwrap();
        let spec = Conv2dSpec::square(3, 1, 1);
        let w = Tensor::ones([2, 3, 3, 3]);
        let plan = ConvPlan::pack(&w, spec, 0).unwrap();
        let g1 = plan.geometry(8, 8).unwrap();
        assert_eq!((g1.oh, g1.ow), (8, 8));
        assert_eq!(g1.rows, 3 * 9);
        assert_eq!(plan.geometry(8, 8).unwrap(), g1);
        let g2 = plan.geometry(5, 5).unwrap();
        assert_eq!((g2.oh, g2.ow), (5, 5));
        assert!(plan.geometry(0, 0).is_err());
    }
}
