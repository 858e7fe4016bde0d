//! Matrix multiplication: packed, register-blocked, multi-threaded.
//!
//! All three GEMM variants (`C = A·B`, `Aᵀ·B`, `A·Bᵀ`) run through one
//! strided driver:
//!
//! 1. **Whole-B pack** — B is packed once per call into microkernel
//!    order (`microkernel::NR`-wide column tiles, depth-major within a
//!    tile) in a 64-byte-aligned scratch buffer, in parallel over tiles.
//!    Every row panel then reuses the same packed B, so packing cost is
//!    amortised over all of `m` (the old per-strip scheme repacked B for
//!    every panel, which sank small-`m`/large-`n` shapes).
//! 2. **Row panels** — the output is split into fixed `BLOCK`-row
//!    panels distributed over the worker pool ([`crate::pool`]). The
//!    panel size never depends on the thread count and each panel writes
//!    a disjoint output region, so results are **bit-identical for every
//!    `MEDSPLIT_THREADS` value**.
//! 3. **Microkernel** — within a panel, `microkernel::MR`-row blocks
//!    of A are packed and streamed through the register-blocked tile
//!    kernel compiled for [`crate::simd::active_isa`] (AVX2+FMA, or the
//!    portable reference). The inner (`k`) dimension is blocked by
//!    `kc_block` — sized from the shape, not a constant, so no shape
//!    pays for a mis-fitted panel. Edge tiles stage through an on-stack
//!    `MR×NR` buffer so every path runs the identical kernel.
//! 4. **Orientation** — a skinny output (few columns, many rows) runs
//!    as `Cᵀ = opB(B)ᵀ·opA(A)ᵀ` on the same kernel and packed B, so its
//!    rows fill whole NR tiles (`swapped`); the shape alone decides.
//!
//! Per output element the math is a fused multiply-add per depth step in
//! ascending `k` order on every ISA (see `microkernel`), so outputs
//! are also bit-identical across `MEDSPLIT_ISA` settings. Splitting `k`
//! into blocks does not change that order: the partial sum parked in `C`
//! between blocks is the same `f32` the register held.

use crate::error::{Result, TensorError};
use crate::ops::microkernel::{self, MR, NR};
use crate::pool;
use crate::scratch;
use crate::simd;
use crate::tensor::Tensor;

/// Output row-panel height: the unit of parallel work distribution.
/// Fixed (never derived from the thread count) to keep results
/// bit-identical across pool sizes; a multiple of [`MR`] so only the
/// final panel sees partial row blocks.
pub(crate) const BLOCK: usize = 11 * MR; // 66

/// Row-panel height for a plan-cached GEMM with `m` output rows: about
/// eight panels across `m` for load balance, a multiple of [`MR`] inside
/// `[MR, BLOCK]` — a function of the shape only, never the thread count.
pub(crate) fn row_block(m: usize) -> usize {
    (m.div_ceil(8).div_ceil(MR) * MR).clamp(MR, BLOCK)
}

/// Whether `C[m×n]` runs in the *swapped* orientation: computed as
/// `Cᵀ = opB(B)ᵀ·opA(A)ᵀ` on the same tile kernel, so that the small `n`
/// sits on the MR side and `m` fills whole NR-wide tiles. Chosen when
/// that takes strictly fewer MR×NR tiles and `n` fits one B tile in
/// whole MR panels; ties keep the direct orientation. A function of the
/// shape alone: the thread count and the ISA never enter.
///
/// `Dense(128→3)` over 256 rows is 43 direct tiles with 3 of 16 lanes
/// live, against 16 swapped ones; a batch of 8 at 10 outputs is 2
/// against 2 and stays direct.
pub(crate) fn swapped(m: usize, n: usize) -> bool {
    let panels = n.div_ceil(MR);
    panels * MR <= NR && panels * m.div_ceil(NR) < m.div_ceil(MR)
}

/// Output rows per parallel task of the swapped orientation: about
/// eight tasks across `m`, whole NR tiles, at most four tiles.
fn swapped_rows(m: usize) -> usize {
    (m.div_ceil(8).div_ceil(NR) * NR).clamp(NR, 4 * NR)
}

/// Upper bound on the inner-dimension block: `kc·NR` floats of packed B
/// plus `kc·MR` of packed A stay comfortably inside a 32 KiB L1 at 320.
const KC_MAX: usize = 320;

/// Inner-dimension block size for depth `k`: the smallest even split of
/// `k` whose blocks fit [`KC_MAX`]. Balanced blocks (e.g. `512 → 256`,
/// not `320 + 192`) keep per-block work uniform; deriving the size from
/// the shape fixed the small-`m`/large-`k` shapes the old constant
/// mis-sized.
fn kc_block(k: usize) -> usize {
    debug_assert!(k > 0);
    k.div_ceil(k.div_ceil(KC_MAX))
}

fn check_matrix(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: t.rank(),
            op,
        });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

/// How the compute driver obtains each MR-row panel of the logical A
/// operand.
#[derive(Clone, Copy)]
pub(crate) enum PanelsA<'a> {
    /// Read A through `(row, col)` strides, packing each MR block into a
    /// per-task scratch panel (the classic per-call path).
    Strided { src: &'a [f32], rs: usize, cs: usize },
    /// A was prepacked by a plan ([`crate::ops::plan`]):
    /// `m.div_ceil(MR)` consecutive `k*MR` panels, MR-major within a
    /// depth step, zero-padded past row `m` — byte-identical to what
    /// [`microkernel::pack_a_panel`] produces.
    Packed(&'a [f32]),
}

simd::kernel! {
    #[target_feature("avx2,fma")]
    /// The kb/jt tile loops over one MR-row block `c` (`mr ≤ MR` whole
    /// rows of C, row stride `n`): streams the packed A panel (`ap_all`,
    /// `k*MR` floats) and the whole packed B (`bpack`, `nt*k*NR`) through
    /// the register tile, blocked by `kc` in depth. Shared verbatim by the
    /// per-call path and the plan-cached paths, so both produce identical
    /// per-element operation sequences — the bit-identity contract. The
    /// one ISA dispatch per row block: every tile inlines into it.
    fn compute_row_block(ap_all: &[f32], bpack: &[f32], c: &mut [f32], k: usize, n: usize, kc: usize) {
        let mr = c.len() / n;
        for kb in (0..k).step_by(kc) {
            let kcur = (k - kb).min(kc);
            let ap = &ap_all[kb * MR..][..kcur * MR];
            for (jt, j0) in (0..n).step_by(NR).enumerate() {
                let cols = NR.min(n - j0);
                let bp = &bpack[jt * k * NR + kb * NR..][..kcur * NR];
                if mr == MR && cols == NR {
                    microkernel::tile::<MR>(ap, bp, &mut c[j0..], n);
                } else {
                    // Edge tile: stage through a full MR×NR buffer (valid
                    // C in the live region, zeros elsewhere; the packs are
                    // zero-padded so dead lanes accumulate 0) and run the
                    // identical tile — same per-element op order as
                    // interior tiles.
                    let mut stage = [0.0f32; MR * NR];
                    for (srow, crow) in stage.chunks_exact_mut(NR).zip(c.chunks_exact(n)) {
                        srow[..cols].copy_from_slice(&crow[j0..j0 + cols]);
                    }
                    microkernel::tile::<MR>(ap, bp, &mut stage, NR);
                    for (srow, crow) in stage.chunks_exact(NR).zip(c.chunks_exact_mut(n)) {
                        crow[j0..j0 + cols].copy_from_slice(&srow[..cols]);
                    }
                }
            }
        }
    }
}

/// The compute half of the GEMM driver: C row panels × prepacked B.
///
/// `bpack` must hold `n.div_ceil(NR)` tiles of `k*NR` floats in
/// microkernel order (64-byte aligned), exactly as
/// [`microkernel::pack_b_tile`] lays them out. `row_block` (a multiple
/// of [`MR`]) is the parallel work unit; it never affects results — each
/// output element always streams the full `k` range in ascending order
/// through the same fused kernel, so any `row_block`/`kc` choice is
/// bit-identical (the partial sum parked in C between `kc` blocks is the
/// same `f32` the register held). A strided A whose shape is
/// [`swapped`] runs [`gemm_compute_swapped`] on the same `bpack`
/// instead; prepacked A panels always run direct.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_compute_packed_b(
    a: PanelsA<'_>,
    bpack: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
    row_block: usize,
) {
    debug_assert_eq!(c.len(), m * n);
    debug_assert!(row_block >= MR && row_block.is_multiple_of(MR));
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            c.fill(0.0);
        }
        return;
    }
    if let PanelsA::Strided { src, rs, cs } = a {
        if swapped(m, n) {
            gemm_compute_swapped(src, rs, cs, bpack, c, m, k, n, accumulate);
            return;
        }
    }
    let kc = kc_block(k);
    debug_assert_eq!(bpack.len(), n.div_ceil(NR) * k * NR);
    pool::parallel_chunks_mut_sized(c, row_block * n, m * k * n, |pi, panel| {
        let i0 = pi * row_block;
        let rows = panel.len() / n;
        if !accumulate {
            panel.fill(0.0);
        }
        match a {
            PanelsA::Strided { src, rs, cs } => scratch::with_f32(k * MR, |apack| {
                for (ib, block) in (0..rows).step_by(MR).zip(panel.chunks_mut(MR * n)) {
                    microkernel::pack_a_panel(src, rs, cs, i0 + ib, block.len() / n, k, apack);
                    compute_row_block(apack, bpack, block, k, n, kc);
                }
            }),
            PanelsA::Packed(panels) => {
                for (ib, block) in (0..rows).step_by(MR).zip(panel.chunks_mut(MR * n)) {
                    let panel_a = &panels[((i0 + ib) / MR) * k * MR..][..k * MR];
                    compute_row_block(panel_a, bpack, block, k, n, kc);
                }
            }
        }
    });
}

/// The swapped orientation of [`gemm_compute_packed_b`]:
/// `C (+)= opA(A)·B` computed tile by tile as `Cᵀ = Bᵀ·opA(A)ᵀ`.
///
/// B is small (`n` lanes in whole MR panels fit one tile, see
/// [`swapped`]), so its one packed tile doubles as the A operand: read
/// with depth stride NR, lanes `ib..ib+MR` are the MR-row panel `ib` of
/// `Bᵀ`, zero-padded past `n` like any panel. `opA(A)ᵀ` is the B
/// operand: each NR-row block of A is packed as a B tile through the
/// transposed strides `(cs, rs)` — for a row-major A that is the
/// transposing pack. Each tile accumulates the whole depth in an
/// on-stack MR×NR stage (seeded from C when `accumulate`) and lands in
/// C transposed.
///
/// Per output element this is the direct path's sequence: one fused
/// multiply-add per depth step in ascending `p`, the two multiplicands
/// swapped. Fused multiply-add rounds the exact product `a·b + c` once,
/// so the swap changes no bit — except the payload of a NaN result when
/// both multiplicands are NaN, where the ISA may pick either operand's.
#[allow(clippy::too_many_arguments)]
fn gemm_compute_swapped(
    src: &[f32],
    rs: usize,
    cs: usize,
    btile: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    assert!(
        btile.len() >= k * NR && n.div_ceil(MR) * MR <= NR,
        "swapped GEMM: tile of {} for k={k}, n={n}",
        btile.len()
    );
    let task_rows = swapped_rows(m);
    pool::parallel_chunks_mut_sized(c, task_rows * n, m * k * n, |ti, chunk| {
        let i0 = ti * task_rows;
        scratch::with_f32(k * NR, |apack| {
            for (j0, block) in (0..).step_by(NR).zip(chunk.chunks_mut(NR * n)) {
                microkernel::pack_b_tile(src, cs, rs, i0 + j0, block.len() / n, k, apack);
                swapped_block(&btile[..k * NR], apack, block, n, accumulate);
            }
        });
    });
}

simd::kernel! {
    #[target_feature("avx2,fma")]
    /// One NR-row block `c` of the swapped orientation (`cols ≤ NR` whole
    /// rows of C, row stride `n`), its A rows packed as the B tile
    /// `apack`: every MR panel of `btile` read as A (depth stride NR)
    /// through the register tile in an on-stack stage, seeded from C when
    /// `accumulate` and landing in C transposed. The one ISA dispatch per
    /// block: every tile inlines into it.
    fn swapped_block(btile: &[f32], apack: &[f32], c: &mut [f32], n: usize, accumulate: bool) {
        let cols = c.len() / n;
        for ib in (0..n).step_by(MR) {
            let mr = MR.min(n - ib);
            let mut stage = [0.0f32; MR * NR];
            if accumulate {
                for (r, srow) in stage.chunks_exact_mut(NR).enumerate().take(mr) {
                    for (v, crow) in srow[..cols].iter_mut().zip(c.chunks_exact(n)) {
                        *v = crow[ib + r];
                    }
                }
            }
            microkernel::tile::<NR>(&btile[ib..], apack, &mut stage, NR);
            for (r, srow) in stage.chunks_exact(NR).enumerate().take(mr) {
                for (&v, crow) in srow[..cols].iter().zip(c.chunks_exact_mut(n)) {
                    crow[ib + r] = v;
                }
            }
        }
    }
}

/// Packs B (read through strides) into microkernel tile order inside a
/// scratch buffer and runs the compute driver with a prepacked A panel
/// set — the backward half of a conv plan (cached `Wᵀ` panels × fresh
/// per-step gradients).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_prepacked_a(
    a: PanelsA<'_>,
    b: &[f32],
    brs: usize,
    bcs: usize,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
    row_block: usize,
) {
    if m == 0 || n == 0 || k == 0 {
        gemm_compute_packed_b(a, &[], c, m, k, n, accumulate, row_block);
        return;
    }
    let nt = n.div_ceil(NR);
    scratch::with_f32(nt * k * NR, |bpack| {
        pool::parallel_chunks_mut_sized(bpack, k * NR, k * n, |jt, tile| {
            let j0 = jt * NR;
            microkernel::pack_b_tile(b, brs, bcs, j0, NR.min(n - j0), k, tile);
        });
        gemm_compute_packed_b(a, bpack, c, m, k, n, accumulate, row_block);
    });
}

/// The shared GEMM driver: `C (+)= opA(A) · opB(B)` where the logical
/// operands are described by row/column strides into the stored buffers
/// (`(k, 1)`/`(n, 1)` for untransposed row-major A/B; `(1, m)`/`(1, k)`
/// for transposed). When `accumulate` is false each output panel is
/// zeroed first; otherwise C must hold the partial sum to extend.
#[allow(clippy::too_many_arguments)]
fn gemm_strided(
    a: &[f32],
    ars: usize,
    acs: usize,
    b: &[f32],
    brs: usize,
    bcs: usize,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            c.fill(0.0);
        }
        return;
    }
    let nt = n.div_ceil(NR);
    scratch::with_f32(nt * k * NR, |bpack| {
        // Pack all of B once, in parallel over NR-wide column tiles.
        // Tile `jt` occupies `bpack[jt*k*NR ..][.. k*NR]`, depth-major,
        // zero-padded past column `n`; every `kb*NR` offset is 64-byte
        // aligned (NR floats = one cache line), so each depth step of a
        // tile reads B from one cache line.
        pool::parallel_chunks_mut_sized(bpack, k * NR, k * n, |jt, tile| {
            let j0 = jt * NR;
            microkernel::pack_b_tile(b, brs, bcs, j0, NR.min(n - j0), k, tile);
        });
        gemm_compute_packed_b(
            PanelsA::Strided {
                src: a,
                rs: ars,
                cs: acs,
            },
            bpack,
            c,
            m,
            k,
            n,
            accumulate,
            BLOCK,
        );
    });
}

/// `C += A · B` for row-major buffers; `c` must be zeroed (or hold a
/// partial sum to accumulate onto). Parallelised over row panels.
pub(crate) fn gemm_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    gemm_strided(a, k, 1, b, n, 1, c, m, k, n, true);
}

/// `C += Aᵀ · B` with `a` stored `[k, m]`; `c` (`[m, n]`) must be zeroed
/// (or hold a partial sum). The strided packing reads Aᵀ in place — no
/// transpose is materialised.
pub(crate) fn gemm_tn_into(a: &[f32], b: &[f32], c: &mut [f32], k: usize, m: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    gemm_strided(a, 1, m, b, n, 1, c, m, k, n, true);
}

/// `C = A · Bᵀ` (or `C += A · Bᵀ` when `accumulate`) with `b` stored
/// `[n, k]`. The strided packing reads Bᵀ in place.
pub(crate) fn gemm_nt_into(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    accumulate: bool,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    gemm_strided(a, k, 1, b, 1, k, c, m, k, n, accumulate);
}

impl Tensor {
    /// Matrix product of two rank-2 tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix inputs and
    /// [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
    ///
    /// ```
    /// use medsplit_tensor::Tensor;
    ///
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2])?;
    /// let i = Tensor::eye(2);
    /// assert_eq!(a.matmul(&i)?, a);
    /// # Ok::<(), medsplit_tensor::TensorError>(())
    /// ```
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k1) = check_matrix(self, "matmul")?;
        let (k2, n) = check_matrix(other, "matmul")?;
        if k1 != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().clone(),
                rhs: other.shape().clone(),
                op: "matmul",
            });
        }
        let _span = medsplit_telemetry::span("gemm");
        let mut out = Tensor::zeros([m, n]);
        gemm_into(self.as_slice(), other.as_slice(), out.as_mut_slice(), m, k1, n);
        Ok(out)
    }

    /// `Aᵀ · B` without materialising the transpose of `A`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`matmul`](Self::matmul), with the inner dimension
    /// being `A`'s rows.
    pub fn matmul_tn(&self, other: &Tensor) -> Result<Tensor> {
        let (k1, m) = check_matrix(self, "matmul_tn")?;
        let (k2, n) = check_matrix(other, "matmul_tn")?;
        if k1 != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().clone(),
                rhs: other.shape().clone(),
                op: "matmul_tn",
            });
        }
        let _span = medsplit_telemetry::span("gemm");
        let mut out = Tensor::zeros([m, n]);
        gemm_tn_into(self.as_slice(), other.as_slice(), out.as_mut_slice(), k1, m, n);
        Ok(out)
    }

    /// `A · Bᵀ` without materialising the transpose of `B`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`matmul`](Self::matmul), with the inner dimension
    /// being `B`'s columns.
    pub fn matmul_nt(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k1) = check_matrix(self, "matmul_nt")?;
        let (n, k2) = check_matrix(other, "matmul_nt")?;
        if k1 != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().clone(),
                rhs: other.shape().clone(),
                op: "matmul_nt",
            });
        }
        let _span = medsplit_telemetry::span("gemm");
        // Accumulate onto the fresh zeros rather than zero them twice.
        let mut out = Tensor::zeros([m, n]);
        gemm_nt_into(
            self.as_slice(),
            other.as_slice(),
            out.as_mut_slice(),
            m,
            n,
            k1,
            true,
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], [3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap();
        assert_eq!(a.matmul(&Tensor::eye(2)).unwrap(), a);
        assert_eq!(Tensor::eye(2).matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_shape_errors() {
        let a = Tensor::ones([2, 3]);
        let b = Tensor::ones([4, 2]);
        assert!(a.matmul(&b).is_err());
        assert!(Tensor::ones([3]).matmul(&a).is_err());
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..12).map(|i| i as f32).collect(), [4, 3]).unwrap();
        let b = Tensor::from_vec((0..8).map(|i| (i as f32) * 0.5).collect(), [4, 2]).unwrap();
        let direct = a.transpose().unwrap().matmul(&b).unwrap();
        let fused = a.matmul_tn(&b).unwrap();
        assert!(direct.allclose(&fused, 1e-5));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), [2, 3]).unwrap();
        let b = Tensor::from_vec((0..12).map(|i| (i as f32) - 3.0).collect(), [4, 3]).unwrap();
        let direct = a.matmul(&b.transpose().unwrap()).unwrap();
        let fused = a.matmul_nt(&b).unwrap();
        assert!(direct.allclose(&fused, 1e-5));
    }

    #[test]
    fn kc_blocks_are_balanced_and_bounded() {
        for k in [1usize, 5, 64, 320, 321, 512, 784, 1024, 5000] {
            let kc = kc_block(k);
            assert!((1..=KC_MAX).contains(&kc), "kc_block({k}) = {kc}");
            // Balanced: uses exactly as many blocks as the cap requires.
            assert_eq!(k.div_ceil(kc), k.div_ceil(KC_MAX), "kc_block({k}) = {kc}");
            // And no block is more than one step larger than the last.
            let last = k - (k.div_ceil(kc) - 1) * kc;
            assert!(kc - last < kc.max(2), "degenerate trailing block for k={k}");
        }
        assert_eq!(kc_block(512), 256);
    }

    #[test]
    fn row_blocks_are_mr_multiples_within_block() {
        for m in [0usize, 1, 5, 48, 64, 67, 528, 529, 10_000] {
            let rb = row_block(m);
            assert!(
                (MR..=BLOCK).contains(&rb) && rb.is_multiple_of(MR),
                "row_block({m}) = {rb}"
            );
        }
        assert_eq!(row_block(1), MR);
        assert_eq!(row_block(64), 2 * MR); // ~8 panels across m
        assert_eq!(row_block(10_000), BLOCK);
    }

    fn pseudo(seed: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i.wrapping_mul(2654435761).wrapping_add(seed) % 1000) as f32) / 499.0 - 1.0)
            .collect()
    }

    /// Per-element fused reference: ascending-`k` `mul_add` — the exact
    /// op sequence every kernel path (interior, edge-staged, any KC
    /// split, any ISA) must reproduce bit-for-bit.
    fn fused_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc = a[i * k + p].mul_add(b[p * n + j], acc);
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    #[test]
    fn gemm_bit_matches_fused_reference() {
        // Shapes chosen to hit: edge row blocks (m % MR != 0), edge
        // column tiles (n % NR != 0), multiple row panels (m > BLOCK),
        // multiple KC blocks (k > KC_MAX), and tiny everything.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (2, 3, 5),
            (MR, 7, NR),
            (MR + 1, 7, NR + 1),
            (70, 150, 72),
            (BLOCK + 5, KC_MAX + 9, 2 * NR + 3),
        ] {
            let a = pseudo(m * 31 + 1, m * k);
            let b = pseudo(n * 17 + 2, k * n);
            let expect = fused_reference(&a, &b, m, k, n);
            let mut c = vec![0.0f32; m * n];
            gemm_into(&a, &b, &mut c, m, k, n);
            assert_eq!(
                c.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "gemm ({m}x{k}x{n}) diverged from the fused reference"
            );
        }
    }

    #[test]
    fn orientation_is_swapped_only_when_it_saves_tiles() {
        // The MLP server (n = 3) and VGG-lite's head (n = 10) over a
        // training batch swap; batch-1 and batch-8 serving tie and keep
        // the direct orientation, as does anything 13+ wide.
        for (m, n, want) in [
            (256, 3, true),
            (64, 10, true),
            (7, 1, true),
            (1, 3, false),
            (6, 3, false),
            (8, 10, false),
            (256, 13, false),
            (4096, 15, false),
            (256, 128, false),
            (3, 256, false),
        ] {
            assert_eq!(swapped(m, n), want, "swapped({m}, {n})");
        }
        for m in 1..300 {
            for n in 1..40 {
                if swapped(m, n) {
                    assert!(n.div_ceil(MR) * MR <= NR, "panels of n={n} overflow one tile");
                }
            }
        }
    }

    /// Ascending-`k` `mul_add` onto an initial C.
    fn fused_onto(c0: &[f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = c0.to_vec();
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] = a[i * k + p].mul_add(b[p * n + j], c[i * n + j]);
                }
            }
        }
        c
    }

    #[test]
    fn swapped_gemm_bit_matches_fused_reference() {
        // Swapped shapes with partial NR row tiles, two and three MR
        // panels of n, depths past one kc block, and a task split.
        for &(m, k, n) in &[
            (256usize, 128usize, 3usize),
            (64, 128, 10),
            (7, 9, 1),
            (40, 5, 12),
            (150, 321, 6),
        ] {
            assert!(swapped(m, n), "{m}x{k}x{n} should swap");
            let a = pseudo(m * 7 + 1, m * k);
            let b = pseudo(n * 5 + 2, k * n);
            let c0 = pseudo(m + n, m * n);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

            let mut c = c0.clone();
            gemm_into(&a, &b, &mut c, m, k, n);
            assert_eq!(
                bits(&c),
                bits(&fused_onto(&c0, &a, &b, m, k, n)),
                "gemm onto C {m}x{k}x{n}"
            );

            let mut at = vec![0.0f32; k * m];
            for i in 0..m {
                for p in 0..k {
                    at[p * m + i] = a[i * k + p];
                }
            }
            let mut c = vec![0.0f32; m * n];
            gemm_tn_into(&at, &b, &mut c, k, m, n);
            assert_eq!(
                bits(&c),
                bits(&fused_reference(&a, &b, m, k, n)),
                "gemm_tn {m}x{k}x{n}"
            );

            let mut bt = vec![0.0f32; n * k];
            for p in 0..k {
                for j in 0..n {
                    bt[j * k + p] = b[p * n + j];
                }
            }
            let mut c = c0.clone();
            gemm_nt_into(&a, &bt, &mut c, m, n, k, false);
            assert_eq!(
                bits(&c),
                bits(&fused_reference(&a, &b, m, k, n)),
                "gemm_nt overwrite {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn gemm_variants_agree_with_nn_layouts() {
        let (m, k, n) = (13usize, 37usize, 21usize);
        let a = pseudo(3, m * k);
        let b = pseudo(4, k * n);
        let expect = fused_reference(&a, &b, m, k, n);

        // TN: store A as [k, m] (the transpose of `a`).
        let mut at = vec![0.0f32; k * m];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut c = vec![0.0f32; m * n];
        gemm_tn_into(&at, &b, &mut c, k, m, n);
        assert_eq!(c, expect, "gemm_tn");

        // NT: store B as [n, k] (the transpose of `b`).
        let mut bt = vec![0.0f32; n * k];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        let mut c = vec![1.0f32; m * n]; // non-zero: !accumulate must overwrite
        gemm_nt_into(&a, &bt, &mut c, m, n, k, false);
        assert_eq!(c, expect, "gemm_nt overwrite");

        // NT accumulate extends the partial sum.
        gemm_nt_into(&a, &bt, &mut c, m, n, k, true);
        let doubled: Vec<f32> = expect
            .iter()
            .zip(&c)
            .map(|(&e, &g)| {
                assert!((g - 2.0 * e).abs() <= 1e-4 * e.abs().max(1.0));
                g
            })
            .collect();
        assert_eq!(doubled.len(), m * n);
    }

    #[test]
    fn wide_output_reuses_the_shared_b_pack() {
        // A small-m / large-n shape (the class that regressed under the
        // old per-panel strip packing) against spot-checked naive values.
        let (m, k, n) = (3usize, 33usize, 1041usize);
        let a = Tensor::from_vec(pseudo(1, m * k), [m, k]).unwrap();
        let b = Tensor::from_vec(pseudo(2, k * n), [k, n]).unwrap();
        let c = a.matmul(&b).unwrap();
        for &(i, j) in &[(0usize, 0usize), (2, n - 1), (1, 512), (2, 511)] {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.as_slice()[i * k + p] * b.as_slice()[p * n + j];
            }
            assert!((acc - c.as_slice()[i * n + j]).abs() < 1e-3, "({i},{j})");
        }
    }
}
