//! Register-blocked GEMM microkernels and their packing routines.
//!
//! The packed GEMM in [`super::matmul`] bottoms out here: a fixed
//! [`MR`]×[`NR`] tile of the output is held in registers while a whole
//! `k`-panel of packed A and B streams through it. The tile ([`tile`])
//! is one portable body over slices — a 6×16 array of accumulators and
//! [`f32::mul_add`] per element — marked `#[inline(always)]`, so it takes
//! the compilation of whatever calls it. The callers in
//! [`super::matmul`] are `simd::kernel!` bodies, one per row block of C:
//! under `Isa::Scalar` the tile runs as written, under AVX2 compiled for
//! AVX2+FMA (12 `ymm` accumulators, `vfmadd` per element). The ISA is
//! read once per row block, never per tile.
//!
//! # Layout
//!
//! For a tile update `C[MR×NR] += A_panel · B_panel` over depth `k`:
//!
//! - `a` is an A panel with depth stride `LDA ≥ MR` (a const generic):
//!   `a[p*LDA + ir]` is row `ir` of A at depth `p` (zero-padded when the
//!   caller's row block is narrower than MR). Packed A panels are
//!   **MR-major** (`LDA = MR`); the swapped GEMM orientation reads a
//!   packed B tile as A with `LDA = NR` (see [`super::matmul`]);
//! - `b` holds `k×NR` floats, **NR-major**: `b[p*NR + jr]` is column
//!   `jr` of B at depth `p` (zero-padded past the matrix edge);
//! - `c` is row-major with leading dimension `ldc ≥ NR`.
//!
//! # Bit-identity
//!
//! Both compilations compute, for every output element independently,
//! `c += a*b` fused (single rounding) at each depth step, in ascending
//! `p`. An FMA vector lane and [`f32::mul_add`] are both IEEE 754
//! `fusedMultiplyAdd`, so the results are **bit-identical** across ISAs —
//! the property `MEDSPLIT_ISA=scalar` A/B testing and the cross-ISA
//! determinism tests rely on. The portable kernel's `mul_add` lowers to a
//! libm call on builds without compile-time FMA, making it a slow
//! reference path by design; dispatch exists so it only runs when asked.

use crate::simd::{self, Isa};

/// Microkernel tile height (output rows held in registers).
pub(crate) const MR: usize = 6;
/// Microkernel tile width (output columns held in registers).
pub(crate) const NR: usize = 16;

/// The register-blocked tile update `C[MR×NR] += A_panel · B_panel` over
/// depth `k = b.len() / NR`: row `ir` of A at depth `p` is
/// `a[p*LDA + ir]`, column `jr` of B is `b[p*NR + jr]`, and `c` holds
/// the tile row-major at row stride `ldc`. Accumulates in a local 6×16
/// array (the register tile): load C once, stream the panels, store C
/// once, with one [`f32::mul_add`] per element per depth step.
///
/// Not dispatched itself: it inlines into the callers' dispatched
/// bodies (`simd::kernel!` in [`super::matmul`]), which pick the
/// compilation once per row block, so each tile runs as the caller was
/// compiled.
///
/// # Panics
///
/// If `a` is shorter than the `k` depth steps it must hold or `c` than
/// a whole tile at row stride `ldc`.
#[inline(always)]
pub(crate) fn tile<const LDA: usize>(a: &[f32], b: &[f32], c: &mut [f32], ldc: usize) {
    let k = b.len() / NR;
    assert!(
        k == 0 || a.len() >= (k - 1) * LDA + MR,
        "tile: A of {} for k={k}",
        a.len()
    );
    let mut acc = [[0.0f32; NR]; MR];
    for (ir, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[ir * ldc..][..NR]);
    }
    for (ap, bp) in a.chunks(LDA).zip(b.as_chunks::<NR>().0) {
        for (row, &av) in acc.iter_mut().zip(&ap[..MR]) {
            for (v, &bv) in row.iter_mut().zip(bp) {
                *v = av.mul_add(bv, *v);
            }
        }
    }
    for (ir, row) in acc.iter().enumerate() {
        c[ir * ldc..][..NR].copy_from_slice(row);
    }
}

/// Packs one MR-wide row panel of A into microkernel order:
/// `dst[p*MR + ir] = src[(i0+ir)*rs + p*cs]` for `p in 0..k`, rows past
/// `rows` zero-filled.
///
/// `(rs, cs)` are the row/column strides of the *logical* (possibly
/// transposed) A: `(k, 1)` for `A`, `(1, m)` for `Aᵀ` stored row-major.
/// The copy is chosen by stride class (see [`pack_lanes`]).
pub(crate) fn pack_a_panel(
    src: &[f32],
    rs: usize,
    cs: usize,
    i0: usize,
    rows: usize,
    k: usize,
    dst: &mut [f32],
) {
    pack_lanes::<MR>(src, rs, cs, i0, rows, k, dst);
}

/// Packs one NR-wide column tile of B into microkernel order:
/// `dst[p*NR + jr] = src[p*rs + (j0+jr)*cs]` for `p in 0..k`, columns
/// past `cols` zero-filled.
///
/// `(rs, cs)` are the row/column strides of the *logical* (possibly
/// transposed) B: `(n, 1)` for `B`, `(1, k)` for `Bᵀ` stored row-major.
/// The copy is chosen by stride class (see [`pack_lanes`]).
pub(crate) fn pack_b_tile(
    src: &[f32],
    rs: usize,
    cs: usize,
    j0: usize,
    cols: usize,
    k: usize,
    dst: &mut [f32],
) {
    pack_lanes::<NR>(src, cs, rs, j0, cols, k, dst);
}

/// The one packing routine behind both panel shapes: `W` lanes (rows of
/// an A panel, columns of a B tile) at depth `p` land contiguously,
/// `dst[p*W + l] = src[(l0+l)*ls + p*ds]` for `l < lanes`, and zeros for
/// `l in lanes..W`.
///
/// The loop is picked from the strides alone — never from the thread
/// count or the ISA — and every class writes the same bytes:
///
/// - **lane stride 1** — each depth step is one contiguous run of
///   `lanes` floats: a fixed-width copy per step (B of `A·B`, A and B
///   of `Aᵀ·B`);
/// - **depth stride 1** — each lane is one contiguous run of `k` floats,
///   so the pack is a transpose ([`transpose_pack`]: 8×8 register
///   blocks on AVX2, a per-lane scatter elsewhere) (A of `A·B`, B of
///   `A·Bᵀ`, and the big operand of the swapped orientation);
/// - anything else — the per-element gather.
fn pack_lanes<const W: usize>(
    src: &[f32],
    ls: usize,
    ds: usize,
    l0: usize,
    lanes: usize,
    k: usize,
    dst: &mut [f32],
) {
    assert!(
        lanes <= W && dst.len() == k * W,
        "pack: {lanes} lanes of {W}, dst {} for k={k}",
        dst.len()
    );
    if ls == 1 {
        // Fixed-width moves: a whole tile copies `W` floats per step, an
        // edge one selects per lane (no length-dependent memcpy call).
        for (p, out) in dst.chunks_exact_mut(W).enumerate() {
            let run = &src[l0 + p * ds..][..lanes];
            if let (Ok(out), Ok(run)) = (<&mut [f32; W]>::try_from(&mut *out), <&[f32; W]>::try_from(run)) {
                *out = *run;
            } else {
                for (l, v) in out.iter_mut().enumerate() {
                    *v = run.get(l).copied().unwrap_or(0.0);
                }
            }
        }
    } else if ds == 1 {
        transpose_pack::<W>(src, ls, l0, lanes, k, dst);
    } else {
        for (p, out) in dst.chunks_exact_mut(W).enumerate() {
            for (l, v) in out.iter_mut().enumerate() {
                *v = if l < lanes {
                    src[(l0 + l) * ls + p * ds]
                } else {
                    0.0
                };
            }
        }
    }
}

/// The depth-stride-1 class of [`pack_lanes`]: lane `l` is the run
/// `src[(l0+l)*ls ..][..k]`, written down column `l` of the `k×W`
/// destination. Dispatched on the active ISA; both bodies move bits and
/// nothing else, so they agree exactly (NaN payloads included).
fn transpose_pack<const W: usize>(
    src: &[f32],
    ls: usize,
    l0: usize,
    lanes: usize,
    k: usize,
    dst: &mut [f32],
) {
    if lanes == 0 || k == 0 {
        dst.fill(0.0);
        return;
    }
    // One bounds check for the whole pack: the last lane's run ends
    // inside `src` (the AVX2 body reads unchecked).
    let end = (l0 + lanes - 1) * ls + k;
    assert!(
        end <= src.len(),
        "transpose pack reads to {end}, source has {}",
        src.len()
    );
    #[cfg(target_arch = "x86_64")]
    if simd::active_isa() == Isa::Avx2 {
        // SAFETY: AVX2 is available (the active ISA is only ever set to
        // a supported one); every lane's run was bounds-checked above
        // and `dst` holds exactly `k*W` floats (checked by the caller).
        unsafe { transpose_pack_avx2::<W>(src, ls, l0, lanes, k, dst) };
        return;
    }
    transpose_pack_portable::<W>(src, ls, l0, lanes, k, dst);
}

fn transpose_pack_portable<const W: usize>(
    src: &[f32],
    ls: usize,
    l0: usize,
    lanes: usize,
    k: usize,
    dst: &mut [f32],
) {
    for l in 0..W {
        if l < lanes {
            let run = &src[(l0 + l) * ls..][..k];
            for (out, &v) in dst.chunks_exact_mut(W).zip(run) {
                out[l] = v;
            }
        } else {
            for out in dst.chunks_exact_mut(W) {
                out[l] = 0.0;
            }
        }
    }
}

/// AVX2 body of [`transpose_pack`]: lanes in groups of eight, depth in
/// steps of eight, each 8×8 block loaded as sixteen four-depth quads of
/// lane rows and transposed in registers into eight depth rows (sixteen
/// in-lane shuffles, no cross-lane permute). Lanes past `lanes` load as
/// zeros (that is the padding); a depth tail shorter than eight uses
/// masked loads, and a lane group narrower than eight (the last group of
/// an MR = 6 panel) masked stores.
///
/// # Safety
///
/// AVX2 must be available; `src[(l0+l)*ls + p]` must be in bounds for
/// every `l < lanes`, `p < k`, and `dst.len() == k*W`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose_pack_avx2<const W: usize>(
    src: &[f32],
    ls: usize,
    l0: usize,
    lanes: usize,
    k: usize,
    dst: &mut [f32],
) {
    use std::arch::x86_64::*;
    // Lane `i` of `first(n)` is all-ones for `i < n`.
    let first = |n: usize| {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(n as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    };
    // SAFETY throughout: loads stay inside the lane runs the caller
    // guarantees (masked-off elements of a masked load are not
    // accessed), and stores stay inside `dst`: row `p < k`, columns
    // `g0..g0+width` with `g0 + width <= W`.
    unsafe {
        let base = src.as_ptr().add(l0 * ls);
        let out = dst.as_mut_ptr();
        // `a[j]` holds lane j%4 in its low half and lane j%4 + 4 in its
        // high half, depths 4·(j/4)..+4 of the block: each 128-bit half
        // is a 4×4 transpose away from depth rows, so no cross-half
        // permute is needed. Returns depth row `q` (the block's eight
        // lanes at depth `q`) in slot `q`.
        let transpose = |a: [__m256; 8]| {
            let mut rows = [_mm256_setzero_ps(); 8];
            for (h, out4) in rows.chunks_exact_mut(4).enumerate() {
                let a = &a[4 * h..4 * h + 4];
                let t0 = _mm256_unpacklo_ps(a[0], a[1]);
                let t1 = _mm256_unpackhi_ps(a[0], a[1]);
                let t2 = _mm256_unpacklo_ps(a[2], a[3]);
                let t3 = _mm256_unpackhi_ps(a[2], a[3]);
                out4[0] = _mm256_shuffle_ps::<0x44>(t0, t2);
                out4[1] = _mm256_shuffle_ps::<0xEE>(t0, t2);
                out4[2] = _mm256_shuffle_ps::<0x44>(t1, t3);
                out4[3] = _mm256_shuffle_ps::<0xEE>(t1, t3);
            }
            rows
        };
        // Builds `a` from `quad(lane, first depth)` (a macro, so each
        // loader inlines).
        macro_rules! gather {
            ($quad:expr) => {{
                let quad = $quad;
                let pair = |l: usize, d0: usize| {
                    _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(quad(l, d0)), quad(l + 4, d0))
                };
                [
                    pair(0, 0),
                    pair(1, 0),
                    pair(2, 0),
                    pair(3, 0),
                    pair(0, 4),
                    pair(1, 4),
                    pair(2, 4),
                    pair(3, 4),
                ]
            }};
        }
        for g0 in (0..W).step_by(8) {
            let width = (W - g0).min(8);
            let live = lanes.saturating_sub(g0).min(8);
            let store_mask = first(width);
            let mut p0 = 0;
            while p0 < k {
                let depth = (k - p0).min(8);
                let rows = if live == 8 && depth == 8 {
                    transpose(gather!(|l: usize, d0: usize| _mm_loadu_ps(
                        base.add((g0 + l) * ls + p0 + d0)
                    )))
                } else {
                    // Zeros past the live lanes, a masked load past the
                    // depth end.
                    transpose(gather!(|l: usize, d0: usize| {
                        if l >= live || depth <= d0 {
                            return _mm_setzero_ps();
                        }
                        let at = base.add((g0 + l) * ls + p0 + d0);
                        if depth >= d0 + 4 {
                            _mm_loadu_ps(at)
                        } else {
                            _mm_maskload_ps(at, _mm256_castsi256_si128(first(depth - d0)))
                        }
                    }))
                };
                for (q, v) in rows.iter().enumerate().take(depth) {
                    let at = out.add((p0 + q) * W + g0);
                    if width == 8 {
                        _mm256_storeu_ps(at, *v);
                    } else {
                        _mm256_maskstore_ps(at, store_mask, *v);
                    }
                }
                p0 += 8;
            }
        }
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

    /// Fused reference for a full tile: same math the kernels promise.
    fn reference_tile(k: usize, a: &[f32], b: &[f32], c: &mut [f32], ldc: usize) {
        for p in 0..k {
            for ir in 0..MR {
                let av = a[p * MR + ir];
                for jr in 0..NR {
                    c[ir * ldc + jr] = av.mul_add(b[p * NR + jr], c[ir * ldc + jr]);
                }
            }
        }
    }

    /// 64-byte-aligned copy of `src`, mirroring the scratch arena's
    /// guarantee for pack buffers.
    fn aligned_copy(src: &[f32]) -> Vec<f32> {
        crate::scratch::with_f32(src.len(), |buf| {
            buf.copy_from_slice(src);
            // The arena hands the same aligned buffer back, so test via a
            // plain copy round-trip is not enough; instead run the kernel
            // inside the closure where alignment holds.
            buf.to_vec()
        })
    }

    simd::kernel! {
        #[target_feature("avx2,fma")]
        /// The tile behind one dispatch, as the GEMM drivers run it.
        fn dispatched_tile<const LDA: usize>(a: &[f32], b: &[f32], c: &mut [f32], ldc: usize) {
            tile::<LDA>(a, b, c, ldc)
        }
    }

    /// The portable tile, and the dispatched tile at every ISA, against
    /// the fused reference, on a C tile with row stride `ldc > NR` whose
    /// gap columns the tile must leave alone.
    #[test]
    fn portable_kernel_matches_fused_reference() {
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for k in [1usize, 2, 7, 33, 64, 321] {
            let a = mk(k as u32, k * MR);
            let b = mk(100 + k as u32, k * NR);
            let ldc = NR + 3;
            let c0 = mk(200 + k as u32, MR * ldc);
            let mut expect = c0.clone();
            reference_tile(k, &a, &b, &mut expect, ldc);
            let mut c = c0.clone();
            tile::<MR>(&a, &b, &mut c, ldc);
            assert_eq!(bits(&c), bits(&expect), "portable k={k}");
            simd::for_each_isa(|isa| {
                let mut c = c0.clone();
                dispatched_tile::<MR>(&a, &b, &mut c, ldc);
                assert_eq!(bits(&c), bits(&expect), "{} k={k}", isa.name());
            });
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernel_bit_matches_portable() {
        if !crate::simd::supported(Isa::Avx2) {
            eprintln!("skipping: host lacks AVX2+FMA");
            return;
        }
        for k in [1usize, 3, 8, 57] {
            let a = mk(7 + k as u32, k * MR);
            let b = mk(11 + k as u32, k * NR);
            let ldc = NR;
            let seed_c = mk(13 + k as u32, MR * ldc);

            let mut c_portable = seed_c.clone();
            tile::<MR>(&a, &b, &mut c_portable, ldc);

            // Run the AVX2 compilation with B in an aligned buffer, as
            // the GEMM drivers do.
            let c_avx2 = crate::scratch::with_f32(k * NR, |bbuf| {
                bbuf.copy_from_slice(&b);
                let mut c = seed_c.clone();
                simd::for_each_isa(|isa| {
                    if isa == Isa::Avx2 {
                        dispatched_tile::<MR>(&a, bbuf, &mut c, ldc);
                    }
                });
                c
            });
            assert_eq!(
                c_avx2.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                c_portable.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "AVX2 and portable kernels diverged at k={k}"
            );
        }
    }

    /// A depth stride too short for the depth B implies is refused.
    #[test]
    #[should_panic(expected = "tile: A of")]
    fn tile_checks_the_a_extent() {
        let (a, b) = (vec![0.0f32; 2 * MR - 1], vec![0.0f32; 2 * NR]);
        tile::<MR>(&a, &b, &mut [0.0; MR * NR], NR);
    }

    #[test]
    fn pack_a_lays_out_mr_major_with_zero_padding() {
        // A is 4×3 row-major; pack the panel starting at row 0 with only
        // 4 valid rows (< MR), strides (rs=3, cs=1).
        let (m, k) = (4usize, 3usize);
        let a: Vec<f32> = (0..m * k).map(|i| i as f32 + 1.0).collect();
        let mut dst = vec![f32::NAN; k * MR];
        pack_a_panel(&a, k, 1, 0, m, k, &mut dst);
        for p in 0..k {
            for ir in 0..MR {
                let got = dst[p * MR + ir];
                if ir < m {
                    assert_eq!(got, a[ir * k + p], "p={p} ir={ir}");
                } else {
                    assert_eq!(got, 0.0, "padding p={p} ir={ir}");
                }
            }
        }
    }

    #[test]
    fn pack_a_transposed_strides_read_a_t() {
        // Logical A' = Aᵀ where stored A is k×m row-major: rs=1, cs=m.
        let (k, m) = (3usize, 2usize);
        let a: Vec<f32> = (0..k * m).map(|i| i as f32).collect();
        let mut dst = vec![f32::NAN; k * MR];
        pack_a_panel(&a, 1, m, 0, m, k, &mut dst);
        for p in 0..k {
            for ir in 0..m {
                assert_eq!(dst[p * MR + ir], a[p * m + ir]);
            }
        }
    }

    #[test]
    fn pack_b_lays_out_nr_major_with_zero_padding() {
        // B is 3×20 row-major; tile at j0=16 has only 4 valid columns.
        let (k, n) = (3usize, 20usize);
        let b: Vec<f32> = (0..k * n).map(|i| i as f32 * 0.5).collect();
        let mut dst = vec![f32::NAN; k * NR];
        pack_b_tile(&b, n, 1, 16, n - 16, k, &mut dst);
        for p in 0..k {
            for jr in 0..NR {
                let got = dst[p * NR + jr];
                if 16 + jr < n {
                    assert_eq!(got, b[p * n + 16 + jr], "p={p} jr={jr}");
                } else {
                    assert_eq!(got, 0.0, "padding p={p} jr={jr}");
                }
            }
        }
    }

    /// The defining formula of a `W`-lane pack:
    /// `dst[p*W + l] = src[(l0+l)*ls + p*ds]` for `l < lanes`, `+0.0`
    /// for the padding lanes — as bit patterns.
    fn pack_oracle<const W: usize>(
        src: &[f32],
        ls: usize,
        ds: usize,
        l0: usize,
        lanes: usize,
        k: usize,
    ) -> Vec<u32> {
        (0..k * W)
            .map(|i| {
                let (p, l) = (i / W, i % W);
                if l < lanes {
                    src[(l0 + l) * ls + p * ds].to_bits()
                } else {
                    0
                }
            })
            .collect()
    }

    /// Arbitrary bit patterns (NaN payloads, infinities, subnormals
    /// included): a pack must move bits, never values.
    fn raw_bits(seed: u32, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| f32::from_bits((i as u32 ^ seed).wrapping_mul(2654435761).rotate_left(13)))
            .collect()
    }

    const PACK_DEPTHS: [usize; 6] = [1, 7, 8, 9, 320, 321];

    /// Every stride class of `pack_a_panel` / `pack_b_tile` through the
    /// dispatched entry points, against the formula: contiguous lanes,
    /// contiguous depth (the transpose) and the generic gather, every
    /// lane count up to the full width, the depths either side of an
    /// eight-deep block and of one `kc` block, sources read from an odd
    /// offset (so no vector load is aligned), and padding lanes that must
    /// come out `+0.0` over a NaN-filled destination.
    /// `pack_a_panel` / `pack_b_tile`: `(src, rs, cs, first lane, lanes, k, dst)`.
    type Pack = fn(&[f32], usize, usize, usize, usize, usize, &mut [f32]);

    #[test]
    fn stride_class_packs_match_the_defining_formula() {
        fn check<const W: usize>(pack: Pack, a_side: bool) {
            for k in PACK_DEPTHS {
                for lanes in 1..=W {
                    let l0 = 3;
                    let total = l0 + lanes + 2;
                    // (lane stride, depth stride): contiguous lanes, the
                    // transpose, and a gather through a padded row.
                    for (ls, ds) in [(1, total + 1), (k + 5, 1), (2 * k + 3, 2)] {
                        let len = (l0 + lanes - 1) * ls + (k - 1) * ds + 1;
                        let buf = raw_bits((k * 131 + lanes * 7 + ls) as u32, len + 1);
                        let src = &buf[1..];
                        let mut dst = vec![f32::NAN; k * W];
                        // A panels take (rs, cs) = (lane, depth) strides;
                        // B tiles (rs, cs) = (depth, lane).
                        let (rs, cs) = if a_side { (ls, ds) } else { (ds, ls) };
                        pack(src, rs, cs, l0, lanes, k, &mut dst);
                        assert_eq!(
                            dst.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            pack_oracle::<W>(src, ls, ds, l0, lanes, k),
                            "W={W} k={k} lanes={lanes} ls={ls} ds={ds}"
                        );
                    }
                }
            }
        }
        check::<MR>(pack_a_panel, true);
        check::<NR>(pack_b_tile, false);
    }

    /// Both bodies of the transposing pack, called directly rather than
    /// through dispatch, against the formula at both panel widths: every
    /// depth from 0 through 33 (a whole 8-deep block plus every tail) and
    /// the depths either side of one `kc` block, sources starting 0–3
    /// floats past a 64-byte boundary, and ±0, subnormals, ±inf and
    /// quiet and signalling NaNs among the arbitrary bit patterns.
    #[test]
    fn transpose_bodies_match_the_defining_formula() {
        const SPECIALS: [u32; 8] = [
            0,
            0x8000_0000,
            1,
            0x8000_0400,
            0x7F80_0000,
            0xFF80_0000,
            0x7FC0_1234,
            0xFFA0_0001,
        ];
        fn check<const W: usize>() {
            for k in (0..=33).chain(PACK_DEPTHS) {
                for lanes in 1..=W {
                    let (l0, ls) = (2, k + 3);
                    let mut bits = raw_bits((k * 17 + lanes) as u32, (l0 + lanes) * ls + 3);
                    for (i, v) in bits.iter_mut().enumerate().step_by(5) {
                        *v = f32::from_bits(SPECIALS[i / 5 % SPECIALS.len()]);
                    }
                    crate::scratch::with_f32(bits.len(), |buf| {
                        buf.copy_from_slice(&bits);
                        for start in 0..4 {
                            let src = &buf[start..];
                            let want = pack_oracle::<W>(src, ls, 1, l0, lanes, k);
                            let at = format!("W={W} k={k} lanes={lanes} start={start}");
                            let mut dst = vec![f32::NAN; k * W];
                            transpose_pack_portable::<W>(src, ls, l0, lanes, k, &mut dst);
                            let got: Vec<u32> = dst.iter().map(|v| v.to_bits()).collect();
                            assert_eq!(got, want, "portable {at}");
                            #[cfg(target_arch = "x86_64")]
                            if crate::simd::supported(Isa::Avx2) {
                                let mut dst = vec![f32::NAN; k * W];
                                // SAFETY: AVX2 is present; the source holds
                                // every lane's run and `dst` is `k*W` long.
                                unsafe { transpose_pack_avx2::<W>(src, ls, l0, lanes, k, &mut dst) };
                                let got: Vec<u32> = dst.iter().map(|v| v.to_bits()).collect();
                                assert_eq!(got, want, "avx2 {at}");
                            }
                        }
                    });
                }
            }
        }
        check::<MR>();
        check::<NR>();
    }

    /// A source too short for the last lane's run is refused up front.
    #[test]
    #[should_panic(expected = "transpose pack reads")]
    fn transpose_pack_checks_the_source_extent() {
        let src = vec![0.0f32; 4 * 10 - 1];
        let mut dst = vec![0.0f32; 10 * NR];
        pack_b_tile(&src, 1, 10, 0, 4, 10, &mut dst);
    }

    /// The kernels read A with the caller's depth stride: a B tile read
    /// as A (`lda = NR`, the swapped orientation) gives the fused
    /// reference over the first MR of its lanes.
    #[test]
    fn kernels_honour_the_a_depth_stride() {
        for k in [1usize, 5, 40] {
            let wide = mk(3 + k as u32, k * NR);
            let narrow: Vec<f32> = (0..k * MR).map(|i| wide[(i / MR) * NR + i % MR]).collect();
            let b = mk(5 + k as u32, k * NR);
            let mut expect = mk(9 + k as u32, MR * NR);
            let seed_c = expect.clone();
            reference_tile(k, &narrow, &b, &mut expect, NR);
            crate::scratch::with_f32(k * NR, |bbuf| {
                bbuf.copy_from_slice(&b);
                let mut c = seed_c.clone();
                dispatched_tile::<NR>(&wide, bbuf, &mut c, NR);
                assert_eq!(
                    c.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "k={k}"
                );
            });
        }
    }

    #[test]
    fn aligned_copy_helper_is_aligned_in_place() {
        // Sanity-check the alignment premise the AVX2 test relies on.
        let v = aligned_copy(&mk(1, 32));
        assert_eq!(v.len(), 32);
        crate::scratch::with_f32(NR * 4, |buf| {
            assert_eq!(buf.as_ptr() as usize % crate::scratch::ALIGN, 0);
        });
    }
}
