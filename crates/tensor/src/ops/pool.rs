//! 2-D max- and average-pooling with exact backward passes.
//!
//! A pooling window is clamped to the image once per output row and once
//! per output column (`window`); the loops over it then read only real
//! elements, with no bounds test of their own — padding is never
//! materialised, it is simply not visited. That needs every window to
//! hold at least one element, which [`Conv2dSpec::pool_output_hw`]
//! guarantees by refusing `padding >= kernel`. The max-pool additionally
//! gives whole 2×2 and 3×3 windows an unrolled copy of its scan. The
//! visiting order inside a window is unchanged — rows, then columns —
//! so sums accumulate and ties break exactly as they always have.
//!
//! The 2×2, stride-2, unpadded max-pool (every window whole; the VGG
//! pools) has a path of its own, picked by the geometry alone: the
//! output rows of all planes form one sequence, cut into blocks of
//! whole planes, and each block runs a dispatched body — on AVX2 eight
//! outputs at a time, their input rows de-interleaved into even and odd
//! columns and the four window elements compared and blended in scan
//! order (the argmax as a vector of flat indices); elsewhere, and for
//! outputs that fill no group of eight, the scan. Both give every output
//! the scan's value and argmax: the first strictly greater element
//! wins, NaN never wins, and a window of NaN and `-inf` falls back to
//! the plane's first element.
//!
//! The forward passes and the average-pooling backward pass are
//! parallelised over `(batch, channel)` planes (blocks of them for the
//! 2×2 max-pool) — every plane writes a
//! disjoint output region, so results are identical for any pool size.
//! The max-pooling backward pass stays sequential: it scatters through
//! caller-supplied `argmax` indices, which the type system cannot prove
//! disjoint, and it is a single cheap pass.

use crate::error::{Result, TensorError};
use crate::ops::check_nchw;
use crate::ops::conv::Conv2dSpec;
use crate::pool;
#[cfg(target_arch = "x86_64")]
use crate::simd::{self, Isa};
use crate::tensor::Tensor;

/// Result of a max-pooling forward pass: the pooled tensor plus the flat
/// input index each output element was taken from (needed by the backward
/// pass).
#[derive(Debug, Clone)]
pub struct MaxPoolOutput {
    /// Pooled activations, `[N, C, OH, OW]`.
    pub output: Tensor,
    /// For each output element, the flat index into the input buffer of the
    /// winning element.
    pub argmax: Vec<usize>,
}

/// The input rows (or columns) `[lo, hi)` that output index `o`'s window
/// covers along an axis of `len` elements: the window clamped to the
/// image once, so the loops over it need no bounds test per element.
/// Relies on `padding < kernel` ([`Conv2dSpec::pool_output_hw`]).
fn window(spec: Conv2dSpec, o: usize, kernel: usize, len: usize) -> std::ops::Range<usize> {
    let start = o * spec.stride;
    start.saturating_sub(spec.padding)..(start + kernel - spec.padding).min(len)
}

/// The output indices, of `out_len` along an axis of `len` elements,
/// whose window [`window`] leaves whole.
fn whole_windows(spec: Conv2dSpec, out_len: usize, kernel: usize, len: usize) -> std::ops::Range<usize> {
    let first = spec.padding.div_ceil(spec.stride).min(out_len);
    let end = ((len + spec.padding).saturating_sub(kernel) / spec.stride + 1).min(out_len);
    first..end.max(first)
}

/// The maximum of the `rows × cols` window whose first element is
/// `src[at]` in a plane of width `w`, and its index: the first strictly
/// greater element wins, `(-inf, fallback)` if none is.
#[inline(always)]
fn scan_window(src: &[f32], at: usize, rows: usize, cols: usize, w: usize, fallback: usize) -> (f32, usize) {
    let mut best = f32::NEG_INFINITY;
    let mut best_idx = fallback;
    for ky in 0..rows {
        let row = at + ky * w;
        for (kx, &v) in src[row..row + cols].iter().enumerate() {
            // Two selects on one comparison rather than a branch: which
            // element of a window wins is data the predictor cannot learn.
            let wins = v > best;
            best = if wins { v } else { best };
            best_idx = if wins { row + kx } else { best_idx };
        }
    }
    (best, best_idx)
}

/// Max-pooling forward pass over an `NCHW` tensor.
///
/// Padding positions are treated as `-inf` (they never win). Within a
/// window the first strictly greater element wins, scanning rows then
/// columns, so ties keep the earliest position and NaN never wins; a
/// window holding nothing but NaN and `-inf` yields `-inf` with the
/// plane's first element as its argmax.
///
/// # Errors
///
/// Returns shape errors for non-4-D inputs, non-fitting windows, or
/// `padding >= kernel`.
pub fn maxpool2d_forward(input: &Tensor, spec: Conv2dSpec) -> Result<MaxPoolOutput> {
    let (n, c, h, w) = check_nchw(input, "maxpool2d")?;
    let (oh, ow) = spec.pool_output_hw(h, w)?;
    let mut output = Tensor::zeros([n, c, oh, ow]);
    let mut argmax = vec![0usize; n * c * oh * ow];
    let src = input.as_slice();
    let plane = oh * ow;
    let Conv2dSpec {
        kernel_h: kh,
        kernel_w: kw,
        stride,
        padding,
    } = spec;
    if (kh, kw, stride, padding) == (2, 2, 2, 0) {
        maxpool2x2(src, n * c, h, w, output.as_mut_slice(), &mut argmax);
        return Ok(MaxPoolOutput { output, argmax });
    }
    let whole_x = whole_windows(spec, ow, kw, w);
    let dst = pool::RawSliceMut::new(output.as_mut_slice());
    let arg = pool::RawSliceMut::new(&mut argmax);
    pool::parallel_for_sized(n * c, input.numel(), |p| {
        let base = p * h * w;
        // SAFETY: plane `p` owns exactly `[p * plane, (p + 1) * plane)`
        // of both outputs.
        let dst = unsafe { dst.slice(p * plane, (p + 1) * plane) };
        let arg = unsafe { arg.slice(p * plane, (p + 1) * plane) };
        for oy in 0..oh {
            let ys = window(spec, oy, kh, h);
            let row_at = base + ys.start * w;
            let (dst, arg) = (&mut dst[oy * ow..(oy + 1) * ow], &mut arg[oy * ow..(oy + 1) * ow]);
            // Whole windows: no clamping, and the common square sizes
            // get their own unrolled copy of the scan.
            let whole = if ys.len() == kh { whole_x.clone() } else { 0..0 };
            let mut whole_row = |kh: usize, kw: usize| {
                for ox in whole.clone() {
                    (dst[ox], arg[ox]) = scan_window(src, row_at + ox * stride - padding, kh, kw, w, base);
                }
            };
            match (kh, kw) {
                (2, 2) => whole_row(2, 2),
                (3, 3) => whole_row(3, 3),
                _ => whole_row(kh, kw),
            }
            // Windows the image edge cuts short.
            for ox in (0..whole.start).chain(whole.end..ow) {
                let xs = window(spec, ox, kw, w);
                (dst[ox], arg[ox]) = scan_window(src, row_at + xs.start, ys.len(), xs.len(), w, base);
            }
        }
    });
    Ok(MaxPoolOutput { output, argmax })
}

/// The 2×2, stride-2, unpadded max-pool of `planes` planes of `h×w`:
/// every window is whole, and output row `q` of the flattened
/// `[planes·OH, OW]` output scans input rows `2·(q % OH)` and the one
/// below in plane `q / OH`. Blocks of whole planes (at least 64 outputs
/// each) run as pool tasks, each through the dispatched body; both
/// bodies give every output the scan's value and argmax.
fn maxpool2x2(src: &[f32], planes: usize, h: usize, w: usize, dst: &mut [f32], arg: &mut [usize]) {
    let (oh, ow) = (h / 2, w / 2);
    let block = 64usize.div_ceil(oh * ow) * oh * ow;
    let arg = pool::RawSliceMut::new(arg);
    pool::parallel_chunks_mut_sized(dst, block, planes * h * w, |t, dst| {
        let q0 = t * block / ow;
        // SAFETY: block `t` owns exactly the outputs of `dst`, so the
        // matching argmax region is exclusive to this task.
        let arg = unsafe { arg.slice(t * block, t * block + dst.len()) };
        #[cfg(target_arch = "x86_64")]
        if simd::active_isa() == Isa::Avx2 && src.len() <= i32::MAX as usize {
            // SAFETY: AVX2 is available (the active ISA is only ever a
            // supported one), and every flat input index fits an `i32`.
            unsafe { maxpool2x2_avx2(src, h, w, q0, dst, arg) };
            return;
        }
        maxpool2x2_portable(src, w, &mut PoolRows::new(q0, h, w), dst, arg);
    });
}

/// A cursor over the output rows of a 2×2 max-pool from row `q` on:
/// each step yields the flat input index of the row's first window and
/// of its plane's first element (the argmax when nothing wins).
struct PoolRows {
    /// Flat index of the current plane's first element.
    base: usize,
    oy: usize,
    oh: usize,
    plane: usize,
    w: usize,
}

impl PoolRows {
    fn new(q: usize, h: usize, w: usize) -> Self {
        let oh = h / 2;
        PoolRows {
            base: q / oh * h * w,
            oy: q % oh,
            oh,
            plane: h * w,
            w,
        }
    }

    fn next_row(&mut self) -> (usize, usize) {
        let at = (self.base + 2 * self.oy * self.w, self.base);
        self.oy += 1;
        if self.oy == self.oh {
            self.oy = 0;
            self.base += self.plane;
        }
        at
    }
}

/// Portable body of [`maxpool2x2`]: the scan, window by window, over
/// the rows the cursor yields, `w / 2` outputs of `dst` and `arg` each.
fn maxpool2x2_portable(src: &[f32], w: usize, cursor: &mut PoolRows, dst: &mut [f32], arg: &mut [usize]) {
    let ow = w / 2;
    for (dst, arg) in dst.chunks_exact_mut(ow).zip(arg.chunks_exact_mut(ow)) {
        let (row, base) = cursor.next_row();
        for ox in 0..ow {
            (dst[ox], arg[ox]) = scan_window(src, row + 2 * ox, 2, 2, w, base);
        }
    }
}

/// AVX2 body of [`maxpool2x2`]: eight outputs at a time — a run of eight
/// of one output row, or two whole 4-wide or four whole 2-wide rows
/// ([`maxpool2x2_groups`]); outputs that fill no group run the scan.
///
/// # Safety
///
/// AVX2 must be available, and every flat input index must fit an `i32`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn maxpool2x2_avx2(src: &[f32], h: usize, w: usize, q0: usize, dst: &mut [f32], arg: &mut [usize]) {
    let ow = w / 2;
    let rows = dst.len() / ow;
    if rows == 0 {
        return;
    }
    // One extent check: the bottom-right element of the last window.
    let (last_row, _) = PoolRows::new(q0 + rows - 1, h, w).next_row();
    assert!(
        last_row + w + 2 * ow <= src.len() && arg.len() == dst.len(),
        "2x2 max-pool reads to {}, input has {}",
        last_row + w + 2 * ow,
        src.len()
    );
    let mut cursor = PoolRows::new(q0, h, w);
    // SAFETY (all three): AVX2 is available; the extent was checked.
    let grouped = unsafe {
        match ow {
            2 => maxpool2x2_groups::<2>(src, w, &mut cursor, dst, arg),
            4 => maxpool2x2_groups::<4>(src, w, &mut cursor, dst, arg),
            ow if ow >= 8 => maxpool2x2_groups::<8>(src, w, &mut cursor, dst, arg),
            _ => 0,
        }
    };
    // Rows left over by the grouping (or every row, when OW is too narrow
    // and not 2 or 4).
    let rest = grouped * ow;
    maxpool2x2_portable(src, w, &mut cursor, &mut dst[rest..], &mut arg[rest..]);
}

/// The grouped part of [`maxpool2x2_avx2`] for output rows of `RUN`
/// pixels per group (`RUN < 8`: groups of `8 / RUN` whole rows of
/// exactly `RUN`; `RUN = 8`: each row's runs of eight, its tail
/// scanned). Each group's two input rows are loaded as sixteen floats
/// each and de-interleaved into the windows' even and odd columns; the
/// four window elements are then compared in scan order (`>` is false on
/// NaN, so NaN never wins and ties keep the earlier element) and the
/// winner and its flat index blended in. Returns the output rows done.
///
/// # Safety
///
/// AVX2 must be available; every window of the rows handed out by
/// `cursor` must lie inside `src`, and every flat index fit an `i32`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn maxpool2x2_groups<const RUN: usize>(
    src: &[f32],
    w: usize,
    cursor: &mut PoolRows,
    dst: &mut [f32],
    arg: &mut [usize],
) -> usize {
    use std::arch::x86_64::*;
    let ow = w / 2;
    let per = 8 / RUN;
    let rows = dst.len() / ow;
    let groups = rows / per * per;
    // SAFETY throughout: every read is a window of a row the cursor
    // yields (in bounds by the caller's contract); the stores cover the
    // eight outputs of each group in `dst` and `arg` (usize is 64 bits).
    unsafe {
        let p = src.as_ptr();
        // Lane `l` of a group sits `2·(l % RUN)` past its row's start.
        let lane = _mm256_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14);
        let lane = _mm256_and_si256(lane, _mm256_set1_epi32(2 * RUN as i32 - 1));
        let halves = |x: usize, y: usize| {
            _mm256_insertf128_ps::<1>(
                _mm256_castps128_ps256(_mm_loadu_ps(p.add(x))),
                _mm_loadu_ps(p.add(y)),
            )
        };
        // Even and odd elements of `x ++ y`, in order.
        let split = |x: __m256, y: __m256| {
            let even = _mm256_shuffle_ps::<0x88>(x, y);
            let odd = _mm256_shuffle_ps::<0xDD>(x, y);
            (
                _mm256_castpd_ps(_mm256_permute4x64_pd::<0xD8>(_mm256_castps_pd(even))),
                _mm256_castpd_ps(_mm256_permute4x64_pd::<0xD8>(_mm256_castps_pd(odd))),
            )
        };
        // One group of eight: `at[r]` / `base[r]` are the first window and
        // plane start of its `r`-th row (RUN < 8), or of its run (RUN = 8).
        let group = |at: [usize; 4], base: [usize; 4], j: usize, dst: &mut [f32], arg: &mut [usize]| {
            let pairs = |below: usize| match RUN {
                2 => (
                    halves(at[0] + below, at[1] + below),
                    halves(at[2] + below, at[3] + below),
                ),
                4 => (
                    _mm256_loadu_ps(p.add(at[0] + below)),
                    _mm256_loadu_ps(p.add(at[1] + below)),
                ),
                _ => (
                    _mm256_loadu_ps(p.add(at[0] + below)),
                    _mm256_loadu_ps(p.add(at[0] + below + 8)),
                ),
            };
            let spread = |v: [usize; 4]| {
                let l = |i: usize| v[i / RUN] as i32;
                _mm256_setr_epi32(l(0), l(1), l(2), l(3), l(4), l(5), l(6), l(7))
            };
            let (top_l, top_r) = {
                let (x, y) = pairs(0);
                split(x, y)
            };
            let (bot_l, bot_r) = {
                let (x, y) = pairs(w);
                split(x, y)
            };
            let first = _mm256_add_epi32(spread(at), lane);
            let mut best = _mm256_set1_ps(f32::NEG_INFINITY);
            let mut idx = _mm256_castsi256_ps(spread(base));
            for (v, delta) in [(top_l, 0), (top_r, 1), (bot_l, w as i32), (bot_r, w as i32 + 1)] {
                let wins = _mm256_cmp_ps::<_CMP_GT_OQ>(v, best);
                best = _mm256_blendv_ps(best, v, wins);
                let at = _mm256_castsi256_ps(_mm256_add_epi32(first, _mm256_set1_epi32(delta)));
                idx = _mm256_blendv_ps(idx, at, wins);
            }
            _mm256_storeu_ps(dst.as_mut_ptr().add(j), best);
            let idx = _mm256_castps_si256(idx);
            let out = arg.as_mut_ptr().add(j).cast::<__m256i>();
            _mm256_storeu_si256(out, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(idx)));
            _mm256_storeu_si256(
                out.add(1),
                _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(idx)),
            );
        };
        let mut q = 0;
        while q < groups {
            if RUN == 8 {
                let (row, base) = cursor.next_row();
                let whole = ow / 8 * 8;
                for ox in (0..whole).step_by(8) {
                    group([row + 2 * ox; 4], [base; 4], q * ow + ox, dst, arg);
                }
                for ox in whole..ow {
                    (dst[q * ow + ox], arg[q * ow + ox]) = scan_window(src, row + 2 * ox, 2, 2, w, base);
                }
            } else {
                let mut at = [0; 4];
                let mut base = [0; 4];
                for r in 0..per {
                    (at[r], base[r]) = cursor.next_row();
                }
                group(at, base, q * ow, dst, arg);
            }
            q += per;
        }
        groups
    }
}

/// Max-pooling backward pass: routes each upstream gradient to the winning
/// input position recorded in `argmax`.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if `grad_out` and `argmax`
/// disagree in length.
pub fn maxpool2d_backward(grad_out: &Tensor, argmax: &[usize], input_shape: &crate::Shape) -> Result<Tensor> {
    if grad_out.numel() != argmax.len() {
        return Err(TensorError::LengthMismatch {
            expected: argmax.len(),
            actual: grad_out.numel(),
        });
    }
    let mut grad_in = Tensor::zeros(input_shape.clone());
    let gi = grad_in.as_mut_slice();
    for (&g, &idx) in grad_out.as_slice().iter().zip(argmax) {
        gi[idx] += g;
    }
    Ok(grad_in)
}

/// Average-pooling forward pass over an `NCHW` tensor.
///
/// The divisor is the full kernel area (`count_include_pad` semantics), so
/// forward and backward stay exact adjoints.
///
/// # Errors
///
/// Returns shape errors for non-4-D inputs or non-fitting windows.
pub fn avgpool2d_forward(input: &Tensor, spec: Conv2dSpec) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw(input, "avgpool2d")?;
    let (oh, ow) = spec.pool_output_hw(h, w)?;
    let area = (spec.kernel_h * spec.kernel_w) as f32;
    let mut output = Tensor::zeros([n, c, oh, ow]);
    let src = input.as_slice();
    pool::parallel_chunks_mut_sized(output.as_mut_slice(), oh * ow, input.numel(), |p, dst| {
        let base = p * h * w;
        let mut oidx = 0usize;
        for oy in 0..oh {
            let ys = window(spec, oy, spec.kernel_h, h);
            for ox in 0..ow {
                let xs = window(spec, ox, spec.kernel_w, w);
                let mut acc = 0.0f32;
                for iy in ys.clone() {
                    let row = base + iy * w;
                    for &v in &src[row + xs.start..row + xs.end] {
                        acc += v;
                    }
                }
                dst[oidx] = acc / area;
                oidx += 1;
            }
        }
    });
    Ok(output)
}

/// Average-pooling backward pass: spreads each upstream gradient uniformly
/// over its window.
///
/// # Errors
///
/// Returns shape errors if `grad_out` is inconsistent with `input_shape`
/// under `spec`.
pub fn avgpool2d_backward(grad_out: &Tensor, input_shape: &crate::Shape, spec: Conv2dSpec) -> Result<Tensor> {
    let d = input_shape.dims();
    if d.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: d.len(),
            op: "avgpool2d_backward",
        });
    }
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let (oh, ow) = spec.pool_output_hw(h, w)?;
    let (gn, gc, goh, gow) = check_nchw(grad_out, "avgpool2d_backward")?;
    if gn != n || gc != c || goh != oh || gow != ow {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_out.shape().clone(),
            rhs: input_shape.clone(),
            op: "avgpool2d_backward",
        });
    }
    let area = (spec.kernel_h * spec.kernel_w) as f32;
    let mut grad_in = Tensor::zeros(input_shape.clone());
    let g = grad_out.as_slice();
    pool::parallel_chunks_mut_sized(grad_in.as_mut_slice(), h * w, n * c * h * w, |p, gi| {
        let mut oidx = p * oh * ow;
        for oy in 0..oh {
            let ys = window(spec, oy, spec.kernel_h, h);
            for ox in 0..ow {
                let xs = window(spec, ox, spec.kernel_w, w);
                let gv = g[oidx] / area;
                oidx += 1;
                for iy in ys.clone() {
                    for v in &mut gi[iy * w + xs.start..iy * w + xs.end] {
                        *v += gv;
                    }
                }
            }
        }
    });
    Ok(grad_in)
}

/// Global average pooling: `[N, C, H, W] -> [N, C]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-4-D inputs.
pub fn global_avgpool(input: &Tensor) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw(input, "global_avgpool")?;
    let area = (h * w) as f32;
    let mut out = Tensor::zeros([n, c]);
    let src = input.as_slice();
    pool::parallel_chunks_mut_sized(out.as_mut_slice(), c, input.numel(), |i, dst| {
        for (ch, d) in dst.iter_mut().enumerate() {
            let base = (i * c + ch) * h * w;
            *d = src[base..base + h * w].iter().sum::<f32>() / area;
        }
    });
    Ok(out)
}

/// Backward of [`global_avgpool`]: spreads `[N, C]` gradients uniformly over
/// the spatial plane.
///
/// # Errors
///
/// Returns shape errors on inconsistency.
pub fn global_avgpool_backward(grad_out: &Tensor, input_shape: &crate::Shape) -> Result<Tensor> {
    let d = input_shape.dims();
    if d.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: d.len(),
            op: "global_avgpool_backward",
        });
    }
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    if grad_out.dims() != [n, c] {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_out.shape().clone(),
            rhs: input_shape.clone(),
            op: "global_avgpool_backward",
        });
    }
    let area = (h * w) as f32;
    let mut grad_in = Tensor::zeros(input_shape.clone());
    let g = grad_out.as_slice();
    pool::parallel_chunks_mut_sized(grad_in.as_mut_slice(), h * w, n * c * h * w, |p, gi| {
        let gv = g[p] / area;
        for v in gi.iter_mut() {
            *v = gv;
        }
    });
    Ok(grad_in)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    fn input_2x2_blocks() -> Tensor {
        // [1,1,4,4] with distinct values 0..16
        Tensor::arange(16).reshape([1, 1, 4, 4]).unwrap()
    }

    #[test]
    fn maxpool_2x2() {
        let input = input_2x2_blocks();
        let MaxPoolOutput { output, argmax } =
            maxpool2d_forward(&input, Conv2dSpec::square(2, 2, 0)).unwrap();
        assert_eq!(output.dims(), &[1, 1, 2, 2]);
        assert_eq!(output.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
        assert_eq!(argmax, vec![5, 7, 13, 15]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let input = input_2x2_blocks();
        let fw = maxpool2d_forward(&input, Conv2dSpec::square(2, 2, 0)).unwrap();
        let grad_out = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2]).unwrap();
        let gi = maxpool2d_backward(&grad_out, &fw.argmax, input.shape()).unwrap();
        assert_eq!(gi.as_slice()[5], 1.0);
        assert_eq!(gi.as_slice()[7], 2.0);
        assert_eq!(gi.as_slice()[13], 3.0);
        assert_eq!(gi.as_slice()[15], 4.0);
        assert_eq!(gi.sum(), 10.0);
        assert!(maxpool2d_backward(&Tensor::ones([5]), &fw.argmax, input.shape()).is_err());
    }

    #[test]
    fn maxpool_with_padding_ignores_pad() {
        // All-negative input: padding must not win even though values < 0.
        let input = Tensor::full([1, 1, 2, 2], -3.0);
        let fw = maxpool2d_forward(&input, Conv2dSpec::square(3, 1, 1)).unwrap();
        assert!(fw.output.as_slice().iter().all(|&v| v == -3.0));
    }

    #[test]
    fn padding_not_below_the_kernel_is_refused() {
        // At `padding >= kernel` the corner window holds no input element:
        // the old loop wrote `-inf` there with an argmax pointing at the
        // plane's first pixel, and the backward routed gradient into it.
        let input = Tensor::arange(16).reshape([1, 1, 4, 4]).unwrap();
        let tall = Conv2dSpec {
            kernel_h: 3,
            kernel_w: 1,
            stride: 1,
            padding: 1,
        };
        for spec in [
            Conv2dSpec::square(1, 1, 1),
            Conv2dSpec::square(2, 1, 2),
            Conv2dSpec::square(2, 2, 3),
            tall,
        ] {
            assert!(spec.output_hw(4, 4).is_ok(), "a legal convolution geometry");
            assert!(matches!(
                maxpool2d_forward(&input, spec),
                Err(TensorError::Numerical(_))
            ));
            assert!(matches!(
                avgpool2d_forward(&input, spec),
                Err(TensorError::Numerical(_))
            ));
            let (oh, ow) = spec.output_hw(4, 4).unwrap();
            assert!(matches!(
                avgpool2d_backward(&Tensor::ones([1, 1, oh, ow]), input.shape(), spec),
                Err(TensorError::Numerical(_))
            ));
        }
        // The widest padding that is left: every window still holds an
        // element, so every argmax is a pixel that won.
        let fw = maxpool2d_forward(&input, Conv2dSpec::square(3, 1, 2)).unwrap();
        assert_eq!(fw.output.dims(), &[1, 1, 6, 6]);
        assert_eq!(fw.output.as_slice()[0], 0.0);
        assert_eq!(fw.argmax[0], 0);
        assert_eq!(fw.output.as_slice()[35], 15.0);
        assert_eq!(fw.argmax[35], 15);
    }

    #[test]
    fn whole_window_ranges() {
        // 2×2/s2 without padding: every window is whole.
        assert_eq!(whole_windows(Conv2dSpec::square(2, 2, 0), 8, 2, 16), 0..8);
        // 3×3/s1/p1 on 5: the first and last are clamped.
        assert_eq!(whole_windows(Conv2dSpec::square(3, 1, 1), 5, 3, 5), 1..4);
        // 3×3/s2/p1 on 6 → outputs at -1, 1, 3: only the first is cut.
        assert_eq!(whole_windows(Conv2dSpec::square(3, 2, 1), 3, 3, 6), 1..3);
        // A kernel wider than the image: none is whole.
        assert_eq!(whole_windows(Conv2dSpec::square(3, 1, 1), 1, 3, 1), 1..1);
        for (o, want) in [(0, 0..2), (1, 1..4), (2, 3..5)] {
            assert_eq!(window(Conv2dSpec::square(3, 2, 1), o, 3, 5), want);
        }
    }

    #[test]
    fn avgpool_values_and_adjoint() {
        let input = input_2x2_blocks();
        let spec = Conv2dSpec::square(2, 2, 0);
        let out = avgpool2d_forward(&input, spec).unwrap();
        assert_eq!(out.as_slice(), &[2.5, 4.5, 10.5, 12.5]);
        // Adjoint identity: <Ax, y> == <x, Aᵀy> for the linear pooling map.
        let y = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], [1, 1, 2, 2]).unwrap();
        let lhs = out.dot(&y).unwrap();
        let aty = avgpool2d_backward(&y, input.shape(), spec).unwrap();
        let rhs = input.dot(&aty).unwrap();
        assert!((lhs - rhs).abs() < 1e-5);
    }

    #[test]
    fn avgpool_backward_shape_checks() {
        let spec = Conv2dSpec::square(2, 2, 0);
        let bad = Tensor::ones([1, 1, 3, 3]);
        assert!(avgpool2d_backward(&bad, &Shape::from([1, 1, 4, 4]), spec).is_err());
        assert!(avgpool2d_backward(&bad, &Shape::from([4, 4]), spec).is_err());
    }

    #[test]
    fn global_avgpool_and_backward() {
        let input = Tensor::arange(8).reshape([1, 2, 2, 2]).unwrap();
        let out = global_avgpool(&input).unwrap();
        assert_eq!(out.dims(), &[1, 2]);
        assert_eq!(out.as_slice(), &[1.5, 5.5]);
        let g = Tensor::from_vec(vec![4.0, 8.0], [1, 2]).unwrap();
        let gi = global_avgpool_backward(&g, input.shape()).unwrap();
        assert_eq!(gi.as_slice()[..4], [1.0; 4]);
        assert_eq!(gi.as_slice()[4..], [2.0; 4]);
        assert!(global_avgpool_backward(&Tensor::ones([2, 2]), input.shape()).is_err());
        assert!(global_avgpool(&Tensor::ones([2, 2])).is_err());
    }

    /// Coarse values (many exact ties, `±0.0`) with NaN and `-inf`
    /// sprinkled in, and whole planes of each.
    fn hostile(planes: usize, h: usize, w: usize) -> Vec<f32> {
        let mut state = (planes * 131 + h * 17 + w) as u64;
        (0..planes * h * w)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match (i / (h * w), state >> 60) {
                    (0, _) | (_, 0) => f32::NEG_INFINITY,
                    (1, _) | (_, 1) => f32::NAN,
                    (_, 2) => -0.0,
                    (_, v) => (v % 5) as f32 * 0.5 - 1.0,
                }
            })
            .collect()
    }

    /// The scan rule, window by window: first strictly greater wins,
    /// `(-inf, plane start)` if nothing does.
    fn naive_2x2(src: &[f32], planes: usize, h: usize, w: usize) -> (Vec<u32>, Vec<usize>) {
        let (oh, ow) = (h / 2, w / 2);
        let mut out = Vec::new();
        let mut arg = Vec::new();
        for p in 0..planes {
            for oy in 0..oh {
                for ox in 0..ow {
                    let (mut best, mut at) = (f32::NEG_INFINITY, p * h * w);
                    for (y, x) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                        let i = p * h * w + (2 * oy + y) * w + 2 * ox + x;
                        if src[i] > best {
                            (best, at) = (src[i], i);
                        }
                    }
                    out.push(best.to_bits());
                    arg.push(at);
                }
            }
        }
        (out, arg)
    }

    /// Both 2×2 max-pool bodies, called directly from output row 0 and
    /// from mid-tensor rows, against the scan rule: output rows of 1, 2,
    /// 3, 4, 8, 10 and 16 windows (the 4- and 2-wide groups span planes),
    /// odd input sides, and planes of `-inf` and NaN.
    #[test]
    fn maxpool2x2_bodies_match_the_scan() {
        for (planes, h, w) in [
            (3, 4, 4),
            (5, 8, 8),
            (7, 4, 4),
            (2, 16, 16),
            (3, 9, 5),
            (3, 6, 20),
            (4, 2, 2),
            (3, 4, 6),
            (5, 5, 9),
            (3, 8, 33),
        ] {
            let src = hostile(planes, h, w);
            let (want_out, want_arg) = naive_2x2(&src, planes, h, w);
            let ow = w / 2;
            let total_rows = planes * (h / 2);
            for q0 in [0, total_rows / 3] {
                let (lo, n) = (q0 * ow, (total_rows - q0) * ow);
                let mut out = vec![f32::NAN; n];
                let mut arg = vec![usize::MAX; n];
                maxpool2x2_portable(&src, w, &mut PoolRows::new(q0, h, w), &mut out, &mut arg);
                assert_eq!(
                    bits(&out),
                    want_out[lo..],
                    "portable {planes}x{h}x{w} from row {q0}"
                );
                assert_eq!(
                    arg,
                    want_arg[lo..],
                    "portable argmax {planes}x{h}x{w} from row {q0}"
                );
                #[cfg(target_arch = "x86_64")]
                if crate::simd::supported(Isa::Avx2) {
                    let mut out = vec![f32::NAN; n];
                    let mut arg = vec![usize::MAX; n];
                    // SAFETY: AVX2 is present and the indices are small.
                    unsafe { maxpool2x2_avx2(&src, h, w, q0, &mut out, &mut arg) };
                    assert_eq!(bits(&out), want_out[lo..], "avx2 {planes}x{h}x{w} from row {q0}");
                    assert_eq!(arg, want_arg[lo..], "avx2 argmax {planes}x{h}x{w} from row {q0}");
                }
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// An input shorter than its windows is refused before any unchecked
    /// read.
    #[cfg(target_arch = "x86_64")]
    #[test]
    #[should_panic(expected = "2x2 max-pool reads")]
    fn maxpool2x2_avx2_checks_the_source_extent() {
        if !crate::simd::supported(Isa::Avx2) {
            panic!("2x2 max-pool reads (skipped: host lacks AVX2)");
        }
        let src = vec![0.0f32; 2 * 8 * 8 - 1];
        let (mut out, mut arg) = (vec![0.0f32; 32], vec![0usize; 32]);
        // SAFETY: AVX2 is present; the short source must be refused.
        unsafe { maxpool2x2_avx2(&src, 8, 8, 0, &mut out, &mut arg) };
    }
}
