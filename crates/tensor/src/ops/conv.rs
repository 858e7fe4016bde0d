//! 2-D convolution via im2col / col2im, with forward and backward kernels.
//!
//! Layout conventions (matching the rest of the workspace):
//! - inputs/activations: `NCHW` — `[batch, channels, height, width]`
//! - filters: `OIHW` — `[out_channels, in_channels, kernel_h, kernel_w]`
//!
//! Forward pass lowers each input image to a `[C*KH*KW, OH*OW]` column
//! matrix and multiplies by the `[O, C*KH*KW]` filter matrix; the backward
//! pass reuses the same lowering for both the weight gradient (a `A·Bᵀ`
//! GEMM with the columns) and the input gradient (a `Aᵀ·B` GEMM followed
//! by `col2im`).
//!
//! Both passes are parallelised over the batch axis (per image forward,
//! per fixed 4-image chunk backward) and draw every temporary — column
//! matrices, GEMM pack buffers — from the thread-local scratch arena
//! ([`crate::scratch`]), so steady-state training performs zero scratch
//! heap allocations per step. The backward pass reduces per-chunk weight
//! and bias partials in ascending chunk order; because the chunking is
//! fixed (never derived from the thread count), results are identical
//! for every `MEDSPLIT_THREADS` value.
//!
//! All three lowered GEMMs run on the register-blocked, ISA-dispatched
//! microkernels in [`crate::ops::matmul`] (AVX2+FMA / NEON / portable),
//! so the convolution inherits both the SIMD throughput and the
//! bit-identical-across-`MEDSPLIT_ISA` guarantee of the GEMM path.

use crate::error::{Result, TensorError};
use crate::ops::matmul::{self, gemm_into, gemm_nt_into, gemm_tn_into};
use crate::ops::microkernel::NR;
use crate::ops::plan::ConvPlan;
use crate::pool;
use crate::scratch;
use crate::tensor::Tensor;

/// Images per backward-pass work chunk. Fixed so that the partial-sum
/// reduction order (and therefore every gradient bit) is independent of
/// the pool size.
const BWD_CHUNK: usize = 4;

/// Hyper-parameters of a 2-D convolution or pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Vertical stride.
    pub stride: usize,
    /// Zero padding applied symmetrically to all four borders.
    pub padding: usize,
}

impl Conv2dSpec {
    /// A square kernel with the given size, stride and padding.
    pub fn square(kernel: usize, stride: usize, padding: usize) -> Self {
        Conv2dSpec {
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            padding,
        }
    }

    /// Output spatial size for an input of `(h, w)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Numerical`] if the window does not fit.
    pub fn output_hw(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        if ph < self.kernel_h || pw < self.kernel_w || self.stride == 0 {
            return Err(TensorError::Numerical(format!(
                "conv window {}x{} stride {} does not fit input {}x{} (pad {})",
                self.kernel_h, self.kernel_w, self.stride, h, w, self.padding
            )));
        }
        Ok((
            (ph - self.kernel_h) / self.stride + 1,
            (pw - self.kernel_w) / self.stride + 1,
        ))
    }
}

fn check_nchw(t: &Tensor, op: &'static str) -> Result<(usize, usize, usize, usize)> {
    if t.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: t.rank(),
            op,
        });
    }
    let d = t.dims();
    Ok((d[0], d[1], d[2], d[3]))
}

/// Lowers one image (`[C, H, W]` slice of a batch) into a column matrix of
/// shape `[C*KH*KW, OH*OW]`, written into `cols`.
#[allow(clippy::too_many_arguments)]
fn im2col_single(
    img: &[f32],
    c: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
    oh: usize,
    ow: usize,
    cols: &mut [f32],
) {
    let ncols = oh * ow;
    let pad = spec.padding as isize;
    let mut row = 0usize;
    for ch in 0..c {
        let img_ch = &img[ch * h * w..(ch + 1) * h * w];
        for kh in 0..spec.kernel_h {
            for kw in 0..spec.kernel_w {
                let dst = &mut cols[row * ncols..(row + 1) * ncols];
                let mut col = 0usize;
                for oy in 0..oh {
                    let iy = (oy * spec.stride) as isize + kh as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        for _ in 0..ow {
                            dst[col] = 0.0;
                            col += 1;
                        }
                        continue;
                    }
                    let src_row = &img_ch[iy as usize * w..(iy as usize + 1) * w];
                    for ox in 0..ow {
                        let ix = (ox * spec.stride) as isize + kw as isize - pad;
                        dst[col] = if ix < 0 || ix >= w as isize {
                            0.0
                        } else {
                            src_row[ix as usize]
                        };
                        col += 1;
                    }
                }
                row += 1;
            }
        }
    }
}

/// Scatters a column matrix back into an image, accumulating overlaps —
/// the adjoint of [`im2col_single`].
#[allow(clippy::too_many_arguments)]
fn col2im_single(
    cols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
    oh: usize,
    ow: usize,
    img: &mut [f32],
) {
    let ncols = oh * ow;
    let pad = spec.padding as isize;
    let mut row = 0usize;
    for ch in 0..c {
        let img_ch = &mut img[ch * h * w..(ch + 1) * h * w];
        for kh in 0..spec.kernel_h {
            for kw in 0..spec.kernel_w {
                let src = &cols[row * ncols..(row + 1) * ncols];
                let mut col = 0usize;
                for oy in 0..oh {
                    let iy = (oy * spec.stride) as isize + kh as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        col += ow;
                        continue;
                    }
                    let base = iy as usize * w;
                    for ox in 0..ow {
                        let ix = (ox * spec.stride) as isize + kw as isize - pad;
                        if ix >= 0 && ix < w as isize {
                            img_ch[base + ix as usize] += src[col];
                        }
                        col += 1;
                    }
                }
                row += 1;
            }
        }
    }
}

/// Lowers a whole `NCHW` batch to a `[N, C*KH*KW, OH*OW]`-shaped tensor
/// (returned flattened to rank 3).
///
/// # Errors
///
/// Returns shape errors for non-4-D inputs or non-fitting windows.
pub fn im2col(input: &Tensor, spec: Conv2dSpec) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw(input, "im2col")?;
    let (oh, ow) = spec.output_hw(h, w)?;
    let rows = c * spec.kernel_h * spec.kernel_w;
    let ncols = oh * ow;
    let mut out = Tensor::zeros([n, rows, ncols]);
    let src = input.as_slice();
    pool::parallel_chunks_mut_sized(out.as_mut_slice(), rows * ncols, n * rows * ncols, |i, dst| {
        im2col_single(
            &src[i * c * h * w..(i + 1) * c * h * w],
            c,
            h,
            w,
            spec,
            oh,
            ow,
            dst,
        );
    });
    Ok(out)
}

/// Forward 2-D convolution.
///
/// `input` is `NCHW`, `weight` is `OIHW`, `bias` (optional) has length `O`.
/// Returns `[N, O, OH, OW]`.
///
/// # Errors
///
/// Returns shape errors if dimensions are inconsistent.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw(input, "conv2d_forward")?;
    let (o, ci, kh, kw) = check_nchw(weight, "conv2d_forward(weight)")?;
    if ci != c || kh != spec.kernel_h || kw != spec.kernel_w {
        return Err(TensorError::ShapeMismatch {
            lhs: input.shape().clone(),
            rhs: weight.shape().clone(),
            op: "conv2d_forward",
        });
    }
    if let Some(b) = bias {
        if b.numel() != o {
            return Err(TensorError::LengthMismatch {
                expected: o,
                actual: b.numel(),
            });
        }
    }
    let (oh, ow) = spec.output_hw(h, w)?;
    let _span = medsplit_telemetry::span("conv_fwd");
    let rows = c * kh * kw;
    let ncols = oh * ow;
    // OIHW weights are row-major, so the `[O, C*KH*KW]` filter matrix is
    // the weight buffer viewed in place — no reshape copy.
    let wmat = weight.as_slice();
    let mut out = Tensor::zeros([n, o, oh, ow]);
    let src = input.as_slice();
    let bias = bias.map(Tensor::as_slice);
    pool::parallel_chunks_mut_sized(out.as_mut_slice(), o * ncols, n * o * rows * ncols, |i, dst| {
        scratch::with_f32(rows * ncols, |cols| {
            im2col_single(
                &src[i * c * h * w..(i + 1) * c * h * w],
                c,
                h,
                w,
                spec,
                oh,
                ow,
                cols,
            );
            gemm_into(wmat, cols, dst, o, rows, ncols);
        });
        if let Some(b) = bias {
            for (oc, &bv) in b.iter().enumerate() {
                for v in &mut dst[oc * ncols..(oc + 1) * ncols] {
                    *v += bv;
                }
            }
        }
    });
    Ok(out)
}

/// Gathers one NR-wide tile of output pixels directly into microkernel
/// B-tile order: `tile[p*NR + jr]` is im2col row `p` at output pixel
/// `j0+jr` (zero for padding reads and past `cols`). Byte-identical to
/// materializing the full `cols` matrix with [`im2col_single`] and then
/// packing it with the GEMM's B-tile packer — the fused path just never
/// builds the intermediate.
#[allow(clippy::too_many_arguments)]
fn pack_patch_tile(
    img: &[f32],
    c: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
    ow: usize,
    j0: usize,
    cols: usize,
    tile: &mut [f32],
) {
    let pad = spec.padding as isize;
    // Hoist the per-pixel coordinate math out of the row loop: the tile's
    // output pixels are fixed, so their top-left input coordinates are
    // computed once and each im2col row only adds its (kh, kw) offset.
    let mut iy0 = [0isize; NR];
    let mut ix0 = [0isize; NR];
    for jr in 0..cols {
        let j = j0 + jr;
        iy0[jr] = ((j / ow) * spec.stride) as isize - pad;
        ix0[jr] = ((j % ow) * spec.stride) as isize - pad;
    }
    let mut p = 0usize;
    for ch in 0..c {
        let img_ch = &img[ch * h * w..(ch + 1) * h * w];
        for kh in 0..spec.kernel_h {
            for kw in 0..spec.kernel_w {
                let dst = &mut tile[p * NR..(p + 1) * NR];
                for (jr, v) in dst.iter_mut().enumerate().take(cols) {
                    let iy = iy0[jr] + kh as isize;
                    let ix = ix0[jr] + kw as isize;
                    *v = if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                        0.0
                    } else {
                        img_ch[iy as usize * w + ix as usize]
                    };
                }
                dst[cols..].fill(0.0);
                p += 1;
            }
        }
    }
}

/// Planned forward 2-D convolution: the plan's prepacked filter panels ×
/// patch tiles gathered straight into packed B order.
///
/// The fused lowering never materializes the `[C*KH*KW, OH*OW]` column
/// matrix: each NR-wide tile of output pixels is gathered directly into
/// a `kc×nc` pack tile in the scratch arena, halving the per-image
/// scratch footprint and skipping one full write+read of the columns.
/// Bit-identical to [`conv2d_forward`] with the plan's weight (see
/// [`pack_patch_tile`]).
///
/// # Errors
///
/// Returns shape errors if `input`/`bias` are inconsistent with the plan.
pub fn conv2d_forward_planned(input: &Tensor, plan: &mut ConvPlan, bias: Option<&Tensor>) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw(input, "conv2d_forward")?;
    let o = plan.out_channels();
    if c != plan.in_channels() {
        return Err(TensorError::ShapeMismatch {
            lhs: input.shape().clone(),
            rhs: crate::shape::Shape::from([
                o,
                plan.in_channels(),
                plan.spec().kernel_h,
                plan.spec().kernel_w,
            ]),
            op: "conv2d_forward",
        });
    }
    if let Some(b) = bias {
        if b.numel() != o {
            return Err(TensorError::LengthMismatch {
                expected: o,
                actual: b.numel(),
            });
        }
    }
    let geo = plan.geometry(h, w)?;
    let _span = medsplit_telemetry::span("conv_fwd");
    let spec = plan.spec();
    let (rows, ncols) = (geo.rows, geo.ncols);
    let nt = ncols.div_ceil(NR);
    let row_block = matmul::row_block(o);
    let wpack = plan.fwd_panels();
    let mut out = Tensor::zeros([n, o, geo.oh, geo.ow]);
    let src = input.as_slice();
    let bias = bias.map(Tensor::as_slice);
    pool::parallel_chunks_mut_sized(out.as_mut_slice(), o * ncols, n * o * rows * ncols, |i, dst| {
        let img = &src[i * c * h * w..(i + 1) * c * h * w];
        scratch::with_f32(nt * rows * NR, |bpack| {
            for (jt, tile) in bpack.chunks_exact_mut(rows * NR).enumerate() {
                let j0 = jt * NR;
                pack_patch_tile(img, c, h, w, spec, geo.ow, j0, NR.min(ncols - j0), tile);
            }
            matmul::gemm_compute_packed_b(wpack, bpack, dst, o, rows, ncols, true, row_block);
        });
        if let Some(b) = bias {
            for (oc, &bv) in b.iter().enumerate() {
                for v in &mut dst[oc * ncols..(oc + 1) * ncols] {
                    *v += bv;
                }
            }
        }
    });
    Ok(out)
}

/// Gradients of a 2-D convolution.
///
/// Given the upstream gradient `grad_out` (`[N, O, OH, OW]`), returns
/// `(grad_input, grad_weight, grad_bias)`.
///
/// # Errors
///
/// Returns shape errors if dimensions are inconsistent with the forward
/// pass.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: Conv2dSpec,
) -> Result<(Tensor, Tensor, Tensor)> {
    let (_, c, h, w) = check_nchw(input, "conv2d_backward")?;
    let (o, _ci, kh, kw) = check_nchw(weight, "conv2d_backward(weight)")?;
    check_nchw(grad_out, "conv2d_backward(grad)")?;
    let (oh, ow) = spec.output_hw(h, w)?;
    let (wmat, rows, ncols) = (weight.as_slice(), c * kh * kw, oh * ow);
    // dcols += Wᵀ · G, re-packing the weight per image.
    let wt_g = |gmat: &[f32], dcols: &mut [f32]| gemm_tn_into(wmat, gmat, dcols, o, rows, ncols);
    backward_with(input, (o, kh, kw), grad_out, spec, (oh, ow), wt_g)
}

/// Planned gradients of a 2-D convolution: identical math and reduction
/// order to [`conv2d_backward`], but the im2col geometry comes from the
/// plan (shared with the forward pass, computed once) and the
/// `dcols = Wᵀ·G` GEMM streams the plan's cached transposed filter
/// panels instead of re-packing the weight per image chunk.
///
/// `weight` must be the tensor the plan packed (the layer checks the
/// version before dispatching here); it is still needed directly for the
/// lazy transposed-panel build.
///
/// # Errors
///
/// Returns shape errors if dimensions are inconsistent with the plan.
pub fn conv2d_backward_planned(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    plan: &mut ConvPlan,
) -> Result<(Tensor, Tensor, Tensor)> {
    let (_, c, h, w) = check_nchw(input, "conv2d_backward")?;
    let (o, ci, kh, kw) = check_nchw(weight, "conv2d_backward(weight)")?;
    check_nchw(grad_out, "conv2d_backward(grad)")?;
    if c != plan.in_channels() || o != plan.out_channels() || ci != c {
        return Err(TensorError::ShapeMismatch {
            lhs: input.shape().clone(),
            rhs: weight.shape().clone(),
            op: "conv2d_backward",
        });
    }
    let geo = plan.geometry(h, w)?;
    let (spec, rows, ncols) = (plan.spec(), geo.rows, geo.ncols);
    let row_block = matmul::row_block(rows);
    let wpack_t = plan.bwd_panels(weight.as_slice());
    // dcols += Wᵀ · G from the cached transposed panels.
    let wt_g = |gmat: &[f32], dcols: &mut [f32]| {
        matmul::gemm_prepacked_a(wpack_t, gmat, ncols, 1, dcols, rows, o, ncols, true, row_block);
    };
    backward_with(input, (o, kh, kw), grad_out, spec, (geo.oh, geo.ow), wt_g)
}

/// The body of both backward entry points, for an `[o, c, kh, kw]` filter
/// and the `oh × ow` output its caller derived; what is left to check is
/// that `grad_out` has that shape. `wt_g(G, dcols)` accumulates `Wᵀ·G`
/// into the zeroed `dcols`; it is the one step the two differ in.
fn backward_with(
    input: &Tensor,
    (o, kh, kw): (usize, usize, usize),
    grad_out: &Tensor,
    spec: Conv2dSpec,
    (oh, ow): (usize, usize),
    wt_g: impl Fn(&[f32], &mut [f32]) + Sync,
) -> Result<(Tensor, Tensor, Tensor)> {
    let (n, c, h, w) = check_nchw(input, "conv2d_backward")?;
    if grad_out.dims() != [n, o, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_out.shape().clone(),
            rhs: input.shape().clone(),
            op: "conv2d_backward",
        });
    }
    let _span = medsplit_telemetry::span("conv_bwd");
    let (rows, ncols) = (c * kh * kw, oh * ow);
    let mut grad_input = Tensor::zeros([n, c, h, w]);
    let mut grad_weight = Tensor::zeros([o, c, kh, kw]);
    let mut grad_bias = Tensor::zeros([o]);
    let src = input.as_slice();
    let g = grad_out.as_slice();
    // Each fixed-size image chunk accumulates weight/bias partials into
    // its own region of `partials` while scattering input gradients
    // directly into its (disjoint) slice of `grad_input`; the partials
    // are then reduced sequentially in chunk order below, so gradients
    // stay bit-identical across thread counts.
    let pstride = o * rows + o;
    let nchunks = n.div_ceil(BWD_CHUNK);
    let mut partials = vec![0.0f32; nchunks * pstride];
    let gi = pool::RawSliceMut::new(grad_input.as_mut_slice());
    // Two GEMMs (dW and dX) of `o·rows·ncols` multiply-accumulates per image.
    let macs = 2 * n * o * rows * ncols;
    pool::parallel_chunks_mut_sized(&mut partials, pstride, macs, |chunk_idx, partial| {
        let (gw_part, gb_part) = partial.split_at_mut(o * rows);
        let lo = chunk_idx * BWD_CHUNK;
        let hi = (lo + BWD_CHUNK).min(n);
        for i in lo..hi {
            let gmat = &g[i * o * ncols..(i + 1) * o * ncols];
            let image = i * c * h * w..(i + 1) * c * h * w;
            scratch::with_f32(rows * ncols, |cols| {
                im2col_single(&src[image.clone()], c, h, w, spec, oh, ow, cols);
                // dW += G · colsᵀ
                gemm_nt_into(gmat, cols, gw_part, o, rows, ncols, true);
                // dcols = Wᵀ · G, then scatter back to image space.
                scratch::with_f32(rows * ncols, |dcols| {
                    dcols.fill(0.0);
                    wt_g(gmat, dcols);
                    // SAFETY: image `i` belongs to exactly one chunk, so
                    // the reborrowed region is exclusive to this task.
                    let img = unsafe { gi.slice(image.start, image.end) };
                    col2im_single(dcols, c, h, w, spec, oh, ow, img);
                });
            });
            // db += row sums of G
            for (oc, gb) in gb_part.iter_mut().enumerate() {
                *gb += gmat[oc * ncols..(oc + 1) * ncols].iter().sum::<f32>();
            }
        }
    });
    for chunk in partials.chunks_exact(pstride) {
        let (gw_part, gb_part) = chunk.split_at(o * rows);
        for (dst, &v) in grad_weight.as_mut_slice().iter_mut().zip(gw_part) {
            *dst += v;
        }
        for (dst, &v) in grad_bias.as_mut_slice().iter_mut().zip(gb_part) {
            *dst += v;
        }
    }
    Ok((grad_input, grad_weight, grad_bias))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_input() -> Tensor {
        // 1 image, 1 channel, 3x3: values 1..9
        Tensor::from_vec((1..=9).map(|v| v as f32).collect(), [1, 1, 3, 3]).unwrap()
    }

    #[test]
    fn spec_output_sizes() {
        let s = Conv2dSpec::square(3, 1, 1);
        assert_eq!(s.output_hw(32, 32).unwrap(), (32, 32));
        let s2 = Conv2dSpec::square(2, 2, 0);
        assert_eq!(s2.output_hw(32, 32).unwrap(), (16, 16));
        assert!(Conv2dSpec::square(5, 1, 0).output_hw(3, 3).is_err());
        assert!(Conv2dSpec {
            kernel_h: 1,
            kernel_w: 1,
            stride: 0,
            padding: 0
        }
        .output_hw(3, 3)
        .is_err());
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let input = simple_input();
        // 1x1 kernel with weight 1.0 == identity.
        let weight = Tensor::ones([1, 1, 1, 1]);
        let out = conv2d_forward(&input, &weight, None, Conv2dSpec::square(1, 1, 0)).unwrap();
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn known_3x3_convolution() {
        let input = simple_input();
        let weight = Tensor::ones([1, 1, 3, 3]);
        // 3x3 all-ones kernel, valid conv -> sum of all 9 elements = 45.
        let out = conv2d_forward(&input, &weight, None, Conv2dSpec::square(3, 1, 0)).unwrap();
        assert_eq!(out.dims(), &[1, 1, 1, 1]);
        assert_eq!(out.item(), 45.0);
        // With padding 1 the centre output stays 45.
        let padded = conv2d_forward(&input, &weight, None, Conv2dSpec::square(3, 1, 1)).unwrap();
        assert_eq!(padded.dims(), &[1, 1, 3, 3]);
        assert_eq!(padded.get(&[0, 0, 1, 1]).unwrap(), 45.0);
        // Corner output sums the 2x2 top-left block.
        assert_eq!(padded.get(&[0, 0, 0, 0]).unwrap(), 1.0 + 2.0 + 4.0 + 5.0);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let input = simple_input();
        let weight = Tensor::zeros([2, 1, 1, 1]);
        let bias = Tensor::from_vec(vec![1.5, -2.0], [2]).unwrap();
        let out = conv2d_forward(&input, &weight, Some(&bias), Conv2dSpec::square(1, 1, 0)).unwrap();
        assert!(out.slice0(0, 1).unwrap().as_slice()[..9]
            .iter()
            .all(|&v| v == 1.5));
        assert!(out.as_slice()[9..].iter().all(|&v| v == -2.0));
    }

    #[test]
    fn forward_shape_checks() {
        let input = simple_input();
        let bad_weight = Tensor::ones([1, 2, 3, 3]); // wrong in-channels
        assert!(conv2d_forward(&input, &bad_weight, None, Conv2dSpec::square(3, 1, 0)).is_err());
        let bad_bias = Tensor::ones([3]);
        let weight = Tensor::ones([1, 1, 3, 3]);
        assert!(conv2d_forward(&input, &weight, Some(&bad_bias), Conv2dSpec::square(3, 1, 0)).is_err());
    }

    #[test]
    fn im2col_shapes_and_content() {
        let input = simple_input();
        let cols = im2col(&input, Conv2dSpec::square(2, 1, 0)).unwrap();
        // rows = 1*2*2 = 4, ncols = 2*2 = 4
        assert_eq!(cols.dims(), &[1, 4, 4]);
        // First row of the column matrix is the top-left value of each window.
        assert_eq!(&cols.as_slice()[0..4], &[1.0, 2.0, 4.0, 5.0]);
    }

    /// Numerical gradient check of the full conv backward pass.
    #[test]
    fn backward_matches_numerical_gradients() {
        let spec = Conv2dSpec::square(3, 1, 1);
        let n = 2;
        let (c, h, w) = (2, 4, 4);
        let o = 3;
        let mk = |seed: u32, len: usize| -> Vec<f32> {
            (0..len)
                .map(|i| {
                    (((i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 1000) as f32) / 500.0 - 1.0
                })
                .collect()
        };
        let input = Tensor::from_vec(mk(1, n * c * h * w), [n, c, h, w]).unwrap();
        let weight = Tensor::from_vec(mk(2, o * c * 9), [o, c, 3, 3]).unwrap();
        let bias = Tensor::from_vec(mk(3, o), [o]).unwrap();

        // Loss = sum(output * seedmask) so dL/doutput = seedmask.
        let out = conv2d_forward(&input, &weight, Some(&bias), spec).unwrap();
        let mask = Tensor::from_vec(mk(4, out.numel()), out.shape().clone()).unwrap();
        let loss = |inp: &Tensor, wt: &Tensor, b: &Tensor| -> f32 {
            conv2d_forward(inp, wt, Some(b), spec)
                .unwrap()
                .dot(&mask)
                .unwrap()
        };

        let (gi, gw, gb) = conv2d_backward(&input, &weight, &mask, spec).unwrap();

        let eps = 1e-2;
        // Spot-check several coordinates of each gradient.
        for &idx in &[0usize, 7, 19, n * c * h * w - 1] {
            let mut ip = input.clone();
            ip.as_mut_slice()[idx] += eps;
            let mut im = input.clone();
            im.as_mut_slice()[idx] -= eps;
            let num = (loss(&ip, &weight, &bias) - loss(&im, &weight, &bias)) / (2.0 * eps);
            let ana = gi.as_slice()[idx];
            assert!(
                (num - ana).abs() < 2e-2,
                "grad_input[{idx}]: num {num} vs ana {ana}"
            );
        }
        for &idx in &[0usize, 5, o * c * 9 - 1] {
            let mut wp = weight.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = weight.clone();
            wm.as_mut_slice()[idx] -= eps;
            let num = (loss(&input, &wp, &bias) - loss(&input, &wm, &bias)) / (2.0 * eps);
            let ana = gw.as_slice()[idx];
            assert!(
                (num - ana).abs() < 5e-2,
                "grad_weight[{idx}]: num {num} vs ana {ana}"
            );
        }
        for idx in 0..o {
            let mut bp = bias.clone();
            bp.as_mut_slice()[idx] += eps;
            let mut bm = bias.clone();
            bm.as_mut_slice()[idx] -= eps;
            let num = (loss(&input, &weight, &bp) - loss(&input, &weight, &bm)) / (2.0 * eps);
            let ana = gb.as_slice()[idx];
            assert!(
                (num - ana).abs() < 5e-2,
                "grad_bias[{idx}]: num {num} vs ana {ana}"
            );
        }
    }

    #[test]
    fn backward_shape_checks() {
        let input = simple_input();
        let weight = Tensor::ones([1, 1, 3, 3]);
        let wrong_grad = Tensor::ones([1, 1, 2, 2]);
        assert!(conv2d_backward(&input, &weight, &wrong_grad, Conv2dSpec::square(3, 1, 0)).is_err());
    }

    #[test]
    fn strided_convolution_shape() {
        let input = Tensor::zeros([2, 3, 8, 8]);
        let weight = Tensor::zeros([4, 3, 3, 3]);
        let out = conv2d_forward(&input, &weight, None, Conv2dSpec::square(3, 2, 1)).unwrap();
        assert_eq!(out.dims(), &[2, 4, 4, 4]);
    }
}
