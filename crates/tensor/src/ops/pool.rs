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
//! The forward passes and the average-pooling backward pass are
//! parallelised over `(batch, channel)` planes — every plane writes a
//! disjoint output region, so results are identical for any pool size.
//! The max-pooling backward pass stays sequential: it scatters through
//! caller-supplied `argmax` indices, which the type system cannot prove
//! disjoint, and it is a single cheap pass.

use crate::error::{Result, TensorError};
use crate::ops::conv::Conv2dSpec;
use crate::pool;
use crate::tensor::Tensor;

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
}
