//! 2-D max- and average-pooling with exact backward passes.
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

/// Max-pooling forward pass over an `NCHW` tensor.
///
/// Padding positions are treated as `-inf` (they never win).
///
/// # Errors
///
/// Returns shape errors for non-4-D inputs or non-fitting windows.
pub fn maxpool2d_forward(input: &Tensor, spec: Conv2dSpec) -> Result<MaxPoolOutput> {
    let (n, c, h, w) = check_nchw(input, "maxpool2d")?;
    let (oh, ow) = spec.output_hw(h, w)?;
    let mut output = Tensor::zeros([n, c, oh, ow]);
    let mut argmax = vec![0usize; n * c * oh * ow];
    let src = input.as_slice();
    let pad = spec.padding as isize;
    let plane = oh * ow;
    let dst = pool::RawSliceMut::new(output.as_mut_slice());
    let arg = pool::RawSliceMut::new(&mut argmax);
    pool::parallel_for_sized(n * c, input.numel(), |p| {
        let base = p * h * w;
        // SAFETY: plane `p` owns exactly `[p * plane, (p + 1) * plane)`
        // of both outputs.
        let dst = unsafe { dst.slice(p * plane, (p + 1) * plane) };
        let arg = unsafe { arg.slice(p * plane, (p + 1) * plane) };
        let mut oidx = 0usize;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = base; // fallback; will be overwritten
                for ky in 0..spec.kernel_h {
                    let iy = (oy * spec.stride) as isize + ky as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..spec.kernel_w {
                        let ix = (ox * spec.stride) as isize + kx as isize - pad;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        let idx = base + iy as usize * w + ix as usize;
                        if src[idx] > best {
                            best = src[idx];
                            best_idx = idx;
                        }
                    }
                }
                dst[oidx] = best;
                arg[oidx] = best_idx;
                oidx += 1;
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
    let (oh, ow) = spec.output_hw(h, w)?;
    let area = (spec.kernel_h * spec.kernel_w) as f32;
    let mut output = Tensor::zeros([n, c, oh, ow]);
    let src = input.as_slice();
    let pad = spec.padding as isize;
    pool::parallel_chunks_mut_sized(output.as_mut_slice(), oh * ow, input.numel(), |p, dst| {
        let base = p * h * w;
        let mut oidx = 0usize;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for ky in 0..spec.kernel_h {
                    let iy = (oy * spec.stride) as isize + ky as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..spec.kernel_w {
                        let ix = (ox * spec.stride) as isize + kx as isize - pad;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        acc += src[base + iy as usize * w + ix as usize];
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
    let (oh, ow) = spec.output_hw(h, w)?;
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
    let pad = spec.padding as isize;
    pool::parallel_chunks_mut_sized(grad_in.as_mut_slice(), h * w, n * c * h * w, |p, gi| {
        let mut oidx = p * oh * ow;
        for oy in 0..oh {
            for ox in 0..ow {
                let gv = g[oidx] / area;
                oidx += 1;
                for ky in 0..spec.kernel_h {
                    let iy = (oy * spec.stride) as isize + ky as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..spec.kernel_w {
                        let ix = (ox * spec.stride) as isize + kx as isize - pad;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        gi[iy as usize * w + ix as usize] += gv;
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
