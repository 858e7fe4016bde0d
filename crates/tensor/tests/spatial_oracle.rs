//! Differential oracle for the spatial kernels.
//!
//! The convolution kernels index a zero-bordered copy of each image and
//! the max-pool clamps its windows once per row and column; neither has
//! a bounds test per element any more, so an index mistake shows as a
//! wrong value in `--release` and as a slice panic in debug. This file
//! holds both builds to naive references that do test every coordinate:
//! a seven-loop scalar convolution (forward, weight, bias and input
//! gradients) and a four-loop max-pool, compared **bit for bit** under
//! proptest-drawn geometry. `ci.sh` runs it in debug and in `--release`.
//!
//! The references spell out the arithmetic the kernels promise: one
//! fused multiply-add per depth step in ascending `(ch, kh, kw)` /
//! output-channel / output-pixel order with padded reads contributing
//! `w · 0.0`, weight and bias gradients reduced per four-image chunk and
//! then across chunks in order (the weight gradient's multiplicands in
//! either order: fused multiply-add rounds `a·b + c` once, so `g·x` and
//! `x·g` give the same bits on values that are not both NaN), input gradients summed in ascending
//! `(kh, kw)` order, and the first strictly greater element winning a
//! pooling window.

use medsplit_tensor::ops::conv::{
    conv2d_backward, conv2d_backward_params, conv2d_backward_planned, conv2d_forward, conv2d_forward_planned,
    im2col,
};
use medsplit_tensor::ops::pool::maxpool2d_forward;
use medsplit_tensor::{Conv2dSpec, ConvPlan, Tensor};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Images per backward chunk (`BWD_CHUNK` in `ops/conv.rs`): part of the
/// kernels' summation order, so the reference has to know it.
const BWD_CHUNK: usize = 4;

/// One convolution problem with its data.
struct Problem {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    o: usize,
    spec: Conv2dSpec,
    oh: usize,
    ow: usize,
    input: Tensor,
    weight: Tensor,
    bias: Tensor,
    grad_out: Tensor,
}

/// Values with exact zeros, `-0.0` and a spread of magnitudes, from a
/// seeded LCG.
fn values(seed: &mut u64, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (*seed >> 33) as u32;
            match r % 8 {
                0 | 1 => 0.0,
                2 => -0.0,
                _ => ((r >> 3) % 4001) as f32 / 1000.0 - 2.0,
            }
        })
        .collect()
}

impl Problem {
    /// `None` when the window does not fit the padded input.
    #[allow(clippy::too_many_arguments)]
    fn new(
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        o: usize,
        spec: Conv2dSpec,
        mut seed: u64,
    ) -> Option<Self> {
        let (oh, ow) = spec.output_hw(h, w).ok()?;
        let mut tensor = |dims: &[usize]| {
            Tensor::from_vec(values(&mut seed, dims.iter().product()), dims.to_vec()).expect("tensor")
        };
        Some(Problem {
            n,
            c,
            h,
            w,
            o,
            spec,
            oh,
            ow,
            input: tensor(&[n, c, h, w]),
            weight: tensor(&[o, c, spec.kernel_h, spec.kernel_w]),
            bias: tensor(&[o]),
            grad_out: tensor(&[n, o, oh, ow]),
        })
    }

    /// The input at `(y, x)` in padded coordinates, `0.0` outside.
    fn x(&self, i: usize, ch: usize, y: usize, x: usize) -> f32 {
        let p = self.spec.padding;
        if y < p || x < p || y - p >= self.h || x - p >= self.w {
            return 0.0;
        }
        self.input.as_slice()[((i * self.c + ch) * self.h + (y - p)) * self.w + (x - p)]
    }

    fn wt(&self, oc: usize, ch: usize, kh: usize, kw: usize) -> f32 {
        let s = self.spec;
        self.weight.as_slice()[((oc * self.c + ch) * s.kernel_h + kh) * s.kernel_w + kw]
    }

    fn g(&self, i: usize, oc: usize, oy: usize, ox: usize) -> f32 {
        self.grad_out.as_slice()[((i * self.o + oc) * self.oh + oy) * self.ow + ox]
    }

    fn naive_forward(&self) -> Vec<f32> {
        let s = self.spec;
        let mut out = Vec::new();
        for i in 0..self.n {
            for oc in 0..self.o {
                for oy in 0..self.oh {
                    for ox in 0..self.ow {
                        let mut acc = 0.0f32;
                        for ch in 0..self.c {
                            for kh in 0..s.kernel_h {
                                for kw in 0..s.kernel_w {
                                    let x = self.x(i, ch, oy * s.stride + kh, ox * s.stride + kw);
                                    acc = self.wt(oc, ch, kh, kw).mul_add(x, acc);
                                }
                            }
                        }
                        out.push(acc + self.bias.as_slice()[oc]);
                    }
                }
            }
        }
        out
    }

    fn naive_im2col(&self) -> Vec<f32> {
        let s = self.spec;
        let mut out = Vec::new();
        for i in 0..self.n {
            for ch in 0..self.c {
                for kh in 0..s.kernel_h {
                    for kw in 0..s.kernel_w {
                        for oy in 0..self.oh {
                            for ox in 0..self.ow {
                                out.push(self.x(i, ch, oy * s.stride + kh, ox * s.stride + kw));
                            }
                        }
                    }
                }
            }
        }
        out
    }

    fn naive_grad_weight(&self) -> Vec<f32> {
        let s = self.spec;
        let mut out = Vec::new();
        for oc in 0..self.o {
            for ch in 0..self.c {
                for kh in 0..s.kernel_h {
                    for kw in 0..s.kernel_w {
                        let mut total = 0.0f32;
                        for chunk in (0..self.n).step_by(BWD_CHUNK) {
                            let mut acc = 0.0f32;
                            for i in chunk..(chunk + BWD_CHUNK).min(self.n) {
                                for oy in 0..self.oh {
                                    for ox in 0..self.ow {
                                        let x = self.x(i, ch, oy * s.stride + kh, ox * s.stride + kw);
                                        acc = self.g(i, oc, oy, ox).mul_add(x, acc);
                                    }
                                }
                            }
                            total += acc;
                        }
                        out.push(total);
                    }
                }
            }
        }
        out
    }

    fn naive_grad_bias(&self) -> Vec<f32> {
        let plane = self.oh * self.ow;
        (0..self.o)
            .map(|oc| {
                let mut total = 0.0f32;
                for chunk in (0..self.n).step_by(BWD_CHUNK) {
                    let mut acc = 0.0f32;
                    for i in chunk..(chunk + BWD_CHUNK).min(self.n) {
                        let at = (i * self.o + oc) * plane;
                        acc += self.grad_out.as_slice()[at..at + plane].iter().sum::<f32>();
                    }
                    total += acc;
                }
                total
            })
            .collect()
    }

    fn naive_grad_input(&self) -> Vec<f32> {
        let s = self.spec;
        let mut out = Vec::new();
        for i in 0..self.n {
            for ch in 0..self.c {
                for y in 0..self.h {
                    for x in 0..self.w {
                        let mut acc = 0.0f32;
                        for kh in 0..s.kernel_h {
                            for kw in 0..s.kernel_w {
                                // The output pixel whose patch holds
                                // `(y, x)` at offset `(kh, kw)`, if any.
                                let (py, px) = (y + s.padding, x + s.padding);
                                if py < kh
                                    || px < kw
                                    || (py - kh) % s.stride != 0
                                    || (px - kw) % s.stride != 0
                                {
                                    continue;
                                }
                                let (oy, ox) = ((py - kh) / s.stride, (px - kw) / s.stride);
                                if oy >= self.oh || ox >= self.ow {
                                    continue;
                                }
                                let mut dcol = 0.0f32;
                                for oc in 0..self.o {
                                    dcol = self.wt(oc, ch, kh, kw).mul_add(self.g(i, oc, oy, ox), dcol);
                                }
                                acc += dcol;
                            }
                        }
                        out.push(acc);
                    }
                }
            }
        }
        out
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Holds every conv entry point to the references on one problem.
fn check_conv(p: &Problem) -> Result<(), TestCaseError> {
    let what = format!(
        "{}x{}x{}x{} -> o{} k{}x{} s{} p{}",
        p.n, p.c, p.h, p.w, p.o, p.spec.kernel_h, p.spec.kernel_w, p.spec.stride, p.spec.padding
    );
    let forward = bits(&p.naive_forward());
    let out = conv2d_forward(&p.input, &p.weight, Some(&p.bias), p.spec).expect("forward");
    prop_assert_eq!(out.dims(), &[p.n, p.o, p.oh, p.ow][..]);
    prop_assert_eq!(bits(out.as_slice()), forward.clone(), "forward, {}", what);
    let mut plan = ConvPlan::pack(&p.weight, p.spec, 0).expect("plan");
    let planned = conv2d_forward_planned(&p.input, &mut plan, Some(&p.bias)).expect("planned forward");
    prop_assert_eq!(bits(planned.as_slice()), forward, "planned forward, {}", what);
    let cols = im2col(&p.input, p.spec).expect("im2col");
    prop_assert_eq!(bits(cols.as_slice()), bits(&p.naive_im2col()), "im2col, {}", what);

    let (gi, gw, gb) = (
        bits(&p.naive_grad_input()),
        bits(&p.naive_grad_weight()),
        bits(&p.naive_grad_bias()),
    );
    let plain = conv2d_backward(&p.input, &p.weight, &p.grad_out, p.spec).expect("backward");
    let planned =
        conv2d_backward_planned(&p.input, &p.weight, &p.grad_out, &mut plan).expect("planned backward");
    for (name, (i, w, b)) in [("backward", &plain), ("planned backward", &planned)] {
        prop_assert_eq!(i.dims(), p.input.dims());
        prop_assert_eq!(bits(i.as_slice()), gi.clone(), "{} grad_input, {}", name, what);
        prop_assert_eq!(bits(w.as_slice()), gw.clone(), "{} grad_weight, {}", name, what);
        prop_assert_eq!(bits(b.as_slice()), gb.clone(), "{} grad_bias, {}", name, what);
    }
    let (w, b) = conv2d_backward_params(&p.input, &p.weight, &p.grad_out, p.spec).expect("params backward");
    prop_assert_eq!(bits(w.as_slice()), gw, "params-only grad_weight, {}", what);
    prop_assert_eq!(bits(b.as_slice()), gb, "params-only grad_bias, {}", what);
    Ok(())
}

/// Pooling inputs: coarse values (exact ties), zeros, `-0.0`, and a
/// scattering of `-inf` and NaN.
fn pool_values(seed: &mut u64, len: usize) -> Vec<f32> {
    values(seed, len)
        .into_iter()
        .enumerate()
        .map(|(i, v)| match (v.to_bits() as usize).wrapping_add(i) % 11 {
            0 => f32::NEG_INFINITY,
            1 => f32::NAN,
            _ => (v * 2.0).round() / 2.0,
        })
        .collect()
}

/// The max-pool as it is defined: every window coordinate tested against
/// the image, padding never read, the first strictly greater value wins.
fn naive_maxpool(input: &Tensor, spec: Conv2dSpec, oh: usize, ow: usize) -> (Vec<f32>, Vec<usize>) {
    let d = input.dims();
    let (planes, h, w) = (d[0] * d[1], d[2] as isize, d[3] as isize);
    let src = input.as_slice();
    let (mut out, mut arg) = (Vec::new(), Vec::new());
    for p in 0..planes {
        let base = p * (h * w) as usize;
        for oy in 0..oh {
            for ox in 0..ow {
                let (mut best, mut best_idx) = (f32::NEG_INFINITY, base);
                for ky in 0..spec.kernel_h {
                    for kx in 0..spec.kernel_w {
                        let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if iy < 0 || iy >= h || ix < 0 || ix >= w {
                            continue;
                        }
                        let idx = base + (iy * w + ix) as usize;
                        if src[idx] > best {
                            best = src[idx];
                            best_idx = idx;
                        }
                    }
                }
                out.push(best);
                arg.push(best_idx);
            }
        }
    }
    (out, arg)
}

fn check_maxpool(dims: [usize; 4], spec: Conv2dSpec, mut seed: u64) -> Result<(), TestCaseError> {
    let Ok((oh, ow)) = spec.pool_output_hw(dims[2], dims[3]) else {
        return Ok(());
    };
    let input = Tensor::from_vec(pool_values(&mut seed, dims.iter().product()), dims).expect("tensor");
    let got = maxpool2d_forward(&input, spec).expect("maxpool");
    let (want, want_arg) = naive_maxpool(&input, spec, oh, ow);
    prop_assert_eq!(
        bits(got.output.as_slice()),
        bits(&want),
        "maxpool output, {:?} {:?}",
        dims,
        spec
    );
    prop_assert_eq!(got.argmax, want_arg, "maxpool argmax, {:?} {:?}", dims, spec);
    Ok(())
}

fn spec(kernel_h: usize, kernel_w: usize, stride: usize, padding: usize) -> Conv2dSpec {
    Conv2dSpec {
        kernel_h,
        kernel_w,
        stride,
        padding,
    }
}

proptest! {
    #[test]
    fn conv_matches_the_seven_loop_reference(
        n in 1usize..7, c in 1usize..4, o in 1usize..=40,
        h in 1usize..11, w in 1usize..21,
        kh in 1usize..6, kw in 1usize..6,
        stride in 1usize..4, padding in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        if let Some(p) = Problem::new(n, c, h, w, o, spec(kh, kw, stride, padding), seed) {
            check_conv(&p)?;
        }
    }

    #[test]
    fn maxpool_matches_the_naive_reference(
        n in 1usize..4, c in 1usize..4,
        h in 1usize..13, w in 1usize..21,
        kh in 1usize..6, kw in 1usize..6,
        stride in 1usize..4, padding in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        check_maxpool([n, c, h, w], spec(kh, kw, stride, padding), seed)?;
    }
}

/// The two cases an index into a padded buffer gets wrong first, plus
/// the shapes the training benchmark runs, stated rather than drawn.
#[test]
fn conv_named_cases() {
    let cases = [
        // Padding beyond the kernel's reach: whole patches of zeros.
        (2, 2, 3, 4, 3, spec(1, 1, 1, 3)),
        (5, 1, 2, 2, 2, spec(2, 2, 2, 3)),
        // Stride 3 under a 2-wide window: the last input rows and
        // columns belong to no patch.
        (3, 2, 6, 9, 4, spec(2, 2, 3, 0)),
        (3, 2, 7, 6, 4, spec(3, 3, 3, 1)),
        // VGG-lite: 16-, 8- and 4-pixel output rows.
        (5, 3, 16, 16, 8, spec(3, 3, 1, 1)),
        (5, 8, 8, 8, 16, spec(3, 3, 1, 1)),
        (5, 16, 4, 4, 32, spec(3, 3, 1, 1)),
        // Tiles that start mid-row and span three rows.
        (2, 2, 4, 7, 5, spec(3, 3, 1, 1)),
        (1, 1, 3, 33, 2, spec(3, 3, 1, 1)),
        // The forward reads its tiles in place when they are whole 4- or
        // 8-pixel output rows or 16-aligned runs of one row; one row
        // fewer, or a run that is not 16-aligned, and they are gathered.
        (3, 5, 4, 4, 20, spec(3, 3, 1, 1)),
        (3, 5, 3, 4, 20, spec(3, 3, 1, 1)),
        (2, 3, 6, 8, 13, spec(3, 3, 1, 1)),
        (2, 3, 5, 8, 13, spec(3, 3, 1, 1)),
        (2, 2, 3, 32, 17, spec(3, 3, 1, 1)),
        (2, 2, 3, 24, 17, spec(3, 3, 1, 1)),
        // The weight gradient reads in place at every stride: a strided
        // one over three output-channel tiles.
        (5, 3, 9, 9, 33, spec(3, 3, 2, 1)),
    ];
    for (i, (n, c, h, w, o, spec)) in cases.into_iter().enumerate() {
        let p = Problem::new(n, c, h, w, o, spec, 77 + i as u64).expect("case fits");
        check_conv(&p).unwrap_or_else(|e| panic!("{e:?}"));
    }
}

#[test]
fn maxpool_named_cases() {
    let cases = [
        // The last rows and columns lie past every window.
        ([2, 2, 6, 9], spec(2, 2, 3, 0)),
        // The widest legal padding: every border window is clamped on
        // two sides, the corner ones to a single element.
        ([2, 2, 5, 5], spec(3, 3, 1, 2)),
        ([1, 3, 4, 6], spec(5, 2, 2, 1)),
        // The training shapes.
        ([4, 8, 16, 16], spec(2, 2, 2, 0)),
        ([4, 8, 15, 17], spec(3, 3, 2, 1)),
    ];
    for (i, (dims, spec)) in cases.into_iter().enumerate() {
        check_maxpool(dims, spec, 99 + i as u64).unwrap_or_else(|e| panic!("{e:?}"));
    }
}
