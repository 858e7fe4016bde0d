//! 2-D convolution as GEMMs over a zero-bordered copy of each image,
//! with forward and backward kernels.
//!
//! Layout conventions (matching the rest of the workspace):
//! - inputs/activations: `NCHW` — `[batch, channels, height, width]`
//! - filters: `OIHW` — `[out_channels, in_channels, kernel_h, kernel_w]`
//!
//! # The lowering
//!
//! A convolution is the `[O, C*KH*KW]` filter matrix times the
//! `[C*KH*KW, OH*OW]` *column matrix* of the image, whose row
//! `(ch, kh, kw)` holds, per output pixel, the input element that filter
//! tap multiplies — or zero where the tap hangs over the edge. Nothing
//! here tests a coordinate against the edge. Each image is first copied
//! into the scratch arena with `padding` zero rows and columns on every
//! side (`C·(H+2p)·(W+2p)` floats; the image itself when `p = 0`), and in
//! that copy every tap of every patch is an ordinary element:
//! `ch·plane + (oy·s + kh)·pw + ox·s + kw`, a per-row base plus a
//! per-pixel offset (`Lowering`). The column matrix is never built: the
//! kernels read it in place, or gather only the tile at hand.
//!
//! - **forward, read in place** — at stride 1, when an NR-pixel tile is
//!   whole 4- or 8-pixel output rows or a 16-aligned run of one row
//!   (`direct_forward_run`; all three VGG-lite layers), every im2col
//!   row of the tile is two or four runs of consecutive floats of the
//!   padded image. The direct tile kernel (`forward_tile_*`) loads its
//!   B rows straight from there — two 256-bit loads, or four 128-bit
//!   halves — against prepacked filter panels (the plan's, or packed
//!   once per call for the unplanned entry point).
//! - **forward, gathered** — any other geometry gathers NR-wide tiles of
//!   output pixels into the GEMM's packed-B order (`pack_patch_tile`),
//!   one run per output row the tile touches.
//! - **weight gradient** `dW += G·colsᵀ`, every geometry — each image's
//!   `Gᵀ` is packed once with the transposing `pack_b_tile` (lanes =
//!   output channels, depth = output pixels). A tile of six im2col rows
//!   × NR output channels (`weight_tile_*`) then broadcasts its other
//!   operand straight from six row pointers `padded + row_base(r)` at
//!   each pixel's offset, and holds its accumulators in registers across
//!   all the images of a backward chunk. The tile is stored transposed
//!   into the chunk's `[o, rows]` partial, so the in-order chunk
//!   reduction is the plain element-wise add it always was.
//! - **input gradient** — `dcols = Wᵀ·G` is scattered into a zeroed padded
//!   buffer by row-segment adds (`col2im_single`) and the interior
//!   copied out; the border soaks up what the old loop skipped.
//!
//! Each direct kernel has an AVX2 body and a portable `mul_add` body;
//! the shape alone picks the direct path, the active ISA only the body,
//! and each call checks the furthest read once before the unchecked
//! ones.
//!
//! # Why the bits do not move
//!
//! A padded read is `+0.0`, as the skipped read was. A forward element
//! is the packed GEMM's chain — one fused multiply-add per im2col row in
//! ascending order from `+0.0`, weight times input — with the same
//! operands in the same order, identical on every `MEDSPLIT_ISA`. A
//! weight-gradient element is the packed GEMM's chain over (image,
//! pixel) in ascending order with its two multiplicands swapped: fused
//! multiply-add rounds `a·b + c` once, and `a·b = b·a` exactly, so the
//! swap changes no bit — except, when both multiplicands are NaN, which
//! payload the result carries. Holding the chain in registers across a
//! chunk's images instead of parking it in memory between images is
//! exact too (an f32 store and load round-trip). `col2im` adds rows in
//! ascending `(ch, kh, kw)` order and a row reaches a pixel at most once,
//! so each interior pixel receives the additions it always did in the
//! order it always did. `tests/spatial_golden.rs` pins all of it against
//! digests taken before each change (its `conv_full_mantissa` family on
//! full-mantissa operands, NaN, `±inf`, `-0.0` and subnormals);
//! `tests/spatial_oracle.rs` holds it to a naive seven-loop convolution
//! bit for bit.
//!
//! # Parallelism and scratch
//!
//! Both passes are parallelised over the batch axis (per image forward,
//! per fixed 4-image chunk backward) and draw every temporary — padded
//! images, packed tiles, `dcols` — from the thread-local scratch arena
//! ([`crate::scratch`]), so steady-state training performs zero scratch
//! heap allocations per step. Per image in flight that is the padded
//! copy, plus `⌈OH·OW/16⌉·C·KH·KW·16` floats of tiles forward where the
//! tiles are gathered; backward, per chunk, the four padded copies and
//! `4·⌈O/16⌉·OH·OW·16` floats of `Gᵀ`, then per image `C·KH·KW·OH·OW`
//! of `dcols` and a second padded buffer. The backward pass reduces
//! per-chunk weight and bias partials in ascending chunk order; because
//! the chunking is fixed (never derived from the thread count), results
//! are identical for every `MEDSPLIT_THREADS` value.
//!
//! [`conv2d_backward_params`] is the backward pass without the input
//! gradient, for the layer that sits on raw data.

use crate::error::{Result, TensorError};
use crate::ops::check_nchw;
use crate::ops::matmul::{self, gemm_tn_into, PanelsA};
use crate::ops::microkernel::{self, MR, NR};
use crate::ops::plan::ConvPlan;
use crate::pool;
use crate::scratch;
#[cfg(target_arch = "x86_64")]
use crate::simd::{self, Isa};
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

    /// [`Self::output_hw`] for a pooling window, which must also keep
    /// `padding` below both kernel sides: at `padding >= kernel` some
    /// window lies wholly in the padding and covers no input element —
    /// a maximum over nothing, with no position to route a gradient to.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Numerical`] for such a padding or a window
    /// that does not fit.
    pub fn pool_output_hw(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        if self.padding >= self.kernel_h.min(self.kernel_w) {
            return Err(TensorError::Numerical(format!(
                "pooling padding {} must be smaller than the {}x{} window",
                self.padding, self.kernel_h, self.kernel_w
            )));
        }
        self.output_hw(h, w)
    }
}

/// How one image is lowered: the patch rows of the im2col matrix indexed
/// into a zero-bordered copy of the image, so that no read or write in
/// the gather and scatter loops needs a bounds test of its own.
///
/// Row `p` of the `[C*KH*KW, OH*OW]` column matrix is channel `ch`,
/// kernel offset `(kh, kw)` in that order; its value at output pixel
/// `(oy, ox)` is the padded image at
/// `ch*plane + (oy*stride + kh)*pw + ox*stride + kw`, which splits into a
/// per-row base ([`Self::for_rows`]) plus a per-pixel offset.
#[derive(Clone, Copy)]
struct Lowering {
    c: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
    oh: usize,
    ow: usize,
    /// Width of a padded row, `w + 2*padding`.
    pw: usize,
    /// Elements in one padded channel plane, `(h + 2*padding) * pw`.
    plane: usize,
}

impl Lowering {
    fn new(c: usize, h: usize, w: usize, spec: Conv2dSpec, (oh, ow): (usize, usize)) -> Self {
        let pw = w + 2 * spec.padding;
        Lowering {
            c,
            h,
            w,
            spec,
            oh,
            ow,
            pw,
            plane: (h + 2 * spec.padding) * pw,
        }
    }

    /// Filter-matrix depth `C*KH*KW`.
    fn rows(&self) -> usize {
        self.c * self.spec.kernel_h * self.spec.kernel_w
    }

    /// Output pixels per image.
    fn ncols(&self) -> usize {
        self.oh * self.ow
    }

    /// Elements in the padded image.
    fn padded_len(&self) -> usize {
        self.c * self.plane
    }

    /// Calls `f(p, base)` for every im2col row `p` in ascending order,
    /// `base` being the padded-image offset of the row's `(ch, kh, kw)`.
    #[inline(always)]
    fn for_rows(&self, mut f: impl FnMut(usize, usize)) {
        let mut p = 0usize;
        for ch in 0..self.c {
            for kh in 0..self.spec.kernel_h {
                let base = ch * self.plane + kh * self.pw;
                for kw in 0..self.spec.kernel_w {
                    f(p, base + kw);
                    p += 1;
                }
            }
        }
    }

    /// Padded-image offset of im2col row `p` (the `base` of
    /// [`Self::for_rows`], by division instead of by enumeration).
    fn row_base(&self, p: usize) -> usize {
        let (kh, kw) = (self.spec.kernel_h, self.spec.kernel_w);
        (p / (kh * kw)) * self.plane + (p / kw % kh) * self.pw + p % kw
    }

    /// Padded-image offset of output pixel `(oy, ox)`'s patch origin.
    fn pixel_offset(&self, oy: usize, ox: usize) -> usize {
        (oy * self.pw + ox) * self.spec.stride
    }

    /// Runs `body` on the zero-bordered copies of the `count` consecutive
    /// `[c, h, w]` images in `imgs`, laid end to end `padded_len()` apart
    /// in the scratch arena — or on `imgs` itself when there is no
    /// padding, where the images already sit that far apart.
    fn with_padded<R>(&self, imgs: &[f32], count: usize, body: impl FnOnce(&[f32]) -> R) -> R {
        let pad = self.spec.padding;
        if pad == 0 {
            return body(imgs);
        }
        let (image, plen) = (self.c * self.h * self.w, self.padded_len());
        scratch::with_f32(count * plen, |padded| {
            padded.fill(0.0);
            for (img, dst) in imgs
                .chunks_exact(image.max(1))
                .zip(padded.chunks_exact_mut(plen.max(1)))
            {
                for ch in 0..self.c {
                    for y in 0..self.h {
                        let at = ch * self.plane + (y + pad) * self.pw + pad;
                        let src = (ch * self.h + y) * self.w;
                        dst[at..at + self.w].copy_from_slice(&img[src..src + self.w]);
                    }
                }
            }
            body(padded)
        })
    }

    /// The adjoint of [`Self::with_padded`]: runs `body` on a zeroed
    /// padded buffer and copies its interior out into the `[c, h, w]`
    /// image `img` — or runs it on `img` itself, which the caller has
    /// zeroed, when there is no padding.
    fn through_padded(&self, img: &mut [f32], body: impl FnOnce(&mut [f32])) {
        let pad = self.spec.padding;
        if pad == 0 {
            return body(img);
        }
        scratch::with_f32(self.padded_len(), |padded| {
            padded.fill(0.0);
            body(padded);
            for ch in 0..self.c {
                for y in 0..self.h {
                    let at = ch * self.plane + (y + pad) * self.pw + pad;
                    let dst = (ch * self.h + y) * self.w;
                    img[dst..dst + self.w].copy_from_slice(&padded[at..at + self.w]);
                }
            }
        });
    }
}

/// Copies `dst.len()` elements `src[0], src[stride], src[2*stride], …`.
#[inline(always)]
fn copy_strided(dst: &mut [f32], src: &[f32], stride: usize) {
    if stride == 1 {
        dst.copy_from_slice(&src[..dst.len()]);
    } else {
        for (d, s) in dst.iter_mut().zip(src.iter().step_by(stride)) {
            *d = *s;
        }
    }
}

/// Lowers one padded image into a column matrix of shape
/// `[C*KH*KW, OH*OW]`, written into `cols`: one row-segment copy per
/// patch row and output row.
fn im2col_single(padded: &[f32], lo: &Lowering, cols: &mut [f32]) {
    let (ow, ncols) = (lo.ow, lo.ncols());
    lo.for_rows(|p, base| {
        for (oy, dst) in cols[p * ncols..(p + 1) * ncols].chunks_exact_mut(ow).enumerate() {
            copy_strided(dst, &padded[base + lo.pixel_offset(oy, 0)..], lo.spec.stride);
        }
    });
}

/// [`col2im_single`] at stride 1 for output rows of exactly `W` pixels:
/// each row-segment add has a compile-time width, so the 8- and 4-pixel
/// rows of the late stages are one vector add, not a loop.
fn col2im_rows<const W: usize>(cols: &[f32], lo: &Lowering, padded: &mut [f32]) {
    let ncols = lo.ncols();
    lo.for_rows(|p, base| {
        for (oy, src) in cols[p * ncols..(p + 1) * ncols].chunks_exact(W).enumerate() {
            let at = base + lo.pixel_offset(oy, 0);
            for (d, s) in padded[at..at + W].iter_mut().zip(src) {
                *d += *s;
            }
        }
    });
}

/// Scatters a column matrix back into a padded image, accumulating
/// overlaps — the adjoint of [`im2col_single`]. Rows are added in
/// ascending `(ch, kh, kw)` order and each contributes at most once to a
/// pixel, so every interior pixel sees the additions it always did, in
/// the order it always did; the border collects what used to be skipped
/// and is dropped by [`Lowering::through_padded`].
fn col2im_single(cols: &[f32], lo: &Lowering, padded: &mut [f32]) {
    let (ow, ncols, stride) = (lo.ow, lo.ncols(), lo.spec.stride);
    match (stride, ow) {
        (1, 16) => col2im_rows::<16>(cols, lo, padded),
        (1, 8) => col2im_rows::<8>(cols, lo, padded),
        (1, 4) => col2im_rows::<4>(cols, lo, padded),
        _ => lo.for_rows(|p, base| {
            for (oy, src) in cols[p * ncols..(p + 1) * ncols].chunks_exact(ow).enumerate() {
                let dst = &mut padded[base + lo.pixel_offset(oy, 0)..];
                for (d, s) in dst.iter_mut().step_by(stride).zip(src) {
                    *d += *s;
                }
            }
        }),
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
    let lo = Lowering::new(c, h, w, spec, spec.output_hw(h, w)?);
    let per_image = lo.rows() * lo.ncols();
    let mut out = Tensor::zeros([n, lo.rows(), lo.ncols()]);
    let src = input.as_slice();
    pool::parallel_chunks_mut_sized(out.as_mut_slice(), per_image, n * per_image, |i, dst| {
        lo.with_padded(&src[i * c * h * w..(i + 1) * c * h * w], 1, |padded| {
            im2col_single(padded, &lo, dst);
        });
    });
    Ok(out)
}

/// Copies, for every im2col row `p`, the `L` consecutive padded-image
/// floats at `base(p) + offset` into lanes `lane..lane+L` of tile row `p`:
/// a compile-time width, so one vector move and not a `memcpy` call.
fn gather_run<const L: usize>(padded: &[f32], lo: &Lowering, offset: usize, lane: usize, tile: &mut [f32]) {
    lo.for_rows(|p, base| {
        let at = base + offset;
        tile[p * NR + lane..][..L].copy_from_slice(&padded[at..at + L]);
    });
}

/// Gathers one NR-wide tile of output pixels directly into microkernel
/// B-tile order: `tile[p*NR + jr]` is im2col row `p` at output pixel
/// `j0+jr` (zero past `cols`). Byte-identical to materializing the full
/// `cols` matrix with [`im2col_single`] and then packing it with the
/// GEMM's B-tile packer — the fused path just never builds the
/// intermediate.
///
/// The tile is cut into runs of pixels that share an output row, whose
/// patches sit `stride` floats apart; each run is then one copy per
/// im2col row. At stride 1 the common widths (a whole tile, and the 8-
/// and 4-pixel output rows of the late VGG/ResNet stages) are
/// fixed-width copies; anything else is a plain strided loop.
fn pack_patch_tile(padded: &[f32], lo: &Lowering, j0: usize, cols: usize, tile: &mut [f32]) {
    if cols < NR {
        for row in tile.chunks_exact_mut(NR) {
            row[cols..].fill(0.0);
        }
    }
    let stride = lo.spec.stride;
    let mut lane = 0;
    while lane < cols {
        let (oy, ox) = ((j0 + lane) / lo.ow, (j0 + lane) % lo.ow);
        let len = (lo.ow - ox).min(cols - lane);
        let offset = lo.pixel_offset(oy, ox);
        match (stride, len) {
            (1, 16) => gather_run::<16>(padded, lo, offset, lane, tile),
            (1, 8) => gather_run::<8>(padded, lo, offset, lane, tile),
            (1, 4) => gather_run::<4>(padded, lo, offset, lane, tile),
            _ => lo.for_rows(|p, base| {
                copy_strided(
                    &mut tile[p * NR + lane..][..len],
                    &padded[base + offset..],
                    stride,
                );
            }),
        }
        lane += len;
    }
}

/// Whether the forward pass reads its B operand straight from the padded
/// image, and if so the length `L` of the runs of consecutive output
/// pixels one NR-pixel tile is made of: at stride 1, a tile is then
/// `NR / L` whole output rows of 4 or 8 pixels, or a 16-aligned run of
/// one row, and every run is `L` consecutive floats of every padded
/// im2col row. Any other geometry gathers its tiles
/// ([`pack_patch_tile`]). A function of the shape alone.
fn direct_forward_run(lo: &Lowering) -> Option<usize> {
    if lo.spec.stride != 1 || lo.rows() == 0 {
        return None;
    }
    match lo.ow {
        4 if lo.oh.is_multiple_of(4) => Some(4),
        8 if lo.oh.is_multiple_of(2) => Some(8),
        ow if ow.is_multiple_of(NR) => Some(NR),
        _ => None,
    }
}

/// The padded-image offsets of the first pixels of the `NR / L` runs
/// that make up the direct-forward tile starting at output pixel `j0`
/// (the remaining slots are unused).
fn tile_runs<const L: usize>(lo: &Lowering, j0: usize) -> [usize; 4] {
    let mut runs = [0; 4];
    for (r, run) in runs.iter_mut().enumerate().take(NR / L) {
        let j = j0 + r * L;
        *run = lo.pixel_offset(j / lo.ow, j % lo.ow);
    }
    runs
}

/// Whether the direct kernels take their AVX2 bodies.
fn direct_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    if simd::active_isa() == Isa::Avx2 {
        return true;
    }
    false
}

/// One direct-forward tile, portable body: the `MR×NR` product of the
/// prepacked filter panel `panel` (`rows × MR`, MR-major) and the tile's
/// im2col columns read in place, lane `jr` of im2col row `p` being
/// `padded[base(p) + runs[jr / L] + jr % L]`. Each element is the fused
/// chain `acc = a·b + acc` from `+0.0` in ascending `p`, the operands in
/// the packed GEMM's order, so it equals that GEMM's output bit for bit.
fn forward_tile_portable<const L: usize>(
    panel: &[f32],
    padded: &[f32],
    lo: &Lowering,
    runs: &[usize; 4],
    tile: &mut [f32; MR * NR],
) {
    let mut acc = [[0.0f32; NR]; MR];
    lo.for_rows(|p, base| {
        let a = &panel[p * MR..][..MR];
        for (jr, lane) in (0..NR).map(|jr| (jr, base + runs[jr / L] + jr % L)) {
            let b = padded[lane];
            for (row, &av) in acc.iter_mut().zip(a) {
                row[jr] = av.mul_add(b, row[jr]);
            }
        }
    });
    for (dst, row) in tile.chunks_exact_mut(NR).zip(&acc) {
        dst.copy_from_slice(row);
    }
}

/// AVX2 body of [`forward_tile_portable`]: the GEMM tile kernel with
/// its B rows loaded from the padded image — a 16-pixel run as two
/// loads, two 8-pixel rows as one load each, four 4-pixel rows as four
/// 128-bit halves.
///
/// # Safety
///
/// AVX2 and FMA must be available; `panel` must hold `rows * MR` floats
/// and every `padded[base(p) + runs[r] + i]`, `r < NR / L`, `i < L`, must
/// be in bounds ([`forward_direct`] asserts it once per image).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn forward_tile_avx2<const L: usize>(
    panel: &[f32],
    padded: &[f32],
    lo: &Lowering,
    runs: &[usize; 4],
    tile: &mut [f32; MR * NR],
) {
    use std::arch::x86_64::*;
    // SAFETY throughout: reads stay inside the extents the caller
    // guarantees; the stores fill `tile`, `MR * NR` floats.
    unsafe {
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
        let mut a = panel.as_ptr();
        for ch in 0..lo.c {
            for kh in 0..lo.spec.kernel_h {
                let row = padded.as_ptr().add(ch * lo.plane + kh * lo.pw);
                for kw in 0..lo.spec.kernel_w {
                    let at = row.add(kw);
                    let halves = |lo4: usize, hi4: usize| {
                        _mm256_insertf128_ps::<1>(
                            _mm256_castps128_ps256(_mm_loadu_ps(at.add(lo4))),
                            _mm_loadu_ps(at.add(hi4)),
                        )
                    };
                    let (b0, b1) = match L {
                        4 => (halves(runs[0], runs[1]), halves(runs[2], runs[3])),
                        8 => (_mm256_loadu_ps(at.add(runs[0])), _mm256_loadu_ps(at.add(runs[1]))),
                        _ => (
                            _mm256_loadu_ps(at.add(runs[0])),
                            _mm256_loadu_ps(at.add(runs[0] + 8)),
                        ),
                    };
                    for (ir, row) in acc.iter_mut().enumerate() {
                        let av = _mm256_broadcast_ss(&*a.add(ir));
                        row[0] = _mm256_fmadd_ps(av, b0, row[0]);
                        row[1] = _mm256_fmadd_ps(av, b1, row[1]);
                    }
                    a = a.add(MR);
                }
            }
        }
        let out = tile.as_mut_ptr();
        for (ir, row) in acc.iter().enumerate() {
            _mm256_storeu_ps(out.add(ir * NR), row[0]);
            _mm256_storeu_ps(out.add(ir * NR + 8), row[1]);
        }
    }
}

/// The direct forward of one image: every NR-pixel tile (runs of `L`,
/// see [`direct_forward_run`]) times every MR-row filter panel of
/// `panels`, written into the image's `[o, OH*OW]` output `dst`.
fn forward_direct<const L: usize>(padded: &[f32], lo: &Lowering, panels: &[f32], o: usize, dst: &mut [f32]) {
    let (rows, ncols) = (lo.rows(), lo.ncols());
    // One extent check for the unchecked reads: the last tap of the last
    // pixel, and whole panels.
    let last = lo.row_base(rows - 1) + lo.pixel_offset(lo.oh - 1, lo.ow - 1);
    assert!(
        last < padded.len() && panels.len() >= o.div_ceil(MR) * rows * MR && dst.len() == o * ncols,
        "direct conv forward: padded image of {} read to {last}",
        padded.len()
    );
    let avx2 = direct_avx2();
    for j0 in (0..ncols).step_by(NR) {
        let runs = tile_runs::<L>(lo, j0);
        for (pi, panel) in panels.chunks_exact(rows * MR).take(o.div_ceil(MR)).enumerate() {
            let mut tile = [0.0f32; MR * NR];
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                // SAFETY: AVX2+FMA are available (the active ISA is only
                // ever a supported one); `panel` is `rows * MR` floats
                // and the furthest read was bounds-checked above.
                unsafe { forward_tile_avx2::<L>(panel, padded, lo, &runs, &mut tile) };
            }
            if !avx2 {
                forward_tile_portable::<L>(panel, padded, lo, &runs, &mut tile);
            }
            let oc0 = pi * MR;
            for (oc, row) in (oc0..o).zip(tile.chunks_exact(NR)) {
                dst[oc * ncols + j0..][..NR].copy_from_slice(row);
            }
        }
    }
}

/// One weight-gradient tile, portable body: rows `bases` (six im2col
/// rows, as padded-image offsets) × the NR output channels of a packed
/// `Gᵀ` tile, accumulated over the `count` images of a backward chunk.
/// Image `i`'s padded copy starts at `padded[i * padded_len()]` and its `Gᵀ`
/// tile (`OH*OW × NR`, pixel-major) at `gt[i * gstride]`. Each element
/// is the fused chain over (image, pixel) in ascending order from
/// `+0.0` — the packed GEMM's `dW += G·colsᵀ` chain with its two
/// multiplicands swapped, which fused multiply-add does not see.
fn weight_tile_portable(
    padded: &[f32],
    gt: &[f32],
    gstride: usize,
    count: usize,
    lo: &Lowering,
    bases: &[usize; MR],
    tile: &mut [f32; MR * NR],
) {
    let mut acc = [[0.0f32; NR]; MR];
    for i in 0..count {
        let x = &padded[i * lo.padded_len()..];
        let mut g = gt[i * gstride..][..lo.ncols() * NR].chunks_exact(NR);
        for oy in 0..lo.oh {
            for ox in 0..lo.ow {
                let (off, b) = (lo.pixel_offset(oy, ox), g.next().expect("one Gᵀ row per pixel"));
                for (row, &base) in acc.iter_mut().zip(bases) {
                    let av = x[base + off];
                    for (v, &bv) in row.iter_mut().zip(b) {
                        *v = av.mul_add(bv, *v);
                    }
                }
            }
        }
    }
    for (dst, row) in tile.chunks_exact_mut(NR).zip(&acc) {
        dst.copy_from_slice(row);
    }
}

/// AVX2 body of [`weight_tile_portable`]: twelve accumulators held
/// across the whole chunk, each pixel one `Gᵀ` row (two loads) against
/// six broadcasts from the six row pointers.
///
/// # Safety
///
/// AVX2 and FMA must be available; for every `i < count`,
/// `padded[i * padded_len() + bases[r] + pixel_offset(oy, ox)]` and the `OH*OW*NR`
/// floats at `gt[i * gstride]` must be in bounds ([`weight_grad_direct`]
/// asserts both once per chunk).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn weight_tile_avx2(
    padded: &[f32],
    gt: &[f32],
    gstride: usize,
    count: usize,
    lo: &Lowering,
    bases: &[usize; MR],
    tile: &mut [f32; MR * NR],
) {
    use std::arch::x86_64::*;
    let (pw, s, plen) = (lo.pw, lo.spec.stride, lo.padded_len());
    // SAFETY throughout: reads stay inside the extents the caller
    // guarantees; the stores fill `tile`, `MR * NR` floats.
    unsafe {
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
        for i in 0..count {
            let x = padded.as_ptr().add(i * plen);
            let rows = bases.map(|b| x.add(b));
            let mut g = gt.as_ptr().add(i * gstride);
            for oy in 0..lo.oh {
                let mut off = oy * pw * s;
                for _ in 0..lo.ow {
                    let b0 = _mm256_loadu_ps(g);
                    let b1 = _mm256_loadu_ps(g.add(8));
                    for (acc, row) in acc.iter_mut().zip(&rows) {
                        let av = _mm256_broadcast_ss(&*row.add(off));
                        acc[0] = _mm256_fmadd_ps(av, b0, acc[0]);
                        acc[1] = _mm256_fmadd_ps(av, b1, acc[1]);
                    }
                    g = g.add(NR);
                    off += s;
                }
            }
        }
        let out = tile.as_mut_ptr();
        for (ir, row) in acc.iter().enumerate() {
            _mm256_storeu_ps(out.add(ir * NR), row[0]);
            _mm256_storeu_ps(out.add(ir * NR + 8), row[1]);
        }
    }
}

/// The weight gradient of one backward chunk of `count` images, read in
/// place: `dw[oc * rows + r] = Σ_i Σ_j cols_i[r, j] · G_i[oc, j]`, the
/// chunk's `[o, rows]` partial. `padded` holds the chunk's zero-bordered
/// images `padded_len()` apart and `gt` their `Gᵀ`, each image
/// `o.div_ceil(NR)` tiles of `OH*OW × NR` laid out by `pack_b_tile`. A
/// tile computes six im2col rows × NR output channels and is stored
/// transposed, so the chunk reduction stays the plain element-wise add it
/// was (whose NaN-payload choice between two NaN partials is the
/// compiler's, and so is kept as compiled before).
fn weight_grad_direct(padded: &[f32], lo: &Lowering, gt: &[f32], count: usize, o: usize, dw: &mut [f32]) {
    let (rows, ncols, plen) = (lo.rows(), lo.ncols(), lo.padded_len());
    let (tiles, gstride) = (o.div_ceil(NR), o.div_ceil(NR) * ncols * NR);
    if rows == 0 || o == 0 || count == 0 {
        return;
    }
    // One extent check for the unchecked reads of every image.
    let last = (count - 1) * plen + lo.row_base(rows - 1) + lo.pixel_offset(lo.oh - 1, lo.ow - 1);
    assert!(
        last < padded.len() && gt.len() >= count * gstride && dw.len() == o * rows,
        "direct conv weight gradient: {count} padded images of {} read to {last}",
        padded.len()
    );
    let avx2 = direct_avx2();
    for r0 in (0..rows).step_by(MR) {
        // Rows past the last one re-read it; their lanes are dropped.
        let bases: [usize; MR] = std::array::from_fn(|ir| lo.row_base((r0 + ir).min(rows - 1)));
        for t in 0..tiles {
            let gt = &gt[t * ncols * NR..];
            let mut tile = [0.0f32; MR * NR];
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                // SAFETY: AVX2+FMA are available; every image's furthest
                // read and its `Gᵀ` tiles were bounds-checked above.
                unsafe { weight_tile_avx2(padded, gt, gstride, count, lo, &bases, &mut tile) };
            }
            if !avx2 {
                weight_tile_portable(padded, gt, gstride, count, lo, &bases, &mut tile);
            }
            let oc0 = t * NR;
            for (r, row) in (r0..rows).zip(tile.chunks_exact(NR)) {
                for (oc, &v) in (oc0..o).zip(row) {
                    dw[oc * rows + r] = v;
                }
            }
        }
    }
}

/// The body of both forward entry points: per image, the filter matrix
/// `a` (`[o, rows]`, strided or prepacked) times the image's im2col
/// columns, plus the bias. Where [`direct_forward_run`] allows, the
/// columns are read in place against prepacked filter panels (a strided
/// `a` is packed once per call for that); elsewhere patch tiles are
/// gathered straight into packed B order for the GEMM.
fn forward_with(
    input: &Tensor,
    o: usize,
    bias: Option<&Tensor>,
    lo: Lowering,
    a: PanelsA<'_>,
    row_block: usize,
) -> Tensor {
    let _span = medsplit_telemetry::span("conv_fwd");
    let n = input.dims()[0];
    let (rows, ncols) = (lo.rows(), lo.ncols());
    let image = lo.c * lo.h * lo.w;
    let nt = ncols.div_ceil(NR);
    let mut out = Tensor::zeros([n, o, lo.oh, lo.ow]);
    let src = input.as_slice();
    let bias = bias.map(Tensor::as_slice);
    let run = direct_forward_run(&lo);
    let mut per_image = |panels: Option<&[f32]>| {
        pool::parallel_chunks_mut_sized(out.as_mut_slice(), o * ncols, n * o * rows * ncols, |i, dst| {
            lo.with_padded(&src[i * image..(i + 1) * image], 1, |padded| {
                match (run, panels) {
                    (Some(4), Some(panels)) => forward_direct::<4>(padded, &lo, panels, o, dst),
                    (Some(8), Some(panels)) => forward_direct::<8>(padded, &lo, panels, o, dst),
                    (Some(_), Some(panels)) => forward_direct::<NR>(padded, &lo, panels, o, dst),
                    _ => scratch::with_f32(nt * rows * NR, |bpack| {
                        for jt in 0..nt {
                            let (j0, tile) = (jt * NR, &mut bpack[jt * rows * NR..][..rows * NR]);
                            pack_patch_tile(padded, &lo, j0, NR.min(ncols - j0), tile);
                        }
                        matmul::gemm_compute_packed_b(a, bpack, dst, o, rows, ncols, true, row_block);
                    }),
                }
            });
            if let Some(b) = bias {
                for (oc, &bv) in b.iter().enumerate() {
                    for v in &mut dst[oc * ncols..(oc + 1) * ncols] {
                        *v += bv;
                    }
                }
            }
        });
    };
    match (run, a) {
        (None, _) => per_image(None),
        (Some(_), PanelsA::Packed(panels)) => per_image(Some(panels)),
        (Some(_), PanelsA::Strided { src, rs, cs }) => {
            scratch::with_f32(o.div_ceil(MR) * rows * MR, |panels| {
                for (pi, panel) in panels.chunks_exact_mut(rows * MR).enumerate() {
                    let i0 = pi * MR;
                    microkernel::pack_a_panel(src, rs, cs, i0, MR.min(o - i0), rows, panel);
                }
                per_image(Some(panels));
            });
        }
    }
    out
}

fn check_bias(bias: Option<&Tensor>, o: usize) -> Result<()> {
    match bias {
        Some(b) if b.numel() != o => Err(TensorError::LengthMismatch {
            expected: o,
            actual: b.numel(),
        }),
        _ => Ok(()),
    }
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
    let (_, c, h, w) = check_nchw(input, "conv2d_forward")?;
    let (o, ci, kh, kw) = check_nchw(weight, "conv2d_forward(weight)")?;
    if ci != c || kh != spec.kernel_h || kw != spec.kernel_w {
        return Err(TensorError::ShapeMismatch {
            lhs: input.shape().clone(),
            rhs: weight.shape().clone(),
            op: "conv2d_forward",
        });
    }
    check_bias(bias, o)?;
    let lo = Lowering::new(c, h, w, spec, spec.output_hw(h, w)?);
    // OIHW weights are row-major, so the `[O, C*KH*KW]` filter matrix is
    // the weight buffer viewed in place — no reshape copy.
    let a = PanelsA::Strided {
        src: weight.as_slice(),
        rs: lo.rows(),
        cs: 1,
    };
    Ok(forward_with(input, o, bias, lo, a, matmul::BLOCK))
}

/// Planned forward 2-D convolution: the plan's prepacked filter panels ×
/// patch tiles gathered straight into packed B order.
///
/// Bit-identical to [`conv2d_forward`] with the plan's weight: the two
/// differ only in where the filter panels come from.
///
/// # Errors
///
/// Returns shape errors if `input`/`bias` are inconsistent with the plan.
pub fn conv2d_forward_planned(input: &Tensor, plan: &mut ConvPlan, bias: Option<&Tensor>) -> Result<Tensor> {
    let (_, c, h, w) = check_nchw(input, "conv2d_forward")?;
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
    check_bias(bias, o)?;
    let geo = plan.geometry(h, w)?;
    let lo = Lowering::new(c, h, w, plan.spec(), (geo.oh, geo.ow));
    Ok(forward_with(
        input,
        o,
        bias,
        lo,
        plan.fwd_panels(),
        matmul::row_block(o),
    ))
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
    let (lo, o) = backward_geometry(input, weight, spec)?;
    let (wmat, rows, ncols) = (weight.as_slice(), lo.rows(), lo.ncols());
    // dcols += Wᵀ · G, re-packing the weight per image.
    let wt_g = |gmat: &[f32], dcols: &mut [f32]| gemm_tn_into(wmat, gmat, dcols, o, rows, ncols);
    let mut grad_input = Tensor::zeros(input.shape().clone());
    let (gw, gb) = backward_with(input, o, grad_out, lo, Some((&mut grad_input, wt_g)))?;
    Ok((grad_input, gw, gb))
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
    let (lo, o) = backward_geometry(input, weight, plan.spec())?;
    if lo.c != plan.in_channels() || o != plan.out_channels() {
        return Err(TensorError::ShapeMismatch {
            lhs: input.shape().clone(),
            rhs: weight.shape().clone(),
            op: "conv2d_backward",
        });
    }
    let (rows, ncols) = (lo.rows(), lo.ncols());
    let row_block = matmul::row_block(rows);
    let wpack_t = plan.bwd_panels(weight.as_slice());
    // dcols += Wᵀ · G from the cached transposed panels.
    let wt_g = |gmat: &[f32], dcols: &mut [f32]| {
        matmul::gemm_prepacked_a(wpack_t, gmat, ncols, 1, dcols, rows, o, ncols, true, row_block);
    };
    let mut grad_input = Tensor::zeros(input.shape().clone());
    let (gw, gb) = backward_with(input, o, grad_out, lo, Some((&mut grad_input, wt_g)))?;
    Ok((grad_input, gw, gb))
}

/// The parameter gradients of a 2-D convolution alone:
/// `(grad_weight, grad_bias)`, bit-identical to the last two results of
/// [`conv2d_backward`], without the `Wᵀ·G` GEMM and the `col2im` scatter
/// behind the input gradient. For the layer that sits on raw data, whose
/// input gradient nobody can ask for. `weight` supplies the filter shape
/// only.
///
/// # Errors
///
/// Returns shape errors if dimensions are inconsistent with the forward
/// pass.
pub fn conv2d_backward_params(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: Conv2dSpec,
) -> Result<(Tensor, Tensor)> {
    let (lo, o) = backward_geometry(input, weight, spec)?;
    backward_with(
        input,
        o,
        grad_out,
        lo,
        None::<(&mut Tensor, fn(&[f32], &mut [f32]))>,
    )
}

/// Shape checks shared by the backward entry points: the lowering of
/// `input` under an `OIHW` `weight` with `spec`'s kernel, and `O`.
fn backward_geometry(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> Result<(Lowering, usize)> {
    let (_, c, h, w) = check_nchw(input, "conv2d_backward")?;
    let (o, ci, kh, kw) = check_nchw(weight, "conv2d_backward(weight)")?;
    if ci != c || kh != spec.kernel_h || kw != spec.kernel_w {
        return Err(TensorError::ShapeMismatch {
            lhs: input.shape().clone(),
            rhs: weight.shape().clone(),
            op: "conv2d_backward",
        });
    }
    Ok((Lowering::new(c, h, w, spec, spec.output_hw(h, w)?), o))
}

/// The body of every backward entry point, for `o` output channels over
/// the lowering its caller derived; what is left to check is that
/// `grad_out` has that shape. Returns `(grad_weight, grad_bias)`, and
/// fills `dx`'s zeroed `[n, c, h, w]` tensor with the input gradient when
/// there is one: its `wt_g(G, dcols)` accumulates `Wᵀ·G` into the zeroed
/// `dcols`, the one step the planned and unplanned passes differ in.
fn backward_with(
    input: &Tensor,
    o: usize,
    grad_out: &Tensor,
    lo: Lowering,
    dx: Option<(&mut Tensor, impl Fn(&[f32], &mut [f32]) + Sync)>,
) -> Result<(Tensor, Tensor)> {
    let n = input.dims()[0];
    check_nchw(grad_out, "conv2d_backward(grad)")?;
    if grad_out.dims() != [n, o, lo.oh, lo.ow] {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_out.shape().clone(),
            rhs: input.shape().clone(),
            op: "conv2d_backward",
        });
    }
    let _span = medsplit_telemetry::span("conv_bwd");
    let (c, h, w) = (lo.c, lo.h, lo.w);
    let (rows, ncols) = (lo.rows(), lo.ncols());
    let mut grad_weight = Tensor::zeros([o, c, lo.spec.kernel_h, lo.spec.kernel_w]);
    let mut grad_bias = Tensor::zeros([o]);
    let src = input.as_slice();
    let g = grad_out.as_slice();
    // Each fixed-size image chunk accumulates weight/bias partials into
    // its own region of `partials` while scattering input gradients directly into its
    // (disjoint) slice of `grad_input`; the partials are then reduced
    // sequentially in chunk order below, so gradients stay bit-identical
    // across thread counts.
    let pstride = o * rows + o;
    let nchunks = n.div_ceil(BWD_CHUNK);
    let mut partials = vec![0.0f32; nchunks * pstride];
    let dx = dx.map(|(grad_input, wt_g)| (pool::RawSliceMut::new(grad_input.as_mut_slice()), wt_g));
    // One GEMM (dW) of `o·rows·ncols` multiply-accumulates per image, and
    // a second (dX) when the input gradient is wanted.
    let macs = (1 + usize::from(dx.is_some())) * n * o * rows * ncols;
    let image = c * h * w;
    let (gtiles, gstride) = (o.div_ceil(NR), o.div_ceil(NR) * ncols * NR);
    pool::parallel_chunks_mut_sized(&mut partials, pstride, macs, |chunk_idx, partial| {
        let (gw_part, gb_part) = partial.split_at_mut(o * rows);
        let lo_img = chunk_idx * BWD_CHUNK;
        let hi_img = (lo_img + BWD_CHUNK).min(n);
        let count = hi_img - lo_img;
        // dW += G·colsᵀ over the whole chunk: each image's `Gᵀ` packed
        // once, its im2col rows read in place from the padded copies.
        lo.with_padded(&src[lo_img * image..hi_img * image], count, |padded| {
            scratch::with_f32(count * gstride, |gt| {
                for (i, gt_img) in (lo_img..hi_img).zip(gt.chunks_exact_mut(gstride.max(1))) {
                    let gmat = &g[i * o * ncols..(i + 1) * o * ncols];
                    for (t, tile) in gt_img.chunks_exact_mut(ncols * NR).enumerate().take(gtiles) {
                        microkernel::pack_b_tile(gmat, 1, ncols, t * NR, NR.min(o - t * NR), ncols, tile);
                    }
                }
                weight_grad_direct(padded, &lo, gt, count, o, gw_part);
            });
        });
        for i in lo_img..hi_img {
            let gmat = &g[i * o * ncols..(i + 1) * o * ncols];
            if let Some((gi, wt_g)) = &dx {
                // dcols = Wᵀ · G, then scatter back to image space.
                scratch::with_f32(rows * ncols, |dcols| {
                    dcols.fill(0.0);
                    wt_g(gmat, dcols);
                    // SAFETY: image `i` belongs to exactly one chunk, so
                    // the reborrowed region is exclusive to this task.
                    let img = unsafe { gi.slice(i * image, (i + 1) * image) };
                    lo.through_padded(img, |padded| col2im_single(dcols, &lo, padded));
                });
            }
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
    Ok((grad_weight, grad_bias))
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

    /// Full-mantissa values with, when `specials`, NaN, `±inf`, `-0.0`
    /// and subnormals mixed in.
    fn reals(seed: u64, len: usize, specials: bool) -> Vec<f32> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = ((state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0) as f32;
                match (specials, state >> 59) {
                    (true, 0) => f32::NAN,
                    (true, 1) => f32::INFINITY,
                    (true, 2) => f32::NEG_INFINITY,
                    (true, 3) => -0.0,
                    (true, 4) => v * 1e-39,
                    _ => v,
                }
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A kernel body under test: `(panel or Gᵀ tiles, runs or row bases,
    /// output tile)`.
    type Body<'a, R> = Box<dyn Fn(&[f32], &R, &mut [f32; MR * NR]) + 'a>;

    #[test]
    fn direct_forward_runs_follow_the_shape() {
        let run = |c, h, w, k, s, p| {
            let spec = Conv2dSpec::square(k, s, p);
            direct_forward_run(&Lowering::new(c, h, w, spec, spec.output_hw(h, w).unwrap()))
        };
        // The three VGG-lite layers, whole rows and 16-aligned runs.
        assert_eq!(run(3, 16, 16, 3, 1, 1), Some(16));
        assert_eq!(run(8, 8, 8, 3, 1, 1), Some(8));
        assert_eq!(run(16, 4, 4, 3, 1, 1), Some(4));
        assert_eq!(run(2, 3, 32, 3, 1, 1), Some(16));
        assert_eq!(run(2, 6, 10, 5, 1, 1), Some(8));
        // Tiles that would cut a row, or a stride: gathered.
        assert_eq!(run(2, 3, 8, 3, 1, 1), None);
        assert_eq!(run(2, 6, 4, 3, 1, 1), None);
        assert_eq!(run(2, 4, 24, 3, 1, 1), None);
        assert_eq!(run(2, 16, 16, 3, 2, 1), None);
        assert_eq!(run(2, 8, 8, 1, 1, 0), Some(8));
    }

    /// Both direct-forward bodies, called directly per tile, against the
    /// packed path (patch tiles gathered into GEMM order, then the GEMM
    /// over the same prepacked filter panels), bit for bit.
    #[test]
    fn direct_forward_bodies_match_the_packed_path() {
        for (c, h, w, o, k, p, specials) in [
            (3, 16, 16, 8, 3, 1, false),
            (8, 8, 8, 16, 3, 1, true),
            (16, 4, 4, 32, 3, 1, false),
            (2, 3, 32, 7, 3, 1, true),
            (2, 6, 10, 13, 5, 1, false),
            (3, 8, 8, 5, 1, 0, true),
        ] {
            let spec = Conv2dSpec::square(k, 1, p);
            let lo = Lowering::new(c, h, w, spec, spec.output_hw(h, w).unwrap());
            let run = direct_forward_run(&lo).expect("a direct geometry");
            let (rows, ncols) = (lo.rows(), lo.ncols());
            let img = reals(7 + c as u64, c * h * w, specials);
            let weight = reals(11 + o as u64, o * rows, false);
            let mut panels = vec![0.0f32; o.div_ceil(MR) * rows * MR];
            for (pi, panel) in panels.chunks_exact_mut(rows * MR).enumerate() {
                microkernel::pack_a_panel(&weight, rows, 1, pi * MR, MR.min(o - pi * MR), rows, panel);
            }
            lo.with_padded(&img, 1, |padded| {
                let want = scratch::with_f32(ncols.div_ceil(NR) * rows * NR, |bpack| {
                    for (jt, tile) in bpack.chunks_exact_mut(rows * NR).enumerate() {
                        pack_patch_tile(padded, &lo, jt * NR, NR.min(ncols - jt * NR), tile);
                    }
                    let mut out = vec![0.0f32; o * ncols];
                    let a = PanelsA::Packed(&panels);
                    matmul::gemm_compute_packed_b(a, bpack, &mut out, o, rows, ncols, true, MR);
                    out
                });
                let mut bodies: Vec<(&str, Body<'_, [usize; 4]>)> = vec![(
                    "portable",
                    Box::new(|panel, runs, tile| match run {
                        4 => forward_tile_portable::<4>(panel, padded, &lo, runs, tile),
                        8 => forward_tile_portable::<8>(panel, padded, &lo, runs, tile),
                        _ => forward_tile_portable::<NR>(panel, padded, &lo, runs, tile),
                    }),
                )];
                #[cfg(target_arch = "x86_64")]
                if simd::supported(Isa::Avx2) {
                    bodies.push((
                        "avx2",
                        // SAFETY: AVX2+FMA are present; `panel` is a whole
                        // panel and the tile's reads lie inside `padded`.
                        Box::new(|panel, runs, tile| unsafe {
                            match run {
                                4 => forward_tile_avx2::<4>(panel, padded, &lo, runs, tile),
                                8 => forward_tile_avx2::<8>(panel, padded, &lo, runs, tile),
                                _ => forward_tile_avx2::<NR>(panel, padded, &lo, runs, tile),
                            }
                        }),
                    ));
                }
                for (name, body) in bodies {
                    let mut got = vec![0.0f32; o * ncols];
                    for j0 in (0..ncols).step_by(NR) {
                        let runs = match run {
                            4 => tile_runs::<4>(&lo, j0),
                            8 => tile_runs::<8>(&lo, j0),
                            _ => tile_runs::<NR>(&lo, j0),
                        };
                        for (pi, panel) in panels.chunks_exact(rows * MR).enumerate() {
                            let mut tile = [f32::NAN; MR * NR];
                            body(panel, &runs, &mut tile);
                            for (oc, row) in (pi * MR..o).zip(tile.chunks_exact(NR)) {
                                got[oc * ncols + j0..][..NR].copy_from_slice(row);
                            }
                        }
                    }
                    assert_eq!(bits(&got), bits(&want), "{name} c{c} {h}x{w} o{o} k{k}");
                }
            });
        }
    }

    /// Both weight-gradient bodies, called directly per tile over chunks
    /// of one to four images, against the packed path (`G·colsᵀ` as a
    /// GEMM per image onto the running sum), bit for bit — strides 1 and
    /// 2, with and without padding, and output channels that leave the
    /// second `Gᵀ` tile partly empty.
    #[test]
    fn weight_bodies_match_the_packed_path() {
        for (count, c, h, w, o, k, s, p, specials) in [
            (4, 3, 16, 16, 8, 3, 1, 1, false),
            (4, 8, 8, 8, 16, 3, 1, 1, true),
            (3, 16, 4, 4, 32, 3, 1, 1, false),
            (1, 2, 7, 9, 20, 3, 2, 1, true),
            (2, 3, 9, 6, 5, 2, 2, 0, false),
            (4, 1, 5, 7, 40, 5, 1, 2, false),
        ] {
            let spec = Conv2dSpec::square(k, s, p);
            let lo = Lowering::new(c, h, w, spec, spec.output_hw(h, w).unwrap());
            let (rows, ncols) = (lo.rows(), lo.ncols());
            let imgs = reals(3 + o as u64, count * c * h * w, specials);
            let g = reals(5 + rows as u64, count * o * ncols, false);
            let (tiles, gstride) = (o.div_ceil(NR), o.div_ceil(NR) * ncols * NR);
            let mut gt = vec![0.0f32; count * gstride];
            for (gmat, gt_img) in g.chunks_exact(o * ncols).zip(gt.chunks_exact_mut(gstride)) {
                for (t, tile) in gt_img.chunks_exact_mut(ncols * NR).enumerate() {
                    microkernel::pack_b_tile(gmat, 1, ncols, t * NR, NR.min(o - t * NR), ncols, tile);
                }
            }
            let mut want = vec![0.0f32; o * rows];
            for (img, gmat) in imgs.chunks_exact(c * h * w).zip(g.chunks_exact(o * ncols)) {
                let mut cols = vec![0.0f32; rows * ncols];
                lo.with_padded(img, 1, |padded| im2col_single(padded, &lo, &mut cols));
                matmul::gemm_nt_into(gmat, &cols, &mut want, o, rows, ncols, true);
            }
            lo.with_padded(&imgs, count, |padded| {
                let mut bodies: Vec<(&str, Body<'_, [usize; MR]>)> = vec![(
                    "portable",
                    Box::new(|gt, bases, tile| {
                        weight_tile_portable(padded, gt, gstride, count, &lo, bases, tile)
                    }),
                )];
                #[cfg(target_arch = "x86_64")]
                if simd::supported(Isa::Avx2) {
                    bodies.push((
                        "avx2",
                        // SAFETY: AVX2+FMA are present; every row base is
                        // a real im2col row and `gt` holds every image's
                        // tiles.
                        Box::new(|gt, bases, tile| unsafe {
                            weight_tile_avx2(padded, gt, gstride, count, &lo, bases, tile)
                        }),
                    ));
                }
                for (name, body) in bodies {
                    let mut got = vec![0.0f32; o * rows];
                    for r0 in (0..rows).step_by(MR) {
                        let bases = std::array::from_fn(|ir| lo.row_base((r0 + ir).min(rows - 1)));
                        for t in 0..tiles {
                            let mut tile = [f32::NAN; MR * NR];
                            body(&gt[t * ncols * NR..], &bases, &mut tile);
                            for (r, row) in (r0..rows).zip(tile.chunks_exact(NR)) {
                                for (oc, &v) in (t * NR..o).zip(row) {
                                    got[oc * rows + r] = v;
                                }
                            }
                        }
                    }
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{name} {count}x{c}x{h}x{w} o{o} k{k} s{s} p{p}"
                    );
                }
            });
        }
    }

    /// A padded image shorter than the lowering says is refused before
    /// any unchecked read.
    #[test]
    #[should_panic(expected = "direct conv forward")]
    fn direct_forward_checks_the_source_extent() {
        let spec = Conv2dSpec::square(3, 1, 1);
        let lo = Lowering::new(2, 8, 8, spec, (8, 8));
        let padded = vec![0.0f32; lo.padded_len() - 1];
        let panels = vec![0.0f32; lo.rows() * MR];
        let mut dst = vec![0.0f32; 4 * 64];
        forward_direct::<8>(&padded, &lo, &panels, 4, &mut dst);
    }

    #[test]
    #[should_panic(expected = "direct conv weight gradient")]
    fn weight_gradient_checks_the_source_extent() {
        let spec = Conv2dSpec::square(3, 1, 1);
        let lo = Lowering::new(2, 8, 8, spec, (8, 8));
        let padded = vec![0.0f32; 2 * lo.padded_len() - 1];
        let gt = vec![0.0f32; 2 * 64 * NR];
        let mut dw = vec![0.0f32; 4 * lo.rows()];
        weight_grad_direct(&padded, &lo, &gt, 2, 4, &mut dw);
    }
}
