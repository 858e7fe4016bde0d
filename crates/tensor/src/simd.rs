//! Runtime ISA detection and dispatch for the SIMD compute kernels.
//!
//! The hot kernels (the GEMM microkernel in [`crate::ops::microkernel`]
//! and the elementwise maps below) exist in up to three implementations:
//! AVX2+FMA (`x86_64`), NEON (`aarch64`), and a portable fallback. The
//! active one is picked **once** per process from CPU feature detection,
//! overridable with `MEDSPLIT_ISA=scalar|avx2|neon` for A/B testing, and
//! switchable at runtime via [`set_isa`] (benchmarks and tests use this;
//! it is process-global like [`crate::pool::set_num_threads`]).
//!
//! # Bit-identical results across ISAs
//!
//! Every implementation of a kernel performs the *same* floating-point
//! operations on each output element in the *same* order; vector width
//! only changes how many independent elements advance per instruction,
//! never the per-element rounding sequence. Concretely:
//!
//! - the GEMM microkernels accumulate each output element over `k` in
//!   ascending order with a **fused** multiply-add per step — hardware
//!   `vfmadd`/`fmla` lanes on AVX2/NEON, [`f32::mul_add`] (exactly
//!   rounded by IEEE 754 definition) in the portable kernel;
//! - the elementwise kernels use the identical unfused expression per
//!   lane (`a + b`, `y += alpha * x`, compare-and-select ReLU);
//! - the int8 wire codec's `absmax` is an integer max, exact in any
//!   order; its quantiser is the one exception to "same operations": the
//!   AVX2 body replaces the reference's f64 division with an f32
//!   reciprocal plus two exact fused sign tests, and is equal to the
//!   reference by the argument on `avx2::quantize_i8` (and by test).
//!
//! The elementwise and int8 kernels have AVX2 bodies only; `aarch64`
//! runs their portable code.
//!
//! `MEDSPLIT_ISA=scalar` therefore reproduces the SIMD results **to the
//! bit** (pinned by `tests/parallel_kernels.rs` and a CI digest A/B),
//! and results are reproducible across hosts. The price: the portable
//! GEMM kernel's `mul_add` compiles to a libm call on targets without a
//! compile-time FMA guarantee, so the scalar path is a slow *reference*
//! implementation, not a fast fallback — dispatch exists precisely so
//! real hosts never run it.

use std::sync::atomic::{AtomicU8, Ordering};

/// The instruction sets the kernels can dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable reference kernels (fused via [`f32::mul_add`]).
    Scalar,
    /// AVX2 + FMA (`x86_64`), 8-lane `f32` vectors.
    Avx2,
    /// NEON (`aarch64`), 4-lane `f32` vectors.
    Neon,
}

impl Isa {
    /// Stable lowercase name (`scalar` / `avx2` / `neon`) — the values
    /// `MEDSPLIT_ISA` accepts.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Neon => "neon",
        }
    }

    /// Numeric level reported to telemetry (`kernel.isa_level` gauge):
    /// 0 = scalar, 1 = neon, 2 = avx2.
    pub fn level(self) -> u8 {
        match self {
            Isa::Scalar => 0,
            Isa::Neon => 1,
            Isa::Avx2 => 2,
        }
    }

    fn from_code(code: u8) -> Isa {
        match code {
            2 => Isa::Avx2,
            3 => Isa::Neon,
            _ => Isa::Scalar,
        }
    }

    fn code(self) -> u8 {
        match self {
            Isa::Scalar => 1,
            Isa::Avx2 => 2,
            Isa::Neon => 3,
        }
    }
}

/// Active ISA: 0 = unresolved, otherwise `Isa::code()`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// What the hardware supports, independent of any override.
pub fn detect() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return Isa::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is a baseline feature of aarch64.
        return Isa::Neon;
    }
    #[allow(unreachable_code)]
    Isa::Scalar
}

fn resolve() -> Isa {
    let requested = match std::env::var("MEDSPLIT_ISA") {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Isa::Scalar),
            "avx2" => Some(Isa::Avx2),
            "neon" => Some(Isa::Neon),
            "" | "auto" => None,
            other => {
                eprintln!("MEDSPLIT_ISA={other:?} not recognised (scalar|avx2|neon|auto); auto-detecting");
                None
            }
        },
        Err(_) => None,
    };
    match requested {
        Some(isa) if supported(isa) => isa,
        Some(isa) => {
            eprintln!(
                "MEDSPLIT_ISA={} not supported on this host; falling back to {}",
                isa.name(),
                detect().name()
            );
            detect()
        }
        None => detect(),
    }
}

/// Whether `isa` can run on this host.
pub fn supported(isa: Isa) -> bool {
    match isa {
        Isa::Scalar => true,
        Isa::Avx2 | Isa::Neon => detect() == isa,
    }
}

/// The ISA the kernels currently dispatch to. Resolved on first use from
/// feature detection and the `MEDSPLIT_ISA` override, then cached.
pub fn active_isa() -> Isa {
    let code = ACTIVE.load(Ordering::Relaxed);
    if code != 0 {
        return Isa::from_code(code);
    }
    let isa = resolve();
    // Racing initialisers compute the same value; last write wins.
    ACTIVE.store(isa.code(), Ordering::Relaxed);
    medsplit_telemetry::gauge_set("kernel.isa_level", f64::from(isa.level()));
    isa
}

/// Overrides the dispatch target at runtime (process-global; benchmarks
/// A/B kernels with it). Returns `false` — leaving the active ISA
/// unchanged — if the host cannot run `isa`.
pub fn set_isa(isa: Isa) -> bool {
    if !supported(isa) {
        return false;
    }
    ACTIVE.store(isa.code(), Ordering::Relaxed);
    medsplit_telemetry::gauge_set("kernel.isa_level", f64::from(isa.level()));
    true
}

/// Same-shape binary elementwise operations with a dispatched kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
}

impl BinOp {
    /// The operation on one pair: what every kernel computes per lane.
    pub(crate) fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
        }
    }

    /// Lowercase name, for error messages.
    pub(crate) fn name(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
        }
    }
}

/// `out[i] = a[i] op b[i]`. All slices must have equal length.
pub(crate) fn binary(op: BinOp, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if active_isa() == Isa::Avx2 {
        // SAFETY: detection guarantees AVX2 is available.
        unsafe { avx2::binary(op, a, b, out) };
        return;
    }
    binary_portable(op, a, b, out);
}

fn binary_portable(op: BinOp, a: &[f32], b: &[f32], out: &mut [f32]) {
    match op {
        BinOp::Add => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = x + y;
            }
        }
        BinOp::Sub => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = x - y;
            }
        }
        BinOp::Mul => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = x * y;
            }
        }
        BinOp::Div => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = x / y;
            }
        }
    }
}

/// `dst[i] += alpha * src[i]` — deliberately *unfused* (separate multiply
/// and add roundings) on every ISA, matching the historical accumulator
/// semantics the optimisers were tuned against.
pub(crate) fn axpy(alpha: f32, dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if active_isa() == Isa::Avx2 {
        // SAFETY: detection guarantees AVX2 is available.
        unsafe { avx2::axpy(alpha, dst, src) };
        return;
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += alpha * s;
    }
}

/// `dst[i] += src[i]`.
pub(crate) fn add_assign(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if active_isa() == Isa::Avx2 {
        // SAFETY: detection guarantees AVX2 is available.
        unsafe { avx2::add_assign(dst, src) };
        return;
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// `dst[i] *= s`.
pub(crate) fn scale(dst: &mut [f32], s: f32) {
    #[cfg(target_arch = "x86_64")]
    if active_isa() == Isa::Avx2 {
        // SAFETY: detection guarantees AVX2 is available.
        unsafe { avx2::scale(dst, s) };
        return;
    }
    for d in dst.iter_mut() {
        *d *= s;
    }
}

/// `out[i] = if src[i] > 0 { src[i] } else { 0.0 }`.
///
/// Select-by-comparison rather than `max`: it maps `-0.0` and NaN inputs
/// to `+0.0` identically on every ISA (vector `max` NaN/zero semantics
/// differ between instruction sets).
pub(crate) fn relu(src: &[f32], out: &mut [f32]) {
    debug_assert_eq!(src.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if active_isa() == Isa::Avx2 {
        // SAFETY: detection guarantees AVX2 is available.
        unsafe { avx2::relu(src, out) };
        return;
    }
    for (o, &x) in out.iter_mut().zip(src) {
        *o = if x > 0.0 { x } else { 0.0 };
    }
}

/// ReLU backward: `out[i] = if y[i] > 0 { g[i] } else { 0.0 }`, where `y`
/// is the cached forward *output*.
pub(crate) fn relu_grad(y: &[f32], g: &[f32], out: &mut [f32]) {
    debug_assert_eq!(y.len(), g.len());
    debug_assert_eq!(y.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if active_isa() == Isa::Avx2 {
        // SAFETY: detection guarantees AVX2 is available.
        unsafe { avx2::relu_grad(y, g, out) };
        return;
    }
    for ((o, &yv), &gv) in out.iter_mut().zip(y).zip(g) {
        *o = if yv > 0.0 { gv } else { 0.0 };
    }
}

/// Leaky ReLU: `out[i] = if src[i] > 0 { src[i] } else { alpha * src[i] }`.
pub(crate) fn leaky_relu(alpha: f32, src: &[f32], out: &mut [f32]) {
    debug_assert_eq!(src.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if active_isa() == Isa::Avx2 {
        // SAFETY: detection guarantees AVX2 is available.
        unsafe { avx2::leaky_relu(alpha, src, out) };
        return;
    }
    for (o, &x) in out.iter_mut().zip(src) {
        *o = if x > 0.0 { x } else { alpha * x };
    }
}

/// Leaky ReLU backward against the cached forward *input* `x`:
/// `out[i] = if x[i] > 0 { g[i] } else { alpha * g[i] }`.
pub(crate) fn leaky_relu_grad(alpha: f32, x: &[f32], g: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), g.len());
    debug_assert_eq!(x.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if active_isa() == Isa::Avx2 {
        // SAFETY: detection guarantees AVX2 is available.
        unsafe { avx2::leaky_relu_grad(alpha, x, g, out) };
        return;
    }
    for ((o, &xv), &gv) in out.iter_mut().zip(x).zip(g) {
        *o = if xv > 0.0 { gv } else { alpha * gv };
    }
}

/// Bit pattern of `+inf`: sign-cleared patterns above it are NaNs.
const INF_BITS: u32 = 0x7F80_0000;

/// Largest finite-or-infinite `|v|` of the slice, NaNs ignored (a stray
/// NaN cannot poison the scale of a whole int8 frame); `+0.0` for an
/// empty or all-NaN slice. Non-negative floats order like their bit
/// patterns, so this is an integer max — exact, hence equal on every ISA.
pub(crate) fn absmax(src: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if active_isa() == Isa::Avx2 {
        // SAFETY: detection guarantees AVX2 is available.
        return f32::from_bits(unsafe { avx2::absmax_bits(src) });
    }
    f32::from_bits(absmax_bits_portable(src))
}

fn absmax_bits_portable(src: &[f32]) -> u32 {
    src.iter()
        .map(|v| v.to_bits() & 0x7FFF_FFFF)
        .map(|b| if b > INF_BITS { 0 } else { b })
        .max()
        .unwrap_or(0)
}

/// Scales the vector quantiser accepts: both `scale` and `1/scale` are
/// normal floats with two binades to spare, so the reciprocal keeps full
/// precision and the correction residues cannot underflow to zero (see
/// `avx2::quantize_i8`). Outside it — and for NaN or infinite scales —
/// every ISA runs the per-element reference.
const VECTOR_SCALES: std::ops::RangeInclusive<f32> =
    f32::MIN_POSITIVE * 4.0..=1.0 / (f32::MIN_POSITIVE * 4.0);

/// `dst[i] = quantize_one(src[i], scale)` as a byte: the int8 wire
/// codec's quantiser against a positive per-tensor scale.
pub(crate) fn quantize_i8(src: &[f32], scale: f32, dst: &mut [u8]) {
    debug_assert_eq!(src.len(), dst.len());
    #[cfg(target_arch = "x86_64")]
    if active_isa() == Isa::Avx2 && VECTOR_SCALES.contains(&scale) {
        // SAFETY: detection guarantees AVX2 and FMA are available.
        unsafe { avx2::quantize_i8(src, scale, dst) };
        return;
    }
    quantize_i8_portable(src, scale, dst);
}

fn quantize_i8_portable(src: &[f32], scale: f32, dst: &mut [u8]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = quantize_one(v, scale) as u8;
    }
}

/// Quantises one value against a positive scale: round half away from
/// zero, saturating to the symmetric range ±127; NaN gives 0.
///
/// The ratio is formed in f64 so the rounding decision depends only on
/// the IEEE-exact quotient, never on an intermediate f32 rounding —
/// quantisation is therefore bit-deterministic across ISAs and hosts.
/// Rounding is truncation plus a comparison of the exactly representable
/// remainder with one half, so there is no branch and no libm call.
fn quantize_one(v: f32, scale: f32) -> i8 {
    let q = f64::from(v) / f64::from(scale);
    let mag = q.abs();
    // A comparison, not `f64::min`, so that NaN stays NaN (and casts to 0).
    let mag = if mag > 127.0 { 127.0 } else { mag };
    let whole = mag as i32;
    let rounded = whole + i32::from(mag - f64::from(whole) >= 0.5);
    (if q < 0.0 { -rounded } else { rounded }) as i8
}

/// AVX2 elementwise kernels. Each mirrors its portable counterpart
/// lane-for-lane: identical operations, identical rounding, so results
/// are bit-identical — the vector just advances 8 elements at a time.
/// The int8 quantiser is the exception: different operations, proved to
/// give the same bytes (see `quantize_i8`).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::BinOp;
    use std::arch::x86_64::*;

    const LANES: usize = 8;

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn binary(op: BinOp, a: &[f32], b: &[f32], out: &mut [f32]) {
        let n = out.len();
        let mut i = 0;
        while i + LANES <= n {
            let x = _mm256_loadu_ps(a.as_ptr().add(i));
            let y = _mm256_loadu_ps(b.as_ptr().add(i));
            let r = match op {
                BinOp::Add => _mm256_add_ps(x, y),
                BinOp::Sub => _mm256_sub_ps(x, y),
                BinOp::Mul => _mm256_mul_ps(x, y),
                BinOp::Div => _mm256_div_ps(x, y),
            };
            _mm256_storeu_ps(out.as_mut_ptr().add(i), r);
            i += LANES;
        }
        super::binary_portable(op, &a[i..], &b[i..], &mut out[i..]);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy(alpha: f32, dst: &mut [f32], src: &[f32]) {
        let n = dst.len();
        let va = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + LANES <= n {
            let d = _mm256_loadu_ps(dst.as_ptr().add(i));
            let s = _mm256_loadu_ps(src.as_ptr().add(i));
            // mul then add (not fmadd): matches the scalar `d + alpha*s`.
            let r = _mm256_add_ps(d, _mm256_mul_ps(va, s));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), r);
            i += LANES;
        }
        for (d, &s) in dst[i..].iter_mut().zip(&src[i..]) {
            *d += alpha * s;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_assign(dst: &mut [f32], src: &[f32]) {
        let n = dst.len();
        let mut i = 0;
        while i + LANES <= n {
            let d = _mm256_loadu_ps(dst.as_ptr().add(i));
            let s = _mm256_loadu_ps(src.as_ptr().add(i));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_add_ps(d, s));
            i += LANES;
        }
        for (d, &s) in dst[i..].iter_mut().zip(&src[i..]) {
            *d += s;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale(dst: &mut [f32], s: f32) {
        let n = dst.len();
        let vs = _mm256_set1_ps(s);
        let mut i = 0;
        while i + LANES <= n {
            let d = _mm256_loadu_ps(dst.as_ptr().add(i));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_mul_ps(d, vs));
            i += LANES;
        }
        for d in dst[i..].iter_mut() {
            *d *= s;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn relu(src: &[f32], out: &mut [f32]) {
        let n = out.len();
        let zero = _mm256_setzero_ps();
        let mut i = 0;
        while i + LANES <= n {
            let x = _mm256_loadu_ps(src.as_ptr().add(i));
            // x > 0 ? x : 0 — the mask is all-ones/all-zeros per lane, so
            // AND implements the select (NaN compares false -> 0).
            let mask = _mm256_cmp_ps::<_CMP_GT_OQ>(x, zero);
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_and_ps(x, mask));
            i += LANES;
        }
        for (o, &x) in out[i..].iter_mut().zip(&src[i..]) {
            *o = if x > 0.0 { x } else { 0.0 };
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn relu_grad(y: &[f32], g: &[f32], out: &mut [f32]) {
        let n = out.len();
        let zero = _mm256_setzero_ps();
        let mut i = 0;
        while i + LANES <= n {
            let yv = _mm256_loadu_ps(y.as_ptr().add(i));
            let gv = _mm256_loadu_ps(g.as_ptr().add(i));
            let mask = _mm256_cmp_ps::<_CMP_GT_OQ>(yv, zero);
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_and_ps(gv, mask));
            i += LANES;
        }
        for ((o, &yv), &gv) in out[i..].iter_mut().zip(&y[i..]).zip(&g[i..]) {
            *o = if yv > 0.0 { gv } else { 0.0 };
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn leaky_relu(alpha: f32, src: &[f32], out: &mut [f32]) {
        let n = out.len();
        let zero = _mm256_setzero_ps();
        let va = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + LANES <= n {
            let x = _mm256_loadu_ps(src.as_ptr().add(i));
            let mask = _mm256_cmp_ps::<_CMP_GT_OQ>(x, zero);
            let neg = _mm256_mul_ps(va, x);
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_blendv_ps(neg, x, mask));
            i += LANES;
        }
        for (o, &x) in out[i..].iter_mut().zip(&src[i..]) {
            *o = if x > 0.0 { x } else { alpha * x };
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn leaky_relu_grad(alpha: f32, x: &[f32], g: &[f32], out: &mut [f32]) {
        let n = out.len();
        let zero = _mm256_setzero_ps();
        let va = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + LANES <= n {
            let xv = _mm256_loadu_ps(x.as_ptr().add(i));
            let gv = _mm256_loadu_ps(g.as_ptr().add(i));
            let mask = _mm256_cmp_ps::<_CMP_GT_OQ>(xv, zero);
            let neg = _mm256_mul_ps(va, gv);
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_blendv_ps(neg, gv, mask));
            i += LANES;
        }
        for ((o, &xv), &gv) in out[i..].iter_mut().zip(&x[i..]).zip(&g[i..]) {
            *o = if xv > 0.0 { gv } else { alpha * gv };
        }
    }

    /// The bits of `super::absmax`: four 8-lane running maxima of the
    /// sign-cleared patterns (NaN lanes zeroed), reduced at the end.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn absmax_bits(src: &[f32]) -> u32 {
        const STEP: usize = 4 * LANES;
        let n = src.len();
        let magnitude = _mm256_set1_epi32(0x7FFF_FFFF);
        let inf = _mm256_set1_epi32(super::INF_BITS as i32);
        let lane = |i: usize| {
            let b = _mm256_and_si256(_mm256_loadu_si256(src.as_ptr().add(i).cast()), magnitude);
            // Patterns are non-negative here, so a signed compare orders them.
            _mm256_andnot_si256(_mm256_cmpgt_epi32(b, inf), b)
        };
        let mut acc = [_mm256_setzero_si256(); 4];
        let mut i = 0;
        while i + STEP <= n {
            for (k, m) in acc.iter_mut().enumerate() {
                *m = _mm256_max_epi32(*m, lane(i + k * LANES));
            }
            i += STEP;
        }
        let m = _mm256_max_epi32(_mm256_max_epi32(acc[0], acc[1]), _mm256_max_epi32(acc[2], acc[3]));
        let m = _mm_max_epi32(_mm256_castsi256_si128(m), _mm256_extracti128_si256::<1>(m));
        let m = _mm_max_epi32(m, _mm_shuffle_epi32::<0b01_00_11_10>(m));
        let m = _mm_max_epi32(m, _mm_shuffle_epi32::<0b10_11_00_01>(m));
        (_mm_cvtsi128_si32(m) as u32).max(super::absmax_bits_portable(&src[i..]))
    }

    /// The int8 quantiser, 32 values per step, bit for bit what
    /// `super::quantize_one` gives for a scale in `super::VECTOR_SCALES`.
    ///
    /// Per lane, with `a = |v|` (NaN → 0) and `x = a / scale` the exact
    /// real quotient:
    /// 1. candidate `c = trunc(min(fma(a, 1/scale, ½), 128))`. The
    ///    reciprocal and the fma each round once, so `c` is within one of
    ///    `floor(x + ½)` whenever that is below 128;
    /// 2. correction: `c += 1` if `fma(c + ½, scale, −a) ≤ 0`, `c −= 1` if
    ///    `fma(c − ½, scale, −a) > 0`. Each residue is a multiple of
    ///    2^-149 because `scale ≥ 2^-124`, so round-to-nearest keeps the
    ///    sign of a nonzero residue and never yields a false zero: the
    ///    tests decide `x ≥ c + ½` and `x < c − ½` exactly, and `c` lands
    ///    on round-half-away of `x`;
    /// 3. clamp at 127, reapply the sign of `v`, narrow to bytes.
    ///
    /// The f64 reference decides the same: a quotient of two f32s that
    /// is not a half-integer lies at least 2^-26 from one, further than
    /// the f64 division's rounding error at magnitudes ≤ 128.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn quantize_i8(src: &[f32], scale: f32, dst: &mut [u8]) {
        const STEP: usize = 4 * LANES;
        // Both bounds: the stores below must stay inside `dst`.
        let n = src.len().min(dst.len());
        let s = _mm256_set1_ps(scale);
        let r = _mm256_set1_ps(1.0 / scale);
        let half = _mm256_set1_ps(0.5);
        let one = _mm256_set1_ps(1.0);
        let cap = _mm256_set1_ps(128.0);
        let top = _mm256_set1_ps(127.0);
        let zero = _mm256_setzero_ps();
        let magnitude = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
        let lane = |i: usize| {
            let v = _mm256_loadu_ps(src.as_ptr().add(i));
            let a = _mm256_and_ps(_mm256_and_ps(v, magnitude), _mm256_cmp_ps::<_CMP_ORD_Q>(v, v));
            let c = _mm256_min_ps(_mm256_fmadd_ps(a, r, half), cap);
            let c = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(c);
            let up = _mm256_cmp_ps::<_CMP_LE_OQ>(_mm256_fmsub_ps(_mm256_add_ps(c, half), s, a), zero);
            let down = _mm256_cmp_ps::<_CMP_GT_OQ>(_mm256_fmsub_ps(_mm256_sub_ps(c, half), s, a), zero);
            let c = _mm256_sub_ps(_mm256_add_ps(c, _mm256_and_ps(up, one)), _mm256_and_ps(down, one));
            let q = _mm256_cvttps_epi32(_mm256_min_ps(c, top));
            // Negates lanes whose sign bit is set (NaN lanes are 0 already).
            _mm256_sign_epi32(q, _mm256_castps_si256(v))
        };
        // packs interleaves 128-bit halves; this puts the 32 bytes back in
        // source order.
        let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let mut i = 0;
        while i + STEP <= n {
            let lo = _mm256_packs_epi32(lane(i), lane(i + LANES));
            let hi = _mm256_packs_epi32(lane(i + 2 * LANES), lane(i + 3 * LANES));
            let bytes = _mm256_permutevar8x32_epi32(_mm256_packs_epi16(lo, hi), order);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), bytes);
            i += STEP;
        }
        super::quantize_i8_portable(&src[i..], scale, &mut dst[i..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that flip the process-global active ISA.
    static ISA_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn mk(seed: u32, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                ((h % 2001) as f32) / 500.0 - 2.0
            })
            .collect()
    }

    /// Runs `f` under the scalar ISA and the detected ISA and asserts the
    /// outputs match bit-for-bit.
    fn assert_isa_bit_identical(f: impl Fn() -> Vec<f32>) {
        let _g = ISA_LOCK.lock().unwrap();
        assert!(set_isa(Isa::Scalar));
        let scalar = f();
        assert!(set_isa(detect()));
        let native = f();
        assert_eq!(
            scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            native.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn isa_names_and_levels_are_stable() {
        assert_eq!(Isa::Scalar.name(), "scalar");
        assert_eq!(Isa::Avx2.name(), "avx2");
        assert_eq!(Isa::Neon.name(), "neon");
        assert_eq!(Isa::Scalar.level(), 0);
        assert!(supported(Isa::Scalar));
        assert!(supported(detect()));
    }

    #[test]
    fn set_isa_rejects_unsupported() {
        let _g = ISA_LOCK.lock().unwrap();
        let host = detect();
        if host != Isa::Neon {
            assert!(!set_isa(Isa::Neon));
        }
        if host != Isa::Avx2 {
            assert!(!set_isa(Isa::Avx2));
        }
        assert!(set_isa(host));
        assert_eq!(active_isa(), host);
    }

    #[test]
    fn binary_ops_bit_identical_across_isas() {
        // 1037 is deliberately not a multiple of the vector width, so the
        // tail path runs too.
        let a = mk(1, 1037);
        let b = mk(2, 1037);
        for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div] {
            assert_isa_bit_identical(|| {
                let mut out = vec![0.0; a.len()];
                binary(op, &a, &b, &mut out);
                out
            });
        }
    }

    #[test]
    fn accumulators_bit_identical_across_isas() {
        let src = mk(3, 517);
        assert_isa_bit_identical(|| {
            let mut d = mk(4, 517);
            axpy(0.37, &mut d, &src);
            add_assign(&mut d, &src);
            scale(&mut d, -1.25);
            d
        });
    }

    #[test]
    fn relu_family_bit_identical_across_isas() {
        let mut x = mk(5, 299);
        // Force the edge cases the select semantics pin down.
        x[0] = -0.0;
        x[1] = 0.0;
        x[2] = f32::NAN;
        x[3] = f32::INFINITY;
        x[4] = f32::NEG_INFINITY;
        let g = mk(6, 299);
        assert_isa_bit_identical(|| {
            let mut out = vec![0.0; x.len()];
            let mut parts = Vec::new();
            relu(&x, &mut out);
            parts.extend_from_slice(&out);
            relu_grad(&x, &g, &mut out);
            parts.extend_from_slice(&out);
            leaky_relu(0.01, &x, &mut out);
            parts.extend_from_slice(&out);
            leaky_relu_grad(0.01, &x, &g, &mut out);
            parts.extend_from_slice(&out);
            parts
        });
    }

    #[test]
    fn quantiser_bit_identical_across_isas_and_to_the_reference() {
        // Scales m·2^e with a small odd m make every (k+½)·scale exact, so
        // values sit on the rounding boundary whichever way 1/scale
        // rounds; ±1–2 ulp neighbours, values past ±127·scale (the clamp),
        // ±inf, NaN and ±0 ride along. 77 values: vector body plus tail.
        for e in [-124, -60, -7, 0, 3, 40, 100, 124] {
            for m in (1..=255).step_by(2) {
                let scale = m as f32 * 2.0f32.powi(e);
                let mut x: Vec<f32> = (-40..=40)
                    .flat_map(|k| {
                        let on = (k as f32 * 3.25 + 0.5) * scale;
                        (-2i32..=2).map(move |d| f32::from_bits((on.to_bits() as i32 + d) as u32))
                    })
                    .collect();
                x.truncate(77);
                x[..7].copy_from_slice(&[
                    f32::NAN,
                    -0.0,
                    0.0,
                    f32::INFINITY,
                    f32::NEG_INFINITY,
                    200.0 * scale,
                    -128.0 * scale,
                ]);
                let want: Vec<u8> = x.iter().map(|&v| quantize_one(v, scale) as u8).collect();
                let _g = ISA_LOCK.lock().unwrap();
                for isa in [Isa::Scalar, detect()] {
                    assert!(set_isa(isa));
                    let mut got = vec![0xA5; x.len()];
                    quantize_i8(&x, scale, &mut got);
                    assert_eq!(got, want, "{} at scale {m}·2^{e}", isa.name());
                }
            }
        }
    }

    #[test]
    fn relu_edge_semantics() {
        let x = [-0.0f32, 0.0, f32::NAN, -3.5, 2.0];
        let mut out = [9.0f32; 5];
        relu(&x, &mut out);
        assert_eq!(out[0].to_bits(), 0.0f32.to_bits(), "-0.0 maps to +0.0");
        assert_eq!(out[1], 0.0);
        assert_eq!(out[2], 0.0, "NaN maps to 0");
        assert_eq!(out[3], 0.0);
        assert_eq!(out[4], 2.0);
    }
}
