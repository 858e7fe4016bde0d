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
//!   lane (`a + b`, `y += alpha * x`, compare-and-select ReLU).
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

/// AVX2 elementwise kernels. Each mirrors its portable counterpart
/// lane-for-lane: identical operations, identical rounding, so results
/// are bit-identical — the vector just advances 8 elements at a time.
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
