//! Runtime ISA detection and dispatch for the SIMD compute kernels.
//!
//! A hot kernel has one body: portable safe code, which defines its
//! bits. On `x86_64` with AVX2 the same body runs compiled a second time
//! inside a `#[target_feature(enable = "avx2")]` (or `"avx2,fma"`)
//! function, which the compiler vectorises, behind one dispatching
//! `unsafe` call: `kernel!` writes the three, and it is the one way a
//! kernel reaches the CPU's vector units. That holds for the binary ops,
//! `axpy`, `add_assign`, `scale`, the ReLU family and the int8 codec's
//! `absmax` and quantiser here, for the GEMM row blocks (the tile
//! inlines into them), the direct conv tiles and the 2×2 max-pool under
//! `crate::ops`, and for the envelope checksum in `medsplit-simnet`. A
//! hand-written intrinsic body stays only where a benchmark workload
//! that runs it resolves a loss without it: the transposing pack's in
//! `crate::ops::microkernel` (DESIGN §11 lists it with the runs that
//! keep it).
//!
//! The active ISA is picked **once** per process from CPU feature
//! detection, overridable with `MEDSPLIT_ISA=scalar|avx2|auto` for A/B
//! testing, and switchable at runtime via [`set_isa`] (benchmarks and
//! tests use this; it is process-global like
//! [`crate::pool::set_num_threads`]). Other targets run the portable
//! bodies as compiled for their baseline (on `aarch64` that includes
//! NEON and FMA).
//!
//! # Bit-identical results across ISAs
//!
//! Both compilations of a body perform the *same* floating-point
//! operations on each output element in the *same* order; vector width
//! only changes how many independent elements advance per instruction,
//! never the per-element rounding sequence. Concretely:
//!
//! - the GEMM and conv tiles accumulate each output element over `k` in
//!   ascending order with one [`f32::mul_add`] per step (exactly rounded
//!   by IEEE 754 definition, and compiled to `vfmadd` lanes where FMA is
//!   enabled);
//! - the elementwise kernels use one unfused expression per element
//!   (`a + b`, `y += alpha * x`, compare-and-select ReLU) on every ISA;
//!   Rust never contracts it into a fused operation;
//! - the int8 wire codec's `absmax` is an integer max, exact in any
//!   order; its quantiser's one body, on every ISA, replaces the f64
//!   division of the reference (`quantize_one`) with an f32 reciprocal
//!   plus two exact fused sign tests, and is equal to the reference by
//!   the argument on `quantize_i8_fused` (and by test).
//!
//! `MEDSPLIT_ISA=scalar` therefore reproduces the SIMD results **to the
//! bit** (pinned by the `tests/*_golden.rs` files at scalar and auto
//! ISA), and results are reproducible across hosts. The one exception is
//! a NaN result with two NaN inputs (two NaN operands, or a NaN factor
//! times a NaN element): which payload survives is the compilation's
//! choice of operand order, and the scalar one differs for `+`, `*`,
//! `scale`, `axpy`, `add_assign` and the fused chains of the GEMM and
//! conv tiles. The price: the
//! portable tiles' `mul_add` compiles to a libm call on targets without
//! a compile-time FMA guarantee, so the scalar path is a slow
//! *reference* implementation, not a fast fallback — dispatch exists
//! precisely so real hosts never run it.

use std::sync::atomic::{AtomicU8, Ordering};

/// The instruction sets the kernels can dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable kernels as compiled for the target's baseline (fused via
    /// [`f32::mul_add`]).
    Scalar,
    /// AVX2 + FMA (`x86_64`), 8-lane `f32` vectors.
    Avx2,
}

impl Isa {
    /// Stable lowercase name (`scalar` / `avx2`) — the values
    /// `MEDSPLIT_ISA` accepts besides `auto`.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
        }
    }

    /// Numeric level reported to telemetry (`kernel.isa_level` gauge):
    /// 0 = scalar, 2 = avx2.
    pub fn level(self) -> u8 {
        match self {
            Isa::Scalar => 0,
            Isa::Avx2 => 2,
        }
    }

    fn from_code(code: u8) -> Isa {
        match code {
            2 => Isa::Avx2,
            _ => Isa::Scalar,
        }
    }

    fn code(self) -> u8 {
        match self {
            Isa::Scalar => 1,
            Isa::Avx2 => 2,
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
    Isa::Scalar
}

fn resolve() -> Isa {
    let requested = match std::env::var("MEDSPLIT_ISA") {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Isa::Scalar),
            "avx2" => Some(Isa::Avx2),
            "" | "auto" => None,
            other => {
                eprintln!("MEDSPLIT_ISA={other:?} not recognised (scalar|avx2|auto); auto-detecting");
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
        Isa::Avx2 => detect() == isa,
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

/// Defines a dispatched kernel from its one portable body. The body runs
/// as written under `Isa::Scalar`; on AVX2 the same body runs compiled a
/// second time with the listed target features (`"avx2"`, or
/// `"avx2,fma"` where a `mul_add` must become a `vfmadd`), where the
/// compiler vectorises it eight lanes wide. Vectorising changes how many
/// elements advance per instruction, never the operations on one
/// element, so both give the same bits.
///
/// Exported (hidden) for the workspace's other crates, so that a kernel
/// there dispatches on the same active ISA as the tensor kernels.
#[doc(hidden)]
#[macro_export]
macro_rules! kernel {
    (
        #[target_feature($features:literal)]
        $(#[$doc:meta])*
        $vis:vis fn $name:ident $(<$(const $g:ident: $gt:ty),*>)?
        ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    ) => {
        $(#[$doc])*
        $vis fn $name $(<$(const $g: $gt),*>)? ($($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn portable $(<$(const $g: $gt),*>)? ($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = $features)]
            fn avx2 $(<$(const $g: $gt),*>)? ($($arg: $ty),*) $(-> $ret)? {
                portable $(::<$($g),*>)? ($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            if $crate::simd::active_isa() == $crate::simd::Isa::Avx2 {
                // SAFETY: the active ISA is only ever one this host
                // supports, and AVX2 comes with FMA (`detect`).
                return unsafe { avx2 $(::<$($g),*>)? ($($arg),*) };
            }
            portable $(::<$($g),*>)? ($($arg),*)
        }
    };
}
pub(crate) use crate::kernel;

kernel! {
    #[target_feature("avx2")]
    /// `out[i] = a[i] op b[i]`. All slices must have equal length.
    pub(crate) fn binary(op: BinOp, a: &[f32], b: &[f32], out: &mut [f32]) {
        debug_assert_eq!(a.len(), b.len());
        debug_assert_eq!(a.len(), out.len());
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
}

kernel! {
    #[target_feature("avx2")]
    /// `dst[i] += alpha * src[i]` — deliberately *unfused* (separate
    /// multiply and add roundings) on every ISA, matching the historical
    /// accumulator semantics the optimisers were tuned against.
    pub(crate) fn axpy(alpha: f32, dst: &mut [f32], src: &[f32]) {
        debug_assert_eq!(dst.len(), src.len());
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += alpha * s;
        }
    }
}

kernel! {
    #[target_feature("avx2")]
    /// `dst[i] += src[i]`.
    pub(crate) fn add_assign(dst: &mut [f32], src: &[f32]) {
        debug_assert_eq!(dst.len(), src.len());
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    }
}

kernel! {
    #[target_feature("avx2")]
    /// `dst[i] *= s`.
    pub(crate) fn scale(dst: &mut [f32], s: f32) {
        for d in dst.iter_mut() {
            *d *= s;
        }
    }
}

kernel! {
    #[target_feature("avx2")]
    /// `out[i] = if src[i] > 0 { src[i] } else { 0.0 }`.
    ///
    /// Select-by-comparison rather than `max`: it maps `-0.0` and NaN
    /// inputs to `+0.0` identically on every ISA (vector `max` NaN/zero
    /// semantics differ between instruction sets).
    pub(crate) fn relu(src: &[f32], out: &mut [f32]) {
        debug_assert_eq!(src.len(), out.len());
        for (o, &x) in out.iter_mut().zip(src) {
            *o = if x > 0.0 { x } else { 0.0 };
        }
    }
}

kernel! {
    #[target_feature("avx2")]
    /// ReLU backward: `out[i] = if y[i] > 0 { g[i] } else { 0.0 }`, where
    /// `y` is the cached forward *output*.
    pub(crate) fn relu_grad(y: &[f32], g: &[f32], out: &mut [f32]) {
        debug_assert_eq!(y.len(), g.len());
        debug_assert_eq!(y.len(), out.len());
        for ((o, &yv), &gv) in out.iter_mut().zip(y).zip(g) {
            *o = if yv > 0.0 { gv } else { 0.0 };
        }
    }
}

kernel! {
    #[target_feature("avx2")]
    /// Leaky ReLU: `out[i] = if src[i] > 0 { src[i] } else { alpha * src[i] }`.
    pub(crate) fn leaky_relu(alpha: f32, src: &[f32], out: &mut [f32]) {
        debug_assert_eq!(src.len(), out.len());
        for (o, &x) in out.iter_mut().zip(src) {
            *o = if x > 0.0 { x } else { alpha * x };
        }
    }
}

kernel! {
    #[target_feature("avx2")]
    /// Leaky ReLU backward against the cached forward *input* `x`:
    /// `out[i] = if x[i] > 0 { g[i] } else { alpha * g[i] }`.
    pub(crate) fn leaky_relu_grad(alpha: f32, x: &[f32], g: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), g.len());
        debug_assert_eq!(x.len(), out.len());
        for ((o, &xv), &gv) in out.iter_mut().zip(x).zip(g) {
            *o = if xv > 0.0 { gv } else { alpha * gv };
        }
    }
}

/// Bit pattern of `+inf`: sign-cleared patterns above it are NaNs.
const INF_BITS: u32 = 0x7F80_0000;

kernel! {
    #[target_feature("avx2")]
    /// Largest finite-or-infinite `|v|` of the slice, NaNs ignored (a
    /// stray NaN cannot poison the scale of a whole int8 frame); `+0.0`
    /// for an empty or all-NaN slice. Non-negative floats order like
    /// their bit patterns, so this is an integer max — exact in any
    /// order, hence equal on every ISA. Written as 32 running maxima of
    /// the sign-cleared patterns (NaN lanes zeroed), which the compiler
    /// keeps in four 8-lane registers; an iterator fold would stay one
    /// lane wide.
    pub(crate) fn absmax(src: &[f32]) -> f32 {
        const LANES: usize = 32;
        let magnitude = |v: &f32| {
            let b = v.to_bits() & 0x7FFF_FFFF;
            if b > INF_BITS {
                0
            } else {
                b
            }
        };
        let mut acc = [0u32; LANES];
        let mut chunks = src.chunks_exact(LANES);
        for chunk in &mut chunks {
            for (m, v) in acc.iter_mut().zip(chunk) {
                *m = (*m).max(magnitude(v));
            }
        }
        let tail = chunks.remainder().iter().map(magnitude).fold(0, u32::max);
        f32::from_bits(acc.into_iter().fold(tail, u32::max))
    }
}

/// Scales the fused quantiser accepts: both `scale` and `1/scale` are
/// normal floats with two binades to spare, so the reciprocal keeps full
/// precision and the correction residues cannot underflow to zero (see
/// [`quantize_i8_fused`]). Outside it — and for NaN or infinite scales —
/// every ISA runs the per-element reference.
const VECTOR_SCALES: std::ops::RangeInclusive<f32> =
    f32::MIN_POSITIVE * 4.0..=1.0 / (f32::MIN_POSITIVE * 4.0);

/// `dst[i] = quantize_one(src[i], scale)` as a byte: the int8 wire
/// codec's quantiser against a positive per-tensor scale.
pub(crate) fn quantize_i8(src: &[f32], scale: f32, dst: &mut [u8]) {
    debug_assert_eq!(src.len(), dst.len());
    if VECTOR_SCALES.contains(&scale) {
        quantize_i8_fused(src, scale, dst);
    } else {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = quantize_one(v, scale) as u8;
        }
    }
}

/// Quantises one value against a positive scale: round half away from
/// zero, saturating to the symmetric range ±127; NaN gives 0.
///
/// The ratio is formed in f64 so the rounding decision depends only on
/// the IEEE-exact quotient, never on an intermediate f32 rounding.
/// Rounding is truncation plus a comparison of the exactly representable
/// remainder with one half, so there is no branch and no libm call. This
/// is the definition [`quantize_i8_fused`] is proved and tested against,
/// and what runs for a scale outside [`VECTOR_SCALES`].
fn quantize_one(v: f32, scale: f32) -> i8 {
    let q = f64::from(v) / f64::from(scale);
    let mag = q.abs();
    // A comparison, not `f64::min`, so that NaN stays NaN (and casts to 0).
    let mag = if mag > 127.0 { 127.0 } else { mag };
    let whole = mag as i32;
    let rounded = whole + i32::from(mag - f64::from(whole) >= 0.5);
    (if q < 0.0 { -rounded } else { rounded }) as i8
}

/// `2^23`: adding it to an f32 in `[0, 2^22]` rounds that value to the
/// nearest integer and leaves the integer in the low mantissa bits.
const ROUND_MAGIC: f32 = 8_388_608.0;

kernel! {
    #[target_feature("avx2,fma")]
    /// The int8 quantiser without a division, 32 values per step, bit
    /// for bit what [`quantize_one`] gives for a scale in
    /// [`VECTOR_SCALES`] (the only scales it is called with).
    ///
    /// Per value, with `a = |v|` (NaN → 0) and `x = a / scale` the exact
    /// real quotient:
    /// 1. candidate `c`: `a · (1/scale)` capped at 128 and rounded to the
    ///    nearest integer by adding `2^23`. The reciprocal and the product
    ///    round once each, so `c` is within one of round-half-away(`x`);
    /// 2. correction: `c += 1` if `fma(c + ½, scale, −a) ≤ 0`, `c −= 1` if
    ///    `fma(c − ½, scale, −a) > 0`. Each residue is a multiple of
    ///    2^-149 because `scale ≥ 2^-124`, so round-to-nearest keeps the
    ///    sign of a nonzero residue and never yields a false zero: the
    ///    tests decide `x ≥ c + ½` and `x < c − ½` exactly, and `c` lands
    ///    on round-half-away of `x`;
    /// 3. clamp at 127 and reapply the sign of `v` as `(q ^ s) − s`.
    ///
    /// The f64 reference decides the same: a quotient of two f32s that
    /// is not a half-integer lies at least 2^-26 from one, further than
    /// the f64 division's rounding error at magnitudes ≤ 128.
    ///
    /// Written so that the AVX2 compilation vectorises: the integer is
    /// read from the bits of `c + 2^23` (an `as i32` conversion saturates,
    /// which kept the loop scalar), and NaN is caught by a compare
    /// (`is_nan`, i.e. `a != a`).
    fn quantize_i8_fused(src: &[f32], scale: f32, dst: &mut [u8]) {
        const STEP: usize = 32;
        let r = 1.0 / scale;
        let one = |v: f32| {
            let a = v.abs();
            let a = if a.is_nan() { 0.0 } else { a };
            let c = a * r;
            let c = if c < 128.0 { c } else { 128.0 };
            let c = c + ROUND_MAGIC;
            let k = c - ROUND_MAGIC;
            let up = i32::from((k + 0.5).mul_add(scale, -a) <= 0.0);
            let down = i32::from((k - 0.5).mul_add(scale, -a) > 0.0);
            let q = (c.to_bits() - ROUND_MAGIC.to_bits()) as i32 + up - down;
            let q = if q < 127 { q } else { 127 };
            let s = v.to_bits() as i32 >> 31;
            ((q ^ s) - s) as u8
        };
        let mut dst_steps = dst.chunks_exact_mut(STEP);
        let mut src_steps = src.chunks_exact(STEP);
        for (d, s) in (&mut dst_steps).zip(&mut src_steps) {
            for (d, &v) in d.iter_mut().zip(s) {
                *d = one(v);
            }
        }
        for (d, &v) in dst_steps.into_remainder().iter_mut().zip(src_steps.remainder()) {
            *d = one(v);
        }
    }
}

/// Serialises the crate's tests that flip the process-global active ISA.
#[cfg(test)]
static ISA_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `f` under the scalar ISA and then the detected one, holding the
/// crate's ISA lock, and leaves the detected ISA active.
#[cfg(test)]
pub(crate) fn for_each_isa(mut f: impl FnMut(Isa)) {
    let _g = ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for isa in [Isa::Scalar, detect()] {
        assert!(set_isa(isa));
        f(isa);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(Isa::Scalar.level(), 0);
        assert!(supported(Isa::Scalar));
        assert!(supported(detect()));
    }

    #[test]
    fn set_isa_rejects_unsupported() {
        let _g = ISA_LOCK.lock().unwrap();
        let host = detect();
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
        // Every length from empty through one 32-value step plus one,
        // starting 0–3 floats past a 32-byte boundary, over ±0, subnormal,
        // ±inf and NaN values mixed into ordinary ones; at a normal scale
        // (the vector body) and at a subnormal one (the reference on
        // every ISA).
        #[repr(align(32))]
        struct Aligned([f32; 40]);
        let mut buf = Aligned([0.0; 40]);
        let specials = [
            0.0,
            -0.0,
            1e-40,
            -1e-40,
            f32::from_bits(1),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for (i, v) in buf.0.iter_mut().enumerate() {
            *v = if i % 3 == 0 {
                specials[i / 3 % specials.len()]
            } else {
                (i as f32 - 20.0) * 0.37
            };
        }
        for scale in [0.05, 1e-40] {
            let want: Vec<u8> = buf.0.iter().map(|&v| quantize_one(v, scale) as u8).collect();
            let _g = ISA_LOCK.lock().unwrap();
            for isa in [Isa::Scalar, detect()] {
                assert!(set_isa(isa));
                for start in 0..4 {
                    for len in 0..=33 {
                        let mut got = vec![0xA5; len];
                        quantize_i8(&buf.0[start..start + len], scale, &mut got);
                        assert_eq!(
                            got,
                            want[start..start + len],
                            "{} at scale {scale}, [{start}..+{len}]",
                            isa.name()
                        );
                    }
                }
            }
        }
    }

    /// Arbitrary bit patterns and ordinary values, against scales drawn
    /// from their absmax (what the encoder uses) and from random bit
    /// patterns inside `VECTOR_SCALES`, at every ISA.
    #[test]
    fn quantiser_matches_the_reference_on_random_bits() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u32
        };
        for trial in 0..64 {
            let x: Vec<f32> = (0..1000)
                .map(|i| {
                    let bits = next();
                    if i % 2 == 0 {
                        f32::from_bits(bits)
                    } else {
                        (bits % 20_001) as f32 / 100.0 - 100.0
                    }
                })
                .collect();
            let scale = if trial % 2 == 0 {
                let finite: Vec<f32> = x.iter().copied().filter(|v| v.is_finite()).collect();
                absmax(&finite) / 127.0
            } else {
                f32::from_bits((next() % 240 + 8) << 23 | next() & 0x7F_FFFF)
            };
            assert!(VECTOR_SCALES.contains(&scale), "{scale:e}");
            let want: Vec<u8> = x.iter().map(|&v| quantize_one(v, scale) as u8).collect();
            for_each_isa(|isa| {
                let mut got = vec![0xA5; x.len()];
                quantize_i8(&x, scale, &mut got);
                assert_eq!(got, want, "{} at scale {scale:e}", isa.name());
            });
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
