//! The bulk wire codecs, byte for byte against the per-element codecs
//! they replaced, and the decoder against hostile headers.
//!
//! [`oracle`] is the serialiser as it stood before `Tensor::encode_into`:
//! one `put_*` / `get_*` call per element and the f64 `round` quantiser.
//! It lives only here, as the reference.

use std::sync::Mutex;

use bytes::{Buf, BufMut};
use medsplit_tensor::half::{f16_bits_to_f32, f32_to_f16_bits};
use medsplit_tensor::{encoded_len, simd, Encoding, Tensor, TensorError};
use proptest::prelude::*;

const ENCODINGS: [Encoding; 3] = [Encoding::F32, Encoding::F16, Encoding::Int8];

mod oracle {
    use super::*;

    pub fn quantize_i8(v: f32, scale: f32) -> i8 {
        let q = (f64::from(v) / f64::from(scale)).round();
        q.clamp(-127.0, 127.0) as i8
    }

    pub fn encode(t: &Tensor, enc: Encoding) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u32_le(match enc {
            Encoding::F32 => 0x4D54_534E,
            Encoding::F16 => 0x4D54_5348,
            Encoding::Int8 => 0x4D54_5351,
        });
        buf.put_u32_le(t.rank() as u32);
        for &d in t.dims() {
            buf.put_u64_le(d as u64);
        }
        match enc {
            Encoding::F32 => t.as_slice().iter().for_each(|&v| buf.put_f32_le(v)),
            Encoding::F16 => t
                .as_slice()
                .iter()
                .for_each(|&v| buf.put_u16_le(f32_to_f16_bits(v))),
            Encoding::Int8 => {
                let absmax = t.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
                let scale = if absmax > 0.0 { absmax / 127.0 } else { 0.0 };
                buf.put_f32_le(scale);
                for &v in t.as_slice() {
                    buf.put_u8(if scale == 0.0 {
                        0
                    } else {
                        quantize_i8(v, scale) as u8
                    });
                }
            }
        }
        buf
    }

    /// Decodes a well-formed frame (the oracle is only fed its own or the
    /// new encoder's output).
    pub fn decode(mut buf: &[u8]) -> Tensor {
        let magic = buf.get_u32_le();
        let rank = buf.get_u32_le() as usize;
        let dims: Vec<usize> = (0..rank).map(|_| buf.get_u64_le() as usize).collect();
        let scale = if magic == 0x4D54_5351 {
            buf.get_f32_le()
        } else {
            0.0
        };
        let data = (0..dims.iter().product::<usize>())
            .map(|_| match magic {
                0x4D54_534E => buf.get_f32_le(),
                0x4D54_5348 => f16_bits_to_f32(buf.get_u16_le()),
                _ => f32::from(buf.get_u8() as i8) * scale,
            })
            .collect();
        Tensor::from_vec(data, dims).unwrap()
    }
}

/// A `Buf` that hands its bytes out 1–7 at a time, so elements straddle
/// chunk boundaries.
struct Chunked<'a> {
    rest: &'a [u8],
    step: usize,
}

impl Buf for Chunked<'_> {
    fn remaining(&self) -> usize {
        self.rest.len()
    }
    fn chunk(&self) -> &[u8] {
        &self.rest[..self.rest.len().min(1 + self.step % 7)]
    }
    fn advance(&mut self, n: usize) {
        self.rest = &self.rest[n..];
        self.step = self.step.wrapping_mul(5).wrapping_add(n + 3);
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Every way into and out of the codecs agrees with the oracle on `t`.
fn check_against_oracle(t: &Tensor) {
    for enc in ENCODINGS {
        let want = oracle::encode(t, enc);
        let got = t.encode(enc);
        assert_eq!(&got[..], &want[..], "{enc:?} encode of {:?}", t.dims());
        assert_eq!(got.len(), encoded_len(t.shape(), enc));
        let mut appended = vec![0xA5u8; 3];
        t.encode_into(&mut appended, enc);
        assert_eq!(&appended[3..], &want[..], "{enc:?} encode_into after a prefix");

        let reference = oracle::decode(&want);
        let contiguous = Tensor::from_bytes(got).unwrap();
        assert_eq!(contiguous.dims(), reference.dims());
        assert_eq!(bits(&contiguous), bits(&reference), "{enc:?} decode");
        for step in 0..3 {
            let chunked = Tensor::from_bytes(Chunked { rest: &want, step }).unwrap();
            assert_eq!(chunked.dims(), reference.dims());
            assert_eq!(bits(&chunked), bits(&reference), "{enc:?} chunked decode");
        }
    }
}

/// Rank 0..=3 with dims 0..=5 — empty and rank-0 shapes included — over
/// arbitrary f32 bit patterns.
fn any_bits_tensor() -> impl Strategy<Value = Tensor> {
    prop::collection::vec(0usize..=5, 0..=3).prop_flat_map(|dims| {
        let n: usize = dims.iter().product();
        prop::collection::vec(0u32..=u32::MAX, n..=n).prop_map(move |raw| {
            let data = raw.into_iter().map(f32::from_bits).collect();
            Tensor::from_vec(data, dims.clone()).unwrap()
        })
    })
}

/// Serialises the tests that switch the process-global ISA. The other
/// tests here run at whichever ISA is active, which is also correct.
static ISA_LOCK: Mutex<()> = Mutex::new(());

/// The int8 frame of `t` equals the oracle's under the portable scalar
/// kernels and under the detected ISA; detection is restored afterwards.
fn check_int8_at_each_isa(t: &Tensor) {
    let _guard = ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let want = oracle::encode(t, Encoding::Int8);
    for isa in [simd::Isa::Scalar, simd::detect()] {
        assert!(simd::set_isa(isa));
        let got = t.encode(Encoding::Int8);
        assert_eq!(
            &got[..],
            &want[..],
            "int8 encode under {} of {:?}",
            isa.name(),
            t.as_slice()
        );
    }
}

/// Any positive absmax: uniform over the bit patterns (every exponent
/// equally likely); `127·m·2^e` with a small odd `m`, so the scale is
/// exactly `m·2^e` and every `(k+½)·scale` is representable — a value
/// exactly on the rounding boundary, wherever the reciprocal rounds; the
/// ranges the vector quantiser treats apart — subnormal, the edges of
/// its scale window (scale 2^-124 and 2^124), near overflow — and an
/// infinite absmax.
fn any_absmax() -> impl Strategy<Value = f32> {
    (0usize..7, 0u32..=u32::MAX, -64i32..=64).prop_map(|(range, raw, d)| {
        let near = |centre: f32| f32::from_bits((centre.to_bits() as i32 + d) as u32);
        match range {
            0 => f32::from_bits(1 + raw % 0x7F7F_FFFF),
            1 => {
                let m = f64::from(1 + 2 * (raw % 128));
                let e = (raw >> 7) % 250;
                (127.0 * m * 2.0f64.powi(e as i32 - 140)) as f32
            }
            2 => f32::from_bits(1 + raw % 0x007F_FFFF),
            3 => near(127.0 * 2.0f32.powi(-124)),
            4 => near(127.0 * 2.0f32.powi(124)),
            5 => f32::from_bits(0x7F00_0000 + raw % 0x0080_0000),
            _ => f32::INFINITY,
        }
    })
}

proptest! {
    #[test]
    fn quantiser_matches_the_oracle_on_half_steps_at_every_scale_and_isa(
        absmax in any_absmax(),
        steps in prop::collection::vec((-128i32..=127, -2i32..=2), 0..90),
        specials in prop::collection::vec((0usize..6, 0usize..100), 0..6),
    ) {
        // Values at (k+½)·scale, nudged by up to two ulps; the scale is the
        // one the encoder derives, so each value sits on or next to a
        // rounding boundary. ±absmax lanes are ±inf when absmax is.
        let scale = absmax / 127.0;
        let mut data = vec![absmax];
        for (k, nudge) in steps {
            let on = (k as f32 + 0.5) * scale;
            let v = f32::from_bits((on.to_bits() as i32 + nudge) as u32);
            data.push(if v.abs() > absmax { absmax.copysign(v) } else { v });
        }
        for (which, at) in specials {
            let v = [f32::NAN, -f32::NAN, 0.0, -0.0, absmax, -absmax][which];
            let at = at % data.len();
            data.insert(at, v);
        }
        let n = data.len();
        check_int8_at_each_isa(&Tensor::from_vec(data, [n]).unwrap());
    }

    #[test]
    fn codecs_match_the_oracle_on_any_bit_pattern(t in any_bits_tensor()) {
        check_against_oracle(&t);
    }

    #[test]
    fn codecs_match_the_oracle_on_activation_like_values(
        data in prop::collection::vec(-40.0f32..40.0, 1..200),
    ) {
        let n = data.len();
        check_against_oracle(&Tensor::from_vec(data, [n]).unwrap());
    }

    #[test]
    fn quantiser_matches_round_half_away_on_the_half_grid(
        k in -260i32..=260,
        exp in -30i32..=30,
        nudge in -2i32..=2,
    ) {
        // absmax = 127·2^exp makes the scale exactly 2^exp, so k/2·2^exp
        // sits on a rounding boundary; the nudge steps off it by ulps.
        let scale = 2.0f32.powi(exp);
        let on_grid = k as f32 * 0.5 * scale;
        let v = f32::from_bits((on_grid.to_bits() as i32 + nudge) as u32);
        prop_assume!(v.is_finite());
        let t = Tensor::from_vec(vec![127.0 * scale, v.clamp(-127.0 * scale, 127.0 * scale)], [2]).unwrap();
        check_against_oracle(&t);
    }

    #[test]
    fn row_ranges_encode_like_slices_and_decode_like_concat(
        t in any_bits_tensor(),
        cut in 0usize..=5,
    ) {
        prop_assume!(t.rank() > 0);
        let n0 = t.dims()[0];
        let cut = cut.min(n0);
        for enc in ENCODINGS {
            let (head, tail) = (t.encode_rows(0..cut, enc).unwrap(), t.encode_rows(cut..n0, enc).unwrap());
            prop_assert_eq!(&head, &t.slice0(0, cut).unwrap().encode(enc));
            prop_assert_eq!(&tail, &t.slice0(cut, n0 - cut).unwrap().encode(enc));
            let parts = [Tensor::from_bytes(head.clone()).unwrap(), Tensor::from_bytes(tail.clone()).unwrap()];
            let want = Tensor::concat0(&parts).unwrap();
            let (got, rows) = Tensor::concat0_from_bytes([head, tail]).unwrap();
            prop_assert_eq!(rows, vec![cut, n0 - cut]);
            prop_assert_eq!(got.dims(), want.dims());
            prop_assert_eq!(bits(&got), bits(&want));
        }
        prop_assert!(t.encode_rows(0..n0 + 1, Encoding::F32).is_err());
    }

    #[test]
    fn arbitrary_bytes_never_panic(raw in prop::collection::vec(0u8..=255, 0..96)) {
        if let Ok(t) = Tensor::from_bytes(&raw[..]) {
            prop_assert!(t.numel() <= raw.len());
        }
    }

    #[test]
    fn mutated_frames_never_panic(
        t in any_bits_tensor(),
        enc in 0usize..3,
        at in 0usize..64,
        with in 0u8..=255,
        cut in 0usize..64,
    ) {
        let mut raw = t.encode(ENCODINGS[enc]).to_vec();
        let at = at % raw.len();
        raw[at] = with;
        raw.truncate(raw.len() - cut % raw.len().min(8));
        if let Ok(back) = Tensor::from_bytes(Chunked { rest: &raw, step: at }) {
            prop_assert!(back.numel() <= raw.len());
        }
    }
}

#[test]
fn special_values_match_the_oracle() {
    let tiny = f32::from_bits(1);
    let specials = vec![
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        tiny,
        -tiny,
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        65504.0,
        65520.0,
        2.0f32.powi(-24),
        2.0f32.powi(-25),
    ];
    let n = specials.len();
    check_against_oracle(&Tensor::from_vec(specials.clone(), [n]).unwrap());
    // The same without the infinities, so the int8 scale is finite.
    let finite: Vec<f32> = specials.iter().copied().filter(|v| !v.is_infinite()).collect();
    let n = finite.len();
    check_against_oracle(&Tensor::from_vec(finite, [n]).unwrap());
    // Only NaN, only zeros, only subnormals (absmax/127 underflows to a
    // zero or subnormal scale, which the clamp has to catch).
    check_against_oracle(&Tensor::from_vec(vec![f32::NAN; 5], [5]).unwrap());
    check_against_oracle(&Tensor::zeros([3, 4]));
    for top in [1u32, 100, 126, 127, 128, 180, 200, 254, 255, 1000] {
        let data: Vec<f32> = (0..=top)
            .step_by(top.div_ceil(40) as usize)
            .map(f32::from_bits)
            .collect();
        let n = data.len();
        check_against_oracle(&Tensor::from_vec(data, [n]).unwrap());
    }
    check_against_oracle(&Tensor::scalar(-3.5));
    check_against_oracle(&Tensor::zeros([0, 5]));
    check_against_oracle(&Tensor::zeros([4, 0, 2]));
}

#[test]
fn half_integer_grid_matches_the_oracle_at_several_scales() {
    for scale in [
        1.0f32,
        2.0f32.powi(-10),
        2.0f32.powi(20),
        2.0f32.powi(-140),
        0.1,
        3.0,
    ] {
        let mut data = vec![127.0 * scale];
        for k in -253..=253 {
            let v = k as f32 * 0.5 * scale;
            data.extend([
                v,
                f32::from_bits(v.to_bits() + 1),
                f32::from_bits(v.to_bits().max(1) - 1),
            ]);
        }
        let n = data.len();
        check_against_oracle(&Tensor::from_vec(data, [n]).unwrap());
    }
}

/// Regression: `rank 2 · dims [1<<63, 2]` multiplies to 0 with wrapping
/// arithmetic, so the parent returned `Ok` with those dims and no data in
/// release and panicked in debug.
#[test]
fn overflowing_dims_are_a_typed_error() {
    let mut frame = Vec::new();
    frame.put_u32_le(0x4D54_534E);
    frame.put_u32_le(2);
    frame.put_u64_le(1 << 63);
    frame.put_u64_le(2);
    assert_eq!(frame.len(), 24);
    assert!(matches!(
        Tensor::from_bytes(&frame[..]),
        Err(TensorError::Corrupt(_))
    ));
    // The same product hidden behind a zero dim: the strides of such a
    // shape would overflow, so it is refused too, in either order.
    for dims in [[0, 1 << 63, 4], [1 << 63, 4, 0]] {
        let mut frame = Vec::new();
        frame.put_u32_le(0x4D54_5351);
        frame.put_u32_le(3);
        dims.iter().for_each(|&d| frame.put_u64_le(d));
        frame.put_f32_le(1.0);
        assert!(matches!(
            Tensor::from_bytes(&frame[..]),
            Err(TensorError::Corrupt(_))
        ));
    }
    // A lone huge dim with too few bytes behind it.
    let mut frame = Vec::new();
    frame.put_u32_le(0x4D54_5348);
    frame.put_u32_le(1);
    frame.put_u64_le(u64::MAX);
    frame.extend_from_slice(&[0; 64]);
    assert!(matches!(
        Tensor::from_bytes(&frame[..]),
        Err(TensorError::Corrupt(_))
    ));
}

#[test]
fn concat_from_bytes_rejects_what_concat_rejects() {
    let a = Tensor::zeros([2, 3]).to_bytes();
    let b = Tensor::zeros([2, 4]).to_bytes();
    assert!(matches!(
        Tensor::concat0_from_bytes([a.clone(), b]),
        Err(TensorError::ShapeMismatch { .. })
    ));
    assert!(Tensor::concat0_from_bytes(Vec::<bytes::Bytes>::new()).is_err());
    assert!(Tensor::concat0_from_bytes([Tensor::scalar(1.0).to_bytes()]).is_err());
    assert!(Tensor::concat0_from_bytes([a.clone(), a.slice(..a.len() - 1)]).is_err());
    // Empty parts whose row counts only overflow when added up.
    let mut wide = Vec::new();
    wide.put_u32_le(0x4D54_534E);
    wide.put_u32_le(2);
    wide.put_u64_le(1 << 60);
    wide.put_u64_le(0);
    assert_eq!(Tensor::from_bytes(&wide[..]).unwrap().numel(), 0);
    assert!(matches!(
        Tensor::concat0_from_bytes(vec![&wide[..]; 16]),
        Err(TensorError::Corrupt(_))
    ));
}
