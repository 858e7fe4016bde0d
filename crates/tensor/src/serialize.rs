//! Exact binary (de)serialisation of tensors.
//!
//! The wire format is the basis of the paper's evaluation: every byte the
//! protocols "transmit" is a byte produced by [`Tensor::to_bytes`] (or its
//! half-precision sibling [`Tensor::to_bytes_f16`]). The format is
//! deliberately minimal and exact:
//!
//! ```text
//! magic   u32 LE = 0x4D54534E ("MTSN")  — 0x4D545348 ("MTSH") for f16,
//!                                         0x4D545351 ("MTSQ") for int8
//! rank    u32 LE
//! dims    rank × u64 LE
//! scale   f32 LE                          (MTSQ only: per-tensor absmax/127)
//! data    numel × f32 LE (MTSN)  /  numel × u16 LE f16 bits (MTSH)
//!                                /  numel × i8 quantised values (MTSQ)
//! ```
//!
//! [`Tensor::from_bytes`] detects the magic and decodes any encoding.

use std::ops::Range;

use bytes::{Buf, BufMut, Bytes};

use crate::error::{Result, TensorError};
use crate::half::{f16_bits_to_f32, f32_to_f16_bits};
use crate::shape::Shape;
use crate::tensor::Tensor;

const MAGIC: u32 = 0x4D54_534E;
const MAGIC_F16: u32 = 0x4D54_5348;
const MAGIC_I8: u32 = 0x4D54_5351;

/// Numeric encoding of a tensor's data on the wire.
///
/// `F16` halves the data bytes at a ≤0.1 % relative rounding error per
/// value; `Int8` cuts them to a quarter via symmetric per-tensor-scale
/// quantisation (absolute error ≤ scale/2 per value, where
/// scale = absmax/127 travels in the frame header).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Encoding {
    /// Exact 32-bit floats (default).
    #[default]
    F32,
    /// IEEE binary16 payloads: half the bytes, lossy.
    F16,
    /// Symmetric int8 quantisation with a per-tensor absmax scale in the
    /// header: about a quarter of the bytes, lossy.
    Int8,
}

impl Encoding {
    fn magic(self) -> u32 {
        match self {
            Encoding::F32 => MAGIC,
            Encoding::F16 => MAGIC_F16,
            Encoding::Int8 => MAGIC_I8,
        }
    }

    /// Bytes per element on the wire.
    fn elem_bytes(self) -> usize {
        match self {
            Encoding::F32 => 4,
            Encoding::F16 => 2,
            Encoding::Int8 => 1,
        }
    }

    /// Header bytes for a tensor of `rank` dimensions (int8 carries the
    /// 4-byte scale after the dims).
    fn header_bytes(self, rank: usize) -> usize {
        4 + 4 + 8 * rank + if self == Encoding::Int8 { 4 } else { 0 }
    }
}

/// Number of bytes [`Tensor::encode`] will produce for a tensor of the
/// given shape, without serialising.
pub fn encoded_len(shape: &Shape, enc: Encoding) -> usize {
    enc.header_bytes(shape.rank()) + enc.elem_bytes() * shape.numel()
}

/// [`encoded_len`] of the exact f32 frame ([`Tensor::to_bytes`]).
pub fn serialized_len(shape: &Shape) -> usize {
    encoded_len(shape, Encoding::F32)
}

/// [`encoded_len`] of the f16 frame ([`Tensor::to_bytes_f16`]).
pub fn serialized_len_f16(shape: &Shape) -> usize {
    encoded_len(shape, Encoding::F16)
}

/// [`encoded_len`] of the int8 frame ([`Tensor::to_bytes_i8`]): the
/// header grows by the 4-byte scale, each element shrinks to one byte.
pub fn serialized_len_i8(shape: &Shape) -> usize {
    encoded_len(shape, Encoding::Int8)
}

/// Quantises one value against a positive per-tensor scale: round half
/// away from zero, saturating to the symmetric range ±127; NaN gives 0.
///
/// The ratio is formed in f64 so the rounding decision depends only on
/// the IEEE-exact quotient, never on an intermediate f32 rounding —
/// quantisation is therefore bit-deterministic across ISAs and hosts.
/// Rounding is truncation plus a comparison of the exactly representable
/// remainder with one half, so there is no branch and no libm call.
fn quantize_i8(v: f32, scale: f32) -> i8 {
    let q = f64::from(v) / f64::from(scale);
    let mag = q.abs();
    // A comparison, not `f64::min`, so that NaN stays NaN (and casts to 0).
    let mag = if mag > 127.0 { 127.0 } else { mag };
    let whole = mag as i32;
    let rounded = whole + i32::from(mag - f64::from(whole) >= 0.5);
    (if q < 0.0 { -rounded } else { rounded }) as i8
}

/// Largest finite-or-infinite `|v|` of the slice, NaNs ignored (a stray
/// NaN cannot poison the scale of the whole tensor). Non-negative floats
/// order like their bit patterns, so this is an integer max.
fn absmax(data: &[f32]) -> f32 {
    const INF: u32 = 0x7F80_0000;
    let bits = data
        .iter()
        .map(|v| v.to_bits() & 0x7FFF_FFFF)
        .map(|b| if b > INF { 0 } else { b })
        .max();
    f32::from_bits(bits.unwrap_or(0))
}

/// Appends one frame — header, then `data` in a single pass — to `out`.
fn write_frame(out: &mut Vec<u8>, enc: Encoding, dims: impl Iterator<Item = usize> + Clone, data: &[f32]) {
    let rank = dims.clone().count();
    out.reserve(enc.header_bytes(rank) + enc.elem_bytes() * data.len());
    out.put_u32_le(enc.magic());
    out.put_u32_le(rank as u32);
    for d in dims {
        out.put_u64_le(d as u64);
    }
    let mut scale = 0.0;
    if enc == Encoding::Int8 {
        let absmax = absmax(data);
        if absmax > 0.0 {
            scale = absmax / 127.0;
        }
        out.put_f32_le(scale);
    }
    let start = out.len();
    out.resize(start + enc.elem_bytes() * data.len(), 0);
    let body = &mut out[start..];
    match enc {
        Encoding::F32 => {
            for (dst, v) in body.chunks_exact_mut(4).zip(data) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
        }
        Encoding::F16 => {
            for (dst, &v) in body.chunks_exact_mut(2).zip(data) {
                dst.copy_from_slice(&f32_to_f16_bits(v).to_le_bytes());
            }
        }
        // A scale of 0 (all-zero tensor, or absmax/127 underflowed)
        // leaves the zero fill.
        Encoding::Int8 if scale == 0.0 => {}
        Encoding::Int8 => {
            for (dst, &v) in body.iter_mut().zip(data) {
                *dst = quantize_i8(v, scale) as u8;
            }
        }
    }
}

/// A tensor frame whose header has been read and checked against the
/// bytes that follow; the data is still encoded in `body`.
struct Frame<B> {
    shape: Shape,
    enc: Encoding,
    scale: f32,
    body: B,
}

impl<B: Buf> Frame<B> {
    /// Reads and validates the header: after this, `body` is known to
    /// hold at least `numel` encoded elements, so nothing later is sized
    /// by an unchecked field.
    fn parse(mut buf: B) -> Result<Self> {
        let corrupt = |what: &str| TensorError::Corrupt(what.into());
        if buf.remaining() < 8 {
            return Err(corrupt("buffer shorter than header"));
        }
        let magic = buf.get_u32_le();
        let enc = match magic {
            MAGIC => Encoding::F32,
            MAGIC_F16 => Encoding::F16,
            MAGIC_I8 => Encoding::Int8,
            _ => return Err(TensorError::Corrupt(format!("bad magic 0x{magic:08X}"))),
        };
        let rank = buf.get_u32_le() as usize;
        if rank > 16 {
            return Err(TensorError::Corrupt(format!("implausible rank {rank}")));
        }
        if buf.remaining() < enc.header_bytes(rank) - 8 {
            return Err(corrupt("buffer truncated in dims or scale"));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(
                usize::try_from(buf.get_u64_le())
                    .map_err(|_| corrupt("dimension exceeds the address space"))?,
            );
        }
        let scale = if enc == Encoding::Int8 {
            buf.get_f32_le()
        } else {
            0.0
        };
        // Zero dims count as 1 in the overflow check, so the strides of an
        // accepted empty shape cannot overflow either.
        let need = dims
            .iter()
            .try_fold(enc.elem_bytes(), |n, &d| n.checked_mul(d.max(1)))
            .map(|n| if dims.contains(&0) { 0 } else { n });
        if need.is_none_or(|n| n > buf.remaining()) {
            return Err(TensorError::Corrupt(format!(
                "buffer truncated in data: dims {dims:?} need more than the {} bytes present",
                buf.remaining()
            )));
        }
        Ok(Frame {
            shape: Shape::new(dims),
            enc,
            scale,
            body: buf,
        })
    }

    /// Decodes the data onto the end of `out`, one slice pass per
    /// [`Buf::chunk`]; an element that straddles two chunks is read
    /// through the cursor.
    fn decode_append(&mut self, out: &mut Vec<f32>) {
        let (enc, scale, elem) = (self.enc, self.scale, self.enc.elem_bytes());
        let mut left = self.shape.numel();
        out.reserve(left);
        while left > 0 {
            let chunk = self.body.chunk();
            let n = (chunk.len() / elem).min(left);
            if n == 0 {
                out.push(match enc {
                    Encoding::F32 => self.body.get_f32_le(),
                    Encoding::F16 => f16_bits_to_f32(self.body.get_u16_le()),
                    Encoding::Int8 => f32::from(self.body.get_u8() as i8) * scale,
                });
                left -= 1;
                continue;
            }
            let src = &chunk[..n * elem];
            match enc {
                Encoding::F32 => out.extend(
                    src.chunks_exact(4)
                        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])),
                ),
                Encoding::F16 => out.extend(
                    src.chunks_exact(2)
                        .map(|b| f16_bits_to_f32(u16::from_le_bytes([b[0], b[1]]))),
                ),
                Encoding::Int8 => out.extend(src.iter().map(|&b| f32::from(b as i8) * scale)),
            }
            self.body.advance(n * elem);
            left -= n;
        }
    }
}

impl Tensor {
    /// Appends the tensor's frame in the given encoding to `out` — the
    /// one writer behind every `to_bytes*` wrapper. Each data byte is
    /// written once, by a single pass over the element slice.
    ///
    /// Int8: an all-zero tensor encodes scale 0 and an all-zero payload;
    /// NaN elements quantise to 0 deterministically.
    pub fn encode_into(&self, out: &mut Vec<u8>, enc: Encoding) {
        write_frame(out, enc, self.dims().iter().copied(), self.as_slice());
    }

    /// The tensor's frame in the given encoding.
    pub fn encode(&self, enc: Encoding) -> Bytes {
        let mut out = Vec::new();
        self.encode_into(&mut out, enc);
        Bytes::from(out)
    }

    /// The frame of rows `rows` along axis 0 — byte for byte what
    /// `self.slice0(rows.start, rows.len())?.encode(enc)` produces (int8
    /// scale included: it is the absmax of those rows), without the
    /// intermediate tensor.
    ///
    /// # Errors
    ///
    /// As [`Tensor::slice0`]: rank 0, or a range past the leading
    /// dimension.
    pub fn encode_rows(&self, rows: Range<usize>, enc: Encoding) -> Result<Bytes> {
        let Some((&n0, tail)) = self.dims().split_first() else {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
                op: "encode_rows",
            });
        };
        if rows.start > rows.end || rows.end > n0 {
            return Err(TensorError::IndexOutOfBounds {
                index: rows.end,
                dim: n0,
            });
        }
        let inner: usize = tail.iter().product();
        let mut out = Vec::new();
        write_frame(
            &mut out,
            enc,
            std::iter::once(rows.len()).chain(tail.iter().copied()),
            &self.as_slice()[rows.start * inner..rows.end * inner],
        );
        Ok(Bytes::from(out))
    }

    /// Serialises the tensor to the exact f32 wire format described in
    /// the module docs.
    pub fn to_bytes(&self) -> Bytes {
        self.encode(Encoding::F32)
    }

    /// Serialises the tensor with half-precision payload: identical header,
    /// `u16` binary16 data. Lossy (each value is rounded to the nearest
    /// representable f16) but half the activation bytes — the protocol's
    /// optional compression codec.
    pub fn to_bytes_f16(&self) -> Bytes {
        self.encode(Encoding::F16)
    }

    /// Serialises the tensor with symmetric int8 quantisation: the header
    /// carries a per-tensor scale (`absmax / 127`) and each element is
    /// stored as `round_half_away(v / scale)` clamped to ±127. Lossy
    /// (absolute error ≤ scale/2 per element) but roughly a quarter of the
    /// f32 payload — the protocol's aggressive compression codec.
    pub fn to_bytes_i8(&self) -> Bytes {
        self.encode(Encoding::Int8)
    }

    /// Deserialises a tensor written in any [`Encoding`] (detected from
    /// the magic number).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Corrupt`] if the buffer is truncated, has a
    /// bad magic number, declares an implausible rank, or declares dims
    /// whose element count overflows or exceeds the bytes present.
    pub fn from_bytes(buf: impl Buf) -> Result<Tensor> {
        let mut frame = Frame::parse(buf)?;
        let mut data = Vec::new();
        frame.decode_append(&mut data);
        Tensor::from_vec(data, frame.shape)
    }

    /// Decodes several frames straight into one tensor, concatenated
    /// along axis 0 in the order given — what [`Tensor::concat0`] of the
    /// decoded parts yields, without the parts. Also returns each part's
    /// row count.
    ///
    /// # Errors
    ///
    /// [`TensorError::Corrupt`] for no frames, a bad frame or a rank-0
    /// part; [`TensorError::ShapeMismatch`] if trailing dims disagree.
    pub fn concat0_from_bytes<B: Buf>(bufs: impl IntoIterator<Item = B>) -> Result<(Tensor, Vec<usize>)> {
        let mut frames = bufs.into_iter().map(Frame::parse).collect::<Result<Vec<_>>>()?;
        let first = frames
            .first()
            .map(|f| f.shape.clone())
            .filter(|s| s.rank() > 0)
            .ok_or_else(|| TensorError::Corrupt("concat of zero tensors or of scalars".into()))?;
        let mut rows = Vec::with_capacity(frames.len());
        for f in &frames {
            if f.shape.rank() != first.rank() || f.shape.dims()[1..] != first.dims()[1..] {
                return Err(TensorError::ShapeMismatch {
                    lhs: first,
                    rhs: f.shape.clone(),
                    op: "concat0",
                });
            }
            rows.push(f.shape.dims()[0]);
        }
        let mut data = Vec::with_capacity(frames.iter().map(|f| f.shape.numel()).sum());
        for f in &mut frames {
            f.decode_append(&mut data);
        }
        let mut dims = first.dims().to_vec();
        dims[0] = rows
            .iter()
            .try_fold(0usize, |sum, &r| sum.checked_add(r))
            .ok_or_else(|| TensorError::Corrupt("concatenated row count overflows".into()))?;
        Ok((Tensor::from_vec(data, dims)?, rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_everything() {
        let t = Tensor::from_vec(vec![1.5, -2.25, 0.0, f32::MIN_POSITIVE], [2, 2]).unwrap();
        let bytes = t.to_bytes();
        let back = Tensor::from_bytes(bytes).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn roundtrip_scalar_and_empty() {
        let s = Tensor::scalar(3.25);
        assert_eq!(Tensor::from_bytes(s.to_bytes()).unwrap(), s);
        let e = Tensor::zeros([0, 5]);
        let back = Tensor::from_bytes(e.to_bytes()).unwrap();
        assert_eq!(back.dims(), &[0, 5]);
    }

    #[test]
    fn length_is_exact() {
        let t = Tensor::zeros([3, 4, 5]);
        let bytes = t.to_bytes();
        assert_eq!(bytes.len(), serialized_len(t.shape()));
        assert_eq!(bytes.len(), 4 + 4 + 8 * 3 + 4 * 60);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut raw = Tensor::zeros([2]).to_bytes().to_vec();
        raw[0] ^= 0xFF;
        assert!(matches!(
            Tensor::from_bytes(&raw[..]),
            Err(TensorError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_truncation() {
        let raw = Tensor::zeros([4]).to_bytes();
        for cut in [0, 4, 9, raw.len() - 1] {
            assert!(
                Tensor::from_bytes(&raw[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn f16_roundtrip_is_near_lossless_for_activations() {
        let t = Tensor::from_vec(vec![0.125, -3.5, 0.0, 1.000_976_6], [2, 2]).unwrap();
        let back = Tensor::from_bytes(t.to_bytes_f16()).unwrap();
        assert_eq!(back.shape(), t.shape());
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= a.abs() * 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn f16_encoding_is_half_the_payload() {
        let t = Tensor::zeros([100]);
        assert_eq!(t.to_bytes().len(), 8 + 8 + 400);
        assert_eq!(t.to_bytes_f16().len(), 8 + 8 + 200);
        assert_eq!(t.to_bytes_f16().len(), serialized_len_f16(t.shape()));
    }

    #[test]
    fn f16_codec_preserves_subnormal_inf_nan() {
        let tiny = 2.0f32.powi(-24); // smallest positive f16 subnormal
        let largest_sub = 1023.0 * 2.0f32.powi(-24);
        let t = Tensor::from_vec(
            vec![
                tiny,
                -tiny,
                largest_sub,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
                1e6,   // overflows f16 → +inf
                1e-10, // below the subnormal range → flushes to +0
            ],
            [8],
        )
        .unwrap();
        let back = Tensor::from_bytes(t.to_bytes_f16()).unwrap();
        let s = back.as_slice();
        assert_eq!(s[0], tiny);
        assert_eq!(s[1], -tiny);
        assert_eq!(s[2], largest_sub);
        assert_eq!(s[3], f32::INFINITY);
        assert_eq!(s[4], f32::NEG_INFINITY);
        assert!(s[5].is_nan());
        assert_eq!(s[6], f32::INFINITY);
        assert_eq!(s[7].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn f16_truncation_detected() {
        let raw = Tensor::zeros([4]).to_bytes_f16();
        assert!(Tensor::from_bytes(&raw[..raw.len() - 1]).is_err());
    }

    #[test]
    fn i8_roundtrip_bounded_by_half_scale() {
        let t = Tensor::from_vec(vec![12.7, -3.3, 0.01, -12.7, 5.05, 0.0], [2, 3]).unwrap();
        let scale = 12.7f32 / 127.0;
        let back = Tensor::from_bytes(t.to_bytes_i8()).unwrap();
        assert_eq!(back.shape(), t.shape());
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            assert!(
                (a - b).abs() <= scale * 0.5 * (1.0 + 1e-5),
                "{a} vs {b} (scale {scale})"
            );
        }
        // The extrema hit the quantisation grid exactly.
        assert_eq!(back.as_slice()[0], 12.7);
        assert_eq!(back.as_slice()[3], -12.7);
    }

    #[test]
    fn i8_rounds_half_away_from_zero() {
        // scale = 127/127 = 1, so values sit directly on the half grid.
        let t = Tensor::from_vec(vec![127.0, 2.5, -2.5, 0.49, -0.49], [5]).unwrap();
        let back = Tensor::from_bytes(t.to_bytes_i8()).unwrap();
        assert_eq!(back.as_slice(), &[127.0, 3.0, -3.0, 0.0, -0.0]);
    }

    #[test]
    fn i8_zero_tensor_is_exact() {
        let t = Tensor::zeros([4, 4]);
        let back = Tensor::from_bytes(t.to_bytes_i8()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn i8_encoding_is_quarter_the_payload() {
        let t = Tensor::zeros([100]);
        assert_eq!(t.to_bytes_i8().len(), 8 + 8 + 4 + 100);
        assert_eq!(t.to_bytes_i8().len(), serialized_len_i8(t.shape()));
    }

    #[test]
    fn i8_truncation_detected() {
        let raw = Tensor::zeros([4]).to_bytes_i8();
        for cut in [0, 4, 9, 14, raw.len() - 1] {
            assert!(
                Tensor::from_bytes(&raw[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn i8_encode_is_deterministic() {
        let vals: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin() * 9.5).collect();
        let t = Tensor::from_vec(vals, [8, 8]).unwrap();
        assert_eq!(t.to_bytes_i8(), t.to_bytes_i8());
    }

    #[test]
    fn rejects_implausible_rank() {
        let mut buf = bytes::BytesMut::new();
        use bytes::BufMut;
        buf.put_u32_le(super::MAGIC);
        buf.put_u32_le(99);
        assert!(Tensor::from_bytes(buf.freeze()).is_err());
    }
}
