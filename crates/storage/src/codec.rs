//! Compact binary codec used throughout the system: records on the wire,
//! determinants in causal logs, operator state in snapshots.
//!
//! Integers use LEB128 varint encoding (most values are small — channel
//! indices, buffer sizes, epoch numbers), which keeps determinant logs and
//! piggybacked deltas compact; the paper stresses that causal-logging
//! overhead is dominated by the volume of shipped determinants.

use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;

/// Errors produced when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    UnexpectedEof { needed: usize, remaining: usize },
    /// A varint ran past its maximum width.
    VarintOverflow,
    /// A tag byte did not correspond to any known variant.
    InvalidTag { context: &'static str, tag: u8 },
    /// A string field was not valid UTF-8.
    InvalidUtf8,
    /// A field contradicts the frame around it: a length its contents
    /// disagree with, a bit past a declared count, a delta that leaves the
    /// range of the value it applies to.
    Inconsistent { context: &'static str },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(f, "unexpected EOF: needed {needed} bytes, {remaining} remaining")
            }
            CodecError::VarintOverflow => write!(f, "varint overflow"),
            CodecError::InvalidTag { context, tag } => {
                write!(f, "invalid tag {tag:#x} while decoding {context}")
            }
            CodecError::InvalidUtf8 => write!(f, "invalid UTF-8 in string field"),
            CodecError::Inconsistent { context } => write!(f, "inconsistent {context}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only encoder over a `BytesMut`.
#[derive(Clone, Default, Debug)]
pub struct ByteWriter {
    buf: BytesMut,
}

impl ByteWriter {
    pub fn new() -> ByteWriter {
        ByteWriter { buf: BytesMut::new() }
    }

    pub fn with_capacity(cap: usize) -> ByteWriter {
        ByteWriter { buf: BytesMut::with_capacity(cap) }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// LEB128 varint ([`write_varint`]).
    #[inline]
    pub fn put_varint(&mut self, v: u64) {
        write_varint(v, |byte| self.buf.put_u8(byte));
    }

    /// ZigZag-encoded signed varint.
    #[inline]
    pub fn put_varint_i64(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_u64_le(v.to_bits());
    }

    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.buf.put_u8(v as u8);
    }

    /// Length-prefixed byte slice.
    #[inline]
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_varint(v.len() as u64);
        self.buf.put_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    #[inline]
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Raw bytes without a length prefix (caller manages framing).
    #[inline]
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.put_slice(v);
    }

    /// Reserve a fixed-width `u32` length prefix and return its position.
    /// The caller streams the value directly into the writer and then calls
    /// [`ByteWriter::end_u32_len`] to patch the actual length in — no
    /// intermediate `Vec` per value, which is what keeps snapshot encoding
    /// allocation-free in the steady state.
    #[inline]
    pub fn begin_u32_len(&mut self) -> usize {
        let pos = self.buf.len();
        self.buf.put_u32_le(0);
        pos
    }

    /// Patch the placeholder written by [`ByteWriter::begin_u32_len`] with
    /// the number of bytes appended since.
    #[inline]
    pub fn end_u32_len(&mut self, pos: usize) {
        let len = (self.buf.len() - pos - 4) as u32;
        // clonos-lint: allow(panic-path, reason = "pos is a begin_u32_len cookie; the 4-byte prefix exists by construction")
        self.buf[pos..pos + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Reserve a varint length prefix and return its position: one byte,
    /// which [`ByteWriter::end_varint_len`] patches in place when the
    /// payload streamed after it is shorter than 128 bytes and widens
    /// otherwise. Canonical like [`ByteWriter::put_varint`], with no copy of
    /// the payload in the common case.
    #[inline]
    pub fn begin_varint_len(&mut self) -> usize {
        let pos = self.buf.len();
        self.buf.put_u8(0);
        pos
    }

    /// Patch the prefix reserved by [`ByteWriter::begin_varint_len`] with the
    /// number of bytes appended since.
    #[inline]
    pub fn end_varint_len(&mut self, pos: usize) {
        let end = self.buf.len();
        let len = (end - pos - 1) as u64;
        if len < 0x80 {
            if let Some(byte) = self.buf.get_mut(pos) {
                *byte = len as u8;
            }
            return;
        }
        // Wider: move the payload up by the extra bytes (one move).
        let width = (u64::BITS - len.leading_zeros()).div_ceil(7) as usize;
        for _ in 1..width {
            self.buf.put_u8(0);
        }
        if let Some(prefixed) = self.buf.get_mut(pos..) {
            prefixed.copy_within(1..end - pos, width);
            let mut out = prefixed.iter_mut();
            write_varint(len, |byte| {
                if let Some(o) = out.next() {
                    *o = byte;
                }
            });
        }
    }

    pub fn freeze(self) -> Bytes {
        self.buf.freeze()
    }

    /// Freeze the current contents into a [`Bytes`] and reset the writer for
    /// reuse, retaining its allocation. This is what lets a pooled per-channel
    /// writer serve many buffers without reallocating on every flush.
    pub fn take_frozen(&mut self) -> Bytes {
        let frozen = Bytes::copy_from_slice(&self.buf);
        self.buf.clear();
        frozen
    }

    /// Drop the contents but keep the allocation (pooled-writer reuse).
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Longest LEB128 encoding of a `u64`.
const MAX_VARINT_LEN: usize = 10;

/// Write `v` as a LEB128 varint through `put`: the one varint writer. A push
/// loop measured faster than staging the bytes in a `[u8; 10]` for one copy.
#[inline]
pub fn write_varint(mut v: u64, mut put: impl FnMut(u8)) {
    while v >= 0x80 {
        put(v as u8 | 0x80);
        v >>= 7;
    }
    put(v as u8);
}

/// The value and width of the LEB128 varint at the front of `buf`: the one
/// varint reader. One byte costs one compare; longer varints decode from a
/// ten-byte window with no per-byte bounds check, and only one in the last
/// nine bytes of `buf` takes the cold tail. A tenth byte above 1 is
/// `VarintOverflow`; `buf` ending inside the varint is `UnexpectedEof {
/// needed: 1, remaining: 0 }`.
#[inline(always)]
pub fn read_varint(buf: &[u8]) -> Result<(u64, usize), CodecError> {
    match buf.first() {
        Some(&byte) if byte < 0x80 => Ok((u64::from(byte), 1)),
        _ => match buf.first_chunk::<MAX_VARINT_LEN>() {
            Some(window) => read_window(window),
            None => read_tail(buf),
        },
    }
}

/// Two bytes by a second compare; more as one word of eight, whose lowest
/// clear high bit ends the varint, packed by three shift-and-mask steps.
#[inline]
fn read_window(window: &[u8; MAX_VARINT_LEN]) -> Result<(u64, usize), CodecError> {
    let &[b0, b1, b2, b3, b4, b5, b6, b7, b8, b9] = window;
    if b1 < 0x80 {
        return Ok((u64::from(b0 & 0x7f) | u64::from(b1) << 7, 2));
    }
    let word = u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7]);
    let ends = !word & 0x8080_8080_8080_8080;
    // Every byte up to and including the first that ends the varint.
    let keep = if ends == 0 { u64::MAX } else { ends ^ (ends - 1) };
    let mut v = word & keep & 0x7f7f_7f7f_7f7f_7f7f;
    v = (v & 0x007f_007f_007f_007f) | ((v & 0x7f00_7f00_7f00_7f00) >> 1);
    v = (v & 0x0000_3fff_0000_3fff) | ((v & 0x3fff_0000_3fff_0000) >> 2);
    v = (v & 0x0000_0000_0fff_ffff) | ((v & 0x0fff_ffff_0000_0000) >> 4);
    if ends != 0 {
        return Ok((v, ends.trailing_zeros() as usize / 8 + 1));
    }
    v |= u64::from(b8 & 0x7f) << 56;
    if b8 < 0x80 {
        return Ok((v, 9));
    }
    if b9 > 1 {
        return Err(CodecError::VarintOverflow);
    }
    Ok((v | u64::from(b9) << 63, MAX_VARINT_LEN))
}

/// The kernel's tail: a varint fewer than ten bytes before the end of `buf`,
/// read through the window from a copy padded with continuation bytes. No
/// varint ends in the padding: one that runs into it overflows at the tenth
/// byte, which is padding, and `buf` ended inside it.
#[cold]
fn read_tail(buf: &[u8]) -> Result<(u64, usize), CodecError> {
    let mut window = [0x80; MAX_VARINT_LEN];
    for (slot, &byte) in window.iter_mut().zip(buf) {
        *slot = byte;
    }
    read_window(&window).map_err(|_| CodecError::UnexpectedEof { needed: 1, remaining: 0 })
}

/// Cursor-based decoder over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    rest: &'a [u8],
    /// Length of the whole input.
    len: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { rest: buf, len: buf.len() }
    }

    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    /// End of a value that must fill its frame: a byte left over is
    /// `Inconsistent { context }`.
    pub fn finish(&self, context: &'static str) -> Result<(), CodecError> {
        if self.is_empty() { Ok(()) } else { Err(CodecError::Inconsistent { context }) }
    }

    #[inline]
    pub fn position(&self) -> usize {
        self.len - self.rest.len()
    }

    /// The unread bytes, not consumed.
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (head, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or(CodecError::UnexpectedEof { needed: n, remaining: self.rest.len() })?;
        self.rest = rest;
        Ok(head)
    }

    #[inline]
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(CodecError::UnexpectedEof { needed: N, remaining: self.rest.len() })?;
        self.rest = rest;
        Ok(*head)
    }

    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        let (&byte, rest) =
            self.rest.split_first().ok_or(CodecError::UnexpectedEof { needed: 1, remaining: 0 })?;
        self.rest = rest;
        Ok(byte)
    }

    #[inline(always)]
    pub fn get_varint(&mut self) -> Result<u64, CodecError> {
        let (v, width) = read_varint(self.rest)?;
        self.rest = self.rest.get(width..).unwrap_or_default();
        Ok(v)
    }

    #[inline]
    pub fn get_varint_i64(&mut self) -> Result<i64, CodecError> {
        let z = self.get_varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    pub fn get_u32_le(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(u64::from_le_bytes(self.take_array()?)))
    }

    #[inline]
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.get_u8()? != 0)
    }

    #[inline]
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.get_varint()? as usize;
        self.take(n)
    }

    #[inline]
    pub fn get_str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| CodecError::InvalidUtf8)
    }

    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut w = ByteWriter::new();
            w.put_varint(v);
            let bytes = w.freeze();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(r.get_varint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn signed_varint_roundtrip_edges() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut w = ByteWriter::new();
            w.put_varint_i64(v);
            let bytes = w.freeze();
            assert_eq!(ByteReader::new(&bytes).get_varint_i64().unwrap(), v);
        }
    }

    #[test]
    fn small_signed_values_encode_small() {
        let mut w = ByteWriter::new();
        w.put_varint_i64(-2);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn mixed_sequence_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_varint(300);
        w.put_varint_i64(-12345);
        w.put_f64(3.5);
        w.put_bool(true);
        w.put_str("clonos");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.freeze();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_varint().unwrap(), 300);
        assert_eq!(r.get_varint_i64().unwrap(), -12345);
        assert_eq!(r.get_f64().unwrap(), 3.5);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "clonos");
        assert_eq!(r.get_bytes().unwrap(), &[1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn u32_len_patching() {
        let mut w = ByteWriter::new();
        w.put_u8(0xaa);
        let pos = w.begin_u32_len();
        w.put_raw(b"hello");
        w.end_u32_len(pos);
        let pos2 = w.begin_u32_len();
        w.end_u32_len(pos2); // empty value
        let bytes = w.freeze();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xaa);
        let n = r.get_u32_le().unwrap() as usize;
        assert_eq!(r.get_raw(n).unwrap(), b"hello");
        assert_eq!(r.get_u32_le().unwrap(), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn varint_len_prefix_is_put_bytes_at_every_width() {
        for n in [0usize, 1, 127, 128, 300, 16_383, 16_384, 70_000] {
            let payload: Vec<u8> = (0..n).map(|i| i as u8).collect();
            let mut w = ByteWriter::new();
            w.put_u8(7);
            let pos = w.begin_varint_len();
            w.put_raw(&payload);
            w.end_varint_len(pos);
            let mut want = ByteWriter::new();
            want.put_u8(7);
            want.put_bytes(&payload);
            assert_eq!(w.as_slice(), want.as_slice(), "payload of {n}");
        }
    }

    #[test]
    fn eof_is_reported_not_panicking() {
        let mut r = ByteReader::new(&[0x80]); // truncated varint
        assert!(matches!(r.get_varint(), Err(CodecError::UnexpectedEof { .. })));
        let mut r = ByteReader::new(&[]);
        assert!(matches!(r.get_f64(), Err(CodecError::UnexpectedEof { needed: 8, .. })));
    }

    #[test]
    fn varint_overflow_detected() {
        // 10 continuation bytes of 0xff overflow a u64.
        let bytes = [0xffu8; 10];
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_varint(), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut w = ByteWriter::new();
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.freeze();
        assert_eq!(ByteReader::new(&bytes).get_str(), Err(CodecError::InvalidUtf8));
    }

    /// Byte-at-a-time LEB128, written apart from the kernel: the value and
    /// width of the varint at the front of `buf`, or the error.
    fn reference_read(buf: &[u8]) -> Result<(u64, usize), CodecError> {
        let (mut v, mut shift) = (0u64, 0u32);
        for (i, &byte) in buf.iter().enumerate() {
            if shift == 63 && byte > 1 {
                return Err(CodecError::VarintOverflow);
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok((v, i + 1));
            }
            shift += 7;
        }
        Err(CodecError::UnexpectedEof { needed: 1, remaining: 0 })
    }

    fn reference_write(mut v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return out;
            }
            out.push(byte | 0x80);
        }
    }

    /// The kernel and `ByteReader` against the reference on every prefix of
    /// `bytes` (windowed and tail reads alike).
    fn check_against_reference(bytes: &[u8]) {
        for cut in 0..=bytes.len() {
            let prefix = &bytes[..cut];
            let want = reference_read(prefix);
            assert_eq!(read_varint(prefix), want, "{prefix:x?}");
            let mut r = ByteReader::new(prefix);
            assert_eq!(r.get_varint().map(|v| (v, r.position())), want, "{prefix:x?}");
        }
    }

    #[test]
    fn kernel_matches_the_reference_at_the_overflow_edges() {
        let mut max = vec![0xff; 9];
        max.push(0x01);
        let mut over = vec![0xff; 9];
        over.push(0x02);
        let mut eleven = vec![0x80; 10];
        eleven.push(0x01);
        for (bytes, want) in [
            (max, Ok((u64::MAX, 10))),
            (over, Err(CodecError::VarintOverflow)),
            (eleven, Err(CodecError::VarintOverflow)),
            (vec![0x80; 9], Err(CodecError::UnexpectedEof { needed: 1, remaining: 0 })),
        ] {
            assert_eq!(read_varint(&bytes), want);
            // At the end of the buffer (tail) and with bytes after it (window).
            check_against_reference(&bytes);
            check_against_reference(&[&bytes[..], &[0x05; 12]].concat());
        }
    }

    #[test]
    fn writer_matches_the_reference_at_every_width_boundary() {
        let mut values = vec![u64::MAX];
        for k in 1..10 {
            let edge = 1u64 << (7 * k);
            values.extend([edge - 1, edge, edge + 1]);
        }
        for v in values {
            let want = reference_write(v);
            let mut w = ByteWriter::new();
            w.put_varint(v);
            assert_eq!(w.as_slice(), &want[..], "{v:#x}");
            let mut put = Vec::new();
            write_varint(v, |b| put.push(b));
            assert_eq!(put, want);
            assert_eq!(read_varint(&want), Ok((v, want.len())));
        }
    }

    proptest! {
        /// Same value, same bytes consumed, same error as the reference on
        /// byte strings no encoder wrote, biased to continuation bytes.
        #[test]
        fn prop_kernel_matches_the_reference_on_arbitrary_bytes(
            bytes in proptest::collection::vec(
                prop_oneof![any::<u8>(), 0x80u8..=0xff, Just(0xff), Just(0x01), Just(0x02)],
                0..24,
            ),
        ) {
            check_against_reference(&bytes);
        }

        #[test]
        fn prop_varint_roundtrip(v in any::<u64>()) {
            let mut w = ByteWriter::new();
            w.put_varint(v);
            prop_assert_eq!(w.as_slice(), &reference_write(v)[..]);
            let b = w.freeze();
            prop_assert_eq!(ByteReader::new(&b).get_varint().unwrap(), v);
        }

        #[test]
        fn prop_signed_roundtrip(v in any::<i64>()) {
            let mut w = ByteWriter::new();
            w.put_varint_i64(v);
            let b = w.freeze();
            prop_assert_eq!(ByteReader::new(&b).get_varint_i64().unwrap(), v);
        }

        #[test]
        fn prop_bytes_roundtrip(v in proptest::collection::vec(any::<u8>(), 0..512)) {
            let mut w = ByteWriter::new();
            w.put_bytes(&v);
            let b = w.freeze();
            prop_assert_eq!(ByteReader::new(&b).get_bytes().unwrap(), &v[..]);
        }

        #[test]
        fn prop_f64_roundtrip(v in any::<f64>()) {
            let mut w = ByteWriter::new();
            w.put_f64(v);
            let b = w.freeze();
            let back = ByteReader::new(&b).get_f64().unwrap();
            prop_assert_eq!(back.to_bits(), v.to_bits());
        }

        #[test]
        fn prop_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let mut r = ByteReader::new(&bytes);
            // Whatever the input, decoding returns Ok or Err — never panics.
            let _ = r.get_varint();
            let _ = r.get_str();
            let _ = r.get_f64();
        }
    }
}
