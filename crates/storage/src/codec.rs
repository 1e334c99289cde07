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

    /// LEB128 varint.
    #[inline]
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.put_u8(byte);
                return;
            }
            self.buf.put_u8(byte | 0x80);
        }
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
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_varint(v.len() as u64);
        self.buf.put_slice(v);
    }

    /// Length-prefixed UTF-8 string.
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
            let mut v = len;
            for byte in prefixed.iter_mut().take(width) {
                *byte = (v as u8 & 0x7f) | if v >= 0x80 { 0x80 } else { 0 };
                v >>= 7;
            }
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

/// Cursor-based decoder over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// End of a value that must fill its frame: a byte left over is
    /// `Inconsistent { context }`.
    pub fn finish(&self, context: &'static str) -> Result<(), CodecError> {
        if self.is_empty() { Ok(()) } else { Err(CodecError::Inconsistent { context }) }
    }

    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The unread bytes, not consumed.
    pub fn rest(&self) -> &'a [u8] {
        self.buf.get(self.pos..).unwrap_or_default()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof { needed: n, remaining: self.remaining() });
        }
        // clonos-lint: allow(panic-path, reason = "bounds checked above; short reads surface CodecError::UnexpectedEof")
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_varint(&mut self) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift == 63 && byte > 1 {
                return Err(CodecError::VarintOverflow);
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::VarintOverflow);
            }
        }
    }

    pub fn get_varint_i64(&mut self) -> Result<i64, CodecError> {
        let z = self.get_varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    pub fn get_u32_le(&mut self) -> Result<u32, CodecError> {
        let s = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(s);
        Ok(u32::from_le_bytes(a))
    }

    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        let s = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(s);
        Ok(f64::from_bits(u64::from_le_bytes(a)))
    }

    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.get_u8()? != 0)
    }

    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.get_varint()? as usize;
        self.take(n)
    }

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

    proptest! {
        #[test]
        fn prop_varint_roundtrip(v in any::<u64>()) {
            let mut w = ByteWriter::new();
            w.put_varint(v);
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
