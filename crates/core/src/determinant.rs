//! Determinants: the loggable identities of nondeterministic events (§3.2).
//!
//! Under the piecewise-deterministic assumption, a task's execution is a
//! deterministic function of (its checkpointed state, its input buffers, and
//! the outcomes of its nondeterministic events). Logging each event's
//! *determinant* — enough information to reproduce its outcome — makes the
//! execution replayable. §4.1 of the paper enumerates the sources; each
//! variant below corresponds to one of them.

use clonos_storage::codec::{ByteReader, ByteWriter, CodecError};

/// Kind of a state-affecting RPC received by a task (§4.1: "any RPC received
/// by a task which affects its state is nondeterministic").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RpcKind {
    /// Checkpoint trigger from the checkpoint coordinator: the offset at
    /// which a source injects the barrier is nondeterministic.
    TriggerCheckpoint,
    /// Any other control-plane RPC delivered to the task.
    Other,
}

impl RpcKind {
    fn tag(self) -> u8 {
        match self {
            RpcKind::TriggerCheckpoint => 0,
            RpcKind::Other => 1,
        }
    }

    fn from_tag(t: u8) -> Result<RpcKind, CodecError> {
        match t {
            0 => Ok(RpcKind::TriggerCheckpoint),
            1 => Ok(RpcKind::Other),
            tag => Err(CodecError::InvalidTag { context: "RpcKind", tag }),
        }
    }
}

/// One logged nondeterministic event.
///
/// `offset`-bearing variants record the main thread's *step counter* (number
/// of records processed since the last checkpoint) at which the asynchronous
/// event interleaved; replay re-delivers the event at the same step (§4.2,
/// "Timers & Received RPCs").
#[derive(Clone, Debug, PartialEq)]
pub enum Determinant {
    /// The main thread consumed the next buffer from input `channel`
    /// (§4.2 "Record Processing Order" — logged at buffer granularity).
    Order { channel: u32 },
    /// An asynchronous timer with callback id `timer_id` fired after `offset`
    /// records had been processed in this epoch.
    Timer { timer_id: u64, offset: u64 },
    /// A state-affecting RPC (`arg` = e.g. checkpoint id) delivered at `offset`.
    Rpc { kind: RpcKind, arg: u64, offset: u64 },
    /// A wall-clock timestamp returned by the timestamp service (§4.2),
    /// anchored at main-thread step `offset`. The anchor disambiguates
    /// replay under the caching optimization: between two logged
    /// timestamps, calls served from the cache log nothing, so position
    /// alone cannot tell a cached call from the next fresh one.
    Timestamp { ts: u64, offset: u64 },
    /// RNG seed renewed at an epoch boundary (§4.2 "Random Numbers": the
    /// service stores a fresh seed per checkpoint, not every drawn number).
    RngSeed { seed: u64 },
    /// Serialized response of a call to an external system (§4.2 "Calls to
    /// External Systems": the HTTP service persists the response).
    External { payload: Vec<u8> },
    /// Serialized output of a user-defined causal service (Listing 2/3).
    UserService { payload: Vec<u8> },
    /// A network (output-queue) thread flushed a buffer of `size` bytes on
    /// its channel (§4.1 "Output Buffers" — nondeterministic buffer sizes).
    /// Lives in the per-channel log, keyed by the channel, so no channel
    /// field is stored.
    BufferFlush { size: u32, records: u32 },
    /// A watermark value generated from the wall clock at the sources (§4.1
    /// "Event-Time Windows & Out-Of-Order Processing": low-watermarks are
    /// generated according to wall-clock time, hence nondeterministic).
    Watermark { ts: u64 },
}

impl Determinant {
    /// Serialized size in bytes (used for determinant-volume accounting in
    /// the §7.5 memory experiments).
    pub fn encoded_len(&self) -> usize {
        let mut w = ByteWriter::new();
        self.encode(&mut w);
        w.len()
    }

    pub fn encode(&self, w: &mut ByteWriter) {
        match self {
            Determinant::Order { channel } => {
                w.put_u8(0);
                w.put_varint(*channel as u64);
            }
            Determinant::Timer { timer_id, offset } => {
                w.put_u8(1);
                w.put_varint(*timer_id);
                w.put_varint(*offset);
            }
            Determinant::Rpc { kind, arg, offset } => {
                w.put_u8(2);
                w.put_u8(kind.tag());
                w.put_varint(*arg);
                w.put_varint(*offset);
            }
            Determinant::Timestamp { ts, offset } => {
                w.put_u8(3);
                w.put_varint(*ts);
                w.put_varint(*offset);
            }
            Determinant::RngSeed { seed } => {
                w.put_u8(4);
                w.put_varint(*seed);
            }
            Determinant::External { payload } => {
                w.put_u8(5);
                w.put_bytes(payload);
            }
            Determinant::UserService { payload } => {
                w.put_u8(6);
                w.put_bytes(payload);
            }
            Determinant::BufferFlush { size, records } => {
                w.put_u8(7);
                w.put_varint(*size as u64);
                w.put_varint(*records as u64);
            }
            Determinant::Watermark { ts } => {
                w.put_u8(8);
                w.put_varint(*ts);
            }
        }
    }

    pub fn decode(r: &mut ByteReader<'_>) -> Result<Determinant, CodecError> {
        let tag = r.get_u8()?;
        Self::decode_with_tag(tag, r)
    }

    /// Decode with the tag byte already consumed (used by the delta wire
    /// format, which reserves extra tags for compressed runs).
    pub fn decode_with_tag(tag: u8, r: &mut ByteReader<'_>) -> Result<Determinant, CodecError> {
        Ok(match tag {
            0 => Determinant::Order { channel: r.get_varint()? as u32 },
            1 => Determinant::Timer { timer_id: r.get_varint()?, offset: r.get_varint()? },
            2 => Determinant::Rpc {
                kind: RpcKind::from_tag(r.get_u8()?)?,
                arg: r.get_varint()?,
                offset: r.get_varint()?,
            },
            3 => Determinant::Timestamp { ts: r.get_varint()?, offset: r.get_varint()? },
            4 => Determinant::RngSeed { seed: r.get_varint()? },
            5 => Determinant::External { payload: r.get_bytes()?.to_vec() },
            6 => Determinant::UserService { payload: r.get_bytes()?.to_vec() },
            7 => Determinant::BufferFlush {
                size: r.get_varint()? as u32,
                records: r.get_varint()? as u32,
            },
            8 => Determinant::Watermark { ts: r.get_varint()? },
            tag => return Err(CodecError::InvalidTag { context: "Determinant", tag }),
        })
    }

    /// Walk past one encoded determinant (tag byte already consumed) without
    /// building it: the delta receive path keeps determinants as bytes and
    /// needs only their extent. Accepts exactly the byte strings
    /// [`Determinant::decode_with_tag`] accepts, with the same error on the
    /// rest, so bytes that got past it always decode later. Returns the
    /// channel of an `Order`, the one field the arena index keeps.
    #[inline]
    pub(crate) fn skip_with_tag(tag: u8, r: &mut WireCursor<'_>) -> Result<Option<u32>, CodecError> {
        match tag {
            0 => return Ok(Some(r.varint()? as u32)),
            4 | 8 => r.skip_varints::<1>()?,
            1 | 3 | 7 => r.skip_varints::<2>()?,
            2 => {
                RpcKind::from_tag(r.u8()?)?;
                r.skip_varints::<2>()?;
            }
            5 | 6 => {
                let n = r.varint()? as usize;
                r.skip(n)?;
            }
            tag => return Err(CodecError::InvalidTag { context: "Determinant", tag }),
        }
        Ok(None)
    }

    /// True for determinants that guide the *main thread's* replay (as
    /// opposed to the output-queue threads').
    pub fn is_main_thread(&self) -> bool {
        !matches!(self, Determinant::BufferFlush { .. })
    }
}

/// Forward cursor over received delta bytes. It reads what [`ByteReader`]
/// reads and fails with the same [`CodecError`]s, but every method inlines
/// into the ingest loop (`ByteReader`'s varint reader is an out-of-line call
/// across the crate boundary, paid several times per entry), and a copy of
/// it marks a position whose bytes can be taken later.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WireCursor<'a> {
    rest: &'a [u8],
}

impl<'a> WireCursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> WireCursor<'a> {
        WireCursor { rest: buf }
    }

    #[inline]
    pub(crate) fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` unread bytes (all of them if fewer remain), not consumed.
    #[inline]
    pub(crate) fn peek(&self, n: usize) -> &'a [u8] {
        self.rest.get(..n).unwrap_or(self.rest)
    }

    #[inline]
    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        let (&byte, rest) = self
            .rest
            .split_first()
            .ok_or(CodecError::UnexpectedEof { needed: 1, remaining: 0 })?;
        self.rest = rest;
        Ok(byte)
    }

    #[inline]
    pub(crate) fn varint(&mut self) -> Result<u64, CodecError> {
        // Channel ids, epochs, small counts and tags' operands are mostly
        // one byte; the general loop stays out of line.
        match self.rest.split_first() {
            Some((&byte, rest)) if byte < 0x80 => {
                self.rest = rest;
                Ok(byte as u64)
            }
            _ => self.varint_multibyte(),
        }
    }

    /// Walk past `N` consecutive varints without assembling their values.
    /// Timestamps, step offsets and buffer sizes are two to four bytes and
    /// come in pairs: when all `N` end within the next eight bytes, one word
    /// operation finds where (no overflow is possible that early, and the
    /// walk does not wait on one varint's length to load the next);
    /// anything else takes the reading path and its errors.
    #[inline]
    pub(crate) fn skip_varints<const N: usize>(&mut self) -> Result<(), CodecError> {
        if let Some(word) = self.rest.first_chunk::<8>() {
            // One bit per byte that ends a varint; drop the first `N - 1`.
            let mut ends = !u64::from_le_bytes(*word) & 0x8080_8080_8080_8080;
            for _ in 1..N {
                ends &= ends.wrapping_sub(1);
            }
            if ends != 0 {
                let len = ends.trailing_zeros() as usize / 8 + 1;
                self.rest = self.rest.get(len..).unwrap_or_default();
                return Ok(());
            }
        }
        for _ in 0..N {
            self.varint_multibyte()?;
        }
        Ok(())
    }

    fn varint_multibyte(&mut self) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
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

    #[inline]
    pub(crate) fn skip(&mut self, n: usize) -> Result<(), CodecError> {
        self.rest = self
            .rest
            .get(n..)
            .ok_or(CodecError::UnexpectedEof { needed: n, remaining: self.rest.len() })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(d: &Determinant) -> Determinant {
        let mut w = ByteWriter::new();
        d.encode(&mut w);
        let bytes = w.freeze();
        let mut r = ByteReader::new(&bytes);
        let back = Determinant::decode(&mut r).unwrap();
        assert!(r.is_empty(), "trailing bytes after {d:?}");
        back
    }

    #[test]
    fn all_variants_roundtrip() {
        let variants = vec![
            Determinant::Order { channel: 3 },
            Determinant::Timer { timer_id: 42, offset: 1_000_000 },
            Determinant::Rpc { kind: RpcKind::TriggerCheckpoint, arg: 7, offset: 99 },
            Determinant::Rpc { kind: RpcKind::Other, arg: 0, offset: 0 },
            Determinant::Timestamp { ts: 1_616_161_616_161, offset: 42 },
            Determinant::RngSeed { seed: u64::MAX },
            Determinant::External { payload: b"{\"a\":3}".to_vec() },
            Determinant::UserService { payload: vec![] },
            Determinant::BufferFlush { size: 32_768, records: 140 },
            Determinant::Watermark { ts: 123 },
        ];
        for d in &variants {
            assert_eq!(&roundtrip(d), d);
        }
    }

    #[test]
    fn encoded_len_matches_actual() {
        let d = Determinant::Timer { timer_id: 300, offset: 70_000 };
        let mut w = ByteWriter::new();
        d.encode(&mut w);
        assert_eq!(d.encoded_len(), w.len());
    }

    #[test]
    fn order_determinants_are_tiny() {
        // The paper's overhead hinges on determinants being compact; an Order
        // entry must be ~2 bytes.
        assert!(Determinant::Order { channel: 5 }.encoded_len() <= 2);
        assert!(Determinant::Timestamp { ts: 1_616_161_616_161, offset: 3 }.encoded_len() <= 9);
    }

    #[test]
    fn invalid_tag_is_an_error() {
        let mut r = ByteReader::new(&[200]);
        assert!(matches!(
            Determinant::decode(&mut r),
            Err(CodecError::InvalidTag { context: "Determinant", tag: 200 })
        ));
    }

    #[test]
    fn main_thread_classification() {
        assert!(Determinant::Order { channel: 0 }.is_main_thread());
        assert!(Determinant::Timestamp { ts: 0, offset: 0 }.is_main_thread());
        assert!(!Determinant::BufferFlush { size: 1, records: 1 }.is_main_thread());
    }

    /// A `u64` of any encoded width: one to ten varint bytes, each about
    /// as likely.
    fn arb_u64() -> impl Strategy<Value = u64> {
        (any::<u64>(), 0u32..64).prop_map(|(v, shift)| v >> shift)
    }

    fn arb_determinant() -> impl Strategy<Value = Determinant> {
        prop_oneof![
            any::<u32>().prop_map(|channel| Determinant::Order { channel }),
            (arb_u64(), arb_u64())
                .prop_map(|(timer_id, offset)| Determinant::Timer { timer_id, offset }),
            (arb_u64(), arb_u64(), any::<bool>()).prop_map(|(arg, offset, cp)| {
                Determinant::Rpc {
                    kind: if cp { RpcKind::TriggerCheckpoint } else { RpcKind::Other },
                    arg,
                    offset,
                }
            }),
            (arb_u64(), arb_u64()).prop_map(|(ts, offset)| Determinant::Timestamp { ts, offset }),
            arb_u64().prop_map(|seed| Determinant::RngSeed { seed }),
            proptest::collection::vec(any::<u8>(), 0..128)
                .prop_map(|payload| Determinant::External { payload }),
            proptest::collection::vec(any::<u8>(), 0..128)
                .prop_map(|payload| Determinant::UserService { payload }),
            (any::<u32>(), any::<u32>())
                .prop_map(|(size, records)| Determinant::BufferFlush { size, records }),
            arb_u64().prop_map(|ts| Determinant::Watermark { ts }),
        ]
    }

    const VARIANTS: usize = 9;

    /// Exhaustive on purpose: a new variant does not compile until it has a
    /// slot here, and `prop_strategy_generates_every_variant` then fails
    /// until `arb_determinant` generates it — which is what puts it in front
    /// of the skip/decode equivalence below.
    fn variant_slot(d: &Determinant) -> usize {
        match d {
            Determinant::Order { .. } => 0,
            Determinant::Timer { .. } => 1,
            Determinant::Rpc { .. } => 2,
            Determinant::Timestamp { .. } => 3,
            Determinant::RngSeed { .. } => 4,
            Determinant::External { .. } => 5,
            Determinant::UserService { .. } => 6,
            Determinant::BufferFlush { .. } => 7,
            Determinant::Watermark { .. } => 8,
        }
    }

    /// What decoding `bytes` as one determinant yields: the `Order` channel
    /// if it is one, and the bytes consumed.
    fn decoded(bytes: &[u8]) -> Result<(Option<u32>, usize), CodecError> {
        let mut r = ByteReader::new(bytes);
        let channel = match Determinant::decode(&mut r)? {
            Determinant::Order { channel } => Some(channel),
            _ => None,
        };
        Ok((channel, r.position()))
    }

    /// The same through the skip-walker.
    fn skipped(bytes: &[u8]) -> Result<(Option<u32>, usize), CodecError> {
        let mut r = WireCursor::new(bytes);
        let tag = r.u8()?;
        let channel = Determinant::skip_with_tag(tag, &mut r)?;
        Ok((channel, bytes.len() - r.remaining()))
    }

    /// Bytes that make long varints, overflows and short payloads likely.
    fn arb_wire_byte() -> impl Strategy<Value = u8> {
        prop_oneof![any::<u8>(), any::<u8>(), Just(0x80u8), Just(0xffu8), Just(0x01u8), Just(0x00u8)]
    }

    proptest! {
        #[test]
        fn prop_roundtrip(d in arb_determinant()) {
            prop_assert_eq!(roundtrip(&d), d);
        }

        #[test]
        fn prop_sequences_roundtrip(ds in proptest::collection::vec(arb_determinant(), 0..64)) {
            let mut w = ByteWriter::new();
            for d in &ds {
                d.encode(&mut w);
            }
            let bytes = w.freeze();
            let mut r = ByteReader::new(&bytes);
            let mut back = Vec::new();
            while !r.is_empty() {
                back.push(Determinant::decode(&mut r).unwrap());
            }
            prop_assert_eq!(back, ds);
        }

        #[test]
        fn prop_strategy_generates_every_variant(
            ds in proptest::collection::vec(arb_determinant(), 512),
        ) {
            let mut seen = [false; VARIANTS];
            for d in &ds {
                seen[variant_slot(d)] = true;
            }
            prop_assert_eq!(seen, [true; VARIANTS]);
        }

        /// On every encoding, and on every truncation of one, the walker
        /// consumes what the decoder consumes or fails as the decoder fails.
        #[test]
        fn prop_skip_agrees_with_decode_on_encodings(d in arb_determinant()) {
            let mut w = ByteWriter::new();
            d.encode(&mut w);
            let bytes = w.freeze();
            prop_assert_eq!(skipped(&bytes), Ok((decoded(&bytes).unwrap().0, bytes.len())));
            for cut in 0..bytes.len() {
                prop_assert_eq!(skipped(&bytes[..cut]), decoded(&bytes[..cut]), "cut at {}", cut);
            }
        }

        /// The same on byte strings no encoder wrote: invalid tags, bad
        /// `RpcKind`s, varints that overflow or never end, payload lengths
        /// past the end.
        #[test]
        fn prop_skip_agrees_with_decode_on_arbitrary_bytes(
            tag in prop_oneof![0u8..10, any::<u8>()],
            rest in proptest::collection::vec(arb_wire_byte(), 0..40),
        ) {
            let bytes = [&[tag][..], &rest[..]].concat();
            prop_assert_eq!(skipped(&bytes), decoded(&bytes));
        }

        /// The cursor's varint reader is `ByteReader`'s: same value, same
        /// width, same error.
        #[test]
        fn prop_cursor_varint_matches_reader(
            bytes in proptest::collection::vec(arb_wire_byte(), 0..24),
        ) {
            let mut reader = ByteReader::new(&bytes);
            let mut cursor = WireCursor::new(&bytes);
            loop {
                let want = reader.get_varint();
                prop_assert_eq!(cursor.varint(), want.clone());
                prop_assert_eq!(cursor.remaining(), reader.remaining());
                if want.is_err() {
                    break;
                }
            }
        }
    }
}
