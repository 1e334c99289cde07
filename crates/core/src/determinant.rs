//! Determinants: the loggable identities of nondeterministic events (§3.2).
//!
//! Under the piecewise-deterministic assumption, a task's execution is a
//! deterministic function of (its checkpointed state, its input buffers, and
//! the outcomes of its nondeterministic events). Logging each event's
//! *determinant* — enough information to reproduce its outcome — makes the
//! execution replayable. §4.1 of the paper enumerates the sources; each
//! variant below corresponds to one of them.

use crate::EpochId;
use clonos_storage::codec::{read_varint, ByteReader, ByteWriter, CodecError};

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
    /// This determinant's wire encoding against the zero context: what
    /// [`Determinant::encode_wire`] writes for the first entry of epoch 0.
    pub fn encode(&self, w: &mut ByteWriter) {
        self.encode_wire(0, &mut WireCtx::default(), w);
    }

    /// Decode what [`Determinant::encode`] wrote and advance `r` past it.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Determinant, CodecError> {
        let rest = r.rest();
        let mut cursor = WireCursor::new(rest);
        let (_, det) = Self::decode_wire(&mut cursor, &mut WireCtx::default())?;
        r.get_raw(rest.len() - cursor.remaining())?;
        Ok(det)
    }

    /// The delta wire (v2) encoding of this determinant logged under `epoch`:
    /// a tag byte — the variant's kind, 0..8 in declaration order — carrying
    /// [`WIRE_EPOCH`] when `epoch` differs from the context's and
    /// [`WIRE_ABS`] when a step field jumps further than an `i64` reaches,
    /// then the fields in declaration order (varints; an `RpcKind` as one
    /// byte; a payload length-prefixed), each step field (`Timestamp.ts`,
    /// every `offset`) as a zigzag delta from the context's (from 0 in a new
    /// epoch). `ctx` advances past the entry. Returns the kind.
    #[inline]
    pub(crate) fn encode_wire(&self, epoch: EpochId, ctx: &mut WireCtx, w: &mut ByteWriter) -> u8 {
        // The step fields are coded against the context the head leaves.
        let fresh = ctx.enter(epoch);
        let (kind, abs) = match *self {
            Determinant::Order { .. } => (0, false),
            Determinant::Timer { offset, .. } => (1, !step_fits(offset, ctx.offset)),
            Determinant::Rpc { offset, .. } => (2, !step_fits(offset, ctx.offset)),
            Determinant::Timestamp { ts, offset } => {
                (3, !step_fits(ts, ctx.ts) || !step_fits(offset, ctx.offset))
            }
            Determinant::RngSeed { .. } => (4, false),
            Determinant::External { .. } => (5, false),
            Determinant::UserService { .. } => (6, false),
            Determinant::BufferFlush { .. } => (7, false),
            Determinant::Watermark { .. } => (8, false),
        };
        put_tag(w, if abs { kind | WIRE_ABS } else { kind }, fresh.then_some(epoch));
        match self {
            Determinant::Order { channel } => w.put_varint(*channel as u64),
            Determinant::Timer { timer_id, offset } => {
                w.put_varint(*timer_id);
                put_step(w, *offset, &mut ctx.offset, abs);
            }
            Determinant::Rpc { kind, arg, offset } => {
                w.put_u8(kind.tag());
                w.put_varint(*arg);
                put_step(w, *offset, &mut ctx.offset, abs);
            }
            Determinant::Timestamp { ts, offset } => {
                put_step(w, *ts, &mut ctx.ts, abs);
                put_step(w, *offset, &mut ctx.offset, abs);
            }
            Determinant::RngSeed { seed: v } | Determinant::Watermark { ts: v } => w.put_varint(*v),
            Determinant::External { payload } | Determinant::UserService { payload } => {
                w.put_bytes(payload)
            }
            Determinant::BufferFlush { size, records } => {
                w.put_varint(*size as u64);
                w.put_varint(*records as u64);
            }
        }
        kind
    }

    /// What [`Determinant::encode_wire`] writes for `External { payload }`,
    /// from a borrowed payload: an external answer is logged uncopied.
    #[inline]
    pub(crate) fn encode_external_wire(
        payload: &[u8],
        epoch: EpochId,
        ctx: &mut WireCtx,
        w: &mut ByteWriter,
    ) -> u8 {
        put_tag(w, 5, ctx.enter(epoch).then_some(epoch));
        w.put_bytes(payload);
        5
    }

    /// Decode one wire entry coded against `ctx`, which advances past it.
    /// Cold path: replica export, replay installation, tests.
    pub(crate) fn decode_wire(
        r: &mut WireCursor<'_>,
        ctx: &mut WireCtx,
    ) -> Result<(EpochId, Determinant), CodecError> {
        let kind = ctx.read_head(r)?;
        let abs = kind & WIRE_ABS != 0;
        let det = match kind {
            0 => Determinant::Order { channel: r.varint()? as u32 },
            0x01 | 0x41 => {
                Determinant::Timer { timer_id: r.varint()?, offset: read_step(r, &mut ctx.offset, abs)? }
            }
            0x02 | 0x42 => Determinant::Rpc {
                kind: RpcKind::from_tag(r.u8()?)?,
                arg: r.varint()?,
                offset: read_step(r, &mut ctx.offset, abs)?,
            },
            0x03 | 0x43 => Determinant::Timestamp {
                ts: read_step(r, &mut ctx.ts, abs)?,
                offset: read_step(r, &mut ctx.offset, abs)?,
            },
            4 => Determinant::RngSeed { seed: r.varint()? },
            5 => Determinant::External { payload: r.bytes()?.to_vec() },
            6 => Determinant::UserService { payload: r.bytes()?.to_vec() },
            7 => Determinant::BufferFlush { size: r.varint()? as u32, records: r.varint()? as u32 },
            8 => Determinant::Watermark { ts: r.varint()? },
            tag => return Err(CodecError::InvalidTag { context: "Determinant", tag }),
        };
        Ok((ctx.epoch, det))
    }

    /// Walk past the fields of one wire entry (tag byte read, `kind` without
    /// [`WIRE_EPOCH`]) without building it: the delta receive path keeps
    /// determinants as bytes and needs only their extent and the context they
    /// leave. Accepts exactly the byte strings [`Determinant::decode_wire`]
    /// accepts, with the same error on the rest, so bytes that got past it
    /// always decode later.
    #[inline]
    pub(crate) fn skip_wire(kind: u8, r: &mut WireCursor<'_>, ctx: &mut WireCtx) -> Result<(), CodecError> {
        let abs = kind & WIRE_ABS != 0;
        match kind {
            0 | 4 | 8 => r.skip_varints::<1>()?,
            7 => r.skip_varints::<2>()?,
            0x01 | 0x41 => {
                r.skip_varints::<1>()?;
                read_step(r, &mut ctx.offset, abs)?;
            }
            0x02 | 0x42 => {
                RpcKind::from_tag(r.u8()?)?;
                r.skip_varints::<1>()?;
                read_step(r, &mut ctx.offset, abs)?;
            }
            0x03 | 0x43 => {
                read_step(r, &mut ctx.ts, abs)?;
                read_step(r, &mut ctx.offset, abs)?;
            }
            5 | 6 => {
                r.bytes()?;
            }
            tag => return Err(CodecError::InvalidTag { context: "Determinant", tag }),
        }
        Ok(())
    }

    /// Re-code the wire entry at `r`, coded against `from`, against `to`,
    /// into `w`; both contexts advance past it. Only the tag byte, the epoch
    /// and the step fields are written anew: the fields before the step
    /// fields are copied as bytes, and no determinant is built.
    pub(crate) fn recode_wire(
        r: &mut WireCursor<'_>,
        from: &mut WireCtx,
        to: &mut WireCtx,
        w: &mut ByteWriter,
    ) -> Result<(), CodecError> {
        let kind = from.read_head(r)?;
        let fields = *r;
        Self::skip_wire(kind, r, from)?;
        let epoch = from.epoch;
        // Where the step fields start: after a `Timer`'s id, after an
        // `Rpc`'s kind and argument, at once in a `Timestamp`.
        let mut steps = fields;
        match kind & !WIRE_ABS {
            1 => steps.skip_varints::<1>()?,
            2 => {
                steps.skip(1)?;
                steps.skip_varints::<1>()?;
            }
            3 => {}
            _ => {
                to.put_head(w, kind, epoch);
                w.put_raw(fields.peek(fields.remaining() - r.remaining()));
                return Ok(());
            }
        }
        let ts = (kind & !WIRE_ABS == 3).then_some(from.ts);
        let fresh = to.enter(epoch);
        let abs = ts.is_some_and(|v| !step_fits(v, to.ts)) || !step_fits(from.offset, to.offset);
        put_tag(w, (kind & !WIRE_ABS) | if abs { WIRE_ABS } else { 0 }, fresh.then_some(epoch));
        let prefix = fields.remaining() - steps.remaining();
        if prefix > 0 {
            w.put_raw(fields.peek(prefix));
        }
        if let Some(ts) = ts {
            put_step(w, ts, &mut to.ts, abs);
        }
        put_step(w, from.offset, &mut to.offset, abs);
        Ok(())
    }

    /// True for determinants that guide the *main thread's* replay (as
    /// opposed to the output-queue threads').
    pub fn is_main_thread(&self) -> bool {
        !matches!(self, Determinant::BufferFlush { .. })
    }
}

/// Tag-byte flag of a delta wire item: `varint(epoch)` follows the tag
/// byte. An item without it has the epoch of the item before it.
pub(crate) const WIRE_EPOCH: u8 = 0x80;
/// Tag-byte flag of a delta wire entry: its step fields are absolute
/// varints, not deltas — for a jump of 2^63 or more, which no `i64` holds.
pub(crate) const WIRE_ABS: u8 = 0x40;

/// What a delta wire item is coded against: the epoch the items before it
/// in the same log left, and their last `Timestamp.ts` and last step
/// `offset` (`Timestamp`, `Timer`, `Rpc`) in that epoch — an item that
/// changes the epoch starts both from 0. A span on the wire starts from the
/// zero context; a log arena from its base context.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct WireCtx {
    pub(crate) epoch: EpochId,
    ts: u64,
    offset: u64,
}

impl WireCtx {
    /// The context an item that enters `epoch` leaves its fields coded
    /// against.
    #[inline]
    pub(crate) fn of_epoch(epoch: EpochId) -> WireCtx {
        WireCtx { epoch, ts: 0, offset: 0 }
    }

    /// Move to `epoch`: a change restarts the step fields. True if it did.
    #[inline]
    pub(crate) fn enter(&mut self, epoch: EpochId) -> bool {
        let changed = epoch != self.epoch;
        if changed {
            *self = WireCtx::of_epoch(epoch);
        }
        changed
    }

    /// Write a tag byte of `kind`, flagged and followed by `epoch` when it
    /// differs from the context's, and move to `epoch`.
    #[inline]
    pub(crate) fn put_head(&mut self, w: &mut ByteWriter, kind: u8, epoch: EpochId) {
        let fresh = self.enter(epoch);
        put_tag(w, kind, fresh.then_some(epoch));
    }

    /// Read a tag byte and the epoch it flags; returns it without
    /// [`WIRE_EPOCH`]. Decreasing epochs are legal (DESIGN.md §3.2).
    #[inline]
    pub(crate) fn read_head(&mut self, r: &mut WireCursor<'_>) -> Result<u8, CodecError> {
        let tag = r.u8()?;
        if tag & WIRE_EPOCH != 0 {
            *self = WireCtx::of_epoch(r.varint()?);
        }
        Ok(tag & !WIRE_EPOCH)
    }
}

/// Write tag byte `tag`, flagged and followed by the epoch an item enters.
#[inline]
fn put_tag(w: &mut ByteWriter, tag: u8, entered: Option<EpochId>) {
    match entered {
        Some(epoch) => {
            w.put_u8(tag | WIRE_EPOCH);
            w.put_varint(epoch);
        }
        None => w.put_u8(tag),
    }
}

/// Whether `v - prev` fits an `i64`: the wrapping difference has the sign
/// of the true one.
#[inline]
fn step_fits(v: u64, prev: u64) -> bool {
    ((v.wrapping_sub(prev) as i64) < 0) == (v < prev)
}

/// Write step field `v` as a zigzag delta from `prev` (absolute under
/// [`WIRE_ABS`]) and make it the new `prev`.
#[inline]
fn put_step(w: &mut ByteWriter, v: u64, prev: &mut u64, abs: bool) {
    if abs {
        w.put_varint(v);
    } else {
        let d = v.wrapping_sub(*prev) as i64;
        w.put_varint(((d << 1) ^ (d >> 63)) as u64);
    }
    *prev = v;
}

/// Read what [`put_step`] wrote. A delta that takes the field out of `u64`
/// is an error: the encoder writes such a jump absolute.
#[inline]
fn read_step(r: &mut WireCursor<'_>, prev: &mut u64, abs: bool) -> Result<u64, CodecError> {
    let raw = r.varint()?;
    let v = if abs {
        raw
    } else {
        let delta = (raw >> 1) as i64 ^ -((raw & 1) as i64);
        prev.checked_add_signed(delta)
            .ok_or(CodecError::Inconsistent { context: "step delta past the range of its field" })?
    };
    *prev = v;
    Ok(v)
}

/// Forward cursor over received delta bytes. Its varints go through the
/// codec's one reader ([`read_varint`]), so it reads what [`ByteReader`]
/// reads and fails with the same [`CodecError`]s; it adds the delta wire's
/// walks ([`WireCursor::skip_varints`], `peek`/`skip`), and a copy of it
/// marks a position whose bytes can be taken later.
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

    /// One byte inline; a wider varint takes one call into the kernel. The
    /// ingest walk has a varint read in every arm, and the kernel's window
    /// inlined at each made it 16 % slower per entry (EXPERIMENTS.md E1q).
    #[inline]
    pub(crate) fn varint(&mut self) -> Result<u64, CodecError> {
        match self.rest.split_first() {
            Some((&byte, rest)) if byte < 0x80 => {
                self.rest = rest;
                Ok(u64::from(byte))
            }
            _ => self.varint_wide(),
        }
    }

    #[inline(never)]
    fn varint_wide(&mut self) -> Result<u64, CodecError> {
        let (v, width) = read_varint(self.rest)?;
        self.rest = self.rest.get(width..).unwrap_or_default();
        Ok(v)
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
            self.varint()?;
        }
        Ok(())
    }

    /// The next `n` bytes, consumed.
    #[inline]
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let taken = self.peek(n);
        self.skip(n)?;
        Ok(taken)
    }

    /// A length-prefixed payload, consumed.
    #[inline]
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.varint()? as usize;
        self.take(n)
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
    use crate::wire_v2;
    use bytes::Bytes;
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
    fn order_determinants_are_tiny() {
        // The paper's overhead hinges on determinants being compact; an Order
        // entry must be ~2 bytes.
        let len = |d: Determinant| {
            let mut w = ByteWriter::new();
            d.encode(&mut w);
            w.len()
        };
        assert!(len(Determinant::Order { channel: 5 }) <= 2);
        assert!(len(Determinant::Timestamp { ts: 1_616_161_616_161, offset: 3 }) <= 9);
    }

    #[test]
    fn invalid_tag_is_an_error() {
        let mut r = ByteReader::new(&[9]);
        assert!(matches!(
            Determinant::decode(&mut r),
            Err(CodecError::InvalidTag { context: "Determinant", tag: 9 })
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

    /// What decoding `bytes` as one wire entry coded against `ctx` yields:
    /// the bytes consumed and the context left.
    fn decoded(bytes: &[u8], mut ctx: WireCtx) -> Result<(usize, WireCtx), CodecError> {
        let mut r = WireCursor::new(bytes);
        Determinant::decode_wire(&mut r, &mut ctx)?;
        Ok((bytes.len() - r.remaining(), ctx))
    }

    /// The same through the skip-walker.
    fn skipped(bytes: &[u8], mut ctx: WireCtx) -> Result<(usize, WireCtx), CodecError> {
        let mut r = WireCursor::new(bytes);
        let kind = ctx.read_head(&mut r)?;
        Determinant::skip_wire(kind, &mut r, &mut ctx)?;
        Ok((bytes.len() - r.remaining(), ctx))
    }

    fn arb_ctx() -> impl Strategy<Value = WireCtx> {
        (arb_u64(), arb_u64(), arb_u64()).prop_map(|(epoch, ts, offset)| WireCtx { epoch, ts, offset })
    }

    /// The test-only reference encoding (`tests/common/wire_v2.rs`) of `d`
    /// under `epoch` against `ctx`, and the context it leaves.
    fn reference(d: &Determinant, epoch: EpochId, ctx: WireCtx) -> (Bytes, WireCtx) {
        let mut w = ByteWriter::new();
        let mut c = wire_v2::Ctx { epoch: ctx.epoch, ts: ctx.ts, offset: ctx.offset };
        wire_v2::encode(&mut w, &mut c, epoch, d);
        (w.freeze(), WireCtx { epoch: c.epoch, ts: c.ts, offset: c.offset })
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

        /// On every reference wire encoding (any context, any epoch), the
        /// crate's encoder writes the same bytes and leaves the same context
        /// (for `External`, from a borrowed payload too), the decoder gives
        /// the determinant back, and on every truncation the walker consumes
        /// what the decoder consumes or fails as it fails.
        #[test]
        fn prop_skip_agrees_with_decode_on_encodings(
            d in arb_determinant(),
            epoch in arb_u64(),
            ctx in arb_ctx(),
        ) {
            let (bytes, after) = reference(&d, epoch, ctx);
            let mut mine = ByteWriter::new();
            let mut left = ctx;
            d.encode_wire(epoch, &mut left, &mut mine);
            prop_assert_eq!(mine.as_slice(), &bytes[..]);
            prop_assert_eq!(left, after);
            if let Determinant::External { payload } = &d {
                let (mut borrowed, mut left) = (ByteWriter::new(), ctx);
                Determinant::encode_external_wire(payload, epoch, &mut left, &mut borrowed);
                prop_assert_eq!(borrowed.as_slice(), &bytes[..]);
                prop_assert_eq!(left, after);
            }
            let mut back = ctx;
            prop_assert_eq!(Determinant::decode_wire(&mut WireCursor::new(&bytes), &mut back), Ok((epoch, d.clone())));
            prop_assert_eq!(back, after);
            prop_assert_eq!(skipped(&bytes, ctx), Ok((bytes.len(), after)));
            for cut in 0..bytes.len() {
                prop_assert_eq!(skipped(&bytes[..cut], ctx), decoded(&bytes[..cut], ctx), "cut at {}", cut);
            }
        }

        /// The same on byte strings no encoder wrote: invalid tags and
        /// flags, bad `RpcKind`s, varints that overflow or never end, step
        /// deltas that leave `u64`, payload lengths past the end.
        #[test]
        fn prop_skip_agrees_with_decode_on_arbitrary_bytes(
            tag in prop_oneof![0u8..10, 0x40u8..0x4A, 0x80u8..0x8A, 0xC0u8..0xCA, any::<u8>()],
            rest in proptest::collection::vec(arb_wire_byte(), 0..40),
            ctx in arb_ctx(),
        ) {
            let bytes = [&[tag][..], &rest[..]].concat();
            prop_assert_eq!(skipped(&bytes, ctx), decoded(&bytes, ctx));
        }

        /// Re-coding an entry from one context to another writes the
        /// reference encoding against the second, and both contexts end
        /// where the reference leaves them.
        #[test]
        fn prop_recode_writes_the_reference_encoding(
            d in arb_determinant(),
            epoch in arb_u64(),
            (from, to) in (arb_ctx(), arb_ctx()),
        ) {
            let (bytes, from_after) = reference(&d, epoch, from);
            let (want, to_after) = reference(&d, epoch, to);
            let (mut f, mut t, mut w) = (from, to, ByteWriter::new());
            Determinant::recode_wire(&mut WireCursor::new(&bytes), &mut f, &mut t, &mut w).unwrap();
            prop_assert_eq!(w.as_slice(), &want[..]);
            prop_assert_eq!((f, t), (from_after, to_after));
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
