//! The causal log (§4.3) and its manager.
//!
//! Every task keeps:
//! - a **main-thread log** of determinants (order, timers, timestamps, RPCs,
//!   external responses, …);
//! - one **output-channel log** per output channel, recording the network
//!   thread's nondeterministic flush decisions ([`Determinant::BufferFlush`]);
//! - a **replicated store** of upstream tasks' logs, received piggybacked on
//!   input buffers.
//!
//! Whenever a buffer is dispatched downstream, a **delta** piggybacks on it,
//! containing all entries of the main log and the output-queue logs appended
//! since the last dispatch *on that channel*, plus — when the determinant
//! sharing depth (DSD) exceeds one — the deltas of replicated upstream logs
//! within range. The downstream task appends these to its replicated store
//! *before* the buffer's records affect its state, preserving
//! `Depend(e) ⊆ Log(e)` (the always-no-orphans property, Eq. 2 of the paper).
//!
//! Entries carry dense per-log sequence numbers, which makes delta ingestion
//! idempotent (diamond topologies deliver the same determinants along several
//! paths) and lets recovery merge partial replicas from multiple downstream
//! survivors by simply taking the longest.

use crate::determinant::{Determinant, WireCtx, WireCursor, WIRE_ABS};
use crate::{ChannelId, EpochId, TaskId};
use bytes::Bytes;
use clonos_storage::codec::{ByteWriter, CodecError};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Log identifier within a task: the main-thread log or an output-channel log.
pub const MAIN_LOG: u32 = 0;

#[inline]
pub fn channel_log(ch: ChannelId) -> u32 {
    ch + 1
}

/// Arena chunks are sealed (frozen into shareable [`Bytes`]) once the active
/// tail grows past this size; an entry is always encoded entirely within one
/// chunk so delta collection can bulk-copy whole ranges.
const ARENA_CHUNK_BYTES: usize = 4096;

/// Per-entry metadata in an [`EpochLog`]'s arena index. `index[i]` describes
/// the entry with sequence number `base_seq + i`.
#[derive(Clone, Copy, Debug)]
struct IndexEntry {
    epoch: EpochId,
    /// Logical arena offset of the entry's first byte (its tag byte).
    /// Logical offsets are monotone over the log's lifetime; truncation only
    /// retires dead prefixes, it never renumbers.
    offset: u64,
    /// Width of the entry in the arena.
    len: u32,
    /// The determinant's kind (its wire tag without flags).
    kind: u8,
}

impl IndexEntry {
    /// `Timer`, `Rpc` and `Timestamp` move the context's step fields: only
    /// their bytes must be read to step past them.
    #[inline]
    fn has_steps(&self) -> bool {
        matches!(self.kind, 1..=3)
    }
}

/// A sealed arena chunk: immutable encoded entries starting at logical
/// offset `start`.
#[derive(Clone, Debug)]
struct Chunk {
    start: u64,
    bytes: Bytes,
}

impl Chunk {
    #[inline]
    fn end(&self) -> u64 {
        self.start + self.bytes.len() as u64
    }
}

/// Arena bytes were coded by this process or accepted on ingest by
/// [`Determinant::skip_wire`], which accepts exactly what
/// [`Determinant::decode_wire`] accepts: failing to read them back is memory
/// corruption, not a protocol fault to escalate.
fn arena<T>(read: Result<T, CodecError>) -> T {
    // clonos-lint: allow(recovery-panic, reason = "arena bytes were encoded by this process or accepted by Determinant::skip_wire on ingest, which accepts exactly what decode_wire accepts; a decode failure is memory corruption, not a protocol fault to escalate")
    read.expect("arena entry decodes")
}

/// An epoch-segmented, sequence-numbered determinant log.
///
/// Entries are appended with nondecreasing epochs; truncation drops whole
/// epoch prefixes (safe once a checkpoint made them stable).
///
/// Storage is an **encoded arena**: `append` codes the entry in the delta
/// wire format ([`Determinant::encode_wire`]) against the entry before it —
/// the epoch only when it changes, `Timestamp.ts` and step offsets as deltas
/// — into an append-only chunked byte arena, and keeps a per-entry
/// [`IndexEntry`] carrying the epoch, offset, length and kind. Everything
/// else derives from the index and two contexts (`base_ctx` before the front entry, `tail_ctx`
/// after the last):
///
/// - delta collection re-codes a span's first entry or two and bulk-copies
///   the rest in one range instead of re-encoding each determinant per
///   output channel;
/// - `encoded_bytes` accounting sums indexed lengths (no re-encode);
/// - truncation pops index entries and retires whole dead chunks; the new
///   front starts a higher epoch, so its context restarted and `base_ctx`
///   needs no byte of the popped entries;
/// - `get`/`since` decode on demand from `base_ctx` (cold paths: tests,
///   snapshots, replay installation).
///
/// Invariants: index offsets are strictly increasing and contiguous
/// (`index[i].offset + index[i].len == index[i+1].offset`); an entry never
/// spans chunks; live bytes are covered by `sealed` chunks plus the `active`
/// tail, with `active` starting at `active_start == sealed.back().end()`
/// (when sealed chunks exist); an empty log has `base_ctx == tail_ctx`.
#[derive(Clone, Debug, Default)]
pub struct EpochLog {
    base_seq: u64,
    index: VecDeque<IndexEntry>,
    sealed: VecDeque<Chunk>,
    active: ByteWriter,
    /// Logical offset of `active`'s first byte.
    active_start: u64,
    encoded_bytes: u64,
    /// The context the front entry is coded against: what the truncated
    /// entries before it left.
    base_ctx: WireCtx,
    /// The context after the last entry, which the next one is coded against.
    tail_ctx: WireCtx,
}

impl EpochLog {
    pub fn new() -> EpochLog {
        EpochLog::default()
    }

    /// Sequence number the next appended entry will get.
    #[inline]
    pub fn next_seq(&self) -> u64 {
        self.base_seq + self.index.len() as u64
    }

    #[inline]
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Arena bytes of resident determinants (determinant-pool accounting),
    /// each entry as coded against the one before it.
    pub fn encoded_bytes(&self) -> u64 {
        self.encoded_bytes
    }

    /// Logical offset one past the last arena byte.
    #[inline]
    fn next_offset(&self) -> u64 {
        self.active_start + self.active.len() as u64
    }

    pub fn append(&mut self, epoch: EpochId, det: &Determinant) -> u64 {
        if let Some(last) = self.index.back() {
            debug_assert!(epoch >= last.epoch, "epochs must be nondecreasing");
        }
        self.encode_entry(epoch, det)
    }

    /// `append` without its claim about epochs, which holds for a task's own
    /// log only. A replica does receive entries whose epoch is below their
    /// predecessor's in runs the exactly-once oracle accepts (recoveries
    /// under unaligned barriers: `chaos_sweep_unaligned_clonos_exactly_once`
    /// at 25 seeds), so ingest must take them; truncation copes — it pops a
    /// prefix, such an entry just waits for the ones before it.
    fn encode_entry(&mut self, epoch: EpochId, det: &Determinant) -> u64 {
        self.encode_with(epoch, |ctx, w| det.encode_wire(epoch, ctx, w))
    }

    /// Append the entry `encode` writes against the tail context; it
    /// returns the entry's kind.
    #[inline]
    fn encode_with(
        &mut self,
        epoch: EpochId,
        encode: impl FnOnce(&mut WireCtx, &mut ByteWriter) -> u8,
    ) -> u64 {
        let seq = self.next_seq();
        if self.active.len() >= ARENA_CHUNK_BYTES {
            self.seal_active();
        }
        let offset = self.next_offset();
        let kind = encode(&mut self.tail_ctx, &mut self.active);
        let len = (self.next_offset() - offset) as u32;
        self.push_entry(IndexEntry { epoch, offset, len, kind });
        seq
    }

    #[inline]
    fn push_entry(&mut self, e: IndexEntry) {
        self.encoded_bytes += e.len as u64;
        self.index.push_back(e);
    }

    fn seal_active(&mut self) {
        if self.active.is_empty() {
            return;
        }
        let frozen = self.active.take_frozen();
        let start = self.active_start;
        self.active_start += frozen.len() as u64;
        self.sealed.push_back(Chunk { start, bytes: frozen });
    }

    /// The arena bytes of one indexed entry.
    fn entry_bytes(&self, e: &IndexEntry) -> &[u8] {
        let len = e.len as usize;
        if e.offset >= self.active_start {
            let s = (e.offset - self.active_start) as usize;
            &self.active.as_slice()[s..s + len]
        } else {
            let i = self.sealed.partition_point(|c| c.end() <= e.offset);
            let c = &self.sealed[i];
            let s = (e.offset - c.start) as usize;
            &c.bytes[s..s + len]
        }
    }

    /// Decode entry `e`, coded against `ctx`, which advances past it.
    fn read_entry(&self, e: &IndexEntry, ctx: &mut WireCtx) -> Determinant {
        arena(Determinant::decode_wire(&mut WireCursor::new(self.entry_bytes(e)), ctx)).1
    }

    /// Advance `ctx` past entry `e`, building it only if it moves step
    /// fields.
    fn step_past(&self, e: &IndexEntry, ctx: &mut WireCtx) {
        if e.has_steps() {
            self.read_entry(e, ctx);
        } else {
            ctx.enter(e.epoch);
        }
    }

    /// Entry at absolute sequence number `seq`, if resident (decoded from
    /// the arena).
    pub fn get(&self, seq: u64) -> Option<(EpochId, Determinant)> {
        let (at, epoch, det) = self.since(seq).next()?;
        (at == seq).then_some((epoch, det))
    }

    /// Iterate entries with `seq >= from`, yielding `(seq, epoch, det)`
    /// decoded from the arena (the entries before `from` are stepped past
    /// for the context they leave).
    pub fn since(&self, from: u64) -> impl Iterator<Item = (u64, EpochId, Determinant)> + '_ {
        let mut ctx = self.base_ctx;
        (self.base_seq..).zip(&self.index).filter_map(move |(seq, e)| {
            if seq < from {
                self.step_past(e, &mut ctx);
                return None;
            }
            Some((seq, e.epoch, self.read_entry(e, &mut ctx)))
        })
    }

    /// Drop all entries belonging to epochs `<= epoch`. Returns dropped count.
    pub fn truncate_through(&mut self, epoch: EpochId) -> usize {
        let mut dropped = 0;
        let mut last = None;
        while let Some(&front) = self.index.front() {
            if front.epoch > epoch {
                break;
            }
            self.index.pop_front();
            self.encoded_bytes -= front.len as u64;
            self.base_seq += 1;
            dropped += 1;
            last = Some(front.epoch);
        }
        // The entry after the last one popped has a higher epoch, so it was
        // coded against that epoch's restart, not against the context the
        // popped entries left: no byte of theirs is read.
        if self.index.is_empty() {
            self.base_ctx = self.tail_ctx;
        } else if let Some(last) = last {
            self.base_ctx = WireCtx::of_epoch(last);
        }
        self.retire_dead_chunks();
        dropped
    }

    /// Release arena chunks that hold no live entry. Bytes of truncated
    /// entries inside the active tail (or a partially-live front chunk)
    /// remain as slack until the chunk itself dies.
    fn retire_dead_chunks(&mut self) {
        match self.index.front() {
            None => {
                // No live entries: the whole arena is dead. Restart the
                // active buffer at the current logical offset so numbering
                // stays monotone.
                self.sealed.clear();
                self.active_start = self.next_offset();
                self.active.clear();
            }
            Some(front) => {
                while let Some(c) = self.sealed.front() {
                    if c.end() > front.offset {
                        break;
                    }
                    self.sealed.pop_front();
                }
            }
        }
    }

    /// Apply the sequence rules to an incoming span of `count > 0` entries
    /// numbered from `from`, once for the whole span, and return how many of
    /// them — a prefix — this log already holds or has truncated (duplicate
    /// delivery along a second path of a diamond). The rest of the span is
    /// contiguous with the log afterwards.
    ///
    /// An *empty* log resynchronizes its base to the incoming sequence (the
    /// pre-gap entries are stable and were truncated everywhere).
    fn admit_span(&mut self, from: u64, count: u64, stats: &mut CausalLogStats) -> u64 {
        if self.is_empty() && from > self.base_seq {
            self.base_seq = from;
        }
        let next = self.next_seq();
        if from > next {
            // Forward gap. Two legitimate causes: (a) the sender truncated
            // entries this replica still holds (checkpoint-complete
            // notifications race across tasks), or (b) the sender is a
            // recovered task whose *forwarded* upstream-log cursors were
            // repackaged by replay pacing (DSD > 1). Either way the invariant
            // is safe: dependence on an event only ever arrives together
            // with its determinant (piggybacked on the same buffer), so a
            // receiver that never got entries `next..from` cannot depend on
            // them — Depend(e) ⊆ Log(e) is preserved. Resync: drop the stale
            // resident prefix (it remains contiguous elsewhere or is
            // checkpoint-stable) and continue from the incoming sequence.
            self.encoded_bytes = 0;
            self.index.clear();
            self.retire_dead_chunks();
            self.base_seq = from;
            self.base_ctx = self.tail_ctx;
            stats.gap_resyncs += 1;
            return 0;
        }
        count.min(next - from)
    }

    /// Ingest one delta span: `count` logical entries numbered from `from`,
    /// wire-encoded in `span`. A span this log holds whole is skipped by its
    /// length, unread. Otherwise the held prefix is walked without touching
    /// the log, and the rest is appended as bytes: while the span's context
    /// and the arena's tail differ — the first new entry or two — an entry
    /// is re-coded against the tail ([`Determinant::recode_wire`]); once
    /// they agree, entries are copied as they are, since an entry coded
    /// against its predecessor means the same on both sides. No determinant
    /// is built. Returns the number appended.
    ///
    /// On `Err` the entries read before the fault stay appended and the log
    /// is consistent (every indexed entry has its bytes).
    fn ingest_span(
        &mut self,
        from: u64,
        count: u64,
        span: &[u8],
        stats: &mut CausalLogStats,
    ) -> Result<u64, CodecError> {
        let held = self.admit_span(from, count, stats);
        if held == count {
            stats.held_spans_skipped += 1;
            return Ok(0);
        }
        let r = &mut WireCursor::new(span);
        // The span's own context: zero before its first item.
        let mut wire = WireCtx::default();
        for _ in 0..held {
            skip_item(r, &mut wire)?;
        }
        // The first `pending` bytes at `batch` belong to entries that are
        // indexed but not copied yet: consecutive entries go into the arena
        // with one copy, cut where `append` would have sealed a chunk.
        let mut batch = *r;
        let mut pending = 0usize;
        // Whether the span's context and the tail agree; once they do, they
        // stay in step, and the tail is moved along when the loop leaves.
        let mut synced = wire == self.tail_ctx;
        let mut logical = held;
        let result = loop {
            if logical >= count {
                break match r.remaining() {
                    0 => Ok(count - held),
                    _ => Err(CodecError::Inconsistent { context: "delta span byte length" }),
                };
            }
            if self.active.len() + pending >= ARENA_CHUNK_BYTES {
                self.active.put_raw(batch.peek(pending));
                self.seal_active();
                (batch, pending) = (*r, 0);
            }
            let (mut at, mut before) = (*r, wire);
            let kind = match skip_item(r, &mut wire) {
                Ok(kind) => kind,
                Err(e) => {
                    wire = before;
                    break Err(e);
                }
            };
            if synced {
                let len = at.remaining() - r.remaining();
                let offset = self.next_offset() + pending as u64;
                self.push_entry(IndexEntry { epoch: wire.epoch, offset, len: len as u32, kind });
                pending += len;
            } else {
                self.active.put_raw(batch.peek(pending));
                (batch, pending) = (*r, 0);
                let offset = self.next_offset();
                let recoded = Determinant::recode_wire(&mut at, &mut before, &mut self.tail_ctx, &mut self.active);
                if let Err(e) = recoded {
                    break Err(e);
                }
                let len = (self.next_offset() - offset) as u32;
                self.push_entry(IndexEntry { epoch: wire.epoch, offset, len, kind });
                synced = wire == self.tail_ctx;
            }
            logical += 1;
        };
        self.active.put_raw(batch.peek(pending));
        if synced {
            self.tail_ctx = wire;
        }
        result
    }

    /// Full copy of resident entries, `(seq, epoch, det)` triplets.
    pub fn snapshot(&self) -> Vec<(u64, EpochId, Determinant)> {
        self.since(self.base_seq).collect()
    }

    /// Append the wire span of entries `seq >= from` to `w`. On the wire
    /// each item is coded against the one before it and the first against
    /// the zero context; `at` is the arena's context before `from`. While
    /// the two contexts differ — the span's first entry or two — an entry is
    /// re-coded; once they agree, the rest of the span means the same on the
    /// wire as in the arena and is copied out of it as one byte range.
    fn encode_span(&self, from: u64, mut at: WireCtx, w: &mut ByteWriter, stats: &mut CausalLogStats) {
        let mut i = from.saturating_sub(self.base_seq) as usize;
        let mut wire = WireCtx::default();
        while let Some(e) = self.index.get(i).filter(|_| wire != at) {
            arena(Determinant::recode_wire(&mut WireCursor::new(self.entry_bytes(e)), &mut at, &mut wire, w));
            i += 1;
        }
        if let Some(e) = self.index.get(i) {
            let (a, b) = (e.offset, self.next_offset());
            self.copy_arena_range(a, b, w);
            stats.delta_bytes_memcpy += b - a;
        }
    }

    /// Copy the logical arena range `[a, b)` into `w`, chunk by chunk.
    fn copy_arena_range(&self, mut a: u64, b: u64, w: &mut ByteWriter) {
        // A range of the newest entries usually sits wholly in the active
        // tail: no chunk search for it.
        if a < self.active_start {
            let mut ci = self.sealed.partition_point(|c| c.end() <= a);
            while let Some(c) = self.sealed.get(ci).filter(|_| a < b) {
                let end = c.end().min(b);
                w.put_raw(&c.bytes[(a - c.start) as usize..(end - c.start) as usize]);
                a = end;
                ci += 1;
            }
        }
        if a < b {
            debug_assert!(a >= self.active_start, "live range below active tail");
            let s = (a - self.active_start) as usize;
            let e = (b - self.active_start) as usize;
            w.put_raw(&self.active.as_slice()[s..e]);
        }
    }
}

/// Read and validate the next entry of a span, coded against `ctx`, which
/// advances past it; returns its kind.
#[inline]
fn skip_item(r: &mut WireCursor<'_>, ctx: &mut WireCtx) -> Result<u8, CodecError> {
    let kind = ctx.read_head(r)?;
    Determinant::skip_wire(kind, r, ctx)?;
    Ok(kind & !WIRE_ABS)
}

/// Errors during delta exchange.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaError {
    Codec(CodecError),
}

impl From<CodecError> for DeltaError {
    fn from(e: CodecError) -> Self {
        DeltaError::Codec(e)
    }
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::Codec(e) => write!(f, "delta codec error: {e}"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// The full set of logs describing one task: main + per-output-channel.
#[derive(Clone, Debug, Default)]
pub struct TaskLog {
    pub main: EpochLog,
    pub channels: Vec<EpochLog>,
}

impl TaskLog {
    fn new(num_channels: usize) -> TaskLog {
        TaskLog { main: EpochLog::new(), channels: vec![EpochLog::new(); num_channels] }
    }

    fn log_mut(&mut self, id: u32) -> &mut EpochLog {
        if id == MAIN_LOG {
            &mut self.main
        } else {
            let idx = (id - 1) as usize;
            if idx >= self.channels.len() {
                self.channels.resize_with(idx + 1, EpochLog::new);
            }
            &mut self.channels[idx]
        }
    }

    /// Grow the table to `nlogs` logs (a sender's `nlogs`: a replica keeps
    /// its origin's shape, logs with nothing shipped yet included).
    fn grow_to(&mut self, nlogs: usize) {
        if nlogs > self.num_logs() {
            self.channels.resize_with(nlogs - 1, EpochLog::new);
        }
    }

    /// Every log with its id: main first, then the channels in order.
    fn logs(&self) -> impl Iterator<Item = (u32, &EpochLog)> + '_ {
        let channels = self.channels.iter().zip(0..).map(|(log, c)| (channel_log(c), log));
        std::iter::once((MAIN_LOG, &self.main)).chain(channels)
    }

    fn num_logs(&self) -> usize {
        1 + self.channels.len()
    }

    pub fn encoded_bytes(&self) -> u64 {
        self.main.encoded_bytes() + self.channels.iter().map(|c| c.encoded_bytes()).sum::<u64>()
    }

    pub fn truncate_through(&mut self, epoch: EpochId) {
        self.main.truncate_through(epoch);
        for c in &mut self.channels {
            c.truncate_through(epoch);
        }
    }
}

/// One log inside a [`TaskLogSnapshot`]: `(log_id, base_seq, entries)`.
pub type SnapshotLog = (u32, u64, Vec<(EpochId, Determinant)>);

/// A portable full copy of a task's logs, exchanged during recovery
/// (step 3 of the protocol: "Retrieve Determinant Log").
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TaskLogSnapshot {
    pub logs: Vec<SnapshotLog>,
}

impl TaskLogSnapshot {
    pub fn is_empty(&self) -> bool {
        self.logs.iter().all(|(_, _, es)| es.is_empty())
    }

    /// Merge another replica in: per log, keep whichever copy extends
    /// further. Correct because all replicas of a log are prefixes of the
    /// same sequence (FIFO channels + dense sequence numbers).
    pub fn merge(&mut self, other: &TaskLogSnapshot) {
        for (id, obase, oentries) in &other.logs {
            match self.logs.iter_mut().find(|(i, _, _)| i == id) {
                None => self.logs.push((*id, *obase, oentries.clone())),
                Some((_, base, entries)) => {
                    let my_end = *base + entries.len() as u64;
                    let their_end = *obase + oentries.len() as u64;
                    if their_end > my_end {
                        *base = *obase;
                        *entries = oentries.clone();
                    }
                }
            }
        }
    }

    pub fn total_entries(&self) -> usize {
        self.logs.iter().map(|(_, _, e)| e.len()).sum()
    }

    /// Look up one log's `(base_seq, entries)` by id.
    pub fn for_log(&self, id: u32) -> Option<(u64, &[(EpochId, Determinant)])> {
        self.logs.iter().find(|(i, _, _)| *i == id).map(|(_, b, e)| (*b, e.as_slice()))
    }
}

/// Where an output channel's next delta starts in one log: the sequence
/// number, and the log's context before it — its tail when the channel last
/// shipped (zero until the log first ships; collection clamps to the log's
/// base and its base context).
#[derive(Clone, Copy, Debug, Default)]
struct ShipCursor {
    seq: u64,
    ctx: WireCtx,
}

/// Delta cursors of one origin's logs: `cursors[channel][log id]`.
type ShipCursors = Vec<Vec<ShipCursor>>;

/// Does `log` hold an entry past `cursor`?
fn fresh(log: &EpochLog, cursor: &ShipCursor) -> bool {
    cursor.seq.max(log.base_seq()) < log.next_seq()
}

/// Does any of `logs` hold an entry past its cursor in `cursors`? Grows
/// `cursors` to one per log first.
fn has_fresh(logs: &TaskLog, cursors: &mut Vec<ShipCursor>) -> bool {
    if cursors.len() < logs.num_logs() {
        cursors.resize(logs.num_logs(), ShipCursor::default());
    }
    logs.logs().zip(cursors.iter()).any(|((_, log), cursor)| fresh(log, cursor))
}

/// A replicated upstream log held at a downstream task.
#[derive(Clone, Debug)]
struct Replica {
    /// Minimum hop distance from the origin task to the holder.
    hops: u32,
    log: TaskLog,
    cursors: ShipCursors,
}

/// Encoded piggyback delta (attached to every outgoing buffer).
pub type LogDelta = Bytes;

/// Statistics for overhead accounting (§7.3, §7.5, E9).
#[derive(Clone, Copy, Debug, Default)]
pub struct CausalLogStats {
    pub determinants_recorded: u64,
    pub delta_bytes_shipped: u64,
    pub delta_entries_shipped: u64,
    pub deltas_ingested: u64,
    pub entries_ingested: u64,
    /// Determinants this task serialized into its own log arenas: each
    /// recorded or replayed entry exactly once, at append. Ingested entries
    /// are not encoded again — replica arenas take their wire bytes; a
    /// span's first entry or two get a new tag byte and step deltas
    /// against the replica's tail, their fields are not built.
    pub entries_encoded: u64,
    /// Delta payload bytes bulk-copied out of log arenas (as opposed to the
    /// freshly written framing and re-coded first entries).
    pub delta_bytes_memcpy: u64,
    /// Times a replica dropped its resident prefix to resynchronize over a
    /// forward gap in an incoming span (see `EpochLog::admit_span`).
    pub gap_resyncs: u64,
    /// Incoming spans the replica already held whole (a second path of a
    /// diamond, a re-ship after recovery), skipped by their byte length.
    pub held_spans_skipped: u64,
    /// Forwarded origins with something new that a delta left out because
    /// its channel had carried no record in the current epoch.
    pub forwards_withheld: u64,
}

impl CausalLogStats {
    /// Fold another task's log counters into this aggregate: every field sums.
    pub fn absorb(&mut self, o: &CausalLogStats) {
        self.determinants_recorded += o.determinants_recorded;
        self.delta_bytes_shipped += o.delta_bytes_shipped;
        self.delta_entries_shipped += o.delta_entries_shipped;
        self.deltas_ingested += o.deltas_ingested;
        self.entries_ingested += o.entries_ingested;
        self.entries_encoded += o.entries_encoded;
        self.delta_bytes_memcpy += o.delta_bytes_memcpy;
        self.gap_resyncs += o.gap_resyncs;
        self.held_spans_skipped += o.held_spans_skipped;
        self.forwards_withheld += o.forwards_withheld;
    }
}

/// Replay source installed on a recovering task: the merged snapshot of its
/// predecessor's logs, consumed as the task re-executes.
#[derive(Debug, Default)]
struct ReplaySource {
    main: VecDeque<(EpochId, Determinant)>,
    channels: BTreeMap<ChannelId, VecDeque<(EpochId, Determinant)>>,
}

/// Per-task causal log manager: owns the task's logs, the replicated store,
/// per-output-channel delta cursors, and replay state during recovery.
#[derive(Debug)]
pub struct CausalLogManager {
    task: TaskId,
    dsd: u32,
    epoch: EpochId,
    own: TaskLog,
    replicated: BTreeMap<TaskId, Replica>,
    own_cursors: ShipCursors,
    /// Per output channel: has it carried a record this epoch? Only such a
    /// channel forwards replicated logs (see `collect_delta`).
    carried_records: Vec<bool>,
    replay: Option<ReplaySource>,
    /// Scratch encoder for [`CausalLogManager::collect_delta`]: one delta is
    /// built per outgoing buffer, so the writer is reused and only the
    /// frozen copy is allocated.
    delta_scratch: ByteWriter,
    pub stats: CausalLogStats,
}

impl CausalLogManager {
    pub fn new(task: TaskId, num_out_channels: usize, dsd: u32) -> CausalLogManager {
        CausalLogManager {
            task,
            dsd,
            epoch: 0,
            own: TaskLog::new(num_out_channels),
            replicated: BTreeMap::new(),
            own_cursors: vec![Vec::new(); num_out_channels],
            carried_records: vec![false; num_out_channels],
            replay: None,
            delta_scratch: ByteWriter::new(),
            stats: CausalLogStats::default(),
        }
    }

    pub fn task(&self) -> TaskId {
        self.task
    }

    pub fn dsd(&self) -> u32 {
        self.dsd
    }

    pub fn epoch(&self) -> EpochId {
        self.epoch
    }

    /// Advance to a new epoch (a checkpoint barrier passed through the task).
    /// No output channel has carried a record in the new epoch yet.
    pub fn set_epoch(&mut self, epoch: EpochId) {
        debug_assert!(epoch >= self.epoch);
        self.epoch = epoch;
        self.carried_records.fill(false);
    }

    /// Whether causal logging is active at all (DSD = 0 disables it — the
    /// at-least-once configuration of §5.4).
    pub fn enabled(&self) -> bool {
        self.dsd > 0
    }

    // ----- recording ---------------------------------------------------

    /// Append a main-thread determinant, encoded from a borrow: a caller
    /// that keeps the determinant's payload passes it by reference.
    pub fn record(&mut self, det: impl Borrow<Determinant>) {
        let det = det.borrow();
        debug_assert!(det.is_main_thread());
        self.record_with(|main, epoch| main.append(epoch, det));
    }

    /// [`CausalLogManager::record`] of `Determinant::External { payload }`
    /// from the borrowed answer, which the caller keeps.
    pub fn record_external(&mut self, payload: &[u8]) {
        self.record_with(|main, epoch| {
            main.encode_with(epoch, |ctx, w| Determinant::encode_external_wire(payload, epoch, ctx, w))
        });
    }

    fn record_with(&mut self, append: impl FnOnce(&mut EpochLog, EpochId) -> u64) {
        if !self.enabled() {
            return;
        }
        self.stats.determinants_recorded += 1;
        self.stats.entries_encoded += 1;
        append(&mut self.own.main, self.epoch);
    }

    /// Append an output-queue flush determinant for `channel`.
    pub fn record_flush(&mut self, channel: ChannelId, size: u32, records: u32) {
        if !self.enabled() {
            return;
        }
        self.stats.determinants_recorded += 1;
        self.stats.entries_encoded += 1;
        self.own.log_mut(channel_log(channel)).append(self.epoch, &Determinant::BufferFlush {
            size,
            records,
        });
    }

    /// Resident determinant bytes (own + replicated) — §7.5 memory metric.
    pub fn resident_bytes(&self) -> u64 {
        self.own.encoded_bytes()
            + self.replicated.values().map(|r| r.log.encoded_bytes()).sum::<u64>()
    }

    // ----- delta exchange ----------------------------------------------

    /// The buffer about to be cut on `channel` carries records: from now to
    /// the end of the epoch the channel forwards replicated logs.
    pub fn mark_records(&mut self, channel: ChannelId) {
        self.carried_records[channel as usize] = true;
    }

    /// Collect the piggyback delta for an outgoing buffer on `channel`,
    /// advancing that channel's cursors. Includes this task's own logs
    /// (orig hops 0) and, once the channel has carried a record in the
    /// current epoch ([`Self::mark_records`]), any replicated logs with
    /// `hops + 1 <= dsd`; an origin with nothing new is left out, and a delta
    /// with nothing new is empty.
    ///
    /// A receiver depends on a forwarded determinant only through records,
    /// so a channel that carried none this epoch (its barrier or watermark
    /// buffers) ships only the sender's own logs; the withheld entries stay
    /// past the cursor and ride the channel's next record-carrying buffer.
    pub fn collect_delta(&mut self, channel: ChannelId) -> LogDelta {
        if !self.enabled() {
            return Bytes::new();
        }
        let ch = channel as usize;
        debug_assert!(ch < self.own_cursors.len());
        let carried_records = self.carried_records[ch];
        let dsd = self.dsd;
        // Replicated upstream logs still within sharing depth are forwarded.
        let forwarded = |r: &Replica| dsd > 1 && r.hops < dsd;
        let w = &mut self.delta_scratch;
        w.clear();
        // Own logs always ship (receiver is 1 hop from us).
        Self::encode_origin_delta(w, self.task, 0, &self.own, &mut self.own_cursors[ch], &mut self.stats);
        for (&origin, replica) in self.replicated.iter_mut().filter(|(_, r)| forwarded(r)) {
            let cursors = &mut replica.cursors[ch];
            if carried_records {
                Self::encode_origin_delta(w, origin, replica.hops, &replica.log, cursors, &mut self.stats);
            } else if has_fresh(&replica.log, cursors) {
                self.stats.forwards_withheld += 1;
            }
        }
        if w.is_empty() {
            return Bytes::new();
        }
        let delta = w.take_frozen();
        self.stats.delta_bytes_shipped += delta.len() as u64;
        delta
    }

    /// Encode one origin's delta: nothing when none of its logs has an entry
    /// past the channel's cursor; otherwise `origin, hops, nlogs`, a presence
    /// bitmap of `nlogs` bits, and one span per present log — `from, count,
    /// byte_len` and [`EpochLog::encode_span`]'s bytes, whose length is
    /// patched in front of them once they are written.
    fn encode_origin_delta(
        w: &mut ByteWriter,
        origin: TaskId,
        hops_at_sender: u32,
        logs: &TaskLog,
        cursors: &mut Vec<ShipCursor>,
        stats: &mut CausalLogStats,
    ) {
        if !has_fresh(logs, cursors) {
            return;
        }
        let nlogs = logs.num_logs();
        w.put_varint(origin);
        w.put_varint(hops_at_sender as u64);
        w.put_varint(nlogs as u64);
        let mut bits = 0u8;
        for (i, ((_, log), cursor)) in logs.logs().zip(cursors.iter()).enumerate() {
            bits |= (fresh(log, cursor) as u8) << (i % 8);
            if i % 8 == 7 || i + 1 == nlogs {
                w.put_u8(bits);
                bits = 0;
            }
        }
        for ((_, log), cursor) in logs.logs().zip(cursors.iter_mut()) {
            if !fresh(log, cursor) {
                continue;
            }
            let (from, next) = (cursor.seq.max(log.base_seq()), log.next_seq());
            let at = if cursor.seq >= log.base_seq() { cursor.ctx } else { log.base_ctx };
            w.put_varint(from);
            w.put_varint(next - from);
            let byte_len = w.begin_varint_len();
            log.encode_span(from, at, w, stats);
            w.end_varint_len(byte_len);
            *cursor = ShipCursor { seq: next, ctx: log.tail_ctx };
            stats.delta_entries_shipped += next - from;
        }
    }

    /// Ingest a delta received piggybacked on an input buffer. Must be called
    /// *before* the buffer's records are processed.
    ///
    /// The delta is input from outside the task: anything malformed is an
    /// `Err`, never a panic, an unbounded loop or an allocation its bytes do
    /// not pay for (a log-table slot costs a bitmap bit). Work is per span,
    /// not per entry ([`EpochLog::ingest_span`]).
    pub fn ingest_delta(&mut self, delta: &[u8]) -> Result<u64, DeltaError> {
        if !self.enabled() || delta.is_empty() {
            return Ok(0);
        }
        let r = &mut WireCursor::new(delta);
        let mut added = 0u64;
        while r.remaining() > 0 {
            let origin = r.varint()?;
            let hops = (r.varint()? as u32).saturating_add(1);
            let nlogs = r.varint()?;
            // The bitmap is taken before `nlogs` sizes anything.
            let bitmap = r.take(usize::try_from(nlogs.div_ceil(8)).unwrap_or(usize::MAX))?;
            if nlogs % 8 != 0 && bitmap.last().is_some_and(|&last| last >> (nlogs % 8) != 0) {
                return Err(CodecError::Inconsistent { context: "delta presence bit past nlogs" }.into());
            }
            let num_channels = self.own_cursors.len();
            let replica = self.replicated.entry(origin).or_insert_with(|| Replica {
                hops,
                log: TaskLog::default(),
                cursors: vec![Vec::new(); num_channels],
            });
            replica.hops = replica.hops.min(hops);
            replica.log.grow_to(nlogs as usize);
            for (byte_at, &byte) in bitmap.iter().enumerate() {
                let mut bits = byte;
                while bits != 0 {
                    let id = byte_at * 8 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let from = r.varint()?;
                    let count = r.varint()?;
                    let byte_len = r.varint()?;
                    let span = r.take(usize::try_from(byte_len).unwrap_or(usize::MAX))?;
                    if count == 0 {
                        return Err(CodecError::Inconsistent { context: "empty delta span" }.into());
                    }
                    if from.checked_add(count).is_none() {
                        return Err(CodecError::VarintOverflow.into());
                    }
                    let log = replica.log.log_mut(id as u32);
                    added += log.ingest_span(from, count, span, &mut self.stats)?;
                }
            }
        }
        self.stats.deltas_ingested += 1;
        self.stats.entries_ingested += added;
        Ok(added)
    }

    // ----- truncation ----------------------------------------------------

    /// A checkpoint completed: every epoch `<= epoch` is stable; truncate
    /// own and replicated logs (§4.3 "Truncating Causal Logs").
    pub fn truncate_through(&mut self, epoch: EpochId) {
        self.own.truncate_through(epoch);
        for replica in self.replicated.values_mut() {
            replica.log.truncate_through(epoch);
        }
    }

    // ----- recovery ------------------------------------------------------

    /// Export this task's replica of `origin`'s logs (recovery step 3 runs
    /// this at each downstream survivor).
    pub fn export_replica(&self, origin: TaskId) -> Option<TaskLogSnapshot> {
        let replica = self.replicated.get(&origin)?;
        Some(Self::snapshot_of(&replica.log))
    }

    /// Export this task's own logs (used when checkpointing the manager and
    /// by tests).
    pub fn own_snapshot(&self) -> TaskLogSnapshot {
        Self::snapshot_of(&self.own)
    }

    fn snapshot_of(logs: &TaskLog) -> TaskLogSnapshot {
        let mut snap = TaskLogSnapshot::default();
        for (id, log) in logs.logs() {
            snap.logs.push((
                id,
                log.base_seq(),
                log.since(log.base_seq()).map(|(_, e, d)| (e, d)).collect(),
            ));
        }
        snap
    }

    /// Install a merged predecessor snapshot and enter replay mode.
    ///
    /// The manager's own logs restart at the snapshot's base sequence
    /// numbers so that rebuilt entries receive identical sequence numbers —
    /// downstream replicas then dedupe re-shipped deltas for free, and
    /// rebuilt buffers carry byte-identical deltas.
    pub fn begin_replay(&mut self, snapshot: TaskLogSnapshot, resume_epoch: EpochId) {
        let mut source = ReplaySource::default();
        self.own = TaskLog::new(self.own_cursors.len());
        // A cursor's context describes the log it shipped from; a task
        // object restarted after an abandoned replay rebuilds a new one, so
        // its channels ship from the base again (receivers skip what they
        // hold).
        for cursors in &mut self.own_cursors {
            cursors.clear();
        }
        for (id, base, mut entries) in snapshot.logs {
            // Entries from epochs before the resume point are stable (their
            // checkpoint completed) and will not be regenerated by replay —
            // drop them, advancing the base sequence to keep numbering
            // aligned with downstream replicas.
            let stale = entries.iter().take_while(|(e, _)| *e < resume_epoch).count();
            entries.drain(..stale);
            let base = base + stale as u64;
            if id == MAIN_LOG {
                source.main = entries.into();
            } else {
                source.channels.insert(id - 1, entries.into());
            }
            // Align our rebuilt log's sequence numbering with the replica's.
            let log = self.own.log_mut(id);
            log.base_seq = base;
        }
        self.epoch = resume_epoch;
        self.replay = Some(source);
        self.check_replay_done(); // an empty snapshot means nothing to replay
    }

    /// Are we replaying (recovery phase of Listing 3)?
    pub fn replaying(&self) -> bool {
        self.replay.as_ref().is_some_and(|r| !r.main.is_empty())
    }

    /// Is channel `ch`'s flush replay still active?
    pub fn replaying_flushes(&self, ch: ChannelId) -> bool {
        self.replay
            .as_ref()
            .and_then(|r| r.channels.get(&ch))
            .is_some_and(|q| !q.is_empty())
    }

    /// Peek the next main-thread determinant to replay.
    pub fn peek_replay(&self) -> Option<&Determinant> {
        self.replay.as_ref()?.main.front().map(|(_, d)| d)
    }

    /// Pop the next main-thread determinant, re-appending it to the rebuilt
    /// own log (Listing 3: `causalLog.append(determinant)` on both paths).
    pub fn pop_replay(&mut self) -> Option<Determinant> {
        let (epoch, det) = self.replay.as_mut()?.main.pop_front()?;
        self.stats.entries_encoded += 1;
        self.own.main.append(epoch, &det);
        self.check_replay_done();
        Some(det)
    }

    /// Peek the next flush determinant for `channel` during replay without
    /// consuming it (the output queue cuts a buffer only once its builder
    /// reaches exactly the logged size).
    pub fn peek_replay_flush(&self, channel: ChannelId) -> Option<(u32, u32)> {
        let q = self.replay.as_ref()?.channels.get(&channel)?;
        match q.front() {
            Some((_, Determinant::BufferFlush { size, records })) => Some((*size, *records)),
            _ => None,
        }
    }

    /// Pop the next flush determinant for `channel` during replay.
    pub fn pop_replay_flush(&mut self, channel: ChannelId) -> Option<(u32, u32)> {
        let replay = self.replay.as_mut()?;
        let q = replay.channels.get_mut(&channel)?;
        let (epoch, det) = q.pop_front()?;
        let (size, records) = match det {
            Determinant::BufferFlush { size, records } => (size, records),
            other => {
                debug_assert!(false, "non-flush determinant in channel log: {other:?}");
                return None;
            }
        };
        self.stats.entries_encoded += 1;
        self.own
            .log_mut(channel_log(channel))
            .append(epoch, &Determinant::BufferFlush { size, records });
        self.check_replay_done();
        Some((size, records))
    }

    fn check_replay_done(&mut self) {
        let done = self
            .replay
            .as_ref()
            .map(|r| r.main.is_empty() && r.channels.values().all(|q| q.is_empty()))
            .unwrap_or(true);
        if done {
            self.replay = None;
        }
    }

    /// True once replay (main and all channels) has been fully consumed.
    pub fn replay_complete(&self) -> bool {
        self.replay.is_none()
    }

    /// Abandon an in-progress replay (§5.4 availability-over-consistency:
    /// the task continues live with fresh nondeterminism, degrading this
    /// incident to at-least-once).
    pub fn abandon_replay(&mut self) {
        self.replay = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: u64) -> Determinant {
        Determinant::Timestamp { ts: v, offset: 0 }
    }

    impl EpochLog {
        /// Ingest one entry with a known sequence number, as a one-entry
        /// span; true if it was appended.
        fn ingest(&mut self, seq: u64, epoch: EpochId, det: Determinant) -> bool {
            let mut w = ByteWriter::new();
            det.encode_wire(epoch, &mut WireCtx::default(), &mut w);
            let mut stats = CausalLogStats::default();
            self.ingest_span(seq, 1, w.as_slice(), &mut stats).unwrap() == 1
        }
    }

    #[test]
    fn epoch_log_append_truncate() {
        let mut log = EpochLog::new();
        assert_eq!(log.append(0, &ts(1)), 0);
        assert_eq!(log.append(0, &ts(2)), 1);
        assert_eq!(log.append(1, &ts(3)), 2);
        assert_eq!(log.append(2, &ts(4)), 3);
        assert_eq!(log.truncate_through(0), 2);
        assert_eq!(log.base_seq(), 2);
        assert_eq!(log.next_seq(), 4);
        assert!(log.get(1).is_none());
        assert_eq!(log.get(2).unwrap().1, ts(3));
        let rest: Vec<_> = log.since(0).map(|(s, _, _)| s).collect();
        assert_eq!(rest, vec![2, 3]);
    }

    #[test]
    fn epoch_log_ingest_idempotent_and_gap_checked() {
        let mut log = EpochLog::new();
        assert!(log.ingest(0, 0, ts(1)));
        assert!(log.ingest(1, 0, ts(2)));
        // Duplicate delivery along a second path: ignored.
        assert!(!log.ingest(0, 0, ts(1)));
        assert!(!log.ingest(1, 0, ts(2)));
        // Forward gap: resync (see `admit_span`) — the stale prefix is
        // dropped and the log continues from the incoming sequence.
        assert!(log.ingest(5, 0, ts(9)));
        assert_eq!(log.base_seq(), 5);
        assert_eq!(log.next_seq(), 6);
        assert_eq!(log.get(5).unwrap().1, ts(9));
    }

    #[test]
    fn empty_log_resyncs_to_incoming_base() {
        let mut log = EpochLog::new();
        // Fresh replica receiving a replayed delta whose earlier entries were
        // truncated (stable): resync.
        assert!(log.ingest(10, 3, ts(1)));
        assert_eq!(log.base_seq(), 10);
        assert_eq!(log.next_seq(), 11);
    }

    #[test]
    fn bytes_accounting_tracks_append_and_truncate() {
        let mut log = EpochLog::new();
        log.append(0, &ts(100));
        log.append(1, &Determinant::External { payload: vec![0u8; 50] });
        let full = log.encoded_bytes();
        assert!(full > 50);
        log.truncate_through(0);
        assert!(log.encoded_bytes() < full);
        log.truncate_through(1);
        assert_eq!(log.encoded_bytes(), 0);
    }

    fn mgr(task: TaskId, channels: usize, dsd: u32) -> CausalLogManager {
        CausalLogManager::new(task, channels, dsd)
    }

    #[test]
    fn delta_ships_only_new_entries() {
        let mut a = mgr(1, 1, 1);
        a.record(ts(10));
        a.record(Determinant::Order { channel: 0 });
        let d1 = a.collect_delta(0);
        a.record(ts(20));
        let d2 = a.collect_delta(0);
        let d3 = a.collect_delta(0); // nothing new

        let mut b = mgr(2, 0, 1);
        assert_eq!(b.ingest_delta(&d1).unwrap(), 2);
        assert_eq!(b.ingest_delta(&d2).unwrap(), 1);
        assert_eq!(b.ingest_delta(&d3).unwrap(), 0);
        let replica = b.export_replica(1).unwrap();
        assert_eq!(replica.total_entries(), 3);
    }

    #[test]
    fn duplicate_delta_ingestion_is_idempotent() {
        let mut a = mgr(1, 2, 1);
        a.record(ts(1));
        let d_ch0 = a.collect_delta(0);
        let d_ch1 = a.collect_delta(1); // same entries, second channel

        let mut b = mgr(2, 0, 1);
        // Diamond: both copies arrive at the same downstream task.
        assert_eq!(b.ingest_delta(&d_ch0).unwrap(), 1);
        assert_eq!(b.ingest_delta(&d_ch1).unwrap(), 0);
    }

    #[test]
    fn flush_determinants_live_in_channel_logs() {
        let mut a = mgr(1, 2, 1);
        a.record_flush(0, 32_768, 100);
        a.record_flush(1, 128, 1);
        a.record_flush(0, 500, 3);
        let snap = a.own_snapshot();
        let (_, ch0) = snap.for_log(channel_log(0)).unwrap();
        let (_, ch1) = snap.for_log(channel_log(1)).unwrap();
        assert_eq!(ch0.len(), 2);
        assert_eq!(ch1.len(), 1);
        let (_, main) = snap.for_log(MAIN_LOG).unwrap();
        assert!(main.is_empty());
    }

    #[test]
    fn dsd1_does_not_forward_upstream_logs() {
        // u -> a -> b with DSD=1: a replicates u's log but must not forward
        // it to b.
        let mut u = mgr(1, 1, 1);
        u.record(ts(5));
        let du = u.collect_delta(0);
        let mut a = mgr(2, 1, 1);
        a.ingest_delta(&du).unwrap();
        a.record(ts(7));
        let da = a.collect_delta(0);
        let mut b = mgr(3, 0, 1);
        b.ingest_delta(&da).unwrap();
        assert!(b.export_replica(1).is_none(), "u's log leaked past DSD=1");
        assert!(b.export_replica(2).is_some());
    }

    #[test]
    fn dsd2_forwards_one_extra_hop() {
        // u -> a -> b -> c with DSD=2: b holds u's log, c must not.
        let mut u = mgr(1, 1, 2);
        u.record(ts(5));
        let du = u.collect_delta(0);
        let mut a = mgr(2, 1, 2);
        a.ingest_delta(&du).unwrap();
        a.record(ts(6));
        a.mark_records(0);
        let da = a.collect_delta(0);
        let mut b = mgr(3, 1, 2);
        b.ingest_delta(&da).unwrap();
        b.record(ts(8));
        assert_eq!(b.export_replica(1).unwrap().total_entries(), 1);
        b.mark_records(0);
        let db = b.collect_delta(0);
        let mut c = mgr(4, 0, 2);
        c.ingest_delta(&db).unwrap();
        assert!(c.export_replica(1).is_none(), "u's log exceeded DSD=2");
        assert!(c.export_replica(3).is_some());
        // a's log is 2 hops at c — exactly DSD — so it must be present.
        assert!(c.export_replica(2).is_some());
    }

    #[test]
    fn forwarded_logs_ride_only_channels_that_carried_records_this_epoch() {
        // u -> relay -> {b0, b1} at DSD=2: channel 0 carries records,
        // channel 1 only a barrier.
        let mut u = mgr(1, 1, 2);
        u.record(ts(5));
        let mut relay = mgr(2, 2, 2);
        relay.ingest_delta(&u.collect_delta(0)).unwrap();
        relay.record(ts(6));
        let (mut b0, mut b1) = (mgr(3, 0, 2), mgr(4, 0, 2));
        relay.mark_records(0);
        b0.ingest_delta(&relay.collect_delta(0)).unwrap();
        b1.ingest_delta(&relay.collect_delta(1)).unwrap();
        assert_eq!(b0.export_replica(1).unwrap().total_entries(), 1);
        assert!(b1.export_replica(1).is_none(), "a barrier-only buffer forwarded u's log");
        assert!(b1.export_replica(2).is_some(), "the relay's own log rides every buffer");
        assert_eq!(relay.stats.forwards_withheld, 1);
        // Channel 0 carried records this epoch: its barrier buffer forwards.
        u.record(ts(7));
        relay.ingest_delta(&u.collect_delta(0)).unwrap();
        b0.ingest_delta(&relay.collect_delta(0)).unwrap();
        assert_eq!(b0.export_replica(1).unwrap().total_entries(), 2);
        // A new epoch clears the bit; what was withheld rides the channel's
        // next record-carrying buffer.
        relay.set_epoch(1);
        u.record(ts(8));
        relay.ingest_delta(&u.collect_delta(0)).unwrap();
        assert!(relay.collect_delta(0).is_empty());
        relay.mark_records(1);
        b1.ingest_delta(&relay.collect_delta(1)).unwrap();
        assert_eq!(b1.export_replica(1).unwrap().total_entries(), 3);
        assert_eq!(relay.stats.forwards_withheld, 2);
    }

    #[test]
    fn dsd0_disables_logging_entirely() {
        let mut a = mgr(1, 1, 0);
        a.record(ts(1));
        a.record_flush(0, 10, 1);
        let d = a.collect_delta(0);
        assert!(d.is_empty());
        assert_eq!(a.stats.determinants_recorded, 0);
    }

    #[test]
    fn truncation_drops_stable_epochs_everywhere() {
        let mut a = mgr(1, 1, 1);
        a.set_epoch(0);
        a.record(ts(1));
        a.set_epoch(1);
        a.record(ts(2));
        let d = a.collect_delta(0);
        let mut b = mgr(2, 0, 1);
        b.ingest_delta(&d).unwrap();
        b.truncate_through(0);
        let replica = b.export_replica(1).unwrap();
        assert_eq!(replica.total_entries(), 1);
        a.truncate_through(0);
        assert_eq!(a.own_snapshot().total_entries(), 1);
    }

    #[test]
    fn snapshot_merge_takes_longest_prefix() {
        let mut a = mgr(1, 1, 1);
        a.record(ts(1));
        let d1 = a.collect_delta(0);
        a.record(ts(2));
        let d2 = a.collect_delta(0);

        // Downstream x got both deltas, y only the first.
        let mut x = mgr(2, 0, 1);
        x.ingest_delta(&d1).unwrap();
        x.ingest_delta(&d2).unwrap();
        let mut y = mgr(3, 0, 1);
        y.ingest_delta(&d1).unwrap();

        let mut merged = y.export_replica(1).unwrap();
        merged.merge(&x.export_replica(1).unwrap());
        assert_eq!(merged.total_entries(), 2);
        // Merge the other way too — same result.
        let mut merged2 = x.export_replica(1).unwrap();
        merged2.merge(&y.export_replica(1).unwrap());
        assert_eq!(merged2.total_entries(), 2);
    }

    #[test]
    fn replay_consumes_in_order_and_rebuilds_log() {
        let mut a = mgr(1, 1, 1);
        a.record(Determinant::Order { channel: 0 });
        a.record(ts(42));
        a.record(Determinant::Order { channel: 1 });
        a.record_flush(0, 100, 2);
        let d = a.collect_delta(0);
        let mut down = mgr(2, 0, 1);
        down.ingest_delta(&d).unwrap();

        // a fails; replacement replays from down's replica.
        let snap = down.export_replica(1).unwrap();
        let mut a2 = mgr(1, 1, 1);
        a2.begin_replay(snap, 0);
        assert!(a2.replaying());
        assert_eq!(a2.pop_replay(), Some(Determinant::Order { channel: 0 }));
        assert_eq!(a2.pop_replay(), Some(ts(42)));
        assert_eq!(a2.peek_replay(), Some(&Determinant::Order { channel: 1 }));
        assert_eq!(a2.pop_replay(), Some(Determinant::Order { channel: 1 }));
        assert!(!a2.replaying());
        assert!(a2.replaying_flushes(0));
        assert_eq!(a2.pop_replay_flush(0), Some((100, 2)));
        assert!(a2.replay_complete());
        // Rebuilt log matches the original.
        assert_eq!(a2.own_snapshot(), a.own_snapshot());
    }

    #[test]
    fn rebuilt_entries_get_identical_sequence_numbers_after_truncation() {
        let mut a = mgr(1, 1, 1);
        a.set_epoch(0);
        a.record(ts(1));
        a.record(ts(2));
        let d0 = a.collect_delta(0);
        a.set_epoch(1);
        a.record(ts(3));
        let d1 = a.collect_delta(0);
        let mut down = mgr(2, 1, 1);
        down.ingest_delta(&d0).unwrap();
        down.ingest_delta(&d1).unwrap();
        // Checkpoint 0 completes: both sides truncate epoch 0.
        a.truncate_through(0);
        down.truncate_through(0);

        let snap = down.export_replica(1).unwrap();
        let mut a2 = mgr(1, 1, 1);
        a2.begin_replay(snap, 1);
        assert_eq!(a2.pop_replay(), Some(ts(3)));
        // The rebuilt entry has the same seq (2) as the original — a delta
        // collected now must dedupe cleanly at `down`.
        let d = a2.collect_delta(0);
        assert_eq!(down.ingest_delta(&d).unwrap(), 0, "downstream re-ingested known entries");
    }

    /// `a` (task 2, DSD 2) forwards `u` (task 1): the delta `a` ships, the
    /// one before it, and `u`'s own delta on its second channel, which holds
    /// every entry of `u` that `a` forwards. Between them: two origins,
    /// stretches of `Order`s, `External` payloads, `Timestamp`s whose `ts` falls,
    /// step offsets, an epoch change inside a span and — at a receiver that
    /// took the first and the direct delta — spans it holds whole.
    fn two_origin_deltas() -> (LogDelta, LogDelta, LogDelta) {
        let mut u = mgr(1, 2, 2);
        let mut a = mgr(2, 1, 2);
        let step = |u: &mut CausalLogManager, a: &mut CausalLogManager, k: u64| {
            for _ in 0..4 {
                u.record(Determinant::Order { channel: 1 });
            }
            u.record(Determinant::External { payload: vec![k as u8; 9] });
            u.record(ts(1_000 + k));
            u.set_epoch(k);
            u.record(Determinant::Timestamp { ts: 900 + k, offset: 3 });
            u.record_flush(0, 4_000, 17);
            a.ingest_delta(&u.collect_delta(0)).unwrap();
            a.record(Determinant::Order { channel: 0 });
            a.record(Determinant::Rpc { kind: crate::determinant::RpcKind::Other, arg: k, offset: 300 });
            a.set_epoch(k);
            for _ in 0..3 {
                a.record(Determinant::Order { channel: 0 });
            }
            a.mark_records(0);
            a.collect_delta(0)
        };
        let first = step(&mut u, &mut a, 1);
        let delta = step(&mut u, &mut a, 2);
        (first, delta, u.collect_delta(1))
    }

    /// A varint field list followed by raw bytes: a hand-made delta.
    fn crafted(fields: &[u64], tail: &[u8]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for &f in fields {
            w.put_varint(f);
        }
        w.put_raw(tail);
        w.as_slice().to_vec()
    }

    /// One origin (9, unknown to every receiver here) at hop 0 with one log,
    /// present, and one span of `count` entries from 0 whose bytes are
    /// `entries` and whose `byte_len` says `byte_len`.
    fn one_span(count: u64, byte_len: usize, entries: &[u8]) -> Vec<u8> {
        crafted(&[9, 0, 1, 1, 0, count, byte_len as u64], entries)
    }

    #[test]
    fn corrupt_deltas_are_errors_not_panics_or_unbounded_work() {
        let (first, delta, direct) = two_origin_deltas();
        // Every wire item is one entry, so a replica takes in no more than
        // the bytes it reads plus a re-coded seam per span; the primed
        // receiver also holds the earlier deltas' entries.
        let bound = 2 * delta.len() as u64;
        let check = |bytes: &[u8]| -> [Result<u64, DeltaError>; 2] {
            // A fresh receiver, and one that already holds the earlier delta
            // and `u`'s direct one (so spans are partly and wholly held).
            [false, true].map(|primed| {
                let mut b = mgr(3, 1, 2);
                if primed {
                    b.ingest_delta(&first).unwrap();
                    b.ingest_delta(&direct).unwrap();
                }
                let outcome = b.ingest_delta(bytes);
                assert!(b.resident_bytes() <= bound, "{} resident bytes from a {}-byte delta", b.resident_bytes(), bytes.len());
                // Whatever was taken in is a consistent log: it exports and ships.
                for origin in [1, 2, 9] {
                    let _ = b.export_replica(origin);
                }
                let _ = b.collect_delta(0);
                outcome.map(|added| added + 1_000 * b.stats.held_spans_skipped)
            })
        };
        // Intact, the primed receiver skips `u`'s forwarded spans unread.
        let [fresh, primed] = check(&delta);
        assert!(fresh.unwrap() < 1_000 && primed.unwrap() >= 2_000, "held spans not skipped");
        let mut outcomes = [0u32; 2];
        let mut tally = |bytes: &[u8]| {
            for outcome in check(bytes) {
                outcomes[outcome.is_ok() as usize] += 1;
            }
        };
        for cut in 0..delta.len() {
            tally(&delta[..cut]);
        }
        let mut flipped = delta.to_vec();
        for bit in 0..delta.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            tally(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        let [errs, oks] = outcomes;
        assert!(errs > 0 && oks > 0, "{errs} errors, {oks} accepted");

        // Faults in the v2 fields, on both receivers. Two `Timestamp`s
        // (ts 10 at step 1, then ts 12 at step 2) are 3 + 3 bytes.
        let two = [3, 20, 2, 3, 4, 2];
        let inconsistent = |context| DeltaError::Codec(CodecError::Inconsistent { context });
        let faults: [(Vec<u8>, DeltaError); 7] = [
            // A `byte_len` past the span's entries, and one short of them.
            (one_span(2, 7, &[&two[..], &[0]].concat()), inconsistent("delta span byte length")),
            (one_span(2, 5, &two), DeltaError::Codec(CodecError::UnexpectedEof { needed: 1, remaining: 0 })),
            // A presence bit at or past `nlogs`.
            (crafted(&[9, 0, 1, 2], &[]), inconsistent("delta presence bit past nlogs")),
            (crafted(&[9, 0, 9], &[1, 2, 0, 1, 1, 0]), inconsistent("delta presence bit past nlogs")),
            // A `ts` delta and a `Timer` offset delta below 0, and a `ts`
            // delta past `u64::MAX` after an absolute `Timestamp`.
            (one_span(1, 3, &[3, 1, 0]), inconsistent("step delta past the range of its field")),
            (one_span(1, 3, &[1, 5, 1]), inconsistent("step delta past the range of its field")),
            (
                one_span(2, 15, &[&[0x43][..], &[0xff; 9], &[1, 0], &[3, 2, 0]].concat()),
                inconsistent("step delta past the range of its field"),
            ),
        ];
        for (bytes, want) in &faults {
            for outcome in check(bytes) {
                assert_eq!(outcome.as_ref().map_err(|e| e.clone()), Err(want.clone()), "{bytes:?}");
            }
        }
    }

    #[test]
    fn crafted_lengths_are_codec_errors() {
        let rejects = |bytes: &[u8]| {
            let mut b = mgr(2, 0, 1);
            let err = b.ingest_delta(bytes).unwrap_err();
            assert!(matches!(err, DeltaError::Codec(_)));
            assert_eq!(b.resident_bytes(), 0);
            assert!(b.export_replica(9).is_none_or(|snap| snap.logs.len() <= 2));
        };
        // What a retired run-length kind (0x3F) would read as a run of 2^62
        // `Order`s inside a span of 3 is an invalid tag: no loop, no append.
        let mut run = ByteWriter::new();
        run.put_u8(0x3F);
        run.put_varint(0);
        run.put_varint(1 << 62);
        rejects(&one_span(3, run.len(), run.as_slice()));
        // A log count no bitmap in the bytes left can hold: the log table
        // is not grown to reach it.
        rejects(&crafted(&[9, 0, 1 << 40], &[0xff]));
        // A span longer than the bytes that follow.
        rejects(&crafted(&[9, 0, 1, 1, 0, 1, 1 << 40], &[0, 0]));
        // A span whose sequence numbers would wrap.
        rejects(&crafted(&[9, 0, 1, 1, u64::MAX, 2, 4], &[0, 0, 0, 0]));
        // An empty span, which no encoder writes.
        rejects(&crafted(&[9, 0, 1, 1, 0, 0, 0], &[]));
    }

    /// The ROADMAP item 6 lead under the relative wire: a replica takes a
    /// span whose epoch falls mid-span (a replica's log can hold one, and
    /// forwards it), truncates through the higher epoch, and still exports
    /// what the origin's own log holds — the new front entered its epoch
    /// fresh, whatever the epochs popped before it.
    #[test]
    fn a_span_whose_epoch_falls_midway_truncates_and_exports_like_its_origin() {
        let mut a = mgr(1, 1, 1);
        a.set_epoch(2);
        a.record(Determinant::Timer { timer_id: 1, offset: 40 });
        a.record(ts(500));
        // `encode_entry` is what ingest appends with: no claim about epochs.
        a.own.main.encode_entry(1, &Determinant::Timestamp { ts: 480, offset: 7 });
        a.own.main.encode_entry(3, &Determinant::Rpc { kind: crate::determinant::RpcKind::Other, arg: 9, offset: 12 });
        a.own.main.encode_entry(3, &ts(510));
        a.set_epoch(3);
        let mut b = mgr(2, 0, 1);
        assert_eq!(b.ingest_delta(&a.collect_delta(0)).unwrap(), 5);
        assert_eq!(b.export_replica(1).unwrap(), a.own_snapshot());
        // Through the lower epoch alone nothing goes: the 1 waits behind the 2.
        b.truncate_through(1);
        assert_eq!(b.export_replica(1).unwrap().total_entries(), 5);
        // Through the higher one the prefix 2, 1 goes and the 3s stay.
        b.truncate_through(2);
        a.truncate_through(2);
        assert_eq!(a.own_snapshot().total_entries(), 2);
        assert_eq!(b.export_replica(1).unwrap(), a.own_snapshot());
        // The next span is coded from the channel's cursor past them.
        a.record(ts(530));
        assert_eq!(b.ingest_delta(&a.collect_delta(0)).unwrap(), 1);
        assert_eq!(b.export_replica(1).unwrap(), a.own_snapshot());
    }

    #[test]
    fn stats_track_volume() {
        let mut a = mgr(1, 1, 1);
        a.record(ts(1));
        a.record(ts(2));
        let d = a.collect_delta(0);
        assert_eq!(a.stats.determinants_recorded, 2);
        assert_eq!(a.stats.delta_entries_shipped, 2);
        assert!(a.stats.delta_bytes_shipped >= d.len() as u64);
        assert!(a.resident_bytes() > 0);
    }

    #[test]
    fn empty_delta_roundtrip() {
        let mut a = mgr(1, 1, 1);
        let d = a.collect_delta(0);
        assert!(d.is_empty(), "a delta with nothing new is empty");
        let mut b = mgr(2, 0, 1);
        assert_eq!(b.ingest_delta(&d).unwrap(), 0);
        // Nor does an origin with nothing new ship: only `a`'s own log.
        a.record(ts(1));
        let mut relay = mgr(3, 1, 2);
        relay.ingest_delta(&a.collect_delta(0)).unwrap();
        relay.mark_records(0);
        assert!(!relay.collect_delta(0).is_empty());
        assert!(relay.collect_delta(0).is_empty(), "a relay re-shipped what it had forwarded");
    }
}
