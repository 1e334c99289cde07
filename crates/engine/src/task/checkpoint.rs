//! The barrier snapshot (§3): barrier injection and alignment (or overtaking,
//! unaligned), the state cut into a full or delta image, its seal and ack.
//! [`CheckpointState`] is this concern's state; other files use its methods.

use super::*;
use crate::config::CheckpointMode;
use crate::messages::SegmentAck;
use crate::metrics::{CausalRef, CheckpointStats, Kind};
use crate::record::{barrier_only, StreamElement};
use crate::state::SEC_META;
use bytes::Bytes;
use clonos::determinant::{Determinant, RpcKind};
use clonos::inflight::SentBuffer;
use clonos::ChannelId;
use clonos_storage::codec::{ByteReader, CodecError};
use clonos_storage::deltamap;
use std::collections::BTreeSet;

/// Decoded per-task checkpoint payload: a full delta-map image parsed into
/// a fresh [`StateStore`] plus the execution-progress scalars carried in the
/// image's META section. (Encoding happens directly on the task's reusable
/// scratch writer — see `Task::open_capture` — so the steady-state barrier
/// path is O(dirty) and allocation-free.)
#[derive(Debug, Default)]
pub struct TaskSnapshot {
    pub store: StateStore,
    pub emit_seq: u64,
    pub source_offset: u64,
    pub max_event_time: u64,
    /// The task's combined low watermark at the checkpoint.
    pub watermark: u64,
    /// Per-input-channel watermarks at the checkpoint. Unlike Flink's global
    /// restarts, Clonos' local replay must reproduce the exact emission
    /// sequence, and watermark-advance decisions depend on this state.
    pub channel_watermarks: Vec<u64>,
    /// Unaligned checkpoints only: in-flight buffers the barrier overtook,
    /// captured per input channel in arrival order (the canonical
    /// `(channel, seq)` key order of `SEC_OVERTAKEN` preserves it). Recovery
    /// re-injects these ahead of replayed channel traffic.
    pub overtaken: Vec<(ChannelId, SentBuffer)>,
}

impl TaskSnapshot {
    /// Parse a reconstructed *full* image (a base, or base + merged deltas).
    pub fn decode(bytes: &[u8]) -> Result<TaskSnapshot, EngineError> {
        let mut snap = TaskSnapshot::default();
        let entries = deltamap::read_entries(bytes)?;
        snap.store.reserve_entries(&entries);
        for e in entries {
            if e.section == SEC_META {
                let Some(v) = e.value else { continue };
                let mut r = ByteReader::new(v);
                snap.emit_seq = r.get_varint()?;
                snap.source_offset = r.get_varint()?;
                snap.max_event_time = r.get_varint()?;
                snap.watermark = r.get_varint()?;
                let n = r.get_varint()? as usize;
                snap.channel_watermarks = Vec::with_capacity(n.min(64 * 1024));
                for _ in 0..n {
                    snap.channel_watermarks.push(r.get_varint()?);
                }
                r.finish("bytes after the META scalars")?;
            } else if e.section == deltamap::SEC_OVERTAKEN {
                // Intercept before the state store (which rejects unknown
                // sections): key = channel u16 BE ++ seq u32 BE, value = an
                // encoded SentBuffer.
                let Some(v) = e.value else { continue };
                if e.key.len() != 6 {
                    return Err(EngineError::Protocol(format!(
                        "overtaken-record key has {} bytes, expected 6",
                        e.key.len()
                    )));
                }
                let ch = u16::from_be_bytes([e.key[0], e.key[1]]) as ChannelId;
                let mut r = ByteReader::new(v);
                let epoch = r.get_varint()?;
                let records = u32::try_from(r.get_varint()?)
                    .map_err(|_| CodecError::Inconsistent { context: "overtaken-record count past u32" })?;
                let dlen = r.get_varint()? as usize;
                let delta = Bytes::copy_from_slice(r.get_raw(dlen)?);
                let payload = Bytes::copy_from_slice(r.get_raw(r.remaining())?);
                snap.overtaken.push((ch, SentBuffer { epoch, payload, delta, records }));
            } else {
                snap.store.apply_entry(&e)?;
            }
        }
        Ok(snap)
    }
}

/// A checkpoint cut awaiting its seal. The state is encoded at the cut; an
/// aligned cut (and any source's) overtakes nothing and seals in the same
/// step. An unaligned cut at a non-source task stays open while buffers the
/// barrier overtook on not-yet-barriered channels accumulate here, until
/// every input has delivered its barrier. Only then is the final image
/// assembled and acked — completing earlier would let the JM truncate
/// upstream in-flight logs while overtaken buffers are still on the wire.
struct Capture {
    /// The image as it stands with nothing overtaken: entry count, META,
    /// state entries — frozen at the snapshot point.
    image: Bytes,
    /// Entries in `image`, META included, and where they start (past the
    /// count prefix).
    state_entries: u64,
    body_at: usize,
    /// Whether the image is a full base (vs an O(dirty) delta).
    full: bool,
    delta_parent: Option<u64>,
    /// Overtaken buffers per input channel, in arrival (FIFO) order; no
    /// channels at all for a cut that overtakes nothing.
    captured: Vec<Vec<SentBuffer>>,
    /// Tiered backend: live segment ids + newly sealed payloads, cut at the
    /// same instant as the state bytes (the deferred ack carries them).
    segments: Option<SegmentAck>,
}

/// One task's checkpoint state: the delta chain, the alignment clock and the
/// open unaligned captures.
#[derive(Default)]
pub(super) struct CheckpointState {
    /// Incremental-checkpoint counters, aggregated job-wide by the cluster.
    pub(super) stats: CheckpointStats,
    /// Scratch encoder for checkpoint images (full or delta): reused across
    /// barriers so the steady-state snapshot path allocates nothing.
    snap_scratch: ByteWriter,
    /// Checkpoint id of the last image this incarnation acked — the parent
    /// of the next delta. `None` forces a full base (fresh incarnations and
    /// disabled incremental mode).
    chain_parent: Option<u64>,
    /// Delta images since the last full base; at
    /// `checkpoint_rebase_interval` the next barrier rebases.
    snaps_since_base: u32,
    /// Aligned mode: when the first input channel blocked on barrier
    /// alignment (cleared when the last barrier arrives).
    align_start: Option<VirtualTime>,
    /// Unaligned mode: input channels whose barrier for a given checkpoint
    /// id has arrived (pruned when the capture closes / completes).
    ua_seen: BTreeMap<u64, BTreeSet<usize>>,
    /// Unaligned mode: open captures by checkpoint id (close in id order).
    ua_captures: BTreeMap<u64, Capture>,
    /// Per-channel overtaken-buffer counts in this incarnation's previous
    /// image — delta images tombstone `new..prev` so the restore-time fold
    /// never resurrects a stale capture.
    prev_overtaken: Vec<u32>,
}

impl CheckpointState {
    pub(super) fn new(num_ins: usize) -> CheckpointState {
        CheckpointState { prev_overtaken: vec![0; num_ins], ..CheckpointState::default() }
    }

    /// Unaligned mode: data arriving on input `ch` whose barrier for an open
    /// capture has not arrived yet was overtaken by that barrier. It belongs
    /// to the capture's channel state (a buffer can land in several
    /// overlapping captures).
    pub(super) fn capture_overtaken(&mut self, ch: usize, buffer: &SentBuffer) {
        for (&id, cap) in self.ua_captures.iter_mut() {
            if buffer.epoch <= id && !self.ua_seen.get(&id).is_some_and(|s| s.contains(&ch)) {
                cap.captured[ch].push(buffer.clone());
            }
        }
    }

    /// Reset for a new incarnation. Replacements are built fresh, but
    /// abandon-and-restart paths reuse the task object: drop any unaligned
    /// bookkeeping from the previous attempt before its image is installed.
    pub(super) fn reset_for_incarnation(&mut self) {
        self.ua_seen.clear();
        self.ua_captures.clear();
        self.prev_overtaken.fill(0);
    }

    /// Unaligned orphan barriers since epoch `from`, ascending: ids whose
    /// barriers arrived during replay but the dead incarnation never logged a
    /// TriggerCheckpoint determinant for (it died before its first barrier).
    pub(super) fn orphan_barriers_since(&self, from: EpochId) -> Vec<u64> {
        self.ua_seen
            .keys()
            .copied()
            .filter(|&id| {
                !self.ua_captures.contains_key(&id)
                    && id >= from
                    && self.chain_parent.is_none_or(|p| id > p)
            })
            .collect()
    }
}

impl Task {
    /// Unaligned mode, barrier for checkpoint `id` arrived on input `ch`
    /// (out-of-band — the buffer never enters the pending queue). The first
    /// barrier of a checkpoint snapshots immediately and forwards the
    /// barrier; later barriers just retire their channel from the capture.
    /// The ack is deferred until every channel's barrier has arrived.
    pub(super) fn on_unaligned_barrier(
        &mut self,
        ch: usize,
        id: u64,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        let first = !self.ckpt.ua_seen.contains_key(&id);
        self.ckpt.ua_seen.entry(id).or_default().insert(ch);
        if first && !self.log.replaying() {
            // Anchor the snapshot point in the determinant stream BEFORE the
            // barrier flush so the decision replicates downstream with the
            // barrier itself — a replacement replays the snapshot at the
            // same point even if this task dies right after forwarding.
            self.log.record(Determinant::Rpc {
                kind: RpcKind::TriggerCheckpoint,
                arg: id,
                offset: self.step,
            });
            self.emit_barrier_and_snapshot(id, ctx)?;
        }
        // During replay the snapshot is driven by the logged Rpc determinant
        // instead; barriers arriving off the replay pump only mark their
        // channel (and orphans — barriers the dead incarnation never reached
        // — are snapshotted when replay drains, see `finish_recovery`).
        self.maybe_close_unaligned_captures(ctx)
    }

    pub(super) fn on_trigger_checkpoint(&mut self, id: u64, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        if !self.is_source() || self.log.replaying() {
            return Ok(()); // replay injects barriers from Rpc determinants
        }
        self.log.record(Determinant::Rpc {
            kind: RpcKind::TriggerCheckpoint,
            arg: id,
            offset: self.step,
        });
        self.emit_barrier_and_snapshot(id, ctx)
    }

    pub(super) fn handle_barrier(
        &mut self,
        ch: ChannelId,
        id: u64,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        if ctx.config.checkpoint_mode == CheckpointMode::Unaligned && !self.is_source() {
            // Unaligned barriers are normally intercepted at arrival and
            // never reach the consume path; if one does (a barrier that
            // shared a buffer with data, which the flush discipline rules
            // out), treat it as a late out-of-band arrival.
            return self.on_unaligned_barrier(ch as usize, id, ctx);
        }
        self.ins[ch as usize].blocked = true;
        let all = self.ins.iter().all(|c| c.blocked);
        if !all {
            // Alignment stall begins at the first blocked channel; the
            // highwater tracks how wide the stall got.
            let blocked = self.ins.iter().filter(|c| c.blocked).count() as u64;
            let stats = &mut self.ckpt.stats;
            stats.channels_blocked_highwater = stats.channels_blocked_highwater.max(blocked);
            if self.ckpt.align_start.is_none() {
                self.ckpt.align_start = Some(ctx.sched.now());
            }
            return Ok(());
        }
        if let Some(start) = self.ckpt.align_start.take() {
            self.ckpt.stats.alignment_stall_us += ctx.sched.now().saturating_sub(start).as_micros();
        }
        self.emit_barrier_and_snapshot(id, ctx)?;
        for c in &mut self.ins {
            c.blocked = false;
        }
        // Alignment may have left consumable buffers queued.
        self.try_process(ctx)
    }

    /// Shared path: flush, forward the barrier, snapshot, ack, open epoch.
    pub(super) fn emit_barrier_and_snapshot(&mut self, id: u64, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        self.forward_barrier(id, ctx)?;
        // Snapshot state and ack: a full base for the incarnation's first
        // checkpoint (and every K-th thereafter — chain-length rebase; K = 0
        // rebases every time), an O(dirty) delta otherwise.
        let cp = &mut self.ckpt;
        let full = cp.chain_parent.is_none()
            || cp.snaps_since_base >= ctx.config.checkpoint_rebase_interval;
        let delta_parent = if full { None } else { cp.chain_parent };
        if full {
            if cp.chain_parent.is_some() {
                cp.stats.rebases += 1;
            }
            cp.stats.full_snapshots += 1;
            cp.snaps_since_base = 0;
        } else {
            cp.stats.delta_snapshots += 1;
            cp.snaps_since_base += 1;
        }
        cp.chain_parent = Some(id);
        // Tiered backend: turn the epoch's dirty values into an L0 segment
        // at the cut — the image below then carries only resident sections,
        // and value state travels as segment ids + newly sealed payloads.
        let segments = self.cut_tier_segments();
        self.charge_tier_io(ctx);
        let unaligned =
            ctx.config.checkpoint_mode == CheckpointMode::Unaligned && !self.is_source();
        let cap = self.open_capture(id, full, delta_parent, segments, unaligned);
        if unaligned {
            // The state cut is taken now (at first-barrier time), but the
            // image is not sealed — records the barrier overtook on
            // not-yet-barriered channels still have to be captured into it.
            // The ack is deferred until every input channel has barriered.
            self.ckpt.ua_captures.insert(id, cap);
            self.maybe_close_unaligned_captures(ctx)?;
        } else {
            self.close_unaligned_capture(id, cap, ctx);
        }
        // 2PC pre-commit: the cut seals every buffered transaction up to
        // this checkpoint — write them out now so they survive the sink
        // (aligned and unaligned cuts both pass through here).
        self.commit_pending(id, ctx)?;
        // Transactional sinks learn their epoch boundary from barriers.
        // Open the next epoch.
        self.epoch = id + 1;
        self.log.set_epoch(self.epoch);
        self.step = 0;
        let entropy = ctx.entropy.next_u64();
        self.services.renew_rng_seed(&mut self.log, entropy)?;
        let epoch = self.epoch;
        self.run_operator(|op, opctx| op.on_epoch(epoch, opctx), 0, ctx)?;
        Ok(())
    }

    /// Flush pending data, then barrier `id`, in dedicated buffers. In
    /// replay mode both cuts come from logged flush determinants.
    fn forward_barrier(&mut self, id: u64, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        let at = self.queue.busy_until().max(ctx.sched.now());
        for i in 0..self.outs.len() {
            if !self.log.replaying_flushes(i as ChannelId) {
                self.flush_channel(i, at, true, ctx)?;
            }
            self.write_element(i, &StreamElement::Barrier(id), false, at, ctx)?;
            if !self.log.replaying_flushes(i as ChannelId) {
                self.flush_channel(i, at, true, ctx)?;
            }
        }
        Ok(())
    }

    /// Tiered backend barrier step: sync the dirty value change-log into a
    /// sealed L0 segment and gather the checkpoint's segment view (every live
    /// segment id + payloads sealed since the previous ack). `None` untiered.
    fn cut_tier_segments(&mut self) -> Option<SegmentAck> {
        if !self.state.tiering_enabled() {
            return None;
        }
        // Dirty value entries synced here are the O(dirty) barrier work.
        self.ckpt.stats.dirty_entries += self.state.tier_sync_dirty();
        let sealed = self.state.take_sealed_segments();
        let live = self.state.live_segments();
        Some(SegmentAck { live, sealed })
    }

    /// Charge accrued tier I/O (faults, flushes, compactions) to the service
    /// queue so spilling shows up as processing latency, not free work.
    pub(super) fn charge_tier_io(&mut self, ctx: &mut TaskCtx<'_>) {
        let io = self.state.take_tier_io();
        if io > VirtualDuration::ZERO {
            self.queue.admit(ctx.sched.now(), io);
        }
    }

    /// Cut the state for checkpoint `id` now: encode the image layer (entry
    /// count, META, state sections in canonical order) into the reusable
    /// scratch writer and consume the change log. The META entry
    /// (execution-progress scalars) is written in every layer — full or
    /// delta — since those scalars change each epoch; a tiered store leaves
    /// its values to the segments cut beside the layer. With `overtaking`
    /// (an unaligned cut) every input channel's still-queued buffers from
    /// epochs `<= id` are unconsumed at this cut and therefore belong to the
    /// capture; channels that have not barriered yet keep feeding it as data
    /// arrives (`on_data`).
    fn open_capture(
        &mut self,
        id: u64,
        full: bool,
        delta_parent: Option<u64>,
        segments: Option<SegmentAck>,
        overtaking: bool,
    ) -> Capture {
        let source_offset = self.source_offset();
        let max_event_time = match &self.role {
            Role::Source { max_event_time, .. } => *max_event_time,
            _ => 0,
        };
        let state_entries = 1 + self.state.entry_count(full);
        if !full {
            self.ckpt.stats.dirty_entries += state_entries - 1;
        }
        let w = &mut self.ckpt.snap_scratch;
        w.clear();
        w.put_varint(state_entries);
        let body_at = w.len();
        let pos = deltamap::write_put_header(w, SEC_META, &[]);
        w.put_varint(self.emit_seq);
        w.put_varint(source_offset);
        w.put_varint(max_event_time);
        w.put_varint(self.watermark);
        w.put_varint(self.ins.len() as u64);
        for c in &self.ins {
            w.put_varint(c.watermark);
        }
        w.end_u32_len(pos);
        self.state.write_entries(full, w);
        let image = w.take_frozen();
        let mut captured: Vec<Vec<SentBuffer>> = Vec::new();
        if overtaking {
            captured.resize(self.ins.len(), Vec::new());
            for (ch, c) in self.ins.iter().enumerate() {
                for buf in &c.pending {
                    if buf.epoch <= id {
                        debug_assert!(
                            barrier_only(&buf.payload).is_none(),
                            "barrier buffers must never enter pending in unaligned mode"
                        );
                        captured[ch].push(buf.clone());
                    }
                }
            }
        }
        Capture { image, state_entries, body_at, full, delta_parent, captured, segments }
    }

    /// Seal and ack every open capture whose barriers have all arrived, in
    /// checkpoint-id order. FIFO channels guarantee barrier `id - 1` arrives
    /// before `id` on every channel, so completion is always a prefix of the
    /// open set — the loop stops at the first incomplete capture.
    pub(super) fn maybe_close_unaligned_captures(&mut self, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        loop {
            let Some((&id, _)) = self.ckpt.ua_captures.iter().next() else { return Ok(()) };
            let complete = self
                .ckpt
                .ua_seen
                .get(&id)
                .is_some_and(|seen| (0..self.ins.len()).all(|ch| seen.contains(&ch)));
            if !complete {
                return Ok(());
            }
            let Some(cap) = self.ckpt.ua_captures.remove(&id) else { return Ok(()) };
            self.close_unaligned_capture(id, cap, ctx);
        }
    }

    /// Seal a capture and ack it to the JM — the only place a task image is
    /// sealed. With nothing overtaken (every aligned cut) the state cut
    /// already is the image; otherwise the overtaken-record section is
    /// appended behind it under a corrected entry count. Delta images also
    /// write tombstones for the previous checkpoint's now-stale capture
    /// slots so the restore-time fold cannot resurrect them.
    fn close_unaligned_capture(&mut self, id: u64, cap: Capture, ctx: &mut TaskCtx<'_>) {
        let Capture { image, state_entries, body_at, full, delta_parent, captured, segments } =
            cap;
        let cp = &mut self.ckpt;
        let mut extra = 0u64;
        for (ch, bufs) in captured.iter().enumerate() {
            let prev = if full { 0 } else { cp.prev_overtaken[ch] as usize };
            extra += bufs.len().max(prev) as u64;
        }
        let snapshot = if extra == 0 {
            image
        } else {
            let w = &mut cp.snap_scratch;
            w.clear();
            w.put_varint(state_entries + extra);
            w.put_raw(&image[body_at..]);
            let sec_start = w.len();
            for (ch, bufs) in captured.iter().enumerate() {
                let mut key = [0u8; 6];
                key[..2].copy_from_slice(&(ch as u16).to_be_bytes());
                for (seq, buf) in bufs.iter().enumerate() {
                    key[2..].copy_from_slice(&(seq as u32).to_be_bytes());
                    let pos = deltamap::write_put_header(w, deltamap::SEC_OVERTAKEN, &key);
                    w.put_varint(buf.epoch);
                    w.put_varint(buf.records as u64);
                    w.put_varint(buf.delta.len() as u64);
                    w.put_raw(&buf.delta);
                    w.put_raw(&buf.payload);
                    w.end_u32_len(pos);
                    cp.stats.overtaken_records += buf.records as u64;
                }
                if !full {
                    // Tombstone the previous capture's higher slots.
                    for seq in bufs.len()..cp.prev_overtaken[ch] as usize {
                        key[2..].copy_from_slice(&(seq as u32).to_be_bytes());
                        deltamap::write_tombstone(w, deltamap::SEC_OVERTAKEN, &key);
                    }
                }
            }
            cp.stats.overtaken_bytes += (w.len() - sec_start) as u64;
            w.take_frozen()
        };
        for (prev, bufs) in cp.prev_overtaken.iter_mut().zip(&captured) {
            *prev = bufs.len() as u32;
        }
        if full {
            cp.stats.full_bytes += snapshot.len() as u64;
        } else {
            cp.stats.delta_bytes += snapshot.len() as u64;
        }
        self.send_checkpoint_ack(id, snapshot, delta_parent, segments, ctx);
    }

    /// Record the ack's causal hop and send it to the coordinator — unless a
    /// seeded ack-loss injection targets exactly this `(task, checkpoint)`,
    /// in which case the ack vanishes *before* the trace boundary: the
    /// conformance checker must then diagnose the barrier as stalled at this
    /// task's missing `CheckpointAck`.
    fn send_checkpoint_ack(
        &mut self,
        id: u64,
        snapshot: Bytes,
        delta_parent: Option<u64>,
        segments: Option<SegmentAck>,
        ctx: &mut TaskCtx<'_>,
    ) {
        if ctx.config.inject_ack_loss == Some((self.spec.id, id)) {
            ctx.metrics.recovery.ctrl_dropped += 1;
            return;
        }
        let cause = CausalRef { kind: Kind::TriggerCheckpoint, epoch: id, task: 0 };
        ctx.metrics.record(ctx.sched.now(), Kind::CheckpointAck, id, self.spec.id, Some(cause));
        ctx.send_ctrl(
            0,
            Msg::CheckpointAck {
                task: self.spec.id,
                id,
                snapshot,
                delta_parent,
                segments: segments.map(Box::new),
            },
        );
    }

    pub(super) fn on_checkpoint_complete(&mut self, id: u64, _ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        self.log.truncate_through(id);
        if let Some(inflight) = &mut self.inflight {
            inflight.truncate_through(id, &mut self.spill);
        }
        for c in &mut self.ins {
            c.received.retain(|&e, _| e > id);
        }
        // Completed checkpoints are final; drop their barrier-seen
        // bookkeeping (captures for <= id are already sealed and gone).
        self.ckpt.ua_seen.retain(|&k, _| k > id);
        if let Role::Sink(sink) = &mut self.role {
            sink.truncate_through(id);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Datum, Row};
    use crate::state::{StateTimer, SEC_LISTS, SEC_VALUES};

    /// A task image as `open_capture` and `close_unaligned_capture` cut it:
    /// META, state values, a list, both timer kinds and an overtaken buffer.
    /// `meta_extra`, `row_extra` and `list_extra` append bytes to those
    /// values; `records` is the overtaken buffer's record count.
    fn task_image(meta_extra: &[u8], row_extra: &[u8], list_extra: &[u8], records: u64) -> Vec<u8> {
        let mut store = StateStore::new();
        store.set_value(0, 7, Row::new(vec![Datum::Int(42), Datum::str("seven")]));
        store.set_value(1, 9, Row::new(vec![Datum::Float(0.5), Datum::Null]));
        store.push_list(2, 7, Row::new(vec![Datum::Int(1)]));
        store.push_list(2, 7, Row::new(vec![Datum::Bool(true)]));
        store.register_event_timer(StateTimer { ts: 1_000, key: 7, tag: 3 });
        store.register_proc_timer(StateTimer { ts: 2_000, key: 9, tag: 0 });
        let state = store.snapshot();
        let entries = deltamap::read_entries(&state).unwrap();
        let mut w = ByteWriter::new();
        w.put_varint(entries.len() as u64 + 2);
        let mut meta = ByteWriter::new();
        // emit_seq, source_offset, max_event_time, watermark, two channels.
        for v in [5u64, 6, 7, 8, 2, 100, 200] {
            meta.put_varint(v);
        }
        meta.put_raw(meta_extra);
        deltamap::write_put(&mut w, SEC_META, &[], meta.as_slice());
        for e in &entries {
            let extra = match e.section {
                SEC_VALUES if e.key == entries[0].key => row_extra,
                SEC_LISTS => list_extra,
                _ => &[],
            };
            deltamap::write_put(&mut w, e.section, e.key, &[e.value.unwrap(), extra].concat());
        }
        let mut buf = ByteWriter::new();
        for v in [3, records, 4] {
            buf.put_varint(v);
        }
        buf.put_raw(&[1, 2, 3, 4]);
        buf.put_raw(b"payload");
        deltamap::write_put(&mut w, deltamap::SEC_OVERTAKEN, &[0, 1, 0, 0, 0, 2], buf.as_slice());
        w.freeze().to_vec()
    }

    #[test]
    fn task_snapshot_decode_fails_closed() {
        let image = task_image(&[], &[], &[], 2);
        let snap = TaskSnapshot::decode(&image).unwrap();
        assert_eq!((snap.emit_seq, snap.source_offset, snap.max_event_time, snap.watermark), (5, 6, 7, 8));
        assert_eq!(snap.channel_watermarks, [100, 200]);
        assert_eq!(snap.store.list(2, 7).len(), 2);
        assert_eq!(snap.store.event_timers_len(), 1);
        let (ch, buf) = &snap.overtaken[0];
        assert_eq!((*ch, buf.epoch, buf.records, &buf.delta[..], &buf.payload[..]), (1, 3, 2, &[1, 2, 3, 4][..], &b"payload"[..]));
        // Bytes left over after a value, and a count `as u32` would cut.
        for (what, bad) in [
            ("META scalars", task_image(&[0], &[], &[], 2)),
            ("a value row", task_image(&[], &[0], &[], 2)),
            ("a list", task_image(&[], &[], &[0], 2)),
            ("overtaken records", task_image(&[], &[], &[], u32::MAX as u64 + 1)),
        ] {
            assert!(TaskSnapshot::decode(&bad).is_err(), "{what}: accepted");
        }
        for len in 0..image.len() {
            assert!(TaskSnapshot::decode(&image[..len]).is_err(), "truncated to {len} bytes: accepted");
        }
        // Every single-bit flip decodes or fails; none panics.
        for bit in 0..image.len() * 8 {
            let mut flipped = image.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = TaskSnapshot::decode(&flipped);
        }
    }
}
