//! The in-flight record log (§2.1, §6.1): every task that sends output
//! downstream retains the buffers it has sent since the last completed
//! checkpoint, segmented by epoch and organized per output channel.
//!
//! Design decisions mirrored from §6.1:
//! - **No buffer copies**: the network layer *hands over* the sent buffer
//!   (`Bytes` is reference-counted; appending is a pointer move).
//! - **Deltas ride along**: each logged buffer keeps the causal-log delta
//!   that was piggybacked on it, so replaying to a recovered downstream task
//!   also rebuilds that task's replicated determinant store.
//! - **Unsent buffers at the back**: while a downstream task recovers, the
//!   producer keeps appending fresh buffers to the log even though they
//!   cannot be sent yet — processing never stops.
//! - **Spill policies**: `InMemory`, `SpillEpoch`, `SpillBuffer`, and
//!   `SpillThreshold` (§6.1's four policies), with batched asynchronous I/O
//!   for the threshold policy.

use crate::config::SpillPolicy;
use crate::{ChannelId, EpochId};
use bytes::Bytes;
use clonos_sim::VirtualDuration;
use clonos_storage::spill::{SpillDevice, SpillHandle};

/// A buffer as it was sent: payload + piggybacked causal delta.
#[derive(Clone, Debug, PartialEq)]
pub struct SentBuffer {
    pub epoch: EpochId,
    pub payload: Bytes,
    pub delta: Bytes,
    pub records: u32,
}

/// Where a logged buffer currently lives.
#[derive(Debug)]
enum Slot {
    Mem(SentBuffer),
    Spilled { epoch: EpochId, handle: SpillHandle, delta: Bytes, records: u32, len: u32 },
}

impl Slot {
    fn epoch(&self) -> EpochId {
        match self {
            Slot::Mem(b) => b.epoch,
            Slot::Spilled { epoch, .. } => *epoch,
        }
    }

    fn payload_len(&self) -> usize {
        match self {
            Slot::Mem(b) => b.payload.len(),
            Slot::Spilled { len, .. } => *len as usize,
        }
    }
}

#[derive(Debug, Default)]
struct ChannelLog {
    base_idx: u64,
    slots: std::collections::VecDeque<Slot>,
}

/// Outcome of an append under the configured spill policy.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AppendOutcome {
    /// Modelled I/O time spent spilling (asynchronous for batched policies,
    /// synchronous for `SpillBuffer`).
    pub io: VirtualDuration,
    /// Whether the append found the buffer pool exhausted — the engine
    /// translates this into backpressure (blocked processing).
    pub blocked: bool,
}

/// Replay position within one channel's log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayCursor {
    pub channel: ChannelId,
    next_idx: u64,
}

/// Memory/IO statistics for the §7.5 experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct InFlightStats {
    pub buffers_logged: u64,
    pub buffers_spilled: u64,
    pub spill_io: VirtualDuration,
    pub replay_io: VirtualDuration,
    pub blocked_appends: u64,
    /// High-water mark of in-memory payload bytes.
    pub peak_resident_bytes: u64,
}

impl InFlightStats {
    /// Fold another log's counters into this aggregate: every field sums,
    /// the resident-bytes peak too (a job total of per-incarnation peaks).
    pub fn absorb(&mut self, o: &InFlightStats) {
        self.buffers_logged += o.buffers_logged;
        self.buffers_spilled += o.buffers_spilled;
        self.spill_io = self.spill_io + o.spill_io;
        self.replay_io = self.replay_io + o.replay_io;
        self.blocked_appends += o.blocked_appends;
        self.peak_resident_bytes += o.peak_resident_bytes;
    }
}

/// The per-task in-flight record log.
#[derive(Debug)]
pub struct InFlightLog {
    policy: SpillPolicy,
    /// Capacity of the log's buffer pool, counted in buffers (the paper's
    /// dual-pool design trades buffers one-for-one with the output pool).
    pool_capacity: usize,
    channels: Vec<ChannelLog>,
    resident: usize,
    resident_payload: u64,
    pub stats: InFlightStats,
}

impl InFlightLog {
    pub fn new(num_channels: usize, policy: SpillPolicy, pool_capacity: usize) -> InFlightLog {
        InFlightLog {
            policy,
            pool_capacity: pool_capacity.max(1),
            channels: (0..num_channels).map(|_| ChannelLog::default()).collect(),
            resident: 0,
            resident_payload: 0,
            stats: InFlightStats::default(),
        }
    }

    pub fn policy(&self) -> SpillPolicy {
        self.policy
    }

    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Buffers currently held in memory.
    pub fn resident_buffers(&self) -> usize {
        self.resident
    }

    /// Bytes currently held in memory (payloads only).
    pub fn resident_bytes(&self) -> u64 {
        self.channels
            .iter()
            .flat_map(|c| c.slots.iter())
            .filter_map(|s| match s {
                Slot::Mem(b) => Some(b.payload.len() as u64),
                Slot::Spilled { .. } => None,
            })
            .sum()
    }

    /// Total logged bytes (resident + spilled).
    pub fn total_bytes(&self) -> u64 {
        self.channels
            .iter()
            .flat_map(|c| c.slots.iter())
            .map(|s| s.payload_len() as u64)
            .sum()
    }

    /// Log a sent (or unsendable-during-recovery) buffer. Applies the spill
    /// policy and returns modelled I/O plus a backpressure flag.
    pub fn append(
        &mut self,
        channel: ChannelId,
        buffer: SentBuffer,
        spill: &mut SpillDevice,
    ) -> AppendOutcome {
        let epoch = buffer.epoch;
        self.resident_payload += buffer.payload.len() as u64;
        self.channels[channel as usize].slots.push_back(Slot::Mem(buffer));
        self.resident += 1;
        self.stats.buffers_logged += 1;
        self.stats.peak_resident_bytes = self.stats.peak_resident_bytes.max(self.resident_payload);

        let mut out = AppendOutcome::default();
        match self.policy {
            SpillPolicy::InMemory => {
                if self.resident > self.pool_capacity {
                    out.blocked = true;
                    self.stats.blocked_appends += 1;
                }
            }
            SpillPolicy::SpillBuffer => {
                // Synchronous, per-buffer I/O: spill the buffer we just logged.
                out.io = out.io + self.spill_last(channel, spill);
            }
            SpillPolicy::SpillEpoch => {
                // Spill everything belonging to epochs before the current one.
                out.io = out.io + self.spill_matching(spill, |e| e < epoch);
            }
            SpillPolicy::SpillThreshold(ratio) => {
                let available =
                    self.pool_capacity.saturating_sub(self.resident) as f64 / self.pool_capacity as f64;
                if available < ratio {
                    // Batch-spill the oldest half of resident buffers.
                    let target = self.resident / 2;
                    out.io = out.io + self.spill_oldest(spill, target);
                }
            }
        }
        out
    }

    fn spill_last(&mut self, channel: ChannelId, spill: &mut SpillDevice) -> VirtualDuration {
        let ch = &mut self.channels[channel as usize];
        let Some(slot) = ch.slots.back_mut() else { return VirtualDuration::ZERO };
        if let Slot::Mem(b) = slot {
            let (handle, io) = spill.write(b.payload.clone());
            let len = b.payload.len() as u64;
            *slot = Slot::Spilled {
                epoch: b.epoch,
                handle,
                delta: b.delta.clone(),
                records: b.records,
                len: len as u32,
            };
            self.resident -= 1;
            self.resident_payload -= len;
            self.stats.buffers_spilled += 1;
            self.stats.spill_io = self.stats.spill_io + io;
            io
        } else {
            VirtualDuration::ZERO
        }
    }

    fn spill_matching(
        &mut self,
        spill: &mut SpillDevice,
        pred: impl Fn(EpochId) -> bool,
    ) -> VirtualDuration {
        let mut batch: Vec<Bytes> = Vec::new();
        let mut targets: Vec<(usize, usize)> = Vec::new();
        for (ci, ch) in self.channels.iter().enumerate() {
            for (si, slot) in ch.slots.iter().enumerate() {
                if let Slot::Mem(b) = slot {
                    if pred(b.epoch) {
                        batch.push(b.payload.clone());
                        targets.push((ci, si));
                    }
                }
            }
        }
        if batch.is_empty() {
            return VirtualDuration::ZERO;
        }
        let (handles, io) = spill.write_batch(batch);
        for ((ci, si), handle) in targets.into_iter().zip(handles) {
            let slot = &mut self.channels[ci].slots[si];
            if let Slot::Mem(b) = slot {
                let len = b.payload.len() as u64;
                *slot = Slot::Spilled {
                    epoch: b.epoch,
                    handle,
                    delta: b.delta.clone(),
                    records: b.records,
                    len: len as u32,
                };
                self.resident -= 1;
                self.resident_payload -= len;
                self.stats.buffers_spilled += 1;
            }
        }
        self.stats.spill_io = self.stats.spill_io + io;
        io
    }

    fn spill_oldest(&mut self, spill: &mut SpillDevice, count: usize) -> VirtualDuration {
        // Oldest = smallest epoch first; within a channel, front-first.
        let mut io = VirtualDuration::ZERO;
        let mut remaining = count;
        // Walk epochs in ascending order until we spilled enough.
        let mut epochs: Vec<EpochId> = self
            .channels
            .iter()
            .flat_map(|c| c.slots.iter())
            .filter(|s| matches!(s, Slot::Mem(_)))
            .map(|s| s.epoch())
            .collect();
        epochs.sort_unstable();
        epochs.dedup();
        for e in epochs {
            if remaining == 0 {
                break;
            }
            let before = self.resident;
            io = io + self.spill_matching(spill, |se| se == e);
            remaining = remaining.saturating_sub(before - self.resident);
        }
        io
    }

    /// Truncate all epochs `<= epoch` (a checkpoint completed), freeing
    /// spilled buffers on the device and returning memory to the pool.
    pub fn truncate_through(&mut self, epoch: EpochId, spill: &mut SpillDevice) -> usize {
        let mut dropped = 0;
        for ch in &mut self.channels {
            while ch.slots.front().is_some_and(|f| f.epoch() <= epoch) {
                let Some(slot) = ch.slots.pop_front() else { break };
                match slot {
                    Slot::Mem(b) => {
                        self.resident -= 1;
                        self.resident_payload -= b.payload.len() as u64;
                    }
                    Slot::Spilled { handle, .. } => {
                        spill.free(handle);
                    }
                }
                ch.base_idx += 1;
                dropped += 1;
            }
        }
        dropped
    }

    /// Open a replay cursor for `channel` covering epochs `>= from_epoch`.
    /// (Step 4/5 of the recovery protocol: the downstream task requests the
    /// epochs it needs; buffers replay in original dispatch order.)
    pub fn open_replay(&self, channel: ChannelId, from_epoch: EpochId) -> ReplayCursor {
        let ch = &self.channels[channel as usize];
        let mut idx = ch.base_idx;
        for slot in &ch.slots {
            if slot.epoch() >= from_epoch {
                break;
            }
            idx += 1;
        }
        ReplayCursor { channel, next_idx: idx }
    }

    /// Fetch the next buffer under the cursor, reading back from the spill
    /// device if needed (with prefetch-friendly sequential access). Returns
    /// `None` when the cursor has caught up with the live end of the log —
    /// the caller then switches the channel back to normal sending.
    pub fn replay_next(
        &mut self,
        cursor: &mut ReplayCursor,
        spill: &mut SpillDevice,
    ) -> Option<(SentBuffer, VirtualDuration)> {
        let ch = &mut self.channels[cursor.channel as usize];
        if cursor.next_idx < ch.base_idx {
            // The requested epochs were truncated under us: resync forward.
            cursor.next_idx = ch.base_idx;
        }
        let off = (cursor.next_idx - ch.base_idx) as usize;
        let slot = ch.slots.get(off)?;
        cursor.next_idx += 1;
        match slot {
            Slot::Mem(b) => Some((b.clone(), VirtualDuration::ZERO)),
            Slot::Spilled { epoch, handle, delta, records, .. } => {
                // clonos-lint: allow(recovery-panic, reason = "a spilled buffer vanishing from the device is unrecoverable local corruption; returning None would silently drop in-flight records, which is worse")
                let (payload, io) = spill.read(*handle).expect("spilled buffer lost");
                self.stats.replay_io = self.stats.replay_io + io;
                Some((
                    SentBuffer { epoch: *epoch, payload, delta: delta.clone(), records: *records },
                    io,
                ))
            }
        }
    }

    /// Number of logged buffers per channel (tests / introspection).
    pub fn channel_len(&self, channel: ChannelId) -> usize {
        self.channels[channel as usize].slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(epoch: EpochId, size: usize, tag: u8) -> SentBuffer {
        SentBuffer {
            epoch,
            payload: Bytes::from(vec![tag; size]),
            delta: Bytes::new(),
            records: 1,
        }
    }

    fn log(policy: SpillPolicy, cap: usize) -> (InFlightLog, SpillDevice) {
        (InFlightLog::new(2, policy, cap), SpillDevice::new())
    }

    #[test]
    fn append_and_replay_in_order() {
        let (mut l, mut sp) = log(SpillPolicy::InMemory, 100);
        for i in 0..5u8 {
            l.append(0, buf(0, 10, i), &mut sp);
        }
        let mut cur = l.open_replay(0, 0);
        for i in 0..5u8 {
            let (b, _) = l.replay_next(&mut cur, &mut sp).unwrap();
            assert_eq!(b.payload[0], i);
        }
        assert!(l.replay_next(&mut cur, &mut sp).is_none());
        // Buffers appended *after* the cursor drained become visible — the
        // "unsent buffers at the back" behaviour.
        l.append(0, buf(1, 10, 9), &mut sp);
        let (b, _) = l.replay_next(&mut cur, &mut sp).unwrap();
        assert_eq!(b.payload[0], 9);
    }

    #[test]
    fn replay_from_epoch_skips_older() {
        let (mut l, mut sp) = log(SpillPolicy::InMemory, 100);
        l.append(0, buf(0, 4, 0), &mut sp);
        l.append(0, buf(1, 4, 1), &mut sp);
        l.append(0, buf(2, 4, 2), &mut sp);
        let mut cur = l.open_replay(0, 1);
        let (b, _) = l.replay_next(&mut cur, &mut sp).unwrap();
        assert_eq!(b.epoch, 1);
        let (b, _) = l.replay_next(&mut cur, &mut sp).unwrap();
        assert_eq!(b.epoch, 2);
        assert!(l.replay_next(&mut cur, &mut sp).is_none());
    }

    #[test]
    fn truncation_frees_memory_and_spill() {
        let (mut l, mut sp) = log(SpillPolicy::SpillBuffer, 100);
        l.append(0, buf(0, 100, 0), &mut sp);
        l.append(1, buf(1, 100, 1), &mut sp);
        assert_eq!(sp.resident_bytes(), 200);
        let dropped = l.truncate_through(0, &mut sp);
        assert_eq!(dropped, 1);
        assert_eq!(sp.resident_bytes(), 100);
        assert_eq!(l.channel_len(0), 0);
        assert_eq!(l.channel_len(1), 1);
    }

    #[test]
    fn in_memory_policy_signals_backpressure() {
        let (mut l, mut sp) = log(SpillPolicy::InMemory, 3);
        for i in 0..3u8 {
            assert!(!l.append(0, buf(0, 8, i), &mut sp).blocked);
        }
        let out = l.append(0, buf(0, 8, 3), &mut sp);
        assert!(out.blocked);
        assert_eq!(l.stats.blocked_appends, 1);
        assert_eq!(sp.bytes_written(), 0, "InMemory must never spill");
    }

    #[test]
    fn spill_buffer_policy_spills_everything_synchronously() {
        let (mut l, mut sp) = log(SpillPolicy::SpillBuffer, 3);
        for i in 0..5u8 {
            let out = l.append(0, buf(0, 64, i), &mut sp);
            assert!(out.io > VirtualDuration::ZERO);
            assert!(!out.blocked);
        }
        assert_eq!(l.resident_buffers(), 0);
        assert_eq!(l.stats.buffers_spilled, 5);
        // Replay reads them back intact, in order.
        let mut cur = l.open_replay(0, 0);
        for i in 0..5u8 {
            let (b, io) = l.replay_next(&mut cur, &mut sp).unwrap();
            assert_eq!(b.payload[0], i);
            assert!(io > VirtualDuration::ZERO);
        }
    }

    #[test]
    fn spill_epoch_policy_spills_on_epoch_advance() {
        let (mut l, mut sp) = log(SpillPolicy::SpillEpoch, 100);
        l.append(0, buf(0, 32, 0), &mut sp);
        l.append(1, buf(0, 32, 1), &mut sp);
        assert_eq!(l.stats.buffers_spilled, 0);
        // First epoch-1 buffer spills all epoch-0 buffers.
        l.append(0, buf(1, 32, 2), &mut sp);
        assert_eq!(l.stats.buffers_spilled, 2);
        assert_eq!(l.resident_buffers(), 1);
    }

    #[test]
    fn spill_threshold_batches() {
        let (mut l, mut sp) = log(SpillPolicy::SpillThreshold(0.5), 8);
        // Fill to just above half the pool: 5 resident of 8 => available 3/8 < 0.5.
        for i in 0..5u8 {
            l.append(0, buf(0, 16, i), &mut sp);
        }
        assert!(l.stats.buffers_spilled > 0, "threshold policy never engaged");
        assert!(sp.write_ops() < l.stats.buffers_spilled, "expected batched I/O");
        // All data still replayable in order.
        let mut cur = l.open_replay(0, 0);
        let mut seen = Vec::new();
        while let Some((b, _)) = l.replay_next(&mut cur, &mut sp) {
            seen.push(b.payload[0]);
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn delta_preserved_across_spill() {
        let (mut l, mut sp) = log(SpillPolicy::SpillBuffer, 4);
        let mut b = buf(0, 16, 7);
        b.delta = Bytes::from_static(b"delta-bytes");
        l.append(1, b, &mut sp);
        let mut cur = l.open_replay(1, 0);
        let (back, _) = l.replay_next(&mut cur, &mut sp).unwrap();
        assert_eq!(&back.delta[..], b"delta-bytes");
        assert_eq!(back.records, 1);
    }

    #[test]
    fn cursor_resyncs_past_truncation() {
        let (mut l, mut sp) = log(SpillPolicy::InMemory, 100);
        l.append(0, buf(0, 4, 0), &mut sp);
        l.append(0, buf(1, 4, 1), &mut sp);
        let mut cur = l.open_replay(0, 0);
        l.truncate_through(0, &mut sp);
        let (b, _) = l.replay_next(&mut cur, &mut sp).unwrap();
        assert_eq!(b.epoch, 1);
    }

    #[test]
    fn byte_accounting() {
        let (mut l, mut sp) = log(SpillPolicy::InMemory, 100);
        l.append(0, buf(0, 100, 0), &mut sp);
        l.append(1, buf(0, 50, 1), &mut sp);
        assert_eq!(l.resident_bytes(), 150);
        assert_eq!(l.total_bytes(), 150);
        let (mut l2, mut sp2) = log(SpillPolicy::SpillBuffer, 100);
        l2.append(0, buf(0, 100, 0), &mut sp2);
        assert_eq!(l2.resident_bytes(), 0);
        assert_eq!(l2.total_bytes(), 100);
    }
}
