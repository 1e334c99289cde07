//! Tiered log-structured store: keyed state ≫ RAM with O(dirty) checkpoints.
//!
//! The engine's `StateStore` keeps hot rows in memory; everything else lives
//! here, as immutable deltamap-format segments on a [`SpillDevice`] behind a
//! bounded memtable:
//!
//! - **Writes** reach level 0 as sealed segments, two ways. A producer that
//!   holds a whole sorted batch — the engine's checkpoint cut — streams it
//!   through [`TieredStore::begin_segment`] / [`TieredStore::seal`] into one
//!   segment, metadata built as the entries go by. Single writes
//!   ([`TieredStore::put`] / [`TieredStore::delete`]) land in the memtable
//!   (`BTreeMap` over full keys — section byte ++ key bytes, so byte-lex
//!   order equals `(section, key)` order), which is sealed through the same
//!   writer when its byte budget fills.
//! - **Compaction** is size-tiered and whole-level: when a level exceeds the
//!   fanout it folds into a single segment one level down via
//!   [`deltamap::fold_layers`], retaining tombstones unless nothing older
//!   exists beneath (the invariant that makes fold order = recovery order).
//! - **Freshness invariant**: every segment in level *l* is newer than every
//!   segment in level *l+1*, and within a level the front is oldest. The
//!   fold order (deepest level first, front to back, memtable last) is
//!   therefore oldest-first, exactly what `merge_chain`/`fold_layers` want.
//! - **Point reads** prune by key range, then by a bloom-style
//!   [`KeyFilter`], then read one sparse-index block — never a whole
//!   segment.
//! - **Bulk load** seeds key-disjoint chunks directly at the bottom level,
//!   skipping the write amplification of pushing 1e7 keys through L0. The
//!   bottom level compacts in place (tail-only while seeds remain) so seed
//!   chunks are never gratuitously rewritten.
//!
//! **Durability is the checkpoint's, not the tier's.** A tier lives and
//! dies with its task's incarnation: its device and tree are in-memory
//! state of that incarnation, and no second record of the tree is kept.
//! What survives a failure is the checkpoint — each cut's newly sealed
//! segments ride the task's ack into the snapshot store, and restore,
//! standby activation and global rollback fold them (DESIGN.md §3.9, §10.3).

pub mod filter;
pub mod segment;

pub use filter::{KeyFilter, KeyHash};
pub use segment::{SegmentMeta, SegmentWriter};

use crate::codec::{ByteWriter, CodecError};
use crate::deltamap;
use crate::spill::SpillDevice;
use bytes::Bytes;
use clonos_sim::VirtualDuration;
use std::collections::BTreeMap;

/// Tuning knobs. Defaults suit the engine's per-task stores; the bench
/// shrinks `memtable_bytes` to force tiering at small scale.
#[derive(Clone, Copy, Debug)]
pub struct TieredConfig {
    /// Memtable byte budget; exceeding it seals a level-0 segment.
    pub memtable_bytes: u64,
    /// Compact a level into the next when it holds more segments than this.
    pub level_fanout: usize,
    /// Sparse-index stride: one index entry per this many segment entries.
    pub index_every: usize,
    /// Bloom filter budget per key.
    pub filter_bits_per_key: u32,
    /// The bottom level: bulk-load target, and where compaction stops.
    pub bulk_level: u8,
    /// Target payload size for bulk-load chunks.
    pub bulk_segment_bytes: u64,
}

impl Default for TieredConfig {
    fn default() -> Self {
        TieredConfig {
            memtable_bytes: 1 << 20,
            level_fanout: 4,
            index_every: 16,
            filter_bits_per_key: 10,
            bulk_level: 6,
            bulk_segment_bytes: 4 << 20,
        }
    }
}

/// Counters surfaced through the engine's `StateBackendStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    pub flushes: u64,
    pub compactions: u64,
    pub point_reads: u64,
    /// Probes answered "definitely absent" by a segment's key filter.
    pub filter_negatives: u64,
    /// Probes that passed the filter but found no entry in the block
    /// (bloom false positives plus genuine in-range gaps).
    pub filter_false_positives: u64,
}

/// The tiered store. All iteration is over `BTreeMap`s and `Vec`s in
/// deterministic order; I/O cost accrues into `pending_io` for the caller
/// to charge against its service queue.
#[derive(Clone, Debug)]
pub struct TieredStore {
    cfg: TieredConfig,
    device: SpillDevice,
    /// Full key -> Some(value) | None (tombstone).
    memtable: BTreeMap<Vec<u8>, Option<Bytes>>,
    mem_bytes: u64,
    /// `levels[0]` is newest; within a level the front is oldest.
    levels: Vec<Vec<SegmentMeta>>,
    next_id: u64,
    /// Leading segments of the bottom level that came from `bulk_load`
    /// (key-disjoint seeds, exempt from in-place compaction).
    bulk_seeded: usize,
    /// Ids sealed since the last `take_sealed`, in seal order.
    pending: Vec<u64>,
    stats: TierStats,
    pending_io: VirtualDuration,
    /// Image buffer lent to each [`SegmentWriter`] in turn.
    scratch: ByteWriter,
}

/// Per-entry memtable bookkeeping overhead added to key+value bytes.
const MEM_ENTRY_OVERHEAD: u64 = 16;

impl TieredStore {
    pub fn new(cfg: TieredConfig, device: SpillDevice, id_base: u64) -> TieredStore {
        let levels = vec![Vec::new(); cfg.bulk_level as usize + 1];
        TieredStore {
            cfg,
            device,
            memtable: BTreeMap::new(),
            mem_bytes: 0,
            levels,
            next_id: id_base,
            bulk_seeded: 0,
            pending: Vec::new(),
            stats: TierStats::default(),
            pending_io: VirtualDuration::ZERO,
            scratch: ByteWriter::new(),
        }
    }

    /// `section ++ key`: how [`Self::bulk_load`] and [`Self::fold_entries`]
    /// spell a key.
    pub fn full_key(section: u8, key: &[u8]) -> Vec<u8> {
        let mut fk = Vec::with_capacity(1 + key.len());
        fk.push(section);
        fk.extend_from_slice(key);
        fk
    }

    pub fn put(&mut self, section: u8, key: &[u8], value: Bytes) {
        self.write(Self::full_key(section, key), Some(value));
    }

    pub fn delete(&mut self, section: u8, key: &[u8]) {
        self.write(Self::full_key(section, key), None);
    }

    fn write(&mut self, fk: Vec<u8>, value: Option<Bytes>) {
        let klen = fk.len() as u64;
        let weight = |v: &Option<Bytes>| {
            MEM_ENTRY_OVERHEAD + klen + v.as_ref().map_or(0, |b| b.len() as u64)
        };
        let added = weight(&value);
        if let Some(old) = self.memtable.insert(fk, value) {
            self.mem_bytes = self.mem_bytes.saturating_sub(weight(&old));
        }
        self.mem_bytes += added;
        if self.mem_bytes >= self.cfg.memtable_bytes {
            self.flush();
        }
    }

    /// Point read. `Ok(None)` means absent *or* tombstoned — the tier does
    /// not distinguish, and neither does the caller's fault path. A block
    /// the device no longer holds, or one that does not decode, is an error:
    /// a damaged tier must not read as "key absent".
    pub fn try_get(&mut self, section: u8, key: &[u8]) -> Result<Option<Bytes>, CodecError> {
        self.stats.point_reads += 1;
        // The full key is assembled on the stack (the engine's keys are 10
        // and 24 bytes), so a read allocates nothing but the value it returns.
        let mut buf = [0u8; 64];
        let Some(fk) = buf.get_mut(..=key.len()) else {
            return self.get_full(&Self::full_key(section, key));
        };
        if let Some((first, rest)) = fk.split_first_mut() {
            *first = section;
            rest.copy_from_slice(key);
        }
        self.get_full(fk)
    }

    /// [`Self::try_get`] for callers with no error path; a damaged block
    /// reads as absent.
    pub fn get(&mut self, section: u8, key: &[u8]) -> Option<Bytes> {
        self.try_get(section, key).ok().flatten()
    }

    fn get_full(&mut self, fk: &[u8]) -> Result<Option<Bytes>, CodecError> {
        if let Some(v) = self.memtable.get(fk) {
            return Ok(v.clone());
        }
        let hash = KeyHash::of(fk);
        // Newest first: L0 back-to-front, then each deeper level.
        for level in &self.levels {
            for m in level.iter().rev() {
                if !m.covers(fk) {
                    continue;
                }
                if !m.filter.may_contain_hash(hash) {
                    self.stats.filter_negatives += 1;
                    continue;
                }
                let Some((start, end)) = m.block_bounds(fk) else { continue };
                let block = end
                    .checked_sub(start)
                    .and_then(|len| self.device.read_range(m.handle, start, len));
                let Some((block, cost)) = block else {
                    let remaining = self.device.peek(m.handle).map_or(0, Bytes::len);
                    return Err(CodecError::UnexpectedEof { needed: end, remaining });
                };
                self.pending_io = self.pending_io + cost;
                match segment::search_block(&block, fk)? {
                    Some(hit) => return Ok(hit),
                    None => self.stats.filter_false_positives += 1,
                }
            }
        }
        Ok(None)
    }

    /// Write a payload to the device and give it identity; the caller places
    /// it. `None` for an empty segment (nothing to add).
    fn install(&mut self, payload: Bytes, parts: segment::SegmentParts) -> Option<SegmentMeta> {
        if parts.entries == 0 {
            return None;
        }
        let (handle, cost) = self.device.write(payload);
        self.pending_io = self.pending_io + cost;
        let id = self.next_id;
        self.next_id += 1;
        Some(SegmentMeta {
            id,
            handle,
            bytes: parts.bytes,
            entries: parts.entries,
            min_key: parts.min_key,
            max_key: parts.max_key,
            filter: parts.filter,
            index: parts.index,
        })
    }

    /// [`Self::install`] for a payload that arrives whole (a compaction fold,
    /// a bulk-load chunk): its metadata is read back out of it. `None` also
    /// for a malformed payload.
    fn build_meta(&mut self, payload: Bytes) -> Option<SegmentMeta> {
        let parts =
            segment::scan_image(&payload, self.cfg.index_every, self.cfg.filter_bits_per_key)
                .ok()?;
        self.install(payload, parts)
    }

    /// Start a level-0 segment of exactly `entries` entries, which the
    /// caller streams in canonical order through [`SegmentWriter::entry`]
    /// and hands to [`Self::seal`] — how a checkpoint cut's whole dirty set
    /// becomes one segment, written once.
    pub fn begin_segment(&mut self, entries: u64) -> SegmentWriter {
        let image = std::mem::take(&mut self.scratch);
        SegmentWriter::new(image, entries, self.cfg.index_every, self.cfg.filter_bits_per_key)
    }

    /// Seal a streamed segment as the newest of level 0. Whatever the
    /// memtable still holds was written earlier, so it is sealed first.
    pub fn seal(&mut self, segment: SegmentWriter) {
        self.flush();
        self.seal_newest(segment);
    }

    /// Seal the memtable into a level-0 segment. Returns false when there
    /// was nothing to flush.
    pub fn flush(&mut self) -> bool {
        if self.memtable.is_empty() {
            return false;
        }
        let mut segment = self.begin_segment(self.memtable.len() as u64);
        for (fk, v) in &self.memtable {
            let (&sec, key) = fk.split_first().unwrap_or((&0, &[]));
            let w = segment.entry(sec, key);
            match v {
                Some(val) => deltamap::write_put(w, sec, key, val),
                None => deltamap::write_tombstone(w, sec, key),
            }
        }
        self.memtable.clear();
        self.mem_bytes = 0;
        self.seal_newest(segment);
        true
    }

    fn seal_newest(&mut self, segment: SegmentWriter) {
        let (payload, parts, scratch) = segment.finish();
        self.scratch = scratch;
        if let Some(meta) = self.install(payload, parts) {
            self.stats.flushes += 1;
            self.pending.push(meta.id);
            if let Some(l0) = self.levels.get_mut(0) {
                l0.push(meta);
            }
        }
        self.maybe_compact();
    }

    fn maybe_compact(&mut self) {
        let bulk = self.cfg.bulk_level as usize;
        for l in 0..bulk {
            if self.levels.get(l).is_some_and(|lv| lv.len() > self.cfg.level_fanout) {
                self.compact_into_next(l);
            }
        }
        let tail_limit = self.bulk_seeded + 2 * self.cfg.level_fanout;
        if self.levels.get(bulk).is_some_and(|lv| lv.len() > tail_limit) {
            self.compact_bulk_tail();
        }
    }

    /// Fold the segments of level `l` into one segment appended to level
    /// `l+1`. Tombstones are dropped only when no older data exists beneath.
    ///
    /// The oldest segments go down as they are while each is at least as
    /// large as everything newer beside it (two or more always stay to be
    /// folded): such a segment would make up most of the fold, its bytes
    /// written — and shipped to the checkpoint store — again for nothing. A
    /// level that holds one large cut and a few small ones therefore costs
    /// what the small ones cost, which keeps compaction O(dirty).
    fn compact_into_next(&mut self, l: usize) {
        let mut victims = match self.levels.get_mut(l) {
            Some(lv) => std::mem::take(lv),
            None => return,
        };
        let mut newer: u64 = victims.iter().map(|m| m.bytes).sum();
        let large = victims.iter().take(victims.len().saturating_sub(2)).take_while(|m| {
            newer -= m.bytes;
            m.bytes >= newer
        });
        let moved = large.count();
        if let Some(lv) = self.levels.get_mut(l + 1) {
            lv.extend(victims.drain(..moved));
        }
        let deeper_empty = self.levels.iter().skip(l + 1).all(Vec::is_empty);
        let Some(folded) = self.fold_victims(&victims, deeper_empty) else {
            if let Some(lv) = self.levels.get_mut(l) {
                *lv = victims;
            }
            return;
        };
        self.finish_compaction(victims, folded, l + 1);
    }

    /// In-place compaction of the bottom level's non-seed tail. While bulk
    /// seeds remain in front (older data), tombstones must be retained.
    fn compact_bulk_tail(&mut self) {
        let bulk = self.cfg.bulk_level as usize;
        let seeds = self.bulk_seeded;
        let victims = match self.levels.get_mut(bulk) {
            Some(lv) if lv.len() > seeds => lv.split_off(seeds),
            _ => return,
        };
        let drop_tombstones = seeds == 0;
        let Some(folded) = self.fold_victims(&victims, drop_tombstones) else {
            if let Some(lv) = self.levels.get_mut(bulk) {
                lv.extend(victims);
            }
            return;
        };
        self.finish_compaction(victims, folded, bulk);
    }

    /// Read victim payloads (oldest first) and fold them into one image.
    /// `None` signals a decode failure — the caller restores the victims.
    fn fold_victims(&mut self, victims: &[SegmentMeta], drop_tombstones: bool) -> Option<Bytes> {
        let mut payloads = Vec::with_capacity(victims.len());
        for m in victims {
            let (b, cost) = self.device.read(m.handle)?;
            self.pending_io = self.pending_io + cost;
            payloads.push(b);
        }
        let refs: Vec<&[u8]> = payloads.iter().map(|b| b.as_ref()).collect();
        deltamap::fold_layers(&refs, drop_tombstones).ok()
    }

    fn finish_compaction(&mut self, victims: Vec<SegmentMeta>, folded: Bytes, level: usize) {
        for m in &victims {
            self.device.free(m.handle);
        }
        // A victim sealed but never shipped is subsumed by the fold; drop
        // it from the pending-publish set so acks only reference live ids.
        self.pending.retain(|id| !victims.iter().any(|m| m.id == *id));
        if let Some(meta) = self.build_meta(folded) {
            self.pending.push(meta.id);
            if let Some(lv) = self.levels.get_mut(level) {
                lv.push(meta);
            }
        }
        self.stats.compactions += 1;
    }

    /// Seed sorted, key-disjoint `(full key, value)` pairs directly into
    /// bottom-level chunks — the fast path for loading a restored image or
    /// a benchmark corpus without pushing everything through L0. Must only
    /// be called on a store with no overlapping data.
    pub fn bulk_load<I: IntoIterator<Item = (Vec<u8>, Bytes)>>(&mut self, entries: I) {
        let bulk = self.cfg.bulk_level as usize;
        let mut payloads = Vec::new();
        let mut body = ByteWriter::new();
        let mut count = 0u64;
        let seal = |body: &mut ByteWriter, count: &mut u64, payloads: &mut Vec<Bytes>| {
            if *count == 0 {
                return;
            }
            let mut w = ByteWriter::with_capacity(body.len() + 10);
            w.put_varint(*count);
            w.put_raw(body.as_slice());
            payloads.push(w.freeze());
            body.clear();
            *count = 0;
        };
        for (fk, val) in entries {
            let (&sec, key) = fk.split_first().unwrap_or((&0, &[]));
            deltamap::write_put(&mut body, sec, key, &val);
            count += 1;
            if body.len() as u64 >= self.cfg.bulk_segment_bytes {
                seal(&mut body, &mut count, &mut payloads);
            }
        }
        seal(&mut body, &mut count, &mut payloads);
        for p in payloads {
            if let Some(meta) = self.build_meta(p) {
                self.pending.push(meta.id);
                self.bulk_seeded += 1;
                if let Some(lv) = self.levels.get_mut(bulk) {
                    lv.push(meta);
                }
            }
        }
    }

    /// Drain segments sealed since the last call, with payloads — what a
    /// checkpoint ack ships to the snapshot store (each payload exactly
    /// once).
    pub fn take_sealed(&mut self) -> Vec<(u64, Bytes)> {
        let ids = std::mem::take(&mut self.pending);
        ids.into_iter()
            .filter_map(|id| {
                let m = self.levels.iter().flatten().find(|m| m.id == id)?;
                Some((id, self.device.peek(m.handle)?.clone()))
            })
            .collect()
    }

    /// Live segment ids in fold order (oldest first: deepest level first,
    /// front to back). A checkpoint's authoritative segment reference list.
    pub fn live_ids(&self) -> Vec<u64> {
        self.levels.iter().rev().flat_map(|l| l.iter().map(|m| m.id)).collect()
    }

    /// Canonical fold of the whole tier (segments oldest-first, memtable
    /// last), tombstones resolved. Reads via `peek` so observing the tier
    /// is free — this is the oracle/digest path.
    pub fn fold_entries(&self) -> BTreeMap<Vec<u8>, Bytes> {
        let mut map: BTreeMap<Vec<u8>, Bytes> = BTreeMap::new();
        for level in self.levels.iter().rev() {
            for m in level {
                let Some(payload) = self.device.peek(m.handle) else { continue };
                let Ok(entries) = deltamap::read_entries(payload) else { continue };
                for e in entries {
                    let mut fk = Vec::with_capacity(1 + e.key.len());
                    fk.push(e.section);
                    fk.extend_from_slice(e.key);
                    match e.value {
                        Some(v) => {
                            map.insert(fk, Bytes::copy_from_slice(v));
                        }
                        None => {
                            map.remove(&fk);
                        }
                    }
                }
            }
        }
        for (fk, v) in &self.memtable {
            match v {
                Some(b) => {
                    map.insert(fk.clone(), b.clone());
                }
                None => {
                    map.remove(fk);
                }
            }
        }
        map
    }

    /// Modelled I/O accrued since the last call — the caller charges it to
    /// its service queue.
    pub fn take_io(&mut self) -> VirtualDuration {
        std::mem::replace(&mut self.pending_io, VirtualDuration::ZERO)
    }

    pub fn stats(&self) -> TierStats {
        self.stats
    }

    pub fn segment_count(&self) -> u64 {
        self.levels.iter().map(|l| l.len() as u64).sum()
    }

    pub fn segment_bytes(&self) -> u64 {
        self.levels.iter().flatten().map(|m| m.bytes).sum()
    }

    pub fn memtable_len(&self) -> usize {
        self.memtable.len()
    }

    pub fn memtable_bytes(&self) -> u64 {
        self.mem_bytes
    }

    pub fn device(&self) -> &SpillDevice {
        &self.device
    }

    /// The test seam for damage: put `device` under the live tier, whose
    /// tree keeps reading the same handles. Tests hand in a device holding
    /// altered payloads, to check that a damaged tier fails closed.
    pub fn swap_device(&mut self, device: SpillDevice) {
        self.device = device;
    }

    /// The tier tree, newest level first.
    pub fn levels(&self) -> &[Vec<SegmentMeta>] {
        &self.levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> TieredConfig {
        TieredConfig {
            memtable_bytes: 256,
            level_fanout: 2,
            index_every: 4,
            filter_bits_per_key: 10,
            bulk_level: 3,
            bulk_segment_bytes: 512,
        }
    }

    fn store() -> TieredStore {
        TieredStore::new(small_cfg(), SpillDevice::new(), 0)
    }

    fn k(i: u64) -> [u8; 8] {
        i.to_be_bytes()
    }

    #[test]
    fn read_your_writes_through_memtable_and_segments() {
        let mut s = store();
        for i in 0..100u64 {
            s.put(1, &k(i), Bytes::from(format!("v{i}").into_bytes()));
        }
        s.flush();
        for i in 0..100u64 {
            assert_eq!(s.get(1, &k(i)), Some(Bytes::from(format!("v{i}").into_bytes())), "key {i}");
        }
        assert_eq!(s.get(1, &k(500)), None);
        assert!(s.stats().flushes >= 1);
    }

    #[test]
    fn newest_write_wins_across_levels() {
        let mut s = store();
        s.put(1, &k(7), Bytes::from_static(b"old"));
        s.flush();
        s.put(1, &k(7), Bytes::from_static(b"new"));
        s.flush();
        assert_eq!(s.get(1, &k(7)), Some(Bytes::from_static(b"new")));
    }

    #[test]
    fn tombstones_shadow_older_levels_and_survive_compaction() {
        let mut s = store();
        for i in 0..40u64 {
            s.put(1, &k(i), Bytes::from(vec![b'x'; 16]));
        }
        s.flush();
        s.delete(1, &k(5));
        s.flush();
        assert_eq!(s.get(1, &k(5)), None);
        // Force compactions; the delete must not resurrect.
        for round in 0..8u64 {
            for i in 40..60u64 {
                s.put(1, &k(i), Bytes::from(vec![b'y'; 16 + round as usize]));
            }
            s.flush();
        }
        assert!(s.stats().compactions > 0);
        assert_eq!(s.get(1, &k(5)), None);
        assert_eq!(s.get(1, &k(6)), Some(Bytes::from(vec![b'x'; 16])));
    }

    #[test]
    fn fold_entries_matches_model() {
        let mut s = store();
        let mut model: BTreeMap<Vec<u8>, Bytes> = BTreeMap::new();
        for i in 0..120u64 {
            let key = k(i % 37);
            if i % 5 == 4 {
                s.delete(1, &key);
                model.remove(&TieredStore::full_key(1, &key));
            } else {
                let v = Bytes::from(format!("val{i}").into_bytes());
                s.put(1, &key, v.clone());
                model.insert(TieredStore::full_key(1, &key), v);
            }
            if i % 13 == 0 {
                s.flush();
            }
        }
        assert_eq!(s.fold_entries(), model);
    }

    #[test]
    fn bulk_load_seeds_bottom_level_and_serves_reads() {
        let mut s = store();
        let entries: Vec<(Vec<u8>, Bytes)> = (0..200u64)
            .map(|i| (TieredStore::full_key(1, &k(i)), Bytes::from(format!("bulk{i}").into_bytes())))
            .collect();
        s.bulk_load(entries);
        let bulk = small_cfg().bulk_level as usize;
        assert!(s.levels()[bulk].len() > 1, "expected multiple seed chunks");
        assert_eq!(s.get(1, &k(150)), Some(Bytes::from_static(b"bulk150")));
        // Overwrites through the normal path shadow the seeds.
        s.put(1, &k(150), Bytes::from_static(b"hot"));
        s.flush();
        assert_eq!(s.get(1, &k(150)), Some(Bytes::from_static(b"hot")));
        s.delete(1, &k(151));
        s.flush();
        assert_eq!(s.get(1, &k(151)), None);
    }

    #[test]
    fn a_damaged_block_is_an_error_not_an_absent_key() {
        let mut s = store();
        for i in 0..8u64 {
            s.put(1, &k(i), Bytes::from(vec![b'v'; 8]));
        }
        s.flush();
        let payload = s.device().peek(s.levels()[0][0].handle).expect("sealed payload").to_vec();
        // The one segment's handle, on a device holding `payload` instead.
        let device_with = |payload: Vec<u8>| {
            let mut device = SpillDevice::new();
            device.write(Bytes::from(payload));
            device
        };
        // count ++ [section, key len, 8 key bytes, op, ..]: the first op byte.
        let mut flipped = payload.clone();
        flipped[11] ^= 0xFF;
        s.swap_device(device_with(flipped));
        assert_eq!(
            s.try_get(1, &k(0)),
            Err(CodecError::InvalidTag { context: "deltamap op", tag: 0xFE })
        );
        assert_eq!(s.get(1, &k(0)), None, "`get` has no error path");
        assert_eq!(s.try_get(1, &k(99)), Ok(None), "range and filter still answer from memory");
        // `index_every` is 4: key 7 sits in the second block, now short.
        let mut short = payload.clone();
        short.truncate(payload.len() - 3);
        s.swap_device(device_with(short));
        assert_eq!(s.try_get(1, &k(0)), Ok(Some(Bytes::from(vec![b'v'; 8]))));
        assert!(matches!(s.try_get(1, &k(7)), Err(CodecError::UnexpectedEof { .. })));
        // A payload the device no longer holds at all.
        s.swap_device(SpillDevice::new());
        assert!(matches!(s.try_get(1, &k(0)), Err(CodecError::UnexpectedEof { remaining: 0, .. })));
    }

    #[test]
    fn a_streamed_segment_is_newer_than_the_memtable_it_follows() {
        let mut s = store();
        s.put(1, &k(1), Bytes::from_static(b"memtable"));
        s.put(1, &k(2), Bytes::from_static(b"memtable"));
        let mut segment = s.begin_segment(2);
        deltamap::write_put(segment.entry(1, &k(2)), 1, &k(2), b"streamed");
        deltamap::write_tombstone(segment.entry(1, &k(3)), 1, &k(3));
        s.seal(segment);
        assert_eq!(s.memtable_len(), 0, "sealed first");
        assert_eq!(s.stats().flushes, 2);
        assert_eq!(s.get(1, &k(1)), Some(Bytes::from_static(b"memtable")));
        assert_eq!(s.get(1, &k(2)), Some(Bytes::from_static(b"streamed")));
        assert_eq!(s.get(1, &k(3)), None);
        // What the writer collected is what a scan of the payload finds.
        let meta = s.levels()[0].last().expect("streamed segment");
        let payload = s.device().peek(meta.handle).expect("payload");
        let scanned = segment::scan_image(payload, small_cfg().index_every, 10).expect("well-formed");
        assert_eq!((meta.bytes, meta.entries), (scanned.bytes, scanned.entries));
        assert_eq!((&meta.min_key, &meta.max_key), (&scanned.min_key, &scanned.max_key));
        assert_eq!((&meta.filter, &meta.index), (&scanned.filter, &scanned.index));
        // An empty cut seals nothing.
        let empty = s.begin_segment(0);
        s.seal(empty);
        assert_eq!((s.stats().flushes, s.segment_count()), (2, 2));
    }

    #[test]
    fn a_large_segment_moves_down_a_spilling_level_without_being_rewritten() {
        let mut s = store(); // fanout 2
        let mut large = s.begin_segment(400);
        for i in 0..400u64 {
            deltamap::write_put(large.entry(2, &k(i)), 2, &k(i), &[b'G'; 32]);
        }
        s.seal(large);
        let large_id = *s.live_ids().last().expect("just sealed");
        s.take_sealed();
        // Small cuts on top until level 0 spills, more than once.
        for round in 0..6u64 {
            let mut small = s.begin_segment(1);
            deltamap::write_put(small.entry(1, &k(round)), 1, &k(round), b"small");
            s.seal(small);
        }
        let (level, moved) = s
            .levels()
            .iter()
            .enumerate()
            .find_map(|(l, lv)| Some((l, lv.iter().find(|m| m.id == large_id)?)))
            .expect("still live");
        let bytes = moved.bytes as usize;
        assert!(level > 0, "went down, as itself");
        assert!(
            s.take_sealed().iter().all(|(_, payload)| payload.len() < bytes / 4),
            "and what it was folded with cost what the small cuts cost"
        );
        assert_eq!(s.get(2, &k(399)), Some(Bytes::from(vec![b'G'; 32])));
        assert_eq!(s.get(1, &k(3)), Some(Bytes::from_static(b"small")));
    }

    #[test]
    fn take_sealed_ships_each_payload_once_and_live_ids_cover_tree() {
        let mut s = store();
        for i in 0..50u64 {
            s.put(1, &k(i), Bytes::from(vec![b'z'; 20]));
        }
        s.flush();
        let sealed = s.take_sealed();
        assert!(!sealed.is_empty());
        let live = s.live_ids();
        for (id, payload) in &sealed {
            assert!(live.contains(id));
            assert!(!payload.is_empty());
        }
        // Already drained: nothing new without further writes.
        assert!(s.take_sealed().is_empty());
        // Every live id has exactly one meta in the tree.
        let mut seen = std::collections::BTreeSet::new();
        for id in &live {
            assert!(seen.insert(*id), "duplicate live id {id}");
        }
        assert_eq!(live.len() as u64, s.segment_count());
    }

    #[test]
    fn io_is_charged_for_reads_and_writes() {
        let mut s = store();
        for i in 0..100u64 {
            s.put(1, &k(i), Bytes::from(vec![b'q'; 32]));
        }
        s.flush();
        assert!(s.take_io() > VirtualDuration::ZERO);
        let _ = s.get(1, &k(42));
        assert!(s.take_io() > VirtualDuration::ZERO);
        // Oracle fold is free.
        let _ = s.fold_entries();
        assert_eq!(s.take_io(), VirtualDuration::ZERO);
    }
}
