//! Checkpoint snapshot store — the HDFS substitute.
//!
//! Stores operator-state snapshots keyed by `(checkpoint id, task key)` and
//! models the transfer cost that governs standby state dispatch (§6.4): a
//! snapshot "should not take longer to dispatch to a standby task than the
//! job's checkpoint frequency".
//!
//! A checkpoint image is stored as a **stack of deltamap layers**: the
//! checkpoint's live tier segments (tiered tasks only), then the base blob,
//! then each delta blob up to the checkpoint's own. Nothing here keeps a
//! folded copy; `get` folds the stack once, via
//! [`crate::deltamap::fold_layers`], when a task is restored. Writes are
//! charged transfer cost for the layer actually shipped — deltas cost
//! O(dirty), which is what keeps the §6.4 dispatch-time-vs-checkpoint-interval
//! bound honest under large state.

use crate::deltamap;
use bytes::Bytes;
use clonos_sim::{VirtualDuration, VirtualTime};
use std::collections::{BTreeMap, BTreeSet};

/// Identifies a completed (or in-progress) checkpoint.
pub type SnapshotId = u64;

/// Upper bound on delta-chain walks; real chains are bounded by the engine's
/// rebase interval, so hitting this means a corrupt parent pointer.
const MAX_CHAIN_LEN: usize = 4096;

/// Cost model for writing/reading snapshots over the network.
#[derive(Clone, Copy, Debug)]
pub struct TransferModel {
    /// Fixed per-transfer latency (connection setup, namenode round trip).
    pub latency: VirtualDuration,
    /// Sustained throughput in bytes per second.
    pub bytes_per_sec: u64,
}

impl TransferModel {
    pub fn transfer_time(&self, bytes: u64) -> VirtualDuration {
        let stream = bytes
            .saturating_mul(1_000_000)
            .checked_div(self.bytes_per_sec)
            .map(VirtualDuration::from_micros)
            .unwrap_or(VirtualDuration::ZERO);
        self.latency + stream
    }
}

impl Default for TransferModel {
    fn default() -> Self {
        // ~10 ms setup + 200 MB/s sustained: a modest distributed FS.
        TransferModel { latency: VirtualDuration::from_millis(10), bytes_per_sec: 200_000_000 }
    }
}

/// One stored layer: `parent` is `None` for a self-contained base image, or
/// the checkpoint whose image these bytes apply on top of.
#[derive(Clone, Debug)]
pub struct SnapshotBlob {
    pub bytes: Bytes,
    pub parent: Option<SnapshotId>,
}

/// The store itself.
///
/// Tiered-backend checkpoints additionally reference sealed tier segments
/// **by id**: the ack ships each segment payload exactly once (into the
/// `segments` arena, keyed `(task, segment id)` and refcounted), and every
/// checkpoint records its authoritative live-segment list in
/// `segment_refs`. The referenced payloads are the oldest layers of that
/// checkpoint's image; GC drops an arena payload only when the last
/// checkpoint referencing it is truncated.
#[derive(Debug, Default)]
pub struct SnapshotStore {
    snapshots: BTreeMap<(SnapshotId, u64), SnapshotBlob>,
    /// `(task, segment id) -> (payload, refcount)`.
    segments: BTreeMap<(u64, u64), (Bytes, u64)>,
    /// `(checkpoint, task) -> live segment ids in fold order`.
    segment_refs: BTreeMap<(SnapshotId, u64), Vec<u64>>,
    model: TransferModel,
    writes: u64,
    delta_writes: u64,
    segment_writes: u64,
    reads: u64,
    reconstructions: u64,
    reconstruct_us: u64,
}

impl SnapshotStore {
    pub fn new() -> SnapshotStore {
        SnapshotStore::default()
    }

    pub fn with_model(model: TransferModel) -> SnapshotStore {
        SnapshotStore { model, ..Default::default() }
    }

    /// Persist a task's full (base) image for a checkpoint; returns the
    /// modelled time the write completes if started at `now`.
    pub fn put(
        &mut self,
        now: VirtualTime,
        checkpoint: SnapshotId,
        task: u64,
        state: Bytes,
    ) -> VirtualTime {
        self.insert(now, checkpoint, task, None, state)
    }

    /// Persist a delta on top of `parent`'s image. Only the delta bytes are
    /// charged against the transfer model — the point of incremental
    /// checkpoints is that the barrier-path write cost is O(dirty).
    pub fn put_delta(
        &mut self,
        now: VirtualTime,
        checkpoint: SnapshotId,
        task: u64,
        parent: SnapshotId,
        delta: Bytes,
    ) -> VirtualTime {
        self.insert(now, checkpoint, task, Some(parent), delta)
    }

    fn insert(
        &mut self,
        now: VirtualTime,
        checkpoint: SnapshotId,
        task: u64,
        parent: Option<SnapshotId>,
        bytes: Bytes,
    ) -> VirtualTime {
        let done = now + self.model.transfer_time(bytes.len() as u64);
        self.snapshots.insert((checkpoint, task), SnapshotBlob { bytes, parent });
        self.writes += 1;
        self.delta_writes += u64::from(parent.is_some());
        done
    }

    /// Record a tiered checkpoint's segment references: `sealed` payloads
    /// enter the arena (each shipped exactly once), `live` is the
    /// checkpoint's authoritative id list in fold order. Returns the
    /// modelled transfer time for the shipped bytes — the caller adds it to
    /// the resident image's write time. Segments sealed then immediately
    /// compacted away (absent from every live list) are dropped.
    pub fn put_segments(
        &mut self,
        checkpoint: SnapshotId,
        task: u64,
        live: Vec<u64>,
        sealed: Vec<(u64, Bytes)>,
    ) -> VirtualDuration {
        let mut shipped = 8 * live.len() as u64;
        for (id, payload) in sealed {
            shipped += payload.len() as u64;
            self.segments.insert((task, id), (payload, 0));
            self.segment_writes += 1;
        }
        // A duplicate ack for the same (checkpoint, task) re-registers its
        // references; release the old list first so refcounts stay exact.
        if let Some(old) = self.segment_refs.insert((checkpoint, task), live) {
            self.release_refs(task, &old);
        }
        if let Some(ids) = self.segment_refs.get(&(checkpoint, task)).cloned() {
            for id in ids {
                if let Some(e) = self.segments.get_mut(&(task, id)) {
                    e.1 += 1;
                }
            }
        }
        // Anything still at refcount zero was never referenced (sealed and
        // compacted within one sync) — no checkpoint can ever need it.
        self.segments.retain(|_, (_, rc)| *rc > 0);
        self.model.transfer_time(shipped)
    }

    fn release_refs(&mut self, task: u64, ids: &[u64]) {
        for &id in ids {
            if let Some(e) = self.segments.get_mut(&(task, id)) {
                e.1 = e.1.saturating_sub(1);
                if e.1 == 0 {
                    self.segments.remove(&(task, id));
                }
            }
        }
    }

    /// The newest layer of `(checkpoint, task)`'s image — what a holder of
    /// its parent's image still lacks: the blob, and the payload bytes of the
    /// live segments the parent does not list (all of them under a base).
    pub fn newest_layer(&self, checkpoint: SnapshotId, task: u64) -> Option<(&SnapshotBlob, u64)> {
        let blob = self.snapshots.get(&(checkpoint, task))?;
        let live = |cp| self.segment_refs.get(&(cp, task)).map_or(&[][..], Vec::as_slice);
        let held = blob.parent.map_or(&[][..], live);
        let fresh = live(checkpoint).iter().filter(|id| !held.contains(id));
        let payloads = fresh.filter_map(|id| Some(self.segments.get(&(task, *id))?.0.len() as u64));
        Some((blob, payloads.sum()))
    }

    /// `(checkpoint, task)`'s blob and its ancestors, newest first, following
    /// parent pointers until a base, a missing link or the hop limit.
    fn chain(
        &self,
        checkpoint: SnapshotId,
        task: u64,
    ) -> impl Iterator<Item = (SnapshotId, &SnapshotBlob)> {
        let at = move |cp| self.snapshots.get(&(cp, task)).map(|blob| (cp, blob));
        std::iter::successors(at(checkpoint), move |(_, blob)| at(blob.parent?)).take(MAX_CHAIN_LEN)
    }

    /// The image of `(checkpoint, task)` as its layers, oldest first: the
    /// checkpoint's live tier segments, then the blob chain from the base up
    /// to the checkpoint's own blob. Also returns how many of the layers are
    /// segments (`None` for an untiered checkpoint). `None` if a chain link
    /// or a referenced payload is missing.
    fn layers(&self, checkpoint: SnapshotId, task: u64) -> Option<(Vec<&Bytes>, Option<usize>)> {
        let chain: Vec<&SnapshotBlob> = self.chain(checkpoint, task).map(|(_, b)| b).collect();
        // The walk must have ended at a base, not at a gap or the hop limit.
        if chain.last()?.parent.is_some() {
            return None;
        }
        let live = self.segment_refs.get(&(checkpoint, task));
        let mut layers = Vec::with_capacity(live.map_or(0, Vec::len) + chain.len());
        for id in live.into_iter().flatten() {
            layers.push(&self.segments.get(&(task, *id))?.0);
        }
        layers.extend(chain.iter().rev().map(|b| &b.bytes));
        Some((layers, live.map(Vec::len)))
    }

    /// Fold a layer stack into the full image. Sections are disjoint between
    /// segments (values) and blobs (everything else), so one pass over the
    /// whole stack yields the canonical image, byte-identical to an untiered
    /// full snapshot. A lone base blob already is that image.
    fn fold(layers: &[&Bytes]) -> Option<Bytes> {
        match layers {
            [base] => Some((*base).clone()),
            _ => {
                let refs: Vec<&[u8]> = layers.iter().map(|b| b.as_ref()).collect();
                deltamap::fold_layers(&refs, true).ok()
            }
        }
    }

    /// A task's full image for a checkpoint as [`Self::get`] returns it, for
    /// a reader that already holds the layers (an activated standby): no
    /// transfer is charged and no read is counted. `None` if a layer is
    /// missing or does not decode.
    pub fn image(&self, checkpoint: SnapshotId, task: u64) -> Option<Bytes> {
        Self::fold(&self.layers(checkpoint, task)?.0)
    }

    /// Fetch a task's *full* image for a checkpoint, folding its layer stack
    /// when it has more than the base; returns the bytes plus the modelled
    /// completion time of reading every layer starting at `now` (blob chain
    /// and segment payloads are two transfers).
    pub fn get(
        &mut self,
        now: VirtualTime,
        checkpoint: SnapshotId,
        task: u64,
    ) -> Option<(Bytes, VirtualTime)> {
        let (layers, segments) = self.layers(checkpoint, task)?;
        let size = |ls: &[&Bytes]| ls.iter().map(|b| b.len() as u64).sum::<u64>();
        let (segs, chain) = layers.split_at(segments.unwrap_or(0));
        let mut done = now + self.model.transfer_time(size(chain));
        if segments.is_some() {
            done += self.model.transfer_time(size(segs));
        }
        let reconstructed = chain.len() > 1 || segments.is_some();
        let image = Self::fold(&layers)?;
        if reconstructed {
            self.reconstructions += 1;
            self.reconstruct_us += done.saturating_sub(now).as_micros();
        }
        self.reads += 1;
        Some((image, done))
    }

    pub fn contains(&self, checkpoint: SnapshotId, task: u64) -> bool {
        self.snapshots.contains_key(&(checkpoint, task))
    }

    /// Checkpoint GC (Flink retains only the latest completed checkpoint):
    /// drop every blob not reachable — via parent pointers — from some blob
    /// with `cp >= keep_from`. Bases that still anchor a live delta chain
    /// survive even if older than `keep_from`; once a rebase supersedes a
    /// chain, the next GC collects the whole superseded chain.
    pub fn truncate_before(&mut self, keep_from: SnapshotId) {
        let mut keep: BTreeSet<(SnapshotId, u64)> = BTreeSet::new();
        for &(cp, task) in self.snapshots.keys().filter(|k| k.0 >= keep_from) {
            for (ancestor, _) in self.chain(cp, task) {
                if !keep.insert((ancestor, task)) {
                    break;
                }
            }
        }
        self.snapshots.retain(|k, _| keep.contains(k));
        // Release segment references held by truncated checkpoints; an
        // arena payload is deleted only when its last reference drops —
        // a segment shared across checkpoints must survive until every
        // checkpoint citing it is gone.
        let dead: Vec<((SnapshotId, u64), Vec<u64>)> = self
            .segment_refs
            .iter()
            .filter(|(k, _)| !keep.contains(k))
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        for ((_, task), ids) in dead {
            self.release_refs(task, &ids);
        }
        self.segment_refs.retain(|k, _| keep.contains(k));
    }

    pub fn total_bytes(&self) -> u64 {
        let blob: u64 = self.snapshots.values().map(|b| b.bytes.len() as u64).sum();
        blob + self.segment_arena_bytes()
    }

    /// Bytes held in the segment arena.
    pub fn segment_arena_bytes(&self) -> u64 {
        self.segments.values().map(|(b, _)| b.len() as u64).sum()
    }

    /// Distinct segment payloads currently in the arena.
    pub fn segment_arena_count(&self) -> u64 {
        self.segments.len() as u64
    }

    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Writes that shipped a delta rather than a full image.
    pub fn delta_writes(&self) -> u64 {
        self.delta_writes
    }

    /// Segment payloads shipped into the arena.
    pub fn segment_writes(&self) -> u64 {
        self.segment_writes
    }

    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Reads that had to fold more than a lone base blob into a full image.
    pub fn reconstructions(&self) -> u64 {
        self.reconstructions
    }

    /// Modelled virtual microseconds spent on chain-reconstruction reads.
    pub fn reconstruct_us(&self) -> u64 {
        self.reconstruct_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ByteWriter;
    use crate::deltamap::{write_put, write_tombstone};

    type TestEntry<'a> = (u8, &'a [u8], Option<&'a [u8]>);

    fn image(entries: &[TestEntry<'_>]) -> Bytes {
        let mut w = ByteWriter::new();
        w.put_varint(entries.len() as u64);
        for &(section, key, value) in entries {
            match value {
                Some(v) => write_put(&mut w, section, key, v),
                None => write_tombstone(&mut w, section, key),
            }
        }
        w.freeze()
    }

    #[test]
    fn put_get_roundtrip() {
        let mut s = SnapshotStore::new();
        let done = s.put(VirtualTime::ZERO, 1, 42, Bytes::from_static(b"state"));
        assert!(done > VirtualTime::ZERO);
        let (bytes, _) = s.get(VirtualTime::ZERO, 1, 42).unwrap();
        assert_eq!(&bytes[..], b"state");
        assert!(s.get(VirtualTime::ZERO, 1, 43).is_none());
        assert!(s.get(VirtualTime::ZERO, 2, 42).is_none());
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let m = TransferModel { latency: VirtualDuration::from_millis(10), bytes_per_sec: 1_000_000 };
        let small = m.transfer_time(1_000);
        let big = m.transfer_time(100_000_000); // 100 MB at 1 MB/s = 100 s
        assert!(big.as_secs_f64() > 99.0);
        assert!(small.as_millis() >= 10);
        assert!(small < big);
    }

    #[test]
    fn truncation_gc() {
        let mut s = SnapshotStore::new();
        for cp in 0..5 {
            s.put(VirtualTime::ZERO, cp, 1, Bytes::from_static(b"x"));
        }
        s.truncate_before(3);
        assert!(!s.contains(2, 1));
        assert!(s.contains(3, 1));
        assert!(s.contains(4, 1));
        assert_eq!(s.total_bytes(), 2);
    }

    #[test]
    fn overwrite_same_key_replaces() {
        let mut s = SnapshotStore::new();
        s.put(VirtualTime::ZERO, 1, 1, Bytes::from_static(b"old"));
        s.put(VirtualTime::ZERO, 1, 1, Bytes::from_static(b"newer"));
        let (b, _) = s.get(VirtualTime::ZERO, 1, 1).unwrap();
        assert_eq!(&b[..], b"newer");
        assert_eq!(s.writes(), 2);
        assert_eq!(s.reads(), 1);
    }

    #[test]
    fn delta_chain_reconstructs_full_image() {
        let mut s = SnapshotStore::new();
        s.put(VirtualTime::ZERO, 1, 7, image(&[(1, b"a", Some(b"1")), (1, b"b", Some(b"2"))]));
        s.put_delta(VirtualTime::ZERO, 2, 7, 1, image(&[(1, b"b", None), (1, b"c", Some(b"3"))]));
        s.put_delta(VirtualTime::ZERO, 3, 7, 2, image(&[(1, b"a", Some(b"9"))]));
        // The uncharged read folds the same image and leaves no trace.
        let unread = s.image(3, 7).unwrap();
        assert_eq!((s.reads(), s.reconstructions()), (0, 0));
        let (img, _) = s.get(VirtualTime::ZERO, 3, 7).unwrap();
        assert_eq!(img, image(&[(1, b"a", Some(b"9")), (1, b"c", Some(b"3"))]));
        assert_eq!(unread, img);
        // Intermediate chain members reconstruct too.
        let (img2, _) = s.get(VirtualTime::ZERO, 2, 7).unwrap();
        assert_eq!(img2, image(&[(1, b"a", Some(b"1")), (1, b"c", Some(b"3"))]));
        assert_eq!(s.reconstructions(), 2);
        assert!(s.reconstruct_us() > 0);
        assert_eq!(s.delta_writes(), 2);
    }

    #[test]
    fn broken_chain_is_a_miss_not_a_panic() {
        let mut s = SnapshotStore::new();
        s.put_delta(VirtualTime::ZERO, 2, 7, 1, image(&[(1, b"a", Some(b"1"))]));
        assert!(s.get(VirtualTime::ZERO, 2, 7).is_none());
        // Self-referential parent pointer terminates via the hop limit.
        s.put_delta(VirtualTime::ZERO, 5, 7, 5, image(&[]));
        assert!(s.get(VirtualTime::ZERO, 5, 7).is_none());
        assert!(s.image(5, 7).is_none());
        // So does a layer that does not decode.
        s.put(VirtualTime::ZERO, 8, 7, image(&[(1, b"a", Some(b"1"))]));
        s.put_delta(VirtualTime::ZERO, 9, 7, 8, Bytes::from_static(b"\x01garbage"));
        assert!(s.get(VirtualTime::ZERO, 9, 7).is_none());
        assert!(s.image(9, 7).is_none());
    }

    #[test]
    fn gc_keeps_bases_anchoring_live_chains() {
        let mut s = SnapshotStore::new();
        s.put(VirtualTime::ZERO, 1, 7, image(&[(1, b"a", Some(b"1"))]));
        s.put_delta(VirtualTime::ZERO, 2, 7, 1, image(&[(1, b"b", Some(b"2"))]));
        s.put_delta(VirtualTime::ZERO, 3, 7, 2, image(&[(1, b"c", Some(b"3"))]));
        s.truncate_before(3);
        // cp 3 needs 2 needs 1: all survive.
        assert!(s.contains(1, 7) && s.contains(2, 7) && s.contains(3, 7));
        assert!(s.get(VirtualTime::ZERO, 3, 7).is_some());
        // A rebase at cp 4 supersedes the chain; the next GC drops it whole.
        s.put(VirtualTime::ZERO, 4, 7, image(&[(1, b"z", Some(b"9"))]));
        s.truncate_before(4);
        assert!(!s.contains(1, 7) && !s.contains(2, 7) && !s.contains(3, 7));
        assert!(s.contains(4, 7));
    }

    #[test]
    fn segment_reconstruction_folds_values_under_resident_image() {
        let mut s = SnapshotStore::new();
        // Segments hold the values section (1); the resident image holds
        // meta (0) and a list (2). Disjoint sections merge canonically.
        let seg_a = image(&[(1, b"k1", Some(b"v1")), (1, b"k2", Some(b"old"))]);
        let seg_b = image(&[(1, b"k2", Some(b"new")), (1, b"k3", None)]);
        let resident = image(&[(0, b"", Some(b"meta")), (2, b"l", Some(b"list"))]);
        s.put(VirtualTime::ZERO, 1, 7, resident);
        let extra = s.put_segments(1, 7, vec![10, 11], vec![(10, seg_a), (11, seg_b)]);
        assert!(extra > VirtualDuration::ZERO);
        let (img, _) = s.get(VirtualTime::ZERO, 1, 7).unwrap();
        let expect = image(&[
            (0, b"", Some(b"meta")),
            (1, b"k1", Some(b"v1")),
            (1, b"k2", Some(b"new")),
            (2, b"l", Some(b"list")),
        ]);
        assert_eq!(img, expect);
        assert_eq!(s.reconstructions(), 1);
        assert_eq!(s.segment_writes(), 2);
    }

    #[test]
    fn missing_segment_payload_is_a_miss_not_a_panic() {
        let mut s = SnapshotStore::new();
        s.put(VirtualTime::ZERO, 1, 7, image(&[(0, b"", Some(b"m"))]));
        s.put_segments(1, 7, vec![99], vec![]); // referenced but never shipped
        assert!(s.get(VirtualTime::ZERO, 1, 7).is_none());
    }

    /// Satellite-2 regression: a segment shared by several checkpoint ids
    /// across a Base/Delta chain spanning a truncation boundary survives
    /// until the *last* reference drops.
    #[test]
    fn truncation_gc_drops_segments_only_at_last_reference() {
        let mut s = SnapshotStore::new();
        let seg_a = image(&[(1, b"a", Some(b"1"))]);
        let seg_b = image(&[(1, b"b", Some(b"2"))]);
        let seg_c = image(&[(1, b"c", Some(b"3"))]);
        let (seg_a_len, seg_b_len) = (seg_a.len() as u64, seg_b.len() as u64);
        // cp1: base, seals A. cp2: delta on 1, seals B, live [A, B].
        // cp3: delta on 2, seals nothing, live [A, B].
        s.put(VirtualTime::ZERO, 1, 7, image(&[(0, b"", Some(b"m1"))]));
        s.put_segments(1, 7, vec![1], vec![(1, seg_a)]);
        s.put_delta(VirtualTime::ZERO, 2, 7, 1, image(&[(0, b"", Some(b"m2"))]));
        s.put_segments(2, 7, vec![1, 2], vec![(2, seg_b)]);
        s.put_delta(VirtualTime::ZERO, 3, 7, 2, image(&[(0, b"", Some(b"m3"))]));
        s.put_segments(3, 7, vec![1, 2], vec![]);
        // A holder of the parent lacks only what was sealed since: B for
        // cp2, nothing for cp3, and under the base cp1 all of A.
        let lacks = |s: &SnapshotStore, cp| s.newest_layer(cp, 7).map(|(b, segs)| (b.parent, segs));
        assert_eq!(lacks(&s, 1), Some((None, seg_a_len)));
        assert_eq!(lacks(&s, 2), Some((Some(1), seg_b_len)));
        assert_eq!(lacks(&s, 3), Some((Some(2), 0)));
        assert_eq!(lacks(&s, 9), None);
        // Truncating to cp2 keeps the chain (cp1 anchors it) and thus every
        // segment reference.
        s.truncate_before(2);
        assert_eq!(s.segment_arena_count(), 2);
        assert!(s.get(VirtualTime::ZERO, 3, 7).is_some());
        // cp4 rebases: segment A was compacted away, C sealed; live [B, C].
        s.put(VirtualTime::ZERO, 4, 7, image(&[(0, b"", Some(b"m4"))]));
        s.put_segments(4, 7, vec![2, 3], vec![(3, seg_c)]);
        // GC to cp4: cps 1-3 drop. A's last reference drops with them; B is
        // still cited by cp4 and must survive.
        s.truncate_before(4);
        assert_eq!(s.segment_arena_count(), 2); // B and C
        let (img, _) = s.get(VirtualTime::ZERO, 4, 7).unwrap();
        let expect = image(&[
            (0, b"", Some(b"m4")),
            (1, b"b", Some(b"2")),
            (1, b"c", Some(b"3")),
        ]);
        assert_eq!(img, expect);
        // Dropping cp4 empties the arena entirely.
        s.truncate_before(5);
        assert_eq!(s.segment_arena_count(), 0);
        assert_eq!(s.total_bytes(), 0);
    }

    #[test]
    fn unreferenced_sealed_segment_is_dropped_immediately() {
        let mut s = SnapshotStore::new();
        s.put(VirtualTime::ZERO, 1, 7, image(&[(0, b"", Some(b"m"))]));
        // Segment 5 was sealed then compacted into 6 within the same sync:
        // it ships but no live list ever cites it.
        let extra = s.put_segments(
            1,
            7,
            vec![6],
            vec![(5, image(&[(1, b"x", Some(b"1"))])), (6, image(&[(1, b"x", Some(b"2"))]))],
        );
        assert!(extra > VirtualDuration::ZERO);
        assert_eq!(s.segment_arena_count(), 1);
        let (img, _) = s.get(VirtualTime::ZERO, 1, 7).unwrap();
        assert_eq!(img, image(&[(0, b"", Some(b"m")), (1, b"x", Some(b"2"))]));
    }

    #[test]
    fn delta_write_charges_delta_bytes_only() {
        let model =
            TransferModel { latency: VirtualDuration::ZERO, bytes_per_sec: 1_000_000 };
        let mut s = SnapshotStore::with_model(model);
        let big = vec![0u8; 1_000_000];
        let t_full = s.put(VirtualTime::ZERO, 1, 7, Bytes::from(big));
        let t_delta =
            s.put_delta(VirtualTime::ZERO, 2, 7, 1, Bytes::from_static(b"tiny delta"));
        assert!(t_full.as_secs_f64() > 0.9);
        assert!(t_delta.as_secs_f64() < 0.01);
    }
}
