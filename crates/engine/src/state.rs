//! Keyed operator state with incremental (copy-on-write) snapshots.
//!
//! Operators keep all their state here so the engine can checkpoint and
//! restore it uniformly: value state, list state (window contents, join
//! buffers), and the registered timers (Flink likewise snapshots timers).
//!
//! Every mutation marks its `(section, key)` dirty; at a barrier the task
//! streams one image layer into a reusable [`ByteWriter`] through
//! [`StateStore::write_entries`]: the *full* canonical image, or only the
//! dirty entries (puts for keys still present, tombstones for removed ones)
//! — the O(dirty) barrier path of incremental checkpointing. A tiered store
//! leaves the values section out of either kind: its values travel as tier
//! segments, which are older layers of the same image. Layers use the
//! sectioned delta-map format of [`clonos_storage::deltamap`], with
//! fixed-width big-endian keys so the store's canonical `(section, byte-lex
//! key)` order equals numeric order and folding base + deltas is
//! byte-identical to a full snapshot taken at the same epoch.

use crate::metrics::StateBackendStats;
use crate::record::Row;
use clonos_sim::VirtualDuration;
use clonos_storage::codec::{ByteReader, ByteWriter, CodecError};
use clonos_storage::deltamap::{self, EntryRef};
use clonos_storage::{SpillDevice, TieredConfig, TieredStore};
use bytes::Bytes;
use std::collections::{BTreeMap, BTreeSet};

/// Identifier of a named state within an operator (e.g. "counts" = 0).
pub type StateId = u16;

/// Image section carrying the task's execution-progress scalars (written by
/// the task layer; the state store only owns sections 1..=4).
pub const SEC_META: u8 = 0;
/// Value-state entries: key = state id (2B BE) + key (8B BE), value = row.
pub const SEC_VALUES: u8 = 1;
/// List-state entries: same key shape, value = varint count + rows.
pub const SEC_LISTS: u8 = 2;
/// Event-time timers: key = ts/key/tag (8B BE each), empty value.
pub const SEC_EVENT_TIMERS: u8 = 3;
/// Processing-time timers: same shape as event timers.
pub const SEC_PROC_TIMERS: u8 = 4;

/// An event- or processing-time timer owned by a key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct StateTimer {
    /// Firing time: event time (watermark domain) or virtual processing time.
    pub ts: u64,
    pub key: u64,
    /// Operator-defined discriminator (e.g. window start).
    pub tag: u64,
}

fn kv_key(id: StateId, key: u64) -> [u8; 10] {
    let mut k = [0u8; 10];
    k[..2].copy_from_slice(&id.to_be_bytes());
    k[2..].copy_from_slice(&key.to_be_bytes());
    k
}

fn timer_key(t: &StateTimer) -> [u8; 24] {
    let mut k = [0u8; 24];
    k[..8].copy_from_slice(&t.ts.to_be_bytes());
    k[8..16].copy_from_slice(&t.key.to_be_bytes());
    k[16..].copy_from_slice(&t.tag.to_be_bytes());
    k
}

fn decode_kv_key(key: &[u8]) -> Result<(StateId, u64), CodecError> {
    if key.len() != 10 {
        return Err(CodecError::UnexpectedEof { needed: 10, remaining: key.len() });
    }
    let id = StateId::from_be_bytes([key[0], key[1]]);
    let mut k = [0u8; 8];
    k.copy_from_slice(&key[2..]);
    Ok((id, u64::from_be_bytes(k)))
}

fn decode_timer_key(key: &[u8]) -> Result<StateTimer, CodecError> {
    if key.len() != 24 {
        return Err(CodecError::UnexpectedEof { needed: 24, remaining: key.len() });
    }
    let mut a = [0u8; 8];
    a.copy_from_slice(&key[..8]);
    let ts = u64::from_be_bytes(a);
    a.copy_from_slice(&key[8..16]);
    let k = u64::from_be_bytes(a);
    a.copy_from_slice(&key[16..]);
    Ok(StateTimer { ts, key: k, tag: u64::from_be_bytes(a) })
}

/// Structural size estimate of a row (bytes), used for resident-cache
/// accounting under a memory budget. Mirrors the encoded size closely
/// enough for budgeting without encoding.
fn approx_row_bytes(row: &Row) -> u64 {
    use crate::record::Datum;
    let mut b = 8u64; // row header + field count
    for d in &row.0 {
        b += match d {
            Datum::Null | Datum::Bool(_) => 2,
            Datum::Int(_) => 10,
            Datum::Float(_) => 9,
            Datum::Str(s) => s.len() as u64 + 5,
        };
    }
    b
}

/// Resident weight of one value entry: row bytes plus key/map overhead.
fn entry_weight(row: &Row) -> u64 {
    18 + approx_row_bytes(row)
}

/// The tiered half of a budgeted store: the log-structured tier holding the
/// authoritative value state, plus the LRU bookkeeping for the resident
/// cache (`StateStore::values` becomes the cache when this is present).
///
/// Invariants (DESIGN.md §10):
/// - a **dirty** value key is always resident — eviction re-ranks it to MRU
///   instead of dropping it, so the O(dirty) change log never needs the tier;
/// - a **clean** resident row is byte-identical to its tier image (it was
///   synced, faulted in, or bulk-loaded from exactly those bytes), so
///   eviction is always safe and the canonical fold never consults the cache
///   except through the dirty overlay.
#[derive(Debug)]
struct TieredState {
    tier: TieredStore,
    /// Resident-cache budget in (approximate) bytes.
    budget: u64,
    /// Current resident weight of all cached rows.
    resident_bytes: u64,
    /// Monotonic access clock — LRU order without wall time.
    tick: u64,
    /// Clean-row LRU index: only *evictable* (synced) rows are tracked.
    /// Dirty rows leave the structure the moment they are mutated and
    /// rejoin as MRU when a sync cleans them — so eviction pops candidates
    /// in O(log n) instead of scanning past pinned dirty entries.
    last_access: BTreeMap<(StateId, u64), u64>,
    by_tick: BTreeMap<u64, (StateId, u64)>,
    faults: u64,
    evictions: u64,
    /// Modelled tier I/O accrued since the last [`StateStore::take_tier_io`].
    io: VirtualDuration,
    /// Cumulative drained I/O, for stats.
    io_us: u64,
}

impl TieredState {
    fn touch(&mut self, k: (StateId, u64)) {
        if let Some(old) = self.last_access.get(&k).copied() {
            self.by_tick.remove(&old);
        }
        self.tick += 1;
        self.by_tick.insert(self.tick, k);
        self.last_access.insert(k, self.tick);
    }

    fn forget(&mut self, k: &(StateId, u64)) {
        if let Some(old) = self.last_access.remove(k) {
            self.by_tick.remove(&old);
        }
    }
}

/// The per-task keyed state store.
#[derive(Debug, Default)]
pub struct StateStore {
    /// All value state (untiered), or the bounded resident cache of it
    /// (tiered — the [`TieredState`] tier is then authoritative).
    tiered: Option<Box<TieredState>>,
    values: BTreeMap<(StateId, u64), Row>,
    lists: BTreeMap<(StateId, u64), Vec<Row>>,
    event_timers: BTreeSet<StateTimer>,
    proc_timers: BTreeSet<StateTimer>,
    // Epoch-scoped dirty tracking: every key mutated (inserted, updated or
    // removed) since the last snapshot encoding. Presence in the live map at
    // encode time decides put vs tombstone.
    dirty_values: BTreeSet<(StateId, u64)>,
    dirty_lists: BTreeSet<(StateId, u64)>,
    dirty_event_timers: BTreeSet<StateTimer>,
    dirty_proc_timers: BTreeSet<StateTimer>,
}

impl StateStore {
    pub fn new() -> StateStore {
        StateStore::default()
    }

    // ----- value state -----

    /// Read a value. Under tiering this may fault the row in from a segment
    /// (hence `&mut`); the modelled I/O accrues until [`Self::take_tier_io`].
    pub fn value(&mut self, id: StateId, key: u64) -> Option<&Row> {
        if self.tiered.is_some() {
            self.fault_value(id, key);
            // Only clean rows live in the LRU index; a dirty row is pinned
            // resident anyway and rejoins the index at the next sync.
            if self.values.contains_key(&(id, key)) && !self.dirty_values.contains(&(id, key)) {
                if let Some(t) = self.tiered.as_deref_mut() {
                    t.touch((id, key));
                }
            }
        }
        self.values.get(&(id, key))
    }

    pub fn set_value(&mut self, id: StateId, key: u64, row: Row) {
        self.dirty_values.insert((id, key));
        if self.tiered.is_some() {
            let weight = entry_weight(&row);
            let old = self.values.insert((id, key), row);
            if let Some(t) = self.tiered.as_deref_mut() {
                if let Some(old) = &old {
                    t.resident_bytes = t.resident_bytes.saturating_sub(entry_weight(old));
                }
                t.resident_bytes += weight;
                // Now dirty: leave the clean-LRU until a sync cleans it.
                t.forget(&(id, key));
            }
            self.evict_excess();
        } else {
            self.values.insert((id, key), row);
        }
    }

    pub fn take_value(&mut self, id: StateId, key: u64) -> Option<Row> {
        if self.tiered.is_some() {
            self.fault_value(id, key);
        }
        let prev = self.values.remove(&(id, key));
        if let Some(t) = self.tiered.as_deref_mut() {
            if let Some(row) = &prev {
                t.resident_bytes = t.resident_bytes.saturating_sub(entry_weight(row));
                t.forget(&(id, key));
            }
        }
        if prev.is_some() {
            self.dirty_values.insert((id, key));
        }
        prev
    }

    /// Iterate resident values of one state id. Under tiering only cached
    /// rows are visited — use the snapshot fold for a complete view.
    pub fn values_of(&self, id: StateId) -> impl Iterator<Item = (u64, &Row)> {
        self.values.range((id, 0)..=(id, u64::MAX)).map(|(&(_, k), v)| (k, v))
    }

    /// Pull a missing row out of the tier into the resident cache. A key in
    /// `dirty_values` but absent from the cache is a pending deletion — the
    /// tier may still hold the old row, so it must not be consulted.
    fn fault_value(&mut self, id: StateId, key: u64) {
        if self.values.contains_key(&(id, key)) || self.dirty_values.contains(&(id, key)) {
            return;
        }
        let Some(t) = self.tiered.as_deref_mut() else { return };
        let got = t.tier.get(SEC_VALUES, &kv_key(id, key));
        t.io = t.io + t.tier.take_io();
        let Some(bytes) = got else { return };
        let mut r = ByteReader::new(&bytes);
        let Ok(row) = Row::decode(&mut r) else { return };
        t.faults += 1;
        t.resident_bytes += entry_weight(&row);
        t.touch((id, key));
        self.values.insert((id, key), row);
        // The caller is about to hand out `&Row` for this key: it must stay
        // resident through the read even if it is the only clean row left.
        self.evict_excess_except(Some((id, key)));
    }

    /// Evict clean LRU rows until the resident cache fits its budget. Dirty
    /// rows are not candidates (the change log must stay resident until the
    /// next sync); an all-dirty cache that cannot fit simply stays over
    /// budget until a sync cleans it.
    fn evict_excess(&mut self) {
        self.evict_excess_except(None);
    }

    /// [`Self::evict_excess`] with one key pinned: the row a faulting read
    /// just brought in is exempt, otherwise a cache whose every other row is
    /// dirty would evict the row the caller is about to return a reference
    /// to — the read would observe a spurious `None`.
    fn evict_excess_except(&mut self, pin: Option<(StateId, u64)>) {
        let Some(t) = self.tiered.as_deref_mut() else { return };
        while t.resident_bytes > t.budget {
            let Some((&tick, &k)) = t.by_tick.iter().next() else { break };
            if self.dirty_values.contains(&k) {
                // Belt and braces: a dirty row must never be evicted (its
                // change is not in the tier yet). It should not be in the
                // clean-LRU at all; drop the stale index entry and move on.
                t.by_tick.remove(&tick);
                t.last_access.remove(&k);
                continue;
            }
            if pin == Some(k) {
                if t.by_tick.len() == 1 {
                    break; // nothing else to evict; stay over budget
                }
                t.by_tick.remove(&tick);
                t.tick += 1;
                t.by_tick.insert(t.tick, k);
                t.last_access.insert(k, t.tick);
                continue;
            }
            t.by_tick.remove(&tick);
            t.last_access.remove(&k);
            if let Some(row) = self.values.remove(&k) {
                t.resident_bytes = t.resident_bytes.saturating_sub(entry_weight(&row));
                t.evictions += 1;
            }
        }
    }

    // ----- list state -----

    pub fn list(&self, id: StateId, key: u64) -> &[Row] {
        self.lists.get(&(id, key)).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn push_list(&mut self, id: StateId, key: u64, row: Row) {
        self.dirty_lists.insert((id, key));
        self.lists.entry((id, key)).or_default().push(row);
    }

    pub fn take_list(&mut self, id: StateId, key: u64) -> Vec<Row> {
        match self.lists.remove(&(id, key)) {
            Some(rows) => {
                self.dirty_lists.insert((id, key));
                rows
            }
            None => Vec::new(),
        }
    }

    pub fn lists_of(&self, id: StateId) -> impl Iterator<Item = (u64, &Vec<Row>)> {
        self.lists.range((id, 0)..=(id, u64::MAX)).map(|(&(_, k), v)| (k, v))
    }

    // ----- timers -----

    pub fn register_event_timer(&mut self, t: StateTimer) {
        self.dirty_event_timers.insert(t);
        self.event_timers.insert(t);
    }

    pub fn register_proc_timer(&mut self, t: StateTimer) {
        self.dirty_proc_timers.insert(t);
        self.proc_timers.insert(t);
    }

    /// Pop all event timers with `ts <= watermark`, in firing order.
    pub fn pop_due_event_timers(&mut self, watermark: u64) -> Vec<StateTimer> {
        let mut due = Vec::new();
        while let Some(&t) = self.event_timers.iter().next() {
            if t.ts > watermark {
                break;
            }
            self.event_timers.remove(&t);
            self.dirty_event_timers.insert(t);
            due.push(t);
        }
        due
    }

    /// Remove and return a specific processing-time timer if registered.
    pub fn take_proc_timer(&mut self, t: StateTimer) -> bool {
        let removed = self.proc_timers.remove(&t);
        if removed {
            self.dirty_proc_timers.insert(t);
        }
        removed
    }

    pub fn proc_timers(&self) -> impl Iterator<Item = &StateTimer> {
        self.proc_timers.iter()
    }

    pub fn event_timers_len(&self) -> usize {
        self.event_timers.len()
    }

    /// Number of resident keyed entries (rough state-size metric; under
    /// tiering, evicted value keys are not counted).
    pub fn entries(&self) -> usize {
        self.values.len() + self.lists.len()
    }

    // ----- tiered backend (DESIGN.md §10) -----

    /// Switch value state onto the tiered log-structured backend with a
    /// resident-cache budget of `budget` bytes. Existing values are
    /// bulk-loaded into the bottom tier level as key-disjoint segments, then
    /// the cache is trimmed to budget. `id_base` namespaces the segment ids
    /// this store mints (callers fold in task id + incarnation so ids never
    /// collide across an arena shared by many tasks and generations).
    pub fn enable_tiering(&mut self, budget: u64, id_base: u64) {
        let mut cfg = TieredConfig::default();
        cfg.memtable_bytes = (budget / 4).clamp(4096, cfg.memtable_bytes);
        let mut tier = TieredStore::new(cfg, SpillDevice::new(), id_base);
        if !self.values.is_empty() {
            let entries = self.values.iter().map(|(&(id, key), row)| {
                let mut rw = ByteWriter::new();
                row.encode(&mut rw);
                let mut fk = Vec::with_capacity(11);
                fk.push(SEC_VALUES);
                fk.extend_from_slice(&kv_key(id, key));
                (fk, rw.freeze())
            });
            tier.bulk_load(entries);
        }
        let io = tier.take_io();
        let mut t = Box::new(TieredState {
            tier,
            budget,
            resident_bytes: 0,
            tick: 0,
            last_access: BTreeMap::new(),
            by_tick: BTreeMap::new(),
            faults: 0,
            evictions: 0,
            io,
            io_us: 0,
        });
        for (&k, row) in &self.values {
            t.resident_bytes += entry_weight(row);
            if self.dirty_values.contains(&k) {
                continue; // dirty rows join the clean-LRU at the next sync
            }
            t.tick += 1;
            t.by_tick.insert(t.tick, k);
            t.last_access.insert(k, t.tick);
        }
        self.tiered = Some(t);
        self.evict_excess();
    }

    pub fn tiering_enabled(&self) -> bool {
        self.tiered.is_some()
    }

    /// Route the dirty value change-log into the tier memtable (put for a
    /// present key, tombstone for a removed one) without clearing it.
    fn tier_sync_values(&mut self) {
        let Some(t) = self.tiered.as_deref_mut() else { return };
        for &(id, key) in &self.dirty_values {
            match self.values.get(&(id, key)) {
                Some(row) => {
                    let mut rw = ByteWriter::new();
                    row.encode(&mut rw);
                    t.tier.put(SEC_VALUES, &kv_key(id, key), rw.freeze());
                }
                None => t.tier.delete(SEC_VALUES, &kv_key(id, key)),
            }
        }
        t.io = t.io + t.tier.take_io();
    }

    /// Barrier-path sync: write the epoch's dirty values into the tier, seal
    /// the memtable into an L0 segment, and consume the value change-log;
    /// returns how many value changes that was. The list/timer dirty sets
    /// are untouched — [`Self::write_entries`] ships those. O(dirty): cost
    /// scales with mutations, not total state.
    pub fn tier_sync_dirty(&mut self) -> u64 {
        if self.tiered.is_none() {
            return 0;
        }
        let synced = self.dirty_values.len() as u64;
        self.tier_sync_values();
        if let Some(t) = self.tiered.as_deref_mut() {
            t.tier.flush();
            t.io = t.io + t.tier.take_io();
        }
        self.tier_mark_values_clean();
        self.evict_excess();
        synced
    }

    /// Consume the value change-log: every still-resident dirty row is now
    /// synced, so it rejoins the clean-LRU (as MRU) and becomes evictable.
    fn tier_mark_values_clean(&mut self) {
        if let Some(t) = self.tiered.as_deref_mut() {
            for &k in &self.dirty_values {
                if self.values.contains_key(&k) {
                    t.touch(k);
                }
            }
        }
        self.dirty_values.clear();
    }

    /// Drain segments sealed since the last call: `(id, payload)` pairs the
    /// task ships to the checkpoint store exactly once.
    pub fn take_sealed_segments(&mut self) -> Vec<(u64, Bytes)> {
        match self.tiered.as_deref_mut() {
            Some(t) => t.tier.take_sealed(),
            None => Vec::new(),
        }
    }

    /// All live segment ids in canonical fold order (oldest layer first) —
    /// the authoritative value-state manifest a checkpoint references.
    pub fn live_segments(&self) -> Vec<u64> {
        match self.tiered.as_deref() {
            Some(t) => t.tier.live_ids(),
            None => Vec::new(),
        }
    }

    /// Drain the modelled tier I/O accrued since the last call, to be
    /// charged against the task's service queue.
    pub fn take_tier_io(&mut self) -> VirtualDuration {
        match self.tiered.as_deref_mut() {
            Some(t) => {
                let io = t.io + t.tier.take_io();
                t.io = VirtualDuration::ZERO;
                t.io_us += io.as_micros();
                io
            }
            None => VirtualDuration::ZERO,
        }
    }

    /// Backend counters for this store (all zero when untiered).
    pub fn backend_stats(&self) -> StateBackendStats {
        let Some(t) = self.tiered.as_deref() else {
            return StateBackendStats::default();
        };
        let s = t.tier.stats();
        StateBackendStats {
            tiered_tasks: 1,
            flushes: s.flushes,
            compactions: s.compactions,
            segments_live: t.tier.segment_count(),
            segment_bytes: t.tier.segment_bytes(),
            point_reads: s.point_reads,
            filter_negatives: s.filter_negatives,
            filter_false_positives: s.filter_false_positives,
            faults: t.faults,
            evictions: t.evictions,
            resident_bytes: t.resident_bytes,
            tier_io_us: t.io_us + t.io.as_micros(),
        }
    }

    // ----- snapshot encoding -----

    /// Entries [`Self::write_entries`] emits for the same `full`.
    pub fn entry_count(&self, full: bool) -> u64 {
        let values = match (&self.tiered, full) {
            (Some(_), _) => 0,
            (None, true) => self.values.len(),
            (None, false) => self.dirty_values.len(),
        };
        let rest = if full {
            self.lists.len() + self.event_timers.len() + self.proc_timers.len()
        } else {
            self.dirty_lists.len() + self.dirty_event_timers.len() + self.dirty_proc_timers.len()
        };
        (values + rest) as u64
    }

    fn write_value_entry(w: &mut ByteWriter, id: StateId, key: u64, row: &Row) {
        // Row bytes stream straight into the shared writer behind a patched
        // u32 length — no intermediate Vec per entry.
        let pos = deltamap::write_put_header(w, SEC_VALUES, &kv_key(id, key));
        row.encode(w);
        w.end_u32_len(pos);
    }

    fn write_list_entry(w: &mut ByteWriter, id: StateId, key: u64, rows: &[Row]) {
        let pos = deltamap::write_put_header(w, SEC_LISTS, &kv_key(id, key));
        w.put_varint(rows.len() as u64);
        for row in rows {
            row.encode(w);
        }
        w.end_u32_len(pos);
    }

    /// One timer section: every live timer as a put (`full`), or every
    /// dirty timer as a put if still registered and a tombstone if not. All
    /// information lives in the key, so puts carry an empty value.
    fn write_timers(
        w: &mut ByteWriter,
        section: u8,
        live: &BTreeSet<StateTimer>,
        dirty: &BTreeSet<StateTimer>,
        full: bool,
    ) {
        for t in if full { live } else { dirty } {
            if full || live.contains(t) {
                let pos = deltamap::write_put_header(w, section, &timer_key(t));
                w.end_u32_len(pos);
            } else {
                deltamap::write_tombstone(w, section, &timer_key(t));
            }
        }
    }

    /// Stream one image layer's entries in canonical `(section, key)` order
    /// into `w`: every entry (`full`), or only those dirtied since the last
    /// snapshot — a put for each dirty key still present, a tombstone for
    /// each removed one. A tiered store skips the values section: its values
    /// are in tier segments, shipped beside the layer. Pure — the caller
    /// consumes the change log with [`Self::clear_dirty`], and
    /// [`StateStore::digest`] can observe at any time.
    pub fn write_entries(&self, full: bool, w: &mut ByteWriter) {
        match (&self.tiered, full) {
            (Some(_), _) => {} // values travel as tier segments
            (None, true) => {
                for (&(id, key), row) in &self.values {
                    Self::write_value_entry(w, id, key, row);
                }
            }
            (None, false) => {
                for &(id, key) in &self.dirty_values {
                    match self.values.get(&(id, key)) {
                        Some(row) => Self::write_value_entry(w, id, key, row),
                        None => deltamap::write_tombstone(w, SEC_VALUES, &kv_key(id, key)),
                    }
                }
            }
        }
        if full {
            for (&(id, key), rows) in &self.lists {
                Self::write_list_entry(w, id, key, rows);
            }
        } else {
            for &(id, key) in &self.dirty_lists {
                match self.lists.get(&(id, key)) {
                    Some(rows) => Self::write_list_entry(w, id, key, rows),
                    None => deltamap::write_tombstone(w, SEC_LISTS, &kv_key(id, key)),
                }
            }
        }
        Self::write_timers(w, SEC_EVENT_TIMERS, &self.event_timers, &self.dirty_event_timers, full);
        Self::write_timers(w, SEC_PROC_TIMERS, &self.proc_timers, &self.dirty_proc_timers, full);
    }

    /// Drop the change log (an encoded layer made it redundant). Under
    /// tiering the value changes are first routed into the memtable so the
    /// eviction invariant (clean resident rows are tier-recoverable) holds.
    pub fn clear_dirty(&mut self) {
        if self.tiered.is_some() {
            self.tier_sync_values();
            self.tier_mark_values_clean();
        } else {
            self.dirty_values.clear();
        }
        self.dirty_lists.clear();
        self.dirty_event_timers.clear();
        self.dirty_proc_timers.clear();
    }

    /// Serialize the full store as a standalone image (count + entries).
    /// Under tiering this folds the tier (cost-free peek) and overlays the
    /// not-yet-synced dirty value changes, producing bytes identical to the
    /// untiered encoding of the same logical state — so digests agree across
    /// backends and the recovery oracle needs no special cases.
    pub fn snapshot(&self) -> Bytes {
        let mut w = ByteWriter::new();
        match self.tiered.as_deref() {
            None => w.put_varint(self.entry_count(true)),
            Some(t) => {
                let mut vals = t.tier.fold_entries();
                for &(id, key) in &self.dirty_values {
                    let mut fk = Vec::with_capacity(11);
                    fk.push(SEC_VALUES);
                    fk.extend_from_slice(&kv_key(id, key));
                    match self.values.get(&(id, key)) {
                        Some(row) => {
                            let mut rw = ByteWriter::new();
                            row.encode(&mut rw);
                            vals.insert(fk, rw.freeze());
                        }
                        None => {
                            vals.remove(&fk);
                        }
                    }
                }
                w.put_varint(vals.len() as u64 + self.entry_count(true));
                for (fk, v) in &vals {
                    if let Some((&sec, key)) = fk.split_first() {
                        deltamap::write_put(&mut w, sec, key, &v[..]);
                    }
                }
            }
        }
        self.write_entries(true, &mut w);
        w.freeze()
    }

    /// Serialize only the dirty entries as a standalone delta image and
    /// consume the change log. `merge_chain(base, deltas)` over the images
    /// this produces reconstructs [`StateStore::snapshot`] byte-identically.
    pub fn snapshot_delta(&mut self) -> Bytes {
        let mut w = ByteWriter::new();
        w.put_varint(self.entry_count(false));
        self.write_entries(false, &mut w);
        self.clear_dirty();
        w.freeze()
    }

    /// Apply one decoded image entry (sections 1..=4). Tombstones remove;
    /// restore-path inserts bypass dirty tracking (a freshly restored store
    /// has an empty change log, so its first delta is relative to the image).
    pub fn apply_entry(&mut self, e: &EntryRef<'_>) -> Result<(), CodecError> {
        match e.section {
            SEC_VALUES => {
                let (id, key) = decode_kv_key(e.key)?;
                match e.value {
                    Some(v) => {
                        let mut r = ByteReader::new(v);
                        self.values.insert((id, key), Row::decode(&mut r)?);
                    }
                    None => {
                        self.values.remove(&(id, key));
                    }
                }
            }
            SEC_LISTS => {
                let (id, key) = decode_kv_key(e.key)?;
                match e.value {
                    Some(v) => {
                        let mut r = ByteReader::new(v);
                        let n = r.get_varint()?;
                        let mut rows = Vec::with_capacity((n as usize).min(64 * 1024));
                        for _ in 0..n {
                            rows.push(Row::decode(&mut r)?);
                        }
                        self.lists.insert((id, key), rows);
                    }
                    None => {
                        self.lists.remove(&(id, key));
                    }
                }
            }
            SEC_EVENT_TIMERS => {
                let t = decode_timer_key(e.key)?;
                if e.value.is_some() {
                    self.event_timers.insert(t);
                } else {
                    self.event_timers.remove(&t);
                }
            }
            SEC_PROC_TIMERS => {
                let t = decode_timer_key(e.key)?;
                if e.value.is_some() {
                    self.proc_timers.insert(t);
                } else {
                    self.proc_timers.remove(&t);
                }
            }
            tag => return Err(CodecError::InvalidTag { context: "state section", tag }),
        }
        Ok(())
    }

    /// Restore from a full image, replacing all current contents.
    pub fn restore(bytes: &[u8]) -> Result<StateStore, CodecError> {
        let mut store = StateStore::new();
        for e in deltamap::read_entries(bytes)? {
            store.apply_entry(&e)?;
        }
        Ok(store)
    }

    /// Deterministic digest of the store contents (test oracle for state
    /// equivalence between a recovered run and its pre-failure execution).
    pub fn digest(&self) -> u64 {
        // FNV-1a over the canonical full-image encoding.
        let bytes = self.snapshot();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes.iter() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Datum;
    use clonos_storage::deltamap::merge_chain;

    fn row(v: i64) -> Row {
        Row::new(vec![Datum::Int(v)])
    }

    #[test]
    fn value_state_crud() {
        let mut s = StateStore::new();
        assert!(s.value(0, 1).is_none());
        s.set_value(0, 1, row(10));
        s.set_value(0, 2, row(20));
        s.set_value(1, 1, row(99)); // different state id, same key
        assert_eq!(s.value(0, 1).unwrap().int(0), 10);
        assert_eq!(s.value(1, 1).unwrap().int(0), 99);
        assert_eq!(s.values_of(0).count(), 2);
        assert_eq!(s.take_value(0, 1).unwrap().int(0), 10);
        assert!(s.value(0, 1).is_none());
    }

    #[test]
    fn list_state_append_and_drain() {
        let mut s = StateStore::new();
        s.push_list(0, 5, row(1));
        s.push_list(0, 5, row(2));
        assert_eq!(s.list(0, 5).len(), 2);
        assert_eq!(s.list(0, 6).len(), 0);
        let drained = s.take_list(0, 5);
        assert_eq!(drained.len(), 2);
        assert!(s.list(0, 5).is_empty());
    }

    #[test]
    fn event_timers_fire_in_order_up_to_watermark() {
        let mut s = StateStore::new();
        s.register_event_timer(StateTimer { ts: 30, key: 1, tag: 0 });
        s.register_event_timer(StateTimer { ts: 10, key: 2, tag: 0 });
        s.register_event_timer(StateTimer { ts: 20, key: 1, tag: 1 });
        let due = s.pop_due_event_timers(20);
        assert_eq!(due.iter().map(|t| t.ts).collect::<Vec<_>>(), vec![10, 20]);
        assert_eq!(s.event_timers_len(), 1);
        // Duplicate registration is a no-op (BTreeSet).
        s.register_event_timer(StateTimer { ts: 30, key: 1, tag: 0 });
        assert_eq!(s.event_timers_len(), 1);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut s = StateStore::new();
        s.set_value(0, 7, Row::new(vec![Datum::str("abc"), Datum::Float(1.5)]));
        s.push_list(3, 9, row(4));
        s.push_list(3, 9, row(5));
        s.register_event_timer(StateTimer { ts: 100, key: 9, tag: 3 });
        s.register_proc_timer(StateTimer { ts: 200, key: 7, tag: 0 });
        let snap = s.snapshot();
        let mut back = StateStore::restore(&snap).unwrap();
        assert_eq!(back.value(0, 7).unwrap().str(0), "abc");
        assert_eq!(back.list(3, 9).len(), 2);
        assert_eq!(back.event_timers_len(), 1);
        assert_eq!(back.proc_timers().count(), 1);
        assert_eq!(back.digest(), s.digest());
    }

    #[test]
    fn digest_differs_on_content_change() {
        let mut a = StateStore::new();
        a.set_value(0, 1, row(1));
        let d1 = a.digest();
        a.set_value(0, 1, row(2));
        assert_ne!(a.digest(), d1);
    }

    #[test]
    fn empty_snapshot_roundtrip() {
        let s = StateStore::new();
        let back = StateStore::restore(&s.snapshot()).unwrap();
        assert_eq!(back.entries(), 0);
        assert_eq!(back.digest(), s.digest());
    }

    #[test]
    fn proc_timer_take() {
        let mut s = StateStore::new();
        let t = StateTimer { ts: 5, key: 1, tag: 2 };
        s.register_proc_timer(t);
        assert!(s.take_proc_timer(t));
        assert!(!s.take_proc_timer(t));
    }

    #[test]
    fn delta_tracks_only_mutations() {
        let mut s = StateStore::new();
        s.set_value(0, 1, row(1));
        s.set_value(0, 2, row(2));
        let _base = s.snapshot_delta(); // consume the change log
        assert_eq!(s.entry_count(false), 0);
        s.set_value(0, 2, row(22));
        assert_eq!(s.entry_count(false), 1);
        // Reads leave the change log untouched.
        let _ = s.value(0, 1);
        let _ = s.digest();
        assert_eq!(s.entry_count(false), 1);
    }

    #[test]
    fn base_plus_deltas_reconstruct_full_snapshot_bytes() {
        let mut s = StateStore::new();
        s.set_value(0, 1, row(1));
        s.push_list(1, 5, row(9));
        s.register_event_timer(StateTimer { ts: 50, key: 5, tag: 0 });
        let base = s.snapshot();
        s.clear_dirty();
        // Epoch 1: mutate, remove, fire a timer.
        s.set_value(0, 1, row(11));
        s.set_value(0, 2, row(2));
        let _ = s.pop_due_event_timers(60);
        let d1 = s.snapshot_delta();
        // Epoch 2: deletion + list growth.
        assert!(s.take_value(0, 2).is_some());
        s.push_list(1, 5, row(10));
        s.register_proc_timer(StateTimer { ts: 70, key: 1, tag: 2 });
        let d2 = s.snapshot_delta();
        let merged = merge_chain(&base, &[&d1, &d2]).unwrap();
        assert_eq!(merged, s.snapshot());
    }

    #[test]
    fn tiered_snapshot_matches_untiered_bytes() {
        // Same logical mutations on a tiered and an untiered store must
        // produce byte-identical canonical images (and thus equal digests).
        let mut flat = StateStore::new();
        let mut tiered = StateStore::new();
        for k in 0..50 {
            flat.set_value(0, k, row(k as i64));
            tiered.set_value(0, k, row(k as i64));
        }
        tiered.enable_tiering(256, 7 << 32); // tiny budget: most keys evict
        assert!(tiered.tiering_enabled());
        for k in 0..50 {
            if k % 3 == 0 {
                flat.set_value(0, k, row(-(k as i64)));
                tiered.set_value(0, k, row(-(k as i64)));
            }
            if k % 7 == 0 {
                flat.take_value(1, k); // no-op on both
                tiered.take_value(1, k);
            }
        }
        flat.push_list(2, 9, row(1));
        tiered.push_list(2, 9, row(1));
        flat.register_event_timer(StateTimer { ts: 10, key: 1, tag: 0 });
        tiered.register_event_timer(StateTimer { ts: 10, key: 1, tag: 0 });
        assert_eq!(tiered.snapshot(), flat.snapshot());
        assert_eq!(tiered.digest(), flat.digest());
        // Barrier sync + more churn: still canonical.
        tiered.tier_sync_dirty();
        flat.set_value(0, 3, row(333));
        tiered.set_value(0, 3, row(333));
        assert!(flat.take_value(0, 4).is_some());
        assert!(tiered.take_value(0, 4).is_some());
        assert_eq!(tiered.snapshot(), flat.snapshot());
    }

    #[test]
    fn tiered_eviction_faults_rows_back_on_read() {
        let mut s = StateStore::new();
        for k in 0..100 {
            s.set_value(0, k, row(k as i64 * 11));
        }
        s.enable_tiering(200, 0);
        s.tier_sync_dirty(); // clean everything so eviction can trim to budget
        let stats = s.backend_stats();
        assert!(stats.evictions > 0, "tiny budget must evict: {stats:?}");
        assert!(stats.resident_bytes <= 200);
        // Every key still readable — misses fault in from segments.
        for k in 0..100 {
            assert_eq!(s.value(0, k).map(|r| r.int(0)), Some(k as i64 * 11), "key {k}");
        }
        let stats = s.backend_stats();
        assert!(stats.faults > 0);
        assert!(s.take_tier_io() > clonos_sim::VirtualDuration::ZERO);
    }

    #[test]
    fn tiered_dirty_keys_survive_eviction_pressure() {
        let mut s = StateStore::new();
        s.enable_tiering(64, 0); // budget below even a handful of rows
        for k in 0..40 {
            s.set_value(0, k, row(k as i64));
        }
        // All 40 are dirty: none may be evicted even though we are far over
        // budget, and the delta must still cover every mutation.
        assert_eq!(s.backend_stats().evictions, 0);
        assert_eq!(s.tier_sync_dirty(), 40);
        assert_eq!(s.tier_sync_dirty(), 0);
        // Now clean: pressure may trim the cache, reads still complete.
        for k in 0..40 {
            assert_eq!(s.value(0, k).map(|r| r.int(0)), Some(k as i64));
        }
    }

    #[test]
    fn tiered_fault_survives_all_dirty_pressure() {
        let mut s = StateStore::new();
        for k in 0..10 {
            s.set_value(0, k, row(k as i64));
        }
        s.enable_tiering(256, 0);
        s.tier_sync_dirty(); // everything clean; cache trimmed to budget
        // Re-dirty every key except 0, leaving the faulted row as the only
        // evictable (clean) entry in the cache.
        for k in 1..10 {
            s.set_value(0, k, row(k as i64 + 100));
        }
        // The faulting read must pin its own row: without the pin, eviction
        // pressure would trim the just-faulted key and the read would see a
        // spurious None.
        assert_eq!(s.value(0, 0).map(|r| r.int(0)), Some(0), "faulted row evicted mid-read");
    }

    #[test]
    fn tiered_pending_delete_does_not_resurrect_from_tier() {
        let mut s = StateStore::new();
        s.set_value(0, 1, row(5));
        s.enable_tiering(1 << 20, 0);
        s.tier_sync_dirty(); // row now in a sealed segment
        assert!(s.take_value(0, 1).is_some());
        // Deleted but not yet synced: the stale tier image must stay hidden.
        assert!(s.value(0, 1).is_none());
        s.tier_sync_dirty();
        assert!(s.value(0, 1).is_none());
        assert_eq!(StateStore::restore(&s.snapshot()).unwrap().entries(), 0);
    }

    #[test]
    fn tiered_sealed_and_live_segments_cover_value_state() {
        let mut s = StateStore::new();
        for k in 0..20 {
            s.set_value(3, k, row(k as i64));
        }
        s.enable_tiering(1 << 20, 42 << 32);
        let sealed = s.take_sealed_segments();
        let live = s.live_segments();
        assert!(!live.is_empty());
        // Bulk-load seeds are sealed exactly once and every live id was
        // shipped through the sealed drain (sealed ⊇ live on first drain).
        let sealed_ids: std::collections::BTreeSet<u64> =
            sealed.iter().map(|(id, _)| *id).collect();
        assert!(live.iter().all(|id| sealed_ids.contains(id)));
        assert!(live.iter().all(|id| *id >= 42 << 32), "ids namespaced by id_base");
        s.set_value(3, 99, row(99));
        s.tier_sync_dirty();
        let sealed2 = s.take_sealed_segments();
        assert!(!sealed2.is_empty());
        assert!(s.take_sealed_segments().is_empty(), "drain is once-only");
    }

    #[test]
    fn removal_of_never_snapshotted_key_yields_harmless_tombstone() {
        let mut s = StateStore::new();
        let base = s.snapshot();
        s.set_value(0, 1, row(1));
        assert!(s.take_value(0, 1).is_some()); // born and dead within the epoch
        let d = s.snapshot_delta();
        let merged = merge_chain(&base, &[&d]).unwrap();
        assert_eq!(merged, s.snapshot());
        assert_eq!(StateStore::restore(&merged).unwrap().entries(), 0);
    }
}
