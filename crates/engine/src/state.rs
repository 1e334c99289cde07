//! Keyed operator state with incremental (copy-on-write) snapshots.
//!
//! Operators keep all their state here so the engine can checkpoint and
//! restore it uniformly: value state, list state (join buffers), and the
//! registered timers (Flink likewise snapshots timers).
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
use std::collections::BTreeSet;

/// Identifier of a named state within an operator (e.g. "counts" = 0).
pub type StateId = u16;

type ValueKey = (StateId, u64);

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

/// A value key as the tier's bulk load and fold spell it.
fn tier_value_key((id, key): ValueKey) -> Vec<u8> {
    TieredStore::full_key(SEC_VALUES, &kv_key(id, key))
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

/// Resident weight of one value entry, for cache accounting under a memory
/// budget: key/map overhead plus a structural estimate of the row, close
/// enough to its encoded size for budgeting without encoding.
fn entry_weight(row: &Row) -> u32 {
    use crate::record::Datum;
    let mut b = 18 + 8u64; // key + map overhead, row header + field count
    for d in &row.0 {
        b += match d {
            Datum::Null | Datum::Bool(_) => 2,
            Datum::Int(_) => 10,
            Datum::Float(_) => 9,
            Datum::Str(s) => s.len() as u64 + 5,
        };
    }
    u32::try_from(b).unwrap_or(u32::MAX)
}

/// What a [`SlotTable`] holds: a row of state under its key.
trait Keyed {
    fn key(&self) -> ValueKey;

    /// Take over what must outlive a replacement from `old`, the slot this
    /// one replaces under the same key.
    fn inherit(&mut self, _old: &Self) {}
}

/// One resident value row, its key and its bookkeeping, found by the lookup
/// that finds the row.
#[derive(Debug, Default)]
struct Slot {
    key: u64,
    id: StateId,
    row: Row,
    /// [`entry_weight`] of `row`; the resident total adds and subtracts it
    /// as stored.
    weight: u32,
    /// Written since the last cut: listed in `changed_values`, and not an
    /// eviction candidate (the change is not in the tier yet).
    dirty: bool,
    /// CLOCK second-chance bit: set by a read hit, cleared by the passing hand.
    referenced: bool,
}

impl Slot {
    fn new((id, key): ValueKey, row: Row, dirty: bool) -> Slot {
        Slot { key, id, weight: entry_weight(&row), row, dirty, referenced: false }
    }
}

impl Keyed for Slot {
    fn key(&self) -> ValueKey {
        (self.id, self.key)
    }

    /// A write keeps the CLOCK bit of the row it replaces.
    fn inherit(&mut self, old: &Slot) {
        self.referenced = old.referenced;
    }
}

/// One list's rows under its key.
#[derive(Debug, Default)]
struct ListSlot {
    key: u64,
    id: StateId,
    rows: Vec<Row>,
    /// Changed since the last cut: listed in `changed_lists`.
    dirty: bool,
}

impl Keyed for ListSlot {
    fn key(&self) -> ValueKey {
        (self.id, self.key)
    }
}

/// ⌊2⁶⁴ / φ⌋, odd: the multiplier of [`key_hash`].
const SLOT_HASH: u64 = 0x9E37_79B9_7F4A_7C15;
/// Positions of the first index a row goes into.
const MIN_POSITIONS: usize = 16;

/// A fixed multiplicative hash, the same in every process: no seed.
fn key_hash((id, key): ValueKey) -> u64 {
    ((u64::from(id) << 48) ^ key).wrapping_mul(SLOT_HASH)
}

/// An index position that holds a row: the high half of the row's hash
/// over its slot number + 1 (a free position is 0).
fn position_entry(h: u64, slot: usize) -> u64 {
    (h >> 32 << 32) | (slot as u64 + 1)
}

/// The slot number an occupied position names.
fn entry_slot(e: u64) -> usize {
    (e as u32).wrapping_sub(1) as usize
}

/// The value rows, or the lists (DESIGN.md §10.2): dense slots, found
/// through an open-addressed index with linear probing. A key's home
/// position is the high bits of [`key_hash`], so the same operations lay out
/// the same positions and slots in every run. Slots are in insertion order (a removal
/// moves the last slot into the hole); key order exists only where an image
/// consumes it ([`Self::sorted`]). At most three quarters of the positions
/// are taken, and a removal shifts the rest of its run back, so no key ever
/// sits behind a free position on its probe path.
#[derive(Debug, Default)]
struct SlotTable<S> {
    /// A power of two many positions, at most 2³², or none before the first
    /// row. A position keeps its row's hash high half, so probing compares
    /// keys only on a match and growth never reads a slot.
    index: Vec<u64>,
    slots: Vec<S>,
}

impl<S: Keyed> SlotTable<S> {
    fn len(&self) -> usize {
        self.slots.len()
    }

    /// Where the probe path of a key with hash `h` starts: the top bits.
    fn home(&self, h: u64) -> usize {
        // 2^b positions, 4 ≤ b ≤ 32 (an empty index: past the end).
        (h >> (u64::BITS - self.index.len().trailing_zeros())) as usize
    }

    /// `Ok` with `k`'s position and slot number, or `Err` with the free
    /// position that ends its probe path (past the end with no positions).
    fn probe(&self, k: ValueKey, h: u64) -> Result<(usize, usize), usize> {
        let mask = self.index.len().wrapping_sub(1);
        let mut i = self.home(h);
        // Never full, so a free position ends every walk.
        while let Some(&e) = self.index.get(i) {
            if e == 0 {
                break;
            }
            if e >> 32 == h >> 32 {
                let slot = entry_slot(e);
                if self.slots.get(slot).is_some_and(|s| s.key() == k) {
                    return Ok((i, slot));
                }
            }
            i = (i + 1) & mask;
        }
        Err(i)
    }

    fn find(&self, k: ValueKey) -> Option<usize> {
        self.probe(k, key_hash(k)).ok().map(|(_, slot)| slot)
    }

    fn get(&self, k: ValueKey) -> Option<&S> {
        self.slots.get(self.find(k)?)
    }

    fn get_mut(&mut self, k: ValueKey) -> Option<&mut S> {
        let slot = self.find(k)?;
        self.slots.get_mut(slot)
    }

    /// Put `slot` under its key, [`Keyed::inherit`]ing from the slot it
    /// replaces; returns that slot.
    fn insert(&mut self, mut slot: S) -> Option<S> {
        self.reserve(self.slots.len() + 1);
        let h = key_hash(slot.key());
        match self.probe(slot.key(), h) {
            Ok((_, at)) => {
                let old = self.slots.get_mut(at)?;
                slot.inherit(old);
                Some(std::mem::replace(old, slot))
            }
            Err(i) => {
                *self.index.get_mut(i)? = position_entry(h, self.slots.len());
                self.slots.push(slot);
                None
            }
        }
    }

    /// Take `k`'s row out. Its position is freed and the rest of the run
    /// shifts back: each key whose home does not lie between the free
    /// position and itself moves into it, which moves on to where the key
    /// was. The last slot moves into the freed slot.
    fn remove(&mut self, k: ValueKey) -> Option<S> {
        let (mut free, at) = self.probe(k, key_hash(k)).ok()?;
        let mask = self.index.len() - 1;
        *self.index.get_mut(free)? = 0;
        let mut i = free;
        loop {
            i = (i + 1) & mask;
            let e = match self.index.get(i) {
                Some(&e) if e != 0 => e,
                _ => break,
            };
            let home = self.home(e);
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(free) & mask) {
                self.index.swap(free, i);
                free = i;
            }
        }
        let last = self.slots.len() - 1;
        let removed = self.slots.swap_remove(at);
        if let Some(moved) = self.slots.get(at) {
            // Repoint the moved slot's position: it is on its probe path.
            let h = key_hash(moved.key());
            let mut i = self.home(h);
            while let Some(e) = self.index.get_mut(i).filter(|e| **e != 0) {
                if entry_slot(*e) == last {
                    *e = position_entry(h, at);
                    break;
                }
                i = (i + 1) & mask;
            }
        }
        Some(removed)
    }

    /// Room for `n` rows under the load limit. Growing doubles the positions
    /// and re-places every taken position in position order.
    fn reserve(&mut self, n: usize) {
        if n * 4 <= self.index.len() * 3 {
            return;
        }
        let mut positions = self.index.len().max(MIN_POSITIONS);
        while n * 4 > positions * 3 {
            positions *= 2;
        }
        self.slots.reserve(n.saturating_sub(self.slots.len()));
        let old = std::mem::replace(&mut self.index, vec![0; positions]);
        let mask = positions - 1;
        for e in old.into_iter().filter(|&e| e != 0) {
            let mut i = self.home(e);
            while let Some(free) = self.index.get_mut(i) {
                if *free == 0 {
                    *free = e;
                    break;
                }
                i = (i + 1) & mask;
            }
        }
    }

    /// The rows in slot order.
    fn iter(&self) -> impl Iterator<Item = &S> {
        self.slots.iter()
    }

    /// The rows in key order: one sort of a vector of keys, paid by the
    /// consumers that need the order (a full image, the tier's bulk load).
    fn sorted(&self) -> Vec<(ValueKey, &S)> {
        let mut rows: Vec<_> = self.slots.iter().map(|slot| (slot.key(), slot)).collect();
        rows.sort_unstable_by_key(|&(k, _)| k);
        rows
    }
}

/// The tiered half of a budgeted store: the log-structured tier holding the
/// authoritative value state, plus what the CLOCK sweep over the resident
/// cache needs (`StateStore::values` becomes the cache when this is present).
///
/// Invariants (DESIGN.md §10): a **dirty** row is always resident — the sweep
/// passes over it, so the O(dirty) change list never needs the tier; a
/// **clean** resident row is byte-identical to its tier image (synced, faulted
/// in or bulk-loaded from exactly those bytes), so eviction is always safe and
/// the canonical fold consults the cache only through the change list.
#[derive(Debug)]
struct TieredState {
    tier: TieredStore,
    /// Resident-cache budget in (approximate) bytes.
    budget: u64,
    /// Sum of the resident slots' weights.
    resident_bytes: u64,
    /// Clean resident rows, the eviction candidates: no sweep starts without
    /// one, so a cache of dirty rows over its budget costs an access nothing.
    clean_rows: u64,
    /// The slot position the CLOCK hand examines next — state, not time, so
    /// the same operations always evict the same rows.
    hand: usize,
    /// Victims of the sweep pass in progress (kept for its allocation).
    victims: Vec<ValueKey>,
    faults: u64,
    evictions: u64,
    /// Modelled tier I/O accrued since the last [`StateStore::take_tier_io`].
    io: VirtualDuration,
    /// Cumulative drained I/O, for stats.
    io_us: u64,
    /// The first tier read that failed, until [`StateStore::take_tier_error`].
    read_error: Option<CodecError>,
}

impl TieredState {
    /// Read one row out of the tier. A block that is gone or does not decode
    /// is not "key absent": the error is kept for the task to fail the run
    /// with, and this read's `None` never leaves the task.
    fn fault(&mut self, (id, key): ValueKey) -> Option<Row> {
        let row = self
            .tier
            .try_get(SEC_VALUES, &kv_key(id, key))
            .and_then(|got| got.map(|b| Row::decode(&mut ByteReader::new(&b))).transpose());
        self.io = self.io + self.tier.take_io();
        self.faults += u64::from(matches!(row, Ok(Some(_))));
        row.unwrap_or_else(|e| {
            self.read_error.get_or_insert(e);
            None
        })
    }

    /// CLOCK / second-chance sweep: advance the hand over the slot
    /// positions, wrapping, until the cache fits its budget or no clean row
    /// is left. A dirty row is passed over; a clean row read since the hand
    /// last came by loses its bit and stays; any other clean row is evicted
    /// once the pass ends. Three passes reach every candidate twice.
    fn sweep(&mut self, values: &mut SlotTable<Slot>) {
        for _pass in 0..3 {
            if self.resident_bytes <= self.budget || self.clean_rows == 0 {
                return;
            }
            let mut freed = 0;
            // Wrap, unless this pass frees enough first.
            let from = std::mem::take(&mut self.hand);
            for (i, slot) in values.slots.iter_mut().enumerate().skip(from) {
                if slot.dirty || std::mem::take(&mut slot.referenced) {
                    continue;
                }
                self.victims.push(slot.key());
                freed += u64::from(slot.weight);
                if self.resident_bytes - freed <= self.budget {
                    self.hand = i + 1;
                    break;
                }
            }
            for k in self.victims.drain(..) {
                if let Some(slot) = values.remove(k) {
                    self.resident_bytes -= u64::from(slot.weight);
                    self.clean_rows -= 1;
                    self.evictions += 1;
                }
            }
        }
    }
}

/// The per-task keyed state store.
#[derive(Debug, Default)]
pub struct StateStore {
    /// All value state (untiered), or the bounded resident cache of it
    /// (tiered — the [`TieredState`] tier is then authoritative).
    tiered: Option<Box<TieredState>>,
    values: SlotTable<Slot>,
    lists: SlotTable<ListSlot>,
    event_timers: BTreeSet<StateTimer>,
    proc_timers: BTreeSet<StateTimer>,
    // Epoch-scoped change tracking: every key mutated (inserted, updated or
    // removed) since the last snapshot encoding. Presence in the live state at
    // encode time decides put vs tombstone.
    /// Each changed value key once, in arrival order (sorted, and freed, at
    /// the cut): entered when its slot goes clean → dirty, or its row is removed.
    changed_values: Vec<ValueKey>,
    /// The changed value keys that have no slot: pending deletions. Only a
    /// miss consults this — the tier may still hold the old row.
    deleted_values: BTreeSet<ValueKey>,
    /// Each changed list key once, as `changed_values` is for values.
    changed_lists: Vec<ValueKey>,
    /// The changed list keys that have no slot.
    deleted_lists: BTreeSet<ValueKey>,
    dirty_event_timers: BTreeSet<StateTimer>,
    dirty_proc_timers: BTreeSet<StateTimer>,
}

impl StateStore {
    pub fn new() -> StateStore {
        StateStore::default()
    }

    // ----- value state -----

    /// Read a value. Under tiering a miss faults the row in from a segment
    /// (hence `&mut`); the modelled I/O accrues until [`Self::take_tier_io`].
    /// The budget is enforced on entry, never under the returned reference:
    /// a faulted row stays resident for as long as the caller can see it,
    /// even when every other resident row is dirty.
    pub fn value(&mut self, id: StateId, key: u64) -> Option<&Row> {
        self.evict_excess();
        let k = (id, key);
        if let Some(at) = self.values.find(k) {
            let slot = self.values.slots.get_mut(at)?;
            slot.referenced = true;
            return Some(&slot.row);
        }
        let at = self.fault_in(k)?;
        self.values.slots.get(at).map(|slot| &slot.row)
    }

    /// Bring `k`'s row in from the tier as a clean resident row; returns its
    /// slot. `None` when untiered, for a pending deletion, and for a row the
    /// tier does not hold.
    fn fault_in(&mut self, k: ValueKey) -> Option<usize> {
        let t = self.tiered.as_deref_mut()?;
        if self.deleted_values.contains(&k) {
            return None;
        }
        let slot = Slot::new(k, t.fault(k)?, false);
        t.resident_bytes += u64::from(slot.weight);
        t.clean_rows += 1;
        self.values.insert(slot);
        self.values.find(k)
    }

    pub fn set_value(&mut self, id: StateId, key: u64, row: Row) {
        match self.values.find((id, key)) {
            Some(at) => self.rewrite_value(at, |old| *old = row),
            None => self.insert_value((id, key), row),
        }
    }

    /// [`Self::set_value`] of a copy of `row`, written into the resident
    /// row's buffers when there is one.
    pub fn set_value_from(&mut self, id: StateId, key: u64, row: &Row) {
        match self.values.find((id, key)) {
            // Row's derived `clone_from` would clone; its Vec's reuses the buffer.
            Some(at) => self.rewrite_value(at, |old| old.0.clone_from(&row.0)),
            None => self.insert_value((id, key), row.clone()),
        }
    }

    /// Change `(id, key)`'s row in place through `update`, after creating it
    /// with `create` if there is none (not resident, and under tiering not
    /// in the tier either); returns whether it was created. One lookup (and
    /// under tiering at most one fault) per call.
    pub fn update_value(
        &mut self,
        id: StateId,
        key: u64,
        create: impl FnOnce() -> Row,
        update: impl FnOnce(&mut Row),
    ) -> bool {
        let k = (id, key);
        match self.values.find(k).or_else(|| self.fault_in(k)) {
            Some(at) => {
                self.rewrite_value(at, update);
                false
            }
            None => {
                let mut row = create();
                update(&mut row);
                self.insert_value(k, row);
                true
            }
        }
    }

    /// A write to the resident row in slot `at`, with the write's dirty and
    /// weight bookkeeping.
    fn rewrite_value(&mut self, at: usize, write: impl FnOnce(&mut Row)) {
        let Some(slot) = self.values.slots.get_mut(at) else { return };
        write(&mut slot.row);
        let old_weight = std::mem::replace(&mut slot.weight, entry_weight(&slot.row));
        let was_clean = !std::mem::replace(&mut slot.dirty, true);
        if was_clean {
            self.changed_values.push(slot.key());
        }
        if let Some(t) = self.tiered.as_deref_mut() {
            t.resident_bytes = t.resident_bytes + u64::from(slot.weight) - u64::from(old_weight);
            t.clean_rows -= u64::from(was_clean);
            self.evict_excess();
        }
    }

    /// A write of a key with no resident row.
    fn insert_value(&mut self, k: ValueKey, row: Row) {
        // A pending deletion is in the change list already.
        if !self.deleted_values.remove(&k) {
            self.changed_values.push(k);
        }
        let slot = Slot::new(k, row, true);
        if let Some(t) = self.tiered.as_deref_mut() {
            t.resident_bytes += u64::from(slot.weight);
        }
        self.values.insert(slot);
        self.evict_excess();
    }

    pub fn take_value(&mut self, id: StateId, key: u64) -> Option<Row> {
        let (row, listed) = match self.values.remove((id, key)) {
            Some(slot) => {
                if let Some(t) = self.tiered.as_deref_mut() {
                    t.resident_bytes -= u64::from(slot.weight);
                    t.clean_rows -= u64::from(!slot.dirty);
                }
                (slot.row, slot.dirty)
            }
            // Not resident: the tier may hold it, unless it is already a
            // pending deletion.
            None if self.deleted_values.contains(&(id, key)) => return None,
            None => (self.tiered.as_deref_mut()?.fault((id, key))?, false),
        };
        if !listed {
            self.changed_values.push((id, key));
        }
        self.deleted_values.insert((id, key));
        Some(row)
    }

    /// Bring the resident cache back under its budget. Runs on entry to a
    /// read, after a write and after a sync — never while a caller holds a
    /// reference into the cache.
    #[inline]
    fn evict_excess(&mut self) {
        if let Some(t) = self.tiered.as_deref_mut() {
            if t.resident_bytes > t.budget && t.clean_rows > 0 {
                t.sweep(&mut self.values);
            }
        }
    }

    // ----- list state -----

    pub fn list(&self, id: StateId, key: u64) -> &[Row] {
        self.lists.get((id, key)).map_or(&[], |list| list.rows.as_slice())
    }

    pub fn push_list(&mut self, id: StateId, key: u64, row: Row) {
        let k = (id, key);
        match self.lists.find(k).and_then(|at| self.lists.slots.get_mut(at)) {
            Some(list) => {
                list.rows.push(row);
                if !std::mem::replace(&mut list.dirty, true) {
                    self.changed_lists.push(k);
                }
            }
            None => {
                // A pending deletion is in the change list already.
                if !self.deleted_lists.remove(&k) {
                    self.changed_lists.push(k);
                }
                self.lists.insert(ListSlot { key, id, rows: vec![row], dirty: true });
            }
        }
    }

    pub fn take_list(&mut self, id: StateId, key: u64) -> Vec<Row> {
        let k = (id, key);
        let Some(list) = self.lists.remove(k) else { return Vec::new() };
        if !list.dirty {
            self.changed_lists.push(k);
        }
        self.deleted_lists.insert(k);
        list.rows
    }

    // ----- timers -----

    /// Register an event-time timer; returns whether it is new. Registering
    /// a live timer changes nothing, so the next delta does not carry it.
    pub fn register_event_timer(&mut self, t: StateTimer) -> bool {
        let new = self.event_timers.insert(t);
        if new {
            self.dirty_event_timers.insert(t);
        }
        new
    }

    /// [`Self::register_event_timer`] for a processing-time timer.
    pub fn register_proc_timer(&mut self, t: StateTimer) -> bool {
        let new = self.proc_timers.insert(t);
        if new {
            self.dirty_proc_timers.insert(t);
        }
        new
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
        let mut tier = TieredStore::new(TieredConfig::default(), SpillDevice::new(), id_base);
        if self.values.len() > 0 {
            let rows = self.values.sorted();
            tier.bulk_load(rows.into_iter().map(|(k, s)| (tier_value_key(k), s.row.to_bytes())));
        }
        let io = tier.take_io();
        self.tiered = Some(Box::new(TieredState {
            tier,
            budget,
            resident_bytes: self.values.iter().map(|s| u64::from(s.weight)).sum(),
            clean_rows: self.values.iter().filter(|s| !s.dirty).count() as u64,
            hand: 0,
            victims: Vec::new(),
            faults: 0,
            evictions: 0,
            io,
            io_us: 0,
            read_error: None,
        }));
        self.evict_excess();
    }

    pub fn tiering_enabled(&self) -> bool {
        self.tiered.is_some()
    }

    /// The first tier read that failed since the last call, if any. The
    /// read itself answered `None`; whoever drove it must not act on that.
    pub fn take_tier_error(&mut self) -> Option<CodecError> {
        self.tiered.as_deref_mut()?.read_error.take()
    }

    /// Encode one changed value key as its layer entry — a put for a key
    /// still present, a tombstone for a removed one — and mark the row
    /// clean. Returns whether there was a row.
    fn write_value_change(values: &mut SlotTable<Slot>, w: &mut ByteWriter, k: ValueKey) -> bool {
        let row = values.get_mut(k).map(|slot| {
            slot.dirty = false;
            &slot.row
        });
        match row {
            Some(row) => Self::write_value_entry(w, k.0, k.1, row),
            None => deltamap::write_tombstone(w, SEC_VALUES, &kv_key(k.0, k.1)),
        }
        row.is_some()
    }

    /// Barrier-path sync, the one way value changes reach the tier: stream
    /// the epoch's change list, in canonical key order, into one sealed L0
    /// segment and consume it; returns how many changes that was. O(dirty).
    /// The list/timer dirty sets are left to [`Self::write_entries`].
    pub fn tier_sync_dirty(&mut self) -> u64 {
        let Some(t) = self.tiered.as_deref_mut() else { return 0 };
        if self.changed_values.is_empty() {
            // Nothing to sync, but a read may have faulted a row in over budget.
            self.evict_excess();
            return 0;
        }
        // The list lives for an epoch: taken, so its buffer goes with it.
        let mut changed = std::mem::take(&mut self.changed_values);
        changed.sort_unstable();
        let mut segment = t.tier.begin_segment(changed.len() as u64);
        for &(id, key) in &changed {
            let w = segment.entry(SEC_VALUES, &kv_key(id, key));
            // Synced rows become eviction candidates.
            t.clean_rows += u64::from(Self::write_value_change(&mut self.values, w, (id, key)));
        }
        t.tier.seal(segment);
        t.io = t.io + t.tier.take_io();
        self.deleted_values.clear();
        self.evict_excess();
        changed.len() as u64
    }

    /// Drain segments sealed since the last call: `(id, payload)` pairs the
    /// task ships to the checkpoint store exactly once.
    pub fn take_sealed_segments(&mut self) -> Vec<(u64, Bytes)> {
        self.tiered.as_deref_mut().map_or_else(Vec::new, |t| t.tier.take_sealed())
    }

    /// All live segment ids in canonical fold order (oldest layer first) —
    /// the authoritative value-state segment list a checkpoint references.
    pub fn live_segments(&self) -> Vec<u64> {
        self.tiered.as_deref().map_or_else(Vec::new, |t| t.tier.live_ids())
    }

    /// Drain the modelled tier I/O accrued since the last call, to be
    /// charged against the task's service queue.
    pub fn take_tier_io(&mut self) -> VirtualDuration {
        let Some(t) = self.tiered.as_deref_mut() else { return VirtualDuration::ZERO };
        let io = std::mem::replace(&mut t.io, VirtualDuration::ZERO) + t.tier.take_io();
        t.io_us += io.as_micros();
        io
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
            (None, false) => self.changed_values.len(),
        };
        let rest = if full {
            self.lists.len() + self.event_timers.len() + self.proc_timers.len()
        } else {
            self.changed_lists.len() + self.dirty_event_timers.len() + self.dirty_proc_timers.len()
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
    /// into `w` and consume the change log: every entry (`full`), or only
    /// those changed since the last layer — a put for each changed key still
    /// present, a tombstone for each removed one. A tiered store skips the
    /// values section: its values are in tier segments, shipped beside the
    /// layer.
    pub fn write_entries(&mut self, full: bool, w: &mut ByteWriter) {
        if full {
            self.write_resident(w);
        } else {
            if self.tiered.is_none() {
                let mut changed = std::mem::take(&mut self.changed_values);
                changed.sort_unstable();
                for k in changed {
                    Self::write_value_change(&mut self.values, w, k);
                }
            }
            // `clear_dirty` below marks the lists clean.
            self.changed_lists.sort_unstable();
            for &(id, key) in &self.changed_lists {
                match self.lists.get((id, key)) {
                    Some(list) => Self::write_list_entry(w, id, key, &list.rows),
                    None => deltamap::write_tombstone(w, SEC_LISTS, &kv_key(id, key)),
                }
            }
            Self::write_timers(w, SEC_EVENT_TIMERS, &self.event_timers, &self.dirty_event_timers, false);
            Self::write_timers(w, SEC_PROC_TIMERS, &self.proc_timers, &self.dirty_proc_timers, false);
        }
        self.clear_dirty();
    }

    /// The full image of every entry the store holds resident. Pure, so
    /// [`StateStore::digest`] can observe at any time.
    fn write_resident(&self, w: &mut ByteWriter) {
        if self.tiered.is_none() {
            for ((id, key), slot) in self.values.sorted() {
                Self::write_value_entry(w, id, key, &slot.row);
            }
        }
        for ((id, key), list) in self.lists.sorted() {
            Self::write_list_entry(w, id, key, &list.rows);
        }
        Self::write_timers(w, SEC_EVENT_TIMERS, &self.event_timers, &self.dirty_event_timers, true);
        Self::write_timers(w, SEC_PROC_TIMERS, &self.proc_timers, &self.dirty_proc_timers, true);
    }

    /// Drop the change log (an image that holds it — the layer just written,
    /// or a [`Self::snapshot`] taken as a base — made it redundant). Under
    /// tiering value changes still have to reach the tier, so that clean
    /// resident rows stay tier-recoverable; the sync leaves none behind.
    pub fn clear_dirty(&mut self) {
        self.tier_sync_dirty();
        for k in std::mem::take(&mut self.changed_values) {
            if let Some(slot) = self.values.get_mut(k) {
                slot.dirty = false;
            }
        }
        self.deleted_values.clear();
        for k in self.changed_lists.drain(..) {
            if let Some(list) = self.lists.get_mut(k) {
                list.dirty = false;
            }
        }
        self.deleted_lists.clear();
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
                for &k in &self.changed_values {
                    match self.values.get(k) {
                        Some(slot) => vals.insert(tier_value_key(k), slot.row.to_bytes()),
                        None => vals.remove(&tier_value_key(k)),
                    };
                }
                w.put_varint(vals.len() as u64 + self.entry_count(true));
                for (fk, v) in &vals {
                    if let Some((&sec, key)) = fk.split_first() {
                        deltamap::write_put(&mut w, sec, key, &v[..]);
                    }
                }
            }
        }
        self.write_resident(&mut w);
        w.freeze()
    }

    /// Serialize only the changed entries as a standalone delta image and
    /// consume the change log. `merge_chain(base, deltas)` over the images
    /// this produces reconstructs [`StateStore::snapshot`] byte-identically.
    pub fn snapshot_delta(&mut self) -> Bytes {
        let mut w = ByteWriter::new();
        w.put_varint(self.entry_count(false));
        self.write_entries(false, &mut w);
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
                        let row = Row::decode(&mut r)?;
                        r.finish("bytes after a state value row")?;
                        self.values.insert(Slot::new((id, key), row, false));
                    }
                    None => {
                        self.values.remove((id, key));
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
                        r.finish("bytes after a state list")?;
                        self.lists.insert(ListSlot { key, id, rows, dirty: false });
                    }
                    None => {
                        self.lists.remove((id, key));
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

    /// Make room for the value rows and the lists among `entries`, so that
    /// applying them never grows a table.
    pub(crate) fn reserve_entries(&mut self, entries: &[EntryRef<'_>]) {
        let puts = |section| entries.iter().filter(|e| e.section == section && e.value.is_some()).count();
        self.values.reserve(self.values.len() + puts(SEC_VALUES));
        self.lists.reserve(self.lists.len() + puts(SEC_LISTS));
    }

    /// Restore from a full image, replacing all current contents.
    pub fn restore(bytes: &[u8]) -> Result<StateStore, CodecError> {
        let mut store = StateStore::new();
        let entries = deltamap::read_entries(bytes)?;
        store.reserve_entries(&entries);
        for e in entries {
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
    use std::collections::BTreeMap;

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
        assert_eq!(s.value(0, 2).unwrap().int(0), 20);
        assert_eq!(s.entries(), 3);
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

    impl StateStore {
        /// Put the live tier over a device on which the newest L0 segment's
        /// payload went through `damage` — what a corrupted disk looks like
        /// to the store reading it. Needs a tier that never compacted
        /// (device handles are then dense, in write order).
        pub(crate) fn damage_newest_segment(&mut self, damage: impl Fn(&mut Vec<u8>)) {
            let t = self.tiered.as_deref_mut().expect("tiered store");
            let newest = t.tier.levels()[0].last().expect("a sealed L0 segment").handle;
            let mut handles: Vec<_> = t.tier.levels().iter().flatten().map(|m| m.handle).collect();
            handles.sort();
            let mut device = SpillDevice::new();
            for (i, &h) in handles.iter().enumerate() {
                assert_eq!(h.0, i as u64, "device handles are dense");
                let mut payload = t.tier.device().peek(h).expect("live payload").to_vec();
                if h == newest {
                    damage(&mut payload);
                }
                device.write(Bytes::from(payload));
            }
            t.tier.swap_device(device);
        }
    }

    /// Twenty rows synced into one L0 segment and evicted, which then
    /// suffers `damage`.
    fn store_over_damaged_segment(damage: impl Fn(&mut Vec<u8>)) -> StateStore {
        let mut s = StateStore::new();
        s.enable_tiering(1024, 0);
        for k in 0..20 {
            s.set_value(0, k, row(k as i64));
        }
        s.tier_sync_dirty();
        for k in 0..40 {
            s.set_value(1, k, row(0)); // dirty rows alone exceed the budget
        }
        assert!(s.values.iter().all(|slot| slot.id != 0), "state 0 is in the tier only");
        s.damage_newest_segment(damage);
        s
    }

    #[test]
    fn tiered_read_of_a_flipped_byte_is_an_error_not_an_absent_key() {
        // count (1B) ++ [section, key len, 10 key bytes, op, ..]: flip the
        // first entry's op byte.
        let mut s = store_over_damaged_segment(|p| {
            assert_eq!(p[13], deltamap::OP_PUT);
            p[13] ^= 0xFF;
        });
        assert!(s.take_tier_error().is_none());
        assert!(s.value(0, 0).is_none(), "the read has no row to give");
        assert_eq!(
            s.take_tier_error(),
            Some(CodecError::InvalidTag { context: "deltamap op", tag: 0xFE }),
            "and says why"
        );
        assert!(s.take_tier_error().is_none(), "reported once");
        // Removal reads the tier too, and fails the same way.
        assert!(s.take_value(0, 0).is_none());
        assert!(s.take_tier_error().is_some());
        assert_eq!(s.backend_stats().faults, 0, "nothing was faulted in");
    }

    #[test]
    fn tiered_read_of_a_truncated_block_is_an_error_not_an_absent_key() {
        let mut s = store_over_damaged_segment(|p| p.truncate(p.len() - 4));
        // The first index block (16 entries) is whole; the last is short.
        assert_eq!(s.value(0, 0).map(|r| r.int(0)), Some(0));
        assert!(s.take_tier_error().is_none());
        assert!(s.value(0, 19).is_none());
        assert!(matches!(s.take_tier_error(), Some(CodecError::UnexpectedEof { .. })));
    }

    #[test]
    fn tiered_read_of_an_undecodable_row_is_an_error() {
        // .. op, value len (4B), row: field count, datum tag. Flip the tag.
        let mut s = store_over_damaged_segment(|p| p[19] ^= 0xFF);
        assert!(s.value(0, 0).is_none());
        assert!(s.take_tier_error().is_some());
    }

    // ----- model test: the tiered cache against the untiered store -----

    #[derive(Clone, Debug)]
    enum CacheOp {
        Set(StateId, u64, Row),
        /// `set_value_from`.
        SetFrom(StateId, u64, Row),
        /// `update_value` appending an Int: creates, or grows the row.
        Update(StateId, u64, i64),
        Take(StateId, u64),
        Get(StateId, u64),
        Sync,
        ClearDirty,
    }

    fn cache_op() -> impl proptest::Strategy<Value = CacheOp> {
        use proptest::prelude::*;
        let key = || (0u16..2, 0u64..24);
        // Rows of three weights, so replacing one changes the resident total.
        let value = || {
            prop_oneof![
                any::<i64>().prop_map(|v| Row::new(vec![Datum::Int(v)])),
                any::<i64>().prop_map(|v| Row::new(vec![Datum::Int(v), Datum::Int(-v)])),
                (0usize..40).prop_map(|n| Row::new(vec![Datum::str("x".repeat(n))])),
            ]
        };
        let set = move || (key(), value()).prop_map(|((id, k), row)| CacheOp::Set(id, k, row));
        let set_from = move || (key(), value()).prop_map(|((id, k), row)| CacheOp::SetFrom(id, k, row));
        let update = move || (key(), any::<i64>()).prop_map(|((id, k), v)| CacheOp::Update(id, k, v));
        let get = move || key().prop_map(|(id, k)| CacheOp::Get(id, k));
        // The shim's `prop_oneof!` is uniform: repeats are the weights.
        prop_oneof![
            set(),
            set(),
            set_from(),
            update(),
            update(),
            get(),
            get(),
            get(),
            key().prop_map(|(id, k)| CacheOp::Take(id, k)),
            key().prop_map(|(id, k)| CacheOp::Take(id, k)),
            Just(CacheOp::Sync),
            Just(CacheOp::ClearDirty),
        ]
    }

    /// What must hold of a tiered store between any two operations.
    /// `unsynced` is the model's view of the keys written since the last
    /// sync and still present: each must be resident and dirty.
    fn check_cache(s: &StateStore, unsynced: &BTreeSet<ValueKey>) {
        let t = s.tiered.as_deref().expect("tiered");
        let weights: u64 = s.values.iter().map(|slot| u64::from(entry_weight(&slot.row))).sum();
        assert_eq!(t.resident_bytes, weights, "resident_bytes is exactly the sum of entry weights");
        assert!(s.values.iter().all(|slot| slot.weight == entry_weight(&slot.row)));
        let clean = s.values.iter().filter(|slot| !slot.dirty).count() as u64;
        assert_eq!(t.clean_rows, clean);
        for &k in unsynced {
            assert!(s.values.get(k).is_some_and(|slot| slot.dirty), "dirty row {k:?} evicted");
        }
        // The change list holds each changed key once: the dirty slots and
        // the pending deletions, which have no slot.
        let listed: BTreeSet<ValueKey> = s.changed_values.iter().copied().collect();
        assert_eq!(listed.len(), s.changed_values.len(), "a key listed twice");
        let dirty: BTreeSet<ValueKey> = s.values.iter().filter(|slot| slot.dirty).map(Slot::key).collect();
        assert!(s.deleted_values.iter().all(|&k| s.values.get(k).is_none()));
        assert_eq!(listed, &dirty | &s.deleted_values);
    }

    /// Run `ops` on a tiered store beside an untiered one; returns the
    /// tiered store's `(faults, evictions)`.
    fn run_against_flat_model(ops: &[CacheOp], budget: u64) -> (u64, u64) {
        let mut flat = StateStore::new();
        let mut tiered = StateStore::new();
        tiered.enable_tiering(budget, 0);
        let mut unsynced: BTreeSet<ValueKey> = BTreeSet::new();
        for op in ops {
            match op {
                CacheOp::Set(id, k, row) => {
                    flat.set_value(*id, *k, row.clone());
                    tiered.set_value(*id, *k, row.clone());
                    unsynced.insert((*id, *k));
                }
                CacheOp::SetFrom(id, k, row) => {
                    flat.set_value_from(*id, *k, row);
                    tiered.set_value_from(*id, *k, row);
                    unsynced.insert((*id, *k));
                }
                CacheOp::Update(id, k, v) => {
                    let v = *v;
                    let append = move |row: &mut Row| row.0.push(Datum::Int(v));
                    let faults = tiered.backend_stats().faults;
                    let created = flat.update_value(*id, *k, Row::default, append);
                    assert_eq!(tiered.update_value(*id, *k, Row::default, append), created, "created {id}/{k}");
                    assert!(tiered.backend_stats().faults <= faults + 1, "an update faults at most once");
                    unsynced.insert((*id, *k));
                }
                CacheOp::Take(id, k) => {
                    assert_eq!(tiered.take_value(*id, *k), flat.take_value(*id, *k));
                    unsynced.remove(&(*id, *k));
                }
                CacheOp::Get(id, k) => {
                    let faults = tiered.backend_stats().faults;
                    // Also: a key deleted since the last sync is `None` here,
                    // whatever the tier still holds; a faulted row is `Some`
                    // however much of the cache is dirty.
                    assert_eq!(tiered.value(*id, *k), flat.value(*id, *k), "read of {id}/{k}");
                    if unsynced.contains(&(*id, *k)) {
                        assert_eq!(tiered.backend_stats().faults, faults, "a dirty row is resident");
                    }
                }
                CacheOp::Sync | CacheOp::ClearDirty => {
                    if matches!(op, CacheOp::Sync) {
                        tiered.tier_sync_dirty();
                    } else {
                        tiered.clear_dirty();
                    }
                    flat.clear_dirty();
                    unsynced.clear();
                    assert_eq!(tiered.snapshot(), flat.snapshot(), "image after a sync");
                    assert!(tiered.changed_values.is_empty() && tiered.deleted_values.is_empty());
                }
            }
            check_cache(&tiered, &unsynced);
            if !matches!(op, CacheOp::Get(..) | CacheOp::Take(..)) {
                // Enforced after every write and sync (a read leaves the row
                // it faulted in over budget until the next access).
                let t = tiered.tiered.as_deref().expect("tiered");
                assert!(t.resident_bytes <= t.budget || t.clean_rows == 0, "over budget with clean rows");
            }
        }
        assert_eq!(tiered.snapshot(), flat.snapshot(), "image with unsynced changes");
        assert!(tiered.take_tier_error().is_none());
        let stats = tiered.backend_stats();
        if budget == u64::MAX {
            assert_eq!((stats.faults, stats.evictions), (0, 0), "nothing exceeds an unbounded budget");
        }
        (stats.faults, stats.evictions)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn tiered_cache_matches_untiered_model(
            ops in proptest::collection::vec(cache_op(), 1..160),
        ) {
            for budget in [1024, 4096, u64::MAX] {
                let first = run_against_flat_model(&ops, budget);
                // The CLOCK hand is state, not time: same sequence, same counts.
                proptest::prop_assert_eq!(run_against_flat_model(&ops, budget), first);
            }
        }
    }

    // ----- model test: the slot table against an ordered map -----

    #[derive(Clone, Debug)]
    enum TableOp {
        Insert(ValueKey, i64),
        Remove(ValueKey),
        Get(ValueKey),
    }

    /// Few enough keys that inserts overwrite and removes hit, enough that
    /// the table grows from 16 positions to 256; a key's home is anywhere,
    /// so runs wrap past the last position.
    fn table_key() -> impl proptest::Strategy<Value = ValueKey> {
        use proptest::prelude::*;
        prop_oneof![(0u16..3, 0u64..48), (0u16..3, 0u64..48), (0u16..2, any::<u64>())]
    }

    fn table_op() -> impl proptest::Strategy<Value = TableOp> {
        use proptest::prelude::*;
        prop_oneof![
            (table_key(), any::<i64>()).prop_map(|(k, v)| TableOp::Insert(k, v)),
            (table_key(), any::<i64>()).prop_map(|(k, v)| TableOp::Insert(k, v)),
            table_key().prop_map(TableOp::Remove),
            table_key().prop_map(TableOp::Get),
        ]
    }

    /// What must hold of the table against `model` after every operation;
    /// `gone` are keys removed and not inserted since.
    fn check_table(t: &SlotTable<Slot>, model: &BTreeMap<ValueKey, i64>, gone: &BTreeSet<ValueKey>) {
        assert_eq!(t.len(), model.len());
        assert_eq!(t.index.iter().filter(|&&e| e != 0).count(), model.len());
        assert!(t.len() * 4 <= t.index.len() * 3, "over the load limit");
        for (&k, &v) in model {
            assert_eq!(t.get(k).map(|slot| slot.row.int(0)), Some(v), "{k:?}");
        }
        assert!(gone.iter().all(|&k| t.get(k).is_none()), "a removed key is found");
        let walk: Vec<(ValueKey, i64)> = t.sorted().into_iter().map(|(k, slot)| (k, slot.row.int(0))).collect();
        assert_eq!(walk, model.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>());
        // Each slot is named by one position, which keeps its hash; every
        // position from a key's home up to the key's own is taken.
        let mask = t.index.len().wrapping_sub(1);
        let mut named = vec![false; t.len()];
        for (i, &e) in t.index.iter().enumerate().filter(|&(_, &e)| e != 0) {
            let h = key_hash(t.slots[entry_slot(e)].key());
            assert_eq!(e, position_entry(h, entry_slot(e)));
            assert!(!std::mem::replace(&mut named[entry_slot(e)], true), "a slot named twice");
            let mut p = t.home(h);
            while p != i {
                assert_ne!(t.index[p], 0, "position {i} behind the free position {p}");
                p = (p + 1) & mask;
            }
        }
    }

    /// Run `ops` on a table beside a `BTreeMap`; returns the final layout.
    fn run_table_against_model(ops: &[TableOp]) -> (Vec<u64>, Vec<ValueKey>) {
        let mut t = SlotTable::<Slot>::default();
        let mut model = BTreeMap::new();
        let mut gone = BTreeSet::new();
        for op in ops {
            match *op {
                TableOp::Insert(k, v) => {
                    let old = t.insert(Slot::new(k, row(v), false)).map(|slot| slot.row.int(0));
                    assert_eq!(old, model.insert(k, v));
                    gone.remove(&k);
                }
                TableOp::Remove(k) => {
                    assert_eq!(t.remove(k).map(|slot| slot.row.int(0)), model.remove(&k));
                    gone.insert(k);
                }
                TableOp::Get(k) => assert_eq!(t.get(k).map(|slot| slot.row.int(0)), model.get(&k).copied()),
            }
            check_table(&t, &model, &gone);
        }
        (t.index, t.slots.iter().map(Slot::key).collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn slot_table_matches_ordered_model(ops in proptest::collection::vec(table_op(), 1..400)) {
            let layout = run_table_against_model(&ops);
            // No seed: the same operations leave the same positions.
            proptest::prop_assert_eq!(run_table_against_model(&ops), layout);
        }
    }

    #[test]
    fn slot_table_runs_wrap_past_the_last_position() {
        let mut t = SlotTable::<Slot>::default();
        t.reserve(1);
        let last = t.index.len() - 1;
        let keys: Vec<ValueKey> = (0..).map(|k| (0, k)).filter(|&k| t.home(key_hash(k)) == last).take(3).collect();
        for &k in &keys {
            t.insert(Slot::new(k, row(0), false));
        }
        let at = |t: &SlotTable<Slot>, i: usize| (t.index[i] != 0).then(|| t.slots[entry_slot(t.index[i])].key());
        assert_eq!([at(&t, last), at(&t, 0), at(&t, 1)], [Some(keys[0]), Some(keys[1]), Some(keys[2])]);
        // Removing the row at the end shifts the run back across the wrap.
        assert!(t.remove(keys[0]).is_some());
        assert_eq!([at(&t, last), at(&t, 0), at(&t, 1)], [Some(keys[1]), Some(keys[2]), None]);
        assert!(t.get(keys[2]).is_some() && t.get(keys[0]).is_none());
    }

    // ----- model test: list state against an ordered map -----

    #[derive(Clone, Debug)]
    enum ListOp {
        Push(ValueKey, i64),
        Take(ValueKey),
        Cut,
    }

    fn list_op() -> impl proptest::Strategy<Value = ListOp> {
        use proptest::prelude::*;
        // Few keys, so a take hits and a push after it re-creates the list.
        let key = || (0u16..2, 0u64..12);
        prop_oneof![
            (key(), any::<i64>()).prop_map(|(k, v)| ListOp::Push(k, v)),
            (key(), any::<i64>()).prop_map(|(k, v)| ListOp::Push(k, v)),
            (key(), any::<i64>()).prop_map(|(k, v)| ListOp::Push(k, v)),
            key().prop_map(ListOp::Take),
            Just(ListOp::Cut),
        ]
    }

    /// `ops` on a store beside a `BTreeMap` of lists. Every cut is a delta
    /// that holds exactly the keys changed since the last one, in key order,
    /// a put for a list still there and a tombstone for one taken; the base
    /// image and the deltas fold into the full image.
    fn run_lists_against_model(ops: &[ListOp]) {
        let mut s = StateStore::new();
        let mut model: BTreeMap<ValueKey, Vec<i64>> = BTreeMap::new();
        let mut changed: BTreeSet<ValueKey> = BTreeSet::new();
        let base = s.snapshot();
        let mut deltas = Vec::new();
        for op in ops {
            match *op {
                ListOp::Push(k, v) => {
                    s.push_list(k.0, k.1, row(v));
                    model.entry(k).or_default().push(v);
                    changed.insert(k);
                }
                ListOp::Take(k) => {
                    let taken: Vec<i64> = s.take_list(k.0, k.1).iter().map(|r| r.int(0)).collect();
                    let expected = model.remove(&k);
                    if expected.is_some() {
                        changed.insert(k);
                    }
                    assert_eq!(taken, expected.unwrap_or_default(), "take of {k:?}");
                }
                ListOp::Cut => {
                    assert_eq!(s.entry_count(false), changed.len() as u64);
                    let delta = s.snapshot_delta();
                    let entries = deltamap::read_entries(&delta).unwrap();
                    let got: Vec<(ValueKey, bool)> = entries
                        .iter()
                        .map(|e| (decode_kv_key(e.key).unwrap(), e.value.is_some()))
                        .collect();
                    let want: Vec<(ValueKey, bool)> =
                        changed.iter().map(|&k| (k, model.contains_key(&k))).collect();
                    assert_eq!(got, want, "delta keys");
                    assert!(entries.iter().all(|e| e.section == SEC_LISTS));
                    changed.clear();
                    deltas.push(delta);
                }
            }
            for (&(id, key), rows) in &model {
                let got: Vec<i64> = s.list(id, key).iter().map(|r| r.int(0)).collect();
                assert_eq!(&got, rows, "list {id}/{key}");
            }
            assert_eq!(s.entries(), model.len());
        }
        deltas.push(s.snapshot_delta());
        let chain: Vec<&[u8]> = deltas.iter().map(|d| &d[..]).collect();
        assert_eq!(merge_chain(&base, &chain).unwrap(), s.snapshot(), "base + deltas = full image");
        let back = StateStore::restore(&s.snapshot()).unwrap();
        assert_eq!(back.digest(), s.digest());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn list_table_matches_ordered_model(ops in proptest::collection::vec(list_op(), 1..200)) {
            run_lists_against_model(&ops);
        }
    }

    #[test]
    fn re_registering_a_live_timer_ships_nothing() {
        let mut s = StateStore::new();
        let (event, proc) = (StateTimer { ts: 10, key: 1, tag: 0 }, StateTimer { ts: 20, key: 2, tag: 0 });
        assert!(s.register_event_timer(event));
        assert!(s.register_proc_timer(proc));
        assert_eq!(s.entry_count(false), 2);
        let _ = s.snapshot_delta();
        assert!(!s.register_event_timer(event), "live already");
        assert!(!s.register_proc_timer(proc), "live already");
        assert_eq!(s.entry_count(false), 0);
        let delta = s.snapshot_delta();
        assert!(deltamap::read_entries(&delta).unwrap().is_empty(), "no timer entry in the delta");
        // Fired and registered again in one epoch: a put, as before.
        assert_eq!(s.pop_due_event_timers(10), vec![event]);
        assert!(s.register_event_timer(event));
        assert_eq!(s.entry_count(false), 1);
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
