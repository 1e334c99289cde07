//! Property-based tests over the core Clonos data structures, as promised in
//! DESIGN.md §6: delta ship/ingest equivalence under arbitrary chunking,
//! in-flight-log replay equivalence across spill policies, truncation
//! arithmetic, and dedup-count bookkeeping.

use bytes::Bytes;
use clonos::causal_log::{CausalLogManager, TaskLogSnapshot};
use clonos::config::SpillPolicy;
use clonos::determinant::{Determinant, RpcKind};
use clonos::inflight::{InFlightLog, SentBuffer};
use clonos_sim::VirtualDuration;
use clonos_storage::codec::{ByteReader, ByteWriter};
use clonos_storage::spill::SpillDevice;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[path = "common/wire_v2.rs"]
mod wire_v2;

fn arb_main_determinant() -> impl Strategy<Value = Determinant> {
    prop_oneof![
        (0u32..4).prop_map(|channel| Determinant::Order { channel }),
        (any::<u16>(), any::<u16>())
            .prop_map(|(t, o)| Determinant::Timer { timer_id: t as u64, offset: o as u64 }),
        (any::<u32>(), any::<u16>())
            .prop_map(|(ts, o)| Determinant::Timestamp { ts: ts as u64, offset: o as u64 }),
        // Jumps no `i64` delta holds: the wire writes them absolute.
        (any::<u64>(), any::<u64>()).prop_map(|(ts, offset)| Determinant::Timestamp { ts, offset }),
        any::<u64>().prop_map(|seed| Determinant::RngSeed { seed }),
        proptest::collection::vec(any::<u8>(), 0..32)
            .prop_map(|payload| Determinant::External { payload }),
        any::<u32>().prop_map(|ts| Determinant::Watermark { ts: ts as u64 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Shipping a determinant stream in arbitrary chunk boundaries (one
    /// delta per chunk) reconstructs the identical replica downstream.
    #[test]
    fn delta_chunking_is_transparent(
        dets in proptest::collection::vec(arb_main_determinant(), 1..64),
        cuts in proptest::collection::vec(1usize..8, 0..16),
    ) {
        let mut up = CausalLogManager::new(1, 1, 1);
        let mut down = CausalLogManager::new(2, 0, 1);
        let mut it = dets.iter();
        let mut remaining = dets.len();
        for &cut in &cuts {
            let n = cut.min(remaining);
            for d in it.by_ref().take(n) {
                up.record(d.clone());
            }
            remaining -= n;
            let delta = up.collect_delta(0);
            down.ingest_delta(&delta).unwrap();
            if remaining == 0 {
                break;
            }
        }
        for d in it {
            up.record(d.clone());
        }
        let delta = up.collect_delta(0);
        down.ingest_delta(&delta).unwrap();
        prop_assert_eq!(down.export_replica(1).unwrap(), up.own_snapshot());
    }

    /// Duplicate delivery of any delta suffix is idempotent (diamond paths).
    #[test]
    fn duplicate_deltas_are_idempotent(
        dets in proptest::collection::vec(arb_main_determinant(), 1..32),
    ) {
        let mut up = CausalLogManager::new(1, 2, 1);
        for d in &dets {
            up.record(d.clone());
        }
        let d0 = up.collect_delta(0);
        let d1 = up.collect_delta(1); // same entries, second channel's cursor
        let mut down = CausalLogManager::new(2, 0, 1);
        let added_first = down.ingest_delta(&d0).unwrap();
        let added_second = down.ingest_delta(&d1).unwrap();
        prop_assert_eq!(added_first, dets.len() as u64);
        prop_assert_eq!(added_second, 0);
        // Both deliveries count as ingested deltas; only the first adds entries.
        let stats = &down.stats;
        prop_assert_eq!((stats.deltas_ingested, stats.entries_ingested), (2, added_first));
        prop_assert_eq!(down.export_replica(1).unwrap(), up.own_snapshot());
    }

    /// Replay consumes exactly what was recorded, in order, and rebuilds a
    /// byte-identical log.
    #[test]
    fn replay_rebuilds_identical_log(
        dets in proptest::collection::vec(arb_main_determinant(), 1..48),
    ) {
        let mut up = CausalLogManager::new(1, 1, 1);
        for d in &dets {
            up.record(d.clone());
        }
        let delta = up.collect_delta(0);
        let mut down = CausalLogManager::new(2, 0, 1);
        down.ingest_delta(&delta).unwrap();
        let mut replaced = CausalLogManager::new(1, 1, 1);
        replaced.begin_replay(down.export_replica(1).unwrap(), 0);
        let mut popped = Vec::new();
        while replaced.replaying() {
            popped.push(replaced.pop_replay().unwrap());
        }
        prop_assert_eq!(&popped, &dets);
        prop_assert_eq!(replaced.own_snapshot(), up.own_snapshot());
    }

    /// The in-flight log replays the same buffer sequence under every spill
    /// policy, regardless of truncation points.
    #[test]
    fn spill_policies_replay_identically(
        sizes in proptest::collection::vec(1usize..2_000, 1..48),
        epochs_per in 1usize..8,
        truncate_through in proptest::option::of(0u64..8),
    ) {
        let reference: Vec<SentBuffer> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| SentBuffer {
                epoch: (i / epochs_per) as u64,
                payload: Bytes::from(vec![(i % 251) as u8; s]),
                delta: Bytes::from(vec![i as u8]),
                records: 1,
            })
            .collect();
        let mut outputs: Vec<Vec<SentBuffer>> = Vec::new();
        for policy in [
            SpillPolicy::InMemory,
            SpillPolicy::SpillEpoch,
            SpillPolicy::SpillBuffer,
            SpillPolicy::SpillThreshold(0.5),
        ] {
            let mut log = InFlightLog::new(1, policy, 8);
            let mut dev = SpillDevice::new();
            for b in &reference {
                log.append(0, b.clone(), &mut dev);
            }
            if let Some(t) = truncate_through {
                log.truncate_through(t, &mut dev);
            }
            let from_epoch = truncate_through.map(|t| t + 1).unwrap_or(0);
            let mut cursor = log.open_replay(0, from_epoch);
            let mut replayed = Vec::new();
            let mut io = VirtualDuration::ZERO;
            while let Some((b, read)) = log.replay_next(&mut cursor, &mut dev) {
                replayed.push(b);
                io = io + read;
            }
            // `replay_io` is exactly the read-back the replay paid: none
            // when nothing was spilled.
            prop_assert_eq!(log.stats.replay_io, io);
            if matches!(policy, SpillPolicy::InMemory) {
                prop_assert_eq!(io, VirtualDuration::ZERO);
            }
            outputs.push(replayed);
        }
        for w in outputs.windows(2) {
            prop_assert_eq!(&w[0], &w[1], "spill policies disagree on replay contents");
        }
        // And the replayed set matches the un-truncated reference suffix.
        let expect: Vec<&SentBuffer> = reference
            .iter()
            .filter(|b| truncate_through.map(|t| b.epoch > t).unwrap_or(true))
            .collect();
        prop_assert_eq!(outputs[0].len(), expect.len());
        for (got, want) in outputs[0].iter().zip(expect) {
            prop_assert_eq!(got, want);
        }
    }

    /// Truncation is exact: epochs ≤ t disappear, the rest stay, and byte
    /// accounting never underflows.
    #[test]
    fn truncation_arithmetic(
        dets in proptest::collection::vec(arb_main_determinant(), 1..64),
        epoch_span in 1u64..6,
        t in 0u64..8,
    ) {
        let mut m = CausalLogManager::new(1, 1, 1);
        for (i, d) in dets.iter().enumerate() {
            m.set_epoch(i as u64 / epoch_span);
            m.record(d.clone());
        }
        m.truncate_through(t);
        let snap = m.own_snapshot();
        for (_, _, entries) in &snap.logs {
            let _ = entries;
        }
        let remaining: usize = snap.total_entries();
        let expected = dets
            .iter()
            .enumerate()
            .filter(|(i, _)| (*i as u64 / epoch_span) > t)
            .count();
        prop_assert_eq!(remaining, expected);
    }
}

// ---------------------------------------------------------------------
// Arena / reference delta equivalence
// ---------------------------------------------------------------------

/// One step of a randomized causal-log workload.
#[derive(Clone, Debug)]
enum Op {
    /// Record one main-thread determinant.
    Record(Determinant),
    /// Record a burst of same-channel `Order` determinants.
    OrderRun(u32, usize),
    /// Record a `BufferFlush` in an output-channel log.
    Flush(u32, u32, u32),
    /// Advance to the next epoch (a barrier passed through).
    NextEpoch,
    /// Collect and ship a delta on the given output channel.
    Collect(usize),
    /// A checkpoint completed: truncate everything before the current epoch,
    /// on the upstream *and* the downstream replica.
    Truncate,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_main_determinant().prop_map(Op::Record),
        (0u32..3, 3usize..12).prop_map(|(c, n)| Op::OrderRun(c, n)),
        (0u32..2, any::<u16>(), any::<u8>()).prop_map(|(c, s, r)| Op::Flush(c, s as u32, r as u32)),
        Just(Op::NextEpoch),
        (0usize..2).prop_map(Op::Collect),
        Just(Op::Truncate),
    ]
}

/// Decoded shadow of one `EpochLog`: what the pre-arena implementation
/// stored in memory.
#[derive(Default)]
struct ShadowLog {
    base: u64,
    entries: Vec<(u64, Determinant)>,
}

/// Byte-level reference of the v2 delta encoder over decoded entries: each
/// span re-encoded item by item from the zero context
/// ([`wire_v2::encode`]), at collect time. The arena-backed encoder, which
/// re-codes a span's first entry or two and copies the rest, must
/// reproduce these bytes exactly.
fn reference_delta(task: u64, logs: &[ShadowLog], cursors: &mut BTreeMap<u32, u64>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    reference_origin(&mut w, task, 0, logs, cursors);
    w.freeze().to_vec()
}

/// One origin: nothing if no log has an entry past its cursor, else
/// `origin, hops, nlogs`, the presence bitmap and a span per present log.
fn reference_origin(
    w: &mut ByteWriter,
    origin: u64,
    hops: u32,
    logs: &[ShadowLog],
    cursors: &mut BTreeMap<u32, u64>,
) {
    let windows: Vec<(u64, &[(u64, Determinant)])> = logs
        .iter()
        .enumerate()
        .map(|(id, log)| {
            let from = cursors.get(&(id as u32)).copied().unwrap_or(0).max(log.base);
            (from, log.entries.get((from - log.base) as usize..).unwrap_or(&[]))
        })
        .collect();
    if windows.iter().all(|(_, window)| window.is_empty()) {
        return;
    }
    w.put_varint(origin);
    w.put_varint(hops as u64);
    w.put_varint(logs.len() as u64);
    let mut bitmap = vec![0u8; logs.len().div_ceil(8)];
    for (id, (_, window)) in windows.iter().enumerate() {
        if !window.is_empty() {
            bitmap[id / 8] |= 1 << (id % 8);
        }
    }
    w.put_raw(&bitmap);
    for (id, (from, window)) in windows.into_iter().enumerate() {
        if window.is_empty() {
            continue;
        }
        let span = reference_span(window);
        w.put_varint(from);
        w.put_varint(window.len() as u64);
        w.put_varint(span.len() as u64);
        w.put_raw(&span);
        cursors.insert(id as u32, from + window.len() as u64);
    }
}

/// A span's entries, each coded against the one before it, the first
/// against the zero context.
fn reference_span(window: &[(u64, Determinant)]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    let mut ctx = wire_v2::Ctx::default();
    for (epoch, det) in window {
        wire_v2::encode(&mut w, &mut ctx, *epoch, det);
    }
    w.freeze().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// For arbitrary interleavings of records, flush determinants, epoch
    /// advances, per-channel delta collections, and mid-stream truncations,
    /// the arena-backed `collect_delta`:
    /// 1. produces the bytes of the v2 reference encoder over decoded
    ///    entries ([`reference_delta`]), and
    /// 2. reconstructs the identical log (seq, epoch, determinant) on a
    ///    downstream replica via `ingest_delta`, and
    /// 3. never re-encodes an entry into an arena at collect time.
    #[test]
    fn arena_delta_bytes_match_legacy_encoder(
        ops in proptest::collection::vec(arb_op(), 1..100),
    ) {
        const NCH: usize = 2;
        let mut up = CausalLogManager::new(1, NCH, 1);
        let mut down = CausalLogManager::new(2, 0, 1);
        // Shadow state: main log + NCH channel logs, per-channel cursors.
        let mut shadow: Vec<ShadowLog> = (0..NCH + 1).map(|_| ShadowLog::default()).collect();
        let mut cursors: Vec<BTreeMap<u32, u64>> = vec![BTreeMap::new(); NCH];
        let mut epoch = 0u64;
        for op in &ops {
            match op {
                Op::Record(d) => {
                    up.record(d.clone());
                    shadow[0].entries.push((epoch, d.clone()));
                }
                Op::OrderRun(channel, n) => {
                    for _ in 0..*n {
                        up.record(Determinant::Order { channel: *channel });
                        shadow[0].entries.push((epoch, Determinant::Order { channel: *channel }));
                    }
                }
                Op::Flush(ch, size, records) => {
                    up.record_flush(*ch, *size, *records);
                    shadow[*ch as usize + 1].entries.push(
                        (epoch, Determinant::BufferFlush { size: *size, records: *records }),
                    );
                }
                Op::NextEpoch => {
                    epoch += 1;
                    up.set_epoch(epoch);
                }
                Op::Collect(ch) => {
                    let real = up.collect_delta(*ch as u32);
                    let model = reference_delta(1, &shadow, &mut cursors[*ch]);
                    prop_assert_eq!(&real[..], &model[..], "arena delta diverged from the reference bytes");
                    down.ingest_delta(&real).unwrap();
                }
                Op::Truncate => {
                    let t = epoch.saturating_sub(1);
                    up.truncate_through(t);
                    down.truncate_through(t);
                    for log in &mut shadow {
                        while log.entries.first().is_some_and(|(e, _)| *e <= t) {
                            log.entries.remove(0);
                            log.base += 1;
                        }
                    }
                }
            }
        }
        // Drain the remainder on both channels, then the replica must equal
        // the upstream's own logs entry-for-entry.
        for (ch, chan_cursors) in cursors.iter_mut().enumerate() {
            let real = up.collect_delta(ch as u32);
            let model = reference_delta(1, &shadow, chan_cursors);
            prop_assert_eq!(&real[..], &model[..], "final arena delta diverged");
            down.ingest_delta(&real).unwrap();
        }
        // Nothing ever shipped, nothing to compare.
        let Some(replica) = down.export_replica(1) else {
            prop_assert_eq!(up.stats.delta_entries_shipped, 0);
            return Ok(());
        };
        let own = up.own_snapshot();
        prop_assert_eq!(replica.logs.len(), own.logs.len());
        for ((rid, rbase, rents), (oid, obase, oents)) in replica.logs.iter().zip(own.logs.iter()) {
            prop_assert_eq!(rid, oid);
            prop_assert_eq!(rents, oents, "replica log {} content diverged", oid);
            // A log emptied by truncation before anything shipped never
            // transmits its base; bases must agree whenever entries exist.
            if !oents.is_empty() {
                prop_assert_eq!(rbase, obase, "replica log {} base diverged", oid);
            }
        }
        // Encode-once: every entry was serialized exactly once, at append.
        prop_assert_eq!(up.stats.entries_encoded, up.stats.determinants_recorded);
    }
}

// ---------------------------------------------------------------------
// Span ingest / per-entry ingest equivalence
// ---------------------------------------------------------------------

impl ShadowLog {
    /// `EpochLog::ingest` as it was before ingest worked on spans: the
    /// sequence rules applied to one decoded entry. True if appended.
    fn ingest(&mut self, seq: u64, epoch: u64, det: Determinant, gap_resyncs: &mut u64) -> bool {
        if self.entries.is_empty() && seq > self.base {
            self.base = seq;
        }
        let next = self.base + self.entries.len() as u64;
        if seq < next {
            return false;
        }
        if seq > next {
            self.entries.clear();
            self.base = seq;
            *gap_resyncs += 1;
        }
        self.entries.push((epoch, det));
        true
    }

    /// Whether a span `from..from + count` holds nothing this log lacks.
    fn holds(&self, from: u64, count: u64) -> bool {
        let base = if self.entries.is_empty() { self.base.max(from) } else { self.base };
        from + count <= base + self.entries.len() as u64
    }

    fn truncate_through(&mut self, epoch: u64) {
        let stale = self.entries.iter().take_while(|(e, _)| *e <= epoch).count();
        self.entries.drain(..stale);
        self.base += stale as u64;
    }
}

/// Decoded reference model of a `CausalLogManager`: logs hold decoded
/// determinants, `collect_delta` re-encodes them item by item
/// ([`reference_origin`]) and `ingest_delta` decodes every item of a span it
/// lacks anything of and applies the sequence rules entry by entry — what
/// the manager did before the arena and before span ingest, on the v2 wire.
struct ModelManager {
    task: u64,
    dsd: u32,
    epoch: u64,
    own: Vec<ShadowLog>,
    /// origin -> (hops, logs by id)
    replicated: BTreeMap<u64, (u32, Vec<ShadowLog>)>,
    /// cursors[channel][origin][log id]
    cursors: Vec<BTreeMap<u64, BTreeMap<u32, u64>>>,
    /// Per channel: carried a record this epoch (forwards replicated logs).
    carried: Vec<bool>,
    entries_ingested: u64,
    gap_resyncs: u64,
    held_spans_skipped: u64,
    forwards_withheld: u64,
}

/// An entry a task depends on: `(origin, log id, seq, epoch)`.
type Dep = (u64, u32, u64, u64);

impl ModelManager {
    fn new(task: u64, channels: usize, dsd: u32) -> ModelManager {
        ModelManager {
            task,
            dsd,
            epoch: 0,
            own: (0..channels + 1).map(|_| ShadowLog::default()).collect(),
            replicated: BTreeMap::new(),
            cursors: vec![BTreeMap::new(); channels],
            carried: vec![false; channels],
            entries_ingested: 0,
            gap_resyncs: 0,
            held_spans_skipped: 0,
            forwards_withheld: 0,
        }
    }

    fn next_epoch(&mut self) {
        self.epoch += 1;
        self.carried.fill(false);
    }

    fn forwards(&self, hops: u32) -> bool {
        self.dsd > 1 && hops < self.dsd
    }

    fn record(&mut self, det: Determinant) {
        self.own[0].entries.push((self.epoch, det));
    }

    fn record_flush(&mut self, channel: u32, size: u32, records: u32) {
        self.own[channel as usize + 1]
            .entries
            .push((self.epoch, Determinant::BufferFlush { size, records }));
    }

    /// The rule: replicated logs within DSD ride a channel only once it has
    /// carried a record this epoch; own logs ride every buffer.
    fn collect_delta(&mut self, channel: usize, records: u32) -> Vec<u8> {
        self.carried[channel] |= records > 0;
        let dsd = self.dsd;
        let forwarded = |hops: u32| dsd > 1 && hops < dsd;
        let cursors = &mut self.cursors[channel];
        let mut w = ByteWriter::new();
        reference_origin(&mut w, self.task, 0, &self.own, cursors.entry(self.task).or_default());
        for (&origin, (hops, logs)) in &self.replicated {
            if !forwarded(*hops) {
                continue;
            }
            let cursor = cursors.entry(origin).or_default();
            if self.carried[channel] {
                reference_origin(&mut w, origin, *hops, logs, cursor);
            } else if logs.iter().zip(0..).any(|(log, id)| {
                cursor.get(&id).copied().unwrap_or(0).max(log.base) < log.base + log.entries.len() as u64
            }) {
                self.forwards_withheld += 1;
            }
        }
        w.freeze().to_vec()
    }

    /// Every entry this task holds that a record-carrying buffer it cuts
    /// makes its receiver depend on: its own logs and the replicas it
    /// forwards.
    fn forwardable(&self) -> Vec<Dep> {
        let replicas = self.replicated.iter().filter(|(_, (hops, _))| self.forwards(*hops));
        std::iter::once((self.task, &self.own))
            .chain(replicas.map(|(&origin, (_, logs))| (origin, logs)))
            .flat_map(|(origin, logs)| {
                logs.iter().zip(0u32..).flat_map(move |(log, id)| {
                    log.entries.iter().zip(log.base..).map(move |((epoch, _), seq)| (origin, id, seq, *epoch))
                })
            })
            .collect()
    }

    fn ingest_delta(&mut self, delta: &[u8]) {
        let mut r = ByteReader::new(delta);
        while !r.is_empty() {
            let origin = r.get_varint().unwrap();
            let hops = r.get_varint().unwrap() as u32 + 1;
            let nlogs = r.get_varint().unwrap() as usize;
            let bitmap = r.get_raw(nlogs.div_ceil(8)).unwrap();
            let (held_hops, logs) = self.replicated.entry(origin).or_insert_with(|| (hops, Vec::new()));
            *held_hops = (*held_hops).min(hops);
            if logs.len() < nlogs {
                logs.resize_with(nlogs, ShadowLog::default);
            }
            for id in (0..nlogs).filter(|id| bitmap[id / 8] & (1 << (id % 8)) != 0) {
                let from = r.get_varint().unwrap();
                let count = r.get_varint().unwrap();
                let len = r.get_varint().unwrap() as usize;
                let mut span = ByteReader::new(r.get_raw(len).unwrap());
                if logs[id].holds(from, count) {
                    self.held_spans_skipped += 1;
                    continue;
                }
                let mut ctx = wire_v2::Ctx::default();
                for seq in from..from + count {
                    let (epoch, det) = wire_v2::decode(&mut span, &mut ctx).unwrap();
                    let added = logs[id].ingest(seq, epoch, det, &mut self.gap_resyncs);
                    self.entries_ingested += added as u64;
                }
                assert!(span.is_empty(), "span bytes past its entries");
            }
        }
    }

    fn truncate_through(&mut self, epoch: u64) {
        let replicas = self.replicated.values_mut().flat_map(|(_, logs)| logs.iter_mut());
        for log in self.own.iter_mut().chain(replicas) {
            log.truncate_through(epoch);
        }
    }

    fn export_replica(&self, origin: u64) -> Option<TaskLogSnapshot> {
        let (_, logs) = self.replicated.get(&origin)?;
        let logs = logs.iter().zip(0..).map(|(log, id)| (id, log.base, log.entries.clone())).collect();
        Some(TaskLogSnapshot { logs })
    }
}

/// The diamond `1 -> {2, 3} -> 4 -> 5`: every edge as `(from, channel, to)`
/// in task ids; three hops from task 1 to task 5, and task 4 gets task 1's
/// log along two paths whose deltas are cut at different points.
const EDGES: [(u64, u32, u64); 5] = [(1, 0, 2), (1, 1, 3), (2, 0, 4), (3, 0, 4), (4, 0, 5)];
const TASKS: u64 = 5;

/// One step of a delta-exchange schedule over the diamond.
#[derive(Clone, Debug)]
enum Step {
    Record(u64, Determinant),
    OrderRun(u64, u32, usize),
    /// A flush determinant on an edge's channel log.
    Flush(usize, u16, u8),
    NextEpoch(u64),
    /// Collect a delta on an edge for a buffer of that many records (0: a
    /// barrier-only buffer) and put it in flight.
    Collect(usize, u32),
    /// Collect a delta on an edge and deliver it at once: what keeps logs
    /// flowing down both sides of the diamond between the disorderly steps.
    Ship(usize, u32),
    /// Deliver the in-flight delta `pick` (modulo what is there) of an edge;
    /// it stays in flight for a duplicate delivery unless `consume`.
    /// Picking past the oldest delivers out of order: forward gaps.
    Deliver(usize, usize, bool),
    /// A task learns its previous epoch is stable (tasks learn it at
    /// different times, so replicas empty while deltas are in flight).
    Truncate(u64),
}

fn arb_step() -> impl Strategy<Value = Step> {
    let task = || 1..TASKS + 1;
    let edge = || 0..EDGES.len();
    // Half the buffers carry records, half are barrier-only.
    let cut = move || (edge(), prop_oneof![Just(0u32), 1u32..64]);
    prop_oneof![
        (task(), arb_main_determinant()).prop_map(|(t, d)| Step::Record(t, d)),
        (task(), 0u32..2, 3usize..9).prop_map(|(t, c, n)| Step::OrderRun(t, c, n)),
        (3usize..9).prop_map(|n| Step::OrderRun(1, 0, n)),
        (edge(), any::<u16>(), any::<u8>()).prop_map(|(e, s, r)| Step::Flush(e, s, r)),
        task().prop_map(Step::NextEpoch),
        cut().prop_map(|(e, r)| Step::Collect(e, r)),
        cut().prop_map(|(e, r)| Step::Ship(e, r)),
        cut().prop_map(|(e, r)| Step::Ship(e, r)),
        cut().prop_map(|(e, r)| Step::Ship(e, r)),
        cut().prop_map(|(e, r)| Step::Ship(e, r)),
        (edge(), 0usize..3, any::<bool>()).prop_map(|(e, p, c)| Step::Deliver(e, p, c)),
        (edge(), 0usize..3, any::<bool>()).prop_map(|(e, p, c)| Step::Deliver(e, p, c)),
        task().prop_map(Step::Truncate),
    ]
}

/// The origins a delta carries, in order.
fn delta_origins(delta: &[u8]) -> Vec<u64> {
    let mut r = ByteReader::new(delta);
    let mut origins = Vec::new();
    while !r.is_empty() {
        origins.push(r.get_varint().unwrap());
        let _hops = r.get_varint().unwrap();
        let nlogs = r.get_varint().unwrap() as usize;
        let spans: u32 = r.get_raw(nlogs.div_ceil(8)).unwrap().iter().map(|b| b.count_ones()).sum();
        for _ in 0..spans {
            let (_from, _count, len) = (r.get_varint().unwrap(), r.get_varint().unwrap(), r.get_varint().unwrap());
            r.get_raw(len as usize).unwrap();
        }
    }
    origins
}

/// Run `steps` over the diamond on real managers and on the model, checking
/// that both ship the same bytes at every cut and end with the same
/// replicas and counters, and that a barrier-only buffer on a channel that
/// carried no record this epoch ships only its sender's own logs.
///
/// `fifo` delivers every edge's deltas in order, each once (the engine's
/// channels): `Ship` delivers all that is in flight on its edge and
/// `Deliver` the oldest. Then the dependency rule is checked after every
/// step: a task holds every entry it depends on that no checkpoint made
/// stable, where it depends on whatever its sender held (own logs and
/// replicas within DSD) when cutting a record-carrying buffer it received.
fn run_diamond(dsd: u32, steps: &[Step], fifo: bool) -> Result<(), TestCaseError> {
    let channels = |task: u64| EDGES.iter().filter(|(from, _, _)| *from == task).count();
    let mut real: Vec<CausalLogManager> =
        (1..=TASKS).map(|t| CausalLogManager::new(t, channels(t), dsd)).collect();
    let mut model: Vec<ModelManager> = (1..=TASKS).map(|t| ModelManager::new(t, channels(t), dsd)).collect();
    // In flight per edge: the delta and, for a record-carrying buffer, what
    // its receiver comes to depend on.
    let mut in_flight: Vec<Vec<(Vec<u8>, Vec<Dep>)>> = vec![Vec::new(); EDGES.len()];
    let mut depends: Vec<Vec<Dep>> = vec![Vec::new(); TASKS as usize];
    // Entries of epochs at or below this are stable somewhere: exempt.
    let mut stable: Option<u64> = None;
    let at = |task: u64| task as usize - 1;
    for step in steps {
        match step {
            Step::Record(t, d) => {
                real[at(*t)].record(d.clone());
                model[at(*t)].record(d.clone());
            }
            Step::OrderRun(t, channel, n) => {
                for _ in 0..*n {
                    real[at(*t)].record(Determinant::Order { channel: *channel });
                    model[at(*t)].record(Determinant::Order { channel: *channel });
                }
            }
            Step::Flush(e, size, records) => {
                let (from, ch, _) = EDGES[*e];
                real[at(from)].record_flush(ch, *size as u32, *records as u32);
                model[at(from)].record_flush(ch, *size as u32, *records as u32);
            }
            Step::NextEpoch(t) => {
                model[at(*t)].next_epoch();
                real[at(*t)].set_epoch(model[at(*t)].epoch);
            }
            Step::Truncate(t) => {
                if let Some(s) = model[at(*t)].epoch.checked_sub(1) {
                    real[at(*t)].truncate_through(s);
                    model[at(*t)].truncate_through(s);
                    stable = stable.max(Some(s));
                }
            }
            Step::Collect(..) | Step::Ship(..) | Step::Deliver(..) => {}
        }
        if let Step::Collect(e, records) | Step::Ship(e, records) = *step {
            let (from, ch, _) = EDGES[e];
            let idle = !model[at(from)].carried[ch as usize] && records == 0;
            if records > 0 {
                real[at(from)].mark_records(ch);
            }
            let delta = real[at(from)].collect_delta(ch);
            let want = model[at(from)].collect_delta(ch as usize, records);
            prop_assert_eq!(&delta[..], &want[..], "task {} channel {} ships other bytes", from, ch);
            if idle {
                prop_assert!(
                    delta_origins(&want).iter().all(|&o| o == from),
                    "task {}'s barrier-only buffer on idle channel {} forwarded an upstream log", from, ch
                );
            }
            let deps = if records > 0 { model[at(from)].forwardable() } else { Vec::new() };
            in_flight[e].push((want, deps));
        }
        let delivery = match (step, fifo) {
            (&Step::Ship(e, _), false) => Some((e, usize::MAX, true)), // the delta just collected
            (&Step::Deliver(e, pick, consume), false) => Some((e, pick, consume)),
            (&Step::Ship(e, _) | &Step::Deliver(e, ..), true) => Some((e, 0, true)),
            _ => None,
        };
        let Some((e, pick, consume)) = delivery else { continue };
        let (_, _, to) = EDGES[e];
        let rounds = if fifo && matches!(step, Step::Ship(..)) { in_flight[e].len() } else { 1 };
        for _ in 0..rounds {
            if in_flight[e].is_empty() {
                break;
            }
            let pick = pick.min(in_flight[e].len() - 1);
            let before = model[at(to)].entries_ingested;
            let added = real[at(to)].ingest_delta(&in_flight[e][pick].0).unwrap();
            model[at(to)].ingest_delta(&in_flight[e][pick].0);
            prop_assert_eq!(added, model[at(to)].entries_ingested - before);
            depends[at(to)].extend_from_slice(&in_flight[e][pick].1);
            if consume {
                in_flight[e].remove(pick);
            }
        }
        if !fifo {
            continue;
        }
        for (task, deps) in (1..=TASKS).zip(&mut depends) {
            deps.retain(|&(.., epoch)| stable.is_none_or(|s| epoch > s));
            for &(origin, id, seq, epoch) in deps.iter() {
                let replica = real[at(task)].export_replica(origin);
                let held = replica.as_ref().and_then(|r| r.for_log(id)).is_some_and(|(base, entries)| {
                    seq >= base && entries.get((seq - base) as usize).is_some_and(|(e, _)| *e == epoch)
                });
                prop_assert!(held, "task {} lost entry {} of task {}'s log {} (epoch {})", task, seq, origin, id, epoch);
            }
        }
    }
    for (real, model) in real.iter_mut().zip(&mut model) {
        for origin in 1..=TASKS {
            prop_assert_eq!(
                real.export_replica(origin),
                model.export_replica(origin),
                "task {}'s replica of task {}",
                model.task,
                origin
            );
        }
        prop_assert_eq!(real.stats.entries_ingested, model.entries_ingested);
        prop_assert_eq!(real.stats.gap_resyncs, model.gap_resyncs);
        prop_assert_eq!(real.stats.held_spans_skipped, model.held_spans_skipped);
        prop_assert_eq!(real.stats.forwards_withheld, model.forwards_withheld);
        // What is left to forward is the same bytes, too.
        for ch in 0..model.cursors.len() {
            real.mark_records(ch as u32);
            let delta = real.collect_delta(ch as u32);
            prop_assert_eq!(&delta[..], &model.collect_delta(ch, 1)[..]);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whatever the schedule — deltas delivered out of order, twice, after
    /// the receiver truncated, overlapping what another path delivered in
    /// the middle of a span, on record-carrying and barrier-only
    /// buffers — the span ingest leaves every task with the replicas, the
    /// counters and the forwarded bytes of the per-entry model.
    #[test]
    fn span_ingest_matches_per_entry_model(
        dsd in 1u32..4, // 3 = Full on this graph
        steps in proptest::collection::vec(arb_step(), 1..160),
    ) {
        run_diamond(dsd, &steps, false)?;
    }

    /// On FIFO channels, withholding forwarded logs from barrier-only
    /// buffers on idle channels never leaves a task without an entry it
    /// depends on through records (`Depend(e) ⊆ Log(e)`).
    #[test]
    fn record_paths_carry_every_forwarded_dependency(
        dsd in 1u32..4,
        steps in proptest::collection::vec(arb_step(), 1..160),
    ) {
        run_diamond(dsd, &steps, true)?;
    }
}
