//! Sinks: immediate writes with §5.5 dedup, the baseline's transactional
//! pre-commit, and the read-committed view of a sink partition. Only this
//! file matches on [`SinkMode`] or touches a sink's dedup set or buffers.

use super::*;
use crate::graph::SinkSpec;
use bytes::Bytes;
use clonos_storage::codec::ByteReader;
use clonos_storage::log::{LogPartition, LogRecord, Meta};
use std::ops::Range;

/// Sink output handling mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SinkMode {
    /// Write records immediately; `dedup` rebuilds the committed-ident set
    /// from the output log's determinant metadata on recovery (§5.5).
    Immediate { dedup: bool },
    /// Buffer per epoch; pre-commit to the output topic at the snapshot cut
    /// that seals the epoch (the baseline's transactional two-phase sink).
    /// The pre-committed write is durable — it survives the sink dying
    /// right after its checkpoint ack — and a restart's abort markers roll
    /// back any transaction whose checkpoint never completed.
    Transactional,
}

/// A sink task's output side: its spec, its mode and that mode's state.
pub(super) struct Sink {
    pub(super) spec: SinkSpec,
    mode: SinkMode,
    /// Idents written per un-checkpointed epoch (dedup set).
    committed: CommittedIdents,
    /// Buffered uncommitted output (transactional mode).
    pending: BTreeMap<EpochId, Vec<SinkOut>>,
}

impl Sink {
    pub(super) fn new(spec: &SinkSpec, ft: &FtMode) -> Sink {
        let mode = match ft {
            FtMode::GlobalRollback => SinkMode::Transactional,
            FtMode::Clonos(c) => SinkMode::Immediate { dedup: c.guarantee == GuaranteeMode::ExactlyOnce },
            FtMode::None => SinkMode::Immediate { dedup: false },
        };
        Sink { spec: spec.clone(), mode, committed: CommittedIdents::default(), pending: BTreeMap::new() }
    }

    /// Checkpoint `id` completed: no producer replays its epochs again.
    pub(super) fn truncate_through(&mut self, id: EpochId) {
        self.committed.truncate_through(id);
    }
}

/// The idents an immediate sink has written in epochs no checkpoint covers
/// yet (the §5.5 dedup set), per producer and epoch as an ascending vector.
/// A producer's records reach a sink in ident order (FIFO channel, monotone
/// `emit_seq`), so the steady-state insert is one comparison against the
/// producer's high-water ident and a push; only what a replaying or
/// rolled-back producer sends again is searched for.
#[derive(Default)]
struct CommittedIdents {
    /// A sink has a handful of producers: a scan, tried first at `hint`.
    producers: Vec<ProducerIdents>,
    /// Slot of the last insert's producer (records arrive in buffers).
    hint: usize,
}

struct ProducerIdents {
    producer: TaskId,
    /// One past the highest ident inserted since the last `clear`: an ident
    /// at or above it is held in no epoch. Truncation leaves it alone — a
    /// mark that is too high only sends an insert down the searching path.
    fresh_from: u64,
    /// Live epochs, each with its idents ascending.
    epochs: BTreeMap<EpochId, Vec<u64>>,
}

impl CommittedIdents {
    /// Add `ident` under `epoch`; false if some live epoch already holds it.
    fn insert(&mut self, epoch: EpochId, ident: u64) -> bool {
        let producer = ident >> 40;
        if self.producers.get(self.hint).is_none_or(|p| p.producer != producer) {
            self.hint = self.producers.iter().position(|p| p.producer == producer).unwrap_or_else(|| {
                self.producers.push(ProducerIdents { producer, fresh_from: 0, epochs: BTreeMap::new() });
                self.producers.len() - 1
            });
        }
        self.producers.get_mut(self.hint).is_some_and(|p| p.insert(epoch, ident))
    }

    fn truncate_through(&mut self, epoch: EpochId) {
        for p in &mut self.producers {
            p.epochs.retain(|&e, _| e > epoch);
        }
    }

    fn clear(&mut self) {
        self.producers.clear();
    }
}

impl ProducerIdents {
    fn insert(&mut self, epoch: EpochId, ident: u64) -> bool {
        if ident >= self.fresh_from {
            self.fresh_from = ident + 1;
            self.epochs.entry(epoch).or_default().push(ident);
            return true;
        }
        if self.epochs.values().any(|idents| idents.binary_search(&ident).is_ok()) {
            return false;
        }
        let idents = self.epochs.entry(epoch).or_default();
        idents.insert(idents.partition_point(|&i| i < ident), ident);
        true
    }
}

/// One record on its way to the output topic: the two header fields the sink
/// itself needs, and the record's wire bytes as a slice of the network
/// buffer it arrived in (a refcount bump, no copy; see DESIGN.md "Record
/// path ownership" for why pinning that buffer costs no resident bytes).
struct SinkOut {
    ident: u64,
    create_ts: u64,
    payload: Bytes,
}

impl Task {
    /// `rec` carries the header of the record whose wire bytes are
    /// `payload[range]`; those bytes go to the output topic as they are.
    pub(super) fn sink_write(
        &mut self,
        rec: &Record,
        payload: &Bytes,
        range: Range<usize>,
        commit_at: VirtualTime,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        let epoch = self.epoch;
        let Role::Sink(sink) = &mut self.role else {
            return Ok(());
        };
        if let SinkMode::Immediate { dedup: true } = sink.mode {
            // §5.5: determinants piggybacked on output records let a
            // recovered sink skip rewrites.
            if !sink.committed.insert(epoch, rec.ident) {
                return Ok(());
            }
        }
        let out =
            SinkOut { ident: rec.ident, create_ts: rec.create_ts, payload: payload.slice(range) };
        match sink.mode {
            SinkMode::Immediate { .. } => self.write_out(out, epoch, commit_at, ctx),
            SinkMode::Transactional => {
                sink.pending.entry(epoch).or_default().push(out);
                Ok(())
            }
        }
    }

    /// Two-phase-commit pre-commit for transactional sinks, run at the
    /// snapshot cut for checkpoint `through`: append every buffered epoch
    /// `<= through` to the output topic, tagged with the epoch that produced
    /// it. The write makes the transaction durable the moment the sink acks
    /// — a sink that dies between its ack and the completion notification no
    /// longer takes committed-but-unwritten records down with it. Visibility
    /// stays read-committed through the abort markers a restart appends: a
    /// rollback to checkpoint `r` hides every older-generation record with
    /// epoch `> r`, which is exactly the set of pre-committed transactions
    /// whose checkpoint never completed.
    pub(super) fn commit_pending(&mut self, through: EpochId, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        let mut to_write: Vec<(EpochId, Vec<SinkOut>)> = Vec::new();
        if let Role::Sink(Sink { mode: SinkMode::Transactional, pending, .. }) = &mut self.role {
            let epochs: Vec<EpochId> = pending.keys().copied().filter(|&e| e <= through).collect();
            for e in epochs {
                to_write.push((e, pending.remove(&e).unwrap_or_default()));
            }
        }
        let now = ctx.sched.now();
        for (e, recs) in to_write {
            for out in recs {
                self.write_out(out, e, now, ctx)?;
            }
        }
        Ok(())
    }

    /// Physically append to the output topic and record metrics. `epoch` is
    /// the transaction tag the record is committed under (the epoch that
    /// produced it), which the read-committed filter compares against abort
    /// markers.
    fn write_out(
        &mut self,
        out: SinkOut,
        epoch: EpochId,
        commit_at: VirtualTime,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        let Role::Sink(Sink { spec, .. }) = &self.role else {
            return Ok(());
        };
        let t = ctx
            .topics
            .get_mut(&spec.topic)
            .ok_or_else(|| EngineError::Protocol(format!("missing output topic {}", spec.topic)))?;
        let meta = Meta::tagged(META_DATA, [self.spec.id, self.gen as u64, epoch, out.ident]);
        let p = self.spec.subtask % t.num_partitions();
        t.partition_mut(p).append_with_meta(out.payload, Some(meta));
        let latency = commit_at.saturating_sub(VirtualTime(out.create_ts));
        ctx.metrics.record_output(self.spec.id, commit_at, latency);
        Ok(())
    }

    /// A new incarnation resumes after checkpoint `resume_cp`: a dedup sink
    /// rebuilds its committed-ident set from the output topic's determinant
    /// metadata (§5.5's "return them when requested") if `rebuild` is set.
    pub(super) fn restore_sink_dedup(&mut self, resume_cp: u64, rebuild: bool, ctx: &mut TaskCtx<'_>) {
        let Role::Sink(Sink { spec, mode: SinkMode::Immediate { dedup: true }, committed, .. }) =
            &mut self.role
        else {
            return;
        };
        committed.clear();
        if rebuild {
            if let Some(topic) = ctx.topics.get(&spec.topic) {
                let p = self.spec.subtask % topic.num_partitions();
                for m in effective_sink_meta(topic.partition(p), self.spec.id) {
                    if m.epoch > resume_cp {
                        committed.insert(m.epoch, m.ident);
                    }
                }
            }
        }
    }
}

/// Sink-output metadata kinds (see `write_out` / abort markers).
pub const META_DATA: u8 = 0;
pub const META_ABORT: u8 = 1;

/// Parsed sink metadata attached to an output record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SinkMeta {
    pub task: TaskId,
    pub gen: u32,
    pub epoch: EpochId,
    pub ident: u64,
}

fn parse_meta(meta: &[u8]) -> Option<(u8, SinkMeta)> {
    let mut r = ByteReader::new(meta);
    let kind = r.get_u8().ok()?;
    Some((
        kind,
        SinkMeta {
            task: r.get_varint().ok()?,
            gen: r.get_varint().ok()? as u32,
            epoch: r.get_varint().ok()?,
            ident: r.get_varint().ok()?,
        },
    ))
}

/// Encode an abort marker: output of `task` from generations `< gen` in
/// epochs `> epoch` is aborted (the global-rollback analogue of a Kafka
/// transaction abort; read-committed consumers skip the records it covers).
pub fn encode_abort_marker(task: TaskId, gen: u32, epoch: EpochId) -> Meta {
    Meta::tagged(META_ABORT, [task, u64::from(gen), epoch, 0])
}

/// The read-committed walk of a sink partition: every data record of `sink`
/// that no abort marker of `sink` covers, with its parsed metadata. The one
/// scan of abort markers; callers decide whether to decode the record.
fn effective_sink_walk(
    partition: &LogPartition,
    sink: TaskId,
) -> impl Iterator<Item = (SinkMeta, &LogRecord)> {
    let records = partition.fetch(0, usize::MAX);
    let parsed = move |r: &LogRecord| {
        r.meta.as_deref().and_then(parse_meta).filter(|(_, m)| m.task == sink)
    };
    let aborts: Vec<(u32, EpochId)> = records
        .iter()
        .filter_map(parsed)
        .filter(|(kind, _)| *kind == META_ABORT)
        .map(|(_, m)| (m.gen, m.epoch))
        .collect();
    records.iter().filter_map(move |r| {
        let (kind, m) = parsed(r)?;
        let aborted = aborts.iter().any(|&(g, e)| m.gen < g && m.epoch > e);
        (kind == META_DATA && !aborted).then_some((m, r))
    })
}

/// The *effective* (read-committed) output metadata of `sink`.
pub fn effective_sink_meta(partition: &LogPartition, sink: TaskId) -> Vec<SinkMeta> {
    effective_sink_walk(partition, sink).map(|(m, _)| m).collect()
}

/// Like [`effective_sink_meta`] but returns the decoded records too.
pub fn effective_sink_records(partition: &LogPartition, sink: TaskId) -> Vec<(SinkMeta, Record)> {
    effective_sink_walk(partition, sink)
        .filter_map(|(m, r)| Some((m, Record::decode(&mut ByteReader::new(&r.payload)).ok()?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clonos_storage::codec::ByteWriter;

    #[test]
    fn committed_idents_behave_as_a_set_per_live_epoch() {
        let id = |producer: u64, seq: u64| (producer << 40) | seq;
        let mut c = CommittedIdents::default();
        // In-order arrivals from two interleaved producers.
        for seq in 0..5 {
            assert!(c.insert(1, id(7, seq)));
            assert!(c.insert(1, id(3, seq * 2)));
        }
        assert!(c.insert(2, id(7, 5)));
        // Replays are refused whichever live epoch holds them.
        assert!(!c.insert(2, id(7, 0)));
        assert!(!c.insert(2, id(7, 5)));
        assert!(!c.insert(2, id(3, 8)));
        // An ident below the newest that was never written is still new, once.
        assert!(c.insert(2, id(3, 3)));
        assert!(!c.insert(2, id(3, 3)));
        assert!(c.insert(2, id(3, 1)));
        assert!(!c.insert(3, id(3, 1)));
        // Checkpoint 1 completes: its idents are forgotten, epoch 2's are not.
        c.truncate_through(1);
        assert!(c.insert(3, id(7, 0)));
        assert!(!c.insert(3, id(7, 5)));
        c.clear();
        assert!(c.insert(3, id(7, 5)));

        // A rolled-back producer re-sends across an epoch boundary: it wrote
        // 10..14 in epoch 4 and 14..18 in epoch 5, then restarts from 12.
        let mut c = CommittedIdents::default();
        for seq in 10..18 {
            assert!(c.insert(if seq < 14 { 4 } else { 5 }, id(9, seq)));
        }
        for seq in 12..18 {
            assert!(!c.insert(5, id(9, seq)), "re-sent {seq} written twice");
        }
        assert!(c.insert(5, id(9, 18)));
        // Checkpoint 4 completes between two re-sends: epoch 4's idents are
        // forgotten (the producer never rolls back behind a completed
        // checkpoint, but the set must still answer), epoch 5's are kept,
        // and the high-water mark survives so nothing above it is searched.
        c.truncate_through(4);
        assert!(c.insert(6, id(9, 12)), "epoch 4 was truncated");
        assert!(!c.insert(6, id(9, 12)));
        assert!(!c.insert(6, id(9, 15)), "epoch 5 is still live");
        assert!(!c.insert(6, id(9, 18)));
        assert!(c.insert(6, id(9, 19)));
        // An old ident filed under an epoch older than the newest live one
        // keeps every vector ascending.
        assert!(c.insert(5, id(9, 11)));
        assert!(!c.insert(6, id(9, 11)));
        // Another producer's idents are independent of this one's mark.
        assert!(c.insert(6, id(2, 0)));
        assert!(!c.insert(6, id(2, 0)));
    }

    #[test]
    fn sink_meta_roundtrip_and_abort_filtering() {
        let mut part = clonos_storage::log::LogPartition::default();
        // Two records in epoch 2 by sink 7 gen 0, then an abort marker
        // (gen < 1, epoch > 1), then a rewrite in gen 1.
        let meta = |gen: u32, epoch: u64, ident: u64| Meta::tagged(META_DATA, [7, u64::from(gen), epoch, ident]);
        let payload = {
            let rec = Record {
                key: 1,
                event_time: 0,
                create_ts: 0,
                ident: 100,
                row: crate::record::Row::default(),
            };
            let mut w = ByteWriter::new();
            rec.encode(&mut w);
            w.freeze()
        };
        part.append_with_meta(payload.clone(), Some(meta(0, 1, 100))); // committed epoch 1
        part.append_with_meta(payload.clone(), Some(meta(0, 2, 101))); // will be aborted
        part.append_with_meta(bytes::Bytes::new(), Some(encode_abort_marker(7, 1, 1)));
        part.append_with_meta(payload.clone(), Some(meta(1, 2, 102))); // rewrite
        let effective = effective_sink_meta(&part, 7);
        let idents: Vec<u64> = effective.iter().map(|m| m.ident).collect();
        assert_eq!(idents, vec![100, 102]);
        // Records of another sink are invisible.
        assert!(effective_sink_meta(&part, 9).is_empty());
        let recs = effective_sink_records(&part, 7);
        assert_eq!(recs.len(), 2);
    }
}
