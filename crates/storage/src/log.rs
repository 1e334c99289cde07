//! A durable, partitioned, offset-addressable record log — the in-process
//! substitute for the Kafka cluster the paper uses as source and sink.
//!
//! Guarantees mirrored from Kafka:
//! - per-partition FIFO append order, records addressed by dense offsets;
//! - replayable reads from any offset (sources rewind here on global
//!   rollback);
//! - an optional *metadata* side channel per record: Clonos' low-latency
//!   exactly-once output (§5.5) piggybacks serialized determinants on records
//!   sent to the downstream system, which must "store these determinants and
//!   be able to return them when requested". [`LogPartition::last_meta`]
//!   implements that query, letting a recovering sink deduplicate output it
//!   already committed.

use crate::codec::write_varint;
use bytes::Bytes;
use std::fmt;
use std::ops::Deref;

/// Offset of a record within a partition.
pub type Offset = u64;

/// Longest record metadata: a kind byte and four u64 varints.
const META_CAPACITY: usize = 1 + 4 * 10;

/// Producer-attached record metadata, held inline in its record, so that
/// attaching it allocates nothing. Derefs to its bytes. Its one
/// constructor writes at most 41 bytes: a longer value cannot be built, so
/// there is no heap fallback to take.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Meta {
    len: u8,
    bytes: [u8; META_CAPACITY],
}

impl Meta {
    /// `kind` followed by each field as a LEB128 varint
    /// ([`crate::codec::write_varint`]).
    pub fn tagged(kind: u8, fields: [u64; 4]) -> Meta {
        let mut meta = Meta { len: 0, bytes: [0; META_CAPACITY] };
        let mut len = 0;
        let mut out = meta.bytes.iter_mut();
        let mut put = |b: u8| {
            if let Some(o) = out.next() {
                *o = b;
                len += 1;
            }
        };
        put(kind);
        for v in fields {
            write_varint(v, &mut put);
        }
        meta.len = len;
        meta
    }
}

impl Deref for Meta {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes.get(..usize::from(self.len)).unwrap_or_default()
    }
}

impl fmt::Debug for Meta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Meta").field(&&**self).finish()
    }
}

/// One appended record.
#[derive(Clone, Debug)]
pub struct LogRecord {
    pub offset: Offset,
    pub payload: Bytes,
    /// Producer-attached metadata (e.g. `(producer, epoch, seq)` determinant
    /// triplet for exactly-once sinks). `None` for plain records.
    pub meta: Option<Meta>,
}

/// A single FIFO partition.
#[derive(Default, Debug)]
pub struct LogPartition {
    records: Vec<LogRecord>,
    bytes: u64,
}

impl LogPartition {
    pub fn append(&mut self, payload: Bytes) -> Offset {
        self.append_with_meta(payload, None)
    }

    pub fn append_with_meta(&mut self, payload: Bytes, meta: Option<Meta>) -> Offset {
        let offset = self.records.len() as Offset;
        self.bytes += payload.len() as u64;
        self.records.push(LogRecord { offset, payload, meta });
        offset
    }

    /// Next offset to be assigned (== number of records).
    pub fn end_offset(&self) -> Offset {
        self.records.len() as Offset
    }

    pub fn total_bytes(&self) -> u64 {
        self.bytes
    }

    pub fn get(&self, offset: Offset) -> Option<&LogRecord> {
        self.records.get(offset as usize)
    }

    /// Read up to `max` records starting at `from`.
    pub fn fetch(&self, from: Offset, max: usize) -> &[LogRecord] {
        let start = (from as usize).min(self.records.len());
        let end = (start + max).min(self.records.len());
        &self.records[start..end]
    }

    /// The most recent record whose metadata satisfies `pred` — the §5.5
    /// "return the determinants when requested" query. Scans from the tail,
    /// since a recovering sink's records are near the end.
    pub fn last_meta(&self, pred: impl Fn(&[u8]) -> bool) -> Option<&LogRecord> {
        self.records.iter().rev().find(|r| r.meta.as_deref().is_some_and(&pred))
    }

    /// All payloads (test/verification helper).
    pub fn payloads(&self) -> impl Iterator<Item = &Bytes> {
        self.records.iter().map(|r| &r.payload)
    }
}

/// A topic: a set of partitions.
#[derive(Debug)]
pub struct DurableLog {
    name: String,
    partitions: Vec<LogPartition>,
}

impl DurableLog {
    pub fn new(name: impl Into<String>, partitions: usize) -> DurableLog {
        assert!(partitions > 0, "a log needs at least one partition");
        DurableLog {
            name: name.into(),
            partitions: (0..partitions).map(|_| LogPartition::default()).collect(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    pub fn partition(&self, p: usize) -> &LogPartition {
        &self.partitions[p]
    }

    pub fn partition_mut(&mut self, p: usize) -> &mut LogPartition {
        &mut self.partitions[p]
    }

    /// Total records across partitions.
    pub fn total_records(&self) -> u64 {
        self.partitions.iter().map(|p| p.end_offset()).sum()
    }

    pub fn total_bytes(&self) -> u64 {
        self.partitions.iter().map(|p| p.total_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// Metadata of `producer`'s record number `seq`.
    fn m(producer: u64, seq: u64) -> Meta {
        Meta::tagged(0, [producer, 0, 0, seq])
    }

    #[test]
    fn offsets_are_dense_and_fifo() {
        let mut log = DurableLog::new("t", 2);
        assert_eq!(log.partition_mut(0).append(b("a")), 0);
        assert_eq!(log.partition_mut(0).append(b("b")), 1);
        assert_eq!(log.partition_mut(1).append(b("c")), 0);
        let p0 = log.partition(0);
        assert_eq!(p0.end_offset(), 2);
        assert_eq!(p0.get(0).unwrap().payload, b("a"));
        assert_eq!(p0.get(1).unwrap().payload, b("b"));
        assert!(p0.get(2).is_none());
        assert_eq!(log.total_records(), 3);
    }

    #[test]
    fn fetch_is_bounded_and_replayable() {
        let mut log = DurableLog::new("t", 1);
        for i in 0..10 {
            log.partition_mut(0).append(b(&i.to_string()));
        }
        let batch = log.partition(0).fetch(3, 4);
        assert_eq!(batch.len(), 4);
        assert_eq!(batch[0].offset, 3);
        // Re-reading the same range yields the same records (replayability).
        let again = log.partition(0).fetch(3, 4);
        assert_eq!(again[0].payload, batch[0].payload);
        // Past the end: empty, not a panic.
        assert!(log.partition(0).fetch(100, 5).is_empty());
        // Partial tail.
        assert_eq!(log.partition(0).fetch(8, 5).len(), 2);
    }

    #[test]
    fn meta_side_channel_query() {
        let mut log = DurableLog::new("out", 1);
        let p = log.partition_mut(0);
        p.append_with_meta(b("x"), Some(m(1, 0)));
        p.append_with_meta(b("y"), Some(m(2, 0)));
        p.append_with_meta(b("z"), Some(m(1, 1)));
        p.append(b("plain"));
        let last = p.last_meta(|m| m.get(1) == Some(&1)).unwrap();
        assert_eq!(last.payload, b("z"));
        assert_eq!(last.meta.as_deref(), Some(&[0, 1, 0, 0, 1][..]));
        assert!(p.last_meta(|m| m.get(1) == Some(&9)).is_none());
    }

    #[test]
    fn meta_spells_varints_as_the_codec_does() {
        // The longest case fills the capacity exactly.
        for fields in [[0, 1, 127, 128], [300, u64::from(u32::MAX), 1 << 56, u64::MAX], [u64::MAX; 4]] {
            let mut w = crate::ByteWriter::new();
            w.put_u8(3);
            for v in fields {
                w.put_varint(v);
            }
            assert_eq!(&*Meta::tagged(3, fields), w.as_slice());
        }
        assert_eq!(Meta::tagged(3, [u64::MAX; 4]).len(), META_CAPACITY);
    }

    #[test]
    fn byte_accounting() {
        let mut log = DurableLog::new("t", 1);
        log.partition_mut(0).append(b("abcd"));
        log.partition_mut(0).append(b("ef"));
        assert_eq!(log.total_bytes(), 6);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        let _ = DurableLog::new("t", 0);
    }
}
