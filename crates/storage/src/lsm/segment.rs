//! Immutable sorted segments — the on-"disk" unit of the tiered store.
//!
//! A segment payload **is** a deltamap image: a varint entry count followed
//! by canonical `(section, key)`-ordered entries, tombstones included. That
//! makes flush (encode the memtable) and compaction (`fold_layers` over
//! payloads) produce segments directly, and lets recovery reuse
//! `merge_chain` semantics unchanged. Alongside the payload each segment
//! carries in-memory metadata: a key range for pruning, a bloom-style
//! [`KeyFilter`], and a sparse index of every Nth entry's payload offset so
//! point reads touch one block instead of the whole segment.
//!
//! Keys here are *full keys*: `section byte ++ key bytes`. Because the
//! section byte leads, byte-lexicographic order over full keys equals the
//! deltamap's `(section, key)` order.

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::deltamap;
use crate::lsm::filter::KeyFilter;
use crate::spill::SpillHandle;
use bytes::Bytes;

/// Metadata for one sealed segment. The payload lives on the spill device
/// under `handle`; everything needed to *decide* whether to read it lives
/// here, in memory only: after a failure the task's next incarnation builds
/// a new tier from the checkpoint, it does not reload this one.
#[derive(Clone, Debug, PartialEq)]
pub struct SegmentMeta {
    pub id: u64,
    pub handle: SpillHandle,
    /// Payload length in bytes.
    pub bytes: u64,
    /// Entry count (puts + tombstones).
    pub entries: u64,
    /// Smallest full key in the segment.
    pub min_key: Vec<u8>,
    /// Largest full key in the segment.
    pub max_key: Vec<u8>,
    pub filter: KeyFilter,
    /// Sparse index: `(first full key of block, payload offset of block)`.
    /// The first entry is always indexed, so a covered lookup always finds
    /// a block.
    pub index: Vec<(Vec<u8>, u32)>,
}

impl SegmentMeta {
    /// Range prune: can `fk` possibly be in this segment?
    pub fn covers(&self, fk: &[u8]) -> bool {
        self.min_key.as_slice() <= fk && fk <= self.max_key.as_slice()
    }

    /// Byte bounds `[start, end)` of the sparse-index block that would hold
    /// `fk`. `None` when the segment is empty or `fk` sorts before the
    /// first entry.
    pub fn block_bounds(&self, fk: &[u8]) -> Option<(usize, usize)> {
        let i = match self.index.binary_search_by(|(k, _)| k.as_slice().cmp(fk)) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let start = self.index.get(i)?.1 as usize;
        let end = self.index.get(i + 1).map_or(self.bytes as usize, |&(_, o)| o as usize);
        Some((start, end))
    }
}

/// Everything a [`SegmentMeta`] holds except identity and placement, which
/// the store assigns: what [`scan_image`] reads back out of a payload and
/// what a [`SegmentWriter`] collects while the payload is written.
pub struct SegmentParts {
    pub bytes: u64,
    pub entries: u64,
    pub min_key: Vec<u8>,
    pub max_key: Vec<u8>,
    pub filter: KeyFilter,
    pub index: Vec<(Vec<u8>, u32)>,
}

impl SegmentParts {
    fn with_capacity(entries: u64, every: usize, bits_per_key: u32) -> SegmentParts {
        SegmentParts {
            bytes: 0,
            entries: 0,
            min_key: Vec::new(),
            max_key: Vec::new(),
            filter: KeyFilter::with_capacity(entries, bits_per_key),
            index: Vec::with_capacity(entries as usize / every + 1),
        }
    }

    /// Account for the next entry, `section ++ key` at payload offset `off`.
    /// `max_key` doubles as the buffer the full key is assembled in.
    fn add_entry(&mut self, section: u8, key: &[u8], off: usize, every: usize) {
        debug_assert!(
            self.entries == 0
                || self.max_key.split_first().is_some_and(|(&s, k)| (s, k) < (section, key)),
            "segment entries must arrive in canonical (section, key) order"
        );
        self.max_key.clear();
        self.max_key.push(section);
        self.max_key.extend_from_slice(key);
        self.filter.insert(&self.max_key);
        if self.entries == 0 {
            self.min_key.clone_from(&self.max_key);
        }
        if (self.entries as usize).is_multiple_of(every) {
            self.index.push((self.max_key.clone(), off as u32));
        }
        self.entries += 1;
    }
}

/// Single pass over a deltamap-image payload, building filter, sparse index
/// and key range. Errors on malformed input (a segment is only ever built
/// from images we encoded ourselves, but compaction folds go through the
/// same decoder, so stay total).
pub fn scan_image(
    payload: &[u8],
    index_every: usize,
    bits_per_key: u32,
) -> Result<SegmentParts, CodecError> {
    let mut r = ByteReader::new(payload);
    let n = r.get_varint()?;
    let every = index_every.max(1);
    // A corrupt count must not size the filter: no entry is under 3 bytes.
    let mut parts = SegmentParts::with_capacity(n.min(payload.len() as u64 / 3), every, bits_per_key);
    for _ in 0..n {
        let off = r.position();
        let e = deltamap::read_one(&mut r)?;
        parts.add_entry(e.section, e.key, off, every);
    }
    if !r.is_empty() {
        return Err(CodecError::InvalidTag { context: "segment trailing bytes", tag: 0 });
    }
    parts.bytes = payload.len() as u64;
    Ok(parts)
}

/// Writes a segment image whose entries the producer already holds in
/// canonical order, collecting filter, sparse index and key range as the
/// entries go by — the payload is never parsed back. The producer announces
/// each entry with [`SegmentWriter::entry`] and encodes it into the writer
/// that call returns, with the deltamap entry encoders.
pub struct SegmentWriter {
    image: ByteWriter,
    every: usize,
    declared: u64,
    parts: SegmentParts,
}

impl SegmentWriter {
    /// Start an image of exactly `entries` entries in `image`, a scratch
    /// writer whose allocation is reused ([`SegmentWriter::finish`] hands it
    /// back).
    pub fn new(
        mut image: ByteWriter,
        entries: u64,
        index_every: usize,
        bits_per_key: u32,
    ) -> SegmentWriter {
        let every = index_every.max(1);
        image.clear();
        image.put_varint(entries);
        SegmentWriter {
            image,
            every,
            declared: entries,
            parts: SegmentParts::with_capacity(entries, every, bits_per_key),
        }
    }

    /// The next entry is `(section, key)`; the caller encodes it — put or
    /// tombstone, same section and key — into the returned writer.
    pub fn entry(&mut self, section: u8, key: &[u8]) -> &mut ByteWriter {
        self.parts.add_entry(section, key, self.image.len(), self.every);
        &mut self.image
    }

    /// The finished payload, its metadata, and the scratch writer back.
    pub fn finish(mut self) -> (Bytes, SegmentParts, ByteWriter) {
        debug_assert_eq!(self.parts.entries, self.declared, "segment entry count");
        let payload = self.image.take_frozen();
        self.parts.bytes = payload.len() as u64;
        (payload, self.parts, self.image)
    }
}

/// Decode a sparse-index block and look `fk` up in it.
///
/// Returns `Ok(None)` when the key is not in the block,
/// `Ok(Some(None))` for a tombstone, `Ok(Some(Some(value)))` for a put —
/// the value a slice of `block`, not a copy.
pub fn search_block(block: &Bytes, fk: &[u8]) -> Result<Option<Option<Bytes>>, CodecError> {
    let Some((sec, key)) = fk.split_first() else { return Ok(None) };
    let mut r = ByteReader::new(block);
    while !r.is_empty() {
        let e = deltamap::read_one(&mut r)?;
        match e.section.cmp(sec).then_with(|| e.key.cmp(key)) {
            std::cmp::Ordering::Less => continue,
            std::cmp::Ordering::Equal => {
                // A put's value is the last thing `read_one` consumed.
                let end = r.position();
                return Ok(Some(e.value.map(|v| block.slice(end - v.len()..end))));
            }
            std::cmp::Ordering::Greater => return Ok(None),
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ByteWriter;

    type TestEntry<'a> = (u8, &'a [u8], Option<&'a [u8]>);

    fn image(entries: &[TestEntry<'_>]) -> Bytes {
        let mut w = ByteWriter::new();
        w.put_varint(entries.len() as u64);
        for &(section, key, value) in entries {
            match value {
                Some(v) => deltamap::write_put(&mut w, section, key, v),
                None => deltamap::write_tombstone(&mut w, section, key),
            }
        }
        w.freeze()
    }

    fn fk(section: u8, key: &[u8]) -> Vec<u8> {
        let mut v = vec![section];
        v.extend_from_slice(key);
        v
    }

    #[test]
    fn scan_builds_range_index_and_filter() {
        let img = image(&[
            (1, b"aa", Some(b"1")),
            (1, b"bb", None),
            (1, b"cc", Some(b"3")),
            (2, b"dd", Some(b"4")),
            (2, b"ee", Some(b"5")),
        ]);
        let p = scan_image(&img, 2, 10).unwrap();
        assert_eq!(p.entries, 5);
        assert_eq!(p.min_key, fk(1, b"aa"));
        assert_eq!(p.max_key, fk(2, b"ee"));
        // Entries 0, 2, 4 are indexed.
        assert_eq!(p.index.len(), 3);
        assert_eq!(p.index[0].0, fk(1, b"aa"));
        assert_eq!(p.index[1].0, fk(1, b"cc"));
        assert_eq!(p.index[2].0, fk(2, b"ee"));
        for (s, k) in [(1u8, b"aa".as_slice()), (1, b"bb"), (2, b"ee")] {
            assert!(p.filter.may_contain(&fk(s, k)));
        }
    }

    #[test]
    fn block_lookup_finds_puts_tombstones_and_gaps() {
        let img = image(&[
            (1, b"aa", Some(b"1")),
            (1, b"bb", None),
            (1, b"cc", Some(b"3")),
            (2, b"dd", Some(b"4")),
            (2, b"ee", Some(b"5")),
        ]);
        let p = scan_image(&img, 2, 10).unwrap();
        let meta = SegmentMeta {
            id: 0,
            handle: SpillHandle(0),
            bytes: p.bytes,
            entries: p.entries,
            min_key: p.min_key,
            max_key: p.max_key,
            filter: p.filter,
            index: p.index,
        };
        let probe = |target: &[u8]| -> Option<Option<Bytes>> {
            let (start, end) = meta.block_bounds(target)?;
            search_block(&img.slice(start..end), target).unwrap()
        };
        assert_eq!(probe(&fk(1, b"aa")), Some(Some(Bytes::from_static(b"1"))));
        assert_eq!(probe(&fk(1, b"bb")), Some(None)); // tombstone
        assert_eq!(probe(&fk(2, b"ee")), Some(Some(Bytes::from_static(b"5"))));
        assert_eq!(probe(&fk(1, b"ab")), None); // gap inside range
        assert_eq!(probe(&fk(0, b"aa")), None); // before min
        assert_eq!(probe(&fk(3, b"zz")), None); // past max: lands in last block, not found
    }

    #[test]
    fn scan_rejects_malformed_images() {
        assert!(scan_image(&[0x80], 4, 10).is_err()); // truncated varint
        let mut good = image(&[(1, b"a", Some(b"1"))]).to_vec();
        good.push(0); // trailing byte
        assert!(scan_image(&good, 4, 10).is_err());
    }
}
