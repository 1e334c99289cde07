//! Sectioned key/value delta-map codec — the wire format of incremental
//! checkpoints.
//!
//! A snapshot image is a flat stream of entries over `(section, key)` pairs:
//! a varint entry count followed by, per entry, a one-byte section id, a
//! length-prefixed key (sections use fixed-width big-endian keys so byte-wise
//! lexicographic order equals numeric order), a one-byte op, and — for puts —
//! a `u32`-LE length-prefixed value. A **full image** contains only puts in
//! canonical `(section, key)` order; a **delta** contains puts for entries
//! mutated since the parent image and tombstones for entries removed.
//!
//! [`fold_layers`] applies layers (oldest first) on top of each other and
//! re-encodes the canonical image — with tombstones dropped, byte-identical
//! to a full snapshot taken at the same epoch, which is the property the
//! engine's incremental checkpointing tests pin down.

use crate::codec::{ByteReader, ByteWriter, CodecError};
use bytes::Bytes;
use std::collections::BTreeMap;

/// Entry op: the `(section, key)` pair was removed since the parent image.
pub const OP_TOMBSTONE: u8 = 0;
/// Entry op: the `(section, key)` pair maps to the attached value.
pub const OP_PUT: u8 = 1;

/// Section id for overtaken in-flight records captured by an unaligned
/// checkpoint. Keys are `channel: u16 BE ++ seq: u32 BE` (per-channel capture
/// order), values an encoded `SentBuffer`; the id deliberately sorts after
/// every operator-state section (0–4) so canonical `(section, key)` order
/// keeps state entries and the in-flight section contiguous. Deltas ship
/// tombstones for the parent image's captured records that the new capture
/// did not re-take, so `merge_chain` never resurrects stale buffers.
pub const SEC_OVERTAKEN: u8 = 5;

/// One decoded entry, borrowing key/value bytes from the underlying image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntryRef<'a> {
    pub section: u8,
    pub key: &'a [u8],
    /// `Some(value)` for a put, `None` for a tombstone.
    pub value: Option<&'a [u8]>,
}

/// Write a put entry's header (section, key, op, value-length placeholder)
/// and return the placeholder position. The caller streams the value into
/// `w` and then closes the entry with [`ByteWriter::end_u32_len`].
#[inline]
pub fn write_put_header(w: &mut ByteWriter, section: u8, key: &[u8]) -> usize {
    debug_assert!(key.len() <= u8::MAX as usize);
    w.put_u8(section);
    w.put_u8(key.len() as u8);
    w.put_raw(key);
    w.put_u8(OP_PUT);
    w.begin_u32_len()
}

/// Write a complete put entry with an already-materialized value.
pub fn write_put(w: &mut ByteWriter, section: u8, key: &[u8], value: &[u8]) {
    let pos = write_put_header(w, section, key);
    w.put_raw(value);
    w.end_u32_len(pos);
}

/// Write a tombstone entry (no value).
pub fn write_tombstone(w: &mut ByteWriter, section: u8, key: &[u8]) {
    debug_assert!(key.len() <= u8::MAX as usize);
    w.put_u8(section);
    w.put_u8(key.len() as u8);
    w.put_raw(key);
    w.put_u8(OP_TOMBSTONE);
}

/// Decode one entry from a reader positioned at an entry boundary (no
/// entry-count prefix). Public for the lsm segment reader, whose sparse
/// index points at raw entry offsets inside a segment payload.
pub fn read_one<'a>(r: &mut ByteReader<'a>) -> Result<EntryRef<'a>, CodecError> {
    read_entry(r)
}

fn read_entry<'a>(r: &mut ByteReader<'a>) -> Result<EntryRef<'a>, CodecError> {
    let section = r.get_u8()?;
    let klen = r.get_u8()? as usize;
    let key = r.get_raw(klen)?;
    let value = match r.get_u8()? {
        OP_TOMBSTONE => None,
        OP_PUT => {
            let vlen = r.get_u32_le()? as usize;
            Some(r.get_raw(vlen)?)
        }
        tag => return Err(CodecError::InvalidTag { context: "deltamap op", tag }),
    };
    Ok(EntryRef { section, key, value })
}

/// Decode a full image or delta into its entry list, in stored order.
pub fn read_entries(bytes: &[u8]) -> Result<Vec<EntryRef<'_>>, CodecError> {
    let mut r = ByteReader::new(bytes);
    let n = r.get_varint()? as usize;
    // Cap the pre-allocation so a corrupt count cannot balloon memory; the
    // per-entry EOF checks still reject short inputs.
    let mut out = Vec::with_capacity(n.min(64 * 1024));
    for _ in 0..n {
        out.push(read_entry(&mut r)?);
    }
    if !r.is_empty() {
        return Err(CodecError::InvalidTag { context: "deltamap trailing bytes", tag: 0 });
    }
    Ok(out)
}

/// Apply `deltas` (oldest first) on top of the full image `base`: the
/// two-argument spelling of [`fold_layers`] with tombstones dropped.
pub fn merge_chain(base: &[u8], deltas: &[&[u8]]) -> Result<Bytes, CodecError> {
    let layers: Vec<&[u8]> = std::iter::once(base).chain(deltas.iter().copied()).collect();
    fold_layers(&layers, true)
}

/// Fold `layers` (oldest first) into one canonical image: entries sorted by
/// `(section, key)`, the newest layer's entry winning. This is the only place
/// an image is built from layers. With `drop_tombstones = true` the result is
/// a full image (all puts) — byte-identical to a full snapshot taken at the
/// newest layer's epoch. With `drop_tombstones = false` the output *retains*
/// a tombstone for every `(section, key)` whose newest entry is a delete —
/// required when compacting LSM levels that still have older data beneath
/// them, where dropping the tombstone would resurrect a deleted key. Errors
/// on any malformed layer rather than panicking — the fold sits on the
/// recovery path.
pub fn fold_layers(layers: &[&[u8]], drop_tombstones: bool) -> Result<Bytes, CodecError> {
    let mut map: BTreeMap<(u8, &[u8]), Option<&[u8]>> = BTreeMap::new();
    for layer in layers {
        for e in read_entries(layer)? {
            if drop_tombstones && e.value.is_none() {
                map.remove(&(e.section, e.key));
            } else {
                map.insert((e.section, e.key), e.value);
            }
        }
    }
    let total: usize = map
        .iter()
        .map(|(&(_, k), v)| 7 + k.len() + v.map_or(0, <[u8]>::len))
        .sum::<usize>()
        + 10;
    let mut w = ByteWriter::with_capacity(total);
    w.put_varint(map.len() as u64);
    for (&(section, key), value) in &map {
        match value {
            Some(v) => write_put(&mut w, section, key, v),
            None => write_tombstone(&mut w, section, key),
        }
    }
    Ok(w.freeze())
}

#[cfg(test)]
mod tests {
    use super::*;

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

    type Owned = (u8, Vec<u8>, Option<Vec<u8>>);

    /// The model fold the proptests compare the codec against: apply entries
    /// in order to a map (tombstones remove), encode what is left.
    fn canonical(entries: &[Owned]) -> Bytes {
        let mut map: BTreeMap<(u8, &[u8]), &[u8]> = BTreeMap::new();
        for (s, k, v) in entries {
            match v {
                Some(v) => {
                    map.insert((*s, k.as_slice()), v.as_slice());
                }
                None => {
                    map.remove(&(*s, k.as_slice()));
                }
            }
        }
        let mut w = ByteWriter::new();
        w.put_varint(map.len() as u64);
        for (&(section, key), &value) in &map {
            write_put(&mut w, section, key, value);
        }
        w.freeze()
    }

    #[test]
    fn roundtrip_entries() {
        let img = image(&[(1, b"aa", Some(b"v1")), (2, b"bb", None)]);
        let es = read_entries(&img).unwrap();
        assert_eq!(es.len(), 2);
        assert_eq!(es[0], EntryRef { section: 1, key: b"aa", value: Some(b"v1") });
        assert_eq!(es[1], EntryRef { section: 2, key: b"bb", value: None });
    }

    #[test]
    fn merge_applies_puts_and_tombstones_in_order() {
        let base = image(&[(1, b"a", Some(b"1")), (1, b"b", Some(b"2")), (2, b"c", Some(b"3"))]);
        let d1 = image(&[(1, b"b", None), (1, b"d", Some(b"4"))]);
        let d2 = image(&[(1, b"d", Some(b"5")), (2, b"c", None)]);
        let merged = merge_chain(&base, &[&d1, &d2]).unwrap();
        let expect = image(&[(1, b"a", Some(b"1")), (1, b"d", Some(b"5"))]);
        assert_eq!(merged, expect);
    }

    #[test]
    fn merge_of_base_alone_is_canonical_identity() {
        let base = image(&[(0, b"", Some(b"meta")), (1, b"k", Some(b"v"))]);
        assert_eq!(merge_chain(&base, &[]).unwrap(), base);
    }

    #[test]
    fn tombstone_of_absent_key_is_a_noop() {
        let base = image(&[(1, b"a", Some(b"1"))]);
        let d = image(&[(1, b"zz", None)]);
        assert_eq!(merge_chain(&base, &[&d]).unwrap(), base);
    }

    #[test]
    fn malformed_layers_error_not_panic() {
        let good = image(&[(1, b"a", Some(b"1"))]);
        assert!(merge_chain(&[0x80], &[]).is_err()); // truncated varint count
        assert!(merge_chain(&good, &[&[0x01, 0x01]]).is_err()); // truncated entry
        // Unknown op byte.
        let mut w = ByteWriter::new();
        w.put_varint(1);
        w.put_u8(1);
        w.put_u8(1);
        w.put_raw(b"k");
        w.put_u8(9);
        let bad = w.freeze();
        assert!(matches!(
            read_entries(&bad),
            Err(CodecError::InvalidTag { context: "deltamap op", tag: 9 })
        ));
        // Trailing garbage after the declared entry count.
        let mut w = ByteWriter::new();
        w.put_varint(0);
        w.put_u8(7);
        assert!(read_entries(&w.freeze()).is_err());
        // A damaged layer anywhere in a stack: every truncation is an error,
        // and no bit flip panics (some still decode, to a different image).
        let base = image(&[(1, b"a", Some(b"1")), (2, b"bb", Some(b"22"))]);
        let delta = image(&[(1, b"a", None), (5, b"\0\0\0\0\0\0", Some(b"buffer"))]);
        for cut in 0..delta.len() {
            assert!(fold_layers(&[&base, &delta[..cut]], true).is_err(), "cut at {cut}");
            assert!(fold_layers(&[&delta[..cut], &base], false).is_err(), "cut at {cut}");
        }
        for bit in 0..delta.len() * 8 {
            let mut flipped = delta.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = fold_layers(&[&base, &flipped], true);
        }
    }

    /// Strategy pieces for the overtaken-section property: an image mixes
    /// operator-state sections (0–4, short ascii keys) with zero or more
    /// SEC_OVERTAKEN entries keyed `channel u16 BE ++ seq u32 BE`.
    mod overtaken_props {
        use super::*;
        use proptest::prelude::*;

        fn state_entry() -> impl Strategy<Value = Owned> {
            (
                0u8..=4,
                proptest::collection::vec(any::<u8>(), 1..8),
                proptest::collection::vec(any::<u8>(), 0..32),
            )
                .prop_map(|(s, k, v)| (s, k, Some(v)))
        }

        fn overtaken_entry() -> impl Strategy<Value = Owned> {
            (0u16..4, 0u32..16, proptest::collection::vec(any::<u8>(), 0..48)).prop_map(
                |(ch, seq, v)| {
                    let mut key = Vec::with_capacity(6);
                    key.extend_from_slice(&ch.to_be_bytes());
                    key.extend_from_slice(&seq.to_be_bytes());
                    (SEC_OVERTAKEN, key, Some(v))
                },
            )
        }

        proptest! {
            /// A canonical image carrying 0..N overtaken entries decodes and
            /// re-encodes byte-identically — the section is just entries to
            /// the codec, whether present or empty.
            #[test]
            fn roundtrip_byte_identity_with_overtaken_section(
                state in proptest::collection::vec(state_entry(), 0..12),
                overtaken in proptest::collection::vec(overtaken_entry(), 0..10),
            ) {
                let mut all = state;
                all.extend(overtaken);
                let img = canonical(&all);
                let decoded = read_entries(&img).unwrap();
                let mut w = ByteWriter::new();
                w.put_varint(decoded.len() as u64);
                for e in &decoded {
                    match e.value {
                        Some(v) => write_put(&mut w, e.section, e.key, v),
                        None => write_tombstone(&mut w, e.section, e.key),
                    }
                }
                prop_assert_eq!(w.freeze(), img);
            }

            /// Base + deltas that add, overwrite, and tombstone overtaken
            /// entries merge to exactly the canonical image of the fold —
            /// i.e. delta-shipped captures reconstruct bit-for-bit and
            /// tombstoned captures never resurface.
            #[test]
            fn merge_chain_identity_over_overtaken_deltas(
                base_state in proptest::collection::vec(state_entry(), 0..8),
                base_ot in proptest::collection::vec(overtaken_entry(), 0..6),
                delta_ot in proptest::collection::vec(overtaken_entry(), 0..6),
                drop_base_ot in any::<bool>(),
            ) {
                let mut base_entries = base_state.clone();
                base_entries.extend(base_ot.clone());
                let base = canonical(&base_entries);

                // Delta: new/overwritten captures, plus (optionally)
                // tombstones retiring every base capture — the hygiene the
                // task encoder emits so stale buffers can't be re-injected.
                let mut delta_entries: Vec<Owned> = delta_ot.clone();
                if drop_base_ot {
                    for (s, k, _) in &base_ot {
                        delta_entries.push((*s, k.clone(), None));
                    }
                }
                let delta = {
                    let mut w = ByteWriter::new();
                    w.put_varint(delta_entries.len() as u64);
                    for (s, k, v) in &delta_entries {
                        match v {
                            Some(v) => write_put(&mut w, *s, k, v),
                            None => write_tombstone(&mut w, *s, k),
                        }
                    }
                    w.freeze()
                };

                let mut folded = base_entries;
                folded.extend(delta_entries);
                let expect = canonical(&folded);
                prop_assert_eq!(merge_chain(&base, &[&delta]).unwrap(), expect);
            }
        }
    }

    #[test]
    fn sec_overtaken_sorts_after_state_sections() {
        // The canonical order property the task encoder relies on when it
        // assembles `state entries ++ overtaken entries` single-pass.
        const { assert!(SEC_OVERTAKEN > 4) };
        let base = image(&[(SEC_OVERTAKEN, b"\x00\x00\x00\x00\x00\x01", Some(b"buf"))]);
        let merged = merge_chain(&base, &[]).unwrap();
        assert_eq!(merged, base);
    }

    #[test]
    fn fold_layers_retains_tombstones_unless_dropped() {
        let base = image(&[(1, b"a", Some(b"1")), (1, b"b", Some(b"2"))]);
        let d1 = image(&[(1, b"b", None), (1, b"c", Some(b"3"))]);
        let kept = fold_layers(&[&base, &d1], false).unwrap();
        let expect_kept = image(&[(1, b"a", Some(b"1")), (1, b"b", None), (1, b"c", Some(b"3"))]);
        assert_eq!(kept, expect_kept);
        let dropped = fold_layers(&[&base, &d1], true).unwrap();
        assert_eq!(dropped, merge_chain(&base, &[&d1]).unwrap());
    }

    mod fold_props {
        use super::*;
        use proptest::prelude::*;

        /// A layer over `sections`: puts and tombstones on a small key space,
        /// so layers overwrite and delete each other's entries.
        fn layer(sections: std::ops::RangeInclusive<u8>) -> impl Strategy<Value = Vec<Owned>> {
            proptest::collection::vec(
                (
                    sections,
                    proptest::collection::vec(0u8..4, 1..4),
                    proptest::option::of(proptest::collection::vec(any::<u8>(), 0..8)),
                ),
                0..8,
            )
        }

        fn encode(layers: &[Vec<Owned>]) -> Vec<Bytes> {
            layers
                .iter()
                .map(|l| {
                    let mut w = ByteWriter::new();
                    w.put_varint(l.len() as u64);
                    for (s, k, v) in l {
                        match v {
                            Some(v) => write_put(&mut w, *s, k, v),
                            None => write_tombstone(&mut w, *s, k),
                        }
                    }
                    w.freeze()
                })
                .collect()
        }

        proptest! {
            /// `fold_layers(.., true)` is byte-identical to the model fold of
            /// the layers' entries taken in order.
            #[test]
            fn drop_tombstones_matches_model_fold(
                layers in proptest::collection::vec(layer(0..=2), 1..5),
            ) {
                let encoded = encode(&layers);
                let refs: Vec<&[u8]> = encoded.iter().map(|b| b.as_ref()).collect();
                prop_assert_eq!(fold_layers(&refs, true).unwrap(), canonical(&layers.concat()));
            }

            /// Folding in two steps then dropping equals folding once —
            /// staging never changes the final image. `chain` is split at an
            /// arbitrary point with tombstones retained in the middle (LSM
            /// compaction); `segments` (their own section, as tier segments
            /// have) go under the chain either as more layers of one fold or
            /// under the already-folded chain (how the snapshot store used to
            /// read a tiered checkpoint).
            #[test]
            fn staged_fold_equals_single_fold(
                segments in proptest::collection::vec(layer(3..=3), 0..3),
                chain in proptest::collection::vec(layer(0..=2), 2..6),
                split in 1usize..5,
            ) {
                let (segments, chain) = (encode(&segments), encode(&chain));
                let segments: Vec<&[u8]> = segments.iter().map(|b| b.as_ref()).collect();
                let chain: Vec<&[u8]> = chain.iter().map(|b| b.as_ref()).collect();
                let single = fold_layers(&[segments.clone(), chain.clone()].concat(), true).unwrap();

                let split = split.min(chain.len() - 1);
                let mid = fold_layers(&chain[..split], false).unwrap();
                let mut staged: Vec<&[u8]> = segments.clone();
                staged.push(&mid);
                staged.extend_from_slice(&chain[split..]);
                prop_assert_eq!(fold_layers(&staged, true).unwrap(), single.clone());

                let folded_chain = fold_layers(&chain, true).unwrap();
                let mut under: Vec<&[u8]> = segments;
                under.push(&folded_chain);
                prop_assert_eq!(fold_layers(&under, true).unwrap(), single);
            }
        }
    }

    #[test]
    fn streamed_put_matches_materialized_put() {
        let mut a = ByteWriter::new();
        write_put(&mut a, 3, b"key", b"value");
        let mut b = ByteWriter::new();
        let pos = write_put_header(&mut b, 3, b"key");
        b.put_raw(b"val");
        b.put_raw(b"ue");
        b.end_u32_len(pos);
        assert_eq!(a.as_slice(), b.as_slice());
    }
}
