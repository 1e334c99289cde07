//! Records, rows, and stream elements — the data plane's vocabulary.
//!
//! Records flow through channels serialized inside network buffers; a buffer
//! holds a sequence of [`StreamElement`]s: data records, watermarks, and
//! checkpoint barriers (barriers travel in-band, Chandy–Lamport style).

use bytes::Bytes;
use clonos_storage::codec::{ByteReader, ByteWriter, CodecError};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// A single field value.
#[derive(Clone, Debug, PartialEq)]
pub enum Datum {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Arc<str>),
}

impl Datum {
    pub fn str(s: impl Into<Arc<str>>) -> Datum {
        Datum::Str(s.into())
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_float(&self) -> Option<f64> {
        match self {
            Datum::Float(v) => Some(*v),
            Datum::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Datum::Str(s) => Some(s),
            _ => None,
        }
    }

    #[inline]
    pub fn encode(&self, w: &mut ByteWriter) {
        match self {
            Datum::Null => w.put_u8(0),
            Datum::Bool(b) => {
                w.put_u8(1);
                w.put_bool(*b);
            }
            Datum::Int(v) => {
                w.put_u8(2);
                w.put_varint_i64(*v);
            }
            Datum::Float(v) => {
                w.put_u8(3);
                w.put_f64(*v);
            }
            Datum::Str(s) => {
                w.put_u8(4);
                w.put_str(s);
            }
        }
    }

    #[inline]
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Datum, CodecError> {
        Ok(match r.get_u8()? {
            0 => Datum::Null,
            1 => Datum::Bool(r.get_bool()?),
            2 => Datum::Int(r.get_varint_i64()?),
            3 => Datum::Float(r.get_f64()?),
            4 => Datum::Str(Arc::from(r.get_str()?)),
            tag => return Err(CodecError::InvalidTag { context: "Datum", tag }),
        })
    }

    /// Walk over one encoded datum without materialising it. Accepts exactly
    /// the inputs [`Datum::decode`] accepts (strings are UTF-8 checked), so
    /// bytes that pass here can be handed on verbatim.
    #[inline]
    fn skip(r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        match r.get_u8()? {
            0 => {}
            1 => drop(r.get_bool()?),
            2 => drop(r.get_varint()?),
            3 => drop(r.get_f64()?),
            4 => drop(r.get_str()?),
            tag => return Err(CodecError::InvalidTag { context: "Datum", tag }),
        }
        Ok(())
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => write!(f, "null"),
            Datum::Bool(b) => write!(f, "{b}"),
            Datum::Int(v) => write!(f, "{v}"),
            Datum::Float(v) => write!(f, "{v}"),
            Datum::Str(s) => write!(f, "{s}"),
        }
    }
}

/// A tuple of fields.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Row(pub Vec<Datum>);

impl Row {
    pub fn new(fields: Vec<Datum>) -> Row {
        Row(fields)
    }

    pub fn get(&self, i: usize) -> &Datum {
        &self.0[i]
    }

    #[inline]
    pub fn int(&self, i: usize) -> i64 {
        self.0.get(i).and_then(Datum::as_int).unwrap_or_else(|| self.wrong_field(i, "an Int"))
    }

    #[inline]
    pub fn float(&self, i: usize) -> f64 {
        self.0.get(i).and_then(Datum::as_float).unwrap_or_else(|| self.wrong_field(i, "numeric"))
    }

    #[inline]
    pub fn str(&self, i: usize) -> &str {
        self.0.get(i).and_then(Datum::as_str).unwrap_or_else(|| self.wrong_field(i, "a Str"))
    }

    /// The panic of a typed accessor, out of line so the accessors inline.
    #[cold]
    #[inline(never)]
    fn wrong_field(&self, i: usize, what: &str) -> ! {
        panic!("field {i} is not {what}: {:?}", self.0[i])
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    #[inline]
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_varint(self.0.len() as u64);
        for d in &self.0 {
            d.encode(w);
        }
    }

    pub fn decode(r: &mut ByteReader<'_>) -> Result<Row, CodecError> {
        let mut row = Row::default();
        row.decode_into(r)?;
        Ok(row)
    }

    /// Decode into `self`, replacing its fields but keeping the vector's
    /// capacity: a scratch row reused across records stops allocating once
    /// it has seen the widest row (strings still allocate their `Arc`).
    #[inline]
    pub fn decode_into(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        let n = Row::field_count(r)?;
        self.0.clear();
        self.0.reserve(n);
        for _ in 0..n {
            self.0.push(Datum::decode(r)?);
        }
        Ok(())
    }

    /// Walk over one encoded row, validating it as [`Row::decode`] would.
    #[inline]
    fn skip(r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        for _ in 0..Row::field_count(r)? {
            Datum::skip(r)?;
        }
        Ok(())
    }

    /// The field-count prefix, bounded by what the input can still hold
    /// (every datum takes at least its tag byte), so a corrupt count is an
    /// error here and never an allocation request.
    #[inline]
    fn field_count(r: &mut ByteReader<'_>) -> Result<usize, CodecError> {
        let n = r.get_varint()? as usize;
        let remaining = r.remaining();
        if n > remaining {
            return Err(CodecError::UnexpectedEof { needed: n, remaining });
        }
        Ok(n)
    }

    /// Canonical byte encoding, used for multiset comparison in tests.
    pub fn to_bytes(&self) -> Bytes {
        let mut w = ByteWriter::new();
        self.encode(&mut w);
        w.freeze()
    }
}

/// A data record.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Record {
    /// Partitioning key (already extracted/hashed by the producing operator).
    pub key: u64,
    /// Event time in microseconds (source-assigned).
    pub event_time: u64,
    /// Creation instant at the source in virtual micros — end-to-end latency
    /// is measured against this at the sinks.
    pub create_ts: u64,
    /// Producer-assigned sequence number: `(producer_task << 40) | seq`.
    /// Stable across exactly-once recovery (replay rebuilds identical
    /// records), which is what makes sink-side duplicate detection exact.
    pub ident: u64,
    pub row: Row,
}

impl Record {
    #[inline]
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_varint(self.key);
        w.put_varint(self.event_time);
        w.put_varint(self.create_ts);
        w.put_varint(self.ident);
        self.row.encode(w);
    }

    pub fn decode(r: &mut ByteReader<'_>) -> Result<Record, CodecError> {
        let mut rec = Record::default();
        rec.decode_into(r)?;
        Ok(rec)
    }

    /// Decode into `self`, reusing the row's capacity ([`Row::decode_into`]).
    pub fn decode_into(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.decode_header(r)?;
        self.row.decode_into(r)
    }

    #[inline]
    fn decode_header(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.key = r.get_varint()?;
        self.event_time = r.get_varint()?;
        self.create_ts = r.get_varint()?;
        self.ident = r.get_varint()?;
        Ok(())
    }

    /// Encode as a stream element: the record tag, then [`Record::encode`].
    pub fn encode_element(&self, w: &mut ByteWriter) {
        w.put_u8(TAG_RECORD);
        self.encode(w);
    }
}

const TAG_RECORD: u8 = 0;
const TAG_WATERMARK: u8 = 1;
const TAG_BARRIER: u8 = 2;

/// Everything that can travel through a data channel.
#[derive(Clone, Debug, PartialEq)]
pub enum StreamElement {
    Record(Record),
    /// Low-watermark: no records with event time `< ts` will follow.
    Watermark(u64),
    /// Chandy–Lamport checkpoint barrier for the given checkpoint id.
    Barrier(u64),
}

impl StreamElement {
    pub fn encode(&self, w: &mut ByteWriter) {
        match self {
            StreamElement::Record(rec) => rec.encode_element(w),
            StreamElement::Watermark(ts) => {
                w.put_u8(TAG_WATERMARK);
                w.put_varint(*ts);
            }
            StreamElement::Barrier(id) => {
                w.put_u8(TAG_BARRIER);
                w.put_varint(*id);
            }
        }
    }

    pub fn decode(r: &mut ByteReader<'_>) -> Result<StreamElement, CodecError> {
        let mut rec = Record::default();
        Ok(read_element(r, &mut rec, Row::decode_into)?.into_owned(&mut rec))
    }
}

/// One element of a buffer as [`BufferReader`] yields it. A record's fields
/// are in the caller's scratch [`Record`]; the range locates its bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Element {
    /// `payload[range]` is exactly [`Record::encode`] of the record (the wire
    /// form after the element tag), so it can be forwarded without re-encoding.
    Record(Range<usize>),
    Watermark(u64),
    Barrier(u64),
}

impl Element {
    /// The owned element, moving the record out of the scratch it was read into.
    fn into_owned(self, rec: &mut Record) -> StreamElement {
        match self {
            Element::Record(_) => StreamElement::Record(std::mem::take(rec)),
            Element::Watermark(ts) => StreamElement::Watermark(ts),
            Element::Barrier(id) => StreamElement::Barrier(id),
        }
    }
}

/// The one element decoder: tag dispatch, record header, then `row` over the
/// record's row bytes (materialise or just validate).
#[inline]
fn read_element(
    r: &mut ByteReader<'_>,
    rec: &mut Record,
    row: impl FnOnce(&mut Row, &mut ByteReader<'_>) -> Result<(), CodecError>,
) -> Result<Element, CodecError> {
    Ok(match r.get_u8()? {
        TAG_RECORD => {
            let start = r.position();
            rec.decode_header(r)?;
            row(&mut rec.row, r)?;
            Element::Record(start..r.position())
        }
        TAG_WATERMARK => Element::Watermark(r.get_varint()?),
        TAG_BARRIER => Element::Barrier(r.get_varint()?),
        tag => return Err(CodecError::InvalidTag { context: "StreamElement", tag }),
    })
}

/// Streaming decoder over a buffer payload: yields one element at a time
/// into a caller-owned scratch record, so consuming a buffer allocates
/// nothing once the scratch row has grown to the widest row seen.
#[derive(Debug)]
pub struct BufferReader<'a> {
    r: ByteReader<'a>,
}

impl<'a> BufferReader<'a> {
    pub fn new(payload: &'a [u8]) -> BufferReader<'a> {
        BufferReader { r: ByteReader::new(payload) }
    }

    /// The next element, or `None` at the end of the payload. A record is
    /// decoded into `rec`, replacing its previous contents.
    pub fn next_into(&mut self, rec: &mut Record) -> Result<Option<Element>, CodecError> {
        self.next_with(rec, Row::decode_into)
    }

    /// As [`BufferReader::next_into`], but a record's row is only walked and
    /// validated, not materialised: `rec` gets the header fields and an
    /// empty row. For consumers that forward the record's bytes as they are.
    pub fn next_header(&mut self, rec: &mut Record) -> Result<Option<Element>, CodecError> {
        self.next_with(rec, |row, r| {
            row.0.clear();
            Row::skip(r)
        })
    }

    fn next_with(
        &mut self,
        rec: &mut Record,
        row: impl FnOnce(&mut Row, &mut ByteReader<'_>) -> Result<(), CodecError>,
    ) -> Result<Option<Element>, CodecError> {
        if self.r.is_empty() {
            return Ok(None);
        }
        read_element(&mut self.r, rec, row).map(Some)
    }
}

/// If `payload` encodes exactly one element and it is a barrier, return its
/// checkpoint id. The flush-before-barrier discipline in
/// `emit_barrier_and_snapshot` guarantees barriers always travel alone, so
/// the unaligned receive path can intercept barrier buffers with a one-byte
/// tag probe plus a single decode — never a full-buffer scan.
pub fn barrier_only(payload: &[u8]) -> Option<u64> {
    if payload.first() != Some(&2) {
        return None;
    }
    let mut r = ByteReader::new(payload);
    match StreamElement::decode(&mut r) {
        Ok(StreamElement::Barrier(id)) if r.is_empty() => Some(id),
        _ => None,
    }
}

/// Decode all elements in a buffer payload (owned; the task loop streams
/// them through a [`BufferReader`] instead).
pub fn decode_buffer(payload: &[u8]) -> Result<Vec<StreamElement>, CodecError> {
    let mut reader = BufferReader::new(payload);
    let mut rec = Record::default();
    let mut out = Vec::new();
    while let Some(el) = reader.next_into(&mut rec)? {
        out.push(el.into_owned(&mut rec));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> Record {
        Record {
            key: 42,
            event_time: 1_000_000,
            create_ts: 999_999,
            ident: (7 << 40) | 12,
            row: Row::new(vec![
                Datum::Int(-5),
                Datum::Float(2.25),
                Datum::str("auction"),
                Datum::Bool(true),
                Datum::Null,
            ]),
        }
    }

    #[test]
    fn datum_roundtrip() {
        for d in [
            Datum::Null,
            Datum::Bool(false),
            Datum::Int(i64::MIN),
            Datum::Float(-0.0),
            Datum::str(""),
            Datum::str("héllo"),
        ] {
            let mut w = ByteWriter::new();
            d.encode(&mut w);
            let b = w.freeze();
            let back = Datum::decode(&mut ByteReader::new(&b)).unwrap();
            match (&d, &back) {
                (Datum::Float(x), Datum::Float(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                _ => assert_eq!(d, back),
            }
        }
    }

    #[test]
    fn record_roundtrip() {
        let rec = sample_record();
        let mut w = ByteWriter::new();
        rec.encode(&mut w);
        let b = w.freeze();
        assert_eq!(Record::decode(&mut ByteReader::new(&b)).unwrap(), rec);
    }

    #[test]
    fn buffer_of_mixed_elements_roundtrips() {
        let elems = vec![
            StreamElement::Record(sample_record()),
            StreamElement::Watermark(123_456),
            StreamElement::Record(sample_record()),
            StreamElement::Barrier(3),
        ];
        let mut w = ByteWriter::new();
        for e in &elems {
            e.encode(&mut w);
        }
        let payload = w.freeze();
        assert_eq!(decode_buffer(&payload).unwrap(), elems);
    }

    #[test]
    fn row_accessors() {
        let row = Row::new(vec![Datum::Int(7), Datum::Float(1.5), Datum::str("x")]);
        assert_eq!(row.int(0), 7);
        assert_eq!(row.float(1), 1.5);
        assert_eq!(row.float(0), 7.0); // int coerces
        assert_eq!(row.str(2), "x");
        assert_eq!(row.len(), 3);
    }

    #[test]
    fn corrupt_buffer_is_an_error_not_a_panic() {
        assert!(decode_buffer(&[9, 9, 9]).is_err());
    }

    #[test]
    fn barrier_only_detects_lone_barriers() {
        let mut w = ByteWriter::new();
        StreamElement::Barrier(17).encode(&mut w);
        assert_eq!(barrier_only(&w.freeze()), Some(17));

        // Barrier followed by anything else is not barrier-only.
        let mut w = ByteWriter::new();
        StreamElement::Barrier(17).encode(&mut w);
        StreamElement::Watermark(5).encode(&mut w);
        assert_eq!(barrier_only(&w.freeze()), None);

        // Records, watermarks, empty and corrupt payloads all decline.
        let mut w = ByteWriter::new();
        StreamElement::Record(sample_record()).encode(&mut w);
        assert_eq!(barrier_only(&w.freeze()), None);
        let mut w = ByteWriter::new();
        StreamElement::Watermark(9).encode(&mut w);
        assert_eq!(barrier_only(&w.freeze()), None);
        assert_eq!(barrier_only(&[]), None);
        assert_eq!(barrier_only(&[2]), None); // truncated varint
    }

    #[test]
    fn corrupt_field_count_is_an_error_not_an_allocation() {
        // A row claiming 2^62 fields in a 12-byte payload.
        let mut w = ByteWriter::new();
        w.put_varint(1 << 62);
        w.put_raw(&[0; 3]);
        let b = w.freeze();
        assert!(matches!(
            Row::decode(&mut ByteReader::new(&b)),
            Err(CodecError::UnexpectedEof { remaining: 3, .. })
        ));
    }

    #[test]
    fn decode_into_replaces_contents_and_keeps_capacity() {
        let mut w = ByteWriter::new();
        sample_record().encode(&mut w);
        let wide = w.take_frozen();
        let narrow = Record { row: Row::new(vec![Datum::Int(1)]), ..sample_record() };
        narrow.encode(&mut w);
        let narrow_bytes = w.take_frozen();

        let mut scratch = Record::default();
        scratch.decode_into(&mut ByteReader::new(&wide)).unwrap();
        assert_eq!(scratch, sample_record());
        let cap = scratch.row.0.capacity();
        scratch.decode_into(&mut ByteReader::new(&narrow_bytes)).unwrap();
        assert_eq!(scratch, narrow);
        assert_eq!(scratch.row.0.capacity(), cap);
    }

    #[test]
    fn header_reader_yields_the_same_ranges_without_rows() {
        let mut w = ByteWriter::new();
        StreamElement::Record(sample_record()).encode(&mut w);
        StreamElement::Watermark(9).encode(&mut w);
        let payload = w.freeze();
        let mut rec = Record::default();
        let mut full = BufferReader::new(&payload);
        let mut head = BufferReader::new(&payload);
        let a = full.next_into(&mut rec).unwrap();
        let mut hdr = Record { row: Row::new(vec![Datum::Null]), ..Record::default() };
        assert_eq!(head.next_header(&mut hdr).unwrap(), a);
        assert_eq!(hdr, Record { row: Row::default(), ..rec.clone() });
        assert_eq!(head.next_header(&mut hdr).unwrap(), Some(Element::Watermark(9)));
        assert_eq!(head.next_header(&mut hdr).unwrap(), None);

        // An invalid UTF-8 string fails the walk exactly as it fails a decode.
        let mut w = ByteWriter::new();
        w.put_u8(TAG_RECORD);
        for _ in 0..4 {
            w.put_varint(1);
        }
        w.put_varint(1);
        w.put_u8(4);
        w.put_bytes(&[0xff, 0xfe]);
        let bad = w.freeze();
        assert_eq!(BufferReader::new(&bad).next_header(&mut hdr), Err(CodecError::InvalidUtf8));
        assert_eq!(BufferReader::new(&bad).next_into(&mut hdr), Err(CodecError::InvalidUtf8));
    }

    use proptest::prelude::*;

    fn arb_datum() -> impl Strategy<Value = Datum> {
        prop_oneof![
            Just(Datum::Null),
            any::<bool>().prop_map(Datum::Bool),
            any::<i64>().prop_map(Datum::Int),
            // NaN never equals itself, which would fail the comparisons below
            // for a reason that has nothing to do with the codec.
            any::<f64>().prop_map(|v| Datum::Float(if v.is_nan() { -0.0 } else { v })),
            proptest::collection::vec(0u8..128, 0..12)
                .prop_map(|b| Datum::str(String::from_utf8(b).expect("ascii"))),
            Just(Datum::str("héllo ✓")),
        ]
    }

    fn arb_element() -> impl Strategy<Value = StreamElement> {
        let record = (
            (any::<u64>(), any::<u64>(), 0u64..1 << 40, any::<u64>()),
            proptest::collection::vec(arb_datum(), 0..7),
        )
            .prop_map(|((key, event_time, create_ts, ident), row)| {
                StreamElement::Record(Record { key, event_time, create_ts, ident, row: Row(row) })
            });
        prop_oneof![
            record.boxed(),
            arb_datum().prop_map(|d| {
                StreamElement::Record(Record { row: Row(vec![d]), ..Record::default() })
            }).boxed(),
            any::<u64>().prop_map(StreamElement::Watermark).boxed(),
            (0u64..1000).prop_map(StreamElement::Barrier).boxed(),
        ]
    }

    /// Mixed buffers, plus the buffers the flush discipline really cuts:
    /// a barrier travelling alone.
    fn arb_buffer() -> impl Strategy<Value = Vec<StreamElement>> {
        prop_oneof![
            proptest::collection::vec(arb_element(), 0..12).boxed(),
            (0u64..1000).prop_map(|id| vec![StreamElement::Barrier(id)]).boxed(),
        ]
    }

    fn encode_all(elems: &[StreamElement]) -> Bytes {
        let mut w = ByteWriter::new();
        for e in elems {
            e.encode(&mut w);
        }
        w.freeze()
    }

    /// An element as streamed, with the byte range of a record.
    type Streamed = (StreamElement, Option<Range<usize>>);

    /// Stream `payload` through the reader, checking every invariant that
    /// must hold for any input, and return what it yielded.
    fn stream(payload: &[u8]) -> Result<Vec<Streamed>, CodecError> {
        let mut reader = BufferReader::new(payload);
        let mut rec = Record::default();
        let mut out = Vec::new();
        let mut end = 0;
        while let Some(el) = reader.next_into(&mut rec)? {
            let range = match &el {
                Element::Record(range) => {
                    // In bounds, after the tag byte, and moving forward.
                    assert!(range.start == end + 1 && range.start < range.end);
                    assert!(range.end <= payload.len());
                    end = range.end;
                    Some(range.clone())
                }
                _ => {
                    end = reader.r.position();
                    None
                }
            };
            out.push((el.into_owned(&mut rec), range));
        }
        Ok(out)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// (a) The streaming reader yields exactly `decode_buffer`'s
        /// elements, which are the encoded ones; (b) every record range is
        /// byte-for-byte `Record::encode` of that record, so a slice of the
        /// buffer can stand in for a re-encode; the header-only walk agrees
        /// on every range.
        #[test]
        fn prop_reader_matches_decode_buffer_and_ranges_are_record_encodings(elems in arb_buffer()) {
            let payload = encode_all(&elems);
            let streamed = stream(&payload).expect("just encoded");
            let decoded = decode_buffer(&payload).expect("just encoded");
            prop_assert_eq!(&decoded, &elems);
            prop_assert_eq!(streamed.iter().map(|(e, _)| e.clone()).collect::<Vec<_>>(), decoded);

            let mut head = BufferReader::new(&payload);
            let mut hdr = Record::default();
            for (el, range) in &streamed {
                let walked = head.next_header(&mut hdr).expect("just encoded");
                if let (StreamElement::Record(rec), Some(range)) = (el, range) {
                    let mut w = ByteWriter::new();
                    rec.encode(&mut w);
                    prop_assert_eq!(&payload[range.clone()], w.as_slice());
                    prop_assert_eq!(walked, Some(Element::Record(range.clone())));
                    prop_assert_eq!((hdr.ident, hdr.create_ts), (rec.ident, rec.create_ts));
                    prop_assert!(hdr.row.is_empty());
                }
            }
            prop_assert_eq!(head.next_header(&mut hdr).expect("at end"), None);
            prop_assert_eq!(barrier_only(&payload).is_some(),
                matches!(elems[..], [StreamElement::Barrier(_)]));
        }

        /// (c) Truncations and single bit-flips give `Err` or well-formed
        /// different elements — never a panic, never a range outside the
        /// payload (`stream` asserts the ranges), and the full decode, the
        /// header walk and `decode_buffer` agree on accept/reject.
        #[test]
        fn prop_corruption_fails_closed(elems in arb_buffer(), cut in any::<usize>(), flip in any::<usize>()) {
            let payload = encode_all(&elems);
            prop_assume!(!payload.is_empty());
            let truncated = &payload[..cut % payload.len()];
            let mut flipped = payload.to_vec();
            flipped[(flip / 8) % payload.len()] ^= 1 << (flip % 8);
            for bytes in [truncated, &flipped[..]] {
                let streamed = stream(bytes);
                let decoded = decode_buffer(bytes);
                match (&streamed, &decoded) {
                    (Ok(s), Ok(d)) => {
                        for ((el, range), other) in s.iter().zip(d) {
                            // Re-encode to compare: a flip can make a NaN.
                            let (mut a, mut b) = (ByteWriter::new(), ByteWriter::new());
                            el.encode(&mut a);
                            other.encode(&mut b);
                            prop_assert_eq!(a.as_slice(), b.as_slice());
                            prop_assert_eq!(range.is_some(), matches!(el, StreamElement::Record(_)));
                        }
                        prop_assert_eq!(s.len(), d.len());
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a, b),
                    _ => prop_assert!(false, "reader and decode_buffer disagree on {bytes:?}"),
                }
                let mut head = BufferReader::new(bytes);
                let mut hdr = Record::default();
                let walked = loop {
                    match head.next_header(&mut hdr) {
                        Ok(Some(_)) => {}
                        Ok(None) => break Ok(()),
                        Err(e) => break Err(e),
                    }
                };
                prop_assert_eq!(walked.err(), streamed.err());
            }
        }
    }

    /// The wire bytes of a fixed record set, pinned: header varints of
    /// every width up to a ten-byte key, ints at both sides of every zigzag
    /// width boundary and at both ends of `i64`, and each other datum kind.
    /// A codec change that moves a byte fails here, not only a round trip.
    #[test]
    fn record_wire_bytes_are_pinned() {
        let mut ints = vec![Datum::Int(0), Datum::Int(i64::MIN), Datum::Int(i64::MAX)];
        for k in 0..9 {
            let edge = 1i64 << (7 * k + 6);
            ints.extend([edge - 1, edge, -edge, -edge - 1].map(Datum::Int));
        }
        let others = vec![
            Datum::str(""),
            Datum::str("héllo"),
            Datum::Null,
            Datum::Bool(true),
            Datum::Bool(false),
            Datum::Float(2.25),
            Datum::Float(-0.0),
        ];
        let records = [
            Record {
                key: 0x9E37_79B9_7F4A_7C15,
                event_time: 0,
                create_ts: 1_000_000,
                ident: (5 << 40) | 12,
                row: Row::new(ints),
            },
            Record { key: 1, event_time: 127, create_ts: 128, ident: u64::MAX, row: Row::new(others) },
            Record { key: 300, event_time: 1 << 35, create_ts: 16_384, ident: 0, row: Row::default() },
        ];
        /// `records` on the wire; changes only with a deliberate format change.
        const GOLDEN_RECORDS: &str = concat!(
            "0095f8a9fa97b7de9b9e0100c0843d8c80808080a00127020002ffffffffffffffffff01",
            "02feffffffffffffffff01027e028001027f02810102fe7f0280800102ff7f0281800102",
            "feff7f028080800102ffff7f028180800102feffff7f02808080800102ffffff7f028180",
            "80800102feffffff7f0280808080800102ffffffff7f0281808080800102feffffffff7f",
            "028080808080800102ffffffffff7f028180808080800102feffffffffff7f0280808080",
            "8080800102ffffffffffff7f02818080808080800102feffffffffffff7f028080808080",
            "8080800102ffffffffffffff7f0281808080808080800102feffffffffffffff7f028080",
            "808080808080800102ffffffffffffffff7f028180808080808080800100017f8001ffff",
            "ffffffffffffff01070400040668c3a96c6c6f0001010100030000000000000240030000",
            "00000000008000ac028080808080018080010000",
        );
        let mut w = ByteWriter::new();
        for rec in &records {
            rec.encode_element(&mut w);
        }
        let hex: String = w.as_slice().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_RECORDS);
        let back = decode_buffer(w.as_slice()).unwrap();
        assert_eq!(back, records.map(StreamElement::Record));
    }

    #[test]
    fn row_to_bytes_is_stable() {
        let row = Row::new(vec![Datum::Int(1), Datum::str("a")]);
        assert_eq!(row.to_bytes(), row.clone().to_bytes());
        let other = Row::new(vec![Datum::Int(2), Datum::str("a")]);
        assert_ne!(row.to_bytes(), other.to_bytes());
    }
}
