//! Canonical binary encoding.
//!
//! One encoding serves three purposes:
//!
//! 1. **Storage** — `pass-storage` persists encoded records.
//! 2. **Wire accounting** — `pass-net` charges message sizes from encoded
//!    lengths, so the resource-consumption experiments (E7) measure real
//!    byte counts, not guesses.
//! 3. **Identity** — tuple-set ids are digests of encodings, so the
//!    encoding must be *canonical*: one logical value, one byte string.
//!    Map iteration is sorted ([`crate::Attributes`]), integers use
//!    fixed-rule varints, and there is no self-describing fluff.
//!
//! The format is deliberately simple: LEB128 varints, zigzag for signed,
//! length-prefixed strings/bytes, tag bytes for enums.
//!
//! The record codec is generic over how it writes and reads vocabulary
//! strings (attribute and tool parameter names, tool names and
//! versions; [`NameWriter`], [`NameReader`]): [`Literal`] spells them
//! out, which is the canonical encoding, and an in-memory index writes
//! codes instead. Every other byte is the same in both forms.

use crate::error::ModelError;

/// Maximum declared length accepted for any single string/bytes/list.
/// Guards decoders against corrupt length prefixes. 64 MiB is far above
/// anything PASS writes.
pub const MAX_LEN: u64 = 64 << 20;

/// Types that can write themselves into a canonical byte stream.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `buf`.
    fn encode_into(&self, buf: &mut Vec<u8>);

    /// Convenience: encodes into a fresh buffer.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Encoded size in bytes (computed by encoding; override if a cheaper
    /// computation exists).
    fn encoded_len(&self) -> usize {
        self.encode_to_vec().len()
    }
}

/// Types that can read themselves back from a canonical byte stream.
pub trait Decode: Sized {
    /// Decodes one value from the front of the reader.
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, ModelError>;

    /// Convenience: decodes from a slice and requires full consumption.
    fn decode_all(bytes: &[u8]) -> Result<Self, ModelError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode_from(&mut r)?;
        if !r.is_empty() {
            return Err(ModelError::Invalid(format!(
                "{} trailing bytes after decode",
                r.remaining()
            )));
        }
        Ok(v)
    }
}

/// A bounds-checked cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current offset from the start of the underlying slice.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Reads exactly `n` bytes.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ModelError> {
        if self.remaining() < n {
            return Err(ModelError::UnexpectedEof { decoding: what });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a single byte.
    pub fn take_u8(&mut self, what: &'static str) -> Result<u8, ModelError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a LEB128 varint.
    pub fn take_varint(&mut self, what: &'static str) -> Result<u64, ModelError> {
        let mut out: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.take_u8(what)?;
            if shift == 63 && b > 1 {
                return Err(ModelError::VarintOverflow);
            }
            out |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
            if shift > 63 {
                return Err(ModelError::VarintOverflow);
            }
        }
    }

    /// Reads a length prefix, bounded by [`MAX_LEN`] and by the bytes that
    /// actually remain (a declared length can never exceed the input).
    pub fn take_len(&mut self, what: &'static str) -> Result<usize, ModelError> {
        let n = self.take_varint(what)?;
        if n > MAX_LEN || n > self.remaining() as u64 {
            return Err(ModelError::LengthOverflow { decoding: what, declared: n });
        }
        Ok(n as usize)
    }

    /// Reads a fixed-width little-endian u64.
    pub fn take_u64_le(&mut self, what: &'static str) -> Result<u64, ModelError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a fixed-width big-endian u128.
    pub fn take_u128_be(&mut self, what: &'static str) -> Result<u128, ModelError> {
        let b = self.take(16, what)?;
        Ok(u128::from_be_bytes(b.try_into().expect("16 bytes")))
    }
}

/// Appends a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

/// Number of bytes [`put_varint`] writes for `v`.
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        return 1;
    }
    (64 - v.leading_zeros() as usize).div_ceil(7)
}

/// Zigzag-encodes a signed integer so small magnitudes stay small.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a length-prefixed byte string.
pub fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_varint(buf, b.len() as u64);
    buf.extend_from_slice(b);
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Reads a length-prefixed byte string.
pub fn take_bytes<'a>(r: &mut Reader<'a>, what: &'static str) -> Result<&'a [u8], ModelError> {
    let n = r.take_len(what)?;
    r.take(n, what)
}

/// Reads a length-prefixed UTF-8 string.
pub fn take_string(r: &mut Reader<'_>, what: &'static str) -> Result<String, ModelError> {
    let b = take_bytes(r, what)?;
    String::from_utf8(b.to_vec()).map_err(|_| ModelError::InvalidUtf8)
}

/// How the record codec writes a vocabulary string: an attribute name
/// (a record's or a tool parameter's), a tool name or a tool version.
/// [`Literal`] spells each one out, which is the canonical encoding;
/// a resident index writes a code into its own vocabulary instead.
/// Every other byte of a record is written the same way by both.
pub trait NameWriter {
    /// Appends `name` to `buf`.
    fn put_name(&mut self, buf: &mut Vec<u8>, name: &str);
}

/// How the record codec reads back a vocabulary string that a
/// [`NameWriter`] wrote.
pub trait NameReader {
    /// Reads one vocabulary string from the front of `r`.
    fn take_name(&self, r: &mut Reader<'_>, what: &'static str) -> Result<String, ModelError>;
}

/// Vocabulary strings as length-prefixed UTF-8: the canonical encoding.
#[derive(Debug, Clone, Copy)]
pub struct Literal;

impl NameWriter for Literal {
    fn put_name(&mut self, buf: &mut Vec<u8>, name: &str) {
        put_str(buf, name);
    }
}

impl NameReader for Literal {
    fn take_name(&self, r: &mut Reader<'_>, what: &'static str) -> Result<String, ModelError> {
        take_string(r, what)
    }
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

impl Encode for u64 {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_varint(buf, *self);
    }
    fn encoded_len(&self) -> usize {
        varint_len(*self)
    }
}

impl Decode for u64 {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        r.take_varint("u64")
    }
}

impl Encode for i64 {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_varint(buf, zigzag(*self));
    }
}

impl Decode for i64 {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        Ok(unzigzag(r.take_varint("i64")?))
    }
}

impl Encode for String {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_str(buf, self);
    }
}

impl Decode for String {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        take_string(r, "string")
    }
}

impl Encode for bool {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for bool {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        match r.take_u8("bool")? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(ModelError::InvalidTag { decoding: "bool", tag }),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        for item in self {
            item.encode_into(buf);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        take_list(r, T::decode_from)
    }
}

/// Reads a count-prefixed list, each element read by `item`: the
/// [`Vec`] decoding, for element types that need more than [`Decode`].
pub(crate) fn take_list<T>(
    r: &mut Reader<'_>,
    mut item: impl FnMut(&mut Reader<'_>) -> Result<T, ModelError>,
) -> Result<Vec<T>, ModelError> {
    let n = r.take_varint("vec length")?;
    if n > MAX_LEN {
        return Err(ModelError::LengthOverflow { decoding: "vec", declared: n });
    }
    // Defensive cap: each element takes at least one byte.
    if n > r.remaining() as u64 {
        return Err(ModelError::LengthOverflow { decoding: "vec", declared: n });
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        out.push(item(r)?);
    }
    Ok(out)
}

impl<T: Encode> Encode for Option<T> {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode_into(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        match r.take_u8("option")? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_from(r)?)),
            tag => Err(ModelError::InvalidTag { decoding: "option", tag }),
        }
    }
}

// ---------------------------------------------------------------------------
// Model-type impls
// ---------------------------------------------------------------------------

use crate::attr::Attributes;
use crate::ids::{SensorId, SiteId, TupleSetId};
use crate::time::{TimeRange, Timestamp};
use crate::value::{GeoPoint, Value};

impl Encode for Timestamp {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.0);
    }
}

impl Decode for Timestamp {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        Ok(Timestamp(r.take_varint("timestamp")?))
    }
}

impl Encode for TimeRange {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.start.0);
        // Delta encoding keeps common (short) ranges to a couple of bytes.
        put_varint(buf, self.end.0 - self.start.0);
    }
}

impl Decode for TimeRange {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        let start = r.take_varint("time range start")?;
        let delta = r.take_varint("time range delta")?;
        let end = start
            .checked_add(delta)
            .ok_or_else(|| ModelError::Invalid("time range overflows u64".into()))?;
        Ok(TimeRange { start: Timestamp(start), end: Timestamp(end) })
    }
}

impl Encode for TupleSetId {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_be_bytes());
    }
    fn encoded_len(&self) -> usize {
        TupleSetId::WIDTH
    }
}

impl Decode for TupleSetId {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        Ok(TupleSetId(r.take_u128_be("tuple set id")?))
    }
}

impl Encode for SensorId {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.0);
    }
}

impl Decode for SensorId {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        Ok(SensorId(r.take_varint("sensor id")?))
    }
}

impl Encode for SiteId {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_varint(buf, u64::from(self.0));
    }
}

impl Decode for SiteId {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        let v = r.take_varint("site id")?;
        u32::try_from(v)
            .map(SiteId)
            .map_err(|_| ModelError::Invalid(format!("site id {v} exceeds u32")))
    }
}

impl Encode for Value {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.push(self.tag());
        match self {
            Value::Null => {}
            Value::Bool(b) => buf.push(u8::from(*b)),
            Value::Int(i) => put_varint(buf, zigzag(*i)),
            Value::Float(x) => buf.extend_from_slice(&x.to_bits().to_le_bytes()),
            Value::Str(s) => put_str(buf, s),
            Value::Bytes(b) => put_bytes(buf, b),
            Value::Time(t) => put_varint(buf, t.0),
            Value::Geo(g) => {
                buf.extend_from_slice(&g.lat.to_bits().to_le_bytes());
                buf.extend_from_slice(&g.lon.to_bits().to_le_bytes());
            }
            Value::List(vs) => {
                put_varint(buf, vs.len() as u64);
                for v in vs {
                    v.encode_into(buf);
                }
            }
        }
    }
}

impl Decode for Value {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        let tag = r.take_u8("value tag")?;
        Ok(match tag {
            0 => Value::Null,
            1 => Value::Bool(bool::decode_from(r)?),
            2 => Value::Int(unzigzag(r.take_varint("int value")?)),
            3 => Value::Float(f64::from_bits(r.take_u64_le("float value")?)),
            4 => Value::Str(take_string(r, "str value")?),
            5 => Value::Bytes(take_bytes(r, "bytes value")?.to_vec()),
            6 => Value::Time(Timestamp(r.take_varint("time value")?)),
            7 => {
                let lat = f64::from_bits(r.take_u64_le("geo lat")?);
                let lon = f64::from_bits(r.take_u64_le("geo lon")?);
                Value::Geo(GeoPoint::new(lat, lon))
            }
            8 => {
                let n = r.take_varint("list length")?;
                if n > r.remaining() as u64 {
                    return Err(ModelError::LengthOverflow { decoding: "list", declared: n });
                }
                let mut vs = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    vs.push(Value::decode_from(r)?);
                }
                Value::List(vs)
            }
            tag => return Err(ModelError::InvalidTag { decoding: "value", tag }),
        })
    }
}

impl Attributes {
    /// Appends the encoding of the collection, names written by `names`.
    pub(crate) fn encode_with(&self, names: &mut impl NameWriter, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        // BTreeMap iteration is sorted: the encoding is canonical.
        for (k, v) in self.iter() {
            names.put_name(buf, k);
            v.encode_into(buf);
        }
    }

    /// Decodes a collection from the front of `r`, names read by `names`.
    pub(crate) fn decode_with(
        names: &impl NameReader,
        r: &mut Reader<'_>,
    ) -> Result<Self, ModelError> {
        let n = r.take_varint("attribute count")?;
        if n > r.remaining() as u64 {
            return Err(ModelError::LengthOverflow { decoding: "attributes", declared: n });
        }
        let mut attrs = Attributes::new();
        for _ in 0..n {
            let k = names.take_name(r, "attribute name")?;
            // One record, one byte string: names must arrive in the
            // sorted order the encoder writes, each once.
            if attrs.last_name().is_some_and(|last| last >= k.as_str()) {
                return Err(ModelError::Invalid(format!(
                    "attribute {k:?} is out of order or repeated"
                )));
            }
            let v = Value::decode_from(r)?;
            attrs.set(k, v);
        }
        Ok(attrs)
    }
}

impl Encode for Attributes {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.encode_with(&mut Literal, buf);
    }
}

impl Decode for Attributes {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        Self::decode_with(&Literal, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip_edges() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX / 2, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "length prediction for {v}");
            let mut r = Reader::new(&buf);
            assert_eq!(r.take_varint("test").unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn varint_overflow_detected() {
        // Eleven continuation bytes cannot encode a u64.
        let buf = [0xffu8; 11];
        let mut r = Reader::new(&buf);
        assert!(matches!(r.take_varint("test"), Err(ModelError::VarintOverflow)));
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456, 123456] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn value_round_trips() {
        let values = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(3.25),
            Value::Float(f64::NAN),
            Value::Str("αβγ traffic".into()),
            Value::Bytes(vec![0, 1, 2, 255]),
            Value::Time(Timestamp(99_999)),
            Value::Geo(GeoPoint::new(51.5, -0.12)),
            Value::List(vec![Value::Int(1), Value::Str("x".into()), Value::List(vec![])]),
        ];
        for v in values {
            let enc = v.encode_to_vec();
            let dec = Value::decode_all(&enc).unwrap();
            assert_eq!(v, dec, "round trip of {v}");
        }
    }

    #[test]
    fn attributes_encoding_is_canonical() {
        let a = Attributes::new().with("b", 2i64).with("a", 1i64);
        let b = Attributes::new().with("a", 1i64).with("b", 2i64);
        assert_eq!(a.encode_to_vec(), b.encode_to_vec());
    }

    #[test]
    fn attributes_decode_rejects_non_canonical_names() {
        // Hand-built encodings with a repeated name and with names out
        // of order: each would be a second byte string for a map that
        // already has a canonical one.
        let encode = |pairs: &[(&str, i64)]| {
            let mut buf = Vec::new();
            put_varint(&mut buf, pairs.len() as u64);
            for (k, v) in pairs {
                put_str(&mut buf, k);
                Value::Int(*v).encode_into(&mut buf);
            }
            buf
        };
        for pairs in [[("a", 1), ("a", 2)], [("b", 2), ("a", 1)]] {
            let err = Attributes::decode_all(&encode(&pairs)).unwrap_err();
            assert!(matches!(err, ModelError::Invalid(_)), "{pairs:?}: {err}");
        }
        let sorted = Attributes::new().with("a", 1i64).with("b", 2i64);
        assert_eq!(encode(&[("a", 1), ("b", 2)]), sorted.encode_to_vec());
        assert_eq!(Attributes::decode_all(&sorted.encode_to_vec()).unwrap(), sorted);
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut enc = Value::Int(7).encode_to_vec();
        enc.push(0);
        assert!(Value::decode_all(&enc).is_err());
    }

    #[test]
    fn decode_rejects_bad_tag() {
        assert!(matches!(
            Value::decode_all(&[200]),
            Err(ModelError::InvalidTag { decoding: "value", tag: 200 })
        ));
    }

    #[test]
    fn decode_rejects_lying_length_prefix() {
        // Claims a 100-byte string but provides 2 bytes.
        let mut enc = vec![4u8]; // Str tag
        put_varint(&mut enc, 100);
        enc.extend_from_slice(b"ab");
        assert!(Value::decode_all(&enc).is_err());
    }

    #[test]
    fn time_range_delta_encoding_round_trips() {
        let r0 = TimeRange::new(Timestamp(1_000), Timestamp(1_060));
        let enc = r0.encode_to_vec();
        assert!(enc.len() <= 3, "short ranges encode compactly, got {}", enc.len());
        assert_eq!(TimeRange::decode_all(&enc).unwrap(), r0);
    }

    #[test]
    fn option_and_vec_round_trip() {
        let v: Vec<Option<String>> = vec![None, Some("x".into())];
        let enc = v.encode_to_vec();
        assert_eq!(Vec::<Option<String>>::decode_all(&enc).unwrap(), v);
    }

    #[test]
    fn float_nan_payload_preserved() {
        let bits = 0x7ff8_0000_dead_beefu64;
        let v = Value::Float(f64::from_bits(bits));
        let dec = Value::decode_all(&v.encode_to_vec()).unwrap();
        match dec {
            Value::Float(x) => assert_eq!(x.to_bits(), bits),
            other => panic!("expected float, got {other}"),
        }
    }
}
