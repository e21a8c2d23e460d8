//! Tuple sets: the unit of indexing (§II).
//!
//! "A better solution is to index tuple sets, collections of readings
//! grouped by some property, typically time." A [`TupleSet`] pairs the
//! readings with the [`ProvenanceRecord`] that names them.

use crate::codec::{self, Decode, Encode, Reader};
use crate::digest::Digest128;
use crate::error::ModelError;
use crate::ids::SensorId;
use crate::provenance::ProvenanceRecord;
use crate::time::{TimeRange, Timestamp};
use crate::value::Value;
use serde::{Deserialize, Serialize};

/// One sensor reading: who measured, when, and a small set of named fields
/// (e.g. `speed_kmh=42.0`, or `hr=88, spo2=97`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reading {
    /// The producing sensor.
    pub sensor: SensorId,
    /// Measurement time.
    pub time: Timestamp,
    /// Named measurement fields, in insertion order.
    pub fields: Vec<(String, Value)>,
}

impl Reading {
    /// Creates a reading with no fields.
    pub fn new(sensor: SensorId, time: Timestamp) -> Self {
        Reading { sensor, time, fields: Vec::new() }
    }

    /// Adds a field, returning `self` for chaining.
    pub fn with(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.fields.push((name.into(), value.into()));
        self
    }

    /// Looks up a field by name (first match).
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

impl Encode for Reading {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.sensor.encode_into(buf);
        self.time.encode_into(buf);
        codec::put_varint(buf, self.fields.len() as u64);
        for (name, value) in &self.fields {
            codec::put_str(buf, name);
            value.encode_into(buf);
        }
    }
}

impl Decode for Reading {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        let sensor = SensorId::decode_from(r)?;
        let time = Timestamp::decode_from(r)?;
        let n = r.take_varint("reading field count")?;
        if n > r.remaining() as u64 {
            return Err(ModelError::LengthOverflow { decoding: "reading fields", declared: n });
        }
        let mut fields = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let name = codec::take_string(r, "field name")?;
            let value = Value::decode_from(r)?;
            fields.push((name, value));
        }
        Ok(Reading { sensor, time, fields })
    }
}

/// A named collection of readings: provenance + data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TupleSet {
    /// The record that names this data (identity, attributes, ancestry).
    pub provenance: ProvenanceRecord,
    /// The readings themselves.
    pub readings: Vec<Reading>,
}

impl TupleSet {
    /// Pairs a provenance record with its readings.
    ///
    /// Returns an error when the record's content digest does not match the
    /// readings — catching exactly the "linkage back from the index to the
    /// data might … end up pointing to the wrong thing" failure the paper
    /// warns about (§IV-A).
    pub fn new(provenance: ProvenanceRecord, readings: Vec<Reading>) -> Result<Self, ModelError> {
        let digest = Self::content_digest_of(&readings);
        if digest != provenance.content_digest {
            return Err(ModelError::Invalid(format!(
                "content digest mismatch: record names {}, data hashes to {}",
                provenance.content_digest, digest
            )));
        }
        Ok(TupleSet { provenance, readings })
    }

    /// Pairs without verifying (for trusted paths, e.g. decoding from the
    /// engine's own storage, where verification already happened on write).
    pub fn new_unchecked(provenance: ProvenanceRecord, readings: Vec<Reading>) -> Self {
        TupleSet { provenance, readings }
    }

    /// The canonical digest of a reading sequence; this is what binds data
    /// to identity (PASS property 3).
    pub fn content_digest_of(readings: &[Reading]) -> Digest128 {
        let mut buf = Vec::with_capacity(readings.len() * 24 + 8);
        Self::encode_readings_into(readings, &mut buf);
        Digest128::of(&buf)
    }

    /// Appends the canonical encoding of a reading sequence: the bytes a
    /// store keeps as a tuple set's data, and the bytes its content
    /// digest is taken over ([`Digest128::of`] of them is
    /// [`TupleSet::content_digest_of`]).
    pub fn encode_readings_into(readings: &[Reading], buf: &mut Vec<u8>) {
        codec::put_varint(buf, readings.len() as u64);
        for reading in readings {
            reading.encode_into(buf);
        }
    }

    /// Number of readings.
    pub fn len(&self) -> usize {
        self.readings.len()
    }

    /// True when the set holds no readings.
    pub fn is_empty(&self) -> bool {
        self.readings.is_empty()
    }

    /// The observed time span of the readings (min..max measurement time),
    /// if any readings exist.
    pub fn observed_range(&self) -> Option<TimeRange> {
        let first = self.readings.first()?;
        let (mut lo, mut hi) = (first.time, first.time);
        for reading in &self.readings[1..] {
            lo = lo.min(reading.time);
            hi = hi.max(reading.time);
        }
        Some(TimeRange { start: lo, end: hi })
    }
}

impl Encode for TupleSet {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.provenance.encode_into(buf);
        Self::encode_readings_into(&self.readings, buf);
    }
}

impl Decode for TupleSet {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        Ok(TupleSet {
            provenance: ProvenanceRecord::decode_from(r)?,
            readings: Vec::<Reading>::decode_from(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::ProvenanceBuilder;
    use crate::SiteId;

    fn readings() -> Vec<Reading> {
        vec![
            Reading::new(SensorId(1), Timestamp(10)).with("speed", 42.5),
            Reading::new(SensorId(2), Timestamp(5)).with("speed", 38.0).with("lane", 2i64),
        ]
    }

    fn record_for(readings: &[Reading]) -> ProvenanceRecord {
        ProvenanceBuilder::new(SiteId(0), Timestamp(100))
            .attr("domain", "traffic")
            .build(TupleSet::content_digest_of(readings))
    }

    #[test]
    fn construction_verifies_content_digest() {
        let rs = readings();
        let record = record_for(&rs);
        assert!(TupleSet::new(record, rs).is_ok());
    }

    #[test]
    fn construction_rejects_mismatched_data() {
        let rs = readings();
        let record = record_for(&rs);
        let tampered = vec![Reading::new(SensorId(9), Timestamp(1)).with("speed", 0.0)];
        let err = TupleSet::new(record, tampered).unwrap_err();
        assert!(matches!(err, ModelError::Invalid(_)));
    }

    #[test]
    fn content_digest_is_order_sensitive() {
        // Tuple sets are sequences, not bags: reordering is different data.
        let rs = readings();
        let mut reversed = rs.clone();
        reversed.reverse();
        assert_ne!(TupleSet::content_digest_of(&rs), TupleSet::content_digest_of(&reversed));
    }

    #[test]
    fn observed_range_spans_min_max() {
        let rs = readings();
        let ts = TupleSet::new(record_for(&rs), rs).unwrap();
        let range = ts.observed_range().unwrap();
        assert_eq!(range, TimeRange::new(Timestamp(5), Timestamp(10)));
    }

    #[test]
    fn empty_set_has_no_observed_range() {
        let record = record_for(&[]);
        let ts = TupleSet::new(record, vec![]).unwrap();
        assert!(ts.is_empty());
        assert_eq!(ts.observed_range(), None);
    }

    #[test]
    fn tuple_set_round_trips_through_codec() {
        let rs = readings();
        let ts = TupleSet::new(record_for(&rs), rs).unwrap();
        let dec = TupleSet::decode_all(&ts.encode_to_vec()).unwrap();
        assert_eq!(ts, dec);
    }

    #[test]
    fn reading_field_lookup() {
        let r = Reading::new(SensorId(1), Timestamp(0)).with("a", 1i64).with("b", 2i64);
        assert_eq!(r.field("b"), Some(&Value::Int(2)));
        assert_eq!(r.field("missing"), None);
    }
}
