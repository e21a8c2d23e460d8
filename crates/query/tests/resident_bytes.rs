//! Counted gate for the resident record table: a record is resident as
//! its canonical encoding with each vocabulary string (attribute name,
//! tool name, tool version, tool parameter name) replaced by the varint
//! of its code, and by nothing else.
//!
//! Over a fixed corpus of 4000 records whose vocabulary holds more than
//! 128 distinct strings (so later codes take two bytes, and some names
//! are long enough for a two-byte length varint), the index's
//! `record_bytes` must equal exactly the sum of the canonical lengths,
//! less each vocabulary string's bytes and length varint, plus its code
//! varint. The reference numbers names in the order the records are
//! pushed, each record's in encoding order, as the index does. The
//! figure depends on the corpus and the codec only.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code asserts by panicking

use pass_model::codec::{varint_len, Encode};
use pass_model::{
    Annotation, Digest128, ProvenanceBuilder, ProvenanceRecord, SiteId, Timestamp, ToolDescriptor,
    TupleSetId,
};
use pass_query::RecordIndex;
use std::collections::HashMap;

const RECORDS: usize = 4_000;
const FIELDS: usize = 150;

/// Record `i`: a fixed schema, one of [`FIELDS`] sensor fields, a long
/// calibration name on every tenth, and every third derived by one of
/// five tools with a parameter.
fn record(i: usize) -> ProvenanceRecord {
    let mut builder = ProvenanceBuilder::new(SiteId(1), Timestamp(i as u64))
        .attr("domain", ["traffic", "weather", "medical"][i % 3])
        .attr("region", format!("region-{}", i % 17))
        .attr(format!("field.{}", i % FIELDS), i as i64)
        .attr("température", 20i64);
    if i.is_multiple_of(10) {
        builder = builder.attr(format!("calibration.{}", "x".repeat(130 + i % 7)), true);
    }
    if i.is_multiple_of(3) {
        let tool = ToolDescriptor::new(format!("tool-{}", i % 5), format!("1.{}", i % 4))
            .with_param(format!("window.{}", i % 6), 60i64);
        builder = builder.derived_from(TupleSetId(i as u128 + 1_000_000), tool);
    }
    let mut record = builder.build(Digest128::of(&(i as u64).to_be_bytes()));
    if i.is_multiple_of(7) {
        record.annotate(Annotation::new(Timestamp(1), "ops", "checked"));
    }
    record
}

/// The vocabulary strings of `record`, in encoding order.
fn names(record: &ProvenanceRecord) -> Vec<&str> {
    let mut out: Vec<&str> = record.attributes.names().collect();
    for d in &record.ancestry {
        out.extend([d.tool.name.as_str(), d.tool.version.as_str()]);
        out.extend(d.tool.params.names());
    }
    out
}

#[test]
fn resident_bytes_are_canonical_bytes_with_codes_for_names() {
    let corpus: Vec<ProvenanceRecord> = (0..RECORDS).map(record).collect();
    let mut index = RecordIndex::new();
    for chunk in corpus.chunks(1_000) {
        let mut delta = index.delta(chunk.len());
        for record in chunk {
            delta.push(record);
        }
        index.insert_delta(&mut delta);
    }
    assert_eq!(index.len(), RECORDS);

    let mut codes: HashMap<&str, u64> = HashMap::new();
    let (mut canonical, mut expected) = (0usize, 0usize);
    for record in &corpus {
        let len = record.encode_to_vec().len();
        canonical += len;
        expected += len;
        for name in names(record) {
            let next = codes.len() as u64;
            let code = *codes.entry(name).or_insert(next);
            expected = expected - name.len() - varint_len(name.len() as u64) + varint_len(code);
        }
    }
    assert!(codes.len() > 128, "{} vocabulary strings", codes.len());
    assert!(codes.keys().any(|name| name.len() >= 128), "a name has a two-byte length");
    eprintln!(
        "{RECORDS} records, {} vocabulary strings: canonical {canonical} B \
         ({:.1} B/record), resident {} B ({:.1} B/record)",
        codes.len(),
        canonical as f64 / RECORDS as f64,
        index.record_bytes(),
        index.record_bytes() as f64 / RECORDS as f64,
    );
    assert_eq!(index.record_bytes(), expected);
    for record in corpus.iter().step_by(97) {
        assert_eq!(index.get(record.id).as_ref(), Some(record));
    }
}
