//! Counted gate for the resident record table: a record is resident as
//! its canonical encoding without its id and its parents' ids (the
//! ancestry graph holds them), with each vocabulary string (attribute
//! name, tool name, tool version, tool parameter name) and each `Str`
//! value whose string the vocabulary holds replaced by the varint of its
//! code, and by nothing else.
//!
//! Over a fixed corpus of 4000 records whose vocabulary holds more than
//! 128 distinct strings (so later codes take two bytes, and some names
//! are long enough for a two-byte length varint), the index's
//! `record_bytes` must equal exactly the sum of the canonical lengths,
//! less 16 bytes per id, less each coded string's bytes and length
//! varint, plus its code varint. The reference numbers strings as the
//! index does: names as records are pushed, each record's in encoding
//! order; a value's string when an attribute pair repeats, at the push
//! of the repeat when both records are in one delta and at the merge of
//! the later delta otherwise. A last family of records whose string
//! values are all distinct must leave the vocabulary as it was. The
//! figure depends on the corpus and the codec only.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code asserts by panicking

use pass_model::codec::{varint_len, Encode};
use pass_model::{
    Annotation, Digest128, ProvenanceBuilder, ProvenanceRecord, SiteId, Timestamp, ToolDescriptor,
    TupleSetId, Value,
};
use pass_query::RecordIndex;
use std::collections::{BTreeMap, BTreeSet, HashMap};

const RECORDS: usize = 4_000;
const FIELDS: usize = 150;
const DISTINCT: usize = 500;

const DOMAINS: [&str; 3] = ["traffic", "weather", "medical"];

/// Record `i`: a fixed schema, one of [`FIELDS`] sensor fields, a long
/// calibration name on every tenth, a lot on every 250th (each lot once
/// per delta of 1000, so it joins the vocabulary at a merge), and every
/// third derived by one of five tools with two parameters, one a string
/// that repeats the domains, and every ninth by a second tool too.
fn record(i: usize) -> ProvenanceRecord {
    let mut builder = ProvenanceBuilder::new(SiteId(1), Timestamp(i as u64))
        .attr("domain", DOMAINS[i % 3])
        .attr("region", format!("region-{}", i % 17))
        .attr(format!("field.{}", i % FIELDS), i as i64)
        .attr("température", 20i64);
    if i.is_multiple_of(10) {
        builder = builder.attr(format!("calibration.{}", "x".repeat(130 + i % 7)), true);
    }
    if i.is_multiple_of(250) {
        builder = builder.attr("lot", format!("lot-{}", i % 1000));
    }
    if i.is_multiple_of(3) {
        let tool = ToolDescriptor::new(format!("tool-{}", i % 5), format!("1.{}", i % 4))
            .with_param(format!("window.{}", i % 6), 60i64)
            .with_param("source", DOMAINS[(i / 3) % 3]);
        builder = builder.derived_from(TupleSetId(i as u128 + 1_000_000), tool);
        if i.is_multiple_of(9) {
            builder = builder
                .derived_from(TupleSetId(i as u128 + 2_000_000), ToolDescriptor::new("merge", "2"));
        }
    }
    let mut record = builder.build(Digest128::of(&(i as u64).to_be_bytes()));
    if i.is_multiple_of(7) {
        record.annotate(Annotation::new(Timestamp(1), "ops", "checked"));
    }
    record
}

/// Record `i` of the distinct family: known names, string values no
/// other record holds.
fn distinct(i: usize) -> ProvenanceRecord {
    ProvenanceBuilder::new(SiteId(2), Timestamp(i as u64))
        .attr("domain", format!("survey-{i}"))
        .attr("region", format!("parcel-{i}"))
        .build(Digest128::of(&((1u64 << 40) + i as u64).to_be_bytes()))
}

/// The reference vocabulary: each string's code, and the record
/// attribute pairs the index holds.
#[derive(Default)]
struct Reference {
    codes: HashMap<String, u64>,
    held: BTreeSet<(String, Value)>,
}

impl Reference {
    fn intern(&mut self, text: &str) -> u64 {
        let next = self.codes.len() as u64;
        *self.codes.entry(text.to_owned()).or_insert(next)
    }

    /// `len` with `text` written as its code, interned when `join`.
    fn code(&mut self, len: usize, text: &str, join: bool) -> usize {
        let code = match self.codes.get(text) {
            Some(&code) => code,
            None if join => self.intern(text),
            None => return len,
        };
        len - text.len() - varint_len(text.len() as u64) + varint_len(code)
    }

    /// `len` with `value` written as the index writes it.
    fn value(&mut self, len: usize, value: &Value, join: bool) -> usize {
        match value {
            Value::Str(text) => self.code(len, text, join),
            _ => len,
        }
    }

    /// The resident length of `record`, pushed into a delta whose
    /// earlier records hold `pairs`, which it joins.
    fn push(
        &mut self,
        record: &ProvenanceRecord,
        pairs: &mut BTreeMap<(String, Value), usize>,
    ) -> usize {
        let ids = TupleSetId::WIDTH * (1 + record.ancestry.len());
        let mut len = record.encode_to_vec().len() - ids;
        for (name, value) in record.attributes.iter() {
            len = self.code(len, name, true);
            let repeated = pairs.contains_key(&(name.to_owned(), value.clone()));
            len = self.value(len, value, repeated);
        }
        for d in &record.ancestry {
            len = self.code(len, &d.tool.name, true);
            len = self.code(len, &d.tool.version, true);
            for (name, value) in d.tool.params.iter() {
                len = self.code(len, name, true);
                len = self.value(len, value, false);
            }
        }
        for (name, value) in record.attributes.iter() {
            *pairs.entry((name.to_owned(), value.clone())).or_default() += 1;
        }
        len
    }

    /// Merges a delta's pairs: a string value held once in it, uncoded,
    /// joins when the index held its pair already, in the index's order
    /// (by the name's code, then by value).
    fn merge(&mut self, pairs: BTreeMap<(String, Value), usize>) {
        let mut joining: Vec<(u64, String)> = pairs
            .iter()
            .filter(|(pair, &count)| count == 1 && self.held.contains(*pair))
            .filter_map(|((name, value), _)| Some((self.codes[name], value.as_str()?.to_owned())))
            .filter(|(_, text)| !self.codes.contains_key(text))
            .collect();
        joining.sort();
        for (_, text) in joining {
            self.intern(&text);
        }
        self.held.extend(pairs.into_keys());
    }
}

/// Inserts `records` in deltas of 1000 and returns the reference's
/// total resident length for them.
fn insert(
    index: &mut RecordIndex,
    reference: &mut Reference,
    records: &[ProvenanceRecord],
) -> usize {
    let mut expected = 0;
    for chunk in records.chunks(1_000) {
        let mut delta = index.delta(chunk.len());
        let mut pairs = BTreeMap::new();
        for record in chunk {
            delta.push(record);
            expected += reference.push(record, &mut pairs);
        }
        index.insert_delta(&mut delta);
        reference.merge(pairs);
    }
    expected
}

#[test]
fn resident_bytes_are_canonical_bytes_without_ids_with_codes_for_strings() {
    let corpus: Vec<ProvenanceRecord> = (0..RECORDS).map(record).collect();
    let mut index = RecordIndex::new();
    let mut reference = Reference::default();
    let expected = insert(&mut index, &mut reference, &corpus);
    assert_eq!(index.len(), RECORDS);

    let canonical: usize = corpus.iter().map(|r| r.encode_to_vec().len()).sum();
    let strings = reference.codes.len();
    assert!(strings > 128, "{strings} vocabulary strings");
    assert!(reference.codes.keys().any(|name| name.len() >= 128), "a name has a two-byte length");
    for value in DOMAINS.iter().chain(&["region-0", "region-16", "lot-0", "lot-750"]) {
        assert!(reference.codes.contains_key(*value), "{value} repeats, so it has a code");
    }
    eprintln!(
        "{RECORDS} records, {strings} vocabulary strings: canonical {canonical} B \
         ({:.1} B/record), resident {} B ({:.1} B/record)",
        canonical as f64 / RECORDS as f64,
        index.record_bytes(),
        index.record_bytes() as f64 / RECORDS as f64,
    );
    assert_eq!(index.vocabulary_len(), strings);
    assert_eq!(index.record_bytes(), expected);
    for record in corpus.iter().step_by(97) {
        assert_eq!(index.get(record.id).as_ref(), Some(record));
    }

    let family: Vec<ProvenanceRecord> = (0..DISTINCT).map(distinct).collect();
    let expected = expected + insert(&mut index, &mut reference, &family);
    assert_eq!(index.vocabulary_len(), strings, "distinct values never join the vocabulary");
    assert_eq!(index.record_bytes(), expected);
    for record in family.iter().step_by(37) {
        assert_eq!(index.get(record.id).as_ref(), Some(record));
    }
}
