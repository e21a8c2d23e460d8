//! Integration tests for the local PASS: the four §V properties, atomic
//! crash behaviour, and query semantics end to end.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code asserts by panicking

use pass_core::{keyspace, Pass, PassConfig, PassError};
use pass_index::{Direction, TraverseOpts};
use pass_model::{
    keys, Annotation, Attributes, ProvenanceBuilder, ProvenanceRecord, Reading, SensorId, SiteId,
    Timestamp, ToolDescriptor, TupleSet, TupleSetId,
};
use pass_query::Counted;
use pass_storage::tempdir::TempDir;
use pass_storage::{EngineOptions, KvStore, LsmEngine, StorageError};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

fn readings(sensor: u64, n: usize, base_ms: u64) -> Vec<Reading> {
    (0..n)
        .map(|i| {
            Reading::new(SensorId(sensor), Timestamp(base_ms + i as u64 * 10))
                .with("value", i as i64)
        })
        .collect()
}

/// The resident length of a record in a store of fewer than 128
/// vocabulary strings: its canonical length without its id and its
/// parents' ids, with each attribute name, tool name, tool version and
/// tool parameter name, and each string attribute value listed in
/// `coded`, written as a one-byte code instead of its length varint and
/// bytes.
fn resident_len(record: &ProvenanceRecord, coded: &[&str]) -> usize {
    let mut names: Vec<&str> = record.attributes.names().collect();
    for d in &record.ancestry {
        names.extend([d.tool.name.as_str(), d.tool.version.as_str()]);
        names.extend(d.tool.params.names());
    }
    let values = record.attributes.iter().filter_map(|(_, value)| value.as_str());
    names.extend(values.filter(|value| coded.contains(value)));
    let ids = TupleSetId::WIDTH * (1 + record.ancestry.len());
    let len = pass_model::codec::Encode::encode_to_vec(record).len() - ids;
    names.iter().fold(len, |len, name| {
        len - name.len() - pass_model::codec::varint_len(name.len() as u64) + 1
    })
}

fn traffic_attrs(region: &str) -> Attributes {
    Attributes::new()
        .with(keys::DOMAIN, "traffic")
        .with(keys::REGION, region)
        .with(keys::TYPE, "car_sighting")
}

/// Builds a small three-generation store: raw → filtered → aggregated.
fn populated() -> (Pass, TupleSetId, TupleSetId, TupleSetId) {
    let pass = Pass::open_memory(SiteId(1));
    let raw = pass
        .capture(
            traffic_attrs("london")
                .with(keys::TIME_START, Timestamp(0))
                .with(keys::TIME_END, Timestamp(100)),
            readings(1, 20, 0),
            Timestamp(100),
        )
        .unwrap();
    let filtered = pass
        .derive(
            &[raw],
            &ToolDescriptor::new("filter", "1.0"),
            traffic_attrs("london"),
            readings(1, 10, 0),
            Timestamp(200),
        )
        .unwrap();
    let aggregated = pass
        .derive(
            &[filtered],
            &ToolDescriptor::new("aggregate", "2.1"),
            traffic_attrs("london").with("window_ms", 3_600_000i64),
            readings(1, 2, 0),
            Timestamp(300),
        )
        .unwrap();
    (pass, raw, filtered, aggregated)
}

// ---------------------------------------------------------------------------
// PASS property 1: provenance is a first-class object
// ---------------------------------------------------------------------------

#[test]
fn records_are_independent_of_data() {
    let (pass, raw, ..) = populated();
    let record = pass.get_record(raw).unwrap();
    assert_eq!(record.attributes.get_str(keys::DOMAIN), Some("traffic"));
    // The record is retrievable without touching data, and vice versa.
    let data = pass.get_data(raw).unwrap().unwrap();
    assert_eq!(data.len(), 20);
}

// ---------------------------------------------------------------------------
// PASS property 2: provenance can be queried
// ---------------------------------------------------------------------------

#[test]
fn attribute_and_tool_queries() {
    let (pass, _raw, filtered, aggregated) = populated();
    let hits = pass.query_text(r#"FIND WHERE tool.name = "aggregate""#).unwrap();
    assert_eq!(hits.ids(), vec![aggregated]);
    let hits = pass.query_text(r#"FIND WHERE domain = "traffic" AND HAS window_ms"#).unwrap();
    assert_eq!(hits.ids(), vec![aggregated]);
    let hits = pass.query_text(r#"FIND WHERE tool.name = "filter""#).unwrap();
    assert_eq!(hits.ids(), vec![filtered]);
}

#[test]
fn lineage_queries_both_directions() {
    let (pass, raw, filtered, aggregated) = populated();
    let anc = pass.lineage(aggregated, Direction::Ancestors, TraverseOpts::unbounded()).unwrap();
    let mut ids: Vec<_> = anc.iter().map(|r| r.id).collect();
    ids.sort();
    let mut want = vec![raw, filtered];
    want.sort();
    assert_eq!(ids, want);

    let desc = pass.lineage(raw, Direction::Descendants, TraverseOpts::unbounded()).unwrap();
    assert_eq!(desc.len(), 2);
}

#[test]
fn lineage_query_via_text_language() {
    let (pass, raw, ..) = populated();
    let q = format!("FIND DESCENDANTS OF ts:{} WITH SELF", raw.full_hex());
    let hits = pass.query_text(&q).unwrap();
    assert_eq!(hits.records.len(), 3);
}

#[test]
fn annotation_queries() {
    let (pass, raw, ..) = populated();
    pass.annotate(raw, Annotation::new(Timestamp(500), "ops", "sensor 1 replaced with mk2"))
        .unwrap();
    let hits = pass.query_text(r#"FIND WHERE ANNOTATION CONTAINS "replaced mk2""#).unwrap();
    assert_eq!(hits.ids(), vec![raw]);
    // Annotation did not change identity.
    assert!(pass.get_record(raw).unwrap().verify_identity());
}

#[test]
fn time_overlap_queries() {
    let (pass, raw, ..) = populated();
    let hits = pass.query_text("FIND WHERE time OVERLAPS [50, 60]").unwrap();
    assert_eq!(hits.ids(), vec![raw], "only raw declared a time window");
    let hits = pass.query_text("FIND WHERE time OVERLAPS [101, 200]").unwrap();
    assert!(hits.records.is_empty());
}

// ---------------------------------------------------------------------------
// PASS property 3: nonidentical data ⇒ nonidentical provenance
// ---------------------------------------------------------------------------

#[test]
fn identical_captures_share_identity_distinct_data_does_not() {
    let pass = Pass::open_memory(SiteId(1));
    let a = pass.capture(traffic_attrs("x"), readings(1, 5, 0), Timestamp(10)).unwrap();
    // Same attrs, same data, same time: the same tuple set — idempotent.
    let b = pass.capture(traffic_attrs("x"), readings(1, 5, 0), Timestamp(10)).unwrap();
    assert_eq!(a, b);
    assert_eq!(pass.len(), 1);
    // Different data: different identity.
    let c = pass.capture(traffic_attrs("x"), readings(1, 6, 0), Timestamp(10)).unwrap();
    assert_ne!(a, c);
    assert_eq!(pass.len(), 2);
}

#[test]
fn forged_records_are_rejected() {
    let pass = Pass::open_memory(SiteId(1));
    let rs = readings(1, 3, 0);
    let record = ProvenanceBuilder::new(SiteId(1), Timestamp(5))
        .attr("domain", "traffic")
        .build(TupleSet::content_digest_of(&rs));

    // Tamper with attributes after identity was minted.
    let mut forged = record.clone();
    forged.attributes.set("domain", "weather");
    let ts = TupleSet::new_unchecked(forged, rs.clone());
    assert!(matches!(pass.ingest(&ts), Err(PassError::Model(_))));

    // Correct record with wrong data.
    let ts = TupleSet::new_unchecked(record, readings(9, 4, 0));
    assert!(matches!(pass.ingest(&ts), Err(PassError::Model(_))));
}

// ---------------------------------------------------------------------------
// PASS property 4: provenance survives ancestor removal
// ---------------------------------------------------------------------------

#[test]
fn removing_ancestor_data_preserves_lineage() {
    let (pass, raw, filtered, aggregated) = populated();
    assert!(pass.remove_data(raw).unwrap());
    assert!(!pass.has_data(raw));
    // Record survives; data does not.
    assert!(pass.get_record(raw).is_some());
    assert_eq!(pass.get_data(raw).unwrap(), None);
    assert_eq!(pass.get_tuple_set(raw).unwrap(), None);
    // Lineage from the leaf still reaches the removed ancestor.
    let anc = pass.lineage(aggregated, Direction::Ancestors, TraverseOpts::unbounded()).unwrap();
    let ids: Vec<_> = anc.iter().map(|r| r.id).collect();
    assert!(ids.contains(&raw), "removed ancestor still named in lineage");
    assert!(ids.contains(&filtered));
    // Second removal is a no-op, unknown id errors.
    assert!(!pass.remove_data(raw).unwrap());
    assert!(matches!(pass.remove_data(TupleSetId(42)), Err(PassError::NotFound(_))));
}

#[test]
fn queries_still_match_removed_data_records() {
    let (pass, raw, ..) = populated();
    pass.remove_data(raw).unwrap();
    let hits = pass.query_text(r#"FIND WHERE domain = "traffic""#).unwrap();
    assert_eq!(hits.records.len(), 3, "record of removed data still queryable");
}

// ---------------------------------------------------------------------------
// Durability & crash consistency
// ---------------------------------------------------------------------------

#[test]
fn disk_store_reopens_with_full_state() {
    let dir = TempDir::new("core-reopen");
    let (raw, derived);
    {
        let pass = Pass::open(PassConfig::disk(SiteId(4), dir.path())).unwrap();
        raw = pass.capture(traffic_attrs("boston"), readings(1, 8, 0), Timestamp(10)).unwrap();
        derived = pass
            .derive(
                &[raw],
                &ToolDescriptor::new("clean", "0.9"),
                traffic_attrs("boston"),
                readings(1, 4, 0),
                Timestamp(20),
            )
            .unwrap();
        pass.annotate(raw, Annotation::new(Timestamp(30), "ops", "calibration drift noted"))
            .unwrap();
        pass.remove_data(derived).unwrap();
        pass.flush().unwrap();
    }
    let pass = Pass::open(PassConfig::disk(SiteId(4), dir.path())).unwrap();
    assert_eq!(pass.len(), 2);
    assert!(pass.has_data(raw));
    assert!(!pass.has_data(derived), "data removal survived reopen");
    let rec = pass.get_record(raw).unwrap();
    assert_eq!(rec.annotations.len(), 1, "annotation survived reopen");
    let hits = pass.query_text(r#"FIND WHERE ANNOTATION CONTAINS "calibration""#).unwrap();
    assert_eq!(hits.ids(), vec![raw]);
    let anc = pass.lineage(derived, Direction::Ancestors, TraverseOpts::unbounded()).unwrap();
    assert_eq!(anc[0].id, raw);
    assert!(pass.verify_consistency().unwrap().is_consistent());
}

/// Everything a store answers about `ids`: each record, whether its
/// readings are present, its lineage both ways, and a few queries.
fn answers(pass: &Pass, ids: &[TupleSetId]) -> Vec<String> {
    let mut out: Vec<String> = ids
        .iter()
        .map(|&id| {
            let lineage = |direction| {
                let mut got: Vec<TupleSetId> = pass
                    .lineage(id, direction, TraverseOpts::unbounded())
                    .map(|records| records.iter().map(|r| r.id).collect())
                    .unwrap_or_default();
                got.sort_unstable();
                got
            };
            format!(
                "{id}: {:?} data {} ancestors {:?} descendants {:?}",
                pass.get_record(id),
                pass.has_data(id),
                lineage(Direction::Ancestors),
                lineage(Direction::Descendants),
            )
        })
        .collect();
    for text in [
        r#"FIND WHERE domain = "traffic""#,
        r#"FIND WHERE tool.name = "merge""#,
        r#"FIND WHERE region = "parcel""#,
        "FIND WHERE level >= 2 ORDER BY created DESC",
        r#"FIND WHERE ANNOTATION CONTAINS "audited""#,
    ] {
        let mut hits = pass.query_text(text).unwrap().ids();
        if !text.contains("ORDER BY") {
            hits.sort_unstable();
        }
        out.push(format!("{text}: {hits:?}"));
    }
    let stats = pass.stats();
    out.push(format!(
        "records {} data {} nodes {} edges {}",
        stats.records, stats.data_blobs, stats.graph_nodes, stats.graph_edges
    ));
    out
}

/// The reopen scans records in key order and numbers the ids with
/// readings first: a parent that sorts after its child must still
/// come back with the same lineage, the same postings and the same data
/// bits, also when it is a bare record, a cross-site parent or a record
/// whose readings were removed.
#[test]
fn reopen_with_children_sorting_before_parents_answers_as_before() {
    let dir = TempDir::new("core-reopen-order");
    let (ids, before) = {
        let pass = Pass::open(PassConfig::disk(SiteId(5), dir.path())).unwrap();
        let mut ids: Vec<TupleSetId> = (0..24)
            .map(|i| {
                let attrs = traffic_attrs(["london", "parcel"][i % 2]).with("level", 0i64);
                pass.capture(attrs, readings(i as u64, 3, 0), Timestamp(i as u64)).unwrap()
            })
            .collect();
        // Three levels of merges over earlier sets; most pick a parent
        // whose key sorts after their own.
        let mut children_first = 0;
        for level in 1..=3i64 {
            for i in 0..8usize {
                let at = Timestamp(100 * level as u64 + i as u64);
                let parents = [ids[ids.len() - 1 - i], ids[(i * 5) % ids.len()]];
                let attrs = traffic_attrs("london").with("level", level);
                let id = pass
                    .derive(
                        &parents,
                        &ToolDescriptor::new("merge", "1"),
                        attrs,
                        readings(9, 2, 0),
                        at,
                    )
                    .unwrap();
                children_first += parents.iter().filter(|&&parent| parent > id).count();
                ids.push(id);
            }
        }
        assert!(children_first > 8, "{children_first} parents sort after their child");
        // A bare record between a foreign parent and a stored one, and a
        // child of it: a stored parent with no marker.
        let bare = ProvenanceBuilder::new(SiteId(9), Timestamp(900))
            .attr(keys::DOMAIN, "traffic")
            .attr("level", 4i64)
            .derived_from(TupleSetId(u128::MAX), ToolDescriptor::new("merge", "1"))
            .derived_from(ids[30], ToolDescriptor::new("merge", "1"))
            .build(pass_model::Digest128::of(b"bare"));
        pass.ingest_record(&bare).unwrap();
        let above = pass
            .derive(
                &[bare.id, ids[3]],
                &ToolDescriptor::new("merge", "1"),
                traffic_attrs("parcel").with("level", 5i64),
                readings(10, 2, 0),
                Timestamp(901),
            )
            .unwrap();
        ids.extend([bare.id, above, TupleSetId(u128::MAX)]);
        pass.remove_data(ids[5]).unwrap();
        pass.remove_data(ids[40]).unwrap();
        pass.annotate(ids[33], Annotation::new(Timestamp(950), "ops", "audited twice")).unwrap();
        pass.flush().unwrap();
        let before = answers(&pass, &ids);
        (ids, before)
    };
    let pass = Pass::open(PassConfig::disk(SiteId(5), dir.path())).unwrap();
    assert_eq!(answers(&pass, &ids), before);
    assert!(pass.verify_consistency().unwrap().is_consistent());
}

#[test]
fn torn_wal_never_splits_record_from_data() {
    let dir = TempDir::new("core-torn");
    {
        let pass = Pass::open(PassConfig::disk(SiteId(1), dir.path())).unwrap();
        pass.capture(traffic_attrs("a"), readings(1, 3, 0), Timestamp(10)).unwrap();
        pass.capture(traffic_attrs("b"), readings(2, 3, 0), Timestamp(20)).unwrap();
        // Drop without flush: everything lives in the WAL.
    }
    let wal = dir.path().join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    // Truncate at every byte boundary; the store must always reopen with
    // a consistent prefix — a record implies its data and marker.
    for cut in (0..bytes.len()).step_by(7) {
        std::fs::write(&wal, &bytes[..cut]).unwrap();
        let pass = Pass::open(PassConfig::disk(SiteId(1), dir.path())).unwrap();
        let report = pass.verify_consistency().unwrap();
        assert!(report.is_consistent(), "cut at {cut}: {report:?}");
        assert!(pass.len() <= 2);
        for id in pass.ids() {
            assert!(pass.has_data(id), "cut at {cut}: record without data");
        }
        drop(pass);
        std::fs::write(&wal, &bytes).unwrap();
    }
}

/// A flipped byte in an interior record block must fail the engine's
/// range scan and the store's open with `ChecksumMismatch` — a streaming
/// scan that stopped early would hand back fewer records instead.
#[test]
fn corrupt_interior_record_block_fails_scan_and_open() {
    let dir = TempDir::new("core-corrupt-scan");
    let mut ids = {
        let pass = Pass::open(PassConfig::disk(SiteId(1), dir.path())).unwrap();
        let ids = pass
            .capture_batch((0..400u64).map(|i| {
                (traffic_attrs("oslo").with("n", i as i64), readings(i, 4, 0), Timestamp(i))
            }))
            .unwrap();
        pass.flush().unwrap();
        ids
    };
    let tables: Vec<_> = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "sst"))
        .collect();
    assert_eq!(tables.len(), 1, "one flushed table: {tables:?}");
    // Records sort by key; corrupt the value of the middle one, far from
    // the first and last record block.
    ids.sort_by_key(|id| keyspace::key(keyspace::RECORD, *id));
    let key = keyspace::key(keyspace::RECORD, ids[ids.len() / 2]);
    let mut bytes = std::fs::read(&tables[0]).unwrap();
    let at = bytes.windows(key.len()).position(|w| w == key).unwrap();
    bytes[at + key.len() + 8] ^= 0xff;
    std::fs::write(&tables[0], &bytes).unwrap();

    let engine = LsmEngine::open(dir.path(), EngineOptions::default()).unwrap();
    let quarter = keyspace::key(keyspace::RECORD, ids[ids.len() / 4]);
    let head = engine.scan_range(&[keyspace::RECORD], Some(&quarter)).unwrap();
    assert_eq!(head.len(), ids.len() / 4, "blocks before the damage still read");
    let err = engine.scan_prefix(&[keyspace::RECORD]).unwrap_err();
    assert!(matches!(err, StorageError::ChecksumMismatch { .. }), "{err}");
    drop(engine);
    let err = Pass::open(PassConfig::disk(SiteId(1), dir.path())).unwrap_err();
    assert!(matches!(err, PassError::Storage(StorageError::ChecksumMismatch { .. })), "{err}");
}

// ---------------------------------------------------------------------------
// Abstraction boundaries (§V, experiment E16)
// ---------------------------------------------------------------------------

#[test]
fn abstracted_toolchain_collapses_in_lineage() {
    let pass = Pass::open_memory(SiteId(1));
    // Model gcc's own provenance as a chain of tuple sets.
    let gcc_src = pass
        .capture(Attributes::new().with("domain", "toolchain"), readings(9, 1, 0), Timestamp(1))
        .unwrap();
    let gcc_bin = pass
        .derive(
            &[gcc_src],
            &ToolDescriptor::new("bootstrap", "1"),
            Attributes::new().with("domain", "toolchain"),
            readings(9, 1, 10),
            Timestamp(2),
        )
        .unwrap();
    // Analysis output depends on raw data (concrete) and gcc (abstracted).
    let raw = pass.capture(traffic_attrs("x"), readings(1, 4, 0), Timestamp(3)).unwrap();
    let result_attrs = Attributes::new().with("domain", "analysis");
    let mut builder = ProvenanceBuilder::new(SiteId(1), Timestamp(4)).attrs(&result_attrs);
    builder = builder.derived_from(raw, ToolDescriptor::new("analyze", "3"));
    builder = builder.derived_from(gcc_bin, ToolDescriptor::abstracted("gcc", "3.3.3"));
    let rs = readings(1, 1, 50);
    let record = builder.build(TupleSet::content_digest_of(&rs));
    let result = pass.ingest(&TupleSet::new(record, rs).unwrap()).unwrap();

    // Full lineage sees the whole toolchain.
    let full = pass.lineage(result, Direction::Ancestors, TraverseOpts::unbounded()).unwrap();
    assert_eq!(full.len(), 3);
    // Abstracted lineage reports only the data ancestry; "gcc 3.3.3"
    // remains readable on the derivation record itself.
    let abstracted = pass
        .lineage(
            result,
            Direction::Ancestors,
            TraverseOpts { stop_at_abstraction: true, ..TraverseOpts::default() },
        )
        .unwrap();
    let ids: Vec<_> = abstracted.iter().map(|r| r.id).collect();
    assert_eq!(ids, vec![raw]);
    let record = pass.get_record(result).unwrap();
    let gcc_edge = record.ancestry.iter().find(|d| d.tool.name == "gcc").unwrap();
    assert_eq!(gcc_edge.tool.label(), "gcc v3.3.3");
}

#[test]
fn annotated_and_merged_records_reopen_unchanged() {
    let dir = TempDir::new("core-resident-bytes");
    let (ids, before, record_bytes) = {
        let pass = Pass::open(PassConfig::disk(SiteId(4), dir.path())).unwrap();
        let raw = pass.capture(traffic_attrs("boston"), readings(1, 8, 0), Timestamp(10)).unwrap();
        let derived = pass
            .derive(
                &[raw, raw],
                &ToolDescriptor::new("clean", "0.9"),
                traffic_attrs("boston"),
                readings(1, 4, 0),
                Timestamp(20),
            )
            .unwrap();
        pass.annotate(raw, Annotation::new(Timestamp(30), "ops", "calibration drift noted"))
            .unwrap();
        // The archive merge on a stored record: its annotations union in.
        let mut replica = pass.get_record(derived).unwrap();
        replica.annotate(Annotation::new(Timestamp(40), "hub", "checked upstream"));
        pass.ingest_record(&replica).unwrap();
        // The archive merge on a new record, annotated afterwards.
        let bare = ProvenanceBuilder::new(SiteId(9), Timestamp(50))
            .attr(keys::DOMAIN, "traffic")
            .derived_from(derived, ToolDescriptor::new("rollup", "1"))
            .build(pass_model::Digest128::of(b"elsewhere"));
        pass.ingest_record(&bare).unwrap();
        pass.annotate(bare.id, Annotation::new(Timestamp(60), "ops", "readings archived")).unwrap();
        let ids = [raw, derived, bare.id];
        let before: Vec<ProvenanceRecord> =
            ids.iter().map(|id| pass.get_record(*id).unwrap()).collect();
        let annotations: Vec<usize> = before.iter().map(|r| r.annotations.len()).collect();
        assert_eq!(annotations, [1, 1, 1]);
        // The second record's merge put its repeated values in the
        // vocabulary, and every record was written again after it (an
        // annotation rewrites a record): each value is a code.
        let coded = ["traffic", "boston", "car_sighting"];
        let record_bytes = pass.stats().record_bytes;
        assert_eq!(record_bytes, before.iter().map(|r| resident_len(r, &coded)).sum::<usize>());
        (ids, before, record_bytes)
    };
    let pass = Pass::open(PassConfig::disk(SiteId(4), dir.path())).unwrap();
    let after: Vec<ProvenanceRecord> = ids.iter().map(|id| pass.get_record(*id).unwrap()).collect();
    assert_eq!(after, before);
    // The reopen pushes the records in key order into one delta: a value
    // is a code in each record after the first that holds its attribute.
    let mut in_key_order: Vec<&ProvenanceRecord> = after.iter().collect();
    in_key_order.sort_by_key(|r| r.id);
    let mut held = HashSet::new();
    let reopened: usize = in_key_order
        .iter()
        .map(|r| {
            let coded: Vec<&str> = r
                .attributes
                .iter()
                .filter(|pair| !held.insert(*pair))
                .filter_map(|(_, value)| value.as_str())
                .collect();
            resident_len(r, &coded)
        })
        .sum();
    assert_eq!(pass.stats().record_bytes, reopened);
    assert!(reopened > record_bytes, "the first holder of each value spells it out");
    assert_eq!(pass.stats().data_blobs, 2, "the bare record has no readings");
    let hits = pass.query_text(r#"FIND WHERE ANNOTATION CONTAINS "upstream""#).unwrap();
    assert_eq!(hits.ids(), vec![ids[1]]);
}

#[test]
fn the_audit_compares_each_stored_record_with_its_resident_copy() {
    let store = Arc::new(pass_storage::MemEngine::new());
    let pass = Pass::open_with_store(store.clone(), PassConfig::memory(SiteId(2))).unwrap();
    let raw = pass.capture(traffic_attrs("boston"), readings(1, 4, 0), Timestamp(10)).unwrap();
    pass.capture(traffic_attrs("paris"), readings(2, 4, 0), Timestamp(20)).unwrap();
    assert!(pass.verify_consistency().unwrap().is_consistent());
    // Annotations are outside identity: the rewritten record still
    // verifies, but the index still holds the record without the note.
    let mut changed = pass.get_record(raw).unwrap();
    changed.annotate(Annotation::new(Timestamp(30), "ops", "written past the index"));
    let mut batch = pass_storage::WriteBatch::new();
    batch.put(
        keyspace::key(keyspace::RECORD, raw).to_vec(),
        pass_model::codec::Encode::encode_to_vec(&changed),
    );
    store.apply(batch).unwrap();
    let report = pass.verify_consistency().unwrap();
    assert_eq!(report.resident_mismatches, vec![raw]);
    assert!(report.identity_failures.is_empty());
    assert!(!report.is_consistent());
}

// ---------------------------------------------------------------------------
// Stats & misc
// ---------------------------------------------------------------------------

#[test]
fn stats_reflect_activity() {
    let (pass, raw, filtered, aggregated) = populated();
    pass.query_text("FIND").unwrap();
    let stats = pass.stats();
    assert_eq!(stats.records, 3);
    assert_eq!(stats.data_blobs, 3);
    assert_eq!(stats.graph_nodes, 3);
    assert_eq!(stats.graph_edges, 2);
    assert!(stats.attr_entries > 0);
    assert!(stats.index_bytes > 0);
    // Each record is its own delta: the second's merge puts the three
    // string values it repeats in the vocabulary, and the third codes
    // them.
    let coded = [&[][..], &[][..], &["traffic", "london", "car_sighting"][..]];
    let resident: usize = [raw, filtered, aggregated]
        .iter()
        .zip(coded)
        .map(|(id, coded)| resident_len(&pass.get_record(*id).unwrap(), coded))
        .sum();
    assert_eq!(stats.record_bytes, resident);
    assert_eq!(stats.ingests, 3);
    assert!(stats.queries >= 1);
}

#[test]
fn unknown_ids_error_cleanly() {
    let pass = Pass::open_memory(SiteId(1));
    assert!(pass.get_record(TupleSetId(1)).is_none());
    assert!(pass.get_data(TupleSetId(1)).unwrap().is_none());
    assert!(matches!(
        pass.lineage(TupleSetId(1), Direction::Ancestors, TraverseOpts::unbounded()),
        Err(PassError::NotFound(_))
    ));
    assert!(matches!(
        pass.annotate(TupleSetId(1), Annotation::new(Timestamp(0), "a", "b")),
        Err(PassError::NotFound(_))
    ));
}

#[test]
fn cross_site_parents_are_queryable_as_placeholders() {
    // A derivation whose parent lives at another site: lineage knows the
    // id even though the record is absent locally.
    let pass = Pass::open_memory(SiteId(2));
    let remote_parent = TupleSetId(0xabcdef);
    let local = pass
        .derive(
            &[remote_parent],
            &ToolDescriptor::new("import", "1"),
            traffic_attrs("remote"),
            readings(1, 1, 0),
            Timestamp(5),
        )
        .unwrap();
    // The closure reaches the placeholder, but no record exists for it,
    // so record-level lineage returns empty — without erroring.
    let anc = pass.lineage(local, Direction::Ancestors, TraverseOpts::unbounded()).unwrap();
    assert!(anc.is_empty());
    let rec = pass.get_record(local).unwrap();
    assert_eq!(rec.parents().collect::<Vec<_>>(), vec![remote_parent]);
}

#[test]
fn range_and_order_queries() {
    let (pass, ..) = populated();
    let hits = pass.query_text("FIND WHERE created_at >= @200 ORDER BY created DESC").unwrap();
    assert_eq!(hits.records.len(), 2);
    assert!(hits.records[0].created_at > hits.records[1].created_at);
    let hits = pass.query_text("FIND WHERE window_ms BETWEEN 0 AND 9999999999").unwrap();
    assert_eq!(hits.records.len(), 1);
}

#[test]
fn explain_shows_plan_shape() {
    let (pass, ..) = populated();
    let hits = pass.query_text(r#"FIND WHERE domain = "traffic" AND NOT HAS window_ms"#).unwrap();
    assert!(hits.stats.plan.contains("index"));
    assert!(hits.stats.plan.contains("recheck"));
    assert_eq!(hits.records.len(), 2);
}

// ---------------------------------------------------------------------------
// The record index behind every read path
// ---------------------------------------------------------------------------

/// An unfiltered lineage page costs O(closure): the closure is its only
/// candidate list, so no page evaluates the whole store.
#[test]
fn unfiltered_lineage_pages_never_evaluate_the_whole_store() {
    let (pass, raw, filtered, aggregated) = populated();
    // Unrelated records, and a foreign parent the closures reach as a
    // placeholder.
    pass.capture_batch((0..50).map(|i| (traffic_attrs("paris"), readings(9, 2, i), Timestamp(i))))
        .unwrap();
    let merged = pass
        .derive(
            &[aggregated, TupleSetId(0xf00d)],
            &ToolDescriptor::new("merge", "1"),
            traffic_attrs("london"),
            readings(7, 2, 0),
            Timestamp(400),
        )
        .unwrap();
    let counting = Counted::new(pass.snapshot());
    for root in [raw, filtered, merged] {
        for base in
            ["ANCESTORS OF ts:{} WITH SELF", "DESCENDANTS OF ts:{} WITH SELF ORDER BY created DESC"]
        {
            let text = format!("FIND {}", base.replace("{}", &root.full_hex()));
            let full = pass_query::execute_text(&text, &counting).unwrap().ids();
            let mut paged: Vec<TupleSetId> = Vec::new();
            loop {
                let mut query = pass_query::parse(&text).unwrap().with_limit(1);
                query.after = paged.last().copied();
                let page = pass_query::execute(&query, &counting).unwrap().ids();
                if page.is_empty() {
                    break;
                }
                paged.extend(page);
            }
            assert_eq!(paged, full, "{text}");
            assert!(!full.is_empty(), "{text}");
        }
    }
    assert_eq!(counting.all_nodes_calls(), 0, "a lineage page scanned the store");
    // The counter does see a whole-store scan.
    pass_query::execute_text(r#"FIND WHERE NOT domain = "weather""#, &counting).unwrap();
    assert_eq!(counting.all_nodes_calls(), 1);
}

const WORDS: &[&str] = &["drift", "recalibrated", "suspect", "verified"];
const DOMAINS: &[&str] = &["traffic", "weather", "medical"];

/// Record number `n`, derived from `parents`.
fn numbered(n: u64, parents: &[TupleSetId], readings: &[Reading]) -> ProvenanceRecord {
    let attrs = Attributes::new()
        .with(keys::DOMAIN, DOMAINS[n as usize % DOMAINS.len()])
        .with(keys::DESCRIPTION, format!("window {}", n % 4))
        .with("count", (n % 5) as i64);
    let mut builder = ProvenanceBuilder::new(SiteId((n % 3) as u32), Timestamp(n)).attrs(&attrs);
    for parent in parents {
        builder = builder.derived_from(*parent, ToolDescriptor::new("aggregate", "1"));
    }
    builder.build(TupleSet::content_digest_of(readings))
}

/// Ids reachable from `root` over the parent links of `records` (root
/// excluded; foreign parents included).
fn brute_closure(
    records: &HashMap<TupleSetId, ProvenanceRecord>,
    root: TupleSetId,
    ancestors: bool,
) -> HashSet<TupleSetId> {
    let (mut seen, mut frontier) = (HashSet::new(), vec![root]);
    while let Some(id) = frontier.pop() {
        let next: Vec<TupleSetId> = match ancestors {
            true => records.get(&id).map(|r| r.parents().collect()).unwrap_or_default(),
            false => {
                records.values().filter(|r| r.parents().any(|p| p == id)).map(|r| r.id).collect()
            }
        };
        frontier.extend(next.into_iter().filter(|n| *n != root && seen.insert(*n)));
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batch ingests, annotations, and record merges (of existing and of
    /// new records) all feed one record index: afterwards keyword,
    /// attribute, and lineage queries equal a brute-force
    /// `Predicate::matches` filter over the snapshot's records.
    #[test]
    fn queries_match_brute_force_after_mixed_writes(
        ops in proptest::collection::vec((0u8..4, any::<u8>(), any::<u8>(), 0usize..4), 1..24),
    ) {
        let pass = Pass::open_memory(SiteId(1));
        let mut ids: Vec<TupleSetId> = Vec::new();
        for (n, (kind, a, b, w)) in (1u64..).zip(ops) {
            let note = Annotation::new(Timestamp(n), "ops", WORDS[w]);
            let pick = ids.get(usize::from(a) % ids.len().max(1)).copied();
            let mut parents: Vec<TupleSetId> = pick.filter(|_| b % 3 != 0).into_iter().collect();
            if b % 4 == 0 {
                parents.push(TupleSetId(0xf00d + u128::from(b % 3)));
            }
            match (kind, pick) {
                (1, Some(id)) => pass.annotate(id, note).unwrap(),
                (2, Some(id)) => {
                    let mut record = pass.get_record(id).unwrap();
                    record.annotate(note);
                    pass.ingest_record(&record).unwrap();
                }
                (3, _) => ids.push(pass.ingest_record(&numbered(n, &parents, &[])).unwrap()),
                _ => {
                    let sets: Vec<TupleSet> = (0..=u64::from(a % 3))
                        .map(|j| {
                            let data = readings(n * 4 + j, 2, 0);
                            TupleSet::new(numbered(n * 4 + j, &parents, &data), data).unwrap()
                        })
                        .collect();
                    ids.extend(pass.ingest_batch(&sets).unwrap());
                }
            }
        }

        let snapshot = pass.snapshot();
        let records: HashMap<TupleSetId, ProvenanceRecord> =
            snapshot.ids().into_iter().map(|id| (id, snapshot.get_record(id).unwrap())).collect();
        let mut texts: Vec<(String, Option<HashSet<TupleSetId>>)> = WORDS
            .iter()
            .chain(&["window 2"])
            .map(|w| format!(r#"FIND WHERE ANNOTATION CONTAINS "{w}""#))
            .chain(DOMAINS.iter().map(|d| format!(r#"FIND WHERE domain = "{d}""#)))
            .chain(
                ["count >= 3", "origin.site = 1", "ancestry.parents >= 1"]
                    .map(|p| format!("FIND WHERE {p}")),
            )
            .map(|text| (text, None))
            .collect();
        for root in [ids.first(), ids.get(ids.len() / 2), ids.last()].into_iter().flatten() {
            for (ancestors, lineage) in [(true, "ANCESTORS"), (false, "DESCENDANTS")] {
                let closure = brute_closure(&records, *root, ancestors);
                let with_self = closure.iter().chain([root]).copied().collect();
                let of = format!("FIND {lineage} OF ts:{}", root.full_hex());
                let drift = format!(r#"{of} WHERE ANNOTATION CONTAINS "drift""#);
                texts.push((drift, Some(closure.clone())));
                texts.push((format!("{of} WITH SELF"), Some(with_self)));
                texts.push((of, Some(closure)));
            }
        }
        for (text, scope) in texts {
            let query = pass_query::parse(&text).unwrap();
            let mut got = snapshot.query(&query).unwrap().ids();
            got.sort();
            let mut want: Vec<TupleSetId> = records
                .values()
                .filter(|r| scope.as_ref().is_none_or(|s| s.contains(&r.id)))
                .filter(|r| query.filter.matches(r))
                .map(|r| r.id)
                .collect();
            want.sort();
            prop_assert_eq!(got, want, "{}", text);
        }
    }
}
