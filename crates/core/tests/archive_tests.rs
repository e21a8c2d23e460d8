//! Archive exchange tests: the §V "merge local PASS installations into
//! globally searchable archives" goal. Content-addressed identity must
//! make merges conflict-free, idempotent, and commutative; annotations
//! union; removed data stays removable yet restorable from archives
//! that still hold it.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code asserts by panicking

use pass_core::{Pass, PassError};
use pass_index::{Direction, TraverseOpts};
use pass_model::{
    Annotation, Attributes, Digest128, ModelError, ProvenanceBuilder, Reading, SensorId, SiteId,
    Timestamp, ToolDescriptor, TupleSet, TupleSetId,
};
use proptest::prelude::*;

fn reading(n: u64) -> Reading {
    Reading::new(SensorId(n), Timestamp(n)).with("v", n as i64)
}

fn capture(pass: &Pass, tag: i64, n: u64) -> TupleSetId {
    pass.capture(
        Attributes::new().with("domain", "traffic").with("tag", tag),
        vec![reading(n)],
        Timestamp(n),
    )
    .expect("capture")
}

fn sorted_ids(pass: &Pass) -> Vec<TupleSetId> {
    let mut ids = pass.ids();
    ids.sort_unstable();
    ids
}

#[test]
fn import_unions_two_stores() {
    // Two replicas of the same logical site (identity covers the origin
    // site, so only same-origin captures can coincide).
    let a = Pass::open_memory(SiteId(1));
    let b = Pass::open_memory(SiteId(1));
    let ia = capture(&a, 1, 10);
    let shared_attrs = Attributes::new().with("domain", "weather");
    let shared_a = a.capture(shared_attrs.clone(), vec![reading(7)], Timestamp(7)).unwrap();
    let shared_b = b.capture(shared_attrs, vec![reading(7)], Timestamp(7)).unwrap();
    assert_eq!(shared_a, shared_b, "same provenance + content ⇒ same name everywhere");
    let ib = capture(&b, 2, 20);

    let stats = b.import_archive(&a.export_archive().unwrap()).unwrap();
    assert_eq!(stats.tuple_sets_added, 1, "only the non-shared record is new");
    assert_eq!(stats.already_present, 1);
    assert!(b.contains(ia) && b.contains(ib) && b.contains(shared_a));
    assert_eq!(b.len(), 3);
    // Imported data is readable, not just the metadata.
    assert_eq!(b.get_data(ia).unwrap().unwrap(), vec![reading(10)]);
}

#[test]
fn import_is_idempotent() {
    let a = Pass::open_memory(SiteId(1));
    let b = Pass::open_memory(SiteId(2));
    for n in 0..5 {
        capture(&a, n, n as u64);
    }
    let archive = a.export_archive().unwrap();
    let first = b.import_archive(&archive).unwrap();
    assert_eq!(first.tuple_sets_added, 5);
    let second = b.import_archive(&archive).unwrap();
    assert_eq!(second.changed(), 0, "re-import is a no-op: {second:?}");
    assert_eq!(second.already_present, 5);
    assert_eq!(b.len(), 5);
}

#[test]
fn a_tuple_set_listed_twice_is_added_once() {
    let a = Pass::open_memory(SiteId(1));
    capture(&a, 1, 1);
    let mut archive = a.export_archive().unwrap();
    archive.tuple_sets.push(archive.tuple_sets[0].clone());
    let b = Pass::open_memory(SiteId(2));
    let stats = b.import_archive(&archive).unwrap();
    assert_eq!(stats.tuple_sets_added, 1, "{stats:?}");
    assert_eq!(stats.already_present, 1, "{stats:?}");
    assert_eq!(stats.changed(), 1);
    assert_eq!(b.len(), 1);
}

#[test]
fn lineage_spans_stores_after_merge() {
    // Site 1 captures raw data; site 2 derives from it (parent not local);
    // merging both into an archive store answers the full closure.
    let site1 = Pass::open_memory(SiteId(1));
    let site2 = Pass::open_memory(SiteId(2));
    let raw = capture(&site1, 1, 1);
    let derived = site2
        .derive(
            &[raw],
            &ToolDescriptor::new("sharpen", "2.0"),
            Attributes::new().with("domain", "traffic"),
            vec![reading(99)],
            Timestamp(99),
        )
        .unwrap();

    let global = Pass::open_memory(SiteId(9));
    global.import_archive(&site1.export_archive().unwrap()).unwrap();
    global.import_archive(&site2.export_archive().unwrap()).unwrap();

    let ancestors =
        global.lineage(derived, Direction::Ancestors, TraverseOpts::unbounded()).unwrap();
    assert_eq!(ancestors.iter().map(|r| r.id).collect::<Vec<_>>(), vec![raw]);
    let descendants =
        global.lineage(raw, Direction::Descendants, TraverseOpts::unbounded()).unwrap();
    assert_eq!(descendants.iter().map(|r| r.id).collect::<Vec<_>>(), vec![derived]);
    // And the merged archive is searchable as one store (§V).
    let hits = global.query_text(r#"FIND WHERE tool.name = "sharpen""#).unwrap();
    assert_eq!(hits.ids(), vec![derived]);
}

#[test]
fn removed_data_merges_as_record_only_and_restores() {
    let a = Pass::open_memory(SiteId(1));
    let id = capture(&a, 1, 42);

    // Mirror the full store first, then remove the data at the origin.
    let mirror = Pass::open_memory(SiteId(2));
    mirror.import_archive(&a.export_archive().unwrap()).unwrap();
    a.remove_data(id).unwrap();

    // The origin's export now carries a bare record…
    let archive = a.export_archive().unwrap();
    assert_eq!((archive.tuple_sets.len(), archive.records_only.len()), (0, 1));

    // …which merges into an empty store as metadata (property 4 travels).
    let fresh = Pass::open_memory(SiteId(3));
    let stats = fresh.import_archive(&archive).unwrap();
    assert_eq!(stats.records_added, 1);
    assert!(fresh.contains(id) && !fresh.has_data(id));

    // And the mirror, which still holds the readings, restores them.
    let stats = a.import_archive(&mirror.export_archive().unwrap()).unwrap();
    assert_eq!(stats.data_restored, 1);
    assert_eq!(a.get_data(id).unwrap().unwrap(), vec![reading(42)]);
}

/// `restore_data` re-attaches removed readings once, and only readings
/// that hash to the record's content digest.
#[test]
fn restore_data_reattaches_only_the_readings_the_record_names() {
    let pass = Pass::open_memory(SiteId(1));
    let id = capture(&pass, 1, 42);
    let original = pass.get_tuple_set(id).unwrap().unwrap();
    assert!(pass.remove_data(id).unwrap());

    let forged = TupleSet::new_unchecked(original.provenance.clone(), vec![reading(43)]);
    let refused = pass.restore_data(&forged);
    assert!(matches!(refused, Err(PassError::Model(ModelError::Invalid(_)))), "{refused:?}");
    assert!(!pass.has_data(id), "refused readings leave the data absent");

    assert!(pass.restore_data(&original).unwrap());
    assert_eq!(pass.get_tuple_set(id).unwrap(), Some(original.clone()));
    assert!(!pass.restore_data(&original).unwrap(), "already present");
}

#[test]
fn restore_data_of_an_unknown_record_is_not_found() {
    let origin = Pass::open_memory(SiteId(1));
    let id = capture(&origin, 1, 42);
    let ts = origin.get_tuple_set(id).unwrap().unwrap();
    let empty = Pass::open_memory(SiteId(1));
    let missing = empty.restore_data(&ts);
    assert!(matches!(missing, Err(PassError::NotFound(got)) if got == id), "{missing:?}");
}

#[test]
fn annotations_union_on_merge() {
    let a = Pass::open_memory(SiteId(1));
    let b = Pass::open_memory(SiteId(1)); // same origin ⇒ same identity
    let attrs = Attributes::new().with("domain", "weather");
    let ia = a.capture(attrs.clone(), vec![reading(5)], Timestamp(5)).unwrap();
    let ib = b.capture(attrs, vec![reading(5)], Timestamp(5)).unwrap();
    assert_eq!(ia, ib);
    a.annotate(ia, Annotation::new(Timestamp(6), "alice", "sensor recalibrated")).unwrap();
    b.annotate(ib, Annotation::new(Timestamp(7), "bob", "gap during storm")).unwrap();

    let stats = b.import_archive(&a.export_archive().unwrap()).unwrap();
    assert_eq!(stats.annotations_merged, 1);
    let record = b.get_record(ib).unwrap();
    assert_eq!(record.annotations.len(), 2);
    // Both annotations are keyword-searchable after the merge.
    assert_eq!(
        b.query_text(r#"FIND WHERE ANNOTATION CONTAINS "recalibrated""#).unwrap().ids(),
        vec![ib]
    );
    assert_eq!(b.query_text(r#"FIND WHERE ANNOTATION CONTAINS "storm""#).unwrap().ids(), vec![ib]);
    // Merging back the other way completes the union symmetrically.
    a.import_archive(&b.export_archive().unwrap()).unwrap();
    assert_eq!(a.get_record(ia).unwrap().annotations.len(), 2);
}

#[test]
fn forged_records_are_rejected() {
    let a = Pass::open_memory(SiteId(1));
    let id = capture(&a, 1, 1);

    // Tampered identity: flip a bit in the id.
    let mut forged = a.get_record(id).unwrap();
    forged.id = TupleSetId(forged.id.0 ^ 1);
    assert!(matches!(a.ingest_record(&forged), Err(PassError::Model(_))));

    // Valid identity but colliding digest: rebuild a record with the same
    // attributes and a different content digest — ids differ, so to force
    // a collision we claim the old id with new content.
    let record = a.get_record(id).unwrap();
    let mut collider = ProvenanceBuilder::new(record.origin, record.created_at)
        .attrs(&record.attributes)
        .build(Digest128::of(b"different readings"));
    collider.id = id; // forged: same name, different content
    assert!(matches!(
        a.ingest_record(&collider),
        Err(PassError::Model(_)) | Err(PassError::IdentityCollision(_))
    ));
}

#[test]
fn record_only_ingest_is_queryable_and_lineage_capable() {
    let hub = Pass::open_memory(SiteId(10));
    let origin = Pass::open_memory(SiteId(1));
    let raw = capture(&origin, 3, 3);
    let derived = origin
        .derive(
            &[raw],
            &ToolDescriptor::new("clean", "1.0"),
            Attributes::new().with("domain", "traffic"),
            vec![reading(4)],
            Timestamp(4),
        )
        .unwrap();

    // Ship only metadata to the hub (records, no readings) — the
    // centralized-warehouse posture of §IV-A.
    for id in [raw, derived] {
        hub.ingest_record(&origin.get_record(id).unwrap()).unwrap();
    }
    assert_eq!(hub.len(), 2);
    assert!(!hub.has_data(raw) && !hub.has_data(derived));
    let hits = hub.query_text(r#"FIND WHERE domain = "traffic""#).unwrap();
    assert_eq!(hits.ids().len(), 2);
    let anc = hub.lineage(derived, Direction::Ancestors, TraverseOpts::unbounded()).unwrap();
    assert_eq!(anc.len(), 1);
}

// ---------------------------------------------------------------------
// Property: merges commute and converge.
// ---------------------------------------------------------------------

fn arb_corpus(site: u32) -> impl Strategy<Value = Vec<(i64, u64)>> {
    proptest::collection::vec((0i64..4, 0u64..24), 0..12).prop_map(move |v| {
        let _ = site;
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn merge_is_commutative_and_idempotent(
        corpus_a in arb_corpus(1),
        corpus_b in arb_corpus(2),
    ) {
        let a = Pass::open_memory(SiteId(1));
        let b = Pass::open_memory(SiteId(1)); // same site ⇒ overlapping ids possible
        for (tag, n) in &corpus_a {
            let _ = capture(&a, *tag, *n);
        }
        for (tag, n) in &corpus_b {
            let _ = capture(&b, *tag, *n);
        }

        // a ∪ b == b ∪ a (same record sets), and double import changes nothing.
        let archive_a = a.export_archive().unwrap();
        let archive_b = b.export_archive().unwrap();
        let ab = Pass::open_memory(SiteId(7));
        ab.import_archive(&archive_a).unwrap();
        ab.import_archive(&archive_b).unwrap();
        let ba = Pass::open_memory(SiteId(8));
        ba.import_archive(&archive_b).unwrap();
        ba.import_archive(&archive_a).unwrap();
        prop_assert_eq!(sorted_ids(&ab), sorted_ids(&ba));

        let again = ab.import_archive(&archive_b).unwrap();
        prop_assert_eq!(again.changed(), 0);

        // The merged store's export re-imports as a pure no-op elsewhere.
        let round = Pass::open_memory(SiteId(9));
        round.import_archive(&ab.export_archive().unwrap()).unwrap();
        prop_assert_eq!(sorted_ids(&round), sorted_ids(&ab));
    }
}
