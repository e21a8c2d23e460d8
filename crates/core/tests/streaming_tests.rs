//! Streaming-read tests at the store level: `Pass` cursors pin their
//! snapshot (valid and repeatable under concurrent ingest), and
//! `Snapshot` carries the full read surface so read-only callers never
//! need a `&Pass`.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code asserts by panicking

use pass_core::Pass;
use pass_model::{keys, Attributes, Reading, SensorId, SiteId, Timestamp, TupleSetId};
use pass_query::{parse, QueryEngine};
use std::thread;

fn capture_batch(pass: &Pass, start: u64, n: u64) -> Vec<TupleSetId> {
    pass.capture_batch((start..start + n).map(|i| {
        (
            Attributes::new().with(keys::DOMAIN, "traffic").with("seq", i as i64),
            vec![Reading::new(SensorId(1), Timestamp(i)).with("v", i as i64)],
            Timestamp(i),
        )
    }))
    .expect("capture batch")
}

#[test]
fn cursor_pins_its_snapshot_across_ingest() {
    let pass = Pass::open_memory(SiteId(1));
    let first = capture_batch(&pass, 0, 50);

    // Open the cursor, then commit more batches before draining.
    let mut cursor = pass.open_query(&parse(r#"FIND WHERE domain = "traffic""#).unwrap()).unwrap();
    capture_batch(&pass, 1_000, 50);
    capture_batch(&pass, 2_000, 50);

    let mut got: Vec<TupleSetId> = cursor.by_ref().map(|r| r.id).collect();
    got.sort();
    let mut want = first;
    want.sort();
    assert_eq!(got, want, "cursor sees exactly its snapshot's records");
    assert_eq!(pass.len(), 150, "ingest proceeded meanwhile");
}

#[test]
fn cursors_drain_consistently_under_concurrent_ingest() {
    let pass = Pass::open_memory(SiteId(2));
    capture_batch(&pass, 0, 100);

    thread::scope(|s| {
        // Writer: keeps group-committing new batches.
        s.spawn(|| {
            for round in 0..20u64 {
                capture_batch(&pass, 10_000 + round * 100, 25);
            }
        });
        // Readers: every cursor must yield an exact multiple of 25 (plus
        // the seed 100) — a count that never matches a half-applied
        // batch — and must equal its own snapshot length.
        for _ in 0..3 {
            s.spawn(|| {
                for _ in 0..30 {
                    let snapshot = pass.snapshot();
                    let expected = snapshot.len();
                    let seen = snapshot.open_query(&parse("FIND").unwrap()).unwrap().count();
                    assert_eq!(seen, expected, "cursor diverged from its snapshot");
                    assert_eq!((seen - 100) % 25, 0, "saw a torn batch: {seen}");
                }
            });
        }
    });
}

#[test]
fn keyset_paging_through_a_live_store_is_lossless() {
    let pass = Pass::open_memory(SiteId(3));
    capture_batch(&pass, 0, 200);
    // One-shot result on a pinned snapshot.
    let snapshot = pass.snapshot();
    let full: Vec<TupleSetId> = snapshot
        .open_query(&parse("FIND ORDER BY created ASC").unwrap())
        .unwrap()
        .map(|r| r.id)
        .collect();
    assert_eq!(full.len(), 200);

    // Page through the same snapshot while the live store keeps moving.
    let mut paged: Vec<TupleSetId> = Vec::new();
    let mut after: Option<TupleSetId> = None;
    loop {
        capture_batch(&pass, 50_000 + paged.len() as u64 * 10, 3); // concurrent churn
        let mut query = parse("FIND ORDER BY created ASC LIMIT 23").unwrap();
        query.after = after;
        let page: Vec<TupleSetId> = snapshot.open_query(&query).unwrap().map(|r| r.id).collect();
        if page.is_empty() {
            break;
        }
        after = Some(*page.last().unwrap());
        paged.extend(page);
    }
    assert_eq!(full, paged, "pages over a pinned snapshot concatenate losslessly");
}

#[test]
fn snapshot_carries_the_full_read_surface() {
    let pass = Pass::open_memory(SiteId(4));
    let ids = capture_batch(&pass, 0, 10);
    pass.query_text("FIND").expect("query");
    let snapshot = pass.snapshot();

    // ids / stats parity with the live store at snapshot time.
    let mut snap_ids = snapshot.ids();
    snap_ids.sort();
    let mut want = ids.clone();
    want.sort();
    assert_eq!(snap_ids, want);
    let stats = snapshot.stats();
    assert_eq!(stats.records, 10);
    assert_eq!(stats.data_blobs, 10);
    assert_eq!(stats.batches, 1, "one group commit so far");
    assert_eq!(stats.queries, 1, "captured at snapshot time");

    // Data reads without touching the Pass.
    assert!(snapshot.has_data(ids[0]));
    let readings = snapshot.get_data(ids[0]).expect("read").expect("present");
    assert_eq!(readings.len(), 1);

    // Mutations after the snapshot: index state stays pinned, counters
    // stay as captured.
    capture_batch(&pass, 100, 5);
    pass.query_text("FIND").expect("query");
    assert_eq!(snapshot.ids().len(), 10);
    assert_eq!(snapshot.stats().queries, 1);

    // Data removal: the pinned index still says present (has_data), the
    // shared storage read reports the truth — exactly the documented
    // divergence.
    pass.remove_data(ids[0]).expect("remove");
    assert!(snapshot.has_data(ids[0]), "index state is pinned");
    assert!(snapshot.get_data(ids[0]).expect("read").is_none(), "storage is shared");
}

#[test]
fn snapshot_get_tuple_set_parity_and_divergence() {
    let pass = Pass::open_memory(SiteId(6));
    let ids = capture_batch(&pass, 0, 4);
    let snapshot = pass.snapshot();

    // Parity with the live store while nothing moves.
    let live = pass.get_tuple_set(ids[0]).expect("read").expect("present");
    let snap = snapshot.get_tuple_set(ids[0]).expect("read").expect("present");
    assert_eq!(live.provenance, snap.provenance);
    assert_eq!(live.readings, snap.readings);

    // A record committed after the snapshot is invisible to it.
    let new_ids = capture_batch(&pass, 100, 1);
    assert!(pass.get_tuple_set(new_ids[0]).expect("read").is_some());
    assert!(snapshot.get_tuple_set(new_ids[0]).expect("read").is_none());

    // The pinned divergence: after concurrent remove_data the snapshot's
    // index still lists the record (and has_data says true), but the
    // readings come from shared, unversioned storage — get_tuple_set
    // reports None, exactly like get_data.
    pass.remove_data(ids[1]).expect("remove");
    assert!(snapshot.has_data(ids[1]), "index state is pinned");
    assert!(snapshot.get_record(ids[1]).is_some(), "record survives removal (property 4)");
    assert!(snapshot.get_tuple_set(ids[1]).expect("read").is_none(), "readings are shared");
}

#[test]
fn snapshot_lineage_is_repeatable_under_ingest() {
    use pass_index::{Direction, TraverseOpts};
    let pass = Pass::open_memory(SiteId(7));
    let roots = capture_batch(&pass, 0, 2);
    let mid = pass
        .derive(
            &[roots[0]],
            &pass_model::ToolDescriptor::new("stage", "1"),
            Attributes::new().with(keys::DOMAIN, "traffic"),
            vec![],
            Timestamp(1_000),
        )
        .expect("derive");
    let snapshot = pass.snapshot();

    // Parity with the live store at snapshot time.
    let live: Vec<_> =
        pass.lineage(roots[0], Direction::Descendants, TraverseOpts::unbounded()).expect("live");
    let pinned: Vec<_> = snapshot
        .lineage(roots[0], Direction::Descendants, TraverseOpts::unbounded())
        .expect("pinned");
    assert_eq!(live, pinned);
    assert_eq!(pinned.iter().map(|r| r.id).collect::<Vec<_>>(), vec![mid]);

    // New descendants grow the live answer but never the pinned one.
    pass.derive(
        &[mid],
        &pass_model::ToolDescriptor::new("stage", "2"),
        Attributes::new().with(keys::DOMAIN, "traffic"),
        vec![],
        Timestamp(2_000),
    )
    .expect("derive");
    assert_eq!(
        pass.lineage(roots[0], Direction::Descendants, TraverseOpts::unbounded())
            .expect("live")
            .len(),
        2
    );
    assert_eq!(
        snapshot
            .lineage(roots[0], Direction::Descendants, TraverseOpts::unbounded())
            .expect("pinned")
            .len(),
        1,
        "snapshot closure is repeatable"
    );

    // Unknown roots error identically on both surfaces.
    assert!(snapshot
        .lineage(TupleSetId(424242), Direction::Ancestors, TraverseOpts::unbounded())
        .is_err());
}

#[test]
fn pass_execute_and_cursor_agree() {
    let pass = Pass::open_memory(SiteId(5));
    capture_batch(&pass, 0, 64);
    for text in [
        "FIND",
        r#"FIND WHERE seq >= 32"#,
        "FIND ORDER BY created DESC LIMIT 7",
        r#"FIND WHERE domain = "traffic" LIMIT 5"#,
    ] {
        let query = parse(text).unwrap();
        let executed = pass.query(&query).expect("query").records;
        let drained: Vec<_> = pass.open_query(&query).unwrap().collect();
        assert_eq!(executed, drained, "{text}");
    }
}
