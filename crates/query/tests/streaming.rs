//! Streaming-execution integration tests: limit/order/keyset pushdown
//! must keep per-query work proportional to what the caller consumes,
//! measured with a counting provider over a 100k-record store.

use pass_model::{Digest128, ProvenanceBuilder, SiteId, Timestamp, TupleSetId};
use pass_query::{parse, Counted, QueryEngine, RecordIndex};

const STORE_SIZE: usize = 100_000;

/// A fetch-counting record index over `n` records.
fn big_store(n: usize) -> Counted<RecordIndex> {
    let mut index = RecordIndex::new();
    let mut delta = index.delta(n);
    for i in 0..n {
        let record = ProvenanceBuilder::new(SiteId(1), Timestamp(i as u64))
            .attr("domain", if i % 2 == 0 { "traffic" } else { "weather" })
            .attr("zone", (i % 64) as i64)
            .build(Digest128::of(&(i as u64).to_be_bytes()));
        delta.push(&record);
    }
    index.insert_delta(&mut delta);
    Counted::new(index)
}

/// The headline acceptance criterion: a `LIMIT 10` attribute query over
/// a 100k-record store fetches ≤ ~10 records.
#[test]
fn limit_10_over_100k_touches_10_records() {
    let store = big_store(STORE_SIZE);
    let before = store.fetches();
    let mut cursor =
        store.open_query(&parse(r#"FIND WHERE domain = "traffic" LIMIT 10"#).unwrap()).unwrap();
    let got: Vec<_> = cursor.by_ref().collect();
    assert_eq!(got.len(), 10);
    let stats = cursor.stats();
    assert_eq!(stats.candidates_scanned, 10, "pushdown must stop at the limit");
    assert_eq!(stats.returned, 10);
    assert!(
        store.fetches() - before <= 10,
        "fetched {} records for a LIMIT 10 query",
        store.fetches() - before
    );
}

/// Limit pushdown holds through a lazy conjunction too.
#[test]
fn conjunctive_limit_is_bounded() {
    let store = big_store(STORE_SIZE);
    let before = store.fetches();
    let query = parse(r#"FIND WHERE domain = "traffic" AND zone = 0 LIMIT 5"#).unwrap();
    let mut cursor = store.open_query(&query).unwrap();
    let got: Vec<_> = cursor.by_ref().collect();
    assert_eq!(got.len(), 5);
    assert_eq!(cursor.stats().candidates_scanned, 5);
    assert!(store.fetches() - before <= 5);
}

/// ORDER BY + LIMIT over the whole store streams from the created-order
/// scan instead of fetching everything.
#[test]
fn order_by_limit_is_bounded() {
    let store = big_store(STORE_SIZE);
    let before = store.fetches();
    let got: Vec<_> =
        store.open_query(&parse("FIND ORDER BY created DESC LIMIT 10").unwrap()).unwrap().collect();
    assert_eq!(got.len(), 10);
    assert_eq!(got[0].created_at, Timestamp((STORE_SIZE - 1) as u64), "newest first");
    assert!(
        store.fetches() - before <= 10,
        "ordered pushdown fetched {} records",
        store.fetches() - before
    );
}

/// Keyset paging walks the store in bounded steps, and the concatenated
/// pages equal the one-shot result.
#[test]
fn keyset_pages_are_bounded_and_lossless() {
    let store = big_store(10_000);
    let full: Vec<TupleSetId> = store
        .open_query(&parse(r#"FIND WHERE zone = 3"#).unwrap())
        .unwrap()
        .map(|r| r.id)
        .collect();
    assert!(!full.is_empty());

    let mut paged = Vec::new();
    let mut after: Option<TupleSetId> = None;
    loop {
        let mut q = parse(r#"FIND WHERE zone = 3 LIMIT 37"#).unwrap();
        q.after = after;
        let before = store.fetches();
        let page: Vec<TupleSetId> = store.open_query(&q).unwrap().map(|r| r.id).collect();
        assert!(store.fetches() - before <= 37, "page fetches stay bounded");
        if page.is_empty() {
            break;
        }
        after = Some(*page.last().unwrap());
        paged.extend(page);
    }
    assert_eq!(full, paged);
}

/// `execute()` (the compatibility wrapper) returns byte-identical
/// records to draining the cursor.
#[test]
fn execute_equals_cursor_drain_on_big_store() {
    let store = big_store(10_000);
    for text in [
        r#"FIND WHERE zone = 9"#,
        r#"FIND WHERE domain = "weather" AND zone = 11 ORDER BY created DESC"#,
        r#"FIND WHERE zone = 9 LIMIT 17"#,
    ] {
        let query = parse(text).unwrap();
        let executed = pass_query::execute(&query, &store).unwrap().records;
        let drained: Vec<_> = store.open_query(&query).unwrap().collect();
        assert_eq!(executed, drained, "{text}");
    }
}
