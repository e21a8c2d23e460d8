//! Subscription tests: the snapshot-then-tail handoff must deliver
//! exactly the records a final re-query returns — no gap, no duplicate,
//! in commit order — even when the subscription opens mid-ingest, and a
//! stalled consumer must lag, never block ingest.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code asserts by panicking

use pass_core::{Event, Pass};
use pass_model::{
    keys, Attributes, ProvenanceRecord, Reading, SensorId, SiteId, Timestamp, ToolDescriptor,
    TupleSetId,
};
use pass_query::{parse, parse_subscribe};
use proptest::prelude::*;
use std::thread;
use std::time::Duration;

fn items(worker: u64, range: std::ops::Range<u64>) -> Vec<(Attributes, Vec<Reading>, Timestamp)> {
    range
        .map(|i| {
            let at = Timestamp(worker * 1_000_000 + i);
            let attrs = Attributes::new()
                .with(keys::DOMAIN, "traffic")
                .with("worker", worker as i64)
                .with("seq", i as i64);
            (attrs, vec![Reading::new(SensorId(worker), at).with("v", i as i64)], at)
        })
        .collect()
}

/// Drains a subscription until `CaughtUp`, returning the catch-up
/// records.
fn drain_catch_up(sub: &mut pass_core::Subscription) -> Vec<ProvenanceRecord> {
    let mut out = Vec::new();
    loop {
        match sub.next_timeout(Duration::from_secs(5)).expect("catch-up never times out") {
            Event::Match(r) => out.push(r),
            Event::CaughtUp { .. } => return out,
            Event::Lagged(n) => panic!("lagged {n} during catch-up"),
        }
    }
}

#[test]
fn catch_up_then_tail_delivers_everything_once() {
    let pass = Pass::open_memory(SiteId(1));
    pass.capture_batch(items(1, 0..10)).expect("pre-subscribe batch");

    let mut sub = pass.subscribe(&parse("FIND WHERE worker = 1").unwrap()).expect("subscribe");
    let catch_up = drain_catch_up(&mut sub);
    assert_eq!(catch_up.len(), 10, "catch-up covers the pre-subscribe commits");

    pass.capture_batch(items(1, 10..15)).expect("tail batch");
    pass.capture_batch(items(2, 0..5)).expect("non-matching batch");

    let mut tail = Vec::new();
    while let Some(event) = sub.try_next() {
        match event {
            Event::Match(r) => tail.push(r),
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(tail.len(), 5, "tail delivers only the matching commits");
    let seqs: Vec<i64> =
        tail.iter().map(|r| r.attributes.get("seq").unwrap().as_int().unwrap()).collect();
    assert_eq!(seqs, vec![10, 11, 12, 13, 14], "commit order preserved");

    // Delivered stream == final re-query, record for record.
    let mut delivered: Vec<TupleSetId> = catch_up.iter().chain(&tail).map(|r| r.id).collect();
    let mut want = pass.query_text("FIND WHERE worker = 1").unwrap().ids();
    delivered.sort();
    want.sort();
    assert_eq!(delivered, want);
}

/// Commit versions as readers see them: an open publishes version 2,
/// every commit adds one (a removal too, though it broadcasts nothing),
/// and a subscription's catch-up version is its snapshot's.
#[test]
fn versions_count_commits_from_two_after_an_open() {
    let pass = Pass::open_memory(SiteId(1));
    assert_eq!(pass.snapshot().version(), 2);
    let ids = pass.capture_batch(items(1, 0..3)).unwrap();
    assert_eq!(pass.snapshot().version(), 3);
    assert!(pass.remove_data(ids[0]).unwrap());
    assert_eq!(pass.snapshot().version(), 4);

    let mut sub = pass.subscribe_text("SUBSCRIBE FIND").unwrap();
    assert_eq!(sub.catch_up_version(), 4);
    for _ in &ids {
        assert!(matches!(sub.try_next(), Some(Event::Match(_))));
    }
    assert!(matches!(sub.try_next(), Some(Event::CaughtUp { version: 4 })));
}

#[test]
fn subscribe_text_speaks_the_statement_grammar() {
    let pass = Pass::open_memory(SiteId(1));
    pass.capture_batch(items(1, 0..3)).expect("batch");
    let mut sub = pass.subscribe_text("SUBSCRIBE FIND WHERE worker = 1").expect("subscribe");
    assert_eq!(drain_catch_up(&mut sub).len(), 3);
    assert!(pass.subscribe_text("FIND WHERE worker = 1").is_err(), "bare query is not a statement");
}

#[test]
fn ancestors_subscription_is_rejected() {
    let pass = Pass::open_memory(SiteId(1));
    let root = pass.capture(Attributes::new(), vec![], Timestamp(1)).unwrap();
    let err = pass
        .subscribe_text(&format!("SUBSCRIBE FIND ANCESTORS OF ts:{}", root.full_hex()))
        .unwrap_err();
    assert!(err.to_string().contains("DESCENDANTS"), "{err}");
}

#[test]
fn unknown_watch_root_fails_and_unregisters() {
    let pass = Pass::open_memory(SiteId(1));
    assert!(pass.subscribe_text("WATCH DESCENDANTS OF ts:deadbeef").is_err());
    assert_eq!(pass.subscriber_count(), 0, "failed subscribe leaves no channel behind");
}

#[test]
fn dropping_a_subscription_unregisters_it() {
    let pass = Pass::open_memory(SiteId(1));
    let sub = pass.subscribe(&parse("FIND").unwrap()).expect("subscribe");
    assert_eq!(pass.subscriber_count(), 1);
    drop(sub);
    assert_eq!(pass.subscriber_count(), 0);
}

#[test]
fn stalled_consumer_lags_instead_of_blocking_ingest() {
    let pass = Pass::open_memory(SiteId(1));
    // Room for 4 commits; the consumer never drains while 20 commits land.
    let mut sub =
        pass.subscribe_with(&parse("FIND WHERE worker = 1").unwrap(), 4).expect("subscribe");
    assert_eq!(drain_catch_up(&mut sub).len(), 0);

    for i in 0..20u64 {
        pass.capture_batch(items(1, i * 10..i * 10 + 10)).expect("ingest proceeds unblocked");
    }
    assert_eq!(pass.len(), 200, "every commit landed");

    let first = sub.try_next().expect("something queued");
    let Event::Lagged(n) = first else { panic!("expected Lagged first, got {first:?}") };
    assert_eq!(n as usize, 160, "16 overflowed commits × 10 records each");
    // The surviving window still delivers, in commit order.
    let mut survived = Vec::new();
    while let Some(event) = sub.try_next() {
        match event {
            Event::Match(r) => survived.push(r),
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(survived.len(), 40, "the 4 newest commits survived");
    let seqs: Vec<i64> =
        survived.iter().map(|r| r.attributes.get("seq").unwrap().as_int().unwrap()).collect();
    assert_eq!(seqs, (160..200).collect::<Vec<i64>>());
}

#[test]
fn watch_descendants_fires_on_live_taint() {
    let pass = Pass::open_memory(SiteId(1));
    let suspect = pass
        .capture(Attributes::new().with(keys::DOMAIN, "volcano"), vec![], Timestamp(1))
        .unwrap();
    let clean = pass
        .capture(Attributes::new().with(keys::DOMAIN, "volcano"), vec![], Timestamp(2))
        .unwrap();
    let existing = pass
        .derive(
            &[suspect],
            &ToolDescriptor::new("denoise", "1.0"),
            Attributes::new(),
            vec![],
            Timestamp(3),
        )
        .unwrap();

    let mut sub = pass
        .subscribe_text(&format!("WATCH DESCENDANTS OF ts:{}", suspect.full_hex()))
        .expect("watch");
    let catch_up = drain_catch_up(&mut sub);
    assert_eq!(catch_up.iter().map(|r| r.id).collect::<Vec<_>>(), vec![existing]);

    // Live: a derivation from the clean root must NOT fire; a transitive
    // descendant of the suspect must.
    let unrelated = pass
        .derive(
            &[clean],
            &ToolDescriptor::new("denoise", "1.0"),
            Attributes::new(),
            vec![],
            Timestamp(4),
        )
        .unwrap();
    let tainted = pass
        .derive(
            &[existing, unrelated],
            &ToolDescriptor::new("summary", "2.0"),
            Attributes::new(),
            vec![],
            Timestamp(5),
        )
        .unwrap();
    let deeper = pass
        .derive(
            &[tainted],
            &ToolDescriptor::new("report", "1.0"),
            Attributes::new(),
            vec![],
            Timestamp(6),
        )
        .unwrap();

    let mut live = Vec::new();
    while let Some(event) = sub.try_next() {
        match event {
            Event::Match(r) => live.push(r.id),
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(live, vec![tainted, deeper], "taint propagates transitively, clean line ignored");

    // Cross-check against a fresh one-shot closure query.
    let mut requery =
        pass.query_text(&format!("FIND DESCENDANTS OF ts:{}", suspect.full_hex())).unwrap().ids();
    let mut delivered: Vec<TupleSetId> = catch_up.iter().map(|r| r.id).chain(live).collect();
    requery.sort();
    delivered.sort();
    assert_eq!(delivered, requery);
}

#[test]
fn watch_where_filter_narrows_delivery_but_not_membership() {
    let pass = Pass::open_memory(SiteId(1));
    let root = pass.capture(Attributes::new(), vec![], Timestamp(1)).unwrap();
    let mut sub = pass
        .subscribe_text(&format!(
            r#"WATCH DESCENDANTS OF ts:{} WHERE stage = "final""#,
            root.full_hex()
        ))
        .expect("watch");
    drain_catch_up(&mut sub);

    // Intermediate fails the filter but must still propagate membership.
    let mid = pass
        .derive(
            &[root],
            &ToolDescriptor::new("t", "1"),
            Attributes::new().with("stage", "mid"),
            vec![],
            Timestamp(2),
        )
        .unwrap();
    let fin = pass
        .derive(
            &[mid],
            &ToolDescriptor::new("t", "1"),
            Attributes::new().with("stage", "final"),
            vec![],
            Timestamp(3),
        )
        .unwrap();

    let mut live = Vec::new();
    while let Some(event) = sub.try_next() {
        if let Event::Match(r) = event {
            live.push(r.id);
        }
    }
    assert_eq!(live, vec![fin], "filter narrows delivery; taint still flowed through mid");
}

/// Pins the documented addition-only tail semantics: annotation merges
/// mutate an existing record and are not replayed into tails, so an
/// `ANNOTATION CONTAINS` subscription matches records as they were
/// *added* — text annotated later is visible to re-queries only.
#[test]
fn annotation_merges_do_not_fire_the_tail() {
    use pass_model::Annotation;
    let pass = Pass::open_memory(SiteId(1));
    let plain = pass.capture(Attributes::new(), vec![], Timestamp(1)).unwrap();

    let mut sub =
        pass.subscribe_text(r#"SUBSCRIBE FIND WHERE ANNOTATION CONTAINS "suspect""#).unwrap();
    assert_eq!(drain_catch_up(&mut sub).len(), 0);

    // A record *added* with matching text fires the tail...
    let mut attrs = Attributes::new();
    attrs.set(keys::DESCRIPTION, "suspect reading pattern");
    let flagged = pass.capture(attrs, vec![], Timestamp(2)).unwrap();
    let event = sub.try_next().expect("tail delivery");
    assert_eq!(event.into_match().expect("match").id, flagged);

    // ...but annotating an existing record into the match set does not
    // (the re-query sees it; the tail, by documented design, does not).
    pass.annotate(plain, Annotation::new(Timestamp(3), "ops", "suspect after review")).unwrap();
    assert!(sub.try_next().is_none(), "annotation merge must not be re-delivered");
    let requery = pass.query_text(r#"FIND WHERE ANNOTATION CONTAINS "suspect""#).unwrap();
    assert_eq!(requery.records.len(), 2, "one-shot reads do see the annotation");
}

/// The acceptance-criteria stress test: a subscription opened mid-ingest
/// delivers exactly the records a fresh `execute()` returns at the end —
/// no gaps, no dupes, commit order — under concurrent `ingest_batch`
/// from multiple writers.
#[test]
fn handoff_under_concurrent_ingest_equals_final_requery() {
    const WRITERS: u64 = 4;
    const BATCHES_PER_WRITER: u64 = 25;
    const PER_BATCH: u64 = 8;

    for round in 0..3u64 {
        let pass = Pass::open_memory(SiteId(1));
        // Pre-populate so catch-up has real work.
        pass.capture_batch(items(0, 0..40)).expect("seed batch");

        let collected = thread::scope(|s| {
            for w in 1..=WRITERS {
                let pass = &pass;
                s.spawn(move || {
                    for b in 0..BATCHES_PER_WRITER {
                        let lo = b * PER_BATCH;
                        pass.capture_batch(items(w + round * 10, lo..lo + PER_BATCH))
                            .expect("ingest");
                    }
                });
            }
            // Subscriber opens mid-ingest (writers already racing) with a
            // queue deep enough to never lag.
            let pass = &pass;
            let handle = s.spawn(move || {
                let mut sub = pass
                    .subscribe_with(&parse("FIND").unwrap(), 4_096)
                    .expect("subscribe mid-ingest");
                let mut seen: Vec<TupleSetId> = Vec::new();
                let mut versions_ok = true;
                let mut caught_up_at = None;
                loop {
                    match sub.next_timeout(Duration::from_millis(200)) {
                        Some(Event::Match(r)) => seen.push(r.id),
                        Some(Event::CaughtUp { version }) => caught_up_at = Some(version),
                        Some(Event::Lagged(_)) => versions_ok = false,
                        // Writers are finite: once the stream stays quiet
                        // for the timeout AND the store stopped growing,
                        // we are drained.
                        None => {
                            if seen.len()
                                >= (40 + WRITERS * BATCHES_PER_WRITER * PER_BATCH) as usize
                            {
                                break;
                            }
                            // Not everything arrived yet; keep waiting.
                        }
                    }
                }
                (seen, versions_ok, caught_up_at)
            });
            handle.join().expect("subscriber thread")
        });

        let (seen, no_lag, caught_up_at) = collected;
        assert!(no_lag, "queue sized to never lag in this test");
        assert!(caught_up_at.is_some(), "handoff marker delivered");

        // Exactly-once: delivered multiset == final re-query.
        let mut delivered = seen.clone();
        delivered.sort();
        let dedup_len = {
            let mut d = delivered.clone();
            d.dedup();
            d.len()
        };
        assert_eq!(dedup_len, delivered.len(), "round {round}: duplicates delivered");
        let mut want = pass.query_text("FIND").unwrap().ids();
        want.sort();
        assert_eq!(delivered, want, "round {round}: delivered stream != final re-query");

        // Commit order within each writer: seqs of one worker ascend.
        for w in 1..=WRITERS {
            let worker = w + round * 10;
            let seqs: Vec<i64> = seen
                .iter()
                .filter_map(|id| pass.get_record(*id))
                .filter(|r| {
                    r.attributes.get("worker").and_then(|v| v.as_int()) == Some(worker as i64)
                })
                .map(|r| r.attributes.get("seq").unwrap().as_int().unwrap())
                .collect();
            assert!(
                seqs.windows(2).all(|p| p[0] < p[1]),
                "round {round}: worker {worker} out of commit order: {seqs:?}"
            );
        }
    }
}

// -- Property: catch-up is byte-identical to execute() -----------------

const DOMAINS: [&str; 3] = ["traffic", "weather", "volcano"];

fn arb_corpus() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    // (domain index, seq, worker) triples; ids derive from the digest of
    // the triple so corpora are collision-free.
    proptest::collection::vec((0u8..3, 0u8..50, 0u8..4), 0..25)
}

fn arb_query_text() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("FIND".to_owned()),
        (0usize..3).prop_map(|d| format!(r#"FIND WHERE domain = "{}""#, DOMAINS[d])),
        (0i64..50).prop_map(|n| format!("FIND WHERE seq >= {n}")),
        (0i64..50).prop_map(|n| format!("FIND WHERE seq < {n} ORDER BY created DESC")),
        (1usize..10).prop_map(|n| format!("FIND ORDER BY created ASC LIMIT {n}")),
        (0usize..3, 1usize..8)
            .prop_map(|(d, n)| format!(r#"FIND WHERE domain = "{}" LIMIT {n}"#, DOMAINS[d])),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `SUBSCRIBE <q>` catch-up output is byte-identical to
    /// `execute(<q>)` at subscribe time — same records, same order.
    #[test]
    fn subscribe_catch_up_matches_execute(corpus in arb_corpus(), text in arb_query_text()) {
        let pass = Pass::open_memory(SiteId(1));
        let mut seen = std::collections::HashSet::new();
        for (d, seq, worker) in &corpus {
            if !seen.insert((*d, *seq, *worker)) {
                continue; // identical triple ⇒ identical tuple set; skip
            }
            let attrs = Attributes::new()
                .with("domain", DOMAINS[*d as usize])
                .with("seq", i64::from(*seq))
                .with("worker", i64::from(*worker));
            pass.capture(attrs, vec![], Timestamp(u64::from(*seq))).expect("capture");
        }

        let query = parse(&text).expect("well-formed");
        let want = pass.query(&query).expect("execute").records;
        let statement = parse_subscribe(&format!("SUBSCRIBE {text}")).expect("statement");
        let mut sub = pass.subscribe(&statement.query).expect("subscribe");
        let mut got = Vec::new();
        loop {
            match sub.try_next() {
                Some(Event::Match(r)) => got.push(r),
                Some(Event::CaughtUp { .. }) | None => break,
                Some(Event::Lagged(n)) => panic!("lagged {n} with no writers"),
            }
        }
        prop_assert_eq!(got, want, "catch-up diverged from execute on {}", text);
    }
}
