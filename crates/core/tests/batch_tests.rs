//! Group-commit contract tests (ISSUE-3): one `KvStore::apply` per
//! batch, and all-or-nothing validation with no partial state.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code asserts by panicking

use pass_core::{Pass, PassConfig};
use pass_model::{Attributes, Reading, SensorId, SiteId, Timestamp, TupleSet};
use pass_storage::{KvStore, MemEngine, WriteBatch};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Test double: delegates to a `MemEngine`, counting `apply` calls.
#[derive(Default)]
struct CountingKv {
    inner: MemEngine,
    applies: AtomicUsize,
}

impl CountingKv {
    fn applies(&self) -> usize {
        self.applies.load(Ordering::SeqCst)
    }
}

impl KvStore for CountingKv {
    fn get(&self, key: &[u8]) -> pass_storage::Result<Option<Vec<u8>>> {
        self.inner.get(key)
    }

    fn apply(&self, batch: WriteBatch) -> pass_storage::Result<()> {
        self.applies.fetch_add(1, Ordering::SeqCst);
        self.inner.apply(batch)
    }

    fn scan_range(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> pass_storage::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.inner.scan_range(start, end)
    }

    fn flush(&self) -> pass_storage::Result<()> {
        self.inner.flush()
    }
}

fn counting_pass() -> (Pass, Arc<CountingKv>) {
    let store = Arc::new(CountingKv::default());
    let pass = Pass::open_with_store(store.clone(), PassConfig::memory(SiteId(1))).unwrap();
    (pass, store)
}

/// `n` independent raw tuple sets, built by a donor store so the records
/// carry valid identities and content digests.
fn sets(n: usize) -> Vec<TupleSet> {
    let donor = Pass::open_memory(SiteId(9));
    let ids = donor
        .capture_batch((0..n).map(|i| {
            let at = Timestamp(1_000 + i as u64);
            (
                Attributes::new().with("domain", "traffic").with("seq", i as i64),
                vec![Reading::new(SensorId(i as u64 % 8), at).with("speed", 30.0 + i as f64)],
                at,
            )
        }))
        .unwrap();
    ids.into_iter().map(|id| donor.get_tuple_set(id).unwrap().unwrap()).collect()
}

#[test]
fn ingest_batch_issues_exactly_one_apply() {
    let (pass, store) = counting_pass();
    let sets = sets(257);
    let before = store.applies();
    let ids = pass.ingest_batch(&sets).unwrap();
    assert_eq!(ids.len(), 257);
    assert_eq!(store.applies() - before, 1, "N-set ingest_batch must group-commit once");
    // Every set is visible and the batch counted as one commit.
    for ts in &sets {
        assert!(pass.get_record(ts.provenance.id).is_some());
    }
    assert_eq!(pass.stats().batches, 1);
    assert_eq!(pass.stats().ingests, 257);
}

#[test]
fn capture_batch_issues_exactly_one_apply() {
    let (pass, store) = counting_pass();
    let before = store.applies();
    let ids = pass
        .capture_batch((0..64).map(|i| {
            let at = Timestamp(2_000 + i as u64);
            (
                Attributes::new().with("seq", i as i64),
                vec![Reading::new(SensorId(1), at).with("v", i as f64)],
                at,
            )
        }))
        .unwrap();
    assert_eq!(ids.len(), 64);
    assert_eq!(store.applies() - before, 1);
}

#[test]
fn a_new_bare_record_is_one_group_commit() {
    let (pass, store) = counting_pass();
    let record = &sets(1)[0].provenance;
    let before = store.applies();
    pass.ingest_record(record).unwrap();
    assert_eq!(store.applies() - before, 1);
    assert!(pass.contains(record.id) && !pass.has_data(record.id));
    assert_eq!((pass.stats().ingests, pass.stats().batches), (1, 1));
    // Re-ingesting it writes nothing and counts nothing.
    pass.ingest_record(record).unwrap();
    assert_eq!(store.applies() - before, 1);
    assert_eq!((pass.stats().ingests, pass.stats().batches), (1, 1));
}

#[test]
fn mid_batch_validation_failure_leaves_no_partial_state() {
    let (pass, store) = counting_pass();
    let mut batch = sets(32);
    // Tamper with a set in the middle: extra reading, stale digest.
    let bad = &mut batch[17];
    bad.readings.push(Reading::new(SensorId(99), Timestamp(5)).with("forged", 1.0));
    let poisoned_id = bad.provenance.id;

    let before = store.applies();
    let err = pass.ingest_batch(&batch);
    assert!(err.is_err(), "digest-mismatched set must fail the whole batch");

    // No storage write, no index entry, no provenance — not even for the
    // valid sets that preceded the poisoned one.
    assert_eq!(store.applies() - before, 0, "failed validation must not touch storage");
    for ts in &batch {
        assert!(pass.get_record(ts.provenance.id).is_none());
        assert!(pass.get_tuple_set(ts.provenance.id).unwrap().is_none());
    }
    let hits = pass.query_text(r#"FIND WHERE domain = "traffic""#).unwrap();
    assert!(hits.ids().is_empty(), "no index state may leak from a failed batch");
    assert_eq!(pass.stats().ingests, 0);
    assert_eq!(pass.stats().batches, 0);

    // The pass stays usable: the same batch minus the poisoned set commits.
    let good: Vec<TupleSet> =
        batch.iter().filter(|ts| ts.provenance.id != poisoned_id).cloned().collect();
    let ids = pass.ingest_batch(&good).unwrap();
    assert_eq!(ids.len(), 31);
    assert_eq!(store.applies() - before, 1);
}

#[test]
fn snapshot_reads_are_repeatable_while_ingest_proceeds() {
    let (pass, _store) = counting_pass();
    pass.ingest_batch(&sets(8)).unwrap();
    let snap = pass.snapshot();
    let seen_before = snap.query_text(r#"FIND WHERE domain = "traffic""#).unwrap().ids().len();
    assert_eq!(seen_before, 8);

    // Ingest more behind the snapshot's back.
    let more = sets(16);
    pass.ingest_batch(&more[8..]).unwrap();

    let live = pass.query_text(r#"FIND WHERE domain = "traffic""#).unwrap().ids().len();
    assert_eq!(live, 16, "live reads see the new batch");
    let seen_after = snap.query_text(r#"FIND WHERE domain = "traffic""#).unwrap().ids().len();
    assert_eq!(seen_after, 8, "the snapshot keeps answering from its commit point");
}
