//! Crash-injection tests for cross-shard commits at the storage layer:
//! a writer killed between the per-shard WAL appends must leave a store
//! that recovers to the whole commit (durable intent → roll forward) or
//! to none of it (torn intent) — never to a torn half.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code asserts by panicking

use pass_storage::tempdir::TempDir;
use pass_storage::{
    EngineOptions, KvStore, LsmEngine, ShardRouter, ShardedStore, StorageError, SyncPolicy,
    WriteBatch,
};
use proptest::prelude::*;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Routes by the first key byte — deterministic and easy to span.
fn byte_router(shards: usize) -> ShardRouter {
    Box::new(move |key: &[u8]| key.first().copied().unwrap_or(0) as usize % shards)
}

/// A shard engine that can be killed: once dead, applies fail as if the
/// process died before this shard's WAL append.
struct DyingShard {
    inner: LsmEngine,
    dead: AtomicBool,
}

impl DyingShard {
    fn kill(&self) {
        self.dead.store(true, Ordering::SeqCst);
    }
}

impl KvStore for DyingShard {
    fn get(&self, key: &[u8]) -> pass_storage::Result<Option<Vec<u8>>> {
        self.inner.get(key)
    }
    fn apply(&self, batch: WriteBatch) -> pass_storage::Result<()> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(StorageError::io(
                "injected crash before shard WAL append",
                std::io::Error::other("killed"),
            ));
        }
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

fn open_lsm(dir: &Path, i: usize) -> LsmEngine {
    LsmEngine::open(dir.join(format!("shard-{i:02}")), EngineOptions::default()).unwrap()
}

/// Store where shard `victim` dies on command and the rest stay healthy.
fn store_with_victim(dir: &Path, shards: usize, victim: usize) -> (ShardedStore, Arc<DyingShard>) {
    let dying = Arc::new(DyingShard { inner: open_lsm(dir, victim), dead: AtomicBool::new(false) });
    let engines: Vec<Arc<dyn KvStore>> = (0..shards)
        .map(|i| {
            if i == victim {
                Arc::clone(&dying) as Arc<dyn KvStore>
            } else {
                Arc::new(open_lsm(dir, i)) as Arc<dyn KvStore>
            }
        })
        .collect();
    let store = ShardedStore::open(
        engines,
        byte_router(shards),
        Some(dir.join("xcommit.log")),
        SyncPolicy::OnWrite,
    )
    .unwrap();
    (store, dying)
}

fn healthy_store(dir: &Path, shards: usize) -> ShardedStore {
    let engines: Vec<Arc<dyn KvStore>> =
        (0..shards).map(|i| Arc::new(open_lsm(dir, i)) as Arc<dyn KvStore>).collect();
    ShardedStore::open(
        engines,
        byte_router(shards),
        Some(dir.join("xcommit.log")),
        SyncPolicy::OnWrite,
    )
    .unwrap()
}

fn spanning_batch(shards: usize, tag: u8) -> WriteBatch {
    let mut batch = WriteBatch::new();
    for s in 0..shards as u8 {
        batch.put(vec![s, tag], vec![b'v', s, tag]);
    }
    batch
}

#[test]
fn crash_between_shard_appends_recovers_the_whole_commit() {
    let dir = TempDir::new("xcrash-forward");
    for victim in 0..3 {
        let tag = 10 + victim as u8;
        let (store, dying) = store_with_victim(dir.path(), 3, victim);
        dying.kill();
        store.apply(spanning_batch(3, tag)).expect_err("victim shard dies before its WAL append");
        drop((store, dying));

        // Reopening replays the durable intent into every shard.
        let store = healthy_store(dir.path(), 3);
        for s in 0..3u8 {
            assert_eq!(
                store.get(&[s, tag]).unwrap(),
                Some(vec![b'v', s, tag]),
                "victim {victim}: shard {s} recovered its half of the commit"
            );
        }
        drop(store);
    }
}

#[test]
fn torn_intent_leaves_no_trace_of_the_commit() {
    let dir = TempDir::new("xcrash-torn");
    // Die on shard 0 — the first sub-batch applied — so the intent is
    // the only trace of the commit anywhere on disk.
    let (store, dying) = store_with_victim(dir.path(), 3, 0);
    dying.kill();
    store.apply(spanning_batch(3, 42)).expect_err("first shard dies");
    drop((store, dying));

    // Tear the intent record; the commit point was never reached.
    let xlog = dir.path().join("xcommit.log");
    let bytes = std::fs::read(&xlog).unwrap();
    assert!(bytes.len() > 9);
    std::fs::write(&xlog, &bytes[..bytes.len() - 1]).unwrap();

    let store = healthy_store(dir.path(), 3);
    for s in 0..3u8 {
        assert_eq!(store.get(&[s, 42]).unwrap(), None, "torn intent must not half-apply");
    }
    // Recovery discarded the torn log.
    assert_eq!(std::fs::metadata(&xlog).unwrap().len(), 0);
}

/// A zero-filled tail behind a durable intent (an un-synced size
/// extension) is torn, not a record: the intent still rolls forward and
/// the log is emptied.
#[test]
fn zero_filled_tail_after_a_durable_intent_still_rolls_forward() {
    let dir = TempDir::new("xcrash-zero-tail");
    let (store, dying) = store_with_victim(dir.path(), 3, 1);
    dying.kill();
    store.apply(spanning_batch(3, 9)).expect_err("shard 1 dies");
    drop((store, dying));

    let xlog = dir.path().join("xcommit.log");
    let mut bytes = std::fs::read(&xlog).unwrap();
    assert!(bytes.len() > 8, "the intent reached the log");
    bytes.extend_from_slice(&[0u8; 4096]);
    std::fs::write(&xlog, &bytes).unwrap();

    let store = healthy_store(dir.path(), 3);
    for s in 0..3u8 {
        assert_eq!(store.get(&[s, 9]).unwrap(), Some(vec![b'v', s, 9]), "shard {s}");
    }
    assert_eq!(std::fs::metadata(&xlog).unwrap().len(), 0);
}

#[test]
fn recovery_is_idempotent_across_repeated_opens() {
    let dir = TempDir::new("xcrash-idem");
    let (store, dying) = store_with_victim(dir.path(), 2, 1);
    dying.kill();
    store.apply(spanning_batch(2, 7)).expect_err("shard 1 dies");
    drop((store, dying));

    // First reopen rolls forward; later reopens find a clean log and
    // must not double-apply or error.
    for round in 0..3 {
        let store = healthy_store(dir.path(), 2);
        for s in 0..2u8 {
            assert_eq!(store.get(&[s, 7]).unwrap(), Some(vec![b'v', s, 7]), "round {round}");
        }
        drop(store);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any cross-shard batch killed at any victim shard recovers to the
    /// complete batch — last-write-wins per key, like a live apply.
    #[test]
    fn prop_killed_cross_shard_batches_roll_forward(
        ops in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..6), proptest::collection::vec(any::<u8>(), 0..8)),
            2..24,
        ),
        victim in 0usize..3,
    ) {
        let dir = TempDir::new("xcrash-prop");
        let mut batch = WriteBatch::new();
        let mut expect: std::collections::BTreeMap<Vec<u8>, Vec<u8>> = Default::default();
        for (key, value) in ops {
            batch.put(key.clone(), value.clone());
            expect.insert(key, value);
        }
        let (store, dying) = store_with_victim(dir.path(), 3, victim);
        dying.kill();
        // Single-shard batches skip the intent log and die outright —
        // only spanning batches exercise roll-forward. Both outcomes
        // must still be all-or-nothing.
        let spans = expect.keys().map(|k| k[0] as usize % 3).collect::<std::collections::BTreeSet<_>>();
        let failed = store.apply(batch).is_err();
        drop((store, dying));

        let store = healthy_store(dir.path(), 3);
        // A failed apply still commits iff the intent reached disk: only
        // spanning batches write one, and only a dying victim fails.
        let committed = !failed || (spans.len() > 1 && spans.contains(&victim));
        if committed {
            for (key, value) in &expect {
                prop_assert_eq!(store.get(key).unwrap(), Some(value.clone()));
            }
        }
        // All-or-nothing: a spanning batch is either fully present or
        // fully absent after recovery.
        if spans.len() > 1 {
            let present: Vec<bool> =
                expect.keys().map(|k| store.get(k).unwrap().is_some()).collect();
            prop_assert!(present.iter().all(|p| *p) || present.iter().all(|p| !*p));
        }
    }
}
