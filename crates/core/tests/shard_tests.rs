//! Sharded-store tests: disk layout compatibility, cross-shard crash
//! atomicity (the multi-WAL extension of the PR 1 torn-WAL test), and
//! the global-commit-version invariants snapshots rely on.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code asserts by panicking

use pass_core::{keyspace, Pass, PassConfig};
use pass_index::{Direction, TraverseOpts};
use pass_model::{
    keys, Attributes, ProvenanceBuilder, Reading, SensorId, SiteId, Timestamp, ToolDescriptor,
    TupleSet, TupleSetId,
};
use pass_storage::tempdir::TempDir;
use pass_storage::{
    EngineOptions, KvStore, LsmEngine, ShardedStore, StorageError, SyncPolicy, WriteBatch,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn mk(seq: i64) -> TupleSet {
    let at = Timestamp(seq as u64 * 1_000);
    let readings = vec![Reading::new(SensorId(0), at).with("v", seq)];
    let attrs = Attributes::new().with(keys::DOMAIN, "shardtest").with("seq", seq);
    let record = ProvenanceBuilder::new(SiteId(9), at)
        .attrs(&attrs)
        .build(TupleSet::content_digest_of(&readings));
    TupleSet::new(record, readings).expect("digest matches by construction")
}

/// First generated tuple set landing on `shard` (of `shards`).
fn mk_on_shard(shard: usize, shards: usize, salt: i64) -> TupleSet {
    (0..10_000)
        .map(|i| mk(salt * 10_000 + i))
        .find(|ts| keyspace::shard_of(ts.provenance.id, shards) == shard)
        .expect("hash reaches every shard well before 10k draws")
}

// ---------------------------------------------------------------------------
// Layout compatibility
// ---------------------------------------------------------------------------

#[test]
fn shards_one_layout_is_byte_compatible_with_pre_shard_store() {
    let dir = TempDir::new("shard-compat-1");
    let pass = Pass::open(PassConfig::disk(SiteId(1), dir.path()).with_shards(1)).unwrap();
    pass.ingest(&mk(1)).unwrap();
    drop(pass);
    // Exactly the pre-sharding files: engine rooted at the store dir,
    // no SHARDS marker, no shard subdirectories, no intent log.
    assert!(dir.path().join("wal.log").exists());
    assert!(!dir.path().join("SHARDS").exists());
    assert!(!dir.path().join("shard-00").exists());
    assert!(!dir.path().join("xcommit.log").exists());
}

#[test]
fn pre_shard_store_reopens_as_single_shard_despite_config() {
    let dir = TempDir::new("shard-compat-reopen");
    // A store created before sharding existed (default config).
    let pass = Pass::open(PassConfig::disk(SiteId(1), dir.path())).unwrap();
    let id = pass.ingest(&mk(7)).unwrap();
    drop(pass);

    // Reopening with shards = 4 must honor the on-disk layout, not the
    // config: same single engine, same data, nothing repartitioned.
    let pass = Pass::open(PassConfig::disk(SiteId(1), dir.path()).with_shards(4)).unwrap();
    assert_eq!(pass.shards(), 1, "persisted layout wins over config");
    assert!(pass.contains(id));
    assert_eq!(pass.get_data(id).unwrap().unwrap().len(), 1);
    assert!(!dir.path().join("shard-00").exists(), "no shard dirs sprouted");
    assert!(!dir.path().join("SHARDS").exists());
    pass.ingest(&mk(8)).unwrap();
    assert!(pass.verify_consistency().unwrap().is_consistent());
}

#[test]
fn sharded_layout_persists_across_reopen() {
    let dir = TempDir::new("shard-layout");
    let sets: Vec<TupleSet> = (0..32).map(mk).collect();
    let ids: Vec<TupleSetId> = sets.iter().map(|ts| ts.provenance.id).collect();
    let pass = Pass::open(PassConfig::disk(SiteId(1), dir.path()).with_shards(4)).unwrap();
    assert_eq!(pass.shards(), 4);
    pass.ingest_batch(&sets).unwrap();
    drop(pass);
    assert!(dir.path().join("SHARDS").exists());
    assert!(dir.path().join("shard-00").join("wal.log").exists());

    // Reopen with a *different* configured count: layout wins.
    let pass = Pass::open(PassConfig::disk(SiteId(1), dir.path()).with_shards(1)).unwrap();
    assert_eq!(pass.shards(), 4);
    for id in &ids {
        assert!(pass.contains(*id));
        assert!(pass.has_data(*id));
    }
    assert!(pass.verify_consistency().unwrap().is_consistent());
}

#[test]
fn cross_shard_batch_survives_reopen_consistently() {
    let dir = TempDir::new("shard-xbatch");
    let sets: Vec<TupleSet> = (100..164).map(mk).collect();
    // The batch really spans shards.
    let shards_hit: std::collections::HashSet<usize> =
        sets.iter().map(|ts| keyspace::shard_of(ts.provenance.id, 4)).collect();
    assert!(shards_hit.len() > 1, "corpus must span shards");

    let pass = Pass::open(PassConfig::disk(SiteId(1), dir.path()).with_shards(4)).unwrap();
    pass.ingest_batch(&sets).unwrap();
    drop(pass);

    let pass = Pass::open(PassConfig::disk(SiteId(1), dir.path())).unwrap();
    assert_eq!(pass.len(), sets.len());
    for ts in &sets {
        assert_eq!(
            pass.get_data(ts.provenance.id).unwrap().as_deref(),
            Some(&ts.readings[..]),
            "readings round-trip through the shard engines"
        );
    }
    assert!(pass.verify_consistency().unwrap().is_consistent());
    // The completed commit left no pending intent behind.
    let xlog = dir.path().join("xcommit.log");
    assert!(!xlog.exists() || std::fs::metadata(&xlog).unwrap().len() == 0);
}

// ---------------------------------------------------------------------------
// Cross-shard crash injection
// ---------------------------------------------------------------------------

/// A shard engine that "dies" on command: applies fail as if the
/// process had been killed mid-commit (the write never reaches this
/// shard's WAL).
struct DyingShard {
    inner: LsmEngine,
    dead: AtomicBool,
}

impl DyingShard {
    fn alive(inner: LsmEngine) -> Self {
        DyingShard { inner, dead: AtomicBool::new(false) }
    }
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

/// Builds an injection harness over an existing 2-shard store directory:
/// shard `victim` can be killed mid-commit, the other stays healthy.
fn injection_store(dir: &std::path::Path, victim: usize) -> (Arc<ShardedStore>, Arc<DyingShard>) {
    let open = |i: usize| {
        LsmEngine::open(dir.join(format!("shard-{i:02}")), EngineOptions::default()).unwrap()
    };
    let dying = Arc::new(DyingShard::alive(open(victim)));
    let shards: Vec<Arc<dyn KvStore>> = (0..2)
        .map(|i| {
            if i == victim {
                Arc::clone(&dying) as Arc<dyn KvStore>
            } else {
                Arc::new(open(i)) as Arc<dyn KvStore>
            }
        })
        .collect();
    let store = ShardedStore::open(
        shards,
        Box::new(|key: &[u8]| keyspace::shard_of_key(key, 2)),
        Some(dir.join("xcommit.log")),
        SyncPolicy::OnWrite,
    )
    .unwrap();
    (Arc::new(store), dying)
}

/// One batch holding the record, readings and marker keys of every set,
/// in the order given — the batch a group commit of `sets` writes.
fn triples(sets: &[&TupleSet]) -> WriteBatch {
    use pass_model::codec::Encode;
    let mut batch = WriteBatch::new();
    for ts in sets {
        let id = ts.provenance.id;
        let mut data_buf = Vec::new();
        ts.readings.encode_into(&mut data_buf);
        batch.put(keyspace::key(keyspace::RECORD, id).to_vec(), ts.provenance.encode_to_vec());
        batch.put(keyspace::key(keyspace::DATA, id).to_vec(), data_buf);
        batch.put(keyspace::key(keyspace::MARKER, id).to_vec(), vec![1u8]);
    }
    batch
}

/// The multi-WAL extension of PR 1's torn-WAL test: a crash *between*
/// the per-shard WAL appends of a cross-shard commit — shard 0 applied,
/// shard 1 never did — must recover to the whole commit (the intent was
/// durable: roll forward), never to a torn half.
#[test]
fn crash_between_shard_wal_appends_rolls_forward() {
    let dir = TempDir::new("shard-crash-forward");
    let pass = Pass::open(PassConfig::disk(SiteId(1), dir.path()).with_shards(2)).unwrap();
    let baseline = pass.ingest(&mk(1)).unwrap();
    pass.flush().unwrap();
    drop(pass);

    let on0 = mk_on_shard(0, 2, 2);
    let on1 = mk_on_shard(1, 2, 3);
    // Shards apply in ascending order: shard 0 applies, then shard 1 dies.
    let (store, dying) = injection_store(dir.path(), 1);
    dying.kill();
    let err = store.apply(triples(&[&on1, &on0])).expect_err("shard 1 dies mid-commit");
    assert!(err.to_string().contains("injected crash"), "unexpected error: {err}");
    drop(store);
    drop(dying);

    // The tear is real: shard 0's WAL has its half, shard 1's does not.
    let s0 = LsmEngine::open(dir.path().join("shard-00"), EngineOptions::default()).unwrap();
    let s1 = LsmEngine::open(dir.path().join("shard-01"), EngineOptions::default()).unwrap();
    assert!(s0.get(&keyspace::key(keyspace::RECORD, on0.provenance.id)).unwrap().is_some());
    assert!(s1.get(&keyspace::key(keyspace::RECORD, on1.provenance.id)).unwrap().is_none());
    drop((s0, s1));

    // Reopen: recovery replays the durable intent — all, not half.
    let pass = Pass::open(PassConfig::disk(SiteId(1), dir.path())).unwrap();
    assert_eq!(pass.shards(), 2);
    for id in [baseline, on0.provenance.id, on1.provenance.id] {
        assert!(pass.contains(id), "commit is all-or-nothing: ALL after durable intent");
        assert!(pass.has_data(id));
    }
    assert!(pass.verify_consistency().unwrap().is_consistent());
}

/// The other half of all-or-nothing: a crash *during* the intent append
/// (torn intent record, no shard touched) must recover to NONE of the
/// commit.
#[test]
fn torn_cross_shard_intent_recovers_to_nothing() {
    let dir = TempDir::new("shard-crash-none");
    let pass = Pass::open(PassConfig::disk(SiteId(1), dir.path()).with_shards(2)).unwrap();
    let baseline = pass.ingest(&mk(1)).unwrap();
    pass.flush().unwrap();
    drop(pass);

    let on0 = mk_on_shard(0, 2, 4);
    let on1 = mk_on_shard(1, 2, 5);
    // Kill shard 0, the first in apply order, so no shard applies and
    // the durable intent is the only trace of the commit; then tear it:
    // every truncation point inside the intent record must discard the
    // whole commit.
    let (store, dying) = injection_store(dir.path(), 0);
    dying.kill();
    let err = store.apply(triples(&[&on0, &on1])).expect_err("first (dying) shard fails");
    assert!(err.to_string().contains("injected crash"));
    drop(store);
    drop(dying);
    let s0 = LsmEngine::open(dir.path().join("shard-00"), EngineOptions::default()).unwrap();
    let s1 = LsmEngine::open(dir.path().join("shard-01"), EngineOptions::default()).unwrap();
    assert!(s0.get(&keyspace::key(keyspace::RECORD, on0.provenance.id)).unwrap().is_none());
    assert!(s1.get(&keyspace::key(keyspace::RECORD, on1.provenance.id)).unwrap().is_none());
    drop((s0, s1));

    let xlog = dir.path().join("xcommit.log");
    let full = std::fs::metadata(&xlog).unwrap().len();
    assert!(full > 8, "intent record was written");
    for cut in [4u64, 8, full / 2, full - 1] {
        let bytes = std::fs::read(&xlog).unwrap();
        std::fs::write(&xlog, &bytes[..cut as usize]).unwrap();

        let pass = Pass::open(PassConfig::disk(SiteId(1), dir.path())).unwrap();
        assert!(pass.contains(baseline));
        assert!(!pass.contains(on0.provenance.id), "cut at {cut}: torn intent must not apply");
        assert!(!pass.contains(on1.provenance.id), "cut at {cut}");
        assert!(pass.verify_consistency().unwrap().is_consistent());
        drop(pass);
        // Recovery cleared the torn log; restore the full bytes to test
        // the next truncation point.
        assert_eq!(std::fs::metadata(&xlog).map(|m| m.len()).unwrap_or(0), 0, "cut at {cut}");
        std::fs::write(&xlog, &bytes).unwrap();
    }

    // Un-truncated, the durable intent rolls forward as usual.
    let pass = Pass::open(PassConfig::disk(SiteId(1), dir.path())).unwrap();
    assert!(pass.contains(on0.provenance.id));
    assert!(pass.contains(on1.provenance.id));
    assert!(pass.verify_consistency().unwrap().is_consistent());
}

// ---------------------------------------------------------------------------
// Global commit version: lineage closures + snapshots
// ---------------------------------------------------------------------------

/// A cross-shard commit publishes under one *global* commit version: a
/// snapshot taken after the commit must see the grown lineage closure,
/// and an older snapshot must keep answering from its own version.
#[test]
fn closure_cache_tracks_global_version_across_cross_shard_commits() {
    let config = PassConfig::memory(SiteId(1)).with_shards(4);
    let pass = Pass::open(config).unwrap();
    let root = pass
        .capture(Attributes::new().with(keys::DOMAIN, "roots"), Vec::new(), Timestamp(1))
        .unwrap();

    let s1 = pass.snapshot();
    let lin1 = s1.lineage(root, Direction::Descendants, TraverseOpts::default()).unwrap();
    assert!(lin1.is_empty(), "no descendants yet");

    // One cross-shard batch of children of the root.
    let tool = ToolDescriptor::new("xform", "1.0");
    let children: Vec<TupleSet> = (0..16)
        .map(|i| {
            let at = Timestamp(100 + i);
            let readings = vec![Reading::new(SensorId(1), at).with("v", i as i64)];
            let record = ProvenanceBuilder::new(SiteId(1), at)
                .attr("seq", i as i64)
                .derived_from(root, tool.clone())
                .build(TupleSet::content_digest_of(&readings));
            TupleSet::new(record, readings).unwrap()
        })
        .collect();
    let spans: std::collections::HashSet<usize> =
        children.iter().map(|ts| keyspace::shard_of(ts.provenance.id, pass.shards())).collect();
    assert!(spans.len() > 1, "batch must span shards");
    pass.ingest_batch(&children).unwrap();

    let s2 = pass.snapshot();
    assert!(s2.version() > s1.version(), "global version advanced");
    let lin2 = s2.lineage(root, Direction::Descendants, TraverseOpts::default()).unwrap();
    assert_eq!(lin2.len(), children.len(), "fresh snapshot sees the whole cross-shard commit");

    // The old snapshot still answers from its own version — v2's
    // closure must not leak into v1 (and vice versa).
    let lin1_again = s1.lineage(root, Direction::Descendants, TraverseOpts::default()).unwrap();
    assert!(lin1_again.is_empty(), "stale snapshot keeps its pinned closure");
    let lin2_again = s2.lineage(root, Direction::Descendants, TraverseOpts::default()).unwrap();
    assert_eq!(lin2_again.len(), children.len());
}

/// A sharded memory store answers exactly like the single-shard store:
/// same records, same readings, same query results.
#[test]
fn sharded_store_is_semantically_identical_to_single_shard() {
    let sets: Vec<TupleSet> = (0..64).map(mk).collect();
    let single = Pass::open_memory(SiteId(1));
    let sharded = Pass::open(PassConfig::memory(SiteId(1)).with_shards(4)).unwrap();
    single.ingest_batch(&sets).unwrap();
    sharded.ingest_batch(&sets).unwrap();

    let mut ids_a = single.ids();
    let mut ids_b = sharded.ids();
    ids_a.sort_unstable();
    ids_b.sort_unstable();
    assert_eq!(ids_a, ids_b);
    for id in &ids_a {
        assert_eq!(single.get_data(*id).unwrap(), sharded.get_data(*id).unwrap());
    }
    let q = r#"FIND WHERE seq >= 10 AND seq < 20"#;
    assert_eq!(
        single.query_text(q).unwrap().records.len(),
        sharded.query_text(q).unwrap().records.len()
    );
    assert!(sharded.verify_consistency().unwrap().is_consistent());
}
