//! Commit sharding: per-shard locks, engines, and the disk layout.
//!
//! The keyspace is hash-partitioned over `TupleSetId`
//! ([`crate::keyspace::shard_of`]); every shard owns a commit lock and,
//! when sharding is on, its own storage engine (WAL + memtable +
//! SSTables under `shard-NN/`). Writers serialize only per shard:
//!
//! * a **single-shard** batch takes one shard lock — writers on other
//!   shards commit truly concurrently, each through its own WAL;
//! * a **cross-shard** batch takes every participating shard's lock in
//!   ascending index order (the deadlock-free total order).
//!
//! Either way the commit hands its one batch to `KvStore::apply`. The
//! storage layer's [`pass_storage::ShardedStore`] routes it: a batch on
//! one shard goes straight to that shard's engine, and a batch that
//! spans shards commits through the intent-log protocol, which makes the
//! multi-WAL write all-or-nothing across crashes.
//!
//! Commit *visibility* stays global: every commit — whatever its shard
//! set — publishes one new in-memory state, one version above the last
//! (see `Pass::commit`), so snapshots and subscription tails
//! observe one total commit order, exactly as before sharding.
//!
//! # Disk layout
//!
//! `shards = 1` is byte-identical to the pre-sharding layout: the
//! engine roots at the store directory itself (`wal.log`, `MANIFEST`,
//! `sst-*.sst`), no extra files. `shards = N > 1` writes a `SHARDS`
//! marker file (fsynced) and roots shard `i` at `shard-NN/`; the
//! cross-shard intent log lives at `xcommit.log`. Every sharded open
//! fsyncs the store directory once its shard directories exist, so the
//! marker's and the shards' entries are durable before the first
//! commit. On reopen the on-disk layout wins over the configured count —
//! a store's sharding is decided at creation, like its key encoding.

use crate::error::Result;
use crate::keyspace;
use parking_lot::{Mutex, MutexGuard};
use pass_model::TupleSetId;
use pass_storage::{EngineOptions, KvStore, LsmEngine, ShardedStore, StorageError};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// Marker file naming the shard count of a sharded store directory.
const SHARDS_FILE: &str = "SHARDS";
/// Cross-shard intent log (see [`pass_storage::sharded`]).
const XLOG_FILE: &str = "xcommit.log";

/// Per-shard commit locks. The storage the commit path writes through is
/// one [`KvStore`]; a partitioned store routes each batch itself.
pub(crate) struct Sharding {
    locks: Box<[Mutex<()>]>,
}

impl Sharding {
    /// `count` commit locks (≥ 1).
    pub(crate) fn new(count: usize) -> Self {
        Sharding { locks: (0..count).map(|_| Mutex::new(())).collect() }
    }

    /// Number of commit shards (≥ 1).
    pub(crate) fn count(&self) -> usize {
        self.locks.len()
    }

    /// The shard that owns `id`.
    pub(crate) fn shard_of(&self, id: TupleSetId) -> usize {
        keyspace::shard_of(id, self.count())
    }

    /// Locks one shard's commit lock.
    ///
    /// Lock order: first rung of the commit path — shard commit locks
    /// precede the intent-log mutex and the `publish_order` mutex.
    pub(crate) fn lock_one(&self, shard: usize) -> MutexGuard<'_, ()> {
        // pass-lint: allow(l1, reason="shard comes from shard_of(), which reduces modulo the lock count")
        self.locks[shard].lock()
    }

    /// Locks a set of shards in ascending index order — the global lock
    /// order that makes concurrent cross-shard committers deadlock-free.
    /// `shards` must be sorted and deduplicated.
    ///
    /// Lock order: first rung of the commit path — shard commit locks
    /// (ascending) precede the intent-log mutex and the `publish_order`
    /// mutex. This helper is the only sanctioned way to take more than
    /// one shard lock.
    pub(crate) fn lock_many<'a>(&'a self, shards: &[usize]) -> Vec<MutexGuard<'a, ()>> {
        debug_assert!(shards.windows(2).all(|w| w[0] < w[1]), "lock order must be ascending");
        // pass-lint: allow(l1, reason="shard indexes come from shard_of(), which reduces modulo the lock count")
        shards.iter().map(|&s| self.locks[s].lock()).collect()
    }
}

/// What `open_disk` hands back: the routed store, the shard structure,
/// and the typed engine handles (one per shard) so `Pass::open` can
/// attach a maintenance worker to each.
pub(crate) type DiskBackend = (Arc<dyn KvStore>, Sharding, Vec<Arc<LsmEngine>>);

/// Opens the disk backend honoring the sharding layout rules: the
/// persisted layout (a `SHARDS` file, or a pre-sharding single-engine
/// directory) wins over `requested`; only a fresh directory adopts the
/// requested count.
pub(crate) fn open_disk(
    dir: &Path,
    options: &EngineOptions,
    requested: usize,
) -> Result<DiskBackend> {
    let effective = effective_shards(dir, requested)?;
    if effective == 1 {
        let engine = Arc::new(LsmEngine::open(dir.to_path_buf(), options.clone())?);
        return Ok((Arc::clone(&engine) as Arc<dyn KvStore>, Sharding::new(1), vec![engine]));
    }
    std::fs::create_dir_all(dir)
        .map_err(|e| StorageError::io(format!("creating store dir {}", dir.display()), e))?;
    let marker = dir.join(SHARDS_FILE);
    if !marker.exists() {
        std::fs::File::create(&marker)
            .and_then(|mut file| {
                file.write_all(format!("{effective}\n").as_bytes())?;
                file.sync_all()
            })
            .map_err(|e| StorageError::io("writing SHARDS marker", e))?;
    }
    let mut typed: Vec<Arc<LsmEngine>> = Vec::with_capacity(effective);
    let mut engines: Vec<Arc<dyn KvStore>> = Vec::with_capacity(effective);
    for i in 0..effective {
        let shard_dir = dir.join(format!("shard-{i:02}"));
        let engine = Arc::new(LsmEngine::open(shard_dir, options.clone())?);
        engines.push(Arc::clone(&engine) as Arc<dyn KvStore>);
        typed.push(engine);
    }
    pass_storage::manifest::sync_dir(dir)?;
    let router: pass_storage::ShardRouter =
        Box::new(move |key: &[u8]| keyspace::shard_of_key(key, effective));
    let sharded = ShardedStore::open(engines, router, Some(dir.join(XLOG_FILE)), options.sync)?;
    Ok((Arc::new(sharded), Sharding::new(effective), typed))
}

/// Opens the memory backend with `requested` shards (no layout to
/// honor — volatile stores are born fresh).
pub(crate) fn open_memory(requested: usize) -> Result<(Arc<dyn KvStore>, Sharding)> {
    if requested <= 1 {
        return Ok((Arc::new(pass_storage::MemEngine::new()), Sharding::new(1)));
    }
    let engines: Vec<Arc<dyn KvStore>> = (0..requested)
        .map(|_| Arc::new(pass_storage::MemEngine::new()) as Arc<dyn KvStore>)
        .collect();
    let router: pass_storage::ShardRouter =
        Box::new(move |key: &[u8]| keyspace::shard_of_key(key, requested));
    let sharded = ShardedStore::open(engines, router, None, pass_storage::SyncPolicy::default())?;
    Ok((Arc::new(sharded), Sharding::new(requested)))
}

/// Resolves the shard count for a disk directory: `SHARDS` marker, then
/// pre-sharding single-engine layout, then the requested count.
fn effective_shards(dir: &Path, requested: usize) -> Result<usize> {
    let marker = dir.join(SHARDS_FILE);
    if let Ok(text) = std::fs::read_to_string(&marker) {
        let n: usize = text
            .trim()
            .parse()
            .map_err(|_| StorageError::corrupt(&marker, "unparseable shard count"))?;
        if n < 2 {
            return Err(StorageError::corrupt(&marker, "shard count below 2").into());
        }
        return Ok(n);
    }
    // A pre-sharding store has its engine rooted at `dir` directly —
    // recognizable by its manifest or a WAL.
    if dir.join(pass_storage::manifest::MANIFEST_NAME).exists() || dir.join("wal.log").exists() {
        return Ok(1);
    }
    Ok(requested.max(1))
}
