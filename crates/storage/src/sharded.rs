//! Horizontally sharded storage: N child stores behind one [`KvStore`].
//!
//! Each shard is an independent engine — its own WAL, memtable, and
//! SSTables when the children are [`crate::LsmEngine`]s — so writers
//! touching different shards never contend on storage. A router function
//! (supplied by the layer that owns the key layout) maps every key to
//! its shard; all keys of one logical object must route to the same
//! shard for single-shard commits to stay atomic.
//!
//! # Cross-shard atomicity: the intent log
//!
//! A batch that spans shards cannot be made atomic by the shard WALs
//! alone: each WAL only covers its own shard, and a crash between the
//! per-shard appends would tear the commit. Worse, a shard may have
//! already flushed its fragment into an SSTable — there is nothing to
//! roll *back*. So cross-shard commits roll **forward** through a
//! coordinator intent log (`xcommit.log`):
//!
//! 1. the **full** batch is appended to the intent log (one record,
//!    CRC-framed by the WAL codec) and made durable per the sync
//!    policy — this append is the commit point;
//! 2. the per-shard sub-batches are applied to their shard engines;
//! 3. the intent log is reset to empty — the completion mark.
//!
//! Recovery at open replays a non-empty intent log: re-split the batch
//! by the router and re-apply every sub-batch (puts and deletes are
//! idempotent, so shards that already applied are unaffected). A torn
//! intent record (cut short, or a zero-filled tail) means the commit
//! point was never reached — no shard was touched — and the log is
//! discarded. Either way the commit is all-or-nothing. The log is one
//! [`Wal`] handle, open from the store's open to its drop.
//!
//! Replay is only sound because nothing can overwrite the pending
//! commit's keys between steps 1 and 3: the caller holds the commit
//! locks of every participating shard across the whole protocol, and
//! the intent-log mutex serializes cross-shard commits with each other.
//! The log therefore never holds more than the single most recent —
//! and only possibly-incomplete — cross-shard commit, so replaying it
//! can never resurrect stale values.
//!
//! Once the intent record is durable, the commit *will* complete (if
//! not by the writer, then by recovery) even if a later step returns an
//! error to the caller — the usual fate of a transaction that fails
//! after its commit point.

use crate::batch::{Op, WriteBatch};
use crate::error::{Result, StorageError};
use crate::kv::KvStore;
use crate::wal::{self, SyncPolicy, Wal};
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::Arc;

/// Maps a key to the index of the shard that owns it.
pub type ShardRouter = Box<dyn Fn(&[u8]) -> usize + Send + Sync>;

/// N child [`KvStore`]s behind one routed [`KvStore`] facade.
pub struct ShardedStore {
    shards: Vec<Arc<dyn KvStore>>,
    router: ShardRouter,
    /// Cross-shard intent log; `None` for volatile children (no crash to
    /// recover from — cross-shard applies just run sequentially).
    xlog: Option<Mutex<Wal>>,
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore").field("shards", &self.shards.len()).finish()
    }
}

impl ShardedStore {
    /// Assembles a sharded store and completes any cross-shard commit a
    /// crash left pending in the intent log at `xlog_path`.
    ///
    /// The router must be stable across opens — it determines the
    /// persisted placement of every key — and must agree with the
    /// router used when the data was written.
    pub fn open(
        shards: Vec<Arc<dyn KvStore>>,
        router: ShardRouter,
        xlog_path: Option<PathBuf>,
        sync: SyncPolicy,
    ) -> Result<Self> {
        assert!(shards.len() > 1, "a sharded store needs at least two shards");
        let mut store = ShardedStore { shards, router, xlog: None };
        if let Some(path) = xlog_path {
            store.xlog = Some(Mutex::new(store.recover_pending(path, sync)?));
        }
        Ok(store)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Direct handle to one shard's engine.
    pub fn shard(&self, idx: usize) -> &Arc<dyn KvStore> {
        // pass-lint: allow(l1, reason="debug/test accessor; the index is a caller-supplied constant, not untrusted input")
        &self.shards[idx]
    }

    /// Fallible shard lookup for the apply paths: an out-of-range index
    /// surfaces as an error instead of a panic, keeping recovery and
    /// commit code panic-free even on nonsense input.
    fn shard_at(&self, idx: usize) -> Result<&Arc<dyn KvStore>> {
        self.shards.get(idx).ok_or_else(|| {
            StorageError::corrupt(
                format!("shard-{idx}"),
                format!("shard index {idx} out of range for {} shards", self.shards.len()),
            )
        })
    }

    /// The shard a key routes to.
    pub fn route(&self, key: &[u8]) -> usize {
        (self.router)(key) % self.shards.len()
    }

    /// Applies a batch whose keys all route to `shard` — the fast path a
    /// caller that already partitioned by shard uses to skip re-routing.
    /// One shard engine, one WAL append, same atomicity as any
    /// single-engine batch.
    pub fn apply_to(&self, shard: usize, batch: WriteBatch) -> Result<()> {
        debug_assert!(
            batch.ops().iter().all(|op| self.route(op.key()) == shard),
            "sub-batch contains keys routed to another shard"
        );
        self.shard_at(shard)?.apply(batch)
    }

    /// Applies pre-partitioned per-shard sub-batches as one atomic
    /// cross-shard commit (the intent-log protocol above). The caller
    /// must serialize conflicting writers — in PASS, by holding every
    /// participating shard's commit lock across this call.
    ///
    /// Lock order: called with every participating shard's commit lock
    /// already held (acquired ascending by the caller); takes only the
    /// intent-log mutex, which nests strictly inside the shard locks.
    pub fn apply_split(&self, parts: Vec<(usize, WriteBatch)>) -> Result<()> {
        let mut parts: Vec<(usize, WriteBatch)> =
            parts.into_iter().filter(|(_, b)| !b.is_empty()).collect();
        if parts.len() <= 1 {
            return match parts.pop() {
                Some((shard, batch)) => self.apply_to(shard, batch),
                None => Ok(()),
            };
        }
        for (_, batch) in &parts {
            batch.validate()?;
        }
        match &self.xlog {
            Some(xlog) => {
                let mut log = xlog.lock();
                if !log.is_empty() {
                    // An earlier commit failed after its commit point;
                    // its intent must not replay after this one.
                    log.reset()?;
                }
                // Step 1: durable intent — the commit point. The full
                // batch goes in one WAL record; the router re-derives
                // the split at recovery.
                let mut combined = WriteBatch::new();
                for (_, batch) in &parts {
                    for op in batch.ops() {
                        match op {
                            Op::Put { key, value } => combined.put(key.clone(), value.clone()),
                            Op::Delete { key } => combined.delete(key.clone()),
                        };
                    }
                }
                log.append(&combined.encode())?;
                // Step 2: per-shard applies (each its own WAL append).
                for (shard, batch) in parts {
                    // pass-lint: allow(l7, reason="shard_at returns the per-shard engine, so this is LsmEngine::apply — name-based resolution aliases it to ShardedStore::apply, which would re-enter the intent log")
                    self.shard_at(shard)?.apply(batch)?;
                }
                // Step 3: completion mark — empty the intent log.
                log.reset()
            }
            // Volatile children: nothing survives a crash, so there is
            // no torn state to reconcile — apply sequentially.
            None => {
                for (shard, batch) in parts {
                    self.shard_at(shard)?.apply(batch)?;
                }
                Ok(())
            }
        }
    }

    /// Splits a mixed batch into per-shard sub-batches, preserving op
    /// order within each shard.
    pub fn partition(&self, batch: WriteBatch) -> Vec<(usize, WriteBatch)> {
        let mut per_shard: Vec<WriteBatch> =
            (0..self.shards.len()).map(|_| WriteBatch::new()).collect();
        for op in batch.into_ops() {
            // route() reduces modulo the shard count, so the bucket always
            // exists; `get_mut` keeps this path index-panic-free anyway.
            let shard = self.route(op.key());
            let Some(bucket) = per_shard.get_mut(shard) else {
                debug_assert!(false, "route() returned out-of-range shard {shard}");
                continue;
            };
            match op {
                Op::Put { key, value } => {
                    bucket.put(key, value);
                }
                Op::Delete { key } => {
                    bucket.delete(key);
                }
            }
        }
        per_shard.into_iter().enumerate().filter(|(_, b)| !b.is_empty()).collect()
    }

    /// Replays (roll-forward) a pending cross-shard commit from the
    /// intent log at `path`, empties the log, and returns it open for the
    /// commits to come. A decodable intent record past its commit point
    /// re-applies idempotently; undecodable intent bytes with a valid
    /// CRC are real corruption and surface as an error, never a panic.
    ///
    /// Lock order: runs inside `open`, before the store is shared; takes
    /// no lock.
    fn recover_pending(&self, path: PathBuf, sync: SyncPolicy) -> Result<Wal> {
        let bytes = wal::read(&path)?;
        // Any stop, torn or corrupt, ends the log: a record that does not
        // scan never reached its commit point.
        for payload in wal::scan(&bytes).records {
            let batch = WriteBatch::decode(payload).ok_or_else(|| {
                StorageError::corrupt(&path, "undecodable cross-shard intent record")
            })?;
            for (shard, sub) in self.partition(batch) {
                self.shard_at(shard)?.apply(sub)?;
            }
        }
        // The intent must reach the OS before any shard applies, so a
        // `Lazy` store still writes it through per record.
        let policy = if sync == SyncPolicy::Lazy { SyncPolicy::OnWrite } else { sync };
        let mut log = Wal::open_for_append(&path, policy, bytes.len() as u64)?;
        if !log.is_empty() {
            log.reset()?;
        }
        Ok(log)
    }
}

impl KvStore for ShardedStore {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.shard_at(self.route(key))?.get(key)
    }

    /// Lock order: takes only the intent-log mutex (inside
    /// `apply_split`); callers that serialize commits hold their shard
    /// commit locks *before* entering the store.
    fn apply(&self, batch: WriteBatch) -> Result<()> {
        batch.validate()?;
        self.apply_split(self.partition(batch))
    }

    fn scan_range(&self, start: &[u8], end: Option<&[u8]>) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        // Shards interleave in key space (the router hashes), so merge
        // the per-shard sorted runs back into one sorted result.
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.scan_range(start, end)?);
        }
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    fn flush(&self) -> Result<()> {
        for shard in &self.shards {
            shard.flush()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemEngine;

    fn mem_shards(n: usize) -> Vec<Arc<dyn KvStore>> {
        (0..n).map(|_| Arc::new(MemEngine::new()) as Arc<dyn KvStore>).collect()
    }

    fn byte_router() -> ShardRouter {
        Box::new(|key: &[u8]| key.first().copied().unwrap_or(0) as usize)
    }

    #[test]
    fn routes_reads_and_writes_to_owning_shard() {
        let store =
            ShardedStore::open(mem_shards(4), byte_router(), None, SyncPolicy::OnWrite).unwrap();
        store.put(&[1, 10], b"a").unwrap();
        store.put(&[2, 20], b"b").unwrap();
        assert_eq!(store.get(&[1, 10]).unwrap(), Some(b"a".to_vec()));
        assert_eq!(store.get(&[2, 20]).unwrap(), Some(b"b".to_vec()));
        // The value really lives only on its shard.
        assert_eq!(store.shard(1).get(&[1, 10]).unwrap(), Some(b"a".to_vec()));
        assert_eq!(store.shard(2).get(&[1, 10]).unwrap(), None);
    }

    #[test]
    fn scan_merges_shards_in_key_order() {
        let store =
            ShardedStore::open(mem_shards(3), byte_router(), None, SyncPolicy::OnWrite).unwrap();
        for k in [[2u8, 1], [0, 5], [1, 3], [0, 1], [2, 0]] {
            store.put(&k, b"v").unwrap();
        }
        let keys: Vec<Vec<u8>> =
            store.scan_range(&[0], None).unwrap().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![vec![0, 1], vec![0, 5], vec![1, 3], vec![2, 0], vec![2, 1]]);
    }

    #[test]
    fn cross_shard_apply_lands_on_every_shard() {
        let store =
            ShardedStore::open(mem_shards(2), byte_router(), None, SyncPolicy::OnWrite).unwrap();
        let mut batch = WriteBatch::new();
        batch.put(vec![0, 1], b"a".to_vec());
        batch.put(vec![1, 1], b"b".to_vec());
        store.apply(batch).unwrap();
        assert_eq!(store.shard(0).get(&[0, 1]).unwrap(), Some(b"a".to_vec()));
        assert_eq!(store.shard(1).get(&[1, 1]).unwrap(), Some(b"b".to_vec()));
    }
}
