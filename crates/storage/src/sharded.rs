//! Horizontally sharded storage: N child stores behind one [`KvStore`].
//!
//! Each shard is an independent engine — its own WAL, memtable, and
//! SSTables when the children are [`crate::LsmEngine`]s — so writers
//! touching different shards never contend on storage. A router function
//! (supplied by the layer that owns the key layout) maps every key to
//! its shard; all keys of one logical object must route to the same
//! shard for single-shard commits to stay atomic. [`KvStore::apply`] is
//! the only write entry: it routes each op once and sends a batch on one
//! shard straight to that shard's engine.
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
//! 1. the **full** batch, encoded once as it stands, is appended to the
//!    intent log (one record, CRC-framed by the WAL codec) and made
//!    durable per the sync policy — this append is the commit point;
//! 2. the batch is split by the router and the sub-batches are applied
//!    to their shard engines in ascending shard order;
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
use std::path::{Path, PathBuf};
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
    fn route(&self, key: &[u8]) -> usize {
        (self.router)(key) % self.shards.len()
    }

    /// The shard of each op of `batch`, in op order.
    fn routes(&self, batch: &WriteBatch) -> Vec<usize> {
        batch.ops().iter().map(|op| self.route(op.key())).collect()
    }

    /// The cross-shard commit (the intent-log protocol above): the batch
    /// is encoded as it stands into the intent record, then split and
    /// applied shard by shard. `routes` holds the shard of each op.
    ///
    /// Lock order: called with every participating shard's commit lock
    /// already held (the caller's, acquired ascending); takes only the
    /// intent-log mutex, which nests strictly inside the shard locks.
    fn apply_across(&self, batch: WriteBatch, routes: &[usize]) -> Result<()> {
        // Volatile children: nothing survives a crash, so there is no
        // torn state to reconcile — apply shard by shard.
        let Some(xlog) = &self.xlog else { return self.apply_per_shard(batch, routes) };
        let mut log = xlog.lock();
        if !log.is_empty() {
            // An earlier commit failed after its commit point; its
            // intent must not replay after this one.
            log.reset()?;
        }
        // Step 1: durable intent — the commit point. The router
        // re-derives the split at recovery.
        log.append(&batch.encode())?;
        // Step 2: per-shard applies (each its own WAL append).
        // pass-lint: allow(l7, reason="apply_per_shard calls the per-shard engines' apply (LsmEngine::apply); name-based resolution aliases it to ShardedStore::apply, which would re-enter the intent log")
        self.apply_per_shard(batch, routes)?;
        // Step 3: completion mark — empty the intent log.
        log.reset()
    }

    /// Splits `batch` by `routes` (the shard of each op), keeping op
    /// order within a shard, and applies the sub-batches in ascending
    /// shard order.
    ///
    /// Lock order: takes no lock of its own; inside `apply_across` it
    /// runs under the intent-log mutex.
    fn apply_per_shard(&self, batch: WriteBatch, routes: &[usize]) -> Result<()> {
        let mut parts: Vec<WriteBatch> = self.shards.iter().map(|_| WriteBatch::new()).collect();
        for (op, &shard) in batch.into_ops().into_iter().zip(routes) {
            let Some(part) = parts.get_mut(shard) else {
                return Err(StorageError::corrupt(
                    format!("shard-{shard}"),
                    format!("op routed to shard {shard} of {}", self.shards.len()),
                ));
            };
            match op {
                Op::Put { key, value } => part.put(key, value),
                Op::Delete { key } => part.delete(key),
            };
        }
        for (engine, part) in self.shards.iter().zip(parts).filter(|(_, b)| !b.is_empty()) {
            engine.apply(part)?;
        }
        Ok(())
    }

    /// Replays (roll-forward) a pending cross-shard commit from the
    /// intent log at `path`, empties the log, and returns it open for the
    /// commits to come (a log created here has its directory synced). A
    /// decodable intent record past its commit point re-applies
    /// idempotently; undecodable intent bytes with a valid CRC are real
    /// corruption and surface as an error, never a panic.
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
            let routes = self.routes(&batch);
            self.apply_per_shard(batch, &routes)?;
        }
        // The intent must reach the OS before any shard applies, so a
        // `Lazy` store still writes it through per record.
        let policy = if sync == SyncPolicy::Lazy { SyncPolicy::OnWrite } else { sync };
        let created = !path.exists();
        let mut log = Wal::open_for_append(&path, policy, bytes.len() as u64)?;
        if created {
            // A new log's directory entry must be durable before an
            // intent written to it can be the commit point.
            let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
            crate::manifest::sync_dir(dir.unwrap_or(Path::new(".")))?;
        }
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

    /// Routes each op once. A batch on one shard goes straight to that
    /// shard's engine; a batch that spans shards commits through the
    /// intent log (`apply_across`).
    ///
    /// Lock order: takes only the intent-log mutex (inside
    /// `apply_across`); callers that serialize commits hold their shard
    /// commit locks *before* entering the store.
    fn apply(&self, batch: WriteBatch) -> Result<()> {
        batch.validate()?;
        let routes = self.routes(&batch);
        match routes.first() {
            None => Ok(()),
            Some(&shard) if routes.iter().all(|&s| s == shard) => {
                self.shard_at(shard)?.apply(batch)
            }
            Some(_) => self.apply_across(batch, &routes),
        }
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
        let shards = mem_shards(4);
        let store =
            ShardedStore::open(shards.clone(), byte_router(), None, SyncPolicy::OnWrite).unwrap();
        store.put(&[1, 10], b"a").unwrap();
        store.put(&[2, 20], b"b").unwrap();
        assert_eq!(store.get(&[1, 10]).unwrap(), Some(b"a".to_vec()));
        assert_eq!(store.get(&[2, 20]).unwrap(), Some(b"b".to_vec()));
        // The value really lives only on its shard.
        assert_eq!(shards[1].get(&[1, 10]).unwrap(), Some(b"a".to_vec()));
        assert_eq!(shards[2].get(&[1, 10]).unwrap(), None);
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
        let shards = mem_shards(2);
        let store =
            ShardedStore::open(shards.clone(), byte_router(), None, SyncPolicy::OnWrite).unwrap();
        let mut batch = WriteBatch::new();
        batch.put(vec![0, 1], b"a".to_vec());
        batch.put(vec![1, 1], b"b".to_vec());
        store.apply(batch).unwrap();
        assert_eq!(shards[0].get(&[0, 1]).unwrap(), Some(b"a".to_vec()));
        assert_eq!(shards[1].get(&[1, 1]).unwrap(), Some(b"b".to_vec()));
    }
}
