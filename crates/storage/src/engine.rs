//! The durable log-structured engine.
//!
//! A classic LSM shape, kept deliberately synchronous on the write path
//! so tests and crash-injection sweeps are deterministic:
//!
//! * writes append a batch to the WAL, then apply to the memtable;
//! * a full memtable flushes to a new SSTable and resets the WAL;
//! * the live table set is owned by the crash-safe manifest
//!   ([`crate::manifest`]): flushes and compactions commit by replacing
//!   it with the whole new list, so a crash leaves either the old or the
//!   new edition — never a mix — and table files the manifest does not
//!   name are debris the next open deletes;
//! * compaction never runs on the write path: a flush only signals the
//!   attached maintenance worker ([`crate::maintenance`]), which drains
//!   [`LsmEngine::maybe_compact`] — the tiered picker of
//!   [`crate::compaction`]. [`LsmEngine::force_compact`] merges every
//!   live table through the same body. Either way the merge itself runs
//!   *outside* the write lock, and drops tombstones exactly when its
//!   run includes the oldest table. An engine with no worker attached
//!   never compacts on its own;
//! * point reads go through the shared [`BlockCache`] when
//!   [`EngineOptions::cache`] is set; range scans stream each table's
//!   blocks straight from its file, so a scan cannot flush the hot set.
//!
//! Recovery order on open: read the manifest → open listed tables →
//! set the next table id above every table file on disk → delete
//! unlisted table files → replay the WAL's valid prefix into the
//! memtable.

use crate::batch::WriteBatch;
use crate::cache::BlockCache;
use crate::compaction::{self, TableInfo};
use crate::error::{Result, StorageError};
use crate::iter::{Cursor, IterCursor, Merge};
use crate::kv::KvStore;
use crate::maintenance::Signal;
use crate::manifest;
use crate::memtable::MemTable;
use crate::sstable::{SsTable, TableOptions};
use crate::wal::{self, Stop, SyncPolicy, Wal};
use parking_lot::{Mutex, RwLock};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const WAL_FILE: &str = "wal.log";

/// Write-stall threshold: with a maintenance worker attached, a writer
/// whose flush leaves at least this many live tables pauses (briefly,
/// off-lock) until the worker drains the backlog. Without backpressure
/// a fast ingester on a starved host outruns the worker forever and
/// reads degrade exactly as if compaction were off.
const STALL_TABLES: usize = 24;

/// Engine tuning.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Flush the memtable once it holds roughly this many bytes.
    pub memtable_bytes: usize,
    /// SSTable block/bloom parameters.
    pub table: TableOptions,
    /// WAL durability policy.
    pub sync: SyncPolicy,
    /// Shared cache for decoded data blocks; `None` ⇒ uncached reads.
    /// Share one [`Arc`] across shard engines to give them one budget.
    pub cache: Option<Arc<BlockCache>>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            memtable_bytes: 4 << 20,
            table: TableOptions::default(),
            sync: SyncPolicy::OnWrite,
            cache: None,
        }
    }
}

impl EngineOptions {
    /// Convenience: attach a fresh block cache of `bytes` capacity.
    pub fn with_cache_bytes(mut self, bytes: usize) -> Self {
        self.cache = Some(Arc::new(BlockCache::new(bytes)));
        self
    }
}

/// Observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Bytes resident in the memtable.
    pub memtable_bytes: usize,
    /// Entries resident in the memtable.
    pub memtable_entries: usize,
    /// Live SSTables.
    pub num_tables: usize,
    /// Entries across live SSTables (tombstones included).
    pub table_entries: u64,
    /// On-disk bytes across live SSTables.
    pub live_table_bytes: u64,
    /// Flushes performed since open.
    pub flushes: u64,
    /// Compactions performed since open.
    pub compactions: u64,
    /// Block-cache hits (shared cache totals when engines share one).
    pub cache_hits: u64,
    /// Block-cache misses.
    pub cache_misses: u64,
    /// True when the last open found (and discarded) a torn WAL tail.
    pub recovered_torn_tail: bool,
}

/// One live table plus its manifest id.
struct TableHandle {
    table: Arc<SsTable>,
    id: u64,
}

struct Inner {
    dir: PathBuf,
    opts: EngineOptions,
    wal: Wal,
    mem: MemTable,
    /// Live tables, newest first (mirrors the manifest order).
    tables: Vec<TableHandle>,
    /// The next table id: above every table file this engine has seen.
    next_id: u64,
    flushes: u64,
    compactions: u64,
    recovered_torn_tail: bool,
    /// The attached maintenance worker's wake-up; flushes poke it.
    flush_signal: Option<Arc<Signal>>,
}

impl Inner {
    fn ids(&self) -> Vec<u64> {
        self.tables.iter().map(|h| h.id).collect()
    }
}

/// A durable [`KvStore`] rooted at a directory.
pub struct LsmEngine {
    inner: RwLock<Inner>,
    /// Serializes compactions (background worker vs forced) so at most
    /// one merge is in flight per engine.
    compact_lock: Mutex<()>,
}

impl std::fmt::Debug for LsmEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read();
        f.debug_struct("LsmEngine")
            .field("dir", &inner.dir)
            .field("tables", &inner.tables.len())
            .finish()
    }
}

impl LsmEngine {
    /// Opens (creating if necessary) an engine at `dir`.
    pub fn open(dir: impl Into<PathBuf>, opts: EngineOptions) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| StorageError::io(format!("creating engine dir {}", dir.display()), e))?;

        // One directory listing serves the manifest's refusal rule, the
        // id allocator and the debris sweep below.
        let on_disk = list_table_files(&dir)?;
        let live = manifest::open(&dir, !on_disk.is_empty())?;

        let mut tables = Vec::with_capacity(live.len());
        for &id in &live {
            let table = SsTable::open_with_cache(table_path(&dir, id), opts.cache.clone())?;
            tables.push(TableHandle { table: Arc::new(table), id });
        }

        // Counted before the sweep, so no id of a table file that was
        // ever written here, debris included, is handed out again.
        let next_id = on_disk.iter().map(|(id, _)| id + 1).max().unwrap_or(1);

        // Remove table files the manifest does not know about: debris
        // from a crash mid-flush (never registered) or mid-compaction
        // cleanup (already replaced).
        for (id, path) in &on_disk {
            if !live.contains(id) {
                // pass-lint: allow(l8, reason="best-effort debris sweep; an unremovable orphan is re-swept on the next open and never read, because the manifest does not reference it")
                let _ = std::fs::remove_file(path);
            }
        }

        // Replay the WAL's valid prefix into a fresh memtable; any stop,
        // torn or corrupt, is the end of the log.
        let wal_path = dir.join(WAL_FILE);
        let bytes = wal::read(&wal_path)?;
        let recovery = wal::scan(&bytes);
        let mut mem = MemTable::new();
        for payload in &recovery.records {
            let batch = WriteBatch::decode(payload).ok_or_else(|| {
                // A record with a valid CRC but an undecodable payload is
                // real corruption, not a torn tail.
                StorageError::corrupt(&wal_path, "valid-CRC record failed to decode")
            })?;
            apply_to_memtable(&mut mem, batch);
        }
        let created = !wal_path.exists();
        let wal = Wal::open_for_append(&wal_path, opts.sync, recovery.valid_len)?;
        if created {
            // The manifest's open synced the directory before the log
            // existed: sync the new entry too.
            manifest::sync_dir(&dir)?;
        }

        Ok(LsmEngine {
            inner: RwLock::new(Inner {
                dir,
                opts,
                wal,
                mem,
                tables,
                next_id,
                flushes: 0,
                compactions: 0,
                recovered_torn_tail: recovery.stop != Stop::End,
                flush_signal: None,
            }),
            compact_lock: Mutex::new(()),
        })
    }

    /// Opens with default options.
    pub fn open_default(dir: impl Into<PathBuf>) -> Result<Self> {
        Self::open(dir, EngineOptions::default())
    }

    /// Current counters.
    pub fn stats(&self) -> EngineStats {
        let inner = self.inner.read();
        let cache = inner.opts.cache.as_ref().map(|c| c.stats()).unwrap_or_default();
        EngineStats {
            memtable_bytes: inner.mem.approx_bytes(),
            memtable_entries: inner.mem.len(),
            num_tables: inner.tables.len(),
            table_entries: inner.tables.iter().map(|h| h.table.entry_count()).sum(),
            live_table_bytes: inner.tables.iter().map(|h| h.table.file_len()).sum(),
            flushes: inner.flushes,
            compactions: inner.compactions,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            recovered_torn_tail: inner.recovered_torn_tail,
        }
    }

    /// Forces a memtable flush (normally triggered by size).
    pub fn force_flush(&self) -> Result<()> {
        let mut inner = self.inner.write();
        let flushed = flush_locked(&mut inner)?;
        drop(inner);
        drop(flushed);
        Ok(())
    }

    /// Merges every live table into one, dropping tombstones (normally
    /// compaction is tiered; this is the explicit everything-now variant
    /// for tests and tools). Runs the same off-lock merge as
    /// [`Self::maybe_compact`]: tables flushed while it merges stay
    /// above the output.
    pub fn force_compact(&self) -> Result<()> {
        self.compact(|tables| (tables.len() >= 2).then_some(0..tables.len())).map(drop)
    }

    /// Attaches (or with `None` detaches) a maintenance worker's flush
    /// signal. While attached, flushes notify the worker; detached, the
    /// engine does not compact until a worker attaches again.
    pub fn set_flush_signal(&self, signal: Option<Arc<Signal>>) {
        self.inner.write().flush_signal = signal;
    }

    /// Write backpressure: parks this writer (off-lock) until the
    /// maintenance worker drains the table backlog below the stall
    /// threshold. Bounded by a deadline so a dead or detached worker
    /// can never wedge ingest; a still-behind worker just re-stalls the
    /// writer at its next flush.
    fn stall_for_backlog(&self) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
        loop {
            std::thread::sleep(std::time::Duration::from_millis(1));
            let inner = self.inner.read();
            let drained = inner.flush_signal.is_none() || inner.tables.len() < STALL_TABLES;
            drop(inner);
            if drained || std::time::Instant::now() >= deadline {
                return;
            }
        }
    }

    /// Runs at most one tiered compaction if the picker chooses a run,
    /// returning whether a merge happened.
    ///
    /// Lock order: the compaction mutex for the whole call; the state
    /// write lock only briefly, before and after the off-lock merge.
    pub fn maybe_compact(&self) -> Result<bool> {
        self.compact(|tables| compaction::pick(tables).map(|pick| pick.range))
    }

    /// The one merge body: `choose` names a contiguous newest-first run
    /// of the live tables, which is merged into one table in its place.
    /// Tombstones are dropped exactly when the run includes the oldest
    /// table: nothing older is left for them to hide. Returns whether a
    /// merge happened.
    ///
    /// Lock order: takes the engine's compaction mutex for the whole
    /// call; takes the state write lock briefly to pick and snapshot the
    /// inputs and allocate the output id, releases it for the merge
    /// itself, then re-takes it to commit the new table list and install
    /// the swap.
    fn compact(&self, choose: impl FnOnce(&[TableInfo]) -> Option<Range<usize>>) -> Result<bool> {
        let _serialize = self.compact_lock.lock();

        // Phase 1 (locked): pick a run and snapshot its inputs.
        let (inputs, from_end, out_id, drop_tombstones, dir, topts) = {
            let mut inner = self.inner.write();
            let infos: Vec<TableInfo> = inner
                .tables
                .iter()
                .map(|h| TableInfo { id: h.id, bytes: h.table.file_len() })
                .collect();
            let Some(range) = choose(&infos) else {
                return Ok(false);
            };
            // The run's distance from the oldest end holds until the
            // commit below: flushes only prepend, and the compaction mutex
            // keeps every other merge out.
            let from_end = inner.tables.len().saturating_sub(range.start);
            let includes_oldest = range.end == inner.tables.len();
            let run = match inner.tables.get(range) {
                Some(run) if !run.is_empty() => run,
                _ => return Ok(false),
            };
            let inputs: Vec<Arc<SsTable>> = run.iter().map(|h| Arc::clone(&h.table)).collect();
            let out_id = inner.next_id;
            inner.next_id += 1;
            (inputs, from_end, out_id, includes_oldest, inner.dir.clone(), inner.opts.table.clone())
        };

        // Phase 2 (unlocked): merge. Inputs are immutable files; writers
        // keep committing concurrently.
        let out_path = table_path(&dir, out_id);
        if let Err(e) = compaction::merge_tables(&out_path, &inputs, &topts, drop_tombstones) {
            // pass-lint: allow(l8, reason="cleanup on the error path must not mask the merge error being returned; a leftover half-written table is unregistered debris, swept at open")
            let _ = std::fs::remove_file(&out_path);
            return Err(e);
        }

        // Phase 3 (locked): commit the edition swap.
        let mut inner = self.inner.write();
        let start = inner.tables.len().saturating_sub(from_end);
        let run = start..start + inputs.len();
        debug_assert!(inner.tables.get(run.clone()).is_some_and(|picked| picked
            .iter()
            .zip(&inputs)
            .all(|(h, input)| Arc::ptr_eq(&h.table, input))));
        let out_table = Arc::new(SsTable::open_with_cache(&out_path, inner.opts.cache.clone())?);

        let mut ids = inner.ids();
        ids.splice(run.clone(), std::iter::once(out_id));
        manifest::commit(&inner.dir, &ids)?;

        let old_paths: Vec<PathBuf> = inner
            .tables
            .get(run.clone())
            .map(|run| run.iter().map(|h| h.table.path().to_path_buf()).collect())
            .unwrap_or_default();
        inner.tables.splice(run, std::iter::once(TableHandle { table: out_table, id: out_id }));
        inner.compactions += 1;
        drop(inner);
        for old in old_paths {
            // pass-lint: allow(l8, reason="the manifest already committed the swap; an unremovable replaced table is orphaned debris, swept at open, never read")
            let _ = std::fs::remove_file(old);
        }
        Ok(true)
    }

    /// The engine directory.
    pub fn dir(&self) -> PathBuf {
        self.inner.read().dir.clone()
    }
}

impl KvStore for LsmEngine {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let inner = self.inner.read();
        if let Some(hit) = inner.mem.get(key) {
            return Ok(hit.map(<[u8]>::to_vec));
        }
        for handle in &inner.tables {
            if let Some(hit) = handle.table.get(key)? {
                return Ok(hit);
            }
        }
        Ok(None)
    }

    fn apply(&self, batch: WriteBatch) -> Result<()> {
        batch.validate()?;
        if batch.is_empty() {
            return Ok(());
        }
        let (stall, flushed) = {
            let mut inner = self.inner.write();
            inner.wal.append(&batch.encode())?;
            apply_to_memtable(&mut inner.mem, batch);
            if inner.mem.approx_bytes() >= inner.opts.memtable_bytes {
                let flushed = flush_locked(&mut inner)?;
                (inner.flush_signal.is_some() && inner.tables.len() >= STALL_TABLES, flushed)
            } else {
                (false, MemTable::default())
            }
        };
        drop(flushed);
        if stall {
            self.stall_for_backlog();
        }
        Ok(())
    }

    fn scan_range(&self, start: &[u8], end: Option<&[u8]>) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        if end.is_some_and(|e| e <= start) {
            return Ok(Vec::new());
        }
        let inner = self.inner.read();
        let mut cursors: Vec<Box<dyn Cursor + '_>> = Vec::with_capacity(inner.tables.len() + 1);
        cursors.push(Box::new(IterCursor::new(inner.mem.range(start, end))));
        for handle in &inner.tables {
            cursors.push(Box::new(handle.table.cursor_range(start, end)));
        }
        let mut merge = Merge::new(cursors);
        let mut out = Vec::new();
        while let Some((k, v)) = merge.next_entry()? {
            if let Some(v) = v {
                out.push((k.to_vec(), v.to_vec()));
            }
        }
        Ok(out)
    }

    fn flush(&self) -> Result<()> {
        let mut inner = self.inner.write();
        if inner.mem.is_empty() {
            return inner.wal.sync();
        }
        let flushed = flush_locked(&mut inner)?;
        drop(inner);
        drop(flushed);
        Ok(())
    }
}

fn apply_to_memtable(mem: &mut MemTable, batch: WriteBatch) {
    for op in batch.into_ops() {
        match op {
            crate::batch::Op::Put { key, value } => mem.put(key, value),
            crate::batch::Op::Delete { key } => mem.delete(key),
        }
    }
}

/// Writes the memtable out as a table and registers it, and returns the
/// flushed memtable (empty when there was nothing to flush) so the caller
/// frees its entries after releasing the engine lock: freeing a full
/// memtable's buffers takes milliseconds.
fn flush_locked(inner: &mut Inner) -> Result<MemTable> {
    if inner.mem.is_empty() {
        return Ok(MemTable::default());
    }
    let id = inner.next_id;
    inner.next_id += 1;
    let path = table_path(&inner.dir, id);
    let mut builder =
        crate::sstable::TableBuilder::create(&path, inner.mem.len(), inner.opts.table.clone())?;
    for (key, value) in inner.mem.iter() {
        builder.add(key, value)?;
    }
    builder.finish()?;

    // Commit point: the new manifest registers the (fsynced) table, and
    // its directory fsync makes the table's entry durable before the WAL
    // is cut below.
    let mut ids = Vec::with_capacity(inner.tables.len() + 1);
    ids.push(id);
    ids.extend(inner.tables.iter().map(|h| h.id));
    manifest::commit(&inner.dir, &ids)?;

    let table = SsTable::open_with_cache(&path, inner.opts.cache.clone())?;
    inner.tables.insert(0, TableHandle { table: Arc::new(table), id });
    let flushed = std::mem::take(&mut inner.mem);
    // The WAL's contents are now durable in the table; start a fresh log.
    inner.wal = Wal::create(inner.dir.join(WAL_FILE), inner.opts.sync)?;
    inner.flushes += 1;

    // The maintenance worker, if one is attached, owns compaction.
    if let Some(signal) = &inner.flush_signal {
        signal.notify();
    }
    Ok(flushed)
}

fn table_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("sst-{id:010}.sst"))
}

fn parse_table_name(name: &str) -> Option<u64> {
    name.strip_prefix("sst-")?.strip_suffix(".sst")?.parse().ok()
}

/// Lists `(id, path)` of every table file in `dir`.
fn list_table_files(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| StorageError::io("listing engine dir", e))? {
        let entry = entry.map_err(|e| StorageError::io("listing engine dir", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(id) = parse_table_name(name) {
            out.push((id, entry.path()));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintenance::{spawn_engine_worker, MaintenanceOptions};
    use crate::tempdir::TempDir;
    use std::sync::atomic::Ordering;

    fn small_opts() -> EngineOptions {
        EngineOptions {
            memtable_bytes: 8 << 10, // flush often so tests exercise tables
            ..EngineOptions::default()
        }
    }

    #[test]
    fn put_get_delete_across_flush() {
        let dir = TempDir::new("lsm-basic");
        let db = LsmEngine::open(dir.path(), small_opts()).unwrap();
        db.put(b"a", b"1").unwrap();
        db.put(b"b", b"2").unwrap();
        db.force_flush().unwrap();
        db.delete(b"a").unwrap();
        db.put(b"c", b"3").unwrap();
        assert_eq!(db.get(b"a").unwrap(), None, "tombstone shadows flushed value");
        assert_eq!(db.get(b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(db.get(b"c").unwrap(), Some(b"3".to_vec()));
    }

    #[test]
    fn reopen_recovers_wal_and_tables() {
        let dir = TempDir::new("lsm-reopen");
        {
            let db = LsmEngine::open(dir.path(), small_opts()).unwrap();
            db.put(b"flushed", b"on disk").unwrap();
            db.force_flush().unwrap();
            db.put(b"unflushed", b"in wal").unwrap();
            // Dropped without flush: the WAL is the only copy of `unflushed`.
        }
        let db = LsmEngine::open(dir.path(), small_opts()).unwrap();
        assert_eq!(db.get(b"flushed").unwrap(), Some(b"on disk".to_vec()));
        assert_eq!(db.get(b"unflushed").unwrap(), Some(b"in wal".to_vec()));
    }

    #[test]
    fn many_writes_trigger_flush_and_compaction() {
        let dir = TempDir::new("lsm-compact");
        let db = LsmEngine::open(dir.path(), small_opts()).unwrap();
        for i in 0..2_000u32 {
            db.put(format!("key-{i:05}").as_bytes(), &[0u8; 64]).unwrap();
        }
        // Drain the picker like the worker would.
        while db.maybe_compact().unwrap() {}
        let stats = db.stats();
        assert!(stats.flushes > 0, "expected automatic flushes: {stats:?}");
        assert!(stats.compactions > 0, "expected tiered compaction: {stats:?}");
        for i in (0..2_000u32).step_by(97) {
            assert_eq!(db.get(format!("key-{i:05}").as_bytes()).unwrap(), Some(vec![0u8; 64]));
        }
    }

    #[test]
    fn compaction_drops_tombstones_without_resurrection() {
        let dir = TempDir::new("lsm-tomb");
        let db = LsmEngine::open(dir.path(), small_opts()).unwrap();
        db.put(b"victim", b"v1").unwrap();
        db.force_flush().unwrap();
        db.delete(b"victim").unwrap();
        db.force_flush().unwrap();
        db.force_compact().unwrap();
        assert_eq!(db.get(b"victim").unwrap(), None);
        // Reopen: still gone (the old table holding v1 was deleted).
        drop(db);
        let db = LsmEngine::open(dir.path(), small_opts()).unwrap();
        assert_eq!(db.get(b"victim").unwrap(), None);
    }

    #[test]
    fn scan_merges_memtable_and_tables() {
        let dir = TempDir::new("lsm-scan");
        let db = LsmEngine::open(dir.path(), small_opts()).unwrap();
        db.put(b"p/1", b"old").unwrap();
        db.put(b"p/3", b"t3").unwrap();
        db.force_flush().unwrap();
        db.put(b"p/1", b"new").unwrap(); // shadow in memtable
        db.put(b"p/2", b"t2").unwrap();
        db.delete(b"p/3").unwrap(); // tombstone in memtable
        db.put(b"q/1", b"other").unwrap();

        let got = db.scan_prefix(b"p/").unwrap();
        assert_eq!(
            got,
            vec![(b"p/1".to_vec(), b"new".to_vec()), (b"p/2".to_vec(), b"t2".to_vec()),]
        );
    }

    #[test]
    fn batch_atomicity_survives_crash_replay() {
        let dir = TempDir::new("lsm-atomic");
        {
            let db = LsmEngine::open(dir.path(), small_opts()).unwrap();
            let mut batch = WriteBatch::new();
            batch.put(b"pair/a".to_vec(), b"1".to_vec());
            batch.put(b"pair/b".to_vec(), b"2".to_vec());
            db.apply(batch).unwrap();
        }
        // Truncate the WAL inside the (single) batch record: the whole
        // batch must disappear, never half of it.
        let wal_path = dir.path().join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        for cut in 1..bytes.len() {
            std::fs::write(&wal_path, &bytes[..cut]).unwrap();
            let db = LsmEngine::open(dir.path(), small_opts()).unwrap();
            let a = db.get(b"pair/a").unwrap();
            let b = db.get(b"pair/b").unwrap();
            assert_eq!(a.is_some(), b.is_some(), "torn batch at cut {cut}: a={a:?} b={b:?}");
            drop(db);
            std::fs::write(&wal_path, &bytes).unwrap();
        }
    }

    #[test]
    fn crash_debris_tables_are_cleaned_up() {
        let dir = TempDir::new("lsm-debris");
        {
            let db = LsmEngine::open(dir.path(), small_opts()).unwrap();
            db.put(b"k", b"v").unwrap();
            db.force_flush().unwrap();
        }
        // Simulate a crash mid-flush: an orphan table not in the manifest.
        let orphan = dir.path().join("sst-0000009999.sst");
        std::fs::write(&orphan, b"garbage that is not a table").unwrap();
        let db = LsmEngine::open(dir.path(), small_opts()).unwrap();
        assert!(!orphan.exists(), "orphan removed on open");
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn empty_engine_reopens_cleanly() {
        let dir = TempDir::new("lsm-empty");
        {
            let _db = LsmEngine::open(dir.path(), small_opts()).unwrap();
        }
        let db = LsmEngine::open(dir.path(), small_opts()).unwrap();
        assert_eq!(db.get(b"anything").unwrap(), None);
        assert_eq!(db.stats().num_tables, 0);
    }

    #[test]
    fn stats_report_recovered_torn_tail() {
        let dir = TempDir::new("lsm-torn-stat");
        {
            let db = LsmEngine::open(dir.path(), small_opts()).unwrap();
            db.put(b"a", b"1").unwrap();
            db.put(b"b", b"2").unwrap();
        }
        let wal_path = dir.path().join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 3]).unwrap();
        let db = LsmEngine::open(dir.path(), small_opts()).unwrap();
        assert!(db.stats().recovered_torn_tail);
        assert_eq!(db.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(b"b").unwrap(), None, "torn record discarded");
    }

    #[test]
    fn maybe_compact_is_a_no_op_when_healthy() {
        let dir = TempDir::new("lsm-nocompact");
        let db = LsmEngine::open(dir.path(), small_opts()).unwrap();
        db.put(b"k", b"v").unwrap();
        db.force_flush().unwrap();
        assert!(!db.maybe_compact().unwrap(), "one table needs no merge");
    }

    #[test]
    fn maybe_compact_merges_and_preserves_reads() {
        let dir = TempDir::new("lsm-tiered");
        let db = LsmEngine::open(dir.path(), small_opts()).unwrap();
        for round in 0..5u32 {
            for i in 0..200u32 {
                db.put(format!("key-{i:05}").as_bytes(), format!("r{round}").as_bytes()).unwrap();
            }
            db.force_flush().unwrap();
        }
        assert!(db.stats().num_tables >= 3);
        // Drain the picker like the worker would.
        while db.maybe_compact().unwrap() {}
        let stats = db.stats();
        assert!(stats.compactions > 0);
        assert!(stats.num_tables < 3, "merged down: {stats:?}");
        for i in 0..200u32 {
            assert_eq!(
                db.get(format!("key-{i:05}").as_bytes()).unwrap(),
                Some(b"r4".to_vec()),
                "newest version survives the merge"
            );
        }
        // Reopen: the manifest edition matches.
        drop(db);
        let db = LsmEngine::open(dir.path(), small_opts()).unwrap();
        assert_eq!(db.get(b"key-00007").unwrap(), Some(b"r4".to_vec()));
    }

    #[test]
    fn tombstones_drop_exactly_when_the_merge_reaches_the_oldest_table() {
        // The oldest table holds `victim` plus `filler` other keys; above
        // it sit a tombstone for `victim` and two one-key tables.
        let build = |dir: &TempDir, filler: u32| -> EngineStats {
            let db = LsmEngine::open(dir.path(), EngineOptions::default()).unwrap();
            db.put(b"victim", b"v1").unwrap();
            for i in 0..filler {
                db.put(format!("filler-{i:05}").as_bytes(), &[0u8; 64]).unwrap();
            }
            db.force_flush().unwrap();
            db.delete(b"victim").unwrap();
            db.force_flush().unwrap();
            for key in [b"bystander-1", b"bystander-2"] {
                db.put(key, b"b").unwrap();
                db.force_flush().unwrap();
            }
            while db.maybe_compact().unwrap() {}
            assert_eq!(db.get(b"victim").unwrap(), None, "the delete holds either way");
            db.stats()
        };
        // Four small tables: the space-amplification trigger merges them
        // all, the oldest included, so the tombstone goes with its victim.
        let stats = build(&TempDir::new("lsm-tomb-full"), 0);
        assert_eq!((stats.compactions, stats.num_tables), (1, 1), "{stats:?}");
        assert_eq!(stats.table_entries, 2, "only the bystanders are left: {stats:?}");
        // A large oldest table: the ratio run merges the three small
        // tables above it and must keep the tombstone that hides `victim`.
        let stats = build(&TempDir::new("lsm-tomb-ratio"), 500);
        assert_eq!((stats.compactions, stats.num_tables), (1, 2), "{stats:?}");
        assert_eq!(stats.table_entries, 501 + 3, "tombstone kept above the oldest: {stats:?}");
    }

    #[test]
    fn background_worker_compacts_behind_flushes() {
        let dir = TempDir::new("lsm-worker");
        let db = Arc::new(LsmEngine::open(dir.path(), small_opts()).unwrap());
        let handle = spawn_engine_worker(
            Arc::clone(&db),
            MaintenanceOptions { tick: std::time::Duration::from_millis(20), ..Default::default() },
        );
        for i in 0..3_000u32 {
            db.put(format!("key-{i:05}").as_bytes(), &[7u8; 64]).unwrap();
        }
        db.force_flush().unwrap();
        handle.wake();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while std::time::Instant::now() < deadline {
            let stats = db.stats();
            if stats.compactions > 0 && stats.num_tables <= 4 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let stats = db.stats();
        assert!(stats.compactions > 0, "worker compacted: {stats:?}");
        assert_eq!(handle.errors(), 0, "no background errors: {:?}", handle.last_error());
        drop(handle); // clean shutdown + detach
        for i in (0..3_000u32).step_by(83) {
            assert_eq!(db.get(format!("key-{i:05}").as_bytes()).unwrap(), Some(vec![7u8; 64]));
        }
        // Detached: later flushes signal nobody.
        assert!(db.inner.read().flush_signal.is_none());
    }

    #[test]
    fn without_a_worker_flushes_never_compact() {
        let dir = TempDir::new("lsm-noworker");
        let db = LsmEngine::open(dir.path(), small_opts()).unwrap();
        for round in 0..10u32 {
            db.put(format!("key-{round:02}").as_bytes(), b"v").unwrap();
            db.force_flush().unwrap();
        }
        let stats = db.stats();
        assert_eq!(stats.flushes, 10, "{stats:?}");
        assert_eq!(stats.num_tables, 10, "every flush left its own table: {stats:?}");
        assert_eq!(stats.compactions, 0, "no worker, no compaction: {stats:?}");
    }

    #[test]
    fn force_compact_races_writers_without_losing_updates() {
        let dir = TempDir::new("lsm-force-race");
        let db = LsmEngine::open(dir.path(), small_opts()).unwrap();
        let rounds = 30u32;
        let keys = 50u32;
        let write_round = |round: u32| {
            for k in 0..keys {
                db.put(format!("key-{k:03}").as_bytes(), format!("r{round}").as_bytes()).unwrap();
            }
            db.force_flush().unwrap();
        };
        write_round(0);
        let writing = std::sync::atomic::AtomicBool::new(true);
        std::thread::scope(|s| {
            s.spawn(|| {
                (1..rounds).for_each(write_round);
                writing.store(false, Ordering::Release);
            });
            while writing.load(Ordering::Acquire) {
                db.force_compact().unwrap();
            }
        });
        db.force_compact().unwrap();
        let newest = format!("r{}", rounds - 1).into_bytes();
        let check = |db: &LsmEngine| {
            for k in 0..keys {
                let got = db.get(format!("key-{k:03}").as_bytes()).unwrap();
                assert_eq!(
                    got.as_deref(),
                    Some(newest.as_slice()),
                    "key {k} reads its newest value"
                );
            }
        };
        check(&db);
        assert!(db.stats().compactions > 0);
        drop(db);
        check(&LsmEngine::open(dir.path(), small_opts()).unwrap());
    }

    #[test]
    fn scans_bypass_the_block_cache() {
        let dir = TempDir::new("lsm-scan-cache");
        let cache = Arc::new(BlockCache::with_shards(32 << 10, 2));
        let opts = EngineOptions { cache: Some(Arc::clone(&cache)), ..small_opts() };
        let db = LsmEngine::open(dir.path(), opts).unwrap();
        for i in 0..2_000u32 {
            db.put(format!("key-{i:05}").as_bytes(), &[7u8; 64]).unwrap();
        }
        db.force_flush().unwrap();
        assert!(db.stats().live_table_bytes > 4 * (32 << 10), "tables outgrow the cache");
        assert_eq!(db.get(b"key-00010").unwrap(), Some(vec![7u8; 64]));
        let hot = cache.stats();
        assert!(hot.misses > 0 && hot.cached_bytes > 0, "{hot:?}");

        assert_eq!(db.scan_prefix(b"key-").unwrap().len(), 2_000);
        let after_scan = cache.stats();
        assert_eq!(after_scan.misses, hot.misses, "a scan reads no block through the cache");
        assert_eq!(after_scan.cached_bytes, hot.cached_bytes, "a scan caches nothing");

        assert_eq!(db.get(b"key-01990").unwrap(), Some(vec![7u8; 64]));
        let after_get = cache.stats();
        assert!(after_get.misses > hot.misses, "{after_get:?}");
        assert!(after_get.cached_bytes > hot.cached_bytes, "point reads still populate");
    }

    #[test]
    fn cache_counters_surface_through_stats() {
        let dir = TempDir::new("lsm-cachestats");
        let mut opts = small_opts();
        opts.cache = Some(Arc::new(BlockCache::new(1 << 20)));
        let db = LsmEngine::open(dir.path(), opts).unwrap();
        db.put(b"hot", b"value").unwrap();
        db.force_flush().unwrap();
        for _ in 0..10 {
            assert_eq!(db.get(b"hot").unwrap(), Some(b"value".to_vec()));
        }
        let stats = db.stats();
        assert!(stats.cache_hits > 0, "{stats:?}");
        assert!(stats.live_table_bytes > 0, "{stats:?}");
    }
}
