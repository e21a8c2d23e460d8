//! The local Provenance-Aware Storage System.
//!
//! §V's four PASS properties, and where this module enforces them:
//!
//! 1. **Provenance is a first-class object** — records live under their
//!    own storage prefix, are indexed independently of readings, and stay
//!    resident in memory ("provenance metadata is accessed more
//!    frequently than its data", §IV).
//! 2. **Provenance can be queried** — [`Pass::query`] /
//!    [`Pass::query_text`] run the full `pass-query` language over the
//!    attribute, time, keyword, and ancestry indexes.
//! 3. **Nonidentical data items do not have identical provenance** —
//!    [`Pass::ingest`] verifies the record's content digest against the
//!    readings and rejects identity collisions with differing content.
//! 4. **Provenance is not lost if ancestor objects are removed** —
//!    [`Pass::remove_data`] deletes readings only; records, indexes, and
//!    ancestry edges survive, and lineage queries keep answering.
//!
//! # Group commit and the atomicity contract
//!
//! Writes couple `{record, data, marker}` in one atomic storage batch, so
//! a crash can never leave a record without its data or vice versa — the
//! consistency the paper demands of a reliable provenance store (§IV) and
//! the property experiment E10 injects faults against.
//!
//! [`Pass::ingest_batch`] extends that coupling to a whole stream of
//! tuple sets: N sets are validated up front, written as **one**
//! [`WriteBatch`] (a single `KvStore::apply`, hence a single WAL append
//! and atomicity domain), and indexed in one bulk pass. The contract is
//! all-or-nothing at two levels:
//!
//! * *validation*: if any set in the batch fails identity/digest
//!   verification or collides with an existing identity, the whole batch
//!   is rejected and **no** storage or index state changes;
//! * *durability*: after a crash, either every set of the batch is
//!   visible or none is (WAL replay applies batches atomically).
//!
//! Every mutation reaches storage and the published state through one
//! private commit function (`Pass::commit`): one storage batch, then,
//! inside the serialized `publish_order` section, one publish, the
//! broadcast of any added records and the counters. Tuple sets and bare
//! records (`Pass::ingest_record`, an archive's metadata-only entries)
//! are added by one group commit; annotations, and the removal and
//! restore of readings, commit one record at a time.
//!
//! # Snapshot-isolated reads
//!
//! All in-memory index state lives in one immutable `State` behind an
//! `Arc` under a read-write lock. [`Pass::snapshot`] clones the `Arc`
//! under the read lock; the snapshot then answers queries with no lock
//! at all, with repeatable-read semantics. [`Pass::query`] itself runs
//! against a fresh snapshot, so a single query never observes a
//! half-applied batch.
//!
//! Readers do wait for writers at one point: a commit publishes by
//! mutating the state under the write lock (copy-on-write via
//! `Arc::make_mut`, which copies the state, inside that lock, on the
//! first write after an outstanding snapshot was taken: the graph and
//! posting tables, but not the record bytes, whose chunks the copy
//! shares). Taking a
//! snapshot, and every `Pass` read that borrows the state
//! ([`Pass::get_record`], [`Pass::contains`], ...), waits while a publish
//! merges its index delta. That section is kept short: a commit encodes
//! and verifies its records before it takes any lock and extracts their
//! index rows before it enters the serialized publish section, so the
//! write lock covers only graph interning and the merge of node runs
//! already grouped by attribute value and keyword token — no row is
//! sorted and no value copied there.
//!
//! # Sharded multi-writer commits
//!
//! With `shards = N` ([`PassConfig::with_shards`]) the keyspace is
//! hash-partitioned over `TupleSetId` and each shard owns its own commit
//! lock and storage engine (own WAL and memtable on disk) — see
//! [`crate::shard`]. A batch takes only the locks of the shards it
//! touches, so writers on disjoint shards run their validation, WAL
//! appends, and fsyncs fully in parallel. The commit hands its whole
//! batch to one `KvStore::apply`; the sharded store routes it, and a
//! batch that spans shards stays atomic through its roll-forward intent
//! log. What stays global is
//! *visibility*: every commit publishes one new state, one version
//! above the last, inside a short, serialized publish+broadcast
//! section, so snapshot isolation and the subscription handoff are
//! exactly as strong as in the single-lock store. `shards = 1` (the
//! default) *is* the single-lock store, same on-disk layout byte for
//! byte.

use crate::archive::{AgeReport, ArchiveExport, ImportStats};
use crate::config::{Backend, PassConfig};
use crate::error::{PassError, Result};
use crate::keyspace;
use crate::shard::{self, Sharding};
use crate::subscribe::{Hub, Subscription, WatchState, DEFAULT_SUBSCRIPTION_CAPACITY};
use parking_lot::{Mutex, RwLock};
use pass_index::{BitSet, NodeIdx, PostingList, TraverseOpts};
use pass_model::codec::{Decode, Encode};
use pass_model::{
    Annotation, Attributes, Digest128, ModelError, ProvenanceBuilder, ProvenanceRecord, Reading,
    SiteId, TimeRange, Timestamp, ToolDescriptor, TupleSet, TupleSetId, Value,
};
use pass_query::{
    Cursor, LineageClause, PreparedQuery, Provider, Query, QueryEngine, QueryResult, RecordIndex,
};
use pass_storage::{
    spawn_engine_worker, spawn_task_worker, KvStore, MaintenanceHandle, MaintenanceOptions,
    WriteBatch,
};
use std::collections::{HashMap, HashSet};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Records per [`pass_query::IndexDelta`] merge in the open-time
/// rebuild: large enough to amortize the posting merges, small enough
/// that the delta's rows and its copies of the chunk's distinct values
/// and tokens stay a small fraction of the indexes.
const REBUILD_CHUNK: usize = 256;

/// In-memory state: immutable once published, shared by snapshots.
#[derive(Clone, Default)]
struct State {
    /// Records and their indexes; cloning it (the copy-on-write path)
    /// resets its cached created-order scans.
    index: RecordIndex,
    /// The stored records whose readings are present, by the index's
    /// `NodeIdx`.
    data_present: BitSet,
    /// Commit sequence number, assigned under the state write lock so a
    /// snapshot's state and version can never disagree.
    version: u64,
}

impl State {
    // -- Reads: the one read path behind `Pass`, `Snapshot`, and the
    // query `Provider` ------------------------------------------------

    fn lineage_records(
        &self,
        id: TupleSetId,
        direction: pass_index::Direction,
        opts: TraverseOpts,
    ) -> Result<Vec<ProvenanceRecord>> {
        let clause = LineageClause {
            root: id,
            direction,
            max_depth: opts.max_depth,
            stop_at_abstraction: opts.stop_at_abstraction,
            include_root: false,
        };
        let posting = self.index.closure(&clause).ok_or(PassError::NotFound(id))?;
        Ok(posting.iter().filter_map(|idx| self.index.fetch(idx)).collect())
    }

    fn readings_present(&self, id: TupleSetId) -> bool {
        self.index.node_of(id).is_some_and(|idx| self.data_present.contains(idx))
    }

    /// Marks the readings of a stored record present or absent.
    fn set_data(&mut self, id: TupleSetId, present: bool) {
        let Some(idx) = self.index.node_of(id) else { return };
        if present {
            self.data_present.insert_growing(idx);
        } else {
            self.data_present.remove(idx);
        }
    }

    fn index_stats(&self, ops: OpCounters) -> PassStats {
        let graph = self.index.graph();
        PassStats {
            records: self.index.len(),
            data_blobs: self.data_present.count(),
            graph_nodes: graph.node_count(),
            graph_edges: graph.edge_count(),
            attr_entries: self.index.attr_entries(),
            index_bytes: self.index.size_bytes(),
            record_bytes: self.index.record_bytes(),
            ingests: ops.ingests,
            batches: ops.batches,
            queries: ops.queries,
        }
    }
}

/// The readings stored for `id` — the storage half of every read path.
fn read_data(store: &dyn KvStore, id: TupleSetId) -> Result<Option<Vec<Reading>>> {
    match store.get(&keyspace::key(keyspace::DATA, id))? {
        Some(bytes) => Ok(Some(Vec::<Reading>::decode_all(&bytes)?)),
        None => Ok(None),
    }
}

/// A tuple set's stored bytes: its record's canonical encoding and,
/// unless it is a bare record, its readings' (the `RECORD` and `DATA`
/// values).
struct Encoded {
    record: Vec<u8>,
    data: Option<Vec<u8>>,
}

/// A tuple set to commit: its record and, unless it is a bare record,
/// its readings.
type Entry<'a> = (&'a ProvenanceRecord, Option<&'a [Reading]>);

fn entry(ts: &TupleSet) -> Entry<'_> {
    (&ts.provenance, Some(&ts.readings))
}

/// Encodes `set` once, through `scratch`, into exactly sized buffers.
/// With `verify`, checks the record's identity over the record bytes and
/// its content digest over the readings bytes, the bytes that are
/// stored.
fn encode_set(
    (record, readings): Entry<'_>,
    verify: bool,
    scratch: &mut Vec<u8>,
) -> Result<Encoded> {
    scratch.clear();
    if verify {
        if !record.encode_verified_into(scratch) {
            return Err(identity_failure(record.id));
        }
    } else {
        record.encode_into(scratch);
    }
    let record_bytes = scratch.as_slice().to_vec();
    let Some(readings) = readings else {
        return Ok(Encoded { record: record_bytes, data: None });
    };
    scratch.clear();
    TupleSet::encode_readings_into(readings, scratch);
    if verify && Digest128::of(scratch) != record.content_digest {
        return Err(digest_mismatch(record.id));
    }
    Ok(Encoded { record: record_bytes, data: Some(scratch.as_slice().to_vec()) })
}

fn identity_failure(id: TupleSetId) -> PassError {
    PassError::Model(ModelError::Invalid(format!("record {id} fails identity verification")))
}

fn digest_mismatch(id: TupleSetId) -> PassError {
    PassError::Model(ModelError::Invalid(format!("content digest mismatch for {id}")))
}

/// The rows under `prefix` whose id starts with the byte `first`, as
/// `(id, value)` in key order, keys that are not keyspace keys skipped:
/// one of 256 slices of the id space. Every whole-prefix read goes slice
/// by slice. One scan of a prefix would allocate a key and a value per
/// stored set and free them only at its end; an open would leave those
/// pages resident, and the audit would hold every set's readings at once.
fn scan_slice(
    store: &dyn KvStore,
    prefix: u8,
    first: u8,
) -> Result<impl Iterator<Item = (TupleSetId, Vec<u8>)>> {
    let (end, end_len) = match first.checked_add(1) {
        Some(next) => ([prefix, next], 2),
        None => ([prefix + 1, 0], 1),
    };
    let rows = store.scan_range(&[prefix, first], Some(&end[..end_len]))?;
    Ok(rows.into_iter().filter_map(|(key, value)| Some((keyspace::parse(&key)?.1, value))))
}

/// Joins `record` with its stored readings; `None` when either is gone.
fn read_tuple_set(
    store: &dyn KvStore,
    record: Option<ProvenanceRecord>,
) -> Result<Option<TupleSet>> {
    let Some(record) = record else { return Ok(None) };
    Ok(read_data(store, record.id)?.map(|readings| TupleSet::new_unchecked(record, readings)))
}

/// Cumulative operation counters.
#[derive(Debug, Default)]
struct Metrics {
    ingests: AtomicU64,
    batches: AtomicU64,
    queries: AtomicU64,
}

impl Metrics {
    fn ops(&self) -> OpCounters {
        OpCounters {
            ingests: self.ingests.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
        }
    }
}

/// Operation counters as [`PassStats`] reports them, captured at one
/// instant (a [`Snapshot`] keeps the values from when it was taken).
#[derive(Debug, Clone, Copy)]
struct OpCounters {
    ingests: u64,
    batches: u64,
    queries: u64,
}

/// A snapshot of store statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStats {
    /// Provenance records held.
    pub records: usize,
    /// Tuple sets whose readings are still present.
    pub data_blobs: usize,
    /// Ancestry graph nodes (placeholders included).
    pub graph_nodes: usize,
    /// Ancestry graph edges.
    pub graph_edges: usize,
    /// Total `(attr, value, node)` index entries.
    pub attr_entries: u64,
    /// Approximate bytes held by the in-memory indexes.
    pub index_bytes: usize,
    /// Bytes of the resident record encodings: each stored record is
    /// kept once, as the canonical bytes written under its key with each
    /// vocabulary string (attribute and tool parameter names, tool names
    /// and versions) written as the varint of its code. The vocabulary
    /// itself counts in `index_bytes`.
    pub record_bytes: usize,
    /// Ingests since open (tuple sets, not batches).
    pub ingests: u64,
    /// Group commits since open (an N-set `ingest_batch` counts once).
    pub batches: u64,
    /// Queries since open.
    pub queries: u64,
}

/// Result of a full storage/index consistency audit (experiment E10).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConsistencyReport {
    /// Records found in storage.
    pub records: usize,
    /// Reading blobs found in storage.
    pub data_blobs: usize,
    /// Records whose stored identity does not match their content
    /// (forged or corrupted records).
    pub identity_failures: Vec<TupleSetId>,
    /// Data blobs whose digest does not match their record.
    pub digest_mismatches: Vec<TupleSetId>,
    /// Data blobs with no owning record — the broken index↔data linkage
    /// §IV-A warns about. Must be empty after any crash.
    pub orphan_data: Vec<TupleSetId>,
    /// Presence markers disagreeing with actual data blobs.
    pub marker_mismatches: Vec<TupleSetId>,
    /// Stored records that decode but differ from the index's resident
    /// copy, decoded (or that the index does not hold).
    pub resident_mismatches: Vec<TupleSetId>,
}

impl ConsistencyReport {
    /// True when no violations were found.
    pub fn is_consistent(&self) -> bool {
        self.identity_failures.is_empty()
            && self.digest_mismatches.is_empty()
            && self.orphan_data.is_empty()
            && self.marker_mismatches.is_empty()
            && self.resident_mismatches.is_empty()
    }
}

/// A local provenance-aware store.
pub struct Pass {
    config: PassConfig,
    store: Arc<dyn KvStore>,
    /// Published index state. Readers `Arc`-clone it (O(1)); writers
    /// replace it copy-on-write under the commit lock.
    state: RwLock<Arc<State>>,
    /// Per-shard commit locks (one lock — the old global commit mutex —
    /// when `shards = 1`). A commit holds the locks of exactly the
    /// shards it touches, across storage I/O, so the state write lock
    /// itself is only taken for the brief in-memory publish step and
    /// writers on disjoint shards overlap their WAL appends and fsyncs.
    sharding: Sharding,
    /// Serializes the publish+broadcast step across shard-parallel
    /// writers so subscription changelogs leave in version order (the
    /// PR 3 handoff relies on it). Held only around the in-memory
    /// publish and the broadcast — never across storage I/O — so it
    /// costs a short critical section, not commit-wide serialization.
    publish_order: Mutex<()>,
    metrics: Metrics,
    /// Live-subscription registry. Commits broadcast a per-commit
    /// changelog through it — one relaxed atomic load when nobody is
    /// subscribed (see [`crate::subscribe`]).
    hub: Arc<Hub>,
    /// Background maintenance workers (one per disk shard); dropped —
    /// and therefore joined — when the store drops.
    maintenance: Vec<MaintenanceHandle>,
}

impl std::fmt::Debug for Pass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pass")
            .field("site", &self.config.site)
            .field("records", &self.state.read().index.len())
            .finish()
    }
}

impl Pass {
    /// Opens a store per `config`, rebuilding in-memory indexes from the
    /// backend's contents. Disk engines get one background compaction
    /// worker per shard.
    pub fn open(config: PassConfig) -> Result<Pass> {
        let requested = config.shards.max(1);
        let (store, sharding, engines) = match &config.backend {
            Backend::Memory => {
                let (store, sharding) = shard::open_memory(requested)?;
                (store, sharding, Vec::new())
            }
            Backend::Disk { dir, options } => shard::open_disk(dir, options, requested)?,
        };
        let maintenance = engines
            .iter()
            .map(|engine| spawn_engine_worker(Arc::clone(engine), MaintenanceOptions::default()))
            .collect();
        Pass::open_internal(store, sharding, config, maintenance)
    }

    /// Opens a store over a caller-supplied storage engine. This is the
    /// embedding/testing hook: counting doubles, fault-injecting wrappers,
    /// or alternative engines all enter here. The engine is treated as a
    /// single commit shard regardless of `config.shards` — sharding is a
    /// layout `Pass::open` builds, not a property an arbitrary engine
    /// has.
    pub fn open_with_store(store: Arc<dyn KvStore>, config: PassConfig) -> Result<Pass> {
        Pass::open_internal(store, Sharding::new(1), config, Vec::new())
    }

    /// Lock order: constructor — creates the `publish_order` mutex and
    /// shard locks before any commit path can run; takes none of them.
    fn open_internal(
        store: Arc<dyn KvStore>,
        sharding: Sharding,
        config: PassConfig,
        maintenance: Vec<MaintenanceHandle>,
    ) -> Result<Pass> {
        // The empty state is version 1; the rebuild publishes version 2.
        let empty = State { version: 1, ..State::default() };
        let pass = Pass {
            config,
            store,
            state: RwLock::new(Arc::new(empty)),
            sharding,
            publish_order: Mutex::new(()),
            metrics: Metrics::default(),
            hub: Arc::new(Hub::default()),
            maintenance,
        };
        pass.rebuild_indexes()?;
        Ok(pass)
    }

    /// Volatile store for `site`.
    #[allow(clippy::expect_used)] // volatile open has no I/O failure mode
    pub fn open_memory(site: SiteId) -> Pass {
        Pass::open(PassConfig::memory(site)).expect("memory backend cannot fail to open")
    }

    /// This store's site identity.
    pub fn site(&self) -> SiteId {
        self.config.site
    }

    /// Number of commit shards actually in effect (for an existing
    /// on-disk store, the persisted layout — not necessarily what the
    /// config asked for).
    pub fn shards(&self) -> usize {
        self.sharding.count()
    }

    /// Rebuilds the in-memory indexes from the stored records in one
    /// streaming pass over 256 slices of the id space ([`scan_slice`]),
    /// so no more than a slice of rows is ever held: each row is decoded
    /// once, the delta writes its resident bytes and extracts its index
    /// entries from the decoded record, and every [`REBUILD_CHUNK`]
    /// records are merged into the indexes as one
    /// [`pass_query::IndexDelta`] (their bytes onto the record table in
    /// one copy). Peak memory stays close to the resident state the open
    /// leaves behind. The data markers follow, slice by slice too.
    fn rebuild_indexes(&self) -> Result<()> {
        let mut state = State::default();
        let mut delta = state.index.delta(REBUILD_CHUNK);
        for first in 0..=u8::MAX {
            for (id, value) in scan_slice(&*self.store, keyspace::RECORD, first)? {
                let record = ProvenanceRecord::decode_all(&value)?;
                debug_assert_eq!(record.id, id, "key/record id agreement");
                delta.push(&record);
                if delta.len() == REBUILD_CHUNK {
                    state.index.insert_delta(&mut delta);
                }
            }
        }
        state.index.insert_delta(&mut delta);
        state.index.sort_time();
        state.index.shrink_to_fit();
        for first in 0..=u8::MAX {
            for (id, _) in scan_slice(&*self.store, keyspace::MARKER, first)? {
                // A marker whose record is missing sets no bit; the audit
                // (`verify_consistency`) reports it from storage.
                if state.index.contains(id) {
                    state.set_data(id, true);
                }
            }
        }
        let mut guard = self.state.write();
        state.version = guard.version + 1;
        *guard = Arc::new(state);
        Ok(())
    }

    /// The one commit path: applies `batch` to storage, then, inside the
    /// serialized `publish_order` section, runs `mutate` on the state
    /// copy-on-write (cloning it only when snapshots still reference
    /// it), publishes it as the old state's version plus one, broadcasts
    /// the `added` records to subscribers and counts them. The state
    /// write lock is held only for the mutation itself, never across
    /// storage I/O. The new version is assigned inside that lock,
    /// atomically with publication — otherwise a racing snapshot could
    /// pair the old state with the new version.
    ///
    /// Lock order: called with the commit lock of every shard `batch`
    /// touches held; takes the intent-log mutex (inside
    /// `KvStore::apply`, storage only), then `publish_order`, then the
    /// state write lock.
    fn commit<'r>(
        &self,
        batch: WriteBatch,
        mutate: impl FnOnce(&mut State),
        added: impl ExactSizeIterator<Item = &'r ProvenanceRecord>,
    ) -> Result<()> {
        self.store.apply(batch)?;
        let order = self.publish_order.lock();
        let version = {
            let mut guard = self.state.write();
            let state = Arc::make_mut(&mut guard);
            mutate(state);
            state.version += 1;
            state.version
        };
        let count = added.len() as u64;
        if count > 0 {
            // Broadcast while still holding the publish-order lock so
            // subscribers receive changelogs in version order even under
            // shard-parallel writers. The record clones are paid only
            // when a subscriber exists.
            self.hub.broadcast(version, || added.cloned().collect());
            self.metrics.ingests.fetch_add(count, Ordering::Relaxed);
            self.metrics.batches.fetch_add(1, Ordering::Relaxed);
        }
        drop(order);
        Ok(())
    }

    // -- Snapshot reads ------------------------------------------------

    /// An O(1), repeatable-read view of the store. The snapshot
    /// implements the query [`Provider`] and [`QueryEngine`] traits and
    /// keeps answering consistently while ingest proceeds; it holds the
    /// index state alive until dropped (writers then pay one
    /// copy-on-write clone on their next commit).
    pub fn snapshot(&self) -> Snapshot {
        let state = self.state.read().clone();
        Snapshot { state, store: Arc::clone(&self.store), ops: self.metrics.ops() }
    }

    // -- Ingest --------------------------------------------------------

    /// Ingests a complete tuple set (provenance + readings).
    ///
    /// Verifies identity and content binding; writes record, data, and
    /// marker in one atomic batch. Re-ingesting an identical tuple set is
    /// idempotent; a colliding identity with different content is
    /// rejected.
    pub fn ingest(&self, ts: &TupleSet) -> Result<TupleSetId> {
        self.ingest_batch(std::slice::from_ref(ts)).map(|ids| ids[0])
    }

    /// Group-commits a whole stream of tuple sets as **one** atomic unit:
    /// a single [`WriteBatch`] (one `KvStore::apply`, one WAL append, one
    /// crash-atomicity domain) and one bulk index pass.
    ///
    /// Validation is all-or-nothing: every set's identity and content
    /// digest are checked — and checked against both the store and the
    /// rest of the batch — before any byte is written. On error, no
    /// storage or index state changes. Sets identical to already-present
    /// ones are skipped idempotently (their ids still appear in the
    /// returned vector, in input order).
    ///
    /// Lock order: delegates to the group commit, which takes the touched
    /// shard commit locks (ascending) and then `publish_order`.
    pub fn ingest_batch(&self, sets: &[TupleSet]) -> Result<Vec<TupleSetId>> {
        self.group_commit(sets.iter().map(entry), true)?;
        Ok(sets.iter().map(|ts| ts.provenance.id).collect())
    }

    /// The group commit behind every addition of tuple sets and bare
    /// records. `verify` re-checks identity and content binding per set;
    /// [`Pass::capture_batch`] passes `false` because it built (and
    /// therefore already hashed) the records itself one line earlier.
    /// Collision and duplicate checks always run. Returns the positions
    /// in `sets` of the sets it added, ascending: a set identical to a
    /// stored one or to an earlier set of the batch is skipped.
    ///
    /// Lock order: shard commit locks (ascending, via
    /// [`Sharding::lock_many`]) → intent-log mutex (inside
    /// `KvStore::apply`, storage only) → `publish_order` → the state write
    /// lock, the last three inside [`Pass::commit`]. Strictly this
    /// sequence; never backwards.
    fn group_commit<'a>(
        &self,
        sets: impl ExactSizeIterator<Item = Entry<'a>>,
        verify: bool,
    ) -> Result<Vec<usize>> {
        // Phase 0, before any lock: encode each record and its readings
        // once. The identity and content checks hash these very bytes,
        // and they are what storage and the index delta keep.
        let mut scratch = Vec::new();
        let mut encoded = Vec::with_capacity(sets.len());
        for set in sets {
            encoded.push((set.0, encode_set(set, verify, &mut scratch)?));
        }
        if encoded.is_empty() {
            return Ok(Vec::new());
        }
        // Take the commit locks of exactly the shards this batch touches,
        // in ascending index order (the deadlock-free total order shared
        // by every multi-shard committer). Writers whose shard sets are
        // disjoint proceed fully in parallel from here on.
        let mut involved: Vec<usize> =
            encoded.iter().map(|(record, _)| self.sharding.shard_of(record.id)).collect();
        involved.sort_unstable();
        involved.dedup();
        let _commit = self.sharding.lock_many(&involved);
        // Phase 1: validate everything against the published state and
        // the batch itself. Every id in the batch routes to a locked
        // shard, and an id's record can only be created or changed under
        // its shard's lock — so this read is stable for our ids even
        // while other shards keep committing. Validation borrows the
        // state through the read guard rather than cloning the `Arc`: a
        // cloned handle held here would force every concurrent
        // publisher's `Arc::make_mut` to deep-copy the entire state,
        // serializing shard-parallel writers on copy work.
        let current = self.state.read();
        let mut fresh: Vec<usize> = Vec::with_capacity(encoded.len());
        let mut seen: HashMap<TupleSetId, Digest128> = HashMap::with_capacity(encoded.len());
        for (i, (record, _)) in encoded.iter().enumerate() {
            // PASS property 3: identical id ⇒ identical provenance.
            // Identity binds the content digest, so matching ids with
            // matching digests are the same tuple set.
            if let Some(existing) = current.index.get(record.id) {
                if existing.content_digest == record.content_digest {
                    continue; // idempotent re-ingest
                }
                return Err(PassError::IdentityCollision(record.id));
            }
            match seen.get(&record.id) {
                Some(d) if *d == record.content_digest => continue, // intra-batch dup
                Some(_) => return Err(PassError::IdentityCollision(record.id)),
                None => {
                    seen.insert(record.id, record.content_digest);
                    fresh.push(i);
                }
            }
        }
        if fresh.is_empty() {
            return Ok(fresh);
        }
        // The delta shares the index's vocabulary, which every later
        // state shares too.
        let mut delta = current.index.delta(fresh.len());
        // Release the read guard: `commit` takes the write side of the
        // same lock, and holding the guard across Phase 2 would stall
        // every other shard's publish behind our storage fsync.
        drop(current);

        // Phase 2: one storage batch. The Phase 0 bytes move into it,
        // and the index delta writes each record's resident bytes onto
        // its one byte buffer (interning names it meets first) and
        // extracts the index entries here, ahead of the serialized
        // section. A bare record has no DATA or MARKER key: its readings
        // live elsewhere (or were removed; PASS property 4).
        let mut batch = WriteBatch::new();
        for &i in &fresh {
            let (record, bytes) = &mut encoded[i];
            let id = record.id;
            delta.push(record);
            batch.put(
                keyspace::key(keyspace::RECORD, id).to_vec(),
                std::mem::take(&mut bytes.record),
            );
            if let Some(data) = &mut bytes.data {
                batch.put(keyspace::key(keyspace::DATA, id).to_vec(), std::mem::take(data));
                batch.put(keyspace::key(keyspace::MARKER, id).to_vec(), vec![1u8]);
            }
        }

        // Phase 3: one storage apply and one bulk index publish under the
        // global version. Only graph interning, the posting merges, and
        // the broadcast sit inside the serialized section.
        self.commit(
            batch,
            |state| {
                state.index.insert_delta(&mut delta);
                state.index.sort_time();
                for &i in &fresh {
                    let (record, bytes) = &encoded[i];
                    if bytes.data.is_some() {
                        state.set_data(record.id, true);
                    }
                }
            },
            fresh.iter().map(|&i| encoded[i].0),
        )?;
        Ok(fresh)
    }

    /// Captures a raw tuple set produced at this site.
    pub fn capture(
        &self,
        attrs: Attributes,
        readings: Vec<Reading>,
        at: Timestamp,
    ) -> Result<TupleSetId> {
        self.capture_batch([(attrs, readings, at)]).map(|ids| ids[0])
    }

    /// Captures a whole stream of raw tuple sets in one group commit.
    /// Each `(attributes, readings, timestamp)` item becomes a tuple set
    /// with this site's provenance; the batch then follows the
    /// [`Pass::ingest_batch`] atomicity contract.
    ///
    /// Lock order: delegates to the group commit — shard commit locks
    /// (ascending), then `publish_order`.
    pub fn capture_batch(
        &self,
        items: impl IntoIterator<Item = (Attributes, Vec<Reading>, Timestamp)>,
    ) -> Result<Vec<TupleSetId>> {
        let sets: Vec<TupleSet> = items
            .into_iter()
            .map(|(attrs, readings, at)| {
                let record = ProvenanceBuilder::new(self.config.site, at)
                    .attrs(&attrs)
                    .build(TupleSet::content_digest_of(&readings));
                TupleSet::new_unchecked(record, readings)
            })
            .collect();
        // Identity and digest hold by construction (the digest was hashed
        // into the identity one line up); skip the re-verification pass.
        self.group_commit(sets.iter().map(entry), false)?;
        Ok(sets.iter().map(|ts| ts.provenance.id).collect())
    }

    /// Derives a new tuple set from `parents` using `tool`, ingesting the
    /// result with full ancestry recorded. Parents need not be present
    /// locally (they may live at other sites or have been removed).
    pub fn derive(
        &self,
        parents: &[TupleSetId],
        tool: &ToolDescriptor,
        attrs: Attributes,
        readings: Vec<Reading>,
        at: Timestamp,
    ) -> Result<TupleSetId> {
        let mut builder = ProvenanceBuilder::new(self.config.site, at).attrs(&attrs);
        for &parent in parents {
            builder = builder.derived_from(parent, tool.clone());
        }
        let record = builder.build(TupleSet::content_digest_of(&readings));
        let ts = TupleSet::new(record, readings)?;
        self.ingest(&ts)
    }

    /// Attaches an annotation to an existing record (identity unchanged).
    ///
    /// Lock order: takes one shard commit lock, then commits; never holds
    /// more than one shard lock.
    pub fn annotate(&self, id: TupleSetId, annotation: Annotation) -> Result<()> {
        self.append_annotations(id, |_| vec![annotation]).map(drop)
    }

    /// Appends the annotations `pick` selects, given the stored record
    /// `id`, to that record (identity unchanged): one commit rewrites the
    /// record and indexes their keywords. Returns how many it appended.
    ///
    /// Lock order: takes `id`'s shard commit lock, then commits
    /// ([`Pass::commit`]); never holds more than one shard lock.
    fn append_annotations(
        &self,
        id: TupleSetId,
        pick: impl FnOnce(&ProvenanceRecord) -> Vec<Annotation>,
    ) -> Result<usize> {
        let _commit = self.sharding.lock_one(self.sharding.shard_of(id));
        let mut record = self.get_record(id).ok_or(PassError::NotFound(id))?;
        let fresh = pick(&record);
        if fresh.is_empty() {
            return Ok(0);
        }
        record.annotations.extend_from_slice(&fresh);
        let resident = self.state.read().index.resident(&record);
        let mut batch = WriteBatch::new();
        batch.put(keyspace::key(keyspace::RECORD, id).to_vec(), record.encode_to_vec());
        // Presence was checked above and the shard lock pins it; a miss
        // inside means the state diverged, and `annotate` skips it rather
        // than panic mid-publish.
        let mutate = |state: &mut State| {
            state.index.annotate(&resident, &fresh);
        };
        self.commit(batch, mutate, std::iter::empty())?;
        Ok(fresh.len())
    }

    // -- Retrieval -----------------------------------------------------

    /// The provenance record for `id`, if present (decoded from its
    /// resident bytes). The read guard is held only to take the bytes,
    /// which keep their chunk alive; the decode runs after it is
    /// released.
    pub fn get_record(&self, id: TupleSetId) -> Option<ProvenanceRecord> {
        let bytes = self.state.read().index.encoding(id)?;
        bytes.decode()
    }

    /// The readings for `id`: `Ok(None)` when the data was removed (the
    /// record may well still exist — PASS property 4).
    pub fn get_data(&self, id: TupleSetId) -> Result<Option<Vec<Reading>>> {
        read_data(&*self.store, id)
    }

    /// Record + readings together, when both exist. The state read
    /// guard is released (inside `get_record`) before storage is read.
    pub fn get_tuple_set(&self, id: TupleSetId) -> Result<Option<TupleSet>> {
        read_tuple_set(&*self.store, self.get_record(id))
    }

    /// True when the record exists here.
    pub fn contains(&self, id: TupleSetId) -> bool {
        self.state.read().index.contains(id)
    }

    /// True when the readings are still present.
    pub fn has_data(&self, id: TupleSetId) -> bool {
        self.state.read().readings_present(id)
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.state.read().index.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All record ids (unordered).
    pub fn ids(&self) -> Vec<TupleSetId> {
        self.state.read().index.record_ids().collect()
    }

    // -- Removal (PASS property 4) --------------------------------------

    /// Deletes the *readings* of a tuple set; the provenance record and
    /// every index entry survive. Returns whether data was present.
    ///
    /// Lock order: takes one shard commit lock, then commits; never holds
    /// more than one shard lock.
    pub fn remove_data(&self, id: TupleSetId) -> Result<bool> {
        self.set_readings(id, None)
    }

    /// Stores (`Some`: the content digest the stored record must carry,
    /// and the readings) or deletes (`None`) the readings of the stored
    /// record `id`, unless they are already present or absent; stored
    /// readings must hash to the digest. One commit writes or deletes
    /// the `DATA` and `MARKER` keys and flips the record's data bit.
    /// Returns whether it changed them.
    ///
    /// Lock order: takes `id`'s shard commit lock, then commits
    /// ([`Pass::commit`]); never holds more than one shard lock.
    fn set_readings(
        &self,
        id: TupleSetId,
        readings: Option<(Digest128, &[Reading])>,
    ) -> Result<bool> {
        let _commit = self.sharding.lock_one(self.sharding.shard_of(id));
        {
            let state = self.state.read();
            let existing = state.index.get(id).ok_or(PassError::NotFound(id))?;
            if readings.is_some_and(|(digest, _)| digest != existing.content_digest) {
                return Err(PassError::IdentityCollision(id));
            }
            if state.readings_present(id) == readings.is_some() {
                return Ok(false);
            }
        }
        let data_key = keyspace::key(keyspace::DATA, id).to_vec();
        let marker_key = keyspace::key(keyspace::MARKER, id).to_vec();
        let mut batch = WriteBatch::new();
        match readings {
            Some((digest, readings)) => {
                let mut data = Vec::with_capacity(readings.len() * 24 + 8);
                TupleSet::encode_readings_into(readings, &mut data);
                if Digest128::of(&data) != digest {
                    return Err(digest_mismatch(id));
                }
                batch.put(data_key, data);
                batch.put(marker_key, vec![1u8]);
            }
            None => {
                batch.delete(data_key);
                batch.delete(marker_key);
            }
        }
        let present = readings.is_some();
        self.commit(batch, |state| state.set_data(id, present), std::iter::empty())?;
        Ok(true)
    }

    // -- Archive exchange (§V: merging local PASS installations) --------

    /// Ingests a bare provenance record — no readings. This is the
    /// federation primitive: metadata replicas from other installations
    /// merge without shipping sensor data.
    ///
    /// Identity is verified. If the record already exists with the same
    /// identity, its annotations (the only post-hoc, identity-free
    /// field) are unioned in; an identity match with a different content
    /// digest is a forgery and is rejected.
    ///
    /// Lock order: delegates to the archive merge (group commit, then
    /// one shard commit lock at a time).
    pub fn ingest_record(&self, record: &ProvenanceRecord) -> Result<TupleSetId> {
        self.merge(&[(record, None)])?;
        Ok(record.id)
    }

    /// The archive merge shared by [`Pass::ingest_record`] and
    /// [`Pass::import_archive`], a set union: one group commit adds every
    /// entry not yet stored, and each other entry unions its annotations
    /// into the stored record and, when it carries readings this store
    /// lacks, restores them.
    ///
    /// Lock order: runs the group commit, then takes one shard commit
    /// lock at a time (in `append_annotations` and `set_readings`).
    fn merge(&self, entries: &[Entry<'_>]) -> Result<ImportStats> {
        let mut added = self.group_commit(entries.iter().copied(), true)?.into_iter().peekable();
        let mut stats = ImportStats::default();
        for (i, &(record, readings)) in entries.iter().enumerate() {
            if added.next_if_eq(&i).is_some() {
                match readings {
                    Some(_) => stats.tuple_sets_added += 1,
                    None => stats.records_added += 1,
                }
                continue;
            }
            // The group commit checked this entry's identity and digest
            // against the stored record it matched.
            let anns = self.append_annotations(record.id, |stored| {
                let new = |a: &&Annotation| !stored.annotations.contains(a);
                record.annotations.iter().filter(new).cloned().collect()
            })?;
            stats.annotations_merged += anns;
            let restored = match readings {
                Some(readings) if !self.has_data(record.id) => {
                    self.set_readings(record.id, Some((record.content_digest, readings)))?
                }
                _ => false,
            };
            if restored {
                stats.data_restored += 1;
            } else if anns == 0 {
                stats.already_present += 1;
            }
        }
        Ok(stats)
    }

    /// Re-attaches readings to a record whose data is absent here.
    /// Verifies the content digest against the record's identity.
    /// Returns `false` when the data was already present.
    ///
    /// Removal (property 4) is deliberate but not a tombstone: an
    /// archive that still holds the readings re-supplies them.
    ///
    /// Lock order: takes one shard commit lock, then commits; never holds
    /// more than one shard lock.
    pub fn restore_data(&self, ts: &TupleSet) -> Result<bool> {
        self.set_readings(ts.provenance.id, Some((ts.provenance.content_digest, &ts.readings)))
    }

    /// Exports everything this store holds, split into full tuple sets
    /// and records whose data is absent. Deterministically ordered by
    /// id, so equal stores export equal archives.
    pub fn export_archive(&self) -> Result<ArchiveExport> {
        let snapshot = self.snapshot();
        let mut out = ArchiveExport::default();
        for record in snapshot.state.index.records() {
            let readings = if snapshot.state.readings_present(record.id) {
                self.get_data(record.id)?
            } else {
                None
            };
            match readings {
                Some(readings) => out.tuple_sets.push(TupleSet::new_unchecked(record, readings)),
                None => out.records_only.push(record),
            }
        }
        out.tuple_sets.sort_by_key(|t| t.provenance.id);
        out.records_only.sort_by_key(|r| r.id);
        Ok(out)
    }

    /// Merges another installation's archive into this store (§V:
    /// "merging collections of local PASS installations into single
    /// globally searchable data archives").
    ///
    /// Content-addressed identity makes this a conflict-free, idempotent
    /// set union: re-importing is a no-op, and importing A into B yields
    /// the same record set as importing B into A. Annotations union;
    /// archives that carry readings restore them on records whose data
    /// is absent here. Every entry not yet stored lands in one atomic
    /// group commit.
    ///
    /// Lock order: delegates to the archive merge (group commit, then
    /// one shard commit lock at a time).
    pub fn import_archive(&self, archive: &ArchiveExport) -> Result<ImportStats> {
        let records = archive.records_only.iter().map(|record| (record, None));
        self.merge(&archive.tuple_sets.iter().map(entry).chain(records).collect::<Vec<_>>())
    }

    // -- Query ---------------------------------------------------------

    /// Executes a parsed query against a fresh snapshot (repeatable
    /// reads: concurrent ingests cannot change the result set mid-query).
    pub fn query(&self, query: &Query) -> Result<QueryResult> {
        self.metrics.queries.fetch_add(1, Ordering::Relaxed);
        Ok(pass_query::execute(query, &self.snapshot())?)
    }

    /// Parses and executes query text (snapshot semantics as
    /// [`Pass::query`]).
    pub fn query_text(&self, text: &str) -> Result<QueryResult> {
        self.metrics.queries.fetch_add(1, Ordering::Relaxed);
        Ok(pass_query::execute_text(text, &self.snapshot())?)
    }

    /// Lineage closure of `id` as full records, nearest-first order not
    /// guaranteed (sorted by internal index). Answers from the published
    /// state; see [`Snapshot::lineage`] for the multi-call repeatable-read
    /// form.
    pub fn lineage(
        &self,
        id: TupleSetId,
        direction: pass_index::Direction,
        opts: TraverseOpts,
    ) -> Result<Vec<ProvenanceRecord>> {
        self.state.read().lineage_records(id, direction, opts)
    }

    // -- Subscriptions (continuous queries) ------------------------------

    /// Opens a live subscription on `query`: one API for one-shot and
    /// continuous consumption. The returned [`Subscription`] first
    /// drains a *catch-up* phase — exactly the records `query` would
    /// return from [`Pass::query`] at this moment, in the same order —
    /// then emits [`crate::Event::CaughtUp`] and *tails* live commits,
    /// delivering every subsequent matching record exactly once, in
    /// commit order. There is no gap and no duplicate at the handoff:
    /// catch-up covers commit versions ≤ the catch-up snapshot's version,
    /// the tail starts at the next version (see [`crate::subscribe`] for
    /// the protocol).
    ///
    /// A `DESCENDANTS OF` lineage scope subscribes to the growing taint
    /// closure (the `WATCH` query form); `ANCESTORS OF` scopes are
    /// rejected — ancestor closures of a fixed root do not grow with new
    /// commits, so a one-shot query answers them.
    ///
    /// `ORDER BY`, `LIMIT`, and `AFTER` shape the catch-up phase exactly
    /// as they shape `execute()`; the tail is always unbounded and in
    /// commit order.
    ///
    /// The tail fires on record **additions** (each record delivered at
    /// most once, keyed by identity). Annotation merges mutate an
    /// existing record and are not replayed — see the
    /// [`crate::subscribe`] module docs for why and what that means for
    /// `ANNOTATION CONTAINS` filters.
    pub fn subscribe(&self, query: &Query) -> Result<Subscription> {
        self.subscribe_with(query, DEFAULT_SUBSCRIPTION_CAPACITY)
    }

    /// [`Pass::subscribe`] with an explicit changelog-queue bound (in
    /// commits). When the consumer falls more than `capacity` commits
    /// behind, the oldest changelogs are discarded and the consumer
    /// receives [`crate::Event::Lagged`] — ingest never blocks on a
    /// stalled subscriber.
    pub fn subscribe_with(&self, query: &Query, capacity: usize) -> Result<Subscription> {
        if let Some(clause) = &query.lineage {
            if clause.direction != pass_index::Direction::Descendants {
                return Err(PassError::Query(pass_query::QueryError::Provider(
                    "SUBSCRIBE supports DESCENDANTS lineage scopes only: the ancestor \
                     closure of a fixed root does not grow with new commits"
                        .to_owned(),
                )));
            }
        }
        let channel = Subscription::make_channel(capacity);
        // Register BEFORE snapshotting: a commit the snapshot misses is
        // then guaranteed to reach the channel (writers publish through
        // the state lock before broadcasting) — the no-gap half of the
        // handoff. The version filter inside the subscription provides
        // the no-duplicate half.
        Subscription::register(&self.hub, &channel);
        let snapshot = self.snapshot();
        let armed =
            (|| -> Result<(std::collections::VecDeque<ProvenanceRecord>, Option<WatchState>)> {
                let catch_up: std::collections::VecDeque<ProvenanceRecord> =
                    snapshot.open_query(query)?.collect();
                let watch = match &query.lineage {
                    Some(clause) => {
                        // Watch membership is filter-independent: seed from
                        // the raw closure, not the filtered catch-up output.
                        let members = snapshot.lineage(
                            clause.root,
                            clause.direction,
                            clause.traverse_opts(),
                        )?;
                        Some(WatchState::init(clause.root, &members, clause))
                    }
                    None => None,
                };
                Ok((catch_up, watch))
            })();
        let (catch_up, watch) = match armed {
            Ok(parts) => parts,
            Err(e) => {
                self.hub.unregister(&channel);
                return Err(e);
            }
        };
        Ok(Subscription::new(
            Arc::clone(&self.hub),
            channel,
            catch_up,
            snapshot.version(),
            query.filter.clone(),
            watch,
        ))
    }

    /// Parses and opens a subscription statement: `SUBSCRIBE <query>` or
    /// `WATCH DESCENDANTS OF ts:HEX …` (see the `pass-query` grammar).
    pub fn subscribe_text(&self, text: &str) -> Result<Subscription> {
        let statement = pass_query::parse_subscribe(text).map_err(PassError::Query)?;
        self.subscribe(&statement.query)
    }

    /// Number of live subscriptions (dropped subscribers are swept
    /// lazily, so this may briefly over-count).
    pub fn subscriber_count(&self) -> usize {
        self.hub.subscriber_count()
    }

    // -- Maintenance ---------------------------------------------------

    /// Forces buffered writes to stable storage.
    pub fn flush(&self) -> Result<()> {
        Ok(self.store.flush()?)
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> PassStats {
        self.state.read().index_stats(self.metrics.ops())
    }

    /// Nudges every background maintenance worker outside its tick
    /// (tests, or a caller that just deleted a lot of data).
    pub fn wake_maintenance(&self) {
        for worker in &self.maintenance {
            worker.wake();
        }
    }

    /// Total background maintenance errors across all shard workers.
    /// Maintenance failure never fails a commit; poll this to surface
    /// trouble.
    pub fn maintenance_errors(&self) -> u64 {
        self.maintenance.iter().map(|w| w.errors()).sum()
    }

    /// Ages cold readings out of local storage: every record created
    /// before `older_than` whose data is still present has its readings
    /// exported and then removed (PASS property 4 — the provenance
    /// record stays and keeps answering queries). The returned
    /// [`AgeReport`] carries the export; feeding it to another
    /// installation's [`Pass::import_archive`] makes aging a *move* into
    /// a long-term archive rather than a loss, and re-importing it here
    /// restores the readings.
    pub fn age_data(&self, older_than: Timestamp) -> Result<AgeReport> {
        let victims: Vec<(TupleSetId, Vec<Reading>)> = {
            let snapshot = self.snapshot();
            let state = &snapshot.state;
            let mut cold = Vec::new();
            // Only stored records have a data bit; their `created_at`
            // column picks the victims without decoding a record.
            for idx in state.data_present.iter() {
                let Some((id, created_at)) = state.index.created_of(idx) else { continue };
                if created_at < older_than {
                    if let Some(readings) = snapshot.get_data(id)? {
                        cold.push((id, readings));
                    }
                }
            }
            cold
            // The snapshot drops here, before the removals below, so
            // their commits mutate the state in place.
        };
        let mut export = ArchiveExport::default();
        let mut aged = 0;
        for (id, readings) in victims {
            // Re-check under the commit path: a concurrent remove_data
            // already did the work, and records can never un-exist.
            if self.remove_data(id)? {
                let Some(record) = self.get_record(id) else { continue };
                export.tuple_sets.push(TupleSet::new_unchecked(record, readings));
                aged += 1;
            }
        }
        export.tuple_sets.sort_by_key(|t| t.provenance.id);
        Ok(AgeReport { aged, export })
    }

    /// Spawns a background worker that periodically ages cold readings
    /// (see [`Pass::age_data`]): every `tick` it computes `cutoff()` and
    /// hands the resulting non-empty exports to `sink` — typically an
    /// uplink that ships them to an archive installation. The worker
    /// holds only a weak reference, so it never keeps the store alive;
    /// it idles once the `Pass` drops and stops when the returned handle
    /// drops.
    pub fn spawn_aging(
        self: &Arc<Self>,
        tick: std::time::Duration,
        cutoff: impl Fn() -> Timestamp + Send + 'static,
        mut sink: impl FnMut(ArchiveExport) + Send + 'static,
    ) -> MaintenanceHandle {
        let weak = Arc::downgrade(self);
        spawn_task_worker("pass-aging", tick, move || {
            let Some(pass) = weak.upgrade() else { return };
            // A failed sweep (e.g. storage error mid-removal) is retried
            // on the next tick; aging is idempotent over what remains.
            if let Ok(report) = pass.age_data(cutoff()) {
                if !report.export.is_empty() {
                    sink(report.export);
                }
            }
        })
    }

    /// Audits storage against the invariants (see [`ConsistencyReport`]).
    /// An id's record, readings and marker fall in the same slice of the
    /// id space (one of 256, by the id's first byte), so the audit walks
    /// the three prefixes slice by slice and holds one slice's rows and
    /// ids at a time. Each stored record that decodes is also compared
    /// with the index's resident copy, decoded ([`Pass::get_record`]); a
    /// commit racing the audit can show up as a resident mismatch, so
    /// audit a quiet store.
    pub fn verify_consistency(&self) -> Result<ConsistencyReport> {
        let mut report = ConsistencyReport::default();
        // Each record's content digest, `None` when the record fails to
        // decode.
        let mut digests: HashMap<TupleSetId, Option<Digest128>> = HashMap::new();
        let mut data_ids = HashSet::new();
        let mut marker_ids = HashSet::new();
        for first in 0..=u8::MAX {
            digests.clear();
            data_ids.clear();
            marker_ids.clear();
            for (id, value) in scan_slice(&*self.store, keyspace::RECORD, first)? {
                report.records += 1;
                let digest = match ProvenanceRecord::decode_verified(&value) {
                    Ok((record, verified)) => {
                        if !verified || record.id != id {
                            report.identity_failures.push(id);
                        }
                        if self.get_record(id).as_ref() != Some(&record) {
                            report.resident_mismatches.push(id);
                        }
                        Some(record.content_digest)
                    }
                    Err(_) => {
                        report.identity_failures.push(id);
                        None
                    }
                };
                digests.insert(id, digest);
            }
            for (id, value) in scan_slice(&*self.store, keyspace::DATA, first)? {
                report.data_blobs += 1;
                data_ids.insert(id);
                let Some(digest) = digests.get(&id) else {
                    report.orphan_data.push(id);
                    continue;
                };
                // The stored bytes are the canonical encoding the digest
                // was taken over: hash them as they are.
                if *digest != Some(Digest128::of(&value)) {
                    report.digest_mismatches.push(id);
                }
            }
            for (id, _) in scan_slice(&*self.store, keyspace::MARKER, first)? {
                marker_ids.insert(id);
            }
            report.marker_mismatches.extend(marker_ids.symmetric_difference(&data_ids));
        }
        Ok(report)
    }
}

/// An immutable view of a [`Pass`] at one version.
///
/// Obtained from [`Pass::snapshot`] (an O(1) `Arc` clone; reads
/// themselves take no locks). Implements
/// the query [`Provider`] and [`QueryEngine`] traits, so the executor —
/// and any caller — gets repeatable reads: every lookup answers from the
/// same index state no matter how much ingest has happened since, and
/// cursors opened on a snapshot stay valid under concurrent ingest.
/// Dropping the snapshot releases the state; the next write then mutates
/// in place again.
///
/// The snapshot carries the full read surface of [`Pass`] — record
/// retrieval, data reads, queries, statistics — so read-only callers
/// never need to fall back to a `&Pass`. One caveat: reading bytes
/// ([`Snapshot::get_data`]) go to shared storage, which is not
/// versioned; [`Snapshot::has_data`] answers from the snapshot's index
/// state, so after a concurrent [`Pass::remove_data`] the two can
/// disagree. Storage always answers with the newest value, and
/// compaction never brings back a deleted one, so removed readings
/// never reappear.
pub struct Snapshot {
    state: Arc<State>,
    store: Arc<dyn KvStore>,
    ops: OpCounters,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("version", &self.state.version)
            .field("records", &self.state.index.len())
            .finish()
    }
}

impl Snapshot {
    /// The store version this snapshot reflects (monotonically increasing
    /// across commits).
    pub fn version(&self) -> u64 {
        self.state.version
    }

    /// Number of records visible.
    pub fn len(&self) -> usize {
        self.state.index.len()
    }

    /// True when no records are visible.
    pub fn is_empty(&self) -> bool {
        self.state.index.is_empty()
    }

    /// True when the record is visible in this snapshot.
    pub fn contains(&self, id: TupleSetId) -> bool {
        self.state.index.contains(id)
    }

    /// The provenance record for `id`, if visible.
    pub fn get_record(&self, id: TupleSetId) -> Option<ProvenanceRecord> {
        self.state.index.get(id)
    }

    /// The readings for `id`: `Ok(None)` when the data was removed (the
    /// record may well still exist — PASS property 4). Reading bytes
    /// come from shared storage, which is not versioned; the index
    /// state this snapshot holds is.
    pub fn get_data(&self, id: TupleSetId) -> Result<Option<Vec<Reading>>> {
        read_data(&*self.store, id)
    }

    /// True when the readings were present at snapshot time.
    pub fn has_data(&self, id: TupleSetId) -> bool {
        self.state.readings_present(id)
    }

    /// Record + readings together, when both exist — the snapshot twin
    /// of [`Pass::get_tuple_set`]. The record comes from the snapshot's
    /// index state; the readings come from shared storage, which is
    /// *not* versioned. After a concurrent [`Pass::remove_data`] this
    /// returns `Ok(None)` even though [`Snapshot::has_data`] (snapshot
    /// state) still answers `true` — the same divergence documented on
    /// [`Snapshot::get_data`].
    pub fn get_tuple_set(&self, id: TupleSetId) -> Result<Option<TupleSet>> {
        read_tuple_set(&*self.store, self.get_record(id))
    }

    /// Lineage closure of `id` as full records — the snapshot twin of
    /// [`Pass::lineage`], with repeatable reads: the closure is computed
    /// entirely from the snapshot's index state, so concurrent ingest can
    /// neither grow nor reorder the answer.
    pub fn lineage(
        &self,
        id: TupleSetId,
        direction: pass_index::Direction,
        opts: TraverseOpts,
    ) -> Result<Vec<ProvenanceRecord>> {
        self.state.lineage_records(id, direction, opts)
    }

    /// All record ids visible in this snapshot (unordered).
    pub fn ids(&self) -> Vec<TupleSetId> {
        self.state.index.record_ids().collect()
    }

    /// Store statistics as of this snapshot. Index sizes reflect the
    /// snapshot's state; the operation counters (`ingests`, `batches`,
    /// `queries`) were captured when the snapshot was taken.
    pub fn stats(&self) -> PassStats {
        self.state.index_stats(self.ops)
    }

    /// Executes a parsed query against this snapshot.
    pub fn query(&self, query: &Query) -> Result<QueryResult> {
        Ok(pass_query::execute(query, self)?)
    }

    /// Parses and executes query text against this snapshot.
    pub fn query_text(&self, text: &str) -> Result<QueryResult> {
        Ok(pass_query::execute_text(text, self)?)
    }
}

/// Delegates to the snapshot's [`RecordIndex`].
impl Provider for Snapshot {
    fn eq_lookup(&self, attr: &str, value: &Value) -> PostingList {
        self.state.index.eq_lookup(attr, value)
    }
    fn range_lookup(&self, attr: &str, low: Bound<&Value>, high: Bound<&Value>) -> PostingList {
        self.state.index.range_lookup(attr, low, high)
    }
    fn time_overlap(&self, range: TimeRange) -> PostingList {
        self.state.index.time_overlap(range)
    }
    fn keyword_lookup(&self, phrase: &str) -> PostingList {
        self.state.index.keyword_lookup(phrase)
    }
    fn has_attr(&self, attr: &str) -> PostingList {
        self.state.index.has_attr(attr)
    }
    fn all_nodes(&self) -> PostingList {
        self.state.index.all_nodes()
    }
    fn lineage(&self, clause: &LineageClause) -> Option<PostingList> {
        self.state.index.closure(clause)
    }
    fn node_of(&self, id: TupleSetId) -> Option<NodeIdx> {
        self.state.index.node_of(id)
    }
    fn fetch(&self, idx: NodeIdx) -> Option<ProvenanceRecord> {
        self.state.index.fetch(idx)
    }
    fn created_scan(&self, desc: bool) -> Option<std::sync::Arc<[NodeIdx]>> {
        self.state.index.created_scan(desc)
    }
}

/// Snapshots open cursors that borrow the snapshot itself — its state is
/// already immutable, so no extra pinning is needed.
impl QueryEngine for Snapshot {
    fn open(&self, prepared: &PreparedQuery) -> pass_query::Result<Cursor<'_>> {
        Cursor::over(self, prepared)
    }
}

/// `Pass` cursors pin their own snapshot at open: the cursor stays
/// valid — and keeps yielding exactly its snapshot's records — while
/// concurrent `ingest_batch` commits proceed.
impl QueryEngine for Pass {
    fn open(&self, prepared: &PreparedQuery) -> pass_query::Result<Cursor<'_>> {
        Cursor::over_owned(Box::new(self.snapshot()), prepared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_model::{keys, SensorId};
    use pass_storage::tempdir::TempDir;

    fn readings(seed: u64) -> Vec<Reading> {
        (0..3)
            .map(|j| Reading::new(SensorId(seed), Timestamp(seed + j)).with("v", j as i64))
            .collect()
    }

    /// Derived tuple set with the given parents, built outside any store.
    fn derived(i: usize, parents: &[TupleSetId], tool: &ToolDescriptor) -> TupleSet {
        let readings = readings(1_000_000 + i as u64);
        let mut builder = ProvenanceBuilder::new(SiteId(5), Timestamp(5_000_000 + i as u64))
            .attr(keys::DOMAIN, "aggregate")
            .attr(keys::REGION, format!("region-{}", i % 7))
            .attr(keys::DESCRIPTION, format!("rollup {} of window {}", i % 11, i % 13));
        for parent in parents {
            builder = builder.derived_from(*parent, tool.clone());
        }
        TupleSet::new(builder.build(TupleSet::content_digest_of(&readings)), readings)
            .expect("digest matches readings")
    }

    /// Everything the indexes answer that a reopen must reproduce: the
    /// `stats()` counts, then the sorted `ids()` and one page list per
    /// query.
    fn fingerprint(pass: &Pass, roots: &[TupleSetId]) -> ([u64; 5], Vec<Vec<TupleSetId>>) {
        let s = pass.stats();
        let (records, blobs, nodes, edges) =
            (s.records, s.data_blobs, s.graph_nodes, s.graph_edges);
        let counts = [records as u64, blobs as u64, nodes as u64, edges as u64, s.attr_entries];
        let mut ids = pass.ids();
        ids.sort_unstable();
        let mut out = vec![ids];
        let mut queries = vec![
            r#"FIND WHERE domain = "traffic" ORDER BY created ASC LIMIT 50"#.to_owned(),
            r#"FIND WHERE region = "region-3" ORDER BY created DESC LIMIT 60"#.to_owned(),
            "FIND WHERE count BETWEEN 100 AND 900 ORDER BY created DESC LIMIT 40".to_owned(),
            "FIND WHERE ancestry.parents >= 2 ORDER BY created ASC LIMIT 70".to_owned(),
            "FIND WHERE time OVERLAPS [200000, 900000] ORDER BY created ASC LIMIT 80".to_owned(),
            r#"FIND WHERE ANNOTATION CONTAINS "drift" ORDER BY created ASC"#.to_owned(),
            r#"FIND WHERE ANNOTATION CONTAINS "window 4" ORDER BY created DESC LIMIT 30"#
                .to_owned(),
        ];
        for root in roots {
            let hex = root.full_hex();
            queries.push(format!("FIND ANCESTORS OF ts:{hex} ORDER BY created ASC"));
            queries.push(format!("FIND ANCESTORS OF ts:{hex} ABSTRACTED ORDER BY created ASC"));
            queries.push(format!("FIND DESCENDANTS OF ts:{hex} WITH SELF ORDER BY created ASC"));
        }
        for q in &queries {
            let page = pass.query_text(q).expect("query runs").ids();
            assert!(!page.is_empty() || q.contains(" OF "), "empty page for {q}");
            // The next page, resumed after the last id of this one.
            if let (Some(last), true) = (page.last(), q.contains("LIMIT")) {
                let next = format!("{q} AFTER ts:{}", last.full_hex());
                out.push(pass.query_text(&next).expect("next page runs").ids());
            }
            out.push(page);
        }
        (counts, out)
    }

    #[test]
    fn chunked_rebuild_matches_the_incrementally_built_state() {
        const RAW: usize = 3_000;
        const DERIVED: usize = 600;
        const { assert!(RAW + DERIVED + DERIVED / 6 > 3 * REBUILD_CHUNK) };
        let dir = TempDir::new("core-chunked-rebuild");
        let (before, roots) = {
            let pass = Pass::open(PassConfig::disk(SiteId(5), dir.path())).expect("open");
            let mut raw = Vec::with_capacity(RAW);
            for start in (0..RAW).step_by(500) {
                raw.extend(
                    pass.capture_batch((start..start + 500).map(|i| {
                        let t = 1_000 * i as u64;
                        let attrs = Attributes::new()
                            .with(keys::DOMAIN, ["traffic", "weather", "medical"][i % 3])
                            .with(keys::REGION, format!("region-{}", i % 7))
                            .with(keys::DESCRIPTION, format!("hourly window {}", i % 13))
                            .with(keys::TIME_START, Timestamp(t))
                            .with(keys::TIME_END, Timestamp(t + 999))
                            .with("count", i as i64);
                        (attrs, readings(i as u64), Timestamp(t + 999))
                    }))
                    .expect("capture"),
                );
            }
            // Half the store lives in tables, the rest in the memtable.
            pass.flush().expect("flush");
            let tools =
                [ToolDescriptor::new("aggregate", "1.0"), ToolDescriptor::abstracted("etl", "2")];
            let first: Vec<TupleSet> = (0..DERIVED)
                .map(|i| {
                    let parents = [raw[(i * 7_919) % RAW], raw[(i * 104_729 + 1) % RAW]];
                    derived(i, &parents, &tools[i % 2])
                })
                .collect();
            // A second generation, plus parents this store never saw.
            let second: Vec<TupleSet> = (0..DERIVED / 6)
                .map(|i| {
                    let foreign = TupleSetId(0xf00d_0000 + i as u128);
                    let parents =
                        [first[i * 6].provenance.id, first[i * 6 + 1].provenance.id, foreign];
                    derived(DERIVED + i, &parents, &tools[0])
                })
                .collect();
            for batch in first.chunks(200).chain(second.chunks(200)) {
                pass.ingest_batch(batch).expect("ingest derived");
            }
            for i in 0..30 {
                let note = Annotation::new(Timestamp(9_000_000), "ops", format!("drift {i} noted"));
                pass.annotate(raw[i * 97], note).expect("annotate");
                assert!(pass.remove_data(raw[i * 89 + 1]).expect("remove data"));
            }

            // Record keys are hash-ordered: some derived record must sort
            // into an earlier rebuild chunk than one of its parents, so
            // the rebuild meets it as a placeholder across chunks.
            let mut order: Vec<[u8; 17]> =
                pass.ids().into_iter().map(|id| keyspace::key(keyspace::RECORD, id)).collect();
            order.sort_unstable();
            let chunk_of = |id: TupleSetId| {
                let key = keyspace::key(keyspace::RECORD, id);
                order.binary_search(&key).ok().map(|pos| pos / REBUILD_CHUNK)
            };
            let crossing = first.iter().chain(&second).any(|ts| {
                let own = chunk_of(ts.provenance.id);
                ts.provenance.parents().any(|p| chunk_of(p) > own)
            });
            assert!(crossing, "no parent sorts into a later chunk than its child");

            let roots = vec![second[0].provenance.id, first[3].provenance.id, raw[0]];
            (fingerprint(&pass, &roots), roots)
        };

        let pass = Pass::open(PassConfig::disk(SiteId(5), dir.path())).expect("reopen");
        assert!(pass.verify_consistency().expect("audit").is_consistent());
        assert_eq!(fingerprint(&pass, &roots), before);
    }
}
