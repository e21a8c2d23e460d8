//! Layer decorators: the storage engine and the query provider wrapped
//! so every call into them opens a span. Nothing inside the program
//! changes; the decorators sit on the public `KvStore` and `Provider`
//! traits. With tracing off (the end-to-end run) a span costs one
//! thread-local flag check.

use crate::trace::span;
use pass_core::Snapshot;
use pass_index::{NodeIdx, PostingList};
use pass_model::{ProvenanceRecord, TimeRange, TupleSetId, Value};
use pass_query::{LineageClause, Provider};
use pass_storage::{KvStore, LsmEngine, Op, WriteBatch};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// `KvStore` decorator over the disk engine.
pub struct TracedStore {
    pub engine: Arc<LsmEngine>,
    /// Key + value bytes handed to `apply` (the WAL payload).
    pub applied_bytes: AtomicU64,
    pub applies: AtomicU64,
}

impl TracedStore {
    pub fn new(engine: Arc<LsmEngine>) -> TracedStore {
        TracedStore { engine, applied_bytes: AtomicU64::new(0), applies: AtomicU64::new(0) }
    }
}

impl KvStore for TracedStore {
    fn get(&self, key: &[u8]) -> pass_storage::Result<Option<Vec<u8>>> {
        let g = span("storage.get");
        let out = self.engine.get(key);
        if let Ok(Some(v)) = &out {
            g.count(v.len() as u64);
        }
        out
    }

    fn apply(&self, batch: WriteBatch) -> pass_storage::Result<()> {
        let bytes: usize = batch
            .ops()
            .iter()
            .map(|op| match op {
                Op::Put { key, value } => key.len() + value.len(),
                Op::Delete { key } => key.len(),
            })
            .sum();
        self.applied_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.applies.fetch_add(1, Ordering::Relaxed);
        let g = span("storage.apply");
        g.count(bytes as u64);
        self.engine.apply(batch)
    }

    fn scan_range(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> pass_storage::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let g = span("storage.scan_range");
        let out = self.engine.scan_range(start, end);
        if let Ok(rows) = &out {
            g.count(rows.len() as u64);
        }
        out
    }

    fn scan_prefix(&self, prefix: &[u8]) -> pass_storage::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let g = span("storage.scan_prefix");
        let out = self.engine.scan_prefix(prefix);
        if let Ok(rows) = &out {
            g.count(rows.len() as u64);
        }
        out
    }

    fn flush(&self) -> pass_storage::Result<()> {
        let _g = span("storage.flush");
        self.engine.flush()
    }
}

/// `Provider` decorator over a snapshot: the index layer as the query
/// executor sees it.
pub struct TracedProvider<'a>(pub &'a Snapshot);

fn counted(name: &'static str, f: impl FnOnce() -> PostingList) -> PostingList {
    let g = span(name);
    let out = f();
    g.count(out.len() as u64);
    out
}

impl Provider for TracedProvider<'_> {
    fn eq_lookup(&self, attr: &str, value: &Value) -> PostingList {
        counted("index.eq_lookup", || self.0.eq_lookup(attr, value))
    }

    fn range_lookup(&self, attr: &str, low: Bound<&Value>, high: Bound<&Value>) -> PostingList {
        counted("index.range_lookup", || self.0.range_lookup(attr, low, high))
    }

    fn time_overlap(&self, range: TimeRange) -> PostingList {
        counted("index.time_overlap", || self.0.time_overlap(range))
    }

    fn keyword_lookup(&self, phrase: &str) -> PostingList {
        counted("index.keyword_lookup", || self.0.keyword_lookup(phrase))
    }

    fn has_attr(&self, attr: &str) -> PostingList {
        counted("index.has_attr", || self.0.has_attr(attr))
    }

    fn all_nodes(&self) -> PostingList {
        counted("index.all_nodes", || self.0.all_nodes())
    }

    fn lineage(&self, clause: &LineageClause) -> Option<PostingList> {
        let g = span("index.lineage");
        let out = Provider::lineage(self.0, clause);
        g.count(out.as_ref().map_or(0, |p| p.len() as u64));
        out
    }

    fn node_of(&self, id: TupleSetId) -> Option<NodeIdx> {
        let _g = span("index.node_of");
        self.0.node_of(id)
    }

    fn fetch(&self, idx: NodeIdx) -> Option<ProvenanceRecord> {
        let _g = span("index.fetch");
        self.0.fetch(idx)
    }

    fn created_scan(&self, desc: bool) -> Option<Arc<[NodeIdx]>> {
        let g = span("index.created_scan");
        let out = self.0.created_scan(desc);
        g.count(out.as_ref().map_or(0, |s| s.len() as u64));
        out
    }
}
