//! The in-memory provenance record index.
//!
//! A [`RecordIndex`] holds what a PASS keeps resident: every record, the
//! ancestry graph, and the attribute, keyword, and time indexes. It is
//! the one [`Provider`] that builds indexes: `pass-core` wraps it with
//! readings and commit versions, and `pass-distrib`'s sites hold it bare
//! (§IV-A: index sites keep "provenance, not readings"). What a record
//! contributes to the indexes is decided in one place, [`IndexDelta::new`].

use crate::ast::{multi_valued_attrs, LineageClause, Query};
use crate::error::Result;
use crate::exec::{execute, order_key, Cursor, PreparedQuery, Provider, QueryEngine, QueryResult};
use pass_index::{
    AncestryGraph, AttrIndex, BfsClosure, KeywordIndex, NodeIdx, PostingList, ReachStrategy,
    TimeIndex,
};
use pass_model::{keys, Annotation, ProvenanceRecord, TimeRange, TupleSetId, Value};
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::{Arc, OnceLock};

/// Everything a batch of records contributes to the indexes, keyed by
/// each record's position in the batch. It is built without touching the
/// index, so a store can extract it ahead of its serialized publish step;
/// positions become `NodeIdx`es in [`RecordIndex::insert_delta`], where
/// graph interning assigns them.
#[derive(Default)]
pub struct IndexDelta {
    records: Vec<ProvenanceRecord>,
    parents: Vec<Vec<(TupleSetId, bool)>>,
    attrs: Vec<(usize, String, Value)>,
    docs: Vec<(usize, String)>,
    ranges: Vec<(usize, TimeRange)>,
}

impl IndexDelta {
    /// Extracts the index entries of `records`: their attributes, the
    /// multi-valued tool attributes, the `origin.site` / `created_at` /
    /// `ancestry.parents` pseudo-attributes, annotation and description
    /// text, and declared time windows.
    pub fn new(records: Vec<ProvenanceRecord>) -> IndexDelta {
        let mut delta = IndexDelta::default();
        for (slot, record) in records.iter().enumerate() {
            delta
                .parents
                .push(record.ancestry.iter().map(|d| (d.parent, d.tool.abstracted)).collect());
            // Pseudo-attributes, indexed so the planner can serve them.
            let pseudo = [
                ("origin.site", Value::Int(i64::from(record.origin.0))),
                ("created_at", Value::Time(record.created_at)),
                ("ancestry.parents", Value::Int(record.ancestry.len() as i64)),
            ];
            let own = record.attributes.iter().map(|(name, value)| (name, value.clone()));
            for (name, value) in own.chain(multi_valued_attrs(record)).chain(pseudo) {
                delta.attrs.push((slot, name.to_owned(), value));
            }
            for ann in &record.annotations {
                delta.docs.push((slot, ann.text.clone()));
            }
            if let Some(desc) = record.attributes.get_str(keys::DESCRIPTION) {
                delta.docs.push((slot, desc.to_owned()));
            }
            if let Some(range) = record.time_range() {
                delta.ranges.push((slot, range));
            }
        }
        delta.records = records;
        delta
    }
}

/// Lazily-built created-order scans, shared by every cursor opened on one
/// index state. Cloning and every insert reset it.
#[derive(Default)]
struct CreatedScanCache {
    asc: OnceLock<Arc<[NodeIdx]>>,
    desc: OnceLock<Arc<[NodeIdx]>>,
}

impl Clone for CreatedScanCache {
    fn clone(&self) -> Self {
        CreatedScanCache::default()
    }
}

/// An in-memory provenance index: records, ancestry graph, and the
/// attribute, keyword, and time indexes, served through [`Provider`].
#[derive(Clone, Default)]
pub struct RecordIndex {
    graph: AncestryGraph,
    attrs: AttrIndex,
    keywords: KeywordIndex,
    time: TimeIndex,
    records: HashMap<TupleSetId, ProvenanceRecord>,
    created_scans: CreatedScanCache,
}

impl RecordIndex {
    /// An empty index.
    pub fn new() -> Self {
        RecordIndex::default()
    }

    /// Indexes one record and sorts the time index; a no-op when the id
    /// is already indexed.
    pub fn insert(&mut self, record: &ProvenanceRecord) {
        if self.records.contains_key(&record.id) {
            return;
        }
        self.insert_delta(IndexDelta::new(vec![record.clone()]));
        self.sort_time();
    }

    /// Merges a pre-extracted batch: graph edges per record, then one
    /// sorted bulk insert per index, so maintenance cost is amortized
    /// over the batch. The caller must not pass ids already indexed.
    /// The time index is left unsorted (overlap queries still answer,
    /// by a linear scan) until [`RecordIndex::sort_time`], so a bulk
    /// load of many deltas sorts it once.
    pub fn insert_delta(&mut self, delta: IndexDelta) {
        let idxs: Vec<NodeIdx> = delta
            .records
            .iter()
            .zip(&delta.parents)
            .map(|(record, parents)| self.graph.insert(record.id, parents))
            .collect();
        self.attrs.insert_bulk(
            delta.attrs.into_iter().map(|(slot, name, value)| (idxs[slot], name, value)).collect(),
        );
        self.keywords
            .insert_bulk(delta.docs.iter().map(|(slot, text)| (idxs[*slot], text.as_str())));
        for (slot, range) in delta.ranges {
            self.time.insert(idxs[slot], range);
        }
        for record in delta.records {
            self.records.insert(record.id, record);
        }
        self.created_scans = CreatedScanCache::default();
    }

    /// Sorts the time index after inserts (a no-op when nothing changed).
    pub fn sort_time(&mut self) {
        self.time.build();
    }

    /// Appends annotations to an indexed record and indexes their text.
    /// Returns false (and changes nothing) when `id` is not indexed.
    pub fn annotate(&mut self, id: TupleSetId, annotations: &[Annotation]) -> bool {
        let (Some(idx), Some(record)) = (self.graph.lookup(id), self.records.get_mut(&id)) else {
            return false;
        };
        for ann in annotations {
            record.annotate(ann.clone());
            self.keywords.insert(idx, &ann.text);
        }
        true
    }

    /// Reserves room for `additional` more records.
    pub fn reserve(&mut self, additional: usize) {
        self.records.reserve(additional);
    }

    /// Number of records indexed.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Record lookup.
    pub fn get(&self, id: TupleSetId) -> Option<&ProvenanceRecord> {
        self.records.get(&id)
    }

    /// True when the record is indexed here.
    pub fn contains(&self, id: TupleSetId) -> bool {
        self.records.contains_key(&id)
    }

    /// Every indexed record (unordered).
    pub fn records(&self) -> impl Iterator<Item = &ProvenanceRecord> {
        self.records.values()
    }

    /// Direct parents of an id, when indexed here.
    pub fn parents_of(&self, id: TupleSetId) -> Option<Vec<TupleSetId>> {
        self.records.get(&id).map(|r| r.parents().collect())
    }

    /// The ancestry graph (placeholders included).
    pub fn graph(&self) -> &AncestryGraph {
        &self.graph
    }

    /// Total `(attr, value, node)` index entries.
    pub fn attr_entries(&self) -> u64 {
        self.attrs.len()
    }

    /// Approximate bytes held by the indexes (records excluded).
    pub fn size_bytes(&self) -> usize {
        self.attrs.size_bytes()
            + self.keywords.size_bytes()
            + self.graph.size_bytes()
            + self.time.size_bytes()
    }

    /// [`Provider::lineage`]: breadth-first over the graph; placeholder
    /// nodes (parents referenced but not stored here) are traversed but
    /// never returned. A name of its own, because pass-lint resolves
    /// calls by name and would read a `lineage` call as `Pass::lineage`.
    pub fn closure(&self, clause: &LineageClause) -> Option<PostingList> {
        let root = self.graph.lookup(clause.root)?;
        let mut reach =
            BfsClosure.reachable(&self.graph, root, clause.direction, &clause.traverse_opts());
        reach.retain(|&idx| !self.graph.is_placeholder(idx));
        let mut closure = PostingList::from_sorted(reach);
        if clause.include_root && !self.graph.is_placeholder(root) {
            closure.insert(root);
        }
        Some(closure)
    }

    /// Runs a query (drains a cursor).
    pub fn query(&self, query: &Query) -> Result<QueryResult> {
        execute(query, self)
    }

    /// Runs a query bounded for one remote page: at most `limit` ids,
    /// resuming strictly after `after`'s position in result order. The
    /// limit is pushed into the cursor, so a bounded page touches
    /// ~`limit` records regardless of index size.
    pub fn query_page(
        &self,
        query: &Query,
        after: Option<TupleSetId>,
        limit: usize,
    ) -> Result<Vec<TupleSetId>> {
        let mut page = query.clone();
        page.limit = Some(limit);
        page.after = after;
        Ok(self.open_query(&page)?.map(|r| r.id).collect())
    }
}

impl Provider for RecordIndex {
    fn eq_lookup(&self, attr: &str, value: &Value) -> PostingList {
        self.attrs.eq(attr, value)
    }
    fn range_lookup(&self, attr: &str, low: Bound<&Value>, high: Bound<&Value>) -> PostingList {
        self.attrs.range(attr, low, high)
    }
    fn time_overlap(&self, range: TimeRange) -> PostingList {
        self.time.overlapping(range)
    }
    fn keyword_lookup(&self, phrase: &str) -> PostingList {
        self.keywords.lookup_all(phrase)
    }
    fn has_attr(&self, attr: &str) -> PostingList {
        self.attrs.has_attr(attr)
    }
    fn all_nodes(&self) -> PostingList {
        PostingList::from_iter(self.records.keys().filter_map(|id| self.graph.lookup(*id)))
    }
    fn lineage(&self, clause: &LineageClause) -> Option<PostingList> {
        self.closure(clause)
    }
    fn node_of(&self, id: TupleSetId) -> Option<NodeIdx> {
        self.graph.lookup(id)
    }
    fn fetch(&self, idx: NodeIdx) -> Option<ProvenanceRecord> {
        self.records.get(&self.graph.resolve(idx)?).cloned()
    }
    /// Built once per index state and shared by every cursor (O(n log n)
    /// on the first ordered query after an insert, an `Arc` clone after).
    fn created_scan(&self, desc: bool) -> Option<Arc<[NodeIdx]>> {
        let cell = if desc { &self.created_scans.desc } else { &self.created_scans.asc };
        let scan = cell.get_or_init(|| {
            let mut keyed: Vec<_> = self
                .records
                .values()
                .filter_map(|r| Some((order_key(r, desc), self.graph.lookup(r.id)?)))
                .collect();
            keyed.sort_unstable_by_key(|&(key, _)| key);
            keyed.into_iter().map(|(_, idx)| idx).collect()
        });
        Some(Arc::clone(scan))
    }
}

impl QueryEngine for RecordIndex {
    fn open(&self, prepared: &PreparedQuery) -> Result<Cursor<'_>> {
        Cursor::over(self, prepared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_model::{Digest128, ProvenanceBuilder, SiteId, Timestamp, ToolDescriptor};

    fn record(domain: &str, n: u8) -> ProvenanceRecord {
        ProvenanceBuilder::new(SiteId(1), Timestamp(u64::from(n)))
            .attr("domain", domain)
            .build(Digest128::of(&[n]))
    }

    #[test]
    fn insert_and_query() {
        let mut index = RecordIndex::new();
        let a = record("traffic", 1);
        let b = record("weather", 2);
        index.insert(&a);
        index.insert(&b);
        index.insert(&a); // idempotent
        assert_eq!(index.len(), 2);
        let res = index.query(&crate::parse(r#"FIND WHERE domain = "traffic""#).unwrap()).unwrap();
        assert_eq!(res.ids(), vec![a.id]);
    }

    #[test]
    fn lineage_through_provider() {
        let mut index = RecordIndex::new();
        let root = record("x", 1);
        let child = ProvenanceBuilder::new(SiteId(1), Timestamp(9))
            .attr("domain", "x")
            .derived_from(root.id, ToolDescriptor::new("t", "1"))
            .build(Digest128::of(b"c"));
        index.insert(&root);
        index.insert(&child);
        let q = crate::parse(&format!("FIND ANCESTORS OF ts:{}", child.id.full_hex())).unwrap();
        let res = index.query(&q).unwrap();
        assert_eq!(res.ids(), vec![root.id]);
        assert_eq!(index.parents_of(child.id), Some(vec![root.id]));
        assert_eq!(index.parents_of(TupleSetId(999)), None);
    }
}
