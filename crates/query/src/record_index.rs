//! The in-memory provenance record index.
//!
//! A [`RecordIndex`] holds what a PASS keeps resident: every record, the
//! ancestry graph, and the attribute, keyword, and time indexes. It is
//! the one [`Provider`] that builds indexes: `pass-core` wraps it with
//! readings and commit versions, and `pass-distrib`'s sites hold it bare
//! (§IV-A: index sites keep "provenance, not readings"). What a record
//! contributes to the indexes is decided in one place, [`IndexDelta::push`].
//!
//! Each stored record is resident once, in a record table indexed by the
//! graph's [`NodeIdx`]: append-only byte chunks shared by `Arc`, so
//! cloning an index (the copy-on-write path under a live snapshot)
//! copies chunk pointers and one span per node, not records. A record's
//! resident bytes are its canonical encoding (the bytes a store writes
//! under its key) with every vocabulary string — attribute and tool
//! parameter names, tool names and versions — replaced by the varint of
//! its code in an append-only vocabulary the index owns and its clones
//! share. [`IndexDelta::push`] writes them from the record itself,
//! interning names it meets for the first time; a batch's records
//! travel in one buffer of its [`IndexDelta`] and reach the table with
//! one copy. Counting,
//! membership, ids, parents and the created-order scan never touch those
//! bytes: they read the graph and a `created_at` column.
//! [`RecordIndex::get`], [`RecordIndex::records`] and [`Provider::fetch`]
//! decode a record on every call; [`RecordIndex::encoding`] hands out the
//! bytes, holding their chunk and the vocabulary, to decode elsewhere.

use crate::ast::{LineageClause, Query};
use crate::error::Result;
use crate::exec::{execute, order_key, Cursor, PreparedQuery, Provider, QueryEngine, QueryResult};
use crate::record_table::{RecordBytes, RecordTable};
use crate::vocabulary::{Interner, Vocabulary};
use pass_index::keyword::tokenize;
use pass_index::{
    AncestryGraph, AttrIndex, BfsClosure, KeywordIndex, NodeIdx, PostingList, ReachStrategy,
    TimeIndex,
};
use pass_model::{keys, Annotation, ProvenanceRecord, TimeRange, Timestamp, TupleSetId, Value};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::{Arc, OnceLock};

/// Everything a batch of records contributes to the index, keyed by
/// each record's position in the batch: its id, creation time and
/// resident encoding, its parent edges, and its index rows, grouped
/// as they are extracted (one copy of each distinct attribute value and
/// keyword token per batch). It is built without touching the index
/// (only its vocabulary, which hands out codes on its own lock), so a
/// store can extract it ahead of its serialized publish step;
/// positions become `NodeIdx`es in [`RecordIndex::insert_delta`], where
/// graph interning assigns them. Made by [`RecordIndex::delta`], for
/// that index and its clones.
pub struct IndexDelta {
    /// The vocabulary of the index the delta is for.
    vocabulary: Arc<Vocabulary>,
    records: Vec<Pending>,
    /// Every record's resident encoding, back to back in batch order.
    bytes: Vec<u8>,
    /// The vocabulary codes the last pushed record's encoding wrote.
    codes: Vec<u32>,
    /// Every record's parent edges, back to back in batch order.
    parents: Vec<(TupleSetId, bool)>,
    /// The batch's distinct `(attribute, value)` pairs, each with its
    /// group in `attr_rows`.
    attrs: BTreeMap<AttrKey, BTreeMap<Value, u32>>,
    attr_rows: Rows,
    /// The batch's distinct keyword tokens, each with its group in
    /// `token_rows`.
    tokens: BTreeMap<String, u32>,
    token_rows: Rows,
    /// Annotation and description texts tokenized into `tokens`.
    docs: u64,
    ranges: Vec<(NodeIdx, TimeRange)>,
    /// A reused `Value::Str`, so a string row built from borrowed text
    /// (a tool's name or version) allocates only for a value the batch
    /// has not met yet.
    probe: Value,
    /// Merge-time buffers: each position's node, and the grouped runs.
    idxs: Vec<NodeIdx>,
    runs: Runs,
}

/// The attribute a delta row is for: a record attribute, by its
/// vocabulary code, or a pseudo-attribute every record is indexed under.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum AttrKey {
    Name(u32),
    Pseudo(&'static str),
}

/// One record of an [`IndexDelta`].
struct Pending {
    id: TupleSetId,
    created_at: Timestamp,
    /// Where the record's encoding ends in the delta's byte buffer.
    bytes_end: usize,
    /// Where the record's parent edges end in the delta's edge list.
    parents_end: usize,
}

/// Rows of a batch, each a group (one `(attribute, value)` pair or one
/// token) and a record position, in extraction order.
#[derive(Default)]
struct Rows {
    rows: Vec<(u32, NodeIdx)>,
    groups: u32,
}

impl Rows {
    /// Numbers a new group.
    fn group(&mut self) -> u32 {
        self.groups += 1;
        self.groups - 1
    }

    fn clear(&mut self) {
        self.rows.clear();
        self.groups = 0;
    }
}

/// Rows regrouped for the merge: every group's nodes, ascending, as one
/// contiguous run of `nodes`.
#[derive(Default)]
struct Runs {
    nodes: Vec<NodeIdx>,
    /// Where each group's run ends in `nodes`.
    ends: Vec<usize>,
}

impl Runs {
    /// Places each row's node (its position mapped through `idxs`) in
    /// its group's run by counting sort; runs keep extraction order, so
    /// a run is already ascending unless interning handed out nodes out
    /// of batch order (parents met as placeholders), and only then is
    /// it sorted.
    fn build(&mut self, rows: &Rows, idxs: &[NodeIdx]) {
        self.ends.clear();
        self.ends.resize(rows.groups as usize, 0);
        for &(group, _) in &rows.rows {
            self.ends[group as usize] += 1;
        }
        let mut start = 0;
        for end in &mut self.ends {
            let len = *end;
            *end = start;
            start += len;
        }
        self.nodes.clear();
        self.nodes.resize(rows.rows.len(), 0);
        for &(group, slot) in &rows.rows {
            let at = &mut self.ends[group as usize];
            self.nodes[*at] = idxs[slot as usize];
            *at += 1;
        }
        let mut start = 0;
        for &end in &self.ends {
            let run = &mut self.nodes[start..end];
            if run.windows(2).any(|w| w[0] > w[1]) {
                run.sort_unstable();
            }
            start = end;
        }
    }

    /// The run of `group`.
    fn run(&self, group: u32) -> &[NodeIdx] {
        let group = group as usize;
        let start = if group == 0 { 0 } else { self.ends[group - 1] };
        &self.nodes[start..self.ends[group]]
    }
}

impl IndexDelta {
    /// Adds `record`, held in its resident encoding, which this writes
    /// from the record: the canonical encoding with each vocabulary
    /// string written as its code, a name met for the first time getting
    /// the next one here. Extracts the record's index entries: its
    /// attributes (keyed by the codes just written, the one name lookup
    /// a row costs), the multi-valued `tool.name` / `tool.version`
    /// attributes, the `origin.site` / `created_at` / `ancestry.parents`
    /// pseudo-attributes, annotation and description text, and its
    /// declared time window.
    pub fn push(&mut self, record: &ProvenanceRecord) {
        // Positions stand in for `NodeIdx`es until `insert_delta`.
        let slot = NodeIdx::try_from(self.records.len())
            .expect("a batch holds fewer records than a NodeIdx can count");
        self.parents.extend(record.ancestry.iter().map(|d| (d.parent, d.tool.abstracted)));
        self.codes.clear();
        record.encode_with(&mut Interner::new(&self.vocabulary, &mut self.codes), &mut self.bytes);
        self.records.push(Pending {
            id: record.id,
            created_at: record.created_at,
            bytes_end: self.bytes.len(),
            parents_end: self.parents.len(),
        });
        // The encoding writes the record's attribute names first.
        for (at, (_, value)) in record.attributes.iter().enumerate() {
            self.attr_row(AttrKey::Name(self.codes[at]), value, slot);
        }
        // The same rows `multi_valued_attrs` lists for the executor.
        for d in &record.ancestry {
            self.str_row("tool.name", &d.tool.name, slot);
            self.str_row("tool.version", &d.tool.version, slot);
        }
        // Pseudo-attributes, indexed so the planner can serve them.
        let pseudo = [
            ("origin.site", Value::Int(i64::from(record.origin.0))),
            ("created_at", Value::Time(record.created_at)),
            ("ancestry.parents", Value::Int(record.ancestry.len() as i64)),
        ];
        for (name, value) in &pseudo {
            self.attr_row(AttrKey::Pseudo(name), value, slot);
        }
        for ann in &record.annotations {
            self.doc(&ann.text, slot);
        }
        if let Some(desc) = record.attributes.get_str(keys::DESCRIPTION) {
            self.doc(desc, slot);
        }
        if let Some(range) = record.time_range() {
            self.ranges.push((slot, range));
        }
    }

    /// Adds the row `(key, value)` of the record at `slot`. The value is
    /// copied only the first time the batch meets it.
    fn attr_row(&mut self, key: AttrKey, value: &Value, slot: NodeIdx) {
        let values = self.attrs.entry(key).or_default();
        let group = match values.get(value) {
            Some(&group) => group,
            None => {
                let group = self.attr_rows.group();
                values.insert(value.clone(), group);
                group
            }
        };
        self.attr_rows.rows.push((group, slot));
    }

    /// [`IndexDelta::attr_row`] for a string value read from `text`.
    fn str_row(&mut self, name: &'static str, text: &str, slot: NodeIdx) {
        let mut probe = std::mem::take(&mut self.probe);
        match &mut probe {
            Value::Str(s) => {
                s.clear();
                s.push_str(text);
            }
            other => *other = Value::Str(text.to_owned()),
        }
        self.attr_row(AttrKey::Pseudo(name), &probe, slot);
        self.probe = probe;
    }

    /// Tokenizes one annotation or description of the record at `slot`.
    fn doc(&mut self, text: &str, slot: NodeIdx) {
        for token in tokenize(text) {
            let group = match self.tokens.get(token.as_str()) {
                Some(&group) => group,
                None => {
                    let group = self.token_rows.group();
                    self.tokens.insert(token, group);
                    group
                }
            };
            self.token_rows.rows.push((group, slot));
        }
        self.docs += 1;
    }

    /// Number of records in the delta.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the delta holds no record.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// A record in its resident encoding, written against one index's
/// vocabulary ([`RecordIndex::resident`]), ready to replace the stored
/// bytes of its id ([`RecordIndex::annotate`]).
pub struct ResidentRecord {
    id: TupleSetId,
    bytes: Vec<u8>,
    vocabulary: Arc<Vocabulary>,
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
    /// Each stored record's resident encoding, by `NodeIdx`; none for
    /// placeholders (parents referenced but not stored here). As long as
    /// the graph. Owns the vocabulary the encodings are coded against.
    records: RecordTable,
    /// Each stored record's `created_at`, by `NodeIdx`: the created-order
    /// scan's sort key, read without decoding.
    created: Vec<Timestamp>,
    created_scans: CreatedScanCache,
}

impl RecordIndex {
    /// An empty index.
    pub fn new() -> Self {
        RecordIndex::default()
    }

    /// Indexes one record and sorts the time index; a no-op when the id
    /// is already stored.
    pub fn insert(&mut self, record: &ProvenanceRecord) {
        if self.contains(record.id) {
            return;
        }
        let mut delta = self.delta(1);
        delta.push(record);
        self.insert_delta(&mut delta);
        self.sort_time();
    }

    /// An empty delta with room for `records` records, for this index or
    /// any clone of it: they share the vocabulary its codes come from.
    pub fn delta(&self, records: usize) -> IndexDelta {
        IndexDelta {
            vocabulary: Arc::clone(self.records.vocabulary()),
            records: Vec::with_capacity(records),
            bytes: Vec::new(),
            codes: Vec::new(),
            parents: Vec::new(),
            attrs: BTreeMap::new(),
            attr_rows: Rows::default(),
            tokens: BTreeMap::new(),
            token_rows: Rows::default(),
            docs: 0,
            ranges: Vec::new(),
            probe: Value::Null,
            idxs: Vec::new(),
            runs: Runs::default(),
        }
    }

    /// Merges a pre-extracted batch and empties `delta` (a caller that
    /// merges under a lock frees the delta's buffers after leaving it):
    /// each record's graph edges, the batch's record bytes in one copy
    /// onto the record table, then each distinct attribute
    /// value's and token's run of nodes into its posting list, so
    /// maintenance cost is amortized over the batch and nothing is
    /// sorted but the runs interning left out of order. The caller must
    /// not pass ids already stored, nor a delta made for an unrelated
    /// index (it panics: the codes would name another vocabulary's
    /// strings). The time index is left unsorted (overlap queries still
    /// answer, by a linear scan) until [`RecordIndex::sort_time`], so a
    /// bulk load of many deltas sorts it once.
    pub fn insert_delta(&mut self, delta: &mut IndexDelta) {
        let IndexDelta {
            vocabulary,
            records,
            bytes,
            codes: _,
            parents,
            attrs,
            attr_rows,
            tokens,
            token_rows,
            docs,
            ranges,
            probe: _,
            idxs,
            runs,
        } = delta;
        assert!(
            Arc::ptr_eq(vocabulary, self.records.vocabulary()),
            "a delta is merged into the index it was made for, or a clone of it"
        );
        idxs.clear();
        let mut start = 0;
        for pending in records.iter() {
            let idx = self.graph.insert(pending.id, &parents[start..pending.parents_end]);
            start = pending.parents_end;
            debug_assert!(!self.records.contains(idx), "{} was already stored", pending.id);
            idxs.push(idx);
        }
        // Interning may have added placeholder parents too.
        let nodes = self.graph.node_count();
        self.records.resize(nodes);
        self.created.resize(nodes, Timestamp(0));
        for (pending, &idx) in records.iter().zip(idxs.iter()) {
            self.created[idx as usize] = pending.created_at;
        }
        self.records
            .append(bytes, idxs.iter().zip(records.iter()).map(|(&idx, p)| (idx, p.bytes_end)));
        records.clear();
        bytes.clear();
        parents.clear();
        runs.build(attr_rows, idxs);
        let names = vocabulary.read();
        for (key, values) in std::mem::take(attrs) {
            let name = match key {
                AttrKey::Name(code) => names.name(code).expect("a delta's codes are interned"),
                AttrKey::Pseudo(name) => name,
            };
            self.attrs.insert_bulk(
                name,
                values.into_iter().map(|(value, group)| (value, runs.run(group))),
            );
        }
        drop(names);
        attr_rows.clear();
        runs.build(token_rows, idxs);
        self.keywords.insert_bulk(
            *docs,
            std::mem::take(tokens).into_iter().map(|(token, group)| (token, runs.run(group))),
        );
        token_rows.clear();
        *docs = 0;
        for (slot, range) in ranges.drain(..) {
            self.time.insert(idxs[slot as usize], range);
        }
        self.created_scans = CreatedScanCache::default();
    }

    /// Sorts the time index after inserts (a no-op when nothing changed).
    pub fn sort_time(&mut self) {
        self.time.build();
    }

    /// `record` in its resident encoding, written against this index's
    /// vocabulary (a name it has not met gets its code here), for
    /// [`RecordIndex::annotate`] on this index or a clone of it.
    pub fn resident(&self, record: &ProvenanceRecord) -> ResidentRecord {
        let vocabulary = Arc::clone(self.records.vocabulary());
        let mut bytes = Vec::new();
        record.encode_with(&mut Interner::new(&vocabulary, &mut Vec::new()), &mut bytes);
        ResidentRecord { id: record.id, bytes, vocabulary }
    }

    /// Replaces a stored record's bytes with `record`, which must be the
    /// record with `annotations` appended ([`RecordIndex::resident`],
    /// built by the caller before it publishes), and indexes the
    /// annotations' text. The new bytes are appended to the record
    /// table; the old ones stay in their chunk, unreferenced. Returns
    /// false (and changes nothing) when its id is not stored. Panics on
    /// a record written against an unrelated index.
    pub fn annotate(&mut self, record: &ResidentRecord, annotations: &[Annotation]) -> bool {
        assert!(
            Arc::ptr_eq(&record.vocabulary, self.records.vocabulary()),
            "a resident record is stored in the index it was written for, or a clone of it"
        );
        let Some(idx) = self.stored_node(record.id) else {
            return false;
        };
        self.records.set(idx, &record.bytes);
        for ann in annotations {
            self.keywords.insert(idx, &ann.text);
        }
        true
    }

    /// Drops spare capacity after a bulk load: the growth slack of the
    /// posting lists, the graph's tables, the record table's span array
    /// and tail, and the `created_at` column.
    pub fn shrink_to_fit(&mut self) {
        self.attrs.shrink_to_fit();
        self.keywords.shrink_to_fit();
        self.graph.shrink_to_fit();
        self.records.shrink_to_fit();
        self.created.shrink_to_fit();
    }

    /// Number of records stored.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The node of a stored record (`None` for placeholders and unknown
    /// ids).
    fn stored_node(&self, id: TupleSetId) -> Option<NodeIdx> {
        self.graph.lookup(id).filter(|&idx| self.records.contains(idx))
    }

    /// The id and `created_at` of the record stored at `idx`, read
    /// without decoding (`None` for placeholders and unknown nodes).
    pub fn created_of(&self, idx: NodeIdx) -> Option<(TupleSetId, Timestamp)> {
        if !self.records.contains(idx) {
            return None;
        }
        Some((self.graph.resolve(idx)?, self.created[idx as usize]))
    }

    /// The record stored under `id`, decoded.
    pub fn get(&self, id: TupleSetId) -> Option<ProvenanceRecord> {
        self.records.decode(self.stored_node(id)?)
    }

    /// The resident encoding of the record stored under `id`, holding
    /// its chunk and the vocabulary: a caller under a lock takes it there
    /// and decodes it ([`RecordBytes::decode`]) after leaving the lock.
    pub fn encoding(&self, id: TupleSetId) -> Option<RecordBytes> {
        self.records.share(self.stored_node(id)?)
    }

    /// True when the record is stored here.
    pub fn contains(&self, id: TupleSetId) -> bool {
        self.stored_node(id).is_some()
    }

    /// Every stored record, decoded one at a time (in node order).
    pub fn records(&self) -> impl Iterator<Item = ProvenanceRecord> + '_ {
        self.records.records()
    }

    /// Every stored record's id (in node order).
    pub fn record_ids(&self) -> impl Iterator<Item = TupleSetId> + '_ {
        self.records.nodes().filter_map(|idx| self.graph.resolve(idx))
    }

    /// Direct parents of a stored record, in ancestry order (a parent
    /// named twice is listed twice).
    pub fn parents_of(&self, id: TupleSetId) -> Option<Vec<TupleSetId>> {
        let idx = self.stored_node(id)?;
        Some(self.graph.parents_of(idx).iter().filter_map(|e| self.graph.resolve(e.node)).collect())
    }

    /// The ancestry graph (placeholders included).
    pub fn graph(&self) -> &AncestryGraph {
        &self.graph
    }

    /// Total `(attr, value, node)` index entries.
    pub fn attr_entries(&self) -> u64 {
        self.attrs.len()
    }

    /// Approximate bytes held by the indexes, the `created_at` column and
    /// the vocabulary (the record table excluded; see
    /// [`RecordIndex::record_bytes`]).
    pub fn size_bytes(&self) -> usize {
        self.records.vocabulary().size_bytes()
            + self.attrs.size_bytes()
            + self.keywords.size_bytes()
            + self.graph.size_bytes()
            + self.time.size_bytes()
            + self.created.capacity() * std::mem::size_of::<Timestamp>()
    }

    /// Total bytes of the resident record encodings (vocabulary strings
    /// as codes).
    pub fn record_bytes(&self) -> usize {
        self.records.record_bytes()
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
        PostingList::from_sorted(self.records.nodes().collect())
    }
    fn lineage(&self, clause: &LineageClause) -> Option<PostingList> {
        self.closure(clause)
    }
    fn node_of(&self, id: TupleSetId) -> Option<NodeIdx> {
        self.graph.lookup(id)
    }
    /// Decodes the record's resident bytes.
    fn fetch(&self, idx: NodeIdx) -> Option<ProvenanceRecord> {
        self.records.decode(idx)
    }
    /// Built once per index state from the `created_at` column and
    /// shared by every cursor (O(n log n) on the first ordered query
    /// after an insert, an `Arc` clone after).
    fn created_scan(&self, desc: bool) -> Option<Arc<[NodeIdx]>> {
        let cell = if desc { &self.created_scans.desc } else { &self.created_scans.asc };
        let scan = cell.get_or_init(|| {
            let mut keyed: Vec<_> = self
                .records
                .nodes()
                .filter_map(|idx| {
                    let id = self.graph.resolve(idx)?;
                    Some((order_key(self.created[idx as usize], id, desc), idx))
                })
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
    use crate::record_table::CHUNK_BYTES;
    use pass_model::codec::{varint_len, Decode, Encode};
    use pass_model::{Digest128, ProvenanceBuilder, SiteId, ToolDescriptor};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    fn record(domain: &str, n: u8) -> ProvenanceRecord {
        ProvenanceBuilder::new(SiteId(1), Timestamp(u64::from(n)))
            .attr("domain", domain)
            .build(Digest128::of(&[n]))
    }

    /// A reference for the codes an index hands out: names are numbered
    /// in the order records are pushed, each record's in encoding order.
    #[derive(Default)]
    struct Codes(HashMap<String, u64>);

    impl Codes {
        /// The vocabulary strings of `record`, in encoding order.
        fn names(record: &ProvenanceRecord) -> Vec<&str> {
            let mut out: Vec<&str> = record.attributes.names().collect();
            for d in &record.ancestry {
                out.extend([d.tool.name.as_str(), d.tool.version.as_str()]);
                out.extend(d.tool.params.names());
            }
            out
        }

        /// Numbers the names of a record pushed into a delta.
        fn note(&mut self, record: &ProvenanceRecord) {
            for name in Self::names(record) {
                let next = self.0.len() as u64;
                self.0.entry(name.to_owned()).or_insert(next);
            }
        }

        /// The resident length of a noted record: its canonical length,
        /// less each vocabulary string's bytes and length varint, plus
        /// the varint of its code.
        fn resident_len(&self, record: &ProvenanceRecord) -> usize {
            Self::names(record).iter().fold(record.encode_to_vec().len(), |len, name| {
                len - name.len() - varint_len(name.len() as u64) + varint_len(self.0[*name])
            })
        }
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
        // One name, "domain", written as a one-byte code instead of a
        // length byte and six bytes.
        let canonical = a.encode_to_vec().len() + b.encode_to_vec().len();
        assert_eq!(index.record_bytes(), canonical - 2 * 6);
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

    /// A parent no pool record is: it stays a placeholder for good.
    const FOREIGN: TupleSetId = TupleSetId(0xf0_0000);

    /// Record `i` of the pool, per its spec `(kind, pick, created, user
    /// created_at attribute, value, size)`. `kind` 0 is a raw capture; 1
    /// derives from an earlier pool record, 2 names that parent twice,
    /// 3 adds [`FOREIGN`]. Creation times come from a range of four, so
    /// ties are common. `size` 6 pads the record to half a record-table
    /// chunk and 7 past a whole one, so tables of a few records seal
    /// chunks and give a record a chunk of its own.
    fn pool(specs: &[(u8, usize, u64, bool, i64, u8)]) -> Vec<ProvenanceRecord> {
        let mut out: Vec<ProvenanceRecord> = Vec::with_capacity(specs.len());
        for (i, &(kind, pick, created, user_created, value, size)) in specs.iter().enumerate() {
            let mut builder =
                ProvenanceBuilder::new(SiteId(1 + (i % 2) as u32), Timestamp(created))
                    .attr("domain", ["traffic", "weather"][i % 2])
                    .attr("seq", i as i64);
            if user_created {
                builder = builder.attr("created_at", value);
            }
            if value % 2 == 0 {
                builder = builder.attr(keys::DESCRIPTION, format!("window {value}"));
            }
            match size {
                6 => builder = builder.attr("pad", "p".repeat(CHUNK_BYTES / 2)),
                7 => builder = builder.attr("pad", "p".repeat(CHUNK_BYTES + 1)),
                _ => {}
            }
            if kind > 0 && i > 0 {
                let tool = ToolDescriptor::new("agg", "1");
                let parent = out[pick % i].id;
                builder = builder.derived_from(parent, tool.clone());
                match kind {
                    2 => builder = builder.derived_from(parent, tool),
                    3 => builder = builder.derived_from(FOREIGN, tool),
                    _ => {}
                }
            }
            out.push(builder.build(Digest128::of(&(i as u64).to_be_bytes())));
        }
        out
    }

    /// Everything the index answers, checked against the decoded oracle
    /// and the reference codes.
    fn assert_agrees(
        index: &RecordIndex,
        oracle: &BTreeMap<TupleSetId, ProvenanceRecord>,
        codes: &Codes,
    ) {
        assert_eq!(index.len(), oracle.len());
        assert_eq!(index.is_empty(), oracle.is_empty());
        let resident: usize = oracle.values().map(|r| codes.resident_len(r)).sum();
        assert_eq!(index.record_bytes(), resident);
        let mut ids: Vec<TupleSetId> = index.record_ids().collect();
        ids.sort_unstable();
        assert_eq!(ids, oracle.keys().copied().collect::<Vec<_>>());
        let mut records: Vec<ProvenanceRecord> = index.records().collect();
        records.sort_by_key(|r| r.id);
        assert_eq!(records, oracle.values().cloned().collect::<Vec<_>>());
        let mut all: Vec<TupleSetId> =
            index.all_nodes().iter().filter_map(|idx| index.graph().resolve(idx)).collect();
        all.sort_unstable();
        assert_eq!(all, ids);
        for (&id, record) in oracle {
            assert!(index.contains(id));
            assert_eq!(index.get(id).as_ref(), Some(record));
            let idx = index.node_of(id).expect("stored records have a node");
            assert_eq!(index.fetch(idx).as_ref(), Some(record));
            assert_eq!(index.parents_of(id), Some(record.parents().collect()));
        }
        // Grouped rows land in strictly ascending posting lists, also when
        // interning handed out nodes out of batch order (placeholders).
        let postings = [
            ("domain = traffic", index.eq_lookup("domain", &Value::from("traffic"))),
            ("tool.name = agg", index.eq_lookup("tool.name", &Value::from("agg"))),
            ("has created_at", index.has_attr("created_at")),
            ("text window", index.keyword_lookup("window")),
            ("text note", index.keyword_lookup("note")),
        ];
        let expected: [&dyn Fn(&ProvenanceRecord) -> bool; 5] = [
            &|r| r.attributes.get_str("domain") == Some("traffic"),
            &|r| !r.ancestry.is_empty(),
            &|_| true,
            &|r| r.attributes.get_str(keys::DESCRIPTION).is_some(),
            &|r| !r.annotations.is_empty(),
        ];
        for ((what, posting), want) in postings.iter().zip(expected) {
            assert!(posting.as_slice().windows(2).all(|w| w[0] < w[1]), "{what}: not ascending");
            let mut got = index.graph().resolve_all(posting.as_slice());
            got.sort_unstable();
            let want: Vec<TupleSetId> = oracle.values().filter(|r| want(r)).map(|r| r.id).collect();
            assert_eq!(got, want, "{what}");
        }
        for desc in [false, true] {
            let mut expect: Vec<&ProvenanceRecord> = oracle.values().collect();
            expect.sort_by_key(|r| order_key(r.created_at, r.id, desc));
            let expect: Vec<TupleSetId> = expect.iter().map(|r| r.id).collect();
            let scan = index.created_scan(desc).expect("the index serves ordered scans");
            assert_eq!(index.graph().resolve_all(&scan), expect, "created scan, desc = {desc}");
        }
    }

    /// Asserts `index` holds nothing for an id it does not store.
    fn assert_absent(index: &RecordIndex, id: TupleSetId) {
        assert!(!index.contains(id));
        assert_eq!(index.get(id), None);
        assert_eq!(index.parents_of(id), None);
        if let Some(idx) = index.node_of(id) {
            assert!(index.graph().is_placeholder(idx));
            assert_eq!(index.fetch(idx), None);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The byte table answers exactly what a map of decoded records
        /// would, under random one-record inserts, batch deltas,
        /// annotations with caller-built encodings, and clone-then-insert
        /// (which must not reuse the original's cached scans, nor change
        /// the original's bytes). Records meet their parents as
        /// placeholders first whenever the insert order puts a child
        /// ahead; a user attribute named `created_at` shows why the
        /// created scan cannot read the attribute postings. Padded pool
        /// records cross record-table chunk boundaries: a record larger
        /// than a chunk, annotations of records whose chunk was sealed,
        /// and appends after a clone that seal or copy the shared tail.
        #[test]
        fn byte_table_agrees_with_decoded_records(
            specs in proptest::collection::vec(
                (0u8..4, 0usize..64, 0u64..4, any::<bool>(), 0i64..6, 0u8..8), 2..20),
            ops in proptest::collection::vec((0u8..5, 0usize..64, 0usize..64), 1..30),
        ) {
            let pool = pool(&specs);
            let n = pool.len();
            let mut index = RecordIndex::new();
            let mut oracle: BTreeMap<TupleSetId, ProvenanceRecord> = BTreeMap::new();
            let mut codes = Codes::default();
            for (op, a, b) in ops {
                let pick = &pool[a % n];
                match op {
                    0 => {
                        // Stored records keep their (annotated) bytes.
                        index.insert(pick);
                        oracle.entry(pick.id).or_insert_with(|| {
                            codes.note(pick);
                            pick.clone()
                        });
                    }
                    1 => {
                        let mut delta = index.delta(4);
                        for record in (0..=b % 4).map(|k| &pool[(a + k) % n]) {
                            oracle.entry(record.id).or_insert_with(|| {
                                delta.push(record);
                                codes.note(record);
                                record.clone()
                            });
                        }
                        index.insert_delta(&mut delta);
                        index.sort_time();
                    }
                    2 => {
                        let note = Annotation::new(Timestamp(7), "ops", format!("note {b}"));
                        match oracle.get_mut(&pick.id) {
                            Some(record) => {
                                record.annotate(note.clone());
                                let resident = index.resident(record);
                                prop_assert!(index.annotate(&resident, &[note]));
                            }
                            None => {
                                codes.note(pick);
                                let resident = index.resident(pick);
                                prop_assert!(!index.annotate(&resident, &[note]));
                            }
                        }
                    }
                    3 => {
                        // Warm the original's scans, then insert into a clone.
                        let before = (index.created_scan(false), index.created_scan(true));
                        let mut copy = index.clone();
                        copy.insert(pick);
                        if !oracle.contains_key(&pick.id) {
                            codes.note(pick);
                        }
                        prop_assert_eq!((index.created_scan(false), index.created_scan(true)), before);
                        assert_agrees(&index, &oracle, &codes);
                        oracle.entry(pick.id).or_insert_with(|| pick.clone());
                        index = copy;
                    }
                    _ => {
                        // A read between writes caches scans a later insert must reset.
                        index.created_scan(false);
                        index.created_scan(true);
                    }
                }
                assert_agrees(&index, &oracle, &codes);
            }
            for record in pool.iter().filter(|r| !oracle.contains_key(&r.id)) {
                assert_absent(&index, record.id);
            }
            assert_absent(&index, FOREIGN);
        }

        /// Resident decode equals canonical decode for random records:
        /// vocabulary strings of 0–300 bytes, ASCII or not, in attribute
        /// names, tool names, versions and parameters, with annotations,
        /// after `filler` names took the first codes (so codes reach two
        /// bytes). Two deltas, each bringing names of its own, are merged
        /// into one index in either order while a clone taken before both
        /// gets a third; an annotation after a clone leaves the clone's
        /// bytes alone. Every index decodes exactly its own records, in
        /// exactly the bytes the reference codes predict.
        #[test]
        fn resident_decode_equals_canonical_decode(
            filler in 0usize..200,
            specs in proptest::collection::vec(arb_spec(), 2..12),
            split in 0usize..12,
            a_first in any::<bool>(),
        ) {
            let records: Vec<ProvenanceRecord> =
                specs.iter().enumerate().map(|(i, spec)| build(i, spec)).collect();
            let filler = ProvenanceBuilder::new(SiteId(9), Timestamp(0))
                .attrs(&(0..filler).map(|k| (format!("filler {k}"), Value::Int(0))).collect())
                .build(Digest128::of(b"filler"));
            let mut codes = Codes::default();
            let mut index = RecordIndex::new();
            index.insert(&filler);
            codes.note(&filler);
            let before = index.clone();
            let (first, second) = records.split_at(split.min(records.len()));
            let mut deltas = [first, second].map(|part| {
                let mut delta = index.delta(part.len());
                for record in part {
                    delta.push(record);
                    codes.note(record);
                }
                delta
            });
            if !a_first {
                deltas.reverse();
            }
            for delta in &mut deltas {
                index.insert_delta(delta);
            }
            let mut clone = before.clone();
            let mut delta = clone.delta(second.len());
            for record in second {
                delta.push(record);
            }
            clone.insert_delta(&mut delta);

            let mut annotated = records[0].clone();
            annotated.annotate(Annotation::new(Timestamp(3), "ops", "é annotated after a clone"));
            let snapshot = index.clone();
            prop_assert!(index.annotate(&index.resident(&annotated), &annotated.annotations));

            let expect = |index: &RecordIndex, stored: &[&ProvenanceRecord]| {
                assert_eq!(index.len(), stored.len());
                for record in stored {
                    let canonical = ProvenanceRecord::decode_all(&record.encode_to_vec()).unwrap();
                    assert_eq!(index.get(record.id).as_ref(), Some(&canonical));
                    assert_eq!(index.encoding(record.id).unwrap().decode(), Some(canonical));
                }
                let resident: usize = stored.iter().map(|r| codes.resident_len(r)).sum();
                assert_eq!(index.record_bytes(), resident);
            };
            let mut stored: Vec<&ProvenanceRecord> = vec![&filler, &annotated];
            stored.extend(&records[1..]);
            expect(&index, &stored);
            let mut stored: Vec<&ProvenanceRecord> = vec![&filler];
            stored.extend(&records);
            expect(&snapshot, &stored);
            let mut stored: Vec<&ProvenanceRecord> = vec![&filler];
            stored.extend(second);
            expect(&clone, &stored);
            expect(&before, &[&filler]);
        }
    }

    /// A vocabulary string: short ASCII that recurs across records, long
    /// ASCII with a two-byte length varint, or non-ASCII of up to 240
    /// bytes.
    fn arb_name() -> impl Strategy<Value = String> {
        prop_oneof![
            4 => "[a-d]{0,3}",
            1 => "[a-z_.]{120,300}",
            2 => "[aé中😀ß]{0,60}",
        ]
    }

    /// A record's attributes, its tools (name, version, parameters) and
    /// its annotations.
    type Spec = (Vec<(String, i64)>, Vec<(String, String, Vec<(String, i64)>)>, Vec<String>);

    fn arb_spec() -> impl Strategy<Value = Spec> {
        (
            proptest::collection::vec((arb_name(), 0i64..4), 0..5),
            proptest::collection::vec(
                (arb_name(), arb_name(), proptest::collection::vec((arb_name(), 0i64..3), 0..3)),
                0..3,
            ),
            proptest::collection::vec("[a-z ]{0,12}", 0..3),
        )
    }

    /// Record `i` of a [`Spec`], each tool deriving it from a parent no
    /// record is.
    fn build(i: usize, (attrs, tools, notes): &Spec) -> ProvenanceRecord {
        let mut builder = ProvenanceBuilder::new(SiteId(1), Timestamp(i as u64));
        for (name, value) in attrs {
            builder = builder.attr(name.as_str(), *value);
        }
        for (k, (name, version, params)) in tools.iter().enumerate() {
            let mut tool = ToolDescriptor::new(name.as_str(), version.as_str());
            for (param, value) in params {
                tool = tool.with_param(param.as_str(), *value);
            }
            builder = builder.derived_from(TupleSetId(0xa000 + (i * 8 + k) as u128), tool);
        }
        let mut record = builder.build(Digest128::of(&(i as u64).to_be_bytes()));
        for note in notes {
            record.annotate(Annotation::new(Timestamp(1), "ops", note.as_str()));
        }
        record
    }
}
