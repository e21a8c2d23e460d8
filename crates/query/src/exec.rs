//! Streaming query execution over a provider.
//!
//! The executor is storage-agnostic: anything implementing [`Provider`]
//! can serve queries. [`RecordIndex`](crate::RecordIndex) is the one
//! implementation that builds indexes; the local PASS's snapshots and
//! [`Counted`] delegate to one. Execution is pull-based: [`prepare`]
//! plans a query once, [`Cursor`] (obtained from [`QueryEngine::open`]
//! or [`Cursor::over`]) then yields matching records one `next()` at a
//! time. Posting-list intersection, residual predicate re-checks, and
//! the `LIMIT`/`AFTER` cut all happen per pull, so a `LIMIT 10` query
//! over a million-record store touches ~10 records instead of
//! materializing all of them.
//!
//! [`execute`] remains as a thin collect-the-cursor compatibility
//! wrapper; its output is identical to draining the cursor.
//!
//! # What is lazy and what is not
//!
//! Index *lookups* (posting lists of ids) are materialized at open —
//! they are cheap id arrays, not records. Everything per-record is lazy:
//! the leapfrog intersection across posting lists advances one candidate
//! per pull, records are fetched and residual-checked one at a time, and
//! the cursor stops pulling the moment the limit is satisfied. Lineage
//! closures are likewise computed as id sets at open (the closure is
//! needed in full to intersect correctly); only their record fetches
//! stream. A closure ([`Provider::lineage`]) holds stored records only,
//! so an unfiltered `FIND ANCESTORS|DESCENDANTS OF` uses it as its only
//! candidate list and never evaluates the whole store: a lineage page
//! costs O(closure), not O(store). `ORDER BY` is pushed into the plan
//! when the provider can serve a creation-time-ordered scan
//! ([`Provider::created_scan`]) and the candidate source is the whole
//! store; selective sources fall back to fetch-sort-emit, which buffers
//! on the first pull.

use crate::ast::{LineageClause, OrderBy, Predicate, Query};
use crate::error::{QueryError, Result};
use crate::plan::{plan, IndexExpr, Plan, PlanSource};
use pass_index::{NodeIdx, PostingList};
use pass_model::{ProvenanceRecord, TimeRange, Timestamp, TupleSetId, Value};
use std::ops::Bound;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The index/storage surface the executor runs against.
pub trait Provider {
    /// Posting list for `attr = value`.
    fn eq_lookup(&self, attr: &str, value: &Value) -> PostingList;
    /// Posting list for a value range on an attribute.
    fn range_lookup(&self, attr: &str, low: Bound<&Value>, high: Bound<&Value>) -> PostingList;
    /// Posting list of records whose time window overlaps `range`.
    fn time_overlap(&self, range: TimeRange) -> PostingList;
    /// Posting list of records whose annotations/description contain all
    /// tokens of `phrase`.
    fn keyword_lookup(&self, phrase: &str) -> PostingList;
    /// Posting list of records carrying the attribute.
    fn has_attr(&self, attr: &str) -> PostingList;
    /// Every record in the store.
    fn all_nodes(&self) -> PostingList;
    /// Lineage closure of the clause's root over *stored* records: every
    /// record the traversal reaches (placeholder nodes — parents that are
    /// referenced but not stored here — are traversed but never
    /// returned), plus the root itself when `clause.include_root` is set
    /// and the root is stored. `None` when the root is unknown here. A
    /// lineage query without a filter uses this list as its only
    /// candidate source, so a page costs O(closure), not O(store).
    fn lineage(&self, clause: &LineageClause) -> Option<PostingList>;
    /// Dense index of a tuple set id, if present.
    fn node_of(&self, id: pass_model::TupleSetId) -> Option<NodeIdx>;
    /// Fetches the record behind a dense index, as an owned value.
    /// [`RecordIndex`](crate::RecordIndex) keeps each record as its
    /// canonical bytes, so every call decodes one.
    fn fetch(&self, idx: NodeIdx) -> Option<ProvenanceRecord>;
    /// Every record's dense index in creation-time order (ties broken by
    /// tuple set id, both ascending for `desc = false`, creation time
    /// descending with ids still ascending within a tie for
    /// `desc = true`). `None` when the provider cannot serve ordered
    /// scans; the cursor then falls back to fetch-and-sort. This is the
    /// `ORDER BY` pushdown hook: a "latest N" query over a store that
    /// implements it fetches N records, not all of them. Sort by the
    /// executor's own key (`exec::order_key`) so the scan always matches
    /// its sort fallback, and return a cached `Arc` when the store is
    /// immutable between commits — cursors share it without copying.
    fn created_scan(&self, desc: bool) -> Option<Arc<[NodeIdx]>> {
        let _ = desc;
        None
    }
}

/// A [`Provider`] decorator that counts record fetches and whole-store
/// evaluations ([`Provider::all_nodes`]) and delegates everything else.
/// It is the probe behind the executor's cost contracts, which hold by
/// count on any host: a `LIMIT k` page fetches about `k` records, and a
/// lineage page never evaluates the whole store.
#[derive(Debug, Default)]
pub struct Counted<P> {
    inner: P,
    fetches: AtomicUsize,
    all_nodes: AtomicUsize,
}

impl<P: Provider> Counted<P> {
    /// Wraps `inner` with both counters at zero.
    pub fn new(inner: P) -> Self {
        Counted { inner, fetches: AtomicUsize::new(0), all_nodes: AtomicUsize::new(0) }
    }

    /// The wrapped provider.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// [`Provider::fetch`] calls so far.
    pub fn fetches(&self) -> usize {
        self.fetches.load(Ordering::Relaxed)
    }

    /// [`Provider::all_nodes`] calls so far.
    pub fn all_nodes_calls(&self) -> usize {
        self.all_nodes.load(Ordering::Relaxed)
    }
}

impl<P: Provider> Provider for Counted<P> {
    fn eq_lookup(&self, attr: &str, value: &Value) -> PostingList {
        self.inner.eq_lookup(attr, value)
    }
    fn range_lookup(&self, attr: &str, low: Bound<&Value>, high: Bound<&Value>) -> PostingList {
        self.inner.range_lookup(attr, low, high)
    }
    fn time_overlap(&self, range: TimeRange) -> PostingList {
        self.inner.time_overlap(range)
    }
    fn keyword_lookup(&self, phrase: &str) -> PostingList {
        self.inner.keyword_lookup(phrase)
    }
    fn has_attr(&self, attr: &str) -> PostingList {
        self.inner.has_attr(attr)
    }
    fn all_nodes(&self) -> PostingList {
        self.all_nodes.fetch_add(1, Ordering::Relaxed);
        self.inner.all_nodes()
    }
    fn lineage(&self, clause: &LineageClause) -> Option<PostingList> {
        self.inner.lineage(clause)
    }
    fn node_of(&self, id: TupleSetId) -> Option<NodeIdx> {
        self.inner.node_of(id)
    }
    fn fetch(&self, idx: NodeIdx) -> Option<ProvenanceRecord> {
        self.fetches.fetch_add(1, Ordering::Relaxed);
        self.inner.fetch(idx)
    }
    fn created_scan(&self, desc: bool) -> Option<Arc<[NodeIdx]>> {
        self.inner.created_scan(desc)
    }
}

impl<P: Provider> QueryEngine for Counted<P> {
    fn open(&self, prepared: &PreparedQuery) -> Result<Cursor<'_>> {
        Cursor::over(self, prepared)
    }
}

/// Execution counters, surfaced from the cursor and returned with every
/// collected result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Candidates consumed from the index/scan stream. Under `LIMIT`
    /// pushdown this stays near the limit; once a cursor is fully
    /// drained it equals the total candidate count.
    pub candidates_scanned: usize,
    /// Records actually fetched.
    pub fetched: usize,
    /// Fetched records rejected by the residual predicate re-check.
    pub residual_rejected: usize,
    /// Records returned after residual filtering and limit.
    pub returned: usize,
    /// True when an index expression (not a scan) produced candidates.
    pub used_index: bool,
    /// True when no residual re-check was necessary.
    pub exact: bool,
    /// Rendered plan, for debugging and EXPLAIN tests.
    pub plan: String,
}

/// A query result: matching records plus execution counters.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Matching provenance records.
    pub records: Vec<ProvenanceRecord>,
    /// Execution counters.
    pub stats: ExecStats,
}

impl QueryResult {
    /// Ids of the matching records.
    pub fn ids(&self) -> Vec<pass_model::TupleSetId> {
        self.records.iter().map(|r| r.id).collect()
    }
}

/// A planned query, ready to open cursors against any provider.
///
/// Produced by [`prepare`] (or [`QueryEngine::prepare`]); immutable and
/// reusable — open as many cursors from one prepared query as you like.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    plan: Plan,
}

impl PreparedQuery {
    /// Plans `query`.
    pub fn new(query: &Query) -> Self {
        PreparedQuery { plan: plan(query) }
    }

    /// From an already-built plan.
    pub fn from_plan(plan: Plan) -> Self {
        PreparedQuery { plan }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// EXPLAIN-style rendering.
    pub fn explain(&self) -> String {
        self.plan.explain()
    }
}

/// Plans a query (the first half of the streaming API).
pub fn prepare(query: &Query) -> PreparedQuery {
    PreparedQuery::new(query)
}

/// The streaming query surface: plan once, then open pull-based cursors.
///
/// Implementations decide what state a cursor pins: `Snapshot` cursors
/// borrow the snapshot (already immutable), `Pass` cursors take their
/// own snapshot at open so they stay valid — and repeatable — under
/// concurrent ingest.
pub trait QueryEngine {
    /// Plans a query for this engine.
    fn prepare(&self, query: &Query) -> PreparedQuery {
        PreparedQuery::new(query)
    }

    /// Opens a cursor over a prepared query.
    ///
    /// Fails fast on plan-level problems (unknown lineage root, unknown
    /// `AFTER` token); iteration itself is infallible.
    fn open(&self, prepared: &PreparedQuery) -> Result<Cursor<'_>>;

    /// Convenience: prepare + open in one call.
    fn open_query(&self, query: &Query) -> Result<Cursor<'_>> {
        self.open(&self.prepare(query))
    }

    /// Convenience: parse + prepare + open in one call.
    fn open_text(&self, text: &str) -> Result<Cursor<'_>> {
        self.open_query(&crate::parser::parse(text)?)
    }
}

/// Evaluates an index expression to a posting list.
pub fn eval_index_expr(expr: &IndexExpr, provider: &dyn Provider) -> PostingList {
    match expr {
        IndexExpr::All => provider.all_nodes(),
        IndexExpr::Eq { attr, value } => provider.eq_lookup(attr, value),
        IndexExpr::Range { attr, low, high } => {
            provider.range_lookup(attr, low.as_ref(), high.as_ref())
        }
        IndexExpr::TimeOverlap(range) => provider.time_overlap(*range),
        IndexExpr::Keyword(phrase) => provider.keyword_lookup(phrase),
        IndexExpr::HasAttr(attr) => provider.has_attr(attr),
        IndexExpr::And(children) => {
            let lists: Vec<PostingList> =
                children.iter().map(|c| eval_index_expr(c, provider)).collect();
            PostingList::intersect_all(lists.iter().collect())
        }
        IndexExpr::Or(children) => {
            let lists: Vec<PostingList> =
                children.iter().map(|c| eval_index_expr(c, provider)).collect();
            PostingList::union_all(lists.iter().collect())
        }
    }
}

/// How the cursor holds its provider: borrowed for engines whose state
/// is already immutable, owned for engines that pin a snapshot per
/// cursor.
enum ProviderHandle<'a> {
    Borrowed(&'a dyn Provider),
    Owned(Box<dyn Provider + 'a>),
}

impl ProviderHandle<'_> {
    fn get(&self) -> &dyn Provider {
        match self {
            ProviderHandle::Borrowed(p) => *p,
            ProviderHandle::Owned(p) => p.as_ref(),
        }
    }
}

/// Index of the first element `>= x` in `sorted[from..]`, by exponential
/// (galloping) search — the leapfrog-intersection advance step.
fn gallop_to(sorted: &[NodeIdx], from: usize, x: NodeIdx) -> usize {
    if from >= sorted.len() || sorted[from] >= x {
        return from;
    }
    let mut step = 1usize;
    let mut lo = from;
    let mut hi = from + 1;
    while hi < sorted.len() && sorted[hi] < x {
        lo = hi;
        step *= 2;
        hi += step;
    }
    let end = hi.min(sorted.len());
    lo + 1 + sorted[lo + 1..end].partition_point(|&y| y < x)
}

/// A lazily-consumed candidate source.
enum CandidateStream {
    /// One id list, consumed front to back. Covers single lookups,
    /// scans, and eagerly-unioned `OR`s.
    List { items: Vec<NodeIdx>, pos: usize },
    /// A shared, pre-ordered id list (the provider's cached created
    /// scan) — same consumption, no copy.
    Shared { items: Arc<[NodeIdx]>, pos: usize },
    /// Leapfrog intersection over ≥ 2 sorted lists: one candidate is
    /// matched per pull, galloping in each list, so intersection work is
    /// proportional to what the cursor consumes.
    Leapfrog { lists: Vec<(Vec<NodeIdx>, usize)> },
}

impl CandidateStream {
    fn new(mut lists: Vec<PostingList>) -> CandidateStream {
        if lists.len() == 1 {
            let only = lists.pop().expect("one list");
            return CandidateStream::List { items: only.iter().collect(), pos: 0 };
        }
        // Cheapest list first: it drives the leapfrog.
        lists.sort_by_key(PostingList::len);
        CandidateStream::Leapfrog {
            lists: lists.into_iter().map(|l| (l.iter().collect::<Vec<_>>(), 0)).collect(),
        }
    }

    /// Advances every sub-list past `idx` (the `AFTER` seek for
    /// dense-index-ordered streams).
    fn skip_past(&mut self, idx: NodeIdx) {
        match self {
            CandidateStream::List { items, pos } => {
                *pos = gallop_to(items, *pos, idx + 1);
            }
            CandidateStream::Shared { items, pos } => {
                *pos = gallop_to(items, *pos, idx + 1);
            }
            CandidateStream::Leapfrog { lists } => {
                for (items, pos) in lists {
                    *pos = gallop_to(items, *pos, idx + 1);
                }
            }
        }
    }

    fn next(&mut self) -> Option<NodeIdx> {
        match self {
            CandidateStream::List { items, pos } => {
                let idx = *items.get(*pos)?;
                *pos += 1;
                Some(idx)
            }
            CandidateStream::Shared { items, pos } => {
                let idx = *items.get(*pos)?;
                *pos += 1;
                Some(idx)
            }
            CandidateStream::Leapfrog { lists } => {
                let (driver, rest) = lists.split_first_mut()?;
                'candidates: loop {
                    let candidate = *driver.0.get(driver.1)?;
                    for (items, pos) in rest.iter_mut() {
                        *pos = gallop_to(items, *pos, candidate);
                        match items.get(*pos) {
                            None => return None, // a list ran out: done
                            Some(&found) if found == candidate => {}
                            Some(&found) => {
                                // Mismatch: jump the driver to `found`.
                                driver.1 = gallop_to(&driver.0, driver.1, found);
                                continue 'candidates;
                            }
                        }
                    }
                    driver.1 += 1;
                    return Some(candidate);
                }
            }
        }
    }
}

/// The `ORDER BY created` key: creation time, ties by id; `desc`
/// reverses creation time but keeps ids ascending.
pub(crate) fn order_key(created_at: Timestamp, id: TupleSetId, desc: bool) -> (i128, TupleSetId) {
    let t = i128::from(created_at.0);
    (if desc { -t } else { t }, id)
}

enum CursorState {
    /// Stream candidates; fetch + residual-check per pull.
    Stream(CandidateStream),
    /// `ORDER BY` over a filtered source: drain, sort, and cut on the
    /// first pull, then emit from the buffer.
    SortPending { stream: CandidateStream, desc: bool, after: Option<(i128, TupleSetId)> },
    /// Sorted buffer being emitted.
    Buffered(std::vec::IntoIter<ProvenanceRecord>),
}

/// A pull-based result cursor.
///
/// Yields matching [`ProvenanceRecord`]s lazily via [`Iterator`];
/// running counters are available from [`Cursor::stats`] at any point
/// (they are final once the cursor is exhausted). Dropping a cursor
/// early abandons the remaining work — that is the point.
pub struct Cursor<'a> {
    provider: ProviderHandle<'a>,
    state: CursorState,
    residual: Predicate,
    needs_recheck: bool,
    remaining: Option<usize>,
    stats: ExecStats,
}

impl<'a> Cursor<'a> {
    /// Opens a cursor over a borrowed provider. The provider must be
    /// immutable (or externally synchronized) for the cursor's lifetime;
    /// engines with mutable state should implement [`QueryEngine`] and
    /// hand the cursor an owned snapshot via [`Cursor::over_owned`].
    pub fn over(provider: &'a dyn Provider, prepared: &PreparedQuery) -> Result<Cursor<'a>> {
        Cursor::open_handle(ProviderHandle::Borrowed(provider), prepared.plan())
    }

    /// Opens a cursor that owns its provider — the snapshot-pinning
    /// variant: the boxed provider (typically an O(1) snapshot) lives
    /// exactly as long as the cursor.
    pub fn over_owned(
        provider: Box<dyn Provider + 'a>,
        prepared: &PreparedQuery,
    ) -> Result<Cursor<'a>> {
        Cursor::open_handle(ProviderHandle::Owned(provider), prepared.plan())
    }

    fn open_handle<'p>(provider: ProviderHandle<'p>, plan: &Plan) -> Result<Cursor<'p>> {
        let p = provider.get();
        let used_index = match &plan.source {
            PlanSource::Index(expr) => !matches!(expr, IndexExpr::All),
            PlanSource::Scan => false,
        };

        // Both the `All` index expression and a full scan draw
        // candidates from every record.
        let scans_all =
            matches!(&plan.source, PlanSource::Index(IndexExpr::All) | PlanSource::Scan);

        // Candidate sources, kept as separate lists so the intersection
        // can leapfrog lazily. A top-level AND contributes one list per
        // child; nested expressions within a child evaluate eagerly
        // (they are id-set algebra, not record work). A lineage closure
        // holds stored records only, so it replaces a whole-store source
        // instead of being intersected with it. Evaluated only by the
        // strategies that consume them — the ordered pushdown path never
        // touches the unfiltered source.
        let build_lists = || -> Result<Vec<PostingList>> {
            let mut lists: Vec<PostingList> = match &plan.source {
                _ if scans_all && plan.lineage.is_some() => Vec::new(),
                PlanSource::Index(IndexExpr::And(children)) => {
                    children.iter().map(|c| eval_index_expr(c, p)).collect()
                }
                PlanSource::Index(expr) => vec![eval_index_expr(expr, p)],
                PlanSource::Scan => vec![p.all_nodes()],
            };
            if let Some(clause) = &plan.lineage {
                lists.push(p.lineage(clause).ok_or(QueryError::UnknownTupleSet(clause.root))?);
            }
            Ok(lists)
        };

        let needs_recheck = !plan.is_exact();
        // A whole-store source is served directly by a created-order
        // scan (residuals still re-check per pull).
        let whole_store = scans_all && plan.lineage.is_none();

        let state = match plan.order {
            OrderBy::None => {
                let mut stream = CandidateStream::new(build_lists()?);
                if let Some(after) = plan.after {
                    let idx = p.node_of(after).ok_or(QueryError::UnknownTupleSet(after))?;
                    stream.skip_past(idx);
                }
                CursorState::Stream(stream)
            }
            OrderBy::CreatedAsc | OrderBy::CreatedDesc => {
                let desc = plan.order == OrderBy::CreatedDesc;
                let ordered = if whole_store { p.created_scan(desc) } else { None };
                match ordered {
                    // ORDER BY pushdown: the provider serves the whole
                    // store in created order, so emission is streaming
                    // and the limit cut touches ~limit records.
                    Some(ordered) => {
                        let start = match plan.after {
                            None => 0,
                            Some(after) => {
                                let idx =
                                    p.node_of(after).ok_or(QueryError::UnknownTupleSet(after))?;
                                match ordered.iter().position(|&o| o == idx) {
                                    Some(at) => at + 1,
                                    None => return Err(QueryError::UnknownTupleSet(after)),
                                }
                            }
                        };
                        CursorState::Stream(CandidateStream::Shared { items: ordered, pos: start })
                    }
                    None => {
                        let after_key = match plan.after {
                            None => None,
                            Some(after) => {
                                let idx =
                                    p.node_of(after).ok_or(QueryError::UnknownTupleSet(after))?;
                                let record =
                                    p.fetch(idx).ok_or(QueryError::UnknownTupleSet(after))?;
                                Some(order_key(record.created_at, record.id, desc))
                            }
                        };
                        CursorState::SortPending {
                            stream: CandidateStream::new(build_lists()?),
                            desc,
                            after: after_key,
                        }
                    }
                }
            }
        };

        Ok(Cursor {
            provider,
            state,
            residual: plan.residual.clone(),
            needs_recheck,
            remaining: plan.limit,
            stats: ExecStats {
                used_index,
                exact: !needs_recheck,
                plan: plan.explain(),
                ..ExecStats::default()
            },
        })
    }

    /// Running execution counters (final once the cursor is exhausted).
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Pulls the next candidate through fetch + residual check.
    fn pull_stream(
        provider: &dyn Provider,
        stream: &mut CandidateStream,
        residual: &Predicate,
        needs_recheck: bool,
        stats: &mut ExecStats,
    ) -> Option<ProvenanceRecord> {
        loop {
            let idx = stream.next()?;
            stats.candidates_scanned += 1;
            let Some(record) = provider.fetch(idx) else {
                // Index knows the node but the record is gone: a
                // placeholder parent (removed ancestor / remote tuple
                // set). Skip.
                continue;
            };
            stats.fetched += 1;
            if needs_recheck && !residual.matches(&record) {
                stats.residual_rejected += 1;
                continue;
            }
            return Some(record);
        }
    }
}

impl Iterator for Cursor<'_> {
    type Item = ProvenanceRecord;

    fn next(&mut self) -> Option<ProvenanceRecord> {
        if self.remaining == Some(0) {
            return None;
        }
        // ORDER BY fallback: materialize the sorted buffer on first pull.
        if let CursorState::SortPending { stream, desc, after } = &mut self.state {
            let desc = *desc;
            let after = *after;
            let mut records = Vec::new();
            while let Some(record) = Cursor::pull_stream(
                self.provider.get(),
                stream,
                &self.residual,
                self.needs_recheck,
                &mut self.stats,
            ) {
                records.push(record);
            }
            records.sort_by_key(|r| order_key(r.created_at, r.id, desc));
            if let Some(key) = after {
                let skip = records.partition_point(|r| order_key(r.created_at, r.id, desc) <= key);
                records.drain(..skip);
            }
            self.state = CursorState::Buffered(records.into_iter());
        }

        let record = match &mut self.state {
            CursorState::Stream(stream) => Cursor::pull_stream(
                self.provider.get(),
                stream,
                &self.residual,
                self.needs_recheck,
                &mut self.stats,
            )?,
            CursorState::Buffered(buffered) => buffered.next()?,
            CursorState::SortPending { .. } => unreachable!("materialized above"),
        };
        self.stats.returned += 1;
        if let Some(r) = &mut self.remaining {
            *r -= 1;
        }
        Some(record)
    }
}

/// Executes a parsed query by draining a cursor (compatibility wrapper;
/// output is identical to collecting the cursor yourself).
pub fn execute(query: &Query, provider: &dyn Provider) -> Result<QueryResult> {
    execute_plan(&plan(query), provider)
}

/// Executes query text (parse + plan + run).
pub fn execute_text(text: &str, provider: &dyn Provider) -> Result<QueryResult> {
    execute(&crate::parser::parse(text)?, provider)
}

/// Executes a pre-built plan by draining a cursor.
pub fn execute_plan(plan: &Plan, provider: &dyn Provider) -> Result<QueryResult> {
    let mut cursor = Cursor::open_handle(ProviderHandle::Borrowed(provider), plan)?;
    let records: Vec<ProvenanceRecord> = cursor.by_ref().collect();
    Ok(QueryResult { records, stats: cursor.stats().clone() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Predicate;
    use crate::parser::parse;
    use crate::RecordIndex;
    use pass_model::{Digest128, ProvenanceBuilder, SiteId, Timestamp, ToolDescriptor, TupleSetId};

    /// A fetch-counting [`RecordIndex`] over a small corpus.
    type FixtureProvider = Counted<RecordIndex>;

    fn index_of(records: Vec<ProvenanceRecord>) -> FixtureProvider {
        let mut index = RecordIndex::new();
        for record in &records {
            index.insert(record);
        }
        Counted::new(index)
    }

    fn fixture() -> (FixtureProvider, Vec<TupleSetId>) {
        let raw = ProvenanceBuilder::new(SiteId(1), Timestamp(100))
            .attr("domain", "traffic")
            .attr("region", "london")
            .time_range(TimeRange::new(Timestamp(0), Timestamp(50)))
            .build(Digest128::of(b"raw"));
        let mid = ProvenanceBuilder::new(SiteId(1), Timestamp(200))
            .attr("domain", "traffic")
            .attr("region", "london")
            .attr("count", 10i64)
            .derived_from(raw.id, ToolDescriptor::new("dedupe", "1.0"))
            .build(Digest128::of(b"mid"));
        let leaf = ProvenanceBuilder::new(SiteId(2), Timestamp(300))
            .attr("domain", "traffic")
            .attr("region", "boston")
            .attr("count", 99i64)
            .derived_from(mid.id, ToolDescriptor::new("aggregate", "2.0"))
            .build(Digest128::of(b"leaf"));
        let other = ProvenanceBuilder::new(SiteId(3), Timestamp(150))
            .attr("domain", "weather")
            .attr("region", "london")
            .build(Digest128::of(b"other"));
        let ids = vec![raw.id, mid.id, leaf.id, other.id];
        (index_of(vec![raw, mid, leaf, other]), ids)
    }

    fn run(provider: &FixtureProvider, text: &str) -> QueryResult {
        execute(&parse(text).unwrap(), provider).unwrap()
    }

    #[test]
    fn eq_query_uses_index_exactly() {
        let (p, ids) = fixture();
        let res = run(&p, r#"FIND WHERE domain = "weather""#);
        assert_eq!(res.ids(), vec![ids[3]]);
        assert!(res.stats.used_index);
        assert!(res.stats.exact);
        assert_eq!(res.stats.candidates_scanned, 1);
        assert_eq!(res.stats.residual_rejected, 0);
    }

    #[test]
    fn conjunction_intersects() {
        let (p, ids) = fixture();
        let res = run(&p, r#"FIND WHERE domain = "traffic" AND region = "london""#);
        let mut got = res.ids();
        got.sort();
        let mut want = vec![ids[0], ids[1]];
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn residual_recheck_filters_false_positives() {
        let (p, ids) = fixture();
        // Ne is not indexable: region = london serves candidates, the Ne
        // re-check drops the weather record.
        let res = run(&p, r#"FIND WHERE region = "london" AND domain != "weather""#);
        let mut got = res.ids();
        got.sort();
        let mut want = vec![ids[0], ids[1]];
        want.sort();
        assert_eq!(got, want);
        assert!(!res.stats.exact);
        assert!(res.stats.candidates_scanned > res.stats.returned);
        assert_eq!(res.stats.residual_rejected, 1);
    }

    #[test]
    fn lineage_scopes_filter() {
        let (p, ids) = fixture();
        let leaf_hex = ids[2].full_hex();
        let res = run(&p, &format!("FIND ANCESTORS OF ts:{leaf_hex}"));
        let mut got = res.ids();
        got.sort();
        let mut want = vec![ids[0], ids[1]];
        want.sort();
        assert_eq!(got, want);

        // With a filter on top.
        let res = run(&p, &format!(r#"FIND ANCESTORS OF ts:{leaf_hex} WHERE HAS count"#));
        assert_eq!(res.ids(), vec![ids[1]]);
    }

    #[test]
    fn lineage_with_self_includes_root() {
        let (p, ids) = fixture();
        let res = run(&p, &format!("FIND DESCENDANTS OF ts:{} WITH SELF", ids[0].full_hex()));
        assert_eq!(res.records.len(), 3);
    }

    #[test]
    fn unknown_lineage_root_errors() {
        let (p, _) = fixture();
        let err = execute(&parse("FIND ANCESTORS OF ts:deadbeef").unwrap(), &p).unwrap_err();
        assert!(matches!(err, QueryError::UnknownTupleSet(_)));
    }

    #[test]
    fn order_and_limit() {
        let (p, ids) = fixture();
        let res = run(&p, "FIND ORDER BY created DESC LIMIT 2");
        assert_eq!(res.ids(), vec![ids[2], ids[1]], "newest two first");
        let res = run(&p, "FIND ORDER BY created ASC LIMIT 1");
        assert_eq!(res.ids(), vec![ids[0]]);
    }

    #[test]
    fn time_overlap_query() {
        let (p, ids) = fixture();
        let res = run(&p, "FIND WHERE time OVERLAPS [40, 60]");
        assert_eq!(res.ids(), vec![ids[0]], "only the raw capture declared a window");
    }

    #[test]
    fn tool_pseudo_attribute_query() {
        let (p, ids) = fixture();
        let res = run(&p, r#"FIND WHERE tool.name = "aggregate""#);
        assert_eq!(res.ids(), vec![ids[2]]);
    }

    #[test]
    fn scan_fallback_matches_ground_truth() {
        let (p, ids) = fixture();
        let res = run(&p, r#"FIND WHERE NOT domain = "traffic""#);
        assert_eq!(res.ids(), vec![ids[3]]);
        assert!(!res.stats.used_index);
        // Scan considered everything.
        assert_eq!(res.stats.candidates_scanned, 4);
        assert_eq!(res.stats.residual_rejected, 3);
    }

    #[test]
    fn limit_without_order_cuts_early() {
        let (p, _) = fixture();
        let res = run(&p, r#"FIND WHERE domain = "traffic" LIMIT 1"#);
        assert_eq!(res.records.len(), 1);
        assert_eq!(res.stats.candidates_scanned, 1, "pushdown stops at the limit");
        assert_eq!(res.stats.fetched, 1);
    }

    #[test]
    fn execute_text_convenience() {
        let (p, ids) = fixture();
        let res = execute_text(r#"FIND WHERE region = "boston""#, &p).unwrap();
        assert_eq!(res.ids(), vec![ids[2]]);
        let err = execute_text("NOT A QUERY", &p);
        assert!(err.is_err());
    }

    #[test]
    fn predicate_ground_truth_agrees_with_executor_on_fixture() {
        let (p, _) = fixture();
        for text in [
            r#"FIND WHERE domain = "traffic""#,
            r#"FIND WHERE count >= 10"#,
            r#"FIND WHERE count BETWEEN 5 AND 50"#,
            r#"FIND WHERE HAS count"#,
            r#"FIND WHERE domain = "traffic" OR domain = "weather""#,
            r#"FIND WHERE time OVERLAPS [0, 1000]"#,
            r#"FIND WHERE origin.site = 1"#,
            r#"FIND WHERE created_at >= 200"#,
            r#"FIND WHERE ancestry.parents = 1"#,
        ] {
            let query = parse(text).unwrap();
            let res = execute(&query, &p).unwrap();
            let want: Vec<TupleSetId> =
                p.inner().records().filter(|r| query.filter.matches(r)).map(|r| r.id).collect();
            let mut got = res.ids();
            got.sort();
            let mut want = want;
            want.sort();
            assert_eq!(got, want, "{text}");
        }
    }

    #[test]
    fn residual_predicate_true_shortcut() {
        let q = Query::filtered(Predicate::True);
        let p = plan(&q);
        assert!(p.is_exact());
    }

    // -- Streaming API --------------------------------------------------

    /// Every query shape: draining the cursor == `execute` output,
    /// record for record.
    #[test]
    fn cursor_drain_equals_execute() {
        let (p, ids) = fixture();
        for text in [
            "FIND",
            r#"FIND WHERE domain = "traffic""#,
            r#"FIND WHERE domain = "traffic" AND region = "london""#,
            r#"FIND WHERE region = "london" AND domain != "weather""#,
            r#"FIND WHERE domain = "traffic" OR domain = "weather""#,
            "FIND ORDER BY created DESC",
            "FIND ORDER BY created ASC LIMIT 2",
            r#"FIND WHERE domain = "traffic" ORDER BY created DESC"#,
            "FIND WHERE time OVERLAPS [0, 1000] LIMIT 1",
            &format!("FIND ANCESTORS OF ts:{} WITH SELF", ids[0].full_hex()),
            &format!("FIND DESCENDANTS OF ts:{}", ids[0].full_hex()),
        ] {
            let query = parse(text).unwrap();
            let executed = execute(&query, &p).unwrap();
            let drained: Vec<ProvenanceRecord> = p.open_query(&query).unwrap().collect();
            assert_eq!(executed.records, drained, "execute and cursor drain diverge on {text}");
        }
    }

    #[test]
    fn cursor_is_lazy_per_pull() {
        let (p, _) = fixture();
        let before = p.fetches();
        let mut cursor = p.open_text(r#"FIND WHERE domain = "traffic""#).unwrap();
        assert_eq!(p.fetches(), before, "open fetches nothing");
        cursor.next().unwrap();
        assert_eq!(p.fetches(), before + 1, "one pull, one fetch");
        drop(cursor); // abandoning mid-stream does no further work
        assert_eq!(p.fetches(), before + 1);
    }

    #[test]
    fn keyset_pages_concatenate_to_full_result() {
        let (p, _) = fixture();
        for base in ["FIND", r#"FIND WHERE domain = "traffic""#, "FIND ORDER BY created DESC"] {
            let full = execute(&parse(base).unwrap(), &p).unwrap().records;
            let mut paged: Vec<ProvenanceRecord> = Vec::new();
            let mut after: Option<TupleSetId> = None;
            loop {
                let mut q = parse(base).unwrap().with_limit(2);
                q.after = after;
                let page = execute(&q, &p).unwrap().records;
                if page.is_empty() {
                    break;
                }
                after = Some(page.last().unwrap().id);
                paged.extend(page);
            }
            assert_eq!(full, paged, "paging diverges on {base}");
        }
    }

    #[test]
    fn after_unknown_token_errors() {
        let (p, _) = fixture();
        let q = parse("FIND LIMIT 2 AFTER ts:deadbeef").unwrap();
        assert!(matches!(execute(&q, &p).unwrap_err(), QueryError::UnknownTupleSet(_)));
    }

    /// The AFTER token need not itself match the filter — it marks a
    /// position in the result order, not a member of the result set.
    #[test]
    fn after_token_outside_result_set_is_a_position() {
        // Insertion order fixes dense indexes: A=0, B=1, C=2, D=3.
        let build = |tag: &[u8], domain: &str, at: u64| {
            ProvenanceBuilder::new(SiteId(1), Timestamp(at))
                .attr("domain", domain)
                .build(Digest128::of(tag))
        };
        let a = build(b"a", "traffic", 10);
        let b = build(b"b", "weather", 20);
        let c = build(b"c", "traffic", 30);
        let d = build(b"d", "traffic", 40);
        let (b_id, c_id, d_id) = (b.id, c.id, d.id);
        let p = index_of(vec![a, b, c, d]);

        // B does not match the traffic filter, but its dense position
        // (1) still anchors the page: the result is exactly the suffix
        // of the unpaged result past that position — C then D.
        let q = parse(&format!(r#"FIND WHERE domain = "traffic" AFTER ts:{}"#, b_id.full_hex()))
            .unwrap();
        assert_eq!(execute(&q, &p).unwrap().ids(), vec![c_id, d_id]);

        // A token past every candidate yields the empty suffix.
        let q = parse(&format!(r#"FIND WHERE domain = "traffic" AFTER ts:{}"#, d_id.full_hex()))
            .unwrap();
        assert_eq!(execute(&q, &p).unwrap().ids(), Vec::<TupleSetId>::new());
    }

    #[test]
    fn ordered_pushdown_touches_only_limit_records() {
        let (p, ids) = fixture();
        let before = p.fetches();
        let drained: Vec<ProvenanceRecord> =
            p.open_text("FIND ORDER BY created DESC LIMIT 1").unwrap().collect();
        assert_eq!(drained[0].id, ids[2]);
        assert_eq!(p.fetches() - before, 1, "ordered scan + limit fetches one record");
    }

    #[test]
    fn prepared_query_is_reusable() {
        let (p, _) = fixture();
        let prepared = prepare(&parse(r#"FIND WHERE domain = "traffic""#).unwrap());
        let a: Vec<_> = p.open(&prepared).unwrap().collect();
        let b: Vec<_> = p.open(&prepared).unwrap().collect();
        assert_eq!(a, b);
        assert!(prepared.explain().contains("index"));
    }

    #[test]
    fn cursor_stats_track_pushdown() {
        let (p, _) = fixture();
        let mut cursor = p.open_text(r#"FIND WHERE domain = "traffic" LIMIT 2"#).unwrap();
        assert_eq!(cursor.stats().candidates_scanned, 0);
        let _ = cursor.by_ref().collect::<Vec<_>>();
        let stats = cursor.stats();
        assert_eq!(stats.returned, 2);
        assert_eq!(stats.candidates_scanned, 2);
        assert!(stats.exact);
    }
}
