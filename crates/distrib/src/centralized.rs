//! §IV-A: the centralized data warehouse.
//!
//! "Provenance metadata is sent to some central data warehouse, where it
//! is examined and indexed; query processing is then done within the
//! warehouse." Site 0 is the warehouse; every other site forwards
//! published records to it and proxies queries to it. Simple, fast on
//! queries, complete on recursive queries — and a single service-time
//! bottleneck under update load (E6).
//!
//! Remote queries are *paged*: a client site asks the warehouse for
//! bounded `SubQueryPage`s (keyset pagination, `QUERY_PAGE` ids at a
//! time, less when the query's own `LIMIT` wants fewer) instead of one
//! full ID set, so bounded queries ship bytes proportional to what the
//! client consumes (E21).

use crate::arch::Architecture;
use crate::harness::{index_record, ArchSim};
use crate::msg::{self, ArchMsg, QUERY_PAGE};
use crate::outcome::Outcome;
use pass_model::{ProvenanceRecord, TupleSetId};
use pass_net::{Ctx, Input, NetMetrics, Node, NodeId, SimTime, Topology, TrafficClass};
use pass_query::{Query, RecordIndex};
use std::collections::HashMap;

/// The warehouse's node id.
pub const WAREHOUSE: NodeId = 0;

/// Client-side state of one paged remote query.
struct PageFetch {
    query: Query,
    /// Overall result budget (the query's own LIMIT), if any.
    want: Option<usize>,
    acc: Vec<TupleSetId>,
    /// Keyset token: last id of the previous page.
    last: Option<TupleSetId>,
}

impl PageFetch {
    /// Ids still wanted; `None` when unbounded.
    fn next_page_size(&self) -> usize {
        match self.want {
            Some(want) => QUERY_PAGE.min(want.saturating_sub(self.acc.len())),
            None => QUERY_PAGE,
        }
    }
}

struct CentralSite {
    me: NodeId,
    index: RecordIndex,
    fetches: HashMap<u64, PageFetch>,
    /// Standing subscriptions (warehouse only): `(op, query, subscriber)`.
    subs: Vec<(u64, Query, NodeId)>,
}

impl CentralSite {
    fn run_query(&self, query: &Query) -> (bool, Vec<TupleSetId>) {
        match self.index.query(query) {
            Ok(result) => (true, result.ids()),
            Err(_) => (false, Vec::new()),
        }
    }

    /// Requests the next page of an in-flight fetch from the warehouse.
    fn request_page(&mut self, ctx: &mut Ctx<'_, ArchMsg>, op: u64) {
        let fetch = self.fetches.get(&op).expect("fetch exists");
        let limit = fetch.next_page_size();
        if limit == 0 {
            // Budget exhausted (e.g. LIMIT 0): complete immediately.
            let fetch = self.fetches.remove(&op).expect("fetch exists");
            ctx.complete_with(op, true, ArchMsg::Done { op, ok: true, ids: fetch.acc });
            return;
        }
        let bytes = msg::page_request_bytes(&fetch.query);
        ctx.send(
            WAREHOUSE,
            ArchMsg::SubQueryPage {
                op,
                query: fetch.query.clone(),
                after: fetch.last,
                limit,
                reply_to: self.me,
            },
            bytes,
            TrafficClass::Query,
        );
    }

    /// Starts a paged remote fetch for a query issued at this site.
    fn start_fetch(&mut self, ctx: &mut Ctx<'_, ArchMsg>, op: u64, query: Query) {
        let fetch = PageFetch { want: query.limit, last: query.after, acc: Vec::new(), query };
        self.fetches.insert(op, fetch);
        self.request_page(ctx, op);
    }

    /// Pushes notifications for freshly indexed records matching any
    /// standing subscription (warehouse side). Silent when nothing
    /// matches — the steady-state saving push has over poll loops.
    fn notify_subscribers(&mut self, ctx: &mut Ctx<'_, ArchMsg>, records: &[ProvenanceRecord]) {
        if self.subs.is_empty() {
            return;
        }
        for (op, query, notify_to) in &self.subs {
            let ids: Vec<TupleSetId> =
                records.iter().filter(|r| query.filter.matches(r)).map(|r| r.id).collect();
            if ids.is_empty() {
                continue;
            }
            if *notify_to == self.me {
                ctx.complete_with(*op, true, ArchMsg::Done { op: *op, ok: true, ids });
            } else {
                let bytes = msg::notify_bytes(&ids);
                ctx.send(
                    *notify_to,
                    ArchMsg::Notify { op: *op, ids },
                    bytes,
                    TrafficClass::Maintenance,
                );
            }
        }
    }
}

impl Node<ArchMsg> for CentralSite {
    fn on_input(&mut self, ctx: &mut Ctx<'_, ArchMsg>, input: Input<ArchMsg>) {
        let Input::Message { from: _, msg } = input else {
            return;
        };
        match msg {
            ArchMsg::ClientPublish { op, record } => {
                index_record(&mut self.index, &record); // local copy stays at the origin
                if self.me == WAREHOUSE {
                    self.notify_subscribers(ctx, std::slice::from_ref(&record));
                    ctx.complete_with(op, true, ArchMsg::Done { op, ok: true, ids: vec![] });
                } else {
                    let bytes = msg::record_bytes(&record);
                    ctx.send(
                        WAREHOUSE,
                        ArchMsg::StoreRecord { op, record, ack_to: self.me },
                        bytes,
                        TrafficClass::Update,
                    );
                }
            }
            ArchMsg::ClientPublishBatch { op, records } => {
                for record in &records {
                    index_record(&mut self.index, record); // local copies stay at the origin
                }
                if self.me == WAREHOUSE {
                    self.notify_subscribers(ctx, &records);
                    ctx.complete_with(op, true, ArchMsg::Done { op, ok: true, ids: vec![] });
                } else {
                    // One wire transfer and one ack for the whole batch —
                    // the cross-site analogue of the single WriteBatch.
                    let bytes = msg::records_bytes(&records);
                    ctx.send(
                        WAREHOUSE,
                        ArchMsg::StoreBatch { op, records, ack_to: self.me },
                        bytes,
                        TrafficClass::Update,
                    );
                }
            }
            ArchMsg::StoreRecord { op, record, ack_to } => {
                index_record(&mut self.index, &record);
                self.notify_subscribers(ctx, std::slice::from_ref(&record));
                ctx.send(ack_to, ArchMsg::StoreAck { op }, 24, TrafficClass::Update);
            }
            ArchMsg::StoreBatch { op, records, ack_to } => {
                for record in &records {
                    index_record(&mut self.index, record);
                }
                self.notify_subscribers(ctx, &records);
                ctx.send(ack_to, ArchMsg::StoreAck { op }, 24, TrafficClass::Update);
            }
            ArchMsg::StoreAck { op } => {
                ctx.complete_with(op, true, ArchMsg::Done { op, ok: true, ids: vec![] });
            }
            ArchMsg::ClientQuery { op, query } => {
                if self.me == WAREHOUSE {
                    let (ok, ids) = self.run_query(&query);
                    ctx.complete_with(op, ok, ArchMsg::Done { op, ok, ids });
                } else {
                    self.start_fetch(ctx, op, query);
                }
            }
            ArchMsg::ClientSubscribe { op, query } => {
                if self.me == WAREHOUSE {
                    self.subs.push((op, query, self.me));
                } else {
                    let bytes = msg::subscribe_bytes(&query);
                    ctx.send(
                        WAREHOUSE,
                        ArchMsg::SubscribeReq { op, query, notify_to: self.me },
                        bytes,
                        TrafficClass::Maintenance,
                    );
                }
            }
            ArchMsg::SubscribeReq { op, query, notify_to } => {
                self.subs.push((op, query, notify_to));
            }
            ArchMsg::Notify { op, ids } => {
                ctx.complete_with(op, true, ArchMsg::Done { op, ok: true, ids });
            }
            ArchMsg::ClientLineage { op, root, depth } => {
                let mut query = Query::lineage(root, pass_index::Direction::Ancestors);
                if let Some(d) = depth {
                    query = query.with_depth(d);
                }
                if self.me == WAREHOUSE {
                    let (ok, ids) = self.run_query(&query);
                    ctx.complete_with(op, ok, ArchMsg::Done { op, ok, ids });
                } else {
                    self.start_fetch(ctx, op, query);
                }
            }
            ArchMsg::SubQueryPage { op, query, after, limit, reply_to } => {
                // One bounded cursor drain; `< limit` ids means the
                // result order is exhausted. The warehouse is the
                // authoritative index, so a query error (unknown AFTER
                // token or lineage root) fails the page — exactly what
                // a warehouse-local execution reports.
                let (ok, ids) = match self.index.query_page(&query, after, limit) {
                    Ok(ids) => (true, ids),
                    Err(_) => (false, Vec::new()),
                };
                let done = !ok || ids.len() < limit;
                let bytes = msg::page_reply_bytes(&ids);
                ctx.send(
                    reply_to,
                    ArchMsg::SubResultPage { op, ok, ids, done },
                    bytes,
                    TrafficClass::Query,
                );
            }
            ArchMsg::SubResultPage { op, ok, ids, done } => {
                let Some(fetch) = self.fetches.get_mut(&op) else {
                    return;
                };
                if !ok {
                    self.fetches.remove(&op);
                    ctx.complete_with(op, false, ArchMsg::Done { op, ok: false, ids: vec![] });
                    return;
                }
                fetch.last = ids.last().copied().or(fetch.last);
                fetch.acc.extend(ids);
                let satisfied = fetch.want.is_some_and(|want| fetch.acc.len() >= want);
                if done || satisfied {
                    let fetch = self.fetches.remove(&op).expect("fetch exists");
                    ctx.complete_with(op, true, ArchMsg::Done { op, ok: true, ids: fetch.acc });
                } else {
                    self.request_page(ctx, op);
                }
            }
            // Full-result subqueries are still served (other sites may
            // speak the unpaged protocol).
            ArchMsg::SubQuery { op, query, reply_to } => {
                let (_ok, ids) = self.run_query(&query);
                let bytes = msg::ids_bytes(&ids);
                ctx.send(reply_to, ArchMsg::SubResult { op, ids }, bytes, TrafficClass::Query);
            }
            ArchMsg::SubResult { op, ids } => {
                ctx.complete_with(op, true, ArchMsg::Done { op, ok: true, ids });
            }
            _ => {}
        }
    }
}

/// The centralized-warehouse architecture.
pub struct Centralized {
    inner: ArchSim,
    sites: usize,
}

impl Centralized {
    /// Builds with `sites` nodes on `topology` (node 0 = warehouse).
    pub fn new(topology: Topology, seed: u64) -> Self {
        let sites = topology.len();
        let nodes: Vec<Box<dyn Node<ArchMsg>>> = (0..sites)
            .map(|i| {
                Box::new(CentralSite {
                    me: i,
                    index: RecordIndex::new(),
                    fetches: HashMap::new(),
                    subs: Vec::new(),
                }) as Box<dyn Node<ArchMsg>>
            })
            .collect();
        Centralized { inner: ArchSim::new(topology, nodes, seed), sites }
    }
}

impl Architecture for Centralized {
    fn name(&self) -> &'static str {
        "centralized"
    }
    fn sites(&self) -> usize {
        self.sites
    }
    fn publish(&mut self, origin_site: usize, record: &ProvenanceRecord) -> u64 {
        let record = record.clone();
        self.inner.issue(origin_site, |op| ArchMsg::ClientPublish { op, record })
    }
    fn publish_batch(&mut self, origin_site: usize, records: &[ProvenanceRecord]) -> Vec<u64> {
        if records.len() <= 1 {
            return records.iter().map(|r| self.publish(origin_site, r)).collect();
        }
        let records = records.to_vec();
        let op = self.inner.issue(origin_site, |op| ArchMsg::ClientPublishBatch { op, records });
        vec![op]
    }
    fn query(&mut self, client_site: usize, query: &Query) -> u64 {
        let query = query.clone();
        self.inner.issue(client_site, |op| ArchMsg::ClientQuery { op, query })
    }
    fn subscribe(&mut self, client_site: usize, query: &Query) -> Option<u64> {
        let query = query.clone();
        Some(self.inner.issue(client_site, |op| ArchMsg::ClientSubscribe { op, query }))
    }
    fn lineage(&mut self, client_site: usize, root: TupleSetId, depth: Option<u32>) -> u64 {
        self.inner.issue(client_site, |op| ArchMsg::ClientLineage { op, root, depth })
    }
    fn run_for(&mut self, duration: SimTime) {
        self.inner.run_for(duration);
    }
    fn run_quiet(&mut self) {
        self.inner.run_quiet();
    }
    fn outcomes(&mut self) -> Vec<Outcome> {
        self.inner.outcomes()
    }
    fn net(&self) -> NetMetrics {
        self.inner.net()
    }
    fn reset_net(&mut self) {
        self.inner.reset_net();
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
}
