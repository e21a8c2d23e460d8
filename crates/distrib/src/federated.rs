//! §IV-B model 2: the federated database.
//!
//! "Multiple autonomous database systems, each with its own specific
//! interface, transactions, concurrency, and schema … the fact that the
//! components are truly disjoint systems may lead to slow access."
//!
//! Records never leave their origin site (publishes cost zero network).
//! Queries scatter to every member through per-member *schema
//! translation*, modeled as extra bytes per subquery — the honest price
//! of the disjoint-interface property. Each member streams bounded
//! `SubQueryPage`s (keyset pagination) rather than one full ID set; a
//! bounded query stops requesting pages the moment its LIMIT is
//! satisfied, so its traffic scales with the limit, not the match set.
//! Recursive queries broadcast each frontier round to all members,
//! because a federation has no global placement function to route by.
//!
//! Pagination contract: a federation's global result order is sorted
//! tuple-set ids (what the gatherer establishes). `LIMIT k` alone
//! returns *some* k matches cheaply (members stream pages, early
//! termination). `AFTER ts:x` resumes strictly after `x` in the global
//! order — members cannot resolve a foreign token, so these queries
//! fall back to full-result shipping and the gatherer applies the cut;
//! the token is positional and need not exist anywhere. Clients that
//! need coherent global pages therefore pay full shipping per page;
//! clients that just want a bounded sample use plain `LIMIT`.

use crate::arch::Architecture;
use crate::harness::{index_record, reply_parents, ArchSim, Chase, Gather};
use crate::msg::{self, ArchMsg, QUERY_PAGE};
use crate::outcome::Outcome;
use pass_model::{ProvenanceRecord, TupleSetId};
use pass_net::{Ctx, Input, NetMetrics, Node, NodeId, SimTime, Topology, TrafficClass};
use pass_query::{Query, RecordIndex};
use std::collections::HashMap;

/// Extra bytes per subquery for schema translation between autonomous
/// members (wrapping, dialect mapping, result-schema negotiation).
pub const TRANSLATION_OVERHEAD_BYTES: u64 = 512;

/// Per-member progress of one scattered, paged query.
struct MemberPage {
    done: bool,
    /// Keyset token: last id this member returned.
    last: Option<TupleSetId>,
}

/// Gatherer state for a paged scatter query.
struct PagedGather {
    query: Query,
    want: Option<usize>,
    members: Vec<MemberPage>,
    acc: Vec<TupleSetId>,
}

impl PagedGather {
    fn finish(mut self) -> Vec<TupleSetId> {
        self.acc.sort_unstable();
        self.acc.dedup();
        if let Some(want) = self.want {
            self.acc.truncate(want);
        }
        self.acc
    }
}

/// State of one `AFTER`-fallback gather: members run the query without
/// the token (they cannot resolve a foreign id), the gatherer applies
/// the keyset cut in the federation's global result order (sorted ids).
struct FullFetch {
    gather: Gather,
    after: TupleSetId,
    want: Option<usize>,
}

struct FederatedSite {
    me: NodeId,
    sites: usize,
    index: RecordIndex,
    gathers: HashMap<u64, PagedGather>,
    /// Full-result gathers (the `AFTER` fallback path).
    full_gathers: HashMap<u64, FullFetch>,
    chases: HashMap<u64, Chase>,
}

impl FederatedSite {
    fn expand_round(&mut self, ctx: &mut Ctx<'_, ArchMsg>, op: u64, frontier: Vec<TupleSetId>) {
        // No placement function: every member might know any id.
        let chase = self.chases.get_mut(&op).expect("chase exists");
        chase.outstanding = self.sites;
        let bytes = msg::ids_bytes(&frontier) + TRANSLATION_OVERHEAD_BYTES;
        for s in 0..self.sites {
            ctx.send(
                s,
                ArchMsg::LineageExpand { op, ids: frontier.clone(), reply_to: self.me },
                bytes,
                TrafficClass::Query,
            );
        }
    }

    /// Requests one page from `member` for an in-flight gather.
    fn request_member_page(&self, ctx: &mut Ctx<'_, ArchMsg>, op: u64, member: NodeId) {
        let gather = self.gathers.get(&op).expect("gather exists");
        let limit = match gather.want {
            // Disjoint members: any one could satisfy the whole budget,
            // but never usefully more.
            Some(want) => QUERY_PAGE.min(want.saturating_sub(gather.acc.len()).max(1)),
            None => QUERY_PAGE,
        };
        let bytes = msg::page_request_bytes(&gather.query) + TRANSLATION_OVERHEAD_BYTES;
        ctx.send(
            member,
            ArchMsg::SubQueryPage {
                op,
                query: gather.query.clone(),
                after: gather.members[member].last,
                limit,
                reply_to: self.me,
            },
            bytes,
            TrafficClass::Query,
        );
    }
}

impl Node<ArchMsg> for FederatedSite {
    fn on_input(&mut self, ctx: &mut Ctx<'_, ArchMsg>, input: Input<ArchMsg>) {
        let Input::Message { from, msg } = input else {
            return;
        };
        match msg {
            ArchMsg::ClientPublish { op, record } => {
                // Autonomy: the record stays home. Publishing is local.
                index_record(&mut self.index, &record);
                ctx.complete_with(op, true, ArchMsg::Done { op, ok: true, ids: vec![] });
            }
            ArchMsg::ClientQuery { op, query } => {
                if query.limit == Some(0) {
                    ctx.complete_with(op, true, ArchMsg::Done { op, ok: true, ids: vec![] });
                    return;
                }
                if let Some(after) = query.after {
                    // Disjoint members cannot resolve a foreign keyset
                    // token, so per-member paging is off the table:
                    // fall back to full-result shipping of the
                    // token-free query and apply the keyset cut at the
                    // gatherer, in the federation's global result order
                    // (sorted ids — the order `finish` establishes).
                    self.full_gathers.insert(
                        op,
                        FullFetch {
                            gather: Gather { expected: self.sites, acc: Vec::new() },
                            after,
                            want: query.limit,
                        },
                    );
                    let mut stripped = query.clone();
                    stripped.after = None;
                    stripped.limit = None;
                    let bytes = msg::query_bytes(&stripped) + TRANSLATION_OVERHEAD_BYTES;
                    for s in 0..self.sites {
                        ctx.send(
                            s,
                            ArchMsg::SubQuery { op, query: stripped.clone(), reply_to: self.me },
                            bytes,
                            TrafficClass::Query,
                        );
                    }
                    return;
                }
                let members =
                    (0..self.sites).map(|_| MemberPage { done: false, last: None }).collect();
                self.gathers
                    .insert(op, PagedGather { want: query.limit, members, acc: Vec::new(), query });
                for s in 0..self.sites {
                    self.request_member_page(ctx, op, s);
                }
            }
            ArchMsg::SubQuery { op, query, reply_to } => {
                let ids = self.index.query(&query).map(|r| r.ids()).unwrap_or_default();
                let bytes = msg::ids_bytes(&ids) + TRANSLATION_OVERHEAD_BYTES;
                ctx.send(reply_to, ArchMsg::SubResult { op, ids }, bytes, TrafficClass::Query);
            }
            ArchMsg::SubResult { op, ids } => {
                if let Some(fetch) = self.full_gathers.get_mut(&op) {
                    if fetch.gather.absorb(ids) {
                        let fetch = self.full_gathers.remove(&op).expect("gather exists");
                        // `finish` sorts and dedups — the global result
                        // order. The keyset token marks a position in
                        // it whether or not that id matched.
                        let after = fetch.after;
                        let mut ids = fetch.gather.finish();
                        ids.retain(|id| *id > after);
                        if let Some(want) = fetch.want {
                            ids.truncate(want);
                        }
                        ctx.complete_with(op, true, ArchMsg::Done { op, ok: true, ids });
                    }
                }
            }
            ArchMsg::SubQueryPage { op, query, after, limit, reply_to } => {
                // Autonomy: an id this member does not hold is an
                // expected condition, not an error — reply with an
                // empty, final page (`ok: true`).
                let ids = self.index.query_page(&query, after, limit).unwrap_or_default();
                let done = ids.len() < limit;
                let bytes = msg::page_reply_bytes(&ids) + TRANSLATION_OVERHEAD_BYTES;
                ctx.send(
                    reply_to,
                    ArchMsg::SubResultPage { op, ok: true, ids, done },
                    bytes,
                    TrafficClass::Query,
                );
            }
            ArchMsg::SubResultPage { op, ids, done, ok: _ } => {
                let Some(gather) = self.gathers.get_mut(&op) else {
                    return; // already satisfied and completed
                };
                let member = &mut gather.members[from];
                member.last = ids.last().copied().or(member.last);
                member.done = done;
                gather.acc.extend(ids);
                // Members hold disjoint record sets, so the raw count is
                // the unique count.
                let satisfied = gather.want.is_some_and(|want| gather.acc.len() >= want);
                let all_done = gather.members.iter().all(|m| m.done);
                if satisfied || all_done {
                    let gather = self.gathers.remove(&op).expect("gather exists");
                    let ids = gather.finish();
                    ctx.complete_with(op, true, ArchMsg::Done { op, ok: true, ids });
                } else if !done {
                    self.request_member_page(ctx, op, from);
                }
            }
            ArchMsg::ClientLineage { op, root, depth } => {
                self.chases.insert(op, Chase::new(root, depth));
                self.expand_round(ctx, op, vec![root]);
            }
            ArchMsg::LineageExpand { op, ids, reply_to } => {
                reply_parents(ctx, &self.index, op, ids, reply_to);
            }
            ArchMsg::LineageParents { op, pairs } => {
                let Some(chase) = self.chases.get_mut(&op) else {
                    return;
                };
                if !chase.absorb(pairs) {
                    return;
                }
                match chase.advance() {
                    Some(frontier) => self.expand_round(ctx, op, frontier),
                    None => {
                        let chase = self.chases.remove(&op).expect("chase exists");
                        let ids = chase.finish();
                        ctx.complete_with(op, true, ArchMsg::Done { op, ok: true, ids });
                    }
                }
            }
            _ => {}
        }
    }
}

/// The federation of autonomous sites.
pub struct Federated {
    inner: ArchSim,
    sites: usize,
}

impl Federated {
    /// Builds over `topology`.
    pub fn new(topology: Topology, seed: u64) -> Self {
        let sites = topology.len();
        let nodes: Vec<Box<dyn Node<ArchMsg>>> = (0..sites)
            .map(|i| {
                Box::new(FederatedSite {
                    me: i,
                    sites,
                    index: RecordIndex::new(),
                    gathers: HashMap::new(),
                    full_gathers: HashMap::new(),
                    chases: HashMap::new(),
                }) as Box<dyn Node<ArchMsg>>
            })
            .collect();
        Federated { inner: ArchSim::new(topology, nodes, seed), sites }
    }
}

impl Architecture for Federated {
    fn name(&self) -> &'static str {
        "federated"
    }
    fn sites(&self) -> usize {
        self.sites
    }
    fn publish(&mut self, origin_site: usize, record: &ProvenanceRecord) -> u64 {
        let record = record.clone();
        self.inner.issue(origin_site, |op| ArchMsg::ClientPublish { op, record })
    }
    fn query(&mut self, client_site: usize, query: &Query) -> u64 {
        let query = query.clone();
        self.inner.issue(client_site, |op| ArchMsg::ClientQuery { op, query })
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
