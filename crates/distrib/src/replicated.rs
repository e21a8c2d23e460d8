//! §V's replication question, executable: "Our model does not inherently
//! involve replication, as data is locale-specific, but replication is
//! desirable for reliability and for query performance. Supporting
//! replication cheaply is an interesting problem."
//!
//! This module puts three replication strategies behind one federation so
//! the cost/benefit can be measured (experiment E19):
//!
//! * [`ReplicationStrategy::OriginOnly`] — the paper's default posture:
//!   records live only where they were produced. Publishes are free;
//!   every query is a scatter-gather; one dead member loses its share of
//!   every answer.
//! * [`ReplicationStrategy::Eager`] — push `factor` copies to fixed
//!   mirror sites at publish time. Update bandwidth scales with the
//!   factor; queries survive up to `factor − 1` failures per record; at
//!   `factor = sites` every query turns local.
//! * [`ReplicationStrategy::OnRead`] — the RLS posture the paper cites
//!   approvingly ("data is stored at the producers and replicated at
//!   consumers"): subquery replies ship full record bodies and the
//!   consumer caches them, so the *first* query pays and repeats are
//!   local — replication cost lands exactly on the data that proved
//!   worth reading.
//!
//! Queries carry a timeout so the federation degrades instead of
//! hanging when members die: a gather that cannot hear from every site
//! completes with what it has, and the lost share shows up as recall,
//! the paper's own result-quality criterion.

use crate::arch::Architecture;
use crate::harness::{index_record, reply_parents, ArchSim, Chase, Gather};
use crate::msg::{self, ArchMsg};
use crate::outcome::Outcome;
use pass_model::{ProvenanceRecord, TupleSetId};
use pass_net::{Ctx, Input, NetMetrics, Node, NodeId, SimTime, Topology, TrafficClass};
use pass_query::{Query, RecordIndex};
use std::collections::{HashMap, HashSet};

/// How records propagate beyond their origin site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationStrategy {
    /// No replication: records stay at their origin (baseline).
    OriginOnly,
    /// Push copies to `factor − 1` mirror sites at publish time
    /// (`factor` total holders, clamped to the site count).
    Eager {
        /// Total holders per record, origin included.
        factor: usize,
    },
    /// Cache records at the consumer when query results deliver them.
    OnRead,
}

impl ReplicationStrategy {
    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            ReplicationStrategy::OriginOnly => "origin-only".to_string(),
            ReplicationStrategy::Eager { factor } => format!("eager-{factor}"),
            ReplicationStrategy::OnRead => "on-read".to_string(),
        }
    }
}

/// Gather that may also carry record bodies (OnRead) and can finish
/// early on timeout.
struct TimedGather {
    inner: Gather,
    /// Canonical key of the query, for the consumer cache.
    key: Option<String>,
    /// Records delivered alongside ids (OnRead).
    records: Vec<ProvenanceRecord>,
    /// True when every expected reply arrived (cache-safe).
    complete: bool,
}

struct ReplicatedSite {
    me: NodeId,
    sites: usize,
    strategy: ReplicationStrategy,
    timeout_us: u64,
    index: RecordIndex,
    gathers: HashMap<u64, TimedGather>,
    chases: HashMap<u64, Chase>,
    /// OnRead: queries whose full result set is locally cached.
    cached_queries: HashSet<String>,
}

impl ReplicatedSite {
    fn eager_holders(&self, origin: NodeId) -> Vec<NodeId> {
        match self.strategy {
            ReplicationStrategy::Eager { factor } => {
                let n = factor.clamp(1, self.sites);
                (1..n).map(|i| (origin + i) % self.sites).collect()
            }
            _ => Vec::new(),
        }
    }

    fn answers_locally(&self, key: &str) -> bool {
        match self.strategy {
            ReplicationStrategy::Eager { factor } => factor >= self.sites,
            ReplicationStrategy::OnRead => self.cached_queries.contains(key),
            ReplicationStrategy::OriginOnly => false,
        }
    }

    fn finish_query(&mut self, ctx: &mut Ctx<'_, ArchMsg>, op: u64) {
        let Some(gather) = self.gathers.remove(&op) else { return };
        if let ReplicationStrategy::OnRead = self.strategy {
            for record in &gather.records {
                index_record(&mut self.index, record);
            }
            // Only a gather that heard from every member proves the
            // cached answer is complete; timeouts must not poison the
            // cache with partial results.
            if gather.complete {
                if let Some(key) = &gather.key {
                    self.cached_queries.insert(key.clone());
                }
            }
        }
        let ids = gather.inner.finish();
        ctx.complete_with(op, true, ArchMsg::Done { op, ok: true, ids });
    }

    fn expand_round(&mut self, ctx: &mut Ctx<'_, ArchMsg>, op: u64, frontier: Vec<TupleSetId>) {
        let chase = self.chases.get_mut(&op).expect("chase exists");
        chase.outstanding = self.sites;
        let bytes = msg::ids_bytes(&frontier);
        for s in 0..self.sites {
            ctx.send(
                s,
                ArchMsg::LineageExpand { op, ids: frontier.clone(), reply_to: self.me },
                bytes,
                TrafficClass::Query,
            );
        }
    }
}

/// Canonical cache key for a query (debug rendering is stable for our
/// Query AST and never leaves the process).
fn query_key(query: &Query) -> String {
    format!("{query:?}")
}

impl Node<ArchMsg> for ReplicatedSite {
    fn on_input(&mut self, ctx: &mut Ctx<'_, ArchMsg>, input: Input<ArchMsg>) {
        match input {
            Input::Start => {}
            Input::Timer { tag: op } => {
                // Query deadline: degrade to the partial answer.
                if self.gathers.contains_key(&op) {
                    self.finish_query(ctx, op);
                } else if let Some(chase) = self.chases.remove(&op) {
                    let ids = chase.finish();
                    ctx.complete_with(op, true, ArchMsg::Done { op, ok: true, ids });
                }
            }
            Input::Message { from: _, msg } => match msg {
                ArchMsg::ClientPublish { op, record } => {
                    index_record(&mut self.index, &record);
                    let bytes = msg::record_bytes(&record);
                    for mirror in self.eager_holders(self.me) {
                        ctx.send(
                            mirror,
                            ArchMsg::Replica { record: record.clone() },
                            bytes,
                            TrafficClass::Update,
                        );
                    }
                    ctx.complete_with(op, true, ArchMsg::Done { op, ok: true, ids: vec![] });
                }
                ArchMsg::Replica { record } => {
                    index_record(&mut self.index, &record);
                }
                ArchMsg::ClientQuery { op, query } => {
                    let key = query_key(&query);
                    if self.answers_locally(&key) {
                        let ids = self.index.query(&query).map(|r| r.ids()).unwrap_or_default();
                        ctx.complete_with(op, true, ArchMsg::Done { op, ok: true, ids });
                        return;
                    }
                    self.gathers.insert(
                        op,
                        TimedGather {
                            inner: Gather { expected: self.sites, acc: Vec::new() },
                            key: Some(key),
                            records: Vec::new(),
                            complete: false,
                        },
                    );
                    ctx.set_timer(self.timeout_us, op);
                    let bytes = msg::query_bytes(&query);
                    for s in 0..self.sites {
                        ctx.send(
                            s,
                            ArchMsg::SubQuery { op, query: query.clone(), reply_to: self.me },
                            bytes,
                            TrafficClass::Query,
                        );
                    }
                }
                ArchMsg::SubQuery { op, query, reply_to } => {
                    let ids = self.index.query(&query).map(|r| r.ids()).unwrap_or_default();
                    match self.strategy {
                        ReplicationStrategy::OnRead => {
                            let records: Vec<ProvenanceRecord> =
                                ids.iter().filter_map(|&id| self.index.get(id)).collect();
                            let bytes = 16 + records.iter().map(msg::record_bytes).sum::<u64>();
                            ctx.send(
                                reply_to,
                                ArchMsg::Records { op, records },
                                bytes,
                                TrafficClass::Query,
                            );
                        }
                        _ => {
                            let bytes = msg::ids_bytes(&ids);
                            ctx.send(
                                reply_to,
                                ArchMsg::SubResult { op, ids },
                                bytes,
                                TrafficClass::Query,
                            );
                        }
                    }
                }
                ArchMsg::SubResult { op, ids } => {
                    if let Some(g) = self.gathers.get_mut(&op) {
                        if g.inner.absorb(ids) {
                            g.complete = true;
                            self.finish_query(ctx, op);
                        }
                    }
                }
                ArchMsg::Records { op, records } => {
                    if let Some(g) = self.gathers.get_mut(&op) {
                        let ids: Vec<TupleSetId> = records.iter().map(|r| r.id).collect();
                        g.records.extend(records);
                        if g.inner.absorb(ids) {
                            g.complete = true;
                            self.finish_query(ctx, op);
                        }
                    }
                }
                ArchMsg::ClientLineage { op, root, depth } => {
                    self.chases.insert(op, Chase::new(root, depth));
                    ctx.set_timer(self.timeout_us, op);
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
            },
        }
    }

    fn on_crash(&mut self) {
        // Volatile coordination state dies with the node; the index is
        // modeled as durable (it would be in the local PASS).
        self.gathers.clear();
        self.chases.clear();
    }
}

/// A federation with a pluggable replication strategy and query
/// timeouts. See the module docs and experiment E19.
pub struct Replicated {
    inner: ArchSim,
    sites: usize,
    strategy: ReplicationStrategy,
}

/// Default query deadline: generous against the clustered topology's WAN
/// diameter, small against the experiment's phase length.
pub const DEFAULT_TIMEOUT_MS: u64 = 2_000;

impl Replicated {
    /// Builds over `topology` with the given strategy and the default
    /// query timeout.
    pub fn new(topology: Topology, seed: u64, strategy: ReplicationStrategy) -> Self {
        Replicated::with_timeout(topology, seed, strategy, DEFAULT_TIMEOUT_MS)
    }

    /// Builds with an explicit query deadline in milliseconds.
    pub fn with_timeout(
        topology: Topology,
        seed: u64,
        strategy: ReplicationStrategy,
        timeout_ms: u64,
    ) -> Self {
        let sites = topology.len();
        let nodes: Vec<Box<dyn Node<ArchMsg>>> = (0..sites)
            .map(|i| {
                Box::new(ReplicatedSite {
                    me: i,
                    sites,
                    strategy,
                    timeout_us: timeout_ms * 1_000,
                    index: RecordIndex::new(),
                    gathers: HashMap::new(),
                    chases: HashMap::new(),
                    cached_queries: HashSet::new(),
                }) as Box<dyn Node<ArchMsg>>
            })
            .collect();
        Replicated { inner: ArchSim::new(topology, nodes, seed), sites, strategy }
    }

    /// The strategy in force.
    pub fn strategy(&self) -> ReplicationStrategy {
        self.strategy
    }

    /// Crashes `site` at the current simulated time (messages to it drop
    /// until recovery).
    pub fn crash_now(&mut self, site: usize) {
        let now = self.inner.now();
        self.inner.schedule_crash(now, site);
    }

    /// Recovers `site` at the current simulated time.
    pub fn recover_now(&mut self, site: usize) {
        let now = self.inner.now();
        self.inner.schedule_recover(now, site);
    }
}

impl Architecture for Replicated {
    fn name(&self) -> &'static str {
        match self.strategy {
            ReplicationStrategy::OriginOnly => "repl-origin-only",
            ReplicationStrategy::Eager { .. } => "repl-eager",
            ReplicationStrategy::OnRead => "repl-on-read",
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use pass_model::{Attributes, Digest128, ProvenanceBuilder, SiteId, Timestamp};
    use pass_query::parse;

    fn record(origin: u32, n: u64, region: &str) -> ProvenanceRecord {
        ProvenanceBuilder::new(SiteId(origin), Timestamp(n))
            .attrs(&Attributes::new().with("domain", "traffic").with("region", region))
            .build(Digest128::of(&n.to_be_bytes()))
    }

    fn topo(n: usize) -> Topology {
        Topology::uniform(n, 20.0)
    }

    fn publish_corpus(arch: &mut Replicated, n_per_site: u64) -> Vec<TupleSetId> {
        let sites = arch.sites();
        let mut ids = Vec::new();
        let mut n = 0;
        for site in 0..sites {
            for _ in 0..n_per_site {
                let r = record(site as u32, n, if site % 2 == 0 { "east" } else { "west" });
                ids.push(r.id);
                arch.publish(site, &r);
                n += 1;
            }
        }
        arch.run_quiet();
        ids
    }

    fn query_ids(arch: &mut Replicated, site: usize, text: &str) -> Vec<TupleSetId> {
        let q = parse(text).unwrap();
        let op = arch.query(site, &q);
        arch.run_for(SimTime::from_micros(DEFAULT_TIMEOUT_MS * 1_000 * 2));
        let mut ids =
            arch.outcomes().into_iter().find(|o| o.op == op).map(|o| o.ids).unwrap_or_default();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn all_strategies_answer_full_corpus_when_healthy() {
        for strategy in [
            ReplicationStrategy::OriginOnly,
            ReplicationStrategy::Eager { factor: 3 },
            ReplicationStrategy::OnRead,
        ] {
            let mut arch = Replicated::new(topo(4), 7, strategy);
            let mut ids = publish_corpus(&mut arch, 3);
            ids.sort_unstable();
            let mut got = query_ids(&mut arch, 0, r#"FIND WHERE domain = "traffic""#);
            got.sort_unstable();
            assert_eq!(got, ids, "strategy {strategy:?}");
        }
    }

    #[test]
    fn eager_full_factor_answers_locally() {
        let mut arch = Replicated::new(topo(4), 7, ReplicationStrategy::Eager { factor: 4 });
        publish_corpus(&mut arch, 2);
        arch.reset_net();
        let got = query_ids(&mut arch, 1, r#"FIND WHERE region = "east""#);
        assert_eq!(got.len(), 4);
        assert_eq!(arch.net().total().messages, 0, "full replication queries send nothing");
    }

    #[test]
    fn on_read_repeat_query_is_local_and_cached() {
        let mut arch = Replicated::new(topo(4), 7, ReplicationStrategy::OnRead);
        publish_corpus(&mut arch, 2);
        let first = query_ids(&mut arch, 0, r#"FIND WHERE region = "west""#);
        arch.reset_net();
        let repeat = query_ids(&mut arch, 0, r#"FIND WHERE region = "west""#);
        assert_eq!(first, repeat);
        assert_eq!(arch.net().total().messages, 0, "cached repeat sends nothing");
    }

    #[test]
    fn origin_only_loses_dead_sites_share_but_completes() {
        let mut arch = Replicated::new(topo(4), 7, ReplicationStrategy::OriginOnly);
        let ids = publish_corpus(&mut arch, 3);
        arch.crash_now(2);
        let got = query_ids(&mut arch, 0, r#"FIND WHERE domain = "traffic""#);
        assert_eq!(got.len(), ids.len() - 3, "dead site's 3 records missing");
    }

    #[test]
    fn eager_replicas_survive_a_crash() {
        let mut arch = Replicated::new(topo(4), 7, ReplicationStrategy::Eager { factor: 2 });
        let ids = publish_corpus(&mut arch, 3);
        arch.crash_now(2);
        let got = query_ids(&mut arch, 0, r#"FIND WHERE domain = "traffic""#);
        // Site 2's records are mirrored on site 3; nothing is lost.
        assert_eq!(got.len(), ids.len());
    }

    #[test]
    fn on_read_warm_cache_survives_crash_and_serves_peers() {
        let mut arch = Replicated::new(topo(4), 7, ReplicationStrategy::OnRead);
        publish_corpus(&mut arch, 3);
        let warm_before = query_ids(&mut arch, 0, r#"FIND WHERE region = "east""#);
        arch.crash_now(2); // an "east" site
        let warm_after = query_ids(&mut arch, 0, r#"FIND WHERE region = "east""#);
        assert_eq!(warm_before, warm_after, "cached answer unaffected by the crash");
        // A different consumer's scatter now finds the dead site's records
        // in site 0's read cache: consumer replicas serve the federation,
        // not just their own site.
        let peer = query_ids(&mut arch, 1, r#"FIND WHERE region = "east""#);
        assert_eq!(peer, warm_before, "peer recovers the dead site's share from the cache");
    }

    #[test]
    fn on_read_cold_cache_loses_dead_sites_share() {
        // Same crash, but nobody warmed a cache first: the dead site's
        // records are genuinely unreachable.
        let mut arch = Replicated::new(topo(4), 7, ReplicationStrategy::OnRead);
        publish_corpus(&mut arch, 3);
        arch.crash_now(2); // an "east" site (sites 0 and 2 are "east")
        let cold = query_ids(&mut arch, 1, r#"FIND WHERE region = "east""#);
        assert_eq!(cold.len(), 3, "only the live east site's records remain");
    }

    #[test]
    fn timeout_preserves_partial_results_without_poisoning_cache() {
        let mut arch = Replicated::new(topo(4), 7, ReplicationStrategy::OnRead);
        publish_corpus(&mut arch, 2);
        arch.crash_now(3);
        // First query times out at partial coverage …
        let partial = query_ids(&mut arch, 0, r#"FIND WHERE domain = "traffic""#);
        assert_eq!(partial.len(), 6);
        // … and must not be cached as complete: recovery + repeat reaches
        // the full corpus again.
        arch.recover_now(3);
        let healed = query_ids(&mut arch, 0, r#"FIND WHERE domain = "traffic""#);
        assert_eq!(healed.len(), 8);
    }
}
