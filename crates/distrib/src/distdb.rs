//! §IV-B model 1: the distributed database.
//!
//! Records are hash-partitioned across all sites; writes replicate
//! synchronously to the next site (the "full transaction semantics" the
//! paper calls possible overkill). Attribute queries scatter to every
//! shard and gather at the coordinator. Recursive queries run as a
//! coordinator-driven frontier chase whose per-round fan-out is the
//! E14 batching ablation: `batch = true` groups frontier ids by home
//! shard (one message per shard per round); `batch = false` sends one
//! message per id — the paper's "limited ability to process recursive
//! queries" made visible.

use crate::arch::Architecture;
use crate::harness::{index_record, reply_parents, ArchSim, Chase, Gather};
use crate::msg::{self, ArchMsg};
use crate::outcome::Outcome;
use pass_model::{ProvenanceRecord, TupleSetId};
use pass_net::{Ctx, Input, NetMetrics, Node, NodeId, SimTime, Topology, TrafficClass};
use pass_query::{Query, RecordIndex};
use std::collections::HashMap;

/// Home shard of a tuple set: low bits of its (already uniform) identity.
pub fn home_of(id: TupleSetId, sites: usize) -> NodeId {
    (id.0 as u64 % sites as u64) as NodeId
}

struct ShardSite {
    me: NodeId,
    sites: usize,
    batch: bool,
    index: RecordIndex,
    gathers: HashMap<u64, Gather>,
    chases: HashMap<u64, Chase>,
}

impl ShardSite {
    fn expand_round(&mut self, ctx: &mut Ctx<'_, ArchMsg>, op: u64, frontier: Vec<TupleSetId>) {
        let chase = self.chases.get_mut(&op).expect("chase exists");
        if self.batch {
            let mut by_home: HashMap<NodeId, Vec<TupleSetId>> = HashMap::new();
            for id in frontier {
                by_home.entry(home_of(id, self.sites)).or_default().push(id);
            }
            chase.outstanding = by_home.len();
            for (home, ids) in by_home {
                let bytes = msg::ids_bytes(&ids);
                ctx.send(
                    home,
                    ArchMsg::LineageExpand { op, ids, reply_to: self.me },
                    bytes,
                    TrafficClass::Query,
                );
            }
        } else {
            chase.outstanding = frontier.len();
            for id in frontier {
                let home = home_of(id, self.sites);
                ctx.send(
                    home,
                    ArchMsg::LineageExpand { op, ids: vec![id], reply_to: self.me },
                    msg::ids_bytes(&[id]),
                    TrafficClass::Query,
                );
            }
        }
    }

    fn chase_step(
        &mut self,
        ctx: &mut Ctx<'_, ArchMsg>,
        op: u64,
        pairs: Vec<(TupleSetId, Vec<TupleSetId>)>,
    ) {
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
}

impl Node<ArchMsg> for ShardSite {
    fn on_input(&mut self, ctx: &mut Ctx<'_, ArchMsg>, input: Input<ArchMsg>) {
        let Input::Message { from: _, msg } = input else {
            return;
        };
        match msg {
            ArchMsg::ClientPublish { op, record } => {
                let home = home_of(record.id, self.sites);
                let bytes = msg::record_bytes(&record);
                if home == self.me {
                    index_record(&mut self.index, &record);
                    // Synchronous replica to the next shard; it acks us.
                    let replica = (self.me + 1) % self.sites;
                    ctx.send(
                        replica,
                        ArchMsg::StoreRecord { op, record, ack_to: self.me },
                        bytes,
                        TrafficClass::Update,
                    );
                } else {
                    ctx.send(
                        home,
                        ArchMsg::StoreRecord { op, record, ack_to: self.me },
                        bytes,
                        TrafficClass::Update,
                    );
                }
            }
            ArchMsg::StoreRecord { op, record, ack_to } => {
                index_record(&mut self.index, &record);
                if home_of(record.id, self.sites) == self.me {
                    // We are the home: forward to the replica, which acks
                    // the original client (chain replication of length 2).
                    let replica = (self.me + 1) % self.sites;
                    let bytes = msg::record_bytes(&record);
                    ctx.send(
                        replica,
                        ArchMsg::StoreRecord { op, record, ack_to },
                        bytes,
                        TrafficClass::Update,
                    );
                } else {
                    ctx.send(ack_to, ArchMsg::StoreAck { op }, 24, TrafficClass::Update);
                }
            }
            ArchMsg::StoreAck { op } => {
                ctx.complete_with(op, true, ArchMsg::Done { op, ok: true, ids: vec![] });
            }
            ArchMsg::ClientQuery { op, query } => {
                self.gathers.insert(op, Gather { expected: self.sites, acc: Vec::new() });
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
                let bytes = msg::ids_bytes(&ids);
                ctx.send(reply_to, ArchMsg::SubResult { op, ids }, bytes, TrafficClass::Query);
            }
            ArchMsg::SubResult { op, ids } => {
                if let Some(gather) = self.gathers.get_mut(&op) {
                    if gather.absorb(ids) {
                        let gather = self.gathers.remove(&op).expect("gather exists");
                        let ids = gather.finish();
                        ctx.complete_with(op, true, ArchMsg::Done { op, ok: true, ids });
                    }
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
                self.chase_step(ctx, op, pairs);
            }
            _ => {}
        }
    }
}

/// The hash-partitioned, synchronously-replicated distributed database.
pub struct DistributedDb {
    inner: ArchSim,
    sites: usize,
}

impl DistributedDb {
    /// Builds over `topology`. `batch` controls E14 frontier batching.
    pub fn new(topology: Topology, batch: bool, seed: u64) -> Self {
        let sites = topology.len();
        let nodes: Vec<Box<dyn Node<ArchMsg>>> = (0..sites)
            .map(|i| {
                Box::new(ShardSite {
                    me: i,
                    sites,
                    batch,
                    index: RecordIndex::new(),
                    gathers: HashMap::new(),
                    chases: HashMap::new(),
                }) as Box<dyn Node<ArchMsg>>
            })
            .collect();
        DistributedDb { inner: ArchSim::new(topology, nodes, seed), sites }
    }
}

impl Architecture for DistributedDb {
    fn name(&self) -> &'static str {
        "distributed-db"
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
