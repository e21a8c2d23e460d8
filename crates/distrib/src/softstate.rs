//! §IV-B model 3: soft-state catalogs (RLS/SRB-style).
//!
//! "Choosing availability over consistency … relies on soft-state and a
//! mostly stable network … it relies on periodic updates to keep its
//! soft-state from becoming stale."
//!
//! Every cluster designates its first member as a catalog. Sites buffer
//! freshly published records and push a digest to *all* catalogs every
//! refresh period (the replicated-index construction of the Replica
//! Location Service). Queries go to the client's local catalog — one
//! cheap intra-cluster hop — and are answered from soft state, which
//! trails reality by up to one refresh period. E9 measures exactly that
//! staleness-vs-recall trade.

use crate::arch::Architecture;
use crate::harness::{index_record, ArchSim};
use crate::msg::{self, ArchMsg};
use crate::outcome::Outcome;
use pass_index::Direction;
use pass_model::{ProvenanceRecord, TupleSetId};
use pass_net::{Ctx, Input, NetMetrics, Node, NodeId, SimTime, Topology, TrafficClass};
use pass_query::{Query, RecordIndex};

const TIMER_REFRESH: u64 = 1;

struct SoftSite {
    me: NodeId,
    my_catalog: NodeId,
    catalogs: Vec<NodeId>,
    is_catalog: bool,
    refresh_us: u64,
    /// Own records (always fresh).
    local: RecordIndex,
    /// Global soft state (catalogs only).
    soft: RecordIndex,
    /// Records published since the last digest.
    buffer: Vec<ProvenanceRecord>,
}

impl Node<ArchMsg> for SoftSite {
    fn on_input(&mut self, ctx: &mut Ctx<'_, ArchMsg>, input: Input<ArchMsg>) {
        match input {
            Input::Start => {
                // Stagger refresh phases so catalogs don't see synchronized
                // bursts.
                let phase = (self.me as u64 * 7_919) % self.refresh_us;
                ctx.set_timer(self.refresh_us + phase, TIMER_REFRESH);
            }
            Input::Timer { tag: TIMER_REFRESH } => {
                if !self.buffer.is_empty() {
                    let records = std::mem::take(&mut self.buffer);
                    let bytes: u64 = 32 + records.iter().map(msg::record_bytes).sum::<u64>();
                    for &catalog in &self.catalogs {
                        if catalog == self.me {
                            for r in &records {
                                index_record(&mut self.soft, r);
                            }
                        } else {
                            ctx.send(
                                catalog,
                                ArchMsg::Digest { from: self.me, records: records.clone() },
                                bytes,
                                TrafficClass::Update,
                            );
                        }
                    }
                }
                ctx.set_timer(self.refresh_us, TIMER_REFRESH);
            }
            Input::Timer { .. } => {}
            Input::Message { from: _, msg } => match msg {
                ArchMsg::ClientPublish { op, record } => {
                    // Availability over consistency: acknowledge as soon as
                    // the local store has it; the index catches up later.
                    index_record(&mut self.local, &record);
                    self.buffer.push(record);
                    ctx.complete_with(op, true, ArchMsg::Done { op, ok: true, ids: vec![] });
                }
                ArchMsg::Digest { from: _, records } if self.is_catalog => {
                    for r in &records {
                        index_record(&mut self.soft, r);
                    }
                }
                ArchMsg::ClientQuery { op, query } => {
                    let bytes = msg::query_bytes(&query);
                    ctx.send(
                        self.my_catalog,
                        ArchMsg::SubQuery { op, query, reply_to: self.me },
                        bytes,
                        TrafficClass::Query,
                    );
                }
                ArchMsg::ClientLineage { op, root, depth } => {
                    let mut query = Query::lineage(root, Direction::Ancestors);
                    if let Some(d) = depth {
                        query = query.with_depth(d);
                    }
                    let bytes = msg::query_bytes(&query);
                    ctx.send(
                        self.my_catalog,
                        ArchMsg::SubQuery { op, query, reply_to: self.me },
                        bytes,
                        TrafficClass::Query,
                    );
                }
                ArchMsg::SubQuery { op, query, reply_to } => {
                    // Catalogs answer from soft state; staleness shows up
                    // as missing ids (recall loss), never as an error —
                    // except lineage from a root the catalog hasn't heard
                    // of yet, which fails like an unknown name.
                    let (ok, ids) = match self.soft.query(&query) {
                        Ok(result) => (true, result.ids()),
                        Err(_) => (false, Vec::new()),
                    };
                    let bytes = msg::ids_bytes(&ids);
                    ctx.send(
                        reply_to,
                        if ok {
                            ArchMsg::SubResult { op, ids }
                        } else {
                            ArchMsg::Done { op, ok: false, ids: vec![] }
                        },
                        bytes,
                        TrafficClass::Query,
                    );
                }
                ArchMsg::SubResult { op, ids } => {
                    ctx.complete_with(op, true, ArchMsg::Done { op, ok: true, ids });
                }
                ArchMsg::Done { op, ok, ids } => {
                    ctx.complete_with(op, ok, ArchMsg::Done { op, ok, ids });
                }
                _ => {}
            },
        }
    }
}

/// The soft-state catalog architecture.
pub struct SoftState {
    inner: ArchSim,
    sites: usize,
    refresh: SimTime,
}

impl SoftState {
    /// Builds over `topology`; one catalog per topology cluster; sites
    /// publish digests every `refresh`.
    pub fn new(topology: Topology, refresh: SimTime, seed: u64) -> Self {
        let sites = topology.len();
        let catalogs: Vec<NodeId> =
            (0..topology.cluster_count()).map(|c| topology.cluster_members(c)[0]).collect();
        let nodes: Vec<Box<dyn Node<ArchMsg>>> = (0..sites)
            .map(|i| {
                let my_catalog = catalogs[topology.cluster(i)];
                Box::new(SoftSite {
                    me: i,
                    my_catalog,
                    catalogs: catalogs.clone(),
                    is_catalog: catalogs.contains(&i),
                    refresh_us: refresh.as_micros().max(1),
                    local: RecordIndex::new(),
                    soft: RecordIndex::new(),
                    buffer: Vec::new(),
                }) as Box<dyn Node<ArchMsg>>
            })
            .collect();
        SoftState { inner: ArchSim::new(topology, nodes, seed), sites, refresh }
    }

    /// The refresh period in force.
    pub fn refresh_period(&self) -> SimTime {
        self.refresh
    }
}

impl Architecture for SoftState {
    fn name(&self) -> &'static str {
        "soft-state"
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
        // Soft state never quiesces (refresh timers re-arm forever); run a
        // bounded slice instead.
        self.inner.run_for(SimTime::from_secs(30));
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
