//! §IV-B model 4: the hierarchical namespace.
//!
//! "Organize the material into a hierarchical namespace and then use the
//! hierarchy to partition the data across a distributed network of
//! servers … hierarchical naming systems are fundamentally limited by
//! the need to choose a significance ordering for the attributes."
//!
//! The namespace here is `/domain/region/…`: the owner of a record is a
//! hash of its `(domain, region)` path prefix. Queries that constrain
//! both path components route to exactly one server; queries on any
//! *other* attribute — sensor type, time, patient — must broadcast to
//! every server, which is precisely the E13 significance-ordering
//! penalty.

use crate::arch::Architecture;
use crate::harness::{index_record, reply_parents, ArchSim, Chase, Gather};
use crate::msg::{self, ArchMsg};
use crate::outcome::Outcome;
use pass_model::{keys, ProvenanceRecord, TupleSetId};
use pass_net::{Ctx, Input, NetMetrics, Node, NodeId, SimTime, Topology, TrafficClass};
use pass_query::{Predicate, Query, RecordIndex};
use std::collections::HashMap;

/// Owner of a namespace path prefix.
pub fn owner_of(domain: &str, region: &str, sites: usize) -> NodeId {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in domain.bytes().chain([b'/']).chain(region.bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
    }
    (h % sites as u64) as NodeId
}

/// Extracts top-level `domain = …` / `region = …` equality constraints.
pub fn path_constraints(p: &Predicate) -> (Option<&str>, Option<&str>) {
    fn walk<'a>(p: &'a Predicate, domain: &mut Option<&'a str>, region: &mut Option<&'a str>) {
        match p {
            Predicate::Eq(attr, value) => {
                if let Some(s) = value.as_str() {
                    if attr == keys::DOMAIN {
                        *domain = Some(s);
                    } else if attr == keys::REGION {
                        *region = Some(s);
                    }
                }
            }
            Predicate::And(ps) => {
                for sub in ps {
                    walk(sub, domain, region);
                }
            }
            _ => {}
        }
    }
    let (mut domain, mut region) = (None, None);
    walk(p, &mut domain, &mut region);
    (domain, region)
}

struct HierSite {
    me: NodeId,
    sites: usize,
    index: RecordIndex,
    gathers: HashMap<u64, Gather>,
    chases: HashMap<u64, Chase>,
}

impl HierSite {
    fn expand_round(&mut self, ctx: &mut Ctx<'_, ArchMsg>, op: u64, frontier: Vec<TupleSetId>) {
        // Ids do not encode namespace paths, so lineage expansion cannot
        // be routed: broadcast each round (shared weakness with the
        // federation).
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

impl Node<ArchMsg> for HierSite {
    fn on_input(&mut self, ctx: &mut Ctx<'_, ArchMsg>, input: Input<ArchMsg>) {
        let Input::Message { from: _, msg } = input else {
            return;
        };
        match msg {
            ArchMsg::ClientPublish { op, record } => {
                let domain = record.attributes.get_str(keys::DOMAIN).unwrap_or("");
                let region = record.attributes.get_str(keys::REGION).unwrap_or("");
                let owner = owner_of(domain, region, self.sites);
                if owner == self.me {
                    index_record(&mut self.index, &record);
                    ctx.complete_with(op, true, ArchMsg::Done { op, ok: true, ids: vec![] });
                } else {
                    let bytes = msg::record_bytes(&record);
                    ctx.send(
                        owner,
                        ArchMsg::StoreRecord { op, record, ack_to: self.me },
                        bytes,
                        TrafficClass::Update,
                    );
                }
            }
            ArchMsg::StoreRecord { op, record, ack_to } => {
                index_record(&mut self.index, &record);
                ctx.send(ack_to, ArchMsg::StoreAck { op }, 24, TrafficClass::Update);
            }
            ArchMsg::StoreAck { op } => {
                ctx.complete_with(op, true, ArchMsg::Done { op, ok: true, ids: vec![] });
            }
            ArchMsg::ClientQuery { op, query } => {
                let targets: Vec<NodeId> = match path_constraints(&query.filter) {
                    (Some(domain), Some(region)) => {
                        vec![owner_of(domain, region, self.sites)]
                    }
                    // Any missing path component ⇒ broadcast: the
                    // significance-ordering penalty.
                    _ => (0..self.sites).collect(),
                };
                self.gathers.insert(op, Gather { expected: targets.len(), acc: Vec::new() });
                let bytes = msg::query_bytes(&query);
                for s in targets {
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

/// The hierarchical-namespace architecture.
pub struct Hierarchical {
    inner: ArchSim,
    sites: usize,
}

impl Hierarchical {
    /// Builds over `topology`.
    pub fn new(topology: Topology, seed: u64) -> Self {
        let sites = topology.len();
        let nodes: Vec<Box<dyn Node<ArchMsg>>> = (0..sites)
            .map(|i| {
                Box::new(HierSite {
                    me: i,
                    sites,
                    index: RecordIndex::new(),
                    gathers: HashMap::new(),
                    chases: HashMap::new(),
                }) as Box<dyn Node<ArchMsg>>
            })
            .collect();
        Hierarchical { inner: ArchSim::new(topology, nodes, seed), sites }
    }
}

impl Architecture for Hierarchical {
    fn name(&self) -> &'static str {
        "hierarchical"
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
    use pass_query::parse_predicate;

    #[test]
    fn owner_is_stable_and_in_range() {
        for sites in [1usize, 4, 16] {
            for (d, r) in [("traffic", "london"), ("weather", "boston"), ("", "")] {
                let a = owner_of(d, r, sites);
                let b = owner_of(d, r, sites);
                assert_eq!(a, b);
                assert!(a < sites);
            }
        }
        // Path components are not interchangeable.
        assert_ne!(owner_of("traffic", "london", 1_000), owner_of("london", "traffic", 1_000));
    }

    #[test]
    fn path_constraints_extracts_top_level_eqs() {
        let p = parse_predicate(r#"domain = "traffic" AND region = "london" AND x = 1"#).unwrap();
        assert_eq!(path_constraints(&p), (Some("traffic"), Some("london")));

        let p = parse_predicate(r#"domain = "traffic""#).unwrap();
        assert_eq!(path_constraints(&p), (Some("traffic"), None));

        // Disjunctions do not pin a path (routing to one owner would be
        // wrong), nor do non-equality predicates.
        let p = parse_predicate(r#"domain = "a" OR domain = "b""#).unwrap();
        assert_eq!(path_constraints(&p), (None, None));
        let p = parse_predicate(r#"region != "london""#).unwrap();
        assert_eq!(path_constraints(&p), (None, None));
    }

    #[test]
    fn non_string_path_values_do_not_route() {
        let p = parse_predicate("domain = 5").unwrap();
        assert_eq!(path_constraints(&p), (None, None));
    }
}
