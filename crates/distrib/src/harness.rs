//! Shared simulator plumbing for the ArchMsg-based architectures.

use crate::msg::ArchMsg;
use crate::outcome::Outcome;
use pass_model::ProvenanceRecord;
use pass_net::{Ctx, NetMetrics, Node, NodeId, SimTime, Simulator, Topology, TrafficClass};
use pass_query::RecordIndex;

/// Wraps a simulator with op-id allocation and outcome conversion.
pub(crate) struct ArchSim {
    pub sim: Simulator<ArchMsg>,
    next_op: u64,
}

impl ArchSim {
    pub fn new(topology: Topology, nodes: Vec<Box<dyn Node<ArchMsg>>>, seed: u64) -> Self {
        let mut sim = Simulator::new(topology, nodes, seed);
        // Process the t=0 Start events only; periodic behaviors (soft-state
        // refresh) re-arm forever, so a quiescence drain would never end.
        sim.run_until(SimTime::ZERO);
        ArchSim { sim, next_op: 1 }
    }

    /// Injects a client message built from a fresh op id.
    pub fn issue(&mut self, site: usize, build: impl FnOnce(u64) -> ArchMsg) -> u64 {
        let op = self.next_op;
        self.next_op += 1;
        self.sim.inject(site, build(op), 0);
        op
    }

    pub fn run_for(&mut self, duration: SimTime) {
        let deadline = SimTime::from_micros(self.sim.now().as_micros() + duration.as_micros());
        self.sim.run_until(deadline);
    }

    pub fn run_quiet(&mut self) {
        self.sim.run_to_quiescence(50_000_000);
    }

    pub fn outcomes(&mut self) -> Vec<Outcome> {
        self.sim
            .take_completions()
            .into_iter()
            .map(|c| {
                let (ok, ids) = match c.payload {
                    Some(ArchMsg::Done { ok, ids, .. }) => (ok, ids),
                    _ => (c.ok, Vec::new()),
                };
                Outcome { op: c.op, ok, at: c.at, ids }
            })
            .collect()
    }

    pub fn net(&self) -> NetMetrics {
        self.sim.metrics().clone()
    }

    pub fn reset_net(&mut self) {
        self.sim.reset_metrics();
    }

    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Schedules a node crash (messages to it drop until recovery).
    pub fn schedule_crash(&mut self, at: SimTime, node: usize) {
        self.sim.schedule_crash(at, node);
    }

    /// Schedules a crashed node's recovery.
    pub fn schedule_recover(&mut self, at: SimTime, node: usize) {
        self.sim.schedule_recover(at, node);
    }
}

/// Scatter-gather bookkeeping shared by several site behaviors.
#[derive(Debug, Default)]
pub(crate) struct Gather {
    pub expected: usize,
    pub acc: Vec<pass_model::TupleSetId>,
}

impl Gather {
    pub fn absorb(&mut self, ids: Vec<pass_model::TupleSetId>) -> bool {
        self.acc.extend(ids);
        self.expected -= 1;
        self.expected == 0
    }

    pub fn finish(mut self) -> Vec<pass_model::TupleSetId> {
        self.acc.sort_unstable();
        self.acc.dedup();
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_model::TupleSetId;

    fn id(n: u128) -> TupleSetId {
        TupleSetId(n)
    }

    #[test]
    fn gather_absorbs_until_expected_and_dedups() {
        let mut g = Gather { expected: 3, acc: Vec::new() };
        assert!(!g.absorb(vec![id(2), id(1)]));
        assert!(!g.absorb(vec![id(2)]));
        assert!(g.absorb(vec![id(3)]));
        assert_eq!(g.finish(), vec![id(1), id(2), id(3)]);
    }

    #[test]
    fn chase_visits_each_node_once() {
        let mut c = Chase::new(id(10), None);
        c.outstanding = 1;
        // Root expands to two parents; one repeats later.
        assert!(c.absorb(vec![(id(10), vec![id(1), id(2)])]));
        let frontier = c.advance().expect("continues");
        assert_eq!(frontier, vec![id(1), id(2)]);
        c.outstanding = 1;
        assert!(c.absorb(vec![(id(1), vec![id(2), id(3)])]));
        let frontier = c.advance().expect("continues");
        assert_eq!(frontier, vec![id(3)], "id 2 already visited");
        c.outstanding = 1;
        assert!(c.absorb(vec![(id(3), vec![])]));
        assert!(c.advance().is_none(), "frontier empty");
        assert_eq!(c.finish(), vec![id(1), id(2), id(3)]);
    }

    #[test]
    fn chase_depth_budget_stops_advancing() {
        let mut c = Chase::new(id(1), Some(1));
        c.outstanding = 1;
        assert!(c.absorb(vec![(id(1), vec![id(2)])]));
        // Depth 1: the single round already consumed the budget.
        assert!(c.advance().is_none());
        assert_eq!(c.finish(), vec![id(2)]);
    }

    #[test]
    fn chase_multi_reply_rounds() {
        let mut c = Chase::new(id(1), None);
        c.outstanding = 3;
        assert!(!c.absorb(vec![(id(1), vec![id(2)])]));
        assert!(!c.absorb(vec![]));
        assert!(c.absorb(vec![(id(1), vec![id(3)])]));
        assert_eq!(c.advance().unwrap(), vec![id(2), id(3)]);
    }
}

/// Coordinator state for a distributed ancestors chase.
#[derive(Debug)]
pub(crate) struct Chase {
    pub visited: std::collections::HashSet<pass_model::TupleSetId>,
    pub acc: Vec<pass_model::TupleSetId>,
    pub next_frontier: Vec<pass_model::TupleSetId>,
    pub depth_left: Option<u32>,
    pub outstanding: usize,
    pub rounds: u32,
}

impl Chase {
    pub fn new(root: pass_model::TupleSetId, depth: Option<u32>) -> Self {
        let mut visited = std::collections::HashSet::new();
        visited.insert(root);
        Chase {
            visited,
            acc: Vec::new(),
            next_frontier: Vec::new(),
            depth_left: depth,
            outstanding: 0,
            rounds: 0,
        }
    }

    /// Absorbs one expansion reply. Returns true when the round is done.
    pub fn absorb(
        &mut self,
        pairs: Vec<(pass_model::TupleSetId, Vec<pass_model::TupleSetId>)>,
    ) -> bool {
        for (_, parents) in pairs {
            for p in parents {
                if self.visited.insert(p) {
                    self.acc.push(p);
                    self.next_frontier.push(p);
                }
            }
        }
        self.outstanding -= 1;
        self.outstanding == 0
    }

    /// Takes the next frontier if the chase should continue.
    pub fn advance(&mut self) -> Option<Vec<pass_model::TupleSetId>> {
        if self.next_frontier.is_empty() {
            return None;
        }
        if let Some(d) = &mut self.depth_left {
            if *d <= 1 {
                return None;
            }
            *d -= 1;
        }
        self.rounds += 1;
        Some(std::mem::take(&mut self.next_frontier))
    }

    pub fn finish(mut self) -> Vec<pass_model::TupleSetId> {
        self.acc.sort_unstable();
        self.acc.dedup();
        self.acc
    }
}

/// Indexes `record` at a site; a no-op when the site already stores it.
pub(crate) fn index_record(index: &mut RecordIndex, record: &ProvenanceRecord) {
    if !index.contains(record.id) {
        index.insert(record);
    }
}

/// A site's half of a lineage chase: answers `LineageExpand` with the
/// direct parents of every requested id its index holds.
pub(crate) fn reply_parents(
    ctx: &mut Ctx<'_, ArchMsg>,
    index: &RecordIndex,
    op: u64,
    ids: Vec<pass_model::TupleSetId>,
    reply_to: NodeId,
) {
    let pairs: Vec<_> =
        ids.into_iter().filter_map(|id| Some((id, index.parents_of(id)?))).collect();
    let bytes = 16 + pairs.iter().map(|(_, p)| 16 + 16 * p.len() as u64).sum::<u64>();
    ctx.send(reply_to, ArchMsg::LineageParents { op, pairs }, bytes, TrafficClass::Query);
}
