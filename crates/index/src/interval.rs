//! Tree-cover interval labeling (Agrawal–Borgida–Jagadish style).
//!
//! The middle point of the E3 ablation: queries nearly as fast as fully
//! materialized bitsets, memory closer to the raw graph. The construction:
//!
//! 1. Pick a spanning forest of the DAG (each node keeps one incoming
//!    edge as its *tree* edge) and number nodes by DFS postorder.
//! 2. A node's *tree interval* `[low, post]` covers exactly its tree
//!    descendants.
//! 3. Walk nodes in reverse topological order, setting
//!    `label(v) = {tree_interval(v)} ∪ ⋃ label(w)` over all DAG successors
//!    `w`, merging overlapping intervals. Non-tree reachability shows up
//!    as extra intervals; tree reachability is absorbed into the tree
//!    interval.
//!
//! `v ∈ reach(u)` ⟺ `post(v)` falls inside some interval of `label(u)`.

use crate::arena::NodeIdx;
use crate::closure::{BfsClosure, ReachStrategy, TraverseOpts};
use crate::error::Result;
use crate::graph::{AncestryGraph, Direction};

/// Interval labels for one traversal direction.
#[derive(Debug)]
struct Labeling {
    /// Merged, sorted `[low, high]` post-number intervals per node.
    labels: Vec<Vec<(u32, u32)>>,
    /// Postorder number per node.
    post: Vec<u32>,
    /// Node at each postorder number (inverse of `post`).
    node_at_post: Vec<NodeIdx>,
}

impl Labeling {
    fn build(g: &AncestryGraph, dir: Direction, skip_abstracted: bool) -> Result<Self> {
        let n = g.node_count();
        let mut order = g.topo_order()?;
        if dir == Direction::Ancestors {
            // succ(v) for Ancestors = parents; process order must put
            // successors (parents) *later* during the reverse walk, i.e.
            // reverse the conventional order.
            order.reverse();
        }
        // `order` now lists predecessors-before-successors w.r.t. `dir`.

        // Spanning forest: each node's tree parent is its first
        // predecessor (w.r.t. dir); roots have none.
        let pred_dir = match dir {
            Direction::Ancestors => Direction::Descendants,
            Direction::Descendants => Direction::Ancestors,
        };
        let mut tree_children: Vec<Vec<NodeIdx>> = vec![Vec::new(); n];
        let mut roots: Vec<NodeIdx> = Vec::new();
        for &v in &order {
            let tree_parent = g
                .neighbors(v, pred_dir)
                .find(|e| !(skip_abstracted && e.abstracted))
                .map(|e| e.node);
            match tree_parent {
                Some(p) => tree_children[p as usize].push(v),
                None => roots.push(v),
            }
        }

        // Iterative DFS postorder over the forest.
        let mut post = vec![0u32; n];
        let mut low = vec![0u32; n];
        let mut node_at_post = vec![0 as NodeIdx; n];
        let mut counter = 0u32;
        for &root in &roots {
            // Stack of (node, child cursor).
            let mut stack: Vec<(NodeIdx, usize)> = vec![(root, 0)];
            let mut lows: Vec<u32> = vec![counter];
            while let Some(&mut (node, ref mut cursor)) = stack.last_mut() {
                if *cursor < tree_children[node as usize].len() {
                    let child = tree_children[node as usize][*cursor];
                    *cursor += 1;
                    stack.push((child, 0));
                    lows.push(counter);
                } else {
                    stack.pop();
                    let my_low = lows.pop().expect("low per frame");
                    low[node as usize] = my_low;
                    post[node as usize] = counter;
                    node_at_post[counter as usize] = node;
                    counter += 1;
                }
            }
        }
        debug_assert_eq!(counter as usize, n, "every node must be numbered");

        // Reverse-topo accumulation: successors first.
        let mut labels: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for &v in order.iter().rev() {
            let mut intervals = vec![(low[v as usize], post[v as usize])];
            for e in g.neighbors(v, dir) {
                if skip_abstracted && e.abstracted {
                    continue;
                }
                intervals.extend_from_slice(&labels[e.node as usize]);
            }
            labels[v as usize] = merge_intervals(intervals);
        }
        Ok(Labeling { labels, post, node_at_post })
    }

    fn reachable(&self, from: NodeIdx) -> Vec<NodeIdx> {
        let mut out = Vec::new();
        let own_post = self.post[from as usize];
        for &(lo, hi) in &self.labels[from as usize] {
            for p in lo..=hi {
                let node = self.node_at_post[p as usize];
                if p != own_post {
                    out.push(node);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn contains(&self, from: NodeIdx, target: NodeIdx) -> bool {
        if from == target {
            return false;
        }
        let p = self.post[target as usize];
        self.labels[from as usize].iter().any(|&(lo, hi)| lo <= p && p <= hi)
    }

    fn size_bytes(&self) -> usize {
        self.labels.iter().map(|l| l.capacity() * 8).sum::<usize>() + self.post.len() * 8
    }
}

/// Merges `[lo, hi]` integer intervals (overlapping *or adjacent*).
fn merge_intervals(mut intervals: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    if intervals.is_empty() {
        return intervals;
    }
    intervals.sort_unstable();
    let mut out = Vec::with_capacity(intervals.len());
    let (mut lo, mut hi) = intervals[0];
    for &(l, h) in &intervals[1..] {
        if l <= hi.saturating_add(1) {
            hi = hi.max(h);
        } else {
            out.push((lo, hi));
            lo = l;
            hi = h;
        }
    }
    out.push((lo, hi));
    out
}

/// Interval-labeled closure over both directions.
#[derive(Debug)]
pub struct IntervalClosure {
    ancestors: Labeling,
    descendants: Labeling,
    skip_abstracted: bool,
}

impl IntervalClosure {
    /// Builds labelings for both directions. Fails on cyclic graphs.
    pub fn build(g: &AncestryGraph, skip_abstracted: bool) -> Result<Self> {
        Ok(IntervalClosure {
            ancestors: Labeling::build(g, Direction::Ancestors, skip_abstracted)?,
            descendants: Labeling::build(g, Direction::Descendants, skip_abstracted)?,
            skip_abstracted,
        })
    }

    /// Point reachability test (`target` reachable from `from`?).
    pub fn contains(&self, from: NodeIdx, dir: Direction, target: NodeIdx) -> bool {
        match dir {
            Direction::Ancestors => self.ancestors.contains(from, target),
            Direction::Descendants => self.descendants.contains(from, target),
        }
    }

    /// Bytes held by the labels.
    pub fn size_bytes(&self) -> usize {
        self.ancestors.size_bytes() + self.descendants.size_bytes()
    }
}

impl ReachStrategy for IntervalClosure {
    fn name(&self) -> &'static str {
        "interval-label"
    }

    fn reachable(
        &self,
        g: &AncestryGraph,
        from: NodeIdx,
        dir: Direction,
        opts: &TraverseOpts,
    ) -> Vec<NodeIdx> {
        if opts.max_depth.is_some() || opts.stop_at_abstraction != self.skip_abstracted {
            return BfsClosure.reachable(g, from, dir, opts);
        }
        match dir {
            Direction::Ancestors => self.ancestors.reachable(from),
            Direction::Descendants => self.descendants.reachable(from),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_model::TupleSetId;

    fn id(n: u128) -> TupleSetId {
        TupleSetId(n)
    }

    fn ids(g: &AncestryGraph, idxs: Vec<NodeIdx>) -> Vec<u128> {
        let mut v: Vec<u128> = g.resolve_all(&idxs).into_iter().map(|t| t.0).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn merge_intervals_cases() {
        assert_eq!(merge_intervals(vec![]), vec![]);
        assert_eq!(merge_intervals(vec![(1, 3), (2, 5)]), vec![(1, 5)]);
        assert_eq!(merge_intervals(vec![(1, 2), (3, 4)]), vec![(1, 4)], "adjacent merge");
        assert_eq!(merge_intervals(vec![(1, 2), (5, 6)]), vec![(1, 2), (5, 6)]);
        assert_eq!(merge_intervals(vec![(5, 6), (1, 2), (2, 4)]), vec![(1, 6)]);
    }

    #[test]
    fn chain_reachability() {
        let mut g = AncestryGraph::new();
        g.insert(id(1), &[]);
        for i in 2..=6u128 {
            g.insert(id(i), &[(id(i - 1), false)]);
        }
        let ic = IntervalClosure::build(&g, false).unwrap();
        let leaf = g.lookup(id(6)).unwrap();
        let got = ic.reachable(&g, leaf, Direction::Ancestors, &TraverseOpts::unbounded());
        assert_eq!(ids(&g, got), vec![1, 2, 3, 4, 5]);
        let root = g.lookup(id(1)).unwrap();
        let got = ic.reachable(&g, root, Direction::Descendants, &TraverseOpts::unbounded());
        assert_eq!(ids(&g, got), vec![2, 3, 4, 5, 6]);
    }

    #[test]
    fn diamond_with_cross_edges_matches_bfs() {
        // Dense little DAG exercising non-tree edges.
        let mut g = AncestryGraph::new();
        g.insert(id(1), &[]);
        g.insert(id(2), &[(id(1), false)]);
        g.insert(id(3), &[(id(1), false)]);
        g.insert(id(4), &[(id(2), false), (id(3), false)]);
        g.insert(id(5), &[(id(4), false), (id(2), false)]);
        g.insert(id(6), &[(id(3), false), (id(5), false), (id(1), false)]);
        let ic = IntervalClosure::build(&g, false).unwrap();
        for node in 0..g.node_count() as u32 {
            for dir in [Direction::Ancestors, Direction::Descendants] {
                let got = ic.reachable(&g, node, dir, &TraverseOpts::unbounded());
                let want = BfsClosure.reachable(&g, node, dir, &TraverseOpts::unbounded());
                assert_eq!(got, want, "node {node} dir {dir:?}");
            }
        }
    }

    #[test]
    fn point_containment_queries() {
        let mut g = AncestryGraph::new();
        g.insert(id(1), &[]);
        g.insert(id(2), &[(id(1), false)]);
        g.insert(id(3), &[]);
        let ic = IntervalClosure::build(&g, false).unwrap();
        let one = g.lookup(id(1)).unwrap();
        let two = g.lookup(id(2)).unwrap();
        let three = g.lookup(id(3)).unwrap();
        assert!(ic.contains(two, Direction::Ancestors, one));
        assert!(!ic.contains(two, Direction::Ancestors, three));
        assert!(ic.contains(one, Direction::Descendants, two));
        assert!(!ic.contains(one, Direction::Ancestors, one), "self is excluded");
    }

    #[test]
    fn abstraction_respected_when_baked_in() {
        let mut g = AncestryGraph::new();
        g.insert(id(1), &[]);
        g.insert(id(2), &[(id(1), true)]); // abstracted edge
        g.insert(id(3), &[(id(2), false)]);
        let ic = IntervalClosure::build(&g, true).unwrap();
        let three = g.lookup(id(3)).unwrap();
        let opts = TraverseOpts { stop_at_abstraction: true, ..Default::default() };
        let got = ic.reachable(&g, three, Direction::Ancestors, &opts);
        assert_eq!(ids(&g, got), vec![2], "traversal stops at abstracted edge");
    }

    #[test]
    fn forest_of_disconnected_components() {
        let mut g = AncestryGraph::new();
        g.insert(id(1), &[]);
        g.insert(id(2), &[(id(1), false)]);
        g.insert(id(10), &[]);
        g.insert(id(11), &[(id(10), false)]);
        let ic = IntervalClosure::build(&g, false).unwrap();
        let two = g.lookup(id(2)).unwrap();
        let got = ic.reachable(&g, two, Direction::Ancestors, &TraverseOpts::unbounded());
        assert_eq!(ids(&g, got), vec![1], "components stay separate");
    }
}
