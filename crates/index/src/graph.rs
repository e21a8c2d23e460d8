//! The ancestry graph: derivation edges between tuple sets.
//!
//! "Queries are often recursive, as there may have been several steps
//! involved with multiple intermediate data sets" (§II-B). The graph keeps
//! parent and child adjacency so closure queries run in both directions —
//! "backwards, to find ultimate origins, and also forwards, to find
//! derived data that may be many generations downstream" (§III-D).
//!
//! Parents referenced before (or without ever) being inserted get
//! placeholder nodes: provenance must survive ancestor removal (PASS
//! property 4) and ancestors may live at other sites.
//!
//! Layout: no heap object per node. Every edge lives in one append-only
//! table. A node's parent edges are appended together by the insert
//! that stores it, so they stay contiguous and [`AncestryGraph::parents_of`]
//! is a slice. Each edge also records its child and links to the next
//! edge with the same parent; a node keeps its first and last such edge,
//! so children iterate in insertion order. A node costs 16 bytes plus its
//! id in the arena, and an edge 16 bytes.

use crate::arena::{IdArena, NodeIdx};
use pass_model::TupleSetId;

/// One directed derivation edge (child → parent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// The adjacent node.
    pub node: NodeIdx,
    /// True when this derivation crossed an abstraction boundary (§V:
    /// "gcc 3.3.3"): traversals may stop here instead of expanding.
    pub abstracted: bool,
}

/// Direction of a closure traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Follow child → parent edges ("find ultimate origins").
    Ancestors,
    /// Follow parent → child edges ("find all downstream data").
    Descendants,
}

/// No edge; as a node's `parents_start`, a placeholder.
const NONE: u32 = u32::MAX;

/// Per-node adjacency: positions in the edge table.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// First of the node's contiguous parent edges, or `NONE` while the
    /// node is a placeholder (referenced as a parent, never inserted).
    parents_start: u32,
    parents_len: u32,
    /// First and last edge naming this node as parent (`NONE` when it
    /// has no child), linked through [`Link::next`].
    first_child: u32,
    last_child: u32,
}

impl Node {
    const PLACEHOLDER: Node =
        Node { parents_start: NONE, parents_len: 0, first_child: NONE, last_child: NONE };
}

/// The child side of an edge.
#[derive(Debug, Clone, Copy)]
struct Link {
    child: NodeIdx,
    /// The next edge with the same parent, in insertion order, or `NONE`.
    next: u32,
}

/// The in-memory ancestry DAG.
#[derive(Debug, Default, Clone)]
pub struct AncestryGraph {
    arena: IdArena,
    /// By `NodeIdx`, as long as the arena.
    nodes: Vec<Node>,
    /// Every edge, toward its parent, in insertion order.
    edges: Vec<Edge>,
    /// By edge, beside `edges`.
    links: Vec<Link>,
}

/// The children of a node, as edges toward them, in insertion order.
#[derive(Debug, Clone)]
pub struct Children<'a> {
    graph: &'a AncestryGraph,
    next: u32,
}

impl Iterator for Children<'_> {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        let edge = self.next as usize;
        let link = self.graph.links.get(edge)?;
        self.next = link.next;
        Some(Edge { node: link.child, abstracted: self.graph.edges[edge].abstracted })
    }
}

/// A node's adjacency in one traversal direction (see
/// [`AncestryGraph::neighbors`]).
#[derive(Debug, Clone)]
pub enum Neighbors<'a> {
    /// Toward parents, in ancestry order.
    Parents(std::slice::Iter<'a, Edge>),
    /// Toward children, in insertion order.
    Children(Children<'a>),
}

impl Iterator for Neighbors<'_> {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        match self {
            Neighbors::Parents(edges) => edges.next().copied(),
            Neighbors::Children(children) => children.next(),
        }
    }
}

/// An edge-table position as stored in the table.
fn edge_pos(len: usize) -> u32 {
    u32::try_from(len).ok().filter(|&pos| pos != NONE).expect("graph holds < 2^32 - 1 edges")
}

impl AncestryGraph {
    /// An empty graph.
    pub fn new() -> Self {
        AncestryGraph::default()
    }

    /// Makes room for `nodes` more nodes, so interning that many
    /// allocates nothing. The edge tables grow as edges arrive.
    pub fn reserve(&mut self, nodes: usize) {
        self.arena.reserve(nodes);
        self.nodes.reserve(nodes);
    }

    /// Drops spare capacity after a bulk load, in every table but the
    /// id slots (which keep their power-of-two size).
    pub fn shrink_to_fit(&mut self) {
        self.arena.shrink_to_fit();
        self.nodes.shrink_to_fit();
        self.edges.shrink_to_fit();
        self.links.shrink_to_fit();
    }

    fn ensure_node(&mut self, id: TupleSetId) -> NodeIdx {
        let idx = self.arena.intern(id);
        if idx as usize == self.nodes.len() {
            self.nodes.push(Node::PLACEHOLDER);
        }
        idx
    }

    /// Inserts (or completes a placeholder into) a node with its
    /// derivation edges. `parents` pairs each parent id with the
    /// `abstracted` flag of the tool that performed the derivation.
    ///
    /// A node's parent edges are set by the insert that stores it: an id
    /// binds its parents, so re-inserting a stored node adds no edge (and
    /// must name the same parents).
    pub fn insert(&mut self, id: TupleSetId, parents: &[(TupleSetId, bool)]) -> NodeIdx {
        let idx = self.ensure_node(id);
        if !self.is_placeholder(idx) {
            debug_assert!(self.has_parents(idx, parents), "{id} re-inserted with other parents");
            return idx;
        }
        self.nodes[idx as usize].parents_start = edge_pos(self.edges.len());
        self.nodes[idx as usize].parents_len = edge_pos(parents.len());
        for &(parent_id, abstracted) in parents {
            let parent = self.ensure_node(parent_id);
            let pos = edge_pos(self.edges.len());
            self.edges.push(Edge { node: parent, abstracted });
            self.links.push(Link { child: idx, next: NONE });
            let node = &mut self.nodes[parent as usize];
            match node.last_child {
                NONE => node.first_child = pos,
                last => self.links[last as usize].next = pos,
            }
            node.last_child = pos;
        }
        idx
    }

    /// True when `idx`'s parent edges are exactly `parents`.
    fn has_parents(&self, idx: NodeIdx, parents: &[(TupleSetId, bool)]) -> bool {
        let edges = self.parents_of(idx);
        edges.len() == parents.len()
            && edges.iter().zip(parents).all(|(e, &(id, abstracted))| {
                self.lookup(id) == Some(e.node) && e.abstracted == abstracted
            })
    }

    /// Dense index of an id, if known.
    pub fn lookup(&self, id: TupleSetId) -> Option<NodeIdx> {
        self.arena.lookup(id)
    }

    /// Identity behind a dense index.
    pub fn resolve(&self, idx: NodeIdx) -> Option<TupleSetId> {
        self.arena.resolve(idx)
    }

    /// Maps dense indexes back to identities.
    pub fn resolve_all(&self, idxs: &[NodeIdx]) -> Vec<TupleSetId> {
        self.arena.resolve_all(idxs)
    }

    /// Edges toward parents of `idx`, in ancestry order.
    pub fn parents_of(&self, idx: NodeIdx) -> &[Edge] {
        match self.nodes.get(idx as usize) {
            Some(node) if node.parents_start != NONE => {
                let start = node.parents_start as usize;
                &self.edges[start..start + node.parents_len as usize]
            }
            _ => &[],
        }
    }

    /// Edges toward children of `idx`, in insertion order.
    pub fn children_of(&self, idx: NodeIdx) -> Children<'_> {
        let next = self.nodes.get(idx as usize).map_or(NONE, |node| node.first_child);
        Children { graph: self, next }
    }

    /// Adjacency in a traversal direction.
    pub fn neighbors(&self, idx: NodeIdx, dir: Direction) -> Neighbors<'_> {
        match dir {
            Direction::Ancestors => Neighbors::Parents(self.parents_of(idx).iter()),
            Direction::Descendants => Neighbors::Children(self.children_of(idx)),
        }
    }

    /// True when the node was only ever referenced as a parent (removed
    /// ancestor or remote tuple set).
    pub fn is_placeholder(&self, idx: NodeIdx) -> bool {
        self.nodes.get(idx as usize).is_some_and(|node| node.parents_start == NONE)
    }

    /// Number of nodes (placeholders included).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of derivation edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All edges as `(child, parent, abstracted)` triples, by child in
    /// node order — the flat relation the naive-join closure baseline
    /// scans.
    pub fn all_edges(&self) -> Vec<(NodeIdx, NodeIdx, bool)> {
        let mut out = Vec::with_capacity(self.edges.len());
        for child in 0..self.nodes.len() as NodeIdx {
            out.extend(self.parents_of(child).iter().map(|e| (child, e.node, e.abstracted)));
        }
        out
    }

    /// Topological order (parents before children), or the node on a cycle.
    ///
    /// Well-formed provenance cannot cycle (identity hashes bind children
    /// to parents), so an `Err` here means forged or corrupt records.
    pub fn topo_order(&self) -> Result<Vec<NodeIdx>, crate::error::IndexError> {
        let n = self.node_count();
        // In-degree counts parents.
        let mut in_deg: Vec<u32> = self.nodes.iter().map(|node| node.parents_len).collect();
        let mut queue: Vec<NodeIdx> = (0..n as u32).filter(|&i| in_deg[i as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0usize;
        while head < queue.len() {
            let node = queue[head];
            head += 1;
            order.push(node);
            for e in self.children_of(node) {
                in_deg[e.node as usize] -= 1;
                if in_deg[e.node as usize] == 0 {
                    queue.push(e.node);
                }
            }
        }
        if order.len() != n {
            let culprit = (0..n as u32).find(|&i| in_deg[i as usize] > 0).unwrap_or(0);
            return Err(crate::error::IndexError::CycleDetected { node: culprit });
        }
        Ok(order)
    }

    /// Heap bytes held, by capacity: the id arena, the node table and
    /// the edge table.
    pub fn size_bytes(&self) -> usize {
        use std::mem::size_of;
        self.arena.size_bytes()
            + self.nodes.capacity() * size_of::<Node>()
            + self.edges.capacity() * size_of::<Edge>()
            + self.links.capacity() * size_of::<Link>()
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn id(n: u128) -> TupleSetId {
        TupleSetId(n)
    }

    #[test]
    fn insert_builds_bidirectional_adjacency() {
        let mut g = AncestryGraph::new();
        let raw = g.insert(id(1), &[]);
        let derived = g.insert(id(2), &[(id(1), false)]);
        assert_eq!(g.parents_of(derived), &[Edge { node: raw, abstracted: false }]);
        assert_eq!(
            g.children_of(raw).collect::<Vec<_>>(),
            [Edge { node: derived, abstracted: false }]
        );
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn forward_references_create_placeholders() {
        let mut g = AncestryGraph::new();
        let child = g.insert(id(2), &[(id(1), false)]);
        let parent = g.lookup(id(1)).unwrap();
        assert!(g.is_placeholder(parent));
        assert!(!g.is_placeholder(child));
        // Later real insert clears the placeholder bit.
        g.insert(id(1), &[]);
        assert!(!g.is_placeholder(parent));
    }

    #[test]
    fn diamond_topology() {
        // 1 -> 2, 1 -> 3, {2,3} -> 4
        let mut g = AncestryGraph::new();
        g.insert(id(1), &[]);
        g.insert(id(2), &[(id(1), false)]);
        g.insert(id(3), &[(id(1), false)]);
        let four = g.insert(id(4), &[(id(2), false), (id(3), false)]);
        assert_eq!(g.parents_of(four).len(), 2);
        let order = g.topo_order().unwrap();
        let pos = |x: TupleSetId| order.iter().position(|&n| g.resolve(n) == Some(x)).unwrap();
        assert!(pos(id(1)) < pos(id(2)));
        assert!(pos(id(1)) < pos(id(3)));
        assert!(pos(id(2)) < pos(id(4)));
        assert!(pos(id(3)) < pos(id(4)));
    }

    #[test]
    fn cycle_is_detected() {
        let mut g = AncestryGraph::new();
        g.insert(id(1), &[(id(2), false)]);
        g.insert(id(2), &[(id(1), false)]);
        assert!(matches!(g.topo_order(), Err(crate::error::IndexError::CycleDetected { .. })));
    }

    #[test]
    fn abstracted_flag_is_preserved_per_edge() {
        let mut g = AncestryGraph::new();
        g.insert(id(1), &[]);
        let c = g.insert(id(3), &[(id(1), true)]);
        assert!(g.parents_of(c)[0].abstracted);
    }

    #[test]
    fn all_edges_lists_child_parent_pairs() {
        let mut g = AncestryGraph::new();
        g.insert(id(1), &[]);
        g.insert(id(2), &[(id(1), false)]);
        g.insert(id(3), &[(id(1), true), (id(2), false)]);
        let mut edges = g.all_edges();
        edges.sort();
        let one = g.lookup(id(1)).unwrap();
        let two = g.lookup(id(2)).unwrap();
        let three = g.lookup(id(3)).unwrap();
        assert_eq!(edges, vec![(two, one, false), (three, one, true), (three, two, false)]);
    }

    #[test]
    fn children_iterate_in_insertion_order_across_interleaved_inserts() {
        let mut g = AncestryGraph::new();
        g.insert(id(10), &[(id(1), false), (id(2), true)]);
        g.insert(id(11), &[(id(2), false)]);
        g.insert(id(12), &[(id(1), true), (id(1), false)]);
        let node = |n| g.lookup(id(n)).unwrap();
        let one: Vec<Edge> = g.children_of(node(1)).collect();
        assert_eq!(
            one,
            [
                Edge { node: node(10), abstracted: false },
                Edge { node: node(12), abstracted: true },
                Edge { node: node(12), abstracted: false },
            ]
        );
        let two: Vec<NodeIdx> =
            g.neighbors(node(2), Direction::Descendants).map(|e| e.node).collect();
        assert_eq!(two, [node(10), node(11)]);
        assert_eq!(g.children_of(node(12)).count(), 0);
        assert_eq!(g.children_of(999).count(), 0);
        assert_eq!(g.parents_of(999), &[]);
    }

    #[test]
    fn reinserting_a_stored_node_adds_no_edges() {
        let mut g = AncestryGraph::new();
        g.insert(id(1), &[]);
        let two = g.insert(id(2), &[(id(1), false), (id(3), true)]);
        let before = (g.node_count(), g.edge_count(), g.all_edges());
        assert_eq!(g.insert(id(2), &[(id(1), false), (id(3), true)]), two);
        assert_eq!(g.insert(id(1), &[]), 0);
        assert_eq!((g.node_count(), g.edge_count(), g.all_edges()), before);
        assert_eq!(g.children_of(0).count(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "re-inserted with other parents")]
    fn reinserting_a_stored_node_with_other_parents_is_a_bug() {
        let mut g = AncestryGraph::new();
        g.insert(id(2), &[(id(1), false)]);
        g.insert(id(2), &[(id(3), false)]);
    }

    #[test]
    fn reserve_then_shrink_leaves_exact_tables() {
        use std::mem::size_of;
        let mut g = AncestryGraph::new();
        g.reserve(100);
        let reserved = g.size_bytes();
        for n in 0..100 {
            g.insert(id(n), &[]);
        }
        assert_eq!(g.size_bytes(), reserved, "reserved nodes intern without allocating");

        // Edges grown on demand, nodes past the reservation, then trimmed.
        let mut g = AncestryGraph::new();
        g.reserve(100);
        g.insert(id(0), &[]);
        for n in 1..100 {
            g.insert(id(n), &[(id(n / 2), false)]);
        }
        // Two nodes past the reservation: a record and its placeholder.
        g.insert(id(100), &[(id(1000), true)]);
        g.shrink_to_fit();
        let nodes = 102 * (size_of::<TupleSetId>() + size_of::<Node>());
        let slots = 256 * size_of::<u32>();
        let edges = 100 * (size_of::<Edge>() + size_of::<Link>());
        assert_eq!(g.size_bytes(), nodes + slots + edges);
        assert_eq!((g.node_count(), g.edge_count()), (102, 100));
        assert_eq!(g.children_of(1).count(), 2);
    }

    /// The layout the flat tables replaced — one `Vec<Edge>` per node and
    /// direction — with the same insert rule.
    #[derive(Default)]
    struct Oracle {
        ids: Vec<TupleSetId>,
        stored: Vec<bool>,
        parents: Vec<Vec<Edge>>,
        children: Vec<Vec<Edge>>,
    }

    impl Oracle {
        fn node(&mut self, id: TupleSetId) -> NodeIdx {
            if let Some(pos) = self.ids.iter().position(|&known| known == id) {
                return pos as NodeIdx;
            }
            self.ids.push(id);
            self.stored.push(false);
            self.parents.push(Vec::new());
            self.children.push(Vec::new());
            (self.ids.len() - 1) as NodeIdx
        }

        fn insert(&mut self, id: TupleSetId, parents: &[(TupleSetId, bool)]) -> NodeIdx {
            let idx = self.node(id);
            if std::mem::replace(&mut self.stored[idx as usize], true) {
                return idx;
            }
            for &(parent_id, abstracted) in parents {
                let parent = self.node(parent_id);
                self.parents[idx as usize].push(Edge { node: parent, abstracted });
                self.children[parent as usize].push(Edge { node: idx, abstracted });
            }
            idx
        }

        /// Kahn's algorithm over the per-node lists.
        fn topo_order(&self) -> Option<Vec<NodeIdx>> {
            let mut in_deg: Vec<usize> = self.parents.iter().map(Vec::len).collect();
            let mut order: Vec<NodeIdx> =
                (0..self.ids.len() as NodeIdx).filter(|&i| in_deg[i as usize] == 0).collect();
            let mut head = 0;
            while head < order.len() {
                for e in &self.children[order[head] as usize] {
                    in_deg[e.node as usize] -= 1;
                    if in_deg[e.node as usize] == 0 {
                        order.push(e.node);
                    }
                }
                head += 1;
            }
            (order.len() == self.ids.len()).then_some(order)
        }
    }

    /// Inserts of ids drawn from a small range, so that parents are
    /// often named before they are stored (placeholders stored later),
    /// named twice by one child, and stored nodes are re-inserted.
    fn arb_inserts() -> impl Strategy<Value = Vec<(u8, Vec<(u8, bool)>)>> {
        proptest::collection::vec(
            (0u8..16, proptest::collection::vec((0u8..16, any::<bool>()), 0..4)),
            1..40,
        )
    }

    /// Spreads small ids over both halves of the `u128`.
    fn wide(n: u8) -> TupleSetId {
        TupleSetId(u128::from(n) * 0x0000_0001_0000_0000_0000_0001_0000_0001)
    }

    proptest! {
        #[test]
        fn flat_tables_agree_with_per_node_lists(inserts in arb_inserts()) {
            let mut g = AncestryGraph::new();
            let mut oracle = Oracle::default();
            let mut stored_with: HashMap<u8, Vec<(TupleSetId, bool)>> = HashMap::new();
            for (n, parents) in inserts {
                // An id binds its parents: a re-insert names the same ones.
                let parents = stored_with
                    .entry(n)
                    .or_insert_with(|| parents.iter().map(|&(p, abs)| (wide(p), abs)).collect())
                    .clone();
                prop_assert_eq!(g.insert(wide(n), &parents), oracle.insert(wide(n), &parents));
            }

            let n = oracle.ids.len();
            prop_assert_eq!(g.node_count(), n);
            prop_assert_eq!(g.edge_count(), oracle.parents.iter().map(Vec::len).sum::<usize>());
            for raw in 0u8..16 {
                let want = oracle.ids.iter().position(|&known| known == wide(raw));
                prop_assert_eq!(g.lookup(wide(raw)), want.map(|pos| pos as NodeIdx));
            }
            let mut want_edges = Vec::new();
            for idx in 0..n as NodeIdx {
                let i = idx as usize;
                prop_assert_eq!(g.resolve(idx), Some(oracle.ids[i]));
                prop_assert_eq!(g.is_placeholder(idx), !oracle.stored[i]);
                prop_assert_eq!(g.parents_of(idx), oracle.parents[i].as_slice());
                prop_assert_eq!(g.children_of(idx).collect::<Vec<_>>(), oracle.children[i].clone());
                let up: Vec<Edge> = g.neighbors(idx, Direction::Ancestors).collect();
                let down: Vec<Edge> = g.neighbors(idx, Direction::Descendants).collect();
                prop_assert_eq!(up, oracle.parents[i].clone());
                prop_assert_eq!(down, oracle.children[i].clone());
                want_edges.extend(oracle.parents[i].iter().map(|e| (idx, e.node, e.abstracted)));
            }
            prop_assert_eq!(g.resolve(n as NodeIdx), None);
            prop_assert!(!g.is_placeholder(n as NodeIdx));
            prop_assert_eq!(g.all_edges(), want_edges);
            prop_assert_eq!(g.topo_order().ok(), oracle.topo_order());
        }
    }
}
