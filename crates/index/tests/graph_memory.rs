//! Cost gate for the ancestry graph's resident bytes. A counting global
//! allocator measures the heap a graph holds: per node it must stay
//! flat as the graph grows (no per-node heap object, no per-node map
//! bucket), small in absolute terms, and equal to what
//! [`AncestryGraph::size_bytes`] reports, since `PassStats.index_bytes`
//! is built from it.
//!
//! The allocator counts every thread of the process, so this binary
//! holds exactly one test. Miri skips it: the interpreter is too slow
//! for 100k nodes, and the unit tests already run the same code paths.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code asserts by panicking

use pass_index::AncestryGraph;
use pass_model::TupleSetId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allowed graph heap per node, with about one derivation edge per node.
const BYTES_PER_NODE: usize = 64;
/// Allowed spread of the per-node heap between sizes: the id table's
/// power-of-two capacity alone moves it by up to 8 bytes.
const SPREAD_PER_NODE: f64 = 8.0;

static LIVE: AtomicUsize = AtomicUsize::new(0);

/// Forwards to the system allocator, counting live bytes.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter only observes
// sizes and never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Builds a graph of `nodes` nodes as a bulk load would: node tables
/// reserved for the record count, edge tables grown on demand, and the
/// growth slack trimmed at the end (`RecordIndex::shrink_to_fit`). A raw root, then each node
/// derived from one earlier node, and every tenth from a second one too
/// — about one edge per node. Returns the graph and the heap bytes it
/// holds.
fn build(nodes: usize) -> (AncestryGraph, usize) {
    let id = |n: usize| {
        TupleSetId((n as u128 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835))
    };
    let before = LIVE.load(Ordering::SeqCst);
    let mut graph = AncestryGraph::new();
    graph.reserve(nodes);
    graph.insert(id(0), &[]);
    for n in 1..nodes {
        let mut parents = vec![(id(n * 7 / 8), false)];
        if n % 10 == 0 {
            parents.push((id(n / 3), true));
        }
        graph.insert(id(n), &parents);
    }
    graph.shrink_to_fit();
    let held = LIVE.load(Ordering::SeqCst) - before;
    assert_eq!(graph.node_count(), nodes);
    (graph, held)
}

#[test]
#[cfg_attr(miri, ignore)]
fn graph_heap_per_node_is_flat_small_and_reported() {
    let mut per_node = Vec::new();
    for nodes in [10_000, 100_000] {
        let (graph, held) = build(nodes);
        let edges_per_node = graph.edge_count() as f64 / nodes as f64;
        let bytes_per_node = held as f64 / nodes as f64;
        let reported = graph.size_bytes();
        eprintln!(
            "{nodes} nodes, {edges_per_node:.2} edges/node: {held} B held \
             ({bytes_per_node:.1} B/node), size_bytes {reported}"
        );
        assert!((0.9..=1.2).contains(&edges_per_node), "about one edge per node");
        assert!(
            bytes_per_node <= BYTES_PER_NODE as f64,
            "graph holds {bytes_per_node:.1} B/node (> {BYTES_PER_NODE})"
        );
        assert!(
            reported.abs_diff(held) * 10 <= held,
            "size_bytes {reported} is not within 10 % of the {held} B held"
        );
        per_node.push(bytes_per_node);
    }
    assert!(
        (per_node[0] - per_node[1]).abs() <= SPREAD_PER_NODE,
        "heap per node moves with size: {per_node:?}"
    );
}
