//! Property tests: posting-list algebra must match naive set algebra, and
//! all four closure strategies must agree on arbitrary DAGs.

use pass_index::closure::{BfsClosure, MemoClosure, NaiveJoinClosure, ReachStrategy, TraverseOpts};
use pass_index::{AncestryGraph, Direction, IntervalClosure, PostingList};
use pass_model::TupleSetId;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_list() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..200, 0..60)
}

/// A random DAG: each node links to a random subset of lower-numbered
/// nodes (guarantees acyclicity), with some edges marked abstracted.
fn arb_dag() -> impl Strategy<Value = Vec<Vec<(usize, bool)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0usize..1000, any::<bool>(), 1u32..4), 0..4),
        1..40,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, parents)| {
                parents
                    .into_iter()
                    .filter(|_| i > 0)
                    .map(|(p, abs, _)| (p % i.max(1), abs))
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect()
            })
            .collect()
    })
}

fn build_graph(dag: &[Vec<(usize, bool)>]) -> AncestryGraph {
    let mut g = AncestryGraph::new();
    for (i, parents) in dag.iter().enumerate() {
        let edges: Vec<(TupleSetId, bool)> =
            parents.iter().map(|&(p, abs)| (TupleSetId(p as u128 + 1), abs)).collect();
        g.insert(TupleSetId(i as u128 + 1), &edges);
    }
    g
}

proptest! {
    #[test]
    fn posting_algebra_matches_sets(a in arb_list(), b in arb_list()) {
        let pa = PostingList::from_iter(a.iter().copied());
        let pb = PostingList::from_iter(b.iter().copied());
        let sa: BTreeSet<u32> = a.iter().copied().collect();
        let sb: BTreeSet<u32> = b.iter().copied().collect();

        let inter: Vec<u32> = sa.intersection(&sb).copied().collect();
        let got_inter = pa.intersect(&pb);
        prop_assert_eq!(got_inter.as_slice(), inter.as_slice());

        let uni: Vec<u32> = sa.union(&sb).copied().collect();
        let got_uni = pa.union(&pb);
        prop_assert_eq!(got_uni.as_slice(), uni.as_slice());

        let diff: Vec<u32> = sa.difference(&sb).copied().collect();
        let got_diff = pa.difference(&pb);
        prop_assert_eq!(got_diff.as_slice(), diff.as_slice());
    }

    #[test]
    fn intersect_is_commutative_and_bounded(a in arb_list(), b in arb_list()) {
        let pa = PostingList::from_iter(a.iter().copied());
        let pb = PostingList::from_iter(b.iter().copied());
        let ab = pa.intersect(&pb);
        let ba = pb.intersect(&pa);
        prop_assert_eq!(ab.as_slice(), ba.as_slice());
        prop_assert!(ab.len() <= pa.len().min(pb.len()));
    }

    #[test]
    fn closure_strategies_agree_on_random_dags(dag in arb_dag()) {
        let g = build_graph(&dag);
        let memo = MemoClosure::build(&g, false).unwrap();
        let interval = IntervalClosure::build(&g, false).unwrap();
        let opts = TraverseOpts::unbounded();
        for node in 0..g.node_count() as u32 {
            for dir in [Direction::Ancestors, Direction::Descendants] {
                let want = BfsClosure.reachable(&g, node, dir, &opts);
                let naive = NaiveJoinClosure.reachable(&g, node, dir, &opts);
                prop_assert_eq!(&naive, &want, "naive vs bfs at {} {:?}", node, dir);
                let m = memo.reachable(&g, node, dir, &opts);
                prop_assert_eq!(&m, &want, "memo vs bfs at {} {:?}", node, dir);
                let iv = interval.reachable(&g, node, dir, &opts);
                prop_assert_eq!(&iv, &want, "interval vs bfs at {} {:?}", node, dir);
            }
        }
    }

    #[test]
    fn closure_strategies_agree_with_abstraction(dag in arb_dag()) {
        let g = build_graph(&dag);
        let memo = MemoClosure::build(&g, true).unwrap();
        let interval = IntervalClosure::build(&g, true).unwrap();
        let opts = TraverseOpts { stop_at_abstraction: true, ..TraverseOpts::default() };
        for node in (0..g.node_count() as u32).step_by(3) {
            for dir in [Direction::Ancestors, Direction::Descendants] {
                let want = BfsClosure.reachable(&g, node, dir, &opts);
                prop_assert_eq!(&NaiveJoinClosure.reachable(&g, node, dir, &opts), &want);
                prop_assert_eq!(&memo.reachable(&g, node, dir, &opts), &want);
                prop_assert_eq!(&interval.reachable(&g, node, dir, &opts), &want);
            }
        }
    }

    #[test]
    fn depth_limited_bfs_is_prefix_of_unbounded(dag in arb_dag(), depth in 1u32..5) {
        let g = build_graph(&dag);
        for node in (0..g.node_count() as u32).step_by(2) {
            let full = BfsClosure.reachable(&g, node, Direction::Ancestors, &TraverseOpts::unbounded());
            let limited = BfsClosure.reachable(&g, node, Direction::Ancestors, &TraverseOpts::depth(depth));
            // Depth-limited results are a subset of the full closure.
            let full_set: BTreeSet<u32> = full.into_iter().collect();
            prop_assert!(limited.iter().all(|n| full_set.contains(n)));
        }
    }

    #[test]
    fn interval_point_queries_match_set_queries(dag in arb_dag()) {
        let g = build_graph(&dag);
        let interval = IntervalClosure::build(&g, false).unwrap();
        for node in (0..g.node_count() as u32).step_by(2) {
            let set: BTreeSet<u32> = interval
                .reachable(&g, node, Direction::Ancestors, &TraverseOpts::unbounded())
                .into_iter()
                .collect();
            for target in 0..g.node_count() as u32 {
                prop_assert_eq!(
                    interval.contains(node, Direction::Ancestors, target),
                    set.contains(&target),
                    "node {} target {}", node, target
                );
            }
        }
    }
}

/// One step of a time-index history: insert `(start, len)` or build.
#[derive(Debug, Clone)]
enum TimeOp {
    Insert(u64, u64),
    Build,
}

fn arb_time_ops() -> impl Strategy<Value = Vec<TimeOp>> {
    // Starts drift upward (the append-only shape of sensor time) but
    // jump back often enough that builds merge into the middle too.
    proptest::collection::vec((0u8..10, 0u64..40, 0u64..30), 0..80).prop_map(|raw| {
        let mut clock = 0u64;
        raw.into_iter()
            .map(|(kind, jump, len)| match kind {
                0..=1 => TimeOp::Build,
                2 => TimeOp::Insert(jump, len),
                _ => {
                    clock += jump / 4;
                    TimeOp::Insert(clock, len)
                }
            })
            .collect()
    })
}

fn window(a: u64, b: u64) -> pass_model::TimeRange {
    use pass_model::Timestamp;
    pass_model::TimeRange::new(Timestamp(a), Timestamp(b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Incremental builds answer `overlapping` and `covered_by` exactly
    /// as an index sorted once over every interval does, after each
    /// build and at the end (built or not).
    #[test]
    fn incremental_time_builds_match_a_full_sort(
        ops in arb_time_ops(),
        queries in proptest::collection::vec((0u64..70, 0u64..30), 1..12),
    ) {
        use pass_index::TimeIndex;
        let mut incremental = TimeIndex::new();
        let mut all = Vec::new();
        let check = |ix: &TimeIndex, all: &[(u64, u64, u32)]| {
            let mut oracle = TimeIndex::new();
            for &(start, end, node) in all {
                oracle.insert(node, window(start, end));
            }
            oracle.build();
            for &(a, len) in &queries {
                let q = window(a, a + len);
                prop_assert_eq!(ix.overlapping(q).as_slice(), oracle.overlapping(q).as_slice());
                prop_assert_eq!(ix.covered_by(q).as_slice(), oracle.covered_by(q).as_slice());
                let naive: Vec<u32> = all
                    .iter()
                    .filter(|&&(s, e, _)| s <= a + len && e >= a)
                    .map(|&(_, _, n)| n)
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                prop_assert_eq!(oracle.overlapping(q).as_slice(), naive.as_slice());
            }
        };
        for op in &ops {
            match *op {
                TimeOp::Insert(start, len) => {
                    let node = all.len() as u32;
                    incremental.insert(node, window(start, start + len));
                    all.push((start, start + len, node));
                }
                TimeOp::Build => {
                    incremental.build();
                    check(&incremental, &all);
                }
            }
        }
        check(&incremental, &all);
        incremental.build();
        check(&incremental, &all);
    }
}
