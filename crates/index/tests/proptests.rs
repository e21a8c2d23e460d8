//! Property tests: posting-list algebra must match naive set algebra,
//! the packed posting lists and the time index must answer as a model
//! does, and all four closure strategies must agree on arbitrary DAGs.

use pass_index::closure::{BfsClosure, MemoClosure, NaiveJoinClosure, ReachStrategy, TraverseOpts};
use pass_index::{AncestryGraph, AttrIndex, Direction, IntervalClosure, KeywordIndex, PostingList};
use pass_index::{NodeIdx, TimeIndex};
use pass_model::{TupleSetId, Value};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

/// Cases for the model-checked index properties: few under Miri, whose
/// interpreter is thousands of times slower.
const MODEL_CASES: u32 = if cfg!(miri) { 4 } else { 128 };

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
    fn union_all_equals_the_pairwise_fold(
        lists in proptest::collection::vec(arb_list(), 0..12),
    ) {
        let lists: Vec<PostingList> =
            lists.into_iter().map(PostingList::from_iter).collect();
        let folded = lists.iter().fold(PostingList::new(), |acc, l| acc.union(l));
        let got = PostingList::union_all(lists.iter().collect());
        prop_assert_eq!(got.as_slice(), folded.as_slice());
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

/// One run merged into a packed list: the attribute (and keyword) slot,
/// the value slot, and the run's nodes, ascending, duplicates allowed.
type PostingOp = (usize, usize, Vec<NodeIdx>);

/// Runs that mostly land after the tail of their list, as batched ingest
/// makes them (node indexes grow with a clock), with duplicates, runs
/// that land before the tail, nodes near `u32::MAX`, and gaps that need
/// every varint length from one to five bytes.
fn arb_posting_ops() -> impl Strategy<Value = Vec<PostingOp>> {
    let run = (0u8..10, proptest::collection::vec((0u32..4, 0u32..1 << 20), 1..12));
    proptest::collection::vec((0usize..3, 0usize..4, run), 1..60).prop_map(|raw| {
        let mut clock = 0u32;
        raw.into_iter()
            .map(|(slot, value, (kind, steps))| {
                let mut run: Vec<NodeIdx> = steps
                    .into_iter()
                    .map(|(step, wide)| match kind {
                        // Before the tail: anywhere up to the clock.
                        0 => wide % clock.max(1),
                        // Near the top of the node space, and 0.
                        1 => u32::MAX - wide % 3,
                        2 => 0,
                        // Gaps of 3–5 varint bytes.
                        3 => {
                            clock = clock.saturating_add(wide << 8);
                            clock
                        }
                        // Ascending with duplicates (a step of 0).
                        _ => {
                            clock = clock.saturating_add(step);
                            clock
                        }
                    })
                    .collect();
                run.sort_unstable();
                (slot, value, run)
            })
            .collect()
    })
}

/// The model: every `(slot, value)` list as a set.
type PostingModel = BTreeMap<(usize, usize), BTreeSet<NodeIdx>>;

const ATTRS: [&str; 3] = ["a", "b", "c"];
const TOKENS: [&str; 12] = ["a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3", "c0", "c1", "c2", "c3"];

fn token(slot: usize, value: usize) -> &'static str {
    TOKENS[slot * 4 + value]
}

/// Applies one op to both indexes and the model.
fn apply_op(
    attrs: &mut AttrIndex,
    keywords: &mut KeywordIndex,
    model: &mut PostingModel,
    (slot, value, run): &PostingOp,
) {
    attrs.insert_bulk(ATTRS[*slot], [(Value::Int(*value as i64), run.as_slice())]);
    keywords.insert_bulk(1, [(token(*slot, *value).to_owned(), run.as_slice())]);
    model.entry((*slot, *value)).or_default().extend(run.iter().copied());
}

/// Checks every lookup of both indexes against the model.
fn check_postings(attrs: &AttrIndex, keywords: &KeywordIndex, model: &PostingModel) {
    let set = |nodes: &BTreeSet<NodeIdx>| nodes.iter().copied().collect::<Vec<_>>();
    let empty = BTreeSet::new();
    let list = |slot: usize, value: usize| model.get(&(slot, value)).unwrap_or(&empty);
    for (slot, name) in ATTRS.iter().enumerate() {
        let mut all = BTreeSet::new();
        for value in 0..4 {
            let want = set(list(slot, value));
            assert_eq!(attrs.eq(name, &Value::Int(value as i64)).as_slice(), want.as_slice());
            assert_eq!(keywords.lookup(token(slot, value)).as_slice(), want.as_slice());
            all.extend(list(slot, value));
        }
        assert_eq!(attrs.has_attr(name).as_slice(), set(&all).as_slice());
        let cardinality: usize = (0..4).map(|value| list(slot, value).len()).sum();
        assert_eq!(attrs.attr_cardinality(name), cardinality);
        // Every pair of bounds, equal exclusive ones included.
        let bounds = |v: &Value| [Bound::Included(v.clone()), Bound::Excluded(v.clone())];
        let values: Vec<Value> = (0..4).map(Value::Int).collect();
        for lo in values.iter().flat_map(bounds).chain([Bound::Unbounded]) {
            for hi in values.iter().flat_map(bounds).chain([Bound::Unbounded]) {
                let within = |value: usize| {
                    let v = Value::Int(value as i64);
                    let above = match &lo {
                        Bound::Included(l) => v >= *l,
                        Bound::Excluded(l) => v > *l,
                        Bound::Unbounded => true,
                    };
                    let below = match &hi {
                        Bound::Included(h) => v <= *h,
                        Bound::Excluded(h) => v < *h,
                        Bound::Unbounded => true,
                    };
                    above && below
                };
                let want: BTreeSet<NodeIdx> =
                    (0..4).filter(|&v| within(v)).flat_map(|v| list(slot, v)).copied().collect();
                let got = attrs.range(name, lo.as_ref(), hi.as_ref());
                assert_eq!(got.as_slice(), set(&want).as_slice(), "{name} {lo:?}..{hi:?}");
            }
        }
    }
    for (a, b) in [(0, 4), (1, 5), (4, 8), (2, 2)] {
        let want: Vec<NodeIdx> =
            list(a / 4, a % 4).intersection(list(b / 4, b % 4)).copied().collect();
        let got = keywords.lookup_all(&format!("{} {}", TOKENS[a], TOKENS[b]));
        assert_eq!(got.as_slice(), want.as_slice());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(MODEL_CASES))]

    /// Packed posting lists answer every lookup as sets do, before and
    /// after `shrink_to_fit`, and a clone taken part way through keeps
    /// the answers of its moment while the original grows.
    #[test]
    fn packed_postings_match_a_set_model(ops in arb_posting_ops(), cut in 0usize..60) {
        let (mut attrs, mut keywords, mut model) =
            (AttrIndex::new(), KeywordIndex::new(), PostingModel::new());
        let mut clone = None;
        for (i, op) in ops.iter().enumerate() {
            if i == cut % ops.len() {
                clone = Some((attrs.clone(), keywords.clone(), model.clone()));
            }
            apply_op(&mut attrs, &mut keywords, &mut model, op);
        }
        check_postings(&attrs, &keywords, &model);
        attrs.shrink_to_fit();
        keywords.shrink_to_fit();
        check_postings(&attrs, &keywords, &model);
        let (old_attrs, old_keywords, old_model) = clone.expect("cut falls inside the ops");
        check_postings(&old_attrs, &old_keywords, &old_model);
        // Growing after a shrink appends to the trimmed buffers.
        for op in &ops {
            apply_op(&mut attrs, &mut keywords, &mut model, op);
        }
        check_postings(&attrs, &keywords, &model);
    }
}

/// One step of a long time-index history: insert `(start, end)` or build.
#[derive(Debug, Clone)]
enum LongTimeOp {
    Insert(u64, u64),
    Build,
}

/// Histories long enough that builds cross 64-entry blocks many times:
/// starts drift upward from above 2^32 with jumps back, a few intervals
/// are long and early, and some end at the top of the clock.
fn arb_long_time_ops() -> impl Strategy<Value = Vec<LongTimeOp>> {
    proptest::collection::vec((0u8..40, 0u64..1 << 12, 0u64..50), 0..400).prop_map(|raw| {
        let base = 3u64 << 32;
        let mut clock = base;
        raw.into_iter()
            .map(|(kind, jump, len)| match kind {
                0 => LongTimeOp::Build,
                // Long and early.
                1 => LongTimeOp::Insert(base + jump % 64, base + (1 << 14) + jump),
                // Back in time.
                2..=4 => {
                    let start = (clock - jump).max(base);
                    LongTimeOp::Insert(start, start + len)
                }
                5 => LongTimeOp::Insert(clock, u64::MAX - len),
                _ => {
                    clock += jump / 64;
                    LongTimeOp::Insert(clock, clock + len)
                }
            })
            .collect()
    })
}

/// Checks `overlapping` and `covered_by` against a scan of `all`.
fn check_time(ix: &TimeIndex, all: &[(u64, u64, NodeIdx)], queries: &[(u64, u64)]) {
    let scan = |keep: &dyn Fn(u64, u64) -> bool| -> Vec<NodeIdx> {
        let nodes: BTreeSet<NodeIdx> =
            all.iter().filter(|&&(s, e, _)| keep(s, e)).map(|&(_, _, n)| n).collect();
        nodes.into_iter().collect()
    };
    let base = 3u64 << 32;
    for &(offset, len) in queries {
        let (a, b) = (base + offset, base + offset + len);
        let q = window(a, b);
        let overlap = scan(&|s, e| s <= b && e >= a);
        assert_eq!(ix.overlapping(q).as_slice(), overlap.as_slice(), "overlap {a}..{b}");
        let covered = scan(&|s, e| s >= a && e <= b);
        assert_eq!(ix.covered_by(q).as_slice(), covered.as_slice(), "covered {a}..{b}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(MODEL_CASES))]

    /// The block-granular prefix maximum answers exactly as a linear
    /// scan does, built or not, before and after `shrink_to_fit`.
    #[test]
    fn time_index_matches_a_linear_scan(
        ops in arb_long_time_ops(),
        queries in proptest::collection::vec((0u64..1 << 14, 0u64..1 << 10), 1..16),
    ) {
        let mut ix = TimeIndex::new();
        let mut all = Vec::new();
        for op in &ops {
            match *op {
                LongTimeOp::Insert(start, end) => {
                    let node = all.len() as NodeIdx;
                    ix.insert(node, window(start, end));
                    all.push((start, end, node));
                }
                LongTimeOp::Build => {
                    ix.build();
                    check_time(&ix, &all, &queries);
                }
            }
        }
        check_time(&ix, &all, &queries);
        ix.build();
        ix.shrink_to_fit();
        check_time(&ix, &all, &queries);
    }
}
