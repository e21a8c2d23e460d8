//! Property tests for the query layer: the planner's index strategy must
//! agree with brute-force predicate evaluation on arbitrary predicates
//! and corpora — the superset-plus-residual contract, fuzzed.

use pass_index::{BfsClosure, Direction, PostingList, ReachStrategy};
use pass_model::{
    Digest128, ProvenanceBuilder, ProvenanceRecord, SiteId, TimeRange, Timestamp, ToolDescriptor,
    TupleSetId, Value,
};
use pass_query::{
    execute, CmpOp, LineageClause, OrderBy, Predicate, Provider, Query, QueryEngine, RecordIndex,
};
use proptest::prelude::*;

/// The record index every store serves queries from, over `records`.
fn index_of(records: &[ProvenanceRecord]) -> RecordIndex {
    let mut index = RecordIndex::new();
    for record in records {
        index.insert(record);
    }
    index
}

const ATTRS: &[&str] = &["domain", "region", "kind", "level"];
const STR_VALUES: &[&str] = &["traffic", "weather", "medical", "london", "boston"];

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0usize..STR_VALUES.len()).prop_map(|i| Value::from(STR_VALUES[i])),
        (-5i64..15).prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn arb_leaf() -> impl Strategy<Value = Predicate> {
    let attr = (0usize..ATTRS.len()).prop_map(|i| ATTRS[i].to_owned());
    prop_oneof![
        (attr.clone(), arb_value()).prop_map(|(a, v)| Predicate::Eq(a, v)),
        (attr.clone(), arb_value()).prop_map(|(a, v)| Predicate::Ne(a, v)),
        (attr.clone(), arb_value()).prop_map(|(a, v)| Predicate::Cmp(a, CmpOp::Ge, v)),
        (attr.clone(), arb_value()).prop_map(|(a, v)| Predicate::Cmp(a, CmpOp::Lt, v)),
        (attr.clone(), arb_value(), arb_value())
            .prop_map(|(a, lo, hi)| Predicate::Between(a, lo, hi)),
        attr.prop_map(Predicate::HasAttr),
        (0u64..200, 0u64..200).prop_map(|(a, b)| Predicate::TimeOverlaps(TimeRange::new(
            Timestamp(a.min(b)),
            Timestamp(a.max(b))
        ))),
        Just(Predicate::True),
    ]
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    arb_leaf().prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Predicate::And),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Predicate::Or),
            inner.prop_map(|p| Predicate::Not(Box::new(p))),
        ]
    })
}

fn arb_record(seed: usize) -> impl Strategy<Value = ProvenanceRecord> {
    (
        proptest::collection::vec((0usize..ATTRS.len(), arb_value()), 0..4),
        proptest::option::of((0u64..150, 0u64..60)),
        0u32..4,
    )
        .prop_map(move |(pairs, window, origin)| {
            let mut builder = ProvenanceBuilder::new(SiteId(origin), Timestamp(seed as u64));
            for (ai, v) in pairs {
                builder = builder.attr(ATTRS[ai], v);
            }
            if let Some((start, len)) = window {
                builder =
                    builder.time_range(TimeRange::new(Timestamp(start), Timestamp(start + len)));
            }
            builder.attr("uniq", seed as i64).build(Digest128::of(&seed.to_be_bytes()))
        })
}

fn arb_corpus() -> impl Strategy<Value = Vec<ProvenanceRecord>> {
    proptest::collection::vec(any::<u8>(), 3..20).prop_flat_map(|seeds| {
        seeds
            .into_iter()
            .enumerate()
            .map(|(i, s)| arb_record(i * 256 + s as usize))
            .collect::<Vec<_>>()
    })
}

/// Foreign parents (referenced, never stored) come from a small pool, so
/// several records can share one and a lineage root can be one.
const FOREIGN: u128 = 0xf00d_0000;
const FOREIGN_POOL: usize = 3;

/// A corpus with ancestry: record `seed` derives from up to three earlier
/// records or foreign parents, some through abstracted tools. Creation
/// times repeat, so ordered pages break ties by id.
fn arb_lineage_corpus() -> impl Strategy<Value = Vec<ProvenanceRecord>> {
    let parent = (any::<u8>(), 0u8..4, any::<bool>());
    proptest::collection::vec(proptest::collection::vec(parent, 0..4), 3..16).prop_map(|specs| {
        let mut records: Vec<ProvenanceRecord> = Vec::with_capacity(specs.len());
        for (seed, parents) in specs.into_iter().enumerate() {
            let mut builder = ProvenanceBuilder::new(SiteId(0), Timestamp(seed as u64 % 5))
                .attr("domain", STR_VALUES[seed % STR_VALUES.len()])
                .attr("level", (seed % 7) as i64);
            for (pick, kind, abstracted) in parents {
                let parent = match records.len() {
                    len if kind == 0 || len == 0 => {
                        TupleSetId(FOREIGN + u128::from(pick) % FOREIGN_POOL as u128)
                    }
                    len => records[usize::from(pick) % len].id,
                };
                let tool = if abstracted {
                    ToolDescriptor::abstracted("etl", "2")
                } else {
                    ToolDescriptor::new("aggregate", "1")
                };
                builder = builder.derived_from(parent, tool);
            }
            records.push(builder.build(Digest128::of(&seed.to_be_bytes())));
        }
        records
    })
}

/// The lineage result as the executor computed it when closures still
/// held placeholders: the raw closure (plus the root under `WITH SELF`)
/// intersected with every stored record, then filtered and ordered.
/// `None` when the root is unknown.
fn filter_then_intersect(index: &RecordIndex, query: &Query) -> Option<Vec<TupleSetId>> {
    let clause = query.lineage.as_ref()?;
    let root = index.graph().lookup(clause.root)?;
    let opts = clause.traverse_opts();
    let mut closure =
        PostingList::from_iter(BfsClosure.reachable(index.graph(), root, clause.direction, &opts));
    if clause.include_root {
        closure.insert(root);
    }
    let mut records: Vec<ProvenanceRecord> = index
        .all_nodes()
        .intersect(&closure)
        .iter()
        .filter_map(|idx| index.fetch(idx))
        .filter(|r| query.filter.matches(r))
        .collect();
    match query.order {
        OrderBy::None => {}
        OrderBy::CreatedAsc => records.sort_by_key(|r| (r.created_at, r.id)),
        OrderBy::CreatedDesc => records.sort_by_key(|r| (std::cmp::Reverse(r.created_at), r.id)),
    }
    Some(records.iter().map(|r| r.id).collect())
}

fn order_of(order: u8) -> OrderBy {
    match order {
        0 => OrderBy::None,
        1 => OrderBy::CreatedAsc,
        _ => OrderBy::CreatedDesc,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Lineage closures hold stored records only, and an unfiltered
    /// lineage query uses the closure as its only candidate list. Over
    /// closures that reach placeholders (foreign parents, a foreign
    /// root), under depth limits, abstraction stops and `WITH SELF`,
    /// the result and its `AFTER` pages equal the old
    /// filter-then-intersect answer.
    #[test]
    fn lineage_pages_equal_filter_then_intersect(
        corpus in arb_lineage_corpus(),
        root_pick in any::<u8>(),
        ancestors in any::<bool>(),
        max_depth in proptest::option::of(0u32..4),
        stop_at_abstraction in any::<bool>(),
        include_root in any::<bool>(),
        filter in prop_oneof![Just(Predicate::True), arb_predicate()],
        order in 0u8..3,
        page in 1usize..5,
    ) {
        let index = index_of(&corpus);
        let pick = usize::from(root_pick) % (corpus.len() + FOREIGN_POOL);
        let root = corpus
            .get(pick)
            .map_or_else(|| TupleSetId(FOREIGN + (pick - corpus.len()) as u128), |r| r.id);
        let mut query = Query::filtered(filter);
        query.lineage = Some(LineageClause {
            root,
            direction: if ancestors { Direction::Ancestors } else { Direction::Descendants },
            max_depth,
            stop_at_abstraction,
            include_root,
        });
        query.order = order_of(order);
        if let Some(closure) = query.lineage.as_ref().and_then(|c| index.lineage(c)) {
            prop_assert!(closure.iter().all(|idx| index.fetch(idx).is_some()), "placeholder kept");
        }
        let want = filter_then_intersect(&index, &query);
        prop_assert_eq!(execute(&query, &index).ok().map(|r| r.ids()), want.clone());

        if let Some(want) = want {
            let mut paged = Vec::new();
            let mut after: Option<TupleSetId> = None;
            for _ in 0..=want.len() {
                let mut page_query = query.clone().with_limit(page);
                page_query.after = after;
                let batch = execute(&page_query, &index).unwrap().ids();
                if batch.is_empty() {
                    break;
                }
                after = batch.last().copied();
                paged.extend(batch);
            }
            prop_assert_eq!(paged, want);
        }
    }

    /// The fundamental contract: executor output == brute-force filter,
    /// for every predicate shape the planner might see.
    #[test]
    fn executor_matches_brute_force(corpus in arb_corpus(), pred in arb_predicate()) {
        let fixture = index_of(&corpus);
        let query = Query::filtered(pred.clone());
        let result = execute(&query, &fixture).unwrap();
        let mut got = result.ids();
        got.sort();
        let mut want: Vec<TupleSetId> = corpus
            .iter()
            .filter(|r| pred.matches(r))
            .map(|r| r.id)
            .collect();
        want.sort();
        prop_assert_eq!(got, want, "predicate {:?}", pred);
    }

    /// Limits never change membership, only cardinality.
    #[test]
    fn limit_truncates_without_changing_membership(
        corpus in arb_corpus(),
        pred in arb_predicate(),
        limit in 0usize..10,
    ) {
        let fixture = index_of(&corpus);
        let full = execute(&Query::filtered(pred.clone()), &fixture).unwrap();
        let cut = execute(&Query::filtered(pred).with_limit(limit), &fixture).unwrap();
        prop_assert!(cut.records.len() <= limit);
        let full_ids: std::collections::HashSet<_> = full.ids().into_iter().collect();
        prop_assert!(cut.ids().iter().all(|id| full_ids.contains(id)));
    }

    /// Double negation is a no-op.
    #[test]
    fn double_negation_is_identity(corpus in arb_corpus(), pred in arb_predicate()) {
        let fixture = index_of(&corpus);
        let direct = execute(&Query::filtered(pred.clone()), &fixture).unwrap();
        let doubled = execute(
            &Query::filtered(Predicate::Not(Box::new(Predicate::Not(Box::new(pred))))),
            &fixture,
        )
        .unwrap();
        let mut a = direct.ids();
        let mut b = doubled.ids();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// Parser fuzz: arbitrary input never panics.
    #[test]
    fn parser_never_panics(input in "[ -~]{0,80}") {
        let _ = pass_query::parse(&input);
    }

    /// Draining a cursor equals `execute` for every predicate and
    /// ordering — the streaming API is a pure refactoring of execution.
    #[test]
    fn cursor_drain_equals_execute(
        corpus in arb_corpus(),
        pred in arb_predicate(),
        order in 0u8..3,
        limit in proptest::option::of(0usize..12),
    ) {
        let fixture = index_of(&corpus);
        let mut query = Query::filtered(pred);
        query.order = order_of(order);
        query.limit = limit;
        let executed = execute(&query, &fixture).unwrap().records;
        let drained: Vec<ProvenanceRecord> =
            fixture.open_query(&query).unwrap().collect();
        prop_assert_eq!(executed, drained);
    }

    /// Keyset pagination is lossless: concatenating `LIMIT k AFTER
    /// <last>` pages reproduces the one-shot result exactly, record for
    /// record, for any page size and ordering.
    #[test]
    fn paging_concatenation_equals_one_shot(
        corpus in arb_corpus(),
        pred in arb_predicate(),
        page in 1usize..6,
        order in 0u8..3,
    ) {
        let fixture = index_of(&corpus);
        let mut query = Query::filtered(pred);
        query.order = order_of(order);
        let full = execute(&query, &fixture).unwrap().records;

        let mut paged: Vec<ProvenanceRecord> = Vec::new();
        let mut after: Option<TupleSetId> = None;
        // Page count is bounded by the corpus; guard against a paging
        // bug looping forever.
        for _ in 0..=full.len() + 1 {
            let mut page_query = query.clone().with_limit(page);
            page_query.after = after;
            let batch = execute(&page_query, &fixture).unwrap().records;
            if batch.is_empty() {
                break;
            }
            after = Some(batch.last().unwrap().id);
            paged.extend(batch);
        }
        prop_assert_eq!(full, paged);
    }
}
