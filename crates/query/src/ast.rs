//! Query abstract syntax.
//!
//! A PASS query is a predicate over provenance attributes, optionally
//! scoped to the lineage closure of one tuple set — the two query shapes
//! §II-B identifies (dimensional lookups and recursive traversals).

use pass_index::{Direction, TraverseOpts};
use pass_model::{keys, ProvenanceRecord, TimeRange, TupleSetId, Value};

/// Comparison operators for attribute predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Evaluates the operator on an ordered pair.
    pub fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        match self {
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

/// A boolean predicate over a provenance record.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (the empty WHERE clause).
    True,
    /// `attr = value`.
    Eq(String, Value),
    /// `attr != value` (attribute must be present).
    Ne(String, Value),
    /// `attr <op> value` (attribute must be present and ordered).
    Cmp(String, CmpOp, Value),
    /// `attr BETWEEN low AND high`, both inclusive.
    Between(String, Value, Value),
    /// `HAS attr` — the attribute exists with any value.
    HasAttr(String),
    /// `ANNOTATION CONTAINS "phrase"` — all tokens of the phrase appear in
    /// the record's annotations or description.
    TextContains(String),
    /// `time OVERLAPS [a, b]` — the record's conventional time window
    /// overlaps the range.
    TimeOverlaps(TimeRange),
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Conjunction helper that flattens nested `And`s.
    pub fn and(preds: Vec<Predicate>) -> Predicate {
        let mut flat = Vec::with_capacity(preds.len());
        for p in preds {
            match p {
                Predicate::And(inner) => flat.extend(inner),
                Predicate::True => {}
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Predicate::True,
            1 => flat.into_iter().next().expect("one element"),
            _ => Predicate::And(flat),
        }
    }

    /// Ground-truth evaluation against a record. This is the semantics the
    /// planner's index strategy must reproduce (executor re-checks
    /// residuals with exactly this function).
    ///
    /// Tool pseudo-attributes (`tool.name`, `tool.version`) are
    /// multi-valued — one per derivation — and match existentially: the
    /// predicate holds when *some* derivation's tool satisfies it.
    pub fn matches(&self, record: &ProvenanceRecord) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Eq(attr, v) => each_attr_value(record, attr, |got| got == v),
            Predicate::Ne(attr, v) => each_attr_value(record, attr, |got| got != v),
            Predicate::Cmp(attr, op, v) => each_attr_value(record, attr, |got| op.eval(got, v)),
            Predicate::Between(attr, lo, hi) => {
                each_attr_value(record, attr, |got| got >= lo && got <= hi)
            }
            Predicate::HasAttr(attr) => each_attr_value(record, attr, |_| true),
            Predicate::TextContains(phrase) => text_matches(record, phrase),
            Predicate::TimeOverlaps(range) => {
                record.time_range().is_some_and(|r| r.overlaps(range))
            }
            Predicate::And(ps) => ps.iter().all(|p| p.matches(record)),
            Predicate::Or(ps) => ps.iter().any(|p| p.matches(record)),
            Predicate::Not(p) => !p.matches(record),
        }
    }
}

/// Applies `test` across the (possibly multi-valued) values of an
/// attribute; true when some value passes. Absent attributes never pass.
fn each_attr_value(record: &ProvenanceRecord, attr: &str, test: impl Fn(&Value) -> bool) -> bool {
    if attr == "tool.name" || attr == "tool.version" {
        return multi_valued_attrs(record).iter().any(|(name, value)| *name == attr && test(value));
    }
    lookup_attr(record, attr).is_some_and(|got| test(&got))
}

/// Pseudo-attributes materialized from record structure. Indexable like
/// real attributes ([`crate::RecordIndex`] indexes them) and evaluable here
/// for ground truth:
///
/// * `tool.name` / `tool.version` — any derivation's tool (multi-valued:
///   equality means "some derivation used it").
/// * `origin.site` — the producing site id.
/// * `ancestry.depth` — number of direct parents (0 ⇒ raw capture).
pub fn lookup_attr(record: &ProvenanceRecord, attr: &str) -> Option<Value> {
    match attr {
        "origin.site" => Some(Value::Int(i64::from(record.origin.0))),
        "ancestry.parents" => Some(Value::Int(record.ancestry.len() as i64)),
        "created_at" => Some(Value::Time(record.created_at)),
        _ => record.attributes.get(attr).cloned(),
    }
}

/// Multi-valued pseudo-attribute expansion used by ingest-time indexing;
/// `matches` uses it for tool predicates.
pub fn multi_valued_attrs(record: &ProvenanceRecord) -> Vec<(&'static str, Value)> {
    let mut out = Vec::with_capacity(record.ancestry.len() * 2);
    for d in &record.ancestry {
        out.push(("tool.name", Value::Str(d.tool.name.clone())));
        out.push(("tool.version", Value::Str(d.tool.version.clone())));
    }
    out
}

fn text_matches(record: &ProvenanceRecord, phrase: &str) -> bool {
    use std::collections::HashSet;
    let mut tokens: HashSet<String> = HashSet::new();
    for ann in &record.annotations {
        tokens.extend(pass_index::keyword::tokenize(&ann.text));
    }
    if let Some(desc) = record.attributes.get_str(keys::DESCRIPTION) {
        tokens.extend(pass_index::keyword::tokenize(desc));
    }
    let mut wanted = pass_index::keyword::tokenize(phrase).peekable();
    if wanted.peek().is_none() {
        return false;
    }
    wanted.all(|t| tokens.contains(&t))
}

/// Which lineage closure to intersect the filter with.
#[derive(Debug, Clone, PartialEq)]
pub struct LineageClause {
    /// The tuple set whose closure is wanted.
    pub root: TupleSetId,
    /// Ancestors ("origins") or descendants ("downstream, tainted data").
    pub direction: Direction,
    /// Hop limit.
    pub max_depth: Option<u32>,
    /// Stop at abstraction boundaries (§V "gcc 3.3.3").
    pub stop_at_abstraction: bool,
    /// Include the root itself in results.
    pub include_root: bool,
}

impl LineageClause {
    /// Traversal options equivalent of this clause.
    pub fn traverse_opts(&self) -> TraverseOpts {
        TraverseOpts { max_depth: self.max_depth, stop_at_abstraction: self.stop_at_abstraction }
    }
}

/// Result ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderBy {
    /// Storage order (dense index order — effectively ingest order).
    #[default]
    None,
    /// Oldest first by creation time.
    CreatedAsc,
    /// Newest first by creation time.
    CreatedDesc,
}

/// A subscription statement: the continuous form of a [`Query`].
///
/// One-shot and continuous consumption share the query model: a
/// subscription's *catch-up* phase executes [`Subscribe::query`]
/// verbatim against the snapshot pinned at subscribe time (output
/// identical to `execute`), and its *tail* then re-evaluates the query's
/// filter — and, for `DESCENDANTS OF` scopes, an incrementally
/// maintained closure — against every subsequent commit, in commit
/// order.
///
/// Parsed from `SUBSCRIBE <query>` or the `WATCH DESCENDANTS OF id`
/// sugar (see [`crate::parser::parse_subscribe`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Subscribe {
    /// The underlying query.
    pub query: Query,
}

impl Subscribe {
    /// Subscribes to the matches of `query`.
    pub fn of(query: Query) -> Self {
        Subscribe { query }
    }

    /// `WATCH DESCENDANTS OF root`: fire when a record derives,
    /// transitively, from `root` — the live-taint shape.
    pub fn watch_descendants(root: TupleSetId) -> Self {
        Subscribe { query: Query::lineage(root, Direction::Descendants) }
    }
}

/// A complete query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Attribute/text/time filter.
    pub filter: Predicate,
    /// Optional lineage scope.
    pub lineage: Option<LineageClause>,
    /// Result cap.
    pub limit: Option<usize>,
    /// Result ordering.
    pub order: OrderBy,
    /// Keyset-pagination token: results resume strictly *after* this
    /// tuple set's position in the result order. Combined with `limit`
    /// this pages through a result set without offsets: each page's last
    /// id is the next page's `after`.
    pub after: Option<TupleSetId>,
}

impl Query {
    /// A query returning everything matching `filter`.
    pub fn filtered(filter: Predicate) -> Self {
        Query { filter, lineage: None, limit: None, order: OrderBy::None, after: None }
    }

    /// A pure lineage query (no additional filter).
    pub fn lineage(root: TupleSetId, direction: Direction) -> Self {
        Query {
            filter: Predicate::True,
            lineage: Some(LineageClause {
                root,
                direction,
                max_depth: None,
                stop_at_abstraction: false,
                include_root: false,
            }),
            limit: None,
            order: OrderBy::None,
            after: None,
        }
    }

    /// Sets a hop limit on the lineage clause (no-op without one).
    pub fn with_depth(mut self, depth: u32) -> Self {
        if let Some(l) = &mut self.lineage {
            l.max_depth = Some(depth);
        }
        self
    }

    /// Sets a result cap.
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Sets the keyset-pagination token (see [`Query::after`]).
    pub fn with_after(mut self, after: TupleSetId) -> Self {
        self.after = Some(after);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_model::{Annotation, Digest128, ProvenanceBuilder, SiteId, Timestamp, ToolDescriptor};

    fn record() -> ProvenanceRecord {
        let mut r = ProvenanceBuilder::new(SiteId(3), Timestamp(500))
            .attr("domain", "traffic")
            .attr("count", 42i64)
            .attr(keys::DESCRIPTION, "camera feed from junction 9")
            .time_range(TimeRange::new(Timestamp(100), Timestamp(200)))
            .derived_from(TupleSetId(7), ToolDescriptor::new("dedupe", "2.0"))
            .build(Digest128::of(b"data"));
        r.annotate(Annotation::new(Timestamp(600), "ops", "sensor 12 replaced"));
        r
    }

    #[test]
    fn eq_ne_matches() {
        let r = record();
        assert!(Predicate::Eq("domain".into(), "traffic".into()).matches(&r));
        assert!(!Predicate::Eq("domain".into(), "weather".into()).matches(&r));
        assert!(Predicate::Ne("domain".into(), "weather".into()).matches(&r));
        assert!(
            !Predicate::Ne("missing".into(), "x".into()).matches(&r),
            "Ne on an absent attribute is false, not vacuously true"
        );
    }

    #[test]
    fn cmp_and_between() {
        let r = record();
        assert!(Predicate::Cmp("count".into(), CmpOp::Ge, Value::Int(42)).matches(&r));
        assert!(!Predicate::Cmp("count".into(), CmpOp::Lt, Value::Int(42)).matches(&r));
        assert!(Predicate::Between("count".into(), Value::Int(40), Value::Int(50)).matches(&r));
        assert!(!Predicate::Between("count".into(), Value::Int(43), Value::Int(50)).matches(&r));
    }

    #[test]
    fn boolean_combinators() {
        let r = record();
        let t = Predicate::Eq("domain".into(), "traffic".into());
        let f = Predicate::Eq("domain".into(), "weather".into());
        assert!(Predicate::And(vec![t.clone(), Predicate::True]).matches(&r));
        assert!(!Predicate::And(vec![t.clone(), f.clone()]).matches(&r));
        assert!(Predicate::Or(vec![f.clone(), t.clone()]).matches(&r));
        assert!(Predicate::Not(Box::new(f)).matches(&r));
    }

    #[test]
    fn and_flattening() {
        let p = Predicate::and(vec![
            Predicate::True,
            Predicate::and(vec![Predicate::HasAttr("a".into()), Predicate::HasAttr("b".into())]),
        ]);
        assert_eq!(
            p,
            Predicate::And(vec![Predicate::HasAttr("a".into()), Predicate::HasAttr("b".into())])
        );
        assert_eq!(Predicate::and(vec![]), Predicate::True);
    }

    #[test]
    fn time_overlap_matching() {
        let r = record();
        assert!(Predicate::TimeOverlaps(TimeRange::new(Timestamp(150), Timestamp(300))).matches(&r));
        assert!(
            !Predicate::TimeOverlaps(TimeRange::new(Timestamp(201), Timestamp(300))).matches(&r)
        );
    }

    #[test]
    fn text_contains_spans_annotations_and_description() {
        let r = record();
        assert!(Predicate::TextContains("sensor replaced".into()).matches(&r));
        assert!(Predicate::TextContains("camera junction".into()).matches(&r));
        assert!(!Predicate::TextContains("volcano".into()).matches(&r));
        assert!(!Predicate::TextContains("".into()).matches(&r));
    }

    #[test]
    fn pseudo_attributes() {
        let r = record();
        assert!(Predicate::Eq("origin.site".into(), Value::Int(3)).matches(&r));
        assert!(Predicate::Eq("ancestry.parents".into(), Value::Int(1)).matches(&r));
        assert!(Predicate::Eq("created_at".into(), Value::Time(Timestamp(500))).matches(&r));
        assert!(Predicate::Eq("tool.name".into(), "dedupe".into()).matches(&r));
        assert!(!Predicate::Eq("tool.name".into(), "sharpen".into()).matches(&r));
        assert!(Predicate::HasAttr("tool.name".into()).matches(&r));
    }

    #[test]
    fn multi_valued_expansion_lists_tools() {
        let r = record();
        let expanded = multi_valued_attrs(&r);
        assert!(expanded.contains(&("tool.name", Value::from("dedupe"))));
        assert!(expanded.contains(&("tool.version", Value::from("2.0"))));
    }
}
