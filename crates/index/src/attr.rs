//! The attribute index: per-attribute sorted value maps over posting
//! lists. This is the "efficient lookups in many dimensions" structure of
//! §II-B: any attribute can be queried by equality or range, with no
//! significance ordering among attributes (the failure §IV-B pins on
//! hierarchical namespaces).
//!
//! Each `(attribute, value)` keeps its nodes as one [`PackedPostings`]
//! (delta varints, about one byte per posting); a lookup decodes the
//! lists it touches into the [`PostingList`] the planner combines. A
//! range or `has_attr` lookup decodes every list it covers into one
//! buffer and sorts it once.

use crate::arena::NodeIdx;
use crate::posting::{PackedPostings, PostingList};
use pass_model::{Attributes, Value};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

/// An inverted index from `(attribute, value)` to posting lists, with
/// ordered values per attribute so range predicates are index-served.
#[derive(Debug, Default, Clone)]
pub struct AttrIndex {
    by_attr: HashMap<String, BTreeMap<Value, PackedPostings>>,
    entries: u64,
}

impl AttrIndex {
    /// An empty index.
    pub fn new() -> Self {
        AttrIndex::default()
    }

    /// Drops every posting list's spare capacity (after a bulk load).
    pub fn shrink_to_fit(&mut self) {
        self.by_attr
            .values_mut()
            .flat_map(|values| values.values_mut())
            .for_each(PackedPostings::shrink_to_fit);
    }

    /// Indexes every attribute of a record.
    pub fn insert_attrs(&mut self, idx: NodeIdx, attrs: &Attributes) {
        for (name, value) in attrs.iter() {
            self.insert(idx, name, value.clone());
        }
    }

    /// Indexes a single `(attribute, value)` pair.
    pub fn insert(&mut self, idx: NodeIdx, name: &str, value: Value) {
        self.by_attr.entry(name.to_owned()).or_default().entry(value).or_default().insert(idx);
        self.entries += 1;
    }

    /// Bulk-indexes one attribute's rows from a whole ingest batch,
    /// grouped by value: each distinct value comes once, with its nodes
    /// ascending, and is merged into its posting list
    /// (`PackedPostings::extend_sorted`). The batch pays one `by_attr`
    /// lookup per attribute (the name is copied only the first time the
    /// index meets it) and one merge per distinct value, and sorts
    /// nothing.
    pub fn insert_bulk<'r>(
        &mut self,
        name: &str,
        runs: impl IntoIterator<Item = (Value, &'r [NodeIdx])>,
    ) {
        let values = match self.by_attr.get_mut(name) {
            Some(values) => values,
            None => self.by_attr.entry(name.to_owned()).or_default(),
        };
        for (value, run) in runs {
            self.entries += run.len() as u64;
            values.entry(value).or_default().extend_sorted(run);
        }
    }

    /// True when some node has `attr = value`.
    pub fn contains(&self, name: &str, value: &Value) -> bool {
        self.by_attr.get(name).is_some_and(|m| m.contains_key(value))
    }

    /// Posting list for `attr = value` (empty when absent).
    pub fn eq(&self, name: &str, value: &Value) -> PostingList {
        self.by_attr
            .get(name)
            .and_then(|m| m.get(value))
            .map(PackedPostings::to_list)
            .unwrap_or_default()
    }

    /// Posting list for `low <op> attr <op> high` with inclusive/exclusive
    /// bounds. `None` bounds are unbounded.
    pub fn range(&self, name: &str, low: Bound<&Value>, high: Bound<&Value>) -> PostingList {
        let Some(m) = self.by_attr.get(name) else {
            return PostingList::new();
        };
        // Guard empty bounds: BTreeMap::range panics on start > end, and
        // on start == end when both are excluded.
        if let (Bound::Included(l) | Bound::Excluded(l), Bound::Included(h) | Bound::Excluded(h)) =
            (&low, &high)
        {
            let both_excluded = matches!((low, high), (Bound::Excluded(_), Bound::Excluded(_)));
            if l > h || (l == h && both_excluded) {
                return PostingList::new();
            }
        }
        union(m.range((low, high)).map(|(_, list)| list))
    }

    /// Posting list of every node that *has* the attribute, any value.
    pub fn has_attr(&self, name: &str) -> PostingList {
        let Some(m) = self.by_attr.get(name) else {
            return PostingList::new();
        };
        union(m.values())
    }

    /// Number of distinct values recorded for an attribute (selectivity
    /// statistics for the planner).
    pub fn distinct_values(&self, name: &str) -> usize {
        self.by_attr.get(name).map_or(0, BTreeMap::len)
    }

    /// Total postings under an attribute (≈ how many records carry it).
    pub fn attr_cardinality(&self, name: &str) -> usize {
        self.by_attr.get(name).map_or(0, |m| m.values().map(PackedPostings::len).sum())
    }

    /// Attribute names present in the index.
    pub fn attr_names(&self) -> impl Iterator<Item = &str> {
        self.by_attr.keys().map(String::as_str)
    }

    /// Total `(attr, value, node)` entries indexed.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Heap bytes of the packed posting lists' gaps.
    pub fn posting_bytes(&self) -> usize {
        self.by_attr.values().flat_map(BTreeMap::values).map(PackedPostings::size_bytes).sum()
    }

    /// Rough heap footprint, for the E1 index-size series: names, values,
    /// the packed gap bytes and a fixed 32 B per map entry.
    pub fn size_bytes(&self) -> usize {
        self.by_attr
            .iter()
            .map(|(name, m)| {
                name.len()
                    + m.iter().map(|(v, pl)| value_size(v) + pl.size_bytes() + 32).sum::<usize>()
            })
            .sum()
    }
}

/// The union of packed lists: all decoded into one buffer, sorted once.
fn union<'a>(lists: impl Iterator<Item = &'a PackedPostings> + Clone) -> PostingList {
    let mut items = Vec::with_capacity(lists.clone().map(PackedPostings::len).sum());
    lists.for_each(|list| list.decode_into(&mut items));
    PostingList::from_unsorted(items)
}

fn value_size(v: &Value) -> usize {
    std::mem::size_of::<Value>()
        + match v {
            Value::Str(s) => s.len(),
            Value::Bytes(b) => b.len(),
            Value::List(vs) => vs.iter().map(value_size).sum(),
            _ => 0,
        }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_model::Timestamp;

    fn sample() -> AttrIndex {
        let mut ix = AttrIndex::new();
        for (i, (domain, count)) in
            [("traffic", 10i64), ("traffic", 20), ("weather", 30), ("medical", 20)]
                .iter()
                .enumerate()
        {
            let attrs = Attributes::new().with("domain", *domain).with("count", *count);
            ix.insert_attrs(i as NodeIdx, &attrs);
        }
        ix
    }

    #[test]
    fn eq_lookup() {
        let ix = sample();
        assert_eq!(ix.eq("domain", &Value::from("traffic")).as_slice(), &[0, 1]);
        assert_eq!(ix.eq("domain", &Value::from("weather")).as_slice(), &[2]);
        assert!(ix.eq("domain", &Value::from("volcano")).is_empty());
        assert!(ix.eq("missing", &Value::from("x")).is_empty());
    }

    #[test]
    fn range_lookup_inclusive_exclusive() {
        let ix = sample();
        let got =
            ix.range("count", Bound::Included(&Value::Int(20)), Bound::Included(&Value::Int(30)));
        assert_eq!(got.as_slice(), &[1, 2, 3]);
        let got = ix.range("count", Bound::Excluded(&Value::Int(20)), Bound::Unbounded);
        assert_eq!(got.as_slice(), &[2]);
    }

    #[test]
    fn inverted_range_is_empty_not_panic() {
        let ix = sample();
        let got =
            ix.range("count", Bound::Included(&Value::Int(30)), Bound::Included(&Value::Int(10)));
        assert!(got.is_empty());
    }

    #[test]
    fn equal_exclusive_bounds_are_empty_not_panic() {
        let ix = sample();
        let twenty = Value::Int(20);
        assert!(ix.range("count", Bound::Excluded(&twenty), Bound::Excluded(&twenty)).is_empty());
        let got = ix.range("count", Bound::Included(&twenty), Bound::Included(&twenty));
        assert_eq!(got.as_slice(), &[1, 3]);
        let got = ix.range("count", Bound::Excluded(&twenty), Bound::Included(&twenty));
        assert!(got.is_empty());
    }

    #[test]
    fn has_attr_unions_all_values() {
        let ix = sample();
        assert_eq!(ix.has_attr("domain").len(), 4);
        assert!(ix.has_attr("nope").is_empty());
    }

    #[test]
    fn selectivity_stats() {
        let ix = sample();
        assert_eq!(ix.distinct_values("domain"), 3);
        assert_eq!(ix.attr_cardinality("domain"), 4);
        assert_eq!(ix.distinct_values("missing"), 0);
    }

    #[test]
    fn values_of_mixed_types_coexist_under_one_attr() {
        let mut ix = AttrIndex::new();
        ix.insert(0, "k", Value::Int(5));
        ix.insert(1, "k", Value::Str("five".into()));
        ix.insert(2, "k", Value::Time(Timestamp(5)));
        assert_eq!(ix.eq("k", &Value::Int(5)).as_slice(), &[0]);
        assert_eq!(ix.eq("k", &Value::from("five")).as_slice(), &[1]);
        assert_eq!(ix.has_attr("k").len(), 3);
    }

    #[test]
    fn size_bytes_is_nonzero_once_populated() {
        assert_eq!(AttrIndex::new().size_bytes(), 0);
        assert!(sample().size_bytes() > 0);
    }
}
