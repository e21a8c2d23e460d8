//! Sorted posting lists and their set algebra.
//!
//! Multi-attribute queries (§II-B: "efficient lookups in many dimensions")
//! reduce to intersections and unions of per-attribute posting lists.
//! Intersection uses galloping search, so `rare ∩ common` costs
//! `O(|rare| · log |common|)`.

use crate::arena::NodeIdx;

/// A sorted, deduplicated list of dense node indexes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostingList {
    items: Vec<NodeIdx>,
}

impl PostingList {
    /// An empty list.
    pub fn new() -> Self {
        PostingList::default()
    }

    /// Builds from a vector already sorted and deduplicated (debug-checked).
    pub fn from_sorted(items: Vec<NodeIdx>) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "input must be strictly sorted");
        PostingList { items }
    }

    /// Inserts one index, keeping order (O(log n) search + O(n) shift; the
    /// common ingest path appends monotonically growing indexes, which is
    /// O(1) amortized).
    pub fn insert(&mut self, idx: NodeIdx) {
        match self.items.last() {
            Some(&last) if last < idx => self.items.push(idx),
            _ => {
                if let Err(pos) = self.items.binary_search(&idx) {
                    self.items.insert(pos, idx);
                }
            }
        }
    }

    /// Membership test.
    pub fn contains(&self, idx: NodeIdx) -> bool {
        self.items.binary_search(&idx).is_ok()
    }

    /// Number of postings.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The postings as a sorted slice.
    pub fn as_slice(&self) -> &[NodeIdx] {
        &self.items
    }

    /// Iterates in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        self.items.iter().copied()
    }

    /// Galloping intersection: iterate the shorter list, gallop in the
    /// longer one.
    pub fn intersect(&self, other: &PostingList) -> PostingList {
        let (small, large) = if self.len() <= other.len() {
            (&self.items, &other.items)
        } else {
            (&other.items, &self.items)
        };
        let mut out = Vec::with_capacity(small.len().min(large.len()));
        let mut lo = 0usize;
        for &x in small {
            lo = gallop_to(large, lo, x);
            if lo >= large.len() {
                break;
            }
            if large[lo] == x {
                out.push(x);
                lo += 1;
            }
        }
        PostingList { items: out }
    }

    /// Linear-merge union.
    pub fn union(&self, other: &PostingList) -> PostingList {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (a, b) = (&self.items, &other.items);
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        PostingList { items: out }
    }

    /// `self \ other`.
    pub fn difference(&self, other: &PostingList) -> PostingList {
        let mut out = Vec::with_capacity(self.len());
        let mut j = 0usize;
        for &x in &self.items {
            while j < other.items.len() && other.items[j] < x {
                j += 1;
            }
            if j >= other.items.len() || other.items[j] != x {
                out.push(x);
            }
        }
        PostingList { items: out }
    }

    /// Intersects many lists, cheapest-first so intermediate results stay
    /// small. Returns the empty list when `lists` is empty.
    pub fn intersect_all(mut lists: Vec<&PostingList>) -> PostingList {
        if lists.is_empty() {
            return PostingList::new();
        }
        lists.sort_by_key(|l| l.len());
        let mut acc = lists[0].clone();
        for l in &lists[1..] {
            if acc.is_empty() {
                break;
            }
            acc = acc.intersect(l);
        }
        acc
    }

    /// Unions many lists.
    pub fn union_all(lists: Vec<&PostingList>) -> PostingList {
        let mut acc = PostingList::new();
        for l in lists {
            acc = acc.union(l);
        }
        acc
    }

    /// Merges a sorted (ascending, possibly duplicated) run of indexes in
    /// one pass — the bulk-build primitive behind `AttrIndex::insert_bulk`.
    /// Runs that extend past the current tail (the batched-ingest common
    /// case: node indexes grow monotonically) append in O(run).
    pub fn extend_sorted(&mut self, run: &[NodeIdx]) {
        debug_assert!(run.windows(2).all(|w| w[0] <= w[1]), "run must be sorted");
        if run.is_empty() {
            return;
        }
        // Fast path: the whole run lands after the current tail. Dedup
        // only while appending — a whole-list `dedup()` here would make
        // the "O(run)" append O(list) per batch.
        if self.items.last().is_none_or(|&last| last < run[0]) {
            self.items.reserve(run.len());
            for &idx in run {
                if self.items.last() != Some(&idx) {
                    self.items.push(idx);
                }
            }
            return;
        }
        // General path: merge from the back into room grown at the end of
        // the list itself (amortized, as the append grows it), so a merge
        // neither allocates a second list nor frees the first: a list
        // rebuilt at each batch would leave a hole of its old size behind
        // every time it grows.
        let old_len = self.items.len();
        self.items.resize(old_len + run.len(), 0);
        let (mut i, mut j) = (old_len, run.len());
        for k in (0..self.items.len()).rev() {
            if j == 0 {
                break;
            }
            if i > 0 && self.items[i - 1] > run[j - 1] {
                i -= 1;
                self.items[k] = self.items[i];
            } else {
                j -= 1;
                self.items[k] = run[j];
            }
        }
        self.items.dedup();
    }

    /// Drops spare capacity.
    pub fn shrink_to_fit(&mut self) {
        self.items.shrink_to_fit();
    }

    /// Heap bytes used.
    pub fn size_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<NodeIdx>()
    }
}

/// Index of the first element `>= x` in `sorted[from..]`, found by
/// exponential (galloping) search followed by binary search.
fn gallop_to(sorted: &[NodeIdx], from: usize, x: NodeIdx) -> usize {
    if from >= sorted.len() || sorted[from] >= x {
        return from;
    }
    // Invariant: sorted[prev] < x.
    let mut prev = from;
    let mut step = 1usize;
    let mut hi = from + 1;
    while hi < sorted.len() && sorted[hi] < x {
        prev = hi;
        step *= 2;
        hi += step;
    }
    let end = hi.min(sorted.len());
    prev + 1 + sorted[prev + 1..end].partition_point(|&y| y < x)
}

impl FromIterator<NodeIdx> for PostingList {
    /// Builds from any iterator (sorts and dedups).
    fn from_iter<I: IntoIterator<Item = NodeIdx>>(iter: I) -> Self {
        let mut items: Vec<NodeIdx> = iter.into_iter().collect();
        items.sort_unstable();
        items.dedup();
        PostingList { items }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pl(v: &[u32]) -> PostingList {
        PostingList::from_iter(v.iter().copied())
    }

    #[test]
    fn insert_maintains_sorted_dedup() {
        let mut l = PostingList::new();
        for i in [5u32, 1, 3, 5, 2, 10, 1] {
            l.insert(i);
        }
        assert_eq!(l.as_slice(), &[1, 2, 3, 5, 10]);
        assert!(l.contains(3));
        assert!(!l.contains(4));
    }

    #[test]
    fn intersect_basic_and_asymmetric() {
        assert_eq!(pl(&[1, 3, 5, 7]).intersect(&pl(&[3, 4, 5, 6])).as_slice(), &[3, 5]);
        // Rare ∩ common with galloping.
        let common: Vec<u32> = (0..10_000).collect();
        let rare = [17u32, 4_096, 9_999];
        assert_eq!(pl(&rare).intersect(&pl(&common)).as_slice(), &rare);
        assert_eq!(pl(&common).intersect(&pl(&rare)).as_slice(), &rare);
    }

    #[test]
    fn intersect_empty_and_disjoint() {
        assert!(pl(&[]).intersect(&pl(&[1, 2])).is_empty());
        assert!(pl(&[1, 2]).intersect(&pl(&[])).is_empty());
        assert!(pl(&[1, 3]).intersect(&pl(&[2, 4])).is_empty());
    }

    #[test]
    fn union_merges_with_dedup() {
        assert_eq!(pl(&[1, 3]).union(&pl(&[2, 3, 4])).as_slice(), &[1, 2, 3, 4]);
        assert_eq!(pl(&[]).union(&pl(&[7])).as_slice(), &[7]);
    }

    #[test]
    fn difference_removes_matches() {
        assert_eq!(pl(&[1, 2, 3, 4]).difference(&pl(&[2, 4, 6])).as_slice(), &[1, 3]);
        assert_eq!(pl(&[1, 2]).difference(&pl(&[])).as_slice(), &[1, 2]);
    }

    #[test]
    fn intersect_all_orders_by_cost() {
        let a = pl(&(0..1000).collect::<Vec<_>>());
        let b = pl(&[5, 500, 999]);
        let c = pl(&(0..1000).filter(|x| x % 5 == 0).collect::<Vec<_>>());
        assert_eq!(PostingList::intersect_all(vec![&a, &b, &c]).as_slice(), &[5, 500]);
        assert!(PostingList::intersect_all(vec![]).is_empty());
    }

    #[test]
    fn union_all_accumulates() {
        let got = PostingList::union_all(vec![&pl(&[1]), &pl(&[3]), &pl(&[2, 3])]);
        assert_eq!(got.as_slice(), &[1, 2, 3]);
    }
}
