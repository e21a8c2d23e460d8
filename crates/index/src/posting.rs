//! Posting lists: the packed form the indexes store, and the sorted form
//! queries compute with.
//!
//! Multi-attribute queries (§II-B: "efficient lookups in many dimensions")
//! reduce to intersections and unions of per-attribute posting lists.
//! The attribute and keyword indexes keep every list as a
//! [`PackedPostings`]: the gaps between consecutive node indexes as
//! LEB128 varints, appended in node order, behind a header holding the
//! count and the last node. Nodes are numbered in insertion order, so a
//! gap is usually one byte where a plain list spends four, and a list of
//! one node keeps no heap at all. A lookup decodes the list it needs
//! into a [`PostingList`], a plain sorted vector; intersection on those
//! uses galloping search, so `rare ∩ common` costs
//! `O(|rare| · log |common|)`, and a union of many lists is one sort of
//! their concatenation.

use crate::arena::NodeIdx;
use pass_model::codec::varint_len;

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

    /// Unions many lists in one pass: their concatenation, sorted and
    /// deduplicated. (A pairwise fold copies the growing result once per
    /// list, which is quadratic in the number of lists.)
    pub fn union_all(lists: Vec<&PostingList>) -> PostingList {
        let mut items = Vec::with_capacity(lists.iter().map(|l| l.len()).sum());
        for l in lists {
            items.extend_from_slice(&l.items);
        }
        PostingList::from_unsorted(items)
    }

    /// Builds from a vector in any order, with duplicates (sorts and
    /// dedups in place).
    pub fn from_unsorted(mut items: Vec<NodeIdx>) -> Self {
        items.sort_unstable();
        items.dedup();
        PostingList { items }
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
        PostingList::from_unsorted(iter.into_iter().collect())
    }
}

/// A sorted, deduplicated list of node indexes as stored by the indexes:
/// the gaps between consecutive postings as LEB128 varints, in node
/// order, with the count and the last posting beside them. The first
/// posting is the last less the sum of the gaps, so a list of one
/// posting has no gap bytes and no heap. The struct is as small as a
/// plain `Vec<u32>` (24 B): the gap buffer is a boxed slice whose unused
/// tail is zero, and since a gap is never 0, no varint of one holds a
/// zero byte, so the first zero marks the end of the gaps.
#[derive(Debug, Clone, Default)]
pub struct PackedPostings {
    /// `posting[i] - posting[i - 1]` for `i` in `1..len`, as varints,
    /// then zeros up to the capacity.
    gaps: Box<[u8]>,
    /// Number of postings.
    len: u32,
    /// The greatest posting (0 while empty).
    last: NodeIdx,
}

impl PackedPostings {
    /// An empty list.
    pub fn new() -> Self {
        PackedPostings::default()
    }

    /// Number of postings.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts one index.
    pub fn insert(&mut self, idx: NodeIdx) {
        self.extend_sorted(&[idx]);
    }

    /// Adds a sorted (ascending, possibly duplicated) run of indexes. A
    /// run that lands after the last posting, the batched-ingest case
    /// (node indexes grow with every insert), appends its gaps in
    /// O(run + log list), growing the buffer at most once. A run that
    /// does not (a parent first met as a placeholder and stored later)
    /// takes off the postings at or after its head, walking the gaps
    /// back from the end, merges them with the run and appends the
    /// result in place: O(run + postings taken off), the list's prefix
    /// untouched.
    pub fn extend_sorted(&mut self, run: &[NodeIdx]) {
        debug_assert!(run.windows(2).all(|w| w[0] <= w[1]), "run must be sorted");
        let Some(&head) = run.first() else {
            return;
        };
        if self.len > 0 && head <= self.last {
            let tail = self.split_off_from(head);
            let mut merged = Vec::with_capacity(tail.len() + run.len());
            let (mut i, mut j) = (0, 0);
            while i < tail.len() && j < run.len() {
                if tail[i] <= run[j] {
                    merged.push(tail[i]);
                    i += 1;
                } else {
                    merged.push(run[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&tail[i..]);
            merged.extend_from_slice(&run[j..]);
            return self.append(&merged);
        }
        self.append(run);
    }

    /// Removes the postings `>= head` and returns them, ascending. The
    /// gaps are read back from the end: a varint's last byte is the one
    /// below 0x80, so each gap starts after the previous such byte.
    fn split_off_from(&mut self, head: NodeIdx) -> Vec<NodeIdx> {
        let old_end = self.gaps_end();
        let mut end = old_end;
        let mut tail = Vec::new();
        while self.len > 0 && self.last >= head {
            tail.push(self.last);
            self.len -= 1;
            if self.len == 0 {
                // That was the first posting, which has no gap.
                self.last = 0;
                break;
            }
            let start =
                self.gaps[..end - 1].iter().rposition(|&byte| byte < 0x80).map_or(0, |i| i + 1);
            self.last -= next_gap(&mut self.gaps[start..end].iter()).unwrap_or(0);
            end = start;
        }
        self.gaps[end..old_end].fill(0);
        tail.reverse();
        tail
    }

    /// Appends a sorted run whose head lies after the last posting (or
    /// any sorted run to an empty list).
    fn append(&mut self, run: &[NodeIdx]) {
        let Some(&head) = run.first() else {
            return;
        };
        debug_assert!(self.len == 0 || head > self.last, "append lands after the tail");
        if self.len == 0 {
            (self.last, self.len) = (head, 1);
        }
        let (mut need, mut prev) = (0, self.last);
        for &idx in run {
            if idx != prev {
                need += varint_len(u64::from(idx - prev));
                prev = idx;
            }
        }
        let mut end = self.gaps_end();
        if end + need > self.gaps.len() {
            let mut gaps = std::mem::take(&mut self.gaps).into_vec();
            gaps.resize((end + need).max(2 * gaps.len()).max(8), 0);
            self.gaps = gaps.into_boxed_slice();
        }
        for &idx in run {
            if idx != self.last {
                end += put_gap(&mut self.gaps[end..], idx - self.last);
                self.last = idx;
                self.len += 1;
            }
        }
    }

    /// Length of the gap bytes: the first zero byte, found by binary
    /// search.
    fn gaps_end(&self) -> usize {
        self.gaps.partition_point(|&byte| byte != 0)
    }

    /// Appends the postings, ascending, to `out`.
    pub fn decode_into(&self, out: &mut Vec<NodeIdx>) {
        if self.len == 0 {
            return;
        }
        let base = out.len();
        out.reserve(self.len());
        // Offsets from the first posting, which is known only once the
        // gaps are summed.
        out.push(0);
        let mut offset = 0u32;
        let mut bytes = self.gaps[..self.gaps_end()].iter();
        while let Some(gap) = next_gap(&mut bytes) {
            offset += gap;
            out.push(offset);
        }
        debug_assert_eq!(out.len() - base, self.len(), "one varint per gap");
        let first = self.last - offset;
        out[base..].iter_mut().for_each(|posting| *posting += first);
    }

    /// The postings as a [`PostingList`].
    pub fn to_list(&self) -> PostingList {
        let mut items = Vec::new();
        self.decode_into(&mut items);
        PostingList { items }
    }

    /// Drops the zero tail.
    pub fn shrink_to_fit(&mut self) {
        let end = self.gaps_end();
        if end < self.gaps.len() {
            let mut gaps = std::mem::take(&mut self.gaps).into_vec();
            gaps.truncate(end);
            self.gaps = gaps.into_boxed_slice();
        }
    }

    /// Heap bytes held: the gap buffer, zero tail included.
    pub fn size_bytes(&self) -> usize {
        self.gaps.len()
    }
}

/// Reads the next LEB128 varint gap off `bytes` (`None` at the end).
#[inline]
fn next_gap(bytes: &mut std::slice::Iter<'_, u8>) -> Option<u32> {
    let (mut gap, mut shift) = (0u32, 0u32);
    for &byte in bytes {
        gap |= u32::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return Some(gap);
        }
        shift += 7;
    }
    None
}

/// Writes `gap` as a LEB128 varint at the front of `buf`; returns its
/// length.
fn put_gap(buf: &mut [u8], mut gap: u32) -> usize {
    let mut n = 0;
    while gap >= 0x80 {
        buf[n] = gap as u8 | 0x80;
        gap >>= 7;
        n += 1;
    }
    buf[n] = gap as u8;
    n + 1
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
        assert!(PostingList::union_all(vec![]).is_empty());
    }

    fn packed(runs: &[&[u32]]) -> PackedPostings {
        let mut list = PackedPostings::new();
        runs.iter().for_each(|run| list.extend_sorted(run));
        list
    }

    #[test]
    fn packed_appends_gaps_and_keeps_one_posting_off_the_heap() {
        let one = packed(&[&[7, 7]]);
        assert_eq!((one.len(), one.size_bytes()), (1, 0));
        assert_eq!(one.to_list().as_slice(), &[7]);
        // Gaps of 1, 127, 128 and 2^21: 1 + 1 + 2 + 4 varint bytes.
        let mut list = packed(&[&[3, 4, 4], &[131, 259], &[259 + (1 << 21)]]);
        list.shrink_to_fit();
        assert_eq!(list.size_bytes(), 8);
        assert_eq!(list.to_list().as_slice(), &[3, 4, 131, 259, 259 + (1 << 21)]);
    }

    #[test]
    fn packed_merges_a_run_that_lands_before_the_tail() {
        let list = packed(&[&[10, 20, 30], &[5, 20, 25, 40]]);
        assert_eq!(list.len(), 6);
        assert_eq!(list.to_list().as_slice(), &[5, 10, 20, 25, 30, 40]);
        // A run landing mid-list re-appends only the tail after its head,
        // leaving the same bytes as the list built in order.
        let mut mid = packed(&[&[1, 200, 40_000, 40_001], &[300, 40_000]]);
        let mut fresh = packed(&[&[1, 200, 300, 40_000, 40_001]]);
        mid.shrink_to_fit();
        fresh.shrink_to_fit();
        assert_eq!(mid.to_list(), fresh.to_list());
        assert_eq!(mid.gaps, fresh.gaps);
        let edges = packed(&[&[u32::MAX], &[0, 0, u32::MAX]]);
        assert_eq!(edges.to_list().as_slice(), &[0, u32::MAX]);
        // Decoding appends after what `out` already holds.
        let mut out = vec![99];
        edges.decode_into(&mut out);
        assert_eq!(out, [99, 0, u32::MAX]);
    }
}
