//! Time-interval index.
//!
//! Tuple sets carry `[time.start, time.end]` windows; the dominant sensor
//! query shape is "overlaps `[a, b]`" (§III: commuters query by location,
//! planners by time). Intervals are kept sorted by start, each in 20
//! unpadded bytes, with a prefix maximum of ends kept once per block of
//! [`BLOCK`] intervals, so an overlap query binary-searches the start
//! bound and then scans back only until a block's prefix maximum falls
//! below the query's start.

use crate::arena::NodeIdx;
use crate::posting::PostingList;
use pass_model::TimeRange;

/// Intervals per prefix-maximum entry.
pub const BLOCK: usize = 64;

/// One indexed interval, `(start, end, node)`, as five `u32` words: no
/// padding, and the derived order (field by field, high words first) is
/// the order of `(start, end, node)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    start_hi: u32,
    start_lo: u32,
    end_hi: u32,
    end_lo: u32,
    node: NodeIdx,
}

impl Entry {
    fn new(start: u64, end: u64, node: NodeIdx) -> Self {
        let (start_hi, start_lo) = ((start >> 32) as u32, start as u32);
        let (end_hi, end_lo) = ((end >> 32) as u32, end as u32);
        Entry { start_hi, start_lo, end_hi, end_lo, node }
    }

    fn start(&self) -> u64 {
        u64::from(self.start_hi) << 32 | u64::from(self.start_lo)
    }

    fn end(&self) -> u64 {
        u64::from(self.end_hi) << 32 | u64::from(self.end_lo)
    }
}

/// An index over closed time intervals.
#[derive(Debug, Default, Clone)]
pub struct TimeIndex {
    /// The first `sorted` entries are sorted by (start, end, node);
    /// inserts since the last build follow, unsorted.
    intervals: Vec<Entry>,
    /// `block_max_end[b]` = max end among `intervals[..(b + 1) * BLOCK]`
    /// (the whole sorted prefix for its last, partial block).
    block_max_end: Vec<u64>,
    sorted: usize,
}

impl TimeIndex {
    /// An empty index.
    pub fn new() -> Self {
        TimeIndex::default()
    }

    /// Adds an interval.
    pub fn insert(&mut self, idx: NodeIdx, range: TimeRange) {
        self.intervals.push(Entry::new(range.start.0, range.end.0, idx));
    }

    /// True while inserts since the last [`TimeIndex::build`] are pending.
    fn dirty(&self) -> bool {
        self.sorted < self.intervals.len()
    }

    /// Files the intervals inserted since the last build into the sorted
    /// table and extends the block prefix maxima, making queries
    /// `O(log n + answer + BLOCK)`. Only the `k` new intervals are
    /// sorted; they are merged in from the first position they displace,
    /// and the prefix maxima are recomputed from that position's block.
    /// New intervals that all sort after the table, the usual case for
    /// sensor time, cost `O(k log k + BLOCK)` and move nothing. The
    /// batched ingest path calls this once per committed batch, so shared
    /// (snapshot) readers never need a write lock; an unbuilt index still
    /// answers queries via a linear scan.
    pub fn build(&mut self) {
        if !self.dirty() {
            return;
        }
        let (sorted, n) = (self.sorted, self.intervals.len());
        self.intervals[sorted..].sort_unstable();
        let first_new = self.intervals[sorted];
        // The first sorted position the new intervals displace.
        let from = self.intervals[..sorted].partition_point(|&iv| iv <= first_new);
        if from < sorted {
            // Merge the displaced run back in front of the new one; the
            // write position never overtakes the new run's read position.
            let displaced = self.intervals[from..sorted].to_vec();
            let (mut next_new, mut write) = (sorted, from);
            for old in displaced {
                while next_new < n && self.intervals[next_new] < old {
                    self.intervals[write] = self.intervals[next_new];
                    next_new += 1;
                    write += 1;
                }
                self.intervals[write] = old;
                write += 1;
            }
        }
        let first_block = from / BLOCK;
        self.block_max_end.truncate(first_block);
        self.block_max_end.reserve(n.div_ceil(BLOCK) - first_block);
        let mut max_end = self.block_max_end.last().copied().unwrap_or(0);
        for block in self.intervals[first_block * BLOCK..].chunks(BLOCK) {
            max_end = block.iter().map(Entry::end).fold(max_end, u64::max);
            self.block_max_end.push(max_end);
        }
        self.sorted = n;
    }

    /// Nodes whose interval overlaps `query` (closed-interval semantics).
    ///
    /// Lock-free: when the index has pending unsorted inserts (no
    /// [`TimeIndex::build`] since), this falls back to a full scan rather
    /// than mutating shared state.
    pub fn overlapping(&self, query: TimeRange) -> PostingList {
        let (start, end) = (query.start.0, query.end.0);
        if self.dirty() {
            return PostingList::from_iter(
                self.intervals
                    .iter()
                    .filter(|iv| iv.start() <= end && iv.end() >= start)
                    .map(|iv| iv.node),
            );
        }
        // Candidates must have start <= query.end.
        let upper = self.intervals.partition_point(|iv| iv.start() <= end);
        // Walk back a block at a time; once a block's prefix maximum end
        // drops below query.start, nothing in it or before it can overlap.
        let mut out = Vec::new();
        for block in (0..upper.div_ceil(BLOCK)).rev() {
            if self.block_max_end[block] < start {
                break;
            }
            let from = block * BLOCK;
            let to = upper.min(from + BLOCK);
            out.extend(
                self.intervals[from..to].iter().filter(|iv| iv.end() >= start).map(|iv| iv.node),
            );
        }
        PostingList::from_unsorted(out)
    }

    /// Nodes whose interval lies entirely within `query` (same laziness
    /// contract as [`TimeIndex::overlapping`]).
    pub fn covered_by(&self, query: TimeRange) -> PostingList {
        let (start, end) = (query.start.0, query.end.0);
        if self.dirty() {
            return PostingList::from_iter(
                self.intervals
                    .iter()
                    .filter(|iv| iv.start() >= start && iv.end() <= end)
                    .map(|iv| iv.node),
            );
        }
        let lower = self.intervals.partition_point(|iv| iv.start() < start);
        let upper = self.intervals.partition_point(|iv| iv.start() <= end);
        PostingList::from_iter(
            self.intervals[lower..upper].iter().filter(|iv| iv.end() <= end).map(|iv| iv.node),
        )
    }

    /// Number of indexed intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Drops spare capacity (after a bulk load).
    pub fn shrink_to_fit(&mut self) {
        self.intervals.shrink_to_fit();
        self.block_max_end.shrink_to_fit();
    }

    /// Heap bytes held: 20 per interval and 8 per block, plus growth
    /// slack until [`TimeIndex::shrink_to_fit`].
    pub fn size_bytes(&self) -> usize {
        self.intervals.capacity() * std::mem::size_of::<Entry>()
            + self.block_max_end.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_model::Timestamp;

    fn range(a: u64, b: u64) -> TimeRange {
        TimeRange::new(Timestamp(a), Timestamp(b))
    }

    fn sample() -> TimeIndex {
        let mut ix = TimeIndex::new();
        ix.insert(0, range(0, 10));
        ix.insert(1, range(5, 15));
        ix.insert(2, range(20, 30));
        ix.insert(3, range(0, 100)); // long interval spanning everything
        ix
    }

    #[test]
    fn overlap_queries() {
        let ix = sample();
        assert_eq!(ix.overlapping(range(12, 18)).as_slice(), &[1, 3]);
        assert_eq!(ix.overlapping(range(10, 10)).as_slice(), &[0, 1, 3]);
        assert_eq!(ix.overlapping(range(16, 19)).as_slice(), &[3]);
        assert_eq!(ix.overlapping(range(0, 100)).len(), 4);
        assert!(ix.overlapping(range(101, 200)).as_slice() == &[] as &[u32]);
    }

    #[test]
    fn long_interval_found_despite_early_start() {
        // The prefix-max walk must not stop early and miss node 3.
        let mut ix = TimeIndex::new();
        ix.insert(0, range(0, 1000));
        for i in 1..100u32 {
            ix.insert(i, range(u64::from(i) * 2, u64::from(i) * 2 + 1));
        }
        let got = ix.overlapping(range(500, 501));
        assert!(got.contains(0), "long early interval must be found");
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn covered_by_requires_full_containment() {
        let ix = sample();
        assert_eq!(ix.covered_by(range(0, 15)).as_slice(), &[0, 1]);
        assert_eq!(ix.covered_by(range(0, 100)).len(), 4);
        assert!(ix.covered_by(range(6, 9)).is_empty());
    }

    #[test]
    fn inserts_after_query_are_visible() {
        let mut ix = sample();
        assert_eq!(ix.overlapping(range(50, 60)).as_slice(), &[3]);
        ix.insert(9, range(55, 56));
        assert_eq!(ix.overlapping(range(50, 60)).as_slice(), &[3, 9]);
    }

    #[test]
    fn entries_are_twenty_bytes_and_blocks_bound_the_walk() {
        assert_eq!(std::mem::size_of::<Entry>(), 20);
        let mut ix = TimeIndex::new();
        let big = 1u64 << 40;
        // A long early interval, then three blocks' worth of short ones.
        ix.insert(0, range(big, big + 10_000));
        for i in 1..(3 * BLOCK as u32) {
            let start = big + 20 * u64::from(i);
            ix.insert(i, range(start, start + 5));
        }
        ix.build();
        ix.shrink_to_fit();
        assert_eq!(ix.size_bytes(), 20 * 3 * BLOCK + 8 * 3);
        let got = ix.overlapping(range(big + 2_000, big + 2_003));
        assert_eq!(got.as_slice(), &[0, 100]);
        assert!(ix.overlapping(range(big - 10, big - 1)).is_empty());
        assert_eq!(ix.covered_by(range(big + 20, big + 45)).as_slice(), &[1, 2]);
    }

    #[test]
    fn instant_intervals() {
        let mut ix = TimeIndex::new();
        ix.insert(0, range(5, 5));
        assert_eq!(ix.overlapping(range(5, 5)).as_slice(), &[0]);
        assert!(ix.overlapping(range(4, 4)).is_empty());
        assert!(ix.overlapping(range(6, 6)).is_empty());
    }
}
