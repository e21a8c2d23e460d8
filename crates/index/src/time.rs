//! Time-interval index.
//!
//! Tuple sets carry `[time.start, time.end]` windows; the dominant sensor
//! query shape is "overlaps `[a, b]`" (§III: commuters query by location,
//! planners by time). Intervals are kept sorted by start with a parallel
//! prefix-maximum of ends, so an overlap query binary-searches the start
//! bound and then scans only a bounded tail.

use crate::arena::NodeIdx;
use crate::posting::PostingList;
use pass_model::TimeRange;

/// An index over closed time intervals.
#[derive(Debug, Default, Clone)]
pub struct TimeIndex {
    /// (start, end, node). The first `sorted` entries are sorted by
    /// (start, end, node); inserts since the last build follow, unsorted.
    intervals: Vec<(u64, u64, NodeIdx)>,
    /// `prefix_max_end[i]` = max end among `intervals[..=i]`, for the
    /// sorted prefix.
    prefix_max_end: Vec<u64>,
    sorted: usize,
}

impl TimeIndex {
    /// An empty index.
    pub fn new() -> Self {
        TimeIndex::default()
    }

    /// Adds an interval.
    pub fn insert(&mut self, idx: NodeIdx, range: TimeRange) {
        self.intervals.push((range.start.0, range.end.0, idx));
    }

    /// True while inserts since the last [`TimeIndex::build`] are pending.
    fn dirty(&self) -> bool {
        self.sorted < self.intervals.len()
    }

    /// Files the intervals inserted since the last build into the sorted
    /// table and extends the prefix-maximum, making queries
    /// `O(log n + answer)`. Only the `k` new intervals are sorted; they
    /// are merged in from the first position they displace, and the
    /// prefix maximum is recomputed from there. New intervals that all
    /// sort after the table, the usual case for sensor time, cost
    /// `O(k log k)` and move nothing. The batched ingest path calls this
    /// once per committed batch, so shared (snapshot) readers never need
    /// a write lock; an unbuilt index still answers queries via a linear
    /// scan.
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
        self.prefix_max_end.truncate(from);
        self.prefix_max_end.reserve(n - from);
        let mut max_end = self.prefix_max_end.last().copied().unwrap_or(0);
        for &(_, end, _) in &self.intervals[from..] {
            max_end = max_end.max(end);
            self.prefix_max_end.push(max_end);
        }
        self.sorted = self.intervals.len();
    }

    /// Nodes whose interval overlaps `query` (closed-interval semantics).
    ///
    /// Lock-free: when the index has pending unsorted inserts (no
    /// [`TimeIndex::build`] since), this falls back to a full scan rather
    /// than mutating shared state.
    pub fn overlapping(&self, query: TimeRange) -> PostingList {
        if self.dirty() {
            return PostingList::from_iter(
                self.intervals
                    .iter()
                    .filter(|&&(start, end, _)| start <= query.end.0 && end >= query.start.0)
                    .map(|&(_, _, node)| node),
            );
        }
        // Candidates must have start <= query.end.
        let upper = self.intervals.partition_point(|&(start, _, _)| start <= query.end.0);
        // Walk backwards; once the prefix max end drops below query.start,
        // nothing earlier can overlap.
        let mut out = Vec::new();
        for i in (0..upper).rev() {
            if self.prefix_max_end[i] < query.start.0 {
                break;
            }
            let (_, end, node) = self.intervals[i];
            if end >= query.start.0 {
                out.push(node);
            }
        }
        PostingList::from_iter(out)
    }

    /// Nodes whose interval lies entirely within `query` (same laziness
    /// contract as [`TimeIndex::overlapping`]).
    pub fn covered_by(&self, query: TimeRange) -> PostingList {
        if self.dirty() {
            return PostingList::from_iter(
                self.intervals
                    .iter()
                    .filter(|&&(start, end, _)| start >= query.start.0 && end <= query.end.0)
                    .map(|&(_, _, node)| node),
            );
        }
        let lower = self.intervals.partition_point(|&(start, _, _)| start < query.start.0);
        let upper = self.intervals.partition_point(|&(start, _, _)| start <= query.end.0);
        PostingList::from_iter(
            self.intervals[lower..upper]
                .iter()
                .filter(|&&(_, end, _)| end <= query.end.0)
                .map(|&(_, _, node)| node),
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

    /// Rough heap footprint.
    pub fn size_bytes(&self) -> usize {
        self.intervals.capacity() * std::mem::size_of::<(u64, u64, NodeIdx)>()
            + self.prefix_max_end.capacity() * 8
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
    fn instant_intervals() {
        let mut ix = TimeIndex::new();
        ix.insert(0, range(5, 5));
        assert_eq!(ix.overlapping(range(5, 5)).as_slice(), &[0]);
        assert!(ix.overlapping(range(4, 4)).is_empty());
        assert!(ix.overlapping(range(6, 6)).is_empty());
    }
}
