//! A minimal bitset over dense node indexes: fixed-capacity for
//! reachability closures, growable for per-node flags.

/// A bitset over dense node indexes `0..capacity`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// All-zero set of the given capacity.
    pub fn new(capacity: usize) -> Self {
        BitSet { words: vec![0; capacity.div_ceil(64)], capacity }
    }

    /// Sets bit `i`. Panics when out of range (programmer error: indexes
    /// come from the same arena that sized the set).
    pub fn insert(&mut self, i: u32) {
        let i = i as usize;
        assert!(i < self.capacity, "bit {i} out of capacity {}", self.capacity);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Sets bit `i`, growing the capacity to cover it (for flags over
    /// an arena that keeps interning nodes).
    pub fn insert_growing(&mut self, i: u32) {
        let i = i as usize;
        if i >= self.capacity {
            self.capacity = i + 1;
            self.words.resize(self.capacity.div_ceil(64), 0);
        }
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i` (out-of-range is a no-op).
    pub fn remove(&mut self, i: u32) {
        let i = i as usize;
        if i < self.capacity {
            self.words[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Tests bit `i` (out-of-range reads are simply false).
    pub fn contains(&self, i: u32) -> bool {
        let i = i as usize;
        i < self.capacity && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// `self |= other` (capacities must match).
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let tz = bits.trailing_zeros();
                bits &= bits - 1;
                Some(wi as u32 * 64 + tz)
            })
        })
    }

    /// Set bits as a sorted vector.
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }

    /// Heap bytes used by the word array.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growable_insert_and_remove() {
        let mut b = BitSet::default();
        assert!(!b.contains(5));
        b.remove(5); // out of range: a no-op
        for i in [5u32, 64, 300] {
            b.insert_growing(i);
        }
        assert_eq!(b.to_vec(), vec![5, 64, 300]);
        b.remove(64);
        b.insert_growing(5);
        assert_eq!(b.to_vec(), vec![5, 300]);
        assert_eq!(b.count(), 2);
        assert!(b.contains(300) && !b.contains(301));
    }

    #[test]
    fn insert_contains_iter() {
        let mut b = BitSet::new(200);
        for i in [0u32, 63, 64, 65, 130, 199] {
            b.insert(i);
        }
        assert_eq!(b.to_vec(), vec![0, 63, 64, 65, 130, 199]);
        assert_eq!(b.count(), 6);
        assert!(b.contains(63));
        assert!(!b.contains(62));
        assert!(!b.contains(10_000), "out of range reads are false");
    }

    #[test]
    fn union_accumulates() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(1);
        b.insert(64);
        a.union_with(&b);
        assert_eq!(a.to_vec(), vec![1, 64]);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn empty_set() {
        let b = BitSet::new(0);
        assert_eq!(b.count(), 0);
        assert_eq!(b.to_vec(), Vec::<u32>::new());
    }
}
