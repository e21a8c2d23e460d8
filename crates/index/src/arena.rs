//! Dense node-id arena.
//!
//! Posting lists and reachability bitsets want small dense integers, not
//! 128-bit identity hashes. The arena maintains the bijection: a column
//! of identities in index order, and an open-addressing table of `u32`
//! slots into that column (linear probing, a power-of-two capacity, load
//! at most ½). An id costs its 16 bytes plus 8–16 bytes of table, with no
//! heap object of its own.
//!
//! Parent ids arrive unchecked from publishers, so slots are placed by a
//! hash keyed per arena ([`RandomState`], as `HashMap` does): ids chosen
//! to collide under a fixed hash would otherwise share one probe run
//! and make every intern and lookup linear in their number.

use pass_model::TupleSetId;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// A dense index assigned to a [`TupleSetId`]; valid only within the arena
/// that issued it.
pub type NodeIdx = u32;

/// An unused slot (and so the one index the arena never issues).
const EMPTY: u32 = u32::MAX;

/// Smallest slot table the arena allocates.
const MIN_SLOTS: usize = 8;

/// Bijective map between tuple-set identities and dense indexes.
#[derive(Debug, Default, Clone)]
pub struct IdArena {
    /// `EMPTY`, or the index in `to_id` of an id whose probe sequence
    /// passes through this slot.
    slots: Vec<u32>,
    to_id: Vec<TupleSetId>,
    /// The arena's hash key; clones share it, so their slots stay valid.
    hasher: RandomState,
}

impl IdArena {
    /// An empty arena.
    pub fn new() -> Self {
        IdArena::default()
    }

    /// Makes room for `additional` more ids without rehashing.
    pub fn reserve(&mut self, additional: usize) {
        self.fit_slots(self.to_id.len() + additional);
        self.to_id.reserve(additional);
    }

    /// The home slot of `id` in a table of `slots.len() == mask + 1`
    /// slots.
    fn home(&self, id: TupleSetId, mask: usize) -> usize {
        self.hasher.hash_one(id) as usize & mask
    }

    /// Grows the slot table, if need be, to hold `len` ids at load ≤ ½.
    fn fit_slots(&mut self, len: usize) {
        let wanted = len * 2;
        if wanted <= self.slots.len() {
            return;
        }
        self.slots = vec![EMPTY; wanted.next_power_of_two().max(MIN_SLOTS)];
        for (idx, &id) in self.to_id.iter().enumerate() {
            let Err(slot) = self.probe(id) else { unreachable!("arena ids are distinct") };
            self.slots[slot] = idx as u32;
        }
    }

    /// `Ok(index)` of `id`, or `Err(slot)`: the empty slot that ends its
    /// probe sequence. The table must be non-empty.
    fn probe(&self, id: TupleSetId) -> Result<NodeIdx, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(id, mask);
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                idx if self.to_id[idx as usize] == id => return Ok(idx),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Returns the dense index for `id`, assigning the next free one on
    /// first sight.
    pub fn intern(&mut self, id: TupleSetId) -> NodeIdx {
        self.fit_slots(self.to_id.len() + 1);
        match self.probe(id) {
            Ok(idx) => idx,
            Err(slot) => {
                let idx = u32::try_from(self.to_id.len())
                    .ok()
                    .filter(|&idx| idx != EMPTY)
                    .expect("arena holds < 2^32 - 1 nodes");
                self.slots[slot] = idx;
                self.to_id.push(id);
                idx
            }
        }
    }

    /// Dense index for an id already interned, if any.
    pub fn lookup(&self, id: TupleSetId) -> Option<NodeIdx> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(id).ok()
    }

    /// The identity behind a dense index.
    pub fn resolve(&self, idx: NodeIdx) -> Option<TupleSetId> {
        self.to_id.get(idx as usize).copied()
    }

    /// Number of interned ids.
    pub fn len(&self) -> usize {
        self.to_id.len()
    }

    /// True when nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.to_id.is_empty()
    }

    /// Maps a batch of dense indexes back to identities, skipping any that
    /// are unknown (defensive; should not happen for arena-issued indexes).
    pub fn resolve_all(&self, idxs: &[NodeIdx]) -> Vec<TupleSetId> {
        idxs.iter().filter_map(|&i| self.resolve(i)).collect()
    }

    /// Drops the id column's spare capacity (the slot table keeps its
    /// power-of-two size).
    pub fn shrink_to_fit(&mut self) {
        self.to_id.shrink_to_fit();
    }

    /// Heap bytes held, by capacity: the id column and the slot table.
    pub fn size_bytes(&self) -> usize {
        self.to_id.capacity() * std::mem::size_of::<TupleSetId>()
            + self.slots.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut arena = IdArena::new();
        let a = arena.intern(TupleSetId(100));
        let b = arena.intern(TupleSetId(200));
        let a2 = arena.intern(TupleSetId(100));
        assert_eq!(a, a2);
        assert_eq!((a, b), (0, 1));
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn lookup_and_resolve_round_trip() {
        let mut arena = IdArena::new();
        assert_eq!(arena.lookup(TupleSetId(42)), None);
        let idx = arena.intern(TupleSetId(42));
        assert_eq!(arena.lookup(TupleSetId(42)), Some(idx));
        assert_eq!(arena.resolve(idx), Some(TupleSetId(42)));
        assert_eq!(arena.lookup(TupleSetId(43)), None);
        assert_eq!(arena.resolve(999), None);
    }

    #[test]
    fn resolve_all_skips_unknown() {
        let mut arena = IdArena::new();
        arena.intern(TupleSetId(1));
        assert_eq!(arena.resolve_all(&[0, 7]), vec![TupleSetId(1)]);
    }

    #[test]
    fn table_agrees_with_a_hash_map_across_rehashes() {
        // Sequential ids, ids differing only in the high half, and ids
        // whose two halves are equal.
        let ids: Vec<TupleSetId> = (0..300u128)
            .flat_map(|i| [TupleSetId(i), TupleSetId(i << 64), TupleSetId((i << 64) | i)])
            .collect();
        let mut arena = IdArena::new();
        let mut oracle: HashMap<TupleSetId, NodeIdx> = HashMap::new();
        for (n, &id) in ids.iter().chain(ids.iter().step_by(7)).enumerate() {
            let next = oracle.len() as NodeIdx;
            let want = *oracle.entry(id).or_insert(next);
            assert_eq!(arena.intern(id), want, "intern #{n}");
            assert!(arena.slots.len() >= 2 * arena.len(), "load stays at most one half");
            assert!(arena.slots.len().is_power_of_two());
        }
        assert_eq!(arena.len(), oracle.len());
        for (&id, &idx) in &oracle {
            assert_eq!(arena.lookup(id), Some(idx));
            assert_eq!(arena.resolve(idx), Some(id));
        }
        assert_eq!(arena.lookup(TupleSetId(u128::MAX)), None);
    }

    #[test]
    fn ids_with_equal_folded_halves_spread_over_the_table() {
        // Every id has `lo ^ hi == 0`: under a fixed hash of the folded
        // id they would all share one home slot and one probe run.
        let mut arena = IdArena::new();
        for i in 1..=3000u128 {
            arena.intern(TupleSetId((i << 64) | i));
        }
        let mask = arena.slots.len() - 1;
        let displacement = |idx: usize| {
            let home = arena.home(arena.to_id[idx], mask);
            (0..=mask).find(|d| arena.slots[(home + d) & mask] == idx as u32).unwrap()
        };
        let displacements: Vec<usize> = (0..arena.len()).map(displacement).collect();
        let max = displacements.iter().max().copied().unwrap();
        let total: usize = displacements.iter().sum();
        // At load ≈ 0.37 a run of 64 is rarer than 1e-10 per id.
        assert!(max <= 64, "longest probe {max}");
        assert!(total <= 2 * arena.len(), "{total} probes past home for {} ids", arena.len());
    }

    #[test]
    fn reserve_sizes_the_table_once() {
        let mut arena = IdArena::new();
        arena.reserve(1000);
        let slots = arena.slots.len();
        let ids = arena.to_id.capacity();
        assert_eq!(slots, 2048);
        for i in 0..1000u128 {
            arena.intern(TupleSetId(i * 0x1_0000_0001));
        }
        assert_eq!((arena.slots.len(), arena.to_id.capacity()), (slots, ids));
        assert_eq!(arena.size_bytes(), 2048 * 4 + ids * 16);
    }
}
