//! Sharded CLOCK cache over decoded SSTable data blocks.
//!
//! Point reads touch exactly one block, but under sustained ingest the
//! same hot blocks are re-read, re-CRC'd, and re-decoded on every
//! lookup. The cache keeps *decoded* entry runs (`Arc<Vec<Entry>>`) so
//! a hit skips the seek, the checksum, and the parse.
//!
//! Design:
//!
//! * **Keying** — `(table cache id, block index)`. The table component
//!   is a process-global counter stamped at `SsTable::open`, *not* the
//!   file id: one cache is shared across every shard engine of a
//!   [`crate::ShardedStore`], and different shards reuse file ids.
//!   A fresh id per open also means a re-opened (rewritten) file can
//!   never alias stale cached blocks.
//! * **Sharding** — the key hash picks one of N independently locked
//!   shards, so concurrent readers on different blocks don't serialize
//!   on a single LRU lock.
//! * **Eviction** — CLOCK (second chance): a hit sets a reference bit,
//!   the sweep hand clears bits and evicts the first unreferenced slot.
//!   Fresh inserts start unreferenced, so blocks read exactly once are
//!   reclaimed before anything re-touched. Approximates LRU without
//!   per-hit list surgery.
//! * **Capacity** — bytes of decoded entries (keys + values + fixed
//!   per-entry overhead), split evenly across shards. An over-sized
//!   block bypasses the cache rather than flushing it.
//!
//! Hit/miss/eviction counters are lock-free and surfaced through
//! [`crate::EngineStats`].

use crate::sstable::Entry;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fixed accounting overhead per cached entry (vec headers, tag).
const ENTRY_OVERHEAD: usize = 32;

/// Hands out process-unique table ids for cache keying.
static NEXT_TABLE_ID: AtomicU64 = AtomicU64::new(1);

/// Returns a fresh process-unique cache id for an opened table.
pub(crate) fn next_table_id() -> u64 {
    NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Cache key: (per-open table id, block index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BlockKey {
    table: u64,
    block: u32,
}

struct Slot {
    key: BlockKey,
    value: Arc<Vec<Entry>>,
    bytes: usize,
    referenced: bool,
}

#[derive(Default)]
struct Shard {
    map: HashMap<BlockKey, usize>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    hand: usize,
    bytes: usize,
}

impl Shard {
    fn get(&mut self, key: &BlockKey) -> Option<Arc<Vec<Entry>>> {
        let i = *self.map.get(key)?;
        let slot = self.slots.get_mut(i)?.as_mut()?;
        slot.referenced = true;
        Some(Arc::clone(&slot.value))
    }

    /// CLOCK sweep: clears reference bits until an unreferenced slot
    /// falls out. Bounded at two laps, which guarantees an eviction
    /// whenever any slot is occupied.
    fn evict_one(&mut self) -> bool {
        let n = self.slots.len();
        if n == 0 || self.map.is_empty() {
            return false;
        }
        for _ in 0..2 * n {
            let i = self.hand;
            self.hand = (self.hand + 1) % n;
            let Some(occupied) = self.slots.get_mut(i) else { continue };
            let Some(slot) = occupied.as_mut() else { continue };
            if slot.referenced {
                slot.referenced = false;
                continue;
            }
            if let Some(slot) = occupied.take() {
                self.map.remove(&slot.key);
                self.bytes -= slot.bytes;
                self.free.push(i);
                return true;
            }
        }
        false
    }

    fn insert(
        &mut self,
        key: BlockKey,
        value: Arc<Vec<Entry>>,
        bytes: usize,
        capacity: usize,
    ) -> u64 {
        if self.map.contains_key(&key) {
            return 0; // racing reader already filled it
        }
        let mut evicted = 0u64;
        while self.bytes + bytes > capacity {
            if !self.evict_one() {
                break;
            }
            evicted += 1;
        }
        // Fresh blocks start unreferenced: only a re-touch earns the
        // second chance, so a burst of one-off reads can't flush the hot set.
        let slot = Slot { key, value, bytes, referenced: false };
        let i = match self.free.pop() {
            Some(i) => {
                if let Some(cell) = self.slots.get_mut(i) {
                    *cell = Some(slot);
                }
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.bytes += bytes;
        evicted
    }
}

/// A sharded block cache shared by one or more [`crate::LsmEngine`]s.
///
/// Construct once, clone the [`Arc`] into
/// [`crate::EngineOptions::cache`] for every engine that should share
/// it.
pub struct BlockCache {
    shards: Box<[Mutex<Shard>]>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("BlockCache")
            .field("capacity_bytes", &(self.shard_capacity * self.shards.len()))
            .field("shards", &self.shards.len())
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to the file.
    pub misses: u64,
    /// Blocks evicted by the CLOCK sweep.
    pub evictions: u64,
    /// Decoded bytes currently resident.
    pub cached_bytes: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; 0 when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl BlockCache {
    /// A cache holding ~`capacity_bytes` of decoded blocks across 16
    /// shards.
    pub fn new(capacity_bytes: usize) -> Self {
        Self::with_shards(capacity_bytes, 16)
    }

    /// A cache with an explicit shard count (power of two recommended).
    pub fn with_shards(capacity_bytes: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let shard_capacity = (capacity_bytes / shards).max(1);
        let shards = (0..shards).map(|_| Mutex::new(Shard::default())).collect();
        BlockCache {
            shards,
            shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The shard holding `key`; `None` only if the shard set were empty,
    /// which the constructors rule out.
    fn shard(&self, key: &BlockKey) -> Option<&Mutex<Shard>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        let i = (h.finish() as usize) % self.shards.len().max(1);
        self.shards.get(i).or_else(|| self.shards.first())
    }

    /// Looks up a decoded block, counting the hit or miss.
    pub(crate) fn get(&self, table: u64, block: u32) -> Option<Arc<Vec<Entry>>> {
        let key = BlockKey { table, block };
        let got = self.shard(&key)?.lock().get(&key);
        match &got {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Inserts a freshly decoded block (no-op when it alone exceeds a
    /// shard's capacity).
    pub(crate) fn insert(&self, table: u64, block: u32, value: Arc<Vec<Entry>>) {
        let bytes = entries_bytes(&value);
        if bytes > self.shard_capacity {
            return;
        }
        let key = BlockKey { table, block };
        let Some(shard) = self.shard(&key) else { return };
        let evicted = shard.lock().insert(key, value, bytes, self.shard_capacity);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let cached_bytes = self.shards.iter().map(|s| s.lock().bytes as u64).sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            cached_bytes,
        }
    }
}

/// Accounted size of a decoded block.
fn entries_bytes(entries: &[Entry]) -> usize {
    entries.iter().map(|(k, v)| k.len() + v.as_ref().map_or(0, Vec::len) + ENTRY_OVERHEAD).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(tag: u8, n: usize) -> Arc<Vec<Entry>> {
        Arc::new((0..n).map(|i| (vec![tag, i as u8], Some(vec![0u8; 100]))).collect())
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = BlockCache::new(1 << 20);
        assert!(cache.get(1, 0).is_none());
        cache.insert(1, 0, block(1, 4));
        let got = cache.get(1, 0).expect("cached");
        assert_eq!(got.len(), 4);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(s.cached_bytes > 0);
    }

    #[test]
    fn distinct_tables_do_not_alias() {
        let cache = BlockCache::new(1 << 20);
        cache.insert(1, 0, block(1, 1));
        cache.insert(2, 0, block(2, 2));
        assert_eq!(cache.get(1, 0).unwrap().len(), 1);
        assert_eq!(cache.get(2, 0).unwrap().len(), 2);
    }

    #[test]
    fn capacity_bounds_resident_bytes() {
        // One shard so the capacity math is exact.
        let cache = BlockCache::with_shards(4_000, 1);
        for b in 0..100u32 {
            cache.insert(7, b, block(7, 4));
        }
        let s = cache.stats();
        assert!(s.cached_bytes <= 4_000, "resident {} bytes", s.cached_bytes);
        assert!(s.evictions > 0, "sweep ran");
    }

    #[test]
    fn hot_block_survives_the_sweep() {
        let cache = BlockCache::with_shards(4_000, 1);
        cache.insert(7, 0, block(7, 1));
        for b in 1..50u32 {
            // Keep touching block 0 while colder blocks churn through.
            cache.insert(7, b, block(7, 4));
            let _ = cache.get(7, 0);
        }
        assert!(cache.get(7, 0).is_some(), "referenced block kept its second chance");
    }

    #[test]
    fn oversized_block_bypasses() {
        let cache = BlockCache::with_shards(100, 1);
        cache.insert(1, 0, block(1, 10));
        assert!(cache.get(1, 0).is_none());
    }

    #[test]
    fn table_ids_are_unique() {
        let a = next_table_id();
        let b = next_table_id();
        assert_ne!(a, b);
    }
}
