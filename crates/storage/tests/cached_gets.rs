//! Cost gate for block reads per cached point `get`: once a table's
//! blocks are in the block cache, a point `get` reads no block, and a
//! `get` of an absent key reads a block only when the table's bloom
//! filter answers a false "maybe".
//!
//! One flushed table, smaller than each shard of the cache, is read
//! through a freshly opened engine, and the cache's hit and miss
//! counters ([`EngineStats`]) count block lookups: a miss is a block read
//! from the file. N gets of absent keys come first, on the cold cache, so
//! each miss they add is a bloom false positive; then a warm-up pass over
//! the present keys, then a second pass that must add exactly N hits and
//! no miss. The figures depend on the table format and the bloom filter
//! only, not on host speed.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code asserts by panicking

use pass_storage::tempdir::TempDir;
use pass_storage::{EngineOptions, EngineStats, KvStore, LsmEngine, WriteBatch};

/// Present keys, and as many absent ones between them.
const N: u64 = 4_000;
/// Block cache size: each of its 16 shards holds the whole table.
const CACHE_BYTES: usize = 64 << 20;
/// Allowed block reads per `get` of an absent key (the bloom filter's
/// false-positive rate, about 1 % at 10 bits a key).
const MAX_ABSENT_MISS_RATE: f64 = 0.02;

/// Key `i`: even `i` are stored, odd ones are absent but fall inside
/// the table's key range.
fn key(i: u64) -> Vec<u8> {
    format!("key-{i:08}").into_bytes()
}

fn counts(db: &LsmEngine) -> (u64, u64) {
    let EngineStats { cache_hits, cache_misses, .. } = db.stats();
    (cache_hits, cache_misses)
}

/// Runs `get` over `keys` and returns the hits and misses it added.
fn pass(db: &LsmEngine, keys: impl Iterator<Item = u64>, present: bool) -> (u64, u64) {
    let (hits, misses) = counts(db);
    for i in keys {
        assert_eq!(db.get(&key(i)).unwrap().is_some(), present, "key {i}");
    }
    let (after_hits, after_misses) = counts(db);
    (after_hits - hits, after_misses - misses)
}

#[test]
fn a_cached_get_reads_no_block() {
    let dir = TempDir::new("cached-gets");
    {
        let db = LsmEngine::open(dir.path(), EngineOptions::default()).unwrap();
        let mut batch = WriteBatch::new();
        for i in 0..N {
            batch.put(key(2 * i), vec![i as u8; 64]);
        }
        db.apply(batch).unwrap();
        db.force_flush().unwrap();
    }
    let opts = EngineOptions::default().with_cache_bytes(CACHE_BYTES);
    let db = LsmEngine::open(dir.path(), opts).unwrap();
    let stats = db.stats();
    assert_eq!((stats.num_tables, stats.memtable_entries), (1, 0));
    assert!(stats.live_table_bytes < (CACHE_BYTES / 16) as u64, "the table fits a cache shard");

    let (_, absent_misses) = pass(&db, (0..N).map(|i| 2 * i + 1), false);
    let warm_up = pass(&db, (0..N).map(|i| 2 * i), true);
    let (hits, misses) = pass(&db, (0..N).map(|i| 2 * i), true);
    eprintln!(
        "{N} absent gets: {absent_misses} block reads; warm-up {warm_up:?} (hits, misses); \
         cached pass: {hits} hits, {misses} misses"
    );
    assert_eq!((hits, misses), (N, 0), "a cached get reads no block");
    assert!(
        absent_misses as f64 <= MAX_ABSENT_MISS_RATE * N as f64,
        "{absent_misses} block reads for {N} absent keys"
    );
}
