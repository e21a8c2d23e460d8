//! Cost gate for write amplification: a young store is not rewritten
//! before it holds enough tables to be worth merging.
//!
//! The load mirrors a preload of about two and an eighth memtables of
//! unique keys: two memtables flush as they fill, the tail is flushed by
//! hand, and after every flush the picker is drained the way the
//! maintenance worker drains it; a final `force_compact` leaves one
//! table. Every table file the engine writes (flush or merge output) is
//! counted once, by its size on disk, and the gate divides that sum by
//! the final table's size. Flushing each memtable once and merging
//! everything once writes about 2.0× the final bytes; a picker that also
//! fully merges the first two flushes writes about 2.9×. The figure
//! depends on the picker and the table format only, not on host speed.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code asserts by panicking

use pass_storage::tempdir::TempDir;
use pass_storage::{EngineOptions, KvStore, LsmEngine, WriteBatch};
use std::path::Path;

/// Allowed table bytes written per final table byte.
const MAX_WRITE_AMP: f64 = 2.1;
/// Memtable size of the engine under test.
const MEMTABLE_BYTES: usize = 256 << 10;

/// Sums the sizes of table files with an id above `*seen`, i.e. those
/// written since the last call, and moves `*seen` past them.
fn new_table_bytes(dir: &Path, seen: &mut u64) -> u64 {
    let mut bytes = 0;
    let mut newest = *seen;
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().into_string().unwrap();
        let Some(id) = name.strip_prefix("sst-").and_then(|n| n.strip_suffix(".sst")) else {
            continue;
        };
        let id: u64 = id.parse().unwrap();
        if id > *seen {
            bytes += entry.metadata().unwrap().len();
            newest = newest.max(id);
        }
    }
    *seen = newest;
    bytes
}

#[test]
fn a_young_store_is_written_about_twice() {
    let dir = TempDir::new("write-amp");
    let opts = EngineOptions { memtable_bytes: MEMTABLE_BYTES, ..EngineOptions::default() };
    let db = LsmEngine::open(dir.path(), opts).unwrap();
    let (mut seen, mut written) = (0u64, 0u64);
    let mut drain = |db: &LsmEngine| {
        written += new_table_bytes(dir.path(), &mut seen);
        while db.maybe_compact().unwrap() {
            written += new_table_bytes(dir.path(), &mut seen);
        }
    };

    let mut next_key = 0u64;
    let mut put_batch = |db: &LsmEngine| {
        let mut batch = WriteBatch::new();
        for _ in 0..64 {
            batch.put(format!("key-{next_key:012}").into_bytes(), vec![next_key as u8; 100]);
            next_key += 1;
        }
        db.apply(batch).unwrap();
    };
    // Two memtables, each flushed by the write that fills it.
    while db.stats().flushes < 2 {
        let before = db.stats().flushes;
        put_batch(&db);
        if db.stats().flushes > before {
            drain(&db);
        }
    }
    // The tail: an eighth of a memtable, flushed by hand.
    while db.stats().memtable_bytes < MEMTABLE_BYTES / 8 {
        put_batch(&db);
    }
    db.flush().unwrap();
    drain(&db);
    db.force_compact().unwrap();
    written += new_table_bytes(dir.path(), &mut seen);

    let stats = db.stats();
    assert_eq!((stats.flushes, stats.num_tables), (3, 1), "{stats:?}");
    assert_eq!(stats.table_entries, next_key, "every key is in the one table: {stats:?}");
    let amp = written as f64 / stats.live_table_bytes as f64;
    println!(
        "write_amp: {written} table bytes written for {} final bytes = {amp:.3}x \
         ({} compactions)",
        stats.live_table_bytes, stats.compactions
    );
    assert!(amp <= MAX_WRITE_AMP, "write amplification {amp:.3} > {MAX_WRITE_AMP}: {stats:?}");
}
