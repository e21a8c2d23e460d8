//! Cost gate for the merge: compacting flushed tables must allocate per
//! block, not per entry. The merge reads each input one verified block
//! at a time into a reused buffer and lends entries from it, and the
//! output builder copies each entry into its block buffer, so a merge's
//! allocations follow its blocks (a first-key copy and an index slot
//! each) and its fixed costs. A merge that decoded every entry into
//! owned buffers took at least 4 allocations per entry.
//!
//! A counting global allocator counts allocation calls. The merge runs
//! at about 10k and 100k output entries: fewer than
//! [`MAX_ALLOCS_PER_ENTRY`] allocations per entry at both, and no more
//! per entry at the larger size than at the smaller (within
//! [`FLAT_SLACK`]). Counts do not depend on the host's speed.
//!
//! The allocator counts every thread of the process, so this binary
//! holds exactly one test, and its engine runs no maintenance worker.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code asserts by panicking

use pass_storage::tempdir::TempDir;
use pass_storage::{EngineOptions, KvStore, LsmEngine, WriteBatch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allowed allocation calls per merged (output) entry.
const MAX_ALLOCS_PER_ENTRY: f64 = 0.1;
/// Allowed growth of allocations per entry from 10k to 100k entries.
const FLAT_SLACK: f64 = 1.1;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Forwards to the system allocator, counting allocation calls.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter only observes
// calls and never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Writes `entries` keys over three flushed tables, each key into two
/// of them (the newer version wins, so the merge also drops shadowed
/// versions), then counts the allocations of one full compaction.
/// Returns allocations per output entry.
fn allocs_per_merged_entry(entries: usize) -> f64 {
    let dir = TempDir::new("merge-allocs");
    // A memtable large enough that only the explicit flushes cut tables.
    let options = EngineOptions { memtable_bytes: 64 << 20, ..EngineOptions::default() };
    let engine = LsmEngine::open(dir.path(), options).unwrap();
    for table in 0..3 {
        let keys: Vec<usize> = (0..entries).filter(|i| i % 3 != table).collect();
        for chunk in keys.chunks(1_000) {
            let mut batch = WriteBatch::new();
            for &i in chunk {
                let value = format!("table {table} value of key {i}, padded to a record size");
                batch.put(format!("tuple-set/{i:012}"), value);
            }
            engine.apply(batch).unwrap();
        }
        engine.force_flush().unwrap();
    }
    assert_eq!(engine.stats().num_tables, 3);

    let before = ALLOCS.load(Ordering::SeqCst);
    engine.force_compact().unwrap();
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;

    let stats = engine.stats();
    assert_eq!(stats.num_tables, 1);
    assert_eq!(stats.table_entries, entries as u64);
    let per_entry = allocs as f64 / entries as f64;
    eprintln!("merge of {entries} entries: {allocs} allocations ({per_entry:.4} per entry)");
    per_entry
}

#[test]
fn merge_allocations_follow_blocks_not_entries() {
    let small = allocs_per_merged_entry(10_000);
    let large = allocs_per_merged_entry(100_000);
    for (entries, per_entry) in [(10_000, small), (100_000, large)] {
        assert!(
            per_entry < MAX_ALLOCS_PER_ENTRY,
            "merging {entries} entries allocated {per_entry:.3} times per entry \
             (>= {MAX_ALLOCS_PER_ENTRY})"
        );
    }
    assert!(
        large <= small * FLAT_SLACK,
        "allocations per entry grew with the merge: {small:.4} at 10k, {large:.4} at 100k"
    );
}
