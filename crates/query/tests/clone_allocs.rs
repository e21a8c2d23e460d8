//! Cost gate for the copy-on-write clone of an index: cloning a
//! [`RecordIndex`] makes the same number of allocation calls at 10k and
//! at 100k records.
//!
//! A store clones its published index state on the first commit after a
//! snapshot was taken. The records live in a record table of shared
//! chunks, so the clone copies chunk pointers and one span per
//! node in a constant number of allocations; a table of one buffer per
//! record made one allocation per record. The corpus keeps the number of
//! distinct attribute values and keyword tokens fixed, so the attribute
//! and keyword indexes clone in a constant number of allocations too,
//! and whatever grows with the record count is the record table's.
//!
//! A counting global allocator counts allocation calls; it counts every
//! thread of the process, so this binary holds exactly one test.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code asserts by panicking

use pass_model::{Digest128, ProvenanceBuilder, SiteId, Timestamp, ToolDescriptor};
use pass_query::RecordIndex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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

const REGIONS: [&str; 4] = ["london", "boston", "paris", "lagos"];

/// An index of `records` records in commits of 1000: captures over four
/// regions and sixteen creation times, and every eighth record derived
/// from the one before it.
fn build(records: usize) -> RecordIndex {
    let mut index = RecordIndex::new();
    let tool = ToolDescriptor::new("aggregate", "1.0");
    let mut previous = None;
    let mut delta = index.delta(1_000);
    for i in 0..records {
        let mut builder = ProvenanceBuilder::new(SiteId(1), Timestamp((i % 16) as u64))
            .attr("domain", "traffic")
            .attr("region", REGIONS[i % REGIONS.len()]);
        if let Some(parent) = previous.filter(|_| i % 8 == 0) {
            builder = builder.derived_from(parent, tool.clone());
        }
        let record = builder.build(Digest128::of(&(i as u64).to_be_bytes()));
        delta.push(&record);
        previous = Some(record.id);
        if delta.len() == 1_000 {
            index.insert_delta(&mut delta);
        }
    }
    index.insert_delta(&mut delta);
    index.sort_time();
    assert_eq!(index.len(), records);
    index
}

/// Allocation calls one clone of `index` makes.
fn clone_allocs(index: &RecordIndex) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    let copy = index.clone();
    let calls = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(copy.len(), index.len());
    calls
}

#[test]
fn an_index_clone_allocates_the_same_at_any_size() {
    let small = clone_allocs(&build(10_000));
    let large = clone_allocs(&build(100_000));
    eprintln!("allocation calls per index clone: {small} at 10000 records, {large} at 100000");
    assert_eq!(
        small, large,
        "an index clone makes {small} allocation calls at 10000 records and {large} at 100000"
    );
}
