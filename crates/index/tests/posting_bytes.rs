//! Cost gate for the packed index bytes. Over a fixed corpus (dense and
//! singleton lists, runs that land before the tail of their list, gaps
//! that need one to five varint bytes), after `shrink_to_fit`:
//!
//! * the attribute and keyword indexes store exactly the varint bytes of
//!   every list's gaps, and the heap that packed lists built from the
//!   same runs hold, counted by a global allocator, is that figure too;
//! * the time index holds exactly 20 bytes per interval and 8 per block
//!   of [`BLOCK`] intervals, counted, and reports that in `size_bytes`.
//!
//! The allocator counts every thread of the process, so this binary
//! holds exactly one test. Miri skips it: the unit tests and proptests
//! run the same code paths.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code asserts by panicking

use pass_index::time::BLOCK;
use pass_index::{AttrIndex, KeywordIndex, NodeIdx, PackedPostings, TimeIndex};
use pass_model::codec::varint_len;
use pass_model::{TimeRange, Timestamp, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Nodes in the corpus.
const NODES: u32 = 20_000;
/// Nodes per ingest batch.
const BATCH: u32 = 256;

static LIVE: AtomicUsize = AtomicUsize::new(0);

/// Forwards to the system allocator, counting live bytes.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter only observes
// sizes and never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Steps between the nodes of the `("gap", w)` list, which need `w`
/// varint bytes each.
const STEPS: [u32; 5] = [1, 300, 40_000, 5_000_000, 400_000_000];

/// The corpus as ingest batches: each batch's runs, grouped by list,
/// ascending. Batch `b` indexes nodes `b * BATCH ..` under a three-way
/// `site` split, a `bucket` of 97 and a `serial` of their own, except
/// that every 613th node is held back for eight batches (a parent met as
/// a placeholder and stored later), so that batch's runs land before the
/// tail of their lists. It also adds node `b * STEPS[w - 1]` to each
/// `("gap", w)` list while that fits in a node index.
fn batches() -> Vec<BTreeMap<(&'static str, i64), Vec<NodeIdx>>> {
    let late = |n: u32| n % 613 == 5;
    let mut out = Vec::new();
    for b in 0..NODES / BATCH {
        let mut nodes: Vec<NodeIdx> = (b * BATCH..(b + 1) * BATCH).filter(|&n| !late(n)).collect();
        if let Some(earlier) = b.checked_sub(8) {
            nodes.extend((earlier * BATCH..(earlier + 1) * BATCH).filter(|&n| late(n)));
        }
        nodes.sort_unstable();
        let mut runs: BTreeMap<_, Vec<NodeIdx>> = BTreeMap::new();
        for n in nodes {
            for key in [("site", n % 3), ("bucket", n % 97), ("serial", n)] {
                runs.entry((key.0, i64::from(key.1))).or_default().push(n);
            }
        }
        for (w, step) in (1..).zip(STEPS) {
            if let Some(node) = b.checked_mul(step) {
                runs.entry(("gap", w)).or_default().push(node);
            }
        }
        out.push(runs);
    }
    out
}

/// The varint length of each gap of a sorted list.
fn gap_widths(list: &BTreeSet<NodeIdx>) -> Vec<usize> {
    let nodes: Vec<NodeIdx> = list.iter().copied().collect();
    nodes.windows(2).map(|w| varint_len(u64::from(w[1] - w[0]))).collect()
}

#[test]
#[cfg_attr(miri, ignore)]
fn packed_bytes_are_the_gap_varints_and_time_entries_are_twenty_bytes() {
    // Postings: both indexes, and a model of every list.
    let batches = batches();
    let (mut attrs, mut keywords) = (AttrIndex::new(), KeywordIndex::new());
    let mut model: BTreeMap<(&str, i64), BTreeSet<NodeIdx>> = BTreeMap::new();
    for runs in &batches {
        for (&(name, value), run) in runs {
            attrs.insert_bulk(name, [(Value::Int(value), run.as_slice())]);
            keywords.insert_bulk(1, [(format!("{name}{value}"), run.as_slice())]);
            model.entry((name, value)).or_default().extend(run);
        }
    }
    attrs.shrink_to_fit();
    keywords.shrink_to_fit();
    let widths: Vec<usize> = model.values().flat_map(gap_widths).collect();
    let want: usize = widths.iter().sum();
    let distinct: BTreeSet<usize> = widths.into_iter().collect();
    assert_eq!(distinct, BTreeSet::from([1, 2, 3, 4, 5]), "gaps of every varint width");
    let postings: usize = model.values().map(BTreeSet::len).sum();
    eprintln!(
        "{} lists, {postings} postings: {want} gap bytes ({:.2} B/posting; a Vec<u32> takes 4)",
        model.len(),
        want as f64 / postings as f64
    );
    assert_eq!(attrs.posting_bytes(), want, "attribute index posting bytes");
    assert_eq!(keywords.posting_bytes(), want, "keyword index posting bytes");

    // Counted: the same runs into bare packed lists.
    assert_eq!(std::mem::size_of::<PackedPostings>(), 24, "as small as a Vec<u32>");
    let slot: BTreeMap<(&str, i64), usize> =
        model.keys().enumerate().map(|(i, &k)| (k, i)).collect();
    let mut lists = vec![PackedPostings::new(); model.len()];
    let before = LIVE.load(Ordering::SeqCst);
    for runs in &batches {
        for (key, run) in runs {
            lists[slot[key]].extend_sorted(run);
        }
    }
    lists.iter_mut().for_each(PackedPostings::shrink_to_fit);
    let held = LIVE.load(Ordering::SeqCst) - before;
    assert_eq!(held, want, "heap the packed lists hold");

    // Time: intervals inserted over several builds, some out of order,
    // starts above 2^32, a count that leaves the last block partial.
    let n = 3 * 1_024 + 37;
    let before = LIVE.load(Ordering::SeqCst);
    let mut time = TimeIndex::new();
    for i in 0..n {
        let start = (5u64 << 32) + if i % 10 == 3 { u64::from(i) / 2 } else { 10 * u64::from(i) };
        time.insert(i, TimeRange::new(Timestamp(start), Timestamp(start + 15)));
        if i % 500 == 499 {
            time.build();
        }
    }
    time.build();
    time.shrink_to_fit();
    let held = LIVE.load(Ordering::SeqCst) - before;
    let want = 20 * n as usize + 8 * (n as usize).div_ceil(BLOCK);
    eprintln!("{n} intervals: {held} B held ({:.2} B/interval)", held as f64 / f64::from(n));
    assert_eq!(time.size_bytes(), want, "time index size_bytes");
    assert_eq!(held, want, "heap the time index holds");
}
