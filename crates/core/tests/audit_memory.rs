//! Regression gate for the memory the storage audit costs:
//! `Pass::verify_consistency` must not hold the store's readings at once.
//! It walks the record, readings and marker prefixes in slices of the id
//! space; its peak heap, above the heap in use before it, must stay
//! under [`MAX_PEAK_OVER_DATA`] × the bytes stored under the readings
//! prefix. A whole-prefix scan of the readings holds every set's
//! readings, over 1× of them.
//!
//! A counting global allocator tracks live heap bytes and their
//! high-water mark; it counts every thread of the process, so this
//! binary holds exactly one test.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code asserts by panicking

use pass_core::{Pass, PassConfig};
use pass_model::{keys, Attributes, Reading, SensorId, SiteId, Timestamp, TupleSet};
use pass_storage::tempdir::TempDir;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Sets in the store.
const SETS: usize = 8_192;
/// Readings per set: enough that readings dominate what the store holds.
const READINGS: usize = 24;
/// Allowed ratio of the audit's peak heap to the stored readings bytes.
const MAX_PEAK_OVER_DATA: f64 = 0.25;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Forwards to the system allocator, counting live bytes and their peak.
struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only observe
// sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for `layout.align()`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The readings of set `i`.
fn readings(i: usize) -> Vec<Reading> {
    (0..READINGS)
        .map(|j| {
            Reading::new(SensorId(i as u64), Timestamp(1_000 * i as u64 + j as u64))
                .with("speed_kmh", (i * j) as f64 * 0.5)
                .with("count", j as i64)
        })
        .collect()
}

/// Writes `SETS` captures into a disk store at `dir` and returns the
/// bytes stored under the readings prefix (each set's encoded readings).
fn build_store(dir: &std::path::Path) -> usize {
    let pass = Pass::open(PassConfig::disk(SiteId(5), dir)).unwrap();
    let mut data_bytes = 0;
    let mut encoded = Vec::new();
    for start in (0..SETS).step_by(512) {
        let sets: Vec<(Attributes, Vec<Reading>, Timestamp)> = (start..start + 512)
            .map(|i| {
                let attrs = Attributes::new()
                    .with(keys::DOMAIN, "traffic")
                    .with(keys::REGION, format!("region-{}", i % 17));
                let readings = readings(i);
                encoded.clear();
                TupleSet::encode_readings_into(&readings, &mut encoded);
                data_bytes += encoded.len();
                (attrs, readings, Timestamp(1_000 * i as u64 + 999))
            })
            .collect();
        pass.capture_batch(sets).unwrap();
    }
    pass.flush().unwrap();
    assert_eq!(pass.len(), SETS);
    data_bytes
}

#[test]
fn the_audit_holds_a_slice_of_the_readings_at_a_time() {
    let dir = TempDir::new("audit-memory");
    let data_bytes = build_store(dir.path());
    let pass = Pass::open(PassConfig::disk(SiteId(5), dir.path())).unwrap();

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let report = pass.verify_consistency().unwrap();
    let peak = PEAK.load(Ordering::SeqCst) - before;
    assert!(report.is_consistent(), "{report:?}");
    assert_eq!((report.records, report.data_blobs), (SETS, SETS));

    let ratio = peak as f64 / data_bytes as f64;
    eprintln!(
        "audit of {SETS} sets: peak {peak} B over {data_bytes} B of stored readings, ratio {ratio:.3}"
    );
    assert!(
        ratio <= MAX_PEAK_OVER_DATA,
        "the audit peaked at {peak} B over {data_bytes} B of readings ({ratio:.3} > \
         {MAX_PEAK_OVER_DATA})"
    );
}
