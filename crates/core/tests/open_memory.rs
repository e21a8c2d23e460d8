//! Regression gate for the memory an open costs: rebuilding the indexes
//! of a disk store must not hold a second copy of the store while it
//! runs. A counting global allocator tracks live heap bytes and their
//! high-water mark; the open's peak, above the heap in use before it,
//! must stay within [`PEAK_OVER_LIVE`] × the heap the opened store keeps.
//! That live heap itself must stay within [`LIVE_PER_SET`] bytes per
//! set: each record is resident once, beside the indexes, as its
//! canonical bytes with each attribute name, tool name and version
//! written as a vocabulary code (a table of decoded records took about
//! 1.9 kB per set, the canonical bytes 849 B per set), and the ancestry
//! graph holds no heap object per node (a hash map and two edge lists
//! per node put the store at about 1020 B per set).
//!
//! The allocator counts every thread of the process, so this binary
//! holds exactly one test.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code asserts by panicking

use pass_core::{Pass, PassConfig};
use pass_model::{
    keys, Attributes, ProvenanceBuilder, Reading, SensorId, SiteId, TimeRange, Timestamp,
    ToolDescriptor, TupleSet,
};
use pass_storage::tempdir::TempDir;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Sets in the store: enough that the per-record state dwarfs fixed
/// costs (engine, worker thread, empty indexes).
const SETS: usize = 8_192;
/// Allowed ratio of the open's peak heap to the heap it leaves live.
const PEAK_OVER_LIVE: f64 = 1.3;
/// Allowed heap the opened store keeps, per set: 802 B measured, plus
/// under 5 %.
const LIVE_PER_SET: usize = 840;

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

/// Writes `SETS` tuple sets — raw captures plus a tenth derived from
/// two of them — into a disk store at `dir`.
fn build_store(dir: &std::path::Path) {
    let pass = Pass::open(PassConfig::disk(SiteId(3), dir)).unwrap();
    let raw_count = SETS - SETS / 10;
    let mut raw = Vec::with_capacity(raw_count);
    for start in (0..raw_count).step_by(512) {
        let end = (start + 512).min(raw_count);
        raw.extend(
            pass.capture_batch((start..end).map(|i| {
                let t = 1_000 * i as u64;
                let attrs = Attributes::new()
                    .with(keys::DOMAIN, ["traffic", "weather", "medical"][i % 3])
                    .with(keys::REGION, format!("region-{}", i % 17))
                    .with(keys::DESCRIPTION, format!("hourly window {i} of sensor {}", i % 29))
                    .with(keys::TIME_START, Timestamp(t))
                    .with(keys::TIME_END, Timestamp(t + 999))
                    .with("count", i as i64);
                let readings = (0..4)
                    .map(|j| Reading::new(SensorId(i as u64), Timestamp(t + j)).with("v", j as i64))
                    .collect();
                (attrs, readings, Timestamp(t + 999))
            }))
            .unwrap(),
        );
    }
    let tool = ToolDescriptor::new("aggregate", "1.0");
    let derived: Vec<TupleSet> = (0..SETS / 10)
        .map(|i| {
            let readings = vec![Reading::new(SensorId(0), Timestamp(i as u64)).with("sum", 1i64)];
            let record = ProvenanceBuilder::new(SiteId(3), Timestamp(10_000_000 + i as u64))
                .attr(keys::DOMAIN, "aggregate")
                .time_range(TimeRange::new(Timestamp(0), Timestamp(i as u64)))
                .derived_from(raw[2 * i], tool.clone())
                .derived_from(raw[2 * i + 1], tool.clone())
                .build(TupleSet::content_digest_of(&readings));
            TupleSet::new(record, readings).unwrap()
        })
        .collect();
    for chunk in derived.chunks(512) {
        pass.ingest_batch(chunk).unwrap();
    }
    pass.flush().unwrap();
    assert_eq!(pass.len(), SETS);
}

#[test]
fn open_peak_heap_stays_near_the_live_state() {
    let dir = TempDir::new("open-memory");
    build_store(dir.path());

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let pass = Pass::open(PassConfig::disk(SiteId(3), dir.path())).unwrap();
    let peak = PEAK.load(Ordering::SeqCst) - before;
    let live = LIVE.load(Ordering::SeqCst).saturating_sub(before);
    assert_eq!(pass.len(), SETS);

    let ratio = peak as f64 / live.max(1) as f64;
    eprintln!(
        "open of {SETS} sets: peak {peak} B, live {live} B ({} B/set), ratio {ratio:.2}",
        live / SETS
    );
    assert!(
        ratio <= PEAK_OVER_LIVE,
        "open peaked at {peak} B over a live state of {live} B ({ratio:.2} > {PEAK_OVER_LIVE})"
    );
    assert!(
        live <= LIVE_PER_SET * SETS,
        "the open store keeps {} B/set (> {LIVE_PER_SET})",
        live / SETS
    );
}
