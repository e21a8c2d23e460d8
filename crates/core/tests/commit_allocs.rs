//! Cost gate for the group commit: allocation calls per committed set.
//!
//! A commit encodes each record and its readings once (the bytes it
//! hashes are the bytes it stores), extracts the index rows grouped by
//! attribute value, and merges them into the indexes. Its allocations
//! are then the stored buffers (three keys, the record, its readings
//! and the marker) plus what the indexes grow by; the resident copy of
//! the record is appended to a shared chunk of the record table, with
//! no allocation of its own (one buffer per record took about 8.0 per
//! set). A commit that serialized each record three times and cloned a
//! value per attribute row took about 24 per set.
//!
//! A counting global allocator counts allocation calls inside
//! `Pass::ingest_batch` only (the corpus is generated outside the
//! counted window), on the memory backend, over a corpus shaped like
//! the repo benchmark's base store: traffic, weather and medical
//! captures, a `filter` derivation on every 16th capture, and three
//! levels of 4-input `aggregate` derivations. Three bounds:
//!
//! * at 1000 sets per commit, at most [`MAX_ALLOCS_PER_SET`] per set;
//! * the last 10k sets of a 100k-set load cost at most [`FLAT_SLACK`] ×
//!   the first 10k per set (no per-set cost that grows with the store);
//! * one set per commit costs at most [`MAX_ALLOCS_SINGLE`] per set, so
//!   per-commit fixed costs do not grow either.
//!
//! Counts do not depend on the host's speed. The allocator counts every
//! thread of the process, so this binary holds exactly one test.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code asserts by panicking

use pass_core::Pass;
use pass_model::{GeoPoint, ProvenanceBuilder, SiteId, Timestamp, TupleSet};
use pass_sensor::spec::CaptureSpec;
use pass_sensor::{medical, pipeline, traffic, weather};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allowed allocation calls per committed set at 1000 sets per commit.
const MAX_ALLOCS_PER_SET: f64 = 7.5;
/// Allowed growth of the per-set count from the first to the last 10k
/// sets of a 100k-set load.
const FLAT_SLACK: f64 = 1.1;
/// Allowed allocation calls per set at one set per commit.
const MAX_ALLOCS_SINGLE: f64 = 62.0;
/// Sets per group commit in the batched loads.
const BATCH: usize = 1_000;
/// Sets in one counted window.
const WINDOW: usize = 10_000;
/// Sets in the large load.
const LARGE: usize = 100_000;
/// Sets committed one at a time.
const SINGLES: usize = 2_000;

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

const SITE: SiteId = SiteId(1);
const REGIONS: [&str; 8] = ["london", "boston", "paris", "lagos", "osaka", "lima", "oslo", "pune"];
const FIELDS: [&str; 3] = ["speed_kmh", "temp_c", "hr_bpm"];
/// Windows per generator stream per round.
const WINDOWS: usize = 24;
/// Generated time advances four hours per round.
const ROUND_MS: u64 = 14_400_000;

fn capture(spec: CaptureSpec) -> TupleSet {
    let record = ProvenanceBuilder::new(SITE, spec.at)
        .attrs(&spec.attrs)
        .build(TupleSet::content_digest_of(&spec.readings));
    TupleSet::new_unchecked(record, spec.readings)
}

fn derive(spec: pipeline::DeriveSpec) -> TupleSet {
    let mut builder = ProvenanceBuilder::new(SITE, spec.at).attrs(&spec.attrs);
    for &parent in &spec.parents {
        builder = builder.derived_from(parent, spec.tool.clone());
    }
    let record = builder.build(TupleSet::content_digest_of(&spec.readings));
    TupleSet::new_unchecked(record, spec.readings)
}

/// Round `round` of the corpus, parents before children: each stream's
/// captures, its `filter` derivations and its three `aggregate` levels.
fn round_sets(round: usize) -> Vec<TupleSet> {
    let region = REGIONS[round % REGIONS.len()];
    let start = Timestamp(round as u64 * ROUND_MS);
    let seed = 1_000_003 + round as u64;
    let streams = [
        traffic::generate(
            &traffic::TrafficConfig {
                region: region.to_owned(),
                center: GeoPoint::new(10.0 + round as f64 * 0.01, 20.0),
                sensors: 8,
                base_rate: 1.5,
                sensor_base: round as u64 * 100,
                seed,
                ..Default::default()
            },
            start,
            WINDOWS,
        ),
        weather::generate(
            &weather::WeatherConfig {
                region: region.to_owned(),
                stations: 4,
                samples_per_window: 4,
                sensor_base: 1_000_000 + round as u64 * 100,
                seed: seed ^ 0x5555,
                ..Default::default()
            },
            start,
            WINDOWS,
        ),
        medical::generate(
            &medical::MedicalConfig {
                incident: format!("incident-{round}"),
                patients: 4,
                emts: 3,
                sample_ms: 15_000,
                sensor_base: 2_000_000 + round as u64 * 100,
                seed: seed ^ 0xaaaa,
                ..Default::default()
            },
            start,
            WINDOWS,
        ),
    ];
    let at = Timestamp(round as u64 * ROUND_MS + ROUND_MS - 1);
    let mut sets = Vec::new();
    for (specs, field) in streams.into_iter().zip(FIELDS) {
        let mut level: Vec<TupleSet> = specs.into_iter().map(capture).collect();
        let filtered: Vec<TupleSet> = level
            .iter()
            .step_by(16)
            .map(|ts| derive(pipeline::filter_threshold(ts, field, 0.0, at)))
            .collect();
        let mut field = field;
        for _ in 0..3 {
            let next: Vec<TupleSet> = level
                .chunks(4)
                .map(|chunk| {
                    let inputs: Vec<&TupleSet> = chunk.iter().collect();
                    derive(pipeline::aggregate(&inputs, field, at))
                })
                .collect();
            sets.append(&mut level);
            level = next;
            field = "mean";
        }
        sets.append(&mut level);
        sets.extend(filtered);
    }
    sets
}

/// The corpus as commits of `batch` sets, `total` sets in all.
fn commits(batch: usize, total: usize) -> impl Iterator<Item = Vec<TupleSet>> {
    let mut pending: Vec<TupleSet> = Vec::new();
    let mut round = 0;
    let mut left = total;
    std::iter::from_fn(move || {
        if left == 0 {
            return None;
        }
        let want = batch.min(left);
        while pending.len() < want {
            pending.extend(round_sets(round));
            round += 1;
        }
        left -= want;
        Some(pending.drain(..want).collect())
    })
}

/// Commits `total` sets in commits of `batch` and returns the
/// allocation calls each run of `window` sets made inside
/// `ingest_batch`.
fn load(batch: usize, total: usize, window: usize) -> Vec<usize> {
    let pass = Pass::open_memory(SITE);
    let mut windows = Vec::new();
    let mut counted = 0;
    let mut in_window = 0;
    for sets in commits(batch, total) {
        let before = ALLOCS.load(Ordering::Relaxed);
        let ids = pass.ingest_batch(&sets).unwrap();
        counted += ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(ids.len(), sets.len());
        in_window += sets.len();
        if in_window == window {
            windows.push(counted);
            counted = 0;
            in_window = 0;
        }
    }
    assert_eq!(pass.len(), total, "every corpus set is distinct");
    windows
}

#[test]
fn a_commit_allocates_per_stored_buffer() {
    let large = load(BATCH, LARGE, WINDOW);
    let first = large[0] as f64 / WINDOW as f64;
    let last = large[large.len() - 1] as f64 / WINDOW as f64;
    let singles = load(1, SINGLES, SINGLES)[0] as f64 / SINGLES as f64;
    eprintln!(
        "allocations per set: batch {BATCH}: first {WINDOW} sets {first:.2}, last {WINDOW} of \
         {LARGE} {last:.2}; batch 1: {singles:.2}"
    );
    assert!(
        first <= MAX_ALLOCS_PER_SET,
        "a {BATCH}-set commit makes {first:.2} allocations per set (> {MAX_ALLOCS_PER_SET})"
    );
    assert!(
        last <= first * FLAT_SLACK,
        "allocations per set grow with the store: {first:.2} for the first {WINDOW} sets, \
         {last:.2} for the last {WINDOW} of {LARGE}"
    );
    assert!(
        singles <= MAX_ALLOCS_SINGLE,
        "a one-set commit makes {singles:.2} allocations (> {MAX_ALLOCS_SINGLE})"
    );
}
