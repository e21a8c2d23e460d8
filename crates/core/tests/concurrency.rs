//! Concurrency tests: `Pass` is `Send + Sync`; concurrent ingests,
//! queries, and annotations must neither deadlock nor corrupt state.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code asserts by panicking

use pass_core::Pass;
use pass_model::{keys, Annotation, Attributes, Reading, SensorId, SiteId, Timestamp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

fn capture_one(pass: &Pass, worker: u64, i: u64) -> pass_model::TupleSetId {
    let readings = vec![Reading::new(SensorId(worker), Timestamp(i)).with("v", i as i64)];
    let attrs = Attributes::new()
        .with(keys::DOMAIN, "traffic")
        .with("worker", worker as i64)
        .with("seq", i as i64);
    pass.capture(attrs, readings, Timestamp(worker * 1_000_000 + i)).expect("capture")
}

#[test]
fn concurrent_ingest_preserves_every_record() {
    let pass = Pass::open_memory(SiteId(1));
    const WORKERS: u64 = 4;
    const PER_WORKER: u64 = 250;
    thread::scope(|s| {
        for w in 0..WORKERS {
            let pass = &pass;
            s.spawn(move || {
                for i in 0..PER_WORKER {
                    capture_one(pass, w, i);
                }
            });
        }
    });
    assert_eq!(pass.len(), (WORKERS * PER_WORKER) as usize);
    for w in 0..WORKERS {
        let hits = pass.query_text(&format!("FIND WHERE worker = {w}")).expect("query");
        assert_eq!(hits.records.len(), PER_WORKER as usize, "worker {w}");
    }
}

#[test]
fn readers_and_writers_interleave() {
    let pass = Pass::open_memory(SiteId(2));
    let written = AtomicU64::new(0);
    thread::scope(|s| {
        // One writer…
        s.spawn(|| {
            for i in 0..500u64 {
                capture_one(&pass, 9, i);
                written.fetch_add(1, Ordering::Release);
            }
        });
        // …two readers observing monotone growth.
        for _ in 0..2 {
            s.spawn(|| {
                let mut last = 0usize;
                loop {
                    let seen =
                        pass.query_text("FIND WHERE worker = 9").expect("query").records.len();
                    assert!(seen >= last, "result set shrank: {last} -> {seen}");
                    last = seen;
                    if written.load(Ordering::Acquire) >= 500 && seen >= 500 {
                        break;
                    }
                }
            });
        }
    });
    assert_eq!(pass.len(), 500);
}

#[test]
fn concurrent_annotation_and_lineage() {
    let pass = Pass::open_memory(SiteId(3));
    let root = capture_one(&pass, 1, 0);
    let derived: Vec<_> = (0..8)
        .map(|i| {
            pass.derive(
                &[root],
                &pass_model::ToolDescriptor::new("t", "1"),
                Attributes::new().with(keys::DOMAIN, "traffic").with("i", i as i64),
                vec![],
                Timestamp(100 + i),
            )
            .expect("derive")
        })
        .collect();
    thread::scope(|s| {
        let annotator = &pass;
        s.spawn(move || {
            for i in 0..50u64 {
                annotator
                    .annotate(root, Annotation::new(Timestamp(i), "ops", format!("note {i}")))
                    .expect("annotate");
            }
        });
        for &child in &derived {
            let reader = &pass;
            s.spawn(move || {
                for _ in 0..20 {
                    let anc = reader
                        .lineage(
                            child,
                            pass_index::Direction::Ancestors,
                            pass_index::TraverseOpts::unbounded(),
                        )
                        .expect("lineage");
                    assert_eq!(anc.len(), 1);
                    assert_eq!(anc[0].id, root);
                }
            });
        }
    });
    let record = pass.get_record(root).expect("exists");
    assert_eq!(record.annotations.len(), 50);
    assert!(record.verify_identity(), "annotations never disturb identity");
}
