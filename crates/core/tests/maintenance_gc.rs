//! Background maintenance through the `Pass` API: compaction keeps the
//! on-disk table set bounded under sustained ingest, live snapshots and
//! subscriptions keep their answers while merges drop tombstones, and
//! tiered aging moves cold readings into an archive export without
//! losing their provenance (PASS property 4).

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code asserts by panicking

use pass_core::{Backend, Event, Pass, PassConfig};
use pass_model::{Attributes, Reading, SensorId, SiteId, Timestamp};
use pass_storage::tempdir::TempDir;
use pass_storage::EngineOptions;
use std::path::Path;
use std::time::{Duration, Instant};

/// Disk config with a tiny memtable so every few records seal a table
/// (the store's background maintenance worker compacts behind them).
fn churn_config(dir: &Path) -> PassConfig {
    let options = EngineOptions { memtable_bytes: 2 << 10, ..EngineOptions::default() };
    PassConfig {
        backend: Backend::Disk { dir: dir.to_path_buf(), options },
        ..PassConfig::memory(SiteId(3))
    }
}

fn capture_round(pass: &Pass, round: u64, count: u64) {
    let batch = (0..count).map(|i| {
        let at = Timestamp(round * 10_000 + i);
        let readings = vec![Reading::new(SensorId(1), at).with("v", (round * count + i) as i64)];
        let attrs = Attributes::new().with("round", round as i64).with("i", i as i64);
        (attrs, readings, at)
    });
    pass.capture_batch(batch).unwrap();
}

fn sst_names(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".sst"))
        .collect()
}

fn sst_count(dir: &Path) -> usize {
    sst_names(dir).len()
}

/// Sustained ingest with the worker on: the live table count stays
/// bounded (tiered merges run between commits), every record stays
/// readable, and no background errors accumulate.
#[test]
fn maintenance_bounds_tables_under_sustained_ingest() {
    let dir = TempDir::new("maint-bounds");
    let pass = Pass::open(churn_config(dir.path())).unwrap();
    for round in 0..12 {
        capture_round(&pass, round, 40);
        pass.flush().unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while sst_count(dir.path()) > 8 && Instant::now() < deadline {
        pass.wake_maintenance();
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(sst_count(dir.path()) <= 8, "worker keeps the table set bounded");
    assert_eq!(pass.maintenance_errors(), 0);
    assert_eq!(pass.len(), 12 * 40, "every captured record still present");
    let snap = pass.snapshot();
    for id in pass.ids() {
        assert!(snap.get_tuple_set(id).unwrap().is_some(), "readings survive compaction");
    }
}

/// A snapshot and a subscription opened before removals and heavy
/// ingest keep answering from their version while the worker compacts
/// behind them: merges that reach the oldest table drop the removals'
/// tombstones, and neither reader can tell.
#[test]
fn snapshot_reads_stay_repeatable_while_maintenance_churns() {
    let dir = TempDir::new("maint-repeatable");
    let pass = Pass::open(churn_config(dir.path())).unwrap();
    capture_round(&pass, 0, 25);
    let snap = pass.snapshot();
    let mut seen: Vec<_> = pass.ids();
    seen.sort_unstable();
    assert_eq!(snap.len(), 25);
    let records: Vec<_> = seen.iter().map(|id| snap.get_record(*id).unwrap()).collect();
    let round_zero = "FIND WHERE round = 0";
    let answer = snap.query_text(round_zero).unwrap().ids();
    assert_eq!(answer.len(), 25);

    let mut sub = pass.subscribe_text("SUBSCRIBE FIND").unwrap();
    let removed: Vec<_> = seen.iter().copied().step_by(3).collect();
    for id in &removed {
        assert!(pass.remove_data(*id).unwrap());
    }
    for round in 1..10 {
        capture_round(&pass, round, 40);
        pass.flush().unwrap();
        pass.wake_maintenance();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while sst_count(dir.path()) > 8 && Instant::now() < deadline {
        pass.wake_maintenance();
        std::thread::sleep(Duration::from_millis(20));
    }

    // The snapshot still answers exactly its edition...
    assert_eq!(snap.len(), 25, "snapshot does not see later ingest");
    assert_eq!(snap.query_text(round_zero).unwrap().ids(), answer);
    for (id, record) in seen.iter().zip(&records) {
        assert!(snap.has_data(*id), "presence is the snapshot's");
        assert_eq!(snap.get_record(*id).as_ref(), Some(record));
        let gone = removed.contains(id);
        assert_eq!(snap.get_data(*id).unwrap().is_none(), gone, "readings come from storage");
    }
    // ...while the live store moved on.
    assert_eq!(pass.len(), 25 + 9 * 40);
    assert_eq!(pass.maintenance_errors(), 0);

    // The subscription delivers its catch-up, then the later commits
    // only: removals publish no event.
    let mut matches = Vec::new();
    let mut caught_up = false;
    while let Some(event) = sub.try_next() {
        match event {
            Event::Match(record) => matches.push(record.id),
            Event::CaughtUp { .. } => {
                assert_eq!(matches.len(), 25, "catch-up is the first round");
                caught_up = true;
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert!(caught_up);
    let mut want = pass.ids();
    want.sort_unstable();
    matches.sort_unstable();
    assert_eq!(matches, want, "every record once, and nothing for the removals");
}

/// A merge that does not reach the oldest table keeps the tombstones it
/// rewrites: the oldest table holds every reading, the removals'
/// tombstones land in a small table above it, and two more small flushes
/// make the picker merge the three small tables alone. The removed
/// readings must stay gone, before and after a reopen.
#[test]
fn a_merge_above_the_oldest_table_keeps_the_removals_tombstones() {
    let dir = TempDir::new("maint-tombstones");
    let config = || PassConfig {
        backend: Backend::Disk { dir: dir.path().to_path_buf(), options: EngineOptions::default() },
        ..PassConfig::memory(SiteId(3))
    };
    let pass = Pass::open(config()).unwrap();
    capture_round(&pass, 0, 300);
    pass.flush().unwrap();
    let oldest = sst_names(dir.path());
    assert_eq!(oldest.len(), 1, "the readings sit in one table");

    let mut ids = pass.ids();
    ids.sort_unstable();
    let removed: Vec<_> = ids.iter().copied().step_by(50).collect();
    for id in &removed {
        assert!(pass.remove_data(*id).unwrap());
    }
    pass.flush().unwrap();
    for round in 1..3 {
        capture_round(&pass, round, 4);
        pass.flush().unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while sst_count(dir.path()) > 2 && Instant::now() < deadline {
        pass.wake_maintenance();
        std::thread::sleep(Duration::from_millis(20));
    }
    let tables = sst_names(dir.path());
    assert_eq!(tables.len(), 2, "the three small tables merged into one: {tables:?}");
    assert!(tables.contains(&oldest[0]), "the merge left the oldest table alone: {tables:?}");
    assert_eq!(pass.maintenance_errors(), 0);

    for id in &removed {
        assert_eq!(pass.get_data(*id).unwrap(), None, "a removed reading stays gone");
    }
    drop(pass);
    let pass = Pass::open(config()).unwrap();
    for id in &ids {
        let gone = removed.contains(id);
        assert_eq!(pass.has_data(*id), !gone, "presence after a reopen");
        assert_eq!(pass.get_data(*id).unwrap().is_none(), gone, "readings after a reopen");
    }
}

/// `age_data` implements tiered aging: readings created before the
/// cutoff are exported and removed, their provenance records stay
/// queryable, and importing the export restores the readings — aging is
/// a move, not a loss.
#[test]
fn age_data_moves_cold_readings_into_a_restorable_export() {
    let dir = TempDir::new("maint-age");
    let pass = Pass::open(churn_config(dir.path())).unwrap();
    let cold = pass
        .capture(Attributes::new().with("era", "cold"), vec![reading(100)], Timestamp(100))
        .unwrap();
    let warm = pass
        .capture(Attributes::new().with("era", "warm"), vec![reading(900)], Timestamp(900))
        .unwrap();

    let report = pass.age_data(Timestamp(500)).unwrap();
    assert_eq!(report.aged, 1);
    assert_eq!(report.export.tuple_sets.len(), 1);
    assert_eq!(report.export.tuple_sets[0].provenance.id, cold);

    // PASS property 4: the record outlives its data.
    assert!(pass.contains(cold), "provenance survives aging");
    assert!(!pass.has_data(cold), "cold readings left the hot store");
    assert!(pass.has_data(warm), "records past the cutoff are untouched");
    assert_eq!(pass.query_text(r#"FIND WHERE era = "cold""#).unwrap().ids(), vec![cold]);

    // Aging again is a no-op: the data is already gone.
    assert_eq!(pass.age_data(Timestamp(500)).unwrap().aged, 0);

    // The export restores the readings — round trip complete.
    let stats = pass.import_archive(&report.export).unwrap();
    assert_eq!(stats.data_restored, 1);
    assert!(pass.has_data(cold));
    assert!(pass.get_tuple_set(cold).unwrap().is_some());
}

/// Aging picks its victims by creation time alone: every record created
/// strictly before the cutoff whose readings are present is aged, and
/// nothing else — not a record created at the cutoff, not one whose
/// readings are already gone. Enough records that the readings bitset
/// spans several words.
#[test]
fn age_data_takes_exactly_the_present_records_created_before_the_cutoff() {
    let pass = Pass::open(PassConfig::memory(SiteId(3))).unwrap();
    let cutoff = 150;
    let ids = pass
        .capture_batch(
            (0..200u64)
                .map(|t| (Attributes::new().with("t", t as i64), vec![reading(t)], Timestamp(t))),
        )
        .unwrap();
    // Readings already gone: 7, 64 and 149 are before the cutoff.
    for t in [7, 64, 149, 170] {
        assert!(pass.remove_data(ids[t]).unwrap());
    }

    let report = pass.age_data(Timestamp(cutoff)).unwrap();
    let mut want: Vec<_> =
        (0..cutoff as usize).filter(|t| ![7, 64, 149].contains(t)).map(|t| ids[t]).collect();
    want.sort();
    let aged: Vec<_> = report.export.tuple_sets.iter().map(|t| t.provenance.id).collect();
    assert_eq!(report.aged, want.len());
    assert_eq!(aged, want);
    assert!(report.export.records_only.is_empty());
    assert!(pass.has_data(ids[cutoff as usize]), "created at the cutoff: not aged");
    for (t, &id) in ids.iter().enumerate() {
        assert_eq!(pass.has_data(id), t as u64 >= cutoff && t != 170, "record created at {t}");
        assert!(pass.contains(id));
    }
}

/// The aging worker sweeps on its own tick and hands exports to the
/// sink; it holds only a weak reference and stops with its handle.
#[test]
fn spawn_aging_sweeps_in_the_background() {
    use std::sync::{Arc, Mutex};

    let dir = TempDir::new("maint-age-worker");
    let pass = Arc::new(Pass::open(churn_config(dir.path())).unwrap());
    let cold = pass
        .capture(Attributes::new().with("era", "old"), vec![reading(10)], Timestamp(10))
        .unwrap();

    let shipped: Arc<Mutex<Vec<pass_core::ArchiveExport>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&shipped);
    let worker = pass.spawn_aging(
        Duration::from_millis(10),
        || Timestamp(500),
        move |export| sink.lock().unwrap().push(export),
    );

    let deadline = Instant::now() + Duration::from_secs(10);
    while shipped.lock().unwrap().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    worker.shutdown();

    let shipped = shipped.lock().unwrap();
    assert_eq!(shipped.len(), 1, "one sweep shipped the cold set, later sweeps found nothing");
    assert_eq!(shipped[0].tuple_sets[0].provenance.id, cold);
    assert!(pass.contains(cold) && !pass.has_data(cold));
}

fn reading(at: u64) -> Reading {
    Reading::new(SensorId(2), Timestamp(at)).with("v", at as i64)
}
