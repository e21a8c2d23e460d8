//! Crash-injection tests for the manifest's replace protocol. Every
//! table-set change writes the new list to `MANIFEST.tmp`, fsyncs it,
//! renames it over `MANIFEST` and fsyncs the directory. Whatever point
//! the process dies at, reopening the directory must yield exactly the
//! old or the new table set — never a mix, never a panic — with every
//! key at its newest value.
//!
//! Damage the protocol cannot leave behind (a flipped byte in
//! `MANIFEST`, tables with no `MANIFEST`) is corruption: it must *fail*
//! the open and leave every file as it was, because sweeping the tables
//! as debris would delete data.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pass_storage::manifest::MANIFEST_NAME;
use pass_storage::tempdir::TempDir;
use pass_storage::{EngineOptions, KvStore, LsmEngine, StorageError};
use std::collections::BTreeMap;
use std::path::Path;

const TMP_NAME: &str = "MANIFEST.tmp";
const KEYS: u64 = 120;
const ROUNDS: u64 = 4;

/// A directory's files by name.
type Files = BTreeMap<String, Vec<u8>>;

fn files(dir: &Path) -> Files {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name().into_string().unwrap(), std::fs::read(e.path()).unwrap())
        })
        .collect()
}

fn tables(files: &Files) -> Vec<&String> {
    files.keys().filter(|name| name.ends_with(".sst")).collect()
}

fn open(dir: &Path) -> pass_storage::Result<LsmEngine> {
    LsmEngine::open(dir.to_path_buf(), EngineOptions::default())
}

/// One manifest commit of the workload: the directory just before and
/// just after it, and the last round written when it ran.
struct Commit {
    before: Files,
    after: Files,
    round: Option<u64>,
}

/// Runs a workload whose every step is one manifest commit: the fresh
/// store's empty list, one flush per round, and each merge the tiered
/// picker chooses after it. Every round rewrites every key.
fn workload(dir: &Path) -> Vec<Commit> {
    let mut commits = Vec::new();
    let db = open(dir).unwrap();
    commits.push(Commit { before: Files::new(), after: files(dir), round: None });
    for round in 0..ROUNDS {
        for key in 0..KEYS {
            db.put(format!("key-{key:04}").as_bytes(), format!("{key}:{round}").as_bytes())
                .unwrap();
        }
        let before = files(dir);
        db.flush().unwrap();
        commits.push(Commit { before, after: files(dir), round: Some(round) });
        loop {
            let before = files(dir);
            if !db.maybe_compact().unwrap() {
                break;
            }
            commits.push(Commit { before, after: files(dir), round: Some(round) });
        }
    }
    let stats = db.stats();
    assert_eq!(stats.flushes, ROUNDS);
    assert!(stats.compactions > 0, "the workload must exercise compaction");
    commits
}

/// Reopens `dir` and checks it holds exactly `want` as its table set and
/// `round`'s value for every key.
fn assert_reopens(dir: &Path, want: &[&String], round: Option<u64>, what: &str) {
    let db = open(dir).unwrap_or_else(|e| panic!("{what}: reopen failed: {e}"));
    for key in 0..KEYS {
        let got = db.get(format!("key-{key:04}").as_bytes()).unwrap();
        assert_eq!(got, round.map(|r| format!("{key}:{r}").into_bytes()), "{what}: key {key}");
    }
    assert_eq!(db.stats().num_tables, want.len(), "{what}");
    drop(db);
    // The open swept every table the manifest does not list.
    let left = files(dir);
    assert_eq!(tables(&left), want, "{what}: the table set");
    assert!(!left.contains_key(TMP_NAME), "{what}: the stale temp file is gone");
}

fn write_files(dir: &Path, files: &Files) {
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
}

/// For every commit of the workload, a crash at each point of the replace
/// protocol: `MANIFEST.tmp` cut at every byte prefix, `MANIFEST.tmp`
/// complete but not renamed, and the rename done but nothing after it.
/// The crashed directory holds the old files (the WAL not yet cut, the
/// merged tables not yet deleted) plus the tables the commit registers,
/// already written and fsynced. A cut or unrenamed temp file reopens the
/// old table set, a renamed one the new set; every key reads its newest
/// value either way.
#[test]
fn every_prefix_cut_reopens_a_consistent_edition_or_fails_cleanly() {
    let pristine = TempDir::new("manifest-crash-pristine");
    let commits = workload(pristine.path());

    for (n, commit) in commits.iter().enumerate() {
        let mut crashed = commit.before.clone();
        for name in tables(&commit.after) {
            crashed.entry(name.clone()).or_insert_with(|| commit.after[name].clone());
        }
        let next = &commit.after[MANIFEST_NAME];
        for cut in 0..=next.len() {
            let work = TempDir::new(&format!("manifest-crash-{n}-{cut}"));
            write_files(work.path(), &crashed);
            std::fs::write(work.path().join(TMP_NAME), &next[..cut]).unwrap();
            let what = format!("commit {n}, MANIFEST.tmp cut at {cut} of {}", next.len());
            assert_reopens(work.path(), &tables(&commit.before), commit.round, &what);
        }
        let work = TempDir::new(&format!("manifest-crash-{n}-renamed"));
        write_files(work.path(), &crashed);
        std::fs::write(work.path().join(MANIFEST_NAME), next).unwrap();
        let what = format!("commit {n}, renamed");
        assert_reopens(work.path(), &tables(&commit.after), commit.round, &what);
    }

    // The untouched directory still holds every final value.
    let last = commits.last().unwrap();
    assert_reopens(pristine.path(), &tables(&last.after), Some(ROUNDS - 1), "pristine");
}

/// A flipped byte in `MANIFEST` is corruption past the commit point: the
/// open fails with `ChecksumMismatch` instead of sweeping the tables it
/// can no longer read, and no file changes.
#[test]
fn complete_frame_with_garbage_crc_fails_the_open() {
    let dir = TempDir::new("manifest-badcrc");
    workload(dir.path());
    let path = dir.path().join(MANIFEST_NAME);
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    let damaged = files(dir.path());
    assert!(!tables(&damaged).is_empty());

    let err = open(dir.path()).expect_err("checksum mismatch must fail the open");
    assert!(matches!(err, StorageError::ChecksumMismatch { .. }), "{err}");
    assert_eq!(files(dir.path()), damaged, "refusing the open changes no file");
}

/// A crash after compaction wrote (and fsynced) its output table but
/// before the new manifest was renamed into place leaves an orphan file
/// with an unlisted id. Reopen must land on the *old* edition: the
/// orphan is swept, every key still reads, and the next table id is
/// above the orphan's, so no id is handed out twice.
#[test]
fn orphan_table_from_a_pre_commit_crash_is_swept_and_ids_stay_unique() {
    let dir = TempDir::new("manifest-orphan");
    workload(dir.path());
    let before = files(dir.path());
    let orphan = dir.path().join("sst-0000000099.sst");
    std::fs::write(&orphan, &before[tables(&before)[0]]).unwrap();

    let db = open(dir.path()).unwrap();
    assert!(!orphan.exists(), "the unlisted table is debris and is swept");
    for key in 0..KEYS {
        let got = db.get(format!("key-{key:04}").as_bytes()).unwrap().unwrap();
        assert_eq!(got, format!("{key}:{}", ROUNDS - 1).into_bytes(), "old edition intact");
    }
    db.put(b"after-crash", b"ok").unwrap();
    db.flush().unwrap();
    drop(db);
    let after = files(dir.path());
    let new: Vec<_> = tables(&after).into_iter().filter(|t| !before.contains_key(*t)).collect();
    assert_eq!(new, ["sst-0000000100.sst"], "the flush takes the id after the orphan's");
    let db = open(dir.path()).unwrap();
    assert_eq!(db.get(b"after-crash").unwrap().unwrap(), b"ok");
}

/// A directory whose tables outlived their manifest must refuse to
/// open: opening it as an empty store would let the debris sweep delete
/// every table the lost manifest listed.
#[test]
fn missing_manifest_log_next_to_tables_fails_the_open_and_keeps_them() {
    let dir = TempDir::new("manifest-missing");
    {
        let db = open(dir.path()).unwrap();
        db.put(b"k", b"v").unwrap();
        db.flush().unwrap();
    }
    std::fs::remove_file(dir.path().join(MANIFEST_NAME)).unwrap();
    let before = files(dir.path());
    assert_eq!(tables(&before).len(), 1, "one flushed table");

    let err = open(dir.path()).expect_err("tables without a manifest must fail the open");
    assert!(err.to_string().contains(MANIFEST_NAME), "{err}");
    assert_eq!(files(dir.path()), before, "every file is left as it was");
}

/// A store from before the manifest became one file keeps its list in
/// `MANIFEST.log`. It is not read: the open is refused at the manifest,
/// because tables exist and no `MANIFEST` does, before the WAL is
/// scanned or truncated, and every file stays byte-identical.
#[test]
fn pre_change_store_is_refused_at_the_manifest_and_its_wal_left_untouched() {
    let dir = TempDir::new("manifest-pre-change");
    {
        let db = open(dir.path()).unwrap();
        db.put(b"flushed", b"1").unwrap();
        db.flush().unwrap();
        db.put(b"in-wal", b"2").unwrap();
    }
    std::fs::rename(dir.path().join(MANIFEST_NAME), dir.path().join("MANIFEST.log")).unwrap();
    let before = files(dir.path());
    assert!(!before["wal.log"].is_empty(), "the WAL holds a record");

    let err = open(dir.path()).expect_err("a MANIFEST.log-era store must fail the open");
    assert!(err.to_string().contains(MANIFEST_NAME), "refused at the manifest: {err}");
    assert_eq!(files(dir.path()), before, "every file is byte-identical");
}
