//! Crash-injection tests for the manifest edit log: whatever byte the
//! process dies on, reopening the directory must yield either the old
//! or the new edition of the table set — never a mix, never a panic,
//! and never silent garbage.
//!
//! The torn-tail cases simulate the ordinary crash artifact (an append
//! that never completed); the bad-CRC and destroyed-log cases simulate
//! corruption past the commit point, which must *fail* the open rather
//! than quietly dropping a committed edit (that would unregister live
//! tables and let the debris sweep delete real data).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pass_storage::crc::crc32c;
use pass_storage::tempdir::TempDir;
use pass_storage::{EngineOptions, KvStore, LsmEngine};
use std::path::Path;

const MANIFEST_LOG: &str = "MANIFEST.log";

fn small_opts() -> EngineOptions {
    EngineOptions { memtable_bytes: 2 << 10, ..EngineOptions::default() }
}

/// Runs a workload that leaves a manifest with a checkpoint snapshot,
/// several flush edits, and at least one compact edit. Returns the
/// final round number each key was written in.
fn build_workload(dir: &Path) -> u64 {
    let db = LsmEngine::open(dir.to_path_buf(), small_opts()).unwrap();
    let rounds = 4u64;
    for round in 0..rounds {
        for key in 0..120u64 {
            db.put(format!("key-{key:04}").as_bytes(), format!("{key}:{round}").as_bytes())
                .unwrap();
        }
        db.flush().unwrap();
        // Drain the tiered picker, as the maintenance worker would.
        while db.maybe_compact().unwrap() {}
    }
    assert!(db.stats().compactions > 0, "workload must exercise compaction");
    rounds - 1
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Truncating the manifest at *every* byte offset simulates a crash at
/// every possible point of an append. Each prefix must either reopen
/// as a consistent edition (all readable values are real historical
/// values, no byte salad) or fail the open cleanly.
#[test]
fn every_prefix_cut_reopens_a_consistent_edition_or_fails_cleanly() {
    let pristine = TempDir::new("manifest-cut-pristine");
    let last_round = build_workload(pristine.path());
    let manifest_len =
        std::fs::metadata(pristine.path().join(MANIFEST_LOG)).unwrap().len() as usize;
    assert!(manifest_len > 16, "workload produced a real manifest");

    let mut opened = 0usize;
    let mut refused = 0usize;
    // Each prefix is also tried with a zero-filled tail: what a crash
    // leaves after an un-synced size extension.
    for (cut, zeros) in (0..=manifest_len).flat_map(|cut| [(cut, 0usize), (cut, 4096)]) {
        let work = TempDir::new(&format!("manifest-cut-{cut}-{zeros}"));
        copy_dir(pristine.path(), work.path());
        let log = work.path().join(MANIFEST_LOG);
        let bytes = std::fs::read(&log).unwrap();
        std::fs::write(&log, [&bytes[..cut], &vec![0u8; zeros][..]].concat()).unwrap();

        match LsmEngine::open(work.path().to_path_buf(), small_opts()) {
            Ok(db) => {
                opened += 1;
                for key in 0..120u64 {
                    let name = format!("key-{key:04}");
                    if let Some(value) = db.get(name.as_bytes()).unwrap() {
                        let text = String::from_utf8(value).expect("value is utf8, not garbage");
                        let (k, round) = text.split_once(':').expect("value keeps its shape");
                        assert_eq!(k.parse::<u64>().unwrap(), key, "value belongs to its key");
                        assert!(round.parse::<u64>().unwrap() <= last_round);
                    }
                }
                if cut == manifest_len {
                    // The whole log survives its zero tail, which the
                    // open truncates away.
                    for key in 0..120u64 {
                        let got = db.get(format!("key-{key:04}").as_bytes()).unwrap();
                        assert_eq!(got, Some(format!("{key}:{last_round}").into_bytes()));
                    }
                    assert_eq!(std::fs::metadata(&log).unwrap().len() as usize, manifest_len);
                }
            }
            Err(e) => {
                assert!(cut < manifest_len, "the full log (+{zeros} zero bytes) must open: {e}");
                refused += 1;
            }
        }
    }
    // The full-length log and at least the checkpoint prefix must open;
    // cuts below the first complete frame must refuse (tables exist).
    assert!(opened > 0, "some prefixes reopen");
    assert!(refused > 0, "sub-frame prefixes refuse rather than sweep live tables");

    // The untouched directory still holds every final value.
    let db = LsmEngine::open(pristine.path().to_path_buf(), small_opts()).unwrap();
    for key in 0..120u64 {
        let got = db.get(format!("key-{key:04}").as_bytes()).unwrap().unwrap();
        assert_eq!(got, format!("{key}:{last_round}").into_bytes());
    }
}

/// A complete frame whose CRC does not match is corruption past the
/// commit point: the open must fail loudly instead of replaying a
/// partial history and deleting "unreferenced" tables.
#[test]
fn complete_frame_with_garbage_crc_fails_the_open() {
    let dir = TempDir::new("manifest-badcrc");
    build_workload(dir.path());
    let log = dir.path().join(MANIFEST_LOG);
    let mut bytes = std::fs::read(&log).unwrap();
    // Flip one payload byte inside the first frame; its stored CRC no
    // longer matches, and the frame is complete (nothing is torn).
    bytes[10] ^= 0xff;
    std::fs::write(&log, &bytes).unwrap();

    let err = LsmEngine::open(dir.path().to_path_buf(), small_opts())
        .expect_err("checksum mismatch must fail the open");
    let msg = err.to_string().to_lowercase();
    assert!(msg.contains("checksum") || msg.contains("corrupt"), "{msg}");

    // The sstable files survived the refused open: nothing was swept.
    let ssts = std::fs::read_dir(dir.path())
        .unwrap()
        .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".sst"))
        .count();
    assert!(ssts > 0, "refusing the open must not delete tables");
}

/// A crash after compaction wrote (and fsynced) its output table but
/// before the manifest edit committed leaves an orphan file with an
/// unreferenced id. Reopen must land on the *old* edition: the orphan
/// is swept, every key still reads, and the id space stays collision
/// free for future flushes.
#[test]
fn orphan_table_from_a_pre_commit_crash_is_swept_and_ids_stay_unique() {
    let dir = TempDir::new("manifest-orphan");
    let last_round = build_workload(dir.path());

    // Fabricate the orphan: a real, valid sstable file under an id the
    // manifest has never heard of (as if the merge output was written
    // but its Compact edit never became durable).
    let some_sst = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "sst"))
        .expect("workload left tables");
    let orphan = dir.path().join("sst-0000000099.sst");
    std::fs::copy(&some_sst, &orphan).unwrap();

    let db = LsmEngine::open(dir.path().to_path_buf(), small_opts()).unwrap();
    assert!(!orphan.exists(), "unreferenced table is debris and is swept");
    for key in 0..120u64 {
        let got = db.get(format!("key-{key:04}").as_bytes()).unwrap().unwrap();
        assert_eq!(got, format!("{key}:{last_round}").into_bytes(), "old edition intact");
    }

    // New flushes must not collide with any id ever seen on disk.
    db.put(b"after-crash", b"ok").unwrap();
    db.flush().unwrap();
    drop(db);
    let db = LsmEngine::open(dir.path().to_path_buf(), small_opts()).unwrap();
    assert_eq!(db.get(b"after-crash").unwrap().unwrap(), b"ok");
}

/// A directory whose tables outlived their manifest log must refuse to
/// open: opening it as an empty store would let the debris sweep delete
/// every table the lost log used to own.
#[test]
fn missing_manifest_log_next_to_tables_fails_the_open_and_keeps_them() {
    let dir = TempDir::new("manifest-missing-log");
    {
        let db = LsmEngine::open(dir.path().to_path_buf(), small_opts()).unwrap();
        db.put(b"k", b"v").unwrap();
        db.flush().unwrap();
    }
    let tables = || -> Vec<_> {
        std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "sst"))
            .collect()
    };
    let before = tables();
    assert_eq!(before.len(), 1, "one flushed table");
    std::fs::remove_file(dir.path().join(MANIFEST_LOG)).unwrap();

    let err = LsmEngine::open(dir.path().to_path_buf(), small_opts())
        .expect_err("tables without a manifest log must fail the open");
    assert!(err.to_string().to_lowercase().contains("manifest"), "{err}");
    assert_eq!(tables(), before, "the table is left on disk");
}

/// Rewrites every frame of a log under the pre-change rule, where the
/// CRC covered the payload alone.
fn with_payload_only_crcs(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let payload = &bytes[pos + 8..pos + 8 + len];
        out.extend_from_slice(&bytes[pos..pos + 4]);
        out.extend_from_slice(&crc32c(payload).to_le_bytes());
        out.extend_from_slice(payload);
        pos += 8 + len;
    }
    out
}

/// A store written before the frame CRC covered the length prefix is
/// not read: the open is refused at the manifest, before the WAL is
/// scanned or truncated, and no table is swept.
#[test]
fn pre_change_store_is_refused_at_the_manifest_and_its_wal_left_untouched() {
    let dir = TempDir::new("manifest-pre-change");
    {
        let db = LsmEngine::open(dir.path().to_path_buf(), small_opts()).unwrap();
        db.put(b"flushed", b"1").unwrap();
        db.flush().unwrap();
        db.put(b"in-wal", b"2").unwrap();
    }
    for name in [MANIFEST_LOG, "wal.log"] {
        let path = dir.path().join(name);
        let bytes = std::fs::read(&path).unwrap();
        assert!(!bytes.is_empty(), "{name} holds records");
        std::fs::write(&path, with_payload_only_crcs(&bytes)).unwrap();
    }
    let wal_before = std::fs::read(dir.path().join("wal.log")).unwrap();
    let files_before = std::fs::read_dir(dir.path()).unwrap().count();

    let err = LsmEngine::open(dir.path().to_path_buf(), small_opts())
        .expect_err("a pre-change manifest must fail the open");
    assert!(err.to_string().contains(MANIFEST_LOG), "refused at the manifest: {err}");
    assert_eq!(std::fs::read(dir.path().join("wal.log")).unwrap(), wal_before);
    assert_eq!(std::fs::read_dir(dir.path()).unwrap().count(), files_before, "nothing swept");
}
