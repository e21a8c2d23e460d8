//! Regression tests for the L1 hardening: corrupt bytes found while
//! recovering — in the cross-shard intent log, the manifest, or an
//! SSTable footer — must surface as `StorageError`s, never as panics.
//! Each test feeds a recovery path bytes that used to trip an
//! `unwrap`/`expect`/slice-index and asserts the open *returns*.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pass_storage::manifest::MANIFEST_NAME;
use pass_storage::tempdir::TempDir;
use pass_storage::wal::{SyncPolicy, Wal};
use pass_storage::{EngineOptions, KvStore, LsmEngine, ShardRouter, ShardedStore, StorageError};
use std::path::Path;
use std::sync::Arc;

fn byte_router(shards: usize) -> ShardRouter {
    Box::new(move |key: &[u8]| key.first().copied().unwrap_or(0) as usize % shards)
}

fn open_sharded(dir: &Path, shards: usize) -> pass_storage::Result<ShardedStore> {
    let mut engines: Vec<Arc<dyn KvStore>> = Vec::new();
    for i in 0..shards {
        engines.push(Arc::new(LsmEngine::open(
            dir.join(format!("shard-{i:02}")),
            EngineOptions::default(),
        )?));
    }
    ShardedStore::open(
        engines,
        byte_router(shards),
        Some(dir.join("xcommit.log")),
        SyncPolicy::OnWrite,
    )
}

/// A checksummed-but-undecodable intent record is corruption past the
/// commit point: recovery must report it, not panic in the decoder.
#[test]
fn valid_crc_garbage_intent_record_is_an_error_not_a_panic() {
    let dir = TempDir::new("corrupt-intent");
    // Frame garbage as a perfectly valid WAL record (length + CRC both
    // fine), so recovery reaches the batch decoder with junk bytes.
    let mut wal = Wal::create(dir.path().join("xcommit.log"), SyncPolicy::OnWrite).unwrap();
    wal.append(&[0xde, 0xad, 0xbe, 0xef, 0x99]).unwrap();
    drop(wal);

    let err = open_sharded(dir.path(), 2).expect_err("garbage intent must fail the open");
    let msg = err.to_string();
    assert!(msg.contains("intent"), "error names the intent log: {msg}");
}

/// A torn intent header (half a length prefix) is the ordinary crash
/// artifact: recovery discards it and the open succeeds. So is a
/// zero-filled log, which an un-synced size extension leaves behind.
#[test]
fn torn_intent_header_recovers_cleanly() {
    for torn in [vec![42u8, 0, 0], vec![0u8; 4096]] {
        let dir = TempDir::new("torn-intent-header");
        std::fs::write(dir.path().join("xcommit.log"), &torn).unwrap();
        let store = open_sharded(dir.path(), 2).expect("torn header is a discarded tail");
        assert_eq!(store.get(&[0]).unwrap(), None);
    }
}

/// A manifest truncated below its record, in a directory that
/// demonstrably held tables, is destroyed metadata: the open must
/// error, not silently start a fresh (empty) edition over live data.
#[test]
fn truncated_manifest_is_an_error_not_a_panic() {
    let dir = TempDir::new("corrupt-manifest");
    {
        let db = LsmEngine::open(dir.path().to_path_buf(), EngineOptions::default()).unwrap();
        db.put(b"k", b"v").unwrap();
        db.flush().unwrap(); // seal a table so the directory isn't empty
    }
    // Truncate the manifest below its frame header.
    std::fs::write(dir.path().join(MANIFEST_NAME), [7u8, 0, 0]).unwrap();
    let err = LsmEngine::open(dir.path().to_path_buf(), EngineOptions::default())
        .expect_err("destroyed manifest must fail the open");
    let msg = err.to_string();
    assert!(msg.to_lowercase().contains("manifest") || msg.contains("corrupt"), "{msg}");
}

/// An SSTable whose footer bytes are garbage must fail `open` with a
/// corruption error instead of panicking in the footer reader.
#[test]
fn garbage_sstable_footer_is_an_error_not_a_panic() {
    let dir = TempDir::new("corrupt-footer");
    let path = dir.path().join("t.sst");
    std::fs::write(&path, vec![0xabu8; 16]).unwrap();
    assert!(
        pass_storage::sstable::SsTable::open(&path).is_err(),
        "garbage footer must be rejected"
    );
}

/// The table files in an engine directory, sorted (oldest id first).
fn table_files(dir: &Path) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "sst"))
        .collect();
    files.sort();
    files
}

/// One flipped byte inside an interior block of a compaction input must
/// fail the merge with `ChecksumMismatch`: the cursors that stream the
/// inputs verify every block before lending from it. The failed merge
/// leaves the manifest listing its inputs and no output file behind,
/// and after a reopen every key outside the damaged block still reads.
#[test]
fn corrupt_input_block_fails_compaction_and_spares_the_rest() {
    const PER_TABLE: usize = 2_000;
    let dir = TempDir::new("corrupt-compaction");
    let key = |i: usize| format!("key-{i:06}").into_bytes();
    let value = |i: usize| format!("value of key {i:06}, long enough to fill blocks").into_bytes();
    {
        let db = LsmEngine::open(dir.path(), EngineOptions::default()).unwrap();
        for table in 0..2 {
            let mut batch = pass_storage::WriteBatch::new();
            for i in table * PER_TABLE..(table + 1) * PER_TABLE {
                batch.put(key(i), value(i));
            }
            db.apply(batch).unwrap();
            db.force_flush().unwrap();
        }
    }
    let inputs = table_files(dir.path());
    assert_eq!(inputs.len(), 2);
    // Damage the middle of the older table's data blocks: an interior
    // block of a multi-block table.
    let older = &inputs[0];
    let data_len = pass_storage::sstable::SsTable::open(older).unwrap().data_len();
    let mut bytes = std::fs::read(older).unwrap();
    bytes[data_len as usize / 2] ^= 0x5a;
    std::fs::write(older, &bytes).unwrap();

    let db = LsmEngine::open(dir.path(), EngineOptions::default()).unwrap();
    let err = db.force_compact().expect_err("a damaged input must fail the merge");
    assert!(matches!(err, StorageError::ChecksumMismatch { .. }), "{err}");
    assert_eq!(db.stats().num_tables, 2);
    assert_eq!(table_files(dir.path()), inputs, "no compaction output is left behind");
    drop(db);

    let listed = pass_storage::manifest::open(dir.path(), true).unwrap();
    assert_eq!(listed.len(), 2, "the manifest still lists both inputs: {listed:?}");

    let db = LsmEngine::open(dir.path(), EngineOptions::default()).unwrap();
    let mut damaged = Vec::new();
    for i in 0..2 * PER_TABLE {
        match db.get(&key(i)) {
            Ok(got) => assert_eq!(got, Some(value(i)), "key {i}"),
            Err(StorageError::ChecksumMismatch { .. }) => damaged.push(i),
            Err(e) => panic!("key {i}: unexpected error {e}"),
        }
    }
    assert!(!damaged.is_empty(), "the damaged block's keys report the mismatch");
    assert!(damaged.windows(2).all(|w| w[1] == w[0] + 1), "one contiguous run: {damaged:?}");
    assert!(damaged.len() < PER_TABLE / 10, "one block's keys, not the table's: {damaged:?}");
    assert!(damaged.iter().all(|&i| i > 0 && i < PER_TABLE - 1), "interior of the older table");
}
