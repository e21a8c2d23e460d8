//! Regression tests for the L1 hardening: corrupt bytes found while
//! recovering — in the cross-shard intent log, the manifest, or an
//! SSTable footer — must surface as `StorageError`s, never as panics.
//! Each test feeds a recovery path bytes that used to trip an
//! `unwrap`/`expect`/slice-index and asserts the open *returns*.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pass_storage::tempdir::TempDir;
use pass_storage::wal::{SyncPolicy, Wal};
use pass_storage::{EngineOptions, KvStore, LsmEngine, ShardRouter, ShardedStore};
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

/// A manifest log truncated below any decodable record, in a directory
/// that demonstrably held tables, is destroyed metadata: the open must
/// error, not silently start a fresh (empty) edition over live data.
#[test]
fn truncated_manifest_is_an_error_not_a_panic() {
    let dir = TempDir::new("corrupt-manifest");
    {
        let db = LsmEngine::open(dir.path().to_path_buf(), EngineOptions::default()).unwrap();
        db.put(b"k", b"v").unwrap();
        db.flush().unwrap(); // seal a table so the directory isn't empty
    }
    // Truncate the manifest log below its first frame header.
    std::fs::write(dir.path().join("MANIFEST.log"), [7u8, 0, 0]).unwrap();
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
