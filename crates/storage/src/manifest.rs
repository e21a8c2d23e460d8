//! Crash-safe manifest: one file, `MANIFEST`, that names the live
//! SSTables.
//!
//! The file holds exactly one record in the WAL's frame ([`crate::wal`]):
//! `[len u32 LE][CRC-32C of len ‖ payload, u32 LE][payload]`. The
//! payload is the live table ids (the `sst-<id>.sst` names), newest
//! first, as a varint count followed by one varint per id. Every change
//! of the table set commits through [`commit`], which replaces the file
//! whole:
//!
//! 1. write the new list to `MANIFEST.tmp` and fsync it;
//! 2. rename it over `MANIFEST`;
//! 3. fsync the engine directory, which makes the rename durable, and
//!    with it every table file created in the directory before the call.
//!
//! A crash before the rename leaves the old list, after it the new one:
//! never a mix. Callers fsync added table files before [`commit`] and
//! delete removed ones only after it returns.
//!
//! [`open`] removes a stale `MANIFEST.tmp` (a commit that never reached
//! its rename). A missing `MANIFEST` is a fresh directory only
//! when no table exists: then an empty list is committed, so a table can
//! never exist without a manifest. Next to existing tables it fails the
//! open and leaves every file alone, because sweeping the tables as
//! debris would delete data. Anything other than exactly one valid
//! record is corruption and fails the open too.
//!
//! Ordering invariant: the list is newest-first, and the engine keeps
//! recency order on every edit (a compaction output sits exactly where
//! its run sat). Readers rely on this for newest-wins shadowing.

use crate::batch::{put_varint, take_varint};
use crate::error::{Result, StorageError};
use crate::wal::{self, Stop, SyncPolicy, Wal};
use std::path::Path;

/// The manifest's file name in an engine directory.
pub const MANIFEST_NAME: &str = "MANIFEST";
/// The next list while it is written, before its rename over `MANIFEST`.
const TMP_NAME: &str = "MANIFEST.tmp";

/// Reads the live table list of `dir`, newest-first, creating an empty
/// manifest in a directory without one.
///
/// `have_tables` says whether any `sst-*.sst` file exists in `dir`: a
/// directory with tables but no manifest is refused, untouched.
pub fn open(dir: &Path, have_tables: bool) -> Result<Vec<u64>> {
    let path = dir.join(MANIFEST_NAME);
    let tmp_path = dir.join(TMP_NAME);
    if tmp_path.exists() {
        std::fs::remove_file(&tmp_path)
            .map_err(|e| StorageError::io("removing stale manifest temp file", e))?;
    }
    if !path.exists() {
        if have_tables {
            return Err(StorageError::corrupt(&path, "no manifest next to existing tables"));
        }
        commit(dir, &[])?;
        return Ok(Vec::new());
    }
    let bytes = wal::read(&path)?;
    let scan = wal::scan(&bytes);
    match (scan.stop, scan.records.as_slice()) {
        (Stop::Corrupt { offset }, _) => Err(StorageError::ChecksumMismatch { path, offset }),
        (Stop::End, [payload]) => decode(payload)
            .ok_or_else(|| StorageError::corrupt(&path, "manifest record does not decode")),
        _ => Err(StorageError::corrupt(&path, "manifest is not exactly one record")),
    }
}

/// Commits `live` (newest-first) as the table set of `dir`: the new list
/// is fsynced under a temp name, renamed over `MANIFEST`, and the
/// directory fsynced.
pub fn commit(dir: &Path, live: &[u64]) -> Result<()> {
    let mut payload = Vec::with_capacity(2 + 2 * live.len());
    put_varint(&mut payload, live.len() as u64);
    for id in live {
        put_varint(&mut payload, *id);
    }
    let tmp_path = dir.join(TMP_NAME);
    Wal::create(&tmp_path, SyncPolicy::Always)?.append(&payload)?;
    std::fs::rename(&tmp_path, dir.join(MANIFEST_NAME))
        .map_err(|e| StorageError::io("installing manifest", e))?;
    sync_dir(dir)
}

/// Fsyncs `dir` itself, making the entries created, renamed or removed
/// in it durable.
pub fn sync_dir(dir: &Path) -> Result<()> {
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| StorageError::io(format!("fsyncing directory {}", dir.display()), e))
}

/// The id list of a manifest payload; `None` unless the payload is
/// exactly a count and that many ids.
fn decode(payload: &[u8]) -> Option<Vec<u64>> {
    let mut pos = 0usize;
    let count = take_varint(payload, &mut pos)?;
    let mut ids = Vec::new();
    for _ in 0..count {
        ids.push(take_varint(payload, &mut pos)?);
    }
    (pos == payload.len()).then_some(ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    #[test]
    fn fresh_open_then_commits_reopen() {
        let dir = TempDir::new("manifest-fresh");
        assert!(open(dir.path(), false).unwrap().is_empty());
        assert!(dir.path().join(MANIFEST_NAME).exists(), "the fresh open commits an empty list");

        commit(dir.path(), &[1]).unwrap();
        commit(dir.path(), &[2, 1]).unwrap();
        assert_eq!(open(dir.path(), true).unwrap(), vec![2, 1]);
        assert!(!dir.path().join(TMP_NAME).exists());
    }

    #[test]
    fn compact_edit_preserves_recency_position() {
        let dir = TempDir::new("manifest-compact");
        commit(dir.path(), &[4, 3, 2, 1]).unwrap();
        // A merge of the middle run [3, 2] into table 5 commits its list.
        commit(dir.path(), &[4, 5, 1]).unwrap();
        assert_eq!(open(dir.path(), true).unwrap(), vec![4, 5, 1]);
    }

    #[test]
    fn a_torn_or_extended_manifest_is_corruption() {
        let dir = TempDir::new("manifest-torn");
        commit(dir.path(), &[1]).unwrap();
        let path = dir.path().join(MANIFEST_NAME);
        let whole = std::fs::read(&path).unwrap();
        // A cut record, a record with half a header after it, and a
        // record with zeros after it: none is exactly one record.
        for bytes in [
            whole[..whole.len() - 1].to_vec(),
            [&whole[..], &[9, 0, 0]].concat(),
            [&whole[..], &[0; 16]].concat(),
        ] {
            std::fs::write(&path, &bytes).unwrap();
            assert!(open(dir.path(), true).is_err(), "{bytes:?}");
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "the open left the file alone");
        }
    }

    #[test]
    fn complete_record_with_bad_crc_is_corruption() {
        let dir = TempDir::new("manifest-badcrc");
        commit(dir.path(), &[1]).unwrap();
        let path = dir.path().join(MANIFEST_NAME);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = open(dir.path(), true).unwrap_err();
        assert!(matches!(err, StorageError::ChecksumMismatch { .. }), "{err}");
    }

    #[test]
    fn destroyed_log_with_tables_is_an_error_but_fresh_crash_is_not() {
        // A crash during the very first commit leaves only the temp file.
        let dir = TempDir::new("manifest-destroyed");
        std::fs::write(dir.path().join(TMP_NAME), [3u8, 0]).unwrap();
        assert!(open(dir.path(), false).unwrap().is_empty());

        let dir = TempDir::new("manifest-destroyed-tables");
        assert!(open(dir.path(), true).is_err(), "tables without a manifest");
        assert!(!dir.path().join(MANIFEST_NAME).exists(), "the refusal creates nothing");
        std::fs::write(dir.path().join(MANIFEST_NAME), [3u8, 0]).unwrap();
        assert!(open(dir.path(), true).is_err(), "a destroyed manifest");
    }

    #[test]
    fn a_table_record_with_an_extra_field_is_corruption() {
        // A list of one table (id 1) followed by one more varint, the
        // shape of a record whose tables carried a second field.
        let dir = TempDir::new("manifest-extra-field");
        let mut file = Wal::create(dir.path().join(MANIFEST_NAME), SyncPolicy::Always).unwrap();
        file.append(&[1, 1, 5]).unwrap();
        drop(file);
        assert!(open(dir.path(), true).is_err());
    }

    #[test]
    fn stale_tmp_file_is_cleaned_up() {
        let dir = TempDir::new("manifest-tmp");
        commit(dir.path(), &[1]).unwrap();
        std::fs::write(dir.path().join(TMP_NAME), b"half a commit").unwrap();
        assert_eq!(open(dir.path(), true).unwrap(), vec![1]);
        assert!(!dir.path().join(TMP_NAME).exists());
    }
}
