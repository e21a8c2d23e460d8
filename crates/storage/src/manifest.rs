//! Crash-safe manifest: the append-only edit log that owns the live
//! SSTable set.
//!
//! Before this module the engine's table set was directory-scan-owned:
//! a single-record `MANIFEST` file listed the ids, and anything on disk
//! that wasn't listed was debris. That shape cannot express compaction
//! safely — replacing K tables with one needs an *atomic* transition
//! between two editions of the table set, and rewriting a whole file
//! per flush is wasteful under sustained ingest.
//!
//! The manifest here is a record log (`MANIFEST.log`) written through
//! the WAL's own handle ([`crate::wal`]): each record is
//! `[len u32 LE][CRC-32C of len ‖ payload, u32 LE][payload]`, appended and
//! fsynced with [`SyncPolicy::Always`]. Payloads are versioned edits:
//!
//! * **snapshot** (tag 1) — the full table set + the id allocator.
//!   Written when the log is created and as a periodic checkpoint
//!   (rewrite via temp file + rename, so the prefix is always one
//!   complete snapshot).
//! * **flush** (tag 2) — one new table pushed at the newest position.
//! * **compact** (tag 3) — one added table replacing a contiguous run
//!   of removed ids, at the position of the newest removed table.
//!
//! Recovery replays the log in order. A torn tail — a record that
//! extends past EOF, or a run of zero bytes to EOF (an un-synced size
//! extension) — is the ordinary crash artifact (the edit never
//! committed): it is discarded and the file truncated. A *complete*,
//! non-zero record whose CRC fails (or that exceeds the record bound),
//! or a checksummed record that does not decode, is corruption past the
//! commit point and fails the open — losing a mid-file edit silently
//! would unregister live tables and let the debris sweep delete real
//! data.
//!
//! Ordering invariant: the table list is kept newest-first, and every
//! edit preserves recency order (a compaction output sits exactly where
//! its newest input sat). Readers rely on this for newest-wins shadowing.

use crate::batch::{put_varint, take_varint};
use crate::error::{Result, StorageError};
use crate::wal::{self, Stop, SyncPolicy, Wal};
use std::path::{Path, PathBuf};

/// Current manifest log file name.
pub const MANIFEST_NAME: &str = "MANIFEST.log";
/// Temp name used during checkpoint rewrite (renamed over the log).
const TMP_NAME: &str = "MANIFEST.log.tmp";

/// Edits accumulated since the last checkpoint before the log is
/// rewritten as a single snapshot.
const CHECKPOINT_EVERY: usize = 64;

const TAG_SNAPSHOT: u64 = 1;
const TAG_FLUSH: u64 = 2;
const TAG_COMPACT: u64 = 3;

/// One durable transition of the table set.
#[derive(Debug, Clone)]
pub enum ManifestEdit {
    /// A memtable flush produced `table`; it becomes the newest.
    Flush {
        /// The newly sealed table's id.
        table: u64,
    },
    /// A compaction replaced the contiguous run `removed` (listed
    /// newest-first) with `added`, at the newest removed position.
    Compact {
        /// The merge output's id.
        added: u64,
        /// Input table ids, newest-first; must be live and contiguous.
        removed: Vec<u64>,
    },
}

/// The recovered table set.
#[derive(Debug, Clone, Default)]
pub struct ManifestState {
    /// Live table ids (the `sst-<id>.sst` names), newest-first.
    pub tables: Vec<u64>,
    /// Next table id to allocate.
    pub next_id: u64,
    /// True when a torn (uncommitted) trailing record was discarded.
    pub recovered_torn_tail: bool,
}

/// Open handle to the manifest log; owns appends and checkpoints.
#[derive(Debug)]
pub struct Manifest {
    dir: PathBuf,
    log: Wal,
    edits_since_checkpoint: usize,
}

impl Manifest {
    /// Opens (or, in a directory without tables, creates) the manifest
    /// for `dir` and returns the recovered table set.
    ///
    /// `have_tables` tells the corruption heuristic whether any
    /// `sst-*.sst` files exist: a missing manifest log, or one with
    /// *zero* decodable records, is a fresh directory or a benign
    /// create-crash only when there is nothing on disk it could have
    /// been tracking.
    pub fn open(dir: &Path, have_tables: bool) -> Result<(Manifest, ManifestState)> {
        let log_path = dir.join(MANIFEST_NAME);
        let tmp_path = dir.join(TMP_NAME);
        if tmp_path.exists() {
            // A checkpoint that never reached its rename; the log is
            // still authoritative.
            std::fs::remove_file(&tmp_path)
                .map_err(|e| StorageError::io("removing stale manifest temp file", e))?;
        }

        let bytes = wal::read(&log_path)?;
        let scan = wal::scan(&bytes);
        match scan.stop {
            Stop::End | Stop::Torn => {}
            Stop::Corrupt { offset } => {
                return Err(StorageError::ChecksumMismatch { path: log_path, offset })
            }
        }
        if scan.records.is_empty() {
            if have_tables {
                // Tables with no record to own them: the log was deleted
                // or destroyed (checkpoints install via rename, so a
                // legitimate log always starts with one complete
                // snapshot). Refuse rather than sweep them as debris.
                return Err(StorageError::corrupt(
                    &log_path,
                    "manifest log holds no decodable record next to existing tables",
                ));
            }
            // A fresh directory, or a crash while its first log was
            // being created.
            let state = ManifestState {
                tables: Vec::new(),
                next_id: 1,
                recovered_torn_tail: scan.stop == Stop::Torn,
            };
            return Ok((Self::create_checkpoint(dir, &state)?, state));
        }
        let mut state = ManifestState {
            next_id: 1,
            recovered_torn_tail: scan.stop == Stop::Torn,
            ..ManifestState::default()
        };
        for payload in &scan.records {
            apply_record(&log_path, payload, &mut state)?;
        }
        // The allocator can never sit at or below a live id.
        let max_live = state.tables.iter().copied().max().unwrap_or(0);
        state.next_id = state.next_id.max(max_live + 1);

        let manifest = Manifest {
            dir: dir.to_path_buf(),
            log: Wal::open_for_append(&log_path, SyncPolicy::Always, scan.valid_len)?,
            edits_since_checkpoint: scan.records.len().saturating_sub(1),
        };
        Ok((manifest, state))
    }

    /// Appends one edit durably (write + fsync). This is the commit
    /// point for the table-set transition the edit describes: callers
    /// must have fsynced any added table files *before* this call, and
    /// must delete removed files only *after* it returns.
    ///
    /// `live` and `next_id` describe the post-edit state; they feed the
    /// periodic checkpoint rewrite.
    pub fn append(&mut self, edit: &ManifestEdit, live: &[u64], next_id: u64) -> Result<()> {
        self.log.append(&encode_edit(edit, next_id))?;
        self.edits_since_checkpoint += 1;
        if self.edits_since_checkpoint >= CHECKPOINT_EVERY {
            self.checkpoint(live, next_id)?;
        }
        Ok(())
    }

    /// Rewrites the log as a single snapshot record via temp + rename.
    fn checkpoint(&mut self, live: &[u64], next_id: u64) -> Result<()> {
        let state = ManifestState { tables: live.to_vec(), next_id, recovered_torn_tail: false };
        let fresh = Self::create_checkpoint(&self.dir, &state)?;
        *self = fresh;
        Ok(())
    }

    /// Writes a new log containing one snapshot record and atomically
    /// installs it, returning the open handle.
    fn create_checkpoint(dir: &Path, state: &ManifestState) -> Result<Manifest> {
        let tmp_path = dir.join(TMP_NAME);
        let log_path = dir.join(MANIFEST_NAME);
        let mut tmp = Wal::create(&tmp_path, SyncPolicy::Always)?;
        tmp.append(&encode_snapshot(state))?;
        let len = tmp.len();
        drop(tmp);
        std::fs::rename(&tmp_path, &log_path)
            .map_err(|e| StorageError::io("installing manifest checkpoint", e))?;
        let log = Wal::open_for_append(&log_path, SyncPolicy::Always, len)?;
        Ok(Manifest { dir: dir.to_path_buf(), log, edits_since_checkpoint: 0 })
    }
}

fn encode_snapshot(state: &ManifestState) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, TAG_SNAPSHOT);
    put_varint(&mut out, state.next_id);
    put_varint(&mut out, state.tables.len() as u64);
    for id in &state.tables {
        put_varint(&mut out, *id);
    }
    out
}

fn encode_edit(edit: &ManifestEdit, next_id: u64) -> Vec<u8> {
    let mut out = Vec::new();
    match edit {
        ManifestEdit::Flush { table } => {
            put_varint(&mut out, TAG_FLUSH);
            put_varint(&mut out, next_id);
            put_varint(&mut out, *table);
        }
        ManifestEdit::Compact { added, removed } => {
            put_varint(&mut out, TAG_COMPACT);
            put_varint(&mut out, next_id);
            put_varint(&mut out, *added);
            put_varint(&mut out, removed.len() as u64);
            for id in removed {
                put_varint(&mut out, *id);
            }
        }
    }
    out
}

/// Applies one decoded record to `state`. Any malformed payload is
/// corruption (its CRC already passed).
fn apply_record(path: &Path, payload: &[u8], state: &mut ManifestState) -> Result<()> {
    let bad = |detail: &str| StorageError::corrupt(path, detail);
    let mut pos = 0usize;
    let tag = take_varint(payload, &mut pos).ok_or_else(|| bad("manifest record missing tag"))?;
    let next_id =
        take_varint(payload, &mut pos).ok_or_else(|| bad("manifest record missing next_id"))?;
    match tag {
        TAG_SNAPSHOT => {
            let count = take_varint(payload, &mut pos)
                .ok_or_else(|| bad("manifest snapshot missing table count"))?;
            let mut tables = Vec::new();
            for _ in 0..count {
                tables.push(
                    take_varint(payload, &mut pos)
                        .ok_or_else(|| bad("manifest snapshot truncated table id"))?,
                );
            }
            state.tables = tables;
        }
        TAG_FLUSH => {
            let id = take_varint(payload, &mut pos)
                .ok_or_else(|| bad("manifest flush missing table id"))?;
            state.tables.insert(0, id);
        }
        TAG_COMPACT => {
            let added_id = take_varint(payload, &mut pos)
                .ok_or_else(|| bad("manifest compact missing added id"))?;
            let count = take_varint(payload, &mut pos)
                .ok_or_else(|| bad("manifest compact missing removed count"))?;
            let mut removed = Vec::new();
            for _ in 0..count {
                removed.push(
                    take_varint(payload, &mut pos)
                        .ok_or_else(|| bad("manifest compact truncated removed id"))?,
                );
            }
            if removed.is_empty() {
                return Err(bad("manifest compact removes nothing"));
            }
            let at = state
                .tables
                .iter()
                .position(|t| Some(*t) == removed.first().copied())
                .ok_or_else(|| bad("manifest compact removes an unknown table"))?;
            for id in &removed {
                let idx = state
                    .tables
                    .iter()
                    .position(|t| t == id)
                    .ok_or_else(|| bad("manifest compact removes an unknown table"))?;
                state.tables.remove(idx);
            }
            state.tables.insert(at.min(state.tables.len()), added_id);
        }
        _ => return Err(bad("manifest record with unknown tag")),
    }
    if pos != payload.len() {
        return Err(bad("manifest record carries trailing bytes"));
    }
    state.next_id = next_id;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    #[test]
    fn fresh_open_then_edits_replay() {
        let dir = TempDir::new("manifest-fresh");
        let (mut m, state) = Manifest::open(dir.path(), false).unwrap();
        assert!(state.tables.is_empty());
        assert_eq!(state.next_id, 1);

        m.append(&ManifestEdit::Flush { table: 1 }, &[1], 2).unwrap();
        m.append(&ManifestEdit::Flush { table: 2 }, &[2, 1], 3).unwrap();
        drop(m);

        let (_, state) = Manifest::open(dir.path(), true).unwrap();
        assert_eq!(state.tables, vec![2, 1]);
        assert_eq!(state.next_id, 3);
        assert!(!state.recovered_torn_tail);
    }

    #[test]
    fn compact_edit_preserves_recency_position() {
        let dir = TempDir::new("manifest-compact");
        let (mut m, _) = Manifest::open(dir.path(), false).unwrap();
        let full = [4, 3, 2, 1];
        for (i, t) in full.iter().rev().enumerate() {
            m.append(&ManifestEdit::Flush { table: *t }, &full[full.len() - 1 - i..], t + 1)
                .unwrap();
        }
        // Merge the middle run [3, 2] into table 5.
        m.append(&ManifestEdit::Compact { added: 5, removed: vec![3, 2] }, &[4, 5, 1], 6).unwrap();
        drop(m);

        let (_, state) = Manifest::open(dir.path(), true).unwrap();
        assert_eq!(state.tables, vec![4, 5, 1]);
        assert_eq!(state.next_id, 6);
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated() {
        let dir = TempDir::new("manifest-torn");
        let (mut m, _) = Manifest::open(dir.path(), false).unwrap();
        m.append(&ManifestEdit::Flush { table: 1 }, &[1], 2).unwrap();
        drop(m);
        // Simulate a crash mid-append: half a header.
        let path = dir.path().join(MANIFEST_NAME);
        let mut bytes = std::fs::read(&path).unwrap();
        let before = bytes.len();
        bytes.extend_from_slice(&[9, 0, 0]);
        std::fs::write(&path, &bytes).unwrap();

        let (_, state) = Manifest::open(dir.path(), true).unwrap();
        assert_eq!(state.tables, vec![1]);
        assert!(state.recovered_torn_tail);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before as u64);
    }

    #[test]
    fn complete_record_with_bad_crc_is_corruption() {
        let dir = TempDir::new("manifest-badcrc");
        let (mut m, _) = Manifest::open(dir.path(), false).unwrap();
        m.append(&ManifestEdit::Flush { table: 1 }, &[1], 2).unwrap();
        drop(m);
        let path = dir.path().join(MANIFEST_NAME);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(Manifest::open(dir.path(), true).is_err());
    }

    #[test]
    fn checkpoint_compacts_the_log() {
        let dir = TempDir::new("manifest-checkpoint");
        let (mut m, _) = Manifest::open(dir.path(), false).unwrap();
        let live = [1];
        for _ in 0..(CHECKPOINT_EVERY + 3) {
            m.append(&ManifestEdit::Flush { table: 1 }, &live, 2).unwrap();
        }
        drop(m);
        let path = dir.path().join(MANIFEST_NAME);
        let bytes = std::fs::read(&path).unwrap();
        // Far smaller than CHECKPOINT_EVERY appended records.
        assert!(bytes.len() < CHECKPOINT_EVERY * 8, "log was checkpointed: {}", bytes.len());
        let (_, state) = Manifest::open(dir.path(), true).unwrap();
        assert_eq!(state.next_id, 2);
    }

    #[test]
    fn destroyed_log_with_tables_is_an_error_but_fresh_crash_is_not() {
        let dir = TempDir::new("manifest-destroyed");
        std::fs::write(dir.path().join(MANIFEST_NAME), [3u8, 0]).unwrap();
        // No tables on disk: a crash during the very first create.
        let (_, state) = Manifest::open(dir.path(), false).unwrap();
        assert!(state.tables.is_empty());
        drop(state);

        let dir = TempDir::new("manifest-destroyed-tables");
        std::fs::write(dir.path().join(MANIFEST_NAME), [3u8, 0]).unwrap();
        assert!(Manifest::open(dir.path(), true).is_err());
    }

    #[test]
    fn a_table_record_with_an_extra_field_is_corruption() {
        // Snapshot of one table (id 1) followed by one more varint, the
        // shape of a log written when table records carried a second field.
        let dir = TempDir::new("manifest-extra-field");
        let mut log = Wal::create(dir.path().join(MANIFEST_NAME), SyncPolicy::Always).unwrap();
        log.append(&[TAG_SNAPSHOT as u8, 2, 1, 1, 5]).unwrap();
        drop(log);
        assert!(Manifest::open(dir.path(), true).is_err());
    }

    #[test]
    fn stale_tmp_file_is_cleaned_up() {
        let dir = TempDir::new("manifest-tmp");
        let (mut m, _) = Manifest::open(dir.path(), false).unwrap();
        m.append(&ManifestEdit::Flush { table: 1 }, &[1], 2).unwrap();
        drop(m);
        std::fs::write(dir.path().join(TMP_NAME), b"half a checkpoint").unwrap();
        let (_, state) = Manifest::open(dir.path(), true).unwrap();
        assert_eq!(state.tables, vec![1]);
        assert!(!dir.path().join(TMP_NAME).exists());
    }
}
