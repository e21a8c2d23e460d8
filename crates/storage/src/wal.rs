//! The record log behind the WAL, the cross-shard intent log and the
//! manifest: one frame, one scanner, one append handle.
//!
//! Frame: `[len: u32 LE][crc32c(len ‖ payload): u32 LE][payload]`. The
//! CRC covers the length prefix too, so an all-zero header never
//! validates (crc32c of four zero bytes is not zero).
//!
//! [`scan`] walks a log's bytes up to the first frame that is not a
//! valid record and reports why it stopped ([`Stop`]):
//!
//! * **torn** — the frame runs past EOF, or every byte from the stop
//!   point to EOF is zero (what an un-synced size extension leaves after
//!   a crash): the ordinary artifact of an interrupted append;
//! * **corrupt** — a complete, non-zero frame fails its CRC or declares
//!   a length over [`MAX_RECORD_LEN`].
//!
//! The codec has no policy; each caller decides with one `match`. The
//! WAL and the intent log treat any stop as the end of the log (a single
//! scan cannot tell corruption before the tail from the tail), the
//! manifest fails its open unless its file is exactly one valid record.
//! Reopening with
//! [`Wal::open_for_append`] at the scan's `valid_len` truncates whatever
//! was discarded, so later appends never interleave with garbage. This
//! is the mechanism behind the paper's reliability criterion: after a
//! crash, the visible state is exactly a prefix of the committed
//! operations.

use crate::batch::take_u32_le;
use crate::crc::Crc32c;
use crate::error::{Result, StorageError};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Largest record payload: [`Wal::append`] refuses a longer one before
/// writing anything, and [`scan`] reports a longer frame as corrupt.
pub const MAX_RECORD_LEN: usize = 256 << 20;

/// Controls when appends reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// `fsync` after every record: maximal durability, slowest.
    Always,
    /// Flush userspace buffers per record, `fsync` only on engine flush.
    /// Survives process crashes, not OS crashes. The default.
    #[default]
    OnWrite,
    /// Buffer freely; sync only on close/flush. Fastest, least durable.
    Lazy,
}

/// An append-only log writer.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    writer: BufWriter<File>,
    policy: SyncPolicy,
    len: u64,
}

impl Wal {
    /// Creates (or truncates) a log at `path`.
    pub fn create(path: impl Into<PathBuf>, policy: SyncPolicy) -> Result<Self> {
        Self::open_for_append(path, policy, 0)
    }

    /// Opens the log at `path` (creating it when missing) for appending
    /// at `offset` — the `valid_len` its [`scan`] found — and truncates
    /// everything past it.
    pub fn open_for_append(
        path: impl Into<PathBuf>,
        policy: SyncPolicy,
        offset: u64,
    ) -> Result<Self> {
        let path = path.into();
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| StorageError::io(format!("opening log {}", path.display()), e))?;
        let mut wal = Wal { path, writer: BufWriter::new(file), policy, len: 0 };
        wal.truncate(offset)?;
        Ok(wal)
    }

    /// Appends one record; returns its starting offset.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        // Checked before anything is checksummed or written: recovery
        // stops at a longer record and would drop it with every record
        // after it.
        if payload.len() > MAX_RECORD_LEN {
            return Err(StorageError::corrupt(
                &self.path,
                format!("{}-byte record exceeds the {MAX_RECORD_LEN}-byte limit", payload.len()),
            ));
        }
        let offset = self.len;
        let written =
            self.writer.write_all(&header(payload)).and_then(|()| self.writer.write_all(payload));
        if let Err(e) = written {
            // Cut the partial frame so the next append starts on a
            // record boundary instead of behind garbage.
            self.truncate(offset)?;
            return Err(StorageError::io("appending log record", e));
        }
        self.len += 8 + payload.len() as u64;
        match self.policy {
            SyncPolicy::Always => self.sync()?,
            SyncPolicy::OnWrite => {
                self.writer.flush().map_err(|e| StorageError::io("flushing log buffer", e))?
            }
            SyncPolicy::Lazy => {}
        }
        Ok(offset)
    }

    /// Empties the log; the truncation is synced under
    /// [`SyncPolicy::Always`].
    pub fn reset(&mut self) -> Result<()> {
        self.truncate(0)?;
        if self.policy == SyncPolicy::Always {
            self.sync()?;
        }
        Ok(())
    }

    /// Moves the append position to `offset` and cuts the file there.
    fn truncate(&mut self, offset: u64) -> Result<()> {
        // Seeking flushes the buffer first, so nothing lands past the cut.
        self.writer
            .seek(SeekFrom::Start(offset))
            .map_err(|e| StorageError::io("seeking log append position", e))?;
        self.writer.get_ref().set_len(offset).map_err(|e| StorageError::io("truncating log", e))?;
        self.len = offset;
        Ok(())
    }

    /// Flushes buffers and `fsync`s the file.
    pub fn sync(&mut self) -> Result<()> {
        self.writer.flush().map_err(|e| StorageError::io("flushing log buffer", e))?;
        self.writer.get_ref().sync_data().map_err(|e| StorageError::io("fsyncing log", e))
    }

    /// Bytes of valid log written so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no records have been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The `[len][crc32c(len ‖ payload)]` header of `payload`'s frame.
/// Callers keep `payload` within [`MAX_RECORD_LEN`].
fn header(payload: &[u8]) -> [u8; 8] {
    (payload.len() as u64 | u64::from(frame_crc(payload)) << 32).to_le_bytes()
}

/// crc32c over the frame's length prefix and payload.
fn frame_crc(payload: &[u8]) -> u32 {
    let mut crc = Crc32c::new();
    crc.update(&(payload.len() as u32).to_le_bytes());
    crc.update(payload);
    crc.finish()
}

/// Why [`scan`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// Every byte belonged to a valid record.
    End,
    /// An interrupted append: the frame runs past EOF, or only zero
    /// bytes remain.
    Torn,
    /// A complete, non-zero frame fails its CRC or exceeds
    /// [`MAX_RECORD_LEN`].
    Corrupt {
        /// Start of the bad frame.
        offset: u64,
    },
}

/// The valid prefix of a log.
#[derive(Debug)]
pub struct Scan<'a> {
    /// Every valid record payload, in append order.
    pub records: Vec<&'a [u8]>,
    /// Length of the valid prefix: where the next append belongs.
    pub valid_len: u64,
    /// Why the scan stopped.
    pub stop: Stop,
}

/// Reads a whole log file; a missing file is an empty log.
pub fn read(path: &Path) -> Result<Vec<u8>> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(StorageError::io(format!("reading log {}", path.display()), e)),
    }
}

/// Splits `bytes` into its valid records, stopping at the first frame
/// that is not one.
pub fn scan(bytes: &[u8]) -> Scan<'_> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let stop = loop {
        let rest = bytes.get(pos..).unwrap_or_default();
        if rest.is_empty() {
            break Stop::End;
        }
        let (Some(len), Some(crc)) = (take_u32_le(rest, 0), take_u32_le(rest, 4)) else {
            break Stop::Torn;
        };
        let payload = rest.get(8..).and_then(|body| body.get(..len as usize));
        let oversize = len as usize > MAX_RECORD_LEN;
        match payload {
            Some(payload) if !oversize && frame_crc(payload) == crc => {
                records.push(payload);
                pos += 8 + payload.len();
            }
            _ if rest.iter().all(|&b| b == 0) => break Stop::Torn,
            Some(_) => break Stop::Corrupt { offset: pos as u64 },
            None if oversize => break Stop::Corrupt { offset: pos as u64 },
            None => break Stop::Torn,
        }
    };
    Scan { records, valid_len: pos as u64, stop }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    /// Reads and scans the log at `path`, owning the records.
    fn recover(path: &Path) -> (Vec<Vec<u8>>, u64, Stop) {
        let bytes = read(path).unwrap();
        let scan = scan(&bytes);
        (scan.records.iter().map(|r| r.to_vec()).collect(), scan.valid_len, scan.stop)
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        [&header(payload)[..], payload].concat()
    }

    #[test]
    fn append_and_recover_round_trip() {
        let dir = TempDir::new("wal-rt");
        let path = dir.path().join("wal.log");
        let mut wal = Wal::create(&path, SyncPolicy::OnWrite).unwrap();
        wal.append(b"first").unwrap();
        wal.append(b"").unwrap();
        wal.append(b"third record").unwrap();
        drop(wal);

        let (records, _, stop) = recover(&path);
        assert_eq!(stop, Stop::End);
        assert_eq!(records, vec![b"first".to_vec(), b"".to_vec(), b"third record".to_vec()]);
    }

    #[test]
    fn missing_file_recovers_empty() {
        let dir = TempDir::new("wal-missing");
        let (records, valid_len, _) = recover(&dir.path().join("nope.log"));
        assert!(records.is_empty());
        assert_eq!(valid_len, 0);
    }

    #[test]
    fn torn_tail_is_discarded_at_every_truncation_point() {
        let dir = TempDir::new("wal-torn");
        let path = dir.path().join("wal.log");
        let mut wal = Wal::create(&path, SyncPolicy::OnWrite).unwrap();
        wal.append(b"record one").unwrap();
        let second_start = wal.append(b"record two!").unwrap();
        let full = wal.len();
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();

        // Truncating anywhere inside record two must recover exactly record one.
        for cut in second_start + 1..full {
            std::fs::write(&path, &bytes[..cut as usize]).unwrap();
            let (records, valid_len, stop) = recover(&path);
            assert_eq!(records.len(), 1, "cut at {cut}");
            assert_eq!(records[0], b"record one");
            assert_eq!(valid_len, second_start);
            assert_eq!(stop, Stop::Torn);
        }
    }

    #[test]
    fn corrupted_payload_byte_stops_recovery() {
        let dir = TempDir::new("wal-corrupt");
        let path = dir.path().join("wal.log");
        let mut wal = Wal::create(&path, SyncPolicy::OnWrite).unwrap();
        wal.append(b"good record").unwrap();
        wal.append(b"will be corrupted").unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let (records, _, stop) = recover(&path);
        assert_eq!(records, vec![b"good record".to_vec()]);
        assert_ne!(stop, Stop::End);
    }

    #[test]
    fn append_after_recovery_continues_cleanly() {
        let dir = TempDir::new("wal-cont");
        let path = dir.path().join("wal.log");
        let mut wal = Wal::create(&path, SyncPolicy::OnWrite).unwrap();
        wal.append(b"one").unwrap();
        drop(wal);
        // Simulate a torn append.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[42, 0, 0, 0]); // half a header
        std::fs::write(&path, &bytes).unwrap();

        let (_, valid_len, stop) = recover(&path);
        assert_eq!(stop, Stop::Torn);
        let mut wal = Wal::open_for_append(&path, SyncPolicy::OnWrite, valid_len).unwrap();
        wal.append(b"two").unwrap();
        drop(wal);

        let (records, _, stop) = recover(&path);
        assert_eq!(stop, Stop::End);
        assert_eq!(records, vec![b"one".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn sync_policies_all_persist_after_drop() {
        for policy in [SyncPolicy::Always, SyncPolicy::OnWrite, SyncPolicy::Lazy] {
            let dir = TempDir::new("wal-sync");
            let path = dir.path().join("wal.log");
            let mut wal = Wal::create(&path, policy).unwrap();
            wal.append(b"data").unwrap();
            wal.sync().unwrap();
            drop(wal);
            let (records, _, _) = recover(&path);
            assert_eq!(records.len(), 1, "{policy:?}");
        }
    }

    #[test]
    fn scanner_reports_valid_len_and_stop_reason() {
        let one = frame(b"first record");
        let two = frame(b"second");
        let clean = [one.clone(), two.clone()].concat();
        let end = clean.len() as u64;
        let mut last_flipped = clean.clone();
        *last_flipped.last_mut().unwrap() ^= 0x01;
        let mut mid_flipped = [clean.clone(), frame(b"after")].concat();
        mid_flipped[10] ^= 0x01;
        let oversize = (MAX_RECORD_LEN as u32 + 1).to_le_bytes();
        // The pre-change frame checksummed the payload alone.
        let payload_only_crc =
            [&6u32.to_le_bytes()[..], &crate::crc::crc32c(b"second").to_le_bytes(), b"second"]
                .concat();
        let cases: Vec<(&str, Vec<u8>, u64, Stop)> = vec![
            ("empty", Vec::new(), 0, Stop::End),
            ("clean log", clean.clone(), end, Stop::End),
            ("short header", [&clean[..], &[7, 0, 0]].concat(), end, Stop::Torn),
            ("short payload", [&clean[..], &frame(b"cut short")[..12]].concat(), end, Stop::Torn),
            ("zero remainder", [&clean[..], &[0u8; 4096][..]].concat(), end, Stop::Torn),
            ("zero header only", vec![0u8; 8], 0, Stop::Torn),
            (
                "last byte flipped",
                last_flipped,
                one.len() as u64,
                Stop::Corrupt { offset: one.len() as u64 },
            ),
            ("mid-log byte flipped", mid_flipped, 0, Stop::Corrupt { offset: 0 }),
            (
                "payload-only CRC",
                [&one[..], &payload_only_crc[..]].concat(),
                one.len() as u64,
                Stop::Corrupt { offset: one.len() as u64 },
            ),
            (
                "length over the bound",
                [&clean[..], &oversize[..], &[1, 2, 3, 4, 5, 6]].concat(),
                end,
                Stop::Corrupt { offset: end },
            ),
        ];
        for (name, bytes, valid_len, stop) in cases {
            let scan = scan(&bytes);
            assert_eq!(scan.valid_len, valid_len, "{name}");
            assert_eq!(scan.stop, stop, "{name}");
            let kept: usize = scan.records.iter().map(|r| r.len() + 8).sum();
            assert_eq!(kept as u64, valid_len, "{name}: records cover the valid prefix");
        }
    }

    #[test]
    fn append_refuses_a_record_recovery_would_drop() {
        let dir = TempDir::new("wal-bound");
        let path = dir.path().join("wal.log");
        let mut wal = Wal::create(&path, SyncPolicy::OnWrite).unwrap();
        wal.append(b"kept").unwrap();
        let before = wal.len();
        assert!(wal.append(&vec![0u8; MAX_RECORD_LEN + 1]).is_err());
        assert_eq!(wal.len(), before);
        drop(wal);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before, "nothing was written");
        let (records, _, stop) = recover(&path);
        assert_eq!((records, stop), (vec![b"kept".to_vec()], Stop::End));
    }
}
