//! Immutable sorted string tables.
//!
//! Layout:
//!
//! ```text
//! [block 0][block 1]…[block n-1][index][bloom][footer]
//! ```
//!
//! * **Block** — a run of entries (`varint klen, key, tag, [varint vlen,
//!   value]`; tag 0 = tombstone, 1 = value) followed by a CRC-32C of the
//!   run. Blocks are cut at [`TableOptions::block_bytes`].
//! * **Index** — `(first_key, offset, len)` per block, CRC-protected,
//!   loaded into memory when the table opens; point reads binary-search it
//!   and touch exactly one block.
//! * **Bloom** — a filter over all keys; negative lookups skip the table.
//! * **Footer** — fixed-width trailer with section offsets and a magic.
//!
//! Ordered reads go through [`TableCursor`], which reads one verified
//! block at a time into a buffer it reuses and lends each entry as
//! slices of it (see [`crate::iter`]); `parse_entry` is the one block
//! parser. Point reads copy a block's entries once, into the shared
//! block cache, and copy out the value they return.
//!
//! A builder writes through one 1 MiB buffer (`WRITE_BUF`), so a table
//! leaves in about one `write(2)` per MiB. A reader does every read —
//! footer, index, bloom, block — as one positioned `pread` on a shared
//! file handle, so concurrent point reads of one table take no lock.

use crate::batch::{put_varint, take_u32_le, take_u64_le, take_varint};
use crate::bloom::BloomFilter;
use crate::cache::BlockCache;
use crate::crc::crc32c;
use crate::error::{Result, StorageError};
use crate::iter::{Cursor, EntryRef};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"PASSSST1";
const FOOTER_LEN: u64 = 8 + 8 + 4 + 8 + 8 + 4 + 8 + 8;
/// Bytes a [`TableBuilder`] buffers between `write(2)` calls.
const WRITE_BUF: usize = 1 << 20;
/// Bloom filter budget per key: about a 1 % false-positive rate.
const BLOOM_BITS_PER_KEY: usize = 10;

/// Tuning knobs for table construction.
#[derive(Debug, Clone)]
pub struct TableOptions {
    /// Target uncompressed block payload size.
    pub block_bytes: usize,
}

impl Default for TableOptions {
    fn default() -> Self {
        TableOptions { block_bytes: 4096 }
    }
}

/// One decoded entry: key and live-value-or-tombstone.
pub type Entry = (Vec<u8>, Option<Vec<u8>>);

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Streams sorted entries into a new table file.
pub struct TableBuilder {
    writer: BufWriter<File>,
    path: PathBuf,
    opts: TableOptions,
    block: Vec<u8>,
    block_first_key: Option<Vec<u8>>,
    index: Vec<(Vec<u8>, u64, u64)>,
    bloom: BloomFilter,
    offset: u64,
    entry_count: u64,
    /// The previous key, for the order check; one buffer, reused.
    last_key: Vec<u8>,
}

impl TableBuilder {
    /// Creates a builder writing to `path`. `expected_entries` sizes the
    /// bloom filter.
    pub fn create(
        path: impl Into<PathBuf>,
        expected_entries: usize,
        opts: TableOptions,
    ) -> Result<Self> {
        let path = path.into();
        let file = File::create(&path)
            .map_err(|e| StorageError::io(format!("creating SSTable {}", path.display()), e))?;
        let bloom = BloomFilter::with_capacity(expected_entries, BLOOM_BITS_PER_KEY);
        Ok(TableBuilder {
            writer: BufWriter::with_capacity(WRITE_BUF, file),
            path,
            opts,
            block: Vec::new(),
            block_first_key: None,
            index: Vec::new(),
            bloom,
            offset: 0,
            entry_count: 0,
            last_key: Vec::new(),
        })
    }

    /// Appends an entry. Keys must arrive in strictly increasing order.
    pub fn add(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        if self.entry_count > 0 && key <= self.last_key.as_slice() {
            return Err(StorageError::corrupt(
                &self.path,
                format!("keys out of order: {:?} after {:?}", key, self.last_key),
            ));
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        if self.block_first_key.is_none() {
            self.block_first_key = Some(key.to_vec());
        }
        put_varint(&mut self.block, key.len() as u64);
        self.block.extend_from_slice(key);
        match value {
            None => self.block.push(0),
            Some(v) => {
                self.block.push(1);
                put_varint(&mut self.block, v.len() as u64);
                self.block.extend_from_slice(v);
            }
        }
        self.bloom.insert(key);
        self.entry_count += 1;
        if self.block.len() >= self.opts.block_bytes {
            self.finish_block()?;
        }
        Ok(())
    }

    fn finish_block(&mut self) -> Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let crc = crc32c(&self.block);
        let len = self.block.len() as u64 + 4;
        let first = self.block_first_key.take().ok_or_else(|| {
            StorageError::corrupt(&self.path, "non-empty block without a first key")
        })?;
        self.writer
            .write_all(&self.block)
            .and_then(|()| self.writer.write_all(&crc.to_le_bytes()))
            .map_err(|e| StorageError::io("writing SSTable block", e))?;
        self.index.push((first, self.offset, len));
        self.offset += len;
        self.block.clear();
        Ok(())
    }

    /// Finalizes the file (index, bloom, footer, fsync).
    pub fn finish(mut self) -> Result<()> {
        self.finish_block()?;

        let mut index_buf = Vec::new();
        put_varint(&mut index_buf, self.index.len() as u64);
        for (first_key, offset, len) in &self.index {
            put_varint(&mut index_buf, first_key.len() as u64);
            index_buf.extend_from_slice(first_key);
            put_varint(&mut index_buf, *offset);
            put_varint(&mut index_buf, *len);
        }
        let index_off = self.offset;
        let index_crc = crc32c(&index_buf);
        self.writer
            .write_all(&index_buf)
            .map_err(|e| StorageError::io("writing SSTable index", e))?;

        let bloom_buf = self.bloom.encode();
        let bloom_off = index_off + index_buf.len() as u64;
        let bloom_crc = crc32c(&bloom_buf);
        self.writer
            .write_all(&bloom_buf)
            .map_err(|e| StorageError::io("writing SSTable bloom", e))?;

        let mut footer = Vec::with_capacity(FOOTER_LEN as usize);
        footer.extend_from_slice(&index_off.to_le_bytes());
        footer.extend_from_slice(&(index_buf.len() as u64).to_le_bytes());
        footer.extend_from_slice(&index_crc.to_le_bytes());
        footer.extend_from_slice(&bloom_off.to_le_bytes());
        footer.extend_from_slice(&(bloom_buf.len() as u64).to_le_bytes());
        footer.extend_from_slice(&bloom_crc.to_le_bytes());
        footer.extend_from_slice(&self.entry_count.to_le_bytes());
        footer.extend_from_slice(MAGIC);
        self.writer
            .write_all(&footer)
            .map_err(|e| StorageError::io("writing SSTable footer", e))?;
        self.writer.flush().map_err(|e| StorageError::io("flushing SSTable", e))?;
        self.writer.get_ref().sync_data().map_err(|e| StorageError::io("fsyncing SSTable", e))?;
        Ok(())
    }

    /// Entries added so far.
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// An open, immutable table.
pub struct SsTable {
    path: PathBuf,
    file: File,
    index: Vec<(Vec<u8>, u64, u64)>,
    bloom: BloomFilter,
    entry_count: u64,
    data_len: u64,
    file_len: u64,
    /// Shared block cache for point reads; `None` ⇒ every read hits disk.
    cache: Option<Arc<BlockCache>>,
    /// Process-unique cache key component (fresh per open — see
    /// [`crate::cache`]).
    cache_id: u64,
}

impl std::fmt::Debug for SsTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsTable")
            .field("path", &self.path)
            .field("blocks", &self.index.len())
            .field("entries", &self.entry_count)
            .finish()
    }
}

impl SsTable {
    /// Opens and validates a table file with no block cache.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        Self::open_with_cache(path, None)
    }

    /// Opens and validates a table file; point reads go through `cache`
    /// when one is given.
    pub fn open_with_cache(
        path: impl Into<PathBuf>,
        cache: Option<Arc<BlockCache>>,
    ) -> Result<Self> {
        let path = path.into();
        let file = File::open(&path)
            .map_err(|e| StorageError::io(format!("opening SSTable {}", path.display()), e))?;
        let file_len = file.metadata().map_err(|e| StorageError::io("statting SSTable", e))?.len();
        if file_len < FOOTER_LEN {
            return Err(StorageError::corrupt(&path, "file shorter than footer"));
        }

        let mut footer = vec![0u8; FOOTER_LEN as usize];
        file.read_exact_at(&mut footer, file_len - FOOTER_LEN)
            .map_err(|e| StorageError::io("reading SSTable footer", e))?;
        if footer.get(FOOTER_LEN as usize - 8..) != Some(MAGIC.as_slice()) {
            return Err(StorageError::corrupt(&path, "bad magic"));
        }
        let truncated = || StorageError::corrupt(&path, "footer field out of range");
        let index_off = take_u64_le(&footer, 0).ok_or_else(truncated)?;
        let index_len = take_u64_le(&footer, 8).ok_or_else(truncated)?;
        let index_crc = take_u32_le(&footer, 16).ok_or_else(truncated)?;
        let bloom_off = take_u64_le(&footer, 20).ok_or_else(truncated)?;
        let bloom_len = take_u64_le(&footer, 28).ok_or_else(truncated)?;
        let bloom_crc = take_u32_le(&footer, 36).ok_or_else(truncated)?;
        let entry_count = take_u64_le(&footer, 40).ok_or_else(truncated)?;
        if index_off + index_len > file_len || bloom_off + bloom_len > file_len {
            return Err(StorageError::corrupt(&path, "footer offsets out of range"));
        }

        let mut index_buf = vec![0u8; index_len as usize];
        file.read_exact_at(&mut index_buf, index_off)
            .map_err(|e| StorageError::io("reading SSTable index", e))?;
        if crc32c(&index_buf) != index_crc {
            return Err(StorageError::ChecksumMismatch { path, offset: index_off });
        }
        let index = decode_index(&index_buf)
            .ok_or_else(|| StorageError::corrupt(&path, "malformed index"))?;

        let mut bloom_buf = vec![0u8; bloom_len as usize];
        file.read_exact_at(&mut bloom_buf, bloom_off)
            .map_err(|e| StorageError::io("reading SSTable bloom", e))?;
        if crc32c(&bloom_buf) != bloom_crc {
            return Err(StorageError::ChecksumMismatch { path, offset: bloom_off });
        }
        let bloom = BloomFilter::decode(&bloom_buf)
            .ok_or_else(|| StorageError::corrupt(&path, "malformed bloom filter"))?;

        Ok(SsTable {
            path,
            file,
            index,
            bloom,
            entry_count,
            data_len: index_off,
            file_len,
            cache,
            cache_id: crate::cache::next_table_id(),
        })
    }

    /// Total entries in the table (tombstones included).
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// Bytes of data blocks (excludes index/bloom/footer).
    pub fn data_len(&self) -> u64 {
        self.data_len
    }

    /// Total on-disk size of the table file.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// The file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Point lookup. Outer `Option`: key present in this table? Inner:
    /// live value vs tombstone.
    pub fn get(&self, key: &[u8]) -> Result<Option<Option<Vec<u8>>>> {
        if self.index.is_empty() || !self.bloom.may_contain(key) {
            return Ok(None);
        }
        // Last block whose first key <= key.
        let idx = self.index.partition_point(|(first, _, _)| first.as_slice() <= key);
        if idx == 0 {
            return Ok(None);
        }
        let entries = self.load_block(idx - 1)?;
        for (k, v) in entries.iter() {
            if k == key {
                return Ok(Some(v.clone()));
            }
        }
        Ok(None)
    }

    /// Reads block `i` through the cache. Misses decode from disk and
    /// populate; sequential readers ([`TableCursor`]) use
    /// [`Self::read_block_into`] instead so full scans and compactions
    /// don't flush the hot set.
    fn load_block(&self, i: usize) -> Result<Arc<Vec<Entry>>> {
        let Some(cache) = &self.cache else {
            return Ok(Arc::new(self.read_entries(i)?));
        };
        let block_no = u32::try_from(i).unwrap_or(u32::MAX);
        if let Some(hit) = cache.get(self.cache_id, block_no) {
            return Ok(hit);
        }
        let entries = Arc::new(self.read_entries(i)?);
        cache.insert(self.cache_id, block_no, Arc::clone(&entries));
        Ok(entries)
    }

    /// Reads block `i` and copies its entries out, for the cache.
    fn read_entries(&self, i: usize) -> Result<Vec<Entry>> {
        let mut block = Vec::new();
        self.read_block_into(i, &mut block)?;
        let malformed = || StorageError::corrupt(&self.path, "malformed block");
        let mut out = Vec::new();
        let mut pos = 0;
        while pos < block.len() {
            let (key, value) = parse_entry(&block, &mut pos).ok_or_else(malformed)?;
            let (key, value) = lend(&block, &key, &value).ok_or_else(malformed)?;
            out.push((key.to_vec(), value.map(<[u8]>::to_vec)));
        }
        Ok(out)
    }

    /// Reads block `i` from the file (no cache) into `buf`, verifies its
    /// CRC and leaves `buf` holding the payload without the trailer.
    fn read_block_into(&self, i: usize, buf: &mut Vec<u8>) -> Result<()> {
        let &(_, offset, len) = self
            .index
            .get(i)
            .ok_or_else(|| StorageError::corrupt(&self.path, format!("block {i} out of range")))?;
        buf.resize(len as usize, 0);
        self.file
            .read_exact_at(buf, offset)
            .map_err(|e| StorageError::io("reading SSTable block", e))?;
        let payload_len = buf
            .len()
            .checked_sub(4)
            .ok_or_else(|| StorageError::corrupt(&self.path, "block shorter than CRC"))?;
        let stored = take_u32_le(buf, payload_len)
            .ok_or_else(|| StorageError::corrupt(&self.path, "block CRC trailer"))?;
        buf.truncate(payload_len);
        if crc32c(buf) != stored {
            return Err(StorageError::ChecksumMismatch { path: self.path.clone(), offset });
        }
        Ok(())
    }

    /// A cursor over every entry in key order.
    pub fn cursor(self: &Arc<Self>) -> TableCursor {
        self.cursor_range(&[], None)
    }

    /// A cursor over the entries with `start <= key < end` (`end = None`
    /// ⇒ unbounded) in key order, one verified block at a time, straight
    /// from the file: the first block is found through the index and
    /// reading stops at the first key past `end`.
    pub fn cursor_range(self: &Arc<Self>, start: &[u8], end: Option<&[u8]>) -> TableCursor {
        let block =
            self.index.partition_point(|(first, _, _)| first.as_slice() <= start).saturating_sub(1);
        TableCursor {
            table: Arc::clone(self),
            next_block: block,
            block: Vec::new(),
            pos: 0,
            current: None,
            start: start.to_vec(),
            end: end.map(<[u8]>::to_vec),
        }
    }
}

/// Where an entry lies in its block: the key's bytes, and the value's
/// (`None` for a tombstone).
type EntryAt = (Range<usize>, Option<Range<usize>>);

/// Streaming [`Cursor`] over a table's entries (see
/// [`SsTable::cursor_range`]). Its one block buffer is reused from block
/// to block and every entry it lends is a slice of it. A block that
/// fails verification is an error from [`Cursor::advance`], after which
/// the cursor is exhausted.
pub struct TableCursor {
    table: Arc<SsTable>,
    next_block: usize,
    /// The current block's verified payload.
    block: Vec<u8>,
    /// Offset of the next entry in `block`.
    pos: usize,
    current: Option<EntryAt>,
    start: Vec<u8>,
    end: Option<Vec<u8>>,
}

impl TableCursor {
    fn exhaust(&mut self) {
        self.current = None;
        self.block.clear();
        self.pos = 0;
        self.next_block = self.table.index.len();
    }

    fn step(&mut self) -> Result<()> {
        loop {
            if self.pos < self.block.len() {
                let malformed = || StorageError::corrupt(&self.table.path, "malformed block");
                let at = parse_entry(&self.block, &mut self.pos).ok_or_else(malformed)?;
                let key = self.block.get(at.0.clone()).ok_or_else(malformed)?;
                if key < self.start.as_slice() {
                    continue;
                }
                if self.end.as_deref().is_some_and(|end| key >= end) {
                    self.exhaust();
                } else {
                    self.current = Some(at);
                }
                return Ok(());
            }
            let Some((first, _, _)) = self.table.index.get(self.next_block) else {
                self.exhaust();
                return Ok(());
            };
            if self.end.as_ref().is_some_and(|end| first >= end) {
                self.exhaust();
                return Ok(());
            }
            self.table.read_block_into(self.next_block, &mut self.block)?;
            self.next_block += 1;
            self.pos = 0;
        }
    }
}

impl Cursor for TableCursor {
    fn entry(&self) -> Option<EntryRef<'_>> {
        let (key, value) = self.current.as_ref()?;
        lend(&self.block, key, value)
    }

    fn advance(&mut self) -> Result<()> {
        self.current = None;
        let stepped = self.step();
        if stepped.is_err() {
            self.exhaust();
        }
        stepped
    }
}

/// The slices of `block` that `key` and `value` locate.
fn lend<'b>(
    block: &'b [u8],
    key: &Range<usize>,
    value: &Option<Range<usize>>,
) -> Option<EntryRef<'b>> {
    let value = match value {
        Some(v) => Some(block.get(v.clone())?),
        None => None,
    };
    Some((block.get(key.clone())?, value))
}

/// Parses the entry at `*pos` of a verified block payload and advances
/// `pos` past it: `varint klen, key, tag, [varint vlen, value]`. `None`
/// on malformed bytes.
fn parse_entry(buf: &[u8], pos: &mut usize) -> Option<EntryAt> {
    let klen = take_varint(buf, pos)? as usize;
    let key = *pos..pos.checked_add(klen)?;
    let tag = *buf.get(key.end)?;
    *pos = key.end + 1;
    let value = match tag {
        0 => None,
        1 => {
            let vlen = take_varint(buf, pos)? as usize;
            let value = *pos..pos.checked_add(vlen)?;
            if value.end > buf.len() {
                return None;
            }
            *pos = value.end;
            Some(value)
        }
        _ => return None,
    };
    Some((key, value))
}

fn decode_index(buf: &[u8]) -> Option<Vec<(Vec<u8>, u64, u64)>> {
    let mut pos = 0usize;
    let count = take_varint(buf, &mut pos)? as usize;
    let mut index = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let klen = take_varint(buf, &mut pos)? as usize;
        let end = pos.checked_add(klen)?;
        let key = buf.get(pos..end)?.to_vec();
        pos = end;
        let offset = take_varint(buf, &mut pos)?;
        let len = take_varint(buf, &mut pos)?;
        index.push((key, offset, len));
    }
    (pos == buf.len()).then_some(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use std::sync::Arc;

    fn build_table(dir: &TempDir, entries: &[(Vec<u8>, Option<Vec<u8>>)]) -> Arc<SsTable> {
        let path = dir.path().join("t.sst");
        let mut b = TableBuilder::create(&path, entries.len(), TableOptions::default()).unwrap();
        for (k, v) in entries {
            b.add(k, v.as_deref()).unwrap();
        }
        b.finish().unwrap();
        Arc::new(SsTable::open(&path).unwrap())
    }

    fn drain(mut cursor: TableCursor) -> Vec<Entry> {
        let mut out = Vec::new();
        cursor.advance().unwrap();
        while let Some((k, v)) = cursor.entry() {
            out.push((k.to_vec(), v.map(<[u8]>::to_vec)));
            cursor.advance().unwrap();
        }
        out
    }

    fn sample_entries(n: u32) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        (0..n)
            .map(|i| {
                let key = format!("key-{i:06}").into_bytes();
                let value = if i % 7 == 0 { None } else { Some(vec![i as u8; 20]) };
                (key, value)
            })
            .collect()
    }

    #[test]
    fn point_lookups_hit_every_entry() {
        let dir = TempDir::new("sst-get");
        let entries = sample_entries(2_000);
        let table = build_table(&dir, &entries);
        assert_eq!(table.entry_count(), 2_000);
        for (k, v) in &entries {
            assert_eq!(
                table.get(k).unwrap(),
                Some(v.clone()),
                "key {:?}",
                String::from_utf8_lossy(k)
            );
        }
    }

    #[test]
    fn absent_keys_return_none() {
        let dir = TempDir::new("sst-miss");
        let table = build_table(&dir, &sample_entries(100));
        assert_eq!(table.get(b"zzz").unwrap(), None);
        assert_eq!(table.get(b"").unwrap(), None);
        assert_eq!(table.get(b"key-000050x").unwrap(), None);
    }

    #[test]
    fn iter_returns_all_in_order() {
        let dir = TempDir::new("sst-iter");
        let entries = sample_entries(500);
        let table = build_table(&dir, &entries);
        let got = drain(table.cursor());
        assert_eq!(got, entries);
    }

    #[test]
    fn iter_range_respects_bounds() {
        let dir = TempDir::new("sst-scan");
        let entries = sample_entries(300);
        let table = build_table(&dir, &entries);
        let scan = |start: &[u8], end: Option<&[u8]>| -> Vec<Entry> {
            drain(table.cursor_range(start, end))
        };
        let got = scan(b"key-000100", Some(b"key-000110"));
        assert_eq!(got.len(), 10);
        assert_eq!(got[0].0, b"key-000100".to_vec());
        assert_eq!(got[9].0, b"key-000109".to_vec());
        // Unbounded scan from a midpoint reaches the end.
        assert_eq!(scan(b"key-000295", None).len(), 5);
        assert!(scan(b"key-000110", Some(b"key-000100")).is_empty(), "inverted bounds");
        assert!(scan(b"zzz", None).is_empty());
    }

    #[test]
    fn out_of_order_keys_rejected() {
        let dir = TempDir::new("sst-order");
        let path = dir.path().join("t.sst");
        let mut b = TableBuilder::create(&path, 2, TableOptions::default()).unwrap();
        b.add(b"b", Some(b"1")).unwrap();
        assert!(b.add(b"a", Some(b"2")).is_err());
        assert!(b.add(b"b", Some(b"2")).is_err(), "duplicates rejected too");
    }

    #[test]
    fn corrupted_block_detected_on_read() {
        let dir = TempDir::new("sst-corrupt");
        let entries = sample_entries(200);
        let table = build_table(&dir, &entries);
        let path = table.path().to_path_buf();
        drop(table);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0xff; // inside the first data block
        std::fs::write(&path, &bytes).unwrap();
        let table = SsTable::open(&path).unwrap(); // footer/index still fine
        let err = table.get(b"key-000001").unwrap_err();
        assert!(matches!(err, StorageError::ChecksumMismatch { .. }));
    }

    #[test]
    fn corrupted_footer_detected_on_open() {
        let dir = TempDir::new("sst-footer");
        let table = build_table(&dir, &sample_entries(10));
        let path = table.path().to_path_buf();
        drop(table);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xff; // magic
        std::fs::write(&path, &bytes).unwrap();
        assert!(SsTable::open(&path).is_err());
    }

    #[test]
    fn empty_table_is_valid() {
        let dir = TempDir::new("sst-empty");
        let table = build_table(&dir, &[]);
        assert_eq!(table.entry_count(), 0);
        assert_eq!(table.get(b"x").unwrap(), None);
        assert!(drain(table.cursor()).is_empty());
    }

    #[test]
    fn cached_reads_hit_after_first_touch() {
        let dir = TempDir::new("sst-cache");
        let entries = sample_entries(500);
        let path = dir.path().join("t.sst");
        let mut b = TableBuilder::create(&path, entries.len(), TableOptions::default()).unwrap();
        for (k, v) in &entries {
            b.add(k, v.as_deref()).unwrap();
        }
        b.finish().unwrap();
        let cache = Arc::new(crate::cache::BlockCache::new(1 << 20));
        let table = SsTable::open_with_cache(&path, Some(Arc::clone(&cache))).unwrap();

        for (k, v) in &entries {
            assert_eq!(table.get(k).unwrap(), Some(v.clone()));
        }
        let cold = cache.stats();
        assert!(cold.misses > 0);
        for (k, v) in &entries {
            assert_eq!(table.get(k).unwrap(), Some(v.clone()));
        }
        let warm = cache.stats();
        assert!(warm.hits >= cold.misses, "second pass served from cache: {warm:?}");
        assert_eq!(warm.misses, cold.misses, "no new disk reads on the warm pass");
    }

    #[test]
    fn concurrent_point_reads_from_the_file_agree() {
        let dir = TempDir::new("sst-pread");
        let entries = sample_entries(2_000);
        let path = build_table(&dir, &entries).path().to_path_buf();
        // No cache, then a cache too small to hold one block: every get
        // reads its block from the file.
        let tiny = Arc::new(crate::cache::BlockCache::with_shards(64, 1));
        for cache in [None, Some(Arc::clone(&tiny))] {
            let table = SsTable::open_with_cache(&path, cache).unwrap();
            assert!(table.index.len() > 4, "expected many blocks, got {}", table.index.len());
            let start = std::sync::Barrier::new(4);
            std::thread::scope(|s| {
                for t in 0..4usize {
                    let (table, entries, start) = (&table, &entries, &start);
                    s.spawn(move || {
                        start.wait();
                        // Each thread walks every key from its own start
                        // and stride, so threads hit different blocks.
                        let stride = [1, 3, 7, 9][t];
                        for i in 0..entries.len() {
                            let (k, v) = &entries[(t * 499 + i * stride) % entries.len()];
                            assert_eq!(table.get(k).unwrap(), Some(v.clone()), "thread {t}");
                        }
                    });
                }
            });
        }
        assert_eq!(tiny.stats().hits, 0, "the tiny cache served nothing: {:?}", tiny.stats());
    }

    #[test]
    fn multi_block_tables_index_correctly() {
        let dir = TempDir::new("sst-blocks");
        // Values big enough to force many blocks at the 4 KiB default.
        let entries: Vec<_> =
            (0..100u32).map(|i| (format!("k{i:04}").into_bytes(), Some(vec![7u8; 512]))).collect();
        let table = build_table(&dir, &entries);
        assert!(table.index.len() > 5, "expected many blocks, got {}", table.index.len());
        for (k, v) in &entries {
            assert_eq!(table.get(k).unwrap(), Some(v.clone()));
        }
    }
}
