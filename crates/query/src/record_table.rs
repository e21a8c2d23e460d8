//! The record table: every stored record's resident encoding, by
//! [`NodeIdx`], in append-only byte chunks shared by `Arc`.
//!
//! A resident encoding is the record's canonical encoding with each
//! vocabulary string (attribute and tool parameter names, tool names and
//! versions) replaced by the varint of its code in the table's
//! [`Vocabulary`], which the table owns and its clones share by `Arc`
//! (codes are append-only, so a clone's records keep decoding). The
//! table stores and hands out bytes; [`crate::record_index::IndexDelta`]
//! writes them.
//!
//! A node's record is a span (chunk, offset, length) into one chunk.
//! Chunks are only ever appended to, and only the last one, the tail,
//! grows: a record that does not fit the tail's [`CHUNK_BYTES`] seals
//! it and opens the next (a record larger than a chunk gets a chunk of
//! its own). Cloning the table copies the chunk pointers and the span
//! array, so a copy-on-write clone of an index allocates nothing per
//! record; the first append after a clone copies the tail alone, and the
//! clone's bytes never change. Replacing a record (an annotation)
//! appends its new encoding and re-points the span; the old bytes stay
//! in their chunk, unreferenced.

use crate::vocabulary::Vocabulary;
use pass_index::NodeIdx;
use pass_model::ProvenanceRecord;
use std::ops::Range;
use std::sync::Arc;

/// Bytes a tail chunk grows to before the table seals it. A constant,
/// not an option: small enough that the first append after a clone
/// copies little, large enough that a chunk holds a few hundred
/// records. A tail is not reserved at this size up front, so a table of
/// a few records stays a few records' size.
pub const CHUNK_BYTES: usize = 64 * 1024;

/// The smallest capacity a tail chunk grows to.
const FIRST_BYTES: usize = 256;

/// Where a stored record's bytes are: `len` bytes at `offset` in chunk
/// `chunk`. [`Span::NONE`] marks a node with no record (a placeholder).
#[derive(Clone, Copy)]
struct Span {
    chunk: u32,
    offset: u32,
    len: u32,
}

impl Span {
    const NONE: Span = Span { chunk: u32::MAX, offset: 0, len: 0 };

    fn is_some(self) -> bool {
        self.chunk != u32::MAX
    }

    fn range(self) -> Range<usize> {
        self.offset as usize..self.offset as usize + self.len as usize
    }
}

/// Every stored record's resident encoding, by [`NodeIdx`].
#[derive(Clone, Default)]
pub struct RecordTable {
    /// The codes of the records' vocabulary strings, shared with every
    /// clone.
    vocabulary: Arc<Vocabulary>,
    /// Sealed chunks, then the tail, the only one that grows.
    chunks: Vec<Arc<Vec<u8>>>,
    /// Each node's record, [`Span::NONE`] for a node without one.
    spans: Vec<Span>,
    /// Number of nodes with a record.
    stored: usize,
    /// Total length of the stored records (bytes a replaced record left
    /// in its chunk excluded).
    bytes: usize,
}

/// One record's resident bytes, borrowed from its chunk by holding the
/// chunk's `Arc`, with the vocabulary they decode with: a reader can
/// take it under a lock and decode it after releasing the lock, while
/// appends to the table go on.
#[derive(Clone, Debug)]
pub struct RecordBytes {
    chunk: Arc<Vec<u8>>,
    range: Range<usize>,
    vocabulary: Arc<Vocabulary>,
}

impl RecordBytes {
    /// Decodes the record.
    pub fn decode(&self) -> Option<ProvenanceRecord> {
        decode(&self.vocabulary, &self.chunk[self.range.clone()])
    }
}

/// Decodes resident bytes. They came from the encoder, so a failure here
/// is a bug, not bad input.
fn decode(vocabulary: &Vocabulary, bytes: &[u8]) -> Option<ProvenanceRecord> {
    let record = ProvenanceRecord::decode_with(&*vocabulary.read(), bytes);
    debug_assert!(record.is_ok(), "resident record fails to decode: {record:?}");
    record.ok()
}

impl RecordTable {
    /// The vocabulary the table's records are coded against.
    pub fn vocabulary(&self) -> &Arc<Vocabulary> {
        &self.vocabulary
    }

    /// Extends the span array to `nodes` nodes (new ones without a
    /// record).
    pub fn resize(&mut self, nodes: usize) {
        self.spans.resize(nodes, Span::NONE);
    }

    /// Drops spare capacity: the span array's growth slack and the
    /// tail's unused room (unless a clone shares the tail).
    pub fn shrink_to_fit(&mut self) {
        self.spans.shrink_to_fit();
        if let Some(tail) = self.chunks.last_mut().and_then(Arc::get_mut) {
            tail.shrink_to_fit();
        }
    }

    /// Stores `bytes` as the record of `idx` (extending the span array
    /// if need be), replacing any record it had.
    pub fn set(&mut self, idx: NodeIdx, bytes: &[u8]) {
        if idx as usize >= self.spans.len() {
            self.resize(idx as usize + 1);
        }
        self.append(bytes, std::iter::once((idx, bytes.len())));
    }

    /// Appends `buf`, records back to back, with one copy per chunk it
    /// reaches: each `(idx, end)` in order stores `buf[previous end..end]`
    /// as the record of `idx`, replacing any record it had. Every `idx`
    /// must be below the span array's length ([`RecordTable::resize`]).
    pub fn append(&mut self, buf: &[u8], records: impl IntoIterator<Item = (NodeIdx, usize)>) {
        // `buf[copied..start]` is placed but not yet copied into the tail.
        let mut copied = 0;
        let mut start = 0;
        for (idx, end) in records {
            let len = end - start;
            if self.tail_len() + (start - copied) + len > CHUNK_BYTES || self.chunks.is_empty() {
                self.extend_tail(&buf[copied..start]);
                copied = start;
                self.seal(len);
            }
            let span = Span {
                chunk: u32::try_from(self.chunks.len() - 1).expect("fewer than 2^32 chunks"),
                offset: u32::try_from(self.tail_len() + (start - copied))
                    .expect("a chunk is smaller than 4 GiB"),
                len: u32::try_from(len).expect("a record is smaller than 4 GiB"),
            };
            self.place(idx, span);
            start = end;
        }
        self.extend_tail(&buf[copied..start]);
    }

    /// Points `idx` at `span`, keeping the counts.
    fn place(&mut self, idx: NodeIdx, span: Span) {
        let slot = &mut self.spans[idx as usize];
        if slot.is_some() {
            self.bytes -= slot.len as usize;
        } else {
            self.stored += 1;
        }
        self.bytes += span.len as usize;
        *slot = span;
    }

    fn tail_len(&self) -> usize {
        self.chunks.last().map_or(0, |tail| tail.len())
    }

    /// Seals the tail at its length and opens a new, empty tail: one
    /// that holds exactly a record of `len` bytes larger than a chunk,
    /// else the first grows from nothing and a later one (the table
    /// holds a chunk already) is reserved at the chunk size.
    fn seal(&mut self, len: usize) {
        let first = self.chunks.is_empty();
        if let Some(tail) = self.chunks.last_mut().and_then(Arc::get_mut) {
            tail.shrink_to_fit();
        }
        let capacity = if len > CHUNK_BYTES {
            len
        } else if first {
            0
        } else {
            CHUNK_BYTES
        };
        self.chunks.push(Arc::new(Vec::with_capacity(capacity)));
    }

    /// Copies `bytes` onto the tail. Copies the tail first when a clone
    /// shares it, and grows it by doubling, capped at the chunk size.
    fn extend_tail(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        let Some(tail) = self.chunks.last_mut() else { return };
        let tail = Arc::make_mut(tail);
        let need = tail.len() + bytes.len();
        if need > tail.capacity() {
            let grown = (tail.capacity() * 2).clamp(FIRST_BYTES, CHUNK_BYTES).max(need);
            tail.reserve_exact(grown - tail.len());
        }
        tail.extend_from_slice(bytes);
    }

    /// The resident bytes of the record of `idx` (`None` for a node
    /// without one).
    pub fn get(&self, idx: NodeIdx) -> Option<&[u8]> {
        let span = self.span(idx)?;
        Some(&self.chunks[span.chunk as usize][span.range()])
    }

    /// The record of `idx`, decoded.
    pub fn decode(&self, idx: NodeIdx) -> Option<ProvenanceRecord> {
        decode(&self.vocabulary, self.get(idx)?)
    }

    /// The record of `idx`, holding its chunk and the vocabulary.
    pub fn share(&self, idx: NodeIdx) -> Option<RecordBytes> {
        let span = self.span(idx)?;
        Some(RecordBytes {
            chunk: Arc::clone(&self.chunks[span.chunk as usize]),
            range: span.range(),
            vocabulary: Arc::clone(&self.vocabulary),
        })
    }

    fn span(&self, idx: NodeIdx) -> Option<Span> {
        self.spans.get(idx as usize).copied().filter(|span| span.is_some())
    }

    /// True when `idx` has a record.
    pub fn contains(&self, idx: NodeIdx) -> bool {
        self.span(idx).is_some()
    }

    /// Nodes with a record, ascending.
    pub fn nodes(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, span)| span.is_some())
            .map(|(idx, _)| idx as NodeIdx)
    }

    /// Every stored record, decoded one at a time, in node order.
    pub fn records(&self) -> impl Iterator<Item = ProvenanceRecord> + '_ {
        self.nodes().filter_map(|idx| self.decode(idx))
    }

    /// Number of nodes with a record.
    pub fn len(&self) -> usize {
        self.stored
    }

    /// True when no node has a record.
    pub fn is_empty(&self) -> bool {
        self.stored == 0
    }

    /// Total length of the stored records' resident bytes.
    pub fn record_bytes(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(n: usize, len: usize) -> Vec<u8> {
        (0..len).map(|i| (n + i) as u8).collect()
    }

    #[test]
    fn records_never_straddle_a_chunk() {
        let mut table = RecordTable::default();
        let records: Vec<Vec<u8>> = (0..600).map(|n| record(n, 200 + n % 300)).collect();
        let buf: Vec<u8> = records.concat();
        let mut end = 0;
        let ends: Vec<(NodeIdx, usize)> = records
            .iter()
            .enumerate()
            .map(|(n, r)| {
                end += r.len();
                (n as NodeIdx, end)
            })
            .collect();
        table.resize(records.len());
        table.append(&buf, ends);
        assert_eq!(table.len(), records.len());
        assert_eq!(table.record_bytes(), buf.len());
        assert!(table.chunks.len() > 1, "600 records of about 350 bytes fill several chunks");
        assert!(table.chunks.iter().all(|chunk| chunk.len() <= CHUNK_BYTES));
        for (n, r) in records.iter().enumerate() {
            assert_eq!(table.get(n as NodeIdx), Some(r.as_slice()));
        }
    }

    #[test]
    fn a_large_record_gets_a_chunk_of_its_own() {
        let mut table = RecordTable::default();
        table.set(0, &record(0, 100));
        table.set(1, &record(1, CHUNK_BYTES + 1));
        table.set(2, &record(2, 100));
        assert_eq!(table.chunks.len(), 3);
        assert_eq!(table.chunks[1].len(), CHUNK_BYTES + 1);
        assert_eq!(table.get(1), Some(record(1, CHUNK_BYTES + 1).as_slice()));
        assert_eq!(table.get(2), Some(record(2, 100).as_slice()));
        assert_eq!(table.get(3), None);
    }

    #[test]
    fn a_clone_keeps_its_bytes_and_shares_sealed_chunks() {
        let mut table = RecordTable::default();
        for n in 0..400 {
            table.set(n, &record(n as usize, 300));
        }
        let copy = table.clone();
        let held = table.share(399).unwrap();
        table.set(0, &record(9, 50));
        table.set(400, &record(400, 300));
        assert_eq!(copy.get(0), Some(record(0, 300).as_slice()));
        assert_eq!(copy.get(400), None);
        assert_eq!(&held.chunk[held.range.clone()], record(399, 300).as_slice());
        assert_eq!(table.get(0), Some(record(9, 50).as_slice()));
        let sealed = copy.chunks.len() - 1;
        assert!(sealed > 0);
        for (a, b) in copy.chunks[..sealed].iter().zip(&table.chunks) {
            assert!(Arc::ptr_eq(a, b), "sealed chunks are shared, not copied");
        }
        assert_eq!(table.len(), 401);
        assert_eq!(table.record_bytes(), 400 * 300 + 50);
    }
}
