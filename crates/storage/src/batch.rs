//! Atomic write batches.
//!
//! `pass-core` writes `{data blob, provenance record, index deltas}` as one
//! batch so that a crash leaves either all of them visible or none — the
//! coupling §IV-A says loosely-coupled indexes lack.

use crate::error::{Result, StorageError};
use crate::{MAX_KEY_LEN, MAX_VALUE_LEN};

/// One operation inside a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Insert or overwrite.
    Put {
        /// Key bytes.
        key: Vec<u8>,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Remove (writes a tombstone).
    Delete {
        /// Key bytes.
        key: Vec<u8>,
    },
}

impl Op {
    /// The key this operation touches.
    pub fn key(&self) -> &[u8] {
        match self {
            Op::Put { key, .. } | Op::Delete { key } => key,
        }
    }
}

/// An ordered set of operations applied atomically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteBatch {
    ops: Vec<Op>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// Queues a put.
    pub fn put(&mut self, key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) -> &mut Self {
        self.ops.push(Op::Put { key: key.into(), value: value.into() });
        self
    }

    /// Queues a delete.
    pub fn delete(&mut self, key: impl Into<Vec<u8>>) -> &mut Self {
        self.ops.push(Op::Delete { key: key.into() });
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The queued operations, in application order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Consumes the batch.
    pub fn into_ops(self) -> Vec<Op> {
        self.ops
    }

    /// Validates size limits; called by engines before accepting a batch.
    pub fn validate(&self) -> Result<()> {
        for op in &self.ops {
            let (klen, vlen) = match op {
                Op::Put { key, value } => (key.len(), value.len()),
                Op::Delete { key } => (key.len(), 0),
            };
            if klen == 0 || klen > MAX_KEY_LEN || vlen > MAX_VALUE_LEN {
                return Err(StorageError::OversizeEntry { key_len: klen, value_len: vlen });
            }
        }
        Ok(())
    }

    /// Serializes the batch into a WAL payload, into a buffer sized
    /// exactly (a batch of a thousand tuple sets is about 460 KB, and a
    /// guessed capacity would regrow and copy it).
    pub(crate) fn encode(&self) -> Vec<u8> {
        let len = varint_len(self.ops.len() as u64)
            + self
                .ops
                .iter()
                .map(|op| match op {
                    Op::Put { key, value } => 1 + bytes_len(key) + bytes_len(value),
                    Op::Delete { key } => 1 + bytes_len(key),
                })
                .sum::<usize>();
        let mut buf = Vec::with_capacity(len);
        put_varint(&mut buf, self.ops.len() as u64);
        for op in &self.ops {
            match op {
                Op::Put { key, value } => {
                    buf.push(1);
                    put_varint(&mut buf, key.len() as u64);
                    buf.extend_from_slice(key);
                    put_varint(&mut buf, value.len() as u64);
                    buf.extend_from_slice(value);
                }
                Op::Delete { key } => {
                    buf.push(2);
                    put_varint(&mut buf, key.len() as u64);
                    buf.extend_from_slice(key);
                }
            }
        }
        debug_assert_eq!(buf.len(), len, "the payload was sized exactly");
        buf
    }

    /// Deserializes a WAL payload. `None` means malformed (treated as
    /// corruption by the caller, which knows the file/offset).
    pub(crate) fn decode(payload: &[u8]) -> Option<WriteBatch> {
        let mut pos = 0usize;
        let count = take_varint(payload, &mut pos)?;
        let mut batch = WriteBatch::new();
        for _ in 0..count {
            let tag = *payload.get(pos)?;
            pos += 1;
            match tag {
                1 => {
                    let key = take_slice(payload, &mut pos)?;
                    let value = take_slice(payload, &mut pos)?;
                    batch.put(key, value);
                }
                2 => {
                    let key = take_slice(payload, &mut pos)?;
                    batch.delete(key);
                }
                _ => return None,
            }
        }
        (pos == payload.len()).then_some(batch)
    }
}

/// Reads a little-endian `u32` at `at`, `None` when out of range. The
/// fallible twin of `u32::from_le_bytes` + slice indexing, so decoding
/// paths surface truncated files as errors instead of slice panics.
pub(crate) fn take_u32_le(buf: &[u8], at: usize) -> Option<u32> {
    let bytes = buf.get(at..at.checked_add(4)?)?;
    <[u8; 4]>::try_from(bytes).ok().map(u32::from_le_bytes)
}

/// Reads a little-endian `u64` at `at`, `None` when out of range.
pub(crate) fn take_u64_le(buf: &[u8], at: usize) -> Option<u64> {
    let bytes = buf.get(at..at.checked_add(8)?)?;
    <[u8; 8]>::try_from(bytes).ok().map(u64::from_le_bytes)
}

/// Bytes [`put_varint`] writes for `v`.
fn varint_len(v: u64) -> usize {
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Bytes a length-prefixed byte string takes in a payload.
fn bytes_len(bytes: &[u8]) -> usize {
    varint_len(bytes.len() as u64) + bytes.len()
}

pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

pub(crate) fn take_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos)?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return None;
        }
        out |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(out);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

fn take_slice<'a>(buf: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let len = take_varint(buf, pos)? as usize;
    let end = pos.checked_add(len)?;
    let out = buf.get(*pos..end)?;
    *pos = end;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let mut b = WriteBatch::new();
        b.put(b"k1".to_vec(), b"v1".to_vec());
        b.delete(b"k2".to_vec());
        b.put(b"".to_vec(), b"".to_vec()); // empty value is legal in codec
        let enc = b.encode();
        assert_eq!(WriteBatch::decode(&enc), Some(b));
    }

    #[test]
    fn encode_sizes_its_payload_exactly() {
        // Lengths on both sides of each varint width.
        let mut b = WriteBatch::new();
        for (i, len) in [0usize, 1, 127, 128, 16_383, 16_384].into_iter().enumerate() {
            b.put(vec![i as u8; len.min(300) + 1], vec![7u8; len]);
            b.delete(vec![i as u8; len + 1]);
        }
        let enc = b.encode();
        assert_eq!(enc.capacity(), enc.len(), "no slack, no regrowth");
        assert_eq!(WriteBatch::decode(&enc), Some(b));
        let empty = WriteBatch::new().encode();
        assert_eq!((empty.len(), empty.capacity()), (1, 1));
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut b = WriteBatch::new();
        b.put(b"key".to_vec(), b"value".to_vec());
        let enc = b.encode();
        for cut in 0..enc.len() {
            assert_eq!(WriteBatch::decode(&enc[..cut]), None, "prefix of len {cut}");
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut b = WriteBatch::new();
        b.put(b"k".to_vec(), b"v".to_vec());
        let mut enc = b.encode();
        enc.push(0);
        assert_eq!(WriteBatch::decode(&enc), None);
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        let mut enc = Vec::new();
        put_varint(&mut enc, 1);
        enc.push(9); // no such op
        assert_eq!(WriteBatch::decode(&enc), None);
    }

    #[test]
    fn validate_rejects_empty_and_oversize_keys() {
        let mut b = WriteBatch::new();
        b.put(b"".to_vec(), b"v".to_vec());
        assert!(b.validate().is_err(), "empty key rejected");

        let mut b = WriteBatch::new();
        b.put(vec![0u8; MAX_KEY_LEN + 1], b"v".to_vec());
        assert!(b.validate().is_err(), "oversize key rejected");

        let mut b = WriteBatch::new();
        b.put(b"k".to_vec(), b"v".to_vec());
        assert!(b.validate().is_ok());
    }
}
