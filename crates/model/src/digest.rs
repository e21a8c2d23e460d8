//! 128-bit content digests.
//!
//! Tuple-set identity is the digest of a canonical provenance encoding
//! (§II-A "provenance as name"). We use MurmurHash3's x64 128-bit variant:
//! fast, well-distributed, and deterministic across platforms. It is *not*
//! cryptographic; PASS identity is a uniqueness mechanism, not an integrity
//! proof, and at simulator scales (≪ 2^64 objects) accidental collisions
//! are negligible.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A 128-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct Digest128(pub u128);

impl Digest128 {
    /// Digests a byte slice with seed 0.
    pub fn of(bytes: &[u8]) -> Self {
        Digest128(murmur3_x64_128(bytes, 0))
    }

    /// Digests the concatenation of `parts` with seed 0, without
    /// copying them into one buffer.
    pub fn of_parts(parts: &[&[u8]]) -> Self {
        let mut hasher = Murmur3::new(0);
        for part in parts {
            hasher.update(part);
        }
        Digest128(hasher.finish())
    }

    /// Digests a byte slice with an explicit seed (used to derive
    /// independent hash families, e.g. for bloom filters).
    pub fn with_seed(bytes: &[u8], seed: u64) -> Self {
        Digest128(murmur3_x64_128(bytes, seed))
    }

    /// Low 64 bits.
    pub fn low64(self) -> u64 {
        self.0 as u64
    }

    /// High 64 bits.
    pub fn high64(self) -> u64 {
        (self.0 >> 64) as u64
    }
}

impl fmt::Debug for Digest128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "digest:{:032x}", self.0)
    }
}

impl fmt::Display for Digest128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

const C1: u64 = 0x87c3_7b91_1142_53d5;
const C2: u64 = 0x4cf5_ad43_2745_937f;

#[inline]
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^= k >> 33;
    k
}

/// MurmurHash3 x64 128-bit, as published by Austin Appleby (public domain).
pub fn murmur3_x64_128(data: &[u8], seed: u64) -> u128 {
    let mut hasher = Murmur3::new(seed);
    hasher.update(data);
    hasher.finish()
}

/// [`murmur3_x64_128`] over input that arrives in pieces: the digest of
/// the pieces is the digest of their concatenation, so a record's
/// identity can be hashed from the spans of its stored encoding without
/// copying them into one buffer.
#[derive(Clone, Debug)]
struct Murmur3 {
    h1: u64,
    h2: u64,
    /// Bytes of an unfinished 16-byte block.
    pending: [u8; 16],
    pending_len: usize,
    len: u64,
}

impl Murmur3 {
    fn new(seed: u64) -> Self {
        Murmur3 { h1: seed, h2: seed, pending: [0; 16], pending_len: 0, len: 0 }
    }

    fn update(&mut self, mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.pending_len > 0 {
            let take = (16 - self.pending_len).min(data.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&data[..take]);
            self.pending_len += take;
            data = &data[take..];
            if self.pending_len < 16 {
                return;
            }
            let block = self.pending;
            self.block(&block);
            self.pending_len = 0;
        }
        let mut chunks = data.chunks_exact(16);
        for block in &mut chunks {
            self.block(block);
        }
        let tail = chunks.remainder();
        self.pending[..tail.len()].copy_from_slice(tail);
        self.pending_len = tail.len();
    }

    #[inline]
    fn block(&mut self, block: &[u8]) {
        let mut k1 = u64::from_le_bytes(block[0..8].try_into().expect("8-byte block half"));
        let mut k2 = u64::from_le_bytes(block[8..16].try_into().expect("8-byte block half"));
        let (mut h1, mut h2) = (self.h1, self.h2);

        k1 = k1.wrapping_mul(C1);
        k1 = k1.rotate_left(31);
        k1 = k1.wrapping_mul(C2);
        h1 ^= k1;
        h1 = h1.rotate_left(27);
        h1 = h1.wrapping_add(h2);
        h1 = h1.wrapping_mul(5).wrapping_add(0x52dc_e729);

        k2 = k2.wrapping_mul(C2);
        k2 = k2.rotate_left(33);
        k2 = k2.wrapping_mul(C1);
        h2 ^= k2;
        h2 = h2.rotate_left(31);
        h2 = h2.wrapping_add(h1);
        h2 = h2.wrapping_mul(5).wrapping_add(0x3849_5ab5);

        (self.h1, self.h2) = (h1, h2);
    }

    fn finish(self) -> u128 {
        let (mut h1, mut h2) = (self.h1, self.h2);
        let tail = &self.pending[..self.pending_len];
        let mut k1: u64 = 0;
        let mut k2: u64 = 0;
        for (i, &b) in tail.iter().enumerate() {
            if i < 8 {
                k1 |= u64::from(b) << (8 * i);
            } else {
                k2 |= u64::from(b) << (8 * (i - 8));
            }
        }
        if tail.len() > 8 {
            k2 = k2.wrapping_mul(C2);
            k2 = k2.rotate_left(33);
            k2 = k2.wrapping_mul(C1);
            h2 ^= k2;
        }
        if !tail.is_empty() {
            k1 = k1.wrapping_mul(C1);
            k1 = k1.rotate_left(31);
            k1 = k1.wrapping_mul(C2);
            h1 ^= k1;
        }

        h1 ^= self.len;
        h2 ^= self.len;
        h1 = h1.wrapping_add(h2);
        h2 = h2.wrapping_add(h1);
        h1 = fmix64(h1);
        h2 = fmix64(h2);
        h1 = h1.wrapping_add(h2);
        h2 = h2.wrapping_add(h1);

        (u128::from(h2) << 64) | u128::from(h1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_seed_zero_is_zero() {
        // Known property of murmur3 x64 128: all-zero state, zero length.
        assert_eq!(Digest128::of(b""), Digest128(0));
    }

    #[test]
    fn deterministic() {
        let a = Digest128::of(b"provenance is the name of the data set");
        let b = Digest128::of(b"provenance is the name of the data set");
        assert_eq!(a, b);
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let base = b"sensor reading block".to_vec();
        let d0 = Digest128::of(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(Digest128::of(&flipped), d0, "flip at byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn seed_separates_hash_families() {
        let d1 = Digest128::with_seed(b"key", 1);
        let d2 = Digest128::with_seed(b"key", 2);
        assert_ne!(d1, d2);
    }

    #[test]
    fn tail_lengths_all_distinct() {
        // Exercise every tail-length code path (0..=15 bytes past a block).
        let data: Vec<u8> = (0u8..48).collect();
        let mut seen = std::collections::HashSet::new();
        for n in 0..=data.len() {
            assert!(seen.insert(murmur3_x64_128(&data[..n], 0)), "collision at len {n}");
        }
    }

    #[test]
    fn parts_digest_their_concatenation() {
        // Every split of inputs across the 16-byte block boundary.
        let data: Vec<u8> = (0u8..70).collect();
        for n in 0..=data.len() {
            let whole = Digest128::of(&data[..n]);
            for a in 0..=n {
                for b in a..=n {
                    let parts = [&data[..a], &data[a..b], &data[b..n]];
                    assert_eq!(Digest128::of_parts(&parts), whole, "len {n}, cuts {a} {b}");
                }
            }
        }
    }

    #[test]
    fn length_extension_differs() {
        // "abc" vs "abc\0" must differ (length participates in finalization).
        assert_ne!(Digest128::of(b"abc"), Digest128::of(b"abc\0"));
    }
}
