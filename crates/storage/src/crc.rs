//! CRC-32C (Castagnoli), slicing-by-8.
//!
//! Every WAL record and SSTable block carries a CRC so recovery can
//! distinguish a torn write from valid data — the reliability criterion of
//! §IV ("the system must recover provenance metadata to a state consistent
//! with its data after a system failure") starts here.
//!
//! Loading a store checksums every byte it logs, flushes and merges, so
//! this runs at memory speed: slicing-by-8 folds eight input bytes per
//! step through eight 256-entry tables (8 KiB, built once) instead of
//! one byte through one table, several times the byte-wise rate. The
//! SSE4.2 `crc32` instruction would be faster still, but it needs the
//! library's first `unsafe` block and a per-platform path with a
//! portable fallback beside it; the portable loop alone is the one path.

/// The Castagnoli polynomial (reflected form).
const POLY: u32 = 0x82f6_3b78;

/// The eight slicing tables. Row 0 is the byte-wise table; row `k`
/// advances a byte's contribution past `k` further zero bytes.
type Tables = [[u32; 256]; 8];

/// Lazily-built slicing tables.
fn tables() -> &'static Tables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        let mut prev = [0u32; 256];
        for (i, entry) in prev.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
            *entry = crc;
        }
        let byte_table = prev;
        for row in &mut t {
            *row = prev;
            for (next, &p) in prev.iter_mut().zip(row.iter()) {
                *next = (p >> 8) ^ at(&byte_table, p as u8);
            }
        }
        t
    })
}

/// `row[byte]`: a `u8` index is in bounds for 256 entries by type.
#[inline(always)]
fn at(row: &[u32; 256], byte: u8) -> u32 {
    row.get(usize::from(byte)).copied().unwrap_or(0)
}

/// Folds `data` into the running (pre-inverted) register `crc`.
fn extend([t0, t1, t2, t3, t4, t5, t6, t7]: &Tables, mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let Some(&[b0, b1, b2, b3, b4, b5, b6, b7]) = chunk.first_chunk::<8>() else {
            break;
        };
        let low = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
        crc = at(t7, low as u8)
            ^ at(t6, (low >> 8) as u8)
            ^ at(t5, (low >> 16) as u8)
            ^ at(t4, (low >> 24) as u8)
            ^ at(t3, b4)
            ^ at(t2, b5)
            ^ at(t1, b6)
            ^ at(t0, b7);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ at(t0, crc as u8 ^ b);
    }
    crc
}

/// Computes CRC-32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    !extend(tables(), !0, data)
}

/// Incremental CRC-32C state, for checksumming scattered buffers.
#[derive(Debug, Clone)]
pub struct Crc32c(u32);

impl Crc32c {
    /// Fresh state.
    pub fn new() -> Self {
        Crc32c(!0)
    }

    /// Feeds bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.0 = extend(tables(), self.0, data);
    }

    /// Finalizes.
    pub fn finish(&self) -> u32 {
        !self.0
    }
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time definition: one table lookup per input byte.
    fn reference(data: &[u8]) -> u32 {
        let t = &tables()[0];
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ t[((crc ^ u32::from(b)) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn known_vector() {
        // RFC 3720 test vector: CRC-32C of "123456789" is 0xE3069283.
        assert_eq!(crc32c(b"123456789"), 0xe306_9283);
    }

    #[test]
    fn known_vector_zeros() {
        // 32 bytes of zeros: 0x8A9136AA (iSCSI test pattern).
        assert_eq!(crc32c(&[0u8; 32]), 0x8a91_36aa);
    }

    #[test]
    fn rfc3720_patterns() {
        // RFC 3720 B.4: 32 bytes of ones, ascending and descending bytes.
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62a8_ab43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_eq!(crc32c(&ascending), 0x46dd_794e);
        let descending: Vec<u8> = (0..32).rev().collect();
        assert_eq!(crc32c(&descending), 0x113f_db5c);
        for data in [&[0xffu8; 32][..], &ascending, &descending] {
            assert_eq!(reference(data), crc32c(data));
        }
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"provenance-aware sensor data storage";
        let mut inc = Crc32c::new();
        inc.update(&data[..10]);
        inc.update(&data[10..]);
        assert_eq!(inc.finish(), crc32c(data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"some WAL record payload";
        let base = crc32c(data);
        let mut copy = data.to_vec();
        for i in 0..copy.len() {
            copy[i] ^= 0x01;
            assert_ne!(crc32c(&copy), base, "flip at byte {i} undetected");
            copy[i] ^= 0x01;
        }
    }

    #[test]
    fn every_length_and_alignment_matches_bytewise() {
        let buf: Vec<u8> =
            (0..4108u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for len in 0..=4100 {
            let data = &buf[len % 8..len % 8 + len];
            assert_eq!(crc32c(data), reference(data), "length {len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Slicing-by-8 agrees with the byte-wise definition at every
        /// length (each remainder), from every start alignment, and
        /// split at any two points.
        #[test]
        fn sliced_matches_bytewise(
            data in proptest::collection::vec(any::<u8>(), 0..4108),
            offset in 0usize..8,
            cut_a in any::<usize>(),
            cut_b in any::<usize>(),
        ) {
            let data = &data[offset.min(data.len())..];
            let want = reference(data);
            prop_assert_eq!(crc32c(data), want);
            let (a, b) = {
                let (a, b) = (cut_a % (data.len() + 1), cut_b % (data.len() + 1));
                (a.min(b), a.max(b))
            };
            let mut inc = Crc32c::new();
            inc.update(&data[..a]);
            inc.update(&data[a..b]);
            inc.update(&data[b..]);
            prop_assert_eq!(inc.finish(), want);
        }
    }
}
