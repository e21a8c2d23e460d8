//! The storage interface the rest of PASS programs against.

use crate::batch::WriteBatch;
use crate::error::Result;

/// A transactional, sorted key-value store.
///
/// Two backends exist: [`crate::LsmEngine`] (durable, log-structured) and
/// [`crate::MemEngine`] (volatile, for tests and simulations where
/// thousands of stores coexist in one process).
pub trait KvStore: Send + Sync {
    /// Point lookup.
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>>;

    /// Applies a batch atomically: after a crash, either every operation
    /// in the batch is visible or none is.
    fn apply(&self, batch: WriteBatch) -> Result<()>;

    /// Entries with `start <= key < end`, in key order. `end = None` means
    /// unbounded. Tombstoned/absent keys are not returned.
    ///
    /// The result is materialised. Engines stream internally to build
    /// it without touching their block cache, so a scan cannot flush the
    /// blocks point reads keep hot; a block that fails verification
    /// fails the whole scan rather than shortening it.
    fn scan_range(&self, start: &[u8], end: Option<&[u8]>) -> Result<Vec<(Vec<u8>, Vec<u8>)>>;

    /// Forces buffered state to stable storage (no-op for volatile backends).
    fn flush(&self) -> Result<()>;

    /// Convenience single-key insert.
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.put(key.to_vec(), value.to_vec());
        self.apply(batch)
    }

    /// Convenience single-key delete.
    fn delete(&self, key: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete(key.to_vec());
        self.apply(batch)
    }

    /// All entries whose key starts with `prefix`, in key order.
    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        match prefix_successor(prefix) {
            Some(end) => self.scan_range(prefix, Some(&end)),
            None => self.scan_range(prefix, None),
        }
    }
}

/// The smallest key strictly greater than every key with this prefix, or
/// `None` when no such key exists (prefix is empty or all `0xff`).
pub fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut end = prefix.to_vec();
    while let Some(last) = end.last_mut() {
        if *last < 0xff {
            *last += 1;
            return Some(end);
        }
        end.pop();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_successor_basic() {
        assert_eq!(prefix_successor(b"abc"), Some(b"abd".to_vec()));
        assert_eq!(prefix_successor(&[0x01, 0xff]), Some(vec![0x02]));
        assert_eq!(prefix_successor(&[0xff, 0xff]), None);
        assert_eq!(prefix_successor(b""), None);
    }

    #[test]
    fn prefix_successor_bounds_all_prefixed_keys() {
        let prefix = [0x10u8, 0xff];
        let succ = prefix_successor(&prefix).unwrap();
        // Every key starting with the prefix sorts below the successor.
        for tail in [vec![], vec![0x00], vec![0xff, 0xff]] {
            let mut key = prefix.to_vec();
            key.extend(tail);
            assert!(key.as_slice() < succ.as_slice());
        }
        // And the successor itself does not carry the prefix.
        assert!(!succ.starts_with(&prefix));
    }
}
