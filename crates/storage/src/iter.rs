//! K-way merge of sorted entry streams with newest-wins semantics.

use crate::error::Result;
use crate::sstable::Entry;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A sorted source of entries. Sources are ranked: index 0 is newest, and
/// on duplicate keys the newest source's entry wins.
pub type Source<'a> = Box<dyn Iterator<Item = Result<Entry>> + 'a>;

struct HeapItem {
    key: Vec<u8>,
    value: Option<Vec<u8>>,
    source: usize,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.source == other.source
    }
}
impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest key (then the
        // newest source) pops first.
        other.key.cmp(&self.key).then_with(|| other.source.cmp(&self.source))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Merges sorted sources, deduplicating keys with newest-wins precedence.
/// Tombstones are *preserved* in the output (`None` values); the caller
/// decides whether to drop them (full compactions do, reads must not).
pub struct MergeIter<'a> {
    sources: Vec<Source<'a>>,
    heap: BinaryHeap<HeapItem>,
    error: Option<crate::error::StorageError>,
}

impl<'a> MergeIter<'a> {
    /// Builds a merge over `sources` (index 0 = newest).
    pub fn new(mut sources: Vec<Source<'a>>) -> Self {
        let mut heap = BinaryHeap::new();
        let mut error = None;
        for (i, src) in sources.iter_mut().enumerate() {
            match src.next() {
                Some(Ok((key, value))) => heap.push(HeapItem { key, value, source: i }),
                Some(Err(e)) => {
                    error = Some(e);
                    break;
                }
                None => {}
            }
        }
        MergeIter { sources, heap, error }
    }

    fn advance(&mut self, source: usize) {
        let Some(src) = self.sources.get_mut(source) else { return };
        match src.next() {
            Some(Ok((key, value))) => self.heap.push(HeapItem { key, value, source }),
            Some(Err(e)) => self.error = Some(e),
            None => {}
        }
    }
}

impl Iterator for MergeIter<'_> {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(e) = self.error.take() {
            self.heap.clear();
            return Some(Err(e));
        }
        let top = self.heap.pop()?;
        let key = top.key;
        let value = top.value;
        self.advance(top.source);
        // Discard older versions of the same key.
        while self.heap.peek().is_some_and(|peek| peek.key == key) {
            let Some(dup) = self.heap.pop() else { break };
            self.advance(dup.source);
            if self.error.is_some() {
                break;
            }
        }
        Some(Ok((key, value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(entries: Vec<(&str, Option<&str>)>) -> Source<'static> {
        Box::new(
            entries
                .into_iter()
                .map(|(k, v)| Ok((k.as_bytes().to_vec(), v.map(|v| v.as_bytes().to_vec()))))
                .collect::<Vec<_>>()
                .into_iter(),
        )
    }

    fn collect(iter: MergeIter<'_>) -> Vec<(String, Option<String>)> {
        iter.map(|r| {
            let (k, v) = r.unwrap();
            (String::from_utf8(k).unwrap(), v.map(|v| String::from_utf8(v).unwrap()))
        })
        .collect()
    }

    #[test]
    fn merges_disjoint_sources_in_order() {
        let m = MergeIter::new(vec![
            src(vec![("b", Some("1")), ("d", Some("2"))]),
            src(vec![("a", Some("3")), ("c", Some("4"))]),
        ]);
        let got = collect(m);
        let keys: Vec<_> = got.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn newest_source_wins_on_duplicates() {
        let m = MergeIter::new(vec![
            src(vec![("k", Some("new"))]), // source 0 = newest
            src(vec![("k", Some("old"))]),
            src(vec![("k", Some("older"))]),
        ]);
        assert_eq!(collect(m), vec![("k".to_owned(), Some("new".to_owned()))]);
    }

    #[test]
    fn tombstones_shadow_older_values_but_are_emitted() {
        let m = MergeIter::new(vec![src(vec![("k", None)]), src(vec![("k", Some("old"))])]);
        assert_eq!(collect(m), vec![("k".to_owned(), None)]);
    }

    #[test]
    fn empty_sources_are_fine() {
        let m = MergeIter::new(vec![src(vec![]), src(vec![("a", Some("1"))]), src(vec![])]);
        assert_eq!(collect(m), vec![("a".to_owned(), Some("1".to_owned()))]);
        let m = MergeIter::new(vec![]);
        assert_eq!(collect(m).len(), 0);
    }

    #[test]
    fn three_way_interleave_with_shadowing() {
        let m = MergeIter::new(vec![
            src(vec![("a", Some("a0")), ("c", None)]),
            src(vec![("a", Some("a1")), ("b", Some("b1")), ("c", Some("c1"))]),
            src(vec![("b", Some("b2")), ("d", Some("d2"))]),
        ]);
        assert_eq!(
            collect(m),
            vec![
                ("a".to_owned(), Some("a0".to_owned())),
                ("b".to_owned(), Some("b1".to_owned())),
                ("c".to_owned(), None),
                ("d".to_owned(), Some("d2".to_owned())),
            ]
        );
    }

    #[test]
    fn error_propagates_and_stops() {
        let bad: Source<'static> = Box::new(
            vec![
                Ok((b"a".to_vec(), Some(b"1".to_vec()))),
                Err(crate::error::StorageError::corrupt("x", "boom")),
            ]
            .into_iter(),
        );
        let m = MergeIter::new(vec![bad]);
        let results: Vec<_> = m.collect();
        assert_eq!(results.len(), 2);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
    }
}
