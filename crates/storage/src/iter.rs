//! The k-way merge of sorted cursors, newest-wins.
//!
//! Every ordered read of more than one source goes through [`Merge`]:
//! range scans (memtable over tables) and compactions (tables into
//! one). Sources are [`Cursor`]s that *lend* their current entry as
//! slices of a buffer they own — a verified block for an SSTable, the
//! map itself for the memtable — so merging copies nothing per entry.
//! Copies happen only at the consumer: a scan copies the rows it
//! returns, and a compaction writes each surviving entry into the
//! output table's block buffer.

use crate::error::Result;
use std::cmp::Ordering;

/// An entry lent by a cursor: key, and live value or tombstone (`None`).
pub type EntryRef<'a> = (&'a [u8], Option<&'a [u8]>);

/// A sorted source that lends its current entry. A fresh cursor sits
/// before its first entry; each [`Cursor::advance`] steps onto the next
/// one, until [`Cursor::entry`] reports `None`.
pub trait Cursor {
    /// The current entry, borrowed from the cursor; `None` before the
    /// first [`Cursor::advance`] and once exhausted.
    fn entry(&self) -> Option<EntryRef<'_>>;

    /// Steps to the next entry. An error (a block failing verification)
    /// leaves the cursor exhausted.
    fn advance(&mut self) -> Result<()>;
}

/// A [`Cursor`] over an iterator of borrowed entries (the memtable).
pub struct IterCursor<'a, I> {
    iter: I,
    current: Option<EntryRef<'a>>,
}

impl<'a, I: Iterator<Item = EntryRef<'a>>> IterCursor<'a, I> {
    /// Wraps `iter`, which must yield strictly increasing keys.
    pub fn new(iter: I) -> Self {
        IterCursor { iter, current: None }
    }
}

impl<'a, I: Iterator<Item = EntryRef<'a>>> Cursor for IterCursor<'a, I> {
    fn entry(&self) -> Option<EntryRef<'_>> {
        self.current
    }

    fn advance(&mut self) -> Result<()> {
        self.current = self.iter.next();
        Ok(())
    }
}

/// Merges sorted cursors, deduplicating keys with newest-wins precedence
/// (cursor 0 is newest). Tombstones are *preserved* in the output
/// (`None` values); the caller decides whether to drop them (full
/// compactions do, reads must not).
///
/// [`Merge::next_entry`] lends each winning entry from its cursor, so it is a
/// lending iterator rather than an [`Iterator`]. After an error it
/// yields nothing more.
pub struct Merge<'a> {
    cursors: Vec<Box<dyn Cursor + 'a>>,
    /// Cursors holding an entry, sorted by `(key, cursor)` descending:
    /// the next winner is last. Re-inserting one cursor costs `log k`
    /// comparisons and a shift of at most `k` indices.
    order: Vec<usize>,
    /// The cursor whose entry the last [`Merge::next_entry`] lent; it steps
    /// forward at the start of the following call.
    lent: Option<usize>,
    started: bool,
}

impl<'a> Merge<'a> {
    /// A merge over `cursors` (index 0 = newest). No I/O happens until
    /// the first [`Merge::next_entry`].
    pub fn new(cursors: Vec<Box<dyn Cursor + 'a>>) -> Self {
        let order = Vec::with_capacity(cursors.len());
        Merge { cursors, order, lent: None, started: false }
    }

    /// The next entry in key order, with older versions of its key
    /// skipped; `Ok(None)` once every cursor is exhausted.
    pub fn next_entry(&mut self) -> Result<Option<EntryRef<'_>>> {
        match self.step() {
            Ok(Some(winner)) => Ok(self.cursors.get(winner).and_then(|c| c.entry())),
            Ok(None) => Ok(None),
            Err(e) => {
                self.order.clear();
                self.lent = None;
                Err(e)
            }
        }
    }

    /// Advances the merge and returns the cursor now holding the winner.
    fn step(&mut self) -> Result<Option<usize>> {
        if !self.started {
            self.started = true;
            for i in 0..self.cursors.len() {
                self.advance_and_insert(i)?;
            }
        }
        if let Some(previous) = self.lent.take() {
            self.advance_and_insert(previous)?;
        }
        let Some(winner) = self.order.pop() else {
            return Ok(None);
        };
        // Older versions of the winner's key sort right below it.
        while let Some(&next) = self.order.last() {
            if self.compare(next, winner) != Some(Ordering::Equal) {
                break;
            }
            self.order.pop();
            self.advance_and_insert(next)?;
        }
        self.lent = Some(winner);
        Ok(Some(winner))
    }

    /// Key order of two cursors' current keys, `None` if either has none.
    fn compare(&self, a: usize, b: usize) -> Option<Ordering> {
        let key = |i: usize| self.cursors.get(i).and_then(|c| c.entry()).map(|(k, _)| k);
        Some(key(a)?.cmp(key(b)?))
    }

    /// Steps cursor `i` and, if it still holds an entry, files it in
    /// `order`.
    fn advance_and_insert(&mut self, i: usize) -> Result<()> {
        if let Some(cursor) = self.cursors.get_mut(i) {
            cursor.advance()?;
        }
        let cursors = &self.cursors;
        let Some((key, _)) = cursors.get(i).and_then(|c| c.entry()) else {
            return Ok(());
        };
        // Descending by (key, cursor): everything that sorts after `i`
        // stays in front of it.
        let pos = self.order.partition_point(|&j| {
            let other = cursors.get(j).and_then(|c| c.entry()).map(|(k, _)| k);
            other.cmp(&Some(key)).then(j.cmp(&i)) == Ordering::Greater
        });
        self.order.insert(pos, i);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;

    type Owned = Vec<(&'static str, Option<&'static str>)>;

    fn src(entries: &Owned) -> Box<dyn Cursor + '_> {
        Box::new(IterCursor::new(entries.iter().map(|(k, v)| (k.as_bytes(), v.map(str::as_bytes)))))
    }

    fn collect(mut merge: Merge<'_>) -> Vec<(String, Option<String>)> {
        let mut out = Vec::new();
        while let Some((k, v)) = merge.next_entry().unwrap() {
            out.push((
                String::from_utf8(k.to_vec()).unwrap(),
                v.map(|v| String::from_utf8(v.to_vec()).unwrap()),
            ));
        }
        out
    }

    fn merge_of(sources: &[Owned]) -> Vec<(String, Option<String>)> {
        collect(Merge::new(sources.iter().map(|s| src(s)).collect()))
    }

    #[test]
    fn merges_disjoint_sources_in_order() {
        let got = merge_of(&[
            vec![("b", Some("1")), ("d", Some("2"))],
            vec![("a", Some("3")), ("c", Some("4"))],
        ]);
        let keys: Vec<_> = got.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn newest_source_wins_on_duplicates() {
        let got = merge_of(&[
            vec![("k", Some("new"))], // source 0 = newest
            vec![("k", Some("old"))],
            vec![("k", Some("older"))],
        ]);
        assert_eq!(got, vec![("k".to_owned(), Some("new".to_owned()))]);
    }

    #[test]
    fn tombstones_shadow_older_values_but_are_emitted() {
        let got = merge_of(&[vec![("k", None)], vec![("k", Some("old"))]]);
        assert_eq!(got, vec![("k".to_owned(), None)]);
    }

    #[test]
    fn empty_sources_are_fine() {
        let got = merge_of(&[vec![], vec![("a", Some("1"))], vec![]]);
        assert_eq!(got, vec![("a".to_owned(), Some("1".to_owned()))]);
        assert_eq!(merge_of(&[]).len(), 0);
    }

    #[test]
    fn three_way_interleave_with_shadowing() {
        let got = merge_of(&[
            vec![("a", Some("a0")), ("c", None)],
            vec![("a", Some("a1")), ("b", Some("b1")), ("c", Some("c1"))],
            vec![("b", Some("b2")), ("d", Some("d2"))],
        ]);
        assert_eq!(
            got,
            vec![
                ("a".to_owned(), Some("a0".to_owned())),
                ("b".to_owned(), Some("b1".to_owned())),
                ("c".to_owned(), None),
                ("d".to_owned(), Some("d2".to_owned())),
            ]
        );
    }

    #[test]
    fn matches_a_map_model_over_many_sources() {
        // Eight sources with overlapping keys: the merge must equal a
        // model that applies sources oldest-first.
        let sources: Vec<Owned> = (0..8)
            .map(|s| {
                (0..40)
                    .filter(|k| (k * 7 + s * 3) % 5 != 0)
                    .map(|k| {
                        let key: &'static str = Box::leak(format!("k{k:03}").into_boxed_str());
                        let value: &'static str = Box::leak(format!("s{s}").into_boxed_str());
                        (key, (k % 9 != s).then_some(value))
                    })
                    .collect()
            })
            .collect();
        let mut model = std::collections::BTreeMap::new();
        for source in sources.iter().rev() {
            for (k, v) in source {
                model.insert(k.to_string(), v.map(str::to_owned));
            }
        }
        assert_eq!(merge_of(&sources), model.into_iter().collect::<Vec<_>>());
    }

    /// A cursor that lends one entry, then fails.
    struct Failing(bool);

    impl Cursor for Failing {
        fn entry(&self) -> Option<EntryRef<'_>> {
            self.0.then_some((b"a".as_slice(), Some(b"1".as_slice())))
        }

        fn advance(&mut self) -> Result<()> {
            if self.0 {
                self.0 = false;
                return Err(StorageError::corrupt("x", "boom"));
            }
            self.0 = true;
            Ok(())
        }
    }

    #[test]
    fn error_propagates_and_stops() {
        let mut m = Merge::new(vec![Box::new(Failing(false))]);
        assert!(m.next_entry().unwrap().is_some());
        assert!(m.next_entry().is_err());
        assert!(m.next_entry().unwrap().is_none(), "nothing after an error");
    }
}
