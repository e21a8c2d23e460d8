//! Keyword index over annotations and descriptions.
//!
//! "Such descriptions and annotations must also be searchable" (§I). A
//! plain inverted text index: lowercase alphanumeric tokenization, token →
//! posting list, each stored packed ([`PackedPostings`]) and decoded by a
//! lookup.

use crate::arena::NodeIdx;
use crate::posting::{PackedPostings, PostingList};
use std::collections::HashMap;

/// Splits text into lowercase alphanumeric tokens, dropping one-character
/// tokens (noise at our scales).
pub fn tokenize(text: &str) -> impl Iterator<Item = String> + '_ {
    text.split(|c: char| !c.is_alphanumeric()).filter(|t| t.len() > 1).map(str::to_lowercase)
}

/// An inverted text index.
#[derive(Debug, Default, Clone)]
pub struct KeywordIndex {
    postings: HashMap<String, PackedPostings>,
    documents: u64,
}

impl KeywordIndex {
    /// An empty index.
    pub fn new() -> Self {
        KeywordIndex::default()
    }

    /// Drops every posting list's spare capacity (after a bulk load).
    pub fn shrink_to_fit(&mut self) {
        self.postings.values_mut().for_each(PackedPostings::shrink_to_fit);
    }

    /// Indexes one document's text under a node.
    pub fn insert(&mut self, idx: NodeIdx, text: &str) {
        for token in tokenize(text) {
            self.postings.entry(token).or_default().insert(idx);
        }
        self.documents += 1;
    }

    /// Bulk-indexes `documents` documents at once, tokenized by the
    /// caller and grouped by token: each distinct token comes once, with
    /// its nodes ascending, and is merged into its posting list.
    pub fn insert_bulk<'r>(
        &mut self,
        documents: u64,
        runs: impl IntoIterator<Item = (String, &'r [NodeIdx])>,
    ) {
        for (token, run) in runs {
            self.postings.entry(token).or_default().extend_sorted(run);
        }
        self.documents += documents;
    }

    /// Nodes whose indexed text contains the token.
    pub fn lookup(&self, token: &str) -> PostingList {
        self.postings.get(&token.to_lowercase()).map(PackedPostings::to_list).unwrap_or_default()
    }

    /// Nodes containing *all* tokens of the phrase (bag-of-words AND; no
    /// positional information is kept).
    pub fn lookup_all(&self, phrase: &str) -> PostingList {
        let lists: Vec<PostingList> = tokenize(phrase).map(|t| self.lookup(&t)).collect();
        if lists.is_empty() {
            return PostingList::new();
        }
        PostingList::intersect_all(lists.iter().collect())
    }

    /// Distinct tokens indexed.
    pub fn vocabulary_size(&self) -> usize {
        self.postings.len()
    }

    /// Documents indexed.
    pub fn documents(&self) -> u64 {
        self.documents
    }

    /// Heap bytes of the packed posting lists' gaps.
    pub fn posting_bytes(&self) -> usize {
        self.postings.values().map(PackedPostings::size_bytes).sum()
    }

    /// Rough heap footprint: tokens, the packed gap bytes and a fixed
    /// 48 B per map entry.
    pub fn size_bytes(&self) -> usize {
        self.postings.iter().map(|(tok, pl)| tok.len() + pl.size_bytes() + 48).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_lowercases_and_splits() {
        let toks: Vec<_> = tokenize("Sensor #12 replaced; firmware v2.1!").collect();
        assert_eq!(toks, vec!["sensor", "12", "replaced", "firmware", "v2"]);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let mut ix = KeywordIndex::new();
        ix.insert(0, "Pulse Oximeter calibrated");
        assert_eq!(ix.lookup("PULSE").as_slice(), &[0]);
        assert_eq!(ix.lookup("calibrated").as_slice(), &[0]);
        assert!(ix.lookup("missing").is_empty());
    }

    #[test]
    fn lookup_all_requires_every_token() {
        let mut ix = KeywordIndex::new();
        ix.insert(0, "sensor replaced with newer model");
        ix.insert(1, "sensor firmware upgraded");
        assert_eq!(ix.lookup_all("sensor replaced").as_slice(), &[0]);
        assert_eq!(ix.lookup_all("sensor").as_slice(), &[0, 1]);
        assert!(ix.lookup_all("sensor missing").is_empty());
        assert!(ix.lookup_all("").is_empty());
    }

    #[test]
    fn multiple_documents_per_node_accumulate() {
        let mut ix = KeywordIndex::new();
        ix.insert(3, "first note");
        ix.insert(3, "second note");
        assert_eq!(ix.lookup("note").as_slice(), &[3]);
        assert_eq!(ix.documents(), 2);
        assert!(ix.vocabulary_size() >= 3);
    }
}
