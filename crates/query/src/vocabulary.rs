//! The vocabulary of the resident record table: every attribute name
//! (of a record or of a tool's parameters), tool name and tool version
//! the index has met, each under a code.
//!
//! Records of one community spell out the same few names over and over
//! (§II-A), so the record table keeps each as the varint of its code
//! ([`Interner`]) and decodes it back through the vocabulary
//! ([`Names`]); every other byte of a resident record is its canonical
//! encoding. Codes are handed out in the order names are first met,
//! never change and are never reused, so every clone of an index shares
//! one vocabulary by `Arc` and a snapshot's records keep decoding while
//! later commits add names. A name interned by a commit that then failed
//! stays, unused.
//!
//! Lock: the vocabulary's `RwLock` is a leaf. It is taken once per record
//! encoded or decoded, and nothing else is locked while it is held.

use pass_model::codec::{put_varint, NameReader, NameWriter, Reader};
use pass_model::ModelError;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

/// An append-only map between vocabulary strings and codes.
#[derive(Debug, Default)]
pub(crate) struct Vocabulary {
    names: RwLock<Names>,
}

/// The vocabulary's contents: each name by code, and each code by name.
/// A held read guard decodes resident records ([`NameReader`]).
#[derive(Debug, Default)]
pub(crate) struct Names {
    list: Vec<Arc<str>>,
    codes: HashMap<Arc<str>, u32>,
}

impl Names {
    /// The code of `name`, if it has one.
    fn code(&self, name: &str) -> Option<u32> {
        self.codes.get(name).copied()
    }

    /// The name under `code`.
    pub(crate) fn name(&self, code: u32) -> Option<&str> {
        self.list.get(code as usize).map(|name| &**name)
    }
}

impl NameReader for Names {
    fn take_name(&self, r: &mut Reader<'_>, what: &'static str) -> Result<String, ModelError> {
        let code = r.take_varint(what)?;
        u32::try_from(code)
            .ok()
            .and_then(|code| self.name(code))
            .map(str::to_owned)
            .ok_or_else(|| ModelError::Invalid(format!("{what}: no vocabulary code {code}")))
    }
}

impl Vocabulary {
    /// Read access for decoding.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, Names> {
        self.names.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The code of `name`, assigning the next one when it has none.
    fn intern(&self, name: &str) -> u32 {
        // A poisoned lock's names are still valid: a name pushed to the
        // list whose code a panic kept out of the map is only never used.
        let mut names = self.names.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(code) = names.code(name) {
            return code;
        }
        let code = u32::try_from(names.list.len()).expect("fewer than 2^32 vocabulary names");
        let name: Arc<str> = Arc::from(name);
        names.list.push(Arc::clone(&name));
        names.codes.insert(name, code);
        code
    }

    /// Approximate heap bytes: each name's bytes and `Arc` header, the
    /// code list and the lookup table.
    pub(crate) fn size_bytes(&self) -> usize {
        let names = self.read();
        let strings: usize = names.list.iter().map(|name| name.len() + 16).sum();
        let entry = std::mem::size_of::<(Arc<str>, u32)>() + 1;
        strings
            + names.list.capacity() * std::mem::size_of::<Arc<str>>()
            + names.codes.capacity() * entry
    }
}

/// Writes vocabulary strings as the varints of their codes, interning
/// names met for the first time, and notes each code it writes. Holds
/// the vocabulary's read guard from its first name until it is dropped,
/// and gives it up only to intern a new name.
pub(crate) struct Interner<'a> {
    vocabulary: &'a Vocabulary,
    guard: Option<RwLockReadGuard<'a, Names>>,
    /// The codes written, in order.
    codes: &'a mut Vec<u32>,
}

impl<'a> Interner<'a> {
    /// An interner into `vocabulary` that appends each code it writes
    /// to `codes`.
    pub(crate) fn new(vocabulary: &'a Vocabulary, codes: &'a mut Vec<u32>) -> Self {
        Interner { vocabulary, guard: None, codes }
    }
}

impl NameWriter for Interner<'_> {
    fn put_name(&mut self, buf: &mut Vec<u8>, name: &str) {
        let known = self.guard.get_or_insert_with(|| self.vocabulary.read()).code(name);
        let code = known.unwrap_or_else(|| {
            // The write lock waits for every read guard, this one too.
            self.guard = None;
            self.vocabulary.intern(name)
        });
        put_varint(buf, u64::from(code));
        self.codes.push(code);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_follow_first_use_and_read_back() {
        let vocabulary = Vocabulary::default();
        let mut codes = Vec::new();
        let mut buf = Vec::new();
        let mut interner = Interner::new(&vocabulary, &mut codes);
        for name in ["domain", "region", "domain", "é", ""] {
            interner.put_name(&mut buf, name);
        }
        drop(interner);
        assert_eq!(codes, [0, 1, 0, 2, 3]);
        assert_eq!(buf, [0, 1, 0, 2, 3]);
        let names = vocabulary.read();
        let mut r = Reader::new(&buf);
        let read: Vec<String> = (0..5).map(|_| names.take_name(&mut r, "name").unwrap()).collect();
        assert_eq!(read, ["domain", "region", "domain", "é", ""]);
        assert!(names.take_name(&mut Reader::new(&[4]), "name").is_err());
    }

    #[test]
    fn resident_attribute_names_must_be_in_order() {
        use pass_model::{Digest128, ProvenanceBuilder, ProvenanceRecord, SiteId, Timestamp};
        let vocabulary = Vocabulary::default();
        let record = ProvenanceBuilder::new(SiteId(1), Timestamp(2))
            .attr("a", 1i64)
            .attr("b", 2i64)
            .build(Digest128::of(b"x"));
        let mut bytes = Vec::new();
        record.encode_with(&mut Interner::new(&vocabulary, &mut Vec::new()), &mut bytes);
        let decode = |bytes: &[u8]| ProvenanceRecord::decode_with(&*vocabulary.read(), bytes);
        assert_eq!(decode(&bytes).unwrap(), record);
        // After the id and the attribute count: code 0, `Int(1)` (tag 2,
        // zigzag 2), code 1, `Int(2)`. Swapped codes name `b` before `a`.
        let at = 17;
        assert_eq!(bytes[at..at + 6], [0, 2, 2, 1, 2, 4]);
        bytes.swap(at, at + 3);
        assert!(matches!(decode(&bytes), Err(ModelError::Invalid(_))));
    }
}
