//! The vocabulary of the resident record table: every attribute name
//! (of a record or of a tool's parameters), tool name and tool version
//! the index has met, and every string attribute value it has met
//! repeated, each under a code.
//!
//! Records of one community spell out the same few names and values
//! over and over (§II-A), so the record table keeps each as the varint of
//! its code ([`Interner`]) and decodes it back through the vocabulary
//! ([`Resident`]). A name joins the vocabulary the first time it is met.
//! A `Str` value (of a record attribute or a tool parameter) is written
//! as its code, behind the resident-only tag [`CODED_STR_TAG`], whenever
//! the vocabulary holds its string, as a name or as a value; otherwise it
//! stays inline. A value's string joins once the index holds that
//! `(attribute name, value)` pair for two records: at the push of the
//! second, which is coded, when the first is earlier in the same delta,
//! else at the merge of the delta that brought the second (which keeps
//! its inline bytes; every later record gets the code). A string met
//! once, such as a free-text description, therefore stays inline and
//! never grows the vocabulary. The rule is read from the input: there is
//! no knob.
//!
//! Codes are handed out in the order strings join, never change and are
//! never reused, so every clone of an index shares one vocabulary by
//! `Arc` and a snapshot's records keep decoding while later commits add
//! strings. A string interned by a commit that then failed stays,
//! unused.
//!
//! Lock: the vocabulary's `RwLock` is a leaf. It is taken once per record
//! encoded or decoded, once per delta merged, and once per string
//! interned, and nothing else is locked while it is held.

use pass_model::codec::{
    put_varint, Decode, Encode, NameReader, NameWriter, Reader, CODED_STR_TAG,
};
use pass_model::{ModelError, TupleSetId, Value};
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

/// An append-only map between vocabulary strings and codes.
#[derive(Debug, Default)]
pub(crate) struct Vocabulary {
    names: RwLock<Names>,
}

/// The vocabulary's contents: each string by code, and each code by
/// string.
#[derive(Debug, Default)]
pub(crate) struct Names {
    list: Vec<Arc<str>>,
    codes: HashMap<Arc<str>, u32>,
}

impl Names {
    /// The code of `name`, if it has one.
    pub(crate) fn code(&self, name: &str) -> Option<u32> {
        self.codes.get(name).copied()
    }

    /// The string under `code`.
    pub(crate) fn name(&self, code: u32) -> Option<&str> {
        self.list.get(code as usize).map(|name| &**name)
    }

    /// Reads a code and returns its string.
    fn take_code(&self, r: &mut Reader<'_>, what: &'static str) -> Result<&str, ModelError> {
        let code = r.take_varint(what)?;
        u32::try_from(code)
            .ok()
            .and_then(|code| self.name(code))
            .ok_or_else(|| ModelError::Invalid(format!("{what}: no vocabulary code {code}")))
    }
}

/// Reads a resident record: its vocabulary strings and coded values
/// through a held read guard of the vocabulary, its id and its parents'
/// ids (in ancestry order) from the index's graph, where they are held
/// instead of in the record's bytes.
pub(crate) struct Resident<'a> {
    pub(crate) names: &'a Names,
    pub(crate) id: TupleSetId,
    pub(crate) parents: &'a [TupleSetId],
}

impl NameReader for Resident<'_> {
    fn take_name(&self, r: &mut Reader<'_>, what: &'static str) -> Result<String, ModelError> {
        self.names.take_code(r, what).map(str::to_owned)
    }

    fn take_id(&self, _r: &mut Reader<'_>) -> Result<TupleSetId, ModelError> {
        Ok(self.id)
    }

    fn take_parent(&self, _r: &mut Reader<'_>, k: usize) -> Result<TupleSetId, ModelError> {
        self.parents.get(k).copied().ok_or_else(|| {
            ModelError::Invalid(format!("derivation {k} of {} has no parent in the graph", self.id))
        })
    }

    fn take_value(&self, r: &mut Reader<'_>) -> Result<Value, ModelError> {
        if r.peek_u8() != Some(CODED_STR_TAG) {
            return Value::decode_from(r);
        }
        r.take_u8("value tag")?;
        Ok(Value::Str(self.names.take_code(r, "str value")?.to_owned()))
    }
}

impl Vocabulary {
    /// Read access for decoding.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, Names> {
        self.names.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The code of `name`, assigning the next one when it has none.
    pub(crate) fn intern(&self, name: &str) -> u32 {
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

    /// Number of strings held.
    pub(crate) fn len(&self) -> usize {
        self.read().list.len()
    }

    /// Approximate heap bytes: each string's bytes and `Arc` header, the
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

/// Tells whether a record attribute's `(name code, value)` pair is held
/// by an earlier record of the same delta.
pub(crate) type Repeated<'a> = &'a dyn Fn(u32, &Value) -> bool;

/// Writes a record in its resident encoding: vocabulary strings as the
/// varints of their codes (interning names met for the first time), no
/// ids, and `Str` values as codes when the vocabulary holds their string.
/// Notes each name code it writes. Holds the vocabulary's read guard
/// from its first lookup until it is dropped, and gives it up only to
/// intern.
pub(crate) struct Interner<'a> {
    vocabulary: &'a Vocabulary,
    guard: Option<RwLockReadGuard<'a, Names>>,
    /// The name codes written, in order.
    codes: &'a mut Vec<u32>,
    /// How many of the first names written are the record's attribute
    /// names, the ones the index holds values under.
    attributes: usize,
    /// Whether a record attribute's value repeats an earlier record's:
    /// its string then joins the vocabulary. `None` interns no value.
    repeated: Option<Repeated<'a>>,
}

impl<'a> Interner<'a> {
    /// An interner into `vocabulary` that appends each name code it
    /// writes to `codes` and interns no value.
    pub(crate) fn new(vocabulary: &'a Vocabulary, codes: &'a mut Vec<u32>) -> Self {
        Interner { vocabulary, guard: None, codes, attributes: 0, repeated: None }
    }

    /// An interner for a record with `attributes` attributes that also
    /// interns the string of an attribute value `repeated` reports.
    pub(crate) fn for_record(
        vocabulary: &'a Vocabulary,
        codes: &'a mut Vec<u32>,
        attributes: usize,
        repeated: Repeated<'a>,
    ) -> Self {
        Interner { vocabulary, guard: None, codes, attributes, repeated: Some(repeated) }
    }

    /// The code of `name`, looked up under the held guard.
    fn lookup(&mut self, name: &str) -> Option<u32> {
        self.guard.get_or_insert_with(|| self.vocabulary.read()).code(name)
    }

    /// Interns `name`, giving up the read guard first: the write lock
    /// waits for every read guard, this one too.
    fn intern(&mut self, name: &str) -> u32 {
        self.guard = None;
        self.vocabulary.intern(name)
    }

    /// True when `value`, about to be written after the last name, is a
    /// record attribute's value that an earlier record of the delta
    /// holds too.
    fn repeats(&self, value: &Value) -> bool {
        match (self.repeated, self.codes.last()) {
            (Some(repeated), Some(&name)) => {
                self.codes.len() <= self.attributes && repeated(name, value)
            }
            _ => false,
        }
    }
}

impl NameWriter for Interner<'_> {
    fn put_name(&mut self, buf: &mut Vec<u8>, name: &str) {
        let code = match self.lookup(name) {
            Some(code) => code,
            None => self.intern(name),
        };
        put_varint(buf, u64::from(code));
        self.codes.push(code);
    }

    /// Writes nothing: the graph holds every id a record names.
    fn put_id(&mut self, _buf: &mut Vec<u8>, _id: TupleSetId) {}

    fn put_value(&mut self, buf: &mut Vec<u8>, value: &Value) {
        let Value::Str(text) = value else {
            return value.encode_into(buf);
        };
        let code = match self.lookup(text) {
            Some(code) => Some(code),
            None if self.repeats(value) => Some(self.intern(text)),
            None => None,
        };
        match code {
            Some(code) => {
                buf.push(CODED_STR_TAG);
                put_varint(buf, u64::from(code));
            }
            None => value.encode_into(buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_model::{Digest128, ProvenanceBuilder, ProvenanceRecord, SiteId, Timestamp};

    fn reader(names: &Names) -> Resident<'_> {
        Resident { names, id: TupleSetId(7), parents: &[] }
    }

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
        let read: Vec<String> =
            (0..5).map(|_| reader(&names).take_name(&mut r, "name").unwrap()).collect();
        assert_eq!(read, ["domain", "region", "domain", "é", ""]);
        assert!(reader(&names).take_name(&mut Reader::new(&[4]), "name").is_err());
    }

    #[test]
    fn a_string_value_is_a_code_once_the_vocabulary_holds_it() {
        let vocabulary = Vocabulary::default();
        let mut codes = Vec::new();
        let mut buf = Vec::new();
        let repeated = |_: u32, value: &Value| ["twice", "thrice"].map(Value::from).contains(value);
        let mut interner = Interner::for_record(&vocabulary, &mut codes, 1, &repeated);
        interner.put_name(&mut buf, "domain");
        // Held as a name, not repeated, repeated, met once.
        for text in ["domain", "once", "twice"] {
            interner.put_value(&mut buf, &Value::from(text));
        }
        // A tool parameter's value (past the record's one attribute) is
        // a code when the vocabulary holds it and never joins it.
        interner.put_name(&mut buf, "window");
        interner.put_value(&mut buf, &Value::from("twice"));
        interner.put_value(&mut buf, &Value::from("thrice"));
        drop(interner);
        let mut want = vec![0, CODED_STR_TAG, 0];
        want.extend(Value::from("once").encode_to_vec());
        want.extend([CODED_STR_TAG, 1, 2, CODED_STR_TAG, 1]);
        want.extend(Value::from("thrice").encode_to_vec());
        assert_eq!(buf, want);
        assert_eq!(vocabulary.len(), 3, "domain, twice, window");
        let names = vocabulary.read();
        let mut r = Reader::new(&buf);
        r.take_varint("name").unwrap();
        let read: Vec<Value> = (0..3).map(|_| reader(&names).take_value(&mut r).unwrap()).collect();
        assert_eq!(read, ["domain", "once", "twice"].map(Value::from));
        // Canonical decoding rejects the resident-only tag.
        assert!(Value::decode_all(&[CODED_STR_TAG, 0]).is_err());
    }

    #[test]
    fn resident_attribute_names_must_be_in_order() {
        let vocabulary = Vocabulary::default();
        let record = ProvenanceBuilder::new(SiteId(1), Timestamp(2))
            .attr("a", 1i64)
            .attr("b", 2i64)
            .build(Digest128::of(b"x"));
        let mut bytes = Vec::new();
        record.encode_with(&mut Interner::new(&vocabulary, &mut Vec::new()), &mut bytes);
        let decode = |bytes: &[u8]| {
            let names = vocabulary.read();
            let resident = Resident { names: &names, id: record.id, parents: &[] };
            ProvenanceRecord::decode_with(&resident, bytes)
        };
        assert_eq!(decode(&bytes).unwrap(), record);
        // No id: after the attribute count come code 0, `Int(1)` (tag 2,
        // zigzag 2), code 1, `Int(2)`. Swapped codes name `b` before `a`.
        let at = 1;
        assert_eq!(bytes[at..at + 6], [0, 2, 2, 1, 2, 4]);
        bytes.swap(at, at + 3);
        assert!(matches!(decode(&bytes), Err(ModelError::Invalid(_))));
    }
}
