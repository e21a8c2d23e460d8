//! First-class provenance records (§II-A, §V).
//!
//! A [`ProvenanceRecord`] is the identity-bearing object of PASS: its
//! attributes and ancestry *are* the name of the tuple set it describes.
//! The four PASS properties (§V) map onto this module as follows:
//!
//! 1. *Provenance is a first-class object* — it is a standalone record,
//!    stored and indexed independently of the readings it describes.
//! 2. *Provenance can be queried* — every attribute, derivation edge, and
//!    annotation is reachable by `pass-index` / `pass-query`.
//! 3. *Nonidentical data items do not have identical provenance* — the
//!    content digest of the readings participates in the identity hash
//!    ([`ProvenanceBuilder::build`]).
//! 4. *Provenance is not lost if ancestor objects are removed* — records
//!    refer to parents by [`TupleSetId`], never by physical location, and
//!    `pass-core` keeps records alive after data deletion.

use crate::attr::Attributes;
use crate::codec::{self, Decode, Encode, Literal, NameReader, NameWriter, Reader};
use crate::digest::Digest128;
use crate::error::ModelError;
use crate::ids::{SiteId, TupleSetId};
use crate::keys;
use crate::time::{TimeRange, Timestamp};
use serde::{Deserialize, Serialize};

/// Identifies the program (or physical process) that produced a tuple set
/// from its parents.
///
/// `abstracted` implements the paper's §V observation that "it is far more
/// useful for this information to be reported as *gcc 3.3.3* rather than as
/// a detailed record of gcc's own provenance": lineage traversals stop at
/// abstracted tools instead of expanding the tool's own history.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ToolDescriptor {
    /// Tool name, e.g. `"sharpen"` or `"gcc"`.
    pub name: String,
    /// Tool version, e.g. `"3.3.3"`.
    pub version: String,
    /// Configuration parameters the tool ran with.
    pub params: Attributes,
    /// When true, this descriptor is an abstraction boundary: queries
    /// report the name/version and do not chase the tool's own provenance.
    pub abstracted: bool,
}

impl ToolDescriptor {
    /// A concrete tool whose own provenance remains expandable.
    pub fn new(name: impl Into<String>, version: impl Into<String>) -> Self {
        ToolDescriptor {
            name: name.into(),
            version: version.into(),
            params: Attributes::new(),
            abstracted: false,
        }
    }

    /// An abstracted tool ("gcc 3.3.3"-style summary; §V).
    pub fn abstracted(name: impl Into<String>, version: impl Into<String>) -> Self {
        ToolDescriptor { abstracted: true, ..ToolDescriptor::new(name, version) }
    }

    /// Adds a parameter, returning `self` for chaining.
    pub fn with_param(mut self, name: impl Into<String>, value: impl Into<crate::Value>) -> Self {
        self.params.set(name, value);
        self
    }

    /// `name vVERSION` display form.
    pub fn label(&self) -> String {
        format!("{} v{}", self.name, self.version)
    }
}

/// One ancestry edge: this tuple set was derived from `parent` by `tool`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Derivation {
    /// The input tuple set.
    pub parent: TupleSetId,
    /// The program that performed the derivation.
    pub tool: ToolDescriptor,
}

impl Derivation {
    /// Creates an edge.
    pub fn new(parent: TupleSetId, tool: ToolDescriptor) -> Self {
        Derivation { parent, tool }
    }
}

/// A post-hoc note attached to a record (sensor replacements, software
/// upgrades, analyst remarks — §I). Annotations do not participate in
/// identity: they describe the record, they do not change what it names.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Annotation {
    /// When the annotation was made.
    pub at: Timestamp,
    /// Who made it.
    pub author: String,
    /// Free text; indexed by the keyword index.
    pub text: String,
}

impl Annotation {
    /// Creates an annotation.
    pub fn new(at: Timestamp, author: impl Into<String>, text: impl Into<String>) -> Self {
        Annotation { at, author: author.into(), text: text.into() }
    }
}

/// The provenance of one tuple set: its name, rendered as data.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProvenanceRecord {
    /// Identity: digest of the canonical encoding of everything below
    /// except `annotations` (which are mutable post-hoc).
    pub id: TupleSetId,
    /// Descriptive name-value pairs.
    pub attributes: Attributes,
    /// Edges to the tuple sets this one was derived from. Empty for raw
    /// sensor captures.
    pub ancestry: Vec<Derivation>,
    /// Post-hoc notes; excluded from identity.
    pub annotations: Vec<Annotation>,
    /// The site where this tuple set was produced (placement experiments
    /// key off this; "Boston traffic data belongs in Boston", §III-D).
    pub origin: SiteId,
    /// Production time.
    pub created_at: Timestamp,
    /// Digest of the canonical encoding of the readings. Ensures PASS
    /// property 3: different data ⇒ different identity.
    pub content_digest: Digest128,
}

impl ProvenanceRecord {
    /// True for raw captures (no ancestry).
    pub fn is_raw(&self) -> bool {
        self.ancestry.is_empty()
    }

    /// Parent ids in ancestry order.
    pub fn parents(&self) -> impl Iterator<Item = TupleSetId> + '_ {
        self.ancestry.iter().map(|d| d.parent)
    }

    /// The covered time window, when the conventional `time.start` /
    /// `time.end` attributes are present and well-formed.
    pub fn time_range(&self) -> Option<TimeRange> {
        let start = self.attributes.get_time(keys::TIME_START)?;
        let end = self.attributes.get_time(keys::TIME_END)?;
        (start <= end).then_some(TimeRange { start, end })
    }

    /// Recomputes the identity this record *should* have and compares.
    /// Detects index/data inconsistencies (§IV-A warns that loosely coupled
    /// indexes let "inconsistencies creep in").
    pub fn verify_identity(&self) -> bool {
        let recomputed = identity_digest(
            &self.attributes,
            &self.ancestry,
            self.origin,
            self.created_at,
            self.content_digest,
        );
        recomputed == self.id
    }

    /// Appends the canonical encoding to `buf` and reports whether the
    /// id is the identity of the record: the id is checked against the
    /// digest of the bytes just written, minus the id itself and the
    /// annotation span, so a store that writes these bytes hashes them
    /// once and serializes the record once.
    pub fn encode_verified_into(&self, buf: &mut Vec<u8>) -> bool {
        let start = buf.len();
        let spans = self.encode_spans(&mut Literal, buf);
        identity_of(&buf[start..], spans) == self.id
    }

    /// Decodes a stored encoding and reports whether its id is the
    /// identity of the decoded record, hashing the identity spans of
    /// `bytes` themselves rather than a re-encoding of the record.
    pub fn decode_verified(bytes: &[u8]) -> Result<(ProvenanceRecord, bool), ModelError> {
        let (record, spans) = Self::decode_whole(&Literal, bytes)?;
        let verified = identity_of(bytes, spans) == record.id;
        Ok((record, verified))
    }

    /// Appends the record's encoding with its vocabulary strings
    /// (attribute names, tool names and versions, tool parameter names)
    /// written by `names`; with [`Literal`] these are the canonical bytes.
    pub fn encode_with(&self, names: &mut impl NameWriter, buf: &mut Vec<u8>) {
        self.encode_spans(names, buf);
    }

    /// Decodes a whole encoding written by [`ProvenanceRecord::encode_with`],
    /// its vocabulary strings read by `names`.
    pub fn decode_with(names: &impl NameReader, bytes: &[u8]) -> Result<Self, ModelError> {
        Ok(Self::decode_whole(names, bytes)?.0)
    }

    /// Appends the encoding — the id, then the identity head, the
    /// annotations, and the identity tail — and returns where the
    /// annotations and the tail start, relative to the encoding's start.
    fn encode_spans(&self, names: &mut impl NameWriter, buf: &mut Vec<u8>) -> [usize; 2] {
        let start = buf.len();
        self.id.encode_into(buf);
        encode_identity_head(&self.attributes, &self.ancestry, names, buf);
        let annotations_at = buf.len() - start;
        self.annotations.encode_into(buf);
        let tail_at = buf.len() - start;
        encode_identity_tail(self.origin, self.created_at, self.content_digest, buf);
        [annotations_at, tail_at]
    }

    /// Adds an annotation (does not change identity).
    pub fn annotate(&mut self, annotation: Annotation) {
        self.annotations.push(annotation);
    }
}

// A record's identity preimage is its canonical encoding without the id
// and without the annotation span: the identity head (attributes and
// ancestry) followed by the identity tail (origin, creation time and
// content digest). Both the builder's hash and the stored encoding write
// these fields through the two functions below, so the layouts cannot
// drift apart.

fn encode_identity_head(
    attributes: &Attributes,
    ancestry: &[Derivation],
    names: &mut impl NameWriter,
    buf: &mut Vec<u8>,
) {
    attributes.encode_with(names, buf);
    codec::put_varint(buf, ancestry.len() as u64);
    for d in ancestry {
        d.encode_with(names, buf);
    }
}

fn encode_identity_tail(
    origin: SiteId,
    created_at: Timestamp,
    content_digest: Digest128,
    buf: &mut Vec<u8>,
) {
    origin.encode_into(buf);
    created_at.encode_into(buf);
    buf.extend_from_slice(&content_digest.0.to_be_bytes());
}

/// The identity named by a record encoding, given where its annotation
/// span and its identity tail start.
fn identity_of(encoding: &[u8], [annotations_at, tail_at]: [usize; 2]) -> TupleSetId {
    let head = &encoding[TupleSetId::WIDTH..annotations_at];
    TupleSetId(Digest128::of_parts(&[head, &encoding[tail_at..]]).0)
}

/// Computes a record identity from its identity-bearing fields.
fn identity_digest(
    attributes: &Attributes,
    ancestry: &[Derivation],
    origin: SiteId,
    created_at: Timestamp,
    content_digest: Digest128,
) -> TupleSetId {
    let mut buf = Vec::with_capacity(attributes.len() * 16 + ancestry.len() * 24 + 48);
    encode_identity_head(attributes, ancestry, &mut Literal, &mut buf);
    encode_identity_tail(origin, created_at, content_digest, &mut buf);
    TupleSetId(Digest128::of(&buf).0)
}

/// Builder for [`ProvenanceRecord`]s.
///
/// ```
/// use pass_model::{ProvenanceBuilder, Digest128, SiteId, Timestamp};
///
/// let record = ProvenanceBuilder::new(SiteId(3), Timestamp::from_secs(60))
///     .attr("domain", "traffic")
///     .attr("region", "london")
///     .build(Digest128::of(b"...readings..."));
/// assert!(record.verify_identity());
/// ```
#[derive(Debug, Clone)]
pub struct ProvenanceBuilder {
    attributes: Attributes,
    ancestry: Vec<Derivation>,
    origin: SiteId,
    created_at: Timestamp,
}

impl ProvenanceBuilder {
    /// Starts a record produced at `origin` at time `created_at`.
    pub fn new(origin: SiteId, created_at: Timestamp) -> Self {
        ProvenanceBuilder {
            attributes: Attributes::new(),
            ancestry: Vec::new(),
            origin,
            created_at,
        }
    }

    /// Sets one attribute.
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<crate::Value>) -> Self {
        self.attributes.set(name, value);
        self
    }

    /// Sets many attributes at once (merged over any already present).
    pub fn attrs(mut self, attrs: &Attributes) -> Self {
        self.attributes.merge(attrs);
        self
    }

    /// Declares the conventional time window attributes.
    pub fn time_range(self, range: TimeRange) -> Self {
        self.attr(keys::TIME_START, range.start).attr(keys::TIME_END, range.end)
    }

    /// Adds an ancestry edge.
    pub fn derived_from(mut self, parent: TupleSetId, tool: ToolDescriptor) -> Self {
        self.ancestry.push(Derivation::new(parent, tool));
        self
    }

    /// Finalizes the record. `content_digest` must be the digest of the
    /// canonical encoding of the readings this record describes (use
    /// [`crate::TupleSet::content_digest_of`]); it binds identity to data.
    pub fn build(self, content_digest: Digest128) -> ProvenanceRecord {
        let id = identity_digest(
            &self.attributes,
            &self.ancestry,
            self.origin,
            self.created_at,
            content_digest,
        );
        ProvenanceRecord {
            id,
            attributes: self.attributes,
            ancestry: self.ancestry,
            annotations: Vec::new(),
            origin: self.origin,
            created_at: self.created_at,
            content_digest,
        }
    }
}

// ---------------------------------------------------------------------------
// Codec impls
// ---------------------------------------------------------------------------

impl ToolDescriptor {
    fn encode_with(&self, names: &mut impl NameWriter, buf: &mut Vec<u8>) {
        names.put_name(buf, &self.name);
        names.put_name(buf, &self.version);
        self.params.encode_with(names, buf);
        self.abstracted.encode_into(buf);
    }

    fn decode_with(names: &impl NameReader, r: &mut Reader<'_>) -> Result<Self, ModelError> {
        Ok(ToolDescriptor {
            name: names.take_name(r, "tool name")?,
            version: names.take_name(r, "tool version")?,
            params: Attributes::decode_with(names, r)?,
            abstracted: bool::decode_from(r)?,
        })
    }
}

impl Encode for ToolDescriptor {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.encode_with(&mut Literal, buf);
    }
}

impl Decode for ToolDescriptor {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        Self::decode_with(&Literal, r)
    }
}

impl Derivation {
    fn encode_with(&self, names: &mut impl NameWriter, buf: &mut Vec<u8>) {
        self.parent.encode_into(buf);
        self.tool.encode_with(names, buf);
    }

    fn decode_with(names: &impl NameReader, r: &mut Reader<'_>) -> Result<Self, ModelError> {
        Ok(Derivation {
            parent: TupleSetId::decode_from(r)?,
            tool: ToolDescriptor::decode_with(names, r)?,
        })
    }
}

impl Encode for Derivation {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.encode_with(&mut Literal, buf);
    }
}

impl Decode for Derivation {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        Self::decode_with(&Literal, r)
    }
}

impl Encode for Annotation {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.at.encode_into(buf);
        codec::put_str(buf, &self.author);
        codec::put_str(buf, &self.text);
    }
}

impl Decode for Annotation {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        Ok(Annotation {
            at: Timestamp::decode_from(r)?,
            author: codec::take_string(r, "annotation author")?,
            text: codec::take_string(r, "annotation text")?,
        })
    }
}

impl Encode for ProvenanceRecord {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.encode_spans(&mut Literal, buf);
    }
}

impl ProvenanceRecord {
    /// Decodes a record from the front of `r`, vocabulary strings read
    /// by `names`, and returns where its annotations and its identity
    /// tail start, relative to where it starts (the spans
    /// [`ProvenanceRecord::encode_spans`] reports).
    fn decode_spans(
        names: &impl NameReader,
        r: &mut Reader<'_>,
    ) -> Result<(Self, [usize; 2]), ModelError> {
        let start = r.position();
        let id = TupleSetId::decode_from(r)?;
        let attributes = Attributes::decode_with(names, r)?;
        let ancestry = codec::take_list(r, |r| Derivation::decode_with(names, r))?;
        let annotations_at = r.position() - start;
        let annotations = Vec::<Annotation>::decode_from(r)?;
        let tail_at = r.position() - start;
        let record = ProvenanceRecord {
            id,
            attributes,
            ancestry,
            annotations,
            origin: SiteId::decode_from(r)?,
            created_at: Timestamp::decode_from(r)?,
            content_digest: Digest128(r.take_u128_be("content digest")?),
        };
        Ok((record, [annotations_at, tail_at]))
    }

    /// [`ProvenanceRecord::decode_spans`] over the whole of `bytes`.
    fn decode_whole(
        names: &impl NameReader,
        bytes: &[u8],
    ) -> Result<(Self, [usize; 2]), ModelError> {
        let mut r = Reader::new(bytes);
        let decoded = Self::decode_spans(names, &mut r)?;
        if !r.is_empty() {
            return Err(ModelError::Invalid(format!(
                "{} trailing bytes after decode",
                r.remaining()
            )));
        }
        Ok(decoded)
    }
}

impl Decode for ProvenanceRecord {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        Ok(Self::decode_spans(&Literal, r)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn sample_record() -> ProvenanceRecord {
        ProvenanceBuilder::new(SiteId(7), Timestamp::from_secs(100))
            .attr(keys::DOMAIN, "traffic")
            .attr(keys::REGION, "london")
            .time_range(TimeRange::new(Timestamp::from_secs(40), Timestamp::from_secs(100)))
            .derived_from(TupleSetId(1234), ToolDescriptor::new("dedupe", "1.2"))
            .build(Digest128::of(b"readings"))
    }

    #[test]
    fn identity_is_stable_and_verifiable() {
        let r1 = sample_record();
        let r2 = sample_record();
        assert_eq!(r1.id, r2.id, "same provenance, same name");
        assert!(r1.verify_identity());
    }

    #[test]
    fn different_content_different_identity() {
        // PASS property 3: nonidentical data items do not share provenance.
        let base = ProvenanceBuilder::new(SiteId(1), Timestamp(5)).attr("k", "v");
        let a = base.clone().build(Digest128::of(b"data A"));
        let b = base.build(Digest128::of(b"data B"));
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn different_attributes_different_identity() {
        let digest = Digest128::of(b"same data");
        let a = ProvenanceBuilder::new(SiteId(1), Timestamp(5)).attr("k", "v1").build(digest);
        let b = ProvenanceBuilder::new(SiteId(1), Timestamp(5)).attr("k", "v2").build(digest);
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn annotations_do_not_change_identity() {
        let mut r = sample_record();
        let id = r.id;
        r.annotate(Annotation::new(Timestamp(999), "ops", "sensor 12 replaced"));
        assert_eq!(r.id, id);
        assert!(r.verify_identity(), "identity check ignores annotations");
    }

    #[test]
    fn tampered_attributes_fail_verification() {
        let mut r = sample_record();
        r.attributes.set("k", "tampered");
        assert!(!r.verify_identity());
    }

    #[test]
    fn record_round_trips_through_codec() {
        let mut r = sample_record();
        r.annotate(Annotation::new(Timestamp(1), "a", "note"));
        let enc = r.encode_to_vec();
        let dec = ProvenanceRecord::decode_all(&enc).unwrap();
        assert_eq!(r, dec);
    }

    #[test]
    fn time_range_helper_reads_conventional_attrs() {
        let r = sample_record();
        let range = r.time_range().unwrap();
        assert_eq!(range.start, Timestamp::from_secs(40));
        assert_eq!(range.end, Timestamp::from_secs(100));
    }

    #[test]
    fn time_range_helper_rejects_inverted_window() {
        let r = ProvenanceBuilder::new(SiteId(0), Timestamp(0))
            .attr(keys::TIME_START, Value::Time(Timestamp(10)))
            .attr(keys::TIME_END, Value::Time(Timestamp(5)))
            .build(Digest128::of(b"x"));
        assert_eq!(r.time_range(), None);
    }

    #[test]
    fn abstracted_tool_flag_round_trips() {
        let t = ToolDescriptor::abstracted("gcc", "3.3.3").with_param("opt", "O2");
        let dec = ToolDescriptor::decode_all(&t.encode_to_vec()).unwrap();
        assert!(dec.abstracted);
        assert_eq!(dec.label(), "gcc v3.3.3");
        assert_eq!(dec.params.get_str("opt"), Some("O2"));
    }

    #[test]
    fn parents_iterates_ancestry() {
        let r = sample_record();
        let parents: Vec<_> = r.parents().collect();
        assert_eq!(parents, vec![TupleSetId(1234)]);
        assert!(!r.is_raw());
    }
}
