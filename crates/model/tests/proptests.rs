//! Property-based tests for the model layer: the canonical codec must
//! round-trip every representable value, and identity must be a function
//! of provenance content alone.

use pass_model::codec::{Decode, Encode};
use pass_model::{
    Annotation, Attributes, Derivation, Digest128, GeoPoint, ProvenanceBuilder, ProvenanceRecord,
    Reading, SensorId, SiteId, Timestamp, ToolDescriptor, TupleSet, TupleSetId, Value,
};
use proptest::prelude::*;

fn arb_value(depth: u32) -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-zA-Z0-9 _.-]{0,24}".prop_map(Value::from),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(Value::Bytes),
        any::<u64>().prop_map(|t| Value::Time(Timestamp(t))),
        (any::<f64>(), any::<f64>()).prop_map(|(a, b)| Value::Geo(GeoPoint::new(a, b))),
    ];
    leaf.prop_recursive(depth, 16, 4, |inner| {
        proptest::collection::vec(inner, 0..4).prop_map(Value::List)
    })
}

fn arb_attributes() -> impl Strategy<Value = Attributes> {
    proptest::collection::btree_map("[a-z][a-z0-9._]{0,12}", arb_value(2), 0..8)
        .prop_map(|m| m.into_iter().collect())
}

fn arb_reading() -> impl Strategy<Value = Reading> {
    (any::<u64>(), any::<u64>(), proptest::collection::vec(("[a-z]{1,8}", arb_value(1)), 0..4))
        .prop_map(|(s, t, fields)| Reading { sensor: SensorId(s), time: Timestamp(t), fields })
}

fn arb_derivation() -> impl Strategy<Value = Derivation> {
    (any::<u128>(), "[a-z]{1,8}", "[0-9.]{1,5}", arb_attributes(), any::<bool>()).prop_map(
        |(parent, name, version, params, abstracted)| {
            let tool = ToolDescriptor { name, version, params, abstracted };
            Derivation::new(TupleSetId(parent), tool)
        },
    )
}

fn arb_annotation() -> impl Strategy<Value = Annotation> {
    (any::<u64>(), "[a-z]{0,8}", "[ -~]{0,24}")
        .prop_map(|(at, author, text)| Annotation::new(Timestamp(at), author, text))
}

proptest! {
    /// The one-encoding identity check (`encode_verified_into`, and
    /// `decode_verified` over the stored bytes) agrees with the
    /// builder's identity for records with every value variant, 0–3
    /// derivations and 0–3 annotations. Flipping any identity-bearing
    /// byte of the encoding fails the check; replacing the annotations
    /// does not. The readings' stored bytes hash to the content digest.
    #[test]
    fn one_encoding_identity_check_agrees_with_the_builder(
        attrs in arb_attributes(),
        ancestry in proptest::collection::vec(arb_derivation(), 0..4),
        annotations in proptest::collection::vec(arb_annotation(), 0..4),
        replaced in proptest::collection::vec(arb_annotation(), 0..4),
        readings in proptest::collection::vec(arb_reading(), 0..4),
        origin in any::<u32>(),
        created in any::<u64>(),
        flip in any::<usize>(),
        bit in 0u32..8,
    ) {
        let mut builder = ProvenanceBuilder::new(SiteId(origin), Timestamp(created)).attrs(&attrs);
        for d in &ancestry {
            builder = builder.derived_from(d.parent, d.tool.clone());
        }
        let digest = TupleSet::content_digest_of(&readings);
        let mut record = builder.build(digest);
        prop_assert!(record.verify_identity());

        let mut data = Vec::new();
        TupleSet::encode_readings_into(&readings, &mut data);
        prop_assert_eq!(Digest128::of(&data), digest);

        record.annotations = annotations;
        let mut buf = b"prefix".to_vec();
        prop_assert!(record.encode_verified_into(&mut buf), "appends after existing bytes");
        let encoding = buf.split_off(6);
        prop_assert_eq!(&encoding, &record.encode_to_vec());
        let (decoded, verified) = ProvenanceRecord::decode_verified(&encoding).unwrap();
        prop_assert!(verified);
        prop_assert_eq!(&decoded, &record);

        // The identity-bearing bytes: everything but the annotation span.
        let annotations_at = TupleSetId::WIDTH
            + record.attributes.encode_to_vec().len()
            + record.ancestry.encode_to_vec().len();
        let tail_at = annotations_at + record.annotations.encode_to_vec().len();
        let bearing: Vec<usize> = (0..annotations_at).chain(tail_at..encoding.len()).collect();
        let at = bearing[flip % bearing.len()];
        let mut flipped = encoding.clone();
        flipped[at] ^= 1 << bit;
        // A flip that breaks the structure fails the check too.
        if let Ok((_, verified)) = ProvenanceRecord::decode_verified(&flipped) {
            prop_assert!(!verified, "flip at byte {} still verifies", at);
        }
        let mut forged = record.clone();
        forged.id = TupleSetId(forged.id.0 ^ (1 << (at % 128)));
        prop_assert!(!forged.encode_verified_into(&mut Vec::new()));

        record.annotations = replaced;
        prop_assert!(record.encode_verified_into(&mut Vec::new()));
        prop_assert!(ProvenanceRecord::decode_verified(&record.encode_to_vec()).unwrap().1);
    }

    #[test]
    fn value_codec_round_trips(v in arb_value(3)) {
        let enc = v.encode_to_vec();
        let dec = Value::decode_all(&enc).unwrap();
        prop_assert_eq!(v, dec);
    }

    #[test]
    fn attributes_codec_round_trips(a in arb_attributes()) {
        let enc = a.encode_to_vec();
        let dec = Attributes::decode_all(&enc).unwrap();
        prop_assert_eq!(a, dec);
    }

    #[test]
    fn value_ordering_is_total_and_consistent(a in arb_value(2), b in arb_value(2), c in arb_value(2)) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // Transitivity (spot check through one permutation).
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.cmp(&c), Ordering::Greater);
        }
        // Equality agrees with ordering.
        prop_assert_eq!(a == b, a.cmp(&b) == Ordering::Equal);
    }

    #[test]
    fn reading_codec_round_trips(r in arb_reading()) {
        let enc = r.encode_to_vec();
        let dec = Reading::decode_all(&enc).unwrap();
        prop_assert_eq!(r, dec);
    }

    #[test]
    fn tuple_set_codec_round_trips(
        attrs in arb_attributes(),
        readings in proptest::collection::vec(arb_reading(), 0..8),
        origin in any::<u32>(),
        created in any::<u64>(),
    ) {
        let record = ProvenanceBuilder::new(SiteId(origin), Timestamp(created))
            .attrs(&attrs)
            .build(TupleSet::content_digest_of(&readings));
        let ts = TupleSet::new(record, readings).unwrap();
        let enc = ts.encode_to_vec();
        let dec = TupleSet::decode_all(&enc).unwrap();
        prop_assert_eq!(ts, dec);
    }

    #[test]
    fn identity_depends_on_content(
        attrs in arb_attributes(),
        data_a in proptest::collection::vec(any::<u8>(), 1..64),
        data_b in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        prop_assume!(data_a != data_b);
        let builder = ProvenanceBuilder::new(SiteId(0), Timestamp(0)).attrs(&attrs);
        let a = builder.clone().build(Digest128::of(&data_a));
        let b = builder.build(Digest128::of(&data_b));
        // PASS property 3 under arbitrary attribute sets.
        prop_assert_ne!(a.id, b.id);
        prop_assert!(a.verify_identity());
        prop_assert!(b.verify_identity());
    }

    #[test]
    fn identity_ignores_annotations(attrs in arb_attributes(), note in "[ -~]{0,40}") {
        let mut rec = ProvenanceBuilder::new(SiteId(1), Timestamp(9))
            .attrs(&attrs)
            .derived_from(TupleSetId(77), ToolDescriptor::new("t", "1"))
            .build(Digest128::of(b"data"));
        let id = rec.id;
        rec.annotate(pass_model::Annotation::new(Timestamp(1), "author", note));
        prop_assert_eq!(rec.id, id);
        prop_assert!(rec.verify_identity());
    }

    #[test]
    fn id_byte_order_matches_numeric_order(a in any::<u128>(), b in any::<u128>()) {
        let (ia, ib) = (TupleSetId(a), TupleSetId(b));
        prop_assert_eq!(ia.cmp(&ib), ia.to_be_bytes().cmp(&ib.to_be_bytes()));
    }

    #[test]
    fn flatname_parse_never_panics(s in "[ -~]{0,64}") {
        let _ = pass_model::flatname::parse(&s);
    }

    #[test]
    fn truncated_encodings_error_not_panic(
        attrs in arb_attributes(),
        cut in 0usize..64,
    ) {
        let rec = ProvenanceBuilder::new(SiteId(2), Timestamp(3))
            .attrs(&attrs)
            .build(Digest128::of(b"x"));
        let enc = rec.encode_to_vec();
        let cut = cut.min(enc.len().saturating_sub(1));
        // Decoding any strict prefix must fail cleanly, never panic.
        let res = pass_model::ProvenanceRecord::decode_all(&enc[..cut]);
        prop_assert!(res.is_err());
    }
}
