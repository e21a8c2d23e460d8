//! Seeded inputs: base stores built from the `pass-sensor` generators
//! and pipeline derivations, the publish batches gateways send, and the
//! query texts analysts run.

use crate::util::Rng;
use pass_model::{Digest128, GeoPoint, ProvenanceBuilder, SiteId, Timestamp, TupleSet, TupleSetId};
use pass_sensor::spec::CaptureSpec;
use pass_sensor::workload::{self, Vocabulary};
use pass_sensor::{medical, pipeline, traffic, weather};
use std::collections::HashMap;

/// Site stamped on every generated record.
pub const SITE: SiteId = SiteId(1);
/// Region every published set carries; the subscription matches it and
/// no base-store query does.
pub const GATEWAY_REGION: &str = "gateway";
/// The standing subscription: matches every publish.
pub const SUBSCRIBE: &str = "SUBSCRIBE FIND WHERE region = \"gateway\"";
/// Result page size of every query and lineage op.
pub const PAGE: u64 = 50;

const REGIONS: [&str; 8] = ["london", "boston", "paris", "lagos", "osaka", "lima", "oslo", "pune"];
/// Windows per generator stream per round.
const WINDOWS: usize = 24;
/// Generated time advances four hours (one weather stream) per round.
const ROUND_MS: u64 = 14_400_000;
/// Publishes live far beyond the base store's time span.
const PUBLISH_EPOCH_MS: u64 = 1 << 42;

/// A base store: its sets in ingest order (parents first), the query
/// vocabulary, lineage roots and point-fetch keys.
pub struct Corpus {
    pub sets: Vec<TupleSet>,
    pub vocab: Vocabulary,
    /// Derived ids at levels 2 and 3 (their ancestor closures have depth).
    pub deep: Vec<TupleSetId>,
    /// Ids whose readings are stored, in ingest order (skewed choices
    /// favour the front). Ranks follow the generators' order rather than a
    /// seeded shuffle, so the hot keys are the same kinds of set on every
    /// seed and the fetch median does not move with the seed's mix.
    pub fetch_keys: Vec<TupleSetId>,
}

fn capture(spec: CaptureSpec) -> TupleSet {
    let record = ProvenanceBuilder::new(SITE, spec.at)
        .attrs(&spec.attrs)
        .build(TupleSet::content_digest_of(&spec.readings));
    TupleSet::new_unchecked(record, spec.readings)
}

fn derive(spec: pipeline::DeriveSpec) -> TupleSet {
    let mut builder = ProvenanceBuilder::new(SITE, spec.at).attrs(&spec.attrs);
    for &parent in &spec.parents {
        builder = builder.derived_from(parent, spec.tool.clone());
    }
    let record = builder.build(TupleSet::content_digest_of(&spec.readings));
    TupleSet::new_unchecked(record, spec.readings)
}

/// One round of raw captures: a traffic zone, its weather stations and
/// an ambulance incident, all in one region and one round of time.
fn raw_round(seed: u64, round: usize) -> Vec<Vec<TupleSet>> {
    let region = REGIONS[round % REGIONS.len()];
    let start = Timestamp(round as u64 * ROUND_MS);
    let s = seed.wrapping_mul(1_000_003).wrapping_add(round as u64);
    let traffic = traffic::generate(
        &traffic::TrafficConfig {
            region: region.to_owned(),
            center: GeoPoint::new(10.0 + round as f64 * 0.01, 20.0),
            sensors: 8,
            base_rate: 1.5,
            sensor_base: round as u64 * 100,
            seed: s,
            ..Default::default()
        },
        start,
        WINDOWS,
    );
    let weather = weather::generate(
        &weather::WeatherConfig {
            region: region.to_owned(),
            stations: 4,
            samples_per_window: 4,
            sensor_base: 1_000_000 + round as u64 * 100,
            seed: s ^ 0x5555,
            ..Default::default()
        },
        start,
        WINDOWS,
    );
    let medical = medical::generate(
        &medical::MedicalConfig {
            incident: format!("incident-{round}"),
            patients: 4,
            emts: 3,
            sample_ms: 15_000,
            sensor_base: 2_000_000 + round as u64 * 100,
            seed: s ^ 0xaaaa,
            ..Default::default()
        },
        start,
        WINDOWS,
    );
    [traffic, weather, medical]
        .into_iter()
        .map(|specs| specs.into_iter().map(capture).collect())
        .collect()
}

const FIELDS: [&str; 3] = ["speed_kmh", "temp_c", "hr_bpm"];

/// Builds a base store of about `target` sets: raw captures plus three
/// levels of `aggregate` derivations (4 inputs each) and a `filter`
/// stage on every 16th raw set.
pub fn build(seed: u64, target: usize) -> Corpus {
    let raw_target = target * 3 / 4;
    let mut sets: Vec<TupleSet> = Vec::with_capacity(target + target / 8);
    let mut deep = Vec::new();
    let mut round = 0;
    let mut raw = 0;
    while raw < raw_target {
        let streams = raw_round(seed, round);
        let at = Timestamp(round as u64 * ROUND_MS + ROUND_MS - 1);
        for (stream, field) in streams.into_iter().zip(FIELDS) {
            raw += stream.len();
            let mut level: Vec<TupleSet> = Vec::new();
            for (i, ts) in stream.iter().enumerate() {
                if i % 16 == 0 {
                    level.push(derive(pipeline::filter_threshold(ts, field, 0.0, at)));
                }
            }
            let mut prev: Vec<TupleSet> = stream;
            let mut field = field;
            for depth in 1..=3 {
                let next: Vec<TupleSet> = prev
                    .chunks(4)
                    .map(|chunk| {
                        let inputs: Vec<&TupleSet> = chunk.iter().collect();
                        derive(pipeline::aggregate(&inputs, field, at))
                    })
                    .collect();
                if depth >= 2 {
                    deep.extend(next.iter().map(|t| t.provenance.id));
                }
                sets.append(&mut prev);
                prev = next;
                field = "mean";
            }
            sets.append(&mut prev);
            sets.append(&mut level);
        }
        round += 1;
    }
    let fetch_keys: Vec<TupleSetId> = sets.iter().map(|t| t.provenance.id).collect();
    let vocab = Vocabulary {
        ids: deep.clone(),
        regions: REGIONS.iter().map(|r| (*r).to_owned()).collect(),
        patients: (0..4).map(|p| format!("patient-{p:03}")).collect(),
        operators: (0..3).map(|e| format!("emt-{e}")).collect(),
        // `blame-by-tool` names the filter stage: ordering every aggregate
        // (a quarter of the store) costs 0.1–0.3 s per page.
        tools: vec!["filter".into()],
        time_span: (Timestamp(0), Timestamp(round as u64 * ROUND_MS)),
    };
    Corpus { sets, vocab, deep, fetch_keys }
}

/// `batches` publish batches of `per_batch` sets each for gateway
/// `gateway`: traffic captures in the gateway region, timed far after
/// the base store, all distinct.
pub fn publish_batches(
    seed: u64,
    gateway: u32,
    batches: usize,
    per_batch: usize,
) -> Vec<Vec<TupleSet>> {
    let sensors = 16;
    let windows = (batches * per_batch).div_ceil(sensors);
    let start = Timestamp(PUBLISH_EPOCH_MS + u64::from(gateway) * (1 << 36));
    let specs = traffic::generate(
        &traffic::TrafficConfig {
            region: GATEWAY_REGION.to_owned(),
            sensors,
            base_rate: 1.5,
            sensor_base: 10_000_000 + u64::from(gateway) * 1_000,
            seed: seed ^ (0x6a7e << 8) ^ u64::from(gateway),
            ..Default::default()
        },
        start,
        windows,
    );
    let sets: Vec<TupleSet> = specs.into_iter().map(capture).collect();
    sets.chunks(per_batch).take(batches).map(<[TupleSet]>::to_vec).collect()
}

/// A query mix: `pass-sensor` template labels and how many of each per
/// cycle. Proportions are fixed so every run sees the same mix.
pub type QueryMix = &'static [(&'static str, usize)];

/// The query mix, one cycle of 20 ops. Cheap index lookups form the middle of the cost distribution
/// and the two `ORDER BY created` shapes its top 15 %, so the median
/// and the p99 each fall inside one shape's band rather than on a
/// boundary between shapes. `changes-since` (a quarter of the store,
/// sorted: 0.1–1.5 s at these sizes) is left out.
pub const LOOKUP_MIX: QueryMix = &[
    ("point-in-time", 2),
    ("tag-lookup", 3),
    ("anomaly-hunt", 4),
    ("by-operator", 5),
    ("patient-window", 3),
    ("patient-timeline", 2),
    ("blame-by-tool", 1),
];

/// `n` query texts cycling through `mix`, parameters drawn by the
/// `pass-sensor` workload generators over the corpus vocabulary.
pub fn query_texts(seed: u64, vocab: &Vocabulary, mix: QueryMix, n: usize) -> Vec<String> {
    let mut rng = pass_sensor::gen::rng_for(seed, "perfbench-queries");
    let per = n.div_ceil(4) + 4;
    let mut pools: HashMap<&str, Vec<String>> = HashMap::new();
    for spec in workload::versioning(vocab, &mut rng, per * 4).into_iter().chain(workload::sensor(
        vocab,
        &mut rng,
        per * 4,
    )) {
        pools.entry(spec.label).or_default().push(spec.text);
    }
    let cycle: Vec<&str> =
        mix.iter().flat_map(|&(label, k)| std::iter::repeat_n(label, k)).collect();
    let mut taken: HashMap<&str, usize> = HashMap::new();
    (0..n)
        .map(|i| {
            let label = cycle[i % cycle.len()];
            let pool = &pools[label];
            let k = taken.entry(label).or_default();
            *k += 1;
            pool[(*k - 1) % pool.len()].clone()
        })
        .collect()
}

/// Ancestor pages: `FIND ANCESTORS OF ts:… DEPTH <= k`, roots chosen
/// with a skew over the deep derived ids, `k` cycling 1..=3.
pub fn lineage_texts(seed: u64, deep: &[TupleSetId], n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, "lineage");
    (0..n)
        .map(|i| {
            let root = deep[rng.skewed(deep.len())];
            format!("FIND ANCESTORS OF ts:{} DEPTH <= {}", root.full_hex(), 1 + i % 3)
        })
        .collect()
}

/// Content digests by id, for verifying fetched readings.
pub fn digests<'a>(sets: impl IntoIterator<Item = &'a TupleSet>) -> HashMap<TupleSetId, Digest128> {
    sets.into_iter().map(|t| (t.provenance.id, t.provenance.content_digest)).collect()
}
