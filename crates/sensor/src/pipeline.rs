//! Derivation pipelines: how raw tuple sets become processed ones.
//!
//! §II-B's origin-investigation scenario — "looking up the magnetometer
//! readings that generated some suspect sighting data, or finding tuple
//! sets handled by a particular postprocessing program" — requires data
//! that has actually *been* through postprocessing. These operators
//! compute derived readings from inputs and describe themselves with
//! [`ToolDescriptor`]s; the [`build_lineage`] helper composes them into
//! DAGs of configurable depth and fanout for the closure experiments.

use crate::spec::CaptureSpec;
use pass_model::{
    keys, Attributes, Reading, SensorId, Timestamp, ToolDescriptor, TupleSet, TupleSetId, Value,
};

/// A derived tuple set waiting to be ingested via `Pass::derive`.
#[derive(Debug, Clone)]
pub struct DeriveSpec {
    /// The ids this output was derived from.
    pub parents: Vec<TupleSetId>,
    /// The program that performed the derivation.
    pub tool: ToolDescriptor,
    /// Output attributes.
    pub attrs: Attributes,
    /// Output readings.
    pub readings: Vec<Reading>,
    /// Production time.
    pub at: Timestamp,
}

fn carry_attrs(input: &TupleSet, output_type: &str) -> Attributes {
    let mut attrs = Attributes::new();
    for key in [keys::DOMAIN, keys::REGION, keys::TIME_START, keys::TIME_END] {
        if let Some(v) = input.provenance.attributes.get(key) {
            attrs.set(key, v.clone());
        }
    }
    attrs.set(keys::TYPE, output_type);
    attrs
}

/// Keeps only readings whose `field` is at least `min` (e.g. drop slow
/// vehicles, keep loud seismic events).
pub fn filter_threshold(input: &TupleSet, field: &str, min: f64, at: Timestamp) -> DeriveSpec {
    let readings: Vec<Reading> = input
        .readings
        .iter()
        .filter(|r| r.field(field).and_then(Value::as_float).is_some_and(|v| v >= min))
        .cloned()
        .collect();
    let mut attrs = carry_attrs(input, "filtered");
    attrs.set(keys::READING_COUNT, readings.len() as i64);
    DeriveSpec {
        parents: vec![input.provenance.id],
        tool: ToolDescriptor::new("filter", "1.0")
            .with_param("field", field)
            .with_param("min", min),
        attrs,
        readings,
        at,
    }
}

/// Adds `offset` to every value of `field` (sensor recalibration).
pub fn calibrate(input: &TupleSet, field: &str, offset: f64, at: Timestamp) -> DeriveSpec {
    let readings: Vec<Reading> = input
        .readings
        .iter()
        .map(|r| {
            let mut out = r.clone();
            for (name, value) in &mut out.fields {
                if name == field {
                    if let Some(v) = value.as_float() {
                        *value = Value::Float(v + offset);
                    }
                }
            }
            out
        })
        .collect();
    let mut attrs = carry_attrs(input, "calibrated");
    attrs.set(keys::READING_COUNT, readings.len() as i64);
    DeriveSpec {
        parents: vec![input.provenance.id],
        tool: ToolDescriptor::new("calibrate", "2.3")
            .with_param("field", field)
            .with_param("offset", offset),
        attrs,
        readings,
        at,
    }
}

/// Reduces many inputs to per-input summary readings (mean of `field`) —
/// the "aggregated over time to estimate the effects of changing Zone
/// size" step from §I.
pub fn aggregate(inputs: &[&TupleSet], field: &str, at: Timestamp) -> DeriveSpec {
    let mut readings = Vec::with_capacity(inputs.len());
    for input in inputs {
        let vals: Vec<f64> = input
            .readings
            .iter()
            .filter_map(|r| r.field(field).and_then(Value::as_float))
            .collect();
        let mean = if vals.is_empty() { 0.0 } else { vals.iter().sum::<f64>() / vals.len() as f64 };
        readings.push(
            Reading::new(SensorId(0), input.provenance.created_at)
                .with("source_count", vals.len() as i64)
                .with("mean", mean),
        );
    }
    let mut attrs = match inputs.first() {
        Some(first) => carry_attrs(first, "aggregate"),
        None => Attributes::new().with(keys::TYPE, "aggregate"),
    };
    attrs.set(keys::READING_COUNT, readings.len() as i64);
    attrs.set("aggregate.field", field);
    DeriveSpec {
        parents: inputs.iter().map(|t| t.provenance.id).collect(),
        tool: ToolDescriptor::new("aggregate", "1.4").with_param("field", field),
        attrs,
        readings,
        at,
    }
}

/// Concatenates inputs into one combined tuple set (cross-network merge,
/// §I's "combined geographically with data from other cities").
pub fn merge(inputs: &[&TupleSet], at: Timestamp) -> DeriveSpec {
    let mut readings = Vec::new();
    for input in inputs {
        readings.extend(input.readings.iter().cloned());
    }
    readings.sort_by_key(|r| (r.time, r.sensor));
    let mut attrs = match inputs.first() {
        Some(first) => carry_attrs(first, "merged"),
        None => Attributes::new().with(keys::TYPE, "merged"),
    };
    attrs.set(keys::READING_COUNT, readings.len() as i64);
    attrs.set("merge.inputs", inputs.len() as i64);
    DeriveSpec {
        parents: inputs.iter().map(|t| t.provenance.id).collect(),
        tool: ToolDescriptor::new("merge", "0.9"),
        attrs,
        readings,
        at,
    }
}

/// How `build_lineage` should shape each level.
#[derive(Debug, Clone, Copy)]
pub struct LineageShape {
    /// Levels of derivation below the roots.
    pub depth: usize,
    /// Nodes per level.
    pub width: usize,
    /// Parents per derived node (capped at the previous level's width).
    pub fanin: usize,
}

/// Builds a lineage DAG of the given shape through a caller-supplied
/// derive function (normally `Pass::derive`), returning ids by level
/// (level 0 = the provided roots).
///
/// Node `j` of level `l` draws parents `j, j+1, …, j+fanin-1 (mod width)`
/// of level `l−1`, giving a braided DAG with diamonds — the worst
/// reasonable case for closure algorithms.
pub fn build_lineage<E>(
    roots: &[TupleSetId],
    shape: LineageShape,
    start: Timestamp,
    mut derive: impl FnMut(
        &[TupleSetId],
        &ToolDescriptor,
        Attributes,
        Vec<Reading>,
        Timestamp,
    ) -> Result<TupleSetId, E>,
) -> Result<Vec<Vec<TupleSetId>>, E> {
    let mut levels: Vec<Vec<TupleSetId>> = vec![roots.to_vec()];
    for level in 1..=shape.depth {
        let prev = &levels[level - 1];
        let mut ids = Vec::with_capacity(shape.width);
        for j in 0..shape.width {
            let fanin = shape.fanin.clamp(1, prev.len());
            let parents: Vec<TupleSetId> = (0..fanin).map(|k| prev[(j + k) % prev.len()]).collect();
            let tool = ToolDescriptor::new("stage", format!("{level}"));
            let attrs = Attributes::new()
                .with(keys::DOMAIN, "lineage")
                .with(keys::TYPE, format!("level-{level}"))
                .with("lineage.level", level as i64)
                .with("lineage.index", j as i64);
            let at = start + (level as u64) * 1_000 + j as u64;
            let readings =
                vec![Reading::new(SensorId(0), at).with("level", level as i64).with("j", j as i64)];
            ids.push(derive(&parents, &tool, attrs, readings, at)?);
        }
        levels.push(ids);
    }
    Ok(levels)
}

/// Turns a [`CaptureSpec`] into a standalone tuple set (for pipeline
/// tests that do not want a full store).
pub fn capture_to_tuple_set(spec: &CaptureSpec, site: pass_model::SiteId) -> TupleSet {
    let record = pass_model::ProvenanceBuilder::new(site, spec.at)
        .attrs(&spec.attrs)
        .build(TupleSet::content_digest_of(&spec.readings));
    TupleSet::new(record, spec.readings.clone()).expect("spec digest matches by construction")
}

/// Converts generator output into the `(attrs, readings, at)` triples
/// `Pass::capture_batch` consumes, consuming the specs (no clones on the
/// hot path).
pub fn capture_batch_items(
    specs: impl IntoIterator<Item = CaptureSpec>,
) -> Vec<(Attributes, Vec<Reading>, Timestamp)> {
    specs.into_iter().map(|s| (s.attrs, s.readings, s.at)).collect()
}

/// Drives the generate → batch → ingest pipeline: feeds `specs` to
/// `ingest_batch` (normally `Pass::capture_batch` behind a closure) in
/// group-commit chunks of `batch_size`, returning all ids in spec order.
///
/// This is the throughput-shaped entry point the paper's inline-capture
/// claim depends on: per-set capture pays one commit per reading window,
/// while a batched pipeline amortizes commit, WAL, and index maintenance
/// across `batch_size` windows.
pub fn ingest_in_batches<Id, E>(
    specs: Vec<CaptureSpec>,
    batch_size: usize,
    mut ingest_batch: impl FnMut(Vec<(Attributes, Vec<Reading>, Timestamp)>) -> Result<Vec<Id>, E>,
) -> Result<Vec<Id>, E> {
    let batch_size = batch_size.max(1);
    let mut ids = Vec::with_capacity(specs.len());
    let mut specs = specs.into_iter().peekable();
    while specs.peek().is_some() {
        let chunk: Vec<CaptureSpec> = specs.by_ref().take(batch_size).collect();
        ids.extend(ingest_batch(capture_batch_items(chunk))?);
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{self, TrafficConfig};
    use pass_model::SiteId;

    fn sample_tuple_set() -> TupleSet {
        let specs = traffic::generate(
            &TrafficConfig { sensors: 1, base_rate: 20.0, ..Default::default() },
            Timestamp::ZERO,
            1,
        );
        capture_to_tuple_set(&specs[0], SiteId(1))
    }

    #[test]
    fn filter_keeps_only_matching_readings() {
        let ts = sample_tuple_set();
        let spec = filter_threshold(&ts, "speed_kmh", 40.0, Timestamp(99));
        assert!(spec.readings.len() < ts.readings.len());
        assert!(spec
            .readings
            .iter()
            .all(|r| r.field("speed_kmh").unwrap().as_float().unwrap() >= 40.0));
        assert_eq!(spec.parents, vec![ts.provenance.id]);
        assert_eq!(spec.tool.name, "filter");
        assert_eq!(spec.attrs.get_str(keys::TYPE), Some("filtered"));
        assert_eq!(spec.attrs.get_str(keys::REGION), Some("london"), "region carried");
    }

    #[test]
    fn calibrate_shifts_field_values() {
        let ts = sample_tuple_set();
        let spec = calibrate(&ts, "speed_kmh", 5.0, Timestamp(99));
        assert_eq!(spec.readings.len(), ts.readings.len());
        for (orig, cal) in ts.readings.iter().zip(&spec.readings) {
            let a = orig.field("speed_kmh").unwrap().as_float().unwrap();
            let b = cal.field("speed_kmh").unwrap().as_float().unwrap();
            assert!((b - a - 5.0).abs() < 1e-9);
            // Other fields untouched.
            assert_eq!(orig.field("lane"), cal.field("lane"));
        }
    }

    #[test]
    fn aggregate_summarizes_each_input() {
        let a = sample_tuple_set();
        let specs = traffic::generate(
            &TrafficConfig { sensors: 1, seed: 77, base_rate: 20.0, ..Default::default() },
            Timestamp::ZERO,
            1,
        );
        let b = capture_to_tuple_set(&specs[0], SiteId(1));
        let spec = aggregate(&[&a, &b], "speed_kmh", Timestamp(99));
        assert_eq!(spec.readings.len(), 2);
        assert_eq!(spec.parents.len(), 2);
        let mean = spec.readings[0].field("mean").unwrap().as_float().unwrap();
        assert!((20.0..60.0).contains(&mean), "mean speed {mean}");
    }

    #[test]
    fn merge_concatenates_in_time_order() {
        let a = sample_tuple_set();
        let specs = traffic::generate(
            &TrafficConfig { sensors: 1, seed: 78, base_rate: 20.0, ..Default::default() },
            Timestamp::ZERO,
            1,
        );
        let b = capture_to_tuple_set(&specs[0], SiteId(1));
        let spec = merge(&[&a, &b], Timestamp(99));
        assert_eq!(spec.readings.len(), a.readings.len() + b.readings.len());
        assert!(spec.readings.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn ingest_in_batches_chunks_and_preserves_order() {
        let specs = traffic::generate(
            &TrafficConfig { sensors: 1, base_rate: 20.0, ..Default::default() },
            Timestamp::ZERO,
            10,
        );
        let total = specs.len();
        let mut batches: Vec<usize> = Vec::new();
        let mut next = 0usize;
        let ids = ingest_in_batches::<usize, ()>(specs, 4, |items| {
            batches.push(items.len());
            Ok(items
                .iter()
                .map(|_| {
                    next += 1;
                    next - 1
                })
                .collect())
        })
        .unwrap();
        assert_eq!(ids, (0..total).collect::<Vec<_>>(), "ids in spec order");
        assert!(batches.iter().all(|&b| b <= 4));
        assert_eq!(batches.iter().sum::<usize>(), total);
        assert_eq!(batches.len(), total.div_ceil(4));
    }

    #[test]
    fn build_lineage_produces_requested_shape() {
        let roots = vec![TupleSetId(1), TupleSetId(2)];
        let mut counter = 100u128;
        let mut edges: Vec<(TupleSetId, Vec<TupleSetId>)> = Vec::new();
        let levels = build_lineage::<()>(
            &roots,
            LineageShape { depth: 3, width: 4, fanin: 2 },
            Timestamp::ZERO,
            |parents, _tool, _attrs, _readings, _at| {
                counter += 1;
                let id = TupleSetId(counter);
                edges.push((id, parents.to_vec()));
                Ok(id)
            },
        )
        .unwrap();
        assert_eq!(levels.len(), 4);
        assert_eq!(levels[0], roots);
        assert!(levels[1..].iter().all(|l| l.len() == 4));
        // Every derived node has exactly fanin parents from the level above.
        for (_, parents) in &edges {
            assert_eq!(parents.len(), 2);
        }
        assert_eq!(edges.len(), 12);
    }
}
