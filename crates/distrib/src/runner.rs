//! The experiment runner: one workload, six architectures, comparable
//! numbers.
//!
//! Builds a deterministic corpus (traffic + weather records with lineage
//! chains per metro cluster), publishes it through an architecture,
//! replays a query/lineage mix, and reports latency distributions,
//! traffic split by class (§IV's resource-consumption criterion), and
//! precision/recall against a ground-truth index (§IV's result-quality
//! criterion).

use crate::arch::Architecture;
use crate::centralized::Centralized;
use crate::dhtarch::DhtIndex;
use crate::distdb::DistributedDb;
use crate::federated::Federated;
use crate::harness::index_record;
use crate::hierarchy::Hierarchical;
use crate::outcome::{LatencyStats, ResultQuality};
use crate::softstate::SoftState;
use pass_model::{
    keys, Attributes, ProvenanceBuilder, ProvenanceRecord, SiteId, Timestamp, ToolDescriptor,
    TupleSet, TupleSetId,
};
use pass_net::{ClassCounters, SimTime, Topology, TrafficClass};
use pass_query::{parse, Query, RecordIndex};
use pass_sensor::gen::rng_for;
use pass_sensor::traffic::{self, TrafficConfig};
use pass_sensor::weather::{self, WeatherConfig};
use rand::Rng;
use std::collections::HashMap;

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Metro clusters (regions).
    pub clusters: usize,
    /// Sites per cluster.
    pub per_cluster: usize,
    /// Raw capture windows per site.
    pub windows_per_site: usize,
    /// Derivation chain length layered over each site's captures.
    pub lineage_depth: usize,
    /// Attribute queries to run.
    pub queries: usize,
    /// Ancestors chases to run.
    pub lineage_ops: usize,
    /// Spacing between injected operations.
    pub op_spacing: SimTime,
    /// Publish group size: consecutive same-site records are shipped
    /// through [`Architecture::publish_batch`] in chunks of this many
    /// (1 = the historical per-record path).
    pub publish_batch: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            clusters: 4,
            per_cluster: 2,
            windows_per_site: 4,
            lineage_depth: 3,
            queries: 24,
            lineage_ops: 8,
            op_spacing: SimTime::from_millis(20),
            publish_batch: 1,
            seed: 42,
        }
    }
}

impl WorkloadSpec {
    /// Total sites.
    pub fn sites(&self) -> usize {
        self.clusters * self.per_cluster
    }

    /// The standard topology for this spec: metro clusters 2 ms wide,
    /// 40 ms apart.
    pub fn topology(&self) -> Topology {
        Topology::clustered(self.clusters, self.per_cluster, 2.0, 40.0)
    }
}

/// A deterministic corpus plus ground truth.
pub struct Corpus {
    /// `(origin site, record)` in publish order.
    pub records: Vec<(usize, ProvenanceRecord)>,
    /// Ground-truth index over every record.
    pub truth: RecordIndex,
    /// Region labels, one per cluster.
    pub regions: Vec<String>,
    /// Ids of lineage-chain leaves (chase roots).
    pub leaves: Vec<TupleSetId>,
}

/// Builds the corpus for a spec.
pub fn build_corpus(spec: &WorkloadSpec) -> Corpus {
    let mut records: Vec<(usize, ProvenanceRecord)> = Vec::new();
    let mut truth = RecordIndex::new();
    let mut regions = Vec::with_capacity(spec.clusters);
    let mut leaves = Vec::new();

    for cluster in 0..spec.clusters {
        let region = format!("metro-{cluster}");
        regions.push(region.clone());
        for member in 0..spec.per_cluster {
            let site = cluster * spec.per_cluster + member;
            // Raw captures: traffic on even members, weather on odd.
            let specs = if member % 2 == 0 {
                traffic::generate(
                    &TrafficConfig {
                        region: region.clone(),
                        sensors: 2,
                        sensor_base: (site as u64) * 100,
                        seed: spec.seed + site as u64,
                        ..TrafficConfig::default()
                    },
                    Timestamp::ZERO,
                    spec.windows_per_site,
                )
            } else {
                weather::generate(
                    &WeatherConfig {
                        region: region.clone(),
                        stations: 2,
                        sensor_base: 10_000 + (site as u64) * 100,
                        seed: spec.seed + site as u64,
                        ..WeatherConfig::default()
                    },
                    Timestamp::ZERO,
                    spec.windows_per_site,
                )
            };
            let mut site_ids = Vec::new();
            for capture in &specs {
                let record = ProvenanceBuilder::new(SiteId(site as u32), capture.at)
                    .attrs(&capture.attrs)
                    .build(TupleSet::content_digest_of(&capture.readings));
                index_record(&mut truth, &record);
                site_ids.push(record.id);
                records.push((site, record));
            }
            // A derivation chain over this site's captures.
            let mut parents = site_ids.clone();
            for level in 1..=spec.lineage_depth {
                let tool = ToolDescriptor::new("aggregate", format!("{level}.0"));
                let attrs = Attributes::new()
                    .with(keys::DOMAIN, "analysis")
                    .with(keys::REGION, region.clone())
                    .with(keys::TYPE, format!("rollup-{level}"));
                let mut builder = ProvenanceBuilder::new(
                    SiteId(site as u32),
                    Timestamp::from_secs(1_000 + level as u64),
                )
                .attrs(&attrs);
                for &p in &parents {
                    builder = builder.derived_from(p, tool.clone());
                }
                let record = builder
                    .build(pass_model::Digest128::of(format!("rollup-{site}-{level}").as_bytes()));
                index_record(&mut truth, &record);
                records.push((site, record.clone()));
                if level == spec.lineage_depth {
                    leaves.push(record.id);
                }
                parents = vec![record.id];
            }
        }
    }
    Corpus { records, truth, regions, leaves }
}

/// Query mix used for architecture comparison. Every query is expressible
/// on all six architectures (equality on DHT-indexed attributes).
pub fn comparison_queries(corpus: &Corpus, spec: &WorkloadSpec) -> Vec<Query> {
    let mut rng = rng_for(spec.seed, "runner-queries");
    let mut out = Vec::with_capacity(spec.queries);
    for i in 0..spec.queries {
        let region = &corpus.regions[rng.gen_range(0..corpus.regions.len())];
        let text = match i % 3 {
            0 => format!(r#"FIND WHERE region = "{region}""#),
            1 => format!(r#"FIND WHERE domain = "traffic" AND region = "{region}""#),
            _ => r#"FIND WHERE domain = "weather""#.to_owned(),
        };
        out.push(parse(&text).expect("runner queries are well-formed"));
    }
    out
}

/// Per-architecture workload results.
#[derive(Debug, Clone)]
pub struct ArchReport {
    /// Architecture name.
    pub name: &'static str,
    /// Sites simulated.
    pub sites: usize,
    /// Publish (index-update) latency.
    pub publish: LatencyStats,
    /// Attribute-query latency.
    pub query: LatencyStats,
    /// Ancestors-chase latency.
    pub lineage: LatencyStats,
    /// Update traffic on the wire.
    pub update_traffic: ClassCounters,
    /// Query traffic on the wire.
    pub query_traffic: ClassCounters,
    /// Maintenance traffic on the wire.
    pub maintenance_traffic: ClassCounters,
    /// Mean result quality across queries.
    pub quality: ResultQuality,
    /// Mean lineage recall (closure completeness).
    pub lineage_recall: f64,
    /// Operations that failed outright.
    pub failures: usize,
}

fn latencies(outcomes: &[crate::outcome::Outcome], issued: &HashMap<u64, SimTime>) -> Vec<u64> {
    outcomes
        .iter()
        .filter(|o| o.ok)
        .filter_map(|o| issued.get(&o.op).map(|t| o.at.micros_since(*t)))
        .collect()
}

/// Runs the full workload against one architecture.
pub fn run_workload(
    arch: &mut dyn Architecture,
    corpus: &Corpus,
    spec: &WorkloadSpec,
) -> ArchReport {
    let mut rng = rng_for(spec.seed, "runner-driver");
    let mut failures = 0usize;

    // --- Publish phase -------------------------------------------------
    // Consecutive records from one site form a publish group (mirroring
    // the local group-commit ingest path); `publish_batch = 1` reproduces
    // the historical per-record schedule exactly.
    let mut issued: HashMap<u64, SimTime> = HashMap::new();
    let group = spec.publish_batch.max(1);
    let mut pending: Vec<ProvenanceRecord> = Vec::with_capacity(group);
    let mut pending_site = usize::MAX;
    let mut flush =
        |arch: &mut dyn Architecture, site: usize, batch: &mut Vec<ProvenanceRecord>| {
            if batch.is_empty() {
                return;
            }
            for op in arch.publish_batch(site, batch) {
                issued.insert(op, arch.now());
            }
            batch.clear();
            arch.run_for(spec.op_spacing);
        };
    for (site, record) in &corpus.records {
        if *site != pending_site {
            flush(arch, pending_site, &mut pending);
            pending_site = *site;
        }
        pending.push(record.clone());
        if pending.len() >= group {
            flush(arch, pending_site, &mut pending);
        }
    }
    flush(arch, pending_site, &mut pending);
    arch.run_quiet();
    let publish_outcomes = arch.outcomes();
    failures += publish_outcomes.iter().filter(|o| !o.ok).count();
    let publish = LatencyStats::from_latencies(latencies(&publish_outcomes, &issued));

    // --- Query phase ----------------------------------------------------
    let queries = comparison_queries(corpus, spec);
    let mut issued_q: HashMap<u64, SimTime> = HashMap::new();
    let mut truth_of: HashMap<u64, Vec<TupleSetId>> = HashMap::new();
    for query in &queries {
        let site = rng.gen_range(0..arch.sites());
        let op = arch.query(site, query);
        issued_q.insert(op, arch.now());
        truth_of.insert(op, corpus.truth.query(query).map(|r| r.ids()).unwrap_or_default());
        arch.run_for(spec.op_spacing);
    }
    arch.run_quiet();
    let query_outcomes = arch.outcomes();
    failures += query_outcomes.iter().filter(|o| !o.ok).count();
    let query = LatencyStats::from_latencies(latencies(&query_outcomes, &issued_q));
    let mut precision_sum = 0.0;
    let mut recall_sum = 0.0;
    let mut graded = 0usize;
    for o in &query_outcomes {
        if let Some(relevant) = truth_of.get(&o.op) {
            let q = ResultQuality::compare(&o.ids, relevant);
            precision_sum += q.precision;
            recall_sum += q.recall;
            graded += 1;
        }
    }
    let quality = ResultQuality {
        precision: if graded > 0 { precision_sum / graded as f64 } else { 0.0 },
        recall: if graded > 0 { recall_sum / graded as f64 } else { 0.0 },
    };

    // --- Lineage phase ---------------------------------------------------
    let mut issued_l: HashMap<u64, SimTime> = HashMap::new();
    let mut truth_l: HashMap<u64, Vec<TupleSetId>> = HashMap::new();
    for i in 0..spec.lineage_ops.min(corpus.leaves.len()) {
        let root = corpus.leaves[i % corpus.leaves.len()];
        let site = rng.gen_range(0..arch.sites());
        let op = arch.lineage(site, root, None);
        issued_l.insert(op, arch.now());
        let truth_query = Query::lineage(root, pass_index::Direction::Ancestors);
        truth_l.insert(op, corpus.truth.query(&truth_query).map(|r| r.ids()).unwrap_or_default());
        arch.run_for(spec.op_spacing);
    }
    arch.run_quiet();
    let lineage_outcomes = arch.outcomes();
    failures += lineage_outcomes.iter().filter(|o| !o.ok).count();
    let lineage = LatencyStats::from_latencies(latencies(&lineage_outcomes, &issued_l));
    let mut lineage_recall_sum = 0.0;
    let mut lineage_graded = 0usize;
    for o in &lineage_outcomes {
        if let Some(relevant) = truth_l.get(&o.op) {
            lineage_recall_sum += ResultQuality::compare(&o.ids, relevant).recall;
            lineage_graded += 1;
        }
    }
    let lineage_recall =
        if lineage_graded > 0 { lineage_recall_sum / lineage_graded as f64 } else { 0.0 };

    let net = arch.net();
    ArchReport {
        name: arch.name(),
        sites: arch.sites(),
        publish,
        query,
        lineage,
        update_traffic: net.class(TrafficClass::Update),
        query_traffic: net.class(TrafficClass::Query),
        maintenance_traffic: net.class(TrafficClass::Maintenance),
        quality,
        lineage_recall,
        failures,
    }
}

/// Which architecture to instantiate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArchKind {
    /// §IV-A warehouse.
    Centralized,
    /// §IV-B distributed database (with E14 batching knob).
    DistributedDb {
        /// Batch frontier expansion by home shard.
        batch: bool,
    },
    /// §IV-B federation.
    Federated,
    /// §IV-B soft-state catalogs.
    SoftState {
        /// Digest refresh period.
        refresh: SimTime,
    },
    /// §IV-B hierarchical namespace.
    Hierarchical,
    /// §IV-C DHT.
    Dht {
        /// Replicas per key.
        replicas: usize,
    },
}

impl ArchKind {
    /// All six models with sensible defaults.
    pub fn all_default() -> Vec<ArchKind> {
        vec![
            ArchKind::Centralized,
            ArchKind::DistributedDb { batch: true },
            ArchKind::Federated,
            ArchKind::SoftState { refresh: SimTime::from_secs(5) },
            ArchKind::Hierarchical,
            ArchKind::Dht { replicas: 2 },
        ]
    }
}

/// Instantiates an architecture over a topology.
pub fn build_arch(kind: ArchKind, topology: Topology, seed: u64) -> Box<dyn Architecture> {
    match kind {
        ArchKind::Centralized => Box::new(Centralized::new(topology, seed)),
        ArchKind::DistributedDb { batch } => Box::new(DistributedDb::new(topology, batch, seed)),
        ArchKind::Federated => Box::new(Federated::new(topology, seed)),
        ArchKind::SoftState { refresh } => Box::new(SoftState::new(topology, refresh, seed)),
        ArchKind::Hierarchical => Box::new(Hierarchical::new(topology, seed)),
        ArchKind::Dht { replicas } => Box::new(DhtIndex::new(topology, replicas, seed)),
    }
}

/// Renders reports as an aligned text table (the experiments binary and
/// EXPERIMENTS.md use this).
pub fn render_table(reports: &[ArchReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>6} {:>12} {:>12} {:>12} {:>10} {:>10} {:>8} {:>8} {:>6}\n",
        "architecture",
        "sites",
        "publish p50",
        "query p50",
        "lineage p50",
        "upd KiB",
        "qry KiB",
        "prec",
        "recall",
        "fail"
    ));
    for r in reports {
        out.push_str(&format!(
            "{:<16} {:>6} {:>10.2}ms {:>10.2}ms {:>10.2}ms {:>10.1} {:>10.1} {:>8.3} {:>8.3} {:>6}\n",
            r.name,
            r.sites,
            r.publish.p50_ms(),
            r.query.p50_ms(),
            r.lineage.p50_ms(),
            r.update_traffic.bytes as f64 / 1024.0,
            r.query_traffic.bytes as f64 / 1024.0,
            r.quality.precision,
            r.quality.recall,
            r.failures
        ));
    }
    out
}
