//! Workspace-level integration: the full story from sensor readings to
//! distributed provenance queries, crossing every crate boundary.

use pass::core::{Pass, PassConfig};
use pass::distrib::runner::{build_arch, build_corpus, run_workload, ArchKind, WorkloadSpec};
use pass::index::{Direction, TraverseOpts};
use pass::model::{keys, SiteId, Timestamp, TupleSetId};
use pass::sensor::gen::rng_for;
use pass::sensor::pipeline::{self, LineageShape};
use pass::sensor::{medical, traffic, workload};
use pass::storage::tempdir::TempDir;

/// Sensor generators → local PASS → pipeline → §III queries → crash →
/// recovery, on the durable engine.
#[test]
fn sensor_to_disk_to_queries_to_recovery() {
    let dir = TempDir::new("e2e");
    let leaf;
    {
        let pass = Pass::open(PassConfig::disk(SiteId(5), dir.path())).unwrap();

        // Capture a traffic corpus.
        let specs = traffic::generate(
            &traffic::TrafficConfig { sensors: 4, seed: 77, ..Default::default() },
            Timestamp::ZERO,
            5,
        );
        let mut roots = Vec::new();
        for spec in &specs {
            roots.push(pass.capture(spec.attrs.clone(), spec.readings.clone(), spec.at).unwrap());
        }

        // Layer a braided lineage DAG over it via the pipeline builder.
        let levels = pipeline::build_lineage(
            &roots,
            LineageShape { depth: 3, width: 6, fanin: 2 },
            Timestamp::from_secs(100),
            |parents, tool, attrs, readings, at| pass.derive(parents, tool, attrs, readings, at),
        )
        .unwrap();
        leaf = levels[3][0];

        // The full §III mixed workload parses and runs.
        let vocab = workload::Vocabulary {
            ids: pass.ids(),
            regions: vec!["london".into()],
            patients: vec![],
            operators: vec![],
            tools: vec!["stage".into()],
            time_span: (Timestamp::ZERO, Timestamp::from_secs(120)),
        };
        let mut rng = rng_for(9, "e2e");
        for spec in workload::mixed(&vocab, &mut rng, 6) {
            pass.query_text(&spec.text).unwrap_or_else(|e| panic!("{}: {e}", spec.text));
        }

        // Closure through the braided DAG, equal again after reopen.
        let baseline: Vec<TupleSetId> = {
            let mut ids: Vec<_> = pass
                .lineage(leaf, Direction::Ancestors, TraverseOpts::unbounded())
                .unwrap()
                .iter()
                .map(|r| r.id)
                .collect();
            ids.sort();
            ids
        };
        // Fanin-2 braid: a leaf reaches windows of 2, 3, then 4 nodes
        // down the levels.
        assert!(baseline.len() >= 9, "deep braided closure, got {}", baseline.len());
        pass.flush().unwrap();
        drop(pass);

        let pass = Pass::open(PassConfig::disk(SiteId(5), dir.path())).unwrap();
        let mut ids: Vec<_> = pass
            .lineage(leaf, Direction::Ancestors, TraverseOpts::unbounded())
            .unwrap()
            .iter()
            .map(|r| r.id)
            .collect();
        ids.sort();
        assert_eq!(ids, baseline, "lineage diverges after reopen");
    }

    // Crash-recover: truncate the WAL tail, reopen, audit.
    let wal = dir.path().join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    if bytes.len() > 10 {
        std::fs::write(&wal, &bytes[..bytes.len() - 7]).unwrap();
    }
    let pass = Pass::open(PassConfig::disk(SiteId(5), dir.path())).unwrap();
    assert!(pass.verify_consistency().unwrap().is_consistent());
    assert!(pass.contains(leaf), "flushed state survives the torn tail");
}

/// The medical generator feeds the EMT queries end to end.
#[test]
fn emt_queries_over_generated_vitals() {
    let pass = Pass::open_memory(SiteId(2));
    let specs = medical::generate(
        &medical::MedicalConfig { patients: 6, emts: 2, seed: 5, ..Default::default() },
        Timestamp::ZERO,
        3,
    );
    for spec in &specs {
        pass.capture(spec.attrs.clone(), spec.readings.clone(), spec.at).unwrap();
    }
    let by_patient = pass.query_text(r#"FIND WHERE patient = "patient-002""#).unwrap();
    assert_eq!(by_patient.records.len(), 3, "three windows per patient");
    let by_emt = pass.query_text(r#"FIND WHERE operator = "emt-1""#).unwrap();
    assert_eq!(by_emt.records.len(), 9, "three patients × three windows");
    for record in &by_emt.records {
        assert_eq!(record.attributes.get_str(keys::DOMAIN), Some("medical"));
    }
}

/// The six architectures agree with local ground truth on the standard
/// workload (smoke version of the E5 experiment).
#[test]
fn architectures_match_ground_truth_smoke() {
    let spec = WorkloadSpec {
        clusters: 2,
        per_cluster: 2,
        windows_per_site: 2,
        queries: 4,
        lineage_ops: 2,
        ..WorkloadSpec::default()
    };
    let corpus = build_corpus(&spec);
    for kind in ArchKind::all_default() {
        let mut arch = build_arch(kind, spec.topology(), spec.seed);
        let report = run_workload(arch.as_mut(), &corpus, &spec);
        assert!(report.quality.recall > 0.9, "{} recall {}", report.name, report.quality.recall);
        assert!(
            report.quality.precision > 0.99,
            "{} precision {}",
            report.name,
            report.quality.precision
        );
    }
}
