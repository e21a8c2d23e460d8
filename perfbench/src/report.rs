//! Turning samples and traces into the named metrics, the human tables
//! printed before the result line, and the result line itself.

use crate::drive::Reply;
use crate::layers::TracedStore;
use crate::replay::Replayed;
use crate::trace::Folded;
use crate::util::{jnum, jstr, kernel, nproc, pct};
use crate::workload::{OpKind, Workload};
use crate::{Args, Plan, Probe, Samples, SEND_LAG_LIMIT_MS};
use pass_storage::LsmEngine;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::Ordering;

/// The result line's payload.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!("{}: {{\"value\": {}, \"unit\": {}}}", jstr(n), jnum(*v), jstr(u))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The engine and server configuration every workload runs with.
fn engine_json(cache_bytes: usize) -> String {
    format!(
        "{{\"memtable_bytes\": {}, \"sync\": \"OnWrite (fsync per commit)\", \"shards\": 1, \
         \"block_cache_bytes\": {cache_bytes}, \"maintenance\": \"background tiered compaction \
         worker, tick 250 ms, no pin floor (no workload deletes)\", \"admission\": \
         \"AdmissionConfig::default()\", \"conn\": \"ConnConfig::default()\", \
         \"preload\": \"1000-set group commits, then flush and full compaction\"}}",
        4 << 20
    )
}

fn workload_json(w: &Workload) -> String {
    let phases: Vec<String> = w
        .phases
        .iter()
        .map(|p| {
            let conns: Vec<String> = p
                .conns
                .iter()
                .map(|c| {
                    format!(
                        "{{\"publish_per_s\": {}, \"query_per_s\": {}, \"lineage_per_s\": {}, \
                         \"fetch_per_s\": {}, \"subscribe\": {}}}",
                        c.publish, c.query, c.lineage, c.fetch, c.subscribe
                    )
                })
                .collect();
            format!(
                "{{\"phase\": {}, \"share_of_seconds\": {:.4}, \"connections\": [{}]}}",
                jstr(p.name),
                p.share,
                conns.join(", ")
            )
        })
        .collect();
    format!(
        "{{\"name\": {}, \"why\": {}, \"base_sets\": {}, \"publish_sets\": {}, \"setups\": {}, \
         \"reopen_between_phases\": {}, \"exercises\": {}, \"skips\": {}, \"phases\": [{}]}}",
        jstr(w.name),
        jstr(w.why),
        w.base_sets,
        w.publish_sets,
        w.setups,
        w.reopen_between,
        jstr(w.exercises),
        jstr(w.skips),
        phases.join(", ")
    )
}

/// The static description of the benchmark (`perfbench --describe`).
pub fn describe(workloads: &[Workload], cache_bytes: usize) -> String {
    let wl: Vec<String> = workloads.iter().map(workload_json).collect();
    format!(
        "{{\"connections\": 2, \"load\": \"open loop, Poisson arrivals per op kind, latency from \
         the scheduled send\", \"page\": {}, \"send_lag_limit_ms\": {}, \
         \"engine\": {}, \"workloads\": [{}]}}",
        crate::corpus::PAGE,
        SEND_LAG_LIMIT_MS,
        engine_json(cache_bytes),
        wl.join(", ")
    )
}

fn print_config(w: &Workload, args: &Args, plan: &Plan) {
    println!(
        "config {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"pinned_cpu\": {}, \"kernel\": {}, \"store\": {}, \"engine\": {}, \"spec\": {}}}",
        jstr(w.name),
        args.seed,
        args.seconds,
        args.trace,
        nproc(),
        args.cpu,
        jstr(&kernel()),
        jstr(&plan.cache_note),
        engine_json(crate::CACHE_BYTES),
        workload_json(w)
    );
}

const MS: f64 = 1e6;
const US: f64 = 1e3;

fn table(rows: &[(&'static str, f64, &'static str, usize)]) {
    println!("{:<40} {:>16} {:<8} {:>8}", "metric", "value", "unit", "samples");
    for (name, value, unit, n) in rows {
        println!("{name:<40} {value:>16.6} {unit:<8} {n:>8}");
    }
}

/// End-to-end metrics of an untraced run. Only the ones that hold a
/// bound on a shared 2-vCPU host go into the result line; the latencies
/// and `open_s` follow the host's speed, which shifts by a fifth or more
/// for tens of seconds at a time, and are printed with their sample
/// counts for reading (their run-to-run spread is in `STEADINESS.md`).
pub fn untraced_outcome(
    w: &Workload,
    args: &Args,
    plan: &Plan,
    mut s: Samples,
    setup_s: Vec<f64>,
    probe: Probe,
    server_shed: u64,
) -> Result<Outcome, String> {
    print_config(w, args, plan);
    let mut rows = Vec::new();
    let mut printed = Vec::new();
    let mut lat = |kind: &str, scale: f64, p50: &'static str, p99: &'static str, unit| {
        let v = s.sorted(kind);
        printed.push((p50, pct(&v, 0.50) as f64 / scale, unit, v.len()));
        printed.push((p99, pct(&v, 0.99) as f64 / scale, unit, v.len()));
    };
    lat("publish", MS, "publish_p50_ms", "publish_p99_ms", "ms");
    lat("query", MS, "query_p50_ms", "query_p99_ms", "ms");
    lat("lineage", MS, "lineage_p50_ms", "lineage_p99_ms", "ms");
    lat("notify", MS, "notify_p50_ms", "notify_p99_ms", "ms");
    lat("fetch", US, "fetch_p50_us", "fetch_p99_us", "us");
    let ok = s.attempted.saturating_sub(s.failed);
    rows.push(("ops_ok_frac", ok as f64 / s.attempted.max(1) as f64, "ratio", s.attempted));
    rows.push(("setup_s", crate::median(&setup_s), "s", setup_s.len()));
    rows.push(("disk_bytes_per_set", probe.disk_per_set, "B", probe.records));
    rows.push(("rss_bytes_per_set", probe.rss_per_set, "B", probe.records));
    printed.push(("open_s", probe.open_s, "s", probe.reopens));
    table(&rows);
    println!("printed only (not in the result line):");
    table(&printed);
    s.send_lag.sort_unstable();
    let lag_p99_ms = pct(&s.send_lag, 0.99) as f64 / MS;
    println!(
        "loadgen.send_lag.p99_ms {lag_p99_ms:.6} (limit {SEND_LAG_LIMIT_MS}) over {} sends; \
         server shed {server_shed}",
        s.send_lag.len()
    );
    let valid = lag_p99_ms <= SEND_LAG_LIMIT_MS;
    if !valid {
        println!("invalid run: the generator ran late beyond its limit; latencies withheld");
    }
    let correct = s.failed == 0 && valid && rows.iter().chain(&printed).all(|r| r.3 > 0);
    Ok(Outcome {
        correct,
        attempted: s.attempted,
        failed: s.failed,
        metrics: if valid { rows.iter().map(|r| (r.0, r.1, r.2)).collect() } else { Vec::new() },
    })
}

/// Storage counters gathered over a traced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct StorageCounts {
    pub flushes: u64,
    pub compactions: u64,
    pub tables_end: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub applied_bytes: u64,
    pub applies: u64,
    pub disk_bytes: u64,
    pub live_bytes: u64,
}

impl StorageCounts {
    /// The engine's and the decorator's cumulative counters now.
    pub fn read(engine: &LsmEngine, kv: &TracedStore) -> StorageCounts {
        let s = engine.stats();
        StorageCounts {
            flushes: s.flushes,
            compactions: s.compactions,
            tables_end: s.num_tables as u64,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            applied_bytes: kv.applied_bytes.load(Ordering::Relaxed),
            applies: kv.applies.load(Ordering::Relaxed),
            ..StorageCounts::default()
        }
    }

    /// Adds the counts accrued between two readings of one open store.
    pub fn add_since(&mut self, from: &StorageCounts, to: &StorageCounts) {
        self.flushes += to.flushes - from.flushes;
        self.compactions += to.compactions - from.compactions;
        self.cache_hits += to.cache_hits - from.cache_hits;
        self.cache_misses += to.cache_misses - from.cache_misses;
        self.applied_bytes += to.applied_bytes - from.applied_bytes;
        self.applies += to.applies - from.applies;
    }
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs {
    pub folded: Folded,
    pub replayed: Vec<(OpKind, Replayed)>,
    pub notify_delay: Vec<u64>,
    pub storage: StorageCounts,
    pub open_s: f64,
    pub index_bytes: u64,
    pub records: u64,
}

fn p50_of(kind: fn(&OpKind) -> bool, traced: bool, r: &[(OpKind, Replayed)]) -> f64 {
    let mut v: Vec<u64> = r
        .iter()
        .filter(|(k, x)| kind(k) && x.traced == traced && !matches!(x.reply, Reply::None))
        .map(|(_, x)| x.done_ns.saturating_sub(x.due_ns))
        .collect();
    v.sort_unstable();
    pct(&v, 0.5) as f64
}

/// Per-layer metrics of a traced run; writes the folded trace table.
pub fn traced_outcome(
    w: &Workload,
    args: &Args,
    plan: &Plan,
    mut s: Samples,
    l: LayerInputs,
    fold_path: &Path,
) -> Result<Outcome, String> {
    print_config(w, args, plan);
    let f = &l.folded;
    let stat = |name: &str, q: f64| -> f64 {
        f.by_name.get(name).map_or(0.0, |x| pct(&x.durs_ns, q) as f64 / US)
    };
    let max = |name: &str| -> f64 {
        f.by_name.get(name).and_then(|x| x.durs_ns.last()).map_or(0.0, |v| *v as f64 / US)
    };
    let n = |name: &str| f.by_name.get(name).map_or(0, |x| x.durs_ns.len());
    let self_p50 = |name: &str| -> f64 {
        f.by_name.get(name).map_or(0.0, |x| pct(&x.self_ns, 0.5) as f64 / US)
    };

    // Commits overlapping a live snapshot on another connection.
    let readers: Vec<(u64, u64)> = l.replayed.iter().filter_map(|(_, r)| r.reader).collect();
    let commits: Vec<(u64, u64)> = l.replayed.iter().filter_map(|(_, r)| r.commit).collect();
    let mut overlapping: Vec<u64> = commits
        .iter()
        .filter(|(a, b)| readers.iter().any(|(c, d)| c < b && a < d))
        .map(|(a, b)| b - a)
        .collect();
    overlapping.sort_unstable();
    let (cand, returned) = l
        .replayed
        .iter()
        .filter(|(k, _)| matches!(k, OpKind::Query(_)))
        .fold((0, 0), |acc, (_, r)| (acc.0 + r.candidates.0, acc.1 + r.candidates.1));
    let publishes: Vec<&Replayed> = l
        .replayed
        .iter()
        .filter(|(k, _)| matches!(k, OpKind::Publish(_)))
        .map(|(_, r)| r)
        .collect();
    let shed = publishes.iter().filter(|r| matches!(r.reply, Reply::Overloaded)).count();
    let mut nd = l.notify_delay.clone();
    nd.sort_unstable();
    let st = &l.storage;
    let is_pub: fn(&OpKind) -> bool = |k| matches!(k, OpKind::Publish(_));
    let is_query: fn(&OpKind) -> bool = |k| matches!(k, OpKind::Query(_));
    s.send_lag.sort_unstable();

    let rows: Vec<(&'static str, f64, &'static str, usize)> = vec![
        ("frame.decode.p50_us", stat("frame.decode", 0.5), "us", n("frame.decode")),
        (
            "wire.decode_publish.p50_us",
            stat("wire.decode_publish", 0.5),
            "us",
            n("wire.decode_publish"),
        ),
        ("frame.bytes_per_publish", plan.publish_frame_bytes, "B", publishes.len()),
        (
            "admission.shed_frac",
            shed as f64 / publishes.len().max(1) as f64,
            "ratio",
            publishes.len(),
        ),
        ("core.ingest_batch.p50_us", stat("core.ingest_batch", 0.5), "us", n("core.ingest_batch")),
        ("core.ingest_batch.p99_us", stat("core.ingest_batch", 0.99), "us", n("core.ingest_batch")),
        ("core.ingest_batch.max_us", max("core.ingest_batch"), "us", n("core.ingest_batch")),
        (
            "core.ingest_batch.self_p50_us",
            self_p50("core.ingest_batch"),
            "us",
            n("core.ingest_batch"),
        ),
        (
            "core.ingest_batch.overlap_p50_us",
            pct(&overlapping, 0.5) as f64 / US,
            "us",
            overlapping.len(),
        ),
        (
            "core.ingest_batch.overlap_frac",
            overlapping.len() as f64 / commits.len().max(1) as f64,
            "ratio",
            commits.len(),
        ),
        ("core.snapshot.take.max_us", max("core.snapshot.take"), "us", n("core.snapshot.take")),
        ("storage.apply.p99_us", stat("storage.apply", 0.99), "us", n("storage.apply")),
        ("storage.apply.max_us", max("storage.apply"), "us", n("storage.apply")),
        ("storage.flushes", st.flushes as f64, "count", 1),
        ("storage.compactions", st.compactions as f64, "count", 1),
        ("storage.tables_end", st.tables_end as f64, "count", 1),
        ("storage.get.p50_us", stat("storage.get", 0.5), "us", n("storage.get")),
        ("storage.get.p99_us", stat("storage.get", 0.99), "us", n("storage.get")),
        (
            "storage.cache_hit_rate",
            st.cache_hits as f64 / (st.cache_hits + st.cache_misses).max(1) as f64,
            "ratio",
            (st.cache_hits + st.cache_misses) as usize,
        ),
        (
            "core.get_tuple_set.p50_us",
            stat("core.get_tuple_set", 0.5),
            "us",
            n("core.get_tuple_set"),
        ),
        (
            "core.get_tuple_set.above_storage_p50_us",
            stat("core.get_tuple_set", 0.5) - stat("storage.get", 0.5),
            "us",
            n("core.get_tuple_set"),
        ),
        ("query.parse.p50_us", stat("query.parse", 0.5), "us", n("query.parse")),
        ("query.exec.p50_us", stat("query.exec", 0.5), "us", n("query.exec")),
        ("query.exec.p99_us", stat("query.exec", 0.99), "us", n("query.exec")),
        ("query.candidates_per_result", cand as f64 / returned.max(1) as f64, "ratio", returned),
        ("index.fetch.p50_us", stat("index.fetch", 0.5), "us", n("index.fetch")),
        ("index.eq_lookup.p50_us", stat("index.eq_lookup", 0.5), "us", n("index.eq_lookup")),
        (
            "index.created_scan.p50_us",
            stat("index.created_scan", 0.5),
            "us",
            n("index.created_scan"),
        ),
        ("index.all_nodes.p50_us", stat("index.all_nodes", 0.5), "us", n("index.all_nodes")),
        ("wire.encode_page.p50_us", stat("wire.encode_page", 0.5), "us", n("wire.encode_page")),
        ("index.lineage.p50_us", stat("index.lineage", 0.5), "us", n("index.lineage")),
        ("index.lineage.p99_us", stat("index.lineage", 0.99), "us", n("index.lineage")),
        ("core.notify_delay.p50_us", pct(&nd, 0.5) as f64 / US, "us", nd.len()),
        ("core.open_s", l.open_s, "s", 1),
        (
            "storage.scan_prefix.total_ms",
            f.by_name
                .get("storage.scan_prefix")
                .map_or(0.0, |x| x.durs_ns.iter().sum::<u64>() as f64 / MS),
            "ms",
            n("storage.scan_prefix"),
        ),
        (
            "core.index_bytes_per_set",
            l.index_bytes as f64 / l.records.max(1) as f64,
            "B",
            l.records as usize,
        ),
        ("storage.space_amp", st.disk_bytes as f64 / st.live_bytes.max(1) as f64, "ratio", 1),
        (
            "storage.wal_bytes_per_commit",
            st.applied_bytes as f64 / st.applies.max(1) as f64,
            "B",
            st.applies as usize,
        ),
        (
            "model.encode_record.p50_us",
            stat("model.encode_record", 0.5),
            "us",
            n("model.encode_record"),
        ),
        (
            "model.content_digest.p50_us",
            stat("model.content_digest", 0.5),
            "us",
            n("model.content_digest"),
        ),
        (
            "model.verify_identity.p50_us",
            stat("model.verify_identity", 0.5),
            "us",
            n("model.verify_identity"),
        ),
        ("loadgen.send_lag.p99_ms", pct(&s.send_lag, 0.99) as f64 / MS, "ms", s.send_lag.len()),
        (
            "trace.overhead.publish_p50_us",
            (p50_of(is_pub, true, &l.replayed) - p50_of(is_pub, false, &l.replayed)) / US,
            "us",
            publishes.len(),
        ),
        (
            "trace.overhead.query_p50_us",
            (p50_of(is_query, true, &l.replayed) - p50_of(is_query, false, &l.replayed)) / US,
            "us",
            n("replay.query"),
        ),
    ];
    table(&rows);
    let text = fold_table(f);
    println!("{text}");
    std::fs::write(fold_path, &text).map_err(|e| format!("writing fold table: {e}"))?;
    Ok(Outcome {
        correct: s.failed == 0,
        attempted: s.attempted,
        failed: s.failed,
        metrics: rows.iter().map(|r| (r.0, r.1, r.2)).collect(),
    })
}

/// The folded trace as text: per span name n, p50, p99, max, self p50
/// and total self time; then the parent→child table.
pub fn fold_table(f: &Folded) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>8} {:>10} {:>10} {:>11} {:>10} {:>11}",
        "span", "n", "p50_us", "p99_us", "max_us", "self_p50", "self_tot_ms"
    );
    for (name, x) in &f.by_name {
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>10.2} {:>10.2} {:>11.2} {:>10.2} {:>11.3}",
            name,
            x.durs_ns.len(),
            pct(&x.durs_ns, 0.5) as f64 / US,
            pct(&x.durs_ns, 0.99) as f64 / US,
            x.durs_ns.last().copied().unwrap_or(0) as f64 / US,
            pct(&x.self_ns, 0.5) as f64 / US,
            x.self_ns.iter().sum::<u64>() as f64 / MS,
        );
    }
    let _ = writeln!(out, "\n{:<28} {:<28} {:>8} {:>12}", "parent", "child", "calls", "child_ms");
    for ((parent, child), (calls, ns)) in &f.edges {
        let _ = writeln!(out, "{parent:<28} {child:<28} {calls:>8} {:>12.3}", *ns as f64 / MS);
    }
    out
}
