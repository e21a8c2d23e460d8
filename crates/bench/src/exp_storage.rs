//! E23 — sustained-ingest read latency: does background maintenance
//! keep point reads fast forever?
//!
//! The experiment ingests a stream of records into a raw [`LsmEngine`]
//! under two regimes and samples point-read latency at checkpoints:
//!
//! * **baseline** — no compaction at all (no worker is attached, and an
//!   engine never compacts on its own): the live table count grows
//!   linearly with ingest and every read pays one bloom probe per
//!   table, so read tails degrade as the run proceeds;
//! * **maintenance** — the background worker from
//!   [`pass_storage::maintenance`] runs tiered compaction behind the
//!   flushes, keeping the table count bounded and read tails flat.
//!
//! The run also reports space amplification (live table bytes over
//! logical data bytes) and the block-cache hit rate. Results feed
//! `BENCH_e23.json` (see `benches/e23_sustained_ingest.rs`) and the CI
//! smoke job, which asserts the maintenance run's end-of-ingest p99 is
//! within 2× of its p99 at 10% of ingest.

use pass_storage::maintenance::{spawn_engine_worker, MaintenanceOptions};
use pass_storage::tempdir::TempDir;
use pass_storage::{EngineOptions, KvStore, LsmEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency sample taken after a fixed fraction of the ingest.
#[derive(Debug, Clone)]
pub struct E23Checkpoint {
    /// Records ingested when the sample was taken.
    pub records: usize,
    /// Live SSTables at sample time.
    pub tables: usize,
    /// Median point-read latency, microseconds.
    pub read_p50_us: f64,
    /// 99th-percentile point-read latency, microseconds.
    pub read_p99_us: f64,
}

/// One full E23 regime (baseline or maintenance).
#[derive(Debug, Clone)]
pub struct E23Run {
    /// Regime label: `"baseline"` or `"maintenance"`.
    pub label: &'static str,
    /// Total records ingested.
    pub records: usize,
    /// Per-checkpoint latency samples, in ingest order.
    pub checkpoints: Vec<E23Checkpoint>,
    /// Live SSTables at end of ingest (before the final drain).
    pub tables_end_of_ingest: usize,
    /// Live SSTables after the compaction backlog drained.
    pub tables_after_drain: usize,
    /// Bytes held by live tables after the drain.
    pub live_table_bytes: u64,
    /// Logical bytes written (sum of key + value lengths, last write
    /// per key).
    pub logical_bytes: u64,
    /// live_table_bytes / logical_bytes.
    pub space_amp: f64,
    /// Block-cache hit rate over the whole run, `0.0..=1.0`.
    pub cache_hit_rate: f64,
    /// Wall-clock ingest time, seconds.
    pub elapsed_s: f64,
}

fn key_of(i: usize) -> Vec<u8> {
    format!("rec-{i:010}").into_bytes()
}

fn value_of(i: usize) -> Vec<u8> {
    // ~56 bytes of deterministic, compressible-but-not-constant payload.
    format!("{i:016x}:{:>038}", i.wrapping_mul(0x9e37_79b9)).into_bytes()
}

/// Samples `count` point reads of uniformly random already-written keys
/// and returns (p50, p99) in microseconds.
fn sample_reads(db: &LsmEngine, written: usize, count: usize, rng: &mut StdRng) -> (f64, f64) {
    let mut lat_us = Vec::with_capacity(count);
    for _ in 0..count {
        let i = rng.gen_range(0..written);
        let key = key_of(i);
        let t = Instant::now();
        let got = db.get(&key).expect("bench read");
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(got.is_some(), "written key must be readable");
    }
    lat_us.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let pick = |q: f64| lat_us[((lat_us.len() - 1) as f64 * q) as usize];
    (pick(0.50), pick(0.99))
}

/// Runs one E23 regime: `maintenance = false` is the degrading
/// baseline, `true` attaches the background worker.
pub fn e23_run(records: usize, maintenance: bool) -> E23Run {
    let checkpoints = 10usize;
    let reads_per_checkpoint = 400usize;
    let dir = TempDir::new(if maintenance { "e23-maint" } else { "e23-base" });

    let opts = EngineOptions {
        // Small memtable: 1M records seal a few hundred tables, so the
        // baseline's per-read table probing visibly degrades.
        memtable_bytes: 256 << 10,
        sync: pass_storage::SyncPolicy::Lazy,
        ..EngineOptions::default()
    }
    .with_cache_bytes(32 << 20);

    let db = Arc::new(LsmEngine::open(dir.path().to_path_buf(), opts).expect("open e23 engine"));
    let worker = maintenance.then(|| {
        spawn_engine_worker(
            Arc::clone(&db),
            MaintenanceOptions { tick: Duration::from_millis(5), ..MaintenanceOptions::default() },
        )
    });

    let mut rng = StdRng::seed_from_u64(23);
    let mut out = Vec::with_capacity(checkpoints);
    let mut logical_bytes = 0u64;
    let step = records / checkpoints;
    let t0 = Instant::now();
    for c in 0..checkpoints {
        let start = c * step;
        let end = if c + 1 == checkpoints { records } else { start + step };
        for i in start..end {
            let (key, value) = (key_of(i), value_of(i));
            logical_bytes += (key.len() + value.len()) as u64;
            db.put(&key, &value).expect("bench put");
        }
        let (p50, p99) = sample_reads(&db, end, reads_per_checkpoint, &mut rng);
        out.push(E23Checkpoint {
            records: end,
            tables: db.stats().num_tables,
            read_p50_us: p50,
            read_p99_us: p99,
        });
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    let tables_end_of_ingest = db.stats().num_tables;

    // Drain the backlog: stop the worker, then run the picker dry so
    // the "after" numbers describe a quiesced store.
    drop(worker);
    if maintenance {
        while db.maybe_compact().expect("drain compaction") {}
    }
    let stats = db.stats();
    let looked = stats.cache_hits + stats.cache_misses;
    E23Run {
        label: if maintenance { "maintenance" } else { "baseline" },
        records,
        checkpoints: out,
        tables_end_of_ingest,
        tables_after_drain: stats.num_tables,
        live_table_bytes: stats.live_table_bytes,
        logical_bytes,
        space_amp: stats.live_table_bytes as f64 / logical_bytes.max(1) as f64,
        cache_hit_rate: if looked == 0 { 0.0 } else { stats.cache_hits as f64 / looked as f64 },
        elapsed_s,
    }
}

impl E23Run {
    /// Human-readable summary table (one row per checkpoint).
    pub fn table(&self) -> String {
        let mut s = format!(
            "E23 {} — {} records, {:.1}s ingest, {} tables at end ({} after drain), \
             space amp {:.2}x, cache hit rate {:.1}%\n",
            self.label,
            self.records,
            self.elapsed_s,
            self.tables_end_of_ingest,
            self.tables_after_drain,
            self.space_amp,
            self.cache_hit_rate * 100.0,
        );
        s.push_str("records     tables   p50_us   p99_us\n");
        for c in &self.checkpoints {
            s.push_str(&format!(
                "{:<11} {:<8} {:<8.1} {:<8.1}\n",
                c.records, c.tables, c.read_p50_us, c.read_p99_us
            ));
        }
        s
    }
}

/// Renders the runs as the machine-readable `BENCH_e23.json` document.
/// Hand-rolled (the workspace carries no JSON dependency); all numbers
/// are finite by construction.
pub fn e23_json(runs: &[E23Run]) -> String {
    fn num(v: f64) -> String {
        format!("{v:.3}")
    }
    let mut s = String::from("{\n  \"experiment\": \"e23_sustained_ingest\",\n  \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"label\": \"{}\",\n", run.label));
        s.push_str(&format!("      \"records\": {},\n", run.records));
        s.push_str(&format!("      \"tables_end_of_ingest\": {},\n", run.tables_end_of_ingest));
        s.push_str(&format!("      \"tables_after_drain\": {},\n", run.tables_after_drain));
        s.push_str(&format!("      \"live_table_bytes\": {},\n", run.live_table_bytes));
        s.push_str(&format!("      \"logical_bytes\": {},\n", run.logical_bytes));
        s.push_str(&format!("      \"space_amp\": {},\n", num(run.space_amp)));
        s.push_str(&format!("      \"cache_hit_rate\": {},\n", num(run.cache_hit_rate)));
        s.push_str(&format!("      \"ingest_elapsed_s\": {},\n", num(run.elapsed_s)));
        s.push_str("      \"checkpoints\": [\n");
        for (j, c) in run.checkpoints.iter().enumerate() {
            s.push_str(&format!(
                "        {{\"records\": {}, \"tables\": {}, \"read_p50_us\": {}, \
                 \"read_p99_us\": {}}}{}\n",
                c.records,
                c.tables,
                num(c.read_p50_us),
                num(c.read_p99_us),
                if j + 1 == run.checkpoints.len() { "" } else { "," },
            ));
        }
        s.push_str("      ]\n");
        s.push_str(&format!("    }}{}\n", if i + 1 == runs.len() { "" } else { "," }));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e23_small_run_produces_consistent_report() {
        let run = e23_run(3_000, true);
        assert_eq!(run.records, 3_000);
        assert_eq!(run.checkpoints.len(), 10);
        assert!(run.checkpoints.iter().all(|c| c.read_p99_us >= c.read_p50_us));
        assert!(run.tables_after_drain <= run.tables_end_of_ingest.max(1));
        let json = e23_json(&[run]);
        assert!(json.contains("\"label\": \"maintenance\""));
        assert!(json.contains("\"read_p99_us\""));
    }
}
