//! E24: open-loop serving-layer latency across the knee.
//!
//! The serving experiments so far drove the engine in-process. E24
//! measures the whole stack the way production sees it — real TCP,
//! framed codec, admission control — under an **open-loop** load whose
//! offered rate does not care how the server is doing.
//!
//! Method:
//!
//! 1. **Calibrate the knee.** A closed-loop burst (every connection
//!    publishing back-to-back) measures the server's maximum sustained
//!    commit rate on this host. That rate is the knee: open-loop
//!    behavior changes qualitatively on either side of it.
//! 2. **Sweep offered rates** at fixed multiples of the knee, below and
//!    above (default 0.3/0.6/0.9/1.2/2.0×). Each point runs against a
//!    fresh disk-backed store so points do not contaminate each other.
//! 3. **Report coordinated-omission-safe latency** (p50/p99/p999 from
//!    the *scheduled* arrival instant) plus the shed accounting: above
//!    the knee a server without admission control queues without bound;
//!    this one rejects with `Overloaded`, keeping the latency of
//!    admitted work bounded while the shed fraction grows.
//!
//! The admission byte budget is deliberately sized in *batches*
//! (`budget_batches × payload`), below the connection count: with
//! inline dispatch, in-flight bytes track the number of simultaneously
//! committing connections, so a budget under `connections × payload` is
//! what lets the gate express overload instead of letting the kernel's
//! socket buffers absorb it invisibly.

use pass_core::{Pass, PassConfig};
use pass_distrib::wire::WireMsg;
use pass_loadgen::{LoadConfig, LoadReport};
use pass_model::SiteId;
use pass_server::{serve, AdmissionConfig, Client, PublishOutcome, ServerConfig, ServerHandle};
use pass_storage::tempdir::TempDir;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// E24 configuration (env-tunable via the bench driver).
#[derive(Debug, Clone)]
pub struct E24Config {
    /// Client connections (both calibration and sweep).
    pub connections: usize,
    /// Measurement window per sweep point.
    pub duration: Duration,
    /// Tuple sets per publish batch.
    pub sets_per_batch: usize,
    /// Readings per tuple set.
    pub readings_per_set: usize,
    /// Admission byte budget, in multiples of one batch payload. Keep
    /// at or below `connections / 2` so overload is expressed as
    /// explicit shed rather than disappearing into socket buffers.
    pub budget_batches: u64,
    /// Offered rates to sweep, as multiples of the calibrated knee.
    pub multipliers: Vec<f64>,
    /// Schedule/payload seed.
    pub seed: u64,
}

impl Default for E24Config {
    fn default() -> Self {
        E24Config {
            connections: 16,
            duration: Duration::from_secs(5),
            sets_per_batch: 4,
            readings_per_set: 4,
            budget_batches: 8,
            multipliers: vec![0.3, 0.6, 0.9, 1.2, 2.0],
            seed: 24,
        }
    }
}

/// One sweep point: offered rate in, latency + shed accounting out.
#[derive(Debug, Clone)]
pub struct E24Point {
    /// Offered rate as a multiple of the knee.
    pub mult: f64,
    /// Offered rate, publishes/s.
    pub offered: f64,
    /// Publishes sent / committed / shed / errored.
    pub sent: u64,
    /// Committed (`PublishOk`) publishes.
    pub committed: u64,
    /// Shed (`Overloaded`) publishes, as the client counted them.
    pub overloaded: u64,
    /// Client-side errors.
    pub errors: u64,
    /// Publishes unanswered within the drain window.
    pub unanswered: u64,
    /// Server-side rejection counter (cross-checks `overloaded`).
    pub server_rejected: u64,
    /// Committed publishes per second.
    pub goodput: f64,
    /// Commit latency percentiles, ms (CO-safe, from scheduled arrival).
    pub p50_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// 99.9th percentile, ms.
    pub p999_ms: f64,
    /// Mean, ms.
    pub mean_ms: f64,
    /// Max, ms.
    pub max_ms: f64,
    /// Median latency of a shed reply, ms (rejections must stay cheap).
    pub shed_p50_ms: f64,
}

/// The full experiment: calibration + sweep.
#[derive(Debug, Clone)]
pub struct E24Report {
    /// Calibrated knee, committed publishes/s (closed loop).
    pub knee: f64,
    /// Connections used.
    pub connections: usize,
    /// One batch's wire payload, bytes.
    pub payload_bytes: u64,
    /// Admission byte budget used for the sweep.
    pub budget_bytes: u64,
    /// Measurement window per point, seconds.
    pub duration_s: f64,
    /// The sweep, in multiplier order.
    pub points: Vec<E24Point>,
}

/// Wire payload bytes of one publish batch under `config`.
pub fn e24_payload_bytes(config: &E24Config) -> u64 {
    let sets = pass_loadgen::workload::batch(0, 0, config.sets_per_batch, config.readings_per_set);
    let mut buf = Vec::new();
    WireMsg::Publish { op: 1, sets }.encode_body(&mut buf);
    buf.len() as u64
}

fn fresh_server(budget_bytes: u64, connections: usize) -> (TempDir, ServerHandle) {
    let dir = TempDir::new("e24-server");
    let pass =
        Arc::new(Pass::open(PassConfig::disk(SiteId(1), dir.path())).expect("open e24 disk store"));
    let config = ServerConfig {
        admission: AdmissionConfig {
            max_in_flight_bytes: budget_bytes,
            max_connections: connections + 8,
        },
    };
    let server = serve("127.0.0.1:0", pass, config).expect("bind e24 server");
    (dir, server)
}

/// Closed-loop knee calibration: every connection publishes
/// back-to-back for `window`; the knee is the aggregate *commit* rate.
/// Runs against the same admission budget as the sweep, so the knee is
/// the configured server's maximum goodput — shed replies during
/// calibration simply don't count.
pub fn e24_calibrate(config: &E24Config, window: Duration) -> f64 {
    let budget_bytes = e24_payload_bytes(config) * config.budget_batches;
    let (_dir, server) = fresh_server(budget_bytes, config.connections);
    let addr = server.addr();
    let sets_per_batch = config.sets_per_batch;
    let readings = config.readings_per_set;

    let workers: Vec<_> = (0..config.connections)
        .map(|conn| {
            std::thread::spawn(move || {
                let mut client = match Client::connect(addr) {
                    Ok(client) => client,
                    Err(_) => return 0u64,
                };
                let start = Instant::now();
                let mut committed = 0u64;
                let mut seq = 0u64;
                while start.elapsed() < window {
                    let batch = pass_loadgen::workload::batch(
                        conn as u32 + 1_000,
                        seq,
                        sets_per_batch,
                        readings,
                    );
                    seq += 1;
                    match client.publish(batch) {
                        Ok(PublishOutcome::Committed(_)) => committed += 1,
                        Ok(PublishOutcome::Overloaded) => {}
                        Err(_) => break,
                    }
                }
                committed
            })
        })
        .collect();
    let committed: u64 = workers.into_iter().map(|w| w.join().unwrap_or(0)).sum();
    server.shutdown().expect("calibration shutdown");
    (committed as f64 / window.as_secs_f64()).max(1.0)
}

/// Runs the full sweep. `knee` comes from [`e24_calibrate`] (passed in
/// so the driver can print it first and reuse it across reruns).
pub fn e24_run(config: &E24Config, knee: f64) -> E24Report {
    let payload_bytes = e24_payload_bytes(config);
    let budget_bytes = payload_bytes * config.budget_batches;
    let mut points = Vec::with_capacity(config.multipliers.len());

    for (i, &mult) in config.multipliers.iter().enumerate() {
        let offered = (knee * mult).max(1.0);
        let (_dir, server) = fresh_server(budget_bytes, config.connections);
        let load = LoadConfig {
            offered_rate: offered,
            duration: config.duration,
            connections: config.connections,
            sets_per_batch: config.sets_per_batch,
            readings_per_set: config.readings_per_set,
            seed: config.seed.wrapping_add(i as u64),
            drain: Duration::from_secs(10),
        };
        let report = pass_loadgen::run(server.addr(), &load).expect("e24 load run");
        let stats = server.stats();
        points.push(point_of(mult, &report, stats.publishes_rejected));
        server.shutdown().expect("sweep point shutdown");
    }

    E24Report {
        knee,
        connections: config.connections,
        payload_bytes,
        budget_bytes,
        duration_s: config.duration.as_secs_f64(),
        points,
    }
}

fn point_of(mult: f64, report: &LoadReport, server_rejected: u64) -> E24Point {
    E24Point {
        mult,
        offered: report.offered_rate,
        sent: report.sent,
        committed: report.committed,
        overloaded: report.overloaded,
        errors: report.errors,
        unanswered: report.unanswered,
        server_rejected,
        goodput: report.goodput,
        p50_ms: report.latency.p50_ms,
        p99_ms: report.latency.p99_ms,
        p999_ms: report.latency.p999_ms,
        mean_ms: report.latency.mean_ms,
        max_ms: report.latency.max_ms,
        shed_p50_ms: report.shed_latency.p50_ms,
    }
}

impl E24Report {
    /// Human-readable sweep table.
    pub fn table(&self) -> String {
        let mut out = format!(
            "E24 open-loop serving latency: knee {:.0}/s, {} conns, budget {} B ({}x payload)\n\
             mult  offered/s  committed  shed   unans  p50_ms  p99_ms  p999_ms  shed_p50\n",
            self.knee,
            self.connections,
            self.budget_bytes,
            self.budget_bytes / self.payload_bytes.max(1),
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:<5.2} {:>9.0} {:>10} {:>6} {:>6} {:>7.2} {:>7.2} {:>8.2} {:>9.2}\n",
                p.mult,
                p.offered,
                p.committed,
                p.overloaded,
                p.unanswered,
                p.p50_ms,
                p.p99_ms,
                p.p999_ms,
                p.shed_p50_ms,
            ));
        }
        out
    }
}

/// `BENCH_e24.json` payload.
pub fn e24_json(report: &E24Report) -> String {
    fn num(v: f64) -> String {
        format!("{v:.3}")
    }
    let mut s = String::from("{\n  \"experiment\": \"e24_open_loop_serving\",\n");
    s.push_str(&format!("  \"knee_per_s\": {},\n", num(report.knee)));
    s.push_str(&format!("  \"connections\": {},\n", report.connections));
    s.push_str(&format!("  \"payload_bytes\": {},\n", report.payload_bytes));
    s.push_str(&format!("  \"budget_bytes\": {},\n", report.budget_bytes));
    s.push_str(&format!("  \"duration_s\": {},\n", num(report.duration_s)));
    s.push_str("  \"points\": [\n");
    for (i, p) in report.points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"mult\": {}, \"offered_per_s\": {}, \"sent\": {}, \"committed\": {}, \
             \"overloaded\": {}, \"errors\": {}, \"unanswered\": {}, \"server_rejected\": {}, \
             \"goodput_per_s\": {}, \"p50_ms\": {}, \"p99_ms\": {}, \"p999_ms\": {}, \
             \"mean_ms\": {}, \"max_ms\": {}, \"shed_p50_ms\": {}}}{}\n",
            num(p.mult),
            num(p.offered),
            p.sent,
            p.committed,
            p.overloaded,
            p.errors,
            p.unanswered,
            p.server_rejected,
            num(p.goodput),
            num(p.p50_ms),
            num(p.p99_ms),
            num(p.p999_ms),
            num(p.mean_ms),
            num(p.max_ms),
            num(p.shed_p50_ms),
            if i + 1 == report.points.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn e24_tiny_sweep_is_consistent() {
        let config = E24Config {
            connections: 2,
            duration: Duration::from_millis(500),
            multipliers: vec![0.5],
            ..E24Config::default()
        };
        let knee = e24_calibrate(&config, Duration::from_millis(300));
        assert!(knee >= 1.0);
        let report = e24_run(&config, knee);
        assert_eq!(report.points.len(), 1);
        let p = &report.points[0];
        assert_eq!(p.committed + p.overloaded + p.unanswered, p.sent);
        assert_eq!(p.server_rejected, p.overloaded, "client and server agree on sheds");
        let json = e24_json(&report);
        assert!(json.contains("\"experiment\": \"e24_open_loop_serving\""));
        assert!(report.table().contains("E24"));
    }
}
