//! The three workloads, their fixed rates, and the open-loop schedules
//! built from a seed.

use crate::corpus::{QueryMix, LOOKUP_MIX};
use crate::util::Rng;

/// Offered load on one connection during one phase (ops per second).
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnPlan {
    pub publish: f64,
    pub query: f64,
    pub lineage: f64,
    /// In-process `Pass::get_tuple_set` calls made on this connection's
    /// thread (the wire protocol has no fetch op).
    pub fetch: f64,
    /// Holds the standing subscription for the phase.
    pub subscribe: bool,
}

/// One phase: a share of `--seconds` and the load on each connection.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub name: &'static str,
    pub share: f64,
    pub conns: [ConnPlan; 2],
}

/// A named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Sets in the preloaded base store.
    pub base_sets: usize,
    /// Query shapes and their fixed proportions.
    pub query_mix: QueryMix,
    /// Sets per publish batch.
    pub publish_sets: usize,
    /// Set-ups per untraced run (`setup_s` is their median).
    pub setups: usize,
    pub phases: Vec<Phase>,
    /// Drain, reopen and re-serve the store between phases (`ingest`:
    /// the reopen is its `open_s` and its durability check).
    pub reopen_between: bool,
    pub exercises: &'static str,
    pub skips: &'static str,
}

const IDLE: ConnPlan =
    ConnPlan { publish: 0.0, query: 0.0, lineage: 0.0, fetch: 0.0, subscribe: false };

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "ingest",
            why: "gateways publish 4-set batches open-loop into a small store with one \
                  subscriber: the write path alone, through two flushes, no reader alive",
            base_sets: 2_000,
            query_mix: LOOKUP_MIX,
            publish_sets: 4,
            setups: 15,
            phases: vec![
                Phase {
                    name: "publish",
                    share: 0.5,
                    // 2 x 130 publishes/s put about 11 MB through the 4 MiB
                    // memtable in 15 s: two flushes every run, never a
                    // third on some seeds and not others.
                    conns: [
                        ConnPlan { publish: 130.0, subscribe: true, ..IDLE },
                        ConnPlan { publish: 130.0, ..IDLE },
                    ],
                },
                // Queries and ancestor pages on separate connections: each
                // connection's requests are served one at a time, and an
                // ancestor page costs ~10x a lookup page.
                Phase {
                    name: "readback",
                    share: 0.5,
                    conns: [
                        ConnPlan { query: 75.0, ..IDLE },
                        ConnPlan { lineage: 75.0, fetch: 150.0, ..IDLE },
                    ],
                },
            ],
            reopen_between: true,
            exercises: "frame/wire decode, admission, Pass::ingest_batch, WAL, flushes, \
                        compactions, notify pump; readback after reopen",
            skips: "query/index/read path while publishing; no commit overlaps a reader",
        },
        Workload {
            name: "mixed",
            why: "analysts page queries and lineage while a gateway publishes and a \
                  subscriber listens: the only workload where commits land on live snapshots",
            base_sets: 1_500,
            query_mix: LOOKUP_MIX,
            publish_sets: 1,
            setups: 15,
            phases: vec![Phase {
                name: "mixed",
                share: 1.0,
                conns: [
                    ConnPlan { publish: 38.0, subscribe: true, ..IDLE },
                    ConnPlan { query: 38.0, lineage: 76.0, fetch: 100.0, ..IDLE },
                ],
            }],
            reopen_between: false,
            exercises: "commit under live snapshots (copy-on-write state clone), \
                        created-scan rebuilds, query/index/storage read path, notify",
            skips: "nothing; store kept small so overlapping commits stay below the knee",
        },
        Workload {
            name: "read",
            why: "analysts page queries, lineage and skewed point fetches over a store \
                  larger than the block cache, with no writer",
            base_sets: 15_000,
            query_mix: LOOKUP_MIX,
            publish_sets: 1,
            setups: 5,
            phases: vec![
                Phase {
                    name: "read",
                    share: 2.0 / 3.0,
                    conns: [
                        ConnPlan { query: 55.0, ..IDLE },
                        ConnPlan { lineage: 55.0, fetch: 200.0, ..IDLE },
                    ],
                },
                Phase {
                    name: "writeback",
                    share: 1.0 / 3.0,
                    conns: [ConnPlan { publish: 300.0, subscribe: true, ..IDLE }, IDLE],
                },
            ],
            reopen_between: false,
            exercises: "query/index/storage read path, block cache under skew, encoding; \
                        publishes only after the readers finish",
            skips: "commit path while reading; the created-order scan cache is never reset",
        },
    ]
}

/// What one scheduled op does. Indexes point into the run's input
/// tables (publish batches, query texts, lineage texts, fetch keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Publish(usize),
    Query(usize),
    Lineage(usize),
    Fetch(usize),
}

/// A scheduled op: due `due_ns` after the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub due_ns: u64,
    pub kind: OpKind,
}

/// Running counters handing out input indexes across connections.
#[derive(Debug, Default)]
pub struct Cursor {
    pub publish: usize,
    pub query: usize,
    pub lineage: usize,
    pub fetch: usize,
}

/// Builds one connection's open-loop schedule for a phase of
/// `secs` seconds: independent Poisson streams per op kind, merged in
/// due order.
pub fn schedule(plan: &ConnPlan, secs: f64, rng: &mut Rng, cur: &mut Cursor) -> Vec<Op> {
    let mut ops = Vec::new();
    let streams: [(f64, u8); 4] =
        [(plan.publish, 0), (plan.query, 1), (plan.lineage, 2), (plan.fetch, 3)];
    let mut times: Vec<(u64, u8)> = Vec::new();
    for (rate, tag) in streams {
        if rate <= 0.0 {
            continue;
        }
        let mut t = rng.exp_gap_s(rate);
        while t < secs {
            times.push(((t * 1e9) as u64, tag));
            t += rng.exp_gap_s(rate);
        }
    }
    times.sort_unstable();
    for (due_ns, tag) in times {
        let kind = match tag {
            0 => {
                cur.publish += 1;
                OpKind::Publish(cur.publish - 1)
            }
            1 => {
                cur.query += 1;
                OpKind::Query(cur.query - 1)
            }
            2 => {
                cur.lineage += 1;
                OpKind::Lineage(cur.lineage - 1)
            }
            _ => {
                cur.fetch += 1;
                OpKind::Fetch(cur.fetch - 1)
            }
        };
        ops.push(Op { due_ns, kind });
    }
    ops
}
