//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload ingest|mixed|read --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` serves a disk-backed `Pass` through `pass-server` on
//! localhost and drives two connections open-loop; it prints the
//! end-to-end metrics. `--trace 1` replays the same schedule in-process
//! through the server's public pipeline with spans around every layer
//! call and prints the per-layer metrics. Both check every answer. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Working data lives
//! in `.perfbench_run/` under the working directory.

mod corpus;
mod drive;
mod layers;
mod replay;
mod report;
mod trace;
mod util;
mod workload;

use drive::{ConnResult, Inputs, Outcome, Reply};
use layers::TracedStore;
use pass_core::{Pass, PassConfig};
use pass_model::codec::Encode;
use pass_model::{TupleSet, TupleSetId};
use pass_server::{serve, ServerConfig, ServerHandle};
use pass_storage::{
    spawn_engine_worker, BlockCache, EngineOptions, LsmEngine, MaintenanceHandle,
    MaintenanceOptions,
};
use std::collections::{HashMap, HashSet};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use util::{median, Rng};
use workload::{Op, OpKind, Phase, Workload};

/// Block cache shared by the engine: smaller than the `read` store's
/// live table bytes, so that workload's working set does not fit.
const CACHE_BYTES: usize = 4 << 20;
/// Maintenance worker tick (tiered compaction off the commit path).
const MAINTENANCE_TICK: Duration = Duration::from_millis(250);
/// Generator validity: a run whose p99 send lag exceeds this is invalid.
/// In-process fetches share a thread with a connection's sends, and on
/// `mixed` a fetch can wait behind a commit's state clone (tens of ms),
/// delaying the sends after it; the limit sits well above that wait, so
/// only a generator the host starved trips it.
const SEND_LAG_LIMIT_MS: f64 = 100.0;
/// Timed spans of back-to-back reopens in the open probe (`open_s` is
/// the median of their per-reopen times).
const PROBE_SPANS: usize = 3;
/// Each probe span reopens the store until it has lasted this long, so
/// no reopen time is taken from a sub-second interval.
const PROBE_SPAN: Duration = Duration::from_secs(1);
/// Sets per preload commit.
const PRELOAD_BATCH: usize = 1_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// The one CPU the run is pinned to.
    cpu: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <ingest|mixed|read> --seed N --seconds S --trace 0|1\n       \
         perfbench --describe\n       perfbench --probe-open DIR"
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 30.0, trace: false, cpu: 0 };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value == "1",
            _ => usage(),
        }
    }
    if args.seconds <= 0.0 {
        usage();
    }
    args
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--describe") => {
            println!("{}", report::describe(&workload::all(), CACHE_BYTES));
            return;
        }
        Some("--probe-open") => {
            let code = match argv.get(1).map(|d| probe_open(Path::new(d))) {
                Some(Ok(())) => 0,
                Some(Err(e)) => {
                    eprintln!("probe: {e}");
                    1
                }
                None => usage(),
            };
            std::process::exit(code);
        }
        _ => {}
    }
    let mut args = parse_args(&argv);
    let Some(wl) = workload::all().into_iter().find(|w| w.name == args.workload) else { usage() };
    let run_dir = PathBuf::from(".perfbench_run");
    let work_dir = run_dir.join(format!("{}-{}", wl.name, std::process::id()));
    // The whole run (server, load threads, maintenance worker and the
    // open probe's child process) shares one CPU that never halts (see
    // `drive::KeepAwake`): no request waits on a wake-up sent to another
    // CPU, and where threads land cannot differ from run to run.
    let Some(cpu) = drive::sys::pin_to_one_cpu() else {
        eprintln!("perfbench: cannot restrict the run to one CPU");
        std::process::exit(1);
    };
    args.cpu = cpu;
    let awake = drive::KeepAwake::start();
    let result = std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("creating {}: {e}", work_dir.display()))
        .and_then(|()| {
            if args.trace {
                traced(&wl, &args, &work_dir, &run_dir)
            } else {
                untraced(&wl, &args, &work_dir)
            }
        });
    drop(awake);
    if let Err(e) = std::fs::remove_dir_all(&work_dir) {
        eprintln!("cleanup of {}: {e}", work_dir.display());
    }
    match result {
        Ok(outcome) => {
            println!("{}", outcome.json());
            std::process::exit(if outcome.correct { 0 } else { 3 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

// ---------------------------------------------------------------------
// Store life cycle
// ---------------------------------------------------------------------

/// A disk-backed `Pass` over the traced storage decorator. Field order
/// is drop order: the store closes before its maintenance worker stops.
struct Store {
    pass: Arc<Pass>,
    kv: Arc<TracedStore>,
    engine: Arc<LsmEngine>,
    _maintenance: Option<MaintenanceHandle>,
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Opens the store at `dir` with the benchmark's one engine config:
/// default `EngineOptions` (4 MiB memtable, `SyncPolicy::OnWrite`), an
/// 4 MiB block cache, one shard, and (when `maintenance`) the
/// background compaction worker.
fn open_store(dir: &Path, maintenance: bool) -> Result<Store, String> {
    let options =
        EngineOptions { cache: Some(Arc::new(BlockCache::new(CACHE_BYTES))), ..Default::default() };
    let engine = Arc::new(LsmEngine::open(dir, options).map_err(err("engine open"))?);
    let worker = maintenance.then(|| {
        spawn_engine_worker(
            Arc::clone(&engine),
            MaintenanceOptions { tick: MAINTENANCE_TICK, pin_floor: None },
        )
    });
    let kv = Arc::new(TracedStore::new(Arc::clone(&engine)));
    let pass = Pass::open_with_store(Arc::clone(&kv) as _, PassConfig::default())
        .map_err(err("pass open"))?;
    Ok(Store { pass: Arc::new(pass), kv, engine, _maintenance: worker })
}

/// Loads the base store: group commits of [`PRELOAD_BATCH`] sets, then
/// [`compact_fully`], so every run starts from one table.
fn preload(store: &Store, sets: &[TupleSet]) -> Result<(), String> {
    for chunk in sets.chunks(PRELOAD_BATCH) {
        store.pass.ingest_batch(chunk).map_err(err("preload"))?;
    }
    compact_fully(store)
}

/// Flushes the memtable and compacts the store into one table. A store
/// is reopened only in this layout, so `open_s` does not depend on how
/// many tables and how much WAL the run happened to leave behind.
fn compact_fully(store: &Store) -> Result<(), String> {
    store.pass.flush().map_err(err("flush"))?;
    store.engine.force_compact().map_err(err("compaction"))
}

fn cache_note(store: &Store) -> String {
    format!(
        "live table bytes {} vs block cache {CACHE_BYTES} bytes",
        store.engine.stats().live_table_bytes
    )
}

/// Child-process body of the open probe. Opens `dir` once (no
/// maintenance worker, so the files hold still) for the resident memory
/// the open adds, then times [`PROBE_SPANS`] spans of back-to-back
/// open + close cycles, each at least [`PROBE_SPAN`] long, and prints
/// each span's time per reopen.
fn probe_open(dir: &Path) -> Result<(), String> {
    let before = util::rss_bytes();
    let store = open_store(dir, false)?;
    let after = util::rss_bytes();
    let records = store.pass.len();
    drop(store);
    let mut per_open = Vec::new();
    let mut reopens = 0;
    for _ in 0..PROBE_SPANS {
        let t = Instant::now();
        let mut n = 0u32;
        while t.elapsed() < PROBE_SPAN {
            drop(open_store(dir, false)?);
            n += 1;
        }
        per_open.push(format!("{}", t.elapsed().as_secs_f64() / f64::from(n)));
        reopens += n;
    }
    println!("probe {} {before} {after} {records} {reopens}", per_open.join(","));
    Ok(())
}

struct Probe {
    open_s: f64,
    /// Reopens timed across the probe's spans.
    reopens: usize,
    rss_per_set: f64,
    disk_per_set: f64,
    records: usize,
}

/// Runs the open probe on a closed store in a child process, so the
/// resident memory it reports is the store's alone.
fn probe(dir: &Path) -> Result<Probe, String> {
    let exe = std::env::current_exe().map_err(err("current exe"))?;
    let out = std::process::Command::new(exe)
        .arg("--probe-open")
        .arg(dir)
        .output()
        .map_err(err("probe spawn"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("probe "))
        .ok_or_else(|| format!("probe failed: {}", String::from_utf8_lossy(&out.stderr).trim()))?;
    let f: Vec<&str> = line.split(' ').collect();
    let opens: Vec<f64> = f[0].split(',').filter_map(|s| s.parse().ok()).collect();
    let num = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    let records = num(3) as usize;
    Ok(Probe {
        open_s: median(&opens),
        reopens: num(4) as usize,
        rss_per_set: (num(2) - num(1)) / records.max(1) as f64,
        disk_per_set: util::dir_bytes(dir) as f64 / records.max(1) as f64,
        records,
    })
}

// ---------------------------------------------------------------------
// Inputs and schedules
// ---------------------------------------------------------------------

/// Everything a run needs, built from the seed before any timing.
struct Plan {
    corpus_sets: Vec<TupleSet>,
    inputs: Arc<Inputs>,
    /// Per phase, per connection.
    schedules: Vec<[Vec<Op>; 2]>,
    /// Logical key + value bytes of the base store.
    live_bytes: u64,
    /// Mean encoded publish frame, bytes.
    publish_frame_bytes: f64,
    cache_note: String,
}

/// Key + value bytes a set occupies in the store (record, readings,
/// presence marker).
fn logical_bytes(ts: &TupleSet) -> u64 {
    let mut data = Vec::new();
    ts.readings.encode_into(&mut data);
    (17 + ts.provenance.encode_to_vec().len() + 17 + data.len() + 17 + 1) as u64
}

fn plan(wl: &Workload, args: &Args) -> Plan {
    let corpus = corpus::build(args.seed, wl.base_sets);
    let mut rng = Rng::new(args.seed, wl.name);
    let mut cur = workload::Cursor::default();
    let schedules: Vec<[Vec<Op>; 2]> = wl
        .phases
        .iter()
        .map(|p| {
            let secs = args.seconds * p.share;
            [
                workload::schedule(&p.conns[0], secs, &mut rng, &mut cur),
                workload::schedule(&p.conns[1], secs, &mut rng, &mut cur),
            ]
        })
        .collect();
    let mut batches = corpus::publish_batches(args.seed, 0, cur.publish, wl.publish_sets);
    let queries = corpus::query_texts(args.seed, &corpus.vocab, wl.query_mix, cur.query);
    let lineages = corpus::lineage_texts(args.seed, &corpus.deep, cur.lineage);
    // Fetch keys skew over the base store, plus (for the workload that
    // reads back what it published) the published sets, newest first.
    let mut pool: Vec<TupleSetId> = corpus.fetch_keys.clone();
    if wl.reopen_between {
        let mut published: Vec<TupleSetId> =
            batches.iter().flatten().map(|t| t.provenance.id).collect();
        published.reverse();
        published.extend(pool);
        pool = published;
    }
    let mut krng = Rng::new(args.seed, "fetch");
    let fetch_keys = (0..cur.fetch).map(|_| pool[krng.skewed(pool.len())]).collect();
    let mut digests = corpus::digests(&corpus.sets);
    digests.extend(corpus::digests(batches.iter().flatten()));
    batches.shrink_to_fit();
    let live_bytes = corpus.sets.iter().map(logical_bytes).sum();
    let frame_total: usize = batches
        .iter()
        .map(|sets| {
            pass_server::frame::encode_msg(&pass_distrib::wire::WireMsg::Publish {
                op: 1,
                sets: sets.clone(),
            })
            .len()
        })
        .sum();
    let publish_frame_bytes = frame_total as f64 / batches.len().max(1) as f64;
    Plan {
        corpus_sets: corpus.sets,
        inputs: Arc::new(Inputs { batches, queries, lineages, fetch_keys, digests }),
        schedules,
        live_bytes,
        publish_frame_bytes,
        cache_note: String::new(),
    }
}

// ---------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------

/// The page a query should return: `pass_query::execute` on a snapshot,
/// with the server's page limit. Also checks that every id of the
/// expected page satisfies the query's predicate.
fn expected_page(pass: &Pass, text: &str) -> Result<Vec<TupleSetId>, String> {
    let mut query = pass_query::parse(text).map_err(err("parse"))?;
    query.limit = Some(corpus::PAGE as usize);
    let snapshot = pass.snapshot();
    let result = pass_query::execute(&query, &snapshot).map_err(err("execute"))?;
    for record in &result.records {
        if !query.filter.matches(record) {
            return Err(format!("{} does not satisfy `{text}`", record.id));
        }
    }
    Ok(result.ids())
}

/// Expected pages for every distinct query/lineage text of a phase.
fn expected_pages(
    pass: &Pass,
    ops: &[Vec<Op>; 2],
    inputs: &Inputs,
) -> Result<HashMap<String, Vec<TupleSetId>>, String> {
    let mut out = HashMap::new();
    for op in ops.iter().flatten() {
        let text = match op.kind {
            OpKind::Query(q) => &inputs.queries[q],
            OpKind::Lineage(q) => &inputs.lineages[q],
            _ => continue,
        };
        if !out.contains_key(text) {
            out.insert(text.clone(), expected_page(pass, text)?);
        }
    }
    Ok(out)
}

/// Per-op correctness of one phase; returns `ok` flags aligned with the
/// ops of each connection.
fn check_phase(
    ops: &[Vec<Op>; 2],
    outcomes: &[Vec<Outcome>; 2],
    inputs: &Inputs,
    expected: &HashMap<String, Vec<TupleSetId>>,
) -> [Vec<bool>; 2] {
    std::array::from_fn(|c| {
        ops[c]
            .iter()
            .zip(&outcomes[c])
            .map(|(op, out)| match (op.kind, &out.reply) {
                (OpKind::Publish(b), Reply::Published(ids)) => {
                    ids.len() == inputs.batches[b].len()
                        && ids
                            .iter()
                            .zip(&inputs.batches[b])
                            .all(|(id, ts)| *id == ts.provenance.id)
                }
                (OpKind::Query(q), Reply::Page(ids)) => {
                    expected.get(&inputs.queries[q]) == Some(ids)
                }
                (OpKind::Lineage(q), Reply::Page(ids)) => {
                    expected.get(&inputs.lineages[q]) == Some(ids)
                }
                (OpKind::Fetch(_), Reply::Fetched(ok)) => *ok,
                _ => false,
            })
            .collect()
    })
}

/// Notification check for a subscribed phase: every acknowledged
/// publish's ids arrive exactly once (missing ones are excused only
/// after `Lagged`). Returns, per acknowledged batch, its notify latency
/// when complete, plus the number of failures.
fn check_notify(
    ops: &[Vec<Op>; 2],
    ok: &[Vec<bool>; 2],
    inputs: &Inputs,
    notified: &[(TupleSetId, u64)],
    lagged: u64,
) -> (Vec<u64>, usize, usize) {
    let mut arrivals: HashMap<TupleSetId, (u64, usize)> = HashMap::new();
    for &(id, at) in notified {
        let e = arrivals.entry(id).or_insert((at, 0));
        e.1 += 1;
    }
    let mut latencies = Vec::new();
    let (mut checked, mut failed) = (0, 0);
    let mut acked: HashSet<TupleSetId> = HashSet::new();
    for c in 0..2 {
        for (i, op) in ops[c].iter().enumerate() {
            let OpKind::Publish(b) = op.kind else { continue };
            if !ok[c][i] {
                continue;
            }
            checked += 1;
            acked.extend(inputs.batches[b].iter().map(|ts| ts.provenance.id));
            let mut last = 0;
            let mut complete = true;
            let mut bad = false;
            for ts in &inputs.batches[b] {
                match arrivals.get(&ts.provenance.id) {
                    Some(&(at, 1)) => last = last.max(at),
                    Some(_) => bad = true,
                    None => complete = false,
                }
            }
            if bad || (!complete && lagged == 0) {
                failed += 1;
            } else if complete {
                latencies.push(last.saturating_sub(op.due_ns).max(1));
            }
        }
    }
    // Ids pushed that no acknowledged publish accounts for.
    failed += arrivals.keys().filter(|id| !acked.contains(id)).count();
    (latencies, checked, failed)
}

/// Reads every acknowledged id back and checks its readings against the
/// published content digest; marks failed publishes.
fn check_durable(pass: &Pass, ops: &[Vec<Op>; 2], ok: &mut [Vec<bool>; 2], inputs: &Inputs) {
    for c in 0..2 {
        for (i, op) in ops[c].iter().enumerate() {
            if let OpKind::Publish(b) = op.kind {
                if ok[c][i] {
                    ok[c][i] = inputs.batches[b].iter().all(|ts| {
                        let id = ts.provenance.id;
                        drive::fetched_ok(pass.get_tuple_set(id), id, &inputs.digests)
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Untraced run: sockets
// ---------------------------------------------------------------------

/// Per-op samples gathered across phases.
#[derive(Default)]
struct Samples {
    by_kind: HashMap<&'static str, Vec<u64>>,
    send_lag: Vec<u64>,
    attempted: usize,
    failed: usize,
}

/// Notes a failed op on standard error (the first few of a run).
fn report_failure(samples: &mut Samples, kind: OpKind, reply: &Reply) {
    samples.failed += 1;
    if samples.failed <= 5 {
        eprintln!("failed {kind:?}: {}", reply.describe());
    }
}

impl Samples {
    fn push(&mut self, kind: &'static str, ns: u64) {
        self.by_kind.entry(kind).or_default().push(ns);
    }

    fn sorted(&mut self, kind: &str) -> Vec<u64> {
        let mut v = self.by_kind.remove(kind).unwrap_or_default();
        v.sort_unstable();
        v
    }
}

fn kind_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Publish(_) => "publish",
        OpKind::Query(_) => "query",
        OpKind::Lineage(_) => "lineage",
        OpKind::Fetch(_) => "fetch",
    }
}

fn connect(addr: std::net::SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(err("connect"))?;
    s.set_nodelay(true).map_err(err("nodelay"))?;
    Ok(s)
}

fn expected_notified(phase: &Phase, ops: &[Vec<Op>; 2], inputs: &Inputs) -> usize {
    if !phase.conns.iter().any(|c| c.subscribe) {
        return 0;
    }
    ops.iter()
        .flatten()
        .map(|o| match o.kind {
            OpKind::Publish(b) => inputs.batches[b].len(),
            _ => 0,
        })
        .sum()
}

/// Drives one phase over two sockets.
fn socket_phase(
    phase: &Phase,
    ops: &[Vec<Op>; 2],
    inputs: &Arc<Inputs>,
    pass: &Arc<Pass>,
    server: &ServerHandle,
) -> Result<[ConnResult; 2], String> {
    let mut streams = Vec::new();
    for plan in &phase.conns {
        let mut s = connect(server.addr())?;
        if plan.subscribe {
            drive::subscribe(&mut s, corpus::SUBSCRIBE)?;
        }
        streams.push(s);
    }
    let frames: Vec<Vec<Vec<u8>>> =
        ops.iter().map(|o| drive::encode_frames(o, inputs, corpus::PAGE)).collect();
    let expect = expected_notified(phase, ops, inputs);
    let t0 = Instant::now() + Duration::from_millis(20);
    let results: Result<Vec<ConnResult>, &str> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                let (ops, frames) = (&ops[c], &frames[c]);
                let expect = if phase.conns[c].subscribe { expect } else { 0 };
                s.spawn(move || drive::drive(stream, ops, frames, inputs, pass, t0, expect))
            })
            .collect();
        handles.into_iter().map(|h| h.join().map_err(|_| "load thread panicked")).collect()
    });
    let [a, b]: [ConnResult; 2] =
        results?.try_into().map_err(|_| "expected two connections".to_owned())?;
    Ok([a, b])
}

fn untraced(wl: &Workload, args: &Args, work_dir: &Path) -> Result<report::Outcome, String> {
    let mut plan = plan(wl, args);
    let mut setup_s = Vec::new();
    let mut probed = None;
    let mut live = None;
    for k in 0..wl.setups {
        let dir = work_dir.join(format!("store-{k}"));
        let t = Instant::now();
        let store = open_store(&dir, true)?;
        preload(&store, &plan.corpus_sets)?;
        let server = serve("127.0.0.1:0", Arc::clone(&store.pass), ServerConfig::default())
            .map_err(err("serve"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        if k + 1 < wl.setups {
            server.shutdown().map_err(err("drain"))?;
            drop(store);
            if probed.is_none() && !wl.reopen_between {
                probed = Some(probe(&dir)?);
            }
            std::fs::remove_dir_all(&dir).map_err(err("remove store"))?;
        } else {
            live = Some((store, server, dir));
        }
    }
    let (mut store, mut server, dir) = live.ok_or("no setup ran")?;
    plan.cache_note = cache_note(&store);
    plan.corpus_sets = Vec::new();
    let inputs = Arc::clone(&plan.inputs);
    let mut samples = Samples::default();
    let mut server_shed = 0;
    for (p, phase) in wl.phases.iter().enumerate() {
        let ops = &plan.schedules[p];
        let reads_during_writes =
            ops.iter().flatten().any(|o| !matches!(o.kind, OpKind::Publish(_) | OpKind::Fetch(_)))
                && ops.iter().flatten().any(|o| matches!(o.kind, OpKind::Publish(_)));
        let before = if reads_during_writes {
            Some(expected_pages(&store.pass, ops, &inputs)?)
        } else {
            None
        };
        let results = socket_phase(phase, ops, &inputs, &store.pass, &server)?;
        let expected = expected_pages(&store.pass, ops, &inputs)?;
        if before.is_some_and(|b| b != expected) {
            return Err("a publish changed a read query's answer".into());
        }
        let outcomes = [results[0].outcomes.clone(), results[1].outcomes.clone()];
        let mut ok = check_phase(ops, &outcomes, &inputs, &expected);
        // Between phases `ingest` drains, reopens (its `open_s`) and reads
        // every acknowledged publish back.
        if wl.reopen_between && p + 1 < wl.phases.len() {
            server_shed += server.stats().publishes_rejected;
            server.shutdown().map_err(err("drain"))?;
            compact_fully(&store)?;
            drop(store);
            probed = Some(probe(&dir)?);
            store = open_store(&dir, true)?;
            check_durable(&store.pass, ops, &mut ok, &inputs);
            server = serve("127.0.0.1:0", Arc::clone(&store.pass), ServerConfig::default())
                .map_err(err("serve"))?;
        }
        if phase.conns.iter().any(|c| c.subscribe) {
            let notified: Vec<(TupleSetId, u64)> =
                results.iter().flat_map(|r| r.notified.iter().copied()).collect();
            let lagged = results.iter().map(|r| r.lagged).sum();
            let (lat, checked, failed) = check_notify(ops, &ok, &inputs, &notified, lagged);
            for ns in lat {
                samples.push("notify", ns);
            }
            samples.attempted += checked;
            samples.failed += failed;
        }
        for c in 0..2 {
            for (i, op) in ops[c].iter().enumerate() {
                let out = &outcomes[c][i];
                samples.attempted += 1;
                if !ok[c][i] {
                    report_failure(&mut samples, op.kind, &out.reply);
                    continue;
                }
                let kind = kind_name(op.kind);
                if let OpKind::Fetch(_) = op.kind {
                    samples.push(kind, (out.done_ns - out.sent_ns).max(1));
                } else {
                    samples.push(kind, out.done_ns.saturating_sub(op.due_ns).max(1));
                    samples.send_lag.push(out.sent_ns.saturating_sub(op.due_ns));
                }
            }
        }
    }
    server_shed += server.stats().publishes_rejected;
    server.shutdown().map_err(err("drain"))?;
    drop(store);
    let probed = probed.ok_or("open probe did not run")?;
    report::untraced_outcome(wl, args, &plan, samples, setup_s, probed, server_shed)
}

// ---------------------------------------------------------------------
// Traced run: in-process replay
// ---------------------------------------------------------------------

fn traced(
    wl: &Workload,
    args: &Args,
    work_dir: &Path,
    run_dir: &Path,
) -> Result<report::Outcome, String> {
    let mut plan = plan(wl, args);
    let dir = work_dir.join("store");
    let mut store = open_store(&dir, true)?;
    preload(&store, &plan.corpus_sets)?;
    plan.cache_note = cache_note(&store);
    plan.corpus_sets = Vec::new();
    let inputs = Arc::clone(&plan.inputs);
    // The traced reopen: `core.open_s` and its storage scans.
    let reopen = |store: Store| -> Result<(Store, f64), String> {
        compact_fully(&store)?;
        drop(store);
        trace::set_enabled(true);
        trace::set_request(u64::MAX);
        let t = Instant::now();
        let store = {
            let _g = trace::span("core.open");
            open_store(&dir, true)?
        };
        let secs = t.elapsed().as_secs_f64();
        trace::set_enabled(false);
        Ok((store, secs))
    };
    let mut open_s = 0.0;
    if !wl.reopen_between {
        (store, open_s) = reopen(store)?;
    }
    // An admission gate configured like the server's.
    let gate = pass_server::AdmissionGate::new(pass_server::AdmissionConfig::default());
    let mut counted = report::StorageCounts::default();
    let mut base = report::StorageCounts::read(&store.engine, &store.kv);
    let mut live_bytes = plan.live_bytes;
    let mut all: Vec<(OpKind, replay::Replayed)> = Vec::new();
    let mut notify_delay = Vec::new();
    let mut samples = Samples::default();
    for (p, phase) in wl.phases.iter().enumerate() {
        let ops = &plan.schedules[p];
        if p > 0 && wl.reopen_between {
            counted.add_since(&base, &report::StorageCounts::read(&store.engine, &store.kv));
            (store, open_s) = reopen(store)?;
            base = report::StorageCounts::read(&store.engine, &store.kv);
        }
        let frames: Vec<Vec<Vec<u8>>> =
            ops.iter().map(|o| drive::encode_frames(o, &inputs, corpus::PAGE)).collect();
        let stop = AtomicBool::new(false);
        let subscribed = phase.conns.iter().any(|c| c.subscribe);
        let pass = Arc::clone(&store.pass);
        let t0 = Instant::now() + Duration::from_millis(50);
        let (results, pumped) = std::thread::scope(|s| {
            let pump = subscribed.then(|| {
                let (pass, stop) = (&pass, &stop);
                s.spawn(move || replay::pump(pass, corpus::SUBSCRIBE, stop))
            });
            let handles: Vec<_> = (0..2)
                .map(|c| {
                    let (ops, frames, inputs, pass, gate) =
                        (&ops[c], &frames[c], &inputs, &pass, &gate);
                    s.spawn(move || {
                        replay::replay_conn(
                            c as u64,
                            ops,
                            frames,
                            inputs,
                            pass,
                            gate,
                            corpus::PAGE,
                            t0,
                        )
                    })
                })
                .collect();
            let results: Result<Vec<Vec<replay::Replayed>>, String> = handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "replay thread panicked".to_owned()))
                .collect();
            // Give the last commits' notifications time to arrive.
            std::thread::sleep(Duration::from_millis(200));
            stop.store(true, Ordering::Release);
            let pumped = pump.map(|h| h.join().unwrap_or_else(|_| Err("pump panicked".into())));
            (results, pumped)
        });
        let results = results?;
        let expected = expected_pages(&store.pass, ops, &inputs)?;
        let outcomes: [Vec<Outcome>; 2] = std::array::from_fn(|c| {
            results[c]
                .iter()
                .map(|r| Outcome {
                    sent_ns: r.start_ns,
                    done_ns: r.done_ns,
                    reply: r.reply.clone(),
                })
                .collect()
        });
        let ok = check_phase(ops, &outcomes, &inputs, &expected);
        if let Some(pumped) = pumped {
            let (notified, lagged) = pumped?;
            let (_, checked, failed) = check_notify(ops, &ok, &inputs, &notified, lagged);
            samples.attempted += checked;
            samples.failed += failed;
            let commit_start: HashMap<TupleSetId, u64> = ops
                .iter()
                .zip(&results)
                .flat_map(|(o, r)| o.iter().zip(r))
                .filter_map(|(op, r)| match (op.kind, r.commit) {
                    (OpKind::Publish(b), Some((start, _))) => Some((b, start)),
                    _ => None,
                })
                .flat_map(|(b, start)| {
                    inputs.batches[b].iter().map(move |t| (t.provenance.id, start))
                })
                .collect();
            for (id, at) in notified {
                if let Some(start) = commit_start.get(&id) {
                    notify_delay.push(at.saturating_sub(*start));
                }
            }
        }
        for c in 0..2 {
            for (i, (op, r)) in ops[c].iter().zip(&results[c]).enumerate() {
                samples.attempted += 1;
                if !ok[c][i] {
                    report_failure(&mut samples, op.kind, &r.reply);
                } else if let OpKind::Publish(b) = op.kind {
                    live_bytes += inputs.batches[b].iter().map(logical_bytes).sum::<u64>();
                }
                samples.send_lag.push(r.start_ns.saturating_sub(op.due_ns));
                all.push((op.kind, r.clone()));
            }
        }
    }
    let end = report::StorageCounts::read(&store.engine, &store.kv);
    counted.add_since(&base, &end);
    counted.tables_end = end.tables_end;
    let pass_stats = store.pass.stats();
    store.pass.flush().map_err(err("flush"))?;
    drop(store);
    counted.disk_bytes = util::dir_bytes(&dir);
    counted.live_bytes = live_bytes;
    trace::finish_thread();
    let threads = trace::take_all();
    trace::write_tsv(&run_dir.join(format!("trace-{}.tsv", wl.name)), &threads)
        .map_err(err("trace tsv"))?;
    let layer = report::LayerInputs {
        folded: trace::fold(&threads),
        replayed: all,
        notify_delay,
        storage: counted,
        open_s,
        index_bytes: pass_stats.index_bytes as u64,
        records: pass_stats.records as u64,
    };
    report::traced_outcome(
        wl,
        args,
        &plan,
        samples,
        layer,
        &run_dir.join(format!("fold-{}.txt", wl.name)),
    )
}
