//! The traced run: the same schedule replayed in-process through the
//! server's public pipeline — `frame::encode_msg` bytes →
//! `FrameDecoder::next_frame` → `WireMsg::decode_body` →
//! `AdmissionGate::try_admit` → `Pass` → reply `encode_body` — with a
//! span around each call. Every fourth op runs with tracing off; those
//! control ops give the tracing overhead.

use crate::drive::{fetched_ok, Inputs, Reply};
use crate::layers::TracedProvider;
use crate::trace::{self, span};
use crate::workload::{Op, OpKind};
use pass_core::Pass;
use pass_distrib::wire::WireMsg;
use pass_model::codec::Encode;
use pass_model::codec::Reader;
use pass_model::{TupleSet, TupleSetId};
use pass_server::frame::encode_msg;
use pass_server::{AdmissionGate, FrameDecoder};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One replayed op.
#[derive(Debug, Clone, Default)]
pub struct Replayed {
    pub traced: bool,
    pub due_ns: u64,
    pub start_ns: u64,
    pub done_ns: u64,
    pub reply: Reply,
    /// `core.ingest_batch` interval (publishes), on the trace clock.
    pub commit: Option<(u64, u64)>,
    /// Interval a snapshot was held (queries and lineage), trace clock.
    pub reader: Option<(u64, u64)>,
    /// Candidates scanned and records returned (queries).
    pub candidates: (usize, usize),
}

fn since(t0: Instant) -> u64 {
    Instant::now().saturating_duration_since(t0).as_nanos() as u64
}

/// Replays one connection's schedule. Runs the ops at their due
/// instants; a late op starts as soon as the previous one ends.
#[allow(clippy::too_many_arguments)]
pub fn replay_conn(
    conn: u64,
    ops: &[Op],
    frames: &[Vec<u8>],
    inputs: &Inputs,
    pass: &Pass,
    gate: &Arc<AdmissionGate>,
    page: u64,
    t0: Instant,
) -> Vec<Replayed> {
    crate::drive::sys::fine_timer_slack();
    let mut dec = FrameDecoder::new();
    let mut out = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let now = since(t0);
        if op.due_ns > now {
            std::thread::sleep(Duration::from_nanos(op.due_ns - now));
        }
        let traced = i % 4 != 3;
        trace::set_enabled(traced);
        trace::set_request((conn << 48) | i as u64);
        let mut r = Replayed { traced, due_ns: op.due_ns, ..Default::default() };
        r.start_ns = since(t0);
        match op.kind {
            OpKind::Fetch(k) => {
                let _g = span("replay.fetch");
                let id = inputs.fetch_keys[k];
                let fetched = {
                    let _g = span("core.get_tuple_set");
                    pass.get_tuple_set(id)
                };
                r.reply = Reply::Fetched(fetched_ok(fetched, id, &inputs.digests));
            }
            OpKind::Publish(_) => {
                let _g = span("replay.publish");
                publish(&frames[i], &mut dec, pass, gate, &mut r);
            }
            OpKind::Query(_) | OpKind::Lineage(_) => {
                let lineage = matches!(op.kind, OpKind::Lineage(_));
                let _g = span(if lineage { "replay.lineage" } else { "replay.query" });
                query(&frames[i], &mut dec, pass, page, lineage, &mut r);
            }
        }
        r.done_ns = since(t0);
        out.push(r);
    }
    trace::set_enabled(false);
    trace::finish_thread();
    out
}

fn next_frame(bytes: &[u8], dec: &mut FrameDecoder) -> Option<(u8, Vec<u8>, u64)> {
    let g = span("frame.decode");
    g.count(bytes.len() as u64);
    dec.extend(bytes);
    let frame = dec.next_frame().ok()??;
    let op = Reader::new(&frame.payload).take_varint("wire op").ok()?;
    Some((frame.kind, frame.payload, op))
}

fn publish(
    bytes: &[u8],
    dec: &mut FrameDecoder,
    pass: &Pass,
    gate: &Arc<AdmissionGate>,
    r: &mut Replayed,
) {
    let Some((kind, payload, op)) = next_frame(bytes, dec) else {
        r.reply = Reply::Error("frame".into());
        return;
    };
    let permit = {
        let _g = span("admission.try_admit");
        gate.try_admit(payload.len() as u64, 0)
    };
    let Some(_permit) = permit else {
        r.reply = Reply::Overloaded;
        let _g = span("wire.encode_reply");
        encode_msg(&WireMsg::Overloaded { op });
        return;
    };
    let sets = {
        let g = span("wire.decode_publish");
        match WireMsg::decode_body(kind, &payload) {
            Ok(WireMsg::Publish { sets, .. }) => {
                g.count(sets.len() as u64);
                sets
            }
            _ => {
                r.reply = Reply::Error("decode".into());
                return;
            }
        }
    };
    model_spans(&sets);
    let start = trace::now_ns();
    let result = {
        let g = span("core.ingest_batch");
        g.count(sets.len() as u64);
        pass.ingest_batch(&sets)
    };
    r.commit = Some((start, trace::now_ns()));
    let reply = match result {
        Ok(ids) => {
            r.reply = Reply::Published(ids.clone());
            WireMsg::PublishOk { op, ids }
        }
        Err(e) => {
            r.reply = Reply::Error(e.to_string());
            WireMsg::Error { op, message: e.to_string() }
        }
    };
    let g = span("wire.encode_reply");
    g.count(encode_msg(&reply).len() as u64);
}

/// The model-layer work `ingest_batch` does per set — identity check,
/// content digest, record encoding — called by the benchmark on the
/// same payload so each gets its own span.
fn model_spans(sets: &[TupleSet]) {
    for ts in sets {
        {
            let _g = span("model.verify_identity");
            std::hint::black_box(ts.provenance.verify_identity());
        }
        {
            let g = span("model.content_digest");
            g.count(ts.readings.len() as u64);
            std::hint::black_box(TupleSet::content_digest_of(&ts.readings));
        }
        {
            let g = span("model.encode_record");
            g.count(std::hint::black_box(ts.provenance.encode_to_vec()).len() as u64);
        }
    }
}

fn query(
    bytes: &[u8],
    dec: &mut FrameDecoder,
    pass: &Pass,
    page: u64,
    lineage: bool,
    r: &mut Replayed,
) {
    let Some((kind, payload, op)) = next_frame(bytes, dec) else {
        r.reply = Reply::Error("frame".into());
        return;
    };
    let decoded = {
        let _g = span("wire.decode_query");
        WireMsg::decode_body(kind, &payload)
    };
    let Ok(WireMsg::QueryPage { query, after, limit, .. }) = decoded else {
        r.reply = Reply::Error("decode".into());
        return;
    };
    let parsed = {
        let _g = span("query.parse");
        pass_query::parse(&query)
    };
    let Ok(mut parsed) = parsed else {
        r.reply = Reply::Error("parse".into());
        return;
    };
    parsed.limit = Some(if limit == 0 { page as usize } else { limit as usize });
    if after.is_some() {
        parsed.after = after;
    }
    let snapshot = {
        let _g = span("core.snapshot.take");
        pass.snapshot()
    };
    let held_from = trace::now_ns();
    let result = {
        let g = span(if lineage { "query.exec_lineage" } else { "query.exec" });
        let result = pass_query::execute(&parsed, &TracedProvider(&snapshot));
        if let Ok(res) = &result {
            g.count(res.stats.candidates_scanned as u64);
        }
        result
    };
    drop(snapshot);
    r.reader = Some((held_from, trace::now_ns()));
    let reply = match result {
        Ok(res) => {
            r.candidates = (res.stats.candidates_scanned, res.records.len());
            let ids: Vec<TupleSetId> = res.ids();
            let done = (ids.len() as u64) < page;
            r.reply = Reply::Page(ids.clone());
            WireMsg::ResultPage { op, ids, done }
        }
        Err(e) => {
            r.reply = Reply::Error(e.to_string());
            WireMsg::Error { op, message: e.to_string() }
        }
    };
    let g = span("wire.encode_page");
    g.count(encode_msg(&reply).len() as u64);
}

/// The in-process twin of the server's subscription pump: drains a
/// `Subscription` and timestamps every matched id on the trace clock.
pub fn pump(
    pass: &Pass,
    statement: &str,
    stop: &AtomicBool,
) -> Result<(Vec<(TupleSetId, u64)>, u64), String> {
    let mut sub = pass.subscribe_text(statement).map_err(|e| e.to_string())?;
    let mut seen = Vec::new();
    let mut lagged = 0;
    while !stop.load(Ordering::Acquire) {
        match sub.next_timeout(Duration::from_millis(20)) {
            Some(pass_core::Event::Match(record)) => {
                seen.push((record.id, trace::now_ns()));
            }
            Some(pass_core::Event::Lagged(n)) => lagged += n,
            _ => {}
        }
    }
    Ok((seen, lagged))
}
