//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions. Every thread keeps its own buffer and a
//! parent stack, so a span opened inside another (on the same thread)
//! names it as parent. Buffers are collected when a thread finishes and
//! written out once the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same thread's buffer.
    pub parent: u32,
    /// Request id shared by every span of one request.
    pub req: u64,
    /// Work count at this boundary (bytes, sets, ids, candidates).
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct ThreadBuf {
    spans: Vec<Span>,
    stack: Vec<u32>,
    enabled: bool,
    req: u64,
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::default());
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static COLLECTED: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());

/// Nanoseconds since the recorder's epoch (set on first use).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    BUF.with(|b| b.borrow_mut().enabled = on);
}

/// Tags the calling thread's following spans with request id `req`.
pub fn set_request(req: u64) {
    BUF.with(|b| b.borrow_mut().req = req);
}

/// An open span; closes (and records its end) on drop.
pub struct Guard {
    idx: Option<u32>,
}

/// Opens a span named `name` on the calling thread.
pub fn span(name: &'static str) -> Guard {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        if !b.enabled {
            return Guard { idx: None };
        }
        let idx = b.spans.len() as u32;
        let parent = b.stack.last().copied().unwrap_or(NO_PARENT);
        let req = b.req;
        b.spans.push(Span { name, start_ns: now_ns(), end_ns: 0, parent, req, count: 0 });
        b.stack.push(idx);
        Guard { idx: Some(idx) }
    })
}

impl Guard {
    /// Records a work count on this span.
    pub fn count(&self, n: u64) {
        if let Some(idx) = self.idx {
            BUF.with(|b| b.borrow_mut().spans[idx as usize].count = n);
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let end = now_ns();
            BUF.with(|b| {
                let mut b = b.borrow_mut();
                b.spans[idx as usize].end_ns = end;
                b.stack.pop();
            });
        }
    }
}

/// Moves the calling thread's spans into the global collection.
pub fn finish_thread() {
    let spans = BUF.with(|b| std::mem::take(&mut b.borrow_mut().spans));
    if !spans.is_empty() {
        COLLECTED.lock().unwrap_or_else(|e| e.into_inner()).push(spans);
    }
}

/// Every collected thread buffer (thread index = position).
pub fn take_all() -> Vec<Vec<Span>> {
    std::mem::take(&mut *COLLECTED.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Per-name fold of a trace: durations, self time and counts.
#[derive(Debug, Default, Clone)]
pub struct Fold {
    pub durs_ns: Vec<u64>,
    pub self_ns: Vec<u64>,
    pub count_sum: u64,
}

/// The folded trace: per-span statistics plus the parent→child table
/// (calls and total child time per edge).
#[derive(Debug, Default)]
pub struct Folded {
    pub by_name: BTreeMap<&'static str, Fold>,
    pub edges: BTreeMap<(&'static str, &'static str), (u64, u64)>,
}

/// Folds thread buffers. Self time is a span's duration minus the time
/// its children cover; children of one span run on its thread, one
/// after another, so their durations add up without overlap.
pub fn fold(threads: &[Vec<Span>]) -> Folded {
    let mut out = Folded::default();
    for spans in threads {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                child_ns[p] += s.dur_ns();
                let e = out.edges.entry((spans[p].name, s.name)).or_default();
                e.0 += 1;
                e.1 += s.dur_ns();
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let f = out.by_name.entry(s.name).or_default();
            f.durs_ns.push(s.dur_ns());
            f.self_ns.push(s.dur_ns().saturating_sub(child_ns[i]));
            f.count_sum += s.count;
        }
    }
    for f in out.by_name.values_mut() {
        f.durs_ns.sort_unstable();
        f.self_ns.sort_unstable();
    }
    out
}

/// Writes the raw spans as an 8-column TSV:
/// `thread index parent req name start_ns end_ns count`.
pub fn write_tsv(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread\tindex\tparent\treq\tname\tstart_ns\tend_ns\tcount")?;
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            writeln!(
                w,
                "{t}\t{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
    }
    w.flush()
}
