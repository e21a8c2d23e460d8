//! The open-loop load generator: one thread per connection sends each op
//! at its scheduled instant and reads replies in between, waking on
//! whichever comes first — the socket turning readable or the next op
//! falling due. Latency is taken from the scheduled send, so a stall
//! that delays later sends is charged to them (no coordinated omission).

use crate::workload::{Op, OpKind};
use pass_core::Pass;
use pass_distrib::wire::WireMsg;
use pass_model::{Digest128, TupleSet, TupleSetId};
use pass_server::frame::encode_msg;
use pass_server::FrameDecoder;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Wire op of the standing subscription (request ops are `index + 1`).
pub const SUB_OP: u64 = 1 << 40;

/// What came back for one op.
#[derive(Debug, Clone, Default)]
pub enum Reply {
    #[default]
    None,
    Published(Vec<TupleSetId>),
    Page(Vec<TupleSetId>),
    Overloaded,
    Error(String),
    /// In-process fetch; `true` when the set came back with readings
    /// matching its content digest.
    Fetched(bool),
}

impl Reply {
    /// A short description for failure reports.
    pub fn describe(&self) -> String {
        match self {
            Reply::None => "no reply".into(),
            Reply::Published(ids) => format!("published {} ids", ids.len()),
            Reply::Page(ids) => format!("page of {} ids", ids.len()),
            Reply::Overloaded => "overloaded".into(),
            Reply::Error(message) => format!("error: {message}"),
            Reply::Fetched(ok) => format!("fetched (digest ok: {ok})"),
        }
    }
}

/// One op's timeline (ns since the phase start; 0 = never happened).
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub sent_ns: u64,
    pub done_ns: u64,
    pub reply: Reply,
}

/// Everything a connection saw during a phase.
#[derive(Debug, Default)]
pub struct ConnResult {
    pub outcomes: Vec<Outcome>,
    /// `(id, arrival ns)` for every id pushed in a `Notify`.
    pub notified: Vec<(TupleSetId, u64)>,
    pub lagged: u64,
}

/// Read-only inputs shared by the load threads.
pub struct Inputs {
    pub batches: Vec<Vec<TupleSet>>,
    pub queries: Vec<String>,
    pub lineages: Vec<String>,
    pub fetch_keys: Vec<TupleSetId>,
    pub digests: HashMap<TupleSetId, Digest128>,
}

/// True when a fetched set is `id` with readings matching both its own
/// content digest and the digest it was published with.
pub fn fetched_ok(
    fetched: pass_core::Result<Option<TupleSet>>,
    id: TupleSetId,
    digests: &HashMap<TupleSetId, Digest128>,
) -> bool {
    match fetched {
        Ok(Some(ts)) => {
            let digest = TupleSet::content_digest_of(&ts.readings);
            ts.provenance.id == id
                && digest == ts.provenance.content_digest
                && digests.get(&id) == Some(&digest)
        }
        _ => false,
    }
}

/// Pre-encodes the request frames of a schedule (fetches have none).
pub fn encode_frames(ops: &[Op], inputs: &Inputs, page: u64) -> Vec<Vec<u8>> {
    ops.iter()
        .enumerate()
        .map(|(i, op)| {
            let op_id = i as u64 + 1;
            match op.kind {
                OpKind::Publish(b) => {
                    encode_msg(&WireMsg::Publish { op: op_id, sets: inputs.batches[b].clone() })
                }
                OpKind::Query(q) => encode_msg(&WireMsg::QueryPage {
                    op: op_id,
                    query: inputs.queries[q].clone(),
                    after: None,
                    limit: page,
                }),
                OpKind::Lineage(q) => encode_msg(&WireMsg::QueryPage {
                    op: op_id,
                    query: inputs.lineages[q].clone(),
                    after: None,
                    limit: page,
                }),
                OpKind::Fetch(_) => Vec::new(),
            }
        })
        .collect()
}

/// Opens the standing subscription on `stream` and waits for its
/// catch-up marker.
pub fn subscribe(stream: &mut TcpStream, statement: &str) -> Result<(), String> {
    stream
        .write_all(&encode_msg(&WireMsg::Subscribe { op: SUB_OP, statement: statement.into() }))
        .map_err(|e| format!("subscribe: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; 64 << 10];
    loop {
        while let Some(frame) = dec.next_frame().map_err(|e| e.to_string())? {
            match WireMsg::decode_body(frame.kind, &frame.payload).map_err(|e| e.to_string())? {
                WireMsg::SubCaughtUp { .. } => {
                    stream.set_read_timeout(None).map_err(|e| e.to_string())?;
                    return Ok(());
                }
                WireMsg::Error { message, .. } => return Err(format!("subscribe: {message}")),
                _ => {}
            }
        }
        let n = stream.read(&mut buf).map_err(|e| format!("subscribe: {e}"))?;
        if n == 0 {
            return Err("subscribe: connection closed".into());
        }
        dec.extend(&buf[..n]);
    }
}

/// How long a connection keeps waiting, after its last send, for
/// replies and expected notifications.
const GRACE: Duration = Duration::from_secs(5);

/// Drives one connection through its schedule. `expect_notified` is the
/// number of notified ids after which a subscribed connection may stop
/// listening early.
pub fn drive(
    mut stream: TcpStream,
    ops: &[Op],
    frames: &[Vec<u8>],
    inputs: &Inputs,
    pass: &Pass,
    t0: Instant,
    expect_notified: usize,
) -> ConnResult {
    sys::fine_timer_slack();
    let mut res =
        ConnResult { outcomes: vec![Outcome::default(); ops.len()], ..Default::default() };
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; 256 << 10];
    let mut next = 0;
    let mut outstanding = 0usize;
    let mut closed = false;
    let ns = |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;
    let mut last_send = t0;
    loop {
        let now = Instant::now();
        if next < ops.len() && ns(now) >= ops[next].due_ns {
            let op = &ops[next];
            let out = &mut res.outcomes[next];
            if let OpKind::Fetch(k) = op.kind {
                let id = inputs.fetch_keys[k];
                let start = Instant::now();
                let fetched = pass.get_tuple_set(id);
                out.sent_ns = ns(start);
                out.done_ns = out.sent_ns + start.elapsed().as_nanos() as u64;
                out.reply = Reply::Fetched(fetched_ok(fetched, id, &inputs.digests));
            } else if !closed {
                out.sent_ns = ns(Instant::now());
                if stream.write_all(&frames[next]).is_ok() {
                    outstanding += 1;
                } else {
                    closed = true;
                }
            }
            next += 1;
            last_send = Instant::now();
            continue;
        }
        let all_sent = next >= ops.len();
        if all_sent
            && (closed
                || (outstanding == 0 && res.notified.len() >= expect_notified)
                || now >= last_send + GRACE)
        {
            break;
        }
        let wait = if all_sent {
            (last_send + GRACE).saturating_duration_since(now)
        } else {
            Duration::from_nanos(ops[next].due_ns.saturating_sub(ns(now)))
        };
        if closed || !sys::wait_readable(&stream, wait) {
            if closed && !all_sent {
                std::thread::sleep(wait);
            }
            continue;
        }
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => {
                closed = true;
                continue;
            }
            Ok(n) => n,
        };
        let at = ns(Instant::now());
        dec.extend(&buf[..n]);
        while let Ok(Some(frame)) = dec.next_frame() {
            let Ok(msg) = WireMsg::decode_body(frame.kind, &frame.payload) else {
                continue;
            };
            let op = msg.op();
            if op == SUB_OP {
                match msg {
                    WireMsg::Notify { ids, .. } => {
                        res.notified.extend(ids.into_iter().map(|id| (id, at)))
                    }
                    WireMsg::Lagged { missed, .. } => res.lagged += missed,
                    _ => {}
                }
                continue;
            }
            let Some(out) = (op as usize).checked_sub(1).and_then(|i| res.outcomes.get_mut(i))
            else {
                continue;
            };
            let reply = match msg {
                WireMsg::PublishOk { ids, .. } => Reply::Published(ids),
                WireMsg::ResultPage { ids, .. } => Reply::Page(ids),
                WireMsg::Overloaded { .. } => Reply::Overloaded,
                WireMsg::Error { message, .. } => Reply::Error(message),
                _ => continue,
            };
            if out.done_ns == 0 {
                out.done_ns = at;
                out.reply = reply;
                outstanding = outstanding.saturating_sub(1);
            }
        }
    }
    res
}

/// Keeps the benchmark's one CPU (see [`sys::pin_to_one_cpu`]) from
/// halting: a thread at `SCHED_IDLE` spins until dropped. On a virtual
/// machine a halted CPU is woken through the hypervisor, and how long
/// that takes depends on the rest of the host: 0.1 to several ms per
/// wake-up, with several wake-ups per request, was the largest source of
/// run-to-run spread in the socket latencies. The spinner runs only when
/// nothing else on the CPU wants to, and a waking thread preempts it at
/// once.
pub struct KeepAwake {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        use std::sync::atomic::Ordering;
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let spin = std::sync::Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            sys::idle_policy();
            while !spin.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        KeepAwake { stop, thread: Some(thread) }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Precise waits (Linux): `ppoll` with a nanosecond timeout and a 1 µs
/// timer slack, so neither a send nor a reply is timestamped late by
/// timer rounding (socket read timeouts round up to scheduler ticks).
pub mod sys {
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const POLLIN: i16 = 0x001;
    const PR_SET_TIMERSLACK: i32 = 29;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
        fn prctl(option: i32, ...) -> i32;
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// Restricts the calling thread, and every thread and process it
    /// starts afterwards, to the lowest-numbered CPU it may run on.
    /// Returns that CPU, or `None` when the affinity calls fail.
    pub fn pin_to_one_cpu() -> Option<usize> {
        let mut mask = [0u64; 16];
        // SAFETY: pid 0 is the calling thread; the mask buffer is as
        // large as the size passed.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..mask.len() * 64).find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: as above, with a mask of one allowed CPU.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
        (rc == 0).then_some(cpu)
    }

    const SCHED_IDLE: i32 = 5;

    /// Moves the calling thread to `SCHED_IDLE`: it runs only when no
    /// other thread of the system wants the CPU, and any waking thread
    /// preempts it at once.
    pub fn idle_policy() {
        let priority = 0i32;
        // SAFETY: pid 0 is the calling thread; SCHED_IDLE takes a
        // `sched_param` whose only field, the priority, must be 0.
        unsafe {
            sched_setscheduler(0, SCHED_IDLE, &priority);
        }
    }

    /// Sets the calling thread's timer slack to 1 µs.
    pub fn fine_timer_slack() {
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
        // only changes the calling thread's timer slack.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1_000u64);
        }
    }

    /// Waits up to `timeout` for `stream` to become readable.
    pub fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
        let mut fd = PollFd { fd: stream.as_raw_fd(), events: POLLIN, revents: 0 };
        let ts = Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: one valid pollfd, a valid timespec, no signal mask.
        let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
        n > 0
    }
}
