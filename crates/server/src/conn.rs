//! Per-connection machinery: one reader thread, one writer thread, and
//! a bounded send queue from the reader to the writer.
//!
//! # Threading model
//!
//! Each accepted connection owns exactly two OS threads, whatever it
//! subscribes to:
//!
//! * the **reader** blocks on the socket (with a short timeout so it can
//!   observe drain), decodes frames, and *dispatches inline* — publishes
//!   commit on the reader thread itself, so a connection's requests are
//!   processed in order and server-wide ingest concurrency equals the
//!   number of busy connections (the shard locks underneath provide the
//!   actual parallelism);
//! * the **writer** owns all socket writes: queued replies first, and
//!   between them the push frames of every subscription the reader
//!   handed over through the send queue (`SubPush::step`). It sleeps
//!   on the queue's one condvar; a commit that reaches one of its
//!   subscriptions wakes it through the `Waker` set on that
//!   subscription.
//!
//! # Flow control
//!
//! * **Replies** (responses to requests) wait for send-queue space —
//!   this is backpressure on the reader, and therefore on the client's
//!   request stream. A client that stops draining its socket stalls its
//!   own replies and is disconnected after [`REPLY_STALL`]; a socket
//!   write that makes no progress for as long fails the same way, so a
//!   stuck client holds neither the writer nor a drain.
//! * **Pushes** never enter the send queue. Each subscription's bounded
//!   queue in `pass-core` is the one place they are shed: when the
//!   writer falls behind, the oldest commits are dropped there and the
//!   subscriber gets a `Lagged` frame counting the missed records.
//!   Ingest never blocks on a slow subscriber.

use crate::admission::AdmissionGate;
use crate::frame::{encode_msg, FrameDecoder};
use crate::stats::ServerStats;
use pass_core::{Event, Pass, Subscription};
use pass_distrib::wire::WireMsg;
use pass_model::codec::Reader;
use pass_model::TupleSetId;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::task::{Wake, Waker};
use std::time::{Duration, Instant};

/// Send-queue capacity in frames.
pub(crate) const SEND_QUEUE_FRAMES: usize = 512;
/// Send-queue capacity in bytes (whichever bound hits first).
pub(crate) const SEND_QUEUE_BYTES: usize = 8 << 20;
/// Socket read timeout: the reader's drain-check cadence, and the bound
/// on how long a mid-frame stall can hold the thread.
pub(crate) const READ_TIMEOUT: Duration = Duration::from_millis(50);
/// How long a reply may wait for send-queue space, and a socket write
/// for progress, before the connection is declared dead (the client is
/// not draining its socket).
pub const REPLY_STALL: Duration = Duration::from_secs(10);
/// Page size used when a `QueryPage` request asks for `limit = 0`.
const DEFAULT_PAGE: usize = 32;
/// Hard cap on a single result page.
const MAX_PAGE: usize = 4096;
/// Capacity (ids) of one `Notify` frame; matches are coalesced up to
/// this many per push.
const NOTIFY_BATCH: usize = 256;

/// One entry of the send queue.
enum Outbound {
    /// An encoded reply frame.
    Frame(Vec<u8>),
    /// A subscription for the writer to serve from here on.
    Subscribe(Box<SubPush>),
}

/// What the writer does next.
enum Next {
    Item(Outbound),
    /// Nothing queued: step the subscriptions.
    Serve,
    /// Closed and drained: end every subscription, then send the
    /// farewell frame, if any.
    Closed(Option<Vec<u8>>),
}

#[derive(Default)]
struct QueueInner {
    items: VecDeque<Outbound>,
    bytes: usize,
    /// A subscription has news the writer has not looked at.
    woken: bool,
    closed: bool,
    /// The connection's last frame, sent after every `SubClosed`.
    farewell: Option<Vec<u8>>,
}

/// Bounded queue between the reader and the writer. It holds replies
/// and subscription hand-offs; pushes never enter it.
pub(crate) struct SendQueue {
    /// Lock order: leaf — nothing else is acquired while this is held.
    /// The waker ([`Wake`] below) takes it on the commit path, under
    /// `publish_order` and the subscriber registry, so no subscription
    /// is ever polled, handed off or dropped while it is held.
    sendq: Mutex<QueueInner>,
    space: Condvar,
    ready: Condvar,
    cap_frames: usize,
    cap_bytes: usize,
}

impl SendQueue {
    pub(crate) fn new(cap_frames: usize, cap_bytes: usize) -> Arc<Self> {
        Arc::new(SendQueue {
            sendq: Mutex::new(QueueInner::default()),
            space: Condvar::new(),
            ready: Condvar::new(),
            cap_frames,
            cap_bytes,
        })
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, QueueInner> {
        self.sendq.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Entries currently queued (the admission gate's queue-depth input).
    pub(crate) fn depth(&self) -> usize {
        self.locked().items.len()
    }

    /// Enqueues `item`, waiting up to `stall` for space. `Err` means the
    /// connection is closed or the client stalled too long.
    fn push(&self, item: Outbound, stall: Duration) -> Result<(), ()> {
        let deadline = Instant::now() + stall;
        let mut inner = self.locked();
        loop {
            if !inner.closed && inner.items.len() < self.cap_frames && inner.bytes < self.cap_bytes
            {
                if let Outbound::Frame(frame) = &item {
                    inner.bytes += frame.len();
                }
                inner.items.push_back(item);
                self.ready.notify_one();
                return Ok(());
            }
            let now = Instant::now();
            if inner.closed || now >= deadline {
                // A refused subscription unregisters when dropped, which
                // takes the subscriber lock: release `sendq` first.
                drop(inner);
                drop(item);
                return Err(());
            }
            let (guard, _timeout) = self
                .space
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
    }

    /// Marks the queue closed, with `farewell` as the connection's last
    /// frame. Already-queued entries are still served by the writer;
    /// producers fail from now on. Only the first close counts.
    pub(crate) fn close(&self, farewell: Option<Vec<u8>>) {
        let mut inner = self.locked();
        if !inner.closed {
            inner.closed = true;
            inner.farewell = farewell;
        }
        self.ready.notify_all();
        self.space.notify_all();
    }

    /// Writer-side dequeue. Queued entries come first. With none, it
    /// returns [`Next::Serve`] at once when `serve` is set (a
    /// subscription may have more to send) or a subscription woke the
    /// writer, and otherwise sleeps until one of those happens.
    fn next(&self, serve: bool) -> Next {
        let mut inner = self.locked();
        loop {
            if let Some(item) = inner.items.pop_front() {
                if let Outbound::Frame(frame) = &item {
                    inner.bytes -= frame.len();
                }
                self.space.notify_all();
                return Next::Item(item);
            }
            if inner.closed {
                return Next::Closed(inner.farewell.take());
            }
            if std::mem::take(&mut inner.woken) || serve {
                return Next::Serve;
            }
            inner = self.ready.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Set on each subscription the writer serves: a commit that reaches it
/// wakes the writer. Takes only `sendq`.
impl Wake for SendQueue {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.locked().woken = true;
        self.ready.notify_one();
    }
}

/// One subscription served by a connection's writer.
struct SubPush {
    /// The `Subscribe` request's op, which tags every push.
    op: u64,
    sub: Subscription,
    /// An event read while coalescing that opens the next frame.
    held: Option<Event>,
}

impl SubPush {
    /// The subscription's next push frame, or `None` when it has
    /// nothing to send now. Consecutive matches coalesce into one
    /// `Notify` of at most [`NOTIFY_BATCH`] ids; a `CaughtUp` or
    /// `Lagged` event ends the batch and becomes the next frame, so
    /// every frame keeps its position in the stream.
    fn step(&mut self) -> Option<WireMsg> {
        let op = self.op;
        let first = self.held.take().or_else(|| self.sub.try_next())?;
        Some(match first {
            Event::CaughtUp { version } => WireMsg::SubCaughtUp { op, version },
            Event::Lagged(missed) => WireMsg::Lagged { op, missed },
            Event::Match(record) => {
                let mut ids = vec![record.id];
                while ids.len() < NOTIFY_BATCH {
                    match self.sub.try_next() {
                        Some(Event::Match(r)) => ids.push(r.id),
                        other => {
                            self.held = other;
                            break;
                        }
                    }
                }
                WireMsg::Notify { op, ids }
            }
        })
    }
}

/// State shared between one connection's threads.
pub(crate) struct ConnShared {
    pub(crate) sendq: Arc<SendQueue>,
    /// Set once the reader has exited (registry reaping).
    pub(crate) done: AtomicBool,
}

/// Everything a connection needs from the server.
pub(crate) struct ServerCtx {
    pub(crate) pass: Arc<Pass>,
    pub(crate) stats: Arc<ServerStats>,
    pub(crate) gate: Arc<AdmissionGate>,
    pub(crate) draining: Arc<AtomicBool>,
}

/// The reader thread body: frame decode loop + inline dispatch.
pub(crate) fn reader_loop(mut stream: TcpStream, conn: Arc<ConnShared>, ctx: Arc<ServerCtx>) {
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; 16 << 10];
    // The connection's last frame, when one is owed: `Goodbye` on drain,
    // an `Error` naming a framing fault. A peer that left or a dead send
    // queue is owed nothing.
    let mut farewell = None;

    'conn: loop {
        if ctx.draining.load(Ordering::Acquire) {
            farewell = Some(encode_msg(&WireMsg::Goodbye { op: 0 }));
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                // Clean EOF between frames, torn frame inside one. A
                // torn frame is a protocol error, but the peer is gone:
                // there is nobody left to send it to, so it only ends
                // the connection (never panics, never hangs — the read
                // timeout bounds every wait).
                break;
            }
            Ok(n) => {
                ServerStats::add(&ctx.stats.bytes_in, n as u64);
                dec.extend(buf.get(..n).unwrap_or_default());
                loop {
                    match dec.next_frame() {
                        Ok(Some(frame)) => {
                            if dispatch(&frame.kind, &frame.payload, &conn, &ctx).is_err() {
                                break 'conn;
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            // Framing is unrecoverable: the stream can
                            // no longer be trusted. Tell the client why
                            // and drop the connection.
                            farewell =
                                Some(encode_msg(&WireMsg::Error { op: 0, message: e.to_string() }));
                            break 'conn;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }

    // Teardown: the writer sends what is queued, a `SubClosed` for each
    // subscription, then the farewell, and exits.
    conn.sendq.close(farewell);
    if let Err(_e) = stream.shutdown(Shutdown::Read) {
        // Peer already gone; the writer half closes the rest.
    }
    ServerStats::drop_gauge(&ctx.stats.conns_active);
    conn.done.store(true, Ordering::Release);
}

/// The writer thread body: sends replies, serves subscriptions, owns
/// all socket writes.
pub(crate) fn writer_loop(mut stream: TcpStream, sendq: Arc<SendQueue>, stats: Arc<ServerStats>) {
    let mut subs = Vec::new();
    if let Err(_e) = write_until_closed(&mut stream, &sendq, &stats, &mut subs) {
        // Peer unreachable, or stuck past REPLY_STALL: close the queue
        // so the reader fails fast instead of queueing into the void.
        sendq.close(None);
        // Take what is still queued, so no handed-off subscription is
        // dropped along with the queue (possibly under the registry lock).
        while let Next::Item(_) = sendq.next(false) {}
    }
    // Dropping a subscription takes the subscriber lock: done here,
    // with `sendq` not held.
    drop(subs);
    if let Err(_e) = stream.shutdown(Shutdown::Write) {
        // Already closed by the peer or the reader half.
    }
}

fn write_until_closed(
    stream: &mut TcpStream,
    sendq: &Arc<SendQueue>,
    stats: &ServerStats,
    subs: &mut Vec<SubPush>,
) -> std::io::Result<()> {
    let waker = Waker::from(Arc::clone(sendq));
    let mut send = |frame: &[u8]| -> std::io::Result<()> {
        write_frame(stream, frame)?;
        ServerStats::add(&stats.bytes_out, frame.len() as u64);
        Ok(())
    };
    // Whether a subscription may have more to send without a new wake.
    let mut serve = false;
    loop {
        match sendq.next(serve) {
            Next::Item(Outbound::Frame(frame)) => send(&frame)?,
            Next::Item(Outbound::Subscribe(mut sub)) => {
                sub.sub.set_waker(waker.clone());
                subs.push(*sub);
                serve = true;
            }
            Next::Serve => {
                serve = false;
                for sub in subs.iter_mut() {
                    let Some(msg) = sub.step() else { continue };
                    if let WireMsg::Lagged { missed, .. } = msg {
                        ServerStats::add(&stats.queue_shed, missed);
                    }
                    send(&encode_msg(&msg))?;
                    serve = true;
                }
            }
            Next::Closed(farewell) => {
                // Terminal frames: subscribers can rely on SubClosed (or
                // the connection-level Goodbye) ending every stream.
                for sub in subs.iter() {
                    send(&encode_msg(&WireMsg::SubClosed { op: sub.op }))?;
                }
                if let Some(frame) = farewell {
                    send(&frame)?;
                }
                return Ok(());
            }
        }
    }
}

/// Writes one whole frame, or fails once [`REPLY_STALL`] has passed
/// without it going out. The socket's write timeout (also `REPLY_STALL`)
/// bounds each blocked `write`; the deadline bounds a frame that
/// trickles out in parts.
fn write_frame(stream: &mut TcpStream, mut frame: &[u8]) -> std::io::Result<()> {
    let deadline = Instant::now() + REPLY_STALL;
    while !frame.is_empty() {
        match stream.write(frame) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => frame = frame.get(n..).unwrap_or_default(),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        if !frame.is_empty() && Instant::now() >= deadline {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
    }
    Ok(())
}

/// Handles one decoded frame on the reader thread. `Err(())` means the
/// connection is dead (send queue closed or reply stalled out).
fn dispatch(
    kind: &u8,
    payload: &[u8],
    conn: &Arc<ConnShared>,
    ctx: &Arc<ServerCtx>,
) -> Result<(), ()> {
    let reply = |msg: &WireMsg| conn.sendq.push(Outbound::Frame(encode_msg(msg)), REPLY_STALL);

    // Peek the op (always the body's first varint) so sheds and decode
    // errors can name the operation without decoding the whole body.
    let op = {
        let mut r = Reader::new(payload);
        match r.take_varint("wire op") {
            Ok(op) => op,
            Err(e) => return reply(&WireMsg::Error { op: 0, message: e.to_string() }),
        }
    };

    // Admission control, before the batch is even decoded: shedding
    // must stay cheap when the server is busiest.
    if *kind == 0x01 {
        let permit = ctx.gate.try_admit(payload.len() as u64, conn.sendq.depth());
        let Some(_permit) = permit else {
            ServerStats::bump(&ctx.stats.publishes_rejected);
            return reply(&WireMsg::Overloaded { op });
        };
        let msg = match WireMsg::decode_body(*kind, payload) {
            Ok(msg) => msg,
            Err(e) => return reply(&WireMsg::Error { op, message: e.to_string() }),
        };
        let WireMsg::Publish { op, sets } = msg else {
            return reply(&WireMsg::Error { op, message: "kind/body mismatch".into() });
        };
        return match ctx.pass.ingest_batch(&sets) {
            Ok(ids) => {
                ServerStats::bump(&ctx.stats.publishes_ok);
                ServerStats::add(&ctx.stats.records_ingested, sets.len() as u64);
                reply(&WireMsg::PublishOk { op, ids })
            }
            Err(e) => reply(&WireMsg::Error { op, message: e.to_string() }),
        };
    }

    let msg = match WireMsg::decode_body(*kind, payload) {
        Ok(msg) => msg,
        Err(e) => return reply(&WireMsg::Error { op, message: e.to_string() }),
    };
    match msg {
        WireMsg::QueryPage { op, query, after, limit } => {
            ServerStats::bump(&ctx.stats.queries);
            let page = match limit as usize {
                0 => DEFAULT_PAGE,
                n => n.min(MAX_PAGE),
            };
            let mut parsed = match pass_query::parse(&query) {
                Ok(q) => q,
                Err(e) => return reply(&WireMsg::Error { op, message: e.to_string() }),
            };
            parsed.limit = Some(page);
            if after.is_some() {
                parsed.after = after;
            }
            match ctx.pass.query(&parsed) {
                Ok(result) => {
                    let ids: Vec<TupleSetId> = result.ids();
                    let done = ids.len() < page;
                    reply(&WireMsg::ResultPage { op, ids, done })
                }
                Err(e) => reply(&WireMsg::Error { op, message: e.to_string() }),
            }
        }
        WireMsg::Subscribe { op, statement } => match ctx.pass.subscribe_text(&statement) {
            Ok(sub) => {
                ServerStats::bump(&ctx.stats.subscriptions);
                conn.sendq.push(
                    Outbound::Subscribe(Box::new(SubPush { op, sub, held: None })),
                    REPLY_STALL,
                )
            }
            Err(e) => reply(&WireMsg::Error { op, message: e.to_string() }),
        },
        WireMsg::Stats { op } => reply(&WireMsg::StatsReply { op, stats: ctx.stats.snapshot() }),
        other => reply(&WireMsg::Error {
            op: other.op(),
            message: format!("kind 0x{:02x} is not a request", other.kind()),
        }),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use pass_model::SiteId;

    const SHORT: Duration = Duration::from_millis(30);

    #[test]
    fn send_queue_blocks_replies_until_space() {
        let q = SendQueue::new(2, 1 << 20);
        assert!(q.push(Outbound::Frame(vec![1]), SHORT).is_ok());
        assert!(q.push(Outbound::Frame(vec![2]), SHORT).is_ok());
        // A reply waits for space and times out when nobody drains.
        assert!(q.push(Outbound::Frame(vec![3]), SHORT).is_err());
        // Drain one; a reply fits again.
        assert!(matches!(q.next(false), Next::Item(Outbound::Frame(f)) if f == [1]));
        assert!(q.push(Outbound::Frame(vec![4]), SHORT).is_ok());
    }

    #[test]
    fn closed_queue_fails_producers_and_drains_consumers() {
        let q = SendQueue::new(8, 1 << 20);
        assert!(q.push(Outbound::Frame(vec![1]), SHORT).is_ok());
        q.close(Some(vec![9]));
        q.close(None); // only the first close sets the farewell
        assert!(q.push(Outbound::Frame(vec![3]), SHORT).is_err());
        assert!(matches!(q.next(false), Next::Item(Outbound::Frame(f)) if f == [1]));
        assert!(matches!(q.next(false), Next::Closed(Some(f)) if f == [9]));
    }

    #[test]
    fn byte_cap_bounds_queue() {
        let q = SendQueue::new(100, 10);
        assert!(q.push(Outbound::Frame(vec![0; 10]), SHORT).is_ok());
        assert!(q.push(Outbound::Frame(vec![0; 1]), SHORT).is_err());
    }

    #[test]
    fn wake_hands_the_writer_a_serve_turn() {
        let q = SendQueue::new(8, 1 << 20);
        Waker::from(Arc::clone(&q)).wake();
        assert!(q.push(Outbound::Frame(vec![1]), SHORT).is_ok());
        // Replies go first, then the woken subscriptions get their turn.
        assert!(matches!(q.next(false), Next::Item(_)));
        assert!(matches!(q.next(false), Next::Serve));
        q.close(None);
        assert!(matches!(q.next(false), Next::Closed(None)));
    }

    fn subscribe(pass: &Pass, capacity: usize) -> SubPush {
        let statement = pass_query::parse_subscribe(r#"SUBSCRIBE FIND WHERE domain = "loadgen""#)
            .expect("statement");
        let sub = pass.subscribe_with(&statement.query, capacity).expect("subscribe");
        SubPush { op: 7, sub, held: None }
    }

    #[test]
    fn step_reports_the_core_queues_lag_then_the_survivor() {
        let pass = Pass::open_memory(SiteId(1));
        let mut push = subscribe(&pass, 1);
        assert!(matches!(push.step(), Some(WireMsg::SubCaughtUp { op: 7, .. })));
        // Five single-batch commits into a one-commit queue: the first
        // four are dropped in the core channel, the fifth survives.
        let mut last = Vec::new();
        for seq in 0..5 {
            last = pass.ingest_batch(&pass_loadgen::workload::batch(1, seq, 2, 2)).expect("commit");
        }
        assert_eq!(push.step(), Some(WireMsg::Lagged { op: 7, missed: 8 }));
        assert_eq!(push.step(), Some(WireMsg::Notify { op: 7, ids: last }));
        assert_eq!(push.step(), None);
    }

    #[test]
    fn step_coalesces_matches_and_keeps_the_marker_in_place() {
        let pass = Pass::open_memory(SiteId(1));
        let ids = pass.ingest_batch(&pass_loadgen::workload::batch(1, 0, 300, 1)).expect("commit");
        let mut push = subscribe(&pass, 4);
        let mut notified = Vec::new();
        for expect in [NOTIFY_BATCH, 300 - NOTIFY_BATCH] {
            match push.step() {
                Some(WireMsg::Notify { op: 7, ids }) => {
                    assert_eq!(ids.len(), expect);
                    notified.extend(ids);
                }
                other => panic!("expected a catch-up Notify, got {other:?}"),
            }
        }
        assert!(matches!(push.step(), Some(WireMsg::SubCaughtUp { op: 7, .. })));
        assert_eq!(push.step(), None);
        let (mut got, mut want) = (notified, ids);
        got.sort();
        want.sort();
        assert_eq!(got, want, "catch-up notifies every committed id once");
    }
}
