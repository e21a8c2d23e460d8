//! The server proper: listener, accept loop, connection registry, and
//! the graceful drain.

use crate::admission::{AdmissionConfig, AdmissionGate};
use crate::conn::{
    reader_loop, writer_loop, ConnShared, SendQueue, ServerCtx, READ_TIMEOUT, REPLY_STALL,
    SEND_QUEUE_BYTES, SEND_QUEUE_FRAMES,
};
use crate::error::{Result, ServerError};
use crate::frame::encode_msg;
use crate::stats::ServerStats;
use pass_core::Pass;
use pass_distrib::wire::{StatsBody, WireMsg};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server-wide configuration. Per-connection sizes and timeouts are
/// constants in [`crate::conn`].
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Admission thresholds (connection cap, in-flight bytes).
    pub admission: AdmissionConfig,
}

struct ConnEntry {
    shared: Arc<ConnShared>,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

struct ServerShared {
    draining: Arc<AtomicBool>,
    conns: Mutex<Vec<ConnEntry>>,
    stats: Arc<ServerStats>,
    pass: Arc<Pass>,
}

/// A running server. Dropping the handle performs a graceful shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
}

/// Binds a listener and starts serving `pass`.
///
/// `addr` is any `ToSocketAddrs` (use `"127.0.0.1:0"` for an ephemeral
/// port; the bound address is available via [`ServerHandle::addr`]).
pub fn serve(
    addr: impl ToSocketAddrs,
    pass: Arc<Pass>,
    config: ServerConfig,
) -> Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let stats = Arc::new(ServerStats::new());
    let draining = Arc::new(AtomicBool::new(false));
    let gate = AdmissionGate::new(config.admission.clone());
    let shared = Arc::new(ServerShared {
        draining: Arc::clone(&draining),
        conns: Mutex::new(Vec::new()),
        stats: Arc::clone(&stats),
        pass: Arc::clone(&pass),
    });

    let ctx = Arc::new(ServerCtx {
        pass,
        stats: Arc::clone(&stats),
        gate,
        draining: Arc::clone(&draining),
    });

    let accept_shared = Arc::clone(&shared);
    let max_conns = config.admission.max_connections;
    let accept = std::thread::Builder::new()
        .name("pass-server-accept".into())
        .spawn(move || accept_loop(listener, accept_shared, ctx, max_conns))?;

    Ok(ServerHandle { addr, shared, accept: Some(accept) })
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<ServerShared>,
    ctx: Arc<ServerCtx>,
    max_conns: usize,
) {
    loop {
        if shared.draining.load(Ordering::Acquire) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                reap_finished(&shared);
                let active = shared.stats.conns_active.load(Ordering::Relaxed);
                if shared.draining.load(Ordering::Acquire) || active >= max_conns as u64 {
                    refuse(stream, &shared.stats);
                    continue;
                }
                if let Err(_e) = spawn_conn(stream, &shared, &ctx) {
                    // Socket configuration failed (peer likely already
                    // gone); nothing to serve.
                    ServerStats::bump(&shared.stats.conns_rejected);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
    // Listener drops here: further connects are refused by the OS.
}

/// Refuses a connection at accept time with a terminal Goodbye frame.
fn refuse(mut stream: TcpStream, stats: &Arc<ServerStats>) {
    ServerStats::bump(&stats.conns_rejected);
    let farewell = encode_msg(&WireMsg::Goodbye { op: 0 });
    if let Err(_e) = stream.write_all(&farewell) {
        // Best effort: the refusal itself is the close that follows.
    }
}

fn spawn_conn(stream: TcpStream, shared: &Arc<ServerShared>, ctx: &Arc<ServerCtx>) -> Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    // A client that stopped reading cannot hold the writer (or a drain).
    stream.set_write_timeout(Some(REPLY_STALL))?;
    let write_half = stream.try_clone()?;

    ServerStats::bump(&shared.stats.conns_accepted);
    ServerStats::bump(&shared.stats.conns_active);

    let sendq = SendQueue::new(SEND_QUEUE_FRAMES, SEND_QUEUE_BYTES);
    let conn = Arc::new(ConnShared { sendq: Arc::clone(&sendq), done: AtomicBool::new(false) });

    let reader_conn = Arc::clone(&conn);
    let reader_ctx = Arc::clone(ctx);
    let reader = std::thread::Builder::new()
        .name("pass-server-reader".into())
        .spawn(move || reader_loop(stream, reader_conn, reader_ctx))?;
    let writer_stats = Arc::clone(&shared.stats);
    let writer = std::thread::Builder::new()
        .name("pass-server-writer".into())
        .spawn(move || writer_loop(write_half, sendq, writer_stats))?;

    shared.conns.lock().unwrap_or_else(PoisonError::into_inner).push(ConnEntry {
        shared: conn,
        reader,
        writer,
    });
    Ok(())
}

/// Joins and removes connections whose reader has exited, so the
/// registry does not grow with connection churn.
fn reap_finished(shared: &Arc<ServerShared>) {
    let mut conns = shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
    let mut kept = Vec::with_capacity(conns.len());
    for entry in conns.drain(..) {
        if entry.shared.done.load(Ordering::Acquire) {
            let _joined = entry.reader.join();
            let _joined = entry.writer.join();
        } else {
            kept.push(entry);
        }
    }
    *conns = kept;
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral-port bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time counter snapshot (the in-process twin of the
    /// `Stats` request frame).
    pub fn stats(&self) -> StatsBody {
        self.shared.stats.snapshot()
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Graceful SIGTERM-style drain:
    ///
    /// 1. stop accepting (the listener closes; new connects are refused
    ///    by the OS, and racing accepts get a terminal `Goodbye`);
    /// 2. readers finish the request they are processing — in-flight
    ///    commits complete, nothing new is read;
    /// 3. each writer sends the replies already queued, a `SubClosed`
    ///    frame for every subscription it serves, and a terminal
    ///    `Goodbye`, then closes; a client that stopped reading holds its
    ///    writer for at most [`REPLY_STALL`] without progress;
    /// 4. the store's WALs are flushed to disk.
    ///
    /// Idempotent; returns once every connection thread has exited and
    /// the flush is durable.
    pub fn shutdown(mut self) -> Result<()> {
        self.drain_inner()
    }

    fn drain_inner(&mut self) -> Result<()> {
        self.shared.draining.store(true, Ordering::Release);
        if let Some(accept) = self.accept.take() {
            if accept.join().is_err() {
                return Err(ServerError::Closed);
            }
        }
        let entries: Vec<ConnEntry> = {
            let mut conns = self.shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
            conns.drain(..).collect()
        };
        for entry in entries {
            let _joined = entry.reader.join();
            let _joined = entry.writer.join();
        }
        self.shared.pass.flush()?;
        Ok(())
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            let _result = self.drain_inner();
        }
    }
}
