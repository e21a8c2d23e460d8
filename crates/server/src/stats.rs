//! Server-side counters, exposed via the `Stats` request frame.

use pass_distrib::wire::StatsBody;
use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free counter block shared by every connection thread. Snapshots
/// are taken relaxed — the numbers are monitoring data, not a commit
/// protocol — but each counter individually never goes backwards (except
/// `conns_active`, which is a gauge).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub conns_accepted: AtomicU64,
    /// Connections refused at accept time (cap reached or draining).
    pub conns_rejected: AtomicU64,
    /// Connections currently open (gauge).
    pub conns_active: AtomicU64,
    /// Publish batches committed.
    pub publishes_ok: AtomicU64,
    /// Publish batches shed by admission control.
    pub publishes_rejected: AtomicU64,
    /// Records committed (sum of accepted batch sizes).
    pub records_ingested: AtomicU64,
    /// Query pages served.
    pub queries: AtomicU64,
    /// Subscriptions opened.
    pub subscriptions: AtomicU64,
    /// Records reported missed in `Lagged` frames: commits a
    /// subscription's queue dropped because its consumer fell behind.
    pub queue_shed: AtomicU64,
    /// Frame bytes received (headers + payloads).
    pub bytes_in: AtomicU64,
    /// Frame bytes sent (headers + payloads).
    pub bytes_out: AtomicU64,
}

impl ServerStats {
    /// A fresh, zeroed counter block.
    pub fn new() -> Self {
        ServerStats::default()
    }

    /// Adds `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements a gauge by one (saturating at zero is the caller's
    /// responsibility: every decrement pairs with an earlier increment).
    pub fn drop_gauge(counter: &AtomicU64) {
        counter.fetch_sub(1, Ordering::Relaxed);
    }

    /// A point-in-time copy in the wire shape.
    pub fn snapshot(&self) -> StatsBody {
        StatsBody {
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_rejected: self.conns_rejected.load(Ordering::Relaxed),
            conns_active: self.conns_active.load(Ordering::Relaxed),
            publishes_ok: self.publishes_ok.load(Ordering::Relaxed),
            publishes_rejected: self.publishes_rejected.load(Ordering::Relaxed),
            records_ingested: self.records_ingested.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            subscriptions: self.subscriptions.load(Ordering::Relaxed),
            queue_shed: self.queue_shed.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let stats = ServerStats::new();
        ServerStats::bump(&stats.publishes_ok);
        ServerStats::add(&stats.records_ingested, 16);
        ServerStats::bump(&stats.conns_active);
        ServerStats::drop_gauge(&stats.conns_active);
        let snap = stats.snapshot();
        assert_eq!(snap.publishes_ok, 1);
        assert_eq!(snap.records_ingested, 16);
        assert_eq!(snap.conns_active, 0);
    }
}
