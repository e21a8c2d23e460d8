//! Admission control: shed load explicitly instead of queueing toward
//! collapse.
//!
//! An open-loop world does not slow down because the server is busy —
//! arrivals keep coming at the offered rate. A server without admission
//! control converts a transient overload into an unbounded queue: every
//! request still gets served, but the p99 grows without limit and the
//! process eventually dies of memory. This gate gives the server an
//! explicit answer instead: when the work it has already accepted (by
//! bytes in flight) or a connection's outbound backlog (by queued
//! frames) crosses a threshold, new publishes are *rejected* with an
//! [`Overloaded`](pass_distrib::wire::WireMsg::Overloaded) reply the
//! client can retry — bounded latency for the work that is admitted,
//! explicit shed for the work that is not.
//!
//! Two thresholds, both cheap to evaluate on the hot path:
//!
//! * **in-flight bytes** (global, settable): publish payload bytes
//!   admitted but not yet replied to, across all connections. Caps the
//!   commit work queued inside the store.
//! * **send-queue depth** (per connection, a constant): replies waiting
//!   for a slow reader. A client that does not drain its socket cannot
//!   pump more work in. Subscription pushes never enter the send queue,
//!   so a busy subscription does not count against its connection's
//!   publishes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-connection send-queue depth (entries) beyond which new publishes
/// on that connection are shed.
const MAX_QUEUED_FRAMES: usize = 256;

/// Admission thresholds. Defaults are sized for a small host; E24
/// documents measured behavior at the knee.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Connections accepted concurrently; further connects are refused
    /// with a `Goodbye` frame at accept time.
    pub max_connections: usize,
    /// Global cap on publish payload bytes admitted but not yet
    /// replied to.
    pub max_in_flight_bytes: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { max_connections: 256, max_in_flight_bytes: 32 << 20 }
    }
}

/// The shared gate: one per server.
#[derive(Debug)]
pub struct AdmissionGate {
    config: AdmissionConfig,
    in_flight_bytes: AtomicU64,
}

impl AdmissionGate {
    /// A gate enforcing `config`.
    pub fn new(config: AdmissionConfig) -> Arc<Self> {
        Arc::new(AdmissionGate { config, in_flight_bytes: AtomicU64::new(0) })
    }

    /// The thresholds in force.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Publish payload bytes currently admitted.
    pub fn in_flight_bytes(&self) -> u64 {
        self.in_flight_bytes.load(Ordering::Relaxed)
    }

    /// Tries to admit a publish of `bytes` payload bytes arriving on a
    /// connection whose send queue currently holds `queue_depth` frames.
    /// Returns a permit that releases the bytes on drop, or `None` when
    /// the request must be shed.
    ///
    /// The byte reservation is optimistic (`fetch_add` then check): two
    /// racing admits can transiently overshoot by one batch each, which
    /// is fine — the threshold is a shed point, not a hard memory bound.
    pub fn try_admit(self: &Arc<Self>, bytes: u64, queue_depth: usize) -> Option<AdmissionPermit> {
        if queue_depth > MAX_QUEUED_FRAMES {
            return None;
        }
        let before = self.in_flight_bytes.fetch_add(bytes, Ordering::Relaxed);
        if before.saturating_add(bytes) > self.config.max_in_flight_bytes {
            self.in_flight_bytes.fetch_sub(bytes, Ordering::Relaxed);
            return None;
        }
        Some(AdmissionPermit { gate: Arc::clone(self), bytes })
    }
}

/// RAII reservation of in-flight bytes; dropping it releases them.
#[derive(Debug)]
pub struct AdmissionPermit {
    gate: Arc<AdmissionGate>,
    bytes: u64,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        self.gate.in_flight_bytes.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn byte_threshold_sheds_and_releases() {
        let gate = AdmissionGate::new(AdmissionConfig {
            max_in_flight_bytes: 100,
            ..AdmissionConfig::default()
        });
        let a = gate.try_admit(60, 0).expect("first admit");
        assert!(gate.try_admit(60, 0).is_none(), "over byte budget");
        drop(a);
        assert_eq!(gate.in_flight_bytes(), 0);
        assert!(gate.try_admit(60, 0).is_some(), "released bytes admit again");
    }

    #[test]
    fn queue_depth_threshold_sheds() {
        let gate = AdmissionGate::new(AdmissionConfig::default());
        assert!(gate.try_admit(1, MAX_QUEUED_FRAMES).is_some());
        assert!(gate.try_admit(1, MAX_QUEUED_FRAMES + 1).is_none());
    }
}
