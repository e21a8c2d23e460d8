//! The background maintenance worker: a dedicated thread per
//! [`LsmEngine`] that runs compaction between commits.
//!
//! Writers never compact — a flush commits its new manifest, pokes the
//! attached worker's [`Signal`], and returns. The worker drains the
//! compaction picker (possibly several merges back-to-back), then parks
//! until the next flush or periodic tick. A tick exists so a picker
//! drain cut short by an error is retried without waiting for a flush.
//!
//! Shutdown contract: dropping the [`MaintenanceHandle`] (or calling
//! [`MaintenanceHandle::shutdown`]) sets the shutdown flag, wakes the
//! thread, joins it, and detaches the engine's flush listener — after
//! which flushes signal nobody and the engine stops compacting until a
//! new worker attaches. In-flight merges finish; nothing is interrupted
//! mid-edit, so the manifest never sees a half-committed transition.
//!
//! [`spawn_task_worker`] reuses the same thread/signal/shutdown shape
//! for non-engine jobs (pass-core schedules cold-record aging with it).

use crate::engine::LsmEngine;
use crate::error::StorageError;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Wake-up latch between flush paths and the worker thread.
///
/// Built on `std::sync` (the vendored `parking_lot` shim has no
/// condvar); poisoning is swallowed to match the shim's semantics.
pub struct Signal {
    state: std::sync::Mutex<SignalState>,
    cv: Condvar,
}

#[derive(Default)]
struct SignalState {
    pending: bool,
    shutdown: bool,
}

impl std::fmt::Debug for Signal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Signal").finish_non_exhaustive()
    }
}

enum Wake {
    /// Work was signalled.
    Work,
    /// The timeout elapsed.
    Tick,
    /// Shutdown requested.
    Shutdown,
}

impl Signal {
    fn new() -> Arc<Signal> {
        Arc::new(Signal {
            state: std::sync::Mutex::new(SignalState::default()),
            cv: Condvar::new(),
        })
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, SignalState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Marks work pending and wakes the worker. Cheap, lock-held for a
    /// few instructions; safe to call from flush paths.
    pub fn notify(&self) {
        self.lock_state().pending = true;
        self.cv.notify_one();
    }

    fn shutdown(&self) {
        self.lock_state().shutdown = true;
        self.cv.notify_one();
    }

    /// Parks up to `timeout`; consumes the pending flag.
    fn wait(&self, timeout: Duration) -> Wake {
        let mut st = self.lock_state();
        if !st.shutdown && !st.pending {
            let (guard, _timed_out) =
                self.cv.wait_timeout(st, timeout).unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
        if st.shutdown {
            return Wake::Shutdown;
        }
        if st.pending {
            st.pending = false;
            return Wake::Work;
        }
        Wake::Tick
    }
}

/// Options for [`spawn_engine_worker`].
#[derive(Debug, Clone)]
pub struct MaintenanceOptions {
    /// Periodic wake-up interval (work is also signalled by flushes).
    pub tick: Duration,
    /// Inert: `None` is the only value this type admits. Compaction
    /// consults no reader state; the field stays only so that callers
    /// built against the old reader-floor callback
    /// (`MaintenanceOptions { tick, pin_floor: None }`) still compile.
    pub pin_floor: Option<std::convert::Infallible>,
}

impl Default for MaintenanceOptions {
    fn default() -> Self {
        MaintenanceOptions { tick: Duration::from_millis(250), pin_floor: None }
    }
}

/// Owns a maintenance thread; dropping it shuts the thread down cleanly.
pub struct MaintenanceHandle {
    signal: Arc<Signal>,
    thread: Option<JoinHandle<()>>,
    // `Sync` so structs embedding a handle stay shareable across threads.
    detach: Option<Box<dyn FnOnce() + Send + Sync>>,
    errors: Arc<AtomicU64>,
    last_error: Arc<Mutex<Option<String>>>,
}

impl std::fmt::Debug for MaintenanceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaintenanceHandle").field("errors", &self.errors()).finish()
    }
}

impl MaintenanceHandle {
    /// Nudges the worker outside its tick (tests, manual triggers).
    pub fn wake(&self) {
        self.signal.notify();
    }

    /// Background errors recorded so far (each also remembered in
    /// [`Self::last_error`]). Maintenance failure never fails a commit;
    /// callers poll this to surface trouble.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Human-readable text of the most recent background error.
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().clone()
    }

    /// Stops the worker and joins it (also what `Drop` does).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.signal.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        if let Some(detach) = self.detach.take() {
            detach();
        }
    }
}

impl Drop for MaintenanceHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Spawns the compaction worker for `engine` and attaches it as the
/// engine's flush listener. If the thread cannot be spawned, nothing is
/// attached (a flush must not signal a worker that does not exist) and
/// the failure is recorded in [`MaintenanceHandle::errors`].
///
/// Lock order: the worker thread only calls [`LsmEngine::maybe_compact`],
/// which takes the engine's compaction mutex and then its state lock in
/// short critical sections; no other lock is held across a merge.
pub fn spawn_engine_worker(engine: Arc<LsmEngine>, opts: MaintenanceOptions) -> MaintenanceHandle {
    let signal = Signal::new();
    let errors = Arc::new(AtomicU64::new(0));
    let last_error = Arc::new(Mutex::new(None));

    let thread = {
        let signal = Arc::clone(&signal);
        let errors = Arc::clone(&errors);
        let last_error = Arc::clone(&last_error);
        let engine = Arc::clone(&engine);
        std::thread::Builder::new().name("pass-maintenance".into()).spawn(move || loop {
            if let Wake::Shutdown = signal.wait(opts.tick) {
                return;
            }
            // Drain the picker: one wake-up may owe several merges.
            loop {
                match engine.maybe_compact() {
                    Ok(true) => continue,
                    Ok(false) => break,
                    Err(e) => {
                        record_error(&errors, &last_error, &e);
                        break;
                    }
                }
            }
        })
    };

    let thread = match thread {
        Ok(thread) => thread,
        Err(e) => {
            let e = StorageError::io("spawning the maintenance worker", e);
            record_error(&errors, &last_error, &e);
            return MaintenanceHandle { signal, thread: None, detach: None, errors, last_error };
        }
    };
    engine.set_flush_signal(Some(Arc::clone(&signal)));
    let detach: Box<dyn FnOnce() + Send + Sync> = Box::new(move || engine.set_flush_signal(None));
    MaintenanceHandle { signal, thread: Some(thread), detach: Some(detach), errors, last_error }
}

/// Spawns a generic periodic worker running `task` once per tick (or
/// sooner when [`MaintenanceHandle::wake`] is called). The task should
/// swallow its own errors or report them via `record`-style side
/// channels; a panic kills only the worker thread.
pub fn spawn_task_worker(
    name: &str,
    tick: Duration,
    mut task: impl FnMut() + Send + 'static,
) -> MaintenanceHandle {
    let signal = Signal::new();
    let thread = {
        let signal = Arc::clone(&signal);
        std::thread::Builder::new().name(name.to_string()).spawn(move || loop {
            if let Wake::Shutdown = signal.wait(tick) {
                return;
            }
            task();
        })
    };
    MaintenanceHandle {
        signal,
        thread: thread.ok(),
        detach: None,
        errors: Arc::new(AtomicU64::new(0)),
        last_error: Arc::new(Mutex::new(None)),
    }
}

fn record_error(errors: &AtomicU64, last: &Mutex<Option<String>>, e: &StorageError) {
    errors.fetch_add(1, Ordering::Relaxed);
    *last.lock() = Some(e.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn task_worker_runs_on_wake_and_stops_on_drop() {
        let runs = Arc::new(AtomicUsize::new(0));
        let handle = {
            let runs = Arc::clone(&runs);
            spawn_task_worker("test-task", Duration::from_secs(3600), move || {
                runs.fetch_add(1, Ordering::SeqCst);
            })
        };
        handle.wake();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while runs.load(Ordering::SeqCst) == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(runs.load(Ordering::SeqCst) >= 1, "woken task ran");
        drop(handle); // joins — must not hang
        let after = runs.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(runs.load(Ordering::SeqCst), after, "no runs after shutdown");
    }

    #[test]
    fn ticks_fire_without_wakes() {
        let runs = Arc::new(AtomicUsize::new(0));
        let _handle = {
            let runs = Arc::clone(&runs);
            spawn_task_worker("test-tick", Duration::from_millis(10), move || {
                runs.fetch_add(1, Ordering::SeqCst);
            })
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while runs.load(Ordering::SeqCst) < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(runs.load(Ordering::SeqCst) >= 3, "periodic ticks drove the task");
    }
}
