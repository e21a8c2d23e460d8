//! Interleaving-exploration model of the sharded commit + publish +
//! subscribe handoff, built with a vendored loom-compatible shim
//! (`vendor/loom`). The model mirrors the protocol in
//! `Pass::group_commit` / `Pass::commit` / `shard::lock_many` rather
//! than driving the real `Pass` (whose internals use `std`/`parking_lot`
//! primitives the shim cannot instrument):
//!
//!   1. take per-shard commit locks in ascending shard order,
//!   2. apply the batch to every locked shard,
//!   3. inside the `publish_order` critical section, assign the next
//!      commit version and hand the event to subscribers,
//!   4. release in reverse order.
//!
//! Checked properties:
//!   * subscribers observe commit versions with no gap and no duplicate,
//!   * a version is never published before its batch is applied,
//!   * ascending lock order keeps concurrent single- and cross-shard
//!     writers deadlock-free (the shim's watchdog aborts stuck runs).
//!
//! Build with `RUSTFLAGS="--cfg loom" cargo test -p pass-core --test
//! loom_commit`; the file compiles to nothing otherwise.

#![cfg(loom)]
#![allow(clippy::unwrap_used, clippy::expect_used)] // test code asserts by panicking

use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use loom::thread;

/// What a shard commit lock protects in the model: the set of commit
/// versions whose batches have been applied to this shard.
type ShardState = Vec<u64>;

struct Model {
    /// Per-shard commit locks, to be taken in ascending index order only.
    shards: Vec<Mutex<ShardState>>,
    /// Serializes version assignment + subscriber handoff (the real
    /// `publish_order` mutex).
    publish_order: Mutex<()>,
    /// Last published commit version.
    published: AtomicU64,
    /// Subscriber mailbox: (version, shards the batch touched).
    events: Mutex<Vec<(u64, Vec<usize>)>>,
    events_ready: Condvar,
}

impl Model {
    fn new(nshards: usize) -> Self {
        Model {
            shards: (0..nshards).map(|_| Mutex::new(Vec::new())).collect(),
            publish_order: Mutex::new(()),
            published: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
            events_ready: Condvar::new(),
        }
    }

    /// One commit: lock `targets` (must be sorted ascending), apply,
    /// publish. Mirrors `group_commit`'s lock chain.
    fn commit(&self, targets: &[usize]) {
        debug_assert!(targets.windows(2).all(|w| w[0] < w[1]), "ascending lock order");
        let mut guards = Vec::with_capacity(targets.len());
        for &s in targets {
            guards.push(self.shards[s].lock().unwrap());
        }
        // Publish under `publish_order`, while still holding the shard
        // locks — exactly the real protocol's nesting.
        {
            let _order = self.publish_order.lock().unwrap();
            let version = self.published.load(Ordering::SeqCst) + 1;
            for guard in &mut guards {
                guard.push(version);
            }
            let mut events = self.events.lock().unwrap();
            events.push((version, targets.to_vec()));
            self.published.store(version, Ordering::SeqCst);
            self.events_ready.notify_all();
        }
        drop(guards);
    }

    /// Blocks until `expected` events have been delivered, then returns
    /// them in arrival order.
    fn drain(&self, expected: usize) -> Vec<(u64, Vec<usize>)> {
        let mut events = self.events.lock().unwrap();
        while events.len() < expected {
            events = self.events_ready.wait(events).unwrap();
        }
        events.clone()
    }
}

#[test]
fn two_shard_commit_publish_subscribe_handoff() {
    loom::model(|| {
        let model = Arc::new(Model::new(2));

        let writers: Vec<_> = [vec![0usize], vec![1], vec![0, 1]]
            .into_iter()
            .map(|targets| {
                let m = Arc::clone(&model);
                thread::spawn(move || m.commit(&targets))
            })
            .collect();

        let subscriber = {
            let m = Arc::clone(&model);
            thread::spawn(move || m.drain(3))
        };

        for w in writers {
            w.join().unwrap();
        }
        let events = subscriber.join().unwrap();

        // No gap, no duplicate: versions arrive as exactly 1, 2, 3.
        let versions: Vec<u64> = events.iter().map(|(v, _)| *v).collect();
        assert_eq!(versions, vec![1, 2, 3], "publish order must be gap- and dup-free");
        assert_eq!(model.published.load(Ordering::SeqCst), 3);

        // Apply-before-publish: every published version is present in the
        // state of every shard its batch targeted.
        for (version, targets) in &events {
            for &s in targets {
                let state = model.shards[s].lock().unwrap();
                assert!(
                    state.contains(version),
                    "version {version} published but not applied to shard {s}"
                );
            }
        }

        // Per-shard apply order matches publish order (commit locks are
        // held across publish, so versions are ascending per shard).
        for (s, shard) in model.shards.iter().enumerate() {
            let state = shard.lock().unwrap();
            assert!(
                state.windows(2).all(|w| w[0] < w[1]),
                "shard {s} applied versions out of publish order: {state:?}"
            );
        }
    });
}

#[test]
fn cross_shard_writers_do_not_deadlock() {
    // Two cross-shard writers contending for the same pair of locks plus
    // a single-shard writer in the middle. With ascending acquisition the
    // shim's watchdog never fires; a descending acquisition in one writer
    // would abort the test via the deadlock detector.
    loom::model(|| {
        let model = Arc::new(Model::new(3));
        let handles: Vec<_> = [vec![0usize, 2], vec![1], vec![0, 1, 2], vec![0, 2]]
            .into_iter()
            .map(|targets| {
                let m = Arc::clone(&model);
                thread::spawn(move || m.commit(&targets))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let events = model.drain(4);
        let mut versions: Vec<u64> = events.iter().map(|(v, _)| *v).collect();
        versions.sort_unstable();
        assert_eq!(versions, vec![1, 2, 3, 4]);
    });
}
