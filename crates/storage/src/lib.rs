//! # pass-storage — the embedded storage engine under PASS
//!
//! A log-structured key-value engine built for the PASS reproduction:
//! the offline dependency set has no storage crate, and owning the engine
//! gives the reliability experiments (E10) real fault-injection surfaces —
//! torn WAL tails, orphaned SSTables, corrupt blocks — instead of mocks.
//!
//! Shape: WAL ([`wal`]) → memtable ([`memtable`]) → SSTables ([`sstable`])
//! with bloom filters ([`bloom`]), tiered compaction ([`compaction`])
//! driven by a background maintenance worker ([`maintenance`]), a
//! crash-safe manifest ([`manifest`]), one file replaced atomically on
//! every edit, owning the live table set, and a sharded block cache
//! ([`cache`]) on the read path.
//! Everything is CRC-32C checksummed ([`crc`]).
//!
//! Two backends implement the [`KvStore`] trait:
//! [`LsmEngine`] (durable) and [`MemEngine`] (volatile, for simulations
//! that instantiate hundreds of stores).
//!
//! ```
//! use pass_storage::{KvStore, LsmEngine, tempdir::TempDir};
//!
//! let dir = TempDir::new("doc");
//! let db = LsmEngine::open_default(dir.path()).unwrap();
//! db.put(b"tuple-set/42", b"encoded record").unwrap();
//! assert_eq!(db.get(b"tuple-set/42").unwrap().as_deref(), Some(&b"encoded record"[..]));
//! ```

// Unit-test modules assert by panicking; the panic lints cover only
// the shipped library code.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod bloom;
pub mod cache;
pub mod compaction;
pub mod crc;
pub mod engine;
pub mod error;
pub mod iter;
pub mod kv;
pub mod maintenance;
pub mod manifest;
pub mod mem;
pub mod memtable;
pub mod sharded;
pub mod sstable;
pub mod tempdir;
pub mod wal;

pub use batch::{Op, WriteBatch};
pub use cache::{BlockCache, CacheStats};
pub use compaction::{Pick, PickReason, TableInfo};
pub use engine::{EngineOptions, EngineStats, LsmEngine};
pub use error::{Result, StorageError};
pub use kv::{prefix_successor, KvStore};
pub use maintenance::{
    spawn_engine_worker, spawn_task_worker, MaintenanceHandle, MaintenanceOptions, Signal,
};
pub use mem::MemEngine;
pub use sharded::{ShardRouter, ShardedStore};
pub use wal::SyncPolicy;

/// Maximum key length accepted by engines (64 KiB).
pub const MAX_KEY_LEN: usize = 64 << 10;
/// Maximum value length accepted by engines (32 MiB).
pub const MAX_VALUE_LEN: usize = 32 << 20;
