//! Configuration for a local PASS instance.

use pass_model::SiteId;
use pass_storage::EngineOptions;
use std::path::PathBuf;

/// Which storage backend holds records and readings.
#[derive(Debug, Clone, Default)]
pub enum Backend {
    /// Volatile in-memory store (simulations, tests).
    #[default]
    Memory,
    /// Durable log-structured engine rooted at a directory.
    /// [`crate::Pass::open`] attaches one background compaction worker
    /// per storage shard, which stops when the [`crate::Pass`] drops.
    Disk {
        /// Engine directory.
        dir: PathBuf,
        /// Engine tuning.
        options: EngineOptions,
    },
}

/// Configuration for [`crate::Pass::open`].
#[derive(Debug, Clone)]
pub struct PassConfig {
    /// This store's site identity (stamped on everything it captures;
    /// placement experiments key off it).
    pub site: SiteId,
    /// Storage backend.
    pub backend: Backend,
    /// Number of commit shards (keyspace partitions, each with its own
    /// commit lock — and, on disk, its own WAL and memtable). `1` (the
    /// default) is exactly the pre-sharding store: same single-WAL
    /// on-disk layout, byte for byte. For an existing on-disk store the
    /// persisted layout wins over this setting on reopen.
    pub shards: usize,
}

impl Default for PassConfig {
    fn default() -> Self {
        PassConfig { site: SiteId::default(), backend: Backend::default(), shards: 1 }
    }
}

impl PassConfig {
    /// In-memory store for a site.
    pub fn memory(site: SiteId) -> Self {
        PassConfig { site, ..PassConfig::default() }
    }

    /// Durable store for a site with default engine options.
    pub fn disk(site: SiteId, dir: impl Into<PathBuf>) -> Self {
        PassConfig {
            site,
            backend: Backend::Disk { dir: dir.into(), options: EngineOptions::default() },
            ..PassConfig::default()
        }
    }

    /// Overrides the commit shard count (`0` is treated as `1`).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }
}
