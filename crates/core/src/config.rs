//! Configuration for a local PASS instance.

use pass_model::SiteId;
use pass_storage::EngineOptions;
use std::path::PathBuf;
use std::time::Duration;

/// Which storage backend holds records and readings.
#[derive(Debug, Clone, Default)]
pub enum Backend {
    /// Volatile in-memory store (simulations, tests).
    #[default]
    Memory,
    /// Durable log-structured engine rooted at a directory.
    Disk {
        /// Engine directory.
        dir: PathBuf,
        /// Engine tuning.
        options: EngineOptions,
    },
}

/// Background maintenance for disk-backed stores: a worker thread per
/// storage shard that runs tiered compaction (and pin-aware version GC)
/// between commits, so sustained ingest does not degrade point reads.
///
/// Off by default: crash-injection tests (and any embedding that
/// mutates engine files underneath an open store) need the table set to
/// hold still. The worker shuts down cleanly when the [`crate::Pass`]
/// drops. With maintenance off, engines fall back to inline full-merge
/// compaction, the pre-worker behavior.
#[derive(Debug, Clone)]
pub struct MaintenanceConfig {
    /// Spawn the per-shard compaction workers.
    pub enabled: bool,
    /// Periodic wake-up interval (flushes also wake the worker).
    pub tick: Duration,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        MaintenanceConfig { enabled: false, tick: Duration::from_millis(250) }
    }
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
    /// Background compaction/GC workers (disk backends only; no effect
    /// on memory stores).
    pub maintenance: MaintenanceConfig,
}

impl Default for PassConfig {
    fn default() -> Self {
        PassConfig {
            site: SiteId::default(),
            backend: Backend::default(),
            shards: 1,
            maintenance: MaintenanceConfig::default(),
        }
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

    /// Enables the background maintenance workers (tiered compaction +
    /// pin-aware GC between commits) with the default tick.
    pub fn with_maintenance(mut self) -> Self {
        self.maintenance.enabled = true;
        self
    }
}
