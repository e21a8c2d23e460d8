//! # pass-core — the local Provenance-Aware Storage System
//!
//! The paper's primary contribution (§V): a storage system in which
//! provenance is a first-class, queryable object whose identity *is* the
//! name of the data, and which survives the removal of the data it
//! describes.
//!
//! ```
//! use pass_core::Pass;
//! use pass_model::{Attributes, Reading, SensorId, SiteId, Timestamp, ToolDescriptor};
//!
//! let pass = Pass::open_memory(SiteId(1));
//!
//! // Capture a whole stream of raw tuple sets in ONE group commit: one
//! // WriteBatch, one WAL append, one crash-atomicity domain, one bulk
//! // index pass. All-or-nothing: if any set fails validation, no state
//! // changes at all.
//! let batch = (0u64..3).map(|i| {
//!     let at = Timestamp(100 + i);
//!     let readings = vec![Reading::new(SensorId(7), at).with("speed", 42.0 + i as f64)];
//!     let attrs = Attributes::new().with("domain", "traffic").with("region", "london");
//!     (attrs, readings, at)
//! });
//! let ids = pass.capture_batch(batch).unwrap();
//! assert_eq!(ids.len(), 3);
//!
//! // Readers get snapshot isolation: this view keeps answering from its
//! // commit point no matter how much ingest happens after it.
//! let snap = pass.snapshot();
//!
//! // Derive from a captured set, query by provenance, walk lineage.
//! let derived = pass
//!     .derive(&[ids[0]], &ToolDescriptor::new("dedupe", "1.0"),
//!             Attributes::new().with("domain", "traffic"), vec![], Timestamp(200))
//!     .unwrap();
//! let hits = pass.query_text(r#"FIND WHERE tool.name = "dedupe""#).unwrap();
//! assert_eq!(hits.ids(), vec![derived]);
//!
//! // The snapshot predates the derivation and still does not see it.
//! assert!(snap.get_record(derived).is_none());
//! assert_eq!(snap.len(), 3);
//! ```
//!
//! See [`Pass`] for the full API and crate-level invariants,
//! [`Pass::ingest_batch`] / [`Pass::capture_batch`] for the group-commit
//! atomicity contract, [`pass::Snapshot`] for repeatable-read semantics,
//! and [`Pass::subscribe`] / [`subscribe`] for live continuous queries
//! (snapshot-then-tail subscriptions with an exactly-once handoff).

// Unit-test modules assert by panicking; the panic lints cover only
// the shipped library code.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod archive;
pub mod config;
pub mod error;
pub mod keyspace;
pub mod pass;
pub mod shard;
pub mod subscribe;

pub use archive::{AgeReport, ArchiveExport, ImportStats};
pub use config::{Backend, PassConfig};
pub use error::{PassError, Result};
pub use pass::{ConsistencyReport, Pass, PassStats, Snapshot};
pub use subscribe::{Event, Subscription, DEFAULT_SUBSCRIPTION_CAPACITY};
