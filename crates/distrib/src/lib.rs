//! # pass-distrib — the §IV design space, executable
//!
//! The paper walks six architectures for distributed provenance indexing
//! and argues qualitatively about their scalability, reliability, result
//! quality, speed, and resource consumption. This crate implements all
//! six over the `pass-net` simulator so the argument can be measured:
//!
//! | Model | Module | Paper section |
//! |---|---|---|
//! | Central warehouse | [`centralized`] | §IV-A |
//! | Distributed database | [`distdb`] | §IV-B |
//! | Federated database | [`federated`] | §IV-B |
//! | Soft-state catalogs (RLS/SRB) | [`softstate`] | §IV-B |
//! | Hierarchical namespace | [`hierarchy`] | §IV-B |
//! | DHT index (Chord/PIER) | [`dhtarch`] | §IV-C |
//!
//! All six implement the [`Architecture`] trait; [`runner`] drives the
//! same deterministic workload through each and reports latency, traffic
//! split, and precision/recall. Every site (warehouse, catalog, shard,
//! replica) indexes provenance in a [`pass_query::RecordIndex`], the
//! same record index and query executor the local PASS serves from,
//! minus the storage engine: records only, since §IV-A's warehouse
//! "would not store actual sensor data".

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arch;
pub mod centralized;
pub mod dhtarch;
pub mod distdb;
pub mod federated;
mod harness;
pub mod hierarchy;
pub mod msg;
pub mod outcome;
pub mod replicated;
pub mod runner;
pub mod softstate;
pub mod wire;

pub use arch::Architecture;
pub use centralized::Centralized;
pub use dhtarch::DhtIndex;
pub use distdb::DistributedDb;
pub use federated::Federated;
pub use hierarchy::Hierarchical;
pub use msg::ArchMsg;
pub use outcome::{LatencyStats, Outcome, ResultQuality};
pub use replicated::{Replicated, ReplicationStrategy};
pub use runner::{build_arch, build_corpus, run_workload, ArchKind, ArchReport, WorkloadSpec};
pub use softstate::SoftState;
pub use wire::{StatsBody, WireMsg, PROTO_VERSION};
