//! # pass-sensor — synthetic sensor-network workload substrate
//!
//! The paper motivates PASS with five concrete deployments (§I): London
//! congestion-zone traffic, city-wide structural monitoring, volcano
//! monitoring, biological/weather field research, and sensor-enabled
//! emergency medicine (§III-C). None of that data is available to a
//! reproduction, so this crate generates faithful synthetic equivalents:
//! realistic value processes (diurnal traffic peaks, AR(1) weather,
//! Poisson seismic bursts, arrhythmia episodes), grouped into tuple sets
//! by time window exactly as §II prescribes.
//!
//! * Domain generators: [`traffic`], [`weather`], [`medical`],
//!   [`volcano`], [`structural`] — each emits [`CaptureSpec`]s.
//! * [`pipeline`] — derivation operators (filter, calibrate, aggregate,
//!   merge) plus [`pipeline::build_lineage`] for DAG-shape control.
//! * [`workload`] — the §III query mixes, parameterized over a populated
//!   store's vocabulary.
//!
//! Everything is seeded and deterministic: two runs of any generator
//! produce byte-identical tuple sets.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod gen;
pub mod live;
pub mod medical;
pub mod pipeline;
pub mod spec;
pub mod structural;
pub mod traffic;
pub mod volcano;
pub mod weather;
pub mod workload;

pub use live::{Alert, AlertCondition, AlertRule, AlertStage};
pub use pipeline::{
    build_lineage, capture_batch_items, ingest_in_batches, DeriveSpec, LineageShape,
};
pub use spec::CaptureSpec;
pub use workload::{QuerySpec, Vocabulary, WorkloadClass};
