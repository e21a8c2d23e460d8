//! `pass-server` — the concurrent serving layer for PASS.
//!
//! Everything before this crate runs in one process: capture, commit,
//! query, and the simulated distribution layer. This crate puts a real
//! socket in front of [`pass_core::Pass`]:
//!
//! * **Framing** ([`frame`]): length-prefixed frames with a versioned
//!   12-byte header and a CRC32C over header metadata + payload. The
//!   decoder is incremental and panic-free on arbitrary bytes.
//! * **Messages** ([`pass_distrib::wire`]): the canonical binary codec
//!   for the request/response vocabulary (publish, paged query,
//!   subscribe, stats) that mirrors the simulator's `ArchMsg` shapes.
//! * **Connections** ([`conn`]): exactly two threads per connection,
//!   whatever it subscribes to. Requests dispatch inline on the reader;
//!   replies go through a bounded send queue and apply backpressure.
//!   The writer sends them and serves every subscription between them;
//!   a slow subscriber's pushes are shed only in its `pass-core` queue,
//!   reported in a `Lagged` frame, and never block ingest.
//! * **Admission control** ([`admission`]): a connection cap, a global
//!   in-flight-byte budget and a per-connection queue-depth threshold.
//!   Over the line, publishes are refused with an explicit `Overloaded`
//!   reply instead of queueing toward collapse — the open-loop
//!   experiments (E24) measure exactly this knee.
//! * **Lifecycle** ([`server`]): accept loop, connection registry, and
//!   a graceful SIGTERM-style drain that finishes in-flight commits,
//!   closes subscriptions with a terminal frame, and flushes WALs.
//! * **Client** ([`client`]): a small blocking client for tests, tools,
//!   and examples.
//!
//! This crate is deliberately excluded from the determinism rule (L4):
//! it fronts real sockets and legitimately reads wall clocks for
//! timeouts. The simulation crates stay clock-free.

#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod conn;
pub mod error;
pub mod frame;
pub mod server;
pub mod stats;

pub use admission::{AdmissionConfig, AdmissionGate, AdmissionPermit};
pub use client::{Client, PublishOutcome};
pub use error::{Result, ServerError};
pub use frame::{encode_msg, Frame, FrameDecoder, FrameError, HEADER_LEN, MAX_FRAME};
pub use server::{serve, ServerConfig, ServerHandle};
pub use stats::ServerStats;
