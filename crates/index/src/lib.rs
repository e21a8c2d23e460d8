//! # pass-index — provenance indexing structures
//!
//! §II-B demands "efficient lookups in many dimensions, as well as
//! efficient recursive or transitive queries". This crate supplies both
//! halves for a local PASS:
//!
//! * **Dimensional** — [`AttrIndex`] (equality + range over any
//!   attribute), [`TimeIndex`] (interval overlap), [`KeywordIndex`]
//!   (annotation text), combined through [`PostingList`] set algebra.
//! * **Recursive** — [`AncestryGraph`] plus four interchangeable
//!   [`ReachStrategy`] implementations ([`NaiveJoinClosure`],
//!   [`BfsClosure`], [`MemoClosure`], [`IntervalClosure`]) that form the
//!   E3 ablation ladder.
//!
//! Indexes speak dense [`NodeIdx`]es internally; [`IdArena`] maintains the
//! bijection with 128-bit tuple-set identities.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arena;
pub mod attr;
pub mod bitset;
pub mod closure;
pub mod error;
pub mod graph;
pub mod interval;
pub mod keyword;
pub mod posting;
pub mod time;

pub use arena::{IdArena, NodeIdx};
pub use attr::AttrIndex;
pub use bitset::BitSet;
pub use closure::{BfsClosure, MemoClosure, NaiveJoinClosure, ReachStrategy, TraverseOpts};
pub use error::{IndexError, Result};
pub use graph::{AncestryGraph, Direction, Edge};
pub use interval::IntervalClosure;
pub use keyword::KeywordIndex;
pub use posting::{PackedPostings, PostingList};
pub use time::TimeIndex;
