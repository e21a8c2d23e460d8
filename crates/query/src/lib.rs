//! # pass-query — the PASS provenance query layer
//!
//! §III surveys three workloads (document versioning, scientific
//! repositories, sensor/EMT operations) and distills a common shape:
//! attribute predicates, text search over annotations, time-window
//! overlap, and — pervasively — transitive lineage traversal. This crate
//! provides:
//!
//! * [`ast`] — the query model: [`Predicate`], [`LineageClause`],
//!   [`Query`], with ground-truth evaluation ([`Predicate::matches`]).
//! * [`parser`] — the textual language (reference below).
//! * [`mod@plan`] — superset-plus-residual planning onto index expressions.
//! * [`exec`] — streaming execution against any [`Provider`] (local
//!   store, remote proxy, test fixture): [`prepare`] plans once,
//!   [`QueryEngine::open`] yields a pull-based [`Cursor`], and
//!   [`execute`] remains as a collect-the-cursor compatibility wrapper.
//! * [`record_index`] — [`RecordIndex`], the in-memory record index and
//!   the one [`Provider`] that builds indexes: the local store, every
//!   architecture site, and the test fixtures serve queries from it.
//!
//! The executor's contract is checked two ways: residual predicates are
//! re-evaluated with the same `matches` function that defines semantics,
//! and the test suite compares executor output against brute-force
//! filtering on every fixture.
//!
//! # Query language reference
//!
//! Keywords are case-insensitive; attribute names are case-sensitive
//! identifiers (dots allowed: `tool.name`, `sensor.type`).
//!
//! ```text
//! statement  := query | subscribe
//! query      := FIND [lineage] [WHERE pred]
//!               [ORDER BY created (ASC|DESC)] [LIMIT n] [AFTER id]
//! subscribe  := SUBSCRIBE query
//!             | WATCH DESCENDANTS OF id [DEPTH <= n] [ABSTRACTED]
//!               [WITH SELF] [WHERE pred]
//! lineage    := (ANCESTORS | DESCENDANTS) OF id
//!               [DEPTH <= n] [ABSTRACTED] [WITH SELF]
//! pred       := or_pred
//! or_pred    := and_pred (OR and_pred)*
//! and_pred   := unary (AND unary)*
//! unary      := NOT unary | '(' pred ')' | leaf
//! leaf       := TRUE
//!             | ident (= | != | < | <= | > | >=) value
//!             | ident BETWEEN value AND value
//!             | HAS ident
//!             | ANNOTATION CONTAINS string
//!             | time OVERLAPS '[' int ',' int ']'
//! value      := string | int | float | @millis | TRUE | FALSE | NULL
//! id         := ts:HEX
//! ```
//!
//! ## Clauses
//!
//! * **`WHERE`** — attribute predicates (`=`, `!=`, `<`, `<=`, `>`,
//!   `>=`, `BETWEEN`), presence (`HAS attr`), keyword search
//!   (`ANNOTATION CONTAINS "phrase"`, matched against annotations and
//!   the record description), and time-window overlap
//!   (`time OVERLAPS [a, b]`). `AND` binds tighter than `OR`;
//!   parentheses override.
//! * **`ANCESTORS OF` / `DESCENDANTS OF`** — scope results to the
//!   lineage closure of a tuple set. `DEPTH <= n` bounds hops,
//!   `ABSTRACTED` stops at abstraction boundaries, `WITH SELF` includes
//!   the root.
//! * **`ORDER BY created [ASC|DESC]`** — order by creation time, ties
//!   broken by tuple set id. Without it, results come in storage
//!   (dense-index) order.
//! * **`LIMIT n`** — cap the result set. The executor pushes the limit
//!   into the candidate stream: a `LIMIT 10` query touches ~10 records,
//!   not the whole match set.
//! * **`AFTER ts:HEX`** — keyset pagination: resume strictly after that
//!   tuple set's position in the result order. The token marks a
//!   *position*, so it works even when the named record does not match
//!   the filter; concatenating `LIMIT k AFTER <last id of page>` pages
//!   reproduces the unpaged result exactly. Unknown tokens are an error.
//! * **`SUBSCRIBE query`** — the continuous form of any query: the
//!   consumer first receives a *catch-up* phase whose output is
//!   byte-identical to executing the query one-shot (so `ORDER BY`,
//!   `LIMIT`, and `AFTER` shape the catch-up exactly as they shape
//!   `execute`), then *tails* live commits, receiving every subsequent
//!   record that satisfies the filter — exactly once, in commit order.
//!   A `DESCENDANTS OF` scope is maintained incrementally in the tail;
//!   `ANCESTORS OF` scopes are rejected at subscribe time (ancestor
//!   closures of a fixed root do not grow with new commits).
//! * **`WATCH DESCENDANTS OF id`** — sugar for subscribing to
//!   `FIND DESCENDANTS OF id`: fire when a record derives, transitively,
//!   from the root. Takes the same lineage modifiers plus an optional
//!   `WHERE` filter.
//!
//! ## Pseudo-attributes
//!
//! Indexed at ingest like real attributes: `origin.site` (producing
//! site id), `created_at` (creation timestamp), `ancestry.parents`
//! (direct parent count), and the multi-valued `tool.name` /
//! `tool.version` (one per derivation; equality means "some derivation
//! used it").
//!
//! ## Examples
//!
//! ```
//! use pass_query::{parse, OrderBy, Predicate};
//!
//! let q = parse(r#"FIND WHERE domain = "traffic" AND count >= 10 LIMIT 5"#).unwrap();
//! assert_eq!(q.limit, Some(5));
//! assert!(matches!(q.filter, Predicate::And(_)));
//!
//! let q = parse("FIND ANCESTORS OF ts:3f2a DEPTH <= 4 ABSTRACTED").unwrap();
//! let lineage = q.lineage.unwrap();
//! assert_eq!(lineage.max_depth, Some(4));
//! assert!(lineage.stop_at_abstraction);
//!
//! // Keyset pagination: page 2 of the newest-first listing.
//! let q = parse("FIND ORDER BY created DESC LIMIT 10 AFTER ts:3f2a").unwrap();
//! assert_eq!(q.order, OrderBy::CreatedDesc);
//! assert!(q.after.is_some());
//! ```
//!
//! Subscriptions parse with [`parse_subscribe`]; `WATCH` is sugar over a
//! descendants query:
//!
//! ```
//! use pass_query::{parse_subscribe, Predicate};
//! use pass_index::Direction;
//!
//! let s = parse_subscribe(r#"SUBSCRIBE FIND WHERE domain = "volcano""#).unwrap();
//! assert_eq!(s.query.filter, Predicate::Eq("domain".into(), "volcano".into()));
//!
//! let w = parse_subscribe(r#"WATCH DESCENDANTS OF ts:3f2a DEPTH <= 4"#).unwrap();
//! let lineage = w.query.lineage.unwrap();
//! assert_eq!(lineage.direction, Direction::Descendants);
//! assert_eq!(lineage.max_depth, Some(4));
//! ```
//!
//! Plans render for EXPLAIN-style inspection:
//!
//! ```
//! use pass_query::{parse, prepare};
//!
//! let prepared = prepare(&parse(r#"FIND WHERE region = "london" LIMIT 3"#).unwrap());
//! let text = prepared.explain();
//! assert!(text.contains("ix:region"), "{text}");
//! assert!(text.contains("limit 3"), "{text}");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod error;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod record_index;
mod record_table;
mod vocabulary;

pub use ast::{CmpOp, LineageClause, OrderBy, Predicate, Query, Subscribe};
pub use error::{QueryError, Result};
pub use exec::{
    execute, execute_plan, execute_text, prepare, Counted, Cursor, ExecStats, PreparedQuery,
    Provider, QueryEngine, QueryResult,
};
pub use parser::{parse, parse_predicate, parse_subscribe};
pub use plan::{plan, IndexExpr, Plan, PlanSource};
pub use record_index::{IndexDelta, RecordIndex, ResidentRecord};
pub use record_table::RecordBytes;
