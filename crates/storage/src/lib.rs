//! # conquer-storage
//!
//! In-memory relational storage layer for the ConQuer clean-answers system.
//!
//! This crate provides the typed value model ([`Value`], [`DataType`],
//! [`Date`]), row/schema/table abstractions ([`Row`], [`Schema`], [`Table`]),
//! a named-table [`Catalog`], and crash-safe persistence: one
//! write-ahead log per directory ([`wal`]), whose base and commits both
//! store a table as one exact [`image`], saved and loaded by [`persist`].
//!
//! The storage layer is deliberately simple: tables are materialized
//! vectors of shared rows and all access is single-process. The paper's
//! experiments ran on DB2; this crate is the substrate we substitute for
//! it (see DESIGN.md).
//! Everything above it — the SQL parser, the query engine, the clean-answer
//! rewriting — only assumes relational tables with typed columns, which is
//! exactly what this crate models.
//!
//! ## Ordering and hashing of values
//!
//! SQL evaluation needs values as grouping keys, join keys, and sort keys.
//! [`Value`] therefore implements a *total* order ([`Ord`]) and a consistent
//! [`Hash`]/[`Eq`]: floats are ordered with `f64::total_cmp`, ints and floats
//! are ordered numerically (with a deterministic tie-break on the type tag so
//! that `Eq` stays structural), and `Null` sorts first. Three-valued SQL
//! comparison semantics live in the engine, not here.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod catalog;
pub mod crossref;
pub mod date;
pub mod error;
pub mod image;
pub mod persist;
pub mod schema;
pub mod scrub;
pub mod spill;
pub mod table;
pub mod value;
pub mod vfs;
pub mod wal;

pub use catalog::Catalog;
pub use crossref::resolve_crossref;
pub use date::Date;
pub use error::StorageError;
pub use persist::{load_catalog, load_catalog_recover, save_catalog, RecoveryReport};
pub use schema::{Column, Schema};
pub use scrub::{scrub, ScrubReport};
pub use spill::{SpillFile, SpillReader, SpillSession, SpillWriter};
pub use table::{Edit, Row, SharedRow, Table};
pub use value::{DataType, Incomparable, Value};
pub use wal::{Wal, WalOp};

/// Convenience result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
