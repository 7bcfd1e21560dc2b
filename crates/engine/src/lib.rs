//! # conquer-engine
//!
//! A small, complete in-memory SQL query engine: the substrate this
//! reproduction substitutes for the commercial RDBMS (DB2) used in the
//! paper's experiments.
//!
//! Pipeline: SQL text → [`conquer_sql`] AST → [`binder`] (name resolution,
//! aggregate analysis) → [`planner`] (predicate pushdown, greedy equi-join
//! ordering) → [`exec`] (a pull-based, batched operator pipeline: hash
//! joins, nested-loop joins, hash aggregation, sort, limit) →
//! [`QueryResult`]. Every operator is instrumented; `EXPLAIN ANALYZE` (or
//! [`QueryResult::stats`]) exposes the per-operator [`stats::ExecStats`]
//! tree.
//!
//! The [`Database`] facade owns a [`conquer_storage::Catalog`]; statements
//! are prepared once ([`Database::prepare`]) and executed many times
//! ([`Statement::query`] / [`Statement::run`]):
//!
//! ```
//! use conquer_engine::Database;
//!
//! let mut db = Database::new();
//! db.execute_script(
//!     "CREATE TABLE t (a INTEGER, b TEXT);
//!      INSERT INTO t VALUES (1, 'x'), (2, 'y')",
//! )
//! .unwrap();
//! let stmt = db.prepare("SELECT b FROM t WHERE a = 2").unwrap();
//! let res = stmt.query(&db).unwrap();
//! assert_eq!(res.iter_rows().next(), Some(["y".into()].as_slice()));
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod analyze;
pub mod binder;
pub mod context;
pub mod database;
pub mod error;
pub mod exact;
pub mod exec;
pub mod expr;
mod keytable;
pub mod planner;
pub mod result;
pub mod shared;
pub mod statement;
pub mod stats;
pub mod validate;
pub mod view;

pub use analyze::{Code, Diagnostic, Severity};
pub use context::{CancelToken, ExecContext, ExecLimits};
pub use database::{Database, ExecOutcome};
pub use error::{EngineError, ErrorKind};
pub use expr::{BoundExpr, ColumnId};
pub use result::QueryResult;
pub use shared::{
    AdmissionGate, AdmissionPermit, CacheStats, CheckpointInfo, QuerySource, Session,
    SessionOutcome, SessionResult, SharedConfig, SharedDatabase, Snapshot,
};
pub use statement::Statement;
pub use stats::{ExecStats, OpStats};
pub use validate::{validate_bound, validate_plan};
pub use view::{ViewDef, ViewStats};

/// Convenience result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
