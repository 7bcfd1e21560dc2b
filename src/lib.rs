//! # conquer — Clean Answers over Dirty Databases
//!
//! Facade crate re-exporting the whole ConQuer workspace: an executable
//! reproduction of *"Clean Answers over Dirty Databases: A Probabilistic
//! Approach"* (Andritsos, Fuxman, Miller — ICDE 2006).
//!
//! A *dirty database* keeps multiple candidate tuples per real-world entity,
//! grouped into clusters by a duplicate-detection tool and annotated with
//! per-tuple probabilities. A *clean answer* to a query is an answer tuple
//! together with the probability that it would be produced by the (unknown)
//! clean database. This workspace provides:
//!
//! * [`storage`] — the in-memory relational substrate,
//! * [`sql`] — parser/printer for the SQL dialect,
//! * [`engine`] — a query engine executing that dialect,
//! * [`core`] — the paper's contribution: clean-answer semantics, the join
//!   graph / rewritability test, and the `RewriteClean` rewriting,
//! * [`prob`] — Section 4's probability assignment from clusterings,
//! * [`datagen`] — TPC-H-lite + UIS-style dirty data and the experiment
//!   query templates.
//!
//! ## Quickstart
//!
//! ```
//! use conquer::prelude::*;
//!
//! fn main() -> Result<()> {
//!     // Build the dirty database of the paper's Figure 1.
//!     let mut db = Database::new();
//!     db.execute_script(
//!         "CREATE TABLE customer (id TEXT, name TEXT, income INTEGER, prob DOUBLE);
//!          INSERT INTO customer VALUES
//!            ('c1', 'John', 120000, 0.9), ('c1', 'John', 80000, 0.1),
//!            ('c2', 'Mary', 140000, 0.4), ('c2', 'Marion', 40000, 0.6)",
//!     )?;
//!
//!     let dirty = DirtyDatabase::new(db, DirtySpec::uniform(&["customer"]))?;
//!     let answers = dirty.clean_answers("SELECT id FROM customer WHERE income > 100000")?;
//!     // John (c1) earns >100K with probability 0.9; Mary/Marion (c2) with 0.4.
//!     assert_eq!(answers.probability_of(&["c1".into()]), Some(0.9));
//!     assert_eq!(answers.probability_of(&["c2".into()]), Some(0.4));
//!     Ok(())
//! }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod error;

pub use conquer_core as core;
pub use conquer_datagen as datagen;
pub use conquer_engine as engine;
pub use conquer_prob as prob;
pub use conquer_sql as sql;
pub use conquer_storage as storage;

pub use conquer_engine::ErrorKind;
pub use error::Result;

/// Number of cases property-based test suites should run.
///
/// Reads `CONQUER_PROPTEST_CASES`; falls back to `default` when the
/// variable is unset or unparsable. Lets CI dial randomized coverage up
/// (nightly soak) or down (fast smoke) without touching test source.
pub fn proptest_cases(default: u32) -> u32 {
    std::env::var("CONQUER_PROPTEST_CASES")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::error::Result;
    pub use conquer_core::{
        explain_answer, CleanAnswers, CoreError, Def7Clause, DirtyDatabase, DirtySpec,
        DirtyTableMeta, EvalStrategy, JoinGraph, NotRewritable, RewriteClean, RewriteExpected,
        RewriteObstacle,
    };
    pub use conquer_engine::{
        CancelToken, Code, Database, Diagnostic, ErrorKind, ExecContext, ExecLimits, ExecStats,
        QueryResult, Session, Severity, SharedDatabase, Statement,
    };
    pub use conquer_prob::{
        assign_probabilities, sorted_neighborhood, Clustering, EditDistance, InfoLossDistance,
        SortedNeighborhoodConfig,
    };
    pub use conquer_sql::{parse_select, SelectStatement};
    pub use conquer_storage::{Catalog, Column, DataType, Date, Row, Schema, Table, Value};
}
