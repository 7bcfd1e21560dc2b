//! # conquer-core
//!
//! The paper's contribution: *clean answers* over dirty databases.
//!
//! A **dirty database** (Definition 2) is a database in which each relation
//! carries a clustering of its tuples — tuples in the same cluster are
//! potential duplicates of one real-world entity — and a probability
//! function per cluster (probabilities within a cluster sum to 1). Here the
//! clustering is encoded by an *identifier column* (shared value = same
//! cluster) and the probabilities by a *probability column*, exactly as the
//! paper's Figure 2 tables do; [`DirtySpec`] names those columns.
//!
//! A **candidate database** (Definition 3) picks exactly one tuple per
//! cluster; its probability is the product of the chosen tuples'
//! probabilities (Definition 4). A **clean answer** (Definition 5) is an
//! answer tuple together with the summed probability of the candidate
//! databases that produce it.
//!
//! Two evaluation strategies are provided:
//!
//! * [`naive`] — materialize every candidate database and apply Definition 5
//!   literally. Exponential; used as the correctness oracle in tests and to
//!   answer non-rewritable queries on small databases (the paper's
//!   Example 7 query is handled this way).
//! * [`rewrite`] — the `RewriteClean` SQL rewriting (Figure 4), valid for
//!   the class of *rewritable* queries (Definition 7, checked by
//!   [`JoinGraph`]): group by the projected attributes and sum the product
//!   of the relations' probability columns. Runs directly on the dirty
//!   database with ordinary SQL execution cost.
//!
//! [`DirtyDatabase::clean_answers`] ties it together: check rewritability,
//! rewrite, execute — falling back to the naive evaluator only if asked.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod answers;
pub mod dirty;
pub mod error;
pub mod expected;
pub mod explain;
pub mod graph;
pub mod naive;
pub mod propagate;
pub mod rewrite;
pub mod spec;

/// The workspace's instrumented synchronization layer (ranked lock wrappers,
/// lock-order deadlock detection, the deterministic schedule explorer). This
/// re-export of the `conquer-sync` foundation crate is the canonical path.
pub use conquer_sync as sync;

pub use answers::CleanAnswers;
pub use dirty::{DirtyDatabase, EvalStrategy};
pub use error::{CoreError, Def7Clause, NotRewritable, RewriteObstacle};
pub use expected::{naive_expected, RewriteExpected};
pub use explain::{explain_answer, Explanation, Support};
pub use graph::{explain_rewritable, JoinGraph};
pub use naive::{CandidateDatabases, NaiveOptions};
pub use propagate::{propagate_in_place, propagate_new_column};
pub use rewrite::RewriteClean;
pub use spec::{DirtySpec, DirtyTableMeta};

/// Convenience result alias for core operations.
pub type Result<T> = std::result::Result<T, CoreError>;
