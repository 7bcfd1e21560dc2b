//! # conquer-prob
//!
//! Tuple-probability assignment from a duplicate clustering — Section 4 of
//! the paper, in full.
//!
//! Given a relation, a clustering of its tuples (the output of any tuple-
//! matching tool), and a distance measure, the Figure-5 algorithm assigns
//! each tuple a probability of being in the clean database:
//!
//! 1. compute each cluster's *representative* by merging its tuples'
//!    Distributional Cluster Features ([`Dcf`], Section 4.1.2);
//! 2. compute every tuple's distance to its representative and the
//!    per-cluster distance sum `S(cᵢ)`;
//! 3. turn distances into similarities `sₜ = 1 − dₜ/S(cᵢ)` and normalize to
//!    probabilities `prob(t) = sₜ/(|cᵢ|−1)` (singleton clusters get 1).
//!
//! The distance is pluggable. [`InfoLossDistance`] implements the paper's
//! information-loss measure `d(s₁,s₂) = I(C;V) − I(C′;V)` (LIMBO-style,
//! Section 4.1.3), computed via the weighted Jensen–Shannon shortcut which
//! is algebraically identical (property-tested against the direct mutual-
//! information difference). [`EditDistance`] demonstrates the modularity the
//! paper claims: any tuple-level distance slots into the same algorithm.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod assign;
pub mod cluster;
pub mod dcf;
pub mod distance;
pub mod matrix;
pub mod text;

pub use assign::{
    assign_probabilities, assign_probabilities_into, uniform_probabilities, Clustering,
};
pub use cluster::{
    limbo_sequential, multi_pass_sorted_neighborhood, pairwise_quality, sorted_neighborhood,
    LimboConfig, SortedNeighborhoodConfig, UnionFind,
};
pub use dcf::Dcf;
pub use distance::{DistanceMeasure, EditDistance, InfoLossDistance};
pub use matrix::CategoricalMatrix;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, conquer_storage::StorageError>;
