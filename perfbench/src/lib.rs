//! # conquer-perfbench
//!
//! The perf ledger's one benchmark driver: four named workloads, each run
//! untraced for its end-to-end metrics and traced for its per-layer
//! metrics, with every output checked. See `README.md` next to this crate
//! for the metric glossary and how the pieces fit.

#![warn(missing_docs)]

pub mod diff;
pub mod driver;
pub mod fingerprint;
pub mod host;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod samples;
pub mod trace;
pub mod workloads;
