//! # conquer-bench
//!
//! Benchmark harnesses reproducing **every table and figure** of the
//! paper's evaluation (Section 4.2 and Section 5). Each figure/table has a
//! binary that prints the same rows/series the paper reports:
//!
//! | binary  | reproduces | paper claim (shape) |
//! |---------|------------|---------------------|
//! | `fig7`  | Figure 7   | offline propagation + probability-computation time on `lineitem` vs `if`; probability time grows with `if`, propagation does not |
//! | `fig8`  | Figure 8   | 13 TPC-H queries, original vs rewritten; overhead small (≤1.5× for most, worst on the many-join high-duplication query) |
//! | `fig9`  | Figure 9   | Query 3 runtime vs tuples/cluster, with/without ORDER BY; original without ORDER BY is flat, rewritten still grows (grouping) |
//! | `fig10` | Figure 10  | rewritten-query runtime vs database size; near-linear growth |
//! | `table3`| Table 3    | per-tuple distance/similarity/probability on the Figure-6 relation |
//! | `table4`| Table 4    | Cora-style cluster: top-2 near-canonical, bottom-2 anomalies |
//! | `run_all` | all of the above | one shot; also writes CSVs under `results/` |
//!
//! Absolute numbers differ from the paper (their substrate was DB2 on 2005
//! hardware at 1 GB scale; ours is an in-memory engine at 1/100 scale — see
//! DESIGN.md), but the comparisons the paper draws are within-figure
//! *ratios and trends*, which these harnesses measure the same way.
//!
//! Scale knobs (environment variables):
//! * `CONQUER_SF` — base scale factor (default 0.2; sf=1 ≈ 78k clean rows);
//! * `CONQUER_RUNS` — timing repetitions, median reported (default 3).

#![warn(missing_docs)]
// Unlike the library crates, the bench harness is allowed to `.expect()`:
// it is measurement scaffolding, and panicking with a message on a broken
// setup is the behaviour we want. `xtask tidy` exempts this crate.

pub mod ablations;
pub mod figures;
pub mod harness;
pub mod tables;

pub use figures::{fig10, fig7, fig8, fig9};
pub use harness::{median_time, print_report, write_csv, Report};
pub use tables::{table3, table4};

/// Base scale factor from `CONQUER_SF` (default 0.2).
pub fn base_sf() -> f64 {
    std::env::var("CONQUER_SF")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.2)
}

/// Timing repetitions from `CONQUER_RUNS` (default 3).
pub fn runs() -> usize {
    std::env::var("CONQUER_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1)
}
