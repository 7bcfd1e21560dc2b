//! Thread-count equivalence matrix: the morsel-parallel executor may
//! change *how fast* a query runs but never *what* it answers — and the
//! promise is stronger than float tolerance. For every one of the
//! paper's thirteen TPC-H workload templates, the clean answers at
//! `threads ∈ {2, 8}` must be **byte-identical** to `threads = 1`:
//! same tuples, same row order, same probability down to the last bit
//! of the f64 (a parallel SUM merged in arrival order would fail this).
//! The same must hold under a constraining 16 MiB memory budget, where
//! parallel workers and spilling operators run in the same pipeline.
//! Workers run forks of the serial operators, so the statistics under
//! `Gather` must also be the serial join tree's, node for node.

use conquer_core::DirtyDatabase;
use conquer_datagen::{
    dirty::{dirty_database, ProbMode, UisConfig},
    perturb::PerturbOptions,
    queries::{query_sql, QUERY_IDS},
    tpch::TpchConfig,
};
use conquer_engine::{ExecLimits, OpStats};
use conquer_storage::Row;

fn workload_db() -> DirtyDatabase {
    dirty_database(UisConfig {
        tpch: TpchConfig {
            sf: 0.1,
            seed: 2024,
        },
        if_factor: 3,
        prob_mode: ProbMode::Uniform,
        perturb: PerturbOptions::default(),
    })
    .unwrap()
}

/// Byte-exact image of a clean-answer list: row order preserved,
/// probabilities by f64 bit pattern.
fn fingerprint(rows: &[(Row, f64)]) -> Vec<(Row, u64)> {
    rows.iter().map(|(r, p)| (r.clone(), p.to_bits())).collect()
}

struct Run {
    answers: Vec<(Row, u64)>,
    threads_used: usize,
    disk_charged: u64,
    root: OpStats,
}

fn run(db: &mut DirtyDatabase, id: u8, limits: ExecLimits) -> Run {
    db.db_mut().set_limits(limits);
    let answers = db
        .clean_answers(&query_sql(id, false))
        .unwrap_or_else(|e| panic!("Q{id} failed: {e}"));
    let stats = answers.stats().expect("rewritten path forwards stats");
    Run {
        answers: fingerprint(&answers.rows),
        threads_used: stats.threads_used,
        disk_charged: stats.disk_charged,
        root: stats.root.clone(),
    }
}

/// The join tree's statistics: what sits below the single-child chain of
/// post-join stages and, when the pool ran, below `Gather`.
fn join_subtree(root: &OpStats) -> &OpStats {
    const ABOVE: [&str; 7] = [
        "Limit",
        "Sort",
        "Distinct",
        "Project",
        "Filter (HAVING)",
        "HashAggregate",
        "Gather",
    ];
    let mut node = root;
    while ABOVE.contains(&node.name.as_str()) {
        assert_eq!(node.children.len(), 1, "{node:?}");
        node = &node.children[0];
    }
    node
}

/// Operator names, child order, `rows_in` and `rows_out` of a subtree.
fn shape(node: &OpStats) -> Vec<(usize, String, u64, u64)> {
    let mut out = Vec::new();
    node.visit(&mut |depth, op| out.push((depth, op.name.clone(), op.rows_in, op.rows_out)));
    out
}

#[test]
fn thirteen_templates_bit_identical_across_thread_counts() {
    let mut db = workload_db();
    let mut engaged = Vec::new();
    for &id in QUERY_IDS.iter() {
        let serial = run(&mut db, id, ExecLimits::none().with_threads(1));
        assert_eq!(
            serial.threads_used, 1,
            "Q{id}: threads=1 must report serial stats"
        );
        for threads in [2usize, 8] {
            let got = run(&mut db, id, ExecLimits::none().with_threads(threads));
            assert_eq!(
                serial.answers, got.answers,
                "Q{id}: threads={threads} answers not byte-identical to serial"
            );
            let used = got.threads_used;
            assert!(
                used <= threads,
                "Q{id}: threads_used {used} exceeds the configured {threads}"
            );
            assert_eq!(
                shape(join_subtree(&serial.root)),
                shape(join_subtree(&got.root)),
                "Q{id}: threads={threads} join-tree statistics differ from serial"
            );
            if threads == 8 && used > 1 {
                engaged.push(id);
            }
        }
    }
    // The matrix must actually test parallelism, not 13 serial fallbacks.
    assert!(
        engaged.len() >= 7,
        "only {engaged:?} of the 13 templates engaged the worker pool at threads=8"
    );
}

#[test]
fn templates_bit_identical_with_parallelism_and_budget_combined() {
    let mut db = workload_db();
    let budget = 16u64 << 20;
    for &id in QUERY_IDS.iter() {
        let reference = run(
            &mut db,
            id,
            ExecLimits::none().with_threads(1).with_mem_bytes(budget),
        );
        let got = run(
            &mut db,
            id,
            ExecLimits::none().with_threads(8).with_mem_bytes(budget),
        );
        assert_eq!(
            reference.answers, got.answers,
            "Q{id}: threads=8 under 16 MiB not byte-identical to threads=1 under 16 MiB"
        );
    }
}

#[test]
fn a_single_query_can_be_parallel_and_spilling_at_once() {
    // Q9's aggregation (~10k groups) overflows a 1792 KiB budget while
    // its small build sides (part, supplier, nation) still fit — so the
    // worker pool and the spilling aggregation must cooperate in one
    // pipeline, and the answers must still match the unconstrained run
    // byte for byte at every thread count.
    let mut db = workload_db();
    let budget = 1792u64 << 10;
    let serial = run(
        &mut db,
        9,
        ExecLimits::none().with_threads(1).with_mem_bytes(budget),
    );
    let parallel = run(
        &mut db,
        9,
        ExecLimits::none().with_threads(8).with_mem_bytes(budget),
    );
    assert!(
        parallel.threads_used > 1,
        "Q9 under {budget}: pool did not engage"
    );
    assert!(
        parallel.disk_charged > 0,
        "Q9 under {budget}: aggregation did not spill"
    );
    assert_eq!(
        serial.disk_charged, parallel.disk_charged,
        "spill volume must not depend on threads"
    );
    assert_eq!(
        serial.answers, parallel.answers,
        "parallel+spill diverged from serial+spill"
    );
    // (Budgeted-vs-unconstrained equivalence is deliberately NOT a
    // bit-equality claim — a spilling aggregation merges partial sums in
    // a different association order than row-at-a-time accumulation.
    // `tests/spill_equivalence.rs` checks that axis with tolerance; this
    // suite owns the thread axis, which *is* bit-exact.)
}
