//! Implementations of the Figure 7–10 measurements.

use conquer_core::DirtyDatabase;
use conquer_datagen::{
    dirty::{
        compute_probabilities, dirty_database, generate_unpropagated, propagate_identifiers,
        ProbMode, UisConfig,
    },
    perturb::PerturbOptions,
    queries::{query_sql, QUERY_IDS},
    tpch::TpchConfig,
};

use crate::harness::{median_time, median_time_with_setup, ms, Report};

fn config(sf: f64, if_factor: u32, mode: ProbMode, seed: u64) -> UisConfig {
    UisConfig {
        tpch: TpchConfig { sf, seed },
        if_factor,
        prob_mode: mode,
        perturb: PerturbOptions::default(),
    }
}

/// Figure 7: offline times for `lineitem` — identifier propagation,
/// probability calculation (information loss), and a linear-scan baseline —
/// at `if ∈ {1, 5, 25}` (the paper's parameters).
pub fn fig7(sf: f64, runs: usize) -> Report {
    let mut report = Report::new(
        "Figure 7: offline times for lineitem",
        &[
            "if",
            "lineitem rows",
            "propagation (ms)",
            "probability calc (ms)",
            "linear scan (ms)",
        ],
    );
    report.note(format!(
        "sf = {sf} (scaled; see DESIGN.md), median of {runs} runs"
    ));
    report.note("paper: probability time grows with if; propagation is if-insensitive");

    for if_factor in [1u32, 5, 25] {
        let dirty =
            generate_unpropagated(config(sf, if_factor, ProbMode::InfoLoss, 7)).expect("generator");
        let rows = dirty.catalog.table("lineitem").expect("generated").len();

        // Propagation time: rewrite all lineitem FKs (fresh catalog each
        // run, since propagation is in-place; the clone is not timed).
        let (t_prop, _) = median_time_with_setup(
            runs,
            || dirty.catalog.clone(),
            |mut cat| {
                propagate_identifiers(&mut cat).expect("generated data has no dangling FKs");
                cat.table("lineitem").expect("present").len()
            },
        );

        // Probability computation on lineitem (the paper's Figure 7 relation).
        let (t_prob, _) = median_time_with_setup(
            runs,
            || dirty.catalog.clone(),
            |mut cat| {
                compute_probabilities(&mut cat, "lineitem", ProbMode::InfoLoss, 7)
                    .expect("lineitem has categorical attributes");
                cat.table("lineitem").expect("present").len()
            },
        );

        // Baseline: one linear scan over the relation.
        let (t_scan, _) = median_time(runs, || {
            let table = dirty.catalog.table("lineitem").expect("present");
            let mut cells = 0usize;
            for row in table.shared_rows() {
                cells += row.len();
            }
            cells
        });

        report.push_row(vec![
            if_factor.to_string(),
            rows.to_string(),
            ms(t_prop),
            ms(t_prob),
            ms(t_scan),
        ]);
    }
    report
}

/// Figure 8: the thirteen TPC-H queries, original vs rewritten, at `if = 3`.
pub fn fig8(sf: f64, runs: usize) -> Report {
    let mut report = Report::new(
        "Figure 8: original vs rewritten query times (sf scaled, if = 3)",
        &[
            "query",
            "answers",
            "original (ms)",
            "rewritten (ms)",
            "overhead",
        ],
    );
    report.note(format!("sf = {sf}, median of {runs} runs"));
    report.note("paper: all queries within 1.5x except the many-join Q9 (1.8x)");

    let db = dirty_database(config(sf, 3, ProbMode::Uniform, 7)).expect("pipeline");
    if let Ok(stats) = conquer_datagen::stats::database_stats(&db) {
        report.note(conquer_datagen::stats::summarize(&stats));
    }
    for &id in &QUERY_IDS {
        let sql = query_sql(id, true);
        let (row, ratio) = time_pair(&db, &sql, runs);
        report.push_row(vec![
            format!("Q{id}"),
            row.0,
            row.1,
            row.2,
            format!("{ratio:.2}x"),
        ]);
    }
    // Operator-level breakdown of the rewritten Q3 — the per-node stats the
    // executor collects for every query (also available as EXPLAIN ANALYZE).
    if let Ok(answers) = db.clean_answers(&query_sql(3, true)) {
        if let Some(stats) = answers.stats() {
            report.note(format!(
                "rewritten Q3 operator breakdown:\n{}",
                stats.render()
            ));
        }
    }
    report
}

/// Time the original and rewritten versions of `sql`; returns
/// `((answers, t_orig, t_rw), ratio)` with times rendered in ms.
///
/// Both statements are prepared once outside the timing loop, so the
/// measurement covers execution only — the setting of the paper's figures,
/// which timed queries on a warmed commercial RDBMS.
fn time_pair(db: &DirtyDatabase, sql: &str, runs: usize) -> ((String, String, String), f64) {
    let orig = db.db().prepare(sql).expect("workload query prepares");
    let (t_orig, _) = median_time(runs, || {
        orig.query(db.db()).expect("workload query runs").len()
    });
    let rewritten = db.rewrite(sql).expect("workload query rewritable");
    let rw = db
        .db()
        .prepare_select(&rewritten)
        .expect("rewritten query prepares");
    let (t_rw, n_rw) = median_time(runs, || {
        rw.query(db.db()).expect("rewritten query runs").len()
    });
    let ratio = t_rw.as_secs_f64() / t_orig.as_secs_f64().max(1e-12);
    ((n_rw.to_string(), ms(t_orig), ms(t_rw)), ratio)
}

/// Figure 9: Query 3 vs tuples-per-cluster (`if = 1..5`), the four series
/// of the paper: original / rewritten × with / without ORDER BY.
pub fn fig9(sf: f64, runs: usize) -> Report {
    let mut report = Report::new(
        "Figure 9: Query 3 vs tuples per cluster",
        &[
            "if",
            "original (ms)",
            "rewritten (ms)",
            "original no-order-by (ms)",
            "rewritten no-order-by (ms)",
        ],
    );
    report.note(format!("sf = {sf}, median of {runs} runs"));
    report.note("paper: both grow with cluster size; without ORDER BY the original flattens");

    for if_factor in 1u32..=5 {
        let db = dirty_database(config(sf, if_factor, ProbMode::Uniform, 7)).expect("pipeline");
        let with = query_sql(3, true);
        let without = query_sql(3, false);
        let prep = |sql: &str| db.db().prepare(sql).expect("q3 prepares");
        let prep_rw = |sql: &str| {
            let rewritten = db.rewrite(sql).expect("q3 rewritable");
            db.db()
                .prepare_select(&rewritten)
                .expect("rewritten q3 prepares")
        };
        let (orig, rw) = (prep(&with), prep_rw(&with));
        let (orig_no, rw_no) = (prep(&without), prep_rw(&without));
        let (t_orig, _) = median_time(runs, || orig.query(db.db()).expect("q3").len());
        let (t_rw, _) = median_time(runs, || rw.query(db.db()).expect("q3").len());
        let (t_orig_no, _) = median_time(runs, || orig_no.query(db.db()).expect("q3").len());
        let (t_rw_no, _) = median_time(runs, || rw_no.query(db.db()).expect("q3").len());
        report.push_row(vec![
            if_factor.to_string(),
            ms(t_orig),
            ms(t_rw),
            ms(t_orig_no),
            ms(t_rw_no),
        ]);
    }
    report
}

/// Figure 10: rewritten-query time over database size (the paper's 0.1, 0.5,
/// 1, 2 GB become 0.1×, 0.5×, 1×, 2× the base scale), `if = 3`. Query 9 is
/// omitted exactly as the paper omits it from this figure.
pub fn fig10(base_sf: f64, runs: usize) -> Report {
    let sizes = [0.1, 0.5, 1.0, 2.0];
    let headers: Vec<String> = std::iter::once("query".to_string())
        .chain(sizes.iter().map(|s| format!("{s}x base (ms)")))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut report = Report::new(
        "Figure 10: rewritten-query time over DB size (if = 3)",
        &headers_ref,
    );
    report.note(format!("base sf = {base_sf}, median of {runs} runs"));
    report.note("paper: running times grow linearly with database size");

    let ids: Vec<u8> = QUERY_IDS.iter().copied().filter(|&q| q != 9).collect();
    let dbs: Vec<DirtyDatabase> = sizes
        .iter()
        .map(|mult| {
            dirty_database(config(base_sf * mult, 3, ProbMode::Uniform, 7)).expect("pipeline")
        })
        .collect();
    for id in ids {
        let sql = query_sql(id, true);
        let mut row = vec![format!("Q{id}")];
        for db in &dbs {
            let rewritten = db.rewrite(&sql).expect("rewritable");
            let stmt = db.db().prepare_select(&rewritten).expect("prepares");
            let (t, _) = median_time(runs, || stmt.query(db.db()).expect("runs").len());
            row.push(ms(t));
        }
        report.push_row(row);
    }
    report
}
