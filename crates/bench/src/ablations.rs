//! Extension ablations (beyond the paper's figures): naive-vs-rewritten
//! latency by candidate count and probability-assignment mode costs.

use conquer_core::{naive::NaiveOptions, DirtyDatabase, DirtySpec, EvalStrategy};
use conquer_datagen::{
    dirty::{compute_probabilities, generate_unpropagated, ProbMode, UisConfig},
    perturb::PerturbOptions,
    tpch::TpchConfig,
};
use conquer_engine::Database;

use crate::harness::{median_time, Report};

/// A two-table dirty database with `clusters` clusters of two tuples each.
fn tiny(clusters: usize) -> DirtyDatabase {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE r (id TEXT, a INTEGER, prob DOUBLE);
         CREATE TABLE s (id TEXT, fk TEXT, prob DOUBLE)",
    )
    .unwrap();
    {
        let t = db.catalog_mut().table_mut("r").unwrap();
        for i in 0..clusters as i64 {
            t.insert(vec![format!("r{i}").into(), i.into(), 0.5.into()])
                .unwrap();
            t.insert(vec![format!("r{i}").into(), (i + 1).into(), 0.5.into()])
                .unwrap();
        }
    }
    {
        let t = db.catalog_mut().table_mut("s").unwrap();
        for i in 0..clusters as i64 {
            t.insert(vec![
                format!("s{i}").into(),
                format!("r{i}").into(),
                1.0.into(),
            ])
            .unwrap();
        }
    }
    DirtyDatabase::new(db, DirtySpec::uniform(&["r", "s"])).unwrap()
}

/// Naive candidate enumeration vs `RewriteClean`, by candidate count.
pub fn naive_vs_rewritten(runs: usize) -> Report {
    let mut report = Report::new(
        "Ablation: naive enumeration vs RewriteClean",
        &[
            "clusters",
            "candidates",
            "naive (ms)",
            "rewritten (ms)",
            "speedup",
        ],
    );
    report.note("the motivation for Section 3: enumeration is exponential, the rewriting is not");
    let sql = "select s.id, r.id from s, r where s.fk = r.id and r.a > 0";
    for clusters in [4usize, 8, 12, 16] {
        let db = tiny(clusters);
        let candidates = db.candidate_count(None).unwrap();
        let (t_naive, _) = median_time(runs, || {
            db.clean_answers_with(sql, EvalStrategy::Naive(NaiveOptions::default()))
                .expect("small enough")
                .len()
        });
        let (t_rw, _) = median_time(runs, || db.clean_answers(sql).expect("rewritable").len());
        report.push_row(vec![
            clusters.to_string(),
            candidates.to_string(),
            format!("{:.2}", t_naive.as_secs_f64() * 1e3),
            format!("{:.3}", t_rw.as_secs_f64() * 1e3),
            format!(
                "{:.0}x",
                t_naive.as_secs_f64() / t_rw.as_secs_f64().max(1e-12)
            ),
        ]);
    }
    report
}

/// Offline cost of each probability-assignment mode on `customer`.
pub fn probability_modes(sf: f64, runs: usize) -> Report {
    let mut report = Report::new(
        "Ablation: probability assignment modes on customer",
        &["mode", "time (ms)"],
    );
    report.note(format!("sf = {sf}, if = 5, median of {runs} runs"));
    let dirty = generate_unpropagated(UisConfig {
        tpch: TpchConfig { sf, seed: 7 },
        if_factor: 5,
        prob_mode: ProbMode::Uniform,
        perturb: PerturbOptions::default(),
    })
    .expect("generator");
    for (label, mode) in [
        ("uniform", ProbMode::Uniform),
        ("random", ProbMode::Random),
        ("provenance", ProbMode::Provenance),
        ("info-loss (Section 4)", ProbMode::InfoLoss),
    ] {
        let (t, _) = median_time(runs, || {
            let mut cat = dirty.catalog.clone();
            compute_probabilities(&mut cat, "customer", mode, 7).expect("attributes exist");
            cat.table("customer").expect("present").len()
        });
        report.push_row(vec![
            label.to_string(),
            format!("{:.2}", t.as_secs_f64() * 1e3),
        ]);
    }
    report
}
