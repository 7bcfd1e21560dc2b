//! End-to-end pipeline tests exercising the same flows as the examples and
//! the CLI: persistence round-trips through a dirty database; the matcher →
//! probabilities → clean answers chain on raw duplicated data; top-k and
//! threshold retrieval on generated workloads.

use conquer::prelude::*;
use conquer_core::DirtyTableMeta;
use conquer_datagen::{
    dirty::{dirty_database, ProbMode, UisConfig},
    perturb::PerturbOptions,
    queries::query_sql,
    tpch::TpchConfig,
};
use conquer_prob::{
    assign_probabilities_into, pairwise_quality, sorted_neighborhood, Clustering,
    SortedNeighborhoodConfig,
};
use conquer_storage::Value;

fn small_dirty() -> conquer_core::DirtyDatabase {
    dirty_database(UisConfig {
        tpch: TpchConfig { sf: 0.01, seed: 31 },
        if_factor: 3,
        prob_mode: ProbMode::InfoLoss,
        perturb: PerturbOptions::default(),
    })
    .unwrap()
}

#[test]
fn dirty_database_survives_persistence() {
    let dirty = small_dirty();
    let dir = std::env::temp_dir().join(format!("conquer_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    conquer_storage::save_catalog(dirty.db().catalog(), &dir).unwrap();
    let restored = Database::from_catalog(conquer_storage::load_catalog(&dir).unwrap());
    let restored = conquer_core::DirtyDatabase::new(restored, dirty.spec().clone()).unwrap();

    let sql = query_sql(3, false);
    let before = dirty.clean_answers(&sql).unwrap();
    let after = restored.clean_answers(&sql).unwrap();
    assert!(
        before.approx_same(&after, 1e-9),
        "answers must survive a save/load cycle"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn matcher_to_clean_answers_pipeline() {
    // Raw duplicated data → merge/purge clustering → Figure-5 probabilities
    // → clean answers, without ever consulting the generator's ground-truth
    // identifiers (except to score the matcher).
    let generated = conquer_datagen::dirty::generate_unpropagated(UisConfig {
        tpch: TpchConfig { sf: 0.02, seed: 77 },
        if_factor: 2,
        prob_mode: ProbMode::Uniform,
        perturb: PerturbOptions {
            field_probability: 0.2,
            ..Default::default()
        },
    })
    .unwrap();
    let mut customer = generated.catalog.table("customer").unwrap().clone();
    let truth = Clustering::from_id_column(&customer, "c_custkey").unwrap();

    let predicted = sorted_neighborhood(
        &customer,
        &SortedNeighborhoodConfig {
            attributes: vec!["c_name".into(), "c_address".into(), "c_phone".into()],
            window: 10,
            threshold: 0.72,
        },
    )
    .unwrap();
    let (precision, recall, f1) = pairwise_quality(&predicted, &truth);
    assert!(precision > 0.95, "precision {precision}");
    assert!(recall > 0.75, "recall {recall}");
    assert!(f1 > 0.85, "f1 {f1}");

    // Install discovered ids, assign probabilities, query.
    let mut labels = vec![0i64; customer.len()];
    for (ci, cluster) in predicted.clusters().iter().enumerate() {
        for &row in cluster {
            labels[row] = ci as i64;
        }
    }
    customer
        .update_column("c_custkey", |i, _| Value::Int(labels[i]))
        .unwrap();
    assign_probabilities_into(
        &mut customer,
        &["c_name", "c_address", "c_phone", "c_mktsegment"],
        "c_custkey",
        "prob",
        &InfoLossDistance,
    )
    .unwrap();

    let mut db = Database::new();
    db.catalog_mut().add_table(customer).unwrap();
    let dirty = DirtyDatabase::new(
        db,
        DirtySpec::new().with("customer", DirtyTableMeta::new("c_custkey", "prob")),
    )
    .unwrap();
    let answers = dirty
        .clean_answers("SELECT c_custkey FROM customer WHERE c_acctbal > 0")
        .unwrap();
    assert!(!answers.is_empty());
    for (_, p) in &answers.rows {
        assert!((0.0..=1.0 + 1e-9).contains(p));
    }
}

#[test]
fn topk_and_threshold_on_generated_workload() {
    let dirty = small_dirty();
    let sql = query_sql(3, false);
    let all = dirty.clean_answers(&sql).unwrap();
    if all.is_empty() {
        panic!("workload query should produce answers");
    }

    let k = 5.min(all.len() as u64);
    let top = dirty.clean_answers_topk(&sql, k).unwrap();
    assert_eq!(top.len(), k as usize);
    // top-k really are the k largest probabilities.
    let mut probs: Vec<f64> = all.rows.iter().map(|(_, p)| *p).collect();
    probs.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let kth = probs[k as usize - 1];
    for (_, p) in &top.rows {
        assert!(*p >= kth - 1e-9, "top-k answer below the k-th probability");
    }

    let certain = dirty.clean_answers_above(&sql, 0.999).unwrap();
    assert_eq!(
        certain.len(),
        all.rows.iter().filter(|(_, p)| *p >= 0.999).count(),
        "threshold filtering must agree with post-hoc filtering"
    );
}

#[test]
fn expected_aggregates_match_entity_counts_on_tpch() {
    // After identifier propagation every duplicate of an order references
    // the same customer identifier, so the expected join count equals the
    // clean (entity-level) count exactly.
    let dirty = small_dirty();
    let clean = dirty_database(UisConfig {
        tpch: TpchConfig { sf: 0.01, seed: 31 },
        if_factor: 1,
        prob_mode: ProbMode::Uniform,
        perturb: PerturbOptions::default(),
    })
    .unwrap();

    let sql = "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey";
    let expected = dirty.expected_answers(sql).unwrap();
    let truth = clean.db().prepare(sql).unwrap().query(clean.db()).unwrap();
    let got = expected.rows[0][0].as_f64().unwrap();
    let want = truth.rows[0][0].as_f64().unwrap();
    assert!(
        (got - want).abs() < 1e-6,
        "expected count {got} vs clean ground truth {want}"
    );
}
