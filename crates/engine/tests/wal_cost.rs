//! What a durable write costs the log, counted in bytes rather than timed:
//! a commit logs the rows a statement changed as edit frames, so its bytes
//! do not grow with the table it edits or the view it maintains.

use std::path::PathBuf;

use conquer_engine::{Database, SharedConfig, SharedDatabase};
use conquer_storage::{Catalog, DataType, Schema, Table, Value};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("conquer_wal_cost_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `t (id INTEGER, g INTEGER, name TEXT, prob DOUBLE)`: `rows` rows, row
/// `i` in group `i / 2` (so every group has two rows), named `n<i>`, with
/// probability 0.5.
fn groups(rows: i64) -> Catalog {
    let schema = Schema::from_pairs([
        ("id", DataType::Int),
        ("g", DataType::Int),
        ("name", DataType::Text),
        ("prob", DataType::Float),
    ])
    .unwrap();
    let mut t = Table::new("t", schema);
    for i in 0..rows {
        let row = vec![
            Value::Int(i),
            Value::Int(i / 2),
            Value::text(format!("n{i}")),
            Value::Float(0.5),
        ];
        t.insert(row).unwrap();
    }
    let mut catalog = Catalog::new();
    catalog.add_table(t).unwrap();
    catalog
}

/// The bytes the log grows by when `sql` commits on a durable database
/// holding `catalog` after `setup`.
fn logged(tag: &str, catalog: Catalog, setup: &[&str], sql: &str) -> u64 {
    let dir = tempdir(tag);
    let (db, _) = SharedDatabase::open_durable(&dir, SharedConfig::default()).unwrap();
    db.mutate(|d| {
        *d = Database::from_catalog(catalog);
        Ok(())
    })
    .unwrap();
    let session = db.session();
    for s in setup {
        session.execute(s).unwrap();
    }
    let size = || std::fs::metadata(dir.join("wal.log")).unwrap().len();
    let before = size();
    session.execute(sql).unwrap();
    let grown = size() - before;
    assert_eq!(db.stats().checkpoints, 1, "only the load checkpointed");
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
    grown
}

#[test]
fn a_one_row_update_logs_the_same_bytes_on_a_thousand_and_a_hundred_thousand_rows() {
    let sql = "UPDATE t SET prob = 0.25 WHERE id = 7";
    let small = logged("update_small", groups(1_000), &[], sql);
    let large = logged("update_large", groups(100_000), &[], sql);
    assert_eq!(small, large);
    assert!(small < 200, "a one-row edit logged {small} bytes");
}

#[test]
fn a_fold_of_one_group_logs_the_same_bytes_on_ten_and_ten_thousand_groups() {
    let view = "CREATE MATERIALIZED VIEW v AS SELECT g, SUM(prob) AS p FROM t GROUP BY g";
    let sql = "UPDATE t SET prob = 0.25 WHERE id = 3";
    let small = logged("fold_small", groups(20), &[view], sql);
    let large = logged("fold_large", groups(20_000), &[view], sql);
    assert_eq!(small, large);
    // The base row, the group's contents and state rows, and the
    // registry row (which holds the view's SQL).
    assert!(small < 1_000, "a one-group fold logged {small} bytes");
}

#[test]
fn a_one_cluster_recluster_logs_only_that_clusters_rows() {
    // Clusters are the groups: two tuples each. Moving one tuple of
    // cluster 0 into cluster 1 renormalizes those two clusters only.
    let sql = "RECLUSTER t (g, prob) TO 1 WHERE name = 'n0'";
    let small = logged("recluster_small", groups(20), &[], sql);
    let large = logged("recluster_large", groups(20_000), &[], sql);
    assert_eq!(small, large);
    // Four rows change: the moved tuple, the one it leaves alone in
    // cluster 0 (now 1.0), and the two of cluster 1 (now 1/3 each).
    assert!(small < 400, "a one-cluster recluster logged {small} bytes");
}
