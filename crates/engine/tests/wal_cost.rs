//! What a durable write costs the log, counted in bytes rather than timed:
//! a commit logs the rows a statement changed as edit frames, so its bytes
//! do not grow with the table it edits or the view it maintains, and never
//! repeat a view's definition.

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
    appended(tag, catalog, setup, sql).0.len() as u64
}

/// What the log grows by when `sql` commits on a durable database holding
/// `catalog` after `setup`, and the defining SQL of every view it holds.
fn appended(tag: &str, catalog: Catalog, setup: &[&str], sql: &str) -> (Vec<u8>, Vec<String>) {
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
    let log = || std::fs::read(dir.join("wal.log")).unwrap();
    let before = log().len();
    session.execute(sql).unwrap();
    let grown = log()[before..].to_vec();
    assert_eq!(db.stats().checkpoints, 1, "only the load checkpointed");
    let views = db.snapshot().db().views().map(|v| v.sql()).collect();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
    (grown, views)
}

/// The `(tag, table name)` of every frame in `bytes` but the commit: the
/// log's frames are `[u32 LE length][u64 LE checksum][tag][name]…`.
fn frames(mut bytes: &[u8]) -> Vec<(u8, String)> {
    const TAG_COMMIT: u8 = 3;
    let u32_at = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let len = u32_at(bytes, 0) as usize;
        let payload = &bytes[12..12 + len];
        if payload[0] != TAG_COMMIT {
            let name = &payload[5..5 + u32_at(payload, 1) as usize];
            out.push((payload[0], String::from_utf8(name.to_vec()).unwrap()));
        }
        bytes = &bytes[12 + len..];
    }
    out
}

/// `u (g INTEGER, w TEXT)`: groups 0 to 3 of [`groups`]' `t`, one row each.
const JOINED: &[&str] = &[
    "CREATE TABLE u (g INTEGER, w TEXT)",
    "INSERT INTO u VALUES (0, 'x'), (1, 'y'), (2, 'y'), (3, 'z')",
    "CREATE MATERIALIZED VIEW v AS SELECT g, SUM(prob) AS p FROM t GROUP BY g",
    "CREATE MATERIALIZED VIEW vj AS SELECT u.w, SUM(t.prob) AS p FROM t, u \
     WHERE t.g = u.g GROUP BY u.w",
];

#[test]
fn a_maintained_write_logs_no_byte_of_any_views_definition() {
    let sql = "UPDATE t SET prob = 0.25 WHERE id = 3";
    let (bytes, views) = appended("definition", groups(20), JOINED, sql);
    assert_eq!(views.len(), 2);
    for view in views {
        let found = bytes.windows(view.len()).any(|w| w == view.as_bytes());
        assert!(!found, "the commit logged the definition {view:?}");
    }
    let names: Vec<String> = frames(&bytes).into_iter().map(|(_, name)| name).collect();
    assert_eq!(
        names,
        [
            "__conquer_view_state_v",
            "__conquer_view_state_vj",
            "t",
            "v",
            "vj"
        ],
        "both views are maintained"
    );
}

#[test]
fn a_delta_that_joins_nothing_commits_only_its_base_tables_edit_frame() {
    // Row 20 is in group 10, which has no row in `u`; `vj` is the only
    // view over `t`.
    let setup = [JOINED[0], JOINED[1], JOINED[3]];
    let sql = "UPDATE t SET prob = 0.25 WHERE id = 20";
    let (bytes, _) = appended("joins_nothing", groups(22), &setup, sql);
    const TAG_EDIT: u8 = 5;
    assert_eq!(frames(&bytes), [(TAG_EDIT, "t".to_string())]);
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
    // The base row and the group's contents and state rows.
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
