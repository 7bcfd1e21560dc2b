//! A directory whose view state table still has the per-contribution
//! layout (group key plus one unaggregated term per join row, no count or
//! accumulator column) must not be misread: maintenance refuses it with a
//! typed error that names the view and the repair, the failed statement
//! publishes nothing, and `REFRESH MATERIALIZED VIEW` rebuilds the state so
//! maintenance works again.

use conquer_engine::view::state_table_name;
use conquer_engine::{Database, EngineError, SharedConfig, SharedDatabase};
use conquer_storage::{DataType, Schema, Table, Value};

fn rows(db: &SharedDatabase, sql: &str) -> Vec<Vec<Value>> {
    db.session().query(sql).unwrap().result.rows.clone()
}

#[test]
fn a_per_contribution_state_table_is_refused_until_refresh() {
    let dir = std::env::temp_dir().join(format!("conquer_view_upgrade_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Build the view, then put back the state table the per-contribution
    // layout wrote: the key and the term of every contribution, in key
    // order.
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE t (id TEXT, g INTEGER, prob DOUBLE);
         INSERT INTO t VALUES ('a', 1, 0.5), ('a', 2, 0.5), ('b', 1, 0.25), ('b', 1, 0.75);
         CREATE MATERIALIZED VIEW v AS SELECT g, SUM(prob) AS p FROM t GROUP BY g",
    )
    .unwrap();
    let mut old = Table::new(
        state_table_name("v"),
        Schema::from_pairs([("g", DataType::Int), ("p", DataType::Float)]).unwrap(),
    );
    for (g, p) in [(1, 0.25), (1, 0.5), (1, 0.75), (2, 0.5)] {
        old.insert(vec![Value::Int(g), Value::Float(p)]).unwrap();
    }
    db.catalog_mut().replace_table(old);
    db.save_to_dir(&dir).unwrap();

    let (shared, _) = SharedDatabase::open_durable(&dir, SharedConfig::default()).unwrap();
    let session = shared.session();
    let before = rows(&shared, "SELECT g, p FROM v ORDER BY g");
    let epoch = shared.epoch();

    let err = session
        .execute("INSERT INTO t VALUES ('c', 1, 0.125)")
        .unwrap_err();
    assert!(
        matches!(&err, EngineError::NotMaintainable(m)
            if m.contains("\"v\"") && m.contains("REFRESH MATERIALIZED VIEW v")),
        "{err:?}"
    );
    assert_eq!(
        shared.epoch(),
        epoch,
        "a refused statement publishes nothing"
    );
    assert_eq!(
        rows(&shared, "SELECT COUNT(*) FROM t"),
        vec![vec![Value::Int(4)]]
    );
    assert_eq!(rows(&shared, "SELECT g, p FROM v ORDER BY g"), before);

    // REFRESH replaces both view tables, which is the repair.
    session.execute("REFRESH MATERIALIZED VIEW v").unwrap();
    session
        .execute("INSERT INTO t VALUES ('c', 1, 0.125)")
        .unwrap();
    let recomputed = "SELECT g, SUM(prob) AS p FROM t GROUP BY g ORDER BY g";
    assert_eq!(
        rows(&shared, "SELECT g, p FROM v ORDER BY g"),
        rows(&shared, recomputed)
    );
    assert_eq!(
        rows(
            &shared,
            &format!("SELECT COUNT(*) FROM {}", state_table_name("v"))
        ),
        vec![vec![Value::Int(2)]],
        "the rebuilt state holds one row per group"
    );

    // And the repair is durable.
    drop(session);
    drop(shared);
    let (shared, _) = SharedDatabase::open_durable(&dir, SharedConfig::default()).unwrap();
    shared
        .session()
        .execute("DELETE FROM t WHERE id = 'b'")
        .unwrap();
    assert_eq!(
        rows(&shared, "SELECT g, p FROM v ORDER BY g"),
        rows(&shared, recomputed)
    );
    drop(shared);
    let _ = std::fs::remove_dir_all(&dir);
}
