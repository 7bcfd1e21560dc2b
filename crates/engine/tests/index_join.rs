//! The index nested-loop join fast path must be transparent: identical
//! results with and without a pre-built identifier index.

use conquer_engine::{Database, QueryResult};
use conquer_storage::Value;

fn q(db: &Database, sql: &str) -> QueryResult {
    db.prepare(sql).unwrap().query(db).unwrap()
}

fn setup() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE parent (id INTEGER, name TEXT);
         CREATE TABLE child (cid INTEGER, fk INTEGER, v INTEGER);",
    )
    .unwrap();
    {
        let t = db.catalog_mut().table_mut("parent").unwrap();
        for i in 0..50i64 {
            t.insert(vec![(i % 20).into(), format!("p{}", i % 20).into()])
                .unwrap();
        }
    }
    {
        let t = db.catalog_mut().table_mut("child").unwrap();
        for i in 0..200i64 {
            t.insert(vec![i.into(), (i % 25).into(), (i % 7).into()])
                .unwrap();
        }
    }
    db
}

const QUERY: &str = "SELECT c.cid, p.name FROM child c, parent p WHERE c.fk = p.id";

#[test]
fn index_join_matches_hash_join() {
    let mut db = setup();
    let without = q(&db, QUERY);
    db.create_index("parent", "id").unwrap();
    let with = q(&db, QUERY);
    assert!(
        without.same_rows(&with),
        "index path must not change results"
    );
    assert!(!with.is_empty());
}

#[test]
fn index_survives_only_until_mutation() {
    let mut db = setup();
    db.create_index("parent", "id").unwrap();
    assert!(db
        .catalog()
        .table("parent")
        .unwrap()
        .existing_index("id")
        .is_some());
    db.prepare("INSERT INTO parent VALUES (99, 'new')")
        .unwrap()
        .run(&mut db)
        .unwrap();
    assert!(
        db.catalog()
            .table("parent")
            .unwrap()
            .existing_index("id")
            .is_none(),
        "mutation must invalidate the index"
    );
    // Query still answers correctly through the generic hash join.
    let r = q(&db, QUERY);
    assert!(!r.is_empty());
}

#[test]
fn fast_path_not_taken_on_type_mismatch() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE a (k INTEGER);
         CREATE TABLE b (k DOUBLE);
         INSERT INTO a VALUES (1), (2);
         INSERT INTO b VALUES (1.0), (3.0);",
    )
    .unwrap();
    db.create_index("b", "k").unwrap();
    // Int/Float cross-type equality must still match numerically (the
    // generic hash join normalizes); the index path must decline.
    let r = q(&db, "SELECT a.k FROM a, b WHERE a.k = b.k");
    assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
}

#[test]
fn filtered_scan_declines_index_path() {
    let mut db = setup();
    db.create_index("parent", "id").unwrap();
    // The filter on parent pushes into the scan, so the index (over the
    // whole table) must not be probed.
    let r = q(
        &db,
        "SELECT c.cid FROM child c, parent p WHERE c.fk = p.id AND p.id < 5",
    );
    let r2 = q(
        &setup(),
        "SELECT c.cid FROM child c, parent p WHERE c.fk = p.id AND p.id < 5",
    );
    assert!(r.same_rows(&r2));
}

#[test]
fn null_probe_keys_never_match() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE a (k INTEGER);
         CREATE TABLE b (k INTEGER, v TEXT);
         INSERT INTO a VALUES (1), (NULL);
         INSERT INTO b VALUES (1, 'x'), (NULL, 'y');",
    )
    .unwrap();
    db.create_index("b", "k").unwrap();
    let r = q(&db, "SELECT b.v FROM a, b WHERE a.k = b.k");
    assert_eq!(r.rows, vec![vec!["x".into()]], "NULL = NULL must not join");
}

/// The operators of the last run that probe a stored index.
fn index_joins(r: &QueryResult) -> Vec<String> {
    let mut names = Vec::new();
    r.stats().unwrap().root.visit(&mut |_, op| {
        if op.name.starts_with("IndexJoin ") {
            names.push(op.name.clone());
        }
    });
    names
}

#[test]
fn index_join_finds_the_index_by_base_column() {
    // The indexed column is the table's third and the query reads two of
    // its columns: the stored index and the declared type are looked up
    // by base column, and the answer rows are two cells wide.
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE parent (name TEXT, note TEXT, id INTEGER);
         CREATE TABLE child (pad TEXT, cid INTEGER, fk INTEGER);",
    )
    .unwrap();
    {
        let t = db.catalog_mut().table_mut("parent").unwrap();
        for i in 0..50i64 {
            t.insert(vec![
                format!("p{}", i % 20).into(),
                "unread".into(),
                (i % 20).into(),
            ])
            .unwrap();
        }
        let t = db.catalog_mut().table_mut("child").unwrap();
        for i in 0..200i64 {
            t.insert(vec!["unread".into(), i.into(), (i % 25).into()])
                .unwrap();
        }
    }
    let without = q(&db, QUERY);
    assert!(index_joins(&without).is_empty());
    db.create_index("parent", "id").unwrap();
    let with = q(&db, QUERY);
    assert_eq!(index_joins(&with), ["IndexJoin parent [p]"]);
    assert_eq!(without.rows, with.rows, "index path changed the answer");
    assert_eq!(with.rows.len(), 400);
    assert!(with.rows.iter().all(|row| row.len() == 2));

    // Same shape, but the probe key is a DOUBLE: the declared-type check
    // still sees the base columns and declines the raw-value lookup.
    db.execute_script(
        "CREATE TABLE fchild (pad TEXT, cid INTEGER, fk DOUBLE);
         INSERT INTO fchild VALUES ('unread', 1, 3.0), ('unread', 2, 99.0);",
    )
    .unwrap();
    db.create_index("parent", "id").unwrap();
    let r = q(
        &db,
        "SELECT c.cid, p.name FROM fchild c, parent p WHERE c.fk = p.id",
    );
    assert!(index_joins(&r).is_empty(), "Int/Float keys must hash-join");
    assert_eq!(
        r.rows.len(),
        3,
        "3.0 still meets the three parents with id 3"
    );
}
