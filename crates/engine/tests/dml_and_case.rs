//! Integration tests for DELETE / UPDATE statements and CASE expressions.

use conquer_engine::database::ExecOutcome;
use conquer_engine::{Database, QueryResult};
use conquer_storage::Value;

fn q(db: &Database, sql: &str) -> QueryResult {
    db.prepare(sql).unwrap().query(db).unwrap()
}

fn x(db: &mut Database, sql: &str) -> conquer_engine::Result<ExecOutcome> {
    db.prepare(sql)?.run(db)
}

fn db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE emp (id INTEGER, name TEXT, dept TEXT, salary INTEGER);
         INSERT INTO emp VALUES
           (1, 'ann', 'eng', 100),
           (2, 'bob', 'eng', 80),
           (3, 'cat', 'ops', 60),
           (4, 'dan', 'ops', NULL);",
    )
    .unwrap();
    db
}

#[test]
fn delete_with_predicate() {
    let mut db = db();
    let out = x(&mut db, "DELETE FROM emp WHERE dept = 'ops'").unwrap();
    assert_eq!(out, ExecOutcome::Deleted(2));
    assert_eq!(db.catalog().table("emp").unwrap().len(), 2);
    // NULL-salary row was in ops; predicate on dept still caught it.
    let r = q(&db, "SELECT name FROM emp ORDER BY id");
    assert_eq!(r.rows, vec![vec!["ann".into()], vec!["bob".into()]]);
}

#[test]
fn delete_all_and_with_null_semantics() {
    let mut db = db();
    // salary > 70 is NULL for dan → not deleted (3VL).
    let out = x(&mut db, "DELETE FROM emp WHERE salary > 70").unwrap();
    assert_eq!(out, ExecOutcome::Deleted(2));
    let out = x(&mut db, "DELETE FROM emp").unwrap();
    assert_eq!(out, ExecOutcome::Deleted(2));
    assert!(db.catalog().table("emp").unwrap().is_empty());
}

#[test]
fn update_with_expressions_over_old_values() {
    let mut db = db();
    let out = x(
        &mut db,
        "UPDATE emp SET salary = salary + 10, name = 'x' WHERE dept = 'eng'",
    )
    .unwrap();
    assert_eq!(out, ExecOutcome::Updated(2));
    let r = q(&db, "SELECT name, salary FROM emp ORDER BY id");
    assert_eq!(r.rows[0], vec!["x".into(), Value::Int(110)]);
    assert_eq!(r.rows[1], vec!["x".into(), Value::Int(90)]);
    assert_eq!(r.rows[2], vec!["cat".into(), Value::Int(60)]);
}

#[test]
fn update_swap_uses_pre_update_row() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE t (a INTEGER, b INTEGER);
         INSERT INTO t VALUES (1, 2);",
    )
    .unwrap();
    x(&mut db, "UPDATE t SET a = b, b = a").unwrap();
    let r = q(&db, "SELECT a, b FROM t");
    assert_eq!(
        r.rows,
        vec![vec![Value::Int(2), Value::Int(1)]],
        "swap must not cascade"
    );
}

#[test]
fn update_everything_without_predicate() {
    let mut db = db();
    let out = x(&mut db, "UPDATE emp SET dept = 'all'").unwrap();
    assert_eq!(out, ExecOutcome::Updated(4));
    let r = q(&db, "SELECT COUNT(*) FROM emp WHERE dept = 'all'");
    assert_eq!(r.rows[0][0], Value::Int(4));
}

#[test]
fn update_type_errors_rejected() {
    let mut db = db();
    let err = x(&mut db, "UPDATE emp SET salary = 'lots'").unwrap_err();
    assert!(err.to_string().contains("type mismatch"), "{err}");
    let err = x(&mut db, "UPDATE emp SET nothere = 1").unwrap_err();
    assert!(err.to_string().contains("nothere"), "{err}");
}

#[test]
fn searched_case_expression() {
    let db = db();
    let r = q(
        &db,
        "SELECT name, CASE WHEN salary >= 100 THEN 'high' \
                               WHEN salary >= 70 THEN 'mid' \
                               ELSE 'low' END AS band \
             FROM emp ORDER BY id",
    );
    let bands: Vec<String> = r.rows.iter().map(|row| row[1].to_string()).collect();
    // dan's NULL salary: both WHENs are NULL → ELSE fires.
    assert_eq!(bands, vec!["high", "mid", "low", "low"]);
}

#[test]
fn simple_case_expression() {
    let db = db();
    let r = q(
        &db,
        "SELECT CASE dept WHEN 'eng' THEN 1 WHEN 'ops' THEN 2 END AS code \
             FROM emp ORDER BY id",
    );
    let codes: Vec<Value> = r.rows.iter().map(|row| row[0].clone()).collect();
    assert_eq!(
        codes,
        vec![Value::Int(1), Value::Int(1), Value::Int(2), Value::Int(2)]
    );
}

#[test]
fn case_without_else_yields_null() {
    let db = db();
    let r = q(
        &db,
        "SELECT CASE WHEN salary > 1000 THEN 1 END FROM emp WHERE id = 1",
    );
    assert!(r.rows[0][0].is_null());
}

#[test]
fn case_with_mixed_arms_has_no_static_type_and_still_runs() {
    // The arms mix comparison classes, so the CASE has no static type:
    // the comparison is not a CQ0005 "always fails at runtime" — it runs,
    // and here every row takes the INTEGER arm.
    let db = db();
    let sql = "SELECT name FROM emp WHERE (CASE WHEN salary > 1000 THEN 'a' ELSE 2 END) = 2";
    assert_eq!(db.analyze(sql), vec![]);
    assert_eq!(q(&db, sql).rows.len(), 4);
    // Unary minus over a non-numeric operand is the opposite case: it
    // prepares, fails on every row, and the lint says so up front.
    let sql = "SELECT -name FROM emp";
    let codes: Vec<_> = db.analyze(sql).iter().map(|d| d.code.as_str()).collect();
    assert_eq!(codes, vec!["CQ0005"]);
    assert!(db.prepare(sql).unwrap().query(&db).is_err());
}

#[test]
fn a_sum_takes_its_arguments_static_type() {
    let db = db();
    let r = q(&db, "SELECT SUM(salary), SUM(salary * 1.0) FROM emp");
    assert_eq!(r.rows[0], vec![Value::Int(240), Value::Float(240.0)]);
    // TEXT and INTEGER arms: the argument has no static type, so its SUM
    // is exact and a DOUBLE, and a TEXT term is the statement's error.
    let sql = "SELECT SUM(CASE WHEN salary > 1000 THEN 'a' ELSE 2 END) FROM emp";
    assert_eq!(q(&db, sql).rows[0], vec![Value::Float(8.0)]);
    let sql = "SELECT SUM(CASE WHEN salary > 90 THEN 'a' ELSE 2 END) FROM emp";
    let err = db.prepare(sql).unwrap().query(&db).unwrap_err();
    assert!(err.to_string().contains("non-numeric"), "{err}");
}

#[test]
fn case_inside_aggregate_tpch_q12_style() {
    // The shape TPC-H Q12 actually uses: conditional counting.
    let db = db();
    let r = q(
        &db,
        "SELECT SUM(CASE WHEN dept = 'eng' THEN 1 ELSE 0 END) AS eng, \
                    SUM(CASE WHEN dept = 'ops' THEN 1 ELSE 0 END) AS ops \
             FROM emp",
    );
    assert_eq!(r.rows[0], vec![Value::Int(2), Value::Int(2)]);
}

#[test]
fn case_in_where_and_group_by() {
    let db = db();
    let r = q(
        &db,
        "SELECT CASE WHEN salary >= 80 THEN 'top' ELSE 'rest' END AS band, COUNT(*) \
             FROM emp WHERE CASE WHEN dept = 'eng' THEN TRUE ELSE salary > 50 END \
             GROUP BY CASE WHEN salary >= 80 THEN 'top' ELSE 'rest' END \
             ORDER BY band",
    );
    // eng rows pass unconditionally (2); ops: cat 60>50 passes, dan NULL fails.
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0], vec!["rest".into(), Value::Int(1)]);
    assert_eq!(r.rows[1], vec!["top".into(), Value::Int(2)]);
}

#[test]
fn case_printer_roundtrip() {
    for sql in [
        "SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t",
        "SELECT CASE a WHEN 1 THEN 'x' WHEN 2 THEN 'z' END FROM t",
        "SELECT CASE WHEN a > 1 AND b < 2 THEN a + 1 END FROM t",
    ] {
        let stmt = conquer_sql::parse_statement(sql).unwrap();
        let printed = stmt.to_string();
        assert_eq!(
            conquer_sql::parse_statement(&printed).unwrap(),
            stmt,
            "{printed}"
        );
    }
}

#[test]
fn dml_printer_roundtrip() {
    for sql in [
        "DELETE FROM emp WHERE salary > 10",
        "DELETE FROM emp",
        "UPDATE emp SET salary = salary * 2, name = 'n' WHERE id IN (1, 2)",
        "UPDATE emp SET dept = 'x'",
    ] {
        let stmt = conquer_sql::parse_statement(sql).unwrap();
        let printed = stmt.to_string();
        assert_eq!(
            conquer_sql::parse_statement(&printed).unwrap(),
            stmt,
            "{printed}"
        );
    }
}

#[test]
fn dirty_database_maintenance_via_dml() {
    // DELETE/UPDATE make offline cleaning expressible in SQL: drop every
    // tuple below a probability threshold, renormalize, query.
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE c (id TEXT, v INTEGER, prob DOUBLE);
         INSERT INTO c VALUES ('a', 1, 0.8), ('a', 2, 0.2), ('b', 3, 1.0);",
    )
    .unwrap();
    x(&mut db, "DELETE FROM c WHERE prob < 0.5").unwrap();
    x(&mut db, "UPDATE c SET prob = 1.0").unwrap();
    let dirty =
        conquer_core::DirtyDatabase::new(db, conquer_core::DirtySpec::uniform(&["c"])).unwrap();
    let ans = dirty
        .clean_answers("SELECT id FROM c WHERE v >= 1")
        .unwrap();
    assert_eq!(ans.len(), 2);
    assert!(ans.rows.iter().all(|(_, p)| (p - 1.0).abs() < 1e-12));
}

#[test]
fn drop_table_and_insert_select() {
    let mut db = db();
    // INSERT ... SELECT copies qualifying rows into a new table.
    x(&mut db, "CREATE TABLE highpaid (id INTEGER, name TEXT)").unwrap();
    let out = x(
        &mut db,
        "INSERT INTO highpaid (id, name) SELECT id, name FROM emp WHERE salary >= 80",
    )
    .unwrap();
    assert_eq!(out, ExecOutcome::Inserted(2));
    let r = q(&db, "SELECT name FROM highpaid ORDER BY id");
    assert_eq!(r.rows, vec![vec!["ann".into()], vec!["bob".into()]]);

    // Column-count mismatch is rejected.
    let err = x(&mut db, "INSERT INTO highpaid SELECT id FROM emp").unwrap_err();
    assert!(err.to_string().contains("columns"), "{err}");

    // DROP TABLE removes it; statements on it then fail.
    assert_eq!(
        x(&mut db, "DROP TABLE highpaid").unwrap(),
        ExecOutcome::Dropped
    );
    assert!(db.prepare("SELECT * FROM highpaid").is_err());
    assert!(x(&mut db, "DROP TABLE highpaid").is_err());

    // INSERT ... SELECT round-trips printed SQL.
    let stmt =
        conquer_sql::parse_statement("INSERT INTO t (a) SELECT x FROM u WHERE x > 1").unwrap();
    assert_eq!(
        conquer_sql::parse_statement(&stmt.to_string()).unwrap(),
        stmt
    );
    let stmt = conquer_sql::parse_statement("DROP TABLE t").unwrap();
    assert_eq!(stmt.to_string(), "DROP TABLE t");
}
