//! Resource-governance tests: memory budgets, deadlines and cooperative
//! cancellation must abort queries with *typed* errors (never a panic or
//! an OOM), limits must compose (statement override beats database
//! default), and the numbers must show up in `EXPLAIN ANALYZE` output and
//! [`ExecStats`].

use std::time::Duration;

use conquer_engine::{CancelToken, Database, EngineError, ExecContext, ExecLimits};

/// A database big enough that joins/aggregations materialize real state.
fn sample(rows: usize) -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE fact (id INTEGER, grp TEXT, val DOUBLE);
         CREATE TABLE dim (grp TEXT, label TEXT)",
    )
    .unwrap();
    let mut values = Vec::new();
    for i in 0..rows {
        values.push(format!("({i}, 'g{}', {}.5)", i % 97, i));
    }
    db.execute_script(&format!("INSERT INTO fact VALUES {}", values.join(", ")))
        .unwrap();
    let dims: Vec<String> = (0..97).map(|g| format!("('g{g}', 'label {g}')")).collect();
    db.execute_script(&format!("INSERT INTO dim VALUES {}", dims.join(", ")))
        .unwrap();
    db
}

const JOIN_AGG: &str = "SELECT d.label, COUNT(*), SUM(f.val) \
     FROM fact f, dim d WHERE f.grp = d.grp \
     GROUP BY d.label ORDER BY d.label";

#[test]
fn memory_budget_aborts_with_typed_error() {
    let db = sample(2000);
    let stmt = db
        .prepare(JOIN_AGG)
        .unwrap()
        .with_limits(ExecLimits::none().with_mem_bytes(4 * 1024));
    match stmt.query(&db) {
        Err(EngineError::ResourceExhausted {
            limit_bytes,
            attempted_bytes,
        }) => {
            assert_eq!(limit_bytes, 4 * 1024);
            assert!(attempted_bytes > limit_bytes);
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    // Generous budget: same statement, same database, runs fine.
    let ok = db
        .prepare(JOIN_AGG)
        .unwrap()
        .with_limits(ExecLimits::none().with_mem_bytes(64 * 1024 * 1024));
    assert_eq!(ok.query(&db).unwrap().len(), 97);
}

#[test]
fn deadline_aborts_with_typed_error() {
    let db = sample(2000);
    let stmt = db
        .prepare(JOIN_AGG)
        .unwrap()
        .with_limits(ExecLimits::none().with_timeout(Duration::ZERO));
    match stmt.query(&db) {
        Err(EngineError::Timeout { limit }) => assert_eq!(limit, Duration::ZERO),
        other => panic!("expected Timeout, got {other:?}"),
    }
}

#[test]
fn database_default_limits_govern_plain_queries() {
    let mut db = sample(2000);
    db.set_limits(ExecLimits::none().with_mem_bytes(4 * 1024));
    let err = db.prepare(JOIN_AGG).unwrap().query(&db).unwrap_err();
    assert!(
        matches!(err, EngineError::ResourceExhausted { .. }),
        "{err:?}"
    );
    // Lifting the limit restores service without rebuilding the database.
    db.set_limits(ExecLimits::none());
    assert_eq!(db.prepare(JOIN_AGG).unwrap().query(&db).unwrap().len(), 97);
}

#[test]
fn statement_limits_override_database_defaults() {
    let mut db = sample(2000);
    db.set_limits(ExecLimits::none().with_mem_bytes(1024));
    // The statement's own (unlimited) limits win over the strict default.
    let stmt = db
        .prepare(JOIN_AGG)
        .unwrap()
        .with_limits(ExecLimits::none());
    assert_eq!(stmt.query(&db).unwrap().len(), 97);
    // And clearing the override falls back to the database default.
    let mut stmt = stmt;
    stmt.set_limits(None);
    assert!(stmt.query(&db).is_err());
}

#[test]
fn cancellation_aborts_with_typed_error_and_token_is_shareable() {
    let db = sample(2000);
    let stmt = db.prepare(JOIN_AGG).unwrap();
    let token = CancelToken::new();
    let ctx = ExecContext::with_token(ExecLimits::none(), token.clone());
    // Cancel from "another thread" (here: before the call; the token is
    // just a shared flag checked at batch boundaries).
    token.cancel();
    match stmt.query_with(&db, &ctx) {
        Err(EngineError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // A fresh context runs the same prepared statement fine.
    let fresh = ExecContext::new(ExecLimits::none());
    assert_eq!(stmt.query_with(&db, &fresh).unwrap().len(), 97);
}

#[test]
fn explain_analyze_runs_under_the_callers_context() {
    let db = sample(2000);
    let explain = db.prepare(&format!("EXPLAIN ANALYZE {JOIN_AGG}")).unwrap();
    let token = CancelToken::new();
    token.cancel();
    let cancelled = ExecContext::with_token(ExecLimits::none(), token);
    assert!(
        matches!(
            explain.query_with(&db, &cancelled),
            Err(EngineError::Cancelled)
        ),
        "a cancelled EXPLAIN ANALYZE ran anyway"
    );
    let starved = explain.with_limits(ExecLimits::none().with_mem_bytes(1024).with_disk_bytes(0));
    assert!(
        matches!(
            starved.query(&db),
            Err(EngineError::ResourceExhausted { .. })
        ),
        "EXPLAIN ANALYZE escaped its statement's budget"
    );
}

#[test]
fn explain_of_an_unbindable_select_fails_to_prepare() {
    let db = sample(10);
    let err = db.prepare("EXPLAIN SELECT nope FROM fact").unwrap_err();
    assert!(err.to_string().contains("nope"), "{err}");
}

#[test]
fn stats_and_explain_analyze_surface_limits() {
    let mut db = sample(500);
    db.set_limits(
        ExecLimits::none()
            .with_mem_bytes(64 * 1024 * 1024)
            .with_timeout(Duration::from_secs(30)),
    );
    let res = db.prepare(JOIN_AGG).unwrap().query(&db).unwrap();
    let stats = res.stats().expect("executor results carry stats");
    assert_eq!(stats.mem_budget, Some(64 * 1024 * 1024));
    assert!(stats.mem_charged > 0, "nothing charged? {stats:?}");
    assert_eq!(stats.timeout, Some(Duration::from_secs(30)));

    let explain = db
        .prepare(&format!("EXPLAIN ANALYZE {JOIN_AGG}"))
        .unwrap()
        .query(&db)
        .unwrap();
    let text = explain
        .rows
        .iter()
        .map(|r| r[0].to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("Resource limits:"), "{text}");
    assert!(text.contains("charged"), "{text}");

    // Ungoverned queries don't clutter the report with limits.
    db.set_limits(ExecLimits::none());
    let explain = db
        .prepare(&format!("EXPLAIN ANALYZE {JOIN_AGG}"))
        .unwrap()
        .query(&db)
        .unwrap();
    let text = explain
        .rows
        .iter()
        .map(|r| r[0].to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(!text.contains("Resource limits:"), "{text}");
}

#[test]
fn governance_errors_are_flagged_as_such() {
    let e = EngineError::ResourceExhausted {
        limit_bytes: 1,
        attempted_bytes: 2,
    };
    assert!(e.is_governance());
    assert!(EngineError::Cancelled.is_governance());
    assert!(EngineError::Timeout {
        limit: Duration::ZERO
    }
    .is_governance());
    assert!(!EngineError::internal("x").is_governance());
}
