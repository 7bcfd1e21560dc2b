//! Resource-governance tests: memory budgets, deadlines and cooperative
//! cancellation must abort queries with *typed* errors (never a panic or
//! an OOM), limits must compose (a caller's context beats the database
//! default), and the numbers must show up in `EXPLAIN ANALYZE` output and
//! [`ExecStats`]. Cancellation lands promptly mid-join, a `LIMIT` that
//! stops early hands its build table back, and queries racing on one
//! `Database` — one of them cancelled in flight — answer as a lone run.

use std::time::{Duration, Instant};

use conquer_engine::{CancelToken, Database, EngineError, ExecContext, ExecLimits, QueryResult};
use conquer_storage::Value;
use conquer_sync::{rank, Mutex, MutexGuard};

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
    let stmt = db.prepare(JOIN_AGG).unwrap();
    let tight = db.exec_context(ExecLimits::none().with_mem_bytes(4 * 1024));
    match stmt.query_with(&db, &tight) {
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
    let ok = db.exec_context(ExecLimits::none().with_mem_bytes(64 * 1024 * 1024));
    assert_eq!(stmt.query_with(&db, &ok).unwrap().len(), 97);
}

#[test]
fn deadline_aborts_with_typed_error() {
    let db = sample(2000);
    let stmt = db.prepare(JOIN_AGG).unwrap();
    let expired = db.exec_context(ExecLimits::none().with_timeout(Duration::ZERO));
    match stmt.query_with(&db, &expired) {
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
    // A context with the caller's own (unlimited) limits wins over the
    // strict default.
    let stmt = db.prepare(JOIN_AGG).unwrap();
    let unlimited = db.exec_context(ExecLimits::none());
    assert_eq!(stmt.query_with(&db, &unlimited).unwrap().len(), 97);
    // And plain `query` falls back to the database default.
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
    let starved = db.exec_context(ExecLimits::none().with_mem_bytes(1024).with_disk_bytes(0));
    assert!(
        matches!(
            explain.query_with(&db, &starved),
            Err(EngineError::ResourceExhausted { .. })
        ),
        "EXPLAIN ANALYZE escaped its caller's budget"
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

/// The tests below measure a wall-clock latency or race several queries;
/// run concurrently by libtest on a small host they starve each other into
/// flaky latency assertions, so each takes this lock first.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(&rank::TEST_SERIAL, ());
    LOCK.lock()
}

/// Rows of `big`.
const BIG_ROWS: usize = 20_000;

/// `big` (20 000 rows, 37 `grp`s) and `dim` (100 rows), unlimited
/// whatever the environment.
fn big_db() -> Database {
    let mut db = Database::new();
    db.set_limits(ExecLimits::none());
    db.execute_script(
        "CREATE TABLE big (id INTEGER, dim_id INTEGER, grp TEXT, val DOUBLE);
         CREATE TABLE dim (id INTEGER, name TEXT)",
    )
    .unwrap();
    let mut values = Vec::new();
    for i in 0..BIG_ROWS {
        // val exercises float summation: many distinct magnitudes per
        // group, so a reordered SUM would drift in the low bits.
        values.push(format!(
            "({i}, {}, 'g{:03}', {})",
            i % 100,
            i % 37,
            (i as f64) * 0.1 + 1.0 / ((i + 1) as f64)
        ));
    }
    db.execute_script(&format!("INSERT INTO big VALUES {}", values.join(", ")))
        .unwrap();
    let dims: Vec<String> = (0..100).map(|d| format!("({d}, 'dim-{d:03}')")).collect();
    db.execute_script(&format!("INSERT INTO dim VALUES {}", dims.join(", ")))
        .unwrap();
    db
}

/// A byte-exact fingerprint of a result: row order preserved, floats by
/// bit pattern.
fn fingerprint(res: &QueryResult) -> Vec<Vec<String>> {
    res.rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Float(f) => format!("f64:{:016x}", f.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect()
        })
        .collect()
}

const SUM_SQL: &str = "SELECT b.grp, d.name, COUNT(*), SUM(b.val) \
     FROM big b, dim d WHERE b.dim_id = d.id AND b.id % 3 <> 1 \
     GROUP BY b.grp, d.name ORDER BY b.grp, d.name";

/// A self-join on `grp`: ~20 000² / 37 joined tuples, far too many to
/// finish before a cancel lands.
const SELF_JOIN_SQL: &str =
    "SELECT COUNT(*), SUM(a.val + b.val) FROM big a, big b WHERE a.grp = b.grp";

#[test]
fn hash_join_rows_in_counts_build_and_probe_once() {
    let _g = lock();
    let db = big_db();
    let res = db
        .prepare("SELECT COUNT(*) FROM big b, dim d WHERE b.dim_id = d.id")
        .unwrap()
        .query(&db)
        .unwrap();
    assert_eq!(res.rows, vec![vec![Value::Int(BIG_ROWS as i64)]]);
    let stats = res.stats().unwrap();
    assert_eq!(stats.threads_used, 1);
    let mut join_rows_in = None;
    let mut scan_big_rows = None;
    stats.root.visit(&mut |_, op| {
        if op.name.starts_with("HashJoin") {
            join_rows_in = Some(op.rows_in);
        }
        if op.name.starts_with("Scan big") {
            scan_big_rows = Some(op.rows_in);
        }
    });
    // Build (100) + probe (20 000), each counted once.
    assert_eq!(join_rows_in, Some(100 + BIG_ROWS as u64), "{stats:?}");
    assert_eq!(scan_big_rows, Some(BIG_ROWS as u64), "{stats:?}");
}

#[test]
fn a_limit_that_stops_early_hands_back_the_build_table() {
    let _g = lock();
    let db = big_db();
    // LIMIT stops pulling the join mid-probe; its build-table charge must
    // still be handed back. 40 queries run against ONE budget meter: the
    // build side is the 3 000 filtered rows of `c` (~105 KiB), so leaking
    // it would blow the 256 KiB budget by the third run, while honest
    // accounting only accumulates the (tiny) result buffers.
    let ctx = db.exec_context(
        ExecLimits::none()
            .with_mem_bytes(256 << 10)
            .with_disk_bytes(0),
    );
    let stmt = db
        .prepare("SELECT b.id, b.grp FROM big c, big b WHERE c.id = b.id AND c.id < 3000 LIMIT 5")
        .unwrap();
    for run in 0..40 {
        let res = stmt
            .query_with(&db, &ctx)
            .unwrap_or_else(|e| panic!("run {run}: budget leaked across queries: {e}"));
        assert_eq!(res.rows.len(), 5);
    }
}

#[test]
fn cancellation_mid_join_returns_promptly() {
    let _g = lock();
    let db = big_db();
    let ctx = db.exec_context(ExecLimits::none());
    let token = ctx.cancel_token();
    let db = &db;
    std::thread::scope(|s| {
        let handle = s.spawn(move || {
            let stmt = db.prepare(SELF_JOIN_SQL).unwrap();
            let started = Instant::now();
            let err = stmt.query_with(db, &ctx).unwrap_err();
            (err, started.elapsed())
        });
        std::thread::sleep(Duration::from_millis(40));
        let cancelled_at = Instant::now();
        token.cancel();
        let (err, total) = handle.join().unwrap();
        let latency = cancelled_at.elapsed();
        assert!(matches!(err, EngineError::Cancelled), "got {err:?}");
        assert!(
            latency < Duration::from_millis(100),
            "cancel latency {latency:?} (query ran {total:?} total)"
        );
    });
}

#[test]
fn racing_queries_on_one_database_with_midflight_cancel() {
    let _g = lock();
    let db = big_db();
    let run = || db.prepare(SUM_SQL).unwrap().query(&db).unwrap();
    let reference = fingerprint(&run());
    assert!(!reference.is_empty());

    // Seeded so a failing schedule can be replayed: round k cancels after
    // a seed-derived delay while four racers re-check their answers.
    for round in 0u64..3 {
        let delay_ms = 10 + (round * 7919) % 35;
        let cancelled_latency = std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..2 {
                        assert_eq!(reference, fingerprint(&run()), "racing query diverged");
                    }
                });
            }
            let ctx = db.exec_context(ExecLimits::none());
            let token = ctx.cancel_token();
            let db = &db;
            let victim = s.spawn(move || db.prepare(SELF_JOIN_SQL).unwrap().query_with(db, &ctx));
            std::thread::sleep(Duration::from_millis(delay_ms));
            let at = Instant::now();
            token.cancel();
            match victim.join().unwrap() {
                Err(EngineError::Cancelled) => Some(at.elapsed()),
                Err(other) => panic!("round {round}: expected Cancelled, got {other:?}"),
                // The victim won the race against the token; legal, just
                // not the interesting schedule.
                Ok(_) => None,
            }
        });
        if let Some(latency) = cancelled_latency {
            assert!(
                latency < Duration::from_millis(100),
                "round {round}: cancel latency {latency:?}"
            );
        }
    }
}
