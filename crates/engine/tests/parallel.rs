//! The morsel-parallel driver's contract, tested at the engine level:
//! results are **bit-identical** at every thread count, operator
//! statistics stay exact (no double-counted build sides), governance
//! (cancellation, budgets, LIMIT early-stop) keeps working mid-pipeline,
//! and many queries — one of them cancelled in flight — can race on a
//! single `Database` without deadlock or cross-talk.

use std::sync::atomic::{AtomicU64, Ordering};

use conquer_sync::{rank, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use conquer_engine::{Database, EngineError, ExecLimits, QueryResult};
use conquer_storage::Value;

/// Every test here either measures a wall-clock latency or deliberately
/// oversubscribes the scheduler; run concurrently by libtest on a small
/// host they starve each other into flaky latency assertions. Each test
/// takes this lock first, serializing the binary.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(&rank::TEST_SERIAL, ());
    LOCK.lock()
}

/// `big` rows; > 4 morsels of 4096 so the pool genuinely splits work.
const BIG_ROWS: usize = 20_000;

fn test_db() -> Database {
    let mut db = Database::new();
    db.set_limits(ExecLimits::none());
    db.execute_script("CREATE TABLE big (id INTEGER, dim_id INTEGER, grp TEXT, val DOUBLE)")
        .unwrap();
    db.execute_script("CREATE TABLE dim (id INTEGER, name TEXT)")
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
        if values.len() == 500 {
            db.execute_script(&format!("INSERT INTO big VALUES {}", values.join(", ")))
                .unwrap();
            values.clear();
        }
    }
    for d in 0..100 {
        values.push(format!("({d}, 'dim-{d:03}')"));
    }
    db.execute_script(&format!("INSERT INTO dim VALUES {}", values.join(", ")))
        .unwrap();
    db
}

/// A byte-exact fingerprint of a result: row order preserved, floats by
/// bit pattern (`assert_eq!` on floats would already pass for -0.0 vs
/// 0.0 or drift hidden by `PartialEq`; bits are the real contract).
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

fn run_at(db: &Database, sql: &str, threads: usize) -> QueryResult {
    db.prepare(sql)
        .unwrap()
        .with_limits(ExecLimits::none().with_threads(threads))
        .query(db)
        .unwrap()
}

const SUM_SQL: &str = "SELECT b.grp, d.name, COUNT(*), SUM(b.val) \
     FROM big b, dim d WHERE b.dim_id = d.id AND b.id % 3 <> 1 \
     GROUP BY b.grp, d.name ORDER BY b.grp, d.name";

#[test]
fn results_bit_identical_across_thread_counts() {
    let _g = lock();
    let db = test_db();
    let reference = run_at(&db, SUM_SQL, 1);
    assert_eq!(reference.stats().unwrap().threads_used, 1);
    let ref_fp = fingerprint(&reference);
    assert!(!ref_fp.is_empty());
    for threads in [2, 3, 8, 16] {
        let res = run_at(&db, SUM_SQL, threads);
        let stats = res.stats().unwrap();
        assert!(
            stats.threads_used > 1 && stats.threads_used <= threads,
            "threads={threads}: pool did not engage (threads_used = {})",
            stats.threads_used
        );
        assert_eq!(
            ref_fp,
            fingerprint(&res),
            "threads={threads}: result not bit-identical to serial"
        );
    }
}

#[test]
fn hash_join_stats_count_build_rows_once() {
    let _g = lock();
    // Regression for the per-worker merge double-count: every worker
    // probes the same 100-row build table, so summing per-worker
    // `rows_in` naively would count the build side once per worker.
    let db = test_db();
    let res = run_at(
        &db,
        "SELECT COUNT(*) FROM big b, dim d WHERE b.dim_id = d.id",
        8,
    );
    assert_eq!(res.rows, vec![vec![Value::Int(BIG_ROWS as i64)]]);
    let stats = res.stats().unwrap();
    assert!(stats.threads_used > 1, "pool did not engage: {stats:?}");
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
    // Exactly build (100) + probe (20 000): counted once, not per worker.
    assert_eq!(join_rows_in, Some(100 + BIG_ROWS as u64), "{stats:?}");
    assert_eq!(scan_big_rows, Some(BIG_ROWS as u64), "{stats:?}");
}

#[test]
fn limit_stops_the_pool_early_without_leaking_budget() {
    let _g = lock();
    let db = test_db();
    // LIMIT abandons the pool mid-stream; the build-table charge must
    // still be handed back. Run 40 queries against ONE shared budget
    // meter: a leaked ~15 KiB build table per query would blow the
    // 256 KiB budget within ~17 runs, while honest accounting only
    // accumulates the (tiny) result buffers.
    let ctx = db.exec_context(
        ExecLimits::none()
            .with_threads(8)
            .with_mem_bytes(256 << 10)
            .with_disk_bytes(0),
    );
    let stmt = db
        .prepare("SELECT b.id, d.name FROM big b, dim d WHERE b.dim_id = d.id LIMIT 5")
        .unwrap();
    for run in 0..40 {
        let res = stmt
            .query_with(&db, &ctx)
            .unwrap_or_else(|e| panic!("run {run}: budget leaked across queries: {e}"));
        assert_eq!(res.rows.len(), 5);
    }
}

#[test]
fn cancellation_mid_parallel_returns_promptly() {
    let _g = lock();
    let db = test_db();
    // Self-join on grp: ~20000²/37 output rows — far too slow to finish,
    // so cancellation necessarily lands mid-pipeline.
    let sql = "SELECT COUNT(*), SUM(a.val + b.val) FROM big a, big b WHERE a.grp = b.grp";
    let ctx = db.exec_context(ExecLimits::none().with_threads(8));
    let token = ctx.cancel_token();
    std::thread::scope(|s| {
        let handle = s.spawn(|| {
            let stmt = db.prepare(sql).unwrap();
            let started = Instant::now();
            let err = stmt.query_with(&db, &ctx).unwrap_err();
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
    let db = test_db();
    let reference = fingerprint(&run_at(&db, SUM_SQL, 1));
    let cancel_sql = "SELECT COUNT(*) FROM big a, big b WHERE a.grp = b.grp";

    // Seeded so a failing schedule can be replayed: iteration k cancels
    // after seed-derived delays, workers re-check results every lap.
    for round in 0u64..3 {
        let delay_ms = 10 + (round * 7919) % 35;
        let cancelled_latency = std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for threads in [2, 8] {
                        let res = run_at(&db, SUM_SQL, threads);
                        assert_eq!(reference, fingerprint(&res), "racing query diverged");
                    }
                });
            }
            let ctx = db.exec_context(ExecLimits::none().with_threads(4));
            let token = ctx.cancel_token();
            let db = &db;
            let victim = s.spawn(move || {
                let stmt = db.prepare(cancel_sql).unwrap();
                stmt.query_with(db, &ctx)
            });
            std::thread::sleep(Duration::from_millis(delay_ms));
            let at = Instant::now();
            token.cancel();
            let outcome = victim.join().unwrap();
            match outcome {
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

#[test]
fn single_threaded_limit_and_tiny_tables_stay_serial_shaped() {
    let _g = lock();
    let mut db = test_db();
    // threads = 1 must still answer (and report itself as serial).
    let res = run_at(&db, "SELECT COUNT(*) FROM dim", 1);
    assert_eq!(res.rows, vec![vec![Value::Int(100)]]);
    assert_eq!(res.stats().unwrap().threads_used, 1);
    // A sub-morsel table can't use more than one worker even at 8, so
    // no pool is spawned for it: the tree is pulled as is.
    let res = run_at(&db, "SELECT COUNT(*) FROM dim", 8);
    assert_eq!(res.rows, vec![vec![Value::Int(100)]]);
    assert_eq!(res.stats().unwrap().threads_used, 1);
    db.set_limits(ExecLimits::none().with_threads(8));
    let stmt = conquer_sql::parse_select("SELECT COUNT(*) FROM dim").unwrap();
    let text = format!("{}", db.explain_select(&stmt, true).unwrap());
    assert!(text.contains("Scan dim"), "{text}");
    assert!(!text.contains("Gather"), "{text}");
    // Cross joins take the serial executor.
    let res = run_at(&db, "SELECT COUNT(*) FROM dim a, dim b", 8);
    assert_eq!(res.rows, vec![vec![Value::Int(100 * 100)]]);
    assert_eq!(res.stats().unwrap().threads_used, 1);
}

#[test]
fn explain_analyze_reports_gather_and_threads() {
    let _g = lock();
    let mut db = test_db();
    db.set_limits(ExecLimits::none().with_threads(8));
    let stmt = conquer_sql::parse_select(SUM_SQL).unwrap();
    let text = format!("{}", db.explain_select(&stmt, true).unwrap());
    assert!(text.contains("Gather"), "{text}");
    assert!(text.contains("HashJoin"), "{text}");
    assert!(text.contains("Scan big [b]"), "{text}");
    assert!(!text.contains("threads: 1"), "{text}");
}

#[test]
fn env_var_sets_default_thread_count() {
    let _g = lock();
    // This binary's only env read; no other test races it.
    std::env::set_var("CONQUER_THREADS", "3");
    let limits = ExecLimits::from_env();
    std::env::remove_var("CONQUER_THREADS");
    assert_eq!(limits.threads, Some(3));
    let db = test_db();
    let res = db
        .prepare(SUM_SQL)
        .unwrap()
        .with_limits(limits)
        .query(&db)
        .unwrap();
    let used = res.stats().unwrap().threads_used;
    assert!(used > 1 && used <= 3, "threads_used = {used}");
}

#[test]
fn deterministic_under_adversarial_scheduling() {
    let _g = lock();
    // Hammer the scheduler: tiny morsel queue vs. skewed per-row work,
    // many repetitions. Any order-dependence in the merge shows up as a
    // fingerprint change.
    let db = test_db();
    let reference = fingerprint(&run_at(&db, SUM_SQL, 1));
    let drift = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| {
                for threads in [2, 5, 8] {
                    if fingerprint(&run_at(&db, SUM_SQL, threads)) != reference {
                        drift.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(drift.load(Ordering::Relaxed), 0, "nondeterministic result");
}
