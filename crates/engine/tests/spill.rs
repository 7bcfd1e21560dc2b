//! External-memory execution tests: when a query's working set exceeds its
//! memory budget, hash join, hash aggregation, and sort must spill to disk
//! and produce *exactly* the rows an unlimited run produces — graceful
//! degradation, not wrong answers. `ResourceExhausted` is reserved for the
//! end of the escalation ladder (spilling disabled or the disk budget
//! exhausted too), spill temp directories must not outlive the query, and
//! cancellation must stay responsive while an operator is streaming
//! through spill files.
//!
//! Budgets are derived from the peak `mem` each query charges when run
//! unconstrained (`ExecStats::mem_charged`, quoted per test). A join's
//! build side holds row positions, not rows: each build tuple charges 4
//! bytes per relation it spans plus its own copy of the key — 28 B for
//! one `big` row under a normalized numeric `id` key (4 + a 24-byte
//! `Value`), whatever the table's width. Aggregation state (keys +
//! accumulators) and sort buffers (projected rows) do not depend on the
//! table's width either. Join budgets sit at ~9 % of the build side's
//! peak, so each of the 16 grace partitions fits and the first pass must
//! spill.

use std::time::{Duration, Instant};

use conquer_engine::{
    CancelToken, Database, EngineError, ExecLimits, QueryResult, SharedConfig, SharedDatabase,
};
use conquer_storage::Row;

/// One wide-ish table whose hash/sort state dwarfs a tens-of-KiB budget.
fn big_db(rows: usize) -> Database {
    let mut db = Database::new();
    db.set_limits(ExecLimits::none()); // tests control limits explicitly
    db.execute_script("CREATE TABLE big (id INTEGER, grp TEXT, val DOUBLE)")
        .unwrap();
    let mut values = Vec::new();
    for i in 0..rows {
        // Distinct-ish text keeps per-row footprint realistic and makes
        // every row a distinct group for the aggregation tests.
        values.push(format!("({i}, 'group-{:05}', {}.25)", i % 1000, i));
        if values.len() == 500 {
            db.execute_script(&format!("INSERT INTO big VALUES {}", values.join(", ")))
                .unwrap();
            values.clear();
        }
    }
    if !values.is_empty() {
        db.execute_script(&format!("INSERT INTO big VALUES {}", values.join(", ")))
            .unwrap();
    }
    db
}

fn sorted_rows(r: &QueryResult) -> Vec<Row> {
    let mut rows = r.rows.clone();
    rows.sort();
    rows
}

/// Run `sql` once without limits and once under `limits`; both must
/// produce the same multiset of rows, and the governed run must have
/// spilled. Returns the governed result for extra assertions.
fn assert_spilled_run_matches(db: &Database, sql: &str, limits: ExecLimits) -> QueryResult {
    let reference = db
        .prepare(sql)
        .unwrap()
        .query_with(db, &db.exec_context(ExecLimits::none()))
        .unwrap();
    let governed = db
        .prepare(sql)
        .unwrap()
        .query_with(db, &db.exec_context(limits))
        .unwrap();
    assert_eq!(
        sorted_rows(&reference),
        sorted_rows(&governed),
        "spilling changed the answer of {sql}"
    );
    let stats = governed.stats().expect("governed run carries stats");
    assert!(
        stats.disk_charged > 0,
        "budget {limits:?} did not force a spill for {sql}:\n{}",
        stats.render()
    );
    assert_eq!(stats.root.total_spilled(), stats.disk_charged);
    governed
}

#[test]
fn spilling_hash_join_matches_in_memory_answer() {
    let db = big_db(4000);
    // Self-equijoin: the build side (4000 tuples × 28 B = 112 000 B
    // unconstrained) cannot fit in 10 KiB; a 7 000 B partition can.
    let sql = "SELECT COUNT(*), SUM(a.val + b.val) \
               FROM big a, big b WHERE a.id = b.id";
    let governed =
        assert_spilled_run_matches(&db, sql, ExecLimits::none().with_mem_bytes(10 * 1024));
    let stats = governed.stats().unwrap();
    let mut join_spilled = false;
    stats.root.visit(&mut |_, op| {
        if op.name.starts_with("HashJoin") && op.spill_bytes > 0 {
            assert!(op.spill_partitions > 0, "{}", stats.render());
            assert!(op.spill_passes >= 1, "{}", stats.render());
            join_spilled = true;
        }
    });
    assert!(join_spilled, "no spilled HashJoin in:\n{}", stats.render());
}

#[test]
fn spilling_aggregation_matches_in_memory_answer() {
    let db = big_db(4000);
    // 1000 groups of hash-table state (243 000 B unconstrained, whatever
    // the scan's width), far over 32 KiB; LIMIT keeps the (hard-charged)
    // result buffer tiny.
    let sql = "SELECT grp, COUNT(*), SUM(val) FROM big \
               GROUP BY grp ORDER BY grp LIMIT 20";
    let governed =
        assert_spilled_run_matches(&db, sql, ExecLimits::none().with_mem_bytes(32 * 1024));
    let stats = governed.stats().unwrap();
    let mut agg_spilled = false;
    stats.root.visit(&mut |_, op| {
        if op.name.starts_with("HashAggregate") && op.spill_bytes > 0 {
            agg_spilled = true;
        }
    });
    assert!(
        agg_spilled,
        "no spilled HashAggregate in:\n{}",
        stats.render()
    );
}

#[test]
fn spilling_distinct_aggregates_survive_state_serialization() {
    let db = big_db(4000);
    // DISTINCT accumulators carry their value sets through the spill
    // files; merging partitions must not double-count. (347 000 B of
    // group state unconstrained.)
    let sql = "SELECT grp, COUNT(DISTINCT val), MIN(val), MAX(val) FROM big \
               GROUP BY grp ORDER BY grp LIMIT 20";
    assert_spilled_run_matches(&db, sql, ExecLimits::none().with_mem_bytes(32 * 1024));
}

#[test]
fn external_sort_matches_in_memory_order_exactly() {
    let db = big_db(4000);
    // ORDER BY materializes all 4000 projected rows (620 000 B
    // unconstrained; every column is read); 32 KiB forces multiple runs.
    // Order (not just multiset) must match, so compare rows verbatim.
    let sql = "SELECT id, grp, val FROM big ORDER BY val DESC, id LIMIT 50";
    let reference = db
        .prepare(sql)
        .unwrap()
        .query_with(&db, &db.exec_context(ExecLimits::none()))
        .unwrap();
    let governed = db
        .prepare(sql)
        .unwrap()
        .query_with(
            &db,
            &db.exec_context(ExecLimits::none().with_mem_bytes(32 * 1024)),
        )
        .unwrap();
    assert_eq!(reference.rows, governed.rows);
    let stats = governed.stats().unwrap();
    let mut sort_spilled = false;
    stats.root.visit(&mut |_, op| {
        if op.name.starts_with("Sort") && op.spill_bytes > 0 {
            assert!(
                op.spill_partitions >= 2,
                "expected ≥2 runs:\n{}",
                stats.render()
            );
            sort_spilled = true;
        }
    });
    assert!(sort_spilled, "no spilled Sort in:\n{}", stats.render());
}

#[test]
fn external_sort_is_stable_across_runs() {
    // Equal keys spread over many spill runs must keep input order.
    let mut db = Database::new();
    db.set_limits(ExecLimits::none());
    db.execute_script("CREATE TABLE s (k INTEGER, seq INTEGER)")
        .unwrap();
    let mut values = Vec::new();
    for i in 0..3000 {
        values.push(format!("({}, {i})", i % 3));
    }
    db.execute_script(&format!("INSERT INTO s VALUES {}", values.join(", ")))
        .unwrap();
    let sql = "SELECT k, seq FROM s ORDER BY k";
    let reference = db.prepare(sql).unwrap().query(&db).unwrap();
    // The budget must be big enough for the (hard-charged) 3000-row
    // result buffer (~216 KB) but smaller than the sort's working set
    // (~288 KB — each row carries a trailing key column).
    let governed = db
        .prepare(sql)
        .unwrap()
        .query_with(
            &db,
            &db.exec_context(ExecLimits::none().with_mem_bytes(240_000)),
        )
        .unwrap();
    assert!(governed.stats().unwrap().disk_charged > 0, "did not spill");
    assert_eq!(
        reference.rows, governed.rows,
        "external sort lost stability"
    );
}

#[test]
fn explain_analyze_reports_spill_metrics() {
    // EXPLAIN ANALYZE runs under the database default limits. The
    // aggregate holds 139 000 B of group state unconstrained.
    let mut db = big_db(4000);
    db.set_limits(ExecLimits::none().with_mem_bytes(32 * 1024));
    let r = db
        .prepare(
            "EXPLAIN ANALYZE SELECT grp, COUNT(*) FROM big \
             GROUP BY grp ORDER BY grp LIMIT 5",
        )
        .unwrap()
        .query(&db)
        .unwrap();
    let text = r
        .rows
        .iter()
        .map(|row| row[0].to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("spilled="), "{text}");
    assert!(text.contains("partitions="), "{text}");
    assert!(text.contains("passes="), "{text}");
    assert!(text.contains("Resource limits:"), "{text}");
}

#[test]
fn zero_disk_budget_restores_hard_abort() {
    let db = big_db(4000);
    // A 112 000 B build side unconstrained.
    let sql = "SELECT COUNT(*) FROM big a, big b WHERE a.id = b.id";
    let err = db
        .prepare(sql)
        .unwrap()
        .query_with(
            &db,
            &db.exec_context(
                ExecLimits::none()
                    .with_mem_bytes(10 * 1024)
                    .with_disk_bytes(0),
            ),
        )
        .unwrap_err();
    assert!(
        matches!(err, EngineError::ResourceExhausted { .. }),
        "{err:?}"
    );
    assert!(err.is_governance());
}

#[test]
fn exhausted_disk_budget_is_the_end_of_the_ladder() {
    let db = big_db(4000);
    let sql = "SELECT COUNT(*) FROM big a, big b WHERE a.id = b.id";
    // 2 KiB of disk cannot absorb a 4000-tuple build side (112 000 B in
    // memory, 200 000 B spilled).
    let err = db
        .prepare(sql)
        .unwrap()
        .query_with(
            &db,
            &db.exec_context(
                ExecLimits::none()
                    .with_mem_bytes(10 * 1024)
                    .with_disk_bytes(2 * 1024),
            ),
        )
        .unwrap_err();
    match err {
        EngineError::ResourceExhausted { limit_bytes, .. } => {
            assert_eq!(limit_bytes, 2 * 1024, "should name the disk limit");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    // The database is still usable afterwards.
    assert_eq!(
        db.prepare("SELECT COUNT(*) FROM big")
            .unwrap()
            .query(&db)
            .unwrap()
            .len(),
        1
    );
}

#[test]
fn spill_directories_do_not_outlive_the_query() {
    let base = std::env::temp_dir().join(format!(
        "conquer_spill_hygiene_{}_{}",
        std::process::id(),
        line!()
    ));
    std::fs::create_dir_all(&base).unwrap();
    let mut db = big_db(4000);
    db.set_spill_dir(&base);
    assert_eq!(db.spill_dir(), Some(base.as_path()));
    let r = db
        // Build side `a`: 112 000 B unconstrained.
        .prepare("SELECT COUNT(*), SUM(a.val) FROM big a, big b WHERE a.id = b.id")
        .unwrap()
        .query_with(
            &db,
            &db.exec_context(ExecLimits::none().with_mem_bytes(10 * 1024)),
        )
        .unwrap();
    assert!(r.stats().unwrap().disk_charged > 0, "did not spill");
    let leftovers: Vec<_> = std::fs::read_dir(&base)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(leftovers.is_empty(), "orphaned spill state: {leftovers:?}");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn a_spill_base_beneath_a_regular_file_is_a_typed_error() {
    let file = std::env::temp_dir().join(format!(
        "conquer_spill_file_{}_{}",
        std::process::id(),
        line!()
    ));
    std::fs::write(&file, b"").unwrap();
    let mut db = big_db(20_000);
    db.set_spill_dir(file.join("spill"));
    // A spilling join and a spilling GROUP BY: either way the session
    // fails once, as a typed error.
    for sql in [
        "SELECT COUNT(*), SUM(a.val) FROM big a, big b WHERE a.id = b.id",
        "SELECT id, SUM(val) FROM big GROUP BY id ORDER BY id LIMIT 5",
    ] {
        let err = db
            .prepare(sql)
            .unwrap()
            .query_with(
                &db,
                &db.exec_context(ExecLimits::none().with_mem_bytes(32 * 1024)),
            )
            .unwrap_err();
        assert!(
            err.to_string().contains("could not create spill directory"),
            "{err}"
        );
    }
    std::fs::remove_file(&file).ok();
}

#[test]
fn open_durable_spills_under_the_persistence_directory() {
    let dir = std::env::temp_dir().join(format!(
        "conquer_spill_load_{}_{}",
        std::process::id(),
        line!()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let db = big_db(1000);
    conquer_storage::save_catalog(db.catalog(), &dir).unwrap();
    let (loaded, _) = SharedDatabase::open_durable(&dir, SharedConfig::default()).unwrap();
    assert_eq!(loaded.snapshot().db().spill_dir(), Some(dir.as_path()));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cancellation_stays_responsive_while_spilling() {
    let db = big_db(20_000);
    let sql = "SELECT COUNT(*), SUM(a.val + b.val) \
               FROM big a, big b WHERE a.id = b.id";
    let stmt = db.prepare(sql).unwrap();
    // 20 000 build tuples are 560 000 B unconstrained; at 8 KiB even a
    // first-pass partition (35 000 B) must be split again, so the query
    // is still streaming spill files when the cancel fires.
    let ctx = db.exec_context(ExecLimits::none().with_mem_bytes(8 * 1024));
    let token: CancelToken = ctx.cancel_token();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            token.cancel();
        })
    };
    let start = Instant::now();
    let result = stmt.query_with(&db, &ctx);
    let elapsed = start.elapsed();
    canceller.join().unwrap();
    match result {
        Err(EngineError::Cancelled) => {}
        Ok(_) => panic!("query finished before the cancel fired; grow the dataset"),
        Err(other) => panic!("expected Cancelled, got {other:?}"),
    }
    // The spill partition/merge loops tick every few hundred rows, so the
    // abort lands well within a generous CI-safe bound.
    assert!(
        elapsed < Duration::from_secs(5),
        "cancellation took {elapsed:?} while spilling"
    );
}

/// Per-operator `(name, mem, spilled, partitions, passes)` of every
/// operator that held or spilled state, in plan order.
fn state_counters(r: &QueryResult) -> Vec<(String, u64, u64, u64, u64)> {
    let mut out = Vec::new();
    r.stats().unwrap().root.visit(&mut |_, op| {
        if op.peak_mem > 0 || op.spill_bytes > 0 {
            let name = op.name.split_whitespace().next().unwrap().to_string();
            out.push((
                name,
                op.peak_mem,
                op.spill_bytes,
                op.spill_partitions,
                op.spill_passes,
            ));
        }
    });
    out
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn spilled_aggregate_output_order_and_counters_are_pinned() {
    // Spill files are written in first-seen group order and partitioned
    // with a fixed hash, so a spilled aggregate's output *order* — not
    // just its multiset — and its spill volume are a function of the
    // input alone. The numbers below were recorded before the group
    // table became a `KeyTable`; whatever holds the groups must
    // reproduce them. Five accumulators make the group state (~555 KB)
    // nine times the projected output, so 128 KiB forces four flushes and
    // still holds the whole (hard-charged) result.
    let db = big_db(4000);
    let sql = "SELECT grp FROM big GROUP BY grp \
               HAVING COUNT(*) > 0 AND SUM(val) > 0 AND MIN(val) > 0 \
               AND MAX(val) > 0 AND AVG(val) > 0";
    let budget = 128 * 1024;
    let governed = assert_spilled_run_matches(&db, sql, ExecLimits::none().with_mem_bytes(budget));
    let counters = state_counters(&governed);
    let [(name, _, spilled, ..)] = &counters[..] else {
        panic!("{counters:?}")
    };
    assert_eq!(name, "HashAggregate");
    assert!(
        *spilled > 2 * budget,
        "fewer than two flushes: {counters:?}"
    );
    assert_eq!(
        counters,
        [("HashAggregate".to_string(), 130_980, 1_012_000, 16, 1)],
        "spill counters moved"
    );
    let order: Vec<String> = governed.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(order.len(), 1000);
    assert_eq!(
        order[..4],
        ["group-00042", "group-00063", "group-00087", "group-00098"],
        "output order moved"
    );
    assert_eq!(
        fnv1a(&order.join(",")),
        17_430_620_482_020_210_751,
        "output order moved"
    );
}

#[test]
fn in_memory_state_is_charged_to_the_byte() {
    // What a key table charges is part of its contract: budgets across
    // this suite (and users' `\limit mem`) are sized from these numbers.
    // The group and DISTINCT figures were recorded before those tables
    // became `KeyTable`s.
    let db = big_db(4000);
    let run = |sql: &str| db.prepare(sql).unwrap().query(&db).unwrap();
    // Text join key and text group key; 1000 groups. The estimates tie
    // (both scans are of 4000-row `big`), so the left input `a` is the
    // build side: 4000 build tuples, each charging one 4-byte position
    // plus its own copy of an 11-character text key (24 + 11 B) — 39 B,
    // 156 000 B in all. It is held until the probe side is exhausted, so
    // the peak is both tables at once.
    let joined = run("SELECT a.grp, COUNT(*), SUM(b.val) FROM big a, big b \
                      WHERE a.grp = b.grp AND b.id < 1000 GROUP BY a.grp");
    assert_eq!(
        state_counters(&joined),
        [
            ("HashAggregate".to_string(), 243_000, 0, 0, 0),
            ("HashJoin".to_string(), 156_000, 0, 0, 0)
        ]
    );
    assert_eq!(joined.stats().unwrap().mem_charged, 399_000);
    let distinct = run("SELECT DISTINCT grp, id - id FROM big");
    assert_eq!(
        state_counters(&distinct),
        [("Distinct".to_string(), 83_000, 0, 0, 0)]
    );
    assert_eq!(distinct.stats().unwrap().mem_charged, 166_000);
    // A global aggregate's one group is reported but never charged.
    let global = run("SELECT COUNT(*), SUM(val) FROM big");
    assert_eq!(
        state_counters(&global),
        [("HashAggregate".to_string(), 208, 0, 0, 0)]
    );
}
