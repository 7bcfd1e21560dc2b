//! Read-path contract of [`SharedDatabase`]: a cached result is served
//! exactly while every table it read is unchanged — a write misses the
//! answers that read what it wrote and keeps the rest — answers served
//! through the cache must be byte-identical to freshly prepared ones
//! (float bits included), every entry point answers a read the same way,
//! and the stats counters must prove each result-cache miss was prepared
//! exactly once.

use std::sync::Arc;

use conquer_engine::{
    Database, ErrorKind, ExecLimits, QuerySource, SessionOutcome, SessionResult, SharedConfig,
    SharedDatabase,
};
use conquer_storage::Value;

fn sample() -> SharedDatabase {
    sample_with(SharedConfig::default())
}

fn sample_with(config: SharedConfig) -> SharedDatabase {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE m (grp TEXT, w DOUBLE);
         INSERT INTO m VALUES
           ('a', 0.1), ('a', 0.2), ('a', 0.30000000000000004),
           ('b', 1e-300), ('b', 2.5), ('b', -0.0)",
    )
    .unwrap();
    SharedDatabase::with_config(db, config)
}

/// Float-summing SQL whose result depends on exact accumulation order —
/// the sharpest probe for "byte-identical".
const SUM_SQL: &str = "SELECT grp, SUM(w), COUNT(*) FROM m GROUP BY grp ORDER BY grp";

/// Compare two results down to the f64 bit pattern.
fn assert_bit_identical(a: &[Vec<Value>], b: &[Vec<Value>]) {
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(ra.len(), rb.len());
        for (va, vb) in ra.iter().zip(rb) {
            match (va, vb) {
                (Value::Float(fa), Value::Float(fb)) => {
                    assert_eq!(fa.to_bits(), fb.to_bits(), "{fa} vs {fb}")
                }
                _ => assert_eq!(va, vb),
            }
        }
    }
}

#[test]
fn cached_answers_are_bit_identical_to_fresh_prepare() {
    let shared = sample();
    let session = shared.session();

    // Fresh → result-cached: both sources, one answer.
    let fresh = session.query(SUM_SQL).unwrap();
    assert_eq!(fresh.source, QuerySource::Fresh);
    let hit = session.query(SUM_SQL).unwrap();
    assert_eq!(hit.source, QuerySource::ResultCache);
    assert_bit_identical(&fresh.result.rows, &hit.result.rows);

    // And against a from-scratch prepare that bypasses the cache.
    assert_bit_identical(&fresh.result.rows, &scratch(&shared, SUM_SQL));
}

/// A second table no query over `m` reads.
const OTHER_SQL: &str = "SELECT COUNT(*) FROM other";

fn with_other_table(shared: &SharedDatabase) {
    let session = shared.session();
    session.execute("CREATE TABLE other (x INTEGER)").unwrap();
    session.execute("INSERT INTO other VALUES (1)").unwrap();
}

/// The same SQL run on the current version, bypassing the cache.
fn scratch(shared: &SharedDatabase, sql: &str) -> Vec<Vec<Value>> {
    let snap = shared.snapshot();
    let db = snap.db();
    db.prepare(sql).unwrap().query(db).unwrap().rows
}

#[test]
fn a_write_misses_only_the_answers_that_read_its_table() {
    let shared = sample();
    with_other_table(&shared);
    let session = shared.session();
    session.query(SUM_SQL).unwrap();
    session.query(OTHER_SQL).unwrap();
    let before = shared.stats();
    assert_eq!(before.result_entries, 2);

    session.execute("INSERT INTO m VALUES ('c', 7.5)").unwrap();

    let after = shared.stats();
    assert_eq!(after.epoch, before.epoch + 1);
    assert_eq!(after.result_entries, 2, "the writer never sweeps the cache");
    assert_eq!(after.evictions, before.evictions);

    // The answer over `m` re-prepares and sees the new row ...
    let fresh = session.query(SUM_SQL).unwrap();
    assert_eq!(fresh.source, QuerySource::Fresh);
    assert_eq!(fresh.epoch, after.epoch);
    assert_eq!(fresh.result.len(), 3);
    // ... and the one over `other` is still served.
    let kept = session.query(OTHER_SQL).unwrap();
    assert_eq!(
        (kept.source, kept.epoch),
        (QuerySource::ResultCache, after.epoch)
    );
}

#[test]
fn a_write_to_an_unrelated_table_keeps_the_entry_bit_identical() {
    let shared = sample();
    let session = shared.session();
    session.query(SUM_SQL).unwrap();

    with_other_table(&shared);
    let hit = session.query(SUM_SQL).unwrap();
    assert_eq!(hit.source, QuerySource::ResultCache);
    assert_eq!(hit.epoch, 2, "a hit reports the epoch the read pinned");
    assert_bit_identical(&hit.result.rows, &scratch(&shared, SUM_SQL));
}

#[test]
fn a_dropped_and_recreated_table_misses_even_with_the_same_rows() {
    let shared = sample();
    with_other_table(&shared);
    let session = shared.session();
    let sql = "SELECT COUNT(*) FROM m";
    let first = session.query(sql).unwrap();
    session.query(OTHER_SQL).unwrap();

    session.execute("DROP TABLE m").unwrap();
    session
        .execute("CREATE TABLE m (grp TEXT, w DOUBLE)")
        .unwrap();
    session
        .execute(
            "INSERT INTO m VALUES ('a', 0.1), ('a', 0.2), ('a', 0.30000000000000004), \
             ('b', 1e-300), ('b', 2.5), ('b', -0.0)",
        )
        .unwrap();

    let again = session.query(sql).unwrap();
    assert_eq!(
        again.source,
        QuerySource::Fresh,
        "a new table is a new allocation"
    );
    assert_eq!(again.result.rows, first.result.rows);
    assert_eq!(
        session.query(OTHER_SQL).unwrap().source,
        QuerySource::ResultCache
    );
}

#[test]
fn a_maintained_view_misses_only_when_its_delta_changes_it() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE r (k INTEGER, w DOUBLE);
         CREATE TABLE s (k INTEGER, w DOUBLE);
         INSERT INTO r VALUES (1, 0.5), (2, 0.25);
         INSERT INTO s VALUES (1, 0.5), (2, 0.5);
         CREATE MATERIALIZED VIEW v AS
           SELECT r.k, SUM(r.w * s.w) AS p FROM r, s WHERE r.k = s.k GROUP BY r.k",
    )
    .unwrap();
    let shared = SharedDatabase::new(db);
    let session = shared.session();
    let sql = "SELECT k, p FROM v ORDER BY k";
    session.query(sql).unwrap();

    // A base row that joins: the view's table is rewritten, the read misses.
    session.execute("INSERT INTO r VALUES (2, 0.5)").unwrap();
    let changed = session.query(sql).unwrap();
    assert_eq!(changed.source, QuerySource::Fresh);
    assert_bit_identical(&changed.result.rows, &scratch(&shared, sql));

    // A base row that joins nothing leaves the view's table as it was.
    session.execute("INSERT INTO r VALUES (9, 0.5)").unwrap();
    let kept = session.query(sql).unwrap();
    assert_eq!(kept.source, QuerySource::ResultCache);
    assert_eq!(kept.epoch, shared.epoch());
    assert_bit_identical(&kept.result.rows, &scratch(&shared, sql));
}

#[test]
fn the_cache_does_not_pin_tables_a_write_replaced() {
    let shared = sample();
    let session = shared.session();
    session.query(SUM_SQL).unwrap();
    let old = Arc::downgrade(shared.snapshot().db().catalog().shared("m").unwrap());

    session.execute("INSERT INTO m VALUES ('c', 7.5)").unwrap();

    assert_eq!(
        shared.stats().result_entries,
        1,
        "the entry that read m is kept"
    );
    assert!(
        old.upgrade().is_none(),
        "the pre-write table must die with the last snapshot that held it"
    );
}

#[test]
fn re_prepared_answers_after_bump_match_fresh_prepare() {
    let shared = sample();
    let session = shared.session();
    session.query(SUM_SQL).unwrap();
    session.execute("INSERT INTO m VALUES ('a', 0.4)").unwrap();

    // Served answer at the new epoch vs a cache-bypassing fresh prepare.
    let served = session.query(SUM_SQL).unwrap();
    assert_bit_identical(&served.result.rows, &scratch(&shared, SUM_SQL));

    // And the served answer is now cacheable again at the new epoch.
    let hit = session.query(SUM_SQL).unwrap();
    assert_eq!(hit.source, QuerySource::ResultCache);
    assert_eq!(hit.epoch, 1);
    assert_bit_identical(&served.result.rows, &hit.result.rows);
}

/// The rows `Session::execute` answered a `SELECT` with.
fn executed_rows(session: &conquer_engine::Session, sql: &str) -> SessionResult {
    match session.execute(sql).unwrap() {
        SessionOutcome::Rows(r) => r,
        other => panic!("a SELECT must produce rows, got {other:?}"),
    }
}

#[test]
fn execute_and_query_answer_from_one_read_path() {
    let shared = sample();
    let session = shared.session();

    let first = executed_rows(&session, SUM_SQL);
    assert_eq!(first.source, QuerySource::Fresh);
    let before = shared.stats();

    // The answer `execute` filed serves `query` and `execute` alike.
    let queried = session.query(SUM_SQL).unwrap();
    assert_eq!(queried.source, QuerySource::ResultCache);
    let executed = executed_rows(&session, SUM_SQL);
    assert_bit_identical(&first.result.rows, &queried.result.rows);
    assert_bit_identical(&first.result.rows, &executed.result.rows);

    let after = shared.stats();
    assert_eq!(after.result_hits, before.result_hits + 2);
    assert_eq!(after.plan_misses, before.plan_misses, "nothing re-prepared");
    assert_eq!(after.admitted, before.admitted + 2, "admitted once each");
    assert_eq!(after.epoch, before.epoch, "reads leave the epoch alone");
}

#[test]
fn execute_hands_back_the_cached_answer_without_a_copy() {
    let shared = sample();
    let session = shared.session();
    let first = executed_rows(&session, SUM_SQL);
    let again = executed_rows(&session, SUM_SQL);
    assert_eq!(again.source, QuerySource::ResultCache);
    assert!(
        Arc::ptr_eq(&first.result, &again.result),
        "a cached answer must be handed back, not copied"
    );
}

#[test]
fn every_result_cache_miss_prepares_exactly_once() {
    // Result cache off: every repeat must be parsed, planned and executed.
    // (`SharedConfig` is non_exhaustive: start from the default and adjust
    // fields.)
    let mut config = SharedConfig::default();
    config.result_cache = 0;
    let shared = sample_with(config);
    let session = shared.session();

    let reference = session.query(SUM_SQL).unwrap();
    assert_eq!(reference.source, QuerySource::Fresh);
    for _ in 0..4 {
        let repeat = session.query(SUM_SQL).unwrap();
        assert_eq!(repeat.source, QuerySource::Fresh);
        assert_bit_identical(&reference.result.rows, &repeat.result.rows);
    }
    let stats = shared.stats();
    assert_eq!(stats.plan_misses, 5, "one prepare per repeat");
    assert_eq!(stats.plan_hits, 0, "no plan is kept between requests");
    assert_eq!(stats.result_hits, 0);
}

#[test]
fn overload_sheds_with_typed_error_and_recovers() {
    let mut db = Database::new();
    db.execute_script("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1)")
        .unwrap();
    let mut config = SharedConfig::default();
    config.max_running = 1;
    config.max_queue = 0;
    let shared = SharedDatabase::with_config(db, config);
    let session = shared.session();

    let slot = shared.admission().admit(None).unwrap();
    let err = session.query("SELECT a FROM t").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Overloaded);
    assert!(err.kind().is_retryable());
    assert_eq!(shared.stats().shed, 1);

    // Releasing the slot restores service — shedding is not sticky.
    drop(slot);
    assert_eq!(session.query("SELECT a FROM t").unwrap().result.len(), 1);
}

#[test]
fn session_limits_flow_into_execution() {
    let mut db = Database::new();
    db.execute_script("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1), (2), (3)")
        .unwrap();
    let shared = SharedDatabase::new(db);
    let session = shared.session();
    session.set_limits(
        ExecLimits::builder()
            .deadline(std::time::Duration::ZERO)
            .build(),
    );
    let err = session.query("SELECT a FROM t").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Timeout, "{err}");
}
