//! IO faults in the spill path (requires `--features fault`): spill runs
//! live on a mounted simulated filesystem, and a failed write or read of
//! one at any point must surface as a typed I/O error (never a panic, a
//! wrong answer, or a report of corruption), the spill session must clean
//! up after itself even on the error path, and a session a killed process
//! leaves behind must be collected — and reported — by startup recovery.
#![cfg(feature = "fault")]

use std::path::{Path, PathBuf};

use conquer_engine::{Database, ErrorKind, ExecLimits, QueryResult};
use conquer_storage::load_catalog_recover;
use conquer_storage::spill::list_spill_dirs;
use conquer_storage::vfs::{mount_sim, SimFs};

const SPILL_SQL: &str = "SELECT COUNT(*), SUM(a.val + b.val) \
     FROM big a, big b WHERE a.id = b.id";

fn limits_32k() -> ExecLimits {
    ExecLimits::builder().mem(32 * 1024).build()
}

fn big_db(rows: usize, spill_base: &Path) -> Database {
    let mut db = Database::new();
    db.set_limits(ExecLimits::none());
    db.set_spill_dir(spill_base);
    db.execute_script("CREATE TABLE big (id INTEGER, grp TEXT, val DOUBLE)")
        .unwrap();
    let values: Vec<String> = (0..rows)
        .map(|i| format!("({i}, 'group-{:05}', {}.25)", i % 97, i))
        .collect();
    for chunk in values.chunks(500) {
        db.execute_script(&format!("INSERT INTO big VALUES {}", chunk.join(", ")))
            .unwrap();
    }
    db
}

/// Run `sql` under `limits`. Success or failure, no spill session may
/// outlive the query, and a failure must be a typed I/O error.
fn run(db: &Database, base: &Path, sql: &str, limits: ExecLimits) -> Option<QueryResult> {
    let outcome = db
        .prepare(sql)
        .unwrap()
        .query_with(db, &db.exec_context(limits));
    assert!(list_spill_dirs(base).is_empty(), "orphaned a spill dir");
    match outcome {
        Ok(result) => Some(result),
        Err(err) => {
            assert_eq!(err.kind(), ErrorKind::Io, "{err}");
            None
        }
    }
}

/// Run `sql` cleanly, then once with each of its spill writes and reads
/// at `picks(calls)` failed; the database answers the same afterwards.
fn fail_spill_io(
    fs: &SimFs,
    db: &Database,
    base: &Path,
    sql: &str,
    limits: ExecLimits,
    picks: fn(u64) -> Vec<u64>,
) {
    let (w0, r0) = (fs.write_calls(), fs.read_calls());
    let reference = run(db, base, sql, limits).unwrap();
    let (writes, reads) = (fs.write_calls() - w0, fs.read_calls() - r0);
    assert!(
        writes > 4 && reads > 4,
        "spilled too little: {writes} writes, {reads} reads"
    );
    let fails = |call: &str, nth: u64| {
        let outcome = run(db, base, sql, limits);
        assert!(outcome.is_none(), "{call} {nth} did not fail the query");
    };
    for nth in picks(writes) {
        fs.fail_write(".spill-", nth);
        fails("write", nth);
    }
    for nth in picks(reads) {
        fs.fail_read(".spill-", nth);
        fails("read", nth);
    }
    let again = run(db, base, sql, limits).unwrap();
    assert_eq!(reference.rows, again.rows, "answers changed after faults");
}

#[test]
fn a_failed_spill_write_or_read_anywhere_is_an_io_error_and_leaves_no_orphans() {
    let (fs, _guard) = mount_sim("/sim/fspill_serial");
    let base = PathBuf::from("/sim/fspill_serial/base");
    let db = big_db(3000, &base);
    // The first, the last, and a spread between.
    fail_spill_io(&fs, &db, &base, SPILL_SQL, limits_32k(), |calls| {
        vec![1, 2, calls / 3, calls / 2, calls - 1, calls]
    });
    // No build side here: the aggregation and the external sort above it
    // spill. LIMIT keeps the (never-spilled) result buffer under budget.
    let sql = "SELECT id, SUM(val), COUNT(*) FROM big GROUP BY id ORDER BY id LIMIT 5";
    fail_spill_io(&fs, &db, &base, sql, limits_32k(), |calls| {
        vec![1, calls / 2]
    });
}

#[test]
fn a_spill_session_a_killed_process_leaves_is_collected_by_recovery() {
    let (_fs, _guard) = mount_sim("/sim/fspill_orphan");
    let base = PathBuf::from("/sim/fspill_orphan/base");
    let db = big_db(3000, &base);
    // Recovery runs over a persistence directory; make `base` one.
    conquer_storage::save_catalog(db.catalog(), &base).unwrap();

    // A leaked execution context never drops its spill session — the
    // moral equivalent of `kill -9` between a spill and the cleanup.
    let ctx = db.exec_context(limits_32k());
    db.prepare(SPILL_SQL)
        .unwrap()
        .query_with(&db, &ctx)
        .unwrap();
    std::mem::forget(ctx);
    let orphans = list_spill_dirs(&base);
    assert_eq!(
        orphans.len(),
        1,
        "expected one orphaned session: {orphans:?}"
    );

    let (catalog, report) = load_catalog_recover(&base).unwrap();
    assert_eq!(catalog.len(), db.catalog().len());
    assert!(
        report
            .issues
            .iter()
            .any(|i| i.contains("orphaned spill directory") && i.contains("removed")),
        "recovery must report the orphan: {:?}",
        report.issues
    );
    assert!(list_spill_dirs(&base).is_empty(), "recovery must remove it");

    // A second recovery has nothing left to say about spill state.
    let (_, quiet) = load_catalog_recover(&base).unwrap();
    assert!(
        !quiet.issues.iter().any(|i| i.contains("spill")),
        "{:?}",
        quiet.issues
    );
}
