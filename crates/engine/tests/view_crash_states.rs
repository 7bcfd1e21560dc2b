//! Crash-state enumeration for view-maintaining commits (requires
//! `--features fault`): run a DML statement against a durable database
//! with a materialized view, fail the WAL fsync so the commit dies with
//! its base-table image, view contents, accumulator state and registry
//! all riding the same unsynced append, then enumerate **every**
//! post-crash disk image that unsynced state admits and prove that in
//! each one the recovered view equals a recompute over the recovered
//! base table — a view is never observable half-maintained, no matter
//! which prefix of the commit reached the platter.
#![cfg(feature = "fault")]

use std::path::{Path, PathBuf};

use conquer_engine::{SharedConfig, SharedDatabase};
use conquer_storage::vfs::mount_sim;
use conquer_storage::Value;

fn open(dir: &Path) -> SharedDatabase {
    SharedDatabase::open_durable(dir, SharedConfig::default())
        .unwrap()
        .0
}

fn rows(db: &SharedDatabase, sql: &str) -> Vec<Vec<Value>> {
    db.session().query(sql).unwrap().result.rows.clone()
}

/// The never-half-maintained oracle: view contents must equal a group-by
/// recompute over whatever base table the crash state recovered. The
/// fixture uses dyadic probabilities so the comparison is exact.
fn assert_view_matches_base(db: &SharedDatabase, ctx: &str) {
    let viewed = rows(db, "SELECT g, p FROM v ORDER BY g");
    let recomputed = rows(db, "SELECT g, SUM(prob) AS p FROM t GROUP BY g ORDER BY g");
    assert_eq!(
        viewed, recomputed,
        "{ctx}: view does not match its base table"
    );
}

#[test]
fn every_crash_state_of_a_view_maintaining_commit_recovers_to_a_boundary() {
    let (fs, _guard) = mount_sim("/sim/view_crash");
    let dir = PathBuf::from("/sim/view_crash/db");

    // Committed boundary A: base table + maintained view, all durable
    // (checkpoint folds the creation into a clean epoch).
    {
        let db = open(&dir);
        let s = db.session();
        s.execute("CREATE TABLE t (id TEXT, g INTEGER, prob DOUBLE)")
            .unwrap();
        s.execute(
            "INSERT INTO t VALUES ('a', 1, 0.5), ('a', 2, 0.5), \
                                  ('b', 1, 0.25), ('b', 1, 0.75)",
        )
        .unwrap();
        s.execute(
            "CREATE MATERIALIZED VIEW v AS \
             SELECT g, SUM(prob) AS p FROM t GROUP BY g",
        )
        .unwrap();
        db.checkpoint().unwrap();
    }
    fs.restore(&fs.current_image());

    // Boundary B: a group-moving UPDATE whose WAL fsync fails. The
    // append carries t, v, v's accumulator state and the registry bump
    // in one commit record; none of it was acknowledged.
    {
        let db = open(&dir);
        fs.fail_sync("wal.log", 1);
        let err = db
            .session()
            .execute("UPDATE t SET g = g + 1 WHERE id = 'a'");
        assert!(err.is_err(), "a failed fsync must fail the commit");
    }
    assert!(fs.pending_ops() > 0, "the unacked append must be pending");

    let states = fs.crash_states();
    assert!(states.len() > 2, "expected subsets + torn variants");
    let mut outcomes = std::collections::BTreeSet::new();
    for state in &states {
        fs.restore(state);
        let db = open(&dir);
        let ctx = format!("crash state {:?}", state.label);

        // The base table recovered to old or new — never in between.
        let olds = rows(&db, "SELECT COUNT(*) FROM t WHERE id = 'a' AND g = 1");
        let olds = match olds[0][0] {
            Value::Int(n) => n,
            ref other => panic!("{ctx}: unexpected {other:?}"),
        };
        assert!(olds == 0 || olds == 1, "{ctx}: torn base table");

        // Whichever side it landed on, the view matches it exactly.
        assert_view_matches_base(&db, &ctx);
        outcomes.insert(olds);

        // And the recovered handle keeps maintaining durably.
        db.session()
            .execute("INSERT INTO t VALUES ('z', 7, 0.125)")
            .unwrap();
        assert_view_matches_base(&db, &format!("{ctx} after post-recovery DML"));
    }
    // The enumeration must reach both sides of the boundary.
    assert_eq!(
        outcomes.len(),
        2,
        "both boundaries must be reachable: {outcomes:?}"
    );
}

#[test]
fn view_creation_crash_states_never_leave_a_partial_view() {
    let (fs, _guard) = mount_sim("/sim/view_create_crash");
    let dir = PathBuf::from("/sim/view_create_crash/db");

    {
        let db = open(&dir);
        let s = db.session();
        s.execute("CREATE TABLE t (id TEXT, g INTEGER, prob DOUBLE)")
            .unwrap();
        s.execute("INSERT INTO t VALUES ('a', 1, 0.5), ('b', 2, 0.5)")
            .unwrap();
        db.checkpoint().unwrap();
    }
    fs.restore(&fs.current_image());

    // CREATE MATERIALIZED VIEW writes contents + state + registry in one
    // commit; fail its fsync and enumerate.
    {
        let db = open(&dir);
        fs.fail_sync("wal.log", 1);
        let err = db
            .session()
            .execute("CREATE MATERIALIZED VIEW v AS SELECT g, SUM(prob) AS p FROM t GROUP BY g");
        assert!(err.is_err(), "a failed fsync must fail the commit");
    }

    let mut outcomes = std::collections::BTreeSet::new();
    for state in &fs.crash_states() {
        fs.restore(state);
        let db = open(&dir);
        let ctx = format!("crash state {:?}", state.label);
        let has_view = db.snapshot().db().is_view("v");
        if has_view {
            // Fully created: contents, hidden state and registry all
            // present and consistent with the base table.
            assert_view_matches_base(&db, &ctx);
            db.session()
                .execute("DROP MATERIALIZED VIEW v")
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        } else {
            // Fully absent: recreating from scratch works; no orphaned
            // hidden tables block it.
            db.session()
                .execute(
                    "CREATE MATERIALIZED VIEW v AS \
                     SELECT g, SUM(prob) AS p FROM t GROUP BY g",
                )
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_view_matches_base(&db, &ctx);
        }
        outcomes.insert(has_view);
    }
    assert_eq!(outcomes.len(), 2, "both boundaries must be reachable");
}
