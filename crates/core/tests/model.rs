//! Deterministic schedule-exploration (model) tests for the engine's three
//! concurrency kernels, driven through the canonical `conquer_core::sync`
//! re-export:
//!
//! 1. **Snapshot pin vs. writer publish vs. checkpoint truncation** — a
//!    pinned snapshot stays byte-identical while a writer commits and a
//!    checkpoint truncates the WAL under it, in every interleaving; and
//!    with two concurrent writers no epoch bump is ever lost.
//! 2. **AdmissionGate acquire/release/timeout** — slot accounting is exact
//!    (never over max_running, drains to zero) across every interleaving,
//!    including spurious wakeups and zero-duration timeouts.
//! 3. **Result-cache read sets** — a reader racing a writer's publish
//!    never observes an answer whose row set contradicts the epoch it
//!    reports, whether the write touched a table the cached query read or
//!    one it did not.
//!
//! Each kernel also proves its own teeth: re-running the exploration with a
//! seeded mutant armed (`conquer_sync::arm_mutant`) must find a failing
//! schedule. The mutants live behind `cfg(any(debug_assertions, feature =
//! "analysis"))` in the production crates and fire only on virtual model
//! threads, so they can never leak into ordinary execution.
#![cfg(any(debug_assertions, feature = "analysis"))]

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use conquer_core::sync::sched::Explorer;
use conquer_core::sync::{arm_mutant, clear_mutants, rank, Mutex, MutexGuard};
use conquer_engine::{
    AdmissionGate, Database, EngineError, SharedConfig, SharedDatabase, Snapshot,
};
use conquer_storage::Value;

/// Mutant arming is process-global (though it only fires on model threads),
/// so tests that arm or must-not-see mutants serialize on this lock.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(&rank::TEST_SERIAL, ());
    LOCK.lock()
}

fn count_rows(snap: &Snapshot, table: &str) -> usize {
    snap.db().catalog().table(table).unwrap().len()
}

fn scalar(result: &conquer_engine::QueryResult) -> i64 {
    match result.iter_rows().next().unwrap()[0] {
        Value::Int(n) => n,
        ref v => panic!("expected integer scalar, got {v:?}"),
    }
}

// ---------------------------------------------------------------------------
// Kernel 1: snapshot pin vs. writer publish vs. checkpoint truncation
// ---------------------------------------------------------------------------

fn model_tempdir() -> PathBuf {
    std::env::temp_dir().join(format!("conquer_model_snap_{}", std::process::id()))
}

#[test]
fn snapshot_stays_immutable_under_publish_and_checkpoint() {
    let _s = serialize();
    let dir = model_tempdir();
    let report = Explorer::new().max_preemptions(1).explore(|exec| {
        let _ = std::fs::remove_dir_all(&dir);
        let (shared, _report) =
            SharedDatabase::open_durable(&dir, SharedConfig::default()).unwrap();
        let setup = shared.session();
        setup
            .execute("CREATE TABLE t (id INTEGER, val INTEGER)")
            .unwrap();
        setup.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        let e0 = shared.epoch();

        let db = shared.clone();
        exec.spawn("writer", move || {
            db.session()
                .execute("INSERT INTO t VALUES (2, 20)")
                .unwrap();
        });

        let db = shared.clone();
        exec.spawn("checkpointer", move || {
            // A checkpoint folds state and truncates the WAL but never
            // bumps the epoch or perturbs published versions.
            let info = db.checkpoint().unwrap().expect("durable handle");
            assert!(
                info.epoch == e0 || info.epoch == e0 + 1,
                "epoch {}",
                info.epoch
            );
        });

        let db = shared.clone();
        exec.spawn("reader", move || {
            let snap = db.snapshot();
            let epoch = snap.epoch();
            let before = count_rows(&snap, "t");
            let expect = if epoch == e0 { 1 } else { 2 };
            assert_eq!(before, expect, "rows inconsistent with epoch {epoch}");
            // Yield (an instrumented lock op) so the writer/checkpointer can
            // run between the two reads of the same pinned snapshot.
            let _ = db.epoch();
            assert_eq!(snap.epoch(), epoch, "pinned snapshot changed epoch");
            assert_eq!(
                count_rows(&snap, "t"),
                before,
                "pinned snapshot changed rows"
            );
        });

        let db = shared.clone();
        exec.check(move || {
            assert_eq!(db.epoch(), e0 + 1, "exactly one epoch bump");
            assert_eq!(count_rows(&db.snapshot(), "t"), 2);
        });
    });
    report.assert_passed();
    assert!(report.schedules > 1, "three racing threads must interleave");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_writers_never_lose_an_epoch_bump_and_mutant_is_caught() {
    let _s = serialize();
    let run = || {
        Explorer::new().explore(|exec| {
            let shared = SharedDatabase::new(Database::new());
            let setup = shared.session();
            setup.execute("CREATE TABLE t (id INTEGER)").unwrap();
            let e0 = shared.epoch();
            for w in 0..2 {
                let db = shared.clone();
                exec.spawn(&format!("writer-{w}"), move || {
                    db.session()
                        .execute(&format!("INSERT INTO t VALUES ({w})"))
                        .unwrap();
                });
            }
            let db = shared.clone();
            exec.check(move || {
                assert_eq!(db.epoch(), e0 + 2, "an epoch bump was lost");
                assert_eq!(
                    count_rows(&db.snapshot(), "t"),
                    2,
                    "a committed row was lost"
                );
            });
        })
    };

    run().assert_passed();

    // Seeded mutant: publish without holding the writer lock. Both writers
    // clone the same base version in some schedule, so one commit — and its
    // epoch bump — vanishes. The exploration must find that schedule.
    arm_mutant("shared::unserialized-publish");
    let report = run();
    clear_mutants();
    let failure = report
        .failure
        .expect("the unserialized-publish mutant must be caught");
    assert!(failure.contains("lost"), "unexpected failure: {failure}");
}

// ---------------------------------------------------------------------------
// Kernel 2: AdmissionGate acquire / release / timeout
// ---------------------------------------------------------------------------

/// Admit, track the concurrency high-water mark while holding the slot
/// (with an instrumented yield point in the middle), then release.
fn gated_section(gate: &AdmissionGate, active: &AtomicUsize, hw: &AtomicUsize) {
    let permit = gate.admit(None).unwrap();
    let now = active.fetch_add(1, Ordering::SeqCst) + 1;
    hw.fetch_max(now, Ordering::SeqCst);
    let _ = gate.running(); // yield while the slot is held
    active.fetch_sub(1, Ordering::SeqCst);
    drop(permit);
}

#[test]
fn gate_slot_accounting_is_exact_in_every_schedule() {
    let _s = serialize();
    let report = Explorer::new().explore(|exec| {
        let gate = Arc::new(AdmissionGate::new(1, 2));
        let active = Arc::new(AtomicUsize::new(0));
        let hw = Arc::new(AtomicUsize::new(0));
        for t in 0..2 {
            let (gate, active, hw) = (Arc::clone(&gate), Arc::clone(&active), Arc::clone(&hw));
            exec.spawn(&format!("query-{t}"), move || {
                gated_section(&gate, &active, &hw)
            });
        }
        exec.check(move || {
            assert!(hw.load(Ordering::SeqCst) <= 1, "gate over-admitted");
            assert_eq!(gate.running(), 0, "slots must drain to zero");
            assert_eq!(gate.queued(), 0, "queue must drain to zero");
        });
    });
    report.assert_passed();
    assert!(report.schedules > 1);
}

#[test]
fn gate_zero_timeout_sheds_exactly_when_full() {
    let _s = serialize();
    let timeouts = Arc::new(AtomicUsize::new(0));
    let admits = Arc::new(AtomicUsize::new(0));
    let (t_out, a_out) = (Arc::clone(&timeouts), Arc::clone(&admits));
    let report = Explorer::new().explore(move |exec| {
        let gate = Arc::new(AdmissionGate::new(1, 2));
        let holder = Arc::clone(&gate);
        exec.spawn("holder", move || {
            let permit = holder.admit(None).unwrap();
            let _ = holder.running(); // yield while holding
            drop(permit);
        });
        let (gate2, t, a) = (Arc::clone(&gate), Arc::clone(&t_out), Arc::clone(&a_out));
        exec.spawn("impatient", move || {
            // Zero patience: admitted instantly or a typed Timeout — and
            // either way the queue count is restored.
            match gate2.admit(Some(Duration::ZERO)) {
                Ok(permit) => {
                    a.fetch_add(1, Ordering::SeqCst);
                    drop(permit);
                }
                Err(EngineError::Timeout { .. }) => {
                    t.fetch_add(1, Ordering::SeqCst);
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        });
        let gate = Arc::clone(&gate);
        exec.check(move || {
            assert_eq!(gate.running(), 0);
            assert_eq!(gate.queued(), 0, "a timed-out waiter leaked a queue slot");
        });
    });
    report.assert_passed();
    assert!(
        timeouts.load(Ordering::SeqCst) > 0,
        "some schedule must hit the timeout"
    );
    assert!(
        admits.load(Ordering::SeqCst) > 0,
        "some schedule must admit instantly"
    );
}

#[test]
fn gate_spurious_wakeups_are_rechecked_and_mutant_is_caught() {
    let _s = serialize();
    let run = || {
        Explorer::new().explore(|exec| {
            let gate = Arc::new(AdmissionGate::new(1, 2));
            // Every wait in this execution wakes spuriously once before any
            // real notify; correct code re-checks the predicate and stays.
            assert!(gate.inject_spurious_wakes(1));
            let active = Arc::new(AtomicUsize::new(0));
            let hw = Arc::new(AtomicUsize::new(0));
            for t in 0..2 {
                let (gate, active, hw) = (Arc::clone(&gate), Arc::clone(&active), Arc::clone(&hw));
                exec.spawn(&format!("query-{t}"), move || {
                    gated_section(&gate, &active, &hw)
                });
            }
            exec.check(move || {
                assert!(hw.load(Ordering::SeqCst) <= 1, "gate over-admitted");
                assert_eq!(gate.running(), 0);
                assert_eq!(gate.queued(), 0);
            });
        })
    };

    run().assert_passed();

    // Seeded mutant: trust the first wake without re-checking the predicate.
    // The spurious wake then admits a second query into a one-slot gate.
    arm_mutant("gate::no-recheck");
    let report = run();
    clear_mutants();
    let failure = report
        .failure
        .expect("the no-recheck mutant must be caught");
    assert!(
        failure.contains("over-admitted"),
        "unexpected failure: {failure}"
    );
}

// ---------------------------------------------------------------------------
// Kernel 3: result-cache read sets
// ---------------------------------------------------------------------------

/// Reads `ta` and `tb` but not `tc`, so a write to `tc` leaves its read
/// set intact.
const CACHE_SQL: &str = "SELECT COUNT(*) FROM ta, tb";

/// Query through the result cache and assert the answer is consistent
/// with the epoch it reports: `before` rows at the setup epoch, `after`
/// once the concurrent INSERT published.
fn query_consistent(shared: &SharedDatabase, e0: u64, before: i64, after: i64) {
    let r = shared.session().query(CACHE_SQL).unwrap();
    assert!(
        r.epoch == e0 || r.epoch == e0 + 1,
        "unexpected epoch {}",
        r.epoch
    );
    let expect = if r.epoch == e0 { before } else { after };
    assert_eq!(
        scalar(&r.result),
        expect,
        "stale answer served for epoch {}",
        r.epoch
    );
}

/// Two readers race one writer that inserts into `target`. The writer never
/// touches the cache; whether an entry is valid is decided by the reader
/// alone, against the one snapshot it pinned, so there is no window between
/// the writer's publish and anything else for a reader to fall into.
fn explore_cache_reads(target: &'static str) -> conquer_core::sync::sched::Report {
    // `tc` is not read by `CACHE_SQL`: inserting into it keeps the count.
    let after = if target == "tc" { 1 } else { 2 };
    Explorer::new().max_preemptions(1).explore(move |exec| {
        let shared = SharedDatabase::new(Database::new());
        let setup = shared.session();
        for table in ["ta", "tb", "tc"] {
            setup
                .execute(&format!("CREATE TABLE {table} (id INTEGER)"))
                .unwrap();
            setup
                .execute(&format!("INSERT INTO {table} VALUES (1)"))
                .unwrap();
        }
        let e0 = shared.epoch();

        let db = shared.clone();
        exec.spawn("reader-a", move || query_consistent(&db, e0, 1, after));
        let db = shared.clone();
        exec.spawn("writer", move || {
            db.session()
                .execute(&format!("INSERT INTO {target} VALUES (2)"))
                .unwrap();
        });
        let db = shared.clone();
        exec.spawn("reader-b", move || query_consistent(&db, e0, 1, after));

        let db = shared.clone();
        exec.check(move || {
            assert_eq!(db.epoch(), e0 + 1);
            // After the dust settles the cache must answer at the new
            // epoch with the new row set.
            let r = db.session().query(CACHE_SQL).unwrap();
            assert_eq!(r.epoch, e0 + 1);
            assert_eq!(scalar(&r.result), after);
        });
    })
}

#[test]
fn cache_read_sets_never_serve_stale_answers_and_mutant_is_caught() {
    let _s = serialize();
    explore_cache_reads("ta").assert_passed();

    // Seeded mutant: the LRU skips the read-set identity check on lookup.
    // Once a reader filed the count at `e0`, any reader that pins `e0 + 1`
    // is served the old count for the new epoch.
    arm_mutant("lru::ignore-read-set");
    let report = explore_cache_reads("ta");
    clear_mutants();
    let failure = report
        .failure
        .expect("the ignore-read-set mutant must be caught");
    assert!(
        failure.contains("stale answer"),
        "unexpected failure: {failure}"
    );
}

#[test]
fn a_write_to_an_unread_table_keeps_cached_answers_correct() {
    let _s = serialize();
    // The writer inserts into `tc`, which `CACHE_SQL` does not read: a
    // reader at `e0 + 1` may be served the entry filed at `e0`, and the
    // count it reports must still be right for its epoch.
    let report = explore_cache_reads("tc");
    report.assert_passed();
    assert!(report.schedules > 1, "three racing threads must interleave");
}

// ---------------------------------------------------------------------------
// Kernel 4: snapshot pin vs. view-delta publish vs. checkpoint
// ---------------------------------------------------------------------------

/// Within one `Database` (a pinned snapshot or the current version), the
/// maintained view must equal a from-scratch recompute of its base table.
/// The recompute is a plain in-test fold, independent of the engine code
/// that maintains the view; the fixture uses dyadic probabilities so the
/// comparison is exact equality.
fn view_consistent(db: &Database, ctx: &str) -> Vec<(i64, f64)> {
    let cell = |v: &Value| match v {
        Value::Int(n) => *n as f64,
        Value::Float(f) => *f,
        other => panic!("{ctx}: unexpected {other:?}"),
    };
    let viewed: Vec<(i64, f64)> = db
        .catalog()
        .table("v")
        .unwrap()
        .rows()
        .iter()
        .map(|r| (cell(&r[0]) as i64, cell(&r[1])))
        .collect();
    let mut groups: std::collections::BTreeMap<i64, f64> = std::collections::BTreeMap::new();
    for r in db.catalog().table("t").unwrap().rows() {
        *groups.entry(cell(&r[1]) as i64).or_insert(0.0) += cell(&r[2]);
    }
    let recomputed: Vec<(i64, f64)> = groups.into_iter().collect();
    assert_eq!(
        viewed, recomputed,
        "{ctx}: view diverged from its base table"
    );
    viewed
}

fn explore_view_publish(dir: &PathBuf) -> conquer_core::sync::sched::Report {
    Explorer::new().max_preemptions(1).explore(|exec| {
        let _ = std::fs::remove_dir_all(dir);
        let (shared, _report) = SharedDatabase::open_durable(dir, SharedConfig::default()).unwrap();
        let setup = shared.session();
        setup
            .execute("CREATE TABLE t (id TEXT, g INTEGER, prob DOUBLE)")
            .unwrap();
        setup
            .execute("INSERT INTO t VALUES ('a', 1, 0.5), ('a', 2, 0.5), ('b', 1, 0.25)")
            .unwrap();
        setup
            .execute(
                "CREATE MATERIALIZED VIEW v AS \
                 SELECT g, SUM(prob) AS p FROM t GROUP BY g",
            )
            .unwrap();
        let e0 = shared.epoch();

        // Writer: moves both 'a' tuples one group up — every view delta
        // retracts from one accumulator and adds to another, inside the
        // same publish.
        let db = shared.clone();
        exec.spawn("view-writer", move || {
            db.session()
                .execute("UPDATE t SET g = g + 1 WHERE id = 'a'")
                .unwrap();
        });

        // Checkpointer: folds and truncates under the writer; it must
        // neither tear the view nor perturb published versions.
        let db = shared.clone();
        exec.spawn("checkpointer", move || {
            let _ = db.checkpoint().unwrap().expect("durable handle");
        });

        // Reader: pins a snapshot; the view inside it is consistent with
        // the base table inside it, and stays byte-identical across the
        // writer's delta publish.
        let db = shared.clone();
        exec.spawn("reader", move || {
            let snap = db.snapshot();
            let before = view_consistent(snap.db(), "pinned snapshot");
            let _ = db.epoch(); // yield so the publish can land in between
            let after = view_consistent(snap.db(), "pinned snapshot (re-read)");
            assert_eq!(before, after, "pinned snapshot changed view contents");
        });

        let db = shared.clone();
        exec.check(move || {
            assert_eq!(db.epoch(), e0 + 1, "exactly one epoch bump");
            let snap = db.snapshot();
            let finals = view_consistent(snap.db(), "final state");
            assert_eq!(
                finals,
                vec![(1, 0.25), (2, 0.5), (3, 0.5)],
                "maintained groups wrong after publish"
            );
        });
    })
}

#[test]
fn view_delta_publish_is_atomic_and_skip_retract_mutant_is_caught() {
    let _s = serialize();
    let dir = std::env::temp_dir().join(format!("conquer_model_view_{}", std::process::id()));

    let report = explore_view_publish(&dir);
    report.assert_passed();
    assert!(report.schedules > 1, "three racing threads must interleave");

    // Seeded mutant: maintenance "forgets" to retract outgoing tuples
    // from their old accumulator, so the stale contribution survives the
    // publish. In every schedule the final view then disagrees with a
    // recompute; the exploration must find (at least) one.
    arm_mutant("view::skip-retract");
    let report = explore_view_publish(&dir);
    clear_mutants();
    let failure = report
        .failure
        .expect("the skip-retract mutant must be caught");
    assert!(
        failure.contains("view diverged") || failure.contains("maintained groups"),
        "unexpected failure: {failure}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
