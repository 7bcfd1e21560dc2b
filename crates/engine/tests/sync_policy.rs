//! Regression tests for the shared-database synchronization policies:
//! lock poisoning (a writer panicking mid-commit must not brick the
//! handle) and spurious condvar wakeups (the admission gate must re-check
//! its predicate after every wake).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use conquer_engine::{
    AdmissionGate, Database, EngineError, ErrorKind, SharedConfig, SharedDatabase,
};
use conquer_storage::Value;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("conquer_syncpol_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn rows(db: &SharedDatabase) -> usize {
    db.snapshot().db().catalog().table("t").unwrap().len()
}

/// A panic inside `mutate` poisons the writer mutex. The next write must
/// surface one typed Internal error (the heal), and every write after that
/// must succeed — with the database still at its last committed state.
#[test]
fn writer_panic_mid_commit_heals_into_typed_internal_error() {
    let shared = SharedDatabase::new(Database::new());
    let session = shared.session();
    session.execute("CREATE TABLE t (id INTEGER)").unwrap();
    session.execute("INSERT INTO t VALUES (1)").unwrap();
    let epoch = shared.epoch();

    let unwound = catch_unwind(AssertUnwindSafe(|| {
        let _: Result<(), _> = shared.mutate(|_| panic!("simulated writer crash"));
    }));
    assert!(unwound.is_err(), "the panic must propagate to the writer");

    // First write after the panic: typed heal error, nothing committed.
    let err = session.execute("INSERT INTO t VALUES (2)").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Internal, "got: {err}");
    assert!(err.to_string().contains("poisoned"), "got: {err}");
    assert_eq!(
        shared.epoch(),
        epoch,
        "the interrupted commit must not publish"
    );
    assert_eq!(rows(&shared), 1);

    // Second write: fully healed.
    session.execute("INSERT INTO t VALUES (2)").unwrap();
    assert_eq!(shared.epoch(), epoch + 1);
    assert_eq!(rows(&shared), 2);
}

/// Same policy on a durable handle: the heal also re-truncates the WAL, so
/// a torn half-append from the panicking writer can never be extended into
/// a fake commit — and the database reloads cleanly afterwards.
#[test]
fn durable_writer_panic_heals_and_reloads_cleanly() {
    let dir = tempdir("poison");
    let (shared, _report) = SharedDatabase::open_durable(&dir, SharedConfig::default()).unwrap();
    let session = shared.session();
    session.execute("CREATE TABLE t (id INTEGER)").unwrap();
    session.execute("INSERT INTO t VALUES (1)").unwrap();

    let _ = catch_unwind(AssertUnwindSafe(|| {
        let _: Result<(), _> = shared.mutate(|_| panic!("simulated writer crash"));
    }));

    let err = session.execute("INSERT INTO t VALUES (2)").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Internal, "got: {err}");
    session.execute("INSERT INTO t VALUES (2)").unwrap();
    assert_eq!(rows(&shared), 2);
    drop(session);
    drop(shared);

    // Reload from disk: both committed rows survive, nothing torn.
    let (reloaded, _report) = SharedDatabase::open_durable(&dir, SharedConfig::default()).unwrap();
    assert_eq!(rows(&reloaded), 2);
    let r = reloaded.session().query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.result.iter_rows().next().unwrap()[0], Value::Int(2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Injected spurious wakeups (no slot actually freed) must leave a waiting
/// `admit` waiting: the loop re-checks its predicate on every wake and only
/// a real release admits. Accounting stays exact throughout.
#[test]
fn gate_admit_survives_injected_spurious_wakeups() {
    let gate = Arc::new(AdmissionGate::new(1, 1));
    if !gate.inject_spurious_wakes(2) {
        // Release build without the analysis feature: no injection hooks.
        return;
    }
    let permit = gate.admit(None).unwrap();
    let waiter = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            // Both spurious wakes fire during this wait; each one must be
            // re-checked and ignored, so only the real release admits.
            let permit = gate.admit(Some(Duration::from_secs(30))).unwrap();
            assert_eq!(gate.running(), 1);
            drop(permit);
        })
    };
    // Give the waiter time to enter the wait loop and burn the injected
    // spurious wakes against a still-occupied gate.
    while gate.queued() == 0 {
        std::thread::yield_now();
    }
    assert_eq!(gate.running(), 1, "spurious wakes must not over-admit");
    drop(permit);
    waiter.join().unwrap();
    assert_eq!(gate.running(), 0);
    assert_eq!(gate.queued(), 0);
}

/// A waiter whose deadline passes while only spurious wakes arrive times
/// out with the typed error and restores its queue slot.
#[test]
fn gate_admit_times_out_through_spurious_wakeups() {
    let gate = AdmissionGate::new(1, 1);
    if !gate.inject_spurious_wakes(8) {
        return;
    }
    let _permit = gate.admit(None).unwrap();
    let err = gate.admit(Some(Duration::from_millis(50))).unwrap_err();
    assert!(matches!(err, EngineError::Timeout { .. }), "got: {err}");
    assert_eq!(gate.running(), 1);
    assert_eq!(
        gate.queued(),
        0,
        "timed-out waiter must restore the queue count"
    );
}
