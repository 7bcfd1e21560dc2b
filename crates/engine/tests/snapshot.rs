//! Snapshot-read guarantees of `SharedDatabase` under real threads:
//! snapshot reads complete while writes commit concurrently — readers
//! never stall behind the writer — and session answers stay consistent
//! with the epoch they report. That a pinned snapshot answers
//! byte-identically across later writes and checkpoints is the snapshot
//! path of the clean-answer oracle (`tests/oracle/mod.rs`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use conquer_engine::{Database, SharedDatabase};
use conquer_storage::Value;

fn seeded() -> SharedDatabase {
    let mut db = Database::new();
    db.execute_script("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1), (2), (3)")
        .unwrap();
    SharedDatabase::new(db)
}

/// Acceptance check: a snapshot read completes while a write commits
/// concurrently. The reader pins a snapshot, a barrier releases the
/// writer, and the reader keeps scanning its snapshot while 200 commits
/// land — every scan must finish (no stall behind the writer lock) and
/// answer from the pinned epoch. After 100 commits the writer waits for
/// the reader's first finished scan, so some scan always overlaps the
/// commits, however the threads are scheduled.
#[test]
fn snapshot_reads_complete_while_writes_commit() {
    let db = seeded();
    let snap = db.snapshot();
    let start = Arc::new(Barrier::new(2));
    let done = Arc::new(AtomicBool::new(false));
    let scans = Arc::new(AtomicU64::new(0));

    let writer = {
        let db = db.clone();
        let start = Arc::clone(&start);
        let done = Arc::clone(&done);
        let scans = Arc::clone(&scans);
        std::thread::spawn(move || {
            let s = db.session();
            start.wait();
            for i in 0..200 {
                if i == 100 {
                    while scans.load(Ordering::Acquire) == 0 {
                        std::thread::yield_now();
                    }
                }
                s.execute(&format!("INSERT INTO t VALUES ({})", 100 + i))
                    .unwrap();
            }
            done.store(true, Ordering::Release);
        })
    };

    start.wait();
    let stmt = snap.db().prepare("SELECT COUNT(*) FROM t").unwrap();
    while !done.load(Ordering::Acquire) {
        let r = stmt.query(snap.db()).unwrap();
        let n = scans.load(Ordering::Relaxed);
        assert_eq!(r.rows, vec![vec![Value::Int(3)]], "scan {n}");
        scans.store(n + 1, Ordering::Release);
    }
    writer.join().unwrap();
    let scans = scans.load(Ordering::Relaxed);

    assert!(scans > 0, "at least one scan must overlap the commits");
    assert_eq!(db.epoch(), 200, "all writes committed");
    assert_eq!(snap.epoch(), 0, "the pin never moved");
    // A fresh snapshot sees all 200 new rows.
    let now = db.snapshot();
    let count = now.db().prepare("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(
        count.query(now.db()).unwrap().rows,
        vec![vec![Value::Int(203)]]
    );
}

/// Sessions hand out consistent (result, epoch) pairs across a concurrent
/// writer: every answer must be internally consistent with the epoch it
/// claims, even while the epoch advances underneath.
#[test]
fn session_answers_are_epoch_consistent_under_concurrent_writes() {
    let db = seeded();
    let stop = Arc::new(AtomicBool::new(false));

    let writer = {
        let db = db.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let s = db.session();
            let mut i = 0;
            while !stop.load(Ordering::Acquire) {
                s.execute(&format!("INSERT INTO t VALUES ({})", 1000 + i))
                    .unwrap();
                i += 1;
            }
        })
    };

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let db = db.clone();
            std::thread::spawn(move || {
                let s = db.session();
                for _ in 0..100 {
                    let r = s.query("SELECT COUNT(*) FROM t").unwrap();
                    // COUNT grows monotonically with the epoch: an answer
                    // claiming epoch e must count exactly 3 + e rows.
                    let count = match r.result.rows[0][0] {
                        Value::Int(n) => n,
                        ref other => panic!("unexpected {other:?}"),
                    };
                    assert_eq!(count, 3 + r.epoch as i64, "epoch {}", r.epoch);
                }
            })
        })
        .collect();
    for r in readers {
        r.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    writer.join().unwrap();
}
