//! Degraded mode: a scrub that finds on-disk corruption flips the shared
//! handle into a read-only quarantine — reads keep working, writes are
//! refused with the typed `DEGRADED` kind — until a checkpoint writes a
//! fresh log (or a clean scrub) clears it.

use conquer_engine::{EngineError, ErrorKind, SharedConfig, SharedDatabase};
use conquer_storage::wal::WAL_FILE;
use conquer_storage::{StorageError, Value};
use std::path::PathBuf;

/// Offset of a byte inside the log's first base table: past the 35-byte
/// header frame, the put frame's length and checksum, and its tag.
const IN_THE_BASE: usize = 35 + 12 + 4;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("conquer_degraded_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn scrub_finding_corruption_degrades_writes_until_checkpoint_repairs() {
    let dir = tempdir("cycle");
    let (db, _) = SharedDatabase::open_durable(&dir, SharedConfig::default()).unwrap();
    let s = db.session();
    s.execute("CREATE TABLE t (a INTEGER)").unwrap();
    s.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    let _ = db.checkpoint().unwrap().expect("durable handle");

    // A clean scrub reports work done and leaves the handle healthy.
    let report = db.scrub().unwrap().expect("durable handle");
    assert!(report.is_clean(), "{report:?}");
    assert!(report.clean > 0);
    assert!(!db.is_degraded());
    assert_eq!(db.stats().scrub_runs, 1);

    // Rot one byte of the log's base behind the engine's back. Reads
    // still serve the in-memory snapshot; only a scrub notices the disk
    // can no longer be trusted.
    let data = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&data).unwrap();
    bytes[IN_THE_BASE] ^= 0x01;
    std::fs::write(&data, &bytes).unwrap();

    let report = db.scrub().unwrap().expect("durable handle");
    assert!(report.corrupt >= 1, "{report:?}");
    assert!(db.is_degraded());
    assert!(db.stats().degraded);

    // Writes are refused with the stable DEGRADED kind; reads pass.
    let err = s.execute("INSERT INTO t VALUES (3)").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Degraded, "{err}");
    assert_eq!(err.kind().as_str(), "DEGRADED");
    assert!(!err.kind().is_retryable());
    let r = s.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.result.rows, vec![vec![Value::Int(2)]]);

    // A checkpoint rewrites the whole log from memory: that *is* the
    // repair, so it must be allowed while degraded and must clear it.
    let _ = db.checkpoint().unwrap().expect("durable handle");
    assert!(!db.is_degraded());
    s.execute("INSERT INTO t VALUES (3)").unwrap();
    let report = db.scrub().unwrap().expect("durable handle");
    assert!(report.is_clean(), "{report:?}");
    assert!(!db.is_degraded());

    // The full history survives a reopen — nothing was lost to the rot.
    drop(s);
    drop(db);
    let (db, report) = SharedDatabase::open_durable(&dir, SharedConfig::default()).unwrap();
    assert!(report.is_clean(), "{report:?}");
    let r = db.session().query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.result.rows, vec![vec![Value::Int(3)]]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_scrub_alone_clears_a_degraded_handle() {
    let dir = tempdir("clean_clears");
    let (db, _) = SharedDatabase::open_durable(&dir, SharedConfig::default()).unwrap();
    let s = db.session();
    s.execute("CREATE TABLE t (a INTEGER)").unwrap();
    let _ = db.checkpoint().unwrap().expect("durable handle");

    let data = dir.join(WAL_FILE);
    let original = std::fs::read(&data).unwrap();
    let mut rotted = original.clone();
    rotted[IN_THE_BASE] ^= 0x01;
    std::fs::write(&data, &rotted).unwrap();
    let _ = db.scrub().unwrap().expect("durable handle");
    assert!(db.is_degraded());

    // Putting the original bytes back (an operator restoring from a
    // backup) makes the next scrub clean, which lifts the quarantine
    // without a checkpoint.
    std::fs::write(&data, &original).unwrap();
    let report = db.scrub().unwrap().expect("durable handle");
    assert!(report.is_clean(), "{report:?}");
    assert!(!db.is_degraded());
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Rot in the log's base is corruption on open as well: both loaders and
/// `open_durable` refuse the directory, and leave the rotten bytes as they
/// are. The handle that still holds the catalog in memory repairs it with
/// a checkpoint, after which the directory opens again.
#[test]
fn base_rot_is_refused_on_open_until_a_checkpoint_repairs_it() {
    let dir = tempdir("base_rot");
    let (db, _) = SharedDatabase::open_durable(&dir, SharedConfig::default()).unwrap();
    let s = db.session();
    s.execute("CREATE TABLE t (a INTEGER)").unwrap();
    s.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    let _ = db.checkpoint().unwrap().expect("durable handle");

    let data = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&data).unwrap();
    bytes[IN_THE_BASE] ^= 0x01;
    std::fs::write(&data, &bytes).unwrap();
    let report = db.scrub().unwrap().expect("durable handle");
    assert!(report.corrupt >= 1, "{report:?}");

    let corrupt = |r: Result<(), StorageError>| matches!(r, Err(StorageError::Corrupt { .. }));
    assert!(corrupt(conquer_storage::load_catalog(&dir).map(drop)));
    assert!(corrupt(
        conquer_storage::load_catalog_recover(&dir).map(drop)
    ));
    let opened = SharedDatabase::open_durable(&dir, SharedConfig::default());
    assert!(
        matches!(
            &opened,
            Err(EngineError::Storage(StorageError::Corrupt { .. }))
        ),
        "{:?}",
        opened.map(drop)
    );
    assert_eq!(
        std::fs::read(&data).unwrap(),
        bytes,
        "the evidence was changed"
    );

    let _ = db.checkpoint().unwrap().expect("durable handle");
    assert!(db.scrub().unwrap().expect("durable handle").is_clean());
    drop(s);
    drop(db);
    let (db, report) = SharedDatabase::open_durable(&dir, SharedConfig::default()).unwrap();
    assert!(report.is_clean(), "{report:?}");
    let r = db.session().query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.result.rows, vec![vec![Value::Int(2)]]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scrub_on_a_memory_handle_is_a_noop() {
    let db = SharedDatabase::new(conquer_engine::Database::new());
    assert_eq!(db.scrub().unwrap(), None);
    assert!(!db.is_degraded());
    assert_eq!(db.stats().scrub_runs, 0);
}

#[test]
fn stats_surface_io_health_counters() {
    let db = SharedDatabase::new(conquer_engine::Database::new());
    let stats = db.stats();
    // The counters are process-wide and monotonic; a fresh in-memory
    // handle must still report them (other tests may have bumped them).
    let _ = stats.io_errors;
    let _ = stats.fsync_failures;
    assert_eq!(stats.corrupt_frames, 0);
    assert!(!stats.degraded);
}
