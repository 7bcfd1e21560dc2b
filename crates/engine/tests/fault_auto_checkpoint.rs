//! A failed automatic checkpoint never fails the statement that set it
//! off, and is never silent either (requires `--features fault`): it is
//! counted in `io_errors`, noted for `vfs::drain_issues`, and
//! the next write's checkpoint retries it. Its own test binary, because
//! the IO health counters are process-wide.
#![cfg(feature = "fault")]

use std::path::PathBuf;

use conquer_engine::{SharedConfig, SharedDatabase};
use conquer_storage::vfs::{self, mount_sim};
use conquer_storage::Value;

#[test]
fn a_failed_automatic_checkpoint_is_counted_noted_and_retried() {
    let root = PathBuf::from("/sim/auto_ckpt");
    let (fs, _guard) = mount_sim(&root);
    let dir = root.join("db");
    vfs::create_dir_all(&dir).unwrap();
    vfs::sync_dir(&root).unwrap();
    // Every committed write is past the limit and checkpoints.
    let mut config = SharedConfig::default();
    config.wal_limit = 1;
    let (db, _) = SharedDatabase::open_durable(&dir, config).unwrap();
    let s = db.session();
    s.execute("CREATE TABLE t (a INTEGER)").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    let before = db.stats();
    vfs::drain_issues();

    // Fail the fsync of the next checkpoint's staged log.
    fs.fail_sync(".wal.tmp-", 1);
    s.execute("INSERT INTO t VALUES (2)").unwrap();
    let failed = db.stats();
    assert_eq!(failed.io_errors, before.io_errors + 1);
    assert_eq!(failed.checkpoints, before.checkpoints);
    let notes = vfs::drain_issues();
    let needle = format!("automatic checkpoint of {} failed", dir.display());
    assert!(notes.iter().any(|n| n.contains(&needle)), "{notes:?}");

    // The next write checkpoints, and what it acknowledged reopens clean.
    s.execute("INSERT INTO t VALUES (3)").unwrap();
    let retried = db.stats();
    assert_eq!(retried.io_errors, failed.io_errors);
    assert_eq!(retried.checkpoints, failed.checkpoints + 1);
    drop((s, db));
    fs.restore(&fs.durable_image());
    let (db, report) = SharedDatabase::open_durable(&dir, config).unwrap();
    assert!(report.is_clean(), "{report:?}");
    let rows = db.session().query("SELECT a FROM t ORDER BY a").unwrap();
    let ints: Vec<Vec<Value>> = (1..=3).map(|a| vec![Value::Int(a)]).collect();
    assert_eq!(rows.result.rows.to_vec(), ints);
}
