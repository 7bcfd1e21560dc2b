//! End-to-end crash safety of the durable `SharedDatabase` (requires
//! `--features fault`): on the simulated filesystem, fail every write and
//! fsync of a commit and of a checkpoint, then crash — restore the image
//! only fsync promised — and assert that reopening recovers exactly the
//! committed boundary: acknowledged writes survive, unacknowledged ones
//! vanish, nothing tears. View maintenance that runs out of budget is the
//! same kind of failed statement, reached by a real input.
#![cfg(feature = "fault")]

use std::path::{Path, PathBuf};
use std::sync::Arc;

use conquer_engine::{EngineError, ErrorKind, ExecLimits, SharedConfig, SharedDatabase};
use conquer_storage::vfs::{self, mount_sim, MountGuard, SimFs};
use conquer_storage::wal::WAL_FILE;
use conquer_storage::{RecoveryReport, StorageError, Value, Wal};

/// A simulated filesystem holding one durably created, empty database
/// directory.
fn mount(tag: &str) -> (Arc<SimFs>, MountGuard, PathBuf) {
    let root = PathBuf::from("/sim").join(tag);
    let (fs, guard) = mount_sim(&root);
    let dir = root.join("db");
    vfs::create_dir_all(&dir).unwrap();
    vfs::sync_dir(&root).unwrap();
    (fs, guard, dir)
}

fn open(dir: &Path) -> (SharedDatabase, RecoveryReport) {
    SharedDatabase::open_durable(dir, SharedConfig::default()).unwrap()
}

/// `sql`'s rows, read without a budget (the budget test gives the
/// database's own queries 706 bytes).
fn rows(db: &SharedDatabase, sql: &str) -> Vec<Vec<Value>> {
    let s = db.session();
    s.set_limits(ExecLimits::none());
    s.query(sql).unwrap().result.rows.clone()
}

fn int(db: &SharedDatabase, sql: &str) -> i64 {
    match rows(db, sql)[0][0] {
        Value::Int(n) => n,
        ref other => panic!("unexpected {other:?}"),
    }
}

fn count(db: &SharedDatabase) -> i64 {
    int(db, "SELECT COUNT(*) FROM t")
}

/// Crash now: only what fsync promised survives the reboot.
fn crash(fs: &SimFs) {
    fs.restore(&fs.durable_image());
}

fn assert_untorn(report: &RecoveryReport, ctx: &str) {
    assert!(
        !report.issues.iter().any(|s| s.contains("torn")),
        "{ctx}: {report:?}"
    );
}

/// One fault per run: the `nth` write for `nth` in `1..=writes`, then the
/// `nth` fsync for `nth` in `1..=syncs`.
fn every_io_fault(writes: u64, syncs: u64) -> impl Iterator<Item = (&'static str, u64)> {
    let writes = (1..=writes).map(|n| ("write", n));
    writes.chain((1..=syncs).map(|n| ("fsync", n)))
}

fn arm(fs: &SimFs, (call, nth): (&str, u64)) {
    match call {
        "write" => fs.fail_write("", nth),
        _ => fs.fail_sync("", nth),
    }
}

/// Run `op` on a database opened over `fs`'s current image and return
/// the writes and fsyncs it made.
fn calls_of(fs: &SimFs, dir: &Path, op: impl FnOnce(&SharedDatabase)) -> (u64, u64) {
    let (db, _) = open(dir);
    let (w0, s0) = (fs.write_calls(), fs.sync_calls());
    op(&db);
    (fs.write_calls() - w0, fs.sync_calls() - s0)
}

#[test]
fn write_failed_at_every_write_and_fsync_recovers_the_committed_boundary() {
    let (fs, _guard, dir) = mount("efwal_write");
    {
        let (db, _) = open(&dir);
        db.session().execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.session().execute("INSERT INTO t VALUES (1)").unwrap();
    }
    let baseline = fs.durable_image();

    // The WAL fsync is the commit point: a write acknowledged a moment
    // before the crash survives it.
    let (writes, syncs) = calls_of(&fs, &dir, |db| {
        db.session().execute("INSERT INTO t VALUES (2)").unwrap();
    });
    crash(&fs);
    assert_eq!(count(&open(&dir).0), 2);

    for fault in every_io_fault(writes, syncs) {
        fs.restore(&baseline);
        let (db, _) = open(&dir);
        arm(&fs, fault);
        let err = db
            .session()
            .execute("INSERT INTO t VALUES (2)")
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Io, "{fault:?}: {err}");
        assert_eq!(count(&db), 1, "{fault:?}: a failed write published");
        drop(db);

        crash(&fs);
        let (db, report) = open(&dir);
        assert_untorn(&report, &format!("{fault:?}"));
        assert_eq!(count(&db), 1, "{fault:?}");
        // The recovered database keeps accepting durable writes.
        db.session().execute("INSERT INTO t VALUES (3)").unwrap();
        drop(db);
        crash(&fs);
        assert_eq!(count(&open(&dir).0), 2, "{fault:?}");
    }
}

#[test]
fn checkpoint_failed_at_every_write_and_fsync_loses_no_committed_write() {
    let (fs, _guard, dir) = mount("efwal_ckpt");
    {
        let (db, _) = open(&dir);
        db.session().execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.session()
            .execute("INSERT INTO t VALUES (1), (2)")
            .unwrap();
    }
    let baseline = fs.durable_image();
    let (writes, syncs) = calls_of(&fs, &dir, |db| {
        let _ = db.checkpoint().unwrap();
    });

    for fault in every_io_fault(writes, syncs) {
        fs.restore(&baseline);
        let (db, _) = open(&dir);
        arm(&fs, fault);
        // A failed fold is typed; a failure after it (gc, the truncation,
        // reopening the log) is counted, and the checkpoint stands.
        if let Err(err) = db.checkpoint() {
            assert_eq!(err.kind(), ErrorKind::Io, "{fault:?}: {err}");
        }
        assert_eq!(count(&db), 2, "{fault:?}");
        // The handle keeps committing and checkpointing, and what it
        // acknowledged survives a crash.
        db.session().execute("INSERT INTO t VALUES (3)").unwrap();
        let _ = db.checkpoint().unwrap().unwrap();
        db.session().execute("INSERT INTO t VALUES (4)").unwrap();
        drop(db);
        crash(&fs);
        let (db, report) = open(&dir);
        assert_untorn(&report, &format!("{fault:?}"));
        assert_eq!(count(&db), 4, "{fault:?}");
    }
}

/// A crash while a checkpoint's fsync has failed: whatever subset of its
/// unsynced steps reached the disk — among them a staged log without its
/// rename over wal.log — reopening finds every committed row and removes
/// (and reports, once) any staged log left behind.
#[test]
fn every_crash_image_of_a_checkpoint_with_a_failed_fsync_reopens_clean() {
    let (fs, _guard, dir) = mount("efwal_ckpt_crash");
    {
        let (db, _) = open(&dir);
        db.session().execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.session()
            .execute("INSERT INTO t VALUES (1), (2), (3)")
            .unwrap();
    }
    let baseline = fs.durable_image();
    let (_, syncs) = calls_of(&fs, &dir, |db| {
        let _ = db.checkpoint().unwrap();
    });

    let mut staged = 0;
    for nth in 1..=syncs {
        fs.restore(&baseline);
        let (db, _) = open(&dir);
        fs.fail_sync("", nth);
        let _ = db.checkpoint();
        drop(db);
        for state in fs.crash_states() {
            let ctx = format!("fsync {nth}, {}", state.label);
            let has_tmp = state.files.keys().any(|p| {
                p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with(".wal.tmp-"))
            });
            fs.restore(&state);
            let (db, report) = open(&dir);
            assert_eq!(count(&db), 3, "{ctx}");
            drop(db);
            if has_tmp {
                staged += 1;
                assert!(
                    report
                        .issues
                        .iter()
                        .any(|i| i.contains("interrupted checkpoint") && i.contains("removed")),
                    "{ctx}: {report:?}"
                );
                let (_, again) = open(&dir);
                assert!(
                    !again.issues.iter().any(|i| i.contains("wal.tmp")),
                    "{ctx}: {again:?}"
                );
            }
        }
    }
    assert!(staged > 0, "no crash image kept a staged log");
}

/// A durable `mutate` commits at its fold: acknowledged, it survives a
/// crash. A fold failed at either of its fsyncs — the staged log's, or
/// the directory's after the rename — fails the mutation whole and
/// publishes nothing, and the next statement heals the log back to what
/// was acknowledged: every crash image holds that statement and never
/// the failed mutation, even where the failed fold's log had already
/// been renamed into place.
#[test]
fn durable_mutate_commits_at_the_fold() {
    let (fs, _guard, dir) = mount("efwal_mutate");
    let insert = |db: &SharedDatabase, v: i64| {
        db.mutate(|d| {
            d.execute_script(&format!("INSERT INTO t VALUES ({v})"))
                .map(|_| ())
        })
    };
    {
        let (db, _) = open(&dir);
        db.session().execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.session().execute("INSERT INTO t VALUES (1)").unwrap();
        insert(&db, 2).unwrap();
    }
    crash(&fs);
    assert_eq!(count(&open(&dir).0), 2);
    let baseline = fs.durable_image();
    let all = "SELECT a FROM t ORDER BY a";
    let ints = |v: &[i64]| -> Vec<Vec<Value>> { v.iter().map(|&a| vec![Value::Int(a)]).collect() };

    for nth in 1..=2 {
        fs.restore(&baseline);
        let (db, _) = open(&dir);
        fs.fail_sync("", nth);
        let err = insert(&db, 3).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Io, "fsync {nth}: {err}");
        assert_eq!(rows(&db, all), ints(&[1, 2]), "fsync {nth}: published");
        db.session().execute("INSERT INTO t VALUES (4)").unwrap();
        drop(db);
        for state in fs.crash_states() {
            let ctx = format!("fsync {nth}, {}", state.label);
            fs.restore(&state);
            let (db, report) = open(&dir);
            assert_untorn(&report, &ctx);
            assert_eq!(rows(&db, all), ints(&[1, 2, 4]), "{ctx}");
        }
    }
}

/// A checkpoint whose directory fsync fails after its rename cannot
/// promise the new log's name: it is reported failed, and the handle,
/// which still holds the log it acknowledged, must not append to a file
/// a crash may take away. The next write is acknowledged only once it is
/// durable.
#[test]
fn a_checkpoint_whose_rename_is_not_durable_loses_no_acknowledged_write() {
    let (fs, _guard, dir) = mount("efwal_rename");
    let (db, _) = open(&dir);
    let s = db.session();
    s.execute("CREATE TABLE t (a INTEGER)").unwrap();
    for i in 0..20 {
        s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    fs.fail_sync("", 2);
    let err = db.checkpoint().unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Io, "{err}");
    s.execute("INSERT INTO t VALUES (20)").unwrap();
    drop((s, db));
    for state in fs.crash_states() {
        fs.restore(&state);
        let (db, report) = open(&dir);
        assert_untorn(&report, &state.label);
        assert_eq!(count(&db), 21, "{}", state.label);
    }
}

/// A commit whose fsync failed was reported failed, so the checkpoint
/// after it must not fold it: every crash image of that checkpoint
/// reopens untorn to exactly the acknowledged rows, and the next
/// acknowledged insert survives a crash.
#[test]
fn a_commit_failed_at_its_fsync_never_surfaces_after_a_checkpoint() {
    let (fs, _guard, dir) = mount("efwal_ckpt_poisoned");
    let all = "SELECT a FROM t ORDER BY a";
    let ints = |v: &[i64]| -> Vec<Vec<Value>> { v.iter().map(|&a| vec![Value::Int(a)]).collect() };
    {
        let (db, _) = open(&dir);
        db.session().execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.session()
            .execute("INSERT INTO t VALUES (1), (2)")
            .unwrap();
        fs.fail_sync("wal.log", 1);
        let err = db
            .session()
            .execute("INSERT INTO t VALUES (3)")
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Io, "{err}");
        let _ = db.checkpoint().unwrap().unwrap();
        assert_eq!(rows(&db, all), ints(&[1, 2]));
    }
    for state in fs.crash_states() {
        let ctx = state.label.clone();
        fs.restore(&state);
        let (db, report) = open(&dir);
        assert_untorn(&report, &ctx);
        assert_eq!(rows(&db, all), ints(&[1, 2]), "{ctx}");
        db.session().execute("INSERT INTO t VALUES (4)").unwrap();
        drop(db);
        crash(&fs);
        let (db, report) = open(&dir);
        assert_untorn(&report, &ctx);
        assert_eq!(rows(&db, all), ints(&[1, 2, 4]), "{ctx}");
    }
}

/// A checkpoint reads none of the log it folds: the bytes it reads are
/// the same behind a 1-commit log and a 40-commit log.
#[test]
fn a_checkpoint_reads_the_same_bytes_whatever_the_log_holds() {
    let checkpoint_reads = |commits: usize| -> u64 {
        let (fs, _guard, dir) = mount(&format!("efwal_ckpt_reads_{commits}"));
        let (db, _) = open(&dir);
        let s = db.session();
        s.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
        for i in 0..9 {
            s.execute(&format!("INSERT INTO t VALUES ({i}, 'row {i}')"))
                .unwrap();
        }
        let _ = db.checkpoint().unwrap().unwrap();
        for i in 0..commits {
            s.execute(&format!("INSERT INTO t VALUES ({i}, 'row {i}')"))
                .unwrap();
        }
        assert_eq!(db.stats().wal_commits, 10 + commits as u64);
        let before = fs.read_bytes();
        let _ = db.checkpoint().unwrap().unwrap();
        fs.read_bytes() - before
    };
    assert_eq!(checkpoint_reads(1), checkpoint_reads(40));
}

/// Opening a durable database reads `wal.log` once and nothing else, and
/// decodes from it only the images the catalog keeps.
#[test]
fn open_durable_reads_the_log_once() {
    let (fs, _guard, dir) = mount("efwal_read_once");
    {
        let (db, _) = open(&dir);
        let s = db.session();
        s.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
        s.execute("CREATE TABLE u (a INTEGER)").unwrap();
        let _ = db.checkpoint().unwrap().unwrap();
        for i in 0..3 {
            s.execute(&format!("INSERT INTO t VALUES ({i}, 'row {i}')"))
                .unwrap();
        }
    }
    let log = vfs::read(&dir.join(WAL_FILE)).unwrap().len() as u64;
    let before = fs.read_bytes();
    let (db, report) = open(&dir);
    assert_eq!(fs.read_bytes() - before, log);
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.wal_commits_replayed, 3);
    assert_eq!(count(&db), 3);
}

/// FNV-1a 64, the log's frame checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A directory the epoch layout wrote (a `CURRENT` pointer, a
/// `v000001/` epoch with its `MANIFEST`, `walseq` and table file, and a
/// `conquer-wal v1` log beside it), built by hand. Every entry point
/// refuses it with a typed corruption naming the layout, and no byte of
/// the directory changes — not even the leftovers recovery would clear.
/// A lone v1 log, and a v2 log, are refused the same way.
#[test]
fn a_directory_in_the_epoch_layout_is_refused_and_left_as_it_is() {
    let (fs, _guard, dir) = mount("efwal_old_layout");
    let frame = |payload: &[u8]| {
        let mut f = (payload.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        f.extend_from_slice(payload);
        f
    };
    let mut header = vec![0u8];
    header.extend_from_slice(b"conquer-wal v1");
    header.extend_from_slice(&7u64.to_le_bytes());
    let epoch = dir.join("v000001");
    vfs::create_dir_all(&epoch).unwrap();
    let mut manifest = "conquer-manifest v1\n".to_string();
    for (name, bytes) in [("t.tbl", &b"an image"[..]), ("walseq", &b"7\n"[..])] {
        vfs::write(&epoch.join(name), bytes).unwrap();
        let sum = fnv1a64(bytes);
        manifest.push_str(&format!("fnv1a64:{sum:016x} {} {name}\n", bytes.len()));
    }
    vfs::write(&epoch.join("MANIFEST"), manifest.as_bytes()).unwrap();
    vfs::write(&dir.join("CURRENT"), b"v000001").unwrap();
    vfs::write(&dir.join(WAL_FILE), &frame(&header)).unwrap();
    vfs::write(&dir.join(".wal.tmp-1"), b"staged").unwrap();

    let assert_refused = |layout: &str| {
        let before = fs.current_image();
        let storage = [
            conquer_storage::load_catalog(&dir).map(drop),
            conquer_storage::load_catalog_recover(&dir).map(drop),
            Wal::open(&dir).map(drop),
        ];
        let engine = SharedDatabase::open_durable(&dir, SharedConfig::default()).map(drop);
        let engine = engine.map_err(|e| match e {
            EngineError::Storage(e) => e,
            other => panic!("{layout}: not a storage error: {other:?}"),
        });
        for refused in storage.into_iter().chain([engine]) {
            assert!(
                matches!(&refused, Err(StorageError::Corrupt { detail, .. }) if detail.contains(layout)),
                "{layout}: {refused:?}"
            );
        }
        let after = fs.current_image();
        assert_eq!(
            (after.files, after.dirs),
            (before.files, before.dirs),
            "{layout}"
        );
    };
    assert_refused("epoch-directory layout");
    vfs::remove_file(&dir.join("CURRENT")).unwrap();
    vfs::remove_dir_all(&epoch).unwrap();
    assert_refused("conquer-wal v1");
    // A v2 log, an empty base sealed at 7, is refused the same way.
    let mut log = header.clone();
    log[1..15].copy_from_slice(b"conquer-wal v2");
    let mut log = frame(&log);
    let mut seal = vec![4u8];
    seal.extend_from_slice(&7u64.to_le_bytes());
    log.extend_from_slice(&frame(&seal));
    vfs::write(&dir.join(WAL_FILE), &log).unwrap();
    assert_refused("conquer-wal v2");
}

/// A base table `t` with a view over it and a join view over `t` and `u`,
/// at least three terms per group on both sides of [`VIEW_DML`].
fn view_db(dir: &Path) -> SharedDatabase {
    let (db, _) = open(dir);
    for sql in [
        "CREATE TABLE t (id TEXT, g INTEGER, prob DOUBLE)",
        "INSERT INTO t VALUES ('a', 1, 0.7), ('b', 1, 0.7), ('b', 1, 0.9), ('b', 1, 0.3), \
         ('b', 2, 0.4), ('c', 2, 0.3), ('c', 2, 0.6), ('c', 3, 0.4), ('c', 3, 0.2), ('c', 3, 0.3), \
         ('a', 3, 0.1), ('a', 3, 0.2), ('a', 3, 0.3)",
        "CREATE TABLE u (g INTEGER, w TEXT)",
        "INSERT INTO u VALUES (1, 'x'), (2, 'y'), (3, 'y'), (4, 'z')",
        "CREATE MATERIALIZED VIEW v AS SELECT g, SUM(prob) AS p FROM t GROUP BY g",
        "CREATE MATERIALIZED VIEW vj AS \
         SELECT u.w, SUM(t.prob) AS p FROM t, u WHERE t.g = u.g GROUP BY u.w",
    ] {
        db.session().execute(sql).unwrap();
    }
    db
}

/// Moves ('a',1) into group 2 and a's three group-3 rows into group 4,
/// which it creates in `v` (and `'z'` in `vj`): retractions, additions and
/// new groups in one commit.
const VIEW_DML: &str = "UPDATE t SET g = g + 1 WHERE id = 'a'";

/// Both views equal a recompute over their bases, and the base table
/// sits on one side of `VIEW_DML` (`applied` or not), never between.
fn assert_views_on_boundary(db: &SharedDatabase, applied: bool, ctx: &str) {
    for (view, recompute) in [
        (
            "SELECT g, p FROM v ORDER BY g",
            "SELECT g, SUM(prob) AS p FROM t GROUP BY g ORDER BY g",
        ),
        (
            "SELECT w, p FROM vj ORDER BY w",
            "SELECT u.w, SUM(t.prob) AS p FROM t, u WHERE t.g = u.g GROUP BY u.w ORDER BY u.w",
        ),
    ] {
        assert_eq!(
            rows(db, view),
            rows(db, recompute),
            "{ctx}: view half-maintained"
        );
    }
    let olds = int(db, "SELECT COUNT(*) FROM t WHERE id = 'a' AND g = 1");
    assert_eq!(olds, i64::from(!applied), "{ctx}: not a committed boundary");
}

#[test]
fn view_dml_failed_at_every_write_and_fsync_is_never_half_maintained() {
    let (fs, _guard, dir) = mount("efwal_view");
    drop(view_db(&dir));
    let baseline = fs.durable_image();

    let (writes, syncs) = calls_of(&fs, &dir, |db| {
        db.session().execute(VIEW_DML).unwrap();
    });
    crash(&fs);
    assert_views_on_boundary(&open(&dir).0, true, "acknowledged");

    for fault in every_io_fault(writes, syncs) {
        let ctx = format!("{fault:?}");
        fs.restore(&baseline);
        let (db, _) = open(&dir);
        arm(&fs, fault);
        let err = db.session().execute(VIEW_DML).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Io, "{ctx}: {err}");
        assert_views_on_boundary(&db, false, &format!("{ctx} (pre-crash)"));
        drop(db);

        crash(&fs);
        let (db, report) = open(&dir);
        assert_untorn(&report, &ctx);
        assert_views_on_boundary(&db, false, &format!("{ctx} (post-recovery)"));
        // Maintenance keeps working after recovery, durably.
        db.session()
            .execute("INSERT INTO t VALUES ('c', 1, 0.1)")
            .unwrap();
        assert_views_on_boundary(&db, false, &format!("{ctx} (post-recovery DML)"));
        let stats = db.stats();
        assert_eq!(stats.views, 2, "{ctx}: registry lost a view");
        assert!(stats.view_deltas_applied > 0, "{ctx}");
    }
}

/// A join view's delta query runs out of a 706-byte, no-disk budget
/// after the single-table view `v` was already maintained: the statement
/// fails whole, with nothing logged or published. Measured peaks of
/// `VIEW_DML`'s maintenance, one grouped query per view over the 8 signed
/// delta rows of its 4 updated rows: `v` alone needs 704 B, `vj` 708 B.
/// Each peak is the query's output batch as the fold takes it: 4 (key,
/// sign) groups, each a row of 176 B for `v` and 177 B for `vj`, whose key
/// is a one-letter text. Below it stay each query's aggregate, which
/// charges a group its key cells and its 8-byte `COUNT` and 80-byte `SUM`
/// states, and `vj`'s build side, a 4-byte position plus a key copy per
/// tuple.
#[test]
fn view_maintenance_out_of_budget_publishes_nothing() {
    let (fs, _guard, dir) = mount("efwal_view_budget");
    let db = view_db(&dir);
    db.mutate(|d| {
        d.set_limits(ExecLimits::none().with_mem_bytes(706).with_disk_bytes(0));
        Ok(())
    })
    .unwrap();
    let before = db.stats();
    let err = db.session().execute(VIEW_DML).unwrap_err();
    assert!(
        matches!(err, EngineError::ResourceExhausted { .. }),
        "{err:?}"
    );
    let after = db.stats();
    assert_eq!(after.wal_commits, before.wal_commits);
    assert_eq!(after.epoch, before.epoch);
    assert_views_on_boundary(&db, false, "pre-crash");
    drop(db);
    crash(&fs);
    assert_views_on_boundary(&open(&dir).0, false, "post-recovery");
}
