//! IO faults in the write-ahead log (require `--features fault`): on the
//! simulated filesystem, fail every write and fsync of a commit and of a
//! checkpoint, and crash a checkpoint midway, then assert that (a) the
//! failure is a typed error, (b) reload recovers exactly the last
//! committed state — never a torn catalog, never a lost committed write —
//! and (c) the log keeps accepting commits afterwards.
#![cfg(feature = "fault")]

use std::path::{Path, PathBuf};

use conquer_storage::vfs::{mount_sim, SimFs};
use conquer_storage::{
    load_catalog, load_catalog_recover, save_catalog, DataType, Schema, StorageError, Table, Value,
    Wal, WalOp,
};

fn table(rows: i64) -> Table {
    let mut t = Table::new(
        "t",
        Schema::from_pairs([("a", DataType::Int), ("b", DataType::Text)]).unwrap(),
    );
    for i in 0..rows {
        t.insert(vec![Value::Int(i), Value::text(format!("row {i}"))])
            .unwrap();
    }
    t
}

fn loaded_rows(dir: &Path) -> usize {
    load_catalog(dir).unwrap().table("t").unwrap().len()
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

#[test]
fn commit_failed_at_every_write_and_fsync_recovers_last_committed_state() {
    let (fs, _guard) = mount_sim("/sim/fwal_commit");
    let dir = PathBuf::from("/sim/fwal_commit/db");
    let mut wal = Wal::open(&dir).unwrap();
    wal.commit(&[WalOp::Put(&table(3))]).unwrap();
    let ops = [WalOp::Put(&table(7)), WalOp::Drop("ghost")];

    // Calls of one clean commit, counted on a log beside this one.
    let mut scratch = Wal::open(&dir.join("scratch")).unwrap();
    let (w0, s0) = (fs.write_calls(), fs.sync_calls());
    scratch.commit(&ops).unwrap();
    let (writes, syncs) = (fs.write_calls() - w0, fs.sync_calls() - s0);

    for fault in every_io_fault(writes, syncs) {
        arm(&fs, fault);
        let err = wal.commit(&ops).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "{fault:?}: {err:?}");
        // A failed commit must be as if it never happened: the last
        // committed state reloads exactly, strict and lenient alike.
        assert_eq!(loaded_rows(&dir), 3, "{fault:?}");
        let (cat, report) = load_catalog_recover(&dir).unwrap();
        assert_eq!(cat.table("t").unwrap().len(), 3);
        assert!(
            !report.issues.iter().any(|s| s.contains("torn")),
            "rolled-back append left a tear at {fault:?}: {report:?}"
        );
    }

    // The log still works after every induced failure.
    wal.commit(&[WalOp::Put(&table(9))]).unwrap();
    assert_eq!(loaded_rows(&dir), 9);
}

#[test]
fn checkpoint_failed_at_every_write_and_fsync_loses_no_committed_write() {
    let (fs, _guard) = mount_sim("/sim/fwal_ckpt");
    let dir = PathBuf::from("/sim/fwal_ckpt/db");
    let mut wal = Wal::open(&dir).unwrap();
    wal.commit(&[WalOp::Put(&table(2))]).unwrap();
    wal.checkpoint(&load_catalog(&dir).unwrap()).unwrap();
    wal.commit(&[WalOp::Put(&table(5))]).unwrap();
    let checkpoint = || save_catalog(&load_catalog(&dir).unwrap(), &dir);

    // One clean checkpoint counts the calls the loop fails in turn
    // (`restore` zeroes the counters).
    let baseline = fs.current_image();
    fs.restore(&baseline);
    checkpoint().unwrap();
    let (writes, syncs) = (fs.write_calls(), fs.sync_calls());

    for fault in every_io_fault(writes, syncs) {
        fs.restore(&baseline);
        arm(&fs, fault);
        // A failed checkpoint is an error; the log on disk is then the
        // old one or the compacted one.
        let _ = checkpoint();
        // Wherever the fault landed, reload sees every committed write:
        // the old base + its commits, or the new base that folded them.
        assert_eq!(loaded_rows(&dir), 5, "{fault:?}");
        let (cat, _) = load_catalog_recover(&dir).unwrap();
        assert_eq!(cat.table("t").unwrap().len(), 5, "{fault:?}");
    }

    // After all that, a clean checkpoint still works.
    checkpoint().unwrap();
    assert_eq!(loaded_rows(&dir), 5);
}

#[test]
fn open_failure_is_typed_and_reopen_succeeds() {
    let (fs, _guard) = mount_sim("/sim/fwal_open");
    let dir = PathBuf::from("/sim/fwal_open/db");
    fs.fail_write("wal.log", 1);
    let err = Wal::open(&dir).unwrap_err();
    assert!(matches!(err, StorageError::Io(_)), "{err:?}");
    let mut wal = Wal::open(&dir).unwrap();
    wal.commit(&[WalOp::Put(&table(1))]).unwrap();
    assert_eq!(loaded_rows(&dir), 1);
}

#[test]
fn crash_images_of_an_interrupted_checkpoint_are_cleaned_by_recovery() {
    let (fs, _guard) = mount_sim("/sim/fwal_trunc");
    let dir = PathBuf::from("/sim/fwal_trunc/db");
    let mut wal = Wal::open(&dir).unwrap();
    wal.commit(&[WalOp::Put(&table(4))]).unwrap();
    let checkpoint = || save_catalog(&load_catalog(&dir).unwrap(), &dir);

    // A checkpoint's last fsync is the directory sync after its rename.
    // Failing it leaves both the staged log's creation and its rename
    // over wal.log unsynced, so a crash can keep the one without the other.
    let baseline = fs.current_image();
    fs.restore(&baseline);
    checkpoint().unwrap();
    let last_sync = fs.sync_calls();
    fs.restore(&baseline);
    fs.fail_sync("", last_sync);
    assert!(checkpoint().is_err(), "the rename is not known durable");

    let mut staged = 0;
    for state in fs.crash_states() {
        let has_tmp = state.files.keys().any(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with(".wal.tmp-"))
        });
        fs.restore(&state);
        let (cat, report) = load_catalog_recover(&dir).unwrap();
        assert_eq!(cat.table("t").unwrap().len(), 4, "{}", state.label);
        if has_tmp {
            staged += 1;
            // Recovery removes the staged log, reports it, and says
            // nothing more about it the next time.
            assert!(
                report
                    .issues
                    .iter()
                    .any(|i| i.contains("interrupted checkpoint") && i.contains("removed")),
                "{}: {report:?}",
                state.label
            );
            let (_, again) = load_catalog_recover(&dir).unwrap();
            assert!(
                !again.issues.iter().any(|i| i.contains("wal.tmp")),
                "{again:?}"
            );
        }
    }
    assert!(staged > 0, "no crash image kept the staged log");
}
