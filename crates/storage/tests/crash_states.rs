//! Crash-state enumeration: mount the simulated filesystem, run a storage
//! operation, enumerate *every* post-crash disk image the unsynced state
//! admits (subsets of pending ops dropped or reordered, the final write
//! torn mid-buffer), and prove each one recovers to a committed boundary —
//! never a partial state, never an unrecoverable directory.
//!
//! Covered paths: a WAL commit whose fsync fails (one put frame, and two
//! edit frames torn at every byte, their boundary included), every fsync of a full
//! checkpoint (`save_catalog`, and `Wal::checkpoint` on an open log
//! followed by an acknowledged commit), and spill writes (which are
//! scratch and must never affect recovery).

#![cfg(feature = "fault")]

use std::path::{Path, PathBuf};

use conquer_storage::vfs::{self, mount_sim};
use conquer_storage::{
    load_catalog_recover, save_catalog, scrub, Catalog, DataType, Edit, Schema, Table, Value, Wal,
    WalOp,
};

fn table(name: &str, rows: &[i64]) -> Table {
    let mut t = Table::new(name, Schema::from_pairs([("a", DataType::Int)]).unwrap());
    for r in rows {
        t.insert(vec![Value::Int(*r)]).unwrap();
    }
    t
}

fn catalog(rows: &[i64]) -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table(table("t", rows)).unwrap();
    cat
}

fn rows_of(cat: &Catalog) -> Vec<i64> {
    cat.table("t")
        .expect("table t must exist in every recovered state")
        .rows()
        .iter()
        .map(|r| match &r[0] {
            Value::Int(i) => *i,
            other => panic!("unexpected {other:?}"),
        })
        .collect()
}

/// Recover `dir` after restoring `state` and return t's rows.
fn recovered_rows(fs: &vfs::SimFs, state: &vfs::CrashState, dir: &Path) -> Vec<i64> {
    fs.restore(state);
    let (cat, _report) = load_catalog_recover(dir)
        .unwrap_or_else(|e| panic!("crash state {:?} failed to recover: {e}", state.label));
    rows_of(&cat)
}

#[test]
fn every_crash_state_of_a_failed_wal_commit_recovers_to_a_boundary() {
    let (fs, _guard) = mount_sim("/sim/crash_wal");
    let dir = PathBuf::from("/sim/crash_wal/db");

    // Committed boundary A: a base with two rows, everything durable.
    save_catalog(&catalog(&[1, 2]), &dir).unwrap();
    fs.restore(&fs.current_image());

    // Boundary B is a WAL commit whose fsync fails: the append reached
    // the page cache but durability was never promised, and the rollback
    // truncation is itself unsynced. Both old and fully-applied new are
    // legal post-crash outcomes; anything in between is not.
    let mut wal = Wal::open(&dir).unwrap();
    fs.fail_sync("wal.log", 1);
    let err = wal.commit(&[WalOp::Put(&table("t", &[1, 2, 3]))]);
    assert!(err.is_err(), "a failed fsync must fail the commit");
    assert!(wal.is_poisoned());
    assert!(fs.pending_ops() > 0, "the unacked append must be pending");

    let states = fs.crash_states();
    assert!(states.len() > 2, "expected subsets + torn variants");
    let mut outcomes = std::collections::BTreeSet::new();
    for state in &states {
        let rows = recovered_rows(&fs, state, &dir);
        assert!(
            rows == vec![1, 2] || rows == vec![1, 2, 3],
            "crash state {:?} recovered to a non-boundary state {rows:?}",
            state.label
        );
        outcomes.insert(rows);
    }
    // The enumeration must actually exercise both sides of the boundary:
    // the old state (append lost or torn) and the complete-but-unacked
    // commit (append fully reached the platter).
    assert_eq!(outcomes.len(), 2, "both boundaries must be reachable");
}

/// The rows of `t` and of `u`.
fn both_rows(cat: &Catalog) -> (Vec<i64>, Vec<i64>) {
    let ints = |name: &str| -> Vec<i64> {
        let table = cat.table(name).expect("both tables survive every crash");
        table
            .rows()
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect()
    };
    (ints("t"), ints("u"))
}

#[test]
fn every_crash_state_of_a_commit_of_two_edit_frames_recovers_to_a_boundary() {
    let (fs, _guard) = mount_sim("/sim/crash_edits");
    let dir = PathBuf::from("/sim/crash_edits/db");
    let mut base = catalog(&[1, 2]);
    base.add_table(table("u", &[5])).unwrap();
    save_catalog(&base, &dir).unwrap();
    let baseline = fs.current_image();

    // One commit, two edit frames: `t` replaces its first row, `u` gains
    // a row.
    let t_edit = [Edit {
        changed: vec![(0, Some(vec![Value::Int(10)].into()))],
        ..Edit::default()
    }];
    let u_edit = [Edit {
        inserted: vec![(1, vec![Value::Int(6)].into())],
        ..Edit::default()
    }];
    let ops = [WalOp::Edit("t", &t_edit), WalOp::Edit("u", &u_edit)];

    // Where the first frame ends inside the append: the same commit,
    // acknowledged, read back.
    fs.restore(&baseline);
    let before = vfs::read(&dir.join("wal.log")).unwrap().len();
    Wal::open(&dir).unwrap().commit(&ops).unwrap();
    let log = vfs::read(&dir.join("wal.log")).unwrap();
    let len = u32::from_le_bytes(log[before..before + 4].try_into().unwrap()) as usize;
    let boundary = 4 + 8 + len;
    assert!(
        log.len() - before <= 128,
        "every byte of the append is a tear point"
    );

    fs.restore(&baseline);
    let mut wal = Wal::open(&dir).unwrap();
    fs.fail_sync("wal.log", 1);
    assert!(
        wal.commit(&ops).is_err(),
        "a failed fsync must fail the commit"
    );
    let states = fs.crash_states();
    let between = format!(" at {boundary} ");
    assert!(
        states.iter().any(|s| s.label.contains(&between)),
        "no crash state tears the append between its two edit frames"
    );
    let mut outcomes = std::collections::BTreeSet::new();
    for state in &states {
        fs.restore(state);
        let (cat, _report) = load_catalog_recover(&dir)
            .unwrap_or_else(|e| panic!("crash state {:?} failed to recover: {e}", state.label));
        let rows = both_rows(&cat);
        assert!(
            rows == (vec![1, 2], vec![5]) || rows == (vec![10, 2], vec![5, 6]),
            "crash state {:?} recovered to a non-boundary state {rows:?}",
            state.label
        );
        outcomes.insert(rows);
    }
    assert_eq!(outcomes.len(), 2, "both boundaries must be reachable");
}

#[test]
fn every_crash_state_of_every_checkpoint_fsync_failure_recovers() {
    let (fs, _guard) = mount_sim("/sim/crash_ckpt");
    let dir = PathBuf::from("/sim/crash_ckpt/db");

    // Committed boundary: a base with the old rows.
    save_catalog(&catalog(&[1, 2]), &dir).unwrap();
    let baseline = fs.current_image();

    // Count the fsyncs of a clean checkpoint so the loop below can fail
    // each one in turn. `restore` resets the sync counter.
    fs.restore(&baseline);
    save_catalog(&catalog(&[1, 2, 3]), &dir).unwrap();
    let total_syncs = fs.sync_calls();
    assert_eq!(
        total_syncs, 2,
        "a save fsyncs its staged log, then the directory after the rename"
    );

    for nth in 1..=total_syncs {
        fs.restore(&baseline);
        fs.fail_sync("", nth);
        let saved = save_catalog(&catalog(&[1, 2, 3]), &dir);

        for state in &fs.crash_states() {
            let rows = recovered_rows(&fs, state, &dir);
            match &saved {
                // A save that reported success has committed the new
                // log durably; no crash may roll it back.
                Ok(()) => assert_eq!(
                    rows,
                    vec![1, 2, 3],
                    "fsync #{nth} noted-but-tolerated, yet crash state {:?} lost the save",
                    state.label
                ),
                // A failed save must leave old-or-new, never a mix and
                // never an unloadable directory.
                Err(_) => assert!(
                    rows == vec![1, 2] || rows == vec![1, 2, 3],
                    "fsync #{nth} failed, crash state {:?} recovered to {rows:?}",
                    state.label
                ),
            }
        }
    }

    // The same through `Wal::checkpoint` on an open log, which keeps the
    // file it renamed into place as its log. Fail each of its fsyncs in
    // turn, then acknowledge one commit: every crash image must hold every
    // acknowledged commit, whatever became of the checkpoint.
    fs.restore(&baseline);
    let mut wal = Wal::open(&dir).unwrap();
    wal.commit(&[WalOp::Put(&table("t", &[1, 2, 3]))]).unwrap();
    let before = fs.sync_calls();
    wal.checkpoint(&catalog(&[1, 2, 3])).unwrap();
    let checkpoint_syncs = fs.sync_calls() - before;
    drop(wal);
    assert_eq!(checkpoint_syncs, 2, "the staged log, then the directory");

    for nth in 1..=checkpoint_syncs {
        fs.restore(&baseline);
        let mut wal = Wal::open(&dir).unwrap();
        wal.commit(&[WalOp::Put(&table("t", &[1, 2, 3]))]).unwrap();
        fs.fail_sync("", nth);
        assert!(
            wal.checkpoint(&catalog(&[1, 2, 3])).is_err(),
            "fsync #{nth}"
        );
        assert!(wal.is_poisoned(), "fsync #{nth}");
        wal.commit(&[WalOp::Put(&table("t", &[1, 2, 3, 4]))])
            .unwrap_or_else(|e| panic!("fsync #{nth}: the commit after the checkpoint: {e}"));
        for state in &fs.crash_states() {
            assert_eq!(
                recovered_rows(&fs, state, &dir),
                vec![1, 2, 3, 4],
                "fsync #{nth} failed, crash state {:?} lost an acknowledged commit",
                state.label
            );
        }
    }
}

#[test]
fn spill_writes_never_sync_and_never_affect_recovery() {
    let (fs, _guard) = mount_sim("/sim/crash_spill");
    let dir = PathBuf::from("/sim/crash_spill/db");

    save_catalog(&catalog(&[7]), &dir).unwrap();
    fs.restore(&fs.current_image());

    // Spill a few rows. Spill data is scratch for an in-flight query: it
    // must never be fsynced (that would tax every large query for bytes
    // nobody needs after a crash), so every spill op stays pending.
    let session = conquer_storage::SpillSession::create_in(&dir).unwrap();
    let mut w = session.writer().unwrap();
    w.write_row(&[Value::Int(1)]).unwrap();
    w.write_row(&[Value::Int(2)]).unwrap();
    let spill = w.finish().unwrap();
    assert_eq!(spill.rows(), 2);
    assert!(
        fs.pending_ops() > 0,
        "spill writes must not be fsynced, so they must all be pending"
    );

    for state in &fs.crash_states() {
        fs.restore(state);
        // Whatever subset of the spill survived, recovery sees the same
        // committed catalog and sweeps the orphaned spill directory.
        let (cat, report) = load_catalog_recover(&dir).unwrap();
        assert_eq!(rows_of(&cat), vec![7]);
        if state.dirs.iter().any(|d| {
            d.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("spill-"))
        }) {
            assert!(
                report.issues.iter().any(|i| i.contains("spill")),
                "surviving spill dir must be reported: {report:?}"
            );
        }
    }
}

#[test]
fn scrub_quarantines_spill_dirs_left_by_a_crash() {
    let (fs, _guard) = mount_sim("/sim/crash_spill_scrub");
    let dir = PathBuf::from("/sim/crash_spill_scrub/db");

    save_catalog(&catalog(&[7]), &dir).unwrap();
    let session = conquer_storage::SpillSession::create_in(&dir).unwrap();
    let mut w = session.writer().unwrap();
    w.write_row(&[Value::Int(1)]).unwrap();
    let _spill = w.finish().unwrap();

    // Crash with everything applied: the spill dir survives in full.
    fs.restore(&fs.current_image());
    let report = scrub(&dir).unwrap();
    assert!(
        report.is_clean(),
        "spill dirs are suspect, not corrupt: {report:?}"
    );
    assert!(report.quarantined >= 1, "{report:?}");
    assert!(
        report.issues.iter().any(|i| i.contains("spill")),
        "{report:?}"
    );
}
