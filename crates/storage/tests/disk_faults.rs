//! Typed disk faults against the simulated filesystem: ENOSPC mid-commit
//! and mid-spill, EIO on read, silent bit-rot in committed WAL frames,
//! and the fsyncgate rule — a failed WAL fsync is never acknowledged and
//! the handle heals by reopen + re-truncate + replay, never fsync retry.

#![cfg(feature = "fault")]

use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;

use conquer_storage::vfs::{self, mount_sim};
use conquer_storage::wal::WAL_FILE;
use conquer_storage::{
    load_catalog_recover, save_catalog, scrub, Catalog, DataType, Schema, StorageError, Table,
    Value, Wal, WalOp,
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
        .unwrap()
        .rows()
        .iter()
        .map(|r| match &r[0] {
            Value::Int(i) => *i,
            other => panic!("unexpected {other:?}"),
        })
        .collect()
}

fn sim_size(fs: &vfs::SimFs) -> u64 {
    fs.current_image()
        .files
        .values()
        .map(|d| d.len() as u64)
        .sum()
}

#[test]
fn enospc_mid_commit_is_typed_and_rolls_back() {
    let (fs, _guard) = mount_sim("/sim/flt_enospc_wal");
    let dir = PathBuf::from("/sim/flt_enospc_wal/db");
    save_catalog(&catalog(&[1]), &dir).unwrap();

    let mut wal = Wal::open(&dir).unwrap();
    wal.commit(&[WalOp::Put(&table("t", &[1, 2]))]).unwrap();

    // Cap the disk just above current usage: the next append hits ENOSPC
    // partway through and must surface as the typed NoSpace error with
    // the log rolled back to the acknowledged boundary.
    fs.set_capacity(Some(sim_size(&fs) + 8));
    let big: Vec<i64> = (0..200).collect();
    let err = wal.commit(&[WalOp::Put(&table("t", &big))]).unwrap_err();
    assert!(
        matches!(err, StorageError::NoSpace(_)),
        "expected NoSpace, got {err:?}"
    );

    // The failed commit left no trace; after space frees up the same
    // handle commits again and recovery sees only acknowledged writes.
    fs.set_capacity(None);
    wal.commit(&[WalOp::Put(&table("t", &[1, 2, 3]))]).unwrap();
    let (cat, report) = load_catalog_recover(&dir).unwrap();
    assert_eq!(rows_of(&cat), vec![1, 2, 3]);
    assert_eq!(report.wal_commits_replayed, 2, "{report:?}");
}

#[test]
fn enospc_mid_spill_is_typed() {
    let (fs, _guard) = mount_sim("/sim/flt_enospc_spill");
    let dir = PathBuf::from("/sim/flt_enospc_spill/db");
    vfs::create_dir_all(&dir).unwrap();

    let session = conquer_storage::SpillSession::create_in(&dir).unwrap();
    let mut w = session.writer().unwrap();
    fs.set_capacity(Some(sim_size(&fs) + 64));
    // BufWriter absorbs rows until its buffer spills to the full disk.
    let mut err = None;
    for i in 0..100_000 {
        if let Err(e) = w.write_row(&[Value::Int(i)]) {
            err = Some(e);
            break;
        }
    }
    let err = err.expect("a full disk must fail the spill");
    assert!(
        matches!(err, StorageError::NoSpace(_)),
        "expected NoSpace, got {err:?}"
    );
}

#[test]
fn eio_on_read_makes_the_scrub_count_the_file_corrupt() {
    let (fs, _guard) = mount_sim("/sim/flt_eio");
    let dir = PathBuf::from("/sim/flt_eio/db");
    save_catalog(&catalog(&[1, 2]), &dir).unwrap();

    assert!(scrub(&dir).unwrap().is_clean());
    fs.fail_read("t.tbl", 1);
    let report = scrub(&dir).unwrap();
    assert!(report.corrupt >= 1, "{report:?}");
    assert!(
        report.issues.iter().any(|i| i.contains("t.tbl")),
        "{report:?}"
    );
    // The injected fault fires once; the next sweep is clean again.
    assert!(scrub(&dir).unwrap().is_clean());
}

#[test]
fn bit_rot_in_a_committed_frame_stops_replay_at_the_epoch_boundary() {
    let (fs, _guard) = mount_sim("/sim/flt_bitrot");
    let dir = PathBuf::from("/sim/flt_bitrot/db");
    save_catalog(&catalog(&[1]), &dir).unwrap();

    let mut wal = Wal::open(&dir).unwrap();
    wal.commit(&[WalOp::Put(&table("t", &[1, 2]))]).unwrap();
    wal.commit(&[WalOp::Put(&table("t", &[1, 2, 3]))]).unwrap();

    // Flip one bit inside the *first* commit's put frame (past the
    // 35-byte header frame). Replay must stop there: the second commit
    // is intact on disk but unreachable behind the rot, and trusting it
    // would reorder history.
    fs.flip_byte(&dir.join(WAL_FILE), 40);
    let (cat, report) = load_catalog_recover(&dir).unwrap();
    assert_eq!(rows_of(&cat), vec![1], "replay must stop at the flip");
    assert_eq!(report.wal_commits_replayed, 0);
    assert!(!report.is_clean(), "{report:?}");

    // The scrub sees the same rot as corruption, attributed to the WAL.
    let scrubbed = scrub(&dir).unwrap();
    assert!(scrubbed.corrupt >= 1, "{scrubbed:?}");
    assert!(scrubbed.wal_corrupt_frames >= 1, "{scrubbed:?}");
}

#[test]
fn torn_tail_is_recoverable_and_scrubbed_as_wal_corruption() {
    let (_fs, _guard) = mount_sim("/sim/flt_torn");
    let dir = PathBuf::from("/sim/flt_torn/db");
    save_catalog(&catalog(&[1]), &dir).unwrap();

    let mut wal = Wal::open(&dir).unwrap();
    wal.commit(&[WalOp::Put(&table("t", &[1, 2]))]).unwrap();

    // Tear the tail by hand: a few garbage bytes past the last commit,
    // as a crash mid-append would leave.
    let mut f = vfs::File::open_rw(&dir.join(WAL_FILE)).unwrap();
    f.seek(SeekFrom::End(0)).unwrap();
    f.write_all(&[0xde, 0xad, 0xbe]).unwrap();
    f.sync_all().unwrap();
    drop(f);

    // Recovery keeps every committed frame and reports the torn residue.
    let (cat, report) = load_catalog_recover(&dir).unwrap();
    assert_eq!(rows_of(&cat), vec![1, 2]);
    assert_eq!(report.wal_commits_replayed, 1);
    assert!(!report.is_clean(), "{report:?}");

    // A scrub runs on a quiesced directory where `Wal::open` would have
    // truncated the tear already; finding one is corruption.
    let scrubbed = scrub(&dir).unwrap();
    assert!(scrubbed.wal_corrupt_frames >= 1, "{scrubbed:?}");

    // And `Wal::open` indeed repairs it for the write path.
    let wal = Wal::open(&dir).unwrap();
    assert_eq!(wal.last_seq(), 1);
    assert!(scrub(&dir).unwrap().is_clean());
}

#[test]
fn failed_fsync_is_never_acked_and_heals_by_reopen_not_retry() {
    let (fs, _guard) = mount_sim("/sim/flt_fsyncgate");
    let dir = PathBuf::from("/sim/flt_fsyncgate/db");
    save_catalog(&catalog(&[0]), &dir).unwrap();
    fs.restore(&fs.current_image());

    let mut wal = Wal::open(&dir).unwrap();
    wal.commit(&[WalOp::Put(&table("t", &[0, 1]))]).unwrap();

    let failures_before = vfs::counters().fsync_failures;
    fs.fail_sync("wal.log", 1);
    let err = wal.commit(&[WalOp::Put(&table("t", &[0, 1, 2]))]);
    assert!(err.is_err(), "a failed fsync must fail the commit");
    assert!(wal.is_poisoned(), "the descriptor must be poisoned");
    assert!(
        vfs::counters().fsync_failures > failures_before,
        "the failure must be counted"
    );

    // The next commit on the same handle must heal by reopening — the
    // open count proves a fresh descriptor, and the sim would panic the
    // durability check below if the old (lied-to) descriptor had simply
    // retried fsync, because lied bytes are never promotable.
    let opens_before = fs.opens();
    let seq = wal.commit(&[WalOp::Put(&table("t", &[0, 3]))]).unwrap();
    assert!(!wal.is_poisoned());
    assert!(
        fs.opens() > opens_before,
        "healing must reopen the file, not retry fsync on the poisoned fd"
    );

    // Crash now: the durable image must contain the first and third
    // commits and no trace of the unacknowledged second one.
    fs.restore(&fs.durable_image());
    let (cat, report) = load_catalog_recover(&dir).unwrap();
    assert_eq!(rows_of(&cat), vec![0, 3]);
    assert_eq!(report.wal_commits_replayed, 2, "{report:?}");

    // The healed log continues the sequence past the failed commit.
    let reopened = Wal::open(&dir).unwrap();
    assert_eq!(reopened.last_seq(), seq);
}

#[test]
fn epoch_bit_rot_is_caught_by_scrub_and_recovery_falls_back() {
    let (fs, _guard) = mount_sim("/sim/flt_epochrot");
    let dir = PathBuf::from("/sim/flt_epochrot/db");
    save_catalog(&catalog(&[1, 2]), &dir).unwrap();

    // Find the committed epoch's table file and rot one byte.
    let epoch = vfs::read_to_string(&dir.join("CURRENT")).unwrap();
    let data = dir.join(epoch.trim()).join("t.tbl");
    fs.flip_byte(&data, 3);

    let report = scrub(&dir).unwrap();
    assert!(report.corrupt >= 1, "{report:?}");
    assert_eq!(
        report.wal_corrupt_frames, 0,
        "rot is in the epoch, not the log"
    );
    assert!(
        report.issues.iter().any(|i| i.contains("t.tbl")),
        "{report:?}"
    );

    // Strict load refuses; with no older epoch the lenient loader fails
    // too — silently inventing data would be worse.
    assert!(conquer_storage::load_catalog(&dir).is_err());
    assert!(load_catalog_recover(&dir).is_err());

    // With a newer clean epoch committed on top, recovery works again
    // and the scrub quarantines nothing it cannot attribute.
    save_catalog(&catalog(&[9]), &dir).unwrap();
    let (cat, _) = load_catalog_recover(&dir).unwrap();
    assert_eq!(rows_of(&cat), vec![9]);
    assert!(scrub(&dir).unwrap().is_clean());
}
