//! Typed disk faults against the simulated filesystem: ENOSPC mid-commit
//! and mid-spill, EIO on read, silent bit-rot in the log's header, base
//! and committed frames, and the fsyncgate rule — a failed WAL fsync is
//! never acknowledged and the handle heals onto a fresh copy of the
//! acknowledged log, never by fsync retry.

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
    fs.fail_read(WAL_FILE, 1);
    let report = scrub(&dir).unwrap();
    assert!(report.corrupt >= 1, "{report:?}");
    assert!(
        report.issues.iter().any(|i| i.contains(WAL_FILE)),
        "{report:?}"
    );
    // The injected fault fires once; the next sweep is clean again.
    assert!(scrub(&dir).unwrap().is_clean());
}

#[test]
fn bit_rot_in_a_committed_frame_stops_replay_at_the_base() {
    let (fs, _guard) = mount_sim("/sim/flt_bitrot");
    let dir = PathBuf::from("/sim/flt_bitrot/db");
    save_catalog(&catalog(&[1]), &dir).unwrap();
    let base_end = vfs::read(&dir.join(WAL_FILE)).unwrap().len() as u64;

    let mut wal = Wal::open(&dir).unwrap();
    wal.commit(&[WalOp::Put(&table("t", &[1, 2]))]).unwrap();
    wal.commit(&[WalOp::Put(&table("t", &[1, 2, 3]))]).unwrap();

    // Flip one bit inside the *first* commit's put frame (past the
    // base and its seal). Replay must stop there: the second commit is
    // intact on disk but unreachable behind the rot, and trusting it
    // would reorder history.
    fs.flip_byte(&dir.join(WAL_FILE), base_end + 5);
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

/// A save followed by three acknowledged commits, then one bit flipped
/// in the log's header frame (offset 20 lies in its magic). Nothing in
/// the file may be trusted, and nothing in it may be thrown away: both
/// loaders and `Wal::open` refuse it as corrupt and leave every byte as
/// it was — starting an empty log over it would lose the three commits.
#[test]
fn a_rotten_log_header_is_refused_and_left_as_it_is() {
    let (fs, _guard) = mount_sim("/sim/flt_header_rot");
    let dir = PathBuf::from("/sim/flt_header_rot/db");
    save_catalog(&catalog(&[1]), &dir).unwrap();
    let mut wal = Wal::open(&dir).unwrap();
    for rows in [&[1, 2][..], &[1, 2, 3], &[1, 2, 3, 4]] {
        wal.commit(&[WalOp::Put(&table("t", rows))]).unwrap();
    }
    drop(wal);
    fs.flip_byte(&dir.join(WAL_FILE), 20);
    let rotten = fs.current_image();

    let refusals = [
        conquer_storage::load_catalog(&dir).map(drop),
        load_catalog_recover(&dir).map(drop),
        Wal::open(&dir).map(drop),
    ];
    for refused in refusals {
        assert!(
            matches!(&refused, Err(StorageError::Corrupt { path, detail })
                if path.ends_with(WAL_FILE) && detail.contains("header")),
            "{refused:?}"
        );
    }
    assert_eq!(
        fs.current_image().files,
        rotten.files,
        "the log was changed"
    );
    let scrubbed = scrub(&dir).unwrap();
    assert!(scrubbed.wal_corrupt_frames >= 1, "{scrubbed:?}");
}

/// Rot inside the base is the same: the base is written whole and
/// renamed into place, so a frame of it that fails its checksum is
/// corruption, never a torn tail to cut away. Both loaders and
/// `Wal::open` refuse, the scrub counts it, and a checkpoint from a
/// handle still holding the catalog in memory repairs the directory.
#[test]
fn base_rot_is_refused_until_a_checkpoint_from_memory_repairs_it() {
    let (fs, _guard) = mount_sim("/sim/flt_base_rot");
    let dir = PathBuf::from("/sim/flt_base_rot/db");
    save_catalog(&catalog(&[1, 2]), &dir).unwrap();
    let mut wal = Wal::open(&dir).unwrap();
    wal.commit(&[WalOp::Put(&table("u", &[7]))]).unwrap();
    let mut memory = catalog(&[1, 2]);
    memory.replace_table(table("u", &[7]));

    // Past the 35-byte header: inside t's put frame.
    fs.flip_byte(&dir.join(WAL_FILE), 35 + 12 + 4);
    let rotten = fs.current_image();
    let report = scrub(&dir).unwrap();
    assert!(report.corrupt >= 1, "{report:?}");
    assert!(
        report.issues.iter().any(|i| i.contains("checksum")),
        "{report:?}"
    );
    assert!(conquer_storage::load_catalog(&dir).is_err());
    assert!(load_catalog_recover(&dir).is_err());
    assert!(matches!(Wal::open(&dir), Err(StorageError::Corrupt { .. })));
    assert_eq!(
        fs.current_image().files,
        rotten.files,
        "the log was changed"
    );

    wal.checkpoint(&memory).unwrap();
    assert!(scrub(&dir).unwrap().is_clean());
    let (cat, report) = load_catalog_recover(&dir).unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(rows_of(&cat), vec![1, 2]);
    assert_eq!(cat.table("u").unwrap().len(), 1);
}
