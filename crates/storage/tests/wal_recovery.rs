//! Integration tests for WAL-backed recovery: a log's base plus the
//! commits after it must reload to exactly the last committed state,
//! across checkpoints and torn tails.

use std::fs;
use std::path::PathBuf;

use conquer_storage::wal::WAL_FILE;
use conquer_storage::{
    load_catalog, load_catalog_recover, save_catalog, Catalog, DataType, Schema, Table, Value, Wal,
    WalOp,
};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("conquer_walrec_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn table(name: &str, rows: &[i64]) -> Table {
    let mut t = Table::new(name, Schema::from_pairs([("a", DataType::Int)]).unwrap());
    for r in rows {
        t.insert(vec![Value::Int(*r)]).unwrap();
    }
    t
}

fn rows_of(cat: &Catalog, name: &str) -> Vec<i64> {
    cat.table(name)
        .unwrap()
        .rows()
        .iter()
        .map(|r| match &r[0] {
            Value::Int(i) => *i,
            other => panic!("unexpected {other:?}"),
        })
        .collect()
}

#[test]
fn wal_suffix_replays_on_top_of_the_base() {
    let dir = tempdir("suffix");
    let mut cat = Catalog::new();
    cat.add_table(table("t", &[1, 2])).unwrap();
    save_catalog(&cat, &dir).unwrap();

    // Two committed writes after the checkpoint.
    let mut wal = Wal::open(&dir).unwrap();
    wal.commit(&[WalOp::Put(&table("t", &[1, 2, 3]))]).unwrap();
    wal.commit(&[WalOp::Put(&table("u", &[9]))]).unwrap();

    let strict = load_catalog(&dir).unwrap();
    assert_eq!(rows_of(&strict, "t"), vec![1, 2, 3]);
    assert_eq!(rows_of(&strict, "u"), vec![9]);

    let (lenient, report) = load_catalog_recover(&dir).unwrap();
    assert_eq!(rows_of(&lenient, "t"), vec![1, 2, 3]);
    assert_eq!(report.wal_commits_replayed, 2);
    assert!(report.is_clean(), "{report:?}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_folds_the_wal_and_a_lost_rename_loses_nothing() {
    let dir = tempdir("fold");
    let mut cat = Catalog::new();
    cat.add_table(table("t", &[1])).unwrap();
    save_catalog(&cat, &dir).unwrap();

    // The committed table holds a NULL row, which the checkpoint must
    // keep as a row of its own.
    let mut committed = table("t", &[1, 2]);
    committed.insert(vec![Value::Null]).unwrap();
    let mut wal = Wal::open(&dir).unwrap();
    wal.commit(&[WalOp::Put(&committed)]).unwrap();

    // Checkpoint: fold base + commits into a fresh base.
    let folded = load_catalog(&dir).unwrap();
    let wal_before = fs::read(dir.join(WAL_FILE)).unwrap();
    save_catalog(&folded, &dir).unwrap();
    let wal_after = fs::read(dir.join(WAL_FILE)).unwrap();
    assert!(
        wal_after.len() < wal_before.len(),
        "checkpoint must truncate the log ({} -> {} bytes)",
        wal_before.len(),
        wal_after.len()
    );
    // The checkpoint loads exactly what the WAL replay loaded.
    let checkpointed = load_catalog(&dir).unwrap();
    assert_eq!(checkpointed.table_names(), folded.table_names());
    for name in folded.table_names() {
        let (replayed, loaded) = (
            folded.table(name).unwrap(),
            checkpointed.table(name).unwrap(),
        );
        assert_eq!(loaded.schema(), replayed.schema(), "table {name}");
        assert_eq!(loaded.rows(), replayed.rows(), "table {name}");
    }
    assert_eq!(checkpointed.table("t").unwrap().rows(), committed.rows());

    // Even if the checkpoint's rename had been lost (simulate the crash
    // window by restoring the pre-checkpoint log), the old log holds the
    // same catalog, and a writer opening it continues from its commits.
    drop(wal);
    fs::write(dir.join(WAL_FILE), &wal_before).unwrap();
    assert_eq!(
        load_catalog(&dir).unwrap().table("t").unwrap().rows(),
        committed.rows()
    );
    let mut wal = Wal::open(&dir).unwrap();
    wal.commit(&[WalOp::Put(&table("t", &[1, 2, 7]))]).unwrap();
    let (cat2, report) = load_catalog_recover(&dir).unwrap();
    assert_eq!(rows_of(&cat2, "t"), vec![1, 2, 7]);
    assert_eq!(
        report.wal_commits_replayed, 2,
        "the pre-checkpoint commit and the new one: {report:?}"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_tail_is_reported_and_committed_prefix_survives() {
    let dir = tempdir("torn");
    let mut cat = Catalog::new();
    cat.add_table(table("t", &[1])).unwrap();
    save_catalog(&cat, &dir).unwrap();

    let mut wal = Wal::open(&dir).unwrap();
    wal.commit(&[WalOp::Put(&table("t", &[1, 2]))]).unwrap();
    wal.commit(&[WalOp::Put(&table("t", &[1, 2, 3]))]).unwrap();

    // Tear the last commit mid-frame, as a kill mid-append would.
    let bytes = fs::read(dir.join(WAL_FILE)).unwrap();
    fs::write(dir.join(WAL_FILE), &bytes[..bytes.len() - 5]).unwrap();

    let strict = load_catalog(&dir).unwrap();
    assert_eq!(rows_of(&strict, "t"), vec![1, 2], "prefix must survive");

    let (lenient, report) = load_catalog_recover(&dir).unwrap();
    assert_eq!(rows_of(&lenient, "t"), vec![1, 2]);
    assert_eq!(report.wal_commits_replayed, 1);
    assert!(
        report.issues.iter().any(|i| i.contains("incomplete tail")),
        "{report:?}"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_alone_recovers_an_empty_directory() {
    let dir = tempdir("bare");
    fs::create_dir_all(&dir).unwrap();
    let mut wal = Wal::open(&dir).unwrap();
    wal.commit(&[WalOp::Put(&table("t", &[4, 5]))]).unwrap();

    let (cat, report) = load_catalog_recover(&dir).unwrap();
    assert_eq!(rows_of(&cat, "t"), vec![4, 5]);
    assert_eq!(report.base_seq, Some(0), "a fresh log's empty base");
    assert_eq!(report.wal_commits_replayed, 1);
    fs::remove_dir_all(&dir).ok();
}
