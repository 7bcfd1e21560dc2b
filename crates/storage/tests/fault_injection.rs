//! IO faults in a save (require `--features fault`): on the simulated
//! filesystem, fail every write a save makes, and fill the disk, and
//! assert (a) the failure is a typed error, (b) the previously committed
//! catalog still loads, (c) the next save commits and no failed one leaves
//! its staged log behind.
//! Every fsync a save makes, with every crash image it leaves, is
//! `crash_states.rs`.
#![cfg(feature = "fault")]

use std::path::{Path, PathBuf};

use conquer_storage::vfs::{self, mount_sim};
use conquer_storage::{
    load_catalog, load_catalog_recover, save_catalog, Catalog, DataType, Schema, StorageError,
    Table, Value,
};

/// A catalog whose single table has `n` rows (so versions are
/// distinguishable by row count).
fn catalog_with_rows(n: i64) -> Catalog {
    let mut t = Table::new(
        "t",
        Schema::from_pairs([("a", DataType::Int), ("b", DataType::Text)]).unwrap(),
    );
    for i in 0..n {
        t.insert(vec![Value::Int(i), Value::text(format!("row {i}"))])
            .unwrap();
    }
    let mut cat = Catalog::new();
    cat.add_table(t).unwrap();
    cat
}

fn loaded_rows(dir: &Path) -> usize {
    load_catalog(dir).unwrap().table("t").unwrap().len()
}

#[test]
fn save_failed_at_every_write_leaves_previous_catalog_loadable() {
    let (fs, _guard) = mount_sim("/sim/fi_every_write");
    let dir = PathBuf::from("/sim/fi_every_write/db");
    let v2 = catalog_with_rows(7);
    save_catalog(&catalog_with_rows(3), &dir).unwrap();

    // One clean save of v2 counts the writes the loop fails in turn
    // (`restore` zeroes the counters).
    let baseline = fs.current_image();
    fs.restore(&baseline);
    save_catalog(&v2, &dir).unwrap();
    let writes = fs.write_calls();
    assert_eq!(writes, 1, "the staged log, in one write");
    fs.restore(&baseline);

    for nth in 1..=writes {
        fs.fail_write("", nth);
        let err = save_catalog(&v2, &dir).expect_err(&format!("save survived write {nth}"));
        assert!(matches!(err, StorageError::Io(_)), "write {nth}: {err:?}");
        // The committed snapshot is untouched: strict load still sees v1.
        assert_eq!(loaded_rows(&dir), 3, "previous catalog lost at write {nth}");
    }
    let used: u64 = fs
        .current_image()
        .files
        .values()
        .map(|f| f.len() as u64)
        .sum();
    fs.set_capacity(Some(used + 16));
    let err = save_catalog(&v2, &dir).unwrap_err();
    assert!(matches!(err, StorageError::NoSpace(_)), "{err:?}");
    assert_eq!(loaded_rows(&dir), 3);
    fs.set_capacity(None);

    // The database stays usable: the next clean save commits v2, and no
    // failed attempt left its staged log behind.
    save_catalog(&v2, &dir).unwrap();
    assert_eq!(loaded_rows(&dir), 7);
    let leftovers: Vec<_> = vfs::dir_entries(&dir)
        .unwrap()
        .into_iter()
        .filter(|e| e.name.starts_with(".wal.tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "staged logs survived: {leftovers:?}");
}

#[test]
fn recovery_reports_debris_from_a_failed_save() {
    let (fs, _guard) = mount_sim("/sim/fi_debris");
    let dir = PathBuf::from("/sim/fi_debris/db");
    save_catalog(&catalog_with_rows(2), &dir).unwrap();
    fs.restore(&fs.current_image());
    // Fail the staged log's fsync: the save removes it again, but neither
    // its creation nor its removal is durable, so a crash can keep it.
    fs.fail_sync(".wal.tmp-", 1);
    assert!(save_catalog(&catalog_with_rows(5), &dir).is_err());
    let debris = fs
        .crash_states()
        .into_iter()
        .find(|state| {
            state
                .files
                .keys()
                .any(|p| p.to_string_lossy().contains(".wal.tmp-"))
        })
        .expect("a crash image that keeps the staged log");
    fs.restore(&debris);
    let (cat, report) = load_catalog_recover(&dir).unwrap();
    assert_eq!(cat.table("t").unwrap().len(), 2);
    assert!(
        report
            .issues
            .iter()
            .any(|i| i.contains("interrupted checkpoint")),
        "{report:?}"
    );
}
