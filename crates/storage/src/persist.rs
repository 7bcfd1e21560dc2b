//! Catalog persistence: saving a catalog as a database directory's one
//! log, and loading it back.
//!
//! A database directory holds one durable file, the
//! [write-ahead log](crate::wal) `wal.log`: a base of one exact
//! [table image](crate::image) per table sealed at a sequence, then the
//! commit groups appended after it. Every value reloads as it was saved,
//! whether it comes back from the base or from a commit. [`save_catalog`]
//! writes a catalog as a fresh log — the checkpoint of a caller with no
//! open [`Wal`](crate::Wal) — sealed at the last sequence the old log
//! committed.
//!
//! Both loaders scan the log once and decode only the last image of each
//! table. [`load_catalog`] fails with a typed [`StorageError::Corrupt`]
//! naming the file when the header or base does not verify — corruption
//! is *reported*, never silently dropped — and tolerates a torn tail, the
//! expected residue of a crash mid-commit. [`load_catalog_recover`] loads
//! the same catalog and returns a [`RecoveryReport`] of what it worked
//! around: the torn tail, the staged logs of interrupted checkpoints and
//! the spill directories of interrupted queries (both removed), and the
//! `.schema` files of the pre-log flat layout (never read).
//!
//! A directory without `wal.log` loads as the empty catalog; a missing
//! directory is an error. A directory in the epoch layout older versions
//! wrote is refused, and nothing in it changes (see [`crate::wal`]).

use std::path::Path;

use crate::catalog::Catalog;
use crate::error::StorageError;
use crate::vfs;
use crate::wal::{self, Scan};

/// FNV-1a 64-bit checksum — small, dependency-free, and plenty to detect
/// torn writes and bit rot (this is an integrity check, not a security
/// boundary).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// What [`load_catalog_recover`] had to work around.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[must_use = "recovery may have replayed or discarded data; inspect the report"]
pub struct RecoveryReport {
    /// The sequence the log's base is sealed at (`None` when the directory
    /// holds no log).
    pub base_seq: Option<u64>,
    /// Committed groups replayed on top of the base (each one a write
    /// that committed after the last checkpoint).
    pub wal_commits_replayed: u64,
    /// Human-readable descriptions of everything skipped or removed: torn
    /// WAL tails, staged logs of interrupted checkpoints, spill
    /// directories of interrupted queries, files of the flat layout.
    pub issues: Vec<String>,
}

impl RecoveryReport {
    /// True when the load was completely clean.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

/// Durably save every table of `catalog` into `dir` (created if missing)
/// as a fresh log: its base, sealed at the last sequence `dir`'s log
/// committed. The log is staged in a temp file and renamed over
/// `wal.log`, so a crash at any point leaves the old log or the new one.
/// `catalog` must therefore already hold every committed write (it does
/// for any catalog obtained from [`load_catalog`]/[`load_catalog_recover`]).
/// Unrelated files in `dir` are left alone. A writer holding the log open
/// checkpoints through [`Wal::checkpoint`](crate::Wal::checkpoint)
/// instead, which knows that sequence without reading the log.
pub fn save_catalog(catalog: &Catalog, dir: &Path) -> Result<(), StorageError> {
    vfs::create_dir_all(dir)?;
    let seq = wal::durable_seq(dir)?;
    wal::replace_log(dir, &wal::base_log(catalog, seq)).map(drop)
}

/// Load the catalog `dir`'s log holds: its base with every committed
/// group replayed on top. Fails with [`StorageError::Corrupt`] (naming
/// the file) when the header or base does not verify. A torn tail is
/// tolerated silently; use [`load_catalog_recover`] to have it reported.
pub fn load_catalog(dir: &Path) -> Result<Catalog, StorageError> {
    match wal::scan(dir)? {
        Some(scan) => scan.catalog(),
        None => Ok(Catalog::new()),
    }
}

/// Load what [`load_catalog`] loads, and report (and clear away) what a
/// crash left behind: a torn tail, staged logs of interrupted
/// checkpoints, spill directories of interrupted queries.
pub fn load_catalog_recover(dir: &Path) -> Result<(Catalog, RecoveryReport), StorageError> {
    recover(dir, wal::scan(dir)?.as_ref())
}

/// [`load_catalog_recover`] on a scan already taken, shared with
/// [`Wal::recover`](crate::Wal::recover).
pub(crate) fn recover(
    dir: &Path,
    scan: Option<&Scan>,
) -> Result<(Catalog, RecoveryReport), StorageError> {
    let catalog = match scan {
        Some(scan) => scan.catalog()?,
        None => Catalog::new(),
    };
    let mut report = RecoveryReport {
        base_seq: scan.map(|s| s.base_seq),
        wal_commits_replayed: scan.map_or(0, |s| s.commits.len() as u64),
        issues: Vec::new(),
    };
    if let Some(torn) = scan.and_then(|s| s.torn.as_ref()) {
        report.issues.push(format!(
            "write-ahead log has an incomplete tail ({torn}); \
             every fully committed write before it was replayed"
        ));
    }
    // The pre-log flat layout's table files have no checksum to verify
    // them against, so they are reported, not loaded.
    for entry in vfs::dir_entries(dir)? {
        if !entry.is_dir && entry.name.ends_with(".schema") {
            report.issues.push(format!(
                "table file of the pre-log flat layout: {}; ignored",
                entry.name
            ));
        }
    }
    // A staged log means a checkpoint was interrupted before its rename:
    // the live log is still authoritative, the staged one is garbage.
    for tmp in wal::list_wal_tmp_files(dir) {
        let removed = vfs::remove_file(&dir.join(&tmp));
        note_removal(
            &mut report,
            "stale WAL temp file from an interrupted checkpoint",
            &tmp,
            removed,
        );
    }
    // Spill sessions are scratch state for in-flight queries; one found at
    // load time belongs to a process that died mid-query.
    for spill in crate::spill::list_spill_dirs(dir) {
        let removed = vfs::remove_dir_all(&dir.join(&spill));
        note_removal(
            &mut report,
            "orphaned spill directory from an interrupted query",
            &spill,
            removed,
        );
    }
    Ok((catalog, report))
}

fn note_removal(report: &mut RecoveryReport, what: &str, name: &str, removed: std::io::Result<()>) {
    report.issues.push(match removed {
        Ok(()) => format!("{what}: {name}; removed"),
        Err(e) => format!("{what}: {name}; could not be removed: {e}"),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::table::Table;
    use crate::value::{DataType, Value};
    use std::fs;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("conquer_persist_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> Catalog {
        let mut cat = Catalog::new();
        let mut t = Table::new(
            "customer",
            Schema::from_pairs([
                ("id", DataType::Text),
                ("income", DataType::Int),
                ("prob", DataType::Float),
                ("since", DataType::Date),
                ("active", DataType::Bool),
            ])
            .unwrap(),
        );
        t.insert(vec![
            "c1".into(),
            120000.into(),
            0.9.into(),
            Value::Date("1999-01-02".parse().unwrap()),
            true.into(),
        ])
        .unwrap();
        t.insert(vec![
            Value::Null,
            Value::Null,
            0.1.into(),
            Value::Null,
            Value::Null,
        ])
        .unwrap();
        cat.add_table(t).unwrap();
        cat.create_table("empty", Schema::from_pairs([("x", DataType::Int)]).unwrap())
            .unwrap();
        cat
    }

    #[test]
    fn roundtrip_all_types_and_nulls() {
        let dir = tempdir("roundtrip");
        let cat = sample();
        save_catalog(&cat, &dir).unwrap();
        let back = load_catalog(&dir).unwrap();
        assert_eq!(back.table_names(), vec!["customer", "empty"]);
        let (a, b) = (
            cat.table("customer").unwrap(),
            back.table("customer").unwrap(),
        );
        assert_eq!(a.schema(), b.schema());
        assert_eq!(a.rows(), b.rows());
        assert_eq!(back.table("empty").unwrap().len(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_dir_errors() {
        let dir = tempdir("missing");
        assert!(load_catalog(&dir).is_err());
    }

    #[test]
    fn save_is_idempotent_and_leaves_one_file() {
        let dir = tempdir("idem");
        let cat = sample();
        save_catalog(&cat, &dir).unwrap();
        save_catalog(&cat, &dir).unwrap();
        let back = load_catalog(&dir).unwrap();
        assert_eq!(back.table("customer").unwrap().len(), 2);
        // the log is the whole directory: no epoch, pointer or temp file
        let names: Vec<_> = vfs::dir_entries(&dir)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec![crate::wal::WAL_FILE.to_string()]);
        fs::remove_dir_all(&dir).ok();
    }

    /// Offset of a byte inside the first base table's put frame: past the
    /// 35-byte header, the frame's 12-byte length and checksum, and its tag.
    const IN_THE_BASE: usize = 35 + 12 + 4;

    #[test]
    fn corrupt_base_is_reported_not_dropped() {
        let dir = tempdir("corrupt");
        save_catalog(&sample(), &dir).unwrap();
        let victim = dir.join(crate::wal::WAL_FILE);
        let mut bytes = fs::read(&victim).unwrap();
        bytes[IN_THE_BASE] ^= 0xff; // flip a bit
        fs::write(&victim, &bytes).unwrap();
        let err = load_catalog(&dir).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt { path, detail }
                if path.contains("wal.log") && detail.contains("checksum")),
            "{err:?}"
        );
        // recovery has nothing older to fall back to → also fails, and
        // leaves the evidence as it was
        assert!(load_catalog_recover(&dir).is_err());
        assert_eq!(fs::read(&victim).unwrap(), bytes);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_base_is_reported_as_corrupt() {
        let dir = tempdir("truncated");
        save_catalog(&sample(), &dir).unwrap();
        let victim = dir.join(crate::wal::WAL_FILE);
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
        let err = load_catalog(&dir).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt { path, .. } if path.contains("wal.log")),
            "{err:?}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_epoch_directory_beside_the_log_is_refused_not_ignored() {
        let dir = tempdir("orphan");
        save_catalog(&sample(), &dir).unwrap();
        // A directory in the layout older versions wrote next to the log.
        fs::create_dir_all(dir.join("v999999")).unwrap();
        fs::write(dir.join("v999999").join("MANIFEST"), "garbage").unwrap();
        let log = fs::read(dir.join(crate::wal::WAL_FILE)).unwrap();
        for err in [
            load_catalog(&dir).unwrap_err(),
            load_catalog_recover(&dir).unwrap_err(),
            crate::Wal::open(&dir).unwrap_err(),
        ] {
            assert!(
                matches!(&err, StorageError::Corrupt { path, detail }
                    if path.ends_with("v999999") && detail.contains("epoch-directory layout")),
                "{err:?}"
            );
        }
        assert_eq!(fs::read(dir.join(crate::wal::WAL_FILE)).unwrap(), log);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphaned_spill_dir_is_removed_and_reported() {
        let dir = tempdir("spill_orphan");
        save_catalog(&sample(), &dir).unwrap();
        // Simulate a process killed mid-query: a spill session directory
        // with a half-written run file left behind.
        let orphan = dir.join(format!("{}{}", crate::spill::SPILL_DIR_PREFIX, "999-0"));
        fs::create_dir_all(&orphan).unwrap();
        fs::write(orphan.join("run-000000.spill"), b"partial").unwrap();
        let (cat, report) = load_catalog_recover(&dir).unwrap();
        assert_eq!(cat.table_names(), vec!["customer", "empty"]);
        assert!(
            report
                .issues
                .iter()
                .any(|i| i.contains("orphaned spill directory") && i.contains("removed")),
            "{report:?}"
        );
        assert!(!orphan.exists(), "orphan spill dir must be deleted");
        // A second recovery is quiet about spills.
        let (_, report2) = load_catalog_recover(&dir).unwrap();
        assert!(
            !report2.issues.iter().any(|i| i.contains("spill")),
            "{report2:?}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flat_layout_table_files_are_reported_not_loaded() {
        let dir = tempdir("stray");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("t.schema"), "a int\nb text\n").unwrap();
        fs::write(dir.join("t.csv"), "a,b\n1,x\n2,y\n").unwrap();
        assert!(load_catalog(&dir).unwrap().is_empty());
        let (cat, report) = load_catalog_recover(&dir).unwrap();
        assert!(cat.is_empty());
        assert!(report.base_seq.is_none());
        assert!(
            report.issues.iter().any(|i| i.contains("t.schema")),
            "{report:?}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_epoch_in_the_csv_layout_is_refused_not_loaded_empty() {
        // The layout older versions wrote: a checksummed epoch holding
        // `<table>.schema` + `<table>.csv`. This version has no reader for
        // it, and skipping the files would load an empty catalog.
        let dir = tempdir("csv_layout");
        let epoch = dir.join("v000001");
        fs::create_dir_all(&epoch).unwrap();
        let mut manifest = "conquer-manifest v1\n".to_string();
        for (name, bytes) in [
            ("t.schema", &b"a int\nb text\n"[..]),
            ("t.csv", &b"a,b\n1,x\n2,y\n"[..]),
            ("walseq", &b"0\n"[..]),
        ] {
            fs::write(epoch.join(name), bytes).unwrap();
            let sum = fnv1a64(bytes);
            manifest.push_str(&format!("fnv1a64:{sum:016x} {} {name}\n", bytes.len()));
        }
        fs::write(epoch.join("MANIFEST"), manifest).unwrap();
        fs::write(dir.join("CURRENT"), "v000001").unwrap();

        let err = load_catalog(&dir).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt { path, .. }
                if path.ends_with("CURRENT") || path.ends_with("v000001")),
            "{err:?}"
        );
        let recovered = load_catalog_recover(&dir);
        assert!(recovered.is_err(), "{recovered:?}");
        fs::remove_dir_all(&dir).ok();
    }
}
