//! Crash-safe catalog persistence.
//!
//! A catalog is saved as a directory holding one `<table>.tbl` file per
//! table: one exact [table image](crate::image), the bytes the WAL logs
//! for the same table. Every value reloads as it was saved, whether it
//! comes back through a checkpoint or a WAL replay. The files reach disk
//! through an epoch protocol:
//!
//! ```text
//! <dir>/
//!   CURRENT            # name of the committed epoch, e.g. "v000007"
//!   v000007/           # one complete, immutable snapshot
//!     MANIFEST         # "fnv1a64:<hex> <size> <file>" per file
//!     walseq           # last WAL sequence folded into this epoch
//!     customer.tbl     # table image
//!   wal.log            # committed writes newer than the epoch (crate::wal)
//!   .tmp-v000008-1234/ # in-flight save (ignored by loads, gc'd later)
//! ```
//!
//! Individual writes do not rewrite epochs: they append to the
//! [write-ahead log](crate::wal) and are replayed by both loaders on top
//! of the epoch snapshot, gated on the epoch's `walseq`. A checkpoint
//! belongs to the open log: [`Wal::checkpoint`](crate::Wal::checkpoint)
//! folds the current catalog (epoch + WAL) into a fresh epoch stamped
//! with the handle's last acknowledged sequence, then truncates the log.
//! [`save_catalog`] writes the same epoch for a caller holding no open
//! log, and reads the sequence to stamp from the disk instead.
//!
//! An epoch write never touches the committed snapshot: it writes every
//! file into a fresh temp directory (fsyncing each), writes a checksum
//! `MANIFEST`, atomically renames the temp directory to the next epoch,
//! and finally swaps the `CURRENT` pointer with an atomic rename. A crash
//! at *any* point — mid-file, mid-manifest, between the renames — leaves
//! `CURRENT` pointing at the previous fully-consistent epoch, which
//! [`load_catalog`] will happily load. Only after the commit are the old
//! epoch and any stale temp directories garbage-collected.
//!
//! [`load_catalog`] verifies every file of the committed epoch against the
//! manifest (size + FNV-1a checksum) and fails with a typed
//! [`StorageError::Corrupt`] naming the offending file — corruption is
//! *reported*, never silently dropped. [`load_catalog_recover`] is the
//! lenient entry point: it falls back to the newest loadable epoch and
//! returns a [`RecoveryReport`] describing everything it skipped
//! (corrupt epochs, orphaned publishes, stale temp directories).
//!
//! A directory with neither a `CURRENT` pointer nor an epoch directory
//! holds no snapshot: it loads as the empty catalog plus whatever the WAL
//! replays (a freshly opened durable database). Table files directly in
//! `<dir>` belong to no epoch and are never read;
//! [`load_catalog_recover`] reports the pre-epoch flat layout's `.schema`
//! files.
//!
//! An epoch may hold only the files [`save_catalog`] writes: a manifest
//! entry for any other file (such as the `.schema` + `.csv` pair of an
//! older layout) fails the load as [`StorageError::Corrupt`] rather than
//! being skipped into a silently emptier catalog.

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::catalog::Catalog;
use crate::error::{corrupt, StorageError};
use crate::image::{decode_table, encode_table};
use crate::vfs;

/// File extension of an epoch's table files (one table image each).
pub const TABLE_EXT: &str = "tbl";
/// Name of the committed-epoch pointer file.
pub const CURRENT_FILE: &str = "CURRENT";
/// Name of the per-epoch checksum manifest.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// Name of the per-epoch file recording the last WAL sequence folded into
/// that epoch (see [`crate::wal`]); replay skips commits at or below it.
pub const WALSEQ_FILE: &str = "walseq";
/// First line of a valid manifest.
pub(crate) const MANIFEST_HEADER: &str = "conquer-manifest v1";

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
    /// The epoch that was ultimately loaded (`None` when the directory
    /// holds no epoch at all).
    pub loaded_epoch: Option<String>,
    /// Committed write-ahead-log groups replayed on top of the loaded
    /// epoch (each one a write that committed after the last checkpoint).
    pub wal_commits_replayed: u64,
    /// Human-readable descriptions of everything skipped or repaired:
    /// corrupt epochs, orphaned (published-but-uncommitted) epochs, stale
    /// temp directories from crashed saves, torn WAL tails.
    pub issues: Vec<String>,
}

impl RecoveryReport {
    /// True when the load was completely clean.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Saving
// ---------------------------------------------------------------------------

/// Durably save every table of `catalog` into `dir` (created if missing).
///
/// The save is atomic: it becomes visible only when the `CURRENT` pointer
/// is swapped at the very end, and a crash at any earlier point leaves the
/// previously committed snapshot untouched and loadable. Unrelated files
/// in `dir` are left alone.
///
/// A save folds any write-ahead log in `dir` ([`crate::wal`]): the new
/// epoch records the last committed WAL sequence found on disk in its
/// `walseq` file, and after the commit the log is truncated to a fresh
/// header. `catalog` must therefore already contain every committed WAL
/// write (it does for any catalog obtained from
/// [`load_catalog`]/[`load_catalog_recover`], which replay the log). A
/// crash between the `CURRENT` swap and the truncation is harmless:
/// replay skips every sequence ≤ `walseq`. A writer holding the log open
/// checkpoints through [`Wal::checkpoint`](crate::Wal::checkpoint)
/// instead, which knows that sequence without reading the log.
pub fn save_catalog(catalog: &Catalog, dir: &Path) -> Result<(), StorageError> {
    let wal_seq = crate::wal::durable_seq(dir)?;
    save_epoch(catalog, dir, wal_seq)
}

/// Write `catalog` into `dir` as the next epoch stamped with `wal_seq`,
/// then truncate the log to a fresh header based at `wal_seq`: the body
/// of both [`save_catalog`] and [`Wal::checkpoint`](crate::Wal::checkpoint).
/// `wal_seq` must be the last committed sequence, so that every sequence
/// the log holds at or below it is in `catalog`.
pub(crate) fn save_epoch(catalog: &Catalog, dir: &Path, wal_seq: u64) -> Result<(), StorageError> {
    // Writes and fsyncs every table file: only blocking-tolerant locks
    // (the engine's writer lock during a checkpoint) may be held here.
    let _io = conquer_sync::blocking_region("persist::save_epoch");
    vfs::create_dir_all(dir)?;
    let epoch_num = next_epoch_number(dir);
    let epoch_name = format!("v{epoch_num:06}");
    let tmp = dir.join(format!(".tmp-{epoch_name}-{}", std::process::id()));
    // A same-named leftover can only come from a crashed save by this
    // very pid/epoch; replace it.
    let _ = vfs::remove_dir_all(&tmp);
    vfs::create_dir_all(&tmp)?;

    // 1. Write every table file (+ fsync each) into the temp directory.
    let mut manifest = String::from(MANIFEST_HEADER);
    manifest.push('\n');
    let mut files: Vec<(String, Vec<u8>)> = Vec::new();
    for table in catalog.tables() {
        let mut image = Vec::new();
        encode_table(table, &mut image);
        files.push((format!("{}.{TABLE_EXT}", table.name()), image));
    }
    files.push((WALSEQ_FILE.to_string(), format!("{wal_seq}\n").into_bytes()));
    for (name, bytes) in &files {
        write_file_sync(&tmp.join(name), bytes)?;
        manifest.push_str(&format!(
            "fnv1a64:{:016x} {} {}\n",
            fnv1a64(bytes),
            bytes.len(),
            name
        ));
    }

    // 2. Write the manifest, fsync it and the temp directory itself.
    //    Nothing is published yet, so a directory-fsync failure here
    //    fails the save loudly — publishing entries that might not be
    //    durable would tear the epoch's all-or-nothing guarantee.
    write_file_sync(&tmp.join(MANIFEST_FILE), manifest.as_bytes())?;
    vfs::sync_dir(&tmp)?;

    // 3. Publish: atomically rename the temp directory to its epoch name.
    //    A same-named orphan can only be an uncommitted epoch from a
    //    crashed save (CURRENT still points elsewhere) — remove it.
    //
    //    The directory fsync here is a HARD failure: step 5 deletes the
    //    superseded epoch, so continuing past a failed sync would destroy
    //    the fallback while the new epoch's rename is not yet durable —
    //    a crash could then leave *no* loadable epoch. Aborting instead
    //    leaves the old epoch committed and the full log intact.
    let epoch_dir = dir.join(&epoch_name);
    if vfs::exists(&epoch_dir) {
        vfs::remove_dir_all(&epoch_dir)?;
    }
    vfs::rename(&tmp, &epoch_dir)?;
    vfs::sync_dir(dir)?;

    // 4. Commit: atomically swap the CURRENT pointer. The directory fsync
    //    is hard for the same reason as step 3: gc must never run while
    //    the swap's durability is in doubt.
    let current_tmp = dir.join(format!(".{CURRENT_FILE}.tmp-{}", std::process::id()));
    write_file_sync(&current_tmp, epoch_name.as_bytes())?;
    vfs::rename(&current_tmp, &dir.join(CURRENT_FILE))?;
    vfs::sync_dir(dir)?;

    // 5. Garbage-collect superseded epochs and stale temp directories,
    //    and truncate the WAL — every sequence ≤ wal_seq is now folded
    //    into the committed epoch. Both are best-effort: a failure here
    //    cannot corrupt the committed state (stale WAL frames are skipped
    //    by sequence-gated replay, stale temp files by naming), but it is
    //    counted and noted, never silently dropped.
    gc(dir, &epoch_name);
    sync_dir_noted(dir, "after epoch garbage collection");
    if vfs::exists(&dir.join(crate::wal::WAL_FILE)) {
        if let Err(e) = crate::wal::truncate_wal(dir, wal_seq) {
            vfs::note_io_error(format!(
                "post-checkpoint WAL truncation in {} failed: {e}",
                dir.display()
            ));
        }
    }
    Ok(())
}

/// Write `bytes` to `path` and fsync the file.
fn write_file_sync(path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
    let mut file = vfs::File::create(path)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    Ok(())
}

/// fsync a directory whose contents are already safe either way (the
/// commit collapses to old-or-new regardless): failures are counted into
/// the IO health counters and noted, never silently dropped.
fn sync_dir_noted(dir: &Path, when: &str) {
    if let Err(e) = vfs::sync_dir(dir) {
        vfs::note_io_error(format!(
            "directory fsync {when} in {} failed: {e}",
            dir.display()
        ));
    }
}

/// The epoch number the next save should use: one past the largest epoch
/// visible on disk (committed or not), so publishes never collide with a
/// committed snapshot.
fn next_epoch_number(dir: &Path) -> u64 {
    let mut max = 0u64;
    if let Some(name) = read_current(dir) {
        max = max.max(parse_epoch(&name).unwrap_or(0));
    }
    for name in list_epoch_dirs(dir) {
        max = max.max(parse_epoch(&name).unwrap_or(0));
    }
    max + 1
}

fn parse_epoch(name: &str) -> Option<u64> {
    name.strip_prefix('v')?.parse().ok()
}

pub(crate) fn read_current(dir: &Path) -> Option<String> {
    let text = vfs::read_to_string(&dir.join(CURRENT_FILE)).ok()?;
    let name = text.trim();
    (!name.is_empty()).then(|| name.to_string())
}

/// The `walseq` recorded by the committed epoch (0 when there is no
/// committed epoch, or it predates the WAL).
pub(crate) fn current_walseq(dir: &Path) -> u64 {
    match read_current(dir) {
        Some(epoch) => epoch_walseq(&dir.join(epoch)),
        None => 0,
    }
}

/// The `walseq` stamped into one epoch directory (0 for pre-WAL epochs,
/// which by definition have no folded-in WAL commits).
fn epoch_walseq(epoch_dir: &Path) -> u64 {
    vfs::read_to_string(&epoch_dir.join(WALSEQ_FILE))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// Names of `v*` epoch directories directly under `dir`.
pub(crate) fn list_epoch_dirs(dir: &Path) -> Vec<String> {
    let mut out = Vec::new();
    if let Ok(entries) = vfs::dir_entries(dir) {
        for entry in entries {
            if entry.is_dir && parse_epoch(&entry.name).is_some() {
                out.push(entry.name);
            }
        }
    }
    out.sort();
    out
}

/// Names of `.tmp-*` in-flight-save directories directly under `dir`.
pub(crate) fn list_tmp_dirs(dir: &Path) -> Vec<String> {
    let mut out = Vec::new();
    if let Ok(entries) = vfs::dir_entries(dir) {
        for entry in entries {
            if entry.is_dir && entry.name.starts_with(".tmp-") {
                out.push(entry.name);
            }
        }
    }
    out.sort();
    out
}

/// Remove epochs other than `keep`, stale temp directories, and stale WAL
/// truncation temp files.
fn gc(dir: &Path, keep: &str) {
    for name in list_epoch_dirs(dir) {
        if name != keep {
            let _ = vfs::remove_dir_all(&dir.join(name));
        }
    }
    for name in list_tmp_dirs(dir) {
        let _ = vfs::remove_dir_all(&dir.join(name));
    }
    for name in crate::wal::list_wal_tmp_files(dir) {
        let _ = vfs::remove_file(&dir.join(name));
    }
}

// ---------------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------------

/// Load the committed snapshot from a directory written by
/// [`save_catalog`], verifying every file against the epoch's checksum
/// manifest. Fails with [`StorageError::Corrupt`] (naming the offending
/// file) on any integrity violation — use [`load_catalog_recover`] to fall
/// back to an older epoch instead.
///
/// A directory with no committed epoch starts from the empty catalog.
///
/// Committed write-ahead-log suffixes (sequences newer than the epoch's
/// `walseq`, see [`crate::wal`]) are replayed on top of the loaded
/// snapshot. A torn WAL tail — the expected residue of a crash mid-commit
/// — is tolerated silently here; use [`load_catalog_recover`] to have it
/// reported.
pub fn load_catalog(dir: &Path) -> Result<Catalog, StorageError> {
    let (mut catalog, min_seq) = match read_current(dir) {
        Some(epoch) => {
            let epoch_dir = dir.join(&epoch);
            (load_epoch(&epoch_dir)?, epoch_walseq(&epoch_dir))
        }
        None => {
            // No snapshot yet; a missing directory is still an error.
            vfs::dir_entries(dir)?;
            (Catalog::new(), 0)
        }
    };
    if let Some(wal) = crate::wal::read_wal(dir)? {
        crate::wal::replay(wal, &mut catalog, min_seq);
    }
    Ok(catalog)
}

/// Load the newest loadable snapshot, tolerating (and reporting) corrupt
/// or partially-written state: a corrupt committed epoch falls back to the
/// newest older epoch that verifies; orphaned epochs (published but never
/// committed) and stale temp directories from crashed saves are reported.
///
/// Fails only when *no* epoch is loadable.
pub fn load_catalog_recover(dir: &Path) -> Result<(Catalog, RecoveryReport), StorageError> {
    let mut report = RecoveryReport::default();
    for tmp in list_tmp_dirs(dir) {
        report.issues.push(format!(
            "stale temp directory from an interrupted save: {tmp}"
        ));
    }
    // A WAL truncation temp file means a checkpoint was interrupted
    // between staging the fresh log and renaming it into place; the live
    // log is still authoritative, the staged one is garbage.
    for tmp in crate::wal::list_wal_tmp_files(dir) {
        match vfs::remove_file(&dir.join(&tmp)) {
            Ok(()) => report.issues.push(format!(
                "stale WAL temp file from an interrupted checkpoint: {tmp}; removed"
            )),
            Err(e) => report.issues.push(format!(
                "stale WAL temp file from an interrupted checkpoint: {tmp}; \
                 could not be removed: {e}"
            )),
        }
    }
    // Spill sessions are scratch state for in-flight queries; one found at
    // load time belongs to a process that died mid-query. Remove it.
    for spill in crate::spill::list_spill_dirs(dir) {
        match vfs::remove_dir_all(&dir.join(&spill)) {
            Ok(()) => report.issues.push(format!(
                "orphaned spill directory from an interrupted query: {spill}; removed"
            )),
            Err(e) => report.issues.push(format!(
                "orphaned spill directory from an interrupted query: {spill}; \
                 could not be removed: {e}"
            )),
        }
    }

    let current = read_current(dir);
    let epochs = list_epoch_dirs(dir);
    if current.is_none() && epochs.is_empty() {
        // No snapshot was ever committed here: the log is the database.
        // The pre-epoch flat layout's table files have no manifest to
        // verify them against, so they are reported, not loaded.
        for entry in vfs::dir_entries(dir)? {
            if !entry.is_dir && entry.name.ends_with(".schema") {
                report.issues.push(format!(
                    "table file outside any epoch: {}; ignored",
                    entry.name
                ));
            }
        }
        let mut catalog = Catalog::new();
        replay_wal_reported(dir, &mut catalog, 0, &mut report)?;
        return Ok((catalog, report));
    }

    for orphan in epochs.iter().filter(|e| {
        current
            .as_deref()
            .is_some_and(|c| parse_epoch(e).unwrap_or(0) > parse_epoch(c).unwrap_or(0))
    }) {
        report.issues.push(format!(
            "orphaned epoch {orphan}: published but never committed \
             (save interrupted before the CURRENT swap); ignored"
        ));
    }

    // Try the committed epoch first, then every other epoch newest-first.
    let mut candidates: Vec<String> = Vec::new();
    if let Some(c) = &current {
        candidates.push(c.clone());
    }
    for e in epochs.iter().rev() {
        if Some(e.as_str()) != current.as_deref() {
            candidates.push(e.clone());
        }
    }

    // On total failure, surface the *committed* epoch's error — it is the
    // one the user cares about, not whichever fallback failed last.
    let mut first_err: Option<StorageError> = None;
    for epoch in candidates {
        match load_epoch(&dir.join(&epoch)) {
            Ok(mut catalog) => {
                // Replay gated on *this* epoch's walseq: falling back to
                // an older epoch automatically replays more of the log,
                // re-applying the writes the newer (corrupt) epoch had
                // folded in — as long as the log still has them.
                let min_seq = epoch_walseq(&dir.join(&epoch));
                replay_wal_reported(dir, &mut catalog, min_seq, &mut report)?;
                report.loaded_epoch = Some(epoch);
                return Ok((catalog, report));
            }
            Err(e) => {
                report
                    .issues
                    .push(format!("epoch {epoch} is not loadable: {e}"));
                first_err.get_or_insert(e);
            }
        }
    }
    Err(first_err.unwrap_or_else(|| corrupt(dir, "no loadable epoch found".into())))
}

/// Replay the WAL into `catalog` (commits with sequence > `min_seq`),
/// recording the replay count and any torn tail in `report`.
fn replay_wal_reported(
    dir: &Path,
    catalog: &mut Catalog,
    min_seq: u64,
    report: &mut RecoveryReport,
) -> Result<(), StorageError> {
    if let Some(wal) = crate::wal::read_wal(dir)? {
        let (applied, torn) = crate::wal::replay(wal, catalog, min_seq);
        report.wal_commits_replayed = applied;
        if let Some(t) = torn {
            report.issues.push(format!(
                "write-ahead log has an incomplete tail ({t}); \
                 every fully committed write before it was replayed"
            ));
        }
    }
    Ok(())
}

/// Load and verify one epoch directory against its manifest.
fn load_epoch(epoch_dir: &Path) -> Result<Catalog, StorageError> {
    let manifest_path = epoch_dir.join(MANIFEST_FILE);
    let manifest_text = vfs::read_to_string(&manifest_path)
        .map_err(|e| corrupt(&manifest_path, format!("cannot read manifest: {e}")))?;
    let mut lines = manifest_text.lines();
    if lines.next() != Some(MANIFEST_HEADER) {
        return Err(corrupt(
            &manifest_path,
            format!("bad manifest header (expected {MANIFEST_HEADER:?})"),
        ));
    }

    // Verify every manifest entry; decode each table file as it verifies.
    let mut catalog = Catalog::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.splitn(3, ' ');
        let (sum, size, name) = match (parts.next(), parts.next(), parts.next()) {
            (Some(s), Some(z), Some(n)) => (s, z, n),
            _ => {
                return Err(corrupt(
                    &manifest_path,
                    format!("malformed manifest line {line:?}"),
                ))
            }
        };
        let expected_sum = sum
            .strip_prefix("fnv1a64:")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| corrupt(&manifest_path, format!("bad checksum field {sum:?}")))?;
        let expected_size: u64 = size
            .parse()
            .map_err(|_| corrupt(&manifest_path, format!("bad size field {size:?}")))?;
        let file_path = epoch_dir.join(name);
        if name != WALSEQ_FILE && !name.ends_with(&format!(".{TABLE_EXT}")) {
            return Err(corrupt(
                &file_path,
                "not a file this version writes into an epoch (an older layout?)".into(),
            ));
        }
        let bytes = vfs::read(&file_path).map_err(|e| {
            corrupt(
                &file_path,
                format!("listed in manifest but unreadable: {e}"),
            )
        })?;
        if bytes.len() as u64 != expected_size {
            return Err(corrupt(
                &file_path,
                format!(
                    "size mismatch: manifest says {expected_size} bytes, file has {} \
                     (partially written?)",
                    bytes.len()
                ),
            ));
        }
        let actual_sum = fnv1a64(&bytes);
        if actual_sum != expected_sum {
            return Err(corrupt(
                &file_path,
                format!(
                    "checksum mismatch: manifest says fnv1a64:{expected_sum:016x}, \
                     file hashes to fnv1a64:{actual_sum:016x}"
                ),
            ));
        }
        if name != WALSEQ_FILE {
            catalog.add_table(decode_table(&bytes, &file_path)?)?;
        }
    }

    Ok(catalog)
}

/// The path of a table's image file inside the currently committed epoch
/// (directly under `dir` when no epoch is committed, where no loader
/// reads it).
pub fn current_table_path(dir: &Path, table: &str) -> PathBuf {
    match read_current(dir) {
        Some(epoch) => dir.join(epoch).join(format!("{table}.{TABLE_EXT}")),
        None => dir.join(format!("{table}.{TABLE_EXT}")),
    }
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
    fn save_is_idempotent_and_gcs_old_epochs() {
        let dir = tempdir("idem");
        let cat = sample();
        save_catalog(&cat, &dir).unwrap();
        save_catalog(&cat, &dir).unwrap();
        let back = load_catalog(&dir).unwrap();
        assert_eq!(back.table("customer").unwrap().len(), 2);
        // only the committed epoch survives gc
        assert_eq!(list_epoch_dirs(&dir).len(), 1);
        assert!(list_tmp_dirs(&dir).is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_data_file_is_reported_not_dropped() {
        let dir = tempdir("corrupt");
        save_catalog(&sample(), &dir).unwrap();
        let epoch = read_current(&dir).unwrap();
        let victim = dir.join(&epoch).join("customer.tbl");
        let mut bytes = fs::read(&victim).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0xff; // flip a bit
        fs::write(&victim, bytes).unwrap();
        let err = load_catalog(&dir).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt { path, detail }
                if path.contains("customer.tbl") && detail.contains("checksum")),
            "{err:?}"
        );
        // recovery has nothing older to fall back to → also fails, but
        // reports what it saw
        let rec = load_catalog_recover(&dir);
        assert!(rec.is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_is_reported_as_partial_write() {
        let dir = tempdir("truncated");
        save_catalog(&sample(), &dir).unwrap();
        let epoch = read_current(&dir).unwrap();
        let victim = dir.join(&epoch).join("customer.tbl");
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
        let err = load_catalog(&dir).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt { detail, .. } if detail.contains("size mismatch")),
            "{err:?}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphaned_epoch_is_ignored_and_reported() {
        let dir = tempdir("orphan");
        save_catalog(&sample(), &dir).unwrap();
        // Simulate a save that crashed after publish but before commit:
        // an epoch directory newer than CURRENT.
        fs::create_dir_all(dir.join("v999999")).unwrap();
        fs::write(dir.join("v999999").join(MANIFEST_FILE), "garbage").unwrap();
        let strict = load_catalog(&dir).unwrap();
        assert_eq!(strict.table_names(), vec!["customer", "empty"]);
        let (cat, report) = load_catalog_recover(&dir).unwrap();
        assert_eq!(cat.table_names(), vec!["customer", "empty"]);
        assert!(
            report
                .issues
                .iter()
                .any(|i| i.contains("orphaned epoch v999999")),
            "{report:?}"
        );
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
    fn recovery_falls_back_to_older_epoch_when_current_is_corrupt() {
        let dir = tempdir("fallback");
        let cat1 = sample();
        save_catalog(&cat1, &dir).unwrap();
        let epoch1 = read_current(&dir).unwrap();
        // Second save; then corrupt its manifest and keep epoch1 around.
        let mut cat2 = sample();
        cat2.create_table("extra", Schema::from_pairs([("y", DataType::Int)]).unwrap())
            .unwrap();
        // preserve epoch1 from gc by re-creating it afterwards
        let saved_epoch1 = dir.join(&epoch1);
        let backup = tempdir("fallback_backup");
        fs::create_dir_all(&backup).unwrap();
        copy_dir(&saved_epoch1, &backup.join(&epoch1));
        save_catalog(&cat2, &dir).unwrap();
        copy_dir(&backup.join(&epoch1), &saved_epoch1);
        let epoch2 = read_current(&dir).unwrap();
        fs::write(dir.join(&epoch2).join(MANIFEST_FILE), "garbage").unwrap();

        assert!(load_catalog(&dir).is_err());
        let (cat, report) = load_catalog_recover(&dir).unwrap();
        assert_eq!(report.loaded_epoch, Some(epoch1));
        assert_eq!(cat.table_names(), vec!["customer", "empty"]);
        assert!(
            report.issues.iter().any(|i| i.contains(&epoch2)),
            "{report:?}"
        );
        fs::remove_dir_all(&dir).ok();
        fs::remove_dir_all(&backup).ok();
    }

    #[test]
    fn table_files_outside_an_epoch_are_reported_not_loaded() {
        let dir = tempdir("stray");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("t.schema"), "a int\nb text\n").unwrap();
        fs::write(dir.join("t.csv"), "a,b\n1,x\n2,y\n").unwrap();
        assert!(load_catalog(&dir).unwrap().is_empty());
        let (cat, report) = load_catalog_recover(&dir).unwrap();
        assert!(cat.is_empty());
        assert!(report.loaded_epoch.is_none());
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
        let mut manifest = format!("{MANIFEST_HEADER}\n");
        for (name, bytes) in [
            ("t.schema", &b"a int\nb text\n"[..]),
            ("t.csv", &b"a,b\n1,x\n2,y\n"[..]),
            (WALSEQ_FILE, &b"0\n"[..]),
        ] {
            fs::write(epoch.join(name), bytes).unwrap();
            let sum = fnv1a64(bytes);
            manifest.push_str(&format!("fnv1a64:{sum:016x} {} {name}\n", bytes.len()));
        }
        fs::write(epoch.join(MANIFEST_FILE), manifest).unwrap();
        fs::write(dir.join(CURRENT_FILE), "v000001").unwrap();

        let err = load_catalog(&dir).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt { path, .. }
                if path.ends_with("t.schema") || path.ends_with("t.csv")),
            "{err:?}"
        );
        let recovered = load_catalog_recover(&dir);
        assert!(recovered.is_err(), "{recovered:?}");
        fs::remove_dir_all(&dir).ok();
    }

    fn copy_dir(from: &Path, to: &Path) {
        fs::create_dir_all(to).unwrap();
        for entry in fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    }
}
