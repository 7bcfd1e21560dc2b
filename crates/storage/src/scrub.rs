//! On-demand checksum scrubbing.
//!
//! [`scrub`] sweeps a durable directory without mutating it: the
//! write-ahead log is re-scanned frame by frame — the header, every table
//! of the base, and every commit group after it — and replayed as a load
//! replays it, and the leftovers that
//! recovery would clear away, the staged logs of interrupted checkpoints
//! and spill directories, are counted as quarantined. The result is a
//! typed [`ScrubReport`]; nothing panics on corruption, and nothing is
//! deleted (live queries may own spill directories, and a corrupt log is
//! evidence worth keeping until a checkpoint rewrites it).
//!
//! The engine surfaces this through `SharedDatabase::scrub()`, the `SCRUB`
//! wire verb, and the CLI's `\scrub`; a scrub that finds corruption flips
//! the durable handle into degraded mode (reads ok, writes refused) until
//! a checkpoint repairs the directory or a clean scrub clears it.

use std::path::Path;

use crate::error::StorageError;
use crate::vfs;
use crate::wal::{self, WAL_FILE};

/// What a [`scrub`] sweep found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[must_use = "a scrub that found corruption needs acting on"]
pub struct ScrubReport {
    /// Log frames that verified clean: the header, each base table, and
    /// each commit group.
    pub clean: u64,
    /// Log frames whose verification failed, or a log that could not be
    /// read.
    pub corrupt: u64,
    /// Suspect state set aside rather than trusted or deleted: staged
    /// logs of interrupted checkpoints and spill directories (which may
    /// belong to a live query or a dead one — the scrub cannot tell).
    pub quarantined: u64,
    /// The subset of `corrupt` found in the write-ahead log.
    pub wal_corrupt_frames: u64,
    /// Human-readable descriptions of everything corrupt or quarantined,
    /// plus any accumulated best-effort IO failure notes.
    pub issues: Vec<String>,
}

impl ScrubReport {
    /// True when nothing was corrupt (quarantined leftovers are normal
    /// operational debris and do not make a scrub dirty).
    pub fn is_clean(&self) -> bool {
        self.corrupt == 0
    }
}

/// Checksum-sweep the durable directory `dir`. Read-only: corruption is
/// reported, never "repaired" in place, and leftovers are counted, never
/// deleted. Callers must hold whatever lock serializes writers (a
/// concurrent checkpoint would rename the log mid-sweep).
pub fn scrub(dir: &Path) -> Result<ScrubReport, StorageError> {
    let _io = conquer_sync::blocking_region("storage::scrub");
    let mut report = ScrubReport::default();

    // 1. The write-ahead log, frame by frame. A bad header or base fails
    //    the scan; a tear after the seal ends it. Both are corruption
    //    here: scrubs run on quiesced directories, where `Wal::open` has
    //    already truncated any crash-torn tail. Then the log is replayed
    //    as a load would, so an image that does not decode or an edit
    //    that does not apply is corruption too, though its frame verified.
    let problem = match wal::scan(dir) {
        Ok(None) => None,
        Ok(Some(scan)) => match scan.catalog() {
            Ok(_) => {
                report.clean += 1 + scan.base_tables() as u64 + scan.commits.len() as u64;
                scan.torn
            }
            Err(e) => Some(e.to_string()),
        },
        Err(e) => Some(e.to_string()),
    };
    if let Some(problem) = problem {
        report.corrupt += 1;
        report.wal_corrupt_frames += 1;
        report.issues.push(format!("{WAL_FILE}: {problem}"));
    }

    // 2. Leftovers recovery would clear away.
    for name in wal::list_wal_tmp_files(dir) {
        report.quarantined += 1;
        report.issues.push(format!(
            "stale WAL temp file from an interrupted checkpoint: {name}"
        ));
    }
    for name in crate::spill::list_spill_dirs(dir) {
        report.quarantined += 1;
        report.issues.push(format!(
            "spill directory (live query or interrupted one): {name}"
        ));
    }

    // 3. Fold in any accumulated best-effort IO failure notes so they
    //    surface somewhere visible.
    for note in vfs::drain_issues() {
        report.issues.push(format!("io: {note}"));
    }
    Ok(report)
}
