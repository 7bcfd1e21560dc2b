//! Write-ahead logging: crash-safe catalog writes without rewriting epochs.
//!
//! [`crate::persist::save_catalog`] is atomic but O(catalog): every save
//! rewrites the whole epoch directory. The WAL makes individual writes
//! cheap and durable: a committed write appends the affected tables to
//! `<dir>/wal.log` and fsyncs once; the full epoch rewrite happens only at
//! **checkpoint** time, when [`Wal::checkpoint`] folds the log into a
//! fresh epoch and truncates it.
//!
//! The checkpoint belongs to the open log. The handle knows the last
//! sequence it acknowledged, so it stamps the new epoch's `walseq` with
//! that number and reads none of the log it folds: a checkpoint costs
//! what it writes, however long the log has grown. A poisoned handle
//! heals first, so the stamp is never a sequence whose commit was
//! reported failed. [`save_catalog`](crate::persist::save_catalog) writes
//! the same epoch for a caller with no open log and scans `wal.log` for
//! the sequence instead.
//!
//! ```text
//! <dir>/
//!   CURRENT          # committed epoch pointer (see persist)
//!   v000007/
//!     MANIFEST
//!     walseq         # last WAL sequence folded into this epoch
//!     customer.tbl   # table image (crate::image), the bytes a put frame logs
//!   wal.log          # committed writes newer than v000007
//! ```
//!
//! ## File format
//!
//! The log is a sequence of frames in the spill-record framing:
//!
//! ```text
//! [u32 LE payload length][u64 LE fnv1a64(payload)][payload]
//! ```
//!
//! The payload's first byte is a tag:
//!
//! * `0` **header** — magic `"conquer-wal v1"` + the `u64 LE` base
//!   sequence (the `walseq` of the epoch current when the log was created
//!   or last truncated). Always the first frame.
//! * `1` **put** — a complete [table image](crate::image): name, schema
//!   text, row count, then rows in the spill value codec — the same bytes
//!   an epoch's `<table>.tbl` file holds. Whole-table images make replay
//!   idempotent and order-insensitive within a commit.
//! * `2` **drop** — a table name.
//! * `3` **commit** — the `u64 LE` sequence number sealing every put/drop
//!   frame since the previous commit. A write is durable iff its commit
//!   frame is fully on disk ([`Wal::commit`] fsyncs before returning).
//!
//! ## Recovery semantics
//!
//! Replay ([`crate::load_catalog`] / [`crate::load_catalog_recover`])
//! applies committed frames **in order**, skipping commits whose sequence
//! is ≤ the loaded epoch's `walseq` (they are already folded in — this
//! gating is what makes a crash *between* an epoch commit and the WAL
//! truncation harmless). Parsing stops at the first incomplete or
//! checksum-failing frame: that is the torn tail a crash mid-append
//! leaves behind, and everything before it is still recovered. The torn
//! tail is reported, never a load failure. [`Wal::open`] truncates the
//! tail (torn bytes *and* op frames missing their commit) before
//! accepting new appends, so an interrupted commit can never leak into a
//! later one.

use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::catalog::Catalog;
use crate::error::{corrupt, StorageError};
use crate::image::{decode_table, encode_table, push_str, take_str, take_u32};
use crate::persist::fnv1a64;
use crate::spill::{take, take_arr};
use crate::table::Table;
use crate::vfs;

/// Name of the write-ahead log file inside a persistence directory.
pub const WAL_FILE: &str = "wal.log";

/// Magic string opening every log (in the header frame).
const WAL_MAGIC: &[u8] = b"conquer-wal v1";

/// Prefix of the temp file a truncation stages its replacement log under.
pub(crate) const WAL_TMP_PREFIX: &str = ".wal.tmp-";

/// Upper bound on one frame's payload; a larger length prefix means the
/// file is corrupt (a table image of this size would not fit in memory
/// many times over anyway).
const MAX_PAYLOAD_BYTES: u32 = 1 << 30;

const TAG_HEADER: u8 = 0;
const TAG_PUT: u8 = 1;
const TAG_DROP: u8 = 2;
const TAG_COMMIT: u8 = 3;

/// One logical operation inside a WAL commit.
///
/// `Put` carries the *complete* post-write image of a table (not a delta):
/// replaying it is a plain [`Catalog::replace_table`], idempotent under
/// partial re-replay. The operations of one write are what
/// [`Catalog::changes_since`] reads off the catalogs before and after it.
#[derive(Debug)]
pub enum WalOp<'a> {
    /// Replace (or create) a table with this image.
    Put(&'a Table),
    /// Drop the named table (a no-op on replay if it is already gone).
    Drop(&'a str),
}

/// An owned, decoded WAL operation (the replay-side twin of [`WalOp`]).
#[derive(Debug)]
pub(crate) enum WalRecord {
    Put(Table),
    Drop(String),
}

/// Everything a scan of `wal.log` found.
#[derive(Debug, Default)]
pub(crate) struct WalContents {
    /// The header's base sequence.
    pub base_seq: u64,
    /// The last committed sequence (`base_seq` when no commit exists).
    pub last_seq: u64,
    /// Committed operation groups, in commit order.
    pub commits: Vec<(u64, Vec<WalRecord>)>,
    /// Byte offset just past the last fully-committed frame — the point a
    /// writer truncates to before appending.
    pub committed_len: u64,
    /// Description of the torn/uncommitted tail, when one exists.
    pub torn: Option<String>,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn push_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

fn header_payload(base_seq: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(1 + WAL_MAGIC.len() + 8);
    p.push(TAG_HEADER);
    p.extend_from_slice(WAL_MAGIC);
    p.extend_from_slice(&base_seq.to_le_bytes());
    p
}

fn commit_payload(seq: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(9);
    p.push(TAG_COMMIT);
    p.extend_from_slice(&seq.to_le_bytes());
    p
}

fn put_payload(table: &Table) -> Vec<u8> {
    let mut p = vec![TAG_PUT];
    encode_table(table, &mut p);
    p
}

fn drop_payload(name: &str) -> Vec<u8> {
    let mut p = vec![TAG_DROP];
    push_str(&mut p, name);
    p
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn take_u64(buf: &[u8], pos: &mut usize, path: &Path) -> Result<u64, StorageError> {
    Ok(u64::from_le_bytes(take_arr(buf, pos, path)?))
}

/// Parse one frame starting at `*pos`. `Ok(None)` means a clean
/// end-of-file; a torn or corrupt frame is an `Err` (the *caller* decides
/// that means "stop here", not "fail the load").
fn next_frame<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    path: &Path,
) -> Result<Option<&'a [u8]>, StorageError> {
    if *pos == buf.len() {
        return Ok(None);
    }
    let at = *pos;
    let len = take_u32(buf, pos, path)?;
    if len > MAX_PAYLOAD_BYTES {
        return Err(corrupt(
            path,
            format!("frame at offset {at} declares an absurd payload of {len} bytes"),
        ));
    }
    let sum = take_u64(buf, pos, path)?;
    let payload = take(buf, pos, len as usize, path)?;
    let actual = fnv1a64(payload);
    if actual != sum {
        return Err(corrupt(
            path,
            format!(
                "frame at offset {at} fails its checksum \
                 (expected fnv1a64:{sum:016x}, got fnv1a64:{actual:016x})"
            ),
        ));
    }
    if payload.is_empty() {
        return Err(corrupt(path, format!("empty frame at offset {at}")));
    }
    Ok(Some(payload))
}

/// Scan `<dir>/wal.log`. Returns `Ok(None)` when the file does not exist.
/// Torn tails never fail the scan — they end it, with everything before
/// them intact and `torn` describing what was dropped. Only filesystem
/// errors (not corruption) surface as `Err`.
pub(crate) fn read_wal(dir: &Path) -> Result<Option<WalContents>, StorageError> {
    let path = dir.join(WAL_FILE);
    let buf = match vfs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut out = WalContents::default();
    let mut pos = 0usize;

    // Header frame first; a log whose very header is unreadable recovers
    // as "no commits" (committed_len 0 tells the writer to start over).
    match next_frame(&buf, &mut pos, &path) {
        Ok(Some(payload)) if payload[0] == TAG_HEADER && payload[1..].starts_with(WAL_MAGIC) => {
            let mut p = 1 + WAL_MAGIC.len();
            out.base_seq = take_u64(payload, &mut p, &path)?;
            out.last_seq = out.base_seq;
            out.committed_len = pos as u64;
        }
        Ok(None) => {
            out.torn = Some("write-ahead log is empty (no header)".into());
            return Ok(Some(out));
        }
        Ok(Some(_)) | Err(_) => {
            out.torn = Some("write-ahead log header is missing or corrupt".into());
            return Ok(Some(out));
        }
    }

    // Frames until EOF or the first tear.
    let mut pending: Vec<WalRecord> = Vec::new();
    loop {
        let frame_start = pos;
        match next_frame(&buf, &mut pos, &path) {
            Ok(None) => break,
            Err(e) => {
                out.torn = Some(format!("torn tail: {e}"));
                break;
            }
            Ok(Some(payload)) => {
                let decoded = match payload[0] {
                    TAG_PUT => decode_table(&payload[1..], &path).map(WalRecord::Put),
                    TAG_DROP => {
                        let mut p = 1;
                        take_str(payload, &mut p, &path).map(WalRecord::Drop)
                    }
                    TAG_COMMIT => {
                        let mut p = 1;
                        let seq = take_u64(payload, &mut p, &path)?;
                        if seq <= out.last_seq {
                            out.torn = Some(format!(
                                "commit sequence went backwards at offset {frame_start} \
                                 ({seq} after {})",
                                out.last_seq
                            ));
                            break;
                        }
                        out.last_seq = seq;
                        out.commits.push((seq, std::mem::take(&mut pending)));
                        out.committed_len = pos as u64;
                        continue;
                    }
                    TAG_HEADER => {
                        out.torn = Some(format!("unexpected header frame at offset {frame_start}"));
                        break;
                    }
                    other => {
                        out.torn =
                            Some(format!("unknown frame tag {other} at offset {frame_start}"));
                        break;
                    }
                };
                match decoded {
                    Ok(rec) => pending.push(rec),
                    Err(e) => {
                        out.torn = Some(format!("torn tail: {e}"));
                        break;
                    }
                }
            }
        }
    }
    if out.torn.is_none() && !pending.is_empty() {
        out.torn = Some(format!(
            "interrupted commit: {} operation frame(s) with no commit marker",
            pending.len()
        ));
    }
    Ok(Some(out))
}

/// The last committed sequence recorded anywhere under `dir`: the maximum
/// of the WAL's last commit and the committed epoch's `walseq`. This is
/// what a standalone [`save_catalog`](crate::persist::save_catalog)
/// stamps into the new epoch. It scans and decodes the whole log; an open
/// [`Wal`] holds the same number as [`Wal::last_seq`].
pub(crate) fn durable_seq(dir: &Path) -> Result<u64, StorageError> {
    let from_epoch = crate::persist::current_walseq(dir);
    let from_wal = read_wal(dir)?.map_or(0, |c| c.last_seq);
    Ok(from_epoch.max(from_wal))
}

/// Replay every committed WAL group with sequence > `min_seq` into
/// `catalog`, in commit order; the decoded table images move in. Returns
/// `(applied, torn)`.
pub(crate) fn replay(
    contents: WalContents,
    catalog: &mut Catalog,
    min_seq: u64,
) -> (u64, Option<String>) {
    let mut applied = 0;
    for (seq, records) in contents.commits {
        if seq <= min_seq {
            continue;
        }
        for rec in records {
            match rec {
                WalRecord::Put(table) => catalog.replace_table(table),
                WalRecord::Drop(name) => {
                    let _ = catalog.drop_table(&name);
                }
            }
        }
        applied += 1;
    }
    (applied, contents.torn)
}

/// Atomically replace `<dir>/wal.log` with a fresh, empty log whose header
/// carries `base_seq`. Called by every epoch save after it commits:
/// every sequence ≤ `base_seq` is folded into the new epoch, so the old
/// frames are dead weight. The replacement is staged in a temp
/// file and renamed into place — a crash anywhere leaves either the old
/// log (harmless: replay is sequence-gated) or the new one.
pub(crate) fn truncate_wal(dir: &Path, base_seq: u64) -> Result<(), StorageError> {
    // Stages, fsyncs, and renames files: only blocking-tolerant locks
    // (the engine's writer lock) may be held across this.
    let _io = conquer_sync::blocking_region("wal::truncate");
    let tmp = dir.join(format!("{WAL_TMP_PREFIX}{}", std::process::id()));
    let mut buf = Vec::new();
    push_frame(&mut buf, &header_payload(base_seq));
    {
        let mut file = vfs::File::create(&tmp)?;
        file.write_all(&buf)?;
        file.sync_all()?;
    }
    vfs::rename(&tmp, &dir.join(WAL_FILE))?;
    // The rename only becomes durable once the directory itself is
    // fsynced. A failure here is tolerable (sequence-gated replay skips
    // stale frames either way) but must not vanish: count it and leave a
    // note for the recovery path.
    if let Err(e) = vfs::sync_dir(dir) {
        vfs::note_io_error(format!(
            "directory fsync after WAL truncation in {} failed: {e}",
            dir.display()
        ));
    }
    Ok(())
}

/// Names of stale `.wal.tmp-*` files directly under `dir` (left by a
/// truncation interrupted between staging and rename).
pub(crate) fn list_wal_tmp_files(dir: &Path) -> Vec<String> {
    let mut out = Vec::new();
    if let Ok(entries) = vfs::dir_entries(dir) {
        for entry in entries {
            if !entry.is_dir && entry.name.starts_with(WAL_TMP_PREFIX) {
                out.push(entry.name);
            }
        }
    }
    out.sort();
    out
}

// ---------------------------------------------------------------------------
// The writer handle
// ---------------------------------------------------------------------------

/// An open, append-only handle on `<dir>/wal.log`.
///
/// One writer at a time (callers serialize; the engine's shared-database
/// writer lock does this for served traffic). Every [`Wal::commit`] is
/// atomic-on-disk: it stages the op frames plus a commit frame, writes
/// them in one append, and fsyncs before returning — `Ok` means the write
/// survives any crash, `Err` means the log is as if the call never
/// happened (the partial append is rolled back, and a *kill* mid-append
/// is cleaned up by the next [`Wal::open`] / tolerated by replay as a
/// torn tail).
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    file: vfs::File,
    /// Sequence the next commit will be stamped with.
    next_seq: u64,
    /// Bytes of committed log (= current file length).
    len: u64,
    /// Set when this descriptor can no longer be trusted: a commit fsync
    /// failed (fsyncgate: after a failed fsync the kernel may have
    /// dropped the dirty flags, so retrying fsync can report success
    /// without durability), or a failed append could not be rolled back.
    /// The next commit or checkpoint heals by reopen + re-truncate, never
    /// fsync retry.
    poisoned: bool,
}

impl Wal {
    /// Open (creating if necessary) the log in `dir`, truncating any
    /// torn or uncommitted tail so new appends start at a clean commit
    /// boundary. Sequences continue above both the log's last commit and
    /// the committed epoch's `walseq`, so a recreated log can never reuse
    /// a sequence an epoch already folded in.
    pub fn open(dir: &Path) -> Result<Wal, StorageError> {
        let _io = conquer_sync::blocking_region("wal::open");
        vfs::create_dir_all(dir)?;
        // The floor is what `durable_seq` computes, taken from this scan
        // so the log is read once.
        let contents = read_wal(dir)?;
        let floor =
            crate::persist::current_walseq(dir).max(contents.as_ref().map_or(0, |c| c.last_seq));
        let path = dir.join(WAL_FILE);
        let mut file = vfs::File::open_rw(&path)?;
        let (last_seq, committed_len) = match &contents {
            Some(c) if c.committed_len > 0 => (floor, c.committed_len),
            // Missing, empty, or header-corrupt log: start a fresh one
            // whose base is everything already durable in the epochs.
            _ => {
                let mut buf = Vec::new();
                push_frame(&mut buf, &header_payload(floor));
                file.set_len(0)?;
                file.write_all(&buf)?;
                file.sync_all()?;
                // The log's own directory entry must be durable too, or a
                // crash could lose the whole (fsynced) file and with it
                // every commit it ever acknowledges.
                vfs::sync_dir(dir)?;
                (floor, buf.len() as u64)
            }
        };
        file.set_len(committed_len)?;
        file.seek(SeekFrom::End(0))?;
        file.sync_all()?;
        Ok(Wal {
            dir: dir.to_path_buf(),
            file,
            next_seq: last_seq + 1,
            len: committed_len,
            poisoned: false,
        })
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes of committed log on disk (checkpoint policies watch this).
    pub fn size_bytes(&self) -> u64 {
        self.len
    }

    /// The sequence of the most recent commit (0 when the log has never
    /// committed anything and no epoch has a `walseq`).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Durably append one atomic group of operations. On `Ok(seq)` the
    /// group is fsynced and will be replayed by any future load; on `Err`
    /// the log is unchanged (the partial append is truncated away).
    pub fn commit(&mut self, ops: &[WalOp<'_>]) -> Result<u64, StorageError> {
        if self.poisoned {
            // fsyncgate rule: a poisoned descriptor is never fsynced
            // again. Heal by reopening and re-truncating to the last
            // acknowledged boundary, then proceed on the fresh handle.
            self.heal()?;
        }
        let seq = self.next_seq;
        let mut buf = Vec::new();
        for op in ops {
            match op {
                WalOp::Put(table) => push_frame(&mut buf, &put_payload(table)),
                WalOp::Drop(name) => push_frame(&mut buf, &drop_payload(name)),
            }
        }
        push_frame(&mut buf, &commit_payload(seq));

        // The append + fsync is the engine's canonical
        // hold-a-lock-while-blocking site; the writer mutex rank is marked
        // blocking-tolerant for exactly this call.
        let written = {
            let _io = conquer_sync::blocking_region("wal::commit");
            self.file.write_all(&buf)
        };
        if let Err(e) = written {
            // Err must mean "as if never called": drop the partial append.
            self.rollback();
            return Err(e.into());
        }

        let synced = {
            let _io = conquer_sync::blocking_region("wal::commit");
            self.file.sync_data()
        };
        match synced {
            Ok(()) => {
                self.len += buf.len() as u64;
                self.next_seq = seq + 1;
                Ok(seq)
            }
            Err(e) => {
                // A failed fsync leaves the kernel's dirty-page state
                // undefined, so this descriptor can never prove
                // durability again: poison it (the next commit heals by
                // reopen + re-truncate + replay, never fsync retry) and
                // roll the append back best-effort so readers of the file
                // see the old boundary immediately. The commit is
                // reported failed; nothing is acknowledged.
                vfs::note_fsync_failure(format!(
                    "WAL commit fsync in {} failed: {e}",
                    self.dir.display()
                ));
                self.rollback();
                self.poisoned = true;
                Err(e.into())
            }
        }
    }

    /// Whether the descriptor is poisoned (next commit will heal first).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Truncate away an un-acknowledged append; poison on failure so a
    /// half-frame can never be extended into a fake commit.
    fn rollback(&mut self) {
        let rolled_back =
            self.file.set_len(self.len).is_ok() && self.file.seek(SeekFrom::End(0)).is_ok();
        if !rolled_back {
            self.poisoned = true;
        }
    }

    /// Recover a poisoned handle: open a fresh descriptor, re-scan, and
    /// truncate any frames past the last *acknowledged* commit — bytes a
    /// failed fsync covered may have reached the disk after all, and a
    /// commit that was reported failed must never surface as durable.
    fn heal(&mut self) -> Result<(), StorageError> {
        let acked_len = self.len;
        let acked_next = self.next_seq;
        *self = Wal::open(&self.dir)?;
        if self.len > acked_len {
            let truncated = (|| -> Result<(), StorageError> {
                self.file.set_len(acked_len)?;
                self.file.seek(SeekFrom::End(0))?;
                self.file.sync_all()?;
                Ok(())
            })();
            if let Err(e) = truncated {
                self.poisoned = true;
                return Err(e);
            }
            self.len = acked_len;
            self.next_seq = acked_next;
        }
        Ok(())
    }

    /// Fold `catalog` into a fresh epoch and move this handle onto the
    /// truncated log. `catalog` must hold every write this handle
    /// acknowledged; the epoch is stamped with [`Wal::last_seq`], so the
    /// log is never read to learn it.
    ///
    /// A poisoned handle heals first, as [`Wal::commit`] does: the heal
    /// truncates the file to the last acknowledged commit, so a commit
    /// reported failed can never be stamped as folded. An `Err` from the heal or the
    /// epoch write leaves the committed epoch and the log as they were.
    /// The epoch's `CURRENT` swap is the commit point: a failed reopen of
    /// the fresh log after it cannot undo the fold, so it poisons the
    /// handle (the next commit heals) and is counted, not returned.
    pub fn checkpoint(&mut self, catalog: &Catalog) -> Result<(), StorageError> {
        if self.poisoned {
            self.heal()?;
        }
        crate::persist::save_epoch(catalog, &self.dir, self.last_seq())?;
        if let Err(e) = self.reopen() {
            vfs::note_io_error(format!(
                "WAL reopen after a checkpoint in {} failed: {e}",
                self.dir.display()
            ));
        }
        Ok(())
    }

    /// Re-open the handle after something else replaced the file on disk
    /// (a checkpoint's `truncate_wal` renames a fresh log over it; this
    /// handle would otherwise keep appending to the unlinked inode). On
    /// failure the handle is poisoned, so the next commit heals through
    /// [`Wal::open`] instead of appending to the replaced file. (The
    /// heal's re-truncation never fires there: a fresh log is a lone
    /// header, no longer than the one it replaced.)
    pub fn reopen(&mut self) -> Result<(), StorageError> {
        match Wal::open(&self.dir) {
            Ok(wal) => {
                *self = wal;
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::{DataType, Value};
    use std::fs;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("conquer_wal_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn table(name: &str, rows: &[i64]) -> Table {
        let mut t = Table::new(
            name,
            Schema::from_pairs([("a", DataType::Int), ("b", DataType::Text)]).unwrap(),
        );
        for r in rows {
            t.insert(vec![Value::Int(*r), Value::Text(format!("r{r}"))])
                .unwrap();
        }
        t
    }

    #[test]
    fn commit_and_scan_roundtrip() {
        let dir = tempdir("roundtrip");
        let mut wal = Wal::open(&dir).unwrap();
        let t = table("t", &[1, 2]);
        let s1 = wal.commit(&[WalOp::Put(&t)]).unwrap();
        let s2 = wal.commit(&[WalOp::Drop("gone"), WalOp::Put(&t)]).unwrap();
        assert_eq!((s1, s2), (1, 2));
        assert_eq!(wal.last_seq(), 2);

        let c = read_wal(&dir).unwrap().unwrap();
        assert_eq!(c.last_seq, 2);
        assert_eq!(c.commits.len(), 2);
        assert!(c.torn.is_none());
        assert_eq!(c.committed_len, wal.size_bytes());
        match &c.commits[0].1[..] {
            [WalRecord::Put(t2)] => {
                assert_eq!(t2.name(), "t");
                assert_eq!(t2.rows(), t.rows());
                assert_eq!(t2.schema(), t.schema());
            }
            other => panic!("unexpected {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_applies_puts_and_drops_above_min_seq() {
        let dir = tempdir("replay");
        let mut wal = Wal::open(&dir).unwrap();
        wal.commit(&[WalOp::Put(&table("t", &[1]))]).unwrap();
        wal.commit(&[WalOp::Put(&table("t", &[1, 2]))]).unwrap();
        wal.commit(&[WalOp::Drop("t"), WalOp::Put(&table("u", &[9]))])
            .unwrap();

        let scan = || read_wal(&dir).unwrap().unwrap();
        let mut cat = Catalog::new();
        let (applied, torn) = replay(scan(), &mut cat, 0);
        assert_eq!((applied, torn), (3, None));
        assert!(!cat.contains("t"));
        assert_eq!(cat.table("u").unwrap().len(), 1);

        // Gated replay skips already-folded commits.
        let mut cat2 = Catalog::new();
        cat2.add_table(table("t", &[1, 2])).unwrap();
        let (applied2, _) = replay(scan(), &mut cat2, 2);
        assert_eq!(applied2, 1);
        assert!(!cat2.contains("t"));
        assert!(cat2.contains("u"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_byte_truncation_recovers_a_committed_prefix() {
        let dir = tempdir("tear");
        let mut wal = Wal::open(&dir).unwrap();
        for i in 0..3i64 {
            wal.commit(&[WalOp::Put(&table("t", &[i]))]).unwrap();
        }
        let full = fs::read(dir.join(WAL_FILE)).unwrap();

        for cut in 0..full.len() {
            fs::write(dir.join(WAL_FILE), &full[..cut]).unwrap();
            let c = read_wal(&dir).unwrap().unwrap();
            // Whatever the cut, the scan yields some prefix of the three
            // commits, each intact, and flags the tail iff bytes remain
            // past the last whole commit.
            for (i, (seq, recs)) in c.commits.iter().enumerate() {
                assert_eq!(*seq, i as u64 + 1);
                match &recs[..] {
                    [WalRecord::Put(t)] => assert_eq!(t.rows()[0][0], Value::Int(i as i64)),
                    other => panic!("unexpected {other:?}"),
                }
            }
            assert!(
                c.committed_len <= cut as u64,
                "committed_len {} beyond the {cut}-byte file",
                c.committed_len
            );
            if (cut as u64) > c.committed_len {
                assert!(c.torn.is_some(), "cut at {cut} left undetected garbage");
            }
            // A writer reopening over the tear truncates it and can keep
            // committing.
            let before = c.commits.len() as u64;
            let mut w = Wal::open(&dir).unwrap();
            w.commit(&[WalOp::Put(&table("t", &[42]))]).unwrap();
            let c2 = read_wal(&dir).unwrap().unwrap();
            assert!(c2.torn.is_none());
            assert_eq!(c2.commits.len() as u64, before + 1);
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bitflip_mid_file_stops_replay_at_the_flip() {
        let dir = tempdir("bitflip");
        let mut wal = Wal::open(&dir).unwrap();
        wal.commit(&[WalOp::Put(&table("t", &[1]))]).unwrap();
        let after_first = fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        wal.commit(&[WalOp::Put(&table("t", &[2]))]).unwrap();

        let mut bytes = fs::read(dir.join(WAL_FILE)).unwrap();
        let victim = after_first as usize + 14; // inside the second commit's put frame
        bytes[victim] ^= 0xff;
        fs::write(dir.join(WAL_FILE), bytes).unwrap();

        let c = read_wal(&dir).unwrap().unwrap();
        assert_eq!(c.commits.len(), 1, "replay must stop at the corruption");
        assert!(c.torn.as_deref().is_some_and(|t| t.contains("checksum")));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_resets_the_log_and_preserves_the_sequence_floor() {
        let dir = tempdir("trunc");
        let mut wal = Wal::open(&dir).unwrap();
        wal.commit(&[WalOp::Put(&table("t", &[1]))]).unwrap();
        wal.commit(&[WalOp::Put(&table("t", &[2]))]).unwrap();
        truncate_wal(&dir, 2).unwrap();

        let c = read_wal(&dir).unwrap().unwrap();
        assert_eq!((c.base_seq, c.last_seq, c.commits.len()), (2, 2, 0));

        wal.reopen().unwrap();
        let seq = wal.commit(&[WalOp::Drop("t")]).unwrap();
        assert_eq!(seq, 3, "sequences must continue past the truncation base");
        fs::remove_dir_all(&dir).ok();
    }

    /// Commit `versions` successive images of `t` (1 row, 2 rows, …) and
    /// return the catalog they leave.
    fn commit_versions(wal: &mut Wal, versions: i64) -> Catalog {
        let mut cat = Catalog::new();
        for v in 1..=versions {
            let t = table("t", &(0..v).collect::<Vec<_>>());
            wal.commit(&[WalOp::Put(&t)]).unwrap();
            cat.replace_table(t);
        }
        cat
    }

    fn assert_same_catalog(got: &Catalog, want: &Catalog) {
        assert_eq!(got.table_names(), want.table_names());
        for name in want.table_names() {
            let (g, w) = (got.table(name).unwrap(), want.table(name).unwrap());
            assert_eq!(g.schema(), w.schema(), "{name}");
            assert_eq!(g.rows(), w.rows(), "{name}");
        }
    }

    /// `dir` holds a fresh epoch stamped `seq` and a lone log header based
    /// at `seq`, and `wal` sits on that log.
    fn assert_checkpointed_at(dir: &Path, wal: &Wal, seq: u64) {
        assert_eq!(crate::persist::current_walseq(dir), seq, "epoch stamp");
        let c = read_wal(dir).unwrap().unwrap();
        assert_eq!(
            (c.base_seq, c.last_seq, c.commits.len(), c.torn),
            (seq, seq, 0, None),
            "wal.log must be a lone header based at the stamp"
        );
        assert_eq!(c.committed_len, wal.size_bytes());
        assert_eq!(wal.last_seq(), seq);
        assert!(!wal.is_poisoned());
    }

    /// Fold, then commit once more: the stamp is the handle's sequence,
    /// the next commit continues right above it, and recovery returns
    /// exactly the folded catalog plus that commit.
    fn checkpoint_then_commit(dir: &Path, wal: &mut Wal, mut folded: Catalog, acked: u64) {
        assert_eq!(wal.last_seq(), acked);
        wal.checkpoint(&folded).unwrap();
        assert_checkpointed_at(dir, wal, acked);
        let u = table("u", &[9]);
        assert_eq!(wal.commit(&[WalOp::Put(&u)]).unwrap(), acked + 1);
        folded.replace_table(u);
        let (cat, report) = crate::persist::load_catalog_recover(dir).unwrap();
        assert_eq!(report.wal_commits_replayed, 1, "{report:?}");
        assert!(report.is_clean(), "{report:?}");
        assert_same_catalog(&cat, &folded);
    }

    #[test]
    fn checkpoint_stamps_the_open_logs_sequence() {
        let dir = tempdir("stamp");
        let mut wal = Wal::open(&dir).unwrap();
        let folded = commit_versions(&mut wal, 6);
        checkpoint_then_commit(&dir, &mut wal, folded, 6);
        fs::remove_dir_all(&dir).ok();
    }

    /// A commit whose fsync failed poisons the handle and was reported
    /// failed: the checkpoint heals first and stamps the last
    /// *acknowledged* sequence, never the failed one.
    #[cfg(feature = "fault")]
    #[test]
    fn checkpoint_of_a_poisoned_log_stamps_the_acknowledged_sequence() {
        let (fs, _guard) = vfs::mount_sim("/sim/wal_stamp_poisoned");
        let dir = PathBuf::from("/sim/wal_stamp_poisoned/db");
        let mut wal = Wal::open(&dir).unwrap();
        let folded = commit_versions(&mut wal, 3);
        fs.fail_sync(WAL_FILE, 1);
        let lost = table("t", &[99]);
        assert!(wal.commit(&[WalOp::Put(&lost)]).is_err());
        assert!(wal.is_poisoned());
        checkpoint_then_commit(&dir, &mut wal, folded, 3);
    }

    /// Opening a log scans it once: the bytes `Wal::open` reads are the
    /// log's plus the committed epoch's `CURRENT` and `walseq`.
    #[cfg(feature = "fault")]
    #[test]
    fn open_reads_the_log_once() {
        use crate::persist::{CURRENT_FILE, WALSEQ_FILE};
        let (fs, _guard) = vfs::mount_sim("/sim/wal_open_once");
        let dir = PathBuf::from("/sim/wal_open_once/db");
        let mut wal = Wal::open(&dir).unwrap();
        let folded = commit_versions(&mut wal, 2);
        wal.checkpoint(&folded).unwrap();
        for v in 0..3 {
            wal.commit(&[WalOp::Put(&table("u", &[v]))]).unwrap();
        }
        drop(wal);
        let epoch = crate::persist::read_current(&dir).unwrap();
        let expected: u64 = [
            dir.join(WAL_FILE),
            dir.join(CURRENT_FILE),
            dir.join(epoch).join(WALSEQ_FILE),
        ]
        .iter()
        .map(|p| vfs::read(p).unwrap().len() as u64)
        .sum();

        let before = fs.read_bytes();
        let wal = Wal::open(&dir).unwrap();
        assert_eq!(fs.read_bytes() - before, expected);
        assert_eq!(wal.last_seq(), 5);
    }

    #[test]
    fn all_value_types_roundtrip_through_put_frames() {
        let dir = tempdir("types");
        let mut t = Table::new(
            "v",
            Schema::from_pairs([
                ("b", DataType::Bool),
                ("i", DataType::Int),
                ("f", DataType::Float),
                ("s", DataType::Text),
                ("d", DataType::Date),
            ])
            .unwrap(),
        );
        t.insert(vec![
            Value::Bool(true),
            Value::Int(-7),
            Value::Float(-0.0),
            Value::Text("héllo\tworld".into()),
            Value::Date("2006-04-03".parse().unwrap()),
        ])
        .unwrap();
        t.insert(vec![
            Value::Null,
            Value::Null,
            Value::Float(f64::NAN),
            Value::Null,
            Value::Null,
        ])
        .unwrap();
        let mut wal = Wal::open(&dir).unwrap();
        wal.commit(&[WalOp::Put(&t)]).unwrap();
        let c = read_wal(&dir).unwrap().unwrap();
        match &c.commits[0].1[..] {
            [WalRecord::Put(t2)] => {
                assert_eq!(t2.schema(), t.schema());
                assert_eq!(t2.rows()[0], t.rows()[0]);
                match (&t2.rows()[1][2], &t.rows()[1][2]) {
                    (Value::Float(a), Value::Float(b)) => {
                        assert_eq!(a.to_bits(), b.to_bits(), "NaN must roundtrip bit-exactly")
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }
}
