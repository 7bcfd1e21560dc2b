//! The write-ahead log: the one durable file of a database directory.
//!
//! `<dir>/wal.log` holds the whole database. It opens with a **base** —
//! one put frame per table, sealed at a sequence S — and continues with
//! the commit groups S+1, S+2, … appended after it. A committed write
//! appends what it changed and fsyncs once ([`Wal::commit`]): the rows a
//! statement edited as edit frames, a table it created or rebuilt as a
//! put frame. A **checkpoint** compacts the log: [`Wal::checkpoint`]
//! writes the catalog as a fresh base sealed at the handle's last
//! acknowledged sequence to a temp file, fsyncs it once, renames it over
//! `wal.log` and fsyncs the directory. The handle keeps the file it just
//! wrote as its log, so a checkpoint reads nothing and costs what it
//! writes, however long the log has grown.
//! [`save_catalog`](crate::save_catalog) writes the same log for a caller
//! with no open handle and scans `wal.log` for the sequence instead.
//!
//! ```text
//! <dir>/
//!   wal.log          # header, base (put frames + seal), commit groups
//!   .wal.tmp-1234    # a checkpoint interrupted before its rename
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
//! * `0` **header** — magic `"conquer-wal v4"` + the `u64 LE` base
//!   sequence S. Always the first frame.
//! * `1` **put** — a complete [table image](crate::image), its properties
//!   included. In the base, one per table; after the seal, the post-write
//!   image of a table a commit created or rebuilt.
//! * `2` **drop** — a table name.
//! * `3` **commit** — the `u64 LE` sequence sealing every put, edit and
//!   drop frame since the previous commit or the seal. A write is durable
//!   iff its commit frame is fully on disk ([`Wal::commit`] fsyncs before
//!   returning).
//! * `4` **seal** — S again: the end of the base.
//! * `5` **edit** — a table name, a `u32 LE` count and that many
//!   [`Edit`]s ([encoded](crate::image) like an image's rows), each
//!   addressed by position in the table as the previous one left it. Only
//!   after the seal, and only for a table an earlier put holds.
//!
//! A fresh or empty database is a header and a seal at 0.
//!
//! ## Recovery
//!
//! Recovery is one frame scan of one file. The scan checksums every frame
//! and decodes none; the catalog is the base with every commit applied
//! in order. For each table only the last put is decoded, and the edit
//! frames after it are replayed exactly once, in order, by the same
//! [`Table::apply`] the writer performed them with. An edit is not
//! idempotent, so it must never be applied twice: the commit frames fix
//! which edits exist, and an edit that passes its checksum but does not
//! apply (a position out of range, a table no earlier put holds) is
//! corruption, never a torn tail. The header and every frame up to the
//! seal must verify: a base is written whole
//! and renamed into place, so a bad one is corruption — a typed
//! [`StorageError::Corrupt`] from both loaders and [`Wal::open`], with
//! nothing truncated or rewritten. After the seal, parsing stops at the
//! first incomplete or checksum-failing frame: that is the torn tail a
//! crash mid-append leaves, and everything before it is still recovered.
//! The torn tail is reported, never a load failure; [`Wal::open`]
//! truncates it (torn bytes *and* op frames missing their commit) before
//! accepting appends, so an interrupted commit can never leak into a
//! later one. Only a file shorter than an empty log — a crash while
//! [`Wal::open`] created it — starts fresh.
//!
//! ## Versions
//!
//! A `conquer-wal v3` log, whose views keep their definitions in a
//! registry table, is read by the same scan and migrated as it is decoded
//! (`migrate_v3_views`); a writer that opens one compacts it into a v4
//! log before anything is appended. Any other version (a v2 or v1 log
//! here, a v4 log in a version older than table properties) is refused as
//! corrupt, naming it, and left as it is. So is a directory in the layout
//! older versions wrote (`CURRENT` and `vNNNNNN/` epoch directories beside
//! a `conquer-wal v1` log), naming the layout.

use std::collections::BTreeMap;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::catalog::Catalog;
use crate::error::{corrupt, StorageError};
use crate::image::{
    decode_edit, decode_table, encode_edit, encode_table, push_str, take_str, take_u32,
};
use crate::persist::{fnv1a64, RecoveryReport};
use crate::spill::{take, take_arr};
use crate::table::{Edit, Table};
use crate::value::Value;
use crate::vfs;

/// Name of the write-ahead log file inside a persistence directory.
pub const WAL_FILE: &str = "wal.log";

/// Magic string opening every log (in the header frame).
const WAL_MAGIC: &[u8] = b"conquer-wal v4";

/// Magic of the format that kept view definitions in a registry table.
const V3_MAGIC: &[u8] = b"conquer-wal v3";

/// Prefix of the temp file a checkpoint stages its log under.
pub(crate) const WAL_TMP_PREFIX: &str = ".wal.tmp-";

/// Upper bound on one frame's payload; a larger length prefix means the
/// file is corrupt (a table image of this size would not fit in memory
/// many times over anyway).
const MAX_PAYLOAD_BYTES: u32 = 1 << 30;

/// Bytes in front of every payload: its length and its checksum.
const FRAME_HEAD: usize = 4 + 8;

const TAG_HEADER: u8 = 0;
const TAG_PUT: u8 = 1;
const TAG_DROP: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_SEAL: u8 = 4;
const TAG_EDIT: u8 = 5;

/// Bytes of the header frame.
const HEADER_LEN: u64 = (FRAME_HEAD + 1 + WAL_MAGIC.len() + 8) as u64;
/// Bytes of an empty log: the header and a seal.
const EMPTY_LOG_LEN: u64 = HEADER_LEN + (FRAME_HEAD + 1 + 8) as u64;

/// One logical operation inside a WAL commit. The operations of one
/// write are what [`Catalog::changes_since`] reads off the catalogs
/// before and after it.
#[derive(Debug)]
pub enum WalOp<'a> {
    /// Replace (or create) a table with this image.
    Put(&'a Table),
    /// Apply these edits, in order, to the named table.
    Edit(&'a str, &'a [Edit]),
    /// Drop the named table (a no-op on replay if it is already gone).
    Drop(&'a str),
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Append one frame whose payload `fill` writes in place.
fn push_frame(buf: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    buf.extend_from_slice(&[0; FRAME_HEAD]);
    fill(buf);
    let payload = &buf[start + FRAME_HEAD..];
    let (len, sum) = (payload.len() as u32, fnv1a64(payload));
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    buf[start + 4..start + FRAME_HEAD].copy_from_slice(&sum.to_le_bytes());
}

/// A header (`magic` = [`WAL_MAGIC`]), seal or commit frame.
fn push_seq_frame(buf: &mut Vec<u8>, tag: u8, magic: &[u8], seq: u64) {
    push_frame(buf, |p| {
        p.push(tag);
        p.extend_from_slice(magic);
        p.extend_from_slice(&seq.to_le_bytes());
    });
}

/// A whole log holding `catalog` as its base, sealed at `seq`.
pub(crate) fn base_log(catalog: &Catalog, seq: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    push_seq_frame(&mut buf, TAG_HEADER, WAL_MAGIC, seq);
    for table in catalog.tables() {
        push_frame(&mut buf, |p| {
            p.push(TAG_PUT);
            encode_table(table, p);
        });
    }
    push_seq_frame(&mut buf, TAG_SEAL, &[], seq);
    buf
}

// ---------------------------------------------------------------------------
// The scan
// ---------------------------------------------------------------------------

fn take_u64(buf: &[u8], pos: &mut usize, path: &Path) -> Result<u64, StorageError> {
    Ok(u64::from_le_bytes(take_arr(buf, pos, path)?))
}

/// Check the frame starting at `*pos` and return its payload's range.
/// `Ok(None)` means a clean end-of-file; a torn or corrupt frame is an
/// `Err` (the *caller* decides whether that ends a tail or fails a base).
fn next_frame(
    buf: &[u8],
    pos: &mut usize,
    path: &Path,
) -> Result<Option<Range<usize>>, StorageError> {
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
    let start = *pos;
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
    Ok(Some(start..*pos))
}

/// The sequence a header (after its magic), seal or commit payload carries.
fn seq_of(payload: &[u8], magic: &[u8], path: &Path) -> Result<u64, StorageError> {
    let mut p = 1 + magic.len();
    let seq = take_u64(payload, &mut p, path)?;
    if p != payload.len() {
        return Err(corrupt(path, "a sequence frame has trailing bytes".into()));
    }
    Ok(seq)
}

/// What one frame scan of `wal.log` found. Every frame up to the end of
/// the committed log is checksummed; no table image is decoded.
#[derive(Debug)]
pub(crate) struct Scan {
    path: PathBuf,
    buf: Vec<u8>,
    /// The sequence the base is sealed at.
    pub base_seq: u64,
    /// Payload ranges of the base's put frames.
    base: Vec<Range<usize>>,
    /// Bytes of the base and its seal.
    base_len: u64,
    /// Committed groups after the seal: each commit's sequence and the
    /// payload ranges of its put and drop frames.
    pub commits: Vec<(u64, Vec<Range<usize>>)>,
    /// The last committed sequence (`base_seq` when no commit follows).
    pub last_seq: u64,
    /// Offset just past the last committed frame: what a writer truncates
    /// to before appending (0 for a log to start afresh).
    committed_len: u64,
    /// The torn or uncommitted tail, when one exists.
    pub torn: Option<String>,
    /// A v3 header: the catalog is migrated, and a writer compacts the log.
    v3: bool,
}

/// Refuse a directory in the layout older versions wrote, before
/// anything in it is read or changed.
fn refuse_old_layout(dir: &Path) -> Result<(), StorageError> {
    for entry in vfs::dir_entries(dir)? {
        let epoch = entry.is_dir
            && entry
                .name
                .strip_prefix('v')
                .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()));
        if epoch || (!entry.is_dir && entry.name == "CURRENT") {
            return Err(corrupt(
                &dir.join(&entry.name),
                "the epoch-directory layout (CURRENT + vNNNNNN/) of an older version; \
                 this version reads only a single wal.log and leaves the directory as it is"
                    .into(),
            ));
        }
    }
    Ok(())
}

/// Scan `<dir>/wal.log`. `Ok(None)` when the file does not exist; a torn
/// tail ends the scan with everything before it intact and `torn`
/// describing what was dropped; a bad header or base is `Corrupt`.
pub(crate) fn scan(dir: &Path) -> Result<Option<Scan>, StorageError> {
    refuse_old_layout(dir)?;
    let path = dir.join(WAL_FILE);
    let buf = match vfs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    parse(path, buf).map(Some)
}

/// Scan the log bytes `buf`, read from `path`.
fn parse(path: PathBuf, buf: Vec<u8>) -> Result<Scan, StorageError> {
    let mut pos = 0;
    let header = next_frame(&buf, &mut pos, &path)
        .ok()
        .flatten()
        .filter(|r| buf[r.start] == TAG_HEADER && r.len() >= 9);
    // The magic sits between the tag and the sequence.
    let magic = header.clone().map(|r| &buf[r.start + 1..r.end - 8]);
    let known = magic.filter(|m| [WAL_MAGIC, V3_MAGIC].contains(m));
    if let Some(other) = magic.filter(|m| known.is_none() && m.starts_with(b"conquer-wal v")) {
        let detail = format!(
            "a {} log, of another version; this version reads only conquer-wal v3 and v4 \
             and leaves it as it is",
            String::from_utf8_lossy(other)
        );
        return Err(corrupt(&path, detail));
    }
    let mut scan = Scan {
        path,
        buf: Vec::new(),
        base_seq: 0,
        base: Vec::new(),
        base_len: 0,
        commits: Vec::new(),
        last_seq: 0,
        committed_len: 0,
        torn: None,
        v3: false,
    };
    if (buf.len() as u64) < EMPTY_LOG_LEN {
        // Too short to hold a seal, so nothing was ever acknowledged here.
        scan.torn = Some("write-ahead log is shorter than an empty one".into());
        return Ok(scan);
    }
    let (Some(header), Some(magic)) = (header, known) else {
        return Err(corrupt(
            &scan.path,
            "write-ahead log header is missing or corrupt".into(),
        ));
    };
    scan.v3 = magic == V3_MAGIC;
    scan.base_seq = seq_of(&buf[header], magic, &scan.path)?;

    // The base: put frames up to a seal carrying the header's sequence.
    loop {
        let at = pos;
        let frame = next_frame(&buf, &mut pos, &scan.path)?
            .ok_or_else(|| corrupt(&scan.path, "the base ends before its seal".into()))?;
        match buf[frame.start] {
            TAG_PUT => scan.base.push(frame),
            TAG_SEAL if seq_of(&buf[frame.clone()], &[], &scan.path)? == scan.base_seq => break,
            tag => {
                return Err(corrupt(
                    &scan.path,
                    format!("frame at offset {at} (tag {tag}) does not belong in the base"),
                ))
            }
        }
    }
    scan.base_len = pos as u64 - HEADER_LEN;
    scan.last_seq = scan.base_seq;
    scan.committed_len = pos as u64;

    // Commit groups until EOF or the first tear.
    let mut pending = Vec::new();
    loop {
        let at = pos;
        let frame = match next_frame(&buf, &mut pos, &scan.path) {
            Ok(None) => break,
            Ok(Some(frame)) => frame,
            Err(e) => {
                scan.torn = Some(format!("torn tail: {e}"));
                break;
            }
        };
        let payload = &buf[frame.clone()];
        match payload[0] {
            TAG_PUT | TAG_DROP | TAG_EDIT => match take_str(payload, &mut 1, &scan.path) {
                Ok(_) => pending.push(frame),
                Err(e) => {
                    scan.torn = Some(format!("torn tail: {e}"));
                    break;
                }
            },
            TAG_COMMIT => {
                let seq = seq_of(payload, &[], &scan.path)?;
                if seq <= scan.last_seq {
                    scan.torn = Some(format!(
                        "commit sequence went backwards at offset {at} ({seq} after {})",
                        scan.last_seq
                    ));
                    break;
                }
                scan.last_seq = seq;
                scan.commits.push((seq, std::mem::take(&mut pending)));
                scan.committed_len = pos as u64;
            }
            tag => {
                scan.torn = Some(format!("unexpected frame tag {tag} at offset {at}"));
                break;
            }
        }
    }
    if scan.torn.is_none() && !pending.is_empty() {
        scan.torn = Some(format!(
            "interrupted commit: {} operation frame(s) with no commit marker",
            pending.len()
        ));
    }
    scan.buf = buf;
    Ok(scan)
}

impl Scan {
    /// Number of tables in the base.
    pub(crate) fn base_tables(&self) -> usize {
        self.base.len()
    }

    /// The catalog the log holds: the base with every commit applied in
    /// order. For each table only the last put is decoded, and then the
    /// edits after it are applied in commit order. An edit that does not
    /// apply is [`StorageError::Corrupt`]. A v3 log's catalog is migrated
    /// ([`migrate_v3_views`]).
    pub(crate) fn catalog(&self) -> Result<Catalog, StorageError> {
        let corrupt_edit = |name: &str, what: String| {
            corrupt(
                &self.path,
                format!("an edit frame of table {name:?} {what}"),
            )
        };
        // Per table: its last put's image and the edit payloads after it
        // (`None` once dropped).
        type Replay<'b> = Option<(&'b [u8], Vec<&'b [u8]>)>;
        let mut last: BTreeMap<String, Replay<'_>> = BTreeMap::new();
        for frame in self
            .base
            .iter()
            .chain(self.commits.iter().flat_map(|(_, ops)| ops))
        {
            let payload = &self.buf[frame.clone()];
            let mut pos = 1;
            let name = take_str(payload, &mut pos, &self.path)?;
            match payload[0] {
                TAG_PUT => {
                    last.insert(name, Some((&payload[1..], Vec::new())));
                }
                TAG_EDIT => match last.get_mut(&name) {
                    Some(Some((_, edits))) => edits.push(&payload[pos..]),
                    _ => return Err(corrupt_edit(&name, "follows no put of the table".into())),
                },
                _ => {
                    last.insert(name.to_ascii_lowercase(), None);
                }
            }
        }
        let mut catalog = Catalog::new();
        for (name, (image, edits)) in last.into_iter().filter_map(|(n, t)| Some((n, t?))) {
            let mut table = decode_table(image, &self.path)?;
            for payload in edits {
                let mut pos = 0;
                for _ in 0..take_u32(payload, &mut pos, &self.path)? {
                    let mut edit = decode_edit(payload, &mut pos, &self.path)?;
                    table
                        .apply(&mut edit)
                        .map_err(|e| corrupt_edit(&name, format!("does not apply: {e}")))?;
                }
                if pos != payload.len() {
                    return Err(corrupt_edit(&name, "has trailing bytes".into()));
                }
            }
            catalog.replace_table(table);
        }
        if self.v3 {
            migrate_v3_views(&mut catalog, &self.path)?;
        }
        Ok(catalog)
    }
}

/// The one reader of the v3 view registry. A `conquer-wal v3` log keeps
/// each materialized view's definition as a `(name, sql, deltas_applied,
/// refreshes)` row of the hidden table `__conquer_views`; this makes each
/// `sql` the `view` property of the view's state table
/// `__conquer_view_state_<name>` and drops the registry, counters and all.
fn migrate_v3_views(catalog: &mut Catalog, path: &Path) -> Result<(), StorageError> {
    let Ok(registry) = catalog.table("__conquer_views") else {
        return Ok(());
    };
    let bad = |what: String| corrupt(path, format!("the v3 view registry {what}"));
    let mut definitions = Vec::new();
    for row in registry.shared_rows() {
        let [Value::Text(name), Value::Text(sql), ..] = &row[..] else {
            return Err(bad("has a row without (name, sql)".into()));
        };
        definitions.push((format!("__conquer_view_state_{name}"), sql.clone()));
    }
    catalog.drop_table("__conquer_views")?;
    for (state, sql) in definitions {
        let missing = |_| bad(format!("names no table {state:?}"));
        let table = catalog.table_mut(&state).map_err(missing)?;
        table.set_property("view", sql)?;
    }
    Ok(())
}

/// The last committed sequence in `<dir>/wal.log` (0 without a log): what
/// a standalone [`save_catalog`](crate::save_catalog) seals its base at.
/// It scans the log and decodes nothing; an open [`Wal`] holds the same
/// number as [`Wal::last_seq`].
pub(crate) fn durable_seq(dir: &Path) -> Result<u64, StorageError> {
    Ok(scan(dir)?.map_or(0, |s| s.last_seq))
}

/// Make `bytes` the whole of `<dir>/wal.log`: stage them in a temp file,
/// fsync it once, rename it over the log and fsync the directory. Returns
/// the staged file, which now is the log, positioned at its end. A
/// failure before the rename removes the temp file and leaves the log as
/// it was; after a failed directory fsync the log is the old or the new
/// one.
pub(crate) fn replace_log(dir: &Path, bytes: &[u8]) -> Result<vfs::File, StorageError> {
    // Writes, fsyncs and renames: only blocking-tolerant locks (the
    // engine's writer lock) may be held across this.
    let _io = conquer_sync::blocking_region("wal::replace_log");
    let tmp = dir.join(format!("{WAL_TMP_PREFIX}{}", std::process::id()));
    let staged = (|| -> Result<vfs::File, StorageError> {
        let mut file = vfs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        vfs::rename(&tmp, &dir.join(WAL_FILE))?;
        Ok(file)
    })();
    let file = staged.inspect_err(|_| match vfs::remove_file(&tmp) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => {
            let dir = dir.display();
            vfs::note_io_error(format!("removing the staged log in {dir} failed: {e}"));
        }
        _ => {}
    })?;
    vfs::sync_dir(dir)?;
    Ok(file)
}

/// Names of stale `.wal.tmp-*` files directly under `dir` (left by a
/// checkpoint interrupted between staging and rename).
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
    /// Bytes of acknowledged log (= current file length).
    len: u64,
    /// Bytes of the base and its seal, which [`Wal::size_bytes`] leaves out.
    base_len: u64,
    /// Set when this descriptor can no longer be trusted: a commit fsync
    /// failed (fsyncgate: after a failed fsync the kernel may have
    /// dropped the dirty flags, so retrying fsync can report success
    /// without durability), a failed append could not be rolled back, or
    /// a checkpoint failed, maybe after renaming its log over this one.
    /// The next commit heals ([`Wal::heal`]), never by fsync retry.
    poisoned: bool,
}

impl Wal {
    /// Open (creating if necessary) the log in `dir`, truncating any
    /// torn or uncommitted tail so new appends start at a clean commit
    /// boundary, and compacting a v3 log into a v4 one. A log whose header
    /// or base fails to verify, a log of another version, or a directory
    /// in an older layout, is [`StorageError::Corrupt`] and is left as it
    /// is.
    pub fn open(dir: &Path) -> Result<Wal, StorageError> {
        let _io = conquer_sync::blocking_region("wal::open");
        vfs::create_dir_all(dir)?;
        let scan = scan(dir)?;
        Wal::from_scan(dir, scan.as_ref(), None)
    }

    /// Recover `dir` and open its log, reading and decoding `wal.log` once:
    /// the catalog and report
    /// [`load_catalog_recover`](crate::load_catalog_recover) returns, and
    /// the handle [`Wal::open`] returns.
    pub fn recover(dir: &Path) -> Result<(Wal, Catalog, RecoveryReport), StorageError> {
        let _io = conquer_sync::blocking_region("wal::open");
        vfs::create_dir_all(dir)?;
        let scan = scan(dir)?;
        let (catalog, report) = crate::persist::recover(dir, scan.as_ref())?;
        let wal = Wal::from_scan(dir, scan.as_ref(), Some(&catalog))?;
        Ok((wal, catalog, report))
    }

    /// The handle over the log `scan` read; `catalog`, when given, is the
    /// scan's catalog already decoded.
    fn from_scan(
        dir: &Path,
        scan: Option<&Scan>,
        catalog: Option<&Catalog>,
    ) -> Result<Wal, StorageError> {
        let mut file = vfs::File::open_rw(&dir.join(WAL_FILE))?;
        let (seq, len, base_len) = match scan {
            Some(s) if s.committed_len > 0 => {
                // Drop a torn tail, and make durable everything this scan
                // recovered before anything builds on it.
                if s.committed_len < s.buf.len() as u64 {
                    file.set_len(s.committed_len)?;
                }
                file.sync_all()?;
                (s.last_seq, s.committed_len, s.base_len)
            }
            // Missing, or shorter than an empty log: start an empty one.
            _ => {
                let log = base_log(&Catalog::new(), 0);
                file.set_len(0)?;
                file.write_all(&log)?;
                file.sync_all()?;
                // The log's own directory entry must be durable too, or a
                // crash could lose the whole (fsynced) file and with it
                // every commit it ever acknowledges.
                vfs::sync_dir(dir)?;
                (0, EMPTY_LOG_LEN, EMPTY_LOG_LEN - HEADER_LEN)
            }
        };
        file.seek(SeekFrom::End(0))?;
        let mut wal = Wal {
            dir: dir.to_path_buf(),
            file,
            next_seq: seq + 1,
            len,
            base_len,
            poisoned: false,
        };
        if let Some(s) = scan.filter(|s| s.v3) {
            // Nothing is appended to a v3 log: its migrated catalog becomes
            // a v4 base, sealed at its last commit.
            match catalog {
                Some(catalog) => wal.checkpoint(catalog)?,
                None => wal.checkpoint(&s.catalog()?)?,
            };
        }
        Ok(wal)
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes the log holds past its base, plus its header: what a
    /// checkpoint folds (checkpoint policies watch this).
    pub fn size_bytes(&self) -> u64 {
        self.len - self.base_len
    }

    /// The sequence of the most recent commit (the base's sequence when
    /// nothing was committed after it).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Durably append one atomic group of operations. On `Ok(seq)` the
    /// group is fsynced and will be replayed by any future load; on `Err`
    /// the log is unchanged (the partial append is truncated away).
    pub fn commit(&mut self, ops: &[WalOp<'_>]) -> Result<u64, StorageError> {
        if self.poisoned {
            // fsyncgate rule: a poisoned descriptor is never fsynced
            // again. Heal onto a fresh file first.
            self.heal()?;
        }
        let seq = self.next_seq;
        let mut buf = Vec::new();
        for op in ops {
            match op {
                WalOp::Put(table) => push_frame(&mut buf, |p| {
                    p.push(TAG_PUT);
                    encode_table(table, p);
                }),
                WalOp::Edit(name, edits) => push_frame(&mut buf, |p| {
                    p.push(TAG_EDIT);
                    push_str(p, name);
                    p.extend_from_slice(&(edits.len() as u32).to_le_bytes());
                    for edit in *edits {
                        encode_edit(edit, p);
                    }
                }),
                WalOp::Drop(name) => push_frame(&mut buf, |p| {
                    p.push(TAG_DROP);
                    push_str(p, name);
                }),
            }
        }
        push_seq_frame(&mut buf, TAG_COMMIT, &[], seq);

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
                // durability again: poison it (the next commit heals,
                // never by fsync retry) and roll the append back
                // best-effort so readers of the file see the old boundary
                // immediately. The commit is reported failed; nothing is
                // acknowledged.
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

    /// Move the handle onto a fresh copy of the log it acknowledged: read
    /// the acknowledged bytes back through this descriptor and make them
    /// the whole log the way a checkpoint does. Bytes a failed fsync
    /// covered never reach the copy, so a commit that was reported failed
    /// can never surface as durable; and the copy replaces whatever a
    /// failed checkpoint may have renamed over this descriptor's file.
    /// On `Err` the handle stays poisoned.
    pub fn heal(&mut self) -> Result<(), StorageError> {
        let mut acked = vec![0; self.len as usize];
        let read = self
            .file
            .seek(SeekFrom::Start(0))
            .and_then(|_| self.file.read_exact(&mut acked));
        if let Err(e) = read {
            self.poisoned = true;
            return Err(e.into());
        }
        self.install(&acked, self.base_len)
    }

    /// Fold `catalog` into a compacted log and move this handle onto it.
    /// `catalog` must hold exactly the writes this handle acknowledged:
    /// the base is sealed at [`Wal::last_seq`], so the log is never read
    /// to learn it. A poisoned handle needs no heal first — the fresh log
    /// replaces the file a failed fsync left in doubt.
    ///
    /// On `Err` the log on disk is the old one or the new one, and the
    /// handle is poisoned: it keeps its old descriptor, and the next
    /// commit heals from it.
    pub fn checkpoint(&mut self, catalog: &Catalog) -> Result<(), StorageError> {
        let log = base_log(catalog, self.last_seq());
        self.install(&log, log.len() as u64 - HEADER_LEN)
    }

    /// Make `log` (whose base and seal take `base_len` bytes) the whole
    /// log and this handle's file.
    fn install(&mut self, log: &[u8], base_len: u64) -> Result<(), StorageError> {
        match replace_log(&self.dir, log) {
            Ok(file) => {
                self.file = file;
                self.len = log.len() as u64;
                self.base_len = base_len;
                self.poisoned = false;
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

    fn scanned(dir: &Path) -> Scan {
        scan(dir).unwrap().unwrap()
    }

    /// The tables one commit of `scan` puts, decoded.
    fn puts_of(scan: &Scan, commit: usize) -> Vec<Table> {
        scan.commits[commit]
            .1
            .iter()
            .filter(|r| scan.buf[r.start] == TAG_PUT)
            .map(|r| decode_table(&scan.buf[r.start + 1..r.end], &scan.path).unwrap())
            .collect()
    }

    #[test]
    fn commit_and_scan_roundtrip() {
        let dir = tempdir("roundtrip");
        let mut wal = Wal::open(&dir).unwrap();
        assert_eq!(
            fs::read(dir.join(WAL_FILE)).unwrap().len() as u64,
            EMPTY_LOG_LEN
        );
        assert_eq!(
            wal.size_bytes(),
            HEADER_LEN,
            "an empty log folds only its header"
        );
        let t = table("t", &[1, 2]);
        let s1 = wal.commit(&[WalOp::Put(&t)]).unwrap();
        let s2 = wal.commit(&[WalOp::Drop("gone"), WalOp::Put(&t)]).unwrap();
        assert_eq!((s1, s2), (1, 2));
        assert_eq!(wal.last_seq(), 2);

        let c = scanned(&dir);
        assert_eq!((c.base_seq, c.last_seq, c.base_tables()), (0, 2, 0));
        assert_eq!(c.commits.len(), 2);
        assert!(c.torn.is_none());
        assert_eq!(c.committed_len - c.base_len, wal.size_bytes());
        match &puts_of(&c, 0)[..] {
            [t2] => {
                assert_eq!(t2.name(), "t");
                assert_eq!(t2.rows(), t.rows());
                assert_eq!(t2.schema(), t.schema());
            }
            other => panic!("unexpected {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_catalog_applies_puts_and_drops_in_commit_order() {
        let dir = tempdir("replay");
        let mut wal = Wal::open(&dir).unwrap();
        wal.commit(&[WalOp::Put(&table("t", &[1]))]).unwrap();
        wal.commit(&[WalOp::Put(&table("t", &[1, 2]))]).unwrap();
        wal.commit(&[WalOp::Drop("t"), WalOp::Put(&table("u", &[9]))])
            .unwrap();
        wal.commit(&[WalOp::Put(&table("w", &[3]))]).unwrap();
        let cat = scanned(&dir).catalog().unwrap();
        assert_eq!(cat.table_names(), vec!["u", "w"]);
        assert_eq!(cat.table("u").unwrap().len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    /// A put another put supersedes is never decoded: an image that
    /// passes its checksum but does not parse loads fine once a later
    /// commit replaces the table.
    #[test]
    fn only_the_last_put_of_a_table_is_decoded() {
        let dir = tempdir("decode_once");
        drop(Wal::open(&dir).unwrap());
        let mut log = fs::read(dir.join(WAL_FILE)).unwrap();
        push_frame(&mut log, |p| {
            p.push(TAG_PUT);
            push_str(p, "t");
            p.extend_from_slice(b"not a table image");
        });
        push_seq_frame(&mut log, TAG_COMMIT, &[], 1);
        fs::write(dir.join(WAL_FILE), &log).unwrap();
        let err = scanned(&dir).catalog().unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err:?}");

        let mut wal = Wal::open(&dir).unwrap();
        wal.commit(&[WalOp::Put(&table("t", &[5]))]).unwrap();
        let cat = scanned(&dir).catalog().unwrap();
        assert_eq!(cat.table("t").unwrap().len(), 1);
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
            let c = scanned(&dir);
            // Whatever the cut, the scan yields some prefix of the three
            // commits, each intact, and flags the tail iff bytes remain
            // past the last whole commit.
            for (i, (seq, _)) in c.commits.iter().enumerate() {
                assert_eq!(*seq, i as u64 + 1);
                match &puts_of(&c, i)[..] {
                    [t] => assert_eq!(t.rows()[0][0], Value::Int(i as i64)),
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
            let c2 = scanned(&dir);
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

        let c = scanned(&dir);
        assert_eq!(c.commits.len(), 1, "replay must stop at the corruption");
        assert!(c.torn.as_deref().is_some_and(|t| t.contains("checksum")));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_save_resets_the_log_and_preserves_the_sequence_floor() {
        let dir = tempdir("trunc");
        let mut wal = Wal::open(&dir).unwrap();
        wal.commit(&[WalOp::Put(&table("t", &[1]))]).unwrap();
        wal.commit(&[WalOp::Put(&table("t", &[2]))]).unwrap();
        drop(wal);
        let folded = scanned(&dir).catalog().unwrap();
        crate::persist::save_catalog(&folded, &dir).unwrap();

        let c = scanned(&dir);
        assert_eq!((c.base_seq, c.last_seq, c.commits.len()), (2, 2, 0));

        let mut wal = Wal::open(&dir).unwrap();
        let seq = wal.commit(&[WalOp::Drop("t")]).unwrap();
        assert_eq!(seq, 3, "sequences must continue past the base");
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

    /// `dir` holds a base sealed at `seq` and nothing after it, and `wal`
    /// sits on that log.
    fn assert_checkpointed_at(dir: &Path, wal: &Wal, seq: u64) {
        let c = scanned(dir);
        assert_eq!(
            (c.base_seq, c.last_seq, c.commits.len(), c.torn.clone()),
            (seq, seq, 0, None),
            "wal.log must be a lone base sealed at the stamp"
        );
        assert_eq!(c.committed_len, c.buf.len() as u64);
        assert_eq!(wal.size_bytes(), HEADER_LEN);
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
        assert_eq!(report.base_seq, Some(acked), "{report:?}");
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
    /// failed: the checkpoint stamps the last *acknowledged* sequence,
    /// never the failed one.
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

    /// Opening a log reads it once and nothing else, however many commits
    /// and tables it holds.
    #[cfg(feature = "fault")]
    #[test]
    fn open_reads_the_log_once() {
        let (fs, _guard) = vfs::mount_sim("/sim/wal_open_once");
        let dir = PathBuf::from("/sim/wal_open_once/db");
        let mut wal = Wal::open(&dir).unwrap();
        let mut folded = commit_versions(&mut wal, 2);
        folded.replace_table(table("w", &[7, 8]));
        wal.checkpoint(&folded).unwrap();
        for v in 0..3 {
            wal.commit(&[WalOp::Put(&table("u", &[v]))]).unwrap();
        }
        drop(wal);
        let log = vfs::read(&dir.join(WAL_FILE)).unwrap().len() as u64;

        let before = fs.read_bytes();
        let wal = Wal::open(&dir).unwrap();
        assert_eq!(fs.read_bytes() - before, log);
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
        match &puts_of(&scanned(&dir), 0)[..] {
            [t2] => {
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

    /// An edit appending `rows` to a table of `len` rows.
    fn appended(len: usize, rows: &[i64]) -> Edit {
        let row = |r: &i64| vec![Value::Int(*r), Value::Text(format!("r{r}"))];
        Edit {
            inserted: rows.iter().map(|r| (len, row(r).into())).collect(),
            ..Edit::default()
        }
    }

    fn a_column(cat: &Catalog, name: &str) -> Vec<i64> {
        let rows = cat.table(name).unwrap().rows();
        rows.iter().map(|r| r[0].as_i64().unwrap()).collect()
    }

    #[test]
    fn edit_frames_replay_on_the_last_put_in_commit_order() {
        let dir = tempdir("edits");
        let mut wal = Wal::open(&dir).unwrap();
        wal.commit(&[WalOp::Put(&table("t", &[1, 2, 3]))]).unwrap();
        let remove_first = Edit {
            changed: vec![(0, None)],
            ..Edit::default()
        };
        let edits = [appended(3, &[4]), remove_first];
        wal.commit(&[WalOp::Edit("t", &edits), WalOp::Put(&table("u", &[7]))])
            .unwrap();
        wal.commit(&[WalOp::Edit("t", &[appended(3, &[5, 6])])])
            .unwrap();
        let (cat, report) = crate::persist::load_catalog_recover(&dir).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(a_column(&cat, "t"), [2, 3, 4, 5, 6]);
        assert_eq!(a_column(&cat, "u"), [7]);
        // A put supersedes the edits before it; edits after it apply to it.
        wal.commit(&[WalOp::Put(&table("t", &[9]))]).unwrap();
        wal.commit(&[WalOp::Edit("t", &[appended(1, &[10])])])
            .unwrap();
        let cat = scanned(&dir).catalog().unwrap();
        assert_eq!(a_column(&cat, "t"), [9, 10]);
        // A checkpoint folds the edits into the base.
        wal.checkpoint(&cat).unwrap();
        assert_eq!(a_column(&scanned(&dir).catalog().unwrap(), "t"), [9, 10]);
        fs::remove_dir_all(&dir).ok();
    }

    /// An edit frame that passes its checksum but does not apply is
    /// corruption from both loaders and the scrub, never a torn tail
    /// that a writer would truncate away.
    #[test]
    fn an_edit_that_does_not_apply_is_corrupt_not_torn() {
        let out_of_range = Edit {
            changed: vec![(5, None)],
            ..Edit::default()
        };
        let cases: [(&str, &[WalOp<'_>]); 3] = [
            (
                "out of range",
                &[WalOp::Edit("t", std::slice::from_ref(&out_of_range))],
            ),
            ("no put", &[WalOp::Edit("ghost", &[])]),
            ("dropped", &[WalOp::Drop("t"), WalOp::Edit("t", &[])]),
        ];
        for (what, ops) in cases {
            let dir = tempdir("bad_edit");
            let mut wal = Wal::open(&dir).unwrap();
            wal.commit(&[WalOp::Put(&table("t", &[1, 2]))]).unwrap();
            wal.commit(ops).unwrap();
            drop(wal);
            let log = fs::read(dir.join(WAL_FILE)).unwrap();
            let corrupt = |r: Result<Catalog, StorageError>| {
                let err = r.unwrap_err();
                let StorageError::Corrupt { detail, .. } = &err else {
                    panic!("{what}: {err:?}")
                };
                assert!(detail.contains("edit frame"), "{what}: {detail}");
            };
            corrupt(crate::persist::load_catalog(&dir));
            corrupt(crate::persist::load_catalog_recover(&dir).map(|(c, _)| c));
            corrupt(Wal::recover(&dir).map(|(_, c, _)| c));
            let report = crate::scrub(&dir).unwrap();
            assert_eq!(report.wal_corrupt_frames, 1, "{what}: {report:?}");
            assert!(scanned(&dir).torn.is_none(), "{what}");
            // Opening the log for appends truncates nothing.
            drop(Wal::open(&dir).unwrap());
            assert_eq!(fs::read(dir.join(WAL_FILE)).unwrap(), log, "{what}");
            fs::remove_dir_all(&dir).ok();
        }
    }

    /// A log in the v3 format, whose views kept their definitions in the
    /// `__conquer_views` registry, loads with each definition moved onto
    /// its view's state table and the registry gone. Loading rewrites
    /// nothing; opening it for appends compacts it into a v4 log first,
    /// sealed at its last commit.
    #[test]
    fn a_v3_log_loads_migrated_and_opening_it_compacts_it_to_v4() {
        let dir = tempdir("v3");
        fs::create_dir_all(&dir).unwrap();
        let sql = "SELECT a, SUM(x) AS p FROM t GROUP BY a";
        let text = DataType::Text;
        let schema = [
            ("name", text),
            ("sql", text),
            ("deltas_applied", DataType::Int),
        ];
        let mut registry = Table::new("__conquer_views", Schema::from_pairs(schema).unwrap());
        registry
            .insert(vec![Value::text("v"), Value::text(sql), Value::Int(3)])
            .unwrap();
        let mut log = Vec::new();
        push_seq_frame(&mut log, TAG_HEADER, V3_MAGIC, 4);
        for t in [
            table("t", &[1]),
            table("__conquer_view_state_v", &[1]),
            registry,
        ] {
            push_frame(&mut log, |p| {
                p.push(TAG_PUT);
                encode_table(&t, p);
            });
        }
        push_seq_frame(&mut log, TAG_SEAL, &[], 4);
        push_frame(&mut log, |p| {
            p.push(TAG_PUT);
            encode_table(&table("t", &[1, 2]), p);
        });
        push_seq_frame(&mut log, TAG_COMMIT, &[], 5);
        fs::write(dir.join(WAL_FILE), &log).unwrap();

        let migrated = |cat: &Catalog| {
            assert_eq!(cat.table_names(), ["__conquer_view_state_v", "t"]);
            let state = cat.table("__conquer_view_state_v").unwrap();
            assert_eq!(state.property("view"), Some(sql));
            assert_eq!(a_column(cat, "t"), [1, 2]);
        };
        migrated(&crate::persist::load_catalog(&dir).unwrap());
        assert_eq!(
            fs::read(dir.join(WAL_FILE)).unwrap(),
            log,
            "loading rewrites nothing"
        );

        let (mut wal, recovered, report) = Wal::recover(&dir).unwrap();
        assert!(report.is_clean(), "{report:?}");
        migrated(&recovered);
        let c = scanned(&dir);
        assert!(!c.v3);
        assert_eq!((c.base_seq, c.last_seq, c.base_tables()), (5, 5, 2));
        assert_eq!(&c.buf[FRAME_HEAD + 1..][..WAL_MAGIC.len()], WAL_MAGIC);
        migrated(&c.catalog().unwrap());

        let seq = wal
            .commit(&[WalOp::Edit("t", &[appended(2, &[3])])])
            .unwrap();
        assert_eq!(seq, 6);
        assert_eq!(a_column(&scanned(&dir).catalog().unwrap(), "t"), [1, 2, 3]);
        fs::remove_dir_all(&dir).ok();
    }

    /// A log of a format this version does not know is refused as corrupt,
    /// naming its version, and left as it is: what a version older than
    /// table properties does with a v4 log.
    #[test]
    fn a_log_of_a_later_format_is_refused_and_left_as_it_is() {
        let dir = tempdir("later");
        fs::create_dir_all(&dir).unwrap();
        let mut log = Vec::new();
        push_seq_frame(&mut log, TAG_HEADER, b"conquer-wal v5", 0);
        push_seq_frame(&mut log, TAG_SEAL, &[], 0);
        fs::write(dir.join(WAL_FILE), &log).unwrap();
        for err in [
            crate::persist::load_catalog(&dir).unwrap_err(),
            Wal::open(&dir).unwrap_err(),
        ] {
            let StorageError::Corrupt { detail, .. } = &err else {
                panic!("{err:?}")
            };
            assert!(detail.contains("conquer-wal v5"), "{detail}");
        }
        assert_eq!(fs::read(dir.join(WAL_FILE)).unwrap(), log);
        fs::remove_dir_all(&dir).ok();
    }
}
