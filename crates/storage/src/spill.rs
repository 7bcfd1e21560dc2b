//! Crash-safe temporary spill files for external-memory query execution.
//!
//! When an operator's working set would exceed its memory budget, the
//! engine partitions state out to disk and streams it back later (grace
//! hash join, partitioned re-aggregation, external merge sort). This
//! module owns the on-disk side of that: per-query spill directories,
//! checksummed row runs, and the garbage collection of anything a killed
//! process leaves behind.
//!
//! Layout: each executing query lazily creates one [`SpillSession`] — a
//! directory named `.spill-<pid>-<nonce>` under a base directory (the
//! database's persistence directory when it has one, the OS temp directory
//! otherwise). All of the query's run files live inside it and the whole
//! directory is removed when the session drops. A process killed
//! mid-query cannot clean up; the `.spill-*` prefix marks the orphan so
//! [`crate::persist::load_catalog_recover`] can remove it at the next
//! startup and report it in the
//! [`RecoveryReport`](crate::persist::RecoveryReport).
//!
//! File format: a run file is a sequence of length-prefixed records, one
//! row each:
//!
//! ```text
//! [u32 LE payload length][u64 LE fnv1a64(payload)][payload]
//! payload = [u32 LE value count][tagged values…]
//! ```
//!
//! Values use a one-byte tag (`0` NULL, `1` bool, `2` i64, `3` f64 bits,
//! `4` length-prefixed UTF-8 text, `5` i32 date days) — floats round-trip
//! bit-exactly, including NaNs and `-0.0`. Every record is verified on
//! read; a torn write or bit flip surfaces as a typed
//! [`StorageError::Corrupt`] naming the file, never as silently wrong
//! query results. Spill data is scratch (a crash loses the query anyway),
//! so writes are buffered but **not** fsynced. A disk error while writing
//! or reading a run is an I/O error, not corruption.

use std::cell::Cell;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{corrupt, StorageError};
use crate::persist::fnv1a64;
use crate::table::Row;
use crate::value::Value;
use crate::vfs;

/// Prefix of per-query spill directories. Anything matching
/// `<base>/.spill-*` is a spill session — live while its query runs, an
/// orphan to be garbage-collected otherwise.
pub const SPILL_DIR_PREFIX: &str = ".spill-";

/// Bytes of framing per record (u32 length + u64 checksum).
const RECORD_HEADER_BYTES: u64 = 12;

/// Upper bound on one record's payload; anything larger in a length
/// prefix means the file is corrupt (a single row never approaches this).
const MAX_PAYLOAD_BYTES: u32 = 1 << 30;

// ---------------------------------------------------------------------------
// Row codec
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_TEXT: u8 = 4;
const TAG_DATE: u8 = 5;

pub(crate) fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            out.push(TAG_TEXT);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Date(d) => {
            out.push(TAG_DATE);
            out.extend_from_slice(&d.days().to_le_bytes());
        }
    }
}

/// Read `N` bytes from `buf` at `*pos`, advancing the cursor.
pub(crate) fn take<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    n: usize,
    path: &Path,
) -> Result<&'a [u8], StorageError> {
    let end = pos
        .checked_add(n)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| {
            corrupt(
                path,
                format!("spill record truncated: wanted {n} bytes at offset {pos}"),
            )
        })?;
    let slice = &buf[*pos..end];
    *pos = end;
    Ok(slice)
}

pub(crate) fn take_arr<const N: usize>(
    buf: &[u8],
    pos: &mut usize,
    path: &Path,
) -> Result<[u8; N], StorageError> {
    let slice = take(buf, pos, N, path)?;
    slice
        .try_into()
        .map_err(|_| corrupt(path, "spill record slice length mismatch".into()))
}

pub(crate) fn decode_value(
    buf: &[u8],
    pos: &mut usize,
    path: &Path,
) -> Result<Value, StorageError> {
    let tag = take(buf, pos, 1, path)?[0];
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL => Value::Bool(take(buf, pos, 1, path)?[0] != 0),
        TAG_INT => Value::Int(i64::from_le_bytes(take_arr(buf, pos, path)?)),
        TAG_FLOAT => Value::Float(f64::from_bits(u64::from_le_bytes(take_arr(
            buf, pos, path,
        )?))),
        TAG_TEXT => {
            let len = u32::from_le_bytes(take_arr(buf, pos, path)?) as usize;
            let bytes = take(buf, pos, len, path)?;
            let s = std::str::from_utf8(bytes)
                .map_err(|_| corrupt(path, "spilled text value is not valid UTF-8".into()))?;
            Value::Text(s.to_string())
        }
        TAG_DATE => Value::Date(crate::date::Date::from_days(i32::from_le_bytes(take_arr(
            buf, pos, path,
        )?))),
        other => return Err(corrupt(path, format!("unknown spill value tag {other}"))),
    })
}

fn encode_row(row: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 12 * row.len());
    out.extend_from_slice(&(row.len() as u32).to_le_bytes());
    for v in row {
        encode_value(v, &mut out);
    }
    out
}

fn decode_row(payload: &[u8], path: &Path) -> Result<Row, StorageError> {
    let mut pos = 0;
    let count = u32::from_le_bytes(take_arr(payload, &mut pos, path)?) as usize;
    // Cap the pre-allocation: the count is attacker/corruption-controlled.
    let mut row = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        row.push(decode_value(payload, &mut pos, path)?);
    }
    if pos != payload.len() {
        return Err(corrupt(
            path,
            format!(
                "spill record has {} trailing bytes after its {count} values",
                payload.len() - pos
            ),
        ));
    }
    Ok(row)
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// Monotone process-wide nonce so the sessions of concurrent queries in
/// one process get distinct directories.
static SESSION_NONCE: AtomicU64 = AtomicU64::new(0);

/// A per-query spill directory. Created lazily by the first operator that
/// spills; removed (with all its run files) when dropped. A process
/// killed before the drop leaves the directory behind as an orphan for
/// startup recovery to collect.
///
/// A session belongs to one query, which runs on one thread: it is `Send`
/// but not `Sync`.
#[derive(Debug)]
pub struct SpillSession {
    dir: PathBuf,
    next_file: Cell<u64>,
}

impl SpillSession {
    /// Create a fresh spill directory under `base` (created if missing).
    pub fn create_in(base: &Path) -> Result<SpillSession, StorageError> {
        vfs::create_dir_all(base)?;
        let nonce = SESSION_NONCE.fetch_add(1, Ordering::Relaxed);
        let dir = base.join(format!("{SPILL_DIR_PREFIX}{}-{nonce}", std::process::id()));
        vfs::create_dir_all(&dir)?;
        Ok(SpillSession {
            dir,
            next_file: Cell::new(0),
        })
    }

    /// The session's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Open a fresh run file for writing, named by the session's next
    /// number: `run-000000.spill`, `run-000001.spill`, …
    pub fn writer(&self) -> Result<SpillWriter, StorageError> {
        let n = self.next_file.get();
        self.next_file.set(n + 1);
        SpillWriter::create(self.dir.join(format!("run-{n:06}.spill")))
    }

    /// Remove the session directory and everything in it. Called
    /// automatically on drop (best-effort there); explicit callers get the
    /// error.
    pub fn cleanup(&self) -> Result<(), StorageError> {
        if vfs::exists(&self.dir) {
            vfs::remove_dir_all(&self.dir)?;
        }
        Ok(())
    }
}

impl Drop for SpillSession {
    fn drop(&mut self) {
        let _ = self.cleanup();
    }
}

// ---------------------------------------------------------------------------
// Writer / file / reader
// ---------------------------------------------------------------------------

/// Append-only writer for one run file.
#[derive(Debug)]
pub struct SpillWriter {
    w: BufWriter<vfs::File>,
    path: PathBuf,
    rows: u64,
    bytes: u64,
}

impl SpillWriter {
    fn create(path: PathBuf) -> Result<SpillWriter, StorageError> {
        let file = vfs::File::create(&path)?;
        Ok(SpillWriter {
            w: BufWriter::new(file),
            path,
            rows: 0,
            bytes: 0,
        })
    }

    /// Append one row; returns the bytes written (framing included) so the
    /// caller can charge its disk budget.
    pub fn write_row(&mut self, row: &[Value]) -> Result<u64, StorageError> {
        let payload = encode_row(row);
        self.w.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.w.write_all(&fnv1a64(&payload).to_le_bytes())?;
        self.w.write_all(&payload)?;
        let n = RECORD_HEADER_BYTES + payload.len() as u64;
        self.rows += 1;
        self.bytes += n;
        Ok(n)
    }

    /// Rows written so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Flush and seal the run, producing a readable [`SpillFile`].
    pub fn finish(self) -> Result<SpillFile, StorageError> {
        let SpillWriter {
            mut w,
            path,
            rows,
            bytes,
        } = self;
        w.flush()?;
        Ok(SpillFile { path, rows, bytes })
    }
}

/// A sealed run file. Removed from disk when dropped, so partition files
/// release their space as soon as the executor is done with them.
#[derive(Debug)]
pub struct SpillFile {
    path: PathBuf,
    rows: u64,
    bytes: u64,
}

impl SpillFile {
    /// Number of rows in the run.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Total file size in bytes (framing included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Open a sequential reader over the run.
    pub fn reader(&self) -> Result<SpillReader, StorageError> {
        Ok(SpillReader {
            r: BufReader::new(vfs::File::open(&self.path)?),
            path: self.path.clone(),
            remaining: self.rows,
        })
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        // A file left behind is collected with the rest of its session.
        let _ = vfs::remove_file(&self.path);
    }
}

/// Sequential, checksum-verifying reader over one run file.
#[derive(Debug)]
pub struct SpillReader {
    r: BufReader<vfs::File>,
    path: PathBuf,
    remaining: u64,
}

impl SpillReader {
    /// Read the next row, or `None` at the end of the run. Every record's
    /// checksum is verified; corruption is a typed error, and so is a disk
    /// error (as I/O, not corruption).
    pub fn next_row(&mut self) -> Result<Option<Row>, StorageError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let mut header = [0u8; RECORD_HEADER_BYTES as usize];
        self.r
            .read_exact(&mut header)
            .map_err(|e| self.read_error(e, "header"))?;
        let mut pos = 0;
        let len = u32::from_le_bytes(take_arr(&header, &mut pos, &self.path)?);
        let expected = u64::from_le_bytes(take_arr(&header, &mut pos, &self.path)?);
        if len > MAX_PAYLOAD_BYTES {
            return Err(corrupt(
                &self.path,
                format!("implausible spill record length {len} (corrupt length prefix?)"),
            ));
        }
        let mut payload = vec![0u8; len as usize];
        self.r
            .read_exact(&mut payload)
            .map_err(|e| self.read_error(e, "payload"))?;
        let actual = fnv1a64(&payload);
        if actual != expected {
            return Err(corrupt(
                &self.path,
                format!(
                    "spill record checksum mismatch: header says fnv1a64:{expected:016x}, \
                     payload hashes to fnv1a64:{actual:016x}"
                ),
            ));
        }
        self.remaining -= 1;
        Ok(Some(decode_row(&payload, &self.path)?))
    }

    /// A run that ends mid-record is truncated; any other read failure
    /// is the disk's, not the data's.
    fn read_error(&self, e: io::Error, part: &str) -> StorageError {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            corrupt(&self.path, format!("truncated spill record {part}: {e}"))
        } else {
            e.into()
        }
    }
}

/// Names of orphaned `.spill-*` session directories directly under `dir`.
pub fn list_spill_dirs(dir: &Path) -> Vec<String> {
    let mut out = Vec::new();
    if let Ok(entries) = vfs::dir_entries(dir) {
        for entry in entries {
            if entry.is_dir && entry.name.starts_with(SPILL_DIR_PREFIX) {
                out.push(entry.name);
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::date::Date;
    use std::fs;

    fn tempbase(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("conquer_spill_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn gnarly_rows() -> Vec<Row> {
        vec![
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(i64::MIN),
                Value::Float(f64::NAN),
                Value::Text(String::new()),
                Value::Date(Date::from_days(-719162)),
            ],
            vec![
                Value::Float(-0.0),
                Value::Text("comma, \"quote\"\nnewline\u{1F984}".into()),
                Value::Int(0),
            ],
            vec![],
            vec![Value::Text("x".repeat(10_000))],
        ]
    }

    #[test]
    #[cfg_attr(miri, ignore)] // real file I/O
    fn roundtrip_preserves_every_value_shape() {
        let base = tempbase("roundtrip");
        let session = SpillSession::create_in(&base).unwrap();
        let mut w = session.writer().unwrap();
        let rows = gnarly_rows();
        let mut written = 0;
        for row in &rows {
            written += w.write_row(row).unwrap();
        }
        let file = w.finish().unwrap();
        assert_eq!(file.rows(), rows.len() as u64);
        assert_eq!(file.bytes(), written);
        let mut r = file.reader().unwrap();
        for expected in &rows {
            let got = r.next_row().unwrap().unwrap();
            assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(expected) {
                match (g, e) {
                    // NaN != NaN under PartialEq; compare bits.
                    (Value::Float(a), Value::Float(b)) => {
                        assert_eq!(a.to_bits(), b.to_bits())
                    }
                    _ => assert_eq!(g, e),
                }
            }
        }
        assert!(r.next_row().unwrap().is_none());
        drop(file);
        drop(session);
        assert!(list_spill_dirs(&base).is_empty(), "session must clean up");
        fs::remove_dir_all(&base).ok();
    }

    #[test]
    #[cfg_attr(miri, ignore)] // real file I/O
    fn runs_are_numbered_files_in_the_session_dir() {
        let base = tempbase("names");
        let session = SpillSession::create_in(&base).unwrap();
        let mut w = session.writer().unwrap();
        w.write_row(&[Value::Int(1)]).unwrap();
        let file = w.finish().unwrap();
        let name = fs::read_dir(session.dir())
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .file_name();
        let name = name.to_string_lossy().into_owned();
        assert_eq!(name, "run-000000.spill", "{name}");
        assert_eq!(file.reader().unwrap().next_row().unwrap().unwrap().len(), 1);
        drop(file);
        drop(session);
        fs::remove_dir_all(&base).ok();
    }

    #[test]
    #[cfg_attr(miri, ignore)] // real file I/O
    fn bit_flip_is_detected_as_corruption() {
        let base = tempbase("bitflip");
        let session = SpillSession::create_in(&base).unwrap();
        let mut w = session.writer().unwrap();
        w.write_row(&[Value::Int(42), Value::Text("hello".into())])
            .unwrap();
        let file = w.finish().unwrap();
        let path = session.dir().join("run-000000.spill");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, bytes).unwrap();
        let err = file.reader().unwrap().next_row().unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt { detail, .. } if detail.contains("checksum")),
            "{err:?}"
        );
        drop(file);
        drop(session);
        fs::remove_dir_all(&base).ok();
    }

    #[test]
    #[cfg_attr(miri, ignore)] // real file I/O
    fn truncation_is_detected() {
        let base = tempbase("truncate");
        let session = SpillSession::create_in(&base).unwrap();
        let mut w = session.writer().unwrap();
        w.write_row(&[Value::Text("a row long enough to truncate".into())])
            .unwrap();
        let file = w.finish().unwrap();
        let path = session.dir().join("run-000000.spill");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = file.reader().unwrap().next_row().unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt { detail, .. } if detail.contains("truncated")),
            "{err:?}"
        );
        drop(file);
        drop(session);
        fs::remove_dir_all(&base).ok();
    }

    #[test]
    #[cfg_attr(miri, ignore)] // real file I/O
    fn sessions_get_distinct_directories() {
        let base = tempbase("distinct");
        let a = SpillSession::create_in(&base).unwrap();
        let b = SpillSession::create_in(&base).unwrap();
        assert_ne!(a.dir(), b.dir());
        assert_eq!(list_spill_dirs(&base).len(), 2);
        drop(a);
        drop(b);
        assert!(list_spill_dirs(&base).is_empty());
        fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn codec_rejects_trailing_garbage() {
        let mut payload = encode_row(&[Value::Int(1)]);
        payload.push(0xAB);
        let err = decode_row(&payload, Path::new("x")).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt { detail, .. } if detail.contains("trailing")),
            "{err:?}"
        );
    }
}
