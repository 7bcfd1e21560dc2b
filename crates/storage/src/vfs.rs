//! Virtual filesystem layer: every byte of storage IO flows through here.
//!
//! Production code calls the free functions (`vfs::read`, `vfs::rename`,
//! `vfs::sync_dir`, ...) and opens files through [`File`]. Without the
//! `fault` feature they compile to direct `std::fs` calls — [`File`] is a
//! single-variant wrapper around `std::fs::File` with `#[inline]`
//! passthrough, asserted below to add zero bytes — so the release binary
//! pays nothing for the abstraction.
//!
//! With `--features fault`, a test can `mount_sim` a `SimFs` under a
//! path prefix: a deterministic in-memory filesystem that journals every
//! mutation, tracks which bytes fsync has actually promised (per-file
//! content syncs, per-directory namespace syncs), and can therefore
//! *enumerate the post-crash states* a real disk could expose — any
//! subset of unsynced writes dropped or reordered, the final write torn
//! mid-sector — plus inject typed faults: ENOSPC on write, EIO on
//! read/write, fsync failure (with the fsyncgate lie: bytes a failed
//! fsync covered are never again promotable by a later fsync on the same
//! data — only a rewrite through a fresh handle is), and silent
//! bit-flips. This is the workspace's one fault model: an IO fault is a
//! failed call here, process death is one of the crash images, and
//! everything else is reached by real inputs.
//!
//! The module also owns the process-wide IO health counters
//! ([`counters`]): best-effort sites that used to swallow errors
//! (`let _ = dir.sync_all()`) report here instead, and the recovery path
//! drains the accompanying notes into its `RecoveryReport`.

use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use conquer_sync::{rank, Mutex};

// ---------------------------------------------------------------------------
// IO health counters + issue notes
// ---------------------------------------------------------------------------

static IO_ERRORS: AtomicU64 = AtomicU64::new(0);
static FSYNC_FAILURES: AtomicU64 = AtomicU64::new(0);
static ISSUES: Mutex<Vec<String>> = Mutex::new(&rank::VFS_ISSUES, Vec::new());
const MAX_ISSUES: usize = 64;

/// Process-wide IO health counters, monotonically increasing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct IoCounters {
    /// Best-effort IO operations (directory fsyncs, WAL truncations, ...)
    /// that failed; each is also recorded as a note for the recovery path.
    pub io_errors: u64,
    /// fsync calls that returned an error. Per the fsync-poisoning rule
    /// the affected handle is never retried — it heals by reopen+replay.
    pub fsync_failures: u64,
}

/// Snapshot the process-wide IO health counters.
pub fn counters() -> IoCounters {
    IoCounters {
        io_errors: IO_ERRORS.load(Ordering::Relaxed),
        fsync_failures: FSYNC_FAILURES.load(Ordering::Relaxed),
    }
}

/// Record a failed best-effort IO operation instead of swallowing it.
pub fn note_io_error(context: String) {
    IO_ERRORS.fetch_add(1, Ordering::Relaxed);
    push_issue(context);
}

/// Record a failed fsync (the caller must poison the handle, never retry).
pub fn note_fsync_failure(context: String) {
    FSYNC_FAILURES.fetch_add(1, Ordering::Relaxed);
    push_issue(context);
}

fn push_issue(note: String) {
    let mut issues = ISSUES.lock();
    if issues.len() >= MAX_ISSUES {
        issues.remove(0);
    }
    issues.push(note);
}

/// Drain the accumulated IO-error notes (recovery and scrub fold these
/// into their reports so best-effort failures surface somewhere visible).
pub fn drain_issues() -> Vec<String> {
    std::mem::take(&mut *ISSUES.lock())
}

// ---------------------------------------------------------------------------
// Free functions
// ---------------------------------------------------------------------------

/// One directory-listing entry (name + kind), fs-implementation agnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// File or directory name (no path components).
    pub name: String,
    /// True when the entry is a directory.
    pub is_dir: bool,
}

/// Route a call to a mounted `SimFs` when the `fault` feature is on *and*
/// `$path` lies under a mount; otherwise run the direct `std::fs` call.
macro_rules! routed {
    ($path:expr, $sim_call:expr, $real:expr) => {{
        #[cfg(feature = "fault")]
        if let Some(_simfs) = sim::route($path) {
            #[allow(clippy::redundant_closure_call)]
            return ($sim_call)(_simfs);
        }
        $real
    }};
}

/// Read a whole file.
#[inline]
pub fn read(path: &Path) -> io::Result<Vec<u8>> {
    routed!(path, |s: SimMount| s.read(path), std::fs::read(path))
}

/// Write a whole file (no fsync — callers needing durability sync).
#[inline]
pub fn write(path: &Path, contents: &[u8]) -> io::Result<()> {
    routed!(
        path,
        |s: SimMount| s.write(path, contents),
        std::fs::write(path, contents)
    )
}

/// Read a whole file as UTF-8.
#[inline]
pub fn read_to_string(path: &Path) -> io::Result<String> {
    routed!(
        path,
        |s: SimMount| s.read_to_string(path),
        std::fs::read_to_string(path)
    )
}

/// Create a directory and all missing parents.
#[inline]
pub fn create_dir_all(path: &Path) -> io::Result<()> {
    routed!(
        path,
        |s: SimMount| s.create_dir_all(path),
        std::fs::create_dir_all(path)
    )
}

/// Remove a directory tree.
#[inline]
pub fn remove_dir_all(path: &Path) -> io::Result<()> {
    routed!(
        path,
        |s: SimMount| s.remove_dir_all(path),
        std::fs::remove_dir_all(path)
    )
}

/// Remove a file.
#[inline]
pub fn remove_file(path: &Path) -> io::Result<()> {
    routed!(
        path,
        |s: SimMount| s.remove_file(path),
        std::fs::remove_file(path)
    )
}

/// Atomically rename `from` to `to` (same filesystem).
#[inline]
pub fn rename(from: &Path, to: &Path) -> io::Result<()> {
    routed!(
        from,
        |s: SimMount| s.rename(from, to),
        std::fs::rename(from, to)
    )
}

/// fsync a directory so the renames/creates within it are durable.
#[inline]
pub fn sync_dir(path: &Path) -> io::Result<()> {
    routed!(
        path,
        |s: SimMount| s.sync_dir(path),
        std::fs::File::open(path)?.sync_all()
    )
}

/// List a directory's immediate entries (names + kind).
#[inline]
pub fn dir_entries(path: &Path) -> io::Result<Vec<DirEntry>> {
    routed!(path, |s: SimMount| s.dir_entries(path), {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(path)? {
            let entry = entry?;
            let Some(name) = entry.file_name().to_str().map(str::to_string) else {
                continue;
            };
            let is_dir = entry.file_type().is_ok_and(|t| t.is_dir());
            out.push(DirEntry { name, is_dir });
        }
        Ok(out)
    })
}

/// Whether a path exists.
#[inline]
pub fn exists(path: &Path) -> bool {
    #[cfg(feature = "fault")]
    if let Some(simfs) = sim::route(path) {
        return simfs.exists(path);
    }
    path.exists()
}

// ---------------------------------------------------------------------------
// File handle
// ---------------------------------------------------------------------------

/// An open file. Without the `fault` feature this is a transparent
/// wrapper over `std::fs::File` (single enum variant, no discriminant —
/// see the size assertion below); with it, a handle may instead point
/// into a mounted `SimFs`.
#[derive(Debug)]
pub struct File(FileInner);

#[derive(Debug)]
enum FileInner {
    Real(std::fs::File),
    #[cfg(feature = "fault")]
    Sim(sim::SimHandle),
}

#[cfg(not(feature = "fault"))]
const _: () = assert!(
    std::mem::size_of::<File>() == std::mem::size_of::<std::fs::File>(),
    "vfs::File must stay a zero-cost wrapper without fault injection"
);

impl File {
    /// Create (truncating) a file for writing and reading back.
    #[inline]
    pub fn create(path: &Path) -> io::Result<File> {
        #[cfg(feature = "fault")]
        if let Some(simfs) = sim::route(path) {
            return Ok(File(FileInner::Sim(
                simfs.open(path, sim::OpenMode::Create)?,
            )));
        }
        Ok(File(FileInner::Real(
            std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(path)?,
        )))
    }

    /// Open an existing file read-only.
    #[inline]
    pub fn open(path: &Path) -> io::Result<File> {
        #[cfg(feature = "fault")]
        if let Some(simfs) = sim::route(path) {
            return Ok(File(FileInner::Sim(simfs.open(path, sim::OpenMode::Read)?)));
        }
        Ok(File(FileInner::Real(std::fs::File::open(path)?)))
    }

    /// Open read+write, creating if missing, never truncating.
    #[inline]
    pub fn open_rw(path: &Path) -> io::Result<File> {
        #[cfg(feature = "fault")]
        if let Some(simfs) = sim::route(path) {
            return Ok(File(FileInner::Sim(
                simfs.open(path, sim::OpenMode::ReadWrite)?,
            )));
        }
        Ok(File(FileInner::Real(
            std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(path)?,
        )))
    }

    /// Truncate (or extend with zeros) to `len` bytes.
    #[inline]
    pub fn set_len(&self, len: u64) -> io::Result<()> {
        match &self.0 {
            FileInner::Real(f) => f.set_len(len),
            #[cfg(feature = "fault")]
            FileInner::Sim(h) => h.set_len(len),
        }
    }

    /// fsync data + metadata.
    #[inline]
    pub fn sync_all(&self) -> io::Result<()> {
        match &self.0 {
            FileInner::Real(f) => f.sync_all(),
            #[cfg(feature = "fault")]
            FileInner::Sim(h) => h.sync(),
        }
    }

    /// fdatasync.
    #[inline]
    pub fn sync_data(&self) -> io::Result<()> {
        match &self.0 {
            FileInner::Real(f) => f.sync_data(),
            #[cfg(feature = "fault")]
            FileInner::Sim(h) => h.sync(),
        }
    }
}

impl Read for File {
    #[inline]
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match &mut self.0 {
            FileInner::Real(f) => f.read(buf),
            #[cfg(feature = "fault")]
            FileInner::Sim(h) => h.read(buf),
        }
    }
}

impl Write for File {
    #[inline]
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match &mut self.0 {
            FileInner::Real(f) => f.write(buf),
            #[cfg(feature = "fault")]
            FileInner::Sim(h) => h.write(buf),
        }
    }
    #[inline]
    fn flush(&mut self) -> io::Result<()> {
        match &mut self.0 {
            FileInner::Real(f) => f.flush(),
            #[cfg(feature = "fault")]
            FileInner::Sim(_) => Ok(()),
        }
    }
}

impl Seek for File {
    #[inline]
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        match &mut self.0 {
            FileInner::Real(f) => f.seek(pos),
            #[cfg(feature = "fault")]
            FileInner::Sim(h) => h.seek(pos),
        }
    }
}

#[cfg(feature = "fault")]
type SimMount = std::sync::Arc<SimFs>;

#[cfg(feature = "fault")]
pub use sim::{mount_sim, CrashState, MountGuard, SimFs};

// ---------------------------------------------------------------------------
// SimFs: deterministic in-memory filesystem with crash-state enumeration
// ---------------------------------------------------------------------------

#[cfg(feature = "fault")]
mod sim {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};
    use std::path::PathBuf;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    const ENOSPC: i32 = 28;
    const EIO: i32 = 5;
    /// 2^MAX_PENDING crash states is the enumeration ceiling.
    const MAX_PENDING: usize = 14;

    static MOUNTS: Mutex<Vec<(PathBuf, Arc<SimFs>)>> = Mutex::new(&rank::VFS_MOUNTS, Vec::new());
    static MOUNT_COUNT: AtomicUsize = AtomicUsize::new(0);

    /// Route a path to a mounted [`SimFs`], if any. The atomic count makes
    /// the no-mounts case (all of production) a single relaxed load.
    pub(super) fn route(path: &Path) -> Option<Arc<SimFs>> {
        if MOUNT_COUNT.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mounts = MOUNTS.lock();
        mounts
            .iter()
            .rev()
            .find(|(prefix, _)| path.starts_with(prefix))
            .map(|(_, fs)| Arc::clone(fs))
    }

    /// Mount a fresh [`SimFs`] under `prefix`; all `vfs` calls on paths
    /// below it are served from memory until the guard drops. Tests must
    /// use unique prefixes (the table is process-global).
    pub fn mount_sim(prefix: impl Into<PathBuf>) -> (Arc<SimFs>, MountGuard) {
        let prefix = prefix.into();
        let fs = Arc::new(SimFs::new(prefix.clone()));
        MOUNTS.lock().push((prefix.clone(), Arc::clone(&fs)));
        MOUNT_COUNT.fetch_add(1, Ordering::SeqCst);
        (fs, MountGuard { prefix })
    }

    /// Unmounts its [`SimFs`] on drop.
    #[must_use]
    pub struct MountGuard {
        prefix: PathBuf,
    }

    impl Drop for MountGuard {
        fn drop(&mut self) {
            let mut mounts = MOUNTS.lock();
            if let Some(i) = mounts.iter().position(|(p, _)| *p == self.prefix) {
                mounts.remove(i);
                MOUNT_COUNT.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// One journaled mutation. Content ops (`Write`/`SetLen`) become
    /// durable when the file is fsynced; namespace ops (`MkDir`,
    /// `CreateFile`, `Rename`, `Remove*`) when their parent directory is.
    /// `Flip` models silent bit-rot: always "durable", invisible to sync.
    #[derive(Debug, Clone)]
    enum Op {
        MkDir {
            path: PathBuf,
        },
        CreateFile {
            path: PathBuf,
        },
        Write {
            path: PathBuf,
            offset: u64,
            bytes: Vec<u8>,
        },
        SetLen {
            path: PathBuf,
            len: u64,
        },
        Rename {
            from: PathBuf,
            to: PathBuf,
        },
        RemoveFile {
            path: PathBuf,
        },
        RemoveDir {
            path: PathBuf,
        },
        Flip {
            path: PathBuf,
            offset: u64,
        },
    }

    impl Op {
        fn content_path(&self) -> Option<&Path> {
            match self {
                Op::Write { path, .. } | Op::SetLen { path, .. } => Some(path),
                _ => None,
            }
        }
        /// Directory whose fsync makes a namespace op durable.
        fn ns_parent(&self) -> Option<PathBuf> {
            let p = match self {
                Op::MkDir { path }
                | Op::CreateFile { path }
                | Op::RemoveFile { path }
                | Op::RemoveDir { path } => path,
                Op::Rename { to, .. } => to,
                Op::Write { .. } | Op::SetLen { .. } | Op::Flip { .. } => return None,
            };
            p.parent().map(Path::to_path_buf)
        }
    }

    #[derive(Debug, Clone)]
    struct Entry {
        op: Op,
        durable: bool,
        /// fsyncgate: a failed fsync covered this entry; a later fsync on
        /// the same handle/path can never promote it (the kernel already
        /// dropped the dirty flag). Only a rewrite makes the data durable.
        lied: bool,
    }

    /// A concrete filesystem image: what a post-crash disk could hold.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CrashState {
        /// Every file the post-crash disk holds, with full contents.
        pub files: BTreeMap<PathBuf, Vec<u8>>,
        /// Every directory the post-crash disk holds.
        pub dirs: BTreeSet<PathBuf>,
        /// Human-readable description of which pending ops survived.
        pub label: String,
    }

    #[derive(Debug, Clone, Default)]
    struct Image {
        files: BTreeMap<PathBuf, Vec<u8>>,
        dirs: BTreeSet<PathBuf>,
    }

    impl Image {
        /// Apply one op leniently: an op whose target is missing (because
        /// an earlier pending op was dropped) is itself a no-op, which is
        /// exactly what the disk would show.
        fn apply(&mut self, op: &Op, tear: Option<usize>) {
            match op {
                Op::MkDir { path } => {
                    let mut p = path.as_path();
                    loop {
                        self.dirs.insert(p.to_path_buf());
                        match p.parent() {
                            Some(parent) if !self.dirs.contains(parent) => p = parent,
                            _ => break,
                        }
                    }
                }
                Op::CreateFile { path } => {
                    if path.parent().is_none_or(|p| self.dirs.contains(p)) {
                        self.files.insert(path.clone(), Vec::new());
                    }
                }
                Op::Write {
                    path,
                    offset,
                    bytes,
                } => {
                    if let Some(data) = self.files.get_mut(path) {
                        let cut = tear.unwrap_or(bytes.len());
                        let end = *offset as usize + cut;
                        if data.len() < end {
                            data.resize(end, 0);
                        }
                        data[*offset as usize..end].copy_from_slice(&bytes[..cut]);
                    }
                }
                Op::SetLen { path, len } => {
                    if let Some(data) = self.files.get_mut(path) {
                        data.resize(*len as usize, 0);
                    }
                }
                Op::Rename { from, to } => {
                    if let Some(data) = self.files.remove(from) {
                        self.files.insert(to.clone(), data);
                    } else if self.dirs.remove(from) {
                        self.dirs.insert(to.clone());
                        let moved: Vec<_> = self
                            .files
                            .keys()
                            .filter(|p| p.starts_with(from))
                            .cloned()
                            .collect();
                        for old in moved {
                            let Ok(rel) = old.strip_prefix(from) else {
                                continue;
                            };
                            let new = to.join(rel);
                            if let Some(data) = self.files.remove(&old) {
                                self.files.insert(new, data);
                            }
                        }
                        let moved_dirs: Vec<_> = self
                            .dirs
                            .iter()
                            .filter(|p| p.starts_with(from))
                            .cloned()
                            .collect();
                        for old in moved_dirs {
                            self.dirs.remove(&old);
                            if let Ok(rel) = old.strip_prefix(from) {
                                self.dirs.insert(to.join(rel));
                            }
                        }
                    }
                }
                Op::RemoveFile { path } => {
                    self.files.remove(path);
                }
                Op::RemoveDir { path } => {
                    self.dirs.retain(|p| !p.starts_with(path));
                    self.files.retain(|p, _| !p.starts_with(path));
                }
                Op::Flip { path, offset } => {
                    if let Some(data) = self.files.get_mut(path) {
                        if let Some(b) = data.get_mut(*offset as usize) {
                            *b ^= 0x01;
                        }
                    }
                }
            }
        }
    }

    #[derive(Debug)]
    enum RuleKind {
        Read,
        Write,
        Sync,
    }

    #[derive(Debug)]
    struct FaultRule {
        kind: RuleKind,
        substr: String,
        /// Fires (once) when the countdown reaches zero.
        countdown: u64,
    }

    #[derive(Debug, Default)]
    struct State {
        journal: Vec<Entry>,
        /// Replay cache of the full journal (the "page cache" view).
        image: Image,
        capacity: Option<u64>,
        rules: Vec<FaultRule>,
        read_calls: u64,
        read_bytes: u64,
        write_calls: u64,
        sync_calls: u64,
        opens: u64,
        /// What each open handle refers to, by handle id.
        handles: BTreeMap<u64, Target>,
        next_handle: u64,
    }

    /// The file an open handle refers to. A handle follows its file
    /// through renames, as a descriptor follows its inode; once the file
    /// loses its name (removed, or replaced by a rename) the handle keeps
    /// the contents it had, private, and nothing it writes is ever
    /// durable.
    #[derive(Debug)]
    enum Target {
        Named(PathBuf),
        Unlinked(Vec<u8>),
    }

    impl State {
        fn push(&mut self, op: Op, durable: bool) {
            self.image.apply(&op, None);
            self.journal.push(Entry {
                op,
                durable,
                lied: false,
            });
        }

        /// Charge `extra` bytes against the capacity, if one is set.
        fn charge(&self, extra: u64) -> io::Result<()> {
            if let Some(cap) = self.capacity {
                let used: u64 = self.image.files.values().map(|d| d.len() as u64).sum();
                if used + extra > cap {
                    return Err(io::Error::from_raw_os_error(ENOSPC));
                }
            }
            Ok(())
        }

        /// Unlink every handle on a file at or below `path`: it keeps the
        /// contents it sees now.
        fn unlink_handles(&mut self, path: &Path) {
            for target in self.handles.values_mut() {
                if let Target::Named(p) = target {
                    if p.starts_with(path) {
                        let data = self.image.files.get(p).cloned().unwrap_or_default();
                        *target = Target::Unlinked(data);
                    }
                }
            }
        }

        /// Fire-and-remove the first matching one-shot fault rule.
        fn check_rule(&mut self, kind: &RuleKind, path: &Path) -> bool {
            let text = path.to_string_lossy();
            for (i, rule) in self.rules.iter_mut().enumerate() {
                if std::mem::discriminant(&rule.kind) == std::mem::discriminant(kind)
                    && text.contains(&rule.substr)
                {
                    rule.countdown -= 1;
                    if rule.countdown == 0 {
                        self.rules.remove(i);
                        return true;
                    }
                    return false;
                }
            }
            false
        }
    }

    /// A deterministic in-memory filesystem for crash and fault testing.
    #[derive(Debug)]
    pub struct SimFs {
        state: Mutex<State>,
    }

    #[derive(Debug, Clone, Copy)]
    pub(super) enum OpenMode {
        Read,
        Create,
        ReadWrite,
    }

    impl SimFs {
        fn new(root: PathBuf) -> SimFs {
            let mut state = State::default();
            // The mount root and its ancestors pre-exist, fully durable.
            state.image.apply(&Op::MkDir { path: root }, None);
            SimFs {
                state: Mutex::new(&rank::VFS_SIM, state),
            }
        }

        // -- fault configuration -------------------------------------------

        /// Cap total file bytes; writes beyond it fail with ENOSPC.
        pub fn set_capacity(&self, cap: Option<u64>) {
            self.state.lock().capacity = cap;
        }

        /// Fail the `nth` future read of a path containing `substr` (EIO).
        pub fn fail_read(&self, substr: &str, nth: u64) {
            self.arm(RuleKind::Read, substr, nth);
        }

        /// Fail the `nth` future write of a path containing `substr` (EIO).
        pub fn fail_write(&self, substr: &str, nth: u64) {
            self.arm(RuleKind::Write, substr, nth);
        }

        /// Fail the `nth` future fsync (file or dir) of a matching path.
        /// Per fsyncgate, the covered bytes become unpromotable: a later
        /// fsync reports success without making them durable.
        pub fn fail_sync(&self, substr: &str, nth: u64) {
            self.arm(RuleKind::Sync, substr, nth);
        }

        fn arm(&self, kind: RuleKind, substr: &str, nth: u64) {
            assert!(nth > 0, "fault countdown is 1-based");
            self.state.lock().rules.push(FaultRule {
                kind,
                substr: substr.to_string(),
                countdown: nth,
            });
        }

        /// Silently flip the low bit of the byte at `offset` (bit-rot).
        pub fn flip_byte(&self, path: &Path, offset: u64) {
            self.state.lock().push(
                Op::Flip {
                    path: path.to_path_buf(),
                    offset,
                },
                true,
            );
        }

        // -- introspection -------------------------------------------------

        /// Total read attempts (whole-file + handle) so far.
        pub fn read_calls(&self) -> u64 {
            self.state.lock().read_calls
        }

        /// Total bytes returned by reads (whole-file + handle) so far: a
        /// deterministic measure of what an operation reads, where
        /// [`SimFs::read_calls`] counts a whole-file read of any size as one.
        pub fn read_bytes(&self) -> u64 {
            self.state.lock().read_bytes
        }

        /// Total write attempts (whole-file + handle) so far.
        pub fn write_calls(&self) -> u64 {
            self.state.lock().write_calls
        }

        /// Total fsync attempts (file + dir) so far.
        pub fn sync_calls(&self) -> u64 {
            self.state.lock().sync_calls
        }

        /// Total file opens so far (heal-by-reopen leaves a trace here).
        pub fn opens(&self) -> u64 {
            self.state.lock().opens
        }

        /// Number of journaled ops not yet covered by an fsync.
        pub fn pending_ops(&self) -> usize {
            let s = self.state.lock();
            s.journal.iter().filter(|e| !e.durable).count()
        }

        // -- crash-state enumeration ---------------------------------------

        /// The fully-applied view (what the page cache shows now).
        pub fn current_image(&self) -> CrashState {
            let s = self.state.lock();
            Self::replay(&s.journal, |_, _| true, None, "current".to_string())
        }

        /// The guaranteed-durable view (only fsync-covered ops).
        pub fn durable_image(&self) -> CrashState {
            let s = self.state.lock();
            Self::replay(&s.journal, |_, e| e.durable, None, "durable".to_string())
        }

        /// Enumerate every filesystem image a crash right now could leave
        /// behind: durable ops always apply; each subset of the pending
        /// (unsynced) ops may or may not have reached the platter —
        /// dropping an early op while keeping a later one models
        /// reordering — and additionally each pending write may be torn
        /// mid-buffer (with and without its pending predecessors).
        ///
        /// Panics if more than 2^14 subsets would be needed; sync more
        /// often or split the scenario.
        pub fn crash_states(&self) -> Vec<CrashState> {
            let s = self.state.lock();
            let pending: Vec<usize> = s
                .journal
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.durable)
                .map(|(i, _)| i)
                .collect();
            assert!(
                pending.len() <= MAX_PENDING,
                "{} pending ops is too many to enumerate (max {MAX_PENDING})",
                pending.len()
            );
            let mut out = Vec::new();
            for mask in 0..(1u32 << pending.len()) {
                let keep: BTreeSet<usize> = pending
                    .iter()
                    .enumerate()
                    .filter(|(bit, _)| mask & (1 << bit) != 0)
                    .map(|(_, &i)| i)
                    .collect();
                out.push(Self::replay(
                    &s.journal,
                    |i, e| e.durable || keep.contains(&i),
                    None,
                    format!("subset {mask:#b}"),
                ));
            }
            // Torn writes: the torn op is the last pending op to reach the
            // disk — enumerate every cut, with all / none of its pending
            // predecessors applied.
            for &i in &pending {
                let Entry {
                    op: Op::Write { bytes, .. },
                    ..
                } = &s.journal[i]
                else {
                    continue;
                };
                for cut in tear_points(bytes.len()) {
                    for with_predecessors in [true, false] {
                        out.push(Self::replay(
                            &s.journal,
                            |j, e| e.durable || (with_predecessors && j < i) || j == i,
                            Some((i, cut)),
                            format!("torn op {i} at {cut} (pred={with_predecessors})"),
                        ));
                    }
                }
            }
            out
        }

        fn replay(
            journal: &[Entry],
            include: impl Fn(usize, &Entry) -> bool,
            tear: Option<(usize, usize)>,
            label: String,
        ) -> CrashState {
            let mut image = Image::default();
            for (index, entry) in journal.iter().enumerate() {
                if matches!(entry.op, Op::Flip { .. }) || include(index, entry) {
                    let cut = tear.and_then(|(ti, c)| (ti == index).then_some(c));
                    image.apply(&entry.op, cut);
                }
            }
            CrashState {
                files: image.files,
                dirs: image.dirs,
                label,
            }
        }

        /// Reset this filesystem to exactly `state`, fully durable — "the
        /// machine rebooted and this is what the disk held".
        pub fn restore(&self, crash: &CrashState) {
            let mut s = self.state.lock();
            let mut st = State::default();
            for dir in &crash.dirs {
                st.image.apply(&Op::MkDir { path: dir.clone() }, None);
            }
            for (path, data) in &crash.files {
                st.image.files.insert(path.clone(), data.clone());
            }
            // Journal a single durable baseline per object so later syncs
            // and crash states build on a clean slate.
            st.journal = crash
                .dirs
                .iter()
                .map(|d| Entry {
                    op: Op::MkDir { path: d.clone() },
                    durable: true,
                    lied: false,
                })
                .collect();
            for (path, data) in &crash.files {
                st.journal.push(Entry {
                    op: Op::CreateFile { path: path.clone() },
                    durable: true,
                    lied: false,
                });
                st.journal.push(Entry {
                    op: Op::Write {
                        path: path.clone(),
                        offset: 0,
                        bytes: data.clone(),
                    },
                    durable: true,
                    lied: false,
                });
            }
            st.capacity = s.capacity;
            st.handles = std::mem::take(&mut s.handles);
            st.next_handle = s.next_handle;
            *s = st;
        }

        // -- filesystem operations -----------------------------------------

        pub(super) fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            let mut s = self.state.lock();
            s.read_calls += 1;
            if s.check_rule(&RuleKind::Read, path) {
                return Err(io::Error::from_raw_os_error(EIO));
            }
            let data = s
                .image
                .files
                .get(path)
                .cloned()
                .ok_or_else(|| io::Error::from(io::ErrorKind::NotFound))?;
            s.read_bytes += data.len() as u64;
            Ok(data)
        }

        pub(super) fn read_to_string(&self, path: &Path) -> io::Result<String> {
            String::from_utf8(self.read(path)?)
                .map_err(|_| io::Error::from(io::ErrorKind::InvalidData))
        }

        pub(super) fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
            let mut s = self.state.lock();
            s.write_calls += 1;
            if s.check_rule(&RuleKind::Write, path) {
                return Err(io::Error::from_raw_os_error(EIO));
            }
            s.charge(contents.len() as u64)?;
            s.push(
                Op::CreateFile {
                    path: path.to_path_buf(),
                },
                false,
            );
            s.push(
                Op::Write {
                    path: path.to_path_buf(),
                    offset: 0,
                    bytes: contents.to_vec(),
                },
                false,
            );
            Ok(())
        }

        pub(super) fn create_dir_all(&self, path: &Path) -> io::Result<()> {
            let mut s = self.state.lock();
            if !s.image.dirs.contains(path) {
                s.push(
                    Op::MkDir {
                        path: path.to_path_buf(),
                    },
                    false,
                );
            }
            Ok(())
        }

        pub(super) fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
            let mut s = self.state.lock();
            if !s.image.dirs.contains(path) {
                return Err(io::Error::from(io::ErrorKind::NotFound));
            }
            s.unlink_handles(path);
            s.push(
                Op::RemoveDir {
                    path: path.to_path_buf(),
                },
                false,
            );
            Ok(())
        }

        pub(super) fn remove_file(&self, path: &Path) -> io::Result<()> {
            let mut s = self.state.lock();
            if !s.image.files.contains_key(path) {
                return Err(io::Error::from(io::ErrorKind::NotFound));
            }
            s.unlink_handles(path);
            s.push(
                Op::RemoveFile {
                    path: path.to_path_buf(),
                },
                false,
            );
            Ok(())
        }

        pub(super) fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            let mut s = self.state.lock();
            if !s.image.files.contains_key(from) && !s.image.dirs.contains(from) {
                return Err(io::Error::from(io::ErrorKind::NotFound));
            }
            if from != to {
                s.unlink_handles(to);
                for target in s.handles.values_mut() {
                    if let Target::Named(p) = target {
                        if let Ok(rel) = p.strip_prefix(from) {
                            *p = to.join(rel);
                        }
                    }
                }
            }
            s.push(
                Op::Rename {
                    from: from.to_path_buf(),
                    to: to.to_path_buf(),
                },
                false,
            );
            Ok(())
        }

        pub(super) fn sync_dir(&self, path: &Path) -> io::Result<()> {
            let mut s = self.state.lock();
            s.sync_calls += 1;
            if !s.image.dirs.contains(path) {
                return Err(io::Error::from(io::ErrorKind::NotFound));
            }
            if s.check_rule(&RuleKind::Sync, path) {
                for e in &mut s.journal {
                    if !e.durable && e.op.ns_parent().as_deref() == Some(path) {
                        e.lied = true;
                    }
                }
                return Err(io::Error::from_raw_os_error(EIO));
            }
            for e in &mut s.journal {
                if !e.durable && !e.lied && e.op.ns_parent().as_deref() == Some(path) {
                    e.durable = true;
                }
            }
            Ok(())
        }

        pub(super) fn dir_entries(&self, path: &Path) -> io::Result<Vec<DirEntry>> {
            let s = self.state.lock();
            if !s.image.dirs.contains(path) {
                return Err(io::Error::from(io::ErrorKind::NotFound));
            }
            let mut out = Vec::new();
            for file in s.image.files.keys() {
                if file.parent() == Some(path) {
                    if let Some(name) = file.file_name().and_then(|n| n.to_str()) {
                        out.push(DirEntry {
                            name: name.to_string(),
                            is_dir: false,
                        });
                    }
                }
            }
            for dir in &s.image.dirs {
                if dir.parent() == Some(path) {
                    if let Some(name) = dir.file_name().and_then(|n| n.to_str()) {
                        out.push(DirEntry {
                            name: name.to_string(),
                            is_dir: true,
                        });
                    }
                }
            }
            Ok(out)
        }

        pub(super) fn exists(&self, path: &Path) -> bool {
            let s = self.state.lock();
            s.image.files.contains_key(path) || s.image.dirs.contains(path)
        }

        pub(super) fn open(self: &Arc<Self>, path: &Path, mode: OpenMode) -> io::Result<SimHandle> {
            let mut s = self.state.lock();
            s.opens += 1;
            let present = s.image.files.contains_key(path);
            match mode {
                OpenMode::Read => {
                    if !present {
                        return Err(io::Error::from(io::ErrorKind::NotFound));
                    }
                }
                OpenMode::Create => {
                    s.push(
                        Op::CreateFile {
                            path: path.to_path_buf(),
                        },
                        false,
                    );
                }
                OpenMode::ReadWrite => {
                    if !present {
                        s.push(
                            Op::CreateFile {
                                path: path.to_path_buf(),
                            },
                            false,
                        );
                    }
                }
            }
            let writable = !matches!(mode, OpenMode::Read);
            let id = s.next_handle;
            s.next_handle += 1;
            s.handles.insert(id, Target::Named(path.to_path_buf()));
            drop(s);
            Ok(SimHandle {
                fs: Arc::clone(self),
                id,
                pos: 0,
                writable,
            })
        }
    }

    /// Byte offsets at which to tear a write of `len` bytes.
    fn tear_points(len: usize) -> Vec<usize> {
        if len <= 1 {
            return Vec::new();
        }
        if len <= 128 {
            return (1..len).collect();
        }
        let mut cuts: BTreeSet<usize> = (1..32).map(|i| i * len / 32).collect();
        for sector in (512..len).step_by(512) {
            cuts.insert(sector);
        }
        cuts.insert(1);
        cuts.insert(len - 1);
        cuts.retain(|&c| c > 0 && c < len);
        cuts.into_iter().collect()
    }

    /// An open handle into a [`SimFs`] file.
    #[derive(Debug)]
    pub(super) struct SimHandle {
        fs: Arc<SimFs>,
        id: u64,
        pos: u64,
        writable: bool,
    }

    impl Drop for SimHandle {
        fn drop(&mut self) {
            self.fs.state.lock().handles.remove(&self.id);
        }
    }

    impl SimHandle {
        /// The path of the handle's file, `None` once it is unlinked.
        fn path(&self, s: &State) -> Option<PathBuf> {
            match s.handles.get(&self.id) {
                Some(Target::Named(p)) => Some(p.clone()),
                _ => None,
            }
        }

        /// The contents of an unlinked file.
        fn unlinked<'s>(&self, s: &'s mut State) -> io::Result<&'s mut Vec<u8>> {
            match s.handles.get_mut(&self.id) {
                Some(Target::Unlinked(data)) => Ok(data),
                _ => Err(io::Error::from(io::ErrorKind::NotFound)),
            }
        }

        fn len(&self, s: &State) -> u64 {
            match s.handles.get(&self.id) {
                Some(Target::Named(p)) => s.image.files.get(p).map_or(0, Vec::len) as u64,
                Some(Target::Unlinked(data)) => data.len() as u64,
                None => 0,
            }
        }

        pub(super) fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let mut s = self.fs.state.lock();
            s.read_calls += 1;
            let path = self.path(&s);
            if let Some(path) = &path {
                if s.check_rule(&RuleKind::Read, path) {
                    return Err(io::Error::from_raw_os_error(EIO));
                }
            }
            let n = {
                let data = match &path {
                    Some(path) => s.image.files.get(path).ok_or(io::ErrorKind::NotFound)?,
                    None => self.unlinked(&mut s)?,
                };
                let start = (self.pos as usize).min(data.len());
                let n = (data.len() - start).min(buf.len());
                buf[..n].copy_from_slice(&data[start..start + n]);
                n
            };
            s.read_bytes += n as u64;
            self.pos += n as u64;
            Ok(n)
        }

        pub(super) fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if !self.writable {
                return Err(io::Error::from(io::ErrorKind::PermissionDenied));
            }
            let mut s = self.fs.state.lock();
            s.write_calls += 1;
            let Some(path) = self.path(&s) else {
                let data = self.unlinked(&mut s)?;
                let end = self.pos as usize + buf.len();
                if data.len() < end {
                    data.resize(end, 0);
                }
                data[self.pos as usize..end].copy_from_slice(buf);
                self.pos += buf.len() as u64;
                return Ok(buf.len());
            };
            if s.check_rule(&RuleKind::Write, &path) {
                return Err(io::Error::from_raw_os_error(EIO));
            }
            let grow = (self.pos + buf.len() as u64).saturating_sub(self.len(&s));
            s.charge(grow)?;
            s.push(
                Op::Write {
                    path,
                    offset: self.pos,
                    bytes: buf.to_vec(),
                },
                false,
            );
            self.pos += buf.len() as u64;
            Ok(buf.len())
        }

        pub(super) fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
            let len = self.len(&self.fs.state.lock()) as i64;
            let new = match pos {
                SeekFrom::Start(n) => n as i64,
                SeekFrom::End(delta) => len + delta,
                SeekFrom::Current(delta) => self.pos as i64 + delta,
            };
            if new < 0 {
                return Err(io::Error::from(io::ErrorKind::InvalidInput));
            }
            self.pos = new as u64;
            Ok(self.pos)
        }

        pub(super) fn set_len(&self, len: u64) -> io::Result<()> {
            if !self.writable {
                return Err(io::Error::from(io::ErrorKind::PermissionDenied));
            }
            let mut s = self.fs.state.lock();
            let Some(path) = self.path(&s) else {
                self.unlinked(&mut s)?.resize(len as usize, 0);
                return Ok(());
            };
            let grow = len.saturating_sub(self.len(&s));
            s.charge(grow)?;
            s.push(Op::SetLen { path, len }, false);
            Ok(())
        }

        /// fsync: promote this file's pending content ops — except any a
        /// previously *failed* fsync covered (the fsyncgate lie). An
        /// unlinked file has nothing a crash could keep.
        pub(super) fn sync(&self) -> io::Result<()> {
            let mut s = self.fs.state.lock();
            s.sync_calls += 1;
            let Some(path) = self.path(&s) else {
                return Ok(());
            };
            if s.check_rule(&RuleKind::Sync, &path) {
                for e in &mut s.journal {
                    if !e.durable && e.op.content_path() == Some(&path) {
                        e.lied = true;
                    }
                }
                return Err(io::Error::from_raw_os_error(EIO));
            }
            for e in &mut s.journal {
                if !e.durable && !e.lied && e.op.content_path() == Some(&path) {
                    e.durable = true;
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("conquer_vfs_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// With the fault feature off there is nothing between callers and
    /// `std::fs` — the compile-time size assertion above proves `File`
    /// adds no bytes; this proves the free functions reach a real disk.
    #[test]
    #[cfg_attr(miri, ignore = "touches the real filesystem")]
    fn real_fs_round_trips_through_the_free_functions() {
        let dir = tempdir("roundtrip");
        create_dir_all(&dir).unwrap();
        write(&dir.join("a"), b"hello").unwrap();
        assert_eq!(read(&dir.join("a")).unwrap(), b"hello");
        rename(&dir.join("a"), &dir.join("b")).unwrap();
        assert!(!exists(&dir.join("a")) && exists(&dir.join("b")));
        assert_eq!(read_to_string(&dir.join("b")).unwrap(), "hello");
        sync_dir(&dir).unwrap();
        let names: Vec<String> = dir_entries(&dir)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["b".to_string()]);

        let mut f = File::open_rw(&dir.join("b")).unwrap();
        f.seek(SeekFrom::End(0)).unwrap();
        f.write_all(b" world").unwrap();
        f.sync_data().unwrap();
        f.sync_all().unwrap();
        drop(f);
        assert_eq!(read_to_string(&dir.join("b")).unwrap(), "hello world");

        remove_file(&dir.join("b")).unwrap();
        remove_dir_all(&dir).unwrap();
        assert!(!exists(&dir));
    }

    /// IO health counters are monotonic and issue notes drain once.
    #[test]
    fn io_counters_accumulate_and_issues_drain() {
        let before = counters();
        note_io_error("vfs-test: synthetic".to_string());
        note_fsync_failure("vfs-test: synthetic fsync".to_string());
        let after = counters();
        assert!(after.io_errors > before.io_errors);
        assert!(after.fsync_failures > before.fsync_failures);
        // Concurrent tests drain the shared list too; retry until one of
        // our notes survives the race into our own drain.
        let survived = (0..50).any(|_| {
            note_io_error("vfs-test: drain probe".to_string());
            drain_issues().iter().any(|i| i.contains("vfs-test"))
        });
        assert!(survived, "a note must be drainable");
    }
}
