//! Shared, multi-client access to one [`Database`]: the concurrency layer
//! the network server is built on.
//!
//! [`SharedDatabase`] is an `Arc`-shareable, `Send + Sync` handle over a
//! sequence of immutable versions. The published version *is* a
//! [`Snapshot`]: an `Arc`'d [`Database`] tagged with its **catalog epoch**,
//! a counter that goes up by one per committed write. A reader clones the
//! current snapshot and runs without locks — a long scan never stalls
//! behind a writer, and a writer never waits for readers.
//!
//! **One read path.** A [`Session`] read passes the [`AdmissionGate`] (at
//! most `max_running` queries execute, at most `max_queue` wait, the rest
//! are shed with the typed [`EngineError::Overloaded`]), pins the current
//! snapshot and looks its SQL text up in the result cache. On a miss it
//! prepares the statement on the pinned version, runs it through
//! [`Statement::query_with`] and files the answer with the tables its plan
//! read. An answer is served for a pinned snapshot only while every table
//! it read is still the allocation that snapshot holds, so a hit is the
//! answer at that epoch, bit for bit, and a write misses just the answers
//! that read what it wrote.
//!
//! **One write body.** Every write — a statement through
//! [`Session::execute`] or an arbitrary [`SharedDatabase::mutate`] — runs
//! under the writer lock on a clone of the current version. The clone
//! shares every table (a catalog holds `Arc<Table>`) and copies one only
//! when the write first asks to change it, so consecutive versions share
//! everything a write left alone. On `Ok` the clone is made durable and
//! published as the next epoch; on `Err` it is dropped and nothing
//! changed — not the epoch, not the visible data, not the disk.
//!
//! **Two limit holders.** The [`Database`] holds the default
//! [`ExecLimits`]; each [`Session`] holds its own (initialized from the
//! defaults), beside the active statement's [`CancelToken`] and an id.
//!
//! ## Durability
//!
//! A handle opened with [`SharedDatabase::open_durable`] is backed by a
//! persistence directory. A statement appends the tables the new version
//! does not share with the one it was built from
//! ([`conquer_storage::Catalog::changes_since`]) to the write-ahead log
//! ([`conquer_storage::wal`]) and fsyncs *before* the version becomes
//! visible, so `Ok` from [`Session::execute`] means the write survives a
//! crash. A table the statement changed by row edits — a DML edit, a
//! view fold's splice of its touched groups — is logged as those edits,
//! which recovery replays exactly once, in order, with the function that
//! applied them; one it created or rebuilt is logged as a whole image,
//! and one it removed as a drop marker. A mutation, typically a bulk
//! rewrite, folds the whole new catalog into a compacted log instead — the same fold
//! [`SharedDatabase::checkpoint`] (or the automatic policy at `wal_limit`
//! bytes) applies via [`Wal::checkpoint`]: the catalog becomes the log's
//! base, sealed at the open log's last acknowledged sequence, and the log
//! file is replaced whole. Startup scans the one log once, replays its
//! commits on top of its base, and reports anything unusual in a
//! [`RecoveryReport`].
//!
//! ```
//! use conquer_engine::{Database, SharedDatabase, QuerySource};
//!
//! let mut db = Database::new();
//! db.execute_script("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1), (2)").unwrap();
//! let shared = SharedDatabase::new(db);
//!
//! let session = shared.session();
//! let first = session.query("SELECT a FROM t ORDER BY a").unwrap();
//! assert_eq!(first.source, QuerySource::Fresh);
//! let again = session.query("SELECT a FROM t ORDER BY a").unwrap();
//! assert_eq!(again.source, QuerySource::ResultCache);
//! assert_eq!(first.result.rows, again.result.rows);
//!
//! // A write to `t` bumps the epoch and misses the answer that read `t`.
//! session.execute("INSERT INTO t VALUES (3)").unwrap();
//! let fresh = session.query("SELECT a FROM t ORDER BY a").unwrap();
//! assert_eq!(fresh.source, QuerySource::Fresh);
//! assert_eq!(fresh.result.len(), 3);
//! ```

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use conquer_sync::{rank, Condvar, Mutex, MutexGuard, RwLock};

use conquer_sql::Statement as SqlStatement;
use conquer_storage::wal::Wal;
use conquer_storage::{vfs, Catalog, RecoveryReport, Table};

use crate::context::{CancelToken, ExecLimits};
use crate::database::{Database, ExecOutcome};
use crate::error::EngineError;
use crate::result::QueryResult;
use crate::statement::Statement;
use crate::Result;

/// Configuration for a [`SharedDatabase`]: result-cache capacity and
/// admission control. `#[non_exhaustive]` — construct with [`SharedConfig::default`]
/// or [`SharedConfig::from_env`] and adjust fields.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedConfig {
    /// Result cache capacity in entries (`0` disables the cache).
    pub result_cache: usize,
    /// Queries allowed to execute concurrently before new arrivals queue.
    pub max_running: usize,
    /// Requests allowed to wait for a slot before arrivals are shed with
    /// [`EngineError::Overloaded`].
    pub max_queue: usize,
    /// Write-ahead-log size (bytes) past which a committed write triggers
    /// an automatic checkpoint (`0` disables automatic checkpoints).
    /// Only meaningful for handles opened with
    /// [`SharedDatabase::open_durable`].
    pub wal_limit: u64,
}

impl Default for SharedConfig {
    fn default() -> Self {
        SharedConfig {
            result_cache: 128,
            max_running: usize::MAX,
            max_queue: 0,
            wal_limit: 16 << 20,
        }
    }
}

impl SharedConfig {
    /// Configuration from the environment, falling back to the defaults:
    ///
    /// * `CONQUER_RESULT_CACHE` — result-cache entries (`0` disables)
    /// * `CONQUER_ADMIT` — concurrent-query slots (unset: unlimited)
    /// * `CONQUER_QUEUE` — admission-queue depth beyond the slots
    /// * `CONQUER_WAL_LIMIT` — WAL bytes before an automatic checkpoint
    ///   (`0` disables)
    pub fn from_env() -> Self {
        fn parse(var: &str) -> Option<usize> {
            std::env::var(var).ok()?.trim().parse().ok()
        }
        let mut cfg = SharedConfig::default();
        if let Some(n) = parse("CONQUER_RESULT_CACHE") {
            cfg.result_cache = n;
        }
        if let Some(n) = parse("CONQUER_ADMIT") {
            cfg.max_running = n.max(1);
        }
        if let Some(n) = parse("CONQUER_QUEUE") {
            cfg.max_queue = n;
        }
        if let Some(n) = parse("CONQUER_WAL_LIMIT") {
            cfg.wal_limit = n as u64;
        }
        cfg
    }
}

/// Bounded admission control: `max_running` concurrent execution slots
/// plus a `max_queue`-deep wait queue; arrivals past both are shed with
/// the typed [`EngineError::Overloaded`] instead of queueing without bound.
///
/// Used by every [`Session`] request; exposed so servers and tests can
/// hold slots directly (e.g. to drive the gate into a deterministic
/// overload).
#[derive(Debug)]
pub struct AdmissionGate {
    max_running: usize,
    max_queue: usize,
    state: Mutex<GateState>,
    freed: Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    running: usize,
    queued: usize,
}

/// An occupied execution slot; dropping it frees the slot and wakes one
/// queued waiter.
#[derive(Debug)]
#[must_use = "the admission slot is released the moment the permit is dropped"]
pub struct AdmissionPermit<'a> {
    gate: &'a AdmissionGate,
}

impl AdmissionGate {
    /// A gate with `max_running` concurrent slots (clamped to at least 1)
    /// and a `max_queue`-deep wait queue.
    pub fn new(max_running: usize, max_queue: usize) -> Self {
        AdmissionGate {
            max_running: max_running.max(1),
            max_queue,
            state: Mutex::new(
                &rank::GATE,
                GateState {
                    running: 0,
                    queued: 0,
                },
            ),
            freed: Condvar::new(),
        }
    }

    /// Make the next `n` condvar waits inside [`AdmissionGate::admit`]
    /// return as spurious wakeups (no slot was actually freed). Tests use
    /// this to prove the wait loop re-checks its predicate and deadline
    /// after every wake. No-op (returning `false`) without the sync layer's
    /// analysis instrumentation.
    pub fn inject_spurious_wakes(&self, n: usize) -> bool {
        self.freed.inject_spurious(n)
    }

    /// Take a slot, waiting in the bounded queue for at most `wait` (or
    /// indefinitely when `None`) if all slots are busy. Returns
    /// [`EngineError::Overloaded`] immediately when the queue is full and
    /// [`EngineError::Timeout`] when `wait` elapses first.
    pub fn admit(&self, wait: Option<Duration>) -> Result<AdmissionPermit<'_>> {
        let mut state = self.state.lock();
        if state.running < self.max_running {
            state.running += 1;
            return Ok(AdmissionPermit { gate: self });
        }
        if state.queued >= self.max_queue {
            return Err(EngineError::Overloaded {
                running: state.running,
                queued: state.queued,
                max_queue: self.max_queue,
            });
        }
        state.queued += 1;
        let deadline = wait.map(|w| std::time::Instant::now() + w);
        // Condvar waits can end without a slot actually freeing (spurious
        // wakeup, or a notify raced away by another waiter), so both the
        // predicate and the caller's deadline are re-checked after every
        // wake — the loop condition is the only thing that admits.
        while state.running >= self.max_running {
            match deadline {
                None => {
                    state = self.freed.wait(state);
                }
                Some(deadline) => {
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        state.queued -= 1;
                        return Err(EngineError::Timeout {
                            limit: wait.unwrap_or_default(),
                        });
                    }
                    let (guard, _timeout) = self.freed.wait_timeout(state, deadline - now);
                    state = guard;
                }
            }
            if conquer_sync::mutant("gate::no-recheck") {
                // Seeded mutant: trust the first wake unconditionally. The
                // schedule explorer proves this over-admits when another
                // thread steals the freed slot between notify and wake.
                break;
            }
        }
        state.queued -= 1;
        state.running += 1;
        Ok(AdmissionPermit { gate: self })
    }

    /// Queries currently holding an execution slot.
    pub fn running(&self) -> usize {
        self.state.lock().running
    }

    /// Requests currently waiting in the queue.
    pub fn queued(&self) -> usize {
        self.state.lock().queued
    }
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.state.lock();
        state.running = state.running.saturating_sub(1);
        drop(state);
        self.gate.freed.notify_one();
    }
}

/// Largest result (in rows) the result cache will admit; bigger results
/// are recomputed per request instead of pinned in memory.
const RESULT_CACHE_MAX_ROWS: usize = 1 << 16;

/// The result cache: a tiny LRU of answers keyed by SQL text, and the only
/// code that knows when a cached answer is valid — while every table in
/// its **read set** is still the allocation the pinned catalog holds.
/// `Weak`, not `Arc`: an entry pins no replaced table's rows and forces no
/// copy on a writer's `make_mut`, and the weak count keeps the allocation
/// reserved, so no later table can reuse its address.
#[derive(Debug)]
struct Lru {
    cap: usize,
    tick: u64,
    map: HashMap<String, LruEntry>,
}

/// Each table an answer read, by name and by the allocation it read.
type ReadSet = Vec<(String, Weak<Table>)>;

#[derive(Debug)]
struct LruEntry {
    last_used: u64,
    reads: ReadSet,
    value: Arc<QueryResult>,
}

impl Lru {
    fn new(cap: usize) -> Self {
        Lru {
            cap,
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// The answer filed for `sql`, if every table it read is still the
    /// allocation `catalog` holds; the insert after a miss replaces it.
    fn get(&mut self, sql: &str, catalog: &Catalog) -> Option<Arc<QueryResult>> {
        let entry = self.map.get_mut(sql)?;
        let unchanged = |(name, read): &(String, Weak<Table>)| {
            catalog
                .shared(name)
                .is_ok_and(|table| std::ptr::eq(read.as_ptr(), Arc::as_ptr(table)))
        };
        // The `lru::ignore-read-set` seeded mutant skips the identity check,
        // serving stale entries; the model tests must catch it.
        if !entry.reads.iter().all(unchanged) && !conquer_sync::mutant("lru::ignore-read-set") {
            return None;
        }
        self.tick += 1;
        entry.last_used = self.tick;
        Some(Arc::clone(&entry.value))
    }

    /// Insert, evicting least-recently-used entries past capacity; returns
    /// how many entries were evicted.
    fn insert(&mut self, sql: &str, reads: ReadSet, value: Arc<QueryResult>) -> u64 {
        if self.cap == 0 {
            return 0;
        }
        self.tick += 1;
        self.map.insert(
            sql.to_string(),
            LruEntry {
                last_used: self.tick,
                reads,
                value,
            },
        );
        // One insert adds one entry, so at most one falls out.
        if self.map.len() <= self.cap {
            return 0;
        }
        let oldest = self.map.iter().min_by_key(|(_, e)| e.last_used);
        if let Some(key) = oldest.map(|(k, _)| k.clone()) {
            self.map.remove(&key);
        }
        1
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Monotonic counters describing cache and admission behavior, snapshotted
/// by [`SharedDatabase::stats`]. `#[non_exhaustive]`: more counters may
/// appear.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// The current catalog epoch.
    pub epoch: u64,
    /// Queries answered straight from the result cache.
    pub result_hits: u64,
    /// Queries that missed the result cache.
    pub result_misses: u64,
    /// Entries currently in the result cache.
    pub result_entries: usize,
    /// Always 0: there is no plan cache to hit. Kept, like `plan_misses`,
    /// because `perfbench/` reads both; the next `[benchmark]` PR drops
    /// `shared.plan_hit_ratio` and this field with it.
    pub plan_hits: u64,
    /// Reads that were parsed, bound and planned: every read that missed
    /// the result cache (the name is from when a plan cache could hit).
    /// Still the `plan_misses` line of the server's `STATS` reply.
    pub plan_misses: u64,
    /// Entries evicted from the result cache for capacity (an entry a write
    /// invalidated is replaced by the next miss on its SQL, not evicted).
    pub evictions: u64,
    /// Requests admitted to execution.
    pub admitted: u64,
    /// Requests shed with [`EngineError::Overloaded`].
    pub shed: u64,
    /// Writes durably committed to the write-ahead log.
    pub wal_commits: u64,
    /// Checkpoints that compacted the log (explicit or automatic, and
    /// durable mutations).
    pub checkpoints: u64,
    /// Best-effort IO operations that failed process-wide (directory
    /// fsyncs); mirrors
    /// `conquer_storage::vfs::counters`.
    pub io_errors: u64,
    /// fsync calls that failed process-wide. Each one poisoned its WAL
    /// handle (healed onto a fresh copy of the acknowledged log, never by
    /// retrying fsync).
    pub fsync_failures: u64,
    /// Checksum scrubs run through [`SharedDatabase::scrub`].
    pub scrub_runs: u64,
    /// Corrupt WAL frames found by scrubs (cumulative).
    pub corrupt_frames: u64,
    /// Whether the handle is currently degraded: a scrub found corruption,
    /// so writes are refused until a checkpoint rewrites the epoch or a
    /// clean scrub clears the flag. Reads keep working throughout.
    pub degraded: bool,
    /// Materialized views in the current version.
    pub views: usize,
    /// Total groups currently materialized across all views.
    pub view_rows: usize,
    /// DML commits incrementally folded into views since this handle
    /// opened (summed over views; kept with each version, not durable).
    pub view_deltas_applied: u64,
    /// `REFRESH MATERIALIZED VIEW` rebuilds since this handle opened.
    pub view_refreshes: u64,
}

#[derive(Debug, Default)]
struct Counters {
    result_hits: AtomicU64,
    result_misses: AtomicU64,
    plan_misses: AtomicU64,
    evictions: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
    wal_commits: AtomicU64,
    checkpoints: AtomicU64,
    scrub_runs: AtomicU64,
    corrupt_frames: AtomicU64,
}

/// A pinned, immutable version of the database at one catalog epoch, and
/// the thing a [`SharedDatabase`] publishes: a write builds the next
/// [`Database`] and publishes it as the next snapshot.
///
/// Obtained from [`SharedDatabase::snapshot`]; cheap to clone (it clones
/// an `Arc`). A snapshot stays byte-identical for as long as it is held,
/// no matter how many writes or checkpoints commit concurrently — readers
/// never block writers and writers never invalidate a pinned snapshot.
#[derive(Debug, Clone)]
#[must_use = "a snapshot pins a version only while it is held"]
pub struct Snapshot {
    db: Arc<Database>,
    epoch: u64,
}

impl Snapshot {
    /// The database contents this snapshot pins.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The catalog epoch this snapshot was taken at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// The persistence attachment of a durable handle: the open WAL, which
/// also owns its directory and compacts itself there
/// ([`Wal::checkpoint`]).
#[derive(Debug)]
struct Durable {
    wal: Wal,
    wal_limit: u64,
}

/// What a completed [`SharedDatabase::checkpoint`] folded.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "inspect what the checkpoint folded (or bind it to _) instead of dropping it"]
pub struct CheckpointInfo {
    /// The catalog epoch the checkpoint captured.
    pub epoch: u64,
    /// WAL bytes folded into the new base: the commits the log held past
    /// its old base, plus its header.
    pub wal_bytes_folded: u64,
}

#[derive(Debug)]
struct Inner {
    /// The currently published version. The `RwLock` is held only for the
    /// instants of pinning (read) and swapping (write) a snapshot — never
    /// across query execution or I/O.
    current: RwLock<Snapshot>,
    /// Serializes writers: copy-on-write version building, WAL appends,
    /// and checkpoints all happen under this lock. `Some` for a durable
    /// handle.
    writer: Mutex<Option<Durable>>,
    results: Mutex<Lru>,
    gate: AdmissionGate,
    counters: Counters,
    session_ids: AtomicU64,
    config: SharedConfig,
    /// Set when a scrub finds corruption: reads stay up, writes are
    /// refused with [`ErrorKind::Degraded`](crate::ErrorKind::Degraded)
    /// until a checkpoint rewrites a verified epoch or a clean scrub
    /// clears it.
    degraded: AtomicBool,
}

/// An `Arc`-shareable, `Send + Sync` handle to one [`Database`].
///
/// Cloning is cheap (it clones the `Arc`); all clones see the same
/// catalog, result cache, and admission gate. See the [module docs](self) for
/// the full semantics.
#[derive(Debug, Clone)]
pub struct SharedDatabase {
    inner: Arc<Inner>,
}

impl SharedDatabase {
    /// Share `db` with the default [`SharedConfig`].
    pub fn new(db: Database) -> Self {
        SharedDatabase::with_config(db, SharedConfig::default())
    }

    /// Share `db` with explicit cache/admission configuration.
    pub fn with_config(db: Database, config: SharedConfig) -> Self {
        SharedDatabase {
            inner: Arc::new(Inner {
                current: RwLock::new(
                    &rank::DB_CURRENT,
                    Snapshot {
                        db: Arc::new(db),
                        epoch: 0,
                    },
                ),
                writer: Mutex::new(&rank::SHARED_WRITER, None),
                results: Mutex::new(&rank::RESULT_CACHE, Lru::new(config.result_cache)),
                gate: AdmissionGate::new(config.max_running, config.max_queue),
                counters: Counters::default(),
                session_ids: AtomicU64::new(0),
                config,
                degraded: AtomicBool::new(false),
            }),
        }
    }

    /// Open (or create) a durable database rooted at `dir`.
    ///
    /// Recovery runs first, reading `wal.log` once ([`Wal::recover`]): the
    /// log's base is loaded and every committed group after it replayed on
    /// top, so the returned handle holds exactly the last committed state.
    /// A log whose header or base does not verify, or a directory in the
    /// epoch layout of older versions, is refused with a typed corruption
    /// error and left as it is. The accompanying [`RecoveryReport`] lists
    /// anything unusual found along the way (torn WAL tails, staged logs
    /// of interrupted checkpoints, spill directories);
    /// [`RecoveryReport::is_clean`] distinguishes a routine startup from
    /// one that healed damage.
    ///
    /// Every subsequent write through the handle is WAL-committed before
    /// it becomes visible; see the [module docs](self#durability).
    pub fn open_durable(
        dir: impl AsRef<Path>,
        config: SharedConfig,
    ) -> Result<(SharedDatabase, RecoveryReport)> {
        let dir = dir.as_ref();
        let (wal, catalog, report) = Wal::recover(dir)?;
        let mut db = Database::from_catalog(catalog);
        db.set_spill_dir(dir);
        let shared = SharedDatabase::with_config(db, config);
        *shared.inner.writer.lock() = Some(Durable {
            wal,
            wal_limit: config.wal_limit,
        });
        Ok((shared, report))
    }

    /// Open a new session. Sessions are independent: each carries its own
    /// limits (initialized from the database defaults) and cancellation
    /// state.
    pub fn session(&self) -> Session {
        let limits = *self.snapshot().db().limits();
        Session {
            db: self.clone(),
            id: self.inner.session_ids.fetch_add(1, Ordering::Relaxed) + 1,
            limits: Mutex::new(&rank::SESSION_LIMITS, limits),
            active: Mutex::new(&rank::SESSION_ACTIVE, None),
        }
    }

    /// Pin the current version for reading. The returned [`Snapshot`]
    /// stays valid and byte-identical however many writes commit after it
    /// was taken; holding it blocks nothing.
    pub fn snapshot(&self) -> Snapshot {
        self.inner.current.read().clone()
    }

    /// The current catalog epoch. Two queries answered at the same epoch
    /// ran against byte-identical catalog contents.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// The admission gate every request passes through.
    pub fn admission(&self) -> &AdmissionGate {
        &self.inner.gate
    }

    /// The configuration this handle was created with.
    pub fn config(&self) -> &SharedConfig {
        &self.inner.config
    }

    /// Snapshot of the cache/admission counters. The epoch and the view
    /// counters come from one pinned version.
    pub fn stats(&self) -> CacheStats {
        let c = &self.inner.counters;
        let result_entries = self.inner.results.lock().len();
        let io = vfs::counters();
        let snap = self.snapshot();
        let view_stats = snap.db().view_stats();
        CacheStats {
            epoch: snap.epoch,
            result_hits: c.result_hits.load(Ordering::Relaxed),
            result_misses: c.result_misses.load(Ordering::Relaxed),
            result_entries,
            plan_hits: 0,
            plan_misses: c.plan_misses.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            admitted: c.admitted.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            wal_commits: c.wal_commits.load(Ordering::Relaxed),
            checkpoints: c.checkpoints.load(Ordering::Relaxed),
            io_errors: io.io_errors,
            fsync_failures: io.fsync_failures,
            scrub_runs: c.scrub_runs.load(Ordering::Relaxed),
            corrupt_frames: c.corrupt_frames.load(Ordering::Relaxed),
            degraded: self.is_degraded(),
            views: view_stats.len(),
            view_rows: view_stats.iter().map(|v| v.rows).sum(),
            view_deltas_applied: view_stats.iter().map(|v| v.deltas_applied).sum(),
            view_refreshes: view_stats.iter().map(|v| v.refreshes).sum(),
        }
    }

    /// Apply an arbitrary mutation copy-on-write: `f` runs against a clone
    /// of the current version; on `Ok` the clone is published as the next
    /// epoch. On `Err` — from `f` itself or from persisting — the clone is
    /// discarded and nothing changes.
    ///
    /// An arbitrary mutation is typically a bulk one that rewrites most of
    /// the catalog, so a durable `mutate` persists by checkpoint: it writes
    /// the whole catalog as the base of a compacted log before publishing,
    /// instead of logging every table and folding the log afterwards. A
    /// fold that fails leaves the old log or the new one on disk and
    /// publishes nothing; the next write heals the log back to what was
    /// acknowledged before it.
    /// Every mutation that does not go through [`Session::execute`] — bulk
    /// loads, re-clustering, reloads from disk — uses this; like any write,
    /// it misses just the cached answers that read a table `f` wrote.
    pub fn mutate<R>(&self, f: impl FnOnce(&mut Database) -> Result<R>) -> Result<R> {
        self.write(true, f)
    }

    /// Compact the log: write the current version as the base of a fresh
    /// log, sealed at the last acknowledged sequence, and rename it over
    /// `wal.log`. Returns `Ok(None)` for in-memory handles. Does not bump
    /// the epoch — a checkpoint changes how state is stored, not what it
    /// is, so pinned snapshots and cached answers stay valid throughout.
    pub fn checkpoint(&self) -> Result<Option<CheckpointInfo>> {
        let mut durable = self.writer_guard()?;
        durable
            .as_mut()
            .map(|d| self.checkpoint_locked(d))
            .transpose()
    }

    /// Whether the handle is degraded: a scrub found corruption, so writes
    /// are refused (reads keep working) until a checkpoint rewrites the
    /// log or a clean scrub clears the flag.
    pub fn is_degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::Relaxed)
    }

    /// Checksum-sweep the persistence directory: the write-ahead log is
    /// re-scanned frame by frame — header, base and commits — and
    /// leftovers (staged logs of interrupted checkpoints, spill
    /// directories) are counted as quarantined.
    ///
    /// Runs under the writer lock so no checkpoint renames files
    /// mid-sweep; readers are unaffected. A scrub that finds corruption
    /// flips the handle into degraded mode; a clean one clears it.
    /// Returns `Ok(None)` for in-memory handles (nothing on disk to
    /// scrub).
    pub fn scrub(&self) -> Result<Option<conquer_storage::ScrubReport>> {
        let durable = self.writer_guard()?;
        let Some(d) = durable.as_ref() else {
            return Ok(None);
        };
        let report = conquer_storage::scrub(d.wal.dir())?;
        self.inner
            .counters
            .scrub_runs
            .fetch_add(1, Ordering::Relaxed);
        self.inner
            .counters
            .corrupt_frames
            .fetch_add(report.wal_corrupt_frames, Ordering::Relaxed);
        // Quarantined leftovers are normal operational debris; only real
        // corruption degrades the handle. A clean sweep clears the flag.
        self.inner
            .degraded
            .store(!report.is_clean(), Ordering::Relaxed);
        Ok(Some(report))
    }

    /// Refuse a write while degraded. Checkpoints stay allowed — writing
    /// the in-memory state as a fresh log is exactly the repair path.
    fn check_not_degraded(&self) -> Result<()> {
        if self.is_degraded() {
            return Err(EngineError::Storage(
                conquer_storage::StorageError::Degraded(
                    "a scrub found on-disk corruption; reads still work, writes are \
                     refused until a checkpoint rewrites the log (or a clean scrub \
                     clears the flag)"
                        .to_string(),
                ),
            ));
        }
        Ok(())
    }

    /// Acquire the writer lock under the workspace poisoning policy.
    ///
    /// A writer that panics mid-commit poisons the writer mutex. Instead of
    /// bricking all future DML (the pre-policy behavior: every later
    /// `lock()` propagates the poison panic), the *next* writer heals the
    /// handle — clears the poison flag and heals the write-ahead log onto
    /// its last committed boundary ([`Wal::heal`], as a poisoned commit
    /// does), discarding any partial append the panicking writer left
    /// behind — and fails with a typed
    /// [`EngineError::Internal`] so the caller knows its statement did not
    /// run. Writes after that proceed normally: the interrupted commit
    /// never published, so the in-memory version chain is still exactly the
    /// last committed state.
    fn writer_guard(&self) -> Result<MutexGuard<'_, Option<Durable>>> {
        let mut durable = self.inner.writer.lock();
        if self.inner.writer.is_poisoned() {
            self.inner.writer.clear_poison();
            if let Some(d) = durable.as_mut() {
                d.wal.heal()?;
            }
            return Err(EngineError::internal(
                "writer mutex was poisoned by a panic mid-commit; the handle has been \
                 recovered to the last committed state — retry the statement",
            ));
        }
        Ok(durable)
    }

    fn checkpoint_locked(&self, d: &mut Durable) -> Result<CheckpointInfo> {
        let cur = self.snapshot();
        let wal_bytes_folded = d.wal.size_bytes();
        d.wal.checkpoint(cur.db.catalog())?;
        self.inner
            .counters
            .checkpoints
            .fetch_add(1, Ordering::Relaxed);
        // The checkpoint just rewrote (and fsynced) the whole log from
        // known-good in-memory state: whatever corruption a scrub saw is
        // no longer reachable, so the handle is repaired.
        self.inner.degraded.store(false, Ordering::Relaxed);
        Ok(CheckpointInfo {
            epoch: cur.epoch,
            wal_bytes_folded,
        })
    }

    /// Publish `db` as the next version (epoch + 1). Only the writer body
    /// calls this, under the writer lock (bar its seeded mutant), so the
    /// swap cannot race another publisher.
    fn publish(&self, db: Database) {
        let mut current = self.inner.current.write();
        *current = Snapshot {
            db: Arc::new(db),
            epoch: current.epoch + 1,
        };
    }

    /// The one writer body: run `f` on a clone of the current version,
    /// make the clone durable (durable handles) and publish it. A durable
    /// write either folds the whole clone into a compacted log (`fold`, a
    /// [`SharedDatabase::mutate`], through [`Wal::checkpoint`]) or
    /// WAL-commits what the clone no longer shares with the current
    /// version (a statement). On
    /// any `Err` the clone is discarded — the write never happened,
    /// visibly or on disk.
    fn write<R>(&self, fold: bool, f: impl FnOnce(&mut Database) -> Result<R>) -> Result<R> {
        if conquer_sync::mutant("shared::unserialized-publish") {
            // Seeded mutant: "forget" the writer lock — clone, execute, and
            // publish without serialization. The schedule explorer proves
            // two concurrent writers then both build on the same base
            // version and one commit (and its epoch bump) is lost.
            let mut next = self.snapshot().db().clone();
            let out = f(&mut next)?;
            self.publish(next);
            return Ok(out);
        }
        self.check_not_degraded()?;
        let mut durable = self.writer_guard()?;
        let cur = self.snapshot();
        let mut next = cur.db().clone();
        let out = f(&mut next)?;
        let Some(d) = durable.as_mut() else {
            self.publish(next);
            return Ok(out);
        };
        let counters = &self.inner.counters;
        if fold {
            d.wal.checkpoint(next.catalog())?;
            counters.checkpoints.fetch_add(1, Ordering::Relaxed);
            self.publish(next);
            return Ok(out);
        }
        // Exactly the tables `next` no longer shares with `cur`, as their
        // edits or their images: base change and view maintenance arrive
        // in the same commit, so recovery can never observe a
        // half-maintained view.
        let ops = next.catalog().changes_since(cur.db().catalog());
        if !ops.is_empty() {
            d.wal.commit(&ops)?;
            counters.wal_commits.fetch_add(1, Ordering::Relaxed);
        }
        self.publish(next);
        // The write is already durable in the WAL; a failed automatic
        // checkpoint only leaves the log long, so it never fails the
        // statement — it is counted and noted, and the next write or an
        // explicit checkpoint retries.
        if d.wal_limit > 0 && d.wal.size_bytes() >= d.wal_limit {
            if let Err(e) = self.checkpoint_locked(d) {
                let dir = d.wal.dir().display();
                vfs::note_io_error(format!("automatic checkpoint of {dir} failed: {e}"));
            }
        }
        Ok(out)
    }
}

/// Where a [`Session::query`] answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuerySource {
    /// Straight from the result cache — no parsing, no execution.
    ResultCache,
    /// Parsed, planned, and executed on the pinned version.
    Fresh,
}

impl QuerySource {
    /// Stable lowercase name (used by the wire protocol).
    pub fn as_str(&self) -> &'static str {
        match self {
            QuerySource::ResultCache => "result-cache",
            QuerySource::Fresh => "fresh",
        }
    }
}

/// The outcome of a successful [`Session::query`].
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// The rows. Shared (`Arc`) because cache hits hand out the same
    /// materialized result to every requester.
    pub result: Arc<QueryResult>,
    /// Which layer produced the answer.
    pub source: QuerySource,
    /// The catalog epoch of the snapshot the read pinned. A cached answer
    /// read only tables unchanged since, so it is the answer at this epoch.
    pub epoch: u64,
}

/// The outcome of [`Session::execute`]: rows for queries, a summary for
/// commands.
#[derive(Debug, Clone)]
pub enum SessionOutcome {
    /// A `SELECT`/`EXPLAIN` produced rows.
    Rows(SessionResult),
    /// A DDL/DML command completed.
    Done(ExecOutcome),
}

/// Per-connection state over a [`SharedDatabase`]: resource limits, the
/// active statement's cancellation token, and a session id.
///
/// All methods take `&self`, so a `Session` can be shared across threads
/// (e.g. a connection reader thread executing queries while another thread
/// calls [`Session::cancel`]).
#[derive(Debug)]
pub struct Session {
    db: SharedDatabase,
    id: u64,
    limits: Mutex<ExecLimits>,
    /// Cancellation token of the statement currently executing, if any.
    active: Mutex<Option<CancelToken>>,
}

impl Session {
    /// This session's id (unique within its [`SharedDatabase`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The shared handle this session talks to.
    pub fn shared(&self) -> &SharedDatabase {
        &self.db
    }

    /// The session's current resource limits.
    pub fn limits(&self) -> ExecLimits {
        *self.limits.lock()
    }

    /// Replace the session's resource limits (applies to subsequent
    /// statements).
    pub fn set_limits(&self, limits: ExecLimits) {
        *self.limits.lock() = limits;
    }

    /// Cancel the statement currently executing in this session, if any.
    /// Idempotent; a no-op when the session is idle.
    pub fn cancel(&self) {
        if let Some(token) = self.active.lock().as_ref() {
            token.cancel();
        }
    }

    /// Execute a `SELECT` (or `EXPLAIN`) under this session's limits:
    /// admission control, then the result cache — looked up by the raw
    /// text, before any parsing — then prepare and execute on the pinned
    /// version.
    pub fn query(&self, sql: &str) -> Result<SessionResult> {
        let limits = self.limits();
        let _permit = self.admit(&limits)?;
        self.read(sql, None, limits)
    }

    /// Classify and run one SQL statement of any kind, parsed once and
    /// admitted once. A `SELECT`/`EXPLAIN` is answered like
    /// [`Session::query`] — a cached answer is handed back as the cached
    /// `Arc` — and leaves the epoch alone. Anything else is committed by
    /// the writer body: on success the new version is WAL-committed
    /// (durable handles) and published as the next epoch, which misses the
    /// cached answers that read a table it wrote; on failure nothing
    /// changes — not the epoch, not the visible data, not the disk.
    pub fn execute(&self, sql: &str) -> Result<SessionOutcome> {
        let parsed = conquer_sql::parse_statement(sql)?;
        let limits = self.limits();
        let _permit = self.admit(&limits)?;
        Ok(match parsed {
            SqlStatement::Select(_) | SqlStatement::Explain { .. } => {
                SessionOutcome::Rows(self.read(sql, Some(parsed), limits)?)
            }
            _ => SessionOutcome::Done(self.db.write(false, |db| db.exec_parsed(&parsed))?),
        })
    }

    /// The one way a session answers a read, entered past admission: pin
    /// the current version, look the text up in the result cache against
    /// the pinned catalog, and on a miss prepare and execute on the pinned
    /// version and file the answer with the tables its plan read. `parsed`
    /// is the statement when the caller already parsed `sql` to classify
    /// it.
    fn read(
        &self,
        sql: &str,
        parsed: Option<SqlStatement>,
        limits: ExecLimits,
    ) -> Result<SessionResult> {
        let inner = &self.db.inner;

        // Everything below runs against this one immutable snapshot, so
        // concurrent commits can neither stall us nor change what we
        // compute. A hit is an answer whose tables are the snapshot's own,
        // so it is the answer at the snapshot's epoch, bit for bit.
        let snap = self.db.snapshot();
        let epoch = snap.epoch();
        let catalog = snap.db().catalog();

        if let Some(result) = inner.results.lock().get(sql, catalog) {
            inner.counters.result_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(SessionResult {
                result,
                source: QuerySource::ResultCache,
                epoch,
            });
        }
        inner.counters.result_misses.fetch_add(1, Ordering::Relaxed);

        let parsed = match parsed {
            Some(parsed) => parsed,
            None => conquer_sql::parse_statement(sql)?,
        };
        inner.counters.plan_misses.fetch_add(1, Ordering::Relaxed);
        let stmt = Statement::from_parsed(snap.db(), sql, parsed)?;
        if !stmt.is_query() {
            return Err(EngineError::bind(format!(
                "statement is not a query (use Session::execute): {sql}"
            )));
        }

        let ctx = snap.db().exec_context(limits);
        *self.active.lock() = Some(ctx.cancel_token());
        let outcome = stmt.query_with(snap.db(), &ctx);
        *self.active.lock() = None;
        let result = Arc::new(outcome?);

        // EXPLAIN ANALYZE output embeds wall times — never cache it.
        if !stmt.is_explain() && result.len() <= RESULT_CACHE_MAX_ROWS {
            let reads = stmt
                .tables()
                .map(|name| Ok((name.to_string(), Arc::downgrade(catalog.shared(name)?))))
                .collect::<Result<_>>()?;
            let evicted = inner.results.lock().insert(sql, reads, Arc::clone(&result));
            inner
                .counters
                .evictions
                .fetch_add(evicted, Ordering::Relaxed);
        }
        Ok(SessionResult {
            result,
            source: QuerySource::Fresh,
            epoch,
        })
    }

    fn admit(&self, limits: &ExecLimits) -> Result<AdmissionPermit<'_>> {
        let inner = &self.db.inner;
        match inner.gate.admit(limits.timeout) {
            Ok(permit) => {
                inner.counters.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(permit)
            }
            Err(e) => {
                if matches!(e, EngineError::Overloaded { .. }) {
                    inner.counters.shed.fetch_add(1, Ordering::Relaxed);
                }
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared() -> SharedDatabase {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE t (a INTEGER, b TEXT);
             INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'y')",
        )
        .unwrap();
        SharedDatabase::new(db)
    }

    #[test]
    fn result_cache_hits_after_first_execution() {
        let s = shared().session();
        let q = "SELECT COUNT(*) FROM t WHERE b = 'y'";
        assert_eq!(s.query(q).unwrap().source, QuerySource::Fresh);
        let hit = s.query(q).unwrap();
        assert_eq!(hit.source, QuerySource::ResultCache);
        let stats = s.shared().stats();
        assert_eq!((stats.result_hits, stats.result_misses), (1, 1));
        assert_eq!(stats.plan_misses, 1);
    }

    #[test]
    fn a_write_to_a_read_table_misses_the_cached_answer() {
        let db = shared();
        let s = db.session();
        let q = "SELECT a FROM t ORDER BY a";
        s.query(q).unwrap();
        assert_eq!(db.stats().result_entries, 1);

        s.execute("INSERT INTO t VALUES (4, 'z')").unwrap();
        assert_eq!(db.epoch(), 1);
        assert_eq!(db.stats().result_entries, 1, "the writer never sweeps");

        let fresh = s.query(q).unwrap();
        assert_eq!(fresh.source, QuerySource::Fresh);
        assert_eq!(fresh.result.len(), 4);
        assert_eq!(fresh.epoch, 1);
        assert_eq!(db.stats().result_entries, 1, "the miss replaced the entry");
        assert_eq!(db.stats().evictions, 0);
    }

    #[test]
    fn select_through_execute_does_not_bump_epoch() {
        let db = shared();
        let s = db.session();
        match s.execute("SELECT a FROM t").unwrap() {
            SessionOutcome::Rows(r) => assert_eq!(r.result.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(db.epoch(), 0);
    }

    #[test]
    fn execute_routes_queries_and_commands() {
        let db = shared();
        let s = db.session();
        match s.execute("DELETE FROM t WHERE a = 1").unwrap() {
            SessionOutcome::Done(ExecOutcome::Deleted(1)) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(db.epoch(), 1);
        match s.execute("SELECT COUNT(*) FROM t").unwrap() {
            SessionOutcome::Rows(r) => {
                assert_eq!(r.result.rows, vec![vec![conquer_storage::Value::Int(2)]])
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn query_rejects_commands() {
        let s = shared().session();
        let err = s.query("DROP TABLE t").unwrap_err();
        assert!(err.to_string().contains("not a query"), "{err}");
    }

    #[test]
    fn gate_sheds_past_the_queue_with_typed_error() {
        let gate = AdmissionGate::new(1, 0);
        let held = gate.admit(None).unwrap();
        let err = gate.admit(None).unwrap_err();
        assert_eq!(err.kind(), crate::ErrorKind::Overloaded);
        match err {
            EngineError::Overloaded {
                running,
                queued,
                max_queue,
            } => {
                assert_eq!((running, queued, max_queue), (1, 0, 0));
            }
            other => panic!("unexpected {other:?}"),
        }
        drop(held);
        let _ok = gate.admit(None).unwrap();
    }

    #[test]
    fn gate_queue_admits_after_release() {
        let gate = Arc::new(AdmissionGate::new(1, 4));
        let held = gate.admit(None).unwrap();
        let g2 = Arc::clone(&gate);
        let waiter =
            std::thread::spawn(move || g2.admit(Some(Duration::from_secs(10))).map(|_| ()));
        // Wait until the thread is queued, then release.
        while gate.queued() == 0 {
            std::thread::yield_now();
        }
        drop(held);
        waiter.join().unwrap().unwrap();
        assert_eq!(gate.running(), 0);
        assert_eq!(gate.queued(), 0);
    }

    #[test]
    fn gate_queue_wait_times_out_with_typed_error() {
        let gate = AdmissionGate::new(1, 4);
        let _held = gate.admit(None).unwrap();
        let err = gate.admit(Some(Duration::from_millis(20))).unwrap_err();
        assert!(matches!(err, EngineError::Timeout { .. }), "{err:?}");
        assert_eq!(gate.queued(), 0, "timed-out waiter must leave the queue");
    }

    #[test]
    fn overload_is_counted_and_typed_through_sessions() {
        let cfg = SharedConfig {
            max_running: 1,
            max_queue: 0,
            ..Default::default()
        };
        let mut db = Database::new();
        db.execute_script("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1)")
            .unwrap();
        let shared = SharedDatabase::with_config(db, cfg);
        let s = shared.session();
        // Hold the only slot directly, then watch the session get shed.
        let _slot = shared.admission().admit(None).unwrap();
        let err = s.query("SELECT a FROM t").unwrap_err();
        assert_eq!(err.kind(), crate::ErrorKind::Overloaded);
        assert_eq!(shared.stats().shed, 1);
    }

    #[test]
    fn sessions_share_caches_and_get_distinct_ids() {
        let db = shared();
        let (s1, s2) = (db.session(), db.session());
        assert_ne!(s1.id(), s2.id());
        s1.query("SELECT a FROM t").unwrap();
        assert_eq!(
            s2.query("SELECT a FROM t").unwrap().source,
            QuerySource::ResultCache
        );
    }

    #[test]
    fn mutate_invalidates_like_execute() {
        let db = shared();
        let s = db.session();
        let q = "SELECT COUNT(*) FROM t";
        s.query(q).unwrap();
        db.mutate(|d| {
            d.execute_script("INSERT INTO t VALUES (9, 'q')")
                .map(|_| ())
        })
        .unwrap();
        assert_eq!(db.epoch(), 1);
        let r = s.query(q).unwrap();
        assert_eq!(r.source, QuerySource::Fresh);
        assert_eq!(r.result.rows, vec![vec![conquer_storage::Value::Int(4)]]);

        // A mutation that leaves `t` alone leaves its answers valid.
        db.mutate(|d| d.execute_script("CREATE TABLE u (a INTEGER)").map(|_| ()))
            .unwrap();
        let r = s.query(q).unwrap();
        assert_eq!((r.source, r.epoch), (QuerySource::ResultCache, 2));
    }

    #[test]
    fn failed_mutate_changes_nothing() {
        let db = shared();
        let err = db
            .mutate(|d| d.execute_script("INSERT INTO nope VALUES (1)").map(|_| ()))
            .unwrap_err();
        assert!(err.to_string().contains("nope"), "{err}");
        assert_eq!(db.epoch(), 0, "a failed mutate must not bump the epoch");
    }

    #[test]
    fn failed_dml_leaves_no_trace() {
        let db = shared();
        let s = db.session();
        // Type error surfaces mid-statement; the copy-on-write version is
        // discarded, so neither the epoch nor the data moves.
        s.execute("INSERT INTO t VALUES (4, 'ok'), ('bad', 5)")
            .unwrap_err();
        assert_eq!(db.epoch(), 0);
        let r = s.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.result.rows, vec![vec![conquer_storage::Value::Int(3)]]);
    }

    #[test]
    fn pinned_snapshot_is_immutable_across_commits() {
        let db = shared();
        let s = db.session();
        s.execute("CREATE TABLE u (a INTEGER)").unwrap();
        let snap = db.snapshot();
        let before = snap.db().catalog().table("t").unwrap().rows().to_vec();

        s.execute("INSERT INTO t VALUES (10, 'new')").unwrap();
        // The new version copied the table it wrote and shares the other.
        let next = db.snapshot();
        let table = |snap: &Snapshot, name: &str| -> *const conquer_storage::Table {
            snap.db().catalog().table(name).unwrap()
        };
        assert_ne!(table(&next, "t"), table(&snap, "t"));
        assert_eq!(table(&next, "u"), table(&snap, "u"));

        s.execute("DROP TABLE t").unwrap();
        assert_eq!(db.epoch(), 3);

        // The pinned snapshot still sees the original three rows; the
        // current version no longer has the table at all.
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.db().catalog().table("t").unwrap().rows(), &before[..]);
        assert!(db.snapshot().db().catalog().table("t").is_err());
    }

    #[test]
    fn snapshot_read_completes_while_a_write_commits() {
        // A reader that pinned a snapshot before a write starts must run
        // to completion without ever blocking on the writer. The writer
        // thread commits while the reader holds its snapshot mid-"scan".
        let db = shared();
        let snap = db.snapshot();
        let writer = {
            let db = db.clone();
            std::thread::spawn(move || {
                db.session()
                    .execute("INSERT INTO t VALUES (7, 'w')")
                    .unwrap();
            })
        };
        writer.join().unwrap();
        assert_eq!(db.epoch(), 1, "the write committed");
        // The snapshot pinned before the write still answers from epoch 0.
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.db().catalog().table("t").unwrap().len(), 3);
    }

    #[test]
    fn durable_writes_survive_reopen() {
        let dir =
            std::env::temp_dir().join(format!("conquer_shared_durable_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (db, report) = SharedDatabase::open_durable(&dir, SharedConfig::default()).unwrap();
            assert!(report.is_clean(), "{report:?}");
            let s = db.session();
            s.execute("CREATE TABLE t (a INTEGER)").unwrap();
            s.execute("INSERT INTO t VALUES (1), (2)").unwrap();
            assert_eq!(db.stats().wal_commits, 2);
            // No checkpoint: everything lives in the WAL.
        }
        let (db, report) = SharedDatabase::open_durable(&dir, SharedConfig::default()).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.wal_commits_replayed, 2);
        let r = db.session().query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.result.rows, vec![vec![conquer_storage::Value::Int(2)]]);

        // Statements that add and remove tables replay to the live catalog
        // as well, whichever of them the log ends on.
        let image = |db: &SharedDatabase| {
            let stored = |t: &conquer_storage::Table| {
                (t.name().to_string(), t.schema().clone(), t.rows().to_vec())
            };
            let tables: Vec<_> = db.snapshot().db().catalog().tables().map(stored).collect();
            (tables, db.stats().views)
        };
        let mut live = db;
        for sql in [
            "DROP TABLE t",
            "CREATE TABLE p (id TEXT, prob DOUBLE)",
            "CREATE MATERIALIZED VIEW v AS SELECT id, SUM(prob) AS s FROM p GROUP BY id",
            "INSERT INTO p VALUES ('a', 0.5)",
            "DROP MATERIALIZED VIEW v",
        ] {
            live.session().execute(sql).unwrap();
            let expected = image(&live);
            drop(live);
            let (reopened, report) =
                SharedDatabase::open_durable(&dir, SharedConfig::default()).unwrap();
            assert!(report.is_clean(), "{sql}: {report:?}");
            assert_eq!(image(&reopened), expected, "after {sql}");
            live = reopened;
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_folds_and_truncates_without_bumping_the_epoch() {
        let dir = std::env::temp_dir().join(format!("conquer_shared_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (db, _) = SharedDatabase::open_durable(&dir, SharedConfig::default()).unwrap();
        let s = db.session();
        s.execute("CREATE TABLE t (a INTEGER)").unwrap();
        s.execute("INSERT INTO t VALUES (5)").unwrap();
        let epoch = db.epoch();

        let info = db.checkpoint().unwrap().expect("durable handle");
        assert_eq!(info.epoch, epoch);
        assert!(info.wal_bytes_folded > 0);
        assert_eq!(db.epoch(), epoch, "checkpoint must not bump the epoch");
        assert_eq!(db.stats().checkpoints, 1);

        // After the fold, reopening replays nothing from the WAL.
        drop(s);
        drop(db);
        let (db, report) = SharedDatabase::open_durable(&dir, SharedConfig::default()).unwrap();
        assert_eq!(report.wal_commits_replayed, 0, "{report:?}");
        let r = db.session().query("SELECT a FROM t").unwrap();
        assert_eq!(r.result.rows, vec![vec![conquer_storage::Value::Int(5)]]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_limit_triggers_automatic_checkpoint() {
        let dir = std::env::temp_dir().join(format!("conquer_shared_auto_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SharedConfig {
            wal_limit: 1, // every committed write is past the limit
            ..Default::default()
        };
        let (db, _) = SharedDatabase::open_durable(&dir, cfg).unwrap();
        let s = db.session();
        s.execute("CREATE TABLE t (a INTEGER)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        assert!(db.stats().checkpoints >= 2, "{:?}", db.stats());

        let (_, report) = SharedDatabase::open_durable(&dir, SharedConfig::default()).unwrap();
        assert_eq!(report.wal_commits_replayed, 0, "the log was folded");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_on_memory_handle_is_a_noop() {
        let db = shared();
        assert_eq!(db.checkpoint().unwrap(), None);
    }

    #[test]
    fn explain_analyze_is_never_result_cached() {
        let db = shared();
        let s = db.session();
        let q = "EXPLAIN ANALYZE SELECT a FROM t";
        s.query(q).unwrap();
        assert_eq!(db.stats().result_entries, 0);
        assert_eq!(s.query(q).unwrap().source, QuerySource::Fresh);
    }

    #[test]
    fn oversized_results_are_not_cached() {
        // 257 x 257 = 66,049 rows, just past RESULT_CACHE_MAX_ROWS.
        let values: Vec<String> = (0..257).map(|i| format!("({i})")).collect();
        let mut db = Database::new();
        db.execute_script(&format!(
            "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES {}",
            values.join(", ")
        ))
        .unwrap();
        let shared = SharedDatabase::new(db);
        let s = shared.session();
        let big = s.query("SELECT x.a FROM t x, t y").unwrap();
        assert!(big.result.len() > RESULT_CACHE_MAX_ROWS);
        assert_eq!(shared.stats().result_entries, 0);
        // Small results still cache.
        s.query("SELECT a FROM t WHERE a = 1").unwrap();
        assert_eq!(shared.stats().result_entries, 1);
    }

    fn answer(n: i64) -> Arc<QueryResult> {
        let row = vec![conquer_storage::Value::Int(n)];
        Arc::new(QueryResult::new(vec!["n".to_string()], vec![row]))
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru = Lru::new(2);
        let cat = Catalog::new();
        lru.insert("a", Vec::new(), answer(1));
        lru.insert("b", Vec::new(), answer(2));
        assert_eq!(lru.get("a", &cat), Some(answer(1))); // refresh a
        let evicted = lru.insert("c", Vec::new(), answer(3));
        assert_eq!(evicted, 1);
        assert_eq!(lru.get("b", &cat), None, "b was least recently used");
        assert_eq!(lru.get("a", &cat), Some(answer(1)));
        assert_eq!(lru.get("c", &cat), Some(answer(3)));
    }

    #[test]
    fn lru_hits_only_while_every_read_table_is_the_same_allocation() {
        let db = shared();
        let before = db.snapshot();
        let reads = |snap: &Snapshot| -> ReadSet {
            let t = snap.db().catalog().shared("T").unwrap();
            vec![("T".to_string(), Arc::downgrade(t))]
        };
        let mut lru = Lru::new(4);
        lru.insert("q", reads(&before), answer(1));
        assert_eq!(lru.get("q", before.db().catalog()), Some(answer(1)));

        db.session().execute("CREATE TABLE u (a INTEGER)").unwrap();
        assert_eq!(lru.get("q", db.snapshot().db().catalog()), Some(answer(1)));
        db.session().execute("DELETE FROM t WHERE a = 1").unwrap();
        assert_eq!(lru.get("q", db.snapshot().db().catalog()), None);
        // The pinned catalog still holds the allocation the answer read.
        assert_eq!(lru.get("q", before.db().catalog()), Some(answer(1)));
        db.session().execute("DROP TABLE t").unwrap();
        assert_eq!(lru.get("q", db.snapshot().db().catalog()), None);
    }

    #[test]
    fn concurrent_sessions_agree_with_serial_answers() {
        let db = shared();
        let reference = db.session().query("SELECT a, b FROM t ORDER BY a").unwrap();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let db = db.clone();
                std::thread::spawn(move || {
                    let s = db.session();
                    let mut out = Vec::new();
                    for _ in 0..16 {
                        out.push(s.query("SELECT a, b FROM t ORDER BY a").unwrap());
                    }
                    out
                })
            })
            .collect();
        for t in threads {
            for r in t.join().unwrap() {
                assert_eq!(r.result.rows, reference.result.rows);
            }
        }
        let stats = db.stats();
        assert!(stats.result_hits >= 8 * 16 - 1, "{stats:?}");
    }
}
