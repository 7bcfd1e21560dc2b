//! Instrumented synchronization layer for the ConQuer workspace.
//!
//! Every lock in the workspace goes through the wrappers in this crate
//! instead of `std::sync` directly (enforced by `cargo run -p xtask -- tidy`).
//! The wrappers are zero-cost passthroughs in release builds; in debug builds
//! (and release builds with the `analysis` feature) each lock carries a
//! static [`Rank`] and every acquisition is checked against
//!
//! 1. a **rank discipline** — a thread may only acquire locks in strictly
//!    ascending rank order (rank order `0` opts out and relies on the graph
//!    check alone),
//! 2. a **global lock-order graph** — an acquisition that would close a cycle
//!    between lock labels panics naming both acquisition sites, even if the
//!    two conflicting nestings happened on different threads in different
//!    tests, and
//! 3. a **blocking-region rule** — entering a region that performs a blocking
//!    syscall (WAL fsync, socket I/O) while holding a lock whose rank is not
//!    marked `blocking_ok` panics.
//!
//! The crate also hosts [`sched`], a loom-style deterministic schedule
//! explorer used by the model tests in `crates/core/tests/model.rs`, and a
//! tiny [`mutant`] registry that lets those tests arm seeded concurrency bugs
//! in production code paths.
//!
//! `conquer-core` re-exports this crate as `conquer_core::sync`, which is the
//! canonical path the rest of the workspace uses.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

use std::fmt;
#[cfg(any(debug_assertions, feature = "analysis"))]
use std::panic::Location;
#[cfg(any(debug_assertions, feature = "analysis"))]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// `true` when the lock-order / rank / blocking-region instrumentation is
/// compiled in (debug builds, or any build with the `analysis` feature).
pub const ANALYSIS: bool = cfg!(any(debug_assertions, feature = "analysis"));

/// Static metadata attached to every ranked lock.
///
/// Declare one `static` per lock *role* (not per instance) and pass it to
/// [`Mutex::new`] / [`RwLock::new`]. See [`rank`] for the workspace table.
#[derive(Debug)]
pub struct Rank {
    /// Position in the global acquisition order. Locks must be acquired in
    /// strictly ascending `order`; `0` means "unordered" — exempt from the
    /// rank check and covered only by the lock-order graph.
    pub order: u16,
    /// Stable label naming the lock role; nodes in the lock-order graph.
    pub name: &'static str,
    /// Whether holding this lock across a blocking syscall (see
    /// [`blocking_region`]) is acceptable. The writer mutex performs its WAL
    /// fsync under the lock *by design*, so it sets this.
    pub blocking_ok: bool,
}

/// The workspace lock-rank table. Acquire in strictly ascending `order`.
///
/// Keep this table in sync with the "Sync discipline" section of DESIGN.md.
pub mod rank {
    use super::Rank;

    /// Test-harness serialization locks (process-global test mutexes).
    pub static TEST_SERIAL: Rank = Rank {
        order: 10,
        name: "test_serial",
        blocking_ok: true,
    };
    /// `SharedDatabase` writer mutex — serializes DML; WAL fsync happens
    /// under it by design, hence `blocking_ok`.
    pub static SHARED_WRITER: Rank = Rank {
        order: 20,
        name: "shared_writer",
        blocking_ok: true,
    };
    /// Pointer-swap `RwLock` publishing the current `Snapshot`.
    pub static DB_CURRENT: Rank = Rank {
        order: 30,
        name: "db_current",
        blocking_ok: false,
    };
    /// Clean-answer result LRU cache.
    pub static RESULT_CACHE: Rank = Rank {
        order: 41,
        name: "result_cache",
        blocking_ok: false,
    };
    /// `AdmissionGate` slot state.
    pub static GATE: Rank = Rank {
        order: 50,
        name: "admission_gate",
        blocking_ok: false,
    };
    /// Per-session `ExecLimits`.
    pub static SESSION_LIMITS: Rank = Rank {
        order: 60,
        name: "session_limits",
        blocking_ok: false,
    };
    /// Per-session active `CancelToken`.
    pub static SESSION_ACTIVE: Rank = Rank {
        order: 61,
        name: "session_active",
        blocking_ok: false,
    };
    /// VFS mount table (`storage::vfs`); maps path prefixes to simulated
    /// filesystems under `--features fault`. Held only for the routing
    /// lookup, never across IO.
    pub static VFS_MOUNTS: Rank = Rank {
        order: 80,
        name: "vfs_mounts",
        blocking_ok: false,
    };
    /// Simulated-filesystem state (`storage::vfs::SimFs`); taken after
    /// [`VFS_MOUNTS`] resolves a route, held for the in-memory operation.
    pub static VFS_SIM: Rank = Rank {
        order: 81,
        name: "vfs_sim",
        blocking_ok: false,
    };
    /// Ring buffer of recent IO-error notes (`storage::vfs`); leaf-like,
    /// taken after any simulated IO completes.
    pub static VFS_ISSUES: Rank = Rank {
        order: 85,
        name: "vfs_issues",
        blocking_ok: false,
    };
}

#[cfg(any(debug_assertions, feature = "analysis"))]
mod imp {
    //! Instrumentation internals: per-thread held stacks, the global
    //! lock-order graph, the mutant registry. This module is the one place
    //! in the workspace allowed to use raw `std::sync` primitives.

    use super::Rank;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::panic::Location;
    use std::sync::{Mutex, OnceLock};

    pub(crate) type Site = &'static Location<'static>;

    #[derive(Clone, Copy)]
    pub(crate) struct Held {
        pub rank: &'static Rank,
        pub site: Site,
        pub addr: usize,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    /// Directed edge `from` → `to`: some thread acquired `to` while holding
    /// `from`. We remember the first witness's acquisition sites.
    struct Edge {
        from_site: Site,
        to_site: Site,
    }

    #[derive(Default)]
    struct Graph {
        // (from label, to label) -> first witnessed sites.
        edges: HashMap<(&'static str, &'static str), Edge>,
    }

    impl Graph {
        /// Is there a path `from` → … → `to` through recorded edges?
        /// Returns the path as a list of (from, to) label pairs.
        fn path(
            &self,
            from: &'static str,
            to: &'static str,
        ) -> Option<Vec<(&'static str, &'static str)>> {
            let mut stack = vec![(from, Vec::new())];
            let mut seen = vec![from];
            while let Some((node, trail)) = stack.pop() {
                for (a, b) in self.edges.keys() {
                    if *a != node || seen.contains(b) {
                        continue;
                    }
                    let mut t = trail.clone();
                    t.push((*a, *b));
                    if *b == to {
                        return Some(t);
                    }
                    seen.push(b);
                    stack.push((b, t));
                }
            }
            None
        }
    }

    fn graph() -> &'static Mutex<Graph> {
        static GRAPH: OnceLock<Mutex<Graph>> = OnceLock::new();
        GRAPH.get_or_init(|| Mutex::new(Graph::default()))
    }

    fn lock_graph() -> std::sync::MutexGuard<'static, Graph> {
        graph().lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Run the rank + lock-order checks for acquiring `rank` at `site`,
    /// panicking (with nothing held by us) on a violation. Does not yet mark
    /// the lock as held — call [`push_held`] after the real acquisition.
    pub(crate) fn check_acquire(rank: &'static Rank, addr: usize, site: Site) {
        let held: Vec<Held> = HELD.with(|h| h.borrow().clone());
        if held.is_empty() {
            return;
        }
        for h in &held {
            if h.addr == addr {
                panic!(
                    "lock-order violation: re-entrant acquisition of `{}` at {} (already held since {})",
                    rank.name, site, h.site
                );
            }
            if rank.order > 0 && h.rank.order > 0 && h.rank.order >= rank.order {
                panic!(
                    "lock-rank inversion: acquiring `{}` (rank {}) at {} while holding `{}` (rank {}) acquired at {} — ranks must be strictly ascending",
                    rank.name, rank.order, site, h.rank.name, h.rank.order, h.site
                );
            }
        }
        // Record edges held → new and check for cycles through the new edges.
        let mut cycle: Option<String> = None;
        {
            let mut g = lock_graph();
            for h in &held {
                if h.rank.name == rank.name {
                    continue;
                }
                if let Some(path) = g.path(rank.name, h.rank.name) {
                    // Adding h.rank.name -> rank.name would close a cycle.
                    let back = path
                        .iter()
                        .map(|(a, b)| {
                            let e = &g.edges[&(*a, *b)];
                            format!(
                                "`{}` (held at {}) then `{}` (acquired at {})",
                                a, e.from_site, b, e.to_site
                            )
                        })
                        .collect::<Vec<_>>()
                        .join("; ");
                    cycle = Some(format!(
                        "lock-order cycle: this thread acquires `{}` at {} while holding `{}` (acquired at {}), \
                         but the opposite order was witnessed earlier: {}",
                        rank.name, site, h.rank.name, h.site, back
                    ));
                    break;
                }
                g.edges.entry((h.rank.name, rank.name)).or_insert(Edge {
                    from_site: h.site,
                    to_site: site,
                });
            }
        }
        if let Some(msg) = cycle {
            panic!("{msg}");
        }
    }

    pub(crate) fn push_held(rank: &'static Rank, addr: usize, site: Site) {
        HELD.with(|h| h.borrow_mut().push(Held { rank, site, addr }));
    }

    /// Remove the most recent held entry for `addr` (guards may be dropped
    /// out of acquisition order).
    pub(crate) fn pop_held(addr: usize) {
        HELD.with(|h| {
            let mut v = h.borrow_mut();
            if let Some(i) = v.iter().rposition(|e| e.addr == addr) {
                v.remove(i);
            }
        });
    }

    /// Panic unless the lock at `addr` is the most recently acquired one.
    pub(crate) fn check_wait_top(addr: usize, site: Site) {
        HELD.with(|h| {
            let v = h.borrow();
            match v.last() {
                Some(top) if top.addr == addr => {}
                Some(top) => {
                    panic!(
                    "condvar wait at {} releases `{}` while still holding `{}` (acquired at {}) — \
                     the waited mutex must be the innermost held lock",
                    site, v.iter().rfind(|e| e.addr == addr).map(|e| e.rank.name).unwrap_or("?"),
                    top.rank.name, top.site
                )
                }
                None => panic!("condvar wait at {site} without the mutex held (sync-layer bug)"),
            }
        });
    }

    /// Enforce the blocking-while-locked rule for a region labelled `label`.
    pub(crate) fn check_blocking(label: &str, site: Site) {
        HELD.with(|h| {
            for e in h.borrow().iter() {
                if !e.rank.blocking_ok {
                    panic!(
                        "blocking region `{}` entered at {} while holding `{}` (rank {}, acquired at {}) — \
                         this lock's rank does not allow blocking syscalls; release it first or mark the rank blocking_ok",
                        label, site, e.rank.name, e.rank.order, e.site
                    );
                }
            }
        });
    }

    // ---- seeded-mutant registry -------------------------------------------

    fn mutants() -> &'static Mutex<HashMap<&'static str, bool>> {
        static M: OnceLock<Mutex<HashMap<&'static str, bool>>> = OnceLock::new();
        M.get_or_init(|| Mutex::new(HashMap::new()))
    }

    pub(crate) fn mutant_armed(name: &str) -> bool {
        // Mutants only fire on threads owned by the schedule explorer, so a
        // model test arming one can never perturb concurrently running
        // ordinary tests in the same process.
        if !crate::sched::is_model_thread() {
            return false;
        }
        mutants()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .copied()
            .unwrap_or(false)
    }

    pub(crate) fn arm_mutant(name: &'static str) {
        mutants()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name, true);
    }

    pub(crate) fn clear_mutants() {
        mutants().lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

#[cfg(any(debug_assertions, feature = "analysis"))]
pub mod sched;

// ---- seeded mutants --------------------------------------------------------

/// Is the seeded concurrency mutant `name` armed for the current thread?
///
/// Production code guards intentionally-buggy alternate paths with this so
/// the schedule explorer's model tests can prove they would be caught. It is
/// `false` unless (a) instrumentation is compiled in, (b) a model test armed
/// the mutant via [`arm_mutant`], and (c) the current thread belongs to the
/// schedule explorer — so ordinary tests and production never take the buggy
/// path. In release builds without `analysis` this is a literal `false`.
#[inline]
#[allow(clippy::needless_return)]
pub fn mutant(name: &str) -> bool {
    #[cfg(any(debug_assertions, feature = "analysis"))]
    {
        return imp::mutant_armed(name);
    }
    #[cfg(not(any(debug_assertions, feature = "analysis")))]
    {
        let _ = name;
        false
    }
}

/// Arm the seeded mutant `name` for subsequent model-thread checks.
/// No-op in release builds without `analysis`.
pub fn arm_mutant(name: &'static str) {
    #[cfg(any(debug_assertions, feature = "analysis"))]
    imp::arm_mutant(name);
    #[cfg(not(any(debug_assertions, feature = "analysis")))]
    let _ = name;
}

/// Disarm all seeded mutants.
pub fn clear_mutants() {
    #[cfg(any(debug_assertions, feature = "analysis"))]
    imp::clear_mutants();
}

// ---- blocking regions ------------------------------------------------------

/// Guard marking a region that performs a blocking syscall (fsync, socket
/// read/write). Constructed via [`blocking_region`].
#[must_use = "the blocking region ends when this guard is dropped"]
pub struct BlockingGuard {
    _priv: (),
}

/// Declare that the code until the returned guard drops may block in a
/// syscall. Under analysis, panics if the current thread holds any lock
/// whose rank is not `blocking_ok`. Zero-cost in release.
#[track_caller]
#[inline]
pub fn blocking_region(label: &str) -> BlockingGuard {
    #[cfg(any(debug_assertions, feature = "analysis"))]
    imp::check_blocking(label, Location::caller());
    #[cfg(not(any(debug_assertions, feature = "analysis")))]
    let _ = label;
    BlockingGuard { _priv: () }
}

// ---- Mutex -----------------------------------------------------------------

/// Ranked, instrumented drop-in for [`std::sync::Mutex`].
///
/// [`Mutex::lock`] recovers poison (returning the inner data) — the
/// workspace's poisoning policy is handled explicitly at the few sites that
/// care, via [`Mutex::is_poisoned`] / [`Mutex::clear_poison`].
pub struct Mutex<T: ?Sized> {
    #[cfg(any(debug_assertions, feature = "analysis"))]
    rank: &'static Rank,
    inner: std::sync::Mutex<T>,
}

/// Guard returned by [`Mutex::lock`]; releases the lock (and pops it from the
/// analysis held-stack) on drop.
#[must_use = "if unused the Mutex will immediately unlock"]
pub struct MutexGuard<'a, T: ?Sized> {
    // Dropped before the bookkeeping in `Drop::drop` runs.
    inner: Option<std::sync::MutexGuard<'a, T>>,
    lock: &'a Mutex<T>,
}

impl<T> Mutex<T> {
    /// Create a ranked mutex. `rank` should be one of the statics in
    /// [`rank`] (or a test-local static for analyzer self-tests).
    pub const fn new(rank: &'static Rank, value: T) -> Self {
        #[cfg(not(any(debug_assertions, feature = "analysis")))]
        let _ = rank;
        Mutex {
            #[cfg(any(debug_assertions, feature = "analysis"))]
            rank,
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    #[cfg(any(debug_assertions, feature = "analysis"))]
    fn addr(&self) -> usize {
        self as *const _ as *const u8 as usize
    }

    /// Acquire the mutex, recovering poison. Under analysis this first runs
    /// the rank / lock-order checks (panicking on a violation *before*
    /// blocking) and registers the acquisition on the per-thread stack.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(any(debug_assertions, feature = "analysis"))]
        {
            let site = Location::caller();
            imp::check_acquire(self.rank, self.addr(), site);
            sched::lock_acquire(self.addr());
            let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            imp::push_held(self.rank, self.addr(), site);
            MutexGuard {
                inner: Some(g),
                lock: self,
            }
        }
        #[cfg(not(any(debug_assertions, feature = "analysis")))]
        {
            MutexGuard {
                inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
                lock: self,
            }
        }
    }

    /// Whether a thread panicked while holding this mutex. Passthrough to
    /// [`std::sync::Mutex::is_poisoned`].
    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }

    /// Clear the poison flag. Passthrough to [`std::sync::Mutex::clear_poison`].
    pub fn clear_poison(&self) {
        self.inner.clear_poison();
    }

    /// Consume the mutex, returning the inner value (poison recovered).
    pub fn into_inner(self) -> T
    where
        T: Sized,
    {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    /// Mutable access without locking (requires `&mut self`, so exclusive).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match self.inner.as_ref() {
            Some(g) => g,
            // `inner` is only None transiently inside Drop.
            None => unreachable!("MutexGuard used after release"),
        }
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match self.inner.as_mut() {
            Some(g) => g,
            None => unreachable!("MutexGuard used after release"),
        }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(any(debug_assertions, feature = "analysis"))]
        {
            imp::pop_held(self.lock.addr());
            self.inner = None; // release the std lock
            sched::lock_release(self.lock.addr());
        }
        #[cfg(not(any(debug_assertions, feature = "analysis")))]
        {
            let _ = &self.lock;
        }
    }
}

// ---- RwLock ----------------------------------------------------------------

/// Ranked, instrumented drop-in for [`std::sync::RwLock`]. Poison is
/// recovered on both `read` and `write`.
pub struct RwLock<T: ?Sized> {
    #[cfg(any(debug_assertions, feature = "analysis"))]
    rank: &'static Rank,
    inner: std::sync::RwLock<T>,
}

/// Shared-read guard returned by [`RwLock::read`].
#[must_use = "if unused the RwLock will immediately unlock"]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
    lock: &'a RwLock<T>,
}

/// Exclusive-write guard returned by [`RwLock::write`].
#[must_use = "if unused the RwLock will immediately unlock"]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
    lock: &'a RwLock<T>,
}

impl<T> RwLock<T> {
    /// Create a ranked reader-writer lock.
    pub const fn new(rank: &'static Rank, value: T) -> Self {
        #[cfg(not(any(debug_assertions, feature = "analysis")))]
        let _ = rank;
        RwLock {
            #[cfg(any(debug_assertions, feature = "analysis"))]
            rank,
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    #[cfg(any(debug_assertions, feature = "analysis"))]
    fn addr(&self) -> usize {
        self as *const _ as *const u8 as usize
    }

    /// Acquire a shared read guard (poison recovered, analysis-checked).
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(any(debug_assertions, feature = "analysis"))]
        {
            let site = Location::caller();
            imp::check_acquire(self.rank, self.addr(), site);
            sched::rw_acquire(self.addr(), false);
            let g = self.inner.read().unwrap_or_else(|e| e.into_inner());
            imp::push_held(self.rank, self.addr(), site);
            RwLockReadGuard {
                inner: Some(g),
                lock: self,
            }
        }
        #[cfg(not(any(debug_assertions, feature = "analysis")))]
        {
            RwLockReadGuard {
                inner: Some(self.inner.read().unwrap_or_else(|e| e.into_inner())),
                lock: self,
            }
        }
    }

    /// Acquire the exclusive write guard (poison recovered, analysis-checked).
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(any(debug_assertions, feature = "analysis"))]
        {
            let site = Location::caller();
            imp::check_acquire(self.rank, self.addr(), site);
            sched::rw_acquire(self.addr(), true);
            let g = self.inner.write().unwrap_or_else(|e| e.into_inner());
            imp::push_held(self.rank, self.addr(), site);
            RwLockWriteGuard {
                inner: Some(g),
                lock: self,
            }
        }
        #[cfg(not(any(debug_assertions, feature = "analysis")))]
        {
            RwLockWriteGuard {
                inner: Some(self.inner.write().unwrap_or_else(|e| e.into_inner())),
                lock: self,
            }
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match self.inner.as_ref() {
            Some(g) => g,
            None => unreachable!("RwLockReadGuard used after release"),
        }
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(any(debug_assertions, feature = "analysis"))]
        {
            imp::pop_held(self.lock.addr());
            self.inner = None;
            sched::rw_release(self.lock.addr(), false);
        }
        #[cfg(not(any(debug_assertions, feature = "analysis")))]
        {
            let _ = &self.lock;
        }
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match self.inner.as_ref() {
            Some(g) => g,
            None => unreachable!("RwLockWriteGuard used after release"),
        }
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match self.inner.as_mut() {
            Some(g) => g,
            None => unreachable!("RwLockWriteGuard used after release"),
        }
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(any(debug_assertions, feature = "analysis"))]
        {
            imp::pop_held(self.lock.addr());
            self.inner = None;
            sched::rw_release(self.lock.addr(), true);
        }
        #[cfg(not(any(debug_assertions, feature = "analysis")))]
        {
            let _ = &self.lock;
        }
    }
}

// ---- Condvar ---------------------------------------------------------------

/// Result of [`Condvar::wait_timeout`]. Mirrors
/// [`std::sync::WaitTimeoutResult`], which cannot be constructed outside std.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Did the wait end because the timeout elapsed (as opposed to a notify
    /// or an injected spurious wake)?
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Instrumented drop-in for [`std::sync::Condvar`].
///
/// Beyond passthrough behavior it supports **spurious-wakeup injection**
/// ([`Condvar::inject_spurious`]) for regression-testing predicate loops, and
/// under the schedule explorer its waits become controlled yield points.
pub struct Condvar {
    inner: std::sync::Condvar,
    #[cfg(any(debug_assertions, feature = "analysis"))]
    spurious: AtomicUsize,
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
            #[cfg(any(debug_assertions, feature = "analysis"))]
            spurious: AtomicUsize::new(0),
        }
    }

    #[cfg(any(debug_assertions, feature = "analysis"))]
    fn addr(&self) -> usize {
        self as *const _ as *const u8 as usize
    }

    /// Arrange for the next `n` waits on this condvar to return immediately
    /// as spurious wakeups (no notify, `timed_out() == false`). Lets tests
    /// prove every wait site loops on its predicate. No-op (returning
    /// `false`) in release builds without `analysis`.
    pub fn inject_spurious(&self, n: usize) -> bool {
        #[cfg(any(debug_assertions, feature = "analysis"))]
        {
            self.spurious.fetch_add(n, Ordering::SeqCst);
            true
        }
        #[cfg(not(any(debug_assertions, feature = "analysis")))]
        {
            let _ = n;
            false
        }
    }

    #[cfg(any(debug_assertions, feature = "analysis"))]
    fn take_spurious(&self) -> bool {
        self.spurious
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
    }

    /// Block until notified (poison recovered on re-acquire).
    #[track_caller]
    #[allow(clippy::needless_return)]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        #[cfg(any(debug_assertions, feature = "analysis"))]
        {
            return self.wait_impl(guard, None).0;
        }
        #[cfg(not(any(debug_assertions, feature = "analysis")))]
        {
            let lock = guard.lock;
            let mut g = guard;
            let std_guard = match g.inner.take() {
                Some(s) => s,
                None => unreachable!("wait on released guard"),
            };
            std::mem::forget(g); // bookkeeping-free Drop in release, but avoid double-release
            let s = self
                .inner
                .wait(std_guard)
                .unwrap_or_else(|e| e.into_inner());
            MutexGuard {
                inner: Some(s),
                lock,
            }
        }
    }

    /// Block until notified or `dur` elapses (poison recovered).
    #[track_caller]
    #[allow(clippy::needless_return)]
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        #[cfg(any(debug_assertions, feature = "analysis"))]
        {
            return self.wait_impl(guard, Some(dur));
        }
        #[cfg(not(any(debug_assertions, feature = "analysis")))]
        {
            let lock = guard.lock;
            let mut g = guard;
            let std_guard = match g.inner.take() {
                Some(s) => s,
                None => unreachable!("wait on released guard"),
            };
            std::mem::forget(g);
            let (s, r) = self
                .inner
                .wait_timeout(std_guard, dur)
                .unwrap_or_else(|e| e.into_inner());
            (
                MutexGuard {
                    inner: Some(s),
                    lock,
                },
                WaitTimeoutResult {
                    timed_out: r.timed_out(),
                },
            )
        }
    }

    #[cfg(any(debug_assertions, feature = "analysis"))]
    #[track_caller]
    fn wait_impl<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Option<Duration>,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        let site = Location::caller();
        let lock = guard.lock;
        imp::check_wait_top(lock.addr(), site);

        // Injected spurious wakeup: return immediately, predicate unfulfilled.
        if self.take_spurious() {
            return (guard, WaitTimeoutResult { timed_out: false });
        }

        if sched::is_model_thread() {
            // Controlled wait: drop the real guard (releasing the std mutex),
            // then atomically hand the scheduler the release + wait — a
            // separate release yield point would let a notify slip into the
            // gap and model a lost wakeup real condvars cannot exhibit.
            let mut g = guard;
            imp::pop_held(lock.addr());
            g.inner = None;
            std::mem::forget(g);
            let timed_out = sched::cv_wait(self.addr(), lock.addr(), dur);
            // Granted means the scheduler has already reserved the mutex for
            // us; take the (now uncontended) std lock.
            let s = lock.inner.lock().unwrap_or_else(|e| e.into_inner());
            imp::push_held(lock.rank, lock.addr(), site);
            return (
                MutexGuard {
                    inner: Some(s),
                    lock,
                },
                WaitTimeoutResult { timed_out },
            );
        }

        // Plain instrumented wait: keep the held-stack accurate across the
        // release/re-acquire inside std's wait.
        let mut g = guard;
        imp::pop_held(lock.addr());
        let std_guard = match g.inner.take() {
            Some(s) => s,
            None => unreachable!("wait on released guard"),
        };
        std::mem::forget(g);
        let (s, timed_out) = match dur {
            Some(d) => {
                let (s, r) = self
                    .inner
                    .wait_timeout(std_guard, d)
                    .unwrap_or_else(|e| e.into_inner());
                (s, r.timed_out())
            }
            None => (
                self.inner
                    .wait(std_guard)
                    .unwrap_or_else(|e| e.into_inner()),
                false,
            ),
        };
        imp::push_held(lock.rank, lock.addr(), site);
        (
            MutexGuard {
                inner: Some(s),
                lock,
            },
            WaitTimeoutResult { timed_out },
        )
    }

    /// Wake one waiter (FIFO under the schedule explorer).
    pub fn notify_one(&self) {
        #[cfg(any(debug_assertions, feature = "analysis"))]
        if sched::is_model_thread() {
            sched::cv_notify(self.addr(), false);
            return;
        }
        self.inner.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        #[cfg(any(debug_assertions, feature = "analysis"))]
        if sched::is_model_thread() {
            sched::cv_notify(self.addr(), true);
            return;
        }
        self.inner.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}
