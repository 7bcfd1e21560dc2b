//! Execution governance: cancellation, deadlines, memory and disk budgets.
//!
//! A runaway query — the paper's GROUP BY / SUM(prob) rewritings fan out
//! over duplicate clusters and can explode on skewed dirty data — must not
//! take the whole process down. Every query therefore runs under an
//! [`ExecContext`] carrying cooperative guards:
//!
//! * a [`CancelToken`] another thread can trip at any time,
//! * a wall-clock **deadline** derived from [`ExecLimits::timeout`],
//! * a **memory budget** ([`ExecLimits::mem_bytes`]) charged by every
//!   operator that materializes state (hash-join builds, aggregation
//!   tables, sort buffers, DISTINCT sets, and the final result buffer),
//! * a **disk budget** ([`ExecLimits::disk_bytes`]) charged by the spill
//!   files external-memory operators write when the memory budget is
//!   too small for their working set.
//!
//! The escalation ladder under memory pressure is *budget → spill →
//! [`EngineError::ResourceExhausted`]*: every charge hash join, hash
//! aggregation and sort make first tries to stay in memory
//! ([`ExecContext::try_charge`]); when that fails it falls back to
//! checksummed spill files on disk (see [`conquer_storage::spill`])
//! unless the disk budget is zero or the passes are used up; otherwise it
//! charges hard ([`ExecContext::charge`]), which aborts past the memory
//! budget. Writing past the disk budget aborts too. Operators without an
//! external-memory strategy (cross join, DISTINCT, the result buffer)
//! always charge the memory budget hard. Exceeding any guard aborts the
//! query with a *typed* error ([`EngineError::ResourceExhausted`] /
//! [`EngineError::Timeout`] / [`EngineError::Cancelled`]) instead of
//! OOM-killing or hanging the process; the database stays fully usable
//! afterwards.
//!
//! Checks are cooperative and batched: the executor calls
//! [`ExecContext::tick`] once per operator batch (≤1024 rows) *and* every
//! few hundred rows inside spill partition/merge loops, so cancellation
//! and deadline latency stays bounded even while a query is streaming
//! gigabytes through disk. Memory charged by spilling operators **is**
//! released when their state moves to disk ([`ExecContext::release`]);
//! [`ExecContext::mem_charged`] reports the high-water mark.
//!
//! Limits live in two places: the [`Database`](crate::Database) defaults
//! ([`Database::set_limits`](crate::Database::set_limits)) and each
//! [`Session`](crate::Session)'s own; any other context (other limits, a
//! shared [`CancelToken`]) goes through
//! [`Statement::query_with`](crate::Statement::query_with). Process-wide
//! defaults can come from the environment via [`ExecLimits::from_env`].

use std::cell::{Cell, OnceCell};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use conquer_storage::spill::SpillSession;

use crate::error::EngineError;
use crate::Result;

/// Resource limits applied to a single query execution.
///
/// The default is unlimited; tighten it with the `with_*` methods:
///
/// ```
/// use std::time::Duration;
/// use conquer_engine::ExecLimits;
///
/// let limits = ExecLimits::none()
///     .with_mem_bytes(64 << 20)
///     .with_disk_bytes(1 << 30)
///     .with_timeout(Duration::from_secs(5));
/// assert!(!limits.is_unlimited());
/// ```
///
/// The struct is `#[non_exhaustive]`: new budget fields (admission queue
/// slots, per-session row caps, …) can be added without breaking callers,
/// who construct limits through those methods rather than struct literals.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecLimits {
    /// Maximum bytes of materialized operator state (hash tables, sort
    /// buffers, result rows) a single query may hold. `None` = unlimited.
    pub mem_bytes: Option<u64>,
    /// Maximum bytes of spill-file state a single query may write to disk
    /// once it exceeds its memory budget. `None` = unlimited disk;
    /// `Some(0)` disables spilling entirely, restoring the hard
    /// memory-abort behavior.
    pub disk_bytes: Option<u64>,
    /// Maximum wall-clock time a single query may run. `None` = unlimited.
    pub timeout: Option<Duration>,
}

impl ExecLimits {
    /// No limits (the default).
    pub fn none() -> Self {
        ExecLimits::default()
    }

    /// This limit set with a memory budget of `bytes`.
    pub fn with_mem_bytes(mut self, bytes: u64) -> Self {
        self.mem_bytes = Some(bytes);
        self
    }

    /// This limit set with a spill-disk budget of `bytes` (`0` disables
    /// spilling).
    pub fn with_disk_bytes(mut self, bytes: u64) -> Self {
        self.disk_bytes = Some(bytes);
        self
    }

    /// This limit set with a wall-clock timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// True when no memory budget, disk budget, or timeout is set.
    pub fn is_unlimited(&self) -> bool {
        self.mem_bytes.is_none() && self.disk_bytes.is_none() && self.timeout.is_none()
    }

    /// Limits taken from the environment, for forcing a process-wide
    /// default (CI runs the whole suite this way to exercise spilling):
    ///
    /// * `CONQUER_MEM_BUDGET` — memory budget in bytes
    /// * `CONQUER_DISK_BUDGET` — spill-disk budget in bytes (`0` disables
    ///   spilling)
    /// * `CONQUER_TIMEOUT_MS` — wall-clock timeout in milliseconds
    ///
    /// Unset or unparsable variables leave the corresponding limit
    /// unlimited.
    pub fn from_env() -> Self {
        fn parse(var: &str) -> Option<u64> {
            std::env::var(var).ok()?.trim().parse().ok()
        }
        ExecLimits {
            mem_bytes: parse("CONQUER_MEM_BUDGET"),
            disk_bytes: parse("CONQUER_DISK_BUDGET"),
            timeout: parse("CONQUER_TIMEOUT_MS").map(Duration::from_millis),
        }
    }
}

/// A cloneable handle that cancels an in-flight query.
///
/// Clone the token out of an [`ExecContext`] (or create one and pass it in
/// via [`ExecContext::with_token`]), hand it to another thread, and call
/// [`CancelToken::cancel`]; the executor notices at its next batch
/// boundary (or within a few hundred rows of a spill loop) and aborts
/// with [`EngineError::Cancelled`]. The token is the one part of a
/// query's governance another thread touches: it is `Send + Sync`, while
/// the context itself is not `Sync`.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; takes effect at the next
    /// cooperative check of every context sharing this token.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Per-execution governance state threaded through the operator pipeline.
///
/// Create one context per query execution: the deadline is computed from
/// [`ExecLimits::timeout`] at construction time, and the memory and disk
/// meters start at zero. The spill session (temp directory) is created
/// lazily by the first operator that spills and removed when the context
/// drops.
///
/// A query runs on the thread that calls it, so its context, meters and
/// spill session are that thread's alone: the context is `Send` (build it
/// on one thread, run the query on another) but not `Sync`. The one
/// handle another thread touches is the [`CancelToken`].
#[non_exhaustive]
#[derive(Debug)]
pub struct ExecContext {
    limits: ExecLimits,
    deadline: Option<Instant>,
    cancel: CancelToken,
    mem_used: Cell<u64>,
    mem_peak: Cell<u64>,
    disk_used: Cell<u64>,
    spill_base: Option<PathBuf>,
    spill: OnceCell<std::result::Result<SpillSession, String>>,
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext::new(ExecLimits::none())
    }
}

impl ExecContext {
    /// A context enforcing `limits`, with a fresh cancellation token. The
    /// deadline clock starts now.
    pub fn new(limits: ExecLimits) -> Self {
        ExecContext::with_token(limits, CancelToken::new())
    }

    /// A context enforcing `limits` and observing an existing (possibly
    /// shared) cancellation token.
    pub fn with_token(limits: ExecLimits, cancel: CancelToken) -> Self {
        ExecContext {
            deadline: limits.timeout.map(|t| Instant::now() + t),
            limits,
            cancel,
            mem_used: Cell::new(0),
            mem_peak: Cell::new(0),
            disk_used: Cell::new(0),
            spill_base: None,
            spill: OnceCell::new(),
        }
    }

    /// Set the directory under which this context's spill session is
    /// created when an operator first spills. Defaults to the OS temp
    /// directory; databases loaded from disk use their persistence
    /// directory so startup recovery can collect orphans.
    pub fn with_spill_base(mut self, base: impl Into<PathBuf>) -> Self {
        self.spill_base = Some(base.into());
        self
    }

    /// The limits this context enforces.
    pub fn limits(&self) -> &ExecLimits {
        &self.limits
    }

    /// A clone of this context's cancellation token, for handing to
    /// another thread.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// High-water mark of materialized operator state charged so far.
    pub fn mem_charged(&self) -> u64 {
        self.mem_peak.get()
    }

    /// Bytes of operator state charged and not yet released.
    pub(crate) fn mem_in_use(&self) -> u64 {
        self.mem_used.get()
    }

    /// Total bytes of spill-file state written to disk so far.
    pub fn disk_charged(&self) -> u64 {
        self.disk_used.get()
    }

    /// Cooperative cancellation/deadline check; called by the executor at
    /// every batch boundary and inside spill partition/merge loops.
    /// Returns [`EngineError::Cancelled`] or [`EngineError::Timeout`] when
    /// tripped.
    pub fn tick(&self) -> Result<()> {
        if self.cancel.is_cancelled() {
            return Err(EngineError::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(EngineError::Timeout {
                    limit: self.limits.timeout.unwrap_or_default(),
                });
            }
        }
        Ok(())
    }

    /// Set the memory meter to `now`, raising the high-water mark.
    fn set_mem(&self, now: u64) {
        self.mem_used.set(now);
        self.mem_peak.set(self.mem_peak.get().max(now));
    }

    /// Charge `bytes` of newly materialized operator state against the
    /// budget. Returns [`EngineError::ResourceExhausted`] when the charge
    /// would push the query past its memory limit (the charge is still
    /// recorded, so repeated calls keep failing).
    pub fn charge(&self, bytes: u64) -> Result<()> {
        let now = self.mem_used.get().saturating_add(bytes);
        self.set_mem(now);
        match self.limits.mem_bytes {
            Some(limit) if now > limit => Err(EngineError::ResourceExhausted {
                limit_bytes: limit,
                attempted_bytes: now,
            }),
            _ => Ok(()),
        }
    }

    /// Try to charge `bytes` against the memory budget. Unlike
    /// [`ExecContext::charge`], a failed attempt is **not** recorded, so a
    /// spilling operator can probe the budget, take the disk path instead,
    /// and leave the meter accurate.
    pub fn try_charge(&self, bytes: u64) -> bool {
        let now = self.mem_used.get().saturating_add(bytes);
        if self.limits.mem_bytes.is_some_and(|limit| now > limit) {
            return false;
        }
        self.set_mem(now);
        true
    }

    /// Credit back `bytes` of operator state that moved to disk or was
    /// dropped by a spilling operator. Saturates at zero.
    pub fn release(&self, bytes: u64) {
        self.mem_used.set(self.mem_used.get().saturating_sub(bytes));
    }

    /// Charge `bytes` written to spill files against the disk budget.
    /// Returns [`EngineError::ResourceExhausted`] when even the disk
    /// budget is exhausted — the end of the escalation ladder.
    pub fn charge_disk(&self, bytes: u64) -> Result<()> {
        let now = self.disk_used.get().saturating_add(bytes);
        self.disk_used.set(now);
        match self.limits.disk_bytes {
            Some(limit) if now > limit => Err(EngineError::ResourceExhausted {
                limit_bytes: limit,
                attempted_bytes: now,
            }),
            _ => Ok(()),
        }
    }

    /// The context's spill session, created on first use under the
    /// configured base directory (OS temp directory by default).
    pub fn spill(&self) -> Result<&SpillSession> {
        let entry = self.spill.get_or_init(|| {
            let base = self.spill_base.clone().unwrap_or_else(std::env::temp_dir);
            SpillSession::create_in(&base).map_err(|e| e.to_string())
        });
        match entry {
            Ok(session) => Ok(session),
            Err(e) => Err(EngineError::exec(format!(
                "could not create spill directory: {e}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_context_never_trips() {
        let ctx = ExecContext::default();
        ctx.tick().unwrap();
        ctx.charge(u64::MAX / 2).unwrap();
        ctx.tick().unwrap();
        assert_eq!(ctx.mem_charged(), u64::MAX / 2);
        // Without a memory budget no probe fails, so no operator spills.
        assert!(ctx.try_charge(u64::MAX / 2));
    }

    #[test]
    fn memory_budget_trips_with_typed_error() {
        let ctx = ExecContext::new(ExecLimits::none().with_mem_bytes(100));
        ctx.charge(60).unwrap();
        let err = ctx.charge(60).unwrap_err();
        match err {
            EngineError::ResourceExhausted {
                limit_bytes,
                attempted_bytes,
            } => {
                assert_eq!(limit_bytes, 100);
                assert_eq!(attempted_bytes, 120);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(err.is_governance());
    }

    #[test]
    fn try_charge_does_not_record_failed_attempts() {
        let ctx = ExecContext::new(ExecLimits::none().with_mem_bytes(100));
        assert!(ctx.try_charge(80));
        assert!(!ctx.try_charge(40));
        // The failed probe left the meter as it was, so this still fits.
        assert!(ctx.try_charge(20));
        assert_eq!(ctx.mem_charged(), 100);
    }

    #[test]
    fn release_credits_memory_back() {
        let ctx = ExecContext::new(ExecLimits::none().with_mem_bytes(100));
        assert!(ctx.try_charge(90));
        ctx.release(90);
        assert!(ctx.try_charge(90), "released bytes must be reusable");
        // Peak is a high-water mark, not the current meter.
        assert_eq!(ctx.mem_charged(), 90);
        ctx.release(1000); // saturates, no panic
    }

    #[test]
    fn disk_budget_trips_with_typed_error() {
        let ctx = ExecContext::new(ExecLimits::none().with_mem_bytes(100).with_disk_bytes(1000));
        ctx.charge_disk(800).unwrap();
        let err = ctx.charge_disk(800).unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::ResourceExhausted {
                    limit_bytes: 1000,
                    attempted_bytes: 1600,
                }
            ),
            "{err:?}"
        );
        assert_eq!(ctx.disk_charged(), 1600);
    }

    #[test]
    fn zero_timeout_trips_immediately() {
        let ctx = ExecContext::new(ExecLimits::none().with_timeout(Duration::ZERO));
        let err = ctx.tick().unwrap_err();
        assert!(matches!(err, EngineError::Timeout { .. }), "{err:?}");
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let token = CancelToken::new();
        let ctx = ExecContext::with_token(ExecLimits::none(), token.clone());
        ctx.tick().unwrap();
        token.cancel();
        assert_eq!(ctx.tick().unwrap_err(), EngineError::Cancelled);
        assert!(ctx.cancel_token().is_cancelled());
    }

    #[test]
    #[cfg_attr(miri, ignore)] // real file I/O
    fn spill_session_is_lazy_and_cleaned_up() {
        let base = std::env::temp_dir().join(format!("conquer_ctx_spill_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let ctx = ExecContext::new(ExecLimits::none().with_mem_bytes(1)).with_spill_base(&base);
        assert!(!base.exists(), "no spill dir before first use");
        let dir = ctx.spill().unwrap().dir().to_path_buf();
        assert!(dir.starts_with(&base) && dir.exists());
        drop(ctx);
        assert!(!dir.exists(), "spill dir removed when the context drops");
        std::fs::remove_dir_all(&base).ok();
    }
}
