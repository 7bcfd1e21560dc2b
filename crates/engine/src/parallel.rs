//! Morsel-driven intra-query parallelism.
//!
//! The paper's RewriteClean queries are scan-heavy GROUP BY / SUM(prob)
//! aggregations over large dirty relations: almost all of their work is
//! the streaming part of the plan — scanning the fact table, filtering,
//! and probing hash tables — which parallelizes embarrassingly. This
//! module splits the *spine* of a plan (the chain of probe inputs from
//! the root join down to its driving base-table scan) into fixed-size
//! **morsels** of [`MORSEL_SIZE`] rows, hands them to a pool of worker
//! threads ([`ExecContext::threads`], CLI `\limit threads`, env
//! `CONQUER_THREADS`), and gathers the results.
//!
//! There is no second executor here. [`drive`] receives the ordinary
//! operator tree `exec.rs` built, and a worker runs a **fork** of that
//! tree's probe chain over its morsel ([`TupleOp::fork`]): the same
//! `Scan`, `Filter`, `IndexJoin` and hash-probe code, bounded to a row
//! range. A worker's output is position tuples into the query's pinned
//! tables — no cell is copied on a worker. This module owns only the
//! threading — the morsel queue, the in-order reorder buffer of `Tuples`
//! morsels, the [`GatherSource`].
//!
//! ## The deterministic-merge rule
//!
//! Clean-answer probabilities are `SUM`s over `f64`, and float addition
//! is not associative — a parallel sum in arrival order would change in
//! the last bits from run to run. The engine therefore promises more
//! than "equal up to float noise": **query results are bit-identical for
//! every thread count**, enforced by `tests/parallel_equivalence.rs` and
//! a property test. Three rules make that hold:
//!
//! 1. **Workers are pure.** A fork holds no state of its own: its scan
//!    reads a row range, its filters and index probes are stateless, and
//!    its hash probes borrow build tables the consumer thread finished
//!    before the pool started. It never touches shared mutable state,
//!    never charges the memory budget, and never spills — the operators
//!    that do are exactly the ones that do not fork.
//! 2. **The consumer merges in morsel order.** Worker outputs pass
//!    through a bounded reorder buffer and are consumed strictly in
//!    morsel index order by the [`GatherSource`]; the downstream
//!    stateful stages (aggregation, DISTINCT, sort, limit, the result
//!    buffer — *including* their spill-to-disk paths) are the exact
//!    serial operators running on the one consumer thread. A fork over
//!    `[lo, hi)` is the serial operator code over that range, so the
//!    concatenation of forks in morsel order *is* the serial row
//!    sequence, and sums, group order, and spill decisions cannot depend
//!    on scheduling.
//! 3. **Builds come first, and declining is free.** The pool is
//!    `min(threads, morsels of the driving table)` workers; when that is
//!    more than one, [`drive`] forces the spine's hash-join builds on
//!    the consumer thread, top join first — the very step a serial pull
//!    would take first ([`OpNode::prepare_spine`]) — and if the prepared
//!    chain forks, the pool runs. Otherwise — one thread, a driving
//!    table of at most one morsel, a cross join on the spine, or a build
//!    that outgrew the budget and went to grace mode — the driver just
//!    keeps pulling the tree it has: nothing is drained, released or run
//!    twice. The choice depends only on plan, data and budget, never on
//!    scheduling.
//!
//! Memory for in-flight worker output is bounded structurally instead of
//! via the budget meter: the reorder buffer holds at most a few morsels
//! of position tuples per worker ahead of the consumer, and producers
//! block (with cancellation-aware timed waits) until the consumer catches
//! up.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use conquer_sync::{rank, Condvar, Mutex, MutexGuard};

use conquer_storage::Row;

use crate::context::ExecContext;
use crate::error::EngineError;
use crate::exec::{
    drain_root, finish_pipeline, gather_node, Layout, Metrics, TupleOp, Tuples, BATCH_SIZE,
};
use crate::planner::Plan;
use crate::stats::OpStats;
use crate::Result;

/// Rows per morsel. Big enough that per-morsel overhead (one claim, one
/// reorder-buffer handoff) is noise; small enough that a scan splits
/// into many more morsels than workers, so the pool load-balances
/// around skewed filters.
pub(crate) const MORSEL_SIZE: usize = 4096;

/// Morsel results the reorder buffer may hold ahead of the consumer,
/// per worker (plus a constant couple). Bounds worker memory without
/// touching the budget meter.
const SLACK_PER_WORKER: usize = 2;

/// Timed-wait slice for blocked producers/consumers. Every wait rechecks
/// the abort flag (and, on the consumer, the context's cancellation and
/// deadline guards), so a cancelled query unblocks within this bound.
const WAIT_SLICE: Duration = Duration::from_millis(20);

// ---------------------------------------------------------------------------
// Worker pool plumbing
// ---------------------------------------------------------------------------

struct QueueInner {
    next_consume: usize,
    ready: BTreeMap<usize, Result<Tuples>>,
    workers_alive: usize,
}

/// The morsel dispatcher and bounded reorder buffer shared by the
/// worker pool and the consumer.
struct SharedQueue {
    n_morsels: usize,
    cap: usize,
    next_claim: AtomicUsize,
    abort: AtomicBool,
    inner: Mutex<QueueInner>,
    /// Consumer waits here for the next in-order morsel.
    ready_cv: Condvar,
    /// Producers wait here for reorder-buffer space.
    space_cv: Condvar,
}

impl SharedQueue {
    fn new(n_morsels: usize, workers: usize) -> SharedQueue {
        SharedQueue {
            n_morsels,
            cap: workers * SLACK_PER_WORKER + 2,
            next_claim: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            inner: Mutex::new(
                &rank::PARALLEL_QUEUE,
                QueueInner {
                    next_consume: 0,
                    ready: BTreeMap::new(),
                    workers_alive: workers,
                },
            ),
            ready_cv: Condvar::new(),
            space_cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueInner> {
        // A worker that panicked while holding the lock is already a
        // failed query; the sync wrapper recovers the poison.
        self.inner.lock()
    }

    /// Claim the next unprocessed morsel index; `None` when the scan is
    /// exhausted or the query is shutting down.
    fn claim(&self) -> Option<usize> {
        if self.abort.load(Ordering::Relaxed) {
            return None;
        }
        let i = self.next_claim.fetch_add(1, Ordering::Relaxed);
        (i < self.n_morsels).then_some(i)
    }

    /// Stop the pool: wake every blocked worker and consumer. Called on
    /// error, cancellation, early LIMIT stop, and normal completion.
    fn shut_down(&self) {
        self.abort.store(true, Ordering::Relaxed);
        drop(self.lock());
        self.ready_cv.notify_all();
        self.space_cv.notify_all();
    }

    /// Deliver one morsel's result, blocking while the reorder buffer is
    /// more than `cap` morsels ahead of the consumer.
    fn push(&self, idx: usize, result: Result<Tuples>) {
        let mut inner = self.lock();
        while !self.abort.load(Ordering::Relaxed) && idx >= inner.next_consume + self.cap {
            let (g, _) = self.space_cv.wait_timeout(inner, WAIT_SLICE);
            inner = g;
        }
        if self.abort.load(Ordering::Relaxed) {
            return;
        }
        inner.ready.insert(idx, result);
        self.ready_cv.notify_all();
    }

    /// The next in-order morsel result; `Ok(None)` once every morsel was
    /// consumed. Checks the context's cancellation/deadline guards while
    /// waiting so a blocked consumer still aborts promptly.
    fn pop_next(&self, ctx: &ExecContext) -> Result<Option<Tuples>> {
        let mut inner = self.lock();
        loop {
            let idx = inner.next_consume;
            if idx >= self.n_morsels {
                return Ok(None);
            }
            if let Some(res) = inner.ready.remove(&idx) {
                inner.next_consume = idx + 1;
                self.space_cv.notify_all();
                return res.map(Some);
            }
            if inner.workers_alive == 0 && self.next_claim.load(Ordering::Relaxed) > idx {
                return Err(EngineError::internal(
                    "parallel worker pool exited before delivering every morsel",
                ));
            }
            ctx.tick()?;
            let (g, _) = self.ready_cv.wait_timeout(inner, WAIT_SLICE);
            inner = g;
        }
    }

    /// Block until every worker has exited (they decrement
    /// `workers_alive` on the way out, panic included).
    fn wait_idle(&self) {
        let mut inner = self.lock();
        while inner.workers_alive > 0 {
            let (g, _) = self.ready_cv.wait_timeout(inner, WAIT_SLICE);
            inner = g;
        }
    }
}

/// Decrements `workers_alive` when a worker exits, however it exits.
struct AliveGuard<'a>(&'a SharedQueue);

impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        self.0.lock().workers_alive -= 1;
        self.0.ready_cv.notify_all();
    }
}

/// Pull a fork of `template` over each morsel this worker claims.
/// Pure: a fork reads shared immutable state and writes only its own
/// output. The forks' counters are summed locally and handed to
/// `metrics` on exit (commutative `u64` and `Duration` addition, so merge
/// order cannot matter).
fn worker_loop(
    template: &TupleOp<'_>,
    shared: &SharedQueue,
    ctx: &ExecContext,
    metrics: &Mutex<Vec<Vec<Metrics>>>,
) {
    let _guard = AliveGuard(shared);
    let mut chain = Vec::new();
    while let Some(i) = shared.claim() {
        let lo = i * MORSEL_SIZE;
        let result = match template.fork(lo, lo + MORSEL_SIZE) {
            Some(mut fork) => {
                let pulled = fork.drain(ctx);
                fork.add_metrics_to(&mut chain);
                pulled
            }
            None => Err(EngineError::internal(
                "prepared spine stopped forking mid-query",
            )),
        };
        let failed = result.is_err();
        shared.push(i, result);
        if failed {
            break;
        }
    }
    metrics.lock().push(chain);
}

// ---------------------------------------------------------------------------
// The gather source (consumer end)
// ---------------------------------------------------------------------------

/// Pipeline source that re-emits worker output strictly in morsel order,
/// re-batched to [`BATCH_SIZE`] tuples. Mounted under the ordinary serial
/// stages by [`drive`].
pub(crate) struct GatherSource<'a> {
    shared: &'a SharedQueue,
    /// The morsel being re-emitted, and how many of its tuples were.
    pending: Tuples,
    emitted: usize,
    /// Build-table bytes still charged to the budget; handed back the
    /// moment the stream ends (the serial hash join releases its build
    /// map when the probe side is exhausted — before downstream merge
    /// phases and the result buffer charge — and tight-budget spill
    /// plans depend on that timing). `swap(0)` keeps it idempotent with
    /// the driver's safety-net release on early stops.
    build_mem: &'a AtomicU64,
}

impl GatherSource<'_> {
    pub(crate) fn next_batch(&mut self, ctx: &ExecContext) -> Result<Option<Tuples>> {
        loop {
            let n = self.pending.len();
            if self.emitted < n {
                let from = self.emitted;
                self.emitted = n.min(from + BATCH_SIZE);
                return Ok(Some(self.pending.slice(from, self.emitted)));
            }
            match self.shared.pop_next(ctx)? {
                None => {
                    ctx.release(self.build_mem.swap(0, Ordering::Relaxed));
                    return Ok(None);
                }
                Some(tuples) => (self.pending, self.emitted) = (tuples, 0),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Run the post-join stages of `plan` over `join`, the operator tree of
/// its join (producing tuples `layout` describes): by pulling `join`
/// directly, or by pulling a gather of worker threads that pull forks of
/// it. Returns the result rows, the statistics tree, and the number of
/// threads that pulled the spine.
pub(crate) fn drive<'a>(
    mut join: TupleOp<'a>,
    layout: Layout<'a>,
    plan: &'a Plan,
    ctx: &ExecContext,
) -> Result<(Vec<Row>, OpStats, usize)> {
    // A one-thread "pool" computes exactly what pulling the tree
    // computes, but pays queue/condvar dispatch and parks the caller on
    // waits that only pool workers (invisible to the schedule explorer's
    // virtual threads) can satisfy. So the pool size is settled first,
    // from the table length alone, and nothing is prepared for a pool of
    // one.
    let n_morsels = join.driving_rows().map_or(0, |n| n.div_ceil(MORSEL_SIZE));
    let workers = ctx.threads().min(n_morsels);
    let build_mem = match workers {
        0 | 1 => None,
        _ => join.prepare_spine(ctx)?,
    };
    let Some(build_mem) = build_mem else {
        // Keep pulling: whatever `prepare_spine` consumed stays consumed.
        let mut root = finish_pipeline(join, layout, plan);
        let rows = drain_root(&mut root, ctx)?;
        return Ok((rows, root.harvest(), 1));
    };

    let shared = SharedQueue::new(n_morsels, workers);
    let build_mem = AtomicU64::new(build_mem);
    let metrics = Mutex::new(&rank::METRICS_STEPS, Vec::new());
    let src = GatherSource {
        shared: &shared,
        pending: Tuples::default(),
        emitted: 0,
        build_mem: &build_mem,
    };
    let mut root = finish_pipeline(gather_node(src), layout, plan);

    let pulled = std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| worker_loop(&join, &shared, ctx, &metrics));
        }
        let pulled = drain_root(&mut root, ctx);
        // Normal end, early LIMIT stop, error, cancellation: always shut
        // the pool down and wait for it, so worker counters are complete
        // and no thread outlives the query.
        shared.shut_down();
        shared.wait_idle();
        pulled
    });

    // Safety net for early stops (LIMIT, error, cancellation): whatever
    // the gather source didn't already hand back at end-of-stream.
    ctx.release(build_mem.swap(0, Ordering::Relaxed));
    let rows = pulled?;

    // What the forks did is reported on the operators that did it, under
    // the pipeline's `Gather` leaf. Times are summed across the pool, so
    // they can exceed wall time.
    for chain in metrics.into_inner() {
        join.absorb(&chain);
    }
    let mut stats = root.harvest();
    let mut gather = &mut stats;
    while !gather.children.is_empty() {
        let last = gather.children.len() - 1;
        gather = &mut gather.children[last];
    }
    gather.children.push(join.harvest());
    Ok((rows, stats, workers))
}
