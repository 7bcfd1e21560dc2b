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
//! ## The deterministic-merge rule
//!
//! Clean-answer probabilities are `SUM`s over `f64`, and float addition
//! is not associative — a parallel sum in arrival order would change in
//! the last bits from run to run. The engine therefore promises more
//! than "equal up to float noise": **query results are bit-identical for
//! every thread count**, enforced by `tests/parallel_equivalence.rs` and
//! a property test. Three rules make that hold:
//!
//! 1. **Workers are pure.** A worker evaluates only the streaming
//!    segment (scan filter → hash/index probes → residual filters) over
//!    its morsel. It never touches shared mutable state, never charges
//!    the memory budget, and never spills.
//! 2. **The consumer merges in morsel order.** Worker outputs pass
//!    through a bounded reorder buffer and are consumed strictly in
//!    morsel index order by the [`GatherSource`]; the downstream
//!    stateful stages (aggregation, DISTINCT, sort, limit, the result
//!    buffer — *including* their spill-to-disk paths) are the exact
//!    serial operators running on the one consumer thread. The row
//!    stream they see is the concatenation of morsel outputs in morsel
//!    order — the same sequence the serial executor produces — so sums,
//!    group order, and spill decisions cannot depend on scheduling.
//! 3. **Builds and fallback are decided before workers start.** Hash
//!    join build sides are prepared serially on the consumer thread. If
//!    a build outgrows the memory budget, the whole query falls back to
//!    the serial executor (whose grace hash join handles it); the
//!    decision depends only on data and budget, never on thread count.
//!
//! Memory for in-flight worker output is bounded structurally instead of
//! via the budget meter: the reorder buffer holds at most a few morsels
//! per worker ahead of the consumer, and producers block (with
//! cancellation-aware timed waits) until the consumer catches up.
//!
//! Plans whose spine contains a cross join run serially; everything else
//! — all thirteen of the paper's workload templates — runs here at any
//! thread count, including 1 (the same algorithm everywhere is what
//! makes `threads = k` trivially bit-identical to `threads = 1`).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use conquer_sync::{rank, Condvar, Mutex, MutexGuard};

use conquer_storage::{Catalog, Row, Table};

use crate::context::ExecContext;
use crate::error::EngineError;
use crate::exec::{
    assemble_stats, build_join, build_map_insert, carried_cells, concat_rows, drain_root,
    finish_pipeline, gather_node, index_join_path, join_estimate, join_keys, offsets_for, Batch,
    BuildMap, IndexPath, Ticker, BATCH_SIZE,
};
use crate::expr::{BoundExpr, Offsets};
use crate::planner::{scan_label, JoinNode, Plan};
use crate::result::QueryResult;
use crate::stats::{approx_row_bytes, approx_value_bytes, OpStats};
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
// Spine extraction
// ---------------------------------------------------------------------------

/// One streaming step of the spine, applied to every row a worker pushes
/// up from the scan. Bottom-up order.
enum StepSpec<'a> {
    /// Probe an in-memory hash-join build side (prepared serially before
    /// the workers start).
    Hash {
        build: &'a JoinNode,
        build_exprs: Vec<&'a BoundExpr>,
        build_offsets: Offsets,
        probe_exprs: Vec<&'a BoundExpr>,
        probe_offsets: Offsets,
        build_left: bool,
    },
    /// Probe a pre-built storage-level hash index.
    Index(IndexPath<'a>),
    /// Residual join predicate over the combined row.
    Filter {
        pred: &'a BoundExpr,
        offsets: Offsets,
    },
}

/// The parallelizable shape of a plan's join tree: a driving scan plus a
/// chain of per-row streaming steps.
struct SpineSpec<'a> {
    scan_rel: usize,
    scan_filter: Option<&'a BoundExpr>,
    scan_cols: &'a [usize],
    /// Steps in application (bottom-up) order.
    steps: Vec<StepSpec<'a>>,
    /// Offsets of the spine's output layout, for the downstream stages.
    out_offsets: Offsets,
}

fn layout_of(node: &JoinNode, out: &mut Vec<usize>) {
    match node {
        JoinNode::Scan { rel, .. } => out.push(*rel),
        JoinNode::Join { left, right, .. } => {
            layout_of(left, out);
            layout_of(right, out);
        }
    }
}

/// Walk the join tree along its probe inputs, mirroring the physical
/// decisions of the serial `build_join` (index-join fast path, build
/// side = smaller estimate) so both paths produce identical row
/// sequences. Returns `None` when a spine join is a cross join — the
/// plan then runs serially.
fn extract_spine<'a>(
    catalog: &'a Catalog,
    plan: &'a Plan,
    carried: &[&[usize]],
) -> Result<Option<SpineSpec<'a>>> {
    let offs = |node: &JoinNode| {
        let mut layout = Vec::new();
        layout_of(node, &mut layout);
        offsets_for(&layout, carried)
    };

    let out_offsets = offs(&plan.join);
    let mut top_down: Vec<StepSpec<'a>> = Vec::new();
    let mut node = &plan.join;
    loop {
        match node {
            JoinNode::Scan { rel, filter, cols } => {
                top_down.reverse();
                return Ok(Some(SpineSpec {
                    scan_rel: *rel,
                    scan_filter: filter.as_ref(),
                    scan_cols: cols,
                    steps: top_down,
                    out_offsets,
                }));
            }
            JoinNode::Join {
                left,
                right,
                equi,
                filter,
            } => {
                if equi.is_empty() {
                    return Ok(None);
                }
                if let Some(pred) = filter {
                    top_down.push(StepSpec::Filter {
                        pred,
                        offsets: offs(node),
                    });
                }
                let loffsets = offs(left);
                if let Some(path) = index_join_path(catalog, plan, right, equi, &loffsets, carried)?
                {
                    top_down.push(StepSpec::Index(path));
                    node = left;
                } else {
                    let lest = join_estimate(catalog, plan, left)?;
                    let rest = join_estimate(catalog, plan, right)?;
                    let build_left = lest <= rest;
                    let (probe_node, build_node): (&JoinNode, &JoinNode) = if build_left {
                        (right, left)
                    } else {
                        (left, right)
                    };
                    let (probe_exprs, build_exprs): (Vec<&BoundExpr>, Vec<&BoundExpr>) =
                        if build_left {
                            (
                                equi.iter().map(|(_, r)| r).collect(),
                                equi.iter().map(|(l, _)| l).collect(),
                            )
                        } else {
                            (
                                equi.iter().map(|(l, _)| l).collect(),
                                equi.iter().map(|(_, r)| r).collect(),
                            )
                        };
                    top_down.push(StepSpec::Hash {
                        build: build_node,
                        build_exprs,
                        build_offsets: offs(build_node),
                        probe_exprs,
                        probe_offsets: offs(probe_node),
                        build_left,
                    });
                    node = probe_node;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Build preparation (serial, on the consumer thread)
// ---------------------------------------------------------------------------

/// A spine step with its build side materialized, ready for workers.
struct PStep<'a> {
    kind: PStepKind<'a>,
    name: String,
    /// Harvested statistics of the build subtree (hash steps only).
    build_stats: Option<OpStats>,
    /// Rows pulled from the build side. Counted once here — the
    /// per-worker merge adds only probe-side rows, so combining partials
    /// can never double-count the build input.
    build_rows_in: u64,
    /// Bytes charged for the build table; released when the query ends.
    build_mem: u64,
    /// Wall time spent preparing the build side.
    prep_time: Duration,
}

enum PStepKind<'a> {
    Hash {
        map: BuildMap,
        probe_exprs: Vec<&'a BoundExpr>,
        probe_offsets: Offsets,
        build_left: bool,
    },
    Index(IndexPath<'a>),
    Filter {
        pred: &'a BoundExpr,
        offsets: Offsets,
    },
}

/// A fully prepared spine: what the worker pool executes.
struct Spine<'a> {
    table: &'a Table,
    scan_rel: usize,
    scan_filter: Option<&'a BoundExpr>,
    /// The stored-row offsets the scan filter is evaluated under.
    scan_offsets: Offsets,
    /// Base columns copied out of each surviving stored row.
    scan_cols: &'a [usize],
    steps: Vec<PStep<'a>>,
    out_offsets: Offsets,
}

enum Prep<'a> {
    Ready(Box<Spine<'a>>),
    /// A build side outgrew the memory budget: all charges were released
    /// and the caller should fall back to the serial executor, whose
    /// grace hash join owns this case. The decision depends only on data
    /// and budget, so it is identical at every thread count.
    Overflow,
}

/// Materialize every hash-join build side on the spine, top join first —
/// the order the serial pipeline consumes them in, so the budget meter
/// follows the same trajectory.
fn prepare_builds<'a>(
    catalog: &'a Catalog,
    plan: &'a Plan,
    spec: SpineSpec<'a>,
    carried: &[&[usize]],
    ctx: &ExecContext,
) -> Result<Prep<'a>> {
    let mut prepared_rev: Vec<PStep<'a>> = Vec::with_capacity(spec.steps.len());
    for step in spec.steps.into_iter().rev() {
        let pstep = match step {
            StepSpec::Filter { pred, offsets } => PStep {
                kind: PStepKind::Filter { pred, offsets },
                name: "Filter".into(),
                build_stats: None,
                build_rows_in: 0,
                build_mem: 0,
                prep_time: Duration::ZERO,
            },
            StepSpec::Index(path) => PStep {
                name: path.name.clone(),
                kind: PStepKind::Index(path),
                build_stats: None,
                build_rows_in: 0,
                build_mem: 0,
                prep_time: Duration::ZERO,
            },
            StepSpec::Hash {
                build,
                build_exprs,
                build_offsets,
                probe_exprs,
                probe_offsets,
                build_left,
            } => {
                let start = Instant::now();
                let (mut bnode, _layout, _est) = build_join(catalog, plan, build, carried)?;
                let mut map: BuildMap = HashMap::new();
                let mut mem = 0u64;
                let mut rows_in = 0u64;
                let mut overflow = false;
                'consume: while let Some(batch) = bnode.next_batch(ctx)? {
                    rows_in += batch.len() as u64;
                    if !ctx.spill_enabled() {
                        // No spill fallback configured: charge the whole
                        // batch hard, preserving strict-abort behavior.
                        let mut batch_mem = 0u64;
                        for row in batch {
                            if let Some(key) = join_keys(&row, &build_exprs, &build_offsets)? {
                                batch_mem += approx_row_bytes(&row)
                                    + key.iter().map(approx_value_bytes).sum::<u64>();
                                build_map_insert(&mut map, key, row);
                            }
                        }
                        ctx.charge(batch_mem)?;
                        mem += batch_mem;
                        continue;
                    }
                    for row in batch {
                        let Some(key) = join_keys(&row, &build_exprs, &build_offsets)? else {
                            continue;
                        };
                        let bytes = approx_row_bytes(&row)
                            + key.iter().map(approx_value_bytes).sum::<u64>();
                        if ctx.try_charge(bytes) {
                            mem += bytes;
                            build_map_insert(&mut map, key, row);
                        } else {
                            overflow = true;
                            break 'consume;
                        }
                    }
                }
                if overflow {
                    // Drive the abandoned build subtree to completion so
                    // its internal operators (nested joins) release what
                    // they charged, then hand everything back before the
                    // serial rerun.
                    while bnode.next_batch(ctx)?.is_some() {}
                    ctx.release(mem);
                    for p in &prepared_rev {
                        ctx.release(p.build_mem);
                    }
                    return Ok(Prep::Overflow);
                }
                PStep {
                    kind: PStepKind::Hash {
                        map,
                        probe_exprs,
                        probe_offsets,
                        build_left,
                    },
                    name: "HashJoin".into(),
                    build_stats: Some(bnode.harvest()),
                    build_rows_in: rows_in,
                    build_mem: mem,
                    prep_time: start.elapsed(),
                }
            }
        };
        prepared_rev.push(pstep);
    }
    prepared_rev.reverse();
    Ok(Prep::Ready(Box::new(Spine {
        table: catalog.table(&plan.relations[spec.scan_rel].table)?,
        scan_rel: spec.scan_rel,
        scan_filter: spec.scan_filter,
        scan_offsets: offsets_for(&[spec.scan_rel], carried),
        scan_cols: spec.scan_cols,
        steps: prepared_rev,
        out_offsets: spec.out_offsets,
    })))
}

// ---------------------------------------------------------------------------
// Worker pool plumbing
// ---------------------------------------------------------------------------

/// Per-step row counters a worker accumulates locally and merges (by
/// commutative u64 addition, so merge order cannot matter) on exit.
#[derive(Debug, Default, Clone, Copy)]
struct StepCounters {
    rows_in: u64,
    rows_out: u64,
}

struct QueueInner {
    next_consume: usize,
    ready: BTreeMap<usize, Result<Vec<Row>>>,
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
    fn push(&self, idx: usize, result: Result<Vec<Row>>) {
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
    fn pop_next(&self, ctx: &ExecContext) -> Result<Option<Vec<Row>>> {
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

/// Worker-side merged metrics: per-step counters plus total busy time.
struct WorkerMetrics {
    steps: Mutex<Vec<StepCounters>>,
    busy: Mutex<Duration>,
}

fn worker_loop(
    spine: &Spine<'_>,
    shared: &SharedQueue,
    ctx: &ExecContext,
    metrics: &WorkerMetrics,
) {
    let _guard = AliveGuard(shared);
    let rows = spine.table.rows();
    let mut counters = vec![StepCounters::default(); spine.steps.len() + 1];
    let mut busy = Duration::ZERO;
    let mut ticker = Ticker::new();
    while let Some(i) = shared.claim() {
        let lo = i * MORSEL_SIZE;
        let hi = (lo + MORSEL_SIZE).min(rows.len());
        let start = Instant::now();
        let result = process_morsel(spine, &rows[lo..hi], ctx, &mut counters, &mut ticker);
        busy += start.elapsed();
        let failed = result.is_err();
        shared.push(i, result);
        if failed {
            break;
        }
    }
    let mut steps = metrics.steps.lock();
    for (total, local) in steps.iter_mut().zip(&counters) {
        total.rows_in += local.rows_in;
        total.rows_out += local.rows_out;
    }
    drop(steps);
    *metrics.busy.lock() += busy;
}

/// Evaluate the streaming spine over one morsel of the driving scan.
/// Pure: reads shared immutable state, writes only its own output.
fn process_morsel(
    spine: &Spine<'_>,
    rows: &[Row],
    ctx: &ExecContext,
    counters: &mut [StepCounters],
    ticker: &mut Ticker,
) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    for row in rows {
        ticker.row(ctx)?;
        counters[0].rows_in += 1;
        if let Some(pred) = spine.scan_filter {
            if !pred.eval_predicate(row, &spine.scan_offsets)? {
                continue;
            }
        }
        counters[0].rows_out += 1;
        let row = carried_cells(row, spine.scan_cols);
        apply_steps(spine, 0, row, &mut out, counters, ctx, ticker)?;
    }
    Ok(out)
}

/// Push one row through spine steps `i..`, appending survivors to `out`.
/// Mirrors the serial operators row for row (match order = build
/// insertion order, index order = stored index order), so concatenating
/// morsel outputs reproduces the serial row sequence exactly.
///
/// Ticks the cancellation guard per *invocation*, not per scan row: a
/// join can fan one input row out into thousands, and cancellation
/// latency must stay bounded by emitted work, not consumed work.
#[allow(clippy::too_many_arguments)]
fn apply_steps(
    spine: &Spine<'_>,
    i: usize,
    row: Row,
    out: &mut Vec<Row>,
    counters: &mut [StepCounters],
    ctx: &ExecContext,
    ticker: &mut Ticker,
) -> Result<()> {
    let Some(step) = spine.steps.get(i) else {
        // Terminal emit: this is where a join's fan-out materializes, so
        // the guard must tick here — per emitted row, not just per probe
        // row — to keep cancellation latency bounded under high fan-out.
        ticker.row(ctx)?;
        out.push(row);
        return Ok(());
    };
    ticker.row(ctx)?;
    counters[i + 1].rows_in += 1;
    match &step.kind {
        PStepKind::Filter { pred, offsets } => {
            if pred.eval_predicate(&row, offsets)? {
                counters[i + 1].rows_out += 1;
                apply_steps(spine, i + 1, row, out, counters, ctx, ticker)?;
            }
        }
        PStepKind::Hash {
            map,
            probe_exprs,
            probe_offsets,
            build_left,
        } => {
            if let Some(key) = join_keys(&row, probe_exprs, probe_offsets)? {
                if let Some((_, matches)) = map.get(&key) {
                    for brow in matches {
                        let joined = if *build_left {
                            concat_rows(brow, &row)
                        } else {
                            concat_rows(&row, brow)
                        };
                        counters[i + 1].rows_out += 1;
                        apply_steps(spine, i + 1, joined, out, counters, ctx, ticker)?;
                    }
                }
            }
        }
        PStepKind::Index(path) => path.probe(&row, |joined| {
            counters[i + 1].rows_out += 1;
            apply_steps(spine, i + 1, joined, out, counters, ctx, ticker)
        })?,
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The gather source (consumer end)
// ---------------------------------------------------------------------------

/// Pipeline source that re-emits worker output strictly in morsel order,
/// re-batched to [`BATCH_SIZE`]. Mounted under the ordinary serial
/// stages by [`try_execute`].
pub(crate) struct GatherSource<'a> {
    shared: &'a SharedQueue,
    pending: std::vec::IntoIter<Row>,
    /// Build-table bytes still charged to the budget; handed back the
    /// moment the stream ends (the serial hash join releases its build
    /// map when the probe side is exhausted — before downstream merge
    /// phases and the result buffer charge — and tight-budget spill
    /// plans depend on that timing). `swap(0)` keeps it idempotent with
    /// the driver's safety-net release on early stops.
    build_mem: &'a AtomicU64,
}

impl GatherSource<'_> {
    pub(crate) fn next_batch(&mut self, ctx: &ExecContext) -> Result<Option<Batch>> {
        loop {
            let chunk: Batch = self.pending.by_ref().take(BATCH_SIZE).collect();
            if !chunk.is_empty() {
                return Ok(Some(chunk));
            }
            match self.shared.pop_next(ctx)? {
                None => {
                    ctx.release(self.build_mem.swap(0, Ordering::Relaxed));
                    return Ok(None);
                }
                Some(rows) => self.pending = rows.into_iter(),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Execute `plan` with the morsel-parallel driver if it is eligible.
/// Returns `Ok(None)` when the plan must run serially instead (cross
/// join on the spine, or a build side outgrew the memory budget).
pub(crate) fn try_execute(
    catalog: &Catalog,
    plan: &Plan,
    ctx: &ExecContext,
) -> Result<Option<QueryResult>> {
    // A one-thread "pool" computes exactly what the serial pipeline
    // computes, but pays queue/condvar dispatch and parks the caller on
    // waits that only pool workers (invisible to the schedule explorer's
    // virtual threads) can satisfy. Take the serial path outright.
    if ctx.threads() <= 1 {
        return Ok(None);
    }
    let carried = plan.carried();
    let Some(spec) = extract_spine(catalog, plan, &carried)? else {
        return Ok(None);
    };
    let start = Instant::now();
    let spine = match prepare_builds(catalog, plan, spec, &carried, ctx)? {
        Prep::Overflow => return Ok(None),
        Prep::Ready(spine) => spine,
    };

    let n_morsels = spine.table.len().div_ceil(MORSEL_SIZE);
    let threads = ctx.threads().min(n_morsels).max(1);
    let shared = SharedQueue::new(n_morsels, threads);
    let build_mem = AtomicU64::new(spine.steps.iter().map(|s| s.build_mem).sum());
    let metrics = WorkerMetrics {
        steps: Mutex::new(
            &rank::METRICS_STEPS,
            vec![StepCounters::default(); spine.steps.len() + 1],
        ),
        busy: Mutex::new(&rank::METRICS_BUSY, Duration::ZERO),
    };

    let outcome: Result<(Vec<Row>, OpStats)> = std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| worker_loop(&spine, &shared, ctx, &metrics));
        }
        let src = GatherSource {
            shared: &shared,
            pending: Vec::new().into_iter(),
            build_mem: &build_mem,
        };
        let mut root = finish_pipeline(gather_node(src), spine.out_offsets.clone(), plan);
        let pulled = drain_root(&mut root, ctx);
        // Normal end, early LIMIT stop, error, cancellation: always shut
        // the pool down and wait for it, so worker counters are complete
        // and no thread outlives the query.
        shared.shut_down();
        shared.wait_idle();
        Ok((pulled?, root.harvest()))
    });

    // Safety net for early stops (LIMIT, error, cancellation): whatever
    // the gather source didn't already hand back at end-of-stream.
    ctx.release(build_mem.swap(0, Ordering::Relaxed));
    let (rows, mut root_stats) = outcome?;

    let step_counters = metrics.steps.into_inner();
    let busy = metrics.busy.into_inner();
    attach_spine_stats(
        &mut root_stats,
        spine_stats(&spine, plan, &step_counters, busy, n_morsels as u64),
    );
    let stats = assemble_stats(root_stats, start.elapsed(), ctx, threads);
    Ok(Some(QueryResult::with_stats(
        plan.output.iter().map(|o| o.name.clone()).collect(),
        rows,
        stats,
    )))
}

/// Build the statistics subtree for the spine from the merged worker
/// counters, mirroring the serial operator tree's shape and names.
/// Worker busy time (summed across the pool, so it can exceed wall
/// time) is reported on the scan leaf; hash-join time is the serial
/// build-preparation time.
fn spine_stats(
    spine: &Spine<'_>,
    plan: &Plan,
    counters: &[StepCounters],
    busy: Duration,
    n_morsels: u64,
) -> OpStats {
    let mut node = OpStats {
        name: scan_label("Scan", &plan.relations[spine.scan_rel], spine.scan_cols),
        rows_in: counters[0].rows_in,
        rows_out: counters[0].rows_out,
        batches: n_morsels,
        time: busy,
        ..OpStats::default()
    };
    for (i, step) in spine.steps.iter().enumerate() {
        let c = counters[i + 1];
        let mut rows_in = c.rows_in;
        let mut peak_mem = 0;
        let mut children = vec![node];
        if let PStepKind::Hash { build_left, .. } = &step.kind {
            rows_in += step.build_rows_in;
            peak_mem = step.build_mem;
            if let Some(build) = step.build_stats.clone() {
                // Report in plan order: left child first, like the
                // serial hash join.
                if *build_left {
                    children.insert(0, build);
                } else {
                    children.push(build);
                }
            }
        }
        node = OpStats {
            name: step.name.clone(),
            rows_in,
            rows_out: c.rows_out,
            batches: 0,
            time: step.prep_time,
            peak_mem,
            children,
            ..OpStats::default()
        };
    }
    node
}

/// Attach the spine statistics under the pipeline's `Gather` leaf.
fn attach_spine_stats(root: &mut OpStats, spine: OpStats) {
    let mut node = root;
    while !node.children.is_empty() {
        let last = node.children.len() - 1;
        node = &mut node.children[last];
    }
    node.children.push(spine);
}
