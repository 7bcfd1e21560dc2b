//! Physical execution of query plans.
//!
//! Plans run as a pull-based pipeline of physical operators exchanging
//! batches of up to [`BATCH_SIZE`] tuples: scan → filter → join →
//! aggregate → project → distinct → sort → limit. Blocking operators
//! (hash-join build sides, aggregation, sort) materialize only their own
//! state; everything else streams, so `LIMIT` without `ORDER BY` stops
//! reading its input early instead of materializing the whole query.
//!
//! **Joins carry positions, not rows.** A query runs against tables its
//! catalog pins for as long as it runs, so below the first operator that
//! owns values a row is named by its position: a `Tuples` batch holds,
//! per tuple, one `u32` row position for each relation of the operator's
//! `Layout`. A scan emits the positions that pass its filter; a join
//! appends the two sides' positions; an expression reads a cell in place
//! through a `Tuple`. Cells are copied into owned values in two places
//! only: the aggregate's key table (once per new group) and, for an
//! ungrouped query, `Project` (once per output cell). From there up,
//! batches are materialized rows (`Vec<Row>`).
//!
//! **Above the join, the spine's order is used, not rebuilt.** The
//! executor builds the join tree the planner fixed, in which every join
//! streams its `left` input, so the *spine* is the plan's leftmost scan
//! ([`JoinNode::spine`]) and the join's output keeps its row order. A
//! `GROUP BY` with a bare spine column aggregates in runs of it and falls
//! back to hashing at the first tuple that breaks run order (see
//! `aggregate_input`); a group key that reads only the spine is
//! evaluated once per spine row. `Project` passes an aggregate's rows
//! through when the output is exactly them, `ORDER BY` keys the output
//! computes are compared where they are, and `Sort` orders
//! `(prefix, index)` pairs (see `sort_rows`) and moves each row once.
//!
//! Every operator is instrumented: rows in/out, batches, inclusive wall
//! time and peak materialized bytes are recorded per node and harvested
//! into an [`ExecStats`] tree attached to the [`QueryResult`] (surfaced by
//! `EXPLAIN ANALYZE` and [`QueryResult::stats`]).
//!
//! Execution is *governed*: every batch boundary checks the
//! [`ExecContext`]'s cancellation token and deadline, and every operator
//! that materializes state (hash-join builds, aggregation tables, sort
//! buffers, DISTINCT sets, the final result buffer) charges its bytes
//! against the context's memory budget. A tripped guard aborts the query
//! with a typed error; nothing here panics on malformed operator state.
//!
//! Under memory pressure the blocking operators degrade to
//! *external-memory* algorithms instead of aborting (the budget → spill →
//! `ResourceExhausted` escalation ladder):
//!
//! * **hash join** becomes a grace hash join — both inputs' position
//!   tuples are hash-partitioned into checksummed spill files
//!   ([`conquer_storage::spill`]) and each partition pair is joined in
//!   memory, recursing with a different hash on partitions that still
//!   don't fit;
//! * **hash aggregation** becomes a hybrid hash aggregation — the groups
//!   already in memory keep absorbing their tuples, a tuple with a new
//!   key is hash-partitioned to a spill file like a join's, and each
//!   partition is aggregated in memory afterwards, recursing the same
//!   way, so every group is finished in exactly one pass;
//! * **sort** becomes an external merge sort: sorted runs on disk, one
//!   k-way merge pass.
//!
//! Each of the three climbs one ladder for every charge: try it
//! ([`ExecContext::try_charge`]); if that fails, spill, unless the disk
//! budget is zero or the passes are used up; otherwise charge hard, which
//! aborts past the memory budget. Without a memory budget no charge fails
//! and nothing spills; under it, plans and performance are unchanged; a
//! zero disk budget aborts at the memory budget and writes nothing.
//! Operators without an external strategy (cross join, DISTINCT, the
//! result buffer) charge the memory budget hard. A spill partition is
//! read back in batches, each a cancellation point; loops that stream
//! rows without crossing a batch boundary tick the context's
//! cancellation/deadline guards every `SPILL_TICK_ROWS` rows.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::hash::Hash;
use std::time::{Duration, Instant};

use conquer_sql::AggFunc;
use conquer_storage::spill::{SpillFile, SpillReader, SpillWriter};
use conquer_storage::{Catalog, DataType, Row, SharedRow, Value};

use crate::binder::{column_type, AggCall, BoundOrderBy, GroupSpec, OrderKey, OutputItem};
use crate::context::ExecContext;
use crate::error::EngineError;
use crate::exact::ExactSum;
use crate::expr::{absent, BoundExpr, Cells, ColumnId};
use crate::keytable::{hash_key, KeyTable};
use crate::planner::{JoinNode, Plan};
use crate::result::QueryResult;
use crate::stats::{approx_row_bytes, approx_value_bytes, ExecStats, OpStats};
use crate::Result;

/// Maximum rows per batch flowing between operators. Joins may emit larger
/// batches when one probe batch matches many build rows; the bound is a
/// target, not an invariant.
pub const BATCH_SIZE: usize = 1024;

/// Fan-out of one spill partitioning pass (grace hash join, hybrid hash
/// aggregation).
const SPILL_PARTITIONS: usize = 16;

/// Maximum partitioning passes over one operator's data before the
/// executor stops recursing and charges the memory budget hard (the end
/// of the budget → spill → `ResourceExhausted` ladder). With 16-way
/// partitioning this bounds the data reduction at 16⁵ ≈ 10⁶×; a
/// partition still oversized after that is pathological key skew (one
/// giant duplicate group) that re-partitioning cannot split.
const MAX_SPILL_PASSES: u32 = 5;

/// Rows between cooperative cancellation/deadline checks inside loops
/// that stream arbitrarily many rows without crossing a batch boundary
/// (a build-table flush, a probe's fan-out, the aggregate over a join's
/// fan-out, a sort's runs and merge). Bounds cancellation latency.
const SPILL_TICK_ROWS: u32 = 128;

/// Materialized rows: what the aggregate and every operator above it
/// exchange.
pub(crate) type Batch = Vec<Row>;

/// Execute a plan against the catalog under the given execution context,
/// collecting per-operator statistics. The context's guards (cancellation,
/// deadline, memory budget) are checked cooperatively at every batch
/// boundary; pass [`ExecContext::default()`] for ungoverned execution.
///
/// A query runs on the calling thread: one operator tree, pulled from its
/// root. Concurrency comes from running several queries at once (the
/// server's connections), not from splitting one.
pub fn execute_plan(catalog: &Catalog, plan: &Plan, ctx: &ExecContext) -> Result<QueryResult> {
    // The result buffer is charged against the memory budget like any
    // other materialized state.
    let mut rows = Vec::new();
    let stats = run_plan(catalog, plan, ctx, |batch| {
        let bytes = batch.iter().map(approx_row_bytes).sum();
        ctx.charge(bytes)?;
        rows.extend(batch);
        Ok(bytes)
    })?;
    Ok(QueryResult::with_stats(
        plan.output.iter().map(|o| o.name.clone()).collect(),
        rows,
        stats,
    ))
}

/// Execute a plan as [`execute_plan`] does, handing each batch of result
/// rows to `sink` as it leaves the root instead of collecting them. The
/// sink returns the bytes of the batch it keeps charged; when the plan
/// fails, nothing stays charged.
pub(crate) fn run_plan(
    catalog: &Catalog,
    plan: &Plan,
    ctx: &ExecContext,
    mut sink: impl FnMut(Batch) -> Result<u64>,
) -> Result<ExecStats> {
    let start = Instant::now();
    let mut root = build_pipeline(catalog, plan)?;
    let held = ctx.mem_in_use();
    let mut kept = 0;
    let mut drain = || -> Result<()> {
        while let Some(batch) = root.next_batch(ctx)? {
            kept += sink(batch)?;
        }
        Ok(())
    };
    let drained = drain();
    // The operator tree dies with this call. Whatever its operators still
    // hold charged — a `LIMIT` can stop them before they drain — is handed
    // back, so the meter keeps only what the sink kept.
    let kept = if drained.is_ok() { kept } else { 0 };
    ctx.release(ctx.mem_in_use().saturating_sub(held + kept));
    drained?;
    Ok(ExecStats {
        root: root.harvest(),
        total_time: start.elapsed(),
        mem_budget: ctx.limits().mem_bytes,
        mem_charged: ctx.mem_charged(),
        disk_budget: ctx.limits().disk_bytes,
        disk_charged: ctx.disk_charged(),
        timeout: ctx.limits().timeout,
        threads_used: 1,
    })
}

/// Plain `EXPLAIN`'s text for `plan`: the operator tree [`execute_plan`]
/// runs, built and never pulled, one operator name per line, children
/// indented under their parent in the order `EXPLAIN ANALYZE` lists
/// them (a hash join's probe input first).
pub fn explain_plan(catalog: &Catalog, plan: &Plan) -> Result<String> {
    let mut out = String::new();
    build_pipeline(catalog, plan)?
        .harvest()
        .visit(&mut |depth, op| {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&op.name);
            out.push('\n');
        });
    Ok(out)
}

// ---------------------------------------------------------------------------
// Position tuples
// ---------------------------------------------------------------------------

/// A batch of position tuples: `width` row positions per tuple, flat. The
/// width is the operator's [`Layout`] width, so it is never zero for a
/// batch an operator emits; [`Tuples::default`] is the empty batch that
/// takes the width of whatever is [appended](Tuples::append) to it first.
#[derive(Debug, Default)]
pub(crate) struct Tuples {
    width: usize,
    pos: Vec<u32>,
}

impl Tuples {
    fn with_capacity(width: usize, tuples: usize) -> Tuples {
        Tuples {
            width,
            pos: Vec::with_capacity(width * tuples),
        }
    }

    fn len(&self) -> usize {
        self.pos.len().checked_div(self.width).unwrap_or(0)
    }

    fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Tuple `i`.
    fn get(&self, i: usize) -> &[u32] {
        &self.pos[i * self.width..(i + 1) * self.width]
    }

    fn iter(&self) -> std::slice::ChunksExact<'_, u32> {
        self.pos.chunks_exact(self.width.max(1))
    }

    fn push(&mut self, t: &[u32]) {
        self.pos.extend_from_slice(t);
    }

    /// Append the tuple `a ++ b`.
    fn push_pair(&mut self, a: &[u32], b: &[u32]) {
        self.pos.extend_from_slice(a);
        self.pos.extend_from_slice(b);
    }

    /// Append every tuple of `other`.
    fn append(&mut self, other: Tuples) {
        if self.pos.is_empty() {
            *self = other;
        } else {
            self.pos.extend_from_slice(&other.pos);
        }
    }

    /// What holding these tuples charges: four bytes per position.
    fn bytes(&self) -> u64 {
        4 * self.pos.len() as u64
    }
}

/// What the positions of an operator's tuples name: per relation of the
/// query, the tuple slot holding its row position and the stored rows of
/// its pinned table (`None` for relations outside the operator's input).
#[derive(Debug, Clone)]
pub(crate) struct Layout<'a> {
    width: usize,
    rels: Vec<Option<(usize, &'a [SharedRow])>>,
}

impl<'a> Layout<'a> {
    /// A scan's layout: relation `rel` of `n_rels`, in slot 0.
    fn scan(n_rels: usize, rel: usize, rows: &'a [SharedRow]) -> Layout<'a> {
        let mut rels = vec![None; n_rels];
        rels[rel] = Some((0, rows));
        Layout { width: 1, rels }
    }

    /// The layout of `left ++ right` tuples.
    fn concat(left: &Layout<'a>, right: &Layout<'a>) -> Layout<'a> {
        let rels = left
            .rels
            .iter()
            .zip(&right.rels)
            .map(|(l, r)| l.or(r.map(|(slot, rows)| (left.width + slot, rows))))
            .collect();
        Layout {
            width: left.width + right.width,
            rels,
        }
    }

    /// Read tuple `pos` through this layout.
    fn tuple<'t>(&'t self, pos: &'t [u32]) -> Tuple<'t, 'a> {
        Tuple { layout: self, pos }
    }
}

/// One position tuple read through its [`Layout`]: a column leaf is
/// `rows[pos[slot]][col]`, borrowed from the pinned table.
#[derive(Clone, Copy)]
pub(crate) struct Tuple<'t, 'a> {
    layout: &'t Layout<'a>,
    pos: &'t [u32],
}

impl<'x, 'a: 'x> Cells<'x> for Tuple<'_, 'a> {
    #[inline]
    fn cell(self, id: ColumnId) -> Result<&'x Value> {
        let cell = match self.layout.rels.get(id.rel) {
            Some(&Some((slot, rows))) => self
                .pos
                .get(slot)
                .and_then(|&p| rows.get(p as usize))
                .and_then(|row| row.get(id.col)),
            _ => None,
        };
        cell.ok_or_else(|| absent(id))
    }
}

/// A stored row of relation `rel`: what a scan's own filter reads, before
/// the row has a tuple.
#[derive(Clone, Copy)]
struct Stored<'a> {
    rel: usize,
    row: &'a SharedRow,
}

impl<'x, 'a: 'x> Cells<'x> for Stored<'a> {
    #[inline]
    fn cell(self, id: ColumnId) -> Result<&'x Value> {
        match self.row.get(id.col) {
            Some(v) if id.rel == self.rel => Ok(v),
            _ => Err(absent(id)),
        }
    }
}

// ---------------------------------------------------------------------------
// Pipeline construction
// ---------------------------------------------------------------------------

/// The whole operator tree of `plan`: its join tree, with the post-join
/// stages on top.
fn build_pipeline<'a>(catalog: &'a Catalog, plan: &'a Plan) -> Result<OpNode<'a>> {
    crate::validate::validate_plan(plan)?;
    let (join, layout) = build_join(catalog, plan, &plan.join)?;
    Ok(finish_pipeline(join, layout, plan))
}

/// Stack the post-join stages (aggregate, HAVING, project, distinct,
/// sort, limit) on top of a join tree whose tuples `layout` describes.
fn finish_pipeline<'a>(join: TupleOp<'a>, layout: Layout<'a>, plan: &'a Plan) -> OpNode<'a> {
    let (sort_keys, appended) = sort_keys(&plan.output, &plan.order_by);
    let width = plan.output.len() + appended.len();
    let input = match &plan.group {
        Some(group) => {
            let agg = AggSpec::new(plan, group, layout, plan.join.spine());
            let run = agg.run.map(|(_, id)| plan.column_name(id));
            let mut node = OpNode::new(
                aggregate_label(group, run),
                OpKind::HashAggregate {
                    child: Box::new(join),
                    agg,
                    state: AggState::Init,
                },
            );
            if let Some(having) = &group.having {
                node = OpNode::new(
                    "Filter (HAVING)",
                    OpKind::Filter {
                        child: Box::new(node),
                        pred: having,
                    },
                );
            }
            let moves = movable_cells(&plan.output, &appended);
            // RewriteClean's shape: the output is the slot row itself.
            let whole = appended.is_empty()
                && moves.len() == group.keys.len() + group.aggs.len()
                && moves.iter().enumerate().all(|(i, m)| *m == Some(i));
            ProjectInput::Slots {
                child: Box::new(node),
                moves,
                whole,
            }
        }
        None => ProjectInput::Tuples {
            child: Box::new(join),
            layout,
        },
    };

    let mut node = OpNode::new(
        "Project",
        OpKind::Project {
            input,
            output: &plan.output,
            appended,
        },
    );

    if plan.distinct {
        node = OpNode::new(
            "Distinct",
            OpKind::Distinct {
                child: Box::new(node),
                seen: KeyTable::new(width),
                mem: 0,
            },
        );
    }

    if !plan.order_by.is_empty() {
        node = OpNode::new(
            "Sort",
            OpKind::Sort {
                child: Box::new(node),
                keys: sort_keys,
                n_out: plan.output.len(),
                state: SortState::Fill,
            },
        );
    }

    if let Some(l) = plan.limit {
        node = OpNode::new(
            "Limit",
            OpKind::Limit {
                child: Box::new(node),
                remaining: l,
            },
        );
    }

    node
}

/// Build the operator subtree for a join-tree node, as the plan oriented
/// it: each join streams its `left` input and holds its `right` one.
/// Returns the operator and the layout of its output tuples.
fn build_join<'a>(
    catalog: &'a Catalog,
    plan: &'a Plan,
    node: &'a JoinNode,
) -> Result<(TupleOp<'a>, Layout<'a>)> {
    match node {
        JoinNode::Scan { rel, filter } => {
            let relation = &plan.relations[*rel];
            let table = catalog.table(&relation.table)?;
            if u32::try_from(table.len()).is_err() {
                return Err(EngineError::exec(format!(
                    "table {:?} has more rows than a u32 position can name",
                    relation.table
                )));
            }
            let layout = Layout::scan(plan.relations.len(), *rel, table.shared_rows());
            let filtered = if filter.is_some() { " (filtered)" } else { "" };
            let op = TupleOp::new(
                format!("Scan {} [{}]{filtered}", relation.table, relation.binding),
                TupleKind::Scan {
                    rel: *rel,
                    rows: table.shared_rows(),
                    pos: 0,
                    filter: filter.as_ref(),
                    range: None,
                },
            );
            Ok((op, layout))
        }
        JoinNode::Join {
            left,
            right,
            equi,
            filter,
        } => {
            let (lop, llayout) = build_join(catalog, plan, left)?;
            let (rop, rlayout) = build_join(catalog, plan, right)?;
            let layout = Layout::concat(&llayout, &rlayout);

            let mut op = if equi.is_empty() {
                TupleOp::new(
                    "NestedLoopJoin",
                    TupleKind::CrossJoin {
                        probe: Box::new(lop),
                        build: Box::new(rop),
                        build_tuples: None,
                    },
                )
            } else {
                let (probe_exprs, build_exprs) = equi.iter().map(|(l, r)| (l, r)).unzip();
                let column = |id| column_type(&plan.relations, id);
                let lossy = equi
                    .iter()
                    .map(|(l, r)| {
                        let types = (l.data_type(&column), r.data_type(&column));
                        let (int, float) = (Some(DataType::Int), Some(DataType::Float));
                        types == (int, float) || types == (float, int)
                    })
                    .collect();
                TupleOp::new(
                    format!("HashJoin on {} key(s)", equi.len()),
                    TupleKind::HashJoin {
                        probe: Box::new(lop),
                        build: Box::new(rop),
                        keys: JoinKeys {
                            probe_exprs,
                            build_exprs,
                            lossy,
                            probe_layout: llayout,
                            build_layout: rlayout,
                        },
                        state: JoinState::Init,
                    },
                )
            };

            if let Some(pred) = filter {
                op = TupleOp::new(
                    "Filter",
                    TupleKind::Filter {
                        child: Box::new(op),
                        pred,
                        layout: layout.clone(),
                    },
                );
            }
            Ok((op, layout))
        }
    }
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

/// Runtime counters for one operator node.
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    rows_in: u64,
    rows_out: u64,
    batches: u64,
    time: Duration,
    peak_mem: u64,
    spill_bytes: u64,
    spill_partitions: u64,
    spill_passes: u64,
    /// Runs a run-mode aggregate opened.
    runs: u64,
    /// The tuple of its pass at which a run-mode aggregate first switched
    /// to hashing.
    hashed_at: Option<u64>,
    /// Rows a scan skipped because their key lay outside its join's build
    /// key range.
    pruned: u64,
}

/// An operator kind: how it advances by one batch, and its statistics
/// children.
pub(crate) trait Step {
    /// What it emits: [`Tuples`] or a [`Batch`] of rows.
    type Out;
    /// Advance by one batch; `None` means exhausted.
    fn step(&mut self, m: &mut Metrics, ctx: &ExecContext) -> Result<Option<Self::Out>>;
    /// Tuples or rows in `out`, for the counters.
    fn count(out: &Self::Out) -> usize;
    /// The children's statistics, in plan order.
    fn harvest_children(self) -> Vec<OpStats>;
}

/// One physical operator plus its instrumentation. The join tree's
/// operators ([`TupleOp`]) emit position tuples; the aggregate and every
/// operator above it ([`OpNode`]) emit rows.
pub(crate) struct Node<K> {
    name: String,
    kind: K,
    m: Metrics,
}

/// An operator of the join tree.
pub(crate) type TupleOp<'a> = Node<TupleKind<'a>>;

/// An operator from the first one that owns values up.
pub(crate) type OpNode<'a> = Node<OpKind<'a>>;

pub(crate) enum TupleKind<'a> {
    /// Scan of the stored rows from `pos` on with an optional pushed-down
    /// predicate; emits the positions of the rows it keeps. A scan that is
    /// a hash join's probe input may be handed the join's build key
    /// `range` before it starts (see [`JoinKeys::prune_probe`]): it then
    /// skips, before its filter, every row whose key cell, normalized as
    /// the build table's keys are, is NULL or outside the range. Such a
    /// row cannot match, and the rows it keeps keep their order.
    Scan {
        rel: usize,
        rows: &'a [SharedRow],
        pos: usize,
        filter: Option<&'a BoundExpr>,
        range: Option<KeyRange>,
    },
    /// Residual join predicate.
    Filter {
        child: Box<TupleOp<'a>>,
        pred: &'a BoundExpr,
        layout: Layout<'a>,
    },
    /// Equi hash join: drains `build` into a hash table on first pull, then
    /// streams `probe`. Output tuples are `probe ++ build`. A build that
    /// finished in memory empty ends the join without pulling `probe`; a
    /// non-empty one hands an unstarted probe scan the range of its first
    /// key (see [`JoinKeys::prune_probe`]). A spilled build does neither.
    HashJoin {
        probe: Box<TupleOp<'a>>,
        build: Box<TupleOp<'a>>,
        keys: JoinKeys<'a>,
        state: JoinState,
    },
    /// Cartesian product: materializes the right input, streams the left.
    CrossJoin {
        probe: Box<TupleOp<'a>>,
        build: Box<TupleOp<'a>>,
        build_tuples: Option<Tuples>,
    },
}

pub(crate) enum OpKind<'a> {
    /// Hash aggregation, in runs while its input arrives in runs (see
    /// [`aggregate_input`]); blocking. Produces `[keys…, agg values…]` rows
    /// in first-seen group order (one row even for empty input when there
    /// are no GROUP BY keys — `COUNT(*)` of an empty table is 0).
    HashAggregate {
        child: Box<TupleOp<'a>>,
        agg: AggSpec<'a>,
        state: AggState,
    },
    /// HAVING, over the aggregate's slot rows.
    Filter {
        child: Box<OpNode<'a>>,
        pred: &'a BoundExpr,
    },
    /// Compute output expressions, appending the `ORDER BY` expressions
    /// the output does not compute for a downstream [`OpKind::Sort`] to
    /// consume (see [`sort_keys`]).
    Project {
        input: ProjectInput<'a>,
        output: &'a [OutputItem],
        appended: Vec<&'a BoundExpr>,
    },
    /// Streaming duplicate elimination over projected rows.
    Distinct {
        child: Box<OpNode<'a>>,
        seen: KeyTable,
        mem: u64,
    },
    /// Blocking sort on `keys`, columns of the projected rows: output
    /// columns read in place and the expressions `Project` appended past
    /// `n_out`, which it strips from the output.
    Sort {
        child: Box<OpNode<'a>>,
        keys: Vec<SortKey>,
        n_out: usize,
        state: SortState,
    },
    /// Stop pulling from the child once `remaining` rows were emitted.
    Limit {
        child: Box<OpNode<'a>>,
        remaining: u64,
    },
}

/// What a `Project` reads.
pub(crate) enum ProjectInput<'a> {
    /// An aggregate's slot rows. `moves[i]` is the slot output item `i`
    /// takes by value instead of evaluating (see [`movable_cells`]);
    /// `whole` when the output is the slot row as it is, which then
    /// passes through untouched.
    Slots {
        child: Box<OpNode<'a>>,
        moves: Vec<Option<usize>>,
        whole: bool,
    },
    /// The join tree's tuples, whose cells it copies out of the pinned
    /// tables.
    Tuples {
        child: Box<TupleOp<'a>>,
        layout: Layout<'a>,
    },
}

// ---------------------------------------------------------------------------
// External-memory operator state
// ---------------------------------------------------------------------------

/// End of a [`BuildMap`] chain.
const CHAIN_END: u32 = u32::MAX;

/// An in-memory hash-join build table: the normalized keys in a
/// [`KeyTable`], the build tuples flat in arrival order, and per key entry
/// `i` a chain from `head[i]` through `next` over its tuples in arrival
/// order. Keys and chains are in first-seen order, so flushing it to spill
/// partitions writes the same bytes on every run.
pub(crate) struct BuildMap {
    keys: KeyTable,
    tuples: Tuples,
    head: Vec<u32>,
    tail: Vec<u32>,
    next: Vec<u32>,
}

impl BuildMap {
    fn new(key_width: usize) -> BuildMap {
        BuildMap {
            keys: KeyTable::new(key_width),
            tuples: Tuples::default(),
            head: Vec::new(),
            tail: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Add build tuple `t` under its (non-NULL, normalized) key, which is
    /// copied in if it is new.
    fn insert(&mut self, key: &[Cow<'_, Value>], t: &[u32]) -> Result<()> {
        let n = u32::try_from(self.next.len())
            .ok()
            .filter(|&n| n != CHAIN_END)
            .ok_or_else(|| EngineError::exec("too many build rows in one hash table"))?;
        let hash = hash_key(key);
        match self.keys.find(hash, key) {
            Some(i) => {
                self.next[self.tail[i] as usize] = n;
                self.tail[i] = n;
            }
            None => {
                self.keys.push(hash, key.iter().map(|c| Value::clone(c)))?;
                self.head.push(n);
                self.tail.push(n);
            }
        }
        self.next.push(CHAIN_END);
        if self.tuples.is_empty() {
            self.tuples.width = t.len();
        }
        self.tuples.push(t);
        Ok(())
    }

    /// The build tuples of key entry `i`, in arrival order.
    fn chain(&self, i: usize) -> impl Iterator<Item = &[u32]> {
        let mut at = self.head[i];
        std::iter::from_fn(move || {
            (at != CHAIN_END).then(|| {
                let t = self.tuples.get(at as usize);
                at = self.next[at as usize];
                t
            })
        })
    }

    /// Move every build tuple to its spill partition under `pass`'s hash,
    /// keys in first-seen order, leaving the table empty.
    fn flush(
        &mut self,
        pass: u32,
        ws: &mut [SpillWriter],
        m: &mut Metrics,
        ctx: &ExecContext,
        ticker: &mut Ticker,
    ) -> Result<()> {
        for i in 0..self.keys.len() {
            let p = partition_of(self.keys.key(i), pass);
            for t in self.chain(i) {
                ticker.row(ctx)?;
                spill_tuple(ctx, m, &mut ws[p], t)?;
            }
        }
        *self = BuildMap::new(0);
        Ok(())
    }
}

/// The least and the greatest normalized first key of a hash join's
/// build table, and the column of its probe scan that key reads.
#[derive(Debug)]
pub(crate) struct KeyRange {
    col: usize,
    min: Value,
    max: Value,
    /// The first key pair compares an `INTEGER` with a `DOUBLE`, so an
    /// integer cell is read as the nearest float, as the key normalizes.
    lossy: bool,
    /// `min` and `max` when both are floats, as numeric keys normalize
    /// (a NaN key meets nothing, so none is built): then a numeric cell is
    /// checked with two float comparisons instead of two walks of
    /// `Value`'s order.
    floats: Option<(f64, f64)>,
}

impl KeyRange {
    fn new(col: usize, min: &Value, max: &Value, lossy: bool) -> KeyRange {
        let floats = match (min, max) {
            (Value::Float(lo), Value::Float(hi)) => Some((*lo, *hi)),
            _ => None,
        };
        KeyRange {
            col,
            min: min.clone(),
            max: max.clone(),
            lossy,
            floats,
        }
    }

    /// Can `cell`, normalized as a join key, equal a build key? Against
    /// non-NaN bounds that are themselves normalized (never `-0.0`), IEEE
    /// comparison orders a numeric key as `Value`'s order orders its
    /// normalized form: `-0.0` falls where `0.0` does and a NaN outside.
    fn admits(&self, cell: &Value) -> bool {
        if let Some((lo, hi)) = self.floats {
            let x = match *cell {
                Value::Float(x) => Some(x),
                Value::Int(i) if self.lossy || i.unsigned_abs() <= EXACT_INT => Some(i as f64),
                _ => None,
            };
            if let Some(x) = x {
                return lo <= x && x <= hi;
            }
        }
        let key = normalize_key(Cow::Borrowed(cell), self.lossy);
        !key.is_null() && self.min <= *key && *key <= self.max
    }
}

/// How a hash join reads its equi keys off a probe tuple and a build
/// tuple.
pub(crate) struct JoinKeys<'a> {
    probe_exprs: Vec<&'a BoundExpr>,
    build_exprs: Vec<&'a BoundExpr>,
    /// Per key pair: one side is `INTEGER` and the other `DOUBLE`, so both
    /// normalize an integer as the float nearest to it, exactly as SQL
    /// equality compares them; see [`normalize_key`].
    lossy: Vec<bool>,
    probe_layout: Layout<'a>,
    build_layout: Layout<'a>,
}

impl<'a> JoinKeys<'a> {
    /// Fill `key` with tuple `p`'s probe-side key; see [`join_keys`].
    fn probe_key(&self, p: &[u32], key: &mut Vec<Cow<'a, Value>>) -> Result<bool> {
        join_keys(
            self.probe_layout.tuple(p),
            &self.probe_exprs,
            &self.lossy,
            key,
        )
    }

    /// Fill `key` with tuple `b`'s build-side key; see [`join_keys`].
    fn build_key(&self, b: &[u32], key: &mut Vec<Cow<'a, Value>>) -> Result<bool> {
        join_keys(
            self.build_layout.tuple(b),
            &self.build_exprs,
            &self.lossy,
            key,
        )
    }

    /// What one build tuple charges: its positions plus its own copy of
    /// the key.
    fn build_bytes(&self, key: &[Cow<'_, Value>]) -> u64 {
        4 * self.build_layout.width as u64 + key.iter().map(owned_value_bytes).sum::<u64>()
    }

    /// An empty batch of this join's output tuples.
    fn out(&self, tuples: usize) -> Tuples {
        Tuples::with_capacity(self.probe_layout.width + self.build_layout.width, tuples)
    }

    /// Hand `probe` the range of `map`'s first key column when `probe` is
    /// a scan that has not started and the first probe key is a bare
    /// column of its relation. A key that equals a build key lies between
    /// the least and the greatest of them, because `Value`'s order agrees
    /// with its equality, so the scan skips only rows that cannot match.
    fn prune_probe(&self, map: &BuildMap, probe: &mut TupleOp<'_>) {
        let (
            TupleKind::Scan {
                rel, pos: 0, range, ..
            },
            Some(BoundExpr::Column(id)),
        ) = (&mut probe.kind, self.probe_exprs.first())
        else {
            return;
        };
        if id.rel != *rel {
            return;
        }
        let mut keys = (0..map.keys.len()).map(|i| &map.keys.key(i)[0]);
        if let Some(first) = keys.next() {
            let (min, max) = keys.fold((first, first), |(lo, hi), k| (lo.min(k), hi.max(k)));
            *range = Some(KeyRange::new(id.col, min, max, self.lossy[0]));
        }
    }

    /// Append `p`'s matches in `map` to `out` as `p ++ build` tuples,
    /// in build arrival order; `key` is scratch space for its key. Ticks
    /// the guards per emitted tuple: a join can fan one probe tuple out
    /// into thousands, and cancellation latency must stay bounded by
    /// emitted work, not consumed work.
    fn probe_tuple(
        &self,
        map: &BuildMap,
        p: &[u32],
        key: &mut Vec<Cow<'a, Value>>,
        out: &mut Tuples,
        ticker: &mut Ticker,
        ctx: &ExecContext,
    ) -> Result<()> {
        if !self.probe_key(p, key)? {
            return Ok(());
        }
        if let Some(i) = map.keys.find(hash_key(key), key) {
            for b in map.chain(i) {
                ticker.row(ctx)?;
                out.push_pair(p, b);
            }
        }
        Ok(())
    }
}

/// Where a hash join is. Each pass builds a table from its build input
/// and probes it with its probe input; a pass whose build side outgrows
/// the budget partitions both inputs instead (see [`hj_build`]).
pub(crate) enum JoinState {
    /// Build side not yet read.
    Init,
    /// Joining. `table` is the build table being probed, the bytes it
    /// holds charged and its probe run (`None`: the probe child); there is
    /// none between partitions. `queue` holds the partition pairs still to
    /// join, each with the pass that reads it.
    Join {
        table: Option<Box<(BuildMap, u64, Option<Run>)>>,
        queue: Vec<(SpillFile, SpillFile, u32)>,
    },
}

/// Where a hash aggregation is.
pub(crate) enum AggState {
    /// Input not yet consumed.
    Init,
    /// Emitting the finished groups of one pass; `mem` is the bytes they
    /// still hold charged, released as rows are emitted. `queue` holds the
    /// partitions still to aggregate, each with the pass that reads it.
    Drain {
        rows: std::vec::IntoIter<Row>,
        mem: u64,
        queue: Vec<(SpillFile, u32)>,
    },
}

/// Materialization state of a sort.
pub(crate) enum SortState {
    /// Input not yet consumed.
    Fill,
    /// In-memory sort; draining. The `u64` is the still-charged bytes,
    /// released as rows are emitted.
    Drain(std::vec::IntoIter<Row>, u64),
    /// External merge sort: k-way merge over sorted runs on disk.
    Merge(Vec<RunCursor>),
}

/// One sorted run being merged, with its next row buffered.
pub(crate) struct RunCursor {
    head: Option<Row>,
    reader: SpillReader,
    /// Keeps the run file alive while it is read (deleted on drop).
    _file: SpillFile,
}

/// Counts rows inside spill and probe loops, ticking the context's
/// cancellation/deadline guards every [`SPILL_TICK_ROWS`] rows so a
/// cancelled query aborts mid-pass instead of finishing it.
struct Ticker(u32);

impl Ticker {
    fn new() -> Ticker {
        Ticker(0)
    }

    fn row(&mut self, ctx: &ExecContext) -> Result<()> {
        self.0 += 1;
        if self.0 >= SPILL_TICK_ROWS {
            self.0 = 0;
            ctx.tick()?;
        }
        Ok(())
    }
}

/// The spill partition a key belongs to. Deterministically seeded (not
/// `RandomState`) so a re-read row lands in the same partition, and
/// varied per pass so an oversized partition actually splits when
/// recursed with `pass + 1`. Borrowed (`Cow`) and owned cells hash alike.
fn partition_of<K: Hash>(key: &[K], pass: u32) -> usize {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (0x9e37_79b9_u64.wrapping_mul(pass as u64 + 1)).hash(&mut h);
    key.hash(&mut h);
    (h.finish() % SPILL_PARTITIONS as u64) as usize
}

/// One writer per spill partition, in the context's spill session.
fn new_partition_writers(ctx: &ExecContext) -> Result<Vec<SpillWriter>> {
    let session = ctx.spill()?;
    (0..SPILL_PARTITIONS)
        .map(|_| session.writer().map_err(EngineError::from))
        .collect()
}

fn finish_writers(writers: Vec<SpillWriter>) -> Result<Vec<SpillFile>> {
    writers
        .into_iter()
        .map(|w| w.finish().map_err(EngineError::from))
        .collect()
}

/// Write one row to a spill file, charging the disk budget and the
/// operator's spill counter.
fn spill_row(ctx: &ExecContext, m: &mut Metrics, w: &mut SpillWriter, row: &[Value]) -> Result<()> {
    let n = w.write_row(row)?;
    ctx.charge_disk(n)?;
    m.spill_bytes += n;
    Ok(())
}

/// Write one position tuple to a spill file, as a row of its positions.
fn spill_tuple(ctx: &ExecContext, m: &mut Metrics, w: &mut SpillWriter, t: &[u32]) -> Result<()> {
    let row: Row = t.iter().map(|&p| Value::Int(i64::from(p))).collect();
    spill_row(ctx, m, w, &row)
}

/// A spill partition of `width`-position tuples, read back by
/// [`Input::Run`].
pub(crate) struct Run {
    reader: SpillReader,
    width: usize,
    /// Keeps the file alive while it is read (deleted on drop).
    _file: SpillFile,
}

impl Run {
    fn open(file: SpillFile, width: usize) -> Result<Run> {
        Ok(Run {
            reader: file.reader()?,
            width,
            _file: file,
        })
    }

    /// The next batch of up to [`BATCH_SIZE`] tuples [`spill_tuple`]
    /// wrote; `None` at the end of the run.
    fn next_batch(&mut self, ctx: &ExecContext) -> Result<Option<Tuples>> {
        ctx.tick()?;
        let mut out = Tuples::with_capacity(self.width, BATCH_SIZE);
        while out.len() < BATCH_SIZE {
            let Some(row) = self.reader.next_row()? else {
                break;
            };
            let start = out.pos.len();
            for v in &row {
                match v {
                    Value::Int(p) if u32::try_from(*p).is_ok() => out.pos.push(*p as u32),
                    _ => break,
                }
            }
            if row.len() != self.width || out.pos.len() != start + self.width {
                return Err(EngineError::internal(format!(
                    "spilled position tuple {row:?} is not {} row positions",
                    self.width
                )));
            }
        }
        Ok((!out.is_empty()).then_some(out))
    }
}

/// Where one pass of a hash operator reads its position tuples: the
/// child operator on the first pass, a spill partition on every later one.
enum Input<'o, 'a> {
    Child(&'o mut TupleOp<'a>),
    Run(&'o mut Run),
}

impl Input<'_, '_> {
    fn next_batch(&mut self, m: &mut Metrics, ctx: &ExecContext) -> Result<Option<Tuples>> {
        match self {
            Input::Child(child) => pull(child, m, ctx),
            Input::Run(run) => run.next_batch(ctx),
        }
    }
}

/// What a blocking operator that can spill may hold: half the memory
/// budget, so an operator below it that spills too keeps room to run.
fn spill_cap(ctx: &ExecContext) -> u64 {
    ctx.limits().mem_bytes.map_or(u64::MAX, |b| b / 2)
}

fn nonempty(files: &[SpillFile]) -> u64 {
    files.iter().filter(|f| f.rows() > 0).count() as u64
}

impl<K: Step> Node<K> {
    fn new(name: impl Into<String>, kind: K) -> Self {
        Node {
            name: name.into(),
            kind,
            m: Metrics::default(),
        }
    }

    /// Pull the next batch, recording rows/batches/inclusive wall time.
    /// Checks the context's cancellation/deadline guards first, so every
    /// batch boundary in the pipeline is a cancellation point.
    pub(crate) fn next_batch(&mut self, ctx: &ExecContext) -> Result<Option<K::Out>> {
        ctx.tick()?;
        let start = Instant::now();
        let out = self.kind.step(&mut self.m, ctx);
        self.m.time += start.elapsed();
        if let Ok(Some(batch)) = &out {
            self.m.rows_out += K::count(batch) as u64;
            self.m.batches += 1;
        }
        out
    }

    /// Convert the (finished) operator tree into its statistics tree.
    pub(crate) fn harvest(self) -> OpStats {
        OpStats {
            name: self.name,
            rows_in: self.m.rows_in,
            rows_out: self.m.rows_out,
            batches: self.m.batches,
            time: self.m.time,
            peak_mem: self.m.peak_mem,
            spill_bytes: self.m.spill_bytes,
            spill_partitions: self.m.spill_partitions,
            spill_passes: self.m.spill_passes,
            runs: self.m.runs,
            hashed_at: self.m.hashed_at,
            pruned: self.m.pruned,
            children: self.kind.harvest_children(),
        }
    }
}

/// Pull one batch from `child`, crediting its size to the parent's
/// `rows_in` counter.
fn pull<K: Step>(
    child: &mut Node<K>,
    m: &mut Metrics,
    ctx: &ExecContext,
) -> Result<Option<K::Out>> {
    let batch = child.next_batch(ctx)?;
    if let Some(b) = &batch {
        m.rows_in += K::count(b) as u64;
    }
    Ok(batch)
}

impl<'a> Step for TupleKind<'a> {
    type Out = Tuples;

    fn count(out: &Tuples) -> usize {
        out.len()
    }

    fn step(&mut self, m: &mut Metrics, ctx: &ExecContext) -> Result<Option<Tuples>> {
        match self {
            TupleKind::Scan {
                rel,
                rows,
                pos,
                filter,
                range,
            } => {
                let mut out =
                    Tuples::with_capacity(1, BATCH_SIZE.min(rows.len().saturating_sub(*pos)));
                while *pos < rows.len() && out.pos.len() < BATCH_SIZE {
                    let row = &rows[*pos];
                    // In range: the table was checked against `u32` when
                    // the scan was built.
                    let p = *pos as u32;
                    *pos += 1;
                    m.rows_in += 1;
                    if let Some(range) = range {
                        let id = ColumnId {
                            rel: *rel,
                            col: range.col,
                        };
                        if !range.admits(row.get(id.col).ok_or_else(|| absent(id))?) {
                            m.pruned += 1;
                            continue;
                        }
                    }
                    match filter {
                        Some(pred) if !pred.eval_predicate(Stored { rel: *rel, row })? => {}
                        _ => out.pos.push(p),
                    }
                }
                Ok((!out.is_empty()).then_some(out))
            }

            TupleKind::Filter {
                child,
                pred,
                layout,
            } => {
                while let Some(batch) = pull(child, m, ctx)? {
                    let mut out = Tuples::with_capacity(batch.width, batch.len());
                    for t in batch.iter() {
                        if pred.eval_predicate(layout.tuple(t))? {
                            out.push(t);
                        }
                    }
                    if !out.is_empty() {
                        return Ok(Some(out));
                    }
                }
                Ok(None)
            }

            TupleKind::HashJoin {
                probe,
                build,
                keys,
                state,
            } => {
                if matches!(state, JoinState::Init) {
                    let mut queue = Vec::new();
                    let input = &mut Input::Child(probe);
                    let map = hj_build(Input::Child(build), input, 0, keys, &mut queue, m, ctx)?;
                    let table = match map {
                        // Nothing to match: the probe input is never read.
                        Some((map, mem)) if map.tuples.is_empty() => {
                            ctx.release(mem);
                            None
                        }
                        Some((map, mem)) => {
                            keys.prune_probe(&map, probe);
                            Some(Box::new((map, mem, None)))
                        }
                        None => None,
                    };
                    *state = JoinState::Join { table, queue };
                }
                let JoinState::Join { table, queue } = state else {
                    return Err(EngineError::internal(
                        "hash join probed before its build side",
                    ));
                };
                loop {
                    if let Some(t) = table {
                        let (map, mem, run) = &mut **t;
                        let mut input = match run {
                            Some(run) => Input::Run(run),
                            None => Input::Child(probe),
                        };
                        if let Some(out) = hj_probe(&mut input, map, keys, m, ctx)? {
                            return Ok(Some(out));
                        }
                        // Probe exhausted: the build table is dead weight
                        // now, so hand its budget back before the next pass
                        // or upstream operators compete for it.
                        ctx.release(*mem);
                        *table = None;
                    }
                    let Some((bfile, pfile, pass)) = queue.pop() else {
                        return Ok(None);
                    };
                    let mut brun = Run::open(bfile, keys.build_layout.width)?;
                    let mut prun = Run::open(pfile, keys.probe_layout.width)?;
                    let probe = &mut Input::Run(&mut prun);
                    let map = hj_build(Input::Run(&mut brun), probe, pass, keys, queue, m, ctx)?;
                    *table = map.map(|(map, mem)| Box::new((map, mem, Some(prun))));
                }
            }

            TupleKind::CrossJoin {
                probe,
                build,
                build_tuples,
            } => {
                if build_tuples.is_none() {
                    let mut all = Tuples::default();
                    while let Some(batch) = pull(build, m, ctx)? {
                        ctx.charge(batch.bytes())?;
                        all.append(batch);
                    }
                    m.peak_mem = all.bytes();
                    *build_tuples = Some(all);
                }
                let right = build_tuples.as_ref().ok_or_else(|| {
                    EngineError::internal("cross join probed before materializing its build side")
                })?;
                if right.is_empty() {
                    return Ok(None);
                }
                while let Some(batch) = pull(probe, m, ctx)? {
                    let mut out = Tuples::with_capacity(
                        batch.width + right.width,
                        batch.len().saturating_mul(right.len()),
                    );
                    for l in batch.iter() {
                        for r in right.iter() {
                            out.push_pair(l, r);
                        }
                    }
                    if !out.is_empty() {
                        return Ok(Some(out));
                    }
                }
                // Probe exhausted: release the materialized build side.
                ctx.release(right.bytes());
                *build_tuples = Some(Tuples::default());
                Ok(None)
            }
        }
    }

    fn harvest_children(self) -> Vec<OpStats> {
        match self {
            TupleKind::Scan { .. } => vec![],
            TupleKind::Filter { child, .. } => vec![child.harvest()],
            TupleKind::HashJoin { probe, build, .. }
            | TupleKind::CrossJoin { probe, build, .. } => {
                vec![probe.harvest(), build.harvest()]
            }
        }
    }
}

impl<'a> Step for OpKind<'a> {
    type Out = Batch;

    fn count(out: &Batch) -> usize {
        out.len()
    }

    fn step(&mut self, m: &mut Metrics, ctx: &ExecContext) -> Result<Option<Batch>> {
        match self {
            OpKind::HashAggregate { child, agg, state } => {
                if matches!(state, AggState::Init) {
                    let mut queue = Vec::new();
                    let input = Input::Child(child);
                    let (rows, mem) = aggregate_input(input, 0, agg, &mut queue, m, ctx)?;
                    *state = AggState::Drain {
                        rows: rows.into_iter(),
                        mem,
                        queue,
                    };
                }
                let AggState::Drain { rows, mem, queue } = state else {
                    return Err(EngineError::internal(
                        "aggregate drained before aggregating",
                    ));
                };
                loop {
                    let out: Batch = rows.take(BATCH_SIZE).collect();
                    if !out.is_empty() {
                        release_emitted(ctx, &out, mem);
                        return Ok(Some(out));
                    }
                    ctx.release(std::mem::take(mem));
                    let Some((file, pass)) = queue.pop() else {
                        return Ok(None);
                    };
                    let mut run = Run::open(file, agg.layout.width)?;
                    let input = Input::Run(&mut run);
                    let (next, bytes) = aggregate_input(input, pass, agg, queue, m, ctx)?;
                    *rows = next.into_iter();
                    *mem = bytes;
                }
            }

            OpKind::Filter { child, pred } => {
                while let Some(batch) = pull(child, m, ctx)? {
                    let mut out = Vec::with_capacity(batch.len());
                    for row in batch {
                        if pred.eval_predicate(&row)? {
                            out.push(row);
                        }
                    }
                    if !out.is_empty() {
                        return Ok(Some(out));
                    }
                }
                Ok(None)
            }

            OpKind::Project {
                input,
                output,
                appended,
            } => {
                let width = output.len() + appended.len();
                let out = match input {
                    ProjectInput::Slots {
                        child,
                        moves,
                        whole,
                    } => {
                        let Some(batch) = pull(child, m, ctx)? else {
                            return Ok(None);
                        };
                        if *whole {
                            return Ok(Some(batch));
                        }
                        let mut out = Vec::with_capacity(batch.len());
                        for mut row in batch {
                            let mut projected = Vec::with_capacity(width);
                            for (item, cell) in output.iter().zip(moves.iter()) {
                                projected.push(match cell {
                                    // Nothing else reads the cell: leave a NULL.
                                    Some(i) => std::mem::replace(&mut row[*i], Value::Null),
                                    None => item.expr.eval(&row)?,
                                });
                            }
                            for e in appended.iter() {
                                projected.push(e.eval(&row)?);
                            }
                            out.push(projected);
                        }
                        out
                    }
                    ProjectInput::Tuples { child, layout } => {
                        let Some(batch) = pull(child, m, ctx)? else {
                            return Ok(None);
                        };
                        let mut out = Vec::with_capacity(batch.len());
                        for t in batch.iter() {
                            let t = layout.tuple(t);
                            let mut projected = Vec::with_capacity(width);
                            for item in output.iter() {
                                projected.push(item.expr.eval(t)?);
                            }
                            for e in appended.iter() {
                                projected.push(e.eval(t)?);
                            }
                            out.push(projected);
                        }
                        out
                    }
                };
                Ok(Some(out))
            }

            OpKind::Distinct { child, seen, mem } => {
                while let Some(batch) = pull(child, m, ctx)? {
                    let mut out = Vec::with_capacity(batch.len());
                    let mut batch_mem = 0u64;
                    for row in batch {
                        let hash = hash_key(&row);
                        if seen.find(hash, &row).is_none() {
                            batch_mem += approx_row_bytes(&row);
                            seen.push(hash, row.iter().cloned())?;
                            out.push(row);
                        }
                    }
                    ctx.charge(batch_mem)?;
                    *mem += batch_mem;
                    m.peak_mem = *mem;
                    if !out.is_empty() {
                        return Ok(Some(out));
                    }
                }
                // Input exhausted: the dedup table is no longer needed.
                ctx.release(std::mem::take(mem));
                *seen = KeyTable::new(0);
                Ok(None)
            }

            OpKind::Sort {
                child,
                keys,
                n_out,
                state,
            } => {
                if matches!(state, SortState::Fill) {
                    *state = sort_input(child, keys, *n_out, m, ctx)?;
                }
                match state {
                    SortState::Fill => Err(EngineError::internal("sort drained before sorting")),
                    SortState::Drain(iter, mem) => {
                        let out: Batch = iter.take(BATCH_SIZE).collect();
                        if out.is_empty() {
                            ctx.release(std::mem::take(mem));
                            return Ok(None);
                        }
                        release_emitted(ctx, &out, mem);
                        Ok(Some(out))
                    }
                    SortState::Merge(cursors) => merge_runs(cursors, keys, *n_out, ctx),
                }
            }

            OpKind::Limit { child, remaining } => {
                if *remaining == 0 {
                    return Ok(None);
                }
                while let Some(mut batch) = pull(child, m, ctx)? {
                    if batch.len() as u64 > *remaining {
                        batch.truncate(*remaining as usize);
                    }
                    *remaining -= batch.len() as u64;
                    if !batch.is_empty() {
                        return Ok(Some(batch));
                    }
                }
                Ok(None)
            }
        }
    }

    fn harvest_children(self) -> Vec<OpStats> {
        match self {
            OpKind::HashAggregate { child, .. } => vec![child.harvest()],
            OpKind::Project { input, .. } => match input {
                ProjectInput::Slots { child, .. } => vec![child.harvest()],
                ProjectInput::Tuples { child, .. } => vec![child.harvest()],
            },
            OpKind::Filter { child, .. }
            | OpKind::Distinct { child, .. }
            | OpKind::Sort { child, .. }
            | OpKind::Limit { child, .. } => vec![child.harvest()],
        }
    }
}

/// Where `Sort` finds each `ORDER BY` key of a query with `output`, and
/// the expressions `Project` appends for it. A key the output computes —
/// an output column, or an expression equal to an output item — is read
/// in place; any other expression is appended past the output columns.
fn sort_keys<'a>(
    output: &[OutputItem],
    order_by: &'a [BoundOrderBy],
) -> (Vec<SortKey>, Vec<&'a BoundExpr>) {
    let mut appended = Vec::new();
    let keys = order_by
        .iter()
        .map(|ob| {
            let col = match &ob.key {
                OrderKey::Output(i) => *i,
                OrderKey::Expr(e) => match output.iter().position(|o| o.expr == *e) {
                    Some(i) => i,
                    None => {
                        appended.push(e);
                        output.len() + appended.len() - 1
                    }
                },
            };
            SortKey { col, desc: ob.desc }
        })
        .collect();
    (keys, appended)
}

/// Release the budget held for rows that just left a blocking operator,
/// capped at whatever the operator still has charged (`mem`). Emitted
/// rows may be accounted to a downstream operator or the result buffer
/// next, so keeping them charged here would double-bill the budget.
fn release_emitted(ctx: &ExecContext, out: &[Row], mem: &mut u64) {
    let freed = out.iter().map(approx_row_bytes).sum::<u64>().min(*mem);
    ctx.release(freed);
    *mem -= freed;
}

/// For each output item, the aggregate slot [`OpKind::Project`] may move
/// into the output row instead of cloning: the item is a bare slot and no
/// other output or `ORDER BY` expression reads it. That is every group
/// key and aggregate output of a plain `SELECT k…, agg…`, text keys
/// included.
fn movable_cells(output: &[OutputItem], appended: &[&BoundExpr]) -> Vec<Option<usize>> {
    let read: Vec<ColumnId> = output
        .iter()
        .map(|item| &item.expr)
        .chain(appended.iter().copied())
        .flat_map(BoundExpr::columns)
        .collect();
    output
        .iter()
        .map(|item| match &item.expr {
            BoundExpr::Column(id) if read.iter().filter(|c| *c == id).count() == 1 => {
                (id.rel == 0).then_some(id.col)
            }
            _ => None,
        })
        .collect()
}

/// Evaluate and normalize the join key expressions over `cells` into
/// `key` (cleared first), each as its pair's `lossy` flag says; `false`
/// when any key is NULL or NaN, which SQL equality never matches.
fn join_keys<'x>(
    cells: impl Cells<'x>,
    exprs: &[&'x BoundExpr],
    lossy: &[bool],
    key: &mut Vec<Cow<'x, Value>>,
) -> Result<bool> {
    key.clear();
    for (e, lossy) in exprs.iter().zip(lossy) {
        let v = e.eval_ref(cells)?;
        if v.is_null() || matches!(*v, Value::Float(x) if x.is_nan()) {
            return Ok(false);
        }
        key.push(normalize_key(v, *lossy));
    }
    Ok(true)
}

/// The largest integer magnitude a join key compares as the float it
/// equals: every integer up to 2⁵³ is exactly a float.
const EXACT_INT: u64 = 1 << 53;

/// Normalize a join key so numerically equal Int/Float values collide and
/// `-0.0` meets `0.0`. An integer is read as the float nearest to it when
/// `lossy` (its pair compares an `INTEGER` with a `DOUBLE`, as SQL
/// equality does: `i as f64`) or when that float is exact (|i| ≤ 2⁵³);
/// past 2⁵³ an `INTEGER = INTEGER` key stays exact. Anything else — a
/// text key above all — stays borrowed from the row.
fn normalize_key(v: Cow<'_, Value>, lossy: bool) -> Cow<'_, Value> {
    match *v {
        Value::Int(i) if lossy || i.unsigned_abs() <= EXACT_INT => {
            Cow::Owned(Value::Float(i as f64))
        }
        Value::Float(0.0) => Cow::Owned(Value::Float(0.0)),
        _ => v,
    }
}

/// [`approx_value_bytes`] of the owned copy a key table would keep of
/// `v`: a borrowed text cell is cloned to exactly its length, whatever
/// capacity the row's own string carries.
#[allow(clippy::ptr_arg)] // which `Cow` variant it is decides the answer
fn owned_value_bytes(v: &Cow<'_, Value>) -> u64 {
    match v {
        Cow::Borrowed(Value::Text(s)) => (std::mem::size_of::<Value>() + s.len()) as u64,
        _ => approx_value_bytes(v),
    }
}

// ---------------------------------------------------------------------------
// Grace hash join
// ---------------------------------------------------------------------------

/// Stream `input` against a build table: the next non-empty batch of
/// matches, `None` once `input` is exhausted.
fn hj_probe(
    input: &mut Input<'_, '_>,
    map: &BuildMap,
    keys: &JoinKeys<'_>,
    m: &mut Metrics,
    ctx: &ExecContext,
) -> Result<Option<Tuples>> {
    let mut ticker = Ticker::new();
    let mut key = Vec::with_capacity(keys.probe_exprs.len());
    while let Some(batch) = input.next_batch(m, ctx)? {
        let mut out = keys.out(batch.len());
        for p in batch.iter() {
            keys.probe_tuple(map, p, &mut key, &mut out, &mut ticker, ctx)?;
        }
        if !out.is_empty() {
            return Ok(Some(out));
        }
    }
    Ok(None)
}

/// Build one pass of a hash join: load `build` into a table while the
/// budget lasts and return it with the bytes it charged. Past the budget
/// the table and the rest of `build` go to partitions under `pass`'s
/// hash, `probe` follows them under the same hash, the partition pairs
/// are queued for `pass + 1`, and there is no table. The last pass
/// charges hard.
fn hj_build(
    mut build: Input<'_, '_>,
    probe: &mut Input<'_, '_>,
    pass: u32,
    keys: &JoinKeys<'_>,
    queue: &mut Vec<(SpillFile, SpillFile, u32)>,
    m: &mut Metrics,
    ctx: &ExecContext,
) -> Result<Option<(BuildMap, u64)>> {
    let mut map = BuildMap::new(keys.build_exprs.len());
    let mut mem = 0u64;
    let mut writers: Option<Vec<SpillWriter>> = None;
    let mut ticker = Ticker::new();
    let mut key = Vec::with_capacity(keys.build_exprs.len());
    while let Some(batch) = build.next_batch(m, ctx)? {
        for b in batch.iter() {
            if !keys.build_key(b, &mut key)? {
                continue;
            }
            if let Some(ws) = &mut writers {
                spill_tuple(ctx, m, &mut ws[partition_of(&key, pass)], b)?;
                continue;
            }
            let bytes = keys.build_bytes(&key);
            if !ctx.try_charge(bytes) {
                if pass < MAX_SPILL_PASSES && ctx.limits().disk_bytes != Some(0) {
                    // Budget full: partition what we have, release the
                    // memory, spill everything still to come.
                    let mut ws = new_partition_writers(ctx)?;
                    m.spill_passes += 1;
                    map.flush(pass, &mut ws, m, ctx, &mut ticker)?;
                    m.peak_mem = m.peak_mem.max(mem);
                    ctx.release(mem);
                    mem = 0;
                    spill_tuple(ctx, m, &mut ws[partition_of(&key, pass)], b)?;
                    writers = Some(ws);
                    continue;
                }
                // End of the ladder: charge hard, which either fits (the
                // budget freed up) or aborts with ResourceExhausted.
                ctx.charge(bytes)?;
            }
            mem += bytes;
            map.insert(&key, b)?;
        }
    }
    m.peak_mem = m.peak_mem.max(mem);
    let Some(build_ws) = writers else {
        return Ok(Some((map, mem)));
    };
    // NULL keys can never match, so they are dropped here.
    let mut probe_ws = new_partition_writers(ctx)?;
    while let Some(batch) = probe.next_batch(m, ctx)? {
        for p in batch.iter() {
            if keys.probe_key(p, &mut key)? {
                spill_tuple(ctx, m, &mut probe_ws[partition_of(&key, pass)], p)?;
            }
        }
    }
    let build_files = finish_writers(build_ws)?;
    let probe_files = finish_writers(probe_ws)?;
    m.spill_partitions += nonempty(&build_files);
    queue.extend(
        build_files
            .into_iter()
            .zip(probe_files)
            .filter(|(b, p)| b.rows() > 0 && p.rows() > 0)
            .map(|(b, p)| (b, p, pass + 1)),
    );
    Ok(None)
}

// ---------------------------------------------------------------------------
// External merge sort
// ---------------------------------------------------------------------------

/// One `ORDER BY` key: a column of the projected row, and its direction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SortKey {
    col: usize,
    desc: bool,
}

/// Compare two rows on `keys`.
fn cmp_sort_keys(a: &Row, b: &Row, keys: &[SortKey]) -> Ordering {
    for k in keys {
        let ord = a[k.col].cmp(&b[k.col]);
        let ord = if k.desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Stable-sort `rows` on `keys`. What is sorted is a `(prefix, index)`
/// pair per row, [`sort_prefix`] first: a full [`cmp_sort_keys`] runs only
/// where two prefixes tie and neither holds its whole key, and the index
/// breaks full ties, so the order is a stable sort's. Then each row moves
/// once, into its place.
fn sort_rows(mut rows: Vec<Row>, keys: &[SortKey]) -> Vec<Row> {
    let mut order: Vec<(u128, usize)> = rows
        .iter()
        .enumerate()
        .map(|(i, row)| (sort_prefix(row, keys), i))
        .collect();
    order.sort_unstable_by(|(pa, a), (pb, b)| {
        pa.cmp(pb)
            .then_with(|| match pa & u128::from(TRUNCATED) {
                0 => Ordering::Equal,
                _ => cmp_sort_keys(&rows[*a], &rows[*b], keys),
            })
            .then(a.cmp(b))
    });
    order
        .into_iter()
        .map(|(_, i)| std::mem::take(&mut rows[i]))
        .collect()
}

/// Bytes of a [`sort_prefix`]: the encoding's first fifteen, then a flag.
const PREFIX_BYTES: usize = 16;

/// A [`sort_prefix`]'s last byte when the encoding did not fit.
const TRUNCATED: u8 = 1;

/// `row`'s sort key as an order-preserving byte string, read as a
/// big-endian integer: its first fifteen bytes, zero-padded, then
/// [`TRUNCATED`] if the encoding was longer. A smaller prefix means an
/// earlier row. Equal prefixes without the flag mean equal keys; with it
/// (both have it then), nothing.
///
/// Each key encodes exactly and prefix-free, so concatenated keys compare
/// as the key tuples do, and a truncated encoding never contradicts the
/// full one. A type-rank byte comes first (NULL < BOOLEAN < numbers <
/// TEXT < DATE, as `Value::cmp`). A number is its `f64` image in
/// `total_cmp` order, then `0` for an `INTEGER` with its distance from the
/// image in two bytes (past 2⁵³ the image rounds, by at most 2¹⁰) or `1`
/// for a `DOUBLE`: `Value::cmp`'s numeric order. Text is its bytes with
/// `0x00` escaped as `00 FF`, ended by `00 01`. A `DESC` key's bytes are
/// inverted.
fn sort_prefix(row: &Row, keys: &[SortKey]) -> u128 {
    let mut out = PrefixWriter {
        bytes: [0; PREFIX_BYTES],
        len: 0,
        flip: 0,
    };
    for k in keys {
        out.flip = if k.desc { 0xff } else { 0 };
        if !out.value(&row[k.col]) {
            out.bytes[PREFIX_BYTES - 1] = TRUNCATED;
            break;
        }
    }
    u128::from_be_bytes(out.bytes)
}

/// A [`sort_prefix`] being written; `flip` inverts the current key.
struct PrefixWriter {
    bytes: [u8; PREFIX_BYTES],
    len: usize,
    flip: u8,
}

impl PrefixWriter {
    /// Append `bytes`; `false` if they did not all fit.
    fn put(&mut self, bytes: &[u8]) -> bool {
        for b in bytes {
            if self.len == PREFIX_BYTES - 1 {
                return false;
            }
            self.bytes[self.len] = b ^ self.flip;
            self.len += 1;
        }
        true
    }

    /// Append one key's encoding; `false` if it did not all fit.
    fn value(&mut self, v: &Value) -> bool {
        /// `total_cmp`'s order as unsigned big-endian bytes.
        fn float(f: f64) -> [u8; 8] {
            let bits = f.to_bits();
            let mask = if bits >> 63 == 1 { u64::MAX } else { 1 << 63 };
            (bits ^ mask).to_be_bytes()
        }
        match v {
            Value::Null => self.put(&[0]),
            Value::Bool(b) => self.put(&[1, u8::from(*b)]),
            Value::Int(i) => {
                let image = *i as f64;
                // |i - image| ≤ 2¹⁰: half an ulp at 2⁶³.
                let off = (i128::from(*i) - image as i128) as i16;
                self.put(&[2])
                    && self.put(&float(image))
                    && self.put(&[0])
                    && self.put(&((off as u16) ^ 0x8000).to_be_bytes())
            }
            Value::Float(f) => self.put(&[2]) && self.put(&float(*f)) && self.put(&[1]),
            Value::Text(s) => {
                self.put(&[3])
                    && s.as_bytes().iter().all(|&b| match b {
                        0 => self.put(&[0, 0xff]),
                        b => self.put(&[b]),
                    })
                    && self.put(&[0, 1])
            }
            Value::Date(d) => {
                self.put(&[4]) && self.put(&((d.days() as u32) ^ (1 << 31)).to_be_bytes())
            }
        }
    }
}

/// Consume the sort's input. In memory while the budget lasts; past it,
/// flushes sorted runs to disk and returns a k-way merge state.
fn sort_input(
    child: &mut OpNode<'_>,
    keys: &[SortKey],
    n_out: usize,
    m: &mut Metrics,
    ctx: &ExecContext,
) -> Result<SortState> {
    let mut buf: Vec<Row> = Vec::new();
    let mut mem = 0u64;
    let mut runs: Vec<SpillFile> = Vec::new();
    let mut ticker = Ticker::new();
    let cap = spill_cap(ctx);
    while let Some(batch) = pull(child, m, ctx)? {
        for row in batch {
            let bytes = approx_row_bytes(&row);
            if mem + bytes > cap || !ctx.try_charge(bytes) {
                // Flush the buffer as one sorted run, then retry; a
                // single row bigger than the whole budget, or any row
                // when spilling is off, still charges hard.
                if !buf.is_empty() && ctx.limits().disk_bytes != Some(0) {
                    runs.push(flush_run(&mut buf, keys, m, ctx, &mut ticker)?);
                    ctx.release(mem);
                    mem = 0;
                }
                if !ctx.try_charge(bytes) {
                    ctx.charge(bytes)?;
                }
            }
            mem += bytes;
            m.peak_mem = m.peak_mem.max(mem);
            buf.push(row);
        }
    }
    if runs.is_empty() {
        let mut sorted = sort_rows(buf, keys);
        for row in &mut sorted {
            row.truncate(n_out);
        }
        return Ok(SortState::Drain(sorted.into_iter(), mem));
    }
    if !buf.is_empty() {
        runs.push(flush_run(&mut buf, keys, m, ctx, &mut ticker)?);
    }
    ctx.release(mem);
    m.spill_partitions = runs.len() as u64;
    m.spill_passes = 1;
    let mut cursors = Vec::with_capacity(runs.len());
    for file in runs {
        let mut reader = file.reader()?;
        let head = reader.next_row()?;
        cursors.push(RunCursor {
            head,
            reader,
            _file: file,
        });
    }
    Ok(SortState::Merge(cursors))
}

/// Stable-sort `buf` and write it out as one run, leaving it empty. Rows
/// keep their appended key columns; the merge strips them.
fn flush_run(
    buf: &mut Vec<Row>,
    keys: &[SortKey],
    m: &mut Metrics,
    ctx: &ExecContext,
    ticker: &mut Ticker,
) -> Result<SpillFile> {
    let mut w = ctx.spill()?.writer()?;
    for row in sort_rows(std::mem::take(buf), keys) {
        ticker.row(ctx)?;
        spill_row(ctx, m, &mut w, &row)?;
    }
    Ok(w.finish()?)
}

/// Emit up to one batch from a k-way merge over sorted runs. Ties pick
/// the lowest run index: runs were flushed in input order, so the merge
/// is as stable as the in-memory sort.
fn merge_runs(
    cursors: &mut [RunCursor],
    keys: &[SortKey],
    n_out: usize,
    ctx: &ExecContext,
) -> Result<Option<Batch>> {
    let mut ticker = Ticker::new();
    let mut out = Vec::new();
    while out.len() < BATCH_SIZE {
        ticker.row(ctx)?;
        let mut best: Option<usize> = None;
        for i in 0..cursors.len() {
            let Some(head) = &cursors[i].head else {
                continue;
            };
            best = match best {
                None => Some(i),
                Some(b) => {
                    let cur = cursors[b]
                        .head
                        .as_ref()
                        .ok_or_else(|| EngineError::internal("sort merge lost a run head"))?;
                    if cmp_sort_keys(head, cur, keys) == Ordering::Less {
                        Some(i)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        let Some(b) = best else {
            break;
        };
        let next = cursors[b].reader.next_row()?;
        let Some(mut row) = std::mem::replace(&mut cursors[b].head, next) else {
            break;
        };
        row.truncate(n_out);
        out.push(row);
    }
    Ok((!out.is_empty()).then_some(out))
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// `"HashAggregate"`, followed in parentheses by `runs of <column>` when
/// it aggregates in runs of its [`run_key`] and by `SUM of m DOUBLE
/// factors` for each product-sum it folds: the aggregate's name in the
/// statistics and in `EXPLAIN`, so a reader sees which path runs.
fn aggregate_label(group: &GroupSpec, run_key: Option<&str>) -> String {
    let products: Vec<String> = group
        .aggs
        .iter()
        .filter(|a| !a.factors.is_empty())
        .map(|a| format!("SUM of {} DOUBLE factors", a.factors.len()))
        .collect();
    let mut parts: Vec<String> = run_key
        .map(|col| format!("runs of {col}"))
        .into_iter()
        .collect();
    if !products.is_empty() {
        parts.push(products.join(", "));
    }
    if parts.is_empty() {
        "HashAggregate".to_string()
    } else {
        format!("HashAggregate ({})", parts.join("; "))
    }
}

/// The `GROUP BY` key an aggregate over a join tree with spine `spine`
/// aggregates in runs of: the first key that is a bare column of the
/// spine relation. Its index in `group.keys` and the column.
fn run_key(group: &GroupSpec, spine: usize) -> Option<(usize, ColumnId)> {
    group.keys.iter().enumerate().find_map(|(i, k)| match k {
        BoundExpr::Column(id) if id.rel == spine => Some((i, *id)),
        _ => None,
    })
}

/// What a `HashAggregate` reads its tuples through: the join tree's
/// layout, the `GROUP BY`, and what the spine — the relation whose scan
/// order the tuples follow — lets it skip.
pub(crate) struct AggSpec<'a> {
    layout: Layout<'a>,
    group: &'a GroupSpec,
    /// Per call, its state with no groups, which each pass starts from.
    states: Vec<States>,
    /// The tuple slot of the spine's row position.
    spine: usize,
    /// Per group key: it reads no relation but the spine, so it is
    /// evaluated once per spine row, not once per tuple.
    spine_keys: Vec<bool>,
    /// The key the aggregate runs on ([`run_key`]): its index in the
    /// group key, and its column.
    run: Option<(usize, ColumnId)>,
}

impl<'a> AggSpec<'a> {
    fn new(plan: &Plan, group: &'a GroupSpec, layout: Layout<'a>, spine: usize) -> AggSpec<'a> {
        // The root layout holds every relation; without a slot there is
        // nothing to follow.
        let slot = layout
            .rels
            .get(spine)
            .copied()
            .flatten()
            .map(|(slot, _)| slot);
        let spine_keys = group
            .keys
            .iter()
            .map(|k| slot.is_some() && k.columns().iter().all(|c| c.rel == spine))
            .collect();
        let types = |id| column_type(&plan.relations, id);
        AggSpec {
            layout,
            group,
            states: group.aggs.iter().map(|c| States::new(c, &types)).collect(),
            spine: slot.unwrap_or(0),
            spine_keys,
            run: slot.and_then(|_| run_key(group, spine)),
        }
    }
}

/// Groups a run may make before its pass stops aggregating in runs.
const RUN_GROUPS: usize = 8;

/// A pass aggregating in runs of one run-key value: while no value
/// reappears after its run ends, a tuple's group is one of the open run's
/// few groups or a new one, found by a linear scan. Only each run's value
/// is hashed, into the set of closed runs, to catch one reappearing.
struct Runs {
    /// The run key's index in the group key.
    col: usize,
    /// The open run's first group and its value's hash; `None` before
    /// the first tuple.
    open: Option<(usize, u64)>,
    /// The values of the closed runs.
    closed: KeyTable,
}

/// Where a pass in runs puts a tuple.
enum RunSlot {
    /// Into this group of the open run.
    Group(usize),
    /// Into a new group, the next one made.
    New,
    /// Nowhere: its run key reappeared, or its run outgrew
    /// [`RUN_GROUPS`]. The pass hashes from here on.
    Broken,
}

impl Runs {
    fn new(col: usize) -> Runs {
        Runs {
            col,
            open: None,
            closed: KeyTable::new(1),
        }
    }

    /// Place a tuple whose group key is `key`. A new run-key value closes
    /// the open run and opens one that starts at the next group.
    fn place(&mut self, groups: &KeyTable, key: &[Cow<'_, Value>], m: &mut Metrics) -> RunSlot {
        let value = std::slice::from_ref(&key[self.col]);
        if let Some((first, _)) = self.open {
            if groups.key(first)[self.col] == *value[0] {
                let group = (first..groups.len())
                    .find(|&i| groups.key(i).iter().zip(key).all(|(a, b)| a == &**b));
                return match group {
                    Some(i) => RunSlot::Group(i),
                    None if groups.len() - first < RUN_GROUPS => RunSlot::New,
                    None => RunSlot::Broken,
                };
            }
        }
        let hash = hash_key(value);
        if self.closed.find(hash, value).is_some() {
            return RunSlot::Broken;
        }
        if let Some((first, closing)) = self.open {
            let cell = groups.key(first)[self.col].clone();
            if self.closed.push(closing, [cell]).is_err() {
                return RunSlot::Broken;
            }
        }
        self.open = Some((groups.len(), hash));
        m.runs += 1;
        RunSlot::New
    }
}

/// Aggregate one pass of `input`. Groups are made in memory while they fit
/// in [`spill_cap`]. Past it, the groups already in memory keep absorbing
/// their tuples, and a tuple whose key is new goes to a partition under
/// `pass`'s hash instead; the partitions are queued for `pass + 1`. So
/// every group lives in memory or in exactly one partition, and no group
/// state is ever written out. Returns this pass's finished rows in
/// first-seen group order and the bytes they hold charged. The last pass
/// charges hard.
///
/// With a run key the pass starts in [`Runs`], which makes the groups the
/// hash lookup would, in the same order, without hashing them. The first
/// tuple that breaks run order — its run key reappears, its run outgrows
/// [`RUN_GROUPS`], or its new group's charge fails — indexes every group
/// made so far, and the rest of the pass hashes. Either way each group is
/// charged as it is made, so spilling does not depend on the mode.
fn aggregate_input(
    mut input: Input<'_, '_>,
    pass: u32,
    agg: &AggSpec<'_>,
    queue: &mut Vec<(SpillFile, u32)>,
    m: &mut Metrics,
    ctx: &ExecContext,
) -> Result<(Vec<Row>, u64)> {
    let group = agg.group;
    // The groups' keys, and beside them one state column per aggregate
    // call, indexed by the key's entry number: both in first-seen group
    // order, so output order is the same on every run.
    let mut keys = KeyTable::new(group.keys.len());
    let mut states = agg.states.clone();
    let states_bytes = states.iter().map(States::bytes).sum::<u64>();
    let mut mem = 0u64;
    let mut writers: Option<Vec<SpillWriter>> = None;
    let cap = spill_cap(ctx);

    if group.keys.is_empty() {
        // The one global group exists even over empty input; it is
        // reported but never charged.
        states.iter_mut().for_each(States::push);
        keys.push(hash_key::<Value>(&[]), [])?;
        m.peak_mem = states_bytes;
    }

    let mut runs = agg.run.map(|(col, _)| Runs::new(col));
    // The current tuple's group key. Its spine keys are kept while
    // consecutive tuples share the spine row `at`.
    let mut key = vec![Cow::Owned(Value::Null); group.keys.len()];
    let mut at = None;
    let mut tuples = 0u64;
    // A join's batch can hold far more than `BATCH_SIZE` tuples.
    let mut ticker = Ticker::new();
    // End the pass's run mode: index the groups, hash from here on.
    let stop_runs = |runs: &mut Option<Runs>, keys: &mut KeyTable, m: &mut Metrics, at: u64| {
        if runs.take().is_some() {
            keys.index();
            m.hashed_at.get_or_insert(at);
        }
    };

    while let Some(batch) = input.next_batch(m, ctx)? {
        for p in batch.iter() {
            ticker.row(ctx)?;
            let t = agg.layout.tuple(p);
            tuples += 1;
            let same_row = at == Some(p[agg.spine]);
            at = Some(p[agg.spine]);
            for ((cell, k), spine_key) in key.iter_mut().zip(&group.keys).zip(&agg.spine_keys) {
                if !(same_row && *spine_key) {
                    *cell = k.eval_ref(t)?;
                }
            }
            let mut hash = None;
            let found = match runs.as_mut().map(|r| r.place(&keys, &key, m)) {
                Some(RunSlot::Group(i)) => Some(i),
                Some(RunSlot::New) => None,
                Some(RunSlot::Broken) | None => {
                    stop_runs(&mut runs, &mut keys, m, tuples);
                    let h = *hash.insert(hash_key(&key));
                    keys.find(h, &key)
                }
            };
            let i = match found {
                Some(i) => i,
                None => {
                    let bytes = key.iter().map(owned_value_bytes).sum::<u64>() + states_bytes;
                    if writers.is_none() && mem + bytes <= cap && ctx.try_charge(bytes) {
                        mem += bytes;
                    } else if pass < MAX_SPILL_PASSES && ctx.limits().disk_bytes != Some(0) {
                        // Once one key has gone to disk, every new one
                        // does: a group made in memory now might already
                        // have tuples in a partition.
                        stop_runs(&mut runs, &mut keys, m, tuples);
                        let ws = match &mut writers {
                            Some(ws) => ws,
                            None => {
                                m.spill_passes += 1;
                                writers.insert(new_partition_writers(ctx)?)
                            }
                        };
                        spill_tuple(ctx, m, &mut ws[partition_of(&key, pass)], p)?;
                        continue;
                    } else {
                        // End of the ladder: charge hard.
                        ctx.charge(bytes)?;
                        mem += bytes;
                    }
                    // Indexed under `hash`; unindexed in a run.
                    states.iter_mut().for_each(States::push);
                    let cells = key.iter().map(|c| Value::clone(c));
                    match hash {
                        Some(hash) => keys.push(hash, cells)?,
                        None => keys.push_unindexed(cells)?,
                    }
                }
            };
            for (states, call) in states.iter_mut().zip(&group.aggs) {
                match &call.arg {
                    // Only a non-`DISTINCT` `SUM` has factors: its term goes
                    // into the `SUM` state as `update` would put it there.
                    _ if !call.factors.is_empty() => {
                        let term = product(t, &call.factors)?;
                        if let (Some(term), Column::Sum(s)) = (term, &mut states.column) {
                            s[i].0.add(term);
                        }
                    }
                    // `COUNT(*)` counts each row as one non-NULL value.
                    None => states.update(i, &Value::Bool(true), call)?,
                    Some(e) => states.update(i, &*e.eval_ref(t)?, call)?,
                }
            }
        }
    }

    m.peak_mem = m.peak_mem.max(mem);
    if let Some(ws) = writers {
        let files = finish_writers(ws)?;
        m.spill_partitions += nonempty(&files);
        queue.extend(
            files
                .into_iter()
                .filter(|f| f.rows() > 0)
                .map(|f| (f, pass + 1)),
        );
    }
    // Every group's `[keys…, agg values…]` output row.
    let mut rows: Vec<Row> = keys.drain_rows(group.aggs.len()).collect();
    for (states, call) in states.into_iter().zip(&group.aggs) {
        let values = states.finalize(call)?;
        rows.iter_mut().zip(values).for_each(|(row, v)| row.push(v));
    }
    Ok((rows, mem))
}

/// A product-sum's term for one tuple: its `DOUBLE` factors read in place
/// and multiplied left to right, the bits `((p1 * p2) * …) * pm` evaluates
/// to (`1.0 · p1` is `p1` exactly). `None` when a factor is NULL, as the
/// NULL product is.
fn product(t: Tuple<'_, '_>, factors: &[ColumnId]) -> Result<Option<f64>> {
    let mut term = 1.0;
    for &id in factors {
        match t.cell(id)? {
            Value::Float(x) => term *= x,
            Value::Null => return Ok(None),
            other => {
                return Err(EngineError::internal(format!(
                    "product-sum factor {} of relation {} holds {other}, not a DOUBLE",
                    id.col, id.rel
                )))
            }
        }
    }
    Ok(Some(term))
}

/// One aggregate call's state in every group, indexed by group number:
/// a column typed by the call's function, so a group holds only what its
/// functions need, and for `f(DISTINCT x)` each group's seen values in
/// front of it.
#[derive(Debug, Clone)]
struct States {
    seen: Option<Vec<KeyTable>>,
    column: Column,
}

#[derive(Debug, Clone)]
enum Column {
    Count(Vec<Count>),
    /// `SUM` of an `INTEGER` argument.
    IntSum(Vec<IntSum>),
    /// Every other `SUM`, and `AVG`.
    Sum(Vec<Sum>),
    /// `MIN` and `MAX`: the extreme value so far.
    Extreme(Vec<Option<Value>>),
}

impl States {
    /// `call`'s state, chosen from its static type, its argument's columns
    /// typed by `types`. An argument without one (a NULL literal, a `CASE`
    /// whose arms do not unify) makes a `SUM` exact.
    fn new(call: &AggCall, types: &impl Fn(ColumnId) -> Option<DataType>) -> States {
        let column = match call.func {
            AggFunc::Count => Column::Count(Vec::new()),
            AggFunc::Sum if call.data_type(types) == Some(DataType::Int) => {
                Column::IntSum(Vec::new())
            }
            AggFunc::Sum | AggFunc::Avg => Column::Sum(Vec::new()),
            AggFunc::Min | AggFunc::Max => Column::Extreme(Vec::new()),
        };
        let seen = call.distinct.then(Vec::new);
        States { seen, column }
    }

    /// Bytes one group's new state holds. A group is charged this when it
    /// is made, not as a DISTINCT set or a sum wider than its inline limbs
    /// grows.
    fn bytes(&self) -> u64 {
        use std::mem::size_of;
        let seen = self.seen.as_ref().map_or(0, |_| size_of::<KeyTable>());
        let state = match self.column {
            Column::Count(_) => size_of::<Count>(),
            Column::IntSum(_) => size_of::<IntSum>(),
            Column::Sum(_) => size_of::<Sum>(),
            Column::Extreme(_) => size_of::<Option<Value>>(),
        };
        (seen + state) as u64
    }

    /// Add a new group's state.
    fn push(&mut self) {
        if let Some(seen) = &mut self.seen {
            seen.push(KeyTable::new(1));
        }
        match &mut self.column {
            Column::Count(c) => c.push(Count::default()),
            Column::IntSum(s) => s.push(IntSum::default()),
            Column::Sum(s) => s.push(Sum::default()),
            Column::Extreme(e) => e.push(None),
        }
    }

    /// Fold one value of `call` into group `i`. NULLs are ignored; a value
    /// is cloned only where it is kept (a DISTINCT set's new member, a new
    /// MIN/MAX).
    fn update(&mut self, i: usize, v: &Value, call: &AggCall) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        if let Some(seen) = &mut self.seen {
            let key = std::slice::from_ref(v);
            let hash = hash_key(key);
            if seen[i].find(hash, key).is_some() {
                return Ok(());
            }
            seen[i].push(hash, [v.clone()])?;
        }
        match &mut self.column {
            Column::Count(c) => c[i].0 += 1,
            Column::IntSum(s) => s[i].add(v)?,
            // A number, read as the `DOUBLE` nearest it; an untyped
            // argument can yield anything else.
            Column::Sum(s) => s[i].0.add(v.as_f64().ok_or_else(|| {
                EngineError::exec(format!("{} over non-numeric value {v}", call.func.name()))
            })?),
            Column::Extreme(e) => {
                let better = |m: &Value| match call.func {
                    AggFunc::Min => v < m,
                    _ => v > m,
                };
                if e[i].as_ref().is_none_or(better) {
                    e[i] = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    /// Every group's value of `call`, in group order.
    fn finalize(self, call: &AggCall) -> Result<Vec<Value>> {
        match self.column {
            Column::Count(c) => Ok(c.into_iter().map(|c| Value::Int(c.0)).collect()),
            Column::IntSum(s) => s.into_iter().map(IntSum::finalize).collect(),
            Column::Sum(s) => s
                .iter()
                .map(|s| s.finalize(call.func, call.exact))
                .collect(),
            Column::Extreme(e) => Ok(e.into_iter().map(|m| m.unwrap_or(Value::Null)).collect()),
        }
    }
}

/// `COUNT`'s state in one group: the values (rows, for `COUNT(*)`) it
/// counted. A view's fold merges and retracts one group's counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Count(pub i64);

impl Count {
    /// Add `other`'s count.
    pub fn merge(&mut self, other: &Count) {
        self.0 += other.0;
    }

    /// Remove `other`'s count, counted here before.
    pub fn retract(&mut self, other: &Count) {
        self.0 -= other.0;
    }
}

/// `SUM`'s state over an `INTEGER` argument in one group: no terms yet,
/// their `i64` sum, or the flag that it left the `i64` range, which is the
/// statement's error.
#[derive(Debug, Clone, Copy, Default)]
enum IntSum {
    #[default]
    Empty,
    Sum(i64),
    Overflowed,
}

impl IntSum {
    /// Fold in one non-NULL term, an `INTEGER` by the argument's type.
    fn add(&mut self, v: &Value) -> Result<()> {
        let Value::Int(i) = *v else {
            return Err(EngineError::internal(format!(
                "SUM of an INTEGER argument met {v}"
            )));
        };
        *self = match *self {
            IntSum::Empty => IntSum::Sum(i),
            IntSum::Sum(sum) => sum.checked_add(i).map_or(IntSum::Overflowed, IntSum::Sum),
            IntSum::Overflowed => IntSum::Overflowed,
        };
        Ok(())
    }

    /// The sum: NULL over no terms.
    fn finalize(self) -> Result<Value> {
        match self {
            IntSum::Empty => Ok(Value::Null),
            IntSum::Sum(sum) => Ok(Value::Int(sum)),
            IntSum::Overflowed => Err(EngineError::exec("integer overflow in SUM")),
        }
    }
}

/// `AVG`'s state, and `SUM`'s over any argument but an `INTEGER` one, in
/// one group: every term exactly, in an [`ExactSum`] rounded once. A
/// view's fold merges and retracts one group's sums.
#[derive(Debug, Clone, Default)]
pub struct Sum(ExactSum);

impl Sum {
    /// Fold in every term of `other`. Exact.
    pub fn merge(&mut self, other: &Sum) {
        self.0.merge(&other.0, 1);
    }

    /// Remove every term of `other`, each of which was folded in before.
    /// Exact.
    pub fn retract(&mut self, other: &Sum) {
        self.0.merge(&other.0, -1);
    }

    /// The terms, exactly.
    pub fn exact(&self) -> &ExactSum {
        &self.0
    }

    /// The sum [`Sum::finalize`] writes as text with `exact` set; `None`
    /// unless it is [`ExactSum::encode`]'s canonical text.
    pub fn decode(text: &str) -> Option<Sum> {
        ExactSum::decode(text).map(Sum)
    }

    /// The `func` (`SUM` or `AVG`) of the terms, a `DOUBLE`: NULL over
    /// none; with `exact`, a `SUM` is its exact sum's
    /// [`ExactSum::encode`] text.
    pub fn finalize(&self, func: AggFunc, exact: bool) -> Result<Value> {
        if exact && func == AggFunc::Sum {
            return Ok(Value::Text(self.0.encode()));
        }
        Ok(match self.0.value() {
            None => Value::Null,
            Some(sum) if func == AggFunc::Avg => Value::Float(sum / self.0.count() as f64),
            Some(sum) => Value::Float(sum),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::AggCall;

    /// One group's state of one `func` call.
    #[derive(Clone)]
    struct Acc(States, AggCall);

    impl Acc {
        fn update(&mut self, v: &Value) -> Result<()> {
            self.0.update(0, v, &self.1)
        }

        fn finalize(self) -> Result<Value> {
            Ok(self.0.finalize(&self.1)?.remove(0))
        }
    }

    fn acc(func: AggFunc, distinct: bool) -> Acc {
        typed(func, distinct, Some(DataType::Int))
    }

    /// [`acc`] over an argument of static type `ty`.
    fn typed(func: AggFunc, distinct: bool, ty: Option<DataType>) -> Acc {
        let call = AggCall {
            func,
            arg: Some(BoundExpr::Column(ColumnId { rel: 0, col: 0 })),
            distinct,
            factors: Vec::new(),
            exact: false,
        };
        let mut states = States::new(&call, &|_| ty);
        states.push();
        Acc(states, call)
    }

    /// `a` (40 rows) and `b` (10 rows): `a.k = b.k` matches every `a` row.
    fn ab_catalog() -> Catalog {
        use conquer_storage::{DataType, Schema};
        let mut cat = Catalog::new();
        for (name, rows) in [("a", 40i64), ("b", 10)] {
            let schema = Schema::from_pairs([("k", DataType::Int), ("v", DataType::Int)]).unwrap();
            let t = cat.create_table(name, schema).unwrap();
            for i in 0..rows {
                t.insert(vec![Value::Int(i % 10), Value::Int(i)]).unwrap();
            }
        }
        cat
    }

    fn plan_of(cat: &Catalog, sql: &str) -> Plan {
        let stmt = conquer_sql::parse_select(sql).unwrap();
        let bound = crate::binder::bind_select(cat, &stmt).unwrap();
        crate::planner::plan_select(cat, bound).unwrap()
    }

    #[test]
    fn group_keys_compare_as_values_and_come_out_in_first_seen_order() {
        use conquer_storage::{DataType, Schema};
        let mut cat = Catalog::new();
        let schema = Schema::from_pairs([
            ("tag", DataType::Int),
            ("i", DataType::Int),
            ("f", DataType::Float),
        ])
        .unwrap();
        let t = cat.create_table("g", schema).unwrap();
        let float = |f: f64| vec![Value::Int(0), Value::Null, Value::Float(f)];
        for row in [
            float(0.0),
            float(-0.0),
            vec![Value::Int(1), Value::Int(1), Value::Null],
            float(1.0),
            float(f64::NAN),
            float(f64::NAN),
            vec![Value::Int(0), Value::Null, Value::Null],
            vec![Value::Int(0), Value::Null, Value::Null],
        ] {
            t.insert(row).unwrap();
        }
        // The key's arms are Int(1) on one row and a float (or NULL) on the
        // rest; the CASE is typed DOUBLE, so its Int(1) is Float(1.0).
        let plan = plan_of(
            &cat,
            "select case when tag = 1 then i else f end, count(*) from g \
             group by case when tag = 1 then i else f end",
        );
        let rows = execute_plan(&cat, &plan, &ExecContext::default())
            .unwrap()
            .rows;
        // Grouping is value identity, not numeric equality: 0.0 and -0.0
        // are two groups; NaN meets NaN and NULL meets NULL.
        let expected = [
            (Value::Float(0.0), 1),
            (Value::Float(-0.0), 1),
            (Value::Float(1.0), 2),
            (Value::Float(f64::NAN), 2),
            (Value::Null, 2),
        ]
        .map(|(k, n)| vec![k, Value::Int(n)]);
        assert_eq!(rows, expected);
    }

    #[test]
    fn project_moves_a_cell_only_when_nothing_else_reads_it() {
        let cat = ab_catalog();
        let moves = |sql: &str| {
            let plan = plan_of(&cat, sql);
            movable_cells(&plan.output, &sort_keys(&plan.output, &plan.order_by).1)
        };
        // Above an aggregate the row is [keys…, aggs…].
        assert_eq!(
            moves("select k, count(*) from a group by k"),
            [Some(0), Some(1)]
        );
        assert_eq!(
            moves("select k, k + 1, count(*) from a group by k"),
            [None, None, Some(1)]
        );
        assert_eq!(moves("select k, k from a group by k"), [None, None]);
        // Moved or not, the answer is the same.
        let plan = plan_of(&cat, "select k, k, k + 1, count(*) from b group by k");
        let rows = execute_plan(&cat, &plan, &ExecContext::default())
            .unwrap()
            .rows;
        assert_eq!(
            rows[3],
            [Value::Int(3), Value::Int(3), Value::Int(4), Value::Int(1)]
        );
    }

    #[test]
    fn an_integer_sum_is_an_integer() {
        let mut a = typed(AggFunc::Sum, false, Some(DataType::Int));
        a.update(&Value::Int(3)).unwrap();
        a.update(&Value::Int(4)).unwrap();
        assert_eq!(a.clone().finalize().unwrap(), Value::Int(7));
        // A value of another type is a plan fault, never converted.
        let err = a.update(&Value::Float(0.5)).unwrap_err();
        assert!(matches!(err, EngineError::Internal(_)), "{err:?}");
    }

    #[test]
    fn a_double_sum_is_a_double() {
        let mut a = typed(AggFunc::Sum, false, Some(DataType::Float));
        for x in [3.0, 4.0, 0.5] {
            a.update(&Value::Float(x)).unwrap();
        }
        assert_eq!(a.finalize().unwrap(), Value::Float(7.5));
    }

    /// An argument without a static type (a NULL literal, a `CASE` whose
    /// arms do not unify) gets the exact state: numbers sum to a `DOUBLE`,
    /// anything else is the statement's error.
    #[test]
    fn an_untyped_sum_is_exact_and_refuses_non_numbers() {
        let mut a = typed(AggFunc::Sum, false, None);
        a.update(&Value::Int(3)).unwrap();
        a.update(&Value::Float(0.5)).unwrap();
        assert_eq!(a.clone().finalize().unwrap(), Value::Float(3.5));
        let err = a.update(&Value::text("x")).unwrap_err();
        assert!(
            matches!(&err, EngineError::Exec(m) if m.contains("non-numeric")),
            "{err:?}"
        );
    }

    #[test]
    fn sum_of_nothing_is_null_count_is_zero() {
        let a = acc(AggFunc::Sum, false);
        assert_eq!(a.finalize().unwrap(), Value::Null);
        let a = acc(AggFunc::Count, false);
        assert_eq!(a.finalize().unwrap(), Value::Int(0));
    }

    #[test]
    fn nulls_ignored() {
        let mut a = acc(AggFunc::Count, false);
        a.update(&Value::Null).unwrap();
        a.update(&Value::Int(1)).unwrap();
        assert_eq!(a.finalize().unwrap(), Value::Int(1));
        let mut a = acc(AggFunc::Avg, false);
        a.update(&Value::Null).unwrap();
        a.update(&Value::Int(2)).unwrap();
        a.update(&Value::Int(4)).unwrap();
        assert_eq!(a.finalize().unwrap(), Value::Float(3.0));
    }

    #[test]
    fn distinct_dedups() {
        let mut a = acc(AggFunc::Count, true);
        for v in [1i64, 1, 2, 2, 3] {
            a.update(&Value::Int(v)).unwrap();
        }
        assert_eq!(a.finalize().unwrap(), Value::Int(3));
        let mut a = acc(AggFunc::Sum, true);
        for v in [5i64, 5, 7] {
            a.update(&Value::Int(v)).unwrap();
        }
        assert_eq!(a.finalize().unwrap(), Value::Int(12));
    }

    #[test]
    fn min_max() {
        let mut lo = acc(AggFunc::Min, false);
        let mut hi = acc(AggFunc::Max, false);
        for v in [3i64, 1, 2] {
            lo.update(&Value::Int(v)).unwrap();
            hi.update(&Value::Int(v)).unwrap();
        }
        assert_eq!(lo.finalize().unwrap(), Value::Int(1));
        assert_eq!(hi.finalize().unwrap(), Value::Int(3));
    }

    #[test]
    fn sum_overflow_reported() {
        let mut a = acc(AggFunc::Sum, false);
        a.update(&Value::Int(i64::MAX)).unwrap();
        a.update(&Value::Int(1)).unwrap();
        assert!(a.finalize().is_err());
    }

    #[test]
    fn key_normalization() {
        let norm = |v: Value| normalize_key(Cow::Owned(v), false).into_owned();
        assert_eq!(norm(Value::Int(5)), Value::Float(5.0));
        assert_eq!(norm(Value::Float(-0.0)), Value::Float(0.0));
        assert_eq!(norm(Value::text("x")), Value::text("x"));
        // huge ints stay exact against an integer key
        assert_eq!(norm(Value::Int(i64::MAX)), Value::Int(i64::MAX));
        // and meet the float they round to against a float key
        let lossy = |v: Value| normalize_key(Cow::Owned(v), true).into_owned();
        let past = (1i64 << 53) + 1;
        assert_eq!(lossy(Value::Int(past)), Value::Float((1u64 << 53) as f64));
    }
}
