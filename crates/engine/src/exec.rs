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
//! * **hash aggregation** spills serialized group state (keys +
//!   mergeable accumulator states) to partitions and re-aggregates them
//!   one partition at a time;
//! * **sort** becomes an external merge sort: sorted runs on disk, one
//!   k-way merge pass.
//!
//! Spilling engages only when [`ExecContext::try_charge`] fails — under
//! the budget, plans and performance are unchanged — and requires a
//! configured memory budget (spilling can be disabled with a zero disk
//! budget, restoring the strict-abort behavior). Operators without an
//! external strategy (cross join, DISTINCT, the result buffer) still
//! charge the memory budget hard. Spill loops run for a long time
//! without crossing a batch boundary, so they tick the context's
//! cancellation/deadline guards every `SPILL_TICK_ROWS` rows.

use std::borrow::Cow;
use std::collections::HashSet;
use std::hash::Hash;
use std::time::{Duration, Instant};

use conquer_sql::AggFunc;
use conquer_storage::spill::{SpillFile, SpillReader, SpillWriter};
use conquer_storage::{Catalog, HashIndex, Row, Table, Value};

use crate::binder::{AggCall, BoundOrderBy, GroupSpec, OrderKey, OutputItem};
use crate::context::ExecContext;
use crate::error::EngineError;
use crate::expr::{absent, BoundExpr, Cells, ColumnId};
use crate::keytable::{hash_key, KeyTable};
use crate::planner::{scan_label, JoinNode, Plan};
use crate::result::QueryResult;
use crate::stats::{approx_row_bytes, approx_value_bytes, ExecStats, OpStats};
use crate::Result;

/// Maximum rows per batch flowing between operators. Joins may emit larger
/// batches when one probe batch matches many build rows; the bound is a
/// target, not an invariant.
pub const BATCH_SIZE: usize = 1024;

/// Fan-out of one spill partitioning pass (grace hash join, partitioned
/// re-aggregation).
const SPILL_PARTITIONS: usize = 16;

/// Maximum partitioning passes over one operator's data before the
/// executor stops recursing and charges the memory budget hard (the end
/// of the budget → spill → `ResourceExhausted` ladder). With 16-way
/// partitioning this bounds the data reduction at 16⁵ ≈ 10⁶×; a
/// partition still oversized after that is pathological key skew (one
/// giant duplicate group) that re-partitioning cannot split.
const MAX_SPILL_PASSES: u32 = 5;

/// Rows between cooperative cancellation/deadline checks inside spill
/// partition and merge loops, which stream arbitrarily many rows without
/// crossing a batch boundary. Bounds cancellation latency while spilling.
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
    crate::validate::validate_plan(plan)?;
    let needs_expr_keys = plan
        .order_by
        .iter()
        .any(|o| matches!(o.key, OrderKey::Expr(_)));
    if plan.distinct && needs_expr_keys {
        return Err(EngineError::bind(
            "DISTINCT with ORDER BY on non-projected expressions is not supported",
        ));
    }

    let start = Instant::now();
    let (join, layout, _est) = build_join(catalog, plan, &plan.join)?;
    let held = ctx.mem_in_use();
    let mut root = finish_pipeline(join, layout, plan);
    let drained = drain_root(&mut root, ctx);
    // The operator tree dies with this call. Whatever its operators still
    // hold charged — a `LIMIT` can stop them before they drain — is handed
    // back, so the meter keeps only the result rows.
    let kept = drained.as_ref().map_or(0, |(_, bytes)| *bytes);
    ctx.release(ctx.mem_in_use().saturating_sub(held + kept));
    let (rows, _) = drained?;
    Ok(QueryResult::with_stats(
        plan.output.iter().map(|o| o.name.clone()).collect(),
        rows,
        ExecStats {
            root: root.harvest(),
            total_time: start.elapsed(),
            mem_budget: ctx.limits().mem_bytes,
            mem_charged: ctx.mem_charged(),
            disk_budget: ctx.limits().disk_bytes,
            disk_charged: ctx.disk_charged(),
            timeout: ctx.limits().timeout,
            threads_used: 1,
        },
    ))
}

/// Drain the pipeline root into the result buffer, charging it against
/// the memory budget like any other materialized state. Returns the rows
/// and the bytes they charged.
fn drain_root(root: &mut OpNode<'_>, ctx: &ExecContext) -> Result<(Vec<Row>, u64)> {
    let mut rows = Vec::new();
    let mut bytes = 0;
    while let Some(batch) = root.next_batch(ctx)? {
        let batch_bytes = batch.iter().map(approx_row_bytes).sum();
        ctx.charge(batch_bytes)?;
        bytes += batch_bytes;
        rows.extend(batch);
    }
    Ok((rows, bytes))
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
    rels: Vec<Option<(usize, &'a [Row])>>,
}

impl<'a> Layout<'a> {
    /// A scan's layout: relation `rel` of `n_rels`, in slot 0.
    fn scan(n_rels: usize, rel: usize, rows: &'a [Row]) -> Layout<'a> {
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
    row: &'a Row,
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

/// Stack the post-join stages (aggregate, HAVING, project, distinct,
/// sort, limit) on top of a join tree whose tuples `layout` describes.
fn finish_pipeline<'a>(join: TupleOp<'a>, layout: Layout<'a>, plan: &'a Plan) -> OpNode<'a> {
    let input = match &plan.group {
        Some(group) => {
            let mut node = OpNode::new(
                "HashAggregate",
                OpKind::HashAggregate {
                    child: Box::new(join),
                    layout,
                    group,
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
            ProjectInput::Slots {
                child: Box::new(node),
                moves: movable_cells(&plan.output, &plan.order_by),
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
            order_by: &plan.order_by,
        },
    );

    if plan.distinct {
        node = OpNode::new(
            "Distinct",
            OpKind::Distinct {
                child: Box::new(node),
                seen: KeyTable::new(plan.output.len() + plan.order_by.len()),
                mem: 0,
            },
        );
    }

    if !plan.order_by.is_empty() {
        node = OpNode::new(
            "Sort",
            OpKind::Sort {
                child: Box::new(node),
                descs: plan.order_by.iter().map(|o| o.desc).collect(),
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

/// Build the operator subtree for a join-tree node. Returns the operator,
/// the layout of its output tuples, and a crude cardinality estimate used
/// to pick hash-join build sides.
fn build_join<'a>(
    catalog: &'a Catalog,
    plan: &'a Plan,
    node: &'a JoinNode,
) -> Result<(TupleOp<'a>, Layout<'a>, u64)> {
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
            let layout = Layout::scan(plan.relations.len(), *rel, table.rows());
            let op = TupleOp::new(
                scan_label("Scan", relation),
                TupleKind::Scan {
                    rel: *rel,
                    rows: table.rows(),
                    pos: 0,
                    filter: filter.as_ref(),
                },
            );
            Ok((op, layout, table.len() as u64))
        }
        JoinNode::Join {
            left,
            right,
            equi,
            filter,
        } => {
            let (lop, llayout, lest) = build_join(catalog, plan, left)?;
            let (rop, rlayout, rest) = build_join(catalog, plan, right)?;
            let layout = Layout::concat(&llayout, &rlayout);

            let (mut op, est) = if equi.is_empty() {
                let est = lest.saturating_mul(rest.max(1));
                let op = TupleOp::new(
                    "NestedLoopJoin",
                    TupleKind::CrossJoin {
                        probe: Box::new(lop),
                        build: Box::new(rop),
                        build_tuples: None,
                    },
                );
                (op, est)
            } else if let Some(path) = index_join_path(catalog, plan, right, equi, &llayout)? {
                let op = TupleOp::new(
                    path.name.clone(),
                    TupleKind::IndexJoin {
                        probe: Box::new(lop),
                        path,
                    },
                );
                (op, lest.max(rest))
            } else {
                // Build the hash table on the (estimated) smaller side and
                // stream the other; output stays `left ++ right` either way.
                let build_left = lest <= rest;
                let (lexprs, rexprs): (Vec<_>, Vec<_>) = equi.iter().map(|(l, r)| (l, r)).unzip();
                let (probe, build, keys) = if build_left {
                    let keys = JoinKeys {
                        probe_exprs: rexprs,
                        build_exprs: lexprs,
                        probe_layout: rlayout,
                        build_layout: llayout,
                        build_left,
                    };
                    (rop, lop, keys)
                } else {
                    let keys = JoinKeys {
                        probe_exprs: lexprs,
                        build_exprs: rexprs,
                        probe_layout: llayout,
                        build_layout: rlayout,
                        build_left,
                    };
                    (lop, rop, keys)
                };
                let op = TupleOp::new(
                    "HashJoin",
                    TupleKind::HashJoin {
                        probe: Box::new(probe),
                        build: Box::new(build),
                        keys,
                        state: JoinState::Init,
                    },
                );
                (op, lest.max(rest))
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
            Ok((op, layout, est))
        }
    }
}

/// An index nested-loop join's right side, resolved by [`index_join_path`].
pub(crate) struct IndexPath<'a> {
    /// Operator name for the statistics tree.
    name: String,
    table: &'a Table,
    index: &'a HashIndex,
    /// The probe key: a column of the left input.
    key: ColumnId,
    /// The left input's layout.
    probe_layout: Layout<'a>,
}

impl IndexPath<'_> {
    /// Append `p ++ [row]` to `out` for every stored row the index holds
    /// under `p`'s key, in stored index order.
    fn probe(&self, p: &[u32], out: &mut Tuples) -> Result<()> {
        let key = self.probe_layout.tuple(p).cell(self.key)?;
        if key.is_null() {
            return Ok(());
        }
        for &ri in self.index.lookup(key) {
            let row = u32::try_from(ri)
                .ok()
                .filter(|_| ri < self.table.len())
                .ok_or_else(|| {
                    EngineError::internal(format!(
                        "stored index on table {:?} references row #{ri} beyond the \
                         table's {} rows (stale index?)",
                        self.table.name(),
                        self.table.len()
                    ))
                })?;
            out.push_pair(p, &[row]);
        }
        Ok(())
    }
}

/// Index nested-loop join fast path: when the right input is an unfiltered
/// base-table scan, the single equi key is a bare column on both sides with
/// the same declared type, and the table has a pre-built
/// [`conquer_storage::HashIndex`] on that column (see
/// [`crate::Database::create_index`]), probe the stored index instead of
/// building a hash table. This is the analogue of the paper's "indices on
/// the identifier" setup (Section 5.3). Returns `None` when the
/// preconditions don't hold and the generic hash join should run.
fn index_join_path<'a>(
    catalog: &'a Catalog,
    plan: &'a Plan,
    right: &'a JoinNode,
    equi: &[(BoundExpr, BoundExpr)],
    probe_layout: &Layout<'a>,
) -> Result<Option<IndexPath<'a>>> {
    let JoinNode::Scan { rel, filter: None } = right else {
        return Ok(None);
    };
    let [(lkey, rkey)] = equi else {
        return Ok(None);
    };
    let (BoundExpr::Column(lcol), BoundExpr::Column(rcol)) = (lkey, rkey) else {
        return Ok(None);
    };
    if rcol.rel != *rel {
        return Ok(None);
    }
    let column = |id: &ColumnId| {
        plan.relations
            .get(id.rel)
            .and_then(|r| r.schema.column_at(id.col))
            .ok_or_else(|| absent(*id))
    };
    let relation = &plan.relations[*rel];
    let table = catalog.table(&relation.table)?;
    let rcolumn = column(rcol)?;
    let index = match table.existing_index(rcolumn.name()) {
        Some(idx) if idx.column() == rcol.col => idx,
        _ => return Ok(None),
    };
    // Raw-value lookup is only sound when the probe values have the same
    // declared type as the indexed column (no Int/Float normalization).
    if column(lcol)?.data_type() != rcolumn.data_type() {
        return Ok(None);
    }
    Ok(Some(IndexPath {
        name: scan_label("IndexJoin", relation),
        table,
        index,
        key: *lcol,
        probe_layout: probe_layout.clone(),
    }))
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
    /// predicate; emits the positions of the rows it keeps.
    Scan {
        rel: usize,
        rows: &'a [Row],
        pos: usize,
        filter: Option<&'a BoundExpr>,
    },
    /// Residual join predicate.
    Filter {
        child: Box<TupleOp<'a>>,
        pred: &'a BoundExpr,
        layout: Layout<'a>,
    },
    /// Equi hash join: drains `build` into a hash table on first pull, then
    /// streams `probe`. Output tuples are always `left ++ right`.
    HashJoin {
        probe: Box<TupleOp<'a>>,
        build: Box<TupleOp<'a>>,
        keys: JoinKeys<'a>,
        state: JoinState,
    },
    /// Streaming probe of a pre-built storage-level hash index.
    IndexJoin {
        probe: Box<TupleOp<'a>>,
        path: IndexPath<'a>,
    },
    /// Cartesian product: materializes the right input, streams the left.
    CrossJoin {
        probe: Box<TupleOp<'a>>,
        build: Box<TupleOp<'a>>,
        build_tuples: Option<Tuples>,
    },
}

pub(crate) enum OpKind<'a> {
    /// Hash aggregation; blocking. Produces `[keys…, agg values…]` rows in
    /// first-seen group order (one row even for empty input when there are
    /// no GROUP BY keys — `COUNT(*)` of an empty table is 0).
    HashAggregate {
        child: Box<TupleOp<'a>>,
        layout: Layout<'a>,
        group: &'a GroupSpec,
        state: AggState,
    },
    /// HAVING, over the aggregate's slot rows.
    Filter {
        child: Box<OpNode<'a>>,
        pred: &'a BoundExpr,
    },
    /// Compute output expressions, appending ORDER BY key columns for a
    /// downstream [`OpKind::Sort`] to consume.
    Project {
        input: ProjectInput<'a>,
        output: &'a [OutputItem],
        order_by: &'a [BoundOrderBy],
    },
    /// Streaming duplicate elimination over projected rows.
    Distinct {
        child: Box<OpNode<'a>>,
        seen: KeyTable,
        mem: u64,
    },
    /// Blocking sort on the trailing key columns appended by `Project`;
    /// strips them from the output.
    Sort {
        child: Box<OpNode<'a>>,
        descs: Vec<bool>,
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
    /// takes by value instead of evaluating (see [`movable_cells`]).
    Slots {
        child: Box<OpNode<'a>>,
        moves: Vec<Option<usize>>,
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

/// How a hash join reads its equi keys off a probe tuple and a build
/// tuple, and which of the plan's inputs is which.
pub(crate) struct JoinKeys<'a> {
    probe_exprs: Vec<&'a BoundExpr>,
    build_exprs: Vec<&'a BoundExpr>,
    probe_layout: Layout<'a>,
    build_layout: Layout<'a>,
    /// True when the plan's *left* input is the build side.
    build_left: bool,
}

impl<'a> JoinKeys<'a> {
    /// Fill `key` with tuple `p`'s probe-side key; see [`join_keys`].
    fn probe_key(&self, p: &[u32], key: &mut Vec<Cow<'a, Value>>) -> Result<bool> {
        join_keys(self.probe_layout.tuple(p), &self.probe_exprs, key)
    }

    /// Fill `key` with tuple `b`'s build-side key; see [`join_keys`].
    fn build_key(&self, b: &[u32], key: &mut Vec<Cow<'a, Value>>) -> Result<bool> {
        join_keys(self.build_layout.tuple(b), &self.build_exprs, key)
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

    /// Append `p`'s matches in `map` to `out` as `left ++ right` tuples,
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
                if self.build_left {
                    out.push_pair(b, p);
                } else {
                    out.push_pair(p, b);
                }
            }
        }
        Ok(())
    }
}

/// Build-side state of a hash join: in memory while the budget lasts,
/// grace-partitioned on disk afterwards.
pub(crate) enum JoinState {
    /// Build side not yet consumed.
    Init,
    /// Classic in-memory hash join. `mem` is the bytes charged for the
    /// build table, released once the probe side is exhausted.
    Mem { map: Box<BuildMap>, mem: u64 },
    /// Grace hash join over spilled partition pairs.
    Spill(GraceJoin),
}

/// Pending and in-flight partition pairs of a grace hash join.
pub(crate) struct GraceJoin {
    /// `(build partition, probe partition, pass)` still to process.
    queue: Vec<(SpillFile, SpillFile, u32)>,
    /// The partition currently being probed (boxed: it carries a hash
    /// table and two file handles, far bigger than the idle states).
    current: Option<Box<PartProbe>>,
}

/// One grace-join partition's in-memory build table plus its streaming
/// probe reader.
struct PartProbe {
    map: BuildMap,
    /// Bytes charged for `map`, released when the partition is done.
    mem: u64,
    probe: SpillReader,
    /// Keeps the probe run alive while it is read (deleted on drop).
    _probe_file: SpillFile,
}

/// Materialization state of a hash aggregation.
pub(crate) enum AggState {
    /// Input not yet consumed.
    Init,
    /// All groups fit in memory; draining the finalized rows. The `u64`
    /// is the still-charged bytes, released as rows are emitted.
    Drain(std::vec::IntoIter<Row>, u64),
    /// Partitioned re-aggregation over spilled group state.
    Spill {
        /// `(state-row partition, pass)` still to re-aggregate.
        queue: Vec<(SpillFile, u32)>,
        /// Finalized rows of the partition being drained, plus the bytes
        /// to release once it is exhausted.
        current: Option<(std::vec::IntoIter<Row>, u64)>,
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

/// Read the next position tuple [`spill_tuple`] wrote into `t`; `false`
/// at the end of the run.
fn read_tuple(reader: &mut SpillReader, t: &mut Vec<u32>) -> Result<bool> {
    let Some(row) = reader.next_row()? else {
        return Ok(false);
    };
    t.clear();
    for v in &row {
        match v {
            Value::Int(p) if u32::try_from(*p).is_ok() => t.push(*p as u32),
            other => {
                return Err(EngineError::internal(format!(
                    "spilled join tuple holds {other:?}, not a row position"
                )))
            }
        }
    }
    Ok(true)
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
                    *state = hj_prepare(probe, build, keys, m, ctx)?;
                }
                match state {
                    JoinState::Init => Err(EngineError::internal(
                        "hash join probed before its build side",
                    )),
                    JoinState::Mem { map, mem } => {
                        let out = hj_probe_next(probe, map, keys, m, ctx)?;
                        if out.is_none() {
                            // Probe exhausted: the build table is dead weight
                            // now, so hand its budget back before upstream
                            // operators (or the result buffer) compete for it.
                            ctx.release(std::mem::take(mem));
                            **map = BuildMap::new(0);
                        }
                        Ok(out)
                    }
                    JoinState::Spill(grace) => hj_spill_next(grace, keys, m, ctx),
                }
            }

            TupleKind::IndexJoin { probe, path } => {
                while let Some(batch) = pull(probe, m, ctx)? {
                    let mut out = Tuples::with_capacity(batch.width + 1, batch.len());
                    for p in batch.iter() {
                        path.probe(p, &mut out)?;
                    }
                    if !out.is_empty() {
                        return Ok(Some(out));
                    }
                }
                Ok(None)
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
            TupleKind::IndexJoin { probe, .. } => vec![probe.harvest()],
            TupleKind::HashJoin {
                probe, build, keys, ..
            } => {
                // Report in plan order: left child first.
                if keys.build_left {
                    vec![build.harvest(), probe.harvest()]
                } else {
                    vec![probe.harvest(), build.harvest()]
                }
            }
            TupleKind::CrossJoin { probe, build, .. } => vec![probe.harvest(), build.harvest()],
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
            OpKind::HashAggregate {
                child,
                layout,
                group,
                state,
            } => {
                if matches!(state, AggState::Init) {
                    *state = aggregate_input(child, layout, group, m, ctx)?;
                }
                loop {
                    match state {
                        AggState::Init => {
                            return Err(EngineError::internal(
                                "aggregate drained before aggregating",
                            ))
                        }
                        AggState::Drain(iter, mem) => {
                            let out: Batch = iter.take(BATCH_SIZE).collect();
                            if out.is_empty() {
                                ctx.release(std::mem::take(mem));
                                return Ok(None);
                            }
                            release_emitted(ctx, &out, mem);
                            return Ok(Some(out));
                        }
                        AggState::Spill { queue, current } => {
                            if let Some((iter, mem)) = current {
                                let out: Batch = iter.take(BATCH_SIZE).collect();
                                if out.is_empty() {
                                    ctx.release(*mem);
                                    *current = None;
                                    continue;
                                }
                                release_emitted(ctx, &out, mem);
                                return Ok(Some(out));
                            }
                            let Some((file, pass)) = queue.pop() else {
                                return Ok(None);
                            };
                            match agg_merge_partition(file, pass, group, m, ctx)? {
                                AggMerge::Done(rows, mem) => {
                                    *current = Some((rows.into_iter(), mem))
                                }
                                AggMerge::Repartitioned(files) => queue.extend(files),
                            }
                        }
                    }
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
                order_by,
            } => {
                let width = output.len() + order_by.len();
                let out = match input {
                    ProjectInput::Slots { child, moves } => {
                        let Some(batch) = pull(child, m, ctx)? else {
                            return Ok(None);
                        };
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
                            push_order_keys(&mut projected, order_by, &row)?;
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
                            push_order_keys(&mut projected, order_by, t)?;
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
                descs,
                n_out,
                state,
            } => {
                if matches!(state, SortState::Fill) {
                    *state = sort_input(child, descs, *n_out, m, ctx)?;
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
                    SortState::Merge(cursors) => merge_runs(cursors, descs, *n_out, ctx),
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

/// Append a projected row's `ORDER BY` key columns: a copy of an output
/// column, or an expression over the row's input `cells`.
fn push_order_keys<'x>(
    projected: &mut Row,
    order_by: &'x [BoundOrderBy],
    cells: impl Cells<'x>,
) -> Result<()> {
    for ob in order_by {
        let key = match &ob.key {
            OrderKey::Output(i) => projected[*i].clone(),
            OrderKey::Expr(e) => e.eval(cells)?,
        };
        projected.push(key);
    }
    Ok(())
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
fn movable_cells(output: &[OutputItem], order_by: &[BoundOrderBy]) -> Vec<Option<usize>> {
    let order_exprs = order_by.iter().filter_map(|ob| match &ob.key {
        OrderKey::Expr(e) => Some(e),
        OrderKey::Output(_) => None,
    });
    let read: Vec<ColumnId> = output
        .iter()
        .map(|item| &item.expr)
        .chain(order_exprs)
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
/// `key` (cleared first); `false` when any key is NULL (SQL equality
/// never matches NULL).
fn join_keys<'x>(
    cells: impl Cells<'x>,
    exprs: &[&'x BoundExpr],
    key: &mut Vec<Cow<'x, Value>>,
) -> Result<bool> {
    key.clear();
    for e in exprs {
        let v = e.eval_ref(cells)?;
        if v.is_null() {
            return Ok(false);
        }
        key.push(normalize_key(v));
    }
    Ok(true)
}

/// Normalize a join key so numerically equal Int/Float values collide
/// (exact for |i| ≤ 2⁵³) and `-0.0` meets `0.0`. Anything else — a text
/// key above all — stays borrowed from the row.
fn normalize_key(v: Cow<'_, Value>) -> Cow<'_, Value> {
    const EXACT: i64 = 1 << 53;
    match *v {
        Value::Int(i) if i.abs() <= EXACT => Cow::Owned(Value::Float(i as f64)),
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

/// Stream `probe` against an in-memory build table: the next non-empty
/// batch of matches, `None` once the probe side is exhausted.
fn hj_probe_next<'a>(
    probe: &mut TupleOp<'_>,
    map: &BuildMap,
    keys: &JoinKeys<'a>,
    m: &mut Metrics,
    ctx: &ExecContext,
) -> Result<Option<Tuples>> {
    let mut ticker = Ticker::new();
    let mut key = Vec::with_capacity(keys.probe_exprs.len());
    while let Some(batch) = pull(probe, m, ctx)? {
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

/// Consume the build side of a hash join. Stays in memory while the
/// budget lasts; past it, grace-partitions *both* inputs to disk and
/// returns the partition-pair queue instead.
fn hj_prepare<'a>(
    probe: &mut TupleOp<'_>,
    build: &mut TupleOp<'_>,
    keys: &JoinKeys<'a>,
    m: &mut Metrics,
    ctx: &ExecContext,
) -> Result<JoinState> {
    let mut map = BuildMap::new(keys.build_exprs.len());
    let mut mem = 0u64;
    let mut writers: Option<Vec<SpillWriter>> = None;
    let mut ticker = Ticker::new();
    let mut key = Vec::with_capacity(keys.build_exprs.len());
    while let Some(batch) = pull(build, m, ctx)? {
        if writers.is_none() && !ctx.spill_enabled() {
            // No spill fallback configured: charge the whole batch hard,
            // preserving the strict-abort behavior.
            let mut batch_mem = 0u64;
            for b in batch.iter() {
                if keys.build_key(b, &mut key)? {
                    batch_mem += keys.build_bytes(&key);
                    map.insert(&key, b)?;
                }
            }
            ctx.charge(batch_mem)?;
            mem += batch_mem;
            continue;
        }
        for b in batch.iter() {
            if !keys.build_key(b, &mut key)? {
                continue;
            }
            if let Some(ws) = &mut writers {
                ticker.row(ctx)?;
                spill_tuple(ctx, m, &mut ws[partition_of(&key, 0)], b)?;
                continue;
            }
            let bytes = keys.build_bytes(&key);
            if ctx.try_charge(bytes) {
                mem += bytes;
                map.insert(&key, b)?;
                continue;
            }
            // Budget full: switch to grace mode — partition what we have,
            // release the memory, spill everything still to come.
            let mut ws = new_partition_writers(ctx)?;
            m.spill_passes += 1;
            map.flush(0, &mut ws, m, ctx, &mut ticker)?;
            m.peak_mem = m.peak_mem.max(mem);
            ctx.release(mem);
            mem = 0;
            spill_tuple(ctx, m, &mut ws[partition_of(&key, 0)], b)?;
            writers = Some(ws);
        }
    }
    m.peak_mem = m.peak_mem.max(mem);
    let Some(build_ws) = writers else {
        return Ok(JoinState::Mem {
            map: Box::new(map),
            mem,
        });
    };
    // Partition the probe side with the same hash. NULL keys can never
    // match, so they are dropped here.
    let mut probe_ws = new_partition_writers(ctx)?;
    while let Some(batch) = pull(probe, m, ctx)? {
        for p in batch.iter() {
            ticker.row(ctx)?;
            if keys.probe_key(p, &mut key)? {
                spill_tuple(ctx, m, &mut probe_ws[partition_of(&key, 0)], p)?;
            }
        }
    }
    let build_files = finish_writers(build_ws)?;
    let probe_files = finish_writers(probe_ws)?;
    m.spill_partitions += nonempty(&build_files);
    let queue = build_files
        .into_iter()
        .zip(probe_files)
        .filter(|(b, p)| b.rows() > 0 && p.rows() > 0)
        .map(|(b, p)| (b, p, 0))
        .collect();
    Ok(JoinState::Spill(GraceJoin {
        queue,
        current: None,
    }))
}

/// Advance a grace hash join by up to one batch: stream matches out of
/// the current partition, loading (and, when oversized, re-partitioning)
/// queued partition pairs as needed.
fn hj_spill_next(
    grace: &mut GraceJoin,
    keys: &JoinKeys<'_>,
    m: &mut Metrics,
    ctx: &ExecContext,
) -> Result<Option<Tuples>> {
    let mut ticker = Ticker::new();
    let mut key = Vec::with_capacity(keys.probe_exprs.len());
    let mut p = Vec::new();
    loop {
        if let Some(part) = &mut grace.current {
            let mut out = keys.out(BATCH_SIZE);
            loop {
                if out.len() >= BATCH_SIZE {
                    return Ok(Some(out));
                }
                ticker.row(ctx)?;
                if !read_tuple(&mut part.probe, &mut p)? {
                    ctx.release(part.mem);
                    grace.current = None;
                    break;
                }
                keys.probe_tuple(&part.map, &p, &mut key, &mut out, &mut ticker, ctx)?;
            }
            if !out.is_empty() {
                return Ok(Some(out));
            }
            continue;
        }
        let Some((bfile, pfile, pass)) = grace.queue.pop() else {
            return Ok(None);
        };
        match hj_load_partition(bfile, pfile, pass, keys, m, ctx)? {
            Loaded::Table(part) => grace.current = Some(part),
            Loaded::Repartitioned(pairs) => grace.queue.extend(pairs),
        }
    }
}

/// Result of loading one grace-join build partition.
enum Loaded {
    /// Partition fits: hash table built, ready to stream its probe side.
    Table(Box<PartProbe>),
    /// Partition was oversized and was split into sub-partition pairs
    /// with the next pass's hash.
    Repartitioned(Vec<(SpillFile, SpillFile, u32)>),
}

fn hj_load_partition(
    bfile: SpillFile,
    pfile: SpillFile,
    pass: u32,
    keys: &JoinKeys<'_>,
    m: &mut Metrics,
    ctx: &ExecContext,
) -> Result<Loaded> {
    let mut ticker = Ticker::new();
    let mut map = BuildMap::new(keys.build_exprs.len());
    let mut mem = 0u64;
    let mut reader = bfile.reader()?;
    let mut key = Vec::with_capacity(keys.build_exprs.len());
    let mut b = Vec::new();
    while read_tuple(&mut reader, &mut b)? {
        ticker.row(ctx)?;
        if !keys.build_key(&b, &mut key)? {
            continue;
        }
        let bytes = keys.build_bytes(&key);
        let fits = ctx.try_charge(bytes);
        if fits || pass + 1 >= MAX_SPILL_PASSES {
            if !fits {
                // End of the ladder: charge hard, which either fits (the
                // budget freed up) or aborts with ResourceExhausted.
                ctx.charge(bytes)?;
            }
            mem += bytes;
            map.insert(&key, &b)?;
            continue;
        }
        // Oversized partition: split build + probe with the next pass's
        // hash and queue the sub-pairs.
        let next = pass + 1;
        m.spill_passes += 1;
        let mut bws = new_partition_writers(ctx)?;
        map.flush(next, &mut bws, m, ctx, &mut ticker)?;
        m.peak_mem = m.peak_mem.max(mem);
        ctx.release(mem);
        spill_tuple(ctx, m, &mut bws[partition_of(&key, next)], &b)?;
        while read_tuple(&mut reader, &mut b)? {
            ticker.row(ctx)?;
            if keys.build_key(&b, &mut key)? {
                spill_tuple(ctx, m, &mut bws[partition_of(&key, next)], &b)?;
            }
        }
        let mut pws = new_partition_writers(ctx)?;
        let mut preader = pfile.reader()?;
        while read_tuple(&mut preader, &mut b)? {
            ticker.row(ctx)?;
            if keys.probe_key(&b, &mut key)? {
                spill_tuple(ctx, m, &mut pws[partition_of(&key, next)], &b)?;
            }
        }
        let bfiles = finish_writers(bws)?;
        let pfiles = finish_writers(pws)?;
        m.spill_partitions += nonempty(&bfiles);
        return Ok(Loaded::Repartitioned(
            bfiles
                .into_iter()
                .zip(pfiles)
                .filter(|(b, p)| b.rows() > 0 && p.rows() > 0)
                .map(|(b, p)| (b, p, next))
                .collect(),
        ));
    }
    m.peak_mem = m.peak_mem.max(mem);
    let probe = pfile.reader()?;
    Ok(Loaded::Table(Box::new(PartProbe {
        map,
        mem,
        probe,
        _probe_file: pfile,
    })))
}

// ---------------------------------------------------------------------------
// External merge sort
// ---------------------------------------------------------------------------

/// Compare two rows on the trailing sort-key columns (`row[n_out..]`).
fn cmp_sort_keys(a: &Row, b: &Row, n_out: usize, descs: &[bool]) -> std::cmp::Ordering {
    for ((x, y), desc) in a[n_out..].iter().zip(&b[n_out..]).zip(descs.iter()) {
        let ord = x.cmp(y);
        let ord = if *desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Consume the sort's input. In memory while the budget lasts; past it,
/// flushes sorted runs to disk and returns a k-way merge state.
fn sort_input(
    child: &mut OpNode<'_>,
    descs: &[bool],
    n_out: usize,
    m: &mut Metrics,
    ctx: &ExecContext,
) -> Result<SortState> {
    let mut buf: Vec<Row> = Vec::new();
    let mut mem = 0u64;
    let mut runs: Vec<SpillFile> = Vec::new();
    let mut ticker = Ticker::new();
    while let Some(batch) = pull(child, m, ctx)? {
        if !ctx.spill_enabled() {
            let bytes: u64 = batch.iter().map(approx_row_bytes).sum();
            ctx.charge(bytes)?;
            mem += bytes;
            m.peak_mem = m.peak_mem.max(mem);
            buf.extend(batch);
            continue;
        }
        for row in batch {
            let bytes = approx_row_bytes(&row);
            if !ctx.try_charge(bytes) {
                // Flush the buffer as one sorted run, then retry; a
                // single row bigger than the whole budget still charges
                // hard.
                if !buf.is_empty() {
                    runs.push(flush_run(&mut buf, descs, n_out, m, ctx, &mut ticker)?);
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
        // Stable sort on the trailing key columns, so ties keep input
        // order.
        buf.sort_by(|a, b| cmp_sort_keys(a, b, n_out, descs));
        for row in &mut buf {
            row.truncate(n_out);
        }
        return Ok(SortState::Drain(buf.into_iter(), mem));
    }
    if !buf.is_empty() {
        runs.push(flush_run(&mut buf, descs, n_out, m, ctx, &mut ticker)?);
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

/// Stable-sort `buf` and write it out as one run. Rows keep their
/// trailing key columns; the merge strips them.
fn flush_run(
    buf: &mut Vec<Row>,
    descs: &[bool],
    n_out: usize,
    m: &mut Metrics,
    ctx: &ExecContext,
    ticker: &mut Ticker,
) -> Result<SpillFile> {
    buf.sort_by(|a, b| cmp_sort_keys(a, b, n_out, descs));
    let mut w = ctx.spill()?.writer()?;
    for row in buf.drain(..) {
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
    descs: &[bool],
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
                    if cmp_sort_keys(head, cur, n_out, descs) == std::cmp::Ordering::Less {
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

/// An aggregation table: the group keys in a [`KeyTable`], and beside
/// them, flat, the `per` accumulators of each group — group `i` owns
/// `accs[i * per..(i + 1) * per]`. Both are in first-seen group order, so
/// output order, spill-file content and the finalize order of float state
/// are the same on every run.
struct Groups {
    keys: KeyTable,
    accs: Vec<Accumulator>,
    per: usize,
}

impl Groups {
    fn new(group: &GroupSpec) -> Groups {
        Groups {
            keys: KeyTable::new(group.keys.len()),
            accs: Vec::new(),
            per: group.aggs.len(),
        }
    }

    /// Append a group that [`KeyTable::find`] just missed.
    fn push(
        &mut self,
        hash: u64,
        key: impl IntoIterator<Item = Value>,
        accs: impl IntoIterator<Item = Accumulator>,
    ) -> Result<usize> {
        self.accs.extend(accs);
        self.keys.push(hash, key)
    }

    fn accs_mut(&mut self, i: usize) -> &mut [Accumulator] {
        &mut self.accs[i * self.per..(i + 1) * self.per]
    }

    /// Finalize every group into its `[keys…, agg values…]` output row,
    /// leaving the table empty.
    fn finalize(&mut self) -> Result<Vec<Row>> {
        let per = self.per;
        let mut accs = std::mem::take(&mut self.accs).into_iter();
        let mut out = Vec::with_capacity(self.keys.len());
        for mut row in self.keys.drain_rows(per) {
            for acc in accs.by_ref().take(per) {
                row.push(acc.finalize()?);
            }
            out.push(row);
        }
        Ok(out)
    }

    /// Write every group to its spill partition under `pass`'s hash as a
    /// serialized state row, leaving the table empty.
    fn flush(
        &mut self,
        pass: u32,
        ws: &mut [SpillWriter],
        m: &mut Metrics,
        ctx: &ExecContext,
        ticker: &mut Ticker,
    ) -> Result<()> {
        let per = self.per;
        let mut accs = std::mem::take(&mut self.accs).into_iter();
        for key in self.keys.drain_rows(per * Accumulator::STATE_FIXED) {
            ticker.row(ctx)?;
            let p = partition_of(&key, pass);
            spill_row(
                ctx,
                m,
                &mut ws[p],
                &agg_state_row(key, accs.by_ref().take(per)),
            )?;
        }
        Ok(())
    }
}

/// Drain `child` and aggregate every row. When everything fits in the
/// budget, returns the finished group rows in first-seen order
/// ([`AggState::Drain`] — the classic path). Past the budget, in-memory
/// group state is serialized to hash partitions on disk and the returned
/// [`AggState::Spill`] re-aggregates them one partition at a time.
fn aggregate_input(
    child: &mut TupleOp<'_>,
    layout: &Layout<'_>,
    group: &GroupSpec,
    m: &mut Metrics,
    ctx: &ExecContext,
) -> Result<AggState> {
    let mut groups = Groups::new(group);
    let mut mem = 0u64;
    let mut writers: Option<Vec<SpillWriter>> = None;
    let mut ticker = Ticker::new();

    let fresh = || group.aggs.iter().map(Accumulator::new);
    let accs_bytes = (group.aggs.len() * std::mem::size_of::<Accumulator>()) as u64;

    if group.keys.is_empty() {
        // The one global group exists even over empty input; it is
        // reported but never charged.
        groups.push(hash_key::<Value>(&[]), [], fresh())?;
        m.peak_mem = accs_bytes;
    }

    while let Some(batch) = pull(child, m, ctx)? {
        // Bytes of groups created by this batch; without a spill fallback
        // they are charged per batch so a key-explosion on skewed dirty
        // data hits the budget before exhausting process memory.
        let mut batch_mem = 0u64;
        let mut key = Vec::with_capacity(group.keys.len());
        for t in batch.iter() {
            let t = layout.tuple(t);
            key.clear();
            for k in &group.keys {
                key.push(k.eval_ref(t)?);
            }
            let hash = hash_key(&key);
            let i = match groups.keys.find(hash, &key) {
                Some(i) => i,
                None => {
                    let bytes = key.iter().map(owned_value_bytes).sum::<u64>() + accs_bytes;
                    if !ctx.spill_enabled() {
                        batch_mem += bytes;
                    } else if ctx.try_charge(bytes) {
                        mem += bytes;
                    } else {
                        // Budget full: move every in-memory group to disk as
                        // serialized state and start over with an empty table
                        // (partitions are re-merged afterwards).
                        let ws = match &mut writers {
                            Some(ws) => ws,
                            None => {
                                m.spill_passes += 1;
                                writers.insert(new_partition_writers(ctx)?)
                            }
                        };
                        m.peak_mem = m.peak_mem.max(mem);
                        groups.flush(0, ws, m, ctx, &mut ticker)?;
                        ctx.release(mem);
                        mem = 0;
                        if ctx.try_charge(bytes) {
                            mem += bytes;
                        } else {
                            // A single group over the whole budget.
                            ctx.charge(bytes)?;
                            mem += bytes;
                        }
                    }
                    groups.push(hash, key.drain(..).map(Cow::into_owned), fresh())?
                }
            };
            for (acc, call) in groups.accs_mut(i).iter_mut().zip(&group.aggs) {
                match &call.arg {
                    None => acc.update(&Value::Null)?, // COUNT(*) ignores the value
                    Some(e) => acc.update(&*e.eval_ref(t)?)?,
                }
            }
        }
        if !ctx.spill_enabled() {
            ctx.charge(batch_mem)?;
            mem += batch_mem;
        }
    }

    m.peak_mem = m.peak_mem.max(mem);
    if let Some(mut ws) = writers {
        groups.flush(0, &mut ws, m, ctx, &mut ticker)?;
        ctx.release(mem);
        let files = finish_writers(ws)?;
        m.spill_partitions += nonempty(&files);
        let queue = files
            .into_iter()
            .filter(|f| f.rows() > 0)
            .map(|f| (f, 0))
            .collect();
        return Ok(AggState::Spill {
            queue,
            current: None,
        });
    }

    Ok(AggState::Drain(groups.finalize()?.into_iter(), mem))
}

/// Serialize one group (key + accumulator states) as a spill row.
fn agg_state_row(key: Row, accs: impl IntoIterator<Item = Accumulator>) -> Row {
    let mut row = key;
    for acc in accs {
        acc.state_values(&mut row);
    }
    row
}

/// Decode the serialized accumulator states that follow the `calls.len()`
/// key values in a spilled group-state row.
fn decode_acc_states(vals: &[Value], calls: &[AggCall]) -> Result<Vec<Accumulator>> {
    let mut out = Vec::with_capacity(calls.len());
    let mut pos = 0;
    for call in calls {
        let rest = vals
            .get(pos..)
            .ok_or_else(|| EngineError::internal("spilled aggregate state row is too short"))?;
        let (acc, used) = Accumulator::from_state(call, rest)?;
        pos += used;
        out.push(acc);
    }
    if pos != vals.len() {
        return Err(EngineError::internal(
            "trailing values in spilled aggregate state row",
        ));
    }
    Ok(out)
}

/// Approximate heap footprint of decoded accumulator state (including
/// DISTINCT set contents, which dominate for COUNT(DISTINCT)).
fn acc_state_bytes(accs: &[Accumulator]) -> u64 {
    accs.iter()
        .map(|a| {
            std::mem::size_of::<Accumulator>() as u64
                + a.distinct
                    .as_ref()
                    .map_or(0, |s| s.iter().map(approx_value_bytes).sum::<u64>())
        })
        .sum()
}

/// Result of re-aggregating one spilled partition.
enum AggMerge {
    /// Groups fit: finalized output rows, plus the bytes to release once
    /// they are drained.
    Done(Vec<Row>, u64),
    /// Partition was oversized and was split with the next pass's hash.
    Repartitioned(Vec<(SpillFile, u32)>),
}

/// Re-aggregate one partition of spilled group state: state rows for the
/// same key (from different flushes) are merged, then finalized. An
/// oversized partition is re-partitioned with the next pass's hash
/// instead.
fn agg_merge_partition(
    file: SpillFile,
    pass: u32,
    group: &GroupSpec,
    m: &mut Metrics,
    ctx: &ExecContext,
) -> Result<AggMerge> {
    let nk = group.keys.len();
    let mut ticker = Ticker::new();
    let mut groups = Groups::new(group);
    let mut mem = 0u64;
    let mut reader = file.reader()?;
    while let Some(srow) = reader.next_row()? {
        ticker.row(ctx)?;
        if srow.len() < nk {
            return Err(EngineError::internal(
                "spilled aggregate state row is too short",
            ));
        }
        let accs = decode_acc_states(&srow[nk..], &group.aggs)?;
        let key = {
            let mut k = srow;
            k.truncate(nk);
            k
        };
        let hash = hash_key(&key);
        if let Some(i) = groups.keys.find(hash, &key) {
            for (e, a) in groups.accs_mut(i).iter_mut().zip(accs) {
                e.merge(a)?;
            }
            continue;
        }
        let bytes = key.iter().map(approx_value_bytes).sum::<u64>() + acc_state_bytes(&accs);
        let fits = ctx.try_charge(bytes);
        if fits || pass + 1 >= MAX_SPILL_PASSES {
            if !fits {
                ctx.charge(bytes)?;
            }
            mem += bytes;
            groups.push(hash, key, accs)?;
            continue;
        }
        // Oversized partition: split everything (merged groups + the rest
        // of the file) with the next pass's hash.
        let nextp = pass + 1;
        m.spill_passes += 1;
        let mut ws = new_partition_writers(ctx)?;
        m.peak_mem = m.peak_mem.max(mem);
        groups.flush(nextp, &mut ws, m, ctx, &mut ticker)?;
        ctx.release(mem);
        let p = partition_of(&key, nextp);
        spill_row(ctx, m, &mut ws[p], &agg_state_row(key, accs))?;
        while let Some(r) = reader.next_row()? {
            ticker.row(ctx)?;
            if r.len() < nk {
                return Err(EngineError::internal(
                    "spilled aggregate state row is too short",
                ));
            }
            let p = partition_of(&r[..nk], nextp);
            spill_row(ctx, m, &mut ws[p], &r)?;
        }
        let files = finish_writers(ws)?;
        m.spill_partitions += nonempty(&files);
        return Ok(AggMerge::Repartitioned(
            files
                .into_iter()
                .filter(|f| f.rows() > 0)
                .map(|f| (f, nextp))
                .collect(),
        ));
    }
    m.peak_mem = m.peak_mem.max(mem);
    Ok(AggMerge::Done(groups.finalize()?, mem))
}

/// Accumulator for one aggregate call within one group.
#[derive(Debug, Clone)]
struct Accumulator {
    func: AggFunc,
    count_star: bool,
    distinct: Option<HashSet<Value>>,
    count: i64,
    sum_int: i64,
    sum_float: f64,
    saw_float: bool,
    overflowed: bool,
    minmax: Option<Value>,
}

impl Accumulator {
    fn new(call: &AggCall) -> Self {
        Accumulator {
            func: call.func,
            count_star: call.arg.is_none(),
            distinct: call.distinct.then(HashSet::new),
            count: 0,
            sum_int: 0,
            sum_float: 0.0,
            saw_float: false,
            overflowed: false,
            minmax: None,
        }
    }

    /// Fold one input value in, cloning it only where it is kept (a
    /// DISTINCT set's new member, a new MIN/MAX).
    fn update(&mut self, v: &Value) -> Result<()> {
        if self.count_star {
            self.count += 1;
            return Ok(());
        }
        if v.is_null() {
            return Ok(()); // aggregates ignore NULLs
        }
        if let Some(seen) = &mut self.distinct {
            if seen.contains(v) {
                return Ok(());
            }
            seen.insert(v.clone());
        }
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => match *v {
                Value::Int(i) => {
                    self.sum_float += i as f64;
                    if !self.saw_float {
                        match self.sum_int.checked_add(i) {
                            Some(s) => self.sum_int = s,
                            None => self.overflowed = true,
                        }
                    }
                }
                Value::Float(f) => {
                    self.saw_float = true;
                    self.sum_float += f;
                }
                ref other => {
                    return Err(EngineError::exec(format!(
                        "{} over non-numeric value {other}",
                        self.func.name()
                    )))
                }
            },
            AggFunc::Min => {
                if self.minmax.as_ref().is_none_or(|m| v < m) {
                    self.minmax = Some(v.clone());
                }
            }
            AggFunc::Max => {
                if self.minmax.as_ref().is_none_or(|m| v > m) {
                    self.minmax = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    fn finalize(self) -> Result<Value> {
        Ok(match self.func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.saw_float {
                    Value::Float(self.sum_float)
                } else if self.overflowed {
                    return Err(EngineError::exec("integer overflow in SUM"));
                } else {
                    Value::Int(self.sum_int)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum_float / self.count as f64)
                }
            }
            AggFunc::Min | AggFunc::Max => self.minmax.unwrap_or(Value::Null),
        })
    }

    /// Number of fixed values in the serialized state layout, before any
    /// DISTINCT values (see [`Accumulator::from_state`]).
    const STATE_FIXED: usize = 7;

    /// Append this accumulator's mergeable state to `out`. Layout:
    /// `[count, sum_int, sum_float, saw_float, overflowed,
    /// minmax-or-NULL, n_distinct, distinct values…]`, where
    /// `n_distinct = -1` marks a non-DISTINCT call. `minmax` can use NULL
    /// as its "absent" marker because [`Accumulator::update`] skips NULLs,
    /// so a present minmax is never NULL.
    fn state_values(self, out: &mut Vec<Value>) {
        out.push(Value::Int(self.count));
        out.push(Value::Int(self.sum_int));
        out.push(Value::Float(self.sum_float));
        out.push(Value::Bool(self.saw_float));
        out.push(Value::Bool(self.overflowed));
        out.push(self.minmax.unwrap_or(Value::Null));
        match self.distinct {
            None => out.push(Value::Int(-1)),
            Some(seen) => {
                out.push(Value::Int(seen.len() as i64));
                // Serialize the set in sorted value order: `HashSet`
                // iteration order is seeded per process, and the replay
                // order on reload feeds float sums, so a raw dump would
                // make re-merged SUM(DISTINCT) bits vary run to run.
                let mut vals: Vec<Value> = seen.into_iter().collect();
                vals.sort();
                out.extend(vals);
            }
        }
    }

    /// Rebuild an accumulator from state written by
    /// [`Accumulator::state_values`]. Returns the accumulator and how many
    /// values it consumed. DISTINCT state is rebuilt by replaying the set
    /// through [`Accumulator::update`], which reconstructs the counts and
    /// sums derived from it.
    fn from_state(call: &AggCall, vals: &[Value]) -> Result<(Accumulator, usize)> {
        fn int(v: Option<&Value>) -> Result<i64> {
            match v {
                Some(Value::Int(i)) => Ok(*i),
                other => Err(EngineError::internal(format!(
                    "corrupt aggregate spill state: expected Int, got {other:?}"
                ))),
            }
        }
        fn float(v: Option<&Value>) -> Result<f64> {
            match v {
                Some(Value::Float(f)) => Ok(*f),
                other => Err(EngineError::internal(format!(
                    "corrupt aggregate spill state: expected Float, got {other:?}"
                ))),
            }
        }
        fn boolean(v: Option<&Value>) -> Result<bool> {
            match v {
                Some(Value::Bool(b)) => Ok(*b),
                other => Err(EngineError::internal(format!(
                    "corrupt aggregate spill state: expected Bool, got {other:?}"
                ))),
            }
        }

        let mut acc = Accumulator::new(call);
        let n_distinct = int(vals.get(Self::STATE_FIXED - 1))?;
        if n_distinct >= 0 {
            let end = Self::STATE_FIXED + n_distinct as usize;
            let seen = vals.get(Self::STATE_FIXED..end).ok_or_else(|| {
                EngineError::internal("corrupt aggregate spill state: truncated DISTINCT set")
            })?;
            for v in seen {
                acc.update(v)?;
            }
            return Ok((acc, end));
        }
        acc.count = int(vals.first())?;
        acc.sum_int = int(vals.get(1))?;
        acc.sum_float = float(vals.get(2))?;
        acc.saw_float = boolean(vals.get(3))?;
        acc.overflowed = boolean(vals.get(4))?;
        acc.minmax = match vals.get(5) {
            Some(Value::Null) => None,
            Some(v) => Some(v.clone()),
            None => {
                return Err(EngineError::internal(
                    "corrupt aggregate spill state: missing minmax",
                ))
            }
        };
        Ok((acc, Self::STATE_FIXED))
    }

    /// Fold another accumulator (same call, same group, different spill
    /// flush) into this one.
    fn merge(&mut self, other: Accumulator) -> Result<()> {
        if let Some(theirs) = other.distinct {
            // Replay through `update` so cross-flush duplicates are
            // dropped by our own set.
            for v in &theirs {
                self.update(v)?;
            }
            return Ok(());
        }
        self.count += other.count;
        match self.sum_int.checked_add(other.sum_int) {
            Some(s) => self.sum_int = s,
            None => self.overflowed = true,
        }
        self.sum_float += other.sum_float;
        self.saw_float |= other.saw_float;
        self.overflowed |= other.overflowed;
        if let Some(v) = other.minmax {
            let keep = match (&self.minmax, self.func) {
                (None, _) => true,
                (Some(cur), AggFunc::Min) => v < *cur,
                (Some(cur), AggFunc::Max) => v > *cur,
                (Some(_), _) => false,
            };
            if keep {
                self.minmax = Some(v);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::AggCall;

    fn acc(func: AggFunc, distinct: bool) -> Accumulator {
        Accumulator::new(&AggCall {
            func,
            arg: Some(BoundExpr::Literal(Value::Null)),
            distinct,
        })
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
        // The key is Int(1) on one row and a float (or NULL) on the rest.
        let plan = plan_of(
            &cat,
            "select case when tag = 1 then i else f end, count(*) from g \
             group by case when tag = 1 then i else f end",
        );
        let rows = execute_plan(&cat, &plan, &ExecContext::default())
            .unwrap()
            .rows;
        // Grouping is value identity, not numeric equality: 0.0 and -0.0
        // are two groups, as are Int(1) and Float(1.0); NaN meets NaN and
        // NULL meets NULL.
        let expected = [
            (Value::Float(0.0), 1),
            (Value::Float(-0.0), 1),
            (Value::Int(1), 1),
            (Value::Float(1.0), 1),
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
            movable_cells(&plan.output, &plan.order_by)
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
    fn sum_stays_int_until_float_appears() {
        let mut a = acc(AggFunc::Sum, false);
        a.update(&Value::Int(3)).unwrap();
        a.update(&Value::Int(4)).unwrap();
        assert_eq!(a.clone().finalize().unwrap(), Value::Int(7));
        a.update(&Value::Float(0.5)).unwrap();
        assert_eq!(a.finalize().unwrap(), Value::Float(7.5));
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
        let norm = |v: Value| normalize_key(Cow::Owned(v)).into_owned();
        assert_eq!(norm(Value::Int(5)), Value::Float(5.0));
        assert_eq!(norm(Value::Float(-0.0)), Value::Float(0.0));
        assert_eq!(norm(Value::text("x")), Value::text("x"));
        // huge ints stay exact
        assert_eq!(norm(Value::Int(i64::MAX)), Value::Int(i64::MAX));
    }
}
