//! Physical execution of query plans.
//!
//! Plans run as a pull-based pipeline of physical operators exchanging
//! *batches* of rows (`Vec<Row>`, up to [`BATCH_SIZE`] each): scan →
//! filter → join → aggregate → project → distinct → sort → limit. Blocking
//! operators (hash-join build sides, aggregation, sort) materialize only
//! their own state; everything else streams, so `LIMIT` without `ORDER BY`
//! stops reading its input early instead of materializing the whole query.
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
//! * **hash join** becomes a grace hash join — both inputs are
//!   hash-partitioned into checksummed spill files
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
//! cancellation/deadline guards every [`SPILL_TICK_ROWS`] rows.

use std::borrow::Cow;
use std::collections::HashSet;
use std::hash::Hash;
use std::time::{Duration, Instant};

use conquer_sql::AggFunc;
use conquer_storage::spill::{SpillFile, SpillReader, SpillWriter};
use conquer_storage::{Catalog, HashIndex, Row, Table, Value};

use crate::binder::{AggCall, GroupSpec, OrderKey, OutputItem};
use crate::context::ExecContext;
use crate::error::EngineError;
use crate::expr::{BoundExpr, ColumnId, Offsets};
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

pub(crate) type Batch = Vec<Row>;

/// Execute a plan against the catalog under the given execution context,
/// collecting per-operator statistics. The context's guards (cancellation,
/// deadline, memory budget) are checked cooperatively at every batch
/// boundary; pass [`ExecContext::default()`] for ungoverned execution.
///
/// There is one operator tree. [`crate::parallel::drive`] either pulls it
/// as is, or — when more than one worker would have work and its probe
/// chain forks ([`OpNode::fork`]) — lets a worker pool pull forks of that
/// chain over morsels of the driving scan and gathers them in order.
/// Results are bit-identical at every thread count: which of the two
/// happens depends only on the plan, the data, and the budget, never on
/// scheduling, and a fork is the same operator code over a row range.
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
    let carried = plan.carried();
    let (join, layout, _est) = build_join(catalog, plan, &plan.join, &carried)?;
    let offsets = offsets_for(&layout, &carried);
    let (rows, root, threads_used) = crate::parallel::drive(join, offsets, plan, ctx)?;
    Ok(QueryResult::with_stats(
        plan.output.iter().map(|o| o.name.clone()).collect(),
        rows,
        ExecStats {
            root,
            total_time: start.elapsed(),
            mem_budget: ctx.limits().mem_bytes,
            mem_charged: ctx.mem_charged(),
            disk_budget: ctx.limits().disk_bytes,
            disk_charged: ctx.disk_charged(),
            timeout: ctx.limits().timeout,
            threads_used,
        },
    ))
}

/// Drain the pipeline root into the result buffer, charging it against
/// the memory budget like any other materialized state.
pub(crate) fn drain_root(root: &mut OpNode<'_>, ctx: &ExecContext) -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    while let Some(batch) = root.next_batch(ctx)? {
        ctx.charge(batch.iter().map(approx_row_bytes).sum())?;
        rows.extend(batch);
    }
    Ok(rows)
}

/// Compute per-relation offsets for a concatenation layout, each relation
/// as wide as the columns its scan carries ([`Plan::carried`]).
fn offsets_for(layout: &[usize], carried: &[&[usize]]) -> Offsets {
    let mut offs = vec![None; carried.len()];
    let mut acc = 0;
    for &rel in layout {
        offs[rel] = Some(acc);
        acc += carried[rel].len();
    }
    Offsets(offs)
}

// ---------------------------------------------------------------------------
// Pipeline construction
// ---------------------------------------------------------------------------

/// Stack the post-join stages (aggregate, HAVING, project, distinct,
/// sort, limit) on top of a join-tree source. The parallel driver mounts
/// the same stages over its [`OpKind::Gather`] source, so everything
/// stateful downstream of the join runs identical code on both paths.
pub(crate) fn finish_pipeline<'a>(
    mut node: OpNode<'a>,
    mut offsets: Offsets,
    plan: &'a Plan,
) -> OpNode<'a> {
    if let Some(group) = &plan.group {
        node = OpNode::new(
            "HashAggregate",
            OpKind::HashAggregate {
                child: Box::new(node),
                group,
                offsets: offsets.clone(),
                state: AggState::Init,
            },
        );
        // Aggregate output is a single slot row: [keys…, agg values…].
        offsets = Offsets(vec![Some(0)]);
        if let Some(having) = &group.having {
            node = OpNode::new(
                "Filter (HAVING)",
                OpKind::Filter {
                    child: Box::new(node),
                    pred: having,
                    offsets: offsets.clone(),
                },
            );
        }
    }

    node = OpNode::new(
        "Project",
        OpKind::Project {
            child: Box::new(node),
            moves: movable_cells(&plan.output, &plan.order_by, &offsets),
            output: &plan.output,
            order_by: &plan.order_by,
            offsets,
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
/// the relation layout of its output rows, and a crude cardinality estimate
/// used to pick hash-join build sides.
fn build_join<'a>(
    catalog: &'a Catalog,
    plan: &'a Plan,
    node: &'a JoinNode,
    carried: &[&[usize]],
) -> Result<(OpNode<'a>, Vec<usize>, u64)> {
    match node {
        JoinNode::Scan { rel, filter, cols } => {
            let relation = &plan.relations[*rel];
            let table = catalog.table(&relation.table)?;
            let est = table.len() as u64;
            let op = OpNode::new(
                scan_label("Scan", relation, cols),
                OpKind::Scan {
                    table,
                    pos: 0,
                    end: table.len(),
                    filter: filter.as_ref(),
                    // The filter sees the stored row, not the emitted one.
                    offsets: offsets_for(&[*rel], carried),
                    cols,
                },
            );
            Ok((op, vec![*rel], est))
        }
        JoinNode::Join {
            left,
            right,
            equi,
            filter,
        } => {
            let (lop, llayout, lest) = build_join(catalog, plan, left, carried)?;
            let (rop, rlayout, rest) = build_join(catalog, plan, right, carried)?;
            let loffsets = offsets_for(&llayout, carried);
            let roffsets = offsets_for(&rlayout, carried);

            let mut layout = llayout;
            layout.extend(rlayout);
            let offsets = offsets_for(&layout, carried);

            let (mut op, est) = if equi.is_empty() {
                let est = lest.saturating_mul(rest.max(1));
                let op = OpNode::new(
                    "NestedLoopJoin",
                    OpKind::CrossJoin {
                        probe: Box::new(lop),
                        build: Box::new(rop),
                        build_rows: None,
                    },
                );
                (op, est)
            } else if let Some(path) =
                index_join_path(catalog, plan, right, equi, &loffsets, carried)?
            {
                let op = OpNode::new(
                    path.name.clone(),
                    OpKind::IndexJoin {
                        probe: Box::new(lop),
                        path,
                    },
                );
                (op, lest.max(rest))
            } else {
                // Build the hash table on the (estimated) smaller side and
                // stream the other; output stays `left ++ right` either way.
                let build_left = lest <= rest;
                let (probe, build, probe_offsets, build_offsets) = if build_left {
                    (rop, lop, roffsets, loffsets)
                } else {
                    (lop, rop, loffsets, roffsets)
                };
                let (lexprs, rexprs): (Vec<_>, Vec<_>) = equi.iter().map(|(l, r)| (l, r)).unzip();
                let (probe_exprs, build_exprs) = if build_left {
                    (rexprs, lexprs)
                } else {
                    (lexprs, rexprs)
                };
                let op = OpNode::new(
                    "HashJoin",
                    OpKind::HashJoin {
                        probe: Box::new(probe),
                        build: Box::new(build),
                        keys: JoinKeys {
                            probe_exprs,
                            build_exprs,
                            probe_offsets,
                            build_offsets,
                            build_left,
                        },
                        state: JoinState::Init,
                    },
                );
                (op, lest.max(rest))
            };

            if let Some(pred) = filter {
                op = OpNode::new(
                    "Filter",
                    OpKind::Filter {
                        child: Box::new(op),
                        pred,
                        offsets,
                    },
                );
            }
            Ok((op, layout, est))
        }
    }
}

/// An index nested-loop join's right side, resolved by [`index_join_path`].
#[derive(Clone)]
struct IndexPath<'a> {
    /// Operator name for the statistics tree.
    name: String,
    table: &'a Table,
    index: &'a HashIndex,
    /// Flat position of the probe key in the left input row.
    key_flat: usize,
    /// Base columns of `table` to append to each match.
    cols: &'a [usize],
}

impl IndexPath<'_> {
    /// `emit` one `lrow ++ carried cells` row per stored row the index
    /// holds under `lrow`'s key, in stored index order.
    fn probe(&self, lrow: &Row, mut emit: impl FnMut(Row) -> Result<()>) -> Result<()> {
        let key = &lrow[self.key_flat];
        if key.is_null() {
            return Ok(());
        }
        for &ri in self.index.lookup(key) {
            let rrow = self.table.row(ri).ok_or_else(|| {
                EngineError::internal(format!(
                    "stored index on table {:?} references row #{ri} beyond the \
                     table's {} rows (stale index?)",
                    self.table.name(),
                    self.table.len()
                ))
            })?;
            let mut row = Vec::with_capacity(lrow.len() + self.cols.len());
            row.extend(lrow.iter().cloned());
            row.extend(self.cols.iter().map(|&c| rrow[c].clone()));
            emit(row)?;
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
///
/// Key columns are carried positions; the stored index and the declared
/// types are looked up by the base columns behind them.
fn index_join_path<'a>(
    catalog: &'a Catalog,
    plan: &'a Plan,
    right: &'a JoinNode,
    equi: &[(BoundExpr, BoundExpr)],
    loffsets: &Offsets,
    carried: &[&[usize]],
) -> Result<Option<IndexPath<'a>>> {
    let JoinNode::Scan {
        rel,
        filter: None,
        cols,
    } = right
    else {
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
    let base_column = |id: &ColumnId| {
        carried
            .get(id.rel)
            .and_then(|cols| cols.get(id.col))
            .and_then(|&base| Some((base, plan.relations[id.rel].schema.column_at(base)?)))
            .ok_or_else(|| {
                EngineError::internal(format!(
                    "join key column #{} is not carried by the scan of relation #{}",
                    id.col, id.rel
                ))
            })
    };
    let relation = &plan.relations[*rel];
    let table = catalog.table(&relation.table)?;
    let (rbase, rcolumn) = base_column(rcol)?;
    let index = match table.existing_index(rcolumn.name()) {
        Some(idx) if idx.column() == rbase => idx,
        _ => return Ok(None),
    };
    // Raw-value lookup is only sound when the probe values have the same
    // declared type as the indexed column (no Int/Float normalization).
    if base_column(lcol)?.1.data_type() != rcolumn.data_type() {
        return Ok(None);
    }
    Ok(Some(IndexPath {
        name: scan_label("IndexJoin", relation, cols),
        table,
        index,
        key_flat: loffsets.flat(*lcol)?,
        cols,
    }))
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

/// Runtime counters for one operator node.
#[derive(Debug, Default, Clone, Copy)]
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

impl Metrics {
    /// Add a fork's counters. Forks never materialize or spill, so only
    /// the streaming counters can be non-zero.
    fn add(&mut self, fork: &Metrics) {
        self.rows_in += fork.rows_in;
        self.rows_out += fork.rows_out;
        self.batches += fork.batches;
        self.time += fork.time;
    }
}

/// One physical operator plus its instrumentation.
pub(crate) struct OpNode<'a> {
    name: String,
    kind: OpKind<'a>,
    m: Metrics,
}

enum OpKind<'a> {
    /// Scan of stored rows `pos..end` (the whole table, or one morsel in
    /// a fork) with an optional pushed-down predicate, evaluated against
    /// the stored row (`offsets`); survivors are copied out `cols` wide.
    Scan {
        table: &'a Table,
        pos: usize,
        end: usize,
        filter: Option<&'a BoundExpr>,
        offsets: Offsets,
        cols: &'a [usize],
    },
    /// Row filter (residual join predicates, HAVING).
    Filter {
        child: Box<OpNode<'a>>,
        pred: &'a BoundExpr,
        offsets: Offsets,
    },
    /// Equi hash join: drains `build` into a hash table on first pull, then
    /// streams `probe`. Output rows are always `left ++ right`.
    HashJoin {
        probe: Box<OpNode<'a>>,
        build: Box<OpNode<'a>>,
        keys: JoinKeys<'a>,
        state: JoinState,
    },
    /// Fork of a [`OpKind::HashJoin`] whose build side fit in memory:
    /// streams `probe` against the template's build table. It owns no
    /// state, so it cannot charge the budget or spill.
    HashProbe {
        probe: Box<OpNode<'a>>,
        map: &'a BuildMap,
        keys: &'a JoinKeys<'a>,
    },
    /// Streaming probe of a pre-built storage-level hash index.
    IndexJoin {
        probe: Box<OpNode<'a>>,
        path: IndexPath<'a>,
    },
    /// Cartesian product: materializes the right input, streams the left.
    CrossJoin {
        probe: Box<OpNode<'a>>,
        build: Box<OpNode<'a>>,
        build_rows: Option<Vec<Row>>,
    },
    /// Hash aggregation; blocking. Produces `[keys…, agg values…]` rows in
    /// first-seen group order (one row even for empty input when there are
    /// no GROUP BY keys — `COUNT(*)` of an empty table is 0).
    HashAggregate {
        child: Box<OpNode<'a>>,
        group: &'a GroupSpec,
        offsets: Offsets,
        state: AggState,
    },
    /// Compute output expressions, appending ORDER BY key columns for a
    /// downstream [`OpKind::Sort`] to consume. `moves[i]` is the input
    /// cell output item `i` takes by value instead of evaluating (see
    /// [`movable_cells`]).
    Project {
        child: Box<OpNode<'a>>,
        output: &'a [OutputItem],
        order_by: &'a [crate::binder::BoundOrderBy],
        offsets: Offsets,
        moves: Vec<Option<usize>>,
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
    /// Consumer end of the morsel-parallel spine: emits worker-produced
    /// rows strictly in morsel order (see [`crate::parallel`]). Its
    /// statistics child (the forked join tree) is attached by the
    /// parallel driver after the worker pool drains.
    Gather {
        src: crate::parallel::GatherSource<'a>,
    },
}

/// Mount a [`crate::parallel::GatherSource`] as a pipeline source node.
pub(crate) fn gather_node(src: crate::parallel::GatherSource<'_>) -> OpNode<'_> {
    OpNode::new("Gather", OpKind::Gather { src })
}

// ---------------------------------------------------------------------------
// External-memory operator state
// ---------------------------------------------------------------------------

/// An in-memory hash-join build table: the normalized keys in a
/// [`KeyTable`], the build rows of entry `i` in `rows[i]`. Both are in
/// first-seen key order, so flushing it to spill partitions writes the
/// same bytes on every run. Forks share it read-only.
struct BuildMap {
    keys: KeyTable,
    rows: Vec<Vec<Row>>,
}

impl BuildMap {
    fn new(width: usize) -> BuildMap {
        BuildMap {
            keys: KeyTable::new(width),
            rows: Vec::new(),
        }
    }

    /// The build rows under a (non-NULL, normalized) key, which is copied
    /// in if it is new.
    fn rows_of(&mut self, key: Vec<Cow<'_, Value>>) -> Result<&mut Vec<Row>> {
        let hash = hash_key(&key);
        let i = match self.keys.find(hash, &key) {
            Some(i) => i,
            None => {
                let i = self.keys.push(hash, key.into_iter().map(Cow::into_owned))?;
                self.rows.push(Vec::new());
                i
            }
        };
        Ok(&mut self.rows[i])
    }

    /// Move every build row to its spill partition under `pass`'s hash,
    /// keys in first-seen order, leaving the table empty.
    fn flush(
        &mut self,
        pass: u32,
        ws: &mut [SpillWriter],
        m: &mut Metrics,
        ctx: &ExecContext,
        ticker: &mut Ticker,
    ) -> Result<()> {
        for (i, rows) in self.rows.drain(..).enumerate() {
            let p = partition_of(self.keys.key(i), pass);
            for r in rows {
                ticker.row(ctx)?;
                spill_row(ctx, m, &mut ws[p], &r)?;
            }
        }
        self.keys.clear();
        Ok(())
    }
}

/// How a hash join reads its equi keys off a probe row and a build row,
/// and which of the plan's inputs is which.
struct JoinKeys<'a> {
    probe_exprs: Vec<&'a BoundExpr>,
    build_exprs: Vec<&'a BoundExpr>,
    probe_offsets: Offsets,
    build_offsets: Offsets,
    /// True when the plan's *left* input is the build side.
    build_left: bool,
}

impl JoinKeys<'_> {
    /// Fill `key` with `row`'s probe-side key; see [`join_keys`].
    fn probe_key<'r>(&'r self, row: &'r Row, key: &mut Vec<Cow<'r, Value>>) -> Result<bool> {
        join_keys(row, &self.probe_exprs, &self.probe_offsets, key)
    }

    /// `row`'s build-side key, `None` when it has a NULL.
    fn build_key<'r>(&'r self, row: &'r Row) -> Result<Option<Vec<Cow<'r, Value>>>> {
        let mut key = Vec::with_capacity(self.build_exprs.len());
        Ok(join_keys(row, &self.build_exprs, &self.build_offsets, &mut key)?.then_some(key))
    }

    /// What one build row charges: the row plus its own copy of the key.
    fn build_bytes(row: &Row, key: &[Cow<'_, Value>]) -> u64 {
        approx_row_bytes(row) + key.iter().map(owned_value_bytes).sum::<u64>()
    }

    /// Append `prow`'s matches in `map` to `out` as `left ++ right` rows,
    /// in build insertion order; `key` is scratch space for its key. Ticks
    /// the guards per emitted row: a join can fan one probe row out into
    /// thousands, and cancellation latency must stay bounded by emitted
    /// work, not consumed work.
    fn probe_row<'r>(
        &'r self,
        map: &BuildMap,
        prow: &'r Row,
        key: &mut Vec<Cow<'r, Value>>,
        out: &mut Batch,
        ticker: &mut Ticker,
        ctx: &ExecContext,
    ) -> Result<()> {
        if !self.probe_key(prow, key)? {
            return Ok(());
        }
        if let Some(i) = map.keys.find(hash_key(key), key) {
            for brow in &map.rows[i] {
                ticker.row(ctx)?;
                out.push(if self.build_left {
                    concat_rows(brow, prow)
                } else {
                    concat_rows(prow, brow)
                });
            }
        }
        Ok(())
    }
}

/// Build-side state of a hash join: in memory while the budget lasts,
/// grace-partitioned on disk afterwards.
enum JoinState {
    /// Build side not yet consumed.
    Init,
    /// Classic in-memory hash join. `mem` is the bytes charged for the
    /// build table, released once the probe side is exhausted.
    Mem { map: BuildMap, mem: u64 },
    /// Grace hash join over spilled partition pairs.
    Spill(GraceJoin),
}

/// Pending and in-flight partition pairs of a grace hash join.
struct GraceJoin {
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
enum AggState {
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
enum SortState {
    /// Input not yet consumed.
    Fill,
    /// In-memory sort; draining. The `u64` is the still-charged bytes,
    /// released as rows are emitted.
    Drain(std::vec::IntoIter<Row>, u64),
    /// External merge sort: k-way merge over sorted runs on disk.
    Merge(Vec<RunCursor>),
}

/// One sorted run being merged, with its next row buffered.
struct RunCursor {
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

fn nonempty(files: &[SpillFile]) -> u64 {
    files.iter().filter(|f| f.rows() > 0).count() as u64
}

impl<'a> OpNode<'a> {
    fn new(name: impl Into<String>, kind: OpKind<'a>) -> Self {
        OpNode {
            name: name.into(),
            kind,
            m: Metrics::default(),
        }
    }

    /// Pull the next batch, recording rows/batches/inclusive wall time.
    /// Checks the context's cancellation/deadline guards first, so every
    /// batch boundary in the pipeline is a cancellation point.
    pub(crate) fn next_batch(&mut self, ctx: &ExecContext) -> Result<Option<Batch>> {
        ctx.tick()?;
        let start = Instant::now();
        let out = step(&mut self.kind, &mut self.m, ctx);
        self.m.time += start.elapsed();
        if let Ok(Some(batch)) = &out {
            self.m.rows_out += batch.len() as u64;
            self.m.batches += 1;
        }
        out
    }

    /// Pull to exhaustion, uncharged (the driver's result buffer is
    /// [`drain_root`]'s business).
    pub(crate) fn drain(&mut self, ctx: &ExecContext) -> Result<Vec<Row>> {
        let mut rows = Vec::new();
        while let Some(batch) = self.next_batch(ctx)? {
            rows.extend(batch);
        }
        Ok(rows)
    }

    /// Convert the (finished) operator tree into its statistics tree.
    pub(crate) fn harvest(self) -> OpStats {
        let children = match self.kind {
            OpKind::Scan { .. } | OpKind::Gather { .. } => vec![],
            OpKind::Filter { child, .. }
            | OpKind::HashAggregate { child, .. }
            | OpKind::Project { child, .. }
            | OpKind::Distinct { child, .. }
            | OpKind::Sort { child, .. }
            | OpKind::Limit { child, .. } => vec![child.harvest()],
            OpKind::IndexJoin { probe, .. } | OpKind::HashProbe { probe, .. } => {
                vec![probe.harvest()]
            }
            OpKind::HashJoin {
                probe, build, keys, ..
            } => {
                // Report in plan order: left child first.
                if keys.build_left {
                    vec![build.harvest(), probe.harvest()]
                } else {
                    vec![probe.harvest(), build.harvest()]
                }
            }
            OpKind::CrossJoin { probe, build, .. } => vec![probe.harvest(), build.harvest()],
        };
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
            children,
        }
    }

    /// Stored rows of the table behind the driving scan — the leaf of the
    /// probe chain (the probe inputs from this join tree's root down).
    /// `None` when a cross join sits on the chain.
    pub(crate) fn driving_rows(&self) -> Option<usize> {
        match &self.kind {
            OpKind::Scan { table, .. } => Some(table.len()),
            OpKind::Filter { child, .. } => child.driving_rows(),
            OpKind::IndexJoin { probe, .. } | OpKind::HashJoin { probe, .. } => {
                probe.driving_rows()
            }
            _ => None,
        }
    }

    /// Consume every hash-join build side on the probe chain, top join
    /// first, without pulling a probe batch. This is the order a pull
    /// from the root consumes them in, so the budget meter follows the
    /// same trajectory and pulling the tree afterwards simply carries on.
    /// Returns the bytes the in-memory build tables hold charged, or
    /// `None` when the chain does not [`fork`](Self::fork).
    pub(crate) fn prepare_spine(&mut self, ctx: &ExecContext) -> Result<Option<u64>> {
        match &mut self.kind {
            OpKind::Scan { .. } => Ok(Some(0)),
            OpKind::Filter { child, .. } => child.prepare_spine(ctx),
            OpKind::IndexJoin { probe, .. } => probe.prepare_spine(ctx),
            OpKind::HashJoin {
                probe,
                build,
                keys,
                state,
            } => {
                ctx.tick()?;
                let start = Instant::now();
                if matches!(state, JoinState::Init) {
                    *state = hj_prepare(probe, build, keys, &mut self.m, ctx)?;
                }
                self.m.time += start.elapsed();
                let JoinState::Mem { mem, .. } = state else {
                    return Ok(None);
                };
                let mem = *mem;
                Ok(probe.prepare_spine(ctx)?.map(|below| below + mem))
            }
            _ => Ok(None),
        }
    }

    /// The same operators over rows `lo..hi` of the driving scan: `Scan`
    /// takes the range, `Filter` and `IndexJoin` fork structurally, and a
    /// `HashJoin` whose build side is in memory forks into a
    /// [`OpKind::HashProbe`] borrowing that table. A fork holds no state
    /// of its own, so pulling it never charges the budget or spills, and
    /// the concatenation of forks over consecutive ranges *is* this
    /// chain's row sequence.
    ///
    /// `None` — does not fork — for everything else: a cross join, a hash
    /// join not yet prepared or gone to grace mode, any materializing
    /// operator.
    pub(crate) fn fork(&self, lo: usize, hi: usize) -> Option<OpNode<'_>> {
        let kind = match &self.kind {
            OpKind::Scan {
                table,
                filter,
                offsets,
                cols,
                ..
            } => OpKind::Scan {
                table,
                pos: lo,
                end: hi.min(table.len()),
                filter: *filter,
                offsets: offsets.clone(),
                cols,
            },
            OpKind::Filter {
                child,
                pred,
                offsets,
            } => OpKind::Filter {
                child: Box::new(child.fork(lo, hi)?),
                pred,
                offsets: offsets.clone(),
            },
            OpKind::IndexJoin { probe, path } => OpKind::IndexJoin {
                probe: Box::new(probe.fork(lo, hi)?),
                path: path.clone(),
            },
            OpKind::HashJoin {
                probe,
                keys,
                state: JoinState::Mem { map, .. },
                ..
            } => OpKind::HashProbe {
                probe: Box::new(probe.fork(lo, hi)?),
                map,
                keys,
            },
            _ => return None,
        };
        // Unnamed: a fork is never harvested, only absorbed.
        Some(OpNode::new(String::new(), kind))
    }

    /// The next operator down the probe chain.
    fn probe_child(&mut self) -> Option<&mut OpNode<'a>> {
        match &mut self.kind {
            OpKind::Filter { child, .. } => Some(child),
            OpKind::IndexJoin { probe, .. }
            | OpKind::HashJoin { probe, .. }
            | OpKind::HashProbe { probe, .. } => Some(probe),
            _ => None,
        }
    }

    /// Add this (finished) fork's counters, probe chain top-down, into
    /// `chain`.
    pub(crate) fn add_metrics_to(&mut self, chain: &mut Vec<Metrics>) {
        let mut node = Some(self);
        let mut depth = 0;
        while let Some(n) = node {
            if chain.len() == depth {
                chain.push(Metrics::default());
            }
            chain[depth].add(&n.m);
            depth += 1;
            node = n.probe_child();
        }
    }

    /// Add fork counters gathered by [`add_metrics_to`](Self::add_metrics_to)
    /// into this chain's nodes, so that [`harvest`](Self::harvest) reports
    /// what the forks did on the operators that did it.
    pub(crate) fn absorb(&mut self, chain: &[Metrics]) {
        let mut node = Some(self);
        for m in chain {
            let Some(n) = node else { break };
            n.m.add(m);
            node = n.probe_child();
        }
    }
}

/// Pull one batch from `child`, crediting its size to the parent's
/// `rows_in` counter.
fn pull(child: &mut OpNode<'_>, m: &mut Metrics, ctx: &ExecContext) -> Result<Option<Batch>> {
    let batch = child.next_batch(ctx)?;
    if let Some(b) = &batch {
        m.rows_in += b.len() as u64;
    }
    Ok(batch)
}

/// Advance one operator by one batch. `None` means exhausted.
fn step(kind: &mut OpKind<'_>, m: &mut Metrics, ctx: &ExecContext) -> Result<Option<Batch>> {
    match kind {
        OpKind::Scan {
            table,
            pos,
            end,
            filter,
            offsets,
            cols,
        } => {
            let rows = table.rows();
            let mut out = Vec::with_capacity(BATCH_SIZE.min(end.saturating_sub(*pos)));
            while *pos < *end && out.len() < BATCH_SIZE {
                let row = &rows[*pos];
                *pos += 1;
                m.rows_in += 1;
                match filter {
                    Some(pred) if !pred.eval_predicate(row, offsets)? => {}
                    _ => out.push(carried_cells(row, cols)),
                }
            }
            Ok((!out.is_empty()).then_some(out))
        }

        OpKind::Filter {
            child,
            pred,
            offsets,
        } => {
            while let Some(batch) = pull(child, m, ctx)? {
                let mut out = Vec::with_capacity(batch.len());
                for row in batch {
                    if pred.eval_predicate(&row, offsets)? {
                        out.push(row);
                    }
                }
                if !out.is_empty() {
                    return Ok(Some(out));
                }
            }
            Ok(None)
        }

        OpKind::HashJoin {
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
                        *map = BuildMap::new(0);
                    }
                    Ok(out)
                }
                JoinState::Spill(grace) => hj_spill_next(grace, keys, m, ctx),
            }
        }

        OpKind::HashProbe { probe, map, keys } => hj_probe_next(probe, map, keys, m, ctx),

        OpKind::IndexJoin { probe, path } => {
            while let Some(batch) = pull(probe, m, ctx)? {
                let mut out = Vec::new();
                for lrow in &batch {
                    path.probe(lrow, |row| {
                        out.push(row);
                        Ok(())
                    })?;
                }
                if !out.is_empty() {
                    return Ok(Some(out));
                }
            }
            Ok(None)
        }

        OpKind::CrossJoin {
            probe,
            build,
            build_rows,
        } => {
            if build_rows.is_none() {
                let mut rows = Vec::new();
                while let Some(batch) = pull(build, m, ctx)? {
                    ctx.charge(batch.iter().map(approx_row_bytes).sum())?;
                    rows.extend(batch);
                }
                m.peak_mem = rows.iter().map(approx_row_bytes).sum();
                *build_rows = Some(rows);
            }
            let rrows = build_rows.as_ref().ok_or_else(|| {
                EngineError::internal("cross join probed before materializing its build side")
            })?;
            if rrows.is_empty() {
                return Ok(None);
            }
            while let Some(batch) = pull(probe, m, ctx)? {
                let mut out = Vec::with_capacity(batch.len().saturating_mul(rrows.len()));
                for lrow in &batch {
                    for rrow in rrows {
                        out.push(concat_rows(lrow, rrow));
                    }
                }
                if !out.is_empty() {
                    return Ok(Some(out));
                }
            }
            // Probe exhausted: release the materialized build side.
            let freed: u64 = rrows.iter().map(approx_row_bytes).sum();
            ctx.release(freed);
            *build_rows = Some(Vec::new());
            Ok(None)
        }

        OpKind::HashAggregate {
            child,
            group,
            offsets,
            state,
        } => {
            if matches!(state, AggState::Init) {
                *state = aggregate_input(child, group, offsets, m, ctx)?;
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
                            AggMerge::Done(rows, mem) => *current = Some((rows.into_iter(), mem)),
                            AggMerge::Repartitioned(files) => queue.extend(files),
                        }
                    }
                }
            }
        }

        OpKind::Project {
            child,
            output,
            order_by,
            offsets,
            moves,
        } => match pull(child, m, ctx)? {
            None => Ok(None),
            Some(batch) => {
                let mut out = Vec::with_capacity(batch.len());
                for mut row in batch {
                    let mut projected = Vec::with_capacity(output.len() + order_by.len());
                    for (item, cell) in output.iter().zip(moves.iter()) {
                        projected.push(match cell {
                            // Nothing else reads the cell: leave a NULL.
                            Some(i) => std::mem::replace(&mut row[*i], Value::Null),
                            None => item.expr.eval(&row, offsets)?,
                        });
                    }
                    for ob in order_by.iter() {
                        projected.push(match &ob.key {
                            OrderKey::Output(i) => projected[*i].clone(),
                            OrderKey::Expr(e) => e.eval(&row, offsets)?,
                        });
                    }
                    out.push(projected);
                }
                Ok(Some(out))
            }
        },

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

        OpKind::Gather { src } => {
            let out = src.next_batch(ctx)?;
            if let Some(b) = &out {
                m.rows_in += b.len() as u64;
            }
            Ok(out)
        }
    }
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

/// For each output item, the flat input cell [`OpKind::Project`] may move
/// into the output row instead of cloning: the item is a bare column and
/// no other output or `ORDER BY` expression reads that cell. Above an
/// aggregate that is every group-key column, text keys included.
fn movable_cells(
    output: &[OutputItem],
    order_by: &[crate::binder::BoundOrderBy],
    offsets: &Offsets,
) -> Vec<Option<usize>> {
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
                offsets.flat(*id).ok()
            }
            _ => None,
        })
        .collect()
}

/// Copy the carried cells of a stored row.
fn carried_cells(row: &Row, cols: &[usize]) -> Row {
    cols.iter().map(|&c| row[c].clone()).collect()
}

fn concat_rows(l: &Row, r: &Row) -> Row {
    let mut row = Vec::with_capacity(l.len() + r.len());
    row.extend(l.iter().cloned());
    row.extend(r.iter().cloned());
    row
}

/// Evaluate and normalize the join key expressions for one row into
/// `key` (cleared first); `false` when any key is NULL (SQL equality
/// never matches NULL).
fn join_keys<'r>(
    row: &'r Row,
    exprs: &[&'r BoundExpr],
    offsets: &Offsets,
    key: &mut Vec<Cow<'r, Value>>,
) -> Result<bool> {
    key.clear();
    for e in exprs {
        let v = e.eval_ref(row, offsets)?;
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
/// batch of matches, `None` once the probe side is exhausted. The one
/// probe loop — a serial [`OpKind::HashJoin`] and every forked
/// [`OpKind::HashProbe`] run it.
fn hj_probe_next(
    probe: &mut OpNode<'_>,
    map: &BuildMap,
    keys: &JoinKeys<'_>,
    m: &mut Metrics,
    ctx: &ExecContext,
) -> Result<Option<Batch>> {
    let mut ticker = Ticker::new();
    while let Some(batch) = pull(probe, m, ctx)? {
        let mut out = Vec::with_capacity(batch.len());
        let mut key = Vec::with_capacity(keys.probe_exprs.len());
        for prow in &batch {
            keys.probe_row(map, prow, &mut key, &mut out, &mut ticker, ctx)?;
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
    probe: &mut OpNode<'a>,
    build: &mut OpNode<'a>,
    keys: &JoinKeys<'_>,
    m: &mut Metrics,
    ctx: &ExecContext,
) -> Result<JoinState> {
    let mut map = BuildMap::new(keys.build_exprs.len());
    let mut mem = 0u64;
    let mut writers: Option<Vec<SpillWriter>> = None;
    let mut ticker = Ticker::new();
    while let Some(batch) = pull(build, m, ctx)? {
        if writers.is_none() && !ctx.spill_enabled() {
            // No spill fallback configured: charge the whole batch hard,
            // preserving the strict-abort behavior.
            let mut batch_mem = 0u64;
            for row in batch {
                let Some(key) = keys.build_key(&row)? else {
                    continue;
                };
                batch_mem += JoinKeys::build_bytes(&row, &key);
                map.rows_of(key)?.push(row);
            }
            ctx.charge(batch_mem)?;
            mem += batch_mem;
            continue;
        }
        for row in batch {
            let Some(key) = keys.build_key(&row)? else {
                continue;
            };
            if let Some(ws) = &mut writers {
                ticker.row(ctx)?;
                spill_row(ctx, m, &mut ws[partition_of(&key, 0)], &row)?;
                continue;
            }
            let bytes = JoinKeys::build_bytes(&row, &key);
            if ctx.try_charge(bytes) {
                mem += bytes;
                map.rows_of(key)?.push(row);
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
            spill_row(ctx, m, &mut ws[partition_of(&key, 0)], &row)?;
            writers = Some(ws);
        }
    }
    m.peak_mem = m.peak_mem.max(mem);
    let Some(build_ws) = writers else {
        return Ok(JoinState::Mem { map, mem });
    };
    // Partition the probe side with the same hash. NULL keys can never
    // match, so they are dropped here.
    let mut probe_ws = new_partition_writers(ctx)?;
    while let Some(batch) = pull(probe, m, ctx)? {
        let mut key = Vec::with_capacity(keys.probe_exprs.len());
        for row in &batch {
            ticker.row(ctx)?;
            if keys.probe_key(row, &mut key)? {
                spill_row(ctx, m, &mut probe_ws[partition_of(&key, 0)], row)?;
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
) -> Result<Option<Batch>> {
    let mut ticker = Ticker::new();
    loop {
        if let Some(part) = &mut grace.current {
            let mut out = Vec::new();
            loop {
                if out.len() >= BATCH_SIZE {
                    return Ok(Some(out));
                }
                ticker.row(ctx)?;
                let Some(prow) = part.probe.next_row()? else {
                    ctx.release(part.mem);
                    grace.current = None;
                    break;
                };
                let mut key = Vec::with_capacity(keys.probe_exprs.len());
                keys.probe_row(&part.map, &prow, &mut key, &mut out, &mut ticker, ctx)?;
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
    while let Some(row) = reader.next_row()? {
        ticker.row(ctx)?;
        let Some(key) = keys.build_key(&row)? else {
            continue;
        };
        let bytes = JoinKeys::build_bytes(&row, &key);
        let fits = ctx.try_charge(bytes);
        if fits || pass + 1 >= MAX_SPILL_PASSES {
            if !fits {
                // End of the ladder: charge hard, which either fits (the
                // budget freed up) or aborts with ResourceExhausted.
                ctx.charge(bytes)?;
            }
            mem += bytes;
            map.rows_of(key)?.push(row);
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
        spill_row(ctx, m, &mut bws[partition_of(&key, next)], &row)?;
        while let Some(r) = reader.next_row()? {
            ticker.row(ctx)?;
            let Some(k) = keys.build_key(&r)? else {
                continue;
            };
            spill_row(ctx, m, &mut bws[partition_of(&k, next)], &r)?;
        }
        let mut pws = new_partition_writers(ctx)?;
        let mut preader = pfile.reader()?;
        while let Some(r) = preader.next_row()? {
            ticker.row(ctx)?;
            let mut k = Vec::with_capacity(keys.probe_exprs.len());
            if keys.probe_key(&r, &mut k)? {
                spill_row(ctx, m, &mut pws[partition_of(&k, next)], &r)?;
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
    child: &mut OpNode<'_>,
    group: &GroupSpec,
    offsets: &Offsets,
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
        for row in &batch {
            key.clear();
            for k in &group.keys {
                key.push(k.eval_ref(row, offsets)?);
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
                    Some(e) => acc.update(&*e.eval_ref(row, offsets)?)?,
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
    fn fork_catalog() -> Catalog {
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

    fn join_tree<'a>(cat: &'a Catalog, plan: &'a Plan) -> OpNode<'a> {
        build_join(cat, plan, &plan.join, &plan.carried())
            .unwrap()
            .0
    }

    const EQUI_SQL: &str = "select a.v, b.v from a, b where a.k = b.k";

    #[test]
    fn operators_that_charge_or_spill_do_not_fork() {
        use crate::context::ExecLimits;
        let cat = fork_catalog();
        let free = ExecContext::default();

        // A cross join materializes (and charges) its build side.
        let plan = plan_of(&cat, "select a.v, b.v from a, b");
        let mut tree = join_tree(&cat, &plan);
        assert_eq!(tree.driving_rows(), None);
        assert!(tree.prepare_spine(&free).unwrap().is_none());
        assert!(tree.fork(0, 8).is_none());

        // A hash join forks only once its build side sits in memory.
        let plan = plan_of(&cat, EQUI_SQL);
        let mut tree = join_tree(&cat, &plan);
        assert!(tree.fork(0, 8).is_none(), "build side not consumed yet");
        assert!(tree.prepare_spine(&free).unwrap().is_some());
        assert!(tree.fork(0, 8).is_some());

        // The same join under a budget its build side overflows: grace
        // mode owns spill files and charges per partition.
        let tight = ExecContext::new(ExecLimits::none().with_mem_bytes(64));
        let mut tree = join_tree(&cat, &plan);
        assert!(tree.prepare_spine(&tight).unwrap().is_none());
        assert!(tight.disk_charged() > 0, "build side did not spill");
        assert!(tree.fork(0, 8).is_none());

        // Everything above the join tree holds state.
        let tree = join_tree(&cat, &plan);
        let root = finish_pipeline(tree, Offsets(vec![Some(0), Some(2)]), &plan);
        assert!(root.fork(0, 8).is_none());
    }

    #[test]
    fn forks_concatenate_to_the_serial_rows_and_never_charge() {
        use crate::context::ExecLimits;
        let cat = fork_catalog();
        let plan = plan_of(&cat, EQUI_SQL);
        let ctx = ExecContext::new(ExecLimits::none().with_mem_bytes(1 << 20));

        let serial = join_tree(&cat, &plan).drain(&ctx).unwrap();
        assert_eq!(serial.len(), 40);

        let mut template = join_tree(&cat, &plan);
        assert_eq!(template.driving_rows(), Some(40));
        let build_mem = template.prepare_spine(&ctx).unwrap().unwrap();
        assert!(build_mem > 0);
        let charged = ctx.mem_charged();

        let mut forked = Vec::new();
        let mut chain = Vec::new();
        for lo in [0, 16, 32] {
            let mut fork = template.fork(lo, lo + 16).unwrap();
            forked.extend(fork.drain(&ctx).unwrap());
            fork.add_metrics_to(&mut chain);
        }
        assert_eq!(forked, serial);
        assert_eq!(ctx.mem_charged(), charged, "a worker-only run charged");

        template.absorb(&chain);
        let stats = template.harvest();
        assert_eq!((stats.rows_in, stats.rows_out), (10 + 40, 40));
        let [scan_a, scan_b] = &stats.children[..] else {
            panic!("{stats:?}")
        };
        assert!(scan_a.name.starts_with("Scan a"), "{stats:?}");
        assert_eq!((scan_a.rows_in, scan_a.rows_out), (40, 40));
        assert_eq!((scan_b.rows_in, scan_b.rows_out), (10, 10));
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
        let cat = fork_catalog();
        let moves = |sql: &str| {
            let plan = plan_of(&cat, sql);
            movable_cells(&plan.output, &plan.order_by, &Offsets(vec![Some(0)]))
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
