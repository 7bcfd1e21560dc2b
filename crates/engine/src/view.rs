//! Delta-maintained materialized views over the paper's rewritten queries.
//!
//! A Definition-7 rewriting always has the shape
//!
//! ```sql
//! SELECT k1, …, kn, SUM(p1 * … * pm) FROM … WHERE … GROUP BY k1, …, kn
//! ```
//!
//! — grouping keys plus a SUM of probability products. SUM is
//! self-maintainable: inserting a base tuple adds its join contributions
//! to the affected groups, deleting one retracts them, and a group
//! disappears exactly when its last contribution is retracted. This
//! module implements that maintenance for `CREATE MATERIALIZED VIEW`.
//!
//! ## Representation
//!
//! A view is two ordinary catalog tables:
//!
//! * the **contents table**, named like the view — one row per group in
//!   group-key order, columns named and ordered like the defining
//!   projection. `SELECT … FROM view` goes through the normal
//!   binder/planner/executor (result cache included) and therefore
//!   *never* re-executes the base query;
//! * the **state table** `__conquer_view_state_<name>` — one row per
//!   group, in the same key order: the key, the `COUNT(*)` state (a group
//!   is dropped at 0) and the exact `SUM` state as one TEXT cell. Its
//!   `view` table property holds the defining SQL.
//!
//! Because both are plain tables they ride the existing WAL and checkpoint
//! machinery unchanged, the definition with the state table's image. A
//! fold changes only the touched groups' rows, as one [`Edit`] of each
//! table at the groups' positions, so a maintained commit logs those rows
//! as edit frames beside the base table's, and never the definition:
//! base-table change and view
//! maintenance are one atomic commit, so a crash can never expose a
//! half-maintained view. The `deltas_applied` / `refreshes` counters live
//! on each version's [`ViewDef`], in memory.
//!
//! ## Bit-exactness
//!
//! A view never folds in floating point: a group's terms go into an
//! exact sum ([`crate::exact`]), which holds their sum exactly and rounds
//! once, so equal term multisets give byte-identical contents *and* state
//! in any order. The executor's `SUM` adds the terms; the view's plans set
//! one internal mode on it ([`AggCall::exact`](crate::binder::AggCall))
//! that hands over the exact sum as its canonical text, the state table's
//! own cell, instead of the rounded value. `CREATE`/`REFRESH` (every group
//! into an empty state) and maintenance (a delta's signed groups into the
//! stored ones) are the one `fold`, which decodes a stored group and each
//! partial into the executor's own [`Count`] and [`Sum`] states and merges
//! or retracts each partial through them: it does no count or sum
//! arithmetic of its own. An exact sum does not depend on how its
//! multiset was split, so a view reads what the query over its bases
//! reads.
//!
//! ## Delta propagation
//!
//! A DML statement changes exactly one base table `T`, captured as one
//! *signed delta*: a table with `T`'s columns plus the hidden `BOOL` column
//! `__conquer_added`, false for a row the statement removed and true for
//! one it added (an update contributes its old row and its new one). For a
//! view whose FROM list mentions `T` at occurrences `o1 < o2 < …` the
//! change to the view telescopes:
//!
//! ```text
//! Q(new) − Q(old) = Σ_k Q(new, …, Δ at o_k, …, old)
//! ```
//!
//! — occurrence `o_k` is replaced by the delta, occurrences before it see
//! the new `T`, occurrences after it the old `T` (self-joins included).
//! Each summand is one query, whatever the sides of the change: the
//! view's own query, grouped by its keys *and* by the sign of the delta
//! row each joined tuple read, selecting the keys, the sign, `COUNT(*)`
//! and the exact `SUM` of the terms. It is run by the ordinary planner and
//! executor, whose aggregate (runs or hashing, the product-sum factors,
//! spilling) is the only place a view's terms are added up: a delta that
//! joins N tuples into G groups reaches the fold as at most 2G partials,
//! not N rows. Every delta query of a write, for every view, reads one
//! query-local catalog: the statement's new catalog plus the delta as
//! `DELTA_TABLE`, which occurrence `o_k` reads, and, when some view lists
//! `T` more than once, the pre-statement image as `OLD_TABLE`. Every other
//! FROM entry reads its table as the statement left it; no view reads
//! another view, so no fold changes what a delta query reads. A partial
//! with a false sign retracts its count and sum from its group, a true one
//! adds them. Neither name ever enters the database's own catalog, and a
//! statement whose edit, delta query or fold fails changes nothing.
//!
//! The signs are a bag's signed multiplicities, so how a summand's tuples
//! are split into partials does not matter: the summands are folded in
//! FROM order, the state after summands `< k` is `Q` over the new `T`
//! before `o_k` and the old one from it on, and each retracted partial
//! removes contributions of that state. No group's count drops below 0.
//!
//! Each summand lists the delta first in its FROM list. The planner's
//! greedy join order starts at FROM's first relation, so the delta, a few
//! rows, is the first build side: the first base table it joins is
//! streamed past it instead of being hashed, its scan skips the rows
//! outside the delta's key range, and a delta whose rows all fail the
//! view's filter ends that join before the table is read (see the
//! executor's hash-join rules). FROM order decides only the order in
//! which a summand's tuples arrive, never which tuples it joins: the
//! aliases are unchanged, so the selection, the keys and the term bind to
//! the same columns, and a group's count and exact sum are independent
//! of order. So the contents and state tables are bit-identical whatever
//! order the planner picks.

use std::collections::BTreeMap;

use conquer_sql::{AggFunc, Expr, SelectItem, SelectStatement, Statement, TableRef};
use conquer_storage::{Catalog, Column, DataType, Edit, Row, Schema, SharedRow, Table, Value};

use crate::binder::{bind, column_type, slot_types};
use crate::database::Database;
use crate::error::EngineError;
use crate::exec::{run_plan, Count, Sum};
use crate::planner::plan_query;
use crate::stats::{approx_row_bytes, ExecStats};
use crate::Result;

/// Prefix of every hidden bookkeeping table; direct DML against such
/// tables is refused.
pub const HIDDEN_PREFIX: &str = "__conquer_";

/// Prefix of a view's state table, followed by the view's name.
const STATE_PREFIX: &str = "__conquer_view_state_";
/// The state-table property holding a view's defining SQL.
const DEFINITION: &str = "view";

/// Query-local name of a base-table delta while the delta queries read it.
const DELTA_TABLE: &str = "__conquer_delta";

/// The delta's sign column: false for a removed row, true for an added one.
const SIGN_COLUMN: &str = "__conquer_added";

/// Query-local name of the pre-statement image of the changed base table
/// while the delta queries of a self-join view read it.
const OLD_TABLE: &str = "__conquer_old";

/// State-table column holding a group's contribution count.
const COUNT_COLUMN: &str = "__conquer_count";

/// State-table column holding a group's encoded exact sum.
const SUM_COLUMN: &str = "__conquer_sum";

/// Name of the per-group state table of view `name`.
pub fn state_table_name(name: &str) -> String {
    format!("{STATE_PREFIX}{name}")
}

/// The views whose definitions the state tables of `catalog` carry, by
/// name, counters at 0. A definition that no longer analyzes (corruption:
/// it was written with the tables it reads) is left out; debug builds assert.
pub(crate) fn rehydrate(catalog: &Catalog) -> BTreeMap<String, ViewDef> {
    let mut views = BTreeMap::new();
    for table in catalog.tables() {
        let name = table.name().strip_prefix(STATE_PREFIX);
        let (Some(name), Some(sql)) = (name, table.property(DEFINITION)) else {
            continue;
        };
        let view = match conquer_sql::parse_statement(sql) {
            Ok(Statement::Select(q)) => ViewDef::analyze(catalog, name, q),
            other => Err(format!("stored view definition is not a SELECT: {other:?}")),
        };
        debug_assert!(view.is_ok(), "view {name:?}: {:?}", view.as_ref().err());
        if let Ok(v) = view {
            views.insert(name.to_string(), v);
        }
    }
    views
}

/// Maintenance counters of one materialized view (served by the server's
/// `STATS` verb). Its counters count since this handle opened: they are
/// kept with each version of the database, in memory.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewStats {
    /// View name.
    pub name: String,
    /// Current number of groups in the contents table.
    pub rows: usize,
    /// How many DML commits have been incrementally folded in.
    pub deltas_applied: u64,
    /// How many times the view was rebuilt from scratch (`REFRESH`).
    pub refreshes: u64,
}

/// One row of a view query: a group's key, the sign of the delta rows its
/// tuples read (`true` in a recompute), and its `COUNT(*)` and `SUM`
/// states. NULL terms count but add nothing.
pub(crate) struct Partial {
    key: Vec<Value>,
    added: bool,
    count: Count,
    sum: Sum,
}

/// A group's `COUNT(*)` and `SUM` states from the cells a view query and
/// the state table hold them in; `None` unless the count is positive and
/// the sum's text canonical.
fn decode(cells: &[Value]) -> Option<(Count, Sum)> {
    match cells {
        [Value::Int(n), Value::Text(text)] if *n > 0 => Some((Count(*n), Sum::decode(text)?)),
        _ => None,
    }
}

/// The signed delta of `edit` on `old`: every row the edit removes or
/// adds, as stored (the edit as applied, conformed to the schema), so
/// exactly what a recompute would stop or start reading. Each is copied
/// once, with its sign in the appended `__conquer_added` column. A row an
/// edit replaces by an equal one is not in it.
pub(crate) fn delta_table(old: &Table, edit: &Edit) -> Result<Table> {
    let mut schema = old.schema().clone();
    schema.push_column(Column::new(SIGN_COLUMN, DataType::Bool))?;
    let mut delta = Table::new(DELTA_TABLE, schema);
    let mut push = |row: &[Value], added: bool| {
        let signed: SharedRow = row.iter().cloned().chain([Value::Bool(added)]).collect();
        delta.insert(signed)
    };
    for (pos, now) in &edit.changed {
        let was = &old.shared_rows()[*pos];
        if now.as_ref() != Some(was) {
            push(was, false)?;
            if let Some(now) = now {
                push(now, true)?;
            }
        }
    }
    for (_, row) in &edit.inserted {
        push(row, true)?;
    }
    Ok(delta)
}

/// The query-local catalog every delta query of one write reads: `next`,
/// the catalog the statement is building, plus `delta` and, when some
/// view lists the changed table twice, its pre-statement image `old`,
/// which shares `old`'s rows under another name.
pub(crate) fn delta_catalog(next: &Catalog, delta: Table, old: Option<&Table>) -> Result<Catalog> {
    let mut local = next.clone();
    local.add_table(delta)?;
    if let Some(old) = old {
        local.add_table(old.clone_as(OLD_TABLE))?;
    }
    Ok(local)
}

/// An analyzed, maintainable view definition.
#[derive(Debug, Clone)]
pub struct ViewDef {
    /// View name (and name of its contents table).
    pub name: String,
    /// The defining query as written.
    pub query: SelectStatement,
    /// Projection-ordered output items: `(column name, expression)`.
    /// The slot at [`ViewDef::term_index`] holds the SUM *argument*.
    items: Vec<(String, Expr)>,
    /// Which projection slot is the aggregate.
    term_index: usize,
    /// Inferred types of the non-aggregate (key) items, in key order.
    key_types: Vec<DataType>,
    /// DML commits folded in since the handle opened ([`ViewStats`]).
    pub(crate) deltas_applied: u64,
    /// `REFRESH`es since the handle opened ([`ViewStats`]).
    pub(crate) refreshes: u64,
}

impl ViewDef {
    /// Check that `query` is delta-maintainable against `catalog` and
    /// build the definition. The `Err` string is the human-readable
    /// refusal reason (wrapped into
    /// [`EngineError::NotMaintainable`] by the caller).
    pub fn analyze(
        catalog: &Catalog,
        name: &str,
        query: SelectStatement,
    ) -> std::result::Result<ViewDef, String> {
        if query.distinct {
            return Err("SELECT DISTINCT is not delta-maintainable".into());
        }
        if query.having.is_some() {
            return Err("HAVING is not delta-maintainable".into());
        }
        if !query.order_by.is_empty() {
            return Err(
                "ORDER BY has no meaning in a maintained view (its contents are kept in \
                 group-key order); order at query time instead"
                    .into(),
            );
        }
        if query.limit.is_some() {
            return Err("LIMIT is not delta-maintainable".into());
        }
        if query.from.is_empty() {
            return Err("the view query needs a FROM clause".into());
        }
        for t in &query.from {
            if t.table.starts_with(HIDDEN_PREFIX) {
                return Err(format!(
                    "{:?} is a view-bookkeeping table and cannot back a view",
                    t.table
                ));
            }
            if !catalog.contains(&t.table) {
                return Err(format!("unknown base table {:?}", t.table));
            }
        }
        if let Some(w) = &query.selection {
            if w.contains_aggregate() {
                return Err("aggregates in WHERE are not delta-maintainable".into());
            }
        }

        // Exactly one aggregate item, a bare non-DISTINCT SUM.
        let mut items: Vec<(String, Expr)> = Vec::with_capacity(query.projection.len());
        let mut term_index: Option<usize> = None;
        for (i, item) in query.projection.iter().enumerate() {
            let SelectItem::Expr { expr, alias } = item else {
                return Err("the projection must list named expressions, not wildcards".into());
            };
            let item_name = match (alias, expr) {
                (Some(a), _) => a.clone(),
                (None, Expr::Column(c)) => c.name.clone(),
                (None, other) => {
                    return Err(format!(
                        "projected expression {other} needs an AS alias to become a view column"
                    ))
                }
            };
            match expr {
                Expr::Aggregate {
                    func,
                    arg,
                    distinct,
                } => {
                    if *func != AggFunc::Sum {
                        return Err(format!(
                            "only SUM is self-maintainable; {} is not",
                            func.name()
                        ));
                    }
                    if *distinct {
                        return Err("SUM(DISTINCT …) is not delta-maintainable".into());
                    }
                    let Some(arg) = arg else {
                        return Err("SUM needs an argument".into());
                    };
                    if term_index.is_some() {
                        return Err("the projection must contain exactly one SUM, found two".into());
                    }
                    if arg.contains_aggregate() {
                        return Err("nested aggregates are not allowed".into());
                    }
                    term_index = Some(i);
                    items.push((item_name, (**arg).clone()));
                }
                other => {
                    if other.contains_aggregate() {
                        return Err(format!(
                            "the aggregate must be a bare SUM projection, not embedded in {other}"
                        ));
                    }
                    items.push((item_name, other.clone()));
                }
            }
        }
        let Some(term_index) = term_index else {
            return Err(
                "the projection must contain a SUM aggregate (keys + SUM of probability \
                 products, Definition 7)"
                    .into(),
            );
        };
        for (i, (n, _)) in items.iter().enumerate() {
            if items.iter().skip(i + 1).any(|(m, _)| m == n) {
                return Err(format!("duplicate view column name {n:?}"));
            }
            if n.starts_with(HIDDEN_PREFIX) {
                return Err(format!(
                    "view column name {n:?} collides with the hidden bookkeeping prefix"
                ));
            }
        }

        // GROUP BY must be set-equal to the non-aggregate projections.
        let key_exprs: Vec<&Expr> = items
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != term_index)
            .map(|(_, (_, e))| e)
            .collect();
        if key_exprs.is_empty() {
            return Err(
                "a scalar aggregate (no GROUP BY keys) is not delta-maintainable; \
                 group by at least one key"
                    .into(),
            );
        }
        for g in &query.group_by {
            if !key_exprs.contains(&g) {
                return Err(format!("GROUP BY expression {g} is not in the projection"));
            }
        }
        for k in &key_exprs {
            if !query.group_by.iter().any(|g| g == *k) {
                return Err(format!("projected key {k} is missing from GROUP BY"));
            }
        }

        // Static types for the contents/state table schemas, of the bound
        // projection. Conservative: an expression without a type makes the
        // view non-maintainable.
        let binding = bind(catalog, &query);
        if let Some(d) = binding.diagnostics.first() {
            return Err(d.message.clone());
        }
        let select = binding.select.as_ref();
        let Some((select, group)) = select.and_then(|s| Some((s, s.group.as_ref()?))) else {
            return Err("the view query did not bind to an aggregate".into());
        };
        let column = |id| column_type(&select.relations, id);
        let slots = slot_types(&group.keys, &group.aggs, &column);
        let types = select.output.iter().zip(&items).map(|(out, (_, e))| {
            out.expr
                .data_type(&slots)
                .ok_or_else(|| format!("cannot infer a static type for {e}"))
        });
        let mut key_types = types.collect::<std::result::Result<Vec<_>, _>>()?;
        let term_type = key_types.remove(term_index);
        if term_type != DataType::Float {
            return Err(format!(
                "the SUM argument must be FLOAT-typed (a probability product), got {}",
                term_type.name()
            ));
        }

        Ok(ViewDef {
            name: name.to_string(),
            query,
            items,
            term_index,
            key_types,
            deltas_applied: 0,
            refreshes: 0,
        })
    }

    /// Does the view's FROM clause mention `table`?
    pub fn references(&self, table: &str) -> bool {
        self.occurrences(table).next().is_some()
    }

    /// The FROM-list positions at which the view reads `table`, ascending.
    pub(crate) fn occurrences<'a>(&'a self, table: &'a str) -> impl Iterator<Item = usize> + 'a {
        self.query
            .from
            .iter()
            .enumerate()
            .filter(move |(_, t)| t.table == table)
            .map(|(j, _)| j)
    }

    /// Name of this view's hidden state table.
    pub fn state_table(&self) -> String {
        state_table_name(&self.name)
    }

    /// The defining SQL, as its state table's `view` property stores it.
    pub fn sql(&self) -> String {
        self.query.to_string()
    }

    /// The key columns, `(name, type)` in projection order.
    fn key_columns(&self) -> Vec<(String, DataType)> {
        let names = self
            .items
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != self.term_index);
        names
            .zip(&self.key_types)
            .map(|((_, (n, _)), t)| (n.clone(), *t))
            .collect()
    }

    /// Schema of the contents table: projection-ordered and -named, SUM
    /// column typed FLOAT.
    pub(crate) fn contents_schema(&self) -> Result<Schema> {
        let mut columns = self.key_columns();
        let sum = self.items[self.term_index].0.clone();
        columns.insert(self.term_index, (sum, DataType::Float));
        Ok(Schema::from_pairs(columns)?)
    }

    /// Schema of the state table: the keys, then the contribution count and
    /// the encoded exact sum.
    pub(crate) fn state_schema(&self) -> Result<Schema> {
        let mut columns = self.key_columns();
        columns.push((COUNT_COLUMN.to_string(), DataType::Int));
        columns.push((SUM_COLUMN.to_string(), DataType::Text));
        Ok(Schema::from_pairs(columns)?)
    }

    /// The view query as maintenance runs it: the keys in projection
    /// order, then `sign` if given, then `COUNT(*)` and the view's SUM,
    /// grouped by the view's keys and `sign`.
    fn grouped_query(&self, sign: Option<Expr>) -> SelectStatement {
        let keys = self.items.iter().enumerate();
        let keys = keys.filter(|(i, _)| *i != self.term_index);
        let aggregate = |func, arg: Option<&Expr>| Expr::Aggregate {
            func,
            arg: arg.map(|e| Box::new(e.clone())),
            distinct: false,
        };
        let count = aggregate(AggFunc::Count, None);
        let sum = aggregate(AggFunc::Sum, Some(&self.items[self.term_index].1));
        SelectStatement {
            distinct: false,
            projection: keys
                .map(|(_, (_, e))| e.clone())
                .chain(sign.clone())
                .chain([count, sum])
                .map(|expr| SelectItem::Expr { expr, alias: None })
                .collect(),
            from: self.query.from.clone(),
            selection: self.query.selection.clone(),
            group_by: self.query.group_by.iter().cloned().chain(sign).collect(),
            having: None,
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// One output row of a [`ViewDef::grouped_query`], signed when the
    /// query selects a sign.
    fn partial(&self, mut key: Row, signed: bool) -> Result<Partial> {
        let width = self.key_types.len();
        let states = key.get(width + usize::from(signed)..).and_then(decode);
        let (count, sum) =
            states.ok_or_else(|| diverged(self, "a view query returned a malformed group"))?;
        let added = !signed || key[width] == Value::Bool(true);
        key.truncate(width);
        Ok(Partial {
            key,
            added,
            count,
            sum,
        })
    }
}

/// Evaluate the view from scratch: every group of the view query, folded
/// as an addition into an empty state. What `CREATE` and `REFRESH`
/// install.
pub(crate) fn recompute(db: &Database, view: &ViewDef) -> Result<(Table, Table)> {
    let mut fold = Fold::new(view, None)?;
    let query = view.grouped_query(None);
    run(db, db.catalog(), view, &query, false, |p| fold.push(p))?;
    build(view, fold.splice()?)
}

/// The contents and state tables of `view` from the splice of a fold into
/// an empty view, which inserts every group. The state table carries the
/// view's definition.
fn build(view: &ViewDef, (contents_edit, state_edit): (Edit, Edit)) -> Result<(Table, Table)> {
    let mut contents = Table::new(&view.name, view.contents_schema()?);
    let mut state = Table::new(view.state_table(), view.state_schema()?);
    state.set_property(DEFINITION, view.sql())?;
    contents.insert_all(contents_edit.inserted.into_iter().map(|(_, row)| row))?;
    state.insert_all(state_edit.inserted.into_iter().map(|(_, row)| row))?;
    Ok((contents, state))
}

/// The internal error of a view whose state no longer matches its bases.
fn diverged(view: &ViewDef, what: &str) -> EngineError {
    EngineError::internal(format!("view {:?}: {what}", view.name))
}

/// The one view fold: signed partials merged into the view's groups as
/// stored in a prior catalog (none for an empty view), fed one at a time
/// as a query emits them, and spliced as one edit of the contents table
/// and one of the state table at the same positions. The partials are
/// kept until the splice, which orders them by key (a group's partials
/// in arrival order) and walks each touched group once:
/// its state row is found by binary search and decoded into `COUNT` and
/// `SUM` states, which merge or retract each partial's states. Its rows
/// are then replaced, removed at count 0,
/// or inserted at the key's position when the group is new. Untouched
/// groups are not read. A count below 0 means the state diverged from
/// the bases, an internal error that aborts the commit.
pub(crate) struct Fold<'a> {
    view: &'a ViewDef,
    prior_state: &'a [SharedRow],
    partials: Vec<Partial>,
}

impl<'a> Fold<'a> {
    /// A fold into the view's groups as stored in `prior` (`None` for an
    /// empty view).
    pub(crate) fn new(view: &'a ViewDef, prior: Option<&'a Catalog>) -> Result<Fold<'a>> {
        let mut fold = Fold {
            view,
            prior_state: &[],
            partials: Vec::new(),
        };
        if let Some(catalog) = prior {
            let state = catalog.table(&view.state_table())?;
            if catalog.table(&view.name)?.len() != state.len() {
                return Err(diverged(view, "contents and state tables differ in length"));
            }
            fold.prior_state = state.shared_rows();
        }
        Ok(fold)
    }

    /// Take one signed partial.
    pub(crate) fn push(&mut self, partial: Partial) -> Result<()> {
        if !partial.added && conquer_sync::mutant("view::skip-retract") {
            // Seeded mutant: "forget" to retract, so deleted base rows keep
            // contributing. The oracle and the schedule explorer catch it.
            return Ok(());
        }
        self.partials.push(partial);
        Ok(())
    }

    /// The splice of the touched groups, in key order: ascending
    /// positions in both edits.
    pub(crate) fn splice(mut self) -> Result<(Edit, Edit)> {
        let (view, prior_state) = (self.view, self.prior_state);
        let width = view.key_types.len();
        // The partials in key order, each group's in arrival order.
        let partials = &mut self.partials;
        let mut order: Vec<usize> = (0..partials.len()).collect();
        order.sort_unstable_by(|&a, &b| partials[a].key.cmp(&partials[b].key).then(a.cmp(&b)));
        let (mut contents, mut state) = (Edit::default(), Edit::default());
        let mut order = order.into_iter().peekable();
        while let Some(first) = order.next() {
            let key = std::mem::take(&mut partials[first].key);
            let found = prior_state.binary_search_by(|row| row[..width].cmp(&key));
            let (mut count, mut sum) = match found {
                Err(_) => Default::default(),
                Ok(i) => decode(&prior_state[i][width..])
                    .ok_or_else(|| diverged(view, "malformed state row"))?,
            };
            let mut next = Some(first);
            while let Some(i) = next {
                let partial = &partials[i];
                if partial.added {
                    count.merge(&partial.count);
                    sum.merge(&partial.sum);
                } else {
                    count.retract(&partial.count);
                    sum.retract(&partial.sum);
                }
                if count.0 < 0 {
                    return Err(diverged(view, "a retraction drove a group's count below 0"));
                }
                next = order.next_if(|&j| partials[j].key == key);
            }
            if count.0 == 0 {
                if !sum.exact().is_empty() {
                    return Err(diverged(view, "a group with no contributions kept a sum"));
                }
                if let Ok(pos) = found {
                    contents.changed.push((pos, None));
                    state.changed.push((pos, None));
                }
                continue;
            }
            let value = sum.finalize(AggFunc::Sum, false)?;
            let (before, after) = key.split_at(view.term_index);
            let contents_row: SharedRow = before
                .iter()
                .chain([&value])
                .chain(after)
                .cloned()
                .collect();
            let cells = [Value::Int(count.0), sum.finalize(AggFunc::Sum, true)?];
            let state_row: SharedRow = key.into_iter().chain(cells).collect();
            match found {
                Ok(pos) => {
                    contents.changed.push((pos, Some(contents_row)));
                    state.changed.push((pos, Some(state_row)));
                }
                Err(pos) => {
                    contents.inserted.push((pos, contents_row));
                    state.inserted.push((pos, state_row));
                }
            }
        }
        Ok((contents, state))
    }
}

/// Run the delta queries of one write against `view`, by the telescoping
/// decomposition described in the module docs: one per occurrence of
/// `table` in the view's FROM list, planned and executed on `local`, the
/// write's [`delta_catalog`], under `db`'s limits and spill directory.
/// Each result row is one signed partial, handed to `each` as it leaves
/// the query ([`run`]). Returns each query's statistics.
pub(crate) fn delta_queries(
    db: &Database,
    local: &Catalog,
    view: &ViewDef,
    table: &str,
    mut each: impl FnMut(Partial) -> Result<()>,
) -> Result<Vec<ExecStats>> {
    let mut stats = Vec::new();
    for k in view.occurrences(table) {
        // The telescope: the delta at slot `k`, the new `T` before it, the
        // old `T` after it. Aliases keep the original binding names, so the
        // selection binds unchanged. The delta then moves to the front of
        // FROM, where the planner starts its join order.
        let sign = Expr::qualified(view.query.from[k].binding_name(), SIGN_COLUMN);
        let mut query = view.grouped_query(Some(sign));
        for (j, tref) in query.from.iter_mut().enumerate().skip(k) {
            if tref.table == table {
                let name = if j == k { DELTA_TABLE } else { OLD_TABLE };
                *tref = TableRef::aliased(name, tref.binding_name().to_string());
            }
        }
        query.from[..=k].rotate_right(1);
        stats.push(run(db, local, view, &query, true, &mut each)?);
    }
    Ok(stats)
}

/// Plan `query`, a [`ViewDef::grouped_query`] of `view` (with a sign
/// when `signed`), on `catalog` with its SUM handing over the exact sum,
/// and run it under `db`'s limits and spill directory. Each result row
/// goes to `each` as a [`Partial`] as its batch leaves the query, instead
/// of being collected; a batch stays charged against the limits while it
/// is handed over.
fn run(
    db: &Database,
    catalog: &Catalog,
    view: &ViewDef,
    query: &SelectStatement,
    signed: bool,
    mut each: impl FnMut(Partial) -> Result<()>,
) -> Result<ExecStats> {
    let mut plan = plan_query(catalog, query)?;
    for call in plan.group.iter_mut().flat_map(|g| &mut g.aggs) {
        call.exact = call.func == AggFunc::Sum;
    }
    let ctx = db.exec_context(*db.limits());
    run_plan(catalog, &plan, &ctx, |batch| {
        let bytes = batch.iter().map(approx_row_bytes).sum();
        ctx.charge(bytes)?;
        for row in batch {
            each(view.partial(row, signed)?)?;
        }
        ctx.release(bytes);
        Ok(0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "t",
            Schema::from_pairs([
                ("id", DataType::Text),
                ("n", DataType::Int),
                ("prob", DataType::Float),
            ])
            .unwrap(),
        ))
        .unwrap();
        cat
    }

    fn analyze(sql: &str) -> std::result::Result<ViewDef, String> {
        let Statement::Select(q) = conquer_sql::parse_statement(sql).unwrap() else {
            panic!("not a select")
        };
        ViewDef::analyze(&catalog(), "v", q)
    }

    #[test]
    fn clean_answer_shape_is_maintainable() {
        let v = analyze("SELECT id, SUM(prob) AS p FROM t GROUP BY id").unwrap();
        assert_eq!(v.term_index, 1);
        assert_eq!(v.key_types, vec![DataType::Text]);
        assert!(v.references("t"));
        assert!(!v.references("u"));
    }

    #[test]
    fn refusals_name_the_reason() {
        for (sql, needle) in [
            ("SELECT DISTINCT id FROM t", "DISTINCT"),
            (
                "SELECT id, SUM(prob) AS p FROM t GROUP BY id LIMIT 3",
                "LIMIT",
            ),
            (
                "SELECT id, SUM(prob) AS p FROM t GROUP BY id ORDER BY id",
                "ORDER BY",
            ),
            (
                "SELECT id, SUM(prob) AS p FROM t GROUP BY id HAVING SUM(prob) > 1",
                "HAVING",
            ),
            ("SELECT id, COUNT(*) AS c FROM t GROUP BY id", "COUNT"),
            ("SELECT id FROM t GROUP BY id", "SUM"),
            ("SELECT SUM(prob) AS p FROM t", "GROUP BY"),
            ("SELECT id, SUM(n) AS s FROM t GROUP BY id", "FLOAT"),
            (
                "SELECT id, n, SUM(prob) AS p FROM t GROUP BY id",
                "GROUP BY",
            ),
            (
                "SELECT id, SUM(prob) AS a, SUM(prob) AS b FROM t GROUP BY id",
                "exactly one",
            ),
            ("SELECT id, SUM(prob) AS p FROM nope GROUP BY id", "nope"),
            ("SELECT *, SUM(prob) AS p FROM t GROUP BY id", "wildcard"),
            (
                "SELECT id, SUM(prob) AS __conquer_sum FROM t GROUP BY id",
                "hidden bookkeeping prefix",
            ),
        ] {
            let err = analyze(sql).unwrap_err();
            assert!(err.contains(needle), "{sql}: {err}");
        }
    }

    /// The splice of `partials` folded into `prior`'s view tables.
    fn fold(
        view: &ViewDef,
        prior: Option<&Catalog>,
        partials: impl IntoIterator<Item = Partial>,
    ) -> Result<(Edit, Edit)> {
        let mut fold = Fold::new(view, prior)?;
        partials.into_iter().try_for_each(|p| fold.push(p))?;
        fold.splice()
    }

    /// The partial of one tuple of group `key` with term `term`.
    fn one(key: Vec<Value>, term: Value, added: bool) -> Partial {
        let mut sum = crate::exact::ExactSum::new();
        if let Some(x) = term.as_f64() {
            sum.add(x);
        }
        Partial {
            key,
            added,
            count: Count(1),
            sum: Sum::decode(&sum.encode()).unwrap(),
        }
    }

    #[test]
    fn fold_is_order_independent_and_count_backed() {
        let v = analyze("SELECT id, SUM(prob) AS p FROM t GROUP BY id").unwrap();
        let key = |k: &str| vec![Value::text(k)];
        let terms = [0.1, 0.2, 0.3, 1e-17, 0.7];
        let forward = terms.iter().map(|x| one(key("a"), Value::Float(*x), true));
        let backward = terms
            .iter()
            .rev()
            .map(|x| one(key("a"), Value::Float(*x), true));
        let (c1, s1) = build(&v, fold(&v, None, forward).unwrap()).unwrap();
        let (c2, s2) = build(&v, fold(&v, None, backward).unwrap()).unwrap();
        assert_eq!(c1.rows(), c2.rows());
        assert_eq!(s1.rows(), s2.rows());
        // One state row per group, holding the contribution count.
        assert_eq!(s1.len(), 1);
        assert_eq!(s1.rows()[0][1], Value::Int(5));
        // A group of only-NULL terms sums to NULL.
        let nulls = [one(key("n"), Value::Null, true)];
        let (c, _) = build(&v, fold(&v, None, nulls).unwrap()).unwrap();
        assert_eq!(c.rows()[0][1], Value::Null);
    }

    #[test]
    fn retraction_without_match_is_internal_error() {
        let v = analyze("SELECT id, SUM(prob) AS p FROM t GROUP BY id").unwrap();
        let c = |k: &str, x: f64, add: bool| one(vec![Value::text(k)], Value::Float(x), add);
        let stored = |pairs: Vec<Partial>| {
            let (contents, state) = build(&v, fold(&v, None, pairs).unwrap()).unwrap();
            let mut cat = Catalog::new();
            cat.add_table(contents).unwrap();
            cat.add_table(state).unwrap();
            cat
        };
        // The view's tables once `pairs` are folded into `cat`'s.
        let folded = |cat: &Catalog, pairs: Vec<Partial>| -> Result<(Table, Table)> {
            let (contents, state) = fold(&v, Some(cat), pairs)?;
            let mut cat = cat.clone();
            cat.apply("v", contents)?;
            cat.apply(&v.state_table(), state)?;
            let table = |name: &str| cat.table(name).cloned();
            Ok((table("v")?, table(&v.state_table())?))
        };
        let cat = stored(vec![
            c("a", 0.5, true),
            c("b", 0.25, true),
            c("b", 0.5, true),
        ]);
        // A retraction for a group that is not in the state table.
        let err = folded(&cat, vec![c("z", 0.5, false)]).unwrap_err();
        assert!(matches!(err, EngineError::Internal(_)), "{err}");
        // One more retraction than the group has contributions.
        let err = folded(&cat, vec![c("a", 0.5, false), c("a", 0.5, false)]).unwrap_err();
        assert!(matches!(err, EngineError::Internal(_)), "{err}");
        // Count-backed: a group keeps its row while it has contributions
        // and loses it with the last; untouched groups stay in key order.
        let (contents, state) = folded(&cat, vec![c("b", 0.5, false)]).unwrap();
        assert_eq!(
            contents.rows(),
            stored(vec![c("a", 0.5, true), c("b", 0.25, true)])
                .table("v")
                .unwrap()
                .rows()
        );
        assert_eq!(state.rows()[1][1], Value::Int(1));
        let (contents, state) = folded(&cat, vec![c("a", 0.5, false)]).unwrap();
        assert_eq!((contents.len(), state.len()), (1, 1));
        assert_eq!(contents.rows()[0][0], Value::text("b"));
        // New groups land at their keys' positions, before, between and
        // after the stored ones, in one splice with a replacement.
        let pairs = ["0", "a", "ab", "z"].map(|k| c(k, 0.125, true));
        let mut pairs = Vec::from(pairs);
        pairs.push(c("a", 0.5, false));
        let (contents, _) = folded(&cat, pairs).unwrap();
        let keys: Vec<&Value> = contents.rows().iter().map(|r| &r[0]).collect();
        let text = ["0", "a", "ab", "b", "z"].map(Value::text);
        assert_eq!(keys, text.iter().collect::<Vec<_>>());
    }

    /// A database of 6 customers, 4 orders (order 1 is a two-tuple
    /// cluster) and 5 lineitems per order, each 8th one a `'MAIL'` one,
    /// with two clean-answer views: `q12` joins lineitem to orders, `q3`
    /// lists customer, orders and lineitem in that order and keeps one
    /// market segment.
    fn shipping_db() -> Database {
        let mut sql = String::from(
            "CREATE TABLE customer (c_id TEXT, c_custkey INTEGER, c_segment TEXT, prob DOUBLE);
             CREATE TABLE orders (o_id TEXT, o_orderkey INTEGER, o_custkey INTEGER, \
                                  o_prio TEXT, prob DOUBLE);
             CREATE TABLE lineitem (l_id TEXT, l_orderkey INTEGER, l_shipmode TEXT, prob DOUBLE);
             INSERT INTO customer VALUES ('c1', 1, 'AUTO', 1.0), ('c2', 2, 'HOME', 1.0), \
                 ('c3', 3, 'AUTO', 1.0), ('c4', 4, 'HOME', 1.0), ('c5', 5, 'AUTO', 1.0), \
                 ('c6', 6, 'HOME', 1.0);
             INSERT INTO orders VALUES ('o1', 1, 1, 'URGENT', 0.5), ('o1', 1, 2, 'LOW', 0.5), \
                 ('o2', 2, 2, 'URGENT', 1.0), ('o3', 3, 3, 'LOW', 1.0);
             INSERT INTO lineitem VALUES ",
        );
        let lines: Vec<String> = (0..20)
            .map(|i| {
                let mode = if i % 8 == 0 { "MAIL" } else { "SHIP" };
                format!("('l{i}', {}, '{mode}', 0.25)", 1 + i % 4)
            })
            .collect();
        sql.push_str(&lines.join(", "));
        sql.push_str(
            ";
             CREATE MATERIALIZED VIEW q12 AS SELECT o_prio, SUM(l.prob * o.prob) AS p \
                 FROM lineitem l, orders o \
                 WHERE l.l_orderkey = o.o_orderkey AND o_prio = 'URGENT' \
                 GROUP BY o_prio;
             CREATE MATERIALIZED VIEW q3 AS SELECT o_id, SUM(c.prob * o.prob * l.prob) AS p \
                 FROM customer c, orders o, lineitem l \
                 WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey \
                   AND c_segment = 'AUTO' AND l_shipmode = 'MAIL' \
                 GROUP BY o_id",
        );
        let mut db = Database::new();
        db.execute_script(&sql).unwrap();
        db
    }

    /// Per scan of `scanned` in the delta queries that maintain `view`
    /// over `local`, a write's delta catalog for `table`: the rows it read
    /// and the rows it passed to its filter.
    fn scans_of(
        db: &Database,
        local: &Catalog,
        view: &str,
        table: &str,
        scanned: &str,
    ) -> Vec<(u64, u64)> {
        let view = db.views().find(|v| v.name == view).unwrap();
        let stats = delta_queries(db, local, view, table, |_| Ok(())).unwrap();
        assert!(!stats.is_empty());
        let mut scans = Vec::new();
        for stats in &stats {
            stats.root.visit(&mut |_, op| {
                if op.name.starts_with(&format!("Scan {scanned} ")) {
                    scans.push((op.rows_in, op.rows_in - op.pruned));
                }
            });
        }
        scans
    }

    /// The signed partials of the delta queries behind [`scans_of`].
    fn pairs_of(db: &Database, local: &Catalog, view: &str, table: &str) -> Vec<Partial> {
        let view = db.views().find(|v| v.name == view).unwrap();
        let mut pairs = Vec::new();
        delta_queries(db, local, view, table, |partial| {
            pairs.push(partial);
            Ok(())
        })
        .unwrap();
        pairs
    }

    /// The delta catalog of `edit` on `db`'s `table`, as a write builds it.
    fn edited(db: &Database, table: &str, edit: Edit) -> Catalog {
        let mut next = db.catalog().clone();
        let old = db.catalog().table(table).unwrap();
        let delta = delta_table(old, next.apply(table, edit).unwrap()).unwrap();
        delta_catalog(&next, delta, None).unwrap()
    }

    /// The delta catalog of appending `rows` to `table`.
    fn inserted(db: &Database, table: &str, rows: Vec<Row>) -> Catalog {
        let len = db.catalog().table(table).unwrap().len();
        let inserted = rows.into_iter().map(|row| (len, row.into())).collect();
        let edit = Edit {
            inserted,
            ..Edit::default()
        };
        edited(db, table, edit)
    }

    #[test]
    fn the_pre_statement_image_shares_the_tables_rows() {
        let db = shipping_db();
        let old = db.catalog().table("orders").unwrap();
        let delta = delta_table(old, &Edit::default()).unwrap();
        let local = delta_catalog(db.catalog(), delta, Some(old)).unwrap();
        let image = local.table(OLD_TABLE).unwrap();
        assert_eq!(image.schema(), old.schema());
        assert_eq!(image.len(), old.len());
        assert!(!old.is_empty());
        let mut pairs = image.shared_rows().iter().zip(old.shared_rows());
        assert!(pairs.all(|(a, b)| std::sync::Arc::ptr_eq(a, b)));
    }

    #[test]
    fn a_delta_that_fails_the_views_filter_reads_no_other_table() {
        let db = shipping_db();
        // A `'LOW'` order fails q12's filter.
        let order = vec![
            Value::text("o4"),
            Value::Int(4),
            Value::Int(4),
            Value::text("LOW"),
            Value::Float(1.0),
        ];
        let local = inserted(&db, "orders", vec![order]);
        assert_eq!(scans_of(&db, &local, "q12", "orders", "lineitem"), [(0, 0)]);
        // A `'SHIP'` lineitem fails q3's filter. q3 lists lineitem last,
        // so its delta query starts there and reads neither orders nor
        // customer.
        let line = vec![
            Value::text("l20"),
            Value::Int(1),
            Value::text("SHIP"),
            Value::Float(1.0),
        ];
        let local = inserted(&db, "lineitem", vec![line]);
        for scanned in ["orders", "customer"] {
            let scans = scans_of(&db, &local, "q3", "lineitem", scanned);
            assert_eq!(scans, [(0, 0)], "{scanned}");
        }
        assert!(pairs_of(&db, &local, "q3", "lineitem").is_empty());
    }

    #[test]
    fn a_small_delta_filters_only_the_rows_its_keys_reach() {
        let db = shipping_db();
        // Re-weigh cluster o1: both of its tuples leave and come back.
        let orders = db.catalog().table("orders").unwrap();
        let mut reweighed = orders.rows()[..2].to_vec();
        (reweighed[0][4], reweighed[1][4]) = (Value::Float(0.25), Value::Float(0.75));
        let changed = reweighed.into_iter().enumerate();
        let edit = Edit {
            changed: changed.map(|(pos, row)| (pos, Some(row.into()))).collect(),
            ..Edit::default()
        };
        let local = edited(&db, "orders", edit);
        let cluster_lines = db
            .catalog()
            .table("lineitem")
            .unwrap()
            .rows()
            .iter()
            .filter(|l| l[1] == Value::Int(1))
            .count() as u64;
        assert_eq!(cluster_lines, 5);
        // One delta query for both sides of the change; it reads lineitem
        // once and filters at most the cluster's lines.
        let scans = scans_of(&db, &local, "q12", "orders", "lineitem");
        assert_eq!(scans.len(), 1);
        for (read, filtered) in scans {
            assert_eq!(read, 20);
            assert!(filtered <= cluster_lines, "{filtered} of {read}");
        }
        // The pairs retract the old weights and add the new ones.
        let pairs = pairs_of(&db, &local, "q12", "orders");
        let tuples = pairs.iter().map(|p| p.count.0).sum::<i64>();
        let added = pairs
            .iter()
            .filter(|p| p.added)
            .map(|p| p.count.0)
            .sum::<i64>();
        assert_eq!((tuples, added), (2 * cluster_lines as i64, 5));

        // A `'MAIL'` line of order 1 reaches q3's orders through its
        // order key (cluster o1, 2 tuples) and its customers through
        // theirs (1 and 2): each scan filters only those.
        let line = vec![
            Value::text("l20"),
            Value::Int(1),
            Value::text("MAIL"),
            Value::Float(1.0),
        ];
        let local = inserted(&db, "lineitem", vec![line]);
        for (scanned, rows) in [("orders", 4), ("customer", 6)] {
            let scans = scans_of(&db, &local, "q3", "lineitem", scanned);
            assert_eq!(scans, [(rows, 2)], "{scanned}");
        }
    }

    #[test]
    fn partials_keep_keys_apart_as_the_folds_order_does() {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE g (tag INTEGER, i INTEGER, f DOUBLE, prob DOUBLE);
             CREATE MATERIALIZED VIEW v AS \
                 SELECT CASE WHEN tag = 1 THEN i ELSE f END AS k, SUM(prob) AS p FROM g \
                 GROUP BY CASE WHEN tag = 1 THEN i ELSE f END",
        )
        .unwrap();
        let row =
            |tag: i64, f: f64| vec![Value::Int(tag), Value::Int(1), Value::Float(f), 0.5.into()];
        let rows = [(1, 0.0), (0, 1.0), (0, 0.0), (0, -0.0)].map(|(tag, f)| row(tag, f));
        let local = inserted(&db, "g", [rows.clone(), rows].concat());
        // 0.0 and -0.0 are two groups of the executor's aggregate, each of
        // both rows; the CASE is typed DOUBLE, so the integer 1 is the
        // float 1.0, one group of four rows.
        let mut keys: Vec<(Vec<Value>, i64)> = pairs_of(&db, &local, "v", "g")
            .into_iter()
            .map(|p| (p.key, p.count.0))
            .collect();
        keys.sort();
        let want = [(-0.0, 2), (0.0, 2), (1.0, 4)];
        assert_eq!(keys, want.map(|(k, n)| (vec![Value::Float(k)], n)));
    }

    #[test]
    fn a_delta_reaches_the_fold_as_one_partial_per_group_and_sign() {
        // Order 1 is a two-tuple cluster with 300 lines over 6 ship modes.
        let (lines, modes) = (300, 6);
        let values: Vec<String> = (0..lines)
            .map(|i| format!("('l{i}', 1, 'm{}', 0.5)", i % modes))
            .collect();
        let mut db = Database::new();
        db.execute_script(&format!(
            "CREATE TABLE orders (o_id TEXT, o_orderkey INTEGER, prob DOUBLE);
             CREATE TABLE lineitem (l_id TEXT, l_orderkey INTEGER, l_shipmode TEXT, prob DOUBLE);
             INSERT INTO orders VALUES ('o1', 1, 0.5), ('o1', 1, 0.5), ('o2', 2, 1.0);
             INSERT INTO lineitem VALUES {};
             CREATE MATERIALIZED VIEW modes AS SELECT l_shipmode, SUM(l.prob * o.prob) AS p \
                 FROM lineitem l, orders o WHERE l.l_orderkey = o.o_orderkey \
                 GROUP BY l_shipmode",
            values.join(", ")
        ))
        .unwrap();
        // Re-weigh cluster o1: its two tuples leave and come back, so the
        // delta's 4 rows join N = 4 · 300 tuples into G = 6 groups per sign.
        let orders = db.catalog().table("orders").unwrap();
        let mut reweighed = orders.rows()[..2].to_vec();
        (reweighed[0][2], reweighed[1][2]) = (Value::Float(0.25), Value::Float(0.75));
        let changed = reweighed.into_iter().enumerate();
        let edit = Edit {
            changed: changed.map(|(pos, row)| (pos, Some(row.into()))).collect(),
            ..Edit::default()
        };
        let local = edited(&db, "orders", edit);
        let view = db.views().find(|v| v.name == "modes").unwrap();
        let mut partials = Vec::new();
        let stats = delta_queries(&db, &local, view, "orders", |partial| {
            partials.push(partial);
            Ok(())
        })
        .unwrap();
        let (n, g) = (4 * lines as u64, modes as u64);
        let [stats] = &stats[..] else {
            panic!("{} delta queries", stats.len())
        };
        // The root emits one row per (group, sign), not one per tuple ...
        assert!(stats.root.rows_out <= 2 * g, "{}", stats.root.rows_out);
        // ... because the query's aggregate reads all N tuples.
        let mut aggregated = Vec::new();
        stats.root.visit(&mut |_, op| {
            if op.name.starts_with("HashAggregate") {
                aggregated.push(op.rows_in);
            }
        });
        assert_eq!(aggregated, [n]);
        assert_eq!(partials.len() as u64, 2 * g);
        assert_eq!(partials.iter().map(|p| p.count.0).sum::<i64>(), n as i64);
    }
}
