//! The `Database` facade: catalog + end-to-end statement execution.

use std::collections::BTreeMap;
use std::sync::Arc;

use conquer_sql::{
    parse_statements, ApplyCrossref, CreateView, Delete, Expr, Insert, InsertSource, Reannotate,
    Recluster, SelectStatement, Statement, Update,
};
use conquer_storage::{Catalog, Edit, Row, Schema, SharedRow, Value};

use crate::binder::{bind_constant, bind_table_expr};
use crate::context::{ExecContext, ExecLimits};
use crate::error::EngineError;
use crate::exact::ExactSum;
use crate::expr::BoundExpr;
use crate::planner::{plan_query, Plan};
use crate::result::QueryResult;
use crate::view::{self, ViewDef, ViewStats, HIDDEN_PREFIX};
use crate::Result;

/// What a non-query statement did.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// `CREATE TABLE` succeeded.
    Created,
    /// `INSERT` added this many rows.
    Inserted(usize),
    /// `DROP TABLE` succeeded.
    Dropped,
    /// `DELETE` removed this many rows.
    Deleted(usize),
    /// `UPDATE` changed this many rows.
    Updated(usize),
    /// A `SELECT` produced rows.
    Rows(QueryResult),
    /// `CREATE MATERIALIZED VIEW` materialized this many groups.
    CreatedView(usize),
    /// `DROP MATERIALIZED VIEW` succeeded.
    DroppedView,
    /// `REFRESH MATERIALIZED VIEW` rebuilt this many groups.
    RefreshedView(usize),
    /// `RECLUSTER` moved this many tuples (affected clusters were
    /// renormalized).
    Reclustered(usize),
    /// `REANNOTATE` overwrote this many probability annotations.
    Reannotated(usize),
    /// `APPLY CROSSREF` assigned this many distinct cluster identifiers.
    CrossrefApplied(usize),
}

/// An in-memory SQL database: a [`Catalog`] plus the parse→bind→plan→execute
/// pipeline.
///
/// Queries run under the database's default [`ExecLimits`] (taken from the
/// environment via [`ExecLimits::from_env`], so unlimited unless the
/// `CONQUER_*` budget variables are set or the limits are tightened with
/// [`Database::set_limits`]); a [`Session`](crate::Session) runs them
/// under its own.
/// Queries that exceed their memory budget spill to checksummed temp files
/// under [`Database::spill_dir`] (the OS temp directory by default).
#[derive(Debug, Clone)]
pub struct Database {
    catalog: Catalog,
    limits: ExecLimits,
    spill_dir: Option<std::path::PathBuf>,
    /// Materialized views by name, rehydrated on load from the definitions
    /// their state tables carry. The catalog tables are the durable truth;
    /// this map is the parsed cache of their definitions, and holds each
    /// view's maintenance counters for this version.
    views: BTreeMap<String, ViewDef>,
}

impl Default for Database {
    fn default() -> Self {
        Database {
            catalog: Catalog::default(),
            limits: ExecLimits::from_env(),
            spill_dir: None,
            views: BTreeMap::new(),
        }
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Wrap an existing catalog (e.g. one produced by the data generator).
    /// Materialized views are rehydrated from the definitions their state
    /// tables carry, with their counters at 0.
    pub fn from_catalog(catalog: Catalog) -> Self {
        let views = view::rehydrate(&catalog);
        Database {
            catalog,
            limits: ExecLimits::from_env(),
            spill_dir: None,
            views,
        }
    }

    /// Set the default resource limits (memory budget, timeout) every
    /// query on this database runs under outside a session.
    pub fn set_limits(&mut self, limits: ExecLimits) {
        self.limits = limits;
    }

    /// The database-wide default resource limits.
    pub fn limits(&self) -> &ExecLimits {
        &self.limits
    }

    /// Set the directory under which queries create their per-query spill
    /// directories when they exceed the memory budget. Defaults to the OS
    /// temp directory; [`SharedDatabase::open_durable`](crate::SharedDatabase::open_durable)
    /// points it at the persistence directory so startup recovery
    /// ([`conquer_storage::load_catalog_recover`]) can collect spill
    /// directories orphaned by a crash.
    pub fn set_spill_dir(&mut self, dir: impl Into<std::path::PathBuf>) {
        self.spill_dir = Some(dir.into());
    }

    /// The configured spill base directory, if any.
    pub fn spill_dir(&self) -> Option<&std::path::Path> {
        self.spill_dir.as_deref()
    }

    /// An [`ExecContext`] enforcing `limits`, with this database's spill
    /// directory applied. This is what queries run under internally;
    /// build one yourself to share its
    /// [`CancelToken`](crate::CancelToken) with another thread and pass
    /// it to [`Statement::query_with`](crate::Statement::query_with).
    pub fn exec_context(&self, limits: ExecLimits) -> ExecContext {
        let ctx = ExecContext::new(limits);
        match &self.spill_dir {
            Some(dir) => ctx.with_spill_base(dir.clone()),
            None => ctx,
        }
    }

    /// Read access to the catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable access to the catalog (bulk loads, offline transformations).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Execute a `;`-separated script, returning the outcome of each
    /// statement. A failed statement leaves the database as it was before
    /// that statement and ends the script; the statements before it stay
    /// applied.
    pub fn execute_script(&mut self, sql: &str) -> Result<Vec<ExecOutcome>> {
        parse_statements(sql)?
            .iter()
            .map(|s| self.exec_parsed(s))
            .collect()
    }

    /// Execute a parsed statement: the shared implementation behind
    /// [`Database::execute_script`], [`crate::Statement::run`] and a
    /// [`SharedDatabase`](crate::SharedDatabase) commit. A statement that
    /// fails leaves the database unchanged. Which tables it changed
    /// (bases, view contents and state) is not reported:
    /// the catalog answers that ([`Catalog::changes_since`]), and the
    /// write-ahead log records exactly that answer.
    pub(crate) fn exec_parsed(&mut self, stmt: &Statement) -> Result<ExecOutcome> {
        match stmt {
            Statement::CreateTable(ct) => {
                self.guard_writable(&ct.name)?;
                let schema = Schema::from_pairs(ct.columns.iter().map(|(n, t)| (n.clone(), *t)))?;
                if let Some(c) = schema.names().find(|c| c.starts_with(HIDDEN_PREFIX)) {
                    return Err(EngineError::bind(format!(
                        "column name {c:?} is reserved for materialized-view bookkeeping"
                    )));
                }
                self.catalog.create_table(&ct.name, schema)?;
                Ok(ExecOutcome::Created)
            }
            Statement::DropTable(name) => {
                self.guard_writable(name)?;
                if let Some(v) = self.views.values().find(|v| v.references(name)) {
                    return Err(EngineError::bind(format!(
                        "cannot drop table {name:?}: materialized view {:?} is defined over it \
                         (drop the view first)",
                        v.name
                    )));
                }
                self.catalog.drop_table(name)?;
                Ok(ExecOutcome::Dropped)
            }
            Statement::Select(_) | Statement::Explain { .. } => {
                let query = crate::Statement::from_parsed(self, &stmt.to_string(), stmt.clone())?;
                Ok(ExecOutcome::Rows(query.query(self)?))
            }
            Statement::CreateView(cv) => self.create_view(cv),
            Statement::DropView(name) => self.drop_view(name),
            Statement::RefreshView(name) => self.refresh_view(name),
            Statement::Insert(s) => {
                self.dml(&s.table, |db| db.plan_insert(s), ExecOutcome::Inserted)
            }
            Statement::Delete(s) => {
                self.dml(&s.table, |db| db.plan_delete(s), ExecOutcome::Deleted)
            }
            Statement::Update(s) => {
                self.dml(&s.table, |db| db.plan_update(s), ExecOutcome::Updated)
            }
            Statement::Recluster(s) => self.dml(
                &s.table,
                |db| db.plan_recluster(s),
                ExecOutcome::Reclustered,
            ),
            Statement::Reannotate(s) => self.dml(
                &s.table,
                |db| db.plan_reannotate(s),
                ExecOutcome::Reannotated,
            ),
            Statement::ApplyCrossref(s) => self.dml(
                &s.table,
                |db| db.plan_crossref(s),
                ExecOutcome::CrossrefApplied,
            ),
        }
    }

    /// One DML statement: refuse guarded tables, plan the whole change
    /// against the unmodified table, then apply it.
    fn dml(
        &mut self,
        table: &str,
        plan: impl FnOnce(&Self) -> Result<(usize, Edit)>,
        outcome: fn(usize) -> ExecOutcome,
    ) -> Result<ExecOutcome> {
        self.guard_writable(table)?;
        let (count, edit) = plan(self)?;
        self.apply_edit(table, edit)?;
        Ok(outcome(count))
    }

    /// Produce (but do not run) the plan for a `SELECT`.
    pub fn plan(&self, stmt: &SelectStatement) -> Result<Plan> {
        plan_query(&self.catalog, stmt)
    }

    /// Statically analyze `sql` against the current catalog without
    /// executing anything, returning every diagnostic the lint pass finds
    /// (empty when the statement is clean).
    ///
    /// Diagnostics carry stable `CQxxxx` codes, source spans, and optional
    /// fix-it help; render them against the original SQL with
    /// [`Diagnostic::render`](crate::analyze::Diagnostic::render). A result
    /// free of error-severity diagnostics is guaranteed to bind (and plan)
    /// cleanly.
    pub fn analyze(&self, sql: &str) -> Vec<crate::analyze::Diagnostic> {
        crate::analyze::analyze_sql(&self.catalog, sql)
    }

    /// Refuse direct writes against view contents and hidden bookkeeping
    /// tables: views change only through their bases (or `REFRESH`), and
    /// the bookkeeping tables only through maintenance itself.
    fn guard_writable(&self, table: &str) -> Result<()> {
        if table.starts_with(HIDDEN_PREFIX) {
            return Err(EngineError::bind(format!(
                "table {table:?} is reserved for materialized-view bookkeeping"
            )));
        }
        if self.views.contains_key(table) {
            return Err(EngineError::bind(format!(
                "{table:?} is a materialized view; it is maintained through its base tables \
                 (or REFRESH / DROP MATERIALIZED VIEW)"
            )));
        }
        Ok(())
    }

    /// The `WHERE` clause of a single-table statement as a row test; no
    /// clause matches every row.
    fn row_filter(
        &self,
        table: &str,
        selection: Option<&Expr>,
    ) -> Result<impl Fn(&[Value]) -> Result<bool>> {
        let pred = selection
            .map(|e| bind_table_expr(&self.catalog, table, e))
            .transpose()?;
        Ok(move |row: &[Value]| match &pred {
            None => Ok(true),
            Some(p) => p.eval_predicate(row),
        })
    }

    fn plan_delete(&self, del: &Delete) -> Result<(usize, Edit)> {
        let matches = self.row_filter(&del.table, del.selection.as_ref())?;
        let mut positions = Vec::new();
        for (i, row) in self
            .catalog
            .table(&del.table)?
            .shared_rows()
            .iter()
            .enumerate()
        {
            if matches(row)? {
                positions.push(i);
            }
        }
        let count = positions.len();
        Ok((
            count,
            changes(positions.into_iter().map(|i| (i, None)).collect()),
        ))
    }

    fn plan_update(&self, upd: &Update) -> Result<(usize, Edit)> {
        let matches = self.row_filter(&upd.table, upd.selection.as_ref())?;
        let table = self.catalog.table(&upd.table)?;
        let assignments: Vec<(usize, BoundExpr)> = upd
            .assignments
            .iter()
            .map(|(col, e)| {
                let idx = table.column_index(col)?;
                Ok((idx, bind_table_expr(&self.catalog, &upd.table, e)?))
            })
            .collect::<Result<_>>()?;
        // Every assignment reads the *old* row.
        let mut rows = Vec::new();
        for (i, row) in table.shared_rows().iter().enumerate() {
            if !matches(row)? {
                continue;
            }
            let mut new_row = row.clone();
            let cells = Arc::make_mut(&mut new_row);
            for (col, e) in &assignments {
                cells[*col] = e.eval(&row[..])?;
            }
            rows.push((i, Some(new_row)));
        }
        Ok((rows.len(), changes(rows)))
    }

    fn plan_insert(&self, ins: &Insert) -> Result<(usize, Edit)> {
        let table = self.catalog.table(&ins.table)?;
        let schema = table.schema();

        // Map provided columns to schema positions.
        let positions: Vec<usize> = match &ins.columns {
            None => (0..schema.len()).collect(),
            Some(cols) => cols
                .iter()
                .map(|c| {
                    schema.index_of(c).ok_or_else(|| {
                        EngineError::bind(format!("no column {c:?} in table {:?}", ins.table))
                    })
                })
                .collect::<Result<_>>()?,
        };

        let mut rows: Vec<Row> = Vec::new();
        match &ins.source {
            InsertSource::Values(value_rows) => {
                for exprs in value_rows {
                    if exprs.len() != positions.len() {
                        return Err(EngineError::bind(format!(
                            "INSERT row has {} values but {} columns were specified",
                            exprs.len(),
                            positions.len()
                        )));
                    }
                    let mut row: Row = vec![Value::Null; schema.len()];
                    for (expr, &pos) in exprs.iter().zip(&positions) {
                        row[pos] = eval_const(expr)?;
                    }
                    rows.push(row);
                }
            }
            InsertSource::Query(q) => {
                let result = self.prepare_select(q)?.query(self)?;
                if result.columns.len() != positions.len() {
                    return Err(EngineError::bind(format!(
                        "INSERT source query produces {} columns but {} were specified",
                        result.columns.len(),
                        positions.len()
                    )));
                }
                for src in result.rows {
                    let mut row: Row = vec![Value::Null; schema.len()];
                    for (v, &pos) in src.into_iter().zip(&positions) {
                        row[pos] = v;
                    }
                    rows.push(row);
                }
            }
        }
        let count = rows.len();
        let inserted = rows
            .into_iter()
            .map(|row| (table.len(), row.into()))
            .collect();
        Ok((
            count,
            Edit {
                inserted,
                ..Edit::default()
            },
        ))
    }

    /// `RECLUSTER table (id, prob) TO target [WHERE …]`: move matching
    /// tuples into the duplicate cluster `target`, then renormalize the
    /// probabilities of every affected cluster (source and target) to sum
    /// to 1 — Definition 2. A cluster whose probabilities sum to zero
    /// gets the uniform distribution.
    fn plan_recluster(&self, rc: &Recluster) -> Result<(usize, Edit)> {
        let matches = self.row_filter(&rc.table, rc.selection.as_ref())?;
        let target = eval_const(&rc.target)?;
        if target.is_null() {
            return Err(EngineError::exec("RECLUSTER target must not be NULL"));
        }
        let table = self.catalog.table(&rc.table)?;
        let id_idx = table.column_index(&rc.id_column)?;
        let prob_idx = table.column_index(&rc.prob_column)?;
        let rows = table.shared_rows();

        let mut moved = vec![false; rows.len()];
        // Probability mass and size of every affected cluster (the moved
        // tuples' sources and the target) over the post-move membership.
        let mut affected: BTreeMap<&Value, (ExactSum, usize)> = BTreeMap::new();
        for (i, row) in rows.iter().enumerate() {
            if matches(row)? && row[id_idx] != target {
                moved[i] = true;
                affected.insert(&row[id_idx], Default::default());
                affected.insert(&target, Default::default());
            }
        }
        let id_after = |i: usize| if moved[i] { &target } else { &rows[i][id_idx] };
        for (i, row) in rows.iter().enumerate() {
            if let Some((sum, members)) = affected.get_mut(id_after(i)) {
                sum.add(row[prob_idx].as_f64().unwrap_or(0.0));
                *members += 1;
            }
        }

        let mut updated = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let Some((sum, members)) = affected.get(id_after(i)) else {
                continue;
            };
            // The cluster's mass is rounded once: the same in any row order.
            let prob = Value::Float(match sum.value() {
                Some(mass) if mass > 0.0 => row[prob_idx].as_f64().unwrap_or(0.0) / mass,
                _ => 1.0 / *members as f64,
            });
            if moved[i] || prob != row[prob_idx] {
                let mut new_row = row.clone();
                let cells = Arc::make_mut(&mut new_row);
                cells[id_idx] = id_after(i).clone();
                cells[prob_idx] = prob;
                updated.push((i, Some(new_row)));
            }
        }
        let count = moved.iter().filter(|m| **m).count();
        Ok((count, changes(updated)))
    }

    /// `REANNOTATE table (id, prob) SET expr [WHERE …]`: overwrite the
    /// probability of matching tuples with `expr` evaluated on the old
    /// row. No renormalization — the caller controls the exact values
    /// (and thereby, deliberately, can violate Definition 2; `RECLUSTER`
    /// is the normalizing mutation).
    fn plan_reannotate(&self, ra: &Reannotate) -> Result<(usize, Edit)> {
        let matches = self.row_filter(&ra.table, ra.selection.as_ref())?;
        let value = bind_table_expr(&self.catalog, &ra.table, &ra.value)?;
        let table = self.catalog.table(&ra.table)?;
        // The id column names the cluster structure; require it even
        // though the rewrite itself is per-tuple.
        table.column_index(&ra.id_column)?;
        let prob_idx = table.column_index(&ra.prob_column)?;
        let mut annotated = 0usize;
        let mut updated = Vec::new();
        for (i, row) in table.shared_rows().iter().enumerate() {
            if !matches(row)? {
                continue;
            }
            annotated += 1;
            // Keep the probability column uniformly FLOAT-typed so view
            // state matching stays bit-exact.
            let v = match value.eval(&row[..])? {
                Value::Int(n) => Value::Float(n as f64),
                other => other,
            };
            if v != row[prob_idx] {
                let mut new_row = row.clone();
                Arc::make_mut(&mut new_row)[prob_idx] = v;
                updated.push((i, Some(new_row)));
            }
        }
        Ok((annotated, changes(updated)))
    }

    /// `APPLY CROSSREF xref (key, id) TO table (key, id)`: set every row's
    /// cluster identifier from the cross-reference mapping of its key. The
    /// count is the number of distinct clusters assigned.
    fn plan_crossref(&self, ax: &ApplyCrossref) -> Result<(usize, Edit)> {
        if ax.xref_table.starts_with(HIDDEN_PREFIX) || self.views.contains_key(&ax.xref_table) {
            return Err(EngineError::bind(format!(
                "{:?} cannot serve as a cross-reference table",
                ax.xref_table
            )));
        }
        let (ids, clusters) = conquer_storage::resolve_crossref(
            &self.catalog,
            &ax.table,
            &ax.key_column,
            &ax.xref_table,
            &ax.xref_key_column,
            &ax.xref_id_column,
        )?;
        let table = self.catalog.table(&ax.table)?;
        let id_idx = table.column_index(&ax.id_column)?;
        let updated = table
            .shared_rows()
            .iter()
            .zip(ids)
            .enumerate()
            .filter(|(_, (row, id))| row[id_idx] != *id)
            .map(|(i, (row, id))| {
                let mut new_row = row.clone();
                Arc::make_mut(&mut new_row)[id_idx] = id;
                (i, Some(new_row))
            })
            .collect();
        Ok((clusters, changes(updated)))
    }

    /// Apply a planned change to `table` and fold it into every view
    /// defined over the table: the one place a DML statement mutates the
    /// catalog. A table no view reads is edited in place; a refused edit
    /// changes nothing. Otherwise the edit and each view's fold go into
    /// `next`, a clone sharing every table with `self.catalog`, which
    /// becomes the catalog only when all of them succeed: base change and
    /// view maintenance land together or not at all, and so do the views'
    /// counters. Every view's delta queries read one query-local catalog,
    /// [`view::delta_catalog`], built from `next` after the base edit; no
    /// view reads a view, so no fold changes what they read. An edit that
    /// selects no row asks for no mutable access, so the table stays
    /// shared with the version the statement started from. Every change
    /// goes through [`Catalog::apply`], so a durable commit logs the
    /// edited rows, not the tables around them.
    fn apply_edit(&mut self, table: &str, edit: Edit) -> Result<()> {
        if edit.is_empty() {
            return Ok(());
        }
        let views: Vec<&ViewDef> = self
            .views
            .values()
            .filter(|v| v.references(table))
            .collect();
        if views.is_empty() {
            self.catalog.apply(table, edit)?;
            return Ok(());
        }
        let mut next = self.catalog.clone();
        let old = self.catalog.table(table)?;
        let delta = view::delta_table(old, next.apply(table, edit)?)?;
        if delta.is_empty() {
            self.catalog = next;
            return Ok(());
        }
        let self_join = views.iter().any(|v| v.occurrences(table).nth(1).is_some());
        let local = view::delta_catalog(&next, delta, self_join.then_some(old))?;
        for v in views {
            let mut fold = view::Fold::new(v, Some(&next))?;
            let mut partials = 0usize;
            view::delta_queries(self, &local, v, table, |partial| {
                partials += 1;
                fold.push(partial)
            })?;
            // A delta whose rows join nothing contributes nothing: the
            // view's two tables stay as they are, and out of the commit.
            if partials > 0 {
                let (contents, state) = fold.splice()?;
                next.apply(&v.name, contents)?;
                next.apply(&v.state_table(), state)?;
            }
        }
        self.catalog = next;
        for v in self.views.values_mut().filter(|v| v.references(table)) {
            v.deltas_applied += 1;
        }
        Ok(())
    }

    /// `CREATE MATERIALIZED VIEW`: check maintainability (typed refusal
    /// otherwise), evaluate the view from scratch, and install its contents
    /// and state tables (the latter carrying the definition).
    fn create_view(&mut self, cv: &CreateView) -> Result<ExecOutcome> {
        if cv.name.starts_with(HIDDEN_PREFIX) {
            return Err(EngineError::bind(format!(
                "view name {:?} collides with the hidden bookkeeping prefix",
                cv.name
            )));
        }
        if self.catalog.contains(&cv.name) {
            return Err(EngineError::Storage(
                conquer_storage::StorageError::TableExists(cv.name.clone()),
            ));
        }
        if let Some(t) = cv
            .query
            .from
            .iter()
            .find(|t| self.views.contains_key(&t.table))
        {
            return Err(EngineError::NotMaintainable(format!(
                "{:?} is itself a materialized view; views over views are not supported",
                t.table
            )));
        }
        let view = ViewDef::analyze(&self.catalog, &cv.name, cv.query.clone())
            .map_err(EngineError::NotMaintainable)?;
        let (contents, state) = view::recompute(self, &view)?;
        let rows = contents.len();
        self.catalog.add_table(contents)?;
        self.catalog.add_table(state)?;
        self.views.insert(view.name.clone(), view);
        Ok(ExecOutcome::CreatedView(rows))
    }

    /// `DROP MATERIALIZED VIEW`: remove contents and state (and with it
    /// the stored definition), and the in-memory definition.
    fn drop_view(&mut self, name: &str) -> Result<ExecOutcome> {
        if self.views.remove(name).is_none() {
            return Err(EngineError::bind(format!(
                "no materialized view named {name:?}"
            )));
        }
        self.catalog.drop_table(name)?;
        self.catalog.drop_table(&view::state_table_name(name))?;
        Ok(ExecOutcome::DroppedView)
    }

    /// `REFRESH MATERIALIZED VIEW`: rebuild from scratch. Byte-identical
    /// to the incrementally maintained tables (the maintenance property),
    /// so a refresh is an equivalence check made durable, not a repair of
    /// expected drift.
    fn refresh_view(&mut self, name: &str) -> Result<ExecOutcome> {
        let Some(mut view) = self.views.get(name).cloned() else {
            return Err(EngineError::bind(format!(
                "no materialized view named {name:?}"
            )));
        };
        let (contents, state) = view::recompute(self, &view)?;
        let rows = contents.len();
        self.catalog.replace_table(contents);
        self.catalog.replace_table(state);
        view.refreshes += 1;
        self.views.insert(view.name.clone(), view);
        Ok(ExecOutcome::RefreshedView(rows))
    }

    /// Is `name` a materialized view?
    pub fn is_view(&self, name: &str) -> bool {
        self.views.contains_key(name)
    }

    /// The materialized views, in name order.
    pub fn views(&self) -> impl Iterator<Item = &ViewDef> {
        self.views.values()
    }

    /// Maintenance statistics of every view (counters since this handle
    /// opened + current group counts), in name order.
    pub fn view_stats(&self) -> Vec<ViewStats> {
        self.views
            .values()
            .map(|v| ViewStats {
                name: v.name.clone(),
                rows: self.catalog.table(&v.name).map_or(0, |t| t.len()),
                deltas_applied: v.deltas_applied,
                refreshes: v.refreshes,
            })
            .collect()
    }
}

/// An edit that removes or replaces the rows at these ascending positions.
fn changes(changed: Vec<(usize, Option<SharedRow>)>) -> Edit {
    Edit {
        changed,
        ..Edit::default()
    }
}

/// Evaluate a constant expression (INSERT values, RECLUSTER targets).
fn eval_const(e: &Expr) -> Result<Value> {
    bind_constant(e)?.eval(&Row::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use conquer_storage::wal::WalOp;

    fn query(db: &Database, sql: &str) -> Result<QueryResult> {
        db.prepare(sql)?.query(db)
    }

    fn execute(db: &mut Database, sql: &str) -> Result<ExecOutcome> {
        db.prepare(sql)?.run(db)
    }

    /// Run `sql` and name the tables it changed: `~name` for a table it
    /// changed only by edits (what a durable commit logs as an edit
    /// frame), `+name` for one the catalog afterwards holds anew or
    /// rebuilt (a put), `-name` for one it lost (a drop).
    fn run_and_diff(db: &mut Database, sql: &str) -> (Result<ExecOutcome>, Vec<String>) {
        let base = db.catalog().clone();
        let out = execute(db, sql);
        (out, change_set(db.catalog(), &base))
    }

    fn change_set(next: &Catalog, base: &Catalog) -> Vec<String> {
        let mut names: Vec<String> = next
            .changes_since(base)
            .iter()
            .map(|op| match op {
                WalOp::Put(t) => format!("+{}", t.name()),
                WalOp::Edit(name, _) => format!("~{name}"),
                WalOp::Drop(name) => format!("-{name}"),
            })
            .collect();
        names.sort();
        names
    }

    fn sample() -> Database {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE customer (id TEXT, name TEXT, balance INTEGER, prob DOUBLE);
             INSERT INTO customer VALUES
               ('c1', 'John', 20000, 0.7),
               ('c1', 'John', 30000, 0.3),
               ('c2', 'Mary', 27000, 0.2),
               ('c2', 'Marion', 5000, 0.8);
             CREATE TABLE orders (id TEXT, cidfk TEXT, quantity INTEGER, prob DOUBLE);
             INSERT INTO orders VALUES
               ('o1', 'c1', 3, 1.0),
               ('o2', 'c1', 2, 0.5),
               ('o2', 'c2', 5, 0.5);",
        )
        .unwrap();
        db
    }

    #[test]
    fn create_insert_select_roundtrip() {
        let db = sample();
        let r = query(&db, "SELECT name FROM customer WHERE balance > 10000").unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn filter_and_projection() {
        let db = sample();
        let r = query(
            &db,
            "SELECT id, balance * 2 AS dbl FROM customer WHERE name = 'Marion'",
        )
        .unwrap();
        assert_eq!(r.columns, vec!["id", "dbl"]);
        assert_eq!(r.rows, vec![vec!["c2".into(), Value::Int(10000)]]);
    }

    #[test]
    fn equi_join() {
        let db = sample();
        let r = query(
            &db,
            "SELECT o.id, c.name FROM orders o, customer c \
                 WHERE o.cidfk = c.id AND c.balance > 25000",
        )
        .unwrap();
        // c1/30000 matches o1 and o2; c2/27000 matches o2.
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn grouping_and_sum_of_products() {
        // The paper's Example 6 rewriting executes end-to-end.
        let db = sample();
        let r = query(
            &db,
            "SELECT o.id, c.id, SUM(o.prob * c.prob) AS p \
                 FROM orders o, customer c \
                 WHERE o.cidfk = c.id AND c.balance > 10000 \
                 GROUP BY o.id, c.id \
                 ORDER BY o.id, c.id",
        )
        .unwrap();
        assert_eq!(r.len(), 3);
        // (o1,c1): 1.0*0.7 + 1.0*0.3 = 1.0
        assert_eq!(r.value(0, "p"), Some(&Value::Float(1.0)));
        // (o2,c1): 0.5*0.7 + 0.5*0.3 = 0.5
        assert_eq!(r.value(1, "p"), Some(&Value::Float(0.5)));
        // (o2,c2): 0.5*0.2 = 0.1
        match r.value(2, "p") {
            Some(Value::Float(x)) => assert!((x - 0.1).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn order_by_desc_and_limit() {
        let db = sample();
        let r = query(
            &db,
            "SELECT name, balance FROM customer ORDER BY balance DESC LIMIT 2",
        )
        .unwrap();
        assert_eq!(r.rows[0][1], Value::Int(30000));
        assert_eq!(r.rows[1][1], Value::Int(27000));
    }

    #[test]
    fn distinct() {
        let db = sample();
        let r = query(&db, "SELECT DISTINCT name FROM customer").unwrap();
        assert_eq!(r.len(), 3); // John, Mary, Marion
    }

    #[test]
    fn count_star_on_empty_filter() {
        let db = sample();
        let r = query(&db, "SELECT COUNT(*) FROM customer WHERE balance > 999999").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn group_by_with_having() {
        let db = sample();
        let r = query(
            &db,
            "SELECT id, COUNT(*) AS n FROM customer GROUP BY id \
                 HAVING COUNT(*) > 1 ORDER BY id",
        )
        .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.value(0, "n"), Some(&Value::Int(2)));
    }

    #[test]
    fn insert_with_explicit_columns_fills_nulls() {
        let mut db = sample();
        execute(
            &mut db,
            "INSERT INTO customer (id, name) VALUES ('c9', 'Zoe')",
        )
        .unwrap();
        let r = query(&db, "SELECT balance FROM customer WHERE id = 'c9'").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Null]]);
    }

    #[test]
    fn insert_arity_mismatch_rejected() {
        let mut db = sample();
        let err = execute(&mut db, "INSERT INTO customer (id, name) VALUES ('c9')").unwrap_err();
        assert!(err.to_string().contains("values"), "{err}");
    }

    #[test]
    fn constant_arithmetic_in_insert() {
        let mut db = Database::new();
        execute(&mut db, "CREATE TABLE t (a INTEGER, b DOUBLE)").unwrap();
        execute(&mut db, "INSERT INTO t VALUES (2 + 3 * 4, 1.0 / 4)").unwrap();
        let r = query(&db, "SELECT a, b FROM t").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(14), Value::Float(0.25)]]);
    }

    #[test]
    fn cross_join_when_unconnected() {
        let db = sample();
        let r = query(&db, "SELECT c.id, o.id FROM customer c, orders o").unwrap();
        assert_eq!(r.len(), 12);
    }

    #[test]
    fn query_rejects_ddl() {
        let db = sample();
        assert!(query(&db, "CREATE TABLE x (a INTEGER)").is_err());
    }

    /// The `QUERY PLAN` rows of an `EXPLAIN [ANALYZE]`, one line each.
    fn explain(db: &Database, sql: &str) -> String {
        let plan = query(db, sql).unwrap();
        let lines: Vec<String> = plan.rows.iter().map(|row| row[0].to_string()).collect();
        lines.join("\n")
    }

    #[test]
    fn explain_produces_tree() {
        let db = sample();
        let text = explain(
            &db,
            "EXPLAIN SELECT o.id FROM orders o, customer c WHERE o.cidfk = c.id",
        );
        assert!(text.contains("HashJoin"), "{text}");
        assert!(text.contains("Scan"), "{text}");
        // A product-sum is named, so a reader sees which path runs; any
        // other aggregate is a bare `HashAggregate`.
        let sum = |agg: &str| {
            explain(
                &db,
                &format!(
                    "EXPLAIN SELECT o.id, {agg} FROM orders o, customer c \
                     WHERE o.cidfk = c.id GROUP BY o.id"
                ),
            )
        };
        let text = sum("SUM(o.prob * c.prob)");
        assert!(
            text.starts_with("Project\n  HashAggregate (SUM of 2 DOUBLE factors)\n"),
            "{text}"
        );
        let text = sum("SUM(o.quantity * c.prob)");
        assert!(text.starts_with("Project\n  HashAggregate\n"), "{text}");
    }

    #[test]
    fn explain_statement_returns_query_plan_rows() {
        let mut db = sample();
        let out = execute(
            &mut db,
            "EXPLAIN SELECT o.id FROM orders o, customer c WHERE o.cidfk = c.id",
        )
        .unwrap();
        let ExecOutcome::Rows(r) = out else {
            panic!("EXPLAIN must produce rows")
        };
        assert_eq!(r.columns, vec!["QUERY PLAN"]);
        let text = r
            .rows
            .iter()
            .map(|row| row[0].to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("HashJoin"), "{text}");
        assert!(
            !text.contains("rows="),
            "plain EXPLAIN must not execute: {text}"
        );
    }

    #[test]
    fn explain_analyze_executes_and_reports() {
        let db = sample();
        let text = explain(
            &db,
            "EXPLAIN ANALYZE SELECT o.id, SUM(o.prob * c.prob) FROM orders o, customer c \
             WHERE o.cidfk = c.id GROUP BY o.id",
        );
        assert!(
            text.contains("HashAggregate (SUM of 2 DOUBLE factors) (rows="),
            "{text}"
        );
        assert!(text.contains("HashJoin"), "{text}");
        assert!(text.contains("rows="), "{text}");
        assert!(text.contains("Execution time"), "{text}");
    }

    #[test]
    fn explain_names_the_run_key_and_analyze_reports_runs() {
        // `orders` (3 rows) builds and `customer` (4) probes, so the join
        // keeps `customer`'s scan order: grouped by `c.id`, the aggregate
        // works in runs of it.
        let mut db = sample();
        let sql = "SELECT c.id, SUM(o.prob * c.prob) FROM orders o, customer c \
                   WHERE o.cidfk = c.id GROUP BY c.id";
        let text = explain(&db, &format!("EXPLAIN {sql}"));
        assert!(
            text.starts_with(
                "Project\n  HashAggregate (runs of id; SUM of 2 DOUBLE factors)\n    \
                 HashJoin on 1 key(s)\n      Scan customer [c]\n      Scan orders [o]"
            ),
            "{text}"
        );
        // The plan fixes the spine the run key is found on.
        let plan = db.plan(&conquer_sql::parse_select(sql).unwrap()).unwrap();
        assert_eq!(plan.relations[plan.join.spine()].binding, "c");
        let text = explain(&db, &format!("EXPLAIN ANALYZE {sql}"));
        assert!(
            text.contains("HashAggregate (runs of id; SUM of 2 DOUBLE factors) (rows=2 ")
                && text.contains(" runs=2)\n"),
            "{text}"
        );
        // A `c1` tuple after the `c2` run: joined tuples 1–4 are `c1`'s,
        // 5–6 `c2`'s, and tuple 7 reopens `c1`, so the aggregate hashes
        // from there on. The answers are the same either way.
        let before = query(&db, sql).unwrap();
        execute(
            &mut db,
            "INSERT INTO customer VALUES ('c1', 'Jon', 10, 0.0)",
        )
        .unwrap();
        let text = explain(&db, &format!("EXPLAIN ANALYZE {sql}"));
        assert!(text.contains(" runs=2 hashed_at=7)\n"), "{text}");
        assert_eq!(query(&db, sql).unwrap().rows, before.rows);
        // Grouped by a column of the build side there is no run key.
        let by_build = "SELECT o.id, SUM(o.prob * c.prob) FROM orders o, customer c \
                        WHERE o.cidfk = c.id GROUP BY o.id";
        let text = explain(&db, &format!("EXPLAIN {by_build}"));
        assert!(
            text.contains("HashAggregate (SUM of 2 DOUBLE factors)\n"),
            "{text}"
        );
    }

    #[test]
    fn like_and_in_filters() {
        let db = sample();
        let r = query(&db, "SELECT name FROM customer WHERE name LIKE 'Mar%'").unwrap();
        assert_eq!(r.len(), 2);
        let r = query(
            &db,
            "SELECT name FROM customer WHERE balance IN (5000, 27000) ORDER BY name",
        )
        .unwrap();
        assert_eq!(r.len(), 2);
    }

    /// The paper's Example-6 rewritten query as a maintained view.
    const EX6_VIEW: &str = "CREATE MATERIALIZED VIEW v AS \
         SELECT o.id AS oid, c.id AS cid, SUM(o.prob * c.prob) AS p \
         FROM orders o, customer c \
         WHERE o.cidfk = c.id AND c.balance > 10000 \
         GROUP BY o.id, c.id";

    fn view_rows(db: &Database) -> Vec<Vec<Value>> {
        db.catalog().table("v").unwrap().rows().to_vec()
    }

    fn recomputed_rows(db: &mut Database) -> Vec<Vec<Value>> {
        execute(db, "REFRESH MATERIALIZED VIEW v").unwrap();
        view_rows(db)
    }

    #[test]
    fn view_materializes_and_serves_without_base_plan() {
        let mut db = sample();
        let out = execute(&mut db, EX6_VIEW).unwrap();
        assert_eq!(out, ExecOutcome::CreatedView(3));
        // Served by a plain scan of the contents table.
        let r = query(&db, "SELECT oid, cid, p FROM v").unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.value(0, "p"), Some(&Value::Float(1.0)));
        let plan = explain(&db, "EXPLAIN SELECT oid, cid, p FROM v");
        assert!(plan.contains("Scan"), "{plan}");
        assert!(
            !plan.contains("Join"),
            "view lookups must not re-join: {plan}"
        );
    }

    #[test]
    fn dml_maintains_view_identically_to_recompute() {
        let mut db = sample();
        execute(&mut db, EX6_VIEW).unwrap();
        execute(&mut db, "INSERT INTO orders VALUES ('o3', 'c2', 9, 1.0)").unwrap();
        let maintained = view_rows(&db);
        assert_eq!(maintained, recomputed_rows(&mut db));
        execute(&mut db, "DELETE FROM customer WHERE name = 'Marion'").unwrap();
        let maintained = view_rows(&db);
        assert_eq!(maintained, recomputed_rows(&mut db));
        execute(&mut db, "UPDATE customer SET prob = 0.25 WHERE id = 'c1'").unwrap();
        let maintained = view_rows(&db);
        assert_eq!(maintained, recomputed_rows(&mut db));
        // Group retraction is count-backed: deleting every c1 order
        // removes the (o1,c1)/(o2,c1) groups entirely.
        execute(&mut db, "DELETE FROM orders WHERE cidfk = 'c1'").unwrap();
        let maintained = view_rows(&db);
        assert_eq!(maintained, recomputed_rows(&mut db));
    }

    #[test]
    fn delta_that_joins_nothing_leaves_the_view_tables_alone() {
        let mut db = sample();
        execute(&mut db, EX6_VIEW).unwrap();
        let before = view_rows(&db);
        let deltas = db.view_stats()[0].deltas_applied;
        // 'c9' is no customer: the new order contributes no join row.
        let (out, changed) =
            run_and_diff(&mut db, "INSERT INTO orders VALUES ('o9', 'c9', 1, 1.0)");
        assert_eq!(out.unwrap(), ExecOutcome::Inserted(1));
        assert_eq!(changed, ["~orders"]);
        assert_eq!(db.view_stats()[0].deltas_applied, deltas + 1);
        assert_eq!(view_rows(&db), before);
        assert_eq!(view_rows(&db), recomputed_rows(&mut db));
    }

    #[test]
    fn recluster_renormalizes_and_maintains() {
        let mut db = sample();
        execute(&mut db, EX6_VIEW).unwrap();
        let out = execute(
            &mut db,
            "RECLUSTER customer (id, prob) TO 'c1' WHERE name = 'Mary'",
        )
        .unwrap();
        assert_eq!(out, ExecOutcome::Reclustered(1));
        // Both affected clusters sum to 1 again (Definition 2).
        for cluster in ["c1", "c2"] {
            let r = query(
                &db,
                &format!("SELECT SUM(prob) AS s FROM customer WHERE id = '{cluster}'"),
            )
            .unwrap();
            let Some(Value::Float(s)) = r.value(0, "s") else {
                panic!("no sum for {cluster}")
            };
            assert!((s - 1.0).abs() < 1e-12, "{cluster} sums to {s}");
        }
        assert_eq!(view_rows(&db), recomputed_rows(&mut db));
    }

    #[test]
    fn recluster_normalizes_the_same_in_any_row_order() {
        // Cluster 'k' ends up as {1.0, 1e-16, 1e-16}. Folded in row order
        // its mass is 1.0 one way round and 1.0000000000000002 the other.
        let reclustered = |rows: &str| {
            let mut db = Database::new();
            execute(&mut db, "CREATE TABLE t (id TEXT, tag TEXT, prob DOUBLE)").unwrap();
            execute(&mut db, &format!("INSERT INTO t VALUES {rows}")).unwrap();
            execute(&mut db, "RECLUSTER t (id, prob) TO 'k' WHERE tag = 'z'").unwrap();
            let r = query(&db, "SELECT tag, prob FROM t ORDER BY tag").unwrap();
            let bits = |row: &Row| match row[..] {
                [Value::Text(ref tag), Value::Float(p)] => (tag.clone(), p.to_bits()),
                ref other => panic!("{other:?}"),
            };
            r.rows.iter().map(bits).collect::<Vec<_>>()
        };
        let forward = reclustered("('k', 'x', 1.0), ('k', 'y', 1e-16), ('m', 'z', 1e-16)");
        let backward = reclustered("('m', 'z', 1e-16), ('k', 'y', 1e-16), ('k', 'x', 1.0)");
        assert_eq!(forward, backward);
        assert_eq!(forward[0].1, (1.0 / (1.0 + 2e-16f64)).to_bits());
    }

    #[test]
    fn reannotate_rederives_affected_products() {
        let mut db = sample();
        execute(&mut db, EX6_VIEW).unwrap();
        let out = execute(
            &mut db,
            "REANNOTATE customer (id, prob) SET prob / 2 WHERE id = 'c1'",
        )
        .unwrap();
        assert_eq!(out, ExecOutcome::Reannotated(2));
        let maintained = view_rows(&db);
        assert_eq!(maintained[0][2], Value::Float(0.5)); // (o1,c1): 1.0*(0.35+0.15)
        assert_eq!(maintained, recomputed_rows(&mut db));
    }

    #[test]
    fn non_maintainable_views_are_refused_with_typed_error() {
        let mut db = sample();
        let err = execute(
            &mut db,
            "CREATE MATERIALIZED VIEW v AS SELECT DISTINCT name FROM customer",
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::NotMaintainable(_)), "{err}");
        assert_eq!(err.kind(), crate::ErrorKind::NotRewritable);
        // Nothing was half-created.
        assert!(!db.catalog().contains("v"));
        assert!(!db.catalog().contains(&view::state_table_name("v")));
    }

    #[test]
    fn views_guard_their_tables() {
        let mut db = sample();
        execute(&mut db, EX6_VIEW).unwrap();
        for sql in [
            "INSERT INTO v VALUES ('x', 'y', 1.0)",
            "DELETE FROM v",
            "UPDATE v SET p = 0.0",
            "DROP TABLE v",
            "DELETE FROM __conquer_view_state_v",
            "DROP TABLE customer",
            "CREATE MATERIALIZED VIEW w AS SELECT oid, SUM(p) AS q FROM v GROUP BY oid",
        ] {
            let err = execute(&mut db, sql).unwrap_err();
            assert!(
                matches!(err, EngineError::Bind(_) | EngineError::NotMaintainable(_)),
                "{sql}: {err}"
            );
        }
        // DROP MATERIALIZED VIEW releases the base table.
        execute(&mut db, "DROP MATERIALIZED VIEW v").unwrap();
        assert!(!db.catalog().contains("v"));
        execute(&mut db, "DROP TABLE customer").unwrap();
    }

    #[test]
    fn create_table_refuses_hidden_column_names() {
        let mut db = Database::new();
        for sql in [
            "CREATE TABLE w (id TEXT, __conquer_added BOOLEAN)",
            "CREATE TABLE w (__CONQUER_count INTEGER)",
        ] {
            let err = execute(&mut db, sql).unwrap_err();
            assert!(matches!(err, EngineError::Bind(_)), "{sql}: {err}");
            assert!(!db.catalog().contains("w"), "{sql}");
        }
    }

    #[test]
    fn a_write_no_view_reads_edits_its_table_in_place() {
        let rows: Vec<String> = (0..10_000).map(|i| format!("({i}, 0.5)")).collect();
        let mut db = Database::new();
        db.execute_script(&format!(
            "CREATE TABLE t (n INTEGER, prob DOUBLE);
             INSERT INTO t VALUES {};
             CREATE TABLE u (n INTEGER, prob DOUBLE);
             CREATE MATERIALIZED VIEW v AS SELECT n, SUM(prob) AS p FROM u GROUP BY n",
            rows.join(", ")
        ))
        .unwrap();
        let at = |db: &Database| std::sync::Arc::as_ptr(db.catalog().shared("t").unwrap());
        let before = at(&db);
        execute(&mut db, "INSERT INTO t VALUES (10000, 0.25)").unwrap();
        assert_eq!(at(&db), before, "a one-row INSERT copied the table");
        assert_eq!(db.catalog().table("t").unwrap().len(), 10_001);
        // A statement that fails in its second row copies nothing either,
        // though the catalog it is diffed against shares the table.
        let (out, changed) = run_and_diff(&mut db, "INSERT INTO t VALUES (1, 0.5), ('x', 0.5)");
        out.unwrap_err();
        assert_eq!(changed, Vec::<String>::new());
        assert_eq!(at(&db), before);
    }

    /// A published version shares every row a write does not name: a
    /// one-row UPDATE under a maintained view allocates the updated row
    /// and the view's two folded rows, whatever the table's size.
    #[test]
    fn a_write_allocates_only_the_rows_it_names() {
        for n in [100, 10_000] {
            let rows: Vec<String> = (0..n).map(|i| format!("({i}, 0.5)")).collect();
            let mut db = Database::new();
            db.execute_script(&format!(
                "CREATE TABLE t (n INTEGER, prob DOUBLE);
                 INSERT INTO t VALUES {};
                 CREATE MATERIALIZED VIEW v AS SELECT n, SUM(prob) AS p FROM t GROUP BY n",
                rows.join(", ")
            ))
            .unwrap();
            let shared = crate::shared::SharedDatabase::new(db);
            let old = shared.snapshot();
            shared
                .session()
                .execute("UPDATE t SET prob = 0.25 WHERE n = 7")
                .unwrap();
            let new = shared.snapshot();
            let unshared: Vec<usize> = ["t", "v", "__conquer_view_state_v"]
                .iter()
                .map(|name| {
                    let was = old.db().catalog().table(name).unwrap();
                    let now = new.db().catalog().table(name).unwrap();
                    assert_eq!((was.len(), now.len()), (n, n), "{name}");
                    let pairs = was.shared_rows().iter().zip(now.shared_rows());
                    pairs.filter(|(a, b)| !Arc::ptr_eq(a, b)).count()
                })
                .collect();
            // The edit names one base row; the fold one contents row and
            // one state row.
            assert_eq!(unshared, [1, 1, 1], "N = {n}");
            assert_eq!(
                new.db().catalog().table("t").unwrap().value(7, 1),
                &Value::Float(0.25)
            );
        }
    }

    #[test]
    fn views_survive_save_and_load() {
        let dir = std::env::temp_dir().join(format!("conquer_view_persist_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut db = sample();
        execute(&mut db, EX6_VIEW).unwrap();
        execute(&mut db, "INSERT INTO orders VALUES ('o3', 'c2', 9, 1.0)").unwrap();
        let before = view_rows(&db);
        conquer_storage::save_catalog(db.catalog(), &dir).unwrap();
        let mut reloaded = Database::from_catalog(conquer_storage::load_catalog(&dir).unwrap());
        assert!(reloaded.is_view("v"));
        assert_eq!(view_rows(&reloaded), before);
        // Maintenance keeps working after rehydration.
        execute(&mut reloaded, "DELETE FROM orders WHERE id = 'o3'").unwrap();
        let maintained = view_rows(&reloaded);
        assert_eq!(maintained, recomputed_rows(&mut reloaded));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `conquer-wal v3` log kept each view's definition and counters in
    /// the `__conquer_views` registry. A durable handle opens one with the
    /// view rehydrated and its counters at 0, leaves a v4 log without the
    /// registry on disk, and keeps maintaining the view.
    #[test]
    fn a_v3_log_with_a_view_opens_migrated_and_keeps_maintaining_it() {
        let dir = std::env::temp_dir().join(format!("conquer_view_v3_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = sample();
        execute(&mut db, EX6_VIEW).unwrap();
        execute(&mut db, "INSERT INTO orders VALUES ('o3', 'c2', 9, 1.0)").unwrap();
        let sql = db.views().next().unwrap().sql();
        // The catalog as v3 wrote it: a bare state table, and the
        // definition with nonzero counters in the registry.
        let mut catalog = db.catalog().clone();
        let stored = catalog.table("__conquer_view_state_v").unwrap();
        let mut state = conquer_storage::Table::new(stored.name(), stored.schema().clone());
        state.insert_all(stored.rows().to_vec()).unwrap();
        catalog.replace_table(state);
        let (text, int) = (
            conquer_storage::DataType::Text,
            conquer_storage::DataType::Int,
        );
        let columns = [
            ("name", text),
            ("sql", text),
            ("deltas_applied", int),
            ("refreshes", int),
        ];
        let registry = Schema::from_pairs(columns).unwrap();
        let row = vec![
            Value::text("v"),
            Value::text(&sql),
            Value::Int(4),
            Value::Int(2),
        ];
        catalog
            .create_table("__conquer_views", registry)
            .unwrap()
            .insert(row)
            .unwrap();
        conquer_storage::save_catalog(&catalog, &dir).unwrap();
        // Only the header frame's magic, and so its checksum, tell a v3
        // log from a v4 one: `[u32 len][u64 fnv1a64][0, magic, u64 seq]`.
        let log = dir.join(conquer_storage::wal::WAL_FILE);
        let mut bytes = std::fs::read(&log).unwrap();
        bytes[13..27].copy_from_slice(b"conquer-wal v3");
        let sum = bytes[12..35]
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h: u64, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        bytes[4..12].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&log, &bytes).unwrap();

        let config = crate::SharedConfig::default();
        let (shared, report) = crate::SharedDatabase::open_durable(&dir, config).unwrap();
        assert!(report.is_clean(), "{report:?}");
        let stats = shared.snapshot().db().view_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!((stats[0].deltas_applied, stats[0].refreshes), (0, 0));
        shared
            .session()
            .execute("DELETE FROM orders WHERE id = 'o3'")
            .unwrap();
        let mut db = shared.snapshot().db().clone();
        assert_eq!(db.view_stats()[0].deltas_applied, 1);
        let maintained = view_rows(&db);
        assert_eq!(maintained, recomputed_rows(&mut db));
        drop(shared);
        let bytes = std::fs::read(&log).unwrap();
        assert_eq!(&bytes[13..27], b"conquer-wal v4");
        let registry = b"__conquer_views";
        assert!(!bytes.windows(registry.len()).any(|w| w == registry));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn apply_crossref_statement_maintains_views() {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE t (id TEXT, key INTEGER, prob DOUBLE);
             INSERT INTO t VALUES ('', 1, 0.5), ('', 2, 0.5), ('', 3, 1.0);
             CREATE TABLE xr (orig INTEGER, cluster TEXT);
             INSERT INTO xr VALUES (1, 'a'), (2, 'a'), (3, 'b');
             CREATE MATERIALIZED VIEW vz AS SELECT id, SUM(prob) AS p FROM t GROUP BY id",
        )
        .unwrap();
        let out = execute(&mut db, "APPLY CROSSREF xr (orig, cluster) TO t (key, id)").unwrap();
        assert_eq!(out, ExecOutcome::CrossrefApplied(2));
        let r = query(&db, "SELECT id, p FROM vz").unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::text("a"), Value::Float(1.0)],
                vec![Value::text("b"), Value::Float(1.0)],
            ]
        );
        let stats = db.view_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].deltas_applied, 1);
    }

    #[test]
    fn self_join_views_telescope_correctly() {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE t (id TEXT, n INTEGER, prob DOUBLE);
             INSERT INTO t VALUES ('a', 1, 0.5), ('a', 2, 0.5), ('b', 1, 1.0);
             CREATE MATERIALIZED VIEW sj AS \
               SELECT x.id AS xid, y.id AS yid, SUM(x.prob * y.prob) AS p \
               FROM t x, t y WHERE x.n = y.n GROUP BY x.id, y.id;
             CREATE MATERIALIZED VIEW sj3 AS \
               SELECT x.id AS xid, y.id AS yid, z.id AS zid, \
                      SUM(x.prob * y.prob * z.prob) AS p \
               FROM t x, t y, t z WHERE x.n = y.n AND y.n = z.n \
               GROUP BY x.id, y.id, z.id",
        )
        .unwrap();
        // `sj3`'s middle occurrence reads (new, Δ, old): the live table
        // before the delta slot, the pre-statement image after it.
        for stmt in [
            "INSERT INTO t VALUES ('b', 2, 0.25)",
            "UPDATE t SET prob = 0.75 WHERE id = 'a' AND n = 1",
            "DELETE FROM t WHERE id = 'b' AND n = 1",
        ] {
            execute(&mut db, stmt).unwrap();
            for view in ["sj", "sj3"] {
                let maintained = db.catalog().table(view).unwrap().rows().to_vec();
                execute(&mut db, &format!("REFRESH MATERIALIZED VIEW {view}")).unwrap();
                let recomputed = db.catalog().table(view).unwrap().rows().to_vec();
                assert_eq!(maintained, recomputed, "{view} after {stmt}");
            }
        }
    }

    #[test]
    fn failed_delta_query_leaves_no_hidden_table_and_fails_the_statement_whole() {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE t (id TEXT, n INTEGER, prob DOUBLE);
             INSERT INTO t VALUES ('a', 1, 0.5), ('a', 2, 0.5), ('b', 1, 1.0);
             CREATE MATERIALIZED VIEW sj AS \
               SELECT x.id AS xid, y.id AS yid, SUM(x.prob * y.prob) AS p \
               FROM t x, t y WHERE x.n = y.n GROUP BY x.id, y.id",
        )
        .unwrap();
        // Too little memory to build the delta join, and no disk to spill.
        db.set_limits(ExecLimits::none().with_mem_bytes(64).with_disk_bytes(0));
        let shared = crate::SharedDatabase::new(db.clone());

        // On the standalone database the statement never happened either:
        // not the base row, not a view fold, not a hidden table.
        let before = db.catalog().clone();
        let err = execute(&mut db, "INSERT INTO t VALUES ('b', 2, 0.25)").unwrap_err();
        assert_eq!(err.kind(), crate::ErrorKind::ResourceExhausted, "{err}");
        assert_eq!(change_set(db.catalog(), &before), Vec::<String>::new());
        assert_eq!(db.catalog().table("t").unwrap().len(), 3);

        // Through the shared handle the statement never happened.
        let before = shared.snapshot();
        let err = shared
            .session()
            .execute("INSERT INTO t VALUES ('b', 2, 0.25)")
            .unwrap_err();
        assert_eq!(err.kind(), crate::ErrorKind::ResourceExhausted, "{err}");
        assert_eq!(shared.epoch(), 0);
        let snap = shared.snapshot();
        assert_eq!(snap.db().catalog().table("t").unwrap().len(), 3);
        let sj = |snap: &crate::Snapshot| snap.db().catalog().table("sj").unwrap().rows().to_vec();
        assert_eq!(sj(&snap), sj(&before));

        // With the limit lifted the same statement, and a delete of its
        // row, maintain `sj` to exactly what REFRESH computes.
        db.set_limits(ExecLimits::none());
        for stmt in [
            "INSERT INTO t VALUES ('b', 2, 0.25)",
            "DELETE FROM t WHERE id = 'b' AND n = 2",
        ] {
            execute(&mut db, stmt).unwrap();
            let maintained = db.catalog().table("sj").unwrap().rows().to_vec();
            execute(&mut db, "REFRESH MATERIALIZED VIEW sj").unwrap();
            let recomputed = db.catalog().table("sj").unwrap().rows().to_vec();
            assert_eq!(maintained, recomputed, "sj after {stmt}");
        }
    }

    #[test]
    fn join_view_stays_identical_to_refresh_through_writes_to_both_sides() {
        let mut db = sample();
        execute(
            &mut db,
            "CREATE MATERIALIZED VIEW v AS \
             SELECT o.id AS oid, c.id AS cid, SUM(o.prob * c.prob) AS p \
             FROM orders o, customer c WHERE o.cidfk = c.id GROUP BY o.id, c.id",
        )
        .unwrap();
        for stmt in [
            "INSERT INTO orders VALUES ('o3', 'c2', 9, 1.0)",
            "UPDATE orders SET prob = 0.25 WHERE id = 'o2'",
            "DELETE FROM orders WHERE id = 'o1'",
            "INSERT INTO customer VALUES ('c2', 'Mae', 100, 0.5)",
            "UPDATE customer SET prob = 0.125 WHERE name = 'Mary'",
            "DELETE FROM customer WHERE name = 'John' AND balance = 20000",
        ] {
            execute(&mut db, stmt).unwrap();
            let maintained = view_rows(&db);
            assert_eq!(maintained, recomputed_rows(&mut db), "after {stmt}");
        }
    }

    #[test]
    fn deltas_hold_rows_as_stored() {
        // INTEGER 1 into a DOUBLE column: the table stores 1.0, and so
        // must the delta the views are maintained from.
        let schema = Schema::from_pairs([
            ("id", conquer_storage::DataType::Text),
            ("prob", conquer_storage::DataType::Float),
        ])
        .unwrap();
        let mut catalog = Catalog::new();
        catalog.create_table("t", schema).unwrap();
        let row = vec![Value::text("a"), Value::Int(1)];
        let old = catalog.clone();
        let insert = Edit {
            inserted: vec![(0, row.clone().into())],
            ..Edit::default()
        };
        let applied = catalog.apply("t", insert).unwrap();
        let delta = view::delta_table(old.table("t").unwrap(), applied).unwrap();
        let added = vec![Value::text("a"), Value::Float(1.0), Value::Bool(true)];
        assert_eq!(delta.rows(), [added]);
        // Overwriting it with the same number changes nothing.
        let old = catalog.clone();
        let applied = catalog
            .apply("t", changes(vec![(0, Some(row.into()))]))
            .unwrap();
        let delta = view::delta_table(old.table("t").unwrap(), applied).unwrap();
        assert!(delta.is_empty());

        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE t (id TEXT, prob DOUBLE);
             CREATE MATERIALIZED VIEW vz AS SELECT id, SUM(prob) AS p FROM t GROUP BY id;
             INSERT INTO t (id, prob) VALUES ('a', 1);
             UPDATE t SET prob = 1",
        )
        .unwrap();
        let maintained = db.catalog().table("vz").unwrap().rows().to_vec();
        assert_eq!(maintained, [vec![Value::text("a"), Value::Float(1.0)]]);
        execute(&mut db, "REFRESH MATERIALIZED VIEW vz").unwrap();
        assert_eq!(db.catalog().table("vz").unwrap().rows(), maintained);
    }

    #[test]
    fn reported_counts_on_a_match_that_changes_nothing() {
        // Updated / Reannotated count rows matched, Reclustered rows
        // moved, Deleted / Inserted rows removed / added, CrossrefApplied
        // distinct clusters — whether or not a cell changed.
        let mut db = sample();
        db.execute_script(
            "CREATE TABLE xr (name TEXT, cluster TEXT);
             INSERT INTO xr VALUES ('John', 'c1'), ('Mary', 'c2'), ('Marion', 'c2')",
        )
        .unwrap();
        execute(&mut db, EX6_VIEW).unwrap();
        let customer = db.catalog().table("customer").unwrap().rows().to_vec();
        let view = view_rows(&db);
        // Only the UPDATE plans a non-empty edit (two rows rewritten to
        // what they were); the rest name no row at all.
        for (sql, outcome, unshared) in [
            (
                "UPDATE customer SET balance = balance WHERE id = 'c1'",
                ExecOutcome::Updated(2),
                &["~customer"][..],
            ),
            (
                "REANNOTATE customer (id, prob) SET prob WHERE id = 'c2'",
                ExecOutcome::Reannotated(2),
                &[],
            ),
            (
                "RECLUSTER customer (id, prob) TO 'c1' WHERE id = 'c1'",
                ExecOutcome::Reclustered(0),
                &[],
            ),
            (
                "DELETE FROM customer WHERE balance < 0",
                ExecOutcome::Deleted(0),
                &[],
            ),
            (
                "INSERT INTO customer SELECT id, name, balance, prob FROM customer \
                 WHERE balance < 0",
                ExecOutcome::Inserted(0),
                &[],
            ),
            (
                "APPLY CROSSREF xr (name, cluster) TO customer (name, id)",
                ExecOutcome::CrossrefApplied(2),
                &[],
            ),
        ] {
            let (out, changed) = run_and_diff(&mut db, sql);
            assert_eq!(out.unwrap(), outcome, "{sql}");
            // Nothing changed, so no view was maintained; an edit that
            // names no row does not even unshare the table.
            assert_eq!(changed, unshared, "{sql}");
            assert_eq!(db.catalog().table("customer").unwrap().rows(), customer);
            assert_eq!(view_rows(&db), view);
        }
    }

    #[test]
    fn every_statement_kind_changes_exactly_the_tables_it_writes() {
        // What a durable commit logs is the change set between the version
        // a statement started from and the version it published.
        let shared = crate::SharedDatabase::new(sample());
        let session = shared.session();
        // A table a statement creates or rebuilds is logged whole (`+`),
        // rows it edits as edits (`~`).
        const STATE: &str = "+__conquer_view_state_v";
        const STATE_EDIT: &str = "~__conquer_view_state_v";
        const MAINTAINED: &[&str] = &["~customer", "~v", STATE_EDIT];
        for (sql, expected) in [
            ("CREATE TABLE xr (name TEXT, cluster TEXT)", &["+xr"][..]),
            (
                "INSERT INTO xr VALUES ('John', 'c1'), ('Mary', 'c2'), ('Marion', 'c2')",
                &["~xr"],
            ),
            (EX6_VIEW, &["+v", STATE]),
            // The six DML kinds, each moving a group of the view.
            (
                "INSERT INTO customer VALUES ('c2', 'Mae', 20000, 0.0)",
                MAINTAINED,
            ),
            (
                "UPDATE customer SET prob = 0.25 WHERE name = 'Mary'",
                MAINTAINED,
            ),
            ("DELETE FROM customer WHERE name = 'Mae'", MAINTAINED),
            (
                "RECLUSTER customer (id, prob) TO 'c1' WHERE name = 'Mary'",
                MAINTAINED,
            ),
            (
                "REANNOTATE customer (id, prob) SET prob / 2 WHERE id = 'c1'",
                MAINTAINED,
            ),
            (
                "APPLY CROSSREF xr (name, cluster) TO customer (name, id)",
                MAINTAINED,
            ),
            // A delta that joins nothing counts as applied and moves no group.
            (
                "INSERT INTO orders VALUES ('o9', 'c9', 1, 1.0)",
                &["~orders"],
            ),
            // A statement that selects no row still publishes its epoch.
            ("DELETE FROM customer WHERE balance < 0", &[]),
            ("REFRESH MATERIALIZED VIEW v", &["+v", STATE]),
            (
                "DROP MATERIALIZED VIEW v",
                &["-v", "-__conquer_view_state_v"],
            ),
            ("DROP TABLE xr", &["-xr"]),
        ] {
            let before = shared.snapshot();
            session.execute(sql).unwrap();
            let after = shared.snapshot();
            assert_eq!(after.epoch(), before.epoch() + 1, "{sql}");
            let mut expected = expected.to_vec();
            expected.sort_unstable();
            assert_eq!(
                change_set(after.db().catalog(), before.db().catalog()),
                expected,
                "{sql}"
            );
        }

        session.execute(EX6_VIEW).unwrap();
        // A failed statement changes nothing, through the shared handle
        // and on a standalone database alike.
        let mut db = shared.snapshot().db().clone();
        for sql in [
            // Fails in the planner, in the edit's second row, in a guard.
            "UPDATE customer SET balance = nope",
            "INSERT INTO customer VALUES ('c3', 'Ann', 1, 1.0), ('c3', 'Bo', 'much', 0.0)",
            "DROP TABLE customer",
        ] {
            let before = shared.snapshot();
            session.execute(sql).unwrap_err();
            let after = shared.snapshot();
            assert_eq!(after.epoch(), before.epoch(), "{sql}");
            let changed = change_set(after.db().catalog(), before.db().catalog());
            assert_eq!(changed, Vec::<String>::new(), "{sql}");
            let (out, changed) = run_and_diff(&mut db, sql);
            out.unwrap_err();
            assert_eq!(changed, Vec::<String>::new(), "standalone: {sql}");
        }
    }

    #[test]
    fn three_way_join_with_expression_projection() {
        let mut db = sample();
        db.execute_script(
            "CREATE TABLE nation (nid INTEGER, nname TEXT);
             INSERT INTO nation VALUES (1, 'CA'), (2, 'US');
             CREATE TABLE cn (cid TEXT, nid INTEGER);
             INSERT INTO cn VALUES ('c1', 1), ('c2', 2);",
        )
        .unwrap();
        let r = query(
            &db,
            "SELECT c.name, n.nname, c.balance / 1000 AS kbal \
                 FROM customer c, cn, nation n \
                 WHERE c.id = cn.cid AND cn.nid = n.nid AND c.balance >= 20000 \
                 ORDER BY kbal DESC",
        )
        .unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.rows[0][2], Value::Int(30));
    }
}
