//! The `Database` facade: catalog + end-to-end statement execution.

use std::collections::{BTreeMap, BTreeSet};

use conquer_sql::{
    parse_statement, parse_statements, CreateView, Delete, Expr, Insert, InsertSource, Reannotate,
    Recluster, SelectStatement, Statement, Update,
};
use conquer_storage::{Catalog, Row, Schema, Table, Value};

use crate::binder::{bind_constant, bind_select, bind_table_expr};
use crate::context::{ExecContext, ExecLimits};
use crate::error::EngineError;
use crate::exec::execute_plan;
use crate::expr::{BoundExpr, Offsets};
use crate::planner::{plan_select, Plan};
use crate::result::QueryResult;
use crate::view::{self, TableDelta, ViewDef, ViewStats, HIDDEN_PREFIX, VIEWS_META};
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
/// [`Database::set_limits`]); individual prepared statements can override
/// them (see [`Statement::set_limits`](crate::Statement::set_limits)).
/// Queries that exceed their memory budget spill to checksummed temp files
/// under [`Database::spill_dir`] (the OS temp directory by default).
#[derive(Debug, Clone)]
pub struct Database {
    catalog: Catalog,
    limits: ExecLimits,
    spill_dir: Option<std::path::PathBuf>,
    /// Materialized views by name, rehydrated from [`VIEWS_META`] on
    /// load. The catalog tables are the durable truth; this map is the
    /// parsed cache of their definitions.
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
    /// Materialized-view definitions persisted in the catalog (the
    /// `__conquer_views` registry) are rehydrated.
    pub fn from_catalog(catalog: Catalog) -> Self {
        let mut db = Database {
            catalog,
            limits: ExecLimits::from_env(),
            spill_dir: None,
            views: BTreeMap::new(),
        };
        db.rehydrate_views();
        db
    }

    /// Re-parse the view registry into the in-memory definition map. An
    /// entry whose stored SQL no longer analyzes is dropped from the map
    /// (its contents table still serves stale reads; `DROP MATERIALIZED
    /// VIEW` still removes it) — with the WAL writing registry and bases
    /// atomically this indicates corruption, so debug builds assert.
    fn rehydrate_views(&mut self) {
        self.views.clear();
        let Ok(meta) = self.catalog.table(VIEWS_META) else {
            return;
        };
        let entries: Vec<(String, String)> = meta
            .rows()
            .iter()
            .filter_map(|r| match (r.first(), r.get(1)) {
                (Some(Value::Text(n)), Some(Value::Text(s))) => Some((n.clone(), s.clone())),
                _ => None,
            })
            .collect();
        for (name, sql) in entries {
            match ViewDef::from_sql(&self.catalog, &name, &sql) {
                Ok(v) => {
                    self.views.insert(name, v);
                }
                Err(reason) => {
                    debug_assert!(false, "view {name:?} failed to rehydrate: {reason}");
                }
            }
        }
    }

    /// Set the default resource limits (memory budget, timeout) every
    /// query on this database runs under. Prepared statements can
    /// override them per statement.
    pub fn set_limits(&mut self, limits: ExecLimits) {
        self.limits = limits;
    }

    /// The database-wide default resource limits.
    pub fn limits(&self) -> &ExecLimits {
        &self.limits
    }

    /// Set the directory under which queries create their per-query spill
    /// directories when they exceed the memory budget. Defaults to the OS
    /// temp directory; [`Database::load_from_dir`] points it at the
    /// persistence directory so startup recovery
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
    /// statement.
    pub fn execute_script(&mut self, sql: &str) -> Result<Vec<ExecOutcome>> {
        parse_statements(sql)?
            .iter()
            .map(|s| self.exec_parsed(s))
            .collect()
    }

    /// Shared implementation behind [`Database::execute_script`] and
    /// [`crate::Statement::run`].
    pub(crate) fn exec_parsed(&mut self, stmt: &Statement) -> Result<ExecOutcome> {
        self.exec_parsed_tracked(stmt).map(|(outcome, _)| outcome)
    }

    /// Execute a parsed statement and also report which catalog tables it
    /// changed (bases, view contents/state, the view registry) — the
    /// write-ahead log derives its whole-table-image records from this
    /// list. Queries change nothing and report an empty list.
    pub(crate) fn exec_parsed_tracked(
        &mut self,
        stmt: &Statement,
    ) -> Result<(ExecOutcome, Vec<String>)> {
        match stmt {
            Statement::CreateTable(ct) => {
                self.guard_writable(&ct.name)?;
                let schema = Schema::from_pairs(ct.columns.iter().map(|(n, t)| (n.clone(), *t)))?;
                self.catalog.create_table(&ct.name, schema)?;
                Ok((ExecOutcome::Created, vec![ct.name.clone()]))
            }
            Statement::Insert(ins) => {
                self.guard_writable(&ins.table)?;
                let (n, old, delta) = self.run_insert(ins)?;
                let mut touched = vec![ins.table.clone()];
                touched.extend(self.maintain(&ins.table, old, delta)?);
                Ok((ExecOutcome::Inserted(n), touched))
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
                Ok((ExecOutcome::Dropped, vec![name.clone()]))
            }
            Statement::Delete(del) => {
                self.guard_writable(&del.table)?;
                let (n, old, delta) = self.run_delete(del)?;
                let mut touched = vec![del.table.clone()];
                touched.extend(self.maintain(&del.table, old, delta)?);
                Ok((ExecOutcome::Deleted(n), touched))
            }
            Statement::Update(upd) => {
                self.guard_writable(&upd.table)?;
                let (n, old, delta) = self.run_update(upd)?;
                let mut touched = vec![upd.table.clone()];
                touched.extend(self.maintain(&upd.table, old, delta)?);
                Ok((ExecOutcome::Updated(n), touched))
            }
            Statement::Select(sel) => Ok((ExecOutcome::Rows(self.run_select(sel)?), Vec::new())),
            Statement::Explain { analyze, query } => Ok((
                ExecOutcome::Rows(self.explain_select(query, *analyze)?),
                Vec::new(),
            )),
            Statement::CreateView(cv) => self.create_view(cv),
            Statement::DropView(name) => self.drop_view(name),
            Statement::RefreshView(name) => self.refresh_view(name),
            Statement::Recluster(rc) => {
                self.guard_writable(&rc.table)?;
                let (n, old, delta) = self.run_recluster(rc)?;
                let mut touched = vec![rc.table.clone()];
                touched.extend(self.maintain(&rc.table, old, delta)?);
                Ok((ExecOutcome::Reclustered(n), touched))
            }
            Statement::Reannotate(ra) => {
                self.guard_writable(&ra.table)?;
                let (n, old, delta) = self.run_reannotate(ra)?;
                let mut touched = vec![ra.table.clone()];
                touched.extend(self.maintain(&ra.table, old, delta)?);
                Ok((ExecOutcome::Reannotated(n), touched))
            }
            Statement::ApplyCrossref(ax) => {
                self.guard_writable(&ax.table)?;
                if ax.xref_table.starts_with(HIDDEN_PREFIX)
                    || self.views.contains_key(&ax.xref_table)
                {
                    return Err(EngineError::bind(format!(
                        "{:?} cannot serve as a cross-reference table",
                        ax.xref_table
                    )));
                }
                let old = self.capture_old(&ax.table)?;
                let clusters = conquer_storage::apply_crossref(
                    &mut self.catalog,
                    &ax.table,
                    &ax.key_column,
                    &ax.id_column,
                    &ax.xref_table,
                    &ax.xref_key_column,
                    &ax.xref_id_column,
                )?;
                let delta = match &old {
                    Some(o) => diff_rows(o.rows(), self.catalog.table(&ax.table)?.rows()),
                    None => TableDelta::default(),
                };
                let mut touched = vec![ax.table.clone()];
                touched.extend(self.maintain(&ax.table, old, delta)?);
                Ok((ExecOutcome::CrossrefApplied(clusters), touched))
            }
        }
    }

    /// Persist the whole catalog to a directory of `.schema`/`.csv` files
    /// (see [`conquer_storage::persist`]).
    pub fn save_to_dir(&self, dir: &std::path::Path) -> Result<()> {
        conquer_storage::save_catalog(&self.catalog, dir)?;
        Ok(())
    }

    /// Load a database previously saved with [`Database::save_to_dir`].
    /// The directory also becomes the database's spill base (see
    /// [`Database::set_spill_dir`]).
    pub fn load_from_dir(dir: &std::path::Path) -> Result<Self> {
        let mut db = Database::from_catalog(conquer_storage::load_catalog(dir)?);
        db.set_spill_dir(dir);
        Ok(db)
    }

    /// Pre-build a hash index on `table.column`. Joins whose build side is
    /// an unfiltered scan of `table` keyed on that column will probe the
    /// stored index instead of hashing at query time (the paper's
    /// identifier-index setup). Indexes are invalidated by table mutation
    /// and must be re-created afterwards.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<()> {
        self.catalog.table_mut(table)?.index_on(column)?;
        Ok(())
    }

    /// Plan + execute an already-parsed `SELECT` (the internal path behind
    /// the prepared-statement API).
    pub(crate) fn run_select(&self, stmt: &SelectStatement) -> Result<QueryResult> {
        let plan = self.plan(stmt)?;
        execute_plan(&self.catalog, &plan, &self.exec_context(self.limits))
    }

    /// Produce (but do not run) the plan for a `SELECT`.
    pub fn plan(&self, stmt: &SelectStatement) -> Result<Plan> {
        let bound = bind_select(&self.catalog, stmt)?;
        crate::validate::validate_bound(&bound)?;
        plan_select(&self.catalog, bound)
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

    /// EXPLAIN-style plan description for a `SELECT` given as SQL text.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let stmt = parse_statement(sql)?;
        match stmt {
            Statement::Select(sel) => Ok(self.plan(&sel)?.describe()),
            Statement::Explain { analyze, query } => {
                let result = self.explain_select(&query, analyze)?;
                Ok(result
                    .rows
                    .iter()
                    .filter_map(|r| r.first())
                    .map(|v| match v {
                        Value::Text(s) => s.clone(),
                        other => other.to_string(),
                    })
                    .collect::<Vec<_>>()
                    .join("\n"))
            }
            other => Err(EngineError::bind(format!("cannot explain: {other}"))),
        }
    }

    /// Run `EXPLAIN [ANALYZE]` over a `SELECT`, producing a one-column
    /// `QUERY PLAN` result (one row per line, Postgres-style).
    ///
    /// With `analyze = false` the plan is described without running it;
    /// with `analyze = true` the query is executed and the per-operator
    /// [`crate::stats::ExecStats`] tree is rendered instead.
    pub fn explain_select(&self, stmt: &SelectStatement, analyze: bool) -> Result<QueryResult> {
        let plan = self.plan(stmt)?;
        let text = if analyze {
            let result = execute_plan(&self.catalog, &plan, &self.exec_context(self.limits))?;
            result
                .stats()
                .map(|s| s.render())
                .unwrap_or_else(|| plan.describe())
        } else {
            plan.describe()
        };
        Ok(QueryResult::new(
            vec!["QUERY PLAN".to_string()],
            text.lines()
                .map(|l| vec![Value::Text(l.to_string())])
                .collect(),
        ))
    }

    /// Pre-statement image of `table`, captured only when some view is
    /// defined over it (the telescoping delta evaluation needs the old
    /// bag for self-join occurrences after the delta slot).
    fn capture_old(&self, table: &str) -> Result<Option<Table>> {
        if self.views.values().any(|v| v.references(table)) {
            Ok(Some(self.catalog.table(table)?.clone()))
        } else {
            Ok(None)
        }
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

    fn run_delete(&mut self, del: &Delete) -> Result<(usize, Option<Table>, TableDelta)> {
        let pred = del
            .selection
            .as_ref()
            .map(|e| bind_table_expr(&self.catalog, &del.table, e))
            .transpose()?;
        let offsets = Offsets(vec![Some(0)]);
        let old = self.capture_old(&del.table)?;
        let track = old.is_some();
        let mut delta = TableDelta::default();
        let table = self.catalog.table_mut(&del.table)?;
        let before = table.len();
        match pred {
            None => {
                if track {
                    delta.removed = table.rows().to_vec();
                }
                table.retain(|_, _| false);
            }
            Some(p) => {
                // Evaluate first (eval can error), then retain.
                let keep: Vec<bool> = table
                    .rows()
                    .iter()
                    .map(|row| p.eval_predicate(row, &offsets).map(|m| !m))
                    .collect::<Result<_>>()?;
                if track {
                    delta.removed = table
                        .rows()
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| !keep[*i])
                        .map(|(_, r)| r.clone())
                        .collect();
                }
                table.retain(|i, _| keep[i]);
            }
        }
        let n = before - self.catalog.table(&del.table)?.len();
        Ok((n, old, delta))
    }

    fn run_update(&mut self, upd: &Update) -> Result<(usize, Option<Table>, TableDelta)> {
        let pred = upd
            .selection
            .as_ref()
            .map(|e| bind_table_expr(&self.catalog, &upd.table, e))
            .transpose()?;
        let assignments: Vec<(usize, BoundExpr)> = {
            let table = self.catalog.table(&upd.table)?;
            upd.assignments
                .iter()
                .map(|(col, e)| {
                    let idx = table.column_index(col)?;
                    Ok((idx, bind_table_expr(&self.catalog, &upd.table, e)?))
                })
                .collect::<Result<_>>()?
        };
        let offsets = Offsets(vec![Some(0)]);
        // Evaluate all updates against the *old* rows first, then apply.
        let updates: Vec<Option<Vec<(usize, Value)>>> = {
            let table = self.catalog.table(&upd.table)?;
            table
                .rows()
                .iter()
                .map(|row| {
                    if let Some(p) = &pred {
                        if !p.eval_predicate(row, &offsets)? {
                            return Ok(None);
                        }
                    }
                    let mut row_updates = Vec::with_capacity(assignments.len());
                    for (col, e) in &assignments {
                        row_updates.push((*col, e.eval(row, &offsets)?));
                    }
                    Ok(Some(row_updates))
                })
                .collect::<Result<_>>()?
        };
        let old = self.capture_old(&upd.table)?;
        let mut delta = TableDelta::default();
        if old.is_some() {
            let table = self.catalog.table(&upd.table)?;
            for (i, row) in table.rows().iter().enumerate() {
                if let Some(row_updates) = &updates[i] {
                    let mut new_row = row.clone();
                    for (col, v) in row_updates {
                        new_row[*col] = v.clone();
                    }
                    if new_row != *row {
                        delta.removed.push(row.clone());
                        delta.added.push(new_row);
                    }
                }
            }
        }
        let table = self.catalog.table_mut(&upd.table)?;
        let changed = table.transform_rows(|i, _| updates[i].clone())?;
        Ok((changed, old, delta))
    }

    fn run_insert(&mut self, ins: &Insert) -> Result<(usize, Option<Table>, TableDelta)> {
        let table = self.catalog.table(&ins.table)?;
        let schema = table.schema().clone();

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
                let result = self.run_select(q)?;
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
        let n = rows.len();
        let old = self.capture_old(&ins.table)?;
        let delta = if old.is_some() {
            TableDelta {
                removed: Vec::new(),
                added: rows.clone(),
            }
        } else {
            TableDelta::default()
        };
        let table = self.catalog.table_mut(&ins.table)?;
        table.insert_all(rows)?;
        Ok((n, old, delta))
    }

    /// `RECLUSTER table (id, prob) TO target [WHERE …]`: move matching
    /// tuples into the duplicate cluster `target`, then renormalize the
    /// probabilities of every affected cluster (source and target) to sum
    /// to 1 — Definition 2. A cluster whose probabilities sum to zero
    /// gets the uniform distribution.
    fn run_recluster(&mut self, rc: &Recluster) -> Result<(usize, Option<Table>, TableDelta)> {
        let pred = rc
            .selection
            .as_ref()
            .map(|e| bind_table_expr(&self.catalog, &rc.table, e))
            .transpose()?;
        let target = eval_const(&rc.target)?;
        if target.is_null() {
            return Err(EngineError::exec("RECLUSTER target must not be NULL"));
        }
        let offsets = Offsets(vec![Some(0)]);
        let (id_idx, prob_idx, rows) = {
            let t = self.catalog.table(&rc.table)?;
            (
                t.column_index(&rc.id_column)?,
                t.column_index(&rc.prob_column)?,
                t.rows().to_vec(),
            )
        };
        let mut new_rows = rows.clone();
        let mut affected: BTreeSet<Value> = BTreeSet::new();
        let mut moved = 0usize;
        for (i, row) in rows.iter().enumerate() {
            let matches = match &pred {
                None => true,
                Some(p) => p.eval_predicate(row, &offsets)?,
            };
            if matches && row[id_idx] != target {
                affected.insert(row[id_idx].clone());
                affected.insert(target.clone());
                new_rows[i][id_idx] = target.clone();
                moved += 1;
            }
        }
        // Renormalize each affected cluster over the post-move membership.
        for cluster in &affected {
            let members: Vec<usize> = new_rows
                .iter()
                .enumerate()
                .filter(|(_, r)| r[id_idx] == *cluster)
                .map(|(i, _)| i)
                .collect();
            if members.is_empty() {
                continue; // source cluster fully vacated
            }
            let sum: f64 = members
                .iter()
                .filter_map(|&i| new_rows[i][prob_idx].as_f64())
                .sum();
            if sum > 0.0 {
                for &i in &members {
                    let p = new_rows[i][prob_idx].as_f64().unwrap_or(0.0);
                    new_rows[i][prob_idx] = Value::Float(p / sum);
                }
            } else {
                let uniform = 1.0 / members.len() as f64;
                for &i in &members {
                    new_rows[i][prob_idx] = Value::Float(uniform);
                }
            }
        }
        self.write_back(&rc.table, rows, new_rows, moved)
    }

    /// `REANNOTATE table (id, prob) SET expr [WHERE …]`: overwrite the
    /// probability of matching tuples with `expr` evaluated on the old
    /// row. No renormalization — the caller controls the exact values
    /// (and thereby, deliberately, can violate Definition 2; `RECLUSTER`
    /// is the normalizing mutation).
    fn run_reannotate(&mut self, ra: &Reannotate) -> Result<(usize, Option<Table>, TableDelta)> {
        let pred = ra
            .selection
            .as_ref()
            .map(|e| bind_table_expr(&self.catalog, &ra.table, e))
            .transpose()?;
        let value = bind_table_expr(&self.catalog, &ra.table, &ra.value)?;
        let offsets = Offsets(vec![Some(0)]);
        let (prob_idx, rows) = {
            let t = self.catalog.table(&ra.table)?;
            // The id column names the cluster structure; require it even
            // though the rewrite itself is per-tuple.
            t.column_index(&ra.id_column)?;
            (t.column_index(&ra.prob_column)?, t.rows().to_vec())
        };
        let mut new_rows = rows.clone();
        let mut annotated = 0usize;
        for (i, row) in rows.iter().enumerate() {
            let matches = match &pred {
                None => true,
                Some(p) => p.eval_predicate(row, &offsets)?,
            };
            if !matches {
                continue;
            }
            let v = value.eval(row, &offsets)?;
            // Keep the probability column uniformly FLOAT-typed so view
            // state matching stays bit-exact.
            let v = match v {
                Value::Int(n) => Value::Float(n as f64),
                other => other,
            };
            new_rows[i][prob_idx] = v;
            annotated += 1;
        }
        self.write_back(&ra.table, rows, new_rows, annotated)
    }

    /// Diff `rows` → `new_rows`, apply the changed rows to `table`, and
    /// package the table delta (with the pre-statement image when a view
    /// needs it).
    fn write_back(
        &mut self,
        table: &str,
        rows: Vec<Row>,
        new_rows: Vec<Row>,
        count: usize,
    ) -> Result<(usize, Option<Table>, TableDelta)> {
        let old = self.capture_old(table)?;
        let mut delta = TableDelta::default();
        if old.is_some() {
            for (o, n) in rows.iter().zip(&new_rows) {
                if o != n {
                    delta.removed.push(o.clone());
                    delta.added.push(n.clone());
                }
            }
        }
        let t = self.catalog.table_mut(table)?;
        t.transform_rows(|i, _| {
            if rows[i] == new_rows[i] {
                return None;
            }
            Some(
                new_rows[i]
                    .iter()
                    .enumerate()
                    .filter(|(c, v)| rows[i][*c] != **v)
                    .map(|(c, v)| (c, v.clone()))
                    .collect(),
            )
        })?;
        Ok((count, old, delta))
    }

    /// `CREATE MATERIALIZED VIEW`: check maintainability (typed refusal
    /// otherwise), evaluate the view from scratch, and install contents +
    /// state tables plus the registry row.
    fn create_view(&mut self, cv: &CreateView) -> Result<(ExecOutcome, Vec<String>)> {
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
        let mut groups = view::recompute_groups(self, &view)?;
        let (contents, state) = view::groups_to_tables(&view, &mut groups)?;
        let rows = contents.len();
        self.catalog.add_table(contents)?;
        self.catalog.add_table(state)?;
        if !self.catalog.contains(VIEWS_META) {
            self.catalog
                .create_table(VIEWS_META, view::meta_schema()?)?;
        }
        self.catalog.table_mut(VIEWS_META)?.insert(vec![
            Value::text(&view.name),
            Value::text(view.sql()),
            Value::Int(0),
            Value::Int(0),
        ])?;
        let touched = vec![
            view.name.clone(),
            view.state_table(),
            VIEWS_META.to_string(),
        ];
        self.views.insert(view.name.clone(), view);
        Ok((ExecOutcome::CreatedView(rows), touched))
    }

    /// `DROP MATERIALIZED VIEW`: remove contents, state, registry row,
    /// and the in-memory definition.
    fn drop_view(&mut self, name: &str) -> Result<(ExecOutcome, Vec<String>)> {
        if self.views.remove(name).is_none() {
            return Err(EngineError::bind(format!(
                "no materialized view named {name:?}"
            )));
        }
        let state = view::state_table_name(name);
        self.catalog.drop_table(name)?;
        self.catalog.drop_table(&state)?;
        self.catalog
            .table_mut(VIEWS_META)?
            .retain(|_, row| row.first() != Some(&Value::text(name)));
        Ok((
            ExecOutcome::DroppedView,
            vec![name.to_string(), state, VIEWS_META.to_string()],
        ))
    }

    /// `REFRESH MATERIALIZED VIEW`: rebuild from scratch. Byte-identical
    /// to the incrementally maintained tables (the maintenance property),
    /// so a refresh is an equivalence check made durable, not a repair of
    /// expected drift.
    fn refresh_view(&mut self, name: &str) -> Result<(ExecOutcome, Vec<String>)> {
        let Some(view) = self.views.get(name).cloned() else {
            return Err(EngineError::bind(format!(
                "no materialized view named {name:?}"
            )));
        };
        let mut groups = view::recompute_groups(self, &view)?;
        let (contents, state) = view::groups_to_tables(&view, &mut groups)?;
        let rows = contents.len();
        self.catalog.replace_table(contents);
        self.catalog.replace_table(state);
        self.bump_view_meta(name, 0, 1)?;
        Ok((
            ExecOutcome::RefreshedView(rows),
            vec![
                view.name.clone(),
                view.state_table(),
                VIEWS_META.to_string(),
            ],
        ))
    }

    /// Fold one base-table delta into every view defined over the table.
    /// Runs inside statement execution, so the WAL commit that follows
    /// carries base and view images together — atomically. Returns the
    /// extra tables touched.
    fn maintain(
        &mut self,
        table: &str,
        old: Option<Table>,
        delta: TableDelta,
    ) -> Result<Vec<String>> {
        let Some(old) = old else {
            return Ok(Vec::new());
        };
        if delta.is_empty() {
            return Ok(Vec::new());
        }
        let names: Vec<String> = self.views.keys().cloned().collect();
        let mut touched = Vec::new();
        let mut meta_touched = false;
        for name in names {
            let Some(v) = self.views.get(&name) else {
                continue;
            };
            if !v.references(table) {
                continue;
            }
            let v = v.clone();
            fault_point("view::apply")?;
            let pairs = view::delta_pairs(self, &v, table, &old, &delta)?;
            // A delta whose rows join nothing contributes nothing: the
            // view's two tables stay as they are, and out of the commit.
            if !pairs.is_empty() {
                let mut groups = view::load_state(self.catalog.table(&v.state_table())?)?;
                view::apply_pairs(&v, &mut groups, pairs)?;
                let (contents, state) = view::groups_to_tables(&v, &mut groups)?;
                self.catalog.replace_table(contents);
                self.catalog.replace_table(state);
                touched.push(v.name.clone());
                touched.push(v.state_table());
            }
            self.bump_view_meta(&name, 1, 0)?;
            meta_touched = true;
        }
        if meta_touched {
            touched.push(VIEWS_META.to_string());
        }
        Ok(touched)
    }

    /// Add to a view's registry counters (in-table, so they are durable
    /// and replay-idempotent along with everything else).
    fn bump_view_meta(&mut self, name: &str, deltas: i64, refreshes: i64) -> Result<()> {
        let meta = self.catalog.table_mut(VIEWS_META)?;
        let d_idx = meta.column_index("deltas_applied")?;
        let r_idx = meta.column_index("refreshes")?;
        meta.transform_rows(|_, row| {
            if row.first() != Some(&Value::text(name)) {
                return None;
            }
            let d = row[d_idx].as_i64().unwrap_or(0) + deltas;
            let r = row[r_idx].as_i64().unwrap_or(0) + refreshes;
            Some(vec![(d_idx, Value::Int(d)), (r_idx, Value::Int(r))])
        })?;
        Ok(())
    }

    /// Is `name` a materialized view?
    pub fn is_view(&self, name: &str) -> bool {
        self.views.contains_key(name)
    }

    /// The materialized views, in name order.
    pub fn views(&self) -> impl Iterator<Item = &ViewDef> {
        self.views.values()
    }

    /// Maintenance statistics of every view (registry counters + current
    /// group counts), in name order.
    pub fn view_stats(&self) -> Vec<ViewStats> {
        self.views
            .values()
            .map(|v| {
                let rows = self.catalog.table(&v.name).map(|t| t.len()).unwrap_or(0);
                let (deltas_applied, refreshes) = self
                    .catalog
                    .table(VIEWS_META)
                    .ok()
                    .and_then(|meta| {
                        meta.rows()
                            .iter()
                            .find(|r| r.first() == Some(&Value::text(&v.name)))
                            .map(|r| {
                                (
                                    r.get(2).and_then(Value::as_i64).unwrap_or(0) as u64,
                                    r.get(3).and_then(Value::as_i64).unwrap_or(0) as u64,
                                )
                            })
                    })
                    .unwrap_or((0, 0));
                ViewStats {
                    name: v.name.clone(),
                    rows,
                    deltas_applied,
                    refreshes,
                }
            })
            .collect()
    }
}

/// Row-wise diff of two equal-length row sets (APPLY CROSSREF rewrites
/// rows in place, so position i corresponds).
fn diff_rows(old: &[Row], new: &[Row]) -> TableDelta {
    let mut delta = TableDelta::default();
    for (o, n) in old.iter().zip(new) {
        if o != n {
            delta.removed.push(o.clone());
            delta.added.push(n.clone());
        }
    }
    delta
}

/// Check a storage-layer fault point from the maintenance path, mapping
/// the injected fault into the typed engine error (same contract as the
/// shared layer's points: the statement aborts whole, nothing publishes).
/// A no-op without the `fault` feature.
fn fault_point(point: &str) -> Result<()> {
    conquer_storage::fault::trigger(point).map_err(|f| EngineError::Storage(f.into()))
}

/// Evaluate a constant expression (INSERT values, RECLUSTER targets).
fn eval_const(e: &Expr) -> Result<Value> {
    bind_constant(e)?.eval(&Vec::new(), &Offsets(vec![]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(db: &Database, sql: &str) -> Result<QueryResult> {
        db.prepare(sql)?.query(db)
    }

    fn execute(db: &mut Database, sql: &str) -> Result<ExecOutcome> {
        db.prepare(sql)?.run(db)
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

    #[test]
    fn explain_produces_tree() {
        let db = sample();
        let text = db
            .explain("SELECT o.id FROM orders o, customer c WHERE o.cidfk = c.id")
            .unwrap();
        assert!(text.contains("HashJoin"), "{text}");
        assert!(text.contains("Scan"), "{text}");
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
        let text = db
            .explain(
                "EXPLAIN ANALYZE SELECT o.id, SUM(o.prob * c.prob) FROM orders o, customer c \
                 WHERE o.cidfk = c.id GROUP BY o.id",
            )
            .unwrap();
        assert!(text.contains("HashAggregate"), "{text}");
        assert!(text.contains("HashJoin"), "{text}");
        assert!(text.contains("rows="), "{text}");
        assert!(text.contains("Execution time"), "{text}");
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
        let plan = db
            .plan(&conquer_sql::parse_select("SELECT oid, cid, p FROM v").unwrap())
            .unwrap()
            .describe();
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
        let stmt =
            conquer_sql::parse_statement("INSERT INTO orders VALUES ('o9', 'c9', 1, 1.0)").unwrap();
        let (out, touched) = db.exec_parsed_tracked(&stmt).unwrap();
        assert_eq!(out, ExecOutcome::Inserted(1));
        assert_eq!(touched, ["orders", VIEWS_META]);
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
        assert!(!db.catalog().contains(VIEWS_META));
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
            "DELETE FROM __conquer_views",
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
    fn views_survive_save_and_load() {
        let dir = std::env::temp_dir().join(format!("conquer_view_persist_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut db = sample();
        execute(&mut db, EX6_VIEW).unwrap();
        execute(&mut db, "INSERT INTO orders VALUES ('o3', 'c2', 9, 1.0)").unwrap();
        let before = view_rows(&db);
        db.save_to_dir(&dir).unwrap();
        let mut reloaded = Database::load_from_dir(&dir).unwrap();
        assert!(reloaded.is_view("v"));
        assert_eq!(view_rows(&reloaded), before);
        // Maintenance keeps working after rehydration.
        execute(&mut reloaded, "DELETE FROM orders WHERE id = 'o3'").unwrap();
        let maintained = view_rows(&reloaded);
        assert_eq!(maintained, recomputed_rows(&mut reloaded));
        let _ = std::fs::remove_dir_all(&dir);
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
               FROM t x, t y WHERE x.n = y.n GROUP BY x.id, y.id",
        )
        .unwrap();
        for stmt in [
            "INSERT INTO t VALUES ('b', 2, 0.25)",
            "UPDATE t SET prob = 0.75 WHERE id = 'a' AND n = 1",
            "DELETE FROM t WHERE id = 'b' AND n = 1",
        ] {
            execute(&mut db, stmt).unwrap();
            let maintained = db.catalog().table("sj").unwrap().rows().to_vec();
            execute(&mut db, "REFRESH MATERIALIZED VIEW sj").unwrap();
            let recomputed = db.catalog().table("sj").unwrap().rows().to_vec();
            assert_eq!(maintained, recomputed, "after {stmt}");
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
