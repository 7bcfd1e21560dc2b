//! Prepared statements: parse → bind → plan once, execute many times.
//!
//! [`Database::prepare`] front-loads all per-query analysis (parsing, name
//! resolution, join ordering) into a reusable [`Statement`]. Running the
//! statement afterwards only pays for execution, which is what the paper's
//! experiments time. The same object also carries non-`SELECT` commands so
//! callers can funnel arbitrary SQL through one entry point.
//!
//! [`Statement::query_with`] is the one code path that runs a prepared
//! plan, for a `SELECT` and for `EXPLAIN [ANALYZE]` alike: a
//! [`Session`](crate::Session) read, a `SELECT` in a script, the source of
//! an `INSERT … SELECT` and a view recompute all prepare and come here.
//! The context it runs under carries the resource limits, which live in
//! two places only: the database's defaults ([`Statement::query`]) and
//! the session's. A caller that wants other limits builds its own context
//! with [`Database::exec_context`].
//!
//! ```
//! use conquer_engine::Database;
//!
//! let mut db = Database::new();
//! db.execute_script(
//!     "CREATE TABLE t (a INTEGER, b TEXT);
//!      INSERT INTO t VALUES (1, 'x'), (2, 'y')",
//! )
//! .unwrap();
//!
//! let stmt = db.prepare("SELECT b FROM t WHERE a = 2").unwrap();
//! let res = stmt.query(&db).unwrap();
//! assert_eq!(res.rows, vec![vec!["y".into()]]);
//! ```

use conquer_sql::{parse_statement, SelectStatement, Statement as SqlStatement};

use conquer_storage::Value;

use crate::context::ExecContext;
use crate::database::{Database, ExecOutcome};
use crate::error::EngineError;
use crate::exec::execute_plan;
use crate::planner::Plan;
use crate::result::QueryResult;
use crate::Result;

/// A statement prepared against a [`Database`].
///
/// For `SELECT`s the physical [`Plan`] is built at prepare time and reused
/// by every [`Statement::query`] call. Join order is therefore chosen from
/// the table statistics visible at prepare time; a statement stays valid
/// across row inserts/deletes, but schema changes (or dropping a referenced
/// table) make it *stale* and further queries fail with a descriptive error
/// — re-`prepare` after DDL.
#[derive(Debug, Clone)]
pub struct Statement {
    sql: String,
    kind: Kind,
}

#[derive(Debug, Clone)]
enum Kind {
    /// A planned `SELECT`.
    Select { plan: Plan },
    /// `EXPLAIN [ANALYZE] <select>`, planned like a `SELECT`; ANALYZE
    /// executes the plan under the caller's context.
    Explain { analyze: bool, plan: Plan },
    /// Any other statement (DDL/DML), executed via [`Statement::run`].
    Command(Box<SqlStatement>),
}

impl Database {
    /// Parse, bind and plan `sql`, producing a reusable [`Statement`].
    ///
    /// All statement kinds are accepted; only `SELECT` (and `EXPLAIN`)
    /// statements can later be run with [`Statement::query`] — DDL/DML
    /// need [`Statement::run`] (which takes `&mut Database`).
    pub fn prepare(&self, sql: &str) -> Result<Statement> {
        Statement::from_parsed(self, sql, parse_statement(sql)?)
    }

    /// Prepare an already-parsed `SELECT` (used by callers that build ASTs
    /// programmatically, e.g. the query rewriter).
    pub fn prepare_select(&self, stmt: &SelectStatement) -> Result<Statement> {
        Ok(Statement {
            sql: stmt.to_string(),
            kind: Kind::Select {
                plan: self.plan(stmt)?,
            },
        })
    }
}

impl Statement {
    /// Bind and plan `parsed` — the parse of `sql` — against `db`:
    /// [`Database::prepare`] minus the parse, for callers that already
    /// parsed the text to classify it.
    pub(crate) fn from_parsed(db: &Database, sql: &str, parsed: SqlStatement) -> Result<Self> {
        let kind = match parsed {
            SqlStatement::Select(sel) => Kind::Select {
                plan: db.plan(&sel)?,
            },
            SqlStatement::Explain { analyze, query } => Kind::Explain {
                analyze,
                plan: db.plan(&query)?,
            },
            other => Kind::Command(Box::new(other)),
        };
        Ok(Statement {
            sql: sql.to_string(),
            kind,
        })
    }

    /// The SQL text this statement was prepared from.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// True when [`Statement::query`] can run this statement (a `SELECT`
    /// or `EXPLAIN`), i.e. it produces rows and needs no `&mut` access.
    pub fn is_query(&self) -> bool {
        !matches!(self.kind, Kind::Command(_))
    }

    /// True when this statement is an `EXPLAIN [ANALYZE]`. Explain output
    /// embeds wall-clock timings, so result caches must never store it.
    pub fn is_explain(&self) -> bool {
        matches!(self.kind, Kind::Explain { .. })
    }

    /// The tables a query's plan reads, by name as written (none for a
    /// command). The dialect has no subqueries, so an answer depends on
    /// these tables and nothing else in the catalog.
    pub(crate) fn tables(&self) -> impl Iterator<Item = &str> {
        let relations = match &self.kind {
            Kind::Select { plan } | Kind::Explain { plan, .. } => &plan.relations[..],
            Kind::Command(_) => &[],
        };
        relations.iter().map(|rel| rel.table.as_str())
    }

    /// Execute a prepared `SELECT` (or `EXPLAIN`) under the database's
    /// default limits and return its rows.
    ///
    /// Fails if the statement is a DDL/DML command (use
    /// [`Statement::run`]) or if a referenced table was dropped or altered
    /// since `prepare`.
    pub fn query(&self, db: &Database) -> Result<QueryResult> {
        self.query_with(db, &db.exec_context(*db.limits()))
    }

    /// Execute a prepared `SELECT` (or `EXPLAIN`) under a caller-supplied
    /// [`ExecContext`] — the full-control entry point for cancellation:
    /// clone the context's [`CancelToken`](crate::context::CancelToken)
    /// to another thread before calling, and trip it to abort the query
    /// with [`EngineError::Cancelled`].
    ///
    /// The context is per-execution state (deadline clock, memory meter);
    /// create a fresh one per call.
    pub fn query_with(&self, db: &Database, ctx: &ExecContext) -> Result<QueryResult> {
        match &self.kind {
            Kind::Select { plan } => {
                self.check_fresh(db, plan)?;
                execute_plan(db.catalog(), plan, ctx)
            }
            Kind::Explain { analyze, plan } => {
                self.check_fresh(db, plan)?;
                render_explain(db, plan, *analyze, ctx)
            }
            Kind::Command(stmt) => Err(EngineError::bind(format!(
                "statement is not a query (use Statement::run): {stmt}"
            ))),
        }
    }

    /// Execute any prepared statement, mutating the database if needed.
    pub fn run(&self, db: &mut Database) -> Result<ExecOutcome> {
        match &self.kind {
            Kind::Command(stmt) => db.exec_parsed(stmt),
            _ => Ok(ExecOutcome::Rows(self.query(db)?)),
        }
    }

    /// Verify every relation the cached plan references still exists with
    /// the schema it was planned against.
    fn check_fresh(&self, db: &Database, plan: &Plan) -> Result<()> {
        for rel in &plan.relations {
            let stale = |why: &str| {
                EngineError::exec(format!(
                    "prepared statement is stale: {why}; re-prepare it (statement: {})",
                    self.sql
                ))
            };
            match db.catalog().table(&rel.table) {
                Err(_) => return Err(stale(&format!("table {:?} no longer exists", rel.table))),
                Ok(table) if table.schema() != &rel.schema => {
                    return Err(stale(&format!("schema of table {:?} changed", rel.table)));
                }
                Ok(_) => {}
            }
        }
        Ok(())
    }
}

/// The `QUERY PLAN` result of `EXPLAIN [ANALYZE]`, one row per line
/// (Postgres-style): the plan's description, or with `analyze` the
/// per-operator stats tree of a run under `ctx`.
fn render_explain(
    db: &Database,
    plan: &Plan,
    analyze: bool,
    ctx: &ExecContext,
) -> Result<QueryResult> {
    let text = if analyze {
        let result = execute_plan(db.catalog(), plan, ctx)?;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Database {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE t (a INTEGER, b TEXT);
             INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'y')",
        )
        .unwrap();
        db
    }

    #[test]
    fn prepare_once_query_many() {
        let mut db = sample();
        let stmt = db.prepare("SELECT COUNT(*) FROM t WHERE b = 'y'").unwrap();
        assert!(stmt.is_query());
        assert_eq!(stmt.query(&db).unwrap().rows, vec![vec![Value::Int(2)]]);
        // Data changes are picked up by later executions of the same plan.
        db.prepare("INSERT INTO t VALUES (4, 'y')")
            .unwrap()
            .run(&mut db)
            .unwrap();
        assert_eq!(stmt.query(&db).unwrap().rows, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn commands_need_run_not_query() {
        let mut db = sample();
        let stmt = db.prepare("DELETE FROM t WHERE a = 1").unwrap();
        assert!(!stmt.is_query());
        let err = stmt.query(&db).unwrap_err();
        assert!(err.to_string().contains("not a query"), "{err}");
        assert_eq!(stmt.run(&mut db).unwrap(), ExecOutcome::Deleted(1));
    }

    #[test]
    fn run_also_handles_selects() {
        let mut db = sample();
        let stmt = db.prepare("SELECT a FROM t ORDER BY a LIMIT 1").unwrap();
        match stmt.run(&mut db).unwrap() {
            ExecOutcome::Rows(r) => assert_eq!(r.rows, vec![vec![Value::Int(1)]]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dropped_table_makes_statement_stale() {
        let mut db = sample();
        let stmt = db.prepare("SELECT a FROM t").unwrap();
        db.prepare("DROP TABLE t").unwrap().run(&mut db).unwrap();
        let err = stmt.query(&db).unwrap_err();
        assert!(err.to_string().contains("stale"), "{err}");
    }

    #[test]
    fn schema_change_makes_statement_stale() {
        let mut db = sample();
        let stmt = db.prepare("SELECT a FROM t").unwrap();
        db.execute_script("DROP TABLE t; CREATE TABLE t (a INTEGER, b TEXT, c DOUBLE)")
            .unwrap();
        let err = stmt.query(&db).unwrap_err();
        assert!(err.to_string().contains("schema"), "{err}");
    }

    #[test]
    fn prepared_explain_analyze_reports_stats() {
        let db = sample();
        let stmt = db
            .prepare("EXPLAIN ANALYZE SELECT b, COUNT(*) FROM t GROUP BY b")
            .unwrap();
        let r = stmt.query(&db).unwrap();
        assert_eq!(r.columns, vec!["QUERY PLAN"]);
        let text = r
            .rows
            .iter()
            .map(|row| row[0].to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("HashAggregate"), "{text}");
        assert!(text.contains("rows="), "{text}");
        assert!(text.contains("Execution time"), "{text}");
    }

    #[test]
    fn prepare_select_from_ast() {
        let db = sample();
        let ast = match parse_statement("SELECT a FROM t WHERE a > 1").unwrap() {
            SqlStatement::Select(s) => s,
            _ => unreachable!(),
        };
        let stmt = db.prepare_select(&ast).unwrap();
        assert_eq!(stmt.query(&db).unwrap().len(), 2);
        assert!(stmt.sql().contains("SELECT"), "{}", stmt.sql());
    }
}
