//! The `DirtyDatabase` facade: a database plus dirty metadata, with
//! clean-answer evaluation.

use conquer_engine::{Database, QueryResult};
use conquer_sql::{parse_select, BinaryOp, Expr, OrderByItem, SelectItem, SelectStatement};
use conquer_storage::Row;

use crate::answers::CleanAnswers;
use crate::error::CoreError;
use crate::graph::{check_rewritable, JoinGraph};
use crate::naive::{clusters_of, naive_clean_answers, Cluster, NaiveOptions};
use crate::rewrite::RewriteClean;
use crate::spec::DirtySpec;
use crate::Result;

/// How [`DirtyDatabase::clean_answers_with`] evaluates a query.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EvalStrategy {
    /// Use `RewriteClean` only; error if the query is not rewritable.
    #[default]
    Rewrite,
    /// Enumerate candidate databases (bounded by the options).
    Naive(NaiveOptions),
    /// Try the rewriting; if the query is not rewritable, fall back to the
    /// naive evaluator.
    Auto(NaiveOptions),
}

/// A dirty database: an engine [`Database`] whose relations carry cluster
/// identifiers and tuple probabilities described by a [`DirtySpec`]
/// (Definition 2).
#[derive(Debug, Clone)]
pub struct DirtyDatabase {
    db: Database,
    spec: DirtySpec,
}

impl DirtyDatabase {
    /// Wrap a database, validating Definition 2 (identifier and probability
    /// columns exist, probabilities within each cluster sum to 1).
    pub fn new(db: Database, spec: DirtySpec) -> Result<Self> {
        spec.validate(db.catalog())?;
        Ok(DirtyDatabase { db, spec })
    }

    /// Wrap without validation (bulk-loaded data known to be consistent;
    /// the generator's output, for instance).
    pub fn new_unvalidated(db: Database, spec: DirtySpec) -> Self {
        DirtyDatabase { db, spec }
    }

    /// The underlying database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the underlying database.
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// The dirty metadata.
    pub fn spec(&self) -> &DirtySpec {
        &self.spec
    }

    /// Re-validate after mutation.
    pub fn validate(&self) -> Result<()> {
        self.spec.validate(self.db.catalog())
    }

    /// The clusters of one dirty relation, sorted by identifier.
    pub fn clusters(&self, table: &str) -> Result<Vec<Cluster>> {
        clusters_of(self.db.catalog().table(table)?, &self.spec)
    }

    /// Total number of candidate databases induced by the listed tables
    /// (all registered tables if `None`).
    pub fn candidate_count(&self, tables: Option<&[String]>) -> Result<u128> {
        let owned: Vec<String> = match tables {
            Some(t) => t.to_vec(),
            None => self.spec.tables().map(|(n, _)| n.to_string()).collect(),
        };
        let mut count: u128 = 1;
        for t in &owned {
            for c in self.clusters(t)? {
                count = count.saturating_mul(c.rows.len() as u128);
            }
        }
        Ok(count)
    }

    /// Check the four rewritability conditions for a query (SQL text).
    pub fn check_rewritable(&self, sql: &str) -> Result<JoinGraph> {
        let stmt = parse_select(sql)?;
        check_rewritable(self.db.catalog(), &self.spec, &stmt)
    }

    /// Statically analyze a query against this dirty database: all the
    /// engine lints ([`Database::analyze`]) plus a `CQ1007` warning when the
    /// query falls outside the rewritable class and clean-answer evaluation
    /// would have to fall back to naive enumeration — including the
    /// estimated number of candidate databases that implies.
    pub fn analyze(&self, sql: &str) -> Vec<conquer_engine::Diagnostic> {
        let mut diags = self.db.analyze(sql);
        // Rewritability is only worth reporting for queries that at least
        // bind cleanly.
        if diags.iter().any(|d| d.is_error()) {
            return diags;
        }
        let Ok(stmt) = parse_select(sql) else {
            return diags;
        };
        if let Ok(Err(reason)) =
            crate::graph::explain_rewritable(self.db.catalog(), &self.spec, &stmt)
        {
            let tables: Vec<String> = stmt
                .from
                .iter()
                .map(|t| t.table.clone())
                .filter(|t| self.spec.meta(t).is_some())
                .collect();
            let candidates = self.candidate_count(Some(&tables)).unwrap_or(u128::MAX);
            let span = reason
                .obstacles
                .first()
                .map(|o| o.span)
                .unwrap_or(conquer_sql::Span::NONE);
            diags.push(
                conquer_engine::Diagnostic::new(
                    conquer_engine::Code::NaiveFallback,
                    span,
                    format!(
                        "query is outside the rewritable class (Definition 7); naive \
                         evaluation would enumerate ~{candidates} candidate database(s)"
                    ),
                )
                .with_help(reason.render_tree(Some(sql))),
            );
        }
        diags
    }

    /// Produce the rewritten (clean-answer) query for inspection.
    pub fn rewrite(&self, sql: &str) -> Result<SelectStatement> {
        let stmt = parse_select(sql)?;
        RewriteClean.rewrite(self.db.catalog(), &self.spec, &stmt)
    }

    /// Clean answers via `RewriteClean` (errors if not rewritable).
    pub fn clean_answers(&self, sql: &str) -> Result<CleanAnswers> {
        self.clean_answers_with(sql, EvalStrategy::Rewrite)
    }

    /// Clean answers with an explicit evaluation strategy.
    pub fn clean_answers_with(&self, sql: &str, strategy: EvalStrategy) -> Result<CleanAnswers> {
        let stmt = parse_select(sql)?;
        self.clean_answers_stmt(&stmt, strategy)
    }

    /// Clean answers for an already-parsed query.
    pub fn clean_answers_stmt(
        &self,
        stmt: &SelectStatement,
        strategy: EvalStrategy,
    ) -> Result<CleanAnswers> {
        match strategy {
            EvalStrategy::Rewrite => self.rewritten_answers(stmt),
            EvalStrategy::Naive(opts) => {
                naive_clean_answers(self.db.catalog(), &self.spec, stmt, opts)
            }
            EvalStrategy::Auto(opts) => match self.rewritten_answers(stmt) {
                Ok(ans) => Ok(ans),
                Err(CoreError::NotRewritable(_)) => {
                    naive_clean_answers(self.db.catalog(), &self.spec, stmt, opts)
                }
                Err(other) => Err(other),
            },
        }
    }

    /// The `k` most probable clean answers, ranked by probability — the
    /// presentation the paper motivates ("which query answers are most
    /// likely to be present in the clean database"). The ranking and limit
    /// are pushed into the rewritten SQL (`ORDER BY probability DESC LIMIT
    /// k`), so the engine sorts groups, not join rows.
    pub fn clean_answers_topk(&self, sql: &str, k: u64) -> Result<CleanAnswers> {
        let stmt = parse_select(sql)?;
        let mut rewritten = RewriteClean.rewrite(self.db.catalog(), &self.spec, &stmt)?;
        let prob_alias = probability_alias(&rewritten);
        rewritten.order_by = vec![OrderByItem {
            expr: Expr::column(prob_alias),
            desc: true,
        }];
        rewritten.limit = Some(k);
        let result = self.db.prepare_select(&rewritten)?.query(&self.db)?;
        Ok(result_to_answers(result))
    }

    /// Clean answers with probability at least `tau`, filtered inside the
    /// rewritten SQL via `HAVING SUM(probs) >= tau` — groups below the
    /// threshold are discarded before projection.
    pub fn clean_answers_above(&self, sql: &str, tau: f64) -> Result<CleanAnswers> {
        let stmt = parse_select(sql)?;
        let mut rewritten = RewriteClean.rewrite(self.db.catalog(), &self.spec, &stmt)?;
        let Some(SelectItem::Expr { expr: sum_expr, .. }) = rewritten.projection.last() else {
            return Err(conquer_engine::EngineError::internal(
                "RewriteClean must append the probability aggregate as the last projection item",
            )
            .into());
        };
        rewritten.having = Some(Expr::binary(
            sum_expr.clone(),
            BinaryOp::GtEq,
            Expr::float(tau),
        ));
        let result = self.db.prepare_select(&rewritten)?.query(&self.db)?;
        Ok(result_to_answers(result))
    }

    /// Consistent answers (Arenas et al.): the probability-1 fragment of the
    /// clean answers.
    pub fn consistent_answers(&self, sql: &str) -> Result<Vec<Row>> {
        let answers = self.clean_answers(sql)?;
        Ok(answers.consistent(1e-9).into_iter().cloned().collect())
    }

    fn rewritten_answers(&self, stmt: &SelectStatement) -> Result<CleanAnswers> {
        let rewritten = RewriteClean.rewrite(self.db.catalog(), &self.spec, stmt)?;
        let result = self.db.prepare_select(&rewritten)?.query(&self.db)?;
        Ok(result_to_answers(result))
    }
}

/// Split a rewritten-query result into `(answer tuple, probability)` pairs —
/// the probability is the last column (the appended `SUM(probs)`).
pub fn result_to_answers(mut result: QueryResult) -> CleanAnswers {
    let stats = result.take_stats();
    let prob_idx = result.columns.len().saturating_sub(1);
    result.columns.truncate(prob_idx);
    let rows = result
        .rows
        .into_iter()
        .map(|mut row| {
            let p = row.pop().and_then(|v| v.as_f64()).unwrap_or(0.0);
            (row, p)
        })
        .collect();
    CleanAnswers::new(result.columns, rows).with_stats(stats)
}

/// The output name of the rewriting's appended probability column.
fn probability_alias(rewritten: &SelectStatement) -> String {
    match rewritten.projection.last() {
        Some(SelectItem::Expr { alias: Some(a), .. }) => a.clone(),
        _ => crate::rewrite::PROBABILITY_COLUMN.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 1 database (loyaltycard + customer).
    fn figure1() -> DirtyDatabase {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE loyaltycard (id TEXT, cardid INTEGER, custfk TEXT, prob DOUBLE);
             INSERT INTO loyaltycard VALUES
               ('t', 111, 'c1', 0.4),
               ('t', 111, 'c2', 0.6);
             CREATE TABLE customer (id TEXT, name TEXT, income INTEGER, prob DOUBLE);
             INSERT INTO customer VALUES
               ('c1', 'John', 120000, 0.9),
               ('c1', 'John', 80000, 0.1),
               ('c2', 'Mary', 140000, 0.4),
               ('c2', 'Marion', 40000, 0.6);",
        )
        .unwrap();
        DirtyDatabase::new(db, DirtySpec::uniform(&["loyaltycard", "customer"])).unwrap()
    }

    #[test]
    fn figure1_card_111_is_60_percent() {
        // The introduction's motivating example: card 111 belongs to a
        // customer earning over $100K with probability 0.6.
        let dirty = figure1();
        let ans = dirty
            .clean_answers(
                "select l.id, l.cardid from loyaltycard l, customer c \
                 where l.custfk = c.id and c.income > 100000",
            )
            .unwrap();
        assert_eq!(ans.len(), 1);
        let p = ans.probability_of(&["t".into(), 111i64.into()]).unwrap();
        assert!((p - 0.6).abs() < 1e-12, "expected 0.6, got {p}");
        // And the naive evaluator agrees.
        let naive = dirty
            .clean_answers_with(
                "select l.id, l.cardid from loyaltycard l, customer c \
                 where l.custfk = c.id and c.income > 100000",
                EvalStrategy::Naive(NaiveOptions::default()),
            )
            .unwrap();
        assert!(ans.approx_same(&naive, 1e-9));
    }

    #[test]
    fn offline_cleaning_loses_answers() {
        // The paper's argument against cleaning first: keeping only the
        // most probable tuple per cluster leaves card 111 out entirely.
        let dirty = figure1();
        let mut best = Database::new();
        best.execute_script(
            "CREATE TABLE loyaltycard (id TEXT, cardid INTEGER, custfk TEXT, prob DOUBLE);
             INSERT INTO loyaltycard VALUES ('t', 111, 'c2', 1.0);
             CREATE TABLE customer (id TEXT, name TEXT, income INTEGER, prob DOUBLE);
             INSERT INTO customer VALUES
               ('c1', 'John', 120000, 1.0),
               ('c2', 'Marion', 40000, 1.0);",
        )
        .unwrap();
        let cleaned = best
            .prepare(
                "select l.cardid from loyaltycard l, customer c \
                 where l.custfk = c.id and c.income > 100000",
            )
            .unwrap()
            .query(&best)
            .unwrap();
        assert!(cleaned.is_empty(), "offline cleaning misses card 111");
        // …whereas clean answers still surface it with probability 0.6.
        let ans = dirty
            .clean_answers(
                "select l.id from loyaltycard l, customer c \
                 where l.custfk = c.id and c.income > 100000",
            )
            .unwrap();
        assert_eq!(ans.len(), 1);
    }

    #[test]
    fn auto_falls_back_to_naive() {
        let dirty = figure1();
        // Root identifier (loyaltycard.id) not selected → not rewritable.
        let sql = "select c.id from loyaltycard l, customer c \
                   where l.custfk = c.id and c.income > 100000";
        let err = dirty.clean_answers(sql).unwrap_err();
        assert!(matches!(err, CoreError::NotRewritable(_)));
        let ans = dirty
            .clean_answers_with(sql, EvalStrategy::Auto(NaiveOptions::default()))
            .unwrap();
        // c1 is an answer when the card points at c1 (0.4) and John's
        // income is 120K (0.9): 0.36. c2 when the card points at c2 (0.6)
        // and Mary/140K is chosen (0.4): 0.24.
        assert!((ans.probability_of(&["c1".into()]).unwrap() - 0.36).abs() < 1e-12);
        assert!((ans.probability_of(&["c2".into()]).unwrap() - 0.24).abs() < 1e-12);
    }

    #[test]
    fn consistent_answers_are_probability_one() {
        let dirty = figure1();
        let rows = dirty
            .consistent_answers("select id from customer c where income > 50000")
            .unwrap();
        // c1 always earns >50K (120K or 80K); c2 only with Mary (0.4).
        assert_eq!(rows, vec![vec!["c1".into()]]);

        // The same on clusters an external matcher supplied: identifiers
        // arrive through `APPLY CROSSREF` (Section 2.1), then uniform
        // probabilities per cluster. Both 'an%' tuples are in c1, so c1 is
        // an answer in every candidate database.
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE customer (id TEXT, custkey INTEGER, name TEXT, prob DOUBLE);
             INSERT INTO customer VALUES
               ('', 101, 'ann', 0.0), ('', 102, 'anne', 0.0), ('', 103, 'bob', 0.0);
             CREATE TABLE xref (orig INTEGER, cluster TEXT);
             INSERT INTO xref VALUES (101, 'c1'), (102, 'c1'), (103, 'c2');
             APPLY CROSSREF xref (orig, cluster) TO customer (custkey, id);
             UPDATE customer SET prob = 0.5 WHERE id = 'c1';
             UPDATE customer SET prob = 1.0 WHERE id = 'c2';
             DROP TABLE xref;",
        )
        .unwrap();
        let dirty = DirtyDatabase::new(db, DirtySpec::uniform(&["customer"])).unwrap();
        let sql = "SELECT id FROM customer WHERE name LIKE 'an%'";
        let ans = dirty.clean_answers(sql).unwrap();
        assert!((ans.probability_of(&["c1".into()]).unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(
            dirty.consistent_answers(sql).unwrap(),
            vec![vec!["c1".into()]]
        );
    }

    #[test]
    fn validation_rejects_broken_probabilities() {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE t (id TEXT, prob DOUBLE);
             INSERT INTO t VALUES ('a', 0.5), ('a', 0.1);",
        )
        .unwrap();
        let err = DirtyDatabase::new(db, DirtySpec::uniform(&["t"])).unwrap_err();
        assert!(matches!(err, CoreError::InvalidDirty(_)));
    }

    #[test]
    fn candidate_count_and_clusters() {
        let dirty = figure1();
        assert_eq!(dirty.candidate_count(None).unwrap(), 8);
        assert_eq!(
            dirty
                .candidate_count(Some(&["customer".to_string()]))
                .unwrap(),
            4
        );
        let cl = dirty.clusters("customer").unwrap();
        assert_eq!(cl.len(), 2);
    }

    #[test]
    fn rewrite_is_inspectable() {
        let dirty = figure1();
        let rw = dirty
            .rewrite("select id from customer c where income > 100000")
            .unwrap();
        assert_eq!(
            rw.to_string(),
            "SELECT id, SUM(c.prob) AS probability FROM customer c \
             WHERE income > 100000 GROUP BY id"
        );
    }

    #[test]
    fn topk_returns_most_probable_answers() {
        let dirty = figure1();
        // All customers with any income: c1 and c2 both certain; restrict
        // to a predicate that differentiates them.
        let sql = "select id from customer c where income > 100000";
        let top1 = dirty.clean_answers_topk(sql, 1).unwrap();
        assert_eq!(top1.len(), 1);
        assert_eq!(top1.rows[0].0, vec![conquer_storage::Value::text("c1")]);
        assert!((top1.rows[0].1 - 0.9).abs() < 1e-12);
        let top5 = dirty.clean_answers_topk(sql, 5).unwrap();
        assert_eq!(top5.len(), 2, "k larger than the answer set returns all");
        assert!(top5.rows[0].1 >= top5.rows[1].1, "ranked by probability");
    }

    #[test]
    fn threshold_filters_inside_sql() {
        let dirty = figure1();
        let sql = "select id from customer c where income > 100000";
        let all = dirty.clean_answers(sql).unwrap();
        assert_eq!(all.len(), 2); // 0.9 and 0.4
        let confident = dirty.clean_answers_above(sql, 0.5).unwrap();
        assert_eq!(confident.len(), 1);
        assert!((confident.rows[0].1 - 0.9).abs() < 1e-12);
        let none = dirty.clean_answers_above(sql, 0.95).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn rewritable_check_reports_reason() {
        let dirty = figure1();
        let err = dirty
            .check_rewritable("select name from customer c")
            .unwrap_err();
        match err {
            CoreError::NotRewritable(r) => {
                assert!(r.violates(crate::error::Def7Clause::RootIdProjected), "{r}")
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn analyze_warns_about_naive_fallback_with_candidate_count() {
        let dirty = figure1();
        // Root identifier not selected → not rewritable; the two FROM
        // relations induce 2 × 4 = 8 candidate databases.
        let sql = "select c.id from loyaltycard l, customer c \
                   where l.custfk = c.id and c.income > 100000";
        let diags = dirty.analyze(sql);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code.as_str(), "CQ1007");
        assert!(!diags[0].is_error());
        assert!(
            diags[0].message.contains("~8 candidate"),
            "{}",
            diags[0].message
        );
        let help = diags[0].help.as_deref().unwrap_or("");
        assert!(help.contains("Definition 7"), "{help}");
        // A rewritable query gets no fallback warning.
        assert!(dirty
            .analyze(
                "select l.id from loyaltycard l, customer c \
                 where l.custfk = c.id and c.income > 100000"
            )
            .is_empty());
    }
}
