//! Answer provenance: *why* does a clean answer have its probability?
//!
//! The rewriting's `SUM(R1.prob·…·Rm.prob)` adds up one term per
//! combination of duplicates that joins into the answer (the paper's
//! Example 6 walks exactly this table: "(o2, c1) | 0.35 | join of
//! (o2,c1),(c1,$20K)" etc.). [`explain_answer`] reconstructs that table for
//! one answer tuple, so a user inspecting a surprising probability can see
//! which duplicate representations support it and by how much.

use conquer_engine::exact::ExactSum;
use conquer_sql::{Expr, SelectItem, SelectStatement};
use conquer_storage::{Row, Value};

use crate::dirty::DirtyDatabase;
use crate::error::CoreError;
use crate::graph::check_rewritable;
use crate::Result;

/// One supporting duplicate combination for an answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Support {
    /// The probability contribution (`Π prob` of the joined tuples).
    pub probability: f64,
    /// Per FROM-relation: the identifier and probability of the tuple
    /// combination behind this contribution, as `(binding, id, prob)`.
    pub tuples: Vec<(String, Value, f64)>,
}

/// The full explanation of one clean answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The answer tuple explained.
    pub answer: Row,
    /// Its clean-answer probability: the sum of the supports, rounded once
    /// as the rewritten query's `SUM` rounds it.
    pub probability: f64,
    /// The supporting combinations, most probable first.
    pub supports: Vec<Support>,
}

impl std::fmt::Display for Explanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "answer (")?;
        for (i, v) in self.answer.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        writeln!(
            f,
            ") has probability {:.4} from {} combination(s):",
            self.probability,
            self.supports.len()
        )?;
        for s in &self.supports {
            write!(f, "  {:.4}  via", s.probability)?;
            for (binding, id, p) in &s.tuples {
                write!(f, "  {binding}[{id}]@{p:.2}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Explain one clean answer of a rewritable query: every combination of
/// duplicates that produces `answer`, with its probability contribution.
pub fn explain_answer(db: &DirtyDatabase, sql: &str, answer: &[Value]) -> Result<Explanation> {
    let stmt: SelectStatement = conquer_sql::parse_select(sql)?;
    let graph = check_rewritable(db.db().catalog(), db.spec(), &stmt)?;

    if answer.len() != stmt.projection.len() {
        return Err(CoreError::InvalidDirty(format!(
            "answer tuple has {} values but the query projects {} columns",
            answer.len(),
            stmt.projection.len()
        )));
    }

    // Build a probe query: the original projection, plus per relation its
    // identifier and probability columns. Strip ORDER BY/LIMIT — we need
    // every joined row.
    let mut probe = stmt.clone();
    probe.order_by.clear();
    probe.limit = None;
    let n_answer = probe.projection.len();
    for (i, binding) in graph.bindings.iter().enumerate() {
        let id_name = db
            .db()
            .catalog()
            .table(&graph.tables[i])?
            .schema()
            .column_at(graph.id_columns[i])
            .ok_or_else(|| {
                conquer_engine::EngineError::internal(format!(
                    "join graph cites identifier column #{} of {:?}, which does not exist",
                    graph.id_columns[i], graph.tables[i]
                ))
            })?
            .name()
            .to_string();
        let prob_name = db.spec().require(&graph.tables[i])?.prob_column.clone();
        probe.projection.push(SelectItem::Expr {
            expr: Expr::qualified(binding.clone(), id_name),
            alias: Some(format!("__id_{i}")),
        });
        probe.projection.push(SelectItem::Expr {
            expr: Expr::qualified(binding.clone(), prob_name),
            alias: Some(format!("__prob_{i}")),
        });
    }

    let result = db.db().prepare_select(&probe)?.query(db.db())?;
    let mut supports = Vec::new();
    let mut total = ExactSum::new();
    for row in &result.rows {
        if &row[..n_answer] != answer {
            continue;
        }
        let mut probability = 1.0;
        let mut tuples = Vec::with_capacity(graph.bindings.len());
        for (i, binding) in graph.bindings.iter().enumerate() {
            let id = row[n_answer + 2 * i].clone();
            let p = row[n_answer + 2 * i + 1].as_f64().unwrap_or(0.0);
            probability *= p;
            tuples.push((binding.clone(), id, p));
        }
        total.add(probability);
        supports.push(Support {
            probability,
            tuples,
        });
    }
    supports.sort_by(|a, b| b.probability.total_cmp(&a.probability));
    Ok(Explanation {
        answer: answer.to_vec(),
        probability: total.value().unwrap_or(0.0),
        supports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DirtyDatabase, DirtySpec};
    use conquer_engine::Database;

    /// The Figure-2 database of the paper.
    fn figure2() -> DirtyDatabase {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE orders (id TEXT, cidfk TEXT, quantity INTEGER, prob DOUBLE);
             INSERT INTO orders VALUES
               ('o1', 'c1', 3, 1.0), ('o2', 'c1', 2, 0.5), ('o2', 'c2', 5, 0.5);
             CREATE TABLE customer (id TEXT, name TEXT, balance INTEGER, prob DOUBLE);
             INSERT INTO customer VALUES
               ('c1', 'John', 20000, 0.7), ('c1', 'John', 30000, 0.3),
               ('c2', 'Mary', 27000, 0.2), ('c2', 'Marion', 5000, 0.8);",
        )
        .unwrap();
        DirtyDatabase::new(db, DirtySpec::uniform(&["orders", "customer"])).unwrap()
    }

    #[test]
    fn example6_support_table_reconstructed() {
        // The paper's Example 6 prints (o2,c1): 0.35 + 0.15 = 0.50 from the
        // joins with (c1,$20K) and (c1,$30K).
        let dirty = figure2();
        let sql = "select o.id, c.id from orders o, customer c \
                   where o.cidfk = c.id and c.balance > 10000";
        let exp = explain_answer(&dirty, sql, &["o2".into(), "c1".into()]).unwrap();
        assert!((exp.probability - 0.5).abs() < 1e-12);
        assert_eq!(exp.supports.len(), 2);
        assert!((exp.supports[0].probability - 0.35).abs() < 1e-12);
        assert!((exp.supports[1].probability - 0.15).abs() < 1e-12);
        // Each support names both relations' tuples.
        assert_eq!(exp.supports[0].tuples.len(), 2);
        assert_eq!(exp.supports[0].tuples[0].0, "o");
        assert_eq!(exp.supports[0].tuples[1].0, "c");
        let text = exp.to_string();
        assert!(text.contains("0.3500"), "{text}");
    }

    #[test]
    fn certain_answer_sums_to_one() {
        let dirty = figure2();
        let sql = "select o.id, c.id from orders o, customer c \
                   where o.cidfk = c.id and c.balance > 10000";
        let exp = explain_answer(&dirty, sql, &["o1".into(), "c1".into()]).unwrap();
        assert!((exp.probability - 1.0).abs() < 1e-12);
        assert_eq!(exp.supports.len(), 2); // both c1 representations qualify
    }

    #[test]
    fn absent_answer_has_no_support() {
        let dirty = figure2();
        let sql = "select o.id, c.id from orders o, customer c where o.cidfk = c.id";
        let exp = explain_answer(&dirty, sql, &["o1".into(), "c2".into()]).unwrap();
        assert_eq!(exp.supports.len(), 0);
        assert_eq!(exp.probability, 0.0);
    }

    #[test]
    fn explanation_total_matches_clean_answer() {
        let figure2 = figure2();
        // A cluster whose probabilities sum to 0.9999999999999999 when
        // added left to right in f64, and to 1.0 when rounded once.
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE c (id TEXT, v INTEGER, prob DOUBLE);
             INSERT INTO c VALUES ('c1', 1, 0.2), ('c1', 2, 0.7), ('c1', 3, 0.1);",
        )
        .unwrap();
        let cluster = DirtyDatabase::new(db, DirtySpec::uniform(&["c"])).unwrap();
        let cases = [
            (
                &figure2,
                "select o.id, c.id from orders o, customer c \
                 where o.cidfk = c.id and c.balance > 10000",
            ),
            (&cluster, "select id from c where v > 0"),
        ];
        for (dirty, sql) in cases {
            let answers = dirty.clean_answers(sql).unwrap();
            assert!(!answers.rows.is_empty(), "{sql}");
            for (row, p) in &answers.rows {
                let exp = explain_answer(dirty, sql, row).unwrap();
                assert_eq!(
                    exp.probability.to_bits(),
                    p.to_bits(),
                    "explanation of {row:?} totals {} but the answer says {p}",
                    exp.probability
                );
            }
        }
    }

    #[test]
    fn wrong_arity_and_non_rewritable_rejected() {
        let dirty = figure2();
        let sql = "select o.id, c.id from orders o, customer c where o.cidfk = c.id";
        assert!(explain_answer(&dirty, sql, &["o1".into()]).is_err());
        let bad = "select c.id from orders o, customer c where o.cidfk = c.id";
        assert!(matches!(
            explain_answer(&dirty, bad, &["c1".into()]),
            Err(CoreError::NotRewritable(_))
        ));
    }
}
