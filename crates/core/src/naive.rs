//! Naive clean-answer evaluation by candidate-database enumeration
//! (Definitions 3–5, applied literally).
//!
//! The number of candidate databases is the product of all cluster sizes —
//! exponential in the number of clusters — so this evaluator is only usable
//! on small databases. It serves three purposes:
//!
//! 1. the **correctness oracle** for `RewriteClean` (property-tested:
//!    rewritten answers == naive answers on every rewritable query);
//! 2. evaluating **non-rewritable** queries such as the paper's Example 7;
//! 3. reproducing the paper's worked examples (the eight candidate
//!    databases of Example 2 with their probabilities of Example 3).

use std::collections::{HashMap, HashSet};

use conquer_engine::Database;
use conquer_sql::SelectStatement;
use conquer_storage::{Catalog, Row, Table, Value};

use crate::answers::CleanAnswers;
use crate::error::CoreError;
use crate::spec::DirtySpec;
use crate::Result;

/// Limits for naive evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NaiveOptions {
    /// Refuse to enumerate more candidate databases than this.
    pub max_candidates: u128,
}

impl Default for NaiveOptions {
    fn default() -> Self {
        NaiveOptions {
            max_candidates: 1 << 20,
        }
    }
}

/// One cluster of a dirty relation: its identifier value and the positions
/// of its member rows.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The shared identifier value.
    pub id: Value,
    /// Row positions within the table, in insertion order.
    pub rows: Vec<usize>,
}

/// Extract the clusters of a table under the spec, sorted by identifier for
/// deterministic enumeration order.
pub fn clusters_of(table: &Table, spec: &DirtySpec) -> Result<Vec<Cluster>> {
    let meta = spec.require(table.name())?;
    let id_col = table.column_index(&meta.id_column)?;
    let mut by_id: HashMap<Value, Vec<usize>> = HashMap::new();
    for (i, row) in table.shared_rows().iter().enumerate() {
        by_id.entry(row[id_col].clone()).or_default().push(i);
    }
    let mut out: Vec<Cluster> = by_id
        .into_iter()
        .map(|(id, rows)| Cluster { id, rows })
        .collect();
    out.sort_by(|a, b| a.id.cmp(&b.id));
    Ok(out)
}

/// An enumerator of candidate databases for a set of dirty relations.
///
/// Iterating yields each candidate's catalog and probability; the catalogs
/// of relations *not* in `tables` are carried through unchanged (their
/// choices are independent of the query and integrate to probability 1).
pub struct CandidateDatabases {
    base: Catalog,
    /// Per dirty table: name, prob column index, clusters.
    parts: Vec<TablePart>,
    /// Odometer over all clusters (flattened across tables).
    odometer: Vec<usize>,
    /// Cluster boundaries: (table index, cluster index) per odometer digit.
    digits: Vec<(usize, usize)>,
    done: bool,
}

struct TablePart {
    name: String,
    prob_col: usize,
    clusters: Vec<Cluster>,
}

impl CandidateDatabases {
    /// Build an enumerator over the listed tables of `catalog`.
    pub fn new(catalog: &Catalog, spec: &DirtySpec, tables: &[String]) -> Result<Self> {
        let mut parts = Vec::new();
        for name in tables {
            let table = catalog.table(name)?;
            let meta = spec.require(name)?;
            let prob_col = table.column_index(&meta.prob_column)?;
            parts.push(TablePart {
                name: table.name().to_string(),
                prob_col,
                clusters: clusters_of(table, spec)?,
            });
        }
        let mut digits = Vec::new();
        for (ti, p) in parts.iter().enumerate() {
            for ci in 0..p.clusters.len() {
                digits.push((ti, ci));
            }
        }
        Ok(CandidateDatabases {
            base: catalog.clone(),
            odometer: vec![0; digits.len()],
            parts,
            digits,
            done: false,
        })
    }

    /// Total number of candidate databases (product of cluster sizes).
    ///
    /// (Named to avoid shadowing by `Iterator::count`, which consumes the
    /// enumerator.)
    pub fn total_candidates(&self) -> u128 {
        self.parts
            .iter()
            .flat_map(|p| p.clusters.iter())
            .map(|c| c.rows.len() as u128)
            .product()
    }

    /// Materialize the candidate selected by the current odometer.
    ///
    /// `None` is unreachable by construction (tables, cluster row indices,
    /// and schemas all come from `base` itself) but propagated instead of
    /// panicking so the iterator simply ends if that invariant ever breaks.
    fn current(&self) -> Option<(Catalog, f64)> {
        let mut catalog = self.base.clone();
        let mut probability = 1.0;
        for (ti, part) in self.parts.iter().enumerate() {
            let base_table = self.base.table(&part.name).ok()?;
            let mut table = Table::new(part.name.clone(), base_table.schema().clone());
            for (digit, (dti, ci)) in self.digits.iter().enumerate() {
                if *dti != ti {
                    continue;
                }
                let cluster = &part.clusters[*ci];
                let row_idx = cluster.rows[self.odometer[digit]];
                let row = base_table.shared_rows().get(row_idx)?.clone();
                probability *= row[part.prob_col].as_f64().unwrap_or(0.0);
                table.insert(row).ok()?;
            }
            catalog.replace_table(table);
        }
        Some((catalog, probability))
    }

    fn advance(&mut self) {
        for digit in (0..self.odometer.len()).rev() {
            let (ti, ci) = self.digits[digit];
            let size = self.parts[ti].clusters[ci].rows.len();
            self.odometer[digit] += 1;
            if self.odometer[digit] < size {
                return;
            }
            self.odometer[digit] = 0;
        }
        self.done = true;
    }
}

impl Iterator for CandidateDatabases {
    /// `(candidate catalog, probability of being the clean database)`.
    type Item = (Catalog, f64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let item = self.current()?;
        self.advance();
        Some(item)
    }
}

/// Evaluate clean answers by full candidate enumeration (Definition 5).
///
/// For each candidate database, the query's *distinct* answer tuples receive
/// the candidate's probability; an answer's final probability is the sum
/// over the candidates that produce it.
pub fn naive_clean_answers(
    catalog: &Catalog,
    spec: &DirtySpec,
    stmt: &SelectStatement,
    options: NaiveOptions,
) -> Result<CleanAnswers> {
    // Only the relations the query references need enumerating; all other
    // relations' cluster choices cannot affect the answer and their
    // probabilities marginalize to 1.
    let mut tables: Vec<String> = stmt.from.iter().map(|t| t.table.clone()).collect();
    tables.sort();
    tables.dedup();

    let candidates = CandidateDatabases::new(catalog, spec, &tables)?;
    let total = candidates.total_candidates();
    if total > options.max_candidates {
        return Err(CoreError::TooManyCandidates {
            candidates: total,
            limit: options.max_candidates,
        });
    }

    let mut columns: Option<Vec<String>> = None;
    let mut order: Vec<Row> = Vec::new();
    let mut probs: HashMap<Row, f64> = HashMap::new();

    for (candidate, probability) in candidates {
        let db = Database::from_catalog(candidate);
        let result = db.prepare_select(stmt)?.query(&db)?;
        if columns.is_none() {
            columns = Some(result.columns.clone());
        }
        // Set semantics per candidate: a tuple is "an answer of this
        // candidate" regardless of its multiplicity.
        let distinct: HashSet<Row> = result.rows.into_iter().collect();
        for row in distinct {
            match probs.get_mut(&row) {
                Some(p) => *p += probability,
                None => {
                    probs.insert(row.clone(), probability);
                    order.push(row);
                }
            }
        }
    }

    let columns = match columns {
        Some(c) => c,
        // Zero candidates can only happen with an empty dirty table; run
        // the query once on the base catalog just for the column names.
        None => {
            let db = Database::from_catalog(catalog.clone());
            db.prepare_select(stmt)?.query(&db)?.columns
        }
    };
    let rows = order
        .into_iter()
        .map(|r| (probs[&r], r))
        .map(|(p, r)| (r, p))
        .collect();
    Ok(CleanAnswers::new(columns, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use conquer_sql::parse_select;

    /// The dirty database of the paper's Figure 2.
    fn figure2() -> (Catalog, DirtySpec) {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE orders (id TEXT, orderid TEXT, custfk TEXT, cidfk TEXT, quantity INTEGER, prob DOUBLE);
             INSERT INTO orders VALUES
               ('o1', '11', 'm1', 'c1', 3, 1.0),
               ('o2', '12', 'm2', 'c1', 2, 0.5),
               ('o2', '13', 'm3', 'c2', 5, 0.5);
             CREATE TABLE customer (id TEXT, custid TEXT, name TEXT, balance INTEGER, prob DOUBLE);
             INSERT INTO customer VALUES
               ('c1', 'm1', 'John', 20000, 0.7),
               ('c1', 'm2', 'John', 30000, 0.3),
               ('c2', 'm3', 'Mary', 27000, 0.2),
               ('c2', 'm4', 'Marion', 5000, 0.8);",
        )
        .unwrap();
        (
            db.catalog().clone(),
            DirtySpec::uniform(&["orders", "customer"]),
        )
    }

    #[test]
    fn eight_candidates_with_example3_probabilities() {
        let (cat, spec) = figure2();
        let cands =
            CandidateDatabases::new(&cat, &spec, &["orders".to_string(), "customer".to_string()])
                .unwrap();
        assert_eq!(cands.total_candidates(), 8);
        let mut probs: Vec<f64> = cands.map(|(_, p)| p).collect();
        assert_eq!(probs.len(), 8);
        let total: f64 = probs.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-12,
            "candidate probabilities sum to 1, got {total}"
        );
        // Example 3's multiset {.07, .28, .03, .12, .07, .28, .03, .12}.
        probs.sort_by(f64::total_cmp);
        let expected = [0.03, 0.03, 0.07, 0.07, 0.12, 0.12, 0.28, 0.28];
        for (a, b) in probs.iter().zip(expected) {
            assert!((a - b).abs() < 1e-12, "{probs:?}");
        }
    }

    #[test]
    fn example4_clean_answers() {
        // q1: customers with balance > $10K → {(c1, 1), (c2, 0.2)}.
        let (cat, spec) = figure2();
        let q = parse_select("select id from customer c where balance > 10000").unwrap();
        let ans = naive_clean_answers(&cat, &spec, &q, NaiveOptions::default()).unwrap();
        assert_eq!(ans.len(), 2);
        assert!((ans.probability_of(&["c1".into()]).unwrap() - 1.0).abs() < 1e-12);
        assert!((ans.probability_of(&["c2".into()]).unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn example6_clean_answers() {
        // q2: orders joined with customers with balance > $10K.
        let (cat, spec) = figure2();
        let q = parse_select(
            "select o.id, c.id from orders o, customer c \
             where o.cidfk = c.id and c.balance > 10000",
        )
        .unwrap();
        let ans = naive_clean_answers(&cat, &spec, &q, NaiveOptions::default()).unwrap();
        let p = |o: &str, c: &str| ans.probability_of(&[o.into(), c.into()]).unwrap();
        assert!((p("o1", "c1") - 1.0).abs() < 1e-12);
        assert!((p("o2", "c1") - 0.5).abs() < 1e-12);
        assert!((p("o2", "c2") - 0.1).abs() < 1e-12);
    }

    #[test]
    fn example7_clean_answers_where_grouping_fails() {
        // q3 is NOT rewritable; the naive evaluator still answers it:
        // c1 with probability 0.3, c2 not an answer (probability 0).
        let (cat, spec) = figure2();
        let q = parse_select(
            "select c.id from orders o, customer c \
             where o.quantity < 5 and o.cidfk = c.id and c.balance > 25000",
        )
        .unwrap();
        let ans = naive_clean_answers(&cat, &spec, &q, NaiveOptions::default()).unwrap();
        assert!((ans.probability_of(&["c1".into()]).unwrap() - 0.3).abs() < 1e-12);
        // c2 never satisfies the query in any candidate.
        assert!(ans.probability_of(&["c2".into()]).unwrap_or(0.0) < 1e-12);
    }

    #[test]
    fn candidate_limit_enforced() {
        let (cat, spec) = figure2();
        let q = parse_select("select id from customer").unwrap();
        let err =
            naive_clean_answers(&cat, &spec, &q, NaiveOptions { max_candidates: 2 }).unwrap_err();
        assert!(matches!(
            err,
            CoreError::TooManyCandidates {
                candidates: 4,
                limit: 2
            }
        ));
    }

    #[test]
    fn unreferenced_tables_not_enumerated() {
        // Query touches only customer (4 candidates), not orders (x2).
        let (cat, spec) = figure2();
        let q = parse_select("select id from customer").unwrap();
        // max_candidates = 4 suffices ⇒ orders' clusters were not included.
        let ans = naive_clean_answers(&cat, &spec, &q, NaiveOptions { max_candidates: 4 }).unwrap();
        assert_eq!(ans.len(), 2);
        assert!((ans.total_probability() - 2.0).abs() < 1e-12); // both ids certain
    }

    #[test]
    fn clusters_sorted_and_complete() {
        let (cat, spec) = figure2();
        let cl = clusters_of(cat.table("customer").unwrap(), &spec).unwrap();
        assert_eq!(cl.len(), 2);
        assert_eq!(cl[0].id, Value::text("c1"));
        assert_eq!(cl[0].rows, vec![0, 1]);
        assert_eq!(cl[1].rows, vec![2, 3]);
    }

    #[test]
    fn duplicate_answers_within_candidate_counted_once() {
        // Two orders referencing the same (certain) customer: projecting
        // just the customer id yields the same tuple twice per candidate —
        // its probability must still be 1, not 2.
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE o (id TEXT, cidfk TEXT, prob DOUBLE);
             INSERT INTO o VALUES ('o1', 'c1', 1.0), ('o2', 'c1', 1.0);
             CREATE TABLE c (id TEXT, prob DOUBLE);
             INSERT INTO c VALUES ('c1', 1.0);",
        )
        .unwrap();
        let spec = DirtySpec::uniform(&["o", "c"]);
        let q = parse_select("select c.id from o, c where o.cidfk = c.id").unwrap();
        let ans = naive_clean_answers(db.catalog(), &spec, &q, NaiveOptions::default()).unwrap();
        assert_eq!(ans.len(), 1);
        assert!((ans.probability_of(&["c1".into()]).unwrap() - 1.0).abs() < 1e-12);
    }
}
