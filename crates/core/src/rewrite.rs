//! The `RewriteClean` query rewriting (Figure 4 of the paper).
//!
//! Given a rewritable SPJ query
//!
//! ```sql
//! SELECT A1, …, An FROM R1, …, Rm WHERE W
//! ```
//!
//! produce
//!
//! ```sql
//! SELECT A1, …, An, SUM(R1.prob * … * Rm.prob) AS probability
//! FROM R1, …, Rm WHERE W
//! GROUP BY A1, …, An
//! ```
//!
//! The rewriting is purely syntactic (AST → AST) and engine-independent —
//! the paper's key practical point is that clean answers come out of an
//! ordinary SQL engine at ordinary SQL cost. `ORDER BY` and `LIMIT` are
//! carried through; within the rewritable class the query has no grouping,
//! aggregates or DISTINCT to preserve.

use conquer_sql::{AggFunc, Expr, SelectItem, SelectStatement};
use conquer_storage::Catalog;

use crate::graph::check_rewritable;
use crate::spec::DirtySpec;
use crate::Result;

/// Name given to the appended probability column (uniquified on collision).
pub const PROBABILITY_COLUMN: &str = "probability";

/// The `RewriteClean` transformation.
#[derive(Debug, Clone, Default)]
pub struct RewriteClean;

impl RewriteClean {
    /// Check the query is rewritable (Definition 7) and rewrite it.
    pub fn rewrite(
        &self,
        catalog: &Catalog,
        spec: &DirtySpec,
        stmt: &SelectStatement,
    ) -> Result<SelectStatement> {
        check_rewritable(catalog, spec, stmt)?;
        self.rewrite_unchecked(spec, stmt)
    }

    /// Apply Figure 4 without the rewritability check.
    ///
    /// Useful to demonstrate (as the paper's Example 7 does) that the
    /// grouping-and-summing strategy returns *wrong* probabilities outside
    /// the rewritable class.
    pub fn rewrite_unchecked(
        &self,
        spec: &DirtySpec,
        stmt: &SelectStatement,
    ) -> Result<SelectStatement> {
        let mut out = stmt.clone();

        // SUM(R1.prob * … * Rm.prob)
        let mut prob_factors = Vec::with_capacity(stmt.from.len());
        for tref in &stmt.from {
            let meta = spec.require(&tref.table)?;
            prob_factors.push(Expr::qualified(tref.binding_name(), &meta.prob_column));
        }
        if prob_factors.len() >= 2 && conquer_sync::mutant("rewrite::drop-factor") {
            // Seeded mutant: forget one relation's probability, so every
            // join answer is weighted by too few factors. The clean-answer
            // oracle catches it.
            prob_factors.pop();
        }
        let sum = Expr::Aggregate {
            func: AggFunc::Sum,
            arg: Some(Box::new(Expr::product(prob_factors))),
            distinct: false,
        };

        // GROUP BY the projected attributes (deduplicated).
        let mut group_by: Vec<Expr> = Vec::new();
        for item in &stmt.projection {
            let SelectItem::Expr { expr, .. } = item else {
                return Err(crate::error::NotRewritable::because(
                    crate::error::Def7Clause::SpjShape,
                    "wildcard projections cannot be rewritten; list the attributes explicitly",
                )
                .into());
            };
            if !group_by.contains(expr) {
                group_by.push(expr.clone());
            }
        }
        out.group_by = group_by;

        out.projection.push(SelectItem::Expr {
            expr: sum,
            alias: Some(self.probability_alias(stmt)),
        });
        Ok(out)
    }

    /// Pick an output name for the probability column that does not collide
    /// with existing projection names.
    fn probability_alias(&self, stmt: &SelectStatement) -> String {
        let existing: Vec<String> = stmt
            .projection
            .iter()
            .filter_map(|i| match i {
                SelectItem::Expr { alias: Some(a), .. } => Some(a.clone()),
                SelectItem::Expr {
                    expr: Expr::Column(c),
                    alias: None,
                } => Some(c.name.clone()),
                _ => None,
            })
            .collect();
        let mut name = PROBABILITY_COLUMN.to_string();
        let mut i = 1;
        while existing.contains(&name) {
            name = format!("{PROBABILITY_COLUMN}_{i}");
            i += 1;
        }
        name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conquer_sql::parse_select;

    fn spec() -> DirtySpec {
        DirtySpec::uniform(&["customer", "orders"])
    }

    #[test]
    fn example5_rewriting() {
        // Paper Example 5: single-relation query.
        let q = parse_select("select id from customer c where balance > 10000").unwrap();
        let rw = RewriteClean.rewrite_unchecked(&spec(), &q).unwrap();
        assert_eq!(
            rw.to_string(),
            "SELECT id, SUM(c.prob) AS probability FROM customer c \
             WHERE balance > 10000 GROUP BY id"
        );
    }

    #[test]
    fn example6_rewriting() {
        // Paper Example 6: foreign-key join.
        let q = parse_select(
            "select o.id, c.id from orders o, customer c \
             where o.cidfk = c.id and c.balance > 10000",
        )
        .unwrap();
        let rw = RewriteClean.rewrite_unchecked(&spec(), &q).unwrap();
        assert_eq!(
            rw.to_string(),
            "SELECT o.id, c.id, SUM(o.prob * c.prob) AS probability \
             FROM orders o, customer c \
             WHERE o.cidfk = c.id AND c.balance > 10000 GROUP BY o.id, c.id"
        );
    }

    #[test]
    fn order_by_and_limit_carried_through() {
        let q = parse_select(
            "select o.id from orders o where o.quantity > 1 order by o.id desc limit 7",
        )
        .unwrap();
        let rw = RewriteClean.rewrite_unchecked(&spec(), &q).unwrap();
        assert!(
            rw.to_string()
                .ends_with("GROUP BY o.id ORDER BY o.id DESC LIMIT 7"),
            "{rw}"
        );
    }

    #[test]
    fn expression_projections_grouped() {
        let q = parse_select("select o.id, o.quantity * 2 as dbl from orders o").unwrap();
        let rw = RewriteClean.rewrite_unchecked(&spec(), &q).unwrap();
        assert_eq!(rw.group_by.len(), 2);
        assert_eq!(rw.group_by[1].to_string(), "o.quantity * 2");
    }

    #[test]
    fn duplicate_projection_grouped_once() {
        let q = parse_select("select o.id, o.id from orders o").unwrap();
        let rw = RewriteClean.rewrite_unchecked(&spec(), &q).unwrap();
        assert_eq!(rw.group_by.len(), 1);
    }

    #[test]
    fn probability_alias_uniquified() {
        let q = parse_select("select o.id as probability from orders o").unwrap();
        let rw = RewriteClean.rewrite_unchecked(&spec(), &q).unwrap();
        let SelectItem::Expr { alias: Some(a), .. } = rw.projection.last().unwrap() else {
            panic!()
        };
        assert_eq!(a, "probability_1");
    }

    #[test]
    fn wildcard_rejected() {
        let q = parse_select("select * from orders").unwrap();
        assert!(RewriteClean.rewrite_unchecked(&spec(), &q).is_err());
    }

    #[test]
    fn missing_spec_entry_rejected() {
        let q = parse_select("select l.id from lineitem l").unwrap();
        assert!(RewriteClean.rewrite_unchecked(&spec(), &q).is_err());
    }
}
