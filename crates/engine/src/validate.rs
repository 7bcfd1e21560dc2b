//! Plan-invariant validator.
//!
//! A structural audit of bound queries and physical plans, run after
//! binding and after every planner stage. It asserts the invariants the
//! executor silently relies on — every column reference resolves in its
//! operator's input, join keys come from the correct side and have
//! comparable types, slot-space expressions fit the aggregate arity,
//! operator layouts partition the FROM relations, a product-sum's factors
//! are the `DOUBLE` columns its argument multiplies — and fails with a typed
//! [`EngineError::Internal`] *naming the violated invariant* instead of
//! letting a malformed plan panic (or worse, return wrong answers) deep
//! inside execution.
//!
//! # When it runs
//!
//! Always, in every build. The checks are pure tree walks over plan
//! structure — no table data is read — so the cost is microseconds per
//! prepare, not per row.

use conquer_storage::DataType;

use crate::analyze::cmp_class;
use crate::binder::{column_type, product_columns, AggCall, BoundRelation, BoundSelect, GroupSpec};
use crate::error::EngineError;
use crate::expr::BoundExpr;
use crate::planner::{JoinNode, Plan};
use crate::Result;

fn violation(invariant: &str, stage: &str, detail: impl std::fmt::Display) -> EngineError {
    EngineError::internal(format!(
        "plan invariant `{invariant}` violated after {stage}: {detail}"
    ))
}

/// Slot-space width of an aggregate query: `[keys…, aggs…]`.
fn slot_width(group: &GroupSpec) -> usize {
    group.keys.len() + group.aggs.len()
}

/// Invariant `column-resolves`: every column id in a relation-space
/// expression names an existing relation and an existing column of its
/// base schema.
fn check_rel_space(
    e: &BoundExpr,
    relations: &[BoundRelation],
    stage: &str,
    what: &str,
) -> Result<()> {
    for id in e.columns() {
        let Some(rel) = relations.get(id.rel) else {
            return Err(violation(
                "column-resolves",
                stage,
                format!(
                    "{what} references relation {} but the query has {}",
                    id.rel,
                    relations.len()
                ),
            ));
        };
        if id.col >= rel.schema.len() {
            return Err(violation(
                "column-resolves",
                stage,
                format!(
                    "{what} references column {} of relation {:?}, whose schema has {} columns",
                    id.col,
                    rel.binding,
                    rel.schema.len()
                ),
            ));
        }
    }
    Ok(())
}

/// Invariant `aggregate-arity`: slot-space expressions (post-aggregation)
/// use the synthetic relation 0 and stay inside `keys + aggs`.
fn check_slot_space(e: &BoundExpr, width: usize, stage: &str, what: &str) -> Result<()> {
    for id in e.columns() {
        if id.rel != 0 {
            return Err(violation(
                "aggregate-arity",
                stage,
                format!("{what} is in slot space but references relation {}", id.rel),
            ));
        }
        if id.col >= width {
            return Err(violation(
                "aggregate-arity",
                stage,
                format!(
                    "{what} references slot {} but the aggregate produces {width} (keys + aggregates)",
                    id.col
                ),
            ));
        }
    }
    Ok(())
}

/// Invariant `product-sum`: a call the executor folds as a product-sum
/// is a non-`DISTINCT` `SUM` of at least two factors, each a `DOUBLE`
/// column of a query relation (so every cell is `Value::Float` or NULL),
/// and its argument is exactly their left-deep product.
fn check_product_sum(
    a: &AggCall,
    relations: &[BoundRelation],
    stage: &str,
    i: usize,
) -> Result<()> {
    let fail = |detail: String| {
        Err(violation(
            "product-sum",
            stage,
            format!("aggregate {i} {detail}"),
        ))
    };
    if a.func != conquer_sql::AggFunc::Sum || a.distinct {
        return fail(format!(
            "is a {}{} with product-sum factors",
            if a.distinct { "DISTINCT " } else { "" },
            a.func.name()
        ));
    }
    if a.factors.len() < 2 {
        return fail(format!(
            "has {} product-sum factor(s), not at least 2",
            a.factors.len()
        ));
    }
    for id in &a.factors {
        if column_type(relations, *id) != Some(DataType::Float) {
            return fail(format!(
                "has factor column {} of relation {}, which is not a DOUBLE column of the query",
                id.col, id.rel
            ));
        }
    }
    if a.arg.as_ref().and_then(product_columns).as_ref() != Some(&a.factors) {
        return fail(format!(
            "multiplies factors {:?} but its argument is not their left-deep product",
            a.factors
        ));
    }
    Ok(())
}

/// Stage hook: after the planner classifies WHERE conjuncts into
/// pushed-down scan filters, equi-join edges, and residuals, every piece
/// must still be in relation space and filed under a relation it actually
/// references.
pub(crate) fn check_classified(
    scan_filters: &[Vec<BoundExpr>],
    edges: &[crate::planner::EquiEdge],
    residuals: &[BoundExpr],
    relations: &[BoundRelation],
) -> Result<()> {
    let stage = "conjunct classification";
    for (rel, filters) in scan_filters.iter().enumerate() {
        for f in filters {
            check_rel_space(f, relations, stage, "pushed-down filter")?;
            if f.relations().iter().any(|r| *r != rel) {
                return Err(violation(
                    "scan-filter-local",
                    stage,
                    format!(
                        "filter classified to relation {rel} references relations {:?}",
                        f.relations()
                    ),
                ));
            }
        }
    }
    for (i, edge) in edges.iter().enumerate() {
        check_rel_space(&edge.exprs.0, relations, stage, "equi-edge side")?;
        check_rel_space(&edge.exprs.1, relations, stage, "equi-edge side")?;
        if edge.exprs.0.relations() != vec![edge.rels.0]
            || edge.exprs.1.relations() != vec![edge.rels.1]
        {
            return Err(violation(
                "join-key-sides",
                stage,
                format!(
                    "equi edge {i} claims relations {:?} but its sides reference {:?} and {:?}",
                    edge.rels,
                    edge.exprs.0.relations(),
                    edge.exprs.1.relations()
                ),
            ));
        }
    }
    for r in residuals {
        check_rel_space(r, relations, stage, "residual predicate")?;
    }
    Ok(())
}

/// Validate a join (sub)tree: layouts partition their relations, scan
/// filters are local, join keys resolve on their own side with agreeing
/// types, residual filters stay inside the joined layout.
pub(crate) fn check_join_node(
    node: &JoinNode,
    relations: &[BoundRelation],
    stage: &str,
) -> Result<()> {
    match node {
        JoinNode::Scan { rel, filter } => {
            if relations.get(*rel).is_none() {
                return Err(violation(
                    "scan-relation",
                    stage,
                    format!(
                        "scan of relation {rel} but the query has {}",
                        relations.len()
                    ),
                ));
            }
            if let Some(f) = filter {
                check_rel_space(f, relations, stage, "scan filter")?;
                if f.relations().iter().any(|r| r != rel) {
                    return Err(violation(
                        "scan-filter-local",
                        stage,
                        format!(
                            "filter on scan of relation {rel} references relations {:?}",
                            f.relations()
                        ),
                    ));
                }
            }
            Ok(())
        }
        JoinNode::Join {
            left,
            right,
            equi,
            filter,
        } => {
            check_join_node(left, relations, stage)?;
            check_join_node(right, relations, stage)?;
            let lhs = left.layout();
            let rhs = right.layout();
            if lhs.iter().any(|r| rhs.contains(r)) {
                return Err(violation(
                    "layout-disjoint",
                    stage,
                    format!("join inputs overlap: left {lhs:?}, right {rhs:?}"),
                ));
            }
            for (i, (le, re)) in equi.iter().enumerate() {
                check_rel_space(le, relations, stage, "join key (left)")?;
                check_rel_space(re, relations, stage, "join key (right)")?;
                if !le.relations().iter().all(|r| lhs.contains(r)) {
                    return Err(violation(
                        "join-key-sides",
                        stage,
                        format!(
                            "left key {i} references relations {:?} outside the left layout {lhs:?}",
                            le.relations()
                        ),
                    ));
                }
                if !re.relations().iter().all(|r| rhs.contains(r)) {
                    return Err(violation(
                        "join-key-sides",
                        stage,
                        format!(
                            "right key {i} references relations {:?} outside the right layout {rhs:?}",
                            re.relations()
                        ),
                    ));
                }
                let column = |id| column_type(relations, id);
                if let (Some(lt), Some(rt)) = (le.data_type(&column), re.data_type(&column)) {
                    if cmp_class(lt) != cmp_class(rt) {
                        return Err(violation(
                            "join-key-types",
                            stage,
                            format!("key {i} compares {} with {}", lt.name(), rt.name()),
                        ));
                    }
                }
            }
            if let Some(f) = filter {
                check_rel_space(f, relations, stage, "residual filter")?;
                let all: Vec<usize> = lhs.iter().chain(rhs.iter()).copied().collect();
                if !f.relations().iter().all(|r| all.contains(r)) {
                    return Err(violation(
                        "filter-in-layout",
                        stage,
                        format!(
                            "residual filter references relations {:?} outside the joined layout {all:?}",
                            f.relations()
                        ),
                    ));
                }
            }
            Ok(())
        }
    }
}

/// Shared checks for the post-join part of a query (group, output, order
/// by) — identical between a [`BoundSelect`] and a [`Plan`].
fn check_shape(
    relations: &[BoundRelation],
    group: &Option<GroupSpec>,
    output: &[crate::binder::OutputItem],
    order_by: &[crate::binder::BoundOrderBy],
    stage: &str,
) -> Result<()> {
    if relations.is_empty() {
        return Err(violation(
            "relations-nonempty",
            stage,
            "query has no FROM relations",
        ));
    }
    if output.is_empty() {
        return Err(violation(
            "output-nonempty",
            stage,
            "query projects no columns",
        ));
    }
    if let Some(g) = group {
        for (i, k) in g.keys.iter().enumerate() {
            check_rel_space(k, relations, stage, &format!("group key {i}"))?;
        }
        for (i, a) in g.aggs.iter().enumerate() {
            if let Some(arg) = &a.arg {
                let what = format!("aggregate argument {i}");
                check_rel_space(arg, relations, stage, &what)?;
            }
            if !a.factors.is_empty() {
                check_product_sum(a, relations, stage, i)?;
            }
        }
        let width = slot_width(g);
        if let Some(h) = &g.having {
            check_slot_space(h, width, stage, "HAVING predicate")?;
        }
        for (i, item) in output.iter().enumerate() {
            check_slot_space(&item.expr, width, stage, &format!("output column {i}"))?;
        }
        for (i, o) in order_by.iter().enumerate() {
            if let crate::binder::OrderKey::Expr(e) = &o.key {
                check_slot_space(e, width, stage, &format!("ORDER BY key {i}"))?;
            }
        }
    } else {
        for (i, item) in output.iter().enumerate() {
            let what = format!("output column {i}");
            check_rel_space(&item.expr, relations, stage, &what)?;
        }
        for (i, o) in order_by.iter().enumerate() {
            if let crate::binder::OrderKey::Expr(e) = &o.key {
                check_rel_space(e, relations, stage, &format!("ORDER BY key {i}"))?;
            }
        }
    }
    for (i, o) in order_by.iter().enumerate() {
        if let crate::binder::OrderKey::Output(idx) = &o.key {
            if *idx >= output.len() {
                return Err(violation(
                    "order-key-range",
                    stage,
                    format!(
                        "ORDER BY key {i} sorts by output column {idx} but the query projects {}",
                        output.len()
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Validate a bound query (run right after binding).
pub fn validate_bound(bound: &BoundSelect) -> Result<()> {
    let stage = "binding";
    if let Some(f) = &bound.filter {
        check_rel_space(f, &bound.relations, stage, "WHERE predicate")?;
    }
    check_shape(
        &bound.relations,
        &bound.group,
        &bound.output,
        &bound.order_by,
        stage,
    )
}

/// Validate a complete physical plan (run after the final planner stage,
/// and from tests against deliberately corrupted plans).
pub fn validate_plan(plan: &Plan) -> Result<()> {
    let stage = "planning";
    let mut layout = plan.join.layout();
    layout.sort_unstable();
    let expect: Vec<usize> = (0..plan.relations.len()).collect();
    if layout != expect {
        return Err(violation(
            "layout-permutation",
            stage,
            format!(
                "join tree covers relations {layout:?}, expected exactly 0..{}",
                plan.relations.len()
            ),
        ));
    }
    check_join_node(&plan.join, &plan.relations, stage)?;
    check_shape(
        &plan.relations,
        &plan.group,
        &plan.output,
        &plan.order_by,
        stage,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::bind_select;
    use crate::expr::ColumnId;
    use crate::planner::plan_select;
    use conquer_sql::parse_select;
    use conquer_storage::{Catalog, Schema, Value};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let t = cat
            .create_table(
                "t",
                Schema::from_pairs([("k", DataType::Int), ("v", DataType::Text)])
                    .expect("valid schema"),
            )
            .expect("fresh catalog");
        t.insert(vec![Value::Int(1), Value::text("x")])
            .expect("row fits schema");
        cat.create_table(
            "u",
            Schema::from_pairs([("k", DataType::Int), ("w", DataType::Float)])
                .expect("valid schema"),
        )
        .expect("fresh catalog");
        cat
    }

    fn plan(sql: &str) -> Plan {
        let cat = catalog();
        let bound = bind_select(&cat, &parse_select(sql).expect("test SQL parses"))
            .expect("test SQL binds");
        plan_select(&cat, bound).expect("test SQL plans")
    }

    #[test]
    fn valid_plans_pass() {
        for sql in [
            "select k, v from t where k > 1",
            "select t.v, u.w from t, u where t.k = u.k order by 1 limit 3",
            "select v, count(*) c from t group by v having count(*) > 1 order by c",
        ] {
            let p = plan(sql);
            validate_plan(&p).expect("valid plan must validate");
        }
    }

    #[test]
    fn corrupted_output_column_is_rejected_by_name() {
        let mut p = plan("select k from t");
        p.output[0].expr = BoundExpr::Column(ColumnId { rel: 0, col: 99 });
        let err = validate_plan(&p).expect_err("corrupt plan must be rejected");
        let msg = err.to_string();
        assert!(msg.contains("column-resolves"), "{msg}");
        assert!(matches!(err, EngineError::Internal(_)), "{err:?}");
    }

    #[test]
    fn a_join_key_beyond_the_schema_is_a_typed_error_not_a_wrong_cell() {
        let mut p = plan("select u.w from t, u where t.k = u.k");
        let JoinNode::Join { equi, .. } = &mut p.join else {
            panic!("two-table plan is a join");
        };
        equi[0].1 = BoundExpr::Column(ColumnId { rel: 1, col: 2 });
        let err = validate_plan(&p).expect_err("corrupt plan must be rejected");
        assert!(err.to_string().contains("column-resolves"), "{err}");
        let err = crate::exec::execute_plan(&catalog(), &p, &Default::default())
            .expect_err("the executor validates before it reads a cell");
        assert!(matches!(err, EngineError::Internal(_)), "{err:?}");
    }

    #[test]
    fn scan_filter_is_checked_against_the_base_schema() {
        let mut p = plan("select k from t where v = 'x'");
        let JoinNode::Scan { filter, .. } = &mut p.join else {
            panic!("single-table plan is a scan");
        };
        assert_eq!(
            filter.as_ref().expect("pushed down").columns(),
            vec![ColumnId { rel: 0, col: 1 }]
        );
        *filter = Some(BoundExpr::Column(ColumnId { rel: 0, col: 2 }));
        let msg = validate_plan(&p)
            .expect_err("filter beyond the base schema must be rejected")
            .to_string();
        assert!(msg.contains("column-resolves"), "{msg}");
    }

    #[test]
    fn corrupted_scan_filter_is_rejected() {
        let mut p = plan("select t.k from t, u where t.k = u.k");
        // Make the scan of relation 0 filter on relation 1's columns.
        fn first_scan(n: &mut JoinNode) -> &mut JoinNode {
            match n {
                JoinNode::Scan { .. } => n,
                JoinNode::Join { left, .. } => first_scan(left),
            }
        }
        if let JoinNode::Scan { filter, .. } = first_scan(&mut p.join) {
            *filter = Some(BoundExpr::Column(ColumnId { rel: 1, col: 0 }));
        }
        let msg = validate_plan(&p)
            .expect_err("corrupt plan must be rejected")
            .to_string();
        assert!(msg.contains("scan-filter-local"), "{msg}");
    }

    #[test]
    fn corrupted_join_key_side_is_rejected() {
        let mut p = plan("select t.k from t, u where t.k = u.k");
        if let JoinNode::Join { equi, .. } = &mut p.join {
            // Point the left key at the right side's relation.
            equi[0].0 = BoundExpr::Column(ColumnId { rel: 1, col: 0 });
        }
        let msg = validate_plan(&p)
            .expect_err("corrupt plan must be rejected")
            .to_string();
        assert!(msg.contains("join-key-sides"), "{msg}");
    }

    #[test]
    fn join_key_type_clash_is_rejected() {
        let mut p = plan("select t.k, t.v from t, u where t.k = u.k");
        if let JoinNode::Join { equi, .. } = &mut p.join {
            // Compare t.v (TEXT) with u.k (INTEGER).
            equi[0].0 = BoundExpr::Column(ColumnId { rel: 0, col: 1 });
        }
        let msg = validate_plan(&p)
            .expect_err("corrupt plan must be rejected")
            .to_string();
        assert!(msg.contains("join-key-types"), "{msg}");
    }

    #[test]
    fn slot_overflow_is_rejected() {
        let mut p = plan("select v, count(*) from t group by v");
        // Output slot 5 doesn't exist: slots are [v, count(*)].
        p.output[1].expr = BoundExpr::Column(ColumnId { rel: 0, col: 5 });
        let msg = validate_plan(&p)
            .expect_err("corrupt plan must be rejected")
            .to_string();
        assert!(msg.contains("aggregate-arity"), "{msg}");
    }

    #[test]
    fn a_product_sum_whose_factors_are_not_its_double_columns_is_rejected() {
        let mut p = plan("select u.k, sum(u.w * u.w) from u group by u.k");
        let w = ColumnId { rel: 0, col: 1 };
        assert_eq!(p.group.as_ref().expect("grouped").aggs[0].factors, [w, w]);
        type Mutation = fn(&mut crate::binder::AggCall);
        let mutations: [(Mutation, &str); 5] = [
            (|a| a.factors.truncate(1), "not at least 2"),
            // u.k is an INTEGER column: its cells may be `Value::Int`.
            (|a| a.factors[0].col = 0, "not a DOUBLE column"),
            (|a| a.factors[1].rel = 4, "not a DOUBLE column"),
            (
                |a| a.factors.push(a.factors[0]),
                "not their left-deep product",
            ),
            (|a| a.distinct = true, "is a DISTINCT SUM"),
        ];
        for (mutate, reason) in mutations {
            let mut bad = p.clone();
            mutate(&mut bad.group.as_mut().expect("grouped").aggs[0]);
            let err = validate_plan(&bad).expect_err("corrupt plan must be rejected");
            let msg = err.to_string();
            assert!(msg.contains("product-sum") && msg.contains(reason), "{msg}");
            assert!(matches!(err, EngineError::Internal(_)), "{err:?}");
        }
        // The executor refuses the plan before it multiplies a cell.
        p.group.as_mut().expect("grouped").aggs[0].factors[0].col = 0;
        let err = crate::exec::execute_plan(&catalog(), &p, &Default::default())
            .expect_err("the executor validates first");
        assert!(matches!(err, EngineError::Internal(_)), "{err:?}");
    }

    #[test]
    fn order_key_out_of_range_is_rejected() {
        let mut p = plan("select k from t order by 1");
        if let Some(o) = p.order_by.first_mut() {
            o.key = crate::binder::OrderKey::Output(7);
        }
        let msg = validate_plan(&p)
            .expect_err("corrupt plan must be rejected")
            .to_string();
        assert!(msg.contains("order-key-range"), "{msg}");
    }

    #[test]
    fn validate_bound_checks_where() {
        let cat = catalog();
        let mut bound = bind_select(
            &cat,
            &parse_select("select k from t where k > 0").expect("test SQL parses"),
        )
        .expect("test SQL binds");
        bound.filter = Some(BoundExpr::Column(ColumnId { rel: 3, col: 0 }));
        let msg = validate_bound(&bound)
            .expect_err("corrupt bound query must be rejected")
            .to_string();
        assert!(msg.contains("column-resolves"), "{msg}");
        assert!(msg.contains("after binding"), "{msg}");
    }
}
