//! Query planning: predicate pushdown and join ordering.
//!
//! The planner turns a [`BoundSelect`] into a [`Plan`]:
//!
//! 1. The WHERE predicate is split into conjuncts. Single-relation
//!    conjuncts are pushed down into scans; two-sided equality conjuncts
//!    whose sides each touch one relation become hash-join keys; everything
//!    else is applied as a residual filter at the earliest join where all of
//!    its relations are available.
//! 2. Relations are joined greedily starting from the first FROM entry,
//!    always preferring a relation connected by an equi edge (smallest base
//!    table first); unconnected relations fall back to nested-loop cross
//!    joins.
//!
//! Each [`JoinNode`] knows its *layout* — the order of the relations whose
//! row positions its output tuples hold. Every column id, everywhere in a
//! plan, is a base-schema position: the executor reads a tuple's cells in
//! place in the pinned tables, so nothing is renumbered and bound
//! expressions evaluate regardless of the chosen join order.

use conquer_sql::BinaryOp;
use conquer_storage::Catalog;

use crate::binder::{BoundOrderBy, BoundRelation, BoundSelect, GroupSpec, OutputItem};
use crate::error::EngineError;
use crate::expr::{BoundExpr, ColumnId};
use crate::validate;
use crate::Result;

/// The join tree part of a plan.
#[derive(Debug, Clone)]
pub enum JoinNode {
    /// Scan a base relation, applying pushed-down predicates.
    Scan {
        /// Relation index in the query.
        rel: usize,
        /// Conjunction of pushed-down single-relation predicates.
        filter: Option<BoundExpr>,
    },
    /// Hash join (equi keys) or nested-loop cross join (no keys), with an
    /// optional residual filter applied to the joined rows.
    Join {
        /// Left input (already-joined set).
        left: Box<JoinNode>,
        /// Right input (the newly added relation).
        right: Box<JoinNode>,
        /// Equi key pairs `(left expr, right expr)`.
        equi: Vec<(BoundExpr, BoundExpr)>,
        /// Residual predicate over the joined layout.
        filter: Option<BoundExpr>,
    },
}

impl JoinNode {
    /// Relations contributing to this node's output, in concatenation order.
    pub fn layout(&self) -> Vec<usize> {
        match self {
            JoinNode::Scan { rel, .. } => vec![*rel],
            JoinNode::Join { left, right, .. } => {
                let mut l = left.layout();
                l.extend(right.layout());
                l
            }
        }
    }

    /// Number of join operators (used by plan tests and EXPLAIN output).
    pub fn join_count(&self) -> usize {
        match self {
            JoinNode::Scan { .. } => 0,
            JoinNode::Join { left, right, .. } => 1 + left.join_count() + right.join_count(),
        }
    }

    /// This tree's [`Shape`] when relation `rel` holds `rows(rel)` rows.
    pub(crate) fn shape(&self, rows: &impl Fn(usize) -> u64) -> Shape {
        match self {
            JoinNode::Scan { rel, .. } => Shape {
                spine: *rel,
                rows: rows(*rel),
            },
            JoinNode::Join {
                left, right, equi, ..
            } => join_shape(!equi.is_empty(), left.shape(rows), right.shape(rows)).0,
        }
    }

    fn describe(&self, relations: &[BoundRelation], indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        match self {
            JoinNode::Scan { rel, filter } => {
                out.push_str(&format!(
                    "{pad}{}{}\n",
                    scan_label("Scan", &relations[*rel]),
                    if filter.is_some() { " (filtered)" } else { "" },
                ));
            }
            JoinNode::Join {
                left,
                right,
                equi,
                filter,
            } => {
                let kind = if equi.is_empty() {
                    "NestedLoopJoin"
                } else {
                    "HashJoin"
                };
                out.push_str(&format!(
                    "{pad}{kind} on {} key(s){}\n",
                    equi.len(),
                    if filter.is_some() {
                        " (residual filter)"
                    } else {
                        ""
                    },
                ));
                left.describe(relations, indent + 1, out);
                right.describe(relations, indent + 1, out);
            }
        }
    }
}

/// `"<op> <table> [<binding>]"`: how `EXPLAIN` and the executor's
/// statistics name an operator that reads a base relation.
pub(crate) fn scan_label(op: &str, relation: &BoundRelation) -> String {
    format!("{op} {} [{}]", relation.table, relation.binding)
}

/// `"HashAggregate"`, followed in parentheses by `runs of <column>` when
/// it aggregates in runs of its [`run_key`] and by `SUM of m DOUBLE
/// factors` for each product-sum it folds: how `EXPLAIN` and the
/// executor's statistics name the aggregate, so a reader sees which path
/// ran.
pub(crate) fn aggregate_label(group: &GroupSpec, run_key: Option<&str>) -> String {
    let products: Vec<String> = group
        .aggs
        .iter()
        .filter(|a| !a.factors.is_empty())
        .map(|a| format!("SUM of {} DOUBLE factors", a.factors.len()))
        .collect();
    let mut parts: Vec<String> = run_key
        .map(|col| format!("runs of {col}"))
        .into_iter()
        .collect();
    if !products.is_empty() {
        parts.push(products.join(", "));
    }
    if parts.is_empty() {
        "HashAggregate".to_string()
    } else {
        format!("HashAggregate ({})", parts.join("; "))
    }
}

/// A join tree's estimated output rows and its *spine*: the relation
/// whose scan order its output follows.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shape {
    pub(crate) spine: usize,
    pub(crate) rows: u64,
}

/// How a join over inputs shaped `left` and `right` runs: its output's
/// shape and, for a hash join (`hash`), whether it builds its table on
/// the left input — the smaller estimate, the left on a tie. A hash join
/// streams its probe side and a cross join its left input, so the output
/// follows that input's spine. The one rule the executor and `EXPLAIN`
/// both use.
pub(crate) fn join_shape(hash: bool, left: Shape, right: Shape) -> (Shape, bool) {
    if !hash {
        let rows = left.rows.saturating_mul(right.rows.max(1));
        return (Shape { rows, ..left }, false);
    }
    let build_left = left.rows <= right.rows;
    let probe = if build_left { right } else { left };
    let rows = left.rows.max(right.rows);
    (Shape { rows, ..probe }, build_left)
}

/// The `GROUP BY` key an aggregate over a join tree with spine `spine`
/// aggregates in runs of: the first key that is a bare column of the
/// spine relation. Its index in `group.keys` and the column.
pub(crate) fn run_key(group: &GroupSpec, spine: usize) -> Option<(usize, ColumnId)> {
    group.keys.iter().enumerate().find_map(|(i, k)| match k {
        BoundExpr::Column(id) if id.rel == spine => Some((i, *id)),
        _ => None,
    })
}

/// A complete query plan.
///
/// Column ids in relation-space expressions (scan filters, join keys,
/// residual filters, group keys, aggregate arguments, and — for ungrouped
/// queries — output items and `ORDER BY` expressions) are base schema
/// positions; a grouped query's HAVING, output and `ORDER BY` address the
/// aggregate's slots.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The FROM relations (index = relation id used by bound expressions).
    pub relations: Vec<BoundRelation>,
    /// The join tree.
    pub join: JoinNode,
    /// Aggregation spec, if this is an aggregate query.
    pub group: Option<GroupSpec>,
    /// Output columns.
    pub output: Vec<OutputItem>,
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// ORDER BY items.
    pub order_by: Vec<BoundOrderBy>,
    /// LIMIT.
    pub limit: Option<u64>,
}

impl Plan {
    /// A human-readable plan tree (EXPLAIN-style). Which key a `GROUP BY`
    /// runs on depends on table sizes, so only [`Plan::explain`] shows it.
    pub fn describe(&self) -> String {
        self.render(None)
    }

    /// The `EXPLAIN` text of this plan against `catalog`: [`Plan::describe`]
    /// plus the aggregate's run key, found from `catalog`'s table sizes as
    /// the executor finds it.
    pub fn explain(&self, catalog: &Catalog) -> String {
        let rows = |rel: usize| {
            let table = catalog.table(&self.relations[rel].table);
            table.map_or(0, |t| t.len() as u64)
        };
        self.render(Some(self.join.shape(&rows).spine))
    }

    fn render(&self, spine: Option<usize>) -> String {
        let mut out = String::new();
        if self.limit.is_some() {
            out.push_str("Limit\n");
        }
        if !self.order_by.is_empty() {
            out.push_str("Sort\n");
        }
        if self.distinct {
            out.push_str("Distinct\n");
        }
        out.push_str("Project\n");
        if let Some(group) = &self.group {
            let run = spine.and_then(|s| run_key(group, s));
            out.push_str(&aggregate_label(
                group,
                run.map(|(_, id)| self.column_name(id)),
            ));
            out.push('\n');
        }
        self.join.describe(&self.relations, 1, &mut out);
        out
    }

    /// The schema name of column `id`.
    pub(crate) fn column_name(&self, id: ColumnId) -> &str {
        self.relations[id.rel].schema.columns()[id.col].name()
    }
}

/// Build a plan for a bound query. `catalog` supplies base-table sizes for
/// the greedy join-order heuristic.
pub fn plan_select(catalog: &Catalog, bound: BoundSelect) -> Result<Plan> {
    let BoundSelect {
        relations,
        filter,
        group,
        output,
        distinct,
        order_by,
        limit,
    } = bound;
    let n = relations.len();

    // Classify WHERE conjuncts.
    let mut scan_filters: Vec<Vec<BoundExpr>> = vec![Vec::new(); n];
    let mut equi_edges: Vec<EquiEdge> = Vec::new();
    let mut residuals: Vec<BoundExpr> = Vec::new();
    if let Some(pred) = filter {
        for conjunct in into_conjuncts(pred) {
            let rels = conjunct.relations();
            match rels.len() {
                0 | 1 => {
                    // Constant predicates also land on the first scan they
                    // can (relation 0) — cheap and correct.
                    let rel = rels.first().copied().unwrap_or(0);
                    scan_filters[rel].push(conjunct);
                }
                2 => {
                    if let Some(edge) = as_equi_edge(&conjunct) {
                        equi_edges.push(edge);
                    } else {
                        residuals.push(conjunct);
                    }
                }
                _ => residuals.push(conjunct),
            }
        }
    }

    validate::check_classified(&scan_filters, &equi_edges, &residuals, &relations)?;

    // Greedy join ordering.
    let sizes: Vec<usize> = relations
        .iter()
        .map(|r| catalog.table(&r.table).map(|t| t.len()).unwrap_or(0))
        .collect();

    let make_scan = |rel: usize, scan_filters: &mut Vec<Vec<BoundExpr>>| JoinNode::Scan {
        rel,
        filter: conjunction(std::mem::take(&mut scan_filters[rel])),
    };

    let mut joined: Vec<usize> = vec![0];
    let mut node = make_scan(0, &mut scan_filters);
    let mut used_edge = vec![false; equi_edges.len()];

    while joined.len() < n {
        // Candidate relations connected to the joined set by an unused edge.
        let mut best: Option<usize> = None;
        for (i, edge) in equi_edges.iter().enumerate() {
            if used_edge[i] {
                continue;
            }
            let (a, b) = (edge.rels.0, edge.rels.1);
            let candidate = if joined.contains(&a) && !joined.contains(&b) {
                Some(b)
            } else if joined.contains(&b) && !joined.contains(&a) {
                Some(a)
            } else {
                None
            };
            if let Some(c) = candidate {
                best = Some(match best {
                    None => c,
                    Some(prev) if sizes[c] < sizes[prev] => c,
                    Some(prev) => prev,
                });
            }
        }
        // Fall back to a cross join with the next unjoined relation.
        let next = match best {
            Some(rel) => rel,
            None => (0..n).find(|r| !joined.contains(r)).ok_or_else(|| {
                EngineError::internal(
                    "plan invariant `layout-permutation` violated after join ordering: \
                     no unjoined relation left while joined.len() < n",
                )
            })?,
        };

        // Collect every equi edge between the joined set and `next`.
        let mut keys = Vec::new();
        for (i, edge) in equi_edges.iter().enumerate() {
            if used_edge[i] {
                continue;
            }
            let (a, b) = (edge.rels.0, edge.rels.1);
            if (joined.contains(&a) && b == next) || (a == next && joined.contains(&b)) {
                used_edge[i] = true;
                // Orient: left expr over joined set, right expr over `next`.
                if b == next {
                    keys.push((edge.exprs.0.clone(), edge.exprs.1.clone()));
                } else {
                    keys.push((edge.exprs.1.clone(), edge.exprs.0.clone()));
                }
            }
        }

        joined.push(next);
        let right = make_scan(next, &mut scan_filters);

        // Residuals now fully covered by the joined set.
        let mut covered = Vec::new();
        residuals.retain(|r| {
            if r.relations().iter().all(|rel| joined.contains(rel)) {
                covered.push(r.clone());
                false
            } else {
                true
            }
        });
        // Equi edges that became internal to the joined set (cycles in the
        // join graph) degrade to residual equality filters.
        for (i, edge) in equi_edges.iter().enumerate() {
            if used_edge[i] {
                continue;
            }
            if joined.contains(&edge.rels.0) && joined.contains(&edge.rels.1) {
                used_edge[i] = true;
                covered.push(BoundExpr::Binary {
                    left: Box::new(edge.exprs.0.clone()),
                    op: BinaryOp::Eq,
                    right: Box::new(edge.exprs.1.clone()),
                });
            }
        }

        node = JoinNode::Join {
            left: Box::new(node),
            right: Box::new(right),
            equi: keys,
            filter: conjunction(covered),
        };
        validate::check_join_node(&node, &relations, "join ordering")?;
    }

    debug_assert!(residuals.is_empty(), "all residuals must be placed");

    let plan = Plan {
        relations,
        join: node,
        group,
        output,
        distinct,
        order_by,
        limit,
    };
    validate::validate_plan(&plan)?;
    Ok(plan)
}

pub(crate) struct EquiEdge {
    pub(crate) rels: (usize, usize),
    pub(crate) exprs: (BoundExpr, BoundExpr),
}

/// Recognize `f(A) = g(B)` with `A ≠ B` as a hash-joinable edge.
pub(crate) fn as_equi_edge(e: &BoundExpr) -> Option<EquiEdge> {
    let BoundExpr::Binary {
        left,
        op: BinaryOp::Eq,
        right,
    } = e
    else {
        return None;
    };
    let lr = left.relations();
    let rr = right.relations();
    if lr.len() == 1 && rr.len() == 1 && lr[0] != rr[0] {
        Some(EquiEdge {
            rels: (lr[0], rr[0]),
            exprs: ((**left).clone(), (**right).clone()),
        })
    } else {
        None
    }
}

fn into_conjuncts(e: BoundExpr) -> Vec<BoundExpr> {
    match e {
        BoundExpr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let mut out = into_conjuncts(*left);
            out.extend(into_conjuncts(*right));
            out
        }
        other => vec![other],
    }
}

fn conjunction(mut preds: Vec<BoundExpr>) -> Option<BoundExpr> {
    if preds.is_empty() {
        return None;
    }
    let mut acc = preds.remove(0);
    for p in preds {
        acc = BoundExpr::Binary {
            left: Box::new(acc),
            op: BinaryOp::And,
            right: Box::new(p),
        };
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::bind_select;
    use conquer_sql::parse_select;
    use conquer_storage::{DataType, Schema, Value};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for (name, rows) in [("small", 2usize), ("mid", 5), ("big", 20)] {
            let t = cat
                .create_table(
                    name,
                    Schema::from_pairs([("k", DataType::Int), ("v", DataType::Int)]).unwrap(),
                )
                .unwrap();
            for i in 0..rows {
                t.insert(vec![Value::Int(i as i64), Value::Int(0)]).unwrap();
            }
        }
        cat
    }

    fn plan(sql: &str) -> Plan {
        let cat = catalog();
        let bound = bind_select(&cat, &parse_select(sql).unwrap()).unwrap();
        plan_select(&cat, bound).unwrap()
    }

    #[test]
    fn single_table_pushdown() {
        let p = plan("select k from big where v = 1 and k < 5");
        match &p.join {
            JoinNode::Scan {
                rel: 0,
                filter: Some(_),
                ..
            } => {}
            other => panic!("expected filtered scan, got {other:?}"),
        }
    }

    #[test]
    fn equi_join_becomes_hash_join() {
        let p = plan("select big.k from big, small where big.k = small.k");
        match &p.join {
            JoinNode::Join {
                equi, filter: None, ..
            } => assert_eq!(equi.len(), 1),
            other => panic!("expected hash join, got {other:?}"),
        }
        assert_eq!(p.join.join_count(), 1);
    }

    #[test]
    fn non_equi_join_is_residual() {
        let p = plan("select big.k from big, small where big.k < small.k");
        match &p.join {
            JoinNode::Join {
                equi,
                filter: Some(_),
                ..
            } => assert!(equi.is_empty()),
            other => panic!("expected cross join with residual, got {other:?}"),
        }
    }

    #[test]
    fn greedy_prefers_smaller_connected_relation() {
        // From `big`, both mid and small connect; small should join first.
        let p = plan(
            "select big.k from big, mid, small \
             where big.k = mid.k and big.k = small.k",
        );
        let layout = p.join.layout();
        assert_eq!(layout[0], 0, "starts at first FROM relation");
        // relation indexes: big=0, mid=1, small=2 — small (2) joins before mid (1)
        assert_eq!(layout, vec![0, 2, 1]);
    }

    #[test]
    fn cyclic_edges_all_enforced() {
        let p = plan(
            "select big.k from big, mid, small \
             where big.k = mid.k and mid.k = small.k and small.k = big.k",
        );
        // Two joins; all three equalities must be enforced — either as hash
        // keys (when the cycle edge reaches the same newly joined relation)
        // or as a residual filter.
        assert_eq!(p.join.join_count(), 2);
        fn count_constraints(n: &JoinNode) -> usize {
            match n {
                JoinNode::Scan { .. } => 0,
                JoinNode::Join {
                    left,
                    right,
                    equi,
                    filter,
                } => {
                    equi.len()
                        + filter.as_ref().map_or(0, |f| {
                            // residual filters here are conjunctions of
                            // equalities; count conjuncts
                            let mut c = 1;
                            let mut e = f;
                            while let BoundExpr::Binary {
                                left,
                                op: conquer_sql::BinaryOp::And,
                                ..
                            } = e
                            {
                                c += 1;
                                e = left;
                            }
                            c
                        })
                        + count_constraints(left)
                        + count_constraints(right)
                }
            }
        }
        assert_eq!(count_constraints(&p.join), 3);
    }

    /// A catalog shaped like the tables rewritten Q9 reads.
    fn q9_catalog() -> Catalog {
        use DataType::{Float, Int, Text};
        let mut cat = Catalog::new();
        for (name, cols) in [
            (
                "part",
                vec![("p_partkey", Int), ("p_name", Text), ("p_type", Text)],
            ),
            (
                "supplier",
                vec![("s_suppkey", Int), ("s_name", Text), ("s_nationkey", Int)],
            ),
            (
                "lineitem",
                vec![
                    ("l_orderkey", Int),
                    ("l_partkey", Int),
                    ("l_suppkey", Int),
                    ("l_quantity", Float),
                    ("l_extendedprice", Float),
                    ("l_discount", Float),
                    ("l_comment", Text),
                    ("prob", Float),
                ],
            ),
            ("nation", vec![("n_nationkey", Int), ("n_name", Text)]),
        ] {
            cat.create_table(name, Schema::from_pairs(cols).unwrap())
                .unwrap();
        }
        cat
    }

    #[test]
    fn q9_shape_keeps_base_column_ids_above_the_scans() {
        let cat = q9_catalog();
        let sql = "select n_name, sum(l_extendedprice * (1 - l_discount) * l.prob) \
                   from part p, supplier s, lineitem l, nation n \
                   where s_suppkey = l_suppkey and p_partkey = l_partkey \
                     and s_nationkey = n_nationkey and p_name like '%green%' \
                   group by n_name order by n_name";
        let bound = bind_select(&cat, &parse_select(sql).unwrap()).unwrap();
        let p = plan_select(&cat, bound).unwrap();
        // The group key is n_name, nation's base column 1; the aggregate
        // reads lineitem's base columns 4, 5 and 7.
        let group = p.group.as_ref().unwrap();
        assert_eq!(group.keys[0].columns(), vec![ColumnId { rel: 3, col: 1 }]);
        assert_eq!(
            group.aggs[0].arg.as_ref().unwrap().columns(),
            [4, 5, 7].map(|col| ColumnId { rel: 2, col })
        );
        let d = p.describe();
        assert!(d.contains("Scan part [p] (filtered)"), "{d}");
        assert!(d.contains("Scan lineitem [l]\n"), "{d}");
    }

    #[test]
    fn a_scan_filter_and_the_expressions_above_it_share_base_column_ids() {
        let p = plan("select v from big where v = 1");
        let JoinNode::Scan { filter, .. } = &p.join else {
            panic!("single-table plan is a scan");
        };
        let v = vec![ColumnId { rel: 0, col: 1 }];
        assert_eq!(filter.as_ref().unwrap().columns(), v);
        assert_eq!(p.output[0].expr.columns(), v);
    }

    #[test]
    fn relations_with_nothing_read_above_the_scan_keep_their_multiplicity() {
        let cat = catalog();
        let run = |sql: &str| {
            let bound = bind_select(&cat, &parse_select(sql).unwrap()).unwrap();
            let p = plan_select(&cat, bound).unwrap();
            let ctx = crate::context::ExecContext::default();
            crate::exec::execute_plan(&cat, &p, &ctx).unwrap().rows
        };
        // Each side is read for its join key alone.
        let rows = run("select count(*) from big, small where big.k = small.k");
        assert_eq!(rows, vec![vec![Value::Int(2)]]);
        // Nothing at all is read above either scan of a cross join — the
        // filter on small runs inside its scan — yet 20 x 1 tuples are
        // counted: a tuple holds a position for every relation.
        let rows = run("select count(*) from big, small where small.k = 1");
        assert_eq!(rows, vec![vec![Value::Int(20)]]);
        let rows = run("select count(*) from mid");
        assert_eq!(rows, vec![vec![Value::Int(5)]]);
    }

    #[test]
    fn describe_mentions_operators() {
        let p = plan(
            "select big.k, count(*) from big, small where big.k = small.k \
             group by big.k order by big.k limit 5",
        );
        let d = p.describe();
        assert!(d.contains("HashAggregate"), "{d}");
        assert!(d.contains("HashJoin"), "{d}");
        assert!(d.contains("Sort"), "{d}");
        assert!(d.contains("Limit"), "{d}");
    }
}
