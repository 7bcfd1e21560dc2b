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
//! 3. Every join is oriented as it is built: `left` is the input it
//!    streams (a hash join's probe side), `right` the one it holds (the
//!    build side). A hash join builds on the smaller estimate, the joined
//!    side on a tie; a scan's estimate is its table's row count, a hash
//!    join's the larger of its inputs', a cross join's their product. So
//!    the plan fixes the physical tree: the executor builds exactly it,
//!    `EXPLAIN` prints it, and its *spine* — the leftmost scan, whose
//!    order the output follows — is [`JoinNode::spine`].
//!
//! Each [`JoinNode`] knows its *layout* — the order of the relations whose
//! row positions its output tuples hold. Every column id, everywhere in a
//! plan, is a base-schema position: the executor reads a tuple's cells in
//! place in the pinned tables, so nothing is renumbered and bound
//! expressions evaluate regardless of the chosen join order.

use conquer_sql::{BinaryOp, SelectStatement};
use conquer_storage::Catalog;

use crate::binder::{bind_select, BoundOrderBy, BoundRelation, BoundSelect, GroupSpec, OutputItem};
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
        /// The streamed input: a hash join's probe side.
        left: Box<JoinNode>,
        /// The held input: a hash join's build side, a cross join's
        /// materialized one.
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

    /// Number of join operators.
    pub fn join_count(&self) -> usize {
        match self {
            JoinNode::Scan { .. } => 0,
            JoinNode::Join { left, right, .. } => 1 + left.join_count() + right.join_count(),
        }
    }

    /// The relation whose scan order this tree's output follows: its
    /// leftmost scan. A hash join streams its `left` (probe) input and
    /// a cross join its `left` input, so the output keeps that order.
    pub fn spine(&self) -> usize {
        match self {
            JoinNode::Scan { rel, .. } => *rel,
            JoinNode::Join { left, .. } => left.spine(),
        }
    }
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
    /// The schema name of column `id`.
    pub(crate) fn column_name(&self, id: ColumnId) -> &str {
        self.relations[id.rel].schema.columns()[id.col].name()
    }
}

/// Bind, validate and plan `stmt` against `catalog`: what every prepared
/// `SELECT` and every view delta query runs.
pub(crate) fn plan_query(catalog: &Catalog, stmt: &SelectStatement) -> Result<Plan> {
    let bound = bind_select(catalog, stmt)?;
    validate::validate_bound(&bound)?;
    plan_select(catalog, bound)
}

/// Build a plan for a bound query. `catalog` supplies base-table sizes for
/// the greedy join order and the joins' build sides; a plan keeps both
/// whatever its tables hold when it runs.
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
    let mut rows = sizes[0] as u64;
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
        let scan = make_scan(next, &mut scan_filters);
        let scan_rows = sizes[next] as u64;
        let hash = !keys.is_empty();
        // The joined side builds when it is no larger than `next`.
        let build_joined = hash && rows <= scan_rows;
        rows = if hash {
            rows.max(scan_rows)
        } else {
            rows.saturating_mul(scan_rows.max(1))
        };
        let (left, right) = if build_joined {
            for (l, r) in &mut keys {
                std::mem::swap(l, r);
            }
            (scan, node)
        } else {
            (node, scan)
        };

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
            left: Box::new(left),
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
        let d = crate::exec::explain_plan(&cat, &p).unwrap();
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
        let d = crate::exec::explain_plan(&catalog(), &p).unwrap();
        assert_eq!(
            d,
            "Limit\n  Sort\n    Project\n      HashAggregate (runs of k)\n        \
             HashJoin on 1 key(s)\n          Scan big [big]\n          Scan small [small]\n"
        );
    }

    #[test]
    fn joins_build_on_the_smaller_estimate_and_the_joined_side_on_a_tie() {
        let build_side = |sql: &str| {
            let p = plan(sql);
            let JoinNode::Join { left, right, .. } = &p.join else {
                panic!("{sql} plans a join");
            };
            assert_eq!(p.join.spine(), left.spine());
            (left.layout(), right.layout())
        };
        // `small` (2 rows) builds whichever side of FROM it is on.
        assert_eq!(
            build_side("select big.k from small, big where big.k = small.k"),
            (vec![1], vec![0])
        );
        assert_eq!(
            build_side("select big.k from big, small where big.k = small.k"),
            (vec![0], vec![1])
        );
        // Two scans of `mid` tie: the joined side, `a`, builds.
        assert_eq!(
            build_side("select a.k from mid a, mid b where a.k = b.k"),
            (vec![1], vec![0])
        );
        // A cross join streams the joined side whatever the sizes.
        assert_eq!(
            build_side("select big.k from small, big where big.k < small.k"),
            (vec![0], vec![1])
        );
        // A hash join's estimate is its larger input's: `mid ⋈ small`
        // estimates 5, below `big`'s 20, so the pair builds and `big`
        // becomes the spine.
        let p = plan("select mid.k from mid, small, big where mid.k = small.k and mid.k = big.k");
        assert_eq!(p.join.layout(), vec![2, 0, 1]);
        assert_eq!(p.join.spine(), 2);
    }
}
