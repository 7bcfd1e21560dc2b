//! The join graph (Definition 6) and the rewritable-query test
//! (Definition 7).
//!
//! Vertices are the FROM relations; there is an arc `Ri → Rj` whenever a
//! *non-identifier* attribute of `Ri` is equated with the *identifier*
//! attribute of `Rj` (the typical foreign-key-to-identifier join after
//! identifier propagation). A query is rewritable iff
//!
//! 1. every join involves the identifier of at least one relation,
//! 2. the join graph is a tree,
//! 3. no relation appears twice in FROM (no self-joins),
//! 4. the identifier of the root relation appears in the select clause.

use conquer_engine::analyze::expr_span;
use conquer_engine::binder::{bind_select, BoundSelect};
use conquer_engine::{BoundExpr, ColumnId};
use conquer_sql::{BinaryOp, Expr, SelectStatement, Span};
use conquer_storage::Catalog;

use crate::error::{CoreError, Def7Clause, NotRewritable, RewriteObstacle};
use crate::spec::DirtySpec;
use crate::Result;

/// The join graph of a query over a dirty database.
#[derive(Debug, Clone)]
pub struct JoinGraph {
    /// Binding names of the FROM relations (vertex index = FROM position).
    pub bindings: Vec<String>,
    /// Table name per vertex.
    pub tables: Vec<String>,
    /// Identifier-column position per vertex.
    pub id_columns: Vec<usize>,
    /// Probability-column position per vertex.
    pub prob_columns: Vec<usize>,
    /// Arcs `from → to` (deduplicated).
    pub arcs: Vec<(usize, usize)>,
    /// Root vertex if the graph is a rooted tree.
    pub root: Option<usize>,
}

impl JoinGraph {
    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// True for the degenerate empty graph.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// True when the directed graph is a tree spanning all vertices.
    pub fn is_tree(&self) -> bool {
        self.root.is_some()
    }

    /// Render as `a -> b, a -> c` for diagnostics.
    pub fn describe(&self) -> String {
        if self.arcs.is_empty() {
            return format!("{} isolated vertex/vertices", self.len());
        }
        self.arcs
            .iter()
            .map(|(f, t)| format!("{} -> {}", self.bindings[*f], self.bindings[*t]))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Build the join graph and check all four rewritability conditions,
/// returning the graph (with its root) on success and the full
/// [`NotRewritable`] reason tree otherwise.
pub fn check_rewritable(
    catalog: &Catalog,
    spec: &DirtySpec,
    stmt: &SelectStatement,
) -> Result<JoinGraph> {
    match explain_rewritable(catalog, spec, stmt)? {
        Ok(graph) => Ok(graph),
        Err(reason) => Err(reason.into()),
    }
}

/// The rewritability explainer behind [`check_rewritable`]: instead of
/// failing on the first problem, collect *every* visible obstacle into a
/// [`NotRewritable`] reason tree, each node citing the violated clause of
/// Definition 7 and the source span of the offending fragment.
///
/// The outer `Result` carries hard errors (binding failures, invalid dirty
/// metadata); the inner one is the verdict.
pub fn explain_rewritable(
    catalog: &Catalog,
    spec: &DirtySpec,
    stmt: &SelectStatement,
) -> Result<std::result::Result<JoinGraph, NotRewritable>> {
    let mut obstacles: Vec<RewriteObstacle> = Vec::new();

    // --- SPJ shape preconditions -----------------------------------------
    if stmt.distinct {
        obstacles.push(RewriteObstacle::new(
            Def7Clause::SpjShape,
            "DISTINCT is not allowed",
        ));
    }
    if !stmt.group_by.is_empty() || stmt.having.is_some() {
        obstacles.push(RewriteObstacle::new(
            Def7Clause::SpjShape,
            "GROUP BY/HAVING are not allowed",
        ));
    }
    for item in &stmt.projection {
        if let conquer_sql::SelectItem::Expr { expr, .. } = item {
            if expr.contains_aggregate() {
                obstacles.push(
                    RewriteObstacle::new(Def7Clause::SpjShape, "aggregates are not allowed")
                        .with_span(expr_span(expr)),
                );
            }
        }
    }
    for o in &stmt.order_by {
        if o.expr.contains_aggregate() {
            obstacles.push(
                RewriteObstacle::new(Def7Clause::SpjShape, "aggregates are not allowed")
                    .with_span(expr_span(&o.expr)),
            );
        }
    }

    // --- Condition 3: self-joins ------------------------------------------
    for (i, t) in stmt.from.iter().enumerate() {
        if stmt.from[..i].iter().any(|p| p.table == t.table) {
            obstacles.push(
                RewriteObstacle::new(
                    Def7Clause::NoSelfJoins,
                    format!("relation {:?} appears more than once in FROM", t.table),
                )
                .with_span(t.span),
            );
        }
    }

    // --- Resolve relations and their dirty metadata ------------------------
    let bound: BoundSelect = match bind_select(catalog, stmt) {
        Ok(b) => b,
        // A query that does not even bind: if shape obstacles explain the
        // situation, report them; otherwise surface the bind error.
        Err(e) => {
            return if obstacles.is_empty() {
                Err(e.into())
            } else {
                Ok(Err(NotRewritable::new(obstacles)))
            };
        }
    };
    let n = bound.relations.len();
    let mut id_columns: Vec<Option<usize>> = Vec::with_capacity(n);
    let mut prob_columns: Vec<Option<usize>> = Vec::with_capacity(n);
    for (ri, rel) in bound.relations.iter().enumerate() {
        let Some(meta) = spec.meta(&rel.table) else {
            obstacles.push(
                RewriteObstacle::new(
                    Def7Clause::DirtyMetadata,
                    format!(
                        "relation {:?} has no identifier/probability metadata in the DirtySpec",
                        rel.table
                    ),
                )
                .with_span(from_span(stmt, ri)),
            );
            id_columns.push(None);
            prob_columns.push(None);
            continue;
        };
        let id = rel.schema.index_of(&meta.id_column).ok_or_else(|| {
            CoreError::InvalidDirty(format!(
                "table {:?} is missing its identifier column {:?}",
                rel.table, meta.id_column
            ))
        })?;
        let prob = rel.schema.index_of(&meta.prob_column).ok_or_else(|| {
            CoreError::InvalidDirty(format!(
                "table {:?} is missing its probability column {:?}",
                rel.table, meta.prob_column
            ))
        })?;
        id_columns.push(Some(id));
        prob_columns.push(Some(prob));
    }

    // --- Classify WHERE conjuncts; build arcs (Definition 6) --------------
    // Bound conjuncts pair 1:1 (in order) with the AST conjuncts of the
    // WHERE clause, which carry the source spans.
    let ast_conjs: Vec<&Expr> = stmt
        .selection
        .as_ref()
        .map(Expr::conjuncts)
        .unwrap_or_default();
    let mut arcs: Vec<(usize, usize)> = Vec::new();
    if let Some(filter) = &bound.filter {
        for (ci, conjunct) in filter.conjuncts().into_iter().enumerate() {
            let span = ast_conjs
                .get(ci)
                .map(|e| expr_span(e))
                .unwrap_or(Span::NONE);
            let rels = conjunct.relations();
            if rels.len() <= 1 {
                continue; // per-relation selection: unrestricted
            }
            if rels.len() > 2 {
                obstacles.push(
                    RewriteObstacle::new(
                        Def7Clause::EquiJoins,
                        format!("a predicate spans {} relations", rels.len()),
                    )
                    .with_span(span),
                );
                continue;
            }
            // Exactly two relations: must be column = column.
            let BoundExpr::Binary {
                left,
                op: BinaryOp::Eq,
                right,
            } = conjunct
            else {
                obstacles.push(
                    RewriteObstacle::new(
                        Def7Clause::EquiJoins,
                        describe_conjunct(conjunct, &bound),
                    )
                    .with_span(span),
                );
                continue;
            };
            let (BoundExpr::Column(a), BoundExpr::Column(b)) = (&**left, &**right) else {
                obstacles.push(
                    RewriteObstacle::new(
                        Def7Clause::EquiJoins,
                        describe_conjunct(conjunct, &bound),
                    )
                    .with_span(span),
                );
                continue;
            };
            // Missing metadata on either side is already an obstacle; the
            // identifier test is meaningless without it.
            let (Some(a_id), Some(b_id)) = (id_columns[a.rel], id_columns[b.rel]) else {
                continue;
            };
            let a_is_id = a_id == a.col;
            let b_is_id = b_id == b.col;
            match (a_is_id, b_is_id) {
                (false, false) => obstacles.push(
                    RewriteObstacle::new(
                        Def7Clause::JoinsUseIdentifiers,
                        format!(
                            "{}.{} = {}.{} equates two non-identifier attributes",
                            bound.relations[a.rel].binding,
                            column_name(&bound, *a),
                            bound.relations[b.rel].binding,
                            column_name(&bound, *b),
                        ),
                    )
                    .with_span(span),
                ),
                (false, true) => push_arc(&mut arcs, a.rel, b.rel),
                (true, false) => push_arc(&mut arcs, b.rel, a.rel),
                // identifier = identifier joins are allowed (condition 1)
                // but contribute no arc.
                (true, true) => {}
            }
        }
    }

    // Structural problems invalidate the graph itself — conditions 2 and 4
    // are only meaningful once the obstacles above are fixed.
    if !obstacles.is_empty() {
        return Ok(Err(NotRewritable::new(obstacles)));
    }
    let id_columns: Vec<usize> = id_columns.into_iter().flatten().collect();
    let prob_columns: Vec<usize> = prob_columns.into_iter().flatten().collect();
    let bindings: Vec<String> = bound.relations.iter().map(|r| r.binding.clone()).collect();
    let tables: Vec<String> = bound.relations.iter().map(|r| r.table.clone()).collect();

    // --- Condition 2: the graph must be a rooted tree ----------------------
    let root = match tree_root(n, &arcs) {
        Ok(root) => root,
        Err(problems) => {
            let mut parent = RewriteObstacle::new(
                Def7Clause::GraphIsTree,
                format!(
                    "the join graph is not a rooted tree (arcs: {})",
                    JoinGraph {
                        bindings,
                        tables,
                        id_columns,
                        prob_columns,
                        arcs,
                        root: None,
                    }
                    .describe()
                ),
            );
            for p in problems {
                parent = parent.with_child(RewriteObstacle::new(Def7Clause::GraphIsTree, p));
            }
            return Ok(Err(NotRewritable::new(vec![parent])));
        }
    };

    // --- Condition 4: root identifier in the select clause -----------------
    let root_id = ColumnId {
        rel: root,
        col: id_columns[root],
    };
    let selected = bound
        .output
        .iter()
        .any(|o| o.expr == BoundExpr::Column(root_id));
    if !selected {
        let id_name = bound.relations[root]
            .schema
            .column_at(id_columns[root])
            .map(|c| c.name().to_string())
            .unwrap_or_else(|| format!("#{}", id_columns[root]));
        return Ok(Err(NotRewritable::new(vec![RewriteObstacle::new(
            Def7Clause::RootIdProjected,
            format!(
                "the identifier {root}.{id} of the join-graph root must appear in the \
                 select clause; add it to the projection",
                root = bindings[root],
                id = id_name,
            ),
        )
        .with_span(from_span(stmt, root))])));
    }

    Ok(Ok(JoinGraph {
        bindings,
        tables,
        id_columns,
        prob_columns,
        arcs,
        root: Some(root),
    }))
}

/// Span of the `i`-th FROM entry (or none, defensively).
fn from_span(stmt: &SelectStatement, i: usize) -> Span {
    stmt.from.get(i).map(|t| t.span).unwrap_or(Span::NONE)
}

fn push_arc(arcs: &mut Vec<(usize, usize)>, from: usize, to: usize) {
    if !arcs.contains(&(from, to)) {
        arcs.push((from, to));
    }
}

fn column_name(bound: &BoundSelect, id: ColumnId) -> String {
    bound.relations[id.rel]
        .schema
        .column_at(id.col)
        .map(|c| c.name().to_string())
        .unwrap_or_else(|| format!("#{}", id.col))
}

fn describe_conjunct(e: &BoundExpr, bound: &BoundSelect) -> String {
    let rels: Vec<&str> = e
        .relations()
        .iter()
        .map(|r| bound.relations[*r].binding.as_str())
        .collect();
    format!(
        "a non-equality predicate connects relations {}",
        rels.join(", ")
    )
}

/// If the directed graph on `n` vertices is a tree spanning all vertices,
/// return its root; otherwise list every structural defect found.
fn tree_root(n: usize, arcs: &[(usize, usize)]) -> std::result::Result<usize, Vec<String>> {
    let mut problems = Vec::new();
    let mut indegree = vec![0usize; n];
    for (_, t) in arcs {
        indegree[*t] += 1;
    }
    let roots: Vec<usize> = (0..n).filter(|v| indegree[*v] == 0).collect();
    if roots.len() != 1 {
        problems.push(format!(
            "a tree needs exactly one root (vertex with in-degree 0), found {}",
            roots.len()
        ));
    }
    for (v, &deg) in indegree.iter().enumerate() {
        if deg > 1 {
            problems.push(format!("vertex {v} has in-degree {deg} (> 1)"));
        }
    }
    // For a well-formed candidate root (in-degrees 0 once and 1 elsewhere ⇒
    // |arcs| = n-1), check reachability to exclude cycles detached from it.
    if problems.is_empty() {
        let root = roots[0];
        let mut seen = vec![false; n];
        let mut stack = vec![root];
        seen[root] = true;
        while let Some(v) = stack.pop() {
            for (f, t) in arcs {
                if *f == v && !seen[*t] {
                    seen[*t] = true;
                    stack.push(*t);
                }
            }
        }
        if seen.iter().all(|s| *s) {
            return Ok(root);
        }
        problems.push("the join graph is not connected".into());
    }
    Err(problems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DirtySpec;
    use conquer_engine::Database;
    use conquer_sql::parse_select;

    /// The paper's Figure 2 schema: order(id, orderid, custfk, cidfk,
    /// quantity, prob) and customer(id, custid, name, balance, prob).
    fn setup() -> (Catalog, DirtySpec) {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE customer (id TEXT, custid TEXT, name TEXT, balance INTEGER, prob DOUBLE);
             CREATE TABLE orders (id TEXT, orderid TEXT, custfk TEXT, cidfk TEXT, quantity INTEGER, prob DOUBLE);
             CREATE TABLE loyalty (id TEXT, custfk TEXT, cidfk TEXT, prob DOUBLE);",
        )
        .unwrap();
        let spec = DirtySpec::uniform(&["customer", "orders", "loyalty"]);
        (db.catalog().clone(), spec)
    }

    fn check(sql: &str) -> Result<JoinGraph> {
        let (cat, spec) = setup();
        check_rewritable(&cat, &spec, &parse_select(sql).unwrap())
    }

    /// Unwrap the reason tree out of a `check` failure.
    fn reason(err: CoreError) -> NotRewritable {
        match err {
            CoreError::NotRewritable(r) => r,
            other => panic!("expected NotRewritable, got: {other}"),
        }
    }

    #[test]
    fn single_relation_query_is_rewritable() {
        let g = check("select id from customer where balance > 10000").unwrap();
        assert_eq!(g.root, Some(0));
        assert!(g.arcs.is_empty());
    }

    #[test]
    fn fk_join_is_rewritable_with_order_as_root() {
        let g = check(
            "select o.id, c.id from orders o, customer c \
             where o.cidfk = c.id and c.balance > 10000",
        )
        .unwrap();
        assert_eq!(g.root, Some(0));
        assert_eq!(g.arcs, vec![(0, 1)]);
        assert_eq!(g.describe(), "o -> c");
    }

    #[test]
    fn example7_root_id_not_selected() {
        // The paper's Example 7: id of `orders` (the root) is not projected.
        let err = check(
            "select c.id from orders o, customer c \
             where o.quantity < 5 and o.cidfk = c.id and c.balance > 25000",
        )
        .unwrap_err();
        let r = reason(err);
        assert!(r.violates(Def7Clause::RootIdProjected), "{r}");
        assert!(r.obstacles[0].message.contains("o.id"), "{r}");
        // Span points at the root's FROM entry.
        assert!(!r.obstacles[0].span.is_none(), "{r:?}");
    }

    #[test]
    fn non_identifier_join_rejected() {
        let sql = "select o.id, c.id from orders o, customer c where o.custfk = c.custid";
        let r = reason(check(sql).unwrap_err());
        assert!(r.violates(Def7Clause::JoinsUseIdentifiers), "{r}");
        assert!(r.obstacles[0].message.contains("o.custfk"), "{r}");
        // The span covers the offending conjunct.
        let (s, e) = (
            r.obstacles[0].span.start as usize,
            r.obstacles[0].span.end as usize,
        );
        assert_eq!(&sql[s..e], "o.custfk = c.custid");
    }

    #[test]
    fn self_join_rejected() {
        let r =
            reason(check("select a.id from customer a, customer b where a.id = b.id").unwrap_err());
        assert!(r.violates(Def7Clause::NoSelfJoins), "{r}");
    }

    #[test]
    fn non_equi_join_rejected() {
        let r = reason(
            check("select o.id, c.id from orders o, customer c where o.quantity < c.balance")
                .unwrap_err(),
        );
        assert!(r.violates(Def7Clause::EquiJoins), "{r}");
    }

    #[test]
    fn disjunctive_join_rejected_but_local_disjunction_ok() {
        let r = reason(
            check(
                "select o.id, c.id from orders o, customer c \
                 where o.cidfk = c.id or o.custfk = c.id",
            )
            .unwrap_err(),
        );
        assert!(r.violates(Def7Clause::EquiJoins), "{r}");
        // Disjunction local to one relation is a selection and is fine.
        check(
            "select o.id, c.id from orders o, customer c \
             where o.cidfk = c.id and (c.balance > 10 or c.name = 'John')",
        )
        .unwrap();
    }

    #[test]
    fn disconnected_graph_rejected() {
        let r = reason(check("select o.id, c.id from orders o, customer c").unwrap_err());
        assert!(r.violates(Def7Clause::GraphIsTree), "{r}");
    }

    #[test]
    fn two_children_tree_ok() {
        // orders → customer and loyalty → customer is NOT a tree (two roots);
        // but orders → customer plus orders → loyalty is (root = orders).
        let r = reason(
            check(
                "select o.id, c.id, l.id from orders o, customer c, loyalty l \
                 where o.cidfk = c.id and l.cidfk = c.id",
            )
            .unwrap_err(),
        );
        assert!(r.violates(Def7Clause::GraphIsTree), "{r}");
        // The defects are itemized as children of the graph obstacle.
        assert!(!r.obstacles[0].children.is_empty(), "{r}");

        let g = check(
            "select l.id, o.id, c.id from loyalty l, orders o, customer c \
             where l.custfk = o.id and l.cidfk = c.id",
        )
        .unwrap();
        assert_eq!(g.root, Some(0));
        assert_eq!(g.arcs.len(), 2);
    }

    #[test]
    fn id_to_id_join_contributes_no_arc() {
        // Allowed by condition 1 but leaves the graph disconnected → not a
        // tree for two relations.
        let r = reason(
            check("select o.id, c.id from orders o, customer c where o.id = c.id").unwrap_err(),
        );
        assert!(r.violates(Def7Clause::GraphIsTree), "{r}");
    }

    #[test]
    fn aggregate_and_distinct_shapes_rejected() {
        for sql in [
            "select distinct id from customer",
            "select id, count(*) from customer group by id",
            "select sum(balance) from customer",
        ] {
            let r = reason(check(sql).unwrap_err());
            assert!(r.violates(Def7Clause::SpjShape), "{sql}: {r}");
        }
    }

    #[test]
    fn unknown_dirty_relation_reported() {
        let (cat, _) = setup();
        let spec = DirtySpec::uniform(&["customer"]); // orders missing
        let err = check_rewritable(
            &cat,
            &spec,
            &parse_select("select o.id from orders o").unwrap(),
        )
        .unwrap_err();
        assert!(reason(err).violates(Def7Clause::DirtyMetadata));
    }

    #[test]
    fn all_obstacles_collected_and_rendered() {
        // One query violating three clauses at once: DISTINCT, a self-join,
        // and a non-identifier join.
        let sql = "select distinct a.id from customer a, customer b where a.custid = b.custid";
        let r = reason(check(sql).unwrap_err());
        assert!(r.violates(Def7Clause::SpjShape), "{r}");
        assert!(r.violates(Def7Clause::NoSelfJoins), "{r}");
        assert!(r.violates(Def7Clause::JoinsUseIdentifiers), "{r}");
        assert_eq!(r.obstacles.len(), 3, "{r}");
        let tree = r.render_tree(Some(sql));
        assert!(tree.contains("Definition 7"), "{tree}");
        assert!(tree.contains("├─"), "{tree}");
        assert!(tree.contains("└─"), "{tree}");
        assert!(tree.contains('^'), "snippets rendered: {tree}");
    }

    #[test]
    fn duplicate_arc_deduplicated() {
        let g = check(
            "select o.id, c.id from orders o, customer c \
             where o.cidfk = c.id and c.id = o.cidfk and c.balance > 0",
        )
        .unwrap();
        assert_eq!(g.arcs.len(), 1);
    }
}
