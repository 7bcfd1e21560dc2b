//! Delta-maintained materialized views over the paper's rewritten queries.
//!
//! A Definition-7 rewriting always has the shape
//!
//! ```sql
//! SELECT k1, …, kn, SUM(p1 * … * pm) FROM … WHERE … GROUP BY k1, …, kn
//! ```
//!
//! — grouping keys plus a SUM of probability products. SUM is
//! self-maintainable: inserting a base tuple adds its join contributions
//! to the affected groups, deleting one retracts them, and a group
//! disappears exactly when its last contribution is retracted. This
//! module implements that maintenance for `CREATE MATERIALIZED VIEW`.
//!
//! ## Representation
//!
//! A view is two ordinary catalog tables plus a bookkeeping row:
//!
//! * the **contents table**, named like the view — one row per group in
//!   group-key order, columns named and ordered like the defining
//!   projection. `SELECT … FROM view` goes through the normal
//!   binder/planner/executor (result cache included) and therefore
//!   *never* re-executes the base query;
//! * the **state table** `__conquer_view_state_<name>` — one row per
//!   group, in the same key order: the key, the contribution count (a group
//!   is dropped at 0) and the [`ExactSum`] accumulator as one TEXT cell;
//! * a row in **`__conquer_views`** holding the defining SQL and the
//!   `deltas_applied` / `refreshes` counters.
//!
//! Because all three are plain tables they ride the existing WAL
//! (whole-table images per commit) and checkpoint machinery unchanged:
//! base-table change and view maintenance are one atomic commit, so a
//! crash can never expose a half-maintained view.
//!
//! ## Bit-exactness
//!
//! A view never folds in floating point: a group's terms go into an
//! [`ExactSum`], which holds their sum exactly and rounds once, so equal
//! term multisets give byte-identical contents *and* state in any order.
//! `CREATE`/`REFRESH` (every contribution into an empty state) and
//! maintenance (a delta's signed contributions into the stored groups) are
//! the one `fold`. The ad-hoc executor's `SUM` still folds in pipeline
//! order and may differ from a view in the last ulp (see DESIGN.md).
//!
//! ## Delta propagation
//!
//! A DML statement changes exactly one base table `T`, captured as a
//! delta (removed rows, added rows). For a view whose FROM list mentions
//! `T` at occurrences `o1 < o2 < …` the change to the view telescopes:
//!
//! ```text
//! Q(new) − Q(old) = Σ_k Q(new, …, Δ at o_k, …, old)
//! ```
//!
//! — occurrence `o_k` is replaced by the delta, occurrences before it see
//! the new `T`, occurrences after it the old `T` (self-joins included).
//! Each summand is the *projection-only* view query (keys + bare SUM
//! argument, no aggregation) run by the ordinary planner and executor on
//! the live catalog: one side of the delta is registered as the hidden
//! table `DELTA_TABLE` and occurrence `o_k` reads it; a view that lists
//! `T` more than once also finds the pre-statement image as `OLD_TABLE`;
//! every other FROM entry reads its table where it is, stored indexes
//! included. Removed-side rows retract their (key, term) pairs, added-side
//! rows add them. [`Database`]'s maintenance step removes both hidden
//! tables before the statement returns, so neither reaches the WAL or a
//! published version.

use std::collections::btree_map::{BTreeMap, Entry};

use conquer_sql::{AggFunc, Expr, SelectItem, SelectStatement, Statement, TableRef};
use conquer_storage::{Catalog, DataType, Row, Schema, Table, Value};

use crate::binder::bind;
use crate::database::Database;
use crate::error::EngineError;
use crate::exact::ExactSum;
use crate::exec::execute_plan;
use crate::Result;

/// Prefix of every hidden bookkeeping table; direct DML against such
/// tables is refused.
pub const HIDDEN_PREFIX: &str = "__conquer_";

/// The view-registry table: `(name, sql, deltas_applied, refreshes)`.
pub const VIEWS_META: &str = "__conquer_views";

/// Hidden table holding one side of a base-table delta (its removed or
/// its added rows) while a delta query reads it.
pub(crate) const DELTA_TABLE: &str = "__conquer_delta";

/// Hidden table holding the pre-statement image of the changed base table
/// while the delta queries of a self-join view read it.
pub(crate) const OLD_TABLE: &str = "__conquer_old";

/// Both hidden tables of delta evaluation: what maintenance removes from
/// the catalog before its statement returns.
pub(crate) const DELTA_TABLES: [&str; 2] = [DELTA_TABLE, OLD_TABLE];

/// State-table column holding a group's contribution count.
pub(crate) const COUNT_COLUMN: &str = "__conquer_count";

/// State-table column holding a group's encoded [`ExactSum`].
pub(crate) const SUM_COLUMN: &str = "__conquer_sum";

/// Name of the per-group state table of view `name`.
pub fn state_table_name(name: &str) -> String {
    format!("{HIDDEN_PREFIX}view_state_{name}")
}

/// Schema of the [`VIEWS_META`] registry table.
pub(crate) fn meta_schema() -> Result<Schema> {
    Ok(Schema::from_pairs([
        ("name", DataType::Text),
        ("sql", DataType::Text),
        ("deltas_applied", DataType::Int),
        ("refreshes", DataType::Int),
    ])?)
}

/// Maintenance counters of one materialized view (served by the server's
/// `STATS` verb).
#[derive(Debug, Clone, PartialEq)]
pub struct ViewStats {
    /// View name.
    pub name: String,
    /// Current number of groups in the contents table.
    pub rows: usize,
    /// How many DML commits have been incrementally folded in.
    pub deltas_applied: u64,
    /// How many times the view was rebuilt from scratch (`REFRESH`).
    pub refreshes: u64,
}

/// One signed contribution to a view: group key, SUM term, and `true` for
/// an added contribution, `false` for a retracted one.
pub(crate) type Contribution = (Vec<Value>, Value, bool);

/// A change to one base table: the rows a statement removed and added.
/// An update contributes each changed row to both sides.
#[derive(Debug, Default)]
pub(crate) struct TableDelta {
    /// Rows present before the statement and absent after.
    pub removed: Vec<Row>,
    /// Rows absent before the statement and present after.
    pub added: Vec<Row>,
}

impl TableDelta {
    pub(crate) fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }
}

/// An analyzed, maintainable view definition.
#[derive(Debug, Clone)]
pub struct ViewDef {
    /// View name (and name of its contents table).
    pub name: String,
    /// The defining query as written.
    pub query: SelectStatement,
    /// Projection-ordered output items: `(column name, expression)`.
    /// The slot at [`ViewDef::term_index`] holds the SUM *argument*.
    items: Vec<(String, Expr)>,
    /// Which projection slot is the aggregate.
    term_index: usize,
    /// Inferred types of the non-aggregate (key) items, in key order.
    key_types: Vec<DataType>,
}

impl ViewDef {
    /// Check that `query` is delta-maintainable against `catalog` and
    /// build the definition. The `Err` string is the human-readable
    /// refusal reason (wrapped into
    /// [`EngineError::NotMaintainable`] by the caller).
    pub fn analyze(
        catalog: &Catalog,
        name: &str,
        query: SelectStatement,
    ) -> std::result::Result<ViewDef, String> {
        if query.distinct {
            return Err("SELECT DISTINCT is not delta-maintainable".into());
        }
        if query.having.is_some() {
            return Err("HAVING is not delta-maintainable".into());
        }
        if !query.order_by.is_empty() {
            return Err(
                "ORDER BY has no meaning in a maintained view (its contents are kept in \
                 group-key order); order at query time instead"
                    .into(),
            );
        }
        if query.limit.is_some() {
            return Err("LIMIT is not delta-maintainable".into());
        }
        if query.from.is_empty() {
            return Err("the view query needs a FROM clause".into());
        }
        for t in &query.from {
            if t.table.starts_with(HIDDEN_PREFIX) {
                return Err(format!(
                    "{:?} is a view-bookkeeping table and cannot back a view",
                    t.table
                ));
            }
            if !catalog.contains(&t.table) {
                return Err(format!("unknown base table {:?}", t.table));
            }
        }
        if let Some(w) = &query.selection {
            if w.contains_aggregate() {
                return Err("aggregates in WHERE are not delta-maintainable".into());
            }
        }

        // Exactly one aggregate item, a bare non-DISTINCT SUM.
        let mut items: Vec<(String, Expr)> = Vec::with_capacity(query.projection.len());
        let mut term_index: Option<usize> = None;
        for (i, item) in query.projection.iter().enumerate() {
            let SelectItem::Expr { expr, alias } = item else {
                return Err("the projection must list named expressions, not wildcards".into());
            };
            let item_name = match (alias, expr) {
                (Some(a), _) => a.clone(),
                (None, Expr::Column(c)) => c.name.clone(),
                (None, other) => {
                    return Err(format!(
                        "projected expression {other} needs an AS alias to become a view column"
                    ))
                }
            };
            match expr {
                Expr::Aggregate {
                    func,
                    arg,
                    distinct,
                } => {
                    if *func != AggFunc::Sum {
                        return Err(format!(
                            "only SUM is self-maintainable; {} is not",
                            func.name()
                        ));
                    }
                    if *distinct {
                        return Err("SUM(DISTINCT …) is not delta-maintainable".into());
                    }
                    let Some(arg) = arg else {
                        return Err("SUM needs an argument".into());
                    };
                    if term_index.is_some() {
                        return Err("the projection must contain exactly one SUM, found two".into());
                    }
                    if arg.contains_aggregate() {
                        return Err("nested aggregates are not allowed".into());
                    }
                    term_index = Some(i);
                    items.push((item_name, (**arg).clone()));
                }
                other => {
                    if other.contains_aggregate() {
                        return Err(format!(
                            "the aggregate must be a bare SUM projection, not embedded in {other}"
                        ));
                    }
                    items.push((item_name, other.clone()));
                }
            }
        }
        let Some(term_index) = term_index else {
            return Err(
                "the projection must contain a SUM aggregate (keys + SUM of probability \
                 products, Definition 7)"
                    .into(),
            );
        };
        for (i, (n, _)) in items.iter().enumerate() {
            if items.iter().skip(i + 1).any(|(m, _)| m == n) {
                return Err(format!("duplicate view column name {n:?}"));
            }
            if n.starts_with(HIDDEN_PREFIX) {
                return Err(format!(
                    "view column name {n:?} collides with the hidden bookkeeping prefix"
                ));
            }
        }

        // GROUP BY must be set-equal to the non-aggregate projections.
        let key_exprs: Vec<&Expr> = items
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != term_index)
            .map(|(_, (_, e))| e)
            .collect();
        if key_exprs.is_empty() {
            return Err(
                "a scalar aggregate (no GROUP BY keys) is not delta-maintainable; \
                 group by at least one key"
                    .into(),
            );
        }
        for g in &query.group_by {
            if !key_exprs.contains(&g) {
                return Err(format!("GROUP BY expression {g} is not in the projection"));
            }
        }
        for k in &key_exprs {
            if !query.group_by.iter().any(|g| g == *k) {
                return Err(format!("projected key {k} is missing from GROUP BY"));
            }
        }

        // Static types for the contents/state table schemas. Conservative:
        // an expression the binder cannot type makes the view
        // non-maintainable.
        let binding = bind(catalog, &query);
        if let Some(d) = binding.diagnostics.first() {
            return Err(d.message.clone());
        }
        let type_of = |e: &Expr| {
            binding
                .scope
                .infer_type(e)
                .ok_or_else(|| format!("cannot infer a static type for {e}"))
        };
        let key_types = key_exprs
            .iter()
            .map(|k| type_of(k))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let term_type = type_of(&items[term_index].1)?;
        if term_type != DataType::Float {
            return Err(format!(
                "the SUM argument must be FLOAT-typed (a probability product), got {}",
                term_type.name()
            ));
        }

        Ok(ViewDef {
            name: name.to_string(),
            query,
            items,
            term_index,
            key_types,
        })
    }

    /// Re-analyze a stored definition (rehydration after restart).
    pub(crate) fn from_sql(
        catalog: &Catalog,
        name: &str,
        sql: &str,
    ) -> std::result::Result<ViewDef, String> {
        match conquer_sql::parse_statement(sql) {
            Ok(Statement::Select(q)) => ViewDef::analyze(catalog, name, q),
            Ok(other) => Err(format!("stored view definition is not a SELECT: {other}")),
            Err(e) => Err(format!("stored view definition does not parse: {e}")),
        }
    }

    /// Does the view's FROM clause mention `table`?
    pub fn references(&self, table: &str) -> bool {
        self.occurrences(table).next().is_some()
    }

    /// The FROM-list positions at which the view reads `table`, ascending.
    pub(crate) fn occurrences<'a>(&'a self, table: &'a str) -> impl Iterator<Item = usize> + 'a {
        self.query
            .from
            .iter()
            .enumerate()
            .filter(move |(_, t)| t.table == table)
            .map(|(j, _)| j)
    }

    /// Name of this view's hidden state table.
    pub fn state_table(&self) -> String {
        state_table_name(&self.name)
    }

    /// The defining SQL as stored in the registry.
    pub fn sql(&self) -> String {
        self.query.to_string()
    }

    /// The key columns, `(name, type)` in projection order.
    fn key_columns(&self) -> Vec<(String, DataType)> {
        let names = self
            .items
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != self.term_index);
        names
            .zip(&self.key_types)
            .map(|((_, (n, _)), t)| (n.clone(), *t))
            .collect()
    }

    /// Schema of the contents table: projection-ordered and -named, SUM
    /// column typed FLOAT.
    pub(crate) fn contents_schema(&self) -> Result<Schema> {
        let mut columns = self.key_columns();
        let sum = self.items[self.term_index].0.clone();
        columns.insert(self.term_index, (sum, DataType::Float));
        Ok(Schema::from_pairs(columns)?)
    }

    /// Schema of the state table: the keys, then the contribution count and
    /// the encoded accumulator.
    pub(crate) fn state_schema(&self) -> Result<Schema> {
        let mut columns = self.key_columns();
        columns.push((COUNT_COLUMN.to_string(), DataType::Int));
        columns.push((SUM_COLUMN.to_string(), DataType::Text));
        Ok(Schema::from_pairs(columns)?)
    }

    /// The projection-only form of the view query over the original
    /// FROM/WHERE: keys plus the *bare* SUM argument, no aggregation — one
    /// output row per contribution.
    pub(crate) fn projection_query(&self) -> SelectStatement {
        SelectStatement {
            distinct: false,
            projection: self
                .items
                .iter()
                .map(|(_, e)| SelectItem::Expr {
                    expr: e.clone(),
                    alias: None,
                })
                .collect(),
            from: self.query.from.clone(),
            selection: self.query.selection.clone(),
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// Split one projection-only output row into a signed contribution.
    fn contribution(&self, mut row: Row, add: bool) -> Contribution {
        let term = row.remove(self.term_index);
        (row, term, add)
    }
}

/// Evaluate the view from scratch: every contribution of the
/// projection-only query, folded as an addition into an empty state. What
/// `CREATE` and `REFRESH` install.
pub(crate) fn recompute(db: &Database, view: &ViewDef) -> Result<(Table, Table)> {
    let rows = db.prepare_select(&view.projection_query())?.query(db)?.rows;
    let contributions = rows.into_iter().map(|row| view.contribution(row, true));
    fold(view, None, contributions)
}

/// The one view fold: apply signed contributions to the view's groups as
/// stored in `prior` (`None` for an empty view); return the new contents
/// and state tables. A touched group's state row is decoded once; its count
/// moves by ±1 and its accumulator adds the term or its negation. Untouched
/// groups are copied. A group disappears at count 0; a count below 0 means
/// the state diverged from the bases, an internal error that aborts the
/// commit. A state table in the older per-contribution layout is refused
/// with a typed error naming `REFRESH`, which rebuilds both tables.
pub(crate) fn fold(
    view: &ViewDef,
    prior: Option<&Catalog>,
    contributions: impl IntoIterator<Item = Contribution>,
) -> Result<(Table, Table)> {
    let diverged = |what: &str| EngineError::internal(format!("view {:?}: {what}", view.name));
    let (prior_contents, prior_state) = match prior {
        None => (&[][..], &[][..]),
        Some(catalog) => {
            let state = catalog.table(&view.state_table())?;
            if *state.schema() != view.state_schema()? {
                return Err(EngineError::NotMaintainable(format!(
                    "view {:?} keeps its state in an older layout; run REFRESH MATERIALIZED \
                     VIEW {} to rebuild it",
                    view.name, view.name
                )));
            }
            (catalog.table(&view.name)?.rows(), state.rows())
        }
    };
    if prior_contents.len() != prior_state.len() {
        return Err(diverged("contents and state tables differ in length"));
    }
    let width = view.key_types.len();
    let mut touched: BTreeMap<Vec<Value>, (i64, ExactSum)> = BTreeMap::new();
    for (key, term, add) in contributions {
        if !add && conquer_sync::mutant("view::skip-retract") {
            // Seeded mutant: "forget" to retract, so deleted base rows keep
            // contributing. The oracle and the schedule explorer catch it.
            continue;
        }
        let (count, sum) = match touched.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let found = prior_state.binary_search_by(|row| row[..width].cmp(e.key()));
                let group = match found.map(|i| &prior_state[i][width..]) {
                    Err(_) => (0, ExactSum::new()),
                    Ok([Value::Int(count), Value::Text(sum)]) if *count > 0 => {
                        let sum = ExactSum::decode(sum)
                            .ok_or_else(|| diverged("unreadable accumulator"))?;
                        (*count, sum)
                    }
                    Ok(_) => return Err(diverged("malformed state row")),
                };
                e.insert(group)
            }
        };
        *count += if add { 1 } else { -1 };
        if *count < 0 {
            return Err(diverged("a retraction drove a group's count below 0"));
        }
        // NULL terms count toward the group but not toward its SUM.
        match term.as_f64() {
            Some(x) if add => sum.add(x),
            Some(x) => sum.retract(x),
            None => {}
        }
    }

    // Merge the touched groups into the untouched ones, both in key order.
    let mut contents = Table::new(&view.name, view.contents_schema()?);
    let mut state = Table::new(view.state_table(), view.state_schema()?);
    let mut prior = prior_contents.iter().zip(prior_state).peekable();
    for (key, (count, sum)) in touched {
        while let Some((c, s)) = prior.next_if(|(_, s)| s[..width] < key[..]) {
            contents.insert(c.clone())?;
            state.insert(s.clone())?;
        }
        prior.next_if(|(_, s)| s[..width] == key[..]);
        if count == 0 {
            if !sum.is_empty() {
                return Err(diverged("a group with no contributions kept a sum"));
            }
            continue;
        }
        let mut row = key.clone();
        let value = sum.value().map_or(Value::Null, Value::Float);
        row.insert(view.term_index, value);
        contents.insert(row)?;
        let mut row = key;
        row.extend([Value::Int(count), Value::Text(sum.encode())]);
        state.insert(row)?;
    }
    for (c, s) in prior {
        contents.insert(c.clone())?;
        state.insert(s.clone())?;
    }
    Ok((contents, state))
}

/// Evaluate the signed (key, term) contribution pairs of one base-table
/// delta against one view, by the telescoping decomposition described in
/// the module docs. `db` is the *post-statement* database; when the view
/// lists `table` more than once its catalog already holds the
/// pre-statement image as [`OLD_TABLE`]. Each delta side is registered as
/// [`DELTA_TABLE`] and left there — the caller drops both hidden tables on
/// every exit. The `bool` is `true` for an added contribution, `false`
/// for a retraction.
pub(crate) fn delta_pairs(
    db: &mut Database,
    view: &ViewDef,
    table: &str,
    delta: &TableDelta,
) -> Result<Vec<Contribution>> {
    let schema = db.catalog().table(table)?.schema().clone();
    let mut pairs = Vec::new();
    for k in view.occurrences(table) {
        // The telescope: the delta at slot `k`, the new `T` (the live
        // table) before it, the old `T` after it. Aliases keep the
        // original binding names, so the selection binds unchanged.
        let mut query = view.projection_query();
        for (j, tref) in query.from.iter_mut().enumerate().skip(k) {
            if tref.table == table {
                let hidden = if j == k { DELTA_TABLE } else { OLD_TABLE };
                *tref = TableRef::aliased(hidden, tref.binding_name().to_string());
            }
        }
        for (side, add) in [(&delta.removed, false), (&delta.added, true)] {
            if side.is_empty() {
                continue;
            }
            let mut side_table = Table::new(DELTA_TABLE, schema.clone());
            side_table.insert_all(side.iter().cloned())?;
            db.catalog_mut().replace_table(side_table);
            let plan = db.plan(&query)?;
            let rows = execute_plan(db.catalog(), &plan, &db.exec_context(*db.limits()))?.rows;
            pairs.extend(rows.into_iter().map(|row| view.contribution(row, add)));
        }
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "t",
            Schema::from_pairs([
                ("id", DataType::Text),
                ("n", DataType::Int),
                ("prob", DataType::Float),
            ])
            .unwrap(),
        ))
        .unwrap();
        cat
    }

    fn analyze(sql: &str) -> std::result::Result<ViewDef, String> {
        let Statement::Select(q) = conquer_sql::parse_statement(sql).unwrap() else {
            panic!("not a select")
        };
        ViewDef::analyze(&catalog(), "v", q)
    }

    #[test]
    fn clean_answer_shape_is_maintainable() {
        let v = analyze("SELECT id, SUM(prob) AS p FROM t GROUP BY id").unwrap();
        assert_eq!(v.term_index, 1);
        assert_eq!(v.key_types, vec![DataType::Text]);
        assert!(v.references("t"));
        assert!(!v.references("u"));
    }

    #[test]
    fn refusals_name_the_reason() {
        for (sql, needle) in [
            ("SELECT DISTINCT id FROM t", "DISTINCT"),
            (
                "SELECT id, SUM(prob) AS p FROM t GROUP BY id LIMIT 3",
                "LIMIT",
            ),
            (
                "SELECT id, SUM(prob) AS p FROM t GROUP BY id ORDER BY id",
                "ORDER BY",
            ),
            (
                "SELECT id, SUM(prob) AS p FROM t GROUP BY id HAVING SUM(prob) > 1",
                "HAVING",
            ),
            ("SELECT id, COUNT(*) AS c FROM t GROUP BY id", "COUNT"),
            ("SELECT id FROM t GROUP BY id", "SUM"),
            ("SELECT SUM(prob) AS p FROM t", "GROUP BY"),
            ("SELECT id, SUM(n) AS s FROM t GROUP BY id", "FLOAT"),
            (
                "SELECT id, n, SUM(prob) AS p FROM t GROUP BY id",
                "GROUP BY",
            ),
            (
                "SELECT id, SUM(prob) AS a, SUM(prob) AS b FROM t GROUP BY id",
                "exactly one",
            ),
            ("SELECT id, SUM(prob) AS p FROM nope GROUP BY id", "nope"),
            ("SELECT *, SUM(prob) AS p FROM t GROUP BY id", "wildcard"),
            (
                "SELECT id, SUM(prob) AS __conquer_sum FROM t GROUP BY id",
                "hidden bookkeeping prefix",
            ),
        ] {
            let err = analyze(sql).unwrap_err();
            assert!(err.contains(needle), "{sql}: {err}");
        }
    }

    #[test]
    fn fold_is_order_independent_and_count_backed() {
        let v = analyze("SELECT id, SUM(prob) AS p FROM t GROUP BY id").unwrap();
        let key = |k: &str| vec![Value::text(k)];
        let terms = [0.1, 0.2, 0.3, 1e-17, 0.7];
        let forward = terms.iter().map(|x| (key("a"), Value::Float(*x), true));
        let backward = terms
            .iter()
            .rev()
            .map(|x| (key("a"), Value::Float(*x), true));
        let (c1, s1) = fold(&v, None, forward).unwrap();
        let (c2, s2) = fold(&v, None, backward).unwrap();
        assert_eq!(c1.rows(), c2.rows());
        assert_eq!(s1.rows(), s2.rows());
        // One state row per group, holding the contribution count.
        assert_eq!(s1.len(), 1);
        assert_eq!(s1.rows()[0][1], Value::Int(5));
        // A group of only-NULL terms sums to NULL.
        let (c, _) = fold(&v, None, [(key("n"), Value::Null, true)]).unwrap();
        assert_eq!(c.rows()[0][1], Value::Null);
    }

    #[test]
    fn retraction_without_match_is_internal_error() {
        let v = analyze("SELECT id, SUM(prob) AS p FROM t GROUP BY id").unwrap();
        let c = |k: &str, x: f64, add: bool| (vec![Value::text(k)], Value::Float(x), add);
        let stored = |pairs: Vec<Contribution>| {
            let (contents, state) = fold(&v, None, pairs).unwrap();
            let mut cat = Catalog::new();
            cat.add_table(contents).unwrap();
            cat.add_table(state).unwrap();
            cat
        };
        let cat = stored(vec![
            c("a", 0.5, true),
            c("b", 0.25, true),
            c("b", 0.5, true),
        ]);
        // A retraction for a group that is not in the state table.
        let err = fold(&v, Some(&cat), [c("z", 0.5, false)]).unwrap_err();
        assert!(matches!(err, EngineError::Internal(_)), "{err}");
        // One more retraction than the group has contributions.
        let err = fold(&v, Some(&cat), [c("a", 0.5, false), c("a", 0.5, false)]).unwrap_err();
        assert!(matches!(err, EngineError::Internal(_)), "{err}");
        // Count-backed: a group keeps its row while it has contributions
        // and loses it with the last; untouched groups stay in key order.
        let (contents, state) = fold(&v, Some(&cat), [c("b", 0.5, false)]).unwrap();
        assert_eq!(
            contents.rows(),
            stored(vec![c("a", 0.5, true), c("b", 0.25, true)])
                .table("v")
                .unwrap()
                .rows()
        );
        assert_eq!(state.rows()[1][1], Value::Int(1));
        let (contents, state) = fold(&v, Some(&cat), [c("a", 0.5, false)]).unwrap();
        assert_eq!((contents.len(), state.len()), (1, 1));
        assert_eq!(contents.rows()[0][0], Value::text("b"));
    }
}
