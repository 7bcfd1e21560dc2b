//! Name resolution and `Expr` lowering — the only module that does
//! either. What it lowers it types by [`BoundExpr::data_type`].
//!
//! `bind` turns a parsed [`SelectStatement`] into a `Binding`: the FROM
//! clause becomes a `Scope`, column references become [`ColumnId`]s,
//! wildcards are expanded, aggregate queries are analyzed into group keys +
//! aggregate calls, and `ORDER BY` items are resolved against select
//! aliases where applicable. The binder *keeps going*: every problem is
//! recorded as a span-carrying [`Diagnostic`] and binding continues with
//! the next expression, so one pass serves both callers —
//! [`bind_select`] turns the first diagnostic into an
//! [`EngineError::Bind`], [`crate::analyze`] reports all of them and runs
//! its lint passes over the same `Binding`.
//!
//! Two expression "spaces" exist after binding:
//!
//! * **relation space** — expressions over the FROM relations (scan filters,
//!   join predicates, group keys, aggregate arguments);
//! * **slot space** — for aggregate queries, expressions over the synthetic
//!   row `[group keys…, aggregate results…]` produced by the aggregation
//!   operator (projection, HAVING, ORDER BY). Slot-space expressions use
//!   relation index 0 by convention.

use conquer_sql::{
    AggFunc, BinaryOp, ColumnRef, Expr, Literal, OrderByItem, SelectItem, SelectStatement, Span,
    TableRef, UnaryOp,
};
use conquer_storage::{Catalog, DataType, Schema, Value};

use crate::analyze::{expr_span, unknown_table, Code, Diagnostic};
use crate::error::EngineError;
use crate::expr::{BoundExpr, ColumnId};
use crate::Result;

/// A FROM-clause relation after resolution.
#[derive(Debug, Clone)]
pub struct BoundRelation {
    /// Table name in the catalog.
    pub table: String,
    /// The name expressions refer to it by (alias or table name).
    pub binding: String,
    /// A copy of the table's schema at bind time.
    pub schema: Schema,
}

/// One aggregate call collected from an aggregate query.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    /// Which aggregate function.
    pub func: AggFunc,
    /// Argument in relation space (`None` = `COUNT(*)`).
    pub arg: Option<BoundExpr>,
    /// `DISTINCT` inside the call?
    pub distinct: bool,
    /// A product-sum's factors, in product order: set for a
    /// non-`DISTINCT` `SUM` whose argument is a left-deep product
    /// `((c1 * c2) * …) * cm` of m ≥ 2 bare columns the schema declares
    /// `DOUBLE` (RewriteClean's `SUM(R1.prob * … * Rm.prob)`), empty for
    /// every other call. The executor multiplies these cells as `f64`s
    /// instead of evaluating `arg`, which computes the same bits.
    pub factors: Vec<ColumnId>,
    /// Set on a `SUM` only by the view module, on the plans it builds; SQL
    /// text cannot ask for it. The call then finalizes to its exact sum's
    /// [`ExactSum::encode`](crate::exact::ExactSum::encode) text instead
    /// of the rounded value, so a view merges exact partial sums.
    pub(crate) exact: bool,
}

impl AggCall {
    /// The call's result type, its argument's columns typed by `column`:
    /// `COUNT` is `INTEGER`, `AVG` `DOUBLE`, and `SUM`, `MIN` and `MAX`
    /// take their argument's type.
    pub(crate) fn data_type(
        &self,
        column: &impl Fn(ColumnId) -> Option<DataType>,
    ) -> Option<DataType> {
        match self.func {
            AggFunc::Count => Some(DataType::Int),
            AggFunc::Avg => Some(DataType::Float),
            _ => self.arg.as_ref()?.data_type(column),
        }
    }
}

/// The columns of a left-deep product `((c1 * c2) * …) * cm` of m ≥ 2
/// bare columns, in product order; `None` for any other expression.
pub(crate) fn product_columns(e: &BoundExpr) -> Option<Vec<ColumnId>> {
    let mut columns = Vec::new();
    let mut e = e;
    while let BoundExpr::Binary {
        left,
        op: BinaryOp::Mul,
        right,
    } = e
    {
        let BoundExpr::Column(id) = **right else {
            return None;
        };
        columns.push(id);
        e = left;
    }
    let BoundExpr::Column(first) = *e else {
        return None;
    };
    columns.push(first);
    columns.reverse();
    (columns.len() >= 2).then_some(columns)
}

/// Group-by analysis of an aggregate query.
#[derive(Debug, Clone)]
pub struct GroupSpec {
    /// Grouping keys in relation space.
    pub keys: Vec<BoundExpr>,
    /// Aggregate calls in relation space.
    pub aggs: Vec<AggCall>,
    /// HAVING predicate in slot space.
    pub having: Option<BoundExpr>,
}

/// One output column.
#[derive(Debug, Clone)]
pub struct OutputItem {
    /// Output column name.
    pub name: String,
    /// Expression: relation space for plain queries, slot space for
    /// aggregate queries.
    pub expr: BoundExpr,
}

/// A resolved ORDER BY key.
#[derive(Debug, Clone)]
pub enum OrderKey {
    /// Sort by an output column (alias or positional reference).
    Output(usize),
    /// Sort by an expression (same space as the query's output items).
    Expr(BoundExpr),
}

/// A resolved ORDER BY item.
#[derive(Debug, Clone)]
pub struct BoundOrderBy {
    /// What to sort by.
    pub key: OrderKey,
    /// Descending?
    pub desc: bool,
}

/// A fully resolved SELECT, ready for planning.
#[derive(Debug, Clone)]
pub struct BoundSelect {
    /// FROM relations in query order (relation index = position here).
    pub relations: Vec<BoundRelation>,
    /// WHERE predicate in relation space.
    pub filter: Option<BoundExpr>,
    /// Aggregate analysis (`None` for plain SPJ queries).
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

/// One FROM entry as the binder met it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScopeRelation<'a> {
    /// Table name as written.
    pub table: &'a str,
    /// The name expressions refer to it by (alias or table name).
    pub binding: &'a str,
    /// The table's schema; `None` when the catalog has no such table
    /// (reported once, at the FROM entry).
    pub schema: Option<&'a Schema>,
    /// Where the FROM entry sits in the SQL text.
    pub span: Span,
}

/// The FROM clause as a name-resolution scope: every entry in query
/// order — including ones whose table is unknown or whose binding repeats
/// an earlier one, so relation indices always equal FROM positions.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scope<'a> {
    /// The FROM entries.
    pub relations: Vec<ScopeRelation<'a>>,
}

/// Why a column reference did not resolve. Carries the relation indices a
/// "did you mean" / "qualify it" help line is built from.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Unresolved {
    /// The qualifier names no FROM binding.
    Relation,
    /// No candidate relation has such a column; `Some(rel)` when a
    /// qualifier pinned the search to one relation.
    Column(Option<usize>),
    /// Several relations have it.
    Ambiguous(Vec<usize>),
    /// It may live in a FROM table that itself did not resolve; that was
    /// reported at the FROM entry and is not repeated per column.
    InUnknownTable,
}

impl<'a> Scope<'a> {
    /// Resolve a column reference, without side effects.
    fn lookup(&self, c: &ColumnRef) -> std::result::Result<ColumnId, Unresolved> {
        let pinned = match &c.qualifier {
            Some(q) => Some(
                self.relations
                    .iter()
                    .position(|r| r.binding == q)
                    .ok_or(Unresolved::Relation)?,
            ),
            None => None,
        };
        let candidates = || {
            self.relations
                .iter()
                .enumerate()
                .filter(move |(rel, _)| pinned.is_none() || pinned == Some(*rel))
        };
        let mut hits = candidates().filter_map(|(rel, r)| {
            let col = r.schema?.index_of(&c.name)?;
            Some(ColumnId { rel, col })
        });
        match (hits.next(), hits.next()) {
            (Some(id), None) => Ok(id),
            (Some(a), Some(b)) => Err(Unresolved::Ambiguous(
                [a, b].into_iter().chain(hits).map(|id| id.rel).collect(),
            )),
            (None, _) if candidates().any(|(_, r)| r.schema.is_none()) => {
                Err(Unresolved::InUnknownTable)
            }
            (None, _) => Err(Unresolved::Column(pinned)),
        }
    }

    /// The diagnostic for a failed [`Scope::lookup`] of `c`.
    fn diagnose(&self, c: &ColumnRef, why: Unresolved) -> Option<Diagnostic> {
        let qualifier = c.qualifier.as_deref().unwrap_or_default();
        Some(match why {
            Unresolved::InUnknownTable => return None,
            Unresolved::Relation => Diagnostic::new(
                Code::UnknownTable,
                c.span,
                format!("unknown relation {qualifier:?}"),
            )
            .did_you_mean(qualifier, self.relations.iter().map(|r| r.binding)),
            Unresolved::Column(Some(rel)) => Diagnostic::new(
                Code::UnknownColumn,
                c.span,
                format!("no column {:?} in relation {qualifier:?}", c.name),
            )
            .did_you_mean(&c.name, self.column_names(rel..rel + 1)),
            Unresolved::Column(None) => Diagnostic::new(
                Code::UnknownColumn,
                c.span,
                format!("unknown column {:?}", c.name),
            )
            .did_you_mean(&c.name, self.column_names(0..self.relations.len())),
            Unresolved::Ambiguous(owners) => {
                let owners: Vec<&str> = owners
                    .iter()
                    .map(|rel| self.relations[*rel].binding)
                    .collect();
                Diagnostic::new(
                    Code::AmbiguousColumn,
                    c.span,
                    format!("ambiguous column reference {:?}", c.name),
                )
                .with_help(format!("qualify it with one of: {}", owners.join(", ")))
            }
        })
    }

    fn column_names(&self, rels: std::ops::Range<usize>) -> impl Iterator<Item = &'a str> + '_ {
        self.relations[rels]
            .iter()
            .filter_map(|r| r.schema)
            .flat_map(Schema::names)
    }

    /// A relation-space column's declared type.
    fn column_type(&self, id: ColumnId) -> Option<DataType> {
        let schema = self.relations.get(id.rel)?.schema?;
        Some(schema.column_at(id.col)?.data_type())
    }

    /// The static type of `e` lowered quietly in this scope, into slot space
    /// over the group `keys` when it holds an aggregate; `None` when it
    /// does not lower. The CQ0005/CQ1003 lints type their operands so.
    pub(crate) fn type_of(&self, e: &Expr, keys: &[BoundExpr]) -> Option<DataType> {
        let mut binder = Binder {
            scope: self.clone(),
            keys: keys.to_vec(),
            ..Binder::default()
        };
        let space = match e.contains_aggregate() {
            true => Space::Slots { clause: "" },
            false => SCALAR,
        };
        let bound = binder.lower(e, space)?;
        binder.type_in(&bound, space)
    }
}

/// A relation-space column's declared type in `relations`.
pub(crate) fn column_type(relations: &[BoundRelation], id: ColumnId) -> Option<DataType> {
    Some(relations.get(id.rel)?.schema.column_at(id.col)?.data_type())
}

/// The slot types of an aggregate query with group `keys` and calls
/// `aggs`, whose relation-space columns `column` types: a slot takes its
/// key's type or its call's result type.
pub(crate) fn slot_types<'a>(
    keys: &'a [BoundExpr],
    aggs: &'a [AggCall],
    column: &'a impl Fn(ColumnId) -> Option<DataType>,
) -> impl Fn(ColumnId) -> Option<DataType> + 'a {
    move |slot| match keys.get(slot.col) {
        Some(key) => key.data_type(column),
        None => aggs.get(slot.col - keys.len())?.data_type(column),
    }
}

/// Everything one keep-going bind learned about a SELECT.
#[derive(Debug, Clone)]
pub(crate) struct Binding<'a> {
    /// The FROM clause as resolved.
    pub scope: Scope<'a>,
    /// The binder's findings in the order it met them, all of error
    /// severity. Empty ⇔ [`bind_select`] succeeds.
    pub diagnostics: Vec<Diagnostic>,
    /// The resolved query: `Some` whenever every FROM table and every
    /// expression resolved — which a duplicate FROM binding (CQ0006) does
    /// not prevent, so the lint passes still see such a query.
    pub select: Option<BoundSelect>,
}

/// Bind `stmt` against `catalog`, collecting every diagnostic.
pub(crate) fn bind<'a>(catalog: &'a Catalog, stmt: &'a SelectStatement) -> Binding<'a> {
    let mut binder = Binder::default();
    binder.bind_from(catalog, &stmt.from);
    let select = binder.bind_query(stmt);
    Binding {
        scope: binder.scope,
        diagnostics: binder.diags,
        select,
    }
}

/// Bind `stmt` against `catalog`; the first diagnostic, if any, is the
/// error.
pub fn bind_select(catalog: &Catalog, stmt: &SelectStatement) -> Result<BoundSelect> {
    let Binding {
        diagnostics,
        select,
        ..
    } = bind(catalog, stmt);
    first_error(diagnostics)?;
    select.ok_or_else(|| EngineError::internal("the binder dropped a query without a diagnostic"))
}

/// Bind an aggregate-free expression against a single table (used by
/// `DELETE`/`UPDATE`, whose scope is one relation). The relation gets
/// index 0.
pub fn bind_table_expr(catalog: &Catalog, table: &str, expr: &Expr) -> Result<BoundExpr> {
    let t = catalog.table(table)?;
    let mut binder = Binder::default();
    binder.scope.relations.push(ScopeRelation {
        table: t.name(),
        binding: t.name(),
        schema: Some(t.schema()),
        span: Span::NONE,
    });
    binder.finish_expr(
        expr,
        Space::Relations {
            no_aggregates: "aggregates are not allowed here",
        },
    )
}

/// Bind a constant expression (INSERT values): no column references, no
/// aggregates.
pub(crate) fn bind_constant(expr: &Expr) -> Result<BoundExpr> {
    Binder::default().finish_expr(expr, Space::Constants)
}

fn first_error(diagnostics: Vec<Diagnostic>) -> Result<()> {
    match diagnostics.into_iter().next() {
        None => Ok(()),
        Some(Diagnostic {
            message,
            help: Some(help),
            ..
        }) => Err(EngineError::bind(format!("{message} ({help})"))),
        Some(d) => Err(EngineError::bind(d.message)),
    }
}

/// What the leaves of an expression lower to.
#[derive(Clone, Copy)]
enum Space {
    /// Relation space: columns resolve against the scope; an aggregate
    /// call is the error `no_aggregates`.
    Relations { no_aggregates: &'static str },
    /// Slot space of an aggregate query: an aggregate call becomes its
    /// slot, a subexpression equal to a group key becomes the key's slot,
    /// and any other column is dropped by grouping (CQ0008, naming the
    /// `clause` it sits in).
    Slots { clause: &'static str },
    /// No relations in sight: columns and aggregates are both errors.
    Constants,
}

const SCALAR: Space = Space::Relations {
    no_aggregates: "aggregate used where a scalar expression is required",
};

#[derive(Default)]
struct Binder<'a> {
    scope: Scope<'a>,
    diags: Vec<Diagnostic>,
    /// Group keys of an aggregate query (relation space); slot `i` is key
    /// `i`.
    keys: Vec<BoundExpr>,
    /// Its aggregate calls; slot `keys.len() + j` is aggregate `j`.
    aggs: Vec<AggCall>,
}

impl<'a> Binder<'a> {
    fn error(&mut self, code: Code, span: Span, message: impl Into<String>) {
        self.diags.push(Diagnostic::new(code, span, message));
    }

    fn bind_from(&mut self, catalog: &'a Catalog, from: &'a [TableRef]) {
        if from.is_empty() {
            self.error(Code::BindError, Span::NONE, "queries require a FROM clause");
        }
        for tref in from {
            let binding = tref.binding_name();
            if self.scope.relations.iter().any(|r| r.binding == binding) {
                self.diags.push(
                    Diagnostic::new(
                        Code::DuplicateBinding,
                        tref.span,
                        format!("duplicate relation name {binding:?} in FROM"),
                    )
                    .with_help("give it a distinct alias"),
                );
            }
            let schema = match catalog.table(&tref.table) {
                Ok(t) => Some(t.schema()),
                Err(_) => {
                    self.diags
                        .push(unknown_table(catalog, &tref.table, tref.span));
                    None
                }
            };
            self.scope.relations.push(ScopeRelation {
                table: &tref.table,
                binding,
                schema,
                span: tref.span,
            });
        }
    }

    /// The one test for "is this an aggregate query".
    fn is_aggregate(stmt: &SelectStatement) -> bool {
        !stmt.group_by.is_empty()
            || stmt.having.is_some()
            || stmt.projection.iter().any(
                |item| matches!(item, SelectItem::Expr { expr, .. } if expr.contains_aggregate()),
            )
            || stmt.order_by.iter().any(|o| o.expr.contains_aggregate())
    }

    fn bind_query(&mut self, stmt: &SelectStatement) -> Option<BoundSelect> {
        let filter = self.lower_opt(
            stmt.selection.as_ref(),
            Space::Relations {
                no_aggregates: "aggregates are not allowed in WHERE",
            },
        );
        let aggregate = Self::is_aggregate(stmt);
        let mut keys_resolved = true;
        for g in &stmt.group_by {
            let space = Space::Relations {
                no_aggregates: "aggregates are not allowed in GROUP BY",
            };
            match self.lower(g, space) {
                Some(key) => self.keys.push(key),
                None => keys_resolved = false,
            }
        }
        let clause = |clause| {
            if aggregate {
                Space::Slots { clause }
            } else {
                SCALAR
            }
        };
        let output = self.bind_projection(&stmt.projection, aggregate, clause("SELECT list"));
        let having = self.lower_opt(stmt.having.as_ref(), clause("HAVING"));
        let order_by = self.bind_order_by(&stmt.order_by, &output, clause("ORDER BY"));
        // DISTINCT compares output rows, so a sort key that is not one of
        // their columns has no single value per row.
        let projected = |e: &BoundExpr| output.iter().any(|(_, o)| o.as_ref() == Some(e));
        let mut keys = order_by.iter().flatten().zip(&stmt.order_by);
        if let Some((_, item)) = keys
            .find(|(o, _)| stmt.distinct && matches!(&o.key, OrderKey::Expr(e) if !projected(e)))
        {
            self.error(
                Code::BindError,
                expr_span(&item.expr),
                "DISTINCT with ORDER BY on non-projected expressions is not supported",
            );
        }

        let relations = self
            .scope
            .relations
            .iter()
            .map(|r| {
                Some(BoundRelation {
                    table: r.table.to_string(),
                    binding: r.binding.to_string(),
                    schema: r.schema?.clone(),
                })
            })
            .collect::<Option<_>>()?;
        let group = if aggregate {
            Some(GroupSpec {
                keys: keys_resolved.then(|| std::mem::take(&mut self.keys))?,
                aggs: std::mem::take(&mut self.aggs),
                having: having?,
            })
        } else {
            None
        };
        Some(BoundSelect {
            relations,
            filter: filter?,
            group,
            output: output
                .into_iter()
                .map(|(name, expr)| Some(OutputItem { name, expr: expr? }))
                .collect::<Option<_>>()?,
            distinct: stmt.distinct,
            order_by: order_by?,
            limit: stmt.limit,
        })
    }

    /// Expand wildcards and lower each projection item into
    /// `(output name, expression)`. An item that does not resolve still
    /// yields its name with `None`, so ORDER BY aliases find their target.
    fn bind_projection(
        &mut self,
        projection: &[SelectItem],
        aggregate: bool,
        space: Space,
    ) -> Vec<(String, Option<BoundExpr>)> {
        let mut out = Vec::with_capacity(projection.len());
        for item in projection {
            let rels = match item {
                SelectItem::Expr { expr, alias } => {
                    out.push((output_name(expr, alias.as_deref()), self.lower(expr, space)));
                    continue;
                }
                _ if aggregate => {
                    self.diags.push(
                        Diagnostic::new(
                            Code::UngroupedColumn,
                            Span::NONE,
                            "wildcard projection in an aggregate query",
                        )
                        .with_help("list the GROUP BY keys and aggregates explicitly"),
                    );
                    None
                }
                SelectItem::Wildcard => Some(0..self.scope.relations.len()),
                SelectItem::QualifiedWildcard(q) => {
                    let rel = self.scope.relations.iter().position(|r| r.binding == q);
                    if rel.is_none() {
                        self.error(
                            Code::UnknownTable,
                            Span::NONE,
                            format!("unknown relation {q:?} in wildcard projection"),
                        );
                    }
                    rel.map(|rel| rel..rel + 1)
                }
            };
            let Some(rels) = rels else {
                out.push((item.to_string(), None));
                continue;
            };
            for rel in rels {
                match self.scope.relations[rel].schema {
                    Some(schema) => {
                        out.extend(schema.columns().iter().enumerate().map(|(col, c)| {
                            let id = ColumnId { rel, col };
                            (c.name().to_string(), Some(BoundExpr::Column(id)))
                        }))
                    }
                    // Unknown table, reported at its FROM entry.
                    None => out.push((item.to_string(), None)),
                }
            }
        }
        out
    }

    fn bind_order_by(
        &mut self,
        items: &[OrderByItem],
        output: &[(String, Option<BoundExpr>)],
        space: Space,
    ) -> Option<Vec<BoundOrderBy>> {
        let keys: Vec<Option<BoundOrderBy>> = items
            .iter()
            .map(|item| {
                let key = match &item.expr {
                    // Positional reference: ORDER BY 2.
                    Expr::Literal(Literal::Int(n)) => {
                        let width = output.len();
                        let position = usize::try_from(*n).ok().filter(|p| (1..=width).contains(p));
                        // The width is only known once every item resolved.
                        if position.is_none() && output.iter().all(|(_, e)| e.is_some()) {
                            self.error(
                                Code::BindError,
                                Span::NONE,
                                format!(
                                    "ORDER BY position {n} is out of range (select list has {width} column{})",
                                    if width == 1 { "" } else { "s" }
                                ),
                            );
                        }
                        position.map(|p| OrderKey::Output(p - 1))
                    }
                    // Alias reference: a bare unqualified name matching an
                    // output column that is not also an input column takes
                    // the output.
                    Expr::Column(c) if c.qualifier.is_none() && self.scope.lookup(c).is_err() => {
                        match output.iter().position(|(name, _)| *name == c.name) {
                            Some(idx) => Some(OrderKey::Output(idx)),
                            None => self.lower(&item.expr, space).map(OrderKey::Expr),
                        }
                    }
                    e => self.lower(e, space).map(OrderKey::Expr),
                };
                let desc = item.desc;
                key.map(|key| BoundOrderBy { key, desc })
            })
            .collect();
        keys.into_iter().collect()
    }

    /// [`product_columns`] of `e` when every one is a `DOUBLE` column, so
    /// each cell is `Value::Float` or NULL; empty otherwise.
    fn double_product(&self, e: &BoundExpr) -> Vec<ColumnId> {
        let double = |id: &ColumnId| self.scope.column_type(*id) == Some(DataType::Float);
        product_columns(e)
            .filter(|columns| columns.iter().all(double))
            .unwrap_or_default()
    }

    /// The static type of `e`, lowered into `space`.
    fn type_in(&self, e: &BoundExpr, space: Space) -> Option<DataType> {
        let column = |id| self.scope.column_type(id);
        match space {
            Space::Slots { .. } => e.data_type(&slot_types(&self.keys, &self.aggs, &column)),
            _ => e.data_type(&column),
        }
    }

    /// Resolve a column reference, recording why not when it does not.
    fn resolve(&mut self, c: &ColumnRef) -> Option<ColumnId> {
        match self.scope.lookup(c) {
            Ok(id) => Some(id),
            Err(why) => {
                self.diags.extend(self.scope.diagnose(c, why));
                None
            }
        }
    }

    /// Lower a standalone expression; the first diagnostic is the error.
    fn finish_expr(mut self, e: &Expr, space: Space) -> Result<BoundExpr> {
        let bound = self.lower(e, space);
        first_error(self.diags)?;
        bound.ok_or_else(|| {
            EngineError::internal("the binder dropped an expression without a diagnostic")
        })
    }

    /// Lower an optional expression: `Some(None)` when absent, `None`
    /// when it did not resolve.
    fn lower_opt(&mut self, e: Option<&Expr>, space: Space) -> Option<Option<BoundExpr>> {
        match e {
            None => Some(None),
            Some(e) => self.lower(e, space).map(Some),
        }
    }

    fn lower_box(&mut self, e: &Expr, space: Space) -> Option<Box<BoundExpr>> {
        self.lower(e, space).map(Box::new)
    }

    /// Lower an AST expression into `space` — the one structural map from
    /// [`Expr`] to [`BoundExpr`]. Only the `Column` and `Aggregate` leaves
    /// depend on the space. Every child is lowered even after a sibling
    /// failed, so each unresolved name is reported; the node itself is
    /// `None` if any child is.
    fn lower(&mut self, e: &Expr, space: Space) -> Option<BoundExpr> {
        if let (Space::Slots { .. }, false) = (space, e.contains_aggregate()) {
            // An aggregate-free subexpression equal to a group key maps to
            // the key's slot; constants are fine anywhere. Probe quietly:
            // if it is neither, the leaves below report what is wrong.
            let mark = self.diags.len();
            let probe = self.lower(e, SCALAR);
            self.diags.truncate(mark);
            if let Some(bound) = probe {
                if let Some(i) = self.keys.iter().position(|k| *k == bound) {
                    return Some(slot(i));
                }
                if bound.columns().is_empty() {
                    return Some(bound);
                }
            }
        }
        match e {
            Expr::Column(c) => match space {
                Space::Relations { .. } => self.resolve(c).map(BoundExpr::Column),
                Space::Slots { clause } => {
                    if self.resolve(c).is_some() {
                        self.diags.push(
                            Diagnostic::new(
                                Code::UngroupedColumn,
                                c.span,
                                format!(
                                    "column {c} in the {clause} is dropped by grouping: it is neither a GROUP BY key nor inside an aggregate"
                                ),
                            )
                            .with_help(format!("add {c} to GROUP BY or wrap it in an aggregate")),
                        );
                    }
                    None
                }
                Space::Constants => {
                    self.not_constant(e);
                    None
                }
            },
            Expr::Aggregate {
                func,
                arg,
                distinct,
            } => match space {
                Space::Slots { .. } => {
                    let nested = Space::Relations {
                        no_aggregates: "nested aggregates are not allowed",
                    };
                    let arg = self.lower_opt(arg.as_deref(), nested)?;
                    let factors = match &arg {
                        Some(arg) if *func == AggFunc::Sum && !*distinct => {
                            self.double_product(arg)
                        }
                        _ => Vec::new(),
                    };
                    let call = AggCall {
                        func: *func,
                        arg,
                        distinct: *distinct,
                        factors,
                        exact: false,
                    };
                    let j = match self.aggs.iter().position(|c| *c == call) {
                        Some(j) => j,
                        None => {
                            self.aggs.push(call);
                            self.aggs.len() - 1
                        }
                    };
                    Some(slot(self.keys.len() + j))
                }
                Space::Relations { no_aggregates } => {
                    self.error(Code::BindError, expr_span(e), no_aggregates);
                    None
                }
                Space::Constants => {
                    self.not_constant(e);
                    None
                }
            },
            Expr::Literal(l) => Some(BoundExpr::Literal(literal_value(l))),
            Expr::Unary { op, expr } => {
                let expr = self.lower_box(expr, space)?;
                Some(match op {
                    UnaryOp::Not => BoundExpr::Not(expr),
                    UnaryOp::Neg => BoundExpr::Neg(expr),
                })
            }
            Expr::Binary { left, op, right } => {
                let (left, right) = (self.lower_box(left, space), self.lower_box(right, space));
                Some(BoundExpr::Binary {
                    left: left?,
                    op: *op,
                    right: right?,
                })
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let (expr, pattern) = (self.lower_box(expr, space), self.lower_box(pattern, space));
                Some(BoundExpr::Like {
                    expr: expr?,
                    pattern: pattern?,
                    negated: *negated,
                })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let expr = self.lower_box(expr, space);
                let list: Vec<_> = list.iter().map(|e| self.lower(e, space)).collect();
                Some(BoundExpr::InList {
                    expr: expr?,
                    list: list.into_iter().collect::<Option<_>>()?,
                    negated: *negated,
                })
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let expr = self.lower_box(expr, space);
                let (low, high) = (self.lower_box(low, space), self.lower_box(high, space));
                Some(BoundExpr::Between {
                    expr: expr?,
                    low: low?,
                    high: high?,
                    negated: *negated,
                })
            }
            Expr::IsNull { expr, negated } => Some(BoundExpr::IsNull {
                expr: self.lower_box(expr, space)?,
                negated: *negated,
            }),
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                let operand = self.lower_opt(operand.as_deref(), space);
                let branches: Vec<_> = branches
                    .iter()
                    .map(|(w, t)| (self.lower(w, space), self.lower(t, space)))
                    .collect();
                let else_expr = self.lower_opt(else_expr.as_deref(), space);
                let mut case = BoundExpr::Case {
                    operand: operand?.map(Box::new),
                    branches: branches
                        .into_iter()
                        .map(|(w, t)| Some((w?, t?)))
                        .collect::<Option<_>>()?,
                    else_expr: else_expr?.map(Box::new),
                    float: false,
                };
                if let (Some(DataType::Float), BoundExpr::Case { float, .. }) =
                    (self.type_in(&case, space), &mut case)
                {
                    *float = true;
                }
                Some(case)
            }
        }
    }

    fn not_constant(&mut self, e: &Expr) {
        self.error(
            Code::BindError,
            expr_span(e),
            format!("INSERT values must be constant expressions, got: {e}"),
        );
    }
}

fn slot(col: usize) -> BoundExpr {
    BoundExpr::Column(ColumnId { rel: 0, col })
}

/// Output column name: the alias if present, the column name for bare
/// columns, otherwise the printed expression.
fn output_name(expr: &Expr, alias: Option<&str>) -> String {
    if let Some(a) = alias {
        return a.to_string();
    }
    match expr {
        Expr::Column(c) => c.name.clone(),
        other => other.to_string().to_ascii_lowercase(),
    }
}

/// Convert an AST literal into a runtime value.
pub fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Null => Value::Null,
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Int(i) => Value::Int(*i),
        Literal::Float(x) => Value::Float(*x),
        Literal::Str(s) => Value::Text(s.clone()),
        Literal::Date(d) => Value::Date(*d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conquer_sql::parse_select;
    use conquer_storage::DataType;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.create_table(
            "customer",
            Schema::from_pairs([
                ("id", DataType::Text),
                ("name", DataType::Text),
                ("balance", DataType::Int),
                ("prob", DataType::Float),
            ])
            .unwrap(),
        )
        .unwrap();
        cat.create_table(
            "order",
            Schema::from_pairs([
                ("id", DataType::Text),
                ("cidfk", DataType::Text),
                ("quantity", DataType::Int),
                ("prob", DataType::Float),
            ])
            .unwrap(),
        )
        .unwrap();
        cat
    }

    fn bind(sql: &str) -> Result<BoundSelect> {
        bind_select(&catalog(), &parse_select(sql).unwrap())
    }

    #[test]
    fn resolves_qualified_and_unqualified() {
        let b = bind("select c.name, balance from customer c where c.balance > 10").unwrap();
        assert_eq!(b.relations.len(), 1);
        assert_eq!(b.output.len(), 2);
        assert_eq!(b.output[0].name, "name");
        assert_eq!(b.output[1].name, "balance");
        assert_eq!(
            b.output[1].expr,
            BoundExpr::Column(ColumnId { rel: 0, col: 2 })
        );
    }

    #[test]
    fn ambiguous_and_unknown_columns_rejected() {
        let err = bind("select id from customer c, order o").unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{err}");
        let err = bind("select nothere from customer").unwrap_err();
        assert!(err.to_string().contains("unknown column"), "{err}");
        let err = bind("select x.id from customer c").unwrap_err();
        assert!(err.to_string().contains("unknown relation"), "{err}");
    }

    #[test]
    fn keeps_going_and_bind_select_reports_the_first_finding() {
        let cat = catalog();
        let stmt = parse_select("select nmae + 1, x.id from customer c where balanse > 1").unwrap();
        let b = super::bind(&cat, &stmt);
        let found: Vec<_> = b
            .diagnostics
            .iter()
            .map(|d| (d.code.as_str(), d.message.as_str()))
            .collect();
        assert_eq!(
            found,
            vec![
                ("CQ0003", "unknown column \"balanse\""),
                ("CQ0003", "unknown column \"nmae\""),
                ("CQ0002", "unknown relation \"x\""),
            ]
        );
        assert!(b.select.is_none());
        let err = bind_select(&cat, &stmt).unwrap_err();
        assert_eq!(
            err.to_string(),
            "binding error: unknown column \"balanse\" (did you mean \"balance\"?)"
        );
    }

    #[test]
    fn duplicate_binding_rejected() {
        let err = bind("select customer.id from customer, customer").unwrap_err();
        assert!(err.to_string().contains("duplicate relation"), "{err}");
        // Different aliases are fine (a self-join at the engine level).
        assert!(bind("select a.id from customer a, customer b").is_ok());
    }

    #[test]
    fn wildcard_expansion() {
        let b = bind("select * from customer c, order o").unwrap();
        assert_eq!(b.output.len(), 8);
        let b = bind("select o.* from customer c, order o").unwrap();
        assert_eq!(b.output.len(), 4);
        assert_eq!(
            b.output[0].expr,
            BoundExpr::Column(ColumnId { rel: 1, col: 0 })
        );
    }

    #[test]
    fn aggregate_query_slots() {
        let b = bind(
            "select o.id, sum(o.prob * c.prob) from order o, customer c \
             where o.cidfk = c.id group by o.id",
        )
        .unwrap();
        let g = b.group.as_ref().unwrap();
        assert_eq!(g.keys.len(), 1);
        assert_eq!(g.aggs.len(), 1);
        // Projection item 0 → key slot 0; item 1 → agg slot 1.
        assert_eq!(
            b.output[0].expr,
            BoundExpr::Column(ColumnId { rel: 0, col: 0 })
        );
        assert_eq!(
            b.output[1].expr,
            BoundExpr::Column(ColumnId { rel: 0, col: 1 })
        );
    }

    #[test]
    fn duplicate_aggregates_share_a_slot() {
        let b = bind("select sum(balance), sum(balance) + 1 from customer").unwrap();
        assert_eq!(b.group.as_ref().unwrap().aggs.len(), 1);
    }

    #[test]
    fn ungrouped_column_rejected() {
        let err = bind("select name, sum(balance) from customer").unwrap_err();
        assert!(err.to_string().contains("GROUP BY"), "{err}");
    }

    #[test]
    fn grouped_expression_allowed() {
        // name appears in GROUP BY, so name and expressions of it are legal.
        let b = bind("select name, count(*) from customer group by name").unwrap();
        assert_eq!(b.output.len(), 2);
    }

    #[test]
    fn where_rejects_aggregates() {
        let err = bind("select id from customer where sum(balance) > 1").unwrap_err();
        assert!(err.to_string().contains("WHERE"), "{err}");
    }

    #[test]
    fn order_by_alias_position_and_expr() {
        let b = bind("select id, balance * 2 as dbl from customer order by dbl desc, 1, balance")
            .unwrap();
        assert!(matches!(b.order_by[0].key, OrderKey::Output(1)));
        assert!(b.order_by[0].desc);
        assert!(matches!(b.order_by[1].key, OrderKey::Output(0)));
        assert!(matches!(b.order_by[2].key, OrderKey::Expr(_)));
    }

    #[test]
    fn order_by_position_out_of_range() {
        let err = bind("select id from customer order by 3").unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn having_binds_in_slot_space() {
        let b = bind("select name from customer group by name having count(*) > 1").unwrap();
        let g = b.group.as_ref().unwrap();
        assert!(g.having.is_some());
        assert_eq!(g.aggs.len(), 1);
    }

    #[test]
    fn count_star_without_group_by() {
        let b = bind("select count(*) from customer").unwrap();
        let g = b.group.as_ref().unwrap();
        assert!(g.keys.is_empty());
        assert_eq!(g.aggs[0].func, AggFunc::Count);
        assert!(g.aggs[0].arg.is_none());
    }

    #[test]
    fn missing_from_rejected() {
        let err = bind("select 1").unwrap_err();
        assert!(err.to_string().contains("FROM"), "{err}");
    }
}
