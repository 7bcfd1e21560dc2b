//! Diagnostics: span-carrying findings with stable codes, and the lint
//! passes that produce the ones the binder does not.
//!
//! Analysis runs between parse and execution and never touches table
//! *data* — only the catalog's schemas. Name resolution is the binder's:
//! [`analyze_select`] calls `bind` once, takes over every
//! [`Diagnostic`] the keep-going bind recorded (CQ0002–CQ0004,
//! CQ0006–CQ0008), and then runs the lints as passes over the binder's
//! `Scope` and [`BoundSelect`] — type checks (CQ0005, CQ1003), decided
//! conjuncts (CQ1001, CQ1002), join-graph connectivity (CQ1004) and
//! unused relations (CQ1005).
//!
//! Codes are stable: `CQ0xxx` are errors (the engine will reject or
//! mis-execute the query), `CQ1xxx` are warnings (the query runs but
//! probably does not mean what it says). The CLI renders them as caret
//! snippets via [`Diagnostic::render`]; `--deny-warnings` promotes
//! warnings to failures.
//!
//! Entry point: [`Database::analyze`](crate::Database::analyze).

use std::fmt;

use conquer_sql::ast::{SelectItem, Statement};
use conquer_sql::{
    line_col, parse_statement, render_snippet, AggFunc, BinaryOp, Expr, SelectStatement, Span,
    UnaryOp,
};
use conquer_storage::{Catalog, DataType, Row, Value};

use crate::binder::{bind, Binding, BoundSelect, OrderKey, Scope};
use crate::expr::BoundExpr;
use crate::planner::as_equi_edge;

/// How bad a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The query is legal but suspicious; it runs, with `--deny-warnings`
    /// off.
    Warning,
    /// The query is rejected (or guaranteed to fail at runtime).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// Stable diagnostic codes. `CQ0xxx` are errors, `CQ1xxx` warnings; codes
/// are append-only and never reused (they appear in golden tests and user
/// scripts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Code {
    /// `CQ0001` — the SQL text failed to lex or parse.
    SyntaxError,
    /// `CQ0002` — a FROM (or qualifier) names no known table or binding.
    UnknownTable,
    /// `CQ0003` — a column reference resolves to nothing.
    UnknownColumn,
    /// `CQ0004` — an unqualified column exists in several FROM relations.
    AmbiguousColumn,
    /// `CQ0005` — a comparison (often a join key) between incomparable
    /// types, or arithmetic on non-numeric operands.
    TypeMismatch,
    /// `CQ0006` — two FROM entries share one binding name.
    DuplicateBinding,
    /// `CQ0007` — any other semantic error the binder would reject
    /// (aggregates in WHERE, nested aggregates, ORDER BY position out of
    /// range, missing FROM, …).
    BindError,
    /// `CQ0008` — a SELECT-list (or ORDER BY) column is dropped by
    /// grouping: it is neither a GROUP BY key nor inside an aggregate.
    UngroupedColumn,
    /// `CQ1001` — a WHERE/HAVING conjunct is always true and can be
    /// removed.
    AlwaysTrue,
    /// `CQ1002` — a WHERE/HAVING conjunct is never true (false or NULL);
    /// the query returns no rows.
    AlwaysFalse,
    /// `CQ1003` — a comparison implicitly casts across types (INTEGER vs
    /// DOUBLE join keys, TEXT vs DATE).
    ImplicitCast,
    /// `CQ1004` — a FROM relation is not connected to the rest of the
    /// join graph by any equi-join conjunct: cartesian product.
    CartesianProduct,
    /// `CQ1005` — a FROM relation is never referenced by any expression.
    UnusedTable,
    /// `CQ1007` — the query is outside the rewritable class (Definition
    /// 7) and clean-answer evaluation will fall back to enumerating
    /// candidate databases. Emitted by the `conquer-core` layer, which
    /// knows the cluster statistics.
    NaiveFallback,
}

impl Code {
    /// The stable `CQxxxx` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::SyntaxError => "CQ0001",
            Code::UnknownTable => "CQ0002",
            Code::UnknownColumn => "CQ0003",
            Code::AmbiguousColumn => "CQ0004",
            Code::TypeMismatch => "CQ0005",
            Code::DuplicateBinding => "CQ0006",
            Code::BindError => "CQ0007",
            Code::UngroupedColumn => "CQ0008",
            Code::AlwaysTrue => "CQ1001",
            Code::AlwaysFalse => "CQ1002",
            Code::ImplicitCast => "CQ1003",
            Code::CartesianProduct => "CQ1004",
            Code::UnusedTable => "CQ1005",
            Code::NaiveFallback => "CQ1007",
        }
    }

    /// Errors are `CQ0xxx`, warnings `CQ1xxx`.
    pub fn severity(self) -> Severity {
        if self.as_str().starts_with("CQ0") {
            Severity::Error
        } else {
            Severity::Warning
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding of the static analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code (`CQ0xxx` error / `CQ1xxx` warning).
    pub code: Code,
    /// Derived from the code.
    pub severity: Severity,
    /// Where in the SQL text; [`Span::NONE`] when the finding has no
    /// single token (e.g. a missing FROM clause).
    pub span: Span,
    /// Human-readable description of the problem.
    pub message: String,
    /// Optional suggestion ("did you mean …", "add … to GROUP BY").
    pub help: Option<String>,
}

impl Diagnostic {
    /// A diagnostic for `code` at `span`.
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            span,
            message: message.into(),
            help: None,
        }
    }

    /// Attach a help line.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Attach a "did you mean" help line naming the candidate closest to
    /// `target`, if one is close enough to be a typo.
    pub(crate) fn did_you_mean<'c>(
        self,
        target: &str,
        candidates: impl Iterator<Item = &'c str>,
    ) -> Self {
        match suggest(target, candidates) {
            Some(s) => self.with_help(format!("did you mean {s:?}?")),
            None => self,
        }
    }

    /// True for error-severity diagnostics.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// Render as a caret snippet against the SQL text the query was
    /// analyzed from:
    ///
    /// ```text
    /// error[CQ0003]: no column "namex" in any FROM relation
    ///  --> line 1, column 8
    ///   |
    /// 1 | select namex from customer
    ///   |        ^^^^^
    ///   = help: did you mean "name"?
    /// ```
    pub fn render(&self, sql: &str) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.code, self.message);
        if !self.span.is_none() {
            let (line, col) = line_col(sql, self.span.start as usize);
            out.push_str(&format!(" --> line {line}, column {col}\n"));
            out.push_str(&render_snippet(sql, self.span));
        }
        if let Some(h) = &self.help {
            out.push_str(&format!("\n  = help: {h}"));
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(h) = &self.help {
            write!(f, " (help: {h})")?;
        }
        Ok(())
    }
}

/// Analyze a SQL string against a catalog. Parse failures yield a single
/// `CQ0001`; otherwise the statement is analyzed structurally.
pub fn analyze_sql(catalog: &Catalog, sql: &str) -> Vec<Diagnostic> {
    match parse_statement(sql) {
        Ok(stmt) => analyze_statement(catalog, &stmt),
        Err(e) => vec![Diagnostic::new(
            Code::SyntaxError,
            Span::at(e.offset, 1),
            e.message.clone(),
        )],
    }
}

/// Analyze a parsed statement. SELECT (and EXPLAIN) get the full lint
/// pass; DML statements get table-existence checks.
pub fn analyze_statement(catalog: &Catalog, stmt: &Statement) -> Vec<Diagnostic> {
    match stmt {
        Statement::Select(s) => analyze_select(catalog, s),
        Statement::Explain { query, .. } => analyze_select(catalog, query),
        Statement::Insert(i) => check_target_table(catalog, &i.table),
        Statement::Delete(d) => check_target_table(catalog, &d.table),
        Statement::Update(u) => check_target_table(catalog, &u.table),
        Statement::DropTable(name) => check_target_table(catalog, name),
        Statement::CreateTable(_) => Vec::new(),
        // The view's defining query gets the full SELECT lint pass; the
        // maintainability check itself happens at CREATE time.
        Statement::CreateView(cv) => analyze_select(catalog, &cv.query),
        Statement::DropView(name) | Statement::RefreshView(name) => {
            check_target_table(catalog, name)
        }
        Statement::Recluster(rc) => check_target_table(catalog, &rc.table),
        Statement::Reannotate(ra) => check_target_table(catalog, &ra.table),
        Statement::ApplyCrossref(ax) => {
            let mut ds = check_target_table(catalog, &ax.table);
            ds.extend(check_target_table(catalog, &ax.xref_table));
            ds
        }
    }
}

fn check_target_table(catalog: &Catalog, name: &str) -> Vec<Diagnostic> {
    if catalog.contains(name) {
        return Vec::new();
    }
    vec![unknown_table(catalog, name, Span::NONE)]
}

pub(crate) fn unknown_table(catalog: &Catalog, name: &str, span: Span) -> Diagnostic {
    Diagnostic::new(Code::UnknownTable, span, format!("unknown table {name:?}"))
        .did_you_mean(name, catalog.table_names().into_iter())
}

/// Bind a SELECT once and run every lint pass over the result.
pub fn analyze_select(catalog: &Catalog, stmt: &SelectStatement) -> Vec<Diagnostic> {
    let Binding {
        scope,
        diagnostics: mut diags,
        select,
    } = bind(catalog, stmt);
    let exprs = stmt.projection.iter().filter_map(|item| match item {
        SelectItem::Expr { expr, .. } => Some(expr),
        _ => None,
    });
    let exprs = exprs
        .chain(&stmt.selection)
        .chain(&stmt.group_by)
        .chain(&stmt.having)
        .chain(stmt.order_by.iter().map(|o| &o.expr));
    let group = select.as_ref().and_then(|s| s.group.as_ref());
    let type_of = |e: &Expr| scope.type_of(e, group.map_or(&[], |g| &g.keys));
    for e in exprs {
        check_types(&type_of, e, &mut diags);
    }
    if let Some(select) = &select {
        check_decided_conjuncts(stmt, select, &mut diags);
        check_connectivity(&scope, select, &mut diags);
        check_unused(&scope, select, &mut diags);
    }
    // Deterministic order: by position, then by code.
    diags.sort_by_key(|d| (d.span.start, d.span.end, d.code));
    diags.dedup_by(|a, b| {
        a.code == b.code && a.message == b.message && a.span.start == b.span.start
    });
    diags
}

/// CQ1001/CQ1002: a column-free WHERE/HAVING conjunct is decided before
/// any row is read.
fn check_decided_conjuncts(
    stmt: &SelectStatement,
    select: &BoundSelect,
    diags: &mut Vec<Diagnostic>,
) {
    let having = select.group.as_ref().and_then(|g| g.having.as_ref());
    for (clause, ast, bound) in [
        ("WHERE", &stmt.selection, select.filter.as_ref()),
        ("HAVING", &stmt.having, having),
    ] {
        let (Some(ast), Some(bound)) = (ast, bound) else {
            continue;
        };
        let (asts, bounds) = (ast.conjuncts(), bound.conjuncts());
        if asts.len() != bounds.len() {
            continue; // a group key that is itself an AND collapsed into one slot
        }
        for (conjunct, bound) in asts.into_iter().zip(bounds) {
            // In slot space aggregates are columns too, so this skips them.
            if !bound.columns().is_empty() {
                continue;
            }
            let message = match bound.eval(&Row::new()) {
                Ok(Value::Bool(true)) => {
                    diags.push(
                        Diagnostic::new(
                            Code::AlwaysTrue,
                            expr_span(conjunct),
                            format!("{clause} conjunct `{conjunct}` is always true"),
                        )
                        .with_help("remove it"),
                    );
                    continue;
                }
                Ok(Value::Bool(false)) => "always false",
                Ok(Value::Null) => "always NULL, which never satisfies a predicate",
                _ => continue, // not a boolean, or a runtime error — the executor reports it
            };
            diags.push(Diagnostic::new(
                Code::AlwaysFalse,
                expr_span(conjunct),
                format!("{clause} conjunct `{conjunct}` is {message}: the query returns no rows"),
            ));
        }
    }
}

/// An operand's static type, as [`Scope::type_of`] gives it.
type TypeOf<'a> = dyn Fn(&Expr) -> Option<DataType> + 'a;

/// CQ0005/CQ1003: walk an expression checking the operand types of
/// comparisons (`IN` items, `BETWEEN` bounds and simple-`CASE` `WHEN`
/// values against their operand), arithmetic, unary minus and `SUM`/`AVG`.
fn check_types(type_of: &TypeOf<'_>, e: &Expr, diags: &mut Vec<Diagnostic>) {
    match e {
        Expr::Binary { left, op, right } if op.is_comparison() => {
            check_comparison(type_of, left, Some(*op), right, diags)
        }
        Expr::InList { expr, list, .. } => {
            for item in list {
                check_comparison(type_of, expr, None, item, diags);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            for bound in [low, high] {
                check_comparison(type_of, expr, None, bound, diags);
            }
        }
        Expr::Case {
            operand: Some(operand),
            branches,
            ..
        } => {
            for (when, _) in branches {
                check_comparison(type_of, operand, None, when, diags);
            }
        }
        Expr::Aggregate {
            func: func @ (AggFunc::Sum | AggFunc::Avg),
            arg: Some(arg),
            ..
        } => check_numeric(type_of, format_args!("{}", func.name()), arg, diags),
        Expr::Binary { left, op, right } if !matches!(op, BinaryOp::And | BinaryOp::Or) => {
            for side in [left, right] {
                check_numeric(
                    type_of,
                    format_args!("arithmetic `{}`", op.symbol()),
                    side,
                    diags,
                );
            }
        }
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
        } => check_numeric(type_of, format_args!("unary minus"), expr, diags),
        _ => {}
    }
    e.for_each_child(&mut |child| check_types(type_of, child, diags));
}

fn check_numeric(
    type_of: &TypeOf<'_>,
    operation: fmt::Arguments<'_>,
    operand: &Expr,
    diags: &mut Vec<Diagnostic>,
) {
    match type_of(operand) {
        None | Some(DataType::Int | DataType::Float) => {}
        Some(ty) => diags.push(Diagnostic::new(
            Code::TypeMismatch,
            expr_span(operand),
            format!(
                "{operation} on non-numeric operand `{operand}` of type {}",
                ty.name()
            ),
        )),
    }
}

/// One compared pair: `left op right`, or with no `op` an `IN` item, a
/// `BETWEEN` bound or a `WHEN` value `right` against its operand `left`.
fn check_comparison(
    type_of: &TypeOf<'_>,
    left: &Expr,
    op: Option<BinaryOp>,
    right: &Expr,
    diags: &mut Vec<Diagnostic>,
) {
    let (Some(lt), Some(rt)) = (type_of(left), type_of(right)) else {
        return;
    };
    let span = expr_span(left).union(expr_span(right));
    if lt.cmp_class() != rt.cmp_class() {
        let pair = match op {
            Some(op) => format!("`{left} {} {right}`", op.symbol()),
            None => format!("`{left}` against `{right}`"),
        };
        diags.push(
            Diagnostic::new(
                Code::TypeMismatch,
                span,
                format!(
                    "cannot compare {} with {}: {pair} always fails at runtime",
                    lt.name(),
                    rt.name(),
                ),
            )
            .with_help("cast one side or compare columns of the same type"),
        );
        return;
    }
    if lt == rt {
        return;
    }
    // Same comparison class, different types: implicit cast.
    let text_vs_date = lt.cmp_class() == DataType::Text.cmp_class();
    if text_vs_date {
        diags.push(
            Diagnostic::new(
                Code::ImplicitCast,
                span,
                format!(
                    "comparison of {} with {} parses the text as a date at runtime",
                    lt.name(),
                    rt.name()
                ),
            )
            .with_help("write the literal as DATE '...' to make the cast explicit"),
        );
    } else if let (Some(op), Expr::Column(_), Expr::Column(_)) = (op, left, right) {
        diags.push(Diagnostic::new(
            Code::ImplicitCast,
            span,
            format!(
                "join key `{left} {} {right}` compares {} with {}: the {} side is implicitly cast to {}",
                op.symbol(),
                lt.name(),
                rt.name(),
                DataType::Int.name(),
                DataType::Float.name(),
            ),
        ));
    }
}

/// CQ1004: a FROM relation no equi-join conjunct (the planner's notion of
/// one) links to the rest of the join graph.
fn check_connectivity(scope: &Scope<'_>, select: &BoundSelect, diags: &mut Vec<Diagnostic>) {
    fn find(dsu: &mut [usize], x: usize) -> usize {
        if dsu[x] != x {
            dsu[x] = find(dsu, dsu[x]);
        }
        dsu[x]
    }
    let mut dsu: Vec<usize> = (0..select.relations.len()).collect();
    let conjuncts = select.filter.iter().flat_map(BoundExpr::conjuncts);
    for edge in conjuncts.filter_map(as_equi_edge) {
        let (a, b) = (find(&mut dsu, edge.rels.0), find(&mut dsu, edge.rels.1));
        dsu[a] = b;
    }
    // One finding per disconnected component, at its first relation.
    let mut flagged = Vec::new();
    for (ri, rel) in scope.relations.iter().enumerate().skip(1) {
        let root = find(&mut dsu, ri);
        if root != find(&mut dsu, 0) && !flagged.contains(&root) {
            flagged.push(root);
            diags.push(
                Diagnostic::new(
                    Code::CartesianProduct,
                    rel.span,
                    format!(
                        "relation {:?} is not connected to the rest of the query by any equi-join predicate: this is a cartesian product",
                        rel.binding
                    ),
                )
                .with_help("add a join predicate linking it to the other FROM relations"),
            );
        }
    }
}

/// CQ1005: a FROM relation no relation-space expression of the bound
/// query mentions.
fn check_unused(scope: &Scope<'_>, select: &BoundSelect, diags: &mut Vec<Diagnostic>) {
    if scope.relations.len() < 2 {
        return;
    }
    let mut exprs: Vec<&BoundExpr> = select.filter.iter().collect();
    match &select.group {
        // The output, HAVING and ORDER BY of an aggregate query are in slot
        // space; what they use of the relations is in the keys and the
        // aggregate arguments.
        Some(g) => {
            exprs.extend(&g.keys);
            exprs.extend(g.aggs.iter().filter_map(|a| a.arg.as_ref()));
        }
        None => {
            exprs.extend(select.output.iter().map(|o| &o.expr));
            exprs.extend(select.order_by.iter().filter_map(|o| match &o.key {
                OrderKey::Expr(e) => Some(e),
                OrderKey::Output(_) => None,
            }));
        }
    }
    let used: Vec<usize> = exprs.into_iter().flat_map(BoundExpr::relations).collect();
    for (ri, rel) in scope.relations.iter().enumerate() {
        if !used.contains(&ri) {
            diags.push(
                Diagnostic::new(
                    Code::UnusedTable,
                    rel.span,
                    format!("FROM relation {:?} is never referenced", rel.binding),
                )
                .with_help("drop it from FROM, or reference its columns"),
            );
        }
    }
}

/// The source span of an expression: the union of its column-ref spans
/// (an expression with no columns has no span of its own).
pub fn expr_span(e: &Expr) -> Span {
    let mut span = Span::NONE;
    e.visit_columns(&mut |c| span = span.union(c.span));
    span
}

/// Smallest-edit-distance candidate within a threshold, for "did you
/// mean" help lines.
fn suggest<'c>(target: &str, candidates: impl Iterator<Item = &'c str>) -> Option<String> {
    // Allow roughly one typo per three characters (so a transposition —
    // two plain-Levenshtein edits — is caught even in short names).
    let threshold = target.len().div_ceil(3).clamp(1, 3);
    candidates
        .filter(|c| *c != target)
        .map(|c| (edit_distance(target, c), c))
        .filter(|(d, _)| *d <= threshold)
        .min()
        .map(|(_, c)| c.to_string())
}

fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use conquer_storage::{Schema, Table};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(Table::new(
            "customer",
            Schema::from_pairs([
                ("id", DataType::Text),
                ("name", DataType::Text),
                ("income", DataType::Int),
                ("prob", DataType::Float),
            ])
            .expect("valid schema"),
        ))
        .expect("fresh catalog");
        c.add_table(Table::new(
            "orders",
            Schema::from_pairs([
                ("oid", DataType::Int),
                ("cust", DataType::Text),
                ("odate", DataType::Date),
                ("total", DataType::Float),
            ])
            .expect("valid schema"),
        ))
        .expect("fresh catalog");
        c
    }

    fn codes(sql: &str) -> Vec<&'static str> {
        analyze_sql(&catalog(), sql)
            .iter()
            .map(|d| d.code.as_str())
            .collect()
    }

    #[test]
    fn clean_query_is_clean() {
        assert!(codes("select id, name from customer where income > 100000").is_empty());
    }

    #[test]
    fn syntax_error_is_cq0001() {
        assert_eq!(codes("select from from"), vec!["CQ0001"]);
    }

    #[test]
    fn unknown_table_with_suggestion() {
        let ds = analyze_sql(&catalog(), "select id from custoner");
        assert_eq!(ds[0].code, Code::UnknownTable);
        assert_eq!(ds[0].help.as_deref(), Some("did you mean \"customer\"?"));
        // Span points at the table name.
        assert_eq!((ds[0].span.start, ds[0].span.end), (15, 23));
    }

    #[test]
    fn unknown_column_with_suggestion() {
        let ds = analyze_sql(&catalog(), "select nmae from customer");
        assert_eq!(ds[0].code, Code::UnknownColumn);
        assert_eq!(ds[0].help.as_deref(), Some("did you mean \"name\"?"));
        assert_eq!((ds[0].span.start, ds[0].span.end), (7, 11));
    }

    #[test]
    fn ambiguous_column_lists_owners() {
        // `prob` exists only in customer, `id` only in customer; make a
        // genuinely ambiguous one via a self-ish pair of tables.
        let ds = analyze_sql(
            &catalog(),
            "select total from customer c, orders o where c.id = o.cust and total > 0",
        );
        assert!(ds.is_empty(), "{ds:?}"); // total is unique to orders
        let ds = analyze_sql(
            &catalog(),
            "select customer.id from customer, orders where customer.id = orders.cust",
        );
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn type_mismatch_on_join_key() {
        let ds = analyze_sql(
            &catalog(),
            "select c.id from customer c, orders o where c.id = o.oid",
        );
        assert_eq!(
            ds.iter().map(|d| d.code).collect::<Vec<_>>(),
            vec![Code::TypeMismatch]
        );
        assert!(ds[0].message.contains("TEXT"), "{}", ds[0].message);
    }

    #[test]
    fn implicit_cast_on_numeric_join_key() {
        let ds = analyze_sql(
            &catalog(),
            "select c.id from customer c, orders o where c.income = o.total",
        );
        assert_eq!(
            ds.iter().map(|d| d.code).collect::<Vec<_>>(),
            vec![Code::ImplicitCast]
        );
    }

    #[test]
    fn always_true_and_false() {
        assert_eq!(codes("select id from customer where 1 = 1"), vec!["CQ1001"]);
        assert_eq!(codes("select id from customer where 1 = 2"), vec!["CQ1002"]);
        assert_eq!(
            codes("select id from customer where null = 1"),
            vec!["CQ1002"]
        );
    }

    #[test]
    fn cartesian_product_detected() {
        let ds = analyze_sql(&catalog(), "select c.id, o.oid from customer c, orders o");
        assert!(
            ds.iter().any(|d| d.code == Code::CartesianProduct),
            "{ds:?}"
        );
        // Connected query is silent.
        let ds = analyze_sql(
            &catalog(),
            "select c.id, o.oid from customer c, orders o where c.id = o.cust",
        );
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn unused_table_detected() {
        let ds = analyze_sql(
            &catalog(),
            "select c.id from customer c, orders o where c.income > 0",
        );
        let cs: Vec<_> = ds.iter().map(|d| d.code).collect();
        assert!(cs.contains(&Code::UnusedTable), "{ds:?}");
        assert!(cs.contains(&Code::CartesianProduct), "{ds:?}");
    }

    #[test]
    fn grouping_drops_column() {
        let ds = analyze_sql(
            &catalog(),
            "select name, sum(income) from customer group by id",
        );
        assert_eq!(
            ds.iter().map(|d| d.code).collect::<Vec<_>>(),
            vec![Code::UngroupedColumn]
        );
        assert!(ds[0]
            .help
            .as_deref()
            .is_some_and(|h| h.contains("GROUP BY")));
    }

    #[test]
    fn duplicate_binding() {
        let ds = analyze_sql(&catalog(), "select 1 from customer, customer");
        assert!(
            ds.iter().any(|d| d.code == Code::DuplicateBinding),
            "{ds:?}"
        );
    }

    #[test]
    fn aggregates_in_where_rejected() {
        assert!(codes("select id from customer where sum(income) > 1").contains(&"CQ0007"));
    }

    #[test]
    fn order_by_position_out_of_range() {
        assert!(codes("select id from customer order by 3").contains(&"CQ0007"));
        assert!(codes("select id from customer order by 1").is_empty());
    }

    #[test]
    fn text_date_cast_warns() {
        let ds = analyze_sql(
            &catalog(),
            "select oid from orders where odate < '1995-03-15'",
        );
        assert_eq!(
            ds.iter().map(|d| d.code).collect::<Vec<_>>(),
            vec![Code::ImplicitCast]
        );
        assert_eq!(ds[0].severity, Severity::Warning);
    }

    #[test]
    fn render_has_caret() {
        let sql = "select nmae from customer";
        let ds = analyze_sql(&catalog(), sql);
        let r = ds[0].render(sql);
        assert!(r.contains("error[CQ0003]"), "{r}");
        assert!(r.contains("^^^^"), "{r}");
        assert!(r.contains("line 1, column 8"), "{r}");
    }

    #[test]
    fn dml_unknown_table() {
        assert_eq!(codes("delete from nowhere"), vec!["CQ0002"]);
        assert_eq!(
            codes("insert into customer values ('x','y',1,0.5)").len(),
            0
        );
    }
}
