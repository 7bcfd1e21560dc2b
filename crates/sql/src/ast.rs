//! The SQL abstract syntax tree and its pretty-printer.
//!
//! All identifier fields are stored lower-cased (the lexer normalizes them),
//! so AST equality is case-insensitive equality of the original SQL.
//! `Display` renders ASTs back to parseable SQL with minimal parentheses;
//! the parser/printer pair round-trips (property-tested in the crate tests).

use std::fmt;

use conquer_storage::{DataType, Date};

use crate::span::Span;

/// A top-level SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col type, …)`
    CreateTable(CreateTable),
    /// `INSERT INTO name [(cols)] VALUES (…), (…)`
    Insert(Insert),
    /// `DROP TABLE name`
    DropTable(String),
    /// `DELETE FROM name [WHERE …]`
    Delete(Delete),
    /// `UPDATE name SET col = expr, … [WHERE …]`
    Update(Update),
    /// `SELECT …`
    Select(SelectStatement),
    /// `EXPLAIN [ANALYZE] SELECT …` — show the physical plan, optionally
    /// executing it to collect per-operator runtime statistics.
    Explain {
        /// Execute the query and report measured operator statistics.
        analyze: bool,
        /// The query being explained.
        query: SelectStatement,
    },
    /// `CREATE MATERIALIZED VIEW name AS SELECT …`
    CreateView(CreateView),
    /// `DROP MATERIALIZED VIEW name`
    DropView(String),
    /// `REFRESH MATERIALIZED VIEW name` — recompute from scratch.
    RefreshView(String),
    /// `RECLUSTER table (id, prob) TO target [WHERE …]` — move matching
    /// tuples into the duplicate cluster `target`.
    Recluster(Recluster),
    /// `REANNOTATE table (id, prob) SET expr [WHERE …]` — overwrite the
    /// probability annotation of matching tuples.
    Reannotate(Reannotate),
    /// `APPLY CROSSREF xref (key, id) TO table (key, id)` — ingest a
    /// matcher's cross-reference table into a dirty relation's identifier
    /// column.
    ApplyCrossref(ApplyCrossref),
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::CreateTable(s) => s.fmt(f),
            Statement::Insert(s) => s.fmt(f),
            Statement::DropTable(name) => write!(f, "DROP TABLE {name}"),
            Statement::Delete(s) => s.fmt(f),
            Statement::Update(s) => s.fmt(f),
            Statement::Select(s) => s.fmt(f),
            Statement::Explain { analyze, query } => {
                write!(
                    f,
                    "EXPLAIN {}{query}",
                    if *analyze { "ANALYZE " } else { "" }
                )
            }
            Statement::CreateView(s) => s.fmt(f),
            Statement::DropView(name) => write!(f, "DROP MATERIALIZED VIEW {name}"),
            Statement::RefreshView(name) => write!(f, "REFRESH MATERIALIZED VIEW {name}"),
            Statement::Recluster(s) => s.fmt(f),
            Statement::Reannotate(s) => s.fmt(f),
            Statement::ApplyCrossref(s) => s.fmt(f),
        }
    }
}

/// `CREATE MATERIALIZED VIEW` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateView {
    /// View name (becomes a queryable relation of that name).
    pub name: String,
    /// The defining query (must be maintainable: GROUP BY + one SUM).
    pub query: SelectStatement,
}

impl fmt::Display for CreateView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CREATE MATERIALIZED VIEW {} AS {}",
            self.name, self.query
        )
    }
}

/// `RECLUSTER` statement: a dirty-data mutation moving tuples between
/// duplicate clusters. `(id_column, prob_column)` names the cluster
/// structure; probabilities of every affected cluster are renormalized to
/// sum to 1 afterwards (Definition 2).
#[derive(Debug, Clone, PartialEq)]
pub struct Recluster {
    /// Target dirty relation.
    pub table: String,
    /// The cluster-identifier column.
    pub id_column: String,
    /// The probability column (renormalized per affected cluster).
    pub prob_column: String,
    /// Constant expression for the destination cluster identifier.
    pub target: Expr,
    /// Which tuples move; absent moves every row.
    pub selection: Option<Expr>,
}

impl fmt::Display for Recluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RECLUSTER {} ({}, {}) TO {}",
            self.table, self.id_column, self.prob_column, self.target
        )?;
        if let Some(w) = &self.selection {
            write!(f, " WHERE {w}")?;
        }
        Ok(())
    }
}

/// `REANNOTATE` statement: overwrite the probability annotation of
/// matching tuples with the value of an expression (evaluated against the
/// old row). Unlike [`Recluster`] nothing is renormalized — the caller
/// controls the exact probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct Reannotate {
    /// Target dirty relation.
    pub table: String,
    /// The cluster-identifier column (names the cluster structure).
    pub id_column: String,
    /// The probability column being overwritten.
    pub prob_column: String,
    /// New probability, evaluated per matching row.
    pub value: Expr,
    /// Which tuples are re-annotated; absent re-annotates every row.
    pub selection: Option<Expr>,
}

impl fmt::Display for Reannotate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "REANNOTATE {} ({}, {}) SET {}",
            self.table, self.id_column, self.prob_column, self.value
        )?;
        if let Some(w) = &self.selection {
            write!(f, " WHERE {w}")?;
        }
        Ok(())
    }
}

/// `APPLY CROSSREF` statement: ingest an external matcher's
/// cross-reference table (`original key → cluster id`) into a dirty
/// relation's identifier column (Section 2.1 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct ApplyCrossref {
    /// The cross-reference table.
    pub xref_table: String,
    /// Its original-key column.
    pub xref_key_column: String,
    /// Its cluster-identifier column.
    pub xref_id_column: String,
    /// The dirty relation being rewritten.
    pub table: String,
    /// The relation's original-key column (joined against the xref keys).
    pub key_column: String,
    /// The relation's identifier column (written from the mapping).
    pub id_column: String,
}

impl fmt::Display for ApplyCrossref {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "APPLY CROSSREF {} ({}, {}) TO {} ({}, {})",
            self.xref_table,
            self.xref_key_column,
            self.xref_id_column,
            self.table,
            self.key_column,
            self.id_column
        )
    }
}

/// `CREATE TABLE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    /// Table name.
    pub name: String,
    /// Column definitions in order.
    pub columns: Vec<(String, DataType)>,
}

impl fmt::Display for CreateTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CREATE TABLE {} (", self.name)?;
        for (i, (name, ty)) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name} {ty}")?;
        }
        write!(f, ")")
    }
}

/// `INSERT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// Target table.
    pub table: String,
    /// Optional explicit column list.
    pub columns: Option<Vec<String>>,
    /// Where the rows come from.
    pub source: InsertSource,
}

/// The data source of an `INSERT`.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    /// `VALUES (…), (…)` — one expression row per tuple.
    Values(Vec<Vec<Expr>>),
    /// `INSERT INTO t SELECT …` — rows produced by a query.
    Query(Box<SelectStatement>),
}

impl fmt::Display for Insert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "INSERT INTO {}", self.table)?;
        if let Some(cols) = &self.columns {
            write!(f, " ({})", cols.join(", "))?;
        }
        match &self.source {
            InsertSource::Values(rows) => {
                write!(f, " VALUES ")?;
                for (i, row) in rows.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "(")?;
                    for (j, e) in row.iter().enumerate() {
                        if j > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{e}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
            InsertSource::Query(q) => write!(f, " {q}"),
        }
    }
}

/// `DELETE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    /// Target table.
    pub table: String,
    /// Optional predicate; absent deletes every row.
    pub selection: Option<Expr>,
}

impl fmt::Display for Delete {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DELETE FROM {}", self.table)?;
        if let Some(w) = &self.selection {
            write!(f, " WHERE {w}")?;
        }
        Ok(())
    }
}

/// `UPDATE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// Target table.
    pub table: String,
    /// `SET` assignments in order.
    pub assignments: Vec<(String, Expr)>,
    /// Optional predicate; absent updates every row.
    pub selection: Option<Expr>,
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UPDATE {} SET ", self.table)?;
        for (i, (col, e)) in self.assignments.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{col} = {e}")?;
        }
        if let Some(w) = &self.selection {
            write!(f, " WHERE {w}")?;
        }
        Ok(())
    }
}

/// A `SELECT` statement (the only query form in the dialect; the paper's
/// rewriting targets select-project-join queries).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStatement {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// The select list.
    pub projection: Vec<SelectItem>,
    /// Comma-joined base relations.
    pub from: Vec<TableRef>,
    /// `WHERE` predicate.
    pub selection: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
    /// `ORDER BY` items.
    pub order_by: Vec<OrderByItem>,
    /// `LIMIT` row count.
    pub limit: Option<u64>,
}

impl fmt::Display for SelectStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        for (i, item) in self.projection.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        if !self.from.is_empty() {
            write!(f, " FROM ")?;
            for (i, t) in self.from.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{t}")?;
            }
        }
        if let Some(w) = &self.selection {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, e) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{e}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{o}")?;
            }
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

/// One entry of the select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// An expression with an optional `AS alias`.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Output column name, if given.
        alias: Option<String>,
    },
}

impl SelectItem {
    /// Build an unaliased column item `qualifier.name`.
    pub fn column(qualifier: impl Into<String>, name: impl Into<String>) -> Self {
        SelectItem::Expr {
            expr: Expr::qualified(qualifier, name),
            alias: None,
        }
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => f.write_str("*"),
            SelectItem::QualifiedWildcard(q) => write!(f, "{q}.*"),
            SelectItem::Expr { expr, alias: None } => write!(f, "{expr}"),
            SelectItem::Expr {
                expr,
                alias: Some(a),
            } => write!(f, "{expr} AS {a}"),
        }
    }
}

/// A base relation in the `FROM` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table name in the catalog.
    pub table: String,
    /// Optional alias; the binder falls back to the table name.
    pub alias: Option<String>,
    /// Source location of the table name (equality-transparent metadata;
    /// [`Span::NONE`] when built programmatically).
    pub span: Span,
}

impl TableRef {
    /// A reference without an alias.
    pub fn new(table: impl Into<String>) -> Self {
        TableRef {
            table: table.into().to_ascii_lowercase(),
            alias: None,
            span: Span::NONE,
        }
    }

    /// A reference with an alias.
    pub fn aliased(table: impl Into<String>, alias: impl Into<String>) -> Self {
        TableRef {
            table: table.into().to_ascii_lowercase(),
            alias: Some(alias.into().to_ascii_lowercase()),
            span: Span::NONE,
        }
    }

    /// The same reference carrying a source span.
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = span;
        self
    }

    /// The name this relation is referred to by in expressions.
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.alias {
            None => f.write_str(&self.table),
            Some(a) => write!(f, "{} {}", self.table, a),
        }
    }
}

/// One `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    /// Sort expression (may reference a select alias).
    pub expr: Expr,
    /// `DESC`?
    pub desc: bool,
}

impl fmt::Display for OrderByItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.expr)?;
        if self.desc {
            write!(f, " DESC")?;
        }
        Ok(())
    }
}

/// A possibly-qualified column reference.
///
/// The `span` field is equality-transparent metadata (see
/// [`Span`]): it never affects `==`, hashing, or ordering, so
/// `ColumnRef` remains usable as a map key and AST round-trip equality
/// holds for parsed vs. printed trees.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnRef {
    /// Table name or alias, if qualified.
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
    /// Source location of the (possibly qualified) reference;
    /// [`Span::NONE`] when built programmatically.
    pub span: Span,
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.name),
            None => f.write_str(&self.name),
        }
    }
}

/// A literal value in SQL text.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// `NULL`
    Null,
    /// `TRUE` / `FALSE`
    Bool(bool),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// `DATE 'YYYY-MM-DD'`
    Date(Date),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Null => f.write_str("NULL"),
            Literal::Bool(true) => f.write_str("TRUE"),
            Literal::Bool(false) => f.write_str("FALSE"),
            Literal::Int(i) => write!(f, "{i}"),
            Literal::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Literal::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Literal::Date(d) => write!(f, "DATE '{d}'"),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinaryOp {
    Or,
    And,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl BinaryOp {
    /// Printing/parsing precedence (higher binds tighter).
    pub fn precedence(self) -> u8 {
        use BinaryOp::*;
        match self {
            Or => 1,
            And => 2,
            Eq | NotEq | Lt | LtEq | Gt | GtEq => 4,
            Add | Sub => 5,
            Mul | Div | Mod => 6,
        }
    }

    /// SQL spelling of the operator.
    pub fn symbol(self) -> &'static str {
        use BinaryOp::*;
        match self {
            Or => "OR",
            And => "AND",
            Eq => "=",
            NotEq => "<>",
            Lt => "<",
            LtEq => "<=",
            Gt => ">",
            GtEq => ">=",
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Mod => "%",
        }
    }

    /// True for `=`, `<>`, `<`, `<=`, `>`, `>=`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum UnaryOp {
    Not,
    Neg,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    /// SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// A scalar or aggregate expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference.
    Column(ColumnRef),
    /// Literal value.
    Literal(Literal),
    /// `NOT expr` or `-expr`.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        expr: Box<Expr>,
    },
    /// `left op right`.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// The operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `expr [NOT] LIKE pattern` (`%` any run, `_` one char).
    Like {
        /// The matched expression.
        expr: Box<Expr>,
        /// The pattern (usually a string literal).
        pattern: Box<Expr>,
        /// `NOT LIKE`?
        negated: bool,
    },
    /// `expr [NOT] IN (e1, e2, …)`.
    InList {
        /// The tested expression.
        expr: Box<Expr>,
        /// The candidate list.
        list: Vec<Expr>,
        /// `NOT IN`?
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// The tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// `NOT BETWEEN`?
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// `IS NOT NULL`?
        negated: bool,
    },
    /// An aggregate call. `arg == None` means `COUNT(*)`.
    Aggregate {
        /// Which aggregate.
        func: AggFunc,
        /// The argument, or `None` for `COUNT(*)`.
        arg: Option<Box<Expr>>,
        /// `DISTINCT` inside the call?
        distinct: bool,
    },
    /// `CASE [operand] WHEN … THEN … [ELSE …] END`.
    Case {
        /// Simple-case operand (`CASE x WHEN v …`), if any.
        operand: Option<Box<Expr>>,
        /// `(WHEN, THEN)` pairs in order.
        branches: Vec<(Expr, Expr)>,
        /// `ELSE` expression (defaults to NULL).
        else_expr: Option<Box<Expr>>,
    },
}

impl Expr {
    /// An unqualified column reference.
    pub fn column(name: impl Into<String>) -> Self {
        Expr::Column(ColumnRef {
            qualifier: None,
            name: name.into().to_ascii_lowercase(),
            span: Span::NONE,
        })
    }

    /// A qualified column reference `qualifier.name`.
    pub fn qualified(qualifier: impl Into<String>, name: impl Into<String>) -> Self {
        Expr::Column(ColumnRef {
            qualifier: Some(qualifier.into().to_ascii_lowercase()),
            name: name.into().to_ascii_lowercase(),
            span: Span::NONE,
        })
    }

    /// An integer literal.
    pub fn int(v: i64) -> Self {
        Expr::Literal(Literal::Int(v))
    }

    /// A float literal.
    pub fn float(v: f64) -> Self {
        Expr::Literal(Literal::Float(v))
    }

    /// A string literal.
    pub fn str(v: impl Into<String>) -> Self {
        Expr::Literal(Literal::Str(v.into()))
    }

    /// Combine two expressions with a binary operator.
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Self {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Self {
        Expr::binary(self, BinaryOp::And, other)
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Self {
        Expr::binary(self, BinaryOp::Eq, other)
    }

    /// Multiply a list of expressions together (used by `RewriteClean` for
    /// the `R1.prob * … * Rm.prob` product). Panics on an empty list.
    pub fn product(mut exprs: Vec<Expr>) -> Self {
        assert!(!exprs.is_empty(), "product of no expressions");
        let mut acc = exprs.remove(0);
        for e in exprs {
            acc = Expr::binary(acc, BinaryOp::Mul, e);
        }
        acc
    }

    /// Printing precedence of this node.
    fn precedence(&self) -> u8 {
        match self {
            Expr::Binary { op, .. } => op.precedence(),
            Expr::Unary {
                op: UnaryOp::Not, ..
            } => 3,
            Expr::Like { .. }
            | Expr::InList { .. }
            | Expr::Between { .. }
            | Expr::IsNull { .. } => 4,
            Expr::Unary {
                op: UnaryOp::Neg, ..
            } => 7,
            Expr::Column(_) | Expr::Literal(_) | Expr::Aggregate { .. } | Expr::Case { .. } => 8,
        }
    }

    /// Call `f` on every direct sub-expression, in source order. The one
    /// place that knows each variant's children; the recursive helpers
    /// below and the engine's lint passes are built on it.
    pub fn for_each_child<'a, F: FnMut(&'a Expr)>(&'a self, f: &mut F) {
        match self {
            Expr::Column(_) | Expr::Literal(_) => {}
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => f(expr),
            Expr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::Like { expr, pattern, .. } => {
                f(expr);
                f(pattern);
            }
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            Expr::Aggregate { arg, .. } => arg.iter().for_each(|a| f(a)),
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                operand.iter().for_each(|o| f(o));
                for (w, t) in branches {
                    f(w);
                    f(t);
                }
                else_expr.iter().for_each(|e| f(e));
            }
        }
    }

    /// True if the expression contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = matches!(self, Expr::Aggregate { .. });
        self.for_each_child(&mut |e| found = found || e.contains_aggregate());
        found
    }

    /// Visit every column reference in the expression.
    pub fn visit_columns<'a, F: FnMut(&'a ColumnRef)>(&'a self, f: &mut F) {
        match self {
            Expr::Column(c) => f(c),
            other => other.for_each_child(&mut |e| e.visit_columns(f)),
        }
    }

    /// Split a predicate tree at top-level `AND`s into conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::Binary {
                    left,
                    op: BinaryOp::And,
                    right,
                } => {
                    walk(left, out);
                    walk(right, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Fold a list of predicates back into a single `AND` tree
    /// (returns `None` for an empty list).
    pub fn conjunction(preds: Vec<Expr>) -> Option<Expr> {
        let mut it = preds.into_iter();
        let first = it.next()?;
        Some(it.fold(first, |acc, p| acc.and(p)))
    }
}

/// Print `e`, parenthesizing if its precedence is below `min_prec`.
fn fmt_prec(e: &Expr, f: &mut fmt::Formatter<'_>, min_prec: u8) -> fmt::Result {
    if e.precedence() < min_prec {
        write!(f, "(")?;
        fmt_expr(e, f)?;
        write!(f, ")")
    } else {
        fmt_expr(e, f)
    }
}

fn fmt_expr(e: &Expr, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match e {
        Expr::Column(c) => write!(f, "{c}"),
        Expr::Literal(l) => write!(f, "{l}"),
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => {
            write!(f, "NOT ")?;
            fmt_prec(expr, f, 4)
        }
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
        } => {
            write!(f, "-")?;
            fmt_prec(expr, f, 8)
        }
        Expr::Binary { left, op, right } => {
            let p = op.precedence();
            // Left-associative: the right child needs strictly higher
            // precedence to avoid parens; comparisons are non-associative so
            // both sides need higher precedence.
            let (lp, rp) = if op.is_comparison() {
                (p + 1, p + 1)
            } else {
                (p, p + 1)
            };
            fmt_prec(left, f, lp)?;
            write!(f, " {} ", op.symbol())?;
            fmt_prec(right, f, rp)
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            fmt_prec(expr, f, 5)?;
            write!(f, "{} LIKE ", if *negated { " NOT" } else { "" })?;
            fmt_prec(pattern, f, 5)
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            fmt_prec(expr, f, 5)?;
            write!(f, "{} IN (", if *negated { " NOT" } else { "" })?;
            for (i, e) in list.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                fmt_expr(e, f)?;
            }
            write!(f, ")")
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            fmt_prec(expr, f, 5)?;
            write!(f, "{} BETWEEN ", if *negated { " NOT" } else { "" })?;
            fmt_prec(low, f, 5)?;
            write!(f, " AND ")?;
            fmt_prec(high, f, 5)
        }
        Expr::IsNull { expr, negated } => {
            fmt_prec(expr, f, 5)?;
            write!(f, " IS{} NULL", if *negated { " NOT" } else { "" })
        }
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => {
            write!(f, "{}(", func.name())?;
            if *distinct {
                write!(f, "DISTINCT ")?;
            }
            match arg {
                None => write!(f, "*")?,
                Some(a) => fmt_expr(a, f)?,
            }
            write!(f, ")")
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            write!(f, "CASE")?;
            if let Some(o) = operand {
                write!(f, " ")?;
                fmt_expr(o, f)?;
            }
            for (w, t) in branches {
                write!(f, " WHEN ")?;
                fmt_expr(w, f)?;
                write!(f, " THEN ")?;
                fmt_expr(t, f)?;
            }
            if let Some(e) = else_expr {
                write!(f, " ELSE ")?;
                fmt_expr(e, f)?;
            }
            write!(f, " END")
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_expr(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_printing() {
        // (a OR b) AND c must keep its parens.
        let e = Expr::binary(
            Expr::binary(Expr::column("a"), BinaryOp::Or, Expr::column("b")),
            BinaryOp::And,
            Expr::column("c"),
        );
        assert_eq!(e.to_string(), "(a OR b) AND c");

        // a OR (b AND c) needs none.
        let e = Expr::binary(
            Expr::column("a"),
            BinaryOp::Or,
            Expr::binary(Expr::column("b"), BinaryOp::And, Expr::column("c")),
        );
        assert_eq!(e.to_string(), "a OR b AND c");
    }

    #[test]
    fn arithmetic_printing() {
        // l_extendedprice * (1 - l_discount)
        let e = Expr::binary(
            Expr::column("l_extendedprice"),
            BinaryOp::Mul,
            Expr::binary(Expr::int(1), BinaryOp::Sub, Expr::column("l_discount")),
        );
        assert_eq!(e.to_string(), "l_extendedprice * (1 - l_discount)");
    }

    #[test]
    fn left_associativity_no_extra_parens() {
        let e = Expr::binary(
            Expr::binary(Expr::column("a"), BinaryOp::Sub, Expr::column("b")),
            BinaryOp::Sub,
            Expr::column("c"),
        );
        assert_eq!(e.to_string(), "a - b - c");
        // a - (b - c) keeps parens
        let e = Expr::binary(
            Expr::column("a"),
            BinaryOp::Sub,
            Expr::binary(Expr::column("b"), BinaryOp::Sub, Expr::column("c")),
        );
        assert_eq!(e.to_string(), "a - (b - c)");
    }

    #[test]
    fn product_builder() {
        let e = Expr::product(vec![
            Expr::qualified("o", "prob"),
            Expr::qualified("c", "prob"),
            Expr::qualified("l", "prob"),
        ]);
        assert_eq!(e.to_string(), "o.prob * c.prob * l.prob");
    }

    #[test]
    fn conjunct_roundtrip() {
        let a = Expr::column("a").eq(Expr::int(1));
        let b = Expr::column("b").eq(Expr::int(2));
        let c = Expr::column("c").eq(Expr::int(3));
        let all = Expr::conjunction(vec![a.clone(), b.clone(), c.clone()]).unwrap();
        let parts: Vec<String> = all.conjuncts().iter().map(|e| e.to_string()).collect();
        assert_eq!(parts, vec!["a = 1", "b = 2", "c = 3"]);
        assert!(Expr::conjunction(vec![]).is_none());
    }

    #[test]
    fn select_display() {
        let q = SelectStatement {
            projection: vec![
                SelectItem::column("o", "id"),
                SelectItem::Expr {
                    expr: Expr::Aggregate {
                        func: AggFunc::Sum,
                        arg: Some(Box::new(Expr::qualified("o", "prob"))),
                        distinct: false,
                    },
                    alias: Some("probability".into()),
                },
            ],
            from: vec![TableRef::aliased("order", "o")],
            selection: Some(Expr::qualified("o", "quantity").eq(Expr::int(3))),
            group_by: vec![Expr::qualified("o", "id")],
            order_by: vec![OrderByItem {
                expr: Expr::column("probability"),
                desc: true,
            }],
            limit: Some(10),
            ..Default::default()
        };
        assert_eq!(
            q.to_string(),
            "SELECT o.id, SUM(o.prob) AS probability FROM order o \
             WHERE o.quantity = 3 GROUP BY o.id ORDER BY probability DESC LIMIT 10"
        );
    }

    #[test]
    fn string_literal_escaped() {
        assert_eq!(Expr::str("it's").to_string(), "'it''s'");
    }

    #[test]
    fn count_star() {
        let e = Expr::Aggregate {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        };
        assert_eq!(e.to_string(), "COUNT(*)");
    }

    #[test]
    fn contains_aggregate_walks_tree() {
        let agg = Expr::Aggregate {
            func: AggFunc::Sum,
            arg: Some(Box::new(Expr::column("x"))),
            distinct: false,
        };
        let e = Expr::binary(Expr::int(1), BinaryOp::Add, agg);
        assert!(e.contains_aggregate());
        assert!(!Expr::column("x").contains_aggregate());
    }
}
