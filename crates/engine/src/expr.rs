//! Bound (name-resolved) expressions and their evaluator.
//!
//! The binder turns AST column references into [`ColumnId`]s — a `(relation,
//! column)` pair, `col` counting the relation's base schema. The evaluator
//! reads a column leaf through a [`Cells`] accessor, so the same bound
//! expression runs over a join's position tuple (the executor's `Tuple`:
//! the cell is read in place in the pinned table) and over a plain row (an
//! aggregate's slot row, or a stored row a DML statement evaluates),
//! regardless of join order.
//!
//! Evaluation implements SQL three-valued logic: every comparison
//! (`=`, `<`, …, `IN`, `BETWEEN`, a simple `CASE`) is [`Value::sql_cmp`],
//! whose unknown outcome (a NULL, a NaN) is NULL and whose type error fails
//! the statement; `AND`/`OR`/`NOT` follow Kleene logic, and WHERE keeps a
//! row only if the predicate is *true* (not NULL).

use std::borrow::Cow;
use std::cmp::Ordering;

use conquer_storage::{DataType, Row, Value};

use crate::error::EngineError;
use crate::Result;

/// A resolved column: `rel` indexes the query's FROM list (or a synthetic
/// single relation for post-aggregation exprs), `col` is the position within
/// that relation's schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColumnId {
    /// Relation index within the query.
    pub rel: usize,
    /// Column index within the relation.
    pub col: usize,
}

/// Where an expression's column leaves read their cells, borrowed for
/// `'a`. The planner only routes expressions to operators whose input
/// holds their columns, so a miss is a malformed plan: it surfaces as a
/// typed [`EngineError::Internal`] rather than a panic.
pub trait Cells<'a>: Copy {
    /// The cell `id` names.
    fn cell(self, id: ColumnId) -> Result<&'a Value>;
}

/// A plain row is relation 0.
impl<'a, 'r: 'a> Cells<'a> for &'r [Value] {
    #[inline]
    fn cell(self, id: ColumnId) -> Result<&'a Value> {
        match self.get(id.col) {
            Some(v) if id.rel == 0 => Ok(v),
            _ => Err(absent(id)),
        }
    }
}

/// A row being built is a plain row.
impl<'a, 'r: 'a> Cells<'a> for &'r Row {
    #[inline]
    fn cell(self, id: ColumnId) -> Result<&'a Value> {
        self.as_slice().cell(id)
    }
}

/// The error for a column id an accessor does not hold.
pub(crate) fn absent(id: ColumnId) -> EngineError {
    EngineError::internal(format!(
        "expression references column {} of relation {}, absent from the operator's input",
        id.col, id.rel
    ))
}

/// Binary operators on bound expressions (same set as the AST's, minus
/// AND/OR which the evaluator special-cases for three-valued logic).
pub use conquer_sql::BinaryOp;

/// A name-resolved scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// A resolved column.
    Column(ColumnId),
    /// A constant.
    Literal(Value),
    /// `NOT e` (Kleene).
    Not(Box<BoundExpr>),
    /// `-e`.
    Neg(Box<BoundExpr>),
    /// `l op r`.
    Binary {
        /// Left operand.
        left: Box<BoundExpr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// `e [NOT] LIKE pattern`.
    Like {
        /// Matched expression.
        expr: Box<BoundExpr>,
        /// Pattern expression.
        pattern: Box<BoundExpr>,
        /// Negated?
        negated: bool,
    },
    /// `e [NOT] IN (…)`.
    InList {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Candidates.
        list: Vec<BoundExpr>,
        /// Negated?
        negated: bool,
    },
    /// `e [NOT] BETWEEN lo AND hi`.
    Between {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Lower bound.
        low: Box<BoundExpr>,
        /// Upper bound.
        high: Box<BoundExpr>,
        /// Negated?
        negated: bool,
    },
    /// `e IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Negated?
        negated: bool,
    },
    /// `CASE [operand] WHEN … THEN … [ELSE …] END`.
    Case {
        /// Simple-case operand, if any.
        operand: Option<Box<BoundExpr>>,
        /// `(WHEN, THEN)` pairs in order.
        branches: Vec<(BoundExpr, BoundExpr)>,
        /// `ELSE` (NULL when absent).
        else_expr: Option<Box<BoundExpr>>,
        /// The arms unify to `DOUBLE`: an `INTEGER` result is conformed
        /// to it, so the expression evaluates to its static type.
        float: bool,
    },
}

impl BoundExpr {
    /// Collect every referenced column id.
    pub fn columns(&self) -> Vec<ColumnId> {
        let mut out = Vec::new();
        self.visit(&mut |c| out.push(c));
        out
    }

    /// Collect the set of referenced relation indices.
    pub fn relations(&self) -> Vec<usize> {
        let mut rels: Vec<usize> = self.columns().iter().map(|c| c.rel).collect();
        rels.sort_unstable();
        rels.dedup();
        rels
    }

    /// Split a predicate at its top-level `AND`s. Lowering maps `AND`
    /// structurally, so the result lines up index by index with
    /// [`conquer_sql::Expr::conjuncts`] of the predicate it was bound from.
    pub fn conjuncts(&self) -> Vec<&BoundExpr> {
        fn walk<'a>(e: &'a BoundExpr, out: &mut Vec<&'a BoundExpr>) {
            match e {
                BoundExpr::Binary {
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
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    fn visit<F: FnMut(ColumnId)>(&self, f: &mut F) {
        match self {
            BoundExpr::Column(c) => f(*c),
            BoundExpr::Literal(_) => {}
            BoundExpr::Not(e) | BoundExpr::Neg(e) | BoundExpr::IsNull { expr: e, .. } => e.visit(f),
            BoundExpr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            BoundExpr::Like { expr, pattern, .. } => {
                expr.visit(f);
                pattern.visit(f);
            }
            BoundExpr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            BoundExpr::Between {
                expr, low, high, ..
            } => {
                expr.visit(f);
                low.visit(f);
                high.visit(f);
            }
            BoundExpr::Case {
                operand,
                branches,
                else_expr,
                ..
            } => {
                if let Some(o) = operand {
                    o.visit(f);
                }
                for (w, t) in branches {
                    w.visit(f);
                    t.visit(f);
                }
                if let Some(e) = else_expr {
                    e.visit(f);
                }
            }
        }
    }

    /// The static type of the expression, its columns typed by `column`:
    /// every evaluation yields a value of this type or NULL. `None` when
    /// it has none: a NULL literal, an untyped column, arithmetic or unary
    /// minus over a non-numeric operand, a `CASE` whose arms do not unify.
    /// The engine's one typing rule.
    pub fn data_type(&self, column: &impl Fn(ColumnId) -> Option<DataType>) -> Option<DataType> {
        let numeric = |t: DataType| matches!(t, DataType::Int | DataType::Float).then_some(t);
        Some(match self {
            BoundExpr::Column(id) => column(*id)?,
            BoundExpr::Literal(v) => v.data_type()?,
            BoundExpr::Neg(e) => numeric(e.data_type(column)?)?,
            BoundExpr::Binary { left, op, right }
                if !op.is_comparison() && !matches!(op, BinaryOp::And | BinaryOp::Or) =>
            {
                numeric(unify(left.data_type(column)?, right.data_type(column)?)?)?
            }
            BoundExpr::Not(_)
            | BoundExpr::Binary { .. }
            | BoundExpr::Like { .. }
            | BoundExpr::InList { .. }
            | BoundExpr::Between { .. }
            | BoundExpr::IsNull { .. } => DataType::Bool,
            BoundExpr::Case {
                branches,
                else_expr,
                ..
            } => {
                // A NULL arm takes whatever type the others agree on.
                let mut arms = branches
                    .iter()
                    .map(|(_, then)| then)
                    .chain(else_expr.as_deref())
                    .filter(|arm| !matches!(arm, BoundExpr::Literal(Value::Null)));
                let first = arms.next()?.data_type(column)?;
                arms.try_fold(first, |t, arm| unify(t, arm.data_type(column)?))?
            }
        })
    }

    /// Evaluate against the cells `cells` reads.
    pub fn eval<'a, C: Cells<'a>>(&'a self, cells: C) -> Result<Value> {
        Ok(match self {
            BoundExpr::Column(id) => cells.cell(*id)?.clone(),
            BoundExpr::Literal(v) => v.clone(),
            BoundExpr::Not(e) => match &*e.eval_ref(cells)? {
                Value::Null => Value::Null,
                Value::Bool(b) => Value::Bool(!b),
                other => {
                    return Err(EngineError::exec(format!(
                        "NOT applied to non-boolean value {other}"
                    )))
                }
            },
            BoundExpr::Neg(e) => match &*e.eval_ref(cells)? {
                Value::Null => Value::Null,
                Value::Int(i) => Value::Int(
                    i.checked_neg()
                        .ok_or_else(|| EngineError::exec("integer overflow in negation"))?,
                ),
                Value::Float(x) => Value::Float(-x),
                other => {
                    return Err(EngineError::exec(format!(
                        "unary minus applied to non-numeric value {other}"
                    )))
                }
            },
            BoundExpr::Binary { left, op, right } => {
                let l = left.eval_ref(cells)?;
                eval_binary(&l, *op, right, cells)?
            }
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval_ref(cells)?;
                let p = pattern.eval_ref(cells)?;
                match (&*v, &*p) {
                    (Value::Null, _) | (_, Value::Null) => Value::Null,
                    (Value::Text(s), Value::Text(p)) => Value::Bool(like_match(s, p) != *negated),
                    (a, b) => {
                        return Err(EngineError::exec(format!(
                            "LIKE requires text operands, got {a} LIKE {b}"
                        )))
                    }
                }
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval_ref(cells)?;
                let mut saw_null = false;
                for item in list {
                    match v.sql_cmp(&*item.eval_ref(cells)?)? {
                        Some(Ordering::Equal) => return Ok(Value::Bool(!negated)),
                        Some(_) => {}
                        None => saw_null = true,
                    }
                }
                if saw_null {
                    Value::Null
                } else {
                    Value::Bool(*negated)
                }
            }
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval_ref(cells)?;
                let lo = low.eval_ref(cells)?;
                let hi = high.eval_ref(cells)?;
                let ge = v.sql_cmp(&lo)?.map(|o| o != Ordering::Less);
                let le = v.sql_cmp(&hi)?.map(|o| o != Ordering::Greater);
                match kleene_and(ge, le) {
                    None => Value::Null,
                    Some(b) => Value::Bool(b != *negated),
                }
            }
            BoundExpr::IsNull { expr, negated } => {
                Value::Bool(expr.eval_ref(cells)?.is_null() != *negated)
            }
            BoundExpr::Case {
                operand,
                branches,
                else_expr,
                float,
            } => {
                let operand = operand.as_ref().map(|o| o.eval_ref(cells)).transpose()?;
                let mut arm = else_expr.as_deref();
                for (when, then) in branches {
                    let fire = match &operand {
                        // Simple case: operand = WHEN value (an unknown
                        // comparison never matches).
                        Some(op) => op.sql_cmp(&*when.eval_ref(cells)?)? == Some(Ordering::Equal),
                        // Searched case: WHEN is a predicate.
                        None => when.eval_predicate(cells)?,
                    };
                    if fire {
                        arm = Some(then);
                        break;
                    }
                }
                match arm.map(|e| e.eval(cells)).transpose()? {
                    Some(Value::Int(i)) if *float => Value::Float(i as f64),
                    v => v.unwrap_or(Value::Null),
                }
            }
        })
    }

    /// [`BoundExpr::eval`] without the copy at the leaves: a column or a
    /// literal is borrowed from the row or the expression, and only
    /// computed results are owned. Every operand inside `eval` is read
    /// this way, so `p_name LIKE '%green%'` never clones the name or the
    /// pattern, and join keys borrow until they are normalized.
    #[inline]
    pub fn eval_ref<'a, C: Cells<'a>>(&'a self, cells: C) -> Result<Cow<'a, Value>> {
        Ok(match self {
            BoundExpr::Column(id) => Cow::Borrowed(cells.cell(*id)?),
            BoundExpr::Literal(v) => Cow::Borrowed(v),
            computed => Cow::Owned(computed.eval(cells)?),
        })
    }

    /// Evaluate as a WHERE predicate: `true` only if the result is TRUE
    /// (NULL and FALSE both reject the row).
    pub fn eval_predicate<'a, C: Cells<'a>>(&'a self, cells: C) -> Result<bool> {
        match &*self.eval_ref(cells)? {
            Value::Bool(b) => Ok(*b),
            Value::Null => Ok(false),
            other => Err(EngineError::exec(format!(
                "predicate evaluated to non-boolean value {other}"
            ))),
        }
    }
}

/// The common type of two operands or `CASE` arms: equal types unify to
/// themselves, INTEGER with DOUBLE to DOUBLE, nothing else.
fn unify(a: DataType, b: DataType) -> Option<DataType> {
    match (a, b) {
        _ if a == b => Some(a),
        (DataType::Int | DataType::Float, DataType::Int | DataType::Float) => Some(DataType::Float),
        _ => None,
    }
}

fn kleene_and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn kleene_or(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

fn to_kleene(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(EngineError::exec(format!("expected boolean, got {other}"))),
    }
}

fn eval_binary<'a, C: Cells<'a>>(
    left: &Value,
    op: BinaryOp,
    right_expr: &'a BoundExpr,
    cells: C,
) -> Result<Value> {
    // AND/OR get short-circuit + Kleene treatment.
    match op {
        BinaryOp::And => {
            let l = to_kleene(left)?;
            if l == Some(false) {
                return Ok(Value::Bool(false));
            }
            let r = to_kleene(&*right_expr.eval_ref(cells)?)?;
            return Ok(kleene_and(l, r).map(Value::Bool).unwrap_or(Value::Null));
        }
        BinaryOp::Or => {
            let l = to_kleene(left)?;
            if l == Some(true) {
                return Ok(Value::Bool(true));
            }
            let r = to_kleene(&*right_expr.eval_ref(cells)?)?;
            return Ok(kleene_or(l, r).map(Value::Bool).unwrap_or(Value::Null));
        }
        _ => {}
    }
    let right = right_expr.eval_ref(cells)?;
    if left.is_null() || right.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        let Some(ord) = left.sql_cmp(&right)? else {
            return Ok(Value::Null);
        };
        let b = match op {
            BinaryOp::Eq => ord == Ordering::Equal,
            BinaryOp::NotEq => ord != Ordering::Equal,
            BinaryOp::Lt => ord == Ordering::Less,
            BinaryOp::LtEq => ord != Ordering::Greater,
            BinaryOp::Gt => ord == Ordering::Greater,
            BinaryOp::GtEq => ord != Ordering::Less,
            _ => unreachable!(),
        };
        return Ok(Value::Bool(b));
    }
    arithmetic(left, op, &right)
}

fn arithmetic(left: &Value, op: BinaryOp, right: &Value) -> Result<Value> {
    use BinaryOp::*;
    match (left, right) {
        (Value::Int(a), Value::Int(b)) => {
            let (a, b) = (*a, *b);
            let out = match op {
                Add => a.checked_add(b),
                Sub => a.checked_sub(b),
                Mul => a.checked_mul(b),
                Div => {
                    // Integer division follows SQL and truncates toward zero.
                    if b == 0 {
                        return Err(EngineError::exec("division by zero"));
                    }
                    a.checked_div(b)
                }
                Mod => {
                    if b == 0 {
                        return Err(EngineError::exec("modulo by zero"));
                    }
                    a.checked_rem(b)
                }
                _ => unreachable!("non-arithmetic op reached arithmetic()"),
            };
            out.map(Value::Int)
                .ok_or_else(|| EngineError::exec("integer overflow in arithmetic"))
        }
        _ => {
            let (Some(a), Some(b)) = (left.as_f64(), right.as_f64()) else {
                return Err(EngineError::exec(format!(
                    "arithmetic on non-numeric values: {left} {} {right}",
                    op.symbol()
                )));
            };
            let out = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => {
                    if b == 0.0 {
                        return Err(EngineError::exec("division by zero"));
                    }
                    a / b
                }
                Mod => {
                    if b == 0.0 {
                        return Err(EngineError::exec("modulo by zero"));
                    }
                    a % b
                }
                _ => unreachable!("non-arithmetic op reached arithmetic()"),
            };
            Ok(Value::Float(out))
        }
    }
}

/// SQL `LIKE` matcher: `%` matches any run of characters, `_` exactly one.
/// Matching is case-sensitive, per the standard.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    // Iterative two-pointer algorithm with backtracking to the last `%`.
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_s): (Option<usize>, usize) = (None, 0);
    while si < s.len() {
        // The '%' check must come first: a literal '%' in the *text* would
        // otherwise be consumed by the equality branch when the pattern is
        // at a '%' wildcard.
        if pi < p.len() && p[pi] == '%' {
            star_p = Some(pi);
            star_s = si;
            pi += 1;
        } else if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if let Some(sp) = star_p {
            pi = sp + 1;
            star_s += 1;
            si = star_s;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(i: usize) -> BoundExpr {
        BoundExpr::Column(ColumnId { rel: 0, col: i })
    }

    fn lit(v: impl Into<Value>) -> BoundExpr {
        BoundExpr::Literal(v.into())
    }

    fn bin(l: BoundExpr, op: BinaryOp, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            left: Box::new(l),
            op,
            right: Box::new(r),
        }
    }

    #[test]
    fn arithmetic_int_and_float() {
        let row = vec![Value::Int(7), Value::Float(2.0)];
        let e = bin(col(0), BinaryOp::Add, col(1));
        assert_eq!(e.eval(&row).unwrap(), Value::Float(9.0));
        let e = bin(col(0), BinaryOp::Div, lit(2i64));
        assert_eq!(e.eval(&row).unwrap(), Value::Int(3)); // truncating
        let e = bin(col(0), BinaryOp::Mod, lit(4i64));
        assert_eq!(e.eval(&row).unwrap(), Value::Int(3));
    }

    #[test]
    fn division_by_zero_is_error() {
        let row = vec![Value::Int(1)];
        let e = bin(col(0), BinaryOp::Div, lit(0i64));
        assert!(e.eval(&row).is_err());
        let e = bin(lit(1.0), BinaryOp::Div, lit(0.0));
        assert!(e.eval(&row).is_err());
    }

    #[test]
    fn overflow_is_error() {
        let row = vec![Value::Int(i64::MAX)];
        let e = bin(col(0), BinaryOp::Add, lit(1i64));
        assert!(e.eval(&row).is_err());
    }

    #[test]
    fn null_propagates_through_arithmetic_and_comparison() {
        let row = vec![Value::Null];
        for op in [BinaryOp::Add, BinaryOp::Eq, BinaryOp::Lt] {
            let e = bin(col(0), op, lit(1i64));
            assert_eq!(e.eval(&row).unwrap(), Value::Null);
        }
    }

    #[test]
    fn kleene_and_or() {
        let row: Row = vec![];
        let null = BoundExpr::Literal(Value::Null);
        let t = lit(true);
        let f = lit(false);
        // FALSE AND NULL = FALSE
        assert_eq!(
            bin(f.clone(), BinaryOp::And, null.clone())
                .eval(&row)
                .unwrap(),
            Value::Bool(false)
        );
        // TRUE AND NULL = NULL
        assert_eq!(
            bin(t.clone(), BinaryOp::And, null.clone())
                .eval(&row)
                .unwrap(),
            Value::Null
        );
        // TRUE OR NULL = TRUE
        assert_eq!(
            bin(t.clone(), BinaryOp::Or, null.clone())
                .eval(&row)
                .unwrap(),
            Value::Bool(true)
        );
        // FALSE OR NULL = NULL
        assert_eq!(
            bin(f, BinaryOp::Or, null.clone()).eval(&row).unwrap(),
            Value::Null
        );
        // NOT NULL = NULL
        assert_eq!(
            BoundExpr::Not(Box::new(null)).eval(&row).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn predicate_rejects_null() {
        let row = vec![Value::Null];
        let e = bin(col(0), BinaryOp::Gt, lit(10i64));
        assert!(!e.eval_predicate(&row).unwrap());
    }

    #[test]
    fn in_list_three_valued() {
        let row = vec![Value::Int(5)];
        let e = BoundExpr::InList {
            expr: Box::new(col(0)),
            list: vec![lit(1i64), lit(5i64)],
            negated: false,
        };
        assert_eq!(e.eval(&row).unwrap(), Value::Bool(true));
        let e = BoundExpr::InList {
            expr: Box::new(col(0)),
            list: vec![lit(1i64), BoundExpr::Literal(Value::Null)],
            negated: false,
        };
        assert_eq!(e.eval(&row).unwrap(), Value::Null);
        let e = BoundExpr::InList {
            expr: Box::new(col(0)),
            list: vec![lit(1i64), lit(2i64)],
            negated: true,
        };
        assert_eq!(e.eval(&row).unwrap(), Value::Bool(true));
    }

    #[test]
    fn between_inclusive() {
        let row = vec![Value::Int(5)];
        let e = BoundExpr::Between {
            expr: Box::new(col(0)),
            low: Box::new(lit(5i64)),
            high: Box::new(lit(7i64)),
            negated: false,
        };
        assert_eq!(e.eval(&row).unwrap(), Value::Bool(true));
        let e = BoundExpr::Between {
            expr: Box::new(col(0)),
            low: Box::new(lit(6i64)),
            high: Box::new(lit(7i64)),
            negated: true,
        };
        assert_eq!(e.eval(&row).unwrap(), Value::Bool(true));
    }

    /// `=`, `<`, `IN`, `BETWEEN` and a simple `CASE` over every pair of
    /// these values give the comparison rule's outcome: unknown (NULL, or
    /// no match), a type error across comparison classes, or the order.
    #[test]
    fn every_comparison_form_follows_the_one_rule() {
        use std::cmp::Ordering::{Equal, Less};
        let day = "1995-03-15".parse::<conquer_storage::Date>().unwrap();
        let values = [
            Value::Null,
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Int(1),
            Value::Float(1.0),
            Value::text("1995-03-15"),
            Value::text("x"),
            Value::Date(day),
            Value::Bool(true),
        ];
        // The rule, spelled out: `Err(())` is the type error.
        let rule = |a: &Value, b: &Value| -> std::result::Result<Option<Ordering>, ()> {
            let class = |v: &Value| v.data_type().map(DataType::cmp_class);
            let date = |v: &Value| match v {
                Value::Text(s) => s.parse().ok(),
                v => v.as_date(),
            };
            Ok(match (a, b) {
                (Value::Null, _) | (_, Value::Null) => None,
                _ if class(a) != class(b) => return Err(()),
                (Value::Text(x), Value::Text(y)) => Some(x.cmp(y)),
                (Value::Bool(x), Value::Bool(y)) => Some(x.cmp(y)),
                _ => match (a.as_f64(), b.as_f64()) {
                    (Some(x), Some(y)) => x.partial_cmp(&y),
                    _ => date(a).zip(date(b)).map(|(x, y)| x.cmp(&y)),
                },
            })
        };
        let row: Row = vec![];
        for a in &values {
            for b in &values {
                let (l, r) = (lit(a.clone()), lit(b.clone()));
                let forms = [
                    ("=", bin(l.clone(), BinaryOp::Eq, r.clone())),
                    ("<", bin(l.clone(), BinaryOp::Lt, r.clone())),
                    (
                        "IN",
                        BoundExpr::InList {
                            expr: Box::new(l.clone()),
                            list: vec![r.clone()],
                            negated: false,
                        },
                    ),
                    (
                        "BETWEEN",
                        BoundExpr::Between {
                            expr: Box::new(l.clone()),
                            low: Box::new(r.clone()),
                            high: Box::new(r.clone()),
                            negated: false,
                        },
                    ),
                    (
                        "CASE",
                        BoundExpr::Case {
                            operand: Some(Box::new(l.clone())),
                            branches: vec![(r.clone(), lit(true))],
                            else_expr: Some(Box::new(lit(false))),
                            float: false,
                        },
                    ),
                ];
                for (form, e) in forms {
                    let got = e.eval(&row);
                    let want = match rule(a, b) {
                        Err(()) => {
                            let ty = |v: &Value| v.data_type().map_or("", DataType::name);
                            let (ta, tb) = (ty(a), ty(b));
                            assert!(
                                matches!(&got, Err(EngineError::Exec(m))
                                    if m.starts_with(&format!("cannot compare {ta} "))
                                        && m.contains(&format!(" with {tb} "))),
                                "{a:?} {form} {b:?}: {got:?}"
                            );
                            continue;
                        }
                        Ok(None) if form == "CASE" => Value::Bool(false),
                        Ok(None) => Value::Null,
                        Ok(Some(o)) => {
                            Value::Bool(if form == "<" { o == Less } else { o == Equal })
                        }
                    };
                    assert_eq!(got, Ok(want), "{a:?} {form} {b:?}");
                }
            }
        }
    }

    #[test]
    fn is_null_checks() {
        let row = vec![Value::Null, Value::Int(1)];
        let e = BoundExpr::IsNull {
            expr: Box::new(col(0)),
            negated: false,
        };
        assert_eq!(e.eval(&row).unwrap(), Value::Bool(true));
        let e = BoundExpr::IsNull {
            expr: Box::new(col(1)),
            negated: true,
        };
        assert_eq!(e.eval(&row).unwrap(), Value::Bool(true));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("BUILDING", "BUILD%"));
        assert!(like_match("forest green metallic", "%green%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("anything", "%%"));
        assert!(like_match("a%b", "a%b")); // literal text still matches itself
                                           // regression: a literal '%' in the text must not be eaten by the
                                           // equality branch when the pattern is at a wildcard
        assert!(like_match("%A", "%"));
        assert!(like_match("100%", "100%"));
        assert!(like_match("%", "%"));
        assert!(!like_match("ab", "a"));
        assert!(like_match("PROMO BURNISHED", "PROMO%"));
    }

    #[test]
    fn a_plain_row_is_relation_zero_and_misses_are_typed_errors() {
        let row = vec![Value::Int(10), Value::Int(11)];
        let e = BoundExpr::Column(ColumnId { rel: 0, col: 1 });
        assert_eq!(e.eval(&row).unwrap(), Value::Int(11));
        for id in [ColumnId { rel: 1, col: 0 }, ColumnId { rel: 0, col: 2 }] {
            let err = BoundExpr::Column(id).eval(&row).unwrap_err();
            assert!(matches!(err, EngineError::Internal(_)), "{err:?}");
        }
    }

    #[test]
    fn columns_and_relations_collected() {
        let e = bin(
            BoundExpr::Column(ColumnId { rel: 2, col: 0 }),
            BinaryOp::Eq,
            BoundExpr::Column(ColumnId { rel: 0, col: 3 }),
        );
        assert_eq!(e.relations(), vec![0, 2]);
        assert_eq!(e.columns().len(), 2);
    }

    #[test]
    fn every_form_has_the_one_static_type() {
        use DataType::{Bool, Float, Int, Text};
        // Column 0 is INTEGER, 1 DOUBLE, 2 TEXT; column 3 has no type.
        let column = |id: ColumnId| [Some(Int), Some(Float), Some(Text), None][id.col];
        let ty = |e: &BoundExpr| e.data_type(&column);
        let null = || BoundExpr::Literal(Value::Null);
        let neg = |e| BoundExpr::Neg(Box::new(e));
        let case = |arms: Vec<BoundExpr>, else_expr: Option<BoundExpr>| BoundExpr::Case {
            operand: None,
            branches: arms.into_iter().map(|t| (lit(true), t)).collect(),
            else_expr: else_expr.map(Box::new),
            float: false,
        };
        assert_eq!(
            (ty(&col(0)), ty(&col(1)), ty(&col(2))),
            (Some(Int), Some(Float), Some(Text))
        );
        assert_eq!(ty(&col(3)), None);
        assert_eq!(
            (ty(&lit(1i64)), ty(&lit(0.5)), ty(&lit("x"))),
            (Some(Int), Some(Float), Some(Text))
        );
        assert_eq!(ty(&null()), None);
        assert_eq!(
            (ty(&neg(col(0))), ty(&neg(col(1)))),
            (Some(Int), Some(Float))
        );
        assert_eq!(ty(&neg(col(2))), None);
        assert_eq!(ty(&bin(col(0), BinaryOp::Div, lit(2i64))), Some(Int));
        assert_eq!(ty(&bin(col(0), BinaryOp::Mul, col(1))), Some(Float));
        assert_eq!(ty(&bin(col(1), BinaryOp::Add, lit(1i64))), Some(Float));
        assert_eq!(ty(&bin(col(2), BinaryOp::Add, col(2))), None);
        assert_eq!(ty(&bin(col(0), BinaryOp::Add, null())), None);
        // A NULL arm takes the others' type; INTEGER and DOUBLE unify.
        assert_eq!(ty(&case(vec![col(0), null()], None)), Some(Int));
        assert_eq!(ty(&case(vec![null()], Some(col(1)))), Some(Float));
        assert_eq!(ty(&case(vec![col(0)], Some(col(1)))), Some(Float));
        assert_eq!(ty(&case(vec![null()], None)), None);
        // Arms that do not unify leave the CASE untyped.
        assert_eq!(ty(&case(vec![col(0)], Some(col(2)))), None);
        // Comparisons and predicates are BOOLEAN, whatever their operands.
        for e in [
            bin(col(0), BinaryOp::Eq, col(2)),
            bin(null(), BinaryOp::Lt, col(1)),
            bin(lit(true), BinaryOp::And, null()),
            BoundExpr::Not(Box::new(col(3))),
            BoundExpr::IsNull {
                expr: Box::new(col(3)),
                negated: false,
            },
        ] {
            assert_eq!(ty(&e), Some(Bool), "{e:?}");
        }
    }
}
