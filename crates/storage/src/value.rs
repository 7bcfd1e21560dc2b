//! The typed value model.
//!
//! [`Value`] is the single dynamic value type flowing through the engine:
//! table cells, expression results, join/group/sort keys. [`DataType`] is its
//! static counterpart used in schemas.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::date::Date;

/// Static type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Float,
    /// UTF-8 string.
    Text,
    /// Calendar date.
    Date,
}

impl DataType {
    /// Human-readable SQL-ish name of the type.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Bool => "BOOLEAN",
            DataType::Int => "INTEGER",
            DataType::Float => "DOUBLE",
            DataType::Text => "TEXT",
            DataType::Date => "DATE",
        }
    }

    /// The type's comparison class: numbers, `TEXT` with `DATE` (the text
    /// parses as a date), or `BOOLEAN`. Comparing across classes is a type
    /// error, in [`Value::sql_cmp`] and in every static check.
    pub fn cmp_class(self) -> u8 {
        match self {
            DataType::Int | DataType::Float => 0,
            DataType::Text | DataType::Date => 1,
            DataType::Bool => 2,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A dynamically-typed SQL value.
///
/// `Value` implements a *total* order and consistent `Eq`/`Hash` so it can be
/// used directly as a key in hash joins, hash aggregation and sorts:
///
/// * `Null` sorts before everything else and is equal to itself (grouping
///   semantics; SQL's three-valued comparison is [`Value::sql_cmp`]).
/// * `Int` and `Float` are ordered numerically; when numerically equal, the
///   type tag breaks the tie so that `Ord` equality coincides with the
///   structural `Eq`.
/// * `Float` uses `f64::total_cmp`, which gives NaN a definite position.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean value.
    Bool(bool),
    /// Integer value.
    Int(i64),
    /// Floating point value.
    Float(f64),
    /// String value.
    Text(String),
    /// Date value.
    Date(Date),
}

impl Value {
    /// The dynamic type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// True if this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Build a text value from anything string-like.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// View as `f64` if numeric (`Int` or `Float`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// View as `i64` if integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// View as `&str` if text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// View as `bool` if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// View as [`Date`] if a date.
    pub fn as_date(&self) -> Option<Date> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// Whether this value is an instance of `ty` (NULL matches every type).
    pub fn conforms_to(&self, ty: DataType) -> bool {
        match self.data_type() {
            None => true,
            Some(t) => t == ty || (t == DataType::Int && ty == DataType::Float),
        }
    }

    /// Coerce into `ty` where a lossless conversion exists (`Int`→`Float`).
    /// Returns the value unchanged when it already conforms.
    pub fn coerce_to(self, ty: DataType) -> Option<Value> {
        match (self, ty) {
            (Value::Null, _) => Some(Value::Null),
            (Value::Int(i), DataType::Float) => Some(Value::Float(i as f64)),
            (v, t) if v.data_type() == Some(t) => Some(v),
            _ => None,
        }
    }

    /// SQL comparison, the one rule `WHERE`, `IN`, `BETWEEN`, a simple
    /// `CASE` and both joins read. `Err` across comparison classes;
    /// `Ok(None)` (unknown) when a side is NULL or NaN or a `TEXT` that is
    /// no date meets a `DATE`; otherwise the order: an `INTEGER` against a
    /// `DOUBLE` as `i as f64`, a `TEXT` against a `DATE` as the date it
    /// spells. The total [`Ord`] below is for sorting and grouping.
    pub fn sql_cmp(&self, other: &Value) -> Result<Option<Ordering>, Incomparable> {
        let (Some(a), Some(b)) = (self.data_type(), other.data_type()) else {
            return Ok(None);
        };
        if a.cmp_class() != b.cmp_class() {
            return Err(Incomparable(self.clone(), other.clone()));
        }
        Ok(match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            // Lets queries write `o_orderdate < '1995-03-15'`.
            (Value::Date(a), Value::Text(b)) => b.parse::<Date>().ok().map(|b| a.cmp(&b)),
            (Value::Text(a), Value::Date(b)) => a.parse::<Date>().ok().map(|a| a.cmp(b)),
            // One class, so one of the pairs above.
            _ => None,
        })
    }

    /// Rank of the type tag for the cross-type total order.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // numeric family shares a rank
            Value::Text(_) => 3,
            Value::Date(_) => 4,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b) == Ordering::Equal,
            (Value::Text(a), Value::Text(b)) => a == b,
            (Value::Date(a), Value::Date(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            // A numeric tie is broken on the type tag (`Int` first), so
            // Ord-equality implies structural `Eq`.
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b).then(Ordering::Less),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)).then(Ordering::Greater),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Text(s) => s.hash(state),
            Value::Date(d) => d.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Text(s) => f.write_str(s),
            Value::Date(d) => write!(f, "{d}"),
        }
    }
}

/// The type error of [`Value::sql_cmp`]: two values whose types lie in
/// different comparison classes, worded `cannot compare INTEGER 1 with
/// TEXT '1'`.
#[derive(Debug, Clone, PartialEq)]
pub struct Incomparable(Value, Value);

impl fmt::Display for Incomparable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let typed = |v: &Value| {
            let ty = v.data_type().map_or("NULL", DataType::name);
            match v {
                Value::Text(s) => format!("{ty} '{}'", s.replace('\'', "''")),
                v => format!("{ty} {v}"),
            }
        };
        write!(
            f,
            "cannot compare {} with {}",
            typed(&self.0),
            typed(&self.1)
        )
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn null_sorts_first_and_groups_with_itself() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Null < Value::Int(i64::MIN));
        assert_eq!(Value::Null, Value::Null);
        assert_eq!(h(&Value::Null), h(&Value::Null));
    }

    #[test]
    fn numeric_cross_type_order() {
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(0.5) < Value::Int(1));
        // Numerically equal, but tie broken by type tag: Int < Float.
        assert!(Value::Int(1) < Value::Float(1.0));
        assert_ne!(Value::Int(1), Value::Float(1.0));
    }

    #[test]
    fn sql_cmp_coerces_numerics() {
        let ord = |a: Value, b: Value| a.sql_cmp(&b);
        assert_eq!(
            ord(Value::Int(1), Value::Float(1.0)),
            Ok(Some(Ordering::Equal))
        );
        assert_eq!(
            ord(Value::Int(2), Value::Float(1.5)),
            Ok(Some(Ordering::Greater))
        );
        assert_eq!(ord(Value::Null, Value::Int(1)), Ok(None));
        assert_eq!(
            ord(Value::Float(f64::NAN), Value::Float(f64::NAN)),
            Ok(None)
        );
        let err = ord(Value::text("it's"), Value::Int(1)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "cannot compare TEXT 'it''s' with INTEGER 1"
        );
    }

    #[test]
    fn date_text_comparison() {
        let d = Value::Date("1995-03-15".parse().unwrap());
        let text = Value::text("1995-03-16");
        assert_eq!(d.sql_cmp(&text), Ok(Some(Ordering::Less)));
        assert_eq!(text.sql_cmp(&d), Ok(Some(Ordering::Greater)));
        assert_eq!(d.sql_cmp(&Value::text("not a date")), Ok(None));
    }

    #[test]
    fn float_total_order_handles_nan() {
        let nan = Value::Float(f64::NAN);
        let one = Value::Float(1.0);
        // NaN has a definite position (after +inf in total_cmp).
        assert!(nan > one);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_eq!(nan, Value::Float(f64::NAN));
    }

    #[test]
    fn negative_zero_distinct_in_total_order_consistent_hash() {
        let pz = Value::Float(0.0);
        let nz = Value::Float(-0.0);
        assert!(nz < pz);
        assert_ne!(pz, nz);
        assert_ne!(h(&pz), h(&nz));
    }

    #[test]
    fn eq_implies_same_hash() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int(42),
            Value::Float(3.25),
            Value::text("abc"),
            Value::Date(Date::from_days(9000)),
        ];
        for v in &vals {
            assert_eq!(v, &v.clone());
            assert_eq!(h(v), h(&v.clone()));
        }
    }

    #[test]
    fn large_int_precision_preserved_in_order() {
        let a = Value::Int(i64::MAX - 1);
        let b = Value::Int(i64::MAX);
        assert!(a < b); // would be equal if compared via f64
    }

    #[test]
    fn coercion() {
        assert_eq!(
            Value::Int(2).coerce_to(DataType::Float),
            Some(Value::Float(2.0))
        );
        assert_eq!(Value::Null.coerce_to(DataType::Int), Some(Value::Null));
        assert_eq!(Value::text("x").coerce_to(DataType::Int), None);
        assert!(Value::Int(1).conforms_to(DataType::Float));
        assert!(!Value::Float(1.0).conforms_to(DataType::Int));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(Value::text("hi").to_string(), "hi");
    }
}
