//! Materialized tables.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::StorageError;
use crate::schema::{Column, Schema};
use crate::value::{DataType, Value};

/// A row is an ordered list of values matching the table's schema.
pub type Row = Vec<Value>;

/// A change to one table's rows, addressed by position in the table as it
/// stood before the change: rows removed or replaced where they are, rows
/// inserted where they belong. [`Table::apply`] performs it. A DML
/// statement evaluates into one against the unmodified table, a view fold
/// splices its touched groups with one, and the write-ahead log carries
/// the same value as an edit frame that recovery applies again.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Edit {
    /// Rows removed or replaced, by strictly ascending position: `Some`
    /// replaces the row at the position, `None` removes it.
    pub changed: Vec<(usize, Option<Row>)>,
    /// Rows inserted, by ascending position: a row lands just before the
    /// row that stood at its position (at the table's length it is
    /// appended), rows for one position in the order listed.
    pub inserted: Vec<(usize, Row)>,
}

impl Edit {
    /// True when the edit names no position and no row.
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty() && self.inserted.is_empty()
    }
}

/// The keys a table property may have; `view` holds the definition of the
/// materialized view whose state the table is.
pub const PROPERTY_KEYS: [&str; 1] = ["view"];

/// A table's properties by key, in key order.
pub(crate) type Properties = BTreeMap<&'static str, String>;

/// A named, materialized, typed table.
///
/// Rows are validated (arity + type conformance, with implicit `Int`→`Float`
/// coercion) on insertion, so downstream code can assume well-typed data.
/// Named text properties travel with the table like its schema.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Row>,
    pub(crate) properties: Properties,
}

impl Table {
    /// Create an empty table. Table names are lower-cased.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into().to_ascii_lowercase(),
            schema,
            rows: Vec::new(),
            properties: Properties::new(),
        }
    }

    /// The value of property `key`, if the table carries it.
    pub fn property(&self, key: &str) -> Option<&str> {
        self.properties.get(key).map(String::as_str)
    }

    /// Set property `key` to `value`. A key outside [`PROPERTY_KEYS`] is
    /// refused as [`StorageError::Schema`] naming it.
    pub fn set_property(&mut self, key: &str, value: String) -> Result<(), StorageError> {
        let Some(key) = PROPERTY_KEYS.into_iter().find(|k| *k == key) else {
            return Err(StorageError::Schema {
                path: self.name.clone(),
                message: format!("unknown table property key {key:?}"),
            });
        };
        self.properties.insert(key, value);
        Ok(())
    }

    /// The (lower-cased) table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows, in insertion order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The row at `idx`.
    pub fn row(&self, idx: usize) -> Option<&Row> {
        self.rows.get(idx)
    }

    /// Position of a column by (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Result<usize, StorageError> {
        self.schema
            .index_of(name)
            .ok_or_else(|| StorageError::NoSuchColumn {
                table: self.name.clone(),
                column: name.to_string(),
            })
    }

    /// Validate and insert a row. `Int` values are silently widened to
    /// `Float` where the column requires it.
    pub fn insert(&mut self, mut row: Row) -> Result<(), StorageError> {
        self.conform(&mut row)?;
        self.rows.push(row);
        Ok(())
    }

    /// Check `row` against the schema (arity and types) and widen its
    /// `Int` cells in `Float` columns, in place.
    fn conform(&self, row: &mut Row) -> Result<(), StorageError> {
        if row.len() != self.schema.len() {
            return Err(StorageError::ArityMismatch {
                table: self.name.clone(),
                expected: self.schema.len(),
                got: row.len(),
            });
        }
        for (value, col) in row.iter_mut().zip(self.schema.columns()) {
            match (&*value, col.data_type()) {
                (Value::Int(i), DataType::Float) => *value = Value::Float(*i as f64),
                (Value::Null, _) => {}
                (v, ty) if v.data_type() == Some(ty) => {}
                (v, ty) => {
                    return Err(StorageError::TypeMismatch {
                        table: self.name.clone(),
                        column: col.name().to_string(),
                        expected: ty,
                        got: v.data_type().map_or("NULL", DataType::name).to_string(),
                    })
                }
            }
        }
        Ok(())
    }

    /// Perform `edit`: the one way rows change by position, in a live
    /// write and in a replay of the write-ahead log alike. The edit's rows
    /// are conformed to the schema in place first (so the caller keeps the
    /// edit as stored), and its positions are checked against the table as
    /// it stands; any violation is an error that leaves the table as it
    /// was. The work is proportional to the rows from the first position
    /// the edit names to the end, and to the edit alone when it only
    /// replaces rows.
    pub fn apply(&mut self, edit: &mut Edit) -> Result<(), StorageError> {
        self.check(edit)?;
        self.splice(edit);
        Ok(())
    }

    /// The checks of [`Table::apply`], which read the table and not write
    /// it: the positions against the table, the rows against the schema
    /// (conforming them in place).
    pub(crate) fn check(&self, edit: &mut Edit) -> Result<(), StorageError> {
        let len = self.rows.len();
        let bad = |what: String| {
            Err(StorageError::InvalidData(format!(
                "edit of table {:?} ({len} rows): {what}",
                self.name
            )))
        };
        let mut floor = None;
        for (pos, _) in &edit.changed {
            if *pos >= len || floor.is_some_and(|f| *pos <= f) {
                return bad(format!(
                    "changed position {pos} is out of range or out of order"
                ));
            }
            floor = Some(*pos);
        }
        let mut floor = 0;
        for (pos, _) in &edit.inserted {
            if *pos > len || *pos < floor {
                return bad(format!(
                    "insert position {pos} is out of range or out of order"
                ));
            }
            floor = *pos;
        }
        let replaced = edit.changed.iter_mut().filter_map(|(_, row)| row.as_mut());
        for row in replaced.chain(edit.inserted.iter_mut().map(|(_, row)| row)) {
            self.conform(row)?;
        }
        Ok(())
    }

    /// The mutation of [`Table::apply`], on an edit [`Table::check`] passed.
    pub(crate) fn splice(&mut self, edit: &Edit) {
        let len = self.rows.len();
        if edit.inserted.is_empty() && edit.changed.iter().all(|(_, row)| row.is_some()) {
            // Replacements alone: overwrite in place.
            for (pos, row) in &edit.changed {
                if let Some(row) = row {
                    self.rows[*pos].clone_from(row);
                }
            }
            return;
        }
        let firsts = [
            edit.changed.first().map(|c| c.0),
            edit.inserted.first().map(|i| i.0),
        ];
        let first = firsts.into_iter().flatten().min().unwrap_or(len);
        let tail = self.rows.split_off(first);
        let mut changed = edit.changed.iter().peekable();
        let mut inserted = edit.inserted.iter().peekable();
        for (pos, row) in (first..).zip(tail) {
            while let Some((_, new)) = inserted.next_if(|(p, _)| *p == pos) {
                self.rows.push(new.clone());
            }
            match changed.next_if(|(p, _)| *p == pos) {
                Some((_, Some(new))) => self.rows.push(new.clone()),
                Some((_, None)) => {}
                None => self.rows.push(row),
            }
        }
        self.rows.extend(inserted.map(|(_, new)| new.clone()));
    }

    /// Insert many rows, stopping at the first error.
    pub fn insert_all<I: IntoIterator<Item = Row>>(&mut self, rows: I) -> Result<(), StorageError> {
        for r in rows {
            self.insert(r)?;
        }
        Ok(())
    }

    /// Value of column `col` in row `row_idx` (panics on bad indices —
    /// callers hold validated positions).
    pub fn value(&self, row_idx: usize, col: usize) -> &Value {
        &self.rows[row_idx][col]
    }

    /// Append a new column with the given per-row values (offline schema
    /// evolution: identifier propagation adds `…idfk` columns this way).
    pub fn add_column(
        &mut self,
        column: Column,
        values: Vec<Value>,
    ) -> Result<usize, StorageError> {
        if values.len() != self.rows.len() {
            return Err(StorageError::ArityMismatch {
                table: self.name.clone(),
                expected: self.rows.len(),
                got: values.len(),
            });
        }
        let ty = column.data_type();
        let mut coerced = Vec::with_capacity(values.len());
        for v in values {
            let got = v.data_type();
            match v.coerce_to(ty) {
                Some(cv) => coerced.push(cv),
                None => {
                    return Err(StorageError::TypeMismatch {
                        table: self.name.clone(),
                        column: column.name().to_string(),
                        expected: ty,
                        got: got.map(|t| t.name().to_string()).unwrap_or("NULL".into()),
                    })
                }
            }
        }
        let idx = self.schema.push_column(column)?;
        for (row, v) in self.rows.iter_mut().zip(coerced) {
            row.push(v);
        }
        Ok(idx)
    }

    /// Overwrite the value of `column` in every row using `f(row_idx, old)`.
    pub fn update_column<F>(&mut self, column: &str, mut f: F) -> Result<(), StorageError>
    where
        F: FnMut(usize, &Value) -> Value,
    {
        let col = self.column_index(column)?;
        let ty = self
            .schema
            .column_at(col)
            .ok_or_else(|| StorageError::NoSuchColumn {
                table: self.name.clone(),
                column: column.to_string(),
            })?
            .data_type();
        for (i, row) in self.rows.iter_mut().enumerate() {
            let new = f(i, &row[col]);
            match new.coerce_to(ty) {
                Some(v) => row[col] = v,
                None => {
                    return Err(StorageError::TypeMismatch {
                        table: self.name.clone(),
                        column: column.to_string(),
                        expected: ty,
                        got: "incompatible value".into(),
                    })
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} {} [{} rows]",
            self.name,
            self.schema,
            self.rows.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn people() -> Table {
        let schema =
            Schema::from_pairs([("name", DataType::Text), ("age", DataType::Int)]).unwrap();
        Table::new("People", schema)
    }

    #[test]
    fn insert_validates_arity_and_types() {
        let mut t = people();
        t.insert(vec!["ann".into(), 31.into()]).unwrap();
        assert_eq!(t.len(), 1);

        let err = t.insert(vec!["bob".into()]).unwrap_err();
        assert!(matches!(
            err,
            StorageError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            }
        ));

        let err = t.insert(vec![Value::Int(3), Value::Int(4)]).unwrap_err();
        assert!(matches!(&err, StorageError::TypeMismatch { got, .. } if got == "INTEGER"));
        assert_eq!(
            err.to_string(),
            "type mismatch for people.name: expected TEXT, got INTEGER"
        );
    }

    #[test]
    fn int_widens_to_float_column() {
        let schema = Schema::from_pairs([("prob", DataType::Float)]).unwrap();
        let mut t = Table::new("p", schema);
        t.insert(vec![Value::Int(1)]).unwrap();
        assert_eq!(t.value(0, 0), &Value::Float(1.0));
    }

    #[test]
    fn nulls_conform_to_any_type() {
        let mut t = people();
        t.insert(vec![Value::Null, Value::Null]).unwrap();
        assert!(t.value(0, 0).is_null());
    }

    #[test]
    fn name_lowercased() {
        assert_eq!(people().name(), "people");
    }

    #[test]
    fn add_column_extends_rows() {
        let mut t = people();
        t.insert(vec!["ann".into(), 31.into()]).unwrap();
        t.insert(vec!["bob".into(), 40.into()]).unwrap();
        let idx = t
            .add_column(
                Column::new("prob", DataType::Float),
                vec![0.4.into(), 0.6.into()],
            )
            .unwrap();
        assert_eq!(idx, 2);
        assert_eq!(t.value(1, 2), &Value::Float(0.6));
        // wrong arity rejected
        let err = t
            .add_column(Column::new("x", DataType::Int), vec![Value::Int(1)])
            .unwrap_err();
        assert!(matches!(err, StorageError::ArityMismatch { .. }));
    }

    #[test]
    fn update_column_rewrites_values() {
        let mut t = people();
        t.insert(vec!["ann".into(), 31.into()]).unwrap();
        t.update_column("age", |_, v| Value::Int(v.as_i64().unwrap() + 1))
            .unwrap();
        assert_eq!(t.value(0, 1), &Value::Int(32));
    }

    fn ints(t: &Table) -> Vec<i64> {
        t.rows().iter().map(|r| r[0].as_i64().unwrap()).collect()
    }

    fn numbers(values: &[i64]) -> Table {
        let mut t = Table::new("n", Schema::from_pairs([("v", DataType::Int)]).unwrap());
        t.insert_all(values.iter().map(|v| vec![Value::Int(*v)]))
            .unwrap();
        t
    }

    #[test]
    fn apply_splices_by_position_in_the_table_as_it_stood() {
        let mut t = numbers(&[0, 10, 20, 30, 40]);
        let mut edit = Edit {
            changed: vec![(1, None), (2, Some(vec![Value::Int(21)])), (4, None)],
            inserted: vec![
                (0, vec![Value::Int(-1)]),
                (2, vec![Value::Int(15)]),
                (2, vec![Value::Int(16)]),
                (5, vec![Value::Int(50)]),
            ],
        };
        t.apply(&mut edit).unwrap();
        assert_eq!(ints(&t), [-1, 0, 15, 16, 21, 30, 50]);
        // Replacements alone overwrite in place; appends alone push.
        t.apply(&mut Edit {
            changed: vec![(0, Some(vec![Value::Int(-2)]))],
            ..Edit::default()
        })
        .unwrap();
        t.apply(&mut Edit {
            inserted: vec![(7, vec![Value::Int(60)])],
            ..Edit::default()
        })
        .unwrap();
        assert_eq!(ints(&t), [-2, 0, 15, 16, 21, 30, 50, 60]);
    }

    #[test]
    fn apply_conforms_the_edit_and_refuses_a_bad_one_whole() {
        let schema = Schema::from_pairs([("p", DataType::Float)]).unwrap();
        let mut t = Table::new("p", schema);
        let mut edit = Edit {
            inserted: vec![(0, vec![Value::Int(1)])],
            ..Edit::default()
        };
        t.apply(&mut edit).unwrap();
        // The caller keeps the edit as stored: INTEGER 1 became 1.0.
        assert_eq!(edit.inserted[0].1, [Value::Float(1.0)]);
        assert_eq!(t.rows(), [vec![Value::Float(1.0)]]);

        let mut t = numbers(&[0, 10]);
        for bad in [
            Edit {
                changed: vec![(2, None)],
                ..Edit::default()
            },
            Edit {
                changed: vec![(1, None), (0, None)],
                ..Edit::default()
            },
            Edit {
                changed: vec![(1, None), (1, None)],
                ..Edit::default()
            },
            Edit {
                inserted: vec![(3, vec![Value::Int(1)])],
                ..Edit::default()
            },
            Edit {
                inserted: vec![(1, vec![Value::Int(1)]), (0, vec![Value::Int(2)])],
                ..Edit::default()
            },
            Edit {
                changed: vec![(0, None)],
                inserted: vec![(1, vec![Value::text("x")])],
            },
            Edit {
                changed: vec![(0, Some(vec![]))],
                ..Edit::default()
            },
        ] {
            let mut bad = bad;
            assert!(t.apply(&mut bad).is_err(), "{bad:?}");
            assert_eq!(ints(&t), [0, 10], "{bad:?} changed the table");
        }
    }
}
