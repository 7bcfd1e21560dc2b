//! Materialized tables.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::error::StorageError;
use crate::schema::{Column, Schema};
use crate::value::{DataType, Value};

/// A row being built or returned (a query result, an answer): an ordered
/// list of values matching a schema.
pub type Row = Vec<Value>;

/// A row as a [`Table`] holds it: one allocation that is never written
/// to. A table clone shares it by bumping its reference count, so two
/// versions of a table share every row neither of them replaced.
pub type SharedRow = Arc<[Value]>;

/// A change to one table's rows, addressed by position in the table as it
/// stood before the change: rows removed or replaced where they are, rows
/// inserted where they belong. [`Table::apply`] performs it. A DML
/// statement evaluates into one against the unmodified table, a view fold
/// splices its touched groups with one, and the write-ahead log carries
/// the same value as an edit frame that recovery applies again. The
/// table, the catalog's record of the edit and the log's encoder all hold
/// the edit's rows, not copies of them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Edit {
    /// Rows removed or replaced, by strictly ascending position: `Some`
    /// replaces the row at the position, `None` removes it.
    pub changed: Vec<(usize, Option<SharedRow>)>,
    /// Rows inserted, by ascending position: a row lands just before the
    /// row that stood at its position (at the table's length it is
    /// appended), rows for one position in the order listed.
    pub inserted: Vec<(usize, SharedRow)>,
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
///
/// The table holds [`SharedRow`]s: a clone copies one pointer per row and
/// no cell, and a clone that is then edited allocates only the rows the
/// edit names. Safe code cannot write through a shared row, so an edit of
/// one version never shows in another.
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<SharedRow>,
    /// The rows as owned vectors, built by the first [`Table::rows`] call
    /// and dropped by the next write.
    owned: OnceLock<Vec<Row>>,
    pub(crate) properties: Properties,
}

/// A clone shares every row and none of the owned copy.
impl Clone for Table {
    fn clone(&self) -> Table {
        self.clone_as(self.name.clone())
    }
}

impl Table {
    /// Create an empty table. Table names are lower-cased.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into().to_ascii_lowercase(),
            schema,
            rows: Vec::new(),
            owned: OnceLock::new(),
            properties: Properties::new(),
        }
    }

    /// This table under another name, sharing every row with it: no row
    /// is copied or checked again.
    pub fn clone_as(&self, name: impl Into<String>) -> Table {
        Table {
            name: name.into().to_ascii_lowercase(),
            schema: self.schema.clone(),
            rows: self.rows.clone(),
            owned: OnceLock::new(),
            properties: self.properties.clone(),
        }
    }

    /// The rows, to be written: drops the owned copy [`Table::rows`] built.
    fn rows_mut(&mut self) -> &mut Vec<SharedRow> {
        self.owned = OnceLock::new();
        &mut self.rows
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

    /// All rows, in insertion order, as the table holds them.
    pub fn shared_rows(&self) -> &[SharedRow] {
        &self.rows
    }

    /// All rows, in insertion order, as owned vectors. The first call on a
    /// table copies every row and keeps the copy until the table is
    /// written; the engine reads [`Table::shared_rows`], which copies
    /// nothing.
    pub fn rows(&self) -> &[Row] {
        self.owned
            .get_or_init(|| self.rows.iter().map(|r| r.to_vec()).collect())
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
    pub fn insert(&mut self, row: impl Into<SharedRow>) -> Result<(), StorageError> {
        let mut row = row.into();
        self.conform(&mut row)?;
        self.rows_mut().push(row);
        Ok(())
    }

    /// Check `row` against the schema (arity and types) and widen its
    /// `Int` cells in `Float` columns. A row that needs no widening is
    /// not written to.
    fn conform(&self, row: &mut SharedRow) -> Result<(), StorageError> {
        if row.len() != self.schema.len() {
            return Err(StorageError::ArityMismatch {
                table: self.name.clone(),
                expected: self.schema.len(),
                got: row.len(),
            });
        }
        let mut widen = false;
        for (value, col) in row.iter().zip(self.schema.columns()) {
            match (value, col.data_type()) {
                (Value::Int(_), DataType::Float) => widen = true,
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
        if widen {
            for (value, col) in Arc::make_mut(row).iter_mut().zip(self.schema.columns()) {
                if let (Value::Int(i), DataType::Float) = (&*value, col.data_type()) {
                    *value = Value::Float(*i as f64);
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
    /// The table takes the edit's rows as they are, each shared and not
    /// copied, and drops a replaced row without writing to it.
    pub(crate) fn splice(&mut self, edit: &Edit) {
        let rows = self.rows_mut();
        let len = rows.len();
        if edit.inserted.is_empty() && edit.changed.iter().all(|(_, row)| row.is_some()) {
            // Replacements alone: swap the rows in place.
            for (pos, row) in &edit.changed {
                if let Some(row) = row {
                    rows[*pos] = row.clone();
                }
            }
            return;
        }
        let firsts = [
            edit.changed.first().map(|c| c.0),
            edit.inserted.first().map(|i| i.0),
        ];
        let first = firsts.into_iter().flatten().min().unwrap_or(len);
        let tail = rows.split_off(first);
        let mut changed = edit.changed.iter().peekable();
        let mut inserted = edit.inserted.iter().peekable();
        for (pos, row) in (first..).zip(tail) {
            while let Some((_, new)) = inserted.next_if(|(p, _)| *p == pos) {
                rows.push(new.clone());
            }
            match changed.next_if(|(p, _)| *p == pos) {
                Some((_, Some(new))) => rows.push(new.clone()),
                Some((_, None)) => {}
                None => rows.push(row),
            }
        }
        rows.extend(inserted.map(|(_, new)| new.clone()));
    }

    /// Insert many rows, stopping at the first error.
    pub fn insert_all<I>(&mut self, rows: I) -> Result<(), StorageError>
    where
        I: IntoIterator,
        I::Item: Into<SharedRow>,
    {
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
    /// Each row is rebuilt once, wider; the cells of a row no other table
    /// version shares are moved into it, not copied.
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
        for (row, v) in self.rows_mut().iter_mut().zip(coerced) {
            *row = match Arc::get_mut(row) {
                Some(cells) => cells
                    .iter_mut()
                    .map(|c| std::mem::replace(c, Value::Null))
                    .chain(Some(v))
                    .collect(),
                None => row.iter().cloned().chain(Some(v)).collect(),
            };
        }
        Ok(idx)
    }

    /// Overwrite the value of `column` in every row using `f(row_idx, old)`.
    /// A row another table version shares is copied before it is written.
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
        for (i, row) in self.rows_mut().iter_mut().enumerate() {
            let new = f(i, &row[col]);
            match new.coerce_to(ty) {
                Some(v) => Arc::make_mut(row)[col] = v,
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

    #[test]
    fn a_clone_shares_rows_and_the_owned_rows_follow_every_write() {
        let row = |cells: &[Value]| vec![cells.to_vec()];
        let mut t = people();
        t.insert(vec!["ann".into(), 31.into()]).unwrap();
        assert_eq!(t.rows(), row(&["ann".into(), 31.into()]));
        let copy = t.clone();
        assert!(Arc::ptr_eq(&t.shared_rows()[0], &copy.shared_rows()[0]));
        t.update_column("age", |_, _| Value::Int(32)).unwrap();
        assert_eq!(t.rows(), row(&["ann".into(), 32.into()]));
        assert_eq!(copy.rows(), row(&["ann".into(), 31.into()]));
        t.add_column(Column::new("p", DataType::Float), vec![Value::Int(1)])
            .unwrap();
        assert_eq!(t.rows(), row(&["ann".into(), 32.into(), 1.0.into()]));
        let bob: SharedRow = vec!["bob".into(), 40.into(), 0.5.into()].into();
        let mut edit = Edit {
            changed: vec![(0, Some(bob.clone()))],
            ..Edit::default()
        };
        t.apply(&mut edit).unwrap();
        assert_eq!(t.rows(), row(&bob));
        assert!(Arc::ptr_eq(&t.shared_rows()[0], &bob));
        assert_eq!(copy.rows(), row(&["ann".into(), 31.into()]));
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
            changed: vec![(1, None), (2, Some(vec![Value::Int(21)].into())), (4, None)],
            inserted: vec![
                (0, vec![Value::Int(-1)].into()),
                (2, vec![Value::Int(15)].into()),
                (2, vec![Value::Int(16)].into()),
                (5, vec![Value::Int(50)].into()),
            ],
        };
        t.apply(&mut edit).unwrap();
        assert_eq!(ints(&t), [-1, 0, 15, 16, 21, 30, 50]);
        // Replacements alone overwrite in place; appends alone push.
        t.apply(&mut Edit {
            changed: vec![(0, Some(vec![Value::Int(-2)].into()))],
            ..Edit::default()
        })
        .unwrap();
        t.apply(&mut Edit {
            inserted: vec![(7, vec![Value::Int(60)].into())],
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
            inserted: vec![(0, vec![Value::Int(1)].into())],
            ..Edit::default()
        };
        t.apply(&mut edit).unwrap();
        // The caller keeps the edit as stored: INTEGER 1 became 1.0.
        assert_eq!(edit.inserted[0].1, [Value::Float(1.0)].into());
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
                inserted: vec![(3, vec![Value::Int(1)].into())],
                ..Edit::default()
            },
            Edit {
                inserted: vec![
                    (1, vec![Value::Int(1)].into()),
                    (0, vec![Value::Int(2)].into()),
                ],
                ..Edit::default()
            },
            Edit {
                changed: vec![(0, None)],
                inserted: vec![(1, vec![Value::text("x")].into())],
            },
            Edit {
                changed: vec![(0, Some(vec![].into()))],
                ..Edit::default()
            },
        ] {
            let mut bad = bad;
            assert!(t.apply(&mut bad).is_err(), "{bad:?}");
            assert_eq!(ints(&t), [0, 10], "{bad:?} changed the table");
        }
    }
}
