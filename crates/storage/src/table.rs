//! Materialized tables.

use std::fmt;

use crate::error::StorageError;
use crate::schema::{Column, Schema};
use crate::value::Value;

/// A row is an ordered list of values matching the table's schema.
pub type Row = Vec<Value>;

/// A named, materialized, typed table.
///
/// Rows are validated (arity + type conformance, with implicit `Int`→`Float`
/// coercion) on insertion, so downstream code can assume well-typed data.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Row>,
}

impl Table {
    /// Create an empty table. Table names are lower-cased.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into().to_ascii_lowercase(),
            schema,
            rows: Vec::new(),
        }
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
    pub fn insert(&mut self, row: Row) -> Result<(), StorageError> {
        if row.len() != self.schema.len() {
            return Err(StorageError::ArityMismatch {
                table: self.name.clone(),
                expected: self.schema.len(),
                got: row.len(),
            });
        }
        let mut out = Vec::with_capacity(row.len());
        for (value, col) in row.into_iter().zip(self.schema.columns()) {
            let got = value.data_type();
            match value.coerce_to(col.data_type()) {
                Some(v) => out.push(v),
                None => {
                    return Err(StorageError::TypeMismatch {
                        table: self.name.clone(),
                        column: col.name().to_string(),
                        expected: col.data_type(),
                        got: got.map(|t| t.name().to_string()).unwrap_or("NULL".into()),
                    })
                }
            }
        }
        self.rows.push(out);
        Ok(())
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

    /// Apply in-place cell updates: `f` returns `(column, new value)`
    /// pairs for each row it wants to change (or `None` to leave the row).
    /// New values are validated against the schema (with `Int`→`Float`
    /// coercion). Returns the number of rows changed.
    pub fn transform_rows<F>(&mut self, mut f: F) -> Result<usize, StorageError>
    where
        F: FnMut(usize, &Row) -> Option<Vec<(usize, Value)>>,
    {
        let mut changed = 0;
        for i in 0..self.rows.len() {
            let Some(updates) = f(i, &self.rows[i]) else {
                continue;
            };
            if updates.is_empty() {
                continue;
            }
            // Validate (and coerce) all updates before applying any, so the
            // row stays consistent on error.
            let mut coerced = Vec::with_capacity(updates.len());
            for (col, v) in updates {
                let column =
                    self.schema
                        .column_at(col)
                        .ok_or_else(|| StorageError::NoSuchColumn {
                            table: self.name.clone(),
                            column: format!("#{col}"),
                        })?;
                let ty = column.data_type();
                let got = v.data_type();
                match v.coerce_to(ty) {
                    Some(cv) => coerced.push((col, cv)),
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
            for (col, v) in coerced {
                self.rows[i][col] = v;
            }
            changed += 1;
        }
        Ok(changed)
    }

    /// Retain only rows matching the predicate (row index, row).
    pub fn retain<F: FnMut(usize, &Row) -> bool>(&mut self, mut f: F) {
        let mut i = 0;
        self.rows.retain(|r| {
            let keep = f(i, r);
            i += 1;
            keep
        });
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
    fn retain_filters_rows() {
        let mut t = people();
        t.insert(vec!["ann".into(), 31.into()]).unwrap();
        t.insert(vec!["bob".into(), 40.into()]).unwrap();
        t.retain(|_, r| r[1].as_i64().unwrap() > 35);
        assert_eq!(t.len(), 1);
        assert_eq!(t.value(0, 0), &Value::text("bob"));
    }
}
