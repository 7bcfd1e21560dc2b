//! Identifier propagation (Section 2.1).
//!
//! After tuple matching assigns cluster identifiers to a parent relation,
//! every foreign key referencing it must be updated to refer to the
//! identifiers. The paper describes two styles, both supported here:
//!
//! * [`propagate_new_column`] — add a new column (the paper's `cidfk` in
//!   Figure 2) holding the parent identifier for each child row, keeping the
//!   original foreign key;
//! * [`propagate_in_place`] — overwrite the foreign key values with the
//!   identifiers (the style used in the paper's experiments, Section 5.3:
//!   "the approach that replaces the values of the original keys of the
//!   relations with the identifier selected by the tuple matching tool").

use std::collections::HashMap;

use conquer_storage::{Catalog, Column, DataType, Value};

use crate::error::CoreError;
use crate::Result;

/// Build the `original key → cluster identifier` mapping from a parent
/// table. Fails if one key maps to two identifiers (the matcher's output
/// would be inconsistent).
fn key_to_id_map(
    catalog: &Catalog,
    parent: &str,
    parent_key: &str,
    parent_id: &str,
) -> Result<HashMap<Value, Value>> {
    let table = catalog.table(parent)?;
    let key_col = table.column_index(parent_key)?;
    let id_col = table.column_index(parent_id)?;
    let mut map = HashMap::with_capacity(table.len());
    for row in table.shared_rows() {
        let key = row[key_col].clone();
        let id = row[id_col].clone();
        if key.is_null() {
            continue;
        }
        if let Some(prev) = map.insert(key.clone(), id.clone()) {
            if prev != id {
                return Err(CoreError::InvalidDirty(format!(
                    "key {key} of {parent:?} maps to two identifiers ({prev} and {id})"
                )));
            }
        }
    }
    Ok(map)
}

/// Identifier data type of the parent's id column (for the new column).
fn id_type(catalog: &Catalog, parent: &str, parent_id: &str) -> Result<DataType> {
    let table = catalog.table(parent)?;
    let col = table.column_index(parent_id)?;
    Ok(table
        .schema()
        .column_at(col)
        .ok_or_else(|| {
            conquer_engine::EngineError::internal(format!(
                "column {parent}.{parent_id} resolved to index {col} but has no schema entry"
            ))
        })?
        .data_type())
}

/// Add `new_column` to `child`, holding the parent identifier referenced by
/// `child_fk` (NULL when the foreign key has no match — dangling references
/// are reported by the returned count of unmatched rows).
pub fn propagate_new_column(
    catalog: &mut Catalog,
    parent: &str,
    parent_key: &str,
    parent_id: &str,
    child: &str,
    child_fk: &str,
    new_column: &str,
) -> Result<usize> {
    let map = key_to_id_map(catalog, parent, parent_key, parent_id)?;
    let ty = id_type(catalog, parent, parent_id)?;
    let child_table = catalog.table(child)?;
    let fk_col = child_table.column_index(child_fk)?;
    let mut unmatched = 0usize;
    let values: Vec<Value> = child_table
        .shared_rows()
        .iter()
        .map(|row| match map.get(&row[fk_col]) {
            Some(id) => id.clone(),
            None => {
                unmatched += 1;
                Value::Null
            }
        })
        .collect();
    catalog
        .table_mut(child)?
        .add_column(Column::new(new_column, ty), values)
        .map_err(CoreError::from)?;
    Ok(unmatched)
}

/// Overwrite `child_fk` in place with the parent identifiers. Unmatched
/// foreign keys are left untouched; their count is returned.
pub fn propagate_in_place(
    catalog: &mut Catalog,
    parent: &str,
    parent_key: &str,
    parent_id: &str,
    child: &str,
    child_fk: &str,
) -> Result<usize> {
    let map = key_to_id_map(catalog, parent, parent_key, parent_id)?;
    let mut unmatched = 0usize;
    catalog
        .table_mut(child)?
        .update_column(child_fk, |_, old| match map.get(old) {
            Some(id) => id.clone(),
            None => {
                unmatched += 1;
                old.clone()
            }
        })?;
    Ok(unmatched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use conquer_engine::Database;

    /// Parent `customer` with original keys m1..m4 clustered into c1/c2,
    /// child `orders` referencing the original keys (pre-propagation
    /// Figure 2).
    fn setup() -> Catalog {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE customer (id TEXT, custid TEXT, name TEXT, prob DOUBLE);
             INSERT INTO customer VALUES
               ('c1', 'm1', 'John', 0.7), ('c1', 'm2', 'John', 0.3),
               ('c2', 'm3', 'Mary', 0.2), ('c2', 'm4', 'Marion', 0.8);
             CREATE TABLE orders (id TEXT, custfk TEXT, quantity INTEGER, prob DOUBLE);
             INSERT INTO orders VALUES
               ('o1', 'm1', 3, 1.0), ('o2', 'm2', 2, 0.5), ('o2', 'm3', 5, 0.5);",
        )
        .unwrap();
        db.catalog().clone()
    }

    #[test]
    fn new_column_propagation_matches_figure2() {
        let mut cat = setup();
        let unmatched = propagate_new_column(
            &mut cat, "customer", "custid", "id", "orders", "custfk", "cidfk",
        )
        .unwrap();
        assert_eq!(unmatched, 0);
        let orders = cat.table("orders").unwrap();
        let cid = orders.column_index("cidfk").unwrap();
        let got: Vec<String> = orders.rows().iter().map(|r| r[cid].to_string()).collect();
        assert_eq!(got, vec!["c1", "c1", "c2"]); // exactly Figure 2's cidfk
    }

    #[test]
    fn in_place_propagation_rewrites_fk() {
        let mut cat = setup();
        let unmatched =
            propagate_in_place(&mut cat, "customer", "custid", "id", "orders", "custfk").unwrap();
        assert_eq!(unmatched, 0);
        let orders = cat.table("orders").unwrap();
        let fk = orders.column_index("custfk").unwrap();
        let got: Vec<String> = orders.rows().iter().map(|r| r[fk].to_string()).collect();
        assert_eq!(got, vec!["c1", "c1", "c2"]);
    }

    #[test]
    fn dangling_fk_counted() {
        let mut cat = setup();
        cat.table_mut("orders")
            .unwrap()
            .insert(vec!["o3".into(), "m9".into(), 1.into(), 1.0.into()])
            .unwrap();
        let unmatched = propagate_new_column(
            &mut cat, "customer", "custid", "id", "orders", "custfk", "cidfk",
        )
        .unwrap();
        assert_eq!(unmatched, 1);
        let orders = cat.table("orders").unwrap();
        let cid = orders.column_index("cidfk").unwrap();
        assert!(orders.rows()[3][cid].is_null());
    }

    #[test]
    fn inconsistent_matcher_output_rejected() {
        let mut cat = setup();
        // Same original key m1 assigned to two clusters.
        cat.table_mut("customer")
            .unwrap()
            .insert(vec!["c9".into(), "m1".into(), "Johnny".into(), 1.0.into()])
            .unwrap();
        let err = propagate_new_column(
            &mut cat, "customer", "custid", "id", "orders", "custfk", "cidfk",
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidDirty(_)));
    }
}
