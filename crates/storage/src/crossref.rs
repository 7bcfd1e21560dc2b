//! Cross-reference ingestion at the catalog level (Section 2.1 of the
//! paper).
//!
//! External duplicate-detection tools (the paper names WebSphere
//! QualityStage) emit *cross-reference tables* mapping each tuple's
//! original key to the identifier of the duplicate cluster it belongs to.
//! [`resolve_crossref`] reads such a mapping against a dirty relation: the
//! cluster identifier of every row, from the mapping of its original key.
//! The engine's `APPLY CROSSREF` statement plans its change from it and
//! writes the identifier column like any other DML, so the maintained
//! views and the write-ahead log see it, turning the matcher's output
//! into the identifier-column form the rest of the system consumes.
//!
//! The logic lives here so the query engine can resolve the mapping
//! without depending on the core crate — the dependency arrow points the
//! other way.

use std::collections::HashMap;

use crate::catalog::Catalog;
use crate::error::StorageError;
use crate::value::Value;

/// Resolve a cross-reference table against a dirty relation without
/// changing anything: the cluster identifier of every row of `table`, in
/// row order, and the number of distinct clusters among them.
///
/// * `table.key_column` — the relation's original (per-tuple) key;
/// * `xref.key/xref.id` — the matcher's mapping `original key → cluster id`.
///
/// Every key of `table` must be mapped (a matcher that has seen the
/// relation maps all of it); unmapped keys are an error naming the first
/// offender. Duplicate mappings with conflicting ids are rejected.
pub fn resolve_crossref(
    catalog: &Catalog,
    table: &str,
    key_column: &str,
    xref_table: &str,
    xref_key_column: &str,
    xref_id_column: &str,
) -> Result<(Vec<Value>, usize), StorageError> {
    let xref = catalog.table(xref_table)?;
    let kcol = xref.column_index(xref_key_column)?;
    let icol = xref.column_index(xref_id_column)?;
    let mut mapping: HashMap<Value, Value> = HashMap::with_capacity(xref.len());
    for (i, row) in xref.shared_rows().iter().enumerate() {
        let key = row[kcol].clone();
        if key.is_null() {
            return Err(StorageError::InvalidData(format!(
                "cross-reference table {xref_table:?} has a NULL key in row {i}"
            )));
        }
        let id = row[icol].clone();
        if let Some(prev) = mapping.insert(key.clone(), id.clone()) {
            if prev != id {
                return Err(StorageError::InvalidData(format!(
                    "cross-reference maps key {key} to both {prev} and {id}"
                )));
            }
        }
    }

    let t = catalog.table(table)?;
    let kcol = t.column_index(key_column)?;
    let ids: Vec<Value> = t
        .shared_rows()
        .iter()
        .enumerate()
        .map(|(i, row)| {
            mapping.get(&row[kcol]).cloned().ok_or_else(|| {
                StorageError::InvalidData(format!(
                    "key {} of {table:?} (row {i}) is not in the cross-reference table",
                    row[kcol]
                ))
            })
        })
        .collect::<Result<_, StorageError>>()?;
    let distinct: std::collections::HashSet<&Value> = ids.iter().collect();
    let count = distinct.len();
    Ok((ids, count))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::table::Table;
    use crate::value::DataType;

    fn setup() -> Catalog {
        let mut cat = Catalog::new();
        let mut customer = Table::new(
            "customer",
            Schema::from_pairs([
                ("id", DataType::Text),
                ("custkey", DataType::Int),
                ("name", DataType::Text),
            ])
            .unwrap(),
        );
        for (key, name) in [(101, "ann"), (102, "anne"), (103, "bob")] {
            customer
                .insert(vec![Value::text(""), Value::Int(key), Value::text(name)])
                .unwrap();
        }
        let mut xref = Table::new(
            "xref",
            Schema::from_pairs([("orig", DataType::Int), ("cluster", DataType::Text)]).unwrap(),
        );
        for (key, cluster) in [(101, "c1"), (102, "c1"), (103, "c2")] {
            xref.insert(vec![Value::Int(key), Value::text(cluster)])
                .unwrap();
        }
        cat.add_table(customer).unwrap();
        cat.add_table(xref).unwrap();
        cat
    }

    /// The cluster identifiers `resolve_crossref` assigns to `customer`.
    fn resolve(cat: &Catalog) -> Result<(Vec<Value>, usize), StorageError> {
        resolve_crossref(cat, "customer", "custkey", "xref", "orig", "cluster")
    }

    #[test]
    fn assigns_cluster_identifiers() {
        let (ids, clusters) = resolve(&setup()).unwrap();
        assert_eq!(clusters, 2);
        let ids: Vec<String> = ids.iter().map(Value::to_string).collect();
        assert_eq!(ids, vec!["c1", "c1", "c2"]);
    }

    #[test]
    fn unmapped_key_is_invalid_data() {
        let mut cat = setup();
        cat.table_mut("customer")
            .unwrap()
            .insert(vec![Value::text(""), Value::Int(999), Value::text("zed")])
            .unwrap();
        let err = resolve(&cat).unwrap_err();
        assert!(matches!(err, StorageError::InvalidData(_)), "{err}");
        assert!(err.to_string().contains("999"), "{err}");
    }

    #[test]
    fn duplicate_consistent_mapping_allowed() {
        let mut cat = setup();
        cat.table_mut("xref")
            .unwrap()
            .insert(vec![Value::Int(101), Value::text("c1")])
            .unwrap();
        assert_eq!(resolve(&cat).unwrap().1, 2);
    }

    #[test]
    fn conflicting_mapping_is_invalid_data() {
        let mut cat = setup();
        cat.table_mut("xref")
            .unwrap()
            .insert(vec![Value::Int(101), Value::text("c9")])
            .unwrap();
        let err = resolve(&cat).unwrap_err();
        assert!(err.to_string().contains("both"), "{err}");
    }
}
