//! Dirty-database metadata: which columns carry cluster identifiers and
//! tuple probabilities.

use std::collections::BTreeMap;

use conquer_storage::{Catalog, DataType};

use crate::error::CoreError;
use crate::Result;

/// Default name of the identifier column (the paper's examples use `id`).
pub const DEFAULT_ID_COLUMN: &str = "id";
/// Default name of the probability column (the paper's `prob`).
pub const DEFAULT_PROB_COLUMN: &str = "prob";

/// Tolerance when checking that cluster probabilities sum to 1.
pub const PROB_SUM_EPSILON: f64 = 1e-6;

/// Per-relation dirty metadata: the identifier column produced by the tuple
/// matcher and the probability column (Section 2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyTableMeta {
    /// Column whose shared values define the clustering.
    pub id_column: String,
    /// Column holding each tuple's probability of being in the clean
    /// database; must sum to 1 within each cluster.
    pub prob_column: String,
}

impl Default for DirtyTableMeta {
    fn default() -> Self {
        DirtyTableMeta {
            id_column: DEFAULT_ID_COLUMN.to_string(),
            prob_column: DEFAULT_PROB_COLUMN.to_string(),
        }
    }
}

impl DirtyTableMeta {
    /// Metadata with explicit column names.
    pub fn new(id_column: impl Into<String>, prob_column: impl Into<String>) -> Self {
        DirtyTableMeta {
            id_column: id_column.into().to_ascii_lowercase(),
            prob_column: prob_column.into().to_ascii_lowercase(),
        }
    }
}

/// Dirty metadata for every relation of a database.
///
/// Every relation referenced by a clean-answer query must have an entry; a
/// *clean* relation is simply one whose clusters are singletons with
/// probability 1 (the paper treats clean tuples the same way).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtySpec {
    tables: BTreeMap<String, DirtyTableMeta>,
}

impl DirtySpec {
    /// An empty spec.
    pub fn new() -> Self {
        DirtySpec::default()
    }

    /// A spec using the default `id`/`prob` column names for each listed
    /// table.
    pub fn uniform(tables: &[&str]) -> Self {
        let mut spec = DirtySpec::new();
        for t in tables {
            spec.add(*t, DirtyTableMeta::default());
        }
        spec
    }

    /// Register (or replace) a table's metadata.
    pub fn add(&mut self, table: impl Into<String>, meta: DirtyTableMeta) -> &mut Self {
        self.tables.insert(table.into().to_ascii_lowercase(), meta);
        self
    }

    /// Builder-style [`DirtySpec::add`].
    pub fn with(mut self, table: impl Into<String>, meta: DirtyTableMeta) -> Self {
        self.add(table, meta);
        self
    }

    /// Metadata for a table, if registered.
    pub fn meta(&self, table: &str) -> Option<&DirtyTableMeta> {
        self.tables.get(&table.to_ascii_lowercase())
    }

    /// Metadata for a table, as a hard requirement.
    pub fn require(&self, table: &str) -> Result<&DirtyTableMeta> {
        self.meta(table).ok_or_else(|| {
            CoreError::InvalidDirty(format!(
                "table {table:?} has no identifier/probability metadata in the DirtySpec"
            ))
        })
    }

    /// Registered table names (sorted).
    pub fn tables(&self) -> impl Iterator<Item = (&str, &DirtyTableMeta)> {
        self.tables.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Validate a catalog against this spec (Definition 2):
    ///
    /// * every registered table exists and has the id/prob columns,
    /// * the probability column is numeric,
    /// * every probability lies in `[0, 1]`,
    /// * probabilities within each cluster sum to 1 (±[`PROB_SUM_EPSILON`]).
    pub fn validate(&self, catalog: &Catalog) -> Result<()> {
        for (name, meta) in &self.tables {
            let table = catalog.table(name)?;
            let id_col = table.column_index(&meta.id_column)?;
            let prob_col = table.column_index(&meta.prob_column)?;
            let prob_ty = table
                .schema()
                .column_at(prob_col)
                .ok_or_else(|| {
                    conquer_engine::EngineError::internal(format!(
                        "column {name}.{} resolved to index {prob_col} but has no schema entry",
                        meta.prob_column
                    ))
                })?
                .data_type();
            if !matches!(prob_ty, DataType::Float | DataType::Int) {
                return Err(CoreError::InvalidDirty(format!(
                    "{name}.{} must be numeric, found {prob_ty}",
                    meta.prob_column
                )));
            }
            let mut sums: BTreeMap<String, f64> = BTreeMap::new();
            for (i, row) in table.shared_rows().iter().enumerate() {
                let p = row[prob_col].as_f64().ok_or_else(|| {
                    CoreError::InvalidDirty(format!(
                        "{name}.{} is NULL or non-numeric in row {i}",
                        meta.prob_column
                    ))
                })?;
                if !(0.0..=1.0 + PROB_SUM_EPSILON).contains(&p) {
                    return Err(CoreError::InvalidDirty(format!(
                        "{name}.{} = {p} in row {i} is outside [0, 1]",
                        meta.prob_column
                    )));
                }
                if row[id_col].is_null() {
                    return Err(CoreError::InvalidDirty(format!(
                        "{name}.{} is NULL in row {i}; every tuple needs a cluster identifier",
                        meta.id_column
                    )));
                }
                *sums.entry(row[id_col].to_string()).or_insert(0.0) += p;
            }
            for (cluster, sum) in sums {
                if (sum - 1.0).abs() > PROB_SUM_EPSILON {
                    return Err(CoreError::InvalidDirty(format!(
                        "probabilities of cluster {cluster:?} in table {name:?} sum to {sum}, \
                         expected 1"
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conquer_storage::{Schema, Table, Value};

    fn catalog(probs: &[(&str, f64)]) -> Catalog {
        let mut cat = Catalog::new();
        let mut t = Table::new(
            "customer",
            Schema::from_pairs([("id", DataType::Text), ("prob", DataType::Float)]).unwrap(),
        );
        for (id, p) in probs {
            t.insert(vec![Value::text(*id), Value::Float(*p)]).unwrap();
        }
        cat.add_table(t).unwrap();
        cat
    }

    #[test]
    fn valid_spec_passes() {
        let cat = catalog(&[("c1", 0.4), ("c1", 0.6), ("c2", 1.0)]);
        DirtySpec::uniform(&["customer"]).validate(&cat).unwrap();
    }

    #[test]
    fn bad_cluster_sum_rejected() {
        let cat = catalog(&[("c1", 0.4), ("c1", 0.3)]);
        let err = DirtySpec::uniform(&["customer"])
            .validate(&cat)
            .unwrap_err();
        assert!(err.to_string().contains("sum to"), "{err}");
    }

    #[test]
    fn out_of_range_prob_rejected() {
        let cat = catalog(&[("c1", 1.5), ("c1", -0.5)]);
        let err = DirtySpec::uniform(&["customer"])
            .validate(&cat)
            .unwrap_err();
        assert!(err.to_string().contains("outside"), "{err}");
    }

    #[test]
    fn missing_columns_rejected() {
        let cat = catalog(&[("c1", 1.0)]);
        let spec = DirtySpec::new().with("customer", DirtyTableMeta::new("cid", "prob"));
        assert!(spec.validate(&cat).is_err());
    }

    #[test]
    fn missing_table_rejected() {
        let cat = catalog(&[("c1", 1.0)]);
        assert!(DirtySpec::uniform(&["nope"]).validate(&cat).is_err());
    }

    #[test]
    fn require_reports_unregistered() {
        let spec = DirtySpec::uniform(&["customer"]);
        assert!(spec.require("customer").is_ok());
        assert!(spec.require("ORDERS").is_err());
        assert!(spec.meta("CUSTOMER").is_some(), "case-insensitive lookup");
    }
}
