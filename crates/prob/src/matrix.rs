//! Categorical data representation (Section 4.1.1).
//!
//! A relation over attributes `A₁…Aₘ` is viewed as an `n × |V|` matrix,
//! where `V` is the disjoint union of the attribute domains ("identical
//! values from different attributes are treated as distinct values"). Each
//! tuple's row, normalized, is the conditional distribution `p(v|t)`: `1/m`
//! for each of the tuple's `m` values (the paper's Table 1).
//!
//! Values are interned to dense ids so distributions can be sparse maps.

use std::collections::HashMap;

use conquer_storage::{StorageError, Table};

use crate::dcf::Dcf;
use crate::Result;

/// Interned categorical view of (selected attributes of) a relation.
#[derive(Debug, Clone)]
pub struct CategoricalMatrix {
    /// Number of tuples `n`.
    n: usize,
    /// Number of attributes `m`.
    m: usize,
    /// Per tuple: its `m` interned value ids.
    tuple_values: Vec<Vec<u32>>,
    /// Id → (attribute index, rendered value).
    value_names: Vec<(usize, String)>,
    /// Names of the attributes used.
    attributes: Vec<String>,
}

impl CategoricalMatrix {
    /// Build from the given attributes of a table. Every value is rendered
    /// to text (categorical treatment — the paper's measure targets
    /// categorical data; numeric values participate by their spelling).
    /// NULLs intern as a distinct per-attribute value.
    pub fn from_table(table: &Table, attributes: &[&str]) -> Result<Self> {
        if attributes.is_empty() {
            return Err(StorageError::InvalidData(
                "categorical matrix needs at least one attribute".into(),
            ));
        }
        let cols: Vec<usize> = attributes
            .iter()
            .map(|a| table.column_index(a))
            .collect::<std::result::Result<_, _>>()?;
        let mut interner: HashMap<(usize, String), u32> = HashMap::new();
        let mut value_names: Vec<(usize, String)> = Vec::new();
        let mut tuple_values = Vec::with_capacity(table.len());
        for row in table.shared_rows() {
            let mut vals = Vec::with_capacity(cols.len());
            for (ai, &c) in cols.iter().enumerate() {
                let text = row[c].to_string();
                let next = value_names.len() as u32;
                let id = *interner.entry((ai, text.clone())).or_insert_with(|| {
                    value_names.push((ai, text));
                    next
                });
                vals.push(id);
            }
            tuple_values.push(vals);
        }
        Ok(CategoricalMatrix {
            n: table.len(),
            m: cols.len(),
            tuple_values,
            value_names,
            attributes: attributes.iter().map(|s| s.to_ascii_lowercase()).collect(),
        })
    }

    /// Number of tuples.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of attributes.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Size of the joint value domain `|V|`.
    pub fn domain_size(&self) -> usize {
        self.value_names.len()
    }

    /// Attribute names used to build the matrix.
    pub fn attributes(&self) -> &[String] {
        &self.attributes
    }

    /// The interned value ids of tuple `t`.
    pub fn values_of(&self, t: usize) -> &[u32] {
        &self.tuple_values[t]
    }

    /// `(attribute index, rendered value)` for a value id.
    pub fn value_name(&self, id: u32) -> (usize, &str) {
        let (a, s) = &self.value_names[id as usize];
        (*a, s.as_str())
    }

    /// The singleton DCF of tuple `t`: weight 1, probability `1/m` per
    /// value (the normalized matrix row of Example 8).
    pub fn tuple_dcf(&self, t: usize) -> Dcf {
        let p = 1.0 / self.m as f64;
        Dcf::from_parts(1.0, self.tuple_values[t].iter().map(|&v| (v, p)))
    }

    /// The representative of a set of tuples: the merge of their DCFs
    /// (Section 4.1.2).
    pub fn cluster_dcf(&self, rows: &[usize]) -> Dcf {
        let mut it = rows.iter();
        let Some(&first) = it.next() else {
            return Dcf::empty();
        };
        let mut acc = self.tuple_dcf(first);
        for &r in it {
            acc = acc.merge(&self.tuple_dcf(r));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conquer_storage::{DataType, Schema, Value};

    /// The paper's Figure 6 customer relation.
    pub(crate) fn figure6() -> Table {
        let schema = Schema::from_pairs([
            ("name", DataType::Text),
            ("mktsegmt", DataType::Text),
            ("nation", DataType::Text),
            ("address", DataType::Text),
        ])
        .unwrap();
        let mut t = Table::new("customer", schema);
        let rows = [
            ("Mary", "building", "USA", "Jones Ave"),
            ("Mary", "banking", "USA", "Jones Ave"),
            ("Marion", "banking", "USA", "Jones ave"),
            ("John", "building", "America", "Arrow"),
            ("John S.", "building", "USA", "Arrow"),
            ("John", "banking", "Canada", "Baldwin"),
        ];
        for (a, b, c, d) in rows {
            t.insert(vec![a.into(), b.into(), c.into(), d.into()])
                .unwrap();
        }
        t
    }

    #[test]
    fn example8_normalized_rows() {
        let m =
            CategoricalMatrix::from_table(&figure6(), &["name", "mktsegmt", "nation", "address"])
                .unwrap();
        assert_eq!(m.n(), 6);
        assert_eq!(m.m(), 4);
        let dcf = m.tuple_dcf(0);
        // Probability 0.25 of choosing each of t1's four values.
        assert_eq!(dcf.support().count(), 4);
        for (_, p) in dcf.support() {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn same_text_in_different_attributes_is_distinct() {
        let schema = Schema::from_pairs([("a", DataType::Text), ("b", DataType::Text)]).unwrap();
        let mut t = Table::new("t", schema);
        t.insert(vec!["x".into(), "x".into()]).unwrap();
        let m = CategoricalMatrix::from_table(&t, &["a", "b"]).unwrap();
        assert_eq!(m.domain_size(), 2, "column-qualified domains");
        assert_ne!(m.values_of(0)[0], m.values_of(0)[1]);
    }

    #[test]
    fn shared_values_share_ids() {
        let m = CategoricalMatrix::from_table(&figure6(), &["nation"]).unwrap();
        // USA appears in t1,t2,t3,t5 — all the same id.
        let usa = m.values_of(0)[0];
        assert_eq!(m.values_of(1)[0], usa);
        assert_eq!(m.values_of(2)[0], usa);
        assert_eq!(m.values_of(4)[0], usa);
        assert_ne!(m.values_of(3)[0], usa); // America
        assert_eq!(m.domain_size(), 3); // USA, America, Canada
        assert_eq!(m.value_name(usa), (0, "USA"));
    }

    #[test]
    fn table2_representatives() {
        let m =
            CategoricalMatrix::from_table(&figure6(), &["name", "mktsegmt", "nation", "address"])
                .unwrap();
        // rep1 = merge of t1,t2,t3 (cluster c1 of Figure 6).
        let rep1 = m.cluster_dcf(&[0, 1, 2]);
        assert!((rep1.weight() - 3.0).abs() < 1e-12);
        // p(USA | c1) stays 0.25 ("remains the same as in the initial
        // tuples" — Table 2); p(Mary | c1) = 2/3 · 1/4 = 1/6.
        let usa = m.values_of(0)[2];
        let mary = m.values_of(0)[0];
        assert!((rep1.probability(usa) - 0.25).abs() < 1e-12);
        assert!((rep1.probability(mary) - 1.0 / 6.0).abs() < 1e-12);
        // Distribution still sums to 1.
        let total: f64 = rep1.support().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nulls_are_a_value() {
        let schema = Schema::from_pairs([("a", DataType::Text)]).unwrap();
        let mut t = Table::new("t", schema);
        t.insert(vec![Value::Null]).unwrap();
        t.insert(vec![Value::Null]).unwrap();
        let m = CategoricalMatrix::from_table(&t, &["a"]).unwrap();
        assert_eq!(m.domain_size(), 1);
        assert_eq!(m.values_of(0), m.values_of(1));
    }

    #[test]
    fn missing_attribute_rejected() {
        assert!(CategoricalMatrix::from_table(&figure6(), &["nope"]).is_err());
        assert!(matches!(
            CategoricalMatrix::from_table(&figure6(), &[]),
            Err(StorageError::InvalidData(_))
        ));
    }
}
