//! The probability-assignment algorithm (Figure 5 of the paper).

use std::collections::HashMap;

use conquer_storage::{StorageError, Table, Value};

use crate::distance::DistanceMeasure;
use crate::matrix::CategoricalMatrix;
use crate::Result;

/// A clustering of a relation's rows: disjoint groups of row positions
/// covering the whole table (Definition 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    clusters: Vec<Vec<usize>>,
}

impl Clustering {
    /// Build from explicit clusters, verifying they partition `0..n`.
    pub fn new(clusters: Vec<Vec<usize>>, n: usize) -> Result<Self> {
        let mut seen = vec![false; n];
        for c in &clusters {
            if c.is_empty() {
                return Err(StorageError::InvalidData(
                    "empty cluster in clustering".into(),
                ));
            }
            for &r in c {
                if r >= n || seen[r] {
                    return Err(StorageError::InvalidData(format!(
                        "clustering is not a partition: row {r} out of range or repeated"
                    )));
                }
                seen[r] = true;
            }
        }
        if !seen.iter().all(|s| *s) {
            return Err(StorageError::InvalidData(
                "clustering does not cover every row".into(),
            ));
        }
        Ok(Clustering { clusters })
    }

    /// One singleton cluster per row (a completely clean relation).
    pub fn singletons(n: usize) -> Self {
        Clustering {
            clusters: (0..n).map(|i| vec![i]).collect(),
        }
    }

    /// Group rows by the values of an identifier column — the form in which
    /// tuple matchers deliver their output (Section 2.1). Clusters are
    /// ordered by identifier for determinism.
    pub fn from_id_column(table: &Table, id_column: &str) -> Result<Self> {
        let col = table.column_index(id_column)?;
        let mut by_id: HashMap<Value, Vec<usize>> = HashMap::new();
        for (i, row) in table.shared_rows().iter().enumerate() {
            by_id.entry(row[col].clone()).or_default().push(i);
        }
        let mut pairs: Vec<(Value, Vec<usize>)> = by_id.into_iter().collect();
        pairs.sort_by(|(a, _), (b, _)| a.cmp(b));
        Ok(Clustering {
            clusters: pairs.into_iter().map(|(_, rows)| rows).collect(),
        })
    }

    /// The clusters.
    pub fn clusters(&self) -> &[Vec<usize>] {
        &self.clusters
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// True when there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Total number of rows covered.
    pub fn total_rows(&self) -> usize {
        self.clusters.iter().map(Vec::len).sum()
    }
}

/// Run the Figure-5 algorithm: per cluster, build the representative,
/// measure every member's distance to it, convert to similarities and
/// normalize to probabilities.
///
/// * singleton clusters get probability 1 ("we are certain about its
///   existence in the clean database");
/// * `sₜ = 1 − dₜ/S(cᵢ)`, `prob(t) = sₜ/(|cᵢ|−1)` — so probabilities within
///   a cluster sum to exactly 1;
/// * a cluster of identical tuples (`S = 0`) degenerates to the uniform
///   distribution.
///
/// Returns one probability per table row.
pub fn assign_probabilities<M: DistanceMeasure>(
    matrix: &CategoricalMatrix,
    clustering: &Clustering,
    measure: &M,
) -> Vec<f64> {
    let n_total = matrix.n();
    let mut probs = vec![0.0; n_total];
    for cluster in clustering.clusters() {
        if cluster.len() == 1 {
            probs[cluster[0]] = 1.0;
            continue;
        }
        // Steps 1–2: representative and distance sum.
        let rep = measure.representative(matrix, cluster);
        let distances: Vec<f64> = cluster
            .iter()
            .map(|&t| measure.distance(matrix, t, &rep, n_total))
            .collect();
        let s: f64 = distances.iter().sum();
        let k = cluster.len() as f64;
        // Step 3: similarities → probabilities.
        if s <= f64::EPSILON {
            for &t in cluster {
                probs[t] = 1.0 / k;
            }
        } else {
            for (&t, d) in cluster.iter().zip(&distances) {
                let similarity = 1.0 - d / s;
                probs[t] = similarity / (k - 1.0);
            }
        }
    }
    probs
}

/// Assign probabilities and write them into `prob_column` of the table.
/// Returns the probabilities for convenience.
pub fn assign_probabilities_into<M: DistanceMeasure>(
    table: &mut Table,
    attributes: &[&str],
    id_column: &str,
    prob_column: &str,
    measure: &M,
) -> Result<Vec<f64>> {
    let matrix = CategoricalMatrix::from_table(table, attributes)?;
    let clustering = Clustering::from_id_column(table, id_column)?;
    let probs = assign_probabilities(&matrix, &clustering, measure);
    let snapshot = probs.clone();
    table.update_column(prob_column, |i, _| Value::Float(snapshot[i]))?;
    Ok(probs)
}

/// Uniform probabilities (`1/|cᵢ|` per member): the baseline used when no
/// distance information is wanted.
pub fn uniform_probabilities(clustering: &Clustering, n: usize) -> Vec<f64> {
    let mut probs = vec![0.0; n];
    for cluster in clustering.clusters() {
        let p = 1.0 / cluster.len() as f64;
        for &t in cluster {
            probs[t] = p;
        }
    }
    probs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{EditDistance, InfoLossDistance};
    use conquer_storage::{DataType, Schema};

    /// The paper's Figure 6 customer relation with its three clusters.
    fn figure6() -> (Table, Clustering) {
        let schema = Schema::from_pairs([
            ("name", DataType::Text),
            ("mktsegmt", DataType::Text),
            ("nation", DataType::Text),
            ("address", DataType::Text),
        ])
        .unwrap();
        let mut t = Table::new("customer", schema);
        for (a, b, c, d) in [
            ("Mary", "building", "USA", "Jones Ave"),
            ("Mary", "banking", "USA", "Jones Ave"),
            ("Marion", "banking", "USA", "Jones ave"),
            ("John", "building", "America", "Arrow"),
            ("John S.", "building", "USA", "Arrow"),
            ("John", "banking", "Canada", "Baldwin"),
        ] {
            t.insert(vec![a.into(), b.into(), c.into(), d.into()])
                .unwrap();
        }
        let clustering = Clustering::new(vec![vec![0, 1, 2], vec![3, 4], vec![5]], 6).unwrap();
        (t, clustering)
    }

    #[test]
    fn table3_invariants() {
        // Section 4.1.3 / Table 3: within c1, t2 is the most probable tuple
        // (it shares all its values with at least one other tuple); the two
        // tuples of c2 are equally likely (0.5 each); the singleton t6 gets
        // probability 1.
        let (t, clustering) = figure6();
        let matrix =
            CategoricalMatrix::from_table(&t, &["name", "mktsegmt", "nation", "address"]).unwrap();
        let probs = assign_probabilities(&matrix, &clustering, &InfoLossDistance);

        // Cluster sums are exactly 1.
        let c1: f64 = probs[0] + probs[1] + probs[2];
        assert!((c1 - 1.0).abs() < 1e-12, "{probs:?}");
        assert!((probs[3] + probs[4] - 1.0).abs() < 1e-12);
        assert!((probs[5] - 1.0).abs() < 1e-12);

        // t2 dominates c1.
        assert!(probs[1] > probs[0], "{probs:?}");
        assert!(probs[1] > probs[2], "{probs:?}");

        // t4 and t5 are symmetric in c2.
        assert!((probs[3] - 0.5).abs() < 1e-9, "{probs:?}");
        assert!((probs[4] - 0.5).abs() < 1e-9, "{probs:?}");
    }

    #[test]
    fn identical_tuples_get_uniform_probabilities() {
        let schema = Schema::from_pairs([("a", DataType::Text)]).unwrap();
        let mut t = Table::new("t", schema);
        for _ in 0..3 {
            t.insert(vec!["same".into()]).unwrap();
        }
        let matrix = CategoricalMatrix::from_table(&t, &["a"]).unwrap();
        let clustering = Clustering::new(vec![vec![0, 1, 2]], 3).unwrap();
        let probs = assign_probabilities(&matrix, &clustering, &InfoLossDistance);
        for p in probs {
            assert!((p - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn edit_distance_measure_agrees_on_ranking() {
        // The modular claim: a different measure still ranks t2 on top of
        // c1 for this data.
        let (t, clustering) = figure6();
        let matrix =
            CategoricalMatrix::from_table(&t, &["name", "mktsegmt", "nation", "address"]).unwrap();
        let probs = assign_probabilities(&matrix, &clustering, &EditDistance);
        assert!((probs[0] + probs[1] + probs[2] - 1.0).abs() < 1e-12);
        assert!(probs[1] >= probs[0] && probs[1] >= probs[2], "{probs:?}");
        assert!((probs[5] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probabilities_always_in_unit_interval() {
        let (t, clustering) = figure6();
        let matrix = CategoricalMatrix::from_table(&t, &["name", "nation"]).unwrap();
        for probs in [
            assign_probabilities(&matrix, &clustering, &InfoLossDistance),
            assign_probabilities(&matrix, &clustering, &EditDistance),
        ] {
            for p in probs {
                assert!((0.0..=1.0 + 1e-12).contains(&p), "{p}");
            }
        }
    }

    #[test]
    fn clustering_validation() {
        assert!(Clustering::new(vec![vec![0], vec![1]], 2).is_ok());
        let invalid = |clusters: Vec<Vec<usize>>| {
            matches!(
                Clustering::new(clusters, 2),
                Err(StorageError::InvalidData(_))
            )
        };
        assert!(invalid(vec![vec![0]]), "must cover all rows");
        assert!(invalid(vec![vec![0], vec![0, 1]]), "no overlap");
        assert!(invalid(vec![vec![2]]), "in range");
        assert!(invalid(vec![vec![], vec![0, 1]]), "no empty clusters");
        assert_eq!(Clustering::singletons(3).len(), 3);
    }

    #[test]
    fn clustering_from_id_column() {
        let schema = Schema::from_pairs([("id", DataType::Text), ("x", DataType::Int)]).unwrap();
        let mut t = Table::new("t", schema);
        for (id, x) in [("b", 1), ("a", 2), ("b", 3)] {
            t.insert(vec![id.into(), x.into()]).unwrap();
        }
        let c = Clustering::from_id_column(&t, "id").unwrap();
        assert_eq!(c.clusters(), &[vec![1], vec![0, 2]]); // sorted: a, then b
        assert_eq!(c.total_rows(), 3);
    }

    #[test]
    fn assign_into_updates_prob_column() {
        let schema = Schema::from_pairs([
            ("id", DataType::Text),
            ("name", DataType::Text),
            ("prob", DataType::Float),
        ])
        .unwrap();
        let mut t = Table::new("t", schema);
        for (id, name) in [("c1", "ann"), ("c1", "anne"), ("c2", "bob")] {
            t.insert(vec![id.into(), name.into(), 0.0.into()]).unwrap();
        }
        let probs =
            assign_probabilities_into(&mut t, &["name"], "id", "prob", &InfoLossDistance).unwrap();
        assert_eq!(probs.len(), 3);
        assert_eq!(t.value(2, 2), &Value::Float(1.0));
        let sum = t.value(0, 2).as_f64().unwrap() + t.value(1, 2).as_f64().unwrap();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_baseline() {
        let c = Clustering::new(vec![vec![0, 1], vec![2]], 3).unwrap();
        assert_eq!(uniform_probabilities(&c, 3), vec![0.5, 0.5, 1.0]);
    }
}
