//! Duplicate detection: producing the clustering the rest of the system
//! consumes.
//!
//! The paper treats tuple matching as an exchangeable black box ("one of
//! the benefits of our approach is that it is modular and can work with
//! different techniques that find matching tuples") and cites two families
//! it interoperates with; this module implements one representative of
//! each, so the repository runs end-to-end from raw duplicated data:
//!
//! * [`sorted_neighborhood`] — the merge/purge method of Hernández &
//!   Stolfo (the paper's \[17\], whose UIS generator drives the
//!   experiments): sort by a discriminating key, slide a fixed window,
//!   union records whose similarity clears a threshold.
//! * [`limbo_sequential`] — a LIMBO-flavoured clusterer (the paper's \[4\],
//!   by the same authors): scan tuples, assigning each to the existing
//!   cluster summary whose merge loses the least information, or opening a
//!   new cluster when every merge would lose more than `max_loss`.
//!
//! Both return a [`Clustering`] ready for
//! [`crate::assign::assign_probabilities`].

use conquer_storage::Table;

use crate::assign::Clustering;
use crate::dcf::Dcf;
use crate::distance::information_loss;
use crate::matrix::CategoricalMatrix;
use crate::text::normalized_levenshtein;
use crate::Result;

/// Disjoint-set union (union-find) with path compression and union by
/// size — the merge structure both matchers share.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    /// Merge the sets of `a` and `b`; returns false if already joined.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big;
        self.size[big] += self.size[small];
        true
    }

    /// Extract the partition as a clustering (groups ordered by smallest
    /// member).
    pub fn into_clustering(mut self) -> Clustering {
        let n = self.parent.len();
        let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for i in 0..n {
            let r = self.find(i);
            groups.entry(r).or_default().push(i);
        }
        let mut clusters: Vec<Vec<usize>> = groups.into_values().collect();
        clusters.sort_by_key(|c| c[0]);
        // A DSU partition assigns every element to exactly one group, so
        // this cannot fail; degrade to singletons rather than panic.
        Clustering::new(clusters, n).unwrap_or_else(|_| Clustering::singletons(n))
    }
}

/// Options for the sorted-neighborhood (merge/purge) matcher.
#[derive(Debug, Clone)]
pub struct SortedNeighborhoodConfig {
    /// Attributes compared (and, concatenated, used as the sort key).
    pub attributes: Vec<String>,
    /// Window size `w`: each record is compared with the `w−1` records
    /// before it in key order.
    pub window: usize,
    /// Similarity threshold in `[0, 1]` above which two records match
    /// (similarity = 1 − mean normalized edit distance per attribute).
    pub threshold: f64,
}

impl Default for SortedNeighborhoodConfig {
    fn default() -> Self {
        SortedNeighborhoodConfig {
            attributes: Vec::new(),
            window: 8,
            threshold: 0.75,
        }
    }
}

/// Pairwise record similarity: 1 − mean normalized Levenshtein over the
/// compared attributes.
pub fn record_similarity(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() {
        return 1.0;
    }
    let d: f64 = a
        .iter()
        .zip(b)
        .map(|(x, y)| normalized_levenshtein(x, y))
        .sum::<f64>()
        / a.len() as f64;
    1.0 - d
}

/// The merge/purge sorted-neighborhood matcher. `O(n log n + n·w)`
/// comparisons; transitive matches are closed through the union-find (the
/// method's standard "transitive closure" phase).
pub fn sorted_neighborhood(table: &Table, config: &SortedNeighborhoodConfig) -> Result<Clustering> {
    let cols: Vec<usize> = config
        .attributes
        .iter()
        .map(|a| table.column_index(a))
        .collect::<std::result::Result<_, _>>()?;
    let n = table.len();
    // Render the compared fields once.
    let rendered: Vec<Vec<String>> = table
        .shared_rows()
        .iter()
        .map(|row| {
            cols.iter()
                .map(|&c| row[c].to_string().to_ascii_lowercase())
                .collect()
        })
        .collect();
    // Sort key: the concatenated fields.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| rendered[a].join("\u{1}").cmp(&rendered[b].join("\u{1}")));

    let mut dsu = UnionFind::new(n);
    let w = config.window.max(2);
    for i in 0..n {
        for j in i.saturating_sub(w - 1)..i {
            let (a, b) = (order[i], order[j]);
            if record_similarity(&rendered[a], &rendered[b]) >= config.threshold {
                dsu.union(a, b);
            }
        }
    }
    Ok(dsu.into_clustering())
}

/// Multi-pass sorted neighborhood, the full merge/purge design: each pass
/// sorts by a different key (attribute order), and matches found in any
/// pass are unioned — records that sort far apart under one key (a typo in
/// its first character, say) are caught by a pass keyed on another
/// attribute. `passes` gives the attribute orderings; window/threshold are
/// shared.
pub fn multi_pass_sorted_neighborhood(
    table: &Table,
    passes: &[Vec<String>],
    window: usize,
    threshold: f64,
) -> Result<Clustering> {
    let n = table.len();
    let mut dsu = UnionFind::new(n);
    for attributes in passes {
        let config = SortedNeighborhoodConfig {
            attributes: attributes.clone(),
            window,
            threshold,
        };
        let pass = sorted_neighborhood(table, &config)?;
        for cluster in pass.clusters() {
            for w in cluster.windows(2) {
                dsu.union(w[0], w[1]);
            }
        }
    }
    Ok(dsu.into_clustering())
}

/// Options for the LIMBO-style sequential clusterer.
#[derive(Debug, Clone, Copy)]
pub struct LimboConfig {
    /// Maximum information loss (bits, normalized by relation size) a merge
    /// may incur; larger values produce coarser clusterings.
    pub max_loss: f64,
}

impl Default for LimboConfig {
    fn default() -> Self {
        LimboConfig { max_loss: 0.05 }
    }
}

/// Sequential LIMBO-flavoured clustering: one pass over the tuples; each
/// tuple joins the existing summary whose merge loses the least mutual
/// information, or starts a new cluster if every merge would lose more
/// than `max_loss`. `O(n·k)` with `k` final clusters.
pub fn limbo_sequential(matrix: &CategoricalMatrix, config: &LimboConfig) -> Clustering {
    let n = matrix.n();
    let mut summaries: Vec<Dcf> = Vec::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for t in 0..n {
        let dcf = matrix.tuple_dcf(t);
        let mut best: Option<(usize, f64)> = None;
        for (ci, s) in summaries.iter().enumerate() {
            let loss = information_loss(&dcf, s, n as f64);
            if best.is_none_or(|(_, b)| loss < b) {
                best = Some((ci, loss));
            }
        }
        match best {
            Some((ci, loss)) if loss <= config.max_loss => {
                summaries[ci] = summaries[ci].merge(&dcf);
                members[ci].push(t);
            }
            _ => {
                summaries.push(dcf);
                members.push(vec![t]);
            }
        }
    }
    // The loop above assigns each tuple to exactly one cluster, so this
    // cannot fail; degrade to singletons rather than panic.
    Clustering::new(members, n).unwrap_or_else(|_| Clustering::singletons(n))
}

/// Pairwise quality of a clustering against a ground truth: precision,
/// recall and F1 over "same-cluster" pairs. Used to validate the matchers
/// on generated data (and handy for downstream users tuning thresholds).
pub fn pairwise_quality(predicted: &Clustering, truth: &Clustering) -> (f64, f64, f64) {
    let n = truth.total_rows();
    let label = |c: &Clustering| {
        let mut l = vec![0usize; n];
        for (ci, cluster) in c.clusters().iter().enumerate() {
            for &i in cluster {
                l[i] = ci;
            }
        }
        l
    };
    let (pl, tl) = (label(predicted), label(truth));
    let (mut tp, mut fp, mut fnn) = (0u64, 0u64, 0u64);
    for i in 0..n {
        for j in (i + 1)..n {
            let same_pred = pl[i] == pl[j];
            let same_true = tl[i] == tl[j];
            match (same_pred, same_true) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fnn += 1,
                (false, false) => {}
            }
        }
    }
    let precision = if tp + fp == 0 {
        1.0
    } else {
        tp as f64 / (tp + fp) as f64
    };
    let recall = if tp + fnn == 0 {
        1.0
    } else {
        tp as f64 / (tp + fnn) as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    (precision, recall, f1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use conquer_storage::{DataType, Schema};

    fn people() -> Table {
        let schema =
            Schema::from_pairs([("name", DataType::Text), ("city", DataType::Text)]).unwrap();
        let mut t = Table::new("people", schema);
        for (n, c) in [
            ("john smith", "toronto"),
            ("jhon smith", "toronto"), // typo duplicate of 0
            ("john smyth", "torotno"), // typo duplicate of 0
            ("mary jones", "ottawa"),
            ("mary jones", "otawa"),  // typo duplicate of 3
            ("ada king", "montreal"), // singleton
        ] {
            t.insert(vec![n.into(), c.into()]).unwrap();
        }
        t
    }

    fn truth() -> Clustering {
        Clustering::new(vec![vec![0, 1, 2], vec![3, 4], vec![5]], 6).unwrap()
    }

    #[test]
    fn union_find_basics() {
        let mut dsu = UnionFind::new(4);
        assert!(dsu.union(0, 1));
        assert!(!dsu.union(1, 0));
        assert!(dsu.union(2, 3));
        assert_eq!(dsu.find(1), dsu.find(0));
        assert_ne!(dsu.find(0), dsu.find(2));
        let c = dsu.into_clustering();
        assert_eq!(c.clusters(), &[vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn sorted_neighborhood_recovers_typo_clusters() {
        let t = people();
        let config = SortedNeighborhoodConfig {
            attributes: vec!["name".into(), "city".into()],
            window: 6,
            threshold: 0.7,
        };
        let predicted = sorted_neighborhood(&t, &config).unwrap();
        let (p, r, f1) = pairwise_quality(&predicted, &truth());
        assert!(p >= 0.99, "precision {p}");
        assert!(r >= 0.99, "recall {r}");
        assert!(f1 >= 0.99, "f1 {f1}");
    }

    #[test]
    fn threshold_one_yields_exact_duplicate_clusters_only() {
        let t = people();
        let config = SortedNeighborhoodConfig {
            attributes: vec!["name".into(), "city".into()],
            window: 6,
            threshold: 1.0,
        };
        let predicted = sorted_neighborhood(&t, &config).unwrap();
        // No two records are textually identical, so all singletons.
        assert_eq!(predicted.len(), 6);
    }

    #[test]
    fn multi_pass_catches_first_character_typos() {
        // A typo in the *first* character of the name pushes the record far
        // away in name-sorted order; a city-keyed second pass still finds it.
        let schema =
            Schema::from_pairs([("name", DataType::Text), ("city", DataType::Text)]).unwrap();
        let mut t = Table::new("people", schema);
        for (n, c) in [
            ("aaron judge", "brookline"),
            ("zaron judge", "brookline"), // first-char typo of 0
            ("aaron judge", "cambridge"), // different entity, same name
            ("mia wong", "somerville"),
            ("mia wong", "somerville"), // exact duplicate of 3
        ] {
            t.insert(vec![n.into(), c.into()]).unwrap();
        }
        // Single name-first pass with a tiny window misses (0, 1)…
        let single = sorted_neighborhood(
            &t,
            &SortedNeighborhoodConfig {
                attributes: vec!["name".into(), "city".into()],
                window: 2,
                threshold: 0.85,
            },
        )
        .unwrap();
        let find =
            |c: &Clustering, i: usize| c.clusters().iter().position(|cl| cl.contains(&i)).unwrap();
        assert_ne!(
            find(&single, 0),
            find(&single, 1),
            "window too small in name order"
        );

        // …but the city-keyed second pass catches it.
        let multi = multi_pass_sorted_neighborhood(
            &t,
            &[
                vec!["name".into(), "city".into()],
                vec!["city".into(), "name".into()],
            ],
            2,
            0.85,
        )
        .unwrap();
        assert_eq!(find(&multi, 0), find(&multi, 1));
        assert_eq!(find(&multi, 3), find(&multi, 4));
        assert_ne!(
            find(&multi, 0),
            find(&multi, 2),
            "different city stays separate"
        );
    }

    #[test]
    fn limbo_sequential_groups_similar_tuples() {
        let t = people();
        let matrix = CategoricalMatrix::from_table(&t, &["name", "city"]).unwrap();
        // On *categorical* equality alone, typo variants share no values, so
        // the information-loss clusterer needs shared values to group; give
        // it exact duplicates instead.
        let schema = Schema::from_pairs([("a", DataType::Text), ("b", DataType::Text)]).unwrap();
        let mut exact = Table::new("t", schema);
        for (a, b) in [("x", "p"), ("x", "p"), ("x", "q"), ("y", "r"), ("y", "r")] {
            exact.insert(vec![a.into(), b.into()]).unwrap();
        }
        let m2 = CategoricalMatrix::from_table(&exact, &["a", "b"]).unwrap();
        let c = limbo_sequential(&m2, &LimboConfig { max_loss: 0.2 });
        // x-records group together, y-records group together.
        assert!(c.len() <= 3, "{:?}", c.clusters());
        let find = |i: usize| c.clusters().iter().position(|cl| cl.contains(&i)).unwrap();
        assert_eq!(find(0), find(1));
        assert_eq!(find(3), find(4));
        assert_ne!(find(0), find(3));

        // Strict threshold: everything is a singleton.
        let strict = limbo_sequential(&matrix, &LimboConfig { max_loss: 0.0 });
        assert_eq!(strict.len(), 6);
    }

    #[test]
    fn pairwise_quality_bounds() {
        let t = truth();
        let (p, r, f1) = pairwise_quality(&t, &t);
        assert_eq!((p, r, f1), (1.0, 1.0, 1.0));
        let singletons = Clustering::singletons(6);
        let (p, r, _) = pairwise_quality(&singletons, &t);
        assert_eq!(p, 1.0, "no predicted pairs ⇒ vacuous precision");
        assert_eq!(r, 0.0);
        let one = Clustering::new(vec![(0..6).collect()], 6).unwrap();
        let (p, r, _) = pairwise_quality(&one, &t);
        assert!(p < 1.0);
        assert_eq!(r, 1.0);
    }

    #[test]
    fn record_similarity_range() {
        assert_eq!(record_similarity(&[], &[]), 1.0);
        let a = vec!["abc".to_string()];
        let b = vec!["abc".to_string()];
        assert_eq!(record_similarity(&a, &b), 1.0);
        let c = vec!["xyz".to_string()];
        assert_eq!(record_similarity(&a, &c), 0.0);
    }
}
