//! Distributional Cluster Features (Section 4.1.2).
//!
//! `DCF(c) = (|c|, p(V|c))`: a cluster's cardinality together with the
//! conditional distribution of attribute values given the cluster. Merging
//! two DCFs weights their distributions by cardinality:
//!
//! ```text
//! |c*| = |c1| + |c2|
//! p(v|c*) = |c1|/|c*| · p(v|c1) + |c2|/|c*| · p(v|c2)
//! ```

use std::collections::BTreeMap;

/// A cluster summary: cardinality (weight) plus a sparse value
/// distribution. Deterministically ordered (`BTreeMap`) for reproducible
/// iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Dcf {
    weight: f64,
    dist: BTreeMap<u32, f64>,
}

impl Dcf {
    /// The empty summary (weight 0, empty distribution).
    pub fn empty() -> Self {
        Dcf {
            weight: 0.0,
            dist: BTreeMap::new(),
        }
    }

    /// Build from a weight and `(value id, probability)` pairs
    /// (probabilities for repeated ids accumulate).
    pub fn from_parts<I: IntoIterator<Item = (u32, f64)>>(weight: f64, parts: I) -> Self {
        let mut dist = BTreeMap::new();
        for (v, p) in parts {
            *dist.entry(v).or_insert(0.0) += p;
        }
        Dcf { weight, dist }
    }

    /// Cluster cardinality `|c|`.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// `p(v | c)` (0 outside the support).
    pub fn probability(&self, value: u32) -> f64 {
        self.dist.get(&value).copied().unwrap_or(0.0)
    }

    /// Iterate over the support as `(value id, probability)`.
    pub fn support(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.dist.iter().map(|(&v, &p)| (v, p))
    }

    /// Merge two summaries per the paper's recursive DCF formula.
    pub fn merge(&self, other: &Dcf) -> Dcf {
        let weight = self.weight + other.weight;
        if weight == 0.0 {
            return Dcf::empty();
        }
        let (wa, wb) = (self.weight / weight, other.weight / weight);
        let mut dist = BTreeMap::new();
        for (&v, &p) in &self.dist {
            *dist.entry(v).or_insert(0.0) += wa * p;
        }
        for (&v, &p) in &other.dist {
            *dist.entry(v).or_insert(0.0) += wb * p;
        }
        Dcf { weight, dist }
    }

    /// The most probable value of each attribute, given a classifier from
    /// value id to attribute index. Used for modal ("most frequent values")
    /// summaries like the paper's Table 4 header row.
    pub fn modal_values<F: Fn(u32) -> usize>(&self, attr_of: F, m: usize) -> Vec<Option<u32>> {
        let mut best: Vec<Option<(u32, f64)>> = vec![None; m];
        for (v, p) in self.support() {
            let a = attr_of(v);
            if best[a].is_none_or(|(_, bp)| p > bp) {
                best[a] = Some((v, p));
            }
        }
        best.into_iter().map(|b| b.map(|(v, _)| v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dcf(w: f64, parts: &[(u32, f64)]) -> Dcf {
        Dcf::from_parts(w, parts.iter().copied())
    }

    #[test]
    fn merge_weights_distributions() {
        let a = dcf(1.0, &[(0, 0.5), (1, 0.5)]);
        let b = dcf(1.0, &[(1, 0.5), (2, 0.5)]);
        let m = a.merge(&b);
        assert_eq!(m.weight(), 2.0);
        assert!((m.probability(0) - 0.25).abs() < 1e-12);
        assert!((m.probability(1) - 0.5).abs() < 1e-12);
        assert!((m.probability(2) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn merge_respects_cardinality_weighting() {
        let big = dcf(3.0, &[(0, 1.0)]);
        let small = dcf(1.0, &[(1, 1.0)]);
        let m = big.merge(&small);
        assert!((m.probability(0) - 0.75).abs() < 1e-12);
        assert!((m.probability(1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn merge_is_commutative_and_preserves_mass() {
        let a = dcf(2.0, &[(0, 0.25), (1, 0.75)]);
        let b = dcf(5.0, &[(1, 0.1), (2, 0.9)]);
        let ab = a.merge(&b);
        let ba = b.merge(&a);
        for v in 0..3 {
            assert!((ab.probability(v) - ba.probability(v)).abs() < 1e-12);
        }
        let mass: f64 = ab.support().map(|(_, p)| p).sum();
        assert!((mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_associative_up_to_float() {
        let a = dcf(1.0, &[(0, 1.0)]);
        let b = dcf(2.0, &[(1, 1.0)]);
        let c = dcf(3.0, &[(2, 1.0)]);
        let l = a.merge(&b).merge(&c);
        let r = a.merge(&b.merge(&c));
        for v in 0..3 {
            assert!((l.probability(v) - r.probability(v)).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_merges_are_identity() {
        let a = dcf(2.0, &[(0, 1.0)]);
        let m = a.merge(&Dcf::empty());
        assert_eq!(m, a);
        assert_eq!(Dcf::empty().merge(&Dcf::empty()), Dcf::empty());
    }

    #[test]
    fn modal_values_pick_argmax_per_attribute() {
        // values 0,1 belong to attribute 0; values 2,3 to attribute 1.
        let d = dcf(2.0, &[(0, 0.4), (1, 0.1), (2, 0.2), (3, 0.3)]);
        let modal = d.modal_values(|v| if v < 2 { 0 } else { 1 }, 2);
        assert_eq!(modal, vec![Some(0), Some(3)]);
    }
}
