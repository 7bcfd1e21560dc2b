//! One summary for every timing the benchmark reports: count, median,
//! quartiles, and the highest percentile the sample supports.
//!
//! Percentiles are nearest-rank (`rank = ceil(p/100 · n)`, 1-based), so
//! every reported value is a value that was actually observed. A tail
//! percentile is only as good as the samples beyond it; following the
//! metrics guide, the tail reported is the highest whole percentile with
//! at least [`TAIL_SUPPORT`] samples strictly beyond its rank.

use std::time::Duration;

use crate::json::Json;

/// Samples that must lie beyond a percentile's rank before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// A sorted sample of measurements in one unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Summarize raw values (any order; NaNs are a caller bug and sort last).
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Durations as milliseconds.
    pub fn from_ms(durations: &[Duration]) -> Samples {
        Samples::new(durations.iter().map(|d| d.as_secs_f64() * 1e3).collect())
    }

    /// Durations as microseconds.
    pub fn from_us(durations: &[Duration]) -> Samples {
        Samples::new(durations.iter().map(|d| d.as_secs_f64() * 1e6).collect())
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// 1-based nearest rank of percentile `p` in a sample of `n`.
    fn rank(p: f64, n: usize) -> usize {
        (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
    }

    /// Nearest-rank percentile; `0.0` for an empty sample.
    pub fn percentile(&self, p: f64) -> f64 {
        match self.sorted.len() {
            0 => 0.0,
            n => self.sorted[Samples::rank(p, n) - 1],
        }
    }

    /// The median (50th percentile, nearest rank — the lower middle of an
    /// even-sized sample).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// First and third quartile.
    pub fn quartiles(&self) -> (f64, f64) {
        (self.percentile(25.0), self.percentile(75.0))
    }

    /// Whether percentile `p` has [`TAIL_SUPPORT`] samples beyond it.
    pub fn supports(&self, p: f64) -> bool {
        let n = self.sorted.len();
        n > 0 && n - Samples::rank(p, n) >= TAIL_SUPPORT
    }

    /// The highest whole percentile in `50..=99` the sample supports, with
    /// its value; `None` below 20 samples.
    pub fn tail(&self) -> Option<(u32, f64)> {
        (50..=99u32)
            .rev()
            .find(|&p| self.supports(f64::from(p)))
            .map(|p| (p, self.percentile(f64::from(p))))
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }

    /// Interquartile range as a share of the median — the spread measure
    /// the regression gate uses (`0.0` when the median is zero).
    pub fn spread(&self) -> f64 {
        let (q1, q3) = self.quartiles();
        let median = self.median();
        if median == 0.0 {
            0.0
        } else {
            (q3 - q1) / median
        }
    }

    /// `{count, min, median, q1, q3, tail_percentile, tail}` for the result
    /// file, plus the sorted `values` themselves when there are few.
    pub fn to_json(&self) -> Json {
        let (q1, q3) = self.quartiles();
        let mut out = Json::obj();
        out.push("count", self.count())
            .push("min", self.sorted.first().copied().unwrap_or(0.0))
            .push("median", self.median())
            .push("q1", q1)
            .push("q3", q3);
        match self.tail() {
            Some((p, v)) => out.push("tail_percentile", u64::from(p)).push("tail", v),
            None => out
                .push("tail_percentile", Json::Null)
                .push("tail", Json::Null),
        };
        if self.count() <= 32 {
            out.push(
                "values",
                self.sorted
                    .iter()
                    .copied()
                    .map(Json::Num)
                    .collect::<Vec<_>>(),
            );
        }
        out
    }
}

/// Geometric mean of positive values (`0.0` for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        // Shuffled on purpose: the summary must not depend on input order.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v.rotate_left(n / 3);
        Samples::new(v)
    }

    #[test]
    fn one_sample_is_its_own_median_and_has_no_tail() {
        let s = ramp(1);
        assert_eq!(s.count(), 1);
        assert_eq!(s.median(), 1.0);
        assert_eq!(s.quartiles(), (1.0, 1.0));
        assert_eq!(s.tail(), None);
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn ten_samples_nearest_rank() {
        let s = ramp(10);
        assert_eq!(s.median(), 5.0); // rank ceil(0.5·10) = 5
        assert_eq!(s.quartiles(), (3.0, 8.0)); // ranks 3 and 8
        assert_eq!(s.percentile(99.0), 10.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.tail(), None, "nothing has ten samples beyond it");
    }

    #[test]
    fn eleven_samples_still_cannot_support_a_median_tail() {
        let s = ramp(11);
        assert_eq!(s.median(), 6.0);
        assert_eq!(s.quartiles(), (3.0, 9.0));
        assert!(!s.supports(50.0), "only five samples lie beyond rank 6");
        assert_eq!(s.tail(), None);
        assert_eq!(ramp(20).tail(), Some((50, 10.0)));
    }

    #[test]
    fn one_hundred_fifty_samples_support_p93() {
        let s = ramp(150);
        assert_eq!(s.median(), 75.0);
        assert_eq!(s.quartiles(), (38.0, 113.0));
        // rank(93) = ceil(139.5) = 140 leaves exactly ten beyond;
        // rank(94) = 141 leaves nine.
        assert_eq!(s.tail(), Some((93, 140.0)));
        assert!(s.supports(90.0));
        assert!(!s.supports(95.0));
    }

    #[test]
    fn ties_report_an_observed_value() {
        let s = Samples::new(vec![2.0, 1.0, 2.0, 2.0, 1.0, 2.0, 3.0, 2.0]);
        assert_eq!(s.median(), 2.0);
        assert_eq!(s.quartiles(), (1.0, 2.0));
        assert_eq!(s.percentile(100.0), 3.0);
        assert_eq!(Samples::new(vec![7.0; 40]).tail(), Some((75, 7.0)));
        assert_eq!(Samples::new(vec![7.0; 40]).spread(), 0.0);
    }

    #[test]
    fn empty_sample_is_all_zero() {
        let s = Samples::default();
        assert_eq!((s.count(), s.median(), s.tail()), (0, 0.0, None));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn duration_units() {
        let d = [Duration::from_micros(1500)];
        assert_eq!(Samples::from_ms(&d).median(), 1.5);
        assert_eq!(Samples::from_us(&d).median(), 1500.0);
    }
}
