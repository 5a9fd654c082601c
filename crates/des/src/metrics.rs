//! Simulation-wide measurement: named counters and sample histograms.
//!
//! Every experiment in `lc-bench` reads its reported quantities (messages
//! per query, control bandwidth, failover latency, …) from a [`Metrics`]
//! sink, so protocol code records measurements with one call and stays free
//! of experiment-specific plumbing.

use std::collections::BTreeMap;

/// Nearest-rank quantile of an ascending `sorted` slice: the element at
/// rank `⌈q·n⌉` (1-based, clamped into the slice), `None` when empty.
/// `q` in `[0, 1]`. The one quantile routine behind [`Histogram`],
/// `lc_trace::ReservoirHistogram` and the capacity reports.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    sorted.get(rank - 1).copied()
}

/// A set of recorded samples with streaming summary statistics.
///
/// Samples are kept in full (experiments are bounded, the largest records
/// tens of thousands of samples) so exact percentiles are available.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "non-finite sample");
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Sum of samples.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum() / self.samples.len() as f64
        }
    }

    /// Minimum sample, or 0.0 when empty.
    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min).min(f64::INFINITY)
            .pipe_finite()
    }

    /// Maximum sample, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max).pipe_finite()
    }

    /// Population standard deviation, or 0.0 when fewer than 2 samples.
    pub fn stddev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var =
            self.samples.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.samples.len() as f64;
        var.sqrt()
    }

    /// Coefficient of variation (stddev / mean), or 0.0 when mean is 0.
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.stddev() / m
        }
    }

    /// Exact percentile by nearest-rank (q in [0, 1]), or 0.0 when empty.
    pub fn percentile(&mut self, q: f64) -> f64 {
        if !self.sorted {
            self.samples.sort_by(|a, b| a.total_cmp(b));
            self.sorted = true;
        }
        nearest_rank(&self.samples, q).unwrap_or(0.0)
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> f64 {
        self.percentile(0.5)
    }

    /// All samples, in insertion order unless a percentile call sorted them.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

trait PipeFinite {
    fn pipe_finite(self) -> f64;
}
impl PipeFinite for f64 {
    fn pipe_finite(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

/// Named counters and histograms for one simulation run.
///
/// Keys are string literals — a bump is one tree walk and never
/// allocates a key; a `BTreeMap` keeps report output deterministically
/// ordered.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Metrics {
    /// Increment `key` by 1.
    pub fn incr(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Increment `key` by `n`.
    pub fn add(&mut self, key: &'static str, n: u64) {
        *self.counters.entry(key).or_default() += n;
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Record a sample into histogram `key`.
    pub fn record(&mut self, key: &'static str, v: f64) {
        self.histograms.entry(key).or_default().record(v);
    }

    /// Borrow a histogram (`None` if nothing recorded under `key`).
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Mutable borrow of a histogram, creating it when absent.
    pub fn histogram_mut(&mut self, key: &'static str) -> &mut Histogram {
        self.histograms.entry(key).or_default()
    }

    /// Iterate counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Iterate histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (*k, v))
    }

    /// Reset everything (between experiment repetitions).
    pub fn clear(&mut self) {
        self.counters.clear();
        self.histograms.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::default();
        m.incr("a");
        m.add("a", 4);
        m.incr("b");
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("b"), 1);
        assert_eq!(m.counter("missing"), 0);
        let keys: Vec<_> = m.counters().map(|(k, _)| k.to_owned()).collect();
        assert_eq!(keys, ["a", "b"]);
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::default();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 15.0);
        assert_eq!(h.mean(), 3.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 5.0);
        assert_eq!(h.median(), 3.0);
        assert_eq!(h.percentile(1.0), 5.0);
        assert_eq!(h.percentile(0.0), 1.0);
        assert!((h.stddev() - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_picks_ceil_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&v, 0.5), Some(2.0));
        assert_eq!(nearest_rank(&v, 0.51), Some(3.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(4.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank::<u64>(&[], 0.5), None);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let mut h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.median(), 0.0);
        assert_eq!(h.cv(), 0.0);
    }

    #[test]
    fn cv_measures_imbalance() {
        let mut balanced = Histogram::default();
        let mut skewed = Histogram::default();
        for _ in 0..10 {
            balanced.record(10.0);
        }
        for i in 0..10 {
            skewed.record(if i == 0 { 100.0 } else { 0.0 });
        }
        assert_eq!(balanced.cv(), 0.0);
        assert!(skewed.cv() > 1.0);
    }

    #[test]
    fn metrics_record_routes_to_histogram() {
        let mut m = Metrics::default();
        m.record("lat", 1.0);
        m.record("lat", 3.0);
        assert_eq!(m.histogram("lat").unwrap().mean(), 2.0);
        assert!(m.histogram("nope").is_none());
        m.clear();
        assert!(m.histogram("lat").is_none());
    }
}
