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

/// Handle to one counter of a [`Metrics`], from [`Metrics::id`].
///
/// Valid only for the `Metrics` that issued it (and its clones), for
/// that sink's whole life — [`Metrics::clear`] keeps ids.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CounterId(u32);

/// Named counters and histograms for one simulation run.
///
/// Counters live in one dense store. A name resolves to a
/// [`CounterId`] by one tree walk ([`Metrics::id`]); a bump by id is an
/// indexed add. Sites that fire per message or per tick resolve their
/// ids once and keep them; everything else calls [`Metrics::incr`] /
/// [`Metrics::add`], which resolve on every call. Keys are string
/// literals, so nothing here allocates per bump, and reports iterate in
/// name order whatever the registration order was.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    ids: BTreeMap<&'static str, CounterId>,
    /// Indexed by [`CounterId`]: `None` until the first bump, so a key
    /// that was only registered never shows up in [`Metrics::counters`].
    cells: Vec<Option<u64>>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Metrics {
    /// The id of counter `key`, registering it on first sight.
    /// Registering alone does not list the key.
    pub fn id(&mut self, key: &'static str) -> CounterId {
        let next = CounterId(self.cells.len() as u32);
        let id = *self.ids.entry(key).or_insert(next);
        if id == next {
            self.cells.push(None);
        }
        id
    }

    /// Increment the counter behind `id` by `n` (`n == 0` still lists
    /// the key).
    #[inline]
    pub fn bump(&mut self, id: CounterId, n: u64) {
        let cell = &mut self.cells[id.0 as usize];
        *cell = Some(cell.unwrap_or(0) + n);
    }

    /// Increment `key` by 1.
    pub fn incr(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Increment `key` by `n`.
    pub fn add(&mut self, key: &'static str, n: u64) {
        let id = self.id(key);
        self.bump(id, n);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.ids.get(key).and_then(|id| self.cells[id.0 as usize]).unwrap_or(0)
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

    /// Iterate the counters bumped since the last [`Metrics::clear`], in
    /// key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.ids.iter().filter_map(|(k, id)| Some((*k, self.cells[id.0 as usize]?)))
    }

    /// Iterate histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (*k, v))
    }

    /// Reset everything (between experiment repetitions). Issued
    /// [`CounterId`]s stay valid.
    pub fn clear(&mut self) {
        self.cells.fill(None);
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
    fn ids_and_names_share_one_store() {
        let mut m = Metrics::default();
        // Registered out of name order, and `idle` never bumped.
        let z = m.id("z.hot");
        let idle = m.id("idle");
        let a = m.id("a.hot");
        assert_eq!(m.id("z.hot"), z, "a name keeps its id");
        m.bump(z, 2);
        m.incr("z.hot");
        m.add("a.hot", 0);
        m.incr("cold");
        assert_eq!(m.counter("z.hot"), 3);
        let listed: Vec<_> = m.counters().collect();
        // Name-sorted; a zero bump lists the key, a bare registration does not.
        assert_eq!(listed, [("a.hot", 0), ("cold", 1), ("z.hot", 3)]);
        assert_eq!(m.counter("idle"), 0);

        m.clear();
        assert_eq!(m.counters().count(), 0);
        m.bump(idle, 5);
        m.bump(a, 1);
        assert_eq!(m.counters().collect::<Vec<_>>(), [("a.hot", 1), ("idle", 5)]);
        assert_eq!(m.id("a.hot"), a, "ids survive clear()");
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
