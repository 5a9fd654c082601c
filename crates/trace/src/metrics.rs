//! The metrics registry: named counters and fixed-bucket histograms
//! with deterministic boundaries, read in windows by the SLO monitor
//! ([`crate::slo`]). A node keeps its named node-level entries here
//! (`slo.*`, `cache.*`, `admission.*`); the per-message routing
//! counters are plain fields elsewhere and never build a key.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A histogram with fixed, explicit bucket boundaries.
///
/// `bounds` are upper bucket edges (inclusive); one implicit overflow
/// bucket catches everything above the last edge. Boundaries are fixed
/// at construction, so two runs that observe the same samples produce
/// identical bucket vectors — there is no dynamic rebucketing to leak
/// iteration order or allocation history into output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BucketHistogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl BucketHistogram {
    /// A histogram over explicit upper edges (must be strictly
    /// increasing; an empty list gives a single overflow bucket).
    pub fn new(bounds: &[u64]) -> BucketHistogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must increase");
        BucketHistogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    /// Geometric edges `start, start*factor, …` (`count` edges) — the
    /// standard latency shape (e.g. 1µs … by powers of 4).
    pub fn exponential(start: u64, factor: u64, count: usize) -> BucketHistogram {
        debug_assert!(start > 0 && factor > 1);
        let mut bounds = Vec::with_capacity(count);
        let mut edge = start;
        for _ in 0..count {
            bounds.push(edge);
            edge = edge.saturating_mul(factor);
        }
        BucketHistogram::new(&bounds)
    }

    /// Record one sample.
    pub fn observe(&mut self, v: u64) {
        let i = self.bounds.partition_point(|&b| b < v);
        self.counts[i] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `(upper_edge, count)` per bucket; the last entry uses
    /// `u64::MAX` as its edge (overflow bucket).
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(u64::MAX))
            .zip(self.counts.iter().copied())
    }

    /// Snapshot the cumulative state for later windowed deltas.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.counts.clone(),
            count: self.count,
            sum: self.sum,
        }
    }

    /// The window of samples observed since `prev` was taken, as a
    /// snapshot of per-bucket deltas. Cumulative accessors
    /// ([`BucketHistogram::count`] etc.) are untouched — this is a pure
    /// read, which is what burn-rate rules need.
    ///
    /// A `prev` from a differently-bucketed histogram (or from after a
    /// [`MetricsRegistry::clear`]) is treated as empty.
    pub fn delta_since(&self, prev: &HistogramSnapshot) -> HistogramSnapshot {
        let comparable = prev.bounds == self.bounds && prev.count <= self.count;
        let empty;
        let base = if comparable {
            prev
        } else {
            empty = HistogramSnapshot {
                bounds: self.bounds.clone(),
                counts: vec![0; self.counts.len()],
                count: 0,
                sum: 0,
            };
            &empty
        };
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .zip(base.counts.iter())
                .map(|(c, p)| c.saturating_sub(*p))
                .collect(),
            count: self.count - base.count,
            sum: self.sum.saturating_sub(base.sum),
        }
    }

    /// Render as `≤edge:count` pairs, skipping empty buckets.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (edge, n) in self.buckets() {
            if n == 0 {
                continue;
            }
            if !out.is_empty() {
                out.push(' ');
            }
            if edge == u64::MAX {
                let _ = write!(out, ">rest:{n}");
            } else {
                let _ = write!(out, "≤{edge}:{n}");
            }
        }
        out
    }
}

/// A point-in-time copy of a [`BucketHistogram`]'s cumulative state —
/// or, produced by [`BucketHistogram::delta_since`], the histogram of
/// one *window* of samples. Windowed SLO rules ([`crate::slo`]) keep one
/// of these per evaluation and diff against it next time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Upper bucket edges (inclusive), as in the source histogram.
    pub bounds: Vec<u64>,
    /// Per-bucket counts (one trailing overflow bucket).
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// A conservative quantile estimate: the upper edge of the first
    /// bucket at which the cumulative count reaches `q` (in parts per
    /// million) of the total. Returns `None` when empty; the overflow
    /// bucket reports `u64::MAX`. Deterministic — pure integer walk.
    pub fn quantile_le(&self, q_ppm: u32) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let need = (self.count as u128 * q_ppm as u128).div_ceil(1_000_000) as u64;
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= need {
                return Some(self.bounds.get(i).copied().unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }
}

/// A point-in-time copy of a [`MetricsRegistry`]'s counters and
/// histograms, for windowed delta reads.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Named counters and fixed-bucket histograms.
///
/// All maps are `BTreeMap`s, so iteration (and therefore any rendered
/// report) is deterministically ordered.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, BucketHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Increment counter `key` by 1.
    pub fn incr(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Increment counter `key` by `n`.
    pub fn add(&mut self, key: &str, n: u64) {
        if let Some(c) = self.counters.get_mut(key) {
            *c += n;
        } else {
            self.counters.insert(key.to_owned(), n);
        }
    }

    /// Current counter value (0 if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Iterate counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Record a sample into histogram `key`, creating it with `bounds`
    /// on first use (later calls keep the original bounds).
    pub fn observe(&mut self, key: &str, bounds: &[u64], v: u64) {
        if let Some(h) = self.histograms.get_mut(key) {
            h.observe(v);
            return;
        }
        let mut h = BucketHistogram::new(bounds);
        h.observe(v);
        self.histograms.insert(key.to_owned(), h);
    }

    /// Borrow a histogram, if anything was observed under `key`.
    pub fn histogram(&self, key: &str) -> Option<&BucketHistogram> {
        self.histograms.get(key)
    }

    /// Iterate histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &BucketHistogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Snapshot counters and histograms for later windowed deltas.
    /// Existing accessors are untouched — snapshots are pure reads.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            histograms: self.histograms.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect(),
        }
    }

    /// Counter `key`'s increase since `prev` was taken (0 for unknown
    /// keys; a counter below its snapshot — registry cleared — reads 0).
    pub fn counter_delta(&self, key: &str, prev: &MetricsSnapshot) -> u64 {
        self.counter(key).saturating_sub(prev.counters.get(key).copied().unwrap_or(0))
    }

    /// Histogram `key`'s window of samples since `prev` was taken.
    /// `None` when the histogram does not exist; a key absent from
    /// `prev` deltas against empty.
    pub fn histogram_delta(&self, key: &str, prev: &MetricsSnapshot) -> Option<HistogramSnapshot> {
        let h = self.histograms.get(key)?;
        match prev.histograms.get(key) {
            Some(p) => Some(h.delta_since(p)),
            None => Some(h.snapshot()),
        }
    }

    /// Reset everything.
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
        let mut r = MetricsRegistry::new();
        r.incr("a");
        r.add("a", 4);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.counters().collect::<Vec<_>>(), vec![("a", 5)]);
    }

    #[test]
    fn histogram_buckets_are_fixed() {
        let mut h = BucketHistogram::new(&[10, 100, 1000]);
        for v in [5, 10, 11, 99, 100, 5000] {
            h.observe(v);
        }
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets, vec![(10, 2), (100, 3), (1000, 0), (u64::MAX, 1)]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 5 + 10 + 11 + 99 + 100 + 5000);
        assert_eq!(h.render(), "≤10:2 ≤100:3 >rest:1");
    }

    #[test]
    fn exponential_edges() {
        let h = BucketHistogram::exponential(1_000, 4, 5);
        let edges: Vec<u64> = h.buckets().map(|(e, _)| e).collect();
        assert_eq!(edges, vec![1_000, 4_000, 16_000, 64_000, 256_000, u64::MAX]);
    }

    #[test]
    fn windowed_deltas_leave_cumulative_state_alone() {
        let mut r = MetricsRegistry::new();
        r.observe("lat", &[10, 100], 5);
        r.add("q.total", 3);
        let snap = r.snapshot();
        r.observe("lat", &[10, 100], 50);
        r.observe("lat", &[10, 100], 7);
        r.add("q.total", 4);
        let w = r.histogram_delta("lat", &snap).unwrap();
        assert_eq!(w.count, 2);
        assert_eq!(w.sum, 57);
        assert_eq!(w.counts, vec![1, 1, 0]);
        assert_eq!(r.counter_delta("q.total", &snap), 4);
        // cumulative accessors unchanged by the windowed reads
        assert_eq!(r.histogram("lat").unwrap().count(), 3);
        assert_eq!(r.counter("q.total"), 7);
        // a fresh key deltas against empty
        r.observe("new", &[1], 1);
        assert_eq!(r.histogram_delta("new", &snap).unwrap().count, 1);
    }

    #[test]
    fn snapshot_quantiles_walk_buckets() {
        let mut h = BucketHistogram::new(&[10, 100, 1000]);
        for v in [1, 2, 3, 50, 60, 70, 80, 500, 900, 5000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile_le(500_000), Some(100)); // 5th of 10 samples
        assert_eq!(s.quantile_le(900_000), Some(1000));
        assert_eq!(s.quantile_le(1_000_000), Some(u64::MAX));
        assert_eq!(HistogramSnapshot::default().quantile_le(500_000), None);
    }

    #[test]
    fn incompatible_delta_base_reads_as_empty() {
        let mut a = BucketHistogram::new(&[10]);
        a.observe(5);
        let mut b = BucketHistogram::new(&[99]);
        b.observe(1);
        let d = b.delta_since(&a.snapshot());
        assert_eq!(d.count, 1);
        assert_eq!(d.bounds, vec![99]);
    }

    #[test]
    fn registry_histograms_keep_first_bounds() {
        let mut r = MetricsRegistry::new();
        r.observe("lat", &[10, 20], 15);
        r.observe("lat", &[999], 5);
        let h = r.histogram("lat").unwrap();
        assert_eq!(h.buckets().map(|(e, _)| e).collect::<Vec<_>>(), vec![10, 20, u64::MAX]);
        assert_eq!(h.count(), 2);
    }
}
