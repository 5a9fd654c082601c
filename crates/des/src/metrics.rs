//! Simulation-wide measurement: named counters and sample summaries.
//!
//! Every experiment in `lc-bench` reads its reported quantities (messages
//! per query, control bandwidth, failover latency, …) from a [`Metrics`]
//! sink, so protocol code records measurements with one call and stays free
//! of experiment-specific plumbing.

use std::collections::BTreeMap;

/// Nearest-rank quantile of an ascending `sorted` slice: the element at
/// rank `⌈q·n⌉` (1-based, clamped into the slice), `None` when empty.
/// `q` in `[0, 1]`. The workspace's one quantile definition: the scale
/// campus and every experiment that prints a percentile call it.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    sorted.get(rank - 1).copied()
}

/// Running totals of a stream of samples: four scalars, no sample kept.
/// For a quantile over a window use `lc_trace::BucketHistogram`
/// (fixed buckets, reset per window).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "non-finite sample");
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples, accumulated in record order.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Minimum sample, or 0.0 when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum sample, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Handle to one counter of a [`Metrics`], from [`Metrics::id`].
///
/// Valid only for the `Metrics` that issued it (and its clones), for
/// that sink's whole life — [`Metrics::clear`] keeps ids.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CounterId(u32);

/// Named counters and sample summaries for one simulation run.
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
    summaries: BTreeMap<&'static str, Summary>,
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

    /// Record a sample into summary `key`.
    pub fn record(&mut self, key: &'static str, v: f64) {
        self.summaries.entry(key).or_default().record(v);
    }

    /// The summary under `key` (`None` if nothing was recorded).
    pub fn summary(&self, key: &str) -> Option<&Summary> {
        self.summaries.get(key)
    }

    /// Iterate the counters bumped since the last [`Metrics::clear`], in
    /// key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.ids.iter().filter_map(|(k, id)| Some((*k, self.cells[id.0 as usize]?)))
    }

    /// Iterate summaries in key order.
    pub fn summaries(&self) -> impl Iterator<Item = (&str, &Summary)> {
        self.summaries.iter().map(|(k, v)| (*k, v))
    }

    /// Reset everything (between experiment repetitions). Issued
    /// [`CounterId`]s stay valid.
    pub fn clear(&mut self) {
        self.cells.fill(None);
        self.summaries.clear();
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
        let mut h = Summary::default();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 15.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 5.0);
        assert_eq!(std::mem::size_of::<Summary>(), 32, "four scalars, no per-sample storage");
    }

    #[test]
    fn nearest_rank_picks_ceil_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&v, 0.5), Some(2.0));
        assert_eq!(nearest_rank(&v, 0.51), Some(3.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(4.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank::<u64>(&[], 0.5), None);
        // One sample is every quantile.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(nearest_rank(&[7u64], q), Some(7));
        }
        // The call shapes of E7 (p95), E10 and E14 (p50/p99) over the
        // values 1..=n: rank ⌈q·n⌉. Each comment gives the value the
        // experiment's former private index picked.
        let to = |n: u64| (1..=n).collect::<Vec<u64>>();
        assert_eq!(nearest_rank(&to(20), 0.95), Some(19)); // E7 index ⌊0.95·20⌋: 20
        assert_eq!(nearest_rank(&to(200), 0.50), Some(100)); // index round(199·0.50): 101
        assert_eq!(nearest_rank(&to(200), 0.99), Some(198)); // index round(199·0.99): 198
        assert_eq!(nearest_rank(&to(96), 0.99), Some(96)); // index round(95·0.99): 95
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Summary::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        let mut neg = Summary::default();
        neg.record(-2.0);
        assert_eq!((neg.min(), neg.max()), (-2.0, -2.0), "the first sample seeds both bounds");
    }

    #[test]
    fn metrics_record_routes_to_histogram() {
        let mut m = Metrics::default();
        m.record("lat", 1.0);
        m.record("lat", 3.0);
        assert_eq!(m.summary("lat").unwrap().sum(), 4.0);
        assert!(m.summary("nope").is_none());
        m.clear();
        assert!(m.summary("lat").is_none());
    }
}
