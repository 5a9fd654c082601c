//! Constant-memory metric primitives for million-node campuses.
//!
//! The [`MetricsRegistry`](crate::MetricsRegistry) maps are fine for a
//! few thousand nodes, but at 10⁶ nodes anything per-node-keyed (one
//! `String` map entry per node) or sample-keeping (one `Vec` slot per
//! observation) dominates the heap. This module provides the streaming
//! replacements the scale path uses:
//!
//! * [`ShardedCounter`] — one logical counter split over a fixed power-
//!   of-two shard array; per-node traffic tallies collapse into 64
//!   cells instead of a million map entries, while still exposing which
//!   region of the id space generated the load.
//! * [`ReservoirHistogram`] — a fixed-size uniform sample of an
//!   unbounded observation stream (Vitter's Algorithm R) driven by an
//!   inline LCG, so memory is O(capacity) and two identical runs keep
//!   identical reservoirs. Exact percentiles over *all* samples are
//!   impossible at this scale; a 512-slot uniform reservoir bounds the
//!   quantile error well below the effects E13 measures.
//!
//! Everything here is deterministic and hermetic (lint rule D5): no
//! wall clock, no ambient entropy — the reservoir's replacement stream
//! is a fixed-constant LCG, reproducible by construction.

/// One logical counter split across a fixed power-of-two number of
/// shards keyed by a caller-supplied hint (node index, host id, …).
///
/// A million per-node tallies become `SHARDS` cells: constant memory,
/// and the shard profile still shows *where* in the id space the load
/// landed (the E13 hotspot column reads the maximum shard).
#[derive(Clone, Debug)]
pub struct ShardedCounter {
    shards: Box<[u64; ShardedCounter::SHARDS]>,
}

impl Default for ShardedCounter {
    fn default() -> Self {
        ShardedCounter::new()
    }
}

impl ShardedCounter {
    /// Number of shards (power of two so the hint folds with a mask).
    pub const SHARDS: usize = 64;

    /// All shards zero.
    pub fn new() -> ShardedCounter {
        ShardedCounter { shards: Box::new([0; ShardedCounter::SHARDS]) }
    }

    /// Add `n` under `hint` (any dense id; folded by mask).
    #[inline]
    pub fn add(&mut self, hint: usize, n: u64) {
        self.shards[hint & (ShardedCounter::SHARDS - 1)] += n;
    }

    /// Sum over all shards.
    pub fn total(&self) -> u64 {
        self.shards.iter().sum()
    }

    /// Largest single shard (load-concentration indicator).
    pub fn max_shard(&self) -> u64 {
        self.shards.iter().copied().max().unwrap_or(0)
    }

    /// Per-shard values.
    pub fn shards(&self) -> &[u64] {
        &self.shards[..]
    }
}

/// Multiplier/increment from Knuth's MMIX LCG — full period mod 2⁶⁴.
const LCG_MUL: u64 = 6_364_136_223_846_793_005;
const LCG_INC: u64 = 1_442_695_040_888_963_407;

/// Fixed-capacity uniform sample of an unbounded stream (Algorithm R).
///
/// Keeps count/sum/min/max exactly and at most `capacity` samples for
/// quantile estimates. The replacement draws come from an inline LCG
/// with fixed constants — not from the simulation RNG, so observing
/// metrics can never perturb protocol behaviour, and not from ambient
/// entropy, which lint rule D5 bans in this crate.
#[derive(Clone, Debug)]
pub struct ReservoirHistogram {
    samples: Vec<u64>,
    capacity: usize,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    lcg: u64,
    sorted: bool,
}

impl ReservoirHistogram {
    /// An empty reservoir holding at most `capacity` samples.
    pub fn new(capacity: usize) -> ReservoirHistogram {
        assert!(capacity > 0, "reservoir needs capacity");
        ReservoirHistogram {
            samples: Vec::new(),
            capacity,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            lcg: 0x1357_9BDF_2468_ACE0,
            sorted: false,
        }
    }

    #[inline]
    fn lcg_next(&mut self) -> u64 {
        self.lcg = self.lcg.wrapping_mul(LCG_MUL).wrapping_add(LCG_INC);
        // The low bits of an LCG are weak; fold the high half in.
        self.lcg ^ (self.lcg >> 32)
    }

    /// Record one observation. O(1), allocation-free once full.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if self.samples.len() < self.capacity {
            self.samples.push(v);
            self.sorted = false;
            return;
        }
        // Algorithm R: keep the i-th observation with probability k/i.
        let j = self.lcg_next() % self.count;
        if (j as usize) < self.capacity {
            self.samples[j as usize] = v;
            self.sorted = false;
        }
    }

    /// Observations seen (not the reservoir size).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact mean over all observations, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact minimum, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Estimated quantile (`q` in `[0, 1]`) from the reservoir by
    /// nearest rank; exact while `count ≤ capacity`.
    pub fn quantile(&mut self, q: f64) -> u64 {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        lc_des::nearest_rank(&self.samples, q).unwrap_or(0)
    }

    /// Samples currently held (≤ capacity).
    pub fn reservoir_len(&self) -> usize {
        self.samples.len()
    }

    /// Bytes the reservoir can ever hold — the constant-memory bound.
    pub fn max_bytes(&self) -> usize {
        self.capacity * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_counter_folds_hints_and_totals() {
        let mut s = ShardedCounter::new();
        for node in 0..1_000_000usize {
            s.add(node, 1);
        }
        assert_eq!(s.total(), 1_000_000);
        // 1M uniform ids spread exactly evenly over the 64 shards.
        assert_eq!(s.max_shard(), 15_625);
        assert_eq!(s.shards().len(), ShardedCounter::SHARDS);
        // Hint folding: 0 and 64 share a shard.
        let mut t = ShardedCounter::new();
        t.add(0, 5);
        t.add(64, 7);
        assert_eq!(t.shards()[0], 12);
    }

    #[test]
    fn reservoir_is_exact_until_capacity() {
        let mut r = ReservoirHistogram::new(8);
        for v in [5, 1, 9, 3] {
            r.observe(v);
        }
        assert_eq!(r.count(), 4);
        assert_eq!(r.sum(), 18);
        assert_eq!(r.min(), 1);
        assert_eq!(r.max(), 9);
        assert_eq!(r.quantile(0.5), 3);
        assert_eq!(r.quantile(1.0), 9);
        assert_eq!(r.reservoir_len(), 4);
    }

    #[test]
    fn reservoir_memory_is_constant_and_stats_exact_beyond_capacity() {
        let mut r = ReservoirHistogram::new(64);
        for v in 0..100_000u64 {
            r.observe(v);
        }
        assert_eq!(r.count(), 100_000);
        assert_eq!(r.sum(), 100_000 * 99_999 / 2);
        assert_eq!(r.min(), 0);
        assert_eq!(r.max(), 99_999);
        assert_eq!(r.reservoir_len(), 64);
        assert_eq!(r.max_bytes(), 64 * 8);
        // The uniform sample's median estimate lands near the true
        // median (loose bound — this is a 64-slot sketch).
        let med = r.quantile(0.5);
        assert!((20_000..80_000).contains(&med), "median estimate {med} wildly off");
    }

    #[test]
    fn reservoir_is_deterministic() {
        let run = || {
            let mut r = ReservoirHistogram::new(32);
            for v in 0..10_000u64 {
                r.observe(v.wrapping_mul(2654435761) % 1000);
            }
            (r.quantile(0.25), r.quantile(0.5), r.quantile(0.99), r.count(), r.sum())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_reservoir_reports_zeroes() {
        let mut r = ReservoirHistogram::new(4);
        assert_eq!(r.count(), 0);
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.min(), 0);
        assert_eq!(r.max(), 0);
        assert_eq!(r.quantile(0.5), 0);
    }
}
