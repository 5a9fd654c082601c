//! [`BucketHistogram`]: the fixed-bucket sample store the SLO monitor
//! ([`crate::slo`]) keeps per latency rule for its current window. Run
//! totals are `lc_des::Summary`; run counters are `lc_des::Metrics`, under
//! the keys `lc_des::Counter` declares.

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
}

impl BucketHistogram {
    /// A histogram over explicit upper edges (must be strictly
    /// increasing; an empty list gives a single overflow bucket).
    pub fn new(bounds: &[u64]) -> BucketHistogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must increase");
        BucketHistogram { bounds: bounds.to_vec(), counts: vec![0; bounds.len() + 1], count: 0 }
    }

    /// Record one sample.
    pub fn observe(&mut self, v: u64) {
        let i = self.bounds.partition_point(|&b| b < v);
        self.counts[i] += 1;
        self.count += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

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

    /// Forget every sample; the bucket edges stay.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_fixed() {
        let mut h = BucketHistogram::new(&[10, 100, 1000]);
        for v in [5, 10, 11, 99, 100, 5000] {
            h.observe(v);
        }
        assert_eq!(h.counts, vec![2, 3, 0, 1]);
        assert_eq!(h.count(), 6);
        h.reset();
        assert_eq!(h, BucketHistogram::new(&[10, 100, 1000]));
    }

    #[test]
    fn snapshot_quantiles_walk_buckets() {
        let mut h = BucketHistogram::new(&[10, 100, 1000]);
        for v in [1, 2, 3, 50, 60, 70, 80, 500, 900, 5000] {
            h.observe(v);
        }
        assert_eq!(h.quantile_le(500_000), Some(100)); // 5th of 10 samples
        assert_eq!(h.quantile_le(900_000), Some(1000));
        assert_eq!(h.quantile_le(1_000_000), Some(u64::MAX));
        assert_eq!(BucketHistogram::new(&[10]).quantile_le(500_000), None);
    }
}
