//! Deterministic head-based trace sampling.
//!
//! At 100k–1M-node scale, recording every span is the memory bottleneck
//! — not the spans' cost on the wire (they have none; this is a DES)
//! but the tracer's retained map. Head sampling bounds that: the keep/
//! drop decision is made **once, at root-span creation**, and travels
//! with the [`crate::TraceContext`] in message headers, so a trace is
//! recorded whole or not at all (the sampled span set is prefix-closed
//! — in fact subtree-complete — with respect to the full span forest).
//!
//! The decision is a pure function of `(seed, root span id)` — a
//! fixed-constant splitmix64 mix, no RNG stream, no wall clock — so the
//! same configuration samples the same traces on every run, and span
//! ids are still allocated for *unsampled* traces (the per-node
//! counters advance identically), which keeps a sampled run's recorded
//! spans byte-identical to the same spans in an unsampled run.

use crate::span::SpanId;

/// Head-sampling configuration: keep `rate_ppm` parts-per-million of
/// traces, decided by a seeded hash of the root span id.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SampleConfig {
    /// Traces kept, in parts per million (`1_000_000` keeps everything,
    /// `0` keeps nothing).
    pub rate_ppm: u32,
    /// Decision seed: different seeds select different trace subsets at
    /// the same rate.
    pub seed: u64,
}

impl SampleConfig {
    /// Keep everything (the decision never drops).
    pub const ALL: SampleConfig = SampleConfig { rate_ppm: 1_000_000, seed: 0 };

    /// A rate of one trace in `n`.
    pub fn one_in(n: u32, seed: u64) -> SampleConfig {
        SampleConfig { rate_ppm: 1_000_000 / n.max(1), seed }
    }
}

/// Fixed-constant splitmix64 finalizer: deterministic and seedable, no
/// entropy.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The head-sampling decision for a trace rooted at `root`.
pub fn decide(cfg: SampleConfig, root: SpanId) -> bool {
    if cfg.rate_ppm >= 1_000_000 {
        return true;
    }
    if cfg.rate_ppm == 0 {
        return false;
    }
    mix(cfg.seed ^ root.0) % 1_000_000 < cfg.rate_ppm as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_is_deterministic_and_seed_sensitive() {
        let id = SpanId::compose(3, 17);
        let a = SampleConfig { rate_ppm: 500_000, seed: 1 };
        assert_eq!(decide(a, id), decide(a, id));
        // across many ids, two seeds must disagree somewhere
        let b = SampleConfig { rate_ppm: 500_000, seed: 2 };
        let differs = (0..256u64)
            .map(|s| SpanId::compose(0, s + 1))
            .any(|id| decide(a, id) != decide(b, id));
        assert!(differs);
    }

    #[test]
    fn rate_extremes_and_proportion() {
        let ids: Vec<SpanId> = (0..4096u64).map(|s| SpanId::compose(1, s + 1)).collect();
        assert!(ids.iter().all(|&i| decide(SampleConfig::ALL, i)));
        assert!(!ids.iter().any(|&i| decide(SampleConfig { rate_ppm: 0, seed: 9 }, i)));
        let kept = ids
            .iter()
            .filter(|&&i| decide(SampleConfig::one_in(16, 5), i))
            .count();
        // 1/16 of 4096 = 256 expected; allow a generous band
        assert!((128..=512).contains(&kept), "kept {kept} of 4096");
    }
}
