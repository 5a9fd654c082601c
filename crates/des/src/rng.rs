//! Deterministic pseudo-random numbers for the simulation kernel.
//!
//! The kernel must be fully reproducible from a single `u64` seed (the
//! "same seed, same history" property the tests pin down), and the
//! container image carries no third-party crates, so the generator lives
//! here: xoshiro256** (Blackman & Vigna), seeded through SplitMix64 as
//! its authors recommend. Statistical quality is far beyond what the
//! exponential churn draws and jitter timers need, and the state is four
//! words — cloning a simulation snapshot is cheap.

use std::ops::Range;

/// The simulation RNG: xoshiro256** seeded via SplitMix64.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Derive a full 256-bit state from one word (SplitMix64 stream).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SimRng { s: [next(), next(), next(), next()] }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform draw from a half-open range; see [`SampleRange`] for the
    /// supported operand types.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Out {
        range.sample(self)
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fair coin.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// A half-open range [`SimRng::gen_range`] can sample uniformly.
pub trait SampleRange {
    /// Element type produced.
    type Out;
    /// Draw one value in the range.
    fn sample(self, rng: &mut SimRng) -> Self::Out;
}

/// Debiased integer draw in `[0, n)` (Lemire-style rejection would be
/// overkill here; the modulo bias over a 64-bit draw is ≤ 2⁻⁴⁰ for every
/// range the simulation uses, but reject anyway to keep draws exact).
fn uniform_below(rng: &mut SimRng, n: u64) -> u64 {
    debug_assert!(n > 0);
    let zone = u64::MAX - (u64::MAX - n + 1) % n;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % n;
        }
    }
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Out = $t;
            fn sample(self, rng: &mut SimRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
    )*};
}

int_range!(u8, u16, u32, u64, usize);

impl SampleRange for Range<f64> {
    type Out = f64;
    fn sample(self, rng: &mut SimRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        let v = self.start + rng.gen_f64() * (self.end - self.start);
        // Guard against end-inclusion from rounding.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "the generator's own tests seed it")]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SimRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.gen_range(3..17u64);
            assert!((3..17).contains(&v));
            let f = r.gen_range(0.25..0.75f64);
            assert!((0.25..0.75).contains(&f));
            let u = r.gen_range(0..5usize);
            assert!(u < 5);
        }
    }

    #[test]
    fn unit_interval_covers_halves() {
        let mut r = SimRng::seed_from_u64(9);
        let (mut lo, mut hi) = (0, 0);
        for _ in 0..1000 {
            if r.gen_f64() < 0.5 {
                lo += 1;
            } else {
                hi += 1;
            }
        }
        assert!(lo > 300 && hi > 300, "wildly skewed: {lo}/{hi}");
    }
}
