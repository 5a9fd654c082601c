//! Seeded open-loop arrival processes.
//!
//! A non-homogeneous Poisson process with intensity `λ(t)` is sampled
//! by Lewis–Shedler thinning: candidate gaps are drawn from the
//! homogeneous process at `λmax` via inverse-CDF, then each candidate
//! is kept with probability `λ(t)/λmax`. All randomness comes from one
//! confined [`SimRng`] stream and the *draw order is fixed per
//! candidate* (gap, accept, user, key), so the emitted sequence is a
//! pure function of the configuration — rejected candidates consume
//! the same number of draws as accepted ones.
//!
//! This module is the only place in the crate that seeds an RNG
//! (`clippy.toml` disallows `SimRng::seed_from_u64`; [`ArrivalStream::new`]
//! carries the `#[expect]`).

use lc_des::{SimRng, SimTime};

/// Shape of the arrival intensity `λ(t)` over the run horizon.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalShape {
    /// Constant intensity: `λ(t) = rate`.
    Steady,
    /// Diurnal wave: a triangle wave dips the intensity by up to
    /// `depth` (0..=1) per `period` — `λ(t) = rate·(1 − depth·tri(t))`
    /// where `tri` is 1 at period boundaries and 0 mid-period, so each
    /// period peaks at `rate` in the middle ("midday") and bottoms out
    /// at `rate·(1−depth)` at the edges ("night"). A triangle instead
    /// of a sinusoid keeps the arithmetic exactly portable.
    Diurnal {
        /// Wave period.
        period: SimTime,
        /// Fractional dip at period boundaries, clamped to [0, 1].
        depth: f64,
    },
    /// Flash crowd: intensity jumps to `rate·magnitude` inside the
    /// window `[at, at+width)` and is `rate` elsewhere.
    Flash {
        /// Window start.
        at: SimTime,
        /// Window length.
        width: SimTime,
        /// Intensity multiplier inside the window (≥ 1).
        magnitude: f64,
    },
}

impl ArrivalShape {
    /// `λ(t)` in arrivals/second for base `rate`.
    fn lambda(&self, rate: f64, t: SimTime) -> f64 {
        match *self {
            ArrivalShape::Steady => rate,
            ArrivalShape::Diurnal { period, depth } => {
                let depth = depth.clamp(0.0, 1.0);
                let p = period.as_nanos().max(1);
                let phase = (t.as_nanos() % p) as f64 / p as f64;
                let tri = (2.0 * phase - 1.0).abs();
                rate * (1.0 - depth * tri)
            }
            ArrivalShape::Flash { at, width, magnitude } => {
                if t >= at && t < at + width {
                    rate * magnitude.max(1.0)
                } else {
                    rate
                }
            }
        }
    }

    /// Upper bound on `λ(t)` (the thinning envelope).
    fn lambda_max(&self, rate: f64) -> f64 {
        match *self {
            ArrivalShape::Steady | ArrivalShape::Diurnal { .. } => rate,
            ArrivalShape::Flash { magnitude, .. } => rate * magnitude.max(1.0),
        }
    }

    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalShape::Steady => "steady",
            ArrivalShape::Diurnal { .. } => "diurnal",
            ArrivalShape::Flash { .. } => "flash",
        }
    }
}

/// Zipf-skewed key sampler: key `i` (0-based rank) has weight
/// `1/(i+1)^s`, drawn by inverse-CDF over the normalized harmonic
/// cumulative table. `s = 0` degenerates to uniform.
#[derive(Clone, Debug)]
pub struct ZipfKeys {
    cdf: Vec<f64>,
}

impl ZipfKeys {
    /// A sampler over `n ≥ 1` keys with exponent `s ≥ 0`.
    pub fn new(n: usize, s: f64) -> ZipfKeys {
        let n = n.max(1);
        let s = s.max(0.0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfKeys { cdf }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when only one key exists.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draw one key rank in `0..len()`.
    pub fn draw(&self, rng: &mut SimRng) -> u64 {
        let u = rng.gen_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1) as u64
    }
}

/// One open-loop arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual arrival instant (strictly increasing within a stream).
    pub at: SimTime,
    /// Position in the stream, 0-based (dense: no gaps, no repeats).
    pub index: u64,
    /// Simulated user id in `0..users`.
    pub user: u64,
    /// Zipf-skewed key rank (hot-spot routing).
    pub key: u64,
}

/// Full configuration of one arrival stream.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Intensity shape.
    pub shape: ArrivalShape,
    /// Base intensity in arrivals/second (must be finite and > 0).
    pub rate_per_sec: f64,
    /// Stream seed (confined: the stream owns its RNG).
    pub seed: u64,
    /// Arrivals at or past the horizon are never emitted.
    pub horizon: SimTime,
    /// Simulated user population (ids drawn uniformly).
    pub users: u64,
    /// Key skew.
    pub keys: ZipfKeys,
}

/// Iterator of [`Arrival`]s, fully determined by its [`StreamConfig`].
#[derive(Clone, Debug)]
pub struct ArrivalStream {
    cfg: StreamConfig,
    rng: SimRng,
    t: SimTime,
    index: u64,
    done: bool,
}

impl ArrivalStream {
    /// A stream positioned at virtual time zero.
    #[expect(clippy::disallowed_methods, reason = "the arrival process owns the workload stream")]
    pub fn new(cfg: StreamConfig) -> ArrivalStream {
        assert!(
            cfg.rate_per_sec.is_finite() && cfg.rate_per_sec > 0.0,
            "arrival rate must be finite and positive"
        );
        let rng = SimRng::seed_from_u64(cfg.seed);
        ArrivalStream { cfg, rng, t: SimTime::ZERO, index: 0, done: false }
    }

    /// The `index % count == index_of_this_driver` slice of the stream:
    /// how one logical workload is fanned over `count` front-end
    /// drivers. The slices of a config partition the full stream —
    /// every arrival lands in exactly one slice (property-tested).
    pub fn split(cfg: StreamConfig, index: usize, count: usize) -> impl Iterator<Item = Arrival> {
        assert!(count > 0 && index < count, "split index out of range");
        let count = count as u64;
        let index = index as u64;
        ArrivalStream::new(cfg).filter(move |a| a.index % count == index)
    }
}

impl Iterator for ArrivalStream {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        if self.done {
            return None;
        }
        let lmax = self.cfg.shape.lambda_max(self.cfg.rate_per_sec);
        loop {
            // Inverse-CDF exponential gap at the envelope rate; the 1 ns
            // floor keeps arrival times strictly increasing.
            let u = self.rng.gen_f64();
            let gap_s = -(1.0 - u).ln() / lmax;
            let gap = SimTime::from_secs_f64(gap_s).max(SimTime::from_nanos(1));
            self.t += gap;
            if self.t >= self.cfg.horizon {
                self.done = true;
                return None;
            }
            // Fixed draw order per candidate — see module docs.
            let accept = self.rng.gen_f64() * lmax < self.cfg.shape.lambda(self.cfg.rate_per_sec, self.t);
            let user = self.rng.gen_range(0..self.cfg.users.max(1));
            let key = self.cfg.keys.draw(&mut self.rng);
            if accept {
                let a = Arrival { at: self.t, index: self.index, user, key };
                self.index += 1;
                return Some(a);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(shape: ArrivalShape) -> StreamConfig {
        StreamConfig {
            shape,
            rate_per_sec: 5_000.0,
            seed: 7,
            horizon: SimTime::from_millis(500),
            users: 1_000,
            keys: ZipfKeys::new(64, 1.0),
        }
    }

    #[test]
    fn steady_rate_close_to_nominal() {
        let n = ArrivalStream::new(cfg(ArrivalShape::Steady)).count() as f64;
        let expect = 5_000.0 * 0.5;
        assert!((n - expect).abs() < expect * 0.1, "got {n}, expected ~{expect}");
    }

    #[test]
    fn flash_window_concentrates_arrivals() {
        let shape = ArrivalShape::Flash {
            at: SimTime::from_millis(200),
            width: SimTime::from_millis(100),
            magnitude: 4.0,
        };
        let arrivals: Vec<_> = ArrivalStream::new(cfg(shape)).collect();
        let inside = arrivals
            .iter()
            .filter(|a| a.at >= SimTime::from_millis(200) && a.at < SimTime::from_millis(300))
            .count() as f64;
        let before = arrivals.iter().filter(|a| a.at < SimTime::from_millis(100)).count() as f64;
        assert!(inside > before * 2.5, "flash window {inside} vs baseline {before}");
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "draws keys from a stream of its own")]
    fn zipf_rank_zero_is_hottest() {
        let mut rng = SimRng::seed_from_u64(3);
        let keys = ZipfKeys::new(16, 1.2);
        let mut counts = [0u64; 16];
        for _ in 0..10_000 {
            counts[keys.draw(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[8] * 3, "skew missing: {counts:?}");
    }
}
