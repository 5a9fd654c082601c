//! Virtual time for the simulation: a nanosecond counter with arithmetic
//! and human-readable formatting.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) virtual time, in nanoseconds.
///
/// `SimTime` is deliberately a single `u64`: simulations in this workspace
/// run for at most hours of virtual time, far below the ~584-year range of
/// a nanosecond `u64`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero / the empty duration.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// From nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }
    /// From microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }
    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }
    /// From seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }
    /// From fractional seconds (rounds to nearest nanosecond).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "negative or non-finite SimTime");
        SimTime(round_to_u64(s * 1e9))
    }

    /// As nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    /// As fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Scale by a float factor (for jittered timers); rounds to nearest ns.
    pub fn mul_f64(self, k: f64) -> SimTime {
        assert!(k >= 0.0 && k.is_finite(), "negative or non-finite scale");
        SimTime(round_to_u64(self.0 as f64 * k))
    }
}

/// `x.round() as u64` for `x ≥ 0`, without `f64::round`'s libm call: below
/// 2^53 the remainder is exact and a half rounds up; above, every `f64` is
/// an integer, and past `u64::MAX` both saturate.
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    t + u64::from(t < 1 << 53 && x - t as f64 >= 0.5)
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}
impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}
impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}
impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}
impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}
impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}
impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

fn fmt_time(ns: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ns == u64::MAX {
        write!(f, "never")
    } else if ns >= 1_000_000_000 {
        write!(f, "{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        write!(f, "{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        write!(f, "{:.3}us", ns as f64 / 1e3)
    } else {
        write!(f, "{}ns", ns)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_time(self.0, f)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_time(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimTime::from_secs_f64(0.5).as_nanos(), 500_000_000);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(3);
        assert_eq!(a + b, SimTime::from_millis(13));
        assert_eq!(a - b, SimTime::from_millis(7));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a * 3, SimTime::from_millis(30));
        assert_eq!(a / 2, SimTime::from_millis(5));
        assert_eq!(a.mul_f64(1.5), SimTime::from_millis(15));
        let v = [a, b, b];
        assert_eq!(v.into_iter().sum::<SimTime>(), SimTime::from_millis(16));
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimTime::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimTime::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimTime::from_secs(12).to_string(), "12.000s");
        assert_eq!(SimTime::MAX.to_string(), "never");
    }

    /// The integer rounding is `f64::round` bit for bit: on arbitrary
    /// finite non-negative doubles, on values near a half, and on the
    /// edges — the largest double below ½, 2^52 + ½ (which parses to
    /// 2^52), the doubles from 2^53 up, and those past `u64::MAX`.
    #[test]
    fn integer_rounding_matches_f64_round() {
        let pinned = [
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.499_999_999_999_999_94,
            4_503_599_627_370_496.5,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            9_007_199_254_740_994.0,
            18_446_744_073_709_549_568.0,
            18_446_744_073_709_551_616.0,
            1e300,
            f64::MAX,
        ];
        for x in pinned {
            assert_eq!(round_to_u64(x), x.round() as u64, "{x:e}");
        }
        lc_prop::check("integer rounding = f64::round", |g| {
            let x = g.any_f64().abs();
            assert_eq!(round_to_u64(x), x.round() as u64, "{x:e}");
            let half = (g.gen_range(0..1u64 << 40) as f64 + 0.5).to_bits();
            for y in [half - 1, half, half + 1].map(f64::from_bits) {
                assert_eq!(round_to_u64(y), y.round() as u64, "{y:e}");
            }
            let ns = g.gen_range(0..1u64 << 62);
            let k = g.gen_f64() * 4.0;
            let t = SimTime(ns).mul_f64(k);
            assert_eq!(t.0, (ns as f64 * k).round() as u64);
        });
    }

    #[test]
    #[should_panic]
    fn negative_scale_panics() {
        let _ = SimTime::from_secs(1).mul_f64(-1.0);
    }
}
