//! # lc-prop — minimal deterministic property-testing harness
//!
//! The container this workspace builds in has no access to crates.io, so
//! the property tests that used to ride on `proptest` run on this small
//! in-repo harness instead. It keeps the part that matters for these
//! tests — many randomized cases from a deterministic, reproducible
//! stream — and drops shrinking: a failure report prints the exact seed
//! to replay the offending case.
//!
//! ```
//! lc_prop::check("addition commutes", |g| {
//!     let a = g.gen_range(0..1000u64);
//!     let b = g.gen_range(0..1000u64);
//!     assert_eq!(a + b, b + a);
//! });
//! ```
//!
//! Environment knobs:
//! * `LC_PROP_CASES` — number of cases per property (default 64).
//! * `LC_PROP_SEED` — base seed; with `LC_PROP_CASES=1` this replays a
//!   single failing case exactly as reported.

pub mod alloc;

use lc_des::SimRng;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Per-case generator: a seeded [`SimRng`] plus composite helpers.
///
/// Derefs to [`SimRng`], so `g.gen_range(..)`, `g.gen_f64()` and
/// `g.gen_bool()` are available directly.
pub struct Gen {
    rng: SimRng,
}

impl Deref for Gen {
    type Target = SimRng;
    fn deref(&self) -> &SimRng {
        &self.rng
    }
}
impl DerefMut for Gen {
    fn deref_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }
}

impl Gen {
    /// Generator for one case, fully determined by `seed`.
    #[expect(clippy::disallowed_methods, reason = "a property case owns the stream its seed names")]
    pub fn from_seed(seed: u64) -> Self {
        Gen { rng: SimRng::seed_from_u64(seed) }
    }

    /// Arbitrary full-width draws (the `any::<T>()` of the old harness).
    pub fn any_u8(&mut self) -> u8 {
        self.rng.next_u64() as u8
    }
    /// Arbitrary `u16`.
    pub fn any_u16(&mut self) -> u16 {
        self.rng.next_u64() as u16
    }
    /// Arbitrary `i16`.
    pub fn any_i16(&mut self) -> i16 {
        self.rng.next_u64() as i16
    }
    /// Arbitrary `u32`.
    pub fn any_u32(&mut self) -> u32 {
        self.rng.next_u64() as u32
    }
    /// Arbitrary `i32`.
    pub fn any_i32(&mut self) -> i32 {
        self.rng.next_u64() as i32
    }
    /// Arbitrary `u64`.
    pub fn any_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
    /// Arbitrary `i64`.
    pub fn any_i64(&mut self) -> i64 {
        self.rng.next_u64() as i64
    }
    /// Arbitrary *finite* `f32` (bit-pattern draws, non-finite rejected).
    pub fn any_f32(&mut self) -> f32 {
        loop {
            let v = f32::from_bits(self.rng.next_u64() as u32);
            if v.is_finite() {
                return v;
            }
        }
    }
    /// Arbitrary *finite* `f64` (bit-pattern draws, non-finite rejected).
    pub fn any_f64(&mut self) -> f64 {
        loop {
            let v = f64::from_bits(self.rng.next_u64());
            if v.is_finite() {
                return v;
            }
        }
    }
    /// Arbitrary Unicode scalar value.
    pub fn any_char(&mut self) -> char {
        loop {
            if let Some(c) = char::from_u32(self.rng.gen_range(0..0x11_0000u32)) {
                return c;
            }
        }
    }

    /// One element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.rng.gen_range(0..xs.len())]
    }

    /// A vector whose length is drawn from `len` and whose elements come
    /// from `f`.
    pub fn vec_of<T>(
        &mut self,
        len: std::ops::Range<usize>,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = if len.start == len.end { len.start } else { self.rng.gen_range(len) };
        (0..n).map(|_| f(self)).collect()
    }

    /// Arbitrary bytes, length drawn from `len`.
    pub fn bytes(&mut self, len: std::ops::Range<usize>) -> Vec<u8> {
        self.vec_of(len, |g| g.any_u8())
    }

    /// A string of characters from `alphabet`, length drawn from `len`.
    pub fn string_of(&mut self, alphabet: &str, len: std::ops::Range<usize>) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        let n = self.rng.gen_range(len);
        (0..n).map(|_| *self.pick(&chars)).collect()
    }

    /// Printable-ASCII string (the `[ -~]{..}` pattern).
    pub fn ascii_printable(&mut self, len: std::ops::Range<usize>) -> String {
        let n = self.rng.gen_range(len);
        (0..n).map(|_| self.rng.gen_range(0x20..0x7Fu32) as u8 as char).collect()
    }
}

/// Convenient alphabets for [`Gen::string_of`].
pub mod alphabet {
    /// `[a-z]`
    pub const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
    /// `[A-Za-z]`
    pub const ALPHA: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    /// `[A-Za-z0-9]`
    pub const ALNUM: &str =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    /// `[a-z0-9_]`
    pub const LOWER_IDENT: &str = "abcdefghijklmnopqrstuvwxyz0123456789_";
    /// `[A-Za-z0-9_-]`
    pub const NAME: &str =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-";
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Run `property` against `LC_PROP_CASES` random cases (default 64).
///
/// The property signals failure by panicking (plain `assert!` /
/// `assert_eq!`). On failure the harness prints the case index and the
/// exact seed to replay it, then re-raises the panic so the test fails.
pub fn check(label: &str, mut property: impl FnMut(&mut Gen)) {
    let cases = env_u64("LC_PROP_CASES", 64);
    let base = env_u64("LC_PROP_SEED", 0x1c_920_0db);
    for i in 0..cases {
        let seed = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut g = Gen::from_seed(seed);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut g))) {
            eprintln!(
                "lc-prop: property '{label}' failed at case {i}/{cases}; \
                 replay with LC_PROP_SEED={seed} LC_PROP_CASES=1"
            );
            resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Gen::from_seed(5);
        let mut b = Gen::from_seed(5);
        for _ in 0..50 {
            assert_eq!(a.any_u64(), b.any_u64());
        }
        assert_eq!(
            a.string_of(alphabet::NAME, 1..13),
            b.string_of(alphabet::NAME, 1..13)
        );
    }

    #[test]
    fn check_runs_all_cases() {
        let mut n = 0;
        check("counter", |_| n += 1);
        assert_eq!(n, env_u64("LC_PROP_CASES", 64));
    }

    #[test]
    fn generators_respect_bounds() {
        check("bounds", |g| {
            let s = g.string_of(alphabet::LOWER, 2..7);
            assert!((2..7).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            let p = g.ascii_printable(0..41);
            assert!(p.len() < 41);
            assert!(p.chars().all(|c| (' '..='~').contains(&c)));
            let v = g.vec_of(3..4, |g| g.any_i32());
            assert_eq!(v.len(), 3);
            assert!(g.any_f64().is_finite());
            assert!(g.any_f32().is_finite());
            let _ = g.any_char();
        });
    }
}
