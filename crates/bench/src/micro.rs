//! The one place in the workspace that reads a wall clock (lint rule D1
//! exempts this module and nothing else): E1 and E9, the two wall-clock
//! experiments, time through [`measure`] — calibrate an iteration count
//! to a target sample duration, take several samples, report the median
//! (robust against scheduler noise). Tracked per-layer host costs live
//! in the repo's benchmark, `.perf/README.md`.

use std::time::{Duration, Instant};

/// One measured benchmark: median/min/max ns per iteration.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Median over samples, ns per iteration.
    pub median_ns: f64,
    /// Fastest sample, ns per iteration.
    pub min_ns: f64,
    /// Slowest sample, ns per iteration.
    pub max_ns: f64,
    /// Iterations per sample the runner calibrated to.
    pub iters: u64,
}

/// Measure `f`, auto-calibrating so each sample runs ~40 ms, then taking
/// 7 samples. Set `LC_BENCH_FAST=1` to cut this ~5× for smoke runs.
pub fn measure(mut f: impl FnMut()) -> Measurement {
    let fast = std::env::var("LC_BENCH_FAST").is_ok();
    let (target, samples) = if fast {
        (Duration::from_millis(8), 3)
    } else {
        (Duration::from_millis(40), 7)
    };

    // Warm-up + calibration: run until the target duration passes once.
    let start = Instant::now();
    let mut iters: u64 = 0;
    while start.elapsed() < target {
        f();
        iters += 1;
    }
    let iters = iters.max(1);

    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.total_cmp(b));
    Measurement {
        median_ns: per_iter[per_iter.len() / 2],
        min_ns: per_iter[0],
        max_ns: per_iter[per_iter.len() - 1],
        iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_sane_numbers() {
        std::env::set_var("LC_BENCH_FAST", "1");
        let mut x = 0u64;
        let m = measure(|| x = x.wrapping_add(std::hint::black_box(1)));
        assert!(m.iters >= 1);
        assert!(m.median_ns >= 0.0);
        assert!(m.min_ns <= m.median_ns && m.median_ns <= m.max_ns);
    }
}
