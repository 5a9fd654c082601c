//! The run engine: epochs of segments, each segment timed on the process
//! CPU clock and bracketed by the reference kernel.

use crate::clock::{cpu_ns, normalise_us, reference_ns};
use crate::spans::Spans;
use crate::stats::{median, quantile_sorted, Fnv};
use crate::workload::{self, Counters, Outcomes};
use crate::{alloc, clock};
use std::time::Instant;

/// Fresh worlds per run: bounds memory growth (the node stack retains
/// ≈430 B per invoke) and averages over heap layouts and seeds.
pub const EPOCHS: u32 = 4;

pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    /// How long the measured segments of the whole run should take.
    pub seconds: f64,
    /// Divides segment and world sizes; 1 for a real run.
    pub shrink: u32,
}

/// What one epoch measured.
pub struct EpochMeasure {
    /// Normalised CPU from epoch start to the first measured segment, µs.
    pub setup_us: f64,
    /// Normalised µs per op, one entry per measured segment.
    pub segment_us_per_op: Vec<f64>,
    /// Raw CPU ns per op, same segments — a diagnostic.
    pub segment_raw_ns_per_op: Vec<f64>,
    /// Every reference-kernel timing taken, ns.
    pub reference_ns: Vec<f64>,
    pub ops: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Exact counters over the measured segments (end − start).
    pub delta: Counters,
    /// Hash of every counter at the end of the epoch.
    pub counters_fp: u64,
    /// The wall-clock guard cut the epoch short (slow host).
    pub truncated: bool,
    /// Wall seconds the measured segments took, reference runs included.
    pub measure_wall_s: f64,
    pub profile: Vec<(String, u64)>,
}

fn delta(start: &Counters, end: &Counters) -> Counters {
    end.iter()
        .map(|(k, v)| (k.clone(), v - start.get(k).copied().unwrap_or(0)))
        .collect()
}

/// How many measured segments each epoch of a `seconds`-long run has.
fn segments_per_epoch(workload: &str, seconds: f64) -> u32 {
    let p = workload::profile_of(workload);
    let n = (seconds / f64::from(EPOCHS) / p.nominal_segment_s).round() as u32;
    n.max(p.min_segments)
}

/// Run one epoch. With `spans` enabled the segment's two halves are timed
/// separately and the kernel profiler is on — the traced configuration.
fn run_epoch(
    workload: &str,
    seed: u64,
    shrink: u32,
    segments: u32,
    spans: &mut Spans,
    out: &mut Outcomes,
) -> EpochMeasure {
    let profile = workload::profile_of(workload);
    // A host several times slower than the reference box must still finish
    // inside the benchmark's time cap: at twice what the segments should
    // take, the epoch stops early and says so.
    let wall_budget_s = 2.0 * f64::from(segments) * profile.nominal_segment_s;
    let traced = spans.enabled();
    let epoch_span = spans.begin("epoch");

    let mut reference = vec![reference_ns()];
    let setup_t0 = cpu_ns();
    let mut epoch = workload::build(workload, seed, shrink, spans);
    if traced {
        epoch.enable_profiler();
    }
    let warm = spans.begin("warmup");
    let mut discard = Outcomes::new();
    for _ in 0..profile.warmup_segments {
        epoch.prepare();
        epoch.submit();
        epoch.advance();
        epoch.harvest(&mut discard);
    }
    spans.end(warm);
    let setup_cpu = (cpu_ns() - setup_t0) as f64;
    epoch.start_measuring();
    let start = epoch.counters();
    reference.push(reference_ns());
    let setup_us = normalise_us(setup_cpu, reference[0], reference[1]);

    let mut m = EpochMeasure {
        setup_us,
        segment_us_per_op: Vec::new(),
        segment_raw_ns_per_op: Vec::new(),
        reference_ns: Vec::new(),
        ops: 0,
        allocs: 0,
        alloc_bytes: 0,
        delta: Counters::new(),
        counters_fp: 0,
        truncated: false,
        measure_wall_s: 0.0,
        profile: Vec::new(),
    };
    let wall = Instant::now();
    for i in 0..segments {
        if wall.elapsed().as_secs_f64() > wall_budget_s {
            m.truncated = true;
            break;
        }
        epoch.prepare();
        let seg = if traced {
            spans.begin(&format!("segment[{i}]"))
        } else {
            None
        };
        let (a0, b0) = alloc::snapshot();
        let t0 = cpu_ns();
        let s = spans.begin("submit");
        epoch.submit();
        spans.end(s);
        let s = spans.begin("run_until");
        epoch.advance();
        spans.end(s);
        let cpu = (cpu_ns() - t0) as f64;
        let (a1, b1) = alloc::snapshot();
        spans.end(seg);

        let r = if traced {
            spans.begin(&format!("reference[{i}]"))
        } else {
            None
        };
        let before = *reference.last().expect("primed above");
        let after = reference_ns();
        spans.end(r);
        reference.push(after);

        let ops = epoch.segment_ops().max(1);
        m.segment_us_per_op
            .push(normalise_us(cpu, before, after) / ops as f64);
        m.segment_raw_ns_per_op.push(cpu / ops as f64);
        m.ops += ops;
        m.allocs += a1 - a0;
        m.alloc_bytes += b1 - b0;
        epoch.harvest(out);
    }
    m.measure_wall_s = wall.elapsed().as_secs_f64();
    let end = epoch.counters();
    m.delta = delta(&start, &end);
    m.profile = epoch.profile();
    epoch.finish(out);

    let mut fp = Fnv::new();
    for (k, v) in epoch.counters() {
        fp.bytes(k.as_bytes());
        fp.u64(v);
    }
    m.counters_fp = fp.finish();
    m.reference_ns = reference;
    spans.end(epoch_span);
    m
}

/// The end-to-end metrics `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("host_us_per_op", "us"),
    ("allocs_per_op", "count"),
    ("alloc_bytes_per_op", "B"),
    ("peak_rss_mb", "MiB"),
    ("sim_mean_ms", "ms"),
    ("sim_msgs_per_op", "count"),
];

/// Everything an untraced run reports.
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub epochs: Vec<EpochMeasure>,
    pub outcomes: Outcomes,
    pub wall_s: f64,
}

impl RunResult {
    pub fn ops(&self) -> u64 {
        self.epochs.iter().map(|e| e.ops).sum()
    }

    fn segments(&self) -> Vec<f64> {
        self.epochs
            .iter()
            .flat_map(|e| e.segment_us_per_op.iter().copied())
            .collect()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.epochs
            .iter()
            .map(|e| e.delta.get(name).copied().unwrap_or(0))
            .sum()
    }

    pub fn per_op(&self, name: &str) -> f64 {
        self.counter(name) as f64 / self.ops().max(1) as f64
    }

    pub fn setup_s(&self) -> f64 {
        median(&self.epochs.iter().map(|e| e.setup_us).collect::<Vec<_>>()) / 1e6
    }

    pub fn host_us_per_op(&self) -> f64 {
        median(&self.segments())
    }

    pub fn allocs_per_op(&self) -> f64 {
        self.epochs.iter().map(|e| e.allocs).sum::<u64>() as f64 / self.ops().max(1) as f64
    }

    pub fn alloc_bytes_per_op(&self) -> f64 {
        self.epochs.iter().map(|e| e.alloc_bytes).sum::<u64>() as f64 / self.ops().max(1) as f64
    }

    /// Mean virtual-time latency of the ops that succeeded, ms.
    pub fn sim_mean_ms(&self) -> f64 {
        let l = &self.outcomes.latency_ns;
        l.iter().sum::<u64>() as f64 / l.len().max(1) as f64 / 1e6
    }

    /// Virtual-time latency quantile, ms (nearest rank).
    pub fn sim_quantile_ms(&self, q: f64) -> f64 {
        let mut l: Vec<f64> = self.outcomes.latency_ns.iter().map(|&n| n as f64).collect();
        l.sort_by(f64::total_cmp);
        quantile_sorted(&l, q) / 1e6
    }

    /// One hash over every epoch's counters and every op's outcome: a
    /// speed-only change must leave it identical.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fnv::new();
        for e in &self.epochs {
            fp.u64(e.counters_fp);
        }
        fp.u64(self.outcomes.fp.finish());
        fp.finish()
    }

    pub fn correct(&self) -> bool {
        self.outcomes.violations.is_empty() && self.counter("load.late") == 0
    }

    /// The end-to-end metrics: `(name, value, unit)` in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let values = [
            self.setup_s(),
            self.host_us_per_op(),
            self.allocs_per_op(),
            self.alloc_bytes_per_op(),
            clock::peak_rss_mib(),
            self.sim_mean_ms(),
            self.per_op("net.msgs"),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    }

    /// Diagnostics that go to the JSON file but are not metrics.
    pub fn diagnostics(&self) -> Vec<(&'static str, f64)> {
        let mut segs = self.segments();
        segs.sort_by(f64::total_cmp);
        let raw: Vec<f64> = self
            .epochs
            .iter()
            .flat_map(|e| e.segment_raw_ns_per_op.iter().copied())
            .collect();
        let mut refs: Vec<f64> = self
            .epochs
            .iter()
            .flat_map(|e| e.reference_ns.iter().copied())
            .collect();
        refs.sort_by(f64::total_cmp);
        vec![
            ("segments", segs.len() as f64),
            ("ops", self.ops() as f64),
            ("segment_p95_us_per_op", quantile_sorted(&segs, 0.95)),
            ("raw_median_ns_per_op", median(&raw)),
            (
                "reference_min_us",
                refs.first().copied().unwrap_or(0.0) / 1e3,
            ),
            ("reference_median_us", median(&refs) / 1e3),
            (
                "reference_max_us",
                refs.last().copied().unwrap_or(0.0) / 1e3,
            ),
            ("reference_nominal_us", clock::REF_NOMINAL_US),
            (
                "truncated",
                f64::from(u8::from(self.epochs.iter().any(|e| e.truncated))),
            ),
            ("late_share", self.per_op("load.late")),
            (
                "measure_wall_s",
                self.epochs.iter().map(|e| e.measure_wall_s).sum(),
            ),
            ("wall_s", self.wall_s),
        ]
    }
}

/// Run `epochs` epochs (seeds `seed`, `seed + 1`, …), each as long as one
/// of the [`EPOCHS`] epochs of a full `opts.seconds` run. The end-to-end
/// metrics come from a full run with `spans` off.
pub fn run(opts: &RunOpts, epochs: u32, spans: &mut Spans) -> RunResult {
    let wall = Instant::now();
    let segments = segments_per_epoch(&opts.workload, opts.seconds);
    let mut outcomes = Outcomes::new();
    let epochs = (0..epochs)
        .map(|e| {
            run_epoch(
                &opts.workload,
                opts.seed + u64::from(e),
                opts.shrink,
                segments,
                spans,
                &mut outcomes,
            )
        })
        .collect();
    RunResult {
        workload: opts.workload.clone(),
        seed: opts.seed,
        epochs,
        outcomes,
        wall_s: wall.elapsed().as_secs_f64(),
    }
}
