//! `scale_hier`: the packed event lane and the struct-of-arrays campus at
//! a million nodes — no `Net`, ORB or `Node` at all, so every net / orb /
//! node optimisation predicts *no change* here.
//!
//! One segment is one `run_scale` call; the op is one kernel event. The
//! scale model draws no randomness, so the seed picks the campus size
//! (within 0.4 % of 10⁶) instead: different seeds run different, equally
//! large campuses.

use super::{Counters, Epoch, Outcomes, Profile, Stack};
use lc_core::scale::{run_scale_profiled, ScaleConfig, ScaleReport, Variant, KIND_NAMES};
use lc_des::{ProfilerConfig, SimTime};

const NODES: u32 = 1_000_000;
/// As many as fit the measure round: queries start 2 ms apart, 125 ms
/// into a 2 s round, and one issued after the round's end never runs.
const QUERIES: u32 = 900;

pub const PROFILE: Profile = Profile {
    warmup_segments: 1,
    nominal_segment_s: 0.356,
    min_segments: 4,
    stack: Stack::ScaleModel,
    background_node_periods_per_op: 0.0,
};

pub struct ScaleHier {
    cfg: ScaleConfig,
    seed: u64,
    profiled: bool,
    last: Option<ScaleReport>,
    last_profile: Vec<(String, u64)>,
    totals: Counters,
}

impl ScaleHier {
    pub fn build(seed: u64, shrink: u32) -> ScaleHier {
        let span = NODES / shrink;
        // splitmix64 finaliser: spread neighbouring seeds over the range.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let n = span - ((z ^ (z >> 31)) % u64::from(span / 256)) as u32;
        let cfg = ScaleConfig {
            queries: (QUERIES / shrink).max(16),
            ..ScaleConfig::new(n, Variant::Hier)
        };
        ScaleHier {
            cfg,
            seed,
            profiled: false,
            last: None,
            last_profile: Vec::new(),
            totals: Counters::new(),
        }
    }
}

impl Epoch for ScaleHier {
    fn prepare(&mut self) {}

    fn submit(&mut self) {}

    fn advance(&mut self) {
        let prof = self.profiled.then(|| ProfilerConfig {
            sample_every: SimTime::ZERO,
            ..ProfilerConfig::default()
        });
        let (report, profile) = run_scale_profiled(self.cfg.clone(), self.seed, prof);
        for (name, v) in [
            ("des.events", report.events),
            ("net.msgs", report.traffic_total),
            ("query.msgs", report.query_msgs),
            ("scale.report_msgs", report.report_msgs),
            ("scale.summary_msgs", report.summary_msgs),
            ("scale.escalations", report.escalations),
        ] {
            *self.totals.entry(name.to_owned()).or_default() += v;
        }
        if let Some(p) = profile {
            self.last_profile = p
                .kinds
                .iter()
                .map(|(k, t)| {
                    let name = KIND_NAMES
                        .iter()
                        .find(|(id, _)| id == k)
                        .map_or("?", |(_, n)| n);
                    (format!("packed.{name}"), t.events)
                })
                .collect();
        }
        self.last = Some(report);
    }

    fn segment_ops(&self) -> u64 {
        self.last.as_ref().map_or(0, |r| r.events)
    }

    fn harvest(&mut self, out: &mut Outcomes) {
        let Some(r) = self.last.take() else { return };
        for q in &r.outcomes {
            if q.first_offer_ns > 0 {
                out.ok(q.first_offer_ns);
            } else {
                out.fail();
            }
        }
        if r.queries_completed != u64::from(r.queries) {
            out.violation(format!(
                "scale: {} of {} queries completed",
                r.queries_completed, r.queries
            ));
        }
        if !(8.0..=11.0).contains(&r.msgs_per_query) {
            out.violation(format!(
                "scale: {:.2} msgs/query outside [8, 11]",
                r.msgs_per_query
            ));
        }
    }

    fn start_measuring(&mut self) {
        self.totals.clear();
        self.last = None;
    }

    fn counters(&self) -> Counters {
        self.totals.clone()
    }

    fn enable_profiler(&mut self) {
        self.profiled = true;
    }

    fn profile(&self) -> Vec<(String, u64)> {
        self.last_profile.clone()
    }

    fn finish(&mut self, _out: &mut Outcomes) {}
}
