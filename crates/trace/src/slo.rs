//! SLO monitors evaluated in virtual time.
//!
//! A monitor holds a set of rules and the **window** they read: the
//! counts ([`SloMonitor::incr`]) and latency samples
//! ([`SloMonitor::observe`]) fed to it since its previous evaluation.
//! It is polled on a virtual-time cadence (the node arms a timer;
//! nothing here schedules anything). Each [`SloMonitor::evaluate`] fires
//! a deterministic [`SloBreach`] per rule the window violates and starts
//! the next window empty. The caller is expected to attach the node's
//! flight-recorder dump to each breach ([`SloMonitor::record_breach`]),
//! which is the "automatic dump on SLO breach, not only on crash"
//! behaviour the node runtime wires up.
//!
//! All rule arithmetic is integer (parts-per-million thresholds,
//! bucket-edge quantiles), so two runs that observe the same samples
//! breach at the same virtual instants with the same rendered numbers.

use crate::metrics::BucketHistogram;
use crate::tracer::SpanEvent;
use lc_des::SimTime;
use std::collections::BTreeMap;

/// One SLO rule kind.
#[derive(Clone, Debug)]
pub enum SloKind {
    /// Breach when the windowed `q_ppm` quantile of histogram `key`
    /// exceeds `max` (same unit as the histogram's samples). Windows
    /// with fewer than `min_samples` observations never breach.
    LatencyQuantile { key: String, q_ppm: u32, max: u64, min_samples: u64 },
    /// Error-budget burn rate: breach when, over the window,
    /// `bad/total > budget_ppm * max_burn` (burn expressed as a
    /// multiple of the budget, in hundredths: `max_burn_centi = 250`
    /// means "burning budget 2.5× too fast"). Windows with fewer than
    /// `min_total` events never breach.
    BurnRate { bad: String, total: String, budget_ppm: u32, max_burn_centi: u32, min_total: u64 },
}

/// A named SLO rule.
#[derive(Clone, Debug)]
pub struct SloRule {
    /// Stable rule name (appears in breach records and reports).
    pub name: String,
    /// What to evaluate.
    pub kind: SloKind,
}

/// Monitor configuration: evaluation cadence plus the rule set.
#[derive(Clone, Debug)]
pub struct SloConfig {
    /// Virtual-time evaluation cadence (the node's timer period).
    pub window: SimTime,
    /// Rules evaluated each window.
    pub rules: Vec<SloRule>,
}

/// One deterministic breach event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloBreach {
    /// Virtual time of the evaluation that fired.
    pub at: SimTime,
    /// Name of the breached rule.
    pub rule: String,
    /// Observed value: the quantile estimate (latency rules) or the
    /// windowed burn rate in centi-multiples of budget (burn rules).
    pub observed: u64,
    /// The rule's threshold in the same unit as `observed`.
    pub threshold: u64,
    /// Events/samples in the violating window.
    pub window_events: u64,
}

impl SloBreach {
    /// Render one deterministic report line.
    pub fn render(&self) -> String {
        format!(
            "{:>12} ns  SLO BREACH  {}  observed {} > {} over {} events",
            self.at.as_nanos(),
            self.rule,
            self.observed,
            self.threshold,
            self.window_events
        )
    }
}

/// A breach plus the flight-recorder dump captured when it fired.
#[derive(Clone, Debug)]
pub struct BreachRecord {
    /// The breach.
    pub breach: SloBreach,
    /// Flight-recorder events at breach time, oldest first.
    pub flight: Vec<SpanEvent>,
    /// Events the bounded ring had already dropped.
    pub flight_dropped: u64,
}

/// The per-node monitor: rules + the current window's counts and samples.
#[derive(Clone, Debug)]
pub struct SloMonitor {
    cfg: SloConfig,
    counts: BTreeMap<String, u64>,
    samples: BTreeMap<String, BucketHistogram>,
    evals: u64,
    breaches: Vec<BreachRecord>,
}

impl SloMonitor {
    /// A monitor with an empty first window.
    pub fn new(cfg: SloConfig) -> SloMonitor {
        SloMonitor {
            cfg,
            counts: BTreeMap::new(),
            samples: BTreeMap::new(),
            evals: 0,
            breaches: Vec::new(),
        }
    }

    /// The configured evaluation cadence.
    pub fn window(&self) -> SimTime {
        self.cfg.window
    }

    /// Count one event under `key` in the current window.
    pub fn incr(&mut self, key: &str) {
        match self.counts.get_mut(key) {
            Some(c) => *c += 1,
            None => {
                self.counts.insert(key.to_owned(), 1);
            }
        }
    }

    /// Record one sample under `key` in the current window; the first
    /// sample ever seen under a key fixes its bucket `bounds`.
    pub fn observe(&mut self, key: &str, bounds: &[u64], v: u64) {
        match self.samples.get_mut(key) {
            Some(h) => h.observe(v),
            None => {
                let mut h = BucketHistogram::new(bounds);
                h.observe(v);
                self.samples.insert(key.to_owned(), h);
            }
        }
    }

    /// Evaluate every rule against the window since the last call and
    /// start the next window empty. Returns the breaches fired at this
    /// instant (also appended to the monitor's history once the caller
    /// attaches flight dumps via [`SloMonitor::record_breach`]).
    pub fn evaluate(&mut self, now: SimTime) -> Vec<SloBreach> {
        self.evals += 1;
        let mut fired = Vec::new();
        let count = |key: &str| self.counts.get(key).copied().unwrap_or(0);
        for rule in &self.cfg.rules {
            match &rule.kind {
                SloKind::LatencyQuantile { key, q_ppm, max, min_samples } => {
                    let Some(w) = self.samples.get(key) else { continue };
                    if w.count() < *min_samples {
                        continue;
                    }
                    let Some(q) = w.quantile_le(*q_ppm) else { continue };
                    if q > *max {
                        fired.push(SloBreach {
                            at: now,
                            rule: rule.name.clone(),
                            observed: q,
                            threshold: *max,
                            window_events: w.count(),
                        });
                    }
                }
                SloKind::BurnRate { bad, total, budget_ppm, max_burn_centi, min_total } => {
                    let t = count(total);
                    // An empty window burns nothing (and has no ratio).
                    if t == 0 || t < *min_total || *budget_ppm == 0 {
                        continue;
                    }
                    let b = count(bad);
                    // burn in centi-multiples of budget:
                    //   (bad/total) / (budget_ppm/1e6) * 100
                    let burn_centi =
                        (b as u128 * 1_000_000 * 100 / (t as u128 * *budget_ppm as u128)) as u64;
                    if burn_centi > *max_burn_centi as u64 {
                        fired.push(SloBreach {
                            at: now,
                            rule: rule.name.clone(),
                            observed: burn_centi,
                            threshold: *max_burn_centi as u64,
                            window_events: t,
                        });
                    }
                }
            }
        }
        self.counts.values_mut().for_each(|c| *c = 0);
        self.samples.values_mut().for_each(BucketHistogram::reset);
        fired
    }

    /// Attach a flight-recorder dump to a fired breach and keep it.
    pub fn record_breach(&mut self, breach: SloBreach, flight: Vec<SpanEvent>, dropped: u64) {
        self.breaches.push(BreachRecord { breach, flight, flight_dropped: dropped });
    }

    /// Every recorded breach, in firing order.
    pub fn breaches(&self) -> &[BreachRecord] {
        &self.breaches
    }

    /// Evaluations performed so far.
    pub fn evals(&self) -> u64 {
        self.evals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    const BOUNDS: [u64; 3] = [10, 100, 1000];

    fn latency_rule(key: &str, q_ppm: u32, max: u64, min_samples: u64) -> SloRule {
        SloRule {
            name: "query-p90".into(),
            kind: SloKind::LatencyQuantile { key: key.into(), q_ppm, max, min_samples },
        }
    }

    fn burn_rule(budget_ppm: u32, max_burn_centi: u32, min_total: u64) -> SloRule {
        SloRule {
            name: "empty-burn".into(),
            kind: SloKind::BurnRate {
                bad: "q.empty".into(),
                total: "q.total".into(),
                budget_ppm,
                max_burn_centi,
                min_total,
            },
        }
    }

    #[test]
    fn latency_rule_fires_on_windowed_quantile_only() {
        let mut mon = SloMonitor::new(SloConfig {
            window: t(100),
            rules: vec![latency_rule("lat", 900_000, 100, 4)],
        });
        // first window: fast samples — no breach
        for _ in 0..10 {
            mon.observe("lat", &BOUNDS, 5);
        }
        assert!(mon.evaluate(t(100)).is_empty());
        // second window: slow samples; the p90 over *both* windows would
        // still look fine, this window must not. The key keeps the
        // bounds of its first sample: 900 lands under the 1000 edge.
        for _ in 0..10 {
            mon.observe("lat", &[5000], 900);
        }
        let fired = mon.evaluate(t(200));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "query-p90");
        assert_eq!(fired[0].observed, 1000);
        assert_eq!(fired[0].window_events, 10);
        // third window: quiet (below min_samples) — no breach
        mon.observe("lat", &BOUNDS, 900);
        assert!(mon.evaluate(t(300)).is_empty());
        assert_eq!(mon.evals(), 3);
    }

    #[test]
    fn burn_rate_rule_is_integer_deterministic() {
        let mut mon = SloMonitor::new(SloConfig {
            window: t(100),
            // 10% error budget, breach above 2x budget
            rules: vec![burn_rule(100_000, 200, 10)],
        });
        let feed = |mon: &mut SloMonitor, total: u32, empty: u32| {
            (0..total).for_each(|_| mon.incr("q.total"));
            (0..empty).for_each(|_| mon.incr("q.empty"));
        };
        feed(&mut mon, 20, 2); // exactly budget: burn = 100 centi
        assert!(mon.evaluate(t(100)).is_empty());
        feed(&mut mon, 20, 5); // 25% of window: burn = 250 centi
        let fired = mon.evaluate(t(200));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].observed, 250);
        assert_eq!(fired[0].threshold, 200);
        assert!(fired[0].render().contains("SLO BREACH"));
        // breach history with a dump attached
        mon.record_breach(fired[0].clone(), Vec::new(), 0);
        assert_eq!(mon.breaches().len(), 1);
        assert_eq!(mon.breaches()[0].breach.rule, "empty-burn");
    }

    /// What the monitor's window replaced, kept as the oracle: counters
    /// and bucket counts that only ever grow, a copy of them taken at
    /// each evaluation, and rules that read current minus copy.
    #[derive(Clone, Default)]
    struct Totals {
        counts: BTreeMap<String, u64>,
        buckets: BTreeMap<String, Vec<u64>>,
    }

    #[derive(Default)]
    struct Cumulative {
        now: Totals,
        last: Totals,
    }

    impl Cumulative {
        fn incr(&mut self, key: &str) {
            *self.now.counts.entry(key.to_owned()).or_insert(0) += 1;
        }

        fn observe(&mut self, key: &str, v: u64) {
            let b = self.now.buckets.entry(key.to_owned()).or_insert_with(|| vec![0; 4]);
            b[BOUNDS.partition_point(|&e| e < v)] += 1;
        }

        fn evaluate(&mut self, now: SimTime, rules: &[SloRule]) -> Vec<SloBreach> {
            let delta = |key: &str| {
                let at = |t: &Totals| t.counts.get(key).copied().unwrap_or(0);
                at(&self.now) - at(&self.last)
            };
            let mut fired = Vec::new();
            for rule in rules {
                let (observed, threshold, window_events) = match &rule.kind {
                    SloKind::LatencyQuantile { key, q_ppm, max, min_samples } => {
                        let Some(cur) = self.now.buckets.get(key) else { continue };
                        let zero = vec![0; 4];
                        let prev = self.last.buckets.get(key).unwrap_or(&zero);
                        let window: Vec<u64> = cur.iter().zip(prev).map(|(c, p)| c - p).collect();
                        let n: u64 = window.iter().sum();
                        if n == 0 || n < *min_samples {
                            continue;
                        }
                        let need = (n as u128 * *q_ppm as u128).div_ceil(1_000_000) as u64;
                        let mut cum = 0;
                        let edge = window.iter().position(|c| {
                            cum += c;
                            cum >= need
                        });
                        let q = edge.and_then(|i| BOUNDS.get(i).copied()).unwrap_or(u64::MAX);
                        (q, *max, n)
                    }
                    SloKind::BurnRate { bad, total, budget_ppm, max_burn_centi, min_total } => {
                        let t = delta(total);
                        if t == 0 || t < *min_total || *budget_ppm == 0 {
                            continue;
                        }
                        let burn = delta(bad) as u128 * 100_000_000 / (t as u128 * *budget_ppm as u128);
                        (burn as u64, *max_burn_centi as u64, t)
                    }
                };
                if observed > threshold {
                    let rule = rule.name.clone();
                    fired.push(SloBreach { at: now, rule, observed, threshold, window_events });
                }
            }
            self.last = self.now.clone();
            fired
        }
    }

    #[test]
    fn window_monitor_fires_what_cumulative_minus_snapshot_fired() {
        // Across all cases: evaluations that fired / that stayed quiet.
        let (mut loud, mut quiet) = (0u32, 0u32);
        lc_prop::check("slo window == cumulative minus snapshot", |g| {
            let rules = vec![
                latency_rule(
                    g.pick::<&str>(&["a", "b", "never-fed"]),
                    *g.pick(&[500_000, 900_000, 990_000, 1_000_000]),
                    *g.pick(&[10, 100, 1000]),
                    g.gen_range(0..6u64),
                ),
                burn_rule(
                    *g.pick(&[0, 10_000, 100_000]),
                    *g.pick(&[50, 100, 250]),
                    g.gen_range(0..6u64),
                ),
            ];
            let mut mon = SloMonitor::new(SloConfig { window: t(100), rules: rules.clone() });
            let mut oracle = Cumulative::default();
            let mut now = SimTime::ZERO;
            for _ in 0..g.gen_range(1..200usize) {
                now += SimTime::from_micros(g.gen_range(1..50_000u64));
                // One step in four evaluates, so runs of empty windows
                // and windows of one or two samples are both common.
                if g.gen_range(0..4u32) == 0 {
                    let fired = mon.evaluate(now);
                    assert_eq!(fired, oracle.evaluate(now, &rules));
                    *if fired.is_empty() { &mut quiet } else { &mut loud } += 1;
                    continue;
                }
                let key = *g.pick(&["a", "b"]);
                let v = g.gen_range(0..3_000u64);
                mon.observe(key, &BOUNDS, v);
                oracle.observe(key, v);
                mon.incr("q.total");
                oracle.incr("q.total");
                if g.gen_range(0..8u32) == 0 {
                    mon.incr("q.empty");
                    oracle.incr("q.empty");
                }
            }
            assert_eq!(mon.evaluate(now), oracle.evaluate(now, &rules));
        });
        assert!(loud > 100 && quiet > 100, "one-sided property: {loud} fired, {quiet} quiet");
    }
}
