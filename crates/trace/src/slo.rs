//! SLO monitors evaluated in virtual time.
//!
//! A monitor holds a set of rules and the **window** they read: the
//! finished registry queries fed to it ([`SloMonitor::observe_query`])
//! since its previous evaluation, the node's one feed: a latency
//! histogram over [`QUERY_LATENCY_BUCKETS_US`] and a count of the
//! queries that came back empty. It is polled on a virtual-time cadence
//! (the node arms a timer; nothing here schedules anything). Each
//! [`SloMonitor::evaluate`] fires a deterministic [`SloBreach`] per rule
//! the window violates and starts the next window empty. The caller is expected to attach the node's
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

/// Upper bucket edges (µs) of the windowed query-latency histogram.
pub const QUERY_LATENCY_BUCKETS_US: [u64; 8] =
    [100, 500, 1_000, 5_000, 20_000, 100_000, 400_000, 1_600_000];

/// One SLO rule kind.
#[derive(Clone, Debug)]
pub enum SloKind {
    /// Breach when the windowed `q_ppm` quantile of query latency (µs,
    /// a bucket edge) exceeds `max`. Windows with fewer than
    /// `min_samples` queries never breach.
    LatencyQuantile { q_ppm: u32, max: u64, min_samples: u64 },
    /// Error-budget burn rate: breach when, over the window,
    /// `empty/total > budget_ppm * max_burn` (burn expressed as a
    /// multiple of the budget, in hundredths: `max_burn_centi = 250`
    /// means "burning budget 2.5× too fast"). Windows with fewer than
    /// `min_total` queries never breach.
    BurnRate { budget_ppm: u32, max_burn_centi: u32, min_total: u64 },
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
}

/// The per-node monitor: rules + the current window's queries.
#[derive(Clone, Debug)]
pub struct SloMonitor {
    cfg: SloConfig,
    /// One sample per query, so its count is the window's total.
    latency_us: BucketHistogram,
    empty: u64,
    evals: u64,
    breaches: Vec<BreachRecord>,
}

impl SloMonitor {
    /// A monitor with an empty first window.
    pub fn new(cfg: SloConfig) -> SloMonitor {
        SloMonitor {
            cfg,
            latency_us: BucketHistogram::new(&QUERY_LATENCY_BUCKETS_US),
            empty: 0,
            evals: 0,
            breaches: Vec::new(),
        }
    }

    /// The configured evaluation cadence.
    pub fn window(&self) -> SimTime {
        self.cfg.window
    }

    /// Feed one finished query to the current window: its latency and
    /// whether it came back empty.
    pub fn observe_query(&mut self, latency_us: u64, empty: bool) {
        self.latency_us.observe(latency_us);
        self.empty += u64::from(empty);
    }

    /// Evaluate every rule against the window since the last call and
    /// start the next window empty. Returns the breaches fired at this
    /// instant (also appended to the monitor's history once the caller
    /// attaches flight dumps via [`SloMonitor::record_breach`]).
    pub fn evaluate(&mut self, now: SimTime) -> Vec<SloBreach> {
        self.evals += 1;
        let mut fired = Vec::new();
        for rule in &self.cfg.rules {
            match &rule.kind {
                SloKind::LatencyQuantile { q_ppm, max, min_samples } => {
                    let w = &self.latency_us;
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
                SloKind::BurnRate { budget_ppm, max_burn_centi, min_total } => {
                    let (t, b) = (self.latency_us.count(), self.empty);
                    // An empty window burns nothing (and has no ratio).
                    if t == 0 || t < *min_total || *budget_ppm == 0 {
                        continue;
                    }
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
        self.latency_us.reset();
        self.empty = 0;
        fired
    }

    /// Attach a flight-recorder dump to a fired breach and keep it.
    pub fn record_breach(&mut self, breach: SloBreach, flight: Vec<SpanEvent>) {
        self.breaches.push(BreachRecord { breach, flight });
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

    fn latency_rule(q_ppm: u32, max: u64, min_samples: u64) -> SloRule {
        SloRule {
            name: "query-p90".into(),
            kind: SloKind::LatencyQuantile { q_ppm, max, min_samples },
        }
    }

    fn burn_rule(budget_ppm: u32, max_burn_centi: u32, min_total: u64) -> SloRule {
        SloRule {
            name: "empty-burn".into(),
            kind: SloKind::BurnRate { budget_ppm, max_burn_centi, min_total },
        }
    }

    #[test]
    fn latency_rule_fires_on_windowed_quantile_only() {
        let mut mon = SloMonitor::new(SloConfig {
            window: t(100),
            rules: vec![latency_rule(900_000, 500, 4)],
        });
        // first window: fast queries — no breach
        for _ in 0..10 {
            mon.observe_query(50, false);
        }
        assert!(mon.evaluate(t(100)).is_empty());
        // second window: slow queries; the p90 over *both* windows would
        // still look fine, this window must not. 900 lands under the
        // 1000 edge.
        for _ in 0..10 {
            mon.observe_query(900, false);
        }
        let fired = mon.evaluate(t(200));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "query-p90");
        assert_eq!(fired[0].observed, 1000);
        assert_eq!(fired[0].window_events, 10);
        // third window: quiet (below min_samples) — no breach
        mon.observe_query(900, false);
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
            (0..total).for_each(|i| mon.observe_query(10, i < empty));
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
        mon.record_breach(fired[0].clone(), Vec::new());
        assert_eq!(mon.breaches().len(), 1);
        assert_eq!(mon.breaches()[0].breach.rule, "empty-burn");
    }

    /// What the monitor's window replaced, kept as the oracle: counts
    /// and bucket counts that only ever grow, a copy of them taken at
    /// each evaluation, and rules that read current minus copy.
    #[derive(Clone, Copy, Default)]
    struct Totals {
        total: u64,
        empty: u64,
        buckets: [u64; QUERY_LATENCY_BUCKETS_US.len() + 1],
    }

    #[derive(Default)]
    struct Cumulative {
        now: Totals,
        last: Totals,
    }

    impl Cumulative {
        fn observe_query(&mut self, v: u64, empty: bool) {
            self.now.total += 1;
            self.now.empty += u64::from(empty);
            self.now.buckets[QUERY_LATENCY_BUCKETS_US.partition_point(|&e| e < v)] += 1;
        }

        fn evaluate(&mut self, now: SimTime, rules: &[SloRule]) -> Vec<SloBreach> {
            let (cur, prev) = (self.now, self.last);
            let mut fired = Vec::new();
            for rule in rules {
                let (observed, threshold, window_events) = match &rule.kind {
                    SloKind::LatencyQuantile { q_ppm, max, min_samples } => {
                        let window: Vec<u64> =
                            cur.buckets.iter().zip(prev.buckets).map(|(c, p)| c - p).collect();
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
                        let q = edge
                            .and_then(|i| QUERY_LATENCY_BUCKETS_US.get(i).copied())
                            .unwrap_or(u64::MAX);
                        (q, *max, n)
                    }
                    SloKind::BurnRate { budget_ppm, max_burn_centi, min_total } => {
                        let t = cur.total - prev.total;
                        if t == 0 || t < *min_total || *budget_ppm == 0 {
                            continue;
                        }
                        let bad = cur.empty - prev.empty;
                        let burn = bad as u128 * 100_000_000 / (t as u128 * *budget_ppm as u128);
                        (burn as u64, *max_burn_centi as u64, t)
                    }
                };
                if observed > threshold {
                    let rule = rule.name.clone();
                    fired.push(SloBreach { at: now, rule, observed, threshold, window_events });
                }
            }
            self.last = self.now;
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
                    *g.pick(&[500_000, 900_000, 990_000, 1_000_000]),
                    *g.pick(&[500, 1_000, 5_000]),
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
                let v = g.gen_range(0..8_000u64);
                let empty = g.gen_range(0..8u32) == 0;
                mon.observe_query(v, empty);
                oracle.observe_query(v, empty);
            }
            assert_eq!(mon.evaluate(now), oracle.evaluate(now, &rules));
        });
        assert!(loud > 100 && quiet > 100, "one-sided property: {loud} fired, {quiet} quiet");
    }
}
