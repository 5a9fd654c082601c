//! SLO monitors evaluated in virtual time.
//!
//! A monitor holds a set of rules over one [`MetricsRegistry`] and is
//! polled on a virtual-time cadence (the node arms a timer; nothing
//! here schedules anything). Each evaluation reads the **window** of
//! samples since the previous evaluation via
//! [`MetricsRegistry::snapshot`] deltas — cumulative accessors are
//! never disturbed — and fires a deterministic [`SloBreach`] per rule
//! the window violates. The caller is expected to attach the node's
//! flight-recorder dump to each breach ([`SloMonitor::record_breach`]),
//! which is the "automatic dump on SLO breach, not only on crash"
//! behaviour the node runtime wires up.
//!
//! All rule arithmetic is integer (parts-per-million thresholds,
//! bucket-edge quantiles), so two runs that observe the same samples
//! breach at the same virtual instants with the same rendered numbers.

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::tracer::SpanEvent;
use lc_des::SimTime;

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

/// The per-node monitor: rules + the previous window's snapshot.
#[derive(Clone, Debug)]
pub struct SloMonitor {
    cfg: SloConfig,
    last: MetricsSnapshot,
    evals: u64,
    breaches: Vec<BreachRecord>,
}

impl SloMonitor {
    /// A monitor with an empty baseline window.
    pub fn new(cfg: SloConfig) -> SloMonitor {
        SloMonitor { cfg, last: MetricsSnapshot::default(), evals: 0, breaches: Vec::new() }
    }

    /// The configured evaluation cadence.
    pub fn window(&self) -> SimTime {
        self.cfg.window
    }

    /// Evaluate every rule against the window since the last call and
    /// advance the window. Returns the breaches fired at this instant
    /// (also appended to the monitor's history once the caller attaches
    /// flight dumps via [`SloMonitor::record_breach`]).
    pub fn evaluate(&mut self, now: SimTime, reg: &MetricsRegistry) -> Vec<SloBreach> {
        self.evals += 1;
        let mut fired = Vec::new();
        for rule in &self.cfg.rules {
            match &rule.kind {
                SloKind::LatencyQuantile { key, q_ppm, max, min_samples } => {
                    let Some(w) = reg.histogram_delta(key, &self.last) else { continue };
                    if w.count < *min_samples {
                        continue;
                    }
                    let Some(q) = w.quantile_le(*q_ppm) else { continue };
                    if q > *max {
                        fired.push(SloBreach {
                            at: now,
                            rule: rule.name.clone(),
                            observed: q,
                            threshold: *max,
                            window_events: w.count,
                        });
                    }
                }
                SloKind::BurnRate { bad, total, budget_ppm, max_burn_centi, min_total } => {
                    let t = reg.counter_delta(total, &self.last);
                    if t < *min_total || *budget_ppm == 0 {
                        continue;
                    }
                    let b = reg.counter_delta(bad, &self.last);
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
        self.last = reg.snapshot();
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

    fn latency_cfg() -> SloConfig {
        SloConfig {
            window: t(100),
            rules: vec![SloRule {
                name: "query-p90".into(),
                kind: SloKind::LatencyQuantile {
                    key: "lat".into(),
                    q_ppm: 900_000,
                    max: 100,
                    min_samples: 4,
                },
            }],
        }
    }

    #[test]
    fn latency_rule_fires_on_windowed_quantile_only() {
        let mut reg = MetricsRegistry::new();
        let mut mon = SloMonitor::new(latency_cfg());
        // first window: fast samples — no breach
        for _ in 0..10 {
            reg.observe("lat", &[10, 100, 1000], 5);
        }
        assert!(mon.evaluate(t(100), &reg).is_empty());
        // second window: slow samples; the *cumulative* p90 would still
        // look fine, the window must not
        for _ in 0..10 {
            reg.observe("lat", &[10, 100, 1000], 900);
        }
        let fired = mon.evaluate(t(200), &reg);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "query-p90");
        assert_eq!(fired[0].observed, 1000);
        assert_eq!(fired[0].window_events, 10);
        // third window: quiet (below min_samples) — no breach
        reg.observe("lat", &[10, 100, 1000], 900);
        assert!(mon.evaluate(t(300), &reg).is_empty());
        assert_eq!(mon.evals(), 3);
    }

    #[test]
    fn burn_rate_rule_is_integer_deterministic() {
        let mut reg = MetricsRegistry::new();
        let mut mon = SloMonitor::new(SloConfig {
            window: t(100),
            rules: vec![SloRule {
                name: "empty-burn".into(),
                kind: SloKind::BurnRate {
                    bad: "q.empty".into(),
                    total: "q.total".into(),
                    budget_ppm: 100_000, // 10% error budget
                    max_burn_centi: 200, // breach above 2x budget
                    min_total: 10,
                },
            }],
        });
        reg.add("q.total", 20);
        reg.add("q.empty", 2); // exactly budget: burn = 100 centi
        assert!(mon.evaluate(t(100), &reg).is_empty());
        reg.add("q.total", 20);
        reg.add("q.empty", 5); // 25% of window: burn = 250 centi
        let fired = mon.evaluate(t(200), &reg);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].observed, 250);
        assert_eq!(fired[0].threshold, 200);
        let mut line = fired[0].render();
        assert!(line.contains("SLO BREACH"));
        line.truncate(12);
        // breach history with a dump attached
        mon.record_breach(fired[0].clone(), Vec::new(), 0);
        assert_eq!(mon.breaches().len(), 1);
        assert_eq!(mon.breaches()[0].breach.rule, "empty-burn");
    }
}
