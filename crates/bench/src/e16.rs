//! E16 — open-loop capacity under overload control.
//!
//! An `lc-load` workload engine offers traffic to a small campus at a
//! *configured* rate (open loop: arrivals never wait for replies — the
//! overloaded system keeps receiving them), sweeping the offered load
//! across three arrival shapes (steady, diurnal wave, flash crowd) and
//! two server variants:
//!
//! * `shed`   — bounded admission ([`AdmissionConfig`]): the worker
//!   refuses requests whose queue backlog exceeds 150 ms (and anything
//!   that cannot meet the 250 ms invoke deadline) with an immediate
//!   `OrbError::Overload`;
//! * `noshed` — no admission control: every request queues, and under
//!   overload replies arrive after the client's deadline (silent
//!   goodput collapse — the failure mode shedding exists to prevent).
//!
//! The *knee* of the goodput-vs-offered-load curve is the headline
//! capacity number. Past the knee the shed variant must retain most of
//! its peak goodput while the noshed variant collapses, and the
//! headline knee may not fall below the worker's draw rate (all gated
//! by the binary, so by ci.sh and the crate's tests). A final scenario turns on hot-component
//! replication: when the worker saturates, it asks its group MRM for a
//! placement and spawns a replica; drivers re-query the registry and
//! spread zipf-keyed traffic over the replica set, lifting goodput past
//! a single node's capacity.
//!
//! Everything reported derives from virtual time, so report and JSON
//! are byte-identical across runs (ci.sh double-runs and diffs).

use crate::{f2, format_table, Json, Output};
use lc_core::cohesion::CohesionConfig;
use lc_core::node::{AdmissionConfig, InvokePolicy, ReplicateConfig};
use lc_core::testkit::{display_campus, DISPLAY_FRONTS as FRONTS, DISPLAY_WORKER as WORKER};
use lc_core::NodeConfig;
use lc_des::{nearest_rank, SimTime};
use lc_load::{
    ArrivalShape, ArrivalStream, DriverArrival, DriverConfig, DriverStats, LoadDriver, QueryTick,
    StreamConfig, ZipfKeys,
};
use lc_orb::Value;
use std::fmt::Write as _;

/// The committed run's seed.
const SEED: u64 = 16;
/// Campus: 2 sites x 4 hosts; hosts 0 and 4 are servers (4x CPU).
const N: usize = 8;
/// Soft-state convergence before traffic starts (`display_campus` runs
/// it).
const WARMUP: SimTime = SimTime::from_secs(1);
/// Open-loop offered-traffic window.
const HORIZON: SimTime = SimTime::from_secs(2);
/// Post-horizon drain so every in-flight call resolves (client
/// deadline 250 ms << drain).
const DRAIN: SimTime = SimTime::from_millis(600);
/// Offered-load sweep, arrivals/second (base intensity of each shape).
const RATES: [f64; 4] = [2_500.0, 5_000.0, 7_500.0, 10_000.0];
/// Simulated user population.
const USERS: u64 = 1_000_000;
/// Replica re-discovery period of each driver.
const REQUERY: SimTime = SimTime::from_millis(100);
/// Offered load of the replication scenario (≈1.8x one worker).
const REPLICATION_RATE: f64 = 9_000.0;
/// The headline (steady) knee's goodput floor: the worker's theoretical
/// draw rate (≈ 5 000 draws/s at 200 µs/draw), below which capacity
/// has regressed.
const KNEE_FLOOR: f64 = 5_000.0;

fn shapes() -> [ArrivalShape; 3] {
    [
        ArrivalShape::Steady,
        ArrivalShape::Diurnal { period: SimTime::from_millis(500), depth: 0.4 },
        ArrivalShape::Flash {
            at: SimTime::from_millis(800),
            width: SimTime::from_millis(400),
            magnitude: 3.0,
        },
    ]
}

fn config(admission: Option<AdmissionConfig>) -> NodeConfig {
    NodeConfig {
        cohesion: CohesionConfig {
            fanout: 8,
            replicas: 2,
            report_period: SimTime::from_millis(200),
            timeout_intervals: 3,
        },
        invoke: InvokePolicy {
            deadline: Some(SimTime::from_millis(250)),
            retries: 0,
            ..InvokePolicy::default()
        },
        require_signature: false,
        admission,
        ..Default::default()
    }
}

fn shed_config() -> AdmissionConfig {
    AdmissionConfig {
        query_queue_cap: 1024,
        cpu_backlog_cap: SimTime::from_millis(150),
        deadline_aware: true,
        replicate_hot: None,
    }
}

/// Aggregate outcome of one `(shape, rate, variant)` scenario.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Measured offered load (arrivals emitted / horizon).
    pub offered_per_sec: f64,
    /// Successful replies / horizon.
    pub goodput_per_sec: f64,
    /// Arrivals sent.
    pub sent: u64,
    /// Successful replies.
    pub ok: u64,
    /// Admission-refused replies.
    pub overload: u64,
    /// Client-deadline expiries.
    pub timeout: u64,
    /// Invoke latency percentiles over successful replies, ms.
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub p999_ms: f64,
    /// First-offer latency p50 over the drivers' discovery queries, ms.
    pub first_offer_p50_ms: f64,
    /// Replicas spawned by hot-component replication.
    pub replicas: u64,
}

/// Run one scenario and aggregate its four drivers.
fn run_scenario(
    shape: &ArrivalShape,
    rate: f64,
    admission: Option<AdmissionConfig>,
    seed: u64,
    key_count: usize,
) -> RunStats {
    let (mut w, target) = display_campus(seed, config(admission));

    let mut drivers = Vec::new();
    for (i, front) in FRONTS.iter().enumerate() {
        let driver = LoadDriver::new(DriverConfig {
            node: w.net.actor_of(*front),
            component: "Display".into(),
            op: "draw".into(),
            args: vec![Value::string("frame")],
            initial_target: target.clone(),
            requery: Some(REQUERY),
        });
        let actor = w.sim.spawn(driver);
        // Staggered discovery so four queries never share a tick.
        w.sim.send_in(SimTime::from_millis(13 + 7 * i as u64), actor, QueryTick);
        let stream = StreamConfig {
            shape: shape.clone(),
            rate_per_sec: rate,
            seed: seed ^ 0xE16,
            horizon: HORIZON,
            users: USERS,
            keys: ZipfKeys::new(key_count, 1.0),
        };
        for a in ArrivalStream::split(stream, i, FRONTS.len()) {
            w.sim.send_in(a.at, actor, DriverArrival(a));
        }
        drivers.push(actor);
    }
    w.sim.run_until(WARMUP + HORIZON + DRAIN);

    let mut agg = DriverStats::default();
    for id in drivers {
        let Some(d) = w.sim.actor_as_mut::<LoadDriver>(id) else {
            panic!("e16: driver actor vanished");
        };
        let s = d.stats();
        agg.sent += s.sent;
        agg.ok += s.ok;
        agg.overload += s.overload;
        agg.timeout += s.timeout;
        agg.ok_latency_ms.extend(s.ok_latency_ms);
        agg.first_offer_ms.extend(s.first_offer_ms);
    }
    let horizon_s = HORIZON.as_secs_f64();
    agg.ok_latency_ms.sort_by(f64::total_cmp);
    agg.first_offer_ms.sort_by(f64::total_cmp);
    let quantile = |sorted: &[f64], q: f64| nearest_rank(sorted, q).unwrap_or(0.0);
    RunStats {
        offered_per_sec: agg.sent as f64 / horizon_s,
        goodput_per_sec: agg.ok as f64 / horizon_s,
        sent: agg.sent,
        ok: agg.ok,
        overload: agg.overload,
        timeout: agg.timeout,
        p50_ms: quantile(&agg.ok_latency_ms, 0.5),
        p99_ms: quantile(&agg.ok_latency_ms, 0.99),
        p999_ms: quantile(&agg.ok_latency_ms, 0.999),
        first_offer_p50_ms: quantile(&agg.first_offer_ms, 0.5),
        replicas: w.sim.metrics_ref().counter("admission.replicas"),
    }
}

/// One point of a goodput curve: the same offered stream against both
/// server variants.
pub struct CurvePoint {
    /// Base intensity handed to the generator.
    pub rate: f64,
    /// Shed-variant outcome.
    pub shed: RunStats,
    /// Noshed-variant outcome.
    pub noshed: RunStats,
}

/// One arrival shape's sweep.
pub struct ShapeCurve {
    /// Shape name.
    pub name: &'static str,
    /// Sweep points in offered-load order.
    pub points: Vec<CurvePoint>,
    /// Knee: measured offered load at maximum shed goodput.
    pub knee_offered: f64,
    /// Goodput at the knee.
    pub knee_goodput: f64,
    /// Goodput at the highest offered point / knee goodput, shed.
    pub shed_retention: f64,
    /// Same ratio for the noshed variant (vs the *noshed* peak).
    pub noshed_retention: f64,
}

/// The replication scenario pair.
pub struct ReplicationResult {
    /// Goodput with shedding only.
    pub goodput_off: f64,
    /// Goodput with shedding + hot-component replication.
    pub goodput_on: f64,
    /// `on / off`.
    pub gain: f64,
    /// Replicas spawned in the `on` run.
    pub replicas: u64,
}

/// The capacity knee of a goodput-vs-offered-load curve: the point of
/// maximum goodput (first such point on ties, so the answer is
/// deterministic). Returns `(offered, goodput)`; `(0, 0)` for an empty
/// curve.
fn knee(curve: &[(f64, f64)]) -> (f64, f64) {
    let mut best = (0.0, 0.0);
    for &(offered, goodput) in curve {
        if goodput > best.1 {
            best = (offered, goodput);
        }
    }
    best
}

fn sweep_shape(shape: &ArrivalShape, seed: u64) -> ShapeCurve {
    let mut points = Vec::new();
    for rate in RATES {
        points.push(CurvePoint {
            rate,
            shed: run_scenario(shape, rate, Some(shed_config()), seed, 1),
            noshed: run_scenario(shape, rate, None, seed, 1),
        });
    }
    let shed_curve: Vec<(f64, f64)> =
        points.iter().map(|p| (p.shed.offered_per_sec, p.shed.goodput_per_sec)).collect();
    let (knee_offered, knee_goodput) = knee(&shed_curve);
    let last = match points.last() {
        Some(p) => p,
        None => panic!("e16: empty sweep"),
    };
    let noshed_peak = points
        .iter()
        .map(|p| p.noshed.goodput_per_sec)
        .fold(0.0f64, f64::max);
    ShapeCurve {
        name: shape.name(),
        shed_retention: last.shed.goodput_per_sec / knee_goodput.max(f64::MIN_POSITIVE),
        noshed_retention: last.noshed.goodput_per_sec / noshed_peak.max(f64::MIN_POSITIVE),
        knee_offered,
        knee_goodput,
        points,
    }
}

fn run_replication(seed: u64) -> ReplicationResult {
    let off = run_scenario(
        &ArrivalShape::Steady,
        REPLICATION_RATE,
        Some(shed_config()),
        seed,
        16,
    );
    let on = run_scenario(
        &ArrivalShape::Steady,
        REPLICATION_RATE,
        Some(AdmissionConfig {
            replicate_hot: Some(ReplicateConfig),
            ..shed_config()
        }),
        seed,
        16,
    );
    ReplicationResult {
        gain: on.goodput_per_sec / off.goodput_per_sec.max(f64::MIN_POSITIVE),
        goodput_off: off.goodput_per_sec,
        goodput_on: on.goodput_per_sec,
        replicas: on.replicas,
    }
}

fn render_json(curves: &[ShapeCurve], rep: &ReplicationResult, gates_ok: bool) -> String {
    let headline = &curves[0];
    let point = |p: &CurvePoint| {
        Json::obj([
            ("first_offer_p50_ms", p.shed.first_offer_p50_ms.into()),
            ("goodput_noshed_per_sec", p.noshed.goodput_per_sec.into()),
            ("goodput_shed_per_sec", p.shed.goodput_per_sec.into()),
            ("offered_per_sec", p.shed.offered_per_sec.into()),
            ("overload_replies", p.shed.overload.into()),
            ("p50_ms", p.shed.p50_ms.into()),
            ("p999_ms", p.shed.p999_ms.into()),
            ("p99_ms", p.shed.p99_ms.into()),
            ("timeouts_noshed", p.noshed.timeout.into()),
        ])
    };
    let shape = |c: &ShapeCurve| {
        Json::obj([
            ("curve", Json::arr(c.points.iter().map(point))),
            ("knee_goodput_per_sec", c.knee_goodput.into()),
            ("knee_offered_per_sec", c.knee_offered.into()),
            ("name", c.name.into()),
            ("post_knee_noshed_retention", c.noshed_retention.into()),
            ("post_knee_shed_retention", c.shed_retention.into()),
        ])
    };
    Json::obj([
        ("experiment", "e16_capacity".into()),
        ("gates_ok", gates_ok.into()),
        ("headline_knee_goodput_per_sec", headline.knee_goodput.into()),
        ("headline_knee_offered_per_sec", headline.knee_offered.into()),
        ("nodes", N.into()),
        (
            "replication",
            Json::obj([
                ("gain", rep.gain.into()),
                ("goodput_off_per_sec", rep.goodput_off.into()),
                ("goodput_on_per_sec", rep.goodput_on.into()),
                ("replicas_spawned", rep.replicas.into()),
            ]),
        ),
        ("schema_version", 1u64.into()),
        ("shapes", Json::arr(curves.iter().map(shape))),
    ])
    .render()
}

/// Run the full sweep (the committed-artefact configuration). Fails
/// when an overload-control gate (retention, replication) or the
/// headline capacity floor does not hold.
pub fn run() -> Output {
    let seed = SEED;
    let curves: Vec<ShapeCurve> =
        shapes().iter().map(|s| sweep_shape(s, seed)).collect();
    let rep = run_replication(seed);

    // Overload-control gates. Retention gates need a post-knee point,
    // so they only bind when the sweep reaches 1.5x the knee.
    let mut gates_ok = rep.gain >= 1.3 && rep.replicas >= 1;
    gates_ok &= curves[0].knee_goodput >= KNEE_FLOOR;
    for c in &curves {
        let last_offered = c.points.last().map_or(0.0, |p| p.shed.offered_per_sec);
        if last_offered >= c.knee_offered * 1.5 {
            gates_ok &= c.shed_retention >= 0.8;
            gates_ok &= c.noshed_retention < 0.5;
        }
    }

    let mut report = String::new();
    let _ = writeln!(
        report,
        "E16: open-loop capacity under overload control (seed {seed})"
    );
    let _ = writeln!(
        report,
        "{N} nodes (2 sites x 4), worker at host {}, {} drivers, {}s horizon, \
         deadline 250ms, backlog cap 150ms",
        WORKER.0,
        FRONTS.len(),
        HORIZON.as_secs_f64(),
    );
    for c in &curves {
        let rows: Vec<Vec<String>> = c
            .points
            .iter()
            .map(|p| {
                vec![
                    f2(p.shed.offered_per_sec),
                    f2(p.shed.goodput_per_sec),
                    f2(p.noshed.goodput_per_sec),
                    p.shed.overload.to_string(),
                    p.noshed.timeout.to_string(),
                    f2(p.shed.p50_ms),
                    f2(p.shed.p99_ms),
                    f2(p.shed.p999_ms),
                    f2(p.shed.first_offer_p50_ms),
                ]
            })
            .collect();
        report.push_str(&format_table(
            &format!("{} arrivals", c.name),
            &[
                "offered/s",
                "goodput shed",
                "goodput noshed",
                "shed",
                "noshed timeouts",
                "p50 ms",
                "p99 ms",
                "p99.9 ms",
                "1st-offer p50",
            ],
            &rows,
        ));
        let _ = writeln!(
            report,
            "knee: {} op/s offered -> {} op/s goodput; post-knee retention shed {} vs noshed {}\n",
            f2(c.knee_offered),
            f2(c.knee_goodput),
            f2(c.shed_retention),
            f2(c.noshed_retention),
        );
    }
    let _ = writeln!(
        report,
        "replication: goodput {} -> {} op/s ({}x) with {} replica(s) spawned",
        f2(rep.goodput_off),
        f2(rep.goodput_on),
        f2(rep.gain),
        rep.replicas,
    );
    let _ = writeln!(report, "gates: {}", if gates_ok { "ok" } else { "FAILED" });

    let json = render_json(&curves, &rep, gates_ok);
    let _ = writeln!(report, "\nsummary: {} bytes of JSON written", json.len());
    Output {
        report,
        files: vec![(".json", json)],
        failed: (!gates_ok).then(|| "e16: overload-control gates FAILED".to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knee_picks_first_max() {
        let curve = [(1.0, 10.0), (2.0, 20.0), (3.0, 20.0), (4.0, 5.0)];
        assert_eq!(knee(&curve), (2.0, 20.0));
        assert_eq!(knee(&[]), (0.0, 0.0));
    }

    #[test]
    fn e16_is_deterministic_and_gates_pass() {
        let a = run();
        let b = run();
        assert_eq!(a.report, b.report);
        assert_eq!(a.files, b.files);
        assert_eq!(a.failed, None, "overload gates failed:\n{}", a.report);
    }
}
