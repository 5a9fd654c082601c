//! E10 — fault injection and end-to-end recovery.
//!
//! The seeded [`lc_net::FaultPlan`] injects message loss, duplication,
//! jitter, timed partitions and node crash/restart schedules *under*
//! the unchanged protocol stack; the recovery layer added on top
//! (per-request deadlines + exponential backoff + retry budgets in the
//! container, request-id dedup on the servant side, query re-issue and
//! partial-result tagging in the registry) is what this experiment
//! measures:
//!
//! 1. invocation reliability vs loss rate, with and without the retry
//!    policy — success rate, p50/p99 latency, retry amplification,
//!    servant-side dedup hits and exactly-once effects;
//! 2. distributed-query success vs loss for CORBA-LC (hierarchical,
//!    with query re-issue) against the flat baseline and against
//!    strong-consistency semantics (partial results count as failure);
//! 3. a timed partition isolating one site: the hierarchy keeps serving
//!    local offers inside the partition, the flat registry goes dark;
//! 4. a scripted MRM crash/restart window driven by the fault plan's
//!    crash schedule, absorbed by MRM replication.
//!
//! Everything runs in virtual time on seeded RNGs: two runs produce
//! byte-identical output (checked by ci.sh).

use crate::{f2, format_table, Output};
use lc_core::cohesion::CohesionConfig;
use lc_core::demo;
use lc_core::node::InvokePolicy;
use lc_core::testkit::World;
use lc_core::{ComponentQuery, InvokeSink, NodeConfig, QuerySink};
use lc_des::{nearest_rank, SimTime};
use lc_net::{FaultPlan, HostId, LinkFaults, Net, Topology};
use lc_orb::Value;

const N: u32 = 64;
const LOSS_RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.10];

fn cohesion() -> CohesionConfig {
    CohesionConfig {
        fanout: 8,
        replicas: 2,
        report_period: SimTime::from_millis(500),
        timeout_intervals: 3,
    }
}

/// Uniform loss/duplication/jitter on every link, or `None` at 0 loss
/// (the zero-fault path must not even draw from the fault RNG).
fn loss_plan(seed: u64, loss: f64) -> Option<FaultPlan> {
    (loss > 0.0).then(|| {
        FaultPlan::seeded(seed).default_link(
            LinkFaults::none()
                .drop_p(loss)
                .dup_p(loss / 2.0)
                .jitter(SimTime::from_millis(2)),
        )
    })
}

/// 64 nodes, campus topology, every group's host ≡ 7 (mod 8) owns the
/// Counter component.
fn campus(seed: u64, plan: Option<FaultPlan>, cfg: NodeConfig) -> World {
    World::on(
        Net::builder(Topology::campus(8, 8)).fault_plan(plan).build(),
        seed,
        cfg,
        demo::catalog(),
        |host| if host.0 % 8 == 7 { vec![demo::counter_package()] } else { Vec::new() },
    )
}

fn counter_query() -> ComponentQuery {
    ComponentQuery::by_name("Counter", lc_pkg::Version::new(1, 0))
}

fn hier_cfg(invoke: InvokePolicy, query_retries: u32) -> NodeConfig {
    NodeConfig {
        cohesion: cohesion(),
        query_timeout: SimTime::from_millis(600),
        invoke,
        query_retries,
        ..Default::default()
    }
}

fn fmt_ms(v: Option<f64>) -> String {
    v.map_or("-".into(), |m| format!("{m:.1}"))
}

// ---------------------------------------------------------------- T1 --

struct InvokeStats {
    success: f64,
    p50: Option<f64>,
    p99: Option<f64>,
    amplification: f64,
    dedup_hits: u64,
    servant_execs: i64,
}

/// K cross-site invocations of `Counter::inc` from host 12 against the
/// instance on host 7, under uniform loss.
fn invoke_run(loss: f64, policy: InvokePolicy) -> InvokeStats {
    const K: usize = 200;
    let seed = 1000 + (loss * 100.0) as u64;
    let mut w = campus(seed, loss_plan(seed, loss), hier_cfg(policy, 0));
    w.sim.run_until(SimTime::from_secs(2));

    let owner = HostId(7);
    let client = HostId(12);
    let target = w.spawn(owner, "Counter", None, SimTime::from_secs(1));

    let mut calls: Vec<(SimTime, InvokeSink)> = Vec::new();
    for _ in 0..K {
        calls.push((w.sim.now(), w.invoke(client, &target, "inc", vec![Value::Long(1)])));
        w.run_for(SimTime::from_millis(100));
    }
    // Drain outstanding retries and late replies.
    w.run_for(SimTime::from_secs(10));

    let mut latencies: Vec<f64> = calls
        .iter()
        .filter_map(|(t0, sink)| {
            sink.borrow()
                .iter()
                .find(|(_, r)| r.is_ok())
                .map(|(t, _)| (*t - *t0).as_secs_f64() * 1e3)
        })
        .collect();
    latencies.sort_by(f64::total_cmp);
    let success = latencies.len() as f64 / K as f64;
    let retries = w.sim.metrics_ref().counter("orb.retries");
    let dedup_hits = w.sim.metrics_ref().counter("orb.dedup_hits");

    // Exactly-once check: read the counter back over the loopback path
    // (same-host sends bypass fault injection, so this read is reliable).
    let vsink = w.invoke(owner, &target, "value", vec![]);
    w.run_for(SimTime::from_secs(1));
    let servant_execs = vsink
        .borrow()
        .first()
        .and_then(|(_, r)| r.as_ref().ok().and_then(|o| o.ret.as_long()))
        .map_or(-1, i64::from);

    InvokeStats {
        success,
        p50: nearest_rank(&latencies, 0.50),
        p99: nearest_rank(&latencies, 0.99),
        amplification: (K as u64 + retries) as f64 / K as f64,
        dedup_hits,
        servant_execs,
    }
}

// ---------------------------------------------------------------- T2 --

/// 100 first-wins queries from rotating non-owner origins under loss.
/// Returns (success rate, strong-semantics success rate, query
/// re-issues, partial results).
fn query_run(loss: f64, cfg: NodeConfig, seed_salt: u64) -> (f64, f64, u64, u64) {
    const Q: u32 = 100;
    let seed = 2000 + (loss * 100.0) as u64 + seed_salt;
    let mut w = campus(seed, loss_plan(seed, loss), cfg);
    w.sim.run_until(SimTime::from_secs(3));

    let mut sinks = Vec::new();
    for q in 0..Q {
        // Rotate over hosts 2..=6 of each group: never an MRM seat
        // (group offsets 0/1) and never the component owner (offset 7).
        let origin = HostId((q % 8) * 8 + 2 + (q * 5) % 5);
        sinks.push(w.query(origin, counter_query(), true));
        w.run_for(SimTime::from_millis(250));
    }
    w.run_for(SimTime::from_secs(5));

    let hits = sinks.iter().filter(|s| !s.borrow().offers.is_empty()).count();
    let complete = sinks
        .iter()
        .filter(|s| {
            let s = s.borrow();
            !s.offers.is_empty() && !s.partial
        })
        .count();
    (
        hits as f64 / Q as f64,
        complete as f64 / Q as f64,
        w.sim.metrics_ref().counter("query.retries"),
        w.sim.metrics_ref().counter("query.partial"),
    )
}

// ---------------------------------------------------------------- T3 --

/// Probe queries from host 20 (site 2) every 250ms across a timed
/// partition isolating its whole site during [10s, 20s). Returns the
/// success rate (before, during, after).
fn partition_run(cfg: NodeConfig, seed_salt: u64) -> (f64, f64, f64) {
    let site2: Vec<HostId> = (16..24).map(HostId).collect();
    let plan = FaultPlan::seeded(4000 + seed_salt).partition(
        SimTime::from_secs(10),
        SimTime::from_secs(20),
        &site2,
    );
    let mut w = campus(4000 + seed_salt, Some(plan), cfg);
    w.sim.run_until(SimTime::from_secs(3));

    let mut probes: Vec<(SimTime, QuerySink)> = Vec::new();
    while w.sim.now() < SimTime::from_secs(30) {
        probes.push((w.sim.now(), w.query(HostId(20), counter_query(), true)));
        w.run_for(SimTime::from_millis(250));
    }
    w.run_for(SimTime::from_secs(3));

    let rate = |lo: u64, hi: u64| {
        let in_window: Vec<_> = probes
            .iter()
            .filter(|(t, _)| *t >= SimTime::from_secs(lo) && *t < SimTime::from_secs(hi))
            .collect();
        let hits = in_window.iter().filter(|(_, s)| !s.borrow().offers.is_empty()).count();
        hits as f64 / in_window.len().max(1) as f64
    };
    (rate(3, 10), rate(10, 20), rate(20, 30))
}

// ---------------------------------------------------------------- T4 --

/// Crash/restart schedule from the fault plan: the primary MRM of the
/// client's group (host 8) is down during [8s, 16s); queries keep
/// succeeding through the replica seat. Returns (success rate during
/// the outage, crashes, restarts).
fn crash_run() -> (f64, u64, u64) {
    let plan = FaultPlan::seeded(5000).crash(
        HostId(8),
        SimTime::from_secs(8),
        Some(SimTime::from_secs(16)),
    );
    let mut w = campus(5000, Some(plan), hier_cfg(InvokePolicy::default(), 1));
    w.sim.run_until(SimTime::from_secs(3));

    let mut outage_probes = Vec::new();
    while w.sim.now() < SimTime::from_secs(20) {
        let during = w.sim.now() >= SimTime::from_secs(8) && w.sim.now() < SimTime::from_secs(16);
        let sink = w.query(HostId(12), counter_query(), true);
        if during {
            outage_probes.push(sink);
        }
        w.run_for(SimTime::from_millis(250));
    }
    w.sim.run_until(SimTime::from_secs(22));
    let hits = outage_probes.iter().filter(|s| !s.borrow().offers.is_empty()).count();
    (
        hits as f64 / outage_probes.len().max(1) as f64,
        w.sim.metrics_ref().counter("net.fault.crashes"),
        w.sim.metrics_ref().counter("net.fault.restarts"),
    )
}

/// Run E10 and render the report.
pub fn run() -> Output {
    let mut report =
        "E10: fault injection — invocation retry/backoff, query degradation, partitions\n"
            .to_owned();

    // T1: invocation reliability sweep.
    let mut rows = Vec::new();
    for loss in LOSS_RATES {
        for (label, policy) in
            [("none", InvokePolicy::default()), ("retry x3", InvokePolicy::standard())]
        {
            let s = invoke_run(loss, policy);
            rows.push(vec![
                format!("{:.0}%", loss * 100.0),
                label.into(),
                f2(s.success * 100.0),
                fmt_ms(s.p50),
                fmt_ms(s.p99),
                f2(s.amplification),
                s.dedup_hits.to_string(),
                s.servant_execs.to_string(),
            ]);
        }
    }
    report.push_str(&format_table(
        "invocation reliability vs loss (200 cross-site calls, deadline 250ms)",
        &["loss", "recovery", "success %", "p50 ms", "p99 ms", "retry amp", "dedup hits", "servant execs"],
        &rows,
    ));

    // T2: query success, CORBA-LC vs flat vs strong semantics.
    let mut rows = Vec::new();
    for loss in LOSS_RATES {
        let (lc, _, lc_retries, lc_partial) =
            query_run(loss, hier_cfg(InvokePolicy::default(), 2), 0);
        let (flat, _, _, _) = query_run(
            loss,
            NodeConfig {
                cohesion: CohesionConfig::flat(N as usize, 2, SimTime::from_millis(500)),
                query_timeout: SimTime::from_millis(600),
                ..Default::default()
            },
            7,
        );
        let (_, strong, _, _) = query_run(loss, hier_cfg(InvokePolicy::default(), 0), 13);
        rows.push(vec![
            format!("{:.0}%", loss * 100.0),
            f2(lc * 100.0),
            f2(flat * 100.0),
            f2(strong * 100.0),
            lc_retries.to_string(),
            lc_partial.to_string(),
        ]);
    }
    report.push_str(&format_table(
        "query success vs loss (100 first-wins queries)",
        &[
            "loss",
            "CORBA-LC %",
            "flat %",
            "strong-sem %",
            "LC re-issues",
            "LC partial",
        ],
        &rows,
    ));

    // T3: timed partition of site 2 during [10s, 20s).
    let (hb, hd, ha) = partition_run(hier_cfg(InvokePolicy::default(), 1), 0);
    let (fb, fd, fa) = partition_run(
        NodeConfig {
            cohesion: CohesionConfig::flat(N as usize, 2, SimTime::from_millis(500)),
            query_timeout: SimTime::from_millis(600),
            ..Default::default()
        },
        1,
    );
    report.push_str(&format_table(
        "site-2 partition [10s,20s): query success from inside the partition",
        &["registry", "before %", "during %", "after %"],
        &[
            vec!["CORBA-LC hierarchy".into(), f2(hb * 100.0), f2(hd * 100.0), f2(ha * 100.0)],
            vec!["flat".into(), f2(fb * 100.0), f2(fd * 100.0), f2(fa * 100.0)],
        ],
    ));

    // T4: crash/restart schedule absorbed by MRM replication.
    let (avail, crashes, restarts) = crash_run();
    report.push_str(&format_table(
        "scheduled MRM crash [8s,16s) (replicas=2)",
        &["query success during outage %", "crashes", "restarts"],
        &[vec![f2(avail * 100.0), crashes.to_string(), restarts.to_string()]],
    ));

    report.push_str(
        "\nReading: without recovery, invocation success tracks (1-loss)^2 per\n\
         request/reply pair and lost calls hang; the deadline+backoff budget\n\
         recovers nearly all of it at bounded retry amplification, and the\n\
         servant-side request-id cache keeps effects exactly-once (servant\n\
         execs never exceed the issued calls). The hierarchical registry\n\
         degrades gracefully: re-issued queries restore success under loss,\n\
         partial results are tagged instead of hanging, and a partitioned\n\
         site keeps resolving local components while the flat registry goes\n\
         dark for the whole window.\n",
    );
    Output { report, ..Output::default() }
}
