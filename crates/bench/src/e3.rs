//! E3 — soft vs strong network consistency under churn (R4).
//!
//! "Instead of maintaining a 'strong' network consistency in which MRMs
//! have perfect knowledge of the set of hosts they manage, MRMs have an
//! approximate view … This soft consistency protocol leads to lower
//! bandwidth utilization and better scalability" (§2.4.3).
//!
//! Both protocols run on identical 64-host fabrics with identical churn;
//! the table reports control traffic (messages and bytes per node per
//! second) and the membership-change work each protocol performs.

mod strong;

use crate::{f2, format_table, per_service_rows, Output, PER_SERVICE_HEADERS};
use lc_core::demo;
use lc_core::testkit::World;
use lc_core::{CohesionConfig, NodeConfig};
use lc_des::{Sim, SimTime};
use lc_net::{ChurnConfig, ChurnHooks, HostId, Net, Topology};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use strong::StrongMember;

const N: usize = 64;
const RUN_SECS: u64 = 120;
const PERIOD_MS: u64 = 2000;

struct Row {
    msgs_per_node_s: f64,
    bytes_per_node_s: f64,
    changes: u64,
}

/// The 64-host soft-consistency campus: no components, reports every
/// `period_ms`.
fn soft_world(net: impl Into<Net>, seed: u64, period_ms: u64) -> World {
    World::on(
        net,
        seed,
        NodeConfig {
            cohesion: CohesionConfig {
                fanout: 8,
                replicas: 2,
                report_period: SimTime::from_millis(period_ms),
                timeout_intervals: 3,
            },
            ..Default::default()
        },
        demo::catalog(),
        |_| Vec::new(),
    )
}

/// The 64-host campus both protocols run on. Churn crashes and
/// recovers the non-MRM hosts (MRM failover is E4's topic): it spares
/// the 2 MRM replicas per group, the strong coordinator (host 0) among
/// them.
fn churned_campus(mean_uptime: Option<SimTime>) -> Net {
    let churn = mean_uptime.map(|up| ChurnConfig {
        mean_uptime: up,
        mean_downtime: SimTime::from_secs(10),
        victims: (0..N as u32).map(HostId).filter(|h| h.0 % 8 >= 2).collect(),
        until: SimTime::from_secs(RUN_SECS),
    });
    Net::builder(Topology::campus(8, 8)).churn(churn).build()
}

/// Soft consistency: the CORBA-LC cohesion protocol under churn.
fn run_soft(mean_uptime: Option<SimTime>, seed: u64) -> Row {
    let mut world = soft_world(churned_campus(mean_uptime), seed, PERIOD_MS);

    world.sim.run_until(SimTime::from_secs(RUN_SECS));
    let m = world.sim.metrics_ref();
    let msgs = m.counter("cohesion.reports") + m.counter("cohesion.summaries");
    Row {
        msgs_per_node_s: msgs as f64 / N as f64 / RUN_SECS as f64,
        bytes_per_node_s: m.counter("net.bytes") as f64 / N as f64 / RUN_SECS as f64,
        changes: m.counter("cohesion.evictions"),
    }
}

/// Strong consistency baseline under identical churn.
fn run_strong(mean_uptime: Option<SimTime>, seed: u64) -> Row {
    let net = churned_campus(mean_uptime);
    let mut sim = Sim::new(seed);
    let period = SimTime::from_millis(PERIOD_MS);
    let actors = Rc::new(RefCell::new(StrongMember::install(&mut sim, &net, period)));
    net.install_drivers(&mut sim, || {
        let (net, a1, a2) = (net.clone(), actors.clone(), actors);
        ChurnHooks {
            on_crash: Box::new(move |sim, h| {
                sim.kill(a1.borrow()[h.0 as usize]);
            }),
            on_recover: Box::new(move |sim, h| {
                let a = StrongMember::install_one(sim, &net, period, h);
                a2.borrow_mut()[h.0 as usize] = a;
            }),
        }
    });
    sim.run_until(SimTime::from_secs(RUN_SECS));
    let m = sim.metrics_ref();
    let msgs =
        m.counter("strong.heartbeats") + m.counter("strong.view_msgs") + m.counter("strong.acks");
    Row {
        msgs_per_node_s: msgs as f64 / N as f64 / RUN_SECS as f64,
        bytes_per_node_s: m.counter("net.bytes") as f64 / N as f64 / RUN_SECS as f64,
        changes: m.counter("strong.view_changes"),
    }
}

/// Run E3 and render the report.
pub fn run() -> Output {
    let mut report = String::new();
    let _ = writeln!(
        report,
        "E3: control-plane cost, soft vs strong consistency ({N} hosts, {RUN_SECS}s, \
         report/heartbeat period {PERIOD_MS}ms)"
    );
    let mut rows = Vec::new();
    for (label, uptime) in [
        ("stable", None),
        ("churn 1/300s", Some(SimTime::from_secs(300))),
        ("churn 1/60s", Some(SimTime::from_secs(60))),
        ("churn 1/20s", Some(SimTime::from_secs(20))),
    ] {
        let both = [("soft", run_soft(uptime, 101)), ("strong", run_strong(uptime, 101))];
        for (protocol, row) in both {
            rows.push(vec![
                label.to_string(),
                protocol.into(),
                f2(row.msgs_per_node_s),
                f2(row.bytes_per_node_s),
                row.changes.to_string(),
            ]);
        }
    }
    report.push_str(&format_table(
        "control traffic under churn",
        &["churn", "protocol", "msgs/node/s", "bytes/node/s", "membership changes"],
        &rows,
    ));

    // Ablation: keep-alive period vs bandwidth (soft only, stable).
    let mut rows = Vec::new();
    for period_ms in [500u64, 1000, 2000, 5000] {
        let mut world = soft_world(Topology::campus(8, 8), 55, period_ms);
        world.sim.run_until(SimTime::from_secs(60));
        let bytes = world.sim.metrics_ref().counter("net.bytes") as f64 / N as f64 / 60.0;
        // staleness bound = eviction timeout
        rows.push(vec![
            period_ms.to_string(),
            f2(bytes),
            format!("{}", 3 * period_ms),
        ]);
    }
    report.push_str(&format_table(
        "ablation: report period vs bandwidth and staleness bound",
        &["period ms", "bytes/node/s", "staleness bound ms"],
        &rows,
    ));

    // Which services carry the control plane: per-service counters summed
    // over all nodes (soft protocol, stable fabric, 60s).
    let mut world = soft_world(Topology::campus(8, 8), 55, PERIOD_MS);
    world.sim.run_until(SimTime::from_secs(60));
    report.push_str(&format_table(
        "per-service control-plane breakdown (soft, stable, 60s, all nodes)",
        &PER_SERVICE_HEADERS,
        &per_service_rows(&world, (0..N as u32).map(HostId)),
    ));
    Output { report, ..Output::default() }
}
