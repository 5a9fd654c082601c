//! E4 — MRM replication and fault tolerance (R4).
//!
//! "To enhance fault-tolerance, the protocol must allow replicated peer
//! MRMs per group. The number of these replicas must be decided by the
//! protocol depending on FT requirements" (§2.4.3).
//!
//! 64 nodes, fanout 8, replica count k ∈ {1, 2, 3, 4}. Churn crashes MRM
//! seat holders (the first k hosts of every group). A query is issued
//! every 250ms from a rotating non-MRM origin; the table reports query
//! availability (hit rate), failovers taken, and the scripted-outage
//! recovery time: crash *all* configured primaries at once and measure
//! how long until queries succeed again.

use crate::{f2, format_table, Output};
use lc_core::cohesion::CohesionConfig;
use lc_core::demo;
use lc_core::testkit::World;
use lc_core::{ComponentQuery, NodeConfig};
use lc_des::SimTime;
use lc_net::{ChurnConfig, HostId, Net, Topology};

const N: usize = 64;

fn world_with_replicas(k: usize, seed: u64, churn: Option<ChurnConfig>) -> World {
    World::on(
        Net::builder(Topology::campus(8, 8)).churn(churn).build(),
        seed,
        NodeConfig {
            cohesion: CohesionConfig {
                fanout: 8,
                replicas: k,
                report_period: SimTime::from_millis(500),
                timeout_intervals: 3,
            },
            query_timeout: SimTime::from_millis(600),
            require_signature: false,
            ..Default::default()
        },
        demo::catalog(),
        // every group's host ≡ 7 (mod 8) owns the component
        |host| if host.0 % 8 == 7 { vec![demo::counter_package()] } else { Vec::new() },
    )
}

fn counter_query() -> ComponentQuery {
    ComponentQuery::by_name("Counter", lc_pkg::Version::new(1, 0))
}

/// Availability under continuous MRM churn.
fn churn_run(k: usize) -> (f64, u64) {
    // Churn targets every MRM seat holder (hosts 0..k of each group).
    let churn = ChurnConfig {
        mean_uptime: SimTime::from_secs(20),
        mean_downtime: SimTime::from_secs(8),
        victims: (0..N as u32).map(HostId).filter(|h| (h.0 % 8) < k as u32).collect(),
        until: SimTime::from_secs(60),
    };
    let mut world = world_with_replicas(k, 200 + k as u64, Some(churn));

    world.sim.run_until(SimTime::from_secs(3)); // converge first

    let mut sinks = Vec::new();
    let mut k_query = 0u32;
    while world.sim.now() < SimTime::from_secs(60) {
        let origin = HostId(((k_query * 13 + 4) % N as u32) | 4); // never an MRM seat
        sinks.push(world.query(origin, counter_query(), true));
        world.run_for(SimTime::from_millis(250));
        k_query += 1;
    }
    world.sim.run_until(SimTime::from_secs(62));
    let hits = sinks.iter().filter(|s| !s.borrow().offers.is_empty()).count();
    let availability = hits as f64 / sinks.len() as f64;
    (availability, world.sim.metrics_ref().counter("query.failover"))
}

/// Scripted outage: crash the configured primaries of every group at
/// t=5s, measure time until a query from each group succeeds again.
fn failover_run(k: usize) -> Option<SimTime> {
    let mut world = world_with_replicas(k, 300 + k as u64, None);
    world.sim.run_until(SimTime::from_secs(3));
    // Crash every group's configured primary (host ≡ 0 mod 8).
    for g in 0..8u32 {
        world.crash(HostId(g * 8));
    }
    let outage_at = world.sim.now();
    // Probe every 100ms until a query succeeds.
    for _ in 0..100 {
        let sink = world.query(HostId(12), counter_query(), true); // group 1 member
        world.run_for(SimTime::from_millis(100));
        if !sink.borrow().offers.is_empty() {
            return Some(world.sim.now() - outage_at);
        }
    }
    None
}

/// Run E4 and render the report.
pub fn run() -> Output {
    let mut report =
        "E4: MRM replication — availability under churn and failover time\n".to_owned();
    let mut rows = Vec::new();
    for k in 1..=4usize {
        let (avail, failovers) = churn_run(k);
        let failover = failover_run(k);
        rows.push(vec![
            k.to_string(),
            f2(avail * 100.0),
            failovers.to_string(),
            match failover {
                Some(t) => format!("{:.0} ms", t.as_secs_f64() * 1e3),
                None => "NEVER (group lost)".into(),
            },
        ]);
    }
    report.push_str(&format_table(
        "availability vs replica count (MRM-seat churn, 60s)",
        &["replicas k", "query availability %", "failovers", "all-primaries-crash recovery"],
        &rows,
    ));
    Output { report, ..Output::default() }
}
