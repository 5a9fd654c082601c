//! E2 — scalability of distributed component queries (requirement R4).
//!
//! Compares the hierarchical MRM protocol against the flat/centralized
//! registry baseline while the network grows, and sweeps the hierarchy
//! fanout as the ablation DESIGN.md §5 calls for.
//!
//! Reported per configuration: messages per query, mean first-offer
//! latency, and the *hotspot load* — bytes received by the busiest host —
//! which is what melts a centralized registry ("the protocol must allow
//! logical grouping and incremental resource lookup. … This reduces
//! network load and exploits locality", §2.4.3).

use crate::{f2, format_table, human_bytes, per_service_rows, Output, PER_SERVICE_HEADERS};
use lc_core::cohesion::CohesionConfig;
use lc_core::demo;
use lc_core::testkit::World;
use lc_core::{ComponentQuery, NodeConfig, QuerySink};
use lc_des::SimTime;
use lc_net::{HostId, Topology};
use std::fmt::Write as _;

struct Outcome {
    msgs_per_query: f64,
    first_offer_ms: f64,
    hotspot_recv: u64,
    hit_rate: f64,
    /// Per-service breakdown rows, summed over every node in the world.
    per_service: Vec<Vec<String>>,
}

fn run_one(n: usize, cohesion: CohesionConfig, seed: u64) -> Outcome {
    let report_period = cohesion.report_period;
    let mut world = World::on(
        Topology::campus(n / 8, 8),
        seed,
        NodeConfig {
            cohesion,
            query_timeout: SimTime::from_millis(800),
            require_signature: false,
            ..Default::default()
        },
        demo::catalog(),
        // Component owners: one per 16 nodes, spread out, never group MRMs.
        |host| if host.0 % 16 == 7 { vec![demo::counter_package()] } else { Vec::new() },
    );
    // Let the soft state converge (reports + summaries).
    world.sim.run_until(report_period * 4);
    let msgs_before = world.sim.metrics_ref().counter("query.msgs");

    // 20 queries from scattered origins.
    let sinks: Vec<QuerySink> = (0..20)
        .map(|k| {
            let origin = HostId(((k * 13 + 3) % n) as u32);
            let query = ComponentQuery::by_name("Counter", lc_pkg::Version::new(1, 0));
            let sink = world.query(origin, query, true);
            // space queries out so latencies are independent
            world.run_for(SimTime::from_millis(150));
            sink
        })
        .collect();
    world.run_for(SimTime::from_secs(2));

    let msgs = world.sim.metrics_ref().counter("query.msgs") - msgs_before;
    let mut first_ms = Vec::new();
    let mut hits = 0usize;
    for s in &sinks {
        let r = s.borrow();
        if let Some(at) = r.first_offer_at {
            first_ms.push((at - r.started).as_secs_f64() * 1e3);
            hits += 1;
        }
    }
    let hotspot = world.net.max_recv().1;
    Outcome {
        msgs_per_query: msgs as f64 / sinks.len() as f64,
        first_offer_ms: first_ms.iter().sum::<f64>() / first_ms.len().max(1) as f64,
        hotspot_recv: hotspot,
        hit_rate: hits as f64 / sinks.len() as f64,
        per_service: per_service_rows(&world, (0..n as u32).map(HostId)),
    }
}

/// Run E2 and render the report.
pub fn run() -> Output {
    let period = SimTime::from_millis(500);
    let hier = |fanout| CohesionConfig {
        fanout,
        replicas: 2,
        report_period: period,
        timeout_intervals: 3,
    };
    let mut report = String::new();
    let _ = writeln!(
        report,
        "E2: distributed query scalability — hierarchical MRMs vs flat registry"
    );

    let mut rows = Vec::new();
    for &n in &[16usize, 64, 256, 1024] {
        for (label, cfg) in [("hier f=8", hier(8)), ("flat", CohesionConfig::flat(n, 2, period))] {
            let o = run_one(n, cfg, 42 + n as u64);
            rows.push(vec![
                n.to_string(),
                label.to_string(),
                f2(o.msgs_per_query),
                f2(o.first_offer_ms),
                human_bytes(o.hotspot_recv),
                f2(o.hit_rate * 100.0),
            ]);
        }
    }
    report.push_str(&format_table(
        "query cost vs network size",
        &["nodes", "protocol", "msgs/query", "first-offer ms", "hotspot recv", "hit %"],
        &rows,
    ));

    // Ablation: fanout sweep at N=256.
    let mut rows = Vec::new();
    for &fanout in &[4usize, 8, 16, 32] {
        let o = run_one(256, hier(fanout), 7);
        rows.push(vec![
            fanout.to_string(),
            f2(o.msgs_per_query),
            f2(o.first_offer_ms),
            human_bytes(o.hotspot_recv),
            f2(o.hit_rate * 100.0),
        ]);
    }
    report.push_str(&format_table(
        "ablation: hierarchy fanout at N=256",
        &["fanout", "msgs/query", "first-offer ms", "hotspot recv", "hit %"],
        &rows,
    ));

    // Where a node's work goes: per-service message and dispatch
    // breakdown (NodeMetrics summed over all 64 nodes, hier f=8).
    let o = run_one(64, hier(8), 42 + 64);
    report.push_str(&format_table(
        "per-service breakdown, N=64 hier f=8 (all nodes)",
        &PER_SERVICE_HEADERS,
        &o.per_service,
    ));
    Output { report, ..Output::default() }
}
