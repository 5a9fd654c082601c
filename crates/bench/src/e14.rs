//! E14 — the sharded registry: single leader vs a consistent-hash DHT.
//!
//! E12 showed that even with the result cache and singleflight the
//! remaining hotspot is the campus leader: every miss still ascends the
//! MRM hierarchy and funnels through its root. This experiment puts the
//! sharded registry ([`lc_core::ShardStore`]) against that wall: the same
//! 1k-node campus, the same query workload, with the component
//! inventory consistent-hashed over 2/4/8 shards (2 replicas each) and
//! lookups routed Chord-style through the finger overlay instead of up
//! the hierarchy.
//!
//! The workload runs under E10-style churn — uniform loss, duplication
//! and jitter on every link plus a scripted crash/restart schedule —
//! so the gossip anti-entropy path (replica respawn repair, lost
//! publishes) is exercised, not just the happy path. Rotating front-end
//! hosts query 32 distinct components owned by 32 scattered owners;
//! distinct (origin, component) pairs keep the result cache cold, which
//! is exactly the traffic that concentrates on the leader.
//!
//! Reported per variant: answered fraction, p50/p99 first-offer
//! latency, query messages, overlay hops, gossip traffic, the busiest
//! receiver over the query phase, and — the headline — bytes received
//! by the *former leader* (the busiest host of the single-leader run)
//! under each shard count. The committed `BENCH_e14.json` pins the
//! acceptance floor: ≥ 3x former-leader reduction and p99 no worse at
//! 4+ shards. Everything derives from virtual time, so two runs render
//! byte-identical reports (ci.sh diffs a double run). What the sharded
//! backend costs the host is the benchmark's `registry_mixed` workload
//! (`.perf`).

use crate::{f2, format_table, human_bytes, Json};
use lc_core::cohesion::CohesionConfig;
use lc_core::demo;
use lc_core::node::{NodeCmd, QueryResult, RegistryConfig};
use lc_core::testkit::{build_world_on, World};
use lc_core::{CacheConfig, ComponentQuery, NodeConfig, ShardConfig};
use lc_des::{nearest_rank, SimTime};
use lc_net::{FaultPlan, HostId, LinkFaults, Net, Topology};
use lc_pkg::{ComponentDescriptor, Package, Platform, QosSpec, Version};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;

/// JSON schema version (bump when keys change; ci.sh pins the diff).
pub const SCHEMA_VERSION: u32 = 1;

/// Distinct components spread over the shard space.
const COMPONENTS: u32 = 32;
/// Queries issued per variant.
const QUERIES: u32 = 768;
/// Virtual-time spacing between queries.
const QUERY_GAP: SimTime = SimTime::from_millis(12);

/// One sweep point: a campus size and a registry backend.
#[derive(Clone, Copy)]
pub struct Point {
    /// Campus size in nodes (sites x 8).
    pub nodes: u32,
    /// Shard count; 0 selects the single-leader backend.
    pub shards: u32,
}

/// The sweep: the full backend ladder on the 1k campus (the gated
/// table), plus the end points again at 8k to show the trend holds an
/// order of magnitude up.
pub fn grid(max_nodes: u32) -> Vec<Point> {
    let mut g: Vec<Point> = [0u32, 2, 4, 8]
        .iter()
        .map(|&shards| Point { nodes: 1024, shards })
        .collect();
    if max_nodes >= 8192 {
        g.push(Point { nodes: 8192, shards: 0 });
        g.push(Point { nodes: 8192, shards: 8 });
    }
    g
}

/// One variant's aggregate outcome over the query phase.
pub struct VariantResult {
    /// Point this result belongs to.
    pub point: Point,
    /// Queries answered with at least one offer / issued.
    pub answered: f64,
    /// First-offer latency percentiles, ms (virtual time).
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// `query.msgs` delta per query.
    pub msgs_per_query: f64,
    /// Overlay finger hops and gossip digest/delta messages.
    pub shard_hops: u64,
    pub gossip_msgs: u64,
    /// Busiest receiver over the query phase: host and byte delta.
    pub hotspot: HostId,
    pub hotspot_recv: u64,
    /// Byte delta of the single-leader run's hotspot (the former
    /// leader) under *this* backend.
    pub leader_recv: u64,
    /// Fabric crash/restart events observed (churn really ran).
    pub crashes: u64,
}

/// Label for a point's backend column.
pub fn backend_label(p: &Point) -> String {
    if p.shards == 0 {
        "single-leader".to_owned()
    } else {
        format!("shard-{}", p.shards)
    }
}

/// A synthetic component package: distinct name, shared demo behavior
/// and signer so installation passes the Acceptor checks.
pub(crate) fn component_package(name: &str) -> Rc<Vec<u8>> {
    let mut desc = ComponentDescriptor::new(name, Version::new(1, 0), "demo-vendor")
        .provides("counter", "IDL:demo/Counter:1.0");
    desc.qos = QosSpec { cpu_min: 0.05, cpu_max: 0.2, memory: 1 << 20, bandwidth_min: 0.0 };
    let mut pkg = Package::new(desc).with_binary(
        Platform::reference(),
        "demo_counter",
        &[0xE1; 4 * 1024],
    );
    pkg.seal(&demo::demo_key());
    Rc::new(pkg.to_bytes())
}

pub(crate) fn component_name(i: u32) -> String {
    format!("Svc{i:02}")
}

/// The owner of component `i`: a scattered non-MRM seat (offset 5).
pub(crate) fn owner(i: u32, sites: u32) -> HostId {
    HostId(((i * 37) % sites) * 8 + 5)
}

/// The origin of query `q`: rotating sites, offsets 2–4 (never an MRM
/// seat, an owner seat or a crash target).
pub(crate) fn origin(q: u32, sites: u32) -> HostId {
    HostId(((q * 53 + 11) % sites) * 8 + 2 + q % 3)
}

/// E10-style churn: uniform loss/dup/jitter plus a scripted
/// crash/restart schedule on three bystander seats.
pub(crate) fn churn_plan(seed: u64, sites: u32) -> FaultPlan {
    let mut plan = FaultPlan::seeded(seed).default_link(
        LinkFaults::none()
            .drop_p(0.01)
            .dup_p(0.005)
            .jitter(SimTime::from_millis(2)),
    );
    for (k, site) in [3u32, 17, 41].iter().enumerate() {
        let down = SimTime::from_millis(8000 + 500 * k as u64);
        let up = down + SimTime::from_millis(2500);
        plan = plan.crash(HostId((site % sites) * 8 + 6), down, Some(up));
    }
    plan
}

pub(crate) fn config(registry: RegistryConfig) -> NodeConfig {
    NodeConfig::builder()
        .cohesion(CohesionConfig {
            fanout: 8,
            replicas: 2,
            // A long report cadence keeps cohesion chatter from
            // drowning the query traffic whose hotspot we measure; the
            // liveness window (3 x 2s) still exceeds the 2.5s crash
            // windows, so no spurious MRM failover.
            report_period: SimTime::from_secs(2),
            timeout_intervals: 3,
        })
        .query_timeout(SimTime::from_millis(800))
        .query_retries(1)
        .cache(CacheConfig::default())
        .registry(registry)
        .build()
}

/// Run one point. `leader` is the single-leader run's hotspot at this
/// size (`None` while measuring it); its recv delta is the headline.
pub fn run_point(point: Point, seed: u64, leader: Option<HostId>) -> VariantResult {
    let sites = point.nodes / 8;
    let registry = if point.shards == 0 {
        RegistryConfig::SingleLeader
    } else {
        RegistryConfig::Sharded(ShardConfig {
            shards: point.shards,
            replicas: 2,
            vnodes: 8,
            gossip_period: SimTime::from_millis(500),
            publish_ttl: SimTime::from_secs(2),
        })
    };
    let behaviors = lc_core::BehaviorRegistry::new();
    demo::register_demo_behaviors(&behaviors);
    let packages: Vec<(HostId, Rc<Vec<u8>>)> = (0..COMPONENTS)
        .map(|i| (owner(i, sites), component_package(&component_name(i))))
        .collect();
    let mut w: World = build_world_on(
        Net::builder(Topology::campus(sites as usize, 8))
            .fault_plan(churn_plan(seed, sites))
            .build(),
        seed,
        config(registry),
        behaviors,
        demo::demo_trust(),
        Arc::new(demo::demo_idl()),
        |host| {
            packages
                .iter()
                .filter(|(o, _)| *o == host)
                .map(|(_, p)| p.clone())
                .collect()
        },
    );

    // Soft-state convergence (cohesion summaries, shard publishes),
    // then baseline traffic so setup is excluded from the deltas. Two
    // full report rounds (2s cadence) must land before the snapshot;
    // the crash schedule starts at 8s, inside the query phase.
    w.sim.run_until(SimTime::from_secs(7));
    let recv_before: Vec<u64> =
        (0..point.nodes).map(|h| w.net.host_traffic(HostId(h)).1).collect();
    let msgs_before = w.sim.metrics_ref().counter("query.msgs");

    let mut sinks: Vec<Rc<RefCell<QueryResult>>> = Vec::new();
    for q in 0..QUERIES {
        let sink: Rc<RefCell<QueryResult>> = Rc::default();
        sinks.push(sink.clone());
        w.cmd(
            origin(q, sites),
            NodeCmd::Query {
                query: ComponentQuery::by_name(
                    &component_name(q % COMPONENTS),
                    Version::new(1, 0),
                ),
                sink,
                first_wins: true,
            },
        );
        let next = w.sim.now() + QUERY_GAP;
        w.sim.run_until(next);
    }
    let drain = w.sim.now() + SimTime::from_secs(2);
    w.sim.run_until(drain);

    let recv_delta =
        |h: HostId| w.net.host_traffic(h).1.saturating_sub(recv_before[h.0 as usize]);
    let (hotspot, hotspot_recv) = (0..point.nodes)
        .map(|h| (HostId(h), recv_delta(HostId(h))))
        .max_by_key(|&(h, d)| (d, std::cmp::Reverse(h.0)))
        .unwrap_or((HostId(0), 0));
    let leader_recv = recv_delta(leader.unwrap_or(hotspot));

    let mut lat_ms: Vec<f64> = sinks
        .iter()
        .filter_map(|s| {
            let r = s.borrow();
            r.first_offer_at.map(|at| (at - r.started).as_secs_f64() * 1e3)
        })
        .collect();
    lat_ms.sort_by(f64::total_cmp);
    let pctl = |p: f64| nearest_rank(&lat_ms, p).unwrap_or(0.0);
    let m = w.sim.metrics_ref();
    VariantResult {
        point,
        answered: lat_ms.len() as f64 / QUERIES as f64,
        p50_ms: pctl(0.50),
        p99_ms: pctl(0.99),
        msgs_per_query: (m.counter("query.msgs") - msgs_before) as f64 / QUERIES as f64,
        shard_hops: m.counter("registry.shard_hops"),
        gossip_msgs: m.counter("registry.gossip_msgs"),
        hotspot,
        hotspot_recv,
        leader_recv,
        crashes: m.counter("net.fault.crashes"),
    }
}

/// Both artefacts of one E14 run.
pub struct E14Output {
    /// Human-readable report.
    pub report: String,
    /// Machine-readable summary.
    pub json: String,
}

/// The former-leader reduction of a sharded point against its
/// size-matched single-leader row.
fn reduction(points: &[VariantResult], p: &VariantResult) -> f64 {
    let single = points
        .iter()
        .find(|s| s.point.nodes == p.point.nodes && s.point.shards == 0)
        .map_or(0, |s| s.leader_recv);
    single as f64 / (p.leader_recv.max(1)) as f64
}

/// Render the machine-readable summary: one JSON object, keys sorted,
/// floats at fixed precision.
fn render_json(points: &[VariantResult], seed: u64) -> String {
    let variant = |r: &VariantResult| {
        Json::obj([
            ("answered", r.answered.into()),
            ("backend", backend_label(&r.point).into()),
            ("crashes", r.crashes.into()),
            ("former_leader_recv_bytes", r.leader_recv.into()),
            ("former_leader_reduction", reduction(points, r).into()),
            ("gossip_msgs", r.gossip_msgs.into()),
            ("hotspot_host", r.hotspot.0.into()),
            ("hotspot_recv_bytes", r.hotspot_recv.into()),
            ("msgs_per_query", r.msgs_per_query.into()),
            ("nodes", r.point.nodes.into()),
            ("p50_ms", r.p50_ms.into()),
            ("p99_ms", r.p99_ms.into()),
            ("shard_hops", r.shard_hops.into()),
            ("shards", r.point.shards.into()),
        ])
    };
    Json::obj([
        ("experiment", "e14_sharded_registry".into()),
        ("queries_per_variant", QUERIES.into()),
        ("schema_version", SCHEMA_VERSION.into()),
        ("seed", seed.into()),
        ("variants", Json::arr(points.iter().map(variant))),
    ])
    .render()
}

/// Render both artefacts from completed sweep points.
pub fn render(points: &[VariantResult], seed: u64) -> E14Output {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|r| {
            vec![
                r.point.nodes.to_string(),
                backend_label(&r.point),
                f2(r.answered * 100.0),
                f2(r.p50_ms),
                f2(r.p99_ms),
                f2(r.msgs_per_query),
                r.shard_hops.to_string(),
                r.gossip_msgs.to_string(),
                human_bytes(r.hotspot_recv),
                human_bytes(r.leader_recv),
                f2(reduction(points, r)),
            ]
        })
        .collect();
    let mut report = String::new();
    let _ = writeln!(report, "E14: sharded registry vs single leader under churn (seed {seed})");
    let _ = writeln!(
        report,
        "{QUERIES} queries x {COMPONENTS} components, 1% loss + 3 crash/restart cycles, \
         2 replicas/shard, gossip every 500ms"
    );
    report.push_str(&format_table(
        "single-leader vs consistent-hash shards",
        &[
            "nodes",
            "backend",
            "answered %",
            "p50 ms",
            "p99 ms",
            "msgs/query",
            "hops",
            "gossip",
            "hotspot recv",
            "ex-leader recv",
            "reduction",
        ],
        &rows,
    ));
    if let (Some(single), Some(s4)) = (
        points.iter().find(|p| p.point.nodes == 1024 && p.point.shards == 0),
        points.iter().find(|p| p.point.nodes == 1024 && p.point.shards == 4),
    ) {
        let _ = writeln!(
            report,
            "\nformer leader (host {}) at 4 shards: {} -> {} recv bytes ({}x less); \
             p99 {} -> {} ms",
            single.hotspot.0,
            single.leader_recv,
            s4.leader_recv,
            f2(reduction(points, s4)),
            f2(single.p99_ms),
            f2(s4.p99_ms),
        );
    }
    E14Output { report, json: render_json(points, seed) }
}

/// Run the whole (capped) sweep. The single-leader row of each size
/// runs first so its hotspot (the former leader) can be re-measured
/// under every shard count.
pub fn run(seed: u64, max_nodes: u32) -> Vec<VariantResult> {
    let mut points: Vec<VariantResult> = Vec::new();
    let mut leaders: Vec<(u32, HostId)> = Vec::new();
    for p in grid(max_nodes) {
        let leader = leaders.iter().find(|(n, _)| *n == p.nodes).map(|&(_, h)| h);
        let result = run_point(p, seed, leader);
        if p.shards == 0 {
            leaders.push((p.nodes, result.hotspot));
        }
        points.push(result);
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e14_is_deterministic_and_meets_acceptance_floor() {
        let a = render(&run(14, 1024), 14);
        let b = render(&run(14, 1024), 14);
        assert_eq!(a.report, b.report);
        assert_eq!(a.json, b.json);
        assert!(a.json.contains("\"schema_version\": 1"));

        // Parse the per-variant gate fields back out of the JSON.
        let field = |block: &str, key: &str| -> f64 {
            block
                .lines()
                .find(|l| l.contains(&format!("\"{key}\":")))
                .and_then(|l| {
                    l.split(':').nth(1)?.trim().trim_end_matches(',').trim_matches('"').parse().ok()
                })
                .unwrap_or(f64::NAN)
        };
        let blocks: Vec<&str> = a.json.split("    {").skip(1).collect();
        let single = blocks
            .iter()
            .find(|b| field(b, "shards") == 0.0)
            .expect("single-leader row");
        for b in blocks.iter().filter(|b| field(b, "shards") >= 4.0) {
            let red = field(b, "former_leader_reduction");
            assert!(
                red >= 3.0,
                "{} shards: former-leader reduction {red} < 3x",
                field(b, "shards")
            );
            assert!(
                field(b, "p99_ms") <= field(single, "p99_ms"),
                "p99 regressed at {} shards",
                field(b, "shards")
            );
        }
        // Churn really ran, and answers stayed high through it.
        for b in &blocks {
            assert!(field(b, "crashes") >= 3.0);
            assert!(field(b, "answered") >= 0.9, "answered {}", field(b, "answered"));
        }
    }
}
