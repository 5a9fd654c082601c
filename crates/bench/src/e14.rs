//! E14 — the sharded registry: single leader vs a consistent-hash DHT.
//!
//! E12 showed that even with the result cache and singleflight the
//! remaining hotspot is the campus leader: every miss still ascends the
//! MRM hierarchy and funnels through its root. This experiment puts the
//! sharded registry ([`lc_core::ShardStore`]) against that wall: the same
//! 1k-node campus, the same query workload, with the component
//! inventory consistent-hashed over 2/4/8 shards (2 replicas each) and
//! each lookup sent one hop to the owning shard's replicas instead of up
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
//! latency, query messages, gossip traffic, the shard publishes and the
//! busiest receiver over the query phase, and — the headline — bytes received
//! by the *former leader* (the busiest host of the single-leader run)
//! under each shard count. The committed `BENCH_e14.json` pins the
//! acceptance floor: ≥ 3x former-leader reduction and p99 no worse at
//! 4+ shards. Everything derives from virtual time, so two runs render
//! byte-identical reports (ci.sh diffs a double run). What the sharded
//! backend costs the host is the benchmark's `registry_mixed` workload
//! (`.perf`).

use crate::{f2, format_table, human_bytes, Json, Output};
use lc_core::cohesion::CohesionConfig;
use lc_core::demo;
use lc_core::node::RegistryConfig;
use lc_core::testkit::World;
use lc_core::{CacheConfig, ComponentQuery, NodeConfig, QuerySink, ShardConfig};
use lc_des::{nearest_rank, SimTime};
use lc_net::{FaultPlan, HostId, LinkFaults, Net, Topology};
use lc_pkg::{ComponentDescriptor, Package, Platform, QosSpec, Version};
use std::fmt::Write as _;
use std::rc::Rc;

/// JSON schema version (bump when keys change; ci.sh pins the diff).
pub const SCHEMA_VERSION: u32 = 3;

/// The committed run's seed.
const SEED: u64 = 14;

/// The hotspot gate: at 4+ shards on the 1k campus the former leader
/// must receive at least this many times fewer bytes, with p99 no worse
/// than the single-leader row.
const GATE_REDUCTION: f64 = 3.0;

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
    /// Gossip digest/delta messages.
    pub gossip_msgs: u64,
    /// `ShardPublish` messages over the query phase: spawns, installs
    /// and lease renewals.
    pub publish_msgs: u64,
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
fn component_package(name: &str) -> Rc<Vec<u8>> {
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
fn owner(i: u32, sites: u32) -> HostId {
    HostId(((i * 37) % sites) * 8 + 5)
}

/// What each host boots with: `components` synthetic packages, each on
/// its [`owner`].
pub(crate) fn preinstalled(components: u32, sites: u32) -> impl Fn(HostId) -> Vec<Rc<Vec<u8>>> {
    let packages: Vec<(HostId, Rc<Vec<u8>>)> = (0..components)
        .map(|i| (owner(i, sites), component_package(&component_name(i))))
        .collect();
    move |host| packages.iter().filter(|(o, _)| *o == host).map(|(_, p)| p.clone()).collect()
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
    let mut w = World::on(
        Net::builder(Topology::campus(sites as usize, 8))
            .fault_plan(churn_plan(seed, sites))
            .build(),
        seed,
        config(registry),
        demo::catalog(),
        preinstalled(COMPONENTS, sites),
    );

    // Soft-state convergence (cohesion summaries, shard publishes),
    // then baseline traffic so setup is excluded from the deltas. Two
    // full report rounds (2s cadence) must land before the snapshot;
    // the crash schedule starts at 8s, inside the query phase.
    w.sim.run_until(SimTime::from_secs(7));
    let recv_before: Vec<u64> =
        (0..point.nodes).map(|h| w.net.host_traffic(HostId(h)).1).collect();
    let msgs_before = w.sim.metrics_ref().counter("query.msgs");
    let publish_before = w.sim.metrics_ref().counter("registry.publish_msgs");

    let mut sinks: Vec<QuerySink> = Vec::new();
    for q in 0..QUERIES {
        let query =
            ComponentQuery::by_name(&component_name(q % COMPONENTS), Version::new(1, 0));
        sinks.push(w.query(origin(q, sites), query, true));
        w.run_for(QUERY_GAP);
    }
    w.run_for(SimTime::from_secs(2));

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
        gossip_msgs: m.counter("registry.gossip_msgs"),
        publish_msgs: m.counter("registry.publish_msgs") - publish_before,
        hotspot,
        hotspot_recv,
        leader_recv,
        crashes: m.counter("net.fault.crashes"),
    }
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
            ("publish_msgs", r.publish_msgs.into()),
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

/// Why the hotspot gate fails on these points, if it does.
fn gate(points: &[VariantResult]) -> Option<String> {
    let campus_1k = || points.iter().filter(|p| p.point.nodes == 1024);
    let single_p99 =
        campus_1k().find(|p| p.point.shards == 0).map_or(f64::INFINITY, |p| p.p99_ms);
    for p in campus_1k().filter(|p| p.point.shards >= 4) {
        let red = reduction(points, p);
        if red < GATE_REDUCTION {
            return Some(format!(
                "e14: hotspot gate FAILED at {} shards: reduction {red:.2} < {GATE_REDUCTION:.2}",
                p.point.shards
            ));
        }
        if p.p99_ms > single_p99 {
            return Some(format!(
                "e14: latency gate FAILED at {} shards: p99 {:.2}ms > single-leader {:.2}ms",
                p.point.shards, p.p99_ms, single_p99
            ));
        }
    }
    None
}

/// Render both artefacts from completed sweep points and apply the
/// hotspot gate.
fn render(points: &[VariantResult], seed: u64) -> Output {
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
                r.gossip_msgs.to_string(),
                r.publish_msgs.to_string(),
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
            "gossip",
            "publish",
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
    let _ = writeln!(report, "\nsummary: {} sweep points written to JSON", points.len());
    let failed = gate(points);
    if failed.is_none() {
        let _ = writeln!(
            report,
            "hotspot gate ok: >= {GATE_REDUCTION:.2}x former-leader reduction, p99 no worse \
             at 4+ shards"
        );
    }
    Output { report, files: vec![(".json", render_json(points, seed))], failed }
}

/// Run the sweep up to `max_nodes` (ci.sh smoke runs cap at 1024; the
/// committed artefact includes the 8k end points). The single-leader
/// row of each size runs first so its hotspot (the former leader) can
/// be re-measured under every shard count.
pub fn run(max_nodes: u32) -> Output {
    let seed = SEED;
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
    render(&points, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e14_is_deterministic_and_meets_acceptance_floor() {
        let a = run(1024);
        let b = run(1024);
        assert_eq!(a.report, b.report);
        assert_eq!(a.files, b.files);
        // >= 3x former-leader reduction and p99 no worse at 4+ shards.
        assert_eq!(a.failed, None);
        let json = &a.files[0].1;
        assert!(json.contains("\"schema_version\": 3"));

        // Parse the per-variant fields back out of the JSON.
        let field = |block: &str, key: &str| -> f64 {
            block
                .lines()
                .find(|l| l.contains(&format!("\"{key}\":")))
                .and_then(|l| {
                    l.split(':').nth(1)?.trim().trim_end_matches(',').trim_matches('"').parse().ok()
                })
                .unwrap_or(f64::NAN)
        };
        let blocks: Vec<&str> = json.split("    {").skip(1).collect();
        // Churn really ran, and answers stayed high through it.
        for b in &blocks {
            assert!(field(b, "crashes") >= 3.0);
            assert!(field(b, "answered") >= 0.9, "answered {}", field(b, "answered"));
        }
    }
}
