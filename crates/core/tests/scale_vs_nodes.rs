//! Differential test (ROADMAP, "The model is the stack"): the same campus
//! through real [`lc_core::node::Node`] actors and through the arithmetic
//! [`lc_core::ScaleCampus`] model that E13 and `lcperf`'s `scale_hier`
//! report from. Both run the seat steps of `lc_core::cohesion`. Per query
//! the two must agree on offers and escalations, and on messages up to
//! the two systematic differences DESIGN §11 states; their soft-state
//! tallies differ by a third. Each is asserted here as an exact offset,
//! not a tolerance.

use lc_core::cohesion::CohesionConfig;
use lc_core::demo;
use lc_core::scale::campus::COMPONENTS;
use lc_core::testkit::World;
use lc_core::{
    run_scale, ComponentQuery, HierShape, NodeConfig, ScaleConfig, Variant,
};
use lc_des::SimTime;
use lc_net::{HostId, Topology};
use lc_pkg::{ComponentDescriptor, Package, Platform, Version};
use std::rc::Rc;

/// `run_scale`'s owner rule: node `i` holds component `c` iff
/// `i % 256 == OWNER_RESIDUE[c]`.
const OWNER_RESIDUE: [u32; 2] = [7, 19];
const QUERIES: u32 = 32;

fn package(name: &str) -> Rc<Vec<u8>> {
    let desc = ComponentDescriptor::new(name, Version::new(1, 0), "demo-vendor")
        .provides("counter", "IDL:demo/Counter:1.0");
    let mut pkg =
        Package::new(desc).with_binary(Platform::reference(), "demo_counter", &[0xE1; 64]);
    pkg.seal(&demo::demo_key());
    Rc::new(pkg.to_bytes())
}

/// Origin of query `i`, as `run_scale` places it.
fn origin_of(i: u32, n: u32) -> u32 {
    ((u64::from(i) + 1) * u64::from(n) / (u64::from(QUERIES) + 1)) as u32
}

/// What one query cost and found.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
struct Observed {
    msgs: u64,
    escalations: u64,
    offers: usize,
}

/// The campus on the full node stack, booted: `n / 8` sites of 8 hosts,
/// groups as `cohesion` shapes them, single-leader registry, no cache,
/// no faults.
fn campus(n: u32, cohesion: CohesionConfig) -> World {
    let packages: Vec<Rc<Vec<u8>>> = COMPONENTS.iter().map(|c| package(c)).collect();
    let config = NodeConfig::builder().cohesion(cohesion).build();
    World::on(Topology::campus(n as usize / 8, 8), 42, config, demo::catalog(), |host| {
        (0..COMPONENTS.len())
            .filter(|&c| host.0 % 256 == OWNER_RESIDUE[c])
            .map(|c| packages[c].clone())
            .collect()
    })
}

/// [`campus`], converged: reports, then one summary sweep per level of
/// the tree.
fn converged(n: u32, cohesion: CohesionConfig) -> World {
    let mut world = campus(n, cohesion);
    world.sim.run_until(SimTime::from_secs(12));
    world
}

/// The queries on the converged node stack, one at a time so the global
/// `query.*` counters can be attributed per query.
fn through_nodes(n: u32, cohesion: CohesionConfig) -> Vec<Observed> {
    let timeout = NodeConfig::default().query_timeout;
    let mut world = converged(n, cohesion);
    let counters = |w: &World| {
        let m = w.sim.metrics_ref();
        (m.counter("query.msgs"), m.counter("query.escalations"))
    };
    (0..QUERIES)
        .map(|i| {
            let origin = HostId(origin_of(i, n));
            let component = COMPONENTS[i as usize % COMPONENTS.len()];
            let (msgs0, esc0) = counters(&world);
            let query = ComponentQuery::by_name(component, Version::new(1, 0));
            let sink = world.query(origin, query, false);
            world.run_for(timeout + SimTime::from_millis(100));
            let (msgs1, esc1) = counters(&world);
            let r = sink.borrow();
            assert!(r.done, "query {i} from {origin:?} never finalized");
            Observed { msgs: msgs1 - msgs0, escalations: esc1 - esc0, offers: r.offers.len() }
        })
        .collect()
}

fn through_model(n: u32, variant: Variant) -> Vec<Observed> {
    let report = run_scale(ScaleConfig::new(n, variant), 42);
    assert_eq!(report.outcomes.len(), QUERIES as usize);
    report
        .outcomes
        .iter()
        .map(|o| Observed {
            msgs: u64::from(o.msgs),
            escalations: u64::from(o.escalations),
            offers: o.offers as usize,
        })
        .collect()
}

/// Hops on the route of `(origin, comp)` whose sender and receiver are
/// one host — an origin that is its own leaf primary, a primary
/// escalating to or descending into a group it also leads. The node
/// stack delivers those without a wire message; the model counts every
/// hop. Derived from the tree and the owner rule alone: ascend until a
/// subtree holds an owner, then descend into every child that does.
fn local_hops(shape: &HierShape, origin: u32, comp: usize) -> u64 {
    let holds = |level, g| shape.subtree(level, g).any(|i| i % 256 == u64::from(OWNER_RESIDUE[comp]));
    let (mut level, mut g) = (0, shape.group_of(0, u64::from(origin)));
    let mut local = u64::from(shape.primary(0, g) == u64::from(origin));
    while !holds(level, g) {
        let (pl, pg) = shape.parent(level, g).expect("some subtree holds an owner");
        local += u64::from(shape.primary(pl, pg) == shape.primary(level, g));
        (level, g) = (pl, pg);
    }
    let mut seats = vec![(level, g)];
    while let Some((level, g)) = seats.pop() {
        if level == 0 {
            continue; // forwards to members; no owner is a leaf primary (7, 19 ≢ 0 mod 8)
        }
        for j in 0..shape.group_size(level, g) {
            let child = g * shape.fanout() + j;
            if holds(level - 1, child) {
                local += u64::from(j == 0); // a seat's first child shares its primary
                seats.push((level - 1, child));
            }
        }
    }
    local
}

fn owns(origin: u32, comp: usize) -> bool {
    origin % 256 == OWNER_RESIDUE[comp]
}

/// Powers of the fanout (512, 4 096) and ragged trees (1 000 and 1 016:
/// 125 and 127 leaf groups → 16 → 2 → 1, short last groups above the
/// leaves).
#[test]
fn node_stack_and_scale_model_agree_query_by_query() {
    let mut self_owned = 0;
    for n in [512u32, 1_000, 1_016, 4_096] {
        let shape = HierShape::build(u64::from(n), 8, 2);
        let nodes = through_nodes(n, CohesionConfig::default());
        let model = through_model(n, Variant::Hier);
        for i in 0..QUERIES {
            let (origin, comp) = (origin_of(i, n), i as usize % COMPONENTS.len());
            let (a, b) = (nodes[i as usize], model[i as usize]);
            let ctx = format!("n={n} query {i} from {origin}: nodes {a:?}, model {b:?}");
            if owns(origin, comp) {
                // Difference 2: the origin holds the component itself.
                // The node answers from its own repository; its leaf MRM
                // does not offer the query back to it (the one `false`
                // in `mrm_route_query`'s `ask`), finds no other taker,
                // escalates once for nothing, and the parent's descent
                // back dead-ends at the same leaf: query, escalation,
                // descent, done answer. The escalation and the descent stay
                // on one host when the leaf primary also leads the parent
                // group; the other two always cross the wire, an owner
                // being no leaf primary (7, 19 ≢ 0 mod 8). The model asks
                // the origin like any member: query, member query, offer,
                // no escalation.
                self_owned += 1;
                let leaf = shape.group_of(0, u64::from(origin));
                assert_ne!(shape.primary(0, leaf), u64::from(origin), "{ctx}");
                let (pl, pg) = shape.parent(0, leaf).expect("a leaf group has a parent");
                let leads_parent = shape.primary(pl, pg) == shape.primary(0, leaf);
                let msgs = 4 - 2 * u64::from(leads_parent);
                assert_eq!(a, Observed { msgs, escalations: 1, offers: 1 }, "{ctx}");
                assert_eq!(b, Observed { msgs: 3, escalations: 0, offers: 1 }, "{ctx}");
                continue;
            }
            assert_eq!(a.offers, b.offers, "{ctx}");
            assert_eq!(a.escalations, b.escalations, "{ctx}");
            // Difference 1: same-host hops cost the model a message each.
            assert_eq!(a.msgs + local_hops(&shape, origin, comp), b.msgs, "{ctx}");
        }
    }
    assert!(self_owned >= 3, "difference 2 went unexercised: {self_owned} self-owned origins");
}

/// The campus's `Flat` variant against the real stack collapsed into one
/// group (`fanout = n`, one MRM: [`CohesionConfig::flat`], the
/// constructor E2 uses). Neither side has a same-host hop — host 0, the central
/// registry, neither asks nor owns — so only difference 2 remains.
#[test]
fn flat_variant_is_the_stack_under_a_one_group_config() {
    for n in [512u32, 2_048] {
        let owners = u64::from(n / 256);
        let nodes = through_nodes(n, CohesionConfig::flat(n as usize, 1, SimTime::from_secs(2)));
        let model = through_model(n, Variant::Flat);
        for i in 0..QUERIES {
            let (origin, comp) = (origin_of(i, n), i as usize % COMPONENTS.len());
            let (a, b) = (nodes[i as usize], model[i as usize]);
            let ctx = format!("flat n={n} query {i} from {origin}: nodes {a:?}, model {b:?}");
            // Query to the centre, then a member query and an offer per owner.
            let expect = Observed { msgs: 2 * owners + 1, escalations: 0, offers: owners as usize };
            assert_eq!(b, expect, "{ctx}");
            assert_eq!((a.offers, a.escalations), (b.offers, b.escalations), "{ctx}");
            // Difference 2: the centre leaves a self-owning origin out.
            assert_eq!(a.msgs + 2 * u64::from(owns(origin, comp)), b.msgs, "{ctx}");
        }
    }
}

/// Difference 3: the soft-state tallies, derived from the tree. Per round
/// the model counts one summary message per parent replica of every seat
/// with a parent, but one `traffic_total` delivery per push, and a leave
/// adds nothing to `traffic_total`. Over one converged period the stack
/// sends the same summaries less those a child's primary hands to itself
/// as one of its parent's replicas: they are handled in place, uncounted.
#[test]
fn summary_tallies_differ_by_the_pushes_handled_in_place() {
    for n in [512u32, 1_000, 1_016, 4_096] {
        let shape = HierShape::build(u64::from(n), 8, 2);
        let (mut pushes, mut per_round, mut in_place) = (0, 0, 0);
        for level in 0..shape.depth() {
            for g in 0..shape.group_count(level) {
                let Some((pl, pg)) = shape.parent(level, g) else { continue };
                pushes += 1;
                per_round += shape.mrm_hosts(pl, pg).count() as u64;
                let primary = HostId(shape.primary(level, g) as u32);
                in_place += u64::from(shape.mrm_hosts(pl, pg).any(|r| r == primary));
            }
        }
        let cfg = ScaleConfig::new(n, Variant::Hier);
        let rounds = u64::from(cfg.rounds);
        let quiet = run_scale(ScaleConfig { churn: 0, ..cfg.clone() }, 42);
        let model = run_scale(cfg, 42);
        assert_eq!(model.summary_msgs, rounds * per_round, "n={n}");
        let deliveries = model.report_msgs + rounds * pushes + model.query_msgs;
        assert_eq!(model.traffic_total, deliveries, "n={n}");
        assert!(model.churn_msgs > 0 && quiet.churn_msgs == 0, "n={n}");
        assert_eq!(model.traffic_total, quiet.traffic_total, "n={n}");

        let mut world = converged(n, CohesionConfig::default());
        let summaries = |w: &World| w.sim.metrics_ref().counter("cohesion.summaries");
        let before = summaries(&world);
        world.run_for(CohesionConfig::default().report_period);
        assert_eq!(summaries(&world) - before, per_round - in_place, "n={n}");
    }
}

/// Every host sends its first keep-alive within one report period of
/// boot, however large the campus: with a period short enough that
/// staggering hosts 137 µs apart would run past it (4 096 hosts, 100
/// ms), the campus has converged once one report period per tree level
/// and one more have passed, and first-wins queries then cost what a
/// converged tree's routes cost.
#[test]
fn a_large_campus_converges_within_its_depth_in_report_periods() {
    let n = 4_096u32;
    let period = SimTime::from_millis(100);
    let cohesion = CohesionConfig { report_period: period, ..CohesionConfig::default() };
    let depth = cohesion.shape(n as usize).depth() as u64;
    let mut world = campus(n, cohesion);
    world.sim.run_until(period * (depth + 1));
    let sinks: Vec<_> = (0..QUERIES)
        .map(|i| {
            let component = COMPONENTS[i as usize % COMPONENTS.len()];
            let query = ComponentQuery::by_name(component, Version::new(1, 0));
            world.query(HostId(origin_of(i, n)), query, true)
        })
        .collect();
    world.run_for(NodeConfig::default().query_timeout + SimTime::from_millis(100));
    assert!(sinks.iter().all(|s| s.borrow().done && !s.borrow().offers.is_empty()));
    let per_query = world.sim.metrics_ref().counter("query.msgs") as f64 / f64::from(QUERIES);
    println!("{per_query:.2} msgs/query at {}", period * (depth + 1));
    assert!(per_query <= 9.41, "{per_query:.2} msgs/query: the campus has not converged");
}
