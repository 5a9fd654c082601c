//! Equivalence regression for the registry query cache: caching and
//! coalescing change what queries *cost*, never what they *answer* —
//! and a node configured without a [`CacheConfig`] is byte-identical to
//! the pre-cache runtime (same counters, same results, run after run).

use lc_core::node::{NodeConfig, QueryResult};
use lc_core::testkit::World;
use lc_core::{CacheConfig, ComponentQuery};
use lc_des::SimTime;
use lc_net::{FaultPlan, HostId, LinkFaults, Net, Topology};
use std::cell::RefCell;
use std::rc::Rc;

fn config(cache: Option<CacheConfig>, retries: u32) -> NodeConfig {
    NodeConfig {
        cohesion: lc_core::cohesion::CohesionConfig {
            fanout: 8,
            replicas: 2,
            report_period: SimTime::from_millis(500),
            timeout_intervals: 3,
        },
        query_timeout: SimTime::from_millis(800),
        query_retries: retries,
        require_signature: false,
        cache,
        ..Default::default()
    }
}

/// Normalized result set of one query: sorted, deduped
/// `(node, component, version)` triples.
type ResultSet = Vec<(u32, String, String)>;

fn normalize(r: &QueryResult) -> ResultSet {
    let mut set: ResultSet = r
        .offers
        .iter()
        .map(|o| (o.node.0, o.component.to_string(), o.version.to_string()))
        .collect();
    set.sort();
    set.dedup();
    set
}

/// The E2-style workload: 32-node campus, rounds of repeated queries
/// from fixed front-end origins (cache- and coalesce-friendly traffic).
/// Returns per-query normalized result sets plus the full simulation
/// counter dump.
fn e2_workload(net: Net, cache: Option<CacheConfig>, retries: u32, seed: u64)
    -> (Vec<ResultSet>, Vec<(String, u64)>)
{
    let mut w: World = World::on(
        net,
        seed,
        config(cache, retries),
        lc_core::demo::catalog(),
        |h| if h.0 % 16 == 7 { vec![lc_core::demo::counter_package()] } else { Vec::new() },
    );
    w.sim.run_until(SimTime::from_secs(2));

    let mut sinks: Vec<Rc<RefCell<QueryResult>>> = Vec::new();
    for _round in 0..4 {
        for origin in [HostId(2), HostId(12), HostId(26)] {
            for _burst in 0..2 {
                let query = ComponentQuery::by_name("Counter", lc_pkg::Version::new(1, 0));
                sinks.push(w.query(origin, query, true));
            }
            w.run_for(SimTime::from_millis(150));
        }
    }
    w.run_for(SimTime::from_secs(3));

    let sets = sinks.iter().map(|s| normalize(&s.borrow())).collect();
    let counters =
        w.sim.metrics_ref().counters().map(|(k, v)| (k.to_owned(), v)).collect();
    (sets, counters)
}

/// Cache + coalescing on vs off over the fault-free E2 workload:
/// ordering-normalized result sets are identical query for query.
#[test]
fn e2_results_identical_with_cache_and_coalescing() {
    let plain = Net::builder(Topology::campus(4, 8)).build();
    let (off, _) = e2_workload(plain, None, 0, 77);
    let cached = Net::builder(Topology::campus(4, 8)).build();
    let (on, _) = e2_workload(cached, Some(CacheConfig::default()), 0, 77);
    assert_eq!(off.len(), on.len());
    for (i, (a, b)) in off.iter().zip(&on).enumerate() {
        assert_eq!(a, b, "query {i}: result set differs with cache+coalescing on");
        assert!(!a.is_empty(), "query {i} unanswered");
    }
}

/// With the cache *disabled* (`cache: None`), two runs are identical in
/// every counter and every result — the cache layer is observationally
/// absent, which is what keeps E1–E11 byte-identical to the pre-cache
/// tree. No cache counter may even exist.
#[test]
fn disabled_cache_leaves_no_trace_and_stays_deterministic() {
    let a = e2_workload(Net::builder(Topology::campus(4, 8)).build(), None, 0, 5);
    let b = e2_workload(Net::builder(Topology::campus(4, 8)).build(), None, 0, 5);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert!(
        a.1.iter().all(|(k, _)| !k.starts_with("cache.")),
        "cache counters must not exist when disabled"
    );
}

/// The E10-style lossy variant: 5% silent loss, retry budget 2. The
/// *success sets* (which queries got at least one offer, and for what
/// component) must match cache-on vs cache-off — under loss the cache
/// may only re-serve answers the network actually produced.
#[test]
fn e10_success_sets_match_under_loss() {
    let run = |cache: Option<CacheConfig>| {
        let plan =
            FaultPlan::seeded(99).default_link(LinkFaults::none().drop_p(0.05));
        let net = Net::builder(Topology::campus(4, 8)).fault_plan(plan).build();
        e2_workload(net, cache, 2, 99)
    };
    let (off, _) = run(None);
    let (on, _) = run(Some(CacheConfig::default()));
    assert_eq!(off.len(), on.len());
    for (i, (a, b)) in off.iter().zip(&on).enumerate() {
        let names = |s: &ResultSet| {
            let mut n: Vec<String> =
                s.iter().map(|(_, c, v)| format!("{c}:{v}")).collect();
            n.sort();
            n.dedup();
            n
        };
        assert_eq!(
            names(a),
            names(b),
            "query {i}: success set differs under loss with caching on"
        );
    }
}

/// Same workload on a plain fabric (no fault plan), as a cross-check
/// that cache-on runs are themselves
/// deterministic: two identical cache-enabled runs agree on results
/// *and* on every cache counter.
#[test]
fn cache_enabled_runs_are_deterministic() {
    let mk = || {
        let mut w = World::on(
            Topology::campus(2, 8),
            3,
            config(Some(CacheConfig::default()), 0),
            lc_core::demo::catalog(),
            |h| if h.0 % 16 == 7 { vec![lc_core::demo::counter_package()] } else { Vec::new() },
        );
        w.sim.run_until(SimTime::from_secs(2));
        let mut sinks = Vec::new();
        for _ in 0..3 {
            for _ in 0..2 {
                let query = ComponentQuery::by_name("Counter", lc_pkg::Version::new(1, 0));
                sinks.push(w.query(HostId(2), query, true));
            }
            w.run_for(SimTime::from_millis(200));
        }
        w.run_for(SimTime::from_secs(2));
        let sets: Vec<ResultSet> = sinks.iter().map(|s| normalize(&s.borrow())).collect();
        let counters: Vec<(String, u64)> =
            w.sim.metrics_ref().counters().map(|(k, v)| (k.to_owned(), v)).collect();
        (sets, counters)
    };
    let a = mk();
    let b = mk();
    assert_eq!(a, b);
    assert!(a.1.iter().any(|(k, v)| k == "cache.hits" && *v > 0), "cache actually hit");
}
