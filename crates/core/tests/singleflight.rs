//! Singleflight coalescing of identical in-flight registry queries:
//! one network round-trip serves every same-tick caller, followers keep
//! their *own* deadlines (the leader's retry horizon must not drag them
//! past their caller's timeout), and a shed leader fans its overload
//! refusal out to every follower.

use lc_core::node::NodeConfig;
use lc_core::testkit::{fast_cohesion, World};
use lc_core::{CacheConfig, ComponentQuery};
use lc_des::SimTime;
use lc_net::{HostId, Topology};

fn config(cache: Option<CacheConfig>) -> NodeConfig {
    NodeConfig {
        cohesion: fast_cohesion(),
        query_timeout: SimTime::from_millis(400),
        require_signature: false,
        cache,
        ..Default::default()
    }
}

fn world(cache: Option<CacheConfig>, seed: u64) -> World {
    World::on(
        Topology::lan(8),
        seed,
        config(cache),
        lc_core::demo::catalog(),
        |h| if h == HostId(7) { vec![lc_core::demo::counter_package()] } else { Vec::new() },
    )
}

fn query(name: &str) -> ComponentQuery {
    ComponentQuery::by_name(name, lc_pkg::Version::new(1, 0))
}

/// N identical same-tick queries cost exactly one network search: the
/// `query.msgs` delta equals a lone query's, the coalesced counter
/// accounts for the other N-1, and every caller's continuation resolves
/// with the leader's offer set.
#[test]
fn burst_of_identical_queries_is_one_round_trip() {
    const N: usize = 5;
    // Reference: one query, no coalescing possible.
    let mut solo = world(Some(CacheConfig::default()), 9);
    solo.sim.run_until(SimTime::from_secs(1));
    let before = solo.sim.metrics_ref().counter("query.msgs");
    let s = solo.query(HostId(1), query("Counter"), true);
    solo.sim.run_until(SimTime::from_secs(3));
    let solo_msgs = solo.sim.metrics_ref().counter("query.msgs") - before;
    assert!(s.borrow().done && !s.borrow().offers.is_empty());

    // Same seed, same world, N same-tick queries.
    let mut w = world(Some(CacheConfig::default()), 9);
    w.sim.run_until(SimTime::from_secs(1));
    let before = w.sim.metrics_ref().counter("query.msgs");
    let sinks: Vec<_> = (0..N).map(|_| w.query(HostId(1), query("Counter"), true)).collect();
    w.sim.run_until(SimTime::from_secs(3));
    let burst_msgs = w.sim.metrics_ref().counter("query.msgs") - before;

    assert_eq!(burst_msgs, solo_msgs, "coalesced burst must cost one search");
    assert_eq!(w.sim.metrics_ref().counter("cache.coalesced"), (N - 1) as u64);
    let leader = sinks[0].borrow();
    assert!(leader.done && !leader.offers.is_empty());
    for (i, s) in sinks.iter().enumerate().skip(1) {
        let r = s.borrow();
        assert!(r.done, "follower {i} not resolved");
        assert_eq!(r.offers.len(), leader.offers.len(), "follower {i} offer set differs");
    }
}

/// A follower that joins a leader keeps its *own* deadline. Under total
/// silent loss the leader hears nothing — no offers, no `done` answer —
/// and spends its retry budget extending its horizon; the follower must
/// still time out at `joined + timeout`, drained from the *live* leader
/// entry at exactly the boundary tick, not when the leader finally
/// gives up.
#[test]
fn follower_times_out_on_its_own_deadline_at_the_boundary_tick() {
    let plan = lc_net::FaultPlan::seeded(11)
        .default_link(lc_net::LinkFaults::none().drop_p(1.0));
    let mut w = World::on(
        lc_net::Net::builder(Topology::lan(8)).fault_plan(plan).build(),
        11,
        NodeConfig { query_retries: 2, ..config(Some(CacheConfig::default())) },
        lc_core::demo::catalog(),
        |_| Vec::new(), // nothing installed: every query misses
    );
    w.sim.run_until(SimTime::from_secs(1));

    // Leader at t0, follower joins one tick later.
    let leader = w.query(HostId(5), query("Ghost"), true);
    w.run_for(SimTime::from_millis(1));
    let follower = w.query(HostId(5), query("Ghost"), true);
    let joined = w.sim.now();

    w.sim.run_until(joined + SimTime::from_secs(4));
    assert_eq!(w.sim.metrics_ref().counter("cache.coalesced"), 1);
    let timeout = SimTime::from_millis(400);
    let f = follower.borrow();
    assert!(f.done, "follower resolved");
    assert!(f.offers.is_empty());
    assert_eq!(
        f.done_at,
        Some(joined + timeout),
        "follower must expire at its own deadline, exactly at the boundary tick"
    );
    // The leader's retries (2) extend it well past the follower.
    let l = leader.borrow();
    assert!(l.done && l.offers.is_empty());
    assert!(
        l.done_at.expect("leader resolved") > joined + timeout,
        "leader horizon extends past the follower deadline"
    );
}

/// Follower–shed interaction: when admission control sheds a pending
/// leader query (queue cap hit by a newcomer), every coalesced follower
/// gets the same deterministic overload fan-out — done immediately with
/// [`QueryResult::shed`] set, at the shed instant, not a silent ride to
/// its own timeout.
#[test]
fn shed_leader_fans_overload_to_coalesced_followers() {
    let plan = lc_net::FaultPlan::seeded(13)
        .default_link(lc_net::LinkFaults::none().drop_p(1.0));
    let mut w = World::on(
        lc_net::Net::builder(Topology::lan(8)).fault_plan(plan).build(),
        13,
        NodeConfig {
            // Room for exactly one pending search: the next distinct
            // query sheds the oldest (adaptive LIFO).
            admission: Some(lc_core::node::AdmissionConfig {
                query_queue_cap: 1,
                cpu_backlog_cap: SimTime::from_secs(10),
                deadline_aware: false,
                replicate_hot: None,
            }),
            ..config(Some(CacheConfig::default()))
        },
        lc_core::demo::catalog(),
        |_| Vec::new(), // nothing installed + total loss: searches hang
    );
    w.sim.run_until(SimTime::from_secs(1));

    // Leader plus two coalesced followers on one hanging search.
    let leader = w.query(HostId(5), query("Ghost"), true);
    w.run_for(SimTime::from_millis(1));
    let followers: Vec<_> = (0..2).map(|_| w.query(HostId(5), query("Ghost"), true)).collect();
    w.run_for(SimTime::from_millis(1));
    assert_eq!(w.sim.metrics_ref().counter("cache.coalesced"), 2);
    assert!(!leader.borrow().done, "leader resolved before the shed — test is vacuous");

    // A *distinct* query (different key, so it cannot coalesce) needs
    // the only queue slot: the pending leader is shed.
    let newcomer = w.query(HostId(5), query("Phantom"), true);
    w.run_for(SimTime::from_millis(1));
    let shed_by = w.sim.now();

    assert_eq!(w.sim.metrics_ref().counter("admission.query_shed"), 1);
    for (i, s) in std::iter::once(&leader).chain(&followers).enumerate() {
        let r = s.borrow();
        assert!(r.done, "caller {i} not completed by the shed");
        assert!(r.shed, "caller {i} missing the shed marker");
        assert!(r.offers.is_empty());
        assert!(
            r.done_at.expect("done implies done_at") <= shed_by,
            "caller {i} completed at its timeout, not at the shed instant"
        );
    }
    // The newcomer owns the slot now and rides to its own timeout.
    w.run_for(SimTime::from_secs(4));
    let n = newcomer.borrow();
    assert!(n.done && !n.shed, "newcomer must keep its admitted search");
}

/// Ask for `name` at host 5 and run for `d`: the caller's sink and the
/// `query.msgs` sent meanwhile.
fn ask(w: &mut World, name: &str, d: SimTime) -> (lc_core::node::QuerySink, u64) {
    let before = w.sim.metrics_ref().counter("query.msgs");
    let sink = w.query(HostId(5), query(name), true);
    w.run_for(d);
    (sink, w.sim.metrics_ref().counter("query.msgs") - before)
}

/// A query that has left the pending table is never joined, whichever
/// way it left: a dead-end finish (nothing offers `Missing`), a timeout
/// with no retry left, and an admission shed. In each, the next
/// identical query runs its own search — its `query.msgs` equal the
/// first query's, which ran alone — and `cache.coalesced` does not move.
#[test]
fn a_query_that_has_left_the_table_is_never_joined() {
    let timeout = SimTime::from_millis(400);
    let lossy = |seed, admission| {
        let plan = lc_net::FaultPlan::seeded(seed)
            .default_link(lc_net::LinkFaults::none().drop_p(1.0));
        let config = NodeConfig { admission, ..config(Some(CacheConfig::default())) };
        let net = lc_net::Net::builder(Topology::lan(8)).fault_plan(plan).build();
        let mut w = World::on(net, seed, config, lc_core::demo::catalog(), |_| Vec::new());
        w.run_for(SimTime::from_secs(1));
        w
    };

    // Dead end: the search ends well before its deadline, with no
    // offers, so nothing is cached either.
    let mut w = world(Some(CacheConfig::default()), 9);
    w.run_for(SimTime::from_secs(1));
    let (first, alone) = ask(&mut w, "Missing", SimTime::from_millis(100));
    let r = first.borrow();
    assert!(r.done && r.offers.is_empty() && r.done_at < Some(r.started + timeout));
    assert!(alone > 0, "the search never left the origin — the case is vacuous");
    let (next, msgs) = ask(&mut w, "Missing", SimTime::from_millis(100));
    assert!(next.borrow().done);
    assert_eq!((msgs, w.sim.metrics_ref().counter("cache.coalesced")), (alone, 0), "dead end");

    // Timeout: total loss, no retry, so the search expires at its
    // deadline.
    let mut w = lossy(11, None);
    let (first, alone) = ask(&mut w, "Ghost", timeout);
    assert_eq!(first.borrow().done_at, Some(first.borrow().started + timeout));
    assert!(alone > 0);
    let (next, msgs) = ask(&mut w, "Ghost", timeout);
    assert!(next.borrow().done);
    assert_eq!((msgs, w.sim.metrics_ref().counter("cache.coalesced")), (alone, 0), "timeout");

    // Shed: one queue slot, and a distinct query takes it from the
    // hanging search.
    let admission = lc_core::node::AdmissionConfig {
        query_queue_cap: 1,
        cpu_backlog_cap: SimTime::from_secs(10),
        deadline_aware: false,
        replicate_hot: None,
    };
    let mut w = lossy(13, Some(admission));
    let tick = SimTime::from_millis(1);
    let (first, alone) = ask(&mut w, "Ghost", tick);
    assert!(alone > 0);
    ask(&mut w, "Phantom", tick);
    assert!(first.borrow().shed);
    let (next, msgs) = ask(&mut w, "Ghost", tick);
    assert!(!next.borrow().done, "the next query holds the slot");
    assert_eq!((msgs, w.sim.metrics_ref().counter("cache.coalesced")), (alone, 0), "shed");
}
