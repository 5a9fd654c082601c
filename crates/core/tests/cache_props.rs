//! Property tests for the registry query cache under churn and faults:
//! staleness is bounded — a resolved query never names a component whose
//! only host was deregistered (crashed) more than `ttl + query_timeout`
//! of virtual time earlier.

use lc_core::node::{NodeCmd, NodeConfig, QueryResult, RegistryConfig};
use lc_core::testkit::{fast_cohesion, World};
use lc_core::{
    CacheConfig, ComponentQuery, Publication, Registry, ShardConfig, ShardRing,
    ShardRingConfig, ShardStore, SpawnSink,
};
use lc_des::SimTime;
use lc_net::{FaultPlan, HostId, LinkFaults, Net, Topology};
use lc_prop::check;
use std::cell::RefCell;
use std::rc::Rc;

const OWNER: HostId = HostId(3);
const N: usize = 6;

#[test]
fn staleness_bounded_under_churn_and_faults() {
    check("cache_staleness_bound", |g| {
        let seed = g.next_u64();
        let ttl = SimTime::from_millis(g.gen_range(200..800u64));
        let timeout = SimTime::from_millis(g.gen_range(300..700u64));
        let drop_p = g.gen_f64() * 0.1;
        let jitter_ms = g.gen_range(0..30u64);
        let period = SimTime::from_millis(g.gen_range(50..150u64));

        let plan = FaultPlan::seeded(seed).default_link(
            LinkFaults::none().drop_p(drop_p).jitter(SimTime::from_millis(jitter_ms)),
        );
        let mut w = World::on(
            Net::builder(Topology::lan(N)).fault_plan(plan).build(),
            seed ^ 0xcac4e,
            NodeConfig {
                cohesion: fast_cohesion(),
                query_timeout: timeout,
                query_retries: 1,
                require_signature: false,
                cache: Some(CacheConfig { ttl, ..CacheConfig::default() }),
                ..Default::default()
            },
            lc_core::demo::catalog(),
            |h| if h == OWNER { vec![lc_core::demo::counter_package()] } else { Vec::new() },
        );
        w.sim.run_until(SimTime::from_secs(1));

        let mut sinks: Vec<Rc<RefCell<QueryResult>>> = Vec::new();
        let query = |w: &mut lc_core::testkit::World, i: u32| {
            let origin = HostId([1u32, 2, 4, 5][(i % 4) as usize]);
            w.query(origin, ComponentQuery::by_name("Counter", lc_pkg::Version::new(1, 0)), true)
        };

        // Phase A: cache-warming queries interleaved with spawns on the
        // owner — each spawn broadcasts an invalidation.
        for i in 0..8u32 {
            sinks.push(query(&mut w, i));
            if i % 3 == 2 {
                let sink: SpawnSink = Rc::default();
                w.cmd(
                    OWNER,
                    NodeCmd::SpawnLocal {
                        component: "Counter".into(),
                        min_version: lc_pkg::Version::new(1, 0),
                        instance_name: None,
                        sink,
                    },
                );
            }
            w.run_for(period);
        }

        // Deregistration: the only owner crashes. No goodbye broadcast —
        // the TTL is the coherence backstop from here on.
        let crashed_at = w.sim.now();
        w.crash(OWNER);

        // Phase B: keep querying well past the staleness horizon.
        for i in 0..14u32 {
            sinks.push(query(&mut w, i));
            w.run_for(period);
        }
        w.run_for(SimTime::from_secs(3));

        // Staleness bound: any resolution still naming the dead owner
        // happened within ttl (cache horizon) + timeout (a search that
        // was already in flight) of the crash.
        let bound = crashed_at + ttl + timeout;
        for (i, s) in sinks.iter().enumerate() {
            let r = s.borrow();
            assert!(r.done, "query {i} never resolved");
            if r.offers.iter().any(|o| o.node == OWNER) {
                let done_at = r.done_at.expect("done implies done_at");
                assert!(
                    done_at <= bound,
                    "query {i} resolved at {done_at:?} naming the owner crashed at \
                     {crashed_at:?} (bound {bound:?}, ttl {ttl:?}, timeout {timeout:?})"
                );
            }
        }
    });
}

/// The sharded analogue: with the inventory consistent-hashed over the
/// ring, a crashed publisher's offers survive at most one publish TTL
/// (the replica store's liveness backstop, swept on the gossip cadence)
/// plus the result-cache TTL plus one in-flight search.
#[test]
fn sharded_staleness_bounded_by_publish_ttl_and_gossip() {
    check("sharded_staleness_bound", |g| {
        let seed = g.next_u64();
        let ttl = SimTime::from_millis(g.gen_range(200..500u64));
        let timeout = SimTime::from_millis(g.gen_range(300..600u64));
        let gossip = SimTime::from_millis(g.gen_range(100..200u64));
        let publish_ttl = SimTime::from_millis(g.gen_range(300..600u64));
        let drop_p = g.gen_f64() * 0.1;
        let period = SimTime::from_millis(g.gen_range(50..150u64));

        let plan = FaultPlan::seeded(seed).default_link(LinkFaults::none().drop_p(drop_p));
        let config = NodeConfig {
            cohesion: fast_cohesion(),
            query_timeout: timeout,
            query_retries: 1,
            cache: Some(CacheConfig { ttl, ..CacheConfig::default() }),
            registry: RegistryConfig::Sharded(ShardConfig {
                shards: 4,
                replicas: 2,
                vnodes: 4,
                gossip_period: gossip,
                publish_ttl,
            }),
            ..Default::default()
        };
        let mut w = World::on(
            Net::builder(Topology::lan(N)).fault_plan(plan).build(),
            seed ^ 0x54a2d,
            config,
            lc_core::demo::catalog(),
            |h| if h == OWNER { vec![lc_core::demo::counter_package()] } else { Vec::new() },
        );
        w.sim.run_until(SimTime::from_secs(1));

        let mut sinks: Vec<Rc<RefCell<QueryResult>>> = Vec::new();
        let query = |w: &mut lc_core::testkit::World, i: u32| {
            let origin = HostId([1u32, 2, 4, 5][(i % 4) as usize]);
            w.query(origin, ComponentQuery::by_name("Counter", lc_pkg::Version::new(1, 0)), true)
        };

        // Phase A: warm the shard stores and caches; spawns on the owner
        // bump its publication generation (targeted invalidations).
        for i in 0..8u32 {
            sinks.push(query(&mut w, i));
            if i % 3 == 2 {
                let sink: SpawnSink = Rc::default();
                w.cmd(
                    OWNER,
                    NodeCmd::SpawnLocal {
                        component: "Counter".into(),
                        min_version: lc_pkg::Version::new(1, 0),
                        instance_name: None,
                        sink,
                    },
                );
            }
            w.run_for(period);
        }

        // The only publisher crashes: its replica-store entries stop
        // refreshing and age out on the gossip sweep.
        let crashed_at = w.sim.now();
        w.crash(OWNER);

        // Phase B: query well past the staleness horizon.
        for i in 0..14u32 {
            sinks.push(query(&mut w, i));
            w.run_for(period);
        }
        w.run_for(SimTime::from_secs(3));

        // Staleness bound: publish_ttl until the entry is sweepable, one
        // gossip period until the sweep runs, ttl for a result cached at
        // the last serving instant, timeout for a search already in
        // flight.
        let bound = crashed_at + publish_ttl + gossip + ttl + timeout;
        let mut named_owner = 0;
        for (i, s) in sinks.iter().enumerate() {
            let r = s.borrow();
            assert!(r.done, "query {i} never resolved");
            if r.offers.iter().any(|o| o.node == OWNER) {
                named_owner += 1;
                let done_at = r.done_at.expect("done implies done_at");
                assert!(
                    done_at <= bound,
                    "query {i} resolved at {done_at:?} naming the owner crashed at \
                     {crashed_at:?} (bound {bound:?}, publish_ttl {publish_ttl:?}, \
                     gossip {gossip:?}, ttl {ttl:?}, timeout {timeout:?})"
                );
            }
        }
        // Non-vacuity: the warm phase really served the owner's offers.
        assert!(named_owner > 0, "no query ever named the owner — property is vacuous");
    });
}

/// A publisher renews an unchanged publication once it is half a
/// publish TTL old, not every gossip round. On an idle, lossless sharded
/// campus, over 4 TTLs each holder of `Counter` sends 8 `ShardPublish`es
/// to each other replica of its shard (16 while every round re-sent),
/// and the lease never lapses: after every maintenance tick, a lookup at
/// each replica answers every holder. A spawn is a change, so it still
/// publishes in the event it lands in.
#[test]
fn a_publisher_renews_an_unchanged_publication_at_half_its_ttl() {
    const HOSTS: u32 = 32;
    let holds = |h: u32| h.is_multiple_of(4);
    let shards = ShardConfig::default();
    let ttl = shards.publish_ttl;
    let mut w = World::on(
        Net::builder(Topology::campus(4, 8)).build(),
        61,
        NodeConfig {
            registry: RegistryConfig::Sharded(shards),
            cache: Some(CacheConfig::default()),
            ..Default::default()
        },
        lc_core::demo::catalog(),
        |HostId(h)| if holds(h) { vec![lc_core::demo::counter_package()] } else { Vec::new() },
    );
    w.sim.run_until(SimTime::from_secs(5));
    let holders: Vec<HostId> = (0..HOSTS).filter(|&h| holds(h)).map(HostId).collect();
    let ring = w.record.ring.clone().expect("a sharded world carries its ring");
    let shard = ring.shard_of_component("Counter");
    let replicas = Rc::clone(ring.replicas(shard));
    let others = |h: HostId| replicas.iter().filter(|&&r| r != h).count() as u64;
    assert!(holders.iter().any(|&h| others(h) < 2), "a holder that replicates the shard");
    let query = ComponentQuery::by_name("Counter", lc_pkg::Version::new(1, 0));
    fn store(w: &World, h: HostId) -> &ShardStore {
        w.node(h).expect("no crashes").backend().shard().expect("a sharded node")
    }
    let rounds = |w: &World| -> u64 {
        (0..HOSTS).map(|h| store(w, HostId(h)).gossip_rounds()).sum()
    };
    let published = |w: &World| w.sim.metrics_ref().counter("registry.publish_msgs");

    // Every event in (now, now + 4 TTL], each tick checked once it fired.
    let (end, first) = (w.sim.now() + ttl * 4, published(&w));
    let mut ticks = 0;
    let sent = loop {
        let (rounds_before, sent) = (rounds(&w), published(&w));
        assert!(w.sim.step(), "the idle plane never drains");
        if w.sim.now() > end {
            break sent - first;
        }
        if rounds(&w) == rounds_before {
            continue;
        }
        ticks += 1;
        for &r in replicas.iter() {
            let offers = store(&w, r).lookup(shard, &query);
            let offers = offers.unwrap_or_else(|| panic!("{r} replicates the shard"));
            for &h in &holders {
                assert!(
                    offers.iter().any(|o| o.node == h),
                    "{r} lost {h}'s publication at {}",
                    w.sim.now()
                );
            }
        }
    };
    let expected: u64 = holders.iter().map(|&h| others(h) * 8).sum();
    assert_eq!(sent, expected, "one renewal per half TTL per holder and other replica");
    assert!(ticks > 0, "the window holds maintenance ticks");

    let holder = holders[0];
    let sink: SpawnSink = Rc::default();
    let spawn = NodeCmd::SpawnLocal {
        component: "Counter".into(),
        min_version: lc_pkg::Version::new(1, 0),
        instance_name: None,
        sink: sink.clone(),
    };
    w.cmd(holder, spawn);
    loop {
        let before = published(&w);
        assert!(w.sim.step(), "the spawn lands");
        if sink.borrow().is_some() {
            assert!(matches!(*sink.borrow(), Some(Ok(_))), "the spawn succeeds");
            assert_eq!(published(&w) - before, others(holder), "a spawn publishes at once");
            break;
        }
    }
}

/// Ring rebalance: when a host departs, only the shards it served move,
/// so only ~K·R/H of K keys change replica sets — and a key in an
/// unmoved shard resolves identically from the identical replica.
#[test]
fn ring_rebalance_moves_only_departed_hosts_shards() {
    check("ring_rebalance", |g| {
        let hosts_n = g.gen_range(6..24u64) as u32;
        let cfg = ShardRingConfig {
            shards: [8u32, 16, 32, 64][g.gen_range(0..4u64) as usize],
            replicas: 1 + g.gen_range(0..3u64) as u32,
            vnodes: 4 + g.gen_range(0..8u64) as u32,
        };
        let full_hosts: Vec<HostId> = (0..hosts_n).map(HostId).collect();
        let gone = HostId(g.gen_range(0..hosts_n as u64) as u32);
        let mut rest = full_hosts.clone();
        rest.retain(|&h| h != gone);
        let before = Rc::new(ShardRing::build(&full_hosts, &cfg));
        let after = Rc::new(ShardRing::build(&rest, &cfg));

        let keys: Vec<String> = (0..256).map(|i| format!("Component{i}")).collect();
        let mut moved = 0usize;
        let mut unmoved_shards: Vec<u32> = Vec::new();
        for k in &keys {
            // Key → shard is churn-invariant by construction.
            let s = before.shard_of_component(k);
            assert_eq!(s, after.shard_of_component(k), "key {k} changed shards under churn");
            if before.replicas(s) == after.replicas(s) {
                unmoved_shards.push(s);
            } else {
                assert!(
                    before.replicas(s).contains(&gone),
                    "shard {s} moved although host {gone:?} never served it"
                );
                moved += 1;
            }
        }
        // A host serves ~S·R/H shards, so ~K·R/H keys move; allow a
        // generous constant for hash imbalance at small H.
        let expect = keys.len() * cfg.replicas as usize / hosts_n as usize;
        assert!(
            moved <= 4 * expect + 16,
            "{moved} of {} keys moved (expected ~{expect}; R={} H={hosts_n})",
            keys.len(),
            cfg.replicas
        );

        // "Results identical": for a key in an unmoved shard, the same
        // surviving replica answers the same lookup with the same offers
        // whether the ring was built before or after the departure.
        unmoved_shards.sort_unstable();
        unmoved_shards.dedup();
        for &s in unmoved_shards.iter().take(4) {
            let replica = before.replicas(s)[0];
            let component = keys
                .iter()
                .find(|k| before.shard_of_component(k) == s)
                .expect("unmoved shards came from the key set");
            let offer = lc_core::Offer {
                node: replica,
                component: component.as_str().into(),
                version: lc_pkg::Version::new(1, 0),
                mobility: lc_pkg::Mobility::Mobile,
                cost_per_hour: 0,
                package_size: 1000,
                load: 0.0,
                running: None,
            };
            let q = ComponentQuery::by_name(component, lc_pkg::Version::new(1, 0));
            let now = SimTime::from_millis(5);
            let registry = |ring: &Rc<ShardRing>| {
                Registry::new(None, Some(ShardStore::new(replica, ring.clone())))
            };
            let (mut b, mut a) = (registry(&before), registry(&after));
            let served = |r: &mut Registry, offers: lc_core::OfferSet| {
                let store = r.shard_mut().expect("built with a shard store");
                let component = component.as_str().into();
                store.apply(Publication { component, publisher: replica, gen: 1, at: now, offers });
                store.lookup(s, &q).map(|o| o.len())
            };
            let before_offers = served(&mut b, [offer.clone()].into());
            let after_offers = served(&mut a, [offer].into());
            assert_eq!(before_offers, Some(1));
            assert_eq!(
                before_offers, after_offers,
                "unmoved shard {s} answered differently after churn"
            );
        }
    });
}
