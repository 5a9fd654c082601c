//! Allocation budget of the background soft-state plane (ROADMAP, the
//! `[benchmark]` PR: "the allocation columns are deterministic, so gate
//! them exactly").
//!
//! A converged campus with no operations in flight does nothing but
//! re-send soft state: keep-alive reports, subtree summaries and, when
//! sharded, refresh-publishes and gossip digests. What that costs in heap
//! allocations per node per report period is a pure function of the code,
//! so it is pinned here. A change that makes it cheaper lowers the
//! constant in the same commit; a change that makes it dearer fails.
//!
//! Its own test binary because it installs a counting global allocator
//! (`lc_prop::alloc`, thread-local counters).

use lc_core::demo;
use lc_core::node::{AdmissionConfig, InvokePolicy, NodeCmd, RegistryConfig};
use lc_core::scale::{run_scale, ScaleConfig, Variant};
use lc_core::testkit::{display_campus, fast_cohesion, DISPLAY_FRONTS as FRONTS, World};
use lc_core::cohesion::MemberRecord;
use lc_core::{
    CacheConfig, CohesionConfig, ComponentQuery, Continuations, GroupSummary, NodeConfig, Offer,
    OfferSet, QuerySink, Registry, ResolveStep, ServiceKind, ShardConfig, ShardStore,
};
use lc_des::{Lane, ProfilerConfig, SimTime};
use lc_load::{
    ArrivalShape, ArrivalStream, DriverArrival, DriverConfig, LoadDriver, QueryTick, StreamConfig,
    ZipfKeys,
};
use lc_net::{HostId, Topology};
use lc_orb::{Name, RequestId, Value};
use lc_pkg::Version;
use lc_prop::alloc::{allocs, live_bytes, peak_live_bytes, reset_peak_live_bytes, Counting};
use std::collections::BTreeSet;
use std::rc::Rc;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per node per report period: the measured 0 / 640 on both
/// campuses. A frame waits by value in its mail lane, and a gossip round
/// shares each replicated shard's digest as kept, so neither plane
/// allocates. Debug builds add the exactness assertion's recomputation
/// of every re-sent publication, 160 × [`RESEND_CHECK_ALLOCS`] on the
/// sharded campus (160 / 640: eight holders renew once a second; 320 /
/// 640 while every maintenance tick re-sent). The check of a shared
/// digest against a fold of its entries compares them in step, and the
/// check of a re-sent subtree summary compares its name set with its
/// records' names, so neither allocates. (80 / 640 and 400 / 640 while that check built
/// the set afresh for every re-sent summary, and 720 / 640 on the
/// sharded campus while each recomputed publication also copied its
/// query's name.) A round after a change to its shard
/// allocates nothing either, the digest having been edited in place
/// ([`a_changed_shard_gossips_without_rebuilding`]; 2 allocations while
/// such a round rebuilt it whole). While every round rebuilt every
/// digest, the sharded plane
/// measured 1 320 / 640; with every frame boxed once the two measured
/// 1 260 / 640 and 3 820 / 640; before an unchanged duty re-sent its last
/// summary, 1 500 / 640 and 4 060 / 640; before a refresh re-sent its
/// last publication the sharded plane measured 6 460 / 640; with every
/// frame boxed twice and every timer boxed once the same runs measured
/// 6.32 and 20.44; before soft state was shared, 25.50 and 47.25
/// (EXPERIMENTS.md, "Background soft state").
const SINGLE_LEADER_BUDGET: f64 = 0.0;
const SHARDED_BUDGET: f64 = if cfg!(debug_assertions) { 0.25 } else { 0.0 };

/// What the exactness assertion of debug builds adds to re-sending the
/// campus's one publication: recomputing it (the offer set; its query
/// shares the installed component's name and the offer its component
/// name) to compare with what is re-sent. 2 while the query copied the
/// name.
const RESEND_CHECK_ALLOCS: u64 = if cfg!(debug_assertions) { 1 } else { 0 };

const NODES: u64 = 64;
const PERIODS: u64 = 10;
const REPORT_PERIOD: SimTime = SimTime::from_secs(2);

/// The benchmark's campus at 1/16 size: 8 sites of 8 hosts, 2 s report
/// period, `Counter` installed on the first host of every site.
fn campus(registry: RegistryConfig, cache: Option<CacheConfig>) -> World {
    campus_with_counter_on(registry, cache, |h| h % 8 == 0)
}

/// The same campus with `Counter` installed on the hosts `holds` picks.
fn campus_with_counter_on(
    registry: RegistryConfig,
    cache: Option<CacheConfig>,
    holds: fn(u32) -> bool,
) -> World {
    let config = NodeConfig {
        cohesion: CohesionConfig {
            fanout: 8,
            replicas: 2,
            report_period: REPORT_PERIOD,
            timeout_intervals: 3,
        },
        registry,
        cache,
        ..Default::default()
    };
    World::on(
        Topology::campus(8, 8),
        7,
        config,
        demo::catalog(),
        |HostId(h)| if holds(h) { vec![demo::counter_package()] } else { Vec::new() },
    )
}

/// Converge (two report rounds plus the summary climb), then count the
/// allocations of `PERIODS` idle report periods: the total, which
/// `budget × NODES × PERIODS` bounds.
fn idle_allocs(mut world: World) -> u64 {
    world.sim.run_until(SimTime::from_secs(7));
    let before = allocs();
    world.sim.run_until(SimTime::from_secs(7) + REPORT_PERIOD * PERIODS);
    allocs() - before
}

fn assert_budget(what: &str, total: u64, per_node_period: f64) {
    let measured = total as f64 / (NODES * PERIODS) as f64;
    println!("{what}: {total} allocations = {measured:.3} per node-period");
    assert!(
        measured <= per_node_period,
        "{what}: {measured:.3} allocations per node-period exceed the budget of {per_node_period}"
    );
}

#[test]
fn single_leader_idle_allocation_budget() {
    let total = idle_allocs(campus(RegistryConfig::SingleLeader, None));
    assert_budget("single-leader idle campus", total, SINGLE_LEADER_BUDGET);
}

#[test]
fn sharded_idle_allocation_budget() {
    let registry = RegistryConfig::Sharded(ShardConfig::default());
    let total = idle_allocs(campus(registry, Some(CacheConfig::default())));
    assert_budget("sharded idle campus", total, SHARDED_BUDGET);
}

/// A sharded refresh, tick by tick on the idle campus: the
/// `ShardMaintain` tick of a `Counter` owner that replicates no shard (so
/// it builds no digest), whose publisher inputs did not change, renews
/// its publication once that is half a `publish_ttl` old, and the
/// renewal allocates nothing — no frame for the `ShardPublish`es it
/// sends, nothing to rebuild the publication — except, in debug builds,
/// [`RESEND_CHECK_ALLOCS`]. A tick inside the lease sends nothing and
/// allocates nothing, in debug builds too. (Every tick re-sent before.)
#[test]
fn an_unchanged_refresh_allocates_nothing_per_message() {
    let shards = ShardConfig::default();
    let window = REPORT_PERIOD * PERIODS;
    assert!(window >= shards.publish_ttl, "the window holds a whole lease");
    let mut world = campus(RegistryConfig::Sharded(shards), Some(CacheConfig::default()));
    world.sim.run_until(SimTime::from_secs(7));
    let ring = world.record.ring.clone().expect("a sharded world carries its ring");
    let owners = (0..NODES as u32).step_by(8).map(HostId);
    let publishers: Vec<HostId> = owners.filter(|&h| ring.shards_of(h).is_empty()).collect();
    assert!(!publishers.is_empty(), "some owner replicates no shard");
    let rounds = |world: &World| -> Vec<u64> {
        let node = |h| world.node(h).expect("no crashes");
        let rounds = |h| node(h).backend().shard().map_or(0, ShardStore::gossip_rounds);
        publishers.iter().map(|&h| rounds(h)).collect()
    };
    let counter = |world: &World, key: &str| world.sim.metrics_ref().counter(key);

    let end = SimTime::from_secs(7) + window;
    let (mut renewals, mut fresh) = (0, 0);
    while world.sim.now() < end {
        let rounds_before = rounds(&world);
        let sent_before = counter(&world, "net.msgs");
        let published_before = counter(&world, "registry.publish_msgs");
        let before = allocs();
        assert!(world.sim.step(), "the idle plane never drains");
        let allocs = allocs() - before;
        if rounds(&world) == rounds_before {
            continue;
        }
        let sent = counter(&world, "net.msgs") - sent_before;
        let published = counter(&world, "registry.publish_msgs") - published_before;
        let at = world.sim.now();
        assert_eq!(sent, published, "a publisher's tick sends only its publication at {at}");
        if published > 0 {
            assert_eq!(
                allocs, RESEND_CHECK_ALLOCS,
                "a renewal that sent {sent} message(s) allocated {allocs} times at {at}"
            );
            renewals += 1;
        } else {
            assert_eq!(allocs, 0, "a tick inside the lease allocated {allocs} times at {at}");
            fresh += 1;
        }
    }
    println!("{renewals} unchanged renewals, none allocating per message; {fresh} ticks inside the lease");
    assert!(renewals > 0, "the window must contain renewals");
    assert!(fresh > 0, "the window must contain ticks inside the lease");
}


/// The message path itself, event by event on the idle single-leader
/// campus: no event allocates — not a timer tick, not a delivery, not a
/// send, since every frame waits by value in its mail lane, and not a
/// sweep that re-sends its duty's unchanged summary (in debug builds
/// too, whose check of it compares names in place; 1 allocation per
/// re-sent summary while that check built their set afresh).
#[test]
fn no_allocation_per_message_or_timer() {
    let mut world = campus(RegistryConfig::SingleLeader, None);
    // Observation only, to tell timer ticks (packed lane) from
    // deliveries. On before convergence so its per-actor table is fully
    // grown, and without queue sampling, it allocates nothing inside a
    // measured event.
    world.sim.enable_profiler(ProfilerConfig { sample_every: SimTime::ZERO, max_samples: 0 });
    world.sim.run_until(SimTime::from_secs(7));
    let counter = |world: &World, key: &str| world.sim.metrics_ref().counter(key);
    let ticks = |world: &World| {
        world.sim.profile_report().map_or(0, |r| r.lane(Lane::Packed).events)
    };

    let end = SimTime::from_secs(7) + REPORT_PERIOD * PERIODS;
    let (mut msgs, mut silent_ticks, mut summaries) = (0, 0, 0);
    while world.sim.now() < end {
        let sent_before = counter(&world, "net.msgs");
        let summaries_before = counter(&world, "cohesion.summaries");
        let ticks_before = ticks(&world);
        let before = allocs();
        assert!(world.sim.step(), "the idle plane never drains");
        let allocs = allocs() - before;
        let sent = counter(&world, "net.msgs") - sent_before;
        assert_eq!(
            allocs,
            0,
            "an event that sent {sent} message(s) allocated {allocs} times at {}",
            world.sim.now()
        );
        msgs += sent;
        summaries += counter(&world, "cohesion.summaries") - summaries_before;
        if sent == 0 && ticks(&world) > ticks_before {
            silent_ticks += 1;
        }
    }
    println!("no allocation for {msgs} messages ({summaries} summaries), {silent_ticks} silent ticks");
    assert!(summaries > 0, "the window must contain re-sent summaries");
    assert!(silent_ticks > 0, "the window must contain timer ticks that send nothing");
}

/// The same on the idle sharded campus, the benchmark's
/// `registry_mixed` configuration (result cache on): no event allocates.
/// A gossip round shares each replicated shard's digest as kept, and a
/// refresh re-sends its last publication when it renews it. Debug builds
/// add [`RESEND_CHECK_ALLOCS`] per renewal, the event whose `Counter`
/// holder sent `ShardPublish`es (its re-sent publication recomputed).
/// (Every gossip round rebuilt every digest before: 1 320 allocations
/// per 640 node-periods.)
#[test]
fn no_allocation_per_message_or_timer_when_sharded() {
    let registry = RegistryConfig::Sharded(ShardConfig::default());
    let mut world = campus(registry, Some(CacheConfig::default()));
    world.sim.enable_profiler(ProfilerConfig { sample_every: SimTime::ZERO, max_samples: 0 });
    world.sim.run_until(SimTime::from_secs(7));
    let counter = |world: &World, key: &str| world.sim.metrics_ref().counter(key);
    let ticks = |world: &World| {
        world.sim.profile_report().map_or(0, |r| r.lane(Lane::Packed).events)
    };

    let end = SimTime::from_secs(7) + REPORT_PERIOD * PERIODS;
    let (mut msgs, mut silent_ticks, mut digests) = (0, 0, 0);
    while world.sim.now() < end {
        let sent_before = counter(&world, "net.msgs");
        let digests_before = counter(&world, "registry.gossip_msgs");
        let published_before = counter(&world, "registry.publish_msgs");
        let ticks_before = ticks(&world);
        let allocs = step_counting(&mut world);
        let sent = counter(&world, "net.msgs") - sent_before;
        let renewed = u64::from(counter(&world, "registry.publish_msgs") > published_before);
        assert_eq!(
            allocs,
            renewed * RESEND_CHECK_ALLOCS,
            "an event that sent {sent} message(s) allocated {allocs} times at {}",
            world.sim.now()
        );
        msgs += sent;
        digests += counter(&world, "registry.gossip_msgs") - digests_before;
        if sent == 0 && ticks(&world) > ticks_before {
            silent_ticks += 1;
        }
    }
    println!("no allocation for {msgs} messages ({digests} digests) and {silent_ticks} silent ticks");
    assert!(digests > 0, "the window must contain gossip digests");
    assert!(silent_ticks > 0, "the window must contain timer ticks that send nothing");
}

/// A replica's gossip round after an entry of its shard changed: a spawn
/// of `Counter` on host 0 advances host 0's generation for it, and its
/// publishes reach the shard's replicas, each of which edits its kept
/// digest in place. The next `ShardMaintain` tick of a replica that holds
/// no `Counter` (so it re-sends no publication) then allocates nothing:
/// it shares the digest as kept. (It rebuilt the whole digest before, one
/// vector and one shared slice.)
#[test]
fn a_changed_shard_gossips_without_rebuilding() {
    const HOLDER: HostId = HostId(0);
    let registry = RegistryConfig::Sharded(ShardConfig::default());
    let mut world = campus(registry, Some(CacheConfig::default()));
    world.sim.run_until(SimTime::from_secs(7));
    let ring = world.record.ring.clone().expect("a sharded world carries its ring");
    let shard = ring.shard_of_component("Counter");
    let replica = (ring.replicas(shard).iter().copied())
        .find(|h| h.0 % 8 != 0)
        .expect("a replica of Counter's shard holds no Counter");
    let running = |world: &World| {
        let store = world.node(replica).expect("no crashes").backend().shard().expect("sharded");
        let query = ComponentQuery::by_name("Counter", Version::new(1, 0));
        let offers = store.lookup(shard, &query).expect("a replica answers");
        offers.iter().any(|o| o.node == HOLDER && o.running.is_some())
    };
    let rounds = |world: &World| {
        let node = world.node(replica).expect("no crashes");
        node.backend().shard().map_or(0, ShardStore::gossip_rounds)
    };

    assert!(!running(&world), "no instance of Counter yet");
    let sink: lc_core::SpawnSink = Rc::default();
    let cmd = NodeCmd::SpawnLocal {
        component: "Counter".into(),
        min_version: Version::new(1, 0),
        instance_name: None,
        sink: sink.clone(),
    };
    world.cmd(HOLDER, cmd);
    while !running(&world) {
        assert!(world.sim.step(), "the campus never drains");
    }
    assert!(sink.borrow().as_ref().is_some_and(Result::is_ok), "the spawn succeeded");
    let before = rounds(&world);
    let allocs = step_until_counting(&mut world, |w| rounds(w) > before);
    println!("the first gossip round of a changed replica: {allocs} allocation(s)");
    assert_eq!(allocs, 0, "a replica's round after a change shares its kept digest");
}

/// A query's hops through the MRM seats allocate nothing. `Counter` sits
/// on two plain members, 5 and 13, so a query from host 42 misses at its
/// leaf seat (host 40) and escalates; the root seat (host 0) descends to
/// both child groups, to its own in place (a nested seat, on a second
/// pooled buffer) and to host 8's over the wire; host 8's leaf seat asks
/// member 13. After a first query has grown the candidate buffers and the
/// mail lanes, none of these seat events allocates: no frame, no
/// candidate list, no copy of the query.
#[test]
fn a_seat_hop_allocates_nothing() {
    const ORIGIN: HostId = HostId(42);
    const SEATS: [HostId; 3] = [HostId(40), HostId(0), HostId(8)];
    let mut world =
        campus_with_counter_on(RegistryConfig::SingleLeader, None, |h| h == 5 || h == 13);
    world.sim.run_until(SimTime::from_secs(7));
    let query = || ComponentQuery::by_name("Counter", Version::new(1, 0));
    let warm = world.query(ORIGIN, query(), false);
    world.run_for(SimTime::from_secs(2));
    let holders = |sink: &QuerySink| {
        let mut nodes: Vec<HostId> = sink.borrow().offers.iter().map(|o| o.node).collect();
        nodes.sort();
        nodes
    };
    assert_eq!(holders(&warm), [HostId(5), HostId(13)], "the first query found both holders");

    let queries_in = |world: &World, h: HostId| {
        let node = world.node(h).expect("no crashes");
        node.node_metrics().service(ServiceKind::Registry).msgs_in
    };
    let sent = |world: &World| world.sim.metrics_ref().counter("net.msgs");
    let sink = world.query(ORIGIN, query(), false);
    let end = world.sim.now() + SimTime::from_secs(2);
    let mut hops = Vec::new();
    while world.sim.now() < end {
        let before_in = SEATS.map(|h| queries_in(&world, h));
        let sent_before = sent(&world);
        let before = allocs();
        assert!(world.sim.step(), "the campus never drains");
        let allocs = allocs() - before;
        let asked = SEATS.iter().zip(before_in).find(|&(&h, n)| queries_in(&world, h) > n);
        let Some((&seat, _)) = asked else { continue };
        let sent = sent(&world) - sent_before;
        assert_eq!(allocs, 0, "seat {seat:?} sent {sent} message(s), allocated {allocs}");
        hops.push((seat, sent));
    }
    println!("seat hops (host, frames): {hops:?}");
    // Host 40 escalates, host 0 descends to host 5 (through its own leaf
    // seat) and to host 8, which asks host 13.
    assert_eq!(hops, [(HostId(40), 1), (HostId(0), 2), (HostId(8), 1)]);
    assert_eq!(holders(&sink), [HostId(5), HostId(13)]);
}

/// One event, and what the allocator was asked for while it ran.
fn step_counting(world: &mut World) -> u64 {
    let before = allocs();
    assert!(world.sim.step(), "the campus never drains");
    allocs() - before
}

/// Step until `done` holds; return the allocations of the event that
/// made it hold.
fn step_until_counting(world: &mut World, done: impl Fn(&World) -> bool) -> u64 {
    loop {
        let allocs = step_counting(world);
        if done(world) {
            return allocs;
        }
    }
}

/// A query the result cache serves allocates nothing: its caller's sink
/// shares the cached offer set. (1 while every hit handed out a copy of
/// the cached vector, whose offers shared their component names and their
/// instances' repository ids with it; more while each offer copied its
/// name, when names were owned strings.) On the sharded registry, whose
/// one-hop lookup completes a search — so its result is cached — with
/// every holder's offer.
#[test]
fn a_cache_served_query_allocates_nothing() {
    const ORIGIN: HostId = HostId(42);
    let registry = RegistryConfig::Sharded(ShardConfig::default());
    let mut world = campus(registry, Some(CacheConfig::default()));
    world.sim.run_until(SimTime::from_secs(7));
    let query = || ComponentQuery::by_name("Counter", Version::new(1, 0));
    let warm = world.query(ORIGIN, query(), false);
    world.run_for(SimTime::from_millis(100));
    let found = warm.borrow().offers.len();
    assert!(warm.borrow().done && found == 8, "the first query found all 8 holders");

    let hits = |world: &World| world.sim.metrics_ref().counter("cache.hits");
    let hits_before = hits(&world);
    let sink = world.query(ORIGIN, query(), false);
    let allocs = step_until_counting(&mut world, |_| sink.borrow().done);
    assert_eq!(hits(&world), hits_before + 1, "the second query was a cache hit");
    assert_eq!(sink.borrow().offers.len(), found);
    println!("a cache-served query of {found} offers: {allocs} allocation(s)");
    assert_eq!(allocs, 0, "a cache hit shares the cached offer set");
}

/// A name query on the sharded registry, hop by hop, from a host that
/// neither holds `Counter` nor replicates its shard: the origin's start
/// allocates nothing (the pending entry and the lookup each hold a clone
/// of the query, which shares its name); the replica's lookup, which
/// merges eight holders' publications, allocates the one offer set it
/// sends (its offers share their names with the stored publications);
/// the origin's receipt hands that set to the caller's sink and
/// allocates nothing. (Without a result cache, so nothing else holds
/// it.) The start allocated one box while the search shared its query
/// through it.
#[test]
fn a_shard_lookup_allocates_one_vector_per_hop() {
    let mut world = campus(RegistryConfig::Sharded(ShardConfig::default()), None);
    world.sim.run_until(SimTime::from_secs(7));
    let ring = world.record.ring.clone().expect("a sharded world carries its ring");
    let shard = ring.shard_of_component("Counter");
    let origin = (0..NODES as u32)
        .map(HostId)
        .find(|&h| h.0 % 8 != 0 && !ring.is_replica(shard, h))
        .expect("some host is neither a holder nor a replica");
    let query = || ComponentQuery::by_name("Counter", Version::new(1, 0));
    let warm = world.query(origin, query(), true);
    world.run_for(SimTime::from_millis(500));
    let found = warm.borrow().offers.len();
    assert!(warm.borrow().done && found > 0, "the first query found Counter");

    let served = |world: &World| -> u64 {
        let node = |h: &HostId| world.node(*h).expect("no crashes");
        let msgs_in = |h| node(h).node_metrics().service(ServiceKind::Registry).msgs_in;
        ring.replicas(shard).iter().map(msgs_in).sum()
    };
    let sink = world.query(origin, query(), true);
    let started = sink.borrow().started;
    let start = step_until_counting(&mut world, |_| sink.borrow().started > started);
    let before = served(&world);
    let lookup = step_until_counting(&mut world, |w| served(w) > before);
    let answer = step_until_counting(&mut world, |_| sink.borrow().done);
    assert_eq!(sink.borrow().offers.len(), found);
    println!("shard lookup of {found} offer(s): start {start}, lookup {lookup}, answer {answer}");
    assert_eq!((start, lookup, answer), (0, 1, 0));
}

/// What a re-install of the demo `Counter` package, byte-identical to
/// the copy the node holds, costs the acceptor: one comparison with the
/// kept bytes, which finds the held entry and hands back its shared
/// name; nothing is parsed, hashed, kept or merged. The measured 0, in
/// release and debug builds alike. It was 29 while every re-install was
/// parsed in full before the kept copy was found — the descriptor's XML
/// tree and fields, the IDL source, each section's strings and
/// decompressed payload, and a hash of the bytes that arrived to check
/// their signature; 78 while the tree copied every tag name (twice),
/// attribute key and value and text, and a schema check formatted each
/// element's path; 463 while the signature was checked over a
/// re-encoding of the package (XML, LZSS and hash again), the schema was
/// rebuilt per parse, the descriptor and name were copied out and every
/// install re-merged its IDL into a copy of the node's interface
/// repository.
const REINSTALL_ALLOCS: u64 = 0;
/// What a local spawn of `Counter` costs: the servant, and the instance
/// record's port list with its two strings; the installed component is
/// read in place and the reference shares its repository id. The
/// measured 4; it was 33 while the spawn cloned the whole installed
/// component, package and 4 KiB payload included.
const SPAWN_ALLOCS: u64 = 4;

/// A re-install of the bytes host 0 holds for `Counter` (a fresh copy,
/// not the kept allocation) and a local spawn there, each event by
/// event (coherence off: no cache, one leader, so this is the
/// acceptor's and the container's own work).
#[test]
fn a_reinstall_and_a_spawn_allocate_a_pinned_count() {
    const HOLDER: HostId = HostId(0);
    let mut world = campus(RegistryConfig::SingleLeader, None);
    world.sim.run_until(SimTime::from_secs(7));
    let installed = |world: &World| world.sim.metrics_ref().counter("acceptor.installed");
    let spawn = |world: &mut World| {
        let sink: lc_core::SpawnSink = Rc::default();
        let cmd = NodeCmd::SpawnLocal {
            component: "Counter".into(),
            min_version: Version::new(1, 0),
            instance_name: None,
            sink: sink.clone(),
        };
        world.cmd(HOLDER, cmd);
        step_until_counting(world, |_| sink.borrow().as_ref().is_some_and(Result::is_ok))
    };
    let reinstall = |world: &mut World| {
        let before = installed(world);
        world.cmd(HOLDER, NodeCmd::Install(demo::counter_package()));
        step_until_counting(world, |w| installed(w) > before)
    };
    // The first of each grows the tables the second reuses.
    reinstall(&mut world);
    spawn(&mut world);
    let (reinstall, spawn) = (reinstall(&mut world), spawn(&mut world));
    println!("re-install of held bytes: {reinstall} allocations; local spawn: {spawn}");
    assert_eq!(world.node(HOLDER).expect("up").repository.len(), 1, "still one Counter");
    assert_eq!(reinstall, REINSTALL_ALLOCS, "allocations of a re-install of held bytes");
    assert!(spawn <= SPAWN_ALLOCS, "{spawn} > {SPAWN_ALLOCS} for a local spawn");
}

/// A spawn changes only its host's load. The summaries that carry the
/// change up the tree — the holder's leaf seat's, then that seat's
/// parent's, both rebuilt by one sweep of host 0, which holds both —
/// allocate one `Rc<GroupSummary>` per seat that was made dirty and no
/// `BTreeSet` node: each shares the name set its seat built last, so the
/// root's records still hold the sets they held before the spawn. On the
/// campus with fanout 4, whose 64 hosts make a tree of three levels.
/// (Each rebuilt summary rebuilt its name set too before: its one tree
/// node for `Counter`, 4 allocations in all.)
#[test]
fn a_load_change_rebuilds_no_name_set() {
    const HOLDER: HostId = HostId(0);
    const ROOT_LEVEL: usize = 2;
    let (fanout, replicas, report_period) = (4, 2, REPORT_PERIOD);
    let cohesion = CohesionConfig { fanout, replicas, report_period, timeout_intervals: 3 };
    let registry = RegistryConfig::SingleLeader;
    let config = NodeConfig { cohesion, registry, ..Default::default() };
    let holds = |HostId(h)| if h % 8 == 0 { vec![demo::counter_package()] } else { Vec::new() };
    let mut world = World::on(Topology::campus(8, 8), 7, config, demo::catalog(), holds);
    world.sim.run_until(SimTime::from_secs(7));
    // What the root's records hold: each child summary and its name set.
    let root_records = |world: &World| -> Vec<(*const GroupSummary, *const BTreeSet<Name>)> {
        let seats = (0..NODES as u32).filter_map(|h| world.node(HostId(h))?.seat(ROOT_LEVEL));
        let records = seats.flat_map(|seat| seat.records().values());
        let ptrs = |rec: &MemberRecord| match rec {
            MemberRecord::Subtree { summary, .. } => {
                Some((Rc::as_ptr(summary), Rc::as_ptr(&summary.components)))
            }
            MemberRecord::Node { .. } => None,
        };
        records.filter_map(ptrs).collect()
    };
    let before = root_records(&world);
    assert!(!before.is_empty(), "the root holds its children's summaries");

    let sink: lc_core::SpawnSink = Rc::default();
    let cmd = NodeCmd::SpawnLocal {
        component: "Counter".into(),
        min_version: Version::new(1, 0),
        instance_name: None,
        sink: sink.clone(),
    };
    world.cmd(HOLDER, cmd);
    step_until_counting(&mut world, |_| sink.borrow().as_ref().is_some_and(Result::is_ok));

    // The holder's next report, its leaf seat's sweep, that seat's
    // parent's sweep: three report periods carry the change to the root.
    let end = world.sim.now() + REPORT_PERIOD * 3;
    let mut allocated = Vec::new();
    while world.sim.now() < end {
        let allocs = step_counting(&mut world);
        if allocs > 0 {
            allocated.push((world.sim.now(), allocs));
        }
    }
    let after = root_records(&world);
    println!("a load change climbing the tree: events that allocated {allocated:?}");
    let mut rebuilt: Vec<_> = before.iter().zip(&after).filter(|(b, a)| b.0 != a.0).collect();
    rebuilt.dedup_by_key(|(_, a)| a.0);
    assert_eq!(rebuilt.len(), 1, "the root's replicas took one rebuilt child summary");
    let same_sets = before.iter().map(|r| r.1).eq(after.iter().map(|r| r.1));
    assert!(same_sets, "the root's records hold the name sets they held: {before:?} → {after:?}");
    let total: u64 = allocated.iter().map(|&(_, n)| n).sum();
    assert_eq!(total, 2, "one `Rc<GroupSummary>` for each of the two dirty seats: {allocated:?}");
}

/// Allocations per completed remote invoke, end to end — driver, front
/// node, fabric, worker's container and adapter, reply — on the
/// benchmark's `invoke_open` world: E16's 2 × 4 campus, four
/// `LoadDriver` fronts at 4 000 invokes/s, admission on, 250 ms deadline.
/// The measured 2 364 / 2 000 (the campus's own reports and the
/// drivers' discovery queries included; the same in debug and release
/// builds), rounded up. 2 428 while each discovery query copied the
/// driver's component name and boxed itself to share it with its hops.
/// While each front's call table was a tree, 2 739:
/// request ids only grow, so the tree allocated a leaf on its right and
/// freed an emptied one on its left every few calls, 0.14 leaves per
/// invoke. While each invoke made its sink and reply slot
/// and copied its operation name and string argument, 10 735; while a
/// reference owned its repository id it was 13 338; with the command and both frames boxed, 19 696; before a
/// search shared one copy of its query and a seat routed from its index,
/// 19 856; with sizes marshalled to be measured, the operation resolved
/// twice by name and every request copied for a re-send that could not
/// happen, 39 856 / 2 000 = 19.93 (EXPERIMENTS.md, "An invoke pays for
/// what it carries"). What is left is the argument vector the driver
/// hands the node and the campus's own traffic: the driver reuses the
/// sinks of counted calls, the operation name and the string argument
/// are shared `Name`s, the target reference is copied by count, the
/// command and the two frames wait by value in their mail lanes, and a
/// call waits in its front's ring, whose slots outlive it.
const REMOTE_INVOKE_BUDGET: f64 = 1.19;
/// The same under [`InvokePolicy::standard`] (4 366 / 2 000; 4 367 while
/// the worker kept its replies in a cache beside a FIFO of their
/// deadlines; 4 431 while
/// each discovery query copied its name and boxed itself, 4 760 while
/// the worker's reply cache was a tree, 5 071 while the call table was
/// one too, 17 066 while
/// each invoke made its sink and copied its text, 19 669 while a
/// reference owned its repository id, 26 027 with the command and frames
/// boxed, 26 187 before the shared query): three retries make every call
/// keep a copy of its argument vector (the operation name and the string
/// in it are shared), and a 5 s dedup window makes the worker keep every
/// reply in its record's ring, which doubles as the window fills.
/// (Before, 20.09: a call without a retry budget paid for the copy too.)
const REMOTE_INVOKE_RECOVERABLE_BUDGET: f64 = 2.19;

const INVOKES: u64 = 2_000;

/// Heap bytes one segment of [`INVOKES`] remote invokes holds at its
/// height, above what the converged, warmed-up `invoke_open` world holds
/// before it (the segment's arrivals already scheduled): the calls in
/// flight — commands, call-table entries, frames, admission queue and
/// dedup state — at 4 000 invokes/s, in release and debug builds alike.
/// The measured 22 784; 22 856 while each driver's discovery query kept a
/// copy of its offers with room to merge more and the offers themselves
/// were 88 bytes; 57 920 while each front's call table was a tree
/// of 1 512-byte leaves, one made on the right for every few calls while
/// emptied ones were freed on the left. VmHWM (`invoke_open`'s
/// `peak_rss_mb`) follows where the allocator places the heap; this is
/// the figure a memory claim on the invoke path cites.
const PEAK_INVOKE_SEGMENT_BYTES: i64 = 22_784;

/// One measured segment of the `invoke_open` world: allocator calls per
/// invoke, and the peak heap bytes the segment held above its start.
struct InvokeSegment {
    allocs_per_invoke: f64,
    peak_bytes: i64,
}

fn remote_invoke_segment(invoke: InvokePolicy) -> InvokeSegment {
    let config = NodeConfig {
        cohesion: fast_cohesion(),
        invoke,
        admission: Some(AdmissionConfig::default()),
        ..Default::default()
    };
    let (mut world, target) = display_campus(7, config);
    let start = world.sim.now();
    let drivers: Vec<_> = FRONTS
        .iter()
        .enumerate()
        .map(|(i, front)| {
            let driver = world.sim.spawn(LoadDriver::new(DriverConfig {
                node: world.net.actor_of(*front),
                component: "Display".into(),
                op: "draw".into(),
                args: vec![Value::string("frame")],
                initial_target: target.clone(),
                requery: Some(SimTime::from_millis(100)),
            }));
            world.sim.send_in(SimTime::from_millis(13 + 7 * i as u64), driver, QueryTick);
            driver
        })
        .collect();
    let mut arrivals = ArrivalStream::new(StreamConfig {
        shape: ArrivalShape::Steady,
        rate_per_sec: 4000.0,
        seed: 7 ^ 0xE16,
        horizon: SimTime::MAX,
        users: 1_000_000,
        keys: ZipfKeys::new(1, 1.0),
    });
    // A warm-up batch grows every table the steady state needs; the
    // measured batch is scheduled before the count starts, so the
    // harness's own arrival boxes stay out of it.
    let drain = SimTime::from_millis(300);
    let mut end = start;
    let (mut before, mut live_before) = (0, 0);
    for (batch, measured) in [(0, false), (1, true)] {
        for a in arrivals.by_ref().take(INVOKES as usize) {
            let driver = drivers[(a.index % FRONTS.len() as u64) as usize];
            end = start + a.at + drain * batch;
            world.sim.send_in(end.saturating_sub(world.sim.now()), driver, DriverArrival(a));
        }
        if measured {
            (before, live_before) = (allocs(), live_bytes());
            reset_peak_live_bytes();
        }
        // Past the deadline, so every call of the batch has resolved.
        world.sim.run_until(end + drain);
    }
    let total = allocs() - before;
    let peak_bytes = peak_live_bytes() - live_before;
    let ok: u64 = drivers
        .iter()
        .map(|&d| world.sim.actor_as_mut::<LoadDriver>(d).expect("driver").stats().ok)
        .sum();
    assert_eq!(ok, 2 * INVOKES, "at 0.8 × the knee every call is answered");
    println!("{total} allocations and a peak of {peak_bytes} bytes for {INVOKES} remote invokes");
    InvokeSegment { allocs_per_invoke: total as f64 / INVOKES as f64, peak_bytes }
}

/// The `invoke_open` policy: a 250 ms deadline, no retries.
fn plain_invoke() -> InvokePolicy {
    InvokePolicy { deadline: Some(SimTime::from_millis(250)), retries: 0, ..InvokePolicy::default() }
}

#[test]
fn remote_invoke_allocations_are_pinned() {
    let measured = remote_invoke_segment(plain_invoke()).allocs_per_invoke;
    assert!(
        measured <= REMOTE_INVOKE_BUDGET,
        "{measured:.3} allocations per remote invoke exceed the budget of {REMOTE_INVOKE_BUDGET}"
    );
}

#[test]
fn recoverable_remote_invoke_allocations_are_pinned() {
    let measured = remote_invoke_segment(InvokePolicy::standard()).allocs_per_invoke;
    assert!(
        measured <= REMOTE_INVOKE_RECOVERABLE_BUDGET,
        "{measured:.3} allocations per recoverable remote invoke exceed the budget of \
         {REMOTE_INVOKE_RECOVERABLE_BUDGET}"
    );
}

#[test]
fn in_flight_invoke_bytes_are_pinned() {
    let peak = remote_invoke_segment(plain_invoke()).peak_bytes;
    assert_eq!(peak, PEAK_INVOKE_SEGMENT_BYTES, "peak bytes of an invoke segment moved");
}

/// A front's call table in steady state: 10 000 calls under growing
/// request ids, each with a deadline, at most 32 pending, answered
/// oldest first, and a deadline sweep after every call that finds
/// nothing due. Once the first 32 have grown the table, no call
/// allocates. (A tree keyed by the same ids allocated a leaf on its
/// right and freed an emptied one on its left every few calls.)
#[test]
fn a_call_table_in_steady_state_allocates_nothing() {
    const CALLS: u64 = 10_000;
    const PENDING: usize = 32;
    let mut table: Continuations<RequestId, u64> = Continuations::default();
    let mut before = 0;
    for id in 0..CALLS {
        if id == PENDING as u64 {
            before = allocs();
        }
        if table.len() == PENDING {
            let oldest = *table.oldest_key().expect("a full table has an oldest call");
            assert_eq!(table.remove(&oldest), Some(oldest.0));
        }
        table.insert(RequestId(id), id, SimTime::from_millis(id + 250));
        assert!(table.take_expired(SimTime::from_millis(id)).is_empty());
    }
    let total = allocs() - before;
    println!("{total} allocations for {} calls through a warm call table", CALLS - PENDING as u64);
    assert_eq!(total, 0, "a call through a warm call table allocated");
    assert_eq!(table.high_water(), PENDING);
}

/// What one 10⁵-node hierarchical `run_scale` asks the allocator for, in
/// calls: the seat masks, the query table, the report's copies and the
/// calendar arena's doublings, up to the summaries and a window of
/// reports — nothing per node, nothing per event. The same in debug and
/// release builds.
const SCALE_RUN_ALLOCS: u64 = 25;
/// The most heap bytes that run holds at once above what was live
/// before it: 624 856, 6.25 per node, in debug and release builds alike
/// (the allocator is asked for the same sizes in both). A memory claim
/// on `scale_hier` cites this figure, not VmHWM, which follows where the
/// allocator places the blocks.
const SCALE_RUN_PEAK_BYTES: i64 = 624_856;

#[test]
fn scale_run_allocations_are_pinned() {
    const NODES: u32 = 100_000;
    let (before, live_before) = (allocs(), live_bytes());
    reset_peak_live_bytes();
    let report = run_scale(ScaleConfig::new(NODES, Variant::Hier), 5);
    let total = allocs() - before;
    let peak = peak_live_bytes() - live_before;
    assert_eq!(report.queries_completed, u64::from(report.queries));
    println!("{total} allocations for one 10^5-node scale run ({} events)", report.events);
    println!("a peak of {peak} heap bytes, {} per node", peak as f64 / f64::from(NODES));
    assert_eq!(peak, SCALE_RUN_PEAK_BYTES, "peak heap bytes of a 10^5-node scale run moved");
    assert!(
        total <= SCALE_RUN_ALLOCS,
        "{total} allocations in a 10^5-node scale run exceed the pinned {SCALE_RUN_ALLOCS}: \
         per-node book-keeping has crept back"
    );
}

/// What one cached name query asks the allocator for across its whole
/// life in the [`Registry`] front — miss, `complete` with an offer set of
/// one offer, then a hit: a tree node in the cache, which keys by a clone
/// of the search's query (sharing its name); the cache and the hit share
/// the offer set the search made. Nothing is formatted, parsed or copied
/// on the way (3 while the cache stored a copy of the set and the hit
/// handed out another, a vector each; 4 while a singleflight table beside
/// the cache also keyed a tree node by the query, 8 while both tables
/// kept a copy of the query and every offer a copy of its name; a
/// formatted string key made this 16).
const REGISTRY_CYCLE_ALLOCS: u64 = 1;

#[test]
fn registry_front_cycle_allocations_are_pinned() {
    let offer = Offer {
        node: HostId(2),
        component: "Counter".into(),
        version: Version::new(1, 0),
        mobility: lc_pkg::Mobility::Mobile,
        cost_per_hour: 0,
        package_size: 1000,
        load: 0.0,
        running: None,
    };
    let offers = OfferSet::from([offer]);
    let query = ComponentQuery::by_name("Counter", Version::new(1, 0));
    let mut front = Registry::new(Some(&CacheConfig::default()), None);
    let before = allocs();
    assert!(matches!(front.resolve(&query, SimTime::ZERO), ResolveStep::Miss { .. }));
    front.complete(&query, &offers, SimTime::from_millis(1));
    let hit = front.resolve(&query, SimTime::from_millis(2));
    let total = allocs() - before;
    assert!(matches!(hit, ResolveStep::Hit { offers: hit, .. } if hit.as_ptr() == offers.as_ptr()));
    println!("{total} allocations for one registry miss/complete/hit cycle");
    assert!(
        total <= REGISTRY_CYCLE_ALLOCS,
        "{total} allocations in a registry front cycle exceed the pinned {REGISTRY_CYCLE_ALLOCS}"
    );
}

/// Heap bytes one booted node of the benchmark's `query_hier` campus
/// retains: 1 024 hosts on 128 sites of 8, default cohesion, one leader,
/// no cache, `Counter` on the first host of every site, converged for
/// three report periods — everything the world holds (fabric, kernel,
/// every node's stores and soft state) per host. The measured 1 878, in
/// release and debug builds alike: no node of this world caches, and
/// its registry front holds no room for a cache. 1 886 while every
/// eighth node's container queued its CPU-parked replies apart from
/// its reply cache, which kept a FIFO of its deadlines beside their
/// sweep timers (64 B: two `VecDeque` headers); 1 894 while every
/// node's registry numbered its instances with a counter of its own
/// (8 B) beside the adapter's object ids; 1 891 before every
/// eighth node's container kept the requests its instances answer, so
/// that a duplicated request makes one instance (24 B: an empty tree's
/// root); 1 897 while every
/// eighth node's container kept its migrations in a table of their own
/// beside its spawns (48 B: one more ring). 1 885 while a subtree
/// summary held its name set inline, not as the `Rc` its seat shares
/// with the next summary after a load-only change (24 B more per
/// summary alive: the `Rc`'s counts and the set's header, less the set
/// held inline) and the 294 seat tables held no handle to it (8 B each);
/// 1 925 while every
/// front held that room inline (a tree and the key a lookup found
/// stale); before that, a ring's header is 8 bytes wider than a tree's
/// root in every node's query table, 8 in each of the four
/// pending-work tables of every eighth node's container and 16 in its
/// reply cache ([`DRAINED_BYTES_PER_NODE`] is what the rings win back
/// once queries have run), so 1 910 while those tables were trees, 1 942
/// while every node's registry front had room for a singleflight
/// table; 2 032 while every node held
/// its own tracer handle, its shard store a copy of the shard config and its
/// registry front a flag beside its singleflight table, and every
/// container runtime's adapter held the repository, clock and tracer
/// beside two instance tables the registry and repository already
/// answer; 2 113 while the repository kept every
/// installed package's IDL sources, 2 588 while every install of
/// `Counter` copied the node's interface repository although its IDL
/// added nothing, 3 140 while every node, holding a component or not,
/// held its container runtime's state (adapter, instance tables,
/// call/spawn/fetch/migration tables) and room for an SLO monitor
/// inline, 4 887 while every host held its
/// own seed, config and trust store, 4 919 while a calendar slot was 32
/// bytes, 4 983 while it was 48, 5 038 while every node copied its seats'
/// member, replica and parent lists and its report targets out of the
/// tree.
const RETAINED_BYTES_PER_NODE: i64 = 1_878;

#[test]
fn retained_bytes_per_node_are_pinned() {
    const HOSTS: i64 = 1_024;
    let (catalog, counter) = (demo::catalog(), demo::counter_package());
    let before = live_bytes();
    let mut world = World::on(
        Topology::campus(128, 8),
        7,
        NodeConfig::default(),
        catalog,
        |HostId(h)| if h % 8 == 0 { vec![Rc::clone(&counter)] } else { Vec::new() },
    );
    world.sim.run_until(SimTime::from_secs(1) + REPORT_PERIOD * 3);
    let per_node = (live_bytes() - before) / HOSTS;
    println!("{per_node} bytes retained per booted node");
    assert_eq!(per_node, RETAINED_BYTES_PER_NODE, "bytes retained per booted node moved");
}

/// Heap bytes one query in flight holds at the height of a segment of the
/// benchmark's `query_hier` load: the same campus (1 024 hosts, 128 sites
/// of 8, a 2 s report period, an 800 ms query timeout with one retry),
/// 32 components on seat 5 of scattered sites, and one segment of 4 000
/// name queries from 384 origins, due on a 100 op/s Poisson schedule and
/// handed to the kernel before the first is due, as the harness hands
/// them. What a query holds until harvest is its command waiting in the
/// kernel's mail lane, its sink and the offer set the sink ends with;
/// the pending query and its frames come and go. The measured 383; 399
/// while a sink kept a partial result's staleness (16 B per sink); 411
/// while a sink's and a pending query's offer set was a vector (8 B
/// wider than the shared set, in every sink and pending-query slot); 414
/// while a pending entry's deadline was an `Option` (8 B more per slot
/// of a pending-query ring); 550
/// while every origin's pending-query table was a tree, whose first
/// entry made a leaf of eleven pending queries; 863 while the owner's
/// answer reserved four offers for its one and a `Resolve` command made
/// every command 136 bytes.
const PEAK_BYTES_PER_QUERY: i64 = 383;

/// Heap bytes per host that the same segment leaves behind once every
/// query has been answered and its sink dropped: mostly what the 384
/// origins' emptied pending-query tables keep (a ring its few slots, a
/// tree its root leaf of eleven), beside the run's own samples. The
/// measured 781, in release and debug builds alike; 793 while a pending
/// query's offer set was a vector (8 B more per ring slot), 805 while a
/// ring slot's deadline was an `Option`, 1 336 while the tables were
/// trees.
const DRAINED_BYTES_PER_NODE: i64 = 781;

/// Allocations the same segment's run makes, from the first query's
/// arrival until every query has been answered: one answer per query
/// (4 000, an offer set of its owner's one offer), beside the soft-state
/// plane's rounds over the run and what the origins' pending-query rings
/// grow to. Each hop and retry
/// holds a clone of its query, which shares its name. The measured
/// 4 761, in release and debug builds alike (5 949 in debug builds while
/// their check of every re-sent subtree summary built its name set
/// afresh); 8 761 (9 949) while every search boxed its query to share it.
const QUERY_SEGMENT_ALLOCS: u64 = 4_761;

/// One segment of `query_hier` load, with what it holds at its height,
/// what its run allocates and what it leaves behind.
struct QuerySegment {
    peak_bytes_per_query: i64,
    allocs: u64,
    drained_bytes_per_node: i64,
}

fn query_segment() -> QuerySegment {
    const SITES: u32 = 128;
    const COMPONENTS: u32 = 32;
    const ORIGINS: u32 = 384;
    const QUERIES: usize = 4_000;
    let package = |i: u32| {
        let name = format!("Svc{i:03}");
        let mut desc = lc_pkg::ComponentDescriptor::new(&name, Version::new(1, 0), "demo-vendor")
            .provides("counter", "IDL:demo/Counter:1.0");
        desc.qos.cpu_min = 1e-7;
        let mut pkg = lc_pkg::Package::new(desc).with_binary(
            lc_pkg::Platform::reference(),
            "demo_counter",
            &[0xE1; 4 * 1024],
        );
        pkg.seal(&demo::demo_key());
        Rc::new(pkg.to_bytes())
    };
    let owner = |i: u32| HostId((i * 37) % SITES * 8 + 5);
    let origin = |k: u32| HostId(k % SITES * 8 + 2 + k / SITES);
    let config = NodeConfig {
        cohesion: CohesionConfig {
            fanout: 8,
            replicas: 2,
            report_period: REPORT_PERIOD,
            timeout_intervals: 3,
        },
        query_timeout: SimTime::from_millis(800),
        query_retries: 1,
        ..Default::default()
    };
    let mut world = World::on(
        Topology::campus(SITES as usize, 8),
        42,
        config,
        demo::catalog(),
        |h| (0..COMPONENTS).filter(|&i| owner(i) == h).map(package).collect(),
    );
    let converged = SimTime::from_secs(7);
    world.sim.run_until(converged);
    let arrivals = ArrivalStream::new(StreamConfig {
        shape: ArrivalShape::Steady,
        rate_per_sec: 100.0,
        seed: 42 ^ 0x0C0F_FEE0,
        horizon: SimTime::MAX,
        users: u64::from(ORIGINS),
        keys: ZipfKeys::new(COMPONENTS as usize, 0.0),
    });

    let before = live_bytes();
    reset_peak_live_bytes();
    let mut sinks = Vec::with_capacity(QUERIES);
    let mut last = converged;
    for a in arrivals.take(QUERIES) {
        let sink = QuerySink::default();
        let query = ComponentQuery::by_name(&format!("Svc{:03}", a.key), Version::new(1, 0));
        let cmd = NodeCmd::Query { query, sink: Rc::clone(&sink), first_wins: true };
        let actor = world.net.actor_of(origin(a.user as u32));
        world.sim.send_in(a.at, actor, cmd);
        sinks.push(sink);
        last = converged + a.at;
    }
    // Past the timeout and its retry: every query has been answered.
    let allocs_before = allocs();
    world.sim.run_until(last + SimTime::from_secs(2));
    let allocs = allocs() - allocs_before;
    let peak_bytes_per_query = (peak_live_bytes() - before) / QUERIES as i64;

    for sink in &sinks {
        let answer = {
            let mut r = sink.borrow_mut();
            assert!(r.done && r.offers.len() == 1, "every query finds its one owner");
            std::mem::take(&mut r.offers)
        };
        // The sink held the answer alone: dropping it frees one
        // allocation of exactly its offer, behind the shared set's counts.
        let held = live_bytes();
        drop(answer);
        let one_offer = (2 * std::mem::size_of::<usize>() + std::mem::size_of::<Offer>()) as i64;
        assert_eq!(held - live_bytes(), one_offer, "an answer is one allocation, sized exactly");
    }
    drop(sinks);
    let drained_bytes_per_node = (live_bytes() - before) / i64::from(SITES * 8);
    QuerySegment { peak_bytes_per_query, allocs, drained_bytes_per_node }
}

#[test]
fn in_flight_query_bytes_are_pinned() {
    let per_query = query_segment().peak_bytes_per_query;
    println!("{per_query} bytes held per query in flight at the segment's height");
    assert_eq!(per_query, PEAK_BYTES_PER_QUERY, "bytes per query in flight moved");
}

#[test]
fn a_query_segment_allocates_its_answers() {
    let allocs = query_segment().allocs;
    println!("{allocs} allocations over a segment of 4000 queries");
    assert_eq!(allocs, QUERY_SEGMENT_ALLOCS, "allocations of a query segment moved");
}

#[test]
fn drained_query_bytes_are_pinned() {
    let per_node = query_segment().drained_bytes_per_node;
    println!("{per_node} bytes per host left behind once the segment's queries have drained");
    assert_eq!(per_node, DRAINED_BYTES_PER_NODE, "bytes a drained segment leaves moved");
}

/// A name query for a component with one holder, over its whole life on
/// the sharded registry with a result cache: the origin's start, the
/// replica's lookup, the reply, the origin's cache fill and its caller's
/// sink, then a second query the cache serves. The measured 0 and 0:
/// the lookup answers with the holder's published offer set, and the
/// reply, the pending query, the cache and both callers share it. (2 and
/// 1 while the lookup copied the set into an answer vector, the cache
/// kept a copy of that and every hit handed out one more.)
#[test]
fn a_single_holder_query_allocates_nothing() {
    const HOLDER: HostId = HostId(0);
    let registry = RegistryConfig::Sharded(ShardConfig::default());
    let cache = CacheConfig::default();
    let mut world = campus_with_counter_on(registry, Some(cache.clone()), |h| h == HOLDER.0);
    world.sim.run_until(SimTime::from_secs(7));
    let ring = world.record.ring.clone().expect("a sharded world carries its ring");
    let shard = ring.shard_of_component("Counter");
    let origin = (1..NODES as u32)
        .map(HostId)
        .find(|&h| !ring.is_replica(shard, h))
        .expect("some host is neither the holder nor a replica");
    let query = || ComponentQuery::by_name("Counter", Version::new(1, 0));
    let life = |world: &mut World| {
        let sink = world.query(origin, query(), true);
        let mut allocs = 0;
        while !sink.borrow().done {
            allocs += step_counting(world);
        }
        assert_eq!(sink.borrow().offers.len(), 1, "the one holder's offer");
        allocs
    };
    // The first query grows the tables the others reuse; its cache entry
    // goes stale, so the next one searches again.
    life(&mut world);
    world.run_for(cache.ttl);
    let hits = |world: &World| world.sim.metrics_ref().counter("cache.hits");
    let hits_before = hits(&world);
    let search = life(&mut world);
    assert_eq!(hits(&world), hits_before, "the second query searched");
    let hit = life(&mut world);
    assert_eq!(hits(&world), hits_before + 1, "the third query was a cache hit");
    println!("a single-holder query: search {search}, cache hit {hit} allocation(s)");
    assert_eq!((search, hit), (0, 0));
}
