//! Allocation budget of the background soft-state plane (ROADMAP item 1:
//! "the allocation columns are deterministic, so gate them exactly").
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
use lc_core::node::{AdmissionConfig, InvokePolicy, RegistryConfig};
use lc_core::scale::{run_scale, ScaleConfig, Variant};
use lc_core::testkit::{display_campus, fast_cohesion, DISPLAY_FRONTS as FRONTS, World};
use lc_core::{
    CacheConfig, CohesionConfig, ComponentQuery, NodeConfig, Offer, QuerySink, Registry,
    ResolveStep, ServiceKind, ShardConfig, ShardStore,
};
use lc_des::{Lane, ProfilerConfig, SimTime};
use lc_load::{
    ArrivalShape, ArrivalStream, DriverArrival, DriverConfig, LoadDriver, QueryTick, StreamConfig,
    ZipfKeys,
};
use lc_net::{HostId, Topology};
use lc_orb::Value;
use lc_pkg::Version;
use lc_prop::alloc::{allocs, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per node per report period: the measured 0 / 640 and
/// 1 320 / 640, rounded up to two decimals. A frame waits by value in its
/// mail lane, so the single-leader plane allocates nothing; what is left on
/// the sharded one is each replica's gossip round — the digest list and,
/// per replicated shard, its generation vector shared as an `Rc` slice.
/// Debug builds add the exactness assertions' recomputations: of every
/// re-sent publication, 320 × [`RESEND_CHECK_ALLOCS`] on the sharded
/// campus, and of every re-sent summary, 80 × [`SUMMARY_CHECK_ALLOCS`] on
/// both (80 / 640 and 2 360 / 640). With every frame boxed once the two
/// measured 1 260 / 640 and 3 820 / 640; before an unchanged duty re-sent
/// its last summary, 1 500 / 640 and 4 060 / 640; before a refresh re-sent
/// its last publication the sharded plane measured 6 460 / 640; with
/// every frame boxed twice and every timer boxed once the same runs
/// measured 6.32 and 20.44; before soft state was shared, 25.50 and 47.25
/// (EXPERIMENTS.md, "Background soft state").
const SINGLE_LEADER_BUDGET: f64 = if cfg!(debug_assertions) { 0.13 } else { 0.0 };
const SHARDED_BUDGET: f64 = if cfg!(debug_assertions) { 3.69 } else { 2.07 };

/// What the exactness assertion of debug builds adds to re-sending the
/// campus's one publication: recomputing it (the query's name, the offer
/// vector, the offer's component name) to compare with what is re-sent.
const RESEND_CHECK_ALLOCS: u64 = if cfg!(debug_assertions) { 3 } else { 0 };

/// What the exactness assertion of debug builds adds to re-sending a
/// subtree summary on this campus: recomputing it (the tree node of its
/// one-name component set) to compare with what is re-sent.
const SUMMARY_CHECK_ALLOCS: u64 = if cfg!(debug_assertions) { 1 } else { 0 };

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

/// A sharded refresh re-sends, tick by tick on the idle campus: the
/// `ShardMaintain` tick of a `Counter` owner that replicates no shard (so
/// it builds no digest), whose publisher inputs did not change, allocates
/// nothing — no frame for the `ShardPublish`es it sends, nothing to
/// rebuild the publication — except, in debug builds,
/// [`RESEND_CHECK_ALLOCS`].
#[test]
fn an_unchanged_refresh_allocates_nothing_per_message() {
    let mut world = campus(
        RegistryConfig::Sharded(ShardConfig::default()),
        Some(CacheConfig::default()),
    );
    world.sim.run_until(SimTime::from_secs(7));
    let ring = world.seeds[0].ring.clone().expect("a sharded world carries its ring");
    let owners = (0..NODES as u32).step_by(8).map(HostId);
    let publishers: Vec<HostId> = owners.filter(|&h| ring.shards_of(h).is_empty()).collect();
    assert!(!publishers.is_empty(), "some owner replicates no shard");
    let rounds = |world: &World| -> Vec<u64> {
        let node = |h| world.node(h).expect("no crashes");
        let rounds = |h| node(h).backend().shard().map_or(0, ShardStore::gossip_rounds);
        publishers.iter().map(|&h| rounds(h)).collect()
    };
    let sent = |world: &World| world.sim.metrics_ref().counter("net.msgs");

    let end = SimTime::from_secs(7) + REPORT_PERIOD * PERIODS;
    let mut refreshes = 0;
    while world.sim.now() < end {
        let (rounds_before, sent_before) = (rounds(&world), sent(&world));
        let before = allocs();
        assert!(world.sim.step(), "the idle plane never drains");
        let allocs = allocs() - before;
        if rounds(&world) != rounds_before {
            let sent = sent(&world) - sent_before;
            assert!(sent > 0, "a refresh publishes");
            assert_eq!(
                allocs,
                RESEND_CHECK_ALLOCS,
                "a refresh that sent {sent} message(s) allocated {allocs} times at {}",
                world.sim.now()
            );
            refreshes += 1;
        }
    }
    println!("{refreshes} unchanged refreshes, none allocating per message");
    assert!(refreshes > 0, "the window must contain publishers' maintenance ticks");
}


/// The message path itself, event by event on the idle single-leader
/// campus: no event allocates — not a timer tick, not a delivery, not a
/// send, since every frame waits by value in its mail lane, and not a
/// sweep that re-sends its duty's unchanged summary (except, in debug
/// builds, [`SUMMARY_CHECK_ALLOCS`] per re-sent summary).
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
    let (mut msgs, mut silent_ticks) = (0, 0);
    while world.sim.now() < end {
        let sent_before = counter(&world, "net.msgs");
        let built_before = counter(&world, "cohesion.summaries");
        let ticks_before = ticks(&world);
        let before = allocs();
        assert!(world.sim.step(), "the idle plane never drains");
        let allocs = allocs() - before;
        let sent = counter(&world, "net.msgs") - sent_before;
        let resent = counter(&world, "cohesion.summaries") > built_before;
        assert_eq!(
            allocs,
            if resent { SUMMARY_CHECK_ALLOCS } else { 0 },
            "an event that sent {sent} message(s) allocated {allocs} times at {}",
            world.sim.now()
        );
        msgs += sent;
        if sent == 0 && ticks(&world) > ticks_before {
            silent_ticks += 1;
        }
    }
    println!("no allocation for {msgs} messages and {silent_ticks} silent ticks");
    assert!(msgs > 0, "the window must contain messages");
    assert!(silent_ticks > 0, "the window must contain timer ticks that send nothing");
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

/// Allocations per completed remote invoke, end to end — driver, front
/// node, fabric, worker's container and adapter, reply — on the
/// benchmark's `invoke_open` world: E16's 2 × 4 campus, four
/// `LoadDriver` fronts at 4 000 invokes/s, admission on, 250 ms deadline.
/// The measured 13 338 / 2 000 (the campus's own reports and the
/// drivers' discovery queries included; the same in debug and release
/// builds), rounded up. With the command and both frames boxed it was
/// 19 696; before a search shared one copy of its query and a seat routed
/// from its index, 19 856; with sizes marshalled to be measured, the
/// operation resolved twice by name and every request copied for a
/// re-send that could not happen, 39 856 / 2 000 = 19.93 (EXPERIMENTS.md,
/// "An invoke pays for what it carries"). What is left is the driver's
/// `ObjectRef`/`op`/`args` and the sink with its one reply slot; the
/// command and the two frames wait by value in their mail lanes.
const REMOTE_INVOKE_BUDGET: f64 = 6.67;
/// The same under [`InvokePolicy::standard`] (19 669 / 2 000; 26 027 with
/// the command and frames boxed, 26 187 before the shared query): three
/// retries make every call keep a copy of its request — operation name,
/// argument vector, the string in it — and a 5 s dedup window makes the
/// worker keep every reply under a map node. (Before, 20.09: a call
/// without a retry budget paid for the copy too.)
const REMOTE_INVOKE_RECOVERABLE_BUDGET: f64 = 9.84;

const INVOKES: u64 = 2_000;

fn remote_invoke_allocs(invoke: InvokePolicy) -> f64 {
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
    let mut before = 0;
    for (batch, measured) in [(0, false), (1, true)] {
        for a in arrivals.by_ref().take(INVOKES as usize) {
            let driver = drivers[(a.index % FRONTS.len() as u64) as usize];
            end = start + a.at + drain * batch;
            world.sim.send_in(end.saturating_sub(world.sim.now()), driver, DriverArrival(a));
        }
        if measured {
            before = allocs();
        }
        // Past the deadline, so every call of the batch has resolved.
        world.sim.run_until(end + drain);
    }
    let total = allocs() - before;
    let ok: u64 = drivers
        .iter()
        .map(|&d| world.sim.actor_as_mut::<LoadDriver>(d).expect("driver").stats().ok)
        .sum();
    assert_eq!(ok, 2 * INVOKES, "at 0.8 × the knee every call is answered");
    println!("{total} allocations for {INVOKES} remote invokes");
    total as f64 / INVOKES as f64
}

#[test]
fn remote_invoke_allocations_are_pinned() {
    let plain = InvokePolicy {
        deadline: Some(SimTime::from_millis(250)),
        retries: 0,
        ..InvokePolicy::default()
    };
    let measured = remote_invoke_allocs(plain);
    assert!(
        measured <= REMOTE_INVOKE_BUDGET,
        "{measured:.3} allocations per remote invoke exceed the budget of {REMOTE_INVOKE_BUDGET}"
    );
    let measured = remote_invoke_allocs(InvokePolicy::standard());
    assert!(
        measured <= REMOTE_INVOKE_RECOVERABLE_BUDGET,
        "{measured:.3} allocations per recoverable remote invoke exceed the budget of \
         {REMOTE_INVOKE_RECOVERABLE_BUDGET}"
    );
}

/// What one 10⁵-node hierarchical `run_scale` asks the allocator for, in
/// calls: the seat masks, the two owner lists, the query table, the
/// report's copies and the calendar arena's doublings — nothing per
/// node, nothing per event. The same in debug and release builds.
const SCALE_RUN_ALLOCS: u64 = 44;

#[test]
fn scale_run_allocations_are_pinned() {
    let before = allocs();
    let report = run_scale(ScaleConfig::new(100_000, Variant::Hier), 5);
    let total = allocs() - before;
    assert_eq!(report.queries_completed, u64::from(report.queries));
    println!("{total} allocations for one 10^5-node scale run ({} events)", report.events);
    assert!(
        total <= SCALE_RUN_ALLOCS,
        "{total} allocations in a 10^5-node scale run exceed the pinned {SCALE_RUN_ALLOCS}: \
         per-node book-keeping has crept back"
    );
}

/// What one cached name query asks the allocator for across its whole
/// life in the [`Registry`] front — miss, `lead`, `complete` with one
/// offer, then a hit: the query cloned into the singleflight table and
/// into the cache (its name, a tree node each), the offer set stored and
/// handed out (a vector and a component name each). The query is its own
/// key, so nothing is formatted, parsed or copied on the way (a formatted
/// string key made this 16).
const REGISTRY_CYCLE_ALLOCS: u64 = 8;

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
        running_instance: None,
    };
    let query = ComponentQuery::by_name("Counter", Version::new(1, 0));
    let mut front = Registry::new(Some(&CacheConfig::default()), None);
    let before = allocs();
    assert!(matches!(front.resolve(&query, SimTime::ZERO, |_| true), ResolveStep::Search { .. }));
    front.lead(&query, 1);
    front.complete(&query, std::slice::from_ref(&offer), SimTime::from_millis(1), true);
    let hit = front.resolve(&query, SimTime::from_millis(2), |_| true);
    let total = allocs() - before;
    assert!(matches!(hit, ResolveStep::Hit { offers, .. } if offers == [offer]));
    println!("{total} allocations for one registry miss/lead/complete/hit cycle");
    assert!(
        total <= REGISTRY_CYCLE_ALLOCS,
        "{total} allocations in a registry front cycle exceed the pinned {REGISTRY_CYCLE_ALLOCS}"
    );
}
