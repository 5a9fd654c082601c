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
//! Its own test binary because it installs a counting global allocator.
//! The counter is thread-local, so the libtest harness thread and the
//! other test's thread cannot leak into a measurement.

use lc_core::demo;
use lc_core::node::RegistryConfig;
use lc_core::testkit::{build_world, World};
use lc_core::{BehaviorRegistry, CacheConfig, CohesionConfig, NodeConfig, ShardConfig};
use lc_des::{Lane, ProfilerConfig, SimTime};
use lc_net::{HostId, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialised thread-local `Cell` with
// no destructor, so touching it never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow still asked the allocator for memory (lcperf counts alike).
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per node per report period: the measured 1 500 / 640 and
/// 6 740 / 640 (the same in debug and release builds), rounded up to
/// two decimals. With every frame boxed twice and every timer boxed
/// once the same runs measured 6.32 and 20.44; before soft state was
/// shared, 25.50 and 47.25 (EXPERIMENTS.md, "Background soft state").
const SINGLE_LEADER_BUDGET: f64 = 2.35;
const SHARDED_BUDGET: f64 = 10.54;

/// What rebuilding one subtree summary allocates: the component name,
/// the set node holding it and the `Rc` around the summary. The only
/// allocations of the idle single-leader plane that are not a frame.
const SUMMARY_BUILD_ALLOCS: u64 = 3;

const NODES: u64 = 64;
const PERIODS: u64 = 10;
const REPORT_PERIOD: SimTime = SimTime::from_secs(2);

/// The benchmark's campus at 1/16 size: 8 sites of 8 hosts, 2 s report
/// period, `Counter` installed on the first host of every site.
fn campus(registry: RegistryConfig, cache: Option<CacheConfig>) -> World {
    let behaviors = BehaviorRegistry::new();
    demo::register_demo_behaviors(&behaviors);
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
    build_world(
        Topology::campus(8, 8),
        7,
        config,
        behaviors,
        demo::demo_trust(),
        Arc::new(demo::demo_idl()),
        |HostId(h)| if h % 8 == 0 { vec![demo::counter_package()] } else { Vec::new() },
    )
}

/// Converge (two report rounds plus the summary climb), then count the
/// allocations of `PERIODS` idle report periods: the total, which
/// `budget × NODES × PERIODS` bounds.
fn idle_allocs(mut world: World) -> u64 {
    world.sim.run_until(SimTime::from_secs(7));
    let before = ALLOCS.with(Cell::get);
    world.sim.run_until(SimTime::from_secs(7) + REPORT_PERIOD * PERIODS);
    ALLOCS.with(Cell::get) - before
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


/// The message path itself, event by event on the idle single-leader
/// campus: an event allocates one frame per message it sends and
/// nothing else — so a timer tick that sends nothing, and every
/// delivery, allocates zero. (A sweep that rebuilds a subtree summary
/// additionally pays [`SUMMARY_BUILD_ALLOCS`].)
#[test]
fn one_allocation_per_message_and_none_per_timer() {
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
    let (mut msgs, mut frames, mut silent_ticks) = (0, 0, 0);
    while world.sim.now() < end {
        let sent_before = counter(&world, "net.msgs");
        let built_before = counter(&world, "cohesion.summaries");
        let ticks_before = ticks(&world);
        let before = ALLOCS.with(Cell::get);
        assert!(world.sim.step(), "the idle plane never drains");
        let allocs = ALLOCS.with(Cell::get) - before;
        let sent = counter(&world, "net.msgs") - sent_before;
        let built = counter(&world, "cohesion.summaries") > built_before;
        let frame_allocs = allocs.saturating_sub(if built { SUMMARY_BUILD_ALLOCS } else { 0 });
        assert!(
            frame_allocs <= sent,
            "an event that sent {sent} message(s) allocated {allocs} times at {}",
            world.sim.now()
        );
        msgs += sent;
        frames += frame_allocs;
        if sent == 0 && ticks(&world) > ticks_before {
            silent_ticks += 1;
        }
    }
    println!("{frames} frame allocations for {msgs} messages, {silent_ticks} silent ticks");
    assert!(msgs > 0 && frames <= msgs, "at most one allocation per delivered message");
    assert!(silent_ticks > 0, "the window must contain timer ticks that send nothing");
}
