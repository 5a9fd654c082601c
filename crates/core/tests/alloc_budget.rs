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
use lc_des::SimTime;
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

/// Allocations per node per report period: the measured 4 040 / 640 and
/// 13 080 / 640 (the same in debug and release builds), rounded up to
/// two decimals. Before soft state was shared the same runs measured
/// 25.50 and 47.25 (EXPERIMENTS.md, "Background soft state").
const SINGLE_LEADER_BUDGET: f64 = 6.32;
const SHARDED_BUDGET: f64 = 20.44;

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
