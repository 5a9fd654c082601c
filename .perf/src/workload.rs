//! What the run engine needs from a workload: one *epoch* (a fresh world
//! under one seed) that is fed and advanced segment by segment.

use crate::spans::Spans;
use crate::stats::Fnv;
use lc_core::testkit::World;
use lc_core::ServiceKind;
use lc_des::{Lane, Sim};
use lc_net::HostId;
use std::collections::BTreeMap;

pub mod campus;
pub mod invoke;
pub mod scale;

/// The four workloads, in ledger order.
pub const NAMES: [&str; 4] = ["query_hier", "registry_mixed", "invoke_open", "scale_hier"];

/// Static facts the engine sizes a run from.
#[derive(Clone, Copy)]
pub struct Profile {
    /// Discarded warm-up segments per epoch (part of set-up).
    pub warmup_segments: u32,
    /// What one measured segment costs on the reference box, seconds,
    /// reference-kernel bracket included — used only to turn `--seconds`
    /// into a segment count, so a fixed `(seed, seconds)` pair always
    /// runs the same ops.
    pub nominal_segment_s: f64,
    /// Fewest measured segments per epoch the median is taken over.
    pub min_segments: u32,
    /// Which unit-cost rows price this workload in the sum-of-layers model.
    pub stack: Stack,
    /// Node report periods that elapse per op (nodes ÷ (period × op rate)):
    /// how much soft-state background one op's share of virtual time holds.
    pub background_node_periods_per_op: f64,
}

/// What a workload runs on.
#[derive(Clone, Copy, PartialEq)]
pub enum Stack {
    /// Node actors over `Net`, with the single-leader registry.
    Nodes,
    /// Node actors with the sharded registry on the faulted fabric.
    ShardedNodes,
    /// The packed-lane scale model: no `Net`, ORB or `Node`.
    ScaleModel,
}

/// Exact counters by name (`Sim::metrics_ref()` plus harness additions).
pub type Counters = BTreeMap<String, u64>;

/// Per-op outcomes of the measured segments.
pub struct Outcomes {
    pub attempted: u64,
    pub failed: u64,
    /// Virtual-time latency of every op that succeeded, ns.
    pub latency_ns: Vec<u64>,
    /// Output-correctness violations (any makes the run incorrect).
    pub violations: Vec<String>,
    /// Running hash of every outcome, in harvest order.
    pub fp: Fnv,
}

impl Outcomes {
    pub fn new() -> Outcomes {
        Outcomes {
            attempted: 0,
            failed: 0,
            latency_ns: Vec::new(),
            violations: Vec::new(),
            fp: Fnv::new(),
        }
    }

    pub fn ok(&mut self, latency_ns: u64) {
        self.attempted += 1;
        self.latency_ns.push(latency_ns);
        self.fp.u64(latency_ns);
    }

    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
        self.fp.u64(u64::MAX);
    }

    pub fn violation(&mut self, what: String) {
        if self.violations.len() < 16 {
            self.violations.push(what);
        }
    }
}

/// One epoch of a workload. The engine calls, per segment:
/// `prepare` (untimed) → `submit` + `advance` (timed) → `harvest` (untimed).
pub trait Epoch {
    /// Generate the next segment's inputs from the seed. Nothing here is
    /// on the clock, so the program under test receives only finished
    /// inputs.
    fn prepare(&mut self);
    /// Hand the prepared inputs to the simulation (`Sim::send_in`).
    fn submit(&mut self);
    /// Advance the simulation to the end of the segment (`Sim::run_until`).
    fn advance(&mut self);
    /// Ops in the segment just run.
    fn segment_ops(&self) -> u64;
    /// Record the outcomes of measured ops that have certainly finished.
    fn harvest(&mut self, out: &mut Outcomes);
    /// Segments prepared from now on are measured, not warm-up.
    fn start_measuring(&mut self);
    /// Snapshot of every exact counter.
    fn counters(&self) -> Counters;
    /// Traced run only: turn on the kernel's virtual-time profiler.
    fn enable_profiler(&mut self);
    /// Events per kind the profiler saw: `(label, events)`.
    fn profile(&self) -> Vec<(String, u64)>;
    /// Let in-flight ops finish, harvest them, and run the end-of-epoch
    /// correctness checks.
    fn finish(&mut self, out: &mut Outcomes);
}

/// Build one epoch of `workload`, recording `setup.*` spans. `shrink`
/// divides segment and world sizes (`selftest` runs at 1/50; a real run
/// passes 1).
pub fn build(workload: &str, seed: u64, shrink: u32, spans: &mut Spans) -> Box<dyn Epoch> {
    match workload {
        "query_hier" => Box::new(campus::Campus::build(
            &campus::QUERY_HIER,
            seed,
            shrink,
            spans,
        )),
        "registry_mixed" => Box::new(campus::Campus::build(
            &campus::REGISTRY_MIXED,
            seed,
            shrink,
            spans,
        )),
        "invoke_open" => Box::new(invoke::InvokeOpen::build(seed, shrink, spans)),
        "scale_hier" => Box::new(scale::ScaleHier::build(seed, shrink)),
        other => panic!("unknown workload '{other}' (known: {NAMES:?})"),
    }
}

pub fn profile_of(workload: &str) -> Profile {
    match workload {
        "query_hier" => campus::QUERY_HIER.profile,
        "registry_mixed" => campus::REGISTRY_MIXED.profile,
        "invoke_open" => invoke::PROFILE,
        "scale_hier" => scale::PROFILE,
        other => panic!("unknown workload '{other}' (known: {NAMES:?})"),
    }
}

/// Every `Sim` counter, the kernel's event count, the handler activations
/// of all nodes, and how many ops the harness submitted late.
pub fn world_counters(world: &World, late: u64) -> Counters {
    let sim = &world.sim;
    let mut c: Counters = sim
        .metrics_ref()
        .counters()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
    c.insert("des.events".to_owned(), sim.events_fired());
    let dispatches = (0..world.actors.len() as u32)
        .filter_map(|h| world.node(HostId(h)))
        .flat_map(|node| ServiceKind::ALL.map(|k| node.node_metrics().service(k).dispatches))
        .sum();
    c.insert("node.dispatches".to_owned(), dispatches);
    c.insert("load.late".to_owned(), late);
    c
}

/// Events per scheduling lane of a profiled `Sim`.
pub fn sim_profile(sim: &Sim) -> Vec<(String, u64)> {
    let Some(report) = sim.profile_report() else {
        return Vec::new();
    };
    [
        ("lane.message", Lane::Message),
        ("lane.packed", Lane::Packed),
        ("lane.control", Lane::Control),
    ]
    .into_iter()
    .map(|(name, lane)| (name.to_owned(), report.lane(lane).events))
    .collect()
}
