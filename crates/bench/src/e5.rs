//! E5 — run-time deployment vs CCM-style static assembly (R6, §2.4.4).
//!
//! "While traditional component models force programmers to decide the
//! hosts in which their components are going to be run … CORBA-LC
//! performs the deployment and component dependency management
//! automatically", using "the dynamic system data offered by the
//! Reflection Architecture" (§4).
//!
//! A heterogeneous 16-node network (4 idle servers, 12 half-loaded slow
//! workstations) receives an application of 24 compute instances. The
//! CORBA-LC planner places with live load data; the baseline follows a
//! fixed round-robin mapping decided "at deployment-design time". After
//! placement, every instance computes one work chunk; the makespan (last
//! reply) and the load distribution tell the story.

use crate::{f2, format_table, human_bytes, per_service_rows, Output, PER_SERVICE_HEADERS};
use lc_core::node::NodeCmd;
use lc_core::testkit::{fast_cohesion, World};
use lc_core::{AssemblyDescriptor, CohesionConfig, InvokeSink, NodeConfig, PlacementStrategy};
use lc_des::SimTime;
use lc_grid::PiWorkerServant;
use lc_net::{HostCfg, HostId, Topology};
use lc_orb::Value;
use std::fmt::Write as _;
use std::rc::Rc;

const INSTANCES: usize = 24;

fn topo() -> Topology {
    let mut t = Topology::new();
    let s = t.add_site("cluster");
    for i in 0..16 {
        if i % 4 == 0 {
            t.add_host(HostCfg::new(s).server()); // idle 4.0-cpu servers
        } else {
            t.add_host(HostCfg::new(s).cpu(0.5)); // slow workstations
        }
    }
    t
}

struct Run {
    placed: usize,
    makespan_ms: f64,
    peak_busy_ms: f64,
    push_bytes: u64,
    /// Per-service counters summed over every node.
    per_service: Vec<Vec<String>>,
}

fn run_one(strategy: PlacementStrategy, lb: bool, seed: u64) -> Run {
    let mut world = World::on(
        topo(),
        seed,
        NodeConfig {
            cohesion: CohesionConfig::flat(16, 1, fast_cohesion().report_period),
            load_balance: lb,
            ..Default::default()
        },
        lc_grid::catalog(),
        // Only the orchestrator (host 0) has the package: run-time
        // deployment pushes binaries where they are needed.
        |host| if host == HostId(0) { vec![lc_grid::worker_package()] } else { Vec::new() },
    );
    world.sim.run_until(SimTime::from_secs(1)); // central view converges

    let mut assembly = AssemblyDescriptor::new("compute-farm");
    for i in 0..INSTANCES {
        assembly =
            assembly.instance(&format!("w{i}"), "PiWorker", lc_pkg::Version::new(1, 0));
    }
    let sink: lc_core::AssemblySink = Rc::default();
    world.cmd(HostId(0), NodeCmd::StartAssembly { assembly, strategy, sink: sink.clone() });
    world.run_for(SimTime::from_secs(5));
    if lb {
        // Give the load balancer time to shuffle instances off the
        // overloaded workstations ("this decision may change to reflect
        // changes in the load", §2.4.4).
        world.run_for(SimTime::from_secs(20));
    }

    // Re-resolve references after possible LB migrations: named
    // instances may have moved, but migration forwarding keeps the old
    // references working — use them as-is.
    let refs: Vec<_> = sink
        .borrow()
        .values()
        .filter_map(|r| r.as_ref().ok().cloned())
        .collect();
    let placed = refs.len();
    let push_bytes = world.sim.metrics_ref().counter("assembly.push_bytes");

    // One compute wave: every instance crunches 2M units.
    let wave_start = world.sim.now();
    let wave: Vec<InvokeSink> = refs
        .iter()
        .map(|r| {
            let args = vec![Value::ULongLong(7), Value::ULongLong(2_000_000)];
            world.invoke(HostId(0), r, "compute", args)
        })
        .collect();
    world.run_for(SimTime::from_secs(120));
    let makespan = wave
        .iter()
        .filter_map(|replies| replies.borrow().iter().map(|(at, _)| *at).max())
        .max()
        .map(|t| (t - wave_start).as_secs_f64() * 1e3)
        .unwrap_or(f64::NAN);

    // The bottleneck: busy time of the most loaded host (units scaled
    // by the worker's 100ms/Munit cost and the host's CPU power).
    let mut peak_busy_ms = 0f64;
    for h in 0..16u32 {
        if let Some(node) = world.node(HostId(h)) {
            let mut host_busy = 0f64;
            for inst in node.registry.instances() {
                if let Some(w) = node.servant_of::<PiWorkerServant>(inst.id) {
                    host_busy += w.units_done as f64 / 1e6 * 100.0
                        / node.resources.static_info().cpu_power;
                }
            }
            peak_busy_ms = peak_busy_ms.max(host_busy);
        }
    }

    let per_service = per_service_rows(&world, (0..16).map(HostId));

    Run { placed, makespan_ms: makespan, peak_busy_ms, push_bytes, per_service }
}

/// Run E5 and render the report.
pub fn run() -> Output {
    let mut report = String::new();
    let _ = writeln!(
        report,
        "E5: deployment — CORBA-LC run-time placement vs CCM static assembly \
         (16 hosts: 4 idle servers + 12 slow workstations; {INSTANCES} instances)"
    );
    let runs = [
        ("CORBA-LC run-time", PlacementStrategy::RuntimeLoadAware, false),
        ("CCM static RR", PlacementStrategy::StaticRoundRobin, false),
        ("static RR + auto-LB", PlacementStrategy::StaticRoundRobin, true),
    ]
    .map(|(label, strategy, lb)| (label, run_one(strategy, lb, 77)));
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(label, r)| {
            vec![
                label.to_string(),
                format!("{}/{INSTANCES}", r.placed),
                f2(r.makespan_ms),
                f2(r.peak_busy_ms),
                human_bytes(r.push_bytes),
            ]
        })
        .collect();
    report.push_str(&format_table(
        "placement quality",
        &["strategy", "placed", "wave makespan ms", "bottleneck host busy ms", "binaries pushed"],
        &rows,
    ));

    // Where the deployment work lands inside the nodes (run-time
    // placement run, per-service counters summed over all 16 hosts).
    report.push_str(&format_table(
        "per-service breakdown, CORBA-LC run-time placement (all nodes)",
        &PER_SERVICE_HEADERS,
        &runs[0].1.per_service,
    ));
    Output { report, ..Output::default() }
}
