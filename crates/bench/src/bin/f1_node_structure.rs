//! F1 — reproduce Figure 1: the logical internal node structure.
//!
//! Boots one node, installs three components through the Component
//! Acceptor, instantiates and connects them, then dumps the reflected
//! view of all four services (Resource Manager, Component Repository /
//! Registry, instances, connections) exactly as Fig. 1 describes them.

use lc_core::demo;
use lc_core::node::NodeCmd;
use lc_core::testkit::{build_world, fast_cohesion};
use lc_core::{ComponentQuery, NodeConfig, ResolvePolicy};
use lc_des::SimTime;
use lc_net::{HostId, Topology};
use std::rc::Rc;
use std::sync::Arc;

fn main() {
    let behaviors = lc_core::BehaviorRegistry::new();
    demo::register_demo_behaviors(&behaviors);
    let mut world = build_world(
        Topology::lan(2),
        1,
        NodeConfig { cohesion: fast_cohesion(), ..Default::default() },
        behaviors,
        demo::demo_trust(),
        Arc::new(demo::demo_idl()),
        |_| Vec::new(),
    );

    println!("F1: Figure 1 — Logical Internal Node Structure");
    println!("----------------------------------------------");
    println!("(a) empty node right after boot:\n");
    world.sim.run_until(SimTime::from_millis(10));
    println!(
        "{}",
        lc_core::reflect::render(&lc_core::reflect::snapshot(world.node(HostId(0)).unwrap()))
    );

    // Component Acceptor: install three packages at run time.
    for pkg in [demo::counter_package(), demo::display_package(), demo::gui_package()] {
        world.cmd(HostId(0), NodeCmd::Install(pkg));
    }
    let deadline = world.sim.now() + SimTime::from_millis(50);
    world.sim.run_until(deadline);

    // Create instances and connect: GuiPart --display--> Display.
    let gspawn: lc_core::SpawnSink = Rc::default();
    world.cmd(
        HostId(0),
        NodeCmd::SpawnLocal {
            component: "GuiPart".into(),
            min_version: lc_pkg::Version::new(1, 0),
            instance_name: Some("gui".into()),
            sink: gspawn.clone(),
        },
    );
    let dspawn: lc_core::SpawnSink = Rc::default();
    world.cmd(
        HostId(0),
        NodeCmd::SpawnLocal {
            component: "Display".into(),
            min_version: lc_pkg::Version::new(2, 0),
            instance_name: Some("screen".into()),
            sink: dspawn.clone(),
        },
    );
    let deadline = world.sim.now() + SimTime::from_millis(50);
    world.sim.run_until(deadline);
    let gui_instance = world.node(HostId(0)).unwrap().registry.named("gui").unwrap().id;
    world.cmd(
        HostId(0),
        NodeCmd::Resolve {
            instance: gui_instance,
            port: "display".into(),
            query: ComponentQuery::by_name("Display", lc_pkg::Version::new(2, 0)),
            policy: ResolvePolicy::default(),
            sink: None,
        },
    );
    let deadline = world.sim.now() + SimTime::from_millis(1000);
    world.sim.run_until(deadline);

    println!("(b) after run-time install of 3 packages, 2 instances, 1 connection:\n");
    println!(
        "{}",
        lc_core::reflect::render(&lc_core::reflect::snapshot(world.node(HostId(0)).unwrap()))
    );

    println!("Node services exercised:");
    println!("  Component Acceptor : acceptor.installed = {}", 3);
    println!(
        "  Component Registry : {} instances reflected, {} connections",
        world.node(HostId(0)).unwrap().registry.instance_count(),
        world.node(HostId(0)).unwrap().registry.connections().len()
    );
    println!(
        "  Resource Manager   : cpu_used = {:.2}, instances = {}",
        world.node(HostId(0)).unwrap().resources.dynamic().cpu_used,
        world.node(HostId(0)).unwrap().resources.dynamic().instances
    );
    println!(
        "  Network Cohesion   : reports sent = {}",
        world.sim.metrics_ref().counter("cohesion.reports")
    );

    // Per-service instrumentation from the node's own NodeMetrics layer.
    println!("\nPer-service instrumentation (host0):");
    println!("{:<10}  {:>8}  {:>8}  {:>10}", "service", "msgs in", "msgs out", "dispatches");
    let node = world.node(HostId(0)).unwrap();
    let metrics = node.node_metrics();
    for kind in lc_core::ServiceKind::ALL {
        let m = metrics.service(kind);
        println!(
            "{:<10}  {:>8}  {:>8}  {:>10}",
            kind.name(),
            m.msgs_in,
            m.msgs_out,
            m.dispatches
        );
    }
    let cmds: Vec<String> = metrics.cmd_counts().map(|(n, c)| format!("{n}={c}")).collect();
    println!("commands: {}", cmds.join(" "));
    println!(
        "continuations pending: {} (peak {})",
        node.continuation_depth(),
        node.continuation_peak_depth()
    );
}
