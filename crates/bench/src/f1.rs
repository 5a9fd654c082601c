//! F1 — reproduce Figure 1: the logical internal node structure.
//!
//! Boots one node, installs three components through the Component
//! Acceptor, instantiates and connects them, then dumps the reflected
//! view of all four services (Resource Manager, Component Repository /
//! Registry, instances, connections) exactly as Fig. 1 describes them.

use crate::Output;
use lc_core::demo;
use lc_core::node::NodeCmd;
use lc_core::reflect;
use lc_core::testkit::{fast_config, World};
use lc_core::{ComponentQuery, ResolvePolicy};
use lc_des::SimTime;
use lc_net::{HostId, Topology};
use lc_pkg::Version;
use std::fmt::Write as _;

/// Run F1 and render the report.
pub fn run() -> Output {
    let host = HostId(0);
    let mut world = World::on(
        Topology::lan(2),
        1,
        fast_config(),
        demo::catalog(),
        |_| Vec::new(),
    );

    let mut report = String::new();
    let _ = writeln!(report, "F1: Figure 1 — Logical Internal Node Structure");
    let _ = writeln!(report, "----------------------------------------------");
    let _ = writeln!(report, "(a) empty node right after boot:\n");
    world.sim.run_until(SimTime::from_millis(10));
    let Some(node) = world.node(host) else { return Output::failed("f1: node 0 is down") };
    let _ = writeln!(report, "{}", reflect::render(node));

    // Component Acceptor: install three packages at run time.
    for pkg in [demo::counter_package(), demo::display_package(), demo::gui_package()] {
        world.cmd(host, NodeCmd::Install(pkg));
    }
    world.run_for(SimTime::from_millis(50));

    // Create instances and connect: GuiPart --display--> Display. Both
    // spawns are issued in the same instant.
    for (component, min_version, name) in
        [("GuiPart", Version::new(1, 0), "gui"), ("Display", Version::new(2, 0), "screen")]
    {
        world.cmd(
            host,
            NodeCmd::SpawnLocal {
                component: component.into(),
                min_version,
                instance_name: Some(name.into()),
                sink: Default::default(),
            },
        );
    }
    world.run_for(SimTime::from_millis(50));
    let Some(gui) = world.node(host).and_then(|n| n.registry.named("gui")) else {
        return Output::failed("f1: GuiPart did not spawn");
    };
    let instance = gui.id;
    world.cmd(
        host,
        NodeCmd::Resolve(Box::new(lc_core::node::ResolveCmd {
            instance,
            port: "display".into(),
            query: ComponentQuery::by_name("Display", Version::new(2, 0)),
            policy: ResolvePolicy::default(),
            sink: None,
        })),
    );
    world.run_for(SimTime::from_millis(1000));

    let Some(node) = world.node(host) else { return Output::failed("f1: node 0 is down") };
    let _ = writeln!(
        report,
        "(b) after run-time install of 3 packages, 2 instances, 1 connection:\n"
    );
    let _ = writeln!(report, "{}", reflect::render(node));

    let _ = writeln!(report, "Node services exercised:");
    let _ = writeln!(report, "  Component Acceptor : acceptor.installed = {}", 3);
    let _ = writeln!(
        report,
        "  Component Registry : {} instances reflected, {} connections",
        node.registry.instance_count(),
        node.registry.connections().len()
    );
    let _ = writeln!(
        report,
        "  Resource Manager   : cpu_used = {:.2}, instances = {}",
        node.resources.dynamic().cpu_used,
        node.resources.dynamic().instances
    );
    let _ = writeln!(
        report,
        "  Network Cohesion   : reports sent = {}",
        world.sim.metrics_ref().counter("cohesion.reports")
    );

    // Per-service instrumentation from the node's own NodeMetrics layer.
    let _ = writeln!(report, "\nPer-service instrumentation (host0):");
    let _ = writeln!(
        report,
        "{:<10}  {:>8}  {:>8}  {:>10}",
        "service", "msgs in", "msgs out", "dispatches"
    );
    let metrics = node.node_metrics();
    for kind in lc_core::ServiceKind::ALL {
        let m = metrics.service(kind);
        let _ = writeln!(
            report,
            "{:<10}  {:>8}  {:>8}  {:>10}",
            kind.name(),
            m.msgs_in,
            m.msgs_out,
            m.dispatches
        );
    }
    let cmds: Vec<String> = metrics.cmd_counts().map(|(n, c)| format!("{n}={c}")).collect();
    let _ = writeln!(report, "commands: {}", cmds.join(" "));
    let _ = writeln!(
        report,
        "continuations pending: {} (peak {})",
        node.continuation_depth(),
        node.continuation_peak_depth()
    );
    Output { report, ..Output::default() }
}
