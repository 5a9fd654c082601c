//! The Reflection Architecture (§2.4.2): structured snapshots of node
//! internals for visual builders, experiments, and Figure 1.
//!
//! "This information is used … by visual builder tools to offer to the
//! user the palette of available components, instances and connections
//! among them." The snapshot is plain data (no references into the node),
//! so tools can hold it across simulation steps.

use crate::node::{Node, NodeMetrics, ServiceReflect};
use crate::registry::Connection;
use lc_net::DeviceClass;
use lc_pkg::Version;

/// Reflected view of one installed component.
#[derive(Clone, Debug)]
pub struct InstalledView {
    /// Component name.
    pub name: String,
    /// Version.
    pub version: Version,
    /// Vendor.
    pub vendor: String,
    /// Provided interface ids.
    pub provides: Vec<String>,
    /// Used interface ids.
    pub uses: Vec<String>,
    /// Behaviour id of the local binary.
    pub behavior: String,
}

/// Reflected view of one running instance.
#[derive(Clone, Debug)]
pub struct InstanceView {
    /// Node-local instance id.
    pub id: u64,
    /// Application-assigned name, if any.
    pub name: Option<String>,
    /// Component name.
    pub component: String,
    /// Stringified object reference.
    pub objref: String,
    /// Currently exposed provided ports (name, type).
    pub provides: Vec<(String, String)>,
    /// Currently exposed used ports (name, type).
    pub uses: Vec<(String, String)>,
}

/// The external view of a node: what Fig. 1 calls the reflection of the
/// four services.
#[derive(Clone, Debug)]
pub struct NodeSnapshot {
    /// Host id.
    pub host: u32,
    /// Device class.
    pub device: DeviceClass,
    /// Static CPU power.
    pub cpu_power: f64,
    /// CPU currently reserved.
    pub cpu_used: f64,
    /// Memory bytes free.
    pub mem_free: u64,
    /// Installed components (Component Repository via Component Registry).
    pub installed: Vec<InstalledView>,
    /// Running instances.
    pub instances: Vec<InstanceView>,
    /// Port connections (assembly view).
    pub connections: Vec<Connection>,
    /// Per-service reflected state (the Fig. 1 decomposition).
    pub services: Vec<ServiceReflect>,
    /// Per-service instrumentation counters.
    pub metrics: NodeMetrics,
    /// Continuations currently pending across all tables.
    pub continuation_depth: usize,
    /// High-water mark of pending continuations.
    pub continuation_peak: usize,
}

/// Take a reflective snapshot of a node.
pub fn snapshot(node: &Node) -> NodeSnapshot {
    let stat = node.resources.static_info();
    NodeSnapshot {
        host: node.host.0,
        device: stat.device,
        cpu_power: stat.cpu_power,
        cpu_used: node.resources.dynamic().cpu_used,
        mem_free: node.resources.mem_free(),
        installed: node
            .repository
            .iter()
            .map(|inst| InstalledView {
                name: inst.descriptor.name.clone(),
                version: inst.descriptor.version,
                vendor: inst.descriptor.vendor.clone(),
                provides: inst.descriptor.provides.iter().map(|p| p.interface.clone()).collect(),
                uses: inst.descriptor.uses.iter().map(|p| p.interface.clone()).collect(),
                behavior: inst.behavior_id.clone(),
            })
            .collect(),
        instances: node
            .registry
            .instances()
            .map(|i| InstanceView {
                id: i.id.0,
                name: i.name.clone(),
                component: i.component.clone(),
                objref: i.objref.to_string(),
                provides: i
                    .provides
                    .iter()
                    .map(|p| (p.name.clone(), p.type_id.clone()))
                    .collect(),
                uses: i.uses.iter().map(|p| (p.name.clone(), p.type_id.clone())).collect(),
            })
            .collect(),
        connections: node.registry.connections().to_vec(),
        services: node.service_reflections(),
        metrics: node.node_metrics().clone(),
        continuation_depth: node.continuation_depth(),
        continuation_peak: node.continuation_peak_depth(),
    }
}

/// Render a snapshot as the Figure-1 style text block used by the F1
/// experiment binary.
pub fn render(s: &NodeSnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Node host{} ({:?}, cpu {:.2}/{:.2} used, {} MiB free)\n",
        s.host,
        s.device,
        s.cpu_used,
        s.cpu_power,
        s.mem_free >> 20
    ));
    out.push_str("  Component Repository (reflected by Component Registry):\n");
    for c in &s.installed {
        out.push_str(&format!(
            "    [{} {}] by {} behavior={} provides={:?} uses={:?}\n",
            c.name, c.version, c.vendor, c.behavior, c.provides, c.uses
        ));
    }
    out.push_str("  Running instances:\n");
    for i in &s.instances {
        out.push_str(&format!(
            "    #{} {}{} -> {} provides={:?} uses={:?}\n",
            i.id,
            i.component,
            i.name.as_deref().map(|n| format!(" '{n}'")).unwrap_or_default(),
            i.objref,
            i.provides,
            i.uses
        ));
    }
    out.push_str("  Connections (assembly view):\n");
    for c in &s.connections {
        out.push_str(&format!("    {} .{} -> {}\n", c.from, c.from_port, c.to));
    }
    out.push_str("  Services (Fig. 1 decomposition):\n");
    for svc in &s.services {
        let m = s.metrics.service(svc.kind);
        out.push_str(&format!(
            "    {:<9}  in={} out={} dispatches={}\n",
            svc.kind.name(),
            m.msgs_in,
            m.msgs_out,
            m.dispatches
        ));
        for (label, value) in &svc.items {
            out.push_str(&format!("      {label}: {value}\n"));
        }
    }
    out.push_str(&format!(
        "  Continuations pending: {} (peak {})\n",
        s.continuation_depth, s.continuation_peak
    ));
    let cmds: Vec<String> =
        s.metrics.cmd_counts().map(|(name, n)| format!("{name}={n}")).collect();
    if !cmds.is_empty() {
        out.push_str(&format!("  Commands handled: {}\n", cmds.join(" ")));
    }
    out
}
