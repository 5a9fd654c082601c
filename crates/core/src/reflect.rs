//! The Reflection Architecture (§2.4.2): node internals rendered for
//! visual builders, experiments, and Figure 1.
//!
//! "This information is used … by visual builder tools to offer to the
//! user the palette of available components, instances and connections
//! among them." The view is read straight off the node: the Component
//! Repository, the Component Registry's instances and connections, and
//! each service's own reflection.

use crate::node::Node;
use crate::registry::InstancePort;

/// Render a node as the Figure-1 style text block used by the F1
/// experiment binary.
pub fn render(node: &Node) -> String {
    let stat = node.resources.static_info();
    let metrics = node.node_metrics();
    let mut out = String::new();
    out.push_str(&format!(
        "Node host{} ({:?}, cpu {:.2}/{:.2} used, {} MiB free)\n",
        node.host.0,
        stat.device,
        node.resources.dynamic().cpu_used,
        stat.cpu_power,
        node.resources.mem_free() >> 20
    ));
    out.push_str("  Component Repository (reflected by Component Registry):\n");
    for inst in node.repository.iter() {
        let d = &inst.descriptor;
        let provides: Vec<&str> = d.provides.iter().map(|p| p.interface.as_str()).collect();
        let uses: Vec<&str> = d.uses.iter().map(|p| p.interface.as_str()).collect();
        out.push_str(&format!(
            "    [{} {}] by {} behavior={} provides={:?} uses={:?}\n",
            d.name, d.version, d.vendor, inst.behavior_id, provides, uses
        ));
    }
    out.push_str("  Running instances:\n");
    for i in node.registry.instances() {
        out.push_str(&format!(
            "    #{} {}{} -> {} provides={:?} uses={:?}\n",
            i.id.0,
            i.component,
            i.name.as_deref().map(|n| format!(" '{n}'")).unwrap_or_default(),
            i.objref,
            ports(&i.provides),
            ports(&i.uses)
        ));
    }
    out.push_str("  Connections (assembly view):\n");
    for c in node.registry.connections() {
        out.push_str(&format!("    {} .{} -> {}\n", c.from, c.from_port, c.to));
    }
    out.push_str("  Services (Fig. 1 decomposition):\n");
    for svc in node.service_reflections() {
        let m = metrics.service(svc.kind);
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
        node.continuation_depth(),
        node.continuation_peak_depth()
    ));
    let cmds: Vec<String> = metrics.cmd_counts().map(|(name, n)| format!("{name}={n}")).collect();
    if !cmds.is_empty() {
        out.push_str(&format!("  Commands handled: {}\n", cmds.join(" ")));
    }
    out
}

/// An instance's exposed ports as `(name, type)` pairs.
fn ports(ports: &[InstancePort]) -> Vec<(&str, &str)> {
    ports.iter().map(|p| (p.name.as_str(), p.type_id.as_str())).collect()
}
