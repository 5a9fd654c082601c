//! F2 — reproduce Figure 2: the CSCW application model.
//!
//! Builds the whiteboard application assembly (Application + GUI parts +
//! per-host Display), type-checks it against the CSCW IDL, deploys it
//! across a simulated network, and prints the component/port graph in
//! the shape of the paper's Figure 2 — including the "GUI components can
//! be local or remote" property: one GUI part runs on the application's
//! host, one on a remote workstation, and the PDA participant's GUI part
//! runs remotely while painting on the PDA's display.

use crate::Output;
use lc_core::node::NodeCmd;
use lc_core::testkit::{fast_config, World};
use lc_des::SimTime;
use lc_net::{HostCfg, Topology};
use lc_orb::Value;
use std::fmt::Write as _;

/// Run F2 and render the report.
pub fn run() -> Output {
    let mut report = String::new();
    let _ = writeln!(report, "F2: Figure 2 — CSCW application model");
    let _ = writeln!(report, "-------------------------------------");

    // The assembly, type-checked against the IDL like a visual builder
    // would before letting the user hit 'run'.
    let assembly = lc_cscw::whiteboard_assembly(3);
    let mut descs = std::collections::BTreeMap::new();
    for bytes in [
        lc_cscw::gui_package(),
        lc_cscw::whiteboard_package(),
        lc_cscw::display_package(),
    ] {
        let pkg = match lc_pkg::Package::from_bytes(&bytes) {
            Ok(pkg) => pkg,
            Err(e) => return Output::failed(format!("f2: package does not parse: {e:?}")),
        };
        descs.insert(pkg.descriptor.name.clone(), pkg.descriptor);
    }
    if let Err(e) = assembly.typecheck(&descs, &lc_cscw::cscw_idl()) {
        return Output::failed(format!("f2: assembly does not typecheck: {e:?}"));
    }
    let _ = writeln!(report, "\nassembly '{}' (typechecked):", assembly.name);
    for i in &assembly.instances {
        let _ =
            writeln!(report, "  instance {:<6} : {} >= {}", i.name, i.component, i.min_version);
    }
    for c in &assembly.connections {
        let arrow = match c.kind {
            lc_core::ConnectionKind::Interface => "--uses-->",
            lc_core::ConnectionKind::Event => "~~consumes~~>",
        };
        let _ = writeln!(report, "  {}.{} {arrow} {}.{}", c.from, c.from_port, c.to, c.to_port);
    }

    // Deploy: app host + workstation + PDA.
    let mut topo = Topology::new();
    let office = topo.add_site("office");
    let app_host = topo.add_host(HostCfg::new(office).server());
    let workstation = topo.add_host(HostCfg::new(office));
    let pda = topo.add_host(HostCfg::new(office).pda());
    let mut world = World::on(
        topo,
        2,
        fast_config(),
        lc_cscw::catalog(),
        |_| lc_cscw::session_packages(),
    );
    world.sim.run_until(SimTime::from_millis(50));

    let wait = SimTime::from_millis(20);
    let board = world.spawn(app_host, "Whiteboard", Some("application"), wait);
    // local GUI part (same host as the application)
    let gui_local = world.spawn(app_host, "CscwGuiPart", Some("gui-part-1"), wait);
    let disp_local = world.spawn(app_host, "CscwDisplay", Some("display-app"), wait);
    // remote GUI part on the workstation
    let gui_remote = world.spawn(workstation, "CscwGuiPart", Some("gui-part-2"), wait);
    let disp_remote = world.spawn(workstation, "CscwDisplay", Some("display-ws"), wait);
    // PDA: display local (firmware), GUI part hosted on the server
    let disp_pda = world.spawn(pda, "CscwDisplay", Some("display-pda"), wait);
    let gui_pda = world.spawn(app_host, "CscwGuiPart", Some("gui-part-pda"), wait);

    for (host, gui, disp) in [
        (app_host, &gui_local, &disp_local),
        (workstation, &gui_remote, &disp_remote),
        (app_host, &gui_pda, &disp_pda),
    ] {
        world.oneway(host, gui, "_connect_display", vec![Value::ObjRef(disp.clone())]);
        world.cmd(
            host,
            NodeCmd::Subscribe {
                producer: board.clone(),
                port: "strokes".into(),
                consumer: gui.clone(),
                delivery_op: "_push_strokes".into(),
            },
        );
    }
    world.run_for(SimTime::from_millis(200));

    // One stroke to light the wires up.
    let stroke = vec![Value::Long(1), Value::Long(2), Value::Long(3), Value::Long(4)];
    world.oneway(app_host, &board, "user_stroke", stroke);
    world.run_for(SimTime::from_secs(1));

    let _ = writeln!(report, "\ndeployed model (cf. Fig. 2):\n");
    let _ = writeln!(report, "  Application Window           Node                    Network");
    for (label, host) in
        [("application host", app_host), ("workstation", workstation), ("PDA", pda)]
    {
        let Some(node) = world.node(host) else {
            return Output::failed(format!("f2: {label} is down"));
        };
        let _ = writeln!(report, "  [{label} = {}]", host);
        for inst in node.registry.instances() {
            let ports: Vec<String> = inst
                .provides
                .iter()
                .map(|p| format!("provides {}", p.name))
                .chain(inst.uses.iter().map(|p| format!("uses {}", p.name)))
                .chain(inst.emits.iter().map(|p| format!("emits {}", p.name)))
                .chain(inst.consumes.iter().map(|p| format!("consumes {}", p.name)))
                .collect();
            let _ = writeln!(
                report,
                "    {} '{}' ({})",
                inst.component,
                inst.name.clone().unwrap_or_default(),
                ports.join(", ")
            );
        }
        for c in node.registry.connections() {
            let _ = writeln!(report, "      wire: {}.{} -> {}", c.from, c.from_port, c.to);
        }
    }
    let _ = writeln!(
        report,
        "\n  stroke delivered to 3 GUI parts (1 local, 1 remote, 1 serving the PDA);\n\
         events published: {}",
        world.sim.metrics_ref().counter("events.published")
    );
    Output { report, ..Output::default() }
}
