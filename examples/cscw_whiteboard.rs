//! A shared whiteboard session across a simulated office network —
//! the paper's flagship CSCW scenario (Fig. 2).
//!
//! Three users on workstations plus one on a PDA join a whiteboard. The
//! application component emits stroke events; each participant's GUI
//! part consumes them and paints through its *local* Display component.
//! The PDA cannot host a GUI part, so its part runs on the office server
//! and paints on the PDA's screen remotely (R7 + R8 in action).
//!
//! Run with `cargo run --example cscw_whiteboard`.

use corba_lc_repro::core::node::NodeCmd;
use corba_lc_repro::core::testkit::{fast_config, World};
use corba_lc_repro::cscw;
use corba_lc_repro::des::SimTime;
use corba_lc_repro::net::{HostCfg, Topology};
use corba_lc_repro::orb::Value;

fn main() {
    let mut topo = Topology::new();
    let office = topo.add_site("office");
    let server = topo.add_host(HostCfg::new(office).server());
    let ws: Vec<_> = (0..3).map(|_| topo.add_host(HostCfg::new(office))).collect();
    let pda = topo.add_host(HostCfg::new(office).pda());

    let mut world = World::on(
        topo,
        7,
        fast_config(),
        cscw::catalog(),
        |_| cscw::session_packages(),
    );
    world.sim.run_until(SimTime::from_millis(50));

    let wait = SimTime::from_millis(20);

    println!("deploying the whiteboard session…");
    let board = world.spawn(server, "Whiteboard", Some("board"), wait);

    // Three workstation participants: GUI + display local to each user.
    let mut parts = Vec::new();
    for (i, &host) in ws.iter().enumerate() {
        let display = world.spawn(host, "CscwDisplay", Some(&format!("screen{i}")), wait);
        let gui = world.spawn(host, "CscwGuiPart", Some(&format!("gui{i}")), wait);
        world.oneway(host, &gui, "_connect_display", vec![Value::ObjRef(display)]);
        world.cmd(
            host,
            NodeCmd::Subscribe {
                producer: board.clone(),
                port: "strokes".into(),
                consumer: gui.clone(),
                delivery_op: "_push_strokes".into(),
            },
        );
        parts.push((host, format!("gui{i}")));
        println!("  participant {i}: GUI + display on {host}");
    }

    // The PDA participant: display on the PDA, GUI part on the server.
    let pda_display = world.spawn(pda, "CscwDisplay", Some("pda-screen"), wait);
    let pda_gui = world.spawn(server, "CscwGuiPart", Some("pda-gui"), wait);
    world.oneway(server, &pda_gui, "_connect_display", vec![Value::ObjRef(pda_display)]);
    world.cmd(
        server,
        NodeCmd::Subscribe {
            producer: board.clone(),
            port: "strokes".into(),
            consumer: pda_gui,
            delivery_op: "_push_strokes".into(),
        },
    );
    parts.push((server, "pda-gui".into()));
    println!("  participant 3 (PDA): display on {pda}, GUI hosted on {server}");
    world.run_for(SimTime::from_millis(300));

    println!("\nuser draws 12 strokes…");
    for k in 0..12i32 {
        world.oneway(server, &board, "user_stroke", vec![
                    Value::Long(10 * k),
                    Value::Long(5 * k),
                    Value::Long(10 * k + 8),
                    Value::Long(5 * k + 8),
                ]);
        world.run_for(SimTime::from_millis(80));
    }
    world.run_for(SimTime::from_secs(1));

    println!("\nresults:");
    for (host, gui_name) in &parts {
        let node = world.node(*host).unwrap();
        let id = node.registry.named(gui_name).unwrap().id;
        let gui: &cscw::GuiPartServant = node.servant_of(id).unwrap();
        let mean = gui.stroke_latency_ms.iter().sum::<f64>()
            / gui.stroke_latency_ms.len().max(1) as f64;
        println!(
            "  {gui_name:<9} on {host}: {} strokes seen, mean delivery {:.2} ms",
            gui.strokes_seen, mean
        );
    }
    // The PDA's screen was painted across its slow wireless link:
    let node = world.node(pda).unwrap();
    let id = node.registry.named("pda-screen").unwrap().id;
    let screen: &cscw::DisplayServant = node.servant_of(id).unwrap();
    println!(
        "  PDA screen: {} remote paints, {} bytes of pixels",
        screen.draws, screen.pixels_drawn
    );
}
