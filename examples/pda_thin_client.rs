//! R8 — tiny-device integration: a PDA joins the network as a full peer
//! node with limited capabilities and "uses all components remotely".
//!
//! Shows the three mechanisms that make it work:
//!   1. QoS admission — heavyweight components are refused on the PDA;
//!   2. partial package extraction — the PDA pulls only its platform's
//!      binary section;
//!   3. remote use — the PDA's applications run elsewhere and paint on
//!      the PDA's screen across its slow link.
//!
//! Run with `cargo run --example pda_thin_client`.

use corba_lc_repro::core::node::NodeCmd;
use corba_lc_repro::core::testkit::{fast_config, World};
use corba_lc_repro::cscw;
use corba_lc_repro::des::SimTime;
use corba_lc_repro::net::{HostCfg, Topology};
use corba_lc_repro::orb::Value;
use corba_lc_repro::pkg::{Package, Platform};
use std::rc::Rc;

fn main() {
    // 1+2: package mechanics, before any network is involved.
    let full = Package::from_bytes(&cscw::display_package()).unwrap();
    let subset = full.extract_subset(&[Platform::pda()]);
    println!(
        "display package: full = {} bytes, PDA subset = {} bytes ({}x smaller)",
        full.to_bytes().len(),
        subset.to_bytes().len(),
        full.to_bytes().len() / subset.to_bytes().len().max(1)
    );

    let mut topo = Topology::new();
    let office = topo.add_site("office");
    let server = topo.add_host(HostCfg::new(office).server());
    let pda = topo.add_host(HostCfg::new(office).pda());
    let mut world = World::on(
        topo,
        9,
        fast_config(),
        cscw::catalog(),
        |_| cscw::session_packages(),
    );
    world.sim.run_until(SimTime::from_millis(50));

    // QoS admission: the GUI part does not fit the PDA.
    let refuse: corba_lc_repro::core::SpawnSink = Rc::default();
    world.cmd(
        pda,
        NodeCmd::SpawnLocal {
            component: "CscwGuiPart".into(),
            min_version: corba_lc_repro::pkg::Version::new(1, 0),
            instance_name: None,
            sink: refuse.clone(),
        },
    );
    world.run_for(SimTime::from_millis(20));
    let refused = refuse.borrow().clone().unwrap();
    println!("\nPDA tries to host the GUI part locally -> {}", refused.unwrap_err());

    // Remote use: display local (it *is* the PDA's screen), app remote.
    let wait = SimTime::from_millis(20);
    let screen = world.spawn(pda, "CscwDisplay", Some("pda-screen"), wait);
    let board = world.spawn(server, "Whiteboard", Some("board"), wait);
    let gui = world.spawn(server, "CscwGuiPart", Some("pda-gui"), wait);
    world.oneway(server, &gui, "_connect_display", vec![Value::ObjRef(screen)]);
    world.cmd(
        server,
        NodeCmd::Subscribe {
            producer: board.key,
            port: "strokes".into(),
            consumer: gui.key,
            delivery_op: "_push_strokes".into(),
        },
    );
    world.run_for(SimTime::from_millis(200));
    println!("PDA's GUI part runs on {server}; its screen stays on {pda}");

    for k in 0..8i32 {
        world.oneway(
            server,
            &board,
            "user_stroke",
            vec![Value::Long(k), Value::Long(k), Value::Long(k + 2), Value::Long(k + 2)],
        );
        world.run_for(SimTime::from_millis(150));
    }
    world.run_for(SimTime::from_secs(2));

    let node = world.node(pda).unwrap();
    let id = node.registry.named("pda-screen").unwrap().id;
    let screen: &cscw::DisplayServant = node.servant_of(id).unwrap();
    println!(
        "\nPDA screen painted {} times over its {:.0} kbit/s wireless link",
        screen.draws,
        node.resources.static_info().down_bw * 8.0 / 1000.0
    );
    assert_eq!(screen.draws, 8);
}
