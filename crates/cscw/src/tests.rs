//! CSCW scenario tests: the Fig. 2 whiteboard session and the PDA thin
//! client, running on the full simulated stack.

use super::*;
use lc_core::node::NodeCmd;
use lc_core::testkit::{fast_config, World};
use lc_core::PlacementStrategy;
use lc_des::SimTime;
use lc_net::{HostCfg, HostId, Topology};
use std::rc::Rc;

const SPAWN_WAIT: SimTime = SimTime::from_millis(10);

#[test]
fn whiteboard_session_fans_strokes_to_all_participants() {
    // Fig. 2: the board on host 0; participants on hosts 1..4, each with
    // a local display their GUI part paints to.
    let mut world = World::on(
        Topology::lan(5),
        21,
        fast_config(),
        catalog(),
        |_| session_packages(),
    );
    world.run_for(SimTime::from_millis(10));
    let board = world.spawn(HostId(0), "Whiteboard", Some("board"), SPAWN_WAIT);
    let mut guis = Vec::new();
    for i in 1..5u32 {
        let display = world.spawn(HostId(i), "CscwDisplay", Some(&format!("disp{i}")), SPAWN_WAIT);
        let gui = world.spawn(HostId(i), "CscwGuiPart", Some(&format!("gui{i}")), SPAWN_WAIT);
        // Wire the GUI part to its local display…
        world.oneway(HostId(i), &gui, "_connect_display", vec![lc_orb::Value::ObjRef(display)]);
        // …and subscribe it to the board's strokes.
        world.cmd(
            HostId(i),
            NodeCmd::Subscribe {
                producer: board.key,
                port: "strokes".into(),
                consumer: gui.key,
                delivery_op: "_push_strokes".into(),
            },
        );
        guis.push((HostId(i), gui));
    }
    world.run_for(SimTime::from_millis(100));

    // The user draws 10 strokes.
    for k in 0..10 {
        world.oneway(HostId(0), &board, "user_stroke", vec![
                    lc_orb::Value::Long(k),
                    lc_orb::Value::Long(k),
                    lc_orb::Value::Long(k + 5),
                    lc_orb::Value::Long(k + 5),
                ]);
        world.run_for(SimTime::from_millis(30));
    }
    world.run_for(SimTime::from_millis(300));

    // Every participant saw every stroke, with LAN-scale latency, and
    // painted through its local display.
    for (host, gui) in &guis {
        let node = world.node(*host).unwrap();
        let gid = node.registry.named(&format!("gui{}", host.0)).unwrap().id;
        let servant: &GuiPartServant = node.servant_of(gid).unwrap();
        assert_eq!(servant.strokes_seen, 10, "participant on {host}");
        assert_eq!(servant.stroke_latency_ms.len(), 10);
        let mean: f64 =
            servant.stroke_latency_ms.iter().sum::<f64>() / servant.stroke_latency_ms.len() as f64;
        assert!(mean < 5.0, "LAN stroke latency should be ms-scale, got {mean}ms");
        let did = node.registry.named(&format!("disp{}", host.0)).unwrap().id;
        let display: &DisplayServant = node.servant_of(did).unwrap();
        assert_eq!(display.draws, 10);
        let _ = gui;
    }
}

#[test]
fn pda_thin_client_uses_remote_gui_with_local_display() {
    // R8: a PDA joins the session; its GUI part cannot run on the PDA
    // (QoS does not fit) so it runs on the server, using the PDA's
    // display remotely — "they can use all components remotely".
    let mut topo = Topology::new();
    let s = topo.add_site("office");
    let server = topo.add_host(HostCfg::new(s).server());
    let pda = topo.add_host(HostCfg::new(s).pda());
    let mut world = World::on(topo, 22, fast_config(), catalog(), |_| session_packages());
    world.run_for(SimTime::from_millis(10));

    // The PDA's display is local firmware.
    let pda_display = world.spawn(pda, "CscwDisplay", Some("pda-screen"), SPAWN_WAIT);
    // The GUI part must not be admitted on the PDA…
    let fail: lc_core::SpawnSink = Rc::default();
    world.cmd(
        pda,
        NodeCmd::SpawnLocal {
            component: "CscwGuiPart".into(),
            min_version: lc_pkg::Version::new(1, 0),
            instance_name: None,
            sink: fail.clone(),
        },
    );
    world.run_for(SimTime::from_millis(10));
    assert!(fail.borrow().clone().unwrap().is_err(), "PDA must not admit the GUI part");

    // …so it is spawned on the server and wired to the PDA's display.
    let gui = world.spawn(server, "CscwGuiPart", Some("pda-gui"), SPAWN_WAIT);
    world.oneway(server, &gui, "_connect_display", vec![lc_orb::Value::ObjRef(pda_display)]);
    let board = world.spawn(server, "Whiteboard", Some("board"), SPAWN_WAIT);
    world.cmd(
        server,
        NodeCmd::Subscribe {
            producer: board.key,
            port: "strokes".into(),
            consumer: gui.key,
            delivery_op: "_push_strokes".into(),
        },
    );
    world.run_for(SimTime::from_millis(100));

    for _ in 0..5 {
        world.oneway(server, &board, "user_stroke", vec![
                    lc_orb::Value::Long(0),
                    lc_orb::Value::Long(0),
                    lc_orb::Value::Long(1),
                    lc_orb::Value::Long(1),
                ]);
        world.run_for(SimTime::from_millis(100));
    }
    world.run_for(SimTime::from_millis(500));

    // The PDA's screen received the paints across the network.
    let node = world.node(pda).unwrap();
    let did = node.registry.named("pda-screen").unwrap().id;
    let screen: &DisplayServant = node.servant_of(did).unwrap();
    assert_eq!(screen.draws, 5, "PDA screen painted remotely");
}

#[test]
fn whiteboard_assembly_deploys_with_runtime_placement() {
    let mut world = World::on(
        Topology::lan(6),
        23,
        fast_config(),
        catalog(),
        |_| session_packages(),
    );
    world.run_for(SimTime::from_millis(800));
    let assembly = whiteboard_assembly(4);
    assembly.validate().unwrap();
    let sink: lc_core::AssemblySink = Rc::default();
    world.cmd(
        HostId(0),
        NodeCmd::StartAssembly {
            assembly,
            strategy: PlacementStrategy::RuntimeLoadAware,
            sink: sink.clone(),
        },
    );
    world.run_for(SimTime::from_millis(3000));
    let results = sink.borrow();
    assert_eq!(results.len(), 5);
    for (name, r) in results.iter() {
        assert!(r.is_ok(), "{name}: {r:?}");
    }
}

#[test]
fn video_decoder_paints_through_connected_display() {
    let mut world = World::on(
        Topology::lan(2),
        24,
        fast_config(),
        catalog(),
        |_| session_packages(),
    );
    // video package is not preinstalled; push it.
    world.cmd(HostId(1), NodeCmd::Install(video_decoder_package_sized(16)));
    world.run_for(SimTime::from_millis(50));
    let display = world.spawn(HostId(1), "CscwDisplay", Some("screen"), SPAWN_WAIT);
    let decoder = world.spawn(HostId(1), "VideoDecoder", Some("dec"), SPAWN_WAIT);
    world.oneway(HostId(1), &decoder, "_connect_display", vec![lc_orb::Value::ObjRef(display)]);
    world.run_for(SimTime::from_millis(50));
    // Stream 20 chunks of 2 KiB from host 0.
    for _ in 0..20 {
        world.oneway(
            HostId(0),
            &decoder,
            "push_chunk",
            vec![lc_orb::Value::blob(&vec![0xAB; 2048])],
        );
        world.run_for(SimTime::from_millis(40));
    }
    world.run_for(SimTime::from_millis(500));
    let node = world.node(HostId(1)).unwrap();
    let dec_id = node.registry.named("dec").unwrap().id;
    let dec: &VideoDecoderServant = node.servant_of(dec_id).unwrap();
    assert_eq!(dec.frames, 20);
    let scr_id = node.registry.named("screen").unwrap().id;
    let scr: &DisplayServant = node.servant_of(scr_id).unwrap();
    assert_eq!(scr.draws, 20);
    assert!(scr.pixels_drawn >= 20 * 16 * 1024 / 2, "decoded frames painted");
}

#[test]
fn assembly_descriptor_typechecks_against_cscw_idl() {
    let idl = cscw_idl();
    let mut descs = std::collections::BTreeMap::new();
    for pkg_bytes in [gui_package(), whiteboard_package(), display_package()] {
        let pkg = lc_pkg::Package::from_bytes(&pkg_bytes).unwrap();
        descs.insert(pkg.descriptor.name.clone(), pkg.descriptor);
    }
    whiteboard_assembly(3).typecheck(&descs, &idl).unwrap();
}
