//! Cross-crate integration tests: scenarios that span the CSCW and Grid
//! domain layers on one shared CORBA-LC network, plus whole-pipeline
//! determinism.

use corba_lc_repro::core::node::NodeCmd;
use corba_lc_repro::core::testkit::{fast_config, Catalog, World};
use corba_lc_repro::core::ComponentQuery;
use corba_lc_repro::cscw;
use corba_lc_repro::des::SimTime;
use corba_lc_repro::grid;
use corba_lc_repro::net::{HostCfg, HostId, Topology};
use corba_lc_repro::orb::Value;
use corba_lc_repro::pkg::Version;
use std::rc::Rc;
use std::sync::Arc;

/// The CSCW domain plus the grid vendor's behaviours and signature —
/// what a node needs to install both domains' packages. The IDL stays
/// CSCW-only: grid packages bring theirs along.
fn cscw_plus_grid_vendor() -> Catalog {
    let mut catalog = cscw::catalog();
    grid::register_grid_behaviors(&catalog.behaviors);
    catalog.trust.trust("grid-vendor", b"grid-secret");
    catalog
}

/// One network hosting BOTH domains: CSCW components and grid components
/// coexist on the same nodes, sharing the same registry, IDL repository
/// (merged) and cohesion protocol.
fn mixed_world(seed: u64) -> World {
    let mut catalog = cscw_plus_grid_vendor();
    let mut idl = cscw::cscw_idl();
    idl.merge(grid::grid_idl()).expect("disjoint modules merge");
    catalog.idl = Arc::new(idl);
    World::on(
        Topology::campus(2, 4),
        seed,
        fast_config(),
        catalog,
        |_| {
            vec![
                cscw::display_package(),
                cscw::whiteboard_package(),
                cscw::gui_package(),
                grid::worker_package(),
                grid::master_package(),
            ]
        },
    )
}

const SPAWN_WAIT: SimTime = SimTime::from_millis(20);

#[test]
fn cscw_and_grid_share_one_network() {
    let mut world = mixed_world(1);
    world.run_for(SimTime::from_millis(500));

    // Whiteboard on hosts 0-1.
    let board = world.spawn(HostId(0), "Whiteboard", Some("board"), SPAWN_WAIT);
    let display = world.spawn(HostId(1), "CscwDisplay", Some("screen"), SPAWN_WAIT);
    let gui = world.spawn(HostId(1), "CscwGuiPart", Some("gui"), SPAWN_WAIT);
    world.oneway(HostId(1), &gui, "_connect_display", vec![Value::ObjRef(display)]);
    world.cmd(
        HostId(1),
        NodeCmd::Subscribe {
            producer: board.key,
            port: "strokes".into(),
            consumer: gui.key,
            delivery_op: "_push_strokes".into(),
        },
    );

    // π job on hosts 4-7 (the other site) at the same time.
    let master = world.spawn(HostId(4), "PiMaster", Some("master"), SPAWN_WAIT);
    for h in [5u32, 6, 7] {
        let w = world.spawn(HostId(h), "PiWorker", Some(&format!("w{h}")), SPAWN_WAIT);
        world.oneway(HostId(4), &master, "add_worker", vec![Value::ObjRef(w)]);
    }
    world.run_for(SimTime::from_millis(100));
    world.oneway(HostId(4), &master, "start", vec![Value::ULongLong(6_000_000), Value::ULong(12)]);

    // Drive strokes while the job computes.
    for k in 0..10 {
        world.oneway(
            HostId(0),
            &board,
            "user_stroke",
            vec![Value::Long(k), Value::Long(k), Value::Long(k), Value::Long(k)],
        );
        world.run_for(SimTime::from_millis(60));
    }
    world.run_for(SimTime::from_millis(2000));

    // Both workloads completed on the shared substrate.
    let node1 = world.node(HostId(1)).unwrap();
    let gid = node1.registry.named("gui").unwrap().id;
    let gui_servant: &cscw::GuiPartServant = node1.servant_of(gid).unwrap();
    assert_eq!(gui_servant.strokes_seen, 10);

    let node4 = world.node(HostId(4)).unwrap();
    let mid = node4.registry.named("master").unwrap().id;
    let master_servant: &grid::PiMasterServant = node4.servant_of(mid).unwrap();
    assert!(master_servant.elapsed().is_some(), "π job finished");
    assert!((master_servant.pi_estimate() - std::f64::consts::PI).abs() < 0.1);
}

#[test]
fn queries_span_domains() {
    let mut world = mixed_world(2);
    world.run_for(SimTime::from_millis(800));
    // Any node can discover both CSCW and grid components by interface.
    for (iface, expect) in [
        ("IDL:cscw/Display:1.0", "CscwDisplay"),
        ("IDL:grid/Worker:1.0", "PiWorker"),
    ] {
        let sink = world.query(HostId(6), ComponentQuery::by_interface(iface), true);
        world.run_for(SimTime::from_millis(1500));
        let r = sink.borrow();
        assert!(
            r.offers.iter().any(|o| o.component == expect),
            "query for {iface}: {:?}",
            r.offers
        );
    }
}

#[test]
fn package_idl_merging_enables_new_types_at_runtime() {
    // A node that boots with only the CSCW IDL learns grid interfaces
    // when the grid package is installed (the package carries its IDL).
    let mut world = World::on(
        Topology::lan(2),
        3,
        fast_config(),
        cscw_plus_grid_vendor(), // no grid IDL at boot
        |_| Vec::new(),
    );
    world.run_for(SimTime::from_millis(50));
    world.cmd(HostId(0), NodeCmd::Install(grid::worker_package()));
    world.run_for(SimTime::from_millis(50));
    let worker = world.spawn(HostId(0), "PiWorker", Some("w"), SPAWN_WAIT);
    // Typed invocation against the *runtime-learned* interface works.
    let sink = world.invoke(
        HostId(1),
        &worker,
        "compute",
        vec![Value::ULongLong(1), Value::ULongLong(10_000)],
    );
    world.run_for(SimTime::from_millis(3000));
    let replies = sink.borrow();
    assert_eq!(replies.len(), 1);
    let hits = replies[0].1.as_ref().unwrap().ret.as_u64().unwrap();
    assert!(hits > 6000 && hits < 9000, "plausible π hits: {hits}");
}

#[test]
fn heterogeneous_devices_coexist() {
    // Server + workstation + PDA in one fabric; capability-aware
    // placement keeps the PDA as a thin client.
    let mut topo = Topology::new();
    let s = topo.add_site("s");
    let server = topo.add_host(HostCfg::new(s).server());
    let _ws = topo.add_host(HostCfg::new(s));
    let pda = topo.add_host(HostCfg::new(s).pda());
    let mut world = World::on(
        topo,
        4,
        fast_config(),
        cscw::catalog(),
        |_| vec![cscw::display_package(), cscw::gui_package()],
    );
    world.run_for(SimTime::from_millis(50));
    // The PDA can host its (tiny) display but not the GUI part.
    let _screen = world.spawn(pda, "CscwDisplay", Some("screen"), SPAWN_WAIT);
    let fail: corba_lc_repro::core::SpawnSink = Rc::default();
    world.cmd(
        pda,
        NodeCmd::SpawnLocal {
            component: "CscwGuiPart".into(),
            min_version: Version::new(1, 0),
            instance_name: None,
            sink: fail.clone(),
        },
    );
    world.run_for(SimTime::from_millis(20));
    assert!(fail.borrow().clone().unwrap().is_err());
    // The server hosts it fine.
    let _gui = world.spawn(server, "CscwGuiPart", Some("gui"), SPAWN_WAIT);
}

#[test]
fn whole_system_is_deterministic() {
    fn fingerprint(seed: u64) -> (u64, u64, u64) {
        let mut world = mixed_world(seed);
        world.run_for(SimTime::from_millis(300));
        let board = world.spawn(HostId(0), "Whiteboard", Some("b"), SPAWN_WAIT);
        for _ in 0..5 {
            world.oneway(
                HostId(3),
                &board,
                "user_stroke",
                vec![Value::Long(1), Value::Long(2), Value::Long(3), Value::Long(4)],
            );
            world.run_for(SimTime::from_millis(40));
        }
        world.run_for(SimTime::from_millis(2000));
        (
            world.sim.events_fired(),
            world.sim.metrics_ref().counter("net.bytes"),
            world.sim.metrics_ref().counter("net.msgs"),
        )
    }
    // Same seed → bit-identical history. (This scenario consumes no
    // randomness, so different seeds also agree — determinism across
    // seeds is exercised by the churn-driven experiments instead.)
    assert_eq!(fingerprint(77), fingerprint(77));
}
