//! End-to-end tests of the CORBA-LC runtime on a simulated network:
//! installation propagation, distributed queries, dependency resolution,
//! events, migration, assembly deployment, crashes and MRM failover.

use lc_core::demo;
use lc_core::node::resource_svc::OVERLOAD_THRESHOLD;
use lc_core::node::{
    AdmissionConfig, InvokePolicy, Node, NodeCmd, QuerySink, RegistryConfig, ResolveCmd,
};
use lc_core::testkit::{fast_cohesion, fast_config, World};
use lc_core::{
    AssemblyDescriptor, CacheConfig, ComponentQuery, InstanceId, NodeConfig,
    PlacementStrategy, Registry, ShardConfig, ShardRing, ShardStore,
};
use lc_des::SimTime;
use lc_net::{FaultPlan, HostCfg, HostId, LinkFaults, Net, Topology};
use lc_orb::Value;
use lc_pkg::Version;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Host 0 has Counter+Display+Gui+Watcher installed and everyone else
/// is empty; `config` sits on top of the fast test timers.
fn host0_world(net: impl Into<Net>, seed: u64, config: NodeConfig) -> World {
    World::on(
        net,
        seed,
        NodeConfig {
            cohesion: fast_cohesion(),
            query_timeout: SimTime::from_millis(400),
            ..config
        },
        demo::catalog(),
        |host| {
            if host == HostId(0) {
                vec![
                    demo::counter_package(),
                    demo::display_package(),
                    demo::gui_package(),
                    demo::watcher_package(),
                ]
            } else {
                Vec::new()
            }
        },
    )
}

/// The config most tests run [`host0_world`] under: signatures required.
fn signed() -> NodeConfig {
    NodeConfig { require_signature: true, ..Default::default() }
}

/// Nothing is left pending on any node: every continuation the scenario
/// parked (query, spawn, call, fetch, migration) was resumed or swept.
fn assert_drained(world: &World) {
    for host in world.net.host_ids() {
        let depth = world.node(host).map_or(0, |node| node.continuation_depth());
        assert_eq!(depth, 0, "{host:?} still holds {depth} continuation(s)");
    }
}

#[test]
fn installation_reflected_in_repository() {
    let mut world = host0_world(Topology::lan(4), 1, signed());
    world.run_for(SimTime::from_millis(10));
    let node0 = world.node(HostId(0)).unwrap();
    assert_eq!(node0.repository.len(), 4);
    let node1 = world.node(HostId(1)).unwrap();
    assert!(node1.repository.is_empty());
}

#[test]
fn unsigned_package_rejected_by_acceptor() {
    let mut world = host0_world(Topology::lan(2), 1, signed());
    // Hand-roll an unsigned package.
    let desc = lc_pkg::ComponentDescriptor::new("Rogue", Version::new(1, 0), "nobody");
    let pkg = lc_pkg::Package::new(desc).with_binary(
        lc_pkg::Platform::reference(),
        "demo_counter",
        b"x",
    );
    world.cmd(HostId(1), NodeCmd::Install(Rc::new(pkg.to_bytes())));
    world.run_for(SimTime::from_millis(10));
    assert!(world.node(HostId(1)).unwrap().repository.is_empty());
    assert_eq!(world.sim.metrics_ref().counter("acceptor.rejected"), 1);
}

/// A signed package whose IDL does not compile is refused, and leaves
/// nothing installed behind it: the acceptor merges a fresh install's IDL
/// before it counts the install, and undoes the install when the merge
/// fails.
#[test]
fn a_package_whose_idl_fails_leaves_nothing_installed() {
    let mut world = host0_world(Topology::lan(2), 1, signed());
    let desc = lc_pkg::ComponentDescriptor::new("Broken", Version::new(1, 0), "demo-vendor");
    let mut pkg = lc_pkg::Package::new(desc)
        .with_idl("broken.idl", "interface Broken { void f( };")
        .with_binary(lc_pkg::Platform::reference(), "demo_counter", b"x");
    pkg.seal(&demo::demo_key());
    world.cmd(HostId(1), NodeCmd::Install(Rc::new(pkg.to_bytes())));
    world.run_for(SimTime::from_millis(10));
    assert!(world.node(HostId(1)).unwrap().repository.is_empty());
    assert_eq!(world.sim.metrics_ref().counter("acceptor.rejected"), 1);
}

#[test]
fn distributed_query_finds_remote_component() {
    let mut world = host0_world(Topology::lan(8), 2, signed());
    // Let two keep-alive rounds run so the MRM learns node 0's inventory.
    world.run_for(SimTime::from_millis(600));
    let sink = world.query(
        HostId(5),
        ComponentQuery::by_name("Display", Version::new(2, 0)),
        false,
    );
    world.run_for(SimTime::from_millis(1000));
    let res = sink.borrow();
    assert!(res.done);
    assert_eq!(res.offers.len(), 1);
    assert_eq!(res.offers[0].node, HostId(0));
    assert_eq!(res.offers[0].component, "Display");
    assert!(res.first_offer_at.is_some());
}

#[test]
fn query_by_interface_floods_and_finds() {
    let mut world = host0_world(Topology::lan(8), 3, signed());
    world.run_for(SimTime::from_millis(600));
    let sink = world.query(HostId(3), ComponentQuery::by_interface("IDL:demo/Display:1.0"), false);
    world.run_for(SimTime::from_millis(1000));
    let res = sink.borrow();
    assert!(res.done);
    assert_eq!(res.offers.len(), 1);
    assert_eq!(res.offers[0].component, "Display");
}

#[test]
fn query_miss_terminates() {
    let mut world = host0_world(Topology::lan(8), 4, signed());
    world.run_for(SimTime::from_millis(600));
    let sink = world.query(
        HostId(2),
        ComponentQuery::by_name("DoesNotExist", Version::new(1, 0)),
        false,
    );
    world.run_for(SimTime::from_millis(1000));
    let res = sink.borrow();
    assert!(res.done);
    assert!(res.offers.is_empty());
    // Every branch of the search dead-ends, and the last MRM says so:
    // the miss is final on its empty `Offers { done }`, a few LAN hops
    // in — not at the 400 ms query deadline.
    let took = res.done_at.expect("finalized") - res.started;
    assert!(took < SimTime::from_millis(40), "miss took {took:?}");
    assert_eq!(world.sim.metrics_ref().counter("query.timeouts"), 0);
}

#[test]
fn spawn_local_and_invoke_across_network() {
    let mut world = host0_world(Topology::lan(4), 5, signed());
    world.run_for(SimTime::from_millis(10));
    // Spawn a counter on node 0.
    let counter_ref = world.spawn(HostId(0), "Counter", Some("c0"), SimTime::from_millis(10));

    // Invoke from node 3: two incs and a read.
    for _ in 0..2 {
        world.oneway(HostId(3), &counter_ref, "inc", vec![Value::Long(21)]);
    }
    world.run_for(SimTime::from_millis(50));
    let invoke = world.invoke(HostId(3), &counter_ref, "value", vec![]);
    world.run_for(SimTime::from_millis(50));
    let replies = invoke.borrow();
    assert_eq!(replies.len(), 1);
    assert_eq!(replies[0].1.as_ref().unwrap().ret, Value::Long(42));
}

#[test]
fn resolve_uses_port_fetches_locally_for_heavy_traffic() {
    let mut world = host0_world(Topology::lan(8), 7, signed());
    world.run_for(SimTime::from_millis(600));
    // A GUI part on node 4 (push the package there first).
    world.cmd(HostId(4), NodeCmd::Install(demo::gui_package()));
    world.run_for(SimTime::from_millis(10));
    let gui_ref = world.spawn(HostId(4), "GuiPart", Some("gui"), SimTime::from_millis(10));
    let gui_instance = world
        .node(HostId(4))
        .unwrap()
        .registry
        .named("gui")
        .unwrap()
        .id;

    // Resolve its display dependency expecting a heavy stream → the
    // planner should fetch Display from node 0 and run it locally.
    let provider: lc_core::SpawnSink = Rc::default();
    world.cmd(
        HostId(4),
        NodeCmd::Resolve(Box::new(ResolveCmd {
            instance: gui_instance,
            port: "display".into(),
            query: ComponentQuery::by_name("Display", Version::new(2, 0)),
            expected_traffic: 1_000_000_000,
            sink: Some(provider.clone()),
        })),
    );
    world.run_for(SimTime::from_millis(2000));
    let display_ref = provider.borrow().clone().unwrap().unwrap();
    assert_eq!(display_ref.key.host, HostId(4), "display should run locally");
    // Display package got installed on node 4 by the fetch.
    assert!(world
        .node(HostId(4))
        .unwrap()
        .repository
        .get("Display", Version::new(2, 0))
        .is_some());
    assert_eq!(world.sim.metrics_ref().counter("resolve.fetch_local"), 1);
    assert_eq!(world.sim.metrics_ref().counter("fetch.served"), 1);

    // Render through the connected port: the local display draws.
    world.oneway(HostId(4), &gui_ref, "render", vec![Value::string("hello")]);
    world.run_for(SimTime::from_millis(100));
    let node4 = world.node(HostId(4)).unwrap();
    let display_inst = node4.registry.instances_of("Display").next().unwrap();
    let _ = display_inst;
    assert_drained(&world);
}

#[test]
fn resolve_uses_existing_remote_instance_for_light_traffic() {
    let mut world = host0_world(Topology::lan(8), 8, signed());
    world.run_for(SimTime::from_millis(600));
    // A Display instance already runs on node 0.
    let dspawn: lc_core::SpawnSink = Rc::default();
    world.cmd(
        HostId(0),
        NodeCmd::SpawnLocal {
            component: "Display".into(),
            min_version: Version::new(2, 0),
            instance_name: Some("d0".into()),
            sink: dspawn.clone(),
        },
    );
    // A GUI on node 5.
    world.cmd(HostId(5), NodeCmd::Install(demo::gui_package()));
    world.run_for(SimTime::from_millis(300));
    let gspawn: lc_core::SpawnSink = Rc::default();
    world.cmd(
        HostId(5),
        NodeCmd::SpawnLocal {
            component: "GuiPart".into(),
            min_version: Version::new(1, 0),
            instance_name: Some("gui".into()),
            sink: gspawn.clone(),
        },
    );
    world.run_for(SimTime::from_millis(300));
    let gui_instance = world.node(HostId(5)).unwrap().registry.named("gui").unwrap().id;

    let provider: lc_core::SpawnSink = Rc::default();
    world.cmd(
        HostId(5),
        NodeCmd::Resolve(Box::new(ResolveCmd {
            instance: gui_instance,
            port: "display".into(),
            query: ComponentQuery::by_name("Display", Version::new(2, 0)),
            expected_traffic: 1_000,
            sink: Some(provider.clone()),
        })),
    );
    world.run_for(SimTime::from_millis(2000));
    let display_ref = provider.borrow().clone().unwrap().unwrap();
    assert_eq!(display_ref.key.host, HostId(0), "light traffic connects to the existing one");
    assert_eq!(world.sim.metrics_ref().counter("resolve.fetch_local"), 0);
    assert_drained(&world);
}

/// Spawn a GUI part on `host` and resolve its display port for
/// `expected_traffic` bytes; the host the planner put the display on.
fn resolve_display(world: &mut World, host: HostId, expected_traffic: u64) -> HostId {
    world.cmd(host, NodeCmd::Install(demo::gui_package()));
    world.run_for(SimTime::from_millis(300));
    world.spawn(host, "GuiPart", Some("gui"), SimTime::from_millis(300));
    let instance = world.node(host).unwrap().registry.named("gui").unwrap().id;
    let provider: lc_core::SpawnSink = Rc::default();
    world.cmd(
        host,
        NodeCmd::Resolve(Box::new(ResolveCmd {
            instance,
            port: "display".into(),
            query: ComponentQuery::by_name("Display", Version::new(2, 0)),
            expected_traffic,
            sink: Some(provider.clone()),
        })),
    );
    world.run_for(SimTime::from_millis(2000));
    let display = provider.borrow().clone().unwrap().unwrap();
    display.key.host
}

#[test]
fn a_pda_resolving_heavy_traffic_spawns_the_provider_remotely() {
    // Display ships only a workstation binary: a PDA that fetched it
    // could not run it. The planner reads the resolving node's device
    // class and spawns the display where the package is (R8).
    let mut topo = Topology::new();
    let lan = topo.add_site("lan");
    for _ in 0..4 {
        topo.add_host(HostCfg::new(lan));
    }
    let pda = topo.add_host(HostCfg::new(lan).pda());
    let mut world = host0_world(topo, 11, signed());
    world.run_for(SimTime::from_millis(600));
    assert_eq!(resolve_display(&mut world, pda, 1_000_000_000), HostId(0));
    let metrics = world.sim.metrics_ref();
    assert_eq!(metrics.counter("resolve.spawn_remote"), 1);
    assert_eq!(metrics.counter("resolve.fetch_local"), 0);
    assert_drained(&world);
}

#[test]
fn a_slow_downlink_spawns_remotely_where_the_reference_link_fetches() {
    // The same 10 MB stream against Display's 64 KiB binary: a
    // workstation on the reference 100 Mbit/s link fetches it in
    // milliseconds, one on a 128 kbit/s downlink would wait seconds, so
    // it uses the provider remotely.
    let mut topo = Topology::new();
    let lan = topo.add_site("lan");
    for _ in 0..4 {
        topo.add_host(HostCfg::new(lan));
    }
    let slow = topo.add_host(HostCfg::new(lan).bw(12_500_000.0, 16_000.0));
    let reference = topo.add_host(HostCfg::new(lan));
    let mut world = host0_world(topo, 12, signed());
    world.run_for(SimTime::from_millis(600));
    assert_eq!(resolve_display(&mut world, slow, 10_000_000), HostId(0));
    assert_eq!(world.sim.metrics_ref().counter("resolve.spawn_remote"), 1);
    assert_eq!(world.sim.metrics_ref().counter("resolve.fetch_local"), 0);
    assert_eq!(resolve_display(&mut world, reference, 10_000_000), reference);
    assert_eq!(world.sim.metrics_ref().counter("resolve.fetch_local"), 1);
    assert_drained(&world);
}

/// One node waits on two peers at once: a resolve's provider spawned
/// remotely and a migration, both answered by a `SpawnDone` into the
/// node's one table of instances it waits for. The fabric duplicates
/// every answer, so each `rid` is answered twice. Each sink gets its own
/// result, the second answer for a finished `rid` changes nothing, and
/// the table drains.
#[test]
fn a_remote_spawn_and_a_migration_wait_side_by_side() {
    let mut topo = Topology::new();
    let lan = topo.add_site("lan");
    for _ in 0..4 {
        topo.add_host(HostCfg::new(lan));
    }
    // A slow downlink makes the resolve spawn its provider remotely.
    let origin = topo.add_host(HostCfg::new(lan).bw(12_500_000.0, 16_000.0));
    let (provider_host, destination) = (HostId(0), HostId(2));
    let twice = LinkFaults::none().dup_p(1.0);
    let plan = FaultPlan::seeded(13)
        .link(provider_host, origin, twice)
        .link(destination, origin, twice);
    let mut world = host0_world(Net::builder(topo).fault_plan(plan).build(), 13, signed());
    world.run_for(SimTime::from_millis(600));
    world.cmd(origin, NodeCmd::Install(demo::gui_package()));
    world.cmd(origin, NodeCmd::Install(demo::counter_package()));
    world.run_for(SimTime::from_millis(300));
    world.spawn(origin, "GuiPart", Some("gui"), SimTime::from_millis(300));
    let counter = world.spawn(origin, "Counter", Some("c"), SimTime::from_millis(10));
    let node = world.node(origin).unwrap();
    let gui = node.registry.named("gui").unwrap().id;
    let moving = node.registry.named("c").unwrap().id;

    let provider: lc_core::SpawnSink = Rc::default();
    world.cmd(
        origin,
        NodeCmd::Resolve(Box::new(ResolveCmd {
            instance: gui,
            port: "display".into(),
            query: ComponentQuery::by_name("Display", Version::new(2, 0)),
            expected_traffic: 10_000_000,
            sink: Some(provider.clone()),
        })),
    );
    // Step until the provider's spawn is asked for, then migrate: the
    // spawn's answer is still on the slow downlink.
    let step = SimTime::from_micros(100);
    for _ in 0..20_000 {
        if world.sim.metrics_ref().counter("resolve.spawn_remote") == 1 {
            break;
        }
        world.run_for(step);
    }
    assert_eq!(world.sim.metrics_ref().counter("resolve.spawn_remote"), 1);
    let moved: lc_core::SpawnSink = Rc::default();
    let migrate = NodeCmd::Migrate { instance: moving, to: destination, sink: Some(moved.clone()) };
    world.cmd(origin, migrate);
    world.run_for(step);
    let waiting = lc_core::reflect::render(world.node(origin).unwrap());
    assert!(
        waiting.contains("pending spawns/calls/migrations: 1/0/1"),
        "both wait at once:\n{waiting}"
    );
    assert!(provider.borrow().is_none() && moved.borrow().is_none());

    world.run_for(SimTime::from_millis(3000));
    let display = provider.borrow().clone().unwrap().unwrap();
    let counter_now = moved.borrow().clone().unwrap().unwrap();
    assert_eq!(display.key.host, provider_host, "the spawn's sink holds the spawned provider");
    assert_eq!(counter_now.key.host, destination, "the migration's sink holds the moved instance");
    let metrics = world.sim.metrics_ref();
    assert!(metrics.counter("net.fault.duplicated") >= 2, "both answers were duplicated");
    assert_eq!(metrics.counter("resolve.connected"), 1);
    assert_eq!(metrics.counter("migrate.completed"), 1);
    assert_eq!(metrics.counter("migrate.failed"), 0);
    let node = world.node(origin).unwrap();
    assert_eq!(node.registry.connections().len(), 1, "the port was wired once");
    assert_eq!(node.forward_target(counter.key.oid), Some(&counter_now));
    assert_eq!(node.forward_count(), 1);
    assert!(node.registry.named("c").is_none(), "the moved instance left");
    let drained = lc_core::reflect::render(node);
    assert!(drained.contains("pending spawns/calls/migrations: 0/0/0"), "{drained}");
    assert_drained(&world);
}

/// A request the fabric delivers twice makes one instance. Every message
/// between the origin and each of two peers is duplicated: a resolve
/// spawns its provider remotely on the one, and a migration goes to the
/// other, which lacks the package and fetches it from the origin first
/// (both copies of the request wait on one fetch). Each peer ends with
/// one instance and one QoS reservation, and the origin's sink holds
/// that instance's reference.
#[test]
fn a_duplicated_instance_request_makes_one_instance() {
    let mut topo = Topology::new();
    let lan = topo.add_site("lan");
    for _ in 0..4 {
        topo.add_host(HostCfg::new(lan));
    }
    // A slow downlink makes the resolve spawn its provider remotely.
    let origin = topo.add_host(HostCfg::new(lan).bw(12_500_000.0, 16_000.0));
    let (provider_host, destination) = (HostId(0), HostId(2));
    let twice = LinkFaults::none().dup_p(1.0);
    let mut plan = FaultPlan::seeded(14);
    for peer in [provider_host, destination] {
        plan = plan.link(origin, peer, twice).link(peer, origin, twice);
    }
    let mut world = host0_world(Net::builder(topo).fault_plan(plan).build(), 14, signed());
    world.run_for(SimTime::from_millis(600));
    world.cmd(origin, NodeCmd::Install(demo::gui_package()));
    world.cmd(origin, NodeCmd::Install(demo::counter_package()));
    world.run_for(SimTime::from_millis(300));
    world.spawn(origin, "GuiPart", Some("gui"), SimTime::from_millis(300));
    world.spawn(origin, "Counter", Some("c"), SimTime::from_millis(10));
    let node = world.node(origin).unwrap();
    let gui = node.registry.named("gui").unwrap().id;
    let moving = node.registry.named("c").unwrap().id;
    assert!(world.node(destination).unwrap().repository.is_empty());

    let provider: lc_core::SpawnSink = Rc::default();
    world.cmd(
        origin,
        NodeCmd::Resolve(Box::new(ResolveCmd {
            instance: gui,
            port: "display".into(),
            query: ComponentQuery::by_name("Display", Version::new(2, 0)),
            expected_traffic: 10_000_000,
            sink: Some(provider.clone()),
        })),
    );
    world.run_for(SimTime::from_millis(3000));
    let moved: lc_core::SpawnSink = Rc::default();
    let migrate = NodeCmd::Migrate { instance: moving, to: destination, sink: Some(moved.clone()) };
    world.cmd(origin, migrate);
    world.run_for(SimTime::from_millis(3000));

    let metrics = world.sim.metrics_ref();
    assert_eq!(metrics.counter("resolve.spawn_remote"), 1);
    assert_eq!(metrics.counter("migrate.completed"), 1);
    // The second copy of the request joins the first one's fetch: one
    // `Fetch`, which the fabric delivers twice.
    assert_eq!(metrics.counter("fetch.served"), 2, "the destination fetched the package once");
    assert!(metrics.counter("net.fault.duplicated") >= 4, "requests and answers were duplicated");
    let asked = [(provider_host, "Display", provider), (destination, "Counter", moved)];
    for (peer, component, sink) in asked {
        let node = world.node(peer).unwrap();
        let made: Vec<_> = node.registry.instances_of(component).collect();
        assert_eq!(made.len(), 1, "{peer:?}: one {component} for one request");
        let reserved = node.resources.dynamic();
        let qos = node.repository.get(component, made[0].version).unwrap().descriptor.qos;
        assert_eq!((reserved.instances, reserved.mem_used), (1, qos.memory), "{peer:?}");
        assert_eq!(sink.borrow().clone().unwrap(), Ok(made[0].objref.clone()), "{peer:?}");
    }
    assert_drained(&world);
}

#[test]
fn events_fan_out_across_nodes() {
    let mut world = host0_world(Topology::lan(4), 9, signed());
    world.run_for(SimTime::from_millis(10));
    // Producer GUI on node 0, watcher on node 2.
    let gspawn: lc_core::SpawnSink = Rc::default();
    world.cmd(
        HostId(0),
        NodeCmd::SpawnLocal {
            component: "GuiPart".into(),
            min_version: Version::new(1, 0),
            instance_name: Some("gui".into()),
            sink: gspawn.clone(),
        },
    );
    world.cmd(HostId(2), NodeCmd::Install(demo::watcher_package()));
    world.run_for(SimTime::from_millis(20));
    let wspawn: lc_core::SpawnSink = Rc::default();
    world.cmd(
        HostId(2),
        NodeCmd::SpawnLocal {
            component: "Watcher".into(),
            min_version: Version::new(1, 0),
            instance_name: Some("w".into()),
            sink: wspawn.clone(),
        },
    );
    world.run_for(SimTime::from_millis(20));
    let gui_ref = gspawn.borrow().clone().unwrap().unwrap();
    let watcher_ref = wspawn.borrow().clone().unwrap().unwrap();

    // Subscribe the watcher to the GUI's rendered events.
    world.cmd(
        HostId(2),
        NodeCmd::Subscribe {
            producer: gui_ref.key,
            port: "rendered".into(),
            consumer: watcher_ref.key,
            delivery_op: "_push_rendered".into(),
        },
    );
    world.run_for(SimTime::from_millis(50));

    // Render 3 times.
    for i in 0..3 {
        world.oneway(HostId(1), &gui_ref, "render", vec![Value::string(&format!("frame{i}"))]);
    }
    world.run_for(SimTime::from_millis(200));
    assert_eq!(world.sim.metrics_ref().counter("events.published"), 3);
    // The watcher saw them all.
    let value = world.invoke(HostId(1), &watcher_ref, "value", vec![]);
    world.run_for(SimTime::from_millis(100));
    assert_eq!(value.borrow()[0].1.as_ref().unwrap().ret, Value::Long(3));
}

#[test]
fn migration_preserves_state_and_forwards_requests() {
    let mut world = host0_world(Topology::lan(4), 10, signed());
    world.run_for(SimTime::from_millis(10));
    let old_ref = world.spawn(HostId(0), "Counter", Some("c"), SimTime::from_millis(10));
    // Count to 5.
    for _ in 0..5 {
        world.oneway(HostId(3), &old_ref, "inc", vec![Value::Long(1)]);
    }
    world.run_for(SimTime::from_millis(100));

    // Migrate to node 2 (which lacks the package → auto-fetch).
    let instance = world.node(HostId(0)).unwrap().registry.named("c").unwrap().id;
    let msink: lc_core::SpawnSink = Rc::default();
    world.cmd(HostId(0), NodeCmd::Migrate { instance, to: HostId(2), sink: Some(msink.clone()) });
    world.run_for(SimTime::from_millis(2000));
    let new_ref = msink.borrow().clone().unwrap().unwrap();
    assert_eq!(new_ref.key.host, HostId(2));
    assert_eq!(world.sim.metrics_ref().counter("migrate.completed"), 1);
    assert_eq!(world.node(HostId(0)).unwrap().registry.instance_count(), 0);
    assert_eq!(world.node(HostId(2)).unwrap().registry.instance_count(), 1);

    // A caller still holding the OLD reference gets forwarded.
    let value = world.invoke(HostId(3), &old_ref, "value", vec![]);
    world.run_for(SimTime::from_millis(200));
    let replies = value.borrow();
    assert_eq!(replies.len(), 1, "forwarded request must be answered");
    assert_eq!(
        replies[0].1.as_ref().unwrap().ret,
        Value::Long(5),
        "state travelled with the instance"
    );
    assert!(world.sim.metrics_ref().counter("migrate.forwarded_requests") >= 1);
    assert_drained(&world);
}

/// A request runs, its reply is lost, and the instance migrates with
/// state that already holds the request's effect: the caller's retry is
/// answered from the old node's record of the run, not forwarded to run
/// a second time at the destination.
#[test]
fn a_retry_after_a_migration_is_answered_by_the_first_run() {
    let ms = SimTime::from_millis;
    // Host 0 is cut off from 100 us after the call is sent until its
    // reply has been lost, and long before the caller retries.
    let sent = ms(1000);
    let cut = FaultPlan::seeded(15).partition(sent + SimTime::from_micros(100), sent + ms(10), &[
        HostId(0),
    ]);
    let config = NodeConfig { invoke: InvokePolicy::standard(), ..signed() };
    let mut world = host0_world(Net::builder(Topology::lan(4)).fault_plan(cut).build(), 15, config);
    world.run_for(ms(10));
    let old_ref = world.spawn(HostId(0), "Counter", Some("c"), ms(10));
    world.sim.run_until(sent);
    let call = world.invoke(HostId(1), &old_ref, "inc", vec![Value::Long(1)]);
    world.sim.run_until(sent + ms(20));
    let instance = world.node(HostId(0)).unwrap().registry.named("c").unwrap().id;
    let counter = world.node(HostId(0)).unwrap().servant_of::<demo::CounterImpl>(instance);
    assert_eq!(counter.map(|c| c.count), Some(1), "the call ran");
    assert!(call.borrow().is_empty(), "its reply was lost");

    let moved: lc_core::SpawnSink = Rc::default();
    world.cmd(HostId(0), NodeCmd::Migrate { instance, to: HostId(2), sink: Some(moved.clone()) });
    // The first attempt's deadline passes at 250 ms, its retry is sent
    // 50 ms later.
    world.sim.run_until(sent + ms(250));
    let new_ref = moved.borrow().clone().unwrap().unwrap();
    assert_eq!(world.sim.metrics_ref().counter("orb.retries"), 0, "moved before the retry");
    world.run_for(ms(2000));

    let node = world.node(HostId(2)).unwrap();
    let counter = node.servant_of::<demo::CounterImpl>(InstanceId(new_ref.key.oid)).unwrap();
    assert_eq!(counter.count, 1, "the migrated state holds the one increment, run once");
    let metrics = world.sim.metrics_ref();
    assert_eq!(metrics.counter("orb.retries"), 1);
    assert_eq!(metrics.counter("orb.dedup_hits"), 1, "the retry was answered by the record");
    assert_eq!(metrics.counter("migrate.forwarded_requests"), 0);
    assert_eq!(call.borrow().len(), 1);
    assert!(call.borrow()[0].1.is_ok());
    assert_drained(&world);
}

/// The same migration, traced: once the world has drained no span is
/// left open — `container.migrate` (ended by the destination's
/// `SpawnDone`) and the handler, fetch and call spans under it included.
#[test]
fn traced_migration_leaves_no_span_open() {
    let tracer = lc_trace::Tracer::new();
    let net = Net::builder(Topology::lan(4)).tracer(tracer.clone()).build();
    let mut world = host0_world(net, 10, signed());
    world.run_for(SimTime::from_millis(10));
    let old_ref = world.spawn(HostId(0), "Counter", Some("c"), SimTime::from_millis(10));
    let instance = world.node(HostId(0)).unwrap().registry.named("c").unwrap().id;
    let msink: lc_core::SpawnSink = Rc::default();
    world.cmd(HostId(0), NodeCmd::Migrate { instance, to: HostId(2), sink: Some(msink.clone()) });
    world.run_for(SimTime::from_millis(2000));
    assert!(matches!(*msink.borrow(), Some(Ok(_))));
    let value = world.invoke(HostId(3), &old_ref, "value", vec![]);
    world.run_for(SimTime::from_millis(200));
    assert_eq!(value.borrow().len(), 1);

    let spans = tracer.spans();
    lc_trace::validate(&spans).expect("trace trees well-formed");
    assert!(spans.iter().any(|s| s.name == "container.migrate"));
    let open = lc_trace::open_spans(&spans);
    assert!(open.is_empty(), "spans never ended: {open:?}");
    assert_drained(&world);
}

#[test]
fn assembly_deploys_and_wires_across_nodes() {
    // Node 0 is the leaf MRM (it sees everyone's reports) and holds all
    // packages; the assembly spreads instances by load.
    let mut world = host0_world(Topology::lan(6), 11, signed());
    world.run_for(SimTime::from_millis(800)); // let reports accumulate

    let assembly = AssemblyDescriptor::new("demo-app")
        .instance("gui", "GuiPart", Version::new(1, 0))
        .instance("screen", "Display", Version::new(2, 0))
        .instance("watch", "Watcher", Version::new(1, 0))
        .connect("gui", "display", "screen", "graphics")
        .subscribe("watch", "events_in", "gui", "rendered");

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

    let results: BTreeMap<String, _> = sink.borrow().clone();
    assert_eq!(results.len(), 3);
    for (name, r) in &results {
        assert!(r.is_ok(), "instance '{name}' failed: {r:?}");
    }
    assert_eq!(world.sim.metrics_ref().counter("assembly.wired"), 1);

    // Drive the GUI and check the event reached the watcher.
    let gui_ref = results["gui"].clone().unwrap();
    let watch_ref = results["watch"].clone().unwrap();
    world.oneway(HostId(5), &gui_ref, "render", vec![Value::string("x")]);
    world.run_for(SimTime::from_millis(300));
    let value = world.invoke(HostId(5), &watch_ref, "value", vec![]);
    world.run_for(SimTime::from_millis(300));
    assert_eq!(value.borrow()[0].1.as_ref().unwrap().ret, Value::Long(1));
}

#[test]
fn crashed_node_is_evicted_then_rejoins() {
    let mut world = host0_world(Topology::lan(8), 12, signed());
    world.run_for(SimTime::from_millis(800));
    // Node 0's inventory is known; crash it.
    world.crash(HostId(0));
    // After > timeout (3 * 200ms) the MRM evicts it. Node 1 is the
    // surviving replica MRM of the leaf group.
    world.run_for(SimTime::from_millis(1500));
    assert!(world.sim.metrics_ref().counter("cohesion.evictions") >= 1);

    // Query for Display now misses (only node 0 had it).
    let sink = world.query(
        HostId(5),
        ComponentQuery::by_name("Display", Version::new(2, 0)),
        false,
    );
    world.run_for(SimTime::from_millis(1000));
    assert!(sink.borrow().done);
    assert!(sink.borrow().offers.is_empty(), "dead node must not be offered");

    // Recover: installed packages persist; reports resume; queries hit.
    world.recover(HostId(0));
    world.run_for(SimTime::from_millis(1500));
    let sink2 = world.query(
        HostId(5),
        ComponentQuery::by_name("Display", Version::new(2, 0)),
        false,
    );
    world.run_for(SimTime::from_millis(1000));
    assert_eq!(sink2.borrow().offers.len(), 1, "reconnected node is rediscovered");
}

#[test]
fn queries_survive_primary_mrm_crash_via_replica() {
    // 16 nodes, fanout 8 → two leaf groups; node 8 and 9 are the MRMs of
    // group 1. Install something on node 10, then crash node 8 (primary).
    let config = NodeConfig {
        cohesion: fast_cohesion(),
        query_timeout: SimTime::from_millis(400),
        require_signature: false,
        ..Default::default()
    };
    let mut world = World::on(
        Topology::lan(16),
        13,
        config,
        demo::catalog(),
        |host| if host == HostId(10) { vec![demo::counter_package()] } else { Vec::new() },
    );
    world.run_for(SimTime::from_millis(800));
    world.crash(HostId(8));
    world.run_for(SimTime::from_millis(1500));

    // Origin in group 1 must still find the Counter via replica MRM 9.
    let sink = world.query(
        HostId(12),
        ComponentQuery::by_name("Counter", Version::new(1, 0)),
        false,
    );
    world.run_for(SimTime::from_millis(1000));
    assert!(sink.borrow().done);
    assert_eq!(sink.borrow().offers.len(), 1, "replica MRM must answer");
    assert!(world.sim.metrics_ref().counter("query.failover") >= 1);
}

#[test]
fn cpu_cost_delays_replies_by_host_power() {
    // Two hosts: a slow one and a fast one, both running Display whose
    // draw costs 200us of reference CPU.
    let mut topo = Topology::new();
    let s = topo.add_site("lan");
    let slow = topo.add_host(HostCfg::new(s).cpu(0.5));
    let fast = topo.add_host(HostCfg::new(s).cpu(4.0));
    let caller = topo.add_host(HostCfg::new(s));
    let mut world = World::on(
        topo,
        14,
        fast_config(),
        demo::catalog(),
        |_| vec![demo::display_package()],
    );
    world.run_for(SimTime::from_millis(10));
    let mut refs = Vec::new();
    for host in [slow, fast] {
        refs.push(world.spawn(host, "Display", None, SimTime::from_millis(10)));
    }
    let mut latencies = Vec::new();
    for r in &refs {
        let start = world.sim.now();
        let sink = world.invoke(caller, r, "draw", vec![Value::string("x")]);
        world.run_for(SimTime::from_millis(100));
        let (at, res) = sink.borrow()[0].clone();
        assert!(res.is_ok());
        latencies.push(at - start);
    }
    // Slow host: 200us/0.5 = 400us of CPU; fast host: 200us/4 = 50us.
    assert!(
        latencies[0] > latencies[1],
        "slow host must reply later: {latencies:?}"
    );
    assert!(latencies[0] - latencies[1] >= SimTime::from_micros(300));
}

/// CPU-delayed replies wait in node state, not in their timer: each is
/// sent exactly once, in the order the CPU finishes them, and a crash
/// takes the parked ones with it.
#[test]
fn parked_replies_go_out_once_in_order_and_die_with_the_node() {
    let mut topo = Topology::new();
    let s = topo.add_site("lan");
    let server = topo.add_host(HostCfg::new(s).cpu(0.1));
    let caller = topo.add_host(HostCfg::new(s));
    let mut world = World::on(
        topo,
        14,
        fast_config(),
        demo::catalog(),
        |_| vec![demo::display_package()],
    );
    world.run_for(SimTime::from_millis(10));
    let spawn_display =
        |world: &mut World| world.spawn(server, "Display", None, SimTime::from_millis(10));
    // A burst of draws: 200us of reference CPU each, 2ms on this host,
    // so the replies queue up behind one another on the CPU.
    let burst = |world: &mut World, target: &lc_orb::ObjectRef| -> Vec<lc_core::InvokeSink> {
        (0..3).map(|_| world.invoke(caller, target, "draw", vec![Value::string("x")])).collect()
    };

    let display = spawn_display(&mut world);
    let display_id = InstanceId(display.key.oid);
    let sinks = burst(&mut world, &display);
    world.run_for(SimTime::from_millis(100));
    let replies_before = world.sim.metrics_ref().counter("orb.replies");
    assert_eq!(replies_before, 3, "one reply per request");
    let at: Vec<SimTime> = sinks
        .iter()
        .map(|sink| {
            let got = sink.borrow();
            assert_eq!(got.len(), 1, "each caller hears exactly once");
            assert!(got[0].1.is_ok());
            got[0].0
        })
        .collect();
    // Issue order is CPU order is reply order, one task apart.
    assert_eq!(at[1] - at[0], SimTime::from_millis(2));
    assert_eq!(at[2] - at[1], SimTime::from_millis(2));

    // Crash with all three replies parked: none is ever sent, and the
    // respawned node starts with nothing parked.
    let doomed = burst(&mut world, &display);
    world.run_for(SimTime::from_millis(1)); // requests delivered and executed, no reply due yet
    let drawn = world.node(server).and_then(|n| n.servant_of::<demo::DisplayImpl>(display_id));
    assert_eq!(drawn.map(|d| d.drawn), Some(6), "the doomed draws ran before the crash");
    world.crash(server);
    world.recover(server);
    world.run_for(SimTime::from_millis(100));
    assert!(doomed.iter().all(|sink| sink.borrow().is_empty()));
    assert_eq!(world.sim.metrics_ref().counter("orb.replies"), replies_before);
    let display = spawn_display(&mut world);
    let again = burst(&mut world, &display);
    world.run_for(SimTime::from_millis(100));
    assert!(again.iter().all(|sink| sink.borrow().len() == 1));
    assert_eq!(world.sim.metrics_ref().counter("orb.replies"), replies_before + 3);
}

/// Node timers ride the packed lane under named tags, so a profiled
/// full-stack world reads as `tick.keepalive`, not as kind bytes.
#[test]
fn profiled_node_world_names_its_ticks() {
    let mut world = World::lan(4, 3);
    world.sim.enable_profiler(lc_des::ProfilerConfig::default());
    world.sim.run_until(SimTime::from_secs(10));
    let report = world.sim.profile_report().unwrap();
    assert!(report.lane(lc_des::Lane::Packed).events > 0);
    let rendered = lc_trace::profile::render(&report, &lc_core::Tick::KIND_NAMES, 2);
    assert!(rendered.contains("tick.keepalive"), "{rendered}");
    assert!(rendered.contains("tick.mrm_sweep"), "{rendered}");
    // Every packed kind the node world fired has a name (`k<N>` is the
    // renderer's fallback for an unnamed byte).
    let unnamed = |line: &str| {
        let kind = line.split_whitespace().next().and_then(|word| word.strip_prefix('k'));
        kind.is_some_and(|n| n.parse::<u8>().is_ok())
    };
    assert!(!rendered.lines().any(unnamed), "{rendered}");
}

#[test]
fn world_is_deterministic_per_seed() {
    // Per-node metrics are plain counters (no wall clock), so they are
    // part of the reproducible state, node by node.
    fn run(seed: u64) -> (u64, u64, Vec<lc_core::NodeMetrics>) {
        let mut world = host0_world(Topology::lan(8), seed, signed());
        world.run_for(SimTime::from_millis(2000));
        let metrics = (0..8)
            .map(|h| world.node(HostId(h)).unwrap().node_metrics().clone())
            .collect();
        (world.sim.events_fired(), world.sim.metrics_ref().counter("net.bytes"), metrics)
    }
    let (a, b) = (run(42), run(42));
    assert_eq!(a, b);
    assert!(a.2.iter().all(|m| m.service(lc_core::ServiceKind::Resource).dispatches > 0));
}

#[test]
fn automatic_load_balancing_sheds_instances() {
    // Host 1 is overloaded with counters; hosts 2..7 idle. With LB on,
    // the node asks its MRM for lighter members and migrates instances
    // until it drops below the threshold.
    let config = NodeConfig {
        cohesion: fast_cohesion(),
        query_timeout: SimTime::from_millis(400),
        require_signature: false,
        load_balance: true,
        ..NodeConfig::default()
    };
    let mut world = World::on(
        Topology::lan(8),
        40,
        config,
        demo::catalog(),
        |_| vec![demo::counter_package()],
    );
    world.run_for(SimTime::from_millis(10));
    // Overload host 1: 12 counters × 0.05 cpu = 0.6, over the threshold.
    for i in 0..12 {
        let sink: lc_core::SpawnSink = Rc::default();
        world.cmd(
            HostId(1),
            NodeCmd::SpawnLocal {
                component: "Counter".into(),
                min_version: Version::new(1, 0),
                instance_name: Some(format!("c{i}")),
                sink,
            },
        );
    }
    world.run_for(SimTime::from_millis(50));
    assert_eq!(world.node(HostId(1)).unwrap().registry.instance_count(), 12);
    let util_before = world.node(HostId(1)).unwrap().resources.cpu_utilisation();
    assert!(util_before > OVERLOAD_THRESHOLD);

    // Let reports converge and LB run for a few periods.
    world.run_for(SimTime::from_millis(8_000));

    let m = world.sim.metrics_ref();
    assert!(m.counter("lb.migrations") >= 1, "LB must migrate something");
    assert!(m.counter("migrate.completed") >= 1);
    let node1 = world.node(HostId(1)).unwrap();
    assert!(
        node1.resources.cpu_utilisation() < OVERLOAD_THRESHOLD,
        "host1 still overloaded: {}",
        node1.resources.cpu_utilisation()
    );
    // Instances moved, not lost: total across the LAN is still 12.
    let total: usize = (0..8u32)
        .map(|h| world.node(HostId(h)).map(|n| n.registry.instance_count()).unwrap_or(0))
        .sum();
    assert_eq!(total, 12);
}

/// The placement ask walks the MRM replica list like every other
/// request: with the group's first replica crashed, an
/// overloaded member is answered by the second, and the replica it
/// passed over is one `query.failover`.
#[test]
fn placement_ask_fails_over_to_the_second_mrm_replica() {
    let config = NodeConfig { load_balance: true, ..fast_config() };
    let mut world =
        World::on(Topology::lan(8), 41, config, demo::catalog(), |_| vec![demo::counter_package()]);
    // Hosts 0 and 1 are the group's MRM replicas; host 1 has evicted
    // the silent host 0 from its view by the time anyone asks.
    world.crash(HostId(0));
    world.run_for(SimTime::from_secs(1));
    // Host 3 runs 5 counters × 0.05 cpu = 0.25, at the threshold (the
    // check is `>=`): one migration brings it under.
    for _ in 0..5 {
        world.spawn(HostId(3), "Counter", None, SimTime::from_millis(1));
    }
    world.run_for(SimTime::from_secs(4));

    let m = world.sim.metrics_ref();
    assert_eq!(m.counter("lb.migrations"), 1);
    assert_eq!(m.counter("migrate.completed"), 1);
    assert_eq!(m.counter("query.failover"), 1, "one ask, one replica passed over");
    assert_eq!(world.node(HostId(3)).unwrap().registry.instance_count(), 4);
}

#[test]
fn fixed_instances_are_never_auto_migrated() {
    // A Fixed-mobility component must stay put even under overload.
    // Build a fixed-mobility counter package.
    let fixed_pkg = {
        let mut desc = lc_pkg::ComponentDescriptor::new(
            "FixedCounter",
            Version::new(1, 0),
            "demo-vendor",
        )
        .provides("counter", "IDL:demo/Counter:1.0");
        desc.mobility = lc_pkg::Mobility::Fixed;
        desc.qos = lc_pkg::QosSpec {
            cpu_min: 0.3,
            cpu_max: 0.5,
            memory: 1 << 20,
            bandwidth_min: 0.0,
        };
        let mut pkg = lc_pkg::Package::new(desc)
            .with_idl("demo.idl", demo::DEMO_IDL)
            .with_binary(lc_pkg::Platform::reference(), "demo_counter", b"fixed");
        pkg.seal(&demo::demo_key());
        Rc::new(pkg.to_bytes())
    };
    let config = NodeConfig {
        cohesion: fast_cohesion(),
        query_timeout: SimTime::from_millis(400),
        require_signature: false,
        load_balance: true,
        ..NodeConfig::default()
    };
    let fixed_for_world = fixed_pkg.clone();
    let mut world = World::on(
        Topology::lan(4),
        41,
        config,
        demo::catalog(),
        move |_| vec![fixed_for_world.clone()],
    );
    world.run_for(SimTime::from_millis(10));
    for i in 0..3 {
        let sink: lc_core::SpawnSink = Rc::default();
        world.cmd(
            HostId(1),
            NodeCmd::SpawnLocal {
                component: "FixedCounter".into(),
                min_version: Version::new(1, 0),
                instance_name: Some(format!("f{i}")),
                sink,
            },
        );
    }
    world.run_for(SimTime::from_millis(8_000));
    // Overloaded (0.9, over the threshold) but nothing migratable.
    let util = world.node(HostId(1)).unwrap().resources.cpu_utilisation();
    assert!(util >= OVERLOAD_THRESHOLD, "host1 must be overloaded: {util}");
    assert_eq!(world.sim.metrics_ref().counter("lb.migrations"), 0);
    assert_eq!(world.node(HostId(1)).unwrap().registry.instance_count(), 3);
}

#[test]
fn runtime_port_modification_changes_query_results() {
    // §2.4.2: an instance grows a provided port at run time; the
    // reflected registry shows it immediately.
    let mut world = host0_world(Topology::lan(2), 42, signed());
    world.run_for(SimTime::from_millis(10));
    world.spawn(HostId(0), "Counter", Some("c"), SimTime::from_millis(10));
    let instance = world.node(HostId(0)).unwrap().registry.named("c").unwrap().id;
    assert_eq!(world.node(HostId(0)).unwrap().registry.instance(instance).unwrap().provides.len(), 1);

    world.cmd(
        HostId(0),
        NodeCmd::ModifyPorts {
            instance,
            add_provides: vec![("stats".into(), "IDL:demo/Display:1.0".into())],
            remove_provides: vec!["counter".into()],
        },
    );
    world.run_for(SimTime::from_millis(10));
    let node = world.node(HostId(0)).unwrap();
    let info = node.registry.instance(instance).unwrap();
    assert_eq!(info.provides.len(), 1);
    assert_eq!(info.provides[0].name, "stats");
    assert_eq!(world.sim.metrics_ref().counter("reflect.port_changes"), 1);
}

#[test]
fn migration_forwarding_table_tracks_old_reference() {
    // The origin node keeps a forwarding entry for the migrated-away
    // oid; requests to the old reference are re-targeted transparently,
    // and unrelated oids are never forwarded.
    let mut world = host0_world(Topology::lan(3), 11, signed());
    world.run_for(SimTime::from_millis(10));
    let old_ref = world.spawn(HostId(0), "Counter", Some("c"), SimTime::from_millis(10));
    let instance = world.node(HostId(0)).unwrap().registry.named("c").unwrap().id;
    let msink: lc_core::SpawnSink = Rc::default();
    world.cmd(HostId(0), NodeCmd::Migrate { instance, to: HostId(1), sink: Some(msink.clone()) });
    world.run_for(SimTime::from_millis(2000));
    let new_ref = msink.borrow().clone().unwrap().unwrap();

    let origin = world.node(HostId(0)).unwrap();
    assert_eq!(origin.forward_count(), 1, "one forwarding entry after one migration");
    let fwd = origin.forward_target(old_ref.key.oid).expect("old oid must be forwarded");
    assert_eq!(fwd.key, new_ref.key, "forward entry points at the migrated instance");

    // Two calls through the stale reference both get forwarded replies.
    let value: lc_core::InvokeSink = Rc::default();
    for _ in 0..2 {
        world.cmd(
            HostId(2),
            NodeCmd::Invoke {
                target: old_ref.clone(),
                op: "value".into(),
                args: vec![],
                oneway: false,
                sink: Some(value.clone()),
            },
        );
    }
    world.run_for(SimTime::from_millis(300));
    let replies = value.borrow();
    assert_eq!(replies.len(), 2, "both forwarded requests must be answered");
    assert!(replies.iter().all(|(_, r)| r.is_ok()));
    assert_eq!(world.sim.metrics_ref().counter("migrate.forwarded_requests"), 2);
}

#[test]
fn event_channels_close_when_producer_instance_dies() {
    // Destroying a producer instance must drop its event channels and
    // their subscriptions, so no delivery is attempted to or from it.
    let mut world = host0_world(Topology::lan(3), 12, signed());
    world.run_for(SimTime::from_millis(10));
    let unreserved = world.node(HostId(0)).unwrap().resources.dynamic();
    let gspawn: lc_core::SpawnSink = Rc::default();
    world.cmd(
        HostId(0),
        NodeCmd::SpawnLocal {
            component: "GuiPart".into(),
            min_version: Version::new(1, 0),
            instance_name: Some("gui".into()),
            sink: gspawn.clone(),
        },
    );
    world.cmd(HostId(2), NodeCmd::Install(demo::watcher_package()));
    world.run_for(SimTime::from_millis(20));
    let wspawn: lc_core::SpawnSink = Rc::default();
    world.cmd(
        HostId(2),
        NodeCmd::SpawnLocal {
            component: "Watcher".into(),
            min_version: Version::new(1, 0),
            instance_name: Some("w".into()),
            sink: wspawn.clone(),
        },
    );
    world.run_for(SimTime::from_millis(20));
    let gui_ref = gspawn.borrow().clone().unwrap().unwrap();
    let watcher_ref = wspawn.borrow().clone().unwrap().unwrap();
    world.cmd(
        HostId(2),
        NodeCmd::Subscribe {
            producer: gui_ref.key,
            port: "rendered".into(),
            consumer: watcher_ref.key,
            delivery_op: "_push_rendered".into(),
        },
    );
    world.run_for(SimTime::from_millis(50));
    assert_eq!(world.node(HostId(0)).unwrap().event_channel_count(), 1);
    assert_eq!(world.node(HostId(0)).unwrap().subscription_count(), 1);

    world.oneway(HostId(1), &gui_ref, "render", vec![Value::string("frame0")]);
    world.run_for(SimTime::from_millis(100));
    assert_eq!(world.sim.metrics_ref().counter("events.published"), 1);

    // Kill the producer instance; the channel and its subscriber go too.
    let gui_instance = world.node(HostId(0)).unwrap().registry.named("gui").unwrap().id;
    let actor = world.net.actor_of(HostId(0));
    assert!(world.sim.actor_as_mut::<lc_core::Node>(actor).unwrap().destroy_instance(gui_instance));
    let node = world.node(HostId(0)).unwrap();
    assert_eq!(node.event_channel_count(), 0, "channels rooted at the dead instance are dropped");
    assert_eq!(node.subscription_count(), 0);
    assert_eq!(node.registry.instance_count(), 0);
    assert_eq!(node.resources.dynamic(), unreserved, "the installed descriptor's QoS is released");

    // A render sent to the dead reference publishes nothing.
    world.oneway(HostId(1), &gui_ref, "render", vec![Value::string("frame1")]);
    world.run_for(SimTime::from_millis(100));
    assert_eq!(world.sim.metrics_ref().counter("events.published"), 1);
}

/// A backup replica acting as its group's primary sends its summary
/// under its own id, and the parent absorbs it keyed by that sender —
/// though the backup is no member of the parent group. With host 8, the
/// primary of leaf group 1 (hosts 8..16), crashed, host 0's level-1 seat
/// holds host 9's record one sweep (plus the inter-site hop) later, and
/// once host 8's own record is evicted a query from another site still
/// finds a component held only in group 1, through host 9.
#[test]
fn a_backups_summary_is_absorbed_under_its_own_id() {
    let period = fast_cohesion().report_period.as_nanos() / 1_000_000;
    let config = NodeConfig {
        cohesion: fast_cohesion(),
        query_timeout: SimTime::from_millis(400),
        ..Default::default()
    };
    let holder = HostId(12);
    let mut world = World::on(Topology::campus(8, 8), 23, config, demo::catalog(), |host| {
        if host == holder {
            vec![demo::counter_package()]
        } else {
            Vec::new()
        }
    });
    world.run_for(SimTime::from_millis(4 * period));
    let level1 = |world: &World| {
        let root = world.node(HostId(0)).expect("host 0 is up");
        let seat = root.seat(1).expect("host 0 holds a level-1 seat");
        (seat.records().keys().copied().collect::<Vec<_>>(), seat.holders("Counter").to_vec())
    };
    let (senders, holders) = level1(&world);
    assert!(senders.contains(&HostId(8)) && !senders.contains(&HostId(9)), "{senders:?}");
    assert_eq!(holders, [HostId(8)]);

    world.crash(HostId(8));
    world.run_for(SimTime::from_millis(period + 50));
    let (senders, holders) = level1(&world);
    assert!(senders.contains(&HostId(9)), "host 9's summary was not absorbed: {senders:?}");
    assert!(holders.contains(&HostId(9)), "{holders:?}");

    world.run_for(SimTime::from_millis(4 * period));
    let (senders, holders) = level1(&world);
    assert!(!senders.contains(&HostId(8)), "the crashed primary is evicted: {senders:?}");
    assert_eq!(holders, [HostId(9)]);
    let query = ComponentQuery::by_name("Counter", Version::new(1, 0));
    let sink = world.query(HostId(42), query, false);
    world.run_for(SimTime::from_millis(1000));
    let res = sink.borrow();
    assert!(res.done);
    assert_eq!(res.offers.iter().map(|o| o.node).collect::<Vec<_>>(), [holder]);
}

/// Shared soft state never serves yesterday's inventory: a package
/// installed at run time on a plain member reaches its leaf MRMs with the
/// member's next keep-alive and the parent level with the leaf primary's
/// next summary — the snapshots those messages share are rebuilt, not
/// reused — and a query from another site then finds it.
#[test]
fn runtime_install_reaches_mrm_and_parent_summaries() {
    let period = fast_cohesion().report_period.as_nanos() / 1_000_000;
    let mut world = host0_world(Topology::campus(8, 8), 17, signed());
    world.run_for(SimTime::from_millis(4 * period));
    // Host 13 is a plain member of leaf group 1 (hosts 8..16, MRMs 8 and
    // 9); the root group's MRMs are hosts 0 and 8.
    let member = HostId(13);
    let believers = |world: &World, mrm: u32, level: usize| {
        let node = world.node(HostId(mrm)).expect("node is up");
        node.seat(level).expect("serves the level").holders("Counter").to_vec()
    };
    assert_eq!(believers(&world, 8, 0), []);
    assert_eq!(believers(&world, 0, 1), [HostId(0)], "only host 0's group holds Counter so far");

    world.cmd(member, NodeCmd::Install(demo::counter_package()));
    world.run_for(SimTime::from_millis(2 * period));
    for mrm in [8, 9] {
        assert_eq!(believers(&world, mrm, 0), [member], "leaf MRM {mrm} missed the install");
    }
    // One sweep (plus the inter-site hop) later the parents know too.
    world.run_for(SimTime::from_millis(period + 50));
    for mrm in [0, 8] {
        assert_eq!(
            believers(&world, mrm, 1),
            [HostId(0), HostId(8)],
            "root MRM {mrm} still summarises group 1 without Counter"
        );
    }

    // With host 0 (the only other holder) crashed and evicted, a query
    // from a third site can only be answered by the new install.
    world.crash(HostId(0));
    world.run_for(SimTime::from_millis(5 * period));
    let query = ComponentQuery::by_name("Counter", Version::new(1, 0));
    let sink = world.query(HostId(42), query, false);
    world.run_for(SimTime::from_millis(1000));
    let res = sink.borrow();
    assert!(res.done);
    assert_eq!(res.offers.iter().map(|o| o.node).collect::<Vec<_>>(), [member]);
}

/// A sharded world over `net`: `Counter` installed on `owners`, fast
/// gossip so the first maintenance round publishes it early.
fn sharded_world(
    net: Net,
    seed: u64,
    shard: ShardConfig,
    config: NodeConfig,
    owners: &[HostId],
) -> World {
    let owners = owners.to_vec();
    World::on(
        net,
        seed,
        NodeConfig {
            cohesion: fast_cohesion(),
            query_timeout: SimTime::from_millis(400),
            registry: RegistryConfig::Sharded(shard),
            ..config
        },
        demo::catalog(),
        move |h| if owners.contains(&h) { vec![demo::counter_package()] } else { Vec::new() },
    )
}

fn query_counter(
    world: &mut World,
    origin: HostId,
    max_cost: Option<u32>,
) -> QuerySink {
    let by_name = ComponentQuery::by_name("Counter", Version::new(1, 0));
    world.query(origin, ComponentQuery { max_cost, ..by_name }, false)
}

/// The shard ring is built once per world: every node — a crash→recover
/// respawn included — holds the *same* `Rc<ShardRing>`, the respawn
/// still serves lookups for the shard it replicates, and a registry
/// over the shared ring routes exactly like one over a private build.
#[test]
fn sharded_world_shares_one_ring_across_nodes_and_respawns() {
    // One replica per shard, so a served lookup names its server.
    let shard = ShardConfig {
        shards: 8,
        replicas: 1,
        vnodes: 4,
        gossip_period: SimTime::from_millis(200),
        ..Default::default()
    };
    let hosts: Vec<HostId> = (0..16).map(HostId).collect();
    let private = Rc::new(ShardRing::build(&hosts, &shard.ring()));
    let server = private.replicas(private.shard_of_component("Counter"))[0];
    let mut bystanders = hosts.iter().copied().filter(|&h| h != server);
    let owner = bystanders.next().expect("16 hosts");
    let origin = bystanders.next().expect("16 hosts");

    let net = Net::builder(Topology::lan(16)).build();
    let mut world = sharded_world(net, 21, shard.clone(), NodeConfig::default(), &[owner]);
    let shared = world.record.ring.clone().expect("a sharded world carries its ring");
    let holds_shared_ring = |world: &World, h: HostId| {
        let node = world.node(h).expect("node is up");
        let store = node.backend().shard().expect("sharded registry");
        Rc::ptr_eq(store.ring(), &shared)
    };
    for &h in &hosts {
        assert!(holds_shared_ring(&world, h), "{h:?} built a private ring");
    }

    world.run_for(SimTime::from_millis(600));
    let before = query_counter(&mut world, origin, None);
    world.run_for(SimTime::from_millis(600));
    assert_eq!(before.borrow().offers.len(), 1, "the shard's only replica serves the offer");

    // The respawn starts with an empty store over the same ring; the
    // owner's next refresh-publish refills it and lookups resume.
    world.crash(server);
    world.run_for(SimTime::from_millis(300));
    world.recover(server);
    assert!(holds_shared_ring(&world, server), "the respawn built a private ring");
    world.run_for(SimTime::from_millis(800));
    let after = query_counter(&mut world, origin, None);
    world.run_for(SimTime::from_millis(600));
    assert!(after.borrow().done);
    assert_eq!(after.borrow().offers.len(), 1, "the respawned replica serves ShardLookups again");

    // Shared vs private ring: same routes, same replica sets.
    for &h in &hosts {
        let over = |ring: &Rc<ShardRing>| {
            Registry::new(None, Some(ShardStore::new(h, ring.clone())))
        };
        let (a, b) = (over(&shared), over(&private));
        for i in 0..32 {
            let q = ComponentQuery::by_name(&format!("C{i}"), Version::new(1, 0));
            assert_eq!(a.search_route(&q), b.search_route(&q), "{h:?} routes C{i} differently");
        }
    }
    for s in 0..shard.shards {
        assert_eq!(shared.replicas(s), private.replicas(s), "shard {s} replica sets differ");
    }
}

/// A lookup is one hop: on a fault-free sharded campus with no cache,
/// every cold name query from a host that does not replicate the owning
/// shard costs exactly two query messages — the `ShardLookup` to a
/// replica and its `Offers { done }` back — and finalizes with the owner's
/// offer, for every such origin and every component.
#[test]
fn a_cold_sharded_lookup_costs_one_round_trip() {
    let shard = ShardConfig {
        shards: 8,
        replicas: 2,
        vnodes: 8,
        gossip_period: SimTime::from_millis(200),
        ..Default::default()
    };
    let owner = HostId(5);
    let components = [
        ("Counter", Version::new(1, 0)),
        ("Display", Version::new(2, 0)),
        ("GuiPart", Version::new(1, 0)),
        ("Watcher", Version::new(1, 0)),
    ];
    let config = NodeConfig {
        cohesion: fast_cohesion(),
        query_timeout: SimTime::from_millis(400),
        registry: RegistryConfig::Sharded(shard),
        ..Default::default()
    };
    let mut world = World::on(Topology::campus(8, 8), 27, config, demo::catalog(), move |h| {
        if h == owner {
            vec![
                demo::counter_package(),
                demo::display_package(),
                demo::gui_package(),
                demo::watcher_package(),
            ]
        } else {
            Vec::new()
        }
    });
    let ring = world.record.ring.clone().expect("a sharded world carries its ring");
    world.run_for(SimTime::from_millis(800));

    let mut remote = 0;
    for (name, version) in components {
        let shard = ring.shard_of_component(name);
        for origin in (0..64).map(HostId).filter(|&h| h != owner && !ring.is_replica(shard, h)) {
            let msgs = world.sim.metrics_ref().counter("query.msgs");
            let sink = world.query(origin, ComponentQuery::by_name(name, version), false);
            world.run_for(SimTime::from_millis(100));
            let res = sink.borrow();
            assert!(res.done && !res.partial, "{name} from {origin:?} did not finalize");
            let nodes: Vec<HostId> = res.offers.iter().map(|o| o.node).collect();
            assert_eq!(nodes, [owner], "{name} from {origin:?}");
            let cost = world.sim.metrics_ref().counter("query.msgs") - msgs;
            assert_eq!(cost, 2, "{name} from {origin:?} cost {cost} query messages");
            remote += 1;
        }
    }
    assert!(remote > 200, "only {remote} remote lookups ran");
    assert_drained(&world);
}

/// A shard replica the publisher cannot reach — every `ShardPublish` to
/// it is lost on the wire — still learns the entry, over the wire: its
/// digest goes to the peer replica, the peer answers with the delta.
#[test]
fn a_replica_that_misses_every_publish_converges_through_gossip() {
    let shard = ShardConfig {
        shards: 8,
        replicas: 2,
        vnodes: 4,
        gossip_period: SimTime::from_millis(200),
        ..Default::default()
    };
    let hosts: Vec<HostId> = (0..16).map(HostId).collect();
    let ring = ShardRing::build(&hosts, &shard.ring());
    let counter_shard = ring.shard_of_component("Counter");
    let [peer, deaf] = ring.replicas(counter_shard)[..] else { panic!("two replicas") };
    let owner = *hosts.iter().find(|&&h| h != peer && h != deaf).expect("16 hosts");

    let plan = FaultPlan::seeded(5).link(owner, deaf, LinkFaults::none().drop_p(1.0));
    let net = Net::builder(Topology::lan(16)).fault_plan(plan).build();
    let mut world = sharded_world(net, 22, shard, NodeConfig::default(), &[owner]);
    world.run_for(SimTime::from_millis(1500));

    let query = ComponentQuery::by_name("Counter", Version::new(1, 0));
    for replica in [peer, deaf] {
        let node = world.node(replica).expect("node is up");
        let store = node.backend().shard().expect("sharded registry");
        let held = store.lookup(counter_shard, &query).unwrap_or_default();
        assert_eq!(held.len(), 1, "{replica:?} holds {held:?}");
        assert_eq!(held[0].node, owner);
    }
    assert!(world.sim.metrics_ref().counter("registry.gossip_repaired") >= 1);
}

/// A refresh re-sends its last publication only while nothing the offer
/// set was computed from has moved. An owner holds `Counter` and
/// `Display`; spawning `Display` changes the load every one of its offers
/// carries, so `Counter`'s next refresh — no bump, `Counter` itself did
/// not change — reaches the replica with the new load. After
/// `ComponentRegistry::clear` the next refresh recomputes too: an
/// instance the registry forgot is no longer offered as running.
#[test]
fn a_refresh_recomputes_when_the_load_or_the_instances_move() {
    let shard = ShardConfig {
        shards: 8,
        replicas: 2,
        vnodes: 4,
        gossip_period: SimTime::from_millis(200),
        ..Default::default()
    };
    let hosts: Vec<HostId> = (0..16).map(HostId).collect();
    let ring = ShardRing::build(&hosts, &shard.ring());
    let counter_shard = ring.shard_of_component("Counter");
    let replica = ring.replicas(counter_shard)[0];
    let owner = *hosts.iter().find(|h| !ring.is_replica(counter_shard, **h)).expect("16 hosts");
    let config = NodeConfig {
        cohesion: fast_cohesion(),
        registry: RegistryConfig::Sharded(shard),
        ..Default::default()
    };
    let mut world = World::on(Topology::lan(16), 24, config, demo::catalog(), |h| {
        if h == owner {
            vec![demo::counter_package(), demo::display_package()]
        } else {
            Vec::new()
        }
    });
    let held = |world: &World| {
        let node = world.node(replica).expect("replica is up");
        let store = node.backend().shard().expect("sharded registry");
        let query = ComponentQuery::by_name("Counter", Version::new(1, 0));
        let held = store.lookup(counter_shard, &query).unwrap_or_default();
        assert_eq!(held.len(), 1, "{replica:?} holds {held:?}");
        held[0].clone()
    };
    let owner_load = |world: &World| world.node(owner).expect("up").resources.cpu_utilisation();
    world.run_for(SimTime::from_millis(1000));
    assert_eq!(held(&world).load, 0.0);

    world.spawn(owner, "Display", None, SimTime::from_millis(10));
    assert!(owner_load(&world) > 0.0);
    world.run_for(SimTime::from_millis(250));
    assert_eq!(held(&world).load, owner_load(&world), "the refresh carries the new load");

    world.spawn(owner, "Counter", None, SimTime::from_millis(250));
    assert!(held(&world).running.is_some());
    let owner_node = world.net.actor_of(owner);
    world.sim.actor_as_mut::<Node>(owner_node).expect("owner is up").registry.clear();
    world.run_for(SimTime::from_millis(250));
    assert_eq!(held(&world).running, None, "the refresh after a clear recomputes");
}

/// A cached result is dropped by a peer's `CacheInvalidate`, long before
/// its TTL: the next identical query searches again and sees the change.
#[test]
fn a_received_cache_invalidate_drops_the_cached_result_before_its_ttl() {
    let cache = CacheConfig { ttl: SimTime::from_secs(60), ..Default::default() };
    let config = NodeConfig { cache: Some(cache), ..Default::default() };
    let mut world = host0_world(Topology::lan(4), 23, config);
    world.run_for(SimTime::from_millis(600));
    let ask = |world: &mut World| {
        let query = ComponentQuery::by_name("Counter", Version::new(1, 0));
        let sink = world.query(HostId(2), query, true);
        world.run_for(SimTime::from_millis(600));
        let running = sink.borrow().offers.iter().filter(|o| o.running.is_some()).count();
        // Host 2 is the only asker, so the world's counters are its own.
        let m = world.sim.metrics_ref();
        (m.counter("cache.hits"), m.counter("cache.misses"), running)
    };
    assert_eq!(ask(&mut world), (0, 1, 0));
    assert_eq!(ask(&mut world), (1, 1, 0), "second ask is served from cache");

    // Host 0's inventory changes; its broadcast reaches host 2.
    world.spawn(HostId(0), "Counter", None, SimTime::from_millis(50));
    assert_eq!(ask(&mut world), (1, 2, 1), "third ask searches again");
    assert_eq!(world.sim.metrics_ref().counter("cache.invalidated_entries"), 1);
}

/// Cache, sharded registry and a tight admission queue all on, on a
/// lossy 64-node campus (ROADMAP's feature lattice): every query
/// finalizes, shed sinks balance the world's `admission.query_shed`
/// counter, and a shed leader leaves no singleflight window behind.
#[test]
fn cache_sharding_and_admission_compose_on_a_lossy_campus() {
    let plan = FaultPlan::seeded(31).default_link(LinkFaults::none().drop_p(0.05));
    let net = Net::builder(Topology::campus(8, 8)).fault_plan(plan).build();
    let config = NodeConfig {
        cache: Some(CacheConfig::default()),
        admission: Some(AdmissionConfig { query_queue_cap: 2, ..AdmissionConfig::default() }),
        ..Default::default()
    };
    let shard = ShardConfig { gossip_period: SimTime::from_millis(200), ..Default::default() };
    let owners: Vec<HostId> = (0..64).step_by(8).map(HostId).collect();
    let mut world = sharded_world(net, 31, shard, config, &owners);
    let shared = world.record.ring.clone().expect("a sharded world carries its ring");
    world.run_for(SimTime::from_millis(800));

    // Same-tick bursts of *distinct* keys (so none coalesce) from hosts
    // that must hop to the owning shard: each burst overflows the
    // two-slot queue and sheds its oldest searches.
    let target = shared.shard_of_component("Counter");
    let origins: Vec<HostId> =
        (0..64).map(HostId).filter(|&h| !shared.is_replica(target, h)).take(6).collect();
    let mut sinks = Vec::new();
    for round in 0..3u32 {
        for &origin in &origins {
            for k in 0..6u32 {
                let cost = 1000 + round * 6 + k;
                sinks.push((origin, cost, query_counter(&mut world, origin, Some(cost))));
            }
        }
        world.run_for(SimTime::from_millis(1000));
    }
    for (origin, _, sink) in &sinks {
        assert!(sink.borrow().done, "a query from {origin:?} never finalized");
    }
    let shed = sinks.iter().filter(|(_, _, s)| s.borrow().shed).count() as u64;
    assert!(shed > 0, "bursts of 6 over a 2-slot queue must shed");
    assert_eq!(world.sim.metrics_ref().counter("admission.query_shed"), shed);
    assert!(
        sinks.iter().any(|(_, _, s)| !s.borrow().shed && !s.borrow().offers.is_empty()),
        "no admitted query found an owner — the run is vacuous"
    );

    // Re-issue one shed query: the shed closed its singleflight window,
    // so it leads a fresh search instead of riding the dead leader.
    let &(origin, cost, _) = sinks.iter().find(|(_, _, s)| s.borrow().shed).expect("shed > 0");
    let coalesced = world.sim.metrics_ref().counter("cache.coalesced");
    let started = world.sim.metrics_ref().counter("query.started");
    let retry = query_counter(&mut world, origin, Some(cost));
    world.run_for(SimTime::from_millis(1000));
    assert_eq!(world.sim.metrics_ref().counter("cache.coalesced"), coalesced);
    assert_eq!(world.sim.metrics_ref().counter("query.started"), started + 1);
    assert!(retry.borrow().done && !retry.borrow().shed, "a lone query fits the queue");
}

/// An SLO monitor running inside a node: every query from one front
/// end misses, so a burn-rate rule over the empty-query share fires in
/// each 500 ms window that saw a query finish — at the front end's own
/// staggered `SloCheck` instants, nowhere else, with the front end's
/// flight recorder attached, and identically in a same-seed world.
#[test]
fn slo_monitor_inside_a_node_breaches_at_pinned_instants() {
    use lc_trace::{SloConfig, SloKind, SloRule, Tracer};
    const FRONT: HostId = HostId(5);

    fn run() -> (Vec<(u64, u64, u64)>, Vec<usize>, u64) {
        let slo = SloConfig {
            window: SimTime::from_millis(500),
            rules: vec![SloRule {
                name: "empty-burn".into(),
                kind: SloKind::BurnRate { budget_ppm: 100_000, max_burn_centi: 200, min_total: 2 },
            }],
        };
        let net = Net::builder(Topology::campus(2, 4)).tracer(Tracer::new()).build();
        let config = NodeConfig { slo: Some(slo), ..Default::default() };
        let mut world = host0_world(net, 77, config);
        world.run_for(SimTime::from_millis(600));
        for _ in 0..12 {
            let query = ComponentQuery::by_name("DoesNotExist", Version::new(1, 0));
            world.query(FRONT, query, true);
            world.run_for(SimTime::from_millis(100));
        }
        world.run_for(SimTime::from_millis(1000));

        for h in (0..8).map(HostId).filter(|&h| h != FRONT) {
            let mon = world.node(h).unwrap().slo_monitor().expect("every node runs a monitor");
            assert!(mon.evals() >= 5 && mon.breaches().is_empty(), "{h:?} saw no query finish");
        }
        let mon = world.node(FRONT).unwrap().slo_monitor().unwrap();
        let breaches = mon
            .breaches()
            .iter()
            .map(|r| (r.breach.at.as_nanos(), r.breach.observed, r.breach.window_events))
            .collect();
        let flights = mon.breaches().iter().map(|r| r.flight.len()).collect();
        (breaches, flights, world.sim.metrics_ref().counter("slo.breaches"))
    }

    let (breaches, flights, counted) = run();
    // Windows close at 137 µs × 6 + k × 500 ms. The misses issued at
    // 600 … 1 700 ms each dead-end a few ms later, so they fall 4 / 5 / 3,
    // and every one burns the 10 % budget ten times over (1000 centi).
    assert_eq!(
        breaches,
        [(1_000_822_000, 1000, 4), (1_500_822_000, 1000, 5), (2_000_822_000, 1000, 3)]
    );
    assert_eq!(counted, 3);
    assert!(flights.iter().all(|&n| n > 0), "a breach dumps the flight recorder: {flights:?}");
    assert_eq!(run(), (breaches, flights, counted));
}

/// A `FaultPlan` crash window on a plain [`World::on`] world is the
/// whole crash: the node actor dies with the host, a fresh incarnation
/// boots from the seed when the window closes, and `World` reaches it.
#[test]
fn scheduled_crash_window_kills_and_respawns_the_node() {
    const VICTIM: HostId = HostId(5);
    let (down, up) = (SimTime::from_secs(1), SimTime::from_secs(2));
    let plan = FaultPlan::seeded(9).crash(VICTIM, down, Some(up));
    let net = Net::builder(Topology::lan(8)).fault_plan(plan).build();
    let mut world = host0_world(net, 14, NodeConfig::default());

    world.run_for(SimTime::from_millis(600));
    world.query(VICTIM, ComponentQuery::by_name("Display", Version::new(2, 0)), false);
    world.run_for(SimTime::from_millis(300));
    let cmds = |world: &World| world.node(VICTIM).map(|n| n.node_metrics().cmd_counts().count());
    assert_eq!(cmds(&world), Some(1), "the first incarnation took the command");

    world.run_for(SimTime::from_millis(600)); // 1.5 s: inside the window
    assert!(!world.net.is_up(VICTIM));
    assert!(world.node(VICTIM).is_none(), "the crash window killed the node actor");
    assert_eq!(world.net.actor_of(VICTIM), world.actors[VICTIM.0 as usize]);

    world.run_for(SimTime::from_millis(1200)); // 2.7 s: the respawn has reported twice
    assert!(world.net.is_up(VICTIM));
    assert_ne!(world.net.actor_of(VICTIM), world.actors[VICTIM.0 as usize]);
    assert_eq!(cmds(&world), Some(0), "a fresh incarnation, not the old node revived");
    assert_eq!(world.sim.metrics_ref().counter("net.fault.crashes"), 1);
    assert_eq!(world.sim.metrics_ref().counter("net.fault.restarts"), 1);

    let query = ComponentQuery::by_name("Display", Version::new(2, 0));
    let sink = world.query(VICTIM, query, false);
    world.run_for(SimTime::from_millis(1000));
    assert!(sink.borrow().done);
    assert_eq!(sink.borrow().offers.len(), 1, "the respawn issues and completes a search");
}

/// A boot package added through the world's seed table before a crash
/// window opens is installed by the incarnation the window's recovery
/// boots: the scheduled respawn reads the table `World::recover` reads,
/// not a copy taken when the world was built.
#[test]
fn a_crash_window_respawns_from_the_seed_table_the_world_edits() {
    const VICTIM: HostId = HostId(5);
    let (down, up) = (SimTime::from_secs(1), SimTime::from_secs(2));
    let plan = FaultPlan::seeded(9).crash(VICTIM, down, Some(up));
    let net = Net::builder(Topology::lan(8)).fault_plan(plan).build();
    let mut world = host0_world(net, 14, NodeConfig::default());
    let installed = |world: &World| {
        let node = world.node(VICTIM);
        node.is_some_and(|n| n.repository.iter().any(|i| i.descriptor.name == "Display"))
    };

    world.run_for(SimTime::from_millis(500));
    assert!(!installed(&world), "the victim boots with nothing installed");
    world.seeds.borrow_mut()[VICTIM.0 as usize].preinstalled.push(demo::display_package());
    world.run_for(SimTime::from_millis(2000)); // 2.5 s: past the window
    assert!(world.net.is_up(VICTIM));
    assert_ne!(world.net.actor_of(VICTIM), world.actors[VICTIM.0 as usize]);
    assert!(installed(&world), "the respawned node boots with the package added to its seed");
}
