//! The peer/network-centered model (R3): install a component on one
//! node and watch the whole network become able to use it — queries,
//! fetch-and-run, crash and rediscovery.
//!
//! Run with `cargo run --release --example peer_network`.

use corba_lc_repro::core::demo;
use corba_lc_repro::core::node::NodeCmd;
use corba_lc_repro::core::testkit::{fast_config, World};
use corba_lc_repro::core::ComponentQuery;
use corba_lc_repro::des::SimTime;
use corba_lc_repro::net::{HostId, Topology};
use std::rc::Rc;

fn main() {
    // 24 peers in 3 sites; nobody has anything installed yet.
    let mut world = World::on(
        Topology::campus(3, 8),
        11,
        fast_config(),
        demo::catalog(),
        |_| Vec::new(),
    );
    world.sim.run_until(SimTime::from_millis(100));

    // A developer uploads the Display component to one arbitrary peer.
    println!("installing 'Display 2.0' on host17 only…");
    world.cmd(HostId(17), NodeCmd::Install(demo::display_package()));
    world.run_for(SimTime::from_secs(1)); // soft state spreads

    // Any peer can now find it ("seamlessly integrate new components").
    let query = |world: &mut corba_lc_repro::core::testkit::World, origin: HostId| {
        let sink = world.query(
            origin,
            ComponentQuery::by_name("Display", corba_lc_repro::pkg::Version::new(2, 0)),
            false,
        );
        world.run_for(SimTime::from_secs(1));
        let r = sink.borrow();
        println!(
            "  query from {origin}: {} offer(s){}",
            r.offers.len(),
            r.offers
                .first()
                .map(|o| format!(" — {} {} at {} (load {:.2})", o.component, o.version, o.node, o.load))
                .unwrap_or_default()
        );
        r.offers.first().map(|o| o.node)
    };
    println!("\ndistributed queries from three different sites:");
    for origin in [HostId(2), HostId(9), HostId(20)] {
        query(&mut world, origin);
    }

    // A peer in another site needs the component *locally* (heavy use):
    // the network fetches the package from host17 and runs it on host2.
    println!("\nhost2 resolves a heavy-traffic dependency on Display:");
    world.cmd(HostId(2), NodeCmd::Install(demo::gui_package()));
    world.run_for(SimTime::from_millis(100));
    let sink: corba_lc_repro::core::SpawnSink = Rc::default();
    world.cmd(
        HostId(2),
        NodeCmd::SpawnLocal {
            component: "GuiPart".into(),
            min_version: corba_lc_repro::pkg::Version::new(1, 0),
            instance_name: Some("gui".into()),
            sink: sink.clone(),
        },
    );
    world.run_for(SimTime::from_millis(100));
    let instance = world.node(HostId(2)).unwrap().registry.named("gui").unwrap().id;
    let provider: corba_lc_repro::core::SpawnSink = Rc::default();
    world.cmd(
        HostId(2),
        NodeCmd::Resolve(Box::new(corba_lc_repro::core::node::ResolveCmd {
            instance,
            port: "display".into(),
            query: ComponentQuery::by_name("Display", corba_lc_repro::pkg::Version::new(2, 0)),
            policy: corba_lc_repro::core::ResolvePolicy {
                expected_traffic: 1_000_000_000,
                ..Default::default()
            },
            sink: Some(provider.clone()),
        })),
    );
    world.run_for(SimTime::from_secs(5));
    let display_ref = provider.borrow().clone().unwrap().unwrap();
    println!(
        "  planner chose fetch-and-run-local: Display now at {} (fetched {} bytes)",
        display_ref.key.host,
        world.sim.metrics_ref().counter("fetch.bytes")
    );

    // The original peer crashes; the network notices and heals.
    println!("\nhost17 crashes…");
    world.crash(HostId(17));
    world.run_for(SimTime::from_secs(2));
    println!("queries keep working (host2's copy is found instead):");
    let found = query(&mut world, HostId(20));
    assert_eq!(found, Some(HostId(2)));

    println!("\nhost17 recovers (its disk kept the package)…");
    // Node respawn semantics: a NodeSeed reinstalls its `preinstalled`
    // list on boot. The run-time install wrote the package to host17's
    // disk, so add it to the world's one seed table (the one `recover`,
    // crash windows and churn all respawn from) before recovering.
    world.seeds.borrow_mut()[17].preinstalled.push(demo::display_package());
    world.recover(HostId(17));
    world.run_for(SimTime::from_secs(2));
    let sink = world.query(
        HostId(20),
        ComponentQuery::by_name("Display", corba_lc_repro::pkg::Version::new(2, 0)),
        false,
    );
    world.run_for(SimTime::from_secs(1));
    let offers = sink.borrow().offers.clone();
    println!(
        "  host20 now gets its offer from {} — its own site again: incremental\n  \
         lookup stops at the nearest copy (\"exploits locality\"), never bothering\n  \
         the other sites",
        offers[0].node
    );
    assert_eq!(offers[0].node, HostId(17));
}
