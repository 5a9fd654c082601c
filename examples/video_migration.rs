//! The paper's MPEG example end-to-end: a video decoder starts at the
//! video server, then migrates mid-stream to the viewer's host — state
//! intact, old references forwarded — and WAN traffic collapses.
//!
//! Run with `cargo run --release --example video_migration`.

use corba_lc_repro::core::node::NodeCmd;
use corba_lc_repro::core::testkit::{fast_config, World};
use corba_lc_repro::cscw;
use corba_lc_repro::des::SimTime;
use corba_lc_repro::net::{HostCfg, HostId, Topology};
use corba_lc_repro::orb::Value;
use std::rc::Rc;

fn main() {
    let mut topo = Topology::new();
    let dc = topo.add_site("video-server");
    let home = topo.add_site("home");
    topo.set_site_pair_latency(dc, home, SimTime::from_millis(25));
    let server = topo.add_host(HostCfg::new(dc).server());
    let viewer = topo.add_host(HostCfg::new(home));

    let mut world = World::on(
        topo,
        3,
        fast_config(),
        cscw::catalog(),
        |host| {
            let mut pkgs = vec![cscw::display_package()];
            if host == HostId(0) {
                pkgs.push(cscw::video_decoder_package());
            }
            pkgs
        },
    );
    world.sim.run_until(SimTime::from_millis(50));

    let wait = SimTime::from_millis(20);
    let screen = world.spawn(viewer, "CscwDisplay", Some("screen"), wait);
    let mut decoder = world.spawn(server, "VideoDecoder", Some("decoder"), wait);
    let connect = |world: &mut corba_lc_repro::core::testkit::World,
                   dec: &corba_lc_repro::orb::ObjectRef,
                   scr: &corba_lc_repro::orb::ObjectRef| {
        world.oneway(dec.key.host, dec, "_connect_display", vec![Value::ObjRef(scr.clone())]);
        world.run_for(SimTime::from_millis(20));
    };
    connect(&mut world, &decoder, &screen);
    println!("decoder starts on {} (the video server); display on {}", server, viewer);

    let frames = 400u32;
    let mut wan_at_half = 0;
    let wan0 = world.sim.metrics_ref().counter("net.bytes.inter");
    for f in 0..frames {
        if f == frames / 2 {
            wan_at_half = world.sim.metrics_ref().counter("net.bytes.inter") - wan0;
            println!(
                "\nafter {f} frames: {} of WAN traffic — migrating the decoder to the viewer…",
                lc_human(wan_at_half)
            );
            let inst = world.node(server).unwrap().registry.named("decoder").unwrap().id;
            let msink: corba_lc_repro::core::MigrateSink = Rc::default();
            world.cmd(
                server,
                NodeCmd::Migrate { instance: inst, to: viewer, sink: Some(msink.clone()) },
            );
            world.run_for(SimTime::from_secs(20));
            decoder = msink.borrow().clone().unwrap().expect("migrated");
            connect(&mut world, &decoder, &screen);
            println!(
                "migration complete: decoder now at {} (package auto-fetched, state restored)",
                decoder.key.host
            );
        }
        world.oneway(server, &decoder, "push_chunk", vec![Value::blob(&vec![0x11; 4096])]);
        world.run_for(SimTime::from_millis(40));
    }
    world.run_for(SimTime::from_secs(2));

    let wan_total = world.sim.metrics_ref().counter("net.bytes.inter") - wan0;
    let second_half = wan_total - wan_at_half;
    println!("\nWAN bytes, first half (remote decode) : {}", lc_human(wan_at_half));
    println!("WAN bytes, second half (local decode) : {} (includes the package fetch)", lc_human(second_half));

    let node = world.node(viewer).unwrap();
    let dec_inst = node.registry.named("decoder").unwrap().id;
    let dec: &cscw::VideoDecoderServant = node.servant_of(dec_inst).unwrap();
    println!(
        "decoder state after migration: {} frames decoded in total (counter travelled)",
        dec.frames
    );
    let scr_inst = node.registry.named("screen").unwrap().id;
    let scr: &cscw::DisplayServant = node.servant_of(scr_inst).unwrap();
    println!("viewer screen painted {} frames", scr.draws);
    assert_eq!(dec.frames, frames as u64);
}

fn lc_human(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else {
        format!("{:.1} KiB", b as f64 / 1024.0)
    }
}
