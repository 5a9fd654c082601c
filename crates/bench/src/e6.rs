//! E6 — the paper's MPEG example: use-remote vs fetch-local vs migrate.
//!
//! "Once selected, the network can decide either to instantiate the
//! component in its original node or to fetch the component to be
//! locally installed, instantiated and run. For example, a component
//! decoding a MPEG video stream would work much faster if it is
//! installed locally" (§2.4.3). §2.2 adds mid-stream migration: capture
//! state, move the binary, restore, continue.
//!
//! Topology: a video server site and a viewer site joined by a slow WAN
//! link. The decoder (512 KiB binary) turns 4 KiB encoded chunks into
//! 32 KiB decoded frames drawn to the viewer's display. Strategies:
//!
//! * **remote-decode** — decoder stays at the server: every *decoded*
//!   frame crosses the WAN (as display traffic).
//! * **fetch-local** — pay the package transfer once, then only
//!   *encoded* chunks cross.
//! * **migrate@25%** — start remote (instant start), migrate the decoder
//!   (with its frame counter state) to the viewer a quarter into the
//!   stream.
//!
//! The table sweeps stream length and reports WAN bytes per strategy —
//! the crossover DESIGN.md §5 calls out.

use crate::{format_table, human_bytes, Output};
use lc_core::node::NodeCmd;
use lc_core::testkit::{fast_config, World};
use lc_cscw::{DisplayServant, VideoDecoderServant};
use lc_des::SimTime;
use lc_net::{HostCfg, HostId, Topology};
use lc_orb::{ObjectRef, Value};
use std::rc::Rc;

const CHUNK: usize = 4 * 1024;
const SERVER: HostId = HostId(0);
const VIEWER: HostId = HostId(1);

#[derive(Clone, Copy, PartialEq)]
enum Strategy {
    RemoteDecode,
    FetchLocal,
    MigrateQuarter,
}

fn build() -> World {
    let mut topo = Topology::new();
    let server_site = topo.add_site("video-server");
    let viewer_site = topo.add_site("home");
    topo.set_site_pair_latency(server_site, viewer_site, SimTime::from_millis(30));
    topo.add_host(HostCfg::new(server_site).server()); // 0: video server
    topo.add_host(HostCfg::new(viewer_site)); // 1: viewer
    World::on(
        topo,
        66,
        fast_config(),
        lc_cscw::catalog(),
        |host| {
            let mut pkgs = vec![lc_cscw::display_package()];
            if host == SERVER {
                pkgs.push(lc_cscw::video_decoder_package()); // 512 KiB binary
            }
            pkgs
        },
    )
}

fn connect_display(world: &mut World, decoder: &ObjectRef, display: &ObjectRef) {
    let args = vec![Value::ObjRef(display.clone())];
    world.oneway(decoder.key.host, decoder, "_connect_display", args);
    world.run_for(SimTime::from_millis(20));
}

/// Stream `frames` chunks; returns (WAN bytes, frames decoded at viewer).
fn stream(strategy: Strategy, frames: u32) -> Result<(u64, u64), String> {
    let mut world = build();
    let spawn_wait = SimTime::from_millis(20);
    world.sim.run_until(SimTime::from_millis(50));
    let viewer_display = world.spawn(VIEWER, "CscwDisplay", Some("screen"), spawn_wait);

    // Where does the decoder start?
    let mut decoder = match strategy {
        Strategy::RemoteDecode | Strategy::MigrateQuarter => {
            world.spawn(SERVER, "VideoDecoder", Some("dec"), spawn_wait)
        }
        Strategy::FetchLocal => {
            // The real dependency-resolution path: the viewer's screen
            // needs a video source; with a long expected stream the
            // planner picks FetchAndRunLocal, pulling the package over
            // the WAN from the server (§2.4.3's MPEG decision).
            let Some(screen) = world.node(VIEWER).and_then(|n| n.registry.named("screen")) else {
                return Err("the viewer lost its screen".into());
            };
            let instance = screen.id;
            let provider: lc_core::SpawnSink = Rc::default();
            world.cmd(
                VIEWER,
                NodeCmd::Resolve(Box::new(lc_core::node::ResolveCmd {
                    instance,
                    port: "video_in".into(),
                    query: lc_core::ComponentQuery::by_name(
                        "VideoDecoder",
                        lc_pkg::Version::new(1, 0),
                    ),
                    expected_traffic: frames as u64 * CHUNK as u64 * 8,
                    sink: Some(provider.clone()),
                })),
            );
            world.run_for(SimTime::from_secs(30));
            let resolved = provider.borrow().clone();
            let Some(Ok(r)) = resolved else {
                return Err(format!("fetch-local decoder did not resolve: {resolved:?}"));
            };
            assert_eq!(r.key.host, VIEWER, "planner must choose local install");
            r
        }
    };
    connect_display(&mut world, &decoder, &viewer_display);

    let wan_before = world.sim.metrics_ref().counter("net.bytes.inter");

    let migrate_at = frames / 4;
    for f in 0..frames {
        if strategy == Strategy::MigrateQuarter && f == migrate_at {
            // Mid-stream migration, state and all (§2.2).
            let Some(dec) = world.node(SERVER).and_then(|n| n.registry.named("dec")) else {
                return Err("the server lost its decoder".into());
            };
            let instance = dec.id;
            let msink: lc_core::SpawnSink = Rc::default();
            world.cmd(SERVER, NodeCmd::Migrate { instance, to: VIEWER, sink: Some(msink.clone()) });
            world.run_for(SimTime::from_secs(30));
            let migrated = msink.borrow().clone();
            let Some(Ok(moved)) = migrated else {
                return Err(format!("migration did not finish: {migrated:?}"));
            };
            decoder = moved;
            connect_display(&mut world, &decoder, &viewer_display);
        }
        // The camera/file source lives at the server site.
        world.oneway(SERVER, &decoder, "push_chunk", vec![Value::blob(&vec![0x5A; CHUNK])]);
        world.run_for(SimTime::from_millis(40)); // 25 fps
    }
    world.run_for(SimTime::from_secs(5));

    let wan = world.sim.metrics_ref().counter("net.bytes.inter") - wan_before;
    let frames_drawn = world
        .node(VIEWER)
        .and_then(|node| {
            let screen = node.registry.named("screen")?;
            node.servant_of::<DisplayServant>(screen.id)
        })
        .map(|d| d.draws)
        .unwrap_or(0);
    // sanity: decoder processed all frames wherever it lives
    let total_decoded: u64 = [SERVER, VIEWER]
        .iter()
        .filter_map(|h| {
            let node = world.node(*h)?;
            let inst = node
                .registry
                .instances()
                .find(|i| i.component == "VideoDecoder" && i.name.as_deref() != Some("warm"))?;
            node.servant_of::<VideoDecoderServant>(inst.id).map(|d| d.frames)
        })
        .sum();
    assert!(total_decoded >= frames as u64, "decoded {total_decoded}/{frames}");
    Ok((wan, frames_drawn))
}

/// One row per stream length: WAN bytes per strategy.
fn sweep() -> Result<Vec<Vec<String>>, String> {
    let mut rows = Vec::new();
    for &frames in &[50u32, 200, 800, 2000] {
        let (remote, _) = stream(Strategy::RemoteDecode, frames)?;
        let (fetch, _) = stream(Strategy::FetchLocal, frames)?;
        let (migrate, drawn) = stream(Strategy::MigrateQuarter, frames)?;
        rows.push(vec![
            frames.to_string(),
            human_bytes(remote),
            human_bytes(fetch),
            human_bytes(migrate),
            drawn.to_string(),
        ]);
    }
    Ok(rows)
}

/// Run E6 and render the report.
pub fn run() -> Output {
    let rows = match sweep() {
        Ok(rows) => rows,
        Err(e) => return Output::failed(format!("e6: {e}")),
    };
    let mut report = "E6: video decoder placement — WAN bytes by strategy and stream length\n\
                      (4 KiB encoded chunks -> 16 KiB painted frames; 512 KiB decoder binary)\n"
        .to_owned();
    report.push_str(&format_table(
        "WAN traffic per strategy",
        &["frames", "remote-decode", "fetch-local", "migrate@25%", "frames on screen (migrate)"],
        &rows,
    ));
    report.push_str(
        "\nShape check: fetch-local pays ~the package size up front and wins once the\n\
         stream is long; remote-decode ships every decoded frame over the WAN;\n\
         migration lands in between, approaching fetch-local for long streams.\n",
    );
    Output { report, ..Output::default() }
}
