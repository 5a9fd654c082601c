//! E7 — CSCW whiteboard: event fan-out at scale, with a PDA participant
//! (R7: one component model for all tiers; R8: tiny devices).
//!
//! A whiteboard session spans several sites; participants' GUI parts
//! subscribe to the board's stroke channel and paint through their local
//! displays. One participant is a PDA: its GUI part runs on a nearby
//! server ("they can use all components remotely") but paints on the
//! PDA's own screen over its slow wireless link.

use lc_bench::{f2, print_table};
use lc_core::node::NodeCmd;
use lc_core::testkit::{build_world, fast_cohesion, World};
use lc_core::NodeConfig;
use lc_cscw::{DisplayServant, GuiPartServant};
use lc_des::{nearest_rank, SimTime};
use lc_net::{HostCfg, HostId, Topology};
use lc_orb::Value;
use std::rc::Rc;
use std::sync::Arc;

fn spawn(world: &mut World, host: HostId, component: &str, name: &str) -> lc_orb::ObjectRef {
    let sink: lc_core::SpawnSink = Rc::default();
    world.cmd(
        host,
        NodeCmd::SpawnLocal {
            component: component.into(),
            min_version: lc_pkg::Version::new(1, 0),
            instance_name: Some(name.into()),
            sink: sink.clone(),
        },
    );
    world.sim.run_until(world.sim.now() + SimTime::from_millis(20));
    let r = sink.borrow().clone();
    r.unwrap().unwrap()
}

struct SessionResult {
    mean_latency_ms: f64,
    p95_latency_ms: f64,
    all_delivered: bool,
    pda_draws: u64,
}

fn run(participants: usize, strokes: u32, seed: u64) -> SessionResult {
    // Participants spread over sites of 4; host 0 runs the board; the
    // last participant is a PDA whose GUI runs on host 0 (a server).
    let mut topo = Topology::new();
    let sites: Vec<_> =
        (0..participants.div_ceil(4).max(1)).map(|i| topo.add_site(&format!("site{i}"))).collect();
    let board_host = topo.add_host(HostCfg::new(sites[0]).server());
    let mut hosts = Vec::new();
    for p in 0..participants {
        let site = sites[p / 4];
        if p == participants - 1 {
            hosts.push(topo.add_host(HostCfg::new(site).pda()));
        } else {
            hosts.push(topo.add_host(HostCfg::new(site)));
        }
    }
    let behaviors = lc_core::BehaviorRegistry::new();
    lc_cscw::register_cscw_behaviors(&behaviors);
    let mut world = build_world(
        topo,
        seed,
        NodeConfig { cohesion: fast_cohesion(), ..Default::default() },
        behaviors,
        lc_cscw::cscw_trust(),
        Arc::new(lc_cscw::cscw_idl()),
        |_| {
            vec![
                lc_cscw::display_package(),
                lc_cscw::gui_package(),
                lc_cscw::whiteboard_package(),
            ]
        },
    );
    world.sim.run_until(SimTime::from_millis(50));

    let board = spawn(&mut world, board_host, "Whiteboard", "board");
    let mut gui_homes = Vec::new(); // (gui host, gui name, display host)
    for (p, &host) in hosts.iter().enumerate() {
        let is_pda = p == participants - 1;
        let display = spawn(&mut world, host, "CscwDisplay", &format!("screen{p}"));
        // R8: the PDA cannot host the GUI part; it runs on the board's
        // server and uses the PDA's display remotely.
        let gui_host = if is_pda { board_host } else { host };
        let gui = spawn(&mut world, gui_host, "CscwGuiPart", &format!("gui{p}"));
        world.cmd(
            gui_host,
            NodeCmd::Invoke {
                target: gui.clone(),
                op: "_connect_display".into(),
                args: vec![Value::ObjRef(display)],
                oneway: true,
                sink: None,
            },
        );
        world.cmd(
            gui_host,
            NodeCmd::Subscribe {
                producer: board.clone(),
                port: "strokes".into(),
                consumer: gui,
                delivery_op: "_push_strokes".into(),
            },
        );
        gui_homes.push((gui_host, format!("gui{p}"), host));
    }
    world.sim.run_until(world.sim.now() + SimTime::from_millis(200));

    for k in 0..strokes {
        world.cmd(
            board_host,
            NodeCmd::Invoke {
                target: board.clone(),
                op: "user_stroke".into(),
                args: vec![
                    Value::Long(k as i32),
                    Value::Long(0),
                    Value::Long(k as i32 + 3),
                    Value::Long(3),
                ],
                oneway: true,
                sink: None,
            },
        );
        world.sim.run_until(world.sim.now() + SimTime::from_millis(50));
    }
    world.sim.run_until(world.sim.now() + SimTime::from_secs(2));

    let mut latencies = Vec::new();
    let mut all_delivered = true;
    for (gui_host, gui_name, _) in &gui_homes {
        let node = world.node(*gui_host).unwrap();
        let id = node.registry.named(gui_name).unwrap().id;
        let servant: &GuiPartServant = node.servant_of(id).unwrap();
        if servant.strokes_seen != strokes as u64 {
            all_delivered = false;
        }
        latencies.extend_from_slice(&servant.stroke_latency_ms);
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    let p95 = nearest_rank(&latencies, 0.95).unwrap_or(0.0);

    // PDA screen painted remotely?
    let pda_host = *hosts.last().unwrap();
    let node = world.node(pda_host).unwrap();
    let pda_screen = node.registry.named(&format!("screen{}", participants - 1)).unwrap().id;
    let pda_draws =
        node.servant_of::<DisplayServant>(pda_screen).map(|d| d.draws).unwrap_or(0);

    SessionResult { mean_latency_ms: mean, p95_latency_ms: p95, all_delivered, pda_draws }
}

fn main() {
    println!("E7: whiteboard stroke fan-out (multi-site, last participant is a PDA)");
    const STROKES: u32 = 40;
    let mut rows = Vec::new();
    for &p in &[2usize, 4, 8, 16, 32] {
        let r = run(p, STROKES, 500 + p as u64);
        rows.push(vec![
            p.to_string(),
            f2(r.mean_latency_ms),
            f2(r.p95_latency_ms),
            if r.all_delivered { format!("{STROKES}/{STROKES}") } else { "LOSS".into() },
            r.pda_draws.to_string(),
        ]);
    }
    print_table(
        "stroke delivery latency vs participants",
        &["participants", "mean ms", "p95 ms", "delivered", "PDA remote paints"],
        &rows,
    );
}
