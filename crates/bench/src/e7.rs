//! E7 — CSCW whiteboard: event fan-out at scale, with a PDA participant
//! (R7: one component model for all tiers; R8: tiny devices).
//!
//! A whiteboard session spans several sites; participants' GUI parts
//! subscribe to the board's stroke channel and paint through their local
//! displays. One participant is a PDA: its GUI part runs on a nearby
//! server ("they can use all components remotely") but paints on the
//! PDA's own screen over its slow wireless link.

use crate::{f2, format_table, Output};
use lc_core::node::NodeCmd;
use lc_core::testkit::{fast_config, World};
use lc_cscw::{DisplayServant, GuiPartServant};
use lc_des::{nearest_rank, SimTime};
use lc_net::{HostCfg, Topology};
use lc_orb::Value;

struct SessionResult {
    mean_latency_ms: f64,
    p95_latency_ms: f64,
    all_delivered: bool,
    pda_draws: u64,
}

fn session(participants: usize, strokes: u32, seed: u64) -> SessionResult {
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
    let mut world = World::on(
        topo,
        seed,
        fast_config(),
        lc_cscw::catalog(),
        |_| lc_cscw::session_packages(),
    );
    world.sim.run_until(SimTime::from_millis(50));

    let wait = SimTime::from_millis(20);
    let board = world.spawn(board_host, "Whiteboard", Some("board"), wait);
    let mut gui_homes = Vec::new(); // (gui host, gui name)
    for (p, &host) in hosts.iter().enumerate() {
        let is_pda = p == participants - 1;
        let display = world.spawn(host, "CscwDisplay", Some(&format!("screen{p}")), wait);
        // R8: the PDA cannot host the GUI part; it runs on the board's
        // server and uses the PDA's display remotely.
        let gui_host = if is_pda { board_host } else { host };
        let gui = world.spawn(gui_host, "CscwGuiPart", Some(&format!("gui{p}")), wait);
        world.oneway(gui_host, &gui, "_connect_display", vec![Value::ObjRef(display)]);
        world.cmd(
            gui_host,
            NodeCmd::Subscribe {
                producer: board.clone(),
                port: "strokes".into(),
                consumer: gui,
                delivery_op: "_push_strokes".into(),
            },
        );
        gui_homes.push((gui_host, format!("gui{p}")));
    }
    world.run_for(SimTime::from_millis(200));

    for k in 0..strokes {
        let k = k as i32;
        let stroke = vec![Value::Long(k), Value::Long(0), Value::Long(k + 3), Value::Long(3)];
        world.oneway(board_host, &board, "user_stroke", stroke);
        world.run_for(SimTime::from_millis(50));
    }
    world.run_for(SimTime::from_secs(2));

    let mut latencies = Vec::new();
    let mut all_delivered = true;
    for (gui_host, gui_name) in &gui_homes {
        let servant = world.node(*gui_host).and_then(|node| {
            node.servant_of::<GuiPartServant>(node.registry.named(gui_name)?.id)
        });
        let Some(servant) = servant else {
            all_delivered = false;
            continue;
        };
        if servant.strokes_seen != strokes as u64 {
            all_delivered = false;
        }
        latencies.extend_from_slice(&servant.stroke_latency_ms);
    }
    latencies.sort_by(f64::total_cmp);
    let mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    let p95 = nearest_rank(&latencies, 0.95).unwrap_or(0.0);

    // PDA screen painted remotely?
    let pda_draws = hosts
        .last()
        .and_then(|&pda| world.node(pda))
        .and_then(|node| {
            let screen = node.registry.named(&format!("screen{}", participants - 1))?;
            node.servant_of::<DisplayServant>(screen.id)
        })
        .map_or(0, |d| d.draws);

    SessionResult { mean_latency_ms: mean, p95_latency_ms: p95, all_delivered, pda_draws }
}

/// Run E7 and render the report.
pub fn run() -> Output {
    let mut report =
        "E7: whiteboard stroke fan-out (multi-site, last participant is a PDA)\n".to_owned();
    const STROKES: u32 = 40;
    let mut rows = Vec::new();
    for &p in &[2usize, 4, 8, 16, 32] {
        let r = session(p, STROKES, 500 + p as u64);
        rows.push(vec![
            p.to_string(),
            f2(r.mean_latency_ms),
            f2(r.p95_latency_ms),
            if r.all_delivered { format!("{STROKES}/{STROKES}") } else { "LOSS".into() },
            r.pda_draws.to_string(),
        ]);
    }
    report.push_str(&format_table(
        "stroke delivery latency vs participants",
        &["participants", "mean ms", "p95 ms", "delivered", "PDA remote paints"],
        &rows,
    ));
    Output { report, ..Output::default() }
}
