//! E8 — Grid data-parallel aggregation: speedup, efficiency, idle
//! harvesting and volunteer loss (§3.2, §2.1.1 "Aggregation").
//!
//! A `PiMaster` aggregation component splits a Monte-Carlo job over W
//! `PiWorker` instances, one per volunteer host. The table reports
//! makespan, speedup and efficiency vs worker count; a second table
//! shows idle-cycle harvesting on a heterogeneous volunteer pool, and a
//! third re-runs the job while half the volunteers crash mid-flight.

use crate::{f2, f3, format_table, Output};
use lc_des::SimTime;
use lc_grid::harness::deploy;
use lc_net::{HostCfg, HostId, Topology};
use std::fmt::Write as _;

const WORK: u64 = 64_000_000;

/// Run E8 and render the report.
pub fn run() -> Output {
    let mut report = String::new();
    let _ = writeln!(
        report,
        "E8: data-parallel aggregation (total work {WORK} units, 100ms/Munit)"
    );

    // --- speedup vs worker count -----------------------------------
    let mut rows = Vec::new();
    let mut base = None;
    for &w in &[1usize, 2, 4, 8, 16, 32] {
        let hosts: Vec<HostId> = (1..=w as u32).map(HostId).collect();
        let mut sess = deploy(Topology::lan(w + 1), 800 + w as u64, &hosts);
        let Some(elapsed) = sess.run_job(WORK, (w * 4) as u32, SimTime::from_secs(1200)) else {
            return Output::failed(format!("e8: the {w}-worker job did not finish"));
        };
        let secs = elapsed.as_secs_f64();
        let base_secs = *base.get_or_insert(secs);
        let speedup = base_secs / secs;
        let pi = sess.master_servant().map_or(f64::NAN, |m| m.pi_estimate());
        rows.push(vec![
            w.to_string(),
            f2(secs),
            f2(speedup),
            f2(speedup / w as f64 * 100.0),
            f3(pi),
        ]);
    }
    report.push_str(&format_table(
        "speedup vs workers (homogeneous volunteers)",
        &["workers", "makespan s", "speedup", "efficiency %", "pi estimate"],
        &rows,
    ));

    // --- idle harvesting on a heterogeneous pool ---------------------
    // 4 volunteers: a 4x server, two 1x workstations, a 0.5x relic.
    let mut topo = Topology::new();
    let s = topo.add_site("campus");
    topo.add_host(HostCfg::new(s)); // master
    topo.add_host(HostCfg::new(s).server());
    topo.add_host(HostCfg::new(s));
    topo.add_host(HostCfg::new(s));
    topo.add_host(HostCfg::new(s).cpu(0.5));
    let volunteers: Vec<HostId> = (1..=4).map(HostId).collect();
    let mut sess = deploy(topo, 900, &volunteers);
    let Some(elapsed) = sess.run_job(WORK / 4, 32, SimTime::from_secs(1200)) else {
        return Output::failed("e8: the heterogeneous job did not finish");
    };
    let mut rows = Vec::new();
    for (host, units) in sess.worker_units() {
        let Some(node) = sess.world.node(host) else { continue };
        let power = node.resources.static_info().cpu_power;
        rows.push(vec![
            host.to_string(),
            f2(power),
            units.to_string(),
            f2(units as f64 / 1e6 * 100.0 / power / 1e3), // busy seconds
        ]);
    }
    rows.push(vec!["makespan".into(), "".into(), "".into(), f2(elapsed.as_secs_f64())]);
    report.push_str(&format_table(
        "idle harvesting: heterogeneous volunteers (16M units, 32 chunks)",
        &["host", "cpu power", "units done", "busy s"],
        &rows,
    ));

    // --- volunteer loss ----------------------------------------------
    let hosts: Vec<HostId> = (1..=8).map(HostId).collect();
    let mut sess = deploy(Topology::lan(9), 901, &hosts);
    sess.start_job(WORK / 2, 32);
    sess.world.run_for(SimTime::from_millis(150));
    for h in [2u32, 3, 4, 5] {
        sess.world.crash(HostId(h));
    }
    let done = sess.await_job(SimTime::from_secs(1200));
    let Some(master) = sess.master_servant() else {
        return Output::failed("e8: the master went away");
    };
    let _ = writeln!(report, "\n== volunteer loss: 8 workers, 4 crash at t+150ms ==");
    let _ = writeln!(
        report,
        "job completed: {} (makespan {}), chunks re-dispatched: {}, pi = {:.3}",
        done.is_some(),
        done.map(|e| format!("{:.2}s", e.as_secs_f64())).unwrap_or_else(|| "-".into()),
        master.redispatches,
        master.pi_estimate()
    );
    Output { report, ..Output::default() }
}
