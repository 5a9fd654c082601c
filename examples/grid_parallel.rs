//! Volunteer grid computing with an aggregation component (§3.2).
//!
//! A `PiMaster` splits a Monte-Carlo π job over volunteer workstations
//! (one crashes mid-job and the work is re-dispatched), then the result
//! is gathered and reported with the achieved speedup.
//!
//! Run with `cargo run --release --example grid_parallel`.

use corba_lc_repro::des::SimTime;
use corba_lc_repro::grid::harness::deploy;
use corba_lc_repro::net::{HostId, Topology};

fn main() {
    const WORK: u64 = 32_000_000; // 3.2 virtual CPU-seconds of sampling

    // Sequential reference: one volunteer.
    let mut solo = deploy(Topology::lan(2), 1, &[HostId(1)]);
    let t_solo = solo.run_job(WORK, 8, SimTime::from_secs(600)).expect("solo job");
    println!(
        "1 volunteer : {:.2}s, pi ≈ {:.4}",
        t_solo.as_secs_f64(),
        solo.master_servant().unwrap().pi_estimate()
    );

    // Eight volunteers, one of which dies mid-job.
    let volunteers: Vec<HostId> = (1..=8).map(HostId).collect();
    let mut sess = deploy(Topology::lan(9), 2, &volunteers);
    sess.start_job(WORK, 32);
    sess.world.run_for(SimTime::from_millis(100));
    println!("\n8 volunteers: job started; volunteer host4 crashes at t+100ms…");
    sess.world.crash(HostId(4));

    let elapsed = sess.await_job(SimTime::from_secs(600));
    let e = elapsed.expect("job survives the crash");
    let m = sess.master_servant().unwrap();
    println!(
        "8 volunteers: {:.2}s despite the crash ({} chunks re-dispatched), pi ≈ {:.4}",
        e.as_secs_f64(),
        m.redispatches,
        m.pi_estimate()
    );
    println!("speedup     : {:.2}x over one volunteer", t_solo.as_secs_f64() / e.as_secs_f64());

    println!("\nwork distribution (idle-cycle harvesting):");
    for (host, units) in sess.worker_units() {
        println!("  {host}: {units} units");
    }
}
