//! Grid scenario tests: data-parallel speedup, heterogeneous hosts,
//! volunteer crashes.

use crate::harness::deploy;
use lc_des::SimTime;
use lc_net::{HostCfg, HostId, Topology};

#[test]
fn mc_hits_is_deterministic_and_sane() {
    let a = crate::mc_hits(42, 100_000);
    let b = crate::mc_hits(42, 100_000);
    assert_eq!(a, b);
    // π/4 ≈ 0.785 of points land inside.
    let frac = a as f64 / 100_000.0;
    assert!((0.75..0.82).contains(&frac), "hit fraction {frac}");
    assert_ne!(crate::mc_hits(1, 100_000), crate::mc_hits(2, 100_000));
}

#[test]
fn single_worker_job_completes_with_pi_estimate() {
    let mut sess = deploy(Topology::lan(2), 31, &[HostId(1)]);
    let elapsed = sess.run_job(8_000_000, 8, SimTime::from_secs(60)).expect("job finishes");
    // 8M units at 100ms/M on one reference CPU ≈ 800ms of compute.
    assert!(elapsed >= SimTime::from_millis(700), "too fast: {elapsed}");
    let master = sess.master_servant().unwrap();
    let pi = master.pi_estimate();
    assert!((pi - std::f64::consts::PI).abs() < 0.05, "π estimate {pi}");
    assert_eq!(master.redispatches, 0);
}

#[test]
fn speedup_scales_with_workers() {
    let work = 16_000_000u64;
    let mut elapsed = Vec::new();
    for n_workers in [1usize, 2, 4, 8] {
        let hosts: Vec<HostId> = (1..=n_workers as u32).map(HostId).collect();
        let mut sess = deploy(Topology::lan(n_workers + 1), 32, &hosts);
        let e = sess
            .run_job(work, (n_workers * 4) as u32, SimTime::from_secs(120))
            .expect("job finishes");
        elapsed.push(e.as_secs_f64());
    }
    let speedup_2 = elapsed[0] / elapsed[1];
    let speedup_8 = elapsed[0] / elapsed[3];
    assert!(speedup_2 > 1.6, "2 workers speedup {speedup_2:.2}");
    assert!(speedup_8 > 4.0, "8 workers speedup {speedup_8:.2}");
    assert!(
        speedup_8 < 9.0,
        "superlinear speedup {speedup_8:.2} would mean broken accounting"
    );
}

#[test]
fn fast_hosts_finish_sooner() {
    // Same job on a slow host vs a 4x server.
    let mut topo = Topology::new();
    let s = topo.add_site("lan");
    let _master = topo.add_host(HostCfg::new(s));
    let slow = topo.add_host(HostCfg::new(s).cpu(0.5));
    let mut sess = deploy(topo, 33, &[slow]);
    let e_slow = sess.run_job(4_000_000, 4, SimTime::from_secs(60)).unwrap();

    let mut topo2 = Topology::new();
    let s2 = topo2.add_site("lan");
    let _master2 = topo2.add_host(HostCfg::new(s2));
    let fast = topo2.add_host(HostCfg::new(s2).server());
    let mut sess2 = deploy(topo2, 33, &[fast]);
    let e_fast = sess2.run_job(4_000_000, 4, SimTime::from_secs(60)).unwrap();

    let ratio = e_slow.as_secs_f64() / e_fast.as_secs_f64();
    assert!(ratio > 5.0, "0.5x vs 4x cpu should be ~8x wall clock, got {ratio:.1}x");
}

#[test]
fn volunteer_crash_does_not_lose_the_job() {
    let hosts: Vec<HostId> = (1..=4).map(HostId).collect();
    let mut sess = deploy(Topology::lan(5), 34, &hosts);
    // Kick off a long job, then crash two volunteers mid-flight.
    sess.start_job(16_000_000, 16);
    sess.world.run_for(SimTime::from_millis(200));
    sess.world.crash(HostId(2));
    sess.world.crash(HostId(3));

    // Keep nudging until done.
    let done = sess.await_job(SimTime::from_secs(100));
    let elapsed = done.expect("job must finish despite volunteer crashes");
    let master = sess.master_servant().unwrap();
    assert!(master.redispatches > 0, "lost chunks must be re-dispatched");
    let pi = master.pi_estimate();
    assert!((pi - std::f64::consts::PI).abs() < 0.05, "π estimate {pi}");
    let _ = elapsed;
}

#[test]
fn work_is_spread_over_volunteers() {
    let hosts: Vec<HostId> = (1..=4).map(HostId).collect();
    let mut sess = deploy(Topology::lan(5), 35, &hosts);
    sess.run_job(8_000_000, 16, SimTime::from_secs(60)).unwrap();
    let units = sess.worker_units();
    assert_eq!(units.len(), 4);
    for (host, u) in &units {
        assert!(*u > 0, "worker on {host} did nothing");
    }
}
