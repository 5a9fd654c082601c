//! Churn injection: a continuous crash/recovery process over the hosts.
//!
//! The paper requires the cohesion protocol to "support spurious node
//! failures and node disconnections (and re-connections) gracefully"
//! (§2.4.3). This driver turns that sentence into a workload: each host
//! independently alternates between UP periods (exponentially distributed
//! with mean `mean_uptime`) and DOWN periods (mean `mean_downtime`).
//!
//! A fabric is given its churn process by [`crate::NetBuilder::churn`]
//! and arms it with [`Net::install_drivers`], the one way a process is
//! armed. The driver only toggles fabric reachability
//! ([`Net::set_host_up`]) and invokes callbacks; the component layer
//! above decides what a crash does to the node process (kill the actor,
//! lose soft state, etc.).

use crate::{HostId, Net};
use lc_des::{Sim, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Parameters of the crash/recovery process.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Mean time a host stays up before crashing.
    pub mean_uptime: SimTime,
    /// Mean time a host stays down before recovering.
    pub mean_downtime: SimTime,
    /// Hosts subject to churn (others are stable).
    pub victims: Vec<HostId>,
    /// Stop injecting after this time (hosts recover but no new crashes).
    pub until: SimTime,
}

/// A churn callback: `(simulation, affected host)`.
pub type ChurnHook = Box<dyn FnMut(&mut Sim, HostId)>;

/// Callbacks fired when churn changes a host's state.
///
/// `on_crash` runs immediately after the fabric marks the host down;
/// `on_recover` immediately after it is marked up again.
pub struct ChurnHooks {
    /// Called with `(sim, host)` when the host crashes.
    pub on_crash: ChurnHook,
    /// Called with `(sim, host)` when the host recovers.
    pub on_recover: ChurnHook,
}

impl Default for ChurnHooks {
    fn default() -> Self {
        ChurnHooks { on_crash: Box::new(|_, _| {}), on_recover: Box::new(|_, _| {}) }
    }
}

/// Arm the churn process: schedule the first crash of every victim host.
/// `hooks` are shared with the fault plan's crash schedule.
pub(crate) fn install(sim: &mut Sim, net: &Net, cfg: ChurnConfig, hooks: Rc<RefCell<ChurnHooks>>) {
    assert!(cfg.mean_uptime > SimTime::ZERO, "mean uptime must be positive");
    assert!(cfg.mean_downtime > SimTime::ZERO, "mean downtime must be positive");
    for &h in &cfg.victims {
        let first = exponential(sim, cfg.mean_uptime);
        schedule_crash(sim, net.clone(), cfg.clone(), hooks.clone(), h, first);
    }
}

/// Draw an exponentially distributed delay with the given mean.
fn exponential(sim: &mut Sim, mean: SimTime) -> SimTime {
    let u: f64 = sim.rng().gen_range(f64::EPSILON..1.0);
    mean.mul_f64(-u.ln())
}

fn schedule_crash(
    sim: &mut Sim,
    net: Net,
    cfg: ChurnConfig,
    hooks: Rc<RefCell<ChurnHooks>>,
    h: HostId,
    delay: SimTime,
) {
    if sim.now() + delay > cfg.until {
        return;
    }
    sim.control_in(delay, move |sim| {
        net.set_host_up(h, false);
        sim.metrics().incr("churn.crashes");
        (hooks.borrow_mut().on_crash)(sim, h);
        let down_for = exponential(sim, cfg.mean_downtime);
        schedule_recovery(sim, net, cfg, hooks, h, down_for);
    });
}

fn schedule_recovery(
    sim: &mut Sim,
    net: Net,
    cfg: ChurnConfig,
    hooks: Rc<RefCell<ChurnHooks>>,
    h: HostId,
    delay: SimTime,
) {
    sim.control_in(delay, move |sim| {
        net.set_host_up(h, true);
        sim.metrics().incr("churn.recoveries");
        (hooks.borrow_mut().on_recover)(sim, h);
        let up_for = exponential(sim, cfg.mean_uptime);
        schedule_crash(sim, net, cfg, hooks, h, up_for);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn churn_crashes_and_recovers() {
        let net = Net::builder(Topology::lan(10))
            .churn(ChurnConfig {
                mean_uptime: SimTime::from_secs(10),
                mean_downtime: SimTime::from_secs(2),
                victims: (0..10).map(HostId).collect(),
                until: SimTime::from_secs(120),
            })
            .build();
        let crashes = Arc::new(AtomicU32::new(0));
        let recoveries = Arc::new(AtomicU32::new(0));
        let (c2, r2) = (crashes.clone(), recoveries.clone());
        let mut sim = Sim::new(99);
        net.install_drivers(&mut sim, || ChurnHooks {
            on_crash: Box::new(move |_, _| {
                c2.fetch_add(1, Ordering::Relaxed);
            }),
            on_recover: Box::new(move |_, _| {
                r2.fetch_add(1, Ordering::Relaxed);
            }),
        });
        sim.run_until(SimTime::from_secs(200));
        let c = crashes.load(Ordering::Relaxed);
        let r = recoveries.load(Ordering::Relaxed);
        // 10 hosts, 120s of injection, ~12s cycle → on the order of 100
        // crash events; the bound is loose on purpose.
        assert!(c > 20, "expected plenty of crashes, got {c}");
        // every crash recovers (injection stops at 120s, run to 200s)
        assert_eq!(c, r);
        assert_eq!(sim.metrics_ref().counter("churn.crashes"), c as u64);
        // everyone is back up at the end
        for h in net.host_ids() {
            assert!(net.is_up(h));
        }
    }

    #[test]
    fn churn_is_deterministic_per_seed() {
        fn run(seed: u64) -> u64 {
            let net = Net::builder(Topology::lan(5))
                .churn(ChurnConfig {
                    mean_uptime: SimTime::from_secs(5),
                    mean_downtime: SimTime::from_secs(1),
                    victims: (0..5).map(HostId).collect(),
                    until: SimTime::from_secs(60),
                })
                .build();
            let mut sim = Sim::new(seed);
            net.install_drivers(&mut sim, ChurnHooks::default);
            sim.run_until(SimTime::from_secs(100));
            sim.metrics_ref().counter("churn.crashes")
        }
        assert_eq!(run(4), run(4));
    }
}
