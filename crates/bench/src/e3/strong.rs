//! Strong-consistency membership: E3's baseline (§4 of the paper).
//!
//! The paper's soft-consistency guideline is justified by contrast with
//! protocols where managers keep "perfect knowledge of the set of hosts
//! they manage". This module implements that contrast: a coordinator-
//! driven group-membership protocol in the style of Cristian & Schmuck
//! (the paper's reference \[2\]):
//!
//! * every member heartbeats the coordinator each period;
//! * the coordinator detects a change (join, leave, missed heartbeats)
//!   and installs a **new view** by broadcasting `(generation, members)`
//!   to *all* members, each of which acknowledges;
//! * a view is only committed when every member has acked (blocking
//!   re-broadcast per period until then).
//!
//! Cost shape: steady state pays N heartbeats per period (like soft
//! consistency) **plus** `O(N)` view+ack messages *per membership
//! change* — under churn of rate λ, that is `O(λ·N)` extra traffic and
//! it balloons as the system grows, which is exactly what E3 measures.

use lc_des::{Actor, Counter, Ctx, Mail, SimTime};
use lc_net::{HostId, Net, NetMsg};
use std::collections::BTreeSet;

/// Protocol messages. `Clone` because the fabric may duplicate frames
/// in flight; the protocol is idempotent under duplicates.
#[derive(Clone)]
enum Msg {
    /// Member → coordinator, each period.
    Heartbeat { from: HostId },
    /// Coordinator → everyone on a view change.
    View { generation: u64, members: BTreeSet<HostId> },
    /// Member → coordinator, confirming a view.
    ViewAck { from: HostId, generation: u64 },
}

const HEARTBEAT_SIZE: u64 = 40;
const ACK_SIZE: u64 = 48;

fn view_size(members: &BTreeSet<HostId>) -> u64 {
    32 + members.len() as u64 * 8
}

/// Timer messages.
enum Tick {
    Heartbeat,
    Sweep,
}

/// Heartbeat periods a member may stay silent before the coordinator
/// declares it dead.
const TIMEOUT_PERIODS: u64 = 3;

/// One member of the strongly consistent group. Host 0 is the fixed
/// coordinator (the baseline does not model coordinator failover; E3
/// runs churn on the other members).
pub struct StrongMember {
    host: HostId,
    net: Net,
    /// Heartbeat (and sweep) period.
    period: SimTime,
    all_hosts: Vec<HostId>,
    // coordinator state
    last_heartbeat: Vec<(HostId, SimTime)>,
    view: BTreeSet<HostId>,
    generation: u64,
    unacked: BTreeSet<HostId>,
    // member state
    current_generation: u64,
}

impl StrongMember {
    fn new(host: HostId, net: Net, period: SimTime, all_hosts: Vec<HostId>) -> Self {
        let view = all_hosts.iter().copied().collect();
        StrongMember {
            host,
            net,
            period,
            all_hosts,
            last_heartbeat: Vec::new(),
            view,
            generation: 0,
            unacked: BTreeSet::new(),
            current_generation: 0,
        }
    }

    /// Install into a simulation: spawn, bind, start timers that fire
    /// every `period`.
    pub fn install(sim: &mut lc_des::Sim, net: &Net, period: SimTime) -> Vec<lc_des::ActorId> {
        net.host_ids()
            .into_iter()
            .map(|host| Self::install_one(sim, net, period, host))
            .collect()
    }

    /// (Re)install a single member — used for initial bring-up and for
    /// rejoin after a crash.
    pub fn install_one(
        sim: &mut lc_des::Sim,
        net: &Net,
        period: SimTime,
        host: HostId,
    ) -> lc_des::ActorId {
        let member = StrongMember::new(host, net.clone(), period, net.host_ids());
        let a = sim.spawn(member);
        net.bind(host, a);
        let jitter = SimTime::from_micros(113 * (host.0 as u64 + 1));
        sim.send_in(jitter, a, Tick::Heartbeat);
        if host == HostId(0) {
            sim.send_in(jitter + period / 2, a, Tick::Sweep);
        }
        a
    }

    fn coordinator(&self) -> HostId {
        HostId(0)
    }

    fn is_coordinator(&self) -> bool {
        self.host == self.coordinator()
    }

    fn broadcast_view(&mut self, ctx: &mut Ctx<'_>) {
        self.generation += 1;
        self.unacked = self.view.clone();
        self.unacked.remove(&self.host);
        let size = view_size(&self.view);
        for &m in self.view.clone().iter() {
            if m == self.host {
                continue;
            }
            let _ = self.net.send(
                ctx,
                self.host,
                m,
                size,
                Msg::View { generation: self.generation, members: self.view.clone() },
            );
            ctx.metrics().incr(Counter::StrongViewMsgs);
        }
        ctx.metrics().incr(Counter::StrongViewChanges);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_>, tick: Tick) {
        match tick {
            Tick::Heartbeat => {
                if !self.is_coordinator() {
                    let _ = self.net.send(
                        ctx,
                        self.host,
                        self.coordinator(),
                        HEARTBEAT_SIZE,
                        Msg::Heartbeat { from: self.host },
                    );
                    ctx.metrics().incr(Counter::StrongHeartbeats);
                }
                ctx.timer_in(self.period, Tick::Heartbeat);
            }
            Tick::Sweep => {
                debug_assert!(self.is_coordinator());
                let now = ctx.now();
                let timeout = self.period * TIMEOUT_PERIODS;
                let mut next_view = self.view.clone();
                // Evict silent members (the coordinator itself stays).
                for &h in &self.all_hosts {
                    if h == self.host {
                        continue;
                    }
                    let last = self
                        .last_heartbeat
                        .iter()
                        .find(|(m, _)| *m == h)
                        .map(|(_, t)| *t)
                        .unwrap_or(SimTime::ZERO);
                    if now.saturating_sub(last) > timeout {
                        next_view.remove(&h);
                    } else {
                        next_view.insert(h);
                    }
                }
                if next_view != self.view {
                    self.view = next_view;
                    self.broadcast_view(ctx);
                } else if !self.unacked.is_empty() {
                    // Re-broadcast until unanimously acknowledged —
                    // strong consistency blocks on every member.
                    self.broadcast_view(ctx);
                }
                ctx.timer_in(self.period, Tick::Sweep);
            }
        }
    }

    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg {
            Msg::Heartbeat { from } => {
                let now = ctx.now();
                if let Some(e) = self.last_heartbeat.iter_mut().find(|(m, _)| *m == from) {
                    e.1 = now;
                } else {
                    self.last_heartbeat.push((from, now));
                    // A brand-new (or returning) member triggers a view
                    // change immediately.
                    if !self.view.contains(&from) {
                        self.view.insert(from);
                        self.broadcast_view(ctx);
                    }
                }
            }
            Msg::View { generation, members } => {
                self.current_generation = generation;
                let _ = members;
                let _ = self.net.send(
                    ctx,
                    self.host,
                    self.coordinator(),
                    ACK_SIZE,
                    Msg::ViewAck { from: self.host, generation },
                );
                ctx.metrics().incr(Counter::StrongAcks);
            }
            Msg::ViewAck { from, generation } => {
                if generation == self.generation {
                    self.unacked.remove(&from);
                    if self.unacked.is_empty() {
                        ctx.metrics().incr(Counter::StrongViewsCommitted);
                    }
                }
            }
        }
    }
}

impl Actor for StrongMember {
    fn handle_mail(&mut self, ctx: &mut Ctx<'_>, mail: Mail<'_>) {
        let mail = match ctx.open::<Tick>(mail) {
            Ok(t) => return self.on_tick(ctx, t),
            Err(m) => m,
        };
        if let Ok(net_msg) = ctx.open::<NetMsg<Msg>>(mail) {
            self.on_msg(ctx, net_msg.payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_des::Sim;
    use lc_net::Topology;

    fn run_stable(n: usize, secs: u64) -> (u64, u64, u64) {
        let net = Net::builder(Topology::lan(n)).build();
        let mut sim = Sim::new(7);
        let period = SimTime::from_millis(500);
        StrongMember::install(&mut sim, &net, period);
        sim.run_until(SimTime::from_secs(secs));
        (
            sim.metrics_ref().counter("strong.heartbeats"),
            sim.metrics_ref().counter("strong.view_msgs"),
            sim.metrics_ref().counter("strong.view_changes"),
        )
    }

    #[test]
    fn stable_group_pays_only_heartbeats() {
        let (hb, views, changes) = run_stable(16, 20);
        assert!(hb > 15 * 30, "heartbeats flow: {hb}");
        assert_eq!(changes, 0, "no churn → no view changes");
        assert_eq!(views, 0);
    }

    #[test]
    fn crash_triggers_acked_view_broadcast() {
        let net = Net::builder(Topology::lan(8)).build();
        let mut sim = Sim::new(9);
        let period = SimTime::from_millis(500);
        let actors = StrongMember::install(&mut sim, &net, period);
        sim.run_until(SimTime::from_secs(5));
        // Crash member 5.
        net.set_host_up(lc_net::HostId(5), false);
        sim.kill(actors[5]);
        sim.run_until(SimTime::from_secs(15));
        let m = sim.metrics_ref();
        assert!(m.counter("strong.view_changes") >= 1);
        // view broadcast went to ~6 surviving non-coordinator members
        assert!(m.counter("strong.view_msgs") >= 6);
        assert!(m.counter("strong.views_committed") >= 1);
        let coord = sim.actor_as::<StrongMember>(actors[0]).unwrap();
        assert_eq!(coord.view.len(), 7);
    }

    #[test]
    fn rejoin_triggers_another_view() {
        let net = Net::builder(Topology::lan(4)).build();
        let mut sim = Sim::new(11);
        let period = SimTime::from_millis(500);
        let actors = StrongMember::install(&mut sim, &net, period);
        sim.run_until(SimTime::from_secs(4));
        net.set_host_up(lc_net::HostId(2), false);
        sim.kill(actors[2]);
        sim.run_until(SimTime::from_secs(10));
        let changes_after_crash = sim.metrics_ref().counter("strong.view_changes");
        assert!(changes_after_crash >= 1);
        // Recover: fresh member actor.
        net.set_host_up(lc_net::HostId(2), true);
        StrongMember::install_one(&mut sim, &net, period, lc_net::HostId(2));
        sim.run_until(SimTime::from_secs(16));
        assert!(sim.metrics_ref().counter("strong.view_changes") > changes_after_crash);
        let coord = sim.actor_as::<StrongMember>(actors[0]).unwrap();
        assert_eq!(coord.view.len(), 4);
    }
}
