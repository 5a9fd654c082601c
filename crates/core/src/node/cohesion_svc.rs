//! Network Cohesion service (Fig. 1): absorbs keep-alive reports and
//! child-subtree summaries into the MRM duty soft state, sweeps that
//! state to evict silent members, and (as acting primary) pushes
//! summaries up the hierarchy. Eviction + later report re-absorption is
//! the soft-state rejoin path: a member that went silent is dropped and
//! reappears with its next report, with no membership protocol.

use crate::cohesion::{self, effective_primary, DutyState, Seat, SeatStore};
use crate::deploy::NodeView;
use crate::proto::{CtrlMsg, GroupSummary};
use crate::resource::ResourceReport;
use lc_des::Counter;
use lc_net::HostId;
use std::rc::Rc;

use super::ctx::{Node, NodeCtx};
use super::metrics::ServiceKind;
use super::service::{item, ServiceReflect, Tick};

impl Node {
    /// The node views this node can see as a level-0 MRM (for placement).
    pub fn placement_view(&self) -> Vec<NodeView> {
        let mut out = Vec::new();
        for (host, rec) in self.duty_state.first().into_iter().flat_map(|s| s.records()) {
            if let crate::cohesion::MemberRecord::Node { report, .. } = rec {
                // Rc clone: the view shares the record's snapshot.
                out.push(NodeView { host: *host, report: report.clone() });
            }
        }
        out
    }

    /// The table of `seat`, when this host holds it.
    fn held(&mut self, (level, g): Seat) -> Option<&mut DutyState> {
        let holds = self.group_at(level) == g;
        self.duty_state.get_mut(level).filter(|_| holds)
    }
}

impl NodeCtx<'_, '_> {
    /// Record a member report where the report step puts it.
    pub(crate) fn absorb_report(&mut self, from: HostId, report: ResourceReport) {
        let (seat, slot) = cohesion::report_seat(&self.state.world.shape, from);
        let now = self.sim.now();
        if let Some(store) = self.state.held(seat) {
            store.on_report(from, slot, report, now);
        }
    }

    /// Record the summary `from` pushed for its seat at `level` where the
    /// summary step puts it.
    pub(crate) fn absorb_summary(&mut self, from: HostId, level: u8, summary: Rc<GroupSummary>) {
        let (level, now, shape) = (usize::from(level), self.sim.now(), &self.state.world.shape);
        let child = (level, shape.group_of(level, u64::from(from.0)));
        let Some((seat, slot)) = cohesion::summary_seat(shape, child) else { return };
        if let Some(store) = self.state.held(seat) {
            store.on_summary(from, slot, summary, now);
        }
    }

    /// One `Tick::MrmSweep`: evict silent members from every seat, push
    /// a summary up from each seat this host is acting primary of, and
    /// re-arm the cadence.
    pub(crate) fn mrm_sweep(&mut self) {
        let timeout = self.state.world.config.cohesion.eviction_timeout();
        let now = self.sim.now();
        let (world, host) = (Rc::clone(&self.state.world), self.state.host);
        for level in 0..self.state.duty_state.len() {
            let evicted = self.state.duty_state[level].sweep(now, timeout);
            if evicted > 0 {
                self.sim.metrics().add(Counter::CohesionEvictions, evicted as u64);
            }
            // Only the acting primary pushes summaries upward.
            let g = self.state.group_at(level);
            let acting = effective_primary(world.shape.mrm_hosts(level, g), |h| world.net.is_up(h));
            let seat = &self.state.duty_state[level];
            // One aggregate, shared by every parent and kept while unchanged.
            let pushed = cohesion::push_summary(&world.shape, (level, g), acting == host, seat);
            let Some((summary, parents)) = pushed else { continue };
            for parent in parents {
                let (level, summary) = (level as u8, Rc::clone(&summary));
                self.send_ctrl(parent, CtrlMsg::Summary { from: host, level, summary });
            }
        }
        let period = self.state.world.config.cohesion.report_period;
        self.timer_in(period, Tick::MrmSweep);
    }
}

/// Reflect the Network Cohesion service's current state.
pub(crate) fn reflect(state: &Node) -> ServiceReflect {
    let level0_members = state.seat(0).map_or(0, |s| s.records().len());
    let report_targets = state.world.shape.mrm_hosts(0, state.group_at(0)).count();
    ServiceReflect {
        kind: ServiceKind::Cohesion,
        items: vec![
            item("mrm duties", state.duty_state.len()),
            item("level-0 records", level0_members),
            item("report targets", report_targets),
        ],
    }
}
