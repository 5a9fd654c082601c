//! Network Cohesion service (Fig. 1): absorbs keep-alive reports and
//! child-subtree summaries into the MRM duty soft state, sweeps that
//! state to evict silent members, and (as acting primary) pushes
//! summaries up the hierarchy. Eviction + later report re-absorption is
//! the soft-state rejoin path: a member that went silent is dropped and
//! reappears with its next report, with no membership protocol.

use crate::cohesion::effective_primary;
use crate::deploy::NodeView;
use crate::proto::CtrlMsg;
use lc_des::{Counter, SimTime};
use lc_net::HostId;
use std::rc::Rc;

use super::ctx::{NodeCtx, NodeState};
use super::metrics::ServiceKind;
use super::service::{item, ServiceReflect, Tick};

impl NodeState {
    /// Record a member report into the level-0 seat, when `from` is a
    /// member of its group (a host holds at most one seat per level, so
    /// the report is moved into that one table).
    pub(crate) fn absorb_report(
        &mut self,
        from: HostId,
        report: crate::resource::ResourceReport,
        now: SimTime,
    ) {
        let member = self.shape.leaf_group_of(u64::from(from.0)) == self.group_at(0);
        if let Some(seat) = self.duty_state.first_mut().filter(|_| member) {
            seat.on_report(from, report, now);
        }
    }

    /// Record a child-subtree summary into the seat one level above the
    /// sender's (and only there — a host serving several levels must not
    /// leak level-k records into level-j routing tables). Keyed by the
    /// sender, with no membership check: a backup replica acting as its
    /// group's primary sends under its own id.
    pub(crate) fn absorb_summary(
        &mut self,
        from: HostId,
        sender_level: u8,
        summary: Rc<crate::proto::GroupSummary>,
        now: SimTime,
    ) {
        if let Some(seat) = self.duty_state.get_mut(usize::from(sender_level) + 1) {
            seat.on_summary(from, summary, now);
        }
    }

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
}

impl NodeCtx<'_, '_> {
    /// One `Tick::MrmSweep`: evict silent members from every seat, push
    /// a summary up from each seat this host is acting primary of, and
    /// re-arm the cadence.
    pub(crate) fn mrm_sweep(&mut self) {
        let timeout = self.state.cfg.cohesion.eviction_timeout();
        let now = self.sim.now();
        let shape = Rc::clone(&self.state.shape);
        for level in 0..self.state.duty_state.len() {
            let evicted = self.state.duty_state[level].sweep(now, timeout);
            if evicted > 0 {
                self.sim.metrics().add(Counter::CohesionEvictions, evicted as u64);
            }
            // Only the acting primary pushes summaries upward.
            let g = self.state.group_at(level);
            let Some((pl, pg)) = shape.parent(level, g) else { continue };
            let acting = effective_primary(shape.mrm_hosts(level, g), |h| self.state.net.is_up(h));
            if acting != self.state.host {
                continue;
            }
            // One aggregate, shared by every parent and kept while unchanged.
            let summary = self.state.duty_state[level].summary();
            let msg = CtrlMsg::Summary { from: self.state.host, level: level as u8, summary };
            for parent in shape.mrm_hosts(pl, pg) {
                self.send_ctrl(parent, msg.clone());
            }
        }
        let period = self.state.cfg.cohesion.report_period;
        self.timer_in(period, Tick::MrmSweep);
    }
}

/// Reflect the Network Cohesion service's current state.
pub(crate) fn reflect(state: &NodeState) -> ServiceReflect {
    let level0_members = state.seat(0).map_or(0, |s| s.records().len());
    let report_targets = state.shape.mrms(0, state.group_at(0)).count();
    ServiceReflect {
        kind: ServiceKind::Cohesion,
        items: vec![
            item("mrm duties", state.duty_state.len()),
            item("level-0 records", level0_members),
            item("report targets", report_targets),
        ],
    }
}
