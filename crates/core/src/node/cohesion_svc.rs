//! Network Cohesion service (Fig. 1): absorbs keep-alive reports and
//! child-subtree summaries into the MRM duty soft state, sweeps that
//! state to evict silent members, and (as acting primary) pushes
//! summaries up the hierarchy. Eviction + later report re-absorption is
//! the soft-state rejoin path: a member that went silent is dropped and
//! reappears with its next report, with no membership protocol.

use crate::cohesion::{effective_primary, MrmDuty};
use crate::deploy::NodeView;
use crate::proto::CtrlMsg;
use lc_des::SimTime;
use lc_net::HostId;
use std::rc::Rc;

use super::ctx::{NodeCtx, NodeState};
use super::metrics::ServiceKind;
use super::service::{item, ServiceReflect, Tick};

impl NodeState {
    /// Record a member report into the level-0 duty containing it (a
    /// host serves at most one group per level, so the report is moved
    /// into that one table).
    pub(crate) fn absorb_report(
        &mut self,
        from: HostId,
        report: crate::resource::ResourceReport,
        now: SimTime,
    ) {
        let serves = |d: &MrmDuty| d.level == 0 && d.members.contains(&from);
        if let Some(i) = self.duties.iter().position(serves) {
            self.duty_state[i].on_report(from, report, now);
        }
    }

    /// Record a child-subtree summary into the duty one level above the
    /// sender's duty (and only there — a host serving several levels must
    /// not leak level-k records into level-j routing tables).
    pub(crate) fn absorb_summary(
        &mut self,
        from: HostId,
        sender_level: u8,
        summary: Rc<crate::proto::GroupSummary>,
        now: SimTime,
    ) {
        if let Some(i) = self.duties.iter().position(|d| d.level == sender_level + 1) {
            self.duty_state[i].on_summary(from, summary, now);
        }
    }

    /// The node views this node can see as a level-0 MRM (for placement).
    pub fn placement_view(&self) -> Vec<NodeView> {
        let mut out = Vec::new();
        for (duty, state) in self.duties.iter().zip(self.duty_state.iter()) {
            if duty.level != 0 {
                continue;
            }
            for (host, rec) in state.records() {
                if let crate::cohesion::MemberRecord::Node { report, .. } = rec {
                    // Rc clone: the view shares the record's snapshot.
                    out.push(NodeView { host: *host, report: report.clone() });
                }
            }
        }
        out
    }
}

impl NodeCtx<'_, '_> {
    /// One `Tick::MrmSweep`: evict silent members from every duty, push
    /// a summary up from each duty this host is acting primary of, and
    /// re-arm the cadence.
    pub(crate) fn mrm_sweep(&mut self) {
        let timeout = self.state.cfg.cohesion.eviction_timeout();
        let now = self.sim.now();
        let duties = Rc::clone(&self.state.duties);
        for (i, duty) in duties.iter().enumerate() {
            let evicted = self.state.duty_state[i].sweep(now, timeout);
            if evicted > 0 {
                self.sim.metrics().add("cohesion.evictions", evicted as u64);
            }
            // Only the acting primary pushes summaries upward.
            if duty.parent_replicas.is_empty() {
                continue;
            }
            let acting = effective_primary(&duty.replicas, |h| self.state.net.is_up(h));
            if acting != self.state.host {
                continue;
            }
            // One aggregate, shared by every parent and kept while unchanged.
            let summary = self.state.duty_state[i].summary();
            let msg = CtrlMsg::Summary { from: self.state.host, level: duty.level, summary };
            for &parent in &duty.parent_replicas {
                self.send_ctrl(parent, msg.clone());
            }
        }
        let period = self.state.cfg.cohesion.report_period;
        self.timer_in(period, Tick::MrmSweep);
    }
}

/// Reflect the Network Cohesion service's current state.
pub(crate) fn reflect(state: &NodeState) -> ServiceReflect {
    let level0_members: usize = state
        .duties
        .iter()
        .zip(state.duty_state.iter())
        .filter(|(d, _)| d.level == 0)
        .map(|(_, s)| s.records().len())
        .sum();
    ServiceReflect {
        kind: ServiceKind::Cohesion,
        items: vec![
            item("mrm duties", state.duties.len()),
            item("level-0 records", level0_members),
            item("report targets", state.report_targets.len()),
        ],
    }
}
