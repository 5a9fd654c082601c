//! Logical network cohesion: the hierarchical, soft-consistency,
//! peer-replicated Meta-Resource-Manager structure of §2.4.3.
//!
//! The paper's three protocol guidelines map one-to-one onto this module:
//!
//! * **Hierarchical protocol** — [`Hierarchy::build`] arranges nodes into
//!   groups of at most `fanout` members; each group elects `replicas`
//!   MRMs from its membership; group primaries are themselves grouped at
//!   the next level, recursively, up to a single root group. Queries do
//!   "incremental resource lookup": group first, escalate on miss.
//! * **Soft consistency** — members send periodic [`ResourceReport`]s
//!   that "also serve as a keep-alive mechanism"; an MRM "can suppose a
//!   node of the group has been down after some time-out" and tolerates
//!   disconnections/reconnections (a re-appearing member is simply
//!   re-absorbed on its next report).
//! * **Peer-replicated protocol** — every group has `replicas` MRMs;
//!   members multicast reports to all of them; the *primary* (the lowest-
//!   numbered replica believed alive) emits summaries and answers
//!   queries, and any replica takes over when the primaries above it go
//!   silent.
//!
//! [`ResourceReport`]: crate::resource::ResourceReport

use crate::proto::GroupSummary;
use crate::resource::ResourceReport;
use lc_des::SimTime;
use lc_net::HostId;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Parameters of the cohesion protocol.
#[derive(Clone, Debug)]
pub struct CohesionConfig {
    /// Maximum members per group (the hierarchy fanout).
    pub fanout: usize,
    /// MRM replicas per group.
    pub replicas: usize,
    /// Period between member reports (and between summary pushes).
    pub report_period: SimTime,
    /// A member is presumed dead after this many missed reports.
    pub timeout_intervals: u32,
}

impl Default for CohesionConfig {
    fn default() -> Self {
        CohesionConfig {
            fanout: 8,
            replicas: 2,
            report_period: SimTime::from_secs(2),
            timeout_intervals: 3,
        }
    }
}

impl CohesionConfig {
    /// The eviction timeout implied by the config.
    pub fn eviction_timeout(&self) -> SimTime {
        self.report_period * self.timeout_intervals as u64
    }
}

/// One group at some level of the hierarchy.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Group {
    /// Level (0 = groups of plain nodes).
    pub level: u8,
    /// Members: hosts at level 0; child-group primaries at level ≥ 1.
    pub members: Vec<HostId>,
    /// The group's MRM replicas (a prefix of `members`).
    pub mrms: Vec<HostId>,
}

impl Group {
    /// The configured primary (first replica). Failover is dynamic: the
    /// *effective* primary is the first replica believed alive.
    pub fn primary(&self) -> HostId {
        self.mrms[0]
    }
}

/// A host's MRM duty in one group.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MrmDuty {
    /// Level of the group this duty belongs to.
    pub level: u8,
    /// Fellow replicas (including self).
    pub replicas: Vec<HostId>,
    /// The hosts this MRM aggregates (group members).
    pub members: Vec<HostId>,
    /// Replicas of the parent group (`empty` for the root group).
    pub parent_replicas: Vec<HostId>,
}

/// The static MRM hierarchy (group formation).
///
/// The paper says "the protocol must also carry group formation deciding
/// the nodes that are going to implement the Meta-Resource Manager
/// interface"; in this reproduction formation is deterministic from the
/// member list (lowest ids become replicas), which is the fixed-point a
/// dynamic election would reach and keeps experiments reproducible.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// Groups per level; `levels[0]` are the leaf groups.
    pub levels: Vec<Vec<Group>>,
    /// The cohesion parameters used.
    pub config: CohesionConfig,
}

impl Hierarchy {
    /// Build the hierarchy over `hosts` (typically all hosts of the
    /// fabric, in id order — contiguous runs become groups, so arranging
    /// hosts by site yields site-aligned groups, "exploiting locality").
    pub fn build(hosts: &[HostId], config: CohesionConfig) -> Self {
        assert!(config.fanout >= 2, "fanout must be at least 2");
        assert!(config.replicas >= 1, "at least one MRM per group");
        assert!(!hosts.is_empty(), "hierarchy over zero hosts");
        let mut levels: Vec<Vec<Group>> = Vec::new();
        let mut current: Vec<HostId> = hosts.to_vec();
        let mut level: u8 = 0;
        loop {
            let groups: Vec<Group> = current
                .chunks(config.fanout)
                .map(|members| {
                    let mrms =
                        members.iter().take(config.replicas).copied().collect::<Vec<_>>();
                    Group { level, members: members.to_vec(), mrms }
                })
                .collect();
            let primaries: Vec<HostId> = groups.iter().map(Group::primary).collect();
            let done = groups.len() == 1;
            levels.push(groups);
            if done {
                break;
            }
            current = primaries;
            level += 1;
        }
        Hierarchy { levels, config }
    }

    /// Number of levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The leaf group a host belongs to.
    pub fn leaf_group_of(&self, host: HostId) -> &Group {
        match self.levels[0].iter().find(|g| g.members.contains(&host)) {
            Some(g) => g,
            None => panic!("host {host:?} not in hierarchy"),
        }
    }

    /// The MRM replicas a plain node reports to.
    pub fn report_targets(&self, host: HostId) -> Vec<HostId> {
        self.leaf_group_of(host).mrms.clone()
    }

    /// All MRM duties of a host across levels.
    pub fn duties_of(&self, host: HostId) -> Vec<MrmDuty> {
        let mut duties = Vec::new();
        for (li, groups) in self.levels.iter().enumerate() {
            for g in groups {
                if g.mrms.contains(&host) {
                    let parent_replicas = if li + 1 < self.levels.len() {
                        // parent group = the group at level li+1 containing
                        // this group's primary.
                        self.levels[li + 1]
                            .iter()
                            .find(|pg| pg.members.contains(&g.primary()))
                            .map(|pg| pg.mrms.clone())
                            .unwrap_or_default()
                    } else {
                        Vec::new()
                    };
                    duties.push(MrmDuty {
                        level: g.level,
                        replicas: g.mrms.clone(),
                        members: g.members.clone(),
                        parent_replicas,
                    });
                }
            }
        }
        duties
    }
}

/// What an MRM remembers about one member (soft state).
#[derive(Clone, Debug)]
pub enum MemberRecord {
    /// A level-0 member: its last full resource report.
    Node {
        /// Last report received.
        report: ResourceReport,
        /// When it arrived.
        at: SimTime,
    },
    /// A level-≥1 member: the last subtree summary from a child primary.
    Subtree {
        /// Last summary received — the very value the child primary built,
        /// shared with its other parent replicas.
        summary: Rc<GroupSummary>,
        /// When it arrived.
        at: SimTime,
    },
}

impl MemberRecord {
    /// Arrival time of the record.
    pub fn at(&self) -> SimTime {
        match self {
            MemberRecord::Node { at, .. } | MemberRecord::Subtree { at, .. } => *at,
        }
    }
}

/// The soft-state table one MRM duty maintains.
#[derive(Clone, Debug, Default)]
pub struct DutyState {
    /// Member → last record.
    pub records: BTreeMap<HostId, MemberRecord>,
}

impl DutyState {
    /// Absorb a node report.
    pub fn on_report(&mut self, from: HostId, report: ResourceReport, now: SimTime) {
        self.records.insert(from, MemberRecord::Node { report, at: now });
    }

    /// Absorb a child-subtree summary.
    pub fn on_summary(&mut self, from: HostId, summary: Rc<GroupSummary>, now: SimTime) {
        self.records.insert(from, MemberRecord::Subtree { summary, at: now });
    }

    /// Drop members whose last record is older than `timeout`.
    /// Returns how many were evicted.
    pub fn sweep(&mut self, now: SimTime, timeout: SimTime) -> usize {
        let before = self.records.len();
        self.records.retain(|_, r| now.saturating_sub(r.at()) <= timeout);
        before - self.records.len()
    }

    /// Members currently believed alive.
    pub fn alive(&self) -> impl Iterator<Item = HostId> + '_ {
        self.records.keys().copied()
    }

    /// Aggregate everything known into a subtree summary.
    pub fn summarize(&self) -> GroupSummary {
        let mut out = GroupSummary::default();
        for rec in self.records.values() {
            match rec {
                MemberRecord::Node { report, .. } => {
                    out.components.extend(report.installed.iter().cloned());
                    out.node_count += 1;
                    out.cpu_free +=
                        (report.static_info.cpu_power - report.dynamic.cpu_used).max(0.0);
                    out.mem_free +=
                        report.static_info.memory.saturating_sub(report.dynamic.mem_used);
                }
                MemberRecord::Subtree { summary, .. } => out.absorb(summary),
            }
        }
        out
    }

    /// Does the (believed) subtree contain a component with this name?
    pub fn may_have_component(&self, name: &str) -> Vec<HostId> {
        self.records
            .iter()
            .filter(|(_, rec)| match rec {
                MemberRecord::Node { report, .. } => {
                    report.installed.iter().any(|c| c == name)
                }
                MemberRecord::Subtree { summary, .. } => summary.components.contains(name),
            })
            .map(|(h, _)| *h)
            .collect()
    }
}

/// Pick the effective primary among `replicas`: the first one `believed`
/// reports as alive, falling back to the configured primary.
pub fn effective_primary(replicas: &[HostId], believed_alive: impl Fn(HostId) -> bool) -> HostId {
    replicas.iter().copied().find(|&h| believed_alive(h)).unwrap_or(replicas[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::{DynamicInfo, StaticInfo};
    use lc_net::DeviceClass;
    use lc_pkg::Platform;

    fn hosts(n: u32) -> Vec<HostId> {
        (0..n).map(HostId).collect()
    }

    fn report(installed: &[&str]) -> ResourceReport {
        ResourceReport {
            static_info: Rc::new(StaticInfo {
                platform: Platform::reference(),
                device: DeviceClass::Workstation,
                cpu_power: 1.0,
                memory: 1 << 30,
                up_bw: 1e7,
                down_bw: 1e7,
            }),
            dynamic: DynamicInfo { cpu_used: 0.25, mem_used: 1 << 20, instances: 1 },
            installed: installed.iter().map(|s| (*s).to_owned()).collect(),
        }
    }

    #[test]
    fn hierarchy_shape_64_nodes_fanout_8() {
        let h = Hierarchy::build(&hosts(64), CohesionConfig { fanout: 8, ..Default::default() });
        // 64 → 8 leaf groups → 1 group of 8 primaries → root
        assert_eq!(h.depth(), 2);
        assert_eq!(h.levels[0].len(), 8);
        assert_eq!(h.levels[1].len(), 1);
        assert_eq!(h.levels[1][0].members.len(), 8);
        // primaries of leaf groups are hosts 0, 8, 16, ...
        assert_eq!(h.levels[1][0].members[1], HostId(8));
    }

    #[test]
    fn hierarchy_depth_grows_logarithmically() {
        let cfg = CohesionConfig { fanout: 4, ..Default::default() };
        assert_eq!(Hierarchy::build(&hosts(4), cfg.clone()).depth(), 1);
        assert_eq!(Hierarchy::build(&hosts(16), cfg.clone()).depth(), 2);
        assert_eq!(Hierarchy::build(&hosts(64), cfg.clone()).depth(), 3);
        assert_eq!(Hierarchy::build(&hosts(256), cfg).depth(), 4);
    }

    #[test]
    fn duties_and_report_targets() {
        let h = Hierarchy::build(
            &hosts(64),
            CohesionConfig { fanout: 8, replicas: 2, ..Default::default() },
        );
        // host 5 is a plain member of group 0
        assert!(h.duties_of(HostId(5)).is_empty());
        assert_eq!(h.report_targets(HostId(5)), vec![HostId(0), HostId(1)]);
        // host 1 is replica (not primary) of leaf group 0
        let d1 = h.duties_of(HostId(1));
        assert_eq!(d1.len(), 1);
        assert_eq!(d1[0].level, 0);
        assert_eq!(d1[0].parent_replicas, vec![HostId(0), HostId(8)]);
        // host 0 is primary of leaf group 0 AND replica of the root group
        let d0 = h.duties_of(HostId(0));
        assert_eq!(d0.len(), 2);
        assert_eq!(d0[1].level, 1);
        assert!(d0[1].parent_replicas.is_empty());
        // host 8 is primary of group 1 and member+replica of root group
        let d8 = h.duties_of(HostId(8));
        assert_eq!(d8.len(), 2);
    }

    #[test]
    fn single_group_when_few_hosts() {
        let h = Hierarchy::build(&hosts(5), CohesionConfig { fanout: 8, ..Default::default() });
        assert_eq!(h.depth(), 1);
        assert_eq!(h.levels[0].len(), 1);
        assert!(h.duties_of(HostId(0)).len() == 1);
    }

    #[test]
    fn soft_state_sweep_evicts_silent_members() {
        let mut ds = DutyState::default();
        ds.on_report(HostId(1), report(&["A"]), SimTime::from_secs(0));
        ds.on_report(HostId(2), report(&["B"]), SimTime::from_secs(5));
        assert_eq!(ds.alive().count(), 2);
        let evicted = ds.sweep(SimTime::from_secs(7), SimTime::from_secs(6));
        assert_eq!(evicted, 1);
        assert_eq!(ds.alive().collect::<Vec<_>>(), vec![HostId(2)]);
        // silent node re-joins gracefully on its next report
        ds.on_report(HostId(1), report(&["A"]), SimTime::from_secs(8));
        assert_eq!(ds.alive().count(), 2);
    }

    #[test]
    fn summaries_aggregate_and_route_queries() {
        let mut ds = DutyState::default();
        ds.on_report(HostId(1), report(&["Decoder"]), SimTime::ZERO);
        ds.on_report(HostId(2), report(&["Display"]), SimTime::ZERO);
        let mut child = GroupSummary::default();
        child.components.insert("Decoder".into());
        child.node_count = 4;
        child.cpu_free = 3.0;
        ds.on_summary(HostId(8), Rc::new(child), SimTime::ZERO);

        let sum = ds.summarize();
        assert_eq!(sum.node_count, 6);
        assert!(sum.components.contains("Decoder"));
        assert!(sum.components.contains("Display"));
        assert!((sum.cpu_free - 4.5).abs() < 1e-9);

        assert_eq!(ds.may_have_component("Decoder"), vec![HostId(1), HostId(8)]);
        assert_eq!(ds.may_have_component("Display"), vec![HostId(2)]);
        assert!(ds.may_have_component("Nope").is_empty());
    }

    #[test]
    fn effective_primary_fails_over() {
        let reps = vec![HostId(0), HostId(1), HostId(2)];
        assert_eq!(effective_primary(&reps, |_| true), HostId(0));
        assert_eq!(effective_primary(&reps, |h| h != HostId(0)), HostId(1));
        assert_eq!(effective_primary(&reps, |h| h == HostId(2)), HostId(2));
        assert_eq!(effective_primary(&reps, |_| false), HostId(0));
    }
}
