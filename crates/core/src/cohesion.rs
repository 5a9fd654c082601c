//! Logical network cohesion: the hierarchical, soft-consistency,
//! peer-replicated Meta-Resource-Manager structure of §2.4.3.
//!
//! The paper's three protocol guidelines map one-to-one onto this module:
//!
//! * **Hierarchical protocol** — [`HierShape`] arranges nodes into
//!   groups of at most `fanout` members; each group elects `replicas`
//!   MRMs from its membership; group primaries are themselves grouped at
//!   the next level, recursively, up to a single root group. Queries do
//!   "incremental resource lookup": group first, escalate on miss
//!   ([`route_query`]).
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
//! An MRM seat is one state machine with two drivers: four steps decide
//! where a report ([`report_seat`]) and a summary ([`summary_seat`]) land,
//! when a seat pushes up and to whom ([`push_summary`]), and where a query
//! goes ([`route_query`]), over either [`SeatStore`].
//!
//! [`ResourceReport`]: crate::resource::ResourceReport

use crate::proto::GroupSummary;
use crate::resource::ResourceReport;
use lc_des::SimTime;
use lc_net::HostId;
use lc_orb::Name;
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};
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
    /// The centralized-registry baseline (§4; E2, E5, E10): the
    /// hierarchy collapsed into one group of `n_hosts`, so every node
    /// reports to host 0 (and its `replicas - 1` stand-bys) and every
    /// query is a two-hop star walk through host 0.
    pub fn flat(n_hosts: usize, replicas: usize, report_period: SimTime) -> CohesionConfig {
        CohesionConfig { fanout: n_hosts.max(2), replicas, report_period, timeout_intervals: 3 }
    }

    /// The tree over hosts `0..hosts` (all hosts of the fabric —
    /// contiguous runs become groups, so arranging hosts by site yields
    /// site-aligned groups, "exploiting locality").
    pub fn shape(&self, hosts: usize) -> HierShape {
        assert!(u32::try_from(hosts).is_ok(), "host ids are u32");
        HierShape::build(hosts as u64, self.fanout as u64, self.replicas as u64)
    }

    /// The eviction timeout implied by the config.
    pub fn eviction_timeout(&self) -> SimTime {
        self.report_period * self.timeout_intervals as u64
    }
}

/// The MRM hierarchy over hosts `0..n`, as arithmetic.
///
/// Groups are chunks of `fanout` consecutive members, the first
/// `replicas` of each chunk are its MRMs, and the chunk primaries are
/// the members one level up. Over the contiguous id range every group
/// is therefore an arithmetic progression — the `j`-th member of group
/// `g` at level `l` is host `(g·f + j)·fˡ` — so membership, replica
/// sets, parents and subtree spans are computed on demand from
/// `(n, fanout, replicas)` with no member `Vec`s at all. A seat is the
/// coordinate `(level, g)`: every node addresses its own
/// ([`seats_of`](Self::seats_of)) and its peers' in the world's one
/// shape, as a 10⁶-node [`ScaleCampus`](crate::scale::ScaleCampus) does,
/// in a few dozen bytes.
///
/// The paper says "the protocol must also carry group formation deciding
/// the nodes that are going to implement the Meta-Resource Manager
/// interface"; in this reproduction formation is deterministic from the
/// host ids (lowest ids become replicas), which is the fixed-point a
/// dynamic election would reach and keeps experiments reproducible.
#[derive(Clone, Debug)]
pub struct HierShape {
    n: u64,
    fanout: u64,
    replicas: u64,
    /// Groups per level; `group_counts[0]` are leaf groups, last is 1.
    group_counts: Vec<u64>,
}

impl HierShape {
    /// Shape of the hierarchy over `n` hosts.
    pub fn build(n: u64, fanout: u64, replicas: u64) -> HierShape {
        assert!(fanout >= 2, "fanout must be at least 2");
        assert!(replicas >= 1, "at least one MRM per group");
        assert!(n >= 1, "hierarchy over zero hosts");
        let mut group_counts = Vec::new();
        let mut members = n;
        loop {
            let groups = members.div_ceil(fanout);
            group_counts.push(groups);
            if groups == 1 {
                break;
            }
            members = groups;
        }
        HierShape { n, fanout, replicas, group_counts }
    }

    /// The fanout.
    pub fn fanout(&self) -> u64 {
        self.fanout
    }

    /// Number of levels (1 = a single root group of plain nodes).
    pub fn depth(&self) -> usize {
        self.group_counts.len()
    }

    /// Number of groups at `level`.
    pub fn group_count(&self, level: usize) -> u64 {
        self.group_counts[level]
    }

    /// Members at `level` (hosts at level 0, child primaries above).
    fn members_at(&self, level: usize) -> u64 {
        if level == 0 {
            self.n
        } else {
            self.group_counts[level - 1]
        }
    }

    /// Host-id stride between adjacent members at `level` (`fanoutˡ`).
    fn stride(&self, level: usize) -> u64 {
        debug_assert!(level < self.group_counts.len());
        self.fanout.pow(level as u32)
    }

    /// Number of members in group `g` at `level`.
    pub fn group_size(&self, level: usize, g: u64) -> u64 {
        (self.members_at(level) - g * self.fanout).min(self.fanout)
    }

    /// Host id of member `j` of group `g` at `level`.
    pub fn member(&self, level: usize, g: u64, j: u64) -> u64 {
        debug_assert!(j < self.group_size(level, g));
        (g * self.fanout + j) * self.stride(level)
    }

    /// All members of group `g` at `level`, in id order.
    pub fn members(&self, level: usize, g: u64) -> impl Iterator<Item = u64> + '_ {
        (0..self.group_size(level, g)).map(move |j| self.member(level, g, j))
    }

    /// The group's primary (first member, first replica). Failover is
    /// dynamic: the *effective* primary is the first replica believed
    /// alive ([`effective_primary`]).
    pub fn primary(&self, level: usize, g: u64) -> u64 {
        self.member(level, g, 0)
    }

    /// MRM seats in group `g` at `level`: `replicas`, or every member of
    /// a smaller group.
    fn seats(&self, level: usize, g: u64) -> u64 {
        self.group_size(level, g).min(self.replicas)
    }

    /// Parent group of group `g` at `level` (`None` at the root level).
    pub fn parent(&self, level: usize, g: u64) -> Option<(usize, u64)> {
        if level + 1 < self.depth() {
            Some((level + 1, g / self.fanout))
        } else {
            None
        }
    }

    /// Host-id span covered by the subtree under group `g` at `level`.
    pub fn subtree(&self, level: usize, g: u64) -> std::ops::Range<u64> {
        let width = self.stride(level) * self.fanout;
        (g * width)..((g + 1) * width).min(self.n)
    }

    /// The group at `level` whose subtree holds `host` — for a host that
    /// is a member there, its own group; at level 0, its leaf group.
    pub fn group_of(&self, level: usize, host: u64) -> u64 {
        debug_assert!(host < self.n);
        host / (self.stride(level) * self.fanout)
    }

    /// The MRM seats `host` holds, leaf level first, as `(level, g)`:
    /// walk up from its leaf group while it is the group's primary (only
    /// primaries are members one level up), taking the seat wherever its
    /// member slot is one. A backup seat ends the walk, so a host's seats
    /// are contiguous from level 0 and the one at `level` is in group
    /// [`group_of`](Self::group_of)`(level, host)`.
    pub fn seats_of(&self, host: HostId) -> impl Iterator<Item = (usize, u64)> + '_ {
        assert!(
            u64::from(host.0) < self.n,
            "host {host:?} not in a hierarchy of {} hosts",
            self.n
        );
        // Index of `host` among the members of the level walked next.
        let mut m = Some(u64::from(host.0));
        (0..self.depth()).map_while(move |level| {
            let (g, slot) = (m? / self.fanout, m? % self.fanout);
            m = (slot == 0).then_some(g);
            (slot < self.seats(level, g)).then_some((level, g))
        })
    }

    /// The group's MRM replicas, its first `replicas` members: where its
    /// members send their reports (level 0) and its child seats their
    /// summaries and escalated queries.
    pub fn mrm_hosts(&self, level: usize, g: u64) -> impl Iterator<Item = HostId> + '_ {
        (0..self.seats(level, g)).map(move |j| HostId(self.member(level, g, j) as u32))
    }
}

/// A seat: the coordinate `(level, g)` of one MRM group in the tree.
pub type Seat = (usize, u64);

/// One MRM seat's soft state: full records keyed by sender on a node
/// ([`DutyState`]), masks keyed by member slot in the scale campus.
pub trait SeatStore {
    /// What a member reports.
    type Report;
    /// What a seat pushes up to its parent.
    type Summary;
    /// Absorb a member's report, replacing its last record.
    fn on_report(&mut self, from: HostId, slot: u64, report: Self::Report, now: SimTime);
    /// Absorb a child seat's summary, replacing its last record.
    fn on_summary(&mut self, from: HostId, slot: u64, summary: Self::Summary, now: SimTime);
    /// The summary this seat pushes up.
    fn summary(&self) -> Self::Summary;
}

/// Report step: the seat a report from `from` lands in, its leaf group,
/// and the member slot it fills there, its own.
pub fn report_seat(shape: &HierShape, from: HostId) -> (Seat, u64) {
    let host = u64::from(from.0);
    ((0, shape.group_of(0, host)), host % shape.fanout)
}

/// Summary step: the seat child seat `(level, g)`'s summary lands in, its
/// parent (none at the root), and the child's member slot there.
pub fn summary_seat(shape: &HierShape, (level, g): Seat) -> Option<(Seat, u64)> {
    Some((shape.parent(level, g)?, g % shape.fanout))
}

/// Tick step: a seat with a parent pushes its summary up while its host
/// is `acting` for the group. Returns the summary, built only then, and
/// the parent replicas to send it to.
pub fn push_summary<'t, S: SeatStore>(
    shape: &'t HierShape,
    (level, g): Seat,
    acting: bool,
    store: &S,
) -> Option<(S::Summary, impl Iterator<Item = HostId> + 't)> {
    let (pl, pg) = shape.parent(level, g).filter(|_| acting)?;
    Some((store.summary(), shape.mrm_hosts(pl, pg)))
}

/// Where a query goes from a seat once every candidate was asked.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Route {
    /// A candidate took it: the routing ends here.
    Taken,
    /// None did, ascending below the root: ask the parent seat
    /// `(level, g)` ("request higher hierarchy level requests").
    Escalate { level: usize, g: u64 },
    /// None did, descending or at the root: tell the origin this branch
    /// is exhausted, so it can stop early when every branch misses (best
    /// effort; the origin's timeout is the backstop).
    DeadEnd,
}

/// Query step (§2.4.3: incremental resource lookup). Seat `(level, g)`
/// asks every candidate, in order: a plain member at level 0
/// (`ask(c, None)`), the child seat one level down above it
/// (`ask(c, Some(level - 1))`); `ask` says whether it took the query. An
/// ascending query escalates only when none did, so it stops at the
/// first level with a taker even when the origin wants *all* offers.
pub fn route_query<C>(
    shape: &HierShape,
    (level, g): Seat,
    descending: bool,
    candidates: impl IntoIterator<Item = C>,
    mut ask: impl FnMut(C, Option<u8>) -> bool,
) -> Route {
    let child_level = (level as u8).checked_sub(1);
    let mut taken = false;
    for c in candidates {
        taken |= ask(c, child_level);
    }
    match shape.parent(level, g) {
        _ if taken => Route::Taken,
        Some((level, g)) if !descending => Route::Escalate { level, g },
        _ => Route::DeadEnd,
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

/// The soft-state table one MRM duty maintains (the members believed
/// alive), and what its seat reads from it until a record changes.
#[derive(Clone, Debug, Default)]
pub struct DutyState {
    records: BTreeMap<HostId, MemberRecord>,
    /// Component name → the members whose record names it, in host order.
    holders: OnceCell<BTreeMap<Name, Vec<HostId>>>,
    /// Every component name the records carry: the summary's set, kept
    /// while only the members' load changes.
    names: OnceCell<Rc<BTreeSet<Name>>>,
    summary: OnceCell<Rc<GroupSummary>>,
}

impl DutyState {
    /// Member → last record.
    pub fn records(&self) -> &BTreeMap<HostId, MemberRecord> {
        &self.records
    }

    /// Store `from`'s record. One saying what the last did — the same
    /// `StaticInfo`, an equal allocation and installed set, or the very
    /// summary a child re-sends unchanged — keeps what was read from them;
    /// one that names what the last did — an equal installed set, or a
    /// child summary sharing the last one's name set — keeps the names
    /// and their index.
    fn absorb(&mut self, from: HostId, rec: MemberRecord) {
        use MemberRecord::{Node, Subtree};
        let (same_names, same) = match (self.records.get(&from), &rec) {
            (Some(Node { report: a, .. }), Node { report: b, .. }) => {
                let same_names = a.installed == b.installed;
                let same_load =
                    Rc::ptr_eq(&a.static_info, &b.static_info) && a.dynamic == b.dynamic;
                (same_names, same_names && same_load)
            }
            (Some(Subtree { summary: a, .. }), Subtree { summary: b, .. }) => {
                (Rc::ptr_eq(&a.components, &b.components), Rc::ptr_eq(a, b))
            }
            _ => (false, false),
        };
        self.records.insert(from, rec);
        if !same_names {
            (self.holders, self.names) = Default::default();
        }
        if !same {
            self.summary = OnceCell::new();
        }
    }

    /// Drop members whose last record is older than `timeout`.
    /// Returns how many were evicted.
    pub fn sweep(&mut self, now: SimTime, timeout: SimTime) -> usize {
        let before = self.records.len();
        self.records.retain(|_, r| now.saturating_sub(r.at()) <= timeout);
        let evicted = before - self.records.len();
        if evicted > 0 {
            (self.holders, self.names, self.summary) = Default::default();
        }
        evicted
    }

    /// The members whose record names component `name`, once, in host order.
    pub fn holders(&self, name: &str) -> &[HostId] {
        let index = self.holders.get_or_init(|| {
            let mut index: BTreeMap<Name, Vec<HostId>> = BTreeMap::new();
            for (&host, rec) in &self.records {
                for name in rec_names(rec) {
                    let hosts = index.entry(name.clone()).or_default();
                    if hosts.last() != Some(&host) {
                        hosts.push(host);
                    }
                }
            }
            index
        });
        index.get(name).map_or(&[], Vec::as_slice)
    }

    /// Aggregate everything known into a subtree summary, from scratch.
    pub fn summarize(&self) -> GroupSummary {
        self.totals(Rc::new(self.fold_names()))
    }

    /// Every component name the records carry, inserted one by one (a
    /// collected set sorts a vector of them first).
    fn fold_names(&self) -> BTreeSet<Name> {
        let mut names = BTreeSet::new();
        names.extend(self.records.values().flat_map(rec_names).cloned());
        names
    }

    /// Whether `names` holds exactly the names the records carry, checked
    /// without building their set.
    fn carries_exactly(&self, names: &BTreeSet<Name>) -> bool {
        let mut carried = self.records.values().flat_map(rec_names);
        carried.all(|n| names.contains(n))
            && names.iter().all(|n| self.records.values().flat_map(rec_names).any(|m| m == n))
    }

    /// The summary over `components`: the records' numbers summed in
    /// record order.
    fn totals(&self, components: Rc<BTreeSet<Name>>) -> GroupSummary {
        let mut out = GroupSummary { components, node_count: 0, cpu_free: 0.0, mem_free: 0 };
        for rec in self.records.values() {
            match rec {
                MemberRecord::Node { report, .. } => {
                    out.node_count += 1;
                    out.cpu_free +=
                        (report.static_info.cpu_power - report.dynamic.cpu_used).max(0.0);
                    out.mem_free +=
                        report.static_info.memory.saturating_sub(report.dynamic.mem_used);
                }
                MemberRecord::Subtree { summary, .. } => {
                    out.node_count += summary.node_count;
                    out.cpu_free += summary.cpu_free;
                    out.mem_free += summary.mem_free;
                }
            }
        }
        out
    }
}

/// The component names one record carries: a member's installed list,
/// a child's summarised set.
fn rec_names(rec: &MemberRecord) -> impl Iterator<Item = &Name> {
    let (installed, summarised) = match rec {
        MemberRecord::Node { report, .. } => (&report.installed[..], None),
        MemberRecord::Subtree { summary, .. } => (&[][..], Some(&*summary.components)),
    };
    installed.iter().chain(summarised.into_iter().flatten())
}

/// A node's seat store: full records keyed by the sending host.
impl SeatStore for DutyState {
    type Report = ResourceReport;
    type Summary = Rc<GroupSummary>;

    fn on_report(&mut self, from: HostId, _: u64, report: ResourceReport, now: SimTime) {
        self.absorb(from, MemberRecord::Node { report, at: now });
    }

    fn on_summary(&mut self, from: HostId, _: u64, summary: Rc<GroupSummary>, now: SimTime) {
        self.absorb(from, MemberRecord::Subtree { summary, at: now });
    }

    /// An unchanged duty re-sends the `Rc` it sent; one whose members
    /// changed only their load shares the name set it built last.
    fn summary(&self) -> Rc<GroupSummary> {
        let summary = self.summary.get_or_init(|| {
            let names = self.names.get_or_init(|| Rc::new(self.fold_names()));
            Rc::new(self.totals(Rc::clone(names)))
        });
        debug_assert!(self.carries_exactly(&summary.components), "kept names must equal a fold");
        debug_assert_eq!(
            **summary,
            self.totals(Rc::clone(&summary.components)),
            "a re-sent summary must equal a fresh one"
        );
        Rc::clone(summary)
    }
}

/// Pick the effective primary among `replicas`: the first one `believed`
/// reports as alive, falling back to the configured primary.
pub fn effective_primary(
    replicas: impl IntoIterator<Item = HostId>,
    believed_alive: impl Fn(HostId) -> bool,
) -> HostId {
    let mut replicas = replicas.into_iter();
    let Some(primary) = replicas.next() else { panic!("a group has at least one replica") };
    std::iter::once(primary).chain(replicas).find(|&h| believed_alive(h)).unwrap_or(primary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::{DynamicInfo, StaticInfo};
    use lc_net::DeviceClass;
    use lc_pkg::Platform;

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
            installed: installed.iter().map(|&s| s.into()).collect(),
        }
    }

    fn ids(ids: impl Iterator<Item = u64>) -> Vec<u64> {
        ids.collect()
    }

    fn hosts(hosts: impl Iterator<Item = HostId>) -> Vec<u64> {
        hosts.map(|h| u64::from(h.0)).collect()
    }

    /// `(level, g, replicas, members, parent replicas)` of each seat.
    type Seat = (usize, u64, Vec<u64>, Vec<u64>, Vec<u64>);

    fn seats(s: &HierShape, host: u32) -> Vec<Seat> {
        s.seats_of(HostId(host))
            .map(|(level, g)| {
                let parent = s.parent(level, g).map(|(pl, pg)| hosts(s.mrm_hosts(pl, pg)));
                let (mrms, members) = (hosts(s.mrm_hosts(level, g)), ids(s.members(level, g)));
                (level, g, mrms, members, parent.unwrap_or_default())
            })
            .collect()
    }

    #[test]
    fn hierarchy_shape_64_nodes_fanout_8() {
        let s = CohesionConfig { fanout: 8, ..Default::default() }.shape(64);
        // 64 → 8 leaf groups → 1 group of 8 primaries → root
        assert_eq!(s.depth(), 2);
        assert_eq!(s.group_count(0), 8);
        assert_eq!(s.group_count(1), 1);
        // primaries of leaf groups are hosts 0, 8, 16, ...
        assert_eq!(ids(s.members(1, 0)), [0, 8, 16, 24, 32, 40, 48, 56]);
    }

    #[test]
    fn flat_config_yields_single_group() {
        let s = CohesionConfig::flat(64, 1, SimTime::from_secs(2)).shape(64);
        assert_eq!(s.depth(), 1);
        assert_eq!(s.group_count(0), 1);
        assert_eq!(hosts(s.mrm_hosts(0, 0)), [0]);
        // every node reports to the central server
        for host in 0..64 {
            assert_eq!(hosts(s.mrm_hosts(0, s.group_of(0, host))), [0]);
        }
    }

    #[test]
    fn hierarchy_depth_grows_logarithmically() {
        let cfg = CohesionConfig { fanout: 4, ..Default::default() };
        assert_eq!(cfg.shape(4).depth(), 1);
        assert_eq!(cfg.shape(16).depth(), 2);
        assert_eq!(cfg.shape(64).depth(), 3);
        assert_eq!(cfg.shape(256).depth(), 4);
    }

    #[test]
    fn duties_and_report_targets() {
        let s = CohesionConfig { fanout: 8, replicas: 2, ..Default::default() }.shape(64);
        // host 5 is a plain member of group 0
        assert!(seats(&s, 5).is_empty());
        assert_eq!(hosts(s.mrm_hosts(0, s.group_of(0, 5))), [0, 1]);
        // host 1 is replica (not primary) of leaf group 0
        let d1 = seats(&s, 1);
        assert_eq!(d1.len(), 1);
        assert_eq!((d1[0].0, d1[0].1), (0, 0));
        assert_eq!(d1[0].4, [0, 8]);
        // host 0 is primary of leaf group 0 AND replica of the root group
        let d0 = seats(&s, 0);
        assert_eq!(d0.len(), 2);
        assert_eq!((d0[1].0, d0[1].1), (1, 0));
        assert!(d0[1].4.is_empty());
        // host 8 is primary of group 1 and member+replica of root group
        let d8 = seats(&s, 8);
        assert_eq!(d8.iter().map(|d| (d.0, d.1)).collect::<Vec<_>>(), [(0, 1), (1, 0)]);
        assert_eq!(d8[0].2, [8, 9]);
        // host 16 leads group 2 but is only a plain member of the root group
        let d16 = seats(&s, 16);
        assert_eq!(d16.len(), 1);
        assert_eq!(d16[0].3, ids(16..24));
    }

    #[test]
    fn single_group_when_few_hosts() {
        let s = CohesionConfig { fanout: 8, ..Default::default() }.shape(5);
        assert_eq!(s.depth(), 1);
        assert_eq!(s.group_count(0), 1);
        assert_eq!(ids(s.seats_of(HostId(0)).map(|(_, g)| g)), [0]);
    }

    #[test]
    #[should_panic(expected = "host HostId(64) not in a hierarchy of 64 hosts")]
    fn a_host_outside_the_tree_is_named() {
        let _ = CohesionConfig::default().shape(64).seats_of(HostId(64));
    }

    /// What booting every node pays: each host's seats, and the group
    /// [`HierShape::group_of`] names for each is the one the walk found.
    /// O(n · depth) arithmetic; the scan-every-group version this
    /// replaced took 7.7 s here.
    #[test]
    fn every_hosts_duties_at_100k_are_a_walk_not_a_scan() {
        let n = 100_000u32;
        let s = CohesionConfig::default().shape(n as usize);
        let mut seats = 0u64;
        for host in 0..n {
            for (i, (level, g)) in s.seats_of(HostId(host)).enumerate() {
                assert_eq!((level, g), (i, s.group_of(level, u64::from(host))));
                seats += 1;
            }
        }
        // Two seats per group, but 100 000 → 12 500 → 1 563 → 196 → 25
        // → 4 → 1 leaves the 25th level-3 primary alone in its group.
        assert_eq!(seats, 2 * (0..s.depth()).map(|l| s.group_count(l)).sum::<u64>() - 1);
    }

    #[test]
    fn leaf_groups_and_subtrees() {
        let s = HierShape::build(1000, 8, 2);
        assert_eq!(s.group_of(0, 0), 0);
        assert_eq!(s.group_of(0, 7), 0);
        assert_eq!(s.group_of(0, 8), 1);
        assert_eq!(s.group_of(0, 999), 124);
        // Level-1 group 0 spans hosts 0..64; the last one is ragged.
        assert_eq!(s.subtree(1, 0), 0..64);
        assert_eq!(s.subtree(0, 124), 992..1000);
        assert_eq!(s.group_size(0, 124), 8);
        // Depth: 1000 → 125 → 16 → 2 → 1.
        assert_eq!(s.depth(), 4);
        assert_eq!(s.group_count(3), 1);
        assert_eq!(summary_seat(&s, (0, 9)), Some(((1, 1), 1)));
        // 125 leaf primaries fill 15 level-1 groups and leave 5 over.
        assert_eq!(s.group_size(1, 15), 5);
        assert_eq!(hosts(s.mrm_hosts(1, 15)), [960, 968]);
    }

    #[test]
    fn shape_is_constant_memory() {
        let s = HierShape::build(1_000_000, 8, 2);
        assert_eq!(s.depth(), 7);
        // The whole routing structure: three u64s and one tiny Vec.
        assert!(s.group_counts.len() <= 8);
        let groups: u64 = (0..s.depth()).map(|l| s.group_count(l)).sum();
        assert_eq!(groups, 125_000 + 15_625 + 1_954 + 245 + 31 + 4 + 1);
    }

    /// The query step's truth table: a taker anywhere ends the routing
    /// here; with none, only an ascending query with a parent escalates,
    /// and it names the parent seat.
    #[test]
    fn seat_rule_truth_table() {
        // Seat (2, 1) is a root's child in a depth-4 tree and the root
        // itself in a depth-3 one.
        let (deep, shallow) = (HierShape::build(256, 4, 2), HierShape::build(64, 4, 2));
        for descending in [false, true] {
            for has_parent in [false, true] {
                let (shape, seat) = if has_parent { (&deep, (2, 1)) } else { (&shallow, (2, 0)) };
                let route = |takers: [bool; 3]| {
                    route_query(shape, seat, descending, takers, |took, _| took)
                };
                assert_eq!(route([false, true, false]), Route::Taken);
                assert_eq!(route([true, true, true]), Route::Taken);
                let miss = if !descending && has_parent {
                    Route::Escalate { level: 3, g: 0 }
                } else {
                    Route::DeadEnd
                };
                assert_eq!(route([false, false, false]), miss);
                // A seat with no candidates at all misses the same way.
                let nobody = route_query(shape, seat, descending, [(); 0], |(), _| true);
                assert_eq!(nobody, miss);
            }
        }
    }

    /// Every candidate is offered the query, in order, whether or not an
    /// earlier one took it: plain members at level 0, the child seat one
    /// level down above it.
    #[test]
    fn seat_offers_every_candidate_in_order() {
        let shape = HierShape::build(1024, 4, 2);
        for (level, child) in [(0, None), (1, Some(0u8)), (3, Some(2))] {
            let mut seen = Vec::new();
            let route = route_query(&shape, (level, 1), false, [7u32, 3, 9], |c, l| {
                seen.push((c, l));
                c == 7
            });
            assert_eq!(route, Route::Taken);
            assert_eq!(seen, [(7, child), (3, child), (9, child)]);
        }
    }

    #[test]
    fn soft_state_sweep_evicts_silent_members() {
        let mut ds = DutyState::default();
        ds.on_report(HostId(1), 0, report(&["A"]), SimTime::from_secs(0));
        ds.on_report(HostId(2), 0, report(&["B"]), SimTime::from_secs(5));
        assert_eq!(ds.records().len(), 2);
        let evicted = ds.sweep(SimTime::from_secs(7), SimTime::from_secs(6));
        assert_eq!(evicted, 1);
        assert_eq!(ds.records().keys().collect::<Vec<_>>(), [&HostId(2)]);
        // silent node re-joins gracefully on its next report
        ds.on_report(HostId(1), 0, report(&["A"]), SimTime::from_secs(8));
        assert_eq!(ds.records().len(), 2);
    }

    #[test]
    fn summaries_aggregate_and_route_queries() {
        let mut ds = DutyState::default();
        ds.on_report(HostId(1), 0, report(&["Decoder"]), SimTime::ZERO);
        ds.on_report(HostId(2), 0, report(&["Display"]), SimTime::ZERO);
        let components = Rc::new(["Decoder".into()].into());
        let child = GroupSummary { components, node_count: 4, cpu_free: 3.0, mem_free: 0 };
        ds.on_summary(HostId(8), 0, Rc::new(child), SimTime::ZERO);

        let sum = ds.summarize();
        assert_eq!(sum.node_count, 6);
        assert!(sum.components.contains("Decoder"));
        assert!(sum.components.contains("Display"));
        assert!((sum.cpu_free - 4.5).abs() < 1e-9);

        assert_eq!(ds.holders("Decoder"), [HostId(1), HostId(8)]);
        assert_eq!(ds.holders("Display"), [HostId(2)]);
        assert!(ds.holders("Nope").is_empty());
    }

    /// What a seat offered a query to before it kept an index: a scan of
    /// every record, in host order, for one that names the component.
    fn scanned(records: &BTreeMap<HostId, MemberRecord>, name: &str) -> Vec<HostId> {
        records
            .iter()
            .filter(|(_, rec)| match rec {
                MemberRecord::Node { report, .. } => report.installed.iter().any(|c| &**c == name),
                MemberRecord::Subtree { summary, .. } => summary.components.contains(name),
            })
            .map(|(h, _)| *h)
            .collect()
    }

    /// The index names the same members, in the same order, as the scan
    /// it replaced, and a kept summary equals a fresh one, after any mix
    /// of reports (several versions of one name, repeated and changed
    /// allocations, snapshots rebuilt equal), summaries (a sender that
    /// also reported, as a backup replica acting after failover does, and
    /// re-sent `Rc`s), sweeps and name queries, absent names included.
    /// (An interface query takes every record, as it did.)
    #[test]
    fn the_index_offers_what_the_scan_did() {
        const NAMES: [&str; 4] = ["A", "B", "Counter", "Decoder"];
        lc_prop::check("index = scan", |g| {
            let static_info = report(&[]).static_info;
            let mut ds = DutyState::default();
            let mut sent: Vec<Rc<GroupSummary>> = Vec::new();
            let mut now = SimTime::ZERO;
            for _ in 0..g.gen_range(1..60u32) {
                now += SimTime::from_millis(g.gen_range(0..400u64));
                let from = HostId(g.gen_range(0..12u32));
                match g.gen_range(0..5u32) {
                    0 | 1 => {
                        let mut names: Vec<Name> = Vec::new();
                        for name in NAMES {
                            for _ in 0..g.gen_range(0..3u32) {
                                names.push(name.into());
                            }
                        }
                        let dynamic = DynamicInfo {
                            cpu_used: f64::from(g.gen_range(0..3u32)) * 0.25,
                            mem_used: 1 << 20,
                            instances: 1,
                        };
                        let installed = names.into();
                        let report = ResourceReport {
                            static_info: Rc::clone(&static_info),
                            dynamic,
                            installed,
                        };
                        ds.on_report(from, 0, report, now);
                    }
                    2 => {
                        let node_count = g.gen_range(1..9u32);
                        let summary = match (sent.last(), g.gen_range(0..3u32)) {
                            (Some(last), 0) => Rc::clone(last),
                            // A child whose load alone changed: its names
                            // are the set it sent last.
                            (Some(last), 1) => Rc::new(GroupSummary {
                                node_count,
                                ..GroupSummary::clone(last)
                            }),
                            _ => {
                                let names = NAMES.iter().filter(|_| g.gen_bool());
                                let components = Rc::new(names.map(|&n| n.into()).collect());
                                let (cpu_free, mem_free) = (0.0, 0);
                                Rc::new(GroupSummary { components, node_count, cpu_free, mem_free })
                            }
                        };
                        sent.push(Rc::clone(&summary));
                        ds.on_summary(from, 0, summary, now);
                    }
                    3 => {
                        ds.sweep(now, SimTime::from_millis(g.gen_range(0..1500u64)));
                    }
                    _ => assert_eq!(*ds.summary(), ds.summarize()),
                }
                for name in NAMES.into_iter().chain(["Nope"]) {
                    assert_eq!(ds.holders(name), scanned(ds.records(), name), "{name}");
                }
            }
        });
    }

    /// A sweep of an unchanged duty re-sends the summary it built last,
    /// by pointer, however many keep-alives refreshed its records; a
    /// changed allocation, a new member and an eviction each rebuild it,
    /// and only the last two its name set.
    #[test]
    fn an_unchanged_duty_resends_its_summary() {
        let t = SimTime::from_secs;
        let mut ds = DutyState::default();
        let (a, b) = (report(&["A"]), report(&["B"]));
        ds.on_report(HostId(1), 0, a.clone(), t(0));
        ds.on_report(HostId(2), 0, b.clone(), t(0));
        let first = ds.summary();
        for s in 1..4 {
            ds.on_report(HostId(1), 0, a.clone(), t(s));
            // An equal snapshot behind another `Rc` is no change either.
            let rebuilt = ResourceReport { installed: ["B".into()].into(), ..b.clone() };
            ds.on_report(HostId(2), 0, rebuilt, t(s));
            assert_eq!(ds.sweep(t(s), t(3)), 0);
            assert!(Rc::ptr_eq(&ds.summary(), &first), "sweep {s} rebuilt an unchanged summary");
        }
        assert_eq!(ds.records()[&HostId(1)].at(), t(3), "a keep-alive still refreshes `at`");

        let busier = ResourceReport {
            dynamic: DynamicInfo { cpu_used: 0.5, ..a.dynamic },
            ..a.clone()
        };
        ds.on_report(HostId(1), 0, busier, t(4));
        let second = ds.summary();
        assert!(!Rc::ptr_eq(&second, &first), "a changed allocation rebuilds");
        assert_eq!(second.cpu_free, first.cpu_free - 0.25);
        let shared = Rc::ptr_eq(&second.components, &first.components);
        assert!(shared, "a load-only change keeps the name set");

        ds.on_report(HostId(3), 0, report(&["C"]), t(4));
        let third = ds.summary();
        assert!(!Rc::ptr_eq(&third, &second), "a new member rebuilds");
        assert!(!Rc::ptr_eq(&third.components, &second.components), "and its names");
        assert_eq!(third.node_count, 3);

        // Host 2 last reported at 3: at 7 it is 4 s silent.
        assert_eq!(ds.sweep(t(7), t(3)), 1);
        let fourth = ds.summary();
        assert!(!Rc::ptr_eq(&fourth, &third), "an eviction rebuilds");
        assert!(!fourth.components.contains("B"));
        assert_eq!(ds.holders("B"), []);
    }

    #[test]
    fn effective_primary_fails_over() {
        let reps = [HostId(0), HostId(1), HostId(2)];
        assert_eq!(effective_primary(reps, |_| true), HostId(0));
        assert_eq!(effective_primary(reps, |h| h != HostId(0)), HostId(1));
        assert_eq!(effective_primary(reps, |h| h == HostId(2)), HostId(2));
        assert_eq!(effective_primary(reps, |_| false), HostId(0));
    }
}
