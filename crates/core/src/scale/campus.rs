//! The whole campus as one DES actor on the packed event lane.
//!
//! At 10⁵–10⁶ nodes one actor per node is the layout that does not fit.
//! [`ScaleCampus`] is a *single* [`Actor`] holding the soft state of
//! every group seat; protocol events reach it through
//! [`Actor::handle_packed`] as bare `u64`s — kind, node (or group) index
//! and a small aux field bit-packed, no allocation per event. A node
//! that is not a seat has no state of its own: what it reports
//! (`owner_flags`) is a function of its index.
//!
//! Two registry variants run over the same storage, mirroring the
//! experiments E2/E4/E12 use at small scale:
//!
//! * **hier** — the paper's hierarchical MRM registry. Reports flow to
//!   leaf-group replicas; per-level summaries (staggered inside the
//!   report period so the whole tree converges in one round) push
//!   component presence upward; queries ascend on miss and descend
//!   into matching subtrees by [`route_at_seat`], the rule
//!   [`registry_svc`](crate::node::Node) routes them by, over the
//!   [`HierShape`] every node reads its seats from.
//! * **flat** — one central registry on node 0: the hierarchy collapsed
//!   into a single group, as [`CohesionConfig::flat`](crate::cohesion::CohesionConfig::flat)
//!   collapses the node stack's. Every query fans out to *all* matching owners, so
//!   messages per query grow linearly with campus size.
//!
//! Group soft state is per *seat*, not per node: one `u64` presence mask
//! per component — constant bytes per group, ≈ n/(fanout−1) groups.

use crate::cohesion::{route_at_seat, HierShape, Miss};
use lc_des::{Actor, Ctx, Mail, Sim, SimTime};

/// Components the sweep queries for; node `i` owns component `c` iff
/// `i % 256 == OWNER_RESIDUE[c]` (≈ one owner per 128 nodes overall).
pub const COMPONENTS: [&str; 2] = ["sensor.telemetry", "media.decoder"];
const OWNER_RESIDUE: [u32; 2] = [7, 19];

/// Report flag: the node hosts `COMPONENTS[0]`.
const FLAG_OWNER_C0: u8 = 1 << 0;
/// Report flag: the node hosts `COMPONENTS[1]`.
const FLAG_OWNER_C1: u8 = 1 << 1;

/// One network hop of the campus fabric.
const HOP: SimTime = SimTime::from_micros(50);

// Packed-event kinds (bits 56..64 of the u64).
const K_REPORT: u8 = 1;
const K_SUMMARY: u8 = 2;
const K_QUERY_START: u8 = 3;
const K_QUERY_UP: u8 = 4;
const K_QUERY_DOWN: u8 = 5;
const K_QUERY_MEMBER: u8 = 6;
const K_OFFER: u8 = 7;
const K_QUERY_DONE: u8 = 8;
const K_CHURN: u8 = 9;

/// Human names for the packed-event kinds, for profiler rendering
/// ([`lc_trace::profile::render`] / flamegraph export). Order matches
/// the `K_*` constants.
pub const KIND_NAMES: [(u8, &str); 9] = [
    (K_REPORT, "report"),
    (K_SUMMARY, "summary"),
    (K_QUERY_START, "query_start"),
    (K_QUERY_UP, "query_up"),
    (K_QUERY_DOWN, "query_down"),
    (K_QUERY_MEMBER, "query_member"),
    (K_OFFER, "offer"),
    (K_QUERY_DONE, "query_done"),
    (K_CHURN, "churn"),
];

#[inline]
fn pack(kind: u8, idx: u32, aux: u32) -> u64 {
    debug_assert!(aux < (1 << 24));
    (u64::from(kind) << 56) | (u64::from(idx) << 24) | u64::from(aux)
}

#[inline]
fn unpack(data: u64) -> (u8, u32, u32) {
    ((data >> 56) as u8, ((data >> 24) & 0xFFFF_FFFF) as u32, (data & 0xFF_FFFF) as u32)
}

#[inline]
fn query_aux(qid: u32, level: usize) -> u32 {
    debug_assert!(qid < (1 << 16) && level < (1 << 8));
    qid | ((level as u32) << 16)
}

#[inline]
fn split_query_aux(aux: u32) -> (u32, usize) {
    (aux & 0xFFFF, (aux >> 16) as usize)
}

/// Which registry protocol the campus runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    /// Hierarchical MRM registry (the paper's design).
    Hier,
    /// Central registry, query fan-out to every owner.
    Flat,
}

impl Variant {
    /// Stable lowercase name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Hier => "hier",
            Variant::Flat => "flat",
        }
    }
}

/// Parameters of one campus run.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Number of nodes.
    pub n: u32,
    /// Registry protocol.
    pub variant: Variant,
    /// Hierarchy fanout (≤ 64: group masks are `u64`s).
    pub fanout: u32,
    /// MRM replicas per group.
    pub replicas: u32,
    /// Report / summary period.
    pub report_period: SimTime,
    /// Rounds to run (first round is warm-up, queries fire in the last).
    pub rounds: u32,
    /// Queries issued in the last round.
    pub queries: u32,
    /// Membership-change (leave) events in the last round.
    pub churn: u32,
}

impl ScaleConfig {
    /// The standard sweep configuration for `n` nodes.
    pub fn new(n: u32, variant: Variant) -> ScaleConfig {
        ScaleConfig {
            n,
            variant,
            fanout: 8,
            replicas: 2,
            report_period: SimTime::from_secs(2),
            rounds: 2,
            queries: 32,
            churn: 2,
        }
    }
}

/// Per-seat soft state: which member slots may hold each component.
/// Fixed 16 bytes per group at any campus size.
#[derive(Clone, Copy, Debug, Default)]
struct GroupState {
    has: [u64; COMPONENTS.len()],
}

/// In-flight query bookkeeping (at most `cfg.queries` of these).
#[derive(Clone, Debug)]
struct QueryState {
    origin: u32,
    comp: usize,
    msgs: u32,
    escalations: u32,
    offers: u32,
    issued_at: SimTime,
    first_offer_at: Option<SimTime>,
}

impl QueryState {
    /// Virtual ns from issue to first offer (`None` = unresolved).
    fn first_offer_ns(&self) -> Option<u64> {
        Some(self.first_offer_at?.saturating_sub(self.issued_at).as_nanos())
    }
}

/// Deterministic per-query result.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QueryOutcome {
    /// Messages this query cost (query, forwards, offers, done).
    pub msgs: u32,
    /// Levels ascended before a match.
    pub escalations: u32,
    /// Offers that reached the origin.
    pub offers: u32,
    /// Virtual ns from issue to first offer (0 = unresolved).
    pub first_offer_ns: u64,
}

/// Campus-wide message and query totals.
#[derive(Default)]
struct Counts {
    report_msgs: u64,
    summary_msgs: u64,
    query_msgs: u64,
    churn_msgs: u64,
    queries_completed: u64,
    escalations: u64,
    /// Message deliveries tallied ([`ScaleReport::traffic_total`]).
    traffic: u64,
}

/// The campus actor. See the module docs for the event model.
pub struct ScaleCampus {
    cfg: ScaleConfig,
    shape: HierShape,
    /// All group seats, leaf level first (`level_base[l]` offsets).
    groups: Vec<GroupState>,
    level_base: Vec<usize>,
    /// Owner node lists per component (the flat central's view).
    owners: [Vec<u32>; COMPONENTS.len()],
    queries: Vec<QueryState>,
    counts: Counts,
    /// Reports stop rescheduling at this time.
    t_end: SimTime,
}

impl ScaleCampus {
    /// Build the campus state (no events scheduled yet).
    pub fn build(cfg: ScaleConfig) -> ScaleCampus {
        assert!(cfg.fanout >= 2 && cfg.fanout <= 64, "fanout must fit a u64 mask");
        assert!(cfg.queries <= 1 << 16, "query ids are 16-bit");
        // The central variant is the hierarchy collapsed into one group
        // with one seat: the central registry's table.
        let (fanout, replicas) = match cfg.variant {
            Variant::Hier => (cfg.fanout, cfg.replicas),
            Variant::Flat => (cfg.n.max(2), 1),
        };
        let shape = HierShape::build(u64::from(cfg.n), u64::from(fanout), u64::from(replicas));
        let mut level_base = Vec::with_capacity(shape.depth());
        let mut total = 0usize;
        for level in 0..shape.depth() {
            level_base.push(total);
            total += shape.group_count(level) as usize;
        }
        let groups = vec![GroupState::default(); total];
        let owners = [owner_list(cfg.n, 0), owner_list(cfg.n, 1)];
        let t_end = cfg.report_period * u64::from(cfg.rounds);
        ScaleCampus {
            queries: Vec::with_capacity(cfg.queries as usize),
            shape,
            groups,
            level_base,
            owners,
            counts: Counts::default(),
            t_end,
            cfg,
        }
    }

    #[inline]
    fn gs(&mut self, level: usize, g: u64) -> &mut GroupState {
        &mut self.groups[self.level_base[level] + g as usize]
    }

    fn on_report(&mut self, ctx: &mut Ctx<'_>, node: u32) {
        match self.cfg.variant {
            Variant::Hier => {
                let g = self.shape.leaf_group_of(u64::from(node));
                let slot = u64::from(node) % self.shape.fanout();
                let flags = owner_flags(node);
                let st = self.gs(0, g);
                for (c, residue_flag) in [FLAG_OWNER_C0, FLAG_OWNER_C1].iter().enumerate() {
                    if flags & residue_flag != 0 {
                        st.has[c] |= 1 << slot;
                    }
                }
                let replicas = self.shape.mrms(0, g).count() as u64;
                self.counts.report_msgs += replicas;
                self.counts.traffic += replicas;
            }
            Variant::Flat => {
                // Reports all land on the central node.
                self.counts.report_msgs += 1;
                self.counts.traffic += 1;
            }
        }
        let me = ctx.me();
        if ctx.now() + self.cfg.report_period < self.t_end {
            ctx.send_packed(self.cfg.report_period, me, pack(K_REPORT, node, 0));
        }
    }

    fn on_summary(&mut self, ctx: &mut Ctx<'_>, g: u32, level: usize) {
        if self.cfg.variant == Variant::Hier {
            if let Some((pl, pg)) = self.shape.parent(level, u64::from(g)) {
                let own = *self.gs(level, u64::from(g));
                let slot = self.shape.slot_in_parent(u64::from(g));
                let parent = self.gs(pl, pg);
                for c in 0..COMPONENTS.len() {
                    if own.has[c] != 0 {
                        parent.has[c] |= 1 << slot;
                    } else {
                        parent.has[c] &= !(1 << slot);
                    }
                }
                let parent_replicas = self.shape.mrms(pl, pg).count() as u64;
                self.counts.summary_msgs += parent_replicas;
                self.counts.traffic += 1;
            }
            let me = ctx.me();
            if ctx.now() + self.cfg.report_period < self.t_end {
                ctx.send_packed(self.cfg.report_period, me, pack(K_SUMMARY, g, level as u32));
            }
        }
    }

    fn on_query_start(&mut self, ctx: &mut Ctx<'_>, origin: u32, qid: u32) {
        debug_assert_eq!(qid as usize, self.queries.len());
        let comp = qid as usize % COMPONENTS.len();
        self.queries.push(QueryState {
            origin,
            comp,
            msgs: 0,
            escalations: 0,
            offers: 0,
            issued_at: ctx.now(),
            first_offer_at: None,
        });
        let g = self.shape.leaf_group_of(u64::from(origin)) as u32;
        self.count_query_msgs(qid, 1);
        ctx.send_packed(HOP, ctx.me(), pack(K_QUERY_UP, g, query_aux(qid, 0)));
    }

    fn count_query_msgs(&mut self, qid: u32, n: u32) {
        self.queries[qid as usize].msgs += n;
        self.counts.query_msgs += u64::from(n);
        self.counts.traffic += u64::from(n);
    }

    /// Query routing at an MRM seat — `descending=false` is the ascend
    /// path, `true` the descend path. The rule is [`route_at_seat`]; the
    /// campus supplies who the seat believes may hold the component —
    /// the only thing the two variants differ in — and makes each
    /// offer one counted packed event.
    fn route_query(&mut self, ctx: &mut Ctx<'_>, g: u32, qid: u32, level: usize, descending: bool) {
        let me = ctx.me();
        let comp = self.queries[qid as usize].comp;
        let parent = self.shape.parent(level, u64::from(g));
        let (slots, listed): (u64, &[u32]) = match self.cfg.variant {
            // The member slots whose report or summary named it.
            Variant::Hier => (self.groups[self.level_base[level] + g as usize].has[comp], &[]),
            // Every owner the central registry knows.
            Variant::Flat => (0, &self.owners[comp]),
        };
        // Slot `j` of seat `g` is host `g·f + j` at level 0 and child
        // seat `g·f + j` above it.
        let first = g * self.cfg.fanout;
        let candidates = (0..u64::BITS)
            .filter(|j| slots >> j & 1 == 1)
            .map(|j| first + j)
            .chain(listed.iter().copied());
        let mut sent = 0;
        let miss = route_at_seat(level as u8, descending, parent.is_some(), candidates, |c, child| {
            let event = match child {
                None => pack(K_QUERY_MEMBER, c, qid),
                Some(l) => pack(K_QUERY_DOWN, c, query_aux(qid, usize::from(l))),
            };
            ctx.send_packed(HOP, me, event);
            sent += 1;
            true
        });
        self.count_query_msgs(qid, sent);
        match (miss, parent) {
            (None, _) => {}
            (Some(Miss::Escalate), Some((pl, pg))) => {
                self.queries[qid as usize].escalations += 1;
                self.counts.escalations += 1;
                self.count_query_msgs(qid, 1);
                ctx.send_packed(HOP, me, pack(K_QUERY_UP, pg as u32, query_aux(qid, pl)));
            }
            (Some(_), _) => self.send_query_done(ctx, qid),
        }
    }

    fn send_query_done(&mut self, ctx: &mut Ctx<'_>, qid: u32) {
        let origin = self.queries[qid as usize].origin;
        self.count_query_msgs(qid, 1);
        let me = ctx.me();
        ctx.send_packed(HOP, me, pack(K_QUERY_DONE, origin, qid));
    }

    fn on_query_member(&mut self, ctx: &mut Ctx<'_>, qid: u32) {
        // The owner answers the origin with an offer.
        let origin = self.queries[qid as usize].origin;
        self.count_query_msgs(qid, 1);
        let me = ctx.me();
        ctx.send_packed(HOP, me, pack(K_OFFER, origin, qid));
    }

    fn on_offer(&mut self, ctx: &mut Ctx<'_>, qid: u32) {
        let now = ctx.now();
        let q = &mut self.queries[qid as usize];
        q.offers += 1;
        if q.first_offer_at.is_none() {
            q.first_offer_at = Some(now);
            self.counts.queries_completed += 1;
        }
    }

    fn on_churn(&mut self, node: u32) {
        match self.cfg.variant {
            Variant::Hier => {
                // Leave: deregister with the leaf replicas; soft state
                // above corrects itself on the next summary push.
                let g = self.shape.leaf_group_of(u64::from(node));
                let slot = u64::from(node) % self.shape.fanout();
                let st = self.gs(0, g);
                for c in 0..COMPONENTS.len() {
                    st.has[c] &= !(1 << slot);
                }
                let replicas = self.shape.mrms(0, g).count() as u64;
                self.counts.churn_msgs += replicas;
            }
            Variant::Flat => {
                // One deregister message to the central registry.
                self.counts.churn_msgs += 1;
            }
        }
    }

    /// Per-query outcomes, in query order.
    pub fn outcomes(&self) -> Vec<QueryOutcome> {
        self.queries
            .iter()
            .map(|q| QueryOutcome {
                msgs: q.msgs,
                escalations: q.escalations,
                offers: q.offers,
                first_offer_ns: q.first_offer_ns().unwrap_or(0),
            })
            .collect()
    }

    /// Bytes of campus state (len-based: seats, owner lists, queries).
    pub fn campus_bytes(&self) -> usize {
        self.groups.len() * std::mem::size_of::<GroupState>()
            + self.owners.iter().map(|o| o.len() * std::mem::size_of::<u32>()).sum::<usize>()
            + self.queries.len() * std::mem::size_of::<QueryState>()
    }
}

fn owner_flags(i: u32) -> u8 {
    let mut f = 0;
    if i % 256 == OWNER_RESIDUE[0] {
        f |= FLAG_OWNER_C0;
    }
    if i % 256 == OWNER_RESIDUE[1] {
        f |= FLAG_OWNER_C1;
    }
    f
}

fn owner_list(n: u32, comp: usize) -> Vec<u32> {
    (0..n).filter(|i| i % 256 == OWNER_RESIDUE[comp]).collect()
}

impl Actor for ScaleCampus {
    fn handle_mail(&mut self, _ctx: &mut Ctx<'_>, _mail: Mail<'_>) {
        debug_assert!(false, "scale campus only speaks the packed lane");
    }

    fn handle_packed(&mut self, ctx: &mut Ctx<'_>, data: u64) {
        let (kind, idx, aux) = unpack(data);
        match kind {
            K_REPORT => self.on_report(ctx, idx),
            K_SUMMARY => self.on_summary(ctx, idx, aux as usize),
            K_QUERY_START => self.on_query_start(ctx, idx, aux),
            K_QUERY_UP => {
                let (qid, level) = split_query_aux(aux);
                self.route_query(ctx, idx, qid, level, false);
            }
            K_QUERY_DOWN => {
                let (qid, level) = split_query_aux(aux);
                self.route_query(ctx, idx, qid, level, true);
            }
            K_QUERY_MEMBER => self.on_query_member(ctx, aux),
            K_OFFER => self.on_offer(ctx, aux),
            K_QUERY_DONE => { /* unresolved query returns to origin */ }
            K_CHURN => self.on_churn(idx),
            _ => debug_assert!(false, "unknown packed kind {kind}"),
        }
    }
}

/// Deterministic results of one campus run.
#[derive(Clone, Debug, PartialEq)]
pub struct ScaleReport {
    /// Node count.
    pub n: u32,
    /// Variant name (`hier`/`flat`).
    pub variant: &'static str,
    /// Hierarchy depth (1 for flat: one group).
    pub depth: usize,
    /// Group seats held.
    pub groups: usize,
    /// Kernel events fired.
    pub events: u64,
    /// Report/heartbeat messages.
    pub report_msgs: u64,
    /// Summary push messages.
    pub summary_msgs: u64,
    /// Query-path messages (queries, forwards, offers, dead-ends).
    pub query_msgs: u64,
    /// Queries issued / completed with ≥ 1 offer.
    pub queries: u32,
    /// Queries resolved.
    pub queries_completed: u64,
    /// Mean messages per query.
    pub msgs_per_query: f64,
    /// Membership-change events and their total message cost.
    pub churn_events: u32,
    /// Messages spent on membership changes.
    pub churn_msgs: u64,
    /// Mean messages per membership change.
    pub churn_msgs_per_event: f64,
    /// Escalations across all queries.
    pub escalations: u64,
    /// Campus state bytes (len-based).
    pub campus_bytes: usize,
    /// Event-calendar arena bytes (capacity high-water).
    pub queue_bytes: usize,
    /// `(campus_bytes + queue_bytes) / n`.
    pub bytes_per_node: f64,
    /// Total message deliveries tallied.
    pub traffic_total: u64,
    /// Median first-offer latency (virtual ns).
    pub latency_p50_ns: u64,
    /// 99th-percentile first-offer latency (virtual ns).
    pub latency_p99_ns: u64,
    /// Per-query outcomes, in query order.
    pub outcomes: Vec<QueryOutcome>,
}

/// Run one campus to completion and collect the report.
///
/// Schedule: every node reports each round (staggered over the first
/// half of the period); summaries propagate level-by-level inside the
/// round; queries and churn fire in the last round, after convergence.
pub fn run_scale(cfg: ScaleConfig, seed: u64) -> ScaleReport {
    let (report, _) = run_scale_profiled(cfg, seed, None);
    report
}

/// [`run_scale`] with an optional kernel profiler attached to the
/// internally-built [`Sim`]. The profiler is pure observation (it
/// schedules nothing and draws no randomness), so the returned
/// [`ScaleReport`] is byte-identical whether `prof` is `Some` or
/// `None` — E15 asserts exactly that.
pub fn run_scale_profiled(
    cfg: ScaleConfig,
    seed: u64,
    prof: Option<lc_des::ProfilerConfig>,
) -> (ScaleReport, Option<lc_des::ProfileReport>) {
    let period = cfg.report_period;
    let rounds = u64::from(cfg.rounds);
    assert!(cfg.rounds >= 2, "need a warm-up round and a measure round");
    let campus = ScaleCampus::build(cfg.clone());
    let depth = campus.shape.depth();
    assert!(depth <= 8, "summary stagger supports 8 levels");
    // Read off the campus's own tree before the actor moves into the
    // kernel: how many groups push a summary at each level.
    let groups_at: [u64; 8] =
        std::array::from_fn(|l| if l < depth { campus.shape.group_count(l) } else { 0 });
    let mut sim = Sim::new(seed);
    if let Some(p) = prof {
        sim.enable_profiler(p);
    }
    let me = sim.spawn(campus);

    // Reports: each node, staggered over the first half of the period.
    let half = period.as_nanos() / 2;
    for node in 0..cfg.n {
        let stagger = SimTime::from_nanos(u64::from(node) * half / u64::from(cfg.n));
        sim.send_packed(stagger, me, pack(K_REPORT, node, 0));
    }
    // Summaries (hier only): level l pushes at (8+l)/16 of each period,
    // so presence reaches the root within the same round.
    if cfg.variant == Variant::Hier {
        for (level, &groups) in groups_at[..depth].iter().enumerate() {
            let at = period * (8 + level as u64) / 16;
            for g in 0..groups {
                sim.send_packed(at, me, pack(K_SUMMARY, g as u32, level as u32));
            }
        }
    }
    // Queries: early in the last round, spaced 2 ms apart.
    for i in 0..cfg.queries {
        let origin = ((u64::from(i) + 1) * u64::from(cfg.n) / (u64::from(cfg.queries) + 1)) as u32;
        let at = period * (rounds - 1)
            + period / 16
            + SimTime::from_millis(2) * u64::from(i);
        sim.send_packed(at, me, pack(K_QUERY_START, origin, i));
    }
    // Churn: after the queries, still inside the last round.
    for j in 0..cfg.churn {
        let node = (u64::from(j) * 997 + 13) as u32 % cfg.n;
        let at = period * (rounds - 1) + period * 5 / 8 + period / 64 * u64::from(j);
        sim.send_packed(at, me, pack(K_CHURN, node, j));
    }

    sim.run_until(period * rounds);

    let profile = sim.profile_report();
    let queue_bytes = sim.queue_arena_bytes();
    let events = sim.events_fired();
    let campus = match sim.actor_as::<ScaleCampus>(me) {
        Some(c) => c,
        None => unreachable!("campus actor never dies"),
    };
    let counts = &campus.counts;
    let campus_bytes = campus.campus_bytes();
    let outcomes = campus.outcomes();
    let mut latency_ns: Vec<u64> =
        campus.queries.iter().filter_map(QueryState::first_offer_ns).collect();
    latency_ns.sort_unstable();
    let latency = |q| lc_des::nearest_rank(&latency_ns, q).unwrap_or(0);
    let report = ScaleReport {
        n: cfg.n,
        variant: cfg.variant.name(),
        depth,
        groups: campus.groups.len(),
        events,
        report_msgs: counts.report_msgs,
        summary_msgs: counts.summary_msgs,
        query_msgs: counts.query_msgs,
        queries: cfg.queries,
        queries_completed: counts.queries_completed,
        msgs_per_query: counts.query_msgs as f64 / f64::from(cfg.queries.max(1)),
        churn_events: cfg.churn,
        churn_msgs: counts.churn_msgs,
        churn_msgs_per_event: counts.churn_msgs as f64 / f64::from(cfg.churn.max(1)),
        escalations: counts.escalations,
        campus_bytes,
        queue_bytes,
        bytes_per_node: (campus_bytes + queue_bytes) as f64 / f64::from(cfg.n),
        traffic_total: counts.traffic,
        latency_p50_ns: latency(0.5),
        latency_p99_ns: latency(0.99),
        outcomes,
    };
    (report, profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hier_queries_resolve_with_flat_cost() {
        let r = run_scale(ScaleConfig::new(4_096, Variant::Hier), 11);
        assert_eq!(r.queries_completed, u64::from(r.queries));
        // Every query resolves through the tree: messages stay within a
        // small multiple of the depth, far below owner count (16).
        assert!(r.msgs_per_query < 20.0, "msgs/query {}", r.msgs_per_query);
        assert!(r.escalations > 0, "campus queries should have to ascend");
        assert_eq!(r.depth, 4);
        // Reports: n × replicas × rounds.
        assert_eq!(r.report_msgs, 4_096 * 2 * 2);
    }

    #[test]
    fn flat_fanout_grows_with_owner_count() {
        let small = run_scale(ScaleConfig::new(2_048, Variant::Flat), 11);
        let big = run_scale(ScaleConfig::new(8_192, Variant::Flat), 11);
        assert_eq!(small.queries_completed, u64::from(small.queries));
        // 4× the nodes → 4× the owners → ≈4× the per-query messages.
        assert!(big.msgs_per_query > small.msgs_per_query * 3.0);
    }

    #[test]
    fn same_seed_same_report() {
        let a = run_scale(ScaleConfig::new(4_096, Variant::Hier), 7);
        let b = run_scale(ScaleConfig::new(4_096, Variant::Hier), 7);
        assert_eq!(a.events, b.events);
        assert_eq!(a.query_msgs, b.query_msgs);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.campus_bytes, b.campus_bytes);
        assert_eq!(a.queue_bytes, b.queue_bytes);
    }
}
