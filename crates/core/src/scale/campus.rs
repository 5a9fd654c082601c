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
//!   into matching subtrees. Every seat decision is a [`cohesion`] step,
//!   the ones [`Node`](crate::node::Node)s run, over the [`HierShape`]
//!   every node reads its seats from; this actor carries their outputs
//!   as packed events and counts.
//! * **flat** — one central registry on node 0: the hierarchy collapsed
//!   into a single group, as [`CohesionConfig::flat`](crate::cohesion::CohesionConfig::flat)
//!   collapses the node stack's. Every query fans out to *all* matching owners, so
//!   messages per query grow linearly with campus size.
//!
//! Group soft state is per *seat*, not per node: one `u64` presence mask
//! per component — constant bytes per group, ≈ n/(fanout−1) groups —
//! which is the campus's [`SeatStore`].

use crate::cohesion::{self, HierShape, Route, Seat, SeatStore};
use lc_des::{Actor, Ctx, Mail, Sim, SimTime};
use lc_net::HostId;

/// Components the sweep queries for; node `i` owns component `c` iff
/// `i % 256 == OWNER_RESIDUE[c]` (≈ one owner per 128 nodes overall).
pub const COMPONENTS: [&str; 2] = ["sensor.telemetry", "media.decoder"];
const OWNER_RESIDUE: [u32; 2] = [7, 19];

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

/// The campus's seat store. A report or summary is a flag bit per
/// component; it sets or clears the member slot's bit in each mask.
impl SeatStore for GroupState {
    type Report = u8;
    type Summary = u8;

    fn on_report(&mut self, _: HostId, slot: u64, flags: u8, _: SimTime) {
        for (c, has) in self.has.iter_mut().enumerate() {
            *has = *has & !(1 << slot) | u64::from(flags >> c & 1) << slot;
        }
    }

    fn on_summary(&mut self, from: HostId, slot: u64, flags: u8, now: SimTime) {
        self.on_report(from, slot, flags, now);
    }

    fn summary(&self) -> u8 {
        self.has.iter().enumerate().fold(0, |flags, (c, &has)| flags | u8::from(has != 0) << c)
    }
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
    /// Owner node lists per component (the flat central's view; empty
    /// in the hierarchy, whose seats route by their masks).
    owners: [Vec<u32>; COMPONENTS.len()],
    queries: Vec<QueryState>,
    counts: Counts,
    /// Reports pending at once: each arms the one this many places on
    /// in the campus-wide order `(round, node)` ([`report_window`]).
    window: u64,
    /// Reports and summaries stop rescheduling at this time.
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
        let owners = match cfg.variant {
            Variant::Hier => Default::default(),
            Variant::Flat => [owner_list(cfg.n, 0), owner_list(cfg.n, 1)],
        };
        let t_end = cfg.report_period * u64::from(cfg.rounds);
        ScaleCampus {
            queries: Vec::with_capacity(cfg.queries as usize),
            shape,
            groups,
            level_base,
            owners,
            counts: Counts::default(),
            window: report_window(cfg.n, cfg.report_period),
            t_end,
            cfg,
        }
    }

    /// `node` reports `flags` (a leave reports none) to each replica of
    /// its leaf seat; returns how many. The flat centre keeps no masks.
    #[inline]
    fn report(&mut self, node: u32, flags: u8, now: SimTime) -> u64 {
        let ((level, g), slot) = cohesion::report_seat(&self.shape, HostId(node));
        if self.cfg.variant == Variant::Hier {
            let masks = &mut self.groups[self.level_base[level] + g as usize];
            masks.on_report(HostId(node), slot, flags, now);
        }
        self.shape.mrm_hosts(level, g).count() as u64
    }

    fn on_report(&mut self, ctx: &mut Ctx<'_>, node: u32) {
        let sent = self.report(node, owner_flags(node), ctx.now());
        self.counts.report_msgs += sent;
        self.counts.traffic += sent;
        // The report wheel: arm the report `window` places on in the
        // order `(round, node)`, wrapping into the next round.
        let (n, period, now) = (u64::from(self.cfg.n), self.cfg.report_period, ctx.now());
        let next = now.as_nanos() / period.as_nanos() * n + u64::from(node) + self.window;
        let (round, i) = (next / n, next % n);
        let at = period * round + stagger(i, n, period);
        if at < self.t_end {
            let lead = at - now;
            // Armed more than a hop ahead, a report is still pushed before
            // any query hop due at its instant, as a per-node timer was.
            debug_assert!(lead > HOP || self.window == n, "report armed only {lead} ahead");
            let me = ctx.me();
            ctx.send_packed(lead, me, pack(K_REPORT, i as u32, 0));
        }
    }

    /// A seat's summary tick (hierarchy only): its configured primary
    /// acts, and one write to the parent's masks stands for every push.
    fn on_summary(&mut self, ctx: &mut Ctx<'_>, g: u32, level: usize) {
        let seat = (level, u64::from(g));
        let own = &self.groups[self.level_base[level] + g as usize];
        if let Some((flags, parents)) = cohesion::push_summary(&self.shape, seat, true, own) {
            self.counts.summary_msgs += parents.count() as u64;
            self.counts.traffic += 1;
            if let Some(((pl, pg), slot)) = cohesion::summary_seat(&self.shape, seat) {
                let from = HostId(self.shape.primary(level, seat.1) as u32);
                let masks = &mut self.groups[self.level_base[pl] + pg as usize];
                masks.on_summary(from, slot, flags, ctx.now());
            }
        }
        let me = ctx.me();
        if ctx.now() + self.cfg.report_period < self.t_end {
            ctx.send_packed(self.cfg.report_period, me, pack(K_SUMMARY, g, level as u32));
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
        let g = self.shape.group_of(0, u64::from(origin)) as u32;
        self.count_query_msgs(qid, 1);
        ctx.send_packed(HOP, ctx.me(), pack(K_QUERY_UP, g, query_aux(qid, 0)));
    }

    fn count_query_msgs(&mut self, qid: u32, n: u32) {
        self.queries[qid as usize].msgs += n;
        self.counts.query_msgs += u64::from(n);
        self.counts.traffic += u64::from(n);
    }

    /// Who seat `(level, g)` believes may hold `comp`: member `g·f + j`
    /// (a node or child group) for each set bit `j`, or every flat owner.
    fn candidates(&self, (level, g): Seat, comp: usize) -> impl Iterator<Item = u32> + '_ {
        let (slots, listed): (u64, &[u32]) = match self.cfg.variant {
            Variant::Hier => (self.groups[self.level_base[level] + g as usize].has[comp], &[]),
            Variant::Flat => (0, &self.owners[comp]),
        };
        let first = g as u32 * self.cfg.fanout;
        let slots = (0..u64::BITS).filter(move |j| slots >> j & 1 == 1);
        slots.map(move |j| first + j).chain(listed.iter().copied())
    }

    /// A query at seat `(level, g)`: each ask, escalation or dead end of
    /// the query step is one counted packed event.
    fn route_query(&mut self, ctx: &mut Ctx<'_>, g: u32, qid: u32, level: usize, descending: bool) {
        let me = ctx.me();
        let seat = (level, u64::from(g));
        let candidates = self.candidates(seat, self.queries[qid as usize].comp);
        let mut sent = 0;
        let route = cohesion::route_query(&self.shape, seat, descending, candidates, |c, child| {
            let event = match child {
                None => pack(K_QUERY_MEMBER, c, qid),
                Some(l) => pack(K_QUERY_DOWN, c, query_aux(qid, usize::from(l))),
            };
            ctx.send_packed(HOP, me, event);
            sent += 1;
            true
        });
        self.count_query_msgs(qid, sent);
        match route {
            Route::Taken => {}
            Route::Escalate { level, g } => {
                self.queries[qid as usize].escalations += 1;
                self.counts.escalations += 1;
                self.count_query_msgs(qid, 1);
                ctx.send_packed(HOP, me, pack(K_QUERY_UP, g as u32, query_aux(qid, level)));
            }
            Route::DeadEnd => self.answer_origin(ctx, K_QUERY_DONE, qid),
        }
    }

    /// One counted message to `qid`'s origin: an owner's offer, or a
    /// seat's dead end.
    fn answer_origin(&mut self, ctx: &mut Ctx<'_>, kind: u8, qid: u32) {
        let origin = self.queries[qid as usize].origin;
        self.count_query_msgs(qid, 1);
        ctx.send_packed(HOP, ctx.me(), pack(kind, origin, qid));
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

    /// A leave: deregister with the leaf replicas; soft state above
    /// corrects itself on the next summary push.
    fn on_churn(&mut self, ctx: &mut Ctx<'_>, node: u32) {
        self.counts.churn_msgs += self.report(node, 0, ctx.now());
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

/// What node `i` reports: bit `c` set iff it hosts `COMPONENTS[c]`.
fn owner_flags(i: u32) -> u8 {
    let mut flags = 0;
    for (c, &residue) in OWNER_RESIDUE.iter().enumerate() {
        flags |= u8::from(i % 256 == residue) << c;
    }
    flags
}

fn owner_list(n: u32, comp: usize) -> Vec<u32> {
    (0..n).filter(|i| i % 256 == OWNER_RESIDUE[comp]).collect()
}

/// When node `i` of `n` reports within a round: staggered over the
/// first half of the period.
fn stagger(i: u64, n: u64, period: SimTime) -> SimTime {
    SimTime::from_nanos(i * (period.as_nanos() / 2) / n)
}

/// The fewest pending reports that keep each one armed more than a
/// [`HOP`] ahead of its instant, so that it is pushed before any query
/// hop due then (52 at 10⁶ nodes), capped at `n`.
///
/// Within a round reports sit `half / n` apart (`half` is the first
/// half of the period), so the report `window` places on is more than
/// `window · half / n − 1 ns` later; across a round it is more than
/// `half` later, and `half > HOP` whenever the cap does not bind.
fn report_window(n: u32, period: SimTime) -> u64 {
    let (n, half) = (u64::from(n), period.as_nanos() / 2);
    ((HOP.as_nanos() + 2) * n / half.max(1) + 2).min(n)
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
            K_QUERY_UP | K_QUERY_DOWN => {
                let (qid, level) = split_query_aux(aux);
                self.route_query(ctx, idx, qid, level, kind == K_QUERY_DOWN);
            }
            K_QUERY_MEMBER => self.answer_origin(ctx, K_OFFER, aux),
            K_OFFER => self.on_offer(ctx, aux),
            K_QUERY_DONE => { /* unresolved query returns to origin */ }
            K_CHURN => self.on_churn(ctx, idx),
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
/// The calendar holds a window of about fifty reports, not one per
/// node: each report arms a later one, so the campus's reports fire at
/// the same instants, in the same order, as one timer per node would.
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
    run_campus(ScaleCampus::build(cfg), seed, prof)
}

fn run_campus(
    campus: ScaleCampus,
    seed: u64,
    prof: Option<lc_des::ProfilerConfig>,
) -> (ScaleReport, Option<lc_des::ProfileReport>) {
    let cfg = campus.cfg.clone();
    let period = cfg.report_period;
    let rounds = u64::from(cfg.rounds);
    assert!(cfg.rounds >= 2, "need a warm-up round and a measure round");
    let window = campus.window;
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

    // Reports: the first `window` of round 0; each arms a later one.
    for node in 0..window {
        let at = stagger(node, u64::from(cfg.n), period);
        sim.send_packed(at, me, pack(K_REPORT, node as u32, 0));
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

    /// A run's report without what the calendar weighs, and its
    /// per-kind tallies (events and the virtual time each closed).
    fn fired(campus: ScaleCampus, seed: u64) -> (ScaleReport, Vec<(u8, lc_des::Tally)>) {
        let prof = Some(lc_des::ProfilerConfig::default());
        let (mut report, profile) = run_campus(campus, seed, prof);
        report.queue_bytes = 0;
        report.bytes_per_node = 0.0;
        (report, profile.map(|p| p.kinds).unwrap_or_default())
    }

    #[test]
    fn the_report_wheel_fires_what_per_node_timers_fire() {
        lc_prop::check("report wheel = one timer per node", |g| {
            // Round sizes put reports on the instants of query hops.
            let n = if g.gen_bool() {
                *g.pick(&[1_000, 1_250, 2_000, 2_500, 4_000, 5_000])
            } else {
                g.gen_range(1..5_001u32)
            };
            let mut cfg = ScaleConfig::new(n, *g.pick(&[Variant::Hier, Variant::Flat]));
            cfg.churn = g.gen_range(0..24u32);
            cfg.rounds = g.gen_range(2..4u32);
            // Short periods pack reports closer than a hop.
            if g.gen_bool() {
                let us = *g.pick(&[200, 1_000, 2_000, 5_000, 20_000, 100_000]);
                cfg.report_period = SimTime::from_micros(us);
            }
            let seed = g.any_u64();
            // A window of `n`: every node re-arms itself a period later.
            let mut timers = ScaleCampus::build(cfg.clone());
            timers.window = u64::from(n);
            let timers = fired(timers, seed);
            let wheel = fired(ScaleCampus::build(cfg), seed);
            assert_eq!(wheel, timers);
        });
    }

    /// One protocol over two stores. Random trees and holdings go through
    /// the same report and summary steps into a `DutyState` per seat (one
    /// replica's table on a node) and into the campus's masks. Every seat
    /// then has the same members present, in the same order, and a query
    /// step asks the same members and routes alike over either store.
    #[test]
    fn a_seat_routes_alike_over_either_store() {
        use crate::cohesion::{push_summary, report_seat, route_query, summary_seat, DutyState};
        use crate::resource::{DynamicInfo, ResourceReport, StaticInfo};
        use std::rc::Rc;
        let static_info = Rc::new(StaticInfo {
            platform: lc_pkg::Platform::reference(),
            device: lc_net::DeviceClass::Workstation,
            cpu_power: 1.0,
            memory: 1 << 30,
            up_bw: 1e7,
            down_bw: 1e7,
        });
        // The report a node sends to a node's seat, by its flags.
        let reports: Vec<ResourceReport> = (0..4u8)
            .map(|flags| ResourceReport {
                static_info: Rc::clone(&static_info),
                dynamic: DynamicInfo::default(),
                installed: (0..COMPONENTS.len())
                    .filter(|c| flags >> c & 1 == 1)
                    .map(|c| COMPONENTS[c].into())
                    .collect(),
            })
            .collect();
        lc_prop::check("a seat routes alike over either store", |g| {
            let mut cfg = ScaleConfig::new(g.gen_range(1..5_001u32), Variant::Hier);
            (cfg.fanout, cfg.replicas) = (g.gen_range(2..65u32), g.gen_range(1..4u32));
            let mut campus = ScaleCampus::build(cfg);
            let (shape, base) = (campus.shape.clone(), campus.level_base.clone());
            let at = |(level, g): Seat| base[level] + g as usize;
            let mut duties = vec![DutyState::default(); campus.groups.len()];
            let now = SimTime::ZERO;
            // Two rounds: about one node in eight holds each component,
            // and the second round's holdings clear some of the first's.
            for _ in 0..2 {
                for node in 0..campus.cfg.n {
                    let flags = (0..COMPONENTS.len())
                        .fold(0u8, |f, c| f | u8::from(g.gen_range(0..8u32) == 0) << c);
                    let (seat, slot) = report_seat(&shape, HostId(node));
                    let report = reports[usize::from(flags)].clone();
                    duties[at(seat)].on_report(HostId(node), slot, report, now);
                    campus.groups[at(seat)].on_report(HostId(node), slot, flags, now);
                }
                // Each configured primary pushes its seat's summary, leaves first.
                for level in 0..shape.depth() {
                    for gi in 0..shape.group_count(level) {
                        let (seat, from) = ((level, gi), HostId(shape.primary(level, gi) as u32));
                        let Some((parent, slot)) = summary_seat(&shape, seat) else { continue };
                        let pushed = push_summary(&shape, seat, true, &duties[at(seat)]);
                        let (summary, _) = pushed.expect("a seat with a parent pushes");
                        duties[at(parent)].on_summary(from, slot, summary, now);
                        let pushed = push_summary(&shape, seat, true, &campus.groups[at(seat)]);
                        let (flags, _) = pushed.expect("a seat with a parent pushes");
                        campus.groups[at(parent)].on_summary(from, slot, flags, now);
                    }
                }
            }
            // A node's seat keys a member by host; its index is the host
            // at level 0 and, above, the child group the host leads.
            let index = |level: usize, h: HostId| match level {
                0 => h.0,
                _ => shape.group_of(level - 1, u64::from(h.0)) as u32,
            };
            for level in 0..shape.depth() {
                for gi in 0..shape.group_count(level) {
                    for (c, name) in COMPONENTS.iter().enumerate() {
                        let held = duties[at((level, gi))].holders(name).iter();
                        let held: Vec<u32> = held.map(|&h| index(level, h)).collect();
                        let masked: Vec<u32> = campus.candidates((level, gi), c).collect();
                        assert_eq!(held, masked, "seat ({level}, {gi}), {name}");
                    }
                }
            }
            for _ in 0..16 {
                let level = g.gen_range(0..shape.depth());
                let seat = (level, g.gen_range(0..shape.group_count(level)));
                let (c, descending) = (g.gen_range(0..COMPONENTS.len()), g.gen_bool());
                let salt = g.any_u64();
                let took = |i: u32| (u64::from(i) ^ salt) % 3 == 0;
                let (mut by_host, mut by_mask) = (Vec::new(), Vec::new());
                let held = duties[at(seat)].holders(COMPONENTS[c]).iter().copied();
                let via_host = route_query(&shape, seat, descending, held, |h, child| {
                    by_host.push((index(level, h), child));
                    took(index(level, h))
                });
                let masked = campus.candidates(seat, c);
                let via_mask = route_query(&shape, seat, descending, masked, |i, child| {
                    by_mask.push((i, child));
                    took(i)
                });
                assert_eq!((via_host, by_host), (via_mask, by_mask), "seat {seat:?}");
            }
        });
    }

    #[test]
    fn a_scale_run_keeps_a_window_of_reports_pending() {
        let cfg = ScaleConfig::new(100_000, Variant::Hier);
        let (report, profile) = run_scale_profiled(cfg, 5, Some(lc_des::ProfilerConfig::default()));
        let Some(profile) = profile else { panic!("profiler attached") };
        assert_eq!(report.queries_completed, u64::from(report.queries));
        // The summaries (one per seat), the queries and churn pushed at
        // setup, and a window of reports — not one report per node.
        assert_eq!(profile.depth_max, 14_330);
    }
}
