//! E15 — profiling the platform at scale: virtual-time profiler
//! overhead, deterministic trace sampling, and SLO monitors under
//! churn.
//!
//! Three observability claims from DESIGN.md §14, each measured:
//!
//! 1. **Profiler overhead and fidelity** — the E13 scale sweep (`hier`,
//!    10³–10⁵ nodes) runs twice per point, profiler off and on. The
//!    profiler is pure observation, so both runs must produce the
//!    *same* [`ScaleReport`] (asserted per point, reported in the
//!    `identical` column). The host cost of the per-event hook is the
//!    benchmark's `trace.overhead_pct` / `des.profiled_event_ns` rows
//!    (`.perf`), measured from outside.
//! 2. **Sampling determinism** — the E14 sharded-registry campus (1024
//!    nodes, 4 shards, E10-style churn) runs at three head-sampling
//!    rates: full, 1/8 and 1/64. The simulation outcome fingerprint
//!    (answers, query messages, SLO breaches, crashes) must be
//!    byte-identical across rates — sampling only changes what the
//!    tracer *retains* — and each sampled span set must be a
//!    prefix-closed subset of the full run's span forest.
//! 3. **SLO monitors in virtual time** — every node evaluates a p99
//!    latency rule and an error-budget burn-rate rule over 2 s windows;
//!    1 query in 16 targets a component that does not exist, so the
//!    burn rule deterministically fires and dumps the flight recorder.
//!
//! Artefacts: a collapsed-stack flamegraph (span trees of the full run
//! merged with the DES kernel profile) and a per-node virtual-time
//! timeline — both derived from virtual time only, so the ci.sh double
//! run diffs them byte-for-byte, like the report and the JSON.

use crate::e14;
use crate::{format_table, human_bytes, Json, Output};
use lc_core::node::RegistryConfig;
use lc_core::scale::{run_scale_profiled, ScaleConfig, ScaleReport, Variant};
use lc_core::testkit::World;
use lc_core::{demo, ComponentQuery, QuerySink, ShardConfig, KIND_NAMES};
use lc_des::{ProfileReport, ProfilerConfig, SimTime};
use lc_net::{HostId, Net, Topology};
use lc_pkg::Version;
use lc_trace::{SampleConfig, SloConfig, SloKind, SloRule, Span, SpanId, Tracer};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// JSON schema version (bump when keys change; ci.sh pins the diff).
pub const SCHEMA_VERSION: u32 = 1;

/// The committed run's seed.
const SEED: u64 = 15;

/// Campus sizes profiled in part A (the `hier` scale-sweep points).
pub const PROF_SIZES: [u32; 3] = [1_000, 10_000, 100_000];

/// Traced campus size for part B (sites × 8).
const NODES: u32 = 1024;
/// Shard count of the part-B registry backend.
const SHARDS: u32 = 4;
/// Distinct components spread over the shard space.
const COMPONENTS: u32 = 32;
/// Queries issued per sampling rate.
const QUERIES: u32 = 640;
/// Virtual-time spacing between queries.
const QUERY_GAP: SimTime = SimTime::from_millis(12);
/// Every `MISS_EVERY`-th query targets a component that does not
/// exist, so the error-budget burn rule has a deterministic signal.
const MISS_EVERY: u32 = 16;

/// The part-A grid, capped at `max_nodes` (ci.sh smoke caps at 10⁴).
pub fn prof_grid(max_nodes: u32) -> Vec<u32> {
    PROF_SIZES.iter().copied().filter(|&n| n <= max_nodes).collect()
}

/// One profiled sweep point: the same campus run twice, profiler off
/// then on.
pub struct ProfPoint {
    /// Campus size.
    pub n: u32,
    /// The kernel profile of the profiler-on run.
    pub profile: ProfileReport,
    /// Did the profiler-on run produce the identical report?
    pub identical: bool,
}

/// Run one sweep point with the profiler off (pure simulation).
pub fn run_off(n: u32, seed: u64) -> ScaleReport {
    let (report, _) = run_scale_profiled(ScaleConfig::new(n, Variant::Hier), seed, None);
    report
}

/// Run one sweep point with the profiler on.
pub fn run_on(n: u32, seed: u64) -> (ScaleReport, ProfileReport) {
    let (report, profile) =
        run_scale_profiled(ScaleConfig::new(n, Variant::Hier), seed, Some(ProfilerConfig::default()));
    match profile {
        Some(p) => (report, p),
        None => unreachable!("profiler was enabled"),
    }
}

/// The part-B SLO rule set: a windowed p99 latency ceiling on the
/// query-latency histogram and an error-budget burn-rate rule over the
/// empty-result fraction (budget 1 %, breach at ≥ 1× burn — the
/// deterministic 1-in-16 misses burn ≈ 6×).
pub fn slo_config() -> SloConfig {
    SloConfig {
        window: SimTime::from_secs(2),
        rules: vec![
            SloRule {
                name: "query-p99-us".to_owned(),
                kind: SloKind::LatencyQuantile { q_ppm: 990_000, max: 5_000, min_samples: 8 },
            },
            SloRule {
                name: "query-empty-burn".to_owned(),
                kind: SloKind::BurnRate { budget_ppm: 10_000, max_burn_centi: 100, min_total: 16 },
            },
        ],
    }
}

/// Part-B query origins: four fixed front-end seats (sites 1–4, seat
/// 2 — never an MRM, owner or crash seat), so the per-node latency
/// histograms accumulate enough window samples for the SLO rules.
fn origin(q: u32) -> HostId {
    HostId(((q % 4) + 1) * 8 + 2)
}

/// The sampling ladder: label and head-sampling rate (1-in-n).
pub const RATES: [(&str, Option<u32>); 3] = [("full", None), ("1/8", Some(8)), ("1/64", Some(64))];

/// One traced campus run at a fixed sampling rate.
pub struct TracedRun {
    /// Rate label (`full`, `1/8`, `1/64`).
    pub label: &'static str,
    /// Every span the tracer retained.
    pub spans: Vec<Span>,
    /// Distinct traces retained.
    pub traces: usize,
    /// Queries answered with at least one offer.
    pub answered: u64,
    /// `slo.breaches` fired across the campus (virtual time).
    pub breaches: u64,
    /// Flight-recorder span events dumped by breach records.
    pub flight_events: u64,
    /// First few breach lines (deterministic, for the report).
    pub breach_lines: Vec<String>,
    /// Deterministic simulation-outcome fingerprint; equal across
    /// sampling rates iff sampling never perturbed the run.
    pub fingerprint: String,
}

/// Run the part-B campus once at the given sampling rate.
pub fn run_traced(seed: u64, label: &'static str, one_in: Option<u32>) -> TracedRun {
    let sites = NODES / 8;
    let tracer = Tracer::new();
    tracer.set_sampling(one_in.map(|n| SampleConfig::one_in(n, seed)));
    let registry = RegistryConfig::Sharded(ShardConfig {
        shards: SHARDS,
        replicas: 2,
        vnodes: 8,
        gossip_period: SimTime::from_millis(500),
        publish_ttl: SimTime::from_secs(2),
    });
    let mut cfg = e14::config(registry);
    cfg.slo = Some(slo_config());
    let mut w = World::on(
        Net::builder(Topology::campus(sites as usize, 8))
            .tracer(tracer.clone())
            .fault_plan(e14::churn_plan(seed, sites))
            .build(),
        seed,
        cfg,
        demo::catalog(),
        e14::preinstalled(COMPONENTS, sites),
    );

    w.sim.run_until(SimTime::from_secs(7));
    let msgs_before = w.sim.metrics_ref().counter("query.msgs");

    let mut sinks: Vec<QuerySink> = Vec::new();
    for q in 0..QUERIES {
        let name = if q % MISS_EVERY == 0 {
            "SvcMissing".to_owned()
        } else {
            e14::component_name(q % COMPONENTS)
        };
        sinks.push(w.query(origin(q), ComponentQuery::by_name(&name, Version::new(1, 0)), true));
        w.run_for(QUERY_GAP);
    }
    w.run_for(SimTime::from_secs(2));

    let answered = sinks.iter().filter(|s| s.borrow().first_offer_at.is_some()).count() as u64;
    let m = w.sim.metrics_ref();
    let fingerprint = format!(
        "answered={} query.msgs={} breaches={} crashes={} gossip={}",
        answered,
        m.counter("query.msgs") - msgs_before,
        m.counter("slo.breaches"),
        m.counter("net.fault.crashes"),
        m.counter("registry.gossip_msgs"),
    );
    let breaches = m.counter("slo.breaches");

    // Walk the (alive) nodes for their SLO monitors: flight-recorder
    // dump sizes and the first few breach lines, in (time, node) order.
    let mut flight_events = 0u64;
    let mut lines: Vec<(u64, u32, String)> = Vec::new();
    for host in 0..NODES {
        let Some(node) = w.node(HostId(host)) else { continue };
        let Some(mon) = node.slo_monitor() else { continue };
        for rec in mon.breaches() {
            flight_events += rec.flight.len() as u64;
            lines.push((
                rec.breach.at.as_nanos(),
                host,
                format!("node {:>4}  {} ({} flight events)", host, rec.breach.render(), rec.flight.len()),
            ));
        }
    }
    lines.sort();
    let breach_lines: Vec<String> = lines.into_iter().take(4).map(|(_, _, l)| l).collect();

    let spans = tracer.spans();
    let traces = spans.iter().map(|s| s.trace).collect::<BTreeSet<_>>().len();
    TracedRun { label, spans, traces, answered, breaches, flight_events, breach_lines, fingerprint }
}

/// Is `sub` a prefix-closed subset of `full`? (Every sampled span
/// exists in the full run, and every sampled span's parent was also
/// sampled.)
pub fn prefix_closed_subset(sub: &[Span], full: &[Span]) -> bool {
    let full_ids: BTreeSet<SpanId> = full.iter().map(|s| s.id).collect();
    let sub_ids: BTreeSet<SpanId> = sub.iter().map(|s| s.id).collect();
    sub.iter().all(|s| {
        full_ids.contains(&s.id) && s.parent.map(|p| sub_ids.contains(&p)).unwrap_or(true)
    })
}

/// The flamegraph artefact: span-tree collapsed stacks of the full
/// traced run merged with the DES kernel profile of the largest
/// profiled sweep point. Virtual-time weights only — byte-identical
/// across runs.
pub fn flame_artefact(full_spans: &[Span], profile: &ProfileReport) -> String {
    let mut s = String::new();
    s.push_str(&lc_trace::flame::to_collapsed(full_spans));
    s.push_str(&lc_trace::profile::to_collapsed(profile, &KIND_NAMES));
    s
}

/// The per-node virtual-time timeline artefact: the first two
/// front-end seats of the traced campus.
pub fn timeline_artefact(full_spans: &[Span]) -> String {
    lc_trace::flame::to_timeline(full_spans, &[origin(0).0, origin(1).0])
}

/// Render the machine-readable summary: one JSON object, keys sorted,
/// floats at fixed precision.
fn render_json(points: &[ProfPoint], runs: &[TracedRun], seed: u64) -> String {
    let full = &runs[0];
    let point = |p: &ProfPoint| {
        Json::obj([
            ("arena_bytes_max", p.profile.arena_bytes_max.into()),
            ("depth_max", p.profile.depth_max.into()),
            ("events", p.profile.events.into()),
            ("identical", p.identical.into()),
            ("n", p.n.into()),
            ("queue_samples", p.profile.samples.len().into()),
            ("samples_dropped", p.profile.samples_dropped.into()),
        ])
    };
    let traced = |r: &TracedRun| {
        Json::obj([
            ("answered", r.answered.into()),
            ("breaches", r.breaches.into()),
            ("flight_events", r.flight_events.into()),
            ("identical", (r.fingerprint == full.fingerprint).into()),
            ("prefix_closed_subset", prefix_closed_subset(&r.spans, &full.spans).into()),
            ("rate", r.label.into()),
            ("spans", r.spans.len().into()),
            ("traces", r.traces.into()),
        ])
    };
    Json::obj([
        ("experiment", "e15_profiling".into()),
        ("profiler_points", Json::arr(points.iter().map(point))),
        ("schema_version", SCHEMA_VERSION.into()),
        ("seed", seed.into()),
        ("traced", Json::arr(runs.iter().map(traced))),
    ])
    .render()
}

/// Render every artefact from completed parts A and B: the report,
/// the JSON summary, the collapsed-stack flamegraph (`.flame.txt`) and
/// the per-node virtual-time timeline (`.timeline.txt`). `points` ends
/// with the largest profiled campus and `runs[0]` is the full
/// (unsampled) traced run. Fails if the profiler ever perturbed a
/// simulation.
fn render(points: &[ProfPoint], runs: &[TracedRun], seed: u64) -> Output {
    let largest = &points[points.len() - 1];
    let full = &runs[0];
    let mut report = String::new();
    let _ = writeln!(report, "E15: profiling, sampling and SLO monitors at scale (seed {seed})");
    let _ = writeln!(
        report,
        "part A: hier scale sweep profiled off/on; part B: {NODES}-node sharded campus, \
         {QUERIES} queries, 1-in-{MISS_EVERY} deliberate misses, churn + SLO rules"
    );

    let rows_a: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let pr = &p.profile;
            vec![
                p.n.to_string(),
                pr.events.to_string(),
                pr.lane(lc_des::Lane::Packed).events.to_string(),
                pr.samples.len().to_string(),
                pr.depth_max.to_string(),
                human_bytes(pr.arena_bytes_max as u64),
                p.identical.to_string(),
            ]
        })
        .collect();
    report.push_str(&format_table(
        "A: virtual-time profiler over the scale sweep (hier)",
        &["nodes", "events", "packed", "samples", "qdepth max", "arena max", "identical"],
        &rows_a,
    ));

    let _ = writeln!(report);
    report.push_str(&lc_trace::profile::render(&largest.profile, &KIND_NAMES, 5));

    let rows_b: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                r.spans.len().to_string(),
                r.traces.to_string(),
                r.answered.to_string(),
                r.breaches.to_string(),
                r.flight_events.to_string(),
                prefix_closed_subset(&r.spans, &full.spans).to_string(),
                (r.fingerprint == full.fingerprint).to_string(),
            ]
        })
        .collect();
    report.push_str(&format_table(
        "B: head sampling on the sharded campus under churn",
        &["rate", "spans", "traces", "answered", "breaches", "flight", "prefix-closed", "identical"],
        &rows_b,
    ));

    let _ = writeln!(report, "\n== first SLO breaches (virtual time, full run) ==");
    for line in &full.breach_lines {
        let _ = writeln!(report, "{line}");
    }

    let retained: Vec<String> =
        runs.iter().map(|r| format!("{}: {} spans", r.label, r.spans.len())).collect();
    let _ = writeln!(
        report,
        "\nsampling kept bounded memory without touching the outcome: {}",
        retained.join(", ")
    );

    let flame = flame_artefact(&full.spans, &largest.profile);
    let timeline = timeline_artefact(&full.spans);
    let _ = writeln!(
        report,
        "\nsummary: {} profiler points + {} traced runs written to JSON; \
         flamegraph {} lines, timeline {} lines",
        points.len(),
        runs.len(),
        flame.lines().count(),
        timeline.lines().count(),
    );
    Output {
        report,
        files: vec![
            (".json", render_json(points, runs, seed)),
            (".flame.txt", flame),
            (".timeline.txt", timeline),
        ],
        failed: points
            .iter()
            .find(|p| !p.identical)
            .map(|p| format!("e15: profiler perturbed the {}-node simulation", p.n)),
    }
}

/// Run part A up to `max_nodes` (ci.sh smoke caps at 10⁴; the committed
/// artefacts are the full 10⁵ sweep), part B at every sampling rate,
/// and render.
pub fn run(max_nodes: u32) -> Output {
    let points = run_profiled(SEED, max_nodes);
    if points.is_empty() {
        return Output::failed("e15: --max-nodes is below the smallest profiled campus");
    }
    let runs: Vec<TracedRun> =
        RATES.iter().map(|&(label, one_in)| run_traced(SEED, label, one_in)).collect();
    render(&points, &runs, SEED)
}

/// Run part A: every (capped) sweep point, profiler off then on.
fn run_profiled(seed: u64, max_nodes: u32) -> Vec<ProfPoint> {
    prof_grid(max_nodes)
        .into_iter()
        .map(|n| {
            let off = run_off(n, seed);
            let (on, profile) = run_on(n, seed);
            ProfPoint { n, profile, identical: off == on }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_is_pure_observation() {
        let off = run_off(1_000, 15);
        let (on, profile) = run_on(1_000, 15);
        assert_eq!(off, on, "profiler perturbed the simulation");
        assert_eq!(profile.events, off.events);
        // Every event is attributed to exactly one lane.
        let lanes: u64 = profile.lanes.iter().map(|t| t.events).sum();
        assert_eq!(lanes, profile.events);
        assert!(!profile.samples.is_empty(), "cadence produced no queue samples");
    }

    #[test]
    fn sampling_never_perturbs_and_stays_prefix_closed() {
        let full = run_traced(15, "full", None);
        let eighth = run_traced(15, "1/8", Some(8));
        assert_eq!(full.fingerprint, eighth.fingerprint, "sampling changed the simulation");
        assert!(eighth.spans.len() < full.spans.len(), "1/8 sampling retained everything");
        assert!(prefix_closed_subset(&eighth.spans, &full.spans));
        // The SLO pipeline fired: deliberate misses burn the error
        // budget, breaches dump the flight recorder.
        assert!(full.breaches > 0, "no SLO breaches fired");
        assert!(full.flight_events > 0, "breaches dumped no flight events");
        assert!(!full.breach_lines.is_empty());
    }
}
