//! E11 — observability: deterministic distributed tracing, the
//! per-service node metrics and the per-node flight recorder, exercised
//! end to end on a 24-node campus.
//!
//! The workload is a condensed E2 + E10: first-wins component queries
//! from every site, cross-site invocations against a spawned Counter,
//! then a crash of the component owner mid-stream (invocations into the
//! outage exercise the retry path and its span links; the dead node's
//! flight recorder is read back post-mortem) and a recovery.
//!
//! Everything the report prints is derived from **virtual** time and
//! counters — span ids come from per-node counters, timestamps from the
//! simulation clock — so two runs with the same seed produce
//! byte-identical reports *and* byte-identical JSONL/chrome exports
//! (`<stem>.trace.jsonl`, `<stem>.trace.json` for chrome://tracing;
//! ci.sh runs the experiment twice and diffs all three).
//!
//! The same workload also runs with tracing compiled in but *disabled*
//! (the default for every other experiment): the report asserts that
//! the fabric/query/orb counters of both runs are identical, i.e. the
//! instrumentation is observationally free when off.

use crate::{f2, format_table, per_service_rows, Output, PER_SERVICE_HEADERS};
use lc_core::cohesion::CohesionConfig;
use lc_core::demo;
use lc_core::node::InvokePolicy;
use lc_core::testkit::World;
use lc_core::{ComponentQuery, NodeConfig, QuerySink};
use lc_des::SimTime;
use lc_net::{HostId, Net, Topology};
use lc_orb::Value;
use lc_trace::{critical_path, to_chrome, to_jsonl, Span, TraceId, Tracer};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The committed run's seed.
const SEED: u64 = 11;
/// Queries issued before the crash window.
const QUERIES: u32 = 9;
/// Cross-site invocations against the Counter instance.
const CALLS: u32 = 4;
/// The component owner that gets crashed and recovered.
const VICTIM: HostId = HostId(7);

/// What the workload alone observed — compared between the traced and
/// the tracing-disabled run for the overhead check.
struct Observed {
    query_hits: usize,
    counter_value: i64,
    sim_counters: Vec<(String, u64)>,
}

fn config() -> NodeConfig {
    NodeConfig {
        cohesion: CohesionConfig {
            fanout: 8,
            replicas: 2,
            report_period: SimTime::from_millis(500),
            timeout_intervals: 3,
        },
        query_timeout: SimTime::from_millis(600),
        invoke: InvokePolicy::standard(),
        query_retries: 1,
        ..Default::default()
    }
}

/// Run the E2+E10-style workload on a fabric carrying `tracer`.
fn workload(seed: u64, tracer: Tracer) -> (World, Observed) {
    let mut w = World::on(
        Net::builder(Topology::campus(3, 8)).tracer(tracer).build(),
        seed,
        config(),
        demo::catalog(),
        |host| if host.0 % 8 == 7 { vec![demo::counter_package()] } else { Vec::new() },
    );
    w.sim.run_until(SimTime::from_secs(3));

    // Traced first-wins queries from rotating non-owner, non-MRM origins
    // across all three sites.
    let mut sinks: Vec<QuerySink> = Vec::new();
    let query = |w: &mut World, q: u32, sinks: &mut Vec<QuerySink>| {
        let origin = HostId((q % 3) * 8 + 2 + (q % 4));
        let counter = ComponentQuery::by_name("Counter", lc_pkg::Version::new(1, 0));
        sinks.push(w.query(origin, counter, true));
        w.run_for(SimTime::from_millis(250));
    };
    for q in 0..QUERIES {
        query(&mut w, q, &mut sinks);
    }

    // Traced cross-site invocations: Counter on the victim, client two
    // sites away.
    let target = w.spawn(VICTIM, "Counter", None, SimTime::from_millis(500));
    let client = HostId(18);
    for _ in 0..CALLS {
        w.invoke(client, &target, "inc", vec![Value::Long(1)]);
        w.run_for(SimTime::from_millis(100));
    }
    let vsink = w.invoke(client, &target, "value", vec![]);
    w.run_for(SimTime::from_millis(500));
    let counter_value = vsink
        .borrow()
        .iter()
        .find_map(|(_, r)| r.as_ref().ok().and_then(|o| o.ret.as_long()))
        .map_or(-1, i64::from);

    // Crash the owner. Queries keep resolving through the other sites'
    // owners; one invocation into the outage exhausts its retry budget,
    // leaving a chain of linked retry spans in the trace.
    w.crash(VICTIM);
    w.invoke(client, &target, "inc", vec![Value::Long(1)]);
    for q in 0..3 {
        query(&mut w, q, &mut sinks);
    }
    w.run_for(SimTime::from_secs(3));

    // Recover and confirm the registry serves the respawned node's site
    // again.
    w.recover(VICTIM);
    w.run_for(SimTime::from_secs(2));
    for q in 0..3 {
        query(&mut w, q, &mut sinks);
    }
    w.run_for(SimTime::from_secs(2));

    let query_hits = sinks.iter().filter(|s| !s.borrow().offers.is_empty()).count();
    let sim_counters =
        w.sim.metrics_ref().counters().map(|(k, v)| (k.to_owned(), v)).collect();
    (w, Observed { query_hits, counter_value, sim_counters })
}

/// Per-root-name aggregate over all recorded traces.
struct TraceAgg {
    traces: usize,
    spans: usize,
    max_nodes: usize,
    max_spans: usize,
    net_msgs: usize,
}

fn aggregate(spans: &[Span]) -> BTreeMap<String, TraceAgg> {
    let mut by_trace: BTreeMap<TraceId, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_trace.entry(s.trace).or_default().push(s);
    }
    let mut agg: BTreeMap<String, TraceAgg> = BTreeMap::new();
    for members in by_trace.values() {
        let Some(root) = members.iter().find(|s| s.parent.is_none()) else { continue };
        let nodes: std::collections::BTreeSet<u32> = members.iter().map(|s| s.node).collect();
        let net_msgs = members.iter().filter(|s| s.name == "net.msg").count();
        let e = agg.entry(root.name.clone()).or_insert(TraceAgg {
            traces: 0,
            spans: 0,
            max_nodes: 0,
            max_spans: 0,
            net_msgs: 0,
        });
        e.traces += 1;
        e.spans += members.len();
        e.max_nodes = e.max_nodes.max(nodes.len());
        e.max_spans = e.max_spans.max(members.len());
        e.net_msgs += net_msgs;
    }
    agg
}

/// The registry.query trace with the most spans (the representative
/// end-to-end resolution shown as a critical path).
fn representative_query(spans: &[Span]) -> Option<TraceId> {
    let mut counts: BTreeMap<TraceId, usize> = BTreeMap::new();
    for s in spans {
        *counts.entry(s.trace).or_default() += 1;
    }
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == "registry.query")
        .max_by_key(|s| (counts.get(&s.trace).copied().unwrap_or(0), std::cmp::Reverse(s.id)))
        .map(|s| s.trace)
}

fn ms(ns: u64) -> String {
    f2(ns as f64 / 1e6)
}

/// Run E11 and render the report plus both exports.
pub fn run() -> Output {
    let seed = SEED;
    let tracer = Tracer::new();
    let (w, traced) = workload(seed, tracer.clone());
    let spans = tracer.spans();

    let mut report = String::new();
    let _ = writeln!(
        report,
        "E11: observability — deterministic tracing, metrics registry, flight recorder"
    );
    let _ = writeln!(
        report,
        "24 nodes (3 sites x 8), seed {seed}: {} queries, {} calls, owner crash + recovery",
        QUERIES + 6,
        CALLS + 2
    );

    // -- trace summary ------------------------------------------------
    let agg = aggregate(&spans);
    let rows: Vec<Vec<String>> = agg
        .iter()
        .map(|(name, a)| {
            vec![
                name.clone(),
                a.traces.to_string(),
                a.spans.to_string(),
                f2(a.spans as f64 / a.traces as f64),
                a.max_spans.to_string(),
                a.max_nodes.to_string(),
                a.net_msgs.to_string(),
            ]
        })
        .collect();
    report.push_str(&format_table(
        "recorded traces by root span",
        &["root", "traces", "spans", "avg spans", "max spans", "max nodes", "net.msg spans"],
        &rows,
    ));

    // -- representative critical path --------------------------------
    if let Some(trace) = representative_query(&spans) {
        let path = critical_path(&spans, trace);
        let t0 = path.first().map_or(0, |s| s.start_ns);
        let rows: Vec<Vec<String>> = path
            .iter()
            .map(|seg| {
                vec![
                    format!("{}{}", "  ".repeat(seg.depth), seg.name),
                    seg.id.to_string(),
                    seg.node.to_string(),
                    ms(seg.start_ns - t0),
                    ms(seg.end_ns - seg.start_ns),
                ]
            })
            .collect();
        report.push_str(&format_table(
            &format!("critical path of the largest query trace ({trace})"),
            &["span", "id", "node", "t+ms", "dur ms"],
            &rows,
        ));
    }

    // -- retry links --------------------------------------------------
    let retries: Vec<&Span> = spans.iter().filter(|s| !s.links.is_empty()).collect();
    let _ = writeln!(report, "\n== retry spans (causally linked, not parented) ==");
    if retries.is_empty() {
        let _ = writeln!(report, "(none this run)");
    }
    for s in &retries {
        let links: Vec<String> = s.links.iter().map(|l| l.to_string()).collect();
        let _ = writeln!(
            report,
            "{} {} on node {} -> links [{}] attempt={} error={}",
            s.id,
            s.name,
            s.node,
            links.join(","),
            s.attr("attempt").unwrap_or("-"),
            s.attr("error").unwrap_or("-"),
        );
    }

    // -- flight recorder of the crashed node --------------------------
    let (events, dropped) = tracer.flight_record(VICTIM.0);
    let _ = writeln!(
        report,
        "\n== flight recorder of crashed node {} (post-mortem, {} dropped) ==",
        VICTIM.0, dropped
    );
    let tail = events.len().saturating_sub(8);
    for ev in &events[tail..] {
        let _ = writeln!(report, "{}", ev.render());
    }

    // -- metrics registry excerpt ------------------------------------
    let Some(observer) = w.node(HostId(18)) else {
        unreachable!("client node 18 is never crashed")
    };
    report.push_str(&format_table(
        "metrics registry of client node 18",
        &PER_SERVICE_HEADERS,
        &per_service_rows(&w, [HostId(18)]),
    ));
    let cmds: Vec<String> =
        observer.node_metrics().cmd_counts().map(|(n, c)| format!("{n}={c}")).collect();
    let _ = writeln!(report, "driver commands: {}", cmds.join(" "));

    // -- overhead: disabled tracer must not perturb the run -----------
    let (_, untraced) = workload(seed, Tracer::disabled());
    let same = traced.query_hits == untraced.query_hits
        && traced.counter_value == untraced.counter_value
        && traced.sim_counters == untraced.sim_counters;
    let _ = writeln!(
        report,
        "\n== overhead check ==\ntracing disabled -> same workload: query hits {}/{}, \
         counter {}/{}, {} sim counters identical: {}",
        untraced.query_hits,
        traced.query_hits,
        untraced.counter_value,
        traced.counter_value,
        traced.sim_counters.len(),
        if same { "yes" } else { "NO" },
    );
    let _ = writeln!(
        report,
        "traced run: {} spans across {} traces, {} query hits, counter value {}",
        spans.len(),
        agg.values().map(|a| a.traces).sum::<usize>(),
        traced.query_hits,
        traced.counter_value,
    );


    let jsonl = to_jsonl(&spans);
    let _ = writeln!(
        report,
        "\nexports: {} spans -> trace JSONL + chrome://tracing JSON",
        jsonl.lines().count()
    );
    let files = vec![(".trace.jsonl", jsonl), (".trace.json", to_chrome(&spans))];
    Output { report, files, failed: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_trace::validate;
    use std::collections::BTreeSet;

    #[test]
    fn e11_traces_are_valid_cross_node_and_deterministic() {
        let a = run();
        let b = run();
        // Two identical runs are byte-identical in every artefact.
        assert_eq!(a.files, b.files);
        assert_eq!(a.report, b.report);
        assert!(a.files.iter().all(|(_, body)| !body.is_empty()));

        // Rebuild enough structure from the export to check the
        // acceptance shape: the traced world records at least one query
        // trace spanning three or more nodes, and all trees validate.
        let tracer = Tracer::new();
        let (_, _) = workload(SEED, tracer.clone());
        let spans = tracer.spans();
        validate(&spans).expect("trace trees well-formed");
        assert!(lc_trace::open_spans(&spans).is_empty(), "E11 drains: no span stays open");
        let trace = representative_query(&spans).expect("a query trace exists");
        let nodes: BTreeSet<u32> =
            spans.iter().filter(|s| s.trace == trace).map(|s| s.node).collect();
        assert!(nodes.len() >= 3, "query trace touches {} nodes", nodes.len());
        // The dead-target invocation leaves linked retry spans.
        assert!(spans.iter().any(|s| s.name == "container.retry" && !s.links.is_empty()));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        let (_, obs) = workload(SEED, tracer.clone());
        assert_eq!(tracer.span_count(), 0);
        assert!(obs.query_hits > 0);
    }
}
