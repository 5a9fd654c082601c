//! E13 — the scale sweep: one campus model, 10³ → 10⁶ nodes.
//!
//! §2.3's case for hierarchical MRM federation is asymptotic: soft
//! state and summary push keep query cost at O(depth) while a central
//! registry degrades with campus size. E1–E12 demonstrate the
//! mechanisms at 8–64 nodes (E3 is the soft-vs-strong consistency
//! comparison); E13 runs the arithmetic campus model
//! ([`lc_core::scale`]) across four decades of scale and two registry
//! designs:
//!
//! * `hier` — the paper's hierarchy (fanout 8, 2 MRM replicas);
//! * `flat` — one central registry, query fan-out to every owner.
//!
//! Each point reports messages per query, messages per churn event and
//! bytes per node (seat masks + event-calendar arena). Every column
//! derives from virtual time and counters, so two runs render
//! byte-identical reports; ci.sh diffs a double run and the committed
//! `BENCH_e13.json`. Host throughput of the same model is the
//! benchmark's `scale_hier` workload and `scale.event_ns` row (`.perf`).

use crate::{f2, format_table, human_bytes, Json, Output};
use lc_core::scale::{run_scale, ScaleConfig, ScaleReport, Variant};
use std::fmt::Write as _;

/// JSON schema version (bump when keys change; ci.sh pins the diff).
pub const SCHEMA_VERSION: u32 = 2;

/// The committed run's seed.
const SEED: u64 = 13;

/// The memory gate: bytes of state per node no `hier` point of any sweep
/// may exceed (the committed sweep's worst is 9.98, at 10³ nodes).
const GATE_BYTES_PER_NODE: f64 = 15.0;

/// Campus sizes swept (nodes).
pub const SIZES: [u32; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// Registry designs compared at every size.
pub const VARIANTS: [Variant; 2] = [Variant::Hier, Variant::Flat];

/// Run a single sweep point (pure simulation, deterministic).
pub fn run_point(n: u32, variant: Variant, seed: u64) -> ScaleReport {
    run_scale(ScaleConfig::new(n, variant), seed)
}

/// The sweep grid, capped at `max_nodes`.
pub fn grid(max_nodes: u32) -> Vec<(u32, Variant)> {
    let mut g = Vec::new();
    for &n in SIZES.iter().filter(|&&n| n <= max_nodes) {
        for &v in &VARIANTS {
            g.push((n, v));
        }
    }
    g
}

/// Render the machine-readable summary: one JSON object, keys sorted,
/// floats at fixed precision.
fn render_json(points: &[ScaleReport], seed: u64) -> String {
    let point = |r: &ScaleReport| {
        Json::obj([
            ("bytes_per_node", r.bytes_per_node.into()),
            ("campus_bytes", r.campus_bytes.into()),
            ("churn_msgs_per_event", r.churn_msgs_per_event.into()),
            ("depth", r.depth.into()),
            ("escalations", r.escalations.into()),
            ("events", r.events.into()),
            ("groups", r.groups.into()),
            ("latency_p50_ns", r.latency_p50_ns.into()),
            ("latency_p99_ns", r.latency_p99_ns.into()),
            ("msgs_per_query", r.msgs_per_query.into()),
            ("n", r.n.into()),
            ("queries_completed", r.queries_completed.into()),
            ("queue_bytes", r.queue_bytes.into()),
            ("variant", r.variant.into()),
        ])
    };
    Json::obj([
        ("experiment", "e13_scale_sweep".into()),
        ("max_nodes", points.iter().map(|r| r.n).max().unwrap_or(0).into()),
        ("points", Json::arr(points.iter().map(point))),
        ("schema_version", SCHEMA_VERSION.into()),
        ("seed", seed.into()),
    ])
    .render()
}

/// Render both artefacts from completed sweep points and apply the
/// memory gate.
fn render(points: &[ScaleReport], seed: u64) -> Output {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.variant.to_string(),
                r.depth.to_string(),
                f2(r.msgs_per_query),
                f2(r.churn_msgs_per_event),
                r.escalations.to_string(),
                human_bytes(r.campus_bytes as u64),
                human_bytes(r.queue_bytes as u64),
                f2(r.bytes_per_node),
            ]
        })
        .collect();
    let mut report = String::new();
    let _ = writeln!(report, "E13: scale sweep, hier vs flat (seed {seed})");
    let _ = writeln!(
        report,
        "fanout 8, 2 MRM replicas, 2 rounds, 32 queries + 2 membership changes per point"
    );
    report.push_str(&format_table(
        "campus scale sweep",
        &[
            "nodes",
            "variant",
            "depth",
            "msgs/query",
            "msgs/churn",
            "escalations",
            "campus mem",
            "queue mem",
            "B/node",
        ],
        &rows,
    ));

    // Headline: the asymptotic claim, stated from the largest size that
    // has both variants.
    if let Some(n) = points.iter().map(|r| r.n).max() {
        let at = |v: &str| points.iter().find(|r| r.n == n && r.variant == v);
        if let (Some(h), Some(f)) = (at("hier"), at("flat")) {
            let _ = writeln!(
                report,
                "\nat {n} nodes: hier {} msgs/query vs flat {} ({}x)",
                f2(h.msgs_per_query),
                f2(f.msgs_per_query),
                f2(f.msgs_per_query / h.msgs_per_query.max(f64::MIN_POSITIVE)),
            );
            let _ = writeln!(report, "hier state: {} bytes/node", f2(h.bytes_per_node));
        }
    }
    let _ = writeln!(report, "\nsummary: {} sweep points written to JSON", points.len());

    let worst =
        points.iter().filter(|r| r.variant == "hier").map(|r| r.bytes_per_node).fold(0.0, f64::max);
    let failed = (worst > GATE_BYTES_PER_NODE).then(|| {
        format!("e13: memory gate FAILED: {worst:.2} bytes/node > {GATE_BYTES_PER_NODE:.2}")
    });
    if failed.is_none() {
        let _ = writeln!(
            report,
            "memory gate ok: {worst:.2} bytes/node <= {GATE_BYTES_PER_NODE:.2}"
        );
    }
    Output { report, files: vec![(".json", render_json(points, seed))], failed }
}

/// Run the sweep up to `max_nodes` (the ci.sh smoke run caps at 10⁴;
/// the committed artefact is the full 10⁶ sweep).
pub fn run(max_nodes: u32) -> Output {
    let points: Vec<ScaleReport> =
        grid(max_nodes).into_iter().map(|(n, v)| run_point(n, v, SEED)).collect();
    render(&points, SEED)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The `points` of a rendered summary (one `"key": value` per line),
    /// each as key → rendered value.
    fn points(json: &str) -> Vec<BTreeMap<&str, &str>> {
        let mut out = Vec::new();
        let mut open = BTreeMap::new();
        for line in json.lines().map(str::trim) {
            if line == "{" {
                open = BTreeMap::new();
            } else if line.starts_with('}') {
                let done = std::mem::take(&mut open);
                if done.contains_key("variant") {
                    out.push(done);
                }
            } else if let Some((key, value)) = line.split_once(": ") {
                open.insert(key.trim_matches('"'), value.trim_end_matches(','));
            }
        }
        out
    }

    #[test]
    fn small_sweep_reproduces_the_committed_protocol_columns() {
        // What the protocol did, as opposed to what the model weighs:
        // these cells move only when routing or scheduling does.
        const PROTOCOL_KEYS: [&str; 8] = [
            "msgs_per_query",
            "churn_msgs_per_event",
            "escalations",
            "events",
            "groups",
            "latency_p50_ns",
            "latency_p99_ns",
            "queries_completed",
        ];
        let committed = points(include_str!("../../../BENCH_e13.json"));
        let out = run(10_000);
        let ran = points(&out.files[0].1);
        assert_eq!(ran.len(), 4);
        for point in &ran {
            let (n, variant) = (point["n"], point["variant"]);
            let Some(want) = committed.iter().find(|c| c["n"] == n && c["variant"] == variant)
            else {
                panic!("BENCH_e13.json has no {n} {variant} point");
            };
            for key in PROTOCOL_KEYS {
                assert_eq!(point[key], want[key], "{n} {variant} {key}");
            }
        }
    }

    #[test]
    fn e13_small_sweep_is_deterministic() {
        let a = run(10_000);
        let b = run(10_000);
        assert_eq!(a.report, b.report);
        assert_eq!(a.files, b.files);
        assert_eq!(a.failed, None);
        let json = &a.files[0].1;
        assert!(json.contains("\"schema_version\": 2"));
        // 2 sizes x 2 variants.
        assert_eq!(json.matches("\"variant\"").count(), 4);
    }

    #[test]
    fn hier_cost_stays_flat_while_flat_grows() {
        let h1 = run_point(1_000, Variant::Hier, 13);
        let h2 = run_point(10_000, Variant::Hier, 13);
        let f1 = run_point(1_000, Variant::Flat, 13);
        let f2_ = run_point(10_000, Variant::Flat, 13);
        // 10x the campus: hier msgs/query barely moves (one extra level
        // at most), flat grows with the owner population.
        assert!(h2.msgs_per_query < h1.msgs_per_query * 2.0);
        assert!(f2_.msgs_per_query > f1.msgs_per_query * 5.0);
        // Seat masks and a window of reports keep every point under the gate.
        for h in [&h1, &h2] {
            let (n, b) = (h.n, h.bytes_per_node);
            assert!(b < GATE_BYTES_PER_NODE, "{n} nodes: {b} bytes/node");
        }
    }
}
