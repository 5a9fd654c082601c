//! E13 — the scale sweep: one campus model, 10³ → 10⁶ nodes.
//!
//! §2.3's case for hierarchical MRM federation is asymptotic: soft
//! state and summary push keep query cost at O(depth) while a central
//! registry degrades with campus size and strong consistency pays for
//! every membership change. E1–E12 demonstrate the mechanisms at 8–64
//! nodes; E13 runs the arithmetic campus model
//! ([`lc_core::scale`]) across four decades of scale and three
//! registry designs:
//!
//! * `hier`   — the paper's hierarchy (fanout 8, 2 MRM replicas);
//! * `flat`   — one central registry, query fan-out to every owner;
//! * `strong` — strongly-consistent coordinator (3-message queries,
//!   2·N view-change broadcast per membership change).
//!
//! Each point reports messages per query, messages per churn event,
//! nodes materialized (the lazy-SoA footprint), and bytes per node
//! (campus columns + event-calendar arena). Every column derives from
//! virtual time and counters, so two runs render byte-identical
//! reports; ci.sh diffs a double run and the committed
//! `BENCH_e13.json`. Host throughput of the same model is the
//! benchmark's `scale_hier` workload and `scale.event_ns` row (`.perf`).

use crate::{f2, format_table, human_bytes, Json, Output};
use lc_core::scale::{run_scale, ScaleConfig, ScaleReport, Variant};
use std::fmt::Write as _;

/// JSON schema version (bump when keys change; ci.sh pins the diff).
pub const SCHEMA_VERSION: u32 = 1;

/// The committed run's seed.
const SEED: u64 = 13;

/// The memory gate: bytes of state per node the largest `hier` point of
/// any sweep may reach (every point of the committed sweep is ≤ 111.2).
const GATE_BYTES_PER_NODE: f64 = 160.0;

/// Campus sizes swept (nodes).
pub const SIZES: [u32; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// Registry designs compared at every size.
pub const VARIANTS: [Variant; 3] = [Variant::Hier, Variant::Flat, Variant::Strong];

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
            ("nodes_materialized", r.nodes_materialized.into()),
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
                r.nodes_materialized.to_string(),
                human_bytes(r.campus_bytes as u64),
                human_bytes(r.queue_bytes as u64),
                f2(r.bytes_per_node),
            ]
        })
        .collect();
    let mut report = String::new();
    let _ = writeln!(report, "E13: scale sweep, hier vs flat vs strong (seed {seed})");
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
            "materialized",
            "campus mem",
            "queue mem",
            "B/node",
        ],
        &rows,
    ));

    // Headline: the asymptotic claim, stated from the largest size that
    // has all three variants.
    if let Some(n) = points.iter().map(|r| r.n).max() {
        let at = |v: &str| points.iter().find(|r| r.n == n && r.variant == v);
        if let (Some(h), Some(f), Some(s)) = (at("hier"), at("flat"), at("strong")) {
            let _ = writeln!(
                report,
                "\nat {n} nodes: hier {} msgs/query vs flat {} ({}x); \
                 strong churn {} msgs/event vs hier {} ({}x)",
                f2(h.msgs_per_query),
                f2(f.msgs_per_query),
                f2(f.msgs_per_query / h.msgs_per_query.max(f64::MIN_POSITIVE)),
                f2(s.churn_msgs_per_event),
                f2(h.churn_msgs_per_event),
                f2(s.churn_msgs_per_event / h.churn_msgs_per_event.max(f64::MIN_POSITIVE)),
            );
            let _ = writeln!(
                report,
                "hier state: {} materialized of {n} nodes, {} bytes/node",
                h.nodes_materialized,
                f2(h.bytes_per_node),
            );
        }
    }
    let _ = writeln!(report, "\nsummary: {} sweep points written to JSON", points.len());

    let worst = points
        .iter()
        .filter(|r| r.variant == "hier")
        .max_by_key(|r| r.n)
        .map_or(0.0, |r| r.bytes_per_node);
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

    #[test]
    fn e13_small_sweep_is_deterministic() {
        let a = run(10_000);
        let b = run(10_000);
        assert_eq!(a.report, b.report);
        assert_eq!(a.files, b.files);
        assert_eq!(a.failed, None);
        let json = &a.files[0].1;
        assert!(json.contains("\"schema_version\": 1"));
        // 2 sizes x 3 variants.
        assert_eq!(json.matches("\"variant\"").count(), 6);
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
        // The lazy SoA keeps footprint near-constant per node.
        assert!(h2.bytes_per_node < GATE_BYTES_PER_NODE, "bytes/node {}", h2.bytes_per_node);
    }
}
