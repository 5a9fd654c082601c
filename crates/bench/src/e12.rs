//! E12 — registry query cache and request coalescing (§2.4.2:
//! component metadata is mostly immutable, so "caching can be performed
//! safely").
//!
//! The workload stresses exactly the traffic the cache is built for:
//! a 64-node campus where a handful of front-end hosts re-issue the
//! same component lookup in rounds, with same-tick bursts (think a
//! fan-in of clients hitting one facade). Three variants run the same
//! workload and seed:
//!
//! * `baseline`   — no cache (`NodeConfig.cache = None`), the pre-cache
//!   runtime byte-for-byte;
//! * `cache`      — per-node result cache only;
//! * `cache+coal` — cache plus singleflight coalescing of identical
//!   in-flight queries.
//!
//! Mid-run, a component owner spawns a new Counter instance: the
//! coherence broadcast invalidates every peer's cached entries, so the
//! next round misses and re-queries (the `invalidated` column).
//!
//! Everything reported derives from virtual time and counters, so the
//! report and the JSON summary are byte-identical across runs (ci.sh
//! runs the binary twice and diffs both). The cached variants must also
//! return the *same normalized offer sets* as the baseline — the report
//! asserts it; `cache_equiv.rs` pins it as a test.

use crate::{f2, format_table, human_bytes, Json, Output};
use lc_core::cohesion::CohesionConfig;
use lc_core::demo;
use lc_core::testkit::World;
use lc_core::{CacheConfig, ComponentQuery, NodeConfig, QuerySink};
use lc_des::SimTime;
use lc_net::{HostId, Topology};
use lc_pkg::Version;
use std::fmt::Write as _;

/// The committed run's seed.
const SEED: u64 = 12;
/// Network size: 8 sites x 8 hosts.
const N: usize = 64;
/// Query rounds before the invalidation event.
const ROUNDS: u32 = 5;
/// Identical queries issued in the *same tick* per origin per round.
const BURST: u32 = 3;
/// Front-end hosts that re-issue the lookup (never owners, never MRMs).
const ORIGINS: [HostId; 4] = [HostId(2), HostId(12), HostId(28), HostId(44)];
/// The owner that spawns mid-run, triggering the coherence broadcast.
const SPAWN_OWNER: HostId = HostId(23);

/// One variant's aggregate outcome.
pub struct VariantResult {
    /// Variant label.
    pub name: &'static str,
    /// Queries issued (same for every variant).
    pub queries: usize,
    /// `query.msgs` delta over the query phase / queries issued.
    pub msgs_per_query: f64,
    /// Mean first-offer latency over answered queries, ms.
    pub first_offer_ms: f64,
    /// Fraction of queries answered with at least one offer.
    pub hit_rate: f64,
    /// Cache hits / misses / coalesced joins (sim counters).
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub coalesced: u64,
    /// Entries dropped by coherence broadcasts (sim counter).
    pub invalidated: u64,
    /// Bytes received by the busiest host.
    pub hotspot_recv: u64,
    /// Normalized result sets, one per query, for equivalence checks:
    /// sorted [`Offer::key`](lc_core::Offer::key)s.
    pub result_sets: Vec<Vec<(HostId, String, Version)>>,
}

fn config(cache: Option<CacheConfig>) -> NodeConfig {
    NodeConfig {
        cohesion: CohesionConfig {
            fanout: 8,
            replicas: 2,
            report_period: SimTime::from_millis(500),
            timeout_intervals: 3,
        },
        query_timeout: SimTime::from_millis(800),
        require_signature: false,
        cache,
        ..Default::default()
    }
}

/// Run the workload under one cache configuration.
pub fn run_variant(name: &'static str, cache: Option<CacheConfig>, seed: u64) -> VariantResult {
    let mut w = World::on(
        Topology::campus(N / 8, 8),
        seed,
        config(cache),
        demo::catalog(),
        |host| if host.0 % 16 == 7 { vec![demo::counter_package()] } else { Vec::new() },
    );
    // Soft-state convergence (reports + summaries), then baseline the
    // query-message counter so setup traffic is excluded.
    w.sim.run_until(SimTime::from_secs(2));
    let msgs_before = w.sim.metrics_ref().counter("query.msgs");

    let mut sinks: Vec<QuerySink> = Vec::new();
    let round = |w: &mut World, sinks: &mut Vec<QuerySink>| {
        for origin in ORIGINS {
            // Same-tick burst of identical queries: the shape the
            // singleflight window exists for.
            for _ in 0..BURST {
                let counter = ComponentQuery::by_name("Counter", lc_pkg::Version::new(1, 0));
                sinks.push(w.query(origin, counter, true));
            }
            w.run_for(SimTime::from_millis(150));
        }
    };
    for _ in 0..ROUNDS {
        round(&mut w, &mut sinks);
    }

    // Coherence event: an owner spawns a new instance; with caching on,
    // the broadcast empties every peer's matching entries.
    w.spawn(SPAWN_OWNER, "Counter", None, SimTime::from_millis(300));
    // The post-invalidation round must re-query the network.
    round(&mut w, &mut sinks);
    w.run_for(SimTime::from_secs(2));

    let msgs = w.sim.metrics_ref().counter("query.msgs") - msgs_before;
    let mut first_ms = Vec::new();
    let mut hits = 0usize;
    let mut result_sets = Vec::new();
    for s in &sinks {
        let r = s.borrow();
        if let Some(at) = r.first_offer_at {
            first_ms.push((at - r.started).as_secs_f64() * 1e3);
            hits += 1;
        }
        let keys = r.offers.iter().map(|o| o.key());
        let mut set: Vec<_> = keys.map(|(node, c, v)| (node, c.to_owned(), v)).collect();
        set.sort();
        set.dedup();
        result_sets.push(set);
    }
    let hotspot = w.net.max_recv().1;
    let m = w.sim.metrics_ref();
    VariantResult {
        name,
        queries: sinks.len(),
        msgs_per_query: msgs as f64 / sinks.len() as f64,
        first_offer_ms: first_ms.iter().sum::<f64>() / first_ms.len().max(1) as f64,
        hit_rate: hits as f64 / sinks.len() as f64,
        cache_hits: m.counter("cache.hits"),
        cache_misses: m.counter("cache.misses"),
        coalesced: m.counter("cache.coalesced"),
        invalidated: m.counter("cache.invalidated_entries"),
        hotspot_recv: hotspot,
        result_sets,
    }
}

/// Render the machine-readable summary: one JSON object, keys sorted,
/// floats at fixed precision — byte-stable across runs.
fn render_json(variants: &[VariantResult], reduction: f64, equivalent: bool) -> String {
    let variant = |v: &VariantResult| {
        Json::obj([
            ("cache_hits", v.cache_hits.into()),
            ("cache_misses", v.cache_misses.into()),
            ("coalesced", v.coalesced.into()),
            ("first_offer_ms", v.first_offer_ms.into()),
            ("hit_rate", v.hit_rate.into()),
            ("hotspot_recv_bytes", v.hotspot_recv.into()),
            ("invalidated_entries", v.invalidated.into()),
            ("msgs_per_query", v.msgs_per_query.into()),
            ("name", v.name.into()),
        ])
    };
    Json::obj([
        ("equivalent_result_sets", equivalent.into()),
        ("experiment", "e12_cache_perf".into()),
        ("msgs_per_query_reduction", reduction.into()),
        ("nodes", N.into()),
        ("queries", variants[0].queries.into()),
        ("schema_version", 1u64.into()),
        ("variants", Json::arr(variants.iter().map(variant))),
    ])
    .render()
}

/// Run all three variants and render both artefacts.
pub fn run() -> Output {
    let seed = SEED;
    let variants = [
        run_variant("baseline", None, seed),
        run_variant(
            "cache",
            Some(CacheConfig { coalesce: false, ..CacheConfig::default() }),
            seed,
        ),
        run_variant("cache+coal", Some(CacheConfig::default()), seed),
    ];

    // Equivalence: caching and coalescing change *cost*, not *answers*.
    let equivalent = variants[1..]
        .iter()
        .all(|v| v.result_sets == variants[0].result_sets);
    let reduction = variants[0].msgs_per_query
        / variants[2].msgs_per_query.max(f64::MIN_POSITIVE);

    let mut report = String::new();
    let _ = writeln!(
        report,
        "E12: registry query cache + coalescing (seed {seed})"
    );
    let _ = writeln!(
        report,
        "{N} nodes (8 sites x 8), {} queries: {ROUNDS}+1 rounds x {} origins x burst {BURST}, \
         owner spawn between rounds {ROUNDS} and {}",
        variants[0].queries,
        ORIGINS.len(),
        ROUNDS + 1,
    );
    let rows: Vec<Vec<String>> = variants
        .iter()
        .map(|v| {
            vec![
                v.name.to_string(),
                f2(v.msgs_per_query),
                f2(v.first_offer_ms),
                f2(v.hit_rate * 100.0),
                v.cache_hits.to_string(),
                v.cache_misses.to_string(),
                v.coalesced.to_string(),
                v.invalidated.to_string(),
                human_bytes(v.hotspot_recv),
            ]
        })
        .collect();
    report.push_str(&format_table(
        "cache / coalescing sweep",
        &[
            "variant",
            "msgs/query",
            "first-offer ms",
            "answered %",
            "hits",
            "misses",
            "coalesced",
            "invalidated",
            "hotspot recv",
        ],
        &rows,
    ));
    let _ = writeln!(
        report,
        "\nmsgs/query reduction (baseline vs cache+coal): {}x",
        f2(reduction)
    );
    let _ = writeln!(
        report,
        "normalized result sets identical to baseline (cache, cache+coal): {}",
        if equivalent { "yes" } else { "NO" },
    );

    let json = render_json(&variants, reduction, equivalent);
    let _ = writeln!(report, "\nsummary: {} bytes of JSON written", json.len());
    Output { report, files: vec![(".json", json)], failed: None }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e12_is_deterministic_and_meets_reduction_floor() {
        let a = run();
        let b = run();
        assert_eq!(a.report, b.report);
        assert_eq!(a.files, b.files);
        // The committed BENCH_e12.json claims >= 2x; pin it here too.
        let json = &a.files[0].1;
        let line = json
            .lines()
            .find(|l| l.contains("msgs_per_query_reduction"))
            .expect("reduction line present");
        let v: f64 = line
            .trim()
            .trim_start_matches("\"msgs_per_query_reduction\": ")
            .trim_end_matches(',')
            .parse()
            .expect("reduction parses");
        assert!(v >= 2.0, "msgs/query reduction {v} < 2.0");
        assert!(json.contains("\"equivalent_result_sets\": true"));
    }
}
