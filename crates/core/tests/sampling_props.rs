//! Property tests for deterministic head-based trace sampling: for
//! *any* seed, fault mix and sampling rate, the sampled run's
//! simulation — event count, virtual clock, every DES counter — is
//! byte-identical to the unsampled run's, and the retained span set is
//! a prefix-closed subset of the full span forest in which every kept
//! span is the exact twin (ids, times, attributes, links) of its
//! full-run counterpart. Sampling decides *retention*, never
//! behaviour.

use lc_core::node::NodeConfig;
use lc_core::testkit::{fast_cohesion, World};
use lc_core::ComponentQuery;
use lc_des::SimTime;
use lc_net::{FaultPlan, HostId, LinkFaults, Net, Topology};
use lc_prop::check;
use lc_trace::{SampleConfig, Span, SpanId, Tracer};
use std::collections::{BTreeMap, BTreeSet};

/// Drive queries over a lossy fabric with the given sampling config and
/// return the retained spans plus a byte-exact simulation fingerprint.
fn traced_run(
    seed: u64,
    drop_p: f64,
    jitter_ms: u64,
    q: u32,
    sample: Option<SampleConfig>,
) -> (Vec<Span>, String) {
    let plan = FaultPlan::seeded(seed).default_link(
        LinkFaults::none().drop_p(drop_p).dup_p(0.1).jitter(SimTime::from_millis(jitter_ms)),
    );
    let tracer = Tracer::new();
    tracer.set_sampling(sample);
    let mut w = World::on(
        Net::builder(Topology::campus(2, 4)).fault_plan(plan).tracer(tracer.clone()).build(),
        seed ^ 0x5a9,
        NodeConfig {
            cohesion: fast_cohesion(),
            query_timeout: SimTime::from_millis(300),
            query_retries: 1,
            ..Default::default()
        },
        lc_core::demo::catalog(),
        |h| if h.0 % 4 == 3 { vec![lc_core::demo::counter_package()] } else { Vec::new() },
    );
    w.sim.run_until(SimTime::from_secs(1));
    for i in 0..q {
        let origin = HostId((i % 2) * 4 + 1 + (i % 2));
        let query = ComponentQuery::by_name("Counter", lc_pkg::Version::new(1, 0));
        w.query(origin, query, i % 2 == 0);
        w.run_for(SimTime::from_millis(120));
    }
    // Drain retries, re-issues and late duplicates.
    w.run_for(SimTime::from_secs(3));

    let counters: Vec<String> =
        w.sim.metrics_ref().counters().map(|(k, v)| format!("{k}={v}")).collect();
    let fp = format!(
        "events={} now={} {}",
        w.sim.events_fired(),
        w.sim.now().as_nanos(),
        counters.join(",")
    );
    (tracer.spans(), fp)
}

/// The twin identity fields of a span (everything the tracer records).
type TwinKey<'a> =
    (u64, u64, Option<SpanId>, &'a str, u32, u64, u64, &'a [(String, String)], &'a [SpanId]);

fn twin_key(s: &Span) -> TwinKey<'_> {
    (
        s.trace.0,
        s.id.0,
        s.parent,
        s.name.as_str(),
        s.node,
        s.start.as_nanos(),
        s.end.as_nanos(),
        &s.attrs,
        &s.links,
    )
}

#[test]
fn sampling_never_perturbs_the_simulation() {
    check("sampling_determinism", |g| {
        let seed = g.next_u64();
        let sample_seed = g.next_u64();
        let drop_p = g.gen_f64() * 0.2;
        let jitter_ms = g.gen_range(0..20u64);
        let q = g.gen_range(3..8u32);
        let rate = *g.pick(&[1u32, 2, 4, 8, 32, 128]);

        let (full, full_fp) = traced_run(seed, drop_p, jitter_ms, q, None);
        let cfg = SampleConfig::one_in(rate, sample_seed);
        let (sampled, sampled_fp) = traced_run(seed, drop_p, jitter_ms, q, Some(cfg));

        // 1. The simulation itself is byte-identical: same events, same
        //    virtual clock, same value of every counter.
        assert_eq!(
            full_fp, sampled_fp,
            "sampling perturbed the run (seed {seed} rate 1/{rate} drop {drop_p:.3})"
        );

        // 2. Every retained span is the exact twin of its full-run
        //    counterpart — ids, parentage, times, attributes, links.
        let by_id: BTreeMap<SpanId, &Span> = full.iter().map(|s| (s.id, s)).collect();
        let kept: BTreeSet<SpanId> = sampled.iter().map(|s| s.id).collect();
        for s in &sampled {
            let twin = by_id
                .get(&s.id)
                .unwrap_or_else(|| panic!("sampled span {:?} missing from full run", s.id));
            assert_eq!(twin_key(s), twin_key(twin), "span {:?} diverged", s.id);
            // 3. Prefix-closed: a kept span's parent is always kept.
            if let Some(p) = s.parent {
                assert!(kept.contains(&p), "span {:?} kept without its parent {p:?}", s.id);
            }
        }

        // 4. The decision is per *trace*: a kept trace is kept whole.
        let kept_traces: BTreeSet<u64> = sampled.iter().map(|s| s.trace.0).collect();
        let full_of_kept = full.iter().filter(|s| kept_traces.contains(&s.trace.0)).count();
        assert_eq!(
            full_of_kept,
            sampled.len(),
            "a sampled trace lost spans (seed {seed} rate 1/{rate})"
        );

        // 5. Rate 1/1 keeps everything; re-running the same config
        //    reproduces the same retained set.
        if rate == 1 {
            assert_eq!(sampled.len(), full.len());
        }
        let (again, again_fp) = traced_run(seed, drop_p, jitter_ms, q, Some(cfg));
        assert_eq!(sampled_fp, again_fp);
        assert_eq!(sampled.len(), again.len());
        for (a, b) in sampled.iter().zip(again.iter()) {
            assert_eq!(twin_key(a), twin_key(b));
        }
    });
}
