//! Property tests for lc-trace integration: whatever the fault fabric
//! does to the traffic (drop, duplicate, reorder, jitter), the recorded
//! spans must always form well-formed trace trees — every span
//! reachable from its root, children nested inside parents, link
//! targets recorded, none left open once the world has drained — and
//! the id allocator must stay deterministic.

use lc_core::node::{InvokePolicy, NodeConfig};
use lc_core::testkit::{fast_cohesion, World};
use lc_core::ComponentQuery;
use lc_des::SimTime;
use lc_net::{FaultPlan, HostId, LinkFaults, Net, Topology};
use lc_orb::Value;
use lc_prop::check;
use lc_trace::{open_spans, validate, Tracer};

/// Drive queries and retried invocations over a lossy fabric and return
/// the tracer that watched it all.
fn lossy_traced_run(seed: u64, drop_p: f64, dup_p: f64, jitter_ms: u64, q: u32) -> Tracer {
    let plan = FaultPlan::seeded(seed).default_link(
        LinkFaults::none()
            .drop_p(drop_p)
            .dup_p(dup_p)
            .jitter(SimTime::from_millis(jitter_ms)),
    );
    let tracer = Tracer::new();
    let mut w = World::on(
        Net::builder(Topology::campus(2, 4)).fault_plan(plan).tracer(tracer.clone()).build(),
        seed ^ 0x7ace,
        NodeConfig {
            cohesion: fast_cohesion(),
            query_timeout: SimTime::from_millis(300),
            invoke: InvokePolicy::standard(),
            query_retries: 2,
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
        w.run_for(SimTime::from_millis(150));
    }

    let target = w.spawn(HostId(3), "Counter", None, SimTime::from_millis(400));
    for _ in 0..q.min(6) {
        w.invoke(HostId(5), &target, "inc", vec![Value::Long(1)]);
        w.run_for(SimTime::from_millis(80));
    }
    // Drain retries, re-issues and late duplicates.
    w.run_for(SimTime::from_secs(8));
    tracer
}

/// Dropped requests force container retries and registry re-issues;
/// duplicated and jittered messages deliver out of order. None of that
/// may ever produce an orphan span, a child escaping its parent's
/// interval, or a link to an unrecorded span.
#[test]
fn trace_trees_stay_well_formed_under_faults() {
    check("trace_trees_under_faults", |g| {
        let seed = g.next_u64();
        let drop_p = g.gen_f64() * 0.25;
        let dup_p = g.gen_f64() * 0.4;
        let jitter_ms = g.gen_range(0..40u64);
        let q = g.gen_range(3..10u32);

        let tracer = lossy_traced_run(seed, drop_p, dup_p, jitter_ms, q);
        let spans = tracer.spans();
        assert!(!spans.is_empty(), "traced run recorded nothing");
        if let Err(e) = validate(&spans) {
            panic!(
                "malformed trace (seed {seed} drop {drop_p:.3} dup {dup_p:.3} \
                 jitter {jitter_ms}ms q {q}): {e}"
            );
        }
        // The run drained: every call, retry, query and handler span
        // was ended, on the loss and deadline paths too.
        let open = open_spans(&spans);
        assert!(open.is_empty(), "spans never ended (seed {seed}): {open:?}");
        // Same seed, same faults -> byte-identical span ids and times.
        let again = lossy_traced_run(seed, drop_p, dup_p, jitter_ms, q);
        assert_eq!(tracer.span_count(), again.span_count());
        let b = again.spans();
        for (x, y) in spans.iter().zip(b.iter()) {
            assert_eq!((x.trace, x.id, x.parent, x.start, x.end), (y.trace, y.id, y.parent, y.start, y.end));
        }
    });
}
