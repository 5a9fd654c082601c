//! The traced run: one plain epoch, one epoch with spans and the kernel
//! profiler on, and the unit-cost ledger — every per-layer metric.
//!
//! End-to-end metrics are never taken here; the plain epoch exists only so
//! the tracing overhead is a like-for-like ratio within one process.

use crate::clock::REF_NOMINAL_US;
use crate::micro::{self, Background};
use crate::run::{run, RunOpts, RunResult};
use crate::spans::Spans;
use crate::stats::median;
use crate::workload::{self, Stack};

pub struct Traced {
    /// The traced epoch, as a one-epoch run.
    pub run: RunResult,
    pub per_layer: Vec<(&'static str, f64, &'static str)>,
    pub spans: Spans,
    pub profile: Vec<(String, u64)>,
}

/// Σ (count per op × unit cost) ÷ measured host cost per op: how much of
/// the end-to-end figure the layers' own unit costs account for.
///
/// Background soft state (reports, sweeps, gossip) is priced as a whole by
/// the idle rows; what remains of the events and messages is priced by the
/// kernel and fabric rows; invokes and queries by what the node stack
/// charges for one it can serve locally; cache probes and shard hops by
/// theirs.
fn explained_share(run: &RunResult, unit: &dyn Fn(&str) -> f64, bg: &Background) -> f64 {
    let host_ns = run.host_us_per_op() * 1e3;
    if host_ns <= 0.0 {
        return 0.0;
    }
    let profile = workload::profile_of(&run.workload);
    if profile.stack == Stack::ScaleModel {
        return unit("scale.event_ns") / host_ns;
    }
    let sharded = profile.stack == Stack::ShardedNodes;
    let idle = if sharded {
        bg.sharded
    } else {
        bg.single_leader
    };
    let periods = profile.background_node_periods_per_op;
    let fg_events = (run.per_op("des.events") - periods * idle.events).max(0.0);
    let fg_msgs = (run.per_op("net.msgs") - periods * idle.msgs).max(0.0);
    // The send rows include the delivery and the sender's timer event.
    let send = if sharded {
        unit("net.send_faulted_ns")
    } else {
        unit("net.send_ns")
    };
    let send_only = (send - 2.0 * unit("des.event_ns")).max(0.0);
    let explained = periods * idle.us * 1e3
        + fg_events * unit("des.event_ns")
        + fg_msgs * send_only
        + run.per_op("orb.requests") * unit("node.local_invoke_ns")
        + run.per_op("query.started") * unit("node.local_query_ns")
        + run.per_op("cache.hits") * unit("cache.hit_ns")
        + run.per_op("cache.misses") * unit("cache.miss_insert_ns")
        + run.per_op("cache.invalidations") * unit("cache.invalidate_ns")
        + run.per_op("registry.shard_hops") * unit("registry.ring_next_hop_ns");
    explained / host_ns
}

pub fn run_traced(opts: &RunOpts) -> Traced {
    let mut spans = Spans::new(true);
    let (rows, background) = micro::run_all(&mut spans);
    let plain = run(opts, 1, &mut Spans::new(false));
    let mut run = run(opts, 1, &mut spans);
    // Spans and the profiler only observe: same seed, same history
    // (unless the slow-host guard cut one of the two epochs short).
    let truncated = plain.epochs[0].truncated || run.epochs[0].truncated;
    if !truncated && plain.fingerprint() != run.fingerprint() {
        run.outcomes.violation(format!(
            "tracing changed the simulation: fingerprint {:016x} untraced, {:016x} traced",
            plain.fingerprint(),
            run.fingerprint()
        ));
    }
    run.outcomes
        .violations
        .extend(plain.outcomes.violations.iter().cloned());

    let unit = |name: &str| rows.iter().find(|r| r.0 == name).map_or(0.0, |r| r.1);
    let mut per_layer = rows.clone();

    // Work counts per op, from the program's own counters (exact).
    let per_op = |key: &str| run.per_op(key);
    let hits = run.counter("cache.hits") as f64;
    let probes = hits + run.counter("cache.misses") as f64;
    per_layer.extend([
        ("des.events_per_op", per_op("des.events"), "count"),
        ("net.msgs_per_op", per_op("net.msgs"), "count"),
        ("net.bytes_per_op", per_op("net.bytes"), "B"),
        (
            "net.dropped_per_op",
            per_op("net.fault.dropped")
                + per_op("net.drop.sender_down")
                + per_op("net.drop.receiver_down")
                + per_op("net.drop.partitioned")
                + per_op("net.drop.unbound"),
            "count",
        ),
        ("orb.dispatches_per_op", per_op("orb.requests"), "count"),
        ("node.dispatches_per_op", per_op("node.dispatches"), "count"),
        (
            "node.retries_per_op",
            per_op("query.retries") + per_op("orb.retries"),
            "count",
        ),
        (
            "node.shed_per_op",
            per_op("admission.shed") + per_op("admission.query_shed"),
            "count",
        ),
        ("registry.query_msgs_per_op", per_op("query.msgs"), "count"),
        (
            "registry.shard_hops_per_op",
            per_op("registry.shard_hops"),
            "count",
        ),
        (
            "registry.gossip_msgs_per_op",
            per_op("registry.gossip_msgs"),
            "count",
        ),
        (
            "cache.hit_ratio",
            if probes > 0.0 { hits / probes } else { 0.0 },
            "ratio",
        ),
        ("cache.coalesced_per_op", per_op("cache.coalesced"), "count"),
        (
            "cache.invalidated_per_op",
            per_op("cache.invalidated_entries"),
            "count",
        ),
        (
            "pkg.verifies_per_op",
            per_op("acceptor.installed") + per_op("acceptor.rejected"),
            "count",
        ),
        ("sim.p50_ms", run.sim_quantile_ms(0.50), "ms"),
        ("sim.p99_ms", run.sim_quantile_ms(0.99), "ms"),
        ("sim.p999_ms", run.sim_quantile_ms(0.999), "ms"),
    ]);

    // Harness spans, normalised like everything else on the host clock.
    let scale = REF_NOMINAL_US * 1e3 / median(&run.epochs[0].reference_ns);
    let ops = run.ops().max(1) as f64;
    let span_s = |prefix: &str| spans.self_ns_of(prefix) as f64 * scale / 1e9;
    let span_us_per_op = |prefix: &str| spans.self_ns_of(prefix) as f64 * scale / 1e3 / ops;
    per_layer.extend([
        ("harness.build_world_s", span_s("setup.build_world"), "s"),
        ("harness.converge_s", span_s("setup.converge"), "s"),
        ("harness.warmup_s", span_s("warmup"), "s"),
        ("harness.submit_us_per_op", span_us_per_op("submit"), "us"),
        (
            "harness.run_until_us_per_op",
            span_us_per_op("run_until"),
            "us",
        ),
        (
            "model.explained_share",
            explained_share(&plain, &unit, &background),
            "ratio",
        ),
        (
            "trace.overhead_pct",
            (run.host_us_per_op() / plain.host_us_per_op() - 1.0) * 100.0,
            "%",
        ),
        ("load.late_share", per_op("load.late"), "ratio"),
    ]);

    let profile = run.epochs[0].profile.clone();
    Traced {
        run,
        per_layer,
        spans,
        profile,
    }
}
