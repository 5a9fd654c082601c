//! Property tests for the invocation-recovery layer: exactly-once
//! servant effects under a duplicating/reordering fabric, and the
//! deadline-sweep contract of [`Continuations`] that the retry and
//! dedup machinery is built on — plus the message-accounting invariant
//! of the control plane under crashes and partitions.

use lc_core::node::{InvokePolicy, NodeConfig};
use lc_core::testkit::{fast_cohesion, World};
use lc_core::{CohesionConfig, ComponentQuery, Continuations, InvokeSink};
use lc_des::SimTime;
use lc_net::{FaultPlan, HostId, LinkFaults, Net, Topology};
use lc_orb::Value;
use lc_prop::check;

/// Retried + duplicated + reordered requests still execute the servant
/// exactly once per logical call: the request-id reply cache answers
/// duplicates from cache, and late duplicate replies find no pending
/// call to resume. No messages are *lost* here (`drop_p = 0`), so every
/// call must also complete successfully — the final counter value equals
/// the number of calls issued, never more.
#[test]
fn dup_reorder_fabric_keeps_servant_effects_exactly_once() {
    check("dup_reorder_exactly_once", |g| {
        let seed = g.next_u64();
        let dup_p = g.gen_f64() * 0.5;
        let reorder_p = g.gen_f64() * 0.5;
        let jitter_ms = g.gen_range(0..60u64);
        let k = g.gen_range(5..20u32);

        let plan = FaultPlan::seeded(seed).default_link(
            LinkFaults::none()
                .dup_p(dup_p)
                .reorder(reorder_p, SimTime::from_millis(5))
                .jitter(SimTime::from_millis(jitter_ms)),
        );
        let mut w = World::on(
            Net::builder(Topology::lan(4)).fault_plan(plan).build(),
            seed ^ 0x5eed,
            NodeConfig {
                cohesion: fast_cohesion(),
                invoke: InvokePolicy::standard(),
                ..Default::default()
            },
            lc_core::demo::catalog(),
            |h| if h == HostId(3) { vec![lc_core::demo::counter_package()] } else { Vec::new() },
        );
        w.sim.run_until(SimTime::from_millis(800));

        let target = w.spawn(HostId(3), "Counter", None, SimTime::from_millis(200));

        let mut sinks: Vec<InvokeSink> = Vec::new();
        for _ in 0..k {
            sinks.push(w.invoke(HostId(1), &target, "inc", vec![Value::Long(1)]));
            w.run_for(SimTime::from_millis(80));
        }
        w.run_for(SimTime::from_secs(5));

        // Every call resolved, exactly once, successfully.
        for (i, sink) in sinks.iter().enumerate() {
            let s = sink.borrow();
            assert_eq!(s.len(), 1, "call {i}: one resolution, got {}", s.len());
            assert!(s[0].1.is_ok(), "call {i} failed: {:?}", s[0].1);
        }

        // Exactly-once effects: read the counter over the loopback path
        // (same-host traffic bypasses fault injection).
        let vsink = w.invoke(HostId(3), &target, "value", vec![]);
        w.run_for(SimTime::from_secs(1));
        let value = vsink.borrow()[0]
            .1
            .as_ref()
            .expect("loopback read succeeds")
            .ret
            .as_long()
            .expect("long");
        assert_eq!(
            value as u32, k,
            "servant executed {value} increments for {k} calls (dup_p={dup_p:.2})"
        );
    });
}

/// The first clause of ROADMAP's one monitor: a message is counted under
/// its kind exactly when the fabric accepts it. A query-only single-leader
/// campus (no cache, no spawn, fetch or ORB traffic) sends nothing but queries,
/// reports and summaries, so under any crash-plus-partition plan
/// `net.msgs` is their sum — a send the fabric refused (here: to the
/// crashed MRM replica) is counted nowhere but `net.drop.*`.
#[test]
fn accepted_control_messages_are_counted_once_under_their_kind() {
    check("net_msgs_is_the_sum_of_its_kinds", |g| {
        let seed = g.next_u64();
        let ms = SimTime::from_millis;
        // 16 hosts, fanout 4: four leaf groups (replicas 4k, 4k + 1)
        // under one root, so reports *and* summaries flow.
        let victim = HostId(4 * g.gen_range(0..4u32) + g.gen_range(0..2u32));
        let down_at = ms(g.gen_range(500..1500u64));
        let cut_at = ms(g.gen_range(500..1500u64));
        let isolated: Vec<HostId> =
            (0..g.gen_range(1..6u32)).map(|_| HostId(g.gen_range(0..16u32))).collect();
        let plan = FaultPlan::seeded(seed)
            .crash(victim, down_at, Some(down_at + ms(700)))
            .partition(cut_at, cut_at + ms(700), &isolated);
        let mut w = World::on(
            Net::builder(Topology::lan(16)).fault_plan(plan).build(),
            seed,
            NodeConfig {
                cohesion: CohesionConfig { fanout: 4, ..fast_cohesion() },
                ..Default::default()
            },
            lc_core::demo::catalog(),
            |h| if h.0 % 5 == 3 { vec![lc_core::demo::counter_package()] } else { Vec::new() },
        );
        for _ in 0..12 {
            w.run_for(ms(250));
            let origin = HostId((victim.0 + g.gen_range(1..16u32)) % 16);
            let counter = ComponentQuery::by_name("Counter", lc_pkg::Version::new(1, 0));
            w.query(origin, counter, g.gen_bool());
        }
        w.run_for(SimTime::from_secs(2));

        let m = w.sim.metrics_ref();
        let kinds = ["query.msgs", "cohesion.reports", "cohesion.summaries"];
        assert!(kinds.iter().all(|k| m.counter(k) > 0));
        assert!(m.counter("net.drop.receiver_down") > 0, "nothing was ever refused");
        assert_eq!(m.counter("net.msgs"), kinds.iter().map(|k| m.counter(k)).sum::<u64>());
    });
}

/// The sweep contract [`Continuations::take_expired`] gives the retry
/// and dedup layers: only due entries come out, in key order, each at
/// most once, and undated entries never expire — for any interleaving
/// of inserts and sweeps at random times.
#[test]
fn continuations_deadline_sweep_contract() {
    check("continuations_sweep", |g| {
        let mut table: Continuations<u64, u64> = Continuations::default();
        // pending[key] = deadline (u64::MAX encodes "no deadline").
        let mut pending: std::collections::BTreeMap<u64, u64> = Default::default();
        let mut clock = 0u64;

        for _ in 0..g.gen_range(1..40usize) {
            // Time only moves forward, by a random (possibly zero) step.
            clock += g.gen_range(0..50u64);
            let now = SimTime::from_millis(clock);
            if g.gen_bool() {
                let key = g.gen_range(0..30u64);
                if g.gen_bool() {
                    // Deadlines may land in the past; such entries are
                    // due on the very next sweep.
                    let dl = clock.saturating_sub(20) + g.gen_range(0..60u64);
                    table.insert(key, key, SimTime::from_millis(dl));
                    pending.insert(key, dl);
                } else {
                    table.insert(key, key, SimTime::MAX);
                    pending.insert(key, u64::MAX);
                }
            } else {
                let swept = table.take_expired(now);
                // Key order, each at most once.
                let keys: Vec<u64> = swept.iter().map(|(k, _)| *k).collect();
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(keys, sorted, "sweep not in key order or has dups");
                // Exactly the due set of the model.
                let due: Vec<u64> = pending
                    .iter()
                    .filter(|(_, &dl)| dl != u64::MAX && dl <= clock)
                    .map(|(&k, _)| k)
                    .collect();
                assert_eq!(keys, due, "sweep at t={clock} returned the wrong set");
                for k in keys {
                    pending.remove(&k);
                }
            }
        }
        // Whatever the model still holds, the table still holds.
        assert_eq!(table.len(), pending.len());
        for k in pending.keys() {
            assert!(table.contains_key(k));
        }
    });
}
