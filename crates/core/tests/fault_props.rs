//! Property tests for the invocation-recovery layer: exactly-once
//! servant effects under a duplicating/reordering fabric, and the
//! deadline-sweep contract of [`Continuations`] that the retry and
//! dedup machinery is built on — plus the message-accounting invariant
//! of the control plane under crashes and partitions.

use lc_core::demo::{self, DisplayImpl};
use lc_core::node::{InvokePolicy, NodeCmd, NodeConfig};
use lc_core::testkit::{fast_cohesion, World};
use lc_core::{CohesionConfig, ComponentQuery, Continuations, InstanceId, InvokeSink};
use lc_des::SimTime;
use lc_net::{FaultPlan, HostCfg, HostId, LinkFaults, Net, Topology};
use lc_orb::{ObjectRef, Value};
use lc_prop::check;

/// Retried + duplicated + reordered requests still execute the servant
/// exactly once per logical call: the servant's request-id record
/// answers duplicates with the kept reply, and late duplicate replies
/// find no pending call to resume. No messages are *lost* here
/// (`drop_p = 0`), so every call must also complete successfully — the
/// final counter value equals the number of calls issued, never more.
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

/// The server of the two properties below.
const SERVER: HostId = HostId(3);

/// A 4-host LAN on `plan`'s fabric whose host 3 runs a `Display` at
/// `cpu` times the reference CPU, and the instant that CPU finishes each
/// draw run so far.
struct SlowDisplay {
    world: World,
    target: ObjectRef,
    /// One draw's time on the server (200 us of reference CPU).
    draw: SimTime,
    finish: Vec<SimTime>,
}

impl SlowDisplay {
    fn new(seed: u64, cpu: f64, plan: FaultPlan, invoke: InvokePolicy) -> Self {
        let mut topo = Topology::new();
        let site = topo.add_site("lan");
        for h in 0..4 {
            topo.add_host(if h == 3 { HostCfg::new(site).cpu(cpu) } else { HostCfg::new(site) });
        }
        let mut world = World::on(
            Net::builder(topo).fault_plan(plan).build(),
            seed ^ 0x5eed,
            NodeConfig { cohesion: fast_cohesion(), invoke, ..Default::default() },
            demo::catalog(),
            |h| if h == SERVER { vec![demo::display_package()] } else { Vec::new() },
        );
        world.sim.run_until(SimTime::from_millis(800));
        let target = world.spawn(SERVER, "Display", None, SimTime::from_millis(200));
        let draw = SimTime::from_micros(200).mul_f64(1.0 / cpu);
        SlowDisplay { world, target, draw, finish: Vec::new() }
    }

    /// A draw `caller` asks for `after` from now.
    fn draw_in(&mut self, after: SimTime, caller: HostId) -> InvokeSink {
        let sink = InvokeSink::default();
        let call = NodeCmd::Invoke {
            target: self.target.clone(),
            op: "draw".into(),
            args: vec![Value::string("x")],
            oneway: false,
            sink: Some(sink.clone()),
        };
        self.world.sim.send_in(after, self.world.net.actor_of(caller), call);
        sink
    }

    /// Fire the next event due by `end` and note the draws it ran. The
    /// CPU is one FIFO: a draw starts at once or when the one before it
    /// finishes, and takes one draw's time.
    fn step_until(&mut self, end: SimTime) -> bool {
        if self.world.sim.now() >= end || !self.world.sim.step() {
            return false;
        }
        let now = self.world.sim.now();
        let node = self.world.node(SERVER).expect("the server runs");
        let display = InstanceId(self.target.key.oid);
        let drawn = node.servant_of::<DisplayImpl>(display).expect("the display runs").drawn;
        for _ in self.finish.len()..drawn as usize {
            let start = self.finish.last().map_or(now, |&done| done.max(now));
            self.finish.push(start + self.draw);
        }
        true
    }
}

/// The same fabric, with replies that queue: a burst of draws at a
/// slow-CPU host parks each reply until the CPU finishes its draw, and
/// copies and retries of a request find it still waiting. Each call
/// draws exactly once; no caller hears `Ok` before the CPU has finished
/// the draw it reports (after every event, the `Ok`s heard never
/// outnumber the draws finished); and once the longest window, the
/// 5 s dedup window, has passed, no node holds a call, a parked reply
/// or a record.
#[test]
fn queued_replies_answer_each_call_once_after_its_work() {
    check("queued_replies_after_their_work", |g| {
        let seed = g.next_u64();
        let dup_p = g.gen_f64() * 0.5;
        let reorder_p = g.gen_f64() * 0.5;
        let jitter_ms = g.gen_range(0..60u64);
        let k = g.gen_range(5..20u32);
        // A draw takes 200 us of reference CPU, 1-2 ms at this power, and
        // the calls come faster: the replies queue, past a deadline that
        // retries each call while its reply waits. The last attempt's
        // deadline, 350 ms after the four deadlines, outlasts any queue.
        let cpu = 0.1 + g.gen_f64() * 0.1;
        let gap = SimTime::from_micros(g.gen_range(0..1_000u64));
        let deadline = SimTime::from_millis(g.gen_range(5..40u64));

        let plan = FaultPlan::seeded(seed).default_link(
            LinkFaults::none()
                .dup_p(dup_p)
                .reorder(reorder_p, SimTime::from_millis(5))
                .jitter(SimTime::from_millis(jitter_ms)),
        );
        let invoke = InvokePolicy { deadline: Some(deadline), ..InvokePolicy::standard() };
        let mut s = SlowDisplay::new(seed, cpu, plan, invoke);
        let sinks: Vec<InvokeSink> =
            (0..k).map(|i| s.draw_in(gap.mul_f64(f64::from(i)), HostId(1))).collect();
        let end = s.world.sim.now() + SimTime::from_secs(8);
        while s.step_until(end) {
            let now = s.world.sim.now();
            let finished = s.finish.iter().filter(|&&done| done <= now).count();
            let heard = sinks.iter().filter(|s| s.borrow().iter().any(|(_, r)| r.is_ok())).count();
            assert!(heard <= finished, "{heard} calls heard Ok at {now}, {finished} draws done");
        }

        let drawn = s.finish.len();
        assert_eq!(drawn, k as usize, "{drawn} draws for {k} calls (dup_p={dup_p:.2})");
        for (i, sink) in sinks.iter().enumerate() {
            let s = sink.borrow();
            assert_eq!(s.len(), 1, "call {i}: one resolution, got {}", s.len());
            assert!(s[0].1.is_ok(), "call {i} failed: {:?}", s[0].1);
        }
        for host in s.world.net.host_ids() {
            let node = s.world.node(host).expect("no host crashed");
            let left = (node.pending_calls(), node.parked_replies(), node.served_requests());
            assert_eq!(left, (0, 0, 0), "{host:?}: calls, parked replies, records");
        }
    });
}

/// The servant's record holds, after every event, what a full scan over
/// the draws run so far holds: a draw's reply is parked from its
/// dispatch until the CPU finishes it, then kept for the dedup window,
/// drawn here as short as zero, so records come and go all through the
/// run. A record may outlive its end only until the same instant's
/// events have fired. Copies of requests on a duplicating fabric are
/// looked up in the record throughout; a copy that arrives after its
/// record has gone runs again and is counted as a draw like any other.
#[test]
fn served_records_agree_with_a_full_scan() {
    check("served_records_agree_with_a_full_scan", |g| {
        let seed = g.next_u64();
        let window = SimTime::from_millis(g.gen_range(0..60u64));
        let cpu = 0.1 + g.gen_f64() * 0.1;
        let k = g.gen_range(5..40u32);
        let plan = FaultPlan::seeded(seed).default_link(
            LinkFaults::none()
                .dup_p(g.gen_f64() * 0.5)
                .jitter(SimTime::from_millis(g.gen_range(0..20u64))),
        );
        let invoke = InvokePolicy { dedup_window: window, ..InvokePolicy::default() };
        let mut s = SlowDisplay::new(seed, cpu, plan, invoke);
        let mut at = SimTime::ZERO;
        for _ in 0..k {
            at += SimTime::from_micros(g.gen_range(0..3_000u64));
            s.draw_in(at, HostId(g.gen_range(0..3u32)));
        }

        let end = s.world.sim.now() + at + SimTime::from_secs(1);
        while s.step_until(end) {
            let now = s.world.sim.now();
            // Live from dispatch until `until`; at `until` itself, until
            // the event that ends it fires.
            let live = |until: &dyn Fn(SimTime) -> SimTime| {
                let before = s.finish.iter().filter(|&&done| now < until(done)).count();
                (before, s.finish.iter().filter(|&&done| now <= until(done)).count())
            };
            let (parked, kept) = (live(&|done| done), live(&|done| done + window));
            let node = s.world.node(SERVER).expect("the server runs");
            let got = (node.parked_replies(), node.served_requests());
            assert!(parked.0 <= got.0 && got.0 <= parked.1, "parked {got:?} at {now}: {parked:?}");
            assert!(kept.0 <= got.1 && got.1 <= kept.1, "records {got:?} at {now}: {kept:?}");
        }
        assert!(s.finish.len() >= k as usize, "{} draws for {k} calls", s.finish.len());
        assert_eq!(s.world.node(SERVER).map(|n| n.served_requests()), Some(0));
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
