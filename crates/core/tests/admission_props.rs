//! Property tests for the overload-control invariants (admission
//! queues + load shedding):
//!
//! 1. the pending-query table is bounded — its high-water mark never
//!    exceeds `query_queue_cap`, and every shed query's sink still
//!    completes (done + shed, never silently dropped);
//! 2. a shed request is never also executed — on the serving node,
//!    executions equal admitted decisions exactly, under retries and a
//!    lossy fabric (exactly-once under shedding);
//! 3. deadline-aware admission keeps every admitted request's queue
//!    delay at or under the invoke deadline: its reply arrives within
//!    the deadline, its own draw and two link delays.

use lc_core::cohesion::CohesionConfig;
use lc_core::demo;
use lc_core::node::{AdmissionConfig, InvokePolicy, NodeCmd, QueryResult};
use lc_core::testkit::{fast_cohesion, World};
use lc_core::{ComponentQuery, InvokeSink, NodeConfig};
use lc_des::SimTime;
use lc_net::{FaultPlan, HostId, LinkFaults, Net, Topology};
use lc_orb::{ObjectRef, OrbError, Value};
use lc_prop::check;
use std::cell::RefCell;
use std::rc::Rc;

/// Fast cohesion plus the demo component world: `Display` installed on
/// `owner` only, spawned there, its object reference returned.
fn display_world(
    seed: u64,
    topo: Topology,
    owner: HostId,
    cohesion: CohesionConfig,
    invoke: InvokePolicy,
    admission: AdmissionConfig,
    plan: Option<FaultPlan>,
) -> (World, ObjectRef) {
    let config = NodeConfig {
        cohesion,
        invoke,
        admission: Some(admission),
        ..Default::default()
    };
    let mut w = World::on(
        Net::builder(topo).fault_plan(plan).build(),
        seed,
        config,
        demo::catalog(),
        move |h| if h == owner { vec![demo::display_package()] } else { Vec::new() },
    );
    let target = w.spawn(owner, "Display", None, SimTime::from_secs(1));
    (w, target)
}

#[test]
fn query_queue_bounded_and_shed_queries_complete() {
    check("admission_query_queue_bound", |g| {
        let seed = g.next_u64();
        let cap = 1 + g.gen_range(0..3u64) as usize;
        let extra = 2 + g.gen_range(0..6u64) as usize;
        let k = cap + extra;
        let origin = HostId(1);
        let owner = HostId(3);
        let (mut w, _) = display_world(
            seed,
            Topology::lan(4),
            owner,
            fast_cohesion(),
            InvokePolicy::default(),
            AdmissionConfig {
                query_queue_cap: cap,
                // Queries only — keep the CPU path wide open.
                cpu_backlog_cap: SimTime::from_secs(10),
                deadline_aware: false,
                replicate_hot: None,
            },
            None,
        );

        // K identical queries in one tick: no cache, so no coalescing —
        // each occupies its own pending-table slot, and every query
        // past the cap sheds the oldest pending one.
        let sinks: Vec<Rc<RefCell<QueryResult>>> = (0..k)
            .map(|_| {
                w.query(
                    origin,
                    ComponentQuery::by_name("Display", lc_pkg::Version::new(2, 0)),
                    false,
                )
            })
            .collect();
        w.run_for(SimTime::from_secs(5));

        // Bounded: the pending table never grew past the cap.
        let hw = w.node(origin).expect("origin alive").query_queue_high_water();
        assert!(hw <= cap, "query queue high-water {hw} exceeds cap {cap}");

        // Shed queries complete too (done + shed), and exactly the
        // overflow was shed — the survivors resolved with real offers.
        let mut shed = 0usize;
        for (i, s) in sinks.iter().enumerate() {
            let r = s.borrow();
            assert!(r.done, "query {i} never completed");
            if r.shed {
                shed += 1;
            } else {
                assert!(
                    r.offers.iter().any(|o| o.node == owner),
                    "surviving query {i} resolved without the owner's offer"
                );
            }
        }
        assert_eq!(shed, k - cap, "expected exactly the overflow shed ({k} queries, cap {cap})");
        assert_eq!(w.sim.metrics_ref().counter("admission.query_shed"), shed as u64);
    });
}

#[test]
fn shed_requests_never_execute_under_retries_and_loss() {
    check("admission_exactly_once", |g| {
        let seed = g.next_u64();
        let owner = HostId(1);
        // A draw costs ~200 µs on a workstation: gaps of 40–120 µs
        // grow the backlog by ≥ 80 µs per request, so the largest
        // backlog cap drawn below (40 ms) is crossed within ~500
        // requests — well inside the flood.
        let n = 600 + g.gen_range(0..300u64);
        let gap = SimTime::from_micros(40 + g.gen_range(0..80u64));
        let drop_p = g.gen_f64() * 0.05;
        let plan = FaultPlan::seeded(seed ^ 0x10ad)
            .default_link(LinkFaults::none().drop_p(drop_p));
        let (mut w, target) = display_world(
            seed,
            Topology::lan(3),
            owner,
            fast_cohesion(),
            InvokePolicy::standard(),
            AdmissionConfig {
                query_queue_cap: 1024,
                cpu_backlog_cap: SimTime::from_millis(5 + g.gen_range(0..35u64)),
                deadline_aware: g.gen_f64() < 0.5,
                replicate_hot: None,
            },
            Some(plan),
        );

        // Open-loop flood from host 0: tighter than the ~200 µs service
        // time, so the CPU FIFO backs up and admission starts shedding.
        let sinks: Vec<InvokeSink> = (0..n)
            .map(|i| {
                let sink: InvokeSink = Rc::default();
                let s = sink.clone();
                let t = target.clone();
                w.sim.send_in(
                    gap.mul_f64(i as f64),
                    w.net.actor_of(HostId(0)),
                    NodeCmd::Invoke {
                        target: t,
                        op: "draw".into(),
                        args: vec![Value::string("x")],
                        oneway: false,
                        sink: Some(s),
                    },
                );
                sink
            })
            .collect();
        w.run_for(SimTime::from_secs(8));

        // Client side: exactly one terminal outcome per request.
        let (mut ok, mut overload, mut timeout, mut other) = (0u64, 0u64, 0u64, 0u64);
        for (i, s) in sinks.iter().enumerate() {
            let replies = s.borrow();
            assert_eq!(replies.len(), 1, "request {i} got {} terminal replies", replies.len());
            match &replies[0].1 {
                Ok(_) => ok += 1,
                Err(OrbError::Overload) => overload += 1,
                Err(OrbError::Timeout) => timeout += 1,
                Err(_) => other += 1,
            }
        }
        assert_eq!(ok + overload + timeout + other, n);

        // Server side: every fresh admission decision either shed or
        // executed, never both and never twice — so executions equal
        // admitted decisions exactly. Retries of an executed request
        // are answered from the servant's record (no second execution);
        // retries of a shed request stay shed.
        let total = w.sim.metrics_ref().counter("admission.total");
        let shed = w.sim.metrics_ref().counter("admission.shed");
        assert!(shed > 0, "flood never triggered shedding — property is vacuous");
        let probe = w.invoke(HostId(0), &target, "drawn", Vec::new());
        w.run_for(SimTime::from_secs(5));
        let drawn = match &probe.borrow().first().expect("probe replied").1 {
            Ok(out) => match out.ret {
                Value::Long(v) => v as u64,
                ref v => panic!("drawn returned {v:?}"),
            },
            Err(e) => panic!("drawn probe failed: {e:?}"),
        };
        // The probe itself passed admission after the counters were
        // read; it is not a draw, so `drawn` is untouched by it.
        assert_eq!(
            drawn,
            total - shed,
            "executions ({drawn}) != admitted decisions ({total} - {shed}): \
             a shed request executed or an admitted one ran twice"
        );
        assert!(drawn >= ok, "fewer executions than Ok replies");
    });
}

/// A draw's CPU cost on a workstation (`demo::DisplayImpl`).
const DRAW_COST: SimTime = SimTime::from_micros(200);
/// One LAN hop: `Topology`'s 200 µs intra-site latency plus a small
/// frame's serialization.
const LINK_DELAY: SimTime = SimTime::from_micros(250);

#[test]
fn admitted_queue_delay_never_exceeds_deadline() {
    check("admission_deadline_bound", |g| {
        let seed = g.next_u64();
        let owner = HostId(1);
        // Backlog grows by ≥ 100 µs per request at these gaps, so the
        // largest deadline drawn (50 ms) binds within ~500 requests.
        let deadline_ms = 10 + g.gen_range(0..40u64);
        let deadline = SimTime::from_millis(deadline_ms);
        let n = 700 + g.gen_range(0..300u64);
        let gap = SimTime::from_micros(40 + g.gen_range(0..60u64));
        let (mut w, target) = display_world(
            seed,
            Topology::lan(3),
            owner,
            fast_cohesion(),
            // One retry keeps a call pending past its first deadline
            // (until the re-send, 50 ms later), so a reply that queued
            // longer than the deadline still reaches its sink and shows.
            InvokePolicy { deadline: Some(deadline), retries: 1, ..InvokePolicy::default() },
            AdmissionConfig {
                query_queue_cap: 1024,
                // Far above any deadline drawn here: the deadline is
                // the binding constraint.
                cpu_backlog_cap: SimTime::from_secs(10),
                deadline_aware: true,
                replicate_hot: None,
            },
            None,
        );

        let start = w.sim.now();
        let offset = |i: u64| gap.mul_f64(i as f64);
        let sinks: Vec<InvokeSink> = (0..n)
            .map(|i| {
                let sink: InvokeSink = Rc::default();
                w.sim.send_in(
                    offset(i),
                    w.net.actor_of(HostId(0)),
                    NodeCmd::Invoke {
                        target: target.clone(),
                        op: "draw".into(),
                        args: vec![Value::string("x")],
                        oneway: false,
                        sink: Some(Rc::clone(&sink)),
                    },
                );
                sink
            })
            .collect();
        w.run_for(SimTime::from_secs(8));

        let shed = w.sim.metrics_ref().counter("admission.shed");
        assert!(shed > 0, "deadline bound never binding — property is vacuous");
        // An admitted request waits at most the deadline for the CPU,
        // then runs its draw; its request and its reply cross one link
        // each.
        let bound = deadline + DRAW_COST + LINK_DELAY * 2;
        let mut ok = 0;
        for (i, sink) in sinks.iter().enumerate() {
            for (at, _) in sink.borrow().iter().filter(|(_, r)| r.is_ok()) {
                let latency = *at - (start + offset(i as u64));
                assert!(
                    latency <= bound,
                    "request {i} was answered after {latency} against a {deadline} deadline: \
                     it was admitted behind more than the deadline's backlog"
                );
                ok += 1;
            }
        }
        assert!(ok > 0, "nothing was admitted — property is vacuous");
    });
}
