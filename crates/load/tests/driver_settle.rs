//! The load driver folds answered calls into running statistics and lets
//! go of their sinks; this checks that against the fold it replaced.
//!
//! A tap actor sits between each driver and its front-end node. It keeps
//! every sink the driver hands out — what the driver itself used to do —
//! and forwards the command in the same instant, so the run is the one
//! the driver sees. At any moment the old end-of-run fold over the tap's
//! sinks must give, field for field, what `LoadDriver::stats()` gives.
//! The run is E16's campus past its knee, with an admission cap looser
//! than the client deadline so that calls are shed *and* time out.

use lc_core::node::{AdmissionConfig, InvokePolicy, NodeCmd};
use lc_core::testkit::{
    display_campus, fast_cohesion, World, DISPLAY_FRONTS as FRONTS, DISPLAY_WORKER as WORKER,
};
use lc_core::{InvokeSink, NodeConfig, QuerySink};
use lc_des::{Actor, ActorId, AnyMsg, AnyMsgExt, Ctx, SimTime};
use lc_load::{
    ArrivalShape, ArrivalStream, DriverArrival, DriverConfig, DriverStats, LoadDriver, QueryTick,
    StreamConfig, ZipfKeys,
};
use lc_orb::{ObjectRef, OrbError, Value};

/// `display_campus` has converged for this long when traffic starts.
const WARMUP: SimTime = SimTime::from_secs(1);
const HORIZON: SimTime = SimTime::from_millis(1200);
const DEADLINE: SimTime = SimTime::from_millis(250);
const DRAIN: SimTime = SimTime::from_millis(600);
/// Twice what the worker draws: E16's highest offered rate.
const RATE: f64 = 10_000.0;

/// Everything one driver sent, kept the way the driver used to keep it.
#[derive(Default)]
struct Kept {
    calls: Vec<(SimTime, InvokeSink)>,
    pending_query: Option<(SimTime, QuerySink)>,
    first_offer_ms: Vec<f64>,
    queries_shed: u64,
    replicas: Vec<ObjectRef>,
}

impl Kept {
    /// The driver's discovery harvest, at the moments the driver runs it.
    fn harvest_query(&mut self) {
        let Some((issued, sink)) = self.pending_query.take() else { return };
        let r = sink.borrow();
        if r.shed {
            self.queries_shed += 1;
            return;
        }
        if let Some(t) = r.first_offer_at {
            self.first_offer_ms.push(t.saturating_sub(issued).as_secs_f64() * 1e3);
        }
        let mut replicas: Vec<ObjectRef> =
            r.offers.iter().filter_map(|o| o.running_instance.clone()).collect();
        replicas.sort_by_key(|a| (a.key.host, a.key.oid));
        replicas.dedup_by(|a, b| a.key == b.key);
        if !replicas.is_empty() {
            self.replicas = replicas;
        }
    }

    /// The fold `LoadDriver::stats()` ran over every call of the run.
    fn fold(&mut self) -> DriverStats {
        self.harvest_query();
        let mut s = DriverStats {
            sent: self.calls.len() as u64,
            first_offer_ms: self.first_offer_ms.clone(),
            queries_shed: self.queries_shed,
            replicas: self.replicas.len(),
            ..DriverStats::default()
        };
        for (sent_at, sink) in &self.calls {
            match sink.borrow().first() {
                None => s.unresolved += 1,
                Some((at, Ok(_))) => {
                    s.ok += 1;
                    s.ok_latency_ms.push(at.saturating_sub(*sent_at).as_secs_f64() * 1e3);
                }
                Some((_, Err(OrbError::Overload))) => s.overload += 1,
                Some((_, Err(OrbError::Timeout))) => s.timeout += 1,
                Some((_, Err(_))) => s.other_err += 1,
            }
        }
        s
    }

    fn sent_since(&self, t: SimTime) -> usize {
        self.calls.iter().filter(|(at, _)| *at > t).count()
    }
}

struct Tap {
    node: ActorId,
    kept: Kept,
}

impl Actor for Tap {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMsg) {
        let Ok(cmd) = msg.downcast_msg::<NodeCmd>() else { return };
        match &cmd {
            NodeCmd::Invoke { sink: Some(sink), .. } => {
                self.kept.calls.push((ctx.now(), sink.clone()));
            }
            NodeCmd::Query { sink, .. } => {
                // The driver harvested its previous query just before
                // issuing this one, in this same instant.
                self.kept.harvest_query();
                self.kept.pending_query = Some((ctx.now(), sink.clone()));
            }
            _ => {}
        }
        ctx.send_in(SimTime::ZERO, self.node, cmd);
    }
}

fn config() -> NodeConfig {
    NodeConfig {
        cohesion: fast_cohesion(),
        invoke: InvokePolicy { deadline: Some(DEADLINE), retries: 0, ..InvokePolicy::default() },
        require_signature: false,
        // Queues 350 ms deep before shedding, and blind to the 250 ms
        // deadline: the calls in between are executed too late.
        admission: Some(AdmissionConfig {
            query_queue_cap: 1024,
            cpu_backlog_cap: SimTime::from_millis(350),
            deadline_aware: false,
            replicate_hot: None,
        }),
        ..Default::default()
    }
}

struct Run {
    world: World,
    /// `(driver, tap)` per front.
    fronts: Vec<(ActorId, ActorId)>,
}

impl Run {
    fn start() -> Run {
        let (mut world, target) = display_campus(16, config());

        let mut fronts = Vec::new();
        for (i, front) in FRONTS.iter().enumerate() {
            let node = world.net.actor_of(*front);
            let tap = world.sim.spawn(Tap { node, kept: Kept::default() });
            let driver = world.sim.spawn(LoadDriver::new(DriverConfig {
                node: tap,
                component: "Display".into(),
                op: "draw".into(),
                args: vec![Value::string("frame")],
                initial_target: target.clone(),
                requery: Some(SimTime::from_millis(100)),
            }));
            world.sim.send_in(SimTime::from_millis(13 + 7 * i as u64), driver, QueryTick);
            let stream = StreamConfig {
                shape: ArrivalShape::Steady,
                rate_per_sec: RATE,
                seed: 0xE16,
                horizon: HORIZON,
                users: 1_000_000,
                keys: ZipfKeys::new(1, 1.0),
            };
            for a in ArrivalStream::split(stream, i, FRONTS.len()) {
                world.sim.send_in(a.at, driver, DriverArrival(a));
            }
            fronts.push((driver, tap));
        }
        Run { world, fronts }
    }

    fn driver(&mut self, i: usize) -> &mut LoadDriver {
        self.world.sim.actor_as_mut::<LoadDriver>(self.fronts[i].0).expect("driver")
    }

    fn kept(&mut self, i: usize) -> &mut Kept {
        &mut self.world.sim.actor_as_mut::<Tap>(self.fronts[i].1).expect("tap").kept
    }

    /// `stats()` of every driver, each checked against the fold over
    /// everything its tap kept.
    fn checked_stats(&mut self) -> Vec<DriverStats> {
        (0..self.fronts.len())
            .map(|i| {
                let stats = self.driver(i).stats();
                assert_eq!(stats, self.kept(i).fold(), "front {i} at {}", self.world.sim.now());
                stats
            })
            .collect()
    }
}

#[test]
fn settled_stats_equal_the_end_of_run_fold_and_sinks_are_let_go() {
    let mut run = Run::start();
    let end = WARMUP + HORIZON;
    // A call is answered — reply, refusal or the client's own timeout —
    // within the deadline and a network hop; so what a driver still
    // holds was sent inside this window, however long the run.
    let window = DEADLINE + SimTime::from_millis(50);
    let mut peak_open = 0;
    let mut now = WARMUP;
    while now < end {
        now += SimTime::from_millis(10);
        run.world.sim.run_until(now);
        for i in 0..FRONTS.len() {
            let open = run.driver(i).open_calls();
            let recent = run.kept(i).sent_since(now.saturating_sub(window));
            assert!(open <= recent, "front {i} holds {open} sinks, sent {recent} in {window}");
            peak_open = peak_open.max(open);
        }
        // Mid-run harvests (the benchmark takes one when it starts
        // measuring) see in-flight calls as unresolved, like the fold.
        if now == WARMUP + SimTime::from_millis(600) {
            let mid = run.checked_stats();
            assert!(mid.iter().all(|s| s.unresolved > 0), "calls are in flight mid-run");
        }
    }
    run.world.sim.run_until(end + DRAIN);

    let stats = run.checked_stats();
    let total = |f: fn(&DriverStats) -> u64| stats.iter().map(f).sum::<u64>();
    let sent = total(|s| s.sent);
    println!(
        "{sent} sent: {} ok, {} shed, {} timed out; at most {peak_open} sinks held by a driver",
        total(|s| s.ok),
        total(|s| s.overload),
        total(|s| s.timeout)
    );
    assert!(sent > 10_000, "sent {sent}");
    assert!(total(|s| s.ok) > 0 && total(|s| s.overload) > 0 && total(|s| s.timeout) > 0);
    assert_eq!(total(|s| s.unresolved), 0, "the drain outlasts the deadline");
    assert_eq!(sent, total(|s| s.ok + s.overload + s.timeout + s.other_err));
    assert!(
        (peak_open as u64) < sent / FRONTS.len() as u64 / 3,
        "{peak_open} sinks held at once out of {sent} calls"
    );

    // Quiescence: nothing the invoke path parks survives the drain.
    for (i, &host) in FRONTS.iter().enumerate() {
        assert_eq!(run.driver(i).open_calls(), 0);
        let front = run.world.node(host).expect("front node");
        assert_eq!(front.pending_calls(), 0, "front {i} still awaits replies");
    }
    let worker = run.world.node(WORKER).expect("worker node");
    assert_eq!(worker.parked_replies(), 0, "the worker still owes replies");
}
