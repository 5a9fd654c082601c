//! The load driver folds answered calls into running statistics, lets
//! go of their sinks and reuses the ones nobody else holds; this checks
//! that against the fold it replaced.
//!
//! A tap actor sits between each driver and its front-end node. It keeps
//! every sink the driver hands out — what the driver itself used to do —
//! or a seeded subset of them, and forwards the command in the same
//! instant, so the run is the one the driver sees. At any moment the old
//! end-of-run fold over a keep-all tap's sinks must give, field for
//! field, what `LoadDriver::stats()` gives — in that run, and in its twin
//! whose tap keeps a subset and so leaves the driver the rest to reuse.
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
use std::collections::BTreeSet;
use std::rc::Rc;

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
    /// `(call index, sent at, sink)` of every kept call.
    calls: Vec<(usize, SimTime, InvokeSink)>,
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
        for (_, sent_at, sink) in &self.calls {
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
        self.calls.iter().filter(|(_, at, _)| *at > t).count()
    }
}

/// Which of the sinks it forwards a tap keeps.
#[derive(Clone, Copy)]
enum Keep {
    /// Every one: the fold over them is the driver's whole history.
    All,
    /// About a quarter, picked by a hash of the call index and this seed.
    Subset(u64),
}

impl Keep {
    fn keeps(self, call: usize) -> bool {
        match self {
            Keep::All => true,
            Keep::Subset(seed) => {
                // SplitMix64's finaliser: a fixed, seeded pick.
                let mut z = seed ^ (call as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)).is_multiple_of(4)
            }
        }
    }
}

struct Tap {
    node: ActorId,
    keep: Keep,
    kept: Kept,
    /// Invokes forwarded so far.
    forwarded: usize,
    /// Addresses of the kept sinks (alive while kept, so never reused).
    kept_at: BTreeSet<usize>,
    /// Addresses of the forwarded sinks this tap let go. The driver
    /// never frees one (it keeps it open or spare), so an address seen
    /// again is that sink again.
    let_go: BTreeSet<usize>,
    /// Forwarded sinks a driver had handed out before.
    reused: usize,
}

impl Tap {
    fn new(node: ActorId, keep: Keep) -> Tap {
        Tap {
            node,
            keep,
            kept: Kept::default(),
            forwarded: 0,
            kept_at: BTreeSet::new(),
            let_go: BTreeSet::new(),
            reused: 0,
        }
    }

    fn forward_call(&mut self, now: SimTime, sink: &InvokeSink) {
        let call = self.forwarded;
        self.forwarded += 1;
        let at = Rc::as_ptr(sink) as usize;
        assert!(sink.borrow().is_empty(), "call {call} was handed a sink holding a reply");
        assert!(!self.kept_at.contains(&at), "call {call} was handed a sink the tap keeps");
        if self.let_go.contains(&at) {
            self.reused += 1;
        }
        if self.keep.keeps(call) {
            self.kept_at.insert(at);
            self.kept.calls.push((call, now, sink.clone()));
        } else {
            self.let_go.insert(at);
        }
    }
}

impl Actor for Tap {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMsg) {
        let Ok(cmd) = msg.downcast_msg::<NodeCmd>() else { return };
        match &cmd {
            NodeCmd::Invoke { sink: Some(sink), .. } => self.forward_call(ctx.now(), sink),
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
    fn start(keep: Keep) -> Run {
        let (mut world, target) = display_campus(16, config());

        let mut fronts = Vec::new();
        for (i, front) in FRONTS.iter().enumerate() {
            let node = world.net.actor_of(*front);
            let tap = world.sim.spawn(Tap::new(node, keep));
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

    fn tap(&mut self, i: usize) -> &mut Tap {
        self.world.sim.actor_as_mut::<Tap>(self.fronts[i].1).expect("tap")
    }

    fn kept(&mut self, i: usize) -> &mut Kept {
        &mut self.tap(i).kept
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
    let mut run = Run::start(Keep::All);
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

/// The twin of a keep-all run whose taps keep a seeded quarter of the
/// sinks: the driver reuses the rest, never one a tap still holds, and
/// always hands it out empty (`Tap::forward_call`); its statistics stay
/// those of the keep-all fold, and every kept call got the reply its
/// twin got.
#[test]
fn a_reused_sink_is_never_one_somebody_still_holds() {
    for seed in [1, 0xE16, 0x5EED] {
        let mut all = Run::start(Keep::All);
        let mut subset = Run::start(Keep::Subset(seed));
        let end = WARMUP + HORIZON + DRAIN;
        let mut now = WARMUP;
        while now < end {
            now += SimTime::from_millis(50);
            all.world.sim.run_until(now);
            subset.world.sim.run_until(now);
            for i in 0..FRONTS.len() {
                let fold = all.kept(i).fold();
                assert_eq!(subset.driver(i).stats(), fold, "seed {seed}, front {i} at {now}");
                let replies: Vec<_> =
                    all.kept(i).calls.iter().map(|(_, _, s)| s.borrow().first().cloned()).collect();
                for (call, _, sink) in &subset.kept(i).calls {
                    assert_eq!(sink.borrow().first(), replies[*call].as_ref(), "call {call}");
                }
            }
        }
        let tap = |run: &mut Run, f: fn(&Tap) -> usize| {
            (0..FRONTS.len()).map(|i| f(run.tap(i))).sum::<usize>()
        };
        let (sent, reused) = (tap(&mut subset, |t| t.forwarded), tap(&mut subset, |t| t.reused));
        let kept = tap(&mut subset, |t| t.kept.calls.len());
        println!("seed {seed:#x}: {sent} calls, {kept} sinks kept, {reused} reused");
        assert_eq!(sent, tap(&mut all, |t| t.forwarded));
        assert!(kept > sent / 8 && kept < sent / 2, "{kept} of {sent} kept");
        assert!(reused > sent / 2, "only {reused} of {sent} calls reused a sink");
    }
}

/// A call nobody can answer does not hold back the calls behind it: the
/// front node crashes under a 1 000/s driver, every in-flight call and
/// every later command goes with it, and the driver counts those
/// `unresolved` as it reaches them instead of holding every later sink
/// for the rest of the run.
#[test]
fn a_crashed_front_pins_no_sinks() {
    const CRASH: SimTime = SimTime::from_millis(1500);
    const AFTER: SimTime = SimTime::from_millis(2500);
    let (mut world, target) = display_campus(16, config());
    let front = FRONTS[0];
    let driver = world.sim.spawn(LoadDriver::new(DriverConfig {
        node: world.net.actor_of(front),
        component: "Display".into(),
        op: "draw".into(),
        args: vec![Value::string("frame")],
        initial_target: target,
        requery: Some(SimTime::from_millis(100)),
    }));
    world.sim.send_in(SimTime::from_millis(13), driver, QueryTick);
    let stream = StreamConfig {
        shape: ArrivalShape::Steady,
        rate_per_sec: 1_000.0,
        seed: 0xC4A5,
        horizon: CRASH + AFTER,
        users: 1_000_000,
        keys: ZipfKeys::new(1, 1.0),
    };
    for a in ArrivalStream::new(stream) {
        world.sim.send_in(a.at, driver, DriverArrival(a));
    }
    fn driver_of(world: &mut World, driver: ActorId) -> &mut LoadDriver {
        world.sim.actor_as_mut::<LoadDriver>(driver).expect("driver")
    }
    // What one deadline and a hop of traffic leave in flight, with room.
    let bound = 300;
    let start = world.sim.now();
    let mut now = start;
    while now < start + CRASH + AFTER {
        now += SimTime::from_millis(10);
        world.sim.run_until(now);
        if now == start + CRASH {
            world.crash(front);
        }
        let open = driver_of(&mut world, driver).open_calls();
        assert!(open <= bound, "the driver holds {open} sinks at {now}");
    }
    let s = driver_of(&mut world, driver).stats();
    println!("{} sent: {} ok, {} unresolved", s.sent, s.ok, s.unresolved);
    assert_eq!(s.sent, s.ok + s.overload + s.timeout + s.other_err + s.unresolved);
    assert!(s.ok > 1_000, "{} answered before the crash", s.ok);
    assert!(s.unresolved > 2_000, "{} sent after the crash are unresolved", s.unresolved);
}
