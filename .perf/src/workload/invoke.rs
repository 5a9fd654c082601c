//! `invoke_open`: E16's 8-node campus under a steady open-loop invoke
//! stream at 0.8 × the capacity knee, through four `LoadDriver` fronts.
//!
//! Open loop at a fixed rate: arrivals never wait for replies, and the
//! driver times each call from its scheduled arrival. The stream is fed
//! one segment at a time so the calendar stays bounded.

use super::{sim_profile, world_counters, Counters, Epoch, Outcomes, Profile, Stack};
use crate::spans::Spans;
use lc_core::cohesion::CohesionConfig;
use lc_core::demo::{self, DisplayImpl};
use lc_core::node::{AdmissionConfig, InvokePolicy, NodeCmd};
use lc_core::testkit::{build_world, World};
use lc_core::{NodeConfig, SpawnSink};
use lc_des::{ActorId, ProfilerConfig, SimTime};
use lc_load::{
    ArrivalShape, ArrivalStream, DriverArrival, DriverConfig, LoadDriver, QueryTick, StreamConfig,
    ZipfKeys,
};
use lc_net::{HostId, Topology};
use lc_orb::Value;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// The worker hosting the Display instance (≈5 000 draws/s).
const WORKER: HostId = HostId(1);
/// Front-end ingress hosts, one load driver each (two per site).
const FRONTS: [HostId; 4] = [HostId(2), HostId(3), HostId(5), HostId(6)];
const CONVERGE: SimTime = SimTime::from_secs(1);
const REPORT_PERIOD: SimTime = SimTime::from_millis(200);
/// Client deadline 250 ms ≪ drain, so every call has resolved after it.
const DRAIN: SimTime = SimTime::from_millis(600);
/// Offered load: 0.8 × the 5 000 op/s knee E16 measures.
const RATE_PER_SEC: f64 = 4000.0;
const SEGMENT_OPS: u32 = 10_000;

pub const PROFILE: Profile = Profile {
    warmup_segments: 5,
    nominal_segment_s: 0.066,
    min_segments: 5,
    stack: Stack::Nodes,
    // 8 nodes report every 200 ms while 4 000 invokes/s are due.
    background_node_periods_per_op: 8.0 / (0.2 * RATE_PER_SEC),
};

/// E16's `shed` variant.
fn config() -> NodeConfig {
    NodeConfig {
        cohesion: CohesionConfig {
            fanout: 8,
            replicas: 2,
            report_period: REPORT_PERIOD,
            timeout_intervals: 3,
        },
        invoke: InvokePolicy {
            deadline: Some(SimTime::from_millis(250)),
            retries: 0,
            ..InvokePolicy::default()
        },
        require_signature: false,
        admission: Some(AdmissionConfig {
            query_queue_cap: 1024,
            cpu_backlog_cap: SimTime::from_millis(150),
            deadline_aware: true,
            replicate_hot: None,
        }),
        ..Default::default()
    }
}

pub struct InvokeOpen {
    world: World,
    drivers: Vec<ActorId>,
    arrivals: ArrivalStream,
    segment_ops: u32,
    prepared: Vec<(SimTime, ActorId, DriverArrival)>,
    segment_end: SimTime,
    /// Calls each driver had sent when measurement started.
    warmup_sent: Vec<u64>,
    harvested: bool,
    /// Arrivals whose due instant had already passed when submitted.
    late: u64,
}

impl InvokeOpen {
    pub fn build(seed: u64, shrink: u32, spans: &mut Spans) -> InvokeOpen {
        let s = spans.begin("setup.build_world");
        let behaviors = lc_core::BehaviorRegistry::new();
        demo::register_demo_behaviors(&behaviors);
        let mut world = build_world(
            Topology::campus(2, 4),
            seed,
            config(),
            behaviors,
            demo::demo_trust(),
            Arc::new(demo::demo_idl()),
            // Fronts discover the worker over the network, as in E16.
            |h| {
                if FRONTS.contains(&h) {
                    Vec::new()
                } else {
                    vec![demo::display_package_sized(8 * 1024)]
                }
            },
        );
        spans.end(s);

        let s = spans.begin("setup.converge");
        let spawn: SpawnSink = Rc::new(RefCell::new(None));
        world.cmd(
            WORKER,
            NodeCmd::SpawnLocal {
                component: "Display".into(),
                min_version: lc_pkg::Version::new(2, 0),
                instance_name: None,
                sink: spawn.clone(),
            },
        );
        world.sim.run_until(CONVERGE);
        let target = match spawn.borrow().clone() {
            Some(Ok(r)) => r,
            other => panic!("invoke_open: worker spawn failed: {other:?}"),
        };
        let mut drivers = Vec::new();
        for (i, front) in FRONTS.iter().enumerate() {
            let actor = world.sim.spawn(LoadDriver::new(DriverConfig {
                node: world.actors[front.0 as usize],
                component: "Display".into(),
                op: "draw".into(),
                args: vec![Value::string("frame")],
                initial_target: target.clone(),
                requery: Some(SimTime::from_millis(100)),
            }));
            // Staggered discovery so four queries never share a tick.
            world
                .sim
                .send_in(SimTime::from_millis(13 + 7 * i as u64), actor, QueryTick);
            drivers.push(actor);
        }
        spans.end(s);

        let arrivals = ArrivalStream::new(StreamConfig {
            shape: ArrivalShape::Steady,
            rate_per_sec: RATE_PER_SEC,
            seed: seed ^ 0xE16,
            horizon: SimTime::MAX,
            users: 1_000_000,
            keys: ZipfKeys::new(1, 1.0),
        });
        InvokeOpen {
            world,
            drivers,
            arrivals,
            segment_ops: (SEGMENT_OPS / shrink).max(100),
            prepared: Vec::new(),
            segment_end: CONVERGE,
            warmup_sent: vec![0; FRONTS.len()],
            harvested: false,
            late: 0,
        }
    }

    fn driver(&mut self, i: usize) -> &mut LoadDriver {
        self.world
            .sim
            .actor_as_mut::<LoadDriver>(self.drivers[i])
            .expect("load drivers live for the whole epoch")
    }
}

impl Epoch for InvokeOpen {
    fn prepare(&mut self) {
        self.prepared.clear();
        for _ in 0..self.segment_ops {
            let a = self
                .arrivals
                .next()
                .expect("the arrival stream has no horizon");
            let at = CONVERGE + a.at;
            let driver = self.drivers[(a.index % FRONTS.len() as u64) as usize];
            self.prepared.push((at, driver, DriverArrival(a)));
            self.segment_end = at;
        }
    }

    fn submit(&mut self) {
        let now = self.world.sim.now();
        for (at, driver, arrival) in self.prepared.drain(..) {
            self.late += u64::from(at < now);
            self.world
                .sim
                .send_in(at.saturating_sub(now), driver, arrival);
        }
    }

    fn advance(&mut self) {
        self.world.sim.run_until(self.segment_end);
    }

    fn segment_ops(&self) -> u64 {
        u64::from(self.segment_ops)
    }

    /// The drivers keep every call until the end of the epoch; `finish`
    /// reads them all at once.
    fn harvest(&mut self, _out: &mut Outcomes) {}

    fn start_measuring(&mut self) {
        for i in 0..FRONTS.len() {
            self.warmup_sent[i] = self.driver(i).stats().sent;
        }
    }

    fn counters(&self) -> Counters {
        world_counters(&self.world, self.late)
    }

    fn enable_profiler(&mut self) {
        self.world.sim.enable_profiler(ProfilerConfig::default());
    }

    fn profile(&self) -> Vec<(String, u64)> {
        sim_profile(&self.world.sim)
    }

    fn finish(&mut self, out: &mut Outcomes) {
        assert!(!self.harvested, "finish runs once per epoch");
        self.harvested = true;
        let end = self.world.sim.now() + DRAIN;
        self.world.sim.run_until(end);

        for i in 0..FRONTS.len() {
            let warmup = self.warmup_sent[i];
            let s = self.driver(i).stats();
            let warmup_ok = warmup.min(s.ok_latency_ms.len() as u64) as usize;
            if s.ok != s.sent {
                // Some call was shed, timed out or went unanswered, so
                // latencies no longer line up with send order: count the
                // measured share of the failures and keep what answered.
                out.violation(format!(
                    "front {i}: {} sent, {} ok, {} overload, {} timeout, {} other, {} unresolved",
                    s.sent, s.ok, s.overload, s.timeout, s.other_err, s.unresolved
                ));
            }
            for &ms in &s.ok_latency_ms[warmup_ok..] {
                out.ok((ms * 1e6).round() as u64);
            }
            for _ in 0..(s.sent - s.ok) {
                out.fail();
            }
        }

        // Exactly-once ledger: every admitted request drew exactly once.
        let m = self.world.sim.metrics_ref();
        let admitted = m.counter("admission.total") - m.counter("admission.shed");
        let drawn = self.world.node(WORKER).and_then(|node| {
            let id = node.registry.instances_of("Display").next()?.id;
            node.servant_of::<DisplayImpl>(id).map(|d| d.drawn)
        });
        if drawn != Some(admitted as i64) {
            out.violation(format!(
                "ledger: worker drew {drawn:?}, admission admitted {admitted}"
            ));
        }
    }
}
