//! `query_hier` and `registry_mixed`: the 1 024-node campus (128 sites × 8)
//! on the full node stack, driven through `NodeCmd`.
//!
//! Both are open loops in *virtual* time: ops are due on a seeded Poisson
//! schedule (100 op/s) and are scheduled into the calendar at their due
//! instant, so the generator is never late and latency is timed from when
//! the op was due (the node stamps `QueryResult::started` on delivery).

use super::{sim_profile, world_counters, Counters, Epoch, Outcomes, Profile, Stack};
use crate::spans::Spans;
use lc_core::cohesion::CohesionConfig;
use lc_core::demo;
use lc_core::node::{NodeCmd, QueryResult, RegistryConfig, SpawnSink};
use lc_core::testkit::{build_world_on, World};
use lc_core::{BehaviorRegistry, CacheConfig, ComponentQuery, NodeConfig, ShardConfig};
use lc_des::{ActorId, ProfilerConfig, SimRng, SimTime};
use lc_load::{ArrivalShape, ArrivalStream, StreamConfig, ZipfKeys};
use lc_net::{FaultPlan, HostId, LinkFaults, Net, Topology};
use lc_pkg::{ComponentDescriptor, Package, Platform, QosSpec, Version};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

const HOSTS_PER_SITE: u32 = 8;
const REPORT_PERIOD: SimTime = SimTime::from_secs(2);
/// 1 024 nodes report every 2 s while 100 ops/s are due.
const BACKGROUND: f64 = 1024.0 / (2.0 * OPS_PER_SEC);
/// Mean op rate, per virtual second (one op every 10 virtual ms).
const OPS_PER_SEC: f64 = 100.0;
/// Two full report rounds (2 s cadence) plus the summary climb must land
/// before the first op (E14 uses the same figure).
const CONVERGE: SimTime = SimTime::from_secs(7);
/// Longer than query timeout × (retries + 1): after it nothing is pending.
const DRAIN: SimTime = SimTime::from_secs(6);

/// What distinguishes the two campus workloads.
pub struct Spec {
    sites: u32,
    components: u32,
    /// Hosts ops originate from.
    origins: u32,
    /// Skew of the component an op names (0 = uniform).
    zipf_s: f64,
    /// Sharded registry + result cache + faulted fabric + writes.
    mixed: bool,
    segment_ops: u32,
    pub profile: Profile,
}

/// Hierarchical search, nothing else: single leader, cache off, no faults.
pub const QUERY_HIER: Spec = Spec {
    sites: 128,
    components: 32,
    origins: 384,
    zipf_s: 0.0,
    mixed: false,
    segment_ops: 4000,
    profile: Profile {
        warmup_segments: 5,
        nominal_segment_s: 0.164,
        min_segments: 5,
        stack: Stack::Nodes,
        background_node_periods_per_op: BACKGROUND,
    },
};

/// The same registry layer used differently: sharded backend, result
/// cache, a duplicating and jittering fabric, and a 90/8/2 query/spawn/install mix.
pub const REGISTRY_MIXED: Spec = Spec {
    sites: 128,
    components: 256,
    origins: 64,
    zipf_s: 1.0,
    mixed: true,
    segment_ops: 2000,
    profile: Profile {
        warmup_segments: 5,
        nominal_segment_s: 0.226,
        min_segments: 5,
        stack: Stack::ShardedNodes,
        background_node_periods_per_op: BACKGROUND,
    },
};

/// A sealed package for `name` whose QoS is near zero, so no spawn is ever
/// refused for resources within an epoch.
fn component_package(name: &str) -> Rc<Vec<u8>> {
    let mut desc = ComponentDescriptor::new(name, Version::new(1, 0), "demo-vendor")
        .provides("counter", "IDL:demo/Counter:1.0");
    desc.qos = QosSpec {
        cpu_min: 1e-7,
        cpu_max: 0.2,
        memory: 1 << 10,
        bandwidth_min: 0.0,
    };
    let mut pkg =
        Package::new(desc).with_binary(Platform::reference(), "demo_counter", &[0xE1; 4 * 1024]);
    pkg.seal(&demo::demo_key());
    Rc::new(pkg.to_bytes())
}

fn component_name(i: u32) -> String {
    format!("Svc{i:03}")
}

/// Seats within a site: 0–1 hold the MRM duties, 2–4 originate ops,
/// 5–6 own components, 7 receives run-time installs.
fn seat(site: u32, offset: u32) -> HostId {
    HostId(site * HOSTS_PER_SITE + offset)
}

impl Spec {
    /// The owner of component `i`: scattered sites, seats 5–6.
    fn owner(&self, i: u32) -> HostId {
        seat((i * 37) % self.sites, 5 + (i / self.sites) % 2)
    }

    /// Origin `k` of `self.origins`: spread over the sites, seats 2–4.
    fn origin(&self, k: u32) -> HostId {
        let stride = (self.sites * 3 / self.origins).max(1);
        let slot = k * stride;
        seat(slot % self.sites, 2 + (slot / self.sites) % 3)
    }

    /// The `j`-th run-time install puts extension package `j % sites` on
    /// its one host (rotating sites, seat 7). After the first round every
    /// install is a re-install: the Acceptor parses and verifies the bytes
    /// and the registry change is published again, but the set of
    /// components stays fixed, so an epoch does not drift as it ages.
    fn install(&self, j: u32) -> (HostId, String) {
        let k = j % self.sites;
        (seat((k * 53 + 7) % self.sites, 7), format!("Ext{k:03}"))
    }

    fn config(&self) -> NodeConfig {
        let base = NodeConfig::builder()
            .cohesion(CohesionConfig {
                fanout: 8,
                replicas: 2,
                report_period: REPORT_PERIOD,
                timeout_intervals: 3,
            })
            .query_timeout(SimTime::from_millis(800))
            .query_retries(1);
        if !self.mixed {
            return base.build();
        }
        base.cache(CacheConfig::default())
            .registry(RegistryConfig::Sharded(ShardConfig {
                shards: 8,
                replicas: 2,
                vnodes: 8,
                gossip_period: SimTime::from_millis(500),
                publish_ttl: SimTime::from_secs(2),
            }))
            .build()
    }

    fn net(&self, seed: u64) -> Net {
        let builder = Net::builder(Topology::campus(
            self.sites as usize,
            HOSTS_PER_SITE as usize,
        ));
        if !self.mixed {
            return builder.build();
        }
        // Duplication and jitter, but no loss: a query coalesced onto a
        // leader whose search was lost expires empty (followers are not
        // retried), and the benchmark keeps to workloads on which no op
        // fails. The faulted send path and reordering are still exercised.
        builder
            .fault_plan(
                FaultPlan::seeded(seed).default_link(
                    LinkFaults::none()
                        .dup_p(0.005)
                        .jitter(SimTime::from_millis(2)),
                ),
            )
            .build()
    }
}

/// What the harness remembers about one submitted op until it is harvested.
enum Track {
    Query {
        sink: Rc<RefCell<QueryResult>>,
        component: u32,
    },
    Spawn {
        sink: SpawnSink,
    },
    Install,
}

struct Prepared {
    at: SimTime,
    actor: ActorId,
    cmd: NodeCmd,
}

struct Batch {
    measured: bool,
    tracks: Vec<Track>,
}

pub struct Campus {
    spec: &'static Spec,
    world: World,
    arrivals: ArrivalStream,
    kinds: SimRng,
    segment_ops: u32,
    measuring: bool,
    installs_submitted: u32,
    prepared: Vec<Prepared>,
    segment_end: SimTime,
    /// Ops of the segment just run and of the one before it; a batch is
    /// harvested one segment late, when even a retried query has finished.
    running: Option<Batch>,
    settled: Option<Batch>,
    installs_measured: u64,
    installed_at_start: u64,
    /// Ops whose due instant had already passed when they were submitted.
    late: u64,
}

impl Campus {
    pub fn build(spec: &'static Spec, seed: u64, shrink: u32, spans: &mut Spans) -> Campus {
        let s = spans.begin("setup.build_world");
        let behaviors = BehaviorRegistry::new();
        demo::register_demo_behaviors(&behaviors);
        let packages: Vec<(HostId, Rc<Vec<u8>>)> = (0..spec.components)
            .map(|i| (spec.owner(i), component_package(&component_name(i))))
            .collect();
        let mut world = build_world_on(
            spec.net(seed),
            seed,
            spec.config(),
            behaviors,
            demo::demo_trust(),
            Arc::new(demo::demo_idl()),
            |host| {
                packages
                    .iter()
                    .filter(|(o, _)| *o == host)
                    .map(|(_, p)| p.clone())
                    .collect()
            },
        );
        spans.end(s);

        let s = spans.begin("setup.converge");
        world.sim.run_until(CONVERGE);
        spans.end(s);

        let arrivals = ArrivalStream::new(StreamConfig {
            shape: ArrivalShape::Steady,
            rate_per_sec: OPS_PER_SEC,
            seed: seed ^ 0x0C0F_FEE0,
            horizon: SimTime::MAX,
            users: u64::from(spec.origins),
            keys: ZipfKeys::new(spec.components as usize, spec.zipf_s),
        });
        Campus {
            spec,
            world,
            arrivals,
            kinds: SimRng::seed_from_u64(seed ^ 0x00D1_CE00),
            segment_ops: (spec.segment_ops / shrink).max(20),
            measuring: false,
            installs_submitted: 0,
            prepared: Vec::new(),
            segment_end: CONVERGE,
            running: None,
            settled: None,
            installs_measured: 0,
            installed_at_start: 0,
            late: 0,
        }
    }

    /// Advance one cohesion report period with no ops — the idle rows of
    /// the unit-cost ledger.
    pub fn idle_period(&mut self) {
        let until = self.world.sim.now() + REPORT_PERIOD;
        self.world.sim.run_until(until);
    }

    fn harvest_batch(&self, batch: Batch, out: &mut Outcomes) {
        if !batch.measured {
            return;
        }
        for t in batch.tracks {
            match t {
                Track::Query { sink, component } => {
                    let r = sink.borrow();
                    let want = component_name(component);
                    for o in &r.offers {
                        if o.component != want || o.node != self.spec.owner(component) {
                            out.violation(format!(
                                "query for {want}: offer names {} on {}, which does not hold it",
                                o.component, o.node
                            ));
                        }
                    }
                    match r.first_offer_at {
                        Some(at) if r.done && !r.offers.is_empty() && !r.shed => {
                            out.ok((at - r.started).as_nanos());
                        }
                        _ => out.fail(),
                    }
                }
                Track::Spawn { sink } => match &*sink.borrow() {
                    // A local spawn completes within the event it is due in.
                    Some(Ok(_)) => out.ok(0),
                    _ => out.fail(),
                },
                // Installs carry no sink; `finish` balances them against the
                // acceptor's own count.
                Track::Install => out.ok(0),
            }
        }
    }
}

impl Epoch for Campus {
    fn prepare(&mut self) {
        let base = CONVERGE;
        let mut tracks = Vec::with_capacity(self.segment_ops as usize);
        self.prepared.clear();
        for _ in 0..self.segment_ops {
            let a = self
                .arrivals
                .next()
                .expect("the arrival stream has no horizon");
            let at = base + a.at;
            let component = a.key as u32;
            let kind = if self.spec.mixed {
                self.kinds.gen_f64()
            } else {
                0.0
            };
            let (host, cmd, track) = if kind < 0.90 {
                let sink: Rc<RefCell<QueryResult>> = Rc::default();
                let cmd = NodeCmd::Query {
                    query: ComponentQuery::by_name(&component_name(component), Version::new(1, 0)),
                    sink: sink.clone(),
                    first_wins: true,
                };
                (
                    self.spec.origin(a.user as u32),
                    cmd,
                    Track::Query { sink, component },
                )
            } else if kind < 0.98 {
                let sink: SpawnSink = Rc::new(RefCell::new(None));
                let cmd = NodeCmd::SpawnLocal {
                    component: component_name(component),
                    min_version: Version::new(1, 0),
                    instance_name: None,
                    sink: sink.clone(),
                };
                (self.spec.owner(component), cmd, Track::Spawn { sink })
            } else {
                let j = self.installs_submitted;
                self.installs_submitted += 1;
                if self.measuring {
                    self.installs_measured += 1;
                }
                let (host, name) = self.spec.install(j);
                (
                    host,
                    NodeCmd::Install(component_package(&name)),
                    Track::Install,
                )
            };
            self.prepared.push(Prepared {
                at,
                actor: self.world.actors[host.0 as usize],
                cmd,
            });
            tracks.push(track);
            self.segment_end = at;
        }
        debug_assert!(self.settled.is_none(), "harvest must run between segments");
        self.settled = self.running.replace(Batch {
            measured: self.measuring,
            tracks,
        });
    }

    fn submit(&mut self) {
        let now = self.world.sim.now();
        for p in self.prepared.drain(..) {
            self.late += u64::from(p.at < now);
            self.world
                .sim
                .send_in(p.at.saturating_sub(now), p.actor, p.cmd);
        }
    }

    fn advance(&mut self) {
        self.world.sim.run_until(self.segment_end);
    }

    fn segment_ops(&self) -> u64 {
        u64::from(self.segment_ops)
    }

    fn harvest(&mut self, out: &mut Outcomes) {
        if let Some(batch) = self.settled.take() {
            self.harvest_batch(batch, out);
        }
    }

    fn start_measuring(&mut self) {
        self.measuring = true;
        self.installed_at_start = self.world.sim.metrics_ref().counter("acceptor.installed");
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
        let end = self.world.sim.now() + DRAIN;
        self.world.sim.run_until(end);
        for batch in [self.settled.take(), self.running.take()]
            .into_iter()
            .flatten()
        {
            self.harvest_batch(batch, out);
        }
        // Installs due before `start_measuring` were accepted before it,
        // so the acceptor's delta is exactly the measured installs.
        let m = self.world.sim.metrics_ref();
        let accepted = m.counter("acceptor.installed") - self.installed_at_start;
        if accepted != self.installs_measured || m.counter("acceptor.rejected") != 0 {
            out.violation(format!(
                "installs: {} submitted, {accepted} accepted, {} rejected",
                self.installs_measured,
                m.counter("acceptor.rejected")
            ));
        }
    }
}
