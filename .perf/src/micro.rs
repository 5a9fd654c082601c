//! Unit costs per layer: public functions timed from outside, normalised
//! by the reference kernel exactly like a workload segment.
//!
//! Every row is a batch of a few milliseconds run [`BATCHES`] times between
//! reference runs; the figure is the median batch, the allocation count is
//! exact. A row that drives a `Sim` charges everything one iteration makes
//! the kernel do (the send, its delivery event, the reply), which is what
//! the workload pays per counted unit.

use crate::clock::{cpu_ns, normalise_us, reference_ns};
use crate::spans::Spans;
use crate::stats::median;
use crate::workload::campus::{Campus, Spec, QUERY_HIER, REGISTRY_MIXED};
use crate::{alloc, workload::Epoch};
use lc_core::cohesion::CohesionConfig;
use lc_core::node::{AdmissionConfig, NodeCmd, QueryResult};
use lc_core::scale::{run_scale, ScaleConfig, Variant};
use lc_core::testkit::{build_world, World};
use lc_core::{
    demo, BehaviorRegistry, ComponentQuery, ComponentRegistry, ComponentRepository, NodeConfig,
    ShardRing, ShardRingConfig,
};
use lc_des::{Actor, ActorId, AnyMsg, Ctx, ProfilerConfig, Sim, SimTime};
use lc_net::{FaultPlan, HostId, LinkFaults, Net, NetMsg, Topology};
use lc_orb::{Decoder, Encoder, Invocation, LocalOrb, Orb, OrbError, Servant, SimOrbClient, Value};
use lc_pkg::{ComponentDescriptor, Package, Platform, SigningKey, Version};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;

const BATCHES: usize = 5;

/// One ledger row: `(name, value, unit)`.
pub type Row = (&'static str, f64, &'static str);

struct Unit {
    /// Normalised nanoseconds per iteration, median batch.
    ns: f64,
    /// Heap allocations per iteration (exact).
    allocs: f64,
}

/// Time `batch` (which returns how many iterations it ran).
fn measure(spans: &mut Spans, name: &str, mut batch: impl FnMut() -> u64) -> Unit {
    let span = spans.begin(&format!("micro.{name}"));
    batch(); // warm caches and lazily built state
    let mut before = reference_ns();
    let mut samples = Vec::with_capacity(BATCHES);
    let mut allocs = 0.0;
    for _ in 0..BATCHES {
        let (a0, _) = alloc::snapshot();
        let t0 = cpu_ns();
        let n = batch().max(1);
        let cpu = (cpu_ns() - t0) as f64;
        let (a1, _) = alloc::snapshot();
        let after = reference_ns();
        samples.push(normalise_us(cpu, before, after) * 1e3 / n as f64);
        allocs = (a1 - a0) as f64 / n as f64;
        before = after;
    }
    spans.end(span);
    Unit {
        ns: median(&samples),
        allocs,
    }
}

// ---- des ----------------------------------------------------------------

struct Tick;

/// Two actors bouncing one event; `packed` selects the zero-alloc lane.
struct PingPong {
    peer: ActorId,
    left: u64,
    packed: bool,
}

impl PingPong {
    fn bounce(&mut self, ctx: &mut Ctx<'_>) {
        if self.left > 0 {
            self.left -= 1;
            if self.packed {
                ctx.send_packed(SimTime::from_nanos(100), self.peer, 7);
            } else {
                ctx.send_in(SimTime::from_nanos(100), self.peer, Tick);
            }
        }
    }
}

impl Actor for PingPong {
    fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: AnyMsg) {
        self.bounce(ctx);
    }
    fn handle_packed(&mut self, ctx: &mut Ctx<'_>, _data: u64) {
        self.bounce(ctx);
    }
}

fn ping_pong(events: u64, packed: bool, profiled: bool) -> u64 {
    let mut sim = Sim::new(1);
    if profiled {
        sim.enable_profiler(ProfilerConfig::default());
    }
    let a = sim.spawn(PingPong {
        peer: ActorId(1),
        left: events / 2,
        packed,
    });
    let b = sim.spawn(PingPong {
        peer: a,
        left: events / 2,
        packed,
    });
    if packed {
        sim.send_packed(SimTime::ZERO, b, 7);
    } else {
        sim.send_in(SimTime::ZERO, b, Tick);
    }
    sim.run();
    black_box(sim.events_fired())
}

// ---- net ----------------------------------------------------------------

struct Sink;
impl Actor for Sink {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: AnyMsg) {
        let _ = msg.downcast::<NetMsg>();
    }
}

struct Sender {
    net: Net,
    left: u64,
    traced: bool,
}
impl Actor for Sender {
    fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: AnyMsg) {
        if self.left > 0 {
            self.left -= 1;
            if self.traced {
                // A send is recorded only inside a traced operation.
                let tracer = self.net.tracer();
                let root = tracer.span(0, "micro.send", ctx.now());
                tracer.set_current(root);
            }
            let _ = self.net.send(ctx, HostId(0), HostId(1), 256, ());
            ctx.timer_in(SimTime::from_micros(1), Tick);
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Fabric {
    Plain,
    Faulted,
    Traced,
}

/// `msgs` sends over a two-host LAN; one iteration is the send, its
/// delivery event and the sender's own timer event.
fn net_sends(msgs: u64, fabric: Fabric) -> u64 {
    let builder = Net::builder(Topology::lan(2));
    let net = match fabric {
        Fabric::Plain => builder.build(),
        Fabric::Faulted => builder
            .fault_plan(
                FaultPlan::seeded(1).default_link(
                    LinkFaults::none()
                        .dup_p(0.005)
                        .jitter(SimTime::from_millis(2)),
                ),
            )
            .build(),
        Fabric::Traced => builder.tracer(lc_trace::Tracer::new()).build(),
    };
    let mut sim = Sim::new(1);
    let sink = sim.spawn(Sink);
    net.bind(HostId(1), sink);
    let sender = sim.spawn(Sender {
        net: net.clone(),
        left: msgs,
        traced: fabric == Fabric::Traced,
    });
    net.bind(HostId(0), sender);
    sim.send_in(SimTime::ZERO, sender, Tick);
    sim.run();
    black_box(sim.events_fired());
    msgs
}

// ---- orb ----------------------------------------------------------------

struct BenchImpl {
    total: i64,
}

impl Servant for BenchImpl {
    fn interface_id(&self) -> &str {
        "IDL:Bench:1.0"
    }
    fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
        match inv.op {
            "bump" => {
                let d = inv.args[0]
                    .as_long()
                    .ok_or_else(|| OrbError::BadParam("long".into()))?;
                self.total += i64::from(d);
                inv.set_ret(Value::Long(self.total as i32));
                Ok(())
            }
            op => Err(OrbError::BadOperation(op.into())),
        }
    }
}

const BENCH_IDL: &str = "interface Bench { long bump(in long d); };";

// ---- node ---------------------------------------------------------------

/// An 8-host LAN whose soft-state timers never fire inside a batch, with a
/// Counter instance on host 1.
fn quiet_world(admission: Option<AdmissionConfig>) -> (World, lc_orb::ObjectRef) {
    let behaviors = BehaviorRegistry::new();
    demo::register_demo_behaviors(&behaviors);
    let config = NodeConfig {
        cohesion: CohesionConfig {
            fanout: 8,
            replicas: 2,
            report_period: SimTime::from_secs(3600),
            timeout_intervals: 3,
        },
        admission,
        ..NodeConfig::default()
    };
    let mut w = build_world(
        Topology::lan(8),
        1,
        config,
        behaviors,
        demo::demo_trust(),
        Arc::new(demo::demo_idl()),
        |h| {
            if h == HostId(1) {
                vec![demo::counter_package()]
            } else {
                Vec::new()
            }
        },
    );
    let sink = Rc::new(RefCell::new(None));
    w.cmd(
        HostId(1),
        NodeCmd::SpawnLocal {
            component: "Counter".into(),
            min_version: Version::new(1, 0),
            instance_name: None,
            sink: sink.clone(),
        },
    );
    w.sim.run_until(SimTime::from_secs(1));
    let target = match sink.borrow().clone() {
        Some(Ok(r)) => r,
        other => panic!("micro: counter spawn failed: {other:?}"),
    };
    (w, target)
}

fn local_queries(w: &mut World, n: u64) -> u64 {
    for _ in 0..n {
        let sink: Rc<RefCell<QueryResult>> = Rc::default();
        w.cmd(
            HostId(1),
            NodeCmd::Query {
                query: ComponentQuery::by_name("Counter", Version::new(1, 0)),
                sink: sink.clone(),
                first_wins: true,
            },
        );
        let now = w.sim.now();
        w.sim.run_until(now);
        assert!(
            sink.borrow().done,
            "a query the origin can answer finishes at once"
        );
    }
    n
}

fn local_invokes(w: &mut World, target: &lc_orb::ObjectRef, n: u64) -> u64 {
    for _ in 0..n {
        let sink = Rc::new(RefCell::new(Vec::new()));
        w.cmd(
            HostId(1),
            NodeCmd::Invoke {
                target: target.clone(),
                op: "inc".into(),
                args: vec![Value::Long(1)],
                oneway: false,
                sink: Some(sink.clone()),
            },
        );
        let until = w.sim.now() + SimTime::from_millis(1);
        w.sim.run_until(until);
        assert!(
            matches!(sink.borrow().first(), Some((_, Ok(_)))),
            "local invoke must reply"
        );
    }
    n
}

/// What one node costs per report period when no op is in flight.
#[derive(Clone, Copy, Default)]
pub struct Idle {
    /// Normalised microseconds.
    pub us: f64,
    pub events: f64,
    pub msgs: f64,
}

/// Advance a converged 1 024-node campus by report periods with no ops.
fn idle_campus(spans: &mut Spans, name: &str, spec: &'static Spec) -> Idle {
    let mut off = Spans::new(false);
    let mut campus = Campus::build(spec, 1, 1, &mut off);
    let before = campus.counters();
    let mut periods = 0.0;
    let u = measure(spans, name, || {
        campus.idle_period();
        periods += 1.0;
        1
    });
    let after = campus.counters();
    let per_node_period = |key: &str| (after[key] - before[key]) as f64 / periods / 1024.0;
    Idle {
        us: u.ns / 1e3 / 1024.0,
        events: per_node_period("des.events"),
        msgs: per_node_period("net.msgs"),
    }
}

/// The idle figures the sum-of-layers model needs beside the rows.
#[derive(Clone, Copy, Default)]
pub struct Background {
    pub single_leader: Idle,
    pub sharded: Idle,
}

// ---- pkg / xml ----------------------------------------------------------

fn code_payload(size: usize) -> Vec<u8> {
    (0..size)
        .map(|i| match i % 16 {
            0..=7 => 0x90,
            8..=11 => (i / 64) as u8,
            _ => 0xCC,
        })
        .collect()
}

fn mib_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / f64::from(1u32 << 20) / (ns / 1e9)
}

/// Every unit-cost row, in ledger order.
pub fn run_all(spans: &mut Spans) -> (Vec<Row>, Background) {
    let mut rows: Vec<Row> = Vec::new();
    let mut background = Background::default();
    let mut push = |name: &'static str, unit: &'static str, value: f64| {
        rows.push((name, value, unit));
    };

    // des: one event through the boxed lane, the packed lane, and the
    // boxed lane with the virtual-time profiler attached.
    let u = measure(spans, "des.event", || ping_pong(20_000, false, false));
    push("des.event_ns", "ns", u.ns);
    push("des.event_allocs", "count", u.allocs);
    push(
        "des.packed_event_ns",
        "ns",
        measure(spans, "des.packed_event", || ping_pong(40_000, true, false)).ns,
    );
    push(
        "des.profiled_event_ns",
        "ns",
        measure(spans, "des.profiled_event", || {
            ping_pong(20_000, false, true)
        })
        .ns,
    );

    // net: one `Net::send` with its delivery and the sender's timer event.
    let u = measure(spans, "net.send", || net_sends(5_000, Fabric::Plain));
    push("net.send_ns", "ns", u.ns);
    push("net.send_allocs", "count", u.allocs);
    push(
        "net.send_faulted_ns",
        "ns",
        measure(spans, "net.send_faulted", || {
            net_sends(5_000, Fabric::Faulted)
        })
        .ns,
    );
    push(
        "net.send_traced_ns",
        "ns",
        measure(spans, "net.send_traced", || {
            net_sends(3_000, Fabric::Traced)
        })
        .ns,
    );

    // orb: a direct servant call against the typed, marshalled and
    // simulated-network invocation paths.
    let repo = Arc::new(lc_idl::compile(BENCH_IDL).expect("bench IDL compiles"));
    let mut raw = BenchImpl { total: 0 };
    let u = measure(spans, "orb.direct_dispatch", || {
        for _ in 0..100_000 {
            let args = [Value::Long(1)];
            let mut inv = Invocation::new("bump", &args);
            let _ = raw.dispatch(black_box(&mut inv));
        }
        100_000
    });
    push("orb.direct_dispatch_ns", "ns", u.ns);
    let orb = LocalOrb::new(repo.clone());
    let obj = orb.activate(Box::new(BenchImpl { total: 0 }));
    let u = measure(spans, "orb.local_typed", || {
        for _ in 0..20_000 {
            let _ = black_box(orb.invoke(black_box(&obj), "bump", &[Value::Long(1)]));
        }
        20_000
    });
    push("orb.local_typed_ns", "ns", u.ns);
    push("orb.local_allocs", "count", u.allocs);
    let u = measure(spans, "orb.local_marshalled", || {
        for _ in 0..10_000 {
            let _ = black_box(orb.invoke_marshalled(black_box(&obj), "bump", &[Value::Long(1)]));
        }
        10_000
    });
    push("orb.local_marshalled_ns", "ns", u.ns);
    let frame = [Value::Long(7), Value::string("frame")];
    let u = measure(spans, "orb.cdr_encode", || {
        for _ in 0..50_000 {
            let mut enc = Encoder::new();
            for v in &frame {
                enc.value(black_box(v));
            }
            black_box(enc.into_bytes());
        }
        50_000
    });
    push("orb.cdr_encode_ns", "ns", u.ns);
    let mut enc = Encoder::new();
    for v in &frame {
        enc.value(v);
    }
    let bytes = enc.into_bytes();
    let types = [
        lc_idl::types::ResolvedType::Long { unsigned: false },
        lc_idl::types::ResolvedType::String,
    ];
    let u = measure(spans, "orb.cdr_decode", || {
        for _ in 0..50_000 {
            let mut dec = Decoder::new(black_box(&bytes), &repo);
            for t in &types {
                let _ = black_box(dec.value(t));
            }
        }
        50_000
    });
    push("orb.cdr_decode_ns", "ns", u.ns);
    let sim_orb = SimOrbClient::new(repo.clone());
    let sim_obj = sim_orb.activate(Box::new(BenchImpl { total: 0 }));
    let u = measure(spans, "orb.sim_roundtrip", || {
        for _ in 0..3_000 {
            let _ = black_box(Orb::invoke(&sim_orb, &sim_obj, "bump", &[Value::Long(1)]));
        }
        3_000
    });
    push("orb.sim_roundtrip_ns", "ns", u.ns);

    // node: a command through the router into a service and back.
    let (mut w, target) = quiet_world(None);
    push(
        "node.local_query_ns",
        "ns",
        measure(spans, "node.local_query", || local_queries(&mut w, 2_000)).ns,
    );
    push(
        "node.local_invoke_ns",
        "ns",
        measure(spans, "node.local_invoke", || {
            local_invokes(&mut w, &target, 2_000)
        })
        .ns,
    );
    drop(w);
    let (mut w, target) = quiet_world(Some(AdmissionConfig::default()));
    push(
        "node.local_invoke_admit_ns",
        "ns",
        measure(spans, "node.local_invoke_admit", || {
            local_invokes(&mut w, &target, 2_000)
        })
        .ns,
    );
    drop(w);
    background.single_leader = idle_campus(spans, "node.idle", &QUERY_HIER);
    push(
        "node.idle_us_per_node_period",
        "us",
        background.single_leader.us,
    );

    // registry: the local half of a query, and the shard ring.
    let behaviors = BehaviorRegistry::new();
    demo::register_demo_behaviors(&behaviors);
    let mut repository = ComponentRepository::new();
    repository
        .install(
            &demo::counter_package(),
            &Platform::reference(),
            &demo::demo_trust(),
            &behaviors,
            false,
        )
        .expect("the demo counter installs");
    let registry = ComponentRegistry::new();
    let idl = demo::demo_idl();
    let query = ComponentQuery::by_name("Counter", Version::new(1, 0));
    let u = measure(spans, "registry.local_query", || {
        for _ in 0..20_000 {
            black_box(registry.local_offers(HostId(1), &repository, black_box(&query), &idl, 0.1));
        }
        20_000
    });
    push("registry.local_query_ns", "ns", u.ns);
    let hosts: Vec<HostId> = (0..1024).map(HostId).collect();
    let ring_cfg = ShardRingConfig {
        shards: 8,
        replicas: 2,
        vnodes: 8,
    };
    let u = measure(spans, "registry.ring_build", || {
        for _ in 0..4 {
            black_box(ShardRing::build(black_box(&hosts), &ring_cfg));
        }
        4
    });
    push("registry.ring_build_us", "us", u.ns / 1e3);
    let ring = ShardRing::build(&hosts, &ring_cfg);
    let u = measure(spans, "registry.ring_next_hop", || {
        let mut acc = 0u32;
        for i in 0..200_000u32 {
            acc = acc.wrapping_add(ring.next_hop(black_box(i % 8), black_box((i / 8) % 8)));
        }
        black_box(acc);
        200_000
    });
    push("registry.ring_next_hop_ns", "ns", u.ns);
    background.sharded = idle_campus(spans, "registry.sharded_idle", &REGISTRY_MIXED);
    push(
        "registry.sharded_idle_us_per_node_period",
        "us",
        background.sharded.us,
    );

    // cache: the result cache the sharded workload reads through.
    let keys: Vec<String> = (0..256).map(|i| format!("Svc{i:03}")).collect();
    let mut cache: lc_cache::QueryCache<String, Vec<u64>> =
        lc_cache::QueryCache::new(SimTime::from_secs(2));
    for k in &keys {
        cache.insert(k.clone(), vec![1, 2, 3], SimTime::ZERO);
    }
    let u = measure(spans, "cache.hit", || {
        for i in 0..100_000usize {
            black_box(
                cache
                    .get(black_box(&keys[i % 256]), SimTime::from_millis(1))
                    .is_some(),
            );
        }
        100_000
    });
    push("cache.hit_ns", "ns", u.ns);
    let u = measure(spans, "cache.miss_insert", || {
        for i in 0..20_000u64 {
            let k = format!("Miss{}", i % 512);
            if cache.get(&k, SimTime::from_secs(10 + i)).is_none() {
                cache.insert(k, vec![1, 2, 3], SimTime::from_secs(10 + i));
            }
        }
        20_000
    });
    push("cache.miss_insert_ns", "ns", u.ns);
    let u = measure(spans, "cache.invalidate", || {
        for i in 0..2_000usize {
            let k = &keys[i % 256];
            black_box(cache.invalidate_matching(|key, _| key == k));
            cache.insert(k.clone(), vec![1, 2, 3], SimTime::ZERO);
        }
        2_000
    });
    push("cache.invalidate_ns", "ns", u.ns);

    // scale: the packed lane and SoA campus at 10^5 nodes.
    let mut bytes_per_node = 0.0;
    let u = measure(spans, "scale.event", || {
        let r = run_scale(ScaleConfig::new(100_000, Variant::Hier), 1);
        bytes_per_node = r.bytes_per_node;
        r.events
    });
    push("scale.event_ns", "ns", u.ns);
    push("scale.bytes_per_node", "B", bytes_per_node);

    // pkg / xml / idl: what set-up and run-time installs pay.
    let key = SigningKey::new("v", b"s");
    let payload = code_payload(16 * 1024);
    let make = || {
        let desc = ComponentDescriptor::new("P", Version::new(1, 0), "v");
        let mut pkg = Package::new(desc).with_binary(Platform::reference(), "x", &payload);
        pkg.seal(&key);
        pkg.to_bytes()
    };
    let u = measure(spans, "pkg.pack", || {
        for _ in 0..8 {
            black_box(make());
        }
        8
    });
    push("pkg.pack_mib_s", "MiB/s", mib_per_s(payload.len(), u.ns));
    let sealed = make();
    let u = measure(spans, "pkg.parse_verify", || {
        for _ in 0..32 {
            let _ = black_box(Package::from_bytes(black_box(&sealed)));
        }
        32
    });
    push(
        "pkg.parse_verify_mib_s",
        "MiB/s",
        mib_per_s(payload.len(), u.ns),
    );
    let desc = ComponentDescriptor::new("Counter", Version::new(1, 0), "demo-vendor")
        .provides("counter", "IDL:demo/Counter:1.0")
        .uses("display", "IDL:demo/Display:1.0");
    let xml = lc_xml::to_string(&desc.to_xml());
    let u = measure(spans, "xml.parse", || {
        for _ in 0..2_000 {
            let _ = black_box(lc_xml::parse(black_box(&xml)));
        }
        2_000
    });
    push("xml.parse_mib_s", "MiB/s", mib_per_s(xml.len(), u.ns));
    let u = measure(spans, "idl.compile", || {
        for _ in 0..200 {
            let _ = black_box(lc_idl::compile(black_box(demo::DEMO_IDL)));
        }
        200
    });
    push("idl.compile_us", "us", u.ns / 1e3);

    // load / trace: the generators and recorders around the simulation.
    let u = measure(spans, "load.arrival", || {
        let stream = lc_load::ArrivalStream::new(lc_load::StreamConfig {
            shape: lc_load::ArrivalShape::Steady,
            rate_per_sec: 4000.0,
            seed: 7,
            horizon: SimTime::MAX,
            users: 1_000_000,
            keys: lc_load::ZipfKeys::new(256, 1.0),
        });
        black_box(stream.take(50_000).map(|a| a.key).sum::<u64>());
        50_000
    });
    push("load.arrival_ns", "ns", u.ns);
    let u = measure(spans, "trace.span", || {
        let tracer = lc_trace::Tracer::new();
        for i in 0..10_000u64 {
            if let Some(s) = tracer.root(0, "op", SimTime::from_nanos(i)) {
                tracer.end(s, SimTime::from_nanos(i + 1));
            }
        }
        black_box(tracer.span_count());
        10_000
    });
    push("trace.span_ns", "ns", u.ns);

    (rows, background)
}
