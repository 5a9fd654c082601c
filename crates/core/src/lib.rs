//! # lc-core — CORBA Lightweight Components (CORBA-LC)
//!
//! The paper's primary contribution: a lightweight, distributed,
//! *reflective* component model on CORBA, with a peer/network-centered
//! deployment model in which "the whole network acts as a repository for
//! managing and assigning the whole set of resources: components, CPU
//! cycles, memory" and "application deployment is automatically and
//! adaptively performed at run-time".
//!
//! Module map (↔ the paper's sections):
//!
//! | module | paper |
//! |---|---|
//! | [`behavior`] | §2.1.1 dynamic loading (DLL substitute) |
//! | [`repository`] | §2.4.1 Component Repository + Acceptor checks |
//! | [`registry`] | §2.4.2 Component Registry, queries, offers |
//! | [`resource`] | §2.4.1/2 Resource Manager |
//! | [`cohesion`] | §2.4.3 hierarchy, soft consistency, MRM replication |
//! | [`proto`] | §2.4.3 the Distributed Registry's wire protocol |
//! | [`deploy`] | §2.4.3/4 offer selection & run-time placement |
//! | [`assembly`] | §2.4.4 applications as components |
//! | [`node`] | §2.4.1 the Node service (Fig. 1) + container (§2.2) |
//! | [`reflect`] | §2.4.2 Reflection Architecture view of a node |
//!
//! The crate runs on the simulated substrates: [`lc_des`] (virtual time),
//! [`lc_net`] (the fabric), [`lc_orb`] (typed invocation), [`lc_pkg`]
//! (packaging), [`lc_idl`]/[`lc_xml`] (descriptors).

pub mod assembly;
pub mod behavior;
pub mod demo;
pub mod cohesion;
pub mod deploy;
pub mod node;
pub mod proto;
pub mod reflect;
pub mod registry;
pub mod repository;
pub mod resource;
pub mod scale;

pub use assembly::{AssemblyConnection, AssemblyDescriptor, AssemblyInstance, ConnectionKind};
pub use behavior::BehaviorRegistry;
pub use cohesion::{CohesionConfig, HierShape};
pub use deploy::{NodeView, PlacementStrategy, ResolveAction};
pub use node::{
    AdmissionConfig, AssemblySink, CacheConfig, Continuations, InvokePolicy, InvokeSink, Node,
    NodeCmd, NodeConfig, NodeConfigBuilder, NodeCtx, NodeMetrics, NodeSeed, QueryResult,
    QuerySink, RegistryConfig, ReplicateConfig, ResolveCmd, ServiceKind, ServiceMetrics,
    ServiceReflect, SpawnSink, Tick, WorldRecord,
};
pub use proto::{DeltaEntry, GroupSummary, QueryId};
pub use registry::backend::{
    CoherenceRoute, Registry, ResolveStep, SearchRoute, ShardConfig, ShardDigest, ShardStore,
};
pub use registry::shard::{ShardRing, ShardRingConfig};
pub use registry::{ComponentQuery, ComponentRegistry, InstanceId, InstanceInfo, Offer, OfferSet};
pub use repository::{Accepted, ComponentRepository, InstallError, Installed};
pub use resource::{ResourceManager, ResourceReport};
pub use scale::{
    run_scale, run_scale_profiled, QueryOutcome, ScaleCampus, ScaleConfig, ScaleReport, Variant,
    KIND_NAMES,
};

/// The scenario vocabulary: a [`testkit::World`] is a simulated
/// CORBA-LC network, a [`testkit::Catalog`] the component domain its
/// nodes know, and `World`'s verbs (`run_for`, `spawn`, `query`,
/// `invoke`, `oneway`) are what tests, examples and experiments script
/// it with.
pub mod testkit {
    use crate::behavior::BehaviorRegistry;
    use crate::cohesion::CohesionConfig;
    use crate::node::{
        InvokeSink, NodeCmd, NodeConfig, NodeSeed, QuerySink, SpawnSink, WorldRecord,
    };
    use crate::registry::ComponentQuery;
    use lc_des::{ActorId, Sim, SimTime};
    use lc_net::{ChurnHooks, HostId, Net, Topology};
    use lc_orb::{ObjectRef, Value};
    use lc_pkg::TrustStore;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;

    pub use crate::node::Catalog;

    /// A fully wired simulated CORBA-LC network.
    pub struct World {
        /// The simulation.
        pub sim: Sim,
        /// The fabric.
        pub net: Net,
        /// What every node of the world shares, built once.
        pub record: Rc<WorldRecord>,
        /// One seed per host (respawn material): [`World::recover`] and
        /// the fabric's crash windows and churn process all respawn
        /// from this one table, so an edit made here reaches each.
        pub seeds: Rc<RefCell<Vec<NodeSeed>>>,
        /// The node actor each host *booted* with. A respawn does not
        /// update it — [`Net::actor_of`] is the live host → actor map,
        /// and everything on `World` goes through that. Kept because the
        /// frozen benchmark crate indexes it (its worlds never crash).
        // frozen .perf surface: goes with ROADMAP 1a
        pub actors: Vec<ActorId>,
    }

    /// Build a world: one node per host of `topo`, common config.
    pub fn build_world(
        topo: Topology,
        seed: u64,
        config: NodeConfig,
        behaviors: BehaviorRegistry,
        trust: TrustStore,
        idl: Arc<lc_idl::Repository>,
        preinstalled: impl Fn(HostId) -> Vec<Rc<Vec<u8>>>,
    ) -> World {
        build_world_on(
            Net::builder(topo).build(),
            seed,
            config,
            behaviors,
            trust,
            idl,
            preinstalled,
        )
    }

    /// Build a world over an already-configured fabric — used by the
    /// fault-tolerance experiments to attach a
    /// [`lc_net::FaultPlan`]/churn via [`Net::builder`] first. Its crash
    /// windows and churn process are armed here: a crash kills the
    /// host's node actor (soft state lost), a recovery spawns a fresh
    /// one from the host's seed.
    pub fn build_world_on(
        net: Net,
        seed: u64,
        config: NodeConfig,
        behaviors: BehaviorRegistry,
        trust: TrustStore,
        idl: Arc<lc_idl::Repository>,
        preinstalled: impl Fn(HostId) -> Vec<Rc<Vec<u8>>>,
    ) -> World {
        let record = WorldRecord::new(net.clone(), config, Catalog { behaviors, trust, idl });
        let mut sim = Sim::new(seed);
        let mut seeds = Vec::new();
        let mut actors = Vec::new();
        for host in net.host_ids() {
            let node_seed = NodeSeed { host, preinstalled: preinstalled(host) };
            actors.push(node_seed.spawn(&record, &mut sim));
            seeds.push(node_seed);
        }
        let seeds = Rc::new(RefCell::new(seeds));
        // Armed after the last spawn, so the nodes' boot timers keep
        // their event sequence numbers whether or not anything crashes.
        net.install_drivers(&mut sim, || {
            let (world, table) = (Rc::clone(&record), Rc::clone(&seeds));
            let net = net.clone();
            ChurnHooks {
                on_crash: Box::new(move |sim, host| sim.kill(net.actor_of(host))),
                on_recover: Box::new(move |sim, host| {
                    table.borrow()[host.0 as usize].spawn(&world, sim);
                }),
            }
        });
        World { sim, net, record, seeds, actors }
    }

    impl World {
        /// One node per host of `net` (a [`Topology`] stands for the
        /// plain fabric over it), each knowing `catalog` and booting
        /// with the packages `preinstalled` names for its host.
        pub fn on(
            net: impl Into<Net>,
            seed: u64,
            config: NodeConfig,
            catalog: Catalog,
            preinstalled: impl Fn(HostId) -> Vec<Rc<Vec<u8>>>,
        ) -> World {
            let Catalog { behaviors, trust, idl } = catalog;
            build_world_on(net.into(), seed, config, behaviors, trust, idl, preinstalled)
        }

        /// Shorthand: a LAN world with default config and no components.
        pub fn lan(n: usize, seed: u64) -> World {
            let empty = Catalog {
                behaviors: BehaviorRegistry::new(),
                trust: TrustStore::new(),
                idl: Arc::new(lc_idl::Repository::default()),
            };
            World::on(Topology::lan(n), seed, NodeConfig::default(), empty, |_| Vec::new())
        }

        /// Advance virtual time by `d`.
        pub fn run_for(&mut self, d: SimTime) {
            let deadline = self.sim.now() + d;
            self.sim.run_until(deadline);
        }

        /// Create an instance of `component` on `host` — at whatever
        /// version the host has installed — run for `wait`, and return
        /// its reference. Panics unless the spawn succeeded within
        /// `wait`; a scenario that expects a refusal sends
        /// [`NodeCmd::SpawnLocal`] itself.
        pub fn spawn(
            &mut self,
            host: HostId,
            component: &str,
            name: Option<&str>,
            wait: SimTime,
        ) -> ObjectRef {
            let installed = self.node(host).and_then(|node| {
                let versions = node.repository.iter().map(|i| &i.descriptor);
                versions.filter(|d| d.name == component).map(|d| d.version).max()
            });
            let Some(min_version) = installed else {
                panic!("spawn {component} on {host}: not installed")
            };
            let sink: SpawnSink = Rc::default();
            self.cmd(
                host,
                NodeCmd::SpawnLocal {
                    component: component.into(),
                    min_version,
                    instance_name: name.map(str::to_owned),
                    sink: sink.clone(),
                },
            );
            self.run_for(wait);
            let result = sink.borrow().clone();
            match result {
                Some(Ok(target)) => target,
                other => panic!("spawn {component} on {host}: {other:?}"),
            }
        }

        /// Start a distributed query at `origin`; the sink fills as
        /// the world runs.
        pub fn query(
            &mut self,
            origin: HostId,
            query: ComponentQuery,
            first_wins: bool,
        ) -> QuerySink {
            let sink: QuerySink = Rc::default();
            self.cmd(origin, NodeCmd::Query { query, sink: sink.clone(), first_wins });
            sink
        }

        /// Two-way invocation of `target.op(args)` issued by `from`'s
        /// node; the sink receives the reply as the world runs.
        pub fn invoke(
            &mut self,
            from: HostId,
            target: &ObjectRef,
            op: &str,
            args: Vec<Value>,
        ) -> InvokeSink {
            let sink: InvokeSink = Rc::default();
            self.cmd(
                from,
                NodeCmd::Invoke {
                    target: target.clone(),
                    op: op.into(),
                    args,
                    oneway: false,
                    sink: Some(sink.clone()),
                },
            );
            sink
        }

        /// Oneway invocation of `target.op(args)` issued by `from`'s node.
        pub fn oneway(&mut self, from: HostId, target: &ObjectRef, op: &str, args: Vec<Value>) {
            let target = target.clone();
            self.cmd(from, NodeCmd::Invoke { target, op: op.into(), args, oneway: true, sink: None });
        }

        /// Crash a host now: fabric down + node actor killed (soft state
        /// lost) — what a scheduled crash window does at its `down_at`.
        pub fn crash(&mut self, host: HostId) {
            self.net.set_host_up(host, false);
            self.sim.kill(self.net.actor_of(host));
        }

        /// Recover a host now: fabric up + fresh node from its seed
        /// (installed packages persist, dynamic state starts empty).
        pub fn recover(&mut self, host: HostId) {
            self.net.set_host_up(host, true);
            self.seeds.borrow()[host.0 as usize].spawn(&self.record, &mut self.sim);
        }

        /// Send a [`NodeCmd`] to a host's node, now.
        pub fn cmd(&mut self, host: HostId, cmd: NodeCmd) {
            self.sim.send_in(SimTime::ZERO, self.net.actor_of(host), cmd);
        }

        /// Borrow a host's node for inspection (`None` while it is down).
        pub fn node(&self, host: HostId) -> Option<&crate::node::Node> {
            self.sim.actor_as::<crate::node::Node>(self.net.actor_of(host))
        }
    }

    /// The worker hosting [`display_campus`]'s `Display` instance (a
    /// workstation: ≈ 5 000 draws/s at 200 µs/draw).
    pub const DISPLAY_WORKER: HostId = HostId(1);
    /// [`display_campus`]'s front-end ingress hosts, two per site.
    pub const DISPLAY_FRONTS: [HostId; 4] = [HostId(2), HostId(3), HostId(5), HostId(6)];

    /// E16's capacity campus, converged: 2 sites × 4 hosts (hosts 0 and
    /// 4 are servers), the demo behaviours, and the 8 KiB `Display`
    /// package on every host but the [`DISPLAY_FRONTS`] — front ends
    /// must discover it over the network (so first-offer latency is
    /// real) while the replica-placement targets can still satisfy a
    /// `Spawn`. One `Display` instance is spawned on [`DISPLAY_WORKER`]
    /// and the world runs for one virtual second. Returns it with the
    /// instance's reference.
    pub fn display_campus(seed: u64, config: NodeConfig) -> (World, ObjectRef) {
        use crate::demo;
        let mut world =
            World::on(Topology::campus(2, 4), seed, config, demo::catalog(), |h| {
                if DISPLAY_FRONTS.contains(&h) {
                    Vec::new()
                } else {
                    vec![demo::display_package_sized(8 * 1024)]
                }
            });
        let target = world.spawn(DISPLAY_WORKER, "Display", None, SimTime::from_secs(1));
        (world, target)
    }

    /// The default node config on [`fast_cohesion`] timers.
    pub fn fast_config() -> NodeConfig {
        NodeConfig { cohesion: fast_cohesion(), ..Default::default() }
    }

    /// The standard cohesion config used by most tests: fast timers so
    /// tests converge in little virtual time.
    pub fn fast_cohesion() -> CohesionConfig {
        CohesionConfig {
            fanout: 8,
            replicas: 2,
            report_period: SimTime::from_millis(200),
            timeout_intervals: 3,
        }
    }
}
