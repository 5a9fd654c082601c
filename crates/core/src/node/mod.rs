//! The Node: "each host participating must have running a server
//! implementing the Node service" (§2.4.1, Fig. 1).
//!
//! One [`Node`] actor per simulated host *composes* the four services of
//! the paper's Figure 1 — each a separate module of plain handler
//! functions over the shared [`NodeCtx`] runtime context:
//!
//! * [`resource_svc`] — **Resource Manager**: periodic resource reports
//!   (doubling as the cohesion keep-alive), CPU FIFO accounting,
//!   load-balance triggers.
//! * [`registry_svc`] — **Component Registry**: distributed queries over
//!   the MRM hierarchy, offer collection, resolve continuations.
//! * [`acceptor`] — **Component Acceptor**: run-time installation with
//!   signature/platform/behaviour checks, package fetch protocol.
//! * [`cohesion_svc`] — **Network Cohesion**: report/summary absorption,
//!   MRM sweeps, eviction/rejoin.
//! * [`container`] (+ [`assembly_rt`]) — the container runtime: instance
//!   life cycle, dependency resolution hand-off, port connection, event
//!   channels, migration, assembly deployment.
//!
//! The router in this module assigns every input — [`NodeCmd`] driver
//! messages, internal timer ticks, and network traffic ([`lc_net::NetMsg`]
//! carrying the control protocol's messages or [`lc_orb::OrbWire`]) — to
//! exactly one service and counts the activation in [`NodeMetrics`].
//! Pending distributed work lives in one unified continuation table
//! ([`Continuations`]) instead of per-concern maps.

pub mod acceptor;
pub mod assembly_rt;
pub mod cohesion_svc;
pub mod container;
pub mod continuations;
pub mod ctx;
pub mod metrics;
pub mod registry_svc;
pub mod resource_svc;
pub mod service;

pub use continuations::Continuations;
pub use ctx::{Node, NodeCtx};
pub use metrics::{NodeMetrics, ServiceKind, ServiceMetrics};
pub use service::{ServiceReflect, Tick};

use crate::assembly::AssemblyDescriptor;
use crate::behavior::BehaviorRegistry;
use crate::cohesion::{CohesionConfig, HierShape};
use crate::registry::backend::ShardConfig;
use crate::registry::shard::ShardRing;
use crate::deploy::PlacementStrategy;
use crate::proto::CtrlMsg;
use crate::registry::{ComponentQuery, InstanceId, OfferSet};
use lc_des::{Actor, Ctx, Mail, SimTime};
use lc_net::{HostId, Net, NetMsg};
use lc_orb::{Name, ObjectKey, ObjectRef, OrbError, OrbWire, Outcome, SimOrb, Value};
use lc_trace::{TraceContext, Tracer};
use lc_pkg::{TrustStore, Version};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use service::{
    cmd_service, ctrl_service, handle_cmd, handle_ctrl, handle_orb, handle_tick, tick_service,
};

/// Client-side invocation recovery policy: per-request deadlines,
/// exponential backoff with a bounded retry budget, and the matching
/// servant-side duplicate-suppression window. Retries re-send under the
/// *same* request id, so a slow (not lost) original plus its retry still
/// execute the servant exactly once. The backoff between attempts is
/// fixed: 50 ms, doubling per attempt, capped at 1 s.
#[derive(Clone, Debug)]
pub struct InvokePolicy {
    /// Per-attempt reply deadline; `None` disables recovery entirely
    /// (calls wait forever — the pre-fault-fabric behaviour).
    pub deadline: Option<SimTime>,
    /// Re-send budget after the first attempt.
    pub retries: u32,
    /// How long a servant keeps a reply by request id after it has
    /// left, so a duplicated or retried request is answered by it
    /// instead of re-executing the servant. The window opens when the
    /// reply leaves: one still waiting for the CPU is kept until then
    /// whatever the window, and a copy of its request that arrives
    /// meanwhile is answered by it when it leaves. `ZERO`: a reply is
    /// kept only while it waits.
    pub dedup_window: SimTime,
}

impl Default for InvokePolicy {
    fn default() -> Self {
        InvokePolicy { deadline: None, retries: 0, dedup_window: SimTime::ZERO }
    }
}

impl InvokePolicy {
    /// The recovery preset used by the fault-tolerance experiments:
    /// 250 ms deadline, 3 retries, 5 s dedup window.
    pub fn standard() -> Self {
        InvokePolicy {
            deadline: Some(SimTime::from_millis(250)),
            retries: 3,
            dedup_window: SimTime::from_secs(5),
        }
    }
}

/// Server-side overload control (admission queues + load shedding).
///
/// Off by default — a node without an [`AdmissionConfig`] behaves
/// byte-identically to the pre-admission runtime. With one configured,
/// the container refuses ([`lc_orb::OrbError::Overload`]) incoming
/// requests whose queue delay at the CPU FIFO would already exceed the
/// configured backlog cap (or, deadline-aware, the caller's
/// [`InvokePolicy`] deadline: work that cannot possibly reply in time
/// is refused instead of executed late), and the Component Registry
/// bounds its pending-query table by shedding the *oldest* pending
/// query — under sustained overload the oldest callers are the ones
/// whose deadlines are nearest, so adaptive-LIFO service keeps the
/// newest arrivals inside their budget. A shed request is never also
/// executed: the shed verdict is cached in the servant's dedup window,
/// so retries of a shed request are answered `Overload` from cache.
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Pending distributed queries kept per node; starting a search
    /// beyond this sheds the oldest pending query (leader *and*
    /// coalesced followers complete immediately with
    /// [`QueryResult::shed`]).
    pub query_queue_cap: usize,
    /// CPU-FIFO backlog above which incoming requests are shed.
    pub cpu_backlog_cap: SimTime,
    /// Also shed any request whose queue delay alone already exceeds
    /// the node's [`InvokePolicy::deadline`] — the reply would arrive
    /// after the caller stopped listening, so executing it is pure
    /// goodput loss.
    pub deadline_aware: bool,
    /// Replicate the saturated component to a lighter-loaded node when
    /// requests are being shed (`None` = shed only, never replicate).
    pub replicate_hot: Option<ReplicateConfig>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            query_queue_cap: 1024,
            cpu_backlog_cap: SimTime::from_millis(150),
            deadline_aware: true,
            replicate_hot: None,
        }
    }
}

/// Hot-component replication policy (§2.4.3: "component instance
/// migration and replication to achieve load balancing") — the
/// *reactive* counterpart to [`NodeConfig::load_balance`]'s periodic check:
/// shedding is the trigger, so replication starts exactly when demand
/// provably exceeds this node's capacity. Its timing and budget are
/// fixed; configuring it switches replication on.
#[derive(Clone, Debug)]
pub struct ReplicateConfig;

impl ReplicateConfig {
    /// Minimum virtual time between replication attempts from this
    /// node (a spawned replica needs time to absorb load before the
    /// next shed justifies another copy).
    pub const COOLDOWN: SimTime = SimTime::from_millis(200);
    /// Replicas this node will start in total (bounds runaway growth
    /// under a flash crowd).
    pub const MAX_REPLICAS: u32 = 1;
}

/// Registry query-result caching and request coalescing (§2.4.2:
/// component metadata is mostly immutable, so "caching can be
/// performed safely"). Off by default — a node without
/// a [`CacheConfig`] behaves byte-identically to the pre-cache runtime.
///
/// The TTL is expressed in *virtual* time, so cached runs stay
/// deterministic: freshness depends only on simulation state, never on
/// the wall clock.
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// How long a cached offer set stays fresh (virtual time). Also the
    /// staleness backstop when an invalidation broadcast is lost.
    pub ttl: SimTime,
    /// Merge identical in-flight queries onto one network search
    /// (singleflight): followers share the leader's offer set.
    pub coalesce: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            ttl: SimTime::from_secs(2),
            coalesce: true,
        }
    }
}

/// Where a node's Component Registry searches go on a cache miss (the
/// shape of its [`crate::registry::backend::Registry`]).
#[derive(Clone, Debug, Default)]
pub enum RegistryConfig {
    /// The hierarchy path: every cache miss funnels through the MRM
    /// leaders, coherence is a best-effort broadcast. Byte-identical to
    /// the pre-backend runtime.
    #[default]
    SingleLeader,
    /// Component inventory consistent-hashed over a shard ring: lookups
    /// go one hop to the owning shard's replicas, which reconcile by
    /// gossip anti-entropy.
    Sharded(ShardConfig),
}

/// Node-level configuration. Construct via [`NodeConfig::builder`] (the
/// typed path) or a struct literal over [`Default`].
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Cohesion protocol parameters.
    pub cohesion: CohesionConfig,
    /// How long a query collects offers before it is finalized.
    pub query_timeout: SimTime,
    /// Security policy: refuse unsigned packages.
    pub require_signature: bool,
    /// Automatic load balancing (§2.4.3): a node at or above
    /// [`resource_svc::OVERLOAD_THRESHOLD`] sheds its heaviest mobile
    /// instance. Off by default; experiments and deployments opt in.
    pub load_balance: bool,
    /// Invocation recovery policy (off by default).
    pub invoke: InvokePolicy,
    /// How many times a query that expires with *zero* offers is
    /// re-issued before being finalized empty (graceful degradation
    /// under loss; 0 = finalize on first timeout).
    pub query_retries: u32,
    /// Registry query cache / coalescing (off by default).
    pub cache: Option<CacheConfig>,
    /// Registry backend selection (single-leader by default).
    pub registry: RegistryConfig,
    /// SLO monitoring: windowed latency/burn-rate rules evaluated on a
    /// virtual-time cadence; breaches dump the flight recorder. `None`
    /// (default) means no monitor, no timer and no samples kept.
    pub slo: Option<lc_trace::SloConfig>,
    /// Server-side overload control: bounded admission queues, deadline-
    /// aware load shedding and hot-component replication (off by
    /// default).
    pub admission: Option<AdmissionConfig>,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            cohesion: CohesionConfig::default(),
            query_timeout: SimTime::from_millis(500),
            require_signature: false,
            load_balance: false,
            invoke: InvokePolicy::default(),
            query_retries: 0,
            cache: None,
            registry: RegistryConfig::default(),
            slo: None,
            admission: None,
        }
    }
}

impl NodeConfig {
    /// Start a typed configuration chain (mirrors `Net::builder(topo)`).
    pub fn builder() -> NodeConfigBuilder {
        NodeConfigBuilder { cfg: NodeConfig::default() }
    }
}

/// Typed construction chain for [`NodeConfig`]: each step replaces one
/// configuration axis, `build()` yields the finished value.
///
/// ```
/// # use lc_core::node::{NodeConfig, CacheConfig, RegistryConfig};
/// let cfg = NodeConfig::builder()
///     .cache(CacheConfig::default())
///     .registry(RegistryConfig::SingleLeader)
///     .query_retries(2)
///     .build();
/// assert!(cfg.cache.is_some());
/// ```
#[derive(Clone, Debug, Default)]
pub struct NodeConfigBuilder {
    cfg: NodeConfig,
}

impl NodeConfigBuilder {
    /// Cohesion protocol parameters.
    pub fn cohesion(mut self, cohesion: CohesionConfig) -> Self {
        self.cfg.cohesion = cohesion;
        self
    }

    /// Query offer-collection deadline.
    pub fn query_timeout(mut self, timeout: SimTime) -> Self {
        self.cfg.query_timeout = timeout;
        self
    }

    /// Zero-offer re-issue budget.
    pub fn query_retries(mut self, retries: u32) -> Self {
        self.cfg.query_retries = retries;
        self
    }

    /// Enable the registry cache / coalescing stack.
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.cfg.cache = Some(cache);
        self
    }

    /// Select the registry backend.
    pub fn registry(mut self, registry: RegistryConfig) -> Self {
        self.cfg.registry = registry;
        self
    }

    /// Finish the chain.
    pub fn build(self) -> NodeConfig {
        self.cfg
    }
}

/// Where a driver observes query progress.
#[derive(Debug, Default)]
pub struct QueryResult {
    /// Offers collected so far (deduplicated by (node, component,
    /// version)): the search's offer set, shared.
    pub offers: OfferSet,
    /// Query finalized (timeout, done message, or first-offer short-circuit).
    pub done: bool,
    /// When the query started.
    pub started: SimTime,
    /// When the first offer arrived.
    pub first_offer_at: Option<SimTime>,
    /// When the query was finalized.
    pub done_at: Option<SimTime>,
    /// The query timed out before the search completed: `offers` is a
    /// partial view, served instead of hanging (graceful degradation).
    pub partial: bool,
    /// The query was shed by admission control before the search
    /// completed (bounded query queue): `offers` holds whatever had
    /// been collected, and the caller should treat the result as an
    /// overload refusal, not a miss.
    pub shed: bool,
}

/// Shared handle the driver polls for query results.
pub type QuerySink = Rc<RefCell<QueryResult>>;

/// Shared handle for spawn and migration results: the new instance's
/// reference, or why there is none.
pub type SpawnSink = Rc<RefCell<Option<Result<ObjectRef, String>>>>;

/// Shared handle for invocation replies: `(reply time, outcome)` per call.
pub type InvokeSink = Rc<RefCell<Vec<(SimTime, Result<Outcome, OrbError>)>>>;

/// Shared handle for assembly deployment: instance name → reference.
pub type AssemblySink = Rc<RefCell<BTreeMap<String, Result<ObjectRef, String>>>>;

/// Commands from the local driver (application shell, experiments).
pub enum NodeCmd {
    /// Install a package from container bytes (local Component Acceptor).
    Install(Rc<Vec<u8>>),
    /// Issue a distributed component query.
    Query {
        /// The query.
        query: ComponentQuery,
        /// Result sink.
        sink: QuerySink,
        /// Finalize as soon as the first offers arrive.
        first_wins: bool,
    },
    /// Create a local instance of an installed component.
    SpawnLocal {
        /// Component name.
        component: String,
        /// Minimum version.
        min_version: Version,
        /// Optional instance name.
        instance_name: Option<String>,
        /// Result sink.
        sink: SpawnSink,
    },
    /// Resolve a `uses` port of a local instance through the network:
    /// query → choose (connect/spawn/fetch) → connect. Boxed: the rarest
    /// command is the largest, and every command waits by value.
    Resolve(Box<ResolveCmd>),
    /// Subscribe a consumer to a producer's event-source port.
    Subscribe {
        /// Producer instance.
        producer: ObjectKey,
        /// Producer's emits port.
        port: String,
        /// Consumer instance.
        consumer: ObjectKey,
        /// Delivery operation on the consumer servant.
        delivery_op: String,
    },
    /// Invoke an operation on any object from this node (driver traffic).
    Invoke {
        /// Target object.
        target: ObjectRef,
        /// Operation: shared, so a driver re-sending one name copies no
        /// text.
        op: Name,
        /// Arguments.
        args: Vec<Value>,
        /// Fire-and-forget?
        oneway: bool,
        /// Reply sink (ignored for oneway).
        sink: Option<InvokeSink>,
    },
    /// Migrate a local instance to another node.
    Migrate {
        /// Instance to move.
        instance: InstanceId,
        /// Destination host.
        to: HostId,
        /// Result sink.
        sink: Option<SpawnSink>,
    },
    /// Modify a running instance's reflected ports (§2.4.2: "CORBA-LC
    /// offers operations which allow modifying the set of ports a
    /// component exposes"). The change is immediately visible to
    /// queries and visual builders through the Component Registry.
    ModifyPorts {
        /// The instance to modify.
        instance: InstanceId,
        /// Provided ports to add: `(port name, interface id)`.
        add_provides: Vec<(String, String)>,
        /// Provided ports to remove by name.
        remove_provides: Vec<String>,
    },
    /// Deploy an application (assembly) with run-time placement.
    ///
    /// The placement view comes from this node's level-0 MRM duty soft
    /// state, so the command should be sent to a node that is a leaf
    /// MRM (any node can be configured as one).
    StartAssembly {
        /// The application descriptor.
        assembly: AssemblyDescriptor,
        /// Placement strategy (CORBA-LC vs static baseline).
        strategy: PlacementStrategy,
        /// Per-instance results.
        sink: AssemblySink,
    },
}

/// What [`NodeCmd::Resolve`] carries.
pub struct ResolveCmd {
    /// The dependent instance.
    pub instance: InstanceId,
    /// Its `uses` port to satisfy.
    pub port: String,
    /// The query finding providers.
    pub query: ComponentQuery,
    /// Bytes the connection is expected to carry over its lifetime: the
    /// planner fetches the provider when moving its package over this
    /// node's downlink costs less than carrying this remotely (§2.4.3).
    pub expected_traffic: u64,
    /// Optional sink receiving the provider reference.
    pub sink: Option<SpawnSink>,
}

impl NodeCmd {
    /// Every command's stable name, in name order: the per-command
    /// counters in [`NodeMetrics`] are indexed alike.
    pub(crate) const NAMES: [&'static str; 9] = [
        "Install", "Invoke", "Migrate", "ModifyPorts", "Query", "Resolve", "SpawnLocal",
        "StartAssembly", "Subscribe",
    ];

    /// This command's index into [`NodeCmd::NAMES`].
    pub(crate) fn index(&self) -> usize {
        match self {
            NodeCmd::Install(_) => 0,
            NodeCmd::Invoke { .. } => 1,
            NodeCmd::Migrate { .. } => 2,
            NodeCmd::ModifyPorts { .. } => 3,
            NodeCmd::Query { .. } => 4,
            NodeCmd::Resolve(_) => 5,
            NodeCmd::SpawnLocal { .. } => 6,
            NodeCmd::StartAssembly { .. } => 7,
            NodeCmd::Subscribe { .. } => 8,
        }
    }

    /// Stable command name, as the per-command counters in
    /// [`NodeMetrics`] report it.
    pub fn name(&self) -> &'static str {
        Self::NAMES[self.index()]
    }
}

/// What a node must know of a component domain before it can install
/// and run the domain's packages: the behaviours their binaries name,
/// the vendors whose signatures it accepts and the IDL their ports
/// speak. `demo::catalog()`, `lc_cscw::catalog()` and
/// `lc_grid::catalog()` are the three domains.
#[derive(Clone)]
pub struct Catalog {
    /// Loadable behaviours (the DLL substitute).
    pub behaviors: BehaviorRegistry,
    /// Trusted vendors.
    pub trust: TrustStore,
    /// Interface repository.
    pub idl: Arc<lc_idl::Repository>,
}

/// What every node of one world shares: built once per world by
/// [`WorldRecord::new`] (the only way to build one, so its tree and ring
/// always match its config and fabric), never rebuilt, and held by
/// reference by every node the world boots or respawns.
#[non_exhaustive]
pub struct WorldRecord {
    /// Every node's configuration.
    pub config: NodeConfig,
    /// The component domain every node knows (its base IDL is where a
    /// node's own interface repository starts).
    pub catalog: Catalog,
    /// The network fabric.
    pub net: Net,
    /// ORB plumbing.
    pub orb: SimOrb,
    /// The MRM tree, `config.cohesion`'s shape over every host of the
    /// fabric.
    pub shape: HierShape,
    /// The shard ring, a pure function of the host list and the ring
    /// shape (`Some` exactly when `config.registry` is
    /// [`RegistryConfig::Sharded`]).
    pub ring: Option<Rc<ShardRing>>,
    /// The fabric's distributed-tracing handle, which every node stamps
    /// its spans through (disabled unless the fabric was built with a
    /// tracer: all no-ops then).
    pub tracer: Tracer,
}

impl WorldRecord {
    /// The record of a world of one node per host of `net`.
    pub fn new(net: Net, config: NodeConfig, catalog: Catalog) -> Rc<Self> {
        let hosts = net.host_ids();
        let shape = config.cohesion.shape(hosts.len());
        let ring = match &config.registry {
            RegistryConfig::SingleLeader => None,
            RegistryConfig::Sharded(sc) => Some(Rc::new(ShardRing::build(&hosts, &sc.ring()))),
        };
        let orb = SimOrb::new(net.clone());
        let tracer = net.tracer();
        Rc::new(WorldRecord { config, catalog, net, orb, shape, ring, tracer })
    }

    /// The sharded registry's parameters, when it is sharded.
    pub(crate) fn shard_config(&self) -> Option<&ShardConfig> {
        match &self.config.registry {
            RegistryConfig::Sharded(sc) => Some(sc),
            RegistryConfig::SingleLeader => None,
        }
    }
}

/// What one host's node is (re)created from beyond its world's record:
/// the packages on its disk. Used for initial bring-up and for
/// respawning after a crash (dynamic state is lost, installed packages
/// persist like files on disk).
pub struct NodeSeed {
    /// The host this node runs on.
    pub host: HostId,
    /// Packages present "on disk" at boot (installed before start).
    pub preinstalled: Vec<Rc<Vec<u8>>>,
}

impl NodeSeed {
    /// Spawn a node actor of `world` from this seed, bind it to the
    /// host, and start its timers. Returns the actor id.
    pub fn spawn(&self, world: &Rc<WorldRecord>, sim: &mut lc_des::Sim) -> lc_des::ActorId {
        let mut node = Node::new(Rc::clone(world), self.host);
        for pkg in &self.preinstalled {
            // Pre-installed packages bypass the network (local media).
            let _ = node.install_bytes(pkg);
        }
        let actor = sim.spawn(node);
        world.net.bind(self.host, actor);
        // Deterministic de-synchronization: stagger the first keep-alive
        // by host id so report storms do not align, within one report
        // period so the last host of a large campus is not late.
        let config = &world.config;
        let stagger = 137_000 * (self.host.0 as u64 + 1);
        let jitter = SimTime::from_nanos(stagger % config.cohesion.report_period.as_nanos());
        let mut arm = |delay: SimTime, tick: Tick| sim.send_packed(delay, actor, tick.pack());
        arm(jitter, Tick::KeepAlive);
        arm(jitter + config.cohesion.report_period / 2, Tick::MrmSweep);
        if config.load_balance {
            arm(jitter + resource_svc::CHECK_PERIOD, Tick::LoadBalance);
        }
        if let RegistryConfig::Sharded(sc) = &config.registry {
            // First maintenance tick publishes the pre-installed
            // inventory (installed before the actor existed, so no
            // runtime was there to publish through) and starts the
            // gossip cadence.
            arm(jitter + sc.gossip_period, Tick::ShardMaintain);
        }
        if let Some(slo) = &config.slo {
            arm(jitter + slo.window, Tick::SloCheck);
        }
        actor
    }
}

impl Node {
    /// Reflect every service's current state, in display order (§2.4.2
    /// reflection).
    pub fn service_reflections(&self) -> Vec<ServiceReflect> {
        ServiceKind::ALL.iter().map(|&k| service::reflect(k, self)).collect()
    }

    /// Run one routed message's handler as service `kind`. When the
    /// frame carried a [`TraceContext`], a handler span opens under it
    /// and becomes the tracer's *current* context for the duration, so
    /// everything the handler sends parents under this hop.
    fn route(
        &mut self,
        ctx: &mut Ctx<'_>,
        kind: ServiceKind,
        parent: Option<TraceContext>,
        handler: impl FnOnce(&mut NodeCtx<'_, '_>),
    ) {
        self.metrics.begin(kind, true);
        // Untraced frames (every frame while tracing is off) open no span.
        let span = parent.and_then(|p| {
            let name = format!("node.{}", kind.name());
            self.world.tracer.child_of(self.host.0, &name, p, ctx.now())
        });
        NodeCtx { state: &mut *self, sim: &mut *ctx }.in_span(span, |n| {
            handler(n);
            if let Some(span) = span {
                n.state.world.tracer.end(span, n.sim.now());
            }
        });
        self.metrics.finish();
    }

    /// Route a timer tick to one service. Ticks are internal work, not
    /// messages: they count as a dispatch but not as a message in.
    fn route_tick(&mut self, ctx: &mut Ctx<'_>, tick: Tick) {
        let kind = tick_service(tick);
        self.metrics.begin(kind, false);
        handle_tick(&mut NodeCtx { state: &mut *self, sim: &mut *ctx }, tick);
        self.metrics.finish();
    }
}

impl Actor for Node {
    /// Driver commands arrive directly; network traffic arrives as a
    /// frame around its protocol payload.
    fn handle_mail(&mut self, ctx: &mut Ctx<'_>, mail: Mail<'_>) {
        let mail = match ctx.open::<NodeCmd>(mail) {
            Ok(cmd) => {
                self.metrics.note_cmd(&cmd);
                let kind = cmd_service(&cmd);
                return self.route(ctx, kind, None, |n| handle_cmd(n, cmd));
            }
            Err(m) => m,
        };
        let mail = match ctx.open::<NetMsg<CtrlMsg>>(mail) {
            Ok(NetMsg { trace, payload: ctrl, .. }) => {
                let kind = ctrl_service(&ctrl);
                return self.route(ctx, kind, trace, |n| handle_ctrl(n, ctrl));
            }
            Err(m) => m,
        };
        // Anything else is an unknown message type: drop.
        if let Ok(NetMsg { trace, payload: wire, .. }) = ctx.open::<NetMsg<OrbWire>>(mail) {
            self.route(ctx, ServiceKind::Container, trace, |n| handle_orb(n, wire));
        }
    }

    /// Timer ticks arrive on the packed lane, as `Tick::pack` words.
    fn handle_packed(&mut self, ctx: &mut Ctx<'_>, data: u64) {
        if let Some(tick) = Tick::unpack(data) {
            self.route_tick(ctx, tick);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::demo;
    use crate::testkit::{fast_config, World};
    use lc_des::SimTime;
    use lc_net::{FaultPlan, HostId, Net, Topology};
    use std::rc::Rc;

    /// Every node of a world reads the one record the world built: the
    /// nodes it booted, the one a crash window's recovery respawned and
    /// the one [`World::recover`] respawned.
    #[test]
    fn every_node_of_a_world_reads_its_one_record() {
        let (scheduled, manual) = (HostId(3), HostId(1));
        let (down, up) = (SimTime::from_secs(1), SimTime::from_secs(2));
        let plan = FaultPlan::seeded(1).crash(scheduled, down, Some(up));
        let net = Net::builder(Topology::lan(6)).fault_plan(plan).build();
        let mut world = World::on(net, 3, fast_config(), demo::catalog(), |_| Vec::new());
        world.run_for(SimTime::from_millis(2500));
        world.crash(manual);
        world.recover(manual);
        for host in [scheduled, manual] {
            assert_ne!(world.net.actor_of(host), world.actors[host.0 as usize], "{host} respawned");
        }
        for host in world.net.host_ids() {
            let node = world.node(host).expect("every host is up");
            assert!(Rc::ptr_eq(&node.world, &world.record), "{host} reads the world's record");
        }
    }

    /// Every command waits by value, in a driver's prepared list and in
    /// the kernel's mail lane, so the largest variant sizes them all:
    /// `Resolve` boxes its body and `Subscribe` carries object keys. It
    /// was 136 bytes while `Resolve` was inline.
    #[test]
    fn a_node_command_is_at_most_88_bytes() {
        assert!(std::mem::size_of::<super::NodeCmd>() <= 88);
    }

    /// What a node holds inline, in the kernel's box for it: every node
    /// of a world pays it. 1 328 bytes while the container runtime's state
    /// and room for an SLO monitor were inline, 1 624 while the node held
    /// its own config and trust store, 712 while it held its own tracer
    /// handle and its shard store a copy of the shard config, 632 while
    /// its registry front held a singleflight table, 600 while its
    /// pending-query table was a tree (a ring's header is 8 bytes wider
    /// than a tree's root), 608 while its registry front held its result
    /// cache inline, 568 while its registry numbered instances with a
    /// counter of its own beside the adapter's object ids.
    #[test]
    fn node_is_560_bytes() {
        assert_eq!(std::mem::size_of::<super::Node>(), 560);
    }

    /// The registry backend, inline in every node: 216 bytes while the
    /// shard store held its host, a copy of the shard config and its
    /// shard list beside its slices, and the front a `coalesce` flag
    /// beside an always-built singleflight table; 152 while the front
    /// held that table beside the cache, naming the searches the node's
    /// pending-query table already names; 120 while the cache was
    /// inline, so every node, cached or not, had room for its tree and
    /// the stale key beside it.
    #[test]
    fn registry_backend_is_80_bytes() {
        assert_eq!(std::mem::size_of::<crate::registry::backend::Registry>(), 80);
    }

    /// The container runtime's state, boxed once by every node that
    /// holds a component or has called, spawned, fetched or migrated:
    /// 488 bytes while migrations waited in a table of their own beside
    /// the spawns, both answered alike; 440 before it kept the request
    /// each instance made for a peer answers, so a duplicate of the
    /// request gets that instance; 464 while CPU-parked replies waited
    /// in a queue of their own beside a reply cache that kept its
    /// deadlines in a FIFO as well as in their sweep timers.
    #[test]
    fn container_is_400_bytes() {
        assert_eq!(std::mem::size_of::<super::container::Container>(), 400);
    }

    /// One slot of a node's pending-query ring (less its key and
    /// deadline): the query is held by value, its names shared, its
    /// offers as a shared set, and a resolve's payload waits behind a
    /// box, so a query and a follower are only as wide as a collect. 176
    /// bytes while the offers were a vector; while the query sat in a
    /// shared box and a resolve inline, the pending query was 176 bytes
    /// too and a follower 80.
    #[test]
    fn pending_query_is_168_bytes() {
        use super::continuations::{PendingQuery, QueryFollower};
        assert_eq!(std::mem::size_of::<PendingQuery>(), 168);
        assert_eq!(std::mem::size_of::<QueryFollower>(), 32);
    }
}
