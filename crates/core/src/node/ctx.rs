//! The node and the per-event context behind its four services.
//!
//! [`Node`] is the node actor and owns everything the services share:
//! the world record, the IDL repository, the Figure-1 data stores
//! (repository / registry / resources), the MRM duty soft state, the
//! pending queries and the per-service metrics, plus the container
//! runtime's state (ORB object adapter, event channels, call, fetch and
//! instance-request continuations, a migration waiting as a spawn does),
//! made at its first install or first use.
//! [`NodeCtx`] pairs a borrow of that state with the simulation context
//! for the current event; every service handler runs against a
//! `&mut NodeCtx`, so cross-service plumbing (control sends, ORB
//! traffic, local delivery) lives here exactly once.

use crate::cohesion::DutyState;
use crate::proto::CtrlMsg;
use crate::registry::backend::{CoherenceRoute, Registry, ShardStore};
use crate::registry::{ComponentQuery, ComponentRegistry};
use crate::repository::ComponentRepository;
use crate::resource::ResourceManager;
use lc_des::{Counter, Ctx, SimTime};
use lc_net::{DropReason, HostId};
use lc_trace::{SloMonitor, TraceContext, Tracer};
use lc_orb::OrbWire;
use std::rc::Rc;
use std::sync::Arc;

use super::container::Container;
use super::continuations::ContTable;
use super::metrics::NodeMetrics;
use super::service::{handle_ctrl, Tick};
use super::WorldRecord;

/// The node actor: the state shared by all node services, which its
/// router dispatches their handlers over (Fig. 1: the node is the
/// *composition* of the four services over one runtime).
pub struct Node {
    /// The host this node serves.
    pub host: HostId,
    /// What this node shares with every node of its world: config,
    /// catalog, fabric, ORB, MRM tree and shard ring. Every seat of
    /// this host and of its peers is a coordinate in the record's tree;
    /// a handler that must hold the record across `&mut self` calls
    /// takes a reference-counted handle, never a copy.
    pub(crate) world: Rc<WorldRecord>,
    /// This node's interface repository: the catalog's base IDL plus
    /// what its installs merged in.
    pub(crate) idl: Arc<lc_idl::Repository>,
    /// The Component Repository (installed packages).
    pub repository: ComponentRepository,
    /// The Resource Manager.
    pub resources: ResourceManager,
    /// The Component Registry (instances + connections).
    pub registry: ComponentRegistry,
    /// One soft-state table per seat this host holds, indexed by level
    /// (a host's seats are contiguous from level 0).
    pub(crate) duty_state: Vec<DutyState>,
    /// Seat routing's candidate buffers, one per nesting level.
    pub(crate) seat_buffers: Vec<Vec<HostId>>,
    /// Pending distributed queries, and the one sequence that numbers
    /// queries and instance requests. An outgoing ORB request takes its
    /// id from the world's `SimOrb::fresh_id` instead: a servant's dedup
    /// window outlives a crash of its caller, and a counter owned by the
    /// node would restart with the respawned node and reuse ids the
    /// window still holds.
    pub(crate) conts: ContTable,
    /// Per-service instrumentation.
    pub(crate) metrics: NodeMetrics,
    /// SLO monitor, present only when [`super::NodeConfig::slo`] is set: fed by
    /// every finished query, evaluated on the `Tick::SloCheck` cadence.
    pub(crate) slo: Option<Box<SloMonitor>>,
    /// The container runtime's state, `None` until this node first
    /// installs a component or calls, spawns, fetches or migrates an
    /// instance (see [`Node::container`]).
    pub(crate) container: Option<Box<Container>>,
    /// CPU FIFO: when the processor frees up (owned by the Resource
    /// Manager's accounting, see `resource_svc::occupy_cpu`).
    pub(crate) cpu_free_at: SimTime,
    /// The resolution substrate behind the Component Registry service:
    /// result cache, singleflight and (when [`super::NodeConfig::registry`] is
    /// sharded) this host's shard store over the world's ring.
    pub(crate) backend: Registry,
}

impl Node {
    /// Build `world`'s node for `host` (no packages installed yet).
    pub fn new(world: Rc<WorldRecord>, host: HostId) -> Self {
        let cfg = &world.config;
        let shard = world.ring.as_ref().map(|ring| ShardStore::new(host, Rc::clone(ring)));
        let backend = Registry::new(cfg.cache.as_ref(), shard);
        let duty_state = world.shape.seats_of(host).map(|_| DutyState::default()).collect();
        let host_cfg = world.net.host_cfg(host);
        let slo = cfg.slo.clone().map(|slo| Box::new(SloMonitor::new(slo)));
        let idl = world.catalog.idl.clone();
        Node {
            host,
            world,
            idl,
            repository: ComponentRepository::new(),
            resources: ResourceManager::from_host_cfg(&host_cfg),
            registry: ComponentRegistry::new(),
            duty_state,
            seat_buffers: Vec::new(),
            conts: ContTable::new(),
            metrics: NodeMetrics::default(),
            slo,
            container: None,
            cpu_free_at: SimTime::ZERO,
            backend,
        }
    }

    /// The soft-state table of this host's MRM seat at `level`, if it
    /// holds one (inspection: what does this MRM currently believe?).
    pub fn seat(&self, level: usize) -> Option<&DutyState> {
        self.duty_state.get(level)
    }

    /// The group at `level` this host's seat there is in.
    pub(crate) fn group_at(&self, level: usize) -> u64 {
        self.world.shape.group_of(level, u64::from(self.host.0))
    }

    /// The per-service instrumentation collected by the router.
    pub fn node_metrics(&self) -> &NodeMetrics {
        &self.metrics
    }

    /// The tracing handle this node stamps spans through (disabled —
    /// all no-ops — unless the fabric was built with a tracer).
    pub fn tracer(&self) -> &Tracer {
        &self.world.tracer
    }

    /// The SLO monitor, when [`super::NodeConfig::slo`] configured one
    /// — breach history (with flight-recorder dumps) lives here.
    pub fn slo_monitor(&self) -> Option<&SloMonitor> {
        self.slo.as_deref()
    }

    /// The resolution substrate behind the Component Registry service:
    /// the result cache and the shard store (cache, coalescing and shard
    /// counts are `Sim::metrics` counters).
    pub fn backend(&self) -> &Registry {
        &self.backend
    }

    /// Current pending-work depth across the unified continuation table.
    pub fn continuation_depth(&self) -> usize {
        self.conts.depth() + self.container.as_ref().map_or(0, |c| c.depth())
    }

    /// Outgoing two-way calls still awaiting their reply or deadline.
    /// Zero on every node once a run has drained.
    pub fn pending_calls(&self) -> usize {
        self.container.as_ref().map_or(0, |c| c.calls.len())
    }

    /// Replies computed but still occupying the CPU, not yet sent. Zero
    /// once a run has drained.
    pub fn parked_replies(&self) -> usize {
        let served = self.container.iter().flat_map(|c| c.served.values());
        served.filter(|(_, to)| to.is_some()).count()
    }

    /// Requests whose reply this node's servants still keep: parked
    /// replies and those sent within the dedup window. Zero once a run
    /// has drained and the window has passed.
    pub fn served_requests(&self) -> usize {
        self.container.as_ref().map_or(0, |c| c.served.len())
    }

    /// Most distributed queries ever pending at once on this node. With
    /// [`super::AdmissionConfig::query_queue_cap`] configured this never
    /// exceeds the cap — the overload property tests pin that bound.
    pub fn query_queue_high_water(&self) -> usize {
        self.conts.queries.high_water()
    }

    /// Peak pending-work depth (sum of per-table high-water marks).
    pub fn continuation_peak_depth(&self) -> usize {
        self.conts.peak_depth() + self.container.as_ref().map_or(0, |c| c.peak_depth())
    }
}

/// The per-kind counter a wire copy of `msg` is tallied under, if any:
/// with the ORB's own counters these partition `net.msgs`.
fn wire_counter(msg: &CtrlMsg) -> Option<Counter> {
    Some(match msg {
        CtrlMsg::Query { .. } | CtrlMsg::Offers { .. } | CtrlMsg::ShardLookup { .. } => {
            Counter::QueryMsgs
        }
        CtrlMsg::Report { .. } => Counter::CohesionReports,
        CtrlMsg::Summary { .. } => Counter::CohesionSummaries,
        CtrlMsg::ShardPublish { .. } => Counter::RegistryPublishMsgs,
        CtrlMsg::GossipDigest { .. } | CtrlMsg::GossipDelta { .. } => Counter::RegistryGossipMsgs,
        CtrlMsg::Fetch { .. }
        | CtrlMsg::Package { .. }
        | CtrlMsg::Install { .. }
        | CtrlMsg::Spawn { .. }
        | CtrlMsg::SpawnDone { .. }
        | CtrlMsg::Subscribe { .. }
        | CtrlMsg::PlacementQuery { .. }
        | CtrlMsg::PlacementTarget { .. }
        | CtrlMsg::CacheInvalidate { .. } => return None,
    })
}

/// A service's view of one simulation event: the node plus the DES
/// context. All cross-cutting plumbing (control sends with local
/// short-circuit, metric-counted ORB traffic, timers) hangs off this.
pub struct NodeCtx<'a, 'b> {
    /// The node the event is for.
    pub state: &'a mut Node,
    /// The simulation context for the current event.
    pub sim: &'a mut Ctx<'b>,
}

impl NodeCtx<'_, '_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Arm a node-internal timer (packed lane: no allocation).
    pub(crate) fn timer_in(&mut self, delay: SimTime, tick: Tick) {
        let me = self.sim.me();
        self.sim.send_packed(delay, me, tick.pack());
    }

    /// Put a control message on the wire — the one place a [`CtrlMsg`] is
    /// sized, counted and handed to the fabric. A message to this host is
    /// handled in place, within the current event (no network, no
    /// accounting; handler time stays with the routed service). A message the
    /// fabric accepts counts as one outgoing message and one of its kind
    /// ([`wire_counter`]); one it refuses (peer down, unbound) counts
    /// nowhere but the fabric's own `net.drop.*`. Returns whether the
    /// message was delivered or accepted.
    pub(crate) fn send_ctrl(&mut self, to: HostId, msg: CtrlMsg) -> bool {
        let host = self.state.host;
        if to == host {
            handle_ctrl(self, msg);
            return true;
        }
        let counter = wire_counter(&msg);
        let sent = self.state.world.net.send(self.sim, host, to, msg.wire_size(), msg).is_ok();
        if sent {
            self.state.metrics.msg_out();
            if let Some(counter) = counter {
                self.sim.metrics().incr(counter);
            }
        }
        sent
    }

    /// The one replica walk: `msg` goes to the first of `replicas` that
    /// is this host or that the fabric can reach right now; every replica
    /// passed over counts one `query.failover`. Returns whether anyone
    /// took it.
    pub(crate) fn send_to_first_reachable(
        &mut self,
        replicas: impl IntoIterator<Item = HostId>,
        msg: CtrlMsg,
    ) -> bool {
        let host = self.state.host;
        for r in replicas {
            if r == host || self.state.world.net.reachable(host, r) {
                return self.send_ctrl(r, msg);
            }
            self.sim.metrics().incr(Counter::QueryFailover);
        }
        false
    }

    /// Best-effort fan-out leg: a copy of `msg` goes to the peer `to` if
    /// the fabric can reach it right now (a skipped peer is no
    /// `net.drop.*`). Never delivers to this host.
    pub(crate) fn send_if_reachable(&mut self, to: HostId, msg: &CtrlMsg) {
        let host = self.state.host;
        if to != host && self.state.world.net.reachable(host, to) {
            self.send_ctrl(to, msg.clone());
        }
    }

    /// One `Tick::SloCheck` evaluation: the monitor reads the window it
    /// was fed since the last one, fires deterministic breaches, and —
    /// the crash-dump path generalized — this node's flight recorder is
    /// captured into each breach record. Re-arms its own timer.
    pub(crate) fn slo_check(&mut self) {
        let now = self.sim.now();
        let Some(mon) = &mut self.state.slo else { return };
        for breach in mon.evaluate(now) {
            self.sim.metrics().incr(Counter::SloBreaches);
            let (flight, _) = self.state.world.tracer.flight_record(self.state.host.0);
            mon.record_breach(breach, flight);
        }
        let window = mon.window();
        self.timer_in(window, Tick::SloCheck);
    }

    /// Drop cached query results that could name `component` (the entry's
    /// query names it, is a no-name interface query, or any cached offer
    /// resolves to it). Counts the round in `cache.invalidations` even
    /// when nothing matched; no-op (and no metrics) when there is no
    /// cache layer.
    pub(crate) fn invalidate_cached(&mut self, component: &str) {
        let Some(dropped) = self.state.backend.invalidate(component) else { return };
        self.sim.metrics().incr(Counter::CacheInvalidations);
        self.sim.metrics().add(Counter::CacheInvalidatedEntries, dropped as u64);
    }

    /// A register/deregister/migrate event changed this node's component
    /// inventory: drop matching local cache entries and run the
    /// registry's coherence route — a best-effort `CacheInvalidate`
    /// broadcast when unsharded, or a targeted publish + invalidate to
    /// the owning shard's replica set when sharded.
    /// No-op (and no traffic) when coherence is disabled, so
    /// cache-disabled runs stay byte-identical.
    pub(crate) fn note_registry_change(&mut self, component: &str) {
        match self.state.backend.coherence_route(component) {
            CoherenceRoute::Disabled => {}
            CoherenceRoute::Broadcast => {
                self.invalidate_cached(component);
                let hosts = (0..self.state.world.net.host_count() as u32).map(HostId);
                self.send_invalidate(component, hosts);
                self.sim.metrics().incr(Counter::CacheInvalidateBcasts);
            }
            CoherenceRoute::Shard { replicas } => {
                self.invalidate_cached(component);
                self.publish_component(component, true, &replicas);
                self.send_invalidate(component, replicas.iter().copied());
                self.sim.metrics().incr(Counter::CacheInvalidateTargeted);
            }
        }
    }

    /// Best-effort `CacheInvalidate` for `component` to each reachable
    /// peer in `to`, in order. One message is built; every receiver's
    /// copy shares its name, the installed component's when it is
    /// installed here.
    fn send_invalidate(&mut self, component: &str, to: impl Iterator<Item = HostId>) {
        let shared = self.state.repository.name(component).cloned();
        let msg = CtrlMsg::CacheInvalidate { component: shared.unwrap_or_else(|| component.into()) };
        for to in to {
            self.send_if_reachable(to, &msg);
        }
    }

    /// Push this node's current offers for `component` to the owning
    /// shard's replica set (self applies locally, no wire traffic).
    /// `bump` advances the publication generation — a real inventory
    /// change. A refresh keeps it, so reordered publishes cannot
    /// resurrect stale offers, and when nothing the offer set is computed
    /// from has changed it re-sends the last publication as it is. The
    /// offer set and the name are built once; the local store, every
    /// message and every receiving replica's entry share them.
    pub(crate) fn publish_component(&mut self, component: &str, bump: bool, replicas: &[HostId]) {
        let now = self.sim.now();
        let from = self.state.host;
        let inputs = self.state.publish_inputs();
        // The installed component's own name; a new one only for a
        // component no longer installed here.
        let by_name = || {
            let name = self.state.repository.name(component).cloned();
            let name = name.unwrap_or_else(|| component.into());
            ComponentQuery { name: Some(name), ..Default::default() }
        };
        let Some(store) = self.state.backend.shard() else { return };
        let last = if bump { None } else { store.republish(component, &inputs) };
        let (component, gen, offers) = match last {
            Some(last) => {
                debug_assert_eq!(
                    *last.2,
                    *self.state.local_offers_for(&by_name()),
                    "a re-sent offer set must equal a recomputation"
                );
                last
            }
            None => {
                let offers = self.state.local_offers_for(&by_name());
                let Some(store) = self.state.backend.shard_mut() else { return };
                store.publish(component, bump, inputs, offers)
            }
        };
        if replicas.contains(&from) {
            if let Some(store) = self.state.backend.shard_mut() {
                store.on_publish(component.clone(), from, gen, now, offers.clone());
            }
        }
        let msg = CtrlMsg::ShardPublish { from, component, gen, at: now, offers };
        for &to in replicas {
            self.send_if_reachable(to, &msg);
        }
    }

    /// Put an ORB message on the wire — [`NodeCtx::send_ctrl`]'s twin for
    /// [`OrbWire`]: sized and counted under its kind by [`lc_orb::SimOrb::send`],
    /// and one outgoing message of this node when the fabric accepts it.
    pub(crate) fn send_orb(&mut self, to: HostId, wire: OrbWire) -> Result<SimTime, DropReason> {
        let sent = self.state.world.orb.send(self.sim, self.state.host, to, wire);
        if sent.is_ok() {
            self.state.metrics.msg_out();
        }
        sent
    }

    /// Run `f` with `span` installed as the tracer's current context —
    /// everything `f` sends or opens parents under it — and restore the
    /// previous context afterwards. Without a span (an untraced path)
    /// `f` just runs.
    pub(crate) fn in_span<R>(
        &mut self,
        span: Option<TraceContext>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let Some(span) = span else { return f(self) };
        let prev = self.state.world.tracer.set_current(Some(span));
        let out = f(self);
        self.state.world.tracer.set_current(prev);
        out
    }
}
