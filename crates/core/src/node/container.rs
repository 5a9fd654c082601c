//! The container runtime (Fig. 1's execution substrate under the four
//! services): instance life cycle, typed ORB dispatch with CPU
//! accounting, port wiring, push event channels, invocation plumbing
//! and migration (state capture/restore, request forwarding).

use crate::proto::CtrlMsg;
use crate::registry::{Connection, InstanceId, InstanceInfo, InstancePort};
use lc_des::{Counter, Series, SimTime};
use lc_net::{DropReason, HostId};
use lc_orb::{
    DispatchEnv, DispatchOpts, DispatchResult, Name, ObjectAdapter, ObjectKey, ObjectRef,
    OrbError, OrbWire, Outcome, RequestId, Value,
};
use lc_pkg::Version;
use std::collections::{BTreeMap, VecDeque};

use super::continuations::{
    CallCont, Continuations, FetchCont, PendingCall, ReplyCache, RetryState, SpawnCont,
};
use super::ctx::{Node, NodeCtx};
use super::metrics::ServiceKind;
use super::service::{item, ServiceReflect, Tick};
use super::{InvokePolicy, InvokeSink, SpawnSink};

/// Backoff before a call's first re-send (`sweep_calls`); doubles per
/// further attempt.
const BACKOFF_BASE: SimTime = SimTime::from_millis(50);
/// Upper bound on any single re-send backoff.
const BACKOFF_CAP: SimTime = SimTime::from_secs(1);

/// The container runtime's state: everything only a node that holds a
/// component, or calls, spawns, fetches or migrates an instance, touches.
/// A node makes it with its first install or on first use
/// ([`Node::container`]); until then (for a node that only reports,
/// routes and searches, most of a campus) it is one empty pointer, and
/// every accessor answers as this state does when empty. What an
/// instance is (component, version, ports) is the registry's; what it
/// reserved and whether it may move is its installed descriptor's.
pub(crate) struct Container {
    /// The servant table every local dispatch goes through.
    pub(crate) adapter: ObjectAdapter,
    /// Open push event channels: (producer oid, emits port) → its
    /// subscribers (consumer servant, delivery operation). The port's
    /// event type is the producer's to declare and the payload's tag to
    /// carry; the channel keeps no copy of it.
    pub(crate) subs: BTreeMap<(u64, String), Vec<(ObjectKey, String)>>,
    /// Requests to migrated-away instances are forwarded here.
    pub(crate) forwards: BTreeMap<u64, ObjectRef>,
    /// Replies computed but still occupying the CPU, in the order their
    /// `Tick::SendReply` timers fire; lost with the node on a crash.
    pub(crate) due_replies: VecDeque<(HostId, RequestId, Result<Outcome, OrbError>)>,
    /// Admitted requests per local oid since boot — which instance is
    /// hot, for replication placement. Maintained only while
    /// [`super::NodeConfig::admission`] configures `replicate_hot`.
    pub(crate) instance_load: BTreeMap<u64, u64>,
    /// When this node last asked for a replica (replication cooldown).
    pub(crate) last_replicate: Option<SimTime>,
    /// Replicas this node has started (bounded by
    /// [`super::ReplicateConfig::MAX_REPLICAS`]).
    pub(crate) replicas_started: u32,
    /// Instances this node waits for on a peer, spawned or migrated
    /// there, awaiting their `SpawnDone`.
    pub(crate) spawns: Continuations<u64, SpawnCont>,
    /// Outgoing ORB requests awaiting replies.
    pub(crate) calls: Continuations<RequestId, PendingCall>,
    /// Package fetches awaiting their `Package` answer, by name.
    pub(crate) fetches: Continuations<String, Vec<FetchCont>>,
    /// Servant-side duplicate suppression: replies already produced, by
    /// request id, remembered for the invoke policy's dedup window so a
    /// retried or fabric-duplicated request re-sends the cached reply
    /// instead of re-executing the servant.
    pub(crate) replies: ReplyCache,
}

impl Container {
    /// The state in `slot`, made there first if it is empty: an empty
    /// adapter for `host`.
    pub(crate) fn made(slot: &mut Option<Box<Container>>, host: HostId) -> &mut Container {
        slot.get_or_insert_with(|| {
            Box::new(Container {
                adapter: ObjectAdapter::new(host),
                subs: BTreeMap::new(),
                forwards: BTreeMap::new(),
                due_replies: VecDeque::new(),
                instance_load: BTreeMap::new(),
                last_replicate: None,
                replicas_started: 0,
                spawns: Continuations::default(),
                calls: Continuations::default(),
                fetches: Continuations::default(),
                replies: ReplyCache::default(),
            })
        })
    }

    /// Pending spawns and migrations, calls and fetches.
    pub(crate) fn depth(&self) -> usize {
        self.spawns.len() + self.calls.len() + self.fetches.len()
    }

    /// Sum of the three tables' high-water marks.
    pub(crate) fn peak_depth(&self) -> usize {
        self.spawns.high_water() + self.calls.high_water() + self.fetches.high_water()
    }
}

impl Node {
    /// The container runtime's state, made here if the node has none yet.
    pub(crate) fn container(&mut self) -> &mut Container {
        Container::made(&mut self.container, self.host)
    }

    /// Run `op` on the local servant at `key`, exposing virtual time
    /// `now` to it, against the node's interface repository as it stands
    /// and under the world's tracer.
    pub(crate) fn dispatch(
        &mut self,
        now: SimTime,
        key: ObjectKey,
        op: &str,
        args: &[Value],
        opts: DispatchOpts,
    ) -> DispatchResult {
        let Node { container, host, idl, world, .. } = self;
        let env = DispatchEnv { repo: idl, now, tracer: Some(&world.tracer) };
        Container::made(container, *host).adapter.invoke(env, key, op, args, opts)
    }

    /// Create a local instance of an installed component, read in place
    /// from the repository.
    pub fn spawn_local(
        &mut self,
        component: &str,
        min_version: Version,
        instance_name: Option<String>,
    ) -> Result<ObjectRef, String> {
        let Node { host, repository, resources, world, registry, container, idl, .. } = self;
        let installed = repository
            .best_match(component, min_version)
            .ok_or_else(|| format!("component '{component}' (≥{min_version}) not installed"))?;
        let desc = &installed.descriptor;
        if !resources.reserve(&desc.qos) {
            return Err(format!("node {host} cannot admit QoS of '{component}'"));
        }
        let Some(servant) = world.catalog.behaviors.instantiate(&installed.behavior_id) else {
            resources.release(&desc.qos);
            return Err(format!("behavior '{}' not loadable", installed.behavior_id));
        };
        let objref = Container::made(container, *host).adapter.activate(idl, servant);
        let id = registry.next_id();
        let port = |p: &lc_pkg::PortDecl| InstancePort {
            name: p.name.clone(),
            type_id: p.interface.clone(),
        };
        let evport = |p: &lc_pkg::EventPortDecl| InstancePort {
            name: p.name.clone(),
            type_id: p.event.clone(),
        };
        registry.add_instance(InstanceInfo {
            id,
            name: instance_name,
            component: installed.name.clone(),
            version: desc.version,
            objref: objref.clone(),
            provides: desc.provides.iter().map(port).collect(),
            uses: desc.uses.iter().map(port).collect(),
            emits: desc.emits.iter().map(evport).collect(),
            consumes: desc.consumes.iter().map(evport).collect(),
        });
        Ok(objref)
    }

    /// Destroy a local instance, releasing the resources its installed
    /// descriptor reserved (an install never changes the descriptor of
    /// an installed `(name, version)`).
    pub fn destroy_instance(&mut self, id: InstanceId) -> bool {
        let Some(info) = self.registry.remove_instance(id) else { return false };
        let oid = info.objref.key.oid;
        let container = self.container();
        container.adapter.deactivate(oid);
        // Drop event channels rooted at this instance.
        container.subs.retain(|(producer, _), _| *producer != oid);
        if let Some(installed) = self.repository.get(&info.component, info.version) {
            self.resources.release(&installed.descriptor.qos);
        }
        true
    }

    /// Downcast a local instance's servant for observation.
    pub fn servant_of<T: std::any::Any>(&self, instance: InstanceId) -> Option<&T> {
        let info = self.registry.instance(instance)?;
        self.container.as_ref()?.adapter.servant_as::<T>(info.objref.key.oid)
    }

    /// Number of open push event channels (producer oid + port pairs).
    pub fn event_channel_count(&self) -> usize {
        self.container.as_ref().map_or(0, |c| c.subs.len())
    }

    /// Total subscribers across all open event channels.
    pub fn subscription_count(&self) -> usize {
        let channels = self.container.iter().flat_map(|c| c.subs.values());
        channels.map(Vec::len).sum()
    }

    /// Where requests to a migrated-away oid are forwarded, if anywhere.
    pub fn forward_target(&self, oid: u64) -> Option<&ObjectRef> {
        self.container.as_ref()?.forwards.get(&oid)
    }

    /// Number of active migration forwarding entries.
    pub fn forward_count(&self) -> usize {
        self.container.as_ref().map_or(0, |c| c.forwards.len())
    }
}

impl NodeCtx<'_, '_> {
    /// Wire a `uses` port: record the connection and hand the provider
    /// reference to the instance via its `_connect_<port>` system op.
    pub(crate) fn connect_port(&mut self, instance: InstanceId, port: &str, provider: ObjectRef) {
        if let Some(info) = self.state.registry.instance(instance) {
            let key = info.objref.key;
            self.state.registry.add_connection(Connection {
                from: instance,
                from_port: port.to_owned(),
                to: provider.clone(),
            });
            self.run_local(key, &format!("_connect_{port}"), &[Value::ObjRef(provider)]);
            self.sim.metrics().incr(Counter::ResolveConnected);
        }
    }

    /// A `uses` port's provider was found, spawned or fetched — or not:
    /// wire the port if there is one, and tell the resolve's sink.
    pub(crate) fn connect_provider(
        &mut self,
        instance: InstanceId,
        port: &str,
        provider: Result<ObjectRef, String>,
        sink: Option<SpawnSink>,
    ) {
        if let Ok(provider) = &provider {
            self.connect_port(instance, port, provider.clone());
        }
        if let Some(s) = sink {
            *s.borrow_mut() = Some(provider);
        }
    }

    /// Issue an outgoing two-way ORB call under the node's invocation
    /// recovery policy. Without a configured deadline this is the legacy
    /// fail-fast path (send once, fail the continuation on a send
    /// error). With a deadline, the call is parked with its re-send
    /// state and swept by [`Tick::CallSweep`]; even a fail-fast send
    /// error parks the call, because the receiver may restart before
    /// the retry budget is spent.
    pub(crate) fn send_call(
        &mut self,
        target: ObjectKey,
        op: Name,
        args: Vec<Value>,
        cont: CallCont,
    ) {
        // One span covers the whole logical call, across every attempt;
        // it ends when the reply lands or the call fails permanently.
        // Untraced calls (every call while tracing is off) build no span
        // name.
        let tracer = &self.state.world.tracer;
        let span = tracer.is_enabled().then(|| format!("container.call {op}")).and_then(|name| {
            let s = tracer.span(self.state.host.0, &name, self.now())?;
            tracer.set_attr(s, "target", target.host.0);
            Some(s)
        });
        let rid = self.state.world.orb.fresh_id();
        self.in_span(span, |ctx| match ctx.state.world.config.invoke.deadline {
            None => match ctx.send_request(rid, target, op, args, false) {
                Ok(_) => {
                    let call = PendingCall { cont, retry: None, span };
                    ctx.state.container().calls.insert(rid, call);
                }
                Err(e) => {
                    ctx.state.world.tracer.end_with(span, ctx.now(), Some("send"));
                    ctx.fail_call(cont, OrbError::from(e));
                }
            },
            Some(deadline) => {
                // The request moves into its frame. Only a policy that
                // can re-send keeps a copy: without a retry budget the
                // sweep's one verdict on this call is `Timeout`.
                let retry = (ctx.state.world.config.invoke.retries > 0).then(|| RetryState {
                    target,
                    op: op.clone(),
                    args: args.clone(),
                    attempts: 1,
                });
                let _ = ctx.send_request(rid, target, op, args, false);
                let due = ctx.now() + deadline;
                ctx.state.container().calls.insert_with_deadline(
                    rid,
                    PendingCall { cont, retry, span },
                    due,
                );
                ctx.timer_in(deadline, Tick::CallSweep);
            }
        });
    }

    /// Send `op(args)` to `target` under request id `id` (a retry
    /// re-sends under the first attempt's id, so the servant can
    /// suppress duplicates); unless `oneway`, the reply comes back to
    /// this host.
    pub(crate) fn send_request(
        &mut self,
        id: RequestId,
        target: ObjectKey,
        op: Name,
        args: Vec<Value>,
        oneway: bool,
    ) -> Result<SimTime, DropReason> {
        let reply_to = (!oneway).then_some(self.state.host);
        self.send_orb(target.host, OrbWire::Request { id, reply_to, target, op, args })
    }

    /// Fire-and-forget `op(args)` on `target`.
    pub(crate) fn send_oneway(&mut self, target: ObjectKey, op: Name, args: Vec<Value>) {
        let id = self.state.world.orb.fresh_id();
        let _ = self.send_request(id, target, op, args, true);
    }

    /// Complete a call continuation with a failure.
    pub(crate) fn fail_call(&mut self, cont: CallCont, err: OrbError) {
        match cont {
            CallCont::Sink(sink) => push_reply(&sink, self.sim.now(), Err(err)),
            CallCont::ToInstance { oid, token } => self.reply_to_instance(oid, token, Err(err)),
        }
    }

    /// Sweep expired outgoing calls: re-send those with budget left
    /// (exponential backoff, same request id so the servant can dedup),
    /// fail the rest with `TIMEOUT`.
    pub(crate) fn sweep_calls(&mut self) {
        let now = self.sim.now();
        let InvokePolicy { deadline, retries, .. } = self.state.world.config.invoke;
        let Some(deadline) = deadline else { return };
        for (rid, pc) in self.state.container().calls.take_expired(now) {
            let can_retry = pc.retry.as_ref().is_some_and(|r| r.attempts < 1 + retries);
            if !can_retry {
                self.sim.metrics().incr(Counter::OrbCallTimeouts);
                self.state.world.tracer.end_with(pc.span, now, Some("timeout"));
                self.fail_call(pc.cont, OrbError::Timeout);
                continue;
            }
            let attempts = pc.retry.as_ref().map_or(1, |r| r.attempts);
            // Backoff doubles per attempt already made, capped.
            let backoff = std::cmp::min(
                BACKOFF_BASE.mul_f64((1u64 << (attempts - 1).min(20)) as f64),
                BACKOFF_CAP,
            );
            self.state.container().calls.insert_with_deadline(rid, pc, now + backoff + deadline);
            self.timer_in(backoff, Tick::CallRetry(rid));
            self.timer_in(backoff + deadline, Tick::CallSweep);
        }
    }

    /// A scheduled re-send is due: if the call is still pending, re-send
    /// it under the *same* request id.
    pub(crate) fn retry_call(&mut self, rid: RequestId) {
        let Some(pc) = self.state.container.as_mut().and_then(|c| c.calls.get_mut(&rid)) else {
            return;
        };
        let Some(retry) = pc.retry.as_mut() else { return };
        retry.attempts += 1;
        let attempts = retry.attempts;
        let (target, op, args) = (retry.target, retry.op.clone(), retry.args.clone());
        let original = pc.span;
        self.sim.metrics().incr(Counter::OrbRetries);
        // The re-send runs under a fresh span nested in the call, with
        // an explicit *link* back to it marking the retry relationship.
        let now = self.now();
        let tracer = self.state.world.tracer.clone();
        let rspan = tracer.retry(self.state.host.0, "container.retry", original, now);
        if let Some(r) = rspan {
            tracer.set_attr(r, "attempt", attempts);
        }
        self.in_span(rspan, |ctx| {
            let _ = ctx.send_request(rid, target, op, args, false);
            if let Some(r) = rspan {
                tracer.end(r, now);
            }
        });
    }

    /// Run a system or delivery `op` on the local servant at `key` now,
    /// unchecked, and send what it emitted: every local dispatch but a
    /// wire request's (which also charges the CPU and replies) and a
    /// migration's state capture (which keeps only the state).
    pub(crate) fn run_local(&mut self, key: ObjectKey, op: &str, args: &[Value]) {
        let now = self.sim.now();
        let res = self.state.dispatch(now, key, op, args, DispatchOpts::raw());
        self.send_effects(key.oid, res.outbox, res.events);
    }

    /// Send the out-calls and publish the events a dispatch of the
    /// servant `producer_oid` produced.
    fn send_effects(
        &mut self,
        producer_oid: u64,
        outbox: Vec<lc_orb::OutCall>,
        events: Vec<(String, Value)>,
    ) {
        for call in outbox {
            match call.kind {
                lc_orb::OutCallKind::OneWay => {
                    self.send_oneway(call.target.key, call.op, call.args);
                }
                lc_orb::OutCallKind::Request { token } => {
                    self.send_call(
                        call.target.key,
                        call.op,
                        call.args,
                        CallCont::ToInstance { oid: producer_oid, token },
                    );
                }
            }
        }
        for (port, payload) in events {
            self.publish_event(producer_oid, &port, payload);
        }
    }

    fn publish_event(&mut self, producer_oid: u64, port: &str, payload: Value) {
        let Some(subscribers) =
            self.state.container().subs.get(&(producer_oid, port.to_owned())).cloned()
        else {
            return; // no channel opened for this port
        };
        self.sim.metrics().incr(Counter::EventsPublished);
        for (consumer, op) in subscribers {
            if consumer.host == self.state.host {
                self.run_local(consumer, &op, std::slice::from_ref(&payload));
            } else {
                let event = OrbWire::Event { payload: payload.clone(), consumer, delivery_op: op };
                let _ = self.send_orb(consumer.host, event);
            }
        }
    }

    /// Handle an incoming ORB request (with CPU accounting and migration
    /// forwarding).
    pub(crate) fn on_request(
        &mut self,
        id: RequestId,
        reply_to: Option<HostId>,
        target: ObjectKey,
        op: Name,
        args: Vec<Value>,
    ) {
        // Forward requests to migrated instances (CORBA LOCATION_FORWARD:
        // the old node proxies to the new location, reply goes straight
        // back to the caller).
        let container = self.state.container();
        if let Some(new_ref) = container.forwards.get(&target.oid).cloned() {
            if container.adapter.servant(target.oid).is_none() {
                self.sim.metrics().incr(Counter::MigrateForwardedRequests);
                let wire = OrbWire::Request { id, reply_to, target: new_ref.key, op, args };
                let _ = self.send_orb(new_ref.key.host, wire);
                return;
            }
        }

        // Servant-side duplicate suppression: a retried (same id) or
        // fabric-duplicated request whose reply is already cached is
        // answered from the cache — the servant executes exactly once.
        let dedup = self.state.world.config.invoke.dedup_window;
        if dedup > SimTime::ZERO {
            let cached = self.state.container.as_ref().and_then(|c| c.replies.get(&id));
            if let (Some(back), Some(cached)) = (reply_to, cached) {
                let cached = cached.clone();
                self.sim.metrics().incr(Counter::OrbDedupHits);
                let _ = self.send_orb(back, OrbWire::Reply { id, result: cached });
                return;
            }
        }

        // Admission control: refuse work the CPU FIFO cannot serve in
        // time instead of executing it late. The decision point sits
        // after dedup (a cached verdict — including a cached shed —
        // must keep winning over a fresh decision, or a retried shed
        // request could execute after the backlog drains) and before
        // dispatch (a shed request must never reach the servant).
        if let Some(adm) = self.state.world.config.admission.clone() {
            let now = self.sim.now();
            let backlog = self.state.cpu_free_at.saturating_sub(now);
            let over_deadline = adm.deadline_aware
                && self.state.world.config.invoke.deadline.is_some_and(|d| backlog > d);
            self.sim.metrics().incr(Counter::AdmissionTotal);
            if backlog > adm.cpu_backlog_cap || over_deadline {
                self.sim.metrics().incr(Counter::AdmissionShed);
                if dedup > SimTime::ZERO && reply_to.is_some() {
                    // Remember the refusal for the dedup window: the
                    // shed request stays shed even if retried after the
                    // queue drains (exactly-once under shedding).
                    let shed = Err(OrbError::Overload);
                    self.state.container().replies.insert(id, shed, now + dedup);
                    self.timer_in(dedup, Tick::DedupSweep);
                }
                if let Some(back) = reply_to {
                    let refusal = OrbWire::Reply { id, result: Err(OrbError::Overload) };
                    let _ = self.send_orb(back, refusal);
                }
                self.maybe_replicate(target.oid);
                return;
            }
            // Admitted: the queue delay this request will absorb. With
            // `deadline_aware` this never exceeds the invoke deadline —
            // the overload property tests pin that bound.
            self.sim
                .metrics()
                .record(Series::AdmissionQueueDelayMs, backlog.as_secs_f64() * 1e3);
            if adm.replicate_hot.is_some() {
                *self.state.container().instance_load.entry(target.oid).or_insert(0) += 1;
            }
        }

        // System ops (`_connect_*`, `_reply`, `_get_state`…) are raw;
        // IDL ops are type-checked. Attribute accessors (`_get_x`) exist
        // in the interface metadata, so the adapter settles which from
        // the operation lookup its check needs anyway.
        let now = self.sim.now();
        let DispatchResult { outcome, outbox, events, cpu_cost } =
            self.state.dispatch(now, target, &op, &args, DispatchOpts::wire());
        self.send_effects(target.oid, outbox, events);

        if dedup > SimTime::ZERO && reply_to.is_some() {
            self.state.container().replies.insert(id, outcome.clone(), now + dedup);
            self.timer_in(dedup, Tick::DedupSweep);
        }

        if cpu_cost > SimTime::ZERO {
            // Occupy the CPU: FIFO over the node's processor, scaled by
            // CPU power (Resource Manager accounting).
            let (scaled, done) = self.state.occupy_cpu(self.sim.now(), cpu_cost);
            self.sim.metrics().record(Series::NodeTaskMs, scaled.as_secs_f64() * 1e3);
            if let Some(back) = reply_to {
                // The CPU is FIFO, so `done` never decreases from one
                // parked reply to the next and same-instant timers fire
                // in arming order: each `SendReply` tick finds its own
                // reply at the front.
                let delay = done.saturating_sub(self.sim.now());
                self.state.container().due_replies.push_back((back, id, outcome));
                self.timer_in(delay, Tick::SendReply);
            }
        } else if let Some(back) = reply_to {
            let _ = self.send_orb(back, OrbWire::Reply { id, result: outcome });
        }
    }

    /// One `Tick::SendReply`: the reply at the front of the CPU FIFO has
    /// finished computing.
    pub(crate) fn send_due_reply(&mut self) {
        if let Some((to, id, result)) = self.state.container().due_replies.pop_front() {
            let _ = self.send_orb(to, OrbWire::Reply { id, result });
        }
    }

    pub(crate) fn on_reply(&mut self, id: RequestId, result: Result<Outcome, OrbError>) {
        match self.state.container.as_mut().and_then(|c| c.calls.remove(&id)) {
            None => {
                // Duplicate or post-timeout reply (the continuation is
                // gone): count and drop.
                self.sim.metrics().incr(Counter::OrbOrphanReplies);
            }
            Some(PendingCall { cont, span, .. }) => {
                let error = result.is_err().then_some("reply");
                self.state.world.tracer.end_with(span, self.sim.now(), error);
                match cont {
                    CallCont::Sink(sink) => push_reply(&sink, self.sim.now(), result),
                    CallCont::ToInstance { oid, token } => {
                        self.reply_to_instance(oid, token, result)
                    }
                }
            }
        }
    }

    /// Hand a local instance the `_reply` to its `call_request` `token`.
    fn reply_to_instance(&mut self, oid: u64, token: u64, result: Result<Outcome, OrbError>) {
        let key = ObjectKey { host: self.state.host, oid };
        self.run_local(key, "_reply", &lc_orb::reply_args(token, result));
    }

    /// Rebuild a migrating instance here: spawn, restore state, report.
    pub(crate) fn finish_migration_in(
        &mut self,
        rid: u64,
        origin: HostId,
        component: &str,
        version: Version,
        state: Value,
        instance_name: Option<String>,
    ) {
        let result = self.state.spawn_local(component, version, instance_name);
        if let Ok(objref) = &result {
            if !matches!(state, Value::Void) {
                self.run_local(objref.key, "_set_state", &[state]);
            }
            // Register event: the instance now runs here.
            self.note_registry_change(component);
        }
        self.send_ctrl(origin, CtrlMsg::SpawnDone { rid, result });
    }

    /// Start migrating a local instance: capture state via the agreed
    /// local interface (§2.2: "the container can ask the component
    /// instance … to resume its execution returning its internal
    /// state") and offer it to the destination.
    pub(crate) fn cmd_migrate(
        &mut self,
        instance: InstanceId,
        to: HostId,
        sink: Option<SpawnSink>,
    ) {
        let Some(info) = self.state.registry.instance(instance).cloned() else {
            if let Some(s) = sink {
                *s.borrow_mut() = Some(Err(format!("no instance {instance}")));
            }
            return;
        };
        let now = self.sim.now();
        let state = match self.state.dispatch(
            now,
            info.objref.key,
            "_get_state",
            &[],
            DispatchOpts::raw(),
        ) {
            lc_orb::DispatchResult { outcome: Ok(out), .. } => out.ret,
            _ => Value::Void,
        };
        let rid = self.state.conts.next_seq();
        let tracer = &self.state.world.tracer;
        let span = tracer.span(self.state.host.0, "container.migrate", self.now());
        if let Some(s) = span {
            tracer.set_attr(s, "component", &info.component);
            tracer.set_attr(s, "to", to.0);
        }
        self.state.container().spawns.insert(rid, SpawnCont::Migrate { instance, sink, span });
        let msg = CtrlMsg::MigrateIn {
            rid,
            origin: self.state.host,
            component: info.component.to_string(),
            version: info.version,
            state,
            instance_name: info.name.clone(),
        };
        self.sim.metrics().incr(Counter::MigrateStarted);
        self.in_span(span, |ctx| ctx.send_ctrl(to, msg));
    }

    /// Create a local instance and, if that worked, announce the
    /// inventory change (register event).
    pub(crate) fn spawn_announced(
        &mut self,
        component: &str,
        min_version: Version,
        instance_name: Option<String>,
    ) -> Result<ObjectRef, String> {
        let result = self.state.spawn_local(component, min_version, instance_name);
        if result.is_ok() {
            self.note_registry_change(component);
        }
        result
    }

    /// Driver traffic: a two-way call when there is a sink to hand the
    /// reply to, otherwise a request nobody here waits for.
    pub(crate) fn cmd_invoke(
        &mut self,
        target: ObjectKey,
        op: Name,
        args: Vec<Value>,
        oneway: bool,
        sink: Option<InvokeSink>,
    ) {
        match sink.filter(|_| !oneway) {
            Some(sink) => self.send_call(target, op, args, CallCont::Sink(sink)),
            None => {
                let id = self.state.world.orb.fresh_id();
                let _ = self.send_request(id, target, op, args, oneway);
            }
        }
    }

    /// Change a running instance's reflected `provides` ports.
    pub(crate) fn cmd_modify_ports(
        &mut self,
        instance: InstanceId,
        add_provides: Vec<(String, String)>,
        remove_provides: Vec<String>,
    ) {
        let Some(info) = self.state.registry.instance_mut(instance) else { return };
        for (name, iface) in add_provides {
            info.add_provides(&name, &iface);
        }
        for name in remove_provides {
            info.remove_provides(&name);
        }
        self.sim.metrics().incr(Counter::ReflectPortChanges);
    }

    /// A peer answered for an instance this node asked it to spawn or
    /// migrated to it: resume whatever was parked on it. A duplicate or
    /// late answer finds nothing parked and changes nothing.
    pub(crate) fn on_spawn_done(&mut self, rid: u64, result: Result<ObjectRef, String>) {
        match self.state.container.as_mut().and_then(|c| c.spawns.remove(&rid)) {
            None => {}
            Some(SpawnCont::Connect { instance, port, sink }) => {
                self.connect_provider(instance, &port, result, sink);
            }
            Some(SpawnCont::Assembly { name, sink, pending }) => {
                sink.borrow_mut().insert(name.clone(), result.clone());
                let mut p = pending.borrow_mut();
                if let Ok(objref) = result {
                    p.refs.insert(name, objref);
                }
                p.outstanding -= 1;
                let ready = p.outstanding == 0;
                drop(p);
                if ready {
                    self.wire_assembly(pending);
                }
            }
            Some(SpawnCont::Migrate { instance, sink, span }) => {
                self.migrated(instance, span, &result);
                if let Some(s) = sink {
                    *s.borrow_mut() = Some(result);
                }
            }
        }
    }

    /// The destination's verdict on a migration of `instance` this node
    /// started: on success the old instance goes and late requests to it
    /// are forwarded.
    fn migrated(
        &mut self,
        instance: InstanceId,
        span: Option<lc_trace::TraceContext>,
        result: &Result<ObjectRef, String>,
    ) {
        let error = result.is_err().then_some("migrate");
        self.state.world.tracer.end_with(span, self.sim.now(), error);
        let Ok(new_ref) = result else {
            self.sim.metrics().incr(Counter::MigrateFailed);
            return;
        };
        if let Some(info) = self.state.registry.instance(instance) {
            let old_oid = info.objref.key.oid;
            let component = info.component.clone();
            self.state.destroy_instance(instance);
            self.state.container().forwards.insert(old_oid, new_ref.clone());
            // Deregister event: offers naming this node for the
            // component are now wrong.
            self.note_registry_change(&component);
        }
        self.sim.metrics().incr(Counter::MigrateCompleted);
    }

    /// Open (or join) the push channel of a local producer's `port`.
    pub(crate) fn on_subscribe(
        &mut self,
        producer: ObjectKey,
        port: String,
        consumer: ObjectKey,
        delivery_op: String,
    ) {
        // Only a port the producer instance declares it emits opens.
        let emits = self.state.registry.by_oid(producer.oid);
        if !emits.is_some_and(|info| info.emits.iter().any(|p| p.name == port)) {
            self.sim.metrics().incr(Counter::EventsBadSubscription);
            return;
        }
        let channel = self.state.container().subs.entry((producer.oid, port)).or_default();
        channel.push((consumer, delivery_op));
        self.sim.metrics().incr(Counter::EventsSubscriptions);
    }

    /// A passivated instance arrives: rebuild it here, fetching its
    /// package from the origin first if it is not installed.
    pub(crate) fn on_migrate_in(
        &mut self,
        rid: u64,
        origin: HostId,
        component: String,
        version: Version,
        state: Value,
        instance_name: Option<String>,
    ) {
        if self.state.repository.best_match(&component, version).is_some() {
            self.finish_migration_in(rid, origin, &component, version, state, instance_name);
            return;
        }
        self.state.container().fetches.entry_or_default(component.clone()).push(
            FetchCont::FinishMigration {
                rid,
                origin,
                component: component.clone(),
                version,
                state,
                instance_name,
            },
        );
        let reply_to = self.state.host;
        self.send_ctrl(origin, CtrlMsg::Fetch { name: component, version, reply_to });
    }

}

/// Hand a driver its reply. A call's sink gets exactly this one push,
/// so room is made for one entry, not for `Vec`'s first-growth four.
fn push_reply(sink: &InvokeSink, at: SimTime, result: Result<Outcome, OrbError>) {
    let mut replies = sink.borrow_mut();
    replies.reserve_exact(1);
    replies.push((at, result));
}

/// Reflect the container runtime's current state.
pub(crate) fn reflect(state: &Node) -> ServiceReflect {
    ServiceReflect {
        kind: ServiceKind::Container,
        items: vec![
            item("running instances", state.registry.instance_count()),
            item("event channels", state.event_channel_count()),
            item("subscriptions", state.subscription_count()),
            item("forwarding entries", state.forward_count()),
            item(
                "pending spawns/calls/migrations",
                match &state.container {
                    Some(c) => {
                        let migrations = c
                            .spawns
                            .values()
                            .filter(|s| matches!(s, SpawnCont::Migrate { .. }))
                            .count();
                        let spawns = c.spawns.len() - migrations;
                        format!("{spawns}/{}/{migrations}", c.calls.len())
                    }
                    None => "0/0/0".to_owned(),
                },
            ),
        ],
    }
}
