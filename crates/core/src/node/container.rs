//! The container runtime (Fig. 1's execution substrate under the four
//! services): instance life cycle, typed ORB dispatch with CPU
//! accounting, port wiring, push event channels, invocation plumbing
//! and migration (state capture/restore, request forwarding).

use crate::proto::CtrlMsg;
use crate::registry::{Connection, InstanceId, InstanceInfo, InstancePort};
use lc_des::SimTime;
use lc_net::HostId;
use lc_orb::{
    DispatchOpts, ObjectKey, ObjectRef, OrbError, OrbWire, Outcome, RequestId, SimOrb, Value,
};
use lc_pkg::Version;

use super::continuations::{CallCont, FetchCont, PendingCall, PendingMigration, RetryState, SpawnCont};
use super::ctx::{Hot, InstanceRuntime, NodeCtx, NodeState};
use super::metrics::ServiceKind;
use super::service::{item, ServiceReflect, Tick};
use super::{InvokeSink, MigrateSink, NodeCmd};

impl NodeState {
    /// Create a local instance of an installed component.
    pub fn spawn_local(
        &mut self,
        component: &str,
        min_version: Version,
        instance_name: Option<String>,
    ) -> Result<ObjectRef, String> {
        let installed = self
            .repository
            .best_match(component, min_version)
            .ok_or_else(|| format!("component '{component}' (≥{min_version}) not installed"))?
            .clone();
        if !self.resources.reserve(&installed.descriptor.qos) {
            return Err(format!("node {} cannot admit QoS of '{component}'", self.host));
        }
        let Some(servant) = self.behaviors.instantiate(&installed.behavior_id) else {
            self.resources.release(&installed.descriptor.qos);
            return Err(format!("behavior '{}' not loadable", installed.behavior_id));
        };
        let objref = self.adapter.activate(servant);
        let id = self.registry.next_id();
        let port = |p: &lc_pkg::PortDecl| InstancePort {
            name: p.name.clone(),
            type_id: p.interface.clone(),
        };
        let evport = |p: &lc_pkg::EventPortDecl| InstancePort {
            name: p.name.clone(),
            type_id: p.event.clone(),
        };
        self.registry.add_instance(InstanceInfo {
            id,
            name: instance_name,
            component: installed.descriptor.name.clone(),
            version: installed.descriptor.version,
            objref: objref.clone(),
            provides: installed.descriptor.provides.iter().map(port).collect(),
            uses: installed.descriptor.uses.iter().map(port).collect(),
            emits: installed.descriptor.emits.iter().map(evport).collect(),
            consumes: installed.descriptor.consumes.iter().map(evport).collect(),
        });
        self.instance_meta.insert(
            id,
            InstanceRuntime {
                qos: installed.descriptor.qos,
                mobility: installed.descriptor.mobility,
            },
        );
        self.oid_to_instance.insert(objref.key.oid, id);
        Ok(objref)
    }

    /// Destroy a local instance, releasing its resources.
    pub fn destroy_instance(&mut self, id: InstanceId) -> bool {
        let Some(info) = self.registry.remove_instance(id) else { return false };
        self.adapter.deactivate(info.objref.key.oid);
        self.oid_to_instance.remove(&info.objref.key.oid);
        if let Some(meta) = self.instance_meta.remove(&id) {
            self.resources.release(&meta.qos);
        }
        // Drop event channels rooted at this instance.
        self.subs.retain(|(oid, _), _| *oid != info.objref.key.oid);
        true
    }

    /// Downcast a local instance's servant for observation.
    pub fn servant_of<T: std::any::Any>(&self, instance: InstanceId) -> Option<&T> {
        let info = self.registry.instance(instance)?;
        self.adapter.servant_as::<T>(info.objref.key.oid)
    }

    /// Number of open push event channels (producer oid + port pairs).
    pub fn event_channel_count(&self) -> usize {
        self.subs.len()
    }

    /// Total subscribers across all open event channels.
    pub fn subscription_count(&self) -> usize {
        self.subs.values().map(|(_, subs)| subs.len()).sum()
    }

    /// Where requests to a migrated-away oid are forwarded, if anywhere.
    pub fn forward_target(&self, oid: u64) -> Option<&ObjectRef> {
        self.forwards.get(&oid)
    }

    /// Number of active migration forwarding entries.
    pub fn forward_count(&self) -> usize {
        self.forwards.len()
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
                to_port: String::new(),
            });
            let res = self.state.adapter.invoke(
                key,
                &format!("_connect_{port}"),
                &[Value::ObjRef(provider)],
                DispatchOpts::raw(),
            );
            self.process_dispatch_effects(key.oid, res);
            self.sim.metrics().incr("resolve.connected");
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
        op: String,
        args: Vec<Value>,
        cont: CallCont,
    ) {
        // One span covers the whole logical call, across every attempt;
        // it ends when the reply lands or the call fails permanently.
        // Untraced calls (every call while tracing is off) build no span
        // name and take no handle on the tracer.
        let tracer = self.state.tracer.is_enabled().then(|| self.state.tracer.clone());
        let span = tracer.as_ref().and_then(|tracer| {
            let s = tracer.span(self.state.host.0, &format!("container.call {op}"), self.now())?;
            tracer.set_attr(s, "target", &target.host.0.to_string());
            Some(s)
        });
        let prev = tracer.as_ref().zip(span).map(|(tracer, s)| tracer.set_current(Some(s)));
        let policy = &self.state.cfg.invoke;
        match policy.deadline {
            None => match self.orb_request(target, op, args, false) {
                Ok(rid) => {
                    self.state.conts.calls.insert(rid, PendingCall { cont, retry: None, span });
                }
                Err(e) => {
                    if let Some((tracer, s)) = tracer.as_ref().zip(span) {
                        tracer.set_attr(s, "error", "send");
                        tracer.end(s, self.now());
                    }
                    self.fail_call(cont, OrbError::from(e));
                }
            },
            Some(deadline) => {
                let rid = self.state.orb.fresh_id();
                // The request moves into its frame. Only a policy that
                // can re-send keeps a copy: without a retry budget the
                // sweep's one verdict on this call is `Timeout`.
                let retry = (policy.retries > 0).then(|| RetryState {
                    target,
                    op: op.clone(),
                    args: args.clone(),
                    attempts: 1,
                });
                let _ = self.orb_request_with_id(rid, target, op, args);
                self.state.conts.calls.insert_with_deadline(
                    rid,
                    PendingCall { cont, retry, span },
                    self.now() + deadline,
                );
                self.timer_in(deadline, Tick::CallSweep);
            }
        }
        if let Some((tracer, prev)) = tracer.zip(prev) {
            tracer.set_current(prev);
        }
    }

    /// Complete a call continuation with a failure.
    pub(crate) fn fail_call(&mut self, cont: CallCont, err: OrbError) {
        match cont {
            CallCont::Sink(sink) => push_reply(&sink, self.sim.now(), Err(err)),
            CallCont::ToInstance { oid, token } => {
                let res = self.state.adapter.invoke(
                    ObjectKey { host: self.state.host, oid },
                    "_reply",
                    &[Value::ULongLong(token), Value::Boolean(false)],
                    DispatchOpts::raw(),
                );
                self.process_dispatch_effects(oid, res);
            }
        }
    }

    /// Sweep expired outgoing calls: re-send those with budget left
    /// (exponential backoff, same request id so the servant can dedup),
    /// fail the rest with `TIMEOUT`.
    fn sweep_calls(&mut self) {
        let now = self.sim.now();
        let policy = self.state.cfg.invoke.clone();
        let Some(deadline) = policy.deadline else { return };
        for (rid, pc) in self.state.conts.calls.take_expired(now) {
            let can_retry =
                pc.retry.as_ref().is_some_and(|r| r.attempts < 1 + policy.retries);
            if !can_retry {
                self.sim.metrics().incr("orb.call_timeouts");
                if let Some(s) = pc.span {
                    let tracer = self.state.tracer.clone();
                    tracer.set_attr(s, "error", "timeout");
                    tracer.end(s, now);
                }
                self.fail_call(pc.cont, OrbError::Timeout);
                continue;
            }
            let attempts = pc.retry.as_ref().map_or(1, |r| r.attempts);
            // Backoff doubles per attempt already made, capped.
            let backoff = std::cmp::min(
                policy.backoff_base.mul_f64((1u64 << (attempts - 1).min(20)) as f64),
                policy.backoff_cap,
            );
            self.state.conts.calls.insert_with_deadline(
                rid,
                pc,
                now + backoff + deadline,
            );
            self.timer_in(backoff, Tick::CallRetry(rid));
            self.timer_in(backoff + deadline, Tick::CallSweep);
        }
    }

    /// A scheduled re-send is due: if the call is still pending, re-send
    /// it under the *same* request id.
    fn retry_call(&mut self, rid: RequestId) {
        let Some(pc) = self.state.conts.calls.get_mut(&rid) else { return };
        let Some(retry) = pc.retry.as_mut() else { return };
        retry.attempts += 1;
        let attempts = retry.attempts;
        let (target, op, args) = (retry.target, retry.op.clone(), retry.args.clone());
        let original = pc.span;
        self.sim.metrics().incr("orb.retries");
        // The re-send runs under a fresh span nested in the call, with
        // an explicit *link* back to it marking the retry relationship.
        let now = self.now();
        let tracer = self.state.tracer.clone();
        let rspan =
            original.and_then(|o| tracer.child_of(self.state.host.0, "container.retry", o, now));
        if let (Some(r), Some(o)) = (rspan, original) {
            tracer.link(r, o.span);
            tracer.set_attr(r, "attempt", &attempts.to_string());
        }
        let prev = rspan.map(|r| tracer.set_current(Some(r)));
        let _ = self.orb_request_with_id(rid, target, op, args);
        if let Some(r) = rspan {
            tracer.end(r, now);
        }
        if let Some(prev) = prev {
            tracer.set_current(prev);
        }
    }

    /// Send out-calls and publish events produced by a dispatch.
    pub(crate) fn process_dispatch_effects(
        &mut self,
        producer_oid: u64,
        res: lc_orb::DispatchResult,
    ) {
        self.send_effects(producer_oid, res.outbox, res.events);
    }

    /// [`Self::process_dispatch_effects`] for a result already taken
    /// apart (the request path moves the outcome into its reply).
    fn send_effects(
        &mut self,
        producer_oid: u64,
        outbox: Vec<lc_orb::OutCall>,
        events: Vec<(String, Value)>,
    ) {
        for call in outbox {
            match call.kind {
                lc_orb::OutCallKind::OneWay => {
                    let _ = self.orb_request(call.target.key, call.op, call.args, true);
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
        let Some((event_id, subscribers)) =
            self.state.subs.get(&(producer_oid, port.to_owned())).cloned()
        else {
            return; // no channel opened for this port
        };
        self.sim.metrics().incr("events.published");
        for (consumer, op) in subscribers {
            if consumer.host == self.state.host {
                let res = self.state.adapter.invoke(
                    consumer,
                    &op,
                    std::slice::from_ref(&payload),
                    DispatchOpts::raw(),
                );
                self.process_dispatch_effects(consumer.oid, res);
            } else {
                let _ = self.orb_event(&event_id, payload.clone(), consumer, &op);
            }
        }
    }

    /// Handle an incoming ORB request (with CPU accounting and migration
    /// forwarding).
    fn on_request(
        &mut self,
        id: RequestId,
        reply_to: Option<HostId>,
        target: ObjectKey,
        op: String,
        args: Vec<Value>,
    ) {
        // Forward requests to migrated instances (CORBA LOCATION_FORWARD:
        // the old node proxies to the new location, reply goes straight
        // back to the caller).
        if let Some(new_ref) = self.state.forwards.get(&target.oid).cloned() {
            if self.state.adapter.servant(target.oid).is_none() {
                self.sim.metrics().incr("migrate.forwarded_requests");
                let size = SimOrb::request_size(&op, &args);
                let wire = OrbWire::Request { id, reply_to, target: new_ref.key, op, args };
                let (net, from) = (&self.state.net, self.state.host);
                if net.send(self.sim, from, new_ref.key.host, size, wire).is_ok() {
                    self.state.metrics.msg_out();
                }
                return;
            }
        }

        // Servant-side duplicate suppression: a retried (same id) or
        // fabric-duplicated request whose reply is already cached is
        // answered from the cache — the servant executes exactly once.
        let dedup = self.state.cfg.invoke.dedup_window;
        if dedup > SimTime::ZERO {
            if let (Some(back), Some(cached)) =
                (reply_to, self.state.conts.replies.get_mut(&id))
            {
                let cached = cached.clone();
                self.sim.metrics().incr("orb.dedup_hits");
                let _ = self.orb_reply(back, id, cached);
                return;
            }
        }

        // Admission control: refuse work the CPU FIFO cannot serve in
        // time instead of executing it late. The decision point sits
        // after dedup (a cached verdict — including a cached shed —
        // must keep winning over a fresh decision, or a retried shed
        // request could execute after the backlog drains) and before
        // dispatch (a shed request must never reach the servant).
        if let Some(adm) = self.state.cfg.admission.clone() {
            let now = self.sim.now();
            let backlog = self.state.cpu_free_at.saturating_sub(now);
            let over_deadline = adm.deadline_aware
                && self.state.cfg.invoke.deadline.is_some_and(|d| backlog > d);
            self.bump(Hot::AdmissionTotal);
            if backlog > adm.cpu_backlog_cap || over_deadline {
                self.sim.metrics().incr("admission.shed");
                if dedup > SimTime::ZERO && reply_to.is_some() {
                    // Remember the refusal for the dedup window: the
                    // shed request stays shed even if retried after the
                    // queue drains (exactly-once under shedding).
                    self.state.conts.replies.insert_with_deadline(
                        id,
                        Err(OrbError::Overload),
                        now + dedup,
                    );
                    self.timer_in(dedup, Tick::DedupSweep);
                }
                if let Some(back) = reply_to {
                    let _ = self.orb_reply(back, id, Err(OrbError::Overload));
                }
                self.maybe_replicate(target.oid);
                return;
            }
            // Admitted: the queue delay this request will absorb. With
            // `deadline_aware` this never exceeds the invoke deadline —
            // the overload property tests pin that bound.
            self.sim
                .metrics()
                .record("admission.queue_delay_ms", backlog.as_secs_f64() * 1e3);
            if adm.replicate_hot.is_some() {
                *self.state.instance_load.entry(target.oid).or_insert(0) += 1;
            }
        }

        // System ops (`_connect_*`, `_reply`, `_get_state`…) are raw;
        // IDL ops are type-checked. Attribute accessors (`_get_x`) exist
        // in the interface metadata, so the adapter settles which from
        // the operation lookup its check needs anyway.
        let lc_orb::DispatchResult { outcome, outbox, events, cpu_cost } =
            self.state.adapter.invoke(target, &op, &args, DispatchOpts::wire());
        self.send_effects(target.oid, outbox, events);

        if dedup > SimTime::ZERO && reply_to.is_some() {
            self.state.conts.replies.insert_with_deadline(
                id,
                outcome.clone(),
                self.sim.now() + dedup,
            );
            self.timer_in(dedup, Tick::DedupSweep);
        }

        if cpu_cost > SimTime::ZERO {
            // Occupy the CPU: FIFO over the node's processor, scaled by
            // CPU power (Resource Manager accounting).
            let (scaled, done) = self.state.occupy_cpu(self.sim.now(), cpu_cost);
            self.sim.metrics().record("node.task_ms", scaled.as_secs_f64() * 1e3);
            if let Some(back) = reply_to {
                // The CPU is FIFO, so `done` never decreases from one
                // parked reply to the next and same-instant timers fire
                // in arming order: each `SendReply` tick finds its own
                // reply at the front.
                let delay = done.saturating_sub(self.sim.now());
                self.state.due_replies.push_back((back, id, outcome));
                self.timer_in(delay, Tick::SendReply);
            }
        } else if let Some(back) = reply_to {
            let _ = self.orb_reply(back, id, outcome);
        }
    }

    fn on_reply(&mut self, id: RequestId, result: Result<Outcome, OrbError>) {
        match self.state.conts.calls.remove(&id) {
            None => {
                // Duplicate or post-timeout reply (the continuation is
                // gone): count and drop.
                self.sim.metrics().incr("orb.orphan_replies");
            }
            Some(PendingCall { cont: CallCont::Sink(sink), span, .. }) => {
                self.end_call_span(span, result.is_err());
                push_reply(&sink, self.sim.now(), result);
            }
            Some(PendingCall { cont: CallCont::ToInstance { oid, token }, span, .. }) => {
                self.end_call_span(span, result.is_err());
                let mut args = vec![Value::ULongLong(token), Value::Boolean(result.is_ok())];
                if let Ok(out) = result {
                    args.push(out.ret);
                    args.extend(out.outs);
                }
                let res = self.state.adapter.invoke(
                    ObjectKey { host: self.state.host, oid },
                    "_reply",
                    &args,
                    DispatchOpts::raw(),
                );
                self.process_dispatch_effects(oid, res);
            }
        }
    }

    /// End a logical-call span (if the call was traced) at reply time.
    fn end_call_span(&mut self, span: Option<lc_trace::TraceContext>, errored: bool) {
        if let Some(s) = span {
            let tracer = self.state.tracer.clone();
            if errored {
                tracer.set_attr(s, "error", "reply");
            }
            tracer.end(s, self.sim.now());
        }
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
        let result = match self.state.spawn_local(component, version, instance_name) {
            Ok(objref) => {
                if !matches!(state, Value::Void) {
                    let res = self.state.adapter.invoke(
                        objref.key,
                        "_set_state",
                        &[state],
                        DispatchOpts::raw(),
                    );
                    self.process_dispatch_effects(objref.key.oid, res);
                }
                Ok(objref)
            }
            Err(e) => Err(e),
        };
        if result.is_ok() {
            // Register event: the instance now runs here.
            self.note_registry_change(component);
        }
        self.send_ctrl(origin, CtrlMsg::MigrateDone { rid, result });
    }

    /// Start migrating a local instance: capture state via the agreed
    /// local interface (§2.2: "the container can ask the component
    /// instance … to resume its execution returning its internal
    /// state") and offer it to the destination.
    pub(crate) fn cmd_migrate(
        &mut self,
        instance: InstanceId,
        to: HostId,
        sink: Option<MigrateSink>,
    ) {
        let Some(info) = self.state.registry.instance(instance).cloned() else {
            if let Some(s) = sink {
                *s.borrow_mut() = Some(Err(format!("no instance {instance}")));
            }
            return;
        };
        let state = match self.state.adapter.invoke(
            info.objref.key,
            "_get_state",
            &[],
            DispatchOpts::raw(),
        ) {
            lc_orb::DispatchResult { outcome: Ok(out), .. } => out.ret,
            _ => Value::Void,
        };
        let rid = self.state.conts.next_seq();
        let tracer = self.state.tracer.clone();
        let span = tracer.span(self.state.host.0, "container.migrate", self.now());
        if let Some(s) = span {
            tracer.set_attr(s, "component", &info.component);
            tracer.set_attr(s, "to", &to.0.to_string());
        }
        self.state.conts.migrations.insert(rid, PendingMigration { instance, sink, span });
        let msg = CtrlMsg::MigrateIn {
            rid,
            origin: self.state.host,
            component: info.component.clone(),
            version: info.version,
            state,
            instance_name: info.name.clone(),
        };
        self.sim.metrics().incr("migrate.started");
        let prev = span.map(|s| tracer.set_current(Some(s)));
        self.send_ctrl(to, msg);
        if let Some(prev) = prev {
            tracer.set_current(prev);
        }
    }
}

/// Hand a driver its reply. A call's sink gets exactly this one push,
/// so room is made for one entry, not for `Vec`'s first-growth four.
fn push_reply(sink: &InvokeSink, at: SimTime, result: Result<Outcome, OrbError>) {
    let mut replies = sink.borrow_mut();
    replies.reserve_exact(1);
    replies.push((at, result));
}

/// Container-owned control traffic: `Spawn`, `SpawnDone`, `Subscribe`,
/// `MigrateIn`, `MigrateDone`.
pub(crate) fn handle_ctrl(ctx: &mut NodeCtx<'_, '_>, _from: HostId, msg: CtrlMsg) {
    match msg {
        CtrlMsg::Spawn { rid, origin, component, min_version, instance_name } => {
            let result = ctx.state.spawn_local(&component, min_version, instance_name);
            if result.is_ok() {
                ctx.note_registry_change(&component);
            }
            ctx.send_ctrl(origin, CtrlMsg::SpawnDone { rid, result });
        }
        CtrlMsg::SpawnDone { rid, result } => match ctx.state.conts.spawns.remove(&rid) {
            None => {}
            Some(SpawnCont::Sink(sink)) => {
                *sink.borrow_mut() = Some(result);
            }
            Some(SpawnCont::Connect { instance, port, sink }) => match result {
                Ok(provider) => {
                    ctx.connect_port(instance, &port, provider.clone());
                    if let Some(s) = sink {
                        *s.borrow_mut() = Some(Ok(provider));
                    }
                }
                Err(e) => {
                    if let Some(s) = sink {
                        *s.borrow_mut() = Some(Err(e));
                    }
                }
            },
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
                    ctx.wire_assembly(pending);
                }
            }
        },
        CtrlMsg::Subscribe { producer, port, consumer, delivery_op } => {
            // Find the event type from the producer instance's ports.
            let event_id = ctx
                .state
                .oid_to_instance
                .get(&producer.oid)
                .and_then(|iid| ctx.state.registry.instance(*iid))
                .and_then(|info| {
                    info.emits.iter().find(|p| p.name == port).map(|p| p.type_id.clone())
                });
            match event_id {
                Some(event_id) => {
                    ctx.state
                        .subs
                        .entry((producer.oid, port))
                        .or_insert_with(|| (event_id, Vec::new()))
                        .1
                        .push((consumer, delivery_op));
                    ctx.sim.metrics().incr("events.subscriptions");
                }
                None => {
                    ctx.sim.metrics().incr("events.bad_subscription");
                }
            }
        }
        CtrlMsg::MigrateIn { rid, origin, component, version, state, instance_name } => {
            if ctx.state.repository.best_match(&component, version).is_some() {
                ctx.finish_migration_in(rid, origin, &component, version, state, instance_name);
            } else {
                // Auto-fetch the package from the origin, then finish.
                ctx.state.conts.fetches.entry_or_default(component.clone()).push(
                    FetchCont::FinishMigration {
                        rid,
                        origin,
                        component: component.clone(),
                        version,
                        state,
                        instance_name,
                    },
                );
                let reply_to = ctx.state.host;
                ctx.send_ctrl(origin, CtrlMsg::Fetch { name: component, version, reply_to });
            }
        }
        CtrlMsg::MigrateDone { rid, result } => {
            let Some(pm) = ctx.state.conts.migrations.remove(&rid) else { return };
            if let Some(s) = pm.span {
                let tracer = ctx.state.tracer.clone();
                if result.is_err() {
                    tracer.set_attr(s, "error", "migrate");
                }
                tracer.end(s, ctx.sim.now());
            }
            match &result {
                Ok(new_ref) => {
                    // Passivate and remove the old instance; forward
                    // late requests.
                    if let Some(info) = ctx.state.registry.instance(pm.instance) {
                        let old_oid = info.objref.key.oid;
                        let component = info.component.clone();
                        ctx.state.destroy_instance(pm.instance);
                        ctx.state.forwards.insert(old_oid, new_ref.clone());
                        // Deregister event: offers naming this node for
                        // the component are now wrong.
                        ctx.note_registry_change(&component);
                    }
                    ctx.sim.metrics().incr("migrate.completed");
                }
                Err(_) => {
                    ctx.sim.metrics().incr("migrate.failed");
                }
            }
            if let Some(s) = pm.sink {
                *s.borrow_mut() = Some(result);
            }
        }
        _ => {}
    }
}

/// Container-owned driver commands.
pub(crate) fn handle_cmd(ctx: &mut NodeCtx<'_, '_>, cmd: NodeCmd) {
    match cmd {
        NodeCmd::SpawnLocal { component, min_version, instance_name, sink } => {
            let r = ctx.state.spawn_local(&component, min_version, instance_name);
            if r.is_ok() {
                ctx.note_registry_change(&component);
            }
            *sink.borrow_mut() = Some(r);
        }
        NodeCmd::SpawnOn { node, component, min_version, instance_name, sink } => {
            if node == ctx.state.host {
                let r = ctx.state.spawn_local(&component, min_version, instance_name);
                if r.is_ok() {
                    ctx.note_registry_change(&component);
                }
                *sink.borrow_mut() = Some(r);
            } else {
                let rid = ctx.state.conts.next_seq();
                ctx.state.conts.spawns.insert(rid, SpawnCont::Sink(sink));
                let origin = ctx.state.host;
                ctx.send_ctrl(
                    node,
                    CtrlMsg::Spawn { rid, origin, component, min_version, instance_name },
                );
            }
        }
        NodeCmd::Subscribe { producer, port, consumer, delivery_op } => {
            let msg = CtrlMsg::Subscribe {
                producer: producer.key,
                port,
                consumer: consumer.key,
                delivery_op,
            };
            ctx.send_ctrl(producer.key.host, msg);
        }
        NodeCmd::Invoke { target, op, args, oneway, sink } => match sink {
            Some(sink) if !oneway => {
                ctx.send_call(target.key, op, args, CallCont::Sink(sink));
            }
            _ => {
                let _ = ctx.orb_request(target.key, op, args, oneway);
            }
        },
        NodeCmd::Migrate { instance, to, sink } => ctx.cmd_migrate(instance, to, sink),
        NodeCmd::ModifyPorts { instance, add_provides, remove_provides } => {
            if let Some(info) = ctx.state.registry.instance_mut(instance) {
                for (name, iface) in add_provides {
                    info.add_provides(&name, &iface);
                }
                for name in remove_provides {
                    info.remove_provides(&name);
                }
                ctx.sim.metrics().incr("reflect.port_changes");
            }
        }
        NodeCmd::StartAssembly { assembly, strategy, sink } => {
            ctx.start_assembly(assembly, strategy, sink);
        }
        _ => {}
    }
}

/// GIOP-style ORB wire traffic lands on the container.
pub(crate) fn handle_orb(ctx: &mut NodeCtx<'_, '_>, wire: OrbWire) {
    match wire {
        OrbWire::Request { id, reply_to, target, op, args } => {
            ctx.on_request(id, reply_to, target, op, args);
        }
        OrbWire::Reply { id, result } => ctx.on_reply(id, result),
        OrbWire::Event { payload, consumer, delivery_op, .. } => {
            let res =
                ctx.state.adapter.invoke(consumer, &delivery_op, &[payload], DispatchOpts::raw());
            ctx.process_dispatch_effects(consumer.oid, res);
        }
    }
}

/// Container-owned timer ticks: `SendReply`, `CallSweep`, `CallRetry`,
/// `DedupSweep`.
pub(crate) fn on_timer(ctx: &mut NodeCtx<'_, '_>, tick: Tick) {
    match tick {
        Tick::SendReply => {
            if let Some((to, id, result)) = ctx.state.due_replies.pop_front() {
                let _ = ctx.orb_reply(to, id, result);
            }
        }
        Tick::CallSweep => ctx.sweep_calls(),
        Tick::CallRetry(rid) => ctx.retry_call(rid),
        Tick::DedupSweep => {
            let now = ctx.now();
            ctx.state.conts.replies.take_expired(now);
        }
        _ => {}
    }
}

/// Reflect the container runtime's current state.
pub(crate) fn reflect(state: &NodeState) -> ServiceReflect {
    ServiceReflect {
        kind: ServiceKind::Container,
        items: vec![
            item("running instances", state.registry.instance_count()),
            item("event channels", state.event_channel_count()),
            item("subscriptions", state.subscription_count()),
            item("forwarding entries", state.forward_count()),
            item(
                "pending spawns/calls/migrations",
                format!(
                    "{}/{}/{}",
                    state.conts.spawns.len(),
                    state.conts.calls.len(),
                    state.conts.migrations.len()
                ),
            ),
        ],
    }
}
