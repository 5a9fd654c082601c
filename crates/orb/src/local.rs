//! The loopback ORB: synchronous, in-process, thread-safe.
//!
//! Requirement 1 of the paper is that the model "must be lightweight" —
//! simple enough "to allow being implemented efficiently". This module is
//! where that claim is measured (experiment E1): a [`LocalOrb`] dispatches
//! requests to servants in the same address space through the full
//! marshalling + type-check + adapter path, so the E1 Criterion bench can
//! compare a direct Rust call, an ORB-mediated call, and an ORB call with
//! a CDR encode/decode round-trip, under concurrent callers.
//!
//! It is also the execution engine for unit tests and the quickstart
//! example: nested out-calls issued by servants are executed to fixpoint
//! (a request's result comes back to its issuer as `_reply`), and
//! emitted events are fanned out to subscribed consumers.

use crate::api::{cdr_round_trip_in_args, cdr_round_trip_outcome, op_meta};
use crate::cdr::encoded_len;
use crate::events::check_event;
use crate::object::{ObjectRef, OrbError};
use crate::servant::{
    reply_args, DispatchEnv, DispatchOpts, ObjectAdapter, OutCall, OutCallKind, Outcome, Servant,
};
use crate::value::Value;
use lc_idl::Repository;
use lc_net::HostId;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard};

struct Inner {
    adapter: ObjectAdapter,
    /// Event subscriptions: event repo id → (consumer, delivery op).
    /// Ordered so fan-out visits subscribers deterministically.
    subs: BTreeMap<String, Vec<(ObjectRef, String)>>,
    /// Event-source port bindings: (oid, port) → event repo id.
    port_events: BTreeMap<(u64, String), String>,
    /// CDR-encoded argument bytes of every typed request (as if remote).
    request_bytes: u64,
}

/// A synchronous in-process ORB.
///
/// Cloneable and shareable across threads; each dispatch locks the ORB
/// (one big lock — the measured overhead *includes* it, keeping E1
/// honest about what a lightweight single-process ORB costs).
#[derive(Clone)]
pub struct LocalOrb {
    inner: Arc<Mutex<Inner>>,
    repo: Arc<Repository>,
}

impl LocalOrb {
    /// New ORB validating against `repo`.
    pub fn new(repo: Arc<Repository>) -> Self {
        LocalOrb {
            inner: Arc::new(Mutex::new(Inner {
                adapter: ObjectAdapter::new(HostId(0)),
                subs: BTreeMap::new(),
                port_events: BTreeMap::new(),
                request_bytes: 0,
            })),
            repo,
        }
    }

    /// The IDL repository.
    pub fn repo(&self) -> &Arc<Repository> {
        &self.repo
    }

    /// What every dispatch here reads: this ORB's repository, at time
    /// zero, untraced.
    fn env(&self) -> DispatchEnv<'_> {
        DispatchEnv { repo: &self.repo, now: lc_des::SimTime::ZERO, tracer: None }
    }

    /// Lock the shared state, recovering from poisoning: a caller that
    /// panicked mid-dispatch leaves counters (not invariants) behind,
    /// so later callers may proceed.
    fn locked(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Activate a servant.
    pub fn activate(&self, servant: Box<dyn Servant>) -> ObjectRef {
        self.locked().adapter.activate(&self.repo, servant)
    }

    /// Deactivate a servant.
    pub fn deactivate(&self, r: &ObjectRef) {
        self.locked().adapter.deactivate(r.key.oid);
    }

    /// Bind an event-source port of `producer` to an event type; events
    /// the servant emits through `port` go to subscribers of `event_id`.
    pub fn bind_event_port(&self, producer: &ObjectRef, port: &str, event_id: &str) {
        assert!(
            self.repo.event(event_id).is_some(),
            "event type '{event_id}' not in IDL repository"
        );
        self.locked()
            .port_events
            .insert((producer.key.oid, port.to_owned()), event_id.to_owned());
    }

    /// Subscribe `consumer` to an event type; deliveries dispatch
    /// `delivery_op(payload)` on it (raw dispatch, see
    /// [`DispatchOpts::raw`]).
    pub fn subscribe(&self, event_id: &str, consumer: &ObjectRef, delivery_op: &str) {
        assert!(
            self.repo.event(event_id).is_some(),
            "event type '{event_id}' not in IDL repository"
        );
        self.locked()
            .subs
            .entry(event_id.to_owned())
            .or_default()
            .push((consumer.clone(), delivery_op.to_owned()));
    }

    /// Publish an event directly (producers that are not servants).
    pub fn publish(&self, event_id: &str, payload: &Value) -> Result<usize, OrbError> {
        check_event(payload, event_id, &self.repo)
            .map_err(|e| OrbError::BadParam(e.to_string()))?;
        let subs = self.locked().subs.get(event_id).cloned().unwrap_or_default();
        for (consumer, op) in &subs {
            // Deliveries are oneway: errors are dropped, as with a real
            // push-style event channel.
            let _ = self.invoke_raw(consumer, op, std::slice::from_ref(payload));
        }
        Ok(subs.len())
    }

    /// Invoke `op` on `target` synchronously, with full type checking.
    ///
    /// Nested out-calls are executed after the initial dispatch returns,
    /// each to fixpoint before the next; their failures surface as `Err`
    /// of the original call only if the original dispatch itself failed
    /// (a request's failure reaches its issuer as a failed `_reply`).
    pub fn invoke(
        &self,
        target: &ObjectRef,
        op: &str,
        args: &[Value],
    ) -> Result<Outcome, OrbError> {
        let (outcome, follow_ups, events) = {
            let mut inner = self.locked();
            inner.request_bytes += encoded_len(args);
            let res = inner.adapter.invoke(self.env(), target.key, op, args, DispatchOpts::typed());
            let events = self.resolve_events(&mut inner, target.key.oid, res.events);
            (res.outcome, res.outbox, events)
        };
        self.drain(target, follow_ups, events);
        outcome
    }

    /// Invoke with a CDR encode/decode round-trip of the arguments and
    /// results, exercising the full marshalling path (what a remote call
    /// would pay CPU-wise). Used by the E1 bench's "marshalled" series.
    pub fn invoke_marshalled(
        &self,
        target: &ObjectRef,
        op: &str,
        args: &[Value],
    ) -> Result<Outcome, OrbError> {
        let opmeta = op_meta(&self.repo, &target.type_id, op)?.clone();
        let decoded = cdr_round_trip_in_args(&self.repo, &opmeta, args)?;
        let outcome = self.invoke(target, op, &decoded)?;
        cdr_round_trip_outcome(&self.repo, &opmeta, &outcome)
    }

    /// Raw invoke used for event delivery and reply routing.
    fn invoke_raw(
        &self,
        target: &ObjectRef,
        op: &str,
        args: &[Value],
    ) -> Result<Outcome, OrbError> {
        let (outcome, follow_ups, events) = {
            let mut inner = self.locked();
            let res = inner.adapter.invoke(self.env(), target.key, op, args, DispatchOpts::raw());
            let events = self.resolve_events(&mut inner, target.key.oid, res.events);
            (res.outcome, res.outbox, events)
        };
        self.drain(target, follow_ups, events);
        outcome
    }

    /// Map `(producer oid, port)` pairs to event type ids.
    fn resolve_events(
        &self,
        inner: &mut Inner,
        oid: u64,
        events: Vec<(String, Value)>,
    ) -> Vec<(String, Value)> {
        events
            .into_iter()
            .filter_map(|(port, payload)| {
                inner
                    .port_events
                    .get(&(oid, port))
                    .map(|event_id| (event_id.clone(), payload))
            })
            .collect()
    }

    /// Publish the events and perform the out-calls one dispatch of
    /// `issuer` produced; each nested dispatch drains its own, so this
    /// runs to fixpoint. A request's result goes back to `issuer` as its
    /// `_reply`.
    fn drain(&self, issuer: &ObjectRef, calls: Vec<OutCall>, events: Vec<(String, Value)>) {
        for (event_id, payload) in events {
            let _ = self.publish(&event_id, &payload);
        }
        for call in calls {
            let result = self.invoke(&call.target, &call.op, &call.args);
            if let OutCallKind::Request { token } = call.kind {
                let _ = self.invoke_raw(issuer, "_reply", &reply_args(token, result));
            }
        }
    }

    /// CDR-encoded argument bytes of every typed request so far (as if
    /// each had crossed a wire).
    pub fn request_bytes(&self) -> u64 {
        self.locked().request_bytes
    }

    /// A snapshot of the underlying adapter's dispatch counters.
    pub fn dispatch_stats(&self) -> crate::servant::DispatchStats {
        self.locked().adapter.dispatch_stats()
    }

    /// Number of active servants.
    pub fn active_count(&self) -> usize {
        self.locked().adapter.active_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::servant::Invocation;
    use lc_idl::compile;

    const IDL: &str = r#"
        eventtype Stroke { long x; long y; };
        interface Board {
          void draw(in long x, in long y);
          long count();
        };
        interface Viewer {
          void refresh();
          long seen();
        };
    "#;

    struct BoardImpl {
        strokes: i32,
    }
    impl Servant for BoardImpl {
        fn interface_id(&self) -> &str {
            "IDL:Board:1.0"
        }
        fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
            match inv.op {
                "draw" => {
                    self.strokes += 1;
                    inv.emit(
                        "stroked",
                        Value::Struct {
                            id: "IDL:Stroke:1.0".into(),
                            fields: vec![inv.args[0].clone(), inv.args[1].clone()],
                        },
                    );
                    Ok(())
                }
                "count" => {
                    inv.set_ret(Value::Long(self.strokes));
                    Ok(())
                }
                o => Err(OrbError::BadOperation(o.into())),
            }
        }
    }

    struct ViewerImpl {
        seen: i32,
    }
    impl Servant for ViewerImpl {
        fn interface_id(&self) -> &str {
            "IDL:Viewer:1.0"
        }
        fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
            match inv.op {
                "refresh" => Ok(()),
                "seen" => {
                    inv.set_ret(Value::Long(self.seen));
                    Ok(())
                }
                "_on_stroke" => {
                    self.seen += 1;
                    Ok(())
                }
                o => Err(OrbError::BadOperation(o.into())),
            }
        }
    }

    fn orb() -> LocalOrb {
        LocalOrb::new(Arc::new(compile(IDL).unwrap()))
    }

    #[test]
    fn invoke_and_state() {
        let orb = orb();
        let board = orb.activate(Box::new(BoardImpl { strokes: 0 }));
        orb.invoke(&board, "draw", &[Value::Long(1), Value::Long(2)]).unwrap();
        orb.invoke(&board, "draw", &[Value::Long(3), Value::Long(4)]).unwrap();
        let out = orb.invoke(&board, "count", &[]).unwrap();
        assert_eq!(out.ret, Value::Long(2));
        assert_eq!(orb.request_bytes(), 16, "two draws of two longs; count has no arguments");
    }

    #[test]
    fn events_fan_out_to_subscribers() {
        let orb = orb();
        let board = orb.activate(Box::new(BoardImpl { strokes: 0 }));
        orb.bind_event_port(&board, "stroked", "IDL:Stroke:1.0");
        let v1 = orb.activate(Box::new(ViewerImpl { seen: 0 }));
        let v2 = orb.activate(Box::new(ViewerImpl { seen: 0 }));
        orb.subscribe("IDL:Stroke:1.0", &v1, "_on_stroke");
        orb.subscribe("IDL:Stroke:1.0", &v2, "_on_stroke");

        let seen = |v: &ObjectRef| orb.invoke(v, "seen", &[]).map(|out| out.ret);
        orb.invoke(&board, "draw", &[Value::Long(0), Value::Long(0)]).unwrap();
        assert_eq!((seen(&v1), seen(&v2)), (Ok(Value::Long(1)), Ok(Value::Long(1))));
        orb.invoke(&board, "draw", &[Value::Long(1), Value::Long(1)]).unwrap();
        assert_eq!((seen(&v1), seen(&v2)), (Ok(Value::Long(2)), Ok(Value::Long(2))));
    }

    #[test]
    fn publish_checks_event_type() {
        let orb = orb();
        let bad = Value::Struct { id: "IDL:Stroke:1.0".into(), fields: vec![Value::Long(1)] };
        assert!(matches!(
            orb.publish("IDL:Stroke:1.0", &bad),
            Err(OrbError::BadParam(_))
        ));
        let good = Value::Struct {
            id: "IDL:Stroke:1.0".into(),
            fields: vec![Value::Long(1), Value::Long(2)],
        };
        assert_eq!(orb.publish("IDL:Stroke:1.0", &good).unwrap(), 0);
    }

    #[test]
    fn marshalled_invoke_round_trips() {
        let orb = orb();
        let board = orb.activate(Box::new(BoardImpl { strokes: 0 }));
        orb.invoke_marshalled(&board, "draw", &[Value::Long(7), Value::Long(8)]).unwrap();
        let out = orb.invoke_marshalled(&board, "count", &[]).unwrap();
        assert_eq!(out.ret, Value::Long(1));
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "LocalOrb is the one thread-safe ORB; this is its test")]
    fn concurrent_invocations() {
        let orb = orb();
        let board = orb.activate(Box::new(BoardImpl { strokes: 0 }));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let orb = orb.clone();
                let board = board.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        orb.invoke(&board, "draw", &[Value::Long(0), Value::Long(0)]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let out = orb.invoke(&board, "count", &[]).unwrap();
        assert_eq!(out.ret, Value::Long(800));
    }

    /// Asks a board for its count on `refresh`, keeps every `_reply`.
    struct AskerImpl {
        board: ObjectRef,
        replies: Arc<Mutex<Vec<Vec<Value>>>>,
    }
    impl Servant for AskerImpl {
        fn interface_id(&self) -> &str {
            "IDL:Viewer:1.0"
        }
        fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
            match inv.op {
                "refresh" => {
                    inv.call_request(self.board.clone(), "count", Vec::new(), 7);
                    Ok(())
                }
                "_reply" => {
                    self.replies.lock().unwrap().push(inv.args.to_vec());
                    Ok(())
                }
                o => Err(OrbError::BadOperation(o.into())),
            }
        }
    }

    #[test]
    fn request_out_call_is_answered_with_reply() {
        let orb = orb();
        let board = orb.activate(Box::new(BoardImpl { strokes: 0 }));
        orb.invoke(&board, "draw", &[Value::Long(1), Value::Long(2)]).unwrap();
        let replies = Arc::default();
        let asker = orb.activate(Box::new(AskerImpl { board, replies: Arc::clone(&replies) }));
        orb.invoke(&asker, "refresh", &[]).unwrap();
        let expect = [Value::ULongLong(7), Value::Boolean(true), Value::Long(1)];
        assert_eq!(*replies.lock().unwrap(), [expect.to_vec()]);
    }

    #[test]
    fn deactivate_stops_dispatch() {
        let orb = orb();
        let board = orb.activate(Box::new(BoardImpl { strokes: 0 }));
        orb.deactivate(&board);
        assert!(matches!(
            orb.invoke(&board, "count", &[]),
            Err(OrbError::ObjectNotExist)
        ));
        assert_eq!(orb.active_count(), 0);
    }
}
