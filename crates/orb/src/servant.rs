//! Servants and the object adapter.
//!
//! A [`Servant`] is the implementation object behind an [`ObjectRef`]; the
//! [`ObjectAdapter`] is the per-host table that activates servants,
//! assigns object ids and dispatches incoming requests to them — the
//! lightweight analogue of a CORBA POA.
//!
//! Dispatch is *metadata-checked*: the adapter looks the operation up in
//! the IDL [`Repository`], verifies argument arity and types, runs the
//! servant, and verifies the result types. A servant can therefore never
//! smuggle an ill-typed value onto the wire, which is what lets the
//! component layer treat port connections as statically typed.

use crate::name::Name;
use crate::object::{ObjectKey, ObjectRef, OrbError};
use crate::value::{check_value, Value};
use lc_idl::ast::ParamMode;
use lc_idl::Repository;
use lc_net::HostId;
use lc_trace::Tracer;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

/// The result of a successful invocation: the return value plus the
/// `out`/`inout` parameter values in declaration order.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Outcome {
    /// Return value (`Value::Void` for void operations).
    pub ret: Value,
    /// `out` and `inout` values in declaration order.
    pub outs: Vec<Value>,
}

/// A follow-up call issued by a servant during dispatch.
///
/// Servants cannot block on nested remote calls (the simulation is
/// event-driven), so they enqueue out-calls; the hosting runtime sends
/// them when dispatch returns. Replies to [`OutCallKind::Request`] calls
/// come back as later dispatches of the servant's `_reply` operation,
/// with the arguments [`reply_args`] builds.
#[derive(Debug)]
pub struct OutCall {
    /// Callee.
    pub target: ObjectRef,
    /// Operation name, built once here and moved onto the wire.
    pub op: Name,
    /// `in`/`inout` arguments.
    pub args: Vec<Value>,
    /// Fire-and-forget or request/reply.
    pub kind: OutCallKind,
}

/// The arguments of the `_reply` dispatch that answers a
/// [`OutCallKind::Request`]: `(token, ok, ret, outs…)` for a result,
/// `(token, false)` for a failure.
pub fn reply_args(token: u64, result: Result<Outcome, OrbError>) -> Vec<Value> {
    let mut args = vec![Value::ULongLong(token), Value::Boolean(result.is_ok())];
    if let Ok(out) = result {
        args.push(out.ret);
        args.extend(out.outs);
    }
    args
}

/// How an [`OutCall`] is performed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OutCallKind {
    /// No reply expected.
    OneWay,
    /// Reply routed back to the issuing servant tagged with this token.
    Request {
        /// Correlation token chosen by the servant.
        token: u64,
    },
}

/// Everything a servant sees and produces during one dispatch.
pub struct Invocation<'a> {
    /// Operation name.
    pub op: &'a str,
    /// `in`/`inout` argument values in declaration order.
    pub args: &'a [Value],
    /// Return value to be sent (set via [`Invocation::set_ret`]).
    ret: Value,
    /// Out parameter values (pushed via [`Invocation::push_out`]).
    outs: Vec<Value>,
    /// Follow-up calls for the runtime to send after dispatch.
    pub outbox: Vec<OutCall>,
    /// Events emitted through event source ports: `(port name, payload)`.
    pub events: Vec<(String, Value)>,
    /// CPU time this operation consumes on the hosting node, in
    /// *reference-CPU* units; the node runtime scales it by the host's
    /// CPU power and delays the reply accordingly. Zero for free ops.
    pub cpu_cost: lc_des::SimTime,
    /// Virtual time of the dispatch ([`DispatchEnv::now`], passed by the
    /// hosting runtime; zero under the loopback ORB).
    pub now: lc_des::SimTime,
}

impl<'a> Invocation<'a> {
    /// Build an invocation context (used by adapters and tests).
    pub fn new(op: &'a str, args: &'a [Value]) -> Self {
        Invocation {
            op,
            args,
            ret: Value::Void,
            outs: Vec::new(),
            outbox: Vec::new(),
            events: Vec::new(),
            cpu_cost: lc_des::SimTime::ZERO,
            now: lc_des::SimTime::ZERO,
        }
    }

    /// Set the return value.
    pub fn set_ret(&mut self, v: Value) {
        self.ret = v;
    }

    /// Append the next `out`/`inout` value.
    pub fn push_out(&mut self, v: Value) {
        self.outs.push(v);
    }

    /// Emit an event through the named event-source port.
    pub fn emit(&mut self, port: &str, payload: Value) {
        self.events.push((port.to_owned(), payload));
    }

    /// Declare the CPU cost of this operation (reference-CPU time).
    pub fn set_cpu_cost(&mut self, t: lc_des::SimTime) {
        self.cpu_cost = t;
    }

    /// Enqueue a oneway out-call.
    pub fn call_oneway(&mut self, target: ObjectRef, op: &str, args: Vec<Value>) {
        self.outbox.push(OutCall { target, op: Name::from(op), args, kind: OutCallKind::OneWay });
    }

    /// Enqueue a request/reply out-call; the reply arrives later as a
    /// dispatch of `_reply` ([`reply_args`]: `token` first).
    pub fn call_request(&mut self, target: ObjectRef, op: &str, args: Vec<Value>, token: u64) {
        self.outbox.push(OutCall {
            target,
            op: Name::from(op),
            args,
            kind: OutCallKind::Request { token },
        });
    }

    fn into_parts(self) -> (Outcome, Vec<OutCall>, Vec<(String, Value)>, lc_des::SimTime) {
        (Outcome { ret: self.ret, outs: self.outs }, self.outbox, self.events, self.cpu_cost)
    }
}

/// An object implementation.
///
/// `Any` is a supertrait so hosting runtimes can downcast a servant to
/// its concrete type for reflection and experiment observation.
pub trait Servant: Send + Any {
    /// Repository id of the most-derived interface this servant
    /// implements.
    fn interface_id(&self) -> &str;

    /// Handle one operation. Read `inv.args`, write results with
    /// `inv.set_ret` / `inv.push_out`, optionally enqueue out-calls and
    /// events.
    fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError>;
}

/// What one dispatch reads of the runtime that hosts the adapter, which
/// owns all three: the interface repository the call is checked
/// against, the virtual time servants see, and the tracer its span goes
/// under (`None`: untraced).
#[derive(Clone, Copy)]
pub struct DispatchEnv<'a> {
    /// The IDL repository (the hosting node's, merged installs included).
    pub repo: &'a Repository,
    /// Virtual time of the dispatch.
    pub now: lc_des::SimTime,
    /// Where the dispatch span is recorded, under the tracer's current
    /// context.
    pub tracer: Option<&'a Tracer>,
}

/// How [`ObjectAdapter::invoke`] performs a dispatch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DispatchOpts {
    /// Verify the operation against the IDL repository (argument arity
    /// and types on the way in, return/out types on the way out). Off
    /// for runtime-internal system operations (`_reply`, `_push_*`, …)
    /// that are not part of any IDL interface; `None` leaves the choice
    /// to the adapter, per operation ([`DispatchOpts::wire`]).
    pub type_check: Option<bool>,
}

impl Default for DispatchOpts {
    fn default() -> Self {
        Self::typed()
    }
}

impl DispatchOpts {
    /// Full IDL-checked dispatch (the default).
    pub fn typed() -> Self {
        DispatchOpts { type_check: Some(true) }
    }

    /// Unchecked dispatch for runtime-internal system operations.
    pub fn raw() -> Self {
        DispatchOpts { type_check: Some(false) }
    }

    /// A request off the wire, which may name either kind: checked if
    /// the servant's interface declares the operation (attribute
    /// accessors `_get_x` are declared) or its name does not start with
    /// `_`, unchecked otherwise (`_connect_*`, `_reply`, `_get_state`, …).
    /// The adapter decides with the lookup the check itself needs.
    pub fn wire() -> Self {
        DispatchOpts { type_check: None }
    }
}

/// Everything produced by a dispatch, for the hosting runtime to act on.
#[derive(Debug)]
pub struct DispatchResult {
    /// The reply to send (or the error to send as a system exception).
    pub outcome: Result<Outcome, OrbError>,
    /// Out-calls to perform.
    pub outbox: Vec<OutCall>,
    /// Events to publish.
    pub events: Vec<(String, Value)>,
    /// Declared CPU cost of the dispatch (reference-CPU time).
    pub cpu_cost: lc_des::SimTime,
}

/// An adapter's dispatch counters, for the E1 report and `.perf`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Type-checked IDL dispatches.
    pub typed: u64,
    /// Raw system-op dispatches (`_connect_*`, `_reply`, `_push_*`, …).
    pub raw: u64,
    /// Dispatches that produced an error outcome.
    pub errors: u64,
}

impl DispatchStats {
    /// Total dispatches, typed + raw.
    pub fn total(&self) -> u64 {
        self.typed + self.raw
    }
}

/// The per-host servant table. It holds servants and their ids only:
/// the repository, the time and the tracer a dispatch reads belong to
/// the hosting runtime and arrive with each call ([`DispatchEnv`]).
pub struct ObjectAdapter {
    host: HostId,
    next_oid: u64,
    servants: BTreeMap<u64, Box<dyn Servant>>,
    /// The repository id of every interface activated here, each held
    /// once and shared by every reference to its servants.
    type_ids: BTreeSet<Name>,
    stats: DispatchStats,
}

impl ObjectAdapter {
    /// New, empty adapter for `host`.
    pub fn new(host: HostId) -> Self {
        ObjectAdapter {
            host,
            next_oid: 1,
            servants: BTreeMap::new(),
            type_ids: BTreeSet::new(),
            stats: DispatchStats::default(),
        }
    }

    /// Dispatch counters since creation.
    pub fn dispatch_stats(&self) -> DispatchStats {
        self.stats
    }

    /// Downcast a servant to its concrete type (reflection/observation).
    pub fn servant_as<T: Any>(&self, oid: u64) -> Option<&T> {
        let s: &dyn Servant = self.servants.get(&oid)?.as_ref();
        (s as &dyn Any).downcast_ref::<T>()
    }

    /// The host this adapter serves.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Activate a servant, returning its reference.
    ///
    /// Panics if the servant's `type_id` is not in `repo` — that is a
    /// programming error, not a runtime condition.
    pub fn activate(&mut self, repo: &Repository, servant: Box<dyn Servant>) -> ObjectRef {
        let interface = servant.interface_id();
        assert!(
            repo.interface(interface).is_some(),
            "servant type '{interface}' not in IDL repository"
        );
        let type_id = match self.type_ids.get(interface) {
            Some(known) => known.clone(),
            None => {
                let fresh = Name::from(interface);
                self.type_ids.insert(fresh.clone());
                fresh
            }
        };
        let oid = self.next_oid;
        self.next_oid += 1;
        self.servants.insert(oid, servant);
        ObjectRef { key: ObjectKey { host: self.host, oid }, type_id }
    }

    /// Deactivate (destroy) a servant. Returns it if it was active.
    pub fn deactivate(&mut self, oid: u64) -> Option<Box<dyn Servant>> {
        self.servants.remove(&oid)
    }

    /// Number of active servants.
    pub fn active_count(&self) -> usize {
        self.servants.len()
    }

    /// Borrow a servant's state (for reflection / tests).
    pub fn servant(&self, oid: u64) -> Option<&dyn Servant> {
        self.servants.get(&oid).map(|b| b.as_ref())
    }

    /// The single dispatch entrypoint: run `op` on the servant at `key`
    /// according to `opts` — type-checked against `env.repo`
    /// ([`DispatchOpts::typed`]), unchecked for runtime-internal system
    /// operations ([`DispatchOpts::raw`]), or whichever of the two the
    /// operation calls for ([`DispatchOpts::wire`]).
    pub fn invoke(
        &mut self,
        env: DispatchEnv<'_>,
        key: ObjectKey,
        op: &str,
        args: &[Value],
        opts: DispatchOpts,
    ) -> DispatchResult {
        let (typed, res) = self.resolve_and_run(env, key, op, args, opts);
        if typed {
            self.stats.typed += 1;
        } else {
            self.stats.raw += 1;
        }
        if res.outcome.is_err() {
            self.stats.errors += 1;
        }
        // Dispatch span: virtual interval [now, now + declared CPU
        // cost], under whatever operation is being traced right now.
        let traced = env.tracer.and_then(|t| Some((t, t.current()?)));
        if let Some((tracer, parent)) = traced {
            let (name, end) = (format!("orb.invoke {op}"), env.now + res.cpu_cost);
            if let Some(sp) = tracer.complete(self.host.0, &name, Some(parent), env.now, end) {
                tracer.set_attr(sp, "kind", if typed { "typed" } else { "raw" });
                if res.outcome.is_err() {
                    tracer.set_attr(sp, "error", "true");
                }
            }
        }
        res
    }

    /// Resolve servant → interface → operation once, settle typed or raw
    /// from it, and run the servant. Returns whether the dispatch was
    /// type-checked.
    fn resolve_and_run(
        &mut self,
        env: DispatchEnv<'_>,
        key: ObjectKey,
        op: &str,
        args: &[Value],
        opts: DispatchOpts,
    ) -> (bool, DispatchResult) {
        let repo = env.repo;
        let servant = self.servants.get_mut(&key.oid);
        // A raw dispatch needs no metadata; the other two kinds share
        // this one lookup between the decision and the checks.
        let iface = servant
            .as_deref()
            .filter(|_| opts.type_check != Some(false))
            .and_then(|s| repo.interface(s.interface_id()));
        let opmeta = iface.and_then(|i| i.op(op));
        let typed = opts.type_check.unwrap_or(opmeta.is_some() || !op.starts_with('_'));
        let fail = |e: OrbError| {
            let res = DispatchResult {
                outcome: Err(e),
                outbox: Vec::new(),
                events: Vec::new(),
                cpu_cost: lc_des::SimTime::ZERO,
            };
            (typed, res)
        };
        let Some(servant) = servant.filter(|_| key.host == self.host) else {
            return fail(OrbError::ObjectNotExist);
        };
        let mut inv = Invocation::new(op, args);
        inv.now = env.now;
        if !typed {
            let run = servant.dispatch(&mut inv);
            let (outcome, outbox, events, cpu_cost) = inv.into_parts();
            let outcome = run.map(|()| outcome);
            return (typed, DispatchResult { outcome, outbox, events, cpu_cost });
        }
        let Some(opmeta) = opmeta else {
            let type_id = servant.interface_id();
            return fail(match iface {
                None => OrbError::Internal(format!("unknown interface {type_id}")),
                Some(_) => OrbError::BadOperation(format!("{type_id} has no operation '{op}'")),
            });
        };

        // Check in/inout argument values.
        let ins = || {
            opmeta.params.iter().filter(|p| matches!(p.mode, ParamMode::In | ParamMode::InOut))
        };
        if args.len() != ins().count() {
            return fail(OrbError::BadParam(format!(
                "{op}: expected {} in/inout args, got {}",
                ins().count(),
                args.len()
            )));
        }
        for (a, p) in args.iter().zip(ins()) {
            if let Err(e) = check_value(a, &p.ty, repo) {
                return fail(OrbError::BadParam(format!("{op}({}): {e}", p.name)));
            }
        }

        let run = servant.dispatch(&mut inv);
        let (outcome, outbox, events, cpu_cost) = inv.into_parts();
        // Check results.
        let outs = || {
            opmeta.params.iter().filter(|p| matches!(p.mode, ParamMode::Out | ParamMode::InOut))
        };
        let checked = run.and_then(|()| {
            check_value(&outcome.ret, &opmeta.ret, repo)
                .map_err(|e| OrbError::Internal(format!("{op} return: {e}")))?;
            if outcome.outs.len() != outs().count() {
                return Err(OrbError::Internal(format!(
                    "{op}: servant produced {} out values, expected {}",
                    outcome.outs.len(),
                    outs().count()
                )));
            }
            for (v, p) in outcome.outs.iter().zip(outs()) {
                check_value(v, &p.ty, repo)
                    .map_err(|e| OrbError::Internal(format!("{op} out {}: {e}", p.name)))?;
            }
            Ok(())
        });
        let outcome = checked.map(|()| outcome);
        (typed, DispatchResult { outcome, outbox, events, cpu_cost })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_idl::compile;

    const IDL: &str = r#"
        interface Counter {
          long add(in long delta, out long total);
          oneway void poke(in string who);
          readonly attribute long value;
        };
    "#;

    /// A counter servant exercising returns, out params and events.
    struct CounterImpl {
        total: i64,
        pokes: Vec<String>,
    }

    impl Servant for CounterImpl {
        fn interface_id(&self) -> &str {
            "IDL:Counter:1.0"
        }
        fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
            match inv.op {
                "add" => {
                    let delta = inv.args[0].as_long().expect("checked") as i64;
                    self.total += delta;
                    inv.set_ret(Value::Long(delta as i32));
                    inv.push_out(Value::Long(self.total as i32));
                    inv.emit("changed", Value::Long(self.total as i32));
                    Ok(())
                }
                "poke" => {
                    self.pokes.push(inv.args[0].as_str().expect("checked").to_owned());
                    Ok(())
                }
                "_get_value" => {
                    inv.set_ret(Value::Long(self.total as i32));
                    Ok(())
                }
                other => Err(OrbError::BadOperation(other.to_owned())),
            }
        }
    }

    /// An adapter with the repository its host would pass it, at time
    /// zero and untraced.
    struct Host {
        oa: ObjectAdapter,
        repo: Repository,
    }

    impl Host {
        fn new() -> Self {
            Host { oa: ObjectAdapter::new(HostId(0)), repo: compile(IDL).unwrap() }
        }

        fn activate(&mut self, servant: Box<dyn Servant>) -> ObjectRef {
            self.oa.activate(&self.repo, servant)
        }

        fn invoke(
            &mut self,
            key: ObjectKey,
            op: &str,
            args: &[Value],
            opts: DispatchOpts,
        ) -> DispatchResult {
            let env = DispatchEnv { repo: &self.repo, now: lc_des::SimTime::ZERO, tracer: None };
            self.oa.invoke(env, key, op, args, opts)
        }
    }

    impl std::ops::Deref for Host {
        type Target = ObjectAdapter;
        fn deref(&self) -> &ObjectAdapter {
            &self.oa
        }
    }

    impl std::ops::DerefMut for Host {
        fn deref_mut(&mut self) -> &mut ObjectAdapter {
            &mut self.oa
        }
    }

    fn adapter() -> (Host, ObjectRef) {
        let mut oa = Host::new();
        let r = oa.activate(Box::new(CounterImpl { total: 0, pokes: vec![] }));
        (oa, r)
    }

    #[test]
    fn typed_dispatch_happy_path() {
        let (mut oa, r) = adapter();
        let res = oa.invoke(r.key, "add", &[Value::Long(5)], DispatchOpts::typed());
        let out = res.outcome.unwrap();
        assert_eq!(out.ret, Value::Long(5));
        assert_eq!(out.outs, vec![Value::Long(5)]);
        assert_eq!(res.events.len(), 1);
        assert_eq!(res.events[0].0, "changed");
        let res2 = oa.invoke(r.key, "_get_value", &[], DispatchOpts::typed());
        assert_eq!(res2.outcome.unwrap().ret, Value::Long(5));
    }

    #[test]
    fn bad_args_rejected_before_servant_runs() {
        let (mut oa, r) = adapter();
        let res = oa.invoke(r.key, "add", &[Value::string("five")], DispatchOpts::typed());
        assert!(matches!(res.outcome, Err(OrbError::BadParam(_))));
        let res2 = oa.invoke(r.key, "add", &[], DispatchOpts::typed());
        assert!(matches!(res2.outcome, Err(OrbError::BadParam(_))));
        // servant state untouched
        let v = oa.invoke(r.key, "_get_value", &[], DispatchOpts::typed()).outcome.unwrap();
        assert_eq!(v.ret, Value::Long(0));
    }

    #[test]
    fn unknown_op_and_object() {
        let (mut oa, r) = adapter();
        assert!(matches!(
            oa.invoke(r.key, "nope", &[], DispatchOpts::typed()).outcome,
            Err(OrbError::BadOperation(_))
        ));
        let bad_key = ObjectKey { host: HostId(0), oid: 999 };
        assert!(matches!(
            oa.invoke(bad_key, "add", &[Value::Long(1)], DispatchOpts::typed()).outcome,
            Err(OrbError::ObjectNotExist)
        ));
        let wrong_host = ObjectKey { host: HostId(5), oid: r.key.oid };
        assert!(matches!(
            oa.invoke(wrong_host, "add", &[Value::Long(1)], DispatchOpts::typed()).outcome,
            Err(OrbError::ObjectNotExist)
        ));
    }

    #[test]
    fn deactivate_kills_object() {
        let (mut oa, r) = adapter();
        assert!(oa.servant(r.key.oid).is_some());
        assert!(oa.deactivate(r.key.oid).is_some());
        assert!(oa.servant(r.key.oid).is_none());
        assert!(matches!(
            oa.invoke(r.key, "add", &[Value::Long(1)], DispatchOpts::typed()).outcome,
            Err(OrbError::ObjectNotExist)
        ));
        assert!(oa.deactivate(r.key.oid).is_none());
    }

    #[test]
    fn result_type_violations_are_internal_errors() {
        struct Liar;
        impl Servant for Liar {
            fn interface_id(&self) -> &str {
                "IDL:Counter:1.0"
            }
            fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
                // Claims to implement add but returns a string and no out.
                inv.set_ret(Value::string("lie"));
                Ok(())
            }
        }
        let mut oa = Host::new();
        let r = oa.activate(Box::new(Liar));
        let res = oa.invoke(r.key, "add", &[Value::Long(1)], DispatchOpts::typed());
        assert!(matches!(res.outcome, Err(OrbError::Internal(_))));
    }

    #[test]
    #[should_panic(expected = "not in IDL repository")]
    fn activating_unknown_type_panics() {
        struct Ghost;
        impl Servant for Ghost {
            fn interface_id(&self) -> &str {
                "IDL:Ghost:1.0"
            }
            fn dispatch(&mut self, _inv: &mut Invocation<'_>) -> Result<(), OrbError> {
                Ok(())
            }
        }
        let mut oa = Host::new();
        let _ = oa.activate(Box::new(Ghost));
    }

    #[test]
    fn raw_dispatch_skips_interface_check() {
        let (mut oa, r) = adapter();
        // `_reply` is not an IDL operation but raw dispatch reaches the
        // servant, which rejects it itself here.
        let res = oa.invoke(r.key, "_reply", &[Value::Long(1)], DispatchOpts::raw());
        assert!(matches!(res.outcome, Err(OrbError::BadOperation(_))));
    }

    #[test]
    fn invoke_buckets_stats_by_opts() {
        let (mut oa, r) = adapter();
        let _ = oa.invoke(r.key, "add", &[Value::Long(1)], DispatchOpts::typed());
        let _ = oa.invoke(r.key, "_get_value", &[], DispatchOpts::raw());
        let s = oa.dispatch_stats();
        assert_eq!((s.typed, s.raw), (1, 1));
    }

    #[test]
    fn wire_dispatch_settles_typed_or_raw_per_operation() {
        let (mut oa, r) = adapter();
        let typed_raw = |oa: &Host| (oa.dispatch_stats().typed, oa.dispatch_stats().raw);
        // Declared operations, attribute accessors included, are checked…
        let bad = oa.invoke(r.key, "add", &[Value::string("five")], DispatchOpts::wire());
        assert!(matches!(bad.outcome, Err(OrbError::BadParam(_))));
        let got = oa.invoke(r.key, "_get_value", &[], DispatchOpts::wire());
        assert_eq!(got.outcome.unwrap().ret, Value::Long(0));
        // …and so is anything that does not look like a system op.
        let nope = oa.invoke(r.key, "nope", &[], DispatchOpts::wire());
        assert!(matches!(nope.outcome, Err(OrbError::BadOperation(m)) if m.contains("Counter")));
        assert_eq!(typed_raw(&oa), (3, 0));
        // An undeclared `_` name goes to the servant unchecked (its own
        // `BadOperation` carries the bare name), object or no object.
        let sys = oa.invoke(r.key, "_reply", &[Value::Long(1)], DispatchOpts::wire());
        assert_eq!(sys.outcome, Err(OrbError::BadOperation("_reply".into())));
        let ghost = ObjectKey { host: HostId(0), oid: 999 };
        let gone = oa.invoke(ghost, "_reply", &[], DispatchOpts::wire());
        assert_eq!(gone.outcome, Err(OrbError::ObjectNotExist));
        assert_eq!(typed_raw(&oa), (3, 2));
    }

    #[test]
    fn stats_count_errors() {
        let (mut oa, r) = adapter();
        let _ = oa.invoke(r.key, "add", &[Value::Long(2)], DispatchOpts::typed());
        let _ = oa.invoke(r.key, "nope", &[], DispatchOpts::typed());
        assert_eq!(oa.dispatch_stats(), DispatchStats { typed: 2, raw: 0, errors: 1 });
        assert_eq!(oa.dispatch_stats().total(), 2);
    }

    #[test]
    fn outcalls_collected() {
        struct Chainer {
            peer: ObjectRef,
        }
        impl Servant for Chainer {
            fn interface_id(&self) -> &str {
                "IDL:Counter:1.0"
            }
            fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
                match inv.op {
                    "poke" => {
                        inv.call_oneway(self.peer.clone(), "poke", vec![Value::string("fwd")]);
                        inv.call_request(self.peer.clone(), "add", vec![Value::Long(1)], 42);
                        Ok(())
                    }
                    _ => Err(OrbError::BadOperation(inv.op.to_owned())),
                }
            }
        }
        let mut oa = Host::new();
        let peer = oa.activate(Box::new(CounterImpl { total: 0, pokes: vec![] }));
        let chainer = oa.activate(Box::new(Chainer { peer: peer.clone() }));
        let res = oa.invoke(chainer.key, "poke", &[Value::string("go")], DispatchOpts::typed());
        assert!(res.outcome.is_ok());
        assert_eq!(res.outbox.len(), 2);
        assert_eq!(res.outbox[0].kind, OutCallKind::OneWay);
        assert_eq!(res.outbox[1].kind, OutCallKind::Request { token: 42 });
    }
}
