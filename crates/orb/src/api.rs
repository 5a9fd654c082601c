//! The unified invocation API: one [`Orb`] trait over every ORB flavour.
//!
//! E1's microbenchmarks and the unit tests want to exercise "an ORB"
//! without caring whether requests run through the in-process loopback
//! path ([`crate::LocalOrb`]) or over the simulated network
//! ([`crate::SimOrb`] plumbing inside a DES). The trait captures the
//! common surface — synchronous invoke, marshalled invoke, dispatch
//! counters — and [`SimOrbClient`] packages the sim side as a
//! self-contained harness (its own [`Sim`], fabric and server host) so
//! both flavours satisfy it.

use crate::cdr::{Decoder, Encoder};
use crate::name::Name;
use crate::object::{ObjectKey, ObjectRef, OrbError};
use crate::servant::{DispatchOpts, DispatchStats, ObjectAdapter, Outcome, Servant};
use crate::sim::{OrbWire, SimOrb};
use crate::value::Value;
use lc_idl::ast::ParamMode;
use lc_idl::types::OpMeta;
use lc_idl::Repository;
use lc_net::{HostCfg, Net, NetMsg, Topology};
use lc_des::{Actor, ActorId, Ctx, Mail, Sim, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// What every ORB flavour can do.
pub trait Orb {
    /// Invoke `op` on `target` synchronously with full type checking.
    fn invoke(&self, target: &ObjectRef, op: &str, args: &[Value]) -> Result<Outcome, OrbError>;

    /// Invoke with a CDR encode/decode round-trip of arguments and
    /// results — the CPU cost a remote call pays for marshalling.
    fn invoke_marshalled(
        &self,
        target: &ObjectRef,
        op: &str,
        args: &[Value],
    ) -> Result<Outcome, OrbError>;

    /// Dispatch counters of the underlying object adapter.
    fn dispatch_stats(&self) -> DispatchStats;
}

/// Look up the operation metadata for `op` on `type_id`.
pub(crate) fn op_meta<'r>(
    repo: &'r Repository,
    type_id: &str,
    op: &str,
) -> Result<&'r OpMeta, OrbError> {
    let iface = repo
        .interface(type_id)
        .ok_or_else(|| OrbError::Internal(format!("unknown interface {type_id}")))?;
    iface.op(op).ok_or_else(|| OrbError::BadOperation(op.to_owned()))
}

/// CDR-encode then decode the `in`/`inout` arguments via the op signature.
pub(crate) fn cdr_round_trip_in_args(
    repo: &Arc<Repository>,
    opmeta: &OpMeta,
    args: &[Value],
) -> Result<Vec<Value>, OrbError> {
    let mut enc = Encoder::new();
    for a in args {
        enc.value(a);
    }
    let bytes = enc.into_bytes();
    let mut dec = Decoder::new(&bytes, repo);
    let mut decoded = Vec::with_capacity(args.len());
    for p in opmeta
        .params
        .iter()
        .filter(|p| matches!(p.mode, ParamMode::In | ParamMode::InOut))
    {
        decoded.push(dec.value(&p.ty).map_err(|e| OrbError::BadParam(e.to_string()))?);
    }
    Ok(decoded)
}

/// CDR-encode then decode the return and `out`/`inout` values.
pub(crate) fn cdr_round_trip_outcome(
    repo: &Arc<Repository>,
    opmeta: &OpMeta,
    outcome: &Outcome,
) -> Result<Outcome, OrbError> {
    let mut enc = Encoder::new();
    enc.value(&outcome.ret);
    for o in &outcome.outs {
        enc.value(o);
    }
    let bytes = enc.into_bytes();
    let mut dec = Decoder::new(&bytes, repo);
    let ret = dec.value(&opmeta.ret).map_err(|e| OrbError::Internal(e.to_string()))?;
    let mut outs = Vec::with_capacity(outcome.outs.len());
    for p in opmeta
        .params
        .iter()
        .filter(|p| matches!(p.mode, ParamMode::Out | ParamMode::InOut))
    {
        outs.push(dec.value(&p.ty).map_err(|e| OrbError::Internal(e.to_string()))?);
    }
    Ok(Outcome { ret, outs })
}

impl Orb for crate::LocalOrb {
    fn invoke(&self, target: &ObjectRef, op: &str, args: &[Value]) -> Result<Outcome, OrbError> {
        crate::LocalOrb::invoke(self, target, op, args)
    }

    fn invoke_marshalled(
        &self,
        target: &ObjectRef,
        op: &str,
        args: &[Value],
    ) -> Result<Outcome, OrbError> {
        crate::LocalOrb::invoke_marshalled(self, target, op, args)
    }

    fn dispatch_stats(&self) -> DispatchStats {
        crate::LocalOrb::dispatch_stats(self)
    }
}

type ReplySlot = Rc<RefCell<Option<Result<Outcome, OrbError>>>>;

/// Server side of the harness: the object adapter behind the fabric.
struct ServerActor {
    host: lc_net::HostId,
    orb: SimOrb,
    adapter: ObjectAdapter,
}

impl Actor for ServerActor {
    fn handle_mail(&mut self, ctx: &mut Ctx<'_>, mail: Mail<'_>) {
        let Ok(m) = ctx.open::<NetMsg<OrbWire>>(mail) else {
            return; // not ours: the fabric only delivers ORB frames here
        };
        if let OrbWire::Request { id, reply_to, target, op, args } = m.payload {
            self.adapter.set_clock(ctx.now());
            let res = self.adapter.invoke(target, &op, &args, DispatchOpts::typed());
            if let Some(back) = reply_to {
                let reply = OrbWire::Reply { id, result: res.outcome };
                let _ = self.orb.send(ctx, self.host, back, reply);
            }
        }
    }
}

/// One synchronous call for the client actor to perform.
struct DoCall {
    target: ObjectKey,
    op: Name,
    args: Vec<Value>,
}

/// Client side: sends the request, parks the reply in the shared slot.
struct ClientActor {
    host: lc_net::HostId,
    orb: SimOrb,
    slot: ReplySlot,
}

impl Actor for ClientActor {
    fn handle_mail(&mut self, ctx: &mut Ctx<'_>, mail: Mail<'_>) {
        match ctx.open::<DoCall>(mail) {
            Ok(call) => {
                let request = OrbWire::Request {
                    id: self.orb.fresh_id(),
                    reply_to: Some(self.host),
                    target: call.target,
                    op: call.op,
                    args: call.args,
                };
                if let Err(e) = self.orb.send(ctx, self.host, call.target.host, request) {
                    *self.slot.borrow_mut() = Some(Err(OrbError::from(e)));
                }
            }
            Err(other) => {
                let Ok(m) = ctx.open::<NetMsg<OrbWire>>(other) else {
                    return;
                };
                if let OrbWire::Reply { result, .. } = m.payload {
                    *self.slot.borrow_mut() = Some(result);
                }
            }
        }
    }
}

/// The [`SimOrb`] side of the [`Orb`] trait: a self-contained two-host
/// simulation (client + server LAN) whose `invoke` sends a real
/// [`OrbWire::Request`] through the fabric, runs the DES until the reply
/// lands, and returns it — the remote analogue of [`crate::LocalOrb`].
pub struct SimOrbClient {
    sim: RefCell<Sim>,
    repo: Arc<Repository>,
    server: ActorId,
    client: ActorId,
    slot: ReplySlot,
}

impl SimOrbClient {
    /// Build the harness: two hosts on one LAN, a server actor owning
    /// the adapter, a client actor issuing requests.
    pub fn new(repo: Arc<Repository>) -> Self {
        let mut topo = Topology::new();
        let s = topo.add_site("lan");
        let client_host = topo.add_host(HostCfg::new(s));
        let server_host = topo.add_host(HostCfg::new(s));
        let net = Net::builder(topo).build();
        let orb = SimOrb::new(net.clone());
        let mut sim = Sim::new(1);
        let server = sim.spawn(ServerActor {
            host: server_host,
            orb: orb.clone(),
            adapter: ObjectAdapter::new(server_host, repo.clone(), lc_trace::Tracer::disabled()),
        });
        net.bind(server_host, server);
        let slot: ReplySlot = Rc::default();
        let client =
            sim.spawn(ClientActor { host: client_host, orb, slot: slot.clone() });
        net.bind(client_host, client);
        SimOrbClient { sim: RefCell::new(sim), repo, server, client, slot }
    }

    /// Activate a servant on the server host.
    pub fn activate(&self, servant: Box<dyn Servant>) -> ObjectRef {
        match self.sim.borrow_mut().actor_as_mut::<ServerActor>(self.server) {
            Some(server) => server.adapter.activate(servant),
            None => unreachable!("the server actor lives as long as the harness"),
        }
    }

    /// The harness's simulation, for reading kernel and fabric counters
    /// (`events_fired`, `net.msgs`, `net.bytes`) around a call.
    pub fn sim(&self) -> std::cell::Ref<'_, Sim> {
        self.sim.borrow()
    }
}

impl Orb for SimOrbClient {
    fn invoke(&self, target: &ObjectRef, op: &str, args: &[Value]) -> Result<Outcome, OrbError> {
        let mut sim = self.sim.borrow_mut();
        self.slot.borrow_mut().take();
        let call = DoCall { target: target.key, op: Name::from(op), args: args.to_vec() };
        sim.send_in(SimTime::ZERO, self.client, call);
        sim.run();
        self.slot.borrow_mut().take().unwrap_or(Err(OrbError::Timeout))
    }

    fn invoke_marshalled(
        &self,
        target: &ObjectRef,
        op: &str,
        args: &[Value],
    ) -> Result<Outcome, OrbError> {
        let opmeta = op_meta(&self.repo, &target.type_id, op)?.clone();
        let decoded = cdr_round_trip_in_args(&self.repo, &opmeta, args)?;
        let outcome = Orb::invoke(self, target, op, &decoded)?;
        cdr_round_trip_outcome(&self.repo, &opmeta, &outcome)
    }

    fn dispatch_stats(&self) -> DispatchStats {
        self.sim
            .borrow()
            .actor_as::<ServerActor>(self.server)
            .map(|a| a.adapter.dispatch_stats())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::servant::Invocation;
    use crate::LocalOrb;
    use lc_idl::compile;

    const IDL: &str = "interface Adder { long add(in long a, in long b); };";

    struct AdderImpl;
    impl Servant for AdderImpl {
        fn interface_id(&self) -> &str {
            "IDL:Adder:1.0"
        }
        fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
            match inv.op {
                "add" => {
                    let (a, b) = (inv.args[0].as_long().unwrap(), inv.args[1].as_long().unwrap());
                    inv.set_ret(Value::Long(a + b));
                    Ok(())
                }
                o => Err(OrbError::BadOperation(o.into())),
            }
        }
    }

    /// The generic workload both flavours must agree on.
    fn exercise(orb: &dyn Orb, target: &ObjectRef) -> Vec<Result<Outcome, OrbError>> {
        vec![
            orb.invoke(target, "add", &[Value::Long(2), Value::Long(3)]),
            orb.invoke_marshalled(target, "add", &[Value::Long(40), Value::Long(2)]),
            orb.invoke(target, "add", &[Value::string("x"), Value::Long(1)]),
            orb.invoke(target, "nope", &[]),
        ]
    }

    #[test]
    fn local_and_sim_orbs_agree() {
        let repo = Arc::new(compile(IDL).unwrap());
        let local = LocalOrb::new(repo.clone());
        let l_ref = local.activate(Box::new(AdderImpl));
        let sim = SimOrbClient::new(repo);
        let s_ref = sim.activate(Box::new(AdderImpl));

        let l = exercise(&local, &l_ref);
        let s = exercise(&sim, &s_ref);
        assert_eq!(l, s);
        assert_eq!(l[0].as_ref().unwrap().ret, Value::Long(5));
        assert_eq!(l[1].as_ref().unwrap().ret, Value::Long(42));
        assert!(matches!(l[2], Err(OrbError::BadParam(_))));
        assert!(matches!(l[3], Err(OrbError::BadOperation(_))));

        // both adapters saw the same four typed dispatches minus the
        // client-side arg-marshalling failure? No: bad params still reach
        // the adapter (checked there), so both count 4 typed dispatches.
        assert_eq!(local.dispatch_stats().typed, 4);
        assert_eq!(sim.dispatch_stats().typed, 4);
    }

    #[test]
    fn sim_invoke_to_missing_object_fails() {
        let repo = Arc::new(compile(IDL).unwrap());
        let sim = SimOrbClient::new(repo);
        let r = sim.activate(Box::new(AdderImpl));
        let ghost = ObjectRef {
            key: ObjectKey { host: r.key.host, oid: 999 },
            type_id: r.type_id.clone(),
        };
        assert_eq!(
            Orb::invoke(&sim, &ghost, "add", &[Value::Long(1), Value::Long(1)]),
            Err(OrbError::ObjectNotExist)
        );
    }
}
