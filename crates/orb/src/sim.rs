//! ORB plumbing for the simulated network: GIOP-style request/reply
//! messages carried as [`lc_net::NetMsg`] payloads (`NetMsg<OrbWire>`).
//!
//! Host actors in `lc-core` own an [`crate::servant::ObjectAdapter`]; this
//! module provides the wire-message types ([`OrbWire`]), request id
//! allocation, and senders that charge the network with CDR-accurate byte
//! counts (header + marshalled arguments), mirroring what GIOP/IIOP would
//! put on a real LAN.
//!
//! The control flow is continuation-passing, as DES actors cannot block:
//! a caller records its pending request id, sends [`OrbWire::Request`],
//! and later receives [`OrbWire::Reply`] with the same id.

use crate::cdr::encoded_len;
use crate::name::Name;
use crate::object::{ObjectKey, OrbError};
use crate::servant::Outcome;
use crate::value::Value;
use lc_des::{Counter, Ctx, SimTime};
use lc_net::{DropReason, HostId, Net};
use std::cell::Cell;
use std::rc::Rc;

/// Fixed per-message header cost in bytes (GIOP header + request id +
/// object key + flags; the operation name is charged separately).
pub const HEADER_BYTES: u64 = 32;

/// Correlates a reply with its request.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RequestId(pub u64);

/// The ORB messages that travel inside [`lc_net::NetMsg`] payloads.
///
/// `Clone` because the fabric's fault plan may duplicate a message in
/// flight; the servant side suppresses duplicates by request id.
#[derive(Clone, Debug)]
pub enum OrbWire {
    /// An operation request.
    Request {
        /// Correlation id (unique per simulation).
        id: RequestId,
        /// Host to send the reply to (`None` for oneway).
        reply_to: Option<HostId>,
        /// Target servant.
        target: ObjectKey,
        /// Operation name.
        op: Name,
        /// `in`/`inout` arguments.
        args: Vec<Value>,
    },
    /// The reply to a request.
    Reply {
        /// Correlation id of the request.
        id: RequestId,
        /// Outcome or system exception.
        result: Result<Outcome, OrbError>,
    },
    /// A push-channel event delivery.
    Event {
        /// Payload: a struct value tagged with its event type's
        /// repository id, the one place the type travels.
        payload: Value,
        /// Consumer servant to deliver to.
        consumer: ObjectKey,
        /// Delivery operation on the consumer.
        delivery_op: String,
    },
}

impl OrbWire {
    /// What the network is charged for this message: the GIOP-style
    /// header plus the CDR size of what it carries.
    pub fn wire_size(&self) -> u64 {
        match self {
            OrbWire::Request { op, args, .. } => SimOrb::request_size(op, args),
            OrbWire::Reply { result, .. } => SimOrb::reply_size(result),
            OrbWire::Event { payload, .. } => {
                HEADER_BYTES + crate::events::event_wire_size(payload)
            }
        }
    }
}

/// Shared request-id allocator + sender for one simulation.
#[derive(Clone)]
pub struct SimOrb {
    net: Net,
    /// The next request id, shared by every clone.
    next_id: Rc<Cell<u64>>,
}

impl SimOrb {
    /// New ORB plumbing over `net`.
    pub fn new(net: Net) -> Self {
        SimOrb { net, next_id: Rc::new(Cell::new(1)) }
    }

    /// The network fabric.
    pub fn net(&self) -> &Net {
        &self.net
    }

    /// Allocate a fresh request id. A retry re-sends under the first
    /// attempt's id — that is what lets the servant side recognise and
    /// suppress duplicates.
    pub fn fresh_id(&self) -> RequestId {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        RequestId(id)
    }

    /// Wire size of a request.
    pub fn request_size(op: &str, args: &[Value]) -> u64 {
        HEADER_BYTES + op.len() as u64 + encoded_len(args)
    }

    /// Wire size of a reply.
    pub fn reply_size(result: &Result<Outcome, OrbError>) -> u64 {
        match result {
            Ok(out) => HEADER_BYTES + encoded_len(std::iter::once(&out.ret).chain(&out.outs)),
            Err(_) => HEADER_BYTES + 16,
        }
    }

    /// Put `wire` on the fabric from `from` to `to` — the one place an
    /// ORB message is sized, handed to [`Net::send`] and counted. A
    /// message the fabric accepts counts one of its kind; one it refuses
    /// (the destination is unreachable *right now*) counts nowhere but
    /// the fabric's own `net.drop.*`, and the reason comes back so a
    /// caller can fail with [`OrbError::CommFailure`] instead of timing
    /// out.
    pub fn send(
        &self,
        ctx: &mut Ctx<'_>,
        from: HostId,
        to: HostId,
        wire: OrbWire,
    ) -> Result<SimTime, DropReason> {
        let counter = match &wire {
            OrbWire::Request { .. } => Counter::OrbRequests,
            OrbWire::Reply { .. } => Counter::OrbReplies,
            OrbWire::Event { .. } => Counter::OrbEvents,
        };
        let sent = self.net.send(ctx, from, to, wire.wire_size(), wire);
        if sent.is_ok() {
            ctx.metrics().incr(counter);
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectRef;
    use crate::servant::{DispatchEnv, DispatchOpts, Invocation, ObjectAdapter, Servant};
    use lc_des::{Actor, AnyMsg, AnyMsgExt, Sim};
    use lc_idl::compile;
    use lc_net::{HostCfg, NetMsg, Topology};

    const IDL: &str = "interface Echo { string echo(in string s); };";

    struct EchoImpl;
    impl Servant for EchoImpl {
        fn interface_id(&self) -> &str {
            "IDL:Echo:1.0"
        }
        fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
            match inv.op {
                "echo" => {
                    inv.set_ret(Value::string(&format!(
                        "echo:{}",
                        inv.args[0].as_str().unwrap()
                    )));
                    Ok(())
                }
                o => Err(OrbError::BadOperation(o.into())),
            }
        }
    }

    /// Minimal host actor: a repository, an adapter and reply recording.
    struct HostActor {
        host: HostId,
        orb: SimOrb,
        repo: lc_idl::Repository,
        adapter: ObjectAdapter,
        got_reply: Option<Result<Outcome, OrbError>>,
    }

    impl Actor for HostActor {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMsg) {
            let net_msg = msg.downcast_msg::<NetMsg<OrbWire>>().expect("ORB frame");
            match net_msg.payload {
                OrbWire::Request { id, reply_to, target, op, args } => {
                    let env = DispatchEnv { repo: &self.repo, now: ctx.now(), tracer: None };
                    let res = self.adapter.invoke(env, target, &op, &args, DispatchOpts::typed());
                    if let Some(back) = reply_to {
                        let reply = OrbWire::Reply { id, result: res.outcome };
                        let _ = self.orb.send(ctx, self.host, back, reply);
                    }
                }
                OrbWire::Reply { result, .. } => {
                    self.got_reply = Some(result);
                }
                OrbWire::Event { .. } => unreachable!("no events in this test"),
            }
        }
    }

    struct Kick {
        target: ObjectRef,
    }

    struct CallerActor {
        host: HostId,
        orb: SimOrb,
        got_reply: Option<Result<Outcome, OrbError>>,
    }

    impl Actor for CallerActor {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMsg) {
            match msg.downcast_msg::<Kick>() {
                Ok(kick) => {
                    let request = OrbWire::Request {
                        id: self.orb.fresh_id(),
                        reply_to: Some(self.host),
                        target: kick.target.key,
                        op: "echo".into(),
                        args: vec![Value::string("hi")],
                    };
                    self.orb.send(ctx, self.host, kick.target.key.host, request).unwrap();
                }
                Err(other) => {
                    let net_msg = other.downcast_msg::<NetMsg<OrbWire>>().expect("ORB frame");
                    if let OrbWire::Reply { result, .. } = net_msg.payload {
                        self.got_reply = Some(result);
                    }
                }
            }
        }
    }

    #[test]
    fn request_reply_over_simulated_network() {
        let mut topo = Topology::new();
        let s = topo.add_site("lan");
        let h0 = topo.add_host(HostCfg::new(s));
        let h1 = topo.add_host(HostCfg::new(s));
        let net = Net::builder(topo).build();
        let orb = SimOrb::new(net.clone());
        let repo = compile(IDL).unwrap();

        let mut server_adapter = ObjectAdapter::new(h1);
        let echo_ref = server_adapter.activate(&repo, Box::new(EchoImpl));

        let mut sim = Sim::new(5);
        let server = sim.spawn(HostActor {
            host: h1,
            orb: orb.clone(),
            repo,
            adapter: server_adapter,
            got_reply: None,
        });
        net.bind(h1, server);
        let caller = sim.spawn(CallerActor { host: h0, orb: orb.clone(), got_reply: None });
        net.bind(h0, caller);

        sim.send_in(SimTime::ZERO, caller, Kick { target: echo_ref });
        sim.run();

        let got = sim.actor_as::<CallerActor>(caller).unwrap().got_reply.as_ref().unwrap();
        assert_eq!(got.as_ref().unwrap().ret, Value::string("echo:hi"));
        // two ORB messages, both charged to the network
        assert_eq!(sim.metrics_ref().counter("orb.requests"), 1);
        assert_eq!(sim.metrics_ref().counter("orb.replies"), 1);
        assert!(sim.metrics_ref().counter("net.bytes") > 2 * HEADER_BYTES);
        // round trip took network time
        assert!(sim.now() > SimTime::ZERO);
    }

    #[test]
    fn request_to_down_host_fails_fast() {
        let mut topo = Topology::new();
        let s = topo.add_site("lan");
        let h0 = topo.add_host(HostCfg::new(s));
        let h1 = topo.add_host(HostCfg::new(s));
        let net = Net::builder(topo).build();
        let orb = SimOrb::new(net.clone());
        net.set_host_up(h1, false);

        struct TryCall {
            host: HostId,
            orb: SimOrb,
            result: Option<Result<SimTime, DropReason>>,
        }
        struct Go;
        impl Actor for TryCall {
            fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMsg) {
                msg.downcast_msg::<Go>().expect("Go");
                let target = ObjectKey { host: HostId(1), oid: 1 };
                let request = OrbWire::Request {
                    id: self.orb.fresh_id(),
                    reply_to: Some(self.host),
                    target,
                    op: "echo".into(),
                    args: vec![],
                };
                self.result = Some(self.orb.send(ctx, self.host, target.host, request));
            }
        }
        let mut sim = Sim::new(1);
        let a = sim.spawn(TryCall { host: h0, orb, result: None });
        net.bind(h0, a);
        sim.send_in(SimTime::ZERO, a, Go);
        sim.run();
        assert_eq!(
            sim.actor_as::<TryCall>(a).unwrap().result,
            Some(Err(DropReason::ReceiverDown))
        );
    }

    #[test]
    fn sizes_reflect_payload() {
        let small = SimOrb::request_size("f", &[Value::Long(1)]);
        let big = SimOrb::request_size("f", &[Value::blob(&[0; 1000])]);
        assert!(big > small + 900);
        let ok: Result<Outcome, OrbError> =
            Ok(Outcome { ret: Value::string("xxxxxxxxxx"), outs: vec![] });
        let err: Result<Outcome, OrbError> = Err(OrbError::Timeout);
        assert!(SimOrb::reply_size(&ok) > SimOrb::reply_size(&err) - 16);
    }

    /// A frame waits by value in its mail lane, so every ORB message
    /// in flight is this wide: 112 bytes while an event carried its
    /// type's id beside the payload its tag already names.
    #[test]
    fn orb_wire_is_88_bytes() {
        assert_eq!(std::mem::size_of::<OrbWire>(), 88);
    }

    #[test]
    fn fresh_ids_are_unique() {
        let net = Net::builder(Topology::lan(1)).build();
        let orb = SimOrb::new(net);
        let a = orb.fresh_id();
        let b = orb.fresh_id();
        let c = orb.clone().fresh_id(); // clones share the allocator
        assert!(a != b && b != c && a != c);
    }
}
