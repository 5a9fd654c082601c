//! Routing for the Figure-1 services (plus the container runtime): the
//! timer enum and, per input type — driver command, control message,
//! timer tick, ORB frame — at most two tables: the service that owns an
//! input (`*_service`, what [`super::NodeMetrics`] and the handler span
//! are charged to) and the function that handles it (`handle_*`). Each
//! table matches its input once, exhaustively, so rustc is the check
//! that every message, tick and command has an owner and a handler.
//!
//! The [`super::Node`] router looks an input's service up, counts the
//! activation and calls the handler table. A service that needs a
//! sibling's behaviour *within the same event* (e.g. the registry
//! finishing a query and wiring a port through the container) calls the
//! shared [`NodeCtx`] plumbing directly; a control message addressed to
//! this host goes through the same `handle_ctrl`, without a network
//! hop or message accounting.

use crate::proto::CtrlMsg;
use lc_des::SimTime;
use lc_orb::{OrbWire, RequestId};

use super::continuations::{QueryPurpose, ResolveCont};
use super::ctx::{Node, NodeCtx};
use super::metrics::ServiceKind;
use super::{NodeCmd, ResolveCmd};
use super::{acceptor, cohesion_svc, container, registry_svc, resource_svc};

/// Node-internal timer ticks, routed to services like messages.
///
/// A tick travels on the kernel's packed `u64` lane (`Tick::pack`):
/// arming one allocates nothing. Whatever a tick needs beyond its kind
/// and one id stays parked in node state until it fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tick {
    /// Send the periodic resource report (doubles as the keep-alive).
    KeepAlive,
    /// Sweep MRM soft state and push summaries.
    MrmSweep,
    /// A query deadline elapsed: finalize every expired pending query.
    QueryDeadline,
    /// The CPU has finished a request's work: its parked reply is due.
    SendReply(RequestId),
    /// Periodic load-balance self-check.
    LoadBalance,
    /// An outgoing-call deadline elapsed: sweep expired calls, retrying
    /// with backoff or failing those whose budget is spent.
    CallSweep,
    /// A scheduled re-send of an outgoing call is due.
    CallRetry(RequestId),
    /// A reply's dedup window has passed: the servant forgets it.
    DedupSweep(RequestId),
    /// Sharded-registry maintenance: republish the local inventory to
    /// the owning shards and run one gossip anti-entropy round.
    ShardMaintain,
    /// Evaluate the SLO monitor over the window since the previous
    /// check; breaches dump the flight recorder.
    SloCheck,
}

/// Bits of a packed tick below the tag byte.
const TICK_ID_MASK: u64 = (1 << 56) - 1;

impl Tick {
    /// Names of the tag bytes `Tick::pack` writes, for rendering a
    /// profiled node world ([`lc_trace::profile::render`]).
    pub const KIND_NAMES: [(u8, &'static str); 10] = [
        (1, "tick.keepalive"),
        (2, "tick.mrm_sweep"),
        (3, "tick.query_deadline"),
        (4, "tick.send_reply"),
        (5, "tick.load_balance"),
        (6, "tick.call_sweep"),
        (7, "tick.call_retry"),
        (8, "tick.dedup_sweep"),
        (9, "tick.shard_maintain"),
        (10, "tick.slo_check"),
    ];

    /// The packed-lane word: tag in the top byte (the kind
    /// [`lc_des::profile`] tallies), the request id a tick names in the
    /// 56 bits below.
    pub(crate) fn pack(self) -> u64 {
        let (tag, id) = match self {
            Tick::KeepAlive => (1, 0),
            Tick::MrmSweep => (2, 0),
            Tick::QueryDeadline => (3, 0),
            Tick::SendReply(RequestId(id)) => (4, id),
            Tick::LoadBalance => (5, 0),
            Tick::CallSweep => (6, 0),
            Tick::CallRetry(RequestId(id)) => (7, id),
            Tick::DedupSweep(RequestId(id)) => (8, id),
            Tick::ShardMaintain => (9, 0),
            Tick::SloCheck => (10, 0),
        };
        debug_assert!(id <= TICK_ID_MASK, "request id overflows the packed tick");
        tag << 56 | (id & TICK_ID_MASK)
    }

    /// Inverse of [`Tick::pack`]; `None` for a word no tick packs to.
    pub(crate) fn unpack(data: u64) -> Option<Tick> {
        let id = data & TICK_ID_MASK;
        Some(match data >> 56 {
            1 => Tick::KeepAlive,
            2 => Tick::MrmSweep,
            3 => Tick::QueryDeadline,
            4 => Tick::SendReply(RequestId(id)),
            5 => Tick::LoadBalance,
            6 => Tick::CallSweep,
            7 => Tick::CallRetry(RequestId(id)),
            8 => Tick::DedupSweep(RequestId(id)),
            9 => Tick::ShardMaintain,
            10 => Tick::SloCheck,
            _ => return None,
        })
    }
}

/// One reflected fact sheet per service, rendered by `reflect.rs`.
#[derive(Clone, Debug)]
pub struct ServiceReflect {
    /// Which service this describes.
    pub kind: ServiceKind,
    /// Ordered `(label, value)` facts.
    pub items: Vec<(String, String)>,
}

/// Which service owns a driver command.
pub(crate) fn cmd_service(cmd: &NodeCmd) -> ServiceKind {
    match cmd {
        NodeCmd::Install(_) => ServiceKind::Acceptor,
        NodeCmd::Query { .. } | NodeCmd::Resolve(_) => ServiceKind::Registry,
        NodeCmd::SpawnLocal { .. }
        | NodeCmd::Subscribe { .. }
        | NodeCmd::Invoke { .. }
        | NodeCmd::Migrate { .. }
        | NodeCmd::ModifyPorts { .. }
        | NodeCmd::StartAssembly { .. } => ServiceKind::Container,
    }
}

/// Which service owns a control message.
pub(crate) fn ctrl_service(msg: &CtrlMsg) -> ServiceKind {
    match msg {
        CtrlMsg::Report { .. } | CtrlMsg::Summary { .. } => ServiceKind::Cohesion,
        CtrlMsg::Query { .. }
        | CtrlMsg::Offers { .. }
        | CtrlMsg::CacheInvalidate { .. }
        | CtrlMsg::ShardLookup { .. }
        | CtrlMsg::ShardPublish { .. }
        | CtrlMsg::GossipDigest { .. }
        | CtrlMsg::GossipDelta { .. } => ServiceKind::Registry,
        CtrlMsg::Fetch { .. } | CtrlMsg::Package { .. } | CtrlMsg::Install { .. } => {
            ServiceKind::Acceptor
        }
        CtrlMsg::PlacementQuery { .. } | CtrlMsg::PlacementTarget { .. } => ServiceKind::Resource,
        CtrlMsg::Spawn { .. } | CtrlMsg::SpawnDone { .. } | CtrlMsg::Subscribe { .. } => {
            ServiceKind::Container
        }
    }
}

/// Which service owns a timer tick.
pub(crate) fn tick_service(tick: Tick) -> ServiceKind {
    match tick {
        Tick::KeepAlive | Tick::LoadBalance | Tick::SloCheck => ServiceKind::Resource,
        Tick::MrmSweep => ServiceKind::Cohesion,
        Tick::QueryDeadline | Tick::ShardMaintain => ServiceKind::Registry,
        Tick::SendReply(_) | Tick::CallSweep | Tick::CallRetry(_) | Tick::DedupSweep(_) => {
            ServiceKind::Container
        }
    }
}

/// Hand a driver command to the one function that runs it. Every
/// handler table below is exhaustive, with no wildcard arm: an input
/// without a handler does not compile.
pub(crate) fn handle_cmd(ctx: &mut NodeCtx<'_, '_>, cmd: NodeCmd) {
    match cmd {
        NodeCmd::Install(bytes) => ctx.accept_install(&bytes),
        NodeCmd::Query { query, sink, first_wins } => {
            ctx.start_query(query, QueryPurpose::Collect { sink, first_wins });
        }
        NodeCmd::Resolve(cmd) => {
            let ResolveCmd { instance, port, query, expected_traffic, sink } = *cmd;
            let cont = ResolveCont { instance, port, expected_traffic, sink };
            ctx.start_query(query, QueryPurpose::Resolve(Box::new(cont)));
        }
        NodeCmd::SpawnLocal { component, min_version, instance_name, sink } => {
            let result = ctx.spawn_announced(&component, min_version, instance_name, None);
            *sink.borrow_mut() = Some(result);
        }
        NodeCmd::Subscribe { producer, port, consumer, delivery_op } => {
            let msg = CtrlMsg::Subscribe { producer, port, consumer, delivery_op };
            ctx.send_ctrl(producer.host, msg);
        }
        NodeCmd::Invoke { target, op, args, oneway, sink } => {
            ctx.cmd_invoke(target.key, op, args, oneway, sink);
        }
        NodeCmd::Migrate { instance, to, sink } => ctx.cmd_migrate(instance, to, sink),
        NodeCmd::ModifyPorts { instance, add_provides, remove_provides } => {
            ctx.cmd_modify_ports(instance, add_provides, remove_provides);
        }
        NodeCmd::StartAssembly { assembly, strategy, sink } => {
            ctx.start_assembly(assembly, strategy, sink);
        }
    }
}

/// Hand a control message to the one function that handles its variant.
pub(crate) fn handle_ctrl(ctx: &mut NodeCtx<'_, '_>, msg: CtrlMsg) {
    match msg {
        CtrlMsg::Report { from, report } => ctx.absorb_report(from, report),
        CtrlMsg::Summary { from, level, summary } => {
            ctx.absorb_summary(from, level, summary);
        }
        CtrlMsg::Query { qid, query, level: Some(level), descending } => {
            ctx.mrm_route_query(qid, query, level, descending);
        }
        CtrlMsg::Query { qid, query, level: None, descending: _ } => {
            ctx.answer_member_query(qid, &query);
        }
        // Record the offers, then — on a dead end or an owning shard
        // replica's answer — complete the query (one already finalized
        // is no longer in the table).
        CtrlMsg::Offers { qid, offers, done } => {
            ctx.on_offers(qid, offers);
            if done {
                ctx.finish_query(qid.seq);
            }
        }
        CtrlMsg::Fetch { name, version, reply_to } => ctx.serve_fetch(name, version, reply_to),
        CtrlMsg::Package { name, bytes: Ok(bytes) } => ctx.on_package_bytes(name, &bytes),
        CtrlMsg::Package { name, bytes: Err(reason) } => ctx.on_fetch_failed(name, &reason),
        CtrlMsg::Install { bytes } => ctx.accept_install(&bytes),
        CtrlMsg::Spawn { rid, origin, component, min_version, instance_name, state } => {
            ctx.on_spawn(rid, origin, component, min_version, instance_name, state);
        }
        CtrlMsg::SpawnDone { rid, result } => ctx.on_spawn_done(rid, result),
        CtrlMsg::Subscribe { producer, port, consumer, delivery_op } => {
            ctx.on_subscribe(producer, port, consumer, delivery_op);
        }
        CtrlMsg::PlacementQuery { from, cpu_needed, replica } => {
            let target = ctx.state.pick_offload_target(from, cpu_needed);
            ctx.send_ctrl(from, CtrlMsg::PlacementTarget { target, replica });
        }
        CtrlMsg::PlacementTarget { target, replica: None } => ctx.on_offload_target(target),
        CtrlMsg::PlacementTarget { target, replica: Some((component, version)) } => {
            ctx.on_replica_target(component, version, target);
        }
        // Coherence (broadcast or shard-targeted): a peer's inventory
        // changed — drop any cached results that could name the
        // component.
        CtrlMsg::CacheInvalidate { component } => ctx.invalidate_cached(&component),
        CtrlMsg::ShardLookup { qid, query, shard } => ctx.serve_lookup(qid, &query, shard),
        CtrlMsg::ShardPublish { from, component, gen, at, offers } => {
            if let Some(store) = ctx.state.backend.shard_mut() {
                store.on_publish(component, from, gen, at, offers);
            }
        }
        CtrlMsg::GossipDigest { from, shard, gens } => ctx.on_gossip_digest(from, shard, &gens),
        CtrlMsg::GossipDelta { shard, entries } => ctx.on_gossip_delta(shard, entries),
    }
}

/// Run a timer tick. Periodic ticks re-arm themselves in their handler.
pub(crate) fn handle_tick(ctx: &mut NodeCtx<'_, '_>, tick: Tick) {
    match tick {
        Tick::KeepAlive => ctx.send_report(),
        Tick::MrmSweep => ctx.mrm_sweep(),
        Tick::QueryDeadline => ctx.sweep_queries(),
        Tick::SendReply(id) => ctx.reply_ready(id),
        Tick::LoadBalance => ctx.load_balance_check(),
        Tick::CallSweep => ctx.sweep_calls(),
        Tick::CallRetry(rid) => ctx.retry_call(rid),
        Tick::DedupSweep(id) => {
            if let Some(container) = &mut ctx.state.container {
                container.served.remove(&id);
            }
        }
        Tick::ShardMaintain => ctx.shard_maintain(),
        Tick::SloCheck => ctx.slo_check(),
    }
}

/// GIOP-style ORB wire traffic lands on the container.
pub(crate) fn handle_orb(ctx: &mut NodeCtx<'_, '_>, wire: OrbWire) {
    match wire {
        OrbWire::Request { id, reply_to, target, op, args } => {
            ctx.on_request(id, reply_to, target, op, args);
        }
        OrbWire::Reply { id, result } => ctx.on_reply(id, result),
        OrbWire::Event { payload, consumer, delivery_op } => {
            ctx.run_local(consumer, &delivery_op, &[payload]);
        }
    }
}

/// Reflect one service's current state (§2.4.2 reflection).
pub(crate) fn reflect(kind: ServiceKind, state: &Node) -> ServiceReflect {
    match kind {
        ServiceKind::Acceptor => acceptor::reflect(state),
        ServiceKind::Registry => registry_svc::reflect(state),
        ServiceKind::Resource => resource_svc::reflect(state),
        ServiceKind::Cohesion => cohesion_svc::reflect(state),
        ServiceKind::Container => container::reflect(state),
    }
}

/// Shared `fmt` helper for reflect items.
pub(crate) fn item(label: &str, value: impl std::fmt::Display) -> (String, String) {
    (label.to_owned(), value.to_string())
}

/// Helper for elapsed virtual-time durations (ms) in reflect output.
pub(crate) fn ms(t: SimTime) -> String {
    format!("{:.2} ms", t.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Tick; 10] = [
        Tick::KeepAlive,
        Tick::MrmSweep,
        Tick::QueryDeadline,
        Tick::SendReply(RequestId(0x0012_3456_789A_BCDE)),
        Tick::LoadBalance,
        Tick::CallSweep,
        Tick::CallRetry(RequestId(0x00AB_CDEF_0123_4567)),
        Tick::DedupSweep(RequestId(0x0076_5432_10FE_DCBA)),
        Tick::ShardMaintain,
        Tick::SloCheck,
    ];

    #[test]
    fn every_tick_round_trips_under_its_own_named_tag() {
        let mut tags = std::collections::BTreeSet::new();
        for tick in ALL {
            let word = tick.pack();
            assert_eq!(Tick::unpack(word), Some(tick));
            let tag = (word >> 56) as u8;
            assert!(tags.insert(tag), "{tick:?} shares tag {tag}");
            assert!(Tick::KIND_NAMES.iter().any(|(t, _)| *t == tag), "{tick:?} has no name");
        }
        assert_eq!(tags.len(), Tick::KIND_NAMES.len());
        // The id rides below the tag and does not leak into it.
        let one = Tick::CallRetry(RequestId(1)).pack();
        let two = Tick::CallRetry(RequestId(2)).pack();
        assert_eq!(one >> 56, two >> 56);
        assert_ne!(one, two);
    }

    #[test]
    fn words_no_tick_packs_to_are_rejected() {
        assert_eq!(Tick::unpack(0), None);
        assert_eq!(Tick::unpack(11 << 56), None);
        assert_eq!(Tick::unpack(u64::MAX), None);
    }
}
