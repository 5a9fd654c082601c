//! Routing for the Figure-1 services (plus the container runtime): the
//! timer enum, the tables that assign every driver command, control
//! message and timer tick to exactly one service, and the dispatchers
//! that call the owning module's `handle_cmd` / `handle_ctrl` /
//! `on_timer` / `reflect` function.
//!
//! The [`super::Node`] router looks an input's service up in a table,
//! counts the activation in [`super::NodeMetrics`] and dispatches by
//! [`ServiceKind`]. A service that needs a sibling's behaviour *within
//! the same event* (e.g. the registry finishing a query and wiring a
//! port through the container) calls the shared [`NodeCtx`] plumbing
//! directly — local control delivery ([`NodeCtx::deliver_ctrl_local`])
//! routes by the same table and dispatcher, without network hops or
//! extra message accounting, exactly like the pre-split synchronous
//! code.

use crate::proto::CtrlMsg;
use lc_des::SimTime;
use lc_net::HostId;
use lc_orb::RequestId;

use super::ctx::{NodeCtx, NodeState};
use super::metrics::ServiceKind;
use super::NodeCmd;
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
    /// A CPU-delayed reply is due: the front of the node's parked
    /// replies (CPU occupancy is FIFO, so they fall due in park order).
    SendReply,
    /// Periodic load-balance self-check.
    LoadBalance,
    /// An outgoing-call deadline elapsed: sweep expired calls, retrying
    /// with backoff or failing those whose budget is spent.
    CallSweep,
    /// A scheduled re-send of an outgoing call is due.
    CallRetry(RequestId),
    /// Sweep the servant-side duplicate-suppression reply cache.
    DedupSweep,
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
    /// [`lc_des::profile`] tallies), `CallRetry`'s request id in the 56
    /// bits below.
    pub(crate) fn pack(self) -> u64 {
        let (tag, id) = match self {
            Tick::KeepAlive => (1, 0),
            Tick::MrmSweep => (2, 0),
            Tick::QueryDeadline => (3, 0),
            Tick::SendReply => (4, 0),
            Tick::LoadBalance => (5, 0),
            Tick::CallSweep => (6, 0),
            Tick::CallRetry(RequestId(id)) => (7, id),
            Tick::DedupSweep => (8, 0),
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
            4 => Tick::SendReply,
            5 => Tick::LoadBalance,
            6 => Tick::CallSweep,
            7 => Tick::CallRetry(RequestId(id)),
            8 => Tick::DedupSweep,
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
        NodeCmd::Query { .. } | NodeCmd::Resolve { .. } => ServiceKind::Registry,
        NodeCmd::SpawnLocal { .. }
        | NodeCmd::SpawnOn { .. }
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
        | CtrlMsg::QueryDone { .. }
        | CtrlMsg::CacheInvalidate { .. }
        | CtrlMsg::ShardLookup { .. }
        | CtrlMsg::ShardServe { .. }
        | CtrlMsg::ShardPublish { .. }
        | CtrlMsg::GossipDigest { .. }
        | CtrlMsg::GossipDelta { .. } => ServiceKind::Registry,
        CtrlMsg::Fetch { .. }
        | CtrlMsg::PackageBytes { .. }
        | CtrlMsg::FetchFailed { .. }
        | CtrlMsg::Install { .. } => ServiceKind::Acceptor,
        CtrlMsg::PlacementQuery { .. } | CtrlMsg::PlacementTarget { .. } => ServiceKind::Resource,
        CtrlMsg::Spawn { .. }
        | CtrlMsg::SpawnDone { .. }
        | CtrlMsg::Subscribe { .. }
        | CtrlMsg::MigrateIn { .. }
        | CtrlMsg::MigrateDone { .. } => ServiceKind::Container,
    }
}

/// Which service owns a timer tick.
pub(crate) fn tick_service(tick: Tick) -> ServiceKind {
    match tick {
        Tick::KeepAlive | Tick::LoadBalance | Tick::SloCheck => ServiceKind::Resource,
        Tick::MrmSweep => ServiceKind::Cohesion,
        Tick::QueryDeadline | Tick::ShardMaintain => ServiceKind::Registry,
        Tick::SendReply | Tick::CallSweep | Tick::CallRetry(_) | Tick::DedupSweep => {
            ServiceKind::Container
        }
    }
}

/// Hand a driver command to the service [`cmd_service`] named (the
/// Resource Manager and Network Cohesion own no commands).
pub(crate) fn dispatch_cmd(ctx: &mut NodeCtx<'_, '_>, kind: ServiceKind, cmd: NodeCmd) {
    match kind {
        ServiceKind::Acceptor => acceptor::handle_cmd(ctx, cmd),
        ServiceKind::Registry => registry_svc::handle_cmd(ctx, cmd),
        ServiceKind::Container => container::handle_cmd(ctx, cmd),
        ServiceKind::Resource | ServiceKind::Cohesion => {}
    }
}

/// Hand a control message to the service [`ctrl_service`] named.
pub(crate) fn dispatch_ctrl(
    ctx: &mut NodeCtx<'_, '_>,
    kind: ServiceKind,
    from: HostId,
    msg: CtrlMsg,
) {
    match kind {
        ServiceKind::Acceptor => acceptor::handle_ctrl(ctx, from, msg),
        ServiceKind::Registry => registry_svc::handle_ctrl(ctx, from, msg),
        ServiceKind::Resource => resource_svc::handle_ctrl(ctx, from, msg),
        ServiceKind::Cohesion => cohesion_svc::handle_ctrl(ctx, from, msg),
        ServiceKind::Container => container::handle_ctrl(ctx, from, msg),
    }
}

/// Hand a timer tick to the service [`tick_service`] named (the
/// Component Acceptor arms no timers).
pub(crate) fn dispatch_tick(ctx: &mut NodeCtx<'_, '_>, kind: ServiceKind, tick: Tick) {
    match kind {
        ServiceKind::Registry => registry_svc::on_timer(ctx, tick),
        ServiceKind::Resource => resource_svc::on_timer(ctx, tick),
        ServiceKind::Cohesion => cohesion_svc::on_timer(ctx, tick),
        ServiceKind::Container => container::on_timer(ctx, tick),
        ServiceKind::Acceptor => {}
    }
}

/// Reflect one service's current state (§2.4.2 reflection).
pub(crate) fn reflect(kind: ServiceKind, state: &NodeState) -> ServiceReflect {
    match kind {
        ServiceKind::Acceptor => acceptor::reflect(state),
        ServiceKind::Registry => registry_svc::reflect(state),
        ServiceKind::Resource => resource_svc::reflect(state),
        ServiceKind::Cohesion => cohesion_svc::reflect(state),
        ServiceKind::Container => container::reflect(state),
    }
}

impl NodeCtx<'_, '_> {
    /// Deliver a control message addressed to this host, synchronously,
    /// within the current event — the in-process analogue of a network
    /// hop, and where [`NodeCtx::send_ctrl`] takes a message to this
    /// host. No per-kind or per-service `msgs_in` accounting (there is
    /// no message on the wire); handler time stays attributed to the
    /// outermost routed service.
    pub(crate) fn deliver_ctrl_local(&mut self, from: HostId, msg: CtrlMsg) {
        dispatch_ctrl(self, ctrl_service(&msg), from, msg);
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
        Tick::SendReply,
        Tick::LoadBalance,
        Tick::CallSweep,
        Tick::CallRetry(RequestId(0x00AB_CDEF_0123_4567)),
        Tick::DedupSweep,
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
