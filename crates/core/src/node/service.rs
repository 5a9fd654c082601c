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
use lc_orb::{OrbError, Outcome, RequestId};

use super::ctx::{NodeCtx, NodeState};
use super::metrics::ServiceKind;
use super::NodeCmd;
use super::{acceptor, cohesion_svc, container, registry_svc, resource_svc};

/// Node-internal timer ticks, routed to services like messages.
pub enum Tick {
    /// Send the periodic resource report (doubles as the keep-alive).
    KeepAlive,
    /// Sweep MRM soft state and push summaries.
    MrmSweep,
    /// A query deadline elapsed: finalize every expired pending query.
    QueryDeadline(u64),
    /// A CPU-delayed reply is due.
    SendReply {
        /// Caller host awaiting the reply.
        to: HostId,
        /// Request being answered.
        id: RequestId,
        /// The (pre-computed) dispatch outcome.
        result: Result<Outcome, OrbError>,
    },
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

/// Newtype so ticks route through the actor mailbox unambiguously.
pub(crate) struct TickMsg(pub(crate) Tick);

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
        CtrlMsg::OffloadQuery { .. }
        | CtrlMsg::OffloadTarget { .. }
        | CtrlMsg::ReplicaQuery { .. }
        | CtrlMsg::ReplicaTarget { .. } => ServiceKind::Resource,
        CtrlMsg::Spawn { .. }
        | CtrlMsg::SpawnDone { .. }
        | CtrlMsg::Subscribe { .. }
        | CtrlMsg::MigrateIn { .. }
        | CtrlMsg::MigrateDone { .. } => ServiceKind::Container,
    }
}

/// Which service owns a timer tick.
pub(crate) fn tick_service(tick: &Tick) -> ServiceKind {
    match tick {
        Tick::KeepAlive | Tick::LoadBalance | Tick::SloCheck => ServiceKind::Resource,
        Tick::MrmSweep => ServiceKind::Cohesion,
        Tick::QueryDeadline(_) | Tick::ShardMaintain => ServiceKind::Registry,
        Tick::SendReply { .. } | Tick::CallSweep | Tick::CallRetry(_) | Tick::DedupSweep => {
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
    /// hop. No `query.msgs` or per-service `msgs_in` accounting (there
    /// is no message on the wire), matching the pre-split `send_ctrl`
    /// local short-circuit; handler time stays attributed to the
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
