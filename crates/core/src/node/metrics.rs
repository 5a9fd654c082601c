//! Per-service instrumentation for the node (`NodeMetrics`).
//!
//! The router in [`super::Node`] stamps every routed message, timer and
//! deferred effect with the service that handled it, so experiments can
//! break a node's work down by the four Figure-1 services plus the
//! container. Everything here is a plain counter bumped by index: no
//! clock is read and no key is built on the routing path, so two
//! same-seed runs leave `==` metrics on every node. (What a dispatch
//! costs the host is measured from outside, by `.perf`.)

use std::collections::BTreeMap;

/// The four Figure-1 services plus the container runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServiceKind {
    /// Component Acceptor: run-time installation + package fetch serving.
    Acceptor,
    /// Component Registry: distributed queries, offers, MRM routing.
    Registry,
    /// Resource Manager: reports, CPU FIFO, load-balance triggers.
    Resource,
    /// Network Cohesion: keep-alive absorption, MRM sweeps, summaries.
    Cohesion,
    /// Container runtime: instances, invocation, events, migration.
    Container,
}

impl ServiceKind {
    /// All services, in display order.
    pub const ALL: [ServiceKind; 5] = [
        ServiceKind::Acceptor,
        ServiceKind::Registry,
        ServiceKind::Resource,
        ServiceKind::Cohesion,
        ServiceKind::Container,
    ];

    /// Stable lowercase display name.
    pub fn name(self) -> &'static str {
        match self {
            ServiceKind::Acceptor => "acceptor",
            ServiceKind::Registry => "registry",
            ServiceKind::Resource => "resource",
            ServiceKind::Cohesion => "cohesion",
            ServiceKind::Container => "container",
        }
    }
}

/// Counters for one service.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceMetrics {
    /// Messages routed *to* this service (commands, control traffic,
    /// ORB wire messages — timers and internal effects excluded).
    pub msgs_in: u64,
    /// Messages this service put on the wire (control + ORB).
    pub msgs_out: u64,
    /// Handler activations (messages + timers + effects).
    pub dispatches: u64,
}

impl std::ops::AddAssign for ServiceMetrics {
    fn add_assign(&mut self, rhs: ServiceMetrics) {
        self.msgs_in += rhs.msgs_in;
        self.msgs_out += rhs.msgs_out;
        self.dispatches += rhs.dispatches;
    }
}

/// The node-level instrumentation threaded through the service seam:
/// per-service message/dispatch counters and per-command counts.
/// Continuation-table depth lives with the table itself
/// ([`super::Continuations`]) and is joined in at reflection time; named
/// run counters (`cache.*`, `admission.*`, …) are the simulation's
/// `lc_des::Metrics`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeMetrics {
    services: [ServiceMetrics; 5],
    cmds: BTreeMap<&'static str, u64>,
    current: Option<ServiceKind>,
}

impl NodeMetrics {
    /// One service's counters.
    pub fn service(&self, kind: ServiceKind) -> ServiceMetrics {
        self.services[kind as usize]
    }

    /// `(command name, count)` for every [`super::NodeCmd`] seen,
    /// in name order.
    pub fn cmd_counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.cmds.iter().map(|(name, n)| (*name, *n))
    }

    pub(crate) fn note_cmd(&mut self, name: &'static str) {
        *self.cmds.entry(name).or_insert(0) += 1;
    }

    /// Begin a handler activation: attribute subsequent sends to `kind`.
    pub(crate) fn begin(&mut self, kind: ServiceKind, counts_as_msg: bool) {
        self.current = Some(kind);
        let m = &mut self.services[kind as usize];
        m.dispatches += 1;
        if counts_as_msg {
            m.msgs_in += 1;
        }
    }

    /// End the handler activation started with [`Self::begin`].
    pub(crate) fn finish(&mut self) {
        self.current = None;
    }

    /// Record one outgoing message, charged to the active service (or to
    /// the container when sent from outside a handler, e.g. public API).
    pub(crate) fn msg_out(&mut self) {
        let kind = self.current.unwrap_or(ServiceKind::Container);
        self.services[kind as usize].msgs_out += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_follows_begin_finish() {
        let mut m = NodeMetrics::default();
        m.begin(ServiceKind::Registry, true);
        m.msg_out();
        m.msg_out();
        m.finish();
        m.begin(ServiceKind::Cohesion, false);
        m.finish();
        m.msg_out();
        assert_eq!(
            m.service(ServiceKind::Registry),
            ServiceMetrics { msgs_in: 1, msgs_out: 2, dispatches: 1 }
        );
        assert_eq!(
            m.service(ServiceKind::Cohesion),
            ServiceMetrics { msgs_in: 0, msgs_out: 0, dispatches: 1 }
        );
        // A send outside any handler is the container's.
        assert_eq!(m.service(ServiceKind::Container).msgs_out, 1);
    }

    #[test]
    fn cmd_counters_accumulate() {
        let mut m = NodeMetrics::default();
        m.note_cmd("Query");
        m.note_cmd("Install");
        m.note_cmd("Install");
        assert_eq!(m.cmd_counts().collect::<Vec<_>>(), vec![("Install", 2), ("Query", 1)]);
    }
}
