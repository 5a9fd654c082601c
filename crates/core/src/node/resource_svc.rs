//! Resource Manager service (Fig. 1): emits the periodic resource
//! reports that double as the cohesion keep-alive, owns the node's CPU
//! FIFO accounting, and drives the automatic load-balancing triggers
//! (§2.4.3: "component instance migration and replication to achieve
//! load balancing").

use crate::proto::CtrlMsg;
use lc_des::{Counter, SimTime};
use lc_net::HostId;
use crate::registry::{InstanceId, InstanceInfo};
use std::rc::Rc;

use super::ctx::{Node, NodeCtx};
use super::metrics::ServiceKind;
use super::ReplicateConfig;
use super::service::{item, ms, ServiceReflect, Tick};

/// How often a node with [`super::NodeConfig::load_balance`] on
/// examines its own load.
pub const CHECK_PERIOD: SimTime = SimTime::from_millis(500);

/// CPU utilisation at or above which such a node tries to shed an
/// instance.
pub const OVERLOAD_THRESHOLD: f64 = 0.25;

impl Node {
    /// Occupy the CPU FIFO with `cost` of work starting no earlier than
    /// `now`, scaled by this node's CPU power. Returns its completion
    /// time.
    pub(crate) fn occupy_cpu(&mut self, now: SimTime, cost: SimTime) -> SimTime {
        let scaled = cost.mul_f64(1.0 / self.resources.static_info().cpu_power);
        self.cpu_free_at = now.max(self.cpu_free_at) + scaled;
        self.cpu_free_at
    }

    /// The installed descriptor of a running instance.
    fn descriptor_of(&self, info: &InstanceInfo) -> Option<&lc_pkg::ComponentDescriptor> {
        self.repository.get(&info.component, info.version).map(|i| &i.descriptor)
    }

    /// The heaviest *mobile* local instance (migration candidate).
    pub(crate) fn heaviest_mobile_instance(&self) -> Option<(InstanceId, f64)> {
        self.registry
            .instances()
            .filter_map(|info| Some((info.id, self.descriptor_of(info)?)))
            .filter(|(_, desc)| desc.mobility == lc_pkg::Mobility::Mobile)
            .map(|(id, desc)| (id, desc.qos.cpu_min))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// MRM side: the least-utilised alive member that can absorb the
    /// load, the first one seen on a tie.
    pub(crate) fn pick_offload_target(&self, asking: HostId, cpu_needed: f64) -> Option<HostId> {
        self.placement_view()
            .into_iter()
            .filter(|v| v.host != asking && v.cpu_free() >= cpu_needed * 2.0)
            .map(|v| (v.report.dynamic.cpu_used / v.report.static_info.cpu_power, v.host))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, h)| h)
    }
}

impl NodeCtx<'_, '_> {
    /// One `Tick::KeepAlive`: emit the periodic resource report to every
    /// report target and re-arm the cadence. The report *is* the
    /// keep-alive: the Network Cohesion layer's liveness view is
    /// refreshed purely by absorbing these reports.
    pub(crate) fn send_report(&mut self) {
        // One report per tick; each target's copy is two `Rc` bumps.
        let report = self.state.resources.report(self.state.repository.names());
        let host = self.state.host;
        let (world, g) = (Rc::clone(&self.state.world), self.state.group_at(0));
        for mrm in world.shape.mrm_hosts(0, g) {
            // An MRM absorbs its own report in place (no network hop).
            self.send_ctrl(mrm, CtrlMsg::Report { from: host, report: report.clone() });
        }
        let period = self.state.world.config.cohesion.report_period;
        self.timer_in(period, Tick::KeepAlive);
    }

    /// One `Tick::LoadBalance` (§2.4.3): when this node is overloaded,
    /// ask the group MRM for a lighter member to migrate the heaviest
    /// *mobile* instance to; re-arm the cadence either way. The tick is
    /// armed only when [`NodeConfig::load_balance`](super::NodeConfig) is on.
    pub(crate) fn load_balance_check(&mut self) {
        if self.state.resources.cpu_utilisation() >= OVERLOAD_THRESHOLD {
            if let Some((_, cpu_needed)) = self.state.heaviest_mobile_instance() {
                self.ask_placement(cpu_needed, None);
            }
        }
        self.timer_in(CHECK_PERIOD, Tick::LoadBalance);
    }

    /// Ask the group MRM (first reachable replica; this host answers
    /// itself when it is one) which member has `cpu_needed` headroom.
    fn ask_placement(&mut self, cpu_needed: f64, replica: Option<(String, lc_pkg::Version)>) {
        let (world, g) = (Rc::clone(&self.state.world), self.state.group_at(0));
        let ask = CtrlMsg::PlacementQuery { from: self.state.host, cpu_needed, replica };
        self.send_to_first_reachable(world.shape.mrm_hosts(0, g), ask);
    }

    /// The MRM's answer to a migration ask: move the heaviest mobile
    /// instance there.
    pub(crate) fn on_offload_target(&mut self, target: Option<HostId>) {
        let Some(to) = target else {
            self.sim.metrics().incr(Counter::LbNoTarget);
            return;
        };
        let Some((instance, _)) = self.state.heaviest_mobile_instance() else { return };
        self.sim.metrics().incr(Counter::LbMigrations);
        self.cmd_migrate(instance, to, None);
    }

    /// A request was just shed: if replication is configured and the
    /// cooldown/budget allow, ask the group MRM where a replica of the
    /// hottest local component could run. `shed_oid` is the instance the
    /// shed request addressed — the fallback when no load profile has
    /// accumulated yet.
    pub(crate) fn maybe_replicate(&mut self, shed_oid: u64) {
        let admission = self.state.world.config.admission.as_ref();
        if admission.is_none_or(|a| a.replicate_hot.is_none()) {
            return;
        }
        let now = self.sim.now();
        let container = self.state.container();
        if container.replicas_started >= ReplicateConfig::MAX_REPLICAS
            || container.last_replicate.is_some_and(|last| now < last + ReplicateConfig::COOLDOWN)
        {
            return;
        }
        // The hottest instance by admitted-request count; ties break
        // toward the smallest oid so the choice is deterministic.
        let hot_oid = container
            .instance_load
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(oid, _)| *oid)
            .unwrap_or(shed_oid);
        let Some(info) = self.state.registry.instance(InstanceId(hot_oid)) else { return };
        let cpu_needed = self.state.descriptor_of(info).map_or(0.1, |desc| desc.qos.cpu_min);
        let replica = (info.component.to_string(), info.version);
        self.state.container().last_replicate = Some(now);
        self.sim.metrics().incr(Counter::AdmissionReplicaQueries);
        self.ask_placement(cpu_needed, Some(replica));
    }

    /// The MRM's placement answer arrived: spawn the replica there. The
    /// spawner's registry-change event makes the new instance visible to
    /// queries, so clients re-querying the component spread onto it.
    pub(crate) fn on_replica_target(
        &mut self,
        component: String,
        version: lc_pkg::Version,
        target: Option<HostId>,
    ) {
        let Some(to) = target else {
            self.sim.metrics().incr(Counter::AdmissionReplicaNoTarget);
            return;
        };
        self.state.container().replicas_started += 1;
        self.sim.metrics().incr(Counter::AdmissionReplicas);
        // Fire and forget: nothing is parked, so the `SpawnDone` finds no
        // continuation. Success is observable through the registry (a new
        // offer with a running instance), and a failed spawn simply
        // leaves demand shedding until the next cooldown.
        // `Version::satisfies` is major-pinned, so the saturated
        // instance's own version is the right minimum: the target must
        // hold a package of the same major at `>=` its minor.
        self.request_instance(to, component, version, None, None, None);
    }
}

/// Reflect the Resource Manager service's current state.
pub(crate) fn reflect(state: &Node) -> ServiceReflect {
    ServiceReflect {
        kind: ServiceKind::Resource,
        items: vec![
            item("cpu utilisation", format!("{:.2}", state.resources.cpu_utilisation())),
            item("cpu busy until", ms(state.cpu_free_at)),
            item("mem free", state.resources.mem_free()),
        ],
    }
}
