//! Run-time deployment: offer selection and assembly placement.
//!
//! "The exact node in which every instance is going to be run is decided
//! when the application requests it, and this decision may change to
//! reflect changes in the load of either the nodes or the network"
//! (§2.4.4). This module holds the decision logic; the Node actor and the
//! E5/E6 experiments drive it.

use crate::registry::Offer;
use crate::resource::{ResourceReport, StaticInfo};
use lc_net::{DeviceClass, HostId};
use lc_orb::ObjectRef;
use lc_pkg::{Mobility, QosSpec};

/// What the dependency resolver decides to do with the best offer
/// (§2.4.3: "the network can decide either to instantiate the component
/// in its original node or to fetch the component to be locally
/// installed, instantiated and run").
#[derive(Clone, PartialEq, Debug)]
pub enum ResolveAction {
    /// Use a running remote instance as-is.
    ConnectExisting(ObjectRef),
    /// Ask the offering node to instantiate and use it remotely.
    SpawnRemote(HostId),
    /// Fetch the package from the offering node, install locally,
    /// instantiate locally ("a component decoding a MPEG video stream
    /// would work much faster if it is installed locally").
    FetchAndRunLocal {
        /// Node that will serve the package bytes.
        from: HostId,
    },
}

/// Choose the best offer for a port expected to carry `expected_traffic`
/// bytes over its lifetime, and what to do with it, as seen from the
/// resolving node `here`.
///
/// Scoring (lower is better) reflects §2.4.3's "location, cost,
/// migration" criteria: licensing cost is a hard filter upstream (in the
/// query), load and traffic locality are soft scores here. Fetching pays
/// the package transfer once over `here`'s downlink, then all traffic is
/// local; using a provider remotely pays the traffic over the network
/// forever. A PDA never fetches: it has no room for binaries (R8).
pub fn choose(
    offers: &[Offer],
    expected_traffic: u64,
    here: &StaticInfo,
) -> Option<(usize, ResolveAction)> {
    let remote_traffic = traffic_penalty(expected_traffic);
    let can_fetch = here.device != DeviceClass::Pda;
    let mut best: Option<(f64, usize, ResolveAction)> = None;
    for (i, offer) in offers.iter().enumerate() {
        let candidates: [(f64, Option<ResolveAction>); 3] = [
            (
                // connect to existing instance: zero setup, remote traffic,
                // shared load
                0.1 + offer.load + remote_traffic,
                offer.running_instance().map(ResolveAction::ConnectExisting),
            ),
            (
                // spawn remotely: small setup, remote traffic
                0.3 + offer.load + remote_traffic,
                Some(ResolveAction::SpawnRemote(offer.node)),
            ),
            (
                // fetch + run locally: pay package transfer, no remote
                // traffic afterwards
                if offer.mobility == Mobility::Mobile && can_fetch {
                    0.3 + fetch_penalty(offer.package_size.into(), here.down_bw)
                } else {
                    f64::INFINITY
                },
                Some(ResolveAction::FetchAndRunLocal { from: offer.node }),
            ),
        ];
        for (score, action) in candidates {
            if let Some(action) = action {
                if score.is_finite() && best.as_ref().map(|(s, _, _)| score < *s).unwrap_or(true)
                {
                    best = Some((score, i, action));
                }
            }
        }
    }
    best.map(|(_, i, a)| (i, a))
}

/// Normalized penalty for carrying `bytes` over the network long-term.
fn traffic_penalty(bytes: u64) -> f64 {
    // 10 MB of expected remote traffic ≈ penalty 1.0
    bytes as f64 / 1e7
}

/// Normalized penalty for fetching a package of `size` at `bw`.
fn fetch_penalty(size: u64, bw: f64) -> f64 {
    // seconds of transfer ≈ penalty (1s ≈ 1.0)
    size as f64 / bw
}

/// A candidate node as seen by the assembly planner (from MRM reports).
#[derive(Clone, Debug)]
pub struct NodeView {
    /// The node.
    pub host: HostId,
    /// Its latest resource report.
    pub report: ResourceReport,
}

impl NodeView {
    pub(crate) fn cpu_free(&self) -> f64 {
        (self.report.static_info.cpu_power - self.report.dynamic.cpu_used).max(0.0)
    }
    fn mem_free(&self) -> u64 {
        self.report.static_info.memory.saturating_sub(self.report.dynamic.mem_used)
    }
    fn admits(&self, qos: &QosSpec) -> bool {
        self.cpu_free() >= qos.cpu_min
            && self.mem_free() >= qos.memory
            && self.report.static_info.down_bw >= qos.bandwidth_min
            // PDAs host nothing unless the QoS explicitly fits their RAM
            && !(self.report.static_info.device == DeviceClass::Pda
                && qos.memory > self.report.static_info.memory)
    }
}

/// Placement strategies compared in E5.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlacementStrategy {
    /// CORBA-LC: greedy best-fit using *current* load from the Reflection
    /// Architecture — place each instance on the node with the most free
    /// CPU that admits it.
    RuntimeLoadAware,
    /// CCM/EJB-style baseline: the assembly was mapped to nodes at
    /// deployment-design time (round-robin over the node list), blind to
    /// actual capacity and load.
    StaticRoundRobin,
}

/// Place `instances` (by QoS) onto `nodes`. Returns, per instance, the
/// chosen node index, or `None` if no node admits it.
///
/// The load-aware strategy updates its view as it reserves, so one
/// planning pass cannot overload a node.
pub fn plan_assembly(
    instances: &[QosSpec],
    nodes: &[NodeView],
    strategy: PlacementStrategy,
) -> Vec<Option<usize>> {
    let mut views: Vec<NodeView> = nodes.to_vec();
    let mut out = Vec::with_capacity(instances.len());
    match strategy {
        PlacementStrategy::RuntimeLoadAware => {
            for qos in instances {
                let mut best: Option<(f64, usize)> = None;
                for (ni, v) in views.iter().enumerate() {
                    if v.admits(qos) {
                        let free = v.cpu_free();
                        if best.map(|(bf, _)| free > bf).unwrap_or(true) {
                            best = Some((free, ni));
                        }
                    }
                }
                match best {
                    Some((_, ni)) => {
                        views[ni].report.dynamic.cpu_used += qos.cpu_min;
                        views[ni].report.dynamic.mem_used += qos.memory;
                        out.push(Some(ni));
                    }
                    None => out.push(None),
                }
            }
        }
        PlacementStrategy::StaticRoundRobin => {
            for (i, qos) in instances.iter().enumerate() {
                // Fixed mapping decided "at deployment-design time": the
                // i-th instance goes to the (i mod N)-th node, capacity
                // unseen. It still refuses physically impossible spots
                // (no memory at all), as a real static deployer would.
                let ni = i % views.len();
                if views[ni].report.static_info.memory >= qos.memory {
                    views[ni].report.dynamic.cpu_used += qos.cpu_min;
                    views[ni].report.dynamic.mem_used += qos.memory;
                    out.push(Some(ni));
                } else {
                    out.push(None);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::DynamicInfo;
    use lc_pkg::{Platform, Version};

    fn offer(node: u32, load: f64, mobile: bool, pkg: u32, running: bool) -> Offer {
        Offer {
            node: HostId(node),
            component: "C".into(),
            version: Version::new(1, 0),
            mobility: if mobile { Mobility::Mobile } else { Mobility::Fixed },
            cost_per_hour: 0,
            package_size: pkg,
            load,
            running: running.then(|| (1, "IDL:X:1.0".into())),
        }
    }

    /// What a resolving node knows of itself: a `device` on a `down_bw`
    /// downlink.
    fn here(device: DeviceClass, down_bw: f64) -> StaticInfo {
        StaticInfo {
            platform: Platform::reference(),
            device,
            cpu_power: 1.0,
            memory: 1 << 30,
            up_bw: 12_500_000.0,
            down_bw,
        }
    }

    /// A workstation on the reference 100 Mbit/s link.
    fn workstation() -> StaticInfo {
        here(DeviceClass::Workstation, 12_500_000.0)
    }

    #[test]
    fn light_traffic_prefers_existing_instance() {
        let offers = vec![offer(1, 0.2, true, 100_000, true)];
        let (_, action) = choose(&offers, 1000, &workstation()).unwrap();
        assert!(matches!(action, ResolveAction::ConnectExisting(_)));
    }

    #[test]
    fn heavy_traffic_fetches_locally() {
        // The paper's MPEG example: a long video stream should pull the
        // decoder to the consumer.
        let offers = vec![offer(1, 0.2, true, 100_000, true)];
        let (_, action) = choose(&offers, 500_000_000, &workstation()).unwrap();
        assert!(matches!(action, ResolveAction::FetchAndRunLocal { .. }));
    }

    #[test]
    fn fixed_components_never_fetch() {
        let offers = vec![offer(1, 0.2, false, 100_000, false)];
        let (_, action) = choose(&offers, 500_000_000, &workstation()).unwrap();
        assert!(matches!(action, ResolveAction::SpawnRemote(_)));
    }

    #[test]
    fn pda_never_fetches() {
        // Even on a link fast enough that fetching would win.
        let offers = vec![offer(1, 0.0, true, 100_000, false)];
        let pda = here(DeviceClass::Pda, 12_500_000.0);
        let (_, action) = choose(&offers, 500_000_000, &pda).unwrap();
        assert!(matches!(action, ResolveAction::SpawnRemote(_)));
    }

    #[test]
    fn lower_load_wins_between_remote_offers() {
        let offers = vec![offer(1, 0.9, false, 0, false), offer(2, 0.1, false, 0, false)];
        let (idx, action) = choose(&offers, 0, &workstation()).unwrap();
        assert_eq!(idx, 1);
        assert_eq!(action, ResolveAction::SpawnRemote(HostId(2)));
    }

    #[test]
    fn empty_offers_yield_none() {
        assert!(choose(&[], 0, &workstation()).is_none());
    }

    fn node_view(host: u32, cpu_power: f64, cpu_used: f64) -> NodeView {
        NodeView {
            host: HostId(host),
            report: ResourceReport {
                static_info: std::rc::Rc::new(StaticInfo {
                    cpu_power,
                    ..here(DeviceClass::Workstation, 1e7)
                }),
                dynamic: DynamicInfo { cpu_used, mem_used: 0, instances: 0 },
                installed: [].into(),
            },
        }
    }

    #[test]
    fn load_aware_beats_round_robin_on_skewed_nodes() {
        // One beefy idle server, three busy workstations.
        let nodes = vec![
            node_view(0, 4.0, 0.0),
            node_view(1, 1.0, 0.9),
            node_view(2, 1.0, 0.9),
            node_view(3, 1.0, 0.9),
        ];
        let qos = QosSpec { cpu_min: 0.5, cpu_max: 1.0, memory: 1 << 20, bandwidth_min: 0.0 };
        let instances = vec![qos; 6];

        let smart = plan_assembly(&instances, &nodes, PlacementStrategy::RuntimeLoadAware);
        // all six fit on the idle server (4.0 cpu ≥ 6 * 0.5)
        assert!(smart.iter().all(|p| *p == Some(0)));

        let dumb = plan_assembly(&instances, &nodes, PlacementStrategy::StaticRoundRobin);
        // round-robin scatters them regardless of load
        assert_eq!(dumb, vec![Some(0), Some(1), Some(2), Some(3), Some(0), Some(1)]);
    }

    #[test]
    fn load_aware_respects_admission() {
        let nodes = vec![node_view(0, 1.0, 0.8)];
        let qos = QosSpec { cpu_min: 0.5, cpu_max: 1.0, memory: 1 << 20, bandwidth_min: 0.0 };
        let placed = plan_assembly(&[qos], &nodes, PlacementStrategy::RuntimeLoadAware);
        assert_eq!(placed, vec![None]);
    }

    #[test]
    fn planner_tracks_its_own_reservations() {
        let nodes = vec![node_view(0, 1.0, 0.0), node_view(1, 1.0, 0.0)];
        let qos = QosSpec { cpu_min: 0.6, cpu_max: 1.0, memory: 1 << 20, bandwidth_min: 0.0 };
        let placed = plan_assembly(&[qos; 2], &nodes, PlacementStrategy::RuntimeLoadAware);
        // second instance cannot share node 0 (0.6+0.6 > 1.0)
        assert_eq!(placed[0], Some(0));
        assert_eq!(placed[1], Some(1));
    }
}
