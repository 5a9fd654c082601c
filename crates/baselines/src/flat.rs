//! The centralized ("flat") registry baseline.
//!
//! A single registry server holds every node's reports and answers every
//! query — the architecture of a naming/trading service without the
//! paper's hierarchical MRMs. In this codebase that is precisely the
//! degenerate hierarchy with one group spanning all hosts: every node
//! reports straight to host 0 (and its replicas), and every query is a
//! two-hop star walk through host 0.
//!
//! E2 uses [`flat_config`] vs the hierarchical default to reproduce the
//! paper's claim that the hierarchy "reduces network load and exploits
//! locality": the flat registry's *per-link* and *per-node* load grows
//! with N while the tree bounds both.
//!
//! The baseline needs no code of its own because the node is decomposed
//! into per-service modules over one shared runtime ([`lc_core::node`]):
//! the Component Registry service routes queries over whatever hierarchy the Network Cohesion
//! service maintains, so collapsing the hierarchy via configuration
//! re-targets *all* registry traffic at host 0 without touching either
//! service. Host 0's concentration shows up directly in its per-service
//! [`lc_core::NodeMetrics`] (registry `msgs in` ≫ any other node's).

use lc_core::cohesion::CohesionConfig;
use lc_des::SimTime;

/// Cohesion parameters that collapse the hierarchy into one group of
/// `n_hosts`, i.e. a centralized registry at host 0 (with `replicas`
/// stand-bys).
pub fn flat_config(n_hosts: usize, replicas: usize, report_period: SimTime) -> CohesionConfig {
    CohesionConfig {
        fanout: n_hosts.max(2),
        replicas,
        report_period,
        timeout_intervals: 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_core::Hierarchy;
    use lc_net::HostId;

    #[test]
    fn flat_config_yields_single_group() {
        let h = Hierarchy::build(64, flat_config(64, 1, SimTime::from_secs(2)));
        assert_eq!(h.depth(), 1);
        assert_eq!(h.shape.group_count(0), 1);
        assert_eq!(h.shape.mrms(0, 0).collect::<Vec<_>>(), [0]);
        // every node reports to the central server
        for host in (0..64).map(HostId) {
            assert_eq!(h.report_targets(host), vec![HostId(0)]);
        }
    }
}
