//! Property-based tests on the MRM hierarchy and cohesion soft state:
//! structural invariants for any population size, fanout and replica
//! count (§2.4.3 group formation).

use lc_core::cohesion::{CohesionConfig, DutyState, Hierarchy};
use lc_core::GroupSummary;
use lc_des::SimTime;
use lc_net::HostId;
use lc_prop::{alphabet, check};
use std::collections::BTreeSet;

fn cfg(fanout: usize, replicas: usize) -> CohesionConfig {
    CohesionConfig {
        fanout,
        replicas,
        report_period: SimTime::from_secs(1),
        timeout_intervals: 3,
    }
}

/// Structural invariants of group formation.
#[test]
fn hierarchy_invariants() {
    check("hierarchy_invariants", |g| {
        let n = g.gen_range(1..600u32);
        let fanout = g.gen_range(2..20usize);
        let replicas = g.gen_range(1..5usize);

        let hosts: Vec<HostId> = (0..n).map(HostId).collect();
        let h = Hierarchy::build(&hosts, cfg(fanout, replicas));

        // 1. Leaf groups partition the hosts exactly.
        let mut seen = BTreeSet::new();
        for gr in &h.levels[0] {
            assert!(gr.members.len() <= fanout);
            for m in &gr.members {
                assert!(seen.insert(*m), "host {m} in two leaf groups");
            }
        }
        assert_eq!(seen.len(), n as usize);

        // 2. Every group's MRM seats are a prefix of its members, at most
        //    `replicas` of them, never empty.
        for groups in &h.levels {
            for gr in groups {
                assert!(!gr.mrms.is_empty());
                assert!(gr.mrms.len() <= replicas.min(gr.members.len()));
                assert_eq!(&gr.members[..gr.mrms.len()], &gr.mrms[..]);
            }
        }

        // 3. The top level has exactly one group; depth is logarithmic.
        assert_eq!(h.levels.last().unwrap().len(), 1);
        let mut expect_depth = 1usize;
        let mut count = n as usize;
        while count > fanout {
            count = count.div_ceil(fanout);
            expect_depth += 1;
        }
        assert_eq!(h.depth(), expect_depth);

        // 4. Level k+1 members are exactly the level-k primaries.
        for k in 0..h.depth() - 1 {
            let primaries: BTreeSet<HostId> =
                h.levels[k].iter().map(|gr| gr.primary()).collect();
            let members: BTreeSet<HostId> = h.levels[k + 1]
                .iter()
                .flat_map(|gr| gr.members.iter().copied())
                .collect();
            assert_eq!(primaries, members);
        }

        // 5. Every plain host has report targets = its leaf group's MRMs,
        //    and duties are consistent with the group tables.
        for &host in hosts.iter().take(50) {
            let targets = h.report_targets(host);
            assert!(!targets.is_empty());
            let duties = h.duties_of(host);
            for d in &duties {
                assert!(d.replicas.contains(&host));
                // a duty's level is unique per host
            }
            let mut levels: Vec<u8> = duties.iter().map(|d| d.level).collect();
            levels.sort_unstable();
            levels.dedup();
            assert_eq!(levels.len(), duties.len(), "duplicate duty level");
        }
    });
}

/// Soft-state sweeps never evict fresh members and always evict stale
/// ones, regardless of interleaving.
#[test]
fn duty_state_sweep_correct() {
    check("duty_state_sweep_correct", |g| {
        let events =
            g.vec_of(1..120, |g| (g.gen_range(0..40u32), g.gen_range(0..100u64)));
        let timeout_s = g.gen_range(1..20u64);

        let mut ds = DutyState::default();
        let mut last: std::collections::BTreeMap<u32, u64> = Default::default();
        let mut now_s = 0;
        for (host, advance) in events {
            now_s += advance % 5;
            let mut summary = GroupSummary::default();
            summary.components.insert(format!("C{host}"));
            summary.node_count = 1;
            ds.on_summary(HostId(host), summary.into(), SimTime::from_secs(now_s));
            last.insert(host, now_s);
        }
        now_s += timeout_s + 1;
        ds.sweep(SimTime::from_secs(now_s), SimTime::from_secs(timeout_s));
        let alive: BTreeSet<HostId> = ds.alive().collect();
        for (host, t) in last {
            let fresh = now_s - t <= timeout_s;
            assert_eq!(
                alive.contains(&HostId(host)),
                fresh,
                "host {} last seen {}s ago, timeout {}s",
                host,
                now_s - t,
                timeout_s
            );
        }
    });
}

/// Summaries aggregate monotonically: absorbing more subtrees never
/// shrinks the component set or the counted resources.
#[test]
fn summary_absorb_monotone() {
    check("summary_absorb_monotone", |g| {
        let parts = g.vec_of(1..10, |g| {
            let comps: BTreeSet<String> = (0..g.gen_range(0..5usize))
                .map(|_| g.string_of(alphabet::LOWER, 1..5))
                .collect();
            (comps, g.gen_range(0..100u32), g.gen_range(0.0..8.0f64))
        });

        let mut total = GroupSummary::default();
        let mut prev_components = 0usize;
        let mut prev_nodes = 0u32;
        for (comps, nodes, cpu) in parts {
            let part = GroupSummary {
                components: comps.into_iter().collect(),
                node_count: nodes,
                cpu_free: cpu,
                mem_free: nodes as u64 * 1024,
            };
            total.absorb(&part);
            assert!(total.components.len() >= prev_components);
            assert!(total.node_count >= prev_nodes);
            prev_components = total.components.len();
            prev_nodes = total.node_count;
        }
    });
}
