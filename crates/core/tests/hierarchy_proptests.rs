//! Property-based tests on the MRM hierarchy and cohesion soft state:
//! structural invariants for any population size, fanout and replica
//! count (§2.4.3 group formation), and the arithmetic tree against the
//! materialized construction it replaced.

use lc_core::cohesion::{CohesionConfig, DutyState, HierShape};
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

fn hosts(ids: impl Iterator<Item = u64>) -> Vec<HostId> {
    ids.map(|i| HostId(u32::try_from(i).expect("host fits u32"))).collect()
}

/// The reference construction: chunk the member list into groups of
/// `fanout`, elect the first `replicas` of each chunk, recurse over the
/// chunk primaries, and answer per-host questions by scanning every
/// group. This is what the hierarchy was before it became arithmetic
/// over `HierShape`; it lives on only as the oracle below.
struct OracleGroup {
    members: Vec<HostId>,
    mrms: Vec<HostId>,
}

struct Oracle {
    levels: Vec<Vec<OracleGroup>>,
}

/// One MRM seat, spelled out: its level, fellow replicas (self
/// included), the members it aggregates and its parent group's replicas
/// (empty at the root).
#[derive(PartialEq, Eq, Debug)]
struct Seat {
    level: usize,
    replicas: Vec<HostId>,
    members: Vec<HostId>,
    parent_replicas: Vec<HostId>,
}

/// `host`'s seats as the shape addresses them, spelled out. Each is in
/// the group `group_of` names for its level.
fn seats(shape: &HierShape, host: HostId) -> Vec<Seat> {
    let seats = shape.seats_of(host).map(|(level, g)| {
        assert_eq!(g, shape.group_of(level, u64::from(host.0)), "{host:?} at level {level}");
        Seat {
            level,
            replicas: hosts(shape.mrms(level, g)),
            members: hosts(shape.members(level, g)),
            parent_replicas: shape.parent(level, g).map_or(Vec::new(), |(pl, pg)| {
                hosts(shape.mrms(pl, pg))
            }),
        }
    });
    seats.collect()
}

fn report_targets(shape: &HierShape, host: HostId) -> Vec<HostId> {
    hosts(shape.mrms(0, shape.leaf_group_of(u64::from(host.0))))
}

impl Oracle {
    fn build(n: u32, fanout: usize, replicas: usize) -> Oracle {
        let mut levels: Vec<Vec<OracleGroup>> = Vec::new();
        let mut current: Vec<HostId> = (0..n).map(HostId).collect();
        loop {
            let groups: Vec<OracleGroup> = current
                .chunks(fanout)
                .map(|members| OracleGroup {
                    members: members.to_vec(),
                    mrms: members.iter().take(replicas).copied().collect(),
                })
                .collect();
            current = groups.iter().map(|g| g.mrms[0]).collect();
            levels.push(groups);
            if current.len() == 1 {
                return Oracle { levels };
            }
        }
    }

    fn report_targets(&self, host: HostId) -> Vec<HostId> {
        let leaf = self.levels[0].iter().find(|g| g.members.contains(&host));
        leaf.expect("host in a leaf group").mrms.clone()
    }

    fn seats_of(&self, host: HostId) -> Vec<Seat> {
        let mut seats = Vec::new();
        for (level, groups) in self.levels.iter().enumerate() {
            for g in groups.iter().filter(|g| g.mrms.contains(&host)) {
                // Parent group = the one a level up containing this
                // group's primary.
                let parent = self.levels.get(level + 1).map(|above| {
                    above.iter().find(|pg| pg.members.contains(&g.mrms[0])).expect("parent group")
                });
                seats.push(Seat {
                    level,
                    replicas: g.mrms.clone(),
                    members: g.members.clone(),
                    parent_replicas: parent.map(|pg| pg.mrms.clone()).unwrap_or_default(),
                });
            }
        }
        seats
    }
}

/// The arithmetic tree is the materialized one: same depth, same groups,
/// members, MRMs and parents, and for every host the same report targets
/// and seats.
fn assert_matches_oracle(n: u32, fanout: usize, replicas: usize) {
    let ctx = format!("n={n} fanout={fanout} replicas={replicas}");
    let oracle = Oracle::build(n, fanout, replicas);
    let shape = &cfg(fanout, replicas).shape(n as usize);
    assert_eq!(shape.depth(), oracle.levels.len(), "depth, {ctx}");
    let mut groups_total = 0;
    for (level, groups) in oracle.levels.iter().enumerate() {
        assert_eq!(shape.group_count(level), groups.len() as u64, "groups at {level}, {ctx}");
        groups_total += groups.len() as u64;
        for (g, group) in groups.iter().enumerate() {
            let g = g as u64;
            assert_eq!(hosts(shape.members(level, g)), group.members, "members {level}/{g}, {ctx}");
            assert_eq!(hosts(shape.mrms(level, g)), group.mrms, "mrms {level}/{g}, {ctx}");
            assert_eq!(shape.group_size(level, g), group.members.len() as u64);
            // A subtree spans from the group's primary to the next group's.
            let next = groups.get(g as usize + 1).map_or(n, |ng| ng.members[0].0);
            assert_eq!(shape.subtree(level, g), u64::from(group.members[0].0)..u64::from(next));
            match shape.parent(level, g) {
                Some((pl, pg)) => {
                    assert_eq!(pl, level + 1);
                    let parent = &oracle.levels[pl][pg as usize];
                    let slot = shape.slot_in_parent(g) as usize;
                    assert_eq!(parent.members[slot], group.mrms[0], "parent of {level}/{g}, {ctx}");
                }
                None => assert_eq!(level + 1, oracle.levels.len(), "root level, {ctx}"),
            }
        }
    }
    assert_eq!(shape.groups_total(), groups_total);
    for host in (0..n).map(HostId) {
        assert_eq!(report_targets(shape, host), oracle.report_targets(host), "{host:?}, {ctx}");
        assert_eq!(seats(shape, host), oracle.seats_of(host), "{host:?}, {ctx}");
    }
}

/// Powers, non-powers, ragged last groups at every level, a one-host
/// tree, fanout ≥ n (one group) and more replicas than a group has
/// members.
#[test]
fn matches_materialized_hierarchy() {
    for n in [1, 2, 5, 8, 9, 37, 64, 65, 100, 257, 512, 1_000, 1_016] {
        for fanout in [2, 3, 4, 8, 16, 64, 1_000] {
            for replicas in [1, 2, 3, 5] {
                assert_matches_oracle(n, fanout, replicas);
            }
        }
    }
}

#[test]
fn generated_trees_match_the_oracle() {
    check("generated_trees_match_the_oracle", |g| {
        let n = g.gen_range(1..400u32);
        let fanout = g.gen_range(2..24usize);
        let replicas = g.gen_range(1..6usize);
        assert_matches_oracle(n, fanout, replicas);
    });
}

/// Structural invariants of group formation.
#[test]
fn hierarchy_invariants() {
    check("hierarchy_invariants", |g| {
        let n = g.gen_range(1..600u32);
        let fanout = g.gen_range(2..20usize);
        let replicas = g.gen_range(1..5usize);

        let s = &cfg(fanout, replicas).shape(n as usize);
        let groups = |level| (0..s.group_count(level)).map(move |g| (level, g));

        // 1. Leaf groups partition the hosts exactly.
        let mut seen = BTreeSet::new();
        for (level, g) in groups(0) {
            assert!(s.group_size(level, g) <= fanout as u64);
            for m in s.members(level, g) {
                assert!(seen.insert(m), "host {m} in two leaf groups");
            }
        }
        assert_eq!(seen, (0..u64::from(n)).collect());

        // 2. Every group's MRM seats are a prefix of its members, at most
        //    `replicas` of them, never empty.
        for (level, g) in (0..s.depth()).flat_map(groups) {
            let (members, mrms) = (hosts(s.members(level, g)), hosts(s.mrms(level, g)));
            assert!(!mrms.is_empty());
            assert!(mrms.len() <= replicas.min(members.len()));
            assert_eq!(&members[..mrms.len()], &mrms[..]);
        }

        // 3. The top level has exactly one group; depth is logarithmic.
        assert_eq!(s.group_count(s.depth() - 1), 1);
        let mut expect_depth = 1usize;
        let mut count = n as usize;
        while count > fanout {
            count = count.div_ceil(fanout);
            expect_depth += 1;
        }
        assert_eq!(s.depth(), expect_depth);

        // 4. Level k+1 members are exactly the level-k primaries.
        for k in 0..s.depth() - 1 {
            let primaries: BTreeSet<u64> = groups(k).map(|(l, g)| s.primary(l, g)).collect();
            let members: BTreeSet<u64> =
                groups(k + 1).flat_map(|(l, g)| s.members(l, g)).collect();
            assert_eq!(primaries, members);
        }

        // 5. Every seat a host holds is consistent with the group tables,
        //    and its seats are contiguous from level 0 (the seat at level
        //    `l` is the `l`-th).
        for host in (0..n.min(50)).map(HostId) {
            let seats = seats(s, host);
            for (i, d) in seats.iter().enumerate() {
                assert_eq!(d.level, i, "{host:?}: seats not contiguous from level 0");
                assert!(d.replicas.contains(&host));
                assert!(d.members.contains(&host));
            }
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
            summary.components.insert(format!("C{host}").into());
            summary.node_count = 1;
            ds.on_summary(HostId(host), summary.into(), SimTime::from_secs(now_s));
            last.insert(host, now_s);
        }
        now_s += timeout_s + 1;
        ds.sweep(SimTime::from_secs(now_s), SimTime::from_secs(timeout_s));
        let alive: BTreeSet<HostId> = ds.records().keys().copied().collect();
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
                components: comps.into_iter().map(Into::into).collect(),
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
