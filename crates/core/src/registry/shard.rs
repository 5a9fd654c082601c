//! Consistent-hash shard ring for the sharded Distributed Registry
//! backend.
//!
//! Two levels keep churn cheap:
//!
//! 1. **Keys → shards** by `stable_hash64(key) % S`. The shard count is
//!    fixed by configuration, so this mapping never changes under churn.
//! 2. **Shards → hosts** by consistent hashing: every host projects
//!    `vnodes` points onto a 64-bit ring, every shard projects one
//!    anchor point, and a shard is served by the first `replicas`
//!    distinct hosts clockwise from its anchor. When a host leaves the
//!    ring, only the shards it served move (to their ring successors) —
//!    every other shard's replica set, and therefore every key in it,
//!    stays put (the ring-rebalance property test pins this).
//!
//! Every node holds the world's one ring, so a lookup, a publish and an
//! invalidation all go one hop, straight to the owning shard's replica
//! set.
//!
//! Everything is deterministic: the hash is FNV-1a over explicit byte
//! strings, hosts come from the fabric's ordered host list, and no
//! wall-clock or ambient RNG is involved.

use lc_net::HostId;
use std::rc::Rc;

/// Deterministic 64-bit FNV-1a hash (no `std::hash` — `RandomState`
/// would break run-to-run reproducibility).
pub fn stable_hash64(bytes: &[u8]) -> u64 {
    fnv1a(0xcbf2_9ce4_8422_2325, bytes)
}

/// FNV-1a continued from state `h`: hashing a concatenation piecewise.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Parameters of the shard ring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardRingConfig {
    /// Number of logical shards (fixed under churn).
    pub shards: u32,
    /// Hosts serving each shard (replica set size).
    pub replicas: u32,
    /// Ring points per host (smooths the host→shard distribution).
    pub vnodes: u32,
}

impl Default for ShardRingConfig {
    fn default() -> Self {
        ShardRingConfig { shards: 8, replicas: 2, vnodes: 8 }
    }
}

/// The immutable routing state every node derives from the host list.
#[derive(Clone, Debug)]
pub struct ShardRing {
    shards: u32,
    /// Per shard: the `replicas` distinct hosts serving it, in ring order
    /// (index 0 is the primary). Shared, so a coherence route names a
    /// replica set without copying it.
    replica_sets: Vec<Rc<[HostId]>>,
}

impl ShardRing {
    /// Build the ring over `hosts` (typically the fabric's full host
    /// list, so every node derives the identical ring).
    pub fn build(hosts: &[HostId], cfg: &ShardRingConfig) -> Self {
        assert!(cfg.shards >= 1, "at least one shard");
        assert!(cfg.replicas >= 1, "at least one replica per shard");
        assert!(cfg.vnodes >= 1, "at least one vnode per host");
        assert!(!hosts.is_empty(), "ring over zero hosts");
        // Host ring points, sorted by position; ties broken by host id so
        // the ring is a pure function of the member set.
        let mut points: Vec<(u64, HostId)> = hosts
            .iter()
            .flat_map(|&h| {
                (0..cfg.vnodes).map(move |v| {
                    let mut key = [0u8; 12];
                    key[..4].copy_from_slice(&h.0.to_le_bytes());
                    key[4..8].copy_from_slice(&v.to_le_bytes());
                    key[8..].copy_from_slice(b"host");
                    (stable_hash64(&key), h)
                })
            })
            .collect();
        points.sort_unstable();

        let replicas = (cfg.replicas as usize).min(hosts.len());
        let replica_sets = (0..cfg.shards)
            .map(|s| {
                let mut key = [0u8; 9];
                key[..4].copy_from_slice(&s.to_le_bytes());
                key[4..].copy_from_slice(b"shard");
                let anchor = stable_hash64(&key);
                // First ring point at or after the anchor, wrapping.
                let start = points.partition_point(|&(p, _)| p < anchor);
                let mut set: Vec<HostId> = Vec::with_capacity(replicas);
                for i in 0..points.len() {
                    let h = points[(start + i) % points.len()].1;
                    if !set.contains(&h) {
                        set.push(h);
                        if set.len() == replicas {
                            break;
                        }
                    }
                }
                set.into()
            })
            .collect();

        ShardRing { shards: cfg.shards, replica_sets }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard owning a component name: every query shape for one
    /// component routes to one shard, so coherence traffic has a single
    /// owner.
    pub fn shard_of_component(&self, component: &str) -> u32 {
        // The hash of `name:<component>`, without building that string.
        (fnv1a(stable_hash64(b"name:"), component.as_bytes()) % self.shards as u64) as u32
    }

    /// The replica set of a shard (primary first). A route that must
    /// outlive the borrow of the ring clones the handle, not the list.
    pub fn replicas(&self, shard: u32) -> &Rc<[HostId]> {
        &self.replica_sets[shard as usize]
    }

    /// Is `host` in the replica set of `shard`?
    pub fn is_replica(&self, shard: u32, host: HostId) -> bool {
        self.replica_sets[shard as usize].contains(&host)
    }

    /// Shards `host` serves, in shard order.
    pub fn shards_of(&self, host: HostId) -> Vec<u32> {
        (0..self.shards).filter(|&s| self.is_replica(s, host)).collect()
    }

    /// The largest power-of-two step from `at` that does not overshoot
    /// the clockwise distance to `target` (`target` once one step
    /// reaches it). No node routes by it; only the benchmark's
    /// `registry.ring_next_hop_ns` row times it.
    // frozen .perf surface: goes with ROADMAP 1a
    pub fn next_hop(&self, at: u32, target: u32) -> u32 {
        let dist = (target + self.shards - at) % self.shards;
        if dist == 0 {
            return at;
        }
        let mut step = 1u32;
        while step * 2 <= dist {
            step *= 2;
        }
        (at + step) % self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(n: u32) -> Vec<HostId> {
        (0..n).map(HostId).collect()
    }

    #[test]
    fn ring_is_deterministic_and_fully_replicated() {
        let cfg = ShardRingConfig { shards: 16, replicas: 3, vnodes: 8 };
        let a = ShardRing::build(&hosts(20), &cfg);
        let b = ShardRing::build(&hosts(20), &cfg);
        for s in 0..16 {
            assert_eq!(a.replicas(s), b.replicas(s), "shard {s} differs across builds");
            assert_eq!(a.replicas(s).len(), 3);
            // replica sets hold distinct hosts
            let mut set = a.replicas(s).to_vec();
            set.sort();
            set.dedup();
            assert_eq!(set.len(), 3);
        }
    }

    #[test]
    fn replica_sets_capped_by_host_count() {
        let cfg = ShardRingConfig { shards: 4, replicas: 3, vnodes: 4 };
        let r = ShardRing::build(&hosts(2), &cfg);
        for s in 0..4 {
            assert_eq!(r.replicas(s).len(), 2);
        }
    }

    #[test]
    fn components_keep_their_shard_and_spread() {
        let cfg = ShardRingConfig { shards: 8, ..Default::default() };
        let r = ShardRing::build(&hosts(16), &cfg);
        // the assignment every committed artefact was produced under
        assert_eq!(r.shard_of_component("Counter"), (stable_hash64(b"name:Counter") % 8) as u32);
        // different components spread over more than one shard
        let mut seen: Vec<u32> =
            (0..64).map(|i| r.shard_of_component(&format!("C{i}"))).collect();
        seen.sort_unstable();
        seen.dedup();
        assert!(seen.len() > 4, "64 components landed on {} shards", seen.len());
    }

    #[test]
    fn removing_a_host_moves_only_its_shards() {
        let cfg = ShardRingConfig { shards: 64, replicas: 2, vnodes: 8 };
        let full = ShardRing::build(&hosts(16), &cfg);
        let mut without: Vec<HostId> = hosts(16);
        without.retain(|&h| h != HostId(5));
        let smaller = ShardRing::build(&without, &cfg);
        let mut moved = 0;
        for s in 0..64 {
            if full.replicas(s).contains(&HostId(5)) {
                continue; // these shards are allowed (expected) to move
            }
            assert_eq!(
                full.replicas(s),
                smaller.replicas(s),
                "shard {s} moved although host 5 never served it"
            );
            moved += 1;
        }
        // at least some shards were untouched (sanity on the assertion above)
        assert!(moved > 0);
    }
}
