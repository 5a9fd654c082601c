//! # lc-cache — registry query result caching and request coalescing
//!
//! The paper argues the distributed registry's metadata "caching can be
//! performed safely" because component metadata is mostly immutable
//! (§2.4.2). This crate supplies the mechanisms the node threads
//! through its registry service, all expressed against **virtual time**
//! so a cached run stays byte-deterministic:
//!
//! * [`QueryCache`] — query→result entries with a TTL
//!   in [`SimTime`] and explicit invalidation (register / deregister /
//!   migrate broadcasts). The TTL is the staleness backstop for
//!   invalidations lost on a faulty fabric.
//! * [`Coalescer`] — singleflight bookkeeping: the first in-flight query
//!   for a key becomes the *leader*; identical queries issued while it
//!   is pending join it as followers instead of spawning their own
//!   network search.
//!
//! Neither keeps counters: the node counts every hit, miss, coalesced
//! follower and invalidation once, in the simulation's `cache.*`
//! metrics.
//!
//! Determinism: no wall clock, no RNG, no `HashMap` — every structure
//! iterates in key order, and expiry compares [`SimTime`] stamps the
//! simulation supplies.

use lc_des::SimTime;
use std::collections::BTreeMap;

struct CachedEntry<V> {
    value: V,
    stored_at: SimTime,
}

/// A query-result cache with a TTL expressed in virtual time.
///
/// An entry is *fresh* while `now - stored_at < ttl`; at `age == ttl`
/// it is stale (the same closed/open convention as the continuation
/// sweep's `deadline <= now`). Invalidation removes matching entries.
pub struct QueryCache<K: Ord + Clone, V> {
    ttl: SimTime,
    entries: BTreeMap<K, CachedEntry<V>>,
}

impl<K: Ord + Clone, V> QueryCache<K, V> {
    /// An empty cache whose entries live for `ttl` of virtual time.
    pub fn new(ttl: SimTime) -> Self {
        QueryCache { ttl, entries: BTreeMap::new() }
    }

    /// Store a result under `key`, stamped with the current time.
    /// Overwrites any previous entry.
    pub fn insert(&mut self, key: K, value: V, now: SimTime) {
        self.entries.insert(key, CachedEntry { value, stored_at: now });
    }

    /// Look up `key`. A fresh entry is a hit and returns the value with
    /// its age; an entry whose age reached the TTL is evicted and the
    /// lookup is a miss.
    pub fn get(&mut self, key: &K, now: SimTime) -> Option<(&V, SimTime)> {
        let fresh = now.saturating_sub(self.entries.get(key)?.stored_at) < self.ttl;
        if !fresh {
            self.entries.remove(key);
            return None;
        }
        let e = &self.entries[key];
        Some((&e.value, now.saturating_sub(e.stored_at)))
    }

    /// Apply one invalidation round: remove every entry `pred` matches.
    /// Returns how many entries fell.
    pub fn invalidate_matching(&mut self, mut pred: impl FnMut(&K, &V) -> bool) -> usize {
        let victims: Vec<K> = self
            .entries
            .iter()
            .filter(|(k, e)| pred(k, &e.value))
            .map(|(k, _)| k.clone())
            .collect();
        for k in &victims {
            self.entries.remove(k);
        }
        victims.len()
    }
}

/// Singleflight bookkeeping for the node's registry: maps an in-flight
/// query key to the *leader* continuation's sequence number. Followers
/// attach themselves to the leader's pending entry; this table only
/// answers "is someone already searching for this?".
#[derive(Default)]
pub struct Coalescer<K: Ord + Clone> {
    inflight: BTreeMap<K, u64>,
}

impl<K: Ord + Clone> Coalescer<K> {
    /// An empty table.
    pub fn new() -> Self {
        Coalescer { inflight: BTreeMap::new() }
    }

    /// The leader's sequence for `key`, if a flight is in progress.
    pub fn leader_of(&self, key: &K) -> Option<u64> {
        self.inflight.get(key).copied()
    }

    /// Register `seq` as the leader for `key`. Returns `false` (and
    /// changes nothing) if a leader already exists.
    pub fn lead(&mut self, key: K, seq: u64) -> bool {
        if self.inflight.contains_key(&key) {
            return false;
        }
        self.inflight.insert(key, seq);
        true
    }

    /// The flight for `key` completed; forget it. Returns the leader
    /// sequence, if one was registered.
    pub fn finish(&mut self, key: &K) -> Option<u64> {
        self.inflight.remove(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: fn(u64) -> SimTime = SimTime::from_millis;

    #[test]
    fn fresh_hit_stale_evict() {
        let mut c: QueryCache<&str, u32> = QueryCache::new(MS(100));
        c.insert("q", 7, MS(0));
        // age 99 < ttl: hit, with its age
        assert_eq!(c.get(&"q", MS(99)), Some((&7, MS(99))));
        // age == ttl: stale — evicted, miss
        c.insert("q", 7, MS(0));
        assert_eq!(c.get(&"q", MS(100)), None);
        // the eviction took the entry: still a miss before its TTL
        assert_eq!(c.get(&"q", MS(1)), None);
    }

    #[test]
    fn invalidation_removes_matching_only() {
        let mut c: QueryCache<String, Vec<&str>> = QueryCache::new(MS(1000));
        c.insert("q1".into(), vec!["Counter"], MS(0));
        c.insert("q2".into(), vec!["Clock"], MS(0));
        // a no-op round removes nothing
        assert_eq!(c.invalidate_matching(|_, _| false), 0);
        assert!(c.get(&"q1".into(), MS(1)).is_some());
        let fell = c.invalidate_matching(|_, v| v.contains(&"Counter"));
        assert_eq!(fell, 1);
        assert_eq!(c.get(&"q1".into(), MS(1)), None);
        assert!(c.get(&"q2".into(), MS(1)).is_some());
        assert_eq!(c.invalidate_matching(|_, _| true), 1);
        assert!(c.get(&"q2".into(), MS(1)).is_none());
    }

    #[test]
    fn coalescer_single_leader() {
        let mut co: Coalescer<String> = Coalescer::new();
        assert!(co.lead("q".into(), 10));
        assert!(!co.lead("q".into(), 11), "second leader refused");
        assert_eq!(co.leader_of(&"q".into()), Some(10));
        assert_eq!(co.finish(&"q".into()), Some(10));
        assert_eq!(co.leader_of(&"q".into()), None);
        assert_eq!(co.finish(&"q".into()), None);
    }
}
