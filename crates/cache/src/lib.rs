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
//! Determinism: no wall clock, no RNG, no `HashMap` — every structure
//! iterates in key order, and expiry compares [`SimTime`] stamps the
//! simulation supplies.

use lc_des::SimTime;
use std::collections::BTreeMap;

/// Counters a cache accumulates; read by the node's metrics registry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a fresh entry.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries evicted because their age reached the TTL.
    pub stale_evictions: u64,
    /// Invalidation rounds applied (generation bumps).
    pub invalidations: u64,
    /// Entries removed by invalidations.
    pub invalidated_entries: u64,
}

struct CachedEntry<V> {
    value: V,
    stored_at: SimTime,
}

/// A query-result cache with a TTL expressed in virtual time.
///
/// An entry is *fresh* while `now - stored_at < ttl`; at `age == ttl`
/// it is stale (the same closed/open convention as the continuation
/// sweep's `deadline <= now`). Invalidation bumps a monotone per-cache
/// generation — the count of coherence events this cache has seen — and
/// removes matching entries.
pub struct QueryCache<K: Ord + Clone, V> {
    ttl: SimTime,
    generation: u64,
    entries: BTreeMap<K, CachedEntry<V>>,
    stats: CacheStats,
}

impl<K: Ord + Clone, V> QueryCache<K, V> {
    /// An empty cache whose entries live for `ttl` of virtual time.
    pub fn new(ttl: SimTime) -> Self {
        QueryCache { ttl, generation: 0, entries: BTreeMap::new(), stats: CacheStats::default() }
    }

    /// The current invalidation generation (monotone, starts at 0).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Store a result under `key`, stamped with the current time.
    /// Overwrites any previous entry.
    pub fn insert(&mut self, key: K, value: V, now: SimTime) {
        self.entries.insert(key, CachedEntry { value, stored_at: now });
    }

    /// Look up `key`. A fresh entry is a hit and returns the value with
    /// its age; an entry whose age reached the TTL is evicted (counted
    /// under `stale_evictions`) and the lookup is a miss.
    pub fn get(&mut self, key: &K, now: SimTime) -> Option<(&V, SimTime)> {
        let fresh = match self.entries.get(key) {
            None => {
                self.stats.misses += 1;
                return None;
            }
            Some(e) => now.saturating_sub(e.stored_at) < self.ttl,
        };
        if !fresh {
            self.entries.remove(key);
            self.stats.stale_evictions += 1;
            self.stats.misses += 1;
            return None;
        }
        self.stats.hits += 1;
        let e = &self.entries[key];
        Some((&e.value, now.saturating_sub(e.stored_at)))
    }

    /// Apply one invalidation round: bump the generation and remove
    /// every entry `pred` matches. Returns how many entries fell.
    /// The generation advances even when nothing matched — observers
    /// count coherence events, not evictions.
    pub fn invalidate_matching(&mut self, mut pred: impl FnMut(&K, &V) -> bool) -> usize {
        self.generation += 1;
        self.stats.invalidations += 1;
        let victims: Vec<K> = self
            .entries
            .iter()
            .filter(|(k, e)| pred(k, &e.value))
            .map(|(k, _)| k.clone())
            .collect();
        for k in &victims {
            self.entries.remove(k);
        }
        self.stats.invalidated_entries += victims.len() as u64;
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
    /// Queries merged onto an existing leader.
    coalesced: u64,
}

impl<K: Ord + Clone> Coalescer<K> {
    /// An empty table.
    pub fn new() -> Self {
        Coalescer { inflight: BTreeMap::new(), coalesced: 0 }
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

    /// Note one follower merged onto a leader.
    pub fn note_coalesced(&mut self) {
        self.coalesced += 1;
    }

    /// The flight for `key` completed; forget it. Returns the leader
    /// sequence, if one was registered.
    pub fn finish(&mut self, key: &K) -> Option<u64> {
        self.inflight.remove(key)
    }

    /// How many queries merged onto an existing leader so far.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
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
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.stale_evictions), (1, 1, 1));
    }

    #[test]
    fn generations_are_monotone() {
        let mut c: QueryCache<&str, u32> = QueryCache::new(MS(1000));
        c.insert("a", 1, MS(0));
        let mut last = c.generation();
        for round in 0..5 {
            c.invalidate_matching(|_, _| false); // even a no-op round advances
            assert!(c.generation() > last, "round {round}: generation must grow");
            last = c.generation();
        }
        // "a" survived the no-op rounds
        assert_eq!(c.get(&"a", MS(1)), Some((&1, MS(1))));
    }

    #[test]
    fn invalidation_removes_matching_only() {
        let mut c: QueryCache<String, Vec<&str>> = QueryCache::new(MS(1000));
        c.insert("q1".into(), vec!["Counter"], MS(0));
        c.insert("q2".into(), vec!["Clock"], MS(0));
        let fell = c.invalidate_matching(|_, v| v.contains(&"Counter"));
        assert_eq!(fell, 1);
        assert_eq!(c.get(&"q1".into(), MS(1)), None);
        assert!(c.get(&"q2".into(), MS(1)).is_some());
        assert_eq!(c.stats().invalidated_entries, 1);
        assert_eq!(c.invalidate_matching(|_, _| true), 1);
        assert!(c.get(&"q2".into(), MS(1)).is_none());
    }

    #[test]
    fn coalescer_single_leader() {
        let mut co: Coalescer<String> = Coalescer::new();
        assert!(co.lead("q".into(), 10));
        assert!(!co.lead("q".into(), 11), "second leader refused");
        assert_eq!(co.leader_of(&"q".into()), Some(10));
        co.note_coalesced();
        co.note_coalesced();
        assert_eq!(co.coalesced(), 2);
        assert_eq!(co.finish(&"q".into()), Some(10));
        assert_eq!(co.leader_of(&"q".into()), None);
        assert_eq!(co.finish(&"q".into()), None);
    }
}
