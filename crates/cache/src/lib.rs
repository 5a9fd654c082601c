//! # lc-cache — registry query result caching
//!
//! The paper argues the distributed registry's metadata "caching can be
//! performed safely" because component metadata is mostly immutable
//! (§2.4.2). This crate supplies the one mechanism the node threads
//! through its registry service, expressed against **virtual time** so a
//! cached run stays byte-deterministic: [`QueryCache`], query→result
//! entries with a TTL in [`SimTime`] and explicit invalidation
//! (register / deregister / migrate broadcasts). The TTL is the
//! staleness backstop for invalidations lost on a faulty fabric.
//! Coalescing identical in-flight queries needs no table here: the
//! node's pending-query table already names every search.
//!
//! The cache keeps no counters: the node counts every hit, miss,
//! coalesced follower and invalidation once, in the simulation's
//! `cache.*` metrics.
//!
//! Determinism: no wall clock, no RNG, no `HashMap` — the cache iterates
//! in key order, and expiry compares [`SimTime`] stamps the simulation
//! supplies.

use lc_des::SimTime;
use std::borrow::Borrow;
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
/// Lookups borrow the key (`&str` for a `String` key, `&Q` for a `Q`
/// key), so a probe copies nothing; a key whose clone is cheap (a query
/// sharing its names) makes an insert and a stale eviction cheap too.
pub struct QueryCache<K: Ord + Clone, V> {
    ttl: SimTime,
    entries: BTreeMap<K, CachedEntry<V>>,
    /// The key of an entry the last lookup found stale: it is removed
    /// before the cache is next read or written. A hit hands out a borrow
    /// of the tree from its one search, so the lookup that finds an entry
    /// stale cannot also remove it.
    stale: Option<K>,
}

impl<K: Ord + Clone, V> QueryCache<K, V> {
    /// An empty cache whose entries live for `ttl` of virtual time.
    pub fn new(ttl: SimTime) -> Self {
        QueryCache { ttl, entries: BTreeMap::new(), stale: None }
    }

    /// Remove the entry the last lookup found stale, if any.
    fn evict_stale(&mut self) {
        if let Some(key) = self.stale.take() {
            self.entries.remove(&key);
        }
    }

    /// Store a result under `key`, stamped with the current time.
    /// Overwrites any previous entry.
    pub fn insert(&mut self, key: K, value: V, now: SimTime) {
        self.evict_stale();
        self.entries.insert(key, CachedEntry { value, stored_at: now });
    }

    /// Look up `key`. A fresh entry is a hit and returns the value with
    /// its age, from one tree search; an entry whose age reached the TTL
    /// is evicted and the lookup is a miss.
    pub fn get<Q>(&mut self, key: &Q, now: SimTime) -> Option<(&V, SimTime)>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.evict_stale();
        let (k, e) = self.entries.get_key_value(key)?;
        let age = now.saturating_sub(e.stored_at);
        if age < self.ttl {
            return Some((&e.value, age));
        }
        self.stale = Some(k.clone());
        None
    }

    /// Apply one invalidation round: remove every entry `pred` matches.
    /// Returns how many entries fell.
    pub fn invalidate_matching(&mut self, mut pred: impl FnMut(&K, &V) -> bool) -> usize {
        self.evict_stale();
        let before = self.entries.len();
        self.entries.retain(|k, e| !pred(k, &e.value));
        before - self.entries.len()
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
        assert!(c.get("q1", MS(1)).is_some());
        let fell = c.invalidate_matching(|_, v| v.contains(&"Counter"));
        assert_eq!(fell, 1);
        assert_eq!(c.get("q1", MS(1)), None);
        assert!(c.get("q2", MS(1)).is_some());
        assert_eq!(c.invalidate_matching(|_, _| true), 1);
        assert!(c.get("q2", MS(1)).is_none());
    }

    /// A lookup that finds an entry stale evicts it before anything else
    /// reads the cache: an invalidation right after counts only what was
    /// still fresh, and a new insert under the key stands.
    #[test]
    fn a_stale_entry_is_gone_before_the_next_operation() {
        let mut c: QueryCache<String, u32> = QueryCache::new(MS(100));
        c.insert("old".into(), 1, MS(0));
        c.insert("new".into(), 2, MS(50));
        assert_eq!(c.get("old", MS(120)), None, "stale");
        assert_eq!(c.invalidate_matching(|_, _| true), 1, "only the fresh entry fell");
        c.insert("old".into(), 3, MS(0));
        assert_eq!(c.get("old", MS(120)), None);
        c.insert("old".into(), 4, MS(120));
        assert_eq!(c.get("old", MS(121)), Some((&4, MS(1))));
    }
}
