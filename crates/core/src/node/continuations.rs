//! Unified continuation table for the node's pending distributed work.
//!
//! The node keeps four kinds of in-flight work — distributed queries,
//! instances it asked a peer for (a migration is a request that carries
//! state; one `SpawnDone` answers each), outgoing ORB calls and package
//! fetches — that all follow the same shape: *stash a continuation
//! under a key, resume it when the answering message arrives,
//! optionally expire it on a deadline* (`SimTime::MAX`: never).
//! [`Continuations`] is the one helper behind all four: a key-sorted
//! ring with one expiry sweep, which replaced ad-hoc maps with
//! hand-rolled expiry. Every node searches, so [`ContTable`] keeps the
//! queries beside the single sequence counter that numbers queries and
//! instance requests; the other three tables, and the servant side's
//! record of the requests it ran, belong to the container runtime's
//! state (`container::Container`), which a node makes at its first
//! install or first use.

use crate::assembly::AssemblyDescriptor;
use crate::registry::{ComponentQuery, InstanceId, OfferSet};
use lc_des::SimTime;
use lc_net::HostId;
use lc_orb::{Name, ObjectKey, ObjectRef, Value};
use lc_pkg::Version;
use lc_trace::TraceContext;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use super::{AssemblySink, InvokeSink, QuerySink, SpawnSink};

struct Entry<V> {
    value: V,
    /// When the entry expires; `SimTime::MAX`, which no sweep reaches,
    /// for one only a message resumes.
    deadline: SimTime,
}

/// Keyed pending-work map with optional per-entry deadlines and a single
/// sweep ([`Continuations::take_expired`]) instead of per-entry
/// `contains_key` + remove dances.
///
/// The entries sit in one ring, sorted by key. Sequence numbers and
/// request ids only grow, so a new entry goes on the back, and answers,
/// which mostly arrive oldest first, take entries from near the front.
/// The ring keeps its slots, so a table in steady state allocates
/// nothing per entry.
pub struct Continuations<K, V> {
    entries: VecDeque<(K, Entry<V>)>,
    high_water: usize,
    /// No live entry expires before this (`MAX`: none has a deadline).
    /// A lower bound, not the minimum: inserts lower it, removals leave
    /// it, and the sweep that reaches it recomputes it.
    next_due: SimTime,
}

impl<K, V> Default for Continuations<K, V> {
    fn default() -> Self {
        Continuations { entries: VecDeque::new(), high_water: 0, next_due: SimTime::MAX }
    }
}

impl<K: Ord, V> Continuations<K, V> {
    /// Where `key` sits in the ring: `Ok` at its entry, `Err` where it
    /// would go. A key above the back entry's — a fresh sequence number
    /// or request id, the most common probe — is answered by that one
    /// comparison; any other by a binary search.
    fn find<Q: Ord + ?Sized>(&self, key: &Q) -> Result<usize, usize>
    where
        K: std::borrow::Borrow<Q>,
    {
        match self.entries.back() {
            Some((last, _)) if last.borrow() < key => Err(self.entries.len()),
            _ => self.entries.binary_search_by(|(k, _)| k.borrow().cmp(key)),
        }
    }

    /// Park `value` under `key`, in key order (on the back when `key` is
    /// the greatest yet), until a message resumes it or `deadline`
    /// passes (`SimTime::MAX`: only a message resumes it), replacing
    /// what was there.
    pub fn insert(&mut self, key: K, value: V, deadline: SimTime) {
        match self.find(&key) {
            Ok(i) => self.entries[i].1 = Entry { value, deadline },
            Err(i) => self.entries.insert(i, (key, Entry { value, deadline })),
        }
        self.high_water = self.high_water.max(self.entries.len());
        self.next_due = self.next_due.min(deadline);
    }

    /// Resume: take the continuation for `key`, if still pending.
    pub fn remove<Q: Ord + ?Sized>(&mut self, key: &Q) -> Option<V>
    where
        K: std::borrow::Borrow<Q>,
    {
        let i = self.find(key).ok()?;
        self.entries.remove(i).map(|(_, e)| e.value)
    }

    /// The continuation under `key`, if pending.
    pub fn get(&self, key: &K) -> Option<&V> {
        let i = self.find(key).ok()?;
        Some(&self.entries[i].1.value)
    }

    /// Peek at a pending continuation.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = self.find(key).ok()?;
        Some(&mut self.entries[i].1.value)
    }

    /// Is work still pending under `key`?
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// Remove and return every entry whose deadline is at or before
    /// `now`, in key order. One sweep serves all due entries, so a
    /// deadline tick only needs the clock, not the key that armed it —
    /// and a tick whose entry was resumed long ago (the common case:
    /// every call arms one, almost every reply beats it) finds `now`
    /// short of the earliest deadline and looks at nothing. The sweep
    /// counts what is due (and finds the next deadline) first, so the
    /// batch is allocated at its size, and a sweep that finds none due
    /// allocates nothing; due entries are mostly the oldest, at the
    /// front, so taking them out shifts little and stops at the last.
    pub fn take_expired(&mut self, now: SimTime) -> Vec<(K, V)> {
        if now < self.next_due {
            return Vec::new();
        }
        self.next_due = SimTime::MAX;
        let due = |e: &Entry<V>| e.deadline <= now && e.deadline != SimTime::MAX;
        let mut count = 0;
        for (_, e) in &self.entries {
            if due(e) {
                count += 1;
            } else {
                self.next_due = self.next_due.min(e.deadline);
            }
        }
        let mut taken = Vec::with_capacity(count);
        let mut i = 0;
        while taken.len() < count {
            if due(&self.entries[i].1) {
                taken.extend(self.entries.remove(i).map(|(k, e)| (k, e.value)));
            } else {
                i += 1;
            }
        }
        taken
    }

    /// The smallest key currently pending. For sequence-keyed tables
    /// this is the *oldest* entry — the one admission control sheds
    /// when the table hits its cap.
    pub fn oldest_key(&self) -> Option<&K> {
        self.entries.front().map(|(k, _)| k)
    }

    /// The live entries' values, in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, e)| &e.value)
    }

    /// Iterate over live entries in key order, values mutable. Used by
    /// sweeps that must adjust an entry *without* expiring it (e.g.
    /// expiring individual coalesced followers inside a still-pending
    /// query).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.entries.iter_mut().map(|(k, e)| (&*k, &mut e.value))
    }

    /// Number of pending continuations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// No pending continuations?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Most entries ever pending at once (high-water mark).
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

/// A node's pending queries, beside the one sequence counter that
/// numbers queries and instance requests alike (the old code grew a
/// separate `next_seq` per use site).
#[derive(Default)]
pub struct ContTable {
    next_seq: u64,
    /// Distributed queries awaiting offers (expire on the query timeout).
    pub(crate) queries: Continuations<u64, PendingQuery>,
}

impl ContTable {
    pub(crate) fn new() -> Self {
        ContTable { next_seq: 1, ..ContTable::default() }
    }

    /// The node-wide sequence for queries and instance requests.
    pub(crate) fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Pending queries.
    pub fn depth(&self) -> usize {
        self.queries.len()
    }

    /// Most queries ever pending at once.
    pub fn peak_depth(&self) -> usize {
        self.queries.high_water()
    }
}

// ===================== continuation payloads ============================

/// Why a query was started (what to do when it completes). A resolve
/// is rare and its payload wide, so it waits behind one box: every
/// pending query and follower is only as wide as a collect.
pub(crate) enum QueryPurpose {
    Collect {
        sink: QuerySink,
        first_wins: bool,
    },
    Resolve(Box<ResolveCont>),
}

/// What a resolve does with its answer: bind `port` of `instance` to
/// the offer [`crate::deploy::choose`] picks for `expected_traffic`.
pub(crate) struct ResolveCont {
    pub instance: InstanceId,
    pub port: String,
    pub expected_traffic: u64,
    pub sink: Option<SpawnSink>,
}

pub(crate) struct PendingQuery {
    pub purpose: QueryPurpose,
    /// What the search has found so far, shared with the answers it
    /// came in and, once served, with the cache and every caller.
    pub offers: OfferSet,
    pub started: SimTime,
    pub first_offer_at: Option<SimTime>,
    /// The query; each hop and retry sends a clone sharing its names.
    pub query: ComponentQuery,
    /// Re-issues left for a query expiring with zero offers
    /// (`NodeConfig::query_retries`).
    pub retries_left: u32,
    /// The query's trace span (root of the per-query trace tree when
    /// the fabric's tracer is enabled; ended at finalization).
    pub span: Option<TraceContext>,
    /// Queries coalesced onto this one (singleflight followers): each
    /// is served the leader's offer set at finalization, but keeps its
    /// *own* deadline so a leader kept alive by a retry cannot extend
    /// the queries merged onto it.
    pub followers: Vec<QueryFollower>,
}

/// A query merged onto an identical in-flight one (singleflight): its
/// own completion continuation and deadline, resolved when the leader
/// finalizes or when its deadline passes — whichever comes first.
pub(crate) struct QueryFollower {
    pub purpose: QueryPurpose,
    pub started: SimTime,
    pub deadline: SimTime,
}

/// What to do when a peer answers for an instance this node asked it
/// for: a provider for a `uses` port, an assembly member, or a
/// migration's new home. A hot replica parks nothing.
pub(crate) enum SpawnCont {
    Connect {
        instance: InstanceId,
        port: String,
        sink: Option<SpawnSink>,
    },
    Assembly {
        name: String,
        sink: AssemblySink,
        pending: Rc<RefCell<PendingAssembly>>,
    },
    /// `instance` is moving to the peer; this node drops it once the
    /// peer holds it.
    Migrate {
        instance: InstanceId,
        sink: Option<SpawnSink>,
        /// The migration's trace span (ended on the answer).
        span: Option<TraceContext>,
    },
}

/// What to do when a reply to an outgoing ORB request arrives.
pub(crate) enum CallCont {
    /// Route to a local instance's `_reply` op with this token.
    ToInstance { oid: u64, token: u64 },
    /// Hand to a driver sink.
    Sink(InvokeSink),
}

/// One in-flight outgoing ORB call: the completion continuation plus,
/// when the node's invoke policy enables recovery, everything needed to
/// re-send the request under the same id.
pub(crate) struct PendingCall {
    pub cont: CallCont,
    pub retry: Option<RetryState>,
    /// The call's trace span (ended when the reply lands or the call
    /// fails permanently). Retry spans *link* to this, they do not
    /// replace it.
    pub span: Option<TraceContext>,
}

/// Re-send state for a call under a deadline/retry policy.
pub(crate) struct RetryState {
    pub target: ObjectKey,
    pub op: Name,
    pub args: Vec<Value>,
    /// Send attempts made so far (the first send counts as 1).
    pub attempts: u32,
}

/// What to do once a fetched package is installed; the package's name
/// is the fetch table's key.
pub(crate) enum FetchCont {
    SpawnAndConnect {
        min_version: Version,
        instance: InstanceId,
        port: String,
        sink: Option<SpawnSink>,
    },
    /// A peer's request for an instance with state, handled again.
    Spawn {
        rid: u64,
        origin: HostId,
        min_version: Version,
        instance_name: Option<String>,
        state: Value,
    },
}

/// Assembly deployment in progress: connections fire once all spawns land.
pub(crate) struct PendingAssembly {
    pub assembly: AssemblyDescriptor,
    pub refs: BTreeMap<String, ObjectRef>,
    pub outstanding: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_orb::RequestId;

    #[test]
    fn deadlines_expire_in_key_order_and_only_once() {
        let mut c: Continuations<u64, &str> = Continuations::default();
        c.insert(2, "b", SimTime::from_millis(20));
        c.insert(1, "a", SimTime::from_millis(10));
        c.insert(3, "never", SimTime::MAX);
        assert_eq!(c.take_expired(SimTime::from_millis(5)), vec![]);
        assert_eq!(
            c.take_expired(SimTime::from_millis(20)),
            vec![(1, "a"), (2, "b")]
        );
        assert_eq!(c.take_expired(SimTime::from_millis(100)), vec![]);
        assert!(c.contains_key(&3));
        assert_eq!(c.high_water(), 3);
        assert_eq!(c.len(), 1);
    }

    /// The table before it kept a bound on the earliest deadline: every
    /// sweep scans every entry.
    #[derive(Default)]
    struct FullScan(BTreeMap<u64, (u32, Option<SimTime>)>);

    impl FullScan {
        fn take_expired(&mut self, now: SimTime) -> Vec<(u64, u32)> {
            let due: Vec<u64> = self
                .0
                .iter()
                .filter(|(_, (_, d))| d.is_some_and(|d| d <= now))
                .map(|(k, _)| *k)
                .collect();
            due.into_iter().filter_map(|k| self.0.remove(&k).map(|(v, _)| (k, v))).collect()
        }
    }

    /// Same calls, same answers as the full scan: mixed deadlines and
    /// deadline-less entries, removals that leave the bound stale,
    /// re-insertion under a later deadline (`sweep_calls`' retry path),
    /// sweeps before, at and after every deadline, out of time order.
    /// Every batch is allocated at its size.
    #[test]
    fn sweeps_agree_with_a_full_scan() {
        lc_prop::check("sweeps_agree_with_a_full_scan", |g| {
            let mut table: Continuations<u64, u32> = Continuations::default();
            let mut reference = FullScan::default();
            let ms = SimTime::from_millis;
            for step in 0..g.gen_range(1..200u32) {
                let key = g.gen_range(0..24u64);
                match g.gen_range(0..6u32) {
                    0 => {
                        table.insert(key, step, SimTime::MAX);
                        reference.0.insert(key, (step, None));
                    }
                    1 | 2 => {
                        let deadline = ms(g.gen_range(0..400u64));
                        table.insert(key, step, deadline);
                        reference.0.insert(key, (step, Some(deadline)));
                    }
                    3 => {
                        assert_eq!(table.remove(&key), reference.0.remove(&key).map(|(v, _)| v));
                    }
                    _ => {
                        let now = ms(g.gen_range(0..450u64));
                        let expired = table.take_expired(now);
                        assert_eq!(expired, reference.take_expired(now), "sweep at {now}");
                        assert_eq!(expired.capacity(), expired.len(), "a batch is sized exactly");
                        // The retry path parks an expired call again,
                        // under a later deadline.
                        if let Some(&(k, v)) = expired.first() {
                            let later = now + ms(g.gen_range(1..100u64));
                            table.insert(k, v, later);
                            reference.0.insert(k, (v, Some(later)));
                        }
                    }
                }
                assert_eq!(table.len(), reference.0.len());
            }
            // Before every deadline nothing is due; after the last one
            // only the deadline-less entries stay.
            assert_eq!(table.take_expired(SimTime::ZERO), reference.take_expired(SimTime::ZERO));
            assert_eq!(table.take_expired(SimTime::MAX), reference.take_expired(SimTime::MAX));
            assert_eq!(table.len(), reference.0.len());
        });
    }

    /// The tree the ring replaced, each entry's deadline beside its
    /// value, with a sweep that scans every entry and its own high-water
    /// mark.
    struct Tree<K> {
        entries: BTreeMap<K, (u32, Option<SimTime>)>,
        high_water: usize,
    }

    impl<K: Ord + Clone> Tree<K> {
        fn insert(&mut self, key: K, value: u32, deadline: Option<SimTime>) {
            self.entries.insert(key, (value, deadline));
            self.high_water = self.high_water.max(self.entries.len());
        }

        fn take_expired(&mut self, now: SimTime) -> Vec<(K, u32)> {
            let due: Vec<K> = self
                .entries
                .iter()
                .filter(|(_, (_, d))| d.is_some_and(|d| d <= now))
                .map(|(k, _)| k.clone())
                .collect();
            due.into_iter().filter_map(|k| self.entries.remove(&k).map(|(v, _)| (k, v))).collect()
        }
    }

    /// Every method of the ring against the tree: inserts with and
    /// without deadlines, overwrites, removals, peeks, sweeps
    /// (re-parking an expired key under a later deadline, as
    /// `sweep_calls` and `sweep_queries` do), and after every step the
    /// length, high-water mark, oldest key and iteration order. `key`
    /// draws the keys, in or out of order.
    fn ring_agrees_with_a_tree<K: Ord + Clone + std::fmt::Debug>(
        g: &mut lc_prop::Gen,
        mut key: impl FnMut(&mut lc_prop::Gen) -> K,
    ) {
        let mut ring: Continuations<K, u32> = Continuations::default();
        let mut tree = Tree { entries: BTreeMap::new(), high_water: 0 };
        let ms = SimTime::from_millis;
        for step in 0..g.gen_range(1..200u32) {
            let k = key(g);
            match g.gen_range(0..9u32) {
                0 => {
                    ring.insert(k.clone(), step, SimTime::MAX);
                    tree.insert(k, step, None);
                }
                1 | 2 => {
                    let deadline = ms(g.gen_range(0..400u64));
                    ring.insert(k.clone(), step, deadline);
                    tree.insert(k, step, Some(deadline));
                }
                3 => assert_eq!(ring.remove(&k), tree.entries.remove(&k).map(|(v, _)| v)),
                4 => {
                    // The order check below compares the edited values.
                    if let Some(v) = ring.get_mut(&k) {
                        *v += 1_000;
                    }
                    if let Some((v, _)) = tree.entries.get_mut(&k) {
                        *v += 1_000;
                    }
                }
                5 => assert_eq!(ring.contains_key(&k), tree.entries.contains_key(&k)),
                6 => assert_eq!(ring.get(&k), tree.entries.get(&k).map(|(v, _)| v)),
                _ => {
                    let now = ms(g.gen_range(0..450u64));
                    let expired = ring.take_expired(now);
                    assert_eq!(expired, tree.take_expired(now), "sweep at {now}");
                    if let Some((k, v)) = expired.into_iter().next() {
                        let later = now + ms(g.gen_range(1..100u64));
                        ring.insert(k.clone(), v, later);
                        tree.insert(k, v, Some(later));
                    }
                }
            }
            assert_eq!(ring.len(), tree.entries.len());
            assert_eq!(ring.is_empty(), tree.entries.is_empty());
            assert_eq!(ring.high_water(), tree.high_water);
            assert_eq!(ring.oldest_key(), tree.entries.keys().next());
            let order: Vec<(K, u32)> = ring.iter_mut().map(|(k, v)| (k.clone(), *v)).collect();
            let want: Vec<(K, u32)> =
                tree.entries.iter().map(|(k, (v, _))| (k.clone(), *v)).collect();
            assert_eq!(order, want);
        }
        assert_eq!(ring.take_expired(SimTime::MAX), tree.take_expired(SimTime::MAX));
        assert_eq!(ring.len(), tree.entries.len());
    }

    /// Request ids: half the time a fresh, greater one (the back of the
    /// ring), else any id up to it.
    #[test]
    fn the_ring_agrees_with_a_tree_on_growing_ids() {
        lc_prop::check("the_ring_agrees_with_a_tree_on_growing_ids", |g| {
            let mut next = 0u64;
            ring_agrees_with_a_tree(g, |g| {
                if g.gen_bool() {
                    next += g.gen_range(1..3u64);
                    RequestId(next)
                } else {
                    RequestId(g.gen_range(0..next + 1))
                }
            });
        });
    }

    /// Component names, as the fetch table keys them: no order at all.
    #[test]
    fn the_ring_agrees_with_a_tree_on_names() {
        lc_prop::check("the_ring_agrees_with_a_tree_on_names", |g| {
            ring_agrees_with_a_tree(g, |g| g.string_of("abc", 0..3));
        });
    }

    /// `find` answers as a plain binary search does — `Ok` at an entry,
    /// `Err` where a key would go — over random insert and remove
    /// orders and probes below, among and above the kept keys.
    #[test]
    fn find_agrees_with_a_binary_search() {
        lc_prop::check("find_agrees_with_a_binary_search", |g| {
            let mut ring: Continuations<u64, ()> = Continuations::default();
            let mut next = 0u64;
            for _ in 0..g.gen_range(1..200u32) {
                // Fresh keys above every kept one half the time, as
                // sequence numbers and request ids arrive.
                let key = if g.gen_bool() {
                    next += g.gen_range(1..3u64);
                    next
                } else {
                    g.gen_range(0..next + 3)
                };
                match g.gen_range(0..3u32) {
                    0 => ring.insert(key, (), SimTime::MAX),
                    1 => {
                        ring.remove(&key);
                    }
                    _ => {}
                }
                let keys: Vec<u64> = ring.entries.iter().map(|(k, _)| *k).collect();
                for probe in [key, g.gen_range(0..next + 3)] {
                    let want = keys.binary_search(&probe);
                    assert_eq!(ring.find(&probe), want, "probe {probe} in {keys:?}");
                }
            }
        });
    }

    #[test]
    fn cont_table_sequences_and_depth() {
        let mut t = ContTable::new();
        assert_eq!(t.next_seq(), 1);
        assert_eq!(t.next_seq(), 2);
        let pending = PendingQuery {
            purpose: QueryPurpose::Collect { sink: Rc::default(), first_wins: false },
            offers: OfferSet::default(),
            started: SimTime::ZERO,
            first_offer_at: None,
            query: ComponentQuery::default(),
            retries_left: 0,
            span: None,
            followers: Vec::new(),
        };
        t.queries.insert(7, pending, SimTime::MAX);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.peak_depth(), 1);
        t.queries.remove(&7);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.peak_depth(), 1);
    }
}
