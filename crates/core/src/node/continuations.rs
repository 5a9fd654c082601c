//! Unified continuation table for the node's pending distributed work.
//!
//! The node keeps four kinds of in-flight work — distributed queries,
//! instances it waits for on a peer (a remote spawn or a migration, both
//! answered by one `SpawnDone`), outgoing ORB calls and package fetches
//! — that all follow the same shape: *stash a continuation under a key,
//! resume it when the answering message arrives, optionally expire it on
//! a deadline*. [`Continuations`] is the one helper behind all four: a
//! key-sorted ring with one expiry sweep, which replaced ad-hoc maps
//! with hand-rolled expiry. Every node searches, so [`ContTable`] keeps
//! the queries beside the single sequence counter that numbers queries,
//! spawns and migrations; the other three tables and the servant side's
//! [`ReplyCache`] belong to the container runtime's state
//! (`container::Container`), which a node makes at its first install or
//! first use.

use crate::assembly::AssemblyDescriptor;
use crate::registry::{ComponentQuery, InstanceId, Offer};
use lc_des::SimTime;
use lc_net::HostId;
use lc_orb::{Name, ObjectKey, ObjectRef, OrbError, Outcome, RequestId, Value};
use lc_pkg::Version;
use lc_trace::TraceContext;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use super::{AssemblySink, InvokeSink, QuerySink, SpawnSink};

struct Entry<V> {
    value: V,
    deadline: Option<SimTime>,
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
    /// would go.
    fn find<Q: Ord + ?Sized>(&self, key: &Q) -> Result<usize, usize>
    where
        K: std::borrow::Borrow<Q>,
    {
        self.entries.binary_search_by(|(k, _)| k.borrow().cmp(key))
    }

    /// Park `entry` under `key` in key order (on the back when `key` is
    /// the greatest yet), replacing what was there.
    fn put(&mut self, key: K, entry: Entry<V>) {
        match self.find(&key) {
            Ok(i) => self.entries[i].1 = entry,
            Err(i) => self.entries.insert(i, (key, entry)),
        }
        self.high_water = self.high_water.max(self.entries.len());
    }

    /// Park a continuation that never expires (resumed only by a message).
    pub fn insert(&mut self, key: K, value: V) {
        self.put(key, Entry { value, deadline: None });
    }

    /// Park a continuation that expires at `deadline` if not resumed.
    pub fn insert_with_deadline(&mut self, key: K, value: V, deadline: SimTime) {
        self.put(key, Entry { value, deadline: Some(deadline) });
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

    /// The continuation under `key`, inserting a default (no deadline)
    /// if absent — the `entry().or_default()` idiom.
    pub fn entry_or_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        let i = match self.find(&key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, Entry { value: V::default(), deadline: None }));
                self.high_water = self.high_water.max(self.entries.len());
                i
            }
        };
        &mut self.entries[i].1.value
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
        let mut count = 0;
        for (_, e) in &self.entries {
            match e.deadline {
                Some(d) if d <= now => count += 1,
                Some(d) => self.next_due = self.next_due.min(d),
                None => {}
            }
        }
        let mut due = Vec::with_capacity(count);
        let mut i = 0;
        while due.len() < count {
            if self.entries[i].1.deadline.is_some_and(|d| d <= now) {
                due.extend(self.entries.remove(i).map(|(k, e)| (k, e.value)));
            } else {
                i += 1;
            }
        }
        due
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
/// numbers queries, spawns and migrations alike (the old code grew
/// a separate `next_seq` per use site).
#[derive(Default)]
pub struct ContTable {
    next_seq: u64,
    /// Distributed queries awaiting offers (expire on the query timeout).
    pub(crate) queries: Continuations<u64, PendingQuery>,
}

/// The servant side's reply cache. Every entry lives for the one fixed
/// dedup window from the instant it is cached, so deadlines arrive in
/// order, and a FIFO of them lets a sweep visit only what has expired
/// (a full scan per sweep is linear in the window times the reply rate).
/// The replies sit in a [`Continuations`] ring by request id: requests
/// arrive in nearly the order their ids were drawn, so a reply goes on
/// or near the back and the sweep takes from near the front.
#[derive(Default)]
pub(crate) struct ReplyCache {
    /// Each reply beside the deadline its expiry pair names.
    entries: Continuations<RequestId, (Result<Outcome, OrbError>, SimTime)>,
    /// `(deadline, id)` per insert, in insert order, so deadlines never
    /// decrease. An id cached again leaves its earlier pair behind; the
    /// sweep tells it by its deadline and skips it.
    expiry: VecDeque<(SimTime, RequestId)>,
}

impl ReplyCache {
    /// Cache `reply` for `id` until `deadline`, which is no earlier than
    /// any deadline cached before it.
    pub(crate) fn insert(
        &mut self,
        id: RequestId,
        reply: Result<Outcome, OrbError>,
        deadline: SimTime,
    ) {
        debug_assert!(
            self.expiry.back().is_none_or(|&(last, _)| last <= deadline),
            "reply cache deadlines arrive in order"
        );
        self.entries.insert(id, (reply, deadline));
        self.expiry.push_back((deadline, id));
    }

    /// The cached reply for `id`, if its window is still open.
    pub(crate) fn get(&self, id: &RequestId) -> Option<&Result<Outcome, OrbError>> {
        self.entries.get(id).map(|(reply, _)| reply)
    }

    /// Drop every entry whose deadline is at or before `now`; returns
    /// how many.
    pub(crate) fn sweep(&mut self, now: SimTime) -> usize {
        let mut dropped = 0;
        while let Some(&(deadline, id)) = self.expiry.front().filter(|(d, _)| *d <= now) {
            self.expiry.pop_front();
            if self.entries.get(&id).is_some_and(|(_, d)| *d == deadline) {
                self.entries.remove(&id);
                dropped += 1;
            }
        }
        dropped
    }

    /// Replies cached.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }
}

impl ContTable {
    pub(crate) fn new() -> Self {
        ContTable { next_seq: 1, ..ContTable::default() }
    }

    /// The node-wide sequence for queries, spawns and migrations.
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
    pub offers: Vec<Offer>,
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

/// What to do when a peer answers for an instance this node asked it to
/// create: a spawn (for a `uses` port or an assembly) or a migration.
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

/// What to do once a fetched package is installed.
pub(crate) enum FetchCont {
    SpawnAndConnect {
        component: String,
        min_version: Version,
        instance: InstanceId,
        port: String,
        sink: Option<SpawnSink>,
    },
    FinishMigration {
        rid: u64,
        origin: HostId,
        component: String,
        version: Version,
        state: Value,
        instance_name: Option<String>,
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

    #[test]
    fn deadlines_expire_in_key_order_and_only_once() {
        let mut c: Continuations<u64, &str> = Continuations::default();
        c.insert_with_deadline(2, "b", SimTime::from_millis(20));
        c.insert_with_deadline(1, "a", SimTime::from_millis(10));
        c.insert(3, "never");
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
                        table.insert(key, step);
                        reference.0.insert(key, (step, None));
                    }
                    1 | 2 => {
                        let deadline = ms(g.gen_range(0..400u64));
                        table.insert_with_deadline(key, step, deadline);
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
                            table.insert_with_deadline(k, v, later);
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
    /// without deadlines, overwrites, removals, peeks, defaults, sweeps
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
                    ring.insert(k.clone(), step);
                    tree.insert(k, step, None);
                }
                1 | 2 => {
                    let deadline = ms(g.gen_range(0..400u64));
                    ring.insert_with_deadline(k.clone(), step, deadline);
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
                6 => {
                    *ring.entry_or_default(k.clone()) += 1;
                    if !tree.entries.contains_key(&k) {
                        tree.insert(k.clone(), 0, None);
                    }
                    tree.entries.get_mut(&k).expect("just made").0 += 1;
                }
                _ => {
                    let now = ms(g.gen_range(0..450u64));
                    let expired = ring.take_expired(now);
                    assert_eq!(expired, tree.take_expired(now), "sweep at {now}");
                    if let Some((k, v)) = expired.into_iter().next() {
                        let later = now + ms(g.gen_range(1..100u64));
                        ring.insert_with_deadline(k.clone(), v, later);
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

    /// The reply cache drops, at every sweep, exactly what a full scan
    /// over its entries drops: inserts at `now + window` for one window
    /// per case, re-inserts of a live or swept id, gets, and sweeps at
    /// instants that may pass several deadlines or none.
    #[test]
    fn reply_cache_sweeps_agree_with_a_full_scan() {
        lc_prop::check("reply_cache_sweeps_agree_with_a_full_scan", |g| {
            let mut cache = ReplyCache::default();
            let mut reference = FullScan::default();
            let ms = SimTime::from_millis;
            let window = ms(g.gen_range(0..60u64));
            let reply = |v: u32| Ok(Outcome { ret: Value::ULong(v), outs: Vec::new() });
            let mut now = SimTime::ZERO;
            for step in 0..g.gen_range(1..300u32) {
                now += ms(g.gen_range(0..8u64));
                let key = g.gen_range(0..24u64);
                match g.gen_range(0..4u32) {
                    0 | 1 => {
                        cache.insert(RequestId(key), reply(step), now + window);
                        reference.0.insert(key, (step, Some(now + window)));
                    }
                    2 => {
                        let want = reference.0.get(&key).map(|&(v, _)| reply(v));
                        assert_eq!(cache.get(&RequestId(key)), want.as_ref(), "get {key}");
                    }
                    _ => {
                        let dropped = reference.take_expired(now).len();
                        assert_eq!(cache.sweep(now), dropped, "sweep at {now}");
                        for k in 0..24u64 {
                            let want = reference.0.get(&k).map(|&(v, _)| reply(v));
                            assert_eq!(cache.get(&RequestId(k)), want.as_ref(), "{k} at {now}");
                        }
                    }
                }
                assert_eq!(cache.len(), reference.0.len());
            }
            let last = now + window;
            assert_eq!(cache.sweep(last), reference.take_expired(last).len());
            assert_eq!(cache.len(), 0);
        });
    }

    #[test]
    fn entry_or_default_accumulates() {
        let mut c: Continuations<String, Vec<u32>> = Continuations::default();
        c.entry_or_default("x".into()).push(1);
        c.entry_or_default("x".into()).push(2);
        assert_eq!(c.remove(&"x".to_string()), Some(vec![1, 2]));
        assert!(c.is_empty());
    }

    #[test]
    fn cont_table_sequences_and_depth() {
        let mut t = ContTable::new();
        assert_eq!(t.next_seq(), 1);
        assert_eq!(t.next_seq(), 2);
        let pending = PendingQuery {
            purpose: QueryPurpose::Collect { sink: Rc::default(), first_wins: false },
            offers: Vec::new(),
            started: SimTime::ZERO,
            first_offer_at: None,
            query: ComponentQuery::default(),
            retries_left: 0,
            span: None,
            followers: Vec::new(),
        };
        t.queries.insert(7, pending);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.peak_depth(), 1);
        t.queries.remove(&7);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.peak_depth(), 1);
    }
}
