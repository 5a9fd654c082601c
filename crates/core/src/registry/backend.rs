//! The Component Registry service's resolution substrate: one concrete
//! [`Registry`] answering "where do this query's results come from?".
//!
//! * Every query first passes the per-node result cache and singleflight
//!   coalescer ([`Registry::resolve`]); a miss becomes a network search
//!   along [`Registry::search_route`].
//! * Without a shard store the search ascends the MRM hierarchy and
//!   coherence is a best-effort `CacheInvalidate` broadcast — the
//!   [`RegistryConfig::SingleLeader`](crate::node::RegistryConfig)
//!   default, byte-identical to the pre-sharding runtime.
//! * With a [`ShardStore`] the component inventory is consistent-hashed
//!   over the world's one [`ShardRing`]: publishers push their offers to
//!   the owning shard's replica set, lookups go there in one hop, and
//!   replicas reconcile with gossip anti-entropy (sorted `(component, publisher, generation)`
//!   digests on a virtual-time cadence), so a lost publish or
//!   invalidate has a convergence path beyond the TTL backstop.
//!
//! The route enums ([`ResolveStep`], [`SearchRoute`], [`CoherenceRoute`])
//! are data the registry service branches on; the shard-only operations
//! live on [`ShardStore`] and are reached from the arms that name a
//! shard.

use crate::proto::DeltaEntry;
use crate::registry::shard::{ShardRing, ShardRingConfig};
use crate::registry::{ComponentQuery, Offer};
use crate::resource::DynamicInfo;
use lc_cache::{Coalescer, QueryCache};
use lc_des::SimTime;
use lc_net::HostId;
use lc_orb::Name;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::rc::Rc;

/// Parameters of the sharded registry: the ring shape plus the two
/// virtual-time cadences that bound staleness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of logical shards.
    pub shards: u32,
    /// Hosts replicating each shard.
    pub replicas: u32,
    /// Consistent-hash ring points per host.
    pub vnodes: u32,
    /// Anti-entropy cadence: how often a replica republishes its own
    /// inventory and exchanges gossip digests with its peers.
    pub gossip_period: SimTime,
    /// How long a publisher's entry survives without a refresh — the
    /// liveness backstop that retires a crashed publisher's offers.
    pub publish_ttl: SimTime,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 8,
            replicas: 2,
            vnodes: 8,
            gossip_period: SimTime::from_millis(500),
            publish_ttl: SimTime::from_secs(2),
        }
    }
}

impl ShardConfig {
    /// The ring-shape part of this configuration.
    pub fn ring(&self) -> ShardRingConfig {
        ShardRingConfig { shards: self.shards, replicas: self.replicas, vnodes: self.vnodes }
    }
}

/// What [`Registry::resolve`] decided about a fresh query.
pub enum ResolveStep {
    /// Serve synchronously from the result cache.
    Hit {
        /// The cached offer set.
        offers: Vec<Offer>,
        /// The entry's age (surfaced as result staleness).
        age: SimTime,
    },
    /// Ride an identical in-flight query as a follower.
    Coalesce {
        /// The leader's continuation sequence.
        leader: u64,
        /// A result-cache lookup ran and missed (metrics attribution).
        cache_missed: bool,
    },
    /// No shortcut: run a network search ([`Registry::lead`] it, and
    /// [`Registry::complete`] it at finalization).
    Search {
        /// A result-cache lookup ran and missed (metrics attribution).
        cache_missed: bool,
    },
}

/// Where a network search for a query goes.
#[derive(Debug, PartialEq, Eq)]
pub enum SearchRoute {
    /// Ascend the MRM cohesion hierarchy (the paper's §2.4.3 path; also
    /// the sharded registry's fallback for queries the shard store
    /// cannot answer, e.g. interface queries).
    Hierarchy,
    /// This host replicates the owning shard: answer from the local
    /// shard store, synchronously.
    ShardLocal {
        /// The owning shard.
        shard: u32,
    },
    /// Another host replicates the owning shard: one lookup to its
    /// replica set, answered there.
    ShardRemote {
        /// The owning shard.
        shard: u32,
    },
}

/// Where an inventory-change coherence event travels.
pub enum CoherenceRoute {
    /// Nowhere: coherence machinery is off (no cache configured).
    Disabled,
    /// Best-effort `CacheInvalidate` to every reachable peer (the
    /// unsharded behaviour).
    Broadcast,
    /// Publish + invalidate only the owning shard's replica set.
    Shard {
        /// The replica set of the component's owning shard: the ring's
        /// own list, shared.
        replicas: Rc<[HostId]>,
    },
}

/// A shard's anti-entropy summary: `(component, publisher, generation)`
/// triples for every entry a replica holds, strictly sorted by
/// `(component, publisher)`. Built when an entry of the shard was added,
/// advanced or expired since the last round — the names the store's own
/// — kept otherwise, and shared by the digests to every peer replica.
pub type ShardDigest = Rc<[(Name, HostId, u64)]>;

/// What [`ComponentRegistry::local_offers`](crate::registry::ComponentRegistry::local_offers)
/// reads of a node when it builds a publication's offer set (the query
/// names one component, so the interface repository plays no part).
#[derive(Clone, Debug)]
pub(crate) struct PublishInputs {
    /// The repository's installed-name snapshot, rebuilt by every change
    /// to the installed set and compared by pointer; holding the clone
    /// keeps the allocation from being reused by a later snapshot.
    pub names: Rc<[Name]>,
    /// [`ComponentRegistry::generation`](crate::registry::ComponentRegistry::generation).
    pub instances: u64,
    /// The resource allocation every offer's `load` is computed from.
    pub dynamic: DynamicInfo,
}

impl PublishInputs {
    fn unchanged(&self, since: &PublishInputs) -> bool {
        Rc::ptr_eq(&self.names, &since.names)
            && self.instances == since.instances
            && self.dynamic == since.dynamic
    }
}

/// One publication this host made: the generation it went out under,
/// what its offer set was computed from, and the set itself.
struct Published {
    gen: u64,
    inputs: PublishInputs,
    offers: Rc<[Offer]>,
}

/// A publication as it goes on the wire: the component's name (the
/// store's key, shared), its generation and its offer set.
pub(crate) type Publication = (Name, u64, Rc<[Offer]>);

/// The result cache + singleflight table in front of every search, both
/// keyed by the search's own shared query and probed by a borrowed one.
struct CacheFront {
    cache: Option<QueryCache<Rc<ComponentQuery>, Vec<Offer>>>,
    coalescer: Coalescer<Rc<ComponentQuery>>,
    coalesce: bool,
}

/// One shard this host replicates: its publisher entries, and their
/// anti-entropy digest as last built.
#[derive(Default)]
struct ShardSlice {
    /// component → publisher → entry. A component key is the name its
    /// first publish arrived with.
    entries: BTreeMap<Name, BTreeMap<HostId, PubEntry>>,
    /// `None` once an entry was added, advanced or expired since the
    /// digest was built: the next round rebuilds it.
    digest: Option<ShardDigest>,
}

impl ShardSlice {
    /// The digest of the entries, built only if they changed since.
    fn digest(&mut self) -> ShardDigest {
        let entries = &self.entries;
        let digest = self.digest.get_or_insert_with(|| {
            let mut gens = Vec::with_capacity(entries.values().map(BTreeMap::len).sum());
            for (c, by_pub) in entries {
                gens.extend(by_pub.iter().map(|(&p, e)| (c.clone(), p, e.gen)));
            }
            gens.into()
        });
        Rc::clone(digest)
    }
}

/// One publisher's inventory for one component at one replica.
struct PubEntry {
    gen: u64,
    /// Freshness stamp (virtual time of the publisher's last refresh as
    /// observed along the publish/gossip path).
    at: SimTime,
    /// The publisher's offer set as published: shared with the other
    /// replicas' entries and with any repair delta that carries it on.
    offers: Rc<[Offer]>,
}

/// This host's slice of the sharded inventory: the world's shared ring,
/// the publisher entries of the shards this host replicates, and this
/// host's own last publications. Reached only from the
/// [`SearchRoute`]/[`CoherenceRoute`] arms and control messages that
/// name a shard.
pub struct ShardStore {
    host: HostId,
    /// Built once per world (a pure function of the host list and the
    /// ring shape) and shared by every node, respawns included.
    ring: Rc<ShardRing>,
    cfg: ShardConfig,
    /// Shards this host replicates.
    my_shards: Vec<u32>,
    /// One slice per shard in `my_shards`, empty ones included.
    store: BTreeMap<u32, ShardSlice>,
    /// This host's publication generations: one monotone counter,
    /// stamped per component on real changes.
    next_gen: u64,
    /// This host's last publication of each component, re-sent as is by
    /// a refresh that finds its inputs unchanged.
    published: BTreeMap<Name, Published>,
    gossip_rounds: u64,
}

impl ShardStore {
    /// An empty store for `host` over the world's ring.
    pub fn new(cfg: &ShardConfig, host: HostId, ring: Rc<ShardRing>) -> Self {
        let my_shards = ring.shards_of(host);
        ShardStore {
            host,
            store: my_shards.iter().map(|&s| (s, ShardSlice::default())).collect(),
            my_shards,
            ring,
            cfg: cfg.clone(),
            next_gen: 0,
            published: BTreeMap::new(),
            gossip_rounds: 0,
        }
    }

    /// The shared ring.
    pub fn ring(&self) -> &Rc<ShardRing> {
        &self.ring
    }

    /// Apply one entry if it is news: a strictly newer generation wins,
    /// and an equal generation with an equal-or-newer freshness stamp
    /// refreshes (keeps a live publisher's entry from expiring).
    fn apply(
        &mut self,
        shard: u32,
        component: Name,
        publisher: HostId,
        gen: u64,
        at: SimTime,
        offers: Rc<[Offer]>,
    ) -> bool {
        let slice = self.store.entry(shard).or_default();
        let by_pub = slice.entries.entry(component).or_default();
        let changed = match by_pub.get_mut(&publisher) {
            Some(e) if gen < e.gen || (gen == e.gen && at < e.at) => false,
            Some(e) => {
                let changed = gen > e.gen;
                e.gen = gen;
                e.at = at;
                e.offers = offers;
                changed
            }
            None => {
                by_pub.insert(publisher, PubEntry { gen, at, offers });
                true
            }
        };
        if changed {
            slice.digest = None;
        }
        changed
    }

    /// Drop entries whose freshness stamp aged past `publish_ttl`.
    fn expire(&mut self, now: SimTime) {
        let ttl = self.cfg.publish_ttl;
        for slice in self.store.values_mut() {
            let mut expired = false;
            for by_pub in slice.entries.values_mut() {
                by_pub.retain(|_, e| {
                    let fresh = now.saturating_sub(e.at) < ttl;
                    expired |= !fresh;
                    fresh
                });
            }
            if expired {
                slice.entries.retain(|_, by_pub| !by_pub.is_empty());
                slice.digest = None;
            }
        }
    }

    /// Where a name query for `name` goes from this host.
    fn route(&self, name: &str) -> SearchRoute {
        let shard = self.ring.shard_of_component(name);
        if self.ring.is_replica(shard, self.host) {
            SearchRoute::ShardLocal { shard }
        } else {
            SearchRoute::ShardRemote { shard }
        }
    }

    /// Answer a query from the local store of `shard`. `None` when this
    /// host does not replicate the shard. Interface (`provides`) queries
    /// never reach the store — the router sends them down the hierarchy
    /// — so an offer is checked against the query's other predicates.
    pub fn lookup(&self, shard: u32, query: &ComponentQuery) -> Option<Vec<Offer>> {
        if !self.ring.is_replica(shard, self.host) {
            return None;
        }
        let mut out: Vec<Offer> = Vec::new();
        if let Some(by_comp) = self.store.get(&shard).map(|slice| &slice.entries) {
            let comps = match query.name.as_deref() {
                Some(name) => {
                    by_comp.range::<str, _>((Bound::Included(name), Bound::Included(name)))
                }
                None => by_comp.range::<str, _>(..),
            };
            // Sized once, for every offer held: the answer is one vector.
            let held = comps.clone().flat_map(|(_, by_pub)| by_pub.values());
            out.reserve_exact(held.map(|e| e.offers.len()).sum());
            for (_, by_pub) in comps {
                for e in by_pub.values() {
                    for o in e.offers.iter() {
                        if query.admits(&o.component, o.version, o.cost_per_hour, o.mobility)
                            && !out.iter().any(|x| {
                                x.node == o.node
                                    && x.component == o.component
                                    && x.version == o.version
                            })
                        {
                            out.push(o.clone());
                        }
                    }
                }
            }
        }
        Some(out)
    }

    /// This host's last publication of `component`, for a refresh: the
    /// name, generation and offer set it went out with, when nothing its
    /// offer set was computed from has changed since (`inputs`).
    pub(crate) fn republish(&self, component: &str, inputs: &PublishInputs) -> Option<Publication> {
        let (name, last) = self.published.get_key_value(component)?;
        inputs
            .unchanged(&last.inputs)
            .then(|| (name.clone(), last.gen, Rc::clone(&last.offers)))
    }

    /// Record a freshly computed publication of `component`. `bump`
    /// advances its generation (a real inventory change), as does a first
    /// publish; a refresh keeps it, so reordered publishes cannot
    /// resurrect stale offers.
    pub(crate) fn publish(
        &mut self,
        component: &str,
        bump: bool,
        inputs: PublishInputs,
        offers: Rc<[Offer]>,
    ) -> Publication {
        let last = self.published.get_key_value(component);
        let name = last.map_or_else(|| Name::from(component), |(name, _)| name.clone());
        let gen = match last {
            Some((_, last)) if !bump => last.gen,
            _ => {
                self.next_gen += 1;
                self.next_gen
            }
        };
        let published = Published { gen, inputs, offers: Rc::clone(&offers) };
        self.published.insert(name.clone(), published);
        (name, gen, offers)
    }

    /// Absorb a publisher's offers for `component` (direct publish).
    /// `at` is the publisher's freshness stamp. Returns whether the
    /// store changed.
    pub fn on_publish(
        &mut self,
        component: Name,
        publisher: HostId,
        gen: u64,
        at: SimTime,
        offers: Rc<[Offer]>,
    ) -> bool {
        let shard = self.ring.shard_of_component(&component);
        if !self.ring.is_replica(shard, self.host) {
            return false; // stale addressing (e.g. ring drift across configs)
        }
        self.apply(shard, component, publisher, gen, at, offers)
    }

    /// Start an anti-entropy round: expiry-sweep the local shard stores
    /// and count the round. The round's digests are then read shard by
    /// shard with [`digest`](Self::digest) and go to every peer replica
    /// — even when empty, so an empty (respawned) replica still solicits
    /// repair deltas.
    pub fn begin_gossip(&mut self, now: SimTime) {
        self.expire(now);
        self.gossip_rounds += 1;
    }

    /// The `i`-th shard this host replicates (in shard order) and its
    /// digest: the one the last round sent, shared, unless an entry of
    /// the shard was added, advanced or expired since. `None` past the
    /// last shard.
    pub fn digest(&mut self, i: usize) -> Option<(u32, ShardDigest)> {
        let shard = *self.my_shards.get(i)?;
        Some((shard, self.store.entry(shard).or_default().digest()))
    }

    /// Answer a peer's digest for `shard` with every entry this replica
    /// holds at a strictly newer generation (or that the digest lacks).
    /// `gens` must be sorted by `(component, publisher)`, as
    /// [`digest`](Self::digest) hands it out; a repeated pair
    /// counts at its highest generation.
    pub fn on_gossip_digest(
        &mut self,
        shard: u32,
        gens: &[(Name, HostId, u64)],
        now: SimTime,
    ) -> Vec<DeltaEntry> {
        if !self.ring.is_replica(shard, self.host) {
            return Vec::new();
        }
        self.expire(now);
        let Some(by_comp) = self.store.get(&shard).map(|slice| &slice.entries) else {
            return Vec::new();
        };
        // The digest and the store are both in (component, publisher)
        // order: walk them side by side, and ship everything held
        // strictly ahead of (or absent from) the peer's view.
        let mut theirs = gens.iter().peekable();
        let mut out = Vec::new();
        for (c, by_pub) in by_comp {
            for (&p, e) in by_pub {
                let mut known = 0;
                while let Some((tc, tp, tg)) = theirs.peek() {
                    match (&**tc, *tp).cmp(&(&**c, p)) {
                        Ordering::Less => {}
                        Ordering::Equal => known = known.max(*tg),
                        Ordering::Greater => break,
                    }
                    theirs.next();
                }
                if e.gen > known {
                    out.push(DeltaEntry {
                        component: c.clone(),
                        publisher: p,
                        gen: e.gen,
                        at: e.at,
                        offers: Rc::clone(&e.offers),
                    });
                }
            }
        }
        out
    }

    /// Apply a peer's repair delta. Returns how many entries advanced.
    pub fn on_gossip_delta(&mut self, shard: u32, entries: Vec<DeltaEntry>) -> usize {
        if !self.ring.is_replica(shard, self.host) {
            return 0;
        }
        let mut advanced = 0;
        for e in entries {
            if self.ring.shard_of_component(&e.component) != shard {
                continue;
            }
            if self.apply(shard, e.component, e.publisher, e.gen, e.at, e.offers) {
                advanced += 1;
            }
        }
        advanced
    }

    /// The anti-entropy cadence.
    pub fn gossip_period(&self) -> SimTime {
        self.cfg.gossip_period
    }

    /// Anti-entropy digest rounds this host has run.
    pub fn gossip_rounds(&self) -> u64 {
        self.gossip_rounds
    }

    /// Publisher entries held across this host's shard stores.
    pub fn entries(&self) -> usize {
        self.store.values().flat_map(|slice| slice.entries.values()).map(BTreeMap::len).sum()
    }
}

/// The Component Registry service's resolution substrate: the result
/// cache and singleflight table every query passes first, plus — when
/// [`RegistryConfig::Sharded`](crate::node::RegistryConfig) selects it
/// — this host's [`ShardStore`].
pub struct Registry {
    front: CacheFront,
    shard: Option<ShardStore>,
}

impl Registry {
    /// Build from the node's cache configuration and, for a sharded
    /// registry, this host's store over the world's ring.
    pub fn new(cache: Option<&crate::node::CacheConfig>, shard: Option<ShardStore>) -> Self {
        let front = CacheFront {
            cache: cache.map(|c| QueryCache::new(c.ttl)),
            coalescer: Coalescer::new(),
            coalesce: cache.is_some_and(|c| c.coalesce),
        };
        Registry { front, shard }
    }

    /// The shard store, when the registry is sharded.
    pub fn shard(&self) -> Option<&ShardStore> {
        self.shard.as_ref()
    }

    /// Mutable access to the shard store, when the registry is sharded.
    pub fn shard_mut(&mut self) -> Option<&mut ShardStore> {
        self.shard.as_mut()
    }

    /// Triage a fresh query: cache hit, coalesce onto a live leader
    /// (`leader_live` says whether a sequence is still pending), or
    /// search.
    pub fn resolve(
        &mut self,
        query: &ComponentQuery,
        now: SimTime,
        leader_live: impl Fn(u64) -> bool,
    ) -> ResolveStep {
        let front = &mut self.front;
        let mut cache_missed = false;
        if let Some(cache) = front.cache.as_mut() {
            if let Some((offers, age)) = cache.get(query, now) {
                return ResolveStep::Hit { offers: offers.clone(), age };
            }
            cache_missed = true;
        }
        if front.coalesce {
            if let Some(leader) = front.coalescer.leader_of(query) {
                if leader_live(leader) {
                    return ResolveStep::Coalesce { leader, cache_missed };
                }
                // Stale entry (leader finalized outside the normal
                // path): clear and lead afresh.
                front.coalescer.finish(query);
            }
        }
        ResolveStep::Search { cache_missed }
    }

    /// Register `seq` as the singleflight leader for `query` (no-op when
    /// coalescing is off). The table keeps the search's own query.
    pub fn lead(&mut self, query: &Rc<ComponentQuery>, seq: u64) {
        if self.front.coalesce {
            self.front.coalescer.lead(Rc::clone(query), seq);
        }
    }

    /// The search for `query` finished: close the coalescing window and,
    /// when `cacheable` (not timed out) and non-empty, fill the result
    /// cache under the search's own query with a copy of the offers.
    pub fn complete(
        &mut self,
        query: &Rc<ComponentQuery>,
        offers: &[Offer],
        now: SimTime,
        cacheable: bool,
    ) {
        self.front.coalescer.finish(&**query);
        if cacheable && !offers.is_empty() {
            if let Some(cache) = self.front.cache.as_mut() {
                cache.insert(Rc::clone(query), offers.to_vec(), now);
            }
        }
    }

    /// Drop cached results that could name `component`: the entry's
    /// query names it or names nothing (an interface query), or a cached
    /// offer is for it. Returns how many entries fell, or `None` when
    /// there is no cache layer at all (the caller then skips coherence
    /// metrics, matching the cache-disabled runtime byte-for-byte).
    pub fn invalidate(&mut self, component: &str) -> Option<usize> {
        let cache = self.front.cache.as_mut()?;
        Some(cache.invalidate_matching(|query, offers| {
            query.name.as_deref().is_none_or(|name| name == component)
                || offers.iter().any(|o| o.component == component)
        }))
    }

    /// Where a network search for this query goes.
    pub fn search_route(&self, query: &ComponentQuery) -> SearchRoute {
        // The shard store indexes by component name and cannot evaluate
        // interface-subtyping predicates — those stay on the hierarchy.
        match (&self.shard, query.name.as_deref()) {
            (Some(store), Some(name)) if query.provides.is_none() => store.route(name),
            _ => SearchRoute::Hierarchy,
        }
    }

    /// Where an inventory-change event for `component` travels.
    pub fn coherence_route(&self, component: &str) -> CoherenceRoute {
        match &self.shard {
            Some(store) => {
                let shard = store.ring.shard_of_component(component);
                CoherenceRoute::Shard { replicas: Rc::clone(store.ring.replicas(shard)) }
            }
            None if self.front.cache.is_some() => CoherenceRoute::Broadcast,
            None => CoherenceRoute::Disabled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_pkg::{Mobility, Version};

    const MS: fn(u64) -> SimTime = SimTime::from_millis;

    fn hosts(n: u32) -> Vec<HostId> {
        (0..n).map(HostId).collect()
    }

    fn offer(node: u32, component: &str) -> Offer {
        Offer {
            node: HostId(node),
            component: component.into(),
            version: Version::new(1, 0),
            mobility: Mobility::Mobile,
            cost_per_hour: 0,
            package_size: 1000,
            load: 0.0,
            running_instance: None,
        }
    }

    /// `host`'s shard store over a ring of `n` hosts.
    fn store(cfg: &ShardConfig, host: u32, n: u32) -> ShardStore {
        ShardStore::new(cfg, HostId(host), Rc::new(ShardRing::build(&hosts(n), &cfg.ring())))
    }

    /// Two replicas of a two-host ring (replicas=2 → every shard lives
    /// on both hosts).
    fn replica_pair() -> (ShardStore, ShardStore) {
        let cfg = ShardConfig { shards: 4, replicas: 2, vnodes: 4, ..Default::default() };
        (store(&cfg, 0, 2), store(&cfg, 1, 2))
    }

    /// One anti-entropy round of `store`, as the node runs it: every
    /// digest with the peer replica it goes to.
    fn digests(store: &mut ShardStore, now: SimTime) -> Vec<(HostId, u32, ShardDigest)> {
        store.begin_gossip(now);
        let mut out = Vec::new();
        for i in 0.. {
            let Some((shard, gens)) = store.digest(i) else { break };
            for &peer in store.ring().replicas(shard).iter().filter(|&&p| p != store.host) {
                out.push((peer, shard, Rc::clone(&gens)));
            }
        }
        out
    }

    /// One full anti-entropy exchange: `a` digests to `b`, `b` replies
    /// with its delta, and vice versa. Returns entries applied.
    fn gossip_round(a: &mut ShardStore, b: &mut ShardStore, now: SimTime) -> usize {
        let mut applied = 0;
        for (to, shard, gens) in digests(a, now) {
            assert_eq!(to, HostId(1));
            let delta = b.on_gossip_digest(shard, &gens, now);
            applied += a.on_gossip_delta(shard, delta);
        }
        for (to, shard, gens) in digests(b, now) {
            assert_eq!(to, HostId(0));
            let delta = a.on_gossip_digest(shard, &gens, now);
            applied += b.on_gossip_delta(shard, delta);
        }
        applied
    }

    #[test]
    fn missed_publish_converges_via_anti_entropy() {
        let (mut a, mut b) = replica_pair();
        let q = ComponentQuery::by_name("X", Version::new(1, 0));
        let shard = a.ring().shard_of_component("X");
        // The publish reached replica A but the fabric lost B's copy
        // (the missed-broadcast case): only A can answer.
        assert!(a.on_publish("X".into(), HostId(0), 1, MS(10), [offer(0, "X")].into()));
        assert_eq!(a.lookup(shard, &q).map(|o| o.len()), Some(1));
        assert_eq!(b.lookup(shard, &q).map(|o| o.len()), Some(0));
        // One gossip round repairs B; a second round is quiescent.
        assert_eq!(gossip_round(&mut a, &mut b, MS(30)), 1);
        assert_eq!(b.lookup(shard, &q).map(|o| o.len()), Some(1));
        assert_eq!(gossip_round(&mut a, &mut b, MS(50)), 0, "converged replicas stay quiet");
    }

    #[test]
    fn missed_invalidate_converges_to_removal() {
        let (mut a, mut b) = replica_pair();
        let q = ComponentQuery::by_name("X", Version::new(1, 0));
        let shard = a.ring().shard_of_component("X");
        // Both replicas hold generation 1 …
        a.on_publish("X".into(), HostId(0), 1, MS(10), [offer(0, "X")].into());
        b.on_publish("X".into(), HostId(0), 1, MS(10), [offer(0, "X")].into());
        // … then the publisher's inventory empties (deregister) and only
        // A hears about it — the lost-CacheInvalidate analogue.
        a.on_publish("X".into(), HostId(0), 2, MS(20), [].into());
        assert_eq!(a.lookup(shard, &q).map(|o| o.len()), Some(0));
        assert_eq!(b.lookup(shard, &q).map(|o| o.len()), Some(1), "B is stale");
        assert_eq!(gossip_round(&mut a, &mut b, MS(30)), 1);
        assert_eq!(b.lookup(shard, &q).map(|o| o.len()), Some(0), "B converged");
    }

    #[test]
    fn stale_generations_never_regress_the_store() {
        let (mut a, _) = replica_pair();
        let q = ComponentQuery::by_name("X", Version::new(1, 0));
        let shard = a.ring().shard_of_component("X");
        a.on_publish("X".into(), HostId(0), 3, MS(30), [].into());
        // A reordered older publish must not resurrect the offers.
        assert!(!a.on_publish("X".into(), HostId(0), 2, MS(10), [offer(0, "X")].into()));
        assert_eq!(a.lookup(shard, &q).map(|o| o.len()), Some(0));
    }

    #[test]
    fn publisher_entries_expire_without_refresh() {
        let cfg = ShardConfig {
            shards: 4,
            replicas: 2,
            vnodes: 4,
            publish_ttl: MS(100),
            ..Default::default()
        };
        let mut a = store(&cfg, 0, 2);
        let q = ComponentQuery::by_name("X", Version::new(1, 0));
        let shard = a.ring().shard_of_component("X");
        a.on_publish("X".into(), HostId(1), 1, MS(0), [offer(1, "X")].into());
        // Refresh (same generation, newer stamp) keeps it alive …
        a.on_publish("X".into(), HostId(1), 1, MS(80), [offer(1, "X")].into());
        a.begin_gossip(MS(150)); // sweep at 150: age 70 < ttl
        assert_eq!(a.lookup(shard, &q).map(|o| o.len()), Some(1));
        // … but a crashed publisher's entry ages out.
        a.begin_gossip(MS(200)); // age 120 >= ttl
        assert_eq!(a.lookup(shard, &q).map(|o| o.len()), Some(0));
        assert_eq!(a.entries(), 0);
    }

    #[test]
    fn lookup_filters_by_query_predicates() {
        let (mut a, _) = replica_pair();
        let shard = a.ring().shard_of_component("X");
        let mut pay = offer(0, "X");
        pay.cost_per_hour = 100;
        pay.version = Version::new(1, 5);
        pay.mobility = Mobility::Fixed;
        a.on_publish("X".into(), HostId(0), 1, MS(0), [offer(1, "X"), pay].into());
        let all = ComponentQuery::by_name("X", Version::new(1, 0));
        assert_eq!(a.lookup(shard, &all).map(|o| o.len()), Some(2));
        let newer = ComponentQuery::by_name("X", Version::new(1, 5));
        assert_eq!(a.lookup(shard, &newer).map(|o| o.len()), Some(1));
        let mut cheap = ComponentQuery::by_name("X", Version::new(1, 0));
        cheap.max_cost = Some(50);
        assert_eq!(a.lookup(shard, &cheap).map(|o| o.len()), Some(1));
        let mut mobile = ComponentQuery::by_name("X", Version::new(1, 0));
        mobile.require_mobile = true;
        assert_eq!(a.lookup(shard, &mobile).map(|o| o.len()), Some(1));
        // not a replica of some other shard → None, not empty
        let other = (0..4).find(|s| !a.ring().is_replica(*s, HostId(0)));
        assert_eq!(other, None, "2 hosts, 2 replicas: replica of everything");
    }

    #[test]
    fn routes_pick_shard_paths_only_for_name_queries() {
        let cfg = ShardConfig { shards: 8, replicas: 2, vnodes: 8, ..Default::default() };
        let s = Registry::new(None, Some(store(&cfg, 3, 16)));
        let ring = s.shard().expect("sharded").ring().clone();
        // interface query → hierarchy
        let iq = ComponentQuery::by_interface("IDL:Display:1.0");
        assert!(matches!(s.search_route(&iq), SearchRoute::Hierarchy));
        // name queries → the owning shard, here or on its replicas
        let mut local = 0;
        let mut remote = 0;
        for i in 0..32 {
            let q = ComponentQuery::by_name(&format!("C{i}"), Version::new(1, 0));
            match s.search_route(&q) {
                SearchRoute::ShardLocal { shard } => {
                    assert!(ring.is_replica(shard, HostId(3)));
                    local += 1;
                }
                SearchRoute::ShardRemote { shard } => {
                    assert!(!ring.is_replica(shard, HostId(3)));
                    remote += 1;
                }
                SearchRoute::Hierarchy => panic!("name query must route through shards"),
            }
        }
        assert!(remote > 0, "16 hosts / 8 shards: most lookups leave the host");
        assert!(local + remote == 32);
    }

    #[test]
    fn unsharded_front_matches_cache_semantics() {
        let cache = crate::node::CacheConfig::default();
        let mut b = Registry::new(Some(&cache), None);
        let q = Rc::new(ComponentQuery::by_name("X", Version::new(1, 0)));
        let live = |_: u64| true;
        // miss → search
        assert!(matches!(b.resolve(&q, MS(0), live), ResolveStep::Search { cache_missed: true }));
        b.lead(&q, 7);
        // identical query coalesces onto the live leader
        match b.resolve(&q, MS(1), live) {
            ResolveStep::Coalesce { leader: 7, cache_missed: true } => {}
            _ => panic!("expected coalesce onto seq 7"),
        }
        // completion fills the cache; next query hits
        b.complete(&q, &[offer(2, "X")], MS(2), true);
        match b.resolve(&q, MS(3), live) {
            ResolveStep::Hit { offers, age } => {
                assert_eq!(offers.len(), 1);
                assert_eq!(age, MS(1));
            }
            _ => panic!("expected a cache hit"),
        }
        // invalidation drops it again
        assert_eq!(b.invalidate("X"), Some(1));
        assert!(matches!(b.resolve(&q, MS(4), live), ResolveStep::Search { .. }));
        assert!(matches!(b.coherence_route("X"), CoherenceRoute::Broadcast));
        // an interface query names no component: whatever it cached,
        // any component's invalidation drops it; a name query for
        // another component survives
        let iq = Rc::new(ComponentQuery::by_interface("IDL:Display:1.0"));
        b.complete(&iq, &[offer(2, "Gui")], MS(5), true);
        b.complete(&q, &[offer(2, "X")], MS(5), true);
        assert_eq!(b.invalidate("Unrelated"), Some(1));
        assert!(matches!(b.resolve(&iq, MS(6), live), ResolveStep::Search { .. }));
        assert!(matches!(b.resolve(&q, MS(6), live), ResolveStep::Hit { .. }));
        // no cache config at all: no coherence, invalidate = None
        let mut none = Registry::new(None, None);
        assert!(matches!(
            none.resolve(&q, MS(0), live),
            ResolveStep::Search { cache_missed: false }
        ));
        assert_eq!(none.invalidate("X"), None);
        assert!(matches!(none.coherence_route("X"), CoherenceRoute::Disabled));
    }

    /// A refresh gets the last publication back — same name, generation
    /// and offer set, by pointer — until one of its inputs moves; a bump
    /// or a first publish advances the generation, a recomputed refresh
    /// keeps it and keeps the name.
    #[test]
    fn a_refresh_reuses_the_last_publication_until_an_input_moves() {
        let (mut a, _) = replica_pair();
        let inputs = PublishInputs {
            names: ["X".into()].into(),
            instances: 0,
            dynamic: DynamicInfo::default(),
        };
        assert!(a.republish("X", &inputs).is_none(), "nothing published yet");
        let (name, gen, offers) = a.publish("X", false, inputs.clone(), [offer(0, "X")].into());
        assert_eq!(gen, 1);
        let (again, same_gen, same) = a.republish("X", &inputs).expect("inputs unchanged");
        assert!(Name::ptr_eq(&again, &name) && Rc::ptr_eq(&same, &offers));
        assert_eq!(same_gen, gen);

        let busier = DynamicInfo { cpu_used: 0.1, ..inputs.dynamic };
        let moved = [
            PublishInputs { names: ["X".into()].into(), ..inputs.clone() },
            PublishInputs { instances: 1, ..inputs.clone() },
            PublishInputs { dynamic: busier, ..inputs.clone() },
        ];
        for changed in moved {
            assert!(a.republish("X", &changed).is_none(), "{changed:?} must recompute");
            let (renamed, regen, _) = a.publish("X", false, changed, [].into());
            assert!(Name::ptr_eq(&renamed, &name), "the name is built once");
            assert_eq!(regen, gen, "a refresh keeps its generation");
        }
        assert_eq!(a.publish("X", true, inputs.clone(), [].into()).1, 2, "a bump advances it");
        assert_eq!(a.publish("Y", false, inputs, [].into()).1, 3, "so does a first publish");
    }

    /// The merge walk answers a digest exactly as a reference fold does —
    /// a map of the highest generation the peer named per (component,
    /// publisher) — whatever the two replicas hold: entries missing or
    /// extra on either side, older or newer on either side, and pairs the
    /// digest repeats. The digests a replica emits are strictly sorted,
    /// which is what the walk assumes.
    #[test]
    fn digest_walk_matches_a_reference_fold() {
        const NAMES: [&str; 5] = ["A", "Ab", "B", "Counter", "X"];
        lc_prop::check("digest walk = reference fold", |g| {
            let (mut a, mut b) = replica_pair();
            for replica in [&mut a, &mut b] {
                for name in NAMES {
                    for p in 0..3 {
                        if g.gen_bool() {
                            let gen = g.gen_range(1..5u64);
                            replica.on_publish(name.into(), HostId(p), gen, MS(10), [].into());
                        }
                    }
                }
            }
            let now = MS(20);
            for (_, shard, gens) in digests(&mut a, now) {
                let key = |t: &(Name, HostId, u64)| (t.0.clone(), t.1);
                assert!(gens.windows(2).all(|w| key(&w[0]) < key(&w[1])), "unsorted: {gens:?}");
                let mut digest = Vec::new();
                for t in gens.iter() {
                    digest.push(t.clone());
                    if g.gen_bool() {
                        digest.push((t.0.clone(), t.1, g.gen_range(0..6u64)));
                    }
                }
                let mut theirs: BTreeMap<(&str, HostId), u64> = BTreeMap::new();
                for (c, p, gen) in &digest {
                    let known = theirs.entry((c, *p)).or_default();
                    *known = (*known).max(*gen);
                }
                let expected: Vec<(String, HostId, u64)> = b
                    .store
                    .get(&shard)
                    .into_iter()
                    .flat_map(|slice| &slice.entries)
                    .flat_map(|(c, by_pub)| by_pub.iter().map(move |(&p, e)| (c, p, e.gen)))
                    .filter(|(c, p, gen)| *gen > theirs.get(&(&**c, *p)).copied().unwrap_or(0))
                    .map(|(c, p, gen)| (c.to_string(), p, gen))
                    .collect();
                let walked: Vec<(String, HostId, u64)> = b
                    .on_gossip_digest(shard, &digest, now)
                    .into_iter()
                    .map(|d| (d.component.to_string(), d.publisher, d.gen))
                    .collect();
                assert_eq!(walked, expected);
            }
        });
    }
}
