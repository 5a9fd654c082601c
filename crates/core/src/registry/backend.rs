//! The Component Registry service's resolution substrate: one concrete
//! [`Registry`] answering "where do this query's results come from?".
//!
//! * Every query first probes the per-node result cache
//!   ([`Registry::resolve`]); a miss joins the identical search pending
//!   at its origin or becomes a network search along
//!   [`Registry::search_route`].
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
use crate::registry::{ComponentQuery, Offer, OfferSet};
use crate::resource::DynamicInfo;
use lc_cache::QueryCache;
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

/// What [`Registry::resolve`] found in the result cache for a fresh query.
pub enum ResolveStep {
    /// Serve synchronously from the result cache.
    Hit {
        /// The cached offer set, shared.
        offers: OfferSet,
        /// The entry's age (surfaced as result staleness).
        age: SimTime,
    },
    /// No cached answer: join the identical pending search or run one
    /// (and [`Registry::complete`] it when it is served).
    Miss {
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
/// `(component, publisher)`, the names the store's own. The replica keeps
/// it current as entries are added, advanced or expired, and a gossip
/// round shares it with every peer replica's digest. An edit copies it
/// first only while an earlier round's digest still holds it, so what a
/// round sent never changes after.
pub type ShardDigest = Rc<Vec<(Name, HostId, u64)>>;

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
    offers: OfferSet,
}

/// A publication as it goes on the wire: the component's name (the
/// store's key, shared), its generation and its offer set.
pub(crate) type Publication = (Name, u64, OfferSet);

/// One shard this host replicates: its publisher entries, their
/// anti-entropy digest and a bound on their freshness stamps.
struct ShardSlice {
    /// component → publisher → entry. A component key is the name its
    /// first publish arrived with.
    entries: BTreeMap<Name, BTreeMap<HostId, PubEntry>>,
    /// The entries' `(component, publisher, generation)` fold, edited in
    /// place by every change to it.
    digest: ShardDigest,
    /// No entry's freshness stamp is older: lowered by every stamp
    /// stored, recomputed by an expiry walk (`SimTime::MAX` when empty).
    oldest: SimTime,
}

impl Default for ShardSlice {
    fn default() -> Self {
        ShardSlice { entries: BTreeMap::new(), digest: Rc::default(), oldest: SimTime::MAX }
    }
}

impl ShardSlice {
    /// Apply one entry if it is news: a strictly newer generation wins,
    /// and an equal generation with an equal-or-newer freshness stamp
    /// refreshes (keeps a live publisher's entry from expiring). Returns
    /// whether the generation advanced or the entry is new.
    fn apply(
        &mut self,
        component: Name,
        publisher: HostId,
        gen: u64,
        at: SimTime,
        offers: OfferSet,
    ) -> bool {
        let by_name = self.entries.entry(component);
        // The store's own key, whichever name this publish arrived with.
        let name = by_name.key().clone();
        let by_pub = by_name.or_default();
        let changed = match by_pub.get_mut(&publisher) {
            Some(e) if gen < e.gen || (gen == e.gen && at < e.at) => return false,
            Some(e) => {
                let changed = gen > e.gen;
                *e = PubEntry { gen, at, offers };
                changed
            }
            None => {
                by_pub.insert(publisher, PubEntry { gen, at, offers });
                true
            }
        };
        self.oldest = self.oldest.min(at);
        if changed {
            let digest = Rc::make_mut(&mut self.digest);
            let key = (name.as_str(), publisher);
            match digest.binary_search_by(|(c, p, _)| (c.as_str(), *p).cmp(&key)) {
                Ok(i) => digest[i].2 = gen,
                Err(i) => digest.insert(i, (name, publisher, gen)),
            }
        }
        changed
    }

    /// Drop entries whose freshness stamp aged past `ttl`; a slice whose
    /// oldest stamp is younger is not walked.
    fn expire(&mut self, now: SimTime, ttl: SimTime) {
        if now.saturating_sub(self.oldest) < ttl {
            return;
        }
        let (mut oldest, mut expired) = (SimTime::MAX, false);
        for by_pub in self.entries.values_mut() {
            by_pub.retain(|_, e| {
                let fresh = now.saturating_sub(e.at) < ttl;
                if fresh {
                    oldest = oldest.min(e.at);
                }
                expired |= !fresh;
                fresh
            });
        }
        self.oldest = oldest;
        if expired {
            self.entries.retain(|_, by_pub| !by_pub.is_empty());
            self.digest = Rc::new(self.fold().map(|(c, p, gen)| (c.clone(), p, gen)).collect());
        }
    }

    /// The entries' `(component, publisher, generation)` triples, in
    /// digest order.
    fn fold(&self) -> impl Iterator<Item = (&Name, HostId, u64)> {
        self.entries.iter().flat_map(|(c, by_pub)| by_pub.iter().map(move |(&p, e)| (c, p, e.gen)))
    }

    /// The kept digest, shared.
    fn digest(&self) -> ShardDigest {
        debug_assert!(
            self.digest.iter().map(|(c, p, gen)| (c, *p, *gen)).eq(self.fold()),
            "a kept digest must equal a fold of its entries"
        );
        Rc::clone(&self.digest)
    }
}

/// One publisher's inventory for one component at one replica.
struct PubEntry {
    gen: u64,
    /// Freshness stamp (virtual time of the publisher's last refresh as
    /// observed along the publish/gossip path).
    at: SimTime,
    /// The publisher's offer set as published: shared with the other
    /// replicas' entries, with any repair delta that carries it on and
    /// with every lookup it answers whole.
    offers: OfferSet,
}

/// This host's slice of the sharded inventory: the world's shared ring,
/// the publisher entries of the shards this host replicates, and this
/// host's own last publications. Reached only from the
/// [`SearchRoute`]/[`CoherenceRoute`] arms and control messages that
/// name a shard. Its cadences (gossip period, publish TTL) are the
/// world config's [`ShardConfig`], passed to the calls that read them.
pub struct ShardStore {
    /// Built once per world (a pure function of the host list and the
    /// ring shape) and shared by every node, respawns included.
    ring: Rc<ShardRing>,
    /// One slice per shard this host replicates, empty ones included:
    /// its keys are exactly the shards the ring gives this host.
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
    pub fn new(host: HostId, ring: Rc<ShardRing>) -> Self {
        ShardStore {
            store: ring.shards_of(host).into_iter().map(|s| (s, ShardSlice::default())).collect(),
            ring,
            next_gen: 0,
            published: BTreeMap::new(),
            gossip_rounds: 0,
        }
    }

    /// The shared ring.
    pub fn ring(&self) -> &Rc<ShardRing> {
        &self.ring
    }

    /// Drop entries whose freshness stamp aged past `ttl`.
    fn expire(&mut self, now: SimTime, ttl: SimTime) {
        for slice in self.store.values_mut() {
            slice.expire(now, ttl);
        }
    }

    /// Where a name query for `name` goes from this host.
    fn route(&self, name: &str) -> SearchRoute {
        let shard = self.ring.shard_of_component(name);
        if self.store.contains_key(&shard) {
            SearchRoute::ShardLocal { shard }
        } else {
            SearchRoute::ShardRemote { shard }
        }
    }

    /// Answer a query from the local store of `shard`. `None` when this
    /// host does not replicate the shard. Interface (`provides`) queries
    /// never reach the store — the router sends them down the hierarchy
    /// — so an offer is checked against the query's other predicates.
    /// The answer is every admitted offer, in store order, the first of
    /// equal keys winning. When that is one publisher entry's whole set
    /// (a component with one holder), the answer is that set, shared;
    /// otherwise it is one allocation of exactly its offers.
    pub fn lookup(&self, shard: u32, query: &ComponentQuery) -> Option<OfferSet> {
        let by_comp = &self.store.get(&shard)?.entries;
        let comps = match query.name.as_deref() {
            Some(name) => {
                by_comp.range::<str, _>((Bound::Included(name), Bound::Included(name)))
            }
            None => by_comp.range::<str, _>(..),
        };
        let entries = || comps.clone().flat_map(|(_, by_pub)| by_pub.values());
        let held = || entries().flat_map(|e| e.offers.iter());
        let admitted =
            |o: &Offer| query.admits(&o.component, o.version, o.cost_per_hour, o.mobility);
        // The `i`-th offer held is in the answer.
        let kept = |i: usize, o: &Offer| {
            admitted(o) && !held().take(i).any(|p| admitted(p) && p.key() == o.key())
        };
        let (mut i, mut n, mut whole) = (0, 0, None);
        for e in entries() {
            let mut k = 0;
            for o in e.offers.iter() {
                k += usize::from(kept(i, o));
                i += 1;
            }
            if k > 0 {
                whole = (n == 0 && k == e.offers.len()).then_some(&e.offers);
                n += k;
            }
        }
        if let Some(offers) = whole {
            return Some(offers.clone());
        }
        let answer = held().enumerate().filter(|&(i, o)| kept(i, o)).map(|(_, o)| o.clone());
        Some(OfferSet::exact(n, answer))
    }

    /// This host's last publication of `component`, for a refresh: the
    /// name, generation and offer set it went out with, when nothing its
    /// offer set was computed from has changed since (`inputs`).
    pub(crate) fn republish(&self, component: &str, inputs: &PublishInputs) -> Option<Publication> {
        let (name, last) = self.published.get_key_value(component)?;
        inputs
            .unchanged(&last.inputs)
            .then(|| (name.clone(), last.gen, last.offers.clone()))
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
        offers: OfferSet,
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
        let published = Published { gen, inputs, offers: offers.clone() };
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
        offers: OfferSet,
    ) -> bool {
        let shard = self.ring.shard_of_component(&component);
        let Some(slice) = self.store.get_mut(&shard) else {
            return false; // stale addressing (e.g. ring drift across configs)
        };
        slice.apply(component, publisher, gen, at, offers)
    }

    /// Start an anti-entropy round: expiry-sweep the local shard stores
    /// (entries older than `ttl` fall) and count the round. The round's
    /// digests are then read shard by shard with [`digest`](Self::digest)
    /// and go to every peer replica — even when empty, so an empty
    /// (respawned) replica still solicits repair deltas.
    pub fn begin_gossip(&mut self, now: SimTime, ttl: SimTime) {
        self.expire(now, ttl);
        self.gossip_rounds += 1;
    }

    /// The `i`-th shard this host replicates (in shard order) and its
    /// kept digest, shared. `None` past the last shard.
    pub fn digest(&self, i: usize) -> Option<(u32, ShardDigest)> {
        let (&shard, slice) = self.store.iter().nth(i)?;
        Some((shard, slice.digest()))
    }

    /// Answer a peer's digest for `shard` with every entry this replica
    /// holds at a strictly newer generation (or that the digest lacks),
    /// after dropping entries older than `ttl`. `gens` must be sorted by
    /// `(component, publisher)`, as [`digest`](Self::digest) hands it
    /// out; a repeated pair counts at its highest generation.
    pub fn on_gossip_digest(
        &mut self,
        shard: u32,
        gens: &[(Name, HostId, u64)],
        now: SimTime,
        ttl: SimTime,
    ) -> Vec<DeltaEntry> {
        if !self.store.contains_key(&shard) {
            return Vec::new();
        }
        self.expire(now, ttl);
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
                        offers: e.offers.clone(),
                    });
                }
            }
        }
        out
    }

    /// Apply a peer's repair delta. Returns how many entries advanced.
    pub fn on_gossip_delta(&mut self, shard: u32, entries: Vec<DeltaEntry>) -> usize {
        let Some(slice) = self.store.get_mut(&shard) else { return 0 };
        let mut advanced = 0;
        for e in entries {
            if self.ring.shard_of_component(&e.component) != shard {
                continue;
            }
            if slice.apply(e.component, e.publisher, e.gen, e.at, e.offers) {
                advanced += 1;
            }
        }
        advanced
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
/// cache every query probes first, keyed by a clone of the search's
/// query (which shares its names) and probed by a borrowed one, plus — when
/// [`RegistryConfig::Sharded`](crate::node::RegistryConfig) selects it
/// — this host's [`ShardStore`]. The node's pending-query table, not
/// this front, names the search an identical query joins.
pub struct Registry {
    /// Boxed: a cache holds a query it found stale beside its tree, and
    /// inline that would widen every node, cached or not.
    cache: Option<Box<QueryCache<ComponentQuery, OfferSet>>>,
    shard: Option<ShardStore>,
}

impl Registry {
    /// Build from the node's cache configuration and, for a sharded
    /// registry, this host's store over the world's ring.
    pub fn new(cache: Option<&crate::node::CacheConfig>, shard: Option<ShardStore>) -> Self {
        Registry { cache: cache.map(|c| Box::new(QueryCache::new(c.ttl))), shard }
    }

    /// The shard store, when the registry is sharded.
    pub fn shard(&self) -> Option<&ShardStore> {
        self.shard.as_ref()
    }

    /// Mutable access to the shard store, when the registry is sharded.
    pub fn shard_mut(&mut self) -> Option<&mut ShardStore> {
        self.shard.as_mut()
    }

    /// Probe the result cache for a fresh query: a fresh entry is a hit,
    /// anything else a miss.
    pub fn resolve(&mut self, query: &ComponentQuery, now: SimTime) -> ResolveStep {
        let Some(cache) = self.cache.as_mut() else {
            return ResolveStep::Miss { cache_missed: false };
        };
        match cache.get(query, now) {
            Some((offers, age)) => ResolveStep::Hit { offers: offers.clone(), age },
            None => ResolveStep::Miss { cache_missed: true },
        }
    }

    /// The search for `query` was served `offers` before its deadline:
    /// when they are non-empty, fill the result cache under the search's
    /// own query with the set, shared.
    pub fn complete(&mut self, query: &ComponentQuery, offers: &OfferSet, now: SimTime) {
        if offers.is_empty() {
            return;
        }
        if let Some(cache) = self.cache.as_mut() {
            cache.insert(query.clone(), offers.clone(), now);
        }
    }

    /// Drop cached results that could name `component`: the entry's
    /// query names it or names nothing (an interface query), or a cached
    /// offer is for it. Returns how many entries fell, or `None` when
    /// there is no cache layer at all (the caller then skips coherence
    /// metrics, matching the cache-disabled runtime byte-for-byte).
    pub fn invalidate(&mut self, component: &str) -> Option<usize> {
        let cache = self.cache.as_mut()?;
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
            None if self.cache.is_some() => CoherenceRoute::Broadcast,
            None => CoherenceRoute::Disabled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_pkg::{Mobility, Version};

    const MS: fn(u64) -> SimTime = SimTime::from_millis;
    /// [`replica_pair`]'s publish TTL, the default.
    const TTL: SimTime = SimTime::from_secs(2);

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
            running: None,
        }
    }

    /// `host`'s shard store over a ring of `n` hosts.
    fn store(cfg: &ShardConfig, host: u32, n: u32) -> ShardStore {
        ShardStore::new(HostId(host), Rc::new(ShardRing::build(&hosts(n), &cfg.ring())))
    }

    /// Two replicas of a two-host ring (replicas=2 → every shard lives
    /// on both hosts).
    fn replica_pair() -> (ShardStore, ShardStore) {
        let cfg = ShardConfig { shards: 4, replicas: 2, vnodes: 4, ..Default::default() };
        (store(&cfg, 0, 2), store(&cfg, 1, 2))
    }

    /// One anti-entropy round of `me`'s `store`, as the node runs it:
    /// every digest with the peer replica it goes to.
    fn digests(
        store: &mut ShardStore,
        me: HostId,
        now: SimTime,
    ) -> Vec<(HostId, u32, ShardDigest)> {
        store.begin_gossip(now, TTL);
        let mut out = Vec::new();
        for i in 0.. {
            let Some((shard, gens)) = store.digest(i) else { break };
            for &peer in store.ring().replicas(shard).iter().filter(|&&p| p != me) {
                out.push((peer, shard, Rc::clone(&gens)));
            }
        }
        out
    }

    /// One full anti-entropy exchange: `a` digests to `b`, `b` replies
    /// with its delta, and vice versa. Returns entries applied.
    fn gossip_round(a: &mut ShardStore, b: &mut ShardStore, now: SimTime) -> usize {
        let mut applied = 0;
        for (to, shard, gens) in digests(a, HostId(0), now) {
            assert_eq!(to, HostId(1));
            let delta = b.on_gossip_digest(shard, &gens, now, TTL);
            applied += a.on_gossip_delta(shard, delta);
        }
        for (to, shard, gens) in digests(b, HostId(1), now) {
            assert_eq!(to, HostId(0));
            let delta = a.on_gossip_digest(shard, &gens, now, TTL);
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
        a.begin_gossip(MS(150), cfg.publish_ttl); // sweep at 150: age 70 < ttl
        assert_eq!(a.lookup(shard, &q).map(|o| o.len()), Some(1));
        // … but a crashed publisher's entry ages out.
        a.begin_gossip(MS(200), cfg.publish_ttl); // age 120 >= ttl
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
        let q = ComponentQuery::by_name("X", Version::new(1, 0));
        // miss → search; completion fills the cache; next query hits
        assert!(matches!(b.resolve(&q, MS(0)), ResolveStep::Miss { cache_missed: true }));
        b.complete(&q, &[offer(2, "X")].into(), MS(2));
        match b.resolve(&q, MS(3)) {
            ResolveStep::Hit { offers, age } => {
                assert_eq!(offers.len(), 1);
                assert_eq!(age, MS(1));
            }
            _ => panic!("expected a cache hit"),
        }
        // invalidation drops it again
        assert_eq!(b.invalidate("X"), Some(1));
        assert!(matches!(b.resolve(&q, MS(4)), ResolveStep::Miss { .. }));
        assert!(matches!(b.coherence_route("X"), CoherenceRoute::Broadcast));
        // an interface query names no component: whatever it cached,
        // any component's invalidation drops it; a name query for
        // another component survives
        let iq = ComponentQuery::by_interface("IDL:Display:1.0");
        b.complete(&iq, &[offer(2, "Gui")].into(), MS(5));
        b.complete(&q, &[offer(2, "X")].into(), MS(5));
        assert_eq!(b.invalidate("Unrelated"), Some(1));
        assert!(matches!(b.resolve(&iq, MS(6)), ResolveStep::Miss { .. }));
        assert!(matches!(b.resolve(&q, MS(6)), ResolveStep::Hit { .. }));
        // no cache config at all: no coherence, invalidate = None
        let mut none = Registry::new(None, None);
        assert!(matches!(
            none.resolve(&q, MS(0)),
            ResolveStep::Miss { cache_missed: false }
        ));
        assert_eq!(none.invalidate("X"), None);
        assert!(matches!(none.coherence_route("X"), CoherenceRoute::Disabled));
    }

    /// Query equality is by text: two name queries built apart, each
    /// holding its own allocation of the name, fill and then hit one
    /// cache entry.
    #[test]
    fn queries_built_apart_are_one_cache_entry() {
        let mut front = Registry::new(Some(&crate::node::CacheConfig::default()), None);
        let counter = || ComponentQuery::by_name("Counter", Version::new(1, 0));
        let (filled, probe) = (counter(), counter());
        let (Some(x), Some(y)) = (&filled.name, &probe.name) else { panic!("name queries") };
        assert!(!Name::ptr_eq(x, y), "each query holds its own name");
        front.complete(&filled, &[offer(2, "Counter")].into(), MS(0));
        match front.resolve(&probe, MS(1)) {
            ResolveStep::Hit { offers, .. } => assert_eq!(*offers, [offer(2, "Counter")]),
            ResolveStep::Miss { .. } => panic!("an equal query must hit the entry"),
        }
        front.complete(&probe, &[offer(3, "Counter")].into(), MS(2));
        assert_eq!(front.invalidate("Counter"), Some(1), "both completions filled one entry");
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
        assert!(Name::ptr_eq(&again, &name) && same.as_ptr() == offers.as_ptr());
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

    /// The lookup rule before answers were shared: a copy of every offer
    /// held for the queried names, in store order, that the query admits
    /// and that no offer already copied shares a key with.
    fn filtered_copy(store: &ShardStore, shard: u32, query: &ComponentQuery) -> Option<Vec<Offer>> {
        let by_comp = &store.store.get(&shard)?.entries;
        let mut out: Vec<Offer> = Vec::new();
        let comps =
            by_comp.iter().filter(|(c, _)| query.name.as_deref().is_none_or(|n| n == &***c));
        for o in comps.flat_map(|(_, by_pub)| by_pub.values()).flat_map(|e| e.offers.iter()) {
            if query.admits(&o.component, o.version, o.cost_per_hour, o.mobility)
                && !out.iter().any(|x| x.key() == o.key())
            {
                out.push(o.clone());
            }
        }
        Some(out)
    }

    /// A lookup answers what the filtered copy answered, in order, over
    /// random publications — several publishers per component, several
    /// versions, costs and mobilities, repeated `(node, component,
    /// version)` keys within and across publishers' sets — and random
    /// name, version, cost and mobility filters. An answer that is one
    /// publisher entry's whole set is that set, shared.
    #[test]
    fn a_shared_lookup_answers_what_the_filtered_copy_answered() {
        const NAMES: [&str; 3] = ["A", "Counter", "X"];
        lc_prop::check("shared lookup = filtered copy", |g| {
            let (mut a, _) = replica_pair();
            for _ in 0..g.gen_range(0..12usize) {
                let component = *g.pick(&NAMES);
                let publisher = HostId(g.gen_range(0..3u32));
                let n = g.gen_range(0..4usize);
                let offers: Vec<Offer> = (0..n)
                    .map(|_| Offer {
                        // Mostly the publisher's own offers; sometimes a
                        // key another publisher's set holds too.
                        node: if g.gen_range(0..4u32) == 0 {
                            HostId(g.gen_range(0..3u32))
                        } else {
                            publisher
                        },
                        version: Version::new(1, g.gen_range(0..3u32)),
                        mobility: if g.gen_bool() { Mobility::Mobile } else { Mobility::Fixed },
                        cost_per_hour: g.gen_range(0..3u32) * 50,
                        ..offer(0, component)
                    })
                    .collect();
                let set = OfferSet::exact(n, offers.into_iter());
                let (gen, at) = (g.gen_range(1..4u64), MS(g.gen_range(0..50u64)));
                a.on_publish(component.into(), publisher, gen, at, set);
            }
            for _ in 0..8 {
                let query = ComponentQuery {
                    name: g.gen_bool().then(|| Name::from(*g.pick(&NAMES))),
                    min_version: g.gen_bool().then(|| Version::new(1, g.gen_range(0..3u32))),
                    max_cost: g.gen_bool().then(|| g.gen_range(0..120u32)),
                    require_mobile: g.gen_bool(),
                    ..Default::default()
                };
                for shard in 0..4 {
                    let shared = a.lookup(shard, &query);
                    let copied = filtered_copy(&a, shard, &query);
                    assert_eq!(shared.as_deref(), copied.as_deref(), "{query:?} on shard {shard}");
                    let Some(shared) = shared else { continue };
                    let admits = |o: &Offer| {
                        query.admits(&o.component, o.version, o.cost_per_hour, o.mobility)
                    };
                    let by_comp = a.store[&shard].entries.iter();
                    let named =
                        by_comp.filter(|(c, _)| query.name.as_ref().is_none_or(|n| n == *c));
                    let mut answering = named
                        .flat_map(|(_, by_pub)| by_pub.values())
                        .filter(|e| e.offers.iter().any(admits));
                    if let (Some(e), None) = (answering.next(), answering.next()) {
                        if e.offers.len() == shared.len() {
                            let whole = e.offers.as_ptr();
                            assert_eq!(whole, shared.as_ptr(), "a whole entry is shared");
                        }
                    }
                }
            }
        });
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
            for (_, shard, gens) in digests(&mut a, HostId(0), now) {
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
                    .on_gossip_digest(shard, &digest, now, TTL)
                    .into_iter()
                    .map(|d| (d.component.to_string(), d.publisher, d.gen))
                    .collect();
                assert_eq!(walked, expected);
            }
        });
    }

    /// Every slice's kept digest, checked against its entries: the fold
    /// of their triples, strictly sorted by `(component, publisher)`, its
    /// names the store's own keys; and every stamp at or after the
    /// slice's `oldest`.
    fn assert_kept(store: &ShardStore) {
        for slice in store.store.values() {
            let fold: Vec<_> = slice.fold().map(|(c, p, gen)| (c.clone(), p, gen)).collect();
            assert_eq!(*slice.digest, fold, "the kept digest is the fold of its entries");
            let key = |t: &(Name, HostId, u64)| (t.0.clone(), t.1);
            assert!(slice.digest.windows(2).all(|w| key(&w[0]) < key(&w[1])), "unsorted");
            for (c, _, _) in slice.digest.iter() {
                let (own, _) = slice.entries.get_key_value(&**c).expect("a digest names an entry");
                assert!(Name::ptr_eq(c, own), "a digest name is the store's own");
            }
            let stamps = slice.entries.values().flat_map(BTreeMap::values);
            assert!(stamps.map(|e| e.at).all(|at| at >= slice.oldest), "oldest bounds the stamps");
        }
    }

    /// A digest kept current through publishes, repair deltas and expiry
    /// sweeps equals a fresh fold of the entries after every step, and a
    /// digest handed out earlier — a `GossipDigest` still in flight —
    /// keeps what it held when it was read.
    #[test]
    fn a_kept_digest_is_the_fold_of_its_entries() {
        const NAMES: [&str; 5] = ["A", "Ab", "B", "Counter", "X"];
        let cfg = ShardConfig {
            shards: 4,
            replicas: 2,
            vnodes: 4,
            publish_ttl: MS(100),
            ..Default::default()
        };
        lc_prop::check("kept digest = fold of entries", |g| {
            let mut a = store(&cfg, 0, 2);
            let mut now = MS(0);
            // Digests handed out, each with a copy of what it held then.
            let mut held = Vec::new();
            for _ in 0..g.gen_range(1..80usize) {
                now += MS(g.gen_range(0..30u64));
                let entry = |g: &mut lc_prop::Gen| DeltaEntry {
                    // A fresh name each time: the store keeps its first.
                    component: Name::from(*g.pick(&NAMES)),
                    publisher: HostId(g.gen_range(0..4u32)),
                    gen: g.gen_range(1..6u64),
                    at: now.saturating_sub(MS(g.gen_range(0..60u64))),
                    offers: [].into(),
                };
                match g.gen_range(0..5u32) {
                    0 => {
                        let e = entry(g);
                        a.on_publish(e.component, e.publisher, e.gen, e.at, e.offers);
                    }
                    1 => {
                        let delta: Vec<_> = (0..g.gen_range(0..6usize)).map(|_| entry(g)).collect();
                        let shard = g.gen_range(0..4u32);
                        a.on_gossip_delta(shard, delta);
                    }
                    2 => a.begin_gossip(now, cfg.publish_ttl),
                    3 => {
                        let (_, gens) = a.digest(g.gen_range(0..4usize)).expect("replicates all 4");
                        let copy = gens.to_vec();
                        held.push((gens, copy));
                    }
                    _ if !held.is_empty() => {
                        held.swap_remove(g.gen_range(0..held.len()));
                    }
                    _ => {}
                }
                assert_kept(&a);
                for (gens, copy) in &held {
                    assert_eq!(**gens, *copy, "a digest handed out never changes");
                }
            }
        });
    }

    /// Expiry that skips a slice whose oldest stamp is younger than the
    /// TTL removes exactly what a walk over every entry removes, under
    /// random stamps, TTLs and sweep times (not only increasing ones).
    #[test]
    fn bounded_expiry_removes_what_a_full_walk_removes() {
        const NAMES: [&str; 4] = ["A", "B", "Counter", "X"];
        lc_prop::check("bounded expiry = full walk", |g| {
            let ttl = MS(g.gen_range(1..300u64));
            let cfg =
                ShardConfig { shards: 4, replicas: 2, vnodes: 4, publish_ttl: ttl, ..Default::default() };
            let mut a = store(&cfg, 0, 2);
            let held = |a: &ShardStore| -> Vec<(String, HostId, u64, SimTime)> {
                let mut all = Vec::new();
                for (c, by_pub) in a.store.values().flat_map(|slice| &slice.entries) {
                    all.extend(by_pub.iter().map(|(&p, e)| (c.to_string(), p, e.gen, e.at)));
                }
                all.sort();
                all
            };
            for _ in 0..g.gen_range(1..100usize) {
                let now = MS(g.gen_range(0..1_000u64));
                if g.gen_range(0..3u32) > 0 {
                    let (c, p) = (*g.pick(&NAMES), HostId(g.gen_range(0..3u32)));
                    let (gen, at) = (g.gen_range(1..4u64), MS(g.gen_range(0..1_000u64)));
                    a.on_publish(c.into(), p, gen, at, [].into());
                } else {
                    let mut expected = held(&a);
                    expected.retain(|&(.., at)| now.saturating_sub(at) < ttl);
                    a.begin_gossip(now, ttl);
                    assert_eq!(held(&a), expected, "a sweep at {now} with ttl {ttl}");
                }
                assert_kept(&a);
            }
        });
    }
}
