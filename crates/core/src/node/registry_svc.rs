//! Component Registry service (Fig. 1): the distributed query side —
//! starting queries, MRM routing over the cohesion hierarchy
//! ("incremental resource lookup", §2.4.3), offer collection, and query
//! finalization into the driver- or resolve-continuations parked in the
//! unified continuation table.

use crate::cohesion::{route_query, Route};
use crate::deploy::{choose, ResolveAction};
use crate::proto::{CtrlMsg, QueryId};
use crate::registry::backend::{
    CoherenceRoute, Publication, PublishInputs, ResolveStep, SearchRoute,
};
use crate::registry::{ComponentQuery, InstanceId, OfferSet};
use lc_des::Counter;
use lc_net::HostId;
use lc_orb::Name;
use lc_pkg::Version;
use std::fmt::Display;
use std::rc::Rc;

use super::continuations::{
    FetchCont, PendingQuery, QueryFollower, QueryPurpose, ResolveCont, SpawnCont,
};
use super::ctx::{Node, NodeCtx};
use super::metrics::ServiceKind;
use super::service::{item, ServiceReflect, Tick};
use super::SpawnSink;

/// How one query continuation ends.
#[derive(Clone, Copy)]
enum Ending {
    /// With what the search found since the caller `started` waiting;
    /// `timed_out` marks a deadline cut (the offer set is then partial).
    Served { started: lc_des::SimTime, timed_out: bool, first_offer_at: Option<lc_des::SimTime> },
    /// Refused under admission control.
    Shed,
}

impl Ending {
    /// How a search serves its own caller: with what it found since it
    /// started. `timed_out` marks results collected when the deadline
    /// fired before the search completed: the offer set is then
    /// *partial* — served instead of hanging the caller (graceful
    /// degradation under loss and partitions).
    fn search(pq: &PendingQuery, timed_out: bool) -> Ending {
        Ending::Served { started: pq.started, timed_out, first_offer_at: pq.first_offer_at }
    }
}

impl Node {
    /// Offers this node's own registry/repository can make for a query:
    /// an answer, a publication or a recomputation to check one against.
    pub(crate) fn local_offers_for(&self, query: &ComponentQuery) -> OfferSet {
        self.registry.local_offers(
            self.host,
            &self.repository,
            query,
            &self.idl,
            self.resources.cpu_utilisation(),
        )
    }

    /// Everything [`local_offers_for`](Self::local_offers_for) reads for
    /// a name query, as a publication records it.
    pub(crate) fn publish_inputs(&self) -> PublishInputs {
        PublishInputs {
            names: Rc::clone(self.repository.names()),
            instances: self.registry.generation(),
            dynamic: self.resources.dynamic(),
        }
    }
}

impl NodeCtx<'_, '_> {
    pub(crate) fn start_query(&mut self, query: ComponentQuery, purpose: QueryPurpose) {
        let started = self.sim.now();
        if let QueryPurpose::Collect { sink, .. } = &purpose {
            sink.borrow_mut().started = started;
        }
        let timeout = self.state.world.config.query_timeout;
        // Triage: cache hit, join the identical pending search, or run a
        // network search.
        let cache_missed = match self.state.backend.resolve(&query, started) {
            // Cache hit: serve synchronously from the local result cache
            // — no network search, no pending continuation.
            ResolveStep::Hit { offers, age } => {
                self.sim.metrics().incr(Counter::QueryStarted);
                self.sim.metrics().incr(Counter::CacheHits);
                let age_us = (age.as_secs_f64() * 1e6) as u64;
                let attrs: &[(_, &dyn Display)] = &[("hit", &true), ("age_us", &age_us)];
                self.state.world.tracer.event(self.state.host.0, "registry.cache", started, attrs);
                self.resolve_follower(purpose, started, offers, &query, false);
                return;
            }
            ResolveStep::Miss { cache_missed } => cache_missed,
        };
        if cache_missed {
            self.sim.metrics().incr(Counter::CacheMisses);
        }
        // Coalesce: an identical query is already in flight — ride it as
        // a follower instead of spawning a second network search. With
        // coalescing on, every entry of the pending table leads its own
        // query, so the table names at most one search per query.
        let joined = match &self.state.world.config.cache {
            Some(c) if c.coalesce => {
                self.state.conts.queries.iter_mut().find(|(_, pq)| pq.query == query)
            }
            _ => None,
        };
        if let Some((&leader, pq)) = joined {
            pq.followers.push(QueryFollower { purpose, started, deadline: started + timeout });
            self.sim.metrics().incr(Counter::QueryStarted);
            self.sim.metrics().incr(Counter::CacheCoalesced);
            let attrs: &[(_, &dyn Display)] = &[("coalesced", &true), ("leader_seq", &leader)];
            self.state.world.tracer.event(self.state.host.0, "registry.cache", started, attrs);
            // The follower's own deadline needs a sweep tick even if the
            // leader never expires.
            self.timer_in(timeout, Tick::QueryDeadline);
            return;
        }
        // Bounded admission queue: starting a search beyond the cap sheds
        // the *oldest* pending query first (adaptive LIFO — under
        // sustained overload the oldest callers are closest to their
        // deadlines, so the newcomer is the one still worth serving).
        // Cache hits and coalesced followers above never hit this: they
        // cost no table entry.
        if let Some(cap) = self.state.world.config.admission.as_ref().map(|a| a.query_queue_cap) {
            while self.state.conts.queries.len() >= cap {
                let Some(oldest) = self.state.conts.queries.oldest_key().copied() else { break };
                self.shed_pending_query(oldest);
            }
        }
        let seq = self.state.conts.next_seq();
        let qid = QueryId { origin: self.state.host, seq };
        // Root (or continue) the per-query trace: everything the search
        // fans out — MRM hops, member queries, shard lookups, offer
        // replies — parents under this span until its ending ends it.
        let tracer = self.state.world.tracer.clone();
        let span = tracer.span(self.state.host.0, "registry.query", started);
        if let Some(s) = span {
            if let Some(name) = &query.name {
                tracer.set_attr(s, "component", name);
            }
            tracer.set_attr(s, "seq", seq);
        }
        self.state.conts.queries.insert(
            seq,
            PendingQuery {
                purpose,
                offers: OfferSet::default(),
                started,
                first_offer_at: None,
                query: query.clone(),
                retries_left: self.state.world.config.query_retries,
                span,
                followers: Vec::new(),
            },
            started + timeout,
        );
        self.sim.metrics().incr(Counter::QueryStarted);

        self.in_span(span, |ctx| {
            // Answer locally first (own repository).
            let local = ctx.state.local_offers_for(&query);
            ctx.on_offers(qid, local);
            // Unless first_wins completed it instantly.
            if ctx.state.conts.queries.contains_key(&seq) {
                ctx.issue_search(qid, query);
                ctx.timer_in(timeout, Tick::QueryDeadline);
            }
        });
    }

    /// Run the network search for a pending query along the registry's
    /// route: up the MRM cohesion hierarchy, or to the owning shard —
    /// served in place when this host replicates it, otherwise one
    /// lookup to the first reachable replica.
    pub(crate) fn issue_search(&mut self, qid: QueryId, query: ComponentQuery) {
        match self.state.backend.search_route(&query) {
            SearchRoute::Hierarchy => {
                // Send to our leaf-group MRM (first reachable replica).
                // The hop is *ascending*: a miss at the group escalates
                // to the parent ("request higher hierarchy level
                // requests").
                let (world, g) = (Rc::clone(&self.state.world), self.state.group_at(0));
                let ask = CtrlMsg::Query { qid, query, level: Some(0), descending: false };
                self.send_to_first_reachable(world.shape.mrm_hosts(0, g), ask);
            }
            SearchRoute::ShardLocal { shard } => self.serve_lookup(qid, &query, shard),
            SearchRoute::ShardRemote { shard } => {
                let Some(store) = self.state.backend.shard() else { return };
                let replicas = Rc::clone(store.ring().replicas(shard));
                // With no replica reachable the search is exhausted: the
                // query finalizes with what this host already offered.
                let lookup = CtrlMsg::ShardLookup { qid, query, shard };
                if !self.send_to_first_reachable(replicas.iter().copied(), lookup) {
                    self.finish_query(qid.seq);
                }
            }
        }
    }

    /// Answer a lookup for `shard`, which this host replicates: the
    /// shard store is authoritative for the key, so the answer also
    /// completes the query (in place when the origin is this host).
    pub(crate) fn serve_lookup(&mut self, qid: QueryId, query: &ComponentQuery, shard: u32) {
        let now = self.sim.now();
        let Some(store) = self.state.backend.shard() else { return };
        let offers = store.lookup(shard, query).unwrap_or_default();
        let attrs: &[(_, &dyn Display)] = &[("shard", &shard), ("offers", &offers.len())];
        self.state.world.tracer.event(self.state.host.0, "registry.shard_serve", now, attrs);
        self.send_offers(qid, offers, true);
    }

    /// One sharded-registry maintenance round: refresh the local
    /// inventory's publications to their owning shards (a changed one
    /// at once, an unchanged one when its lease is half spent, and
    /// pre-spawn installs, which had no runtime to publish through) and
    /// exchange gossip digests with peer replicas, then re-arm the
    /// cadence.
    pub(crate) fn shard_maintain(&mut self) {
        let world = Rc::clone(&self.state.world);
        let Some(sc) = world.shard_config() else { return };
        // The repository's name snapshot is sorted, one entry per
        // installed version: a component is the head of each equal run.
        let names = Rc::clone(self.state.repository.names());
        let inputs = self.state.publish_inputs();
        for c in names.chunk_by(|a, b| a == b).map(|same| &same[0]) {
            if let CoherenceRoute::Shard { replicas } = self.state.backend.coherence_route(c) {
                self.publish_component(c, false, &inputs, &replicas);
            }
        }
        let now = self.sim.now();
        let from = self.state.host;
        let Some(store) = self.state.backend.shard_mut() else { return };
        store.begin_gossip(now, sc.publish_ttl);
        for i in 0.. {
            let Some(store) = self.state.backend.shard() else { return };
            let Some((shard, gens)) = store.digest(i) else { break };
            let replicas = Rc::clone(store.ring().replicas(shard));
            let msg = CtrlMsg::GossipDigest { from, shard, gens };
            for &to in replicas.iter() {
                self.send_if_reachable(to, &msg);
            }
        }
        self.timer_in(sc.gossip_period, Tick::ShardMaintain);
    }

    /// MRM query routing (§2.4.3: incremental resource lookup): the
    /// decisions are [`route_query`]'s; this carries them over real soft
    /// state and wire messages.
    pub(crate) fn mrm_route_query(
        &mut self,
        qid: QueryId,
        query: ComponentQuery,
        level: u8,
        descending: bool,
    ) {
        let at = usize::from(level);
        if self.state.seat(at).is_none() {
            // Not an MRM at this level (stale addressing) — drop.
            self.sim.metrics().incr(Counter::QueryMisrouted);
            return;
        }

        // Which members might hold a match? Name queries read the seat's
        // index; interface queries must visit the whole subtree. A pooled
        // buffer holds them: asking may descend in place one level down.
        let mut candidates = self.state.seat_buffers.pop().unwrap_or_default();
        let seat = &self.state.duty_state[at];
        match &query.name {
            Some(name) => candidates.extend_from_slice(seat.holders(name)),
            None => candidates.extend(seat.records().keys()),
        }

        let (world, g) = (Rc::clone(&self.state.world), self.state.group_at(at));
        let asked = candidates.drain(..);
        let route = route_query(&world.shape, (at, g), descending, asked, |to, child_level| {
            match child_level {
                // A plain member — unless it is the origin, which
                // already answered locally …
                None if to == qid.origin => false,
                // … or this host, which answers directly.
                None if to == self.state.host => self.answer_member_query(qid, &query),
                // Anyone else hears it on the wire — a member as a direct
                // node query, a child primary at its `level - 1` duty —
                // and a child group this host also leads descends in place.
                _ => {
                    let query = query.clone();
                    let hop = CtrlMsg::Query { qid, query, level: child_level, descending: true };
                    self.send_ctrl(to, hop)
                }
            }
        });
        self.state.seat_buffers.push(candidates);
        match route {
            Route::Taken => {}
            Route::Escalate { level: up, g } => {
                self.sim.metrics().incr(Counter::QueryEscalations);
                let ask = CtrlMsg::Query { qid, query, level: Some(up as u8), descending: false };
                self.send_to_first_reachable(world.shape.mrm_hosts(up, g), ask);
            }
            Route::DeadEnd => self.send_offers(qid, OfferSet::default(), true),
        }
    }

    /// Answer the query's origin: `offers`, and whether that ends the
    /// search (`done`).
    pub(crate) fn send_offers(&mut self, qid: QueryId, offers: OfferSet, done: bool) {
        self.send_ctrl(qid.origin, CtrlMsg::Offers { qid, offers, done });
    }

    /// A plain member is asked directly: answer from the local registry
    /// (silence is a miss — the asking MRM reports the dead end).
    /// Returns whether it had offers.
    pub(crate) fn answer_member_query(&mut self, qid: QueryId, query: &ComponentQuery) -> bool {
        let offers = self.state.local_offers_for(query);
        let any = !offers.is_empty();
        if any {
            self.send_offers(qid, offers, false);
        }
        any
    }

    /// Anti-entropy: answer a peer replica's digest with whatever it is
    /// missing or holds at an older generation.
    pub(crate) fn on_gossip_digest(
        &mut self,
        from: HostId,
        shard: u32,
        gens: &[(Name, HostId, u64)],
    ) {
        let now = self.sim.now();
        let Some(ttl) = self.state.world.shard_config().map(|sc| sc.publish_ttl) else { return };
        let Some(store) = self.state.backend.shard_mut() else { return };
        let entries = store.on_gossip_digest(shard, gens, now, ttl);
        if !entries.is_empty() {
            self.send_ctrl(from, CtrlMsg::GossipDelta(entries));
        }
    }

    /// Anti-entropy repair delta from a peer replica: each publication
    /// enters the store as a push would.
    pub(crate) fn on_repair(&mut self, entries: Vec<Publication>) {
        let Some(store) = self.state.backend.shard_mut() else { return };
        let repaired: u64 = entries.into_iter().map(|p| u64::from(store.apply(p))).sum();
        if repaired > 0 {
            self.sim.metrics().add(Counter::RegistryGossipRepaired, repaired);
        }
    }

    pub(crate) fn on_offers(&mut self, qid: QueryId, offers: OfferSet) {
        debug_assert_eq!(qid.origin, self.state.host);
        if offers.is_empty() {
            return;
        }
        let now = self.sim.now();
        let Some(pq) = self.state.conts.queries.get_mut(&qid.seq) else { return };
        if pq.first_offer_at.is_none() {
            pq.first_offer_at = Some(now);
        }
        // The first answer becomes the offer set itself; then the first of
        // equal (node, component, version) offers wins.
        pq.offers.merge(offers);
        let finish_now = match &pq.purpose {
            QueryPurpose::Collect { first_wins, .. } => *first_wins && !pq.offers.is_empty(),
            QueryPurpose::Resolve(_) => !pq.offers.is_empty(),
        };
        if finish_now {
            self.finish_query(qid.seq);
        } else if let QueryPurpose::Collect { sink, .. } = &pq.purpose {
            // Keep collecting; sync collect sinks for observers, which
            // share the set as it stands.
            let mut s = sink.borrow_mut();
            s.offers = pq.offers.clone();
            s.first_offer_at = pq.first_offer_at;
        }
    }

    /// The search `seq` is over: serve its callers what it found.
    pub(crate) fn finish_query(&mut self, seq: u64) {
        let Some(pq) = self.state.conts.queries.remove(&seq) else { return };
        let served = Ending::search(&pq, false);
        self.end_query(pq, served);
    }

    /// End a pending query already removed from the table — which closes
    /// its coalescing window — and every query coalesced onto it: fill
    /// the cache when the search is served before its deadline (partial,
    /// timed-out results are never cached), tag and end the query's span,
    /// then complete the leader and, in join order, its followers, still
    /// inside the span's context. The cache and every caller share the
    /// one offer set.
    fn end_query(&mut self, mut pq: PendingQuery, ending: Ending) {
        let now = self.sim.now();
        if let Ending::Served { timed_out: false, .. } = ending {
            self.state.backend.complete(&pq.query, &pq.offers, now);
        }
        let tracer = self.state.world.tracer.clone();
        let span = pq.span;
        if let Some(s) = span {
            match ending {
                Ending::Served { timed_out, .. } => {
                    tracer.set_attr(s, "offers", pq.offers.len());
                    if timed_out {
                        tracer.set_attr(s, "timed_out", "true");
                    }
                }
                Ending::Shed => tracer.set_attr(s, "shed", "true"),
            }
        }
        let followers = std::mem::take(&mut pq.followers);
        let offers = pq.offers;
        // Follow-up work (resolve actions) still parents under the query.
        self.in_span(span, |ctx| {
            ctx.complete(pq.purpose, offers.clone(), &pq.query, ending);
            for f in followers {
                match ending {
                    Ending::Served { timed_out, .. } => {
                        let (purpose, offers) = (f.purpose, offers.clone());
                        ctx.resolve_follower(purpose, f.started, offers, &pq.query, timed_out)
                    }
                    Ending::Shed => ctx.complete(f.purpose, offers.clone(), &pq.query, ending),
                }
            }
            if let Some(s) = span {
                tracer.end(s, now);
            }
        });
    }

    /// Complete one coalesced (or cache-served) query, which its caller
    /// `started` for `purpose`, with an offer set obtained elsewhere: the
    /// leader's result at finalization, the current partial set at the
    /// follower's own deadline, or a fresh cache entry.
    pub(crate) fn resolve_follower(
        &mut self,
        purpose: QueryPurpose,
        started: lc_des::SimTime,
        offers: OfferSet,
        query: &ComponentQuery,
        timed_out: bool,
    ) {
        let served = Ending::Served {
            started,
            timed_out,
            first_offer_at: (!offers.is_empty()).then(|| self.sim.now()),
        };
        self.complete(purpose, offers, query, served);
    }

    /// Shed one pending query under admission control: the leader *and*
    /// every coalesced follower complete immediately with
    /// [`super::QueryResult::shed`] (Resolve purposes get an overload
    /// error) — a deterministic refusal now instead of a silent timeout
    /// later. Nothing is cached, and the query has left the table, so
    /// late identical queries start a fresh search.
    pub(crate) fn shed_pending_query(&mut self, seq: u64) {
        let Some(pq) = self.state.conts.queries.remove(&seq) else { return };
        self.sim.metrics().incr(Counter::AdmissionQueryShed);
        self.end_query(pq, Ending::Shed);
    }

    /// Complete one query continuation — a leader, a coalesced follower
    /// or a cache-served caller — with `offers`: account for it (a served
    /// query only), then fill a `Collect` sink or act on a `Resolve`.
    fn complete(
        &mut self,
        purpose: QueryPurpose,
        offers: OfferSet,
        query: &ComponentQuery,
        ending: Ending,
    ) {
        let now = self.sim.now();
        let mut partial = false;
        if let Ending::Served { started, timed_out, .. } = ending {
            if offers.is_empty() {
                self.sim.metrics().incr(Counter::QueryMisses);
            } else {
                self.sim.metrics().incr(Counter::QueryHits);
            }
            partial = timed_out && !offers.is_empty();
            if partial {
                self.sim.metrics().incr(Counter::QueryPartial);
            }
            if let Some(mon) = &mut self.state.slo {
                mon.observe_query((now - started).as_nanos() / 1_000, offers.is_empty());
            }
        }
        match purpose {
            QueryPurpose::Collect { sink, .. } => {
                let mut s = sink.borrow_mut();
                match ending {
                    Ending::Served { first_offer_at, .. } => {
                        s.first_offer_at = first_offer_at;
                        s.partial = partial;
                    }
                    Ending::Shed => s.shed = true,
                }
                s.offers = offers;
                s.done = true;
                s.done_at = Some(now);
            }
            QueryPurpose::Resolve(cont) => {
                let ResolveCont { instance, port, expected_traffic, sink } = *cont;
                let served = matches!(ending, Ending::Served { .. });
                let here = self.state.resources.static_info();
                let chosen = if served { choose(&offers, expected_traffic, here) } else { None };
                match chosen {
                    Some((_, action)) => {
                        self.apply_resolve_action(instance, port, action, sink, query)
                    }
                    None => {
                        if let Some(s) = sink {
                            *s.borrow_mut() = Some(Err(if served {
                                format!("no offers for port '{port}'")
                            } else {
                                format!("overload: query for port '{port}' was shed")
                            }));
                        }
                    }
                }
            }
        }
    }

    /// One `Tick::QueryDeadline`: finalize every query whose deadline
    /// has passed (deadline timers fire in chronological order, and a
    /// query resumed early is no longer in the table).
    pub(crate) fn sweep_queries(&mut self) {
        let now = self.sim.now();
        // Followers carry their *own* deadlines: a query coalesced
        // onto a long-lived leader must not wait past its caller's
        // timeout. Drain expired followers from live entries first —
        // each gets the leader's current partial offer set.
        let mut expired_followers = Vec::new();
        for (_, pq) in self.state.conts.queries.iter_mut() {
            for f in pq.followers.extract_if(.., |f| f.deadline <= now) {
                expired_followers.push((f, pq.offers.clone(), pq.query.clone()));
            }
        }
        for (f, offers, query) in expired_followers {
            self.sim.metrics().incr(Counter::QueryTimeouts);
            self.resolve_follower(f.purpose, f.started, offers, &query, true);
        }
        let expired = self.state.conts.queries.take_expired(now);
        for (seq, mut pq) in expired {
            // A query expiring with *zero* offers may be re-issued:
            // under loss the first round's messages may simply have
            // been dropped.
            if pq.offers.is_empty() && pq.retries_left > 0 {
                pq.retries_left -= 1;
                let timeout = self.state.world.config.query_timeout;
                let query = pq.query.clone();
                let original = pq.span;
                self.state.conts.queries.insert(seq, pq, now + timeout);
                self.sim.metrics().incr(Counter::QueryRetries);
                let qid = QueryId { origin: self.state.host, seq };
                // The re-issue runs under a fresh span that *links*
                // to the query root (retry, not a parent edge).
                let tracer = self.state.world.tracer.clone();
                let retry = tracer.retry(self.state.host.0, "registry.query.retry", original, now);
                self.in_span(retry, |ctx| {
                    ctx.issue_search(qid, query);
                    if let Some(r) = retry {
                        tracer.end(r, now);
                    }
                });
                self.timer_in(timeout, Tick::QueryDeadline);
                continue;
            }
            self.sim.metrics().incr(Counter::QueryTimeouts);
            let served = Ending::search(&pq, true);
            self.end_query(pq, served);
        }
    }

    fn apply_resolve_action(
        &mut self,
        instance: InstanceId,
        port: String,
        action: ResolveAction,
        sink: Option<SpawnSink>,
        query: &ComponentQuery,
    ) {
        match action {
            ResolveAction::ConnectExisting(provider) => {
                self.connect_provider(instance, &port, Ok(provider), sink);
            }
            ResolveAction::SpawnRemote(node) => {
                let cont = SpawnCont::Connect { instance, port, sink };
                let component = query.name.as_deref().unwrap_or_default().to_owned();
                let min_version = query.min_version.unwrap_or(Version::new(0, 0));
                self.request_instance(node, component, min_version, None, None, Some(cont));
                self.sim.metrics().incr(Counter::ResolveSpawnRemote);
            }
            ResolveAction::FetchAndRunLocal { from } => {
                let component = query.name.as_deref().unwrap_or_default().to_owned();
                let min_version = query.min_version.unwrap_or(Version::new(0, 0));
                let cont = FetchCont::SpawnAndConnect { min_version, instance, port, sink };
                self.fetch_then(from, component, min_version, cont);
                self.sim.metrics().incr(Counter::ResolveFetchLocal);
            }
        }
    }
}

/// Reflect the Component Registry service's current state.
pub(crate) fn reflect(state: &Node) -> ServiceReflect {
    let mut items = vec![
        item("running instances", state.registry.instance_count()),
        item("pending queries", state.conts.queries.len()),
    ];
    // Only a sharded registry has a shard store to report — the
    // unsharded reflection stays unchanged.
    if let Some(store) = state.backend.shard() {
        items.push(item("shard entries", store.entries()));
    }
    ServiceReflect { kind: ServiceKind::Registry, items }
}

#[cfg(test)]
mod tests {
    use crate::demo;
    use crate::node::{AdmissionConfig, CacheConfig, Node, NodeConfig};
    use crate::registry::ComponentQuery;
    use crate::testkit::{fast_cohesion, World};
    use lc_des::SimTime;
    use lc_net::{FaultPlan, LinkFaults, Net, Topology};
    use lc_pkg::Version;

    /// Every way out of the pending-query table ends the query and every
    /// query coalesced onto it, and a query joins only a search that is
    /// still pending: under random queries (first-wins or collecting,
    /// found or not), message loss that times searches out and retries
    /// them, and admission caps that shed the oldest, no node's table
    /// ever holds two searches for one query, and by the longest horizon
    /// after the last query (its timeout times its tries) every caller
    /// asked is answered and every table is empty.
    #[test]
    fn every_query_ends_and_the_pending_tables_drain() {
        const NAMES: [&str; 2] = ["Counter", "Missing"];
        lc_prop::check("every query ends, every pending table drains", |g| {
            let loss = *g.pick(&[0.0, 0.2, 0.6]);
            let plan = FaultPlan::seeded(g.any_u64()).default_link(LinkFaults::none().drop_p(loss));
            let net = Net::builder(Topology::campus(2, 3)).fault_plan(plan).build();
            let cap = g.gen_range(0..4usize);
            let (timeout, retries) = (g.gen_range(50..400u64), g.gen_range(0..2u32));
            let config = NodeConfig {
                cohesion: fast_cohesion(),
                query_timeout: SimTime::from_millis(timeout),
                query_retries: retries,
                cache: Some(CacheConfig::default()),
                admission: (cap > 0)
                    .then(|| AdmissionConfig { query_queue_cap: cap, ..Default::default() }),
                ..Default::default()
            };
            let hosts = net.host_ids();
            let mut world = World::on(net, g.any_u64(), config, demo::catalog(), |h| {
                if h.0 % 2 == 0 { vec![demo::counter_package()] } else { Vec::new() }
            });
            world.run_for(SimTime::from_secs(1));
            let mut sinks = Vec::new();
            for _ in 0..g.gen_range(1..24usize) {
                let (origin, name) = (*g.pick(&hosts), *g.pick(&NAMES));
                let query = ComponentQuery::by_name(name, Version::new(1, 0));
                sinks.push(world.query(origin, query, g.gen_bool()));
                world.run_for(SimTime::from_millis(g.gen_range(0..150u64)));
                for &h in &hosts {
                    let actor = world.net.actor_of(h);
                    let node = world.sim.actor_as_mut::<Node>(actor).expect("nothing crashes");
                    let pending: Vec<_> = node.conts.queries.iter_mut().map(|(_, pq)| pq).collect();
                    for (i, pq) in pending.iter().enumerate() {
                        let twice = pending[..i].iter().any(|p| p.query == pq.query);
                        assert!(!twice, "{h:?}: two searches for {:?}", pq.query);
                    }
                }
            }
            world.run_for(SimTime::from_millis(timeout * u64::from(retries + 1)));
            for (i, sink) in sinks.iter().enumerate() {
                assert!(sink.borrow().done, "query {i} unanswered");
            }
            for &h in &hosts {
                let node = world.node(h).expect("nothing crashes");
                assert!(node.conts.queries.is_empty(), "{h:?}: queries left pending");
            }
        });
    }
}
