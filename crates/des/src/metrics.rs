//! Simulation-wide measurement: declared counters and sample summaries.
//!
//! Every experiment in `lc-bench` reads its reported quantities (messages
//! per query, control bandwidth, failover latency, …) from a [`Metrics`]
//! sink, so protocol code records measurements with one call and stays free
//! of experiment-specific plumbing. What can be measured is declared once,
//! here: [`Counter`] and [`Series`] are closed key sets, a write names a
//! variant (a misspelt one does not compile), and the sink is two fixed
//! arrays indexed by it. Reads go by name, for reports and the benchmark;
//! a name nobody declared is refused.

/// Nearest-rank quantile of an ascending `sorted` slice: the element at
/// rank `⌈q·n⌉` (1-based, clamped into the slice), `None` when empty.
/// `q` in `[0, 1]`. The workspace's one quantile definition: the scale
/// campus and every experiment that prints a percentile call it.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    sorted.get(rank - 1).copied()
}

/// Running totals of a stream of samples: four scalars, no sample kept.
/// For a quantile over a window use `lc_trace::BucketHistogram`
/// (fixed buckets, reset per window).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "non-finite sample");
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples, accumulated in record order.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Minimum sample, or 0.0 when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum sample, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Declare a closed key set: `Variant => "name"` rows, in byte order of
/// their names, become one enum and its `NAMES` table, so the two cannot
/// drift apart.
macro_rules! keys {
    ($(#[$doc:meta])* $name:ident { $($variant:ident => $key:literal,)* }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum $name {
            $(#[doc = $key] $variant,)*
        }

        impl $name {
            /// Every key's name, indexed by discriminant: byte order.
            pub const NAMES: &'static [&'static str] = &[$($key,)*];
            /// How many keys there are.
            pub const COUNT: usize = Self::NAMES.len();

            /// The discriminant of the key called `name`. Panics when no
            /// key is: a misspelt reader fails instead of reading nothing.
            fn index_of(name: &str) -> usize {
                match Self::NAMES.binary_search(&name) {
                    Ok(i) => i,
                    Err(_) => panic!("no {} is called {name:?}", stringify!($name)),
                }
            }
        }
    };
}

keys! {
    /// Every run counter of the workspace.
    Counter {
        AcceptorInstalled => "acceptor.installed",
        AcceptorRejected => "acceptor.rejected",
        AdmissionQueryShed => "admission.query_shed",
        AdmissionReplicaNoTarget => "admission.replica_no_target",
        AdmissionReplicaQueries => "admission.replica_queries",
        AdmissionReplicas => "admission.replicas",
        AdmissionShed => "admission.shed",
        AdmissionTotal => "admission.total",
        AssemblyPushBytes => "assembly.push_bytes",
        AssemblyStarted => "assembly.started",
        AssemblyWired => "assembly.wired",
        CacheCoalesced => "cache.coalesced",
        CacheHits => "cache.hits",
        CacheInvalidateBcasts => "cache.invalidate_bcasts",
        CacheInvalidateTargeted => "cache.invalidate_targeted",
        CacheInvalidatedEntries => "cache.invalidated_entries",
        CacheInvalidations => "cache.invalidations",
        CacheMisses => "cache.misses",
        ChurnCrashes => "churn.crashes",
        ChurnRecoveries => "churn.recoveries",
        CohesionEvictions => "cohesion.evictions",
        CohesionReports => "cohesion.reports",
        CohesionSummaries => "cohesion.summaries",
        DesDroppedToDead => "des.dropped_to_dead",
        EventsBadSubscription => "events.bad_subscription",
        EventsPublished => "events.published",
        EventsSubscriptions => "events.subscriptions",
        FetchBytes => "fetch.bytes",
        FetchReceived => "fetch.received",
        FetchServed => "fetch.served",
        LbMigrations => "lb.migrations",
        LbNoTarget => "lb.no_target",
        MigrateCompleted => "migrate.completed",
        MigrateFailed => "migrate.failed",
        MigrateForwardedRequests => "migrate.forwarded_requests",
        MigrateStarted => "migrate.started",
        NetBytes => "net.bytes",
        NetBytesInter => "net.bytes.inter",
        NetBytesIntra => "net.bytes.intra",
        NetBytesLoopback => "net.bytes.loopback",
        NetDropReceiverDown => "net.drop.receiver_down",
        NetDropSenderDown => "net.drop.sender_down",
        NetDropUnbound => "net.drop.unbound",
        NetFaultCrashes => "net.fault.crashes",
        NetFaultDelayed => "net.fault.delayed",
        NetFaultDropped => "net.fault.dropped",
        NetFaultDuplicated => "net.fault.duplicated",
        NetFaultRestarts => "net.fault.restarts",
        NetFaultSevered => "net.fault.severed",
        NetMsgs => "net.msgs",
        OrbCallTimeouts => "orb.call_timeouts",
        OrbDedupHits => "orb.dedup_hits",
        OrbEvents => "orb.events",
        OrbOrphanReplies => "orb.orphan_replies",
        OrbReplies => "orb.replies",
        OrbRequests => "orb.requests",
        OrbRetries => "orb.retries",
        QueryEscalations => "query.escalations",
        QueryFailover => "query.failover",
        QueryHits => "query.hits",
        QueryMisrouted => "query.misrouted",
        QueryMisses => "query.misses",
        QueryMsgs => "query.msgs",
        QueryPartial => "query.partial",
        QueryRetries => "query.retries",
        QueryStarted => "query.started",
        QueryTimeouts => "query.timeouts",
        ReflectPortChanges => "reflect.port_changes",
        RegistryGossipMsgs => "registry.gossip_msgs",
        RegistryGossipRepaired => "registry.gossip_repaired",
        RegistryPublishMsgs => "registry.publish_msgs",
        ResolveConnected => "resolve.connected",
        ResolveFetchLocal => "resolve.fetch_local",
        ResolveSpawnRemote => "resolve.spawn_remote",
        SloBreaches => "slo.breaches",
        StrongAcks => "strong.acks",
        StrongHeartbeats => "strong.heartbeats",
        StrongViewChanges => "strong.view_changes",
        StrongViewMsgs => "strong.view_msgs",
        StrongViewsCommitted => "strong.views_committed",
    }
}

keys! {
    /// Every sample series of the workspace.
    Series {
        AdmissionQueueDelayMs => "admission.queue_delay_ms",
        NodeTaskMs => "node.task_ms",
    }
}

/// Counters and sample summaries for one simulation run.
///
/// One cell per declared key: a write is an indexed add, nothing
/// allocates, and reports iterate in name order whatever the write order
/// was.
#[derive(Clone, Debug)]
pub struct Metrics {
    /// Indexed by [`Counter`]: `None` until the first write, so a key
    /// nobody touched never shows up in [`Metrics::counters`].
    counters: [Option<u64>; Counter::COUNT],
    /// Indexed by [`Series`], listed likewise.
    summaries: [Option<Summary>; Series::COUNT],
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics { counters: [None; Counter::COUNT], summaries: [None; Series::COUNT] }
    }
}

impl Metrics {
    /// Increment `key` by 1.
    pub fn incr(&mut self, key: Counter) {
        self.add(key, 1);
    }

    /// Increment `key` by `n` (`n == 0` still lists the key).
    #[inline]
    pub fn add(&mut self, key: Counter, n: u64) {
        let cell = &mut self.counters[key as usize];
        *cell = Some(cell.unwrap_or(0) + n);
    }

    /// Current value of the counter called `name` (0 if never touched).
    /// Panics when no [`Counter`] is called `name`.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters[Counter::index_of(name)].unwrap_or(0)
    }

    /// Record a sample into series `key`.
    pub fn record(&mut self, key: Series, v: f64) {
        self.summaries[key as usize].get_or_insert_with(Summary::default).record(v);
    }

    /// The summary of the series called `name` (`None` if nothing was
    /// recorded). Panics when no [`Series`] is called `name`.
    pub fn summary(&self, name: &str) -> Option<&Summary> {
        self.summaries[Series::index_of(name)].as_ref()
    }

    /// Iterate the counters written since the last [`Metrics::clear`], in
    /// name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        Counter::NAMES.iter().zip(&self.counters).filter_map(|(&k, v)| Some((k, (*v)?)))
    }

    /// Iterate the recorded summaries in name order.
    pub fn summaries(&self) -> impl Iterator<Item = (&str, &Summary)> {
        Series::NAMES.iter().zip(&self.summaries).filter_map(|(&k, s)| Some((k, s.as_ref()?)))
    }

    /// Reset everything (between experiment repetitions).
    pub fn clear(&mut self) {
        *self = Metrics::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::default();
        m.incr(Counter::NetMsgs);
        m.add(Counter::NetMsgs, 4);
        m.incr(Counter::AcceptorInstalled);
        assert_eq!(m.counter("net.msgs"), 5);
        assert_eq!(m.counter("acceptor.installed"), 1);
        assert_eq!(m.counter("query.msgs"), 0, "declared, never written");
        let keys: Vec<_> = m.counters().map(|(k, _)| k.to_owned()).collect();
        assert_eq!(keys, ["acceptor.installed", "net.msgs"]);
    }

    #[test]
    fn ids_and_names_share_one_store() {
        let mut m = Metrics::default();
        // Written out of name order: enum keys in, names out.
        m.add(Counter::StrongAcks, 2);
        m.incr(Counter::StrongAcks);
        m.add(Counter::AcceptorInstalled, 0);
        m.incr(Counter::NetBytes);
        assert_eq!(m.counter("strong.acks"), 3);
        let listed: Vec<_> = m.counters().collect();
        // Name-sorted; a zero add lists the key.
        assert_eq!(listed, [("acceptor.installed", 0), ("net.bytes", 1), ("strong.acks", 3)]);

        m.clear();
        assert_eq!(m.counters().count(), 0);
        assert_eq!(m.counter("strong.acks"), 0);
        m.add(Counter::QueryMsgs, 5);
        m.incr(Counter::AcceptorInstalled);
        let listed: Vec<_> = m.counters().collect();
        assert_eq!(listed, [("acceptor.installed", 1), ("query.msgs", 5)]);
    }

    #[test]
    fn counter_names_are_sorted_unique_and_dotted() {
        // `[a-z_]+(\.[a-z_]+)+`
        let word = |p: &str| !p.is_empty() && p.bytes().all(|b| b == b'_' || b.is_ascii_lowercase());
        let dotted = |name: &str| name.contains('.') && name.split('.').all(word);
        for names in [Counter::NAMES, Series::NAMES] {
            assert!(names.windows(2).all(|w| w[0] < w[1]), "strictly increasing in byte order");
            for name in names {
                assert!(dotted(name), "{name:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "\"query.msg\"")]
    fn an_undeclared_name_is_refused() {
        Metrics::default().counter("query.msg");
    }

    #[test]
    fn histogram_stats() {
        let mut h = Summary::default();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 15.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 5.0);
        assert_eq!(std::mem::size_of::<Summary>(), 32, "four scalars, no per-sample storage");
    }

    #[test]
    fn nearest_rank_picks_ceil_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&v, 0.5), Some(2.0));
        assert_eq!(nearest_rank(&v, 0.51), Some(3.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(4.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank::<u64>(&[], 0.5), None);
        // One sample is every quantile.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(nearest_rank(&[7u64], q), Some(7));
        }
        // The call shapes of E7 (p95), E10 and E14 (p50/p99) over the
        // values 1..=n: rank ⌈q·n⌉. Each comment gives the value the
        // experiment's former private index picked.
        let to = |n: u64| (1..=n).collect::<Vec<u64>>();
        assert_eq!(nearest_rank(&to(20), 0.95), Some(19)); // E7 index ⌊0.95·20⌋: 20
        assert_eq!(nearest_rank(&to(200), 0.50), Some(100)); // index round(199·0.50): 101
        assert_eq!(nearest_rank(&to(200), 0.99), Some(198)); // index round(199·0.99): 198
        assert_eq!(nearest_rank(&to(96), 0.99), Some(96)); // index round(95·0.99): 95
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Summary::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        let mut neg = Summary::default();
        neg.record(-2.0);
        assert_eq!((neg.min(), neg.max()), (-2.0, -2.0), "the first sample seeds both bounds");
    }

    #[test]
    fn metrics_record_routes_to_histogram() {
        let mut m = Metrics::default();
        m.record(Series::NodeTaskMs, 1.0);
        m.record(Series::NodeTaskMs, 3.0);
        assert_eq!(m.summary("node.task_ms").unwrap().sum(), 4.0);
        assert!(m.summary("admission.queue_delay_ms").is_none());
        assert_eq!(m.summaries().map(|(k, _)| k).collect::<Vec<_>>(), ["node.task_ms"]);
        m.clear();
        assert!(m.summary("node.task_ms").is_none());
    }
}
