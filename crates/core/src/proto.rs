//! The node-to-node control protocol of the Distributed Registry.
//!
//! Everything the paper's §2.4.3 requires of "the protocol" travels as
//! `CtrlMsg` values inside [`lc_net::NetMsg`] payloads: soft-consistency
//! keep-alive reports, hierarchical summaries, distributed component
//! queries (up the MRM hierarchy, or one hop to the owning registry
//! shard, whose replicas publish and gossip among themselves) and their
//! answers — one `CtrlMsg::Offers` carrying the offers and whether the
//! search is over — package fetches (the network as a component
//! repository; one `CtrlMsg::Package` answers, bytes or refusal),
//! remote instantiation (a migration is one that carries state), and
//! event subscription. Each message knows its approximate wire size so
//! the network model is charged honestly.

use crate::registry::backend::ShardDigest;
use crate::registry::{ComponentQuery, Offer, OfferSet};
use crate::resource::ResourceReport;
use lc_orb::{Name, ObjectKey, ObjectRef, Value};
use lc_pkg::Version;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Aggregated view of a subtree, sent MRM → parent MRM.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GroupSummary {
    /// Component names available somewhere in the subtree: the set the
    /// sending duty keeps, shared by every summary it builds until a
    /// member's names change.
    pub components: Rc<BTreeSet<Name>>,
    /// Live nodes in the subtree.
    pub node_count: u32,
    /// Total free CPU (reference units) in the subtree.
    pub cpu_free: f64,
    /// Total free memory (bytes) in the subtree.
    pub mem_free: u64,
}

impl GroupSummary {
    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> u64 {
        24 + self.components.iter().map(|c| c.len() as u64 + 4).sum::<u64>()
    }
}

/// Identifier of a distributed query (unique per origin node).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct QueryId {
    /// Node that issued the query.
    pub origin: lc_net::HostId,
    /// Origin-local sequence number.
    pub seq: u64,
}

/// Control messages of the CORBA-LC runtime.
///
/// `Clone` because the fabric's fault plan may duplicate messages in
/// flight (the protocol tolerates duplicate control traffic: reports and
/// summaries are idempotent soft state, queries dedup by [`QueryId`],
/// spawns by origin and correlation id while their instance runs).
#[derive(Clone, Debug)]
pub(crate) enum CtrlMsg {
    // ---- soft-consistency cohesion (§2.4.3) --------------------------
    /// Periodic resource report; doubles as the keep-alive.
    Report {
        /// Reporting node.
        from: lc_net::HostId,
        /// Snapshot.
        report: ResourceReport,
    },
    /// Aggregated subtree summary, primary MRM → parent group replicas.
    Summary {
        /// Reporting (child-group primary) MRM.
        from: lc_net::HostId,
        /// Hierarchy level of the *sending* duty (the parent absorbs the
        /// summary into its level+1 duty only, so deep hierarchies route
        /// correctly).
        level: u8,
        /// Aggregate: the duty's summary, shared by every parent replica
        /// and re-sent as the same `Rc` while the duty is unchanged.
        summary: Rc<GroupSummary>,
    },

    // ---- distributed queries ------------------------------------------
    /// A component query travelling through the hierarchy.
    Query {
        /// Query id.
        qid: QueryId,
        /// The query: every hop's copy shares the origin's names.
        query: ComponentQuery,
        /// Hierarchy level of the receiving MRM's duty (0 = leaf group);
        /// `None` asks a plain member for its own offers.
        level: Option<u8>,
        /// True if this hop travels downward (parent → child MRM).
        descending: bool,
    },
    /// Offers sent directly back to the query origin, and whether the
    /// search is over: a member's answer leaves it open, a dead end
    /// (no offers) or an owning shard replica's answer closes it. One
    /// message carries both, so jitter cannot reorder the offers behind
    /// the completion.
    Offers {
        /// Query id.
        qid: QueryId,
        /// Matching offers (possibly empty), shared with whoever else
        /// holds the set.
        offers: OfferSet,
        /// The search is exhausted: finalize on receipt.
        done: bool,
    },

    // ---- network-as-repository: fetch & install (§2.4.3, R5/R6) ------
    /// Ask a node to ship a package's container bytes.
    Fetch {
        /// Component name.
        name: String,
        /// Exact installed version wanted.
        version: Version,
        /// Where to send the bytes.
        reply_to: lc_net::HostId,
    },
    /// The answer to a [`CtrlMsg::Fetch`]: the package's container bytes
    /// (`Rc` so the simulation does not copy the payload; the *network*
    /// is still charged the real size), or why not (not installed / not
    /// mobile).
    Package {
        /// Component name.
        name: String,
        /// Container bytes, or the refusal's reason.
        bytes: Result<Rc<Vec<u8>>, String>,
    },
    /// Push a package to a node for installation (Component Acceptor).
    Install {
        /// Container bytes.
        bytes: Rc<Vec<u8>>,
    },

    // ---- remote instantiation and migration (§2.2) ----------------------
    /// Ask a node for an instance of a component: a resolve's provider,
    /// an assembly member, a hot replica, or — with `state` — a migrating
    /// instance, which the node resumes from that state, fetching the
    /// package from the origin first if it lacks it. Without state a
    /// component the node lacks fails the request. The node answers
    /// each `(origin, rid)` with one [`CtrlMsg::SpawnDone`]; a duplicate
    /// of a request whose instance still runs gets that instance again.
    Spawn {
        /// Correlation id (origin-scoped).
        rid: u64,
        /// Where to reply (and, for a migration, who serves the package).
        origin: lc_net::HostId,
        /// Component name.
        component: String,
        /// Minimum compatible version (a migration's exact version).
        min_version: Version,
        /// Optional application-assigned instance name.
        instance_name: Option<String>,
        /// A migrating instance's captured state (component-defined
        /// value); `None` for a fresh instance.
        state: Option<Value>,
    },
    /// The answer to a [`CtrlMsg::Spawn`]: the instance's reference, or
    /// why there is none.
    SpawnDone {
        /// Correlation id.
        rid: u64,
        /// The new instance's reference, or why it failed.
        result: Result<ObjectRef, String>,
    },

    // ---- event channels -------------------------------------------------
    /// Subscribe a consumer to a producer instance's event-source port.
    Subscribe {
        /// Producer servant.
        producer: ObjectKey,
        /// Producer's event-source port name.
        port: String,
        /// Consumer servant.
        consumer: ObjectKey,
        /// Delivery operation on the consumer.
        delivery_op: String,
    },

    // ---- placement (§2.4.3 load balancing, hot-component replication) --
    /// A node asks its group MRM which member has `cpu_needed` headroom:
    /// to migrate its heaviest instance there (overload), or — with
    /// `replica` set — to run one more instance of a component it is
    /// shedding requests for while the original keeps serving.
    PlacementQuery {
        /// The asking node.
        from: lc_net::HostId,
        /// CPU share the moved or added instance needs.
        cpu_needed: f64,
        /// The saturated component and the version of its instance (the
        /// replica must match its major, so the spawn pins it); `None`
        /// for a migration ask.
        replica: Option<(String, Version)>,
    },
    /// The MRM's placement answer.
    PlacementTarget {
        /// Suggested host, or `None` if no member has headroom.
        target: Option<lc_net::HostId>,
        /// The ask's `replica`, echoed so the asker needs no correlation
        /// state.
        replica: Option<(String, Version)>,
    },

    // ---- registry cache coherence ---------------------------------------
    /// A node's component inventory changed (install, spawn, migration):
    /// peers drop cached query results that could name it. Best-effort —
    /// the cache TTL is the staleness backstop when this is lost.
    CacheInvalidate {
        /// The component affected (one name shared by the whole fan-out).
        component: Name,
    },

    // ---- sharded registry (one-hop lookups + anti-entropy) --------------
    /// A component lookup sent straight to a replica of the owning shard.
    ShardLookup {
        /// Query id (offers flow straight back to `qid.origin`).
        qid: QueryId,
        /// The query.
        query: ComponentQuery,
        /// Shard owning the queried component.
        shard: u32,
    },
    /// A publisher pushes its current offers for one component to the
    /// owning shard's replicas.
    ShardPublish {
        /// Publishing node.
        from: lc_net::HostId,
        /// Component whose inventory changed (one name shared by the
        /// whole replica set).
        component: Name,
        /// Publisher's generation for this component (monotone; newer
        /// wins, so reordered publishes cannot resurrect stale offers).
        gen: u64,
        /// Publisher's freshness stamp (virtual time of the refresh).
        at: lc_des::SimTime,
        /// The publisher's complete current offers for the component
        /// (empty = deregistered): computed once per publish and shared
        /// by the whole replica set and the stores that keep it.
        offers: OfferSet,
    },
    /// Anti-entropy digest: one replica's `(component, publisher,
    /// generation)` view of a shard, sent to a peer replica on the
    /// gossip cadence. Sent even when empty so a freshly (re)spawned
    /// replica still solicits repair.
    GossipDigest {
        /// Sending replica.
        from: lc_net::HostId,
        /// Shard the digest describes.
        shard: u32,
        /// Generation triples, sorted: the shard's kept digest, shared by
        /// every peer replica's copy of the message.
        gens: ShardDigest,
    },
    /// Anti-entropy repair: the entries the digest sender was missing or
    /// held at an older generation.
    GossipDelta {
        /// Shard being repaired.
        shard: u32,
        /// Entries strictly ahead of the digest.
        entries: Vec<DeltaEntry>,
    },

}

impl CtrlMsg {
    /// Approximate wire size in bytes (what the network is charged).
    pub fn wire_size(&self) -> u64 {
        const HDR: u64 = 24;
        HDR + match self {
            CtrlMsg::Report { report, .. } => report.wire_size(),
            CtrlMsg::Summary { summary, .. } => summary.wire_size(),
            CtrlMsg::Query { query, .. } => query.wire_size() + 2,
            CtrlMsg::Offers { offers, .. } => {
                8 + offers.iter().map(Offer::wire_size).sum::<u64>()
            }
            CtrlMsg::Fetch { name, .. } => name.len() as u64 + 12,
            CtrlMsg::Package { name, bytes } => {
                let body = match bytes {
                    Ok(bytes) => bytes.len(),
                    Err(reason) => reason.len(),
                };
                (name.len() + body) as u64 + 12
            }
            CtrlMsg::Install { bytes } => bytes.len() as u64,
            CtrlMsg::Spawn { component, instance_name, state, .. } => {
                component.len() as u64
                    + match state {
                        None => instance_name.as_deref().map_or(0, |n| n.len() as u64) + 24,
                        Some(state) => lc_orb::encoded_len(std::slice::from_ref(state)) + 32,
                    }
            }
            CtrlMsg::SpawnDone { result, .. } => match result {
                Ok(_) => 64,
                Err(e) => e.len() as u64 + 16,
            },
            CtrlMsg::Subscribe { port, delivery_op, .. } => {
                (port.len() + delivery_op.len()) as u64 + 32
            }
            CtrlMsg::PlacementQuery { replica, .. } => 16 + replica_size(replica),
            CtrlMsg::PlacementTarget { replica, .. } => 8 + replica_size(replica),
            CtrlMsg::CacheInvalidate { component, .. } => component.len() as u64 + 8,
            CtrlMsg::ShardLookup { query, .. } => query.wire_size() + 20,
            CtrlMsg::ShardPublish { component, offers, .. } => {
                component.len() as u64
                    + 24
                    + offers.iter().map(Offer::wire_size).sum::<u64>()
            }
            CtrlMsg::GossipDigest { gens, .. } => {
                8 + gens.iter().map(|(c, _, _)| c.len() as u64 + 16).sum::<u64>()
            }
            CtrlMsg::GossipDelta { entries, .. } => {
                8 + entries.iter().map(DeltaEntry::wire_size).sum::<u64>()
            }
        }
    }
}

/// Bytes a placement message spends on the component it wants replicated.
fn replica_size(replica: &Option<(String, Version)>) -> u64 {
    replica.as_ref().map_or(0, |(component, _)| component.len() as u64 + 8)
}

/// One repaired `(component, publisher)` inventory entry inside a
/// `CtrlMsg::GossipDelta`. Carries the *sender's stored* freshness
/// stamp — not the send time — so an entry the receiver already expired
/// is re-adopted with its original deadline and both replicas retire it
/// on the same virtual-time schedule (no resurrection ping-pong for dead
/// publishers).
#[derive(Clone, Debug)]
pub struct DeltaEntry {
    /// Component name (the sender's store key, shared).
    pub component: Name,
    /// Publishing node.
    pub publisher: lc_net::HostId,
    /// Publisher generation.
    pub gen: u64,
    /// Freshness stamp as stored at the sender.
    pub at: lc_des::SimTime,
    /// The publisher's offers for the component (the sender's stored
    /// offer set, shared).
    pub offers: OfferSet,
}

impl DeltaEntry {
    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> u64 {
        self.component.len() as u64
            + 24
            + self.offers.iter().map(Offer::wire_size).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_net::HostId;

    /// A duty absorbing two child summaries sums their numbers and
    /// unites their names.
    #[test]
    fn summary_absorb() {
        use crate::cohesion::{DutyState, SeatStore};
        let summary = |names: &[&str], node_count, cpu_free, mem_free| GroupSummary {
            components: Rc::new(names.iter().map(|&n| n.into()).collect()),
            node_count,
            cpu_free,
            mem_free,
        };
        let mut duty = DutyState::default();
        let now = lc_des::SimTime::ZERO;
        duty.on_summary(HostId(1), 0, Rc::new(summary(&["X"], 3, 2.0, 100)), now);
        duty.on_summary(HostId(2), 1, Rc::new(summary(&["X", "Y"], 2, 1.0, 50)), now);
        let a = duty.summarize();
        assert_eq!(a.components.len(), 2);
        assert_eq!(a.node_count, 5);
        assert_eq!(a.cpu_free, 3.0);
        assert_eq!(a.mem_free, 150);
    }

    #[test]
    fn wire_sizes_scale_with_content() {
        let small = CtrlMsg::Fetch {
            name: "A".into(),
            version: Version::new(1, 0),
            reply_to: HostId(0),
        };
        let pkg = CtrlMsg::Package { name: "A".into(), bytes: Ok(Rc::new(vec![0u8; 50_000])) };
        assert!(pkg.wire_size() > 50_000);
        assert!(small.wire_size() < 100);
    }

    /// One `Offers` (offers plus a done flag) is charged what the offer
    /// set, the bare done marker (8) and the shard serve (the same as
    /// the offers) it replaced were; one `Package` what the shipped bytes
    /// and the refusal were (name + 12 + bytes or reason). No
    /// experiment's byte column moves.
    #[test]
    fn answer_wire_sizes_match_the_kinds_they_replaced() {
        const HDR: u64 = 24;
        let qid = QueryId { origin: HostId(1), seq: 2 };
        let done = CtrlMsg::Offers { qid, offers: OfferSet::default(), done: true };
        assert_eq!(done.wire_size(), HDR + 8);
        let offer = Offer {
            node: HostId(3),
            component: "Counter".into(),
            version: Version::new(1, 0),
            mobility: lc_pkg::Mobility::Mobile,
            cost_per_hour: 0,
            package_size: 1000,
            load: 0.0,
            running: None,
        };
        for done in [false, true] {
            let offers = OfferSet::from([offer.clone(), offer.clone(), offer.clone()]);
            let answer = CtrlMsg::Offers { qid, offers, done };
            assert_eq!(answer.wire_size(), HDR + 8 + 3 * (48 + 7));
        }
        let name = || "Counter".to_owned();
        let shipped = CtrlMsg::Package { name: name(), bytes: Ok(Rc::new(vec![0u8; 500])) };
        assert_eq!(shipped.wire_size(), HDR + 7 + 500 + 12);
        let refused = CtrlMsg::Package { name: name(), bytes: Err("not installed here".into()) };
        assert_eq!(refused.wire_size(), HDR + 7 + 18 + 12);
    }

    /// The one placement pair is charged what the migration ask/answer
    /// (16, 8) and the replication ask/answer (name + 24, name + 16) it
    /// replaced were, so no experiment's byte column moves.
    #[test]
    fn placement_wire_sizes_match_the_pairs_they_replaced() {
        const HDR: u64 = 24;
        let query = |replica| CtrlMsg::PlacementQuery { from: HostId(1), cpu_needed: 0.2, replica };
        let target = |replica| CtrlMsg::PlacementTarget { target: Some(HostId(2)), replica };
        assert_eq!(query(None).wire_size(), HDR + 16);
        assert_eq!(target(None).wire_size(), HDR + 8);
        let replica = || Some(("Counter".to_owned(), Version::new(1, 2)));
        assert_eq!(query(replica()).wire_size(), HDR + 7 + 24);
        assert_eq!(target(replica()).wire_size(), HDR + 7 + 16);
    }

    /// A spawn is charged what it was, and a spawn with state what the
    /// migration kind it replaced was: name + encoded state + 32, the
    /// instance name riding free. No experiment's byte column moves.
    #[test]
    fn a_spawn_with_state_is_charged_as_the_migration_it_replaced() {
        const HDR: u64 = 24;
        let spawn = |instance_name: Option<&str>, state| CtrlMsg::Spawn {
            rid: 1,
            origin: HostId(2),
            component: "Counter".into(),
            min_version: Version::new(1, 0),
            instance_name: instance_name.map(Into::into),
            state,
        };
        assert_eq!(spawn(None, None).wire_size(), HDR + 7 + 24);
        assert_eq!(spawn(Some("c0"), None).wire_size(), HDR + 7 + 2 + 24);
        let state = Value::Long(5);
        let encoded = lc_orb::encoded_len(std::slice::from_ref(&state));
        assert_eq!(spawn(Some("c0"), Some(state)).wire_size(), HDR + 7 + encoded + 32);
    }

    /// Every mail-lane slot holds a control message by value, so the
    /// widest variant sizes them all: a spawn carrying a migration's
    /// state is no wider than the migration kind it replaced.
    #[test]
    fn ctrl_msg_is_120_bytes() {
        assert_eq!(std::mem::size_of::<CtrlMsg>(), 120);
    }

    /// An answer of one offer is one 88-byte allocation, as the answer
    /// vector it replaced was: the shared set's counts (16 B) and one
    /// 72-byte offer, whose running instance is kept without its host
    /// (the offering node) and whose package size is a `u32`.
    #[test]
    fn offer_is_72_bytes() {
        assert_eq!(std::mem::size_of::<Offer>(), 72);
    }

    #[test]
    fn shard_wire_sizes_scale_with_content() {
        use crate::registry::ComponentQuery;
        let lookup = CtrlMsg::ShardLookup {
            qid: QueryId { origin: HostId(0), seq: 1 },
            query: ComponentQuery::by_name("Counter", Version::new(1, 0)),
            shard: 3,
        };
        assert!(lookup.wire_size() < 128);

        let empty = CtrlMsg::GossipDigest { from: HostId(0), shard: 0, gens: Rc::default() };
        let full = CtrlMsg::GossipDigest {
            from: HostId(0),
            shard: 0,
            gens: Rc::new((0..10).map(|i| (format!("C{i}").into(), HostId(i), i as u64)).collect()),
        };
        assert!(full.wire_size() > empty.wire_size() + 100);

        let delta = CtrlMsg::GossipDelta {
            shard: 0,
            entries: vec![DeltaEntry {
                component: "Counter".into(),
                publisher: HostId(2),
                gen: 4,
                at: lc_des::SimTime::from_millis(10),
                offers: [].into(),
            }],
        };
        assert!(delta.wire_size() > empty.wire_size());
        let publish = CtrlMsg::ShardPublish {
            from: HostId(2),
            component: "Counter".into(),
            gen: 4,
            at: lc_des::SimTime::from_millis(10),
            offers: [].into(),
        };
        assert!(publish.wire_size() < delta.wire_size() + 16);
    }
}
