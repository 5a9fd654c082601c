//! The Component Registry: the reflective, queryable view of one node
//! (Fig. 1), and the query/offer vocabulary of the Distributed Registry.
//!
//! §2.4.2: the Component Registry provides "(a) the set of installed
//! components, (b) the set of component instances running in the node and
//! the properties of each, and (c) how those instances are connected via
//! ports (assemblies)". It also supports the CORBA-LC departure from CCM:
//! "the set of external properties of a component is not fixed and may
//! change at run-time" — instances can grow and shrink ports dynamically
//! ([`InstanceInfo::add_provides`] etc.), and the registry reflects that
//! immediately.

pub mod backend;
pub mod shard;

use crate::repository::ComponentRepository;
use lc_idl::Repository;
use lc_net::HostId;
use lc_orb::{Name, ObjectKey, ObjectRef};
use lc_pkg::{ComponentDescriptor, Licensing, Mobility, Version};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Identifier of a component instance within one node: the object id
/// of its servant in the node's adapter, so an instance and its servant
/// are found by one key.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct InstanceId(pub u64);

impl std::fmt::Display for InstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "inst#{}", self.0)
    }
}

/// A port as exposed by a *running instance* (may differ from the
/// descriptor: ports can be added/removed at run-time, §2.4.2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InstancePort {
    /// Port name.
    pub name: String,
    /// Interface or event repository id.
    pub type_id: String,
}

/// Reflected information about one running instance.
#[derive(Clone, Debug)]
pub struct InstanceInfo {
    /// Instance id (node-local).
    pub id: InstanceId,
    /// Optional application-assigned name ("named instance").
    pub name: Option<String>,
    /// Component name (the installed component's, shared).
    pub component: Name,
    /// Component version.
    pub version: Version,
    /// The instance's CORBA object reference.
    pub objref: ObjectRef,
    /// Currently exposed provided ports.
    pub provides: Vec<InstancePort>,
    /// Currently exposed used ports.
    pub uses: Vec<InstancePort>,
    /// Currently exposed event source ports.
    pub emits: Vec<InstancePort>,
    /// Currently exposed event sink ports.
    pub consumes: Vec<InstancePort>,
}

impl InstanceInfo {
    /// Add a provided port at run-time (reflection architecture).
    pub fn add_provides(&mut self, name: &str, type_id: &str) {
        self.provides.push(InstancePort { name: name.into(), type_id: type_id.into() });
    }

    /// Remove a provided port at run-time. Returns whether it existed.
    pub fn remove_provides(&mut self, name: &str) -> bool {
        let before = self.provides.len();
        self.provides.retain(|p| p.name != name);
        self.provides.len() != before
    }
}

/// A recorded port connection (the registry's assembly view).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Connection {
    /// Consumer instance.
    pub from: InstanceId,
    /// Consumer's used port.
    pub from_port: String,
    /// Provider object (possibly on another node).
    pub to: ObjectRef,
}

/// A distributed component query (§2.4.3 "Support for Distributed
/// Queries"). Totally ordered, so a query is its own key in the result
/// cache. Its names are shared [`Name`]s, which compare as their text:
/// every hop, retry and cache entry holds a clone of the one query,
/// and cloning it allocates nothing.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub struct ComponentQuery {
    /// Match a specific component name.
    pub name: Option<Name>,
    /// Match components providing (a subtype of) this interface.
    pub provides: Option<Name>,
    /// Minimum compatible version.
    pub min_version: Option<Version>,
    /// Maximum acceptable pay-per-use cost (milli-credits/hour);
    /// `None` = cost is no object.
    pub max_cost: Option<u32>,
    /// Only offer components whose binary can be fetched (mobile).
    pub require_mobile: bool,
}

impl ComponentQuery {
    /// Query by component name.
    pub fn by_name(name: &str, min_version: Version) -> Self {
        ComponentQuery {
            name: Some(name.into()),
            min_version: Some(min_version),
            ..Default::default()
        }
    }

    /// Query by provided interface.
    pub fn by_interface(interface: &str) -> Self {
        ComponentQuery { provides: Some(interface.into()), ..Default::default() }
    }

    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> u64 {
        16 + self.name.as_deref().map_or(0, |s| s.len() as u64)
            + self.provides.as_deref().map_or(0, |s| s.len() as u64)
    }

    /// Does a descriptor match this query?
    ///
    /// `idl` supplies the interface hierarchy so that a component
    /// providing `Derived` matches a query for `Base`.
    pub fn matches(&self, desc: &ComponentDescriptor, idl: &Repository) -> bool {
        self.admits(&desc.name, desc.version, cost_per_hour(desc.licensing), desc.mobility)
            && self.provides.as_ref().is_none_or(|iface| {
                desc.provides.iter().any(|p| idl.is_a(&p.interface, iface))
            })
    }

    /// Does this query accept a result with this name, version, cost per
    /// hour and mobility? Everything but the `provides` check of
    /// [`matches`](Self::matches), which needs the descriptor's ports.
    pub fn admits(&self, name: &str, version: Version, cost: u32, mobility: Mobility) -> bool {
        self.name.as_deref().is_none_or(|n| n == name)
            && self.min_version.is_none_or(|min| version.satisfies(min))
            && self.max_cost.is_none_or(|max| cost <= max)
            && (!self.require_mobile || mobility == Mobility::Mobile)
    }
}

/// What a licence costs per instance-hour (0 when free).
fn cost_per_hour(licensing: Licensing) -> u32 {
    match licensing {
        Licensing::Free => 0,
        Licensing::PayPerUse { cost_per_hour } => cost_per_hour,
    }
}

/// An offer answering a query: where a matching component is and on what
/// terms (§2.4.3: selection "attending to characteristics such as
/// location, cost, migration, etc.").
#[derive(Clone, PartialEq, Debug)]
pub struct Offer {
    /// Node holding the component.
    pub node: HostId,
    /// Component name: the installed component's own, shared, so
    /// cloning an offer allocates nothing.
    pub component: Name,
    /// Installed version.
    pub version: Version,
    /// Mobility of the binary.
    pub mobility: Mobility,
    /// Licensing cost (0 for free).
    pub cost_per_hour: u32,
    /// Wire size of the package (fetch cost estimate), saturated at
    /// `u32::MAX`.
    pub package_size: u32,
    /// CPU utilisation of the offering node when the offer was made.
    pub load: f64,
    /// The object id and repository id of a running instance already
    /// providing the service, if any. It runs on `node`, so its host is
    /// not stored again: [`running_instance`](Self::running_instance)
    /// rebuilds the reference.
    pub running: Option<(u64, Name)>,
}

impl Offer {
    /// What makes two offers one: the node, component and version they
    /// name. An offer set keeps the first of equal keys.
    pub fn key(&self) -> (HostId, &str, Version) {
        (self.node, &self.component, self.version)
    }

    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> u64 {
        48 + self.component.len() as u64
    }

    /// The reference of the running instance, if any (on `node`).
    pub fn running_instance(&self) -> Option<ObjectRef> {
        let (oid, type_id) = self.running.as_ref()?;
        Some(ObjectRef { key: ObjectKey { host: self.node, oid: *oid }, type_id: type_id.clone() })
    }
}

/// An answer: an immutable offer set, allocated once where it is made
/// and then shared by everything that holds it — the shard entry it was
/// published as, the reply, the pending query, the result cache, every
/// coalesced or cache-served caller and the caller's sink. The empty set
/// allocates nothing (an empty `Rc<[Offer]>` would still allocate its
/// counts), and cloning any set allocates nothing.
#[derive(Clone, Default, PartialEq, Debug)]
pub struct OfferSet(Option<Rc<[Offer]>>);

impl OfferSet {
    /// The `n` offers `offers` yields, collected with one allocation of
    /// exactly that many (none when `n` is 0): `(0..n).map(..)` is
    /// `TrustedLen`, which a collected filter is not (that reserves four
    /// offers for one and copies them into the `Rc`).
    pub(crate) fn exact(n: usize, mut offers: impl Iterator<Item = Offer>) -> OfferSet {
        if n == 0 {
            return OfferSet(None);
        }
        OfferSet(Some(
            (0..n)
                .map(|_| {
                    let Some(o) = offers.next() else { unreachable!("{n} offers were counted") };
                    o
                })
                .collect(),
        ))
    }

    /// Add `incoming`'s offers whose key neither this set nor an earlier
    /// incoming offer holds: the first of equal keys wins. Into an empty
    /// set without repeated keys `incoming` comes as it is, shared; an
    /// answer that adds nothing leaves the set as it is; anything else
    /// makes one new set, sized exactly.
    pub(crate) fn merge(&mut self, incoming: OfferSet) {
        let fresh =
            |j: usize, o: &Offer| !self.iter().chain(&incoming[..j]).any(|p| p.key() == o.key());
        let n = incoming.iter().enumerate().filter(|&(j, o)| fresh(j, o)).count();
        if n == 0 {
            return;
        }
        if self.is_empty() && n == incoming.len() {
            *self = incoming;
            return;
        }
        let added = incoming.iter().enumerate().filter(|&(j, o)| fresh(j, o));
        let all = self.iter().chain(added.map(|(_, o)| o)).cloned();
        *self = OfferSet::exact(self.len() + n, all);
    }
}

impl std::ops::Deref for OfferSet {
    type Target = [Offer];

    fn deref(&self) -> &[Offer] {
        self.0.as_deref().unwrap_or_default()
    }
}

impl<'a> IntoIterator for &'a OfferSet {
    type Item = &'a Offer;
    type IntoIter = std::slice::Iter<'a, Offer>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<const N: usize> From<[Offer; N]> for OfferSet {
    fn from(offers: [Offer; N]) -> Self {
        OfferSet::exact(N, offers.into_iter())
    }
}

/// The per-node Component Registry.
#[derive(Clone, Debug, Default)]
pub struct ComponentRegistry {
    instances: BTreeMap<InstanceId, InstanceInfo>,
    connections: Vec<Connection>,
    /// Bumped by every write to `instances` (see [`Self::generation`]).
    generation: u64,
}

impl ComponentRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a new running instance.
    pub fn add_instance(&mut self, info: InstanceInfo) {
        self.generation += 1;
        self.instances.insert(info.id, info);
    }

    /// Remove an instance (destroyed or migrated away) and its
    /// connections.
    pub fn remove_instance(&mut self, id: InstanceId) -> Option<InstanceInfo> {
        self.generation += 1;
        self.connections.retain(|c| c.from != id);
        self.instances.remove(&id)
    }

    /// Reflected instance info.
    pub fn instance(&self, id: InstanceId) -> Option<&InstanceInfo> {
        self.instances.get(&id)
    }

    /// Mutable instance info (run-time port modification). Counts as a
    /// write: the caller may change anything an offer reads.
    pub fn instance_mut(&mut self, id: InstanceId) -> Option<&mut InstanceInfo> {
        self.generation += 1;
        self.instances.get_mut(&id)
    }

    /// The instance-set generation: advanced by every call that can
    /// change an instance ([`add_instance`](Self::add_instance),
    /// [`remove_instance`](Self::remove_instance),
    /// [`instance_mut`](Self::instance_mut), [`clear`](Self::clear)).
    /// An equal generation means [`local_offers`](Self::local_offers)
    /// sees the same instances.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// All instances.
    pub fn instances(&self) -> impl Iterator<Item = &InstanceInfo> {
        self.instances.values()
    }

    /// Number of running instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Find a named instance.
    pub fn named(&self, name: &str) -> Option<&InstanceInfo> {
        self.instances.values().find(|i| i.name.as_deref() == Some(name))
    }

    /// Find instances of a component.
    pub fn instances_of<'a>(
        &'a self,
        component: &'a str,
    ) -> impl Iterator<Item = &'a InstanceInfo> + 'a {
        self.instances.values().filter(move |i| i.component == component)
    }

    /// Record a connection.
    pub fn add_connection(&mut self, c: Connection) {
        self.connections.push(c);
    }

    /// All connections (the "assembly" view for visual builders).
    pub fn connections(&self) -> &[Connection] {
        &self.connections
    }

    /// Answer a query against this node's repository + instances.
    ///
    /// Produces at most one offer per installed matching (name, version),
    /// annotated with a running instance when one exists. The matches are
    /// counted first, so the set is one allocation of exactly that many.
    pub fn local_offers(
        &self,
        node: HostId,
        repo: &ComponentRepository,
        query: &ComponentQuery,
        idl: &Repository,
        load: f64,
    ) -> OfferSet {
        let matching = || repo.iter().filter(|inst| query.matches(&inst.descriptor, idl));
        let offers = matching().map(|inst| {
            let running = self
                .instances_of(&inst.descriptor.name)
                .find(|i| i.version == inst.descriptor.version)
                .map(|i| (i.objref.key.oid, i.objref.type_id.clone()));
            Offer {
                node,
                component: inst.name.clone(),
                version: inst.descriptor.version,
                mobility: inst.descriptor.mobility,
                cost_per_hour: cost_per_hour(inst.descriptor.licensing),
                package_size: u32::try_from(inst.wire_size()).unwrap_or(u32::MAX),
                load,
                running,
            }
        });
        OfferSet::exact(matching().count(), offers)
    }

    /// Forget everything (node restart).
    pub fn clear(&mut self) {
        self.generation += 1;
        self.instances.clear();
        self.connections.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn objref(host: u32, oid: u64) -> ObjectRef {
        ObjectRef {
            key: ObjectKey { host: HostId(host), oid },
            type_id: "IDL:X:1.0".into(),
        }
    }

    fn info(reg: &mut ComponentRegistry, component: &str, name: Option<&str>) -> InstanceId {
        let id = InstanceId(reg.instance_count() as u64 + 1);
        reg.add_instance(InstanceInfo {
            id,
            name: name.map(str::to_owned),
            component: component.into(),
            version: Version::new(1, 0),
            objref: objref(0, id.0),
            provides: vec![],
            uses: vec![],
            emits: vec![],
            consumes: vec![],
        });
        id
    }

    #[test]
    fn instances_and_connections() {
        let mut reg = ComponentRegistry::new();
        let a = info(&mut reg, "App", Some("main"));
        let b = info(&mut reg, "Gui", None);
        assert_eq!(reg.instance_count(), 2);
        assert_eq!(reg.named("main").unwrap().id, a);
        assert!(reg.named("other").is_none());
        assert_eq!(reg.instances_of("Gui").count(), 1);

        reg.add_connection(Connection {
            from: a,
            from_port: "gui".into(),
            to: objref(0, b.0),
        });
        assert_eq!(reg.connections().len(), 1);
        reg.remove_instance(a);
        assert_eq!(reg.connections().len(), 0);
        assert_eq!(reg.instance_count(), 1);
    }

    #[test]
    fn runtime_port_modification_reflected() {
        let mut reg = ComponentRegistry::new();
        let a = info(&mut reg, "App", None);
        let inst = reg.instance_mut(a).unwrap();
        inst.add_provides("extra", "IDL:New:1.0");
        let extra = |reg: &ComponentRegistry| {
            reg.instance(a).unwrap().provides.iter().any(|p| p.name == "extra")
        };
        assert!(extra(&reg));
        assert!(reg.instance_mut(a).unwrap().remove_provides("extra"));
        assert!(!extra(&reg));
        assert!(!reg.instance_mut(a).unwrap().remove_provides("extra"));
    }

    /// Merging answers keeps what the collecting query's vector kept —
    /// every answer appended, then every offer after the first dropped
    /// when an earlier one has its key — in order, over random answers
    /// with keys repeated within and across them. The first answer
    /// without a repeated key is kept as it came, shared.
    #[test]
    fn merged_answers_keep_what_extend_and_dedup_kept() {
        lc_prop::check("merge = extend and dedup", |g| {
            let mut merged = OfferSet::default();
            let mut vector: Vec<Offer> = Vec::new();
            for _ in 0..g.gen_range(0..6usize) {
                let n = g.gen_range(0..4usize);
                let answer: Vec<Offer> = (0..n)
                    .map(|_| Offer {
                        node: HostId(g.gen_range(0..3u32)),
                        component: (*g.pick(&["A", "B"])).into(),
                        version: Version::new(1, g.gen_range(0..2u32)),
                        mobility: Mobility::Mobile,
                        cost_per_hour: 0,
                        package_size: 0,
                        // Tells apart offers of one key.
                        load: f64::from(g.gen_range(0..100u32)),
                        running: None,
                    })
                    .collect();
                let kept = vector.len();
                vector.extend(answer.iter().cloned());
                let mut i = kept.max(1);
                while let Some(o) = vector.get(i) {
                    if vector[..i].iter().any(|p| p.key() == o.key()) {
                        vector.remove(i);
                    } else {
                        i += 1;
                    }
                }
                let answer = OfferSet::exact(n, answer.into_iter());
                let first = merged.is_empty() && vector.len() == answer.len();
                let shared = answer.as_ptr();
                merged.merge(answer);
                assert_eq!(*merged, *vector);
                if first && !merged.is_empty() {
                    assert_eq!(merged.as_ptr(), shared, "a first answer is kept as it came");
                }
            }
        });
    }

    #[test]
    fn query_matching() {
        let idl = lc_idl::compile(
            r#"interface Display { void draw(); };
               interface SmartDisplay : Display { void batch(); };"#,
        )
        .unwrap();
        let desc = ComponentDescriptor::new("Gui", Version::new(1, 2), "acme")
            .provides("out", "IDL:SmartDisplay:1.0");

        assert!(ComponentQuery::by_name("Gui", Version::new(1, 0)).matches(&desc, &idl));
        assert!(!ComponentQuery::by_name("Gui", Version::new(1, 3)).matches(&desc, &idl));
        assert!(!ComponentQuery::by_name("Other", Version::new(1, 0)).matches(&desc, &idl));
        // subtype satisfies base-interface query
        assert!(ComponentQuery::by_interface("IDL:Display:1.0").matches(&desc, &idl));
        assert!(ComponentQuery::by_interface("IDL:SmartDisplay:1.0").matches(&desc, &idl));
        assert!(!ComponentQuery::by_interface("IDL:Nope:1.0").matches(&desc, &idl));

        let mut pay = desc.clone();
        pay.licensing = Licensing::PayPerUse { cost_per_hour: 100 };
        let mut q = ComponentQuery::by_name("Gui", Version::new(1, 0));
        q.max_cost = Some(50);
        assert!(!q.matches(&pay, &idl));
        q.max_cost = Some(150);
        assert!(q.matches(&pay, &idl));

        let mut fixed = desc.clone();
        fixed.mobility = Mobility::Fixed;
        let mut qm = ComponentQuery::by_name("Gui", Version::new(1, 0));
        qm.require_mobile = true;
        assert!(!qm.matches(&fixed, &idl));
        assert!(qm.matches(&desc, &idl));
    }
}
