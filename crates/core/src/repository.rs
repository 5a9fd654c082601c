//! The Component Repository: the per-node store of installed packages
//! (Fig. 1), populated through the Component Acceptor.
//!
//! §2.4.1: nodes offer "hooks for accepting new components at run-time
//! for local installation in the local Component Repository,
//! instantiation and running". Installation verifies the package (digest,
//! signature against the node's trust store, platform compatibility,
//! loadable behaviour) before the component becomes visible — the order
//! the paper's security requirement demands.

use crate::behavior::BehaviorRegistry;
use lc_orb::Name;
use lc_pkg::sign::Verification;
use lc_pkg::{ComponentDescriptor, Package, Platform, TrustStore, Version};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Why an installation was refused.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum InstallError {
    /// Container bytes did not parse/verify.
    BadPackage(String),
    /// No binary section for this node's platform.
    NoBinaryFor(Platform),
    /// Signature missing or untrusted.
    Untrusted(String),
    /// The binary names a behaviour the runtime cannot load.
    UnknownBehavior(String),
    /// Same name+version already installed with different content.
    Conflict(String),
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstallError::BadPackage(m) => write!(f, "bad package: {m}"),
            InstallError::NoBinaryFor(p) => write!(f, "no binary for platform {p}"),
            InstallError::Untrusted(m) => write!(f, "untrusted package: {m}"),
            InstallError::UnknownBehavior(b) => write!(f, "unknown behavior '{b}'"),
            InstallError::Conflict(m) => write!(f, "conflicting install: {m}"),
        }
    }
}
impl std::error::Error for InstallError {}

/// One installed component: what the node verified, kept as it arrived.
#[derive(Clone, Debug)]
pub struct Installed {
    /// The component's name, shared: the repository's key, and every
    /// offer, instance record and report that names the component holds
    /// this one string.
    pub name: Name,
    /// The descriptor, parsed once at install.
    pub descriptor: ComponentDescriptor,
    /// The behaviour id of the platform-matching binary.
    pub behavior_id: String,
    /// The container bytes exactly as received and verified: what this
    /// node serves to fetches and pushes (the network-as-repository
    /// behaviour of §2.4.3), shared, never re-encoded, and what a
    /// re-install is compared with before any parse.
    pub bytes: Rc<Vec<u8>>,
}

impl Installed {
    /// Size of the package on the wire (for fetch cost accounting).
    pub fn wire_size(&self) -> u64 {
        self.bytes.len() as u64
    }
}

/// An install the repository accepted, after a full parse and
/// verification of its bytes.
#[derive(Clone, Debug)]
pub struct Accepted<'a> {
    /// The installed component: the new one, or for an idempotent
    /// re-install (bytes that differ from the kept ones but carry an
    /// equal descriptor) the copy already there.
    pub installed: &'a Installed,
    /// The IDL sources a fresh install's package carried, handed over
    /// for the node to merge into its interface repository; the
    /// repository keeps none. Empty for a re-install.
    pub idl_sources: Vec<(String, String)>,
}

/// The per-node Component Repository.
#[derive(Clone, Default)]
pub struct ComponentRepository {
    /// name → version → installed component (lookups borrow the name).
    items: BTreeMap<Name, BTreeMap<Version, Installed>>,
    /// The installed-name snapshot every keep-alive report shares.
    /// Rebuilt by `install` of a new (name, version) and by `remove` —
    /// the only two ways `items` changes — from `items`' own names.
    names: Rc<[Name]>,
}

impl ComponentRepository {
    /// Empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install from container bytes after full verification: digests,
    /// then the vendor signature over the bytes as received, then the
    /// platform and the behaviour. The bytes are kept, shared, not
    /// copied.
    ///
    /// `require_signature` is the node's security policy: when set,
    /// unsigned or unknown-signer packages are refused.
    pub fn install(
        &mut self,
        bytes: &Rc<Vec<u8>>,
        platform: &Platform,
        trust: &TrustStore,
        behaviors: &BehaviorRegistry,
        require_signature: bool,
    ) -> Result<Accepted<'_>, InstallError> {
        let (pkg, verdict) =
            Package::receive(bytes, trust).map_err(|e| InstallError::BadPackage(e.to_string()))?;
        match verdict {
            Verification::Trusted => {}
            Verification::BadSignature => {
                return Err(InstallError::Untrusted("signature does not verify".into()));
            }
            Verification::UnknownSigner => {
                if require_signature {
                    return Err(InstallError::Untrusted(
                        "unsigned or unknown signer, policy requires signature".into(),
                    ));
                }
            }
        }
        let Package { descriptor, idl_sources, sections, .. } = pkg;
        let Some(section) = sections.into_iter().find(|s| s.platform == *platform) else {
            return Err(InstallError::NoBinaryFor(platform.clone()));
        };
        if !behaviors.contains(&section.behavior_id) {
            return Err(InstallError::UnknownBehavior(section.behavior_id));
        }
        let version = descriptor.version;
        let (name, idl_sources) = match self.get(&descriptor.name, version) {
            Some(existing) if existing.descriptor != descriptor => {
                return Err(InstallError::Conflict(format!(
                    "{} {version} already installed with a different descriptor",
                    descriptor.name
                )));
            }
            // Idempotent re-install: the first copy stays.
            Some(existing) => (existing.name.clone(), Vec::new()),
            None => {
                let name = Name::from(descriptor.name.as_str());
                let installed = Installed {
                    name: name.clone(),
                    behavior_id: section.behavior_id,
                    bytes: Rc::clone(bytes),
                    descriptor,
                };
                self.items.entry(name.clone()).or_default().insert(version, installed);
                self.rebuild_names();
                (name, idl_sources)
            }
        };
        Ok(Accepted { installed: &self.items[name.as_str()][&version], idl_sources })
    }

    /// The installed component whose kept bytes equal `bytes` (slice
    /// equality: lengths first, then every byte). A linear scan; it never
    /// matches on a prefix, a length or a hash alone.
    ///
    /// A node answers a re-install of bytes it holds from this entry,
    /// without parsing them again ([`crate::node::Node::install_bytes`]).
    /// That is sound there because the node's verdict on a package
    /// depends only on its bytes and on inputs fixed for the node's
    /// life: its platform, its world's trust store, behaviours and
    /// signature policy, and the IDL already merged (a failed merge
    /// removes the entry). [`install`](Self::install) cannot skip
    /// the same way: it takes those inputs as arguments, and a caller
    /// may pass other ones each call (a package refused as unsigned
    /// under one policy installs under another).
    pub(crate) fn holding(&self, bytes: &[u8]) -> Option<&Installed> {
        self.iter().find(|inst| inst.bytes.as_slice() == bytes)
    }

    /// Remove a component version. Returns whether it was present.
    pub fn remove(&mut self, name: &str, version: Version) -> bool {
        let Some(versions) = self.items.get_mut(name) else { return false };
        if versions.remove(&version).is_none() {
            return false;
        }
        if versions.is_empty() {
            self.items.remove(name);
        }
        self.rebuild_names();
        true
    }

    fn rebuild_names(&mut self) {
        self.names = self
            .items
            .iter()
            .flat_map(|(name, versions)| versions.keys().map(move |_| name.clone()))
            .collect();
    }

    /// Exact lookup.
    pub fn get(&self, name: &str, version: Version) -> Option<&Installed> {
        self.items.get(name)?.get(&version)
    }

    /// The shared name of an installed component.
    pub fn name(&self, name: &str) -> Option<&Name> {
        self.items.get_key_value(name).map(|(name, _)| name)
    }

    /// Best installed version satisfying `required` (§2.1:
    /// substitutability — highest compatible minor wins).
    pub fn best_match(&self, name: &str, required: Version) -> Option<&Installed> {
        self.items
            .get(name)?
            .iter()
            .filter(|(v, _)| v.satisfies(required))
            .max_by_key(|(v, _)| **v)
            .map(|(_, inst)| inst)
    }

    /// All installed components, in (name, version) order.
    pub fn iter(&self) -> impl Iterator<Item = &Installed> {
        self.items.values().flat_map(BTreeMap::values)
    }

    /// Installed component names in [`iter`](Self::iter) order (with
    /// duplicates for multiple versions): the shared snapshot, not a copy.
    pub fn names(&self) -> &Rc<[Name]> {
        &self.names
    }

    /// Number of installed (name, version) pairs.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Is the repository empty?
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_orb::{Invocation, OrbError, Servant};
    use lc_pkg::{QosSpec, SigningKey};

    struct Nop;
    impl Servant for Nop {
        fn interface_id(&self) -> &str {
            "IDL:Nop:1.0"
        }
        fn dispatch(&mut self, _inv: &mut Invocation<'_>) -> Result<(), OrbError> {
            Ok(())
        }
    }

    fn setup() -> (BehaviorRegistry, TrustStore, SigningKey) {
        let behaviors = BehaviorRegistry::new();
        behaviors.register("nop", || Box::new(Nop));
        let key = SigningKey::new("acme", b"key");
        let mut trust = TrustStore::new();
        trust.trust(&key);
        (behaviors, trust, key)
    }

    fn make_pkg(
        name: &str,
        version: Version,
        behavior: &str,
        key: Option<&SigningKey>,
    ) -> Rc<Vec<u8>> {
        let desc = ComponentDescriptor::new(name, version, "acme");
        let mut pkg = Package::new(desc)
            .with_binary(Platform::reference(), behavior, b"code")
            .with_binary(Platform::pda(), behavior, b"pda code");
        if let Some(k) = key {
            pkg.seal(k);
        }
        Rc::new(pkg.to_bytes())
    }

    #[test]
    fn install_happy_path() {
        let (behaviors, trust, key) = setup();
        let mut repo = ComponentRepository::new();
        let bytes = make_pkg("A", Version::new(1, 0), "nop", Some(&key));
        let accepted = repo
            .install(&bytes, &Platform::reference(), &trust, &behaviors, true)
            .unwrap();
        assert_eq!(accepted.installed.name, "A");
        let kept = &accepted.installed.bytes;
        assert!(Rc::ptr_eq(kept, &bytes), "the received bytes are kept, not copied");
        assert_eq!(repo.len(), 1);
        assert!(repo.get("A", Version::new(1, 0)).is_some());
        // idempotent: the first copy stays
        let again = Rc::new(bytes.to_vec());
        let accepted =
            repo.install(&again, &Platform::reference(), &trust, &behaviors, true).unwrap();
        assert!(Rc::ptr_eq(&accepted.installed.bytes, &bytes));
        assert_eq!(repo.len(), 1);
    }

    #[test]
    fn unsigned_rejected_under_policy() {
        let (behaviors, trust, _key) = setup();
        let mut repo = ComponentRepository::new();
        let bytes = make_pkg("A", Version::new(1, 0), "nop", None);
        assert!(matches!(
            repo.install(&bytes, &Platform::reference(), &trust, &behaviors, true),
            Err(InstallError::Untrusted(_))
        ));
        // relaxed policy accepts
        repo.install(&bytes, &Platform::reference(), &trust, &behaviors, false).unwrap();
    }

    #[test]
    fn wrong_platform_rejected() {
        let (behaviors, trust, key) = setup();
        let mut repo = ComponentRepository::new();
        let bytes = make_pkg("A", Version::new(1, 0), "nop", Some(&key));
        let sparc = Platform::new("sparc", "solaris", "lc-orb");
        assert!(matches!(
            repo.install(&bytes, &sparc, &trust, &behaviors, true),
            Err(InstallError::NoBinaryFor(_))
        ));
    }

    #[test]
    fn unknown_behavior_rejected() {
        let (behaviors, trust, key) = setup();
        let mut repo = ComponentRepository::new();
        let bytes = make_pkg("A", Version::new(1, 0), "exotic", Some(&key));
        assert!(matches!(
            repo.install(&bytes, &Platform::reference(), &trust, &behaviors, true),
            Err(InstallError::UnknownBehavior(_))
        ));
    }

    #[test]
    fn version_matching_prefers_highest_compatible() {
        let (behaviors, trust, key) = setup();
        let mut repo = ComponentRepository::new();
        for v in [Version::new(1, 0), Version::new(1, 3), Version::new(2, 0)] {
            let bytes = make_pkg("A", v, "nop", Some(&key));
            repo.install(&bytes, &Platform::reference(), &trust, &behaviors, true).unwrap();
        }
        assert_eq!(
            repo.best_match("A", Version::new(1, 1)).unwrap().descriptor.version,
            Version::new(1, 3)
        );
        assert_eq!(
            repo.best_match("A", Version::new(2, 0)).unwrap().descriptor.version,
            Version::new(2, 0)
        );
        assert!(repo.best_match("A", Version::new(3, 0)).is_none());
        assert!(repo.best_match("B", Version::new(1, 0)).is_none());
    }

    #[test]
    fn conflicting_descriptor_rejected() {
        let (behaviors, trust, key) = setup();
        let mut repo = ComponentRepository::new();
        let bytes = make_pkg("A", Version::new(1, 0), "nop", Some(&key));
        repo.install(&bytes, &Platform::reference(), &trust, &behaviors, true).unwrap();
        // Same name+version, different content (adds a port).
        let desc2 = ComponentDescriptor::new("A", Version::new(1, 0), "acme")
            .provides("p", "IDL:Nop:1.0");
        let mut pkg2 = Package::new(desc2).with_binary(Platform::reference(), "nop", b"x");
        pkg2.seal(&key);
        assert!(matches!(
            repo.install(&Rc::new(pkg2.to_bytes()), &Platform::reference(), &trust, &behaviors, true),
            Err(InstallError::Conflict(_))
        ));
    }

    #[test]
    fn name_snapshot_follows_install_and_remove() {
        let (behaviors, trust, key) = setup();
        let mut repo = ComponentRepository::new();
        let install = |repo: &mut ComponentRepository, name: &str, v: Version| {
            let bytes = make_pkg(name, v, "nop", Some(&key));
            repo.install(&bytes, &Platform::reference(), &trust, &behaviors, true).unwrap();
        };
        let strs = |names: &[Name]| names.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        assert!(repo.names().is_empty());
        install(&mut repo, "B", Version::new(1, 0));
        let one = repo.names().clone();
        assert_eq!(strs(&one), ["B"]);
        // An idempotent re-install leaves the very same snapshot in place.
        install(&mut repo, "B", Version::new(1, 0));
        assert!(Rc::ptr_eq(&one, repo.names()));
        // A new version and a new name both rebuild it, in (name, version)
        // order with one entry per installed version, sharing one string
        // per name.
        install(&mut repo, "B", Version::new(1, 2));
        install(&mut repo, "A", Version::new(2, 0));
        assert_eq!(strs(repo.names()), ["A", "B", "B"]);
        assert!(Name::ptr_eq(&repo.names()[1], &repo.names()[2]));
        assert_eq!(repo.len(), 3);
        assert_eq!(strs(&one), ["B"], "a snapshot already shipped never changes");
        // Removing a version that is not there changes nothing …
        let three = repo.names().clone();
        assert!(!repo.remove("B", Version::new(3, 0)));
        assert!(Rc::ptr_eq(&three, repo.names()));
        // … removing one that is rebuilds the list.
        assert!(repo.remove("B", Version::new(1, 0)));
        assert_eq!(strs(repo.names()), ["A", "B"]);
        assert!(repo.remove("A", Version::new(2, 0)));
        assert!(repo.best_match("A", Version::new(2, 0)).is_none());
        assert_eq!(strs(repo.names()), ["B"]);
    }

    /// A negative `cpu_min` would pass admission on a full host and free
    /// capacity the host does not have: a CPU share or a bandwidth that is
    /// negative or not finite is refused with the package.
    #[test]
    fn a_negative_or_unbounded_qos_is_refused_at_install() {
        let (behaviors, trust, key) = setup();
        let mut repo = ComponentRepository::new();
        let base = QosSpec { cpu_min: 0.1, cpu_max: 0.5, memory: 1 << 20, bandwidth_min: 0.0 };
        let cases = [
            ("cpu_min", QosSpec { cpu_min: -1.0, ..base }),
            ("cpu_min", QosSpec { cpu_min: f64::NAN, ..base }),
            ("cpu_max", QosSpec { cpu_max: f64::INFINITY, ..base }),
            ("bandwidth_min", QosSpec { bandwidth_min: -0.5, ..base }),
        ];
        for (field, qos) in cases {
            let mut desc = ComponentDescriptor::new("A", Version::new(1, 0), "acme");
            desc.qos = qos;
            let mut pkg = Package::new(desc).with_binary(Platform::reference(), "nop", b"code");
            pkg.seal(&key);
            let refused = repo
                .install(&Rc::new(pkg.to_bytes()), &Platform::reference(), &trust, &behaviors, true)
                .map(|_| ())
                .unwrap_err();
            assert!(
                matches!(&refused, InstallError::BadPackage(m) if m.contains(field)),
                "{qos:?}: {refused}"
            );
        }
        assert!(repo.is_empty());
    }

    #[test]
    fn remove_uninstalls() {
        let (behaviors, trust, key) = setup();
        let mut repo = ComponentRepository::new();
        let bytes = make_pkg("A", Version::new(1, 0), "nop", Some(&key));
        repo.install(&bytes, &Platform::reference(), &trust, &behaviors, true).unwrap();
        assert!(repo.remove("A", Version::new(1, 0)));
        assert!(!repo.remove("A", Version::new(1, 0)));
        assert!(repo.is_empty());
    }
}
