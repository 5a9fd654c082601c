//! Component Acceptor (Fig. 1): run-time installation of component
//! packages — signature/platform/behaviour checks, IDL merge — plus the
//! package *fetch* protocol (serving package bytes to peers and resuming
//! the continuations parked on an incoming fetch).

use crate::proto::CtrlMsg;
use lc_des::Counter;
use lc_net::HostId;
use lc_orb::Name;
use lc_pkg::Version;
use std::rc::Rc;
use std::sync::Arc;

use super::continuations::FetchCont;
use super::ctx::{Node, NodeCtx};
use super::metrics::ServiceKind;
use super::service::{item, ServiceReflect};

impl Node {
    /// Install a package from container bytes, which the repository
    /// keeps as they are. Bytes equal to ones this node already holds
    /// are not parsed again: they were verified on arrival against
    /// inputs fixed for the node's life (see `ComponentRepository::holding`),
    /// so one comparison finds the held entry, whose name is the answer.
    /// Other bytes are parsed and verified in full. A fresh install
    /// merges the package's IDL into the node's interface repository so
    /// new port types become dispatchable; IDL that does not compile or
    /// conflicts refuses the install and leaves nothing installed, and
    /// IDL that adds nothing leaves the repository shared as it was. A
    /// re-install of other bytes with an equal descriptor keeps the
    /// first copy and finds that merge done. Returns the installed
    /// component's (shared) name.
    pub fn install_bytes(&mut self, bytes: &Rc<Vec<u8>>) -> Result<Name, String> {
        if let Some(held) = self.repository.holding(bytes) {
            return Ok(held.name.clone());
        }
        let accepted = self
            .repository
            .install(
                bytes,
                &self.resources.static_info().platform,
                &self.world.catalog.trust,
                &self.world.catalog.behaviors,
                self.world.config.require_signature,
            )
            .map_err(|e| e.to_string())?;
        let installed = accepted.installed;
        let (name, version) = (installed.name.clone(), installed.descriptor.version);
        let merged = match &accepted.idl_sources[..] {
            [] => Ok(None),
            sources => merged_idl(&self.idl, sources, &name),
        };
        match merged {
            Ok(None) => {}
            Ok(Some(merged)) => self.idl = Arc::new(merged),
            Err(e) => {
                self.repository.remove(&name, version);
                return Err(e);
            }
        }
        // A node that holds a component is where its instances run: its
        // container runtime is made with the first install, so a first
        // spawn costs what every later one does.
        self.container();
        Ok(name)
    }
}

/// `base` with every IDL source of component `name` compiled and merged,
/// or `None`, and no copy of `base` made, when the sources define
/// nothing `base` lacks.
fn merged_idl(
    base: &lc_idl::Repository,
    sources: &[(String, String)],
    name: &str,
) -> Result<Option<lc_idl::Repository>, String> {
    let mut incoming = lc_idl::Repository::default();
    for (file, src) in sources {
        let unit =
            lc_idl::compile(src).map_err(|e| format!("IDL {file} in package {name}: {e}"))?;
        incoming.merge(unit).map_err(|e| e.to_string())?;
    }
    if !incoming.adds_to(base).map_err(|e| e.to_string())? {
        return Ok(None);
    }
    let mut merged = base.clone();
    merged.merge(incoming).map_err(|e| e.to_string())?;
    Ok(Some(merged))
}

impl NodeCtx<'_, '_> {
    /// Install bytes arriving over the wire or from the local driver,
    /// recording the acceptor verdict.
    pub(crate) fn accept_install(&mut self, bytes: &Rc<Vec<u8>>) {
        let r = self.state.install_bytes(bytes);
        self.sim
            .metrics()
            .incr(if r.is_ok() { Counter::AcceptorInstalled } else { Counter::AcceptorRejected });
        if let Ok(name) = r {
            // Register event: peers may hold cached query results that
            // are now incomplete for this component.
            self.note_registry_change(&name);
        }
    }
}

impl NodeCtx<'_, '_> {
    /// A peer asks for a package's container bytes: ship them if the
    /// component is installed here and mobile, say why not otherwise.
    pub(crate) fn serve_fetch(&mut self, name: String, version: Version, reply_to: HostId) {
        let bytes = match self.state.repository.best_match(&name, version) {
            Some(inst) if inst.descriptor.mobility == lc_pkg::Mobility::Mobile => {
                let bytes = Rc::clone(&inst.bytes);
                self.sim.metrics().incr(Counter::FetchServed);
                self.sim.metrics().add(Counter::FetchBytes, bytes.len() as u64);
                Ok(bytes)
            }
            Some(_) => Err("component is not mobile".into()),
            None => Err("not installed here".into()),
        };
        self.send_ctrl(reply_to, CtrlMsg::Package { name, bytes });
    }

    /// Fetched bytes arrived: install them and resume everything parked
    /// on the fetch.
    pub(crate) fn on_package_bytes(&mut self, name: String, bytes: &Rc<Vec<u8>>) {
        let install = self.state.install_bytes(bytes);
        self.sim.metrics().incr(Counter::FetchReceived);
        match install {
            Ok(_) => {
                self.note_registry_change(&name);
                for cont in self.parked_on_fetch(&name) {
                    self.resume_fetched(cont);
                }
            }
            Err(e) => self.on_fetch_failed(name, &e),
        }
    }

    /// Everything parked on the fetch of `name`, taken out of the table.
    fn parked_on_fetch(&mut self, name: &str) -> Vec<FetchCont> {
        let container = self.state.container.as_mut();
        container.and_then(|c| c.fetches.remove(name)).unwrap_or_default()
    }

    /// The package a continuation waited for is installed: carry on.
    fn resume_fetched(&mut self, cont: FetchCont) {
        match cont {
            FetchCont::SpawnAndConnect { component, min_version, instance, port, sink } => {
                let provider = self.state.spawn_local(&component, min_version, None);
                self.connect_provider(instance, &port, provider, sink);
            }
            FetchCont::FinishMigration { rid, origin, component, version, state, instance_name } => {
                self.finish_migration_in(rid, origin, &component, version, state, instance_name);
            }
        }
    }

    /// The fetch of `name` failed (refused by the peer, or the bytes did
    /// not install): fail everything parked on it with `reason`.
    pub(crate) fn on_fetch_failed(&mut self, name: String, reason: &str) {
        for cont in self.parked_on_fetch(&name) {
            match cont {
                FetchCont::SpawnAndConnect { sink, .. } => {
                    if let Some(s) = sink {
                        *s.borrow_mut() = Some(Err(reason.to_owned()));
                    }
                }
                FetchCont::FinishMigration { rid, origin, .. } => {
                    let result = Err(reason.to_owned());
                    self.send_ctrl(origin, CtrlMsg::SpawnDone { rid, result });
                }
            }
        }
    }
}

/// Reflect the Component Acceptor service's current state.
pub(crate) fn reflect(state: &Node) -> ServiceReflect {
    ServiceReflect {
        kind: ServiceKind::Acceptor,
        items: vec![
            item("installed packages", state.repository.iter().count()),
            item("pending fetches", state.container.as_ref().map_or(0, |c| c.fetches.len())),
        ],
    }
}

#[cfg(test)]
mod tests {
    use crate::demo;
    use crate::node::{CacheConfig, Node, NodeCmd, NodeConfig, RegistryConfig, WorldRecord};
    use crate::proto::CtrlMsg;
    use crate::testkit::{fast_config, World};
    use crate::{ComponentQuery, InstallError, ShardConfig};
    use lc_des::SimTime;
    use lc_net::{HostId, Net, NetMsg, Topology};
    use lc_orb::{DispatchOpts, Invocation, Name, OrbError, Servant, Value};
    use lc_pkg::{ComponentDescriptor, Package, Platform, QosSpec, Version};
    use lc_prop::Gen;
    use std::collections::BTreeMap;
    use std::rc::Rc;
    use std::sync::Arc;

    const ECHO: &str = "IDL:ext/Echo:1.0";

    /// A servant of an interface the demo catalog's IDL does not define.
    struct EchoImpl;

    impl Servant for EchoImpl {
        fn interface_id(&self) -> &str {
            ECHO
        }
        fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
            let x = inv.args.first().and_then(Value::as_long).unwrap_or_default();
            inv.set_ret(Value::Long(2 * x));
            Ok(())
        }
    }

    /// A node of a one-host world over the demo catalog, which can also
    /// load the `Echo` behaviour.
    fn node() -> Node {
        node_with(NodeConfig::default())
    }

    fn node_with(config: NodeConfig) -> Node {
        let catalog = demo::catalog();
        catalog.behaviors.register("ext_echo", || Box::new(EchoImpl));
        let net = Net::builder(Topology::lan(1)).build();
        Node::new(WorldRecord::new(net, config, catalog), HostId(0))
    }

    fn echo_package() -> Rc<Vec<u8>> {
        let desc = ComponentDescriptor::new("Echo", Version::new(1, 0), "demo-vendor")
            .provides("echo", ECHO);
        let mut pkg = Package::new(desc)
            .with_idl("echo.idl", "module ext { interface Echo { long twice(in long x); }; };")
            .with_binary(Platform::reference(), "ext_echo", &[0xEC; 64]);
        pkg.seal(&demo::demo_key());
        Rc::new(pkg.to_bytes())
    }

    /// `Counter`'s package carries the catalog's own IDL: installing it
    /// leaves the node reading the catalog's repository, not a copy.
    #[test]
    fn idl_that_adds_nothing_keeps_the_catalogs_repository() {
        let mut node = node();
        node.install_bytes(&demo::counter_package()).expect("Counter installs");
        assert!(Arc::ptr_eq(&node.idl, &node.world.catalog.idl), "the repository stays shared");
    }

    /// A package whose IDL defines a new interface gets a merged
    /// repository, and its servants dispatch through it, also on a node
    /// whose container runtime already ran before the install.
    #[test]
    fn idl_that_adds_an_interface_is_merged_and_dispatched() {
        let mut node = node();
        node.install_bytes(&demo::counter_package()).expect("Counter installs");
        node.spawn_local("Counter", Version::new(1, 0), None).expect("Counter spawns");
        node.install_bytes(&echo_package()).expect("Echo installs");
        assert!(!Arc::ptr_eq(&node.idl, &node.world.catalog.idl), "Echo's IDL was merged");
        assert!(node.idl.interface(ECHO).is_some());
        let echo = node.spawn_local("Echo", Version::new(1, 0), None).expect("Echo spawns");
        let res = node.dispatch(
            SimTime::ZERO,
            echo.key,
            "twice",
            &[Value::Long(21)],
            DispatchOpts::typed(),
        );
        assert_eq!(res.outcome.map(|o| o.ret), Ok(Value::Long(42)));
    }

    /// An extension package of the benchmark's mixed-registry campus: a
    /// `Counter`-typed component with no IDL, a CPU share of at most
    /// `cpu_max` and one 4 KiB binary whose bytes are all `fill`.
    fn ext_package(cpu_max: f64, fill: u8) -> Rc<Vec<u8>> {
        let mut desc = ComponentDescriptor::new("Ext000", Version::new(1, 0), "demo-vendor")
            .provides("counter", "IDL:demo/Counter:1.0");
        desc.qos = QosSpec { cpu_min: 1e-7, cpu_max, memory: 1 << 10, bandwidth_min: 0.0 };
        let mut pkg =
            Package::new(desc).with_binary(Platform::reference(), "demo_counter", &[fill; 4096]);
        pkg.seal(&demo::demo_key());
        Rc::new(pkg.to_bytes())
    }

    /// `bytes` as a package with one byte of its first binary changed,
    /// sealed again: other bytes, the same descriptor.
    fn repayloaded(bytes: &[u8]) -> Rc<Vec<u8>> {
        let mut pkg = Package::from_bytes(bytes).expect("the package parses");
        pkg.sections[0].payload[0] ^= 0x5A;
        pkg.seal(&demo::demo_key());
        Rc::new(pkg.to_bytes())
    }

    /// What the full path says of `bytes` on `node`: the repository's
    /// own install, on a clone of the node's repository, with the node's
    /// platform, trust store, behaviours and signature policy.
    fn full_path(node: &Node, bytes: &Rc<Vec<u8>>) -> Result<Name, String> {
        let mut repo = node.repository.clone();
        let catalog = &node.world.catalog;
        repo.install(
            bytes,
            &node.resources.static_info().platform,
            &catalog.trust,
            &catalog.behaviors,
            node.world.config.require_signature,
        )
        .map(|accepted| accepted.installed.name.clone())
        .map_err(|e| e.to_string())
    }

    /// A held re-install is answered without a parse; every other byte
    /// string still is parsed, so the node's verdict on it is the full
    /// path's. Under both signature policies, 1 024 seeded mutations of
    /// the bytes a node holds (`Counter` with IDL, an extension package
    /// without) — a byte flipped, a tail cut, one byte appended — get
    /// the verdict `ComponentRepository::install` gives them, and a copy
    /// of the held bytes in a new allocation is found held.
    #[test]
    fn a_held_reinstall_skips_only_the_parse() {
        for require_signature in [false, true] {
            let mut node = node_with(NodeConfig { require_signature, ..NodeConfig::default() });
            let held = [demo::counter_package(), ext_package(0.2, 0xE1)];
            for bytes in &held {
                node.install_bytes(bytes).expect("the demo packages install");
                let copy = Rc::new(bytes.to_vec());
                let found = node.repository.holding(&copy).map(|inst| &inst.bytes);
                assert!(found.is_some_and(|kept| Rc::ptr_eq(kept, bytes)), "a copy is held");
                assert_eq!(node.install_bytes(&copy), full_path(&node, &copy));
            }
            let mut g = Gen::from_seed(0x4e1d_0053);
            let mut refused = 0;
            for _ in 0..1024 {
                let mut bytes = g.pick(&held).to_vec();
                match g.gen_range(0..3u32) {
                    0 => {
                        let at = g.gen_range(0..bytes.len());
                        bytes[at] ^= g.gen_range(1..256u32) as u8;
                    }
                    1 => bytes.truncate(g.gen_range(0..bytes.len())),
                    _ => bytes.push(g.any_u8()),
                }
                let bytes = Rc::new(bytes);
                let expected = full_path(&node, &bytes);
                refused += usize::from(expected.is_err());
                assert_eq!(node.install_bytes(&bytes), expected, "{} bytes", bytes.len());
            }
            assert!(refused > 0, "the mutations reach the full path's refusals");
            assert_eq!(node.repository.len(), 2, "no mutation installed a component");
        }
    }

    /// The bytes a node holds decide nothing about other bytes under the
    /// same name and version: a different descriptor is a conflict, and
    /// the same descriptor over another payload keeps the first copy and
    /// the interface repository its first merge made.
    #[test]
    fn other_bytes_under_a_held_name_are_parsed_as_before() {
        let mut node = node();
        let (ext, echo) = (ext_package(0.2, 0xE1), echo_package());
        node.install_bytes(&ext).expect("Ext000 installs");
        node.install_bytes(&echo).expect("Echo installs");
        let merged = Arc::clone(&node.idl);

        let conflict = ext_package(0.3, 0xE1);
        let refused = node.install_bytes(&conflict).expect_err("a different descriptor");
        let expected = InstallError::Conflict(
            "Ext000 1.0 already installed with a different descriptor".into(),
        );
        assert_eq!(refused, expected.to_string());
        assert_eq!(Err(refused), full_path(&node, &conflict));

        for (first, other) in [(&ext, ext_package(0.2, 0xE2)), (&echo, repayloaded(&echo))] {
            assert!(node.repository.holding(&other).is_none(), "other bytes are not held");
            let name = node.install_bytes(&other).expect("an equal descriptor re-installs");
            let kept = node.repository.get(&name, Version::new(1, 0)).expect("still installed");
            assert!(Rc::ptr_eq(&kept.bytes, first), "{name}: the first copy stays");
        }
        assert_eq!(node.repository.len(), 2);
        assert!(Arc::ptr_eq(&node.idl, &merged), "the merged repository stays as it was");
    }

    /// How package bytes reach host 0's acceptor.
    type Deliver = fn(&mut World, Rc<Vec<u8>>);

    /// Every counter of a world, moved by `deliver`ing `bytes` to host
    /// 0, which holds `Counter`, over one virtual second.
    fn counter_deltas(
        registry: RegistryConfig,
        deliver: Deliver,
        bytes: Rc<Vec<u8>>,
    ) -> BTreeMap<String, u64> {
        let config = NodeConfig { cache: Some(CacheConfig::default()), registry, ..fast_config() };
        let mut world = World::on(Topology::campus(2, 4), 5, config, demo::catalog(), |h| {
            if h == HostId(0) {
                vec![demo::counter_package()]
            } else {
                Vec::new()
            }
        });
        world.run_for(SimTime::from_secs(2));
        // A result for the re-install's invalidation to clear.
        let query = ComponentQuery::by_name("Counter", Version::new(1, 0));
        world.query(HostId(5), query, true);
        world.run_for(SimTime::from_secs(1));
        let counters = |world: &World| -> BTreeMap<String, u64> {
            let metrics = world.sim.metrics_ref();
            metrics.counters().map(|(name, n)| (name.to_owned(), n)).collect()
        };
        let before = counters(&world);
        deliver(&mut world, bytes);
        world.run_for(SimTime::from_secs(1));
        let mut moved = counters(&world);
        for (name, n) in &mut moved {
            *n -= before.get(name).copied().unwrap_or_default();
        }
        moved
    }

    /// A re-install of held bytes, through the local driver and through
    /// a fetch reply, moves every counter of the world — the verdict, the
    /// invalidations and publishes it triggers, every message — exactly
    /// as a re-install of other bytes with the same descriptor, which is
    /// parsed in full: the held path skips the parse and nothing else.
    #[test]
    fn a_held_reinstall_moves_every_counter_as_a_parsed_one() {
        let by_command: Deliver = |world, bytes| world.cmd(HostId(0), NodeCmd::Install(bytes));
        let by_fetch_reply: Deliver = |world, bytes| {
            let payload = CtrlMsg::Package { name: "Counter".into(), bytes: Ok(bytes) };
            let frame = NetMsg { from: HostId(1), to: HostId(0), size: 0, trace: None, payload };
            world.sim.send_in(SimTime::ZERO, world.net.actor_of(HostId(0)), frame);
        };
        let other = repayloaded(&demo::counter_package());
        let sharded = RegistryConfig::Sharded(ShardConfig::default());
        for registry in [RegistryConfig::SingleLeader, sharded] {
            for (verdict, deliver) in
                [("acceptor.installed", by_command), ("fetch.received", by_fetch_reply)]
            {
                let held = counter_deltas(registry.clone(), deliver, demo::counter_package());
                let parsed = counter_deltas(registry.clone(), deliver, other.clone());
                assert_eq!(held, parsed, "{registry:?}, counted in {verdict}");
                let n = |name: &str| held.get(name).copied().unwrap_or_default();
                assert_eq!(n(verdict), 1);
                assert_eq!(n("cache.invalidate_bcasts") + n("cache.invalidate_targeted"), 1);
                if let RegistryConfig::SingleLeader = registry {
                    assert_eq!(n("cache.invalidated_entries"), 1, "host 5's cached result");
                }
                assert!(n("net.msgs") > 0);
            }
        }
    }
}
