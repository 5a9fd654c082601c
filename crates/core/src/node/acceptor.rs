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
    /// keeps as they are. A fresh install merges the package's IDL into
    /// the node's interface repository so new port types become
    /// dispatchable; IDL that does not compile or conflicts refuses the
    /// install and leaves nothing installed, and IDL that adds nothing
    /// leaves the repository shared as it was. An idempotent re-install
    /// finds that merge done. Returns the installed component's (shared)
    /// name.
    pub fn install_bytes(&mut self, bytes: &Rc<Vec<u8>>) -> Result<Name, String> {
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
                    self.send_ctrl(origin, CtrlMsg::MigrateDone { rid, result });
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
    use crate::node::{Node, NodeConfig, WorldRecord};
    use lc_des::SimTime;
    use lc_net::{HostId, Net, Topology};
    use lc_orb::{DispatchOpts, Invocation, OrbError, Servant, Value};
    use lc_pkg::{ComponentDescriptor, Package, Platform, Version};
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
        let catalog = demo::catalog();
        catalog.behaviors.register("ext_echo", || Box::new(EchoImpl));
        let net = Net::builder(Topology::lan(1)).build();
        Node::new(WorldRecord::new(net, NodeConfig::default(), catalog), HostId(0))
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
        let res = node.container().dispatch(
            SimTime::ZERO,
            echo.key,
            "twice",
            &[Value::Long(21)],
            DispatchOpts::typed(),
        );
        assert_eq!(res.outcome.map(|o| o.ret), Ok(Value::Long(42)));
    }
}
