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
use super::ctx::{NodeCtx, NodeState};
use super::metrics::ServiceKind;
use super::service::{item, ServiceReflect};

impl NodeState {
    /// Install a package from container bytes, which the repository
    /// keeps as they are. A fresh install merges the package's IDL into
    /// the node's interface repository so new port types become
    /// dispatchable; IDL that does not compile or conflicts refuses the
    /// install and leaves nothing installed. An idempotent re-install
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
        if accepted.fresh && !installed.idl_sources.is_empty() {
            match merged_idl(&self.idl, &installed.idl_sources, &name) {
                Ok(merged) => {
                    self.idl = Arc::new(merged);
                    self.adapter.set_repo(self.idl.clone());
                }
                Err(e) => {
                    self.repository.remove(&name, version);
                    return Err(e);
                }
            }
        }
        Ok(name)
    }
}

/// `base` with every IDL source of component `name` compiled and merged.
fn merged_idl(
    base: &lc_idl::Repository,
    sources: &[(String, String)],
    name: &str,
) -> Result<lc_idl::Repository, String> {
    let mut merged = base.clone();
    for (file, src) in sources {
        let unit =
            lc_idl::compile(src).map_err(|e| format!("IDL {file} in package {name}: {e}"))?;
        merged.merge(unit).map_err(|e| e.to_string())?;
    }
    Ok(merged)
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
                for cont in self.state.conts.fetches.remove(&name).unwrap_or_default() {
                    self.resume_fetched(cont);
                }
            }
            Err(e) => self.on_fetch_failed(name, &e),
        }
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
        for cont in self.state.conts.fetches.remove(&name).unwrap_or_default() {
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
pub(crate) fn reflect(state: &NodeState) -> ServiceReflect {
    ServiceReflect {
        kind: ServiceKind::Acceptor,
        items: vec![
            item("installed packages", state.repository.iter().count()),
            item("pending fetches", state.conts.fetches.len()),
        ],
    }
}
