//! Component Acceptor (Fig. 1): run-time installation of component
//! packages — signature/platform/behaviour checks, IDL merge — plus the
//! package *fetch* protocol (serving package bytes to peers and resuming
//! the continuations parked on an incoming fetch).

use crate::proto::CtrlMsg;
use lc_net::HostId;
use std::rc::Rc;
use std::sync::Arc;

use super::continuations::FetchCont;
use super::ctx::{NodeCtx, NodeState};
use super::metrics::ServiceKind;
use super::service::{item, ServiceReflect};
use super::NodeCmd;

impl NodeState {
    /// Install a package from bytes; merges the package IDL into the
    /// node's repository so new port types become dispatchable. Returns
    /// the installed component's name.
    pub fn install_bytes(&mut self, bytes: &[u8]) -> Result<String, String> {
        let platform = self.platform();
        let desc = self
            .repository
            .install(bytes, &platform, &self.trust, &self.behaviors, self.cfg.require_signature)
            .map_err(|e| e.to_string())?;
        // Merge the package's IDL (if any) into the node's view.
        let Some(installed) = self.repository.get(&desc.name, desc.version) else {
            return Err(format!("install of '{}' did not register", desc.name));
        };
        if !installed.package.idl_sources.is_empty() {
            let mut merged = (*self.idl).clone();
            for (file, src) in &installed.package.idl_sources {
                let unit = lc_idl::compile(src)
                    .map_err(|e| format!("IDL {file} in package {}: {e}", desc.name))?;
                merged.merge(unit).map_err(|e| e.to_string())?;
            }
            self.idl = Arc::new(merged);
            self.adapter.set_repo(self.idl.clone());
        }
        Ok(desc.name)
    }
}

impl NodeCtx<'_, '_> {
    /// Install bytes arriving over the wire or from the local driver,
    /// recording the acceptor verdict.
    pub(crate) fn accept_install(&mut self, bytes: &[u8]) {
        let r = self.state.install_bytes(bytes);
        self.sim
            .metrics()
            .incr(if r.is_ok() { "acceptor.installed" } else { "acceptor.rejected" });
        if let Ok(name) = r {
            // Register event: peers may hold cached query results that
            // are now incomplete for this component.
            self.note_registry_change(&name);
        }
    }
}

/// Acceptor-owned control traffic: `Install`, `Fetch`, `PackageBytes`,
/// `FetchFailed`.
pub(crate) fn handle_ctrl(ctx: &mut NodeCtx<'_, '_>, _from: HostId, msg: CtrlMsg) {
    match msg {
        CtrlMsg::Fetch { name, version, reply_to } => {
            match ctx.state.repository.best_match(&name, version) {
                Some(inst) if inst.descriptor.mobility == lc_pkg::Mobility::Mobile => {
                    let bytes = Rc::new(inst.package.to_bytes());
                    ctx.sim.metrics().incr("fetch.served");
                    ctx.sim.metrics().add("fetch.bytes", bytes.len() as u64);
                    let version = inst.descriptor.version;
                    ctx.send_ctrl(reply_to, CtrlMsg::PackageBytes { name, version, bytes });
                }
                Some(_) => {
                    ctx.send_ctrl(
                        reply_to,
                        CtrlMsg::FetchFailed {
                            name,
                            version,
                            reason: "component is not mobile".into(),
                        },
                    );
                }
                None => {
                    ctx.send_ctrl(
                        reply_to,
                        CtrlMsg::FetchFailed {
                            name,
                            version,
                            reason: "not installed here".into(),
                        },
                    );
                }
            }
        }
        CtrlMsg::PackageBytes { name, bytes, .. } => {
            let install = ctx.state.install_bytes(&bytes);
            ctx.sim.metrics().incr("fetch.received");
            if install.is_ok() {
                ctx.note_registry_change(&name);
            }
            let conts = ctx.state.conts.fetches.remove(&name).unwrap_or_default();
            for cont in conts {
                match (&install, cont) {
                    (
                        Ok(_),
                        FetchCont::SpawnAndConnect { component, min_version, instance, port, sink },
                    ) => match ctx.state.spawn_local(&component, min_version, None) {
                        Ok(provider) => {
                            ctx.connect_port(instance, &port, provider.clone());
                            if let Some(s) = sink {
                                *s.borrow_mut() = Some(Ok(provider));
                            }
                        }
                        Err(e) => {
                            if let Some(s) = sink {
                                *s.borrow_mut() = Some(Err(e));
                            }
                        }
                    },
                    (
                        Ok(_),
                        FetchCont::FinishMigration {
                            rid,
                            origin,
                            component,
                            version,
                            state,
                            instance_name,
                        },
                    ) => {
                        ctx.finish_migration_in(rid, origin, &component, version, state, instance_name);
                    }
                    (Err(e), FetchCont::SpawnAndConnect { sink, .. }) => {
                        if let Some(s) = sink {
                            *s.borrow_mut() = Some(Err(e.clone()));
                        }
                    }
                    (Err(e), FetchCont::FinishMigration { rid, origin, .. }) => {
                        let e = e.clone();
                        ctx.send_ctrl(origin, CtrlMsg::MigrateDone { rid, result: Err(e) });
                    }
                }
            }
        }
        CtrlMsg::FetchFailed { name, reason, .. } => {
            let conts = ctx.state.conts.fetches.remove(&name).unwrap_or_default();
            for cont in conts {
                match cont {
                    FetchCont::SpawnAndConnect { sink, .. } => {
                        if let Some(s) = sink {
                            *s.borrow_mut() = Some(Err(reason.clone()));
                        }
                    }
                    FetchCont::FinishMigration { rid, origin, .. } => {
                        ctx.send_ctrl(
                            origin,
                            CtrlMsg::MigrateDone { rid, result: Err(reason.clone()) },
                        );
                    }
                }
            }
        }
        CtrlMsg::Install { bytes } => ctx.accept_install(&bytes),
        _ => {}
    }
}

/// Acceptor-owned driver commands: `Install`.
pub(crate) fn handle_cmd(ctx: &mut NodeCtx<'_, '_>, cmd: NodeCmd) {
    if let NodeCmd::Install(bytes) = cmd {
        ctx.accept_install(&bytes);
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
