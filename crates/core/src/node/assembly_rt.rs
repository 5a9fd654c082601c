//! Assembly deployment on the container runtime: run-time placement of
//! a whole application descriptor over the MRM placement view, remote
//! package pushes + spawns, and the final wiring pass once every
//! instance is up (§2.4.3 "deployment and distributed execution").

use crate::assembly::{AssemblyDescriptor, ConnectionKind};
use crate::deploy::{NodeView, PlacementStrategy};
use crate::proto::CtrlMsg;
use lc_des::Counter;
use lc_orb::{Name, ObjectKey, ObjectRef, Value};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use super::continuations::{PendingAssembly, SpawnCont};
use super::ctx::NodeCtx;
use super::AssemblySink;

impl NodeCtx<'_, '_> {
    pub(crate) fn start_assembly(
        &mut self,
        assembly: AssemblyDescriptor,
        strategy: PlacementStrategy,
        sink: AssemblySink,
    ) {
        if let Err(e) = assembly.validate() {
            for inst in &assembly.instances {
                sink.borrow_mut().insert(inst.name.clone(), Err(e.clone()));
            }
            return;
        }
        // Build the placement view from MRM soft state (plus self).
        let mut views = self.state.placement_view();
        if !views.iter().any(|v| v.host == self.state.host) {
            views.push(NodeView {
                host: self.state.host,
                report: self.state.resources.report(self.state.repository.names()),
            });
        }
        let qoses: Vec<lc_pkg::QosSpec> = assembly
            .instances
            .iter()
            .map(|i| {
                self.state
                    .repository
                    .best_match(&i.component, i.min_version)
                    .map(|inst| inst.descriptor.qos)
                    .unwrap_or_default()
            })
            .collect();
        let placement = crate::deploy::plan_assembly(&qoses, &views, strategy);
        self.sim.metrics().incr(Counter::AssemblyStarted);

        let pending = Rc::new(RefCell::new(PendingAssembly {
            assembly: assembly.clone(),
            refs: BTreeMap::new(),
            outstanding: assembly.instances.len(),
        }));

        for (inst, slot) in assembly.instances.iter().zip(placement) {
            let name = inst.name.clone();
            let Some(node_idx) = slot else {
                let refused = Err("no node admits this instance".into());
                self.assembly_member(name, &sink, pending.clone(), refused);
                continue;
            };
            let target = views[node_idx].host;
            if target == self.state.host {
                let (component, min_version) = (&inst.component, inst.min_version);
                let result = self.spawn_announced(component, min_version, Some(name.clone()), None);
                self.assembly_member(name, &sink, pending.clone(), result);
            } else {
                // Push the package first if the target lacks it (known
                // from its report), then spawn.
                let target_has =
                    views[node_idx].report.installed.iter().any(|c| **c == *inst.component);
                if !target_has {
                    if let Some(found) =
                        self.state.repository.best_match(&inst.component, inst.min_version)
                    {
                        let bytes = Rc::clone(&found.bytes);
                        self.sim.metrics().add(Counter::AssemblyPushBytes, bytes.len() as u64);
                        self.send_ctrl(target, CtrlMsg::Install { bytes });
                    }
                }
                let (component, min_version) = (inst.component.clone(), inst.min_version);
                let (sink, pending) = (sink.clone(), pending.clone());
                let cont = SpawnCont::Assembly { name: name.clone(), sink, pending };
                self.request_instance(target, component, min_version, Some(name), None, Some(cont));
            }
        }
        // A member answered in place wires the assembly when it is the
        // last; one without members is wired now.
        if assembly.instances.is_empty() {
            self.wire_assembly(pending);
        }
    }

    /// One member of an assembly has its answer — spawned here or on a
    /// peer, or refused: tell the sink, keep the member's reference, and
    /// wire the assembly once no member is outstanding.
    pub(crate) fn assembly_member(
        &mut self,
        name: String,
        sink: &AssemblySink,
        pending: Rc<RefCell<PendingAssembly>>,
        result: Result<ObjectRef, String>,
    ) {
        sink.borrow_mut().insert(name.clone(), result.clone());
        let mut p = pending.borrow_mut();
        if let Ok(objref) = result {
            p.refs.insert(name, objref);
        }
        p.outstanding -= 1;
        let ready = p.outstanding == 0;
        drop(p);
        if ready {
            self.wire_assembly(pending);
        }
    }

    /// All instances are up: apply the user-stated connection pattern.
    pub(crate) fn wire_assembly(&mut self, pending: Rc<RefCell<PendingAssembly>>) {
        // Collect the actions first so instance dispatch (which may
        // recurse into this node) never overlaps the pending borrow.
        enum Wire {
            ConnectLocal { consumer: ObjectKey, op: String, provider: ObjectRef },
            ConnectRemote { consumer: ObjectKey, op: Name, provider: ObjectRef },
            Subscribe { producer: ObjectRef, port: String, consumer: ObjectRef, delivery_op: String },
        }
        let actions: Vec<Wire> = {
            let p = pending.borrow();
            p.assembly
                .connections
                .iter()
                .filter_map(|conn| {
                    let from_ref = p.refs.get(&conn.from)?;
                    let to_ref = p.refs.get(&conn.to)?;
                    Some(match conn.kind {
                        ConnectionKind::Interface => {
                            let op = format!("_connect_{}", conn.from_port);
                            if from_ref.key.host == self.state.host {
                                Wire::ConnectLocal {
                                    consumer: from_ref.key,
                                    op,
                                    provider: to_ref.clone(),
                                }
                            } else {
                                Wire::ConnectRemote {
                                    consumer: from_ref.key,
                                    op: op.into(),
                                    provider: to_ref.clone(),
                                }
                            }
                        }
                        ConnectionKind::Event => Wire::Subscribe {
                            producer: to_ref.clone(),
                            port: conn.to_port.clone(),
                            consumer: from_ref.clone(),
                            delivery_op: format!("_push_{}", conn.from_port),
                        },
                    })
                })
                .collect()
        };
        for action in actions {
            match action {
                Wire::ConnectLocal { consumer, op, provider } => {
                    self.run_local(consumer, &op, &[Value::ObjRef(provider)]);
                }
                Wire::ConnectRemote { consumer, op, provider } => {
                    self.send_oneway(consumer, op, vec![Value::ObjRef(provider)]);
                }
                Wire::Subscribe { producer, port, consumer, delivery_op } => {
                    let msg = CtrlMsg::Subscribe {
                        producer: producer.key,
                        port,
                        consumer: consumer.key,
                        delivery_op,
                    };
                    self.send_ctrl(producer.key.host, msg);
                }
            }
        }
        self.sim.metrics().incr(Counter::AssemblyWired);
    }
}
