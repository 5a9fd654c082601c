//! Assembly deployment on the container runtime: run-time placement of
//! a whole application descriptor over the MRM placement view, remote
//! package pushes + spawns, and the final wiring pass once every
//! instance is up (§2.4.3 "deployment and distributed execution").

use crate::assembly::{AssemblyDescriptor, ConnectionKind};
use crate::deploy::{NodeView, PlacementStrategy};
use crate::proto::CtrlMsg;
use lc_des::Counter;
use lc_orb::{DispatchOpts, Name, ObjectKey, ObjectRef, Value};
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
            let Some(node_idx) = slot else {
                sink.borrow_mut()
                    .insert(inst.name.clone(), Err("no node admits this instance".into()));
                pending.borrow_mut().outstanding -= 1;
                continue;
            };
            let target = views[node_idx].host;
            if target == self.state.host {
                let result =
                    self.state.spawn_local(&inst.component, inst.min_version, Some(inst.name.clone()));
                sink.borrow_mut().insert(inst.name.clone(), result.clone());
                let mut p = pending.borrow_mut();
                if let Ok(r) = result {
                    p.refs.insert(inst.name.clone(), r);
                }
                p.outstanding -= 1;
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
                let rid = self.state.conts.next_seq();
                self.state.conts.spawns.insert(
                    rid,
                    SpawnCont::Assembly {
                        name: inst.name.clone(),
                        sink: sink.clone(),
                        pending: pending.clone(),
                    },
                );
                let origin = self.state.host;
                self.send_ctrl(
                    target,
                    CtrlMsg::Spawn {
                        rid,
                        origin,
                        component: inst.component.clone(),
                        min_version: inst.min_version,
                        instance_name: Some(inst.name.clone()),
                    },
                );
            }
        }
        if pending.borrow().outstanding == 0 {
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
                    let res = self.state.adapter.invoke(
                        consumer,
                        &op,
                        &[Value::ObjRef(provider)],
                        DispatchOpts::raw(),
                    );
                    self.process_dispatch_effects(consumer.oid, res);
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
