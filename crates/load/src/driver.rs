//! The load-driver actor: open-loop arrivals in, `NodeCmd` traffic out.
//!
//! A [`LoadDriver`] models one front-end ingress point. The harness
//! pre-schedules each [`crate::Arrival`] of its stream slice as a
//! [`DriverArrival`] message; the driver turns every arrival into one
//! `NodeCmd::Invoke` against its front-end node — *without waiting for
//! previous replies* (open loop). Per-arrival keys route over the
//! replica set learned from periodic registry queries, so a hot
//! component that gets replicated under overload automatically spreads
//! subsequent keys across the new instances.
//!
//! An invoke carries what it shares: the operation and any string
//! arguments are [`Name`]s, so each arrival copies only its argument
//! vector. A reply sink the driver alone still holds once its call is
//! counted is emptied and handed to a later arrival; one it alone holds
//! *before* an answer came (the front node crashed, or the command
//! reached a dead actor) can never be answered, and is counted
//! `unresolved` instead of holding back every call behind it.

use lc_core::{ComponentQuery, NodeCmd, QueryResult};
use lc_des::{Actor, ActorId, Ctx, Mail, SimTime};
use lc_orb::{Name, ObjectRef, OrbError, Value};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::arrival::Arrival;

/// One pre-scheduled arrival, addressed to a driver actor.
pub struct DriverArrival(pub Arrival);

/// Periodic replica-discovery tick (self-rearming once the harness
/// schedules the first one).
pub struct QueryTick;

/// Static configuration of one driver.
#[derive(Clone)]
pub struct DriverConfig {
    /// The front-end node actor receiving this driver's commands.
    pub node: ActorId,
    /// Component name re-queried for replica discovery.
    pub component: String,
    /// Operation invoked per arrival.
    pub op: Name,
    /// Arguments passed with every invocation (a clone per arrival:
    /// one vector, sharing every string).
    pub args: Vec<Value>,
    /// Target used until the first query returns running instances.
    pub initial_target: ObjectRef,
    /// Replica re-query period; `None` disables discovery (all traffic
    /// stays on `initial_target`).
    pub requery: Option<SimTime>,
}

type Call = (SimTime, lc_core::InvokeSink);

/// The driver actor. After the run, the harness inspects it through
/// [`lc_des::Sim::actor_as`] and calls [`LoadDriver::stats`].
pub struct LoadDriver {
    cfg: DriverConfig,
    /// The discovery query for `cfg.component`, built once: every tick
    /// sends a clone that shares its name.
    query: ComponentQuery,
    replicas: Vec<ObjectRef>,
    pending_query: Option<(SimTime, lc_core::QuerySink)>,
    /// Calls not yet counted in `settled`, in send order. The front one
    /// is still in flight (as of the last arrival); the driver holds a
    /// sink only for these and for `spare`.
    open: VecDeque<Call>,
    /// Emptied sinks of counted calls that nobody else held, reused by
    /// the next arrivals. A sink is made only when this is empty, so
    /// `open` and `spare` together never exceed `open`'s high-water
    /// mark.
    spare: Vec<lc_core::InvokeSink>,
    /// Running statistics: every call sent before `open`'s front, in
    /// send order, and every harvested discovery query.
    settled: DriverStats,
    queries_done: u64,
}

/// Everything a capacity experiment needs from one driver, harvested
/// after the run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DriverStats {
    /// Invocations sent.
    pub sent: u64,
    /// Successful replies.
    pub ok: u64,
    /// Replies refused by admission control.
    pub overload: u64,
    /// Client-side deadline expiries.
    pub timeout: u64,
    /// Any other error reply.
    pub other_err: u64,
    /// Calls with no reply at harvest time.
    pub unresolved: u64,
    /// Reply latency of every successful call, milliseconds, send order.
    pub ok_latency_ms: Vec<f64>,
    /// First-offer latency of every finished discovery query, ms.
    pub first_offer_ms: Vec<f64>,
    /// Discovery queries shed by registry admission control.
    pub queries_shed: u64,
    /// Replica targets known at harvest.
    pub replicas: usize,
}

impl DriverStats {
    /// Count one sent call by the first (only) reply in its sink.
    fn count_call(&mut self, sent_at: SimTime, sink: &lc_core::InvokeSink) {
        match sink.borrow().first() {
            None => self.unresolved += 1,
            Some((at, Ok(_))) => {
                self.ok += 1;
                self.ok_latency_ms.push(at.saturating_sub(sent_at).as_secs_f64() * 1e3);
            }
            Some((_, Err(OrbError::Overload))) => self.overload += 1,
            Some((_, Err(OrbError::Timeout))) => self.timeout += 1,
            Some((_, Err(_))) => self.other_err += 1,
        }
    }
}

impl LoadDriver {
    /// A driver with no traffic sent yet.
    pub fn new(cfg: DriverConfig) -> LoadDriver {
        let query = ComponentQuery {
            name: Some(cfg.component.as_str().into()),
            ..ComponentQuery::default()
        };
        LoadDriver {
            cfg,
            query,
            replicas: Vec::new(),
            pending_query: None,
            open: VecDeque::new(),
            spare: Vec::new(),
            settled: DriverStats::default(),
            queries_done: 0,
        }
    }

    /// Count the leading run of answered calls and let go of their
    /// sinks. Stops at the first call still in flight, so latencies
    /// reach `ok_latency_ms` in send order whatever order replies land.
    /// Nobody can fill a sink the driver alone holds, so its call is
    /// counted now (`unresolved` if still empty) and the sink emptied
    /// onto `spare`.
    fn settle(&mut self) {
        while let Some((sent_at, sink)) = self.open.front() {
            let alone = Rc::strong_count(sink) == 1;
            if !alone && sink.borrow().is_empty() {
                break;
            }
            self.settled.count_call(*sent_at, sink);
            if let Some((_, sink)) = self.open.pop_front().filter(|_| alone) {
                // Clearing keeps the one-entry capacity the reply made.
                sink.borrow_mut().clear();
                self.spare.push(sink);
            }
        }
    }

    fn on_arrival(&mut self, ctx: &mut Ctx<'_>, a: Arrival) {
        self.settle();
        let target = if self.replicas.is_empty() {
            self.cfg.initial_target.clone()
        } else {
            self.replicas[(a.key % self.replicas.len() as u64) as usize].clone()
        };
        let sink = self.spare.pop().unwrap_or_default();
        self.settled.sent += 1;
        self.open.push_back((ctx.now(), sink.clone()));
        ctx.send_in(
            SimTime::ZERO,
            self.cfg.node,
            NodeCmd::Invoke {
                target,
                op: self.cfg.op.clone(),
                args: self.cfg.args.clone(),
                oneway: false,
                sink: Some(sink),
            },
        );
    }

    /// Fold the previous discovery query's outcome into the replica
    /// set. Offers are harvested even from an unfinished query — the
    /// registry syncs collect sinks as offers stream in.
    fn harvest_query(&mut self) {
        let Some((issued, sink)) = self.pending_query.take() else { return };
        let r: &QueryResult = &sink.borrow();
        if r.shed {
            self.settled.queries_shed += 1;
            return;
        }
        if r.done {
            self.queries_done += 1;
        }
        if let Some(t) = r.first_offer_at {
            self.settled.first_offer_ms.push(t.saturating_sub(issued).as_secs_f64() * 1e3);
        }
        let mut replicas: Vec<ObjectRef> = r
            .offers
            .iter()
            .filter_map(|o| o.running_instance())
            .collect();
        replicas.sort_by_key(|a| (a.key.host, a.key.oid));
        replicas.dedup_by(|a, b| a.key.host == b.key.host && a.key.oid == b.key.oid);
        if !replicas.is_empty() {
            self.replicas = replicas;
        }
    }

    fn on_query_tick(&mut self, ctx: &mut Ctx<'_>) {
        self.harvest_query();
        let sink: lc_core::QuerySink = Rc::new(RefCell::new(QueryResult::default()));
        self.pending_query = Some((ctx.now(), sink.clone()));
        let query = self.query.clone();
        ctx.send_in(
            SimTime::ZERO,
            self.cfg.node,
            NodeCmd::Query { query, sink, first_wins: false },
        );
        if let Some(period) = self.cfg.requery {
            ctx.timer_in(period, QueryTick);
        }
    }

    /// Harvest the statistics so far: the settled calls plus whatever
    /// the open ones (in flight, or answered behind one that is) show
    /// right now.
    pub fn stats(&mut self) -> DriverStats {
        self.harvest_query();
        self.settle();
        let mut s = self.settled.clone();
        s.replicas = self.replicas.len();
        for (sent_at, sink) in &self.open {
            s.count_call(*sent_at, sink);
        }
        s
    }

    /// Calls whose sink the driver still holds (inspection): bounded by
    /// the calls sent since the oldest one still awaiting an answer that
    /// can come, not by the run.
    pub fn open_calls(&self) -> usize {
        self.open.len()
    }

    /// Replica targets currently routed to (inspection).
    pub fn replicas(&self) -> &[ObjectRef] {
        &self.replicas
    }

    /// Finished discovery queries so far.
    pub fn queries_done(&self) -> u64 {
        self.queries_done
    }
}

impl Actor for LoadDriver {
    fn handle_mail(&mut self, ctx: &mut Ctx<'_>, mail: Mail<'_>) {
        let mail = match ctx.open::<DriverArrival>(mail) {
            Ok(DriverArrival(a)) => return self.on_arrival(ctx, a),
            Err(m) => m,
        };
        if ctx.open::<QueryTick>(mail).is_ok() {
            self.on_query_tick(ctx);
        }
    }
}
