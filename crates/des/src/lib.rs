//! # lc-des — deterministic discrete-event simulation kernel
//!
//! The CORBA-LC paper's Distributed Registry protocols (hierarchical
//! Meta-Resource Managers, soft-consistency keep-alives, peer-replicated
//! groups) are specified for networks of *hundreds or thousands of hosts*
//! with spurious failures and reconnections. Evaluating them faithfully
//! needs a substrate that can run such populations deterministically on one
//! machine; this crate is that substrate.
//!
//! The kernel is a classic event-calendar DES:
//!
//! * [`SimTime`] — nanosecond-resolution virtual time.
//! * [`Sim`] — the world: an event calendar, a population of [`Actor`]s,
//!   a seeded RNG and a [`Metrics`] sink.
//! * Events are *messages* addressed to an actor, *packed* `u64` events
//!   ([`Actor::handle_packed`]) or *control closures* with full access to
//!   the world (used for fault injection and instrumentation).
//! * A message is stored by value in its type's mail lane beside the
//!   calendar, so a send allocates nothing once the lane has grown. The
//!   receiver gets a [`Mail`] in [`Actor::handle_mail`] and moves the
//!   value out with [`Ctx::open`]; an actor that keeps the default
//!   receives it boxed in [`Actor::handle`].
//!
//! Event ordering is `(time, sequence-number)`, so two runs with the same
//! seed produce identical histories — every number reported in
//! `EXPERIMENTS.md` is exactly reproducible.
//!
//! ```
//! use lc_des::{Sim, SimTime, Actor, Ctx, Mail};
//!
//! struct Ping { peer: lc_des::ActorId, left: u32 }
//! struct Tick;
//!
//! impl Actor for Ping {
//!     fn handle_mail(&mut self, ctx: &mut Ctx<'_>, mail: Mail<'_>) {
//!         if ctx.open::<Tick>(mail).is_ok() && self.left > 0 {
//!             self.left -= 1;
//!             ctx.send_in(SimTime::from_millis(5), self.peer, Tick);
//!         }
//!     }
//! }
//!
//! let mut sim = Sim::new(42);
//! let a = sim.spawn(Ping { peer: lc_des::ActorId(1), left: 3 });
//! let b = sim.spawn(Ping { peer: a, left: 3 });
//! sim.send_in(SimTime::ZERO, a, Tick);
//! sim.run();
//! assert_eq!(sim.now(), SimTime::from_millis(30));
//! ```

mod mail;
pub mod metrics;
pub mod profile;
mod queue;
pub mod rng;
pub mod time;

pub use mail::Mail;
use mail::{MailLanes, Stored};
pub use metrics::{nearest_rank, Counter, Metrics, Series, Summary};
pub use profile::{Lane, ProfileReport, Profiler, ProfilerConfig, QueueSample, Tally};
use queue::IndexedQueue;
pub use rng::SimRng;
pub use time::SimTime;

use std::any::Any;

/// Identifier of an actor living inside a [`Sim`].
///
/// Ids are never reused within one simulation, even after
/// [`Ctx::kill`]/[`Sim::kill`]; a message sent to a dead actor is silently
/// dropped (the DES analogue of a packet to a crashed host).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ActorId(pub u32);

impl std::fmt::Display for ActorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// A message boxed for an actor that keeps the default
/// [`Actor::handle_mail`]; see [`AnyMsgExt::downcast_msg`] for the helper.
pub type AnyMsg = Box<dyn Any>;

/// Convenience downcasting for [`AnyMsg`].
pub trait AnyMsgExt {
    /// Downcast the boxed message to `M`, returning it by value.
    fn downcast_msg<M: 'static>(self) -> Result<M, AnyMsg>;
}

impl AnyMsgExt for AnyMsg {
    fn downcast_msg<M: 'static>(self) -> Result<M, AnyMsg> {
        self.downcast::<M>().map(|b| *b)
    }
}

/// A packed event delivered through the zero-allocation lane: the
/// `u64` is whatever [`Ctx::send_packed`]/[`Sim::send_packed`] encoded.
///
/// Actors that do not override [`Actor::handle_packed`] receive packed
/// events boxed as this type through their ordinary [`Actor::handle`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PackedEvent(pub u64);

/// A simulated entity: a protocol state machine reacting to messages.
pub trait Actor: Any {
    /// React to one message, still in its mail lane: [`Ctx::open`] moves
    /// it out by value, and whatever is not opened is dropped when this
    /// returns. `ctx` gives access to virtual time, the RNG, scheduling,
    /// spawning and metrics — everything except other actors' private
    /// state (communicate by message instead).
    ///
    /// The default boxes the message and calls [`Actor::handle`].
    // frozen .perf surface: goes with ROADMAP 1a
    fn handle_mail(&mut self, ctx: &mut Ctx<'_>, mail: Mail<'_>) {
        let msg = ctx.open_boxed(mail);
        self.handle(ctx, msg);
    }

    /// React to one boxed message ([`Actor::handle_mail`]'s default). The
    /// default drops it, so an actor that opens its own mail implements
    /// `handle_mail` alone.
    fn handle(&mut self, _ctx: &mut Ctx<'_>, _msg: AnyMsg) {}

    /// React to a packed event — a bare `u64` scheduled through
    /// [`Ctx::send_packed`], carrying no heap allocation at all.
    /// `lc-core` overrides this twice: the scale model's campus actor
    /// takes all its events here, the full-stack node its timer ticks.
    /// The default forwards a boxed [`PackedEvent`] to [`Actor::handle`]
    /// so ordinary actors never notice which lane a sender used.
    fn handle_packed(&mut self, ctx: &mut Ctx<'_>, data: u64) {
        self.handle(ctx, Box::new(PackedEvent(data)));
    }

    /// Called once when the actor is killed (crash or orderly shutdown).
    fn on_kill(&mut self, _ctx: &mut Ctx<'_>) {}
}

enum Payload {
    /// A message waiting in its mail lane.
    Message { target: ActorId, mail: Stored },
    /// Index-sized event for the scale path: no box, no downcast.
    Packed { target: ActorId, data: u64 },
    Control(Box<dyn FnOnce(&mut Sim)>),
}

/// The scheduling core shared between [`Sim`] and [`Ctx`].
struct Core {
    now: SimTime,
    seq: u64,
    queue: IndexedQueue<Payload>,
    /// Every message the calendar carries, by value.
    mail: MailLanes,
    rng: SimRng,
    events_fired: u64,
    next_actor: u32,
    spawned: Vec<(ActorId, Box<dyn Actor>)>,
    killed: Vec<ActorId>,
    stopped: bool,
    /// Virtual-time profiler ([`profile`]): `None` (the default) keeps the
    /// hot path at one branch per event.
    profiler: Option<Profiler>,
    /// Last: a fixed array of every declared counter, kept clear of the
    /// fields each event touches.
    metrics: Metrics,
}

impl Core {
    fn push(&mut self, at: SimTime, payload: Payload) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, seq, payload);
    }

    fn send_in<M: Any>(&mut self, delay: SimTime, target: ActorId, msg: M) {
        let mail = self.mail.store(msg);
        self.push(self.now + delay, Payload::Message { target, mail });
    }
}

/// Capability handed to an [`Actor`] while it processes a message.
pub struct Ctx<'a> {
    core: &'a mut Core,
    me: ActorId,
}

impl<'a> Ctx<'a> {
    /// The id of the actor currently handling a message.
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Deterministic per-simulation RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.core.rng
    }

    /// Metrics sink shared by the whole simulation.
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.core.metrics
    }

    /// Deliver `msg` to `target` after `delay` of virtual time.
    pub fn send_in<M: Any>(&mut self, delay: SimTime, target: ActorId, msg: M) {
        self.core.send_in(delay, target, msg);
    }

    /// Move the message out of `mail` if it is an `M`; hand the mail back
    /// if not, for the next type to try.
    pub fn open<'m, M: Any>(&mut self, mail: Mail<'m>) -> Result<M, Mail<'m>> {
        self.core.mail.open(mail)
    }

    /// Move the message out of `mail`, boxed.
    pub fn open_boxed(&mut self, mail: Mail<'_>) -> AnyMsg {
        self.core.mail.open_boxed(mail)
    }

    /// Deliver `msg` to the current actor after `delay` — a timer.
    pub fn timer_in<M: Any>(&mut self, delay: SimTime, msg: M) {
        let me = self.me;
        self.send_in(delay, me, msg);
    }

    /// Deliver a packed `u64` event to `target` after `delay` — the
    /// zero-allocation lane ([`Actor::handle_packed`]).
    pub fn send_packed(&mut self, delay: SimTime, target: ActorId, data: u64) {
        let at = self.core.now + delay;
        self.core.push(at, Payload::Packed { target, data });
    }

    /// Run a control closure against the whole world at `now + delay`.
    pub fn control_in(&mut self, delay: SimTime, f: impl FnOnce(&mut Sim) + 'static) {
        let at = self.core.now + delay;
        self.core.push(at, Payload::Control(Box::new(f)));
    }

    /// Spawn a new actor. It becomes addressable immediately (messages
    /// scheduled for it before the current event finishes are delivered).
    pub fn spawn(&mut self, actor: impl Actor + 'static) -> ActorId {
        let id = ActorId(self.core.next_actor);
        self.core.next_actor += 1;
        self.core.spawned.push((id, Box::new(actor)));
        id
    }

    /// Kill an actor at the end of the current event; further messages to
    /// it are dropped.
    pub fn kill(&mut self, id: ActorId) {
        self.core.killed.push(id);
    }

    /// Stop the whole simulation after the current event.
    pub fn stop(&mut self) {
        self.core.stopped = true;
    }
}

/// How one event reaches its actor in [`Sim::deliver`].
enum Delivery {
    Mail(Stored),
    Packed(u64),
}

/// The simulation world.
pub struct Sim {
    core: Core,
    actors: Vec<Option<Box<dyn Actor>>>,
}

impl Sim {
    /// Create a world whose RNG is seeded with `seed`.
    #[expect(clippy::disallowed_methods, reason = "the kernel owns the simulation's one stream")]
    pub fn new(seed: u64) -> Self {
        Sim {
            core: Core {
                now: SimTime::ZERO,
                seq: 0,
                queue: IndexedQueue::new(),
                mail: MailLanes::default(),
                rng: SimRng::seed_from_u64(seed),
                metrics: Metrics::default(),
                events_fired: 0,
                next_actor: 0,
                spawned: Vec::new(),
                killed: Vec::new(),
                stopped: false,
                profiler: None,
            },
            actors: Vec::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Total events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.core.events_fired
    }

    /// Deterministic RNG (same stream the actors see).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.core.rng
    }

    /// Metrics sink.
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.core.metrics
    }

    /// Read-only metrics view.
    pub fn metrics_ref(&self) -> &Metrics {
        &self.core.metrics
    }

    /// Spawn an actor into the world.
    pub fn spawn(&mut self, actor: impl Actor + 'static) -> ActorId {
        let id = ActorId(self.core.next_actor);
        self.core.next_actor += 1;
        self.ensure_slot(id);
        self.actors[id.0 as usize] = Some(Box::new(actor));
        id
    }

    fn ensure_slot(&mut self, id: ActorId) {
        if self.actors.len() <= id.0 as usize {
            self.actors.resize_with(id.0 as usize + 1, || None);
        }
    }

    /// Is the actor currently alive?
    pub fn is_alive(&self, id: ActorId) -> bool {
        self.actors.get(id.0 as usize).map(|s| s.is_some()).unwrap_or(false)
    }

    /// Kill an actor immediately, invoking its [`Actor::on_kill`] hook.
    pub fn kill(&mut self, id: ActorId) {
        if let Some(slot) = self.actors.get_mut(id.0 as usize) {
            if let Some(mut actor) = slot.take() {
                let mut ctx = Ctx { core: &mut self.core, me: id };
                actor.on_kill(&mut ctx);
                self.apply_side_effects();
            }
        }
    }

    /// Schedule `msg` for `target` after `delay`.
    pub fn send_in<M: Any>(&mut self, delay: SimTime, target: ActorId, msg: M) {
        self.core.send_in(delay, target, msg);
    }

    /// Schedule a packed `u64` event for `target` after `delay` — the
    /// zero-allocation lane ([`Actor::handle_packed`]).
    pub fn send_packed(&mut self, delay: SimTime, target: ActorId, data: u64) {
        let at = self.core.now + delay;
        self.core.push(at, Payload::Packed { target, data });
    }

    /// Schedule a control closure after `delay`.
    pub fn control_in(&mut self, delay: SimTime, f: impl FnOnce(&mut Sim) + 'static) {
        let at = self.core.now + delay;
        self.core.push(at, Payload::Control(Box::new(f)));
    }

    /// Bytes currently held by the event-calendar arena — used by the
    /// scale sweep's memory accounting.
    pub fn queue_arena_bytes(&self) -> usize {
        self.core.queue.arena_bytes()
    }

    /// Access a live actor's state for inspection (tests/instrumentation).
    ///
    /// Returns `None` if the actor is dead or is not an `A`.
    pub fn actor_as<A: Actor + 'static>(&self, id: ActorId) -> Option<&A> {
        let actor: &dyn Actor = self.actors.get(id.0 as usize)?.as_deref()?;
        (actor as &dyn Any).downcast_ref::<A>()
    }

    /// Mutable variant of [`Sim::actor_as`].
    pub fn actor_as_mut<A: Actor + 'static>(&mut self, id: ActorId) -> Option<&mut A> {
        let actor: &mut dyn Actor = self.actors.get_mut(id.0 as usize)?.as_deref_mut()?;
        (actor as &mut dyn Any).downcast_mut::<A>()
    }

    fn apply_side_effects(&mut self) {
        while !self.core.spawned.is_empty() || !self.core.killed.is_empty() {
            let spawned = std::mem::take(&mut self.core.spawned);
            for (id, actor) in spawned {
                self.ensure_slot(id);
                self.actors[id.0 as usize] = Some(actor);
            }
            let killed = std::mem::take(&mut self.core.killed);
            for id in killed {
                if let Some(slot) = self.actors.get_mut(id.0 as usize) {
                    if let Some(mut actor) = slot.take() {
                        let mut ctx = Ctx { core: &mut self.core, me: id };
                        actor.on_kill(&mut ctx);
                    }
                }
            }
        }
    }

    /// Deliver one event to `target`, temporarily removing the actor so
    /// it can borrow the core. Shared by messages and packed events; a
    /// message's slot is released as soon as its handler returns, or at
    /// once if the target is dead.
    fn deliver(&mut self, target: ActorId, ev: Delivery) {
        let idx = target.0 as usize;
        let taken = self.actors.get_mut(idx).and_then(|s| s.take());
        if let Some(mut actor) = taken {
            {
                let mut ctx = Ctx { core: &mut self.core, me: target };
                match ev {
                    Delivery::Mail(at) => {
                        actor.handle_mail(&mut ctx, at.mail());
                        self.core.mail.release(at);
                    }
                    Delivery::Packed(data) => actor.handle_packed(&mut ctx, data),
                }
            }
            // Re-insert unless the actor killed itself.
            if self.core.killed.contains(&target) {
                self.core.killed.retain(|&k| k != target);
                let mut ctx = Ctx { core: &mut self.core, me: target };
                actor.on_kill(&mut ctx);
            } else {
                self.actors[idx] = Some(actor);
            }
            self.apply_side_effects();
        } else {
            if let Delivery::Mail(at) = ev {
                self.core.mail.release(at);
            }
            self.core.metrics.incr(Counter::DesDroppedToDead);
        }
    }

    /// Enable the virtual-time profiler from the current instant.
    /// Re-enabling replaces the accumulated profile.
    pub fn enable_profiler(&mut self, cfg: ProfilerConfig) {
        self.core.profiler = Some(Profiler::new(cfg, self.core.now));
    }

    /// Snapshot the accumulated profile (`None` while disabled).
    pub fn profile_report(&self) -> Option<ProfileReport> {
        self.core
            .profiler
            .as_ref()
            .map(|p| p.report(self.core.now, self.core.events_fired))
    }

    /// Fire a single event. Returns `false` when the calendar is empty.
    pub fn step(&mut self) -> bool {
        self.step_until(SimTime::MAX)
    }

    /// Fire the next event if it is due by `deadline`; `false` if none is.
    fn step_until(&mut self, deadline: SimTime) -> bool {
        let Some((at, _seq, payload)) = self.core.queue.pop_until(deadline) else { return false };
        debug_assert!(at >= self.core.now);
        if let Some(p) = self.core.profiler.as_mut() {
            // Observation only: attribute the calendar gap this event
            // closes, then sample queue telemetry. No scheduling, no RNG.
            let dt_ns = (at.as_nanos()).saturating_sub(self.core.now.as_nanos());
            let (lane, actor, kind) = match &payload {
                Payload::Message { target, .. } => (Lane::Message, Some(target.0), None),
                Payload::Packed { target, data } => {
                    (Lane::Packed, Some(target.0), Some((data >> 56) as u8))
                }
                Payload::Control(_) => (Lane::Control, None, None),
            };
            p.on_event(dt_ns, lane, actor, kind);
            let depth = self.core.queue.len();
            let arena = self.core.queue.arena_bytes();
            p.sample_if_due(at, depth, arena);
        }
        self.core.now = at;
        self.core.events_fired += 1;
        match payload {
            Payload::Message { target, mail } => self.deliver(target, Delivery::Mail(mail)),
            Payload::Packed { target, data } => self.deliver(target, Delivery::Packed(data)),
            Payload::Control(f) => {
                f(self);
            }
        }
        true
    }

    /// Run until the calendar drains or [`Ctx::stop`] is called.
    pub fn run(&mut self) {
        while !self.core.stopped && self.step() {}
    }

    /// Run until virtual time reaches `deadline` (events at exactly
    /// `deadline` are fired). Later events stay queued.
    pub fn run_until(&mut self, deadline: SimTime) {
        while !self.core.stopped && self.step_until(deadline) {}
        if self.core.now < deadline {
            self.core.now = deadline;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::queue::legacy::replay_against_legacy;
    use super::*;

    struct Counter {
        hits: u32,
        every: SimTime,
        limit: u32,
    }
    struct Tick;

    impl Actor for Counter {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMsg) {
            assert!(msg.downcast_msg::<Tick>().is_ok());
            self.hits += 1;
            if self.hits < self.limit {
                ctx.timer_in(self.every, Tick);
            }
        }
    }

    #[test]
    fn timers_advance_time_deterministically() {
        let mut sim = Sim::new(1);
        let c = sim.spawn(Counter { hits: 0, every: SimTime::from_millis(10), limit: 5 });
        sim.send_in(SimTime::ZERO, c, Tick);
        sim.run();
        assert_eq!(sim.now(), SimTime::from_millis(40));
        assert_eq!(sim.actor_as::<Counter>(c).unwrap().hits, 5);
        assert_eq!(sim.events_fired(), 5);
    }

    #[test]
    fn messages_to_dead_actors_are_dropped() {
        let mut sim = Sim::new(1);
        let c = sim.spawn(Counter { hits: 0, every: SimTime::from_millis(1), limit: 100 });
        sim.send_in(SimTime::ZERO, c, Tick);
        sim.control_in(SimTime::from_micros(5500), move |sim| sim.kill(c));
        sim.run();
        assert_eq!(sim.metrics_ref().counter("des.dropped_to_dead"), 1);
        assert!(!sim.is_alive(c));
    }

    #[test]
    fn same_seed_same_history() {
        fn history(seed: u64) -> (SimTime, u64, u64) {

            struct Jitter {
                peer: Option<ActorId>,
                left: u32,
            }
            struct Go;
            impl Actor for Jitter {
                fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: AnyMsg) {
                    if self.left == 0 {
                        return;
                    }
                    self.left -= 1;
                    let ns = ctx.rng().gen_range(1..1_000_000u64);
                    let t = SimTime::from_nanos(ns);
                    let target = self.peer.unwrap_or_else(|| ctx.me());
                    ctx.send_in(t, target, Go);
                    ctx.metrics().incr(metrics::Counter::NetMsgs);
                }
            }
            let mut sim = Sim::new(seed);
            let a = sim.spawn(Jitter { peer: None, left: 50 });
            let b = sim.spawn(Jitter { peer: Some(a), left: 50 });
            sim.send_in(SimTime::ZERO, a, Go);
            sim.send_in(SimTime::ZERO, b, Go);
            sim.run();
            (sim.now(), sim.events_fired(), sim.metrics_ref().counter("net.msgs"))
        }
        assert_eq!(history(7), history(7));
        assert_ne!(history(7).0, history(8).0);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Sim::new(1);
        let c = sim.spawn(Counter { hits: 0, every: SimTime::from_millis(10), limit: 1000 });
        sim.send_in(SimTime::ZERO, c, Tick);
        sim.run_until(SimTime::from_millis(35));
        assert_eq!(sim.actor_as::<Counter>(c).unwrap().hits, 4); // t=0,10,20,30
        assert_eq!(sim.now(), SimTime::from_millis(35));
        // The t=40 tick stayed queued: it is the next event to fire.
        assert!(sim.step());
        assert_eq!(sim.now(), SimTime::from_millis(40));
        assert_eq!(sim.actor_as::<Counter>(c).unwrap().hits, 5);
    }

    #[test]
    fn spawn_from_within_event() {
        struct Spawner;
        struct Child {
            got: bool,
        }
        struct Hello;
        impl Actor for Spawner {
            fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: AnyMsg) {
                let id = ctx.spawn(Child { got: false });
                ctx.send_in(SimTime::from_nanos(1), id, Hello);
            }
        }
        impl Actor for Child {
            fn handle(&mut self, _ctx: &mut Ctx<'_>, _msg: AnyMsg) {
                self.got = true;
            }
        }
        let mut sim = Sim::new(3);
        let s = sim.spawn(Spawner);
        sim.send_in(SimTime::ZERO, s, Hello);
        sim.run();
        // The child is the second actor, alive, and got its message.
        let child = ActorId(s.0 + 1);
        assert!(sim.is_alive(s) && sim.is_alive(child));
        assert!(sim.actor_as::<Child>(child).is_some_and(|c| c.got));
        assert!(!sim.is_alive(ActorId(child.0 + 1)));
    }

    #[test]
    fn self_kill_invokes_on_kill_once() {
        struct Seppuku {
            tombstones: std::sync::Arc<std::sync::atomic::AtomicU32>,
        }
        struct Die;
        impl Actor for Seppuku {
            fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: AnyMsg) {
                let me = ctx.me();
                ctx.kill(me);
            }
            fn on_kill(&mut self, _ctx: &mut Ctx<'_>) {
                self.tombstones.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let t = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mut sim = Sim::new(1);
        let s = sim.spawn(Seppuku { tombstones: t.clone() });
        sim.send_in(SimTime::ZERO, s, Die);
        sim.run();
        assert_eq!(t.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert!(!sim.is_alive(s));
    }

    #[test]
    fn same_time_messages_deliver_in_schedule_order() {
        struct Recorder {
            seen: Vec<u32>,
        }
        struct Tag(u32);
        impl Actor for Recorder {
            fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: AnyMsg) {
                self.seen.push(msg.downcast_msg::<Tag>().map(|t| t.0).unwrap_or(u32::MAX));
            }
        }
        let mut sim = Sim::new(1);
        let r = sim.spawn(Recorder { seen: Vec::new() });
        // All at the same instant; seq must break the tie in FIFO order.
        for i in 0..16 {
            sim.send_in(SimTime::from_millis(5), r, Tag(i));
        }
        sim.run();
        let seen = &sim.actor_as::<Recorder>(r).unwrap().seen;
        assert_eq!(*seen, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn packed_lane_reaches_default_actors_as_packed_event() {
        struct Plain {
            got: Vec<u64>,
        }
        impl Actor for Plain {
            fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: AnyMsg) {
                if let Ok(PackedEvent(d)) = msg.downcast_msg::<PackedEvent>() {
                    self.got.push(d);
                }
            }
        }
        let mut sim = Sim::new(1);
        let p = sim.spawn(Plain { got: Vec::new() });
        sim.send_packed(SimTime::from_millis(1), p, 0xBEEF);
        sim.run();
        assert_eq!(sim.actor_as::<Plain>(p).unwrap().got, [0xBEEF]);
    }

    #[test]
    fn packed_lane_uses_override_and_interleaves_with_boxed() {
        struct Both {
            log: Vec<(bool, u64)>,
        }
        struct Boxed(u64);
        impl Actor for Both {
            fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: AnyMsg) {
                if let Ok(Boxed(d)) = msg.downcast_msg::<Boxed>() {
                    self.log.push((false, d));
                }
            }
            fn handle_packed(&mut self, _ctx: &mut Ctx<'_>, data: u64) {
                self.log.push((true, data));
            }
        }
        let mut sim = Sim::new(1);
        let b = sim.spawn(Both { log: Vec::new() });
        sim.send_packed(SimTime::from_millis(2), b, 1);
        sim.send_in(SimTime::from_millis(2), b, Boxed(2));
        sim.send_packed(SimTime::from_millis(1), b, 3);
        sim.run();
        // Time order first, then schedule order within the same instant;
        // each event keeps its lane.
        assert_eq!(sim.actor_as::<Both>(b).unwrap().log, [(true, 3), (true, 1), (false, 2)]);
    }

    #[test]
    fn packed_to_dead_actor_is_dropped() {
        let mut sim = Sim::new(1);
        let c = sim.spawn(Counter { hits: 0, every: SimTime::from_millis(1), limit: 1 });
        sim.kill(c);
        sim.send_packed(SimTime::ZERO, c, 7);
        sim.run();
        assert_eq!(sim.metrics_ref().counter("des.dropped_to_dead"), 1);
    }

    /// lc-prop: the calendar replays any random schedule the kernel can
    /// make — pushes and deadline-bounded pops arbitrarily interleaved,
    /// every digit level, same-instant bursts — identically to the
    /// legacy binary heap it replaced.
    #[test]
    #[expect(clippy::disallowed_methods, reason = "each case seeds the stream that drives the replay")]
    fn prop_indexed_queue_replays_legacy_order() {
        lc_prop::check("indexed queue == legacy heap", |g| {
            // lc-prop links the non-test build of this crate: hand the
            // case over as a seed for this build's generator.
            let ops = g.gen_range(1..400usize);
            replay_against_legacy(&mut SimRng::seed_from_u64(g.next_u64()), ops);
        });
    }

    /// E13's `queue_bytes` and E15's `arena_bytes_max` count calendar
    /// slots: their committed cells hold only while a slot is 48 bytes.
    #[test]
    fn calendar_slot_is_48_bytes() {
        assert_eq!(std::mem::size_of::<queue::Slot<Payload>>(), 48);
    }

    /// lc-prop: the mail lanes in a random world — four message types,
    /// two carrying an `Rc` and one of those never opened, beside packed
    /// events, spawns, self-kills and `Sim::kill` — deliver every message
    /// exactly once, by value, in `(SimTime, seq)` order, alike to an
    /// actor that opens its mail and to one that keeps the boxing default.
    /// Mail nobody opens and mail to the dead are dropped, the latter
    /// counted and its slot recycled; at drain every lane is empty and
    /// every payload has been dropped exactly once.
    #[test]
    fn prop_mail_lanes_deliver_once_by_value_in_order() {
        lc_prop::check("mail lanes", |g| {
            let (seed, budget, kills) = (g.next_u64(), g.gen_range(1..300u64), g.gen_range(0..4u32));
            mail_world::run(seed, budget, kills);
        });
    }

    #[test]
    fn actor_as_mut_allows_instrumented_mutation() {
        let mut sim = Sim::new(1);
        let c = sim.spawn(Counter { hits: 0, every: SimTime::from_millis(1), limit: 2 });
        sim.actor_as_mut::<Counter>(c).unwrap().limit = 3;
        sim.send_in(SimTime::ZERO, c, Tick);
        sim.run();
        assert_eq!(sim.actor_as::<Counter>(c).unwrap().hits, 3);
    }

    /// The random world of [`prop_mail_lanes_deliver_once_by_value_in_order`].
    mod mail_world {
        use super::super::*;
        use std::cell::RefCell;
        use std::collections::BTreeMap;
        use std::rc::Rc;

        /// What the test knows of every event it sent, indexed by id; ids
        /// grow with the kernel's schedule counter.
        #[derive(Default)]
        struct Ledger {
            /// Target and due instant of each id.
            sent: Vec<(ActorId, SimTime)>,
            /// `(instant, id)` in delivery order.
            delivered: Vec<(SimTime, usize)>,
            /// When each dead actor died.
            killed: BTreeMap<ActorId, SimTime>,
            /// Drops of each id's `Token` payload.
            token_drops: Vec<u32>,
            /// Who declined the mail under way, and when: the next token
            /// dropped is that mail's, and its drop is its delivery.
            declined: Option<(ActorId, SimTime)>,
            tokens: usize,
            actors: u32,
            /// Sends left.
            budget: u64,
        }
        type Shared = Rc<RefCell<Ledger>>;

        struct Plain(usize);
        struct Wide {
            id: usize,
            check: [u64; 6],
        }
        /// The `Rc`-carrying payload: it counts its own drops.
        struct Token {
            id: usize,
            ledger: Shared,
        }
        impl Drop for Token {
            fn drop(&mut self) {
                let mut l = self.ledger.borrow_mut();
                l.token_drops[self.id] += 1;
                if let Some(by) = l.declined.take() {
                    assert_eq!(l.sent[self.id], by, "a declined message is dropped by its delivery");
                    l.delivered.push((by.1, self.id));
                }
            }
        }
        /// A message no receiver opens: the kernel drops it after the
        /// handler (or the boxing default inside it).
        struct Unread(#[expect(dead_code, reason = "carried only to be dropped")] Token);

        fn check_of(id: usize) -> [u64; 6] {
            std::array::from_fn(|i| (id as u64 + 1).wrapping_mul(0x9E37_79B9 + i as u64))
        }

        /// What both [`Sim`] and [`Ctx`] can schedule.
        trait Sched {
            fn now(&self) -> SimTime;
            fn rng(&mut self) -> &mut SimRng;
            fn send_in<M: Any>(&mut self, delay: SimTime, target: ActorId, msg: M);
            fn send_packed(&mut self, delay: SimTime, target: ActorId, data: u64);
        }
        macro_rules! sched {
            ($t:ty) => {
                impl Sched for $t {
                    fn now(&self) -> SimTime {
                        <$t>::now(self)
                    }
                    fn rng(&mut self) -> &mut SimRng {
                        <$t>::rng(self)
                    }
                    fn send_in<M: Any>(&mut self, delay: SimTime, target: ActorId, msg: M) {
                        <$t>::send_in(self, delay, target, msg)
                    }
                    fn send_packed(&mut self, delay: SimTime, target: ActorId, data: u64) {
                        <$t>::send_packed(self, delay, target, data)
                    }
                }
            };
        }
        sched!(Sim);
        sched!(Ctx<'_>);

        /// One random send — plain, wide, token, unread or packed — to
        /// any actor ever spawned, at once or within 5 µs; nothing once the
        /// budget is spent.
        fn send_one(s: &mut impl Sched, ledger: &Shared) {
            let (id, target, delay, kind) = {
                let mut l = ledger.borrow_mut();
                if l.budget == 0 {
                    return;
                }
                l.budget -= 1;
                let target = ActorId(s.rng().gen_range(0..l.actors));
                let zero = s.rng().gen_range(0..3u32) == 0;
                let delay = match zero {
                    true => SimTime::ZERO,
                    false => SimTime::from_nanos(s.rng().gen_range(1..5_000u64)),
                };
                let kind = s.rng().gen_range(0..5u32);
                l.sent.push((target, s.now() + delay));
                l.token_drops.push(0);
                l.tokens += usize::from(kind == 2 || kind == 3);
                (l.sent.len() - 1, target, delay, kind)
            };
            match kind {
                0 => s.send_in(delay, target, Plain(id)),
                1 => s.send_in(delay, target, Wide { id, check: check_of(id) }),
                2 => s.send_in(delay, target, Token { id, ledger: ledger.clone() }),
                3 => s.send_in(delay, target, Unread(Token { id, ledger: ledger.clone() })),
                _ => s.send_packed(delay, target, id as u64),
            }
        }

        /// A receiver: `opens` takes its mail by value, otherwise it keeps
        /// the boxing defaults of `handle_mail` and `handle_packed`.
        struct Member {
            ledger: Shared,
            opens: bool,
        }

        impl Member {
            /// Log the delivery of `id`, then act: send, spawn or die.
            fn got(&mut self, ctx: &mut Ctx<'_>, id: usize) {
                {
                    let mut l = self.ledger.borrow_mut();
                    assert_eq!(l.sent[id], (ctx.me(), ctx.now()), "id {id} reached its target when due");
                    l.delivered.push((ctx.now(), id));
                }
                match ctx.rng().gen_range(0..100u32) {
                    0..60 => {
                        for _ in 0..ctx.rng().gen_range(1..3u32) {
                            send_one(ctx, &self.ledger);
                        }
                    }
                    60..68 => {
                        let opens = ctx.rng().gen_range(0..2u32) == 0;
                        let child = ctx.spawn(Member { ledger: self.ledger.clone(), opens });
                        {
                            let n = &mut self.ledger.borrow_mut().actors;
                            assert_eq!(child, ActorId(*n), "ids are dense");
                            *n += 1;
                        }
                        send_one(ctx, &self.ledger);
                    }
                    68..72 => ctx.kill(ctx.me()),
                    _ => {}
                }
            }
        }

        impl Actor for Member {
            fn handle_mail(&mut self, ctx: &mut Ctx<'_>, mail: Mail<'_>) {
                if !self.opens {
                    let msg = ctx.open_boxed(mail);
                    return self.handle(ctx, msg);
                }
                let mail = match ctx.open::<Plain>(mail) {
                    Ok(Plain(id)) => return self.got(ctx, id),
                    Err(m) => m,
                };
                let mail = match ctx.open::<Wide>(mail) {
                    Ok(Wide { id, check }) => {
                        assert_eq!(check, check_of(id));
                        return self.got(ctx, id);
                    }
                    Err(m) => m,
                };
                match ctx.open::<Token>(mail) {
                    Ok(token) => {
                        let id = token.id;
                        drop(token);
                        self.got(ctx, id);
                    }
                    Err(_unread) => self.ledger.borrow_mut().declined = Some((ctx.me(), ctx.now())),
                }
            }

            fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMsg) {
                assert!(!self.opens, "only the default reaches handle");
                let msg = match msg.downcast_msg::<Plain>() {
                    Ok(Plain(id)) => return self.got(ctx, id),
                    Err(m) => m,
                };
                let msg = match msg.downcast_msg::<Wide>() {
                    Ok(Wide { id, check }) => {
                        assert_eq!(check, check_of(id));
                        return self.got(ctx, id);
                    }
                    Err(m) => m,
                };
                let msg = match msg.downcast_msg::<Token>() {
                    Ok(token) => {
                        let id = token.id;
                        drop(token);
                        return self.got(ctx, id);
                    }
                    Err(m) => m,
                };
                match msg.downcast_msg::<PackedEvent>() {
                    Ok(PackedEvent(id)) => self.got(ctx, id as usize),
                    Err(unread) => {
                        assert!(unread.is::<Unread>(), "an unknown message type");
                        self.ledger.borrow_mut().declined = Some((ctx.me(), ctx.now()));
                    }
                }
            }

            fn handle_packed(&mut self, ctx: &mut Ctx<'_>, data: u64) {
                if self.opens {
                    self.got(ctx, data as usize);
                } else {
                    self.handle(ctx, Box::new(PackedEvent(data)));
                }
            }

            fn on_kill(&mut self, ctx: &mut Ctx<'_>) {
                let fresh = self.ledger.borrow_mut().killed.insert(ctx.me(), ctx.now()).is_none();
                assert!(fresh, "an actor dies once");
            }
        }

        fn dropped_to_dead(sim: &Sim) -> u64 {
            sim.metrics_ref().counter("des.dropped_to_dead")
        }

        fn assert_lanes_empty(sim: &Sim) -> Vec<usize> {
            let lanes = sim.core.mail.occupancy();
            assert!(lanes.iter().all(|&(busy, _)| busy == 0), "a lane holds mail at drain: {lanes:?}");
            lanes.iter().map(|&(_, slots)| slots).collect()
        }

        pub(super) fn run(seed: u64, budget: u64, kills: u32) {
            let ledger = Shared::new(RefCell::new(Ledger { budget, ..Ledger::default() }));
            let mut sim = Sim::new(seed);
            for i in 0..4 {
                sim.spawn(Member { ledger: ledger.clone(), opens: i % 2 == 0 });
            }
            ledger.borrow_mut().actors = 4;
            for _ in 0..8 {
                send_one(&mut sim, &ledger);
            }
            for _ in 0..kills {
                let at = SimTime::from_nanos(sim.rng().gen_range(0..20_000u64));
                let ledger = ledger.clone();
                sim.control_in(at, move |sim| {
                    let n = ledger.borrow().actors;
                    let victim = ActorId(sim.rng().gen_range(0..n));
                    sim.kill(victim);
                });
            }
            sim.run();

            let l = ledger.borrow();
            // In `(SimTime, seq)` order, hence each id at most once.
            assert!(l.delivered.windows(2).all(|w| w[0] < w[1]), "deliveries out of order");
            let delivered: BTreeMap<usize, SimTime> = l.delivered.iter().map(|&(at, id)| (id, at)).collect();
            for (id, &(target, due)) in l.sent.iter().enumerate() {
                let died = l.killed.get(&target).copied();
                if delivered.contains_key(&id) {
                    assert!(died.is_none_or(|t| t >= due), "id {id} reached a dead actor");
                } else {
                    assert!(died.is_some_and(|t| t <= due), "id {id} to a live actor was lost");
                }
            }
            let lost = (l.sent.len() - delivered.len()) as u64;
            assert_eq!(dropped_to_dead(&sim), lost, "every undelivered event is counted");
            assert!(l.token_drops.iter().all(|&d| d <= 1));
            assert_eq!(l.token_drops.iter().sum::<u32>() as usize, l.tokens, "every token dropped once");
            drop(l);
            assert_lanes_empty(&sim);

            // Mail to the dead, one at a time: each is dropped and counted,
            // and its slot is the one the next reuses.
            sim.kill(ActorId(0));
            let dead = ActorId(0);
            let before = dropped_to_dead(&sim);
            let mut slots = Vec::new();
            for round in 0..3u64 {
                let id = {
                    let mut l = ledger.borrow_mut();
                    l.sent.push((dead, sim.now()));
                    l.token_drops.push(0);
                    l.sent.len() - 1
                };
                sim.send_in(SimTime::ZERO, dead, Plain(id));
                sim.send_in(SimTime::ZERO, dead, Wide { id, check: check_of(id) });
                sim.send_in(SimTime::ZERO, dead, Token { id, ledger: ledger.clone() });
                sim.run();
                assert_eq!(ledger.borrow().token_drops[id], 1, "mail to the dead is dropped");
                assert_eq!(dropped_to_dead(&sim), before + 3 * (round + 1));
                let now = assert_lanes_empty(&sim);
                if round > 0 {
                    assert_eq!(now, slots, "a dropped message's slot is recycled");
                }
                slots = now;
            }

            // Nothing else holds a payload: dropping the world leaves the
            // ledger with its one owner.
            drop(sim);
            assert_eq!(Rc::strong_count(&ledger), 1, "a payload outlived the world");
        }
    }
}
