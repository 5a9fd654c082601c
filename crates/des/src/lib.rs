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
//! * Events are either *messages* addressed to an actor (delivered through
//!   [`Actor::handle`]) or *control closures* with full access to the world
//!   (used for fault injection and instrumentation).
//!
//! Event ordering is `(time, sequence-number)`, so two runs with the same
//! seed produce identical histories — every number reported in
//! `EXPERIMENTS.md` is exactly reproducible.
//!
//! ```
//! use lc_des::{Sim, SimTime, Actor, Ctx, AnyMsg};
//!
//! struct Ping { peer: lc_des::ActorId, left: u32 }
//! struct Tick;
//!
//! impl Actor for Ping {
//!     fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: AnyMsg) {
//!         if self.left > 0 {
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

pub mod metrics;
pub mod profile;
mod queue;
pub mod rng;
pub mod time;

pub use metrics::{nearest_rank, CounterId, Metrics, Summary};
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

/// Type-erased message payload.
///
/// Layers above define their own concrete message enums and downcast in
/// [`Actor::handle`]; see [`AnyMsgExt::downcast_msg`] for the helper.
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
    /// React to one message. `ctx` gives access to virtual time, the RNG,
    /// scheduling, spawning and metrics — everything except other actors'
    /// private state (communicate by message instead).
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMsg);

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
    Message { target: ActorId, msg: AnyMsg },
    /// Index-sized event for the scale path: no box, no downcast.
    Packed { target: ActorId, data: u64 },
    Control(Box<dyn FnOnce(&mut Sim)>),
}

/// The scheduling core shared between [`Sim`] and [`Ctx`].
struct Core {
    now: SimTime,
    seq: u64,
    queue: IndexedQueue<Payload>,
    rng: SimRng,
    metrics: Metrics,
    events_fired: u64,
    next_actor: u32,
    spawned: Vec<(ActorId, Box<dyn Actor>)>,
    killed: Vec<ActorId>,
    stopped: bool,
    /// Virtual-time profiler ([`profile`]): `None` (the default) keeps the
    /// hot path at one branch per event.
    profiler: Option<Profiler>,
}

impl Core {
    fn push(&mut self, at: SimTime, payload: Payload) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, seq, payload);
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
        let at = self.core.now + delay;
        self.core.push(at, Payload::Message { target, msg: Box::new(msg) });
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
    Msg(AnyMsg),
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
        let at = self.core.now + delay;
        self.core.push(at, Payload::Message { target, msg: Box::new(msg) });
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
    /// it can borrow the core. Shared by the boxed and packed lanes.
    fn deliver(&mut self, target: ActorId, ev: Delivery) {
        let idx = target.0 as usize;
        let taken = self.actors.get_mut(idx).and_then(|s| s.take());
        if let Some(mut actor) = taken {
            {
                let mut ctx = Ctx { core: &mut self.core, me: target };
                match ev {
                    Delivery::Msg(msg) => actor.handle(&mut ctx, msg),
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
            self.core.metrics.incr("des.dropped_to_dead");
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
            Payload::Message { target, msg } => self.deliver(target, Delivery::Msg(msg)),
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
                    ctx.metrics().incr("jitter.sent");
                }
            }
            let mut sim = Sim::new(seed);
            let a = sim.spawn(Jitter { peer: None, left: 50 });
            let b = sim.spawn(Jitter { peer: Some(a), left: 50 });
            sim.send_in(SimTime::ZERO, a, Go);
            sim.send_in(SimTime::ZERO, b, Go);
            sim.run();
            (sim.now(), sim.events_fired(), sim.metrics_ref().counter("jitter.sent"))
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

    #[test]
    fn actor_as_mut_allows_instrumented_mutation() {
        let mut sim = Sim::new(1);
        let c = sim.spawn(Counter { hits: 0, every: SimTime::from_millis(1), limit: 2 });
        sim.actor_as_mut::<Counter>(c).unwrap().limit = 3;
        sim.send_in(SimTime::ZERO, c, Tick);
        sim.run();
        assert_eq!(sim.actor_as::<Counter>(c).unwrap().hits, 3);
    }
}
