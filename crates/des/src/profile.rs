//! Virtual-time profiler for the DES kernel.
//!
//! Answers "where do the events and the simulated time go?" without
//! perturbing the simulation: the profiler only *observes* the event
//! stream inside [`crate::Sim::step`] — it schedules nothing, draws no
//! randomness and touches no actor state, so an enabled profiler cannot
//! change a run's history, and a disabled one (`Core.profiler == None`)
//! costs a single branch per event.
//!
//! Three attributions are kept, all in virtual time:
//!
//! * **per actor** — event count and simulated nanoseconds attributed to
//!   each [`crate::ActorId`] (the time an event "costs" is the calendar
//!   gap it closes: `at - now` when it fires);
//! * **per lane** — boxed message / packed / control;
//! * **per packed kind** — the top byte of the packed `u64`, which both
//!   packed-lane users (`lc_core::scale` events, `lc_core::node` timer
//!   ticks) use as their event-kind tag.
//!
//! Queue-depth and arena-size telemetry is sampled on a configurable
//! virtual-time cadence with a hard cap on retained samples, so profiling
//! a 10⁶-node run stays at bounded memory.

use crate::time::SimTime;

/// Which scheduling lane an event travelled on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Lane {
    /// Boxed `AnyMsg` delivery.
    Message = 0,
    /// Zero-allocation packed `u64` delivery.
    Packed = 1,
    /// Control closure with world access.
    Control = 2,
}

/// Configuration for [`crate::Sim::enable_profiler`].
#[derive(Clone, Copy, Debug)]
pub struct ProfilerConfig {
    /// Virtual-time cadence for queue-depth/arena samples.
    /// [`SimTime::ZERO`] disables sampling entirely.
    pub sample_every: SimTime,
    /// Hard cap on retained queue samples; once full, further samples
    /// are counted in [`ProfileReport::samples_dropped`] but not stored.
    pub max_samples: usize,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            sample_every: SimTime::from_millis(100),
            max_samples: 4096,
        }
    }
}

/// One queue-telemetry sample taken at a virtual instant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QueueSample {
    /// Virtual time of the sample.
    pub at: SimTime,
    /// Pending events in the calendar (after the current pop).
    pub depth: usize,
    /// Bytes held by the calendar arena.
    pub arena_bytes: usize,
}

/// Per-bucket tally: event count plus attributed simulated nanoseconds.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Tally {
    /// Events attributed to this bucket.
    pub events: u64,
    /// Simulated nanoseconds attributed to this bucket (the calendar
    /// gap each event closed when it fired).
    pub sim_ns: u64,
}

impl Tally {
    fn note(&mut self, dt_ns: u64) {
        self.events += 1;
        self.sim_ns += dt_ns;
    }
}

/// The in-kernel profiler state. Owned by `Core`; driven by `Sim::step`.
pub struct Profiler {
    cfg: ProfilerConfig,
    started_at: SimTime,
    next_sample: SimTime,
    actors: Vec<Tally>,
    kinds: Box<[Tally; 256]>,
    lanes: [Tally; 3],
    samples: Vec<QueueSample>,
    samples_dropped: u64,
    depth_max: usize,
    arena_max: usize,
}

impl Profiler {
    pub(crate) fn new(cfg: ProfilerConfig, now: SimTime) -> Self {
        let next_sample = if cfg.sample_every == SimTime::ZERO {
            SimTime::ZERO
        } else {
            now + cfg.sample_every
        };
        Profiler {
            cfg,
            started_at: now,
            next_sample,
            actors: Vec::new(),
            kinds: Box::new([Tally::default(); 256]),
            lanes: [Tally::default(); 3],
            samples: Vec::new(),
            samples_dropped: 0,
            depth_max: 0,
            arena_max: 0,
        }
    }

    /// Record one fired event. `actor` is `None` for control closures;
    /// `kind` is the packed event's top byte (packed lane only).
    #[inline]
    pub(crate) fn on_event(&mut self, dt_ns: u64, lane: Lane, actor: Option<u32>, kind: Option<u8>) {
        self.lanes[lane as usize].note(dt_ns);
        if let Some(a) = actor {
            let idx = a as usize;
            if self.actors.len() <= idx {
                self.actors.resize(idx + 1, Tally::default());
            }
            self.actors[idx].note(dt_ns);
        }
        if let Some(k) = kind {
            self.kinds[k as usize].note(dt_ns);
        }
    }

    /// Take a queue-telemetry sample if the cadence is due, catching up
    /// over long event gaps without emitting duplicate timestamps.
    #[inline]
    pub(crate) fn sample_if_due(&mut self, now: SimTime, depth: usize, arena_bytes: usize) {
        self.depth_max = self.depth_max.max(depth);
        self.arena_max = self.arena_max.max(arena_bytes);
        if self.cfg.sample_every == SimTime::ZERO || now < self.next_sample {
            return;
        }
        if self.samples.len() < self.cfg.max_samples {
            self.samples.push(QueueSample { at: self.next_sample, depth, arena_bytes });
        } else {
            self.samples_dropped += 1;
        }
        // Skip ahead past any cadence points swallowed by a long gap so
        // one idle stretch never floods the sample buffer.
        while self.next_sample <= now {
            self.next_sample += self.cfg.sample_every;
        }
    }

    /// Snapshot the profile accumulated so far.
    pub fn report(&self, now: SimTime, events_fired: u64) -> ProfileReport {
        let actors = self
            .actors
            .iter()
            .enumerate()
            .filter(|(_, t)| t.events > 0)
            .map(|(i, t)| (i as u32, *t))
            .collect();
        let kinds = self
            .kinds
            .iter()
            .enumerate()
            .filter(|(_, t)| t.events > 0)
            .map(|(i, t)| (i as u8, *t))
            .collect();
        ProfileReport {
            started_at: self.started_at,
            horizon: now,
            events: events_fired,
            actors,
            kinds,
            lanes: self.lanes,
            samples: self.samples.clone(),
            samples_dropped: self.samples_dropped,
            depth_max: self.depth_max,
            arena_bytes_max: self.arena_max,
        }
    }
}

/// Immutable snapshot of a [`Profiler`], detached from the kernel.
///
/// `lc-trace::profile` renders these into deterministic tables and
/// collapsed-stack lines.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Virtual time when the profiler was enabled.
    pub started_at: SimTime,
    /// Virtual time of the snapshot.
    pub horizon: SimTime,
    /// Total events fired by the simulation at snapshot time.
    pub events: u64,
    /// Per-actor tallies, ascending by actor id; zero rows elided.
    pub actors: Vec<(u32, Tally)>,
    /// Per-packed-kind tallies (top byte of the packed word), ascending;
    /// zero rows elided.
    pub kinds: Vec<(u8, Tally)>,
    /// Per-lane tallies indexed by [`Lane`].
    pub lanes: [Tally; 3],
    /// Queue-depth/arena samples on the configured cadence.
    pub samples: Vec<QueueSample>,
    /// Samples suppressed by the `max_samples` cap.
    pub samples_dropped: u64,
    /// Maximum queue depth observed at any event boundary.
    pub depth_max: usize,
    /// Maximum calendar-arena bytes observed at any event boundary.
    pub arena_bytes_max: usize,
}

impl ProfileReport {
    /// Events attributed to `lane`.
    pub fn lane(&self, lane: Lane) -> Tally {
        self.lanes[lane as usize]
    }

    /// The busiest actors by event count (ties broken by ascending id),
    /// at most `n` rows.
    pub fn top_actors(&self, n: usize) -> Vec<(u32, Tally)> {
        let mut rows = self.actors.clone();
        rows.sort_by(|a, b| b.1.events.cmp(&a.1.events).then(a.0.cmp(&b.0)));
        rows.truncate(n);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Actor, AnyMsg, Ctx, Sim};

    struct Echo;
    struct Ping;
    impl Actor for Echo {
        fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: AnyMsg) {
            if ctx.now() < SimTime::from_millis(50) {
                ctx.timer_in(SimTime::from_millis(1), Ping);
            }
        }
    }

    fn run(profiled: bool) -> (Sim, Option<ProfileReport>) {
        let mut sim = Sim::new(9);
        if profiled {
            sim.enable_profiler(ProfilerConfig {
                sample_every: SimTime::from_millis(10),
                max_samples: 3,
            });
        }
        let a = sim.spawn(Echo);
        sim.send_in(SimTime::ZERO, a, Ping);
        sim.send_packed(SimTime::from_millis(2), a, 7u64 << 56 | 42);
        sim.run();
        let report = sim.profile_report();
        (sim, report)
    }

    #[test]
    fn profiler_attributes_events_and_time() {
        let (sim, report) = run(true);
        let r = report.expect("profiler enabled");
        assert_eq!(r.events, sim.events_fired());
        assert_eq!(r.actors.len(), 1);
        assert_eq!(r.actors[0].0, 0);
        assert_eq!(r.lane(Lane::Packed).events, 1);
        assert_eq!(r.kinds, vec![(7u8, Tally { events: 1, sim_ns: 1_000_000 })]);
        // Every fired event is attributed to exactly one lane...
        let lane_total: u64 = r.lanes.iter().map(|t| t.events).sum();
        assert_eq!(lane_total, r.events);
        // ...and the lane-attributed sim time covers the whole horizon.
        let ns_total: u64 = r.lanes.iter().map(|t| t.sim_ns).sum();
        assert_eq!(ns_total, r.horizon.as_nanos());
    }

    #[test]
    fn sampling_respects_cadence_and_cap() {
        let (_, report) = run(true);
        let r = report.expect("profiler enabled");
        assert_eq!(r.samples.len(), 3); // capped at max_samples
        assert!(r.samples_dropped > 0);
        assert_eq!(r.samples[0].at, SimTime::from_millis(10));
        assert_eq!(r.samples[1].at, SimTime::from_millis(20));
        assert!(r.depth_max >= 1);
    }

    #[test]
    fn profiler_does_not_perturb_the_run() {
        let (plain, none) = run(false);
        let (profiled, _) = run(true);
        assert!(none.is_none());
        assert_eq!(plain.now(), profiled.now());
        assert_eq!(plain.events_fired(), profiled.events_fired());
    }
}
