//! Deterministic, seeded message-level fault injection.
//!
//! A [`FaultPlan`] describes what the network does to messages *after*
//! the sender has paid for them: per-link loss, delay jitter,
//! duplication, reordering, timed partitions, and scheduled node
//! crash/restart windows. The plan is threaded through `Net::send` by
//! [`crate::NetBuilder::fault_plan`] and composes with `churn.rs`
//! (random exponential crash/recover) — a plan's *scheduled* crashes and
//! the churn driver's *random* ones share the same `ChurnHooks`.
//!
//! Two properties matter for the experiments:
//!
//! 1. **Determinism.** The plan owns its *own* [`SimRng`], seeded
//!    independently of the simulation RNG. The same topology + plan +
//!    workload replays bit-identically, and a `Net` built *without* a
//!    plan draws zero fault randomness — experiment outputs at zero
//!    injected faults are byte-identical to a fault-free build.
//! 2. **Silent loss.** Fault drops are invisible to the sender:
//!    `Net::send` still returns `Ok(would-have-arrived)` and the sender
//!    still serializes the message onto its uplink (the bytes went out;
//!    the network lost them). Recovery is the caller's job — deadlines,
//!    retries and duplicate suppression live in `lc-orb`/`lc-core`, not
//!    here. This is distinct from the fail-fast `Err(DropReason)` path,
//!    which models conditions a real ORB can detect at connect time.

use crate::topology::HostId;
use lc_des::{SimRng, SimTime};
use std::collections::BTreeMap;

/// Per-link fault knobs. All-zero (the default) means a perfect link.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkFaults {
    /// Probability a message is silently lost in transit.
    pub drop_p: f64,
    /// Probability a message is delivered twice (the copy gets its own
    /// jitter draw, so the twins usually arrive apart).
    pub dup_p: f64,
    /// Max extra delivery delay, drawn uniformly from `[0, jitter]`.
    pub jitter: SimTime,
    /// Probability a message is held back by `reorder_window`, letting
    /// later traffic overtake it.
    pub reorder_p: f64,
    /// How long a reordered message is held.
    pub reorder_window: SimTime,
}

impl LinkFaults {
    /// A perfect link (no injected faults).
    pub fn none() -> Self {
        Self::default()
    }

    /// Set the silent-loss probability.
    pub fn drop_p(mut self, p: f64) -> Self {
        self.drop_p = p;
        self
    }

    /// Set the duplication probability.
    pub fn dup_p(mut self, p: f64) -> Self {
        self.dup_p = p;
        self
    }

    /// Set the max uniform extra delay.
    pub fn jitter(mut self, j: SimTime) -> Self {
        self.jitter = j;
        self
    }

    /// Set the reorder probability and hold-back window.
    pub fn reorder(mut self, p: f64, window: SimTime) -> Self {
        self.reorder_p = p;
        self.reorder_window = window;
        self
    }

    /// True when every knob is zero — lets `Net::send` skip RNG draws
    /// entirely so unaffected links stay deterministic w.r.t. a
    /// fault-free run.
    pub fn is_quiet(&self) -> bool {
        self.drop_p == 0.0
            && self.dup_p == 0.0
            && self.jitter == SimTime::ZERO
            && self.reorder_p == 0.0
    }
}

/// A timed symmetric network cut: while active, messages between the
/// isolated set and everyone else are severed (silently, like loss —
/// senders cannot tell a partition from congestion).
#[derive(Clone, Debug)]
pub struct PartitionWindow {
    /// Cut begins (inclusive).
    pub from: SimTime,
    /// Cut heals (exclusive).
    pub until: SimTime,
    /// Hosts on the minority side of the cut.
    pub isolated: Vec<HostId>,
}

/// A scheduled node outage, installed by `Net::install_drivers` as
/// control events (crash at `down_at`, optional restart at `up_at`).
#[derive(Clone, Copy, Debug)]
pub struct CrashWindow {
    /// Host to take down.
    pub host: HostId,
    /// When it crashes.
    pub down_at: SimTime,
    /// When it restarts (`None` = stays down).
    pub up_at: Option<SimTime>,
}

/// What the plan decided for one message.
pub(crate) enum Verdict {
    /// Deliver, possibly late, possibly twice.
    Deliver {
        /// Extra delay past the normal FIFO delivery time.
        extra: SimTime,
        /// `Some(extra delay)` for a duplicate copy.
        duplicate: Option<SimTime>,
    },
    /// Silently lost by the link's `drop_p`.
    Dropped,
    /// Silently cut by an active [`PartitionWindow`].
    Severed,
}

/// A deterministic, seeded schedule of message- and node-level faults.
///
/// Build fluently and hand to [`crate::NetBuilder::fault_plan`]:
///
/// ```ignore
/// let plan = FaultPlan::seeded(7)
///     .default_link(LinkFaults::none().drop_p(0.05).jitter(SimTime::from_millis(2)))
///     .link(HostId(0), HostId(1), LinkFaults::none().dup_p(0.5))
///     .partition(SimTime::from_secs(10), SimTime::from_secs(20), &[HostId(3)])
///     .crash(HostId(5), SimTime::from_secs(4), Some(SimTime::from_secs(9)));
/// let net = Net::builder(topo).fault_plan(plan).build();
/// ```
#[derive(Debug)]
pub struct FaultPlan {
    rng: SimRng,
    default_link: LinkFaults,
    /// Directed per-link overrides, keyed `(from, to)`.
    links: BTreeMap<(HostId, HostId), LinkFaults>,
    partitions: Vec<PartitionWindow>,
    crashes: Vec<CrashWindow>,
}

impl FaultPlan {
    /// A plan whose probabilistic draws replay deterministically from
    /// `seed` (independent of the simulation RNG).
    #[expect(clippy::disallowed_methods, reason = "the fault plan owns its stream, apart from the kernel's")]
    pub fn seeded(seed: u64) -> Self {
        Self {
            rng: SimRng::seed_from_u64(seed ^ 0xfa_017_fab),
            default_link: LinkFaults::default(),
            links: BTreeMap::new(),
            partitions: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// Faults applied to every link without an explicit override.
    pub fn default_link(mut self, faults: LinkFaults) -> Self {
        self.default_link = faults;
        self
    }

    /// Directed override for the `from → to` link.
    pub fn link(mut self, from: HostId, to: HostId, faults: LinkFaults) -> Self {
        self.links.insert((from, to), faults);
        self
    }

    /// Sever `isolated` from the rest of the network during `[from, until)`.
    pub fn partition(mut self, from: SimTime, until: SimTime, isolated: &[HostId]) -> Self {
        self.partitions.push(PartitionWindow { from, until, isolated: isolated.to_vec() });
        self
    }

    /// Crash `host` at `down_at`; restart at `up_at` if given.
    pub fn crash(mut self, host: HostId, down_at: SimTime, up_at: Option<SimTime>) -> Self {
        self.crashes.push(CrashWindow { host, down_at, up_at });
        self
    }

    /// The scheduled crash windows (armed by `Net::install_drivers`).
    pub fn crashes(&self) -> &[CrashWindow] {
        &self.crashes
    }

    /// The faults governing the `from → to` link right now.
    pub fn link_faults(&self, from: HostId, to: HostId) -> LinkFaults {
        self.links.get(&(from, to)).copied().unwrap_or(self.default_link)
    }

    /// Is the `from → to` path cut by an active partition window?
    pub fn severed(&self, from: HostId, to: HostId, now: SimTime) -> bool {
        self.partitions.iter().any(|w| {
            now >= w.from
                && now < w.until
                && (w.isolated.contains(&from) != w.isolated.contains(&to))
        })
    }

    /// Judge one message on the `from → to` link. Draws from the plan's
    /// private RNG only when the link has non-zero knobs.
    pub(crate) fn decide(&mut self, from: HostId, to: HostId, now: SimTime) -> Verdict {
        if self.severed(from, to, now) {
            return Verdict::Severed;
        }
        let f = self.link_faults(from, to);
        if f.is_quiet() {
            return Verdict::Deliver { extra: SimTime::ZERO, duplicate: None };
        }
        if f.drop_p > 0.0 && self.rng.gen_f64() < f.drop_p {
            return Verdict::Dropped;
        }
        let mut extra = SimTime::ZERO;
        if f.jitter > SimTime::ZERO {
            extra += f.jitter.mul_f64(self.rng.gen_f64());
        }
        if f.reorder_p > 0.0 && self.rng.gen_f64() < f.reorder_p {
            extra += f.reorder_window;
        }
        let duplicate = if f.dup_p > 0.0 && self.rng.gen_f64() < f.dup_p {
            let mut dup_extra = SimTime::ZERO;
            if f.jitter > SimTime::ZERO {
                dup_extra += f.jitter.mul_f64(self.rng.gen_f64());
            }
            Some(dup_extra)
        } else {
            None
        };
        Verdict::Deliver { extra, duplicate }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_overrides_and_default() {
        let plan = FaultPlan::seeded(1)
            .default_link(LinkFaults::none().drop_p(0.5))
            .link(HostId(0), HostId(1), LinkFaults::none());
        assert_eq!(plan.link_faults(HostId(0), HostId(1)), LinkFaults::none());
        // directed: the reverse path keeps the default
        assert_eq!(plan.link_faults(HostId(1), HostId(0)).drop_p, 0.5);
        assert_eq!(plan.link_faults(HostId(2), HostId(3)).drop_p, 0.5);
    }

    #[test]
    fn partition_windows_are_timed_and_symmetric() {
        let plan = FaultPlan::seeded(1).partition(
            SimTime::from_secs(10),
            SimTime::from_secs(20),
            &[HostId(1), HostId(2)],
        );
        let (a, b, c) = (HostId(0), HostId(1), HostId(2));
        assert!(!plan.severed(a, b, SimTime::from_secs(5)));
        assert!(plan.severed(a, b, SimTime::from_secs(10)));
        assert!(plan.severed(b, a, SimTime::from_secs(15)));
        // both inside the isolated set: still connected
        assert!(!plan.severed(b, c, SimTime::from_secs(15)));
        assert!(!plan.severed(a, b, SimTime::from_secs(20)));
    }

    #[test]
    fn decide_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut plan = FaultPlan::seeded(seed).default_link(
                LinkFaults::none()
                    .drop_p(0.3)
                    .dup_p(0.2)
                    .jitter(SimTime::from_millis(5))
                    .reorder(0.1, SimTime::from_millis(20)),
            );
            (0..200)
                .map(|i| {
                    match plan.decide(HostId(0), HostId(1), SimTime::from_millis(i)) {
                        Verdict::Dropped => (0u64, 0u64, false),
                        Verdict::Severed => (1, 0, false),
                        Verdict::Deliver { extra, duplicate } => {
                            (2, extra.as_nanos(), duplicate.is_some())
                        }
                    }
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn quiet_links_draw_no_randomness() {
        let mut faulty = FaultPlan::seeded(9).link(
            HostId(0),
            HostId(1),
            LinkFaults::none().drop_p(1.0),
        );
        // quiet link first: must not advance the RNG
        assert!(matches!(
            faulty.decide(HostId(2), HostId(3), SimTime::ZERO),
            Verdict::Deliver { extra: SimTime::ZERO, duplicate: None }
        ));
        // the faulty link then sees the same stream as a fresh plan
        assert!(matches!(faulty.decide(HostId(0), HostId(1), SimTime::ZERO), Verdict::Dropped));
    }
}
