//! Deterministic rendering of the DES kernel's virtual-time profile.
//!
//! `lc-des` owns the measurement ([`lc_des::Profiler`] — it must sit in
//! the kernel's hot loop); this module owns the *presentation*: fixed-
//! width tables and collapsed-stack lines with every number derived from
//! virtual time and event counts, so profiler output is as reproducible
//! as the simulation itself. Kind names are supplied by the caller (the
//! kernel only knows the packed tag byte; the scale model knows what it
//! means).

use lc_des::{Lane, ProfileReport};
use std::fmt::Write as _;

/// Name a packed-event kind byte, falling back to `k<N>`.
fn kind_name(names: &[(u8, &str)], k: u8) -> String {
    names
        .iter()
        .find(|(b, _)| *b == k)
        .map(|(_, n)| (*n).to_owned())
        .unwrap_or_else(|| format!("k{k}"))
}

/// Render the profile as a fixed-width report: totals, per-lane and
/// per-kind tables, the top `top` actors, and queue telemetry. All
/// columns are virtual-time/count derived — byte-identical across runs.
pub fn render(r: &ProfileReport, names: &[(u8, &str)], top: usize) -> String {
    let mut out = String::new();
    let horizon = r.horizon.as_nanos().saturating_sub(r.started_at.as_nanos());
    let _ = writeln!(
        out,
        "profile: {} events over {} virtual ns ({} actors, depth max {}, arena max {} B)",
        r.events,
        horizon,
        r.actors.len(),
        r.depth_max,
        r.arena_bytes_max
    );
    let _ = writeln!(out, "  lane      events        sim_ns");
    for (lane, label) in
        [(Lane::Message, "message"), (Lane::Packed, "packed"), (Lane::Control, "control")]
    {
        let tally = r.lane(lane);
        let _ = writeln!(out, "  {label:<8} {:>9} {:>13}", tally.events, tally.sim_ns);
    }
    if !r.kinds.is_empty() {
        let _ = writeln!(out, "  kind          events        sim_ns");
        for (k, tally) in &r.kinds {
            let _ = writeln!(
                out,
                "  {:<12} {:>9} {:>13}",
                kind_name(names, *k),
                tally.events,
                tally.sim_ns
            );
        }
    }
    let leaders = r.top_actors(top);
    if !leaders.is_empty() {
        let _ = writeln!(out, "  top actors      events        sim_ns");
        for (id, tally) in leaders {
            let _ = writeln!(out, "  actor#{id:<9} {:>9} {:>13}", tally.events, tally.sim_ns);
        }
    }
    let _ = writeln!(
        out,
        "  queue samples: {} kept, {} dropped",
        r.samples.len(),
        r.samples_dropped
    );
    out
}

/// Collapsed-stack lines for the kernel profile (`lane;kind weight`),
/// weighted by attributed simulated nanoseconds — mergeable with the
/// span-tree stacks from [`crate::flame::to_collapsed`] into one
/// flamegraph. Sorted, byte-identical across identical runs.
pub fn to_collapsed(r: &ProfileReport, names: &[(u8, &str)]) -> String {
    let mut rows: Vec<(String, u64)> = Vec::new();
    let packed_in_kinds: u64 = r.kinds.iter().map(|(_, t)| t.sim_ns).sum();
    for (lane, label) in [(Lane::Message, "message"), (Lane::Control, "control")] {
        let tally = r.lane(lane);
        if tally.events > 0 {
            rows.push((format!("des;{label}"), tally.sim_ns));
        }
    }
    for (k, tally) in &r.kinds {
        rows.push((format!("des;packed;{}", kind_name(names, *k)), tally.sim_ns));
    }
    // packed events without a kind table entry keep their residual weight
    let packed = r.lane(Lane::Packed);
    if packed.events > 0 && packed.sim_ns > packed_in_kinds {
        rows.push(("des;packed".to_owned(), packed.sim_ns - packed_in_kinds));
    }
    crate::flame::write_collapsed(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_des::{Actor, AnyMsg, Ctx, ProfilerConfig, Sim, SimTime};

    struct Echo;
    struct Ping;
    impl Actor for Echo {
        fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: AnyMsg) {
            if ctx.now() < SimTime::from_millis(10) {
                ctx.timer_in(SimTime::from_millis(1), Ping);
            }
        }
    }

    fn profiled() -> ProfileReport {
        let mut sim = Sim::new(4);
        sim.enable_profiler(ProfilerConfig::default());
        let a = sim.spawn(Echo);
        sim.send_in(SimTime::ZERO, a, Ping);
        sim.send_packed(SimTime::from_millis(1), a, 3u64 << 56);
        sim.run();
        sim.profile_report().expect("profiler on")
    }

    #[test]
    fn render_is_deterministic_and_names_kinds() {
        let r = profiled();
        let names = [(3u8, "report")];
        let a = render(&r, &names, 4);
        assert_eq!(a, render(&profiled(), &names, 4));
        assert!(a.contains("profile: "));
        assert!(a.contains("report"));
        assert!(render(&r, &[], 4).contains("k3"));
    }

    #[test]
    fn collapsed_covers_all_lanes() {
        let r = profiled();
        let out = to_collapsed(&r, &[(3, "report")]);
        assert!(out.contains("des;message "));
        assert!(out.contains("des;packed;report "));
        let total: u64 = out
            .lines()
            .filter_map(|l| l.rsplit(' ').next())
            .filter_map(|w| w.parse::<u64>().ok())
            .sum();
        let lane_total: u64 =
            [Lane::Message, Lane::Packed, Lane::Control].iter().map(|&l| r.lane(l).sim_ns).sum();
        assert_eq!(total, lane_total);
    }
}
