//! # lc-bench — the experiment harness
//!
//! Every figure and experiment of DESIGN.md §4 is a module of this
//! crate with one entry point, a pure function returning an [`Output`]:
//! the report it prints, the files it writes and whether one of its
//! gates failed. [`EXPERIMENTS`] lists them, and the `lcx` binary
//! (`cargo run -p lc-bench --release -- <id>`) is the only code here
//! that prints, writes a file or sets an exit code. EXPERIMENTS.md
//! records the outputs and compares them against the paper's
//! qualitative claims.
//!
//! The crate is pure virtual time: nothing in it reads a clock, every
//! column is simulated time or an exact count, and every experiment is
//! byte-identical run to run (ci.sh double-runs them all). E12–E16
//! render their `BENCH_e*.json` summary through [`Json`], the one
//! writer. What the hot paths cost the host is measured from outside
//! the workspace by the repo's benchmark — see `.perf/README.md`.

use lc_core::testkit::World;
use lc_core::{ServiceKind, ServiceMetrics};
use lc_net::HostId;
use std::fmt::Write as _;

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod f1;
pub mod f2;
pub mod json;

pub use json::Json;

/// Everything one run of an experiment produces.
#[derive(Default)]
pub struct Output {
    /// The human-readable report (stdout).
    pub report: String,
    /// Files to write, as `(suffix, contents)`: the runner appends each
    /// suffix to the output stem it was given.
    pub files: Vec<(&'static str, String)>,
    /// Why the run must exit non-zero: a gate that did not hold, or a
    /// step of the scenario that could not complete.
    pub failed: Option<String>,
}

impl Output {
    /// A run that stopped before it had a report.
    pub fn failed(why: impl Into<String>) -> Output {
        Output { failed: Some(why.into()), ..Output::default() }
    }
}

/// How an experiment is run.
#[derive(Clone, Copy)]
pub enum Run {
    /// One fixed workload.
    Fixed(fn() -> Output),
    /// A sweep over campus sizes up to a cap (`--max-nodes`); `full` is
    /// the cap the committed artefact was produced with.
    Sweep {
        /// Default cap.
        full: u32,
        /// Entry point, given the cap.
        run: fn(u32) -> Output,
    },
}

/// Every experiment: `(id, what it shows, how to run it)`.
pub const EXPERIMENTS: [(&str, &str, Run); 18] = [
    ("f1", "Figure 1: logical internal node structure", Run::Fixed(f1::run)),
    ("f2", "Figure 2: CSCW application model", Run::Fixed(f2::run)),
    ("e1", "R1 lightweight: what one invocation passes through", Run::Fixed(e1::run)),
    ("e2", "R4 query scalability: hierarchical MRMs vs flat registry", Run::Fixed(e2::run)),
    ("e3", "R4 soft vs strong consistency under churn", Run::Fixed(e3::run)),
    ("e4", "R4 MRM replication: availability and failover time", Run::Fixed(e4::run)),
    ("e5", "R6 run-time deployment vs static assembly", Run::Fixed(e5::run)),
    ("e6", "video decoder placement: use-remote vs fetch-local vs migrate", Run::Fixed(e6::run)),
    ("e7", "R7/R8 whiteboard stroke fan-out with a PDA participant", Run::Fixed(e7::run)),
    ("e8", "grid data-parallel aggregation: speedup and volunteer loss", Run::Fixed(e8::run)),
    ("e9", "packaging: compression, signing, partial extraction", Run::Fixed(e9::run)),
    ("e10", "fault injection: retry/backoff, query degradation, partitions", Run::Fixed(e10::run)),
    ("e11", "observability: tracing, node metrics, flight recorder", Run::Fixed(e11::run)),
    ("e12", "registry query cache + coalescing", Run::Fixed(e12::run)),
    (
        "e13",
        "scale sweep to 10^6 nodes: hier vs flat",
        Run::Sweep { full: 1_000_000, run: e13::run },
    ),
    (
        "e14",
        "sharded registry vs single leader under churn",
        Run::Sweep { full: 8192, run: e14::run },
    ),
    (
        "e15",
        "profiling, sampling and SLO monitors at scale",
        Run::Sweep { full: 100_000, run: e15::run },
    ),
    ("e16", "open-loop capacity under overload control", Run::Fixed(e16::run)),
];

/// Render a titled ASCII table with aligned columns.
pub fn format_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut doc = String::new();
    let _ = writeln!(doc, "\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(line, "{h:>w$}  ");
    }
    let _ = writeln!(doc, "{line}");
    let _ = writeln!(doc, "{}", "-".repeat(line.len().min(100)));
    for row in rows {
        let mut out = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(out, "{cell:>w$}  ");
        }
        let _ = writeln!(doc, "{out}");
    }
    doc
}

/// Rows of the per-service breakdown table (`service`, `msgs in`,
/// `msgs out`, `dispatches`): each node's `NodeMetrics` summed over
/// `hosts` (hosts without a live node are skipped).
pub fn per_service_rows(world: &World, hosts: impl IntoIterator<Item = HostId>) -> Vec<Vec<String>> {
    let mut sum = [ServiceMetrics::default(); 5];
    for host in hosts {
        let Some(node) = world.node(host) else { continue };
        for (acc, kind) in sum.iter_mut().zip(ServiceKind::ALL) {
            *acc += node.node_metrics().service(kind);
        }
    }
    ServiceKind::ALL
        .iter()
        .zip(sum)
        .map(|(kind, m)| {
            vec![
                kind.name().to_string(),
                m.msgs_in.to_string(),
                m.msgs_out.to_string(),
                m.dispatches.to_string(),
            ]
        })
        .collect()
}

/// Column headers matching [`per_service_rows`].
pub const PER_SERVICE_HEADERS: [&str; 4] = ["service", "msgs in", "msgs out", "dispatches"];

/// Format a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format bytes human-readably.
pub fn human_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::path::Path;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(f3(1.2345), "1.234"); // rounds
        assert_eq!(human_bytes(100), "100 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(3 << 20), "3.00 MiB");
    }

    /// The experiments that finish in well under a second, with their
    /// committed stdout (ci.sh diffs all thirteen goldens; these six
    /// are cheap enough for `cargo test`). E5 runs local and remote
    /// assembly spawns and load-balance migrations of named instances.
    const FAST_GOLDENS: [(&str, &str); 6] = [
        ("f1", include_str!("../../../golden/f1.out")),
        ("f2", include_str!("../../../golden/f2.out")),
        ("e1", include_str!("../../../golden/e1.out")),
        ("e3", include_str!("../../../golden/e3.out")),
        ("e4", include_str!("../../../golden/e4.out")),
        ("e5", include_str!("../../../golden/e5.out")),
    ];

    #[test]
    fn fast_experiments_print_their_committed_goldens() {
        for (id, golden) in FAST_GOLDENS {
            let Some((.., Run::Fixed(run))) = EXPERIMENTS.iter().find(|(known, ..)| *known == id)
            else {
                panic!("{id} is not a fixed experiment of the table");
            };
            let out = run();
            assert_eq!(out.failed, None, "{id} failed");
            assert!(out.files.is_empty(), "{id} writes files its golden cannot gate");
            assert_eq!(out.report, golden, "{id} drifted from golden/{id}.out");
        }
    }

    #[test]
    fn every_experiment_is_gated_by_exactly_one_committed_artefact() {
        let ids: BTreeSet<&str> = EXPERIMENTS.iter().map(|(id, ..)| *id).collect();
        assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate experiment id");

        // An experiment either commits a `BENCH_<id>.json` summary at
        // the repo root or its stdout as `golden/<id>.out`.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let stdout_gated: BTreeSet<String> = ids
            .iter()
            .filter(|id| !root.join(format!("BENCH_{id}.json")).exists())
            .map(|id| format!("{id}.out"))
            .collect();
        let committed: BTreeSet<String> = std::fs::read_dir(root.join("golden"))
            .expect("golden/ exists")
            .map(|entry| entry.expect("readable entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(stdout_gated, committed);
    }
}
