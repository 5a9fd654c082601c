//! # lc-bench — the experiment harness
//!
//! One binary per figure/experiment of DESIGN.md §4 (`cargo run -p
//! lc-bench --release --bin <id>`). Every binary prints the table (or
//! figure facsimile) it regenerates; EXPERIMENTS.md records the outputs
//! and compares them against the paper's qualitative claims.
//!
//! The crate is pure virtual time: nothing in it reads a clock, every
//! column is simulated time or an exact count, and every binary is
//! byte-identical run to run (ci.sh double-runs them all). E12–E16 write
//! their `BENCH_e*.json` summary through [`Json`], the one writer. What
//! the hot paths cost the host is measured from outside the workspace by
//! the repo's benchmark — see `.perf/README.md`.

use lc_core::testkit::World;
use lc_core::{ServiceKind, ServiceMetrics};
use lc_net::HostId;
use std::fmt::Write as _;

pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod json;

pub use json::Json;

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

/// Print a titled ASCII table with aligned columns.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", format_table(title, headers, rows));
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

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(f3(1.2345), "1.234"); // rounds
        assert_eq!(human_bytes(100), "100 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(3 << 20), "3.00 MiB");
    }

    #[test]
    fn table_prints_without_panicking() {
        print_table(
            "demo",
            &["col1", "column2"],
            &[vec!["a".into(), "b".into()], vec!["longer".into(), "x".into()]],
        );
    }
}
