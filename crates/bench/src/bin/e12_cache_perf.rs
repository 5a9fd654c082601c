//! E12 — registry query cache + coalescing (see
//! `lc_bench::e12` for the workload and variant matrix).
//!
//! Usage: `e12_cache_perf [JSON_PATH]` — writes the machine-readable
//! summary (default `target/BENCH_e12.json`; the committed copy lives
//! at the repo root). Stdout and the JSON are byte-identical across
//! runs; ci.sh runs the binary twice and diffs both.

use lc_bench::e12;

fn main() {
    let path = std::env::args().nth(1).unwrap_or_else(|| "target/BENCH_e12.json".into());
    let out = e12::run(12);
    print!("{}", out.report);
    if let Err(e) = std::fs::write(&path, &out.json) {
        eprintln!("e12: failed to write {path}: {e}");
        std::process::exit(1);
    }
    // Stdout stays byte-identical regardless of the target path (ci.sh
    // diffs two runs writing to different files).
    println!("\nsummary: {} bytes of JSON written", out.json.len());
}
