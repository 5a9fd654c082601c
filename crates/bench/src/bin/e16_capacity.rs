//! E16 — open-loop capacity under overload control (see `lc_bench::e16`
//! for the workload, variants and gates).
//!
//! Usage: `e16_capacity [JSON_PATH]` — writes the machine-readable
//! summary (default `target/BENCH_e16.json`; the committed copy lives
//! at the repo root). Stdout and the JSON are byte-identical across
//! runs; ci.sh runs the binary twice and diffs both. Exits non-zero
//! when the overload-control gates fail.

use lc_bench::e16;

fn main() {
    let path = match std::env::args().nth(1) {
        Some(a) if a.starts_with("--") => die(&format!("unknown flag {a}")),
        Some(a) => a,
        None => "target/BENCH_e16.json".into(),
    };

    let out = e16::run(16);
    print!("{}", out.report);
    if let Err(e) = std::fs::write(&path, &out.json) {
        eprintln!("e16: failed to write {path}: {e}");
        std::process::exit(1);
    }
    // Stdout stays byte-identical regardless of the target path (ci.sh
    // diffs two runs writing to different files).
    println!("\nsummary: {} bytes of JSON written", out.json.len());
    if !out.gates_ok {
        eprintln!("e16: overload-control gates FAILED");
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("e16: {msg}");
    std::process::exit(2);
}
