//! E13 — scale sweep driver (see `lc_bench::e13` for the model and
//! variant matrix).
//!
//! Usage: `e13_scale_sweep [--max-nodes N] [--gate-bytes-per-node T] [JSON_PATH]`
//!
//! * `--max-nodes N` caps the sweep (ci.sh smoke runs use 10⁴; the
//!   committed `BENCH_e13.json` is the full 10⁶ sweep).
//! * `--gate-bytes-per-node T` exits non-zero if the largest `hier`
//!   point exceeds `T` bytes of state per node — the memory regression
//!   gate.
//!
//! Stdout and the JSON are byte-identical across runs; ci.sh diffs a
//! double run and the committed artefact.

use lc_bench::e13;

fn main() {
    let mut max_nodes: u32 = 1_000_000;
    let mut gate: Option<f64> = None;
    let mut path = "target/BENCH_e13.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--max-nodes" => {
                let v = args.next().unwrap_or_default();
                max_nodes = v.parse().unwrap_or_else(|_| die(&format!("bad --max-nodes {v}")));
            }
            "--gate-bytes-per-node" => {
                let v = args.next().unwrap_or_default();
                gate = Some(v.parse().unwrap_or_else(|_| die(&format!("bad gate {v}"))));
            }
            p => path = p.to_string(),
        }
    }

    let seed = 13;
    let points = e13::run(seed, max_nodes);
    let out = e13::render(&points, seed);
    print!("{}", out.report);
    if let Err(e) = std::fs::write(&path, &out.json) {
        eprintln!("e13: failed to write {path}: {e}");
        std::process::exit(1);
    }
    println!("\nsummary: {} sweep points written to JSON", points.len());

    if let Some(t) = gate {
        let worst = points
            .iter()
            .filter(|r| r.variant == "hier")
            .max_by_key(|r| r.n)
            .map(|r| r.bytes_per_node)
            .unwrap_or(0.0);
        if worst > t {
            eprintln!("e13: memory gate FAILED: {worst:.2} bytes/node > {t:.2}");
            std::process::exit(1);
        }
        println!("memory gate ok: {worst:.2} bytes/node <= {t:.2}");
    }
}

fn die(msg: &str) -> ! {
    eprintln!("e13: {msg}");
    std::process::exit(2);
}
