//! E14 — sharded registry driver (see `lc_bench::e14` for the model
//! and variant ladder).
//!
//! Usage: `e14_sharded_registry [--max-nodes N] [--gate-reduction R] [JSON_PATH]`
//!
//! * `--max-nodes N` caps the sweep (ci.sh smoke runs cap at 1024; the
//!   committed `BENCH_e14.json` includes the 8k end points).
//! * `--gate-reduction R` exits non-zero if any 4+-shard point on the
//!   1k campus reduces the former leader's recv bytes by less than `R`x
//!   or regresses p99 over the single-leader row — the hotspot gate.
//!
//! Stdout and the JSON are byte-identical across runs; ci.sh diffs a
//! double run and the committed artefact.

use lc_bench::e14;

fn main() {
    let mut max_nodes: u32 = 8192;
    let mut gate: Option<f64> = None;
    let mut path = "target/BENCH_e14.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--max-nodes" => {
                let v = args.next().unwrap_or_default();
                max_nodes = v.parse().unwrap_or_else(|_| die(&format!("bad --max-nodes {v}")));
            }
            "--gate-reduction" => {
                let v = args.next().unwrap_or_default();
                gate = Some(v.parse().unwrap_or_else(|_| die(&format!("bad gate {v}"))));
            }
            p => path = p.to_string(),
        }
    }

    let seed = 14;
    let points = e14::run(seed, max_nodes);
    let out = e14::render(&points, seed);
    print!("{}", out.report);
    if let Err(e) = std::fs::write(&path, &out.json) {
        eprintln!("e14: failed to write {path}: {e}");
        std::process::exit(1);
    }
    println!("\nsummary: {} sweep points written to JSON", points.len());

    if let Some(r) = gate {
        let single_p99 = points
            .iter()
            .find(|p| p.point.nodes == 1024 && p.point.shards == 0)
            .map(|p| p.p99_ms)
            .unwrap_or(f64::INFINITY);
        let single_leader_recv = points
            .iter()
            .find(|p| p.point.nodes == 1024 && p.point.shards == 0)
            .map(|p| p.leader_recv)
            .unwrap_or(0);
        for p in points.iter().filter(|p| p.point.nodes == 1024 && p.point.shards >= 4)
        {
            let red = single_leader_recv as f64 / p.leader_recv.max(1) as f64;
            if red < r {
                eprintln!(
                    "e14: hotspot gate FAILED at {} shards: reduction {red:.2} < {r:.2}",
                    p.point.shards
                );
                std::process::exit(1);
            }
            if p.p99_ms > single_p99 {
                eprintln!(
                    "e14: latency gate FAILED at {} shards: p99 {:.2}ms > single-leader {:.2}ms",
                    p.point.shards, p.p99_ms, single_p99
                );
                std::process::exit(1);
            }
        }
        println!("hotspot gate ok: >= {r:.2}x former-leader reduction, p99 no worse at 4+ shards");
    }
}

fn die(msg: &str) -> ! {
    eprintln!("e14: {msg}");
    std::process::exit(2);
}
