//! E15 — profiling driver (see `lc_bench::e15` for the model).
//!
//! Usage: `e15_profiling [--max-nodes N] [JSON_PATH]`
//!
//! * `--max-nodes N` caps the part-A profiler sweep (ci.sh smoke runs
//!   use 10⁴; the committed `BENCH_e15.json` is the full 10⁵ sweep).
//!
//! Besides the JSON, two deterministic artefacts land next to it: the
//! collapsed-stack flamegraph (`<json>.flame.txt`) and the per-node
//! virtual-time timeline (`<json>.timeline.txt`); ci.sh diffs all
//! three, and stdout, across a double run.

use lc_bench::e15;

fn main() {
    let mut max_nodes: u32 = 100_000;
    let mut path = "target/BENCH_e15.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--max-nodes" => {
                let v = args.next().unwrap_or_default();
                max_nodes = v.parse().unwrap_or_else(|_| die(&format!("bad --max-nodes {v}")));
            }
            p => path = p.to_string(),
        }
    }

    let seed = 15;
    let points = e15::run_profiled(seed, max_nodes);
    let runs: Vec<e15::TracedRun> = e15::RATES
        .iter()
        .map(|&(label, one_in)| e15::run_traced(seed, label, one_in))
        .collect();
    let out = e15::render(&points, &runs, seed);
    print!("{}", out.report);

    let base = path.strip_suffix(".json").unwrap_or(&path);
    let flame_path = format!("{base}.flame.txt");
    let timeline_path = format!("{base}.timeline.txt");
    for (p, body) in [(&path, &out.json), (&flame_path, &out.flame), (&timeline_path, &out.timeline)] {
        if let Err(e) = std::fs::write(p, body) {
            eprintln!("e15: failed to write {p}: {e}");
            std::process::exit(1);
        }
    }
    println!(
        "\nsummary: {} profiler points + {} traced runs written to JSON; \
         flamegraph {} lines, timeline {} lines",
        points.len(),
        runs.len(),
        out.flame.lines().count(),
        out.timeline.lines().count(),
    );

    for p in &points {
        if !p.identical {
            eprintln!("e15: profiler perturbed the {}-node simulation", p.n);
            std::process::exit(1);
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("e15: {msg}");
    std::process::exit(2);
}
