//! `lcperf` — the repo's benchmark.
//!
//! ```text
//! lcperf [run] --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! lcperf selftest
//! lcperf noise [--sets 2] [--runs 5] [--seconds S] [workload…]
//! ```
//!
//! One process, one thread. `run` prints every metric by name with its
//! unit, checks the program's outputs, writes `out/<workload>.json` (and,
//! traced, `out/trace-<workload>.jsonl`) next to this crate's manifest,
//! and ends with one JSON line: `correct`, `attempted`, `failed`, `metrics`.

mod alloc;
mod clock;
mod micro;
mod noise;
mod run;
mod selftest;
mod spans;
mod stats;
mod trace;
mod workload;

use run::{RunOpts, RunResult};
use spans::Spans;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 15.0;

fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark's out/ directory");
    dir
}

/// JSON number: every digit the measurement has.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric is not a finite number");
    format!("{v}")
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn result_line(r: &RunResult, metrics: &[(&str, f64, &str)]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct(),
        r.outcomes.attempted,
        r.outcomes.failed,
        metrics_json(metrics)
    )
}

fn report(r: &RunResult, metrics: &[(&str, f64, &str)]) {
    println!(
        "workload {}  seed {}  ({} epochs)",
        r.workload,
        r.seed,
        r.epochs.len()
    );
    for (name, value, unit) in metrics {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    println!("  -- diagnostics");
    for (name, value) in r.diagnostics() {
        println!("  {name:<40} {value:>16.6}");
    }
    println!(
        "  sim_fingerprint                          {:016x}",
        r.fingerprint()
    );
    println!(
        "  ops attempted {}  failed {}  correct {}",
        r.outcomes.attempted,
        r.outcomes.failed,
        r.correct()
    );
    for v in &r.outcomes.violations {
        println!("  VIOLATION: {v}");
    }
}

/// Write the run's report: metrics, diagnostics, fingerprint and — for a
/// traced run — the trace boiled down to one row per span name and the
/// profiler's events per kind.
fn write_json(r: &RunResult, metrics: &[(&str, f64, &str)], traced: Option<&trace::Traced>) {
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"workload\": \"{}\",", r.workload);
    let _ = writeln!(j, "  \"seed\": {},", r.seed);
    let _ = writeln!(j, "  \"correct\": {},", r.correct());
    let _ = writeln!(j, "  \"attempted\": {},", r.outcomes.attempted);
    let _ = writeln!(j, "  \"failed\": {},", r.outcomes.failed);
    let _ = writeln!(j, "  \"sim_fingerprint\": \"{:016x}\",", r.fingerprint());
    let members = |j: &mut String, rows: Vec<String>| {
        let _ = writeln!(j, "{}", rows.join(",\n"));
    };
    let _ = writeln!(j, "  \"metrics\": {{");
    let rows = metrics
        .iter()
        .map(|(n, v, u)| format!("    \"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)));
    members(&mut j, rows.collect());
    let _ = writeln!(j, "  }},");
    if let Some(t) = traced {
        let _ = writeln!(j, "  \"spans\": [");
        let rows = t.spans.summary().into_iter().map(|(name, count, total, own)| {
            format!(
                "    {{\"name\": \"{name}\", \"count\": {count}, \"total_ns\": {total}, \"self_ns\": {own}}}"
            )
        });
        members(&mut j, rows.collect());
        let _ = writeln!(j, "  ],");
        let _ = writeln!(j, "  \"events_by_kind\": {{");
        let rows = t
            .profile
            .iter()
            .map(|(kind, events)| format!("    \"{kind}\": {events}"));
        members(&mut j, rows.collect());
        let _ = writeln!(j, "  }},");
    }
    let _ = writeln!(j, "  \"diagnostics\": {{");
    let rows = r
        .diagnostics()
        .into_iter()
        .map(|(n, v)| format!("    \"{n}\": {}", num(v)));
    members(&mut j, rows.collect());
    let _ = writeln!(j, "  }}");
    let _ = writeln!(j, "}}");
    let file = format!(
        "{}{}.json",
        if traced.is_some() { "layers-" } else { "" },
        r.workload
    );
    std::fs::write(out_dir().join(file), j).expect("write the run's JSON report");
}

/// Everything a run leaves behind: the readable report, the JSON file and,
/// last on stdout, the one-line result.
fn emit(r: &RunResult, metrics: &[(&str, f64, &str)], traced: Option<&trace::Traced>) {
    report(r, metrics);
    write_json(r, metrics, traced);
    println!("{}", result_line(r, metrics));
}

struct Args {
    command: String,
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: u32,
    runs: u32,
}

fn value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let v = it.next().ok_or(format!("{flag} needs a value"))?;
    v.parse().map_err(|e| format!("{flag} {v}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        command: "run".to_owned(),
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        sets: 2,
        runs: 5,
    };
    let mut it = std::env::args().skip(1).peekable();
    if let Some(cmd) = it.next_if(|c| ["run", "selftest", "noise"].contains(&c.as_str())) {
        a.command = cmd;
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => a.workloads.push(value(&mut it, "--workload")?),
            "--seed" => a.seed = value(&mut it, "--seed")?,
            "--seconds" => a.seconds = value(&mut it, "--seconds")?,
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                a.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1")
            }
            "--sets" => a.sets = value(&mut it, "--sets")?,
            "--runs" => a.runs = value(&mut it, "--runs")?,
            w if !w.starts_with('-') => a.workloads.push(w.to_owned()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    if let Some(w) = a
        .workloads
        .iter()
        .find(|w| !workload::NAMES.contains(&w.as_str()))
    {
        return Err(format!(
            "unknown workload '{w}' (known: {:?})",
            workload::NAMES
        ));
    }
    Ok(a)
}

fn cmd_run(a: &Args) -> ExitCode {
    let [w] = a.workloads.as_slice() else {
        eprintln!("run: name exactly one workload of {:?}", workload::NAMES);
        return ExitCode::from(2);
    };
    let opts = RunOpts {
        workload: w.clone(),
        seed: a.seed,
        seconds: a.seconds,
        shrink: 1,
    };
    let r = if a.trace {
        let t = trace::run_traced(&opts);
        std::fs::write(
            out_dir().join(format!("trace-{w}.jsonl")),
            t.spans.to_jsonl(),
        )
        .expect("write the span trace");
        println!("spans (name, count, total ms, self ms):");
        for (name, count, total, own) in t.spans.summary() {
            println!(
                "  {name:<40} {count:>6} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        println!("events by kind (traced epoch):");
        for (kind, events) in &t.profile {
            println!("  {kind:<40} {events:>12}");
        }
        emit(&t.run, &t.per_layer, Some(&t));
        t.run
    } else {
        let r = run::run(&opts, run::EPOCHS, &mut Spans::new(false));
        emit(&r, &r.end_to_end(), None);
        r
    };
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lcperf: {e}");
            return ExitCode::from(2);
        }
    };
    match args.command.as_str() {
        "run" => cmd_run(&args),
        "selftest" => selftest::run(),
        "noise" => noise::run(
            &args.workloads,
            args.sets,
            args.runs,
            args.seed,
            args.seconds,
        ),
        other => unreachable!("parse_args admits no command '{other}'"),
    }
}
