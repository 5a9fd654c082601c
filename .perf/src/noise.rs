//! `lcperf noise`: is the benchmark steady enough to be a gate?
//!
//! Runs every named workload `runs` times in each of `sets` alternating
//! sets, each run a fresh process with its own seed (the same seeds in
//! every set), exactly as the acceptance check does. For every end-to-end
//! metric it prints each set's median and quartiles, the spread (q3 − q1)
//! ÷ median and the shift of the later sets' medians against the first,
//! both against the metric's bound in `BENCHMARK.json` — and exits
//! non-zero if either exceeds it. A spread over a third of the bound is
//! flagged: that is the margin the benchmark aims to keep.

use crate::run::END_TO_END;
use crate::stats::quartiles;
use crate::workload;
use std::process::{Command, ExitCode};

/// Every end-to-end metric with the bound `BENCHMARK.json` gives it.
fn bounds() -> Result<Vec<(&'static str, f64)>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let section = text.find("\"end_to_end\"").map_or("", |at| &text[at..]);
    END_TO_END
        .iter()
        .map(|&(name, _)| {
            let missing = || format!("{path}: no bound for end-to-end metric {name}");
            let entry = &section[section.find(&format!("\"{name}\"")).ok_or_else(missing)?..];
            let key = "\"bound\":";
            let value = &entry[entry.find(key).ok_or_else(missing)? + key.len()..];
            let end = value.find([',', '}']).ok_or_else(missing)?;
            Ok((
                name,
                value[..end].trim().parse::<f64>().map_err(|_| missing())?,
            ))
        })
        .collect()
}

/// Pull `"<name>": {"value": <number>` out of a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

struct RunLine {
    line: String,
    raw_ns_per_op: f64,
}

fn one_run(workload: &str, seed: u64, seconds: f64) -> Result<RunLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "run of {workload} seed {seed} exited with {}:\n{stdout}",
            out.status
        ));
    }
    let line = stdout.lines().last().unwrap_or_default().to_owned();
    let raw_ns_per_op = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("raw_median_ns_per_op"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0);
    Ok(RunLine {
        line,
        raw_ns_per_op,
    })
}

fn spread(values: &[f64]) -> (f64, f64, f64, f64) {
    let (q1, q2, q3) = quartiles(values);
    (q1, q2, q3, if q2 != 0.0 { (q3 - q1) / q2 } else { 0.0 })
}

pub fn run(workloads: &[String], sets: u32, runs: u32, seed: u64, seconds: f64) -> ExitCode {
    let names: Vec<&str> = if workloads.is_empty() {
        workload::NAMES.to_vec()
    } else {
        workloads.iter().map(String::as_str).collect()
    };
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("noise: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut out_of_bounds = 0;
    for w in names {
        // values[set][metric] = one value per run; sets alternate in time.
        let mut values = vec![vec![Vec::new(); bounds.len()]; sets as usize];
        let mut raw = Vec::new();
        for r in 0..runs {
            for set in values.iter_mut() {
                let run = match one_run(w, seed + 10 * u64::from(r), seconds) {
                    Ok(run) => run,
                    Err(e) => {
                        eprintln!("noise: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                for (m, (name, _)) in bounds.iter().enumerate() {
                    match metric_value(&run.line, name) {
                        Some(v) => set[m].push(v),
                        None => {
                            eprintln!("noise: no metric {name} in: {}", run.line);
                            return ExitCode::FAILURE;
                        }
                    }
                }
                raw.push(run.raw_ns_per_op);
            }
        }
        println!("{w}: {sets} sets x {runs} runs, {seconds} s each, seeds {seed}+10k");
        println!(
            "  {:<20} {:>4} {:>14} {:>14} {:>14} {:>9} {:>9} {:>9}",
            "metric", "set", "q1", "median", "q3", "spread", "bound", "shift"
        );
        for (m, (name, bound)) in bounds.iter().enumerate() {
            let first_median = spread(&values[0][m]).1;
            for (s, set) in values.iter().enumerate() {
                let (q1, q2, q3, sp) = spread(&set[m]);
                let shift = if first_median != 0.0 {
                    q2 / first_median - 1.0
                } else {
                    0.0
                };
                // setup_s is gated on its medians only, not on its spread.
                let gated = *name != "setup_s";
                let bad_spread = gated && sp > *bound;
                let bad_shift = shift > *bound;
                out_of_bounds += u32::from(bad_spread) + u32::from(bad_shift);
                println!(
                    "  {name:<20} {s:>4} {q1:>14.6} {q2:>14.6} {q3:>14.6} {sp:>9.4} {bound:>9.4} {shift:>+9.4}{}{}",
                    match (bad_spread, gated && sp > bound / 3.0) {
                        (true, _) => "  SPREAD",
                        (false, true) => "  (spread over a third of the bound)",
                        (false, false) => "",
                    },
                    if bad_shift { "  SHIFT" } else { "" },
                );
            }
        }
        // What normalising buys: the same runs' raw CPU time per op.
        let all_host: Vec<f64> = values.iter().flat_map(|s| s[1].iter().copied()).collect();
        let range = |v: &[f64]| {
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            (hi - lo) / spread(v).1
        };
        println!(
            "  host time per op over all {} runs, (max - min) / median: raw CPU {:.4}, reference-normalised {:.4}",
            all_host.len(),
            range(&raw),
            range(&all_host)
        );
    }
    if out_of_bounds == 0 {
        println!("noise: every spread and every shift of a median is within its bound");
        ExitCode::SUCCESS
    } else {
        println!("noise: {out_of_bounds} figure(s) out of bounds");
        ExitCode::FAILURE
    }
}
