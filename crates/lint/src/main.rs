//! CLI for `lc-lint`. Exit codes: 0 clean, 1 gate failure, 2 usage/IO.

use lc_lint::{execute, RunOpts};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: lc-lint [--workspace] [--root DIR] [--stats] \
                     [--format text|json] [PATH...]\n\
  --workspace         scan every .rs file under the root\n\
  --root DIR          workspace root (default: current directory)\n\
  --stats             print per-rule tallies\n\
  --format text|json  output format (json emits one machine-readable\n\
                      document with stats and diagnostics)";

fn main() -> ExitCode {
    let mut opts = RunOpts { root: PathBuf::from("."), ..RunOpts::default() };
    let mut stats = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workspace" => opts.workspace = true,
            "--stats" => stats = true,
            "--format" => {
                let Some(v) = args.next() else {
                    eprintln!("lc-lint: --format needs a value\n{USAGE}");
                    return ExitCode::from(2);
                };
                match v.as_str() {
                    "json" => json = true,
                    "text" => json = false,
                    other => {
                        eprintln!("lc-lint: unknown format `{other}`\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--root" => {
                let Some(v) = args.next() else {
                    eprintln!("lc-lint: --root needs a value\n{USAGE}");
                    return ExitCode::from(2);
                };
                opts.root = PathBuf::from(v);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("lc-lint: unknown flag {flag}\n{USAGE}");
                return ExitCode::from(2);
            }
            path => opts.paths.push(PathBuf::from(path)),
        }
    }

    let exec = match execute(&opts) {
        Ok(e) => e,
        Err(msg) => {
            eprintln!("lc-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    if json {
        print!("{}", exec.render_json());
        return if exec.clean { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    for d in &exec.diagnostics {
        println!("{d}");
    }
    if stats {
        print!("{}", exec.stats.render());
    }
    if exec.clean {
        println!("lc-lint: clean ({} files)", exec.stats.files);
        ExitCode::SUCCESS
    } else {
        println!("lc-lint: {} gate failure(s)", exec.diagnostics.len());
        ExitCode::FAILURE
    }
}
