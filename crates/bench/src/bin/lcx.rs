//! `lcx <id> [--max-nodes N] [OUT_STEM]` — run one experiment of
//! [`lc_bench::EXPERIMENTS`].
//!
//! Prints the experiment's report, writes each of its files to
//! `<OUT_STEM><suffix>` (default stem `target/<id>`) and exits 1 if a
//! gate failed. `--max-nodes` caps the campus sweep of e13/e14/e15 and
//! is rejected for every other experiment. A usage error exits 2 with
//! the id list on stderr.

use lc_bench::{Run, EXPERIMENTS};

/// A parsed command line: what to run and where its files go.
struct Invocation {
    id: &'static str,
    run: Run,
    max_nodes: Option<u32>,
    stem: String,
}

/// Parse the arguments after the program name.
fn parse(args: &[String]) -> Result<Invocation, String> {
    let mut args = args.iter();
    let id = args.next().ok_or("missing experiment id")?;
    let Some(&(id, _, run)) = EXPERIMENTS.iter().find(|(known, ..)| known == id) else {
        return Err(format!("unknown experiment `{id}`"));
    };
    let mut max_nodes = None;
    let mut stem = None;
    while let Some(arg) = args.next() {
        if arg == "--max-nodes" {
            if matches!(run, Run::Fixed(_)) {
                return Err(format!("{id} has no sweep to cap with --max-nodes"));
            }
            let value = args.next().ok_or("--max-nodes needs a value")?;
            max_nodes = Some(value.parse().map_err(|_| format!("bad --max-nodes `{value}`"))?);
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag `{arg}`"));
        } else if stem.replace(arg.clone()).is_some() {
            return Err(format!("unexpected argument `{arg}`"));
        }
    }
    Ok(Invocation { id, run, max_nodes, stem: stem.unwrap_or_else(|| format!("target/{id}")) })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let inv = parse(&args).unwrap_or_else(|e| {
        eprintln!("lcx: {e}\nusage: lcx <id> [--max-nodes N] [OUT_STEM]\nexperiments:");
        for (id, about, _) in EXPERIMENTS {
            eprintln!("  {id:<4} {about}");
        }
        std::process::exit(2);
    });
    let out = match inv.run {
        Run::Fixed(run) => run(),
        Run::Sweep { full, run } => run(inv.max_nodes.unwrap_or(full)),
    };
    print!("{}", out.report);
    for (suffix, body) in &out.files {
        let path = format!("{}{suffix}", inv.stem);
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("lcx {}: failed to write {path}: {e}", inv.id);
            std::process::exit(1);
        }
    }
    if let Some(why) = out.failed {
        eprintln!("{why}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(id, cap, stem)` of a parsed line.
    fn parse_str(line: &str) -> Result<(&'static str, Option<u32>, String), String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse(&args).map(|inv| (inv.id, inv.max_nodes, inv.stem))
    }

    #[test]
    fn accepts_id_cap_and_stem_in_any_order() {
        let capped = Ok(("e13", Some(10_000), "out/x".to_owned()));
        assert_eq!(parse_str("e13 --max-nodes 10000 out/x"), capped);
        assert_eq!(parse_str("e13 out/x --max-nodes 10000"), capped);
        assert_eq!(parse_str("f1"), Ok(("f1", None, "target/f1".to_owned())));
    }

    #[test]
    fn rejects_what_the_old_binaries_took_for_a_path() {
        // `--max-node 10000` used to run the full 10^6 sweep and write a
        // file named `10000`; `e12_cache_perf --oops` wrote `--oops`.
        assert!(parse_str("e13 --max-node 10000").is_err());
        assert!(parse_str("e12 --oops").is_err());
        assert!(parse_str("e16 --gate-reduction 3").is_err());
        // No id, an unknown id, a cap on an experiment with no sweep, a
        // cap that is not a number or is missing, a second positional.
        assert!(parse_str("").is_err());
        assert!(parse_str("e17").is_err());
        assert!(parse_str("e12 --max-nodes 64").is_err());
        assert!(parse_str("e13 --max-nodes many").is_err());
        assert!(parse_str("e13 --max-nodes").is_err());
        assert!(parse_str("e13 out/a out/b").is_err());
    }
}
