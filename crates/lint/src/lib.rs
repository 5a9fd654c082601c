//! `lc-lint`: the workspace determinism & API-hygiene gate.
//!
//! The reproduction's experiments (E1–E10, F1, F2) are diffed byte-for-
//! byte in CI, so the codebase carries invariants no compiler checks:
//! virtual time only, ordered collections on every output path, seeded
//! RNG streams and no real concurrency inside the simulation. This
//! crate tokenizes every `.rs` file in
//! the workspace ([`lexer`]), matches the rule set ([`rules`]) over the
//! token stream, and ratchets what remains through a checked-in baseline
//! ([`baseline`]). See DESIGN.md §8 for the rule ↔ invariant rationale.
//!
//! Used as a binary (`cargo run -p lc-lint -- --workspace --baseline
//! lint-baseline.txt --stats`) from `ci.sh`; the library surface exists
//! for the fixture tests.

pub mod baseline;
pub mod graph;
pub mod index;
pub mod lexer;
pub mod parser;
pub mod protocol;
pub mod rules;

use baseline::{Baseline, Key};
use index::{FileAnalysis, Workspace};
use rules::{check_lexed, classify, Violation, RULES};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// What to scan and how to judge it.
#[derive(Debug, Default)]
pub struct RunOpts {
    /// Workspace root; paths in diagnostics are reported relative to it.
    pub root: PathBuf,
    /// Files or directories to scan, relative to `root` (empty with
    /// `workspace` set scans the whole tree).
    pub paths: Vec<PathBuf>,
    /// Scan the entire workspace tree under `root`.
    pub workspace: bool,
    /// Baseline file to ratchet against (optional).
    pub baseline: Option<PathBuf>,
    /// Regenerate the baseline at this path instead of judging.
    pub write_baseline: Option<PathBuf>,
}

/// Per-rule tallies for the stats table.
#[derive(Debug, Default, Clone, Copy)]
pub struct RuleStats {
    /// Total rule hits.
    pub fired: u64,
    /// Hits covered by an `allow` annotation.
    pub suppressed: u64,
    /// Hits grandfathered by the baseline.
    pub baselined: u64,
    /// Hits that fail the gate.
    pub new: u64,
}

/// Aggregated scan statistics (the `--stats` block).
#[derive(Debug, Default)]
pub struct Stats {
    /// Files scanned.
    pub files: usize,
    /// Tokens lexed.
    pub tokens: usize,
    /// Tallies per rule name.
    pub per_rule: BTreeMap<&'static str, RuleStats>,
    /// A2 panic budget per crate: `(used, budget)`.
    pub budget: BTreeMap<String, (u64, u64)>,
    /// Violations per crate (unsuppressed, any rule) — trajectory view.
    pub per_crate: BTreeMap<String, u64>,
}

/// The result of one lint run.
#[derive(Debug, Default)]
pub struct Execution {
    /// Gate-failing diagnostics, formatted `file:line: RULE message`
    /// (plus stale-baseline and malformed-suppression lines).
    pub diagnostics: Vec<String>,
    /// Stats for `--stats`.
    pub stats: Stats,
    /// Rendered baseline content when `write_baseline` was requested.
    pub baseline_out: Option<String>,
    /// True iff the gate passes.
    pub clean: bool,
}

/// Run the linter. `Err` is reserved for usage/IO problems (exit 2);
/// rule violations come back inside [`Execution`].
pub fn execute(opts: &RunOpts) -> Result<Execution, String> {
    let files = collect_files(opts)?;
    if files.is_empty() {
        return Err("no .rs files to scan (pass --workspace or explicit paths)".to_owned());
    }

    let mut stats = Stats::default();
    for r in RULES {
        stats.per_rule.insert(r, RuleStats::default());
    }
    let mut all: Vec<Violation> = Vec::new();
    let mut hard_errors: Vec<Violation> = Vec::new();
    let mut analyses: Vec<FileAnalysis> = Vec::new();

    for rel in &files {
        let path = opts.root.join(rel);
        let src = fs::read_to_string(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let ctx = classify(&rel_str(rel));
        let lexed = lexer::lex(&src);
        let report = check_lexed(&lexed, &ctx);
        stats.files += 1;
        stats.tokens += report.tokens;
        all.extend(report.violations);
        hard_errors.extend(report.errors);
        if opts.workspace {
            let parsed = parser::parse(&lexed.tokens);
            analyses.push(FileAnalysis {
                ctx,
                tokens: lexed.tokens,
                suppressions: lexed.suppressions,
                parsed,
            });
        }
    }

    // Workspace-level flow rules (P1–P3) need the whole tree: a
    // partial scan can't tell "unhandled" from "handler not scanned".
    if opts.workspace {
        let ws = Workspace::build(analyses);
        let g = graph::Graph::build(&ws);
        let mut flow = protocol::check(&ws, &g);
        let idx_by_rel: BTreeMap<&str, usize> =
            ws.files.iter().enumerate().map(|(i, f)| (f.ctx.rel.as_str(), i)).collect();
        for v in &mut flow {
            if let Some(&fi) = idx_by_rel.get(v.file.as_str()) {
                v.suppressed = ws.suppressed(fi, v.line, v.rule);
            }
        }
        all.extend(flow);
    }

    // Unsuppressed counts per ratchet scope: crate for A2, file otherwise.
    let mut counts: BTreeMap<Key, u64> = BTreeMap::new();
    for v in &all {
        let s = stats.per_rule.entry(v.rule).or_default();
        s.fired += 1;
        if v.suppressed {
            s.suppressed += 1;
        } else {
            *counts.entry(ratchet_key(v)).or_insert(0) += 1;
            *stats.per_crate.entry(crate_of(v)).or_insert(0) += 1;
        }
    }

    let base = match &opts.baseline {
        Some(p) if opts.write_baseline.is_none() => {
            let text = fs::read_to_string(opts.root.join(p))
                .map_err(|e| format!("baseline {}: {e}", p.display()))?;
            Baseline::parse(&text)?
        }
        _ => Baseline::default(),
    };

    // A2 budget table: every crate with uses or a budget line.
    for (key, n) in &counts {
        if key.0 == "A2" {
            let b = base.entries.get(key).copied().unwrap_or(0);
            stats.budget.insert(key.1.clone(), (*n, b));
        }
    }
    for (key, b) in &base.entries {
        if key.0 == "A2" {
            stats.budget.entry(key.1.clone()).or_insert((0, *b));
        }
    }

    let mut execution = Execution::default();
    if let Some(p) = &opts.write_baseline {
        let rendered = Baseline::render(&counts);
        fs::write(opts.root.join(p), &rendered)
            .map_err(|e| format!("write baseline {}: {e}", p.display()))?;
        execution.baseline_out = Some(rendered);
        // Counts are all grandfathered by construction now.
        for (key, n) in &counts {
            if let Some(s) = stats.per_rule.get_mut(key.0.as_str()) {
                s.baselined += n;
            }
        }
    } else {
        judge(&all, &counts, &base, &mut stats, &mut execution.diagnostics);
    }

    for e in &hard_errors {
        execution.diagnostics.push(format!("{}:{}: {} {}", e.file, e.line, e.rule, e.msg));
    }
    execution.diagnostics.sort();
    execution.clean = execution.diagnostics.is_empty();
    execution.stats = stats;
    Ok(execution)
}

/// Compare current counts against the baseline; emit diagnostics for
/// regressions and stale entries, update per-rule tallies.
fn judge(
    all: &[Violation],
    counts: &BTreeMap<Key, u64>,
    base: &Baseline,
    stats: &mut Stats,
    diags: &mut Vec<String>,
) {
    let mut keys: Vec<&Key> = counts.keys().chain(base.entries.keys()).collect();
    keys.sort();
    keys.dedup();
    for key in keys {
        let cur = counts.get(key).copied().unwrap_or(0);
        let grandfathered = base.entries.get(key).copied().unwrap_or(0);
        let rule = RULES.iter().find(|r| **r == key.0).copied().unwrap_or("LINT");
        let s = stats.per_rule.entry(rule).or_default();
        if cur > grandfathered {
            s.new += cur - grandfathered;
            s.baselined += grandfathered;
            for v in all.iter().filter(|v| !v.suppressed && &ratchet_key(v) == key) {
                diags.push(format!("{}:{}: {} {}", v.file, v.line, v.rule, v.msg));
            }
            if grandfathered > 0 {
                diags.push(format!(
                    "{}: {} violations for rule {} exceed the {} grandfathered in the baseline",
                    key.1, cur, key.0, grandfathered
                ));
            }
        } else if cur < grandfathered {
            diags.push(format!(
                "lint-baseline: stale entry `{} {} {}` — only {} found; \
                 tighten the baseline (the budget may only shrink)",
                key.0, key.1, grandfathered, cur
            ));
            s.baselined += cur;
        } else {
            s.baselined += cur;
        }
    }
}

/// Ratchet scope for one violation: crate for A2, file for the rest.
fn ratchet_key(v: &Violation) -> Key {
    if v.rule == "A2" {
        ("A2".to_owned(), crate_of(v))
    } else {
        (v.rule.to_owned(), v.file.clone())
    }
}

fn crate_of(v: &Violation) -> String {
    classify(&v.file).krate
}

fn rel_str(p: &Path) -> String {
    p.to_string_lossy().replace('\\', "/")
}

/// Recursively gather `.rs` files, sorted for deterministic reports.
/// Skips `target`, VCS internals, and `fixtures` directories (the lint
/// crate's own test fixtures intentionally contain violations).
fn collect_files(opts: &RunOpts) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let roots: Vec<PathBuf> = if opts.paths.is_empty() {
        if !opts.workspace {
            return Err("nothing to scan: pass --workspace or explicit paths".to_owned());
        }
        vec![PathBuf::new()]
    } else {
        opts.paths.clone()
    };
    for r in roots {
        let abs = opts.root.join(&r);
        if abs.is_file() {
            out.push(r);
        } else if abs.is_dir() {
            walk(&opts.root, &abs, &mut out)?;
        } else {
            return Err(format!("{}: not found", abs.display()));
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            match path.strip_prefix(root) {
                Ok(rel) => out.push(rel.to_path_buf()),
                Err(_) => out.push(path.clone()),
            }
        }
    }
    Ok(())
}

impl Stats {
    /// Render the `--stats` block (deterministic ordering throughout).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("lc-lint stats\n");
        out.push_str(&format!("  files scanned: {}   tokens: {}\n", self.files, self.tokens));
        out.push_str("  rule   fired  suppressed  baselined  new\n");
        for r in RULES {
            let s = self.per_rule.get(r).copied().unwrap_or_default();
            out.push_str(&format!(
                "  {:<5} {:>6} {:>11} {:>10} {:>4}\n",
                r, s.fired, s.suppressed, s.baselined, s.new
            ));
        }
        if !self.budget.is_empty() {
            out.push_str("  A2 panic budget (lib code unwrap/expect):\n");
            out.push_str("    crate       used  budget\n");
            for (krate, (used, budget)) in &self.budget {
                out.push_str(&format!("    {krate:<11} {used:>4} {budget:>7}\n"));
            }
        }
        if !self.per_crate.is_empty() {
            out.push_str("  unsuppressed violations by crate:\n");
            for (krate, n) in &self.per_crate {
                out.push_str(&format!("    {krate:<11} {n:>4}\n"));
            }
        }
        out
    }
}

impl Execution {
    /// Render the run as one machine-readable JSON document (the
    /// `--format json` output committed as `LINT_STATS.json` by ci.sh).
    /// Deterministic: BTreeMap ordering throughout, diagnostics sorted.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": 1,\n");
        out.push_str(&format!("  \"clean\": {},\n", self.clean));
        out.push_str(&format!("  \"files\": {},\n", self.stats.files));
        out.push_str(&format!("  \"tokens\": {},\n", self.stats.tokens));
        out.push_str("  \"rules\": {\n");
        for (i, r) in RULES.iter().enumerate() {
            let s = self.stats.per_rule.get(r).copied().unwrap_or_default();
            out.push_str(&format!(
                "    \"{r}\": {{\"fired\": {}, \"suppressed\": {}, \"baselined\": {}, \
                 \"new\": {}}}{}\n",
                s.fired,
                s.suppressed,
                s.baselined,
                s.new,
                if i + 1 < RULES.len() { "," } else { "" }
            ));
        }
        out.push_str("  },\n");
        out.push_str("  \"a2_budget\": {\n");
        let n = self.stats.budget.len();
        for (i, (krate, (used, budget))) in self.stats.budget.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {{\"used\": {used}, \"budget\": {budget}}}{}\n",
                json_escape(krate),
                if i + 1 < n { "," } else { "" }
            ));
        }
        out.push_str("  },\n");
        out.push_str("  \"unsuppressed_by_crate\": {\n");
        let n = self.stats.per_crate.len();
        for (i, (krate, count)) in self.stats.per_crate.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {count}{}\n",
                json_escape(krate),
                if i + 1 < n { "," } else { "" }
            ));
        }
        out.push_str("  },\n");
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            out.push_str(&format!(
                "\n    \"{}\"{}",
                json_escape(d),
                if i + 1 < self.diagnostics.len() { "," } else { "\n  " }
            ));
        }
        out.push_str("]\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
