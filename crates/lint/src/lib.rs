//! `lc-lint`: the workspace determinism & API-hygiene gate.
//!
//! The reproduction's experiments (E1–E10, F1, F2) are diffed byte-for-
//! byte in CI, so the codebase carries invariants no compiler checks:
//! virtual time only, ordered collections on every output path, seeded
//! RNG streams and no real concurrency inside the simulation. This
//! crate tokenizes every `.rs` file in
//! the workspace ([`lexer`]) and matches the rule set ([`rules`]) over
//! the token stream. Every rule is zero-tolerance; the only escape is an
//! in-source `// lc-lint: allow(RULE) -- reason`. See DESIGN.md §8 for
//! the rule ↔ invariant rationale.
//!
//! Used as a binary (`cargo run -p lc-lint -- --workspace --stats`) from
//! `ci.sh`; the library surface exists for the fixture tests.

pub mod graph;
pub mod index;
pub mod lexer;
pub mod parser;
pub mod protocol;
pub mod rules;

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
}

/// Per-rule tallies for the stats table.
#[derive(Debug, Default, Clone, Copy)]
pub struct RuleStats {
    /// Total rule hits.
    pub fired: u64,
    /// Hits covered by an `allow` annotation.
    pub suppressed: u64,
}

impl RuleStats {
    /// Hits that fail the gate (the `new` column).
    pub fn open(&self) -> u64 {
        self.fired - self.suppressed
    }
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
}

/// The result of one lint run.
#[derive(Debug, Default)]
pub struct Execution {
    /// Gate-failing diagnostics, formatted `file:line: RULE message`
    /// (malformed-suppression lines included).
    pub diagnostics: Vec<String>,
    /// Stats for `--stats`.
    pub stats: Stats,
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

    // Every unsuppressed hit fails the gate, as does a malformed
    // suppression.
    let mut execution = Execution::default();
    for v in &all {
        let s = stats.per_rule.entry(v.rule).or_default();
        s.fired += 1;
        s.suppressed += u64::from(v.suppressed);
    }
    for v in all.iter().filter(|v| !v.suppressed).chain(&hard_errors) {
        execution.diagnostics.push(format!("{}:{}: {} {}", v.file, v.line, v.rule, v.msg));
    }
    execution.diagnostics.sort();
    execution.clean = execution.diagnostics.is_empty();
    execution.stats = stats;
    Ok(execution)
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
        out.push_str("  rule   fired  suppressed  new\n");
        for r in RULES {
            let s = self.per_rule.get(r).copied().unwrap_or_default();
            out.push_str(&format!(
                "  {:<5} {:>6} {:>11} {:>4}\n",
                r, s.fired, s.suppressed, s.open()
            ));
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
        out.push_str("  \"schema\": 2,\n");
        out.push_str(&format!("  \"clean\": {},\n", self.clean));
        out.push_str(&format!("  \"files\": {},\n", self.stats.files));
        out.push_str(&format!("  \"tokens\": {},\n", self.stats.tokens));
        out.push_str("  \"rules\": {\n");
        for (i, r) in RULES.iter().enumerate() {
            let s = self.stats.per_rule.get(r).copied().unwrap_or_default();
            out.push_str(&format!(
                "    \"{r}\": {{\"fired\": {}, \"suppressed\": {}, \"new\": {}}}{}\n",
                s.fired,
                s.suppressed,
                s.open(),
                if i + 1 < RULES.len() { "," } else { "" }
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
