//! The rule set: which invariants are checked where.
//!
//! Every rule encodes something the reproduction actually depends on
//! (see DESIGN.md §8 for the rule ↔ invariant map):
//!
//! * **D1** — no wall-clock reads (`std::time::Instant` / `SystemTime`)
//!   anywhere in the workspace. Virtual time is `lc_des::SimTime`; wall
//!   time is measured from outside, by `.perf`. A stray clock read
//!   silently breaks the E1–E16 byte-determinism diffs.
//! * **D2** — no `HashMap`/`HashSet` in crates whose state reaches wire
//!   messages or experiment output (`orb`, `core`, `net`, `baselines`,
//!   `bench`): hash iteration order is randomized-per-process in spirit
//!   and unordered in practice; use `BTreeMap`/`BTreeSet` or suppress
//!   with a justification.
//! * **D3** — no `thread::spawn` / `mpsc` channels inside DES-simulated
//!   crates: real concurrency under the single-threaded event loop is a
//!   determinism leak by construction.
//! * **D4** — no RNG streams seeded outside the modules that own them
//!   (`crates/des/src/rng.rs` and the kernel/fault/property-test modules
//!   that derive documented sub-streams); plus a ban on ambient-entropy
//!   types anywhere. Tests, benches and examples are exempt — except in
//!   `crates/trace` and the DES virtual-time profiler
//!   (`crates/des/src/profile.rs`): traces and profiles are a
//!   determinism *oracle* (two identical runs must export byte-identical
//!   span files and tallies), so there the rule binds tests too.
//! * **D6** — the scale path (`crates/core/src/scale/`, the arithmetic
//!   MRM tree in `crates/core/src/cohesion.rs`, the indexed event
//!   queue) must stay flat: no `Rc<RefCell<…>>`, no `Box<dyn …>`. A
//!   million nodes fit because state is dense rows addressed by `u32`
//!   indices; one shared-ownership cell or per-item vtable quietly
//!   reintroduces a pointer-chasing layout.
//! * **A2** — no `Option`/`Result` `.unwrap()`/`.expect()` in library
//!   code (tests exempt). A file that declares its own `fn expect` or
//!   `fn unwrap` (the IDL parser's `expect(TokenKind, ..) -> Result`) is
//!   calling that method, not the panicking one, and is skipped for that
//!   name.

use crate::lexer::{lex, Lexed, Tok, Token};

/// All rule names, in reporting order. D1–D6 and A2 are per-file token
/// rules (this module); P1–P3 are the workspace-level flow rules
/// ([`crate::protocol`]) and only run under `--workspace`.
pub const RULES: [&str; 9] = ["D1", "D2", "D3", "D4", "D6", "A2", "P1", "P2", "P3"];

/// Crates whose data structures feed marshalled messages or printed
/// experiment tables (D2 scope).
const ORDERED_OUTPUT_CRATES: [&str; 8] =
    ["orb", "core", "net", "baselines", "bench", "trace", "cache", "load"];

/// Crates executed under the discrete-event simulator (D3 scope).
const DES_CRATES: [&str; 10] =
    ["des", "net", "orb", "core", "baselines", "cscw", "grid", "trace", "cache", "load"];

/// Scale-path modules held to the flat-memory rule (D6 scope): per-item
/// state lives in dense rows behind `u32` indices, so shared mutable
/// ownership (`Rc<RefCell<…>>`) and per-item virtual dispatch
/// (`Box<dyn …>`) are banned — either would silently reintroduce a
/// pointer-chasing layout.
const FLAT_LAYOUT_SCOPE: [&str; 3] =
    ["crates/core/src/scale/", "crates/core/src/cohesion.rs", "crates/des/src/queue.rs"];

/// Files outside `crates/trace` held to the same hermetic bar (D4 with
/// no test leniency): the DES virtual-time profiler, whose tallies must
/// reproduce byte-identically across runs.
const HERMETIC_FILES: [&str; 1] = ["crates/des/src/profile.rs"];

/// Modules that own seeded RNG streams (D4 scope): the generator itself,
/// the DES kernel stream, the fault-plan stream, the property-test
/// generator stream and the open-loop arrival-process stream.
const RNG_ALLOWLIST: [&str; 5] = [
    "crates/des/src/rng.rs",
    "crates/des/src/lib.rs",
    "crates/net/src/fault.rs",
    "crates/prop/src/lib.rs",
    "crates/load/src/arrival.rs",
];

/// Ambient-entropy / foreign-RNG identifiers banned outright.
const BANNED_RNG: [&str; 6] =
    ["thread_rng", "from_entropy", "StdRng", "SmallRng", "RandomState", "DefaultHasher"];

/// What kind of target a file belongs to (decides rule applicability).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileKind {
    /// Library code (`src/` of a crate).
    Lib,
    /// Experiment binary (`src/bin/`).
    Bin,
    /// Test code (`tests/` dir or a `tests.rs` module file).
    Test,
    /// Wall-clock benchmark (`benches/`).
    Bench,
    /// Example (`examples/`).
    Example,
}

/// Where a file sits in the workspace.
#[derive(Clone, Debug)]
pub struct FileCtx {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Crate directory name (`orb`, `core`, …) or `root` for the
    /// workspace package.
    pub krate: String,
    /// Target kind.
    pub kind: FileKind,
}

/// Classify a workspace-relative path.
pub fn classify(rel: &str) -> FileCtx {
    let krate = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("root")
        .to_owned();
    let kind = if rel.contains("/tests/")
        || rel.starts_with("tests/")
        || rel.ends_with("/tests.rs")
    {
        FileKind::Test
    } else if rel.contains("/benches/") {
        FileKind::Bench
    } else if rel.contains("/examples/") || rel.starts_with("examples/") {
        FileKind::Example
    } else if rel.contains("/src/bin/") {
        FileKind::Bin
    } else {
        FileKind::Lib
    };
    FileCtx { rel: rel.to_owned(), krate, kind }
}

/// One diagnostic.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (`D1` … `A2`, or `LINT` for malformed suppressions).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub msg: String,
    /// Covered by an in-source `allow(...)` annotation.
    pub suppressed: bool,
}

/// Result of checking one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// All rule hits, including suppressed ones.
    pub violations: Vec<Violation>,
    /// Hard errors (malformed suppressions); never suppressible.
    pub errors: Vec<Violation>,
    /// Number of code tokens seen (for `--stats`).
    pub tokens: usize,
}

/// Run every applicable per-file rule over one source string.
pub fn check_file(src: &str, ctx: &FileCtx) -> FileReport {
    check_lexed(&lex(src), ctx)
}

/// Run every applicable per-file rule over an already-lexed file (the
/// workspace scan lexes once and shares the stream with the parser).
pub fn check_lexed(lexed: &Lexed, ctx: &FileCtx) -> FileReport {
    let toks = &lexed.tokens;
    let in_test = test_regions(toks, ctx.kind);
    let mut report = FileReport { tokens: toks.len(), ..FileReport::default() };

    let d2_scope = ORDERED_OUTPUT_CRATES.contains(&ctx.krate.as_str());
    let d3_scope = DES_CRATES.contains(&ctx.krate.as_str());
    let d4_allowed = RNG_ALLOWLIST.contains(&ctx.rel.as_str());
    // The tracing crate and the DES kernel profiler are hermetic:
    // entropy is banned in every target kind, tests included — their
    // output feeds the determinism oracle.
    let hermetic = ctx.krate == "trace" || HERMETIC_FILES.contains(&ctx.rel.as_str());
    let d6_scope = FLAT_LAYOUT_SCOPE.iter().any(|p| ctx.rel.starts_with(p));
    // Lib/Bin code paths are what reach wire messages and experiment
    // output; tests, benches and examples get D2–D4 leniency.
    let libish = matches!(ctx.kind, FileKind::Lib | FileKind::Bin);

    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident(name) = &t.tok else { continue };
        let d4_applies = hermetic || (libish && !in_test[i]);
        let hit: Option<(&'static str, String)> = match name.as_str() {
            "Instant" | "SystemTime" => Some((
                "D1",
                format!(
                    "wall-clock type `{name}`: virtual time is lc_des::SimTime; wall time \
                     is measured from outside the workspace, by .perf"
                ),
            )),
            "HashMap" | "HashSet" if d2_scope && libish && !in_test[i] => Some((
                "D2",
                format!(
                    "`{name}` in ordered-output crate `{}`: iteration order can leak into \
                     marshalled messages or experiment tables; use BTree{} or suppress with \
                     a sorted-iteration justification",
                    ctx.krate,
                    &name[4..]
                ),
            )),
            "spawn"
                if d3_scope
                    && libish
                    && !in_test[i]
                    && path_prefix_is(toks, i, "thread") =>
            {
                Some((
                    "D3",
                    "`thread::spawn` in a DES-simulated crate: concurrency must come from \
                     simulation actors, not OS threads"
                        .to_owned(),
                ))
            }
            "mpsc" if d3_scope && libish && !in_test[i] => Some((
                "D3",
                "`mpsc` channel in a DES-simulated crate: message passing must go through \
                 the simulated network fabric"
                    .to_owned(),
            )),
            "seed_from_u64" if !d4_allowed && d4_applies => Some((
                "D4",
                "RNG seeded outside the owning modules: derive a sub-stream in \
                 crates/des/src/rng.rs' documented owners instead of constructing one ad hoc"
                    .to_owned(),
            )),
            n if BANNED_RNG.contains(&n) && d4_applies => Some((
                "D4",
                format!("`{name}`: ambient-entropy / foreign RNG types are banned everywhere"),
            )),
            "Rc" if d6_scope && opens_generic_over(toks, i, "RefCell") => Some((
                "D6",
                "`Rc<RefCell<…>>` in a scale-path module: state there is dense rows \
                 behind u32 indices; shared mutable ownership defeats the layout"
                    .to_owned(),
            )),
            "Box" if d6_scope && opens_generic_over(toks, i, "dyn") => Some((
                "D6",
                "`Box<dyn …>` in a scale-path module: no per-item virtual dispatch; \
                 use an enum or the packed event lane"
                    .to_owned(),
            )),
            "unwrap" | "expect"
                if ctx.kind == FileKind::Lib
                    && !in_test[i]
                    && is_method_call(toks, i)
                    && !declares_fn(toks, name) =>
            {
                Some((
                    "A2",
                    format!("`.{name}()` in library code: return the error or match on it"),
                ))
            }
            _ => None,
        };
        if let Some((rule, msg)) = hit {
            report.violations.push(Violation {
                file: ctx.rel.clone(),
                line: t.line,
                rule,
                msg,
                suppressed: false,
            });
        }
    }

    // Apply suppressions: an annotation on line L covers hits on L (trailing
    // comment) and L+1 (comment-above style).
    for v in &mut report.violations {
        let covered = lexed.suppressions.iter().any(|s| {
            (s.line == v.line || s.line + 1 == v.line) && s.rules.iter().any(|r| r == v.rule)
        });
        v.suppressed = covered;
    }

    for &line in &lexed.malformed {
        report.errors.push(Violation {
            file: ctx.rel.clone(),
            line,
            rule: "LINT",
            msg: "malformed suppression: expected `lc-lint: allow(RULE, ...) -- reason`"
                .to_owned(),
            suppressed: false,
        });
    }
    report
}

/// Does token `i` start `Outer<inner` (e.g. `Rc<RefCell` / `Box<dyn`)?
fn opens_generic_over(toks: &[Token], i: usize, inner: &str) -> bool {
    toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct('<'))
        && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Ident(n)) if n == inner)
}

/// Is token `i` preceded by `prefix::` (e.g. `thread::spawn`)?
fn path_prefix_is(toks: &[Token], i: usize, prefix: &str) -> bool {
    i >= 3
        && toks[i - 1].tok == Tok::Punct(':')
        && toks[i - 2].tok == Tok::Punct(':')
        && matches!(&toks[i - 3].tok, Tok::Ident(p) if p == prefix)
}

/// Is token `i` a `.name(` method call?
fn is_method_call(toks: &[Token], i: usize) -> bool {
    i >= 1
        && toks[i - 1].tok == Tok::Punct('.')
        && toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct('('))
}

/// Does the file declare `fn name` itself? Then `.name(` calls that
/// method (the IDL parser's `expect(..) -> Result`), not the std one.
fn declares_fn(toks: &[Token], name: &str) -> bool {
    toks.windows(2).any(|w| {
        matches!((&w[0].tok, &w[1].tok), (Tok::Ident(k), Tok::Ident(n)) if k == "fn" && n == name)
    })
}

/// Per-token flag: inside a `#[cfg(test)] mod … { … }` region, or the
/// whole file for test-kind targets.
fn test_regions(toks: &[Token], kind: FileKind) -> Vec<bool> {
    let mut flags = vec![kind == FileKind::Test; toks.len()];
    if kind == FileKind::Test {
        return flags;
    }
    let mut i = 0;
    while i < toks.len() {
        if let Some(body_open) = cfg_test_mod_open(toks, i) {
            // Mark everything to the matching close brace.
            let mut depth = 0u32;
            let mut j = body_open;
            while j < toks.len() {
                match toks[j].tok {
                    Tok::Punct('{') => depth += 1,
                    Tok::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                flags[j] = true;
                j += 1;
            }
            if j < toks.len() {
                flags[j] = true;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    flags
}

/// If tokens at `i` start `#[cfg(test)]`, possibly followed by further
/// attributes, then `mod name {`, return the index of that `{`.
fn cfg_test_mod_open(toks: &[Token], i: usize) -> Option<usize> {
    let shape = [
        Tok::Punct('#'),
        Tok::Punct('['),
        Tok::Ident("cfg".into()),
        Tok::Punct('('),
        Tok::Ident("test".into()),
        Tok::Punct(')'),
        Tok::Punct(']'),
    ];
    for (off, want) in shape.iter().enumerate() {
        if toks.get(i + off).map(|t| &t.tok) != Some(want) {
            return None;
        }
    }
    let mut j = i + shape.len();
    // Skip any further `#[...]` attributes between cfg(test) and mod.
    while toks.get(j).map(|t| &t.tok) == Some(&Tok::Punct('#'))
        && toks.get(j + 1).map(|t| &t.tok) == Some(&Tok::Punct('['))
    {
        let mut depth = 0u32;
        j += 1;
        while let Some(t) = toks.get(j) {
            match t.tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        j += 1;
    }
    if !matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Ident(m)) if m == "mod") {
        return None;
    }
    let mut k = j + 1;
    while let Some(t) = toks.get(k) {
        match &t.tok {
            Tok::Punct('{') => return Some(k),
            Tok::Punct(';') => return None, // out-of-line `mod tests;`
            _ => k += 1,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(rel: &str) -> FileCtx {
        classify(rel)
    }

    fn hits(src: &str, rel: &str) -> Vec<(&'static str, u32, bool)> {
        check_file(src, &ctx(rel))
            .violations
            .iter()
            .map(|v| (v.rule, v.line, v.suppressed))
            .collect()
    }

    #[test]
    fn classify_paths() {
        assert_eq!(ctx("crates/orb/src/local.rs").krate, "orb");
        assert!(matches!(ctx("crates/orb/src/local.rs").kind, FileKind::Lib));
        assert!(matches!(ctx("crates/bench/src/bin/e1.rs").kind, FileKind::Bin));
        assert!(matches!(ctx("crates/core/tests/world.rs").kind, FileKind::Test));
        assert!(matches!(ctx("crates/cscw/src/tests.rs").kind, FileKind::Test));
        assert!(matches!(ctx("crates/bench/benches/orb.rs").kind, FileKind::Bench));
        assert!(matches!(ctx("examples/quickstart.rs").kind, FileKind::Example));
        assert_eq!(ctx("tests/integration.rs").krate, "root");
    }

    #[test]
    fn d1_fires_outside_allowlist_only() {
        // There is no allowlist any more: the bench crate fires too.
        let src = "use std::time::Instant;";
        assert_eq!(hits(src, "crates/des/src/lib.rs"), vec![("D1", 1, false)]);
        assert_eq!(hits(src, "crates/bench/src/bin/e1_lightweight.rs"), vec![("D1", 1, false)]);
    }

    #[test]
    fn d2_scoped_to_ordered_output_crates() {
        let src = "use std::collections::HashMap;";
        assert_eq!(hits(src, "crates/orb/src/x.rs"), vec![("D2", 1, false)]);
        assert!(hits(src, "crates/idl/src/x.rs").is_empty());
        assert!(hits(src, "crates/orb/tests/x.rs").is_empty());
    }

    #[test]
    fn d2_ignores_comments_strings_and_generics() {
        let src = "// HashMap here\nlet s = \"HashMap\";\nlet m: BTreeMap<String, Vec<u8>> = BTreeMap::new();";
        assert!(hits(src, "crates/core/src/x.rs").is_empty());
    }

    #[test]
    fn d3_thread_spawn_and_mpsc() {
        let src = "std::thread::spawn(|| {});\nuse std::sync::mpsc;";
        let h = hits(src, "crates/net/src/x.rs");
        assert_eq!(h, vec![("D3", 1, false), ("D3", 2, false)]);
        // `pool.spawn(task)` is not thread::spawn
        assert!(hits("pool.spawn(task);", "crates/net/src/x.rs").is_empty());
        // bench crate is not DES-simulated
        assert!(hits(src, "crates/bench/src/bin/e1.rs").is_empty());
    }

    #[test]
    fn d4_seeding_and_banned_types() {
        let src = "let r = SimRng::seed_from_u64(7);";
        assert_eq!(hits(src, "crates/core/src/x.rs"), vec![("D4", 1, false)]);
        assert!(hits(src, "crates/net/src/fault.rs").is_empty());
        assert_eq!(
            hits("let h: RandomState = RandomState::new();", "crates/idl/src/x.rs").len(),
            2
        );
    }

    #[test]
    fn d4_binds_tests_too_in_the_hermetic_scope() {
        // Entropy in the trace crate and the DES profiler: D4 with no
        // lib/test leniency.
        let seed = "let r = SimRng::seed_from_u64(7);";
        let entropy = "let h = RandomState::new();";
        assert_eq!(hits(seed, "crates/trace/src/span.rs"), vec![("D4", 1, false)]);
        assert_eq!(hits(seed, "crates/trace/tests/x.rs"), vec![("D4", 1, false)]);
        assert_eq!(hits(entropy, "crates/trace/tests/x.rs"), vec![("D4", 1, false)]);
        assert_eq!(hits(seed, "crates/des/src/profile.rs"), vec![("D4", 1, false)]);
        let in_test = format!("#[cfg(test)]\nmod tests {{\n fn f() {{ {seed} }}\n}}\n");
        assert_eq!(hits(&in_test, "crates/des/src/profile.rs"), vec![("D4", 3, false)]);
        // Everywhere else tests keep their leniency.
        assert!(hits(seed, "crates/core/tests/x.rs").is_empty());
        assert!(hits(&in_test, "crates/core/src/x.rs").is_empty());
        // Wall clock there is plain D1, as in every other file.
        let clock = "use std::time::Instant;";
        assert_eq!(hits(clock, "crates/trace/tests/x.rs"), vec![("D1", 1, false)]);
        assert_eq!(hits(clock, "crates/des/src/profile.rs"), vec![("D1", 1, false)]);
    }

    #[test]
    fn d6_bans_shared_ownership_in_arena_modules() {
        let rc = "let n: Rc<RefCell<Node>> = Rc::new(RefCell::new(n));";
        let dy = "let a: Box<dyn Actor> = Box::new(x);";
        assert_eq!(hits(rc, "crates/core/src/scale/campus.rs"), vec![("D6", 1, false)]);
        assert_eq!(hits(dy, "crates/des/src/queue.rs"), vec![("D6", 1, false)]);
        // `HierShape`, the tree the campus routes over, lives beside the protocol.
        assert_eq!(hits(dy, "crates/core/src/cohesion.rs"), vec![("D6", 1, false)]);
        // Outside the scoped modules the layouts are legitimate.
        assert!(hits(rc, "crates/core/src/node.rs").is_empty());
        assert!(hits(dy, "crates/des/src/lib.rs").is_empty());
        // Plain Rc/Box without the banned inner type is fine even in scope.
        let campus = "crates/core/src/scale/campus.rs";
        assert!(hits("let b: Box<u64> = Box::new(1);", campus).is_empty());
        assert!(hits("let r: Rc<str> = x.into();", campus).is_empty());
        // Suppression works like every other rule.
        let sup = "let n: Rc<RefCell<Node>> = make(); // lc-lint: allow(D6) -- bridge to old API\n";
        assert_eq!(hits(sup, "crates/core/src/scale/campus.rs"), vec![("D6", 1, true)]);
    }

    #[test]
    fn registry_module_carries_full_coverage_with_zero_panic_budget() {
        // D2: the sharded registry store feeds wire messages (gossip
        // digests/deltas) — unordered maps are banned.
        let src = "use std::collections::HashMap;";
        assert_eq!(hits(src, "crates/core/src/registry/backend.rs"), vec![("D2", 1, false)]);
        assert_eq!(hits(src, "crates/core/src/registry/shard.rs"), vec![("D2", 1, false)]);
        // D4: shard placement hashes, it never draws — no ad-hoc RNG
        // streams and no foreign entropy in the ring.
        assert_eq!(
            hits("let r = SimRng::seed_from_u64(9);", "crates/core/src/registry/shard.rs"),
            vec![("D4", 1, false)]
        );
        assert_eq!(
            hits("let h: RandomState = Default::default();", "crates/core/src/registry/mod.rs"),
            vec![("D4", 1, false)]
        );
        // A2: one library unwrap in registry/ fails the workspace run.
        // Test code keeps its exemption.
        assert_eq!(
            hits("let s = map.get(&k).unwrap();", "crates/core/src/registry/backend.rs"),
            vec![("A2", 1, false)]
        );
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); }\n}\n";
        assert!(hits(in_test, "crates/core/src/registry/shard.rs").is_empty());
    }

    #[test]
    fn load_crate_carries_full_coverage_with_zero_panic_budget() {
        // D2: the workload engine's stats feed printed capacity tables
        // and the committed E16 JSON — unordered maps are banned.
        let src = "use std::collections::HashMap;";
        assert_eq!(hits(src, "crates/load/src/stats.rs"), vec![("D2", 1, false)]);
        // D3: load drivers are simulation actors, never OS threads.
        assert_eq!(
            hits("let h = thread::spawn(f);", "crates/load/src/driver.rs"),
            vec![("D3", 1, false)]
        );
        // D4: only the arrival module owns the workload RNG stream —
        // a seed anywhere else in the crate is ad hoc.
        assert_eq!(
            hits("let r = SimRng::seed_from_u64(1);", "crates/load/src/driver.rs"),
            vec![("D4", 1, false)]
        );
        assert!(
            hits("let r = SimRng::seed_from_u64(1);", "crates/load/src/arrival.rs").is_empty()
        );
        // A2: one library unwrap fails the workspace run.
        assert_eq!(
            hits("let v = q.pop().unwrap();", "crates/load/src/driver.rs"),
            vec![("A2", 1, false)]
        );
    }

    #[test]
    fn a2_counts_lib_code_only() {
        let src = "fn f() { x.unwrap(); y.expect(\"msg\"); z.unwrap_or(0); }";
        let h = hits(src, "crates/core/src/x.rs");
        assert_eq!(h.len(), 2, "unwrap_or must not count: {h:?}");
        assert!(hits(src, "crates/core/tests/x.rs").is_empty());
        assert!(hits(src, "crates/bench/src/bin/e1.rs").is_empty());
        // A name the file declares as its own `fn` is that method (the
        // IDL parser's `expect(..) -> Result`), not the panicking one.
        let own = format!("fn expect(&mut self, k: Kind) -> Result<(), E> {{ Err(E) }}\n{src}");
        assert_eq!(hits(&own, "crates/core/src/x.rs"), vec![("A2", 2, false)]);
    }

    #[test]
    fn cfg_test_mod_is_exempt_from_a2_and_d2() {
        let src = "use std::collections::BTreeMap;\n\
                   #[cfg(test)]\n#[allow(dead_code)]\nmod tests {\n\
                   use std::collections::HashMap;\n\
                   fn f() { x.unwrap(); }\n}\n";
        assert!(hits(src, "crates/orb/src/x.rs").is_empty());
        // …but D1 still applies inside test modules.
        let src2 = "#[cfg(test)]\nmod tests {\n use std::time::Instant;\n}\n";
        assert_eq!(hits(src2, "crates/orb/src/x.rs"), vec![("D1", 3, false)]);
    }

    #[test]
    fn suppressions_cover_same_and_next_line() {
        let trailing = "use std::time::Instant; // lc-lint: allow(D1) -- wall-clock metric\n";
        assert_eq!(hits(trailing, "crates/des/src/lib.rs"), vec![("D1", 1, true)]);
        let above = "// lc-lint: allow(D1) -- wall-clock metric\nuse std::time::Instant;\n";
        assert_eq!(hits(above, "crates/des/src/lib.rs"), vec![("D1", 2, true)]);
        let wrong_rule = "use std::time::Instant; // lc-lint: allow(D2) -- mismatched\n";
        assert_eq!(hits(wrong_rule, "crates/des/src/lib.rs"), vec![("D1", 1, false)]);
    }

    #[test]
    fn malformed_suppression_is_a_hard_error() {
        let r = check_file("// lc-lint: allow(D1)\n", &ctx("crates/des/src/lib.rs"));
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.errors[0].rule, "LINT");
    }
}
