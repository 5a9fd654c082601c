//! Fixture-file tests: each rule fires where expected, suppressions
//! behave, the `fixtures` dir is invisible to workspace scans, and — the
//! point of the whole exercise — the real workspace is clean.

use lc_lint::{execute, RunOpts};
use std::path::{Path, PathBuf};

fn fixture_ws() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn run(paths: &[&str]) -> lc_lint::Execution {
    let opts = RunOpts {
        root: fixture_ws(),
        paths: paths.iter().map(PathBuf::from).collect(),
        workspace: paths.is_empty(),
    };
    execute(&opts).expect("fixture scan")
}

/// Diagnostics as `(file, line, rule)` triples for easy assertions.
fn keys(e: &lc_lint::Execution) -> Vec<(String, u32, String)> {
    e.diagnostics
        .iter()
        .filter_map(|d| {
            let mut it = d.splitn(3, ':');
            let file = it.next()?.to_owned();
            let line = it.next()?.parse().ok()?;
            let rule = it.next()?.trim().split(' ').next()?.to_owned();
            Some((file, line, rule))
        })
        .collect()
}

#[test]
fn every_rule_fires_at_the_expected_site() {
    let e = run(&[]);
    assert!(!e.clean);
    let got = keys(&e);
    let v = "crates/orb/src/violations.rs";
    for want in [
        (v, 3, "D2"),  // use HashMap
        (v, 4, "D1"),  // use Instant
        (v, 7, "D4"),  // ad-hoc seed_from_u64
        (v, 11, "D1"), // Instant::now
        (v, 12, "D2"), // HashMap binding
        (v, 13, "D3"), // thread::spawn
        (v, 14, "D3"), // mpsc
        (v, 15, "A2"), // unwrap in lib code
        ("crates/idl/src/scope.rs", 6, "D4"), // RandomState (banned anywhere)
        ("crates/idl/src/scope.rs", 8, "D4"),
        ("crates/orb/src/malformed.rs", 2, "LINT"), // reasonless suppression
    ] {
        let k = (want.0.to_owned(), want.1, want.2.to_owned());
        assert!(got.contains(&k), "missing {k:?} in {got:?}");
    }
    // Out-of-scope hazards stay silent: HashMap / thread::spawn in `idl`,
    // unwrap inside #[cfg(test)].
    assert!(
        !got.iter().any(|(f, _, r)| f.contains("scope.rs") && (r == "D2" || r == "D3" || r == "A2")),
        "idl fixture should only trip D4: {got:?}"
    );
}

#[test]
fn suppressions_silence_and_are_counted() {
    let e = run(&["crates/orb/src/suppressed.rs"]);
    assert!(e.clean, "suppressed fixture should be clean: {:?}", e.diagnostics);
    let s = &e.stats.per_rule;
    for rule in ["D1", "D2", "A2"] {
        let rs = s.get(rule).copied().unwrap_or_default();
        assert_eq!((rs.fired, rs.suppressed), (1, 1), "rule {rule}");
    }
}

#[test]
fn a2_skips_a_files_own_expect_method() {
    // The IDL parser's `self.expect(kind, what)?` returns `Result`; only
    // the `Option::unwrap` in the same file is a panic site.
    let rel = "crates/idl/src/own_expect.rs";
    let e = run(&[rel]);
    let root = fixture_ws();
    assert_eq!(keys(&e), vec![(rel.to_owned(), line_of(&root, rel, "A2-fires"), "A2".to_owned())]);
    assert_eq!(e.stats.per_rule["A2"].fired, 1);
}

fn proto_ws() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/proto_ws")
}

/// 1-based line of the first fixture line containing `needle`.
fn line_of(root: &Path, rel: &str, needle: &str) -> u32 {
    let src = std::fs::read_to_string(root.join(rel)).expect("fixture source");
    let pos = src.lines().position(|l| l.contains(needle)).unwrap_or_else(|| {
        panic!("marker {needle:?} not found in {rel}");
    });
    (pos + 1) as u32
}

#[test]
fn protocol_flow_rules_fire_at_the_expected_sites() {
    let root = proto_ws();
    let opts = RunOpts { root: root.clone(), workspace: true, ..RunOpts::default() };
    let e = execute(&opts).expect("proto fixture scan");
    assert!(!e.clean);
    let got = keys(&e);
    let proto = "crates/proto/src/proto.rs";
    let node = "crates/proto/src/node.rs";
    for (file, marker, rule) in [
        (proto, "P1-dead", "P1"),      // declared, never constructed
        (node, "P1-unhandled", "P1"),  // constructed, never matched
        (node, "P2-empty", "P2"),      // request arm with no reply/park
        (node, "P2-unswept", "P2"),    // table inserted, never completed
        (node, "P3-leak", "P3"),       // let-bound span never ended
        (node, "P3-drop", "P3"),       // span result dropped on the spot
    ] {
        let k = (file.to_owned(), line_of(&root, file, marker), rule.to_owned());
        assert!(got.contains(&k), "missing {k:?} in {got:?}");
    }
    // …and nothing else: the clean Query arm, the block-tail closure
    // span (`P3-tail-clean`) and every suppressed site stay silent.
    assert_eq!(got.len(), 6, "unexpected extra findings: {got:?}");
}

#[test]
fn workspace_rules_honour_suppressions() {
    let opts = RunOpts { root: proto_ws(), workspace: true, ..RunOpts::default() };
    let e = execute(&opts).expect("proto fixture scan");
    for (rule, fired, suppressed) in [("P1", 2, 0), ("P2", 3, 1), ("P3", 3, 1)] {
        let rs = e.stats.per_rule.get(rule).copied().unwrap_or_default();
        assert_eq!((rs.fired, rs.suppressed), (fired, suppressed), "rule {rule}");
    }
    assert!(
        !keys(&e).iter().any(|(f, _, _)| f.contains("suppressed.rs")),
        "suppressed fixture leaked diagnostics: {:?}",
        e.diagnostics
    );
}

#[test]
fn partial_scans_skip_workspace_rules() {
    // Explicit paths can't see the whole message graph, so P1–P3
    // must not fire — "unhandled" is meaningless on half a workspace.
    let opts = RunOpts {
        root: proto_ws(),
        paths: vec![PathBuf::from("crates/proto/src/node.rs")],
        ..RunOpts::default()
    };
    let e = execute(&opts).expect("partial scan");
    assert!(e.clean, "partial scan should skip flow rules: {:?}", e.diagnostics);
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else { return };
    for entry in rd.flatten() {
        let p = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if p.is_dir() {
            if name != "target" && name != "fixtures" && !name.starts_with('.') {
                rs_files(&p, out);
            }
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
}

#[test]
fn no_wall_clock_exemptions_outside_the_lint_crate() {
    // Wall time is measured only from outside the workspace (`.perf`);
    // D1 allowlists no path, and no file may carry a D1 suppression.
    //
    // Simulated-metric accessors must never need suppressions of any
    // kind: `Net::max_recv` / traffic counters and the registry
    // `BackendStats` surface feed determinism-diffed experiment tables.
    let metric_accessors = [
        "crates/net/src/lib.rs",
        "crates/core/src/registry/backend.rs",
        "crates/core/src/node/ctx.rs",
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    rs_files(&root.join("crates"), &mut files);
    assert!(files.len() > 50, "workspace walk looks broken: {} files", files.len());
    for f in &files {
        let rel = f
            .strip_prefix(&root)
            .expect("workspace-relative path")
            .to_string_lossy()
            .replace('\\', "/");
        if rel.starts_with("crates/lint/") {
            continue; // the linter's own sources quote the marker in strings
        }
        let src = std::fs::read_to_string(f).expect("readable source");
        if let Some(line) = src.lines().find(|l| l.contains("lc-lint: allow(D1")) {
            panic!("D1 exemption in {rel}: wall clock stays out of the workspace\n  {line}");
        }
        if metric_accessors.contains(&rel.as_str()) {
            assert!(
                !src.contains("lc-lint: allow"),
                "metric-accessor file {rel} must stay suppression-free"
            );
        }
    }
}

#[test]
fn real_workspace_is_clean_and_fixtures_are_skipped() {
    // The fixture files above carry dozens of violations, so this
    // passing also proves `fixtures` dirs are excluded from workspace
    // scans.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let opts = RunOpts { root, workspace: true, ..RunOpts::default() };
    let e = execute(&opts).expect("workspace scan");
    assert!(e.clean, "workspace must lint clean: {:?}", e.diagnostics);
    assert!(!e
        .diagnostics
        .iter()
        .chain(std::iter::once(&String::new()))
        .any(|d| d.contains("fixtures")));
}
