//! D7: intra-procedural wall-clock taint.
//!
//! D1 bans the wall-clock *types* syntactically and allowlists no
//! path, but a line can still carry a justified `allow(D1)`. D7
//! closes the hole that escape opens: a value *derived* from
//! `Instant`/`SystemTime` — however many `let` bindings deep — must
//! never reach the simulation's outputs, where it would break
//! byte-determinism. Sinks are protocol message payloads (construction
//! of a [`crate::protocol::PROTOCOL_ENUMS`] variant), the send-family
//! calls that put messages on the fabric, and `SimTime` construction.
//! Wall-clock metrics calls and explicitly wall-marked report columns
//! are *not* sinks — that is the only use a D1 escape could have.
//!
//! The pass is a single forward walk per function over `;`/brace
//! separated segments: no branches, no joins, no field-sensitivity —
//! see `crates/lint/README.md` for what that deliberately misses.

use crate::index::Workspace;
use crate::lexer::Tok;
use crate::protocol::PROTOCOL_ENUMS;
use crate::rules::Violation;
use std::collections::BTreeSet;

/// Calls that put a payload onto the simulated fabric or timer wheel.
const SEND_SINKS: [&str; 8] = [
    "send", "send_ctrl", "send_to", "send_in", "send_packed", "send_at", "broadcast",
    "timer_in",
];

/// Wall-clock sources.
const SOURCES: [&str; 2] = ["Instant", "SystemTime"];

/// Run D7 over every function of every scanned file.
pub fn check(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for fa in &ws.files {
        for f in &fa.parsed.fns {
            check_fn(ws, fa, f.body, &mut out);
        }
    }
    out
}

fn check_fn(
    ws: &Workspace,
    fa: &crate::index::FileAnalysis,
    body: (usize, usize),
    out: &mut Vec<Violation>,
) {
    let toks = &fa.tokens;
    let end = body.1.min(toks.len());
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    let mut seg_start = body.0;
    let mut i = body.0;
    while i <= end {
        let boundary = i == end
            || matches!(toks[i].tok, Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}'));
        if !boundary {
            i += 1;
            continue;
        }
        let seg = (seg_start, i);
        if seg.1 > seg.0 {
            segment(ws, fa, seg, &mut tainted, out);
        }
        i += 1;
        seg_start = i;
    }
}

/// Process one statement-ish segment: check sinks, then propagate taint
/// through a `let` binding if the RHS is tainted.
fn segment(
    ws: &Workspace,
    fa: &crate::index::FileAnalysis,
    seg: (usize, usize),
    tainted: &mut BTreeSet<String>,
    out: &mut Vec<Violation>,
) {
    let toks = &fa.tokens;
    let p = &fa.parsed;

    // Sink 1: protocol variant construction in a segment that carries
    // wall-clock data (the payload approximation is segment-level).
    for i in seg.0..seg.1 {
        let Tok::Ident(e) = &toks[i].tok else { continue };
        if !PROTOCOL_ENUMS.contains(&e.as_str()) || p.pattern[i] || p.ignored[i] {
            continue;
        }
        let is_variant = ws.enums.get(e).is_some_and(|vs| {
            matches!(toks.get(i + 3).map(|t| &t.tok), Some(Tok::Ident(v)) if vs.contains(v))
        }) && toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct(':'))
            && toks.get(i + 2).map(|t| &t.tok) == Some(&Tok::Punct(':'));
        if !is_variant {
            continue;
        }
        if let Some(id) = region_taint(toks, seg, tainted) {
            out.push(viol(
                fa,
                toks[i].line,
                format!(
                    "wall-clock-derived value `{id}` reaches a protocol message payload \
                     (`{e}::…` construction): simulated outputs must carry virtual time only"
                ),
            ));
            break;
        }
    }

    // Sink 2: send-family call with a tainted argument.
    for i in seg.0..seg.1 {
        let Tok::Ident(n) = &toks[i].tok else { continue };
        if !SEND_SINKS.contains(&n.as_str())
            || toks.get(i + 1).map(|t| &t.tok) != Some(&Tok::Punct('('))
        {
            continue;
        }
        let args = balanced_parens(toks, i + 1, seg.1);
        if let Some(id) = region_taint(toks, args, tainted) {
            out.push(viol(
                fa,
                toks[i].line,
                format!(
                    "wall-clock-derived value `{id}` flows into `{n}(…)`: nothing derived \
                     from host time may enter the simulated fabric"
                ),
            ));
        }
    }

    // Sink 3: SimTime construction from a tainted value.
    for i in seg.0..seg.1 {
        let Tok::Ident(n) = &toks[i].tok else { continue };
        if n != "SimTime" {
            continue;
        }
        // `SimTime::method(args)` — check the argument region.
        if toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct(':'))
            && toks.get(i + 2).map(|t| &t.tok) == Some(&Tok::Punct(':'))
            && toks.get(i + 4).map(|t| &t.tok) == Some(&Tok::Punct('('))
        {
            let args = balanced_parens(toks, i + 4, seg.1);
            if let Some(id) = region_taint(toks, args, tainted) {
                out.push(viol(
                    fa,
                    toks[i].line,
                    format!(
                        "wall-clock-derived value `{id}` used to construct SimTime: \
                         virtual time must never be derived from the host clock"
                    ),
                ));
            }
        }
    }

    // Propagation: `let PAT = RHS;` — tainted RHS taints every name the
    // pattern binds. Re-assignment `name = RHS` re-taints likewise.
    if let Some(Tok::Ident(kw)) = toks.get(seg.0).map(|t| &t.tok) {
        if kw == "let" {
            let mut eq = None;
            for j in seg.0..seg.1 {
                if toks[j].tok == Tok::Punct('=')
                    && toks.get(j + 1).map(|t| &t.tok) != Some(&Tok::Punct('='))
                {
                    eq = Some(j);
                    break;
                }
            }
            if let Some(eq) = eq {
                if region_taint(toks, (eq + 1, seg.1), tainted).is_some() {
                    for (j, t) in toks.iter().enumerate().take(eq).skip(seg.0 + 1) {
                        if let Tok::Ident(n) = &t.tok {
                            if p.pattern[j] && n != "mut" && n != "Some" && n != "Ok" {
                                tainted.insert(n.clone());
                            }
                        }
                    }
                }
            }
            return;
        }
    }
    if let (Some(Tok::Ident(name)), Some(Tok::Punct('='))) =
        (toks.get(seg.0).map(|t| &t.tok), toks.get(seg.0 + 1).map(|t| &t.tok))
    {
        if toks.get(seg.0 + 2).map(|t| &t.tok) != Some(&Tok::Punct('='))
            && region_taint(toks, (seg.0 + 2, seg.1), tainted).is_some()
        {
            tainted.insert(name.clone());
        }
    }
}

/// First wall-clock-tainted identifier (or source type) in the region.
fn region_taint(
    toks: &[crate::lexer::Token],
    region: (usize, usize),
    tainted: &BTreeSet<String>,
) -> Option<String> {
    for t in &toks[region.0..region.1.min(toks.len())] {
        if let Tok::Ident(n) = &t.tok {
            if tainted.contains(n) || SOURCES.contains(&n.as_str()) {
                return Some(n.clone());
            }
        }
    }
    None
}

/// The region inside the paren pair opening at `open` (clamped).
fn balanced_parens(toks: &[crate::lexer::Token], open: usize, limit: usize) -> (usize, usize) {
    let mut depth = 0u32;
    let mut j = open;
    while j < limit.min(toks.len()) {
        match &toks[j].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return (open + 1, j);
                }
            }
            _ => {}
        }
        j += 1;
    }
    (open + 1, j)
}

fn viol(fa: &crate::index::FileAnalysis, line: u32, msg: String) -> Violation {
    Violation { file: fa.ctx.rel.clone(), line, rule: "D7", msg, suppressed: false }
}
