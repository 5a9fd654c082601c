//! The protocol-flow rules: P1 (no dead / unhandled protocol
//! variants), P2 (request handlers reply or park a continuation;
//! continuation tables are swept), P3 (span open/end balance).
//!
//! All three run on the [`crate::index::Workspace`] +
//! [`crate::graph::Graph`] pair, so they see the whole scan at once —
//! they only run under `--workspace` (a partial scan would report
//! half-truths like "constructed but never matched" for a variant
//! whose handler simply wasn't scanned).
//!
//! DESIGN.md §13 maps each rule to the runtime invariant it proves.

use crate::graph::Graph;
use crate::index::Workspace;
use crate::lexer::Tok;
use crate::parser::Range;
use crate::rules::Violation;
use std::collections::BTreeSet;

/// The protocol enums the flow rules reason about. `NetMsg` is listed
/// for fixture workspaces; in the real tree it is the generic frame
/// struct `NetMsg<P>` around an inline payload, so only the payload
/// enums it is instantiated with (`CtrlMsg`, `OrbWire`) carry variants.
pub const PROTOCOL_ENUMS: [&str; 4] = ["CtrlMsg", "NetMsg", "Payload", "OrbWire"];

/// Request-shaped variants and the reply variants that discharge them.
/// A request's own name doubles as a legal "reply" because forwarding
/// the request toward its owner (shard hop, MRM parent) is a valid
/// handling path. Everything not listed is a one-way message.
const REQUEST_REPLIES: [(&str, &str, &[&str]); 8] = [
    ("CtrlMsg", "Query", &["Offers", "QueryDone", "Query"]),
    ("CtrlMsg", "Fetch", &["PackageBytes", "FetchFailed"]),
    ("CtrlMsg", "Spawn", &["SpawnDone"]),
    ("CtrlMsg", "MigrateIn", &["MigrateDone"]),
    ("CtrlMsg", "PlacementQuery", &["PlacementTarget"]),
    ("CtrlMsg", "ShardLookup", &["ShardServe", "QueryDone", "ShardLookup"]),
    ("CtrlMsg", "GossipDigest", &["GossipDelta"]),
    ("OrbWire", "Request", &["Reply"]),
];

/// Run P1 + P2 + P3 over the workspace.
pub fn check(ws: &Workspace, g: &Graph) -> Vec<Violation> {
    let mut out = Vec::new();
    p1_dead_and_unhandled(ws, g, &mut out);
    p2_requests_reply_or_park(ws, g, &mut out);
    p2_tables_are_swept(ws, g, &mut out);
    p3_span_balance(ws, &mut out);
    out
}

fn violation(ws: &Workspace, file: usize, line: u32, rule: &'static str, msg: String) -> Violation {
    Violation { file: ws.files[file].ctx.rel.clone(), line, rule, msg, suppressed: false }
}

/// P1: every declared protocol variant is constructed somewhere, and
/// every constructed variant is matched somewhere (lib/bin code).
fn p1_dead_and_unhandled(ws: &Workspace, g: &Graph, out: &mut Vec<Violation>) {
    for proto in PROTOCOL_ENUMS {
        let Some(variants) = ws.enums.get(proto) else { continue };
        for v in variants {
            let key = (proto.to_owned(), v.clone());
            let constructed = g.construct_sites.get(&key).map_or(0, Vec::len);
            let matched = g.pattern_sites.get(&key).map_or(0, Vec::len);
            if constructed == 0 {
                let &(fi, line) = &ws.variant_defs[&key];
                out.push(violation(
                    ws,
                    fi,
                    line,
                    "P1",
                    format!(
                        "dead protocol variant `{proto}::{v}`: declared but never \
                         constructed in lib/bin code — delete it or build the send path"
                    ),
                ));
            } else if matched == 0 {
                let &(fi, line) = &g.construct_sites[&key][0];
                out.push(violation(
                    ws,
                    fi,
                    line,
                    "P1",
                    format!(
                        "unhandled protocol variant `{proto}::{v}`: constructed here but \
                         matched nowhere — every sent message needs a handle site"
                    ),
                ));
            }
        }
    }
}

/// P2: a match arm receiving a request-shaped variant must, on some
/// path (direct or through calls), construct an allowed reply/forward
/// variant or insert into a continuation table.
fn p2_requests_reply_or_park(ws: &Workspace, g: &Graph, out: &mut Vec<Violation>) {
    for (fi, fa) in ws.files.iter().enumerate() {
        if !fa.libish() {
            continue;
        }
        for arm in &fa.parsed.arms {
            if arm.cfg_gated {
                continue; // may not be compiled in; can't judge its body
            }
            let requests = requests_in_pattern(ws, fi, arm.pat);
            if requests.is_empty() {
                continue;
            }
            // Methods on the protocol enum itself (wire_size, name, …)
            // introspect `self`; they are not handlers.
            if let (Some(ty), true) = (&arm.impl_ty, scrut_is_self(ws, fi, arm.scrut)) {
                if PROTOCOL_ENUMS.contains(&ty.as_str()) {
                    continue;
                }
            }
            let body_empty = arm.body.0 >= arm.body.1;
            if !body_empty && is_mapping_body(ws, fi, arm.body) {
                // Classifier arms (`=> ServiceKind::Registry`) route the
                // message; the routed-to handler is judged separately.
                continue;
            }
            let effects = g.close_range(ws, fi, arm.body);
            let satisfied = !effects.cont_inserts.is_empty()
                || requests.iter().all(|(e, v)| {
                    allowed_replies(e, v).iter().any(|r| {
                        effects.constructs.contains(&(e.to_string(), r.to_string()))
                    })
                });
            if !satisfied {
                let names: Vec<String> =
                    requests.iter().map(|(e, v)| format!("{e}::{v}")).collect();
                out.push(violation(
                    ws,
                    fi,
                    arm.line,
                    "P2",
                    format!(
                        "request handler for {} neither constructs a reply ({}) nor \
                         inserts a continuation on any path",
                        names.join(" | "),
                        requests
                            .iter()
                            .flat_map(|(e, v)| allowed_replies(e, v).iter())
                            .map(|r| r.to_string())
                            .collect::<BTreeSet<_>>()
                            .into_iter()
                            .collect::<Vec<_>>()
                            .join("/"),
                    ),
                ));
            }
        }
    }
}

/// P2 (sweep direction): a continuation table with lib/bin insert sites
/// must have a completion path (`remove` or `take_expired`) somewhere.
fn p2_tables_are_swept(ws: &Workspace, g: &Graph, out: &mut Vec<Violation>) {
    for (table, inserts) in &g.cont_insert_sites {
        if inserts.is_empty() || g.cont_complete_sites.contains_key(table) {
            continue;
        }
        let &(fi, line) = &inserts[0];
        out.push(violation(
            ws,
            fi,
            line,
            "P2",
            format!(
                "continuation table `{table}` is inserted into but never completed: \
                 no `remove` or `take_expired` sweep anywhere in lib/bin code — \
                 parked work would leak forever"
            ),
        ));
    }
}

/// Request variants named in a pattern range.
fn requests_in_pattern(ws: &Workspace, fi: usize, pat: Range) -> Vec<(&'static str, &'static str)> {
    let toks = &ws.files[fi].tokens;
    let mut found = Vec::new();
    let end = pat.1.min(toks.len());
    for i in pat.0..end {
        let Tok::Ident(e) = &toks[i].tok else { continue };
        if toks.get(i + 1).map(|t| &t.tok) != Some(&Tok::Punct(':'))
            || toks.get(i + 2).map(|t| &t.tok) != Some(&Tok::Punct(':'))
        {
            continue;
        }
        let Some(Tok::Ident(v)) = toks.get(i + 3).map(|t| &t.tok) else { continue };
        for &(re, rv, _) in &REQUEST_REPLIES {
            if re == e && rv == v && !found.contains(&(re, rv)) {
                found.push((re, rv));
            }
        }
    }
    found
}

fn allowed_replies(e: &str, v: &str) -> &'static [&'static str] {
    REQUEST_REPLIES
        .iter()
        .find(|&&(re, rv, _)| re == e && rv == v)
        .map(|&(_, _, r)| r)
        .unwrap_or(&[])
}

/// Is the scrutinee just `self` (possibly `*self` / `&self`)?
fn scrut_is_self(ws: &Workspace, fi: usize, scrut: Range) -> bool {
    let toks = &ws.files[fi].tokens;
    let mut saw_self = false;
    for t in &toks[scrut.0..scrut.1.min(toks.len())] {
        match &t.tok {
            Tok::Ident(n) if n == "self" => saw_self = true,
            Tok::Punct('*') | Tok::Punct('&') => {}
            _ => return false,
        }
    }
    saw_self
}

/// A "mapping" arm body: a pure value expression — idents, paths,
/// literals, field accesses — with no calls, blocks or statements.
fn is_mapping_body(ws: &Workspace, fi: usize, body: Range) -> bool {
    let toks = &ws.files[fi].tokens;
    toks[body.0..body.1.min(toks.len())].iter().all(|t| match &t.tok {
        Tok::Ident(_) | Tok::Literal | Tok::Num | Tok::Lifetime => true,
        Tok::Punct(c) => matches!(c, ':' | '.' | '&' | '*'),
    })
}

/// Methods that open a span (returning an `Option<TraceContext>` the
/// caller must eventually `end`), and the receivers we trust to be the
/// tracer. `complete()` opens and closes in one call, so it is exempt.
const SPAN_OPENS: [&str; 3] = ["span", "root", "child_of"];

/// P3: every tracer span opened in a function is either ended in that
/// function (directly or through an alias) or escapes it (stored in a
/// continuation struct, passed on, returned) for someone else to end.
fn p3_span_balance(ws: &Workspace, out: &mut Vec<Violation>) {
    for (fi, fa) in ws.files.iter().enumerate() {
        if !fa.libish() {
            continue;
        }
        let toks = &fa.tokens;
        for f in &fa.parsed.fns {
            let (start, end) = (f.body.0, f.body.1.min(toks.len()));
            // Collect opens with their binding (if let-bound).
            for i in start..end {
                let Tok::Ident(name) = &toks[i].tok else { continue };
                if !SPAN_OPENS.contains(&name.as_str())
                    || toks.get(i + 1).map(|t| &t.tok) != Some(&Tok::Punct('('))
                    || i < 2
                    || toks[i - 1].tok != Tok::Punct('.')
                    || !receiver_is_tracer(toks, i - 2)
                {
                    continue;
                }
                match enclosing_let_binding(toks, start, i) {
                    Some(binding) => {
                        if !span_binding_accounted(ws, fi, f.body, i, &binding) {
                            out.push(violation(
                                ws,
                                fi,
                                toks[i].line,
                                "P3",
                                format!(
                                    "span opened into `{binding}` is neither ended in this \
                                     function nor stored/passed on — the span would stay \
                                     open forever"
                                ),
                            ));
                        }
                    }
                    None => {
                        if span_open_is_statement(toks, start, i)
                            && !chain_is_block_tail(toks, i, end)
                        {
                            out.push(violation(
                                ws,
                                fi,
                                toks[i].line,
                                "P3",
                                format!(
                                    "span opened by `.{name}(…)` is dropped on the spot: \
                                     bind it and `end` it, or store it for a later sweep"
                                ),
                            ));
                        }
                        // Otherwise it is an argument / field value and
                        // escapes by construction.
                    }
                }
            }
        }
    }
}

/// Walk the receiver chain left of `.method(` — accept `tracer.`,
/// `self.tracer.`, `state.tracer.` etc.
fn receiver_is_tracer(toks: &[crate::lexer::Token], mut i: usize) -> bool {
    loop {
        match &toks[i].tok {
            Tok::Ident(n) if n == "tracer" || n.ends_with("_tracer") => return true,
            Tok::Ident(_) | Tok::Punct('.') => {
                if i == 0 {
                    return false;
                }
                i -= 1;
            }
            _ => return false,
        }
    }
}

/// If the statement containing token `i` is a `let` binding to a single
/// name (possibly via combinators on the RHS), return that name.
fn enclosing_let_binding(toks: &[crate::lexer::Token], start: usize, i: usize) -> Option<String> {
    let mut j = i;
    loop {
        match &toks[j].tok {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => return None,
            Tok::Ident(n) if n == "let" => {
                // `let (mut)? NAME =`
                let mut k = j + 1;
                if matches!(&toks.get(k).map(|t| &t.tok), Some(Tok::Ident(m)) if m == "mut") {
                    k += 1;
                }
                if let Some(Tok::Ident(name)) = toks.get(k).map(|t| &t.tok) {
                    if toks.get(k + 1).map(|t| &t.tok) == Some(&Tok::Punct('='))
                        || toks.get(k + 1).map(|t| &t.tok) == Some(&Tok::Punct(':'))
                    {
                        return Some(name.clone());
                    }
                }
                return None;
            }
            _ => {}
        }
        // `start` itself can be the `let` (first statement of the body),
        // so examine it before stopping.
        if j <= start {
            return None;
        }
        j -= 1;
    }
}

/// Is the open at `i` a bare statement (`tracer.span(…);`) whose result
/// is dropped? Walk left over the receiver chain to the statement edge.
fn span_open_is_statement(toks: &[crate::lexer::Token], start: usize, i: usize) -> bool {
    let mut j = i - 1; // the `.`
    while j > start {
        match &toks[j].tok {
            Tok::Punct('.') | Tok::Ident(_) => j -= 1,
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => return true,
            _ => return false, // `(`, `,`, `=`, `:`, `return` … — consumed
        }
    }
    true
}

/// Does the call chain starting at the open method `i` end right before
/// a `}` with no `;`? Then it is the tail expression of a block (often a
/// closure body) and its value escapes as the block's value.
fn chain_is_block_tail(toks: &[crate::lexer::Token], i: usize, end: usize) -> bool {
    // Consume the open call's `(…)`.
    let Some(mut j) = consume_parens(toks, i + 1, end) else { return false };
    // Consume any further chain links: `?`, `.field`, `.method(…)`.
    loop {
        match toks.get(j).map(|t| &t.tok) {
            Some(Tok::Punct('?')) => j += 1,
            Some(Tok::Punct('.')) => {
                let Some(Tok::Ident(_)) = toks.get(j + 1).map(|t| &t.tok) else { return false };
                if toks.get(j + 2).map(|t| &t.tok) == Some(&Tok::Punct('(')) {
                    let Some(k) = consume_parens(toks, j + 2, end) else { return false };
                    j = k;
                } else {
                    j += 2;
                }
            }
            _ => break,
        }
    }
    j < end && toks.get(j).map(|t| &t.tok) == Some(&Tok::Punct('}'))
}

/// If `toks[at]` is `(`, return the index just past its matching `)`.
fn consume_parens(toks: &[crate::lexer::Token], at: usize, end: usize) -> Option<usize> {
    if toks.get(at).map(|t| &t.tok) != Some(&Tok::Punct('(')) {
        return None;
    }
    let mut depth = 0u32;
    let mut j = at;
    while j < end {
        match &toks[j].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return Some(j + 1);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Is the span bound to `binding` accounted for later in the function:
/// ended (possibly via an alias from `Some(alias) = binding` patterns or
/// a match on the binding), or escaped into a struct literal / call?
fn span_binding_accounted(
    ws: &Workspace,
    fi: usize,
    body: Range,
    open_idx: usize,
    binding: &str,
) -> bool {
    let toks = &ws.files[fi].tokens;
    let end = body.1.min(toks.len());
    let mut aliases: BTreeSet<String> = BTreeSet::new();
    aliases.insert(binding.to_owned());
    // Two passes: aliases can be introduced after first use in source
    // order only, but a second pass keeps this robust to `match` bodies.
    for _ in 0..2 {
        for i in open_idx..end {
            let Tok::Ident(n) = &toks[i].tok else { continue };
            if n != "Some" {
                continue;
            }
            // `Some(alias)` pattern applied to a known alias:
            // `if let Some(s) = span` / `while let …` / match arm where
            // the scrutinee is the binding.
            if let (Some(Tok::Punct('(')), Some(Tok::Ident(inner)), Some(Tok::Punct(')'))) = (
                toks.get(i + 1).map(|t| &t.tok),
                toks.get(i + 2).map(|t| &t.tok),
                toks.get(i + 3).map(|t| &t.tok),
            ) {
                let eq_src = matches!(
                    (toks.get(i + 4).map(|t| &t.tok), toks.get(i + 5).map(|t| &t.tok)),
                    (Some(Tok::Punct('=')), Some(Tok::Ident(src))) if aliases.contains(src)
                );
                if eq_src {
                    aliases.insert(inner.clone());
                }
            }
        }
        // `match binding { Some(s) => … }` arms.
        for arm in &ws.files[fi].parsed.arms {
            let scrut = &toks[arm.scrut.0..arm.scrut.1.min(toks.len())];
            let scrut_alias = matches!(
                scrut,
                [t] if matches!(&t.tok, Tok::Ident(n) if aliases.contains(n))
            );
            if !scrut_alias {
                continue;
            }
            let p = &toks[arm.pat.0..arm.pat.1.min(toks.len())];
            if let [s, _, inner, _] = p {
                if matches!(&s.tok, Tok::Ident(n) if n == "Some") {
                    if let Tok::Ident(inner) = &inner.tok {
                        aliases.insert(inner.clone());
                    }
                }
            }
        }
    }
    // Pass 1: any `end(…)` call whose arguments mention an alias.
    for i in open_idx..end {
        let Tok::Ident(n) = &toks[i].tok else { continue };
        if n != "end" || toks.get(i + 1).map(|t| &t.tok) != Some(&Tok::Punct('(')) {
            continue;
        }
        let mut depth = 0u32;
        let mut j = i + 1;
        while j < end {
            match &toks[j].tok {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Ident(a) if aliases.contains(a) => return true,
                _ => {}
            }
            j += 1;
        }
    }
    // Pass 2: escape — an alias used as a struct-literal field value,
    // shorthand field, call argument or return value.
    for i in (open_idx + 1)..end {
        let Tok::Ident(n) = &toks[i].tok else { continue };
        if !aliases.contains(n) {
            continue;
        }
        let prev = toks.get(i.wrapping_sub(1)).map(|t| &t.tok);
        let next = toks.get(i + 1).map(|t| &t.tok);
        let prev_opens = matches!(
            prev,
            Some(Tok::Punct('{')) | Some(Tok::Punct(',')) | Some(Tok::Punct('('))
                | Some(Tok::Punct(':'))
        ) || matches!(prev, Some(Tok::Ident(k)) if k == "return" || k == "Some");
        let next_closes = matches!(
            next,
            Some(Tok::Punct(',')) | Some(Tok::Punct('}')) | Some(Tok::Punct(')'))
                | Some(Tok::Punct(';')) | None
        );
        if prev_opens && next_closes {
            return true;
        }
    }
    false
}
