//! A Rust-subset item parser over the [`crate::lexer`] token stream.
//!
//! The protocol rules (P1–P3) need more shape than per-line token
//! matching gives: which enums exist and what their variants are, where
//! function bodies begin and end, which tokens sit in *pattern* position
//! (a `CtrlMsg::Query { .. }` inside a match arm is a handle site, the
//! same tokens in expression position are a construction site), and how
//! match arms decompose into pattern / guard / body. This module
//! recovers exactly that — nothing more. It is not a real Rust parser:
//! macros other than `matches!` are opaque, type expressions are skipped
//! rather than understood, and anything it cannot parse degrades to
//! "skip a token" instead of failing (see `crates/lint/README.md` for
//! the full list of known limits).
//!
//! Everything works on half-open token index ranges into the lexed
//! stream, so the analyses in [`crate::graph`] and friends can re-scan
//! any region (an arm body, a function) without re-lexing.

use crate::lexer::{Tok, Token};

/// Half-open token index range `[start, end)`.
pub type Range = (usize, usize);

/// One `enum` item and its variants.
#[derive(Debug)]
pub struct EnumDef {
    /// Enum name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: u32,
    /// Variant names with their definition lines, in source order.
    pub variants: Vec<(String, u32)>,
}

/// One named struct field (tuple-struct fields are skipped).
#[derive(Debug)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Last path segment of the field's type (`Continuations` for
    /// `node::Continuations<u64, PendingQuery>`).
    pub type_head: String,
}

/// One `fn` item with a body.
#[derive(Debug)]
pub struct FnDef {
    /// Bare function name (no path, no self type).
    pub name: String,
    /// `impl` block self-type head when the fn is a method.
    pub impl_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the body, excluding the outer braces.
    pub body: Range,
}

/// One match arm: `pat (if guard)? => body`.
#[derive(Debug)]
pub struct MatchArm {
    /// Index into [`Parsed::fns`] of the enclosing function, if any.
    pub fn_idx: Option<usize>,
    /// `impl` self-type head the arm's match sits under, if any.
    pub impl_ty: Option<String>,
    /// Token range of the match scrutinee.
    pub scrut: Range,
    /// Token range of the pattern (guard excluded).
    pub pat: Range,
    /// Token range of the guard expression, if present.
    pub guard: Option<Range>,
    /// Token range of the body (inner range for `{ … }` bodies).
    pub body: Range,
    /// 1-based line the pattern starts on.
    pub line: u32,
    /// Arm carries a `#[cfg(…)]` attribute (may not be compiled in).
    pub cfg_gated: bool,
}

/// Everything the parser recovers from one file.
#[derive(Debug, Default)]
pub struct Parsed {
    /// Enum definitions.
    pub enums: Vec<EnumDef>,
    /// Named struct fields (for `Continuations<…>`-typed table lookup).
    pub fields: Vec<FieldDef>,
    /// Functions with bodies (trait-method signatures are skipped).
    pub fns: Vec<FnDef>,
    /// Match arms, innermost included (nested matches yield nested arms).
    pub arms: Vec<MatchArm>,
    /// Per-token flag: token sits in pattern position (match arm pattern,
    /// `let` / `if let` / `while let` pattern, `for` pattern,
    /// `matches!` second operand).
    pub pattern: Vec<bool>,
    /// Per-token flag: token sits in a non-expression region (`use`
    /// declarations, type annotations, turbofish generic arguments) and
    /// must count as neither construction nor handling.
    pub ignored: Vec<bool>,
}

/// Parse one lexed file.
pub fn parse(toks: &[Token]) -> Parsed {
    let mut p = P {
        t: toks,
        out: Parsed {
            pattern: vec![false; toks.len()],
            ignored: vec![false; toks.len()],
            ..Parsed::default()
        },
    };
    p.items(0, toks.len(), None);
    p.out
}

struct P<'a> {
    t: &'a [Token],
    out: Parsed,
}

impl P<'_> {
    fn ident(&self, i: usize) -> Option<&str> {
        match self.t.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn is(&self, i: usize, c: char) -> bool {
        self.t.get(i).map(|t| &t.tok) == Some(&Tok::Punct(c))
    }

    fn line(&self, i: usize) -> u32 {
        self.t.get(i).map_or(0, |t| t.line)
    }

    fn mark(&mut self, r: Range, flags: fn(&mut Parsed) -> &mut Vec<bool>) {
        for i in r.0..r.1.min(self.t.len()) {
            flags(&mut self.out)[i] = true;
        }
    }

    /// Skip a `#[…]` / `#![…]` attribute starting at `i` (which must be
    /// `#`). Returns the index after `]` and whether it was a `cfg` attr.
    fn skip_attr(&self, mut i: usize) -> (usize, bool) {
        debug_assert!(self.is(i, '#'));
        i += 1;
        if self.is(i, '!') {
            i += 1;
        }
        if !self.is(i, '[') {
            return (i, false);
        }
        let mut depth = 0u32;
        let mut cfg = false;
        while i < self.t.len() {
            match &self.t[i].tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        return (i + 1, cfg);
                    }
                }
                Tok::Ident(n) if n == "cfg" || n == "cfg_attr" => cfg = true,
                _ => {}
            }
            i += 1;
        }
        (i, cfg)
    }

    /// Index just past the brace that matches the `{` at `open`.
    fn match_brace(&self, open: usize) -> usize {
        debug_assert!(self.is(open, '{'));
        let mut depth = 0u32;
        let mut i = open;
        while i < self.t.len() {
            match &self.t[i].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        self.t.len()
    }

    /// Skip a generic-argument list whose `<` sits at `i`; returns the
    /// index after the matching `>`. `->` arrows never close the list.
    fn skip_angles(&self, mut i: usize) -> usize {
        debug_assert!(self.is(i, '<'));
        let mut depth = 0u32;
        while i < self.t.len() {
            match &self.t[i].tok {
                Tok::Punct('<') => depth += 1,
                Tok::Punct('>') if i > 0 && self.is(i - 1, '-') => {}
                Tok::Punct('>') => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                // A brace or semicolon inside generics means we misread
                // an expression `<`; bail rather than eat the file.
                Tok::Punct('{') | Tok::Punct(';') => return i,
                _ => {}
            }
            i += 1;
        }
        i
    }

    /// Item sequence: module/impl/trait bodies and the file top level.
    fn items(&mut self, mut i: usize, end: usize, impl_ty: Option<&str>) {
        while i < end {
            match self.ident(i) {
                _ if self.is(i, '#') => i = self.skip_attr(i).0,
                Some("use") => {
                    let mut j = i;
                    while j < end && !self.is(j, ';') {
                        j += 1;
                    }
                    self.mark((i, j + 1), |p| &mut p.ignored);
                    i = j + 1;
                }
                Some("enum") => i = self.enum_def(i),
                Some("struct") | Some("union") => i = self.struct_def(i),
                Some("mod") => {
                    let mut j = i + 1;
                    while j < end && !self.is(j, '{') && !self.is(j, ';') {
                        j += 1;
                    }
                    if self.is(j, '{') {
                        let close = self.match_brace(j);
                        self.items(j + 1, close - 1, None);
                        i = close;
                    } else {
                        i = j + 1;
                    }
                }
                Some("impl") => {
                    let (ty, body_open) = self.impl_header(i);
                    if self.is(body_open, '{') {
                        let close = self.match_brace(body_open);
                        self.items(body_open + 1, close - 1, ty.as_deref());
                        i = close;
                    } else {
                        i = body_open + 1;
                    }
                }
                Some("trait") => {
                    let mut j = i + 1;
                    while j < end && !self.is(j, '{') && !self.is(j, ';') {
                        j += 1;
                    }
                    if self.is(j, '{') {
                        let close = self.match_brace(j);
                        self.items(j + 1, close - 1, None);
                        i = close;
                    } else {
                        i = j + 1;
                    }
                }
                Some("fn") => i = self.fn_def(i, impl_ty),
                Some("macro_rules") => {
                    let mut j = i;
                    while j < end && !self.is(j, '{') {
                        j += 1;
                    }
                    i = if self.is(j, '{') { self.match_brace(j) } else { j + 1 };
                }
                _ => i += 1,
            }
        }
    }

    /// `impl<G> Type {` / `impl Trait for Type {` → (type head, `{` idx).
    fn impl_header(&self, i: usize) -> (Option<String>, usize) {
        let mut j = i + 1;
        if self.is(j, '<') {
            j = self.skip_angles(j);
        }
        // Collect path heads until `{`; the segment nearest the brace is
        // the self type (covers `impl Trait for Type`).
        let mut last: Option<String> = None;
        while j < self.t.len() && !self.is(j, '{') && !self.is(j, ';') {
            if let Some(n) = self.ident(j) {
                if n != "for" && n != "where" && n != "dyn" && n != "mut" {
                    last = Some(n.to_owned());
                }
                j += 1;
            } else if self.is(j, '<') {
                j = self.skip_angles(j);
            } else {
                j += 1;
            }
        }
        (last, j)
    }

    /// `enum Name<…> { Variant(..), Variant { .. }, … }`.
    fn enum_def(&mut self, i: usize) -> usize {
        let Some(name) = self.ident(i + 1) else { return i + 1 };
        let mut def = EnumDef { name: name.to_owned(), line: self.line(i), variants: Vec::new() };
        let mut j = i + 2;
        if self.is(j, '<') {
            j = self.skip_angles(j);
        }
        if !self.is(j, '{') {
            return j + 1; // `enum X;` or something unparseable
        }
        let close = self.match_brace(j);
        let mut k = j + 1;
        while k < close - 1 {
            if self.is(k, '#') {
                k = self.skip_attr(k).0;
                continue;
            }
            let Some(v) = self.ident(k) else {
                k += 1;
                continue;
            };
            def.variants.push((v.to_owned(), self.line(k)));
            // Skip the payload / discriminant to the variant-separating
            // comma. Nested generics hide their commas inside `(…)` or
            // `{…}`, so bracket depth alone is enough here.
            let mut depth = 0u32;
            k += 1;
            while k < close - 1 {
                match &self.t[k].tok {
                    Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                    Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                        depth = depth.saturating_sub(1)
                    }
                    Tok::Punct(',') if depth == 0 => {
                        k += 1;
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
        }
        self.out.enums.push(def);
        close
    }

    /// `struct Name { field: Type, … }`; tuple/unit structs are skipped.
    fn struct_def(&mut self, i: usize) -> usize {
        let mut j = i + 2;
        if self.is(j, '<') {
            j = self.skip_angles(j);
        }
        while j < self.t.len() && !self.is(j, '{') && !self.is(j, ';') {
            if self.is(j, '(') {
                // Tuple struct: `struct X(A, B);` — skip to `;`.
                while j < self.t.len() && !self.is(j, ';') {
                    j += 1;
                }
                return j + 1;
            }
            j += 1;
        }
        if !self.is(j, '{') {
            return j + 1;
        }
        let close = self.match_brace(j);
        let mut k = j + 1;
        while k < close - 1 {
            if self.is(k, '#') {
                k = self.skip_attr(k).0;
                continue;
            }
            if self.ident(k) == Some("pub") {
                k += 1;
                if self.is(k, '(') {
                    while k < close - 1 && !self.is(k, ')') {
                        k += 1;
                    }
                    k += 1;
                }
                continue;
            }
            let (Some(fname), true) = (self.ident(k), self.is(k + 1, ':')) else {
                k += 1;
                continue;
            };
            // Type head: the last segment of the leading path.
            let mut ty = k + 2;
            while ty < close - 1
                && (matches!(self.t[ty].tok, Tok::Punct('&') | Tok::Lifetime)
                    || self.ident(ty) == Some("mut"))
            {
                ty += 1;
            }
            let mut head = String::new();
            while let Some(seg) = self.ident(ty) {
                head = seg.to_owned();
                if self.is(ty + 1, ':') && self.is(ty + 2, ':') {
                    ty += 3;
                } else {
                    break;
                }
            }
            if !head.is_empty() {
                self.out.fields.push(FieldDef { name: fname.to_owned(), type_head: head });
            }
            // Skip to the field-separating comma; generic-argument commas
            // are angle-nested without any bracket, so track angles too.
            let (mut depth, mut angle) = (0u32, 0u32);
            k += 2;
            while k < close - 1 {
                match &self.t[k].tok {
                    Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                    Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                        depth = depth.saturating_sub(1)
                    }
                    Tok::Punct('<') => angle += 1,
                    Tok::Punct('>') if angle > 0 && !self.is(k - 1, '-') => angle -= 1,
                    Tok::Punct(',') if depth == 0 && angle == 0 => {
                        k += 1;
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
        }
        close
    }

    /// `fn name<…>(…) -> … { body }`; records the def and scans the body.
    fn fn_def(&mut self, i: usize, impl_ty: Option<&str>) -> usize {
        let Some(name) = self.ident(i + 1) else { return i + 1 };
        let mut j = i + 2;
        if self.is(j, '<') {
            j = self.skip_angles(j);
        }
        // Signature: run to the body `{` (or `;` for bodiless items) at
        // zero bracket depth. Return-type arrows guard the `>` case.
        let (mut paren, mut angle) = (0u32, 0u32);
        while j < self.t.len() {
            match &self.t[j].tok {
                Tok::Punct('(') | Tok::Punct('[') => paren += 1,
                Tok::Punct(')') | Tok::Punct(']') => paren = paren.saturating_sub(1),
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') if angle > 0 && !self.is(j - 1, '-') => angle -= 1,
                Tok::Punct('{') if paren == 0 => break,
                Tok::Punct(';') if paren == 0 => return j + 1,
                _ => {}
            }
            j += 1;
        }
        if !self.is(j, '{') {
            return j;
        }
        let close = self.match_brace(j);
        let body = (j + 1, close - 1);
        self.out.fns.push(FnDef {
            name: name.to_owned(),
            impl_ty: impl_ty.map(str::to_owned),
            line: self.line(i),
            body,
        });
        let fn_idx = self.out.fns.len() - 1;
        self.expr_region(body.0, body.1, Some(fn_idx), impl_ty);
        close
    }

    /// Expression/statement region: function bodies, arm bodies, guards.
    fn expr_region(&mut self, mut i: usize, end: usize, fn_idx: Option<usize>, impl_ty: Option<&str>) {
        while i < end {
            if self.is(i, '#') {
                i = self.skip_attr(i).0;
                continue;
            }
            // Turbofish `::<…>`: generic arguments, not a construct site.
            if i >= 2 && self.is(i, '<') && self.is(i - 1, ':') && self.is(i - 2, ':') {
                let after = self.skip_angles(i);
                self.mark((i, after), |p| &mut p.ignored);
                i = after;
                continue;
            }
            match self.ident(i) {
                Some("match") => i = self.match_expr(i, end, fn_idx, impl_ty),
                Some("let") => {
                    // Pattern runs to `:`, `=` or `;` at depth 0.
                    let mut depth = 0u32;
                    let mut j = i + 1;
                    while j < end {
                        match &self.t[j].tok {
                            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                                depth = depth.saturating_sub(1)
                            }
                            Tok::Punct(':') | Tok::Punct('=') | Tok::Punct(';')
                                if depth == 0 =>
                            {
                                break
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    self.mark((i + 1, j), |p| &mut p.pattern);
                    if self.is(j, ':') {
                        // Type annotation: ignore up to `=` or `;`.
                        let ty_start = j;
                        let mut angle = 0u32;
                        while j < end {
                            match &self.t[j].tok {
                                Tok::Punct('<') => angle += 1,
                                Tok::Punct('>') if angle > 0 && !self.is(j - 1, '-') => {
                                    angle -= 1
                                }
                                Tok::Punct('=') | Tok::Punct(';') if angle == 0 => break,
                                _ => {}
                            }
                            j += 1;
                        }
                        self.mark((ty_start, j), |p| &mut p.ignored);
                    }
                    i = j + 1;
                }
                Some("for") => {
                    let start = i + 1;
                    let mut j = start;
                    while j < end && self.ident(j) != Some("in") {
                        j += 1;
                    }
                    self.mark((start, j), |p| &mut p.pattern);
                    i = j + 1;
                }
                Some("matches") if self.is(i + 1, '!') && self.is(i + 2, '(') => {
                    // Second macro operand is a pattern.
                    let open = i + 2;
                    let mut depth = 0u32;
                    let mut j = open;
                    let mut comma = None;
                    while j < end {
                        match &self.t[j].tok {
                            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            Tok::Punct(',') if depth == 1 && comma.is_none() => {
                                comma = Some(j);
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    if let Some(c) = comma {
                        self.mark((c + 1, j), |p| &mut p.pattern);
                    }
                    i = j + 1;
                }
                Some("use") => {
                    let mut j = i;
                    while j < end && !self.is(j, ';') {
                        j += 1;
                    }
                    self.mark((i, j + 1), |p| &mut p.ignored);
                    i = j + 1;
                }
                Some("fn") => i = self.fn_def(i, impl_ty),
                Some("enum") => i = self.enum_def(i),
                Some("struct") => i = self.struct_def(i),
                Some("impl") if !self.is(i + 1, '(') => {
                    // Nested `impl` item (not `impl Trait` in type pos —
                    // those sit inside already-ignored annotations).
                    let (ty, body_open) = self.impl_header(i);
                    if self.is(body_open, '{') {
                        let close = self.match_brace(body_open);
                        self.items(body_open + 1, close - 1, ty.as_deref());
                        i = close;
                    } else {
                        i = body_open + 1;
                    }
                }
                _ => i += 1,
            }
        }
    }

    /// `match scrut { arms… }`; records arms, recurses into bodies.
    fn match_expr(&mut self, i: usize, end: usize, fn_idx: Option<usize>, impl_ty: Option<&str>) -> usize {
        // Scrutinee: to the `{` at zero bracket depth (struct literals
        // are illegal in scrutinee position, so this brace is the body).
        let scrut_start = i + 1;
        let mut depth = 0u32;
        let mut j = scrut_start;
        while j < end {
            match &self.t[j].tok {
                Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') => depth = depth.saturating_sub(1),
                Tok::Punct('{') if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if !self.is(j, '{') {
            return j;
        }
        let scrut = (scrut_start, j);
        self.expr_region(scrut.0, scrut.1, fn_idx, impl_ty);
        let close = self.match_brace(j);
        let mut k = j + 1;
        while k < close - 1 {
            let mut cfg_gated = false;
            while self.is(k, '#') {
                let (next, cfg) = self.skip_attr(k);
                cfg_gated |= cfg;
                k = next;
            }
            if k >= close - 1 {
                break;
            }
            // Pattern: to `=>` or a depth-0 guard `if`.
            let pat_start = k;
            let mut depth = 0u32;
            let mut guard_start = None;
            let mut pat_end = k;
            while k < close - 1 {
                match &self.t[k].tok {
                    Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                    Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                        depth = depth.saturating_sub(1)
                    }
                    Tok::Punct('=') if depth == 0 && self.is(k + 1, '>') => break,
                    Tok::Ident(n) if n == "if" && depth == 0 && guard_start.is_none() => {
                        pat_end = k;
                        guard_start = Some(k + 1);
                    }
                    _ => {}
                }
                k += 1;
            }
            let arrow = k;
            if guard_start.is_none() {
                pat_end = arrow;
            }
            let pat = (pat_start, pat_end);
            self.mark(pat, |p| &mut p.pattern);
            let guard = guard_start.map(|g| (g, arrow));
            if let Some(g) = guard {
                self.expr_region(g.0, g.1, fn_idx, impl_ty);
            }
            k = arrow + 2; // past `=>`
            let body = if self.is(k, '{') {
                let bclose = self.match_brace(k);
                let b = (k + 1, bclose - 1);
                k = bclose;
                if self.is(k, ',') {
                    k += 1;
                }
                b
            } else {
                // Expression body: to the arm-separating comma. Turbofish
                // commas hide inside skipped angles.
                let bstart = k;
                let mut depth = 0u32;
                while k < close - 1 {
                    if k >= 2 && self.is(k, '<') && self.is(k - 1, ':') && self.is(k - 2, ':') {
                        let after = self.skip_angles(k);
                        self.mark((k, after), |p| &mut p.ignored);
                        k = after;
                        continue;
                    }
                    match &self.t[k].tok {
                        Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                        Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                            depth = depth.saturating_sub(1)
                        }
                        Tok::Punct(',') if depth == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                let b = (bstart, k);
                if self.is(k, ',') {
                    k += 1;
                }
                b
            };
            self.expr_region(body.0, body.1, fn_idx, impl_ty);
            self.out.arms.push(MatchArm {
                fn_idx,
                impl_ty: impl_ty.map(str::to_owned),
                scrut,
                pat,
                guard,
                body,
                line: self.line(pat.0),
                cfg_gated,
            });
        }
        close
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> Parsed {
        parse(&lex(src).tokens)
    }

    #[test]
    fn enums_with_nested_generics_in_variant_payloads() {
        let p = parsed(
            "pub enum CtrlMsg {\n\
               Query { qid: QueryId, body: Vec<(String, BTreeMap<u32, Vec<u8>>)> },\n\
               Offers(Vec<Offer<Placed>>),\n\
               #[allow(dead_code)]\n\
               Done,\n\
             }",
        );
        assert_eq!(p.enums.len(), 1);
        let e = &p.enums[0];
        assert_eq!(e.name, "CtrlMsg");
        let names: Vec<&str> = e.variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["Query", "Offers", "Done"]);
        assert_eq!(e.variants[2].1, 5, "attribute must not eat the variant line");
    }

    #[test]
    fn struct_fields_expose_type_heads_through_paths_and_generics() {
        let p = parsed(
            "struct ContTable {\n\
               pub(crate) queries: node::Continuations<u64, PendingQuery>,\n\
               seq: u64,\n\
               map: BTreeMap<QueryId, Vec<(SimTime, u64)>>,\n\
             }",
        );
        let heads: Vec<(&str, &str)> =
            p.fields.iter().map(|f| (f.name.as_str(), f.type_head.as_str())).collect();
        assert_eq!(
            heads,
            [("queries", "Continuations"), ("seq", "u64"), ("map", "BTreeMap")]
        );
    }

    #[test]
    fn fns_record_impl_type_and_body_ranges() {
        let p = parsed(
            "impl<K: Ord> Node<K> {\n\
               fn route(&mut self, m: NetMsg) -> Option<Vec<u8>> { self.go(m) }\n\
             }\n\
             fn free() {}\n",
        );
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "route");
        assert_eq!(p.fns[0].impl_ty.as_deref(), Some("Node"));
        assert_eq!(p.fns[1].name, "free");
        assert_eq!(p.fns[1].impl_ty, None);
    }

    #[test]
    fn match_arms_split_pattern_guard_body() {
        let src = "fn f(m: CtrlMsg) {\n\
                     match m {\n\
                       CtrlMsg::Query { qid, .. } if qid > 0 => handle(qid),\n\
                       CtrlMsg::Offers(o) => { accept(o); }\n\
                       _ => {}\n\
                     }\n\
                   }";
        let p = parsed(src);
        assert_eq!(p.arms.len(), 3);
        assert!(p.arms[0].guard.is_some());
        assert_eq!(p.arms[0].line, 3);
        assert!(p.arms[1].guard.is_none());
        // Pattern tokens are pattern-position; guard and body are not.
        let toks = lex(src).tokens;
        let qpos = toks
            .iter()
            .position(|t| matches!(&t.tok, Tok::Ident(n) if n == "Query"))
            .expect("Query token");
        assert!(p.pattern[qpos]);
        let hpos = toks
            .iter()
            .position(|t| matches!(&t.tok, Tok::Ident(n) if n == "handle"))
            .expect("handle token");
        assert!(!p.pattern[hpos]);
    }

    #[test]
    fn cfg_gated_arms_are_flagged() {
        let p = parsed(
            "fn f(m: M) { match m {\n\
               #[cfg(feature = \"x\")]\n\
               M::A => {}\n\
               M::B => {}\n\
             } }",
        );
        assert_eq!(p.arms.len(), 2);
        assert!(p.arms[0].cfg_gated);
        assert!(!p.arms[1].cfg_gated);
    }

    #[test]
    fn turbofish_is_ignored_not_construction() {
        let src = "fn f() { let v = collect::<Vec<CtrlMsg>>(); g::<A, B>(x); }";
        let p = parsed(src);
        let toks = lex(src).tokens;
        let cpos = toks
            .iter()
            .position(|t| matches!(&t.tok, Tok::Ident(n) if n == "CtrlMsg"))
            .expect("CtrlMsg token");
        assert!(p.ignored[cpos], "turbofish contents must be ignored");
        // The turbofish comma in `g::<A, B>(x)` must not end an arm body:
        let src2 = "fn f(m: M) { match m { M::A => g::<A, B>(x), M::B => {} } }";
        assert_eq!(parsed(src2).arms.len(), 2);
    }

    #[test]
    fn let_and_if_let_patterns_are_pattern_position() {
        let src = "fn f(m: M) {\n\
                     if let CtrlMsg::Query { qid, .. } = m { use_it(qid); }\n\
                     let CtrlMsg::Offers(o) = m else { return };\n\
                     let x: Vec<CtrlMsg> = Vec::new();\n\
                     send(CtrlMsg::Query { qid: 1 });\n\
                   }";
        let p = parsed(src);
        let toks = lex(src).tokens;
        let positions: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(&t.tok, Tok::Ident(n) if n == "CtrlMsg"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(positions.len(), 4);
        assert!(p.pattern[positions[0]], "if-let pattern");
        assert!(p.pattern[positions[1]], "let-else pattern");
        assert!(p.ignored[positions[2]], "type annotation");
        assert!(
            !p.pattern[positions[3]] && !p.ignored[positions[3]],
            "construction site stays an expression"
        );
    }

    #[test]
    fn use_declarations_are_ignored() {
        let src = "use crate::proto::CtrlMsg;\nfn f() { let m = CtrlMsg::Done; }";
        let p = parsed(src);
        let toks = lex(src).tokens;
        let positions: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(&t.tok, Tok::Ident(n) if n == "CtrlMsg"))
            .map(|(i, _)| i)
            .collect();
        assert!(p.ignored[positions[0]]);
        assert!(!p.ignored[positions[1]]);
    }

    #[test]
    fn nested_match_in_arm_body_yields_nested_arms() {
        let p = parsed(
            "fn f(a: A, b: B) { match a { A::X => match b { B::Y => {} B::Z => {} }, A::W => {} } }",
        );
        assert_eq!(p.arms.len(), 4);
    }
}
