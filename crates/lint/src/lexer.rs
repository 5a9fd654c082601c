//! A Rust-subset tokenizer for the linter.
//!
//! The rules in [`crate::rules`] match on *token* sequences, never on raw
//! text, so the lexer's one job is to make sure nothing inside a comment,
//! a string/char literal or a lifetime can masquerade as code: `"HashMap"`
//! in a test fixture string, `Instant` in a doc comment and `'spawn` as a
//! (hypothetical) lifetime must all be invisible to the rules.
//!
//! It follows the hand-rolled byte-walking style of the IDL tokenizer in
//! `crates/idl/src/lexer.rs`, but is deliberately lossy: it keeps only
//! identifiers and punctuation (what rules match on) plus opaque literal
//! markers, and it never fails — a linter must degrade gracefully on
//! half-edited source, so unterminated literals simply consume the rest
//! of the file.
//!
//! Line comments are additionally scanned for suppression annotations of
//! the form `// lc-lint: allow(RULE, ...) -- reason`; the reason text is
//! mandatory so every escape hatch carries its justification in-tree.

/// One lexed token: what the rules engine matches on.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Tok {
    /// Identifier or keyword (rules do not distinguish).
    Ident(String),
    /// A single punctuation byte (`::` arrives as two `Punct(':')`).
    Punct(char),
    /// A lifetime such as `'a` (payload irrelevant to every rule).
    Lifetime,
    /// Any string, raw string, byte string or char literal.
    Literal,
    /// Any numeric literal.
    Num,
}

/// A token plus the 1-based line it starts on.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Token {
    /// Kind and payload.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
}

/// A parsed `// lc-lint: allow(...) -- reason` annotation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Suppression {
    /// Line the comment sits on (covers this line and the next).
    pub line: u32,
    /// Rule names listed in `allow(...)`.
    pub rules: Vec<String>,
}

/// Everything the lexer extracts from one file.
#[derive(Default, Debug)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Well-formed suppression annotations.
    pub suppressions: Vec<Suppression>,
    /// Lines carrying the suppression marker that failed to parse
    /// (missing `allow(...)` or a missing reason); reported as errors.
    pub malformed: Vec<u32>,
}

/// Tokenize `src`. Infallible by design (see module docs).
pub fn lex(src: &str) -> Lexed {
    Lexer { src: src.as_bytes(), pos: 0, line: 1, out: Lexed::default() }.run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer<'_> {
    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek() {
            let line = self.line;
            match c {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'/' if self.at(1) == Some(b'/') => self.line_comment(),
                b'/' if self.at(1) == Some(b'*') => self.block_comment(),
                b'"' => {
                    self.string_body();
                    self.push(Tok::Literal, line);
                }
                b'\'' => self.quote(line),
                b'0'..=b'9' => {
                    self.number();
                    self.push(Tok::Num, line);
                }
                c if c.is_ascii_alphabetic() || c == b'_' => self.word(line),
                other => {
                    self.pos += 1;
                    self.push(Tok::Punct(other as char), line);
                }
            }
        }
        self.out
    }

    fn peek(&self) -> Option<u8> {
        self.at(0)
    }

    fn at(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    fn push(&mut self, tok: Tok, line: u32) {
        self.out.tokens.push(Token { tok, line });
    }

    /// `//`-comment to end of line; scans for a suppression annotation.
    fn line_comment(&mut self) {
        let start = self.pos;
        while !matches!(self.peek(), None | Some(b'\n')) {
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]);
        if let Some(rest) = text.split_once("lc-lint:").map(|(_, r)| r) {
            match parse_suppression(rest) {
                Some(rules) => {
                    self.out.suppressions.push(Suppression { line: self.line, rules });
                }
                None => self.out.malformed.push(self.line),
            }
        }
    }

    /// `/* */` with nesting, as in real Rust.
    fn block_comment(&mut self) {
        self.pos += 2;
        let mut depth = 1u32;
        while depth > 0 {
            match self.peek() {
                None => return,
                Some(b'\n') => {
                    self.line += 1;
                    self.pos += 1;
                }
                Some(b'/') if self.at(1) == Some(b'*') => {
                    depth += 1;
                    self.pos += 2;
                }
                Some(b'*') if self.at(1) == Some(b'/') => {
                    depth -= 1;
                    self.pos += 2;
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Body of a `"..."` string (opening quote at `self.pos`).
    fn string_body(&mut self) {
        self.pos += 1;
        loop {
            match self.peek() {
                None => return,
                Some(b'"') => {
                    self.pos += 1;
                    return;
                }
                Some(b'\\') => self.pos += 1 + (self.at(1).is_some() as usize),
                Some(b'\n') => {
                    self.line += 1;
                    self.pos += 1;
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// `r"..."` / `r#"..."#` raw string (`self.pos` on the first `#` or `"`).
    fn raw_string_body(&mut self) {
        let mut hashes = 0usize;
        while self.peek() == Some(b'#') {
            hashes += 1;
            self.pos += 1;
        }
        if self.peek() != Some(b'"') {
            return; // `r#foo`-style raw identifier; caller already pushed it.
        }
        self.pos += 1;
        loop {
            match self.peek() {
                None => return,
                Some(b'\n') => {
                    self.line += 1;
                    self.pos += 1;
                }
                Some(b'"') if (1..=hashes).all(|i| self.at(i) == Some(b'#')) => {
                    self.pos += 1 + hashes;
                    return;
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// A `'`: either a char literal or a lifetime.
    fn quote(&mut self, line: u32) {
        // 'x' or '\n' is a char literal; 'ident (no closing quote) is a
        // lifetime. A quote after an ident-ish char that is itself followed
        // by a quote ('a') is a char literal, not the lifetime 'a.
        let next = self.at(1);
        let is_char = match next {
            Some(b'\\') => true,
            Some(c) if c.is_ascii_alphanumeric() || c == b'_' => self.at(2) == Some(b'\''),
            Some(_) => true,
            None => false,
        };
        if !is_char {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
                self.pos += 1;
            }
            self.push(Tok::Lifetime, line);
            return;
        }
        self.pos += 1;
        loop {
            match self.peek() {
                None => break,
                Some(b'\'') => {
                    self.pos += 1;
                    break;
                }
                Some(b'\\') => self.pos += 1 + (self.at(1).is_some() as usize),
                Some(b'\n') => break, // stray quote; bail rather than eat the file
                Some(_) => self.pos += 1,
            }
        }
        self.push(Tok::Literal, line);
    }

    /// Numeric literal: digits/alnum run with at most one fraction dot.
    /// Precision beyond "it is a number" is irrelevant to the rules, but
    /// `0..5` must stay three tokens, so a dot is consumed only when a
    /// digit follows and none was consumed yet.
    fn number(&mut self) {
        let mut seen_dot = false;
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_alphanumeric() || c == b'_' => self.pos += 1,
                Some(b'.')
                    if !seen_dot && matches!(self.at(1), Some(d) if d.is_ascii_digit()) =>
                {
                    seen_dot = true;
                    self.pos += 1;
                }
                _ => return,
            }
        }
    }

    /// Identifier — or the prefix of a string-ish literal (`r"`, `b"`,
    /// `br#"`, `b'`) or a raw identifier (`r#foo`).
    fn word(&mut self, line: u32) {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        match (text, self.peek()) {
            (b"r" | b"br" | b"b", Some(b'"')) => {
                self.string_body();
                self.push(Tok::Literal, line);
            }
            (b"r" | b"br", Some(b'#')) => {
                // Either a raw string or a raw identifier (`r#match`).
                if matches!(self.at(1), Some(c) if c.is_ascii_alphabetic() || c == b'_') {
                    self.pos += 1; // consume '#', then lex the ident proper
                    let id_start = self.pos;
                    while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_')
                    {
                        self.pos += 1;
                    }
                    let id = String::from_utf8_lossy(&self.src[id_start..self.pos]).into_owned();
                    self.push(Tok::Ident(id), line);
                } else {
                    self.raw_string_body();
                    self.push(Tok::Literal, line);
                }
            }
            (b"b", Some(b'\'')) => self.quote(line),
            _ => {
                let id = String::from_utf8_lossy(text).into_owned();
                self.push(Tok::Ident(id), line);
            }
        }
    }
}

/// Parse the tail after the suppression marker; `Some(rules)` iff it is
/// a well-formed `allow(R, ...) -- nonempty reason`.
fn parse_suppression(rest: &str) -> Option<Vec<String>> {
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let (list, tail) = rest.split_once(')')?;
    let rules: Vec<String> = list
        .split(',')
        .map(|r| r.trim().to_owned())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return None;
    }
    let reason = tail.trim_start().strip_prefix("--")?;
    if reason.trim().is_empty() {
        return None;
    }
    Some(rules)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_hide_identifiers() {
        let src = "// says Wallclock here\n/* and Wallclock /* nested Wallclock */ too */ real";
        assert_eq!(idents(src), vec!["real"]);
    }

    #[test]
    fn strings_hide_identifiers() {
        let src = r##"let s = "Wallclock"; let r = r#"Wallclock "quoted" inner"#; x"##;
        assert_eq!(idents(src), vec!["let", "s", "let", "r", "x"]);
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        assert_eq!(idents(r#"let s = "a\"Wallclock"; tail"#), vec!["let", "s", "tail"]);
    }

    #[test]
    fn byte_and_raw_forms() {
        let src = r##"b"Wallclock" br#"Wallclock"# b'W' r#match after"##;
        assert_eq!(idents(src), vec!["match", "after"]);
    }

    #[test]
    fn lifetime_vs_char_literal() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'q'; let n = '\\n'; }");
        let lifetimes = toks.tokens.iter().filter(|t| t.tok == Tok::Lifetime).count();
        let chars = toks.tokens.iter().filter(|t| t.tok == Tok::Literal).count();
        assert_eq!((lifetimes, chars), (2, 2));
    }

    #[test]
    fn range_stays_three_tokens() {
        let toks = lex("0..5");
        let kinds: Vec<_> = toks.tokens.iter().map(|t| t.tok.clone()).collect();
        assert_eq!(kinds, vec![Tok::Num, Tok::Punct('.'), Tok::Punct('.'), Tok::Num]);
        // while a real fraction is one token
        assert_eq!(lex("1.5").tokens.len(), 1);
    }

    #[test]
    fn line_numbers_cross_multiline_literals() {
        let toks = lex("a\n\"two\nlines\"\nb");
        let a = toks.tokens.first().expect("a");
        let b = toks.tokens.last().expect("b");
        assert_eq!((a.line, b.line), (1, 4));
    }

    #[test]
    fn suppression_single_and_multi_rule() {
        let l = lex("x // lc-lint: allow(D1) -- wall-clock only\ny // lc-lint: allow(D2, A2) -- compat\n");
        assert_eq!(l.suppressions.len(), 2);
        assert_eq!(l.suppressions[0].rules, vec!["D1"]);
        assert_eq!(l.suppressions[0].line, 1);
        assert_eq!(l.suppressions[1].rules, vec!["D2", "A2"]);
        assert!(l.malformed.is_empty());
    }

    #[test]
    fn suppression_requires_reason_and_shape() {
        let l = lex("// lc-lint: allow(D1)\n// lc-lint: allow(D1) --   \n// lc-lint: allow() -- why\n// lc-lint: deny(D1) -- no\n");
        assert!(l.suppressions.is_empty());
        assert_eq!(l.malformed, vec![1, 2, 3, 4]);
    }

    #[test]
    fn suppression_inside_string_is_inert() {
        let l = lex(r#"let s = "// lc-lint: allow(D1) -- fake";"#);
        assert!(l.suppressions.is_empty() && l.malformed.is_empty());
    }

    #[test]
    fn unterminated_forms_do_not_panic() {
        for src in ["\"open", "/* open", "r#\"open", "'", "b\"open"] {
            let _ = lex(src);
        }
    }
}
