//! Recursive-descent XML parser.
//!
//! Supports the subset CORBA-LC descriptors need: one root element, nested
//! elements, attributes (single- or double-quoted), character data with the
//! five predefined entities plus decimal/hex character references,
//! comments, CDATA sections, and a leading `<?xml …?>` declaration or
//! `<!DOCTYPE …>` (both skipped). Inter-element whitespace-only text is
//! discarded, as descriptor consumers never care about indentation.
//!
//! The tree it returns borrows from the input: names, attribute values and
//! text are slices of it, and only a run of character data that holds an
//! entity is decoded into an owned copy.

use crate::dom::{Element, Node};
use std::borrow::Cow;

/// A parse failure with 1-based line/column of the offending byte.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// What went wrong.
    pub msg: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "XML parse error at {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// How deep elements may nest (the root is at depth 1). Parsing recurses
/// once per level, so deeper input is refused rather than allowed to
/// exhaust the stack; real descriptors nest about 5 deep.
pub const MAX_DEPTH: usize = 256;

/// Parse a complete document, returning its root element, which borrows
/// from `input`.
pub fn parse(input: &str) -> Result<Element<'_>, ParseError> {
    let mut p = Parser { src: input, b: input.as_bytes(), pos: 0 };
    p.skip_prolog()?;
    let root = p.element(1)?;
    p.skip_misc()?;
    if p.pos < p.b.len() {
        return Err(p.err("content after document root"));
    }
    Ok(root)
}

struct Parser<'a> {
    src: &'a str,
    b: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        let (mut line, mut col) = (1u32, 1u32);
        for &c in &self.b[..self.pos.min(self.b.len())] {
            if c == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        ParseError { msg: msg.to_owned(), line, col }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.b[self.pos..].starts_with(s.as_bytes())
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    /// The input from `start` to the current position, which must both
    /// fall on character boundaries.
    fn slice(&self, start: usize) -> Result<&'a str, ParseError> {
        self.src.get(start..self.pos).ok_or_else(|| self.err("invalid UTF-8"))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn skip_until(&mut self, pat: &str) -> Result<(), ParseError> {
        match self.b[self.pos..]
            .windows(pat.len())
            .position(|w| w == pat.as_bytes())
        {
            Some(i) => {
                self.pos += i + pat.len();
                Ok(())
            }
            None => Err(self.err(&format!("unterminated construct, expected '{pat}'"))),
        }
    }

    /// Skip `<?xml …?>`, `<!DOCTYPE …>`, comments and whitespace.
    fn skip_prolog(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<!DOCTYPE") {
                // No internal-subset support: skip to the first '>'.
                self.skip_until(">")?;
            } else {
                return Ok(());
            }
        }
    }

    /// Skip trailing comments/whitespace after the root element.
    fn skip_misc(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else {
                return Ok(());
            }
        }
    }

    fn name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            let ok = c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':');
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        let first = self.b[start];
        if !(first.is_ascii_alphabetic() || first == b'_' || first == b':') {
            return Err(self.err("names must start with a letter, '_' or ':'"));
        }
        self.slice(start)
    }

    /// Character data up to the next `stop` or `<` byte, or the end of
    /// the input, whichever comes first; the caller reads which. A slice
    /// of the input, unless the run holds an entity: then the run is
    /// decoded into an owned copy.
    fn chars(&mut self, stop: u8) -> Result<Cow<'a, str>, ParseError> {
        let mut decoded: Option<String> = None;
        loop {
            let run = self.pos;
            let rest = &self.b[run..];
            let n = rest.iter().position(|&c| c == stop || c == b'<' || c == b'&');
            self.pos += n.unwrap_or(rest.len());
            let run = self.slice(run)?;
            if self.peek() != Some(b'&') {
                return Ok(match decoded {
                    None => Cow::Borrowed(run),
                    Some(mut s) => {
                        s.push_str(run);
                        Cow::Owned(s)
                    }
                });
            }
            let s = decoded.get_or_insert_with(String::new);
            s.push_str(run);
            s.push(self.entity()?);
        }
    }

    fn attr_value(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        self.pos += 1;
        let value = self.chars(quote)?;
        match self.peek() {
            None => Err(self.err("unterminated attribute value")),
            Some(b'<') => Err(self.err("'<' in attribute value")),
            Some(_) => {
                self.pos += 1;
                Ok(value)
            }
        }
    }

    fn entity(&mut self) -> Result<char, ParseError> {
        debug_assert_eq!(self.peek(), Some(b'&'));
        self.pos += 1;
        let end = self.b[self.pos..]
            .iter()
            .position(|&c| c == b';')
            .ok_or_else(|| self.err("unterminated entity"))?;
        let body = std::str::from_utf8(&self.b[self.pos..self.pos + end])
            .map_err(|_| self.err("invalid UTF-8 in entity"))?;
        let ch = match body {
            "lt" => '<',
            "gt" => '>',
            "amp" => '&',
            "quot" => '"',
            "apos" => '\'',
            _ if body.starts_with("#x") || body.starts_with("#X") => {
                let code = u32::from_str_radix(&body[2..], 16)
                    .map_err(|_| self.err("bad hex character reference"))?;
                char::from_u32(code).ok_or_else(|| self.err("invalid character reference"))?
            }
            _ if body.starts_with('#') => {
                let code = body[1..]
                    .parse::<u32>()
                    .map_err(|_| self.err("bad decimal character reference"))?;
                char::from_u32(code).ok_or_else(|| self.err("invalid character reference"))?
            }
            _ => return Err(self.err(&format!("unknown entity '&{body};'"))),
        };
        self.pos += end + 1;
        Ok(ch)
    }

    fn element(&mut self, depth: usize) -> Result<Element<'a>, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err(&format!("elements nest deeper than {MAX_DEPTH}")));
        }
        self.eat(b'<')?;
        let name = self.name()?;
        let (attrs, children) = (Vec::new(), Vec::new());
        let mut elem = Element { name: Cow::Borrowed(name), attrs, children };

        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.pos += 1;
                    self.eat(b'>')?;
                    return Ok(elem); // self-closing
                }
                Some(_) => {
                    let key = self.name()?;
                    self.skip_ws();
                    self.eat(b'=')?;
                    self.skip_ws();
                    let value = self.attr_value()?;
                    if elem.attr(key).is_some() {
                        return Err(self.err(&format!("duplicate attribute '{key}'")));
                    }
                    elem.attrs.push((Cow::Borrowed(key), value));
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }

        // Content until the matching end tag.
        loop {
            let text = self.chars(b'<')?;
            push_text(text, &mut elem);
            if self.peek().is_none() {
                return Err(self.err(&format!("missing </{name}>")));
            }
            if self.starts_with("</") {
                self.bump(2);
                let end_name = self.name()?;
                if end_name != name {
                    return Err(self.err(&format!("expected </{name}>, found </{end_name}>")));
                }
                self.skip_ws();
                self.eat(b'>')?;
                return Ok(elem);
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<![CDATA[") {
                self.bump("<![CDATA[".len());
                let start = self.pos;
                self.skip_until("]]>")?;
                let raw = self.src.get(start..self.pos - 3);
                let raw = raw.ok_or_else(|| self.err("invalid UTF-8"))?;
                elem.children.push(Node::Text(Cow::Borrowed(raw)));
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else {
                let child = self.element(depth + 1)?;
                elem.children.push(Node::Element(child));
            }
        }
    }
}

/// Add a run of character data as a text node unless it is pure
/// inter-element whitespace, merged into a text node just before it.
fn push_text<'a>(text: Cow<'a, str>, elem: &mut Element<'a>) {
    if text.bytes().all(|c| c.is_ascii_whitespace()) {
        return;
    }
    // Trim the indentation noise around real content.
    let trimmed = match text {
        Cow::Borrowed(s) => Cow::Borrowed(s.trim()),
        Cow::Owned(s) => Cow::Owned(s.trim().to_owned()),
    };
    match elem.children.last_mut() {
        Some(Node::Text(prev)) => prev.to_mut().push_str(&trimmed),
        _ => elem.children.push(Node::Text(trimmed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_document() {
        let doc = r#"<?xml version="1.0"?>
<!-- component descriptor -->
<softpkg name="Decoder" version="1.0">
  <implementation arch="x86" os="linux">
    <code file="decoder.so"/>
  </implementation>
  <description>An MPEG &amp; AVI decoder &lt;fast&gt;</description>
</softpkg>"#;
        let root = parse(doc).unwrap();
        assert_eq!(root.name, "softpkg");
        assert_eq!(root.attr("name"), Some("Decoder"));
        let imp = root.require_child("implementation").unwrap();
        assert_eq!(imp.attr("arch"), Some("x86"));
        assert_eq!(imp.require_child("code").unwrap().attr("file"), Some("decoder.so"));
        let description = root.require_child("description").unwrap();
        assert_eq!(description.text(), "An MPEG & AVI decoder <fast>");
    }

    #[test]
    fn entities_and_char_refs() {
        let root = parse("<t a='&quot;x&apos;'>&#65;&#x42;</t>").unwrap();
        assert_eq!(root.attr("a"), Some("\"x'"));
        assert_eq!(root.text(), "AB");
    }

    #[test]
    fn cdata_preserved_verbatim() {
        let root = parse("<t><![CDATA[a < b && c]]></t>").unwrap();
        assert_eq!(root.text(), "a < b && c");
    }

    #[test]
    fn doctype_and_pi_skipped() {
        let root = parse("<!DOCTYPE softpkg><?pi data?><t/>").unwrap();
        assert_eq!(root.name, "t");
    }

    #[test]
    fn errors_carry_position() {
        let e = parse("<a>\n  <b></c>\n</a>").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("</b>"));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("").is_err());
        assert!(parse("<a>").is_err());
        assert!(parse("<a></a><b></b>").is_err());
        assert!(parse("<a x='1' x='2'/>").is_err());
        assert!(parse("<1bad/>").is_err());
        // Malformed names: a non-ASCII first byte, a non-ASCII byte
        // inside a tag name and in an attribute name, a bare '-' start.
        assert_eq!(parse("<é/>").unwrap_err().msg, "expected a name");
        assert!(parse("<aé/>").is_err());
        assert!(parse("<a é='1'/>").is_err());
        assert!(parse("<-a/>").unwrap_err().msg.contains("must start with"));
        assert!(parse("<a>&nope;</a>").is_err());
        assert!(parse("<a b=c/>").is_err());
        // Each at the offending byte, wherever the value is scanned from.
        let at = |doc: &str| parse(doc).map(|_| ()).map_err(|e| (e.msg, e.line, e.col));
        assert_eq!(at("<a b='<'/>"), Err(("'<' in attribute value".into(), 1, 7)));
        assert_eq!(at("<a b='é&amp;\n<'/>"), Err(("'<' in attribute value".into(), 2, 1)));
        assert_eq!(at("<a b='x"), Err(("unterminated attribute value".into(), 1, 8)));
        assert_eq!(at("<é/>"), Err(("expected a name".into(), 1, 2)));
        assert_eq!(at("<aé/>"), Err(("expected a name".into(), 1, 3)));
        assert_eq!(at("<a é='1'/>"), Err(("expected a name".into(), 1, 4)));
        assert_eq!(at("<a>\n é&nope;</a>"), Err(("unknown entity '&nope;'".into(), 2, 5)));
    }

    /// Names, values and text are slices of the input; only a run that
    /// decodes an entity is an owned copy, and the runs around the
    /// entity are copied into it.
    #[test]
    fn an_entity_free_document_borrows_its_input() {
        let doc = "<c name='Décodeur' v=\"a&amp;b\">text<d/>x&#65;y</c>";
        let root = parse(doc).unwrap();
        let borrowed = |s: &Cow<'_, str>| matches!(s, Cow::Borrowed(_));
        assert!(borrowed(&root.name));
        let [(k0, v0), (k1, v1)] = &root.attrs[..] else { panic!("two attributes") };
        assert!(borrowed(k0) && borrowed(v0) && borrowed(k1));
        assert_eq!((&**v0, &**v1), ("Décodeur", "a&b"));
        assert!(matches!(v1, Cow::Owned(_)), "a decoded value is owned");
        let texts: Vec<&Cow<'_, str>> = root
            .children
            .iter()
            .filter_map(|n| if let Node::Text(t) = n { Some(t) } else { None })
            .collect();
        assert_eq!(texts, ["text", "xAy"]);
        assert!(borrowed(texts[0]));
        assert!(matches!(texts[1], Cow::Owned(_)));
    }

    fn nested(depth: usize) -> String {
        "<a>".repeat(depth) + &"</a>".repeat(depth)
    }

    /// Parsing recurses per element: input at the limit parses, and
    /// 100 000 levels (which once overflowed the stack and aborted the
    /// process) are an error.
    #[test]
    fn nesting_depth_is_bounded() {
        let doc = nested(MAX_DEPTH);
        let mut root = parse(&doc).unwrap();
        let mut depth = 1;
        while let Some(Node::Element(child)) = root.children.pop() {
            (root, depth) = (child, depth + 1);
        }
        assert_eq!(depth, MAX_DEPTH);
        let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.msg.contains("nest deeper"), "{e}");
        assert!(parse(&nested(100_000)).is_err());
    }

    #[test]
    fn whitespace_between_elements_is_dropped() {
        let root = parse("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(root.children.len(), 2);
    }

    #[test]
    fn unicode_content() {
        let root = parse("<t name='café'>münü — 日本語</t>").unwrap();
        assert_eq!(root.attr("name"), Some("café"));
        assert_eq!(root.text(), "münü — 日本語");
    }
}
