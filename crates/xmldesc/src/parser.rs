//! Recursive-descent XML parser.
//!
//! Supports the subset CORBA-LC descriptors need: one root element, nested
//! elements, attributes (single- or double-quoted), character data with the
//! five predefined entities plus decimal/hex character references,
//! comments, CDATA sections, and a leading `<?xml …?>` declaration or
//! `<!DOCTYPE …>` (both skipped). Inter-element whitespace-only text is
//! discarded, as descriptor consumers never care about indentation.

use crate::dom::{Element, Node};

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

/// Parse a complete document, returning its root element.
pub fn parse(input: &str) -> Result<Element, ParseError> {
    let mut p = Parser { b: input.as_bytes(), pos: 0 };
    p.skip_prolog()?;
    let root = p.element()?;
    p.skip_misc()?;
    if p.pos < p.b.len() {
        return Err(p.err("content after document root"));
    }
    Ok(root)
}

struct Parser<'a> {
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

    fn name(&mut self) -> Result<String, ParseError> {
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
        // Every byte passed the ASCII check above, so nothing is replaced.
        Ok(String::from_utf8_lossy(&self.b[start..self.pos]).into_owned())
    }

    fn attr_value(&mut self) -> Result<String, ParseError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated attribute value")),
                Some(c) if c == quote => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'<') => return Err(self.err("'<' in attribute value")),
                Some(b'&') => out.push(self.entity()?),
                Some(c) => {
                    // attribute values are arbitrary UTF-8; copy bytes
                    let ch_len = utf8_len(c);
                    let s = std::str::from_utf8(&self.b[self.pos..self.pos + ch_len])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos += ch_len;
                }
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

    fn element(&mut self) -> Result<Element, ParseError> {
        self.eat(b'<')?;
        let name = self.name()?;
        let mut elem = Element::new(&name);

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
                    if elem.attr(&key).is_some() {
                        return Err(self.err(&format!("duplicate attribute '{key}'")));
                    }
                    elem.attrs.push((key, value));
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }

        // Content until the matching end tag.
        let mut text = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err(&format!("missing </{name}>"))),
                Some(b'<') => {
                    flush_text(&mut text, &mut elem);
                    if self.starts_with("</") {
                        self.bump(2);
                        let end_name = self.name()?;
                        if end_name != name {
                            return Err(
                                self.err(&format!("expected </{name}>, found </{end_name}>"))
                            );
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
                        let raw = &self.b[start..self.pos - 3];
                        let s =
                            std::str::from_utf8(raw).map_err(|_| self.err("invalid UTF-8"))?;
                        elem.children.push(Node::Text(s.to_owned()));
                    } else if self.starts_with("<?") {
                        self.skip_until("?>")?;
                    } else {
                        let child = self.element()?;
                        elem.children.push(Node::Element(child));
                    }
                }
                Some(b'&') => text.push(self.entity()?),
                Some(c) => {
                    let ch_len = utf8_len(c);
                    let s = std::str::from_utf8(&self.b[self.pos..self.pos + ch_len])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    text.push_str(s);
                    self.pos += ch_len;
                }
            }
        }
    }
}

/// Push accumulated character data as a text node unless it is pure
/// inter-element whitespace.
fn flush_text(buf: &mut String, elem: &mut Element) {
    if !buf.is_empty() {
        if !buf.chars().all(|c| c.is_ascii_whitespace()) {
            // Trim the indentation noise around real content.
            let trimmed = buf.trim();
            match elem.children.last_mut() {
                Some(Node::Text(prev)) => prev.push_str(trimmed),
                _ => elem.children.push(Node::Text(trimmed.to_owned())),
            }
        }
        buf.clear();
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
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
        let imp = root.child("implementation").unwrap();
        assert_eq!(imp.attr("arch"), Some("x86"));
        assert_eq!(imp.child("code").unwrap().attr("file"), Some("decoder.so"));
        assert_eq!(root.child("description").unwrap().text(), "An MPEG & AVI decoder <fast>");
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
        assert!(parse("<a b='<'/>").is_err());
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
