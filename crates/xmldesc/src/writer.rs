//! Serialization of the DOM back to XML text.
//!
//! Output is deterministic (attribute and child order preserved) and
//! minimal: no pretty-printing is inserted inside mixed content, so
//! `parse(to_string(e)) == e` holds for any tree whose text nodes are
//! trimmed and non-adjacent (the parser normalizes both properties).

use crate::dom::{Element, Node};

/// Serialize a document: XML declaration plus the root element.
pub fn to_string(root: &Element<'_>) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("<?xml version=\"1.0\"?>");
    write_element(root, &mut out);
    out
}

fn write_element(e: &Element<'_>, out: &mut String) {
    out.push('<');
    out.push_str(&e.name);
    for (k, v) in &e.attrs {
        out.push(' ');
        out.push_str(k);
        out.push_str("=\"");
        escape_into(v, true, out);
        out.push('"');
    }
    if e.children.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for child in &e.children {
        match child {
            Node::Element(c) => write_element(c, out),
            Node::Text(t) => escape_into(t, false, out),
        }
    }
    out.push_str("</");
    out.push_str(&e.name);
    out.push('>');
}

/// Escape XML-special characters. Inside attribute values (`attr = true`)
/// quotes must also be escaped.
fn escape_into(s: &str, attr: bool, out: &mut String) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' if attr => out.push_str("&quot;"),
            '\'' if attr => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn writes_and_escapes() {
        let e = Element::new("desc")
            .with_attr("title", "a \"quoted\" <name>")
            .with_text("1 < 2 && 3 > 2");
        let s = to_string(&e);
        assert_eq!(
            s,
            "<?xml version=\"1.0\"?><desc title=\"a &quot;quoted&quot; &lt;name&gt;\">\
             1 &lt; 2 &amp;&amp; 3 &gt; 2</desc>"
        );
        assert_eq!(parse(&s).unwrap(), e);
    }

    #[test]
    fn self_closing_for_empty() {
        let e = Element::new("code").with_attr("file", "x.so");
        assert_eq!(to_string(&e), "<?xml version=\"1.0\"?><code file=\"x.so\"/>");
    }

    #[test]
    fn nested_round_trip() {
        let mut implementation = Element::new("implementation").with_attr("os", "linux");
        implementation.push(Element::new("code").with_attr("file", "a.so"));
        let mut e = Element::new("softpkg").with_attr("name", "A");
        e.push(implementation);
        assert_eq!(parse(&to_string(&e)).unwrap(), e);
    }
}
