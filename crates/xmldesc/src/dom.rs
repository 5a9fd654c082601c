//! Document object model: elements with ordered attributes and children.

/// A node in the document tree.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Node {
    /// A child element.
    Element(Element),
    /// Character data (entity-decoded).
    Text(String),
}

/// An XML element.
///
/// Attributes keep insertion order (descriptor output is deterministic and
/// diff-friendly); duplicate attribute names are rejected by the parser.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Element {
    /// Tag name.
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// New element with no attributes or children.
    pub fn new(name: &str) -> Self {
        Element { name: name.to_owned(), attrs: Vec::new(), children: Vec::new() }
    }

    /// Set (or replace) an attribute; returns `self` for chaining.
    pub fn with_attr(mut self, key: &str, value: &str) -> Self {
        self.set_attr(key, value);
        self
    }

    /// Set (or replace) an attribute.
    pub fn set_attr(&mut self, key: &str, value: &str) {
        if let Some(kv) = self.attrs.iter_mut().find(|(k, _)| k == key) {
            kv.1 = value.to_owned();
        } else {
            self.attrs.push((key.to_owned(), value.to_owned()));
        }
    }

    /// Attribute value, if present.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Attribute value or a descriptive error (for descriptor readers).
    pub fn require_attr(&self, key: &str) -> Result<&str, String> {
        self.attr(key).ok_or_else(|| format!("<{}> missing required attribute '{key}'", self.name))
    }

    /// Append a text child; returns `self` for chaining.
    pub fn with_text(mut self, text: &str) -> Self {
        self.children.push(Node::Text(text.to_owned()));
        self
    }

    /// Append a child element.
    pub fn push(&mut self, child: Element) {
        self.children.push(Node::Element(child));
    }

    /// Iterate child elements (skipping text nodes).
    pub fn elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        })
    }

    /// Child elements with a given tag name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.elements().filter(move |e| e.name == name)
    }

    /// First child element with a given tag name.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.elements().find(|e| e.name == name)
    }

    /// First child element with a given name, or a descriptive error.
    pub fn require_child(&self, name: &str) -> Result<&Element, String> {
        self.child(name).ok_or_else(|| format!("<{}> missing required child <{name}>", self.name))
    }

    /// Concatenated text content of this element (direct text children).
    pub fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.children {
            if let Node::Text(t) = n {
                out.push_str(t);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_accessors() {
        let mut e =
            Element::new("component").with_attr("name", "Decoder").with_attr("version", "1.2");
        e.push(Element::new("provides").with_attr("port", "video"));
        e.push(Element::new("provides").with_attr("port", "stats"));
        e.push(Element::new("uses").with_attr("port", "display"));
        let e = e.with_text("note");
        assert_eq!(e.attr("name"), Some("Decoder"));
        assert_eq!(e.attr("missing"), None);
        assert!(e.require_attr("bogus").is_err());
        assert_eq!(e.children_named("provides").count(), 2);
        assert_eq!(e.child("uses").unwrap().attr("port"), Some("display"));
        assert!(e.require_child("nothere").is_err());
        assert_eq!(e.text(), "note");
        assert_eq!(e.elements().count(), 3);
    }

    #[test]
    fn set_attr_replaces() {
        let mut e = Element::new("x");
        e.set_attr("a", "1");
        e.set_attr("a", "2");
        assert_eq!(e.attrs.len(), 1);
        assert_eq!(e.attr("a"), Some("2"));
    }
}
