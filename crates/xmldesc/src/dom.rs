//! Document object model: elements with ordered attributes and children.
//!
//! A parsed tree borrows its tag names, attribute keys and values, and
//! text from the document it was parsed from ([`Cow::Borrowed`]); only a
//! string that decoded an entity is a copy ([`Cow::Owned`]). Trees built
//! with the builders own their strings and are `Element<'static>`.

use std::borrow::Cow;

/// A node in the document tree.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Node<'a> {
    /// A child element.
    Element(Element<'a>),
    /// Character data (entity-decoded).
    Text(Cow<'a, str>),
}

/// An XML element.
///
/// Attributes keep insertion order (descriptor output is deterministic and
/// diff-friendly); duplicate attribute names are rejected by the parser.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Element<'a> {
    /// Tag name.
    pub name: Cow<'a, str>,
    /// Attributes in document order.
    pub attrs: Vec<(Cow<'a, str>, Cow<'a, str>)>,
    /// Child nodes in document order.
    pub children: Vec<Node<'a>>,
}

impl<'a> Element<'a> {
    /// New element with no attributes or children.
    pub fn new(name: &str) -> Self {
        Element { name: Cow::Owned(name.to_owned()), attrs: Vec::new(), children: Vec::new() }
    }

    /// Set (or replace) an attribute; returns `self` for chaining.
    pub fn with_attr(mut self, key: &str, value: &str) -> Self {
        self.set_attr(key, value);
        self
    }

    /// Set (or replace) an attribute.
    pub fn set_attr(&mut self, key: &str, value: &str) {
        let value = Cow::Owned(value.to_owned());
        if let Some(kv) = self.attrs.iter_mut().find(|(k, _)| k == key) {
            kv.1 = value;
        } else {
            self.attrs.push((Cow::Owned(key.to_owned()), value));
        }
    }

    /// Attribute value, if present.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| &**v)
    }

    /// Attribute value or a descriptive error (for descriptor readers).
    pub fn require_attr(&self, key: &str) -> Result<&str, String> {
        self.attr(key).ok_or_else(|| format!("<{}> missing required attribute '{key}'", self.name))
    }

    /// Append a text child; returns `self` for chaining.
    pub fn with_text(mut self, text: &str) -> Self {
        self.children.push(Node::Text(Cow::Owned(text.to_owned())));
        self
    }

    /// Append a child element.
    pub fn push(&mut self, child: Element<'a>) {
        self.children.push(Node::Element(child));
    }

    /// Iterate child elements (skipping text nodes).
    pub fn elements(&self) -> impl Iterator<Item = &Element<'a>> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        })
    }

    /// Child elements with a given tag name.
    pub fn children_named<'s>(
        &'s self,
        name: &'s str,
    ) -> impl Iterator<Item = &'s Element<'a>> + 's {
        self.elements().filter(move |e| e.name == name)
    }

    /// The child element with a given tag name, if any; a second one is
    /// an error.
    pub fn child(&self, name: &str) -> Result<Option<&Element<'a>>, String> {
        let mut found = self.elements().filter(|e| e.name == name);
        let first = found.next();
        match found.next() {
            None => Ok(first),
            Some(_) => Err(format!("<{}> has more than one child <{name}>", self.name)),
        }
    }

    /// The one child element with a given tag name, or a descriptive error.
    pub fn require_child(&self, name: &str) -> Result<&Element<'a>, String> {
        self.child(name)?.ok_or_else(|| format!("<{}> missing required child <{name}>", self.name))
    }

    /// Refuse what a reader of this element does not read: an attribute
    /// not in `attrs`, a child element not in `children`, and text other
    /// than whitespace unless `text`. Builds a string only for an error.
    pub fn reads_only(&self, attrs: &[&str], children: &[&str], text: bool) -> Result<(), String> {
        if let Some((k, _)) = self.attrs.iter().find(|(k, _)| !attrs.contains(&&**k)) {
            return Err(format!("<{}> has unexpected attribute '{k}'", self.name));
        }
        for n in &self.children {
            match n {
                Node::Element(e) if !children.contains(&&*e.name) => {
                    return Err(format!("<{}> has unexpected child <{}>", self.name, e.name));
                }
                Node::Text(t) if !text && !t.trim().is_empty() => {
                    return Err(format!("<{}> has unexpected text", self.name));
                }
                _ => {}
            }
        }
        Ok(())
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
        assert_eq!(e.child("uses").unwrap().unwrap().attr("port"), Some("display"));
        assert_eq!(e.child("nothere"), Ok(None));
        assert!(e.require_child("nothere").is_err());
        assert!(e.child("provides").is_err(), "a second match is an error");
        assert!(e.require_child("provides").is_err());
        assert_eq!(e.text(), "note");
        assert_eq!(e.elements().count(), 3);
    }

    #[test]
    fn reads_only_refuses_what_is_not_read() {
        let e = Element::new("qos").with_attr("cpu", "1");
        assert_eq!(e.reads_only(&["cpu"], &[], false), Ok(()));
        assert!(e.reads_only(&[], &[], false).unwrap_err().contains("'cpu'"));
        let mut e = Element::new("type");
        e.push(Element::new("qos"));
        assert_eq!(e.reads_only(&[], &["qos"], false), Ok(()));
        assert!(e.reads_only(&[], &["provides"], false).unwrap_err().contains("<qos>"));
        let e = Element::new("description").with_text("hi");
        assert_eq!(e.reads_only(&[], &[], true), Ok(()));
        assert!(e.reads_only(&[], &[], false).unwrap_err().contains("text"));
        let blank = Element::new("type").with_text(" \n\t");
        assert_eq!(blank.reads_only(&[], &[], false), Ok(()), "whitespace is layout");
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
