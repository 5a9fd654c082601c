//! DTD-like validation for descriptor documents.
//!
//! The paper bases its descriptor DTDs on the W3C Open Software Descriptor
//! (OSD). This module provides the validation machinery those DTDs need:
//! per-element rules for attributes (required / optional / enumerated) and
//! for child elements (multiplicity constraints). The concrete CORBA-LC
//! descriptor schemas are defined where the descriptors live (`lc-pkg` and
//! `lc-core`); this module is schema-agnostic.

use crate::dom::{Element, Node};
use std::collections::BTreeMap;

/// How many times a child element may occur.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Multiplicity {
    /// Exactly once.
    One,
    /// Zero or one.
    Optional,
    /// Zero or more.
    Many,
    /// One or more.
    AtLeastOne,
}

impl Multiplicity {
    fn check(self, n: usize) -> bool {
        match self {
            Multiplicity::One => n == 1,
            Multiplicity::Optional => n <= 1,
            Multiplicity::Many => true,
            Multiplicity::AtLeastOne => n >= 1,
        }
    }
}

/// Rule for one attribute of an element.
#[derive(Clone, Debug)]
pub struct AttrRule {
    /// Attribute name.
    pub name: String,
    /// Must it be present?
    pub required: bool,
    /// If non-empty, the value must be one of these.
    pub one_of: Vec<String>,
}

impl AttrRule {
    /// A required free-form attribute.
    pub fn required(name: &str) -> Self {
        AttrRule { name: name.to_owned(), required: true, one_of: Vec::new() }
    }
    /// Restrict the value to an enumeration.
    pub fn one_of(mut self, values: &[&str]) -> Self {
        self.one_of = values.iter().map(|s| (*s).to_owned()).collect();
        self
    }
}

/// Rule for one kind of child element.
#[derive(Clone, Debug)]
pub struct ChildRule {
    /// Child tag name.
    pub name: String,
    /// Occurrence constraint.
    pub mult: Multiplicity,
}

/// Rules for one element type.
#[derive(Clone, Debug, Default)]
pub struct ElementRule {
    /// Attribute rules. Attributes not listed are rejected.
    pub attrs: Vec<AttrRule>,
    /// Child rules. Child elements not listed are rejected.
    pub children: Vec<ChildRule>,
    /// May the element contain (non-whitespace) text?
    pub allow_text: bool,
}

impl ElementRule {
    /// Start an empty rule.
    pub fn new() -> Self {
        Self::default()
    }
    /// Add an attribute rule.
    pub fn attr(mut self, rule: AttrRule) -> Self {
        self.attrs.push(rule);
        self
    }
    /// Add a child rule.
    pub fn child(mut self, name: &str, mult: Multiplicity) -> Self {
        self.children.push(ChildRule { name: name.to_owned(), mult });
        self
    }
    /// Allow text content.
    pub fn text(mut self) -> Self {
        self.allow_text = true;
        self
    }
}

/// A validation failure: the element path plus a message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SchemaError {
    /// Slash-separated path from the root, e.g. `softpkg/implementation`.
    pub path: String,
    /// What rule was violated.
    pub msg: String,
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "schema violation at {}: {}", self.path, self.msg)
    }
}

impl std::error::Error for SchemaError {}

/// A set of element rules, keyed by tag name, with a designated root.
#[derive(Clone, Debug)]
pub struct Schema {
    root: String,
    rules: BTreeMap<String, ElementRule>,
}

impl Schema {
    /// New schema whose document root must be `root`.
    pub fn new(root: &str) -> Self {
        Schema { root: root.to_owned(), rules: BTreeMap::new() }
    }

    /// Define (or replace) the rule for element `name`.
    pub fn element(mut self, name: &str, rule: ElementRule) -> Self {
        self.rules.insert(name.to_owned(), rule);
        self
    }

    /// Validate a document against the schema.
    pub fn validate(&self, root: &Element<'_>) -> Result<(), SchemaError> {
        if root.name != self.root {
            return Err(SchemaError {
                path: root.name.to_string(),
                msg: format!("expected document root <{}>", self.root),
            });
        }
        self.validate_at(root)
    }

    /// Validate `e` and its subtree. An error's path is built on its way
    /// out, one element name per level, so a valid document formats none.
    fn validate_at(&self, e: &Element<'_>) -> Result<(), SchemaError> {
        let fail = |msg: String| Err(SchemaError { path: e.name.to_string(), msg });
        let Some(rule) = self.rules.get(&*e.name) else {
            return fail(format!("unknown element <{}>", e.name));
        };

        // Attributes.
        for ar in &rule.attrs {
            match e.attr(&ar.name) {
                None if ar.required => {
                    return fail(format!("missing required attribute '{}'", ar.name));
                }
                Some(v) if !ar.one_of.is_empty() && !ar.one_of.iter().any(|o| o == v) => {
                    return fail(format!(
                        "attribute '{}' must be one of {:?}, found '{v}'",
                        ar.name, ar.one_of
                    ));
                }
                _ => {}
            }
        }
        for (k, _) in &e.attrs {
            if !rule.attrs.iter().any(|ar| ar.name == *k) {
                return fail(format!("unexpected attribute '{k}'"));
            }
        }

        // Text content.
        let text = |n: &Node<'_>| matches!(n, Node::Text(t) if !t.trim().is_empty());
        let has_text = e.children.iter().any(text);
        if !rule.allow_text && has_text {
            return fail("unexpected text content".to_owned());
        }

        // Children: counts, then unexpected names, then recursion.
        for cr in &rule.children {
            let n = e.children_named(&cr.name).count();
            if !cr.mult.check(n) {
                return fail(format!(
                    "child <{}> occurs {n} time(s), violates {:?}",
                    cr.name, cr.mult
                ));
            }
        }
        for c in e.elements() {
            if !rule.children.iter().any(|cr| cr.name == c.name) {
                return fail(format!("unexpected child <{}>", c.name));
            }
            self.validate_at(c).map_err(|mut err| {
                err.path.insert(0, '/');
                err.path.insert_str(0, &e.name);
                err
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    /// An optional free-form attribute.
    fn optional(name: &str) -> AttrRule {
        AttrRule { name: name.to_owned(), required: false, one_of: Vec::new() }
    }

    /// A miniature OSD-like schema used by the tests.
    fn softpkg_schema() -> Schema {
        Schema::new("softpkg")
            .element(
                "softpkg",
                ElementRule::new()
                    .attr(AttrRule::required("name"))
                    .attr(optional("version"))
                    .child("description", Multiplicity::Optional)
                    .child("implementation", Multiplicity::AtLeastOne),
            )
            .element(
                "description",
                ElementRule::new().text(),
            )
            .element(
                "implementation",
                ElementRule::new()
                    .attr(AttrRule::required("os").one_of(&["linux", "win32", "palmos"]))
                    .child("code", Multiplicity::One),
            )
            .element("code", ElementRule::new().attr(AttrRule::required("file")))
    }

    #[test]
    fn valid_document_passes() {
        let doc = parse(
            r#"<softpkg name="A" version="1">
                 <description>hi</description>
                 <implementation os="linux"><code file="a.so"/></implementation>
                 <implementation os="win32"><code file="a.dll"/></implementation>
               </softpkg>"#,
        )
        .unwrap();
        softpkg_schema().validate(&doc).unwrap();
    }

    #[test]
    fn missing_required_attr() {
        let doc = parse(r#"<softpkg><implementation os="linux"><code file="a"/></implementation></softpkg>"#).unwrap();
        let err = softpkg_schema().validate(&doc).unwrap_err();
        assert!(err.msg.contains("'name'"), "{err}");
    }

    #[test]
    fn enum_attr_enforced() {
        let doc = parse(r#"<softpkg name="A"><implementation os="beos"><code file="a"/></implementation></softpkg>"#).unwrap();
        let err = softpkg_schema().validate(&doc).unwrap_err();
        assert!(err.msg.contains("os"), "{err}");
        assert_eq!(err.path, "softpkg/implementation");
    }

    #[test]
    fn multiplicity_enforced() {
        let doc = parse(r#"<softpkg name="A"/>"#).unwrap();
        let err = softpkg_schema().validate(&doc).unwrap_err();
        assert!(err.msg.contains("implementation"), "{err}");
        let doc2 = parse(
            r#"<softpkg name="A">
                 <implementation os="linux"><code file="a"/><code file="b"/></implementation>
               </softpkg>"#,
        )
        .unwrap();
        let err2 = softpkg_schema().validate(&doc2).unwrap_err();
        assert!(err2.msg.contains("code"), "{err2}");
    }

    #[test]
    fn unexpected_items_rejected() {
        let s = softpkg_schema();
        let doc = parse(r#"<softpkg name="A" hacker="1"><implementation os="linux"><code file="a"/></implementation></softpkg>"#).unwrap();
        assert!(s.validate(&doc).unwrap_err().msg.contains("hacker"));
        let doc2 = parse(r#"<softpkg name="A"><bogus/><implementation os="linux"><code file="a"/></implementation></softpkg>"#).unwrap();
        assert!(s.validate(&doc2).unwrap_err().msg.contains("bogus"));
        let doc3 = parse(r#"<other/>"#).unwrap();
        assert!(s.validate(&doc3).unwrap_err().msg.contains("root"));
    }

    #[test]
    fn text_only_where_allowed() {
        let s = softpkg_schema();
        let doc = parse(r#"<softpkg name="A">words<implementation os="linux"><code file="a"/></implementation></softpkg>"#).unwrap();
        assert!(s.validate(&doc).unwrap_err().msg.contains("text"));
    }
}
