//! # lc-xml — minimal XML engine for CORBA-LC descriptors
//!
//! The paper specifies that component meta-data "is described using XML
//! files for convenience … The Document Type Definitions (DTDs) describing
//! those files are based upon the WWW Consortium's Open Software
//! Descriptor" (§2.1.1), and that CORBA-LC deliberately uses *plain IDL +
//! XML* instead of the CCM's IDL+CIDL extension so stock CORBA 2 tooling
//! keeps working (§2.1.2).
//!
//! This crate implements the XML substrate from scratch (no external
//! dependencies are sanctioned for this):
//!
//! * [`dom`] — a small document object model ([`Element`], [`Node`]),
//!   whose strings a parsed tree borrows from its input,
//! * [`parser`] — a recursive-descent parser with positioned errors,
//! * [`writer`] — serialization with proper escaping (round-trips the DOM).
//!
//! A descriptor's format is stated by its reader, which refuses what it
//! does not read through [`Element::reads_only`], [`Element::child`] and
//! [`Element::require_child`] (`lc_pkg::ComponentDescriptor::from_xml`).

pub mod dom;
pub mod parser;
pub mod writer;

pub use dom::{Element, Node};
pub use parser::{parse, ParseError};
pub use writer::to_string;

#[cfg(test)]
mod proptests {
    use super::*;
    use lc_prop::{alphabet, check, Gen};

    fn gen_name(g: &mut Gen) -> String {
        let mut s = g.string_of(alphabet::ALPHA, 1..2);
        s.push_str(&g.string_of(alphabet::NAME, 0..13));
        s
    }

    /// Multi-byte characters of every UTF-8 length: the parser takes a
    /// run of character data as one slice of its input.
    const WIDE: &str = "éßñ—€日本語🦀𝄞";

    fn gen_text(g: &mut Gen) -> String {
        // Arbitrary printable text including XML-special characters and
        // multi-byte characters; the writer must escape whatever we throw
        // at it.
        let mut s = g.ascii_printable(0..21);
        s.push_str(&g.string_of(WIDE, 0..4));
        s.push_str(&g.ascii_printable(0..21));
        s
    }

    /// Text nodes without leading/trailing whitespace: the parser trims
    /// inter-element whitespace.
    fn gen_trimmed_text(g: &mut Gen) -> String {
        const NON_SPACE: &str = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~éßñ—€日本語🦀𝄞";
        let mut s = g.string_of(NON_SPACE, 1..2);
        s.push_str(&gen_text(g));
        s.push_str(&g.string_of(NON_SPACE, 1..2));
        s
    }

    fn gen_element(g: &mut Gen, depth: usize) -> Element<'static> {
        let mut e = Element::new(&gen_name(g));
        for _ in 0..g.gen_range(0..3usize) {
            let (k, v) = (gen_name(g), gen_text(g));
            if !e.attrs.iter().any(|(ek, _)| *ek == k) {
                e.set_attr(&k, &v);
            }
        }
        if depth > 0 {
            for _ in 0..g.gen_range(0..4usize) {
                let c = if g.gen_bool() {
                    Node::Element(gen_element(g, depth - 1))
                } else {
                    Node::Text(gen_trimmed_text(g).into())
                };
                // Merge adjacent text nodes to keep round-trips exact.
                match (&c, e.children.last_mut()) {
                    (Node::Text(t), Some(Node::Text(prev))) => prev.to_mut().push_str(t),
                    _ => e.children.push(c),
                }
            }
        }
        e
    }

    #[test]
    fn write_parse_round_trips() {
        check("write_parse_round_trips", |g| {
            let depth = g.gen_range(0..4usize);
            let e = gen_element(g, depth);
            let s = to_string(&e);
            let back = parse(&s).expect("own output must parse");
            assert_eq!(e, back);
        });
    }
}
