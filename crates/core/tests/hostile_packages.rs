//! Hostile package bytes (ROADMAP 8c): a peer's `Install` or `Package`
//! reply is whatever bytes it chose to send, and the acceptor must refuse
//! anything but a package its vendor signed — with an error, never a
//! panic, and without asking the allocator for more than the bytes could
//! ever decode to. The descriptor's XML is parsed before any signature
//! is checked, and a package's IDL is compiled at install, so the XML and
//! IDL parsers meet mutated text of their own too.
//!
//! Its own test binary because it installs a counting global allocator
//! (`lc_prop::alloc`, thread-local counters).

use lc_core::{demo, BehaviorRegistry, ComponentRepository, InstallError};
use lc_pkg::{lzss, sha256, ComponentDescriptor, Package, Platform};
use lc_prop::alloc::{largest, reset_largest, Counting};
use lc_prop::Gen;
use std::rc::Rc;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Install `bytes` on an empty repository under the signature-required
/// policy of every node.
fn install(bytes: &Rc<Vec<u8>>) -> Result<(), InstallError> {
    let behaviors = BehaviorRegistry::new();
    demo::register_demo_behaviors(&behaviors);
    let mut repo = ComponentRepository::new();
    let trust = demo::demo_trust();
    repo.install(bytes, &Platform::reference(), &trust, &behaviors, true).map(|_| ())
}

/// Where a package's first length and count fields sit: the descriptor
/// blob's length, its LZSS stream's declared length, and the IDL count.
fn header_fields(bytes: &[u8]) -> [usize; 3] {
    let len = u32::from_le_bytes([bytes[5], bytes[6], bytes[7], bytes[8]]) as usize;
    [5, 9, 9 + len + 32]
}

/// `raw` as an LZSS stream of literals only: a valid encoding, made
/// without searching for matches.
fn literal_stream(raw: &[u8]) -> Vec<u8> {
    let mut stream = (raw.len() as u32).to_le_bytes().to_vec();
    for chunk in raw.chunks(8) {
        stream.push(0xFF >> (8 - chunk.len()));
        stream.extend_from_slice(chunk);
    }
    stream
}

/// One random edit that always changes the bytes: flip bits of a byte,
/// overwrite a little-endian `u32` (half the time a header length or
/// count field, else anywhere) with a huge or random value, cut the tail,
/// or insert bytes.
fn mutate(g: &mut Gen, bytes: &mut Vec<u8>, fields: &[usize; 3]) {
    let at = g.gen_range(0..bytes.len());
    match g.gen_range(0..4u32) {
        0 => bytes[at] ^= g.gen_range(1..256u32) as u8,
        1 => {
            let at = if g.gen_bool() { *g.pick(fields) } else { at };
            let at = at.min(bytes.len().saturating_sub(4));
            if bytes.len() < 4 {
                bytes.clear();
                return;
            }
            let v = if g.gen_bool() { u32::MAX - g.gen_range(0..16u32) } else { g.any_u32() };
            let old = u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
            let v = if v == old { !v } else { v };
            bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
        2 => bytes.truncate(at),
        _ => {
            let extra = g.bytes(1..9);
            bytes.splice(at..at, extra);
        }
    }
}

/// Every mutation of every demo package is refused with an error — the
/// digests, the signature over the received body, or the parse catch it —
/// and neither parsing nor installing it panics or reserves more than the
/// bytes could decode to: an LZSS item yields at most 9 bytes per byte it
/// takes, so no request may exceed 9 × the input (a tiny input is allowed
/// the 576 bytes of 64).
#[test]
fn mutated_demo_packages_are_refused_with_bounded_allocation() {
    let corpus = [
        demo::counter_package(),
        demo::display_package_sized(4 * 1024),
        demo::gui_package(),
        demo::watcher_package(),
    ];
    for pkg in &corpus {
        install(pkg).expect("the unmutated package installs");
    }
    let mut worst = 0.0f64;
    lc_prop::check("mutated demo packages are refused", |g| {
        let mut bytes = g.pick(&corpus).to_vec();
        let fields = header_fields(&bytes);
        for _ in 0..g.gen_range(1..4u32) {
            if bytes.is_empty() {
                break;
            }
            mutate(g, &mut bytes, &fields);
        }
        let bytes = Rc::new(bytes);
        reset_largest();
        let _ = Package::from_bytes(&bytes);
        let refused = install(&bytes);
        let asked = largest();
        assert!(refused.is_err(), "a mutated package of {} bytes installed", bytes.len());
        let bound = 9 * bytes.len().max(64);
        assert!(asked <= bound, "{} input bytes asked for {asked} bytes at once", bytes.len());
        worst = worst.max(asked as f64 / bytes.len().max(1) as f64);
    });
    println!("largest request per input byte: {worst:.2}");
}

/// A container whose descriptor blob holds the signed content, compressed
/// differently (all literals), under the original signature and a
/// container digest recomputed to match. Its content is the vendor's; its
/// bytes are not the ones the vendor signed, so the acceptor refuses it.
/// (Verifying over a re-encoding of the parsed package, as the acceptor
/// once did, canonicalises the blob and accepts it.)
#[test]
fn a_signature_binds_the_received_bytes() {
    let signed = demo::counter_package();
    // Layout: magic (5) | descriptor blob: len (4), LZSS stream, digest (32)
    // | rest of body | container digest (32) | flag (1) | signer | tag (32).
    let len = u32::from_le_bytes([signed[5], signed[6], signed[7], signed[8]]) as usize;
    let stream = &signed[9..9 + len];
    let raw = lzss::decompress(stream).expect("a valid stream");
    let literal = literal_stream(&raw);
    assert_ne!(literal, stream, "a different encoding");
    let trailer = 32 + 1 + 4 + demo::demo_key().signer.len() + 32;
    let body_end = signed.len() - trailer;
    let mut forged = signed[..5].to_vec();
    forged.extend_from_slice(&(literal.len() as u32).to_le_bytes());
    forged.extend_from_slice(&literal);
    forged.extend_from_slice(&signed[9 + len..body_end]);
    let digest = sha256::sha256(&forged);
    forged.extend_from_slice(&digest);
    forged.extend_from_slice(&signed[body_end + 32..]);

    let original = Package::from_bytes(&signed).expect("parses");
    let copy = Package::from_bytes(&forged).expect("the forgery parses, digests and all");
    assert_eq!(copy, original, "same content, signature included");
    assert!(install(&signed).is_ok());
    assert!(matches!(install(&Rc::new(forged)), Err(InstallError::Untrusted(_))));
}

/// The descriptor is parsed before the container digest and the
/// signature are checked, so any peer's bytes reach the XML parser: a
/// descriptor blob (valid stream, valid blob digest) of 100 000 nested
/// elements is refused with an error. (It once overflowed the stack and
/// aborted the process.)
#[test]
fn a_descriptor_nested_100_000_deep_is_refused() {
    let signed = demo::counter_package();
    let len = u32::from_le_bytes([signed[5], signed[6], signed[7], signed[8]]) as usize;
    let depth = 100_000;
    let raw = ("<a>".repeat(depth) + &"</a>".repeat(depth)).into_bytes();
    let stream = literal_stream(&raw);
    let mut hostile = signed[..5].to_vec();
    hostile.extend_from_slice(&(stream.len() as u32).to_le_bytes());
    hostile.extend_from_slice(&stream);
    hostile.extend_from_slice(&sha256::sha256(&raw));
    hostile.extend_from_slice(&signed[9 + len + 32..]);
    let refused = install(&Rc::new(hostile)).expect_err("refused");
    assert!(refused.to_string().contains("nest deeper"), "{refused}");
}

/// One random edit of a text: flip bits of a byte, delete a span, insert
/// random printable text, or repeat a span in place.
fn mutate_text(g: &mut Gen, text: &mut Vec<u8>) {
    let at = g.gen_range(0..text.len());
    let end = (at + g.gen_range(1..17usize)).min(text.len());
    match g.gen_range(0..4u32) {
        0 => text[at] ^= g.gen_range(1..256u32) as u8,
        1 => {
            text.drain(at..end);
        }
        2 => {
            let extra = g.ascii_printable(1..9).into_bytes();
            text.splice(at..at, extra);
        }
        _ => {
            let span = text[at..end].to_vec();
            text.splice(at..at, span);
        }
    }
}

/// Run `parse` on `text` with the largest allocator request recorded;
/// returns its verdict and that request. The parsers work on `&str`, so
/// bytes a mutation left invalid as UTF-8 reach them as replacement
/// characters.
fn parse_counted<T>(text: &[u8], parse: impl Fn(&str) -> T) -> (T, usize) {
    let text = String::from_utf8_lossy(text);
    reset_largest();
    let verdict = parse(&text);
    (verdict, largest())
}

/// What a node parses a component descriptor's XML with: the document,
/// then the reader that states the format.
fn descriptor(xml: &str) -> Result<ComponentDescriptor, String> {
    let root = lc_xml::parse(xml).map_err(|e| e.to_string())?;
    ComponentDescriptor::from_xml(&root)
}

/// The demo packages' component descriptors, as XML text.
fn demo_descriptors() -> Vec<Vec<u8>> {
    let packages = [
        demo::counter_package(),
        demo::display_package(),
        demo::gui_package(),
        demo::watcher_package(),
    ];
    packages
        .iter()
        .map(|pkg| {
            let pkg = Package::from_bytes(pkg).expect("a demo package parses");
            lc_xml::to_string(&pkg.descriptor.to_xml()).into_bytes()
        })
        .collect()
}

/// No text parser request may exceed 64 bytes per input byte (a tiny
/// input is allowed the 4 096 bytes of 64): at most one token or node of
/// at most 32 bytes per input byte, in a vector that at most doubles. A
/// request sized by a count read from the input breaks it.
fn text_bound(len: usize) -> usize {
    64 * len.max(64)
}

/// Byte mutations of the demo packages' component descriptors, as XML
/// text: never a panic, never a request beyond [`text_bound`], and a
/// verdict that is an error or a descriptor which writes back to XML that
/// parses to itself (a mutation can leave a descriptor valid: a flipped
/// letter in a name). A cut anywhere before the root element closes is
/// always refused.
#[test]
fn mutated_descriptor_xml_is_refused_or_round_trips_with_bounded_allocation() {
    let corpus = demo_descriptors();
    for xml in &corpus {
        assert!(parse_counted(xml, descriptor).0.is_ok(), "the unmutated descriptor parses");
    }
    let (mut refused, mut worst) = (0u32, 0.0f64);
    lc_prop::check("mutated descriptor XML", |g| {
        let original = g.pick(&corpus);
        let mut xml = original.clone();
        for _ in 0..g.gen_range(1..4u32) {
            mutate_text(g, &mut xml);
            if xml.is_empty() {
                break;
            }
        }
        let (verdict, asked) = parse_counted(&xml, descriptor);
        assert!(asked <= text_bound(xml.len()), "{} bytes asked for {asked} at once", xml.len());
        worst = worst.max(asked as f64 / xml.len().max(1) as f64);
        match verdict {
            Err(_) => refused += 1,
            Ok(desc) => {
                let again = lc_xml::to_string(&desc.to_xml());
                assert_eq!(descriptor(&again), Ok(desc), "a parsed descriptor round-trips");
            }
        }
        let last_close = original.iter().rposition(|&b| b == b'>').expect("a root element");
        let (cut, asked) = parse_counted(&original[..g.gen_range(0..last_close)], descriptor);
        assert!(cut.is_err(), "a descriptor cut before its root closes parsed");
        assert!(asked <= text_bound(last_close));
    });
    println!("descriptor XML: {refused} mutations refused; largest request per byte {worst:.2}");
}

/// The reader's verdicts on 4 096 byte mutations of the demo
/// descriptors, drawn from one fixed seed (not `lc_prop::check`, whose
/// case count `LC_PROP_CASES` sets): how many it refuses, and a digest of
/// the accept/refuse sequence. A change to what `from_xml` accepts moves
/// one or both.
#[test]
fn descriptor_verdicts_on_seeded_mutations_are_pinned() {
    let corpus = demo_descriptors();
    let mut g = Gen::from_seed(0x0de5_c71b);
    let verdicts: Vec<u8> = (0..4096)
        .map(|_| {
            let mut xml = g.pick(&corpus).clone();
            for _ in 0..g.gen_range(1..4u32) {
                mutate_text(&mut g, &mut xml);
                if xml.is_empty() {
                    break;
                }
            }
            u8::from(descriptor(&String::from_utf8_lossy(&xml)).is_err())
        })
        .collect();
    let refused = verdicts.iter().filter(|&&v| v == 1).count();
    let digest = sha256::sha256(&verdicts);
    let digest = u64::from_be_bytes([
        digest[0], digest[1], digest[2], digest[3], digest[4], digest[5], digest[6], digest[7],
    ]);
    assert_eq!((refused, digest), (3_793, 0x9171_3fac_f036_cdf6), "refused, verdict digest");
}

/// Byte mutations of the demo IDL: never a panic, never a request beyond
/// [`text_bound`]. A cut anywhere inside the module (after its first
/// word, before its closing brace) is always refused.
#[test]
fn mutated_demo_idl_is_refused_with_bounded_allocation() {
    let original = demo::DEMO_IDL.as_bytes();
    assert!(lc_idl::compile(demo::DEMO_IDL).is_ok(), "the unmutated IDL compiles");
    let first = original.iter().position(|b| !b.is_ascii_whitespace()).expect("IDL text");
    let last_brace = original.iter().rposition(|&b| b == b'}').expect("a module");
    let (mut refused, mut worst) = (0u32, 0.0f64);
    lc_prop::check("mutated demo IDL", |g| {
        let mut idl = original.to_vec();
        for _ in 0..g.gen_range(1..4u32) {
            mutate_text(g, &mut idl);
            if idl.is_empty() {
                break;
            }
        }
        let (verdict, asked) = parse_counted(&idl, lc_idl::compile);
        assert!(asked <= text_bound(idl.len()), "{} bytes asked for {asked} at once", idl.len());
        worst = worst.max(asked as f64 / idl.len().max(1) as f64);
        refused += u32::from(verdict.is_err());
        let cut = &original[..g.gen_range(first + 1..last_brace)];
        let (verdict, asked) = parse_counted(cut, lc_idl::compile);
        assert!(verdict.is_err(), "IDL cut inside its module compiled");
        assert!(asked <= text_bound(cut.len()));
    });
    println!("demo IDL: {refused} mutations refused; largest request per byte {worst:.2}");
}
