//! Hostile package bytes (ROADMAP 8c, the CLCP + LZSS third): a peer's
//! `Install` or `Package` reply is whatever bytes it chose to send, and
//! the acceptor must refuse anything but a package its vendor signed —
//! with an error, never a panic, and without asking the allocator for more
//! than the bytes could ever decode to.
//!
//! Its own test binary because it installs a counting global allocator
//! (`lc_prop::alloc`, thread-local counters).

use lc_core::{demo, BehaviorRegistry, ComponentRepository, InstallError};
use lc_pkg::{lzss, sha256, Package, Platform};
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
