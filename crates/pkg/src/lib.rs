//! # lc-pkg — CORBA-LC component packaging
//!
//! Implements §2.3 ("Packaging") and the static-dimension meta-data of
//! §2.1.1 of the paper: self-contained binary units that bundle a
//! component's binaries for several platforms together with its XML
//! descriptor and IDL sources, compressed for slow links, digest-protected
//! and vendor-signed, and modular enough that a tiny device extracts only
//! the sections it needs.
//!
//! * [`descriptor`] — the `<component>` XML document (static + dynamic
//!   dimensions), whose one reader refuses whatever the format does not
//!   hold.
//! * [`container`] — the CLCP wire format ([`Package`]).
//! * [`lzss`] — from-scratch LZSS compression (requirement: "must admit
//!   compression").
//! * [`sha256`] / [`sign`] — from-scratch SHA-256 and the HMAC signature
//!   scheme standing in for public-key component signing (see DESIGN.md).
//!
//! ```
//! use lc_pkg::{ComponentDescriptor, Package, Platform, Version, SigningKey, TrustStore};
//! use lc_pkg::sign::Verification;
//!
//! let desc = ComponentDescriptor::new("Whiteboard", Version::new(1, 0), "acme")
//!     .provides("board", "IDL:cscw/Board:1.0");
//! let mut pkg = Package::new(desc)
//!     .with_idl("board.idl", "module cscw { interface Board { void clear(); }; };")
//!     .with_binary(Platform::reference(), "whiteboard_impl", b"...machine code...");
//! let key = SigningKey::new("acme", b"secret");
//! pkg.seal(&key);
//!
//! let wire = pkg.to_bytes();                       // compressed container
//! let mut trust = TrustStore::new();
//! trust.trust(&key);
//! // Digests checked, signature verified over the bytes that arrived.
//! let (received, verdict) = Package::receive(&wire, &trust).unwrap();
//! assert_eq!(verdict, Verification::Trusted);
//! assert_eq!(received, pkg);
//! ```

pub mod container;
pub mod descriptor;
pub mod lzss;
pub mod sha256;
pub mod sign;

pub use container::{BinarySection, Package, PackageError};
pub use descriptor::{
    ComponentDep, ComponentDescriptor, EventPortDecl, Licensing, LifeCycle, Mobility, Platform,
    PortDecl, QosSpec, Replication, Version,
};
pub use sign::{Signature, SigningKey, TrustStore};

#[cfg(test)]
mod proptests {
    use super::*;
    use lc_prop::{alphabet, check, Gen};
    use std::collections::BTreeSet;

    const LOWER_DASH: &str = "abcdefghijklmnopqrstuvwxyz-";

    fn platform(g: &mut Gen) -> Platform {
        Platform::new(
            &g.string_of(alphabet::LOWER, 2..7),
            &g.string_of(alphabet::LOWER, 2..7),
            &g.string_of(LOWER_DASH, 2..9),
        )
    }

    /// Any generated package round-trips through the wire format.
    #[test]
    fn package_round_trips() {
        check("package_round_trips", |g| {
            let mut name = g.string_of(alphabet::ALPHA, 1..2);
            name.push_str(&g.string_of(alphabet::ALNUM, 0..13));
            let (major, minor) = (g.gen_range(0..20u32), g.gen_range(0..20u32));
            let idl = g.ascii_printable(0..201);
            let platforms: BTreeSet<Platform> =
                (0..g.gen_range(0..4usize)).map(|_| platform(g)).collect();
            let payload = g.bytes(0..2000);

            let desc = ComponentDescriptor::new(&name, Version::new(major, minor), "vendor");
            let mut pkg = Package::new(desc).with_idl("x.idl", &idl);
            for (i, p) in platforms.into_iter().enumerate() {
                pkg = pkg.with_binary(p, &format!("behavior{i}"), &payload);
            }
            let bytes = pkg.to_bytes();
            let back = Package::from_bytes(&bytes).unwrap();
            assert_eq!(pkg, back);
        });
    }

    /// Parsing never panics on arbitrary bytes.
    #[test]
    fn from_bytes_total() {
        check("from_bytes_total", |g| {
            let garbage = g.bytes(0..4000);
            let _ = Package::from_bytes(&garbage);
        });
    }
}
