//! E9 — packaging: compression, verification, partial extraction (§2.3).
//!
//! The packaging requirements in one table each: compression ratio
//! across binary sizes and redundancy levels (every package sealed,
//! parsed back and verified against the trust store), and the PDA
//! partial-extraction saving ("extracting only a set of binaries from
//! the whole component … to be installed in devices with a tiny
//! memory").
//!
//! Sizes and ratios only: pack and verify throughput are the
//! `pkg.pack_mib_s` / `pkg.parse_verify_mib_s` rows of `.perf`.

use crate::{f2, format_table, human_bytes, Output};
use lc_pkg::{ComponentDescriptor, Package, Platform, SigningKey, TrustStore, Version};

fn payload(kind: &str, size: usize) -> Vec<u8> {
    match kind {
        // machine code-ish: repetitive patterns (compresses well)
        "code" => (0..size)
            .map(|i| match i % 16 {
                0..=7 => 0x90,
                8..=11 => (i / 64) as u8,
                _ => 0xCC,
            })
            .collect(),
        // media/encrypted: incompressible
        _ => {
            let mut x = 0xABCDEF01u32;
            (0..size)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    (x >> 24) as u8
                })
                .collect()
        }
    }
}

/// Run E9 and render the report.
pub fn run() -> Output {
    let mut report =
        "E9: CLCP packaging — compression, signing, partial extraction\n".to_owned();
    let key = SigningKey::new("vendor", b"secret");
    let mut trust = TrustStore::new();
    trust.trust("vendor", b"secret");

    let mut rows = Vec::new();
    for &(kind, size) in &[
        ("code", 4 * 1024),
        ("code", 64 * 1024),
        ("code", 1024 * 1024),
        ("code", 4 * 1024 * 1024),
        ("media", 64 * 1024),
        ("media", 4 * 1024 * 1024),
    ] {
        let desc = ComponentDescriptor::new("Pkg", Version::new(1, 0), "vendor");
        let mut pkg = Package::new(desc)
            .with_idl("x.idl", "interface X { void f(); };")
            .with_binary(Platform::reference(), "x", &payload(kind, size))
            .with_binary(Platform::pda(), "x_pda", &payload(kind, size / 8));
        pkg.seal(&key);
        let bytes = pkg.to_bytes();
        let verified = Package::receive(&bytes, &trust).map(|(_, verdict)| verdict);
        if !matches!(verified, Ok(lc_pkg::sign::Verification::Trusted)) {
            return Output::failed(format!(
                "e9: {kind} package of {size} bytes did not verify after the round trip"
            ));
        }

        let raw = pkg.raw_size() as f64;
        rows.push(vec![
            kind.to_string(),
            human_bytes(size as u64),
            human_bytes(pkg.raw_size() as u64),
            human_bytes(bytes.len() as u64),
            f2(raw / bytes.len() as f64),
        ]);
    }
    report.push_str(&format_table(
        "pack/verify across binary sizes",
        &["payload", "main binary", "raw total", "wire total", "ratio"],
        &rows,
    ));

    // Partial extraction for PDAs.
    let mut rows = Vec::new();
    for &size in &[64 * 1024usize, 1024 * 1024, 4 * 1024 * 1024] {
        let desc = ComponentDescriptor::new("Pkg", Version::new(1, 0), "vendor");
        let pkg = Package::new(desc)
            .with_idl("x.idl", "interface X { void f(); };")
            .with_binary(Platform::reference(), "x", &payload("media", size))
            .with_binary(
                Platform::new("sparc", "solaris", "lc-orb"),
                "x_sparc",
                &payload("media", size),
            )
            .with_binary(Platform::pda(), "x_pda", &payload("media", size / 16));
        let full = pkg.to_bytes().len();
        let sub = pkg.extract_subset(&[Platform::pda()]).to_bytes().len();
        rows.push(vec![
            human_bytes(size as u64),
            human_bytes(full as u64),
            human_bytes(sub as u64),
            f2(full as f64 / sub as f64),
        ]);
    }
    report.push_str(&format_table(
        "PDA partial extraction (3-platform package, PDA binary = size/16)",
        &["per-platform binary", "full package", "PDA subset", "saving x"],
        &rows,
    ));
    Output { report, ..Output::default() }
}
