//! The CLCP package container ("CORBA-LC Package").
//!
//! §2.3 of the paper sets the packaging requirements: the container must
//! hold "both the binary information and the meta-information … the DLLs
//! … and the IDL and XML files"; it "must admit compression"; and it
//! "must be modular enough to allow (1) storing binaries for different
//! architectures/operating systems/ORBs, (2) describing those binaries,
//! and (3) extracting only a set of binaries … to be installed in devices
//! with a tiny memory, such as PDAs".
//!
//! A CLCP package therefore contains:
//!
//! * the XML [`ComponentDescriptor`] (compressed),
//! * the IDL sources defining the port types (compressed),
//! * one [`BinarySection`] per platform triple, each an independently
//!   compressed and digest-protected payload — so a PDA can pull only the
//!   sections it needs ([`Package::extract_subset`]),
//! * an integrity digest over the whole container and an optional vendor
//!   [`Signature`].
//!
//! The paper packages real DLLs/`.so` files; here payloads are opaque
//! bytes plus a `behavior_id` naming a behaviour registered with the
//! node's runtime — the documented substitution for `dlopen` (DESIGN.md).

use crate::descriptor::{ComponentDescriptor, Platform};
use crate::lzss;
use crate::sha256::{sha256, Digest, DIGEST_LEN};
use crate::sign::{Signature, SigningKey, TrustStore, Verification};

/// Container format magic + version.
const MAGIC: &[u8; 5] = b"CLCP\x01";

/// The fewest bytes a blob takes on the wire: its length, the LZSS
/// stream's declared length, and its digest.
const MIN_BLOB: usize = 4 + 4 + DIGEST_LEN;
/// The fewest bytes an IDL entry takes: its file name's length, then a blob.
const MIN_IDL_ENTRY: usize = 4 + MIN_BLOB;
/// The fewest bytes a binary section takes: four string lengths, a blob.
const MIN_SECTION: usize = 4 * 4 + MIN_BLOB;

/// One platform-specific implementation inside a package.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BinarySection {
    /// Platform this binary runs on.
    pub platform: Platform,
    /// Identifier of the executable behaviour this binary provides; the
    /// node runtime resolves it against its behaviour registry (the
    /// reproduction's stand-in for dynamic loading).
    pub behavior_id: String,
    /// The "binary" payload (opaque bytes; compressed on the wire).
    pub payload: Vec<u8>,
}

/// Errors produced when reading or verifying a container.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PackageError {
    /// Not a CLCP stream or unsupported version.
    BadMagic,
    /// Structurally truncated or inconsistent.
    Malformed(String),
    /// A section digest did not match its payload (corruption).
    DigestMismatch(String),
    /// Descriptor XML failed to parse or validate.
    BadDescriptor(String),
}

impl std::fmt::Display for PackageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackageError::BadMagic => write!(f, "not a CLCP package"),
            PackageError::Malformed(m) => write!(f, "malformed package: {m}"),
            PackageError::DigestMismatch(m) => write!(f, "digest mismatch in {m}"),
            PackageError::BadDescriptor(m) => write!(f, "bad descriptor: {m}"),
        }
    }
}
impl std::error::Error for PackageError {}

/// An in-memory component package.
#[derive(Clone, PartialEq, Debug)]
pub struct Package {
    /// The component descriptor (meta-information).
    pub descriptor: ComponentDescriptor,
    /// IDL sources: `(file name, source text)`.
    pub idl_sources: Vec<(String, String)>,
    /// Per-platform binaries.
    pub sections: Vec<BinarySection>,
    /// Vendor signature over the unsigned container bytes, if sealed.
    pub signature: Option<Signature>,
}

impl Package {
    /// Assemble an unsigned package.
    pub fn new(descriptor: ComponentDescriptor) -> Self {
        Package { descriptor, idl_sources: Vec::new(), sections: Vec::new(), signature: None }
    }

    /// Add an IDL source file (builder style).
    pub fn with_idl(mut self, file: &str, source: &str) -> Self {
        self.idl_sources.push((file.to_owned(), source.to_owned()));
        self
    }

    /// Add a binary section (builder style).
    pub fn with_binary(mut self, platform: Platform, behavior_id: &str, payload: &[u8]) -> Self {
        self.sections.push(BinarySection {
            platform,
            behavior_id: behavior_id.to_owned(),
            payload: payload.to_vec(),
        });
        self
    }

    /// Sign the package with a vendor key. Must be called after all
    /// content is final; any later mutation invalidates the signature.
    pub fn seal(&mut self, key: &SigningKey) {
        let unsigned = self.encode_body();
        self.signature = Some(key.sign(&unsigned));
    }

    /// Verify the vendor signature of a package held in memory — one
    /// assembled here, or edited since it was parsed — against a trust
    /// store: the body is encoded afresh and the signature checked over
    /// that. A receiver checks what arrived instead, with
    /// [`Package::receive`].
    ///
    /// Returns [`Verification::UnknownSigner`] for unsigned packages.
    pub fn verify(&self, store: &TrustStore) -> Verification {
        signed_by(&self.signature, &self.encode_body(), store)
    }

    /// Build a reduced package containing metadata plus only the sections
    /// matching `keep` — the "extracting only a set of binaries … for
    /// devices with a tiny memory" operation. The result is unsigned (the
    /// bytes differ from what the vendor signed); installers verify the
    /// full package before subsetting.
    pub fn extract_subset(&self, keep: &[Platform]) -> Package {
        Package {
            descriptor: self.descriptor.clone(),
            idl_sources: self.idl_sources.clone(),
            sections: self
                .sections
                .iter()
                .filter(|s| keep.contains(&s.platform))
                .cloned()
                .collect(),
            signature: None,
        }
    }

    /// Total uncompressed content size (descriptor + IDL + payloads).
    pub fn raw_size(&self) -> usize {
        let desc = lc_xml::to_string(&self.descriptor.to_xml()).len();
        let idl: usize = self.idl_sources.iter().map(|(f, s)| f.len() + s.len()).sum();
        let bins: usize = self.sections.iter().map(|s| s.payload.len()).sum();
        desc + idl + bins
    }

    // ---- wire format ---------------------------------------------------

    /// Serialize without the trailing digest/signature.
    fn encode_body(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes_raw(MAGIC);
        let desc_text = lc_xml::to_string(&self.descriptor.to_xml());
        w.blob(desc_text.as_bytes());
        w.u32(self.idl_sources.len() as u32);
        for (file, source) in &self.idl_sources {
            w.string(file);
            w.blob(source.as_bytes());
        }
        w.u32(self.sections.len() as u32);
        for s in &self.sections {
            w.string(&s.platform.arch);
            w.string(&s.platform.os);
            w.string(&s.platform.orb);
            w.string(&s.behavior_id);
            w.blob(&s.payload);
        }
        w.out
    }

    /// Serialize to container bytes (body + digest + optional signature).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.encode_body();
        let digest = sha256(&out);
        out.extend_from_slice(&digest);
        match &self.signature {
            None => out.push(0),
            Some(sig) => {
                out.push(1);
                let mut w = Writer::new();
                w.string(&sig.signer);
                out.extend_from_slice(&w.out);
                out.extend_from_slice(&sig.tag);
            }
        }
        out
    }

    /// Parse container bytes, verifying the container digest and every
    /// per-blob digest.
    pub fn from_bytes(bytes: &[u8]) -> Result<Package, PackageError> {
        Self::parse(bytes).map(|(pkg, _)| pkg)
    }

    /// Parse received container bytes as [`from_bytes`](Self::from_bytes)
    /// does, and verify the vendor signature over the very body bytes
    /// the container digest has just covered: what was received, not a
    /// re-encoding of it. A body that decodes to the signed content but
    /// is not the signed encoding is refused
    /// ([`Verification::BadSignature`]).
    pub fn receive(
        bytes: &[u8],
        store: &TrustStore,
    ) -> Result<(Package, Verification), PackageError> {
        let (pkg, body_end) = Self::parse(bytes)?;
        let verdict = signed_by(&pkg.signature, &bytes[..body_end], store);
        Ok((pkg, verdict))
    }

    /// Parse and check digests; also returns where the signed body ends.
    fn parse(bytes: &[u8]) -> Result<(Package, usize), PackageError> {
        let mut r = Reader { b: bytes, pos: 0 };
        let magic = r.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(PackageError::BadMagic);
        }
        let desc_bytes = r.blob(|| "descriptor".into())?;
        let desc_text = String::from_utf8(desc_bytes)
            .map_err(|_| PackageError::BadDescriptor("descriptor is not UTF-8".into()))?;
        let desc_xml = lc_xml::parse(&desc_text)
            .map_err(|e| PackageError::BadDescriptor(e.to_string()))?;
        let descriptor =
            ComponentDescriptor::from_xml(&desc_xml).map_err(PackageError::BadDescriptor)?;

        // A count read off the wire sizes nothing by itself: no more
        // entries are reserved than the bytes that remain could hold.
        let n_idl = r.u32()? as usize;
        let mut idl_sources = Vec::with_capacity(n_idl.min(r.remaining() / MIN_IDL_ENTRY));
        for _ in 0..n_idl {
            let file = r.string()?;
            let src = r.blob(|| "idl source".into())?;
            let src = String::from_utf8(src)
                .map_err(|_| PackageError::Malformed("IDL source is not UTF-8".into()))?;
            idl_sources.push((file, src));
        }

        let n_sec = r.u32()? as usize;
        let mut sections = Vec::with_capacity(n_sec.min(r.remaining() / MIN_SECTION));
        for _ in 0..n_sec {
            let arch = r.string()?;
            let os = r.string()?;
            let orb = r.string()?;
            let behavior_id = r.string()?;
            let payload = r.blob(|| format!("binary {arch}-{os}-{orb}"))?;
            sections.push(BinarySection {
                platform: Platform { arch, os, orb },
                behavior_id,
                payload,
            });
        }

        // Container digest covers everything read so far.
        let body_end = r.pos;
        let stored: Digest = r
            .take(DIGEST_LEN)?
            .try_into()
            .map_err(|_| PackageError::Malformed("short digest".into()))?;
        if sha256(&bytes[..body_end]) != stored {
            return Err(PackageError::DigestMismatch("container".into()));
        }

        let signature = match r.u8()? {
            0 => None,
            1 => {
                let signer = r.string()?;
                let tag: Digest = r
                    .take(DIGEST_LEN)?
                    .try_into()
                    .map_err(|_| PackageError::Malformed("short signature".into()))?;
                Some(Signature { signer, tag })
            }
            _ => return Err(PackageError::Malformed("bad signature flag".into())),
        };
        if r.pos != bytes.len() {
            return Err(PackageError::Malformed("trailing bytes".into()));
        }

        Ok((Package { descriptor, idl_sources, sections, signature }, body_end))
    }
}

/// Check `signature` (if any) over `body` against the trust store.
fn signed_by(signature: &Option<Signature>, body: &[u8], store: &TrustStore) -> Verification {
    match signature {
        None => Verification::UnknownSigner,
        Some(sig) => store.verify(body, sig),
    }
}

/// Little-endian writer with compressed, digest-protected blobs.
struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { out: Vec::with_capacity(1024) }
    }
    fn bytes_raw(&mut self, b: &[u8]) {
        self.out.extend_from_slice(b);
    }
    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.out.extend_from_slice(s.as_bytes());
    }
    /// A blob is compressed and carries the digest of its *raw* content.
    fn blob(&mut self, raw: &[u8]) {
        let compressed = lzss::compress(raw);
        self.u32(compressed.len() as u32);
        self.out.extend_from_slice(&compressed);
        self.out.extend_from_slice(&sha256(raw));
    }
}

struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PackageError> {
        if self.pos + n > self.b.len() {
            return Err(PackageError::Malformed("unexpected end of package".into()));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }
    fn u8(&mut self) -> Result<u8, PackageError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, PackageError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }
    fn string(&mut self) -> Result<String, PackageError> {
        let len = self.u32()? as usize;
        let s = self.take(len)?;
        String::from_utf8(s.to_vec())
            .map_err(|_| PackageError::Malformed("non-UTF-8 string".into()))
    }
    /// A compressed, digest-checked blob; `what` names it in an error.
    fn blob(&mut self, what: impl Fn() -> String) -> Result<Vec<u8>, PackageError> {
        let len = self.u32()? as usize;
        let compressed = self.take(len)?;
        let raw = lzss::decompress(compressed)
            .map_err(|e| PackageError::Malformed(format!("{}: {e}", what())))?;
        let stored: Digest = self
            .take(DIGEST_LEN)?
            .try_into()
            .map_err(|_| PackageError::Malformed("short blob digest".into()))?;
        if sha256(&raw) != stored {
            return Err(PackageError::DigestMismatch(what()));
        }
        Ok(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::Version;

    /// The platforms with binaries in `pkg`.
    fn platforms(pkg: &Package) -> Vec<Platform> {
        pkg.sections.iter().map(|s| s.platform.clone()).collect()
    }

    fn sample_package() -> Package {
        let desc = ComponentDescriptor::new("MpegDecoder", Version::new(1, 0), "acme")
            .provides("video", "IDL:av/VideoOut:1.0")
            .uses("display", "IDL:cscw/Display:1.0");
        Package::new(desc)
            .with_idl(
                "av.idl",
                "module av { interface VideoOut { oneway void frame(in string px); }; };",
            )
            .with_binary(Platform::reference(), "mpeg_decoder", &[0xAAu8; 4096])
            .with_binary(Platform::pda(), "mpeg_decoder_arm", &[0xBBu8; 512])
            .with_binary(Platform::new("sparc", "solaris", "lc-orb"), "mpeg_decoder_sparc", b"tiny")
    }

    #[test]
    fn byte_round_trip() {
        let pkg = sample_package();
        let bytes = pkg.to_bytes();
        let back = Package::from_bytes(&bytes).unwrap();
        assert_eq!(pkg, back);
    }

    #[test]
    fn signed_round_trip_and_verify() {
        let key = SigningKey::new("acme", b"vendor-secret");
        let mut pkg = sample_package();
        pkg.seal(&key);
        let bytes = pkg.to_bytes();
        let back = Package::from_bytes(&bytes).unwrap();

        let mut store = TrustStore::new();
        store.trust(&key);
        assert_eq!(back.verify(&store), Verification::Trusted);

        // Tamper with the descriptor after signing.
        let mut tampered = back.clone();
        tampered.descriptor.vendor = "evil".into();
        assert_eq!(tampered.verify(&store), Verification::BadSignature);
    }

    #[test]
    fn corruption_detected() {
        let bytes = sample_package().to_bytes();
        // Flip one byte in the middle (inside some compressed blob).
        for &victim in &[10usize, bytes.len() / 2, bytes.len() - 40] {
            let mut bad = bytes.clone();
            bad[victim] ^= 0x40;
            assert!(
                Package::from_bytes(&bad).is_err(),
                "corruption at byte {victim} must be detected"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(Package::from_bytes(b"ZIPFILE!").unwrap_err(), PackageError::BadMagic);
        assert!(matches!(Package::from_bytes(b"ZIP"), Err(PackageError::Malformed(_))));
        assert!(matches!(
            Package::from_bytes(b"CLCP\x01"),
            Err(PackageError::Malformed(_))
        ));
    }

    #[test]
    fn partial_extraction_for_pda() {
        let pkg = sample_package();
        let full = pkg.to_bytes().len();
        let sub = pkg.extract_subset(&[Platform::pda()]);
        assert_eq!(sub.sections.len(), 1);
        assert_eq!(sub.sections[0].platform, Platform::pda());
        // metadata survives
        assert_eq!(sub.descriptor, pkg.descriptor);
        assert_eq!(sub.idl_sources, pkg.idl_sources);
        // and it is materially smaller on the wire
        let small = sub.to_bytes().len();
        assert!(small < full, "subset {small} should be smaller than full {full}");
        // subset still parses
        assert!(Package::from_bytes(&sub.to_bytes()).is_ok());
    }

    #[test]
    fn compression_effective_on_wire() {
        let pkg = sample_package();
        // payloads are highly repetitive (0xAA / 0xBB runs)
        assert!(pkg.to_bytes().len() < pkg.raw_size());
    }

    #[test]
    fn section_lookup() {
        let pkg = sample_package();
        assert_eq!(platforms(&pkg).len(), 3);
    }

    /// A valid descriptor followed by `n_idl = u32::MAX`: 259 bytes that
    /// once asked the allocator for 206 GB up front and aborted the
    /// process. A count read off the wire is now bounded by the bytes
    /// that remain, so this is a plain error.
    #[test]
    fn a_259_byte_package_claiming_u32_max_idl_files_is_an_error() {
        let mut w = Writer::new();
        w.bytes_raw(MAGIC);
        let desc = ComponentDescriptor::new("A", Version::new(1, 0), "v");
        w.blob(lc_xml::to_string(&desc.to_xml()).as_bytes());
        w.u32(u32::MAX);
        assert_eq!(w.out.len(), 259);
        assert!(matches!(Package::from_bytes(&w.out), Err(PackageError::Malformed(_))));
    }

    /// An LZSS stream declaring 4 GiB of output reserves only what its
    /// bytes could produce.
    #[test]
    fn a_declared_length_reserves_no_more_than_the_stream_can_produce() {
        let mut stream = u32::MAX.to_le_bytes().to_vec();
        stream.extend_from_slice(&[0xFF, b'x']);
        assert!(lzss::decompress(&stream).is_err());
    }

    #[test]
    fn unsigned_verify_is_unknown() {
        let store = TrustStore::new();
        assert_eq!(sample_package().verify(&store), Verification::UnknownSigner);
    }
}
