//! Component signing and verification.
//!
//! §2.1.1 of the paper: *"Security information: The installer must be sure
//! of who really made this component by verifying the component's
//! cryptographic signature, for example, from the component's writer Web
//! site."*
//!
//! Substitution (documented in DESIGN.md): with no public-key crate
//! sanctioned for offline use, signatures are HMAC-SHA256 tags under a
//! per-vendor secret, and the [`TrustStore`] plays the role of the set of
//! vendor keys an installer has fetched out-of-band ("from the component's
//! writer Web site"). The verify-before-install control flow — the part
//! the component model actually exercises — is identical to the
//! public-key version.

use crate::sha256::{sha256, Digest, Sha256};
use std::collections::BTreeMap;

/// HMAC-SHA256 (RFC 2104) over `msg` with `key`.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> Digest {
    const BLOCK: usize = 64;
    let mut k = [0u8; BLOCK];
    if key.len() > BLOCK {
        k[..32].copy_from_slice(&sha256(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; BLOCK];
    let mut opad = [0x5cu8; BLOCK];
    for i in 0..BLOCK {
        ipad[i] ^= k[i];
        opad[i] ^= k[i];
    }
    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(msg);
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// A detached signature over package bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Signature {
    /// Vendor identity that produced the tag.
    pub signer: String,
    /// HMAC-SHA256 tag.
    pub tag: Digest,
}

/// A vendor signing key (held by the component *producer*).
#[derive(Clone, Debug)]
pub struct SigningKey {
    /// Vendor identity embedded in signatures.
    pub signer: String,
    secret: Vec<u8>,
}

impl SigningKey {
    /// Create a key for `signer` from secret material.
    pub fn new(signer: &str, secret: &[u8]) -> Self {
        SigningKey { signer: signer.to_owned(), secret: secret.to_vec() }
    }

    /// Sign `bytes`.
    pub fn sign(&self, bytes: &[u8]) -> Signature {
        Signature { signer: self.signer.clone(), tag: hmac_sha256(&self.secret, bytes) }
    }
}

/// Verification outcome.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verification {
    /// Tag matches a trusted vendor key.
    Trusted,
    /// The signer is known but the tag does not match (tampered or forged).
    BadSignature,
    /// No key for this signer in the trust store.
    UnknownSigner,
}

/// The installer's set of trusted vendor keys.
#[derive(Clone, Debug, Default)]
pub struct TrustStore {
    keys: BTreeMap<String, Vec<u8>>,
}

impl TrustStore {
    /// Empty store (trusts nobody).
    pub fn new() -> Self {
        Self::default()
    }

    /// Trust `key`'s signer. The entry is built from the key it
    /// verifies: under HMAC the vendor's key and the installer's are one
    /// shared secret.
    pub fn trust(&mut self, key: &SigningKey) {
        self.keys.insert(key.signer.clone(), key.secret.clone());
    }

    /// Verify a signature over `bytes`.
    pub fn verify(&self, bytes: &[u8], sig: &Signature) -> Verification {
        match self.keys.get(&sig.signer) {
            None => Verification::UnknownSigner,
            Some(secret) => {
                let expect = hmac_sha256(secret, bytes);
                // Constant-time-ish comparison: accumulate differences.
                let diff = expect.iter().zip(sig.tag.iter()).fold(0u8, |d, (a, b)| d | (a ^ b));
                if diff == 0 {
                    Verification::Trusted
                } else {
                    Verification::BadSignature
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::tests::to_hex;

    #[test]
    fn rfc4231_test_case_2() {
        // Key "Jefe", data "what do ya want for nothing?".
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_long_key() {
        // Test case 6: 131-byte key forces the key-hash path.
        let key = [0xaau8; 131];
        let tag = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            to_hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn sign_verify_flow() {
        let key = SigningKey::new("acme", b"s3cret");
        let pkg = b"package bytes";
        let sig = key.sign(pkg);

        let mut store = TrustStore::new();
        assert_eq!(store.verify(pkg, &sig), Verification::UnknownSigner);

        store.trust(&key);
        assert_eq!(store.verify(pkg, &sig), Verification::Trusted);

        // Tampered content.
        assert_eq!(store.verify(b"evil bytes", &sig), Verification::BadSignature);

        // Wrong key on the installer side.
        let other = SigningKey::new("acme", b"different");
        store.trust(&other);
        assert_eq!(store.verify(pkg, &sig), Verification::BadSignature);
    }

    #[test]
    fn forged_signer_name_rejected() {
        let real = SigningKey::new("acme", b"real-secret");
        let forger = SigningKey::new("acme", b"guessed-secret");
        let pkg = b"package";
        let mut store = TrustStore::new();
        store.trust(&real);
        assert_eq!(store.verify(pkg, &real.sign(pkg)), Verification::Trusted);
        assert_eq!(store.verify(pkg, &forger.sign(pkg)), Verification::BadSignature);
    }
}
