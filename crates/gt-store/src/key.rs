//! Content-address derivation.
//!
//! Cache keys are SHA-256 digests over length-prefixed fields, so
//! `("ab", "c")` and `("a", "bc")` never collide. Every builder is
//! domain-separated and versioned: bumping [`SCHEMA_VERSION`] retires
//! every previously written key at once.

use crate::record::SCHEMA_VERSION;
use crate::StoreEncode;
use gt_hash::sha256::Sha256;

/// A SHA-256 content address.
pub type Digest = [u8; 32];

/// SHA-256 of a byte string.
pub fn digest(bytes: &[u8]) -> Digest {
    gt_hash::sha256(bytes)
}

/// Lowercase hex of a digest (64 chars), used for on-disk names.
pub fn digest_hex(d: &Digest) -> String {
    gt_hash::hex::to_hex(d)
}

/// Incremental, collision-resistant key derivation.
pub struct KeyBuilder {
    hasher: Sha256,
}

impl KeyBuilder {
    /// Start a key in the given domain (e.g. `"stage"`, `"base"`,
    /// `"world"`). The domain and the schema version are mixed in
    /// first, so keys from different domains or schema generations
    /// never collide.
    pub fn new(domain: &str) -> Self {
        let mut hasher = Sha256::new();
        hasher.update(b"gt-store\x00");
        hasher.update(&SCHEMA_VERSION.to_le_bytes());
        let mut kb = KeyBuilder { hasher };
        kb.push_bytes(domain.as_bytes());
        kb
    }

    /// Mix in a length-prefixed byte field.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.hasher.update(&(bytes.len() as u64).to_le_bytes());
        self.hasher.update(bytes);
    }

    pub fn push_str(&mut self, s: &str) {
        self.push_bytes(s.as_bytes());
    }

    pub fn push_digest(&mut self, d: &Digest) {
        self.push_bytes(d);
    }

    /// Mix in a value through its canonical `StoreEncode` bytes — the
    /// uniform way to fingerprint configuration.
    pub fn push_encoded<T: StoreEncode + ?Sized>(&mut self, value: &T) {
        self.push_bytes(&crate::encode_to_vec(value));
    }

    pub fn finish(self) -> Digest {
        self.hasher.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_boundaries_matter() {
        let mut a = KeyBuilder::new("t");
        a.push_str("ab");
        a.push_str("c");
        let mut b = KeyBuilder::new("t");
        b.push_str("a");
        b.push_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn domains_are_separated() {
        let mut a = KeyBuilder::new("stage");
        a.push_str("x");
        let mut b = KeyBuilder::new("world");
        b.push_str("x");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn derivation_is_reproducible() {
        let build = || {
            let mut kb = KeyBuilder::new("stage");
            kb.push_digest(&[7u8; 32]);
            kb.push_str("chain_analysis");
            kb.finish()
        };
        assert_eq!(build(), build());
    }
}
