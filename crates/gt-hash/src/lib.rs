//! From-scratch hash primitives for the address codecs and the run store.
//!
//! The paper validates scam-page cryptocurrency addresses with
//! `coinaddrvalidator` / `multicoin-address-validator`. Faithful validation
//! needs the real checksum constructions:
//!
//! * Base58Check (BTC legacy, XRP): double SHA-256;
//! * EIP-55 mixed-case checksums (ETH): Keccak-256.
//!
//! SHA-256 also carries the run store (`gt-store`): it seals and
//! re-verifies every record written or read, world snapshots of tens of
//! megabytes included, and it derives the content keys of cached stages.
//! For that bulk work its compression function runs on the x86 SHA
//! extensions (SHA-NI) when a runtime CPU check finds them, and on the
//! portable implementation everywhere else; both give the same digests
//! and are pinned against each other by the tests.
//!
//! No cryptographic dependency is in the approved set, so the two
//! primitives are implemented here directly from their specifications and
//! pinned to published test vectors.

pub mod hex;
pub mod keccak;
pub mod sha256;

pub use keccak::keccak256;
pub use sha256::sha256;

/// Double SHA-256, the Base58Check checksum function.
pub fn sha256d(data: &[u8]) -> [u8; 32] {
    sha256(&sha256(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::to_hex;

    #[test]
    fn sha256d_empty() {
        assert_eq!(
            to_hex(&sha256d(b"")),
            "5df6e0e2761359d30a8275058e299fcc0381534545f55cf43e41983f5d4c9456"
        );
    }

    #[test]
    fn sha256d_hello() {
        assert_eq!(
            to_hex(&sha256d(b"hello")),
            "9595c9df90075148eb06860365df33584b75bff782a510c6cd4883a419833d50"
        );
    }
}
