//! Ethereum addresses with EIP-55 mixed-case checksums.

use gt_hash::hex::{from_hex, to_hex};
use gt_hash::keccak256;
use gt_store::{StoreDecode, StoreEncode};
use serde::Serialize;
use std::fmt;

/// A 20-byte Ethereum account address.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, StoreEncode, StoreDecode,
)]
pub struct EthAddress(pub [u8; 20]);

impl EthAddress {
    /// Parse `0x`-prefixed hex. Mixed-case input must satisfy EIP-55;
    /// all-lowercase and all-uppercase inputs are accepted without a
    /// checksum (as the original validators do).
    pub fn parse(s: &str) -> Option<Self> {
        let hex_part = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X"))?;
        if hex_part.len() != 40 {
            return None;
        }
        let bytes = from_hex(&hex_part.to_ascii_lowercase())?;
        let mut arr = [0u8; 20];
        arr.copy_from_slice(&bytes);
        let addr = EthAddress(arr);

        let has_upper = hex_part.bytes().any(|b| b.is_ascii_uppercase());
        let has_lower = hex_part.bytes().any(|b| b.is_ascii_lowercase());
        if has_upper && has_lower {
            // Mixed case: must match the EIP-55 checksum exactly.
            if addr.to_checksum_string()[2..] != *hex_part {
                return None;
            }
        }
        Some(addr)
    }

    /// The EIP-55 checksummed representation (`0x`-prefixed).
    pub fn to_checksum_string(&self) -> String {
        let lower = to_hex(&self.0);
        let digest = keccak256(lower.as_bytes());
        let mut out = String::with_capacity(42);
        out.push_str("0x");
        for (i, c) in lower.chars().enumerate() {
            let nibble = (digest[i / 2] >> (4 * (1 - i % 2))) & 0xf;
            if c.is_ascii_alphabetic() && nibble >= 8 {
                out.push(c.to_ascii_uppercase());
            } else {
                out.push(c);
            }
        }
        out
    }
}

impl fmt::Display for EthAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_checksum_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The four all-caps / all-lower fixtures plus the mixed examples
    // straight from the EIP-55 specification.
    const EIP55_FIXTURES: &[&str] = &[
        "0x52908400098527886E0F7030069857D2E4169EE7",
        "0x8617E340B3D01FA5F11F306F4090FD50E238070D",
        "0xde709f2102306220921060314715629080e2fb77",
        "0x27b1fdb04752bbc536007a920d24acb045561c26",
        "0x5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAed",
        "0xfB6916095ca1df60bB79Ce92cE3Ea74c37c5d359",
        "0xdbF03B407c01E7cD3CBea99509d93f8DDDC8C6FB",
        "0xD1220A0cf47c7B9Be7A2E6BA89F429762e7b9aDb",
    ];

    #[test]
    fn eip55_fixtures_round_trip() {
        for fixture in EIP55_FIXTURES {
            let addr =
                EthAddress::parse(fixture).unwrap_or_else(|| panic!("{fixture} should parse"));
            assert_eq!(addr.to_checksum_string(), *fixture, "checksum of {fixture}");
        }
    }

    #[test]
    fn wrong_mixed_case_rejected() {
        // Flip the case of one letter in a checksummed fixture.
        let bad = "0x5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAeD";
        assert!(EthAddress::parse(bad).is_none());
    }

    #[test]
    fn all_lowercase_accepted() {
        let addr = EthAddress::parse("0x5aaeb6053f3e94c9b9a09f33669435e7ef1beaed").unwrap();
        assert_eq!(
            addr.to_checksum_string(),
            "0x5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAed"
        );
    }

    #[test]
    fn all_uppercase_accepted() {
        assert!(EthAddress::parse("0x5AAEB6053F3E94C9B9A09F33669435E7EF1BEAED").is_some());
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(EthAddress::parse("5aaeb6053f3e94c9b9a09f33669435e7ef1beaed").is_none()); // no 0x
        assert!(EthAddress::parse("0x5aaeb6053f3e94c9b9a09f33669435e7ef1beae").is_none()); // 39
        assert!(EthAddress::parse("0x5aaeb6053f3e94c9b9a09f33669435e7ef1beaedd").is_none()); // 41
        assert!(EthAddress::parse("0xzz aeb6053f3e94c9b9a09f33669435e7ef1bea").is_none());
        assert!(EthAddress::parse("").is_none());
    }

    #[test]
    fn display_is_checksummed() {
        let addr = EthAddress::parse("0xfb6916095ca1df60bb79ce92ce3ea74c37c5d359").unwrap();
        assert_eq!(
            addr.to_string(),
            "0xfB6916095ca1df60bB79Ce92cE3Ea74c37c5d359"
        );
    }
}
