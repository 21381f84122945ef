//! XRP Ledger classic addresses.
//!
//! A classic address is Base58Check over the Ripple alphabet with a single
//! `0x00` version byte and a 20-byte account id; the leading zero encodes
//! as `r`, which is why every XRP account starts with it.

use crate::base58::{decode_check, encode_check, XRP_ALPHABET};
use gt_store::{StoreDecode, StoreEncode};
use serde::Serialize;
use std::fmt;

const ACCOUNT_ID_VERSION: u8 = 0x00;

/// A 20-byte XRP account id.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, StoreEncode, StoreDecode,
)]
pub struct XrpAddress(pub [u8; 20]);

impl XrpAddress {
    /// Parse a classic address string.
    pub fn parse(s: &str) -> Option<Self> {
        if !s.starts_with('r') || s.len() < 25 || s.len() > 35 {
            return None;
        }
        let payload = decode_check(s, XRP_ALPHABET)?;
        if payload.len() != 21 || payload[0] != ACCOUNT_ID_VERSION {
            return None;
        }
        let mut arr = [0u8; 20];
        arr.copy_from_slice(&payload[1..]);
        Some(XrpAddress(arr))
    }

    /// Encode as a classic address string.
    pub fn to_classic_string(&self) -> String {
        let mut payload = Vec::with_capacity(21);
        payload.push(ACCOUNT_ID_VERSION);
        payload.extend_from_slice(&self.0);
        encode_check(&payload, XRP_ALPHABET)
    }
}

impl fmt::Display for XrpAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_classic_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_addresses_parse() {
        // The XRPL "ACCOUNT_ZERO" and "ACCOUNT_ONE" special addresses.
        let zero = XrpAddress::parse("rrrrrrrrrrrrrrrrrrrrrhoLvTp").unwrap();
        assert_eq!(zero.0, [0u8; 20]);

        let one = XrpAddress::parse("rrrrrrrrrrrrrrrrrrrrBZbvji").unwrap();
        let mut expected = [0u8; 20];
        expected[19] = 1;
        assert_eq!(one.0, expected);

        // The genesis account.
        assert!(XrpAddress::parse("rHb9CJAWyB4rj91VRWn96DkukG4bwdtyTh").is_some());
    }

    #[test]
    fn round_trip() {
        let addr = XrpAddress([
            1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
        ]);
        let s = addr.to_classic_string();
        assert!(s.starts_with('r'), "classic addresses start with r: {s}");
        assert_eq!(XrpAddress::parse(&s).unwrap(), addr);
    }

    #[test]
    fn corrupted_checksum_rejected() {
        let addr = XrpAddress([7u8; 20]);
        let s = addr.to_classic_string();
        let mut chars: Vec<char> = s.chars().collect();
        let last = chars.len() - 1;
        chars[last] = if chars[last] == 'p' { 's' } else { 'p' };
        let corrupted: String = chars.into_iter().collect();
        assert!(XrpAddress::parse(&corrupted).is_none());
    }

    #[test]
    fn rejects_btc_style_strings() {
        assert!(XrpAddress::parse("1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa").is_none());
        assert!(XrpAddress::parse("0x5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAed").is_none());
        assert!(XrpAddress::parse("").is_none());
    }

    #[test]
    fn display_matches_classic_string() {
        let addr = XrpAddress([0xabu8; 20]);
        assert_eq!(addr.to_string(), addr.to_classic_string());
    }
}
