//! Unified address model across the three coins the paper analyses.

use crate::base58::{decode_check, encode_check, BTC_ALPHABET};
use crate::bech32;
use crate::eth::EthAddress;
use crate::xrp::XrpAddress;
use gt_store::{StoreDecode, StoreEncode};
use rand::Rng;
use serde::Serialize;
use std::fmt;

/// The cryptocurrencies whose payments the paper quantifies.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, StoreEncode, StoreDecode,
)]
pub enum Coin {
    Btc,
    Eth,
    Xrp,
}

impl Coin {
    pub const ALL: [Coin; 3] = [Coin::Btc, Coin::Eth, Coin::Xrp];

    /// Ticker symbol, lowercase.
    pub fn ticker(self) -> &'static str {
        match self {
            Coin::Btc => "btc",
            Coin::Eth => "eth",
            Coin::Xrp => "xrp",
        }
    }

    /// Human name, lowercase.
    pub fn name(self) -> &'static str {
        match self {
            Coin::Btc => "bitcoin",
            Coin::Eth => "ethereum",
            Coin::Xrp => "ripple",
        }
    }

    /// Number of base units per coin (satoshi, wei-scaled-to-gwei*, drops).
    ///
    /// *ETH amounts are tracked in gwei (1e9 per ETH) — full wei precision
    /// would overflow u64 for whale-sized transfers and adds nothing to
    /// revenue estimation.
    pub fn base_units_per_coin(self) -> u64 {
        match self {
            Coin::Btc => 100_000_000,
            Coin::Eth => 1_000_000_000,
            Coin::Xrp => 1_000_000,
        }
    }
}

impl fmt::Display for Coin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Coin::Btc => "BTC",
            Coin::Eth => "ETH",
            Coin::Xrp => "XRP",
        })
    }
}

/// A Bitcoin address in one of the three deployed formats.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, StoreEncode, StoreDecode,
)]
pub enum BtcAddress {
    /// Pay-to-pubkey-hash (`1...`).
    P2pkh([u8; 20]),
    /// Pay-to-script-hash (`3...`).
    P2sh([u8; 20]),
    /// Native segwit v0 pay-to-witness-pubkey-hash (`bc1q...`, 20 bytes).
    P2wpkh([u8; 20]),
}

const P2PKH_VERSION: u8 = 0x00;
const P2SH_VERSION: u8 = 0x05;

impl BtcAddress {
    pub fn parse(s: &str) -> Option<Self> {
        if s.to_ascii_lowercase().starts_with("bc1") {
            let (version, program) = bech32::decode_segwit("bc", s)?;
            if version == 0 && program.len() == 20 {
                let mut arr = [0u8; 20];
                arr.copy_from_slice(&program);
                return Some(BtcAddress::P2wpkh(arr));
            }
            return None;
        }
        let payload = decode_check(s, BTC_ALPHABET)?;
        if payload.len() != 21 {
            return None;
        }
        let mut arr = [0u8; 20];
        arr.copy_from_slice(&payload[1..]);
        match payload[0] {
            P2PKH_VERSION => Some(BtcAddress::P2pkh(arr)),
            P2SH_VERSION => Some(BtcAddress::P2sh(arr)),
            _ => None,
        }
    }

    pub fn encode(&self) -> String {
        match self {
            BtcAddress::P2pkh(h) => {
                let mut payload = vec![P2PKH_VERSION];
                payload.extend_from_slice(h);
                encode_check(&payload, BTC_ALPHABET)
            }
            BtcAddress::P2sh(h) => {
                let mut payload = vec![P2SH_VERSION];
                payload.extend_from_slice(h);
                encode_check(&payload, BTC_ALPHABET)
            }
            BtcAddress::P2wpkh(h) => {
                bech32::encode_segwit("bc", 0, h).expect("20-byte v0 program is always valid")
            }
        }
    }
}

impl fmt::Display for BtcAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

/// A validated address of any supported coin.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, StoreEncode, StoreDecode,
)]
pub enum Address {
    Btc(BtcAddress),
    Eth(EthAddress),
    Xrp(XrpAddress),
}

/// Why a candidate failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressError {
    pub candidate: String,
}

impl fmt::Display for AddressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "not a valid BTC/ETH/XRP address: {:?}", self.candidate)
    }
}

impl std::error::Error for AddressError {}

impl Address {
    /// Parse a candidate as any supported address type.
    pub fn parse(s: &str) -> Result<Self, AddressError> {
        // Dispatch cheaply on the prefix; each branch still fully
        // validates checksums.
        if s.starts_with("0x") || s.starts_with("0X") {
            if let Some(a) = EthAddress::parse(s) {
                return Ok(Address::Eth(a));
            }
        } else if s.to_ascii_lowercase().starts_with("bc1")
            || s.starts_with('1')
            || s.starts_with('3')
        {
            if let Some(a) = BtcAddress::parse(s) {
                return Ok(Address::Btc(a));
            }
        }
        // XRP last: its alphabet overlaps base58 and all accounts start
        // with 'r', which neither BTC nor ETH use.
        if s.starts_with('r') {
            if let Some(a) = XrpAddress::parse(s) {
                return Ok(Address::Xrp(a));
            }
        }
        Err(AddressError {
            candidate: s.to_string(),
        })
    }

    /// Which coin this address belongs to.
    pub fn coin(&self) -> Coin {
        match self {
            Address::Btc(_) => Coin::Btc,
            Address::Eth(_) => Coin::Eth,
            Address::Xrp(_) => Coin::Xrp,
        }
    }

    /// Canonical string form (checksummed where applicable).
    pub fn encode(&self) -> String {
        match self {
            Address::Btc(a) => a.encode(),
            Address::Eth(a) => a.to_checksum_string(),
            Address::Xrp(a) => a.to_classic_string(),
        }
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

/// Deterministically mints fresh, well-formed addresses for the world
/// generator (hashes are random; no private keys exist or are needed).
#[derive(Debug)]
pub struct AddressGenerator<R: Rng> {
    rng: R,
}

impl<R: Rng> AddressGenerator<R> {
    pub fn new(rng: R) -> Self {
        AddressGenerator { rng }
    }

    fn random20(&mut self) -> [u8; 20] {
        let mut h = [0u8; 20];
        self.rng.fill(&mut h);
        h
    }

    /// A fresh address for `coin`. BTC addresses are drawn across the
    /// three formats with the rough mainnet mix (P2PKH-heavy, as scam
    /// pages in the corpus were).
    pub fn generate(&mut self, coin: Coin) -> Address {
        match coin {
            Coin::Btc => {
                let h = self.random20();
                let roll: f64 = self.rng.gen();
                Address::Btc(if roll < 0.55 {
                    BtcAddress::P2pkh(h)
                } else if roll < 0.75 {
                    BtcAddress::P2sh(h)
                } else {
                    BtcAddress::P2wpkh(h)
                })
            }
            Coin::Eth => Address::Eth(EthAddress(self.random20())),
            Coin::Xrp => Address::Xrp(XrpAddress(self.random20())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn btc_known_addresses() {
        // The genesis block coinbase address.
        let a = BtcAddress::parse("1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa").unwrap();
        assert!(matches!(a, BtcAddress::P2pkh(_)));
        assert_eq!(a.encode(), "1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa");

        let a = BtcAddress::parse("3J98t1WpEZ73CNmQviecrnyiWrnqRhWNLy").unwrap();
        assert!(matches!(a, BtcAddress::P2sh(_)));

        let a = BtcAddress::parse("bc1qw508d6qejxtdg4y5r3zarvary0c5xw7kv8f3t4").unwrap();
        assert!(matches!(a, BtcAddress::P2wpkh(_)));
    }

    #[test]
    fn btc_rejects_corruption() {
        assert!(BtcAddress::parse("1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNb").is_none());
        assert!(BtcAddress::parse("bc1qw508d6qejxtdg4y5r3zarvary0c5xw7kv8f3t5").is_none());
    }

    #[test]
    fn address_parse_dispatches() {
        assert_eq!(
            Address::parse("1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa")
                .unwrap()
                .coin(),
            Coin::Btc
        );
        assert_eq!(
            Address::parse("0x5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAed")
                .unwrap()
                .coin(),
            Coin::Eth
        );
        assert_eq!(
            Address::parse("rHb9CJAWyB4rj91VRWn96DkukG4bwdtyTh")
                .unwrap()
                .coin(),
            Coin::Xrp
        );
        let err = Address::parse("garbage").unwrap_err();
        assert!(err.to_string().contains("garbage"));
    }

    #[test]
    fn generated_addresses_always_validate() {
        let mut gen = AddressGenerator::new(StdRng::seed_from_u64(99));
        for coin in Coin::ALL {
            for _ in 0..200 {
                let addr = gen.generate(coin);
                assert_eq!(addr.coin(), coin);
                let s = addr.encode();
                let parsed = Address::parse(&s)
                    .unwrap_or_else(|_| panic!("generated address failed validation: {s}"));
                assert_eq!(parsed, addr, "round trip mismatch for {s}");
            }
        }
    }

    #[test]
    fn generated_btc_covers_all_formats() {
        let mut gen = AddressGenerator::new(StdRng::seed_from_u64(3));
        let mut p2pkh = 0;
        let mut p2sh = 0;
        let mut segwit = 0;
        for _ in 0..300 {
            match gen.generate(Coin::Btc) {
                Address::Btc(BtcAddress::P2pkh(_)) => p2pkh += 1,
                Address::Btc(BtcAddress::P2sh(_)) => p2sh += 1,
                Address::Btc(BtcAddress::P2wpkh(_)) => segwit += 1,
                _ => unreachable!(),
            }
        }
        assert!(p2pkh > 0 && p2sh > 0 && segwit > 0);
        assert!(p2pkh > p2sh, "P2PKH should dominate the mix");
    }

    #[test]
    fn coin_metadata() {
        assert_eq!(Coin::Btc.ticker(), "btc");
        assert_eq!(Coin::Eth.name(), "ethereum");
        assert_eq!(Coin::Xrp.base_units_per_coin(), 1_000_000);
        assert_eq!(Coin::Btc.to_string(), "BTC");
    }

    #[test]
    fn display_equals_encode() {
        let mut gen = AddressGenerator::new(StdRng::seed_from_u64(5));
        for coin in Coin::ALL {
            let a = gen.generate(coin);
            assert_eq!(a.to_string(), a.encode());
        }
    }
}
