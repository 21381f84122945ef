//! Cryptocurrency address *candidate* scanning.
//!
//! The paper "extracted addresses via a regular expression and then
//! validated the address". This module is the regular-expression half: it
//! finds syntactic candidates (base58 runs, bech32 runs, 0x-hex runs) with
//! their positions; `gt-addr` performs the checksum validation.

use serde::Serialize;

/// What kind of address syntax a candidate looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CandidateKind {
    /// Base58 run starting with `1` or `3` (BTC legacy P2PKH/P2SH).
    Base58Btc,
    /// `bc1...` bech32 run (BTC segwit).
    Bech32Btc,
    /// `0x` + 40 hex chars (ETH).
    HexEth,
    /// Base58 run starting with `r` in the Ripple alphabet (XRP).
    Base58Xrp,
}

/// A syntactic address candidate found in text.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct AddressCandidate {
    pub kind: CandidateKind,
    pub text: String,
    pub start: usize,
}

const BASE58_BTC: &str = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz";
const BASE58_XRP: &str = "rpshnaf39wBUDNEGHJKLM4PQRST7VWXYZ2bcdeCg65jkm8oFqi1tuvAxyz";
const BECH32_CHARSET: &str = "qpzry9x8gf2tvdw0s3jn54khce6mua7l";

fn in_alphabet(alphabet: &str, c: char) -> bool {
    alphabet.contains(c)
}

fn is_word_char(b: u8) -> bool {
    b.is_ascii_alphanumeric()
}

/// Scan `text` for address candidates of all kinds.
pub fn scan_address_candidates(text: &str) -> Vec<AddressCandidate> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        // Walk bytes, but only parse at character boundaries.
        if !text.is_char_boundary(i) {
            i += 1;
            continue;
        }
        // Candidates must start at a word boundary.
        if i > 0 && is_word_char(bytes[i - 1]) {
            i += 1;
            continue;
        }
        let c = bytes[i] as char;

        // ETH: 0x + exactly 40 hex digits.
        if c == '0' && i + 42 <= bytes.len() && bytes[i + 1] == b'x' {
            let run = &text[i + 2..];
            let hex_len = run.bytes().take_while(|b| b.is_ascii_hexdigit()).count();
            if hex_len == 40 && (i + 42 == bytes.len() || !is_word_char(bytes[i + 42])) {
                out.push(AddressCandidate {
                    kind: CandidateKind::HexEth,
                    text: text[i..i + 42].to_string(),
                    start: i,
                });
                i += 42;
                continue;
            }
        }

        // BTC bech32: "bc1" + 11..=87 charset chars.
        if (c == 'b' || c == 'B')
            && bytes.len() - i >= 14
            && bytes[i..i + 3].eq_ignore_ascii_case(b"bc1")
        {
            let run_len = text[i + 3..]
                .chars()
                .take_while(|&ch| {
                    in_alphabet(BECH32_CHARSET, ch.to_ascii_lowercase()) || ch.is_ascii_digit()
                })
                .count();
            let total = 3 + run_len;
            if (14..=90).contains(&total)
                && (i + total == bytes.len() || !is_word_char(bytes[i + total]))
            {
                out.push(AddressCandidate {
                    kind: CandidateKind::Bech32Btc,
                    text: text[i..i + total].to_string(),
                    start: i,
                });
                i += total;
                continue;
            }
        }

        // BTC legacy: '1' or '3' + 25..=34 base58 chars total.
        if c == '1' || c == '3' {
            let run_len = text[i..]
                .chars()
                .take_while(|&ch| in_alphabet(BASE58_BTC, ch))
                .count();
            if (25..=35).contains(&run_len)
                && (i + run_len == bytes.len() || !is_word_char(bytes[i + run_len]))
            {
                out.push(AddressCandidate {
                    kind: CandidateKind::Base58Btc,
                    text: text[i..i + run_len].to_string(),
                    start: i,
                });
                i += run_len;
                continue;
            }
        }

        // XRP: 'r' + 24..=34 ripple-base58 chars total.
        if c == 'r' {
            let run_len = text[i..]
                .chars()
                .take_while(|&ch| in_alphabet(BASE58_XRP, ch))
                .count();
            if (25..=35).contains(&run_len)
                && (i + run_len == bytes.len() || !is_word_char(bytes[i + run_len]))
            {
                out.push(AddressCandidate {
                    kind: CandidateKind::Base58Xrp,
                    text: text[i..i + run_len].to_string(),
                    start: i,
                });
                i += run_len;
                continue;
            }
        }

        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_eth_candidate() {
        let text = "Send to 0x52908400098527886E0F7030069857D2E4169EE7 now";
        let found = scan_address_candidates(text);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, CandidateKind::HexEth);
        assert_eq!(found[0].text.len(), 42);
        assert_eq!(found[0].start, 8);
    }

    #[test]
    fn rejects_eth_with_wrong_length() {
        // 39 hex chars
        let short = format!("0x{}", "a".repeat(39));
        assert!(scan_address_candidates(&short).is_empty());
        // 41 hex chars — run is too long, must not match
        let long = format!("0x{}", "a".repeat(41));
        assert!(scan_address_candidates(&long).is_empty());
    }

    #[test]
    fn finds_btc_legacy_candidate() {
        let text = "pay 1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa please";
        let found = scan_address_candidates(text);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, CandidateKind::Base58Btc);
        assert_eq!(found[0].text, "1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa");
    }

    #[test]
    fn finds_p2sh_candidate() {
        let text = "3J98t1WpEZ73CNmQviecrnyiWrnqRhWNLy";
        let found = scan_address_candidates(text);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, CandidateKind::Base58Btc);
    }

    #[test]
    fn finds_bech32_candidate() {
        let text = "bc1qw508d6qejxtdg4y5r3zarvary0c5xw7kv8f3t4";
        let found = scan_address_candidates(text);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, CandidateKind::Bech32Btc);
    }

    #[test]
    fn finds_xrp_candidate() {
        let text = "XRP: rN7n7otQDd6FczFgLdSqtcsAUxDkw6fzRH thanks";
        let found = scan_address_candidates(text);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, CandidateKind::Base58Xrp);
    }

    #[test]
    fn base58_rejects_forbidden_chars() {
        // 0, O, I, l are not in the BTC base58 alphabet — run breaks early.
        let text = "1A1zP1eP5QGefi2DMP0fTL5SLmv7DivfNa";
        assert!(scan_address_candidates(text).is_empty());
    }

    #[test]
    fn requires_word_boundaries() {
        let embedded = "x1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa";
        assert!(scan_address_candidates(embedded).is_empty());
    }

    #[test]
    fn multiple_candidates_mixed_kinds() {
        let text = format!(
            "btc 1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa eth 0x{} xrp rN7n7otQDd6FczFgLdSqtcsAUxDkw6fzRH",
            "ab".repeat(20)
        );
        let found = scan_address_candidates(&text);
        let kinds: Vec<CandidateKind> = found.iter().map(|c| c.kind).collect();
        assert_eq!(
            kinds,
            [
                CandidateKind::Base58Btc,
                CandidateKind::HexEth,
                CandidateKind::Base58Xrp
            ]
        );
    }

    #[test]
    fn plain_text_yields_nothing() {
        assert!(scan_address_candidates("hurry, participate in the giveaway now!").is_empty());
    }

    #[test]
    fn html_context_extraction() {
        let html = r#"<div class="addr">1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa</div>"#;
        let found = scan_address_candidates(html);
        assert_eq!(found.len(), 1);
    }
}
