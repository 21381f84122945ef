//! Format and version information BCH codes.
//!
//! Format info: 5 data bits (2 EC level + 3 mask) protected by BCH(15,5)
//! with generator 0x537, XOR-masked with 0x5412. Version info (v ≥ 7):
//! 6 data bits protected by BCH(18,6) with generator 0x1F25.

use crate::tables::EcLevel;

const FORMAT_GEN: u32 = 0x537;
const FORMAT_MASK: u16 = 0x5412;
const VERSION_GEN: u32 = 0x1f25;

/// Polynomial remainder of `value << (gen_degree)` by `gen` over GF(2).
fn bch_remainder(mut value: u32, gen: u32, total_bits: u32) -> u32 {
    let gen_degree = 31 - gen.leading_zeros();
    value <<= gen_degree;
    for i in (gen_degree..total_bits).rev() {
        if value & (1 << i) != 0 {
            value ^= gen << (i - gen_degree);
        }
    }
    value
}

/// The 15-bit format information for (level, mask), already XOR-masked.
pub fn encode_format(level: EcLevel, mask: u8) -> u16 {
    assert!(mask < 8);
    let data = (u32::from(level.format_bits()) << 3) | u32::from(mask);
    let rem = bch_remainder(data, FORMAT_GEN, 15);
    (((data << 10) | rem) as u16) ^ FORMAT_MASK
}

/// Decode a (possibly corrupted) 15-bit format word. Accepts up to 3 bit
/// errors by nearest-codeword search over the 32 valid words.
pub fn decode_format(raw: u16) -> Option<(EcLevel, u8)> {
    let mut best: Option<(u32, EcLevel, u8)> = None;
    for level in EcLevel::ALL {
        for mask in 0..8u8 {
            let valid = encode_format(level, mask);
            let distance = (valid ^ raw).count_ones();
            if best.is_none_or(|(d, _, _)| distance < d) {
                best = Some((distance, level, mask));
            }
        }
    }
    let (distance, level, mask) = best?;
    (distance <= 3).then_some((level, mask))
}

/// The 18-bit version information word for `version` (7..=40).
pub fn encode_version(version: u8) -> u32 {
    assert!((7..=40).contains(&version));
    let data = u32::from(version);
    let rem = bch_remainder(data, VERSION_GEN, 18);
    (data << 12) | rem
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_format_words() {
        // From the QR specification appendix: level M (00), mask 5 →
        // 0x40CE after masking... the canonical published example is
        // level L mask 4 → 0x76C4? Pin instead to the widely-cited
        // example: format data 00101 (M, mask 5) has sequence
        // 100000011001110.
        assert_eq!(encode_format(EcLevel::M, 5), 0b100_0000_1100_1110);
        // And the all-zero data case (M, mask 0) equals the XOR mask
        // itself because BCH(0) = 0.
        assert_eq!(encode_format(EcLevel::M, 0), FORMAT_MASK);
    }

    #[test]
    fn format_round_trips() {
        for level in EcLevel::ALL {
            for mask in 0..8u8 {
                let word = encode_format(level, mask);
                assert_eq!(decode_format(word), Some((level, mask)));
            }
        }
    }

    #[test]
    fn format_words_pairwise_distance() {
        // BCH(15,5) with the QR mask has minimum distance 7 — any two
        // valid words differ in at least 7 bits, so 3-bit correction is
        // unambiguous.
        let words: Vec<u16> = EcLevel::ALL
            .iter()
            .flat_map(|&l| (0..8u8).map(move |m| encode_format(l, m)))
            .collect();
        for i in 0..words.len() {
            for j in i + 1..words.len() {
                assert!(
                    (words[i] ^ words[j]).count_ones() >= 7,
                    "{i} vs {j}: distance too small"
                );
            }
        }
    }

    #[test]
    fn format_corrects_up_to_three_errors() {
        let word = encode_format(EcLevel::Q, 3);
        for bits in [vec![0usize], vec![14], vec![0, 7], vec![1, 8, 13]] {
            let mut corrupted = word;
            for b in bits {
                corrupted ^= 1 << b;
            }
            assert_eq!(decode_format(corrupted), Some((EcLevel::Q, 3)));
        }
    }

    #[test]
    fn format_rejects_heavy_corruption() {
        let word = encode_format(EcLevel::L, 0);
        let corrupted = word ^ 0b1111; // 4 bit errors
                                       // Must not return the original pair (may return None or another
                                       // codeword's pair at distance <= 3 — with d_min 7, 4 errors land
                                       // strictly between codewords, so None).
        assert_eq!(decode_format(corrupted), None);
    }

    #[test]
    fn known_version_words() {
        // Published example: version 7 → 0x07C94.
        assert_eq!(encode_version(7), 0x07c94);
        // Version 8 → 0x085BC.
        assert_eq!(encode_version(8), 0x085bc);
    }
}
