//! QR encoding: byte mode, versions 1–10.

use crate::bits::BitWriter;
use crate::format::encode_format;
use crate::gf::GF;
use crate::matrix::{format_positions_copy1, format_positions_copy2, Matrix};
use crate::rs;
use crate::tables::{block_spec, byte_count_bits, remainder_bits, smallest_version, EcLevel};
use std::fmt;

/// Why encoding failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// Payload exceeds the capacity of version 10 at the requested level.
    TooLong { len: usize, max: usize },
    /// Empty payloads are not representable usefully.
    Empty,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::TooLong { len, max } => {
                write!(f, "payload of {len} bytes exceeds the {max}-byte capacity")
            }
            EncodeError::Empty => write!(f, "payload is empty"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Encode `data` at EC level `level`, choosing the smallest version that
/// fits and the mask with the lowest penalty.
pub fn encode(data: &[u8], level: EcLevel) -> Result<Matrix, EncodeError> {
    if data.is_empty() {
        return Err(EncodeError::Empty);
    }
    let version = smallest_version(data.len(), level).ok_or(EncodeError::TooLong {
        len: data.len(),
        max: crate::tables::byte_capacity(crate::tables::MAX_VERSION, level),
    })?;
    encode_with_version(data, level, version)
}

/// Encode at a specific version (must fit).
pub fn encode_with_version(
    data: &[u8],
    level: EcLevel,
    version: u8,
) -> Result<Matrix, EncodeError> {
    if data.is_empty() {
        return Err(EncodeError::Empty);
    }
    let capacity = crate::tables::byte_capacity(version, level);
    if data.len() > capacity {
        return Err(EncodeError::TooLong {
            len: data.len(),
            max: capacity,
        });
    }

    let codewords = build_codewords(data, level, version);

    // Place the interleaved codewords plus remainder bits.
    let mut matrix = Matrix::for_version(version);
    let order = matrix.data_order();
    let total_bits = codewords.len() * 8 + remainder_bits(version);
    debug_assert_eq!(order.len(), total_bits);
    for (i, &(r, c)) in order.iter().enumerate() {
        let bit = if i < codewords.len() * 8 {
            (codewords[i / 8] >> (7 - i % 8)) & 1 == 1
        } else {
            false // remainder bits
        };
        matrix.set(r, c, bit);
    }

    // Pick the mask with the lowest penalty, scored on packed rows; the
    // lowest mask wins a tie.
    let packed = matrix.packed();
    let mut best_mask = 0u8;
    let mut best_penalty = u32::MAX;
    for mask in 0..8u8 {
        let p = packed.penalty(mask, encode_format(level, mask));
        if p < best_penalty {
            best_penalty = p;
            best_mask = mask;
        }
    }
    matrix.apply_mask(best_mask);
    write_format_info(&mut matrix, level, best_mask);
    if version >= 7 {
        write_version_info(&mut matrix, version);
    }
    Ok(matrix)
}

/// Build the final interleaved codeword sequence (data + EC).
fn build_codewords(data: &[u8], level: EcLevel, version: u8) -> Vec<u8> {
    let spec = block_spec(version, level);
    let data_capacity = spec.data_codewords();

    // Bit stream: mode indicator, count, payload, terminator, pad bytes.
    let mut bits = BitWriter::new();
    bits.push(0b0100, 4); // byte mode
    bits.push(data.len() as u32, byte_count_bits(version));
    for &b in data {
        bits.push_byte(b);
    }
    let terminator = (data_capacity * 8 - bits.len()).min(4);
    bits.push(0, terminator);
    // Pad to a byte boundary.
    let partial = bits.len() % 8;
    if partial != 0 {
        bits.push(0, 8 - partial);
    }
    let mut stream = bits.to_bytes();
    // Alternating pad codewords.
    let pads = [0xec, 0x11];
    let mut pad_idx = 0;
    while stream.len() < data_capacity {
        stream.push(pads[pad_idx]);
        pad_idx ^= 1;
    }

    // Split into blocks and compute EC per block.
    let mut data_blocks: Vec<Vec<u8>> = Vec::new();
    let mut ec_blocks: Vec<Vec<u8>> = Vec::new();
    let mut offset = 0usize;
    for (data_len, ec_len) in spec.blocks() {
        let block = stream[offset..offset + data_len].to_vec();
        offset += data_len;
        ec_blocks.push(rs::encode(&GF, &block, ec_len));
        data_blocks.push(block);
    }
    debug_assert_eq!(offset, stream.len());

    // Interleave data, then EC, column-wise.
    let mut out = Vec::with_capacity(spec.total_codewords());
    let max_data = data_blocks.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..max_data {
        for block in &data_blocks {
            if let Some(&b) = block.get(i) {
                out.push(b);
            }
        }
    }
    let max_ec = ec_blocks.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..max_ec {
        for block in &ec_blocks {
            if let Some(&b) = block.get(i) {
                out.push(b);
            }
        }
    }
    out
}

fn write_format_info(matrix: &mut Matrix, level: EcLevel, mask: u8) {
    let word = encode_format(level, mask);
    let p1 = format_positions_copy1();
    let p2 = format_positions_copy2(matrix.size());
    for i in 0..15 {
        // Index 0 is the MSB.
        let bit = (word >> (14 - i)) & 1 == 1;
        let (r, c) = p1[i];
        matrix.set(r, c, bit);
        let (r, c) = p2[i];
        matrix.set(r, c, bit);
    }
}

fn write_version_info(matrix: &mut Matrix, version: u8) {
    let word = crate::format::encode_version(version);
    let size = matrix.size();
    for i in 0..18 {
        let bit = (word >> i) & 1 == 1;
        let a = i / 3;
        let b = size - 11 + i % 3;
        matrix.set(a, b, bit);
        matrix.set(b, a, bit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::{symbol_size, MAX_VERSION};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The scalar reference: apply `mask` to a copy, write the format
    /// bits and score it module by module.
    fn scalar_penalty(matrix: &Matrix, level: EcLevel, mask: u8) -> u32 {
        let mut m = matrix.clone();
        m.apply_mask(mask);
        write_format_info(&mut m, level, mask);
        m.penalty()
    }

    fn check_every_mask(matrix: &Matrix, level: EcLevel) -> Result<(), String> {
        let packed = matrix.packed();
        for mask in 0..8u8 {
            let (fast, slow) = (
                packed.penalty(mask, encode_format(level, mask)),
                scalar_penalty(matrix, level, mask),
            );
            if fast != slow {
                return Err(format!("mask {mask}: packed {fast}, scalar {slow}"));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn packed_penalty_matches_the_scalar_one(
            version in 1..=MAX_VERSION,
            level in 0..4usize,
            dark_eighths in 0..=8u32,
            seed in any::<u64>(),
        ) {
            // Data modules dark with probability `dark_eighths / 8`.
            let mut matrix = Matrix::for_version(version);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for (r, c) in matrix.data_order() {
                matrix.set(r, c, rng.gen_range(0..8) < dark_eighths);
            }
            let checked = check_every_mask(&matrix, EcLevel::ALL[level]);
            prop_assert!(checked.is_ok(), "v{version}: {}", checked.unwrap_err());
        }
    }

    #[test]
    fn packed_penalty_matches_the_scalar_one_on_uniform_matrices() {
        for version in 1..=MAX_VERSION {
            let level = EcLevel::ALL[version as usize % 4];
            for dark in [false, true] {
                // Uniform data around the function patterns, then every
                // module uniform, the patterns too.
                let mut matrix = Matrix::for_version(version);
                for (r, c) in matrix.data_order() {
                    matrix.set(r, c, dark);
                }
                check_every_mask(&matrix, level).unwrap_or_else(|e| panic!("v{version}: {e}"));
                let size = matrix.size();
                for i in 0..size * size {
                    matrix.set(i / size, i % size, dark);
                }
                check_every_mask(&matrix, level).unwrap_or_else(|e| panic!("v{version}: {e}"));
            }
        }
    }

    #[test]
    fn chooses_smallest_version() {
        let m = encode(b"short", EcLevel::L).unwrap();
        assert_eq!(m.size(), symbol_size(1));
        let m = encode(&[0u8; 100], EcLevel::L).unwrap();
        assert_eq!(m.size(), symbol_size(5));
    }

    #[test]
    fn rejects_empty_and_oversized() {
        assert_eq!(encode(b"", EcLevel::L), Err(EncodeError::Empty));
        let huge = vec![0u8; 5000];
        assert!(matches!(
            encode(&huge, EcLevel::L),
            Err(EncodeError::TooLong { .. })
        ));
        assert!(matches!(
            encode_with_version(&[0u8; 20], EcLevel::L, 1),
            Err(EncodeError::TooLong { .. })
        ));
    }

    #[test]
    fn dark_fraction_is_balanced() {
        // Masking should keep the symbol roughly half dark.
        let m = encode(b"https://elon-2x.com/claim?id=12345", EcLevel::M).unwrap();
        let frac = m.dark_fraction();
        assert!((0.35..0.65).contains(&frac), "dark fraction {frac}");
    }

    #[test]
    fn deterministic() {
        let a = encode(b"determinism", EcLevel::Q).unwrap();
        let b = encode(b"determinism", EcLevel::Q).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_payloads_different_symbols() {
        let a = encode(b"https://scam-a.com", EcLevel::M).unwrap();
        let b = encode(b"https://scam-b.com", EcLevel::M).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn every_version_and_level_encodes() {
        for version in 1..=crate::tables::MAX_VERSION {
            for level in EcLevel::ALL {
                let cap = crate::tables::byte_capacity(version, level);
                let payload: Vec<u8> = (0..cap as u32).map(|i| (i % 251) as u8).collect();
                let m = encode_with_version(&payload, level, version)
                    .unwrap_or_else(|e| panic!("v{version} {level:?}: {e}"));
                assert_eq!(m.size(), symbol_size(version));
            }
        }
    }
}
