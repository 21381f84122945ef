//! QR decoding from a module matrix.

use crate::bits::BitReader;
use crate::format::decode_format;
use crate::gf::GF;
use crate::matrix::{format_positions_copy1, format_positions_copy2, Matrix};
use crate::rs;
use crate::tables::{block_spec, byte_count_bits, version_for_size};
use std::fmt;

/// Why decoding failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Matrix side length is not a supported symbol size.
    BadSize(usize),
    /// Neither copy of the format information decoded.
    BadFormat,
    /// Reed–Solomon failed on some block: too many codeword errors.
    Unrecoverable,
    /// The bit stream did not contain a well-formed byte-mode segment.
    BadPayload,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadSize(s) => write!(f, "{s} is not a supported symbol size"),
            DecodeError::BadFormat => write!(f, "format information unreadable"),
            DecodeError::Unrecoverable => write!(f, "error correction capacity exceeded"),
            DecodeError::BadPayload => write!(f, "malformed data segment"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decode a module matrix back into its byte payload, correcting
/// codeword errors where the EC budget allows.
pub fn decode(matrix: &Matrix) -> Result<Vec<u8>, DecodeError> {
    let size = matrix.size();
    let version = version_for_size(size).ok_or(DecodeError::BadSize(size))?;

    // Read the format info: try copy 1, fall back to copy 2.
    let read_word = |positions: &[(usize, usize)]| -> u16 {
        let mut word = 0u16;
        for &(r, c) in positions {
            word = (word << 1) | u16::from(matrix.get(r, c));
        }
        word
    };
    let (level, mask) = decode_format(read_word(&format_positions_copy1()))
        .or_else(|| decode_format(read_word(&format_positions_copy2(size))))
        .ok_or(DecodeError::BadFormat)?;

    // Unmask into a scratch copy and read the data modules.
    let mut work = matrix.clone();
    work.apply_mask(mask);
    let order = work.data_order();
    let spec = block_spec(version, level);
    let total_codewords = spec.total_codewords();

    let mut codewords = vec![0u8; total_codewords];
    for (i, &(r, c)) in order.iter().take(total_codewords * 8).enumerate() {
        if work.get(r, c) {
            codewords[i / 8] |= 1 << (7 - i % 8);
        }
    }

    // De-interleave into blocks.
    let blocks: Vec<(usize, usize)> = spec.blocks().collect();
    let mut data_blocks: Vec<Vec<u8>> =
        blocks.iter().map(|&(d, _)| Vec::with_capacity(d)).collect();
    let mut ec_blocks: Vec<Vec<u8>> = blocks.iter().map(|&(_, e)| Vec::with_capacity(e)).collect();

    let mut it = codewords.iter().copied();
    let max_data = blocks.iter().map(|&(d, _)| d).max().unwrap_or(0);
    for i in 0..max_data {
        for (bi, &(d, _)) in blocks.iter().enumerate() {
            if i < d {
                data_blocks[bi].push(it.next().expect("codeword count mismatch"));
            }
        }
    }
    let max_ec = blocks.iter().map(|&(_, e)| e).max().unwrap_or(0);
    for i in 0..max_ec {
        for (bi, &(_, e)) in blocks.iter().enumerate() {
            if i < e {
                ec_blocks[bi].push(it.next().expect("codeword count mismatch"));
            }
        }
    }

    // RS-correct each block and concatenate the data parts.
    let mut stream = Vec::with_capacity(spec.data_codewords());
    for (bi, &(d, e)) in blocks.iter().enumerate() {
        let mut codeword: Vec<u8> = data_blocks[bi]
            .iter()
            .chain(ec_blocks[bi].iter())
            .copied()
            .collect();
        rs::correct(&GF, &mut codeword, e).map_err(|_| DecodeError::Unrecoverable)?;
        stream.extend_from_slice(&codeword[..d]);
    }

    // Parse the byte-mode segment.
    let mut reader = BitReader::new(&stream);
    let mode = reader.read(4).ok_or(DecodeError::BadPayload)?;
    if mode != 0b0100 {
        return Err(DecodeError::BadPayload);
    }
    let count = reader
        .read(byte_count_bits(version))
        .ok_or(DecodeError::BadPayload)? as usize;
    let mut payload = Vec::with_capacity(count);
    for _ in 0..count {
        payload.push(reader.read(8).ok_or(DecodeError::BadPayload)? as u8);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode, encode_with_version};
    use crate::tables::{byte_capacity, EcLevel, MAX_VERSION};

    #[test]
    fn round_trip_all_versions_and_levels() {
        for version in 1..=MAX_VERSION {
            for level in EcLevel::ALL {
                let cap = byte_capacity(version, level);
                let payload: Vec<u8> = (0..cap).map(|i| b'a' + (i % 26) as u8).collect();
                let m = encode_with_version(&payload, level, version).unwrap();
                let decoded = decode(&m).unwrap_or_else(|e| panic!("v{version} {level:?}: {e}"));
                assert_eq!(decoded, payload, "v{version} {level:?}");
            }
        }
    }

    #[test]
    fn round_trip_urls() {
        for url in [
            "https://musk-gives.com",
            "https://xrp-2x-event.live/claim?id=abc123",
            "http://double-your-bitcoin.fund/r/QWERTY#top",
        ] {
            for level in EcLevel::ALL {
                let m = encode(url.as_bytes(), level).unwrap();
                assert_eq!(decode(&m).unwrap(), url.as_bytes(), "{url} at {level:?}");
            }
        }
    }

    #[test]
    fn binary_payload_round_trips() {
        let payload: Vec<u8> = (0..=255u8).take(40).collect();
        let m = encode(&payload, EcLevel::H).unwrap();
        assert_eq!(decode(&m).unwrap(), payload);
    }

    #[test]
    fn survives_module_damage_within_budget() {
        let url = b"https://eth-giveaway.org/x";
        let m = encode(url, EcLevel::H).unwrap();
        // Flip a handful of scattered data-area modules (~2% of symbol).
        let mut damaged = m.clone();
        let size = damaged.size();
        let mut flipped = 0;
        'outer: for r in (9..size - 9).step_by(4) {
            for c in (9..size - 9).step_by(5) {
                if !damaged.is_function(r, c) {
                    let v = damaged.get(r, c);
                    damaged.set(r, c, !v);
                    flipped += 1;
                    if flipped >= 8 {
                        break 'outer;
                    }
                }
            }
        }
        assert!(flipped >= 8);
        assert_eq!(decode(&damaged).unwrap(), url);
    }

    #[test]
    fn too_much_damage_is_an_error_not_garbage() {
        let url = b"https://eth-giveaway.org/x";
        let m = encode(url, EcLevel::L).unwrap();
        let mut damaged = m.clone();
        let size = damaged.size();
        // Carpet-bomb the data area.
        for r in 9..size - 9 {
            for c in 9..size - 9 {
                if !damaged.is_function(r, c) && (r + c) % 2 == 0 {
                    let v = damaged.get(r, c);
                    damaged.set(r, c, !v);
                }
            }
        }
        match decode(&damaged) {
            Err(DecodeError::Unrecoverable) | Err(DecodeError::BadPayload) => {}
            Ok(payload) => assert_eq!(payload, url, "if it decodes it must be right"),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn format_info_damage_tolerated() {
        let url = b"format-damage-test";
        let m = encode(url, EcLevel::M).unwrap();
        let mut damaged = m.clone();
        // Corrupt two bits of format copy 1; copy 2 (or BCH correction)
        // must still recover.
        let positions = crate::matrix::format_positions_copy1();
        for &(r, c) in positions.iter().take(2) {
            let v = damaged.get(r, c);
            damaged.set(r, c, !v);
        }
        assert_eq!(decode(&damaged).unwrap(), url);
    }

    #[test]
    fn bad_size_rejected() {
        let m = Matrix::from_modules(20, vec![false; 400]);
        assert!(m.is_none(), "20 is not a valid symbol size");
    }
}
