//! Record framing: every on-disk entry is
//!
//! ```text
//! magic "GTS1" (4) ‖ schema version u32 LE (4) ‖ payload len u64 LE (8)
//!   ‖ payload ‖ SHA-256(header ‖ payload) (32)
//! ```
//!
//! [`open`] verifies all four before handing back the payload, so a
//! torn write (kill -9 mid-`write(2)`), a flipped bit, or an entry from
//! an older schema all surface as a typed error — which the store turns
//! into a cache miss. The store writes and reads a record in pieces, so
//! framing and checks are split the same way: [`header`] and [`footer`]
//! frame a payload in place, [`payload_len`] checks a header against the
//! record's total length before anything else is read, and
//! [`check_footer`] checks the digest over header and payload.

use crate::DecodeError;
use gt_hash::sha256::Sha256;

/// File magic for gt-store records.
pub const MAGIC: [u8; 4] = *b"GTS1";

/// Version of both the codec wire format and the keyed content layout.
/// Bump on any change to either; it participates in every cache key, so
/// old entries are simply never looked up again. Version 2: stage
/// records carry the stage's metric sheet next to its output.
pub const SCHEMA_VERSION: u32 = 2;

pub(crate) const HEADER_LEN: usize = 4 + 4 + 8;
pub(crate) const FOOTER_LEN: usize = 32;

/// Frame a payload into a self-verifying record.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let header = header(payload.len());
    [&header, payload, &footer(&header, payload)].concat()
}

/// The header of a record whose payload is `payload_len` bytes long.
pub(crate) fn header(payload_len: usize) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4..8].copy_from_slice(&SCHEMA_VERSION.to_le_bytes());
    header[8..].copy_from_slice(&(payload_len as u64).to_le_bytes());
    header
}

/// The integrity footer of a record: the digest of its header and
/// payload, hashed in place.
pub(crate) fn footer(header: &[u8], payload: &[u8]) -> [u8; FOOTER_LEN] {
    let mut digest = Sha256::new();
    digest.update(header);
    digest.update(payload);
    digest.finalize()
}

/// Check a record's magic and version, and that the payload length its
/// header declares leaves exactly `record_len` bytes with header and
/// footer; return that payload length.
pub(crate) fn payload_len(
    header: &[u8; HEADER_LEN],
    record_len: u64,
) -> Result<usize, DecodeError> {
    if header[..4] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if version != SCHEMA_VERSION {
        return Err(DecodeError::BadVersion { found: version });
    }
    let mut len_bytes = [0u8; 8];
    len_bytes.copy_from_slice(&header[8..]);
    let payload_len = u64::from_le_bytes(len_bytes);
    if payload_len.checked_add((HEADER_LEN + FOOTER_LEN) as u64) != Some(record_len) {
        return Err(DecodeError::Truncated);
    }
    usize::try_from(payload_len).map_err(|_| DecodeError::Truncated)
}

/// Check a record's integrity footer against its header and payload,
/// hashed in place.
pub(crate) fn check_footer(
    header: &[u8],
    payload: &[u8],
    footer_bytes: &[u8],
) -> Result<(), DecodeError> {
    if footer(header, payload) == footer_bytes {
        Ok(())
    } else {
        Err(DecodeError::HashMismatch)
    }
}

/// Verify a record's magic, version, length, and integrity footer, and
/// return its payload.
pub fn open(record: &[u8]) -> Result<&[u8], DecodeError> {
    if record.len() < HEADER_LEN + FOOTER_LEN {
        return Err(DecodeError::Truncated);
    }
    let (header, rest) = record.split_at(HEADER_LEN);
    let header = header.try_into().expect("split at HEADER_LEN");
    let len = payload_len(header, record.len() as u64)?;
    let (payload, footer) = rest.split_at(len);
    check_footer(header, payload, footer)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let payload = b"hello, store";
        let record = seal(payload);
        assert_eq!(open(&record).unwrap(), payload);
    }

    #[test]
    fn empty_payload_round_trips() {
        let record = seal(b"");
        assert_eq!(open(&record).unwrap(), b"");
    }

    #[test]
    fn corruption_is_detected() {
        let mut record = seal(b"payload bytes");
        let mid = record.len() / 2;
        record[mid] ^= 0x01;
        assert!(matches!(
            open(&record),
            Err(DecodeError::HashMismatch) | Err(DecodeError::Truncated)
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let record = seal(b"payload bytes");
        for cut in 0..record.len() {
            assert!(open(&record[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut record = seal(b"x");
        record[0] = b'X';
        assert_eq!(open(&record), Err(DecodeError::BadMagic));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut record = seal(b"x");
        record[4] = 0xFF;
        assert!(matches!(
            open(&record),
            Err(DecodeError::BadVersion { found: _ })
        ));
    }
}
