//! QR code encoder/decoder with Reed–Solomon error correction.
//!
//! Scam livestreams promote their landing pages with QR codes embedded in
//! the video; the paper's pipeline extracts them with opencv + pyzbar.
//! This crate is the from-scratch equivalent. Its only production caller
//! is `gt-social`'s per-platform overlay table, which encodes each
//! distinct overlay URL once and scans the frame painted with it once:
//!
//! * [`encode()`] renders byte-mode QR symbols, versions 1–10, all four EC
//!   levels, with standard masking; the mask with the lowest penalty is
//!   picked by scoring all eight on bit-packed rows and columns;
//! * [`decode()`] reads a module matrix back, correcting codeword errors
//!   via Berlekamp–Massey / Chien / Forney;
//! * [`frame`] locates an upright QR symbol inside a larger luma frame by
//!   finder-pattern run detection (the 1:1:3:1:1 signature), at any
//!   integer scale and offset — the "visual analysis of captured video
//!   frames" step of the paper's pipeline.
//!
//! Rotated/perspective-distorted symbols are out of scope: the simulated
//! streams render upright codes, as real scam streams do (static overlay
//! graphics).

pub mod bits;
pub mod decode;
pub mod encode;
pub mod format;
pub mod frame;
pub mod gf;
pub mod matrix;
pub mod rs;
pub mod tables;

pub use decode::{decode, DecodeError};
pub use encode::{encode, EncodeError};
pub use frame::{scan_frame, Frame, FrameHit};
pub use matrix::Matrix;
pub use tables::EcLevel;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip_smoke() {
        let url = "https://musk-gives.com/btc";
        let matrix = encode(url.as_bytes(), EcLevel::M).unwrap();
        let decoded = decode(&matrix).unwrap();
        assert_eq!(decoded, url.as_bytes());
    }
}
