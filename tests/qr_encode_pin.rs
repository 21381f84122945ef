//! The QR encoder's output, pinned module for module.
//!
//! Any mask decodes to the same payload, so the world, report and
//! benchmark pins cannot see a change of the mask `encode` picks, nor of
//! where it puts a module. This test digests the symbols themselves:
//!
//! * `encode_with_version` over versions 1–10 × all four EC levels × a
//!   seeded payload set (lengths from 1 byte to the version's capacity);
//! * `encode(url, EcLevel::M)`, as the overlay tables call it, for every
//!   overlay URL of the scale-0.05 world, on YouTube and on Twitch.
//!
//! Each symbol enters the digest as its size, then its modules packed
//! eight to a byte in row-major order.

use givetake::qr::tables::{byte_capacity, MAX_VERSION};
use givetake::qr::{encode, encode::encode_with_version, EcLevel, Matrix};
use givetake::social::{StreamVideo, TwitchStreamId};
use givetake::store::{digest, digest_hex};
use givetake::world::{World, WorldConfig};
use std::collections::BTreeSet;

const SEEDED_SHA256: &str = "5f65c0484df8674e705170751fc6272e6a6c3abdb215e4d42759091f5d940323";
const OVERLAYS_SHA256: &str = "f7ea4d97288364a0fd8cebce9d95eac71c39cb3a62cf202700f2d932fd1f2f52";

/// Payloads per version and level.
const PAYLOADS: usize = 6;

/// SplitMix64: a fixed, dependency-free stream of payload bytes.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn push_symbol(out: &mut Vec<u8>, m: &Matrix) {
    let size = m.size();
    out.push(size as u8);
    let mut byte = 0u8;
    for i in 0..size * size {
        byte = byte << 1 | m.get(i / size, i % size) as u8;
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    out.push(byte);
}

#[test]
fn seeded_symbols_of_every_version_and_level_are_pinned() {
    let mut rng = SplitMix(0x61be_5ca1);
    let mut bytes = Vec::new();
    let mut symbols = 0;
    for version in 1..=MAX_VERSION {
        for level in EcLevel::ALL {
            let cap = byte_capacity(version, level);
            for i in 0..PAYLOADS {
                let len = match i {
                    0 => 1,
                    1 => cap,
                    _ => 1 + (rng.next() % cap as u64) as usize,
                };
                let payload: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
                let m = encode_with_version(&payload, level, version).unwrap();
                push_symbol(&mut bytes, &m);
                symbols += 1;
            }
        }
    }
    assert_eq!(symbols, 10 * 4 * PAYLOADS);
    assert_eq!(digest_hex(&digest(&bytes)), SEEDED_SHA256);
}

#[test]
fn overlay_symbols_of_the_scale_005_world_are_pinned() {
    let world = World::generate(WorldConfig::scaled(0.05));
    let tw = &world.twitch;
    let urls: BTreeSet<&str> = world
        .youtube
        .streams()
        .iter()
        .map(|s| &s.video)
        .chain((0..tw.stream_count() as u64).map(|id| &tw.stream(TwitchStreamId(id)).video))
        .filter_map(|video| match video {
            StreamVideo::ScamLoop { qr_url, .. } => Some(qr_url.as_str()),
            StreamVideo::Benign => None,
        })
        .collect();
    assert!(urls.len() > 10, "{} overlay URLs", urls.len());
    let mut bytes = Vec::new();
    for url in &urls {
        bytes.extend_from_slice(url.as_bytes());
        push_symbol(&mut bytes, &encode(url.as_bytes(), EcLevel::M).unwrap());
    }
    assert_eq!(digest_hex(&digest(&bytes)), OVERLAYS_SHA256);
}
