//! Every seed builds a world, and each world's snapshot bytes are
//! pinned. Two scam domains can display the same address, and the
//! cash-out used to co-spend such an address with itself: seed 31 at
//! scale 0.05 and seed 3 at scale 0.1 are two such worlds. Scale 0.05
//! at the default seed `0x61be5ca1` is the world givebench pins as its
//! `setup_sha256`.

use givetake::store::{digest, digest_hex};
use givetake::world::{World, WorldConfig};

/// `(scale, seed, SHA-256 of World::snapshot)`.
const PINNED: [(f64, u64, &str); 9] = [
    (
        0.05,
        28,
        "83940983a4a18aac7e0afa0700fcc18567c7d9dc024ff20d32ffe121eeaacd28",
    ),
    (
        0.05,
        29,
        "014116a48c2429b117c7303d3d5d3516e5539d5ddcff500e8c7ad19fdd065cc9",
    ),
    (
        0.05,
        30,
        "0795894f5727ed81cb56666677fa3d4282cb9458f1a31e88814a9fcbb15ece1a",
    ),
    (
        0.05,
        31,
        "549e9d9fd208e510167d81ee717ef764f713ff34dc76095f99aa1f211b55c3bc",
    ),
    (
        0.05,
        32,
        "a611b1b96170bb449b914caa625aaf28ad9cc378d2e530aeb13fb4d2c9680a50",
    ),
    (
        0.05,
        33,
        "5c075a37408a8bb0893831e0c36ef640286fe8105d83d47bff9aac091e9bc18e",
    ),
    (
        0.05,
        34,
        "29cb45892c9488aecee0325ec4b0cc4906dfdc2c3b980489754ebddd4e83239f",
    ),
    (
        0.1,
        3,
        "a3abaa0f61e8da78f6c1922a48bc4f681b47f7c85c3fa5e58c72cedacafe0bc6",
    ),
    (
        0.05,
        0x61be_5ca1,
        "b15330e6f1254ec95b82fb778dcaae670fcebba1a13cf4e7f0199cf943e65b2a",
    ),
];

#[test]
fn worlds_with_shared_scam_addresses_generate() {
    let mut moved = Vec::new();
    for (scale, seed, pinned) in PINNED {
        let mut config = WorldConfig::scaled(scale);
        config.seed = seed;
        let world = World::generate(config);
        assert!(
            world.chains.total_tx_count() > 0,
            "scale {scale}, seed {seed}"
        );
        let sha = digest_hex(&digest(&world.snapshot()));
        if sha != pinned {
            moved.push(format!("(scale {scale}, seed {seed:#x}) = {sha}"));
        }
    }
    assert!(
        moved.is_empty(),
        "snapshot digests moved:\n{}",
        moved.join("\n")
    );
}
