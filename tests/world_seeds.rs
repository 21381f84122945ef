//! Every seed builds a world. Two scam domains can display the same
//! address, and the cash-out used to co-spend such an address with
//! itself: seed 31 at scale 0.05 and seed 3 at scale 0.1 are two such
//! worlds.

use givetake::world::{World, WorldConfig};

#[test]
fn worlds_with_shared_scam_addresses_generate() {
    let cases = (28..=34).map(|seed| (0.05, seed)).chain([(0.1, 3)]);
    for (scale, seed) in cases {
        let mut config = WorldConfig::scaled(scale);
        config.seed = seed;
        let world = World::generate(config);
        assert!(
            world.chains.total_tx_count() > 0,
            "scale {scale}, seed {seed}"
        );
    }
}
