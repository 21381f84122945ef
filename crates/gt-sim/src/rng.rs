//! Deterministic, labelled randomness fan-out.
//!
//! One master seed drives the whole world. Components derive child RNGs by
//! *label* (and optionally an index), so adding a new consumer never
//! perturbs the streams other components see — the property that keeps a
//! calibrated world stable while the codebase grows.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a 64-bit over a byte string. Used only for label mixing, never for
/// anything adversarial.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One round of splitmix64; a strong 64→64 bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives independent deterministic RNG streams from a master seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngFactory {
    master: u64,
}

impl RngFactory {
    pub fn new(master_seed: u64) -> Self {
        RngFactory {
            master: master_seed,
        }
    }

    /// The master seed this factory was built from.
    pub fn master_seed(&self) -> u64 {
        self.master
    }

    /// Derive the child seed for a label.
    pub fn child_seed(&self, label: &str) -> u64 {
        splitmix64(self.master ^ fnv1a(label.as_bytes()))
    }

    /// A deterministic RNG for a label.
    pub fn rng(&self, label: &str) -> StdRng {
        StdRng::seed_from_u64(self.child_seed(label))
    }

    /// A sub-factory scoped under a label, for components that fan out
    /// further (e.g. the world generator hands each campaign its own
    /// factory).
    pub fn scoped(&self, label: &str) -> RngFactory {
        RngFactory {
            master: self.child_seed(label),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_label_same_stream() {
        let f = RngFactory::new(42);
        let a: Vec<u64> = f
            .rng("tweets")
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        let b: Vec<u64> = f
            .rng("tweets")
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_differ() {
        let f = RngFactory::new(42);
        assert_ne!(f.child_seed("tweets"), f.child_seed("streams"));
        assert_ne!(f.child_seed("tweets"), f.child_seed("tweet"));
    }

    #[test]
    fn different_master_seeds_differ() {
        assert_ne!(
            RngFactory::new(1).child_seed("x"),
            RngFactory::new(2).child_seed("x")
        );
    }

    #[test]
    fn scoped_factory_is_stable() {
        let f = RngFactory::new(9).scoped("world").scoped("twitter");
        let g = RngFactory::new(9).scoped("world").scoped("twitter");
        assert_eq!(f.child_seed("volume"), g.child_seed("volume"));
    }

    #[test]
    fn seeds_are_well_spread() {
        // A crude avalanche check: child seeds across 1000 labels should
        // be unique (collision here would mean correlated campaigns).
        let f = RngFactory::new(123);
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            assert!(seen.insert(f.child_seed(&format!("c{i}"))));
        }
    }
}
