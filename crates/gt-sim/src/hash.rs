//! A fast, deterministic hasher for in-process interning maps.
//!
//! `std`'s SipHash guards against adversarial keys; interning tables
//! keyed by generated or already-stored text need none of that, and at
//! one lookup per record SipHash costs about as much as the allocation
//! the table saves. [`FastHasher`] folds eight bytes at a time with one
//! rotate, xor and multiply (the scheme of rustc's `FxHasher`). It has
//! no random seed, so it is the same in every process; still, no map
//! built with it may be iterated into an output. Nor does it resist
//! keys crafted to collide: use it only for keys this program made
//! itself, such as generated lures or the snapshots it wrote.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

const K: u64 = 0x517c_c1b7_2722_0a95;

/// Multiply-rotate hasher over 8-byte words.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(
                word.try_into().expect("chunks of 8 bytes"),
            ));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            // At most 7 bytes: the eighth carries their count, so a
            // tail is not confused with its zero-padded longer twin.
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            last[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_alike_and_tails_count() {
        assert_eq!(hash_of("giveaway"), hash_of(&String::from("giveaway")));
        // Keys that differ only in a partial last word, or in length.
        assert_ne!(hash_of("abcdefgh1"), hash_of("abcdefgh2"));
        assert_ne!(hash_of(&["a", "b"][..]), hash_of(&["ab"][..]));
        assert_ne!(hash_of("a"), hash_of("a\0"));
    }

    #[test]
    fn a_map_interns_by_content() {
        let mut map: FastMap<&str, usize> = FastMap::default();
        for (i, text) in ["x", "y", "x", "z", "y"].into_iter().enumerate() {
            map.entry(text).or_insert(i);
        }
        assert_eq!((map["x"], map["y"], map["z"]), (0, 1, 3));
    }
}
