//! Type-safe identifier newtypes and a monotonic mint.
//!
//! Each simulator mints its own identifier space (tweet ids, channel ids,
//! transaction ids, ...). Wrapping them in distinct newtypes prevents the
//! classic measurement-pipeline bug of joining a tweet id against a stream
//! id and silently getting garbage.

use serde::Serialize;
use std::marker::PhantomData;

/// Declare a `u64`-backed identifier newtype.
#[macro_export]
macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize)]
        pub struct $name(pub u64);

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

/// Hands out consecutive ids for one identifier type.
#[derive(Debug, Serialize)]
pub struct IdMint<T> {
    next: u64,
    #[serde(skip)]
    _marker: PhantomData<fn() -> T>,
}

impl<T: From<u64>> IdMint<T> {
    pub fn new() -> Self {
        IdMint {
            next: 0,
            _marker: PhantomData,
        }
    }

    /// Mint the next id.
    pub fn mint(&mut self) -> T {
        let id = self.next;
        self.next += 1;
        T::from(id)
    }

    /// Number of ids minted so far.
    pub fn count(&self) -> u64 {
        self.next
    }
}

impl<T: From<u64>> Default for IdMint<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    define_id!(TestId, "test-");

    impl From<u64> for TestId {
        fn from(v: u64) -> Self {
            TestId(v)
        }
    }

    #[test]
    fn mint_is_sequential() {
        let mut mint: IdMint<TestId> = IdMint::new();
        assert_eq!(mint.mint(), TestId(0));
        assert_eq!(mint.mint(), TestId(1));
        assert_eq!(mint.count(), 2);
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(TestId(17).to_string(), "test-17");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        assert!(TestId(1) < TestId(2));
        let set: HashSet<TestId> = [TestId(1), TestId(1), TestId(2)].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}
