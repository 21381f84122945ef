//! Category tagging of addresses and clusters.
//!
//! Chainalysis annotates clusters with the *category* of their real-world
//! operator, learned by transacting with known services. Our substitute
//! is seeded directly by the world generator: when it creates a service
//! entity (an exchange, a mixer, ...), it registers the entity's
//! addresses here. Lookups propagate through BTC clusters the same way
//! the real tool's do — tagging one address of an exchange tags the whole
//! multi-input cluster.

use crate::view::{ClusterId, ClusterView};
use gt_addr::Address;
use gt_store::{StoreDecode, StoreEncode};
use serde::Serialize;
use std::collections::HashMap;
use std::fmt;

/// Operator categories, matching the vocabulary of the paper's analysis
/// (Sections 5.4–5.5).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, StoreEncode, StoreDecode,
)]
pub enum Category {
    /// Centralized exchange (the dominant victim payment origin).
    Exchange,
    /// Mixing service.
    Mixing,
    /// Token smart contract.
    TokenSmartContract,
    /// Known scam operation.
    Scam,
    /// OFAC-style sanctioned entity.
    SanctionedEntity,
    /// Gambling service.
    Gambling,
    /// Merchant payment processor.
    Merchant,
    /// Decentralized-finance protocol.
    Defi,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Category::Exchange => "exchange",
            Category::Mixing => "mixing",
            Category::TokenSmartContract => "token smart contract",
            Category::Scam => "scam",
            Category::SanctionedEntity => "sanctioned entity",
            Category::Gambling => "gambling",
            Category::Merchant => "merchant",
            Category::Defi => "defi",
        })
    }
}

/// Address → category registry with cluster propagation.
#[derive(Debug, Default, StoreEncode, StoreDecode)]
pub struct TagService {
    direct: HashMap<Address, Category>,
}

impl TagService {
    pub fn new() -> Self {
        TagService::default()
    }

    /// Register a known service address.
    pub fn tag(&mut self, address: Address, category: Category) {
        self.direct.insert(address, category);
    }

    /// Direct lookup, no cluster propagation.
    pub fn category_direct(&self, address: Address) -> Option<Category> {
        self.direct.get(&address).copied()
    }

    /// Precompute cluster-level tags against a frozen [`ClusterView`].
    ///
    /// The resulting [`TagResolver`] answers every lookup through `&self`
    /// (so it can be shared across pipeline stages) and resolves
    /// conflicting tags within one cluster deterministically: the tag of
    /// the lowest tagged address wins, independent of hash-map iteration
    /// order.
    pub fn resolver(&self, view: &ClusterView) -> TagResolver {
        let mut entries: Vec<(Address, Category)> =
            self.direct.iter().map(|(&a, &c)| (a, c)).collect();
        entries.sort_by_key(|&(a, _)| a);
        let mut cluster_tags: HashMap<ClusterId, Category> = HashMap::new();
        for (address, category) in entries {
            if let Address::Btc(btc_addr) = address {
                if let Some(id) = view.cluster_of(btc_addr) {
                    cluster_tags.entry(id).or_insert(category);
                }
            }
        }
        TagResolver {
            direct: self.direct.clone(),
            cluster_tags,
        }
    }
}

/// Immutable tag lookups with precomputed cluster propagation.
///
/// Built once from a [`TagService`] and a [`ClusterView`]; `Sync`, so the
/// parallel pipeline stages share one resolver by reference. The
/// `Default` resolver knows no tags: every category lookup is `None`.
#[derive(Debug, Clone, Default, StoreEncode, StoreDecode)]
pub struct TagResolver {
    direct: HashMap<Address, Category>,
    cluster_tags: HashMap<ClusterId, Category>,
}

impl TagResolver {
    /// Direct lookup, no cluster propagation.
    pub fn category_direct(&self, address: Address) -> Option<Category> {
        self.direct.get(&address).copied()
    }

    /// Category of `address`, propagating through the BTC clustering the
    /// resolver was built against.
    pub fn category(&self, address: Address, view: &ClusterView) -> Option<Category> {
        if let Some(c) = self.category_direct(address) {
            return Some(c);
        }
        if let Address::Btc(btc_addr) = address {
            let id = view.cluster_of(btc_addr)?;
            return self.cluster_tags.get(&id).copied();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_addr::{BtcAddress, EthAddress};
    use gt_chain::{Amount, BtcLedger};
    use gt_sim::SimTime;

    fn addr(b: u8) -> BtcAddress {
        BtcAddress::P2pkh([b; 20])
    }

    fn t(s: i64) -> SimTime {
        SimTime(1_700_000_000 + s)
    }

    #[test]
    fn direct_tagging() {
        let mut tags = TagService::new();
        let a = Address::Eth(EthAddress([1; 20]));
        tags.tag(a, Category::Exchange);
        assert_eq!(tags.category_direct(a), Some(Category::Exchange));
        assert_eq!(
            tags.category_direct(Address::Eth(EthAddress([2; 20]))),
            None
        );
    }

    #[test]
    fn cluster_propagation() {
        // Exchange hot wallet co-spends two addresses; tagging one tags
        // the other via the cluster.
        let mut ledger = BtcLedger::new();
        ledger.coinbase(addr(1), Amount(5_000), t(0)).unwrap();
        ledger.coinbase(addr(2), Amount(5_000), t(1)).unwrap();
        ledger
            .pay(
                &[addr(1), addr(2)],
                addr(9),
                Amount(9_000),
                addr(1),
                Amount(100),
                t(2),
            )
            .unwrap();
        let view = ClusterView::build(&ledger);

        let mut tags = TagService::new();
        tags.tag(Address::Btc(addr(1)), Category::Exchange);
        tags.tag(Address::Eth(EthAddress([1; 20])), Category::Mixing);
        let resolver = tags.resolver(&view);

        assert_eq!(
            resolver.category(Address::Btc(addr(2)), &view),
            Some(Category::Exchange),
            "tag propagates through the cluster"
        );
        assert_eq!(
            resolver.category(Address::Btc(addr(9)), &view),
            None,
            "recipient is a different cluster"
        );
        assert_eq!(
            resolver.category(Address::Btc(addr(42)), &view),
            None,
            "address never seen on chain"
        );
        assert_eq!(
            resolver.category(Address::Eth(EthAddress([1; 20])), &view),
            Some(Category::Mixing)
        );
        assert_eq!(
            resolver.category_direct(Address::Btc(addr(2))),
            None,
            "direct lookup does not propagate"
        );
    }

    #[test]
    fn untagged_unknown_is_none() {
        let view = ClusterView::build(&BtcLedger::new());
        let resolver = TagService::new().resolver(&view);
        assert_eq!(resolver.category(Address::Btc(addr(7)), &view), None);
    }

    #[test]
    fn resolver_conflicting_cluster_tags_are_deterministic() {
        // Cluster {1, 2, 3}; addr(1) and addr(2) carry different tags;
        // addr(3) is untagged and resolves through the cluster. The tag
        // of the lowest tagged address must win, regardless of the order
        // the tags were registered in.
        let mut ledger = BtcLedger::new();
        ledger.coinbase(addr(1), Amount(5_000), t(0)).unwrap();
        ledger.coinbase(addr(2), Amount(5_000), t(1)).unwrap();
        ledger
            .pay(
                &[addr(1), addr(2)],
                addr(9),
                Amount(9_000),
                addr(1),
                Amount(100),
                t(2),
            )
            .unwrap();
        ledger.coinbase(addr(2), Amount(5_000), t(3)).unwrap();
        ledger.coinbase(addr(3), Amount(5_000), t(4)).unwrap();
        ledger
            .pay(
                &[addr(2), addr(3)],
                addr(9),
                Amount(9_000),
                addr(2),
                Amount(100),
                t(5),
            )
            .unwrap();
        let view = ClusterView::build(&ledger);
        assert!(view.same_cluster(addr(1), addr(3)));

        let mut forwards = TagService::new();
        forwards.tag(Address::Btc(addr(1)), Category::Exchange);
        forwards.tag(Address::Btc(addr(2)), Category::Gambling);
        let mut backwards = TagService::new();
        backwards.tag(Address::Btc(addr(2)), Category::Gambling);
        backwards.tag(Address::Btc(addr(1)), Category::Exchange);

        let probe = Address::Btc(addr(3));
        assert_eq!(
            forwards.resolver(&view).category(probe, &view),
            Some(Category::Exchange),
            "lowest tagged address wins"
        );
        assert_eq!(
            backwards.resolver(&view).category(probe, &view),
            Some(Category::Exchange),
            "registration order is irrelevant"
        );
    }

    #[test]
    fn category_display_matches_paper_vocabulary() {
        assert_eq!(Category::Exchange.to_string(), "exchange");
        assert_eq!(
            Category::TokenSmartContract.to_string(),
            "token smart contract"
        );
        assert_eq!(Category::SanctionedEntity.to_string(), "sanctioned entity");
        assert_eq!(Category::Mixing.to_string(), "mixing");
        assert_eq!(Category::Scam.to_string(), "scam");
    }
}
