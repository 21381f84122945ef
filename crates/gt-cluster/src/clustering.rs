//! Multi-input clustering over the BTC ledger.
//!
//! The heuristic (Reid & Harrigan 2013; Meiklejohn et al. 2013): all
//! input addresses of a transaction are controlled by the same entity.
//! Transactions with the CoinJoin shape are skipped to avoid the known
//! false-merge. Account chains (ETH/XRP) have no multi-input structure,
//! so each address is trivially its own cluster — the analysis only ever
//! asks for BTC cluster sizes (Section 5.5 of the paper).

use crate::coinjoin::looks_like_coinjoin;
use crate::unionfind::UnionFind;
use crate::view::ClusterView;
use gt_addr::BtcAddress;
use gt_chain::BtcLedger;
use gt_store::{StoreDecode, StoreEncode};
use std::collections::HashMap;

/// Opaque cluster identifier (stable within one `Clustering`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, StoreEncode, StoreDecode)]
pub struct ClusterId(pub usize);

/// Options controlling cluster construction.
#[derive(Debug, Clone, Copy)]
pub struct ClusteringOptions {
    /// Skip CoinJoin-shaped transactions (on in production;
    /// `tests/pipeline_ablations.rs` turns it off to measure the
    /// false-merge impact).
    pub coinjoin_aware: bool,
}

impl Default for ClusteringOptions {
    fn default() -> Self {
        ClusteringOptions {
            coinjoin_aware: true,
        }
    }
}

/// The result of multi-input clustering.
#[derive(Debug)]
pub struct Clustering {
    indices: HashMap<BtcAddress, usize>,
    uf: UnionFind,
    /// Cached representative → dense cluster id.
    cluster_ids: HashMap<usize, ClusterId>,
    /// Cached cluster sizes by dense id.
    sizes: Vec<usize>,
    /// Number of transactions skipped as CoinJoin-shaped.
    pub skipped_coinjoins: usize,
}

impl Clustering {
    /// Run multi-input clustering over every confirmed transaction.
    pub fn build(ledger: &BtcLedger) -> Self {
        Self::build_with(ledger, ClusteringOptions::default())
    }

    /// Run with explicit options.
    pub fn build_with(ledger: &BtcLedger, options: ClusteringOptions) -> Self {
        let mut indices: HashMap<BtcAddress, usize> = HashMap::new();
        let mut uf = UnionFind::new(0);
        let mut skipped = 0usize;

        let index_of =
            |addr: BtcAddress, uf: &mut UnionFind, map: &mut HashMap<BtcAddress, usize>| {
                *map.entry(addr).or_insert_with(|| uf.push())
            };

        for tx in ledger.txs() {
            // Register every address we see so singletons exist too.
            for o in &tx.outputs {
                index_of(o.address, &mut uf, &mut indices);
            }
            let inputs = tx.input_addresses();
            if inputs.is_empty() {
                continue;
            }
            if options.coinjoin_aware && looks_like_coinjoin(tx) {
                skipped += 1;
                // Still register the input addresses as singletons.
                for a in inputs {
                    index_of(a, &mut uf, &mut indices);
                }
                continue;
            }
            let first = index_of(inputs[0], &mut uf, &mut indices);
            for a in &inputs[1..] {
                let idx = index_of(*a, &mut uf, &mut indices);
                uf.union(first, idx);
            }
        }

        // Freeze: assign dense ids and sizes.
        let mut cluster_ids = HashMap::new();
        let mut sizes = Vec::new();
        let keys: Vec<usize> = (0..uf.len()).collect();
        for k in keys {
            let root = uf.find(k);
            let next_id = ClusterId(sizes.len());
            let id = *cluster_ids.entry(root).or_insert_with(|| {
                sizes.push(0);
                next_id
            });
            sizes[id.0] += 1;
        }

        Clustering {
            indices,
            uf,
            cluster_ids,
            sizes,
            skipped_coinjoins: skipped,
        }
    }

    /// The cluster containing `address`, if the address appeared on chain.
    pub fn cluster_of(&mut self, address: BtcAddress) -> Option<ClusterId> {
        let idx = *self.indices.get(&address)?;
        let root = self.uf.find(idx);
        self.cluster_ids.get(&root).copied()
    }

    /// Size of the cluster containing `address` (number of addresses).
    pub fn cluster_size(&mut self, address: BtcAddress) -> Option<usize> {
        let id = self.cluster_of(address)?;
        Some(self.sizes[id.0])
    }

    /// Whether two addresses share a cluster.
    pub fn same_cluster(&mut self, a: BtcAddress, b: BtcAddress) -> bool {
        match (self.cluster_of(a), self.cluster_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Number of distinct clusters.
    pub fn cluster_count(&self) -> usize {
        self.sizes.len()
    }

    /// Number of addresses known to the clustering.
    pub fn address_count(&self) -> usize {
        self.indices.len()
    }

    /// Freeze into an immutable [`ClusterView`] that answers every query
    /// through `&self` and can be shared across threads.
    pub fn finalize(self) -> ClusterView {
        crate::view::freeze(self.indices, self.uf, self.skipped_coinjoins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_chain::{Amount, OutPoint, TxOut};
    use gt_sim::SimTime;

    fn addr(b: u8) -> BtcAddress {
        BtcAddress::P2pkh([b; 20])
    }

    fn t(s: i64) -> SimTime {
        SimTime(1_700_000_000 + s)
    }

    #[test]
    fn multi_input_tx_merges_input_addresses() {
        let mut ledger = BtcLedger::new();
        ledger.coinbase(addr(1), Amount(5_000), t(0)).unwrap();
        ledger.coinbase(addr(2), Amount(5_000), t(1)).unwrap();
        ledger
            .pay(
                &[addr(1), addr(2)],
                addr(9),
                Amount(9_000),
                addr(3),
                Amount(100),
                t(2),
            )
            .unwrap();

        let mut c = Clustering::build(&ledger);
        assert!(c.same_cluster(addr(1), addr(2)));
        assert!(!c.same_cluster(addr(1), addr(9)), "recipient not merged");
        assert_eq!(c.cluster_size(addr(1)), Some(2));
        assert_eq!(c.cluster_size(addr(9)), Some(1));
    }

    #[test]
    fn chains_of_cospending_merge_transitively() {
        let mut ledger = BtcLedger::new();
        for i in 1..=3 {
            ledger
                .coinbase(addr(i), Amount(5_000), t(i as i64))
                .unwrap();
        }
        ledger
            .pay(
                &[addr(1), addr(2)],
                addr(10),
                Amount(9_000),
                addr(1),
                Amount(0),
                t(4),
            )
            .unwrap();
        ledger.coinbase(addr(2), Amount(5_000), t(5)).unwrap();
        ledger
            .pay(
                &[addr(2), addr(3)],
                addr(11),
                Amount(9_000),
                addr(2),
                Amount(0),
                t(6),
            )
            .unwrap();

        let mut c = Clustering::build(&ledger);
        assert!(
            c.same_cluster(addr(1), addr(3)),
            "transitive merge via addr 2"
        );
        assert_eq!(c.cluster_size(addr(1)), Some(3));
    }

    #[test]
    fn coinjoin_not_merged_when_aware() {
        let mut ledger = BtcLedger::new();
        for i in 0..4u8 {
            ledger
                .coinbase(addr(i), Amount(10_000), t(i as i64))
                .unwrap();
        }
        let inputs: Vec<OutPoint> = (0..4)
            .map(|i| OutPoint {
                tx_index: i,
                vout: 0,
            })
            .collect();
        let outputs: Vec<TxOut> = (10..14)
            .map(|b| TxOut {
                address: addr(b),
                value: Amount(9_900),
            })
            .collect();
        ledger.submit(&inputs, &outputs, t(10)).unwrap();

        let mut aware = Clustering::build(&ledger);
        assert!(!aware.same_cluster(addr(0), addr(1)));
        assert_eq!(aware.skipped_coinjoins, 1);
        assert_eq!(aware.cluster_size(addr(0)), Some(1));

        let mut naive = Clustering::build_with(
            &ledger,
            ClusteringOptions {
                coinjoin_aware: false,
            },
        );
        assert!(
            naive.same_cluster(addr(0), addr(1)),
            "naive clustering falls for the CoinJoin false merge"
        );
        assert_eq!(naive.cluster_size(addr(0)), Some(4));
    }

    #[test]
    fn unknown_address_has_no_cluster() {
        let ledger = BtcLedger::new();
        let mut c = Clustering::build(&ledger);
        assert_eq!(c.cluster_of(addr(42)), None);
        assert_eq!(c.cluster_size(addr(42)), None);
    }

    #[test]
    fn single_input_spends_keep_singletons() {
        // A scammer using one fresh address per campaign, spending each
        // with single-input transactions, stays cluster-size one — the
        // behaviour Section 5.5 observes for 87% of scam addresses.
        let mut ledger = BtcLedger::new();
        for i in 1..=3u8 {
            ledger
                .coinbase(addr(i), Amount(10_000), t(i as i64))
                .unwrap();
        }
        for i in 1..=3u8 {
            ledger
                .pay(
                    &[addr(i)],
                    addr(100 + i),
                    Amount(9_000),
                    addr(i),
                    Amount(100),
                    t(i as i64 + 10),
                )
                .unwrap();
        }
        let mut c = Clustering::build(&ledger);
        for i in 1..=3u8 {
            assert_eq!(c.cluster_size(addr(i)), Some(1), "addr {i}");
        }
    }

    #[test]
    fn cluster_counts_are_consistent() {
        let mut ledger = BtcLedger::new();
        ledger.coinbase(addr(1), Amount(5_000), t(0)).unwrap();
        ledger.coinbase(addr(2), Amount(5_000), t(1)).unwrap();
        ledger
            .pay(
                &[addr(1), addr(2)],
                addr(9),
                Amount(9_500),
                addr(1),
                Amount(0),
                t(2),
            )
            .unwrap();
        let c = Clustering::build(&ledger);
        // addr1+addr2 cluster, addr9 singleton.
        assert_eq!(c.cluster_count(), 2);
        assert_eq!(c.address_count(), 3);
    }
}
