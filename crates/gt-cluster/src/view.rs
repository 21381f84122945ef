//! Multi-input clustering over the BTC ledger.
//!
//! The heuristic (Reid & Harrigan 2013; Meiklejohn et al. 2013): all
//! input addresses of a transaction are controlled by the same entity.
//! Transactions with the CoinJoin shape are skipped to avoid the known
//! false-merge. Account chains (ETH/XRP) have no multi-input structure,
//! so each address is trivially its own cluster — the analysis only ever
//! asks for BTC cluster sizes (Section 5.5 of the paper).
//!
//! The result is a [`ClusterView`]: the partition frozen into plain
//! lookup tables, `Sync`, and queryable through `&self`, so pipeline
//! stages on different threads share it by reference.
//!
//! The build is sharded: the ledger's transaction range is split into
//! contiguous shards, each shard runs the heuristic locally (CoinJoin
//! detection included — it is a per-transaction predicate), and the
//! per-shard union-finds are merged in shard order, starting from shard
//! 0's own tables. Because shards are contiguous and merged in order, the
//! concatenation of per-shard first-seen address orders equals the serial
//! scan order, so cluster ids, sizes, and every lookup are byte-identical
//! regardless of thread count. The serial build is the one-shard case.

use crate::coinjoin::looks_like_coinjoin;
use crate::unionfind::UnionFind;
use gt_addr::BtcAddress;
use gt_chain::{BtcLedger, BtcTx};
use gt_store::{StoreDecode, StoreEncode};
use std::collections::HashMap;

/// Opaque cluster identifier (stable within one [`ClusterView`]).
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

/// Frozen multi-input clustering: immutable, `Sync`, shared by reference
/// across analysis stages. The `Default` view covers no transactions at
/// all, so every lookup misses.
#[derive(Debug, Clone, Default, PartialEq, StoreEncode, StoreDecode)]
pub struct ClusterView {
    /// Address → dense address index, in first-appearance order.
    pub(crate) indices: HashMap<BtcAddress, usize>,
    /// Address index → cluster id.
    pub(crate) ids: Vec<ClusterId>,
    /// Cluster id → member count.
    pub(crate) sizes: Vec<usize>,
    /// Number of transactions skipped as CoinJoin-shaped.
    pub skipped_coinjoins: usize,
}

impl ClusterView {
    /// Serial build with default options.
    pub fn build(ledger: &BtcLedger) -> Self {
        Self::build_with(ledger, ClusteringOptions::default())
    }

    /// Serial build with explicit options: one shard over every
    /// transaction.
    pub fn build_with(ledger: &BtcLedger, options: ClusteringOptions) -> Self {
        merge_shards(vec![cluster_shard(ledger.txs(), options)])
    }

    /// Sharded parallel build; produces results identical to
    /// [`ClusterView::build_with`] for any `threads`.
    pub fn build_par(ledger: &BtcLedger, options: ClusteringOptions, threads: usize) -> Self {
        let txs = ledger.txs();
        // Below a few shards' worth of work the merge bookkeeping costs
        // more than it saves.
        if threads <= 1 || txs.len() < 2 * threads {
            return Self::build_with(ledger, options);
        }
        let chunk = txs.len().div_ceil(threads);
        let shards: Vec<ShardResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = txs
                .chunks(chunk)
                .map(|slice| scope.spawn(move || cluster_shard(slice, options)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("cluster shard panicked"))
                .collect()
        });
        merge_shards(shards)
    }

    /// The cluster containing `address`, if the address appeared on chain.
    pub fn cluster_of(&self, address: BtcAddress) -> Option<ClusterId> {
        self.indices.get(&address).map(|&idx| self.ids[idx])
    }

    /// Size of the cluster containing `address` (number of addresses).
    pub fn cluster_size(&self, address: BtcAddress) -> Option<usize> {
        self.cluster_of(address).map(|id| self.sizes[id.0])
    }

    /// Whether two addresses share a cluster.
    pub fn same_cluster(&self, a: BtcAddress, b: BtcAddress) -> bool {
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
}

/// One contiguous transaction range, clustered locally.
struct ShardResult {
    /// Address → local index.
    indices: HashMap<BtcAddress, usize>,
    /// Addresses in local first-appearance order; the local index of an
    /// address is its position here.
    first_seen: Vec<BtcAddress>,
    uf: UnionFind,
    skipped: usize,
}

fn cluster_shard(txs: &[BtcTx], options: ClusteringOptions) -> ShardResult {
    let mut shard = ShardResult {
        indices: HashMap::new(),
        first_seen: Vec::new(),
        uf: UnionFind::new(0),
        skipped: 0,
    };
    for tx in txs {
        // Register every address we see so singletons exist too.
        for o in &tx.outputs {
            shard.index_of(o.address);
        }
        let inputs = tx.input_addresses();
        if inputs.is_empty() {
            continue;
        }
        if options.coinjoin_aware && looks_like_coinjoin(tx) {
            shard.skipped += 1;
            for a in inputs {
                shard.index_of(a);
            }
            continue;
        }
        let first = shard.index_of(inputs[0]);
        for a in &inputs[1..] {
            let idx = shard.index_of(*a);
            shard.uf.union(first, idx);
        }
    }
    shard
}

impl ShardResult {
    fn index_of(&mut self, addr: BtcAddress) -> usize {
        *self.indices.entry(addr).or_insert_with(|| {
            self.first_seen.push(addr);
            self.uf.push()
        })
    }
}

fn merge_shards(shards: Vec<ShardResult>) -> ClusterView {
    let mut shards = shards.into_iter();
    // Shard 0's local indices already are the global ones, so its tables
    // are the starting point.
    let ShardResult {
        mut indices,
        mut uf,
        mut skipped,
        ..
    } = shards.next().expect("at least one shard");

    for shard in shards {
        skipped += shard.skipped;
        // Map local indices to global ones. Iterating first_seen in order
        // keeps global index assignment equal to the serial scan order.
        let global: Vec<usize> = shard
            .first_seen
            .iter()
            .map(|&addr| *indices.entry(addr).or_insert_with(|| uf.push()))
            .collect();
        let mut local_uf = shard.uf;
        for (i, &g) in global.iter().enumerate() {
            let root = local_uf.find(i);
            if root != i {
                uf.union(global[root], g);
            }
        }
    }

    // Freeze: dense cluster ids by first member appearance, and sizes.
    let mut by_root: HashMap<usize, ClusterId> = HashMap::new();
    let mut ids: Vec<ClusterId> = Vec::with_capacity(uf.len());
    let mut sizes: Vec<usize> = Vec::new();
    for k in 0..uf.len() {
        let root = uf.find(k);
        let next = ClusterId(sizes.len());
        let id = *by_root.entry(root).or_insert_with(|| {
            sizes.push(0);
            next
        });
        sizes[id.0] += 1;
        ids.push(id);
    }
    ClusterView {
        indices,
        ids,
        sizes,
        skipped_coinjoins: skipped,
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

    /// A ledger with enough structure to exercise cross-shard merges:
    /// a chain of co-spends spanning the whole transaction range, extra
    /// singletons, and a CoinJoin near the end.
    fn busy_ledger() -> BtcLedger {
        let mut ledger = BtcLedger::new();
        // Singletons that never co-spend.
        for i in 21..32u8 {
            ledger
                .coinbase(addr(i), Amount(10_000), t(i as i64))
                .unwrap();
        }
        // Rolling co-spends: (0,1), (1,2), ... creates one long chain of
        // merges that no single shard sees in full. Each address holds a
        // single 30k UTXO at spend time, so paying 55k forces a genuine
        // two-input transaction.
        for i in 0..20u8 {
            let base = 100 + 3 * i as i64;
            ledger.coinbase(addr(i), Amount(30_000), t(base)).unwrap();
            ledger
                .coinbase(addr(i + 1), Amount(30_000), t(base + 1))
                .unwrap();
            ledger
                .pay(
                    &[addr(i), addr(i + 1)],
                    addr(100 + i),
                    Amount(55_000),
                    addr(220),
                    Amount::ZERO,
                    t(base + 2),
                )
                .unwrap();
        }
        // A CoinJoin-shaped tx that must not merge its inputs.
        let funding: Vec<u64> = (40..44u8)
            .map(|i| {
                ledger
                    .coinbase(addr(i), Amount(10_000), t(300 + i as i64))
                    .unwrap()
            })
            .collect();
        let inputs: Vec<OutPoint> = funding
            .into_iter()
            .map(|tx_index| OutPoint { tx_index, vout: 0 })
            .collect();
        let outputs: Vec<TxOut> = (50..54)
            .map(|b| TxOut {
                address: addr(b),
                value: Amount(9_900),
            })
            .collect();
        ledger.submit(&inputs, &outputs, t(400)).unwrap();
        ledger
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

        let c = ClusterView::build(&ledger);
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

        let c = ClusterView::build(&ledger);
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

        let aware = ClusterView::build(&ledger);
        assert!(!aware.same_cluster(addr(0), addr(1)));
        assert_eq!(aware.skipped_coinjoins, 1);
        assert_eq!(aware.cluster_size(addr(0)), Some(1));

        let naive = ClusterView::build_with(
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
        let c = ClusterView::build(&ledger);
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
        let c = ClusterView::build(&ledger);
        // addr1+addr2 cluster, addr9 singleton.
        assert_eq!(c.cluster_count(), 2);
        assert_eq!(c.address_count(), 3);
    }

    #[test]
    fn parallel_build_is_identical_for_any_thread_count() {
        let ledger = busy_ledger();
        let serial = ClusterView::build(&ledger);
        for threads in [2, 3, 4, 8] {
            let par = ClusterView::build_par(&ledger, ClusteringOptions::default(), threads);
            assert_eq!(par, serial, "{threads} threads");
        }
    }

    #[test]
    fn parallel_build_preserves_coinjoin_semantics() {
        let ledger = busy_ledger();
        let aware = ClusterView::build_par(&ledger, ClusteringOptions::default(), 4);
        assert_eq!(aware.skipped_coinjoins, 1);
        assert!(!aware.same_cluster(addr(40), addr(41)));
        let naive = ClusterView::build_par(
            &ledger,
            ClusteringOptions {
                coinjoin_aware: false,
            },
            4,
        );
        assert_eq!(naive.skipped_coinjoins, 0);
        assert!(naive.same_cluster(addr(40), addr(41)));
    }

    #[test]
    fn cross_shard_chains_merge() {
        let ledger = busy_ledger();
        let view = ClusterView::build_par(&ledger, ClusteringOptions::default(), 8);
        // The rolling co-spend chain merges addresses 0..=20.
        assert!(view.same_cluster(addr(0), addr(20)));
        assert_eq!(view.cluster_size(addr(0)), Some(21));
    }

    #[test]
    fn unknown_address_has_no_cluster() {
        let view = ClusterView::build(&BtcLedger::new());
        assert_eq!(view.cluster_of(addr(99)), None);
        assert_eq!(view.cluster_size(addr(99)), None);
        assert!(!view.same_cluster(addr(1), addr(1)));
    }
}
