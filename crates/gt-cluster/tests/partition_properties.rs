//! Property: the sharded multi-input clustering equals a plain reference
//! partition on random small ledgers, at every thread count and with and
//! without CoinJoin awareness.
//!
//! The reference is label propagation over `BTreeMap`s: every address
//! starts labelled with its first-appearance index, and each co-spending
//! set repeatedly takes the smallest label among its members until no
//! label moves. Cluster ids are then numbered by first appearance.

use gt_addr::BtcAddress;
use gt_chain::{Amount, BtcLedger, OutPoint, TxOut};
use gt_cluster::{looks_like_coinjoin, ClusterId, ClusterView, ClusteringOptions};
use gt_sim::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn addr(b: u8) -> BtcAddress {
    BtcAddress::P2pkh([b; 20])
}

/// One step of a generated ledger.
#[derive(Debug, Clone)]
enum Op {
    /// Mint to one address.
    Coinbase(u8),
    /// Fund each input address with a fresh coinbase, then spend those
    /// outputs in one transaction: a single-input spend for one distinct
    /// address, a co-spend for more, CoinJoin-shaped when `equal` pays
    /// three or more equal outputs from at least as many addresses.
    Spend {
        inputs: Vec<u8>,
        outputs: Vec<u8>,
        equal: bool,
    },
}

fn op() -> impl Strategy<Value = Op> {
    // A small address space so co-spends chain into larger clusters.
    prop_oneof![
        (0u8..24).prop_map(Op::Coinbase),
        (
            proptest::collection::vec(0u8..24, 1..6),
            proptest::collection::vec(0u8..24, 1..6),
            any::<bool>(),
        )
            .prop_map(|(inputs, outputs, equal)| Op::Spend {
                inputs,
                outputs,
                equal,
            }),
    ]
}

fn ledger_of(ops: &[Op]) -> BtcLedger {
    let mut ledger = BtcLedger::new();
    let mut clock = 0i64;
    let mut tick = || {
        clock += 1;
        SimTime(1_700_000_000 + clock)
    };
    for op in ops {
        match op {
            Op::Coinbase(a) => {
                ledger.coinbase(addr(*a), Amount(10_000), tick()).unwrap();
            }
            Op::Spend {
                inputs,
                outputs,
                equal,
            } => {
                let funding: Vec<OutPoint> = inputs
                    .iter()
                    .map(|&a| OutPoint {
                        tx_index: ledger.coinbase(addr(a), Amount(10_000), tick()).unwrap(),
                        vout: 0,
                    })
                    .collect();
                let outs: Vec<TxOut> = outputs
                    .iter()
                    .enumerate()
                    .map(|(i, &a)| TxOut {
                        address: addr(a),
                        value: Amount(if *equal { 1_000 } else { 1_000 + i as u64 }),
                    })
                    .collect();
                ledger.submit(&funding, &outs, tick()).unwrap();
            }
        }
    }
    ledger
}

/// The reference partition: address → (cluster id, cluster size), and
/// the number of skipped CoinJoins.
fn reference(
    ledger: &BtcLedger,
    coinjoin_aware: bool,
) -> (BTreeMap<BtcAddress, (usize, usize)>, usize) {
    let mut order: BTreeMap<BtcAddress, usize> = BTreeMap::new();
    let mut first_seen: Vec<BtcAddress> = Vec::new();
    let mut see = |a: BtcAddress, order: &mut BTreeMap<BtcAddress, usize>| {
        order.entry(a).or_insert_with(|| {
            first_seen.push(a);
            first_seen.len() - 1
        });
    };
    let mut groups: Vec<Vec<BtcAddress>> = Vec::new();
    let mut skipped = 0;
    for tx in ledger.txs() {
        for o in &tx.outputs {
            see(o.address, &mut order);
        }
        let inputs = tx.input_addresses();
        for &a in &inputs {
            see(a, &mut order);
        }
        if inputs.is_empty() {
            continue;
        }
        if coinjoin_aware && looks_like_coinjoin(tx) {
            skipped += 1;
        } else {
            groups.push(inputs);
        }
    }

    let mut label = order.clone();
    loop {
        let mut moved = false;
        for group in &groups {
            let min = group.iter().map(|a| label[a]).min().unwrap();
            for a in group {
                let l = label.get_mut(a).unwrap();
                if *l != min {
                    *l = min;
                    moved = true;
                }
            }
        }
        if !moved {
            break;
        }
    }

    let mut ids: BTreeMap<usize, usize> = BTreeMap::new();
    let mut sizes: Vec<usize> = Vec::new();
    for a in &first_seen {
        let next = ids.len();
        let id = *ids.entry(label[a]).or_insert_with(|| {
            sizes.push(0);
            next
        });
        sizes[id] += 1;
    }
    let clusters = first_seen
        .iter()
        .map(|a| {
            let id = ids[&label[a]];
            (*a, (id, sizes[id]))
        })
        .collect();
    (clusters, skipped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharded_build_equals_reference_partition(ops in proptest::collection::vec(op(), 0..40)) {
        let ledger = ledger_of(&ops);
        for coinjoin_aware in [true, false] {
            let (expected, skipped) = reference(&ledger, coinjoin_aware);
            let options = ClusteringOptions { coinjoin_aware };
            for threads in 1..=8 {
                let view = ClusterView::build_par(&ledger, options, threads);
                // The vendored runner reports the message, not the input.
                let at = format!("{threads} threads, coinjoin_aware {coinjoin_aware}");
                prop_assert_eq!(view.address_count(), expected.len(), "{}", at);
                prop_assert_eq!(view.skipped_coinjoins, skipped, "{}", at);
                let clusters = expected.values().map(|&(id, _)| id).max().map_or(0, |m| m + 1);
                prop_assert_eq!(view.cluster_count(), clusters, "{}", at);
                for (&a, &(id, size)) in &expected {
                    prop_assert_eq!(view.cluster_of(a), Some(ClusterId(id)), "{:?} at {}", a, at);
                    prop_assert_eq!(view.cluster_size(a), Some(size), "{:?} at {}", a, at);
                }
                prop_assert_eq!(view.cluster_of(addr(200)), None);
            }
        }
    }
}
