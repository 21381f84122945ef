//! A UTXO-model Bitcoin ledger.
//!
//! Faithful where it matters to the analysis:
//!
//! * transactions spend previous outputs; double-spends are rejected;
//! * multi-input transactions expose the co-spending structure that the
//!   multi-input clustering heuristic consumes;
//! * fees are implicit (inputs − outputs), and change outputs are just
//!   ordinary outputs back to a sender-controlled address;
//! * CoinJoin-shaped transactions (many inputs, many equal-valued
//!   outputs) can be built, which clustering must *not* merge.

use crate::types::{Amount, ChainError, Transfer, TxRef};
use gt_addr::{Address, BtcAddress, Coin};
use gt_sim::SimTime;
use gt_store::{StoreDecode, StoreEncode};
use serde::Serialize;
use std::collections::HashMap;

/// Reference to an output of a previous transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, StoreEncode, StoreDecode)]
pub struct OutPoint {
    pub tx_index: u64,
    pub vout: u32,
}

/// A transaction output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, StoreEncode, StoreDecode)]
pub struct TxOut {
    pub address: BtcAddress,
    pub value: Amount,
}

/// A confirmed Bitcoin transaction.
#[derive(Debug, Clone, PartialEq, Serialize, StoreEncode, StoreDecode)]
pub struct BtcTx {
    pub index: u64,
    pub time: SimTime,
    /// Spent outpoints with the addresses and values they carried.
    pub inputs: Vec<(OutPoint, TxOut)>,
    pub outputs: Vec<TxOut>,
    /// True for money-creating transactions (no inputs).
    pub coinbase: bool,
}

impl BtcTx {
    /// Total input value.
    pub fn input_value(&self) -> Amount {
        self.inputs.iter().map(|(_, o)| o.value).sum()
    }

    /// Total output value.
    pub fn output_value(&self) -> Amount {
        self.outputs.iter().map(|o| o.value).sum()
    }

    /// The implicit miner fee.
    pub fn fee(&self) -> Amount {
        if self.coinbase {
            Amount::ZERO
        } else {
            self.input_value().saturating_sub(self.output_value())
        }
    }

    /// Distinct input addresses (the co-spending set).
    pub fn input_addresses(&self) -> Vec<BtcAddress> {
        let mut addrs: Vec<BtcAddress> = self.inputs.iter().map(|(_, o)| o.address).collect();
        addrs.sort();
        addrs.dedup();
        addrs
    }
}

/// The Bitcoin ledger simulator.
#[derive(Debug, Default, StoreEncode, StoreDecode)]
pub struct BtcLedger {
    txs: Vec<BtcTx>,
    /// Unspent outputs.
    utxos: HashMap<OutPoint, TxOut>,
    /// address → tx indexes the address appears in (as input or output).
    address_index: HashMap<BtcAddress, Vec<u64>>,
    /// address → unspent outpoints it controls.
    address_utxos: HashMap<BtcAddress, Vec<OutPoint>>,
    tip_time: SimTime,
}

impl BtcLedger {
    pub fn new() -> Self {
        BtcLedger {
            tip_time: SimTime::EPOCH,
            ..Default::default()
        }
    }

    /// Number of confirmed transactions.
    pub fn tx_count(&self) -> u64 {
        self.txs.len() as u64
    }

    /// Look up a confirmed transaction.
    pub fn tx(&self, index: u64) -> Option<&BtcTx> {
        self.txs.get(index as usize)
    }

    /// All confirmed transactions (ordered by confirmation).
    pub fn txs(&self) -> &[BtcTx] {
        &self.txs
    }

    /// Mint `value` to `address` via a coinbase transaction.
    pub fn coinbase(
        &mut self,
        address: BtcAddress,
        value: Amount,
        time: SimTime,
    ) -> Result<u64, ChainError> {
        if value == Amount::ZERO {
            return Err(ChainError::ZeroValue);
        }
        self.check_time(time)?;
        let index = self.txs.len() as u64;
        let tx = BtcTx {
            index,
            time,
            inputs: Vec::new(),
            outputs: vec![TxOut { address, value }],
            coinbase: true,
        };
        self.confirm(tx);
        Ok(index)
    }

    /// Submit a transaction spending `inputs` into `outputs`.
    ///
    /// Inputs must be unspent; input value must cover output value (the
    /// difference is the fee).
    pub fn submit(
        &mut self,
        inputs: &[OutPoint],
        outputs: &[TxOut],
        time: SimTime,
    ) -> Result<u64, ChainError> {
        if inputs.is_empty() || outputs.is_empty() {
            return Err(ChainError::EmptyTransaction);
        }
        if outputs.iter().any(|o| o.value == Amount::ZERO) {
            return Err(ChainError::ZeroValue);
        }
        self.check_time(time)?;

        let mut resolved = Vec::with_capacity(inputs.len());
        {
            // Validate before mutating; duplicate outpoints within the
            // transaction are double-spends too.
            let mut seen = std::collections::HashSet::new();
            for op in inputs {
                if !seen.insert(*op) {
                    return Err(ChainError::UnknownOrSpentInput);
                }
                let txo = self
                    .utxos
                    .get(op)
                    .copied()
                    .ok_or(ChainError::UnknownOrSpentInput)?;
                resolved.push((*op, txo));
            }
        }
        let in_value: Amount = resolved.iter().map(|(_, o)| o.value).sum();
        let out_value: Amount = outputs.iter().map(|o| o.value).sum();
        if out_value > in_value {
            return Err(ChainError::InsufficientInputValue {
                in_value,
                out_value,
            });
        }

        let index = self.txs.len() as u64;
        let tx = BtcTx {
            index,
            time,
            inputs: resolved,
            outputs: outputs.to_vec(),
            coinbase: false,
        };
        self.confirm(tx);
        Ok(index)
    }

    /// Convenience: spend whole UTXOs from `from` to pay `value` to `to`,
    /// returning change to `change`. Picks UTXOs largest-first.
    pub fn pay(
        &mut self,
        from: &[BtcAddress],
        to: BtcAddress,
        value: Amount,
        change: BtcAddress,
        fee: Amount,
        time: SimTime,
    ) -> Result<u64, ChainError> {
        let needed = value.checked_add(fee).ok_or(ChainError::ZeroValue)?;
        // Gather candidate UTXOs across the sender addresses.
        let mut candidates: Vec<(OutPoint, TxOut)> = Vec::new();
        for a in from {
            if let Some(ops) = self.address_utxos.get(a) {
                for op in ops {
                    if let Some(txo) = self.utxos.get(op) {
                        candidates.push((*op, *txo));
                    }
                }
            }
        }
        candidates.sort_by_key(|&(_, txo)| std::cmp::Reverse(txo.value));
        let mut picked = Vec::new();
        let mut total = Amount::ZERO;
        for (op, txo) in candidates {
            if total >= needed {
                break;
            }
            total = total.checked_add(txo.value).ok_or(ChainError::ZeroValue)?;
            picked.push(op);
        }
        if total < needed {
            return Err(ChainError::InsufficientBalance {
                balance: total,
                needed,
            });
        }
        let mut outputs = vec![TxOut { address: to, value }];
        let change_value = total.saturating_sub(needed);
        if change_value > Amount::ZERO {
            outputs.push(TxOut {
                address: change,
                value: change_value,
            });
        }
        self.submit(&picked, &outputs, time)
    }

    /// The unspent outpoints an address currently controls.
    pub fn utxos_of(&self, address: BtcAddress) -> Vec<(OutPoint, TxOut)> {
        self.address_utxos
            .get(&address)
            .map(|ops| {
                ops.iter()
                    .filter_map(|op| self.utxos.get(op).map(|txo| (*op, *txo)))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Spendable balance of an address.
    pub fn balance(&self, address: BtcAddress) -> Amount {
        self.address_utxos
            .get(&address)
            .map(|ops| {
                ops.iter()
                    .filter_map(|op| self.utxos.get(op))
                    .map(|o| o.value)
                    .sum()
            })
            .unwrap_or(Amount::ZERO)
    }

    /// Transaction indexes touching an address, in confirmation order.
    pub fn address_txs(&self, address: BtcAddress) -> &[u64] {
        self.address_index
            .get(&address)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Incoming transfers to `address` (one per transaction output batch;
    /// multi-input senders are all reported).
    pub fn incoming(&self, address: BtcAddress) -> Vec<Transfer> {
        let mut out = Vec::new();
        for &idx in self.address_txs(address) {
            let tx = &self.txs[idx as usize];
            if tx.coinbase {
                // Newly minted coins are not a payment from anyone.
                continue;
            }
            let received: Amount = tx
                .outputs
                .iter()
                .filter(|o| o.address == address)
                .map(|o| o.value)
                .sum();
            // Skip pure-change cases: if the address also appears among
            // the inputs it is moving its own money.
            let is_sender = tx.inputs.iter().any(|(_, o)| o.address == address);
            if received > Amount::ZERO && !is_sender {
                out.push(Transfer {
                    tx: TxRef {
                        coin: Coin::Btc,
                        index: idx,
                    },
                    senders: tx.input_addresses().into_iter().map(Address::Btc).collect(),
                    recipient: Address::Btc(address),
                    amount: received,
                    time: tx.time,
                });
            }
        }
        out
    }

    /// Outgoing transfers from `address` (one per distinct recipient per
    /// transaction; change back to any input address is excluded).
    pub fn outgoing(&self, address: BtcAddress) -> Vec<Transfer> {
        let mut out = Vec::new();
        for &idx in self.address_txs(address) {
            let tx = &self.txs[idx as usize];
            if !tx.inputs.iter().any(|(_, o)| o.address == address) {
                continue;
            }
            let input_set = tx.input_addresses();
            for o in &tx.outputs {
                if input_set.contains(&o.address) {
                    continue; // change
                }
                out.push(Transfer {
                    tx: TxRef {
                        coin: Coin::Btc,
                        index: idx,
                    },
                    senders: input_set.iter().copied().map(Address::Btc).collect(),
                    recipient: Address::Btc(o.address),
                    amount: o.value,
                    time: tx.time,
                });
            }
        }
        out
    }

    fn check_time(&self, time: SimTime) -> Result<(), ChainError> {
        if time < self.tip_time {
            return Err(ChainError::TimeWentBackwards);
        }
        Ok(())
    }

    fn confirm(&mut self, tx: BtcTx) {
        let index = tx.index;
        self.tip_time = tx.time;
        // Spend the inputs.
        for (op, txo) in &tx.inputs {
            self.utxos.remove(op);
            if let Some(list) = self.address_utxos.get_mut(&txo.address) {
                list.retain(|x| x != op);
            }
        }
        // Create the outputs.
        for (vout, o) in tx.outputs.iter().enumerate() {
            let op = OutPoint {
                tx_index: index,
                vout: vout as u32,
            };
            self.utxos.insert(op, *o);
            self.address_utxos.entry(o.address).or_default().push(op);
        }
        // Index all touched addresses.
        let mut touched: Vec<BtcAddress> = tx
            .inputs
            .iter()
            .map(|(_, o)| o.address)
            .chain(tx.outputs.iter().map(|o| o.address))
            .collect();
        touched.sort();
        touched.dedup();
        for a in touched {
            self.address_index.entry(a).or_default().push(index);
        }
        self.txs.push(tx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_addr::{AddressGenerator, Coin};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn addrs(n: usize) -> Vec<BtcAddress> {
        let mut gen = AddressGenerator::new(StdRng::seed_from_u64(1));
        (0..n)
            .map(|_| match gen.generate(Coin::Btc) {
                Address::Btc(a) => a,
                _ => unreachable!(),
            })
            .collect()
    }

    fn t(s: i64) -> SimTime {
        SimTime(1_700_000_000 + s)
    }

    #[test]
    fn coinbase_creates_spendable_money() {
        let mut ledger = BtcLedger::new();
        let a = addrs(1)[0];
        ledger.coinbase(a, Amount(50_0000_0000), t(0)).unwrap();
        assert_eq!(ledger.balance(a), Amount(50_0000_0000));
        assert_eq!(ledger.tx_count(), 1);
        assert!(ledger.tx(0).unwrap().coinbase);
    }

    #[test]
    fn pay_moves_value_with_change_and_fee() {
        let mut ledger = BtcLedger::new();
        let a = addrs(3);
        ledger.coinbase(a[0], Amount(100_000), t(0)).unwrap();
        let tx = ledger
            .pay(&[a[0]], a[1], Amount(60_000), a[2], Amount(1_000), t(10))
            .unwrap();
        assert_eq!(ledger.balance(a[1]), Amount(60_000));
        assert_eq!(ledger.balance(a[2]), Amount(39_000)); // change
        assert_eq!(ledger.balance(a[0]), Amount::ZERO);
        assert_eq!(ledger.tx(tx).unwrap().fee(), Amount(1_000));
    }

    #[test]
    fn double_spend_rejected() {
        let mut ledger = BtcLedger::new();
        let a = addrs(2);
        ledger.coinbase(a[0], Amount(10_000), t(0)).unwrap();
        let op = OutPoint {
            tx_index: 0,
            vout: 0,
        };
        let out = TxOut {
            address: a[1],
            value: Amount(9_000),
        };
        ledger.submit(&[op], &[out], t(1)).unwrap();
        assert_eq!(
            ledger.submit(&[op], &[out], t(2)),
            Err(ChainError::UnknownOrSpentInput)
        );
    }

    #[test]
    fn duplicate_input_in_same_tx_rejected() {
        let mut ledger = BtcLedger::new();
        let a = addrs(2);
        ledger.coinbase(a[0], Amount(10_000), t(0)).unwrap();
        let op = OutPoint {
            tx_index: 0,
            vout: 0,
        };
        let out = TxOut {
            address: a[1],
            value: Amount(15_000),
        };
        assert_eq!(
            ledger.submit(&[op, op], &[out], t(1)),
            Err(ChainError::UnknownOrSpentInput)
        );
    }

    #[test]
    fn outputs_cannot_exceed_inputs() {
        let mut ledger = BtcLedger::new();
        let a = addrs(2);
        ledger.coinbase(a[0], Amount(10_000), t(0)).unwrap();
        let op = OutPoint {
            tx_index: 0,
            vout: 0,
        };
        let result = ledger.submit(
            &[op],
            &[TxOut {
                address: a[1],
                value: Amount(10_001),
            }],
            t(1),
        );
        assert!(matches!(
            result,
            Err(ChainError::InsufficientInputValue { .. })
        ));
    }

    #[test]
    fn pay_with_insufficient_funds_fails() {
        let mut ledger = BtcLedger::new();
        let a = addrs(3);
        ledger.coinbase(a[0], Amount(5_000), t(0)).unwrap();
        let result = ledger.pay(&[a[0]], a[1], Amount(6_000), a[2], Amount(0), t(1));
        assert!(matches!(
            result,
            Err(ChainError::InsufficientBalance { .. })
        ));
    }

    #[test]
    fn multi_input_payment_combines_utxos() {
        let mut ledger = BtcLedger::new();
        let a = addrs(4);
        ledger.coinbase(a[0], Amount(4_000), t(0)).unwrap();
        ledger.coinbase(a[1], Amount(4_000), t(1)).unwrap();
        let tx = ledger
            .pay(&[a[0], a[1]], a[2], Amount(7_000), a[3], Amount(500), t(2))
            .unwrap();
        let confirmed = ledger.tx(tx).unwrap();
        assert_eq!(confirmed.inputs.len(), 2);
        let senders = confirmed.input_addresses();
        assert!(senders.contains(&a[0]) && senders.contains(&a[1]));
        assert_eq!(ledger.balance(a[3]), Amount(500)); // change
    }

    #[test]
    fn incoming_reports_victim_style_payment() {
        let mut ledger = BtcLedger::new();
        let a = addrs(3);
        ledger.coinbase(a[0], Amount(100_000), t(0)).unwrap();
        ledger
            .pay(&[a[0]], a[1], Amount(30_000), a[2], Amount(100), t(5))
            .unwrap();
        let transfers = ledger.incoming(a[1]);
        assert_eq!(transfers.len(), 1);
        assert_eq!(transfers[0].amount, Amount(30_000));
        assert_eq!(transfers[0].senders, vec![Address::Btc(a[0])]);
        assert_eq!(transfers[0].time, t(5));
        assert_eq!(transfers[0].tx.coin, Coin::Btc);
    }

    #[test]
    fn incoming_excludes_self_transfers() {
        let mut ledger = BtcLedger::new();
        let a = addrs(2);
        ledger.coinbase(a[0], Amount(10_000), t(0)).unwrap();
        // a0 pays itself (consolidation): should not appear as incoming.
        ledger
            .pay(&[a[0]], a[0], Amount(9_000), a[1], Amount(100), t(1))
            .unwrap();
        assert!(ledger.incoming(a[0]).len() <= 1); // only the coinbase... which has no sender
                                                   // The consolidation tx must not be reported as a payment to a0.
        let non_coinbase: Vec<_> = ledger
            .incoming(a[0])
            .into_iter()
            .filter(|tr| !tr.senders.is_empty())
            .collect();
        assert!(non_coinbase.is_empty());
    }

    #[test]
    fn outgoing_excludes_change() {
        let mut ledger = BtcLedger::new();
        let a = addrs(3);
        ledger.coinbase(a[0], Amount(100_000), t(0)).unwrap();
        // Change goes back to a0 itself here.
        ledger
            .pay(&[a[0]], a[1], Amount(10_000), a[0], Amount(100), t(1))
            .unwrap();
        let outs = ledger.outgoing(a[0]);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].recipient, Address::Btc(a[1]));
        assert_eq!(outs[0].amount, Amount(10_000));
    }

    #[test]
    fn time_cannot_go_backwards() {
        let mut ledger = BtcLedger::new();
        let a = addrs(1)[0];
        ledger.coinbase(a, Amount(1_000), t(100)).unwrap();
        assert_eq!(
            ledger.coinbase(a, Amount(1_000), t(50)),
            Err(ChainError::TimeWentBackwards)
        );
    }

    #[test]
    fn coinjoin_shape_is_constructible() {
        let mut ledger = BtcLedger::new();
        let a = addrs(8);
        // Four participants each fund an input ...
        for (i, &addr) in a.iter().enumerate().take(4) {
            ledger.coinbase(addr, Amount(10_000), t(i as i64)).unwrap();
        }
        let inputs: Vec<OutPoint> = (0..4)
            .map(|i| OutPoint {
                tx_index: i,
                vout: 0,
            })
            .collect();
        // ... and receive equal-valued outputs at fresh addresses.
        let outputs: Vec<TxOut> = (4..8)
            .map(|i| TxOut {
                address: a[i],
                value: Amount(9_900),
            })
            .collect();
        let idx = ledger.submit(&inputs, &outputs, t(10)).unwrap();
        let tx = ledger.tx(idx).unwrap();
        assert_eq!(tx.input_addresses().len(), 4);
        let values: std::collections::HashSet<u64> = tx.outputs.iter().map(|o| o.value.0).collect();
        assert_eq!(values.len(), 1, "CoinJoin outputs are equal-valued");
    }

    #[test]
    fn address_txs_in_confirmation_order() {
        let mut ledger = BtcLedger::new();
        let a = addrs(2);
        ledger.coinbase(a[0], Amount(10_000), t(0)).unwrap();
        ledger.coinbase(a[0], Amount(20_000), t(1)).unwrap();
        ledger
            .pay(&[a[0]], a[1], Amount(5_000), a[0], Amount(0), t(2))
            .unwrap();
        assert_eq!(ledger.address_txs(a[0]), &[0, 1, 2]);
    }
}
