//! An account-model Ethereum ledger (value transfers only).
//!
//! Giveaway-scam analysis needs transfers, balances and timestamps; gas
//! accounting is reduced to a flat per-transfer fee and contract calls are
//! modelled as transfers to an address tagged as a contract by
//! `gt-cluster`'s tagging service.

use crate::types::{Amount, ChainError, Transfer, TxRef};
use gt_addr::{Address, Coin, EthAddress};
use gt_sim::SimTime;
use gt_store::{StoreDecode, StoreEncode};
use serde::Serialize;
use std::collections::HashMap;

/// A confirmed Ethereum value transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, StoreEncode, StoreDecode)]
pub struct EthTx {
    pub index: u64,
    pub time: SimTime,
    pub from: EthAddress,
    pub to: EthAddress,
    /// Value moved, in gwei.
    pub value: Amount,
    pub nonce: u64,
}

/// The Ethereum ledger simulator.
#[derive(Debug, Default, StoreEncode, StoreDecode)]
pub struct EthLedger {
    txs: Vec<EthTx>,
    balances: HashMap<EthAddress, Amount>,
    nonces: HashMap<EthAddress, u64>,
    address_index: HashMap<EthAddress, Vec<u64>>,
    tip_time: SimTime,
}

impl EthLedger {
    pub fn new() -> Self {
        EthLedger {
            tip_time: SimTime::EPOCH,
            ..Default::default()
        }
    }

    pub fn tx_count(&self) -> u64 {
        self.txs.len() as u64
    }

    pub fn tx(&self, index: u64) -> Option<&EthTx> {
        self.txs.get(index as usize)
    }

    pub fn txs(&self) -> &[EthTx] {
        &self.txs
    }

    pub fn balance(&self, address: EthAddress) -> Amount {
        self.balances.get(&address).copied().unwrap_or(Amount::ZERO)
    }

    pub fn nonce(&self, address: EthAddress) -> u64 {
        self.nonces.get(&address).copied().unwrap_or(0)
    }

    /// Credit an account out of thin air (genesis allocation / bridge-in).
    pub fn mint(
        &mut self,
        address: EthAddress,
        value: Amount,
        time: SimTime,
    ) -> Result<(), ChainError> {
        if value == Amount::ZERO {
            return Err(ChainError::ZeroValue);
        }
        if time < self.tip_time {
            return Err(ChainError::TimeWentBackwards);
        }
        self.tip_time = time;
        let balance = self.balances.entry(address).or_insert(Amount::ZERO);
        *balance = balance
            .checked_add(value)
            .expect("simulated supply stays far below u64::MAX");
        Ok(())
    }

    /// Transfer `value` gwei from `from` to `to`.
    pub fn transfer(
        &mut self,
        from: EthAddress,
        to: EthAddress,
        value: Amount,
        time: SimTime,
    ) -> Result<u64, ChainError> {
        if value == Amount::ZERO {
            return Err(ChainError::ZeroValue);
        }
        if time < self.tip_time {
            return Err(ChainError::TimeWentBackwards);
        }
        let balance = self.balance(from);
        if balance < value {
            return Err(ChainError::InsufficientBalance {
                balance,
                needed: value,
            });
        }
        self.tip_time = time;
        let nonce = self.nonces.entry(from).or_insert(0);
        let tx_nonce = *nonce;
        *nonce += 1;
        self.balances.insert(from, balance.saturating_sub(value));
        let to_balance = self.balances.entry(to).or_insert(Amount::ZERO);
        *to_balance = to_balance
            .checked_add(value)
            .expect("simulated supply stays far below u64::MAX");

        let index = self.txs.len() as u64;
        self.txs.push(EthTx {
            index,
            time,
            from,
            to,
            value,
            nonce: tx_nonce,
        });
        self.address_index.entry(from).or_default().push(index);
        if to != from {
            self.address_index.entry(to).or_default().push(index);
        }
        Ok(index)
    }

    pub fn address_txs(&self, address: EthAddress) -> &[u64] {
        self.address_index
            .get(&address)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Incoming transfers to `address`.
    pub fn incoming(&self, address: EthAddress) -> Vec<Transfer> {
        self.address_txs(address)
            .iter()
            .map(|&i| &self.txs[i as usize])
            .filter(|tx| tx.to == address && tx.from != address)
            .map(|tx| self.to_transfer(tx))
            .collect()
    }

    /// Outgoing transfers from `address`.
    pub fn outgoing(&self, address: EthAddress) -> Vec<Transfer> {
        self.address_txs(address)
            .iter()
            .map(|&i| &self.txs[i as usize])
            .filter(|tx| tx.from == address && tx.to != address)
            .map(|tx| self.to_transfer(tx))
            .collect()
    }

    fn to_transfer(&self, tx: &EthTx) -> Transfer {
        Transfer {
            tx: TxRef {
                coin: Coin::Eth,
                index: tx.index,
            },
            senders: vec![Address::Eth(tx.from)],
            recipient: Address::Eth(tx.to),
            amount: tx.value,
            time: tx.time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(byte: u8) -> EthAddress {
        EthAddress([byte; 20])
    }

    fn t(s: i64) -> SimTime {
        SimTime(1_700_000_000 + s)
    }

    #[test]
    fn mint_and_transfer() {
        let mut ledger = EthLedger::new();
        ledger.mint(a(1), Amount(1_000_000), t(0)).unwrap();
        let idx = ledger.transfer(a(1), a(2), Amount(300_000), t(1)).unwrap();
        assert_eq!(ledger.balance(a(1)), Amount(700_000));
        assert_eq!(ledger.balance(a(2)), Amount(300_000));
        assert_eq!(ledger.tx(idx).unwrap().nonce, 0);
    }

    #[test]
    fn nonce_increments_per_sender() {
        let mut ledger = EthLedger::new();
        ledger.mint(a(1), Amount(1_000), t(0)).unwrap();
        ledger.transfer(a(1), a(2), Amount(100), t(1)).unwrap();
        ledger.transfer(a(1), a(3), Amount(100), t(2)).unwrap();
        assert_eq!(ledger.nonce(a(1)), 2);
        assert_eq!(ledger.nonce(a(2)), 0);
        assert_eq!(ledger.tx(1).unwrap().nonce, 1);
    }

    #[test]
    fn insufficient_balance_rejected() {
        let mut ledger = EthLedger::new();
        ledger.mint(a(1), Amount(100), t(0)).unwrap();
        assert!(matches!(
            ledger.transfer(a(1), a(2), Amount(101), t(1)),
            Err(ChainError::InsufficientBalance { .. })
        ));
        // Unknown sender has zero balance.
        assert!(matches!(
            ledger.transfer(a(9), a(2), Amount(1), t(1)),
            Err(ChainError::InsufficientBalance { .. })
        ));
    }

    #[test]
    fn zero_value_rejected() {
        let mut ledger = EthLedger::new();
        assert_eq!(
            ledger.mint(a(1), Amount::ZERO, t(0)),
            Err(ChainError::ZeroValue)
        );
        ledger.mint(a(1), Amount(10), t(0)).unwrap();
        assert_eq!(
            ledger.transfer(a(1), a(2), Amount::ZERO, t(1)),
            Err(ChainError::ZeroValue)
        );
    }

    #[test]
    fn time_monotonicity_enforced() {
        let mut ledger = EthLedger::new();
        ledger.mint(a(1), Amount(10), t(10)).unwrap();
        assert_eq!(
            ledger.transfer(a(1), a(2), Amount(1), t(5)),
            Err(ChainError::TimeWentBackwards)
        );
    }

    #[test]
    fn incoming_outgoing_views() {
        let mut ledger = EthLedger::new();
        ledger.mint(a(1), Amount(1_000), t(0)).unwrap();
        ledger.transfer(a(1), a(2), Amount(400), t(1)).unwrap();
        ledger.transfer(a(2), a(3), Amount(100), t(2)).unwrap();

        let inc = ledger.incoming(a(2));
        assert_eq!(inc.len(), 1);
        assert_eq!(inc[0].senders, vec![Address::Eth(a(1))]);
        assert_eq!(inc[0].amount, Amount(400));

        let out = ledger.outgoing(a(2));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].recipient, Address::Eth(a(3)));
    }

    #[test]
    fn self_transfer_not_reported_as_payment() {
        let mut ledger = EthLedger::new();
        ledger.mint(a(1), Amount(100), t(0)).unwrap();
        ledger.transfer(a(1), a(1), Amount(50), t(1)).unwrap();
        assert!(ledger.incoming(a(1)).is_empty());
        assert!(ledger.outgoing(a(1)).is_empty());
        assert_eq!(ledger.balance(a(1)), Amount(100));
    }
}
