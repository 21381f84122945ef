//! An XRP Ledger simulator (account model, drops, destination tags).
//!
//! XRP matters to the paper because Ripple-themed giveaways dominated the
//! Twitter dataset (91% of scam tweets referenced XRP). Structurally the
//! ledger is account-based like Ethereum, with two XRP-specific details
//! kept because exchanges rely on them: the 10-drop base reserve burn per
//! payment (flat fee) and optional destination tags (how exchanges
//! multiplex customers onto one address).

use crate::types::{Amount, ChainError, Transfer, TxRef};
use gt_addr::{Address, Coin, XrpAddress};
use gt_sim::SimTime;
use gt_store::{StoreDecode, StoreEncode};
use serde::Serialize;
use std::collections::HashMap;

/// Flat network fee per payment, in drops.
pub const PAYMENT_FEE_DROPS: u64 = 10;

/// A confirmed XRP payment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, StoreEncode, StoreDecode)]
pub struct XrpPayment {
    pub index: u64,
    pub time: SimTime,
    pub from: XrpAddress,
    pub to: XrpAddress,
    /// Drops delivered to the destination.
    pub value: Amount,
    /// Exchange-style destination tag, if any.
    pub destination_tag: Option<u32>,
}

/// The XRP ledger simulator.
#[derive(Debug, Default, StoreEncode, StoreDecode)]
pub struct XrpLedger {
    payments: Vec<XrpPayment>,
    balances: HashMap<XrpAddress, Amount>,
    address_index: HashMap<XrpAddress, Vec<u64>>,
    tip_time: SimTime,
}

impl XrpLedger {
    pub fn new() -> Self {
        XrpLedger {
            tip_time: SimTime::EPOCH,
            ..Default::default()
        }
    }

    pub fn payment_count(&self) -> u64 {
        self.payments.len() as u64
    }

    pub fn payment(&self, index: u64) -> Option<&XrpPayment> {
        self.payments.get(index as usize)
    }

    pub fn payments(&self) -> &[XrpPayment] {
        &self.payments
    }

    pub fn balance(&self, address: XrpAddress) -> Amount {
        self.balances.get(&address).copied().unwrap_or(Amount::ZERO)
    }

    /// Credit an account (genesis / bridge-in).
    pub fn fund(
        &mut self,
        address: XrpAddress,
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

    /// Send `value` drops from `from` to `to`. The sender additionally
    /// burns the flat network fee.
    pub fn send(
        &mut self,
        from: XrpAddress,
        to: XrpAddress,
        value: Amount,
        destination_tag: Option<u32>,
        time: SimTime,
    ) -> Result<u64, ChainError> {
        if value == Amount::ZERO {
            return Err(ChainError::ZeroValue);
        }
        if time < self.tip_time {
            return Err(ChainError::TimeWentBackwards);
        }
        let needed = value
            .checked_add(Amount(PAYMENT_FEE_DROPS))
            .ok_or(ChainError::ZeroValue)?;
        let balance = self.balance(from);
        if balance < needed {
            return Err(ChainError::InsufficientBalance { balance, needed });
        }
        self.tip_time = time;
        self.balances.insert(from, balance.saturating_sub(needed));
        let to_balance = self.balances.entry(to).or_insert(Amount::ZERO);
        *to_balance = to_balance
            .checked_add(value)
            .expect("simulated supply stays far below u64::MAX");

        let index = self.payments.len() as u64;
        self.payments.push(XrpPayment {
            index,
            time,
            from,
            to,
            value,
            destination_tag,
        });
        self.address_index.entry(from).or_default().push(index);
        if to != from {
            self.address_index.entry(to).or_default().push(index);
        }
        Ok(index)
    }

    pub fn address_payments(&self, address: XrpAddress) -> &[u64] {
        self.address_index
            .get(&address)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    pub fn incoming(&self, address: XrpAddress) -> Vec<Transfer> {
        self.address_payments(address)
            .iter()
            .map(|&i| &self.payments[i as usize])
            .filter(|p| p.to == address && p.from != address)
            .map(|p| self.to_transfer(p))
            .collect()
    }

    pub fn outgoing(&self, address: XrpAddress) -> Vec<Transfer> {
        self.address_payments(address)
            .iter()
            .map(|&i| &self.payments[i as usize])
            .filter(|p| p.from == address && p.to != address)
            .map(|p| self.to_transfer(p))
            .collect()
    }

    fn to_transfer(&self, p: &XrpPayment) -> Transfer {
        Transfer {
            tx: TxRef {
                coin: Coin::Xrp,
                index: p.index,
            },
            senders: vec![Address::Xrp(p.from)],
            recipient: Address::Xrp(p.to),
            amount: p.value,
            time: p.time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(byte: u8) -> XrpAddress {
        XrpAddress([byte; 20])
    }

    fn t(s: i64) -> SimTime {
        SimTime(1_700_000_000 + s)
    }

    #[test]
    fn send_burns_flat_fee() {
        let mut ledger = XrpLedger::new();
        ledger.fund(a(1), Amount(1_000_000), t(0)).unwrap();
        ledger
            .send(a(1), a(2), Amount(400_000), None, t(1))
            .unwrap();
        assert_eq!(ledger.balance(a(2)), Amount(400_000));
        assert_eq!(
            ledger.balance(a(1)),
            Amount(1_000_000 - 400_000 - PAYMENT_FEE_DROPS)
        );
    }

    #[test]
    fn fee_counts_toward_required_balance() {
        let mut ledger = XrpLedger::new();
        ledger.fund(a(1), Amount(100), t(0)).unwrap();
        // 100 drops cannot cover 95 + 10 fee.
        assert!(matches!(
            ledger.send(a(1), a(2), Amount(95), None, t(1)),
            Err(ChainError::InsufficientBalance { .. })
        ));
        // 90 + 10 exactly works.
        ledger.send(a(1), a(2), Amount(90), None, t(1)).unwrap();
        assert_eq!(ledger.balance(a(1)), Amount::ZERO);
    }

    #[test]
    fn destination_tags_recorded() {
        let mut ledger = XrpLedger::new();
        ledger.fund(a(1), Amount(1_000), t(0)).unwrap();
        let idx = ledger
            .send(a(1), a(2), Amount(500), Some(777_001), t(1))
            .unwrap();
        assert_eq!(ledger.payment(idx).unwrap().destination_tag, Some(777_001));
    }

    #[test]
    fn incoming_and_outgoing() {
        let mut ledger = XrpLedger::new();
        ledger.fund(a(1), Amount(10_000), t(0)).unwrap();
        ledger.send(a(1), a(2), Amount(1_000), None, t(1)).unwrap();
        ledger.send(a(1), a(2), Amount(2_000), None, t(2)).unwrap();
        let inc = ledger.incoming(a(2));
        assert_eq!(inc.len(), 2);
        assert_eq!(inc[1].amount, Amount(2_000));
        assert_eq!(ledger.outgoing(a(1)).len(), 2);
        assert!(ledger.outgoing(a(2)).is_empty());
    }

    #[test]
    fn rejects_zero_and_backwards_time() {
        let mut ledger = XrpLedger::new();
        ledger.fund(a(1), Amount(1_000), t(10)).unwrap();
        assert_eq!(
            ledger.send(a(1), a(2), Amount::ZERO, None, t(11)),
            Err(ChainError::ZeroValue)
        );
        assert_eq!(
            ledger.send(a(1), a(2), Amount(1), None, t(5)),
            Err(ChainError::TimeWentBackwards)
        );
    }
}
