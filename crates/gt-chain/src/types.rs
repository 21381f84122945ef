//! Shared chain types.

use gt_addr::{Address, Coin};
use gt_sim::SimTime;
use gt_store::{StoreDecode, StoreEncode};
use serde::Serialize;
use std::fmt;

/// An amount in a coin's base units (satoshi / gwei / drops).
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    Serialize,
    StoreEncode,
    StoreDecode,
)]
pub struct Amount(pub u64);

impl Amount {
    pub const ZERO: Amount = Amount(0);

    pub fn checked_add(self, other: Amount) -> Option<Amount> {
        self.0.checked_add(other.0).map(Amount)
    }

    pub fn checked_sub(self, other: Amount) -> Option<Amount> {
        self.0.checked_sub(other.0).map(Amount)
    }

    pub fn saturating_sub(self, other: Amount) -> Amount {
        Amount(self.0.saturating_sub(other.0))
    }
}

impl fmt::Display for Amount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::iter::Sum for Amount {
    fn sum<I: Iterator<Item = Amount>>(iter: I) -> Amount {
        Amount(iter.map(|a| a.0).sum())
    }
}

/// A chain-qualified transaction reference.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, StoreEncode, StoreDecode,
)]
pub struct TxRef {
    pub coin: Coin,
    /// Index into that chain's transaction log.
    pub index: u64,
}

impl fmt::Display for TxRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.coin, self.index)
    }
}

/// A money movement as the analysis layer sees it: one recipient, one or
/// more senders (BTC multi-input transactions have several), an amount
/// and a timestamp.
#[derive(Debug, Clone, PartialEq, Serialize, StoreEncode, StoreDecode)]
pub struct Transfer {
    pub tx: TxRef,
    pub senders: Vec<Address>,
    pub recipient: Address,
    pub amount: Amount,
    pub time: SimTime,
}

/// Validation failures raised by the ledgers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// Referenced output does not exist or was already spent.
    UnknownOrSpentInput,
    /// Transaction outputs exceed inputs.
    InsufficientInputValue { in_value: Amount, out_value: Amount },
    /// Account balance is lower than the transfer amount.
    InsufficientBalance { balance: Amount, needed: Amount },
    /// A transaction must move a positive amount.
    ZeroValue,
    /// Transactions must be submitted in non-decreasing time order.
    TimeWentBackwards,
    /// A transaction needs at least one input and one output.
    EmptyTransaction,
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::UnknownOrSpentInput => write!(f, "input is unknown or already spent"),
            ChainError::InsufficientInputValue {
                in_value,
                out_value,
            } => write!(f, "outputs ({out_value}) exceed inputs ({in_value})"),
            ChainError::InsufficientBalance { balance, needed } => {
                write!(f, "balance {balance} below required {needed}")
            }
            ChainError::ZeroValue => write!(f, "zero-value transaction"),
            ChainError::TimeWentBackwards => write!(f, "transaction timestamp precedes chain tip"),
            ChainError::EmptyTransaction => write!(f, "transaction has no inputs or outputs"),
        }
    }
}

impl std::error::Error for ChainError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amount_arithmetic() {
        assert_eq!(Amount(5).checked_add(Amount(7)), Some(Amount(12)));
        assert_eq!(Amount(u64::MAX).checked_add(Amount(1)), None);
        assert_eq!(Amount(5).checked_sub(Amount(7)), None);
        assert_eq!(Amount(7).checked_sub(Amount(5)), Some(Amount(2)));
        assert_eq!(Amount(3).saturating_sub(Amount(9)), Amount::ZERO);
        let total: Amount = [Amount(1), Amount(2), Amount(3)].into_iter().sum();
        assert_eq!(total, Amount(6));
    }

    #[test]
    fn txref_display() {
        let r = TxRef {
            coin: Coin::Eth,
            index: 42,
        };
        assert_eq!(r.to_string(), "ETH:42");
    }

    #[test]
    fn errors_display() {
        let e = ChainError::InsufficientBalance {
            balance: Amount(1),
            needed: Amount(2),
        };
        assert!(e.to_string().contains("balance 1"));
    }
}
