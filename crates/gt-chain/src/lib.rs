//! Simulated blockchain substrates: Bitcoin (UTXO), Ethereum (account)
//! and XRP (account) ledgers.
//!
//! This is the repository's stand-in for "raw blockchain data". The
//! analysis pipeline only ever consumes, per address: incoming and
//! outgoing transfers with timestamps, sender/recipient addresses, and
//! amounts. The simulators therefore model exactly the structure those
//! queries depend on, *faithfully per chain*:
//!
//! * **BTC** is a real UTXO ledger — transactions spend previous outputs,
//!   multi-input transactions exist (the basis of the multi-input
//!   clustering heuristic), change outputs exist, and CoinJoin-shaped
//!   transactions can be formed (the false-positive hazard the paper's
//!   Chainalysis substitute must avoid);
//! * **ETH** and **XRP** are account ledgers with single senders.
//!
//! A unified [`view::ChainView`] exposes cross-chain transfer queries to
//! the analysis layer.

pub mod btc;
pub mod eth;
pub mod rpc;
pub mod types;
pub mod view;
pub mod xrp;

pub use btc::{BtcLedger, BtcTx, OutPoint, TxOut};
pub use eth::EthLedger;
pub use rpc::RpcView;
pub use types::{Amount, ChainError, Transfer, TxRef};
pub use view::ChainView;
pub use xrp::XrpLedger;
