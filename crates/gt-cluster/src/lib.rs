//! Blockchain analysis: the repository's Chainalysis substitute.
//!
//! The paper consumes two annotations from the Chainalysis Crypto
//! Investigations tool: (1) the *multi-input cluster* an address belongs
//! to and (2) the *category* of the cluster's real-world operator
//! (exchange, mixer, token smart contract, scam, sanctioned entity, ...).
//! Both are reproduced here from first principles:
//!
//! * [`view`] implements the multi-input heuristic (Meiklejohn et al.,
//!   IMC 2013) over the simulated BTC ledger with a CoinJoin detector
//!   that prevents the classic false-merge, frozen into the shareable
//!   [`ClusterView`];
//! * [`tags`] is a category-tagging service seeded with ground-truth
//!   service entities, mimicking how the real tool learns labels by
//!   transacting with known services.

pub mod coinjoin;
pub mod flows;
pub mod tags;
mod unionfind;
pub mod view;

pub use coinjoin::looks_like_coinjoin;
pub use flows::{aggregate_exposure, trace_forward, FlowExposure};
pub use tags::{Category, TagResolver, TagService};
pub use view::{ClusterId, ClusterView, ClusteringOptions};
