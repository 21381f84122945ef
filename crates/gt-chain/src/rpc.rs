//! Fault-aware RPC facade over [`ChainView`]: the one path by which
//! the analysis layer reads a blockchain.
//!
//! The real pipeline read address histories through node RPCs that
//! could time out, rate-limit or die. An [`RpcView`] consults its
//! gate's [`FaultPlan`] before every read; without a plan the gate
//! admits every call, so the view serves exactly the ledger's data.
//!
//! Reads in the analysis layer are not tied to a monitoring tick, so
//! `RpcView` models the batch backfill the paper ran after collection:
//! a virtual cursor starts at the analysis epoch and advances a fixed
//! spacing per read. The cursor exists only to index into the fault
//! schedule deterministically; served data is always the full history
//! (snapshot semantics — a denied read returns an empty history, which
//! can only shrink downstream results).

use crate::types::Transfer;
use crate::view::ChainView;
use gt_addr::Address;
use gt_obs::StageSink;
use gt_sim::faults::{FaultPlan, Gated, RetryPolicy, Substrate};
use gt_sim::{SimDuration, SimTime};

/// Spacing between consecutive RPC reads on the virtual cursor.
const READ_SPACING: SimDuration = SimDuration::seconds(2);

/// A [`ChainView`] behind a fault-gated RPC boundary.
///
/// Each read advances the cursor, so an `RpcView` belongs to one
/// sequential analysis stage, and the order of its reads decides which
/// of them a fault window drops.
pub struct RpcView<'a> {
    chains: &'a ChainView,
    gate: Gated<'a>,
    cursor: SimTime,
}

impl<'a> RpcView<'a> {
    /// Gate `chains` behind `plan`, with the read cursor starting at
    /// `epoch` (typically the end of the collection window: the paper's
    /// backfill ran after monitoring finished). `label` separates the
    /// jitter streams of different analysis stages. Per-read telemetry
    /// (call counts, transfers served, retry/backoff accounting) goes
    /// into `sink` under the `chain.rpc` substrate.
    pub fn new(
        chains: &'a ChainView,
        plan: Option<&'a FaultPlan>,
        label: &str,
        epoch: SimTime,
        sink: StageSink,
    ) -> Self {
        RpcView {
            chains,
            gate: Gated::new(plan, label, RetryPolicy::default(), sink),
            cursor: epoch,
        }
    }

    /// All transfers into `address`, in confirmation order; empty if
    /// the read is denied.
    pub fn incoming(&mut self, address: Address) -> Vec<Transfer> {
        self.read(ChainView::incoming, address)
    }

    /// All transfers out of `address`, in confirmation order; empty if
    /// the read is denied.
    pub fn outgoing(&mut self, address: Address) -> Vec<Transfer> {
        self.read(ChainView::outgoing, address)
    }

    fn read(
        &mut self,
        fetch: fn(&ChainView, Address) -> Vec<Transfer>,
        address: Address,
    ) -> Vec<Transfer> {
        let at = self.cursor;
        self.cursor = at + READ_SPACING;
        self.gate
            .checked_counted(Substrate::ChainRpc, at, || {
                let transfers = fetch(self.chains, address);
                let n = transfers.len() as u64;
                (transfers, n)
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Amount;
    use gt_addr::BtcAddress;
    use gt_sim::faults::{FaultKind, FaultWindow};

    /// The `chain.rpc` counter `metric` as recorded into `sink` (a view
    /// flushes its gate's counters when it drops).
    fn recorded(sink: &StageSink, metric: &str) -> u64 {
        sink.sheet()
            .rows("")
            .find(|r| r.substrate == "chain.rpc" && r.metric == metric)
            .map_or(0, |r| r.value)
    }

    fn view_with_history() -> (ChainView, Address) {
        let mut view = ChainView::new();
        let a = BtcAddress::P2pkh([1; 20]);
        let b = BtcAddress::P2pkh([2; 20]);
        view.btc.coinbase(a, Amount(100_000), SimTime(0)).unwrap();
        view.btc
            .pay(&[a], b, Amount(50_000), a, Amount(0), SimTime(100))
            .unwrap();
        (view, Address::Btc(b))
    }

    #[test]
    fn clean_rpc_view_matches_chain_view() {
        let (view, addr) = view_with_history();
        let sink = gt_obs::MetricsRegistry::new().sink("test");
        let mut rpc = RpcView::new(&view, None, "test", SimTime(1_000), sink.clone());
        assert_eq!(rpc.incoming(addr), view.incoming(addr));
        assert_eq!(rpc.outgoing(addr), view.outgoing(addr));
        drop(rpc);
        assert_eq!(recorded(&sink, "served"), 2);
        for metric in ["retries", "recovered", "lost", "denied"] {
            assert_eq!(recorded(&sink, metric), 0, "{metric}");
        }
    }

    #[test]
    fn outage_degrades_reads_to_empty() {
        let (view, addr) = view_with_history();
        let mut plan = FaultPlan::quiet(3);
        plan.schedules.insert(
            Substrate::ChainRpc,
            vec![FaultWindow {
                start: SimTime(0),
                end: SimTime(i64::MAX),
                kind: FaultKind::Outage,
            }],
        );
        let sink = gt_obs::MetricsRegistry::new().sink("test");
        let mut rpc = RpcView::new(&view, Some(&plan), "test", SimTime(1_000), sink.clone());
        assert!(rpc.incoming(addr).is_empty());
        assert!(!view.incoming(addr).is_empty(), "data exists underneath");
        drop(rpc);
        assert!(recorded(&sink, "lost") >= 1);
    }

    #[test]
    fn cursor_advances_past_short_windows() {
        let (view, addr) = view_with_history();
        let mut plan = FaultPlan::quiet(3);
        // One transient blip at the epoch; later reads are clean.
        plan.schedules.insert(
            Substrate::ChainRpc,
            vec![FaultWindow {
                start: SimTime(1_000),
                end: SimTime(1_001),
                kind: FaultKind::Transient,
            }],
        );
        let sink = gt_obs::MetricsRegistry::new().sink("test");
        let mut rpc = RpcView::new(&view, Some(&plan), "test", SimTime(1_000), sink.clone());
        // First read hits the blip but retries through it; the second
        // is past the window entirely.
        assert_eq!(rpc.incoming(addr), view.incoming(addr));
        assert_eq!(rpc.outgoing(addr), view.outgoing(addr));
        drop(rpc);
        assert_eq!(recorded(&sink, "recovered"), 1);
        assert_eq!(recorded(&sink, "served"), 2);
    }
}
