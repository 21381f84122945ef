//! Scammer behaviour (Section 5.5): recipient addresses, BTC cluster
//! sizes, and where the money goes next.

use crate::payments::PaymentAnalysis;
use gt_addr::Address;
use gt_chain::ChainReads;
use gt_cluster::{Category, ClusterView, TagResolver};
use gt_store::{StoreDecode, StoreEncode};
use serde::Serialize;
use std::collections::{BTreeMap, HashSet};

/// Recipient-address statistics.
#[derive(Debug, Clone, PartialEq, Default, Serialize, StoreEncode, StoreDecode)]
pub struct RecipientStats {
    /// Distinct recipient addresses of final victim payments.
    pub recipients: usize,
    /// Of those, BTC addresses.
    pub btc_recipients: usize,
    /// BTC recipients whose multi-input cluster has size one.
    pub btc_singletons: usize,
}

/// Distinct recipients of the final victim payments, per platform list.
pub fn recipient_stats(analyses: &[&PaymentAnalysis], clustering: &ClusterView) -> RecipientStats {
    let mut recipients: HashSet<Address> = HashSet::new();
    for analysis in analyses {
        for p in analysis.victim_payments() {
            recipients.insert(p.transfer.recipient);
        }
    }
    let mut btc = 0usize;
    let mut singleton = 0usize;
    for r in &recipients {
        if let Address::Btc(a) = r {
            btc += 1;
            if clustering.cluster_size(*a) == Some(1) {
                singleton += 1;
            }
        }
    }
    RecipientStats {
        recipients: recipients.len(),
        btc_recipients: btc,
        btc_singletons: singleton,
    }
}

/// Per-platform recipient counts (the paper's 68 vs 271 split).
pub fn distinct_recipients(analysis: &PaymentAnalysis) -> usize {
    analysis
        .victim_payments()
        .map(|p| p.transfer.recipient)
        .collect::<HashSet<_>>()
        .len()
}

/// Where outgoing transfers from scam addresses go.
#[derive(Debug, Clone, PartialEq, Default, Serialize, StoreEncode, StoreDecode)]
pub struct OutgoingStats {
    /// Distinct recipients of outgoing transfers.
    pub recipients: usize,
    /// Recipients with a known category.
    pub by_category: BTreeMap<String, usize>,
    /// Recipients with no category (the large majority).
    pub unlabeled: usize,
}

impl OutgoingStats {
    pub fn count(&self, category: Category) -> usize {
        self.by_category
            .get(&category.to_string())
            .copied()
            .unwrap_or(0)
    }

    pub fn unlabeled_rate(&self) -> f64 {
        self.unlabeled as f64 / self.recipients.max(1) as f64
    }
}

/// Classify the recipients of every outgoing transfer from the given
/// scam recipient addresses.
pub fn outgoing_stats<C: ChainReads>(
    analyses: &[&PaymentAnalysis],
    chains: &C,
    tags: &TagResolver,
    clustering: &ClusterView,
) -> OutgoingStats {
    let mut scam_recipients: HashSet<Address> = HashSet::new();
    for analysis in analyses {
        for p in analysis.victim_payments() {
            scam_recipients.insert(p.transfer.recipient);
        }
    }
    let mut out_recipients: HashSet<Address> = HashSet::new();
    for &addr in &scam_recipients {
        for transfer in chains.outgoing(addr) {
            out_recipients.insert(transfer.recipient);
        }
    }
    let mut stats = OutgoingStats {
        recipients: out_recipients.len(),
        ..Default::default()
    };
    for r in out_recipients {
        match tags.category(r, clustering) {
            Some(c) => *stats.by_category.entry(c.to_string()).or_insert(0) += 1,
            None => stats.unlabeled += 1,
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payments::{IsolatedPayment, PaymentFunnel, RevenueRow};
    use gt_addr::{BtcAddress, Coin};
    use gt_chain::{Amount, BtcLedger, ChainView, Transfer, TxRef};
    use gt_cluster::TagService;
    use gt_sim::SimTime;

    fn addr(b: u8) -> BtcAddress {
        BtcAddress::P2pkh([b; 20])
    }

    fn payment_to(recipient: u8) -> IsolatedPayment {
        IsolatedPayment {
            transfer: Transfer {
                tx: TxRef {
                    coin: Coin::Btc,
                    index: recipient as u64,
                },
                senders: vec![Address::Btc(addr(200))],
                recipient: Address::Btc(addr(recipient)),
                amount: Amount(1),
                time: SimTime(0),
            },
            domain: "d".into(),
            usd: 1.0,
            co_occurring: true,
            from_known_scam: false,
        }
    }

    fn analysis(payments: Vec<IsolatedPayment>) -> PaymentAnalysis {
        PaymentAnalysis {
            payments,
            funnel: PaymentFunnel {
                domains_with_coin: 0,
                domains_paid: 0,
                distinct_addresses: 0,
                payments_any: 0,
                payments_co_occurring_raw: 0,
                consolidations_removed: 0,
                payments_final: 0,
            },
            revenue: RevenueRow::default(),
        }
    }

    #[test]
    fn recipients_deduplicate_across_platforms() {
        let a = analysis(vec![payment_to(1), payment_to(2)]);
        let b = analysis(vec![payment_to(2), payment_to(3)]);
        let clustering = ClusterView::build(&BtcLedger::new());
        let stats = recipient_stats(&[&a, &b], &clustering);
        assert_eq!(stats.recipients, 3);
        assert_eq!(stats.btc_recipients, 3);
        assert_eq!(distinct_recipients(&a), 2);
    }

    #[test]
    fn singleton_detection_uses_clustering() {
        let mut ledger = BtcLedger::new();
        let t = SimTime(1_700_000_000);
        // addr(1) stays singleton; addr(2) and addr(3) co-spend.
        ledger.coinbase(addr(1), Amount(10_000), t).unwrap();
        ledger.coinbase(addr(2), Amount(10_000), t).unwrap();
        ledger.coinbase(addr(3), Amount(10_000), t).unwrap();
        ledger
            .pay(
                &[addr(2), addr(3)],
                addr(50),
                Amount(15_000),
                addr(2),
                Amount(0),
                t,
            )
            .unwrap();
        let clustering = ClusterView::build(&ledger);
        let a = analysis(vec![payment_to(1), payment_to(2), payment_to(3)]);
        let stats = recipient_stats(&[&a], &clustering);
        assert_eq!(stats.btc_recipients, 3);
        assert_eq!(stats.btc_singletons, 1);
    }

    #[test]
    fn outgoing_classification() {
        let mut chains = ChainView::new();
        let t = SimTime(1_700_000_000);
        // Scam address 9 pays out to: a tagged exchange (addr 60) and a
        // fresh address (addr 61).
        chains.btc.coinbase(addr(9), Amount(100_000), t).unwrap();
        chains
            .btc
            .pay(&[addr(9)], addr(60), Amount(40_000), addr(9), Amount(0), t)
            .unwrap();
        chains
            .btc
            .pay(&[addr(9)], addr(61), Amount(40_000), addr(9), Amount(0), t)
            .unwrap();
        let mut tags = TagService::new();
        tags.tag(Address::Btc(addr(60)), Category::Exchange);
        let clustering = ClusterView::build(&chains.btc);
        let a = analysis(vec![payment_to(9)]);
        let stats = outgoing_stats(&[&a], &chains, &tags.resolver(&clustering), &clustering);
        assert_eq!(stats.recipients, 2);
        assert_eq!(stats.count(Category::Exchange), 1);
        assert_eq!(stats.unlabeled, 1);
        assert!((stats.unlabeled_rate() - 0.5).abs() < 1e-12);
    }
}
