//! Victim behaviour (Section 5.4): conversions, payment origins, and
//! the whale-shaped payment distribution.

use crate::payments::PaymentAnalysis;
use gt_addr::Address;
use gt_cluster::{Category, ClusterView, TagResolver};
use gt_store::{StoreDecode, StoreEncode};
use serde::Serialize;
use std::collections::HashSet;

/// Conversion-rate figures.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, StoreEncode, StoreDecode)]
pub struct Conversions {
    pub unique_senders: usize,
    /// Lure denominator (tweets for Twitter, views for YouTube).
    pub denominator: u64,
    /// unique senders / denominator.
    pub rate: f64,
}

/// Count distinct senders among final victim payments and derive the
/// conversion rate against a denominator.
pub fn conversions(analysis: &PaymentAnalysis, denominator: u64) -> Conversions {
    let mut senders: HashSet<Address> = HashSet::new();
    for p in analysis.victim_payments() {
        senders.extend(p.transfer.senders.iter().copied());
    }
    Conversions {
        unique_senders: senders.len(),
        denominator,
        rate: senders.len() as f64 / denominator.max(1) as f64,
    }
}

/// Payment-origin breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, StoreEncode, StoreDecode)]
pub struct PaymentOrigins {
    pub payments: usize,
    pub from_exchange: usize,
    pub exchange_rate: f64,
}

/// Classify the sender of every final victim payment via the tag
/// service (with BTC cluster propagation).
pub fn payment_origins(
    analyses: &[&PaymentAnalysis],
    tags: &TagResolver,
    clustering: &ClusterView,
) -> PaymentOrigins {
    let mut payments = 0usize;
    let mut from_exchange = 0usize;
    for analysis in analyses {
        for p in analysis.victim_payments() {
            payments += 1;
            let is_exchange = p
                .transfer
                .senders
                .iter()
                .any(|&s| tags.category(s, clustering) == Some(Category::Exchange));
            if is_exchange {
                from_exchange += 1;
            }
        }
    }
    PaymentOrigins {
        payments,
        from_exchange,
        exchange_rate: from_exchange as f64 / payments.max(1) as f64,
    }
}

/// The whale distribution: how many top payments carry 50% / 90% of
/// the revenue.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, StoreEncode, StoreDecode)]
pub struct WhaleDistribution {
    pub payments: usize,
    pub total_usd: f64,
    /// Smallest k such that the top-k payments carry ≥ 50% of value.
    pub top_for_half: usize,
    /// Smallest k such that the top-k payments carry ≥ 90% of value.
    pub top_for_90pct: usize,
    /// Largest single payment.
    pub max_usd: f64,
}

/// Compute the distribution over final victim payments.
pub fn whale_distribution(analysis: &PaymentAnalysis) -> WhaleDistribution {
    let mut values: Vec<f64> = analysis.victim_payments().map(|p| p.usd).collect();
    values.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let total: f64 = values.iter().sum();
    let mut cumulative = 0.0;
    let mut top_for_half = values.len();
    let mut top_for_90 = values.len();
    for (i, v) in values.iter().enumerate() {
        cumulative += v;
        if cumulative >= total * 0.5 && top_for_half == values.len() {
            top_for_half = i + 1;
        }
        if cumulative >= total * 0.9 {
            top_for_90 = i + 1;
            break;
        }
    }
    WhaleDistribution {
        payments: values.len(),
        total_usd: total,
        top_for_half,
        top_for_90pct: top_for_90,
        max_usd: values.first().copied().unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payments::{IsolatedPayment, PaymentAnalysis, PaymentFunnel, RevenueRow};
    use gt_addr::{BtcAddress, Coin};
    use gt_chain::{Amount, Transfer, TxRef};
    use gt_sim::SimTime;

    fn payment(sender: u8, usd: f64, co_occurring: bool, scam: bool) -> IsolatedPayment {
        IsolatedPayment {
            transfer: Transfer {
                tx: TxRef {
                    coin: Coin::Btc,
                    index: sender as u64,
                },
                senders: vec![Address::Btc(BtcAddress::P2pkh([sender; 20]))],
                recipient: Address::Btc(BtcAddress::P2pkh([99; 20])),
                amount: Amount(1),
                time: SimTime(0),
            },
            domain: "d".into(),
            usd,
            co_occurring,
            from_known_scam: scam,
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
    fn unique_senders_deduplicate() {
        let a = analysis(vec![
            payment(1, 10.0, true, false),
            payment(1, 20.0, true, false),
            payment(2, 30.0, true, false),
            payment(3, 5.0, false, false), // background: excluded
            payment(4, 5.0, true, true),   // scam sender: excluded
        ]);
        let c = conversions(&a, 1_000);
        assert_eq!(c.unique_senders, 2);
        assert!((c.rate - 0.002).abs() < 1e-12);
    }

    #[test]
    fn whale_distribution_top_heavy() {
        // One $1000 whale among 99 $1 payments: half the value sits in
        // the top payment.
        let mut ps = vec![payment(0, 1_000.0, true, false)];
        for i in 1..100 {
            ps.push(payment(i, 1.0, true, false));
        }
        let d = whale_distribution(&analysis(ps));
        assert_eq!(d.payments, 100);
        assert_eq!(d.top_for_half, 1);
        assert!(d.top_for_90pct < 100);
        assert_eq!(d.max_usd, 1_000.0);
    }

    #[test]
    fn whale_distribution_uniform() {
        let ps: Vec<IsolatedPayment> = (0..10).map(|i| payment(i, 10.0, true, false)).collect();
        let d = whale_distribution(&analysis(ps));
        assert_eq!(d.top_for_half, 5);
        assert_eq!(d.top_for_90pct, 9);
    }

    #[test]
    fn empty_analysis_is_safe() {
        let a = analysis(vec![]);
        let d = whale_distribution(&a);
        assert_eq!(d.payments, 0);
        assert_eq!(d.total_usd, 0.0);
        let c = conversions(&a, 100);
        assert_eq!(c.unique_senders, 0);
    }
}
