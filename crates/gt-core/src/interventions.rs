//! Intervention modelling (Section 6.2).
//!
//! The paper's discussion argues that centralized exchanges are the
//! most durable bottleneck: at least 58% of victims paid straight from
//! an exchange, and scammers cannot choose their victims' exchanges.
//! This module quantifies that intervention: if exchanges started
//! refusing transfers to a scam address some *detection lag* after the
//! address first appeared in a lure, how much victim loss is prevented?
//!
//! This goes beyond the paper's qualitative discussion — it is the
//! natural "future work" experiment the data supports.

use crate::payments::PaymentAnalysis;
use gt_addr::Address;
use gt_cluster::{Category, ClusterView, TagResolver};
use gt_sim::{SimDuration, SimTime};
use gt_store::{StoreDecode, StoreEncode};
use serde::Serialize;
use std::collections::HashMap;

/// Outcome of one intervention configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, StoreEncode, StoreDecode)]
pub struct InterventionOutcome {
    /// Detection lag applied (seconds after an address's first observed
    /// payment that exchanges begin blocking).
    pub lag_seconds: i64,
    /// Victim payments in scope (final co-occurring).
    pub payments: usize,
    /// Payments that would have been blocked.
    pub blocked: usize,
    /// USD prevented.
    pub prevented_usd: f64,
    /// Total victim USD.
    pub total_usd: f64,
}

impl InterventionOutcome {
    /// Fraction of victim revenue prevented.
    pub fn prevented_fraction(&self) -> f64 {
        if self.total_usd == 0.0 {
            0.0
        } else {
            self.prevented_usd / self.total_usd
        }
    }
}

/// Simulate the exchange-side block-list intervention.
///
/// An address is assumed *reported* at its first observed victim
/// payment; `lag` later, every exchange refuses further transfers to
/// it. Only exchange-originated payments can be blocked — self-custody
/// victims are out of the exchanges' reach (which is exactly why the
/// paper calls this a bottleneck rather than a fix).
pub fn exchange_blocklist(
    analyses: &[&PaymentAnalysis],
    tags: &TagResolver,
    clustering: &ClusterView,
    lag: SimDuration,
) -> InterventionOutcome {
    // First observed payment time per recipient address.
    let mut first_seen: HashMap<Address, SimTime> = HashMap::new();
    for analysis in analyses {
        for p in analysis.victim_payments() {
            let entry = first_seen
                .entry(p.transfer.recipient)
                .or_insert(p.transfer.time);
            if p.transfer.time < *entry {
                *entry = p.transfer.time;
            }
        }
    }

    let mut outcome = InterventionOutcome {
        lag_seconds: lag.as_seconds(),
        payments: 0,
        blocked: 0,
        prevented_usd: 0.0,
        total_usd: 0.0,
    };
    for analysis in analyses {
        for p in analysis.victim_payments() {
            outcome.payments += 1;
            outcome.total_usd += p.usd;
            let blocked_from = first_seen[&p.transfer.recipient] + lag;
            let from_exchange = p
                .transfer
                .senders
                .iter()
                .any(|&s| tags.category(s, clustering) == Some(Category::Exchange));
            if from_exchange && p.transfer.time >= blocked_from {
                outcome.blocked += 1;
                outcome.prevented_usd += p.usd;
            }
        }
    }
    outcome
}

/// The detection lags the pipeline sweeps: immediate, one hour, eight
/// hours, one day, three days and one week.
pub const SWEEP_LAGS: [SimDuration; 6] = [
    SimDuration::ZERO,
    SimDuration::hours(1),
    SimDuration::hours(8),
    SimDuration::days(1),
    SimDuration::days(3),
    SimDuration::days(7),
];

/// Sweep the intervention over several detection lags.
pub fn lag_sweep(
    analyses: &[&PaymentAnalysis],
    tags: &TagResolver,
    clustering: &ClusterView,
    lags: &[SimDuration],
) -> Vec<InterventionOutcome> {
    lags.iter()
        .map(|&lag| exchange_blocklist(analyses, tags, clustering, lag))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payments::{IsolatedPayment, PaymentFunnel, RevenueRow};
    use gt_addr::{BtcAddress, Coin};
    use gt_chain::{Amount, BtcLedger, Transfer, TxRef};
    use gt_cluster::TagService;

    fn addr(b: u8) -> Address {
        Address::Btc(BtcAddress::P2pkh([b; 20]))
    }

    fn payment(sender: u8, recipient: u8, usd: f64, t: i64) -> IsolatedPayment {
        IsolatedPayment {
            transfer: Transfer {
                tx: TxRef {
                    coin: Coin::Btc,
                    index: t as u64,
                },
                senders: vec![addr(sender)],
                recipient: addr(recipient),
                amount: Amount(1),
                time: SimTime(t),
            },
            domain: "d".into(),
            usd,
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

    fn setup_tags() -> (TagResolver, ClusterView) {
        let mut tags = TagService::new();
        tags.tag(addr(1), Category::Exchange); // sender 1 is an exchange
        let clustering = ClusterView::build(&BtcLedger::new());
        (tags.resolver(&clustering), clustering)
    }

    #[test]
    fn zero_lag_blocks_all_but_the_first_exchange_payment() {
        let (tags, clustering) = setup_tags();
        let a = analysis(vec![
            payment(1, 9, 100.0, 1_000), // first: defines detection, blocked at lag 0
            payment(1, 9, 200.0, 2_000), // blocked
            payment(2, 9, 400.0, 3_000), // self-custody: never blocked
        ]);
        let out = exchange_blocklist(&[&a], &tags, &clustering, SimDuration::ZERO);
        // With zero lag even the first payment is "blocked" (time >= first).
        assert_eq!(out.blocked, 2);
        assert_eq!(out.prevented_usd, 300.0);
        assert_eq!(out.total_usd, 700.0);
        assert!((out.prevented_fraction() - 300.0 / 700.0).abs() < 1e-12);
    }

    #[test]
    fn longer_lag_prevents_less() {
        let (tags, clustering) = setup_tags();
        let a = analysis(vec![
            payment(1, 9, 100.0, 0),
            payment(1, 9, 100.0, 3_600),
            payment(1, 9, 100.0, 86_400),
            payment(1, 9, 100.0, 7 * 86_400),
        ]);
        let sweep = lag_sweep(
            &[&a],
            &tags,
            &clustering,
            &[
                SimDuration::ZERO,
                SimDuration::hours(2),
                SimDuration::days(2),
                SimDuration::days(30),
            ],
        );
        assert_eq!(sweep[0].blocked, 4);
        assert_eq!(sweep[1].blocked, 2);
        assert_eq!(sweep[2].blocked, 1);
        assert_eq!(sweep[3].blocked, 0);
        for pair in sweep.windows(2) {
            assert!(pair[0].prevented_usd >= pair[1].prevented_usd, "monotone");
        }
    }

    #[test]
    fn self_custody_payments_cap_the_intervention() {
        let (tags, clustering) = setup_tags();
        // All payments from self-custody wallets: nothing preventable.
        let a = analysis(vec![payment(2, 9, 500.0, 0), payment(3, 9, 500.0, 10)]);
        let out = exchange_blocklist(&[&a], &tags, &clustering, SimDuration::ZERO);
        assert_eq!(out.blocked, 0);
        assert_eq!(out.prevented_fraction(), 0.0);
    }
}
