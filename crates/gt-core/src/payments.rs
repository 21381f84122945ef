//! Payment isolation and revenue (Sections 5.1–5.3, Table 2).

use crate::datasets::{TwitterDataset, YouTubeDataset};
use gt_addr::{Address, Coin};
use gt_chain::{ChainReads, Transfer};
use gt_cluster::{Category, ClusterView, TagResolver};
use gt_price::PriceOracle;
use gt_sim::{SimDuration, SimTime};
use gt_store::{StoreDecode, StoreEncode};
use serde::Serialize;
use std::collections::HashSet;

/// Co-occurrence windows from the paper.
pub const TWEET_WINDOW: SimDuration = SimDuration::days(7);
pub const STREAM_TAIL_WINDOW: SimDuration = SimDuration::hours(8);

/// An isolated payment.
#[derive(Debug, Clone, PartialEq, Serialize, StoreEncode, StoreDecode)]
pub struct IsolatedPayment {
    pub transfer: Transfer,
    pub domain: String,
    /// USD value at the day-of-payment average price.
    pub usd: f64,
    pub co_occurring: bool,
    /// True when the sender was a known scam address (consolidation).
    pub from_known_scam: bool,
}

impl IsolatedPayment {
    pub fn coin(&self) -> Coin {
        self.transfer.tx.coin
    }
}

/// The Section 5.2/5.3 funnel for one platform.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, StoreEncode, StoreDecode)]
pub struct PaymentFunnel {
    /// Domains with at least one BTC/ETH/XRP address.
    pub domains_with_coin: usize,
    /// Of those, domains that received any incoming transaction.
    pub domains_paid: usize,
    /// Distinct addresses across the platform's domains.
    pub distinct_addresses: usize,
    /// All incoming payments.
    pub payments_any: usize,
    /// Payments inside a co-occurrence window (before the scam-sender
    /// filter).
    pub payments_co_occurring_raw: usize,
    /// Removed because the sender is a known scam address.
    pub consolidations_removed: usize,
    /// Final victim payments.
    pub payments_final: usize,
}

/// Revenue per coin plus totals (one platform's half of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, StoreEncode, StoreDecode)]
pub struct RevenueRow {
    pub payments_co_occurring: usize,
    pub payments_any: usize,
    pub usd_co_occurring: f64,
    pub usd_btc: f64,
    pub usd_eth: f64,
    pub usd_xrp: f64,
    pub usd_any: f64,
}

/// Everything payment analysis produces for one platform.
#[derive(Debug, Default, StoreEncode, StoreDecode)]
pub struct PaymentAnalysis {
    /// All isolated payments (co-occurring and not), scam senders
    /// included but flagged.
    pub payments: Vec<IsolatedPayment>,
    pub funnel: PaymentFunnel,
    pub revenue: RevenueRow,
}

impl PaymentAnalysis {
    /// The final victim payments (co-occurring, non-scam-sender).
    pub fn victim_payments(&self) -> impl Iterator<Item = &IsolatedPayment> {
        self.payments
            .iter()
            .filter(|p| p.co_occurring && !p.from_known_scam)
    }
}

/// Is `sender` a known scam address?
fn is_known_scam(
    sender: &Address,
    known_scam_addresses: &HashSet<Address>,
    tags: &TagResolver,
    clustering: &ClusterView,
) -> bool {
    known_scam_addresses.contains(sender)
        || tags.category(*sender, clustering) == Some(Category::Scam)
}

/// One isolation input: a domain, its displayed addresses, and the
/// co-occurrence windows attached to it.
type DomainWindows = (String, Vec<Address>, Vec<(SimTime, SimTime)>);

/// Shared isolation logic over (domain, addresses, windows) triples.
/// Generic over [`ChainReads`] so the same loop runs against the raw
/// ledger or a fault-gated RPC view.
#[allow(clippy::too_many_arguments)]
fn isolate<C: ChainReads>(
    domains: Vec<DomainWindows>,
    chains: &C,
    prices: &PriceOracle,
    tags: &TagResolver,
    clustering: &ClusterView,
    known_scam_addresses: &HashSet<Address>,
) -> PaymentAnalysis {
    let mut payments = Vec::new();
    let mut funnel = PaymentFunnel {
        domains_with_coin: 0,
        domains_paid: 0,
        distinct_addresses: 0,
        payments_any: 0,
        payments_co_occurring_raw: 0,
        consolidations_removed: 0,
        payments_final: 0,
    };
    let mut distinct_addresses: HashSet<Address> = HashSet::new();
    let mut seen_tx: HashSet<gt_chain::TxRef> = HashSet::new();

    for (domain, addresses, windows) in domains {
        if addresses.is_empty() {
            continue;
        }
        funnel.domains_with_coin += 1;
        distinct_addresses.extend(addresses.iter().copied());

        let mut domain_paid = false;
        for &address in &addresses {
            for transfer in chains.incoming(address) {
                // A domain counts as paid whenever its addresses saw
                // money, even if the transaction was already attributed
                // to a sibling domain sharing the address (the paper's
                // per-domain count works the same way).
                domain_paid = true;
                if !seen_tx.insert(transfer.tx) {
                    continue; // already attributed via another domain
                }
                funnel.payments_any += 1;
                let co_occurring = windows
                    .iter()
                    .any(|&(start, end)| transfer.time >= start && transfer.time <= end);
                let from_known_scam = transfer
                    .senders
                    .iter()
                    .any(|s| is_known_scam(s, known_scam_addresses, tags, clustering));
                if co_occurring {
                    funnel.payments_co_occurring_raw += 1;
                    if from_known_scam {
                        funnel.consolidations_removed += 1;
                    } else {
                        funnel.payments_final += 1;
                    }
                }
                let usd = prices.to_usd(transfer.tx.coin, transfer.amount.0, transfer.time);
                payments.push(IsolatedPayment {
                    transfer,
                    domain: domain.clone(),
                    usd,
                    co_occurring,
                    from_known_scam,
                });
            }
        }
        if domain_paid {
            funnel.domains_paid += 1;
        }
    }
    funnel.distinct_addresses = distinct_addresses.len();

    // Revenue (Table 2).
    let mut revenue = RevenueRow {
        payments_any: funnel.payments_any,
        payments_co_occurring: funnel.payments_final,
        ..Default::default()
    };
    for p in &payments {
        revenue.usd_any += p.usd;
        if p.co_occurring && !p.from_known_scam {
            revenue.usd_co_occurring += p.usd;
            match p.coin() {
                Coin::Btc => revenue.usd_btc += p.usd,
                Coin::Eth => revenue.usd_eth += p.usd,
                Coin::Xrp => revenue.usd_xrp += p.usd,
            }
        }
    }

    PaymentAnalysis {
        payments,
        funnel,
        revenue,
    }
}

/// Run payment isolation for the Twitter dataset: a payment co-occurs
/// if it lands within one week after a promoting tweet.
pub fn analyze_twitter<C: ChainReads>(
    dataset: &TwitterDataset,
    chains: &C,
    prices: &PriceOracle,
    tags: &TagResolver,
    clustering: &ClusterView,
    known_scam_addresses: &HashSet<Address>,
) -> PaymentAnalysis {
    analyze_twitter_with_window(
        dataset,
        TWEET_WINDOW,
        chains,
        prices,
        tags,
        clustering,
        known_scam_addresses,
    )
}

/// [`analyze_twitter`] with an explicit co-occurrence window width
/// (used by the window-sweep ablation).
#[allow(clippy::too_many_arguments)]
pub fn analyze_twitter_with_window<C: ChainReads>(
    dataset: &TwitterDataset,
    window: gt_sim::SimDuration,
    chains: &C,
    prices: &PriceOracle,
    tags: &TagResolver,
    clustering: &ClusterView,
    known_scam_addresses: &HashSet<Address>,
) -> PaymentAnalysis {
    let domains = dataset
        .domains
        .iter()
        .map(|d| {
            let windows: Vec<(SimTime, SimTime)> =
                d.tweet_times.iter().map(|&t| (t, t + window)).collect();
            (d.domain.clone(), d.addresses.clone(), windows)
        })
        .collect();
    isolate(
        domains,
        chains,
        prices,
        tags,
        clustering,
        known_scam_addresses,
    )
}

/// Run payment isolation for the YouTube dataset: a payment co-occurs
/// if it lands during a promoting stream or within eight hours after.
pub fn analyze_youtube<C: ChainReads>(
    dataset: &YouTubeDataset,
    chains: &C,
    prices: &PriceOracle,
    tags: &TagResolver,
    clustering: &ClusterView,
    known_scam_addresses: &HashSet<Address>,
) -> PaymentAnalysis {
    let domains = dataset
        .domains
        .iter()
        .map(|d| {
            let windows: Vec<(SimTime, SimTime)> = d
                .stream_spans
                .iter()
                .map(|&(start, end)| (start, end + STREAM_TAIL_WINDOW))
                .collect();
            (d.domain.clone(), d.validation.addresses.clone(), windows)
        })
        .collect();
    isolate(
        domains,
        chains,
        prices,
        tags,
        clustering,
        known_scam_addresses,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_addr::BtcAddress;
    use gt_chain::{Amount, ChainView};
    use gt_cluster::TagService;
    use gt_sim::RngFactory;

    fn addr(b: u8) -> Address {
        Address::Btc(BtcAddress::P2pkh([b; 20]))
    }

    fn btc(b: u8) -> BtcAddress {
        BtcAddress::P2pkh([b; 20])
    }

    fn setup() -> (ChainView, PriceOracle, TagService) {
        (
            ChainView::new(),
            PriceOracle::new(&RngFactory::new(1)),
            TagService::new(),
        )
    }

    fn t(days: i64, secs: i64) -> SimTime {
        SimTime::from_ymd(2023, 9, 1) + SimDuration::days(days) + SimDuration::seconds(secs)
    }

    fn pay(chains: &mut ChainView, from: u8, to: u8, amount: u64, at: SimTime) {
        chains
            .btc
            .coinbase(btc(from), Amount(amount * 2), at)
            .unwrap();
        chains
            .btc
            .pay(
                &[btc(from)],
                btc(to),
                Amount(amount),
                btc(from),
                Amount(100),
                at,
            )
            .unwrap();
    }

    fn analyze(
        chains: &ChainView,
        prices: &PriceOracle,
        tags: &TagService,
        windows: Vec<(SimTime, SimTime)>,
        known: &HashSet<Address>,
    ) -> PaymentAnalysis {
        let clustering = ClusterView::build(&chains.btc);
        isolate(
            vec![("scam.com".into(), vec![addr(9)], windows)],
            chains,
            prices,
            &tags.resolver(&clustering),
            &clustering,
            known,
        )
    }

    #[test]
    fn splits_co_occurring_from_background() {
        let (mut chains, prices, tags) = setup();
        pay(&mut chains, 1, 9, 50_000_000, t(0, 3600)); // inside window
        pay(&mut chains, 2, 9, 50_000_000, t(30, 0)); // outside
        let windows = vec![(t(0, 0), t(7, 0))];
        let analysis = analyze(&chains, &prices, &tags, windows, &HashSet::new());
        assert_eq!(analysis.funnel.payments_any, 2);
        assert_eq!(analysis.funnel.payments_final, 1);
        assert_eq!(analysis.funnel.domains_paid, 1);
        assert!(analysis.revenue.usd_any > analysis.revenue.usd_co_occurring);
        assert!(analysis.revenue.usd_btc > 0.0);
        assert_eq!(analysis.revenue.usd_eth, 0.0);
    }

    #[test]
    fn known_scam_senders_are_removed() {
        let (mut chains, prices, tags) = setup();
        pay(&mut chains, 1, 9, 10_000_000, t(0, 3600)); // victim
        pay(&mut chains, 7, 9, 10_000_000, t(0, 7200)); // consolidation
        let known: HashSet<Address> = [addr(7)].into_iter().collect();
        let windows = vec![(t(0, 0), t(7, 0))];
        let analysis = analyze(&chains, &prices, &tags, windows, &known);
        assert_eq!(analysis.funnel.payments_co_occurring_raw, 2);
        assert_eq!(analysis.funnel.consolidations_removed, 1);
        assert_eq!(analysis.funnel.payments_final, 1);
        // Revenue excludes the consolidation.
        let victim_usd: f64 = analysis.victim_payments().map(|p| p.usd).sum();
        assert!((victim_usd - analysis.revenue.usd_co_occurring).abs() < 1e-9);
    }

    #[test]
    fn scam_tagged_senders_also_removed() {
        let (mut chains, prices, mut tags) = setup();
        pay(&mut chains, 5, 9, 10_000_000, t(1, 0));
        tags.tag(addr(5), Category::Scam);
        let windows = vec![(t(0, 0), t(7, 0))];
        let analysis = analyze(&chains, &prices, &tags, windows, &HashSet::new());
        assert_eq!(analysis.funnel.consolidations_removed, 1);
        assert_eq!(analysis.funnel.payments_final, 0);
    }

    #[test]
    fn unpaid_domains_counted() {
        let (chains, prices, tags) = setup();
        let analysis = analyze(
            &chains,
            &prices,
            &tags,
            vec![(t(0, 0), t(7, 0))],
            &HashSet::new(),
        );
        assert_eq!(analysis.funnel.domains_with_coin, 1);
        assert_eq!(analysis.funnel.domains_paid, 0);
        assert_eq!(analysis.funnel.payments_any, 0);
    }

    #[test]
    fn window_boundaries_are_inclusive() {
        let (mut chains, prices, tags) = setup();
        pay(&mut chains, 1, 9, 10_000_000, t(7, 0)); // exactly at close
        let windows = vec![(t(0, 0), t(7, 0))];
        let analysis = analyze(&chains, &prices, &tags, windows, &HashSet::new());
        assert_eq!(analysis.funnel.payments_final, 1);
    }
}
