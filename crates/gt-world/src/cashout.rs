//! Scammer cash-out flows (Section 5.5).
//!
//! After the campaigns, funds leave the scam addresses: mostly to fresh
//! unlabeled addresses (peeling / self-custody), a few percent directly
//! to exchanges, and occasional hops to token contracts, mixers, other
//! scams and sanctioned entities. BTC addresses are spent with
//! single-input transactions ~87% of the time (keeping their
//! multi-input clusters at size one); the rest co-spend a sibling scam
//! address, producing the paper's minority of larger clusters.

use crate::services::ServiceDirectory;
use gt_addr::{Address, AddressGenerator, Coin};
use gt_chain::{Amount, ChainView, TxOut};
use gt_cluster::Category;
use gt_sim::dist::sample_weighted;
use gt_sim::{RngFactory, SimDuration, SimTime};
use gt_store::{StoreDecode, StoreEncode};
use rand::Rng;
use std::collections::HashMap;

/// Outcome counters for tests / EXPERIMENTS.md.
#[derive(Debug, Default, Clone, PartialEq, Eq, StoreEncode, StoreDecode)]
pub struct CashoutSummary {
    /// Distinct recipients of outgoing transfers.
    pub recipients: usize,
    /// Recipients by category (unlabeled recipients are absent).
    pub by_category: HashMap<Category, usize>,
    /// BTC scam addresses spent via a co-spend (cluster > 1).
    pub btc_cospent: usize,
    /// BTC scam addresses spent single-input.
    pub btc_single: usize,
}

/// Destination category mix per out-edge. Fractions follow Section 5.5
/// (57 exchange, 13 token contract, 4 mixing, 22 scam, 13 sanctioned of
/// 1,363 recipients; the rest fresh unlabeled addresses).
const DEST_MIX: [(Option<Category>, f64); 6] = [
    (None, 0.9200),
    (Some(Category::Exchange), 0.0418),
    (Some(Category::Scam), 0.0161),
    (Some(Category::TokenSmartContract), 0.0095),
    (Some(Category::SanctionedEntity), 0.0095),
    (Some(Category::Mixing), 0.0031),
];

/// Fraction of BTC scam addresses that get co-spent with a sibling.
const BTC_COSPEND_RATE: f64 = 0.05;

/// Run cash-out for every scam address that holds a balance.
///
/// `label` scopes the RNG stream; `start` must be later than every
/// incoming payment.
pub fn run(
    factory: &RngFactory,
    label: &str,
    chains: &mut ChainView,
    services: &ServiceDirectory,
    scam_addresses: &[Address],
    start: SimTime,
) -> CashoutSummary {
    let mut rng = factory.rng(&format!("cashout-{label}"));
    let mut fresh = AddressGenerator::new(factory.rng(&format!("cashout-fresh-{label}")));
    let mut summary = CashoutSummary::default();
    let mut seen_recipients = std::collections::HashSet::new();
    let mut intermediaries: Vec<Address> = Vec::new();
    let weights: Vec<f64> = DEST_MIX.iter().map(|&(_, w)| w).collect();

    let pick_dest = |coin: Coin,
                     rng: &mut rand::rngs::StdRng,
                     fresh: &mut AddressGenerator<rand::rngs::StdRng>| {
        let (category, _) = DEST_MIX[sample_weighted(rng, &weights)];
        match category {
            Some(c) => (
                services
                    .random_of_category(c, coin, rng)
                    .expect("directory covers every category"),
                Some(c),
            ),
            None => (fresh.generate(coin), None),
        }
    };

    let mut now = start;

    // ---- BTC: explicit UTXO spends, mostly single-input ----
    let btc_addrs: Vec<gt_addr::BtcAddress> = scam_addresses
        .iter()
        .filter_map(|a| match a {
            Address::Btc(b) if chains.btc.balance(*b) > Amount::ZERO => Some(*b),
            _ => None,
        })
        .collect();
    let mut i = 0;
    while i < btc_addrs.len() {
        now += SimDuration::minutes(30);
        let cospend = rng.gen_bool(BTC_COSPEND_RATE) && i + 1 < btc_addrs.len();
        let mut group: Vec<gt_addr::BtcAddress> = if cospend {
            summary.btc_cospent += 2;
            let g = vec![btc_addrs[i], btc_addrs[i + 1]];
            i += 2;
            g
        } else {
            summary.btc_single += 1;
            let g = vec![btc_addrs[i]];
            i += 1;
            g
        };
        // Two domains can share one address, so a co-spend may pair an
        // address with itself; its outputs must only be spent once.
        group.dedup();
        let mut inputs = Vec::new();
        let mut total = 0u64;
        for a in &group {
            for (op, txo) in chains.btc.utxos_of(*a) {
                inputs.push(op);
                total += txo.value.0;
            }
        }
        if inputs.is_empty() || total < 10_000 {
            continue;
        }
        let fee = 2_000u64.min(total / 10);
        let spendable = total - fee;
        let n_out = rng.gen_range(4..=6usize);
        let mut outputs = Vec::new();
        let mut remaining = spendable;
        for k in 0..n_out {
            let value = if k + 1 == n_out {
                remaining
            } else {
                let v = remaining / (n_out - k) as u64;
                let v = rng.gen_range(v / 2..=v.max(1));
                remaining -= v;
                v
            };
            if value == 0 {
                continue;
            }
            let (dest, category) = pick_dest(Coin::Btc, &mut rng, &mut fresh);
            let Address::Btc(dest_btc) = dest else {
                unreachable!()
            };
            outputs.push(TxOut {
                address: dest_btc,
                value: Amount(value),
            });
            if seen_recipients.insert(dest) {
                summary.recipients += 1;
                match category {
                    Some(c) => {
                        *summary.by_category.entry(c).or_insert(0) += 1;
                    }
                    None => intermediaries.push(dest),
                }
            }
        }
        if outputs.is_empty() {
            continue;
        }
        chains
            .btc
            .submit(&inputs, &outputs, now)
            .expect("cash-out spend");
    }

    // ---- ETH / XRP: account transfers ----
    for &addr in scam_addresses {
        match addr {
            Address::Eth(a) => {
                let balance = chains.eth.balance(a).0;
                if balance < 10_000 {
                    continue;
                }
                now += SimDuration::minutes(17);
                let hops = rng.gen_range(3..=5usize);
                let mut remaining = balance - balance / 100; // leave dust
                for k in 0..hops {
                    let value = if k + 1 == hops {
                        remaining
                    } else {
                        let v = remaining / (hops - k) as u64;
                        remaining -= v;
                        v
                    };
                    if value == 0 {
                        continue;
                    }
                    let (dest, category) = pick_dest(Coin::Eth, &mut rng, &mut fresh);
                    let Address::Eth(dest_eth) = dest else {
                        unreachable!()
                    };
                    chains
                        .eth
                        .transfer(a, dest_eth, Amount(value), now)
                        .expect("eth cash-out");
                    if seen_recipients.insert(dest) {
                        summary.recipients += 1;
                        match category {
                            Some(c) => {
                                *summary.by_category.entry(c).or_insert(0) += 1;
                            }
                            None => intermediaries.push(dest),
                        }
                    }
                }
            }
            Address::Xrp(a) => {
                let balance = chains.xrp.balance(a).0;
                if balance < 10_000 {
                    continue;
                }
                now += SimDuration::minutes(13);
                let hops = rng.gen_range(1..=3usize);
                let mut remaining = balance - 1_000 * hops as u64; // fee buffer
                for k in 0..hops {
                    let value = if k + 1 == hops {
                        remaining
                    } else {
                        let v = remaining / (hops - k) as u64;
                        remaining -= v;
                        v
                    };
                    if value == 0 {
                        continue;
                    }
                    let (dest, category) = pick_dest(Coin::Xrp, &mut rng, &mut fresh);
                    let Address::Xrp(dest_xrp) = dest else {
                        unreachable!()
                    };
                    chains
                        .xrp
                        .send(a, dest_xrp, Amount(value), None, now)
                        .expect("xrp cash-out");
                    if seen_recipients.insert(dest) {
                        summary.recipients += 1;
                        match category {
                            Some(c) => {
                                *summary.by_category.entry(c).or_insert(0) += 1;
                            }
                            None => intermediaries.push(dest),
                        }
                    }
                }
            }
            Address::Btc(_) => {} // handled above
        }
    }

    // ---- second hop: intermediaries move on ----
    // Direct recipients are 87% unlabeled, but the money does not stop
    // there: most intermediaries forward to an exchange within days
    // (the Phillips & Wilder observation the paper cites — indirect
    // exchange exposure far exceeds the 4% of direct edges). Multi-hop
    // tracing (`gt_cluster::flows`) recovers this structure.
    now += SimDuration::days(2);
    for addr in intermediaries {
        now += SimDuration::minutes(11);
        // 60%: deposit at an exchange; 15%: another labeled service;
        // 25%: hold (trace dead-ends).
        let roll: f64 = rng.gen();
        let category = if roll < 0.60 {
            Some(Category::Exchange)
        } else if roll < 0.70 {
            Some(Category::Mixing)
        } else if roll < 0.75 {
            Some(Category::Scam)
        } else {
            None
        };
        let Some(category) = category else { continue };
        match addr {
            Address::Btc(a) => {
                let balance = chains.btc.balance(a);
                if balance.0 < 20_000 {
                    continue;
                }
                let dest = services
                    .random_of_category(category, Coin::Btc, &mut rng)
                    .expect("directory covers category");
                let Address::Btc(dest_btc) = dest else {
                    unreachable!()
                };
                let _ = chains.btc.pay(
                    &[a],
                    dest_btc,
                    Amount(balance.0 - 10_000),
                    a,
                    Amount(2_000),
                    now,
                );
            }
            Address::Eth(a) => {
                let balance = chains.eth.balance(a);
                if balance.0 < 20_000 {
                    continue;
                }
                let dest = services
                    .random_of_category(category, Coin::Eth, &mut rng)
                    .expect("directory covers category");
                let Address::Eth(dest_eth) = dest else {
                    unreachable!()
                };
                let _ = chains
                    .eth
                    .transfer(a, dest_eth, Amount(balance.0 - 1_000), now);
            }
            Address::Xrp(a) => {
                let balance = chains.xrp.balance(a);
                if balance.0 < 20_000 {
                    continue;
                }
                let dest = services
                    .random_of_category(category, Coin::Xrp, &mut rng)
                    .expect("directory covers category");
                let Address::Xrp(dest_xrp) = dest else {
                    unreachable!()
                };
                let _ = chains
                    .xrp
                    .send(a, dest_xrp, Amount(balance.0 - 1_000), None, now);
            }
        }
    }

    summary
}
