//! Blockchain forensics demo: victims pay a scam address, the scammer
//! consolidates and cashes out, and the analysis side reconstructs the
//! story with multi-input clustering and category tagging — including
//! the CoinJoin trap the clustering must not fall into.
//!
//! ```sh
//! cargo run --example chain_forensics
//! ```

use givetake::addr::{Address, AddressGenerator, BtcAddress, Coin};
use givetake::chain::{Amount, ChainView, OutPoint, TxOut};
use givetake::cluster::{Category, ClusterView, TagService};
use givetake::sim::{RngFactory, SimDuration, SimTime};
use rand::SeedableRng;

fn btc(addr: Address) -> BtcAddress {
    match addr {
        Address::Btc(a) => a,
        _ => unreachable!(),
    }
}

fn main() {
    let factory = RngFactory::new(2024);
    let mut gen = AddressGenerator::new(rand::rngs::StdRng::seed_from_u64(
        factory.child_seed("addresses"),
    ));
    let mut chains = ChainView::new();
    let mut tags = TagService::new();
    let mut t = SimTime::from_ymd(2023, 10, 1);

    // The cast.
    let scam_a = btc(gen.generate(Coin::Btc));
    let scam_b = btc(gen.generate(Coin::Btc));
    let exchange: Vec<BtcAddress> = (0..4).map(|_| btc(gen.generate(Coin::Btc))).collect();
    let victims: Vec<BtcAddress> = (0..5).map(|_| btc(gen.generate(Coin::Btc))).collect();
    let cashout_dest = btc(gen.generate(Coin::Btc));
    let mixer = btc(gen.generate(Coin::Btc));
    for e in &exchange {
        tags.tag(Address::Btc(*e), Category::Exchange);
    }
    tags.tag(Address::Btc(mixer), Category::Mixing);

    // Fund everyone.
    for (i, v) in victims.iter().enumerate() {
        chains
            .btc
            .coinbase(*v, Amount(40_000_000 + i as u64 * 10_000_000), t)
            .unwrap();
    }
    for e in &exchange {
        chains.btc.coinbase(*e, Amount(500_000_000), t).unwrap();
    }

    // The exchange co-spends its hot wallets once (a withdrawal batch):
    // this is what lets one tag cover the whole exchange cluster.
    t += SimDuration::hours(1);
    let inputs: Vec<OutPoint> = exchange
        .iter()
        .flat_map(|e| chains.btc.utxos_of(*e).into_iter().map(|(op, _)| op))
        .collect();
    chains
        .btc
        .submit(
            &inputs,
            &[
                TxOut {
                    address: exchange[0],
                    value: Amount(1_500_000_000),
                },
                TxOut {
                    address: exchange[1],
                    value: Amount(499_990_000),
                },
            ],
            t,
        )
        .unwrap();

    // Victims pay the scam: three from personal wallets, two straight
    // from the exchange's custody.
    t += SimDuration::hours(2);
    for v in victims.iter().take(3) {
        chains
            .btc
            .pay(&[*v], scam_a, Amount(30_000_000), *v, Amount(10_000), t)
            .unwrap();
    }
    chains
        .btc
        .pay(
            &[exchange[0]],
            scam_a,
            Amount(80_000_000),
            exchange[0],
            Amount(10_000),
            t,
        )
        .unwrap();
    chains
        .btc
        .pay(
            &[exchange[1]],
            scam_b,
            Amount(120_000_000),
            exchange[1],
            Amount(10_000),
            t,
        )
        .unwrap();

    // A CoinJoin among unrelated users — clustering must skip it.
    t += SimDuration::hours(1);
    let cj_users: Vec<BtcAddress> = (0..4).map(|_| btc(gen.generate(Coin::Btc))).collect();
    for u in &cj_users {
        chains.btc.coinbase(*u, Amount(10_000_000), t).unwrap();
    }
    let cj_inputs: Vec<OutPoint> = cj_users
        .iter()
        .flat_map(|u| chains.btc.utxos_of(*u).into_iter().map(|(op, _)| op))
        .collect();
    let cj_outputs: Vec<TxOut> = (0..4)
        .map(|_| TxOut {
            address: btc(gen.generate(Coin::Btc)),
            value: Amount(9_990_000),
        })
        .collect();
    chains.btc.submit(&cj_inputs, &cj_outputs, t).unwrap();

    // The scammer co-spends both scam addresses to cash out: one output
    // to a fresh address, one to the mixer.
    t += SimDuration::days(2);
    let scam_inputs: Vec<OutPoint> = [scam_a, scam_b]
        .iter()
        .flat_map(|a| chains.btc.utxos_of(*a).into_iter().map(|(op, _)| op))
        .collect();
    chains
        .btc
        .submit(
            &scam_inputs,
            &[
                TxOut {
                    address: cashout_dest,
                    value: Amount(200_000_000),
                },
                TxOut {
                    address: mixer,
                    value: Amount(89_950_000),
                },
            ],
            t,
        )
        .unwrap();

    // ---- the forensics ----
    let clustering = ClusterView::build(&chains.btc);
    let tags = tags.resolver(&clustering);
    println!("== incoming payments to scam address A ==");
    for transfer in chains.btc.incoming(scam_a) {
        let sender = transfer.senders[0];
        let origin = tags
            .category(sender, &clustering)
            .map(|c| c.to_string())
            .unwrap_or_else(|| "unlabeled".into());
        println!(
            "  {} sat from {} ({origin}) at {}",
            transfer.amount, sender, transfer.time
        );
    }

    println!("\n== clustering ==");
    println!(
        "  scam A and scam B share a cluster after the co-spend: {}",
        clustering.same_cluster(scam_a, scam_b)
    );
    println!(
        "  exchange cluster size: {}",
        clustering.cluster_size(exchange[0]).unwrap()
    );
    println!(
        "  CoinJoin participants NOT merged: {} (skipped {} CoinJoin tx)",
        !clustering.same_cluster(cj_users[0], cj_users[1]),
        clustering.skipped_coinjoins
    );

    println!("\n== cash-out destinations ==");
    for transfer in chains.btc.outgoing(scam_a) {
        let label = tags
            .category(transfer.recipient, &clustering)
            .map(|c| c.to_string())
            .unwrap_or_else(|| "unlabeled".into());
        println!(
            "  {} sat → {} ({label})",
            transfer.amount, transfer.recipient
        );
    }
}
