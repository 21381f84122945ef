//! Invariants of generated worlds, across several seeds and scales.

use gt_addr::Coin;
use gt_sim::SimDuration;
use gt_world::truth::Platform;
use gt_world::{World, WorldConfig};

fn worlds() -> Vec<World> {
    [1u64, 2, 3]
        .into_iter()
        .map(|seed| {
            let mut config = WorldConfig::scaled(0.02);
            config.seed = seed;
            World::generate(config)
        })
        .collect()
}

#[test]
fn all_landing_page_addresses_are_valid() {
    for world in worlds() {
        for domain in world.truth.all_domains() {
            for display in &domain.addresses {
                match &display.parsed {
                    Some(addr) => {
                        assert_eq!(
                            gt_addr::validate_any(&display.text),
                            Some(*addr),
                            "tracked address on {} must validate",
                            domain.domain
                        );
                    }
                    None => {
                        assert!(
                            gt_addr::validate_any(&display.text).is_none(),
                            "other-coin address on {} must NOT validate as BTC/ETH/XRP",
                            domain.domain
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn every_scam_domain_is_hosted() {
    for world in worlds() {
        for domain in world.truth.all_domains() {
            assert!(
                world.web.scam_site(&domain.domain).is_some(),
                "{} not hosted",
                domain.domain
            );
        }
    }
}

#[test]
fn co_occurring_payments_sit_inside_lure_windows() {
    for world in worlds() {
        // Twitter: within 7 days after some tweet of the domain's op.
        let tweet_times: Vec<Vec<gt_sim::SimTime>> = world
            .truth
            .twitter_domains
            .iter()
            .map(|d| {
                world
                    .twitter
                    .tweets_with_domain(&d.domain)
                    .iter()
                    .map(|&id| world.twitter.tweet(id).unwrap().time)
                    .collect()
            })
            .collect();
        for payment in world
            .truth
            .payments_for(Platform::Twitter)
            .filter(|p| p.co_occurring)
        {
            // Find the recipient's domain(s) and check a window matches.
            let ok = world
                .truth
                .twitter_domains
                .iter()
                .enumerate()
                .filter(|(_, d)| d.tracked_addresses().any(|a| a == payment.recipient))
                .any(|(i, _)| {
                    tweet_times[i]
                        .iter()
                        .any(|&t| payment.time >= t && payment.time <= t + SimDuration::days(7))
                });
            assert!(ok, "payment {:?} outside all windows", payment.tx);
        }
    }
}

#[test]
fn payments_exist_on_chain_with_matching_usd() {
    for world in worlds() {
        for payment in &world.truth.payments {
            let incoming = world.chains.incoming(payment.recipient);
            let transfer = incoming
                .iter()
                .find(|t| t.tx == payment.tx)
                .unwrap_or_else(|| panic!("payment {:?} missing on chain", payment.tx));
            let usd = world
                .prices
                .to_usd(transfer.tx.coin, transfer.amount.0, transfer.time);
            assert!(
                (usd - payment.usd).abs() < 0.01,
                "usd mismatch for {:?}: {} vs {}",
                payment.tx,
                usd,
                payment.usd
            );
        }
    }
}

#[test]
fn victims_use_one_stable_sender_per_coin() {
    for world in worlds() {
        use std::collections::HashMap;
        let mut senders: HashMap<(u64, Coin), gt_addr::Address> = HashMap::new();
        for payment in world.truth.payments.iter().filter(|p| p.co_occurring) {
            let incoming = world.chains.incoming(payment.recipient);
            let transfer = incoming.iter().find(|t| t.tx == payment.tx).unwrap();
            let sender = transfer.senders[0];
            let key = (payment.victim, sender.coin());
            let prev = senders.insert(key, sender);
            if let Some(prev) = prev {
                assert_eq!(prev, sender, "victim {} changed wallets", payment.victim);
            }
        }
    }
}

#[test]
fn background_payments_avoid_co_occurrence_windows() {
    for world in worlds() {
        for payment in world.truth.payments.iter().filter(|p| !p.co_occurring) {
            match payment.platform {
                Platform::Twitter => {
                    // Strictly after every tweet window of the domains
                    // holding that address.
                    for d in &world.truth.twitter_domains {
                        if d.tracked_addresses().any(|a| a == payment.recipient) {
                            for &id in world.twitter.tweets_with_domain(&d.domain) {
                                let t = world.twitter.tweet(id).unwrap();
                                assert!(
                                    payment.time > t.time + SimDuration::days(7)
                                        || payment.time < t.time,
                                    "background payment {:?} inside a window",
                                    payment.tx
                                );
                            }
                        }
                    }
                }
                Platform::YouTube => {
                    for (i, d) in world.truth.youtube_domains.iter().enumerate() {
                        let _ = i;
                        if d.tracked_addresses().any(|a| a == payment.recipient) {
                            for &sid in &world.truth.scam_streams {
                                let s = world.youtube.stream(sid);
                                // Only streams promoting this domain matter;
                                // approximate by checking the QR URL.
                                let promotes = match &s.video {
                                    gt_social::StreamVideo::ScamLoop { qr_url, .. } => {
                                        qr_url.contains(&d.domain)
                                    }
                                    _ => s.chat.iter().any(|m| m.text.contains(&d.domain)),
                                };
                                if promotes {
                                    assert!(
                                        payment.time > s.end + SimDuration::hours(8)
                                            || payment.time < s.start,
                                        "background payment {:?} inside stream window",
                                        payment.tx
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn scam_streams_lead_to_their_domain() {
    for world in worlds() {
        for &sid in &world.truth.scam_streams {
            let s = world.youtube.stream(sid);
            let lead = match &s.video {
                gt_social::StreamVideo::ScamLoop { qr_url, .. } => Some(qr_url.clone()),
                gt_social::StreamVideo::Benign => s
                    .chat
                    .iter()
                    .find(|m| m.text.contains("https://"))
                    .map(|m| m.text.clone()),
            };
            let lead = lead.expect("every scam stream has a lead");
            let matches_some_domain = world
                .truth
                .youtube_domains
                .iter()
                .any(|d| lead.contains(&d.domain));
            assert!(matches_some_domain, "lead {lead} matches no domain");
        }
    }
}

#[test]
fn different_seeds_differ() {
    let w = worlds();
    assert_ne!(
        w[0].truth.twitter_domains[0].domain,
        w[1].truth.twitter_domains[0].domain
    );
    assert_ne!(
        w[0].truth.payments.first().map(|p| p.usd),
        w[1].truth.payments.first().map(|p| p.usd)
    );
}
