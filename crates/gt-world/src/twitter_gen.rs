//! Twitter-side generation: scam operations, domains, and the tweet
//! campaign (Figure 3's weekly profile, Section 4.2's discoverability
//! mix, Section 4.3's coin targeting).

use crate::config::WorldConfig;
use crate::sites::{
    other_coin_address, random_cloaking, DisplayAddress, DomainFactory, ScamDbEntry, ScamDomain,
    ScamDomainDb, PERSONAE,
};
use gt_addr::{Address, AddressGenerator, Coin};
use gt_sim::dist::{sample_weighted, Zipf};
use gt_sim::hash::FastMap;
use gt_sim::{RngFactory, SimDuration, SimTime};
use gt_social::{TagsId, TextId, TweetId, TwitterAccountId, TwitterSnapshot};
use rand::rngs::StdRng;
use rand::Rng;

/// A scam operation: owns domains and a small per-coin address pool
/// shared across its domains (the paper observed 361 domains sharing
/// only 186 addresses).
#[derive(Debug)]
pub struct ScamOp {
    pub index: usize,
    pub persona: String,
    /// Per-coin address pool (1–2 addresses per coin).
    pub btc: Vec<Address>,
    pub eth: Vec<Address>,
    pub xrp: Vec<Address>,
    /// Other-coin address strings (label, text).
    pub other: Vec<(String, String)>,
}

impl ScamOp {
    pub fn pool_for(&self, coin: Coin) -> &[Address] {
        match coin {
            Coin::Btc => &self.btc,
            Coin::Eth => &self.eth,
            Coin::Xrp => &self.xrp,
        }
    }
}

/// Normalised weekly weight profile for Figure 3 (27 weeks from
/// 2022-01-01; the March spike carries ~19.9% of all scam tweets, which
/// reproduces the 90,984-tweet peak at full scale).
pub const TWITTER_WEEKLY_PROFILE: [f64; 27] = [
    0.016, 0.019, 0.023, 0.027, 0.031, 0.036, 0.042, 0.049, 0.057, 0.199, 0.075, 0.058, 0.048,
    0.041, 0.035, 0.030, 0.026, 0.023, 0.020, 0.018, 0.016, 0.014, 0.013, 0.012, 0.011, 0.031,
    0.030,
];

/// Coin-combination distribution for scam tweets. Marginals reproduce
/// Section 4.3: XRP 91%, ETH 12%, BTC 7%.
const COIN_COMBOS: [(&[Coin], f64); 7] = [
    (&[Coin::Xrp], 0.80),
    (&[Coin::Xrp, Coin::Eth], 0.07),
    (&[Coin::Xrp, Coin::Btc], 0.04),
    (&[Coin::Eth], 0.04),
    (&[Coin::Eth, Coin::Btc], 0.01),
    (&[Coin::Btc], 0.02),
    (&[], 0.02),
];

/// Everything the Twitter generator produces.
pub struct TwitterWorld {
    pub ops: Vec<ScamOp>,
    pub domains: Vec<ScamDomain>,
    /// The CryptoScamTracker-style corpus (superset of the promoted
    /// domains, plus never-promoted ones).
    pub scam_db: ScamDomainDb,
    /// Tweet ids of every scam tweet.
    pub scam_tweets: Vec<TweetId>,
    /// Times of the tweets promoting each domain (index-aligned with
    /// `domains`), sorted ascending. Drives co-occurrence windows.
    pub lure_times: Vec<Vec<SimTime>>,
}

/// Generate the scam operations and their address pools.
pub fn generate_ops(config: &WorldConfig, factory: &RngFactory) -> Vec<ScamOp> {
    let mut rng = factory.rng("twitter-ops");
    let mut gen = AddressGenerator::new(factory.rng("twitter-op-addresses"));
    (0..config.twitter_ops)
        .map(|index| {
            let persona = PERSONAE[rng.gen_range(0..PERSONAE.len())].to_string();
            let per_coin = |rng: &mut StdRng, gen: &mut AddressGenerator<StdRng>, coin: Coin| {
                let n = if rng.gen_bool(0.35) { 1 } else { 2 };
                (0..n).map(|_| gen.generate(coin)).collect::<Vec<_>>()
            };
            let btc = per_coin(&mut rng, &mut gen, Coin::Btc);
            let eth = per_coin(&mut rng, &mut gen, Coin::Eth);
            let xrp = per_coin(&mut rng, &mut gen, Coin::Xrp);
            let other = (0..rng.gen_range(0..=2))
                .map(|_| other_coin_address(&mut rng))
                .collect();
            ScamOp {
                index,
                persona,
                btc,
                eth,
                xrp,
                other,
            }
        })
        .collect()
}

/// Generate the Twitter-promoted scam domains (and the wider corpus).
pub fn generate_domains(
    config: &WorldConfig,
    factory: &RngFactory,
    ops: &[ScamOp],
    domain_factory: &mut DomainFactory,
) -> (Vec<ScamDomain>, ScamDomainDb) {
    let mut rng = factory.rng("twitter-domains");
    let mut gen = AddressGenerator::new(factory.rng("scamdb-extra-addresses"));

    // Fraction of promoted domains that display *only* other-coin
    // addresses (paper: 103 of 361).
    // Conditioned on the op owning other-coin addresses (about two
    // thirds do), so the unconditional rate lands at the paper's
    // 103/361.
    let other_only_rate = (103.0 / 361.0) / 0.66;

    let mut domains = Vec::with_capacity(config.twitter_domains);
    for i in 0..config.twitter_domains {
        let op = &ops[i % ops.len()];
        let other_only = rng.gen_bool(other_only_rate) && !op.other.is_empty();
        let mut addresses = Vec::new();
        if other_only {
            for (label, text) in &op.other {
                addresses.push(DisplayAddress {
                    label: label.clone(),
                    text: text.clone(),
                    parsed: None,
                });
            }
        } else {
            // Display 1–3 tracked coins from the op's pool, XRP-leaning.
            let mut coins = vec![Coin::Xrp];
            if rng.gen_bool(0.45) {
                coins.push(Coin::Btc);
            }
            if rng.gen_bool(0.40) {
                coins.push(Coin::Eth);
            }
            // Occasionally swap XRP out entirely.
            if rng.gen_bool(0.15) {
                coins.remove(0);
                if coins.is_empty() {
                    coins.push(Coin::Btc);
                }
            }
            for coin in coins {
                let pool = op.pool_for(coin);
                let addr = pool[rng.gen_range(0..pool.len())];
                addresses.push(DisplayAddress::tracked(coin, addr));
            }
            // Sometimes also list an other-coin address.
            if rng.gen_bool(0.2) {
                if let Some((label, text)) = op.other.first() {
                    addresses.push(DisplayAddress {
                        label: label.clone(),
                        text: text.clone(),
                        parsed: None,
                    });
                }
            }
        }
        let online_from = config.twitter_start - SimDuration::days(rng.gen_range(5..40));
        // Most sites die within months; some persist past the window.
        let offline_from = if rng.gen_bool(0.8) {
            Some(online_from + SimDuration::days(rng.gen_range(30..400)))
        } else {
            None
        };
        domains.push(ScamDomain {
            domain: domain_factory.mint(&mut rng),
            op: op.index,
            persona: op.persona.clone(),
            addresses,
            cloaking: random_cloaking(&mut rng),
            online_from,
            offline_from,
        });
    }

    // The wider corpus: the promoted domains plus never-promoted ones
    // with their own throwaway addresses.
    let mut entries: Vec<ScamDbEntry> = domains
        .iter()
        .map(|d| ScamDbEntry {
            domain: d.domain.clone(),
            addresses: d
                .addresses
                .iter()
                .map(|a| (a.label.clone(), a.text.clone()))
                .collect(),
        })
        .collect();
    for _ in domains.len()..config.scamdb_domains {
        let coin = [Coin::Btc, Coin::Eth, Coin::Xrp][rng.gen_range(0..3)];
        let addr = gen.generate(coin);
        entries.push(ScamDbEntry {
            domain: domain_factory.mint(&mut rng),
            addresses: vec![(coin.to_string(), addr.encode())],
        });
    }
    // The paper notes missing/inaccurate annotations: drop the address
    // list from a few percent of entries.
    for entry in entries.iter_mut() {
        if rng.gen_bool(0.03) {
            entry.addresses.clear();
        }
    }

    (domains, ScamDomainDb { entries })
}

/// A coin's name as a lure shouts it (`Coin::name`, uppercased).
fn shouted_name(coin: Coin) -> &'static str {
    match coin {
        Coin::Btc => "BITCOIN",
        Coin::Eth => "ETHEREUM",
        Coin::Xrp => "RIPPLE",
    }
}

/// A scam tweet's text, `{persona} is giving away 5000 {blurb}! Send
/// now, get DOUBLE back https://{domain} ` followed by the `#`-prefixed
/// tags joined by spaces, written into one exactly-sized `String`.
fn lure_text(persona: &str, blurb: &str, domain: &str, tags: &[&str]) -> String {
    const GIVING: &str = " is giving away 5000 ";
    const BACK: &str = "! Send now, get DOUBLE back https://";
    let tags_len: usize = tags
        .iter()
        .map(|t| t.len() + 2)
        .sum::<usize>()
        .saturating_sub(1);
    let len = persona.len() + GIVING.len() + blurb.len() + BACK.len() + domain.len() + 1 + tags_len;
    let mut text = String::with_capacity(len);
    for part in [persona, GIVING, blurb, BACK, domain, " "] {
        text.push_str(part);
    }
    for (k, tag) in tags.iter().enumerate() {
        if k > 0 {
            text.push(' ');
        }
        text.push('#');
        text.push_str(tag);
    }
    debug_assert_eq!(text.len(), len);
    text
}

/// Generate the scam tweet campaign into `snapshot`.
pub fn generate_tweets(
    config: &WorldConfig,
    factory: &RngFactory,
    domains: &[ScamDomain],
    snapshot: &mut TwitterSnapshot,
) -> (Vec<TweetId>, Vec<Vec<SimTime>>) {
    let mut rng = factory.rng("twitter-tweets");
    let account_zipf = Zipf::new(config.tweet_accounts, 0.75);
    let domain_zipf = Zipf::new(domains.len(), 0.8);

    // Per-tweet coin-combo weights.
    let combo_weights: Vec<f64> = COIN_COMBOS.iter().map(|&(_, w)| w).collect();

    // Group domains by whether they're XRP-ish for theme matching.
    let mut lure_times: Vec<Vec<SimTime>> = vec![Vec::new(); domains.len()];
    let mut scam_tweets = Vec::with_capacity(config.scam_tweets);

    // Distribute tweets over the weekly profile.
    let weeks = TWITTER_WEEKLY_PROFILE.len();
    let mut per_week: Vec<usize> = TWITTER_WEEKLY_PROFILE
        .iter()
        .map(|w| (w * config.scam_tweets as f64).round() as usize)
        .collect();
    // Fix rounding drift on the largest bucket.
    let drift = config.scam_tweets as isize - per_week.iter().sum::<usize>() as isize;
    per_week[9] = (per_week[9] as isize + drift).max(0) as usize;

    // One tweet's hashtags (bare, as the snapshot stores them), reused
    // across tweets: at most two coins, a ticker and maybe a name each,
    // plus `crypto`.
    let mut tags: Vec<&'static str> = Vec::with_capacity(5);
    // Lures repeat, so each distinct list and each `(domain, blurb,
    // list)` lure goes into the snapshot's tables once, on its first
    // appearance; later tweets reuse its id.
    let mut list_ids: FastMap<Vec<&'static str>, TagsId> = FastMap::default();
    let mut lure_ids: FastMap<(usize, &'static str, TagsId), TextId> = FastMap::default();
    let mut list_id = |snapshot: &mut TwitterSnapshot, tags: &[&'static str]| {
        if let Some(&id) = list_ids.get(tags) {
            return id;
        }
        let id = snapshot.add_hashtags(tags);
        list_ids.insert(tags.to_vec(), id);
        id
    };

    // Every scam tweet plus the benign reply target.
    snapshot.reserve(config.scam_tweets + 1);

    // A couple of benign tweets so reply targets exist.
    let benign_text = snapshot.add_text("gm crypto fam, market looking interesting today");
    let benign_tags = list_id(snapshot, &["crypto"]);
    let benign_target = snapshot.insert(
        TwitterAccountId(u64::MAX),
        config.twitter_start,
        benign_text,
        benign_tags,
        vec![],
        None,
    );

    for (week, &week_tweets) in per_week.iter().enumerate().take(weeks) {
        let week_start = config.twitter_start + SimDuration::weeks(week as i64);
        for _ in 0..week_tweets {
            let time = week_start + SimDuration::seconds(rng.gen_range(0..7 * 86_400));
            let combo_idx = sample_weighted(&mut rng, &combo_weights);
            let coins = COIN_COMBOS[combo_idx].0;

            // Pick a domain; bias toward ones displaying the lead coin.
            let mut domain_idx = domain_zipf.sample(&mut rng) - 1;
            if let Some(&lead) = coins.first() {
                for _ in 0..4 {
                    if domains[domain_idx].address_for(lead).is_some() {
                        break;
                    }
                    domain_idx = domain_zipf.sample(&mut rng) - 1;
                }
            }
            let domain = &domains[domain_idx];

            let author = TwitterAccountId(account_zipf.sample(&mut rng) as u64 - 1);
            tags.clear();
            if rng.gen_bool(0.96) {
                for &coin in coins {
                    tags.push(coin.ticker());
                    if rng.gen_bool(0.5) {
                        tags.push(coin.name());
                    }
                }
                if tags.is_empty() || rng.gen_bool(0.3) {
                    tags.push("crypto");
                }
            }
            let mentions = if rng.gen_bool(0.001) {
                vec![TwitterAccountId(
                    rng.gen_range(0..config.tweet_accounts as u64),
                )]
            } else {
                vec![]
            };
            let reply_to = rng.gen_bool(0.003).then_some(benign_target);

            let coin_blurb = coins.first().map_or("CRYPTO", |&c| shouted_name(c));
            let hashtags = list_id(snapshot, &tags);
            let text = *lure_ids
                .entry((domain_idx, coin_blurb, hashtags))
                .or_insert_with(|| {
                    snapshot.add_text(lure_text(
                        &domain.persona,
                        coin_blurb,
                        &domain.domain,
                        &tags,
                    ))
                });
            let id = snapshot.insert(author, time, text, hashtags, mentions, reply_to);
            scam_tweets.push(id);
            lure_times[domain_idx].push(time);
        }
    }

    for times in &mut lure_times {
        times.sort();
    }
    (scam_tweets, lure_times)
}

/// Run the full Twitter-side generation.
pub fn generate(
    config: &WorldConfig,
    factory: &RngFactory,
    domain_factory: &mut DomainFactory,
    snapshot: &mut TwitterSnapshot,
) -> TwitterWorld {
    let ops = generate_ops(config, factory);
    let (domains, scam_db) = generate_domains(config, factory, &ops, domain_factory);
    let (scam_tweets, lure_times) = generate_tweets(config, factory, &domains, snapshot);
    TwitterWorld {
        ops,
        domains,
        scam_db,
        scam_tweets,
        lure_times,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world() -> (WorldConfig, TwitterWorld, TwitterSnapshot) {
        let config = WorldConfig::test_small();
        let factory = RngFactory::new(config.seed);
        let mut snapshot = TwitterSnapshot::new();
        let mut df = DomainFactory::new();
        let world = generate(&config, &factory, &mut df, &mut snapshot);
        (config, world, snapshot)
    }

    #[test]
    fn profile_is_normalised_with_dominant_peak() {
        let sum: f64 = TWITTER_WEEKLY_PROFILE.iter().sum();
        assert!((sum - 1.0).abs() < 0.005, "profile sums to {sum}");
        let peak = TWITTER_WEEKLY_PROFILE
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        assert!((peak - 0.199).abs() < 1e-9);
        assert_eq!(TWITTER_WEEKLY_PROFILE[9], peak, "peak in March (week 10)");
    }

    #[test]
    fn lure_text_is_the_formatted_lure() {
        for coin in Coin::ALL {
            assert_eq!(shouted_name(coin), coin.name().to_uppercase());
        }
        for tags in [&[][..], &["xrp"], &["xrp", "ripple", "crypto"]] {
            let hashed: Vec<String> = tags.iter().map(|t| format!("#{t}")).collect();
            assert_eq!(
                lure_text("Elon Musk", "RIPPLE", "xrp-2x.com", tags),
                format!(
                    "Elon Musk is giving away 5000 RIPPLE! Send now, get DOUBLE back \
                     https://xrp-2x.com {}",
                    hashed.join(" ")
                )
            );
        }
    }

    #[test]
    fn generates_configured_counts() {
        let (config, world, snapshot) = small_world();
        assert_eq!(world.domains.len(), config.twitter_domains);
        assert_eq!(world.scam_db.len(), config.scamdb_domains);
        assert_eq!(world.scam_tweets.len(), snapshot.len() - 1); // minus benign
        let total: usize = world.lure_times.iter().map(Vec::len).sum();
        assert_eq!(total, world.scam_tweets.len());
        // Within rounding of the configured volume.
        let drift = (total as isize - config.scam_tweets as isize).abs();
        assert!(drift < 30, "tweet volume drift {drift}");
    }

    #[test]
    fn tweets_embed_their_domain() {
        let (_, world, snapshot) = small_world();
        // Every promoted domain with lures is findable via the index.
        let mut promoted = 0;
        for (i, d) in world.domains.iter().enumerate() {
            let found = snapshot.tweets_with_domain(&d.domain);
            assert_eq!(
                found.len(),
                world.lure_times[i].len(),
                "domain {}",
                d.domain
            );
            if !found.is_empty() {
                promoted += 1;
            }
        }
        assert!(promoted > 0);
    }

    #[test]
    fn hashtag_and_reply_rates_roughly_match() {
        let config = WorldConfig::scaled(0.05);
        let factory = RngFactory::new(1);
        let mut snapshot = TwitterSnapshot::new();
        let mut df = DomainFactory::new();
        let world = generate(&config, &factory, &mut df, &mut snapshot);
        let tweets: Vec<_> = world
            .scam_tweets
            .iter()
            .map(|&id| snapshot.tweet(id).unwrap())
            .collect();
        let n = tweets.len() as f64;
        let hashtagged = tweets
            .iter()
            .filter(|t| !snapshot.hashtags(t.hashtags).is_empty())
            .count() as f64;
        assert!((hashtagged / n - 0.96).abs() < 0.02, "{}", hashtagged / n);
        let replies = tweets.iter().filter(|t| t.reply_to.is_some()).count() as f64;
        assert!(replies / n < 0.01, "{}", replies / n);
    }

    #[test]
    fn coin_rates_match_section_4_3() {
        let config = WorldConfig::scaled(0.05);
        let factory = RngFactory::new(2);
        let mut snapshot = TwitterSnapshot::new();
        let mut df = DomainFactory::new();
        let world = generate(&config, &factory, &mut df, &mut snapshot);
        let n = world.scam_tweets.len() as f64;
        let mut xrp = 0.0;
        let mut eth = 0.0;
        let mut btc = 0.0;
        for &id in &world.scam_tweets {
            let tags = snapshot.hashtags(snapshot.tweet(id).unwrap().hashtags);
            if tags.iter().any(|h| h == "xrp" || h == "ripple") {
                xrp += 1.0;
            }
            if tags.iter().any(|h| h == "eth" || h == "ethereum") {
                eth += 1.0;
            }
            if tags.iter().any(|h| h == "btc" || h == "bitcoin") {
                btc += 1.0;
            }
        }
        // Hashtags appear on 96% of tweets, so rates are slightly below
        // the text-level combo rates.
        assert!((xrp / n - 0.91 * 0.96).abs() < 0.03, "xrp {}", xrp / n);
        assert!((eth / n - 0.12 * 0.96).abs() < 0.02, "eth {}", eth / n);
        assert!((btc / n - 0.07 * 0.96).abs() < 0.02, "btc {}", btc / n);
    }

    #[test]
    fn ops_share_addresses_across_domains() {
        let (_, world, _) = small_world();
        // Address reuse: distinct tracked addresses must be well below
        // domains × coins.
        let mut addrs = std::collections::HashSet::new();
        for d in &world.domains {
            for a in d.tracked_addresses() {
                addrs.insert(a);
            }
        }
        let displayed: usize = world
            .domains
            .iter()
            .map(|d| d.tracked_addresses().count())
            .sum();
        assert!(
            addrs.len() < displayed || displayed <= 1,
            "no sharing happened: {} distinct of {displayed}",
            addrs.len()
        );
    }

    #[test]
    fn some_domains_are_other_coin_only() {
        let config = WorldConfig::scaled(0.3);
        let factory = RngFactory::new(3);
        let mut snapshot = TwitterSnapshot::new();
        let mut df = DomainFactory::new();
        let world = generate(&config, &factory, &mut df, &mut snapshot);
        let other_only = world
            .domains
            .iter()
            .filter(|d| d.tracked_addresses().count() == 0)
            .count();
        let frac = other_only as f64 / world.domains.len() as f64;
        // Paper: 103/361 ≈ 0.285 (our rate is conditioned on pool
        // availability so it lands a little lower).
        assert!((0.1..0.4).contains(&frac), "other-only fraction {frac}");
    }

    #[test]
    fn deterministic() {
        let (_, w1, s1) = small_world();
        let (_, w2, s2) = small_world();
        assert_eq!(w1.domains, w2.domains);
        assert_eq!(s1.len(), s2.len());
        assert_eq!(w1.scam_tweets, w2.scam_tweets);
    }
}
