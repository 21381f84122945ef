//! The Twitter stages that read the snapshot's tables by id equal a
//! plain per-tweet computation over the same world.
//!
//! `twitter_coin_rates` counts each hashtag list's lures by list id and
//! matches each list once; `twitter_discoverability` reads each tweet's
//! list and its entry in the mention table. The references below read
//! every tweet's tags as a joined string, memoised on that string, and
//! check every tweet's mentions one by one, so a list id mapped to the
//! wrong list, or a mention read from the wrong tweet, shows.

use gt_core::currencies::{twitter_coin_rates, CoinRates};
use gt_core::datasets::{build_twitter_dataset, TwitterDataset};
use gt_core::discover::{twitter_discoverability, TwitterDiscoverability};
use gt_social::{Tweet, TwitterSnapshot};
use gt_text::KeywordSet;
use gt_world::{World, WorldConfig};
use std::collections::BTreeMap;

/// Every tweet of the dataset, domain by domain.
fn dataset_tweets<'a>(
    dataset: &'a TwitterDataset,
    snapshot: &'a TwitterSnapshot,
) -> impl Iterator<Item = &'a Tweet> {
    dataset
        .domains
        .iter()
        .flat_map(|domain| &domain.tweets)
        .map(|&id| snapshot.tweet(id).expect("dataset tweet exists"))
}

fn reference_coin_rates(dataset: &TwitterDataset, snapshot: &TwitterSnapshot) -> CoinRates {
    let coins = [
        ("bitcoin", ["bitcoin", "btc"]),
        ("ethereum", ["ethereum", "eth"]),
        ("ripple", ["ripple", "xrp"]),
    ];
    let sets = coins.map(|(_, keywords)| KeywordSet::new(keywords));
    let mut memo: BTreeMap<String, [bool; 3]> = BTreeMap::new();
    let mut counts = [0usize; 3];
    let mut lures = 0usize;
    for tweet in dataset_tweets(dataset, snapshot) {
        lures += 1;
        let tags: Vec<&str> = snapshot.hashtags(tweet.hashtags).iter().collect();
        let joined = tags.join(" ");
        let hits = memo
            .entry(joined.clone())
            .or_insert_with(|| std::array::from_fn(|k| sets[k].matches(&joined)));
        for (count, &hit) in counts.iter_mut().zip(hits.iter()) {
            *count += usize::from(hit);
        }
    }
    let mut rates: Vec<(String, f64)> = coins
        .iter()
        .zip(counts)
        .map(|((name, _), n)| (name.to_string(), n as f64 / lures.max(1) as f64))
        .collect();
    rates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    CoinRates { lures, rates }
}

fn reference_discoverability(
    dataset: &TwitterDataset,
    snapshot: &TwitterSnapshot,
) -> TwitterDiscoverability {
    let (mut tweets, mut hashtags, mut mentions, mut replies) = (0usize, 0usize, 0usize, 0usize);
    for tweet in dataset_tweets(dataset, snapshot) {
        tweets += 1;
        hashtags += usize::from(snapshot.hashtags(tweet.hashtags).iter().next().is_some());
        mentions += usize::from(!snapshot.mentions(tweet.id).is_empty());
        replies += usize::from(tweet.reply_to.is_some());
    }
    let n = tweets.max(1) as f64;
    TwitterDiscoverability {
        tweets,
        hashtag_rate: hashtags as f64 / n,
        mention_rate: mentions as f64 / n,
        reply_rate: replies as f64 / n,
    }
}

#[test]
fn id_reading_stages_equal_a_per_tweet_reference() {
    let world = World::generate(WorldConfig::scaled(0.05));
    let dataset = build_twitter_dataset(&world.twitter, &world.scam_db);

    let rates = twitter_coin_rates(&dataset, &world.twitter);
    assert_eq!(rates, reference_coin_rates(&dataset, &world.twitter));
    assert!(
        rates.lures > 1_000,
        "the world carries lures: {}",
        rates.lures
    );

    let stats = twitter_discoverability(&dataset, &world.twitter);
    assert_eq!(stats, reference_discoverability(&dataset, &world.twitter));
    assert!(
        stats.mention_rate > 0.0 && stats.reply_rate > 0.0,
        "the dataset holds mentions and replies: {stats:?}"
    );
}
