//! Discoverability statistics (Section 4.2).

use crate::datasets::{TwitterDataset, YouTubeDataset};
use gt_social::TwitterSnapshot;
use gt_store::{StoreDecode, StoreEncode};
use gt_stream::keywords::SearchKeywords;
use gt_stream::monitor::MonitorReport;
use serde::Serialize;
use std::collections::HashMap;

/// Twitter tactics: how scam tweets reach audiences.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, StoreEncode, StoreDecode)]
pub struct TwitterDiscoverability {
    pub tweets: usize,
    /// Fraction carrying at least one hashtag.
    pub hashtag_rate: f64,
    /// Fraction mentioning a user.
    pub mention_rate: f64,
    /// Fraction replying to another tweet.
    pub reply_rate: f64,
}

/// Compute the Twitter tactics table.
pub fn twitter_discoverability(
    dataset: &TwitterDataset,
    snapshot: &TwitterSnapshot,
) -> TwitterDiscoverability {
    let mut tweets = 0usize;
    let mut hashtags = 0usize;
    let mut mentions = 0usize;
    let mut replies = 0usize;
    for domain in &dataset.domains {
        // A domain's tweets and the mention table are both in id order:
        // walk the table beside the tweets.
        debug_assert!(domain.tweets.windows(2).all(|w| w[0] <= w[1]));
        let mut mentioning = snapshot.mentioning().peekable();
        for &id in &domain.tweets {
            let t = snapshot.tweet(id).expect("dataset tweet exists");
            tweets += 1;
            if !snapshot.hashtags(t.hashtags).is_empty() {
                hashtags += 1;
            }
            while mentioning.next_if(|&m| m < id).is_some() {}
            if mentioning.peek() == Some(&id) {
                mentions += 1;
            }
            if t.reply_to.is_some() {
                replies += 1;
            }
        }
    }
    let n = tweets.max(1) as f64;
    TwitterDiscoverability {
        tweets,
        hashtag_rate: hashtags as f64 / n,
        mention_rate: mentions as f64 / n,
        reply_rate: replies as f64 / n,
    }
}

/// YouTube audience statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, StoreEncode, StoreDecode)]
pub struct YouTubeDiscoverability {
    pub streams: usize,
    /// Median subscribers across scam-hosting channels.
    pub channel_subscribers_median: u64,
    /// The largest channel seen.
    pub channel_subscribers_max: u64,
    /// Fraction of scam streams with a coin keyword in title,
    /// description or channel name.
    pub keyword_rate: f64,
}

/// Compute the YouTube audience stats from a monitoring report.
pub fn youtube_discoverability(
    dataset: &YouTubeDataset,
    report: &MonitorReport,
    keywords: &SearchKeywords,
) -> YouTubeDiscoverability {
    let mut subs_by_channel: HashMap<gt_social::ChannelId, u64> = HashMap::new();
    let mut with_keyword = 0usize;
    let mut streams = 0usize;
    for &sid in &dataset.scam_streams {
        let Some(obs) = report.observed(sid) else {
            continue;
        };
        streams += 1;
        subs_by_channel.insert(obs.channel, obs.channel_subscribers);
        if keywords.coins.matches(&obs.title)
            || keywords.coins.matches(&obs.description)
            || keywords.coins.matches(&obs.channel_name)
        {
            with_keyword += 1;
        }
    }
    let mut subs: Vec<u64> = subs_by_channel.values().copied().collect();
    subs.sort_unstable();
    YouTubeDiscoverability {
        streams,
        channel_subscribers_median: subs.get(subs.len() / 2).copied().unwrap_or(0),
        channel_subscribers_max: subs.last().copied().unwrap_or(0),
        keyword_rate: with_keyword as f64 / streams.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{build_twitter_dataset, TwitterDomain};
    use gt_sim::{RngFactory, SimTime};
    use gt_social::{TweetId, TwitterAccountId};
    use gt_world::sites::DomainFactory;
    use gt_world::WorldConfig;

    /// Two domains whose mentioning tweets have neighbours that mention
    /// no one, the second domain starting below where the first ends:
    /// a walk that reads a neighbour's mentions, or does not restart
    /// for each domain, counts a different set than per-tweet lookups.
    #[test]
    fn mention_walk_matches_per_tweet_lookups() {
        let mut snapshot = TwitterSnapshot::new();
        let text = snapshot.add_text("claim at a.com b.com");
        let tagged = snapshot.add_hashtags(&["btc"]);
        let untagged = snapshot.add_hashtags(&[]);
        let mentioning = [3, 7, 10];
        for i in 0..12u64 {
            snapshot.insert(
                TwitterAccountId(i),
                SimTime(i as i64),
                text,
                if i % 3 == 0 { untagged } else { tagged },
                if mentioning.contains(&i) {
                    vec![TwitterAccountId(99)]
                } else {
                    vec![]
                },
                (i % 4 == 1).then_some(TweetId(0)),
            );
        }
        let domain = |name: &str, ids: &[u64]| TwitterDomain {
            domain: name.to_string(),
            tweets: ids.iter().copied().map(TweetId).collect(),
            tweet_times: ids.iter().map(|&i| SimTime(i as i64)).collect(),
            addresses: vec![],
        };
        let dataset = TwitterDataset {
            domains: vec![
                domain("a.com", &[1, 3, 8, 10]),
                domain("b.com", &[0, 2, 6, 7, 11]),
            ],
            ..TwitterDataset::default()
        };

        let ids: Vec<TweetId> = dataset
            .domains
            .iter()
            .flat_map(|d| d.tweets.iter().copied())
            .collect();
        let count = |keep: &dyn Fn(TweetId) -> bool| ids.iter().filter(|&&id| keep(id)).count();
        let tweet = |id| snapshot.tweet(id).unwrap();
        let mentions = count(&|id| !snapshot.mentions(id).is_empty());
        let hashtags = count(&|id| !snapshot.hashtags(tweet(id).hashtags).is_empty());
        let replies = count(&|id| tweet(id).reply_to.is_some());
        assert_eq!(mentions, 3);
        let n = ids.len() as f64;
        assert_eq!(
            twitter_discoverability(&dataset, &snapshot),
            TwitterDiscoverability {
                tweets: ids.len(),
                hashtag_rate: hashtags as f64 / n,
                mention_rate: mentions as f64 / n,
                reply_rate: replies as f64 / n,
            }
        );
    }

    #[test]
    fn twitter_rates_match_generation() {
        let config = WorldConfig::scaled(0.05);
        let factory = RngFactory::new(42);
        let mut snapshot = TwitterSnapshot::new();
        let mut df = DomainFactory::new();
        let world = gt_world::twitter_gen::generate(&config, &factory, &mut df, &mut snapshot);
        let dataset = build_twitter_dataset(&snapshot, &world.scam_db);
        let stats = twitter_discoverability(&dataset, &snapshot);
        assert!(stats.tweets > 1_000);
        assert!(
            (stats.hashtag_rate - 0.96).abs() < 0.02,
            "{}",
            stats.hashtag_rate
        );
        assert!(stats.mention_rate < 0.01);
        assert!(stats.reply_rate < 0.015);
    }
}
