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
        for &id in &domain.tweets {
            let t = snapshot.tweet(id).expect("dataset tweet exists");
            tweets += 1;
            if !t.hashtags.is_empty() {
                hashtags += 1;
            }
            if !t.mentions.is_empty() {
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
    use crate::datasets::build_twitter_dataset;
    use gt_sim::RngFactory;
    use gt_world::sites::DomainFactory;
    use gt_world::WorldConfig;

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
