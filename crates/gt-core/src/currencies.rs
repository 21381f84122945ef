//! Coin targeting (Section 4.3): which currencies the lures reference.

use crate::datasets::{TwitterDataset, YouTubeDataset};
use gt_social::TwitterSnapshot;
use gt_store::{StoreDecode, StoreEncode};
use gt_stream::monitor::MonitorReport;
use gt_text::KeywordSet;
use serde::Serialize;

/// The coins the analysis reports on, with their match keywords.
const COIN_TAGS: [(&str, &[&str]); 3] = [
    ("bitcoin", &["bitcoin", "btc"]),
    ("ethereum", &["ethereum", "eth"]),
    ("ripple", &["ripple", "xrp"]),
];

/// Per-coin reference rates among lures. Rates can sum past 1.0 since a
/// lure can reference several coins.
#[derive(Debug, Clone, PartialEq, Default, Serialize, StoreEncode, StoreDecode)]
pub struct CoinRates {
    pub lures: usize,
    /// (coin name, fraction of lures referencing it), sorted descending.
    pub rates: Vec<(String, f64)>,
}

impl CoinRates {
    pub fn rate_of(&self, coin: &str) -> f64 {
        self.rates
            .iter()
            .find(|(c, _)| c == coin)
            .map(|&(_, r)| r)
            .unwrap_or(0.0)
    }
}

/// One whole-word matcher per [`COIN_TAGS`] coin, in its order.
fn tag_sets() -> [KeywordSet; 3] {
    COIN_TAGS.map(|(_, kws)| KeywordSet::new(kws.iter().copied()))
}

/// Per-coin lure counts (in [`COIN_TAGS`] order) as rates, sorted
/// descending; ties keep that order.
fn finish(counts: [usize; 3], lures: usize) -> CoinRates {
    let mut rates: Vec<(String, f64)> = COIN_TAGS
        .iter()
        .zip(counts)
        .map(|((name, _), n)| (name.to_string(), n as f64 / lures.max(1) as f64))
        .collect();
    rates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    CoinRates { lures, rates }
}

/// Coin reference rates among scam tweets (matched on hashtags, as the
/// paper does).
pub fn twitter_coin_rates(dataset: &TwitterDataset, snapshot: &TwitterSnapshot) -> CoinRates {
    // Scam tweets repeat a few dozen hashtag lists: count each list's
    // lures by its id, then match each list once.
    let tweets = snapshot.tweets();
    let lists = snapshot.hashtag_lists();
    let mut per_list = vec![0usize; lists.len()];
    let mut lures = 0usize;
    for domain in &dataset.domains {
        lures += domain.tweets.len();
        for &id in &domain.tweets {
            per_list[tweets[id.0 as usize].hashtags.0 as usize] += 1;
        }
    }
    let sets = tag_sets();
    let mut counts = [0usize; 3];
    for (list, &n) in lists.iter().zip(&per_list).filter(|&(_, &n)| n > 0) {
        for (count, set) in counts.iter_mut().zip(&sets) {
            if set.matches(list.joined()) {
                *count += n;
            }
        }
    }
    finish(counts, lures)
}

/// Coin reference rates among scam streams (title, channel name and
/// description, as the paper does).
pub fn youtube_coin_rates(dataset: &YouTubeDataset, report: &MonitorReport) -> CoinRates {
    let sets = tag_sets();
    let mut counts = [0usize; 3];
    let mut lures = 0usize;
    for &sid in &dataset.scam_streams {
        let Some(obs) = report.observed(sid) else {
            continue;
        };
        lures += 1;
        for (count, set) in counts.iter_mut().zip(&sets) {
            if set.matches(&obs.title)
                || set.matches(&obs.description)
                || set.matches(&obs.channel_name)
            {
                *count += 1;
            }
        }
    }
    finish(counts, lures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::build_twitter_dataset;
    use gt_sim::RngFactory;
    use gt_world::sites::DomainFactory;
    use gt_world::WorldConfig;

    #[test]
    fn twitter_ripple_dominates() {
        let config = WorldConfig::scaled(0.05);
        let factory = RngFactory::new(2);
        let mut snapshot = TwitterSnapshot::new();
        let mut df = DomainFactory::new();
        let world = gt_world::twitter_gen::generate(&config, &factory, &mut df, &mut snapshot);
        let dataset = build_twitter_dataset(&snapshot, &world.scam_db);
        let rates = twitter_coin_rates(&dataset, &snapshot);
        assert_eq!(rates.rates[0].0, "ripple", "XRP is the top coin");
        assert!(rates.rate_of("ripple") > 0.8);
        assert!(rates.rate_of("ripple") > rates.rate_of("ethereum"));
        assert!(rates.rate_of("ethereum") > rates.rate_of("bitcoin"));
    }

    #[test]
    fn rate_of_unknown_coin_is_zero() {
        let rates = CoinRates {
            lures: 10,
            rates: vec![("bitcoin".into(), 0.5)],
        };
        assert_eq!(rates.rate_of("dogecoin"), 0.0);
    }
}
