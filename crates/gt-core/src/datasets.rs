//! Dataset assembly (Table 1).

use crate::validate::{validate_annotated_addresses, validate_page, ValidatedSite};
use gt_addr::Address;
use gt_sim::SimTime;
use gt_social::{LiveStreamId, TweetId, TwitterAccountId, TwitterSnapshot};
use gt_store::{StoreDecode, StoreEncode};
use gt_stream::keywords::SearchKeywords;
use gt_stream::monitor::MonitorReport;
use gt_web::Url;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// One Twitter scam domain with its promoting tweets and annotated
/// addresses.
#[derive(Debug, Clone, PartialEq, StoreEncode, StoreDecode)]
pub struct TwitterDomain {
    pub domain: String,
    /// In id order.
    pub tweets: Vec<TweetId>,
    pub tweet_times: Vec<SimTime>,
    /// Checksum-valid BTC/ETH/XRP addresses from the corpus annotation.
    pub addresses: Vec<Address>,
}

/// The assembled Twitter dataset.
#[derive(Debug, Default, StoreEncode, StoreDecode)]
pub struct TwitterDataset {
    pub domains: Vec<TwitterDomain>,
    pub accounts: BTreeSet<TwitterAccountId>,
    pub tweet_count: usize,
}

impl TwitterDataset {
    /// Table 1 row: (domains, accounts, artifacts).
    pub fn table1_row(&self) -> (usize, usize, usize) {
        (self.domains.len(), self.accounts.len(), self.tweet_count)
    }

    /// Domains with at least one tracked (BTC/ETH/XRP) address.
    pub fn domains_with_coin(&self) -> impl Iterator<Item = &TwitterDomain> {
        self.domains.iter().filter(|d| !d.addresses.is_empty())
    }
}

/// Build the Twitter dataset: find every corpus domain that appears in
/// at least one tweet, collect those tweets and accounts, and validate
/// the annotated addresses.
pub fn build_twitter_dataset(
    snapshot: &TwitterSnapshot,
    scam_db: &gt_world::sites::ScamDomainDb,
) -> TwitterDataset {
    let tweets = snapshot.tweets();
    let mut domains = Vec::new();
    let mut authors = Vec::new();
    let mut tweet_count = 0;
    for entry in &scam_db.entries {
        let ids = snapshot.tweets_with_domain(&entry.domain);
        if ids.is_empty() {
            continue;
        }
        let mut times = Vec::with_capacity(ids.len());
        for id in ids {
            let tweet = &tweets[id.0 as usize];
            times.push(tweet.time);
            authors.push(tweet.author);
        }
        times.sort_unstable();
        tweet_count += ids.len();
        domains.push(TwitterDomain {
            domain: entry.domain.clone(),
            tweets: ids.to_vec(),
            tweet_times: times,
            addresses: validate_annotated_addresses(&entry.addresses),
        });
    }
    domains.sort_by(|a, b| a.domain.cmp(&b.domain));
    // The set is built in bulk from the sorted, distinct authors rather
    // than by one insert per tweet.
    authors.sort_unstable();
    authors.dedup();
    TwitterDataset {
        domains,
        accounts: authors.into_iter().collect(),
        tweet_count,
    }
}

/// One YouTube scam domain with the streams that promoted it.
#[derive(Debug, Clone, PartialEq, StoreEncode, StoreDecode)]
pub struct YouTubeDomain {
    pub domain: String,
    pub validation: ValidatedSite,
    /// Observed (first_seen, last_seen) spans of promoting streams.
    pub stream_spans: Vec<(SimTime, SimTime)>,
    pub streams: Vec<LiveStreamId>,
}

/// The assembled YouTube dataset.
#[derive(Debug, Default, StoreEncode, StoreDecode)]
pub struct YouTubeDataset {
    pub domains: Vec<YouTubeDomain>,
    /// Scam streams (those that promoted a validated domain).
    pub scam_streams: BTreeSet<LiveStreamId>,
    /// Channels hosting them.
    pub channels: BTreeSet<gt_social::ChannelId>,
}

impl YouTubeDataset {
    pub fn table1_row(&self) -> (usize, usize, usize) {
        (
            self.domains.len(),
            self.channels.len(),
            self.scam_streams.len(),
        )
    }

    pub fn domains_with_coin(&self) -> impl Iterator<Item = &YouTubeDomain> {
        self.domains
            .iter()
            .filter(|d| !d.validation.addresses.is_empty())
    }
}

/// Build the YouTube dataset from a monitoring report: validate every
/// crawled page, keep scam-validated domains, and attach the observed
/// spans of the streams that promoted them.
pub fn build_youtube_dataset(report: &MonitorReport, keywords: &SearchKeywords) -> YouTubeDataset {
    // Validate each crawled page, grouped by domain (any validating URL
    // marks the domain). Pages are visited in URL order, so a domain
    // with several validating pages keeps its lowest URL's verdict
    // whatever order the page map iterates in.
    let mut pages: Vec<_> = report.pages.iter().collect();
    pages.sort_unstable_by_key(|(url, _)| *url);
    let mut validated: BTreeMap<String, ValidatedSite> = BTreeMap::new();
    for (_, page) in pages {
        let Some(url) = Url::parse(&page.url) else {
            continue;
        };
        let v = validate_page(&url.host, &page.html, keywords);
        if v.is_scam() {
            validated.entry(url.host.clone()).or_insert(v);
        }
    }

    // Map lead URLs to domains, then to the streams that carried them.
    let mut dataset = YouTubeDataset::default();
    let mut per_domain_streams: BTreeMap<String, BTreeSet<LiveStreamId>> = BTreeMap::new();
    for lead in &report.leads {
        let Some(url) = Url::parse(&lead.url) else {
            continue;
        };
        if validated.contains_key(&url.host) {
            per_domain_streams
                .entry(url.host.clone())
                .or_default()
                .insert(lead.stream);
        }
    }

    for (domain, streams) in per_domain_streams {
        let validation = validated[&domain].clone();
        let mut spans = Vec::new();
        for &sid in &streams {
            if let Some(obs) = report.observed(sid) {
                spans.push((obs.first_seen, obs.last_seen));
                dataset.scam_streams.insert(sid);
                dataset.channels.insert(obs.channel);
            }
        }
        spans.sort();
        dataset.domains.push(YouTubeDomain {
            domain,
            validation,
            stream_spans: spans,
            streams: streams.into_iter().collect(),
        });
    }
    dataset
}

/// The Table 1 summary for both platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, StoreEncode, StoreDecode)]
pub struct Table1 {
    pub twitter_domains: usize,
    pub twitter_accounts: usize,
    pub twitter_artifacts: usize,
    pub youtube_domains: usize,
    pub youtube_accounts: usize,
    pub youtube_artifacts: usize,
}

impl Table1 {
    pub fn new(twitter: &TwitterDataset, youtube: &YouTubeDataset) -> Table1 {
        let (td, ta, tt) = twitter.table1_row();
        let (yd, ya, ys) = youtube.table1_row();
        Table1 {
            twitter_domains: td,
            twitter_accounts: ta,
            twitter_artifacts: tt,
            youtube_domains: yd,
            youtube_accounts: ya,
            youtube_artifacts: ys,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_sim::RngFactory;
    use gt_world::sites::DomainFactory;
    use gt_world::WorldConfig;

    #[test]
    fn twitter_dataset_finds_promoted_domains_only() {
        let config = WorldConfig::test_small();
        let factory = RngFactory::new(config.seed);
        let mut snapshot = TwitterSnapshot::new();
        let mut df = DomainFactory::new();
        let world = gt_world::twitter_gen::generate(&config, &factory, &mut df, &mut snapshot);

        let dataset = build_twitter_dataset(&snapshot, &world.scam_db);
        // Every domain in the dataset actually has tweets.
        for d in &dataset.domains {
            assert!(!d.tweets.is_empty());
        }
        // The corpus is much larger than the promoted subset.
        assert!(dataset.domains.len() < world.scam_db.len());
        // Artifact count equals the sum over domains.
        let total: usize = dataset.domains.iter().map(|d| d.tweets.len()).sum();
        assert_eq!(total, dataset.tweet_count);
        assert!(dataset.accounts.len() > 1);
    }

    #[test]
    fn youtube_validation_keeps_the_lowest_url_whatever_the_map_order() {
        use gt_stream::keywords::search_keyword_set;
        use gt_stream::monitor::{CrawledPage, UrlLead, UrlSource};

        // Two validating pages on one host, each with its own address.
        let pages = [
            ("http://give.io/b", "rN7n7otQDd6FczFgLdSqtcsAUxDkw6fzRH"),
            ("http://give.io/a", "1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa"),
        ];
        let keywords = search_keyword_set();
        let lowest = validate_page(
            "give.io",
            &format!("<html>{}</html>", pages[1].1),
            &keywords,
        );
        assert!(lowest.is_scam());
        // Each report's page map gets its own hasher, so 16 of them
        // cover both iteration orders with near certainty.
        for _ in 0..16 {
            let report = MonitorReport {
                pages: pages
                    .iter()
                    .map(|&(url, addr)| {
                        let page = CrawledPage {
                            url: url.to_string(),
                            html: format!("<html>{addr}</html>"),
                            fetched: SimTime(0),
                        };
                        (url.to_string(), page)
                    })
                    .collect(),
                leads: vec![UrlLead {
                    url: pages[0].0.to_string(),
                    source: UrlSource::QrCode,
                    stream: LiveStreamId(0),
                    first_seen: SimTime(0),
                }],
                ..MonitorReport::default()
            };
            let dataset = build_youtube_dataset(&report, &keywords);
            assert_eq!(dataset.domains.len(), 1);
            assert_eq!(dataset.domains[0].validation, lowest);
        }
    }

    #[test]
    fn twitter_addresses_are_validated() {
        let config = WorldConfig::test_small();
        let factory = RngFactory::new(config.seed);
        let mut snapshot = TwitterSnapshot::new();
        let mut df = DomainFactory::new();
        let world = gt_world::twitter_gen::generate(&config, &factory, &mut df, &mut snapshot);
        let dataset = build_twitter_dataset(&snapshot, &world.scam_db);
        // Some domains carry tracked addresses, some are other-coin only.
        let with = dataset.domains_with_coin().count();
        assert!(with > 0);
        assert!(with <= dataset.domains.len());
    }
}
