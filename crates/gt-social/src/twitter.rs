//! A static snapshot of public tweets, queryable by embedded domain.
//!
//! Mirrors the dataset the paper used: "Google's Internet-wide crawl of
//! public URLs … tens of billions of tweets". The analysis only ever
//! queries it one way — *all tweets containing at least one known scam
//! domain* — so the snapshot maintains a domain inverted index built
//! with the same URL extractor the chat scanner uses.

use gt_sim::SimTime;
use gt_store::{StoreDecode, StoreEncode};
use gt_text::extract_urls;
use serde::Serialize;
use std::collections::HashMap;

/// Identifier of a tweet within the snapshot.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, StoreEncode, StoreDecode,
)]
pub struct TweetId(pub u64);

/// Identifier of a Twitter account.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, StoreEncode, StoreDecode,
)]
pub struct TwitterAccountId(pub u64);

/// A public tweet as the snapshot stores it.
#[derive(Debug, Clone, PartialEq, Serialize, StoreEncode, StoreDecode)]
pub struct Tweet {
    pub id: TweetId,
    pub author: TwitterAccountId,
    pub time: SimTime,
    pub text: String,
    /// Hashtags without the leading '#', lowercased.
    pub hashtags: Vec<String>,
    /// Accounts @-mentioned.
    pub mentions: Vec<TwitterAccountId>,
    /// Tweet this one replies to, if any.
    pub reply_to: Option<TweetId>,
}

/// The static tweet corpus with a domain inverted index.
#[derive(Debug, Default, StoreEncode, StoreDecode)]
pub struct TwitterSnapshot {
    tweets: Vec<Tweet>,
    by_domain: HashMap<String, Vec<TweetId>>,
}

impl TwitterSnapshot {
    pub fn new() -> Self {
        TwitterSnapshot::default()
    }

    /// Insert a tweet, indexing any URLs in its text by host.
    pub fn insert(
        &mut self,
        author: TwitterAccountId,
        time: SimTime,
        text: String,
        hashtags: Vec<String>,
        mentions: Vec<TwitterAccountId>,
        reply_to: Option<TweetId>,
    ) -> TweetId {
        let id = TweetId(self.tweets.len() as u64);
        for url in extract_urls(&text) {
            // Few hosts, many tweets: allocate a host only when it is new.
            if let Some(ids) = self.by_domain.get_mut(url.host()) {
                ids.push(id);
            } else {
                self.by_domain.insert(url.host().to_string(), vec![id]);
            }
        }
        self.tweets.push(Tweet {
            id,
            author,
            time,
            text,
            hashtags,
            mentions,
            reply_to,
        });
        id
    }

    /// Make room for `additional` more tweets.
    pub fn reserve(&mut self, additional: usize) {
        self.tweets.reserve(additional);
    }

    pub fn len(&self) -> usize {
        self.tweets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tweets.is_empty()
    }

    pub fn tweet(&self, id: TweetId) -> Option<&Tweet> {
        self.tweets.get(id.0 as usize)
    }

    pub fn tweets(&self) -> &[Tweet] {
        &self.tweets
    }

    /// All tweets whose text contains a URL on `domain`.
    pub fn tweets_with_domain(&self, domain: &str) -> Vec<&Tweet> {
        self.by_domain
            .get(domain)
            .map(|ids| ids.iter().map(|&id| &self.tweets[id.0 as usize]).collect())
            .unwrap_or_default()
    }

    /// The distinct domains appearing in the snapshot.
    pub fn indexed_domains(&self) -> impl Iterator<Item = &str> {
        self.by_domain.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: i64) -> SimTime {
        SimTime(1_640_995_200 + s) // 2022-01-01
    }

    fn snapshot_with(texts: &[&str]) -> TwitterSnapshot {
        let mut snap = TwitterSnapshot::new();
        for (i, text) in texts.iter().enumerate() {
            snap.insert(
                TwitterAccountId(i as u64),
                t(i as i64 * 60),
                text.to_string(),
                vec![],
                vec![],
                None,
            );
        }
        snap
    }

    #[test]
    fn domain_index_finds_tweets() {
        let snap = snapshot_with(&[
            "5000 XRP giveaway! https://ripple-2x.com hurry #xrp",
            "nothing to see here",
            "also at https://ripple-2x.com/claim and https://btc-x2.net",
        ]);
        let hits = snap.tweets_with_domain("ripple-2x.com");
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, TweetId(0));
        assert_eq!(hits[1].id, TweetId(2));
        assert_eq!(snap.tweets_with_domain("btc-x2.net").len(), 1);
        assert!(snap.tweets_with_domain("unknown.com").is_empty());
    }

    #[test]
    fn metadata_is_preserved() {
        let mut snap = TwitterSnapshot::new();
        let id = snap.insert(
            TwitterAccountId(9),
            t(0),
            "reply text https://scam.site".into(),
            vec!["xrp".into(), "crypto".into()],
            vec![TwitterAccountId(5)],
            Some(TweetId(123)),
        );
        let tw = snap.tweet(id).unwrap();
        assert_eq!(tw.hashtags, ["xrp", "crypto"]);
        assert_eq!(tw.mentions, [TwitterAccountId(5)]);
        assert_eq!(tw.reply_to, Some(TweetId(123)));
        assert_eq!(tw.author, TwitterAccountId(9));
    }

    #[test]
    fn ids_are_sequential() {
        let snap = snapshot_with(&["a", "b", "c"]);
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.tweets()[2].id, TweetId(2));
    }

    #[test]
    fn indexed_domains_enumerates_hosts() {
        let snap = snapshot_with(&["x https://one.com y", "z https://two.org"]);
        let mut domains: Vec<&str> = snap.indexed_domains().collect();
        domains.sort();
        assert_eq!(domains, ["one.com", "two.org"]);
    }

    #[test]
    fn www_and_path_variants_index_by_host() {
        let snap = snapshot_with(&["see www.give.fund/claim now"]);
        assert_eq!(snap.tweets_with_domain("www.give.fund").len(), 1);
    }
}
