//! A static snapshot of public tweets, queryable by embedded domain.
//!
//! Mirrors the dataset the paper used: "Google's Internet-wide crawl of
//! public URLs … tens of billions of tweets". The analysis only ever
//! queries it one way — *all tweets containing at least one known scam
//! domain* — so the snapshot keeps a domain inverted index built with
//! the same URL scan the chat scanner uses, read through
//! `extract_url_hosts`, which yields each host without building its
//! URL. Generation only pushes tweets: the index is built in one pass
//! over them on the first query, so a run builds it inside the stage
//! that asks, not on the serial path of world generation. Snapshots
//! still carry it (encoding builds it first), and a decoded snapshot
//! starts with it filled.
//!
//! A tweet's hashtags are a [`Hashtags`]: every tag in one `Box<str>`,
//! each followed by a space, so decoding a tweet makes one allocation
//! for its tags however many it has. It encodes, and serialises to
//! JSON, exactly as the `Vec<String>` it stands for.

use gt_sim::SimTime;
use gt_store::{DecodeError, Decoder, Encoder, StoreDecode, StoreEncode};
use gt_text::extract_url_hosts;
use serde::{Content, Serialize};
use std::collections::HashMap;
use std::sync::OnceLock;

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
    pub hashtags: Hashtags,
    /// Accounts @-mentioned.
    pub mentions: Vec<TwitterAccountId>,
    /// Tweet this one replies to, if any.
    pub reply_to: Option<TweetId>,
}

/// A tweet's hashtags in one allocation: every tag followed by a
/// space, so no tags (`""`) and one empty tag (`" "`) stay distinct. A
/// tag holds no space.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hashtags(Box<str>);

impl Hashtags {
    /// Panics if a tag contains a space.
    pub fn new(tags: &[&str]) -> Self {
        let mut all = String::with_capacity(tags.iter().map(|tag| tag.len() + 1).sum());
        for tag in tags {
            assert!(!tag.contains(' '), "hashtag {tag:?} contains a space");
            all.push_str(tag);
            all.push(' ');
        }
        Hashtags(all.into_boxed_str())
    }

    /// The tags, in order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.0.split_terminator(' ')
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The tags joined by single spaces, as `join(" ")` joins them.
    pub fn joined(&self) -> &str {
        self.0.strip_suffix(' ').unwrap_or_default()
    }
}

/// A sequence of strings, as `Vec<String>` encodes.
impl StoreEncode for Hashtags {
    fn store_encode(&self, e: &mut Encoder) {
        e.begin_seq(self.iter().count());
        for tag in self.iter() {
            e.string(tag);
        }
    }
}

impl StoreDecode for Hashtags {
    fn store_decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let count = d.begin_seq()?;
        // A first pass over the borrowed tags sizes the one allocation.
        let mut scan = d.clone();
        let mut len = 0;
        for _ in 0..count {
            let at = scan.position();
            let tag = scan.str()?;
            if tag.contains(' ') {
                return Err(DecodeError::Invalid {
                    what: "hashtag contains a space",
                    at,
                });
            }
            len += tag.len() + 1;
        }
        let mut all = String::with_capacity(len);
        for _ in 0..count {
            all.push_str(d.str()?);
            all.push(' ');
        }
        Ok(Hashtags(all.into_boxed_str()))
    }
}

/// A list of strings, as `Vec<String>` serialises.
impl Serialize for Hashtags {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

/// Host → ids of the tweets whose text mentions it, in id order.
type DomainIndex = HashMap<String, Vec<TweetId>>;

/// The static tweet corpus with a domain inverted index.
#[derive(Debug, Default)]
pub struct TwitterSnapshot {
    tweets: Vec<Tweet>,
    /// Built from `tweets` on first use; see the module docs.
    by_domain: OnceLock<DomainIndex>,
}

impl TwitterSnapshot {
    pub fn new() -> Self {
        TwitterSnapshot::default()
    }

    /// Insert a tweet. Its URLs are indexed by host on the next query.
    pub fn insert(
        &mut self,
        author: TwitterAccountId,
        time: SimTime,
        text: String,
        hashtags: &[&str],
        mentions: Vec<TwitterAccountId>,
        reply_to: Option<TweetId>,
    ) -> TweetId {
        let id = TweetId(self.tweets.len() as u64);
        self.by_domain.take();
        self.tweets.push(Tweet {
            id,
            author,
            time,
            text,
            hashtags: Hashtags::new(hashtags),
            mentions,
            reply_to,
        });
        id
    }

    /// The domain index, built on first use.
    fn index(&self) -> &DomainIndex {
        self.by_domain.get_or_init(|| {
            let mut index = DomainIndex::new();
            for tweet in &self.tweets {
                for host in extract_url_hosts(&tweet.text) {
                    // Few hosts, many tweets: allocate a host only when
                    // it is new.
                    if let Some(ids) = index.get_mut(host.as_ref()) {
                        ids.push(tweet.id);
                    } else {
                        index.insert(host.into_owned(), vec![tweet.id]);
                    }
                }
            }
            index
        })
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
        self.index()
            .get(domain)
            .map(|ids| ids.iter().map(|&id| &self.tweets[id.0 as usize]).collect())
            .unwrap_or_default()
    }

    /// The distinct domains appearing in the snapshot.
    pub fn indexed_domains(&self) -> impl Iterator<Item = &str> {
        self.index().keys().map(String::as_str)
    }
}

// Written by hand so the index can be lazy: the bytes are the derive's
// for `{ tweets, by_domain }`, with the index built before it is
// encoded and stored filled on decode.
impl StoreEncode for TwitterSnapshot {
    fn store_encode(&self, e: &mut Encoder) {
        e.begin_struct(2);
        e.field("tweets");
        self.tweets.store_encode(e);
        e.field("by_domain");
        self.index().store_encode(e);
    }
}

impl StoreDecode for TwitterSnapshot {
    fn store_decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.begin_struct(2)?;
        d.field("tweets")?;
        let tweets = StoreDecode::store_decode(d)?;
        d.field("by_domain")?;
        let by_domain = OnceLock::from(DomainIndex::store_decode(d)?);
        Ok(TwitterSnapshot { tweets, by_domain })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_text::extract_urls;
    use proptest::prelude::*;

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
                &[],
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
            &["xrp", "crypto"],
            vec![TwitterAccountId(5)],
            Some(TweetId(123)),
        );
        let tw = snap.tweet(id).unwrap();
        assert!(tw.hashtags.iter().eq(["xrp", "crypto"]));
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

    #[test]
    fn inserts_leave_the_index_unbuilt() {
        let mut snap = snapshot_with(&["https://one.com", "www.two.io/x", "plain"]);
        assert!(snap.by_domain.get().is_none(), "generation builds no index");
        assert_eq!(snap.tweets_with_domain("one.com").len(), 1);
        assert!(snap.by_domain.get().is_some());
        snap.insert(
            TwitterAccountId(7),
            t(0),
            "https://one.com/b".into(),
            &[],
            vec![],
            None,
        );
        assert!(
            snap.by_domain.get().is_none(),
            "an insert drops a built index"
        );
        assert_eq!(snap.tweets_with_domain("one.com").len(), 2);
    }

    #[test]
    fn decode_then_encode_is_byte_identical() {
        let snap = snapshot_with(&["a https://one.com b", "x www.two.io/p", "none", "one.com"]);
        let bytes = gt_store::encode_to_vec(&snap);
        let decoded: TwitterSnapshot = gt_store::decode_from_slice(&bytes).unwrap();
        assert!(
            decoded.by_domain.get().is_some(),
            "a decoded index is filled"
        );
        assert_eq!(gt_store::encode_to_vec(&decoded), bytes);
        assert_eq!(decoded.tweets(), snap.tweets());
    }

    /// The snapshot as it was when `insert` indexed each tweet's URLs
    /// eagerly, with the derived codec: the reference the lazy index
    /// must match in answers and in encoded bytes.
    #[derive(Default, StoreEncode)]
    struct EagerSnapshot {
        tweets: Vec<Tweet>,
        by_domain: HashMap<String, Vec<TweetId>>,
    }

    impl EagerSnapshot {
        fn insert(&mut self, author: TwitterAccountId, time: SimTime, text: String) {
            let id = TweetId(self.tweets.len() as u64);
            for url in extract_urls(&text) {
                self.by_domain
                    .entry(url.host().to_string())
                    .or_default()
                    .push(id);
            }
            self.tweets.push(Tweet {
                id,
                author,
                time,
                text,
                hashtags: Hashtags::default(),
                mentions: vec![],
                reply_to: None,
            });
        }

        fn tweets_with_domain(&self, domain: &str) -> Vec<&Tweet> {
            self.by_domain
                .get(domain)
                .map(|ids| ids.iter().map(|&id| &self.tweets[id.0 as usize]).collect())
                .unwrap_or_default()
        }
    }

    const HOSTS: &[&str] = &["one.com", "two.io", "www.three.net", "Four.LIVE", "five.zz"];

    /// A tweet text: filler words around URL mentions of a few hosts,
    /// with and without schemes and paths.
    fn tweet_text() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            (0..HOSTS.len() + 2, 0usize..3, "[a-z ]{0,6}", any::<bool>()),
            0..5,
        )
        .prop_map(|parts| {
            let mut text = String::new();
            for (host, scheme, word, path) in parts {
                text.push_str(&word);
                if let Some(host) = HOSTS.get(host) {
                    text.push_str(["", "https://", "http://"][scheme]);
                    text.push_str(host);
                    if path {
                        text.push_str("/claim?x=1");
                    }
                }
                text.push(' ');
            }
            text
        })
    }

    /// `Tweet` as it was with `Vec<String>` hashtags: the JSON
    /// reference for the one-allocation [`Hashtags`].
    #[derive(Serialize)]
    struct TweetWithVec {
        id: TweetId,
        author: TwitterAccountId,
        time: SimTime,
        text: String,
        hashtags: Vec<String>,
        mentions: Vec<TwitterAccountId>,
        reply_to: Option<TweetId>,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any space-free tag list, `[]` and `[""]` included, encodes,
        /// decodes, joins and serialises as the `Vec<String>` it
        /// replaced.
        #[test]
        fn hashtags_match_a_vec_of_strings(
            tags in prop_oneof![
                Just(vec![]),
                Just(vec![String::new()]),
                proptest::collection::vec("[a-z0-9#_é]{0,6}", 0..6),
            ],
            text in "[a-z ]{0,12}",
        ) {
            let refs: Vec<&str> = tags.iter().map(String::as_str).collect();
            let hashtags = Hashtags::new(&refs);
            prop_assert!(hashtags.iter().eq(refs.iter().copied()));
            prop_assert_eq!(hashtags.is_empty(), tags.is_empty());
            prop_assert_eq!(hashtags.joined(), tags.join(" "));
            let bytes = gt_store::encode_to_vec(&tags);
            prop_assert_eq!(gt_store::encode_to_vec(&hashtags), bytes.clone());
            prop_assert_eq!(gt_store::decode_from_slice::<Hashtags>(&bytes), Ok(hashtags.clone()));
            let tweet = Tweet {
                id: TweetId(3),
                author: TwitterAccountId(4),
                time: t(5),
                text: text.clone(),
                hashtags,
                mentions: vec![TwitterAccountId(6)],
                reply_to: Some(TweetId(1)),
            };
            let reference = TweetWithVec {
                id: tweet.id,
                author: tweet.author,
                time: tweet.time,
                text,
                hashtags: tags,
                mentions: tweet.mentions.clone(),
                reply_to: tweet.reply_to,
            };
            prop_assert_eq!(
                serde_json::to_string(&tweet).unwrap(),
                serde_json::to_string(&reference).unwrap()
            );
        }

        /// A space in any decoded tag is a typed error, never a panic.
        #[test]
        fn a_space_in_any_decoded_tag_is_an_error(
            tags in proptest::collection::vec("[a-z ]{0,6}", 1..6),
        ) {
            let decoded = gt_store::decode_from_slice::<Hashtags>(&gt_store::encode_to_vec(&tags));
            if tags.iter().any(|tag| tag.contains(' ')) {
                let is_invalid = matches!(decoded, Err(DecodeError::Invalid { .. }));
                prop_assert!(is_invalid);
            } else {
                prop_assert!(decoded.unwrap().iter().eq(tags.iter().map(String::as_str)));
            }
        }

        /// Whenever it is queried or encoded — after every insert, or
        /// with inserts between queries — the lazy snapshot answers and
        /// encodes exactly as the eager one does.
        #[test]
        fn lazy_index_matches_the_eager_reference(
            texts in proptest::collection::vec(tweet_text(), 0..12),
            query_after in proptest::collection::vec(any::<bool>(), 12),
        ) {
            let mut lazy = TwitterSnapshot::new();
            let mut eager = EagerSnapshot::default();
            let check = |lazy: &TwitterSnapshot, eager: &EagerSnapshot| {
                let mut domains: Vec<&str> = lazy.indexed_domains().collect();
                let mut want: Vec<&str> = eager.by_domain.keys().map(String::as_str).collect();
                domains.sort();
                want.sort();
                prop_assert_eq!(&domains, &want);
                for domain in HOSTS.iter().map(|h| h.to_ascii_lowercase()) {
                    let ids = |found: Vec<&Tweet>| found.iter().map(|t| t.id).collect::<Vec<_>>();
                    prop_assert_eq!(
                        ids(lazy.tweets_with_domain(&domain)),
                        ids(eager.tweets_with_domain(&domain)),
                        "domain {}", domain
                    );
                }
                prop_assert_eq!(gt_store::encode_to_vec(lazy), gt_store::encode_to_vec(eager));
                Ok(())
            };
            let inserted = texts.len();
            for (i, text) in texts.into_iter().enumerate() {
                let (author, time) = (TwitterAccountId(i as u64), t(i as i64));
                lazy.insert(author, time, text.clone(), &[], vec![], None);
                eager.insert(author, time, text);
                if query_after[i] {
                    check(&lazy, &eager)?;
                }
            }
            let queried_last = inserted > 0 && query_after[inserted - 1];
            prop_assert_eq!(lazy.by_domain.get().is_some(), queried_last);
            check(&lazy, &eager)?;
        }
    }
}
