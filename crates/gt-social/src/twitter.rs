//! A static snapshot of public tweets, queryable by embedded domain.
//!
//! Mirrors the dataset the paper used: "Google's Internet-wide crawl of
//! public URLs … tens of billions of tweets". The analysis only ever
//! queries it one way — *all tweets containing at least one known scam
//! domain* — so the snapshot keeps a domain inverted index built with
//! the same URL scan the chat scanner uses, read through
//! `extract_url_hosts`, which yields each host without building its
//! URL. Generation only pushes tweets: the index is built on the first
//! query, so a run builds it inside the stage that asks, not on the
//! serial path of world generation. Snapshots still carry it (encoding
//! builds it first), and a decoded snapshot starts with it filled.
//!
//! Scam lures repeat: a scale-0.05 world's 22,864 tweets carry 547
//! distinct texts and 38 distinct hashtag lists. So the snapshot keeps
//! each text once, in a text table, and each hashtag list once, in a
//! list table; a [`Tweet`] holds a [`TextId`] and a [`TagsId`] into
//! them. Mentions, which about one tweet in a thousand has, sit in a
//! side table keyed by tweet id. Table ids are dense and assigned in
//! first-occurrence order, by the generator and by a decode alike, so
//! a decoded snapshot equals the one that was encoded. The index scans
//! each distinct text once and fans its hosts out to the text's tweets
//! in id order.
//!
//! The codec is written by hand. It writes the bytes a derive wrote
//! when each tweet owned its text, tags and mentions; decoding interns
//! each text and list through a map over the borrowed input, so only
//! a first occurrence allocates.
//!
//! A hashtag list is a [`Hashtags`]: every tag in one `Box<str>`, each
//! followed by a space. It encodes exactly as the `Vec<String>` it
//! stands for.

use gt_sim::hash::FastMap;
use gt_sim::SimTime;
use gt_store::{DecodeError, Decoder, Encoder, StoreDecode, StoreEncode};
use gt_text::extract_url_hosts;
use serde::Serialize;
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

/// Index of a text in a snapshot's text table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TextId(pub u32);

/// Index of a hashtag list in a snapshot's list table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TagsId(pub u32);

/// A public tweet as the snapshot stores it. Its text, hashtags and
/// mentions are read through the snapshot: [`TwitterSnapshot::text`],
/// [`TwitterSnapshot::hashtags`] and [`TwitterSnapshot::mentions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tweet {
    pub id: TweetId,
    pub author: TwitterAccountId,
    pub time: SimTime,
    pub text: TextId,
    /// Hashtags without the leading '#', lowercased.
    pub hashtags: TagsId,
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

/// Read an encoded tag list into `tags`, borrowed from the input. A
/// tag with a space is an error.
fn read_tags<'a>(d: &mut Decoder<'a>, tags: &mut Vec<&'a str>) -> Result<(), DecodeError> {
    tags.clear();
    for _ in 0..d.begin_seq()? {
        let at = d.position();
        let tag = d.str()?;
        if tag.contains(' ') {
            return Err(DecodeError::Invalid {
                what: "hashtag contains a space",
                at,
            });
        }
        tags.push(tag);
    }
    Ok(())
}

/// Host → ids of the tweets whose text mentions it, in id order.
type DomainIndex = HashMap<String, Vec<TweetId>>;

/// The static tweet corpus: the tweets, the text and hashtag-list
/// tables they point into, the mention table, and a domain index.
#[derive(Debug, Default)]
pub struct TwitterSnapshot {
    tweets: Vec<Tweet>,
    /// Each distinct text once, at its [`TextId`].
    texts: Vec<Box<str>>,
    /// Each distinct hashtag list once, at its [`TagsId`].
    hashtag_lists: Vec<Hashtags>,
    /// The accounts each tweet @-mentions, for the tweets that mention
    /// any, in id order.
    mentions: Vec<(TweetId, Vec<TwitterAccountId>)>,
    /// Built from the tweets and texts on first use; see the module docs.
    by_domain: OnceLock<DomainIndex>,
}

impl TwitterSnapshot {
    pub fn new() -> Self {
        TwitterSnapshot::default()
    }

    /// Add a text to the text table and return its id, which every
    /// tweet carrying the text then shares. Add each distinct text
    /// once: a decode interns by content, so a text added twice would
    /// come back as one.
    pub fn add_text(&mut self, text: impl Into<Box<str>>) -> TextId {
        let id = TextId(u32::try_from(self.texts.len()).expect("text ids fit in u32"));
        self.texts.push(text.into());
        id
    }

    /// Add a hashtag list to the list table and return its id; as with
    /// [`add_text`](Self::add_text), add each distinct list once.
    /// Panics if a tag contains a space.
    pub fn add_hashtags(&mut self, tags: &[&str]) -> TagsId {
        let id = TagsId(u32::try_from(self.hashtag_lists.len()).expect("list ids fit in u32"));
        self.hashtag_lists.push(Hashtags::new(tags));
        id
    }

    /// Insert a tweet whose text and hashtags are already in the
    /// tables. Its URLs are indexed by host on the next query. Panics
    /// if `text` or `hashtags` is not in its table.
    pub fn insert(
        &mut self,
        author: TwitterAccountId,
        time: SimTime,
        text: TextId,
        hashtags: TagsId,
        mentions: Vec<TwitterAccountId>,
        reply_to: Option<TweetId>,
    ) -> TweetId {
        assert!(
            (text.0 as usize) < self.texts.len(),
            "{text:?} is not in the table"
        );
        assert!(
            (hashtags.0 as usize) < self.hashtag_lists.len(),
            "{hashtags:?} is not in the table"
        );
        let id = TweetId(self.tweets.len() as u64);
        self.by_domain.take();
        if !mentions.is_empty() {
            self.mentions.push((id, mentions));
        }
        self.tweets.push(Tweet {
            id,
            author,
            time,
            text,
            hashtags,
            reply_to,
        });
        id
    }

    /// The domain index, built on first use: each distinct text is
    /// scanned once, and its hosts fan out to its tweets in id order.
    fn index(&self) -> &DomainIndex {
        self.by_domain.get_or_init(|| {
            // Each host gets a slot; each text lists its hosts' slots,
            // a host twice if the text names it twice, as a scan of
            // every tweet would find it.
            let mut slots: HashMap<String, usize> = HashMap::new();
            let hosts_of: Vec<Vec<usize>> = self
                .texts
                .iter()
                .map(|text| {
                    extract_url_hosts(text)
                        .map(|host| match slots.get(host.as_ref()) {
                            Some(&slot) => slot,
                            None => {
                                let slot = slots.len();
                                slots.insert(host.into_owned(), slot);
                                slot
                            }
                        })
                        .collect()
                })
                .collect();
            let mut ids = vec![Vec::new(); slots.len()];
            for tweet in &self.tweets {
                for &slot in &hosts_of[tweet.text.0 as usize] {
                    ids[slot].push(tweet.id);
                }
            }
            // A host only on texts no tweet carries is not indexed.
            slots
                .into_iter()
                .map(|(host, slot)| (host, std::mem::take(&mut ids[slot])))
                .filter(|(_, ids)| !ids.is_empty())
                .collect()
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

    /// The text at `id` in the text table.
    pub fn text(&self, id: TextId) -> &str {
        &self.texts[id.0 as usize]
    }

    /// The hashtag list at `id` in the list table.
    pub fn hashtags(&self, id: TagsId) -> &Hashtags {
        &self.hashtag_lists[id.0 as usize]
    }

    /// The list table, indexed by [`TagsId`]: each distinct list once.
    pub fn hashtag_lists(&self) -> &[Hashtags] {
        &self.hashtag_lists
    }

    /// The accounts tweet `id` @-mentions; empty for most tweets.
    pub fn mentions(&self, id: TweetId) -> &[TwitterAccountId] {
        match self.mentions.binary_search_by_key(&id, |&(tweet, _)| tweet) {
            Ok(at) => &self.mentions[at].1,
            Err(_) => &[],
        }
    }

    /// Ids of the tweets that @-mention anyone, in id order.
    pub fn mentioning(&self) -> impl Iterator<Item = TweetId> + '_ {
        self.mentions.iter().map(|&(id, _)| id)
    }

    /// Ids of all tweets whose text contains a URL on `domain`, in id
    /// order.
    pub fn tweets_with_domain(&self, domain: &str) -> &[TweetId] {
        self.index().get(domain).map_or(&[], Vec::as_slice)
    }

    /// The distinct domains appearing in the snapshot.
    pub fn indexed_domains(&self) -> impl Iterator<Item = &str> {
        self.index().keys().map(String::as_str)
    }
}

/// Equal tweets and tables; the index is derived from them.
impl PartialEq for TwitterSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.tweets == other.tweets
            && self.texts == other.texts
            && self.hashtag_lists == other.hashtag_lists
            && self.mentions == other.mentions
    }
}

/// The fields a tweet encodes, as the derive wrote them for a tweet
/// that owned its text, tags and mentions.
const TWEET_FIELDS: u16 = 7;

// Written by hand so tweets can share tables and the index can be
// lazy. The bytes are the derive's for `{ tweets, by_domain }` with
// each tweet `{ id, author, time, text, hashtags, mentions, reply_to }`
// holding its own `String`, tag list and mention list; the index is
// built before it is encoded and stored filled on decode.
impl StoreEncode for TwitterSnapshot {
    fn store_encode(&self, e: &mut Encoder) {
        e.begin_struct(2);
        e.field("tweets");
        // Each list is encoded once; its tweets copy the bytes.
        let lists: Vec<Vec<u8>> = self
            .hashtag_lists
            .iter()
            .map(gt_store::encode_to_vec)
            .collect();
        let mut mentioned = self.mentions.iter().peekable();
        e.begin_seq(self.tweets.len());
        for tweet in &self.tweets {
            let mentions = match mentioned.next_if(|&&(id, _)| id == tweet.id) {
                Some((_, mentions)) => mentions.as_slice(),
                None => &[],
            };
            e.begin_struct(TWEET_FIELDS);
            e.field("id");
            tweet.id.store_encode(e);
            e.field("author");
            tweet.author.store_encode(e);
            e.field("time");
            tweet.time.store_encode(e);
            e.field("text");
            e.string(self.text(tweet.text));
            e.field("hashtags");
            e.raw(&lists[tweet.hashtags.0 as usize]);
            e.field("mentions");
            mentions.store_encode(e);
            e.field("reply_to");
            tweet.reply_to.store_encode(e);
        }
        e.field("by_domain");
        self.index().store_encode(e);
    }
}

impl StoreDecode for TwitterSnapshot {
    fn store_decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.begin_struct(2)?;
        d.field("tweets")?;
        let count = d.begin_seq()?;
        // One byte per element is the format's minimum, so the input
        // bounds a corrupt count's reservation.
        let cap = usize::try_from(count)
            .unwrap_or(usize::MAX)
            .min(d.remaining());
        let mut snapshot = TwitterSnapshot {
            tweets: Vec::with_capacity(cap),
            ..TwitterSnapshot::default()
        };
        // Texts and lists are interned by their borrowed bytes: only
        // the first occurrence allocates.
        let mut text_ids: FastMap<&str, TextId> = FastMap::default();
        let mut list_ids: FastMap<Vec<&str>, TagsId> = FastMap::default();
        let mut tags = Vec::new();
        for position in 0..count {
            d.begin_struct(TWEET_FIELDS)?;
            d.field("id")?;
            let at = d.position();
            let id = TweetId::store_decode(d)?;
            if id.0 != position {
                return Err(DecodeError::Invalid {
                    what: "tweet id is not its position",
                    at,
                });
            }
            d.field("author")?;
            let author = TwitterAccountId::store_decode(d)?;
            d.field("time")?;
            let time = SimTime::store_decode(d)?;
            d.field("text")?;
            let text = d.str()?;
            let text = *text_ids
                .entry(text)
                .or_insert_with(|| snapshot.add_text(text));
            d.field("hashtags")?;
            read_tags(d, &mut tags)?;
            let hashtags = match list_ids.get(tags.as_slice()) {
                Some(&id) => id,
                None => {
                    let id = snapshot.add_hashtags(&tags);
                    list_ids.insert(tags.clone(), id);
                    id
                }
            };
            d.field("mentions")?;
            let mentions = Vec::store_decode(d)?;
            d.field("reply_to")?;
            let reply_to = Option::store_decode(d)?;
            snapshot.insert(author, time, text, hashtags, mentions, reply_to);
        }
        d.field("by_domain")?;
        snapshot.by_domain = OnceLock::from(DomainIndex::store_decode(d)?);
        Ok(snapshot)
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

    impl TwitterSnapshot {
        /// Insert a tweet from its parts, adding its text and list to
        /// the tables unless they are there already.
        fn push(
            &mut self,
            author: TwitterAccountId,
            time: SimTime,
            text: &str,
            tags: &[&str],
            mentions: Vec<TwitterAccountId>,
            reply_to: Option<TweetId>,
        ) -> TweetId {
            let text = match self.texts.iter().position(|known| **known == *text) {
                Some(at) => TextId(at as u32),
                None => self.add_text(text),
            };
            let wanted = Hashtags::new(tags);
            let hashtags = match self.hashtag_lists.iter().position(|l| *l == wanted) {
                Some(at) => TagsId(at as u32),
                None => self.add_hashtags(tags),
            };
            self.insert(author, time, text, hashtags, mentions, reply_to)
        }
    }

    fn snapshot_with(texts: &[&str]) -> TwitterSnapshot {
        let mut snap = TwitterSnapshot::new();
        for (i, text) in texts.iter().enumerate() {
            snap.push(
                TwitterAccountId(i as u64),
                t(i as i64 * 60),
                text,
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
        assert_eq!(
            snap.tweets_with_domain("ripple-2x.com"),
            [TweetId(0), TweetId(2)]
        );
        assert_eq!(snap.tweets_with_domain("btc-x2.net").len(), 1);
        assert!(snap.tweets_with_domain("unknown.com").is_empty());
    }

    #[test]
    fn metadata_is_preserved() {
        let mut snap = TwitterSnapshot::new();
        let text = snap.add_text("reply text https://scam.site");
        let tags = snap.add_hashtags(&["xrp", "crypto"]);
        let id = snap.insert(
            TwitterAccountId(9),
            t(0),
            text,
            tags,
            vec![TwitterAccountId(5)],
            Some(TweetId(123)),
        );
        let tw = snap.tweet(id).unwrap();
        assert_eq!(snap.text(tw.text), "reply text https://scam.site");
        assert!(snap.hashtags(tw.hashtags).iter().eq(["xrp", "crypto"]));
        assert_eq!(snap.mentions(id), [TwitterAccountId(5)]);
        assert_eq!(tw.reply_to, Some(TweetId(123)));
        assert_eq!(tw.author, TwitterAccountId(9));
    }

    #[test]
    fn tweets_share_table_entries() {
        let mut snap = TwitterSnapshot::new();
        let text = snap.add_text("win https://give.io");
        let tags = snap.add_hashtags(&["eth"]);
        let a = snap.insert(TwitterAccountId(1), t(0), text, tags, vec![], None);
        let b = snap.insert(TwitterAccountId(2), t(1), text, tags, vec![], None);
        assert_eq!(snap.tweet(a).unwrap().text, snap.tweet(b).unwrap().text);
        assert_eq!(snap.hashtag_lists().len(), 1);
        assert_eq!(snap.tweets_with_domain("give.io"), [a, b]);
        assert!(snap.mentions(a).is_empty());
    }

    #[test]
    #[should_panic(expected = "is not in the table")]
    fn an_unknown_text_id_is_refused() {
        let mut snap = TwitterSnapshot::new();
        let tags = snap.add_hashtags(&[]);
        snap.insert(TwitterAccountId(1), t(0), TextId(0), tags, vec![], None);
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
    fn a_text_no_tweet_carries_is_not_indexed() {
        let mut snap = snapshot_with(&["https://one.com"]);
        snap.add_text("https://two.com");
        assert!(snap.tweets_with_domain("two.com").is_empty());
        assert_eq!(snap.indexed_domains().count(), 1);
    }

    #[test]
    fn inserts_leave_the_index_unbuilt() {
        let mut snap = snapshot_with(&["https://one.com", "www.two.io/x", "plain"]);
        assert!(snap.by_domain.get().is_none(), "generation builds no index");
        assert_eq!(snap.tweets_with_domain("one.com").len(), 1);
        assert!(snap.by_domain.get().is_some());
        snap.push(
            TwitterAccountId(7),
            t(0),
            "https://one.com/b",
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
        assert_eq!(decoded, snap);
    }

    #[test]
    fn a_tweet_id_off_its_position_is_an_error() {
        let mut snap = OwnedSnapshot::default();
        let mut tweet = owned("x", vec![], vec![], None);
        tweet.id = TweetId(1);
        snap.tweets.push(tweet);
        let decoded = gt_store::decode_from_slice::<TwitterSnapshot>(&encode(&snap));
        assert!(matches!(decoded, Err(DecodeError::Invalid { .. })));
    }

    /// A tweet as it was when it owned its text, tags and mentions.
    /// Its derived codec is the reference the snapshot's hand-written
    /// one must match byte for byte (`Hashtags` encoded as the
    /// `Vec<String>` it stands for; `hashtags_match_a_vec_of_strings`
    /// checks that).
    #[derive(Debug, Clone, PartialEq, StoreEncode, StoreDecode)]
    struct OwnedTweet {
        id: TweetId,
        author: TwitterAccountId,
        time: SimTime,
        text: String,
        hashtags: Vec<String>,
        mentions: Vec<TwitterAccountId>,
        reply_to: Option<TweetId>,
    }

    fn owned(
        text: &str,
        hashtags: Vec<String>,
        mentions: Vec<TwitterAccountId>,
        reply_to: Option<TweetId>,
    ) -> OwnedTweet {
        OwnedTweet {
            id: TweetId(0),
            author: TwitterAccountId(4),
            time: t(5),
            text: text.to_string(),
            hashtags,
            mentions,
            reply_to,
        }
    }

    /// The snapshot as it was when `insert` indexed each tweet's URLs
    /// eagerly and each tweet owned its parts, with the derived codec:
    /// the reference the lazy index and the tables must match in
    /// answers and in encoded bytes.
    #[derive(Default, StoreEncode, StoreDecode)]
    struct OwnedSnapshot {
        tweets: Vec<OwnedTweet>,
        by_domain: HashMap<String, Vec<TweetId>>,
    }

    impl OwnedSnapshot {
        fn insert(&mut self, mut tweet: OwnedTweet) {
            tweet.id = TweetId(self.tweets.len() as u64);
            for url in extract_urls(&tweet.text) {
                self.by_domain
                    .entry(url.host().to_string())
                    .or_default()
                    .push(tweet.id);
            }
            self.tweets.push(tweet);
        }

        fn tweets_with_domain(&self, domain: &str) -> &[TweetId] {
            self.by_domain.get(domain).map_or(&[], Vec::as_slice)
        }
    }

    fn encode(snapshot: &OwnedSnapshot) -> Vec<u8> {
        gt_store::encode_to_vec(snapshot)
    }

    /// Insert `tweet` into both snapshots.
    fn insert_both(lazy: &mut TwitterSnapshot, eager: &mut OwnedSnapshot, tweet: OwnedTweet) {
        let tags: Vec<&str> = tweet.hashtags.iter().map(String::as_str).collect();
        lazy.push(
            tweet.author,
            tweet.time,
            &tweet.text,
            &tags,
            tweet.mentions.clone(),
            tweet.reply_to,
        );
        eager.insert(tweet);
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

    /// A tag list: `[]`, `[""]` or a few space-free tags.
    fn tag_list() -> impl Strategy<Value = Vec<String>> {
        prop_oneof![
            Just(vec![]),
            Just(vec![String::new()]),
            proptest::collection::vec("[a-z0-9#_é]{0,6}", 0..6),
        ]
    }

    /// A tweet drawn from small pools of texts and tag lists, so most
    /// texts and lists repeat, with a mention list and a reply target.
    fn pooled_tweets() -> impl Strategy<Value = Vec<OwnedTweet>> {
        (
            proptest::collection::vec(tweet_text(), 1..5),
            proptest::collection::vec(tag_list(), 1..4),
            proptest::collection::vec(
                (
                    (any::<usize>(), any::<usize>()),
                    proptest::collection::vec(0u64..5, 0..3),
                    (any::<bool>(), 0u64..40),
                    0u64..1_000,
                ),
                0..40,
            ),
        )
            .prop_map(|(texts, lists, picks)| {
                picks
                    .into_iter()
                    .map(|((text, list), mentions, (replies, to), author)| {
                        let mut tweet = owned(
                            &texts[text % texts.len()],
                            lists[list % lists.len()].clone(),
                            mentions.into_iter().map(TwitterAccountId).collect(),
                            replies.then_some(TweetId(to)),
                        );
                        tweet.author = TwitterAccountId(author);
                        tweet.time = t(author as i64);
                        tweet
                    })
                    .collect()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any space-free tag list, `[]` and `[""]` included, iterates,
        /// joins and encodes as the `Vec<String>` it replaced.
        #[test]
        fn hashtags_match_a_vec_of_strings(tags in tag_list()) {
            let refs: Vec<&str> = tags.iter().map(String::as_str).collect();
            let hashtags = Hashtags::new(&refs);
            prop_assert!(hashtags.iter().eq(refs.iter().copied()));
            prop_assert_eq!(hashtags.is_empty(), tags.is_empty());
            prop_assert_eq!(hashtags.joined(), tags.join(" "));
            prop_assert_eq!(gt_store::encode_to_vec(&hashtags), gt_store::encode_to_vec(&tags));
        }

        /// A space in any tag of a decoded snapshot is a typed error,
        /// never a panic.
        #[test]
        fn a_space_in_any_decoded_tag_is_an_error(
            tags in proptest::collection::vec("[a-z ]{0,6}", 1..6),
        ) {
            let mut snap = OwnedSnapshot::default();
            snap.insert(owned("x", tags.clone(), vec![], None));
            let decoded = gt_store::decode_from_slice::<TwitterSnapshot>(&encode(&snap));
            if tags.iter().any(|tag| tag.contains(' ')) {
                let is_invalid = matches!(decoded, Err(DecodeError::Invalid { .. }));
                prop_assert!(is_invalid);
            } else {
                let decoded = decoded.unwrap();
                let list = decoded.hashtags(decoded.tweets()[0].hashtags);
                prop_assert!(list.iter().eq(tags.iter().map(String::as_str)));
            }
        }

        /// The interned snapshot encodes exactly as the owned-tweet
        /// reference; decoding the bytes gives them back unchanged and
        /// holds each distinct text and list once, at its
        /// first-occurrence id, so it equals the snapshot encoded.
        #[test]
        fn interned_codec_matches_the_owned_reference(tweets in pooled_tweets()) {
            let mut snap = TwitterSnapshot::new();
            let mut reference = OwnedSnapshot::default();
            for tweet in tweets.iter().cloned() {
                insert_both(&mut snap, &mut reference, tweet);
            }
            let bytes = encode(&reference);
            prop_assert_eq!(gt_store::encode_to_vec(&snap), bytes.clone());

            let decoded: TwitterSnapshot = gt_store::decode_from_slice(&bytes).unwrap();
            prop_assert_eq!(gt_store::encode_to_vec(&decoded), bytes.clone());
            let mut texts: Vec<&str> = Vec::new();
            let mut lists: Vec<&[String]> = Vec::new();
            for tweet in &tweets {
                if !texts.contains(&tweet.text.as_str()) {
                    texts.push(&tweet.text);
                }
                if !lists.contains(&tweet.hashtags.as_slice()) {
                    lists.push(&tweet.hashtags);
                }
            }
            prop_assert!(decoded.texts.iter().map(|text| &**text).eq(texts));
            prop_assert_eq!(decoded.hashtag_lists.len(), lists.len());
            for (list, want) in decoded.hashtag_lists.iter().zip(lists) {
                prop_assert!(list.iter().eq(want.iter().map(String::as_str)));
            }
            for (tweet, want) in decoded.tweets().iter().zip(&reference.tweets) {
                prop_assert_eq!(decoded.text(tweet.text), want.text.as_str());
                prop_assert_eq!(decoded.mentions(tweet.id), want.mentions.as_slice());
                prop_assert_eq!(tweet.reply_to, want.reply_to);
            }
            prop_assert!(decoded == snap);
            let round_trip = gt_store::decode_from_slice::<OwnedSnapshot>(&bytes).unwrap();
            prop_assert_eq!(round_trip.tweets, reference.tweets);
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
            let mut eager = OwnedSnapshot::default();
            let check = |lazy: &TwitterSnapshot, eager: &OwnedSnapshot| {
                let mut domains: Vec<&str> = lazy.indexed_domains().collect();
                let mut want: Vec<&str> = eager.by_domain.keys().map(String::as_str).collect();
                domains.sort();
                want.sort();
                prop_assert_eq!(&domains, &want);
                for domain in HOSTS.iter().map(|h| h.to_ascii_lowercase()) {
                    prop_assert_eq!(
                        lazy.tweets_with_domain(&domain),
                        eager.tweets_with_domain(&domain),
                        "domain {}", domain
                    );
                }
                prop_assert_eq!(gt_store::encode_to_vec(lazy), encode(eager));
                Ok(())
            };
            let inserted = texts.len();
            for (i, text) in texts.into_iter().enumerate() {
                let mut tweet = owned(&text, vec![], vec![], None);
                (tweet.author, tweet.time) = (TwitterAccountId(i as u64), t(i as i64));
                insert_both(&mut lazy, &mut eager, tweet);
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
