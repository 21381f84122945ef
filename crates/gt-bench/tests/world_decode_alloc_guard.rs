//! Guard: the tweet corpus allocates per distinct lure, not per tweet.
//!
//! Scam lures repeat: a scale-0.05 world's 22,864 tweets carry 547
//! distinct texts and 38 distinct hashtag lists. The snapshot keeps
//! each text and each list once, in a table, and keeps mentions (about
//! one tweet in a thousand has any) in a side table. So:
//!
//! - decoding a snapshot allocates once per distinct text, once per
//!   distinct list and once per mentioning tweet, plus the domain
//!   index's own allocations and a few for growing the tables and the
//!   interning maps. When each tweet owned its text and tags, the same
//!   decode made 44,883 allocations, about two a tweet; with
//!   `Vec<String>` tags, about 3.9 a tweet.
//! - generating the tweets formats and allocates each distinct lure's
//!   text once, where it used to allocate one per tweet.
//!
//! The counts are taken by `gt_bench::CountingAlloc` on the calling
//! thread, so they are exact and the same in debug and release builds.

use gt_bench::{counted, CountingAlloc};
use gt_sim::RngFactory;
use gt_social::{TweetId, TwitterSnapshot};
use gt_world::sites::DomainFactory;
use gt_world::{twitter_gen, WorldConfig};
use std::collections::{HashMap, HashSet};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations a table or map makes growing to `len` entries by
/// doubling from empty, with room to spare.
fn growth(len: usize) -> u64 {
    u64::from(usize::BITS - len.leading_zeros()) + 2
}

/// The distinct texts, the lists and the mentioning tweets of a
/// snapshot.
fn table_sizes(snapshot: &TwitterSnapshot) -> (usize, usize, usize) {
    let texts: HashSet<_> = snapshot.tweets().iter().map(|t| t.text).collect();
    let mentioning = snapshot
        .tweets()
        .iter()
        .filter(|t| !snapshot.mentions(t.id).is_empty())
        .count();
    (texts.len(), snapshot.hashtag_lists().len(), mentioning)
}

#[test]
fn snapshot_decode_allocates_per_distinct_text_and_list() {
    let config = WorldConfig::scaled(0.05);
    let mut snapshot = TwitterSnapshot::new();
    let factory = RngFactory::new(config.seed);
    twitter_gen::generate(&config, &factory, &mut DomainFactory::new(), &mut snapshot);
    let bytes = gt_store::encode_to_vec(&snapshot);
    // The index alone, encoded as the snapshot encodes it.
    let index: HashMap<String, Vec<TweetId>> = snapshot
        .indexed_domains()
        .map(|domain| {
            (
                domain.to_string(),
                snapshot.tweets_with_domain(domain).to_vec(),
            )
        })
        .collect();
    let index_bytes = gt_store::encode_to_vec(&index);

    let (decoded, allocs) =
        counted(|| gt_store::decode_from_slice::<TwitterSnapshot>(&bytes).unwrap());
    let (_, index_allocs) = counted(|| {
        gt_store::decode_from_slice::<HashMap<String, Vec<TweetId>>>(&index_bytes).unwrap()
    });
    assert!(
        decoded == snapshot,
        "a decoded snapshot equals the generated one"
    );
    let tweets = snapshot.len() as u64;
    let (texts, lists, mentioning) = table_sizes(&snapshot);
    // A text, or a list and its interning key, per first occurrence; a
    // mention list per mentioning tweet; the tweet vector; the tables'
    // and maps' growth; and the index's.
    let bound = texts as u64
        + 2 * lists as u64
        + mentioning as u64
        + 1
        + 2 * growth(texts)
        + 3 * growth(lists)
        + growth(mentioning)
        + index_allocs;
    eprintln!(
        "decoding {tweets} tweets ({texts} texts, {lists} lists, {mentioning} mentioning) \
         made {allocs} allocations ({:.3} a tweet); the bound is {bound} ({index_allocs} of \
         them the index's)",
        allocs as f64 / tweets as f64
    );
    assert!(allocs <= bound, "{allocs} allocations, bound {bound}");
}

#[test]
fn generating_tweets_formats_each_distinct_lure_once() {
    let config = WorldConfig::scaled(0.05);
    let factory = RngFactory::new(config.seed);
    let ops = twitter_gen::generate_ops(&config, &factory);
    let (domains, _) =
        twitter_gen::generate_domains(&config, &factory, &ops, &mut DomainFactory::new());
    let mut snapshot = TwitterSnapshot::new();
    let ((_, lure_times), allocs) =
        counted(|| twitter_gen::generate_tweets(&config, &factory, &domains, &mut snapshot));
    let tweets = snapshot.len() as u64;
    let (texts, lists, mentioning) = table_sizes(&snapshot);
    // Per distinct text one allocation, per list its tags and its key,
    // per mentioning tweet its list; each domain's growing time list;
    // the tables' and maps' growth; and a fixed few (the samplers, the
    // weekly counts, the tweet and id vectors, the time lists' vector).
    let time_lists: u64 = lure_times.iter().map(|times| growth(times.len())).sum();
    let bound = texts as u64
        + 2 * lists as u64
        + mentioning as u64
        + time_lists
        + 2 * growth(texts)
        + 3 * growth(lists)
        + growth(mentioning)
        + 32;
    eprintln!(
        "generating {tweets} tweets ({texts} texts, {lists} lists, {mentioning} mentioning) \
         made {allocs} allocations ({:.3} a tweet); the bound is {bound}",
        allocs as f64 / tweets as f64
    );
    assert!(allocs <= bound, "{allocs} allocations, bound {bound}");
}
