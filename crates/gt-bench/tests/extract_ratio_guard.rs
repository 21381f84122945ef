//! Guard: `extract_urls` must stay well under the cost of the reference
//! extractor it replaced.
//!
//! The reference (`gt-text/tests/reference/`) compares both schemes at
//! every byte and lowercases every word start's host into a new `String`
//! before rejecting it. The current extractor borrows the text until it
//! accepts a URL. Over a generated world's tweets and stream chats (one
//! URL per tweet, mostly plain words in chat) the difference is the
//! per-word allocations. If the extractor starts allocating per
//! candidate again, its cost returns to about the reference's and this
//! fails. Both are timed best-of-N, interleaved in one process, so
//! machine speed cancels. Debug builds skip it: the threshold is set
//! from release timings.

#[path = "../../gt-text/tests/reference/mod.rs"]
mod reference;

use gt_text::{extract_urls, ExtractedUrl};
use gt_world::{World, WorldConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

const ROUNDS: usize = 15;
/// Measured 0.46-0.56x in release builds on a 2-vCPU x86-64 VM. With the
/// host lowercased into a new `String` at every word start again (the
/// reference's per-candidate allocation), it was 0.85-0.86x.
const MAX_RATIO: f64 = 0.7;

/// Wall time of one pass of `extract` over `corpus`, and the URLs found.
fn pass(corpus: &[&str], extract: fn(&str) -> Vec<ExtractedUrl>) -> (Duration, usize) {
    let started = Instant::now();
    let mut found = 0;
    for text in corpus {
        found += black_box(extract(text)).len();
    }
    (started.elapsed(), found)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing threshold set from release builds")]
fn extractor_costs_well_under_the_reference() {
    let world = World::generate(WorldConfig::scaled(0.02));
    // Every tweet's text, repeats included: the snapshot stores each
    // distinct text once, but the timed corpus reads it per tweet.
    let tweets = world
        .twitter
        .tweets()
        .iter()
        .map(|t| world.twitter.text(t.text));
    let chats = world
        .youtube
        .streams()
        .iter()
        .flat_map(|s| &s.chat)
        .map(|m| m.text.as_str());
    let corpus: Vec<&str> = tweets.chain(chats).collect();

    let mut new_best = Duration::MAX;
    let mut reference_best = Duration::MAX;
    let mut urls = (0, 0);
    // Interleave so a slow phase of the machine hits both alike.
    for _ in 0..ROUNDS {
        let (elapsed, found) = pass(&corpus, reference::extract_urls);
        reference_best = reference_best.min(elapsed);
        urls.0 = found;
        let (elapsed, found) = pass(&corpus, extract_urls);
        new_best = new_best.min(elapsed);
        urls.1 = found;
    }
    assert_eq!(urls.0, urls.1, "both extractors find the same URLs");
    assert!(urls.1 > 1_000, "the corpus carries URLs: {}", urls.1);
    let ratio = new_best.as_secs_f64() / reference_best.as_secs_f64().max(1e-9);
    eprintln!(
        "{} texts: extract_urls {new_best:?} vs reference {reference_best:?}: {ratio:.2}x",
        corpus.len()
    );
    assert!(
        ratio <= MAX_RATIO,
        "extract_urls {new_best:?} vs reference {reference_best:?}: {ratio:.2}x \
         (limit {MAX_RATIO}x)"
    );
}
