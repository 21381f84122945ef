//! Guard: decoding a tweet snapshot makes at most two allocations per
//! tweet, plus the domain index's own.
//!
//! A tweet owns two heap values a decode must build: its text and its
//! `Hashtags`, which keeps every tag in one allocation (an empty mention
//! list or tag list allocates nothing). With a `Vec<String>` of tags
//! instead, a scale-0.05 snapshot took about 3.9 allocations per tweet,
//! and a warm replay of a stored world paid for each. The count is
//! taken by a counting global allocator on the decoding thread, so it
//! is exact and the same in debug and release builds.

use gt_sim::RngFactory;
use gt_social::{TweetId, TwitterSnapshot};
use gt_world::sites::DomainFactory;
use gt_world::{twitter_gen, WorldConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

thread_local! {
    /// Allocations this thread made since the last reset.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator, counting each thread's allocations.
struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the count touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `f`'s result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|n| n.set(0));
    let out = f();
    (out, ALLOCS.with(Cell::get))
}

#[test]
fn snapshot_decode_makes_two_allocations_per_tweet_plus_the_index() {
    let config = WorldConfig::scaled(0.05);
    let mut snapshot = TwitterSnapshot::new();
    let factory = RngFactory::new(config.seed);
    twitter_gen::generate(&config, &factory, &mut DomainFactory::new(), &mut snapshot);
    let bytes = gt_store::encode_to_vec(&snapshot);
    // The index alone, encoded as the snapshot encodes it.
    let index: HashMap<String, Vec<TweetId>> = snapshot
        .indexed_domains()
        .map(|domain| {
            let tweets = snapshot.tweets_with_domain(domain);
            (domain.to_string(), tweets.iter().map(|t| t.id).collect())
        })
        .collect();
    let index_bytes = gt_store::encode_to_vec(&index);

    let (decoded, allocs) =
        counted(|| gt_store::decode_from_slice::<TwitterSnapshot>(&bytes).unwrap());
    let (_, index_allocs) = counted(|| {
        gt_store::decode_from_slice::<HashMap<String, Vec<TweetId>>>(&index_bytes).unwrap()
    });
    assert_eq!(decoded.tweets(), snapshot.tweets());
    let tweets = snapshot.len() as u64;
    // Two per tweet, one for the tweet vector, and the index's.
    let bound = 2 * tweets + 1 + index_allocs;
    assert!(
        allocs <= bound,
        "decoding {tweets} tweets made {allocs} allocations ({:.2} a tweet); \
         the bound is {bound} ({index_allocs} of them the index's)",
        allocs as f64 / tweets as f64
    );
}
