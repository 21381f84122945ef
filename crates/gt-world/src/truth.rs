//! Ground truth: what actually happened in the generated world.
//!
//! The measurement pipeline never sees this — it works from the same
//! observables the paper had. Ground truth exists so tests and
//! EXPERIMENTS.md can score the pipeline's recall and compare measured
//! values against generated ones.

use crate::sites::ScamDomain;
use gt_addr::Address;
use gt_chain::TxRef;
use gt_sim::SimTime;
use gt_social::{LiveStreamId, TweetId, TwitchStreamId};
use gt_store::{StoreDecode, StoreEncode};
use serde::Serialize;
use std::collections::HashSet;

/// Which platform a lure or payment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, StoreEncode, StoreDecode)]
pub enum Platform {
    Twitter,
    YouTube,
}

/// One victim payment as generated.
#[derive(Debug, Clone, PartialEq, Serialize, StoreEncode, StoreDecode)]
pub struct TruthPayment {
    pub platform: Platform,
    pub tx: TxRef,
    pub recipient: Address,
    /// Stable victim identifier (for unique-sender accounting).
    pub victim: u64,
    pub time: SimTime,
    /// USD value at generation time.
    pub usd: f64,
    /// Whether the sender was an exchange-custodied address.
    pub from_exchange: bool,
    /// Whether this payment was generated inside a co-occurrence window.
    pub co_occurring: bool,
}

/// A consolidation transfer between scam-controlled addresses that lands
/// inside a co-occurrence window (what the known-scam-sender filter must
/// remove).
#[derive(Debug, Clone, PartialEq, Serialize, StoreEncode, StoreDecode)]
pub struct TruthConsolidation {
    pub platform: Platform,
    pub tx: TxRef,
    pub recipient: Address,
    pub time: SimTime,
}

/// Everything the generator decided.
#[derive(Debug, Default, StoreEncode, StoreDecode)]
pub struct GroundTruth {
    /// Scam domains promoted on Twitter (the paper's 361).
    pub twitter_domains: Vec<ScamDomain>,
    /// Scam domains promoted via YouTube streams in the main window.
    pub youtube_domains: Vec<ScamDomain>,
    /// Scam domains promoted during the pilot study.
    pub pilot_domains: Vec<ScamDomain>,
    /// All tracked scam addresses across all scam domains.
    pub scam_addresses: HashSet<Address>,
    /// Every scam tweet generated.
    pub scam_tweets: Vec<TweetId>,
    /// Every scam livestream in the main window.
    pub scam_streams: Vec<LiveStreamId>,
    /// Scam streams in the pilot window.
    pub pilot_streams: Vec<LiveStreamId>,
    /// Twitch streams (all benign — the paper found none).
    pub twitch_streams: Vec<TwitchStreamId>,
    /// Victim payments.
    pub payments: Vec<TruthPayment>,
    /// In-window scam-to-scam consolidations.
    pub consolidations: Vec<TruthConsolidation>,
    /// Total views across scam streams (denominator of the YouTube
    /// conversion rate).
    pub total_scam_views: u64,
}

impl GroundTruth {
    /// Payments for one platform.
    pub fn payments_for(&self, platform: Platform) -> impl Iterator<Item = &TruthPayment> {
        self.payments.iter().filter(move |p| p.platform == platform)
    }

    /// Distinct victims that paid on a platform (co-occurring only).
    pub fn victim_count(&self, platform: Platform) -> usize {
        self.payments_for(platform)
            .filter(|p| p.co_occurring)
            .map(|p| p.victim)
            .collect::<HashSet<_>>()
            .len()
    }

    /// Co-occurring USD revenue for a platform.
    pub fn revenue_usd(&self, platform: Platform) -> f64 {
        self.payments_for(platform)
            .filter(|p| p.co_occurring)
            .map(|p| p.usd)
            .sum()
    }

    /// All domains (Twitter + YouTube + pilot).
    pub fn all_domains(&self) -> impl Iterator<Item = &ScamDomain> {
        self.twitter_domains
            .iter()
            .chain(&self.youtube_domains)
            .chain(&self.pilot_domains)
    }
}
